#include "xfault/resilient_fft.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "xfft/plan_cache.hpp"
#include "xutil/check.hpp"
#include "xutil/rng.hpp"

namespace xfault {

namespace {

/// Relative tolerance of the Parseval checksum (float FFT rounding noise is
/// ~1e-6; an exponent-bit upset shifts row energy by orders of magnitude).
constexpr double kChecksumRelTolerance = 1e-3;

/// Flips one high exponent bit of a float — whichever of the two top
/// exponent bits is clear, so the upset always drives the magnitude UP (by
/// 2^128 when bit 30 is clear, 2^64 otherwise). A downward flip of a
/// modest element would change row energy by only that element's share,
/// which a row-relative checksum cannot see; upward flips are the
/// high-order-upset regime the Parseval check is guaranteed to catch.
void flip_exponent_bit(float* f) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, f, sizeof(bits));
  bits ^= (bits & (1u << 30)) == 0 ? (1u << 30) : (1u << 29);
  std::memcpy(f, &bits, sizeof(bits));
}

/// Injects transient upsets into `row`; each element is hit independently
/// with probability `rate`. The stream id makes every (row, attempt) pair
/// an independent, reproducible draw — a retry reruns the computation under
/// fresh transient conditions, it does not replay the same upset.
std::uint64_t inject_soft_errors(std::span<xfft::Cf> row, double rate,
                                 std::uint64_t seed, std::uint64_t stream) {
  if (rate <= 0.0) return 0;
  xutil::Pcg32 rng(seed, stream);
  std::uint64_t flips = 0;
  for (auto& v : row) {
    if (rng.next_double() >= rate) continue;
    auto* words = reinterpret_cast<float*>(&v);
    flip_exponent_bit(&words[rng.next_u32() & 1u]);
    ++flips;
  }
  return flips;
}

/// Sum of |v|^2 over `data`, accumulated in double (the checksum primitive).
double parseval_energy(std::span<const xfft::Cf> data) {
  double e = 0.0;
  for (const auto& v : data) {
    e += static_cast<double>(v.real()) * v.real() +
         static_cast<double>(v.imag()) * v.imag();
  }
  return e;
}

/// Checks each row PlanND<float> transforms, inside its passes. A row's
/// stream id is `row * max_attempts_per_row + attempt`, where `row` counts
/// the rows of the paper's row-FFT + rotation schedule in pass order: x row
/// y + z*ny, then y row z + x*nz, then z row x + y*nx (an axis of length 1
/// has no pass). So neither the flips nor the report depend on which thread
/// checks which row.
class SoftErrorChecker final : public xfft::detail::PassChecker<float> {
 public:
  SoftErrorChecker(const xfft::PlanND<float>& plan, std::span<xfft::Cf> data,
                   const ResilienceOptions& opt,
                   const xutil::CancelToken* cancel)
      : plan_(plan), data_(data), opt_(opt), cancel_(cancel) {}

  void check_lanes(int axis, std::size_t first, std::size_t width,
                   float* work, xfft::Cf* scratch) override {
    const xfft::Plan1D<float>& plan = plan_.axis_plan(axis);
    const std::size_t len = plan.size();
    const std::uint32_t* const perm = plan.perm().data();
    ResilienceReport t;
    for (std::size_t c = 0; c < width; ++c) {
      float* const re =
          work + c / xfft::kLanes * 2 * xfft::kLanes * len + c % xfft::kLanes;
      float* const im = re + xfft::kLanes * len;
      for (std::size_t k = 0; k < len; ++k) {
        scratch[k] = {re[perm[k] * xfft::kLanes], im[perm[k] * xfft::kLanes]};
      }
      check(axis, first + c * (axis == 0 ? len : 1), scratch, true, t);
      for (std::size_t k = 0; k < len; ++k) {
        re[perm[k] * xfft::kLanes] = scratch[k].real();
        im[perm[k] * xfft::kLanes] = scratch[k].imag();
      }
    }
    add(t);
  }

  void check_row(std::size_t first, xfft::Cf* scratch) override {
    ResilienceReport t;
    check(0, first, scratch, false, t);
    std::copy_n(scratch, plan_.dims().nx, data_.data() + first);
    add(t);
  }

  [[nodiscard]] ResilienceReport report() const {
    return {n_[0], n_[1], n_[2], n_[3], n_[4]};
  }

 private:
  /// Checks the row along `axis` from offset `first` of the data buffer,
  /// whose transform is in scratch[0, len) if `computed`. A rerun re-reads
  /// the input, which the write-back has not yet overwritten, and runs it
  /// through execute(); scratch holds 3 * len values.
  void check(int axis, std::size_t first, xfft::Cf* scratch, bool computed,
             ResilienceReport& t) const {
    const xfft::Dims3 d = plan_.dims();
    const xfft::Plan1D<float>& plan = plan_.axis_plan(axis);
    const std::size_t len = plan.size();
    const std::span<xfft::Cf> row(scratch, len);
    const std::span<xfft::Cf> input(scratch + len, len);
    const std::size_t step = axis == 0 ? 1 : axis == 1 ? d.nx : d.nx * d.ny;
    for (std::size_t k = 0; k < len; ++k) input[k] = data_[first + k * step];
    const double expected = parseval_energy(input) * static_cast<double>(len);
    const std::uint64_t x_rows = d.nx > 1 ? d.ny * d.nz : 0;
    const std::uint64_t id =
        axis == 0   ? first / d.nx
        : axis == 1 ? x_rows + first / (d.nx * d.ny) + first % d.nx * d.nz
                    : x_rows + (d.ny > 1 ? d.nx * d.nz : 0) + first;
    ++t.rows_computed;
    for (unsigned attempt = 0; attempt < opt_.max_attempts_per_row;
         ++attempt) {
      if (attempt > 0 || !computed) {
        std::copy(input.begin(), input.end(), row.begin());
        plan.execute(row, {scratch + 2 * len, len}, cancel_);
        if (attempt > 0) ++t.rows_recomputed;
      }
      t.flips_injected += inject_soft_errors(
          row, opt_.soft_flip_rate, opt_.seed,
          id * opt_.max_attempts_per_row + attempt);
      const double e_out = parseval_energy(row);
      if (std::isfinite(e_out) &&
          std::abs(e_out - expected) <=
              kChecksumRelTolerance * std::max(expected, 1e-30)) {
        return;
      }
      ++t.errors_detected;
    }
    ++t.retries_exhausted;
  }

  void add(const ResilienceReport& t) {
    n_[0] += t.rows_computed;
    n_[1] += t.flips_injected;
    n_[2] += t.errors_detected;
    n_[3] += t.rows_recomputed;
    n_[4] += t.retries_exhausted;
  }

  const xfft::PlanND<float>& plan_;
  std::span<xfft::Cf> data_;
  const ResilienceOptions& opt_;
  const xutil::CancelToken* cancel_;
  std::atomic<std::uint64_t> n_[5] = {};  // the report's fields, in order
};

}  // namespace

ResilienceReport resilient_fft(std::span<xfft::Cf> data, xfft::Dims3 dims,
                               xfft::Direction dir,
                               const ResilienceOptions& opt,
                               const xfft::ExecOptions& exec) {
  XU_CHECK_MSG(opt.max_attempts_per_row >= 1,
               "need at least one compute attempt per row");
  const auto plan = xfft::PlanCache::global().plan_nd(dims, dir);
  SoftErrorChecker checker(*plan, data, opt, exec.cancel);
  xfft::detail::execute_checked(*plan, data, exec, checker);
  return checker.report();
}

}  // namespace xfault
