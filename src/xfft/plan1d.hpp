// One-dimensional FFT plan: iterative mixed-radix decimation-in-frequency,
// the algorithm the paper implements on XMT (Section IV-A: radix-8 DIF,
// breadth-first/iterative, twiddles from a precomputed table).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "xfft/permute.hpp"
#include "xfft/twiddle.hpp"
#include "xfft/types.hpp"
#include "xutil/aligned.hpp"
#include "xutil/cancel.hpp"

namespace xfft {

/// Chooses stage radices for size n: prefers `max_radix` (by default the
/// paper's radix 8) for power-of-two sizes, falling back to 4/2 for the
/// remainder, and to the prime factorization for general smooth sizes.
/// Throws if n has a prime factor above kMaxRadix.
[[nodiscard]] std::vector<unsigned> choose_radices(std::size_t n,
                                                   unsigned max_radix = 8);

/// Transforms Plan1D::execute_lanes runs in lockstep, the size of PlanND's
/// work blocks: 16 pencils at adjacent x are one 128-B run per step along
/// the pencil in single precision.
inline constexpr std::size_t kLanes = 16;

/// Name of the build of the radix-2/4/8 stage loop this process runs, the
/// widest its CPU supports: "x86-64-v4" (AVX-512), "x86-64-v3" (AVX2) or
/// "baseline" (the only build outside an x86-64 GCC Release library).
/// Every build gives byte-identical output (docs/architecture.md §3).
[[nodiscard]] std::string_view stage_loop_build();

/// Tuning options for Plan1D.
struct PlanOptions {
  /// Largest radix the planner may pick (2, 4 or 8 for power-of-two sizes).
  unsigned max_radix = 8;
  /// Inverse-transform scaling convention.
  Scaling scaling = Scaling::kUnitary1OverN;
};

/// In-place 1-D FFT plan over std::complex<T>, natural order in and out.
///
/// The plan owns its twiddle table, one precomputed twiddle row per stage
/// and the digit-reversal permutation, so executing is allocation-free
/// except for a reusable scratch buffer.
/// A plan is cheap to execute many times (amortizing table construction),
/// mirroring FFTW's plan/execute split. Executing the same plan from
/// multiple threads concurrently is not supported (shared scratch).
///
/// Each stage computes in double precision, also for T = float: a
/// butterfly widens its inputs, runs its core and its twiddle multiplies on
/// double-precision roots, and rounds each output once to T. With float
/// arithmetic the rounding error of a round trip would repeat on every pass
/// over similar data, so forward+inverse round trips on one buffer would
/// drift linearly; with one rounding per stage the drift is a random walk.
/// The output is bit-identical to the same schedule run one butterfly at a
/// time with std::complex<double> operators for finite inputs whose
/// spectrum does not overflow. A non-finite input (NaN or an infinity) or
/// an overflowing spectrum gives unspecified values, but never an
/// all-finite output.
template <typename T>
class Plan1D {
 public:
  Plan1D(std::size_t n, Direction dir, PlanOptions opt = {});

  /// Transforms `data` (length n) in place; output in natural order.
  void execute(std::span<std::complex<T>> data) const;

  /// Same, but reordering through a caller-provided scratch buffer
  /// (length >= n) instead of the plan's shared one. This is the
  /// concurrency-safe entry point: the plan's tables are read-only during
  /// execution, so any number of threads may run this on the same plan as
  /// long as each brings its own scratch (PlanND's rows past its last
  /// full block of kLanes).
  ///
  /// A non-null `cancel` token is polled between butterfly stages; once it
  /// expires the remaining stages and the reorder are skipped and `data` is
  /// left unspecified. Callers that pass a token must check it after the
  /// call and discard the buffer on expiry (the xserve deadline path).
  void execute(std::span<std::complex<T>> data,
               std::span<std::complex<T>> scratch,
               const xutil::CancelToken* cancel = nullptr) const;

  /// Runs the butterfly stages on kLanes transforms at once, stored
  /// lane-major in two disjoint arrays of kLanes * size() values: element
  /// q of lane l at re[q*kLanes + l] and im[q*kLanes + l]. Each lane gets
  /// exactly the arithmetic of execute(), but the output stays
  /// digit-reversed (frequency k of every lane in row perm()[k]) and
  /// unscaled; PlanND folds the reorder into its write-back. `cancel` is
  /// polled between stages as in execute().
  void execute_lanes(T* re, T* im,
                     const xutil::CancelToken* cancel = nullptr) const;

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] Direction direction() const { return dir_; }
  [[nodiscard]] const std::vector<unsigned>& radices() const {
    return radices_;
  }
  /// Actual real floating-point operations per execution (adds + multiplies,
  /// counting all twiddle multiplies); used for host GFLOPS reporting.
  [[nodiscard]] std::uint64_t actual_flops() const { return flops_; }
  /// perm()[k] = row of frequency k in the digit-reversed stage output.
  [[nodiscard]] const std::vector<std::uint32_t>& perm() const {
    return perm_;
  }

 private:
  // The one stage driver: every stage through dif_block<R, L>, the
  // radix-2/4/8 ones in the build stage_loop_build() names, polling
  // `cancel` between stages. L = 1 runs one interleaved array, L = kLanes
  // a lane-major block (see execute_lanes).
  template <std::size_t L>
  void run_stages(T* re, T* im, const xutil::CancelToken* cancel) const;
  void apply_scaling(std::span<std::complex<T>> data) const;

  std::size_t n_;
  Direction dir_;
  PlanOptions opt_;
  std::vector<unsigned> radices_;
  TwiddleTable<double> tw_;
  // Stage twiddle rows back to back, n-1 roots in all: a stage of radix r
  // and block length L = r*sub holds row[j*(r-1) + i-1] = w_L^{-i*j} for
  // j < sub, 1 <= i < r. Since i*j < L the index needs no modulo.
  xutil::AlignedVector<std::complex<double>> rows_;
  // perm_[k] = position of frequency k in the digit-reversed stage output.
  std::vector<std::uint32_t> perm_;
  std::uint64_t flops_ = 0;
  // Cache-line aligned so the batched butterfly loops see aligned rows;
  // shared, hence the external-scratch execute overload for concurrency.
  mutable xutil::AlignedVector<std::complex<T>> scratch_;
};

extern template class Plan1D<float>;
extern template class Plan1D<double>;

}  // namespace xfft
