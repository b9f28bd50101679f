#include "xcheck/metamorphic.hpp"

#include <cmath>
#include <complex>
#include <cstdio>

#include "xcheck/tolerances.hpp"
#include "xfault/resilient_fft.hpp"
#include "xfft/bluestein.hpp"
#include "xfft/engines.hpp"
#include "xfft/fftnd.hpp"
#include "xfft/fixed_point.hpp"
#include "xfft/plan1d.hpp"
#include "xutil/check.hpp"
#include "xutil/rng.hpp"

namespace xcheck {

namespace {

using xfft::Cf;
using xfft::Dims3;
using xfft::Direction;

bool is_pow2(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

std::vector<Cf> random_signal(std::size_t n, double amp, xutil::Pcg32& rng) {
  std::vector<Cf> x(n);
  for (auto& v : x) {
    v = Cf(static_cast<float>(amp) * rng.next_signed_unit(),
           static_cast<float>(amp) * rng.next_signed_unit());
  }
  return x;
}

/// Relative l2 distance ||got - want|| / ||want||.
double rel_l2(std::span<const Cf> got, std::span<const Cf> want) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::complex<double> d(
        static_cast<double>(got[i].real()) - want[i].real(),
        static_cast<double>(got[i].imag()) - want[i].imag());
    num += std::norm(d);
    den += std::norm(std::complex<double>(want[i]));
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

double energy(std::span<const Cf> x) {
  double e = 0.0;
  for (const auto& v : x) e += std::norm(std::complex<double>(v));
  return e;
}

Engine make_plan1d(unsigned max_radix) {
  Engine e;
  e.name = "plan1d-r" + std::to_string(max_radix);
  e.transform = [max_radix](std::span<Cf> data, Dims3, Direction dir) {
    xfft::PlanOptions opt;
    opt.max_radix = max_radix;
    opt.scaling = xfft::Scaling::kNone;
    const xfft::Plan1D<float> plan(data.size(), dir, opt);
    plan.execute(data);
  };
  return e;
}

}  // namespace

bool Engine::supports(Dims3 dims) const {
  if (dims.rank() > max_rank) return false;
  if (dims.total() < 2) return false;
  if (pow2_only &&
      !(is_pow2(dims.nx) && is_pow2(dims.ny) && is_pow2(dims.nz))) {
    return false;
  }
  return true;
}

double Engine::tolerance(std::size_t n) const {
  return fixed_point ? tol::kQ15RelTolerance : tol::metamorphic_base_tol(n);
}

std::vector<Engine> all_engines() {
  std::vector<Engine> engines;
  engines.push_back(make_plan1d(8));
  engines.push_back(make_plan1d(4));
  engines.push_back(make_plan1d(2));

  Engine stockham;
  stockham.name = "stockham";
  stockham.transform = [](std::span<Cf> data, Dims3, Direction dir) {
    xfft::fft_stockham(data, dir);
  };
  engines.push_back(std::move(stockham));

  Engine dit;
  dit.name = "dit-recursive";
  dit.transform = [](std::span<Cf> data, Dims3, Direction dir) {
    xfft::fft_radix2_dit_recursive(data, dir);
  };
  engines.push_back(std::move(dit));

  Engine four_step;
  four_step.name = "four-step";
  four_step.transform = [](std::span<Cf> data, Dims3, Direction dir) {
    xfft::fft_four_step(data, dir);
  };
  engines.push_back(std::move(four_step));

  Engine bluestein;
  bluestein.name = "bluestein";
  bluestein.pow2_only = false;
  bluestein.transform = [](std::span<Cf> data, Dims3, Direction dir) {
    xfft::fft_any(data, dir);
  };
  engines.push_back(std::move(bluestein));

  Engine plannd;
  plannd.name = "plannd";
  plannd.max_rank = 3;
  plannd.transform = [](std::span<Cf> data, Dims3 dims, Direction dir) {
    xfft::PlanND<float>::Options opt;
    opt.scaling = xfft::Scaling::kNone;
    const xfft::PlanND<float> plan(dims, dir, opt);
    plan.execute(data);
  };
  engines.push_back(std::move(plannd));

  Engine q15;
  q15.name = "q15";
  q15.fixed_point = true;
  // fft_q15 halves every stage (computes X/N in both directions); multiply
  // back by N in float so the adapter presents the unscaled convention.
  q15.transform = [](std::span<Cf> data, Dims3, Direction dir) {
    auto q = xfft::to_q15(data);
    xfft::fft_q15(q, dir);
    const auto f = xfft::from_q15(q);
    const auto n = static_cast<float>(data.size());
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = f[i] * n;
  };
  engines.push_back(std::move(q15));

  Engine resilient;
  resilient.name = "resilient-fft";
  resilient.max_rank = 3;
  // Flip rate 0: the harness must be numerically transparent. Its inverse
  // applies the unitary 1/N; undo it for the unscaled convention.
  resilient.transform = [](std::span<Cf> data, Dims3 dims, Direction dir) {
    xfault::ResilienceOptions opt;
    opt.soft_flip_rate = 0.0;
    const auto report = xfault::resilient_fft(data, dims, dir, opt);
    XU_CHECK_MSG(report.ok(), "resilient_fft exhausted retries at rate 0");
    if (dir == Direction::kInverse) {
      const auto n = static_cast<float>(dims.total());
      for (auto& v : data) v *= n;
    }
  };
  engines.push_back(std::move(resilient));

  return engines;
}

std::string PropertyResult::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s/%s %zux%zux%zu: err=%.3g tol=%.3g %s",
                engine.c_str(), property.c_str(), dims.nx, dims.ny, dims.nz,
                error, tol, pass ? "ok" : "FAIL");
  return buf;
}

std::vector<PropertyResult> run_properties(const Engine& engine, Dims3 dims,
                                           std::uint64_t seed) {
  std::vector<PropertyResult> out;
  if (!engine.supports(dims)) return out;

  const std::size_t n = dims.total();
  const double amp = engine.amp_limit();
  const double tol = engine.tolerance(n);
  // One stream per size so adding sizes never perturbs existing draws; the
  // same inputs are deliberately reused across engines.
  xutil::Pcg32 rng(seed, dims.nx * 73856093ull + dims.ny * 19349663ull +
                             dims.nz * 83492791ull);
  const auto emit = [&](const std::string& property, double error) {
    PropertyResult r;
    r.engine = engine.name;
    r.property = property;
    r.dims = dims;
    r.error = error;
    r.tol = tol;
    r.pass = error <= tol;
    out.push_back(std::move(r));
  };
  const auto fwd = [&](std::vector<Cf>& data) {
    engine.transform(data, dims, Direction::kForward);
  };

  const std::vector<Cf> x = random_signal(n, amp, rng);
  const std::vector<Cf> y = random_signal(n, amp, rng);
  std::vector<Cf> fx = x, fy = y;
  fwd(fx);
  fwd(fy);

  // Linearity. |a| + |b| < 1 keeps the combined input inside the Q15
  // amplitude budget.
  {
    const double th_a = rng.next_double() * 6.283185307179586;
    const double th_b = rng.next_double() * 6.283185307179586;
    const Cf a(static_cast<float>(0.60 * std::cos(th_a)),
               static_cast<float>(0.60 * std::sin(th_a)));
    const Cf b(static_cast<float>(0.35 * std::cos(th_b)),
               static_cast<float>(0.35 * std::sin(th_b)));
    std::vector<Cf> z(n), want(n);
    for (std::size_t i = 0; i < n; ++i) z[i] = a * x[i] + b * y[i];
    fwd(z);
    for (std::size_t i = 0; i < n; ++i) want[i] = a * fx[i] + b * fy[i];
    emit("linearity", rel_l2(z, want));
  }

  // Parseval: sum |X|^2 == N * sum |x|^2.
  {
    const double lhs = energy(fx);
    const double rhs = static_cast<double>(n) * energy(x);
    emit("parseval", rhs > 0.0 ? std::abs(lhs - rhs) / rhs : std::abs(lhs));
  }

  // Round-trip: inv(fwd(x) / N) == x. Dividing first keeps the inverse
  // input inside the Q15 range (|X|/N <= max |x|).
  {
    std::vector<Cf> z = fx;
    const auto inv_n = 1.0f / static_cast<float>(n);
    for (auto& v : z) v *= inv_n;
    engine.transform(z, dims, Direction::kInverse);
    emit("round-trip", rel_l2(z, x));
  }

  // Circular shift along each nontrivial axis -> per-bin phase twist.
  {
    const std::size_t axis_len[3] = {dims.nx, dims.ny, dims.nz};
    const char axis_name[3] = {'x', 'y', 'z'};
    for (int axis = 0; axis < 3; ++axis) {
      const std::size_t len = axis_len[axis];
      if (len < 2) continue;
      const std::size_t shift =
          1 + rng.next_below(static_cast<std::uint32_t>(len - 1));
      std::vector<Cf> shifted(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t ix = i % dims.nx;
        const std::size_t iy = (i / dims.nx) % dims.ny;
        const std::size_t iz = i / (dims.nx * dims.ny);
        std::size_t c[3] = {ix, iy, iz};
        c[axis] = (c[axis] + shift) % len;  // shifted[.., c+s, ..] = x[.., c, ..]
        shifted[(c[2] * dims.ny + c[1]) * dims.nx + c[0]] = x[i];
      }
      fwd(shifted);
      std::vector<Cf> want(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t k[3] = {i % dims.nx, (i / dims.nx) % dims.ny,
                                  i / (dims.nx * dims.ny)};
        const double phase = -6.283185307179586 *
                             static_cast<double>(k[axis] * shift) /
                             static_cast<double>(len);
        const std::complex<double> twist(std::cos(phase), std::sin(phase));
        want[i] = Cf(std::complex<double>(fx[i]) * twist);
      }
      emit(std::string("shift-twist-") + axis_name[axis],
           rel_l2(shifted, want));
    }
  }

  // Impulse at the origin -> constant spectrum.
  {
    std::vector<Cf> z(n, Cf(0.0f, 0.0f));
    z[0] = Cf(static_cast<float>(amp), 0.0f);
    fwd(z);
    const std::vector<Cf> want(n, Cf(static_cast<float>(amp), 0.0f));
    emit("impulse-flat", rel_l2(z, want));
  }

  return out;
}

std::vector<PropertyResult> run_metamorphic_suite(std::uint64_t seed) {
  const Dims3 grid[] = {
      {16, 1, 1},  {64, 1, 1}, {256, 1, 1},         // 1-D powers of two
      {17, 1, 1},  {97, 1, 1},                      // primes (Bluestein)
      {60, 1, 1},                                   // non-pow2 smooth
      {16, 16, 1}, {32, 4, 1}, {8, 8, 8},           // N-D grids
  };
  std::vector<PropertyResult> all;
  for (const auto& engine : all_engines()) {
    for (const auto& dims : grid) {
      auto results = run_properties(engine, dims, seed);
      all.insert(all.end(), results.begin(), results.end());
    }
  }
  return all;
}

}  // namespace xcheck
