// Metamorphic property suite over every FFT engine in the repository.
//
// Instead of comparing an engine to an oracle transform, each property
// relates the engine's output on a transformed input to a transformation of
// its output on the original input — so one suite covers engines with very
// different numerics (including the Q15 fixed-point path) without
// per-engine golden data:
//
//   linearity       F(a*x + b*y) == a*F(x) + b*F(y)
//   parseval        sum |X|^2 == N * sum |x|^2
//   round-trip      inv(fwd(x) / N) == x      (unitarity of fwd∘inv)
//   shift-twist     circular shift by s along an axis of length n multiplies
//                   spectrum bin k by e^{-2*pi*i*k*s/n}
//   impulse-flat    F(amp * delta_0) == amp everywhere
//
// Every engine is adapted to one convention — the *unscaled* DFT — so the
// properties read identically for all of them; adapters undo each engine's
// native scaling (Q15's per-stage halving, resilient_fft's unitary inverse).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "xfft/types.hpp"

namespace xcheck {

/// One FFT engine adapted to the unscaled-DFT convention on a flattened
/// row-major (x fastest) array of dims.total() samples.
struct Engine {
  std::string name;
  int max_rank = 1;        ///< 1 = rows only, 3 = full N-D
  bool pow2_only = true;   ///< false: any length (Bluestein)
  bool fixed_point = false;  ///< Q15 path: bounded inputs, loose tolerance
  std::function<void(std::span<xfft::Cf>, xfft::Dims3, xfft::Direction)>
      transform;

  [[nodiscard]] bool supports(xfft::Dims3 dims) const;
  /// Inputs are drawn in [-amp_limit, amp_limit] per component so the Q15
  /// path never saturates (sum of N bounded samples must stay inside [-1,1)
  /// after the per-stage halvings).
  [[nodiscard]] double amp_limit() const { return fixed_point ? 0.25 : 1.0; }
  /// Relative l2 error allowed at total size n (tolerances.hpp).
  [[nodiscard]] double tolerance(std::size_t n) const;
};

/// Every engine in the repository: Plan1D at max radix 8/4/2, the Stockham,
/// recursive-DIT and four-step baselines, Bluestein/fft_any, PlanND (the
/// XMT kernel's host twin), the Q15 fixed-point path, and the xfault
/// resilience harness at flip rate 0.
[[nodiscard]] std::vector<Engine> all_engines();

struct PropertyResult {
  std::string engine;
  std::string property;
  xfft::Dims3 dims;
  double error = 0.0;  ///< relative l2 (or relative scalar gap for Parseval)
  double tol = 0.0;
  bool pass = false;

  [[nodiscard]] std::string describe() const;
};

/// Runs all five properties of one engine at one size. Deterministic in
/// `seed`. Skips (returns empty) when the engine does not support `dims`.
[[nodiscard]] std::vector<PropertyResult> run_properties(const Engine& engine,
                                                         xfft::Dims3 dims,
                                                         std::uint64_t seed);

/// The full campaign: every engine crossed with the standard size grid
/// (1-D powers of two for row engines, prime and non-pow2 smooth lengths
/// for Bluestein, 2-D/3-D grids for the N-D engines).
[[nodiscard]] std::vector<PropertyResult> run_metamorphic_suite(
    std::uint64_t seed);

}  // namespace xcheck
