// Generates per-thread trace programs for the FFT's breadth-first
// iterations, with the real access pattern of the paper's kernel: each
// thread loads its r complex points (DIF gather at stride block/r), loads
// r-1 twiddles from the replicated LUT region, computes, and stores the r
// results — in place for ordinary iterations, scattered through the axis
// rotation for the final iteration of a dimension.
//
// These programs drive the cycle-level Machine; the same kernel structure's
// aggregate counts (xfft::KernelPhase) drive the analytic model, which is
// how the two fidelities stay comparable.
#pragma once

#include "xfft/xmt_kernel.hpp"
#include "xsim/machine.hpp"

namespace xsim {

/// Synthetic address-space layout used by the generated traffic: the
/// working array, the rotation destination and the replicated LUT region.
inline constexpr std::uint64_t kDataBase = 0;
inline constexpr std::uint64_t kRotatedBase = 1ULL << 41;
inline constexpr std::uint64_t kTwiddleBase = 1ULL << 42;

/// FP cost of one on-demand twiddle (sin + cos, ~20 flops each on XMT).
inline constexpr unsigned kOnDemandTwiddleFlops = 40;

struct FftTrafficOptions {
  /// Replicas of the twiddle LUT (0 = pick per the paper's rule from the
  /// machine's cache-module count). 1 disables replication — the ablation
  /// that exposes the hot-spot queueing the paper warns about.
  unsigned twiddle_copies = 0;
  /// Compute twiddles with sin/cos instead of loading them (the other
  /// ablation arm of Section IV-A): no LUT loads, extra FP work.
  bool twiddle_on_demand = false;
};

/// Program generator for one FFT iteration (`phase`) of a transform over
/// `dims` on `config`. Thread IDs range over [0, phase.threads).
[[nodiscard]] ProgramGenerator make_fft_phase_generator(
    const MachineConfig& config, xfft::Dims3 dims,
    const xfft::KernelPhase& phase, FftTrafficOptions opt = {});

/// Uniform-random synthetic traffic: each thread issues `loads` loads and
/// `stores` stores spread by hashing over `footprint_bytes`. Used by the
/// machine's micro-benchmarks and tests.
[[nodiscard]] ProgramGenerator make_uniform_generator(
    std::size_t loads, std::size_t stores, std::uint64_t footprint_bytes,
    std::uint64_t seed);

/// Hot-spot traffic: every thread reads the same address (models an
/// unreplicated shared LUT entry: requests to one location queue).
[[nodiscard]] ProgramGenerator make_hotspot_generator(std::size_t loads,
                                                      std::uint64_t addr);

}  // namespace xsim
