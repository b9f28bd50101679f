// Shared declarations of the repository benchmark (perfbench).
//
// One binary runs one workload per process. Every workload drives the
// library only through its public headers; the harness code here times the
// calls, checks every output, and records spans around the calls when the
// run is traced. See perfbench/METRICS.md for the workloads, the metric
// definitions and the layer-to-end-to-end predictions.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Instant the process started (set during static initialization), so the
/// first set-up repetition includes loader and runtime start-up.
[[nodiscard]] Clock::time_point process_start();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned nproc = 1;
};

/// Everything one run measured. Metrics keep insertion order; the JSON
/// printer emits them all and perfbench/run.py selects the ones
/// BENCHMARK.json lists for the run's mode.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Bytes of the workload's largest live input array (environment line).
  std::uint64_t working_set_bytes = 0;
  unsigned pool_lanes = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }
  [[nodiscard]] double get(const std::string& name) const {
    for (const auto& m : metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }
};

/// Set-up repetitions per run; setup_s is their median. fft3d_large, whose
/// set-up includes a 256^3 warm-up round trip, uses kSetupRepsLarge.
inline constexpr int kSetupReps = 7;
inline constexpr int kSetupRepsLarge = 3;

/// Shapes of the serve workloads' request mix (each sent in both
/// directions). All fit in cache; they span 1-D, 2-D and 3-D plans.
struct MixShape {
  const char* label;
  std::size_t nx, ny, nz;
};
inline constexpr MixShape kServeMix[] = {{"1024", 1024, 1, 1},
                                         {"4096", 4096, 1, 1},
                                         {"64x64", 64, 64, 1},
                                         {"128x128", 128, 128, 1},
                                         {"32x32x32", 32, 32, 32}};
inline constexpr unsigned kServeShapes =
    sizeof(kServeMix) / sizeof(kServeMix[0]);

/// Per-element soft-flip rate of serve_steady's faulted requests: high
/// enough that some attempts fail their checksum and retry, low enough
/// that three failed attempts in a row (fault-exhausted) are vanishingly
/// rare even for the largest shape.
inline constexpr double kSteadyFlipRate = 2e-7;

/// Relative L2 error bounds of the correctness checks. Full-precision
/// float FFT rounding on these sizes is ~1e-7; the resilient path uses
/// separate rotation passes, so it is compared within the same bound.
inline constexpr double kFullPrecisionTol = 1e-4;
/// Q15 answers are quantized to 2^-15 of full scale per stage (about
/// 0.6% relative error on half-scale inputs).
inline constexpr double kQ15Tol = 2e-2;

/// Workloads. Each fills the end-to-end metrics and the per-layer metrics
/// its own run yields; with opt.trace it records spans into `tracer`.
Report run_serve(const RunOptions& opt, bool overload, Tracer& tracer);
Report run_fft3d(const RunOptions& opt, Tracer& tracer);
Report run_sim(const RunOptions& opt, Tracer& tracer);

/// Per-layer probes of a traced run: isolated timings of single layers
/// (serial kernels, rotation, fork/join, analytic model, resilient FFT,
/// one detailed simulation) added to `report`.
void run_probes(const RunOptions& opt, double flip_rate, Tracer& tracer,
                Report& report);

/// Detailed simulation of the 256x256 radix-8 FFT on the 16-cluster
/// machine; shared by the sim_machine workload and the probes.
struct SimRun {
  struct Phase {
    std::string name;  ///< metric-safe phase name
    std::uint64_t cycles = 0;
    std::uint64_t mem_requests = 0;
    std::uint64_t cache_hits = 0;
    double dram_utilization = 0.0;
    double fpu_utilization = 0.0;
    double host_seconds = 0.0;
    double analytic_cycles = 0.0;
  };
  std::vector<Phase> phases;
  std::uint64_t total_cycles = 0;
  std::uint64_t mem_requests = 0;
  double host_seconds = 0.0;
  bool truncated = false;
  /// Exact fingerprint of every simulated statistic, for identity checks.
  std::string fingerprint;
};

/// Owns the machine, the phase list and the analytic per-phase cycles, so
/// repeated runs pay construction once (in set-up).
class SimHarness {
 public:
  SimHarness();
  ~SimHarness();
  SimHarness(const SimHarness&) = delete;
  SimHarness& operator=(const SimHarness&) = delete;

  /// Simulates every phase; spans go to `tracer` when `traced`.
  SimRun run(Tracer& tracer, bool traced);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Adds the xsim.* per-layer metrics of `run` to `report`.
void report_sim_layers(const SimRun& run, Report& report);

/// Statistics self-tests; returns the number of failures (0 = all pass).
int run_selftest(bool verbose);

}  // namespace perfbench
