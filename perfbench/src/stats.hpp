// Statistics and input generation of the benchmark, kept free of library
// dependencies so the self-tests can pin them down exactly.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count), as Python's
/// statistics.median. Requires a non-empty sample.
[[nodiscard]] double median(std::vector<double> v);

/// First, second and third quartile by Python's statistics.quantiles(v,
/// n=4) default ("exclusive") method. Requires at least two samples.
[[nodiscard]] std::array<double, 3> quartiles(std::vector<double> v);

/// Nearest-rank percentile of an ascending-sorted sample (p in (0, 100]).
[[nodiscard]] double nearest_rank(std::span<const double> sorted, double p);

/// The highest of the percentiles 50, 90 and 99 that has at least ten
/// samples beyond it (p99 from 1000 samples on). With fewer than 20 samples
/// none does, and the maximum (p100) is reported instead. Samples may be
/// +inf (failed requests count as infinitely late).
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
  std::uint64_t beyond = 0;  ///< samples strictly after the chosen rank
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// One scheduled request of an open-loop serve workload.
struct Arrival {
  double due_seconds = 0.0;  ///< offset from the start of the window
  std::uint8_t shape = 0;    ///< index into the workload's shape mix
  std::uint8_t inverse = 0;  ///< 1 = inverse transform
  std::uint8_t variant = 0;  ///< which pre-generated input buffer
  bool faulted = false;      ///< carries the soft-flip fault spec
  std::uint64_t seed = 0;    ///< per-request fault-injection seed
};

/// Seeded Poisson arrivals at `rate` per second over `seconds`, each with
/// a uniform draw from `shapes` shapes x 2 directions x `variants` inputs,
/// and a fault flag with probability `fault_fraction`. Pure function of its
/// arguments.
[[nodiscard]] std::vector<Arrival> poisson_schedule(std::uint64_t seed,
                                                    double rate,
                                                    double seconds,
                                                    unsigned shapes,
                                                    unsigned variants,
                                                    double fault_fraction);

}  // namespace perfbench
