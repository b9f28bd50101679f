// Running-statistics accumulator used by the simulator's resource monitors
// and by benchmark harnesses.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace xutil {

/// Welford-style online accumulator: numerically stable mean/variance plus
/// min/max, suitable for millions of samples.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merges another accumulator (parallel reduction of per-worker stats).
  void merge(const RunningStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Linear-interpolation percentile of an unsorted sample (p in [0,100]).
[[nodiscard]] double percentile(std::span<const double> samples, double p);

}  // namespace xutil
