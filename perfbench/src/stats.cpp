#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "xutil/rng.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::array<double, 3> quartiles(std::vector<double> v) {
  if (v.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive") with n = 4, in its exact
  // integer form: j = i*m // n clamped to [1, ld-1], delta = i*m - j*n.
  const auto ld = static_cast<std::int64_t>(v.size());
  const std::int64_t m = ld + 1;
  constexpr std::int64_t n = 4;
  std::array<double, 3> out{};
  for (std::int64_t i = 1; i < n; ++i) {
    const std::int64_t j = std::clamp(i * m / n, std::int64_t{1}, ld - 1);
    const std::int64_t delta = i * m - j * n;
    out[static_cast<std::size_t>(i - 1)] =
        (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(n - delta) +
         v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        static_cast<double>(n);
  }
  return out;
}

double nearest_rank(std::span<const double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

Tail tail(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  t.value = v.back();
  for (const double p : {99.0, 90.0, 50.0}) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
    if (rank >= 1 && v.size() - rank >= 10) {
      t.percentile = p;
      t.value = v[rank - 1];
      t.beyond = v.size() - rank;
      return t;
    }
  }
  return t;
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                      double seconds, unsigned shapes,
                                      unsigned variants,
                                      double fault_fraction) {
  if (rate <= 0.0 || shapes == 0 || shapes > 255 || variants == 0 ||
      variants > 255) {
    throw std::invalid_argument("poisson_schedule: bad rate or mix size");
  }
  xutil::Pcg32 rng(seed, 0x7e4b);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.next_double()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.due_seconds = t;
    a.shape = static_cast<std::uint8_t>(rng.next_below(shapes));
    a.inverse = static_cast<std::uint8_t>(rng.next_below(2));
    a.variant = static_cast<std::uint8_t>(rng.next_below(variants));
    a.faulted = rng.next_double() < fault_fraction;
    a.seed = rng.next_u64();
    out.push_back(a);
  }
  return out;
}

}  // namespace perfbench
