// Self-tests of the benchmark's own statistics: the tail-percentile rule,
// medians and quartiles (against values from Python's statistics module),
// and seed determinism of the Poisson schedule and shape mix.
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

struct Checker {
  bool verbose;
  int failures = 0;
  void expect(bool ok, const char* what) {
    if (!ok) ++failures;
    if (verbose || !ok) {
      std::printf("selftest %s: %s\n", ok ? "pass" : "FAIL", what);
    }
  }
};

bool near(double a, double b) { return std::abs(a - b) <= 1e-12; }

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;  // descending, so the functions must sort
}

}  // namespace

int run_selftest(bool verbose) {
  Checker c{verbose};
  const double inf = std::numeric_limits<double>::infinity();

  // Tail: highest of p50/p90/p99 with >= 10 samples beyond.
  {
    const Tail t = tail(iota(1000));
    c.expect(t.percentile == 99.0 && t.value == 990.0 && t.beyond == 10,
             "tail of 1000 samples is p99 with 10 beyond");
  }
  {
    const Tail t = tail(iota(999));
    c.expect(t.percentile == 90.0 && t.value == 900.0 && t.beyond == 99,
             "tail of 999 samples falls back to p90 (p99 has 9 beyond)");
  }
  {
    const Tail t = tail(iota(100000));
    c.expect(t.percentile == 99.0 && t.beyond == 1000,
             "tail of 100000 samples stays p99");
  }
  {
    const Tail t = tail(iota(20));
    c.expect(t.percentile == 50.0 && t.value == 10.0 && t.beyond == 10,
             "tail of 20 samples is the median");
  }
  {
    const Tail t = tail(iota(19));
    c.expect(t.percentile == 100.0 && t.value == 19.0 && t.beyond == 0,
             "tail of 19 samples is the maximum");
  }
  {
    std::vector<double> v = iota(990);
    v.insert(v.end(), 10, inf);
    const Tail t = tail(v);
    c.expect(t.percentile == 99.0 && t.value == 990.0,
             "10 infinitely late of 1000 leave p99 finite");
    v.back() = 989.5;
    v.push_back(inf);
    v.push_back(inf);
    c.expect(std::isinf(tail(v).value),
             "11 infinitely late of 1002 make p99 infinite");
  }

  // Median and quartiles (expected values from Python 3 statistics).
  c.expect(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd sample");
  c.expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even sample");
  {
    const auto q = quartiles(iota(10));
    c.expect(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25),
             "quartiles of 1..10 match statistics.quantiles");
  }
  {
    const auto q = quartiles({1.0, 2.0, 3.0, 4.0});
    c.expect(near(q[0], 1.25) && near(q[1], 2.5) && near(q[2], 3.75),
             "quartiles of 1..4 match statistics.quantiles");
  }
  {
    const auto q = quartiles({5.0, 1.0, 4.0});
    c.expect(near(q[0], 1.0) && near(q[1], 4.0) && near(q[2], 5.0),
             "quartiles of 3 samples match statistics.quantiles");
  }
  {
    const auto q = quartiles({3.5, 1.25});
    c.expect(near(q[0], 0.6875) && near(q[1], 2.375) && near(q[2], 4.0625),
             "quartiles of 2 samples extrapolate like statistics.quantiles");
  }

  // Schedules: a pure function of the seed.
  {
    const auto a = poisson_schedule(7, 800.0, 10.0, kServeShapes, 4, 0.1);
    const auto b = poisson_schedule(7, 800.0, 10.0, kServeShapes, 4, 0.1);
    const auto d = poisson_schedule(8, 800.0, 10.0, kServeShapes, 4, 0.1);
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].due_seconds == b[i].due_seconds &&
             a[i].shape == b[i].shape && a[i].inverse == b[i].inverse &&
             a[i].variant == b[i].variant && a[i].faulted == b[i].faulted &&
             a[i].seed == b[i].seed;
    }
    c.expect(same, "same seed gives the same schedule and shape mix");
    bool differs = a.size() != d.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i) {
      differs =
          a[i].due_seconds != d[i].due_seconds || a[i].shape != d[i].shape;
    }
    c.expect(differs, "another seed gives another schedule");

    std::vector<std::size_t> per_shape(kServeShapes);
    std::size_t faulted = 0;
    std::size_t inverse = 0;
    for (const auto& x : a) {
      ++per_shape[x.shape];
      faulted += x.faulted ? 1 : 0;
      inverse += x.inverse;
    }
    const double n = static_cast<double>(a.size());
    c.expect(std::abs(n / 10.0 - 800.0) < 800.0 * 0.05,
             "arrival rate within 5% of 800/s over 10 s");
    bool mix_ok = true;
    for (const std::size_t k : per_shape) {
      mix_ok = mix_ok && std::abs(static_cast<double>(k) / n - 0.2) < 0.03;
    }
    c.expect(mix_ok, "each of the 5 shapes gets a fifth of the requests");
    c.expect(std::abs(static_cast<double>(faulted) / n - 0.1) < 0.02,
             "a tenth of the requests carry the fault spec");
    c.expect(std::abs(static_cast<double>(inverse) / n - 0.5) < 0.03,
             "half of the requests are inverse transforms");
  }
  return c.failures;
}

}  // namespace perfbench
