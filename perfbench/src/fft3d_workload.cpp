// fft3d_large: closed loop, one caller, forward then inverse PlanND<float>
// on 256^3 (128 MiB) with fused rotation on an nproc-lane pool: the
// paper's own workload shape, limited by memory passes and pool scaling.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"
#include "xfft/fftnd.hpp"
#include "xpar/pool.hpp"
#include "xutil/aligned.hpp"
#include "xutil/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kEdge = 256;
constexpr std::int64_t kChunk = std::int64_t{1} << 16;
/// Round-trip relative L2 error bound (float rounding on 256^3 is ~1e-7).
constexpr double kRoundTripTol = 1e-5;

/// Input element i, from a per-chunk stream so generation and the
/// round-trip check can run in parallel and regenerate without a copy.
template <typename Fn>
void for_each_input(std::uint64_t seed, std::int64_t n, Fn&& fn) {
  xpar::parallel_for(0, (n + kChunk - 1) / kChunk, 1,
                     [&](std::int64_t cb, std::int64_t ce) {
                       for (std::int64_t c = cb; c < ce; ++c) {
                         xutil::Pcg32 rng(seed, static_cast<std::uint64_t>(c));
                         const std::int64_t end = std::min(n, (c + 1) * kChunk);
                         for (std::int64_t i = c * kChunk; i < end; ++i) {
                           const float re = rng.next_signed_unit();
                           fn(i, xfft::Cf(re, rng.next_signed_unit()));
                         }
                       }
                     });
}

double round_trip_error(std::span<const xfft::Cf> data, std::uint64_t seed) {
  const auto n = static_cast<std::int64_t>(data.size());
  const std::int64_t chunks = (n + kChunk - 1) / kChunk;
  std::vector<double> d2(static_cast<std::size_t>(chunks));
  std::vector<double> w2(static_cast<std::size_t>(chunks));
  for_each_input(seed, n, [&](std::int64_t i, xfft::Cf want) {
    const auto c = static_cast<std::size_t>(i / kChunk);
    const xfft::Cf got = data[static_cast<std::size_t>(i)];
    d2[c] += std::norm(std::complex<double>(got.real() - want.real(),
                                            got.imag() - want.imag()));
    w2[c] += std::norm(std::complex<double>(want.real(), want.imag()));
  });
  double sd = 0.0;
  double sw = 0.0;
  for (std::size_t c = 0; c < d2.size(); ++c) {
    sd += d2[c];
    sw += w2[c];
  }
  return std::sqrt(sd / std::max(sw, 1e-300));
}

struct Fft3dState {
  xutil::AlignedVector<xfft::Cf> data;
  std::unique_ptr<xfft::PlanND<float>> fwd;
  std::unique_ptr<xfft::PlanND<float>> inv;
};

}  // namespace

Report run_fft3d(const RunOptions& opt, Tracer& tracer) {
  Report rep;
  rep.pool_lanes = opt.nproc;
  xpar::ThreadPool::set_global_threads(rep.pool_lanes);
  const xfft::Dims3 dims{kEdge, kEdge, kEdge};
  const std::size_t n = dims.total();
  rep.working_set_bytes = n * sizeof(xfft::Cf);

  std::vector<double> setup_times;
  Fft3dState st;
  for (int r = 0; r < kSetupRepsLarge; ++r) {
    const auto t0 = r == 0 ? process_start() : Clock::now();
    st = Fft3dState{};
    st.data.resize(n);
    for_each_input(opt.seed, static_cast<std::int64_t>(n),
                   [&](std::int64_t i, xfft::Cf v) {
                     st.data[static_cast<std::size_t>(i)] = v;
                   });
    st.fwd = std::make_unique<xfft::PlanND<float>>(dims,
                                                   xfft::Direction::kForward);
    st.inv = std::make_unique<xfft::PlanND<float>>(dims,
                                                   xfft::Direction::kInverse);
    // Warm-up round trip: touches both plans' scratch and the pool.
    st.fwd->execute(std::span<xfft::Cf>(st.data.data(), n));
    st.inv->execute(std::span<xfft::Cf>(st.data.data(), n));
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }
  rep.set("setup_s", median(setup_times), "s");
  if (round_trip_error(std::span<const xfft::Cf>(st.data.data(), n),
                       opt.seed) > kRoundTripTol) {
    ++rep.failed;
  }

  std::vector<double> ms;
  std::vector<double> ms_first;
  std::vector<double> ms_second;
  double max_err = 0.0;
  const auto t_start = Clock::now();
  const std::span<xfft::Cf> data(st.data.data(), n);
  while (seconds_between(t_start, Clock::now()) < opt.seconds) {
    const bool traced =
        tracer.enabled() && seconds_between(t_start, Clock::now()) >=
                                opt.seconds / 2;
    const auto root = traced ? tracer.begin("roundtrip") : Tracer::kNoParent;
    for (const auto* plan : {st.fwd.get(), st.inv.get()}) {
      const auto t0 = Clock::now();
      plan->execute(data);
      const auto t1 = Clock::now();
      if (traced) {
        tracer.record(plan == st.fwd.get() ? "xfft.PlanND.forward"
                                           : "xfft.PlanND.inverse",
                      t0, t1, root);
      }
      const double v = seconds_between(t0, t1) * 1e3;
      ms.push_back(v);
      (traced ? ms_second : ms_first).push_back(v);
    }
    const auto c0 = Clock::now();
    const double err = round_trip_error(data, opt.seed);
    if (traced) tracer.record("harness.check", c0, Clock::now(), root);
    tracer.end(root);
    max_err = std::max(max_err, err);
    ++rep.attempted;
    if (!(err <= kRoundTripTol)) ++rep.failed;
  }

  const double p50 = median(ms);
  const Tail tl = tail(ms);
  const double flops = xfft::standard_fft_flops(n);
  rep.set("latency.p50_ms", p50, "ms");
  rep.set("latency.tail_ms", tl.value, "ms");
  rep.set("throughput_per_s", 1e3 / p50, "1/s");
  if (!ms_first.empty() && !ms_second.empty()) {
    rep.set("trace.overhead_p50_ms", median(ms_second) - median(ms_first),
            "ms");
  }
  std::printf("fft3d: %zu transforms (%llu round trips), max round-trip rel"
              " L2 error %.3g (bound %.0e)\n",
              ms.size(), static_cast<unsigned long long>(rep.attempted),
              max_err, kRoundTripTol);
  std::printf("fft3d_gflops %.4f GFLOPS (5 N log2 N, median per transform)\n"
              "fft3d_p50_ms %.4f ms\nfft3d_tail_ms %.4f ms (p%g of %zu)\n",
              flops / (p50 * 1e-3) / 1e9, p50, tl.value, tl.percentile,
              ms.size());
  return rep;
}

}  // namespace perfbench
