// Per-layer probes of a traced run. Each probe times one public call of one
// layer in isolation, after the workload's timed window, so the layer
// numbers sit beside the end-to-end numbers of the same process. Every
// traced run reports every per-layer metric: layers the workload did not
// drive report 0 for the numbers only its own traffic can produce.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"
#include "xfault/resilient_fft.hpp"
#include "xfft/fftnd.hpp"
#include "xfft/plan1d.hpp"
#include "xpar/pool.hpp"
#include "xsim/config.hpp"
#include "xsim/perf_model.hpp"
#include "xutil/aligned.hpp"
#include "xutil/rng.hpp"

namespace perfbench {

namespace {

/// Median seconds of `fn` over at least `min_reps` calls (and up to
/// `max_reps` while under `budget_s`), after one untimed warm-up call.
template <typename Fn>
double time_median(Fn&& fn, int min_reps, int max_reps, double budget_s) {
  fn();
  std::vector<double> t;
  const auto start = Clock::now();
  for (int i = 0; i < max_reps; ++i) {
    if (i >= min_reps && seconds_between(start, Clock::now()) > budget_s) {
      break;
    }
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(t);
}

std::vector<xfft::Cf> random_buffer(std::size_t n, std::uint64_t seed) {
  std::vector<xfft::Cf> v(n);
  xutil::Pcg32 rng(seed, 0x9b0b);
  for (auto& x : v) {
    x = xfft::Cf(rng.next_signed_unit(), rng.next_signed_unit());
  }
  return v;
}

/// Metrics only a workload's own traffic produces; other workloads report
/// them as 0 (the layer did no work in that run).
constexpr const char* kRunOnly[][2] = {
    {"xserve.submit_us.p50", "us"},
    {"xserve.submit_us.p99", "us"},
    {"xserve.residence_ms.p50", "ms"},
    {"xserve.residence_ms.p99", "ms"},
    {"xserve.rung_share.parallel", "ratio"},
    {"xserve.rung_share.serial", "ratio"},
    {"xserve.rung_share.q15", "ratio"},
    {"xserve.rung_share.estimate", "ratio"},
    {"xserve.reject_ratio", "ratio"},
    {"xserve.peak_queue_depth", "count"},
    {"xserve.slo_ratio", "ratio"},
    {"xserve.degraded_ratio", "ratio"},
    {"harness.gen_late_ms.p99", "ms"},
    {"xfault.retries_per_faulted", "count"},
    {"xfft.plancache_hit_ratio", "ratio"},
};

bool has(const Report& r, const std::string& name) {
  return std::any_of(r.metrics.begin(), r.metrics.end(),
                     [&](const Report::Metric& m) { return m.name == name; });
}

}  // namespace

void run_probes(const RunOptions& opt, double flip_rate, Tracer& tracer,
                Report& rep) {
  const ScopedSpan all(tracer, "probes");
  xfft::ExecOptions serial;
  serial.serial = true;

  // xfft: serial PlanND::execute per mix shape, and the xfault overhead of
  // resilient_fft on the same shape at the workload's flip rate.
  double plain_sum = 0.0;
  double resilient_sum = 0.0;
  std::uint64_t rows = 0;
  std::uint64_t recomputed = 0;
  for (const MixShape& s : kServeMix) {
    const xfft::Dims3 dims{s.nx, s.ny, s.nz};
    const auto input = random_buffer(dims.total(), opt.seed);
    auto buf = input;
    const xfft::PlanND<float> plan(dims, xfft::Direction::kForward);
    double plain = 0.0;
    {
      const ScopedSpan sp(tracer, "xfft.PlanND.execute", all.id());
      plain = time_median(
          [&] {
            std::copy(input.begin(), input.end(), buf.begin());
            plan.execute(std::span<xfft::Cf>(buf), serial);
          },
          20, 400, 0.15);
    }
    rep.set(std::string("xfft.exec_us.") + s.label, plain * 1e6, "us");
    xfault::ResilienceOptions ropt;
    ropt.soft_flip_rate = flip_rate;
    std::uint64_t call = 0;
    const ScopedSpan sp(tracer, "xfault.resilient_fft", all.id());
    const double resilient = time_median(
        [&] {
          std::copy(input.begin(), input.end(), buf.begin());
          ropt.seed = opt.seed + ++call;
          const auto r = xfault::resilient_fft(std::span<xfft::Cf>(buf), dims,
                                               xfft::Direction::kForward, ropt);
          rows += r.rows_computed;
          recomputed += r.rows_recomputed;
        },
        20, 400, 0.15);
    plain_sum += plain;
    resilient_sum += resilient;
  }
  rep.set("xfault.resilient_overhead", resilient_sum / plain_sum, "ratio");
  rep.set("xfault.useful_row_ratio",
          static_cast<double>(rows) / static_cast<double>(rows + recomputed),
          "ratio");

  {
    const ScopedSpan sp(tracer, "xfft.plan_build", all.id());
    const double build = time_median(
        [&] {
          for (const MixShape& s : kServeMix) {
            for (const auto dir :
                 {xfft::Direction::kForward, xfft::Direction::kInverse}) {
              const xfft::PlanND<float> p(xfft::Dims3{s.nx, s.ny, s.nz}, dir);
            }
          }
        },
        5, 50, 0.2);
    rep.set("xfft.plan_build_ms", build * 1e3, "ms");
  }

  {
    const ScopedSpan sp(tracer, "xfft.Plan1D.execute", all.id());
    constexpr std::size_t kLen = 256;
    constexpr std::size_t kRows = 1024;
    const xfft::Plan1D<float> plan(kLen, xfft::Direction::kForward);
    auto data = random_buffer(kLen * kRows, opt.seed);
    xutil::AlignedVector<xfft::Cf> scratch(kLen);
    const double t = time_median(
        [&] {
          for (std::size_t r = 0; r < kRows; ++r) {
            plan.execute(std::span<xfft::Cf>(data.data() + r * kLen, kLen),
                         std::span<xfft::Cf>(scratch.data(), kLen));
          }
        },
        5, 50, 0.2);
    rep.set("xfft.row_gflops.256",
            static_cast<double>(kRows) * xfft::standard_fft_flops(kLen) / t /
                1e9,
            "GFLOPS");
  }

  {
    const ScopedSpan sp(tracer, "xpar.parallel_for", all.id());
    auto& pool = xpar::ThreadPool::global();
    const std::int64_t chunks = 8 * static_cast<std::int64_t>(pool.threads());
    const double t = time_median(
        [&] {
          pool.parallel_for(0, chunks, 1, [](std::int64_t, std::int64_t) {});
        },
        200, 5000, 0.2);
    rep.set("xpar.fork_join_us", t * 1e6, "us");
  }

  {
    // 256^3: rotation bandwidth, pool speed-up over the plain serial run of
    // the same plan, and the plan's computed operational intensity.
    const xfft::Dims3 big{256, 256, 256};
    const std::size_t n = big.total();
    xutil::AlignedVector<xfft::Cf> a(n);
    xutil::AlignedVector<xfft::Cf> b(n);
    xutil::Pcg32 rng(opt.seed, 0x256);
    for (auto& v : a) v = xfft::Cf(rng.next_signed_unit(), 0.0f);
    const std::span<xfft::Cf> sa(a.data(), n);
    const std::span<xfft::Cf> sb(b.data(), n);
    {
      const ScopedSpan sp(tracer, "xfft.rotate_axes", all.id());
      const double t = time_median(
          [&] { xfft::rotate_axes<float>(sa, sb, big); }, 3, 3, 0.0);
      // Computed bytes: each element read once and written once.
      rep.set("xfft.rotate_gbps",
              2.0 * static_cast<double>(n * sizeof(xfft::Cf)) / t / 1e9,
              "GB/s");
    }
    const xfft::PlanND<float> plan(big, xfft::Direction::kForward);
    const ScopedSpan sp(tracer, "xfft.PlanND.256cubed", all.id());
    const double pooled = time_median([&] { plan.execute(sa); }, 2, 2, 0.0);
    const auto t0 = Clock::now();
    plan.execute(sa, serial);
    const double alone = seconds_between(t0, Clock::now());
    rep.set("xpar.speedup", alone / pooled, "ratio");
    // Computed bytes per transform with fused rotation: one read and one
    // write of the array per dimension.
    rep.set("xfft.flops_per_byte",
            static_cast<double>(plan.actual_flops()) /
                (3.0 * 2.0 * static_cast<double>(n * sizeof(xfft::Cf))),
            "flop/B");
  }

  {
    const ScopedSpan sp(tracer, "xsim.FftPerfModel.analyze_fft", all.id());
    const xsim::FftPerfModel model(xsim::preset_64k());
    double sink = 0.0;
    const double t = time_median(
        [&] {
          for (const MixShape& s : kServeMix) {
            sink += model.analyze_fft(xfft::Dims3{s.nx, s.ny, s.nz})
                        .total_seconds;
          }
        },
        20, 500, 0.2);
    rep.set("xsim.analyze_us", t * 1e6 / kServeShapes, "us");
    if (!(sink > 0.0)) ++rep.failed;
  }

  if (opt.workload != "sim_machine") {
    SimHarness sim;
    report_sim_layers(sim.run(tracer, true), rep);
  }

  for (const auto& [name, unit] : kRunOnly) {
    if (!has(rep, name)) rep.set(name, 0.0, unit);
  }
}

}  // namespace perfbench
