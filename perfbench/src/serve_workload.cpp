// serve_steady / serve_overload: open-loop Poisson traffic into FftServer.
//
// The generator (the main thread) submits each request at its due time;
// a collector thread waits on accepted ids and checks every answer. The
// pool has nproc - 1 lanes (the server's dispatcher is one of them), so
// the generator keeps a core. Latency is timed from when the request was
// due: (submit time - due) + JobOutcome::latency_seconds. A refused,
// failed or wrong answer counts as infinitely late.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"
#include "xfft/fftnd.hpp"
#include "xfft/plan_cache.hpp"
#include "xpar/pool.hpp"
#include "xserve/serve.hpp"
#include "xutil/rng.hpp"

namespace perfbench {

namespace {

constexpr double kSteadyRate = 400.0;
constexpr double kOverloadRate = 12000.0;
constexpr double kSteadyFaultFraction = 0.10;
constexpr std::size_t kQueueCapacity = 32;
constexpr auto kDeadline = std::chrono::milliseconds(25);
/// Latency limit of the SLO: full-precision answers within 10 ms of due.
constexpr double kSloSeconds = 10e-3;
constexpr unsigned kVariants = 4;
constexpr double kInf = std::numeric_limits<double>::infinity();

using Buffer = std::vector<xfft::Cf>;

xfft::Dims3 dims_of(const MixShape& s) { return {s.nx, s.ny, s.nz}; }

double rel_l2(const Buffer& got, const Buffer& want) {
  double d2 = 0.0;
  double w2 = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::complex<double> g(got[i].real(), got[i].imag());
    const std::complex<double> w(want[i].real(), want[i].imag());
    d2 += std::norm(g - w);
    w2 += std::norm(w);
  }
  return std::sqrt(d2 / std::max(w2, 1e-300));
}

/// Inputs, serial references and the server: what set-up builds.
struct ServeState {
  Buffer inputs[kServeShapes][kVariants];
  Buffer refs[kServeShapes][2][kVariants];
  std::unique_ptr<xserve::FftServer> server;
};

std::unique_ptr<ServeState> setup(std::uint64_t seed) {
  auto st = std::make_unique<ServeState>();
  xfft::PlanCache::global().clear();
  xutil::Pcg32 rng(seed, 0x1297);
  for (unsigned s = 0; s < kServeShapes; ++s) {
    const xfft::Dims3 dims = dims_of(kServeMix[s]);
    for (auto& in : st->inputs[s]) {
      in.resize(dims.total());
      // Half scale: the Q15 rung saturates its first butterflies on
      // inputs above 0.5 in magnitude.
      for (auto& v : in) {
        v = 0.5f * xfft::Cf(rng.next_signed_unit(), rng.next_signed_unit());
      }
    }
    for (int d = 0; d < 2; ++d) {
      const xfft::PlanND<float> plan(
          dims, d == 0 ? xfft::Direction::kForward : xfft::Direction::kInverse);
      xfft::ExecOptions serial;
      serial.serial = true;
      for (unsigned v = 0; v < kVariants; ++v) {
        st->refs[s][d][v] = st->inputs[s][v];
        plan.execute(std::span<xfft::Cf>(st->refs[s][d][v]), serial);
      }
    }
  }
  xserve::ServerOptions sopt;
  sopt.queue_capacity = kQueueCapacity;
  sopt.seed = seed;
  st->server = std::make_unique<xserve::FftServer>(sopt);
  // Warm-up: one closed-loop request per (shape, direction) fills the plan
  // cache and wakes the pool; each answer is checked like the timed ones.
  for (unsigned s = 0; s < kServeShapes; ++s) {
    for (int d = 0; d < 2; ++d) {
      xserve::JobRequest req;
      req.dims = dims_of(kServeMix[s]);
      req.dir = d == 0 ? xfft::Direction::kForward : xfft::Direction::kInverse;
      req.data = st->inputs[s][0];
      const auto adm = st->server->submit(std::move(req));
      if (!adm.accepted()) throw std::runtime_error("warm-up refused");
      const auto out = st->server->wait(adm.id);
      if (out.status != xserve::ServeStatus::kOk ||
          rel_l2(out.data, st->refs[s][d][0]) > kFullPrecisionTol) {
        throw std::runtime_error("warm-up answer wrong");
      }
    }
  }
  return st;
}

/// Request buffers come back in each outcome. Reusing them keeps the
/// allocator's cross-thread churn (and its effect on peak RSS) out of the
/// measurement, as a client that recycles its buffers would.
class BufferPool {
 public:
  Buffer take(unsigned shape) {
    const std::lock_guard<std::mutex> lock(mu_);
    auto& list = free_[shape];
    if (list.empty()) return {};
    Buffer b = std::move(list.back());
    list.pop_back();
    return b;
  }
  void give(unsigned shape, Buffer b) {
    const std::lock_guard<std::mutex> lock(mu_);
    free_[shape].push_back(std::move(b));
  }

 private:
  std::mutex mu_;
  std::vector<Buffer> free_[kServeShapes];  // guarded by mu_
};

/// Per-request record; the generator fills the submit side, the collector
/// the outcome side (hand-off under the queue mutex).
struct Rec {
  Clock::time_point due;
  Clock::time_point submitted;  ///< just before submit()
  Clock::time_point admitted;   ///< just after submit() returned
  bool accepted = false;
  xserve::ServeStatus status = xserve::ServeStatus::kOk;
  xserve::Rung rung = xserve::Rung::kParallel;
  unsigned attempts = 0;
  double residence = 0.0;  ///< JobOutcome::latency_seconds
  double latency = kInf;   ///< from due; inf unless answered correctly
  double error = 0.0;       ///< relative L2 error of a transformed answer
  bool correct = true;
  bool failed = false;     ///< errored or failed its check
};

}  // namespace

Report run_serve(const RunOptions& opt, bool overload, Tracer& tracer) {
  Report rep;
  rep.pool_lanes = std::max(1u, opt.nproc - 1);
  xpar::ThreadPool::set_global_threads(rep.pool_lanes);
  rep.working_set_bytes = sizeof(xfft::Cf) * 32 * 32 * 32;

  std::vector<double> setup_times;
  std::unique_ptr<ServeState> st;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = r == 0 ? process_start() : Clock::now();
    st.reset();
    st = setup(opt.seed);
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }
  rep.set("setup_s", median(setup_times), "s");

  const double rate = overload ? kOverloadRate : kSteadyRate;
  const double fault_fraction = overload ? 0.0 : kSteadyFaultFraction;
  const auto sched = poisson_schedule(opt.seed, rate, opt.seconds,
                                      kServeShapes, kVariants, fault_fraction);
  char fault_spec[64];
  std::snprintf(fault_spec, sizeof(fault_spec), "soft:flip:%g",
                kSteadyFlipRate);

  xserve::FftServer& server = *st->server;
  const auto before = server.stats();
  auto& cache = xfft::PlanCache::global();
  const std::uint64_t hits0 = cache.hits();
  const std::uint64_t misses0 = cache.misses();

  std::vector<Rec> recs(sched.size());
  BufferPool buffers;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::uint64_t>> pending;  // guarded by mu
  bool done = false;                                          // guarded by mu
  std::size_t max_pending = 0;                                // guarded by mu
  const auto t_start = Clock::now() + std::chrono::milliseconds(5);
  const auto t_half = t_start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        opt.seconds / 2));

  const auto collect = [&] {
    for (;;) {
      std::size_t i = 0;
      std::uint64_t id = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        std::tie(i, id) = pending.front();
        pending.pop_front();
      }
      Rec& rc = recs[i];
      const Arrival& a = sched[i];
      auto out = server.wait(id);
      const auto t_checked0 = Clock::now();
      rc.status = out.status;
      rc.rung = out.rung;
      rc.attempts = out.attempts;
      rc.residence = out.latency_seconds;
      using S = xserve::ServeStatus;
      using R = xserve::Rung;
      if (out.status == S::kOk) {
        if (out.rung == R::kEstimate) {
          rc.correct = std::isfinite(out.estimate_seconds) &&
                       out.estimate_seconds > 0.0;
        } else {
          const double tol =
              out.rung == R::kFixedPoint ? kQ15Tol : kFullPrecisionTol;
          rc.error =
              rel_l2(out.data, st->refs[a.shape][a.inverse][a.variant]);
          rc.correct = rc.error <= tol;
        }
        rc.failed = !rc.correct;
        if (rc.correct) {
          rc.latency =
              seconds_between(rc.due, rc.submitted) + out.latency_seconds;
        }
      } else {
        // Deadline misses are the server's typed answer to load and count
        // only as infinitely late; anything else is an error.
        rc.failed = out.status != S::kDeadlineExceeded;
      }
      if (tracer.enabled() && rc.due >= t_half) {
        const auto answered =
            rc.submitted + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   out.latency_seconds));
        const auto root = tracer.record("request", rc.due, answered);
        tracer.record("harness.gen_late", rc.due, rc.submitted, root);
        tracer.record("xserve.submit", rc.submitted, rc.admitted, root);
        tracer.record("xserve.residence", rc.submitted, answered, root);
        tracer.record("harness.check", t_checked0, Clock::now());
      }
      buffers.give(a.shape, std::move(out.data));
    }
  };
  std::exception_ptr collector_error;
  std::thread collector([&] {
    try {
      collect();
    } catch (...) {
      collector_error = std::current_exception();
    }
  });

  const auto generate = [&] {
    for (std::size_t i = 0; i < sched.size(); ++i) {
      const Arrival& a = sched[i];
      const xfft::Dims3 dims = dims_of(kServeMix[a.shape]);
      xserve::JobRequest req;
      req.dims = dims;
      req.dir = a.inverse != 0 ? xfft::Direction::kInverse
                               : xfft::Direction::kForward;
      const Buffer& input = st->inputs[a.shape][a.variant];
      req.data = buffers.take(a.shape);
      req.data.assign(input.begin(), input.end());
      req.deadline = kDeadline;
      if (a.faulted) req.faults = fault_spec;
      req.seed = a.seed;
      Rec& rc = recs[i];
      rc.due = t_start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(a.due_seconds));
      // Sleeping, not spinning: a spinning generator would take a core from
      // the pool's fork/join and stall whole transforms on descheduled lanes.
      std::this_thread::sleep_until(rc.due);
      rc.submitted = Clock::now();
      const auto adm = server.submit(std::move(req));
      rc.admitted = Clock::now();
      rc.accepted = adm.accepted();
      if (!rc.accepted) {
        rc.status = adm.status;
        rc.failed = adm.status != xserve::ServeStatus::kOverloaded;
        if (tracer.enabled() && rc.due >= t_half) {
          const auto root =
              tracer.record("request.refused", rc.due, rc.admitted);
          tracer.record("xserve.submit", rc.submitted, rc.admitted, root);
        }
        continue;
      }
      {
        const std::lock_guard<std::mutex> lock(mu);
        pending.emplace_back(i, adm.id);
        max_pending = std::max(max_pending, pending.size());
      }
      cv.notify_one();
    }
  };
  std::exception_ptr generator_error;
  try {
    generate();
  } catch (...) {
    generator_error = std::current_exception();
  }
  const auto t_end_submit = Clock::now();
  {
    const std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  if (generator_error) std::rethrow_exception(generator_error);
  if (collector_error) std::rethrow_exception(collector_error);
  (void)server.drain_for(std::chrono::seconds(30));
  const auto after = server.stats();

  // ---- end-to-end metrics ----
  std::vector<double> lat;
  std::vector<double> lat_admitted;
  std::vector<double> lat_answered;
  std::vector<double> lat_first;
  std::vector<double> lat_second;
  std::vector<double> submit_us;
  std::vector<double> residence_ms;
  std::vector<double> late_ms;
  std::uint64_t good = 0;
  std::uint64_t ok = 0;
  std::uint64_t degraded = 0;
  std::uint64_t faulted = 0;
  std::uint64_t faulted_retries = 0;
  std::uint64_t refused = 0;
  std::uint64_t deadline = 0;
  // Goodput per one-second bin of due time; the run reports the median
  // bin, so a host stall that wrecks one second does not move it.
  std::vector<double> good_bins(
      static_cast<std::size_t>(std::max(1.0, std::floor(opt.seconds))));
  std::uint64_t per_rung[xserve::kRungCount] = {};
  double max_error[xserve::kRungCount] = {};
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& rc = recs[i];
    const auto r = static_cast<unsigned>(rc.rung);
    if (rc.accepted && rc.status == xserve::ServeStatus::kOk) {
      max_error[r] = std::max(max_error[r], rc.error);
    }
    deadline += rc.status == xserve::ServeStatus::kDeadlineExceeded ? 1 : 0;
    lat.push_back(rc.latency * 1e3);
    (rc.due < t_half ? lat_first : lat_second).push_back(rc.latency * 1e3);
    submit_us.push_back(seconds_between(rc.submitted, rc.admitted) * 1e6);
    late_ms.push_back(seconds_between(rc.due, rc.submitted) * 1e3);
    rep.failed += rc.failed ? 1 : 0;
    if (!rc.accepted) {
      ++refused;
      continue;
    }
    residence_ms.push_back(rc.residence * 1e3);
    lat_admitted.push_back(rc.latency * 1e3);
    if (std::isfinite(rc.latency)) lat_answered.push_back(rc.latency * 1e3);
    if (sched[i].faulted) {
      ++faulted;
      faulted_retries += rc.attempts > 0 ? rc.attempts - 1 : 0;
    }
    if (rc.status != xserve::ServeStatus::kOk || !rc.correct) continue;
    ++ok;
    ++per_rung[r];
    const bool full = rc.rung == xserve::Rung::kParallel ||
                      rc.rung == xserve::Rung::kSerial;
    if (!full) ++degraded;
    if (full && rc.latency <= kSloSeconds) {
      ++good;
      const auto bin = static_cast<std::size_t>(sched[i].due_seconds);
      if (bin < good_bins.size()) good_bins[bin] += 1.0;
    }
  }
  rep.attempted = recs.size();
  // The median counts refused and failed requests as infinitely late. The
  // reported tail is taken over answered requests, so it stays a finite
  // number when more than 1% miss (serve_overload refuses far more); the
  // stricter tails are printed below, and misses show in the SLO ratio.
  const Tail full_tail = tail(lat);
  const Tail admitted_tail = tail(lat_admitted);
  const Tail tl = tail(lat_answered);
  rep.set("latency.p50_ms", median(lat), "ms");
  rep.set("latency.tail_ms", tl.value, "ms");
  rep.set("throughput_per_s", median(good_bins), "1/s");

  // ---- per-layer metrics of the run ----
  const double sent = static_cast<double>(recs.size());
  std::sort(submit_us.begin(), submit_us.end());
  std::sort(residence_ms.begin(), residence_ms.end());
  std::sort(late_ms.begin(), late_ms.end());
  rep.set("xserve.submit_us.p50", nearest_rank(submit_us, 50), "us");
  rep.set("xserve.submit_us.p99", nearest_rank(submit_us, 99), "us");
  rep.set("xserve.residence_ms.p50", nearest_rank(residence_ms, 50), "ms");
  rep.set("xserve.residence_ms.p99", nearest_rank(residence_ms, 99), "ms");
  const char* rung_names[] = {"parallel", "serial", "q15", "estimate"};
  for (unsigned r = 0; r < xserve::kRungCount; ++r) {
    rep.set(std::string("xserve.rung_share.") + rung_names[r],
            ok == 0 ? 0.0 : static_cast<double>(per_rung[r]) / ok, "ratio");
  }
  rep.set("xserve.reject_ratio",
          static_cast<double>(after.rejected_overload -
                              before.rejected_overload) /
              sent,
          "ratio");
  rep.set("xserve.peak_queue_depth",
          static_cast<double>(after.peak_queue_depth), "count");
  rep.set("xserve.slo_ratio", static_cast<double>(good) / sent, "ratio");
  rep.set("xserve.degraded_ratio",
          ok == 0 ? 0.0 : static_cast<double>(degraded) / ok, "ratio");
  rep.set("harness.gen_late_ms.p99", nearest_rank(late_ms, 99), "ms");
  rep.set("xfault.retries_per_faulted",
          faulted == 0 ? 0.0
                       : static_cast<double>(faulted_retries) / faulted,
          "count");
  const std::uint64_t hits = cache.hits() - hits0;
  const std::uint64_t lookups = hits + cache.misses() - misses0;
  rep.set("xfft.plancache_hit_ratio",
          lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups, "ratio");
  if (!lat_first.empty() && !lat_second.empty()) {
    rep.set("trace.overhead_p50_ms", median(lat_second) - median(lat_first),
            "ms");
  }

  std::printf("serve: %zu sent at %.0f req/s (%.0f%% faulted), %llu refused,"
              " %llu ok (%llu par / %llu serial / %llu q15 / %llu est),"
              " %llu deadline-exceeded, %llu failed; generator ended %.1f ms"
              " after the window; collector lag peaked at %zu\n",
              recs.size(), rate, fault_fraction * 100,
              static_cast<unsigned long long>(refused),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(per_rung[0]),
              static_cast<unsigned long long>(per_rung[1]),
              static_cast<unsigned long long>(per_rung[2]),
              static_cast<unsigned long long>(per_rung[3]),
              static_cast<unsigned long long>(deadline),
              static_cast<unsigned long long>(rep.failed),
              seconds_between(t_start, t_end_submit) * 1e3 -
                  opt.seconds * 1e3,
              max_pending);
  std::printf("serve: p50 residence by shape:");
  for (unsigned sh = 0; sh < kServeShapes; ++sh) {
    std::vector<double> v;
    for (std::size_t i = 0; i < recs.size(); ++i) {
      if (recs[i].accepted && sched[i].shape == sh) {
        v.push_back(recs[i].residence * 1e3);
      }
    }
    std::printf(" %s %.3f ms", kServeMix[sh].label,
                v.empty() ? 0.0 : median(v));
  }
  std::printf("\n");
  std::printf("serve: max relative L2 error %.3g parallel, %.3g serial"
              " (bound %.0e), %.3g q15 (bound %.0e)\n",
              max_error[0], max_error[1], kFullPrecisionTol, max_error[2],
              kQ15Tol);
  std::printf("serve_p50_ms %.4f ms (n=%zu sent)\n"
              "serve_p99_ms %.4f ms (p%g, %llu beyond, refusals counted)\n"
              "serve_admitted_p99_ms %.4f ms (p%g, %llu beyond, n=%zu"
              " admitted)\nserve_answered_p99_ms %.4f ms (p%g, n=%zu"
              " answered)\nserve_slo_ratio %.4f ratio\n"
              "serve_goodput_rps %.2f req/s (median one-second bin; %.2f"
              " over the window)\nserve_degraded_ratio %.4f ratio\n",
              rep.get("latency.p50_ms"), lat.size(), full_tail.value,
              full_tail.percentile,
              static_cast<unsigned long long>(full_tail.beyond),
              admitted_tail.value, admitted_tail.percentile,
              static_cast<unsigned long long>(admitted_tail.beyond),
              lat_admitted.size(), tl.value, tl.percentile,
              lat_answered.size(),
              rep.get("xserve.slo_ratio"), rep.get("throughput_per_s"),
              static_cast<double>(good) / opt.seconds,
              rep.get("xserve.degraded_ratio"));
  return rep;
}

}  // namespace perfbench
