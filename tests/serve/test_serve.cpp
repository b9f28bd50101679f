// xserve acceptance tests (the robustness gate of the service layer):
// deadlines never hang, full queues never block, transient faults retry,
// permanent faults fail fast, the degradation ladder is exercised end to
// end, and ServerStats reconciles exactly with per-request outcomes.
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "xfft/fftnd.hpp"
#include "xfft/plan1d.hpp"
#include "xserve/serve.hpp"
#include "xutil/cancel.hpp"
#include "xutil/check.hpp"
#include "xutil/rng.hpp"

namespace {

using namespace std::chrono_literals;
using xserve::FftServer;
using xserve::JobRequest;
using xserve::Rung;
using xserve::ServeStatus;
using xserve::ServerOptions;

std::vector<xfft::Cf> signal(std::size_t n, std::uint64_t seed = 1) {
  std::vector<xfft::Cf> data(n);
  xutil::Pcg32 rng(seed);
  for (auto& v : data) {
    v = xfft::Cf(rng.next_signed_unit(), rng.next_signed_unit());
  }
  return data;
}

JobRequest request(xfft::Dims3 dims, std::uint64_t seed = 1) {
  JobRequest req;
  req.dims = dims;
  req.data = signal(dims.total(), seed);
  req.seed = seed;
  return req;
}

/// Test servers never sleep between retries: backoff must not slow suites.
ServerOptions fast_options() {
  ServerOptions opt;
  opt.backoff_base = std::chrono::nanoseconds{0};
  return opt;
}

TEST(CancelToken, DeadlineAndCancelSemantics) {
  xutil::CancelToken token;
  EXPECT_FALSE(token.expired());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_EQ(token.remaining(), xutil::CancelToken::Clock::duration::max());

  token.set_deadline(xutil::CancelToken::Clock::now() + 10min);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.expired());
  EXPECT_GT(token.remaining(), 9min);

  token.set_deadline(xutil::CancelToken::Clock::now() - 1ms);
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.remaining(), xutil::CancelToken::Clock::duration::zero());
  EXPECT_FALSE(token.cancel_requested());

  xutil::CancelToken cancelled;
  cancelled.cancel();
  EXPECT_TRUE(cancelled.expired());
  EXPECT_TRUE(cancelled.cancel_requested());
}

TEST(CancelToken, ExpiredTokenShortCircuitsPlanExecution) {
  // A 1-D plan given an already-expired token must return promptly without
  // touching all stages; the buffer is explicitly unspecified afterwards.
  const std::size_t n = 4096;
  xfft::Plan1D<float> plan(n, xfft::Direction::kForward);
  auto data = signal(n);
  std::vector<xfft::Cf> scratch(n);
  xutil::CancelToken token;
  token.cancel();
  plan.execute(std::span<xfft::Cf>(data), std::span<xfft::Cf>(scratch),
               &token);
  EXPECT_TRUE(token.expired());
}

TEST(CancelToken, ExpiredTokenShortCircuitsPencilPasses) {
  // The y and z passes poll the token between the stages of each pencil
  // block, so a pre-cancelled token returns from a 3-D execute on both the
  // pool and the serial path and stays expired; a live token changes no
  // byte of the output. {40,24,18} ends in a partial pencil block and runs
  // radix-3 stages.
  const xfft::Dims3 dims{40, 24, 18};
  const xfft::PlanND<float> plan(dims, xfft::Direction::kForward);
  const auto input = signal(dims.total());
  auto want = input;
  plan.execute(std::span<xfft::Cf>(want));
  for (const bool serial : {false, true}) {
    xutil::CancelToken cancelled;
    cancelled.cancel();
    auto data = input;
    plan.execute(std::span<xfft::Cf>(data),
                 xfft::ExecOptions{.cancel = &cancelled, .serial = serial});
    EXPECT_TRUE(cancelled.expired()) << "serial=" << serial;

    xutil::CancelToken live;
    live.set_deadline(xutil::CancelToken::Clock::now() + 10min);
    data = input;
    plan.execute(std::span<xfft::Cf>(data),
                 xfft::ExecOptions{.cancel = &live, .serial = serial});
    EXPECT_FALSE(live.expired());
    EXPECT_EQ(std::memcmp(data.data(), want.data(),
                          want.size() * sizeof(xfft::Cf)),
              0)
        << "serial=" << serial;
  }
}

TEST(ExecOptions, SerialExecutionMatchesParallelBitExactly) {
  // The ladder's serial rung must not change answers, only resources.
  const xfft::Dims3 dims{32, 16, 8};
  auto parallel = signal(dims.total());
  auto serial = parallel;
  xfft::PlanND<float> plan(dims, xfft::Direction::kForward);
  plan.execute(std::span<xfft::Cf>(parallel), xfft::ExecOptions{});
  xfft::ExecOptions ser;
  ser.serial = true;
  plan.execute(std::span<xfft::Cf>(serial), ser);
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    ASSERT_EQ(parallel[i], serial[i]) << "index " << i;
  }
}

TEST(FftServer, HealthyJobRoundTripsThroughService) {
  FftServer server(fast_options());
  const xfft::Dims3 dims{1024, 1, 1};
  auto req = request(dims);
  const auto reference = [&] {
    auto copy = req.data;
    xfft::PlanND<float>(dims, xfft::Direction::kForward)
        .execute(std::span<xfft::Cf>(copy));
    return copy;
  }();
  const auto adm = server.submit(std::move(req));
  ASSERT_TRUE(adm.accepted());
  const auto out = server.wait(adm.id);
  EXPECT_EQ(out.status, ServeStatus::kOk);
  EXPECT_EQ(out.rung, Rung::kParallel);
  EXPECT_FALSE(out.degraded);
  EXPECT_EQ(out.attempts, 1u);
  ASSERT_EQ(out.data.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(out.data[i], reference[i]) << "index " << i;
  }
}

TEST(FftServer, DeadlineExpiryWhileQueuedReturnsDeadlineExceeded) {
  FftServer server(fast_options());
  server.set_dispatch_paused(true);
  auto req = request({256, 1, 1});
  req.deadline = 2ms;
  const auto adm = server.submit(std::move(req));
  ASSERT_TRUE(adm.accepted());
  std::this_thread::sleep_for(20ms);
  server.set_dispatch_paused(false);
  const auto out = server.wait(adm.id);
  EXPECT_EQ(out.status, ServeStatus::kDeadlineExceeded);
  EXPECT_EQ(out.attempts, 0u);
  EXPECT_EQ(server.stats().deadline_exceeded, 1u);
}

TEST(FftServer, DeadlineExpiryMidExecutionReturnsInsteadOfHanging) {
  // Large enough that the transform cannot finish inside the deadline; the
  // cooperative token must abort it at a chunk boundary. The wall-clock
  // bound is the actual assertion: expiry returns, it never hangs.
  FftServer server(fast_options());
  const auto t0 = std::chrono::steady_clock::now();
  auto req = request({192, 192, 192});
  req.deadline = 1ms;
  const auto adm = server.submit(std::move(req));
  ASSERT_TRUE(adm.accepted());
  const auto out = server.wait(adm.id);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(out.status, ServeStatus::kDeadlineExceeded);
  EXPECT_LT(elapsed, 10s);
}

TEST(FftServer, FullQueueRejectsOverloadedWithoutBlocking) {
  auto opt = fast_options();
  opt.queue_capacity = 2;
  FftServer server(opt);
  server.set_dispatch_paused(true);
  const auto a = server.submit(request({64, 1, 1}));
  const auto b = server.submit(request({64, 1, 1}));
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());
  const auto t0 = std::chrono::steady_clock::now();
  const auto c = server.submit(request({64, 1, 1}));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(c.status, ServeStatus::kOverloaded);
  EXPECT_LT(elapsed, 1s) << "backpressure must reject, not block";
  server.set_dispatch_paused(false);
  EXPECT_EQ(server.wait(a.id).status, ServeStatus::kOk);
  EXPECT_EQ(server.wait(b.id).status, ServeStatus::kOk);
  const auto s = server.stats();
  EXPECT_EQ(s.rejected_overload, 1u);
  EXPECT_EQ(s.accepted, 2u);
  // The rejected id was never tracked: waiting on it is a caller error.
  EXPECT_THROW((void)server.wait(c.id), xutil::Error);
}

TEST(FftServer, TransientFaultRetriesThenSucceedsWithinBudget) {
  // soft:flip:1e-3 over 1024 points defeats single attempts often (the
  // harness runs detection-only, so every detected upset fails the
  // attempt), but a fresh injection stream per retry succeeds well within
  // ten attempts. Seed 3 is pinned: its injection streams deterministically
  // defeat attempts 1-4 and leave attempt 5 clean.
  auto opt = fast_options();
  FftServer server(opt);
  auto req = request({1024, 1, 1}, 3);
  req.faults = "soft:flip:1e-3";
  req.max_attempts = 10;
  const auto adm = server.submit(std::move(req));
  ASSERT_TRUE(adm.accepted());
  const auto out = server.wait(adm.id);
  EXPECT_EQ(out.status, ServeStatus::kOk);
  EXPECT_EQ(out.attempts, 5u);
  const auto s = server.stats();
  EXPECT_EQ(s.ok, 1u);
  EXPECT_EQ(s.retries, 4u);
}

TEST(FftServer, TransientFaultBeyondBudgetReturnsFaultExhausted) {
  // At soft:flip:0.05 essentially every attempt is defeated; a budget of
  // two attempts must be spent fully, then reported as exhausted.
  FftServer server(fast_options());
  auto req = request({1024, 1, 1}, 3);
  req.faults = "soft:flip:0.05";
  req.max_attempts = 2;
  const auto adm = server.submit(std::move(req));
  ASSERT_TRUE(adm.accepted());
  const auto out = server.wait(adm.id);
  EXPECT_EQ(out.status, ServeStatus::kFaultExhausted);
  EXPECT_EQ(out.attempts, 2u);
  const auto s = server.stats();
  EXPECT_EQ(s.fault_exhausted, 1u);
  EXPECT_EQ(s.retries, 1u);
}

TEST(FftServer, PermanentFaultFailsFastWithoutRetries) {
  FftServer server(fast_options());
  auto req = request({256, 1, 1});
  req.faults = "cluster:kill:1,soft:flip:1e-4";  // structural => permanent
  req.max_attempts = 5;
  const auto adm = server.submit(std::move(req));
  ASSERT_TRUE(adm.accepted());
  const auto out = server.wait(adm.id);
  EXPECT_EQ(out.status, ServeStatus::kFaultExhausted);
  EXPECT_EQ(out.attempts, 0u) << "permanent faults must not burn the budget";
  const auto s = server.stats();
  EXPECT_EQ(s.fault_exhausted, 1u);
  EXPECT_EQ(s.retries, 0u);
}

TEST(FftServer, CancelledJobReturnsCancelled) {
  FftServer server(fast_options());
  server.set_dispatch_paused(true);
  const auto adm = server.submit(request({256, 1, 1}));
  ASSERT_TRUE(adm.accepted());
  EXPECT_TRUE(server.cancel(adm.id));
  server.set_dispatch_paused(false);
  const auto out = server.wait(adm.id);
  EXPECT_EQ(out.status, ServeStatus::kCancelled);
  EXPECT_EQ(server.stats().cancelled, 1u);
  EXPECT_FALSE(server.cancel(adm.id)) << "completed jobs are untracked";
}

TEST(FftServer, InvalidRequestsAreRejectedAtAdmission) {
  FftServer server(fast_options());
  // 134 = 2 * 67 and 67 exceeds the largest supported radix.
  auto bad_size = request({134, 1, 1});
  const auto a = server.submit(std::move(bad_size));
  EXPECT_EQ(a.status, ServeStatus::kInvalid);
  auto bad_len = request({64, 1, 1});
  bad_len.data.resize(63);
  const auto b = server.submit(std::move(bad_len));
  EXPECT_EQ(b.status, ServeStatus::kInvalid);
  auto bad_plan = request({64, 1, 1});
  bad_plan.faults = "gamma:ray:9000";
  const auto c = server.submit(std::move(bad_plan));
  EXPECT_EQ(c.status, ServeStatus::kInvalid);
  const auto s = server.stats();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.rejected_invalid, 3u);
  EXPECT_EQ(s.accepted, 0u);
  EXPECT_THROW((void)server.wait(a.id), xutil::Error);
}

TEST(FftServer, HostileInputsGetTypedOutcomes) {
  // Every hostile request gets a typed verdict, no kOk answer carries a
  // non-finite spectrum, and the counters still reconcile. A NaN used to
  // come back kOk with a NaN spectrum — or, under soft flips, to burn the
  // whole retry budget failing its checksum.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kMax = std::numeric_limits<float>::max();
  constexpr float kTiny = std::numeric_limits<float>::denorm_min();
  const auto poke = [](xfft::Dims3 dims, std::size_t at, xfft::Cf v,
                       const char* faults = "") {
    auto req = request(dims);
    req.data[at] = v;
    req.faults = faults;
    return req;
  };
  const auto fill = [](xfft::Dims3 dims, xfft::Cf v) {
    auto req = request(dims);
    req.data.assign(dims.total(), v);
    return req;
  };
  struct Case {
    const char* name;
    JobRequest req;
    ServeStatus want;
  };
  std::vector<Case> cases;
  cases.push_back({"nan", poke({256, 1, 1}, 17, {kNan, 0.0F}),
                   ServeStatus::kInvalid});
  cases.push_back({"nan+soft-flips",
                   poke({256, 1, 1}, 17, {0.0F, kNan}, "soft:flip:1e-4"),
                   ServeStatus::kInvalid});
  cases.push_back({"+inf", poke({256, 1, 1}, 0, {kInf, 0.0F}),
                   ServeStatus::kInvalid});
  cases.push_back({"-inf 3-D", poke({8, 8, 8}, 511, {0.0F, -kInf}),
                   ServeStatus::kInvalid});
  cases.push_back({"denormals", fill({256, 1, 1}, {3 * kTiny, -kTiny}),
                   ServeStatus::kOk});
  cases.push_back({"near-FLT_MAX everywhere",
                   fill({64, 1, 1}, {0.9F * kMax, -0.9F * kMax}),
                   ServeStatus::kInvalid});
  cases.push_back({"near-FLT_MAX impulse",
                   poke({64, 1, 1}, 0, {0.0F, 0.4F * kMax}),
                   ServeStatus::kInvalid});
  // The admission cap is FLT_MAX / (4 * length); every component at the cap
  // is the worst case it admits, and its spectrum must stay finite.
  const float cap = kMax / (4.0F * 64.0F);
  cases.push_back({"every component at the cap",
                   fill({64, 1, 1}, {cap, cap}), ServeStatus::kOk});
  // 142 = 2 * 71 and 71 exceeds the largest supported radix.
  cases.push_back({"prime factor 71", request({142, 1, 1}),
                   ServeStatus::kInvalid});
  cases.push_back({"prime factor 67 on y", request({8, 67, 1}),
                   ServeStatus::kInvalid});

  FftServer server(fast_options());
  std::vector<std::pair<const Case*, std::uint64_t>> accepted;
  for (auto& c : cases) {
    const auto adm = server.submit(std::move(c.req));
    if (c.want == ServeStatus::kInvalid) {
      EXPECT_EQ(adm.status, ServeStatus::kInvalid) << c.name;
      EXPECT_FALSE(adm.error.empty()) << c.name;
    } else {
      ASSERT_TRUE(adm.accepted()) << c.name << ": " << adm.error;
      accepted.emplace_back(&c, adm.id);
    }
  }
  for (const auto& [c, id] : accepted) {
    const auto out = server.wait(id);
    EXPECT_EQ(out.status, c->want) << c->name << ": " << out.error;
    if (out.status != ServeStatus::kOk) continue;
    for (const xfft::Cf& v : out.data) {
      ASSERT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()))
          << c->name << " returned kOk with a non-finite spectrum";
    }
  }
  const auto s = server.stats();
  EXPECT_EQ(s.submitted, cases.size());
  EXPECT_EQ(s.submitted,
            s.accepted + s.rejected_overload + s.rejected_invalid);
  EXPECT_EQ(s.accepted, accepted.size());
  EXPECT_EQ(s.accepted, s.completed());
  EXPECT_EQ(s.ok, s.per_rung[0] + s.per_rung[1] + s.per_rung[2] +
                      s.per_rung[3]);
  EXPECT_EQ(s.retries, 0u);
}

TEST(FftServer, LadderShedsByQueueFillAndStatsMatchOutcomesExactly) {
  // Stage a deterministic backlog of 10 on a capacity-10 queue: the fill
  // fractions seen at dispatch are 1.0, 0.9, ..., 0.1, walking the whole
  // ladder: 2 estimate (>= 0.9), 1 q15 (>= 0.75), 3 serial (>= 0.5),
  // 4 parallel.
  auto opt = fast_options();
  opt.queue_capacity = 10;
  FftServer server(opt);
  server.set_dispatch_paused(true);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 10; ++i) {
    const auto adm = server.submit(request({256, 1, 1}));
    ASSERT_TRUE(adm.accepted());
    ids.push_back(adm.id);
  }
  server.set_dispatch_paused(false);
  const Rung expected[10] = {
      Rung::kEstimate, Rung::kEstimate, Rung::kFixedPoint,
      Rung::kSerial,   Rung::kSerial,   Rung::kSerial,
      Rung::kParallel, Rung::kParallel, Rung::kParallel, Rung::kParallel};
  for (int i = 0; i < 10; ++i) {
    const auto out = server.wait(ids[static_cast<std::size_t>(i)]);
    EXPECT_EQ(out.status, ServeStatus::kOk) << "job " << i;
    EXPECT_EQ(out.rung, expected[i]) << "job " << i;
    EXPECT_EQ(out.degraded, expected[i] != Rung::kParallel) << "job " << i;
    if (expected[i] == Rung::kEstimate) {
      EXPECT_GT(out.estimate_seconds, 0.0) << "job " << i;
    }
  }
  const auto s = server.stats();
  EXPECT_EQ(s.ok, 10u);
  EXPECT_EQ(s.per_rung[0], 4u);
  EXPECT_EQ(s.per_rung[1], 3u);
  EXPECT_EQ(s.per_rung[2], 1u);
  EXPECT_EQ(s.per_rung[3], 2u);
  EXPECT_EQ(s.sheds, 6u);
  EXPECT_EQ(s.retries, 0u);
  EXPECT_EQ(s.peak_queue_depth, 10u);
  EXPECT_EQ(s.accepted, s.completed());
  EXPECT_GT(s.p50_latency_seconds, 0.0);
  EXPECT_LE(s.p50_latency_seconds, s.p99_latency_seconds);
}

TEST(FftServer, FixedPointRungFallsThroughToEstimateWhenInfeasible) {
  // 3-D dims cannot run on the Q15 rung (1-D pow2 only); under q15-level
  // pressure they degrade one rung further to the estimate.
  auto opt = fast_options();
  opt.queue_capacity = 10;
  opt.shed_estimate_at = 2.0;  // unreachable: isolate the q15 band
  opt.shed_fixed_point_at = 0.1;
  opt.shed_serial_at = 0.05;
  FftServer server(opt);
  server.set_dispatch_paused(true);
  const auto adm = server.submit(request({8, 8, 8}));
  ASSERT_TRUE(adm.accepted());
  server.set_dispatch_paused(false);
  const auto out = server.wait(adm.id);
  EXPECT_EQ(out.status, ServeStatus::kOk);
  EXPECT_EQ(out.rung, Rung::kEstimate);
  EXPECT_TRUE(out.degraded);
}

TEST(FftServer, ShutdownCompletesQueuedJobsAsCancelled) {
  // Zero lost requests even across destruction: queued jobs get a real
  // kCancelled outcome, and concurrent waiters all return.
  auto server = std::make_unique<FftServer>(fast_options());
  server->set_dispatch_paused(true);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    const auto adm = server->submit(request({256, 1, 1}));
    ASSERT_TRUE(adm.accepted());
    ids.push_back(adm.id);
  }
  std::vector<std::future<xserve::JobOutcome>> waiters;
  // Capture the raw pointer: the waiters must not touch the unique_ptr
  // object itself, which the main thread writes via reset() below.
  auto* const srv = server.get();
  for (const auto id : ids) {
    waiters.push_back(std::async(std::launch::async,
                                 [srv, id] { return srv->wait(id); }));
  }
  // Let the waiters move their futures out before the server goes away.
  std::this_thread::sleep_for(100ms);
  server.reset();
  for (auto& w : waiters) {
    EXPECT_EQ(w.get().status, ServeStatus::kCancelled);
  }
}

}  // namespace
