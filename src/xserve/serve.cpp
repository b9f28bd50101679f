#include "xserve/serve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "xfault/resilient_fft.hpp"
#include "xserve/backoff.hpp"
#include "xfft/fixed_point.hpp"
#include "xfft/fftnd.hpp"
#include "xfft/plan1d.hpp"
#include "xfft/plan_cache.hpp"
#include "xsim/perf_model.hpp"
#include "xutil/check.hpp"
#include "xutil/stats.hpp"

namespace xserve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxLatencySamples = std::size_t{1} << 20;

/// Execution attempts for a request that does not set its own budget.
constexpr unsigned kDefaultMaxAttempts = 3;
/// Row-level recovery attempts inside one execution of the soft-error
/// harness: 1 detects only, surfacing every transient failure to the
/// service-level retry/backoff policy.
constexpr unsigned kRowRecoveryAttempts = 1;
constexpr std::chrono::nanoseconds kBackoffCap{8'000'000};  // 8 ms

bool is_pow2(std::size_t n) { return n > 0 && (n & (n - 1)) == 0; }

/// The Q15 rung serves exactly what the fixed-point kernel can: 1-D
/// power-of-two transforms. Anything else falls through to the estimate.
bool q15_feasible(xfft::Dims3 dims) {
  return dims.rank() == 1 && is_pow2(dims.nx);
}

/// Validates a request shape and its data; returns a non-empty message on
/// rejection.
std::string validate_request(const JobRequest& req) {
  if (req.dims.nx < 1 || req.dims.ny < 1 || req.dims.nz < 1) {
    return "dims must all be >= 1";
  }
  if (req.data.size() != req.dims.total()) {
    return "data length " + std::to_string(req.data.size()) +
           " does not match dims total " + std::to_string(req.dims.total());
  }
  if (req.deadline.count() < 0) return "deadline must be non-negative";
  for (const std::size_t axis : {req.dims.nx, req.dims.ny, req.dims.nz}) {
    if (axis == 1) continue;
    try {
      (void)xfft::choose_radices(axis);
    } catch (const xutil::Error& e) {
      return e.what();
    }
  }
  // Every butterfly output is a sum of inputs times unit-modulus twiddles,
  // so its components stay within the input's L1 norm, at most 2N times the
  // largest |component|. Capping components at FLT_MAX / 4N keeps the
  // spectrum finite with 2x slack for rounding. The negated comparison also
  // catches NaN, and the loop has no floating-point reduction, so it
  // vectorizes.
  const float limit = std::numeric_limits<float>::max() /
                      (4.0F * static_cast<float>(req.data.size()));
  int out_of_range = 0;
  for (const xfft::Cf& v : req.data) {
    out_of_range |= static_cast<int>(!(std::abs(v.real()) <= limit));
    out_of_range |= static_cast<int>(!(std::abs(v.imag()) <= limit));
  }
  if (out_of_range != 0) {
    const bool finite = std::all_of(
        req.data.begin(), req.data.end(), [](const xfft::Cf& v) {
          return std::isfinite(v.real()) && std::isfinite(v.imag());
        });
    return finite ? "a data component exceeds FLT_MAX / (4 * length), so "
                    "the single-precision spectrum could overflow"
                  : "data holds a NaN or infinite value";
  }
  return {};
}

}  // namespace

const char* status_name(ServeStatus s) {
  switch (s) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kOverloaded:
      return "overloaded";
    case ServeStatus::kDeadlineExceeded:
      return "deadline-exceeded";
    case ServeStatus::kCancelled:
      return "cancelled";
    case ServeStatus::kFaultExhausted:
      return "fault-exhausted";
    case ServeStatus::kInvalid:
      return "invalid";
  }
  return "?";
}

const char* rung_name(Rung r) {
  switch (r) {
    case Rung::kParallel:
      return "parallel";
    case Rung::kSerial:
      return "serial";
    case Rung::kFixedPoint:
      return "q15";
    case Rung::kEstimate:
      return "estimate";
  }
  return "?";
}

FftServer::FftServer(ServerOptions opt)
    : opt_(std::move(opt)), backoff_rng_(opt_.seed, 0x5e7e) {
  XU_CHECK_MSG(opt_.queue_capacity >= 1, "xserve: queue capacity must be >= 1");
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

FftServer::~FftServer() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Prompt shutdown: every in-flight and queued job observes a cancel.
    for (auto& [id, token] : tokens_) token->cancel();
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

FftServer::Admission FftServer::submit(JobRequest req) {
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.submitted;
  }
  Admission adm;
  adm.error = validate_request(req);
  xfault::FaultPlan plan;
  if (adm.error.empty() && !req.faults.empty()) {
    try {
      plan = xfault::FaultPlan::parse(req.faults, req.seed);
    } catch (const xutil::Error& e) {
      adm.error = e.what();
    }
  }
  if (!adm.error.empty()) {
    adm.status = ServeStatus::kInvalid;
    const std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.rejected_invalid;
    return adm;
  }

  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || queue_.size() >= opt_.queue_capacity) {
      adm.status = ServeStatus::kOverloaded;
      adm.error = stop_ ? "server is shutting down"
                        : "admission queue full (" +
                              std::to_string(opt_.queue_capacity) + ")";
    } else {
      Job job;
      job.id = ++next_id_;
      job.req = std::move(req);
      job.plan = plan;
      job.fault_class = xfault::classify(plan);
      job.token = std::make_shared<xutil::CancelToken>();
      job.admitted = Clock::now();
      if (job.req.deadline.count() > 0) {
        job.token->set_deadline(job.admitted + job.req.deadline);
      }
      adm.id = job.id;
      futures_.emplace(job.id, job.done.get_future());
      tokens_.emplace(job.id, job.token);
      queue_.push_back(std::move(job));
      depth = queue_.size();
      queue_cv_.notify_one();
    }
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    if (adm.accepted()) {
      ++counters_.accepted;
      counters_.peak_queue_depth = std::max(counters_.peak_queue_depth, depth);
    } else {
      ++counters_.rejected_overload;
    }
  }
  return adm;
}

JobOutcome FftServer::wait(std::uint64_t id) {
  std::future<JobOutcome> f;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = futures_.find(id);
    XU_CHECK_MSG(it != futures_.end(),
                 "xserve: unknown or already-claimed job id " << id);
    f = std::move(it->second);
    futures_.erase(it);
  }
  return f.get();
}

bool FftServer::cancel(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = tokens_.find(id);
  if (it == tokens_.end()) return false;
  it->second->cancel();
  return true;
}

ServerStats FftServer::stats() const {
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    depth = queue_.size();
  }
  const std::lock_guard<std::mutex> lock(stats_mu_);
  ServerStats s = counters_;
  s.queue_depth = depth;
  if (!latencies_.empty()) {
    s.p50_latency_seconds = xutil::percentile(latencies_, 50.0);
    s.p99_latency_seconds = xutil::percentile(latencies_, 99.0);
  }
  return s;
}

bool FftServer::drain_for(std::chrono::nanoseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(lock, timeout,
                           [this] { return queue_.empty() && !busy_; });
}

void FftServer::set_dispatch_paused(bool paused) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    paused_ = paused;
  }
  queue_cv_.notify_all();
}

Rung FftServer::pick_rung(double fill) const {
  if (fill >= opt_.shed_estimate_at) return Rung::kEstimate;
  if (fill >= opt_.shed_fixed_point_at) return Rung::kFixedPoint;
  if (fill >= opt_.shed_serial_at) return Rung::kSerial;
  return Rung::kParallel;
}

void FftServer::dispatcher_main() {
  for (;;) {
    Job job;
    double fill = 0.0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] {
        return stop_ || (!paused_ && !queue_.empty());
      });
      if (stop_) break;
      job = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
      // The popped job counts itself toward the pressure it reacts to.
      fill = static_cast<double>(queue_.size() + 1) /
             static_cast<double>(opt_.queue_capacity);
    }

    JobOutcome out;
    try {
      out = run_job(job, pick_rung(fill));
    } catch (const std::exception& e) {
      // A throw here is a request the validators failed to catch (e.g. a
      // plan construction corner case); fail the job, never the server.
      out = JobOutcome{};
      out.status = ServeStatus::kInvalid;
      out.error = e.what();
      out.data = std::move(job.req.data);
    }
    out.latency_seconds =
        std::chrono::duration<double>(Clock::now() - job.admitted).count();
    record_outcome(out);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      tokens_.erase(job.id);
    }
    job.done.set_value(std::move(out));
    {
      const std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
      if (queue_.empty()) idle_cv_.notify_all();
    }
  }

  // Shutdown drain: every admitted job still gets a real outcome — no
  // request is ever lost, even across destruction.
  std::deque<Job> rest;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    rest.swap(queue_);
    tokens_.clear();
    busy_ = false;
  }
  for (Job& job : rest) {
    JobOutcome out;
    out.status = ServeStatus::kCancelled;
    out.error = "server shut down before dispatch";
    out.latency_seconds =
        std::chrono::duration<double>(Clock::now() - job.admitted).count();
    out.data = std::move(job.req.data);
    record_outcome(out);
    job.done.set_value(std::move(out));
  }
  idle_cv_.notify_all();
}

JobOutcome FftServer::run_job(Job& job, Rung rung) {
  // Resolve the rung the job can actually execute on.
  if (rung == Rung::kFixedPoint && !q15_feasible(job.req.dims)) {
    rung = Rung::kEstimate;
  }
  JobOutcome out;
  out.rung = rung;
  out.degraded = rung != Rung::kParallel;

  if (job.fault_class == xfault::FaultClass::kPermanent) {
    // Structural faults survive any retry; fail fast instead of burning
    // the attempt budget rediscovering that per attempt.
    out.status = ServeStatus::kFaultExhausted;
    out.error = std::string("fault plan is ") +
                xfault::fault_class_name(job.fault_class) + " ('" +
                job.plan.to_string() + "'): retry cannot help";
    out.data = std::move(job.req.data);
    return out;
  }

  // Expiry or cancellation while queued: report without executing at all
  // (attempts stays 0 — the job never ran).
  if (job.token->cancel_requested()) {
    out.status = ServeStatus::kCancelled;
    out.error = "cancelled while queued";
    out.data = std::move(job.req.data);
    return out;
  }
  if (job.token->expired()) {
    out.status = ServeStatus::kDeadlineExceeded;
    out.error = "deadline expired while queued";
    out.data = std::move(job.req.data);
    return out;
  }

  const unsigned max_attempts = job.req.max_attempts > 0
                                    ? job.req.max_attempts
                                    : kDefaultMaxAttempts;
  // Transient-fault retries restart from the original input.
  std::vector<xfft::Cf> pristine;
  if (job.fault_class == xfault::FaultClass::kTransient &&
      (rung == Rung::kParallel || rung == Rung::kSerial)) {
    pristine = job.req.data;
  }

  std::chrono::nanoseconds backoff = opt_.backoff_base;
  for (unsigned attempt = 1;; ++attempt) {
    const JobOutcome a = execute_once(job, rung, attempt);
    out.status = a.status;
    out.error = a.error;
    out.estimate_seconds = a.estimate_seconds;
    out.attempts = attempt;
    // kFaultExhausted from a single attempt means "this attempt failed
    // transiently" — final only once the budget is spent.
    if (a.status != ServeStatus::kFaultExhausted) break;
    if (attempt >= max_attempts) {
      out.error += " (budget of " + std::to_string(max_attempts) +
                   " attempts exhausted)";
      break;
    }
    if (!pristine.empty()) job.req.data = pristine;
    backoff = next_decorrelated_backoff(backoff, opt_.backoff_base,
                                        kBackoffCap, backoff_rng_);
    std::chrono::nanoseconds sleep = backoff;
    if (job.token->has_deadline()) {
      sleep = clip_backoff_to_deadline(
          sleep, std::chrono::duration_cast<std::chrono::nanoseconds>(
                     job.token->remaining()));
    }
    if (sleep.count() > 0) std::this_thread::sleep_for(sleep);
  }
  out.data = std::move(job.req.data);
  return out;
}

JobOutcome FftServer::execute_once(Job& job, Rung rung, unsigned attempt) {
  JobOutcome out;
  if (job.token->cancel_requested()) {
    out.status = ServeStatus::kCancelled;
    out.error = "cancelled before attempt " + std::to_string(attempt);
    return out;
  }
  if (job.token->expired()) {
    out.status = ServeStatus::kDeadlineExceeded;
    out.error = "deadline expired before attempt " + std::to_string(attempt);
    return out;
  }

  const xfft::Dims3 dims = job.req.dims;
  const std::span<xfft::Cf> data(job.req.data);
  switch (rung) {
    case Rung::kEstimate: {
      // Heaviest shedding: answer with the analytic model's prediction of
      // the healthy runtime on the 64k preset instead of computing anything.
      try {
        const xsim::FftPerfModel model(xsim::preset_64k());
        out.estimate_seconds = model.analyze_fft(dims).total_seconds;
      } catch (const xutil::Error&) {
        // Shapes the phase builder cannot decompose get a nominal-rate
        // estimate (100 GFLOP/s on the 5 N log2 N convention).
        out.estimate_seconds =
            xfft::standard_fft_flops(dims.total()) / 100e9;
      }
      break;
    }
    case Rung::kFixedPoint: {
      auto q = xfft::to_q15(data);
      xfft::fft_q15(q, job.req.dir);
      const auto back = xfft::from_q15(q);
      // fft_q15 halves every stage, so the forward result is X[k]/N; the
      // inverse halving is exactly the unitary 1/N convention.
      const float scale = job.req.dir == xfft::Direction::kForward
                              ? static_cast<float>(dims.total())
                              : 1.0f;
      for (std::size_t i = 0; i < data.size(); ++i) data[i] = back[i] * scale;
      break;
    }
    case Rung::kParallel:
    case Rung::kSerial: {
      xfft::ExecOptions exec;
      exec.cancel = job.token.get();
      exec.serial = rung == Rung::kSerial;
      if (job.fault_class == xfault::FaultClass::kTransient) {
        xfault::ResilienceOptions ropt;
        ropt.soft_flip_rate = job.plan.soft_flip_rate;
        // Fresh upset conditions per service-level attempt: remix the seed
        // so a retry does not replay the exact flips that defeated it.
        ropt.seed = job.req.seed + 0x9e3779b97f4a7c15ULL * attempt;
        ropt.max_attempts_per_row = kRowRecoveryAttempts;
        const auto rep =
            xfault::resilient_fft(data, dims, job.req.dir, ropt, exec);
        if (!rep.ok()) {
          out.status = ServeStatus::kFaultExhausted;
          out.error = "transient faults defeated attempt " +
                      std::to_string(attempt) + " (" +
                      std::to_string(rep.flips_injected) + " flips, " +
                      std::to_string(rep.retries_exhausted) +
                      " rows unrecovered)";
        }
      } else {
        const auto plan = xfft::PlanCache::global().plan_nd(dims, job.req.dir);
        plan->execute(data, exec);
      }
      break;
    }
  }

  if (job.token->cancel_requested()) {
    out.status = ServeStatus::kCancelled;
    out.error = "cancelled during attempt " + std::to_string(attempt);
  } else if (job.token->expired()) {
    out.status = ServeStatus::kDeadlineExceeded;
    out.error = "deadline expired during attempt " + std::to_string(attempt);
  }
  return out;
}

void FftServer::record_outcome(const JobOutcome& out) {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  switch (out.status) {
    case ServeStatus::kOk:
      ++counters_.ok;
      ++counters_.per_rung[static_cast<unsigned>(out.rung)];
      break;
    case ServeStatus::kDeadlineExceeded:
      ++counters_.deadline_exceeded;
      break;
    case ServeStatus::kCancelled:
      ++counters_.cancelled;
      break;
    case ServeStatus::kFaultExhausted:
      ++counters_.fault_exhausted;
      break;
    case ServeStatus::kOverloaded:
    case ServeStatus::kInvalid:
      // Admission-time rejections are counted in submit(); this is the
      // dispatcher's escape hatch for an accepted job failing late.
      ++counters_.failed_invalid;
      break;
  }
  if (out.attempts > 1) counters_.retries += out.attempts - 1;
  if (out.attempts > 0 && out.rung != Rung::kParallel) ++counters_.sheds;
  if (latencies_.size() < kMaxLatencySamples) {
    latencies_.push_back(out.latency_seconds);
  }
}

}  // namespace xserve
