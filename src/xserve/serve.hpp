// xserve: a hardened in-process FFT job service.
//
// Every other entry point in this repository is a one-shot batch run; this
// layer gives the repo the posture of a production FFT deployment, where
// overload and faulty hardware are steady-state, not exceptions. Requests
// (dims, direction, deadline, optional fault plan) flow through:
//
//  - a bounded admission queue with explicit backpressure: a full queue
//    rejects with kOverloaded synchronously — the caller is never blocked
//    and never silently dropped;
//  - per-request deadlines enforced by cooperative xutil::CancelToken
//    polling threaded through xpar::parallel_for chunks and the
//    Plan1D/PlanND stage loops — an expired request returns
//    kDeadlineExceeded, it never hangs;
//  - retry with decorrelated-jitter backoff for requests that fail
//    transiently under a soft-error FaultPlan (xfault::classify decides
//    what is worth retrying: structural faults are permanent and fail fast
//    with kFaultExhausted);
//  - a graceful-degradation ladder that sheds work as the queue fills:
//      rung 0  kParallel    pool-parallel float FFT (full service)
//      rung 1  kSerial      float FFT on the dispatcher thread only
//                           (frees pool lanes for the rest of the system)
//      rung 2  kFixedPoint  Q15 fixed-point transform (1-D pow2; cheaper,
//                           quantized — answers tagged degraded)
//      rung 3  kEstimate    no transform at all: the analytic FftPerfModel
//                           prediction of the job's runtime, tagged
//                           degraded (load-shedding's honest fallback)
//
// Outcomes use the typed ServeStatus taxonomy instead of stringly errors,
// and ServerStats exposes a consistent snapshot (queue depth, p50/p99
// latency, retries, sheds, per-rung completions) whose counters exactly
// match the per-request outcomes handed back to callers — the soak harness
// (bench/soak.cpp) asserts that conservation property end to end.
//
// Threading model: submit()/wait()/cancel()/stats() may be called from any
// thread. A single dispatcher thread owns execution; within a job the
// kParallel rung fans out onto the global xpar::ThreadPool. One job
// executes at a time per server; the cached plans it runs are reentrant,
// so servers and other callers may share them.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "xfault/fault_plan.hpp"
#include "xfft/types.hpp"
#include "xutil/cancel.hpp"
#include "xutil/rng.hpp"

namespace xserve {

/// Typed request outcome taxonomy.
enum class ServeStatus {
  kOk,                ///< transform (or estimate) delivered
  kOverloaded,        ///< admission queue full; request rejected at submit
  kDeadlineExceeded,  ///< deadline expired while queued or mid-execution
  kCancelled,         ///< caller cancelled (or the server shut down first)
  kFaultExhausted,    ///< fault plan defeated the retry budget (or is permanent)
  kInvalid,           ///< malformed request (dims, buffer, data, fault spec)
};

[[nodiscard]] const char* status_name(ServeStatus s);

/// Degradation-ladder rungs, in shedding order.
enum class Rung : unsigned {
  kParallel = 0,
  kSerial = 1,
  kFixedPoint = 2,
  kEstimate = 3,
};

inline constexpr unsigned kRungCount = 4;

[[nodiscard]] const char* rung_name(Rung r);

/// One FFT job. `data` is moved in at submit and handed back in the
/// outcome (untouched on failure and on the estimate rung).
struct JobRequest {
  xfft::Dims3 dims{1, 1, 1};
  xfft::Direction dir = xfft::Direction::kForward;
  std::vector<xfft::Cf> data;  ///< length dims.total()
  /// Budget from admission; zero means no deadline.
  std::chrono::nanoseconds deadline{0};
  /// xfault::FaultPlan spec the job (notionally) runs under; "" = healthy.
  std::string faults;
  std::uint64_t seed = 1;  ///< seeds fault injection per attempt
  /// Total execution attempts allowed (first try + retries); 0 means 3.
  unsigned max_attempts = 0;
};

/// Final outcome of one accepted job.
struct JobOutcome {
  ServeStatus status = ServeStatus::kOk;
  Rung rung = Rung::kParallel;  ///< ladder rung the job was dispatched on
  bool degraded = false;        ///< served below full fidelity (rung > 0)
  unsigned attempts = 0;        ///< executions actually performed
  /// kEstimate rung: the analytic model's predicted healthy runtime.
  double estimate_seconds = 0.0;
  double latency_seconds = 0.0;  ///< admission -> completion
  std::string error;             ///< detail for non-kOk outcomes
  std::vector<xfft::Cf> data;    ///< result buffer, moved back to the caller
};

/// Consistent counter snapshot. Conservation invariants (asserted by the
/// soak harness):
///   submitted == accepted + rejected_overload + rejected_invalid
///   accepted  == completed() + (in queue) + (executing)
///   ok        == sum(per_rung)
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t ok = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t fault_exhausted = 0;
  /// Accepted jobs that failed validation only at execution time (the
  /// dispatcher's escape hatch; should stay 0 — admission validates).
  std::uint64_t failed_invalid = 0;
  std::uint64_t retries = 0;  ///< re-executions after transient failures
  std::uint64_t sheds = 0;    ///< dispatches that picked a rung > kParallel
  /// Successful completions per ladder rung.
  std::array<std::uint64_t, kRungCount> per_rung{};
  std::size_t queue_depth = 0;       ///< at snapshot time
  std::size_t peak_queue_depth = 0;  ///< high-water mark
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;

  [[nodiscard]] std::uint64_t completed() const {
    return ok + deadline_exceeded + cancelled + fault_exhausted +
           failed_invalid;
  }
};

struct ServerOptions {
  std::size_t queue_capacity = 64;
  /// Ladder thresholds on the queue fill fraction observed at dispatch
  /// (the popped job counts itself): fill >= threshold sheds to that rung.
  double shed_serial_at = 0.50;
  double shed_fixed_point_at = 0.75;
  double shed_estimate_at = 0.90;
  /// Decorrelated-jitter backoff between transient-failure retries:
  /// sleep = min(8 ms, uniform(base, 3 * previous_sleep)). Base zero
  /// disables sleeping (tests).
  std::chrono::nanoseconds backoff_base{250'000};      // 0.25 ms
  std::uint64_t seed = 1;        ///< seeds the backoff jitter stream
};

class FftServer {
 public:
  /// Synchronous admission verdict. kOk means accepted (id is valid and a
  /// wait(id) will eventually return); kOverloaded/kInvalid mean rejected
  /// with no server-side state retained.
  struct Admission {
    ServeStatus status = ServeStatus::kOk;
    std::uint64_t id = 0;
    std::string error;
    [[nodiscard]] bool accepted() const { return status == ServeStatus::kOk; }
  };

  explicit FftServer(ServerOptions opt = {});
  /// Stops admission, completes queued jobs as kCancelled, joins.
  ~FftServer();

  FftServer(const FftServer&) = delete;
  FftServer& operator=(const FftServer&) = delete;

  /// Non-blocking admission: validates, applies backpressure, enqueues.
  Admission submit(JobRequest req);

  /// Blocks until the job completes and returns its outcome. Each accepted
  /// id may be waited on exactly once. Throws xutil::Error for ids that
  /// were never accepted (or were already claimed).
  JobOutcome wait(std::uint64_t id);

  /// Best-effort cooperative cancel; true if the job was still tracked.
  bool cancel(std::uint64_t id);

  [[nodiscard]] ServerStats stats() const;

  /// Blocks until the queue is empty and no job is executing (or timeout).
  bool drain_for(std::chrono::nanoseconds timeout);

  /// Gates the dispatcher (admission stays open). Used by tests to stage a
  /// deterministic backlog and by operators to quiesce before maintenance.
  void set_dispatch_paused(bool paused);

  [[nodiscard]] const ServerOptions& options() const { return opt_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    JobRequest req;
    xfault::FaultPlan plan;
    xfault::FaultClass fault_class = xfault::FaultClass::kNone;
    std::shared_ptr<xutil::CancelToken> token;
    std::chrono::steady_clock::time_point admitted;
    std::promise<JobOutcome> done;
  };

  void dispatcher_main();
  [[nodiscard]] Rung pick_rung(double fill) const;
  JobOutcome run_job(Job& job, Rung rung);
  /// One execution attempt on `rung`; returns the would-be outcome.
  JobOutcome execute_once(Job& job, Rung rung, unsigned attempt);
  void record_outcome(const JobOutcome& out);

  ServerOptions opt_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  ///< dispatcher wakeups
  std::condition_variable idle_cv_;   ///< drain_for wakeups
  std::deque<Job> queue_;
  std::map<std::uint64_t, std::future<JobOutcome>> futures_;
  std::map<std::uint64_t, std::shared_ptr<xutil::CancelToken>> tokens_;
  std::uint64_t next_id_ = 0;
  bool stop_ = false;
  bool paused_ = false;
  bool busy_ = false;  ///< dispatcher is executing a job

  mutable std::mutex stats_mu_;
  ServerStats counters_;  ///< queue_depth/latency filled in at snapshot
  std::vector<double> latencies_;

  xutil::Pcg32 backoff_rng_;  ///< dispatcher-thread only
  std::thread dispatcher_;
};

}  // namespace xserve
