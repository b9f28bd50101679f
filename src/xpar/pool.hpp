// Chunk-cursor thread pool: the host-side parallel execution backend.
//
// The paper's argument is that a bandwidth-intensive regular algorithm
// scales with hardware parallelism; measuring that on the host (Table V's
// 32-thread FFTW column) needs a real multithreaded baseline. This pool is
// that backend: N-1 worker threads plus the calling thread. Like XMT's
// prefix-sum unit handing out thread IDs (paper §II-A), it hands out work
// with fetch-and-add: parallel_for cuts a range into fixed chunks, splits
// the chunk list into one contiguous block per lane, and every thread that
// joins drains its home block front to back through the block's atomic
// cursor, then helps drain the others.
//
// Determinism contract, relied on throughout the repository: the chunk
// list is a pure function of (range, grain); which thread runs a chunk is
// not. Chunk c is [begin + c*g, min(end, begin + (c+1)*g)). An explicit
// grain therefore gives the same chunks at any pool size; the auto grain
// (grain <= 0) scales with the pool size. Bodies that write disjoint
// outputs per index — every use in xfft/xcheck — produce byte-identical
// results at any thread count, including 1.
//
// The pool size comes from (highest priority first) set_global_threads()
// / the CLI `--threads` flag, the XMTFFT_THREADS environment variable,
// and std::thread::hardware_concurrency(). Size 1 means the calling thread
// runs the chunks in order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "xutil/cancel.hpp"

namespace xpar {

class ThreadPool {
 public:
  /// `threads` is the total concurrency including the calling thread;
  /// 0 means default_thread_count(). One thread = no workers, inline runs.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (workers + the calling thread).
  [[nodiscard]] unsigned threads() const { return lanes_; }

  /// Runs body(b, e) over the chunks of [begin, end) and joins. Grain <= 0
  /// picks one aimed at ~8 chunks per lane. The calling thread
  /// participates; several threads may call at once, and a body may call
  /// parallel_for again (the nested call drains its own chunks). The first
  /// exception thrown by a body is rethrown here after the join.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& body);

  /// Cancellation-aware variant: every chunk polls `cancel` before running
  /// its body and is skipped once the token is expired, so a deadline or a
  /// cancel() bounds the work issued after it to the chunks already in
  /// flight. Chunk boundaries are identical to the plain overload; the call
  /// still joins. Callers must check the token afterwards — skipped chunks
  /// leave their output range untouched. A null token degrades to the plain
  /// overload.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& body,
                    const xutil::CancelToken* cancel) {
    if (cancel == nullptr) {
      parallel_for(begin, end, grain, body);
      return;
    }
    if (cancel->expired()) return;
    parallel_for(begin, end, grain,
                 [&body, cancel](std::int64_t b, std::int64_t e) {
                   if (cancel->expired()) return;
                   body(b, e);
                 });
  }

  /// Pool size from XMTFFT_THREADS (clamped to [1, 256]) or, unset,
  /// hardware_concurrency (at least 1).
  [[nodiscard]] static unsigned default_thread_count();

  /// Process-wide pool used by xfft/xcheck and the benches.
  [[nodiscard]] static ThreadPool& global();

  /// Replaces the global pool (the CLI `--threads` knob and the tests'
  /// 1/2/8-thread determinism sweeps). Callers must ensure no parallel_for
  /// is in flight on the old pool; 0 restores the default count.
  static void set_global_threads(unsigned threads);

 private:
  struct Job;

  void worker_main();
  void run_chunks(Job& job, std::size_t home);
  [[nodiscard]] std::int64_t auto_grain(std::int64_t n) const;

  unsigned lanes_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for an open job
  std::vector<Job*> open_;  // jobs that may have unclaimed chunks; mu_
  bool stop_ = false;       // guarded by mu_
  std::vector<std::thread> workers_;
};

/// Convenience on the global pool.
inline void parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  ThreadPool::global().parallel_for(begin, end, grain, body);
}

inline void parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body,
    const xutil::CancelToken* cancel) {
  ThreadPool::global().parallel_for(begin, end, grain, body, cancel);
}

}  // namespace xpar
