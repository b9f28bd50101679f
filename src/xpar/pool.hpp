// Work-stealing thread pool: the host-side parallel execution backend.
//
// The paper's argument is that a bandwidth-intensive regular algorithm
// scales with hardware parallelism; measuring that on the host (Table V's
// 32-thread FFTW column) needs a real multithreaded baseline. This pool is
// that backend: N-1 worker threads plus the calling thread, each worker
// owning a Chase–Lev deque (deque.hpp). parallel_for splits a range by
// recursive halving — the executing thread keeps the near half and pushes
// the far half for thieves — down to a grain, so load balance emerges
// without a central queue on the hot path.
//
// Determinism contract, relied on throughout the repository:
//  - parallel_for: with an explicit grain, chunk boundaries are a pure
//    function of (range, grain), never of thread count or timing — the
//    size-1 pool replays the same halving split. (Auto grain, grain <= 0,
//    scales with the pool size; bodies that write disjoint outputs per
//    index — every use in xfft/xcheck — still produce byte-identical
//    results at any thread count, including 1.)
//  - parallel_reduce: the range is cut into fixed chunks (grain-derived,
//    thread-count independent), partials land in a chunk-indexed array,
//    and the combine runs serially in chunk order — so floating-point
//    reductions are bit-stable across thread counts.
//
// The pool size comes from (highest priority first) set_global_threads()
// / the CLI `--threads` flag, the XMTFFT_THREADS environment variable,
// and std::thread::hardware_concurrency(). Size 1 means strictly inline
// serial execution on the calling thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "xpar/deque.hpp"
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

  /// Runs body(b, e) over disjoint subranges covering [begin, end) and
  /// joins. Grain <= 0 picks one aimed at ~8 chunks per lane. The calling
  /// thread participates; nested calls from inside a body are allowed
  /// (they split onto the worker's own deque). The first exception thrown
  /// by a body is rethrown here after the join.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    const std::function<void(std::int64_t, std::int64_t)>& body);

  /// Cancellation-aware variant: every chunk polls `cancel` before running
  /// its body and is skipped once the token is expired, so a deadline or a
  /// cancel() bounds the work issued after it to the chunks already in
  /// flight. The split (and therefore chunk boundaries) is identical to the
  /// plain overload; the call still joins every spawned task. Callers must
  /// check the token afterwards — skipped chunks leave their output range
  /// untouched. A null token degrades to the plain overload.
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

  /// Deterministic reduction: cuts [begin, end) into fixed chunks of
  /// `grain` (<= 0 picks 1024 — thread-count independent on purpose),
  /// evaluates partials[c] = map_chunk(lo, hi) in parallel, then combines
  /// serially in chunk order. Bit-stable across thread counts.
  template <typename T, typename MapFn, typename CombineFn>
  T parallel_reduce(std::int64_t begin, std::int64_t end, std::int64_t grain,
                    T identity, MapFn&& map_chunk, CombineFn&& combine) {
    if (end <= begin) return identity;
    const std::int64_t g = grain > 0 ? grain : 1024;
    const std::int64_t nchunks = (end - begin + g - 1) / g;
    std::vector<T> partials(static_cast<std::size_t>(nchunks), identity);
    parallel_for(0, nchunks, 1,
                 [&](std::int64_t cb, std::int64_t ce) {
                   for (std::int64_t c = cb; c < ce; ++c) {
                     const std::int64_t lo = begin + c * g;
                     const std::int64_t hi = std::min(end, lo + g);
                     partials[static_cast<std::size_t>(c)] = map_chunk(lo, hi);
                   }
                 });
    T acc = identity;
    for (const T& p : partials) acc = combine(acc, p);
    return acc;
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
  struct Task {
    Job* job;
    std::int64_t begin;
    std::int64_t end;
  };

  void worker_main(unsigned self);
  void run_task(Task* task, int self);
  [[nodiscard]] Task* try_acquire(int self);
  [[nodiscard]] bool run_one(int self);
  void inject(Task* task);
  [[nodiscard]] std::int64_t auto_grain(std::int64_t n) const;

  unsigned lanes_;
  std::vector<std::unique_ptr<WsDeque<Task>>> deques_;  // one per worker
  std::vector<std::thread> workers_;
  std::mutex inject_mu_;
  std::deque<Task*> inject_;
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> stop_{false};
};

/// Conveniences on the global pool.
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

template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  T identity, MapFn&& map_chunk, CombineFn&& combine) {
  return ThreadPool::global().parallel_reduce(
      begin, end, grain, identity, std::forward<MapFn>(map_chunk),
      std::forward<CombineFn>(combine));
}

}  // namespace xpar
