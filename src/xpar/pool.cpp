#include "xpar/pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

namespace xpar {

namespace {

std::mutex g_global_mu;
std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> slot;
  return slot;
}

}  // namespace

/// A parallel_for invocation in flight. Lives on the caller's stack. Once
/// every chunk is claimed the caller takes it out of open_ and waits until
/// `helpers` is zero, so no worker touches it after the call returns.
struct ThreadPool::Job {
  /// One lane's contiguous run of chunk indices [next, end). Padded so that
  /// claims on different blocks do not share a cache line.
  struct alignas(64) Block {
    std::atomic<std::int64_t> next{0};
    std::int64_t end = 0;
  };

  Job(const std::function<void(std::int64_t, std::int64_t)>& fn,
      std::int64_t b, std::int64_t e, std::int64_t g, unsigned lanes)
      : body(fn), begin(b), end(e), grain(g) {
    const std::int64_t chunks = (e - b - 1) / g + 1;
    const std::int64_t nb = std::min<std::int64_t>(lanes, chunks);
    const std::int64_t q = chunks / nb;
    const std::int64_t r = chunks % nb;
    blocks = std::vector<Block>(static_cast<std::size_t>(nb));
    for (std::int64_t i = 0; i < nb; ++i) {
      Block& blk = blocks[static_cast<std::size_t>(i)];
      blk.next.store(i * q + std::min(i, r), std::memory_order_relaxed);
      blk.end = (i + 1) * q + std::min(i + 1, r);
    }
  }

  const std::function<void(std::int64_t, std::int64_t)>& body;
  const std::int64_t begin;
  const std::int64_t end;
  const std::int64_t grain;
  std::vector<Block> blocks;
  // Guarded by the pool's mu_:
  std::size_t joined = 1;  // threads that took a home block; the caller first
  unsigned helpers = 0;    // workers inside run_chunks
  std::condition_variable left;  // signalled when helpers drops to zero
  std::exception_ptr error;      // first body exception
};

ThreadPool::ThreadPool(unsigned threads)
    : lanes_(threads == 0 ? default_thread_count() : std::max(threads, 1u)) {
  workers_.reserve(lanes_ - 1);
  for (unsigned i = 1; i < lanes_; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

unsigned ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("XMTFFT_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<unsigned>(std::min(v, 256L));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool& ThreadPool::global() {
  const std::lock_guard<std::mutex> lk(g_global_mu);
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(0);
  return *slot;
}

void ThreadPool::set_global_threads(unsigned threads) {
  const unsigned want = threads == 0 ? default_thread_count() : threads;
  const std::lock_guard<std::mutex> lk(g_global_mu);
  auto& slot = global_slot();
  if (slot && slot->threads() == want) return;
  slot.reset();  // joins the old workers first
  slot = std::make_unique<ThreadPool>(want);
}

std::int64_t ThreadPool::auto_grain(std::int64_t n) const {
  // ~8 chunks per lane: enough slack for helpers to balance uneven chunks,
  // coarse enough that claim overhead stays invisible.
  return std::max<std::int64_t>(1, n / (static_cast<std::int64_t>(lanes_) * 8));
}

void ThreadPool::run_chunks(Job& job, std::size_t home) {
  const std::size_t nb = job.blocks.size();
  for (std::size_t k = 0; k < nb; ++k) {
    Job::Block& blk = job.blocks[(home + k) % nb];
    for (std::int64_t c = blk.next.fetch_add(1, std::memory_order_relaxed);
         c < blk.end; c = blk.next.fetch_add(1, std::memory_order_relaxed)) {
      const std::int64_t lo = job.begin + c * job.grain;
      try {
        job.body(lo, std::min(job.end, lo + job.grain));
      } catch (...) {
        const std::lock_guard<std::mutex> lk(mu_);
        if (!job.error) job.error = std::current_exception();
      }
    }
  }
}

void ThreadPool::worker_main() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [&] { return stop_ || !open_.empty(); });
    if (stop_) return;
    Job& job = *open_.front();
    const std::size_t home = job.joined++;
    ++job.helpers;
    lk.unlock();
    run_chunks(job, home);
    lk.lock();
    std::erase(open_, &job);  // every chunk of it is claimed by now
    if (--job.helpers == 0) job.left.notify_one();
  }
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (end <= begin) return;
  const std::int64_t n = end - begin;
  const std::int64_t g = grain > 0 ? grain : auto_grain(n);
  if (n <= g) {
    body(begin, end);
    return;
  }
  Job job(body, begin, end, g, lanes_);
  {
    const std::lock_guard<std::mutex> lk(mu_);
    open_.push_back(&job);
  }
  work_cv_.notify_all();
  run_chunks(job, 0);
  {
    std::unique_lock<std::mutex> lk(mu_);
    std::erase(open_, &job);
    job.left.wait(lk, [&] { return job.helpers == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace xpar
