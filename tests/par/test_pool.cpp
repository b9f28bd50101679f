// xpar backbone tests: Chase–Lev deque invariants, exact parallel_for
// coverage, the chunk-boundary determinism contract, nesting, reductions,
// and exception propagation (including the simulator's typed watchdog
// error). This file carries the `par` ctest label and is expected to run
// clean under -DXMTFFT_SANITIZE=thread.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "xpar/deque.hpp"
#include "xpar/pool.hpp"
#include "xsim/fft_traffic.hpp"
#include "xsim/machine.hpp"

namespace {

TEST(WsDeque, OwnerPushPopIsLifo) {
  xpar::WsDeque<int> d;
  int items[3] = {10, 20, 30};
  for (int& it : items) d.push(&it);
  EXPECT_EQ(d.size_approx(), 3u);
  EXPECT_EQ(d.pop(), &items[2]);
  EXPECT_EQ(d.pop(), &items[1]);
  EXPECT_EQ(d.pop(), &items[0]);
  EXPECT_EQ(d.pop(), nullptr);
}

TEST(WsDeque, StealTakesOldestFirst) {
  xpar::WsDeque<int> d;
  int items[3] = {1, 2, 3};
  for (int& it : items) d.push(&it);
  EXPECT_EQ(d.steal(), &items[0]);
  EXPECT_EQ(d.steal(), &items[1]);
  // Owner and thief meet in the middle on the last element.
  EXPECT_EQ(d.pop(), &items[2]);
  EXPECT_EQ(d.steal(), nullptr);
}

TEST(WsDeque, GrowsPastInitialCapacity) {
  xpar::WsDeque<int> d(/*capacity=*/4);
  std::vector<int> items(1000);
  for (int& it : items) d.push(&it);
  EXPECT_EQ(d.size_approx(), items.size());
  // FIFO from the top across the grown ring.
  for (int& it : items) EXPECT_EQ(d.steal(), &it);
  EXPECT_EQ(d.steal(), nullptr);
}

TEST(WsDeque, ConcurrentStealersGetEveryItemOnce) {
  xpar::WsDeque<int> d;
  constexpr int kItems = 10000;
  std::vector<int> items(kItems);
  for (int i = 0; i < kItems; ++i) items[static_cast<std::size_t>(i)] = i;
  std::atomic<int> taken{0};
  std::vector<std::atomic<int>> seen(kItems);
  for (auto& s : seen) s.store(0);

  std::vector<std::thread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      while (taken.load() < kItems) {
        if (int* p = d.steal()) {
          seen[static_cast<std::size_t>(*p)].fetch_add(1);
          taken.fetch_add(1);
        }
      }
    });
  }
  // Owner interleaves pushes and occasional pops.
  for (int i = 0; i < kItems; ++i) {
    d.push(&items[static_cast<std::size_t>(i)]);
    if (i % 7 == 0) {
      if (int* p = d.pop()) {
        seen[static_cast<std::size_t>(*p)].fetch_add(1);
        taken.fetch_add(1);
      }
    }
  }
  while (taken.load() < kItems) {
    if (int* p = d.pop()) {
      seen[static_cast<std::size_t>(*p)].fetch_add(1);
      taken.fetch_add(1);
    }
  }
  for (auto& t : thieves) t.join();
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    xpar::ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    for (const std::int64_t n : {0, 1, 7, 1000, 4097}) {
      for (const std::int64_t grain : {0, 1, 64}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
        for (auto& h : hits) h.store(0);
        pool.parallel_for(0, n, grain,
                          [&](std::int64_t lo, std::int64_t hi) {
                            for (std::int64_t i = lo; i < hi; ++i) {
                              hits[static_cast<std::size_t>(i)].fetch_add(1);
                            }
                          });
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
      }
    }
  }
}

TEST(ThreadPool, ChunkBoundariesIndependentOfThreadCount) {
  // The determinism contract: (range, grain) fully determines the set of
  // chunks a body observes, regardless of pool size or timing.
  const auto chunks_at = [](unsigned threads) {
    xpar::ThreadPool pool(threads);
    std::mutex mu;
    std::set<std::pair<std::int64_t, std::int64_t>> chunks;
    pool.parallel_for(3, 5000, 37, [&](std::int64_t lo, std::int64_t hi) {
      const std::lock_guard<std::mutex> lk(mu);
      chunks.emplace(lo, hi);
    });
    return chunks;
  };
  const auto one = chunks_at(1);
  EXPECT_EQ(one, chunks_at(2));
  EXPECT_EQ(one, chunks_at(8));
}

TEST(ThreadPool, NestedParallelForWorks) {
  xpar::ThreadPool pool(4);
  constexpr std::int64_t kOuter = 16;
  constexpr std::int64_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(0, kOuter, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t o = lo; o < hi; ++o) {
      pool.parallel_for(0, kInner, 8,
                        [&, o](std::int64_t ilo, std::int64_t ihi) {
                          for (std::int64_t i = ilo; i < ihi; ++i) {
                            hits[static_cast<std::size_t>(o * kInner + i)]
                                .fetch_add(1);
                          }
                        });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelReduceIsBitStableAcrossThreadCounts) {
  // Awkward summands so the result depends on association order; the fixed
  // chunking plus serial combine must make every pool agree bitwise.
  const auto sum_at = [](unsigned threads) {
    xpar::ThreadPool pool(threads);
    return pool.parallel_reduce(
        0, 100000, 0, 0.0,
        [](std::int64_t lo, std::int64_t hi) {
          double s = 0.0;
          for (std::int64_t i = lo; i < hi; ++i) {
            s += 1.0 / (1.0 + static_cast<double>(i) * 1e-3);
          }
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double one = sum_at(1);
  EXPECT_EQ(one, sum_at(2));
  EXPECT_EQ(one, sum_at(8));
}

TEST(ThreadPool, ParallelReduceExactOnIntegers) {
  xpar::ThreadPool pool(4);
  constexpr std::int64_t n = 12345;
  const std::int64_t sum = pool.parallel_reduce(
      0, n, 100, std::int64_t{0},
      [](std::int64_t lo, std::int64_t hi) {
        std::int64_t s = 0;
        for (std::int64_t i = lo; i < hi; ++i) s += i;
        return s;
      },
      [](std::int64_t a, std::int64_t b) { return a + b; });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(ThreadPool, BodyExceptionIsRethrownAfterJoin) {
  for (const unsigned threads : {1u, 4u}) {
    xpar::ThreadPool pool(threads);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.parallel_for(0, 1000, 1,
                          [&](std::int64_t lo, std::int64_t) {
                            ran.fetch_add(1);
                            if (lo >= 500) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    EXPECT_GT(ran.load(), 0);
  }
}

TEST(ParallelRuntime, WatchdogDeadlockErrorPropagatesThroughParallelSpawn) {
  // A DeadlockError thrown inside a pool-dispatched body is rethrown from
  // parallel_for with its type and diagnostics intact, not sliced to a base
  // class or swallowed by a worker thread.
  xsim::MachineConfig cfg;
  cfg.name = "par-watchdog";
  cfg.clusters = 8;
  cfg.tcus = 8 * 32;
  cfg.memory_modules = 8;
  cfg.mot_levels = 4;
  cfg.butterfly_levels = 2;
  cfg.mms_per_dram_ctrl = 2;
  cfg.fpus_per_cluster = 1;
  cfg.cache_bytes_per_mm = 8 * 1024;
  cfg.validate();
  auto mopt = xsim::MachineOptions{};
  mopt.cycle_limit = 100;
  mopt.throw_on_cycle_limit = true;

  xpar::ThreadPool pool(4);
  try {
    pool.parallel_for(0, 8, 1, [&](std::int64_t lo, std::int64_t) {
      if (lo != 0) return;  // one body drives the machine to the limit
      xsim::Machine m(cfg, mopt);
      (void)m.run_parallel_section(
          4096, xsim::make_uniform_generator(64, 64, 1 << 20, 17));
    });
    FAIL() << "expected DeadlockError through the pool join";
  } catch (const xsim::DeadlockError& e) {
    EXPECT_EQ(e.cycle_limit, 100u);
    EXPECT_EQ(e.threads_total, 4096u);
    EXPECT_LT(e.threads_completed, e.threads_total);
    EXPECT_NE(std::string(e.what()).find("cycle limit"), std::string::npos);
  }
}

TEST(ThreadPool, GlobalPoolIsResizable) {
  xpar::ThreadPool::set_global_threads(2);
  EXPECT_EQ(xpar::ThreadPool::global().threads(), 2u);
  std::atomic<std::int64_t> sum{0};
  xpar::parallel_for(0, 100, 10, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
  xpar::ThreadPool::set_global_threads(0);  // restore the default
  EXPECT_EQ(xpar::ThreadPool::global().threads(),
            xpar::ThreadPool::default_thread_count());
}

}  // namespace
