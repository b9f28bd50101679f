// xpar backbone tests: exact parallel_for coverage, the chunk-boundary
// determinism contract, nesting, concurrent callers, and exception
// propagation (including the simulator's typed watchdog error). This file
// carries the `par` ctest label and is expected to run clean under
// -DXMTFFT_SANITIZE=thread.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "xpar/pool.hpp"
#include "xsim/fft_traffic.hpp"
#include "xsim/machine.hpp"

namespace {

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
  // The determinism contract: (range, grain) fully determines the chunk
  // list a body observes, regardless of pool size or timing.
  std::set<std::pair<std::int64_t, std::int64_t>> want;
  for (std::int64_t lo = 3; lo < 5000; lo += 37) {
    want.emplace(lo, std::min<std::int64_t>(5000, lo + 37));
  }
  ASSERT_EQ(want.size(), 136u);
  for (const unsigned threads : {1u, 2u, 8u}) {
    xpar::ThreadPool pool(threads);
    std::mutex mu;
    std::set<std::pair<std::int64_t, std::int64_t>> chunks;
    std::size_t calls = 0;
    pool.parallel_for(3, 5000, 37, [&](std::int64_t lo, std::int64_t hi) {
      const std::lock_guard<std::mutex> lk(mu);
      chunks.emplace(lo, hi);
      ++calls;
    });
    EXPECT_EQ(chunks, want) << threads << " threads";
    EXPECT_EQ(calls, want.size()) << threads << " threads";
  }
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

TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  // Four outside threads issue jobs on one pool at once: caller 0 nests a
  // call in every chunk, caller 1 has a body that throws. Every job still
  // runs each of its indices exactly once, and only caller 1 sees an
  // exception.
  constexpr int kCallers = 4;
  constexpr std::int64_t kOuter = 64;
  constexpr std::int64_t kInner = 32;
  constexpr std::int64_t kN = kOuter * kInner;
  xpar::ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(kCallers * kN);
    for (auto& h : hits) h.store(0);
    std::array<bool, kCallers> threw{};
    std::latch start(kCallers);
    std::vector<std::thread> callers;
    for (int k = 0; k < kCallers; ++k) {
      callers.emplace_back([&, k] {
        std::atomic<int>* const mine = hits.data() + k * kN;
        const auto mark = [mine](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) mine[i].fetch_add(1);
        };
        start.arrive_and_wait();
        try {
          if (k == 0) {
            pool.parallel_for(0, kOuter, 1, [&](std::int64_t lo,
                                                std::int64_t hi) {
              for (std::int64_t o = lo; o < hi; ++o) {
                pool.parallel_for(o * kInner, (o + 1) * kInner, 4, mark);
              }
            });
          } else {
            pool.parallel_for(0, kN, 0, [&](std::int64_t lo,
                                            std::int64_t hi) {
              mark(lo, hi);
              if (k == 1 && lo <= kN / 2 && kN / 2 < hi) {
                throw std::runtime_error("caller 1");
              }
            });
          }
        } catch (const std::runtime_error&) {
          threw[static_cast<std::size_t>(k)] = true;
        }
      });
    }
    for (auto& t : callers) t.join();
    for (int k = 0; k < kCallers; ++k) {
      const auto first = hits.begin() + k * kN;
      EXPECT_EQ(std::count_if(first, first + kN,
                              [](const std::atomic<int>& h) {
                                return h.load() != 1;
                              }),
                0)
          << "caller " << k << ", round " << round;
    }
    EXPECT_EQ(threw, (std::array<bool, kCallers>{false, true, false, false}))
        << "round " << round;
  }
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
