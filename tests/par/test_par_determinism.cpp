// End-to-end determinism across thread counts: the same FFT and the same
// fuzzing campaign must produce byte-identical results on a 1-, 2- and
// 8-thread global pool. This is the contract that lets --threads be a pure
// performance knob everywhere in the repository. Also: one cached plan
// executed from several threads at once gives each caller the bytes of a
// single-thread run.
#include <cstring>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "xcheck/fuzzer.hpp"
#include "xfft/fftnd.hpp"
#include "xfft/plan_cache.hpp"
#include "xpar/pool.hpp"
#include "xutil/rng.hpp"

namespace {

std::vector<xfft::Cf> random_signal(std::size_t n, std::uint64_t seed) {
  std::vector<xfft::Cf> data(n);
  xutil::Pcg32 rng(seed);
  for (auto& v : data) {
    v = xfft::Cf(rng.next_signed_unit(), rng.next_signed_unit());
  }
  return data;
}

class GlobalPoolSweep : public ::testing::Test {
 protected:
  // Every test restores the default pool so suites sharing the process are
  // unaffected by the sweep.
  void TearDown() override { xpar::ThreadPool::set_global_threads(0); }
};

TEST_F(GlobalPoolSweep, FftNdBytesIdenticalAt1_2_8Threads) {
  // {40,24,18}: the last pencil block holds 8 of 16 lanes, and the 24- and
  // 18-point axes run radix-3 stages through the generic core.
  // {136,256,4}: each row of 256-point y pencils splits into work items of
  // 128 and 8 pencils.
  for (const xfft::Dims3 dims :
       {xfft::Dims3{32, 16, 8}, xfft::Dims3{40, 24, 18},
        xfft::Dims3{136, 256, 4}}) {
    const auto input = random_signal(dims.total(), 7);
    const xfft::PlanND<float> plan(dims, xfft::Direction::kForward);
    std::vector<std::vector<xfft::Cf>> outs;
    for (const unsigned threads : {1u, 2u, 8u}) {
      xpar::ThreadPool::set_global_threads(threads);
      auto data = input;
      plan.execute(std::span<xfft::Cf>(data));
      outs.push_back(std::move(data));
    }
    for (std::size_t i = 1; i < outs.size(); ++i) {
      ASSERT_EQ(outs[0].size(), outs[i].size());
      EXPECT_EQ(std::memcmp(outs[0].data(), outs[i].data(),
                            outs[0].size() * sizeof(xfft::Cf)),
                0)
          << dims.nx << "x" << dims.ny << "x" << dims.nz;
    }
  }
}

TEST_F(GlobalPoolSweep, InverseFftBytesIdenticalAcrossThreadCounts) {
  const xfft::Dims3 dims{64, 8, 4};
  const auto input = random_signal(dims.total(), 21);
  const xfft::PlanND<float> plan(dims, xfft::Direction::kInverse);
  std::vector<std::vector<xfft::Cf>> outs;
  for (const unsigned threads : {1u, 8u}) {
    xpar::ThreadPool::set_global_threads(threads);
    auto data = input;
    plan.execute(std::span<xfft::Cf>(data));
    outs.push_back(std::move(data));
  }
  EXPECT_EQ(std::memcmp(outs[0].data(), outs[1].data(),
                        outs[0].size() * sizeof(xfft::Cf)),
            0);
}

TEST_F(GlobalPoolSweep, FuzzReportByteIdenticalAcrossThreadCounts) {
  xcheck::FuzzOptions opt;
  opt.seed = 3;
  opt.trials = 12;
  std::vector<std::string> reports;
  for (const unsigned threads : {1u, 2u, 8u}) {
    xpar::ThreadPool::set_global_threads(threads);
    reports.push_back(xcheck::run_fuzz(opt).report);
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
}

TEST(CachedPlan, FourThreadsExecuteOnePlanBytewise) {
  // PlanCache hands the same instance to every caller, so execute() must be
  // reentrant. Each thread gets its own input, so a workspace shared
  // between callers would mix transforms rather than rewrite equal values.
  constexpr int kThreads = 4;
  constexpr int kTrials = 5;
  const xfft::Dims3 dims{32, 32, 32};
  const auto plan =
      xfft::PlanCache::global().plan_nd(dims, xfft::Direction::kForward);
  xfft::ExecOptions serial_exec;
  serial_exec.serial = true;
  std::vector<std::vector<xfft::Cf>> inputs;
  std::vector<std::vector<xfft::Cf>> wants;
  for (int t = 0; t < kThreads; ++t) {
    inputs.push_back(random_signal(dims.total(), 100 + t));
    wants.push_back(inputs.back());
    plan->execute(std::span<xfft::Cf>(wants.back()), serial_exec);
  }
  for (const bool serial : {false, true}) {
    xfft::ExecOptions exec;
    exec.serial = serial;
    for (int trial = 0; trial < kTrials; ++trial) {
      auto outs = inputs;
      std::latch start(kThreads);
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          start.arrive_and_wait();
          plan->execute(std::span<xfft::Cf>(outs[t]), exec);
        });
      }
      for (auto& th : threads) th.join();
      for (int t = 0; t < kThreads; ++t) {
        EXPECT_EQ(std::memcmp(outs[t].data(), wants[t].data(),
                              outs[t].size() * sizeof(xfft::Cf)),
                  0)
            << "serial=" << serial << " trial=" << trial << " thread=" << t;
      }
    }
  }
}

}  // namespace
