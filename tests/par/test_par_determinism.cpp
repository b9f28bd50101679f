// End-to-end determinism across thread counts: the same FFT and the same
// fuzzing campaign must produce byte-identical results on a 1-, 2- and
// 8-thread global pool. This is the contract that lets --threads be a pure
// performance knob everywhere in the repository. Also: one cached plan
// executed from several threads at once gives each caller the bytes of a
// single-thread run.
#include <cstring>
#include <iterator>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "xcheck/fuzzer.hpp"
#include "xfault/resilient_fft.hpp"
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

// The resilient_fft sweep: every shape at every flip rate, each hash
// folding seeds 1 and 2 in both directions.
constexpr xfft::Dims3 kSweepShapes[] = {
    {1024, 1, 1},  {4096, 1, 1}, {64, 64, 1},   {128, 128, 1},
    {32, 32, 32},  {24, 6, 5},   {40, 24, 18},  {136, 256, 4}};
constexpr double kSweepRates[] = {0.0, 1e-4, 1e-3, 1e-2};

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
  return h;
}

struct SweepHashes {
  std::vector<std::uint64_t> pinned;  // reports, and outputs without garbage
  std::vector<std::uint64_t> bytes;   // reports and every output byte
};

/// One FNV-1a hash per (shape, rate) of kSweep*. `pinned` leaves out the
/// output of a transform whose report has retries_exhausted > 0: the values
/// of a row whose retries ran out, and of every row it feeds, are
/// unspecified (Plan1D), and they differ between the stage-loop builds and
/// between compilers.
SweepHashes resilient_sweep_hashes() {
  SweepHashes out;
  for (const xfft::Dims3 dims : kSweepShapes) {
    const auto input = random_signal(dims.total(), 7);
    for (const double rate : kSweepRates) {
      std::uint64_t pinned = 0xcbf29ce484222325ULL;
      std::uint64_t bytes = pinned;
      for (const std::uint64_t seed : {1u, 2u}) {
        for (const auto dir :
             {xfft::Direction::kForward, xfft::Direction::kInverse}) {
          auto data = input;
          xfault::ResilienceOptions opt;
          opt.soft_flip_rate = rate;
          opt.seed = seed;
          const auto r = xfault::resilient_fft(std::span<xfft::Cf>(data),
                                               dims, dir, opt);
          const std::size_t n = data.size() * sizeof(xfft::Cf);
          if (r.ok()) pinned = fnv1a(pinned, data.data(), n);
          bytes = fnv1a(bytes, data.data(), n);
          const std::uint64_t fields[] = {r.rows_computed, r.flips_injected,
                                          r.errors_detected, r.rows_recomputed,
                                          r.retries_exhausted};
          pinned = fnv1a(pinned, fields, sizeof(fields));
          bytes = fnv1a(bytes, fields, sizeof(fields));
        }
      }
      out.pinned.push_back(pinned);
      out.bytes.push_back(bytes);
    }
  }
  return out;
}

TEST_F(GlobalPoolSweep, ResilientFftMatchesRecordedSweepAt1_2_8Threads) {
  // Recorded from the serial row-and-rotate implementation that the
  // in-pass checker replaced. Every output byte must also be the same at
  // every thread count.
  constexpr std::uint64_t kRecorded[] = {
      // 1024: rates 0, 1e-4, 1e-3, 1e-2
      0x372cbe67c63e99c1, 0x372cbe67c63e99c1,
      0x372cbe67c63e99c1, 0x3646f811dedf2e45,
      // 4096
      0x49e4a6ed34f3b695, 0x49e4a6ed34f3b695,
      0x38fd1d5db6872345, 0x6b20b0310fb64ca5,
      // 64x64
      0xab9e6949802ac599, 0xab9e6949802ac599,
      0x369fa00d700a26a9, 0x8d7daa34f4dbfe89,
      // 128x128
      0x67012e2f30042ec5, 0x73d1e13e1629151d,
      0xded10cfa5cdc8949, 0x8c4fe68b667c83c2,
      // 32x32x32
      0x6d25a9a3abfb92cd, 0x5728b116dae1d341,
      0x11cb6d2bcf97a841, 0x3cccae0cd02fc10c,
      // 24x6x5
      0xce249af408071721, 0xce249af408071721,
      0x96cc4a4b30fb2e39, 0x35e4823651f76d4f,
      // 40x24x18
      0x22ed020c94f181c5, 0x829dfbd20d9f8f55,
      0x4ebae97870c6fc45, 0x3c4585d87b21ff17,
      // 136x256x4
      0x4853bdb9bcaf0a2d, 0xa4f4bda5f62167b9,
      0xc5a58ddbc05cf83d, 0x80e27cd5a03e9a62,
  };
  std::vector<std::uint64_t> bytes_at_1;
  for (const unsigned threads : {1u, 2u, 8u}) {
    xpar::ThreadPool::set_global_threads(threads);
    const SweepHashes got = resilient_sweep_hashes();
    ASSERT_EQ(got.pinned.size(), std::size(kRecorded));
    for (std::size_t i = 0; i < got.pinned.size(); ++i) {
      const xfft::Dims3 d = kSweepShapes[i / std::size(kSweepRates)];
      EXPECT_EQ(got.pinned[i], kRecorded[i])
          << d.nx << "x" << d.ny << "x" << d.nz << " rate "
          << kSweepRates[i % std::size(kSweepRates)] << ", " << threads
          << " threads, got 0x" << std::hex << got.pinned[i];
    }
    if (threads == 1) bytes_at_1 = got.bytes;
    EXPECT_EQ(got.bytes, bytes_at_1) << threads << " threads";
  }
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
