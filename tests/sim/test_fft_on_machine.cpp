// Tests for the full-FFT detailed-machine runner and the perf model's
// design-space claims (Section V-E).
#include <gtest/gtest.h>

#include "xsim/fft_on_machine.hpp"
#include "xsim/perf_model.hpp"
#include "xutil/check.hpp"

namespace {

xsim::MachineConfig mini() {
  xsim::MachineConfig c;
  c.name = "mini";
  c.clusters = 8;
  c.tcus = 8 * 32;
  c.memory_modules = 8;
  c.mot_levels = 4;
  c.butterfly_levels = 2;
  c.mms_per_dram_ctrl = 2;
  c.fpus_per_cluster = 4;
  c.cache_bytes_per_mm = 32 * 1024;
  c.validate();
  return c;
}

TEST(FftOnMachine, RunsAllPhasesOfA2DTransform) {
  xsim::Machine m(mini());
  const xfft::Dims3 dims{64, 64, 1};
  const auto r = xsim::run_fft_on_machine(m, dims);
  ASSERT_EQ(r.phases.size(), 4u);  // 2 dims x 2 radix-8 stages
  std::uint64_t sum = 0;
  for (const auto& ph : r.phases) {
    EXPECT_GT(ph.result.cycles, 0u);
    EXPECT_EQ(ph.result.threads, dims.total() / 8);
    sum += ph.result.cycles;
  }
  EXPECT_EQ(sum, r.total_cycles);
  EXPECT_GT(r.standard_gflops(dims, 3.3e9), 0.0);
}

TEST(FftOnMachine, TransformWithNoPhasesIsRefused) {
  xsim::Machine m(mini());
  EXPECT_THROW((void)xsim::run_fft_on_machine(m, xfft::Dims3{1, 1, 1}),
               xutil::Error);
}

TEST(FftOnMachine, WarmTwiddlesMakeLaterPhasesHitMore) {
  xsim::Machine m(mini());
  const xfft::Dims3 dims{64, 64, 1};
  const auto r = xsim::run_fft_on_machine(m, dims);
  // The first phase starts cold; later phases reuse resident lines.
  EXPECT_GT(r.phases.back().result.cache_hit_rate(),
            r.phases.front().result.cache_hit_rate());
}

TEST(FftOnMachine, BiggerMachineIsFaster) {
  auto small = mini();
  auto big = mini();
  big.name = "mini-x2";
  big.clusters = 16;
  big.tcus = 16 * 32;
  big.memory_modules = 16;
  big.mot_levels = 4;
  big.butterfly_levels = 4;
  big.validate();
  xsim::Machine ms(small);
  xsim::Machine mb(big);
  const xfft::Dims3 dims{64, 64, 1};
  const auto rs = xsim::run_fft_on_machine(ms, dims);
  const auto rb = xsim::run_fft_on_machine(mb, dims);
  EXPECT_LT(rb.total_cycles, rs.total_cycles);
}

// ---------------------------------------------------------------------------
// Section V-E design-space claims on the analytic model.
// ---------------------------------------------------------------------------

TEST(DesignSpace, DiminishingReturnsBeyondFourFpus) {
  // The paper chose 4 FPUs/cluster for 128k x4 because "beyond this
  // number, we observe diminishing returns."
  const xfft::Dims3 dims{512, 512, 512};
  double gflops[4];
  int i = 0;
  for (const unsigned fpus : {1u, 2u, 4u, 8u}) {
    auto cfg = xsim::preset_128k_x4();
    cfg.fpus_per_cluster = fpus;
    cfg.validate();
    gflops[i++] = xsim::FftPerfModel(cfg).analyze_fft(dims).standard_gflops;
  }
  const double gain_1_2 = gflops[1] / gflops[0] - 1.0;
  const double gain_2_4 = gflops[2] / gflops[1] - 1.0;
  const double gain_4_8 = gflops[3] / gflops[2] - 1.0;
  EXPECT_GT(gain_1_2, gain_2_4);
  EXPECT_GT(gain_2_4, gain_4_8);
  EXPECT_LT(gain_4_8, 0.10);  // beyond 4: under ten percent
  EXPECT_GT(gain_1_2, 0.20);  // the first doubling clearly pays
}

TEST(DesignSpace, DenserNocUnlocksThe128kMachine) {
  // The conclusion's forward-looking claim: a denser NoC (fewer butterfly
  // levels) alleviates the bottleneck.
  const xfft::Dims3 dims{512, 512, 512};
  auto feasible = xsim::preset_128k_x4();
  auto dense = feasible;
  dense.mot_levels = 24;
  dense.butterfly_levels = 0;
  dense.validate();
  const double g_f =
      xsim::FftPerfModel(feasible).analyze_fft(dims).standard_gflops;
  const double g_d =
      xsim::FftPerfModel(dense).analyze_fft(dims).standard_gflops;
  EXPECT_GT(g_d, 1.3 * g_f);
}

}  // namespace
