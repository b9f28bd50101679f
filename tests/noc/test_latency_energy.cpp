// Tests for the energy accounting helpers.
#include <gtest/gtest.h>

#include "xphys/energy.hpp"
#include "xsim/perf_model.hpp"

namespace {

TEST(Energy, XmtVsEdisonPerTransform) {
  // The paper's power story in joules: XMT 128k x4 does a 512^3 FFT in
  // ~1 ms at 7 KW (~7 J); Edison does a 1024^3 in ~12 ms at 2.5 MW
  // (~30 kJ) — three and a half orders of magnitude per-FLOP difference.
  const auto xmt = xsim::FftPerfModel(xsim::preset_128k_x4())
                       .analyze_fft({512, 512, 512});
  const auto e_xmt = xphys::energy_per_run(
      7000.0, xmt.total_seconds, xfft::standard_fft_flops(1ull << 27));
  const auto e_edison = xphys::energy_per_run(
      2.5e6, 161.1e9 / 13.6e12, xfft::standard_fft_flops(1ull << 30));
  EXPECT_LT(e_xmt.joules_per_run, 10.0);
  EXPECT_GT(e_edison.joules_per_run, 10000.0);
  EXPECT_GT(e_edison.pj_per_flop / e_xmt.pj_per_flop, 100.0);
  EXPECT_GT(e_xmt.runs_per_kwh, 100000.0);
}

}  // namespace
