// Quickstart: the 60-second tour of the library's public API.
//
//   1. 1-D complex FFT with a reusable plan (natural order in and out).
//   2. 3-D FFT: in place, bit-identical to the paper's fused-rotation
//      schedule.
//   3. Timing an FFT on a simulated XMT configuration.
//
// Build & run:  ./build/examples/quickstart
#include <complex>
#include <cstdio>
#include <vector>

#include "xfft/fftnd.hpp"
#include "xfft/plan1d.hpp"
#include "xsim/perf_model.hpp"

int main() {
  // --- 1. 1-D transform ------------------------------------------------
  const std::size_t n = 1024;
  std::vector<xfft::Cf> signal(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Two tones: bins 50 and 200.
    const double t = static_cast<double>(i);
    signal[i] = xfft::Cf(
        static_cast<float>(std::sin(2 * 3.14159265 * 50 * t / n) +
                           0.5 * std::sin(2 * 3.14159265 * 200 * t / n)),
        0.0F);
  }

  xfft::Plan1D<float> fwd(n, xfft::Direction::kForward);
  fwd.execute(std::span<xfft::Cf>(signal));

  std::size_t peak = 1;
  for (std::size_t k = 2; k < n / 2; ++k) {
    if (std::abs(signal[k]) > std::abs(signal[peak])) peak = k;
  }
  std::printf("1-D FFT of 1024 samples: strongest bin = %zu (expected 50)\n",
              peak);

  // --- 2. 3-D transform ------------------------------------------------
  const xfft::Dims3 dims{32, 32, 32};
  std::vector<xfft::Cf> volume(dims.total(), xfft::Cf{1.0F, 0.0F});
  xfft::PlanND<float> plan3d(dims, xfft::Direction::kForward);
  plan3d.execute(std::span<xfft::Cf>(volume));
  std::printf("3-D FFT of a constant 32^3 volume: X[0] = %.0f "
              "(expected %zu), |X[1]| = %.2g (expected 0)\n",
              volume[0].real(), dims.total(),
              static_cast<double>(std::abs(volume[1])));

  // --- 3. The same FFT on a simulated XMT machine ------------------------
  const auto cfg = xsim::preset_8k();
  const auto report =
      xsim::FftPerfModel(cfg).analyze_fft(xfft::Dims3{512, 512, 512});
  std::printf("512^3 FFT on XMT '%s': %.0f GFLOPS (5NlogN), %.1f ms, "
              "%zu breadth-first iterations\n",
              cfg.name.c_str(), report.standard_gflops,
              report.total_seconds * 1e3, report.phases.size());
  return 0;
}
