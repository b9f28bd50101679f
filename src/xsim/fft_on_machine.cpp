#include "xsim/fft_on_machine.hpp"

namespace xsim {

DetailedFftResult run_fft_on_machine(Machine& machine, xfft::Dims3 dims,
                                     unsigned max_radix,
                                     FftTrafficOptions traffic) {
  DetailedFftResult out;
  const auto phases = xfft::build_fft_phases(dims, max_radix);
  XU_CHECK_MSG(!phases.empty(), "no phases to simulate");
  bool first = true;
  for (const auto& ph : phases) {
    const auto gen =
        make_fft_phase_generator(machine.config(), dims, ph, traffic);
    // First phase starts cold; later iterations inherit whatever the
    // previous pass left resident (twiddles, tail of the data stream).
    const auto r =
        machine.run_parallel_section(ph.threads, gen, /*keep_cache=*/!first);
    first = false;
    out.total_cycles += r.cycles;
    const bool truncated = r.truncated;
    out.phases.push_back({ph.name, r});
    if (truncated) {
      // Later phases would start from an inconsistent machine state; keep
      // the partial telemetry and stop.
      out.truncated = true;
      break;
    }
  }
  return out;
}

}  // namespace xsim
