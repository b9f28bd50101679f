// Micro-benchmark: NoC throughput by topology and traffic pattern, measured
// on the cycle-level machine's interconnect: the first-principles check
// behind the analytic contention constants in xsim/calibration.hpp.
#include <cstdio>

#include "xsim/fft_traffic.hpp"
#include "xsim/machine.hpp"
#include "xutil/string_util.hpp"
#include "xutil/table.hpp"

namespace {

xsim::MachineConfig noc(const char* name, std::size_t clusters, unsigned mot,
                        unsigned bf) {
  xsim::MachineConfig c;
  c.name = name;
  c.clusters = clusters;
  c.tcus = clusters * 32;
  c.memory_modules = clusters;
  c.mot_levels = mot;
  c.butterfly_levels = bf;
  c.mms_per_dram_ctrl = 2;
  c.fpus_per_cluster = 1;
  c.cache_bytes_per_mm = 16 * 1024;
  c.validate();
  return c;
}

/// Requests per cycle per cluster (peak 1: one LSU port each) of a warm
/// run, and the deepest butterfly-link queue it saw.
struct NocRun {
  double efficiency = 0.0;
  std::uint64_t max_noc_queue = 0;
};

NocRun warm_noc_run(xsim::Machine& m, xnoc::TrafficPattern pattern,
                    std::size_t loads) {
  const std::uint64_t threads = 4 * m.config().tcus;
  const auto gen = xsim::make_noc_pattern_generator(m, pattern, loads);
  (void)m.run_parallel_section(threads, gen);
  const auto r = m.run_parallel_section(threads, gen, /*keep_cache=*/true);
  return {static_cast<double>(r.mem_requests) /
              (static_cast<double>(r.cycles) *
               static_cast<double>(m.config().clusters)),
          r.max_noc_queue};
}

}  // namespace

int main() {
  const xsim::MachineConfig configs[] = {
      noc("pure MoT 32", 32, 10, 0),
      noc("hybrid 32 (6 MoT + 4 BF)", 32, 6, 4),
      noc("hybrid 64 (6 MoT + 6 BF)", 64, 6, 6),
      noc("hybrid 128 (7 MoT + 7 BF)", 128, 7, 7),
  };
  xutil::Table t("NOC ORDERINGS ON THE CYCLE-LEVEL MACHINE (warm, requests/"
                 "cycle/cluster)");
  t.set_header({"Machine", "uniform", "transpose", "hot-spot",
                "max NoC queue (uniform)", "max NoC queue (transpose)"});
  for (const auto& cfg : configs) {
    xsim::Machine m(cfg);
    const NocRun uni = warm_noc_run(m, xnoc::TrafficPattern::kUniform, 64);
    const NocRun rot = warm_noc_run(m, xnoc::TrafficPattern::kTranspose, 64);
    // One module serves the whole hot spot: 4 loads a thread already take
    // 16 x tcus cycles.
    const NocRun hot = warm_noc_run(m, xnoc::TrafficPattern::kHotSpot, 4);
    t.add_row({cfg.name, xutil::format_fixed(uni.efficiency, 3),
               xutil::format_fixed(rot.efficiency, 3),
               xutil::format_fixed(hot.efficiency, 4),
               std::to_string(uni.max_noc_queue),
               std::to_string(rot.max_noc_queue)});
  }
  t.add_note("4 threads per TCU, 64 loads each (hot-spot: 4), to 8 "
             "cache-resident lines per module; transpose shifts its window "
             "every " +
             std::to_string(xsim::kNocTransposeEpoch) + " loads");
  t.add_note("transpose bursts cost throughput on a pure MoT too (fan-in "
             "at the module window), so kNocTransposePerLevel stays a "
             "calibration to Table IV; hot-spot is one module's rate, "
             "1/clusters");
  std::fputs(t.render().c_str(), stdout);
  return 0;
}
