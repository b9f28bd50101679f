#include "xcheck/differential.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "xfault/fault_plan.hpp"
#include "xfft/xmt_kernel.hpp"
#include "xsim/calibration.hpp"
#include "xsim/fft_traffic.hpp"
#include "xsim/machine.hpp"
#include "xsim/perf_model.hpp"
#include "xutil/check.hpp"

namespace xcheck {

namespace {

/// Stable float formatting for deterministic reports.
std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

}  // namespace

xsim::MachineConfig TrialCase::to_config() const {
  xsim::MachineConfig c;
  c.name = describe();
  c.clusters = clusters;
  c.tcus = clusters * c.tcus_per_cluster;
  c.memory_modules = modules;
  c.mms_per_dram_ctrl = mms_per_ctrl;
  c.butterfly_levels = butterfly_levels;
  c.fpus_per_cluster = fpus;
  c.cache_bytes_per_mm = cache_kb * 1024;
  const auto lg = [](std::uint64_t v) {
    unsigned n = 0;
    while (v > 1) {
      v >>= 1;
      ++n;
    }
    return n;
  };
  const unsigned full = lg(clusters) + lg(modules);
  c.mot_levels = butterfly_levels == 0 ? full : full - butterfly_levels;
  return c;
}

std::string TrialCase::describe() const {
  std::string s = "xc-s" + std::to_string(seed) + "-c" +
                  std::to_string(clusters) + "m" + std::to_string(modules) +
                  "g" + std::to_string(mms_per_ctrl) + "b" +
                  std::to_string(butterfly_levels) + "f" +
                  std::to_string(fpus) + "k" + std::to_string(cache_kb) +
                  "-" + std::to_string(nx) + "x" + std::to_string(ny) + "x" +
                  std::to_string(nz) + "r" + std::to_string(radix);
  if (!faults.empty()) s += "-F[" + faults + "]";
  if (!phase_mask.empty()) {
    s += "-p";
    for (std::size_t i = 0; i < phase_mask.size(); ++i) {
      if (i) s += ',';
      s += std::to_string(phase_mask[i]);
    }
  }
  return s;
}

TrialCase draw_trial(xutil::Pcg32& rng, std::uint64_t seed) {
  TrialCase t;
  t.seed = seed;
  const unsigned lgc = 1 + rng.next_below(3);  // 2..8 clusters
  t.clusters = 1ull << lgc;
  const int mshift = static_cast<int>(rng.next_below(3)) - 1;  // C/2..2C
  const int lgm = std::max(1, static_cast<int>(lgc) + mshift);
  t.modules = 1ull << lgm;
  t.mms_per_ctrl = (t.modules >= 2 && rng.next_below(2) == 0) ? 2 : 1;
  // Butterfly depth is capped by log2(clusters): the machine's router
  // permutes that many bits of a cluster-spanning link index.
  const unsigned bf = rng.next_below(std::min(3u, lgc + 1));
  t.butterfly_levels = bf;
  t.fpus = 1u << rng.next_below(3);            // 1/2/4
  t.cache_kb = 1ull << (1 + rng.next_below(5));  // 2..32 KB per module
  t.nx = 1ull << (4 + rng.next_below(4));        // 16..128
  t.ny = rng.next_below(2) ? (1ull << (4 + rng.next_below(2))) : 1;  // 1/16/32
  if (t.ny > 1 && rng.next_below(4) == 0) t.nz = 16;
  if (t.nx * t.ny * t.nz > 8192) t.nz = 1;
  if (t.nx * t.ny * t.nz > 8192) t.ny = 1;
  t.radix = rng.next_below(4) == 0 ? (rng.next_below(2) ? 4u : 2u) : 8u;

  // Half the trials run degraded: one directive, parameters sized so that
  // the machine always keeps survivors (materialize() rejects extinction).
  if (rng.next_below(2) == 0) {
    const auto channels = t.modules / t.mms_per_ctrl;
    switch (rng.next_below(4)) {
      case 0:
        t.faults = "tcu:kill:0.1";
        break;
      case 1:
        t.faults = t.clusters > 1 ? "cluster:kill:1" : "tcu:kill:0.25";
        break;
      case 2:
        t.faults = channels > 1 ? "dram:chan:1" : "tcu:kill:0.1";
        break;
      default:
        t.faults = bf > 0 ? "noc:link:degrade:2x" : "tcu:kill:0.25";
        break;
    }
  }
  return t;
}

std::string PhaseCheck::reason() const {
  if (pass()) return "";
  std::string r = name + ": ";
  if (!cycles_low_ok) {
    r += "machine " + fmt(machine_cycles) + " cycles below lower bracket " +
         fmt(best_cycles) + " (model " + fmt(model_cycles) + ")";
  } else if (!cycles_high_ok) {
    r += "machine " + fmt(machine_cycles) + " cycles above upper bracket " +
         fmt(worst_cycles) + " (model " + fmt(model_cycles) + ")";
  } else if (!dram_ok) {
    r += "machine DRAM " + fmt(machine_dram_bytes) +
         " B exceeds conservation limit " + fmt(max_dram_bytes) + " B";
  } else {
    r += "model bound '" + model_bound + "' vs machine top resource '" +
         machine_top + "'";
  }
  return r;
}

bool TrialResult::pass() const {
  if (!error.empty()) return false;
  return std::all_of(phases.begin(), phases.end(),
                     [](const PhaseCheck& p) { return p.pass(); });
}

std::string TrialResult::first_reason() const {
  if (!error.empty()) return error;
  for (const auto& p : phases) {
    if (!p.pass()) return p.reason();
  }
  return "";
}

TrialResult run_trial(const TrialCase& tcase, const Envelope& env,
                      const DifferentialOptions& opt) {
  TrialResult res;
  res.tcase = tcase;
  try {
    xsim::MachineConfig cfg = tcase.to_config();
    cfg.validate();
    const auto all_phases = xfft::build_fft_phases(tcase.dims(), tcase.radix);
    std::vector<std::size_t> selected = tcase.phase_mask;
    if (selected.empty()) {
      for (std::size_t i = 0; i < all_phases.size(); ++i) selected.push_back(i);
    }
    for (const std::size_t i : selected) {
      XU_CHECK_MSG(i < all_phases.size(),
                   "phase index " << i << " out of range (list has "
                                  << all_phases.size() << ")");
    }

    xsim::Machine machine(cfg);
    xsim::FaultDerating derate;
    if (!tcase.faults.empty()) {
      const auto plan = xfault::FaultPlan::parse(tcase.faults, tcase.seed);
      const auto map = xfault::materialize(plan, xsim::fault_shape(cfg));
      machine.set_faults(map);
      derate = xsim::FaultDerating::from_fault_map(map);
    }
    const xsim::FftPerfModel model(cfg, derate);
    const double scale = opt.calibration_scale;

    bool first = true;
    for (const std::size_t idx : selected) {
      const xfft::KernelPhase& ph = all_phases[idx];
      const auto gen =
          xsim::make_fft_phase_generator(cfg, tcase.dims(), ph, {});
      const auto mr =
          machine.run_parallel_section(ph.threads, gen, /*keep_cache=*/!first);
      first = false;
      XU_CHECK_MSG(!mr.truncated, ph.name << ": machine run truncated by the "
                                             "cycle-limit watchdog");

      xsim::PhaseTiming t = model.time_phase(ph);
      PhaseCheck c;
      c.name = ph.name;
      c.index = idx;
      c.machine_cycles = static_cast<double>(mr.cycles);
      c.model_cycles =
          (t.cycles - xsim::cal::kSpawnOverheadCycles) * scale +
          xsim::cal::kSpawnOverheadCycles;

      // The bracket, from the model's own (canary-scaled) components.
      const double cc = t.compute_cycles * scale;
      const double ic = t.issue_cycles * scale;
      const double lc = t.lsu_cycles * scale;
      const double nc = t.noc_cycles * scale;
      const double dc = t.dram_cycles * scale;
      const double accesses =
          static_cast<double>(ph.data_word_reads + ph.data_word_writes +
                              ph.twiddle_word_reads) /
          2.0;  // one 8 B request per two 4 B words
      const double live_channels =
          static_cast<double>(cfg.dram_channels()) * derate.dram;
      const double worst_dram =
          accesses *
          static_cast<double>(xsim::kDramCyclesPerLine +
                              xsim::kDramRowMissPenalty) /
          live_channels * scale;
      // Placement concentration: the prefix-sum allocator hands threads to
      // TCUs in index order, so a phase with fewer threads than TCUs packs
      // into the first ceil(threads/32) clusters and serializes on their
      // FPUs and LSU ports while the rest of the machine idles. The model
      // spreads work over every live cluster; the worst bracket must not.
      const double threads = static_cast<double>(ph.threads);
      const double live_cl = std::max(
          1.0, static_cast<double>(cfg.clusters) * derate.compute);
      const double used_cl = std::max(
          1.0, std::min(live_cl,
                        std::ceil(threads / static_cast<double>(
                                                cfg.tcus_per_cluster))));
      const double cluster_conc = live_cl / used_cl;
      const double live_tcus = std::max(
          1.0, static_cast<double>(cfg.tcus) * derate.issue);
      const double issue_conc = std::max(1.0, live_tcus / threads);
      c.best_cycles = std::max({cc, ic, lc});
      c.worst_cycles = cc * cluster_conc + ic * issue_conc + lc * cluster_conc +
                       nc + worst_dram + xsim::cal::kSpawnOverheadCycles;

      c.cycles_low_ok = c.machine_cycles + env.floor_cycles >=
                        env.lower_margin * c.best_cycles;
      c.cycles_high_ok = c.machine_cycles <=
                         env.upper_margin * c.worst_cycles + env.floor_cycles;

      // DRAM conservation: at most one full line per 8 B access.
      c.machine_dram_bytes = static_cast<double>(mr.dram_line_fills) *
                             static_cast<double>(cfg.cache_line_bytes);
      c.model_dram_bytes = t.dram_bytes_nominal;
      c.max_dram_bytes =
          accesses * static_cast<double>(cfg.cache_line_bytes);
      c.dram_ok =
          c.machine_dram_bytes <= c.max_dram_bytes * env.line_amp_slack;

      // Bound classification, dominance-gated (see tolerances.hpp).
      c.model_bound = xsim::bound_name(t.bound);
      c.machine_top =
          mr.dram_utilization >= mr.fpu_utilization &&
                  mr.dram_utilization >= mr.lsu_utilization
              ? "dram"
              : (mr.fpu_utilization >= mr.lsu_utilization ? "fpu" : "lsu");
      const bool classifiable = t.bound == xsim::Bound::kCompute ||
                                t.bound == xsim::Bound::kLsu ||
                                t.bound == xsim::Bound::kDram;
      if (classifiable) {
        double own = 0.0;
        std::string expect;
        // Competing components at their *worst case* (DRAM can amplify to
        // the all-miss rate; the rest are already worst-case throughputs).
        double others = std::max(nc, xsim::cal::kSpawnOverheadCycles * scale);
        if (t.bound == xsim::Bound::kCompute) {
          own = cc;
          expect = "fpu";
          others = std::max({others, ic * issue_conc, lc * cluster_conc,
                             worst_dram});
        } else if (t.bound == xsim::Bound::kLsu) {
          own = lc;
          expect = "lsu";
          others = std::max({others, ic * issue_conc, cc * cluster_conc,
                             worst_dram});
        } else {
          own = dc;
          expect = "dram";
          others = std::max({others, ic * issue_conc, cc * cluster_conc,
                             lc * cluster_conc});
        }
        const bool absorbed = t.bound == xsim::Bound::kDram &&
                              mr.cache_hit_rate() > env.bound_hit_rate_max;
        if (own >= env.bound_dominance * others && !absorbed) {
          c.bound_checked = true;
          c.bound_ok = c.machine_top == expect;
        }
      }
      res.phases.push_back(std::move(c));
    }
  } catch (const xutil::Error& e) {
    res.error = e.what();
  }
  return res;
}

std::string render_trial(const TrialResult& result) {
  std::string out = "trial " + result.tcase.describe() + "\n";
  if (!result.error.empty()) {
    out += "  ERROR: " + result.error + "\n";
    return out;
  }
  for (const auto& p : result.phases) {
    out += "  " + p.name + ": machine=" + fmt(p.machine_cycles) +
           " model=" + fmt(p.model_cycles) + " bracket=[" +
           fmt(p.best_cycles) + "," + fmt(p.worst_cycles) + "] dram=" +
           fmt(p.machine_dram_bytes) + "/" + fmt(p.max_dram_bytes) +
           "B bound=" + p.model_bound + "/" + p.machine_top +
           (p.bound_checked ? "" : "*") + (p.pass() ? " ok" : " MISMATCH") +
           "\n";
    if (!p.pass()) out += "    " + p.reason() + "\n";
  }
  out += result.pass() ? "  => PASS\n" : "  => FAIL\n";
  return out;
}

}  // namespace xcheck
