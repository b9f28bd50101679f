// sim_machine: the cycle-level Machine runs every phase of the radix-8
// FFT of 256x256 on the 16-cluster machine (the configuration of the CLI's
// `machine --clusters 16` and the crash-resume test), and FftPerfModel is
// applied to the same phases. The simulator is single-threaded host code no
// other workload touches; a simulator-only speed-up must leave every
// simulated statistic identical, which each run checks.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"
#include "xfft/xmt_kernel.hpp"
#include "xsim/config.hpp"
#include "xsim/fft_traffic.hpp"
#include "xsim/machine.hpp"
#include "xsim/perf_model.hpp"

namespace perfbench {

namespace {

constexpr xfft::Dims3 kSimDims{256, 256, 1};
/// Cycles of the first phase simulated (and discarded) as set-up warm-up.
constexpr std::uint64_t kWarmupCycles = 20'000;

/// 16 clusters x 32 TCUs, 16 memory modules on an all-MoT network, two
/// modules per DRAM controller, 32 KiB per module.
xsim::MachineConfig sim_config() {
  xsim::MachineConfig c;
  c.name = "custom-16";
  c.clusters = 16;
  c.tcus = 16 * 32;
  c.memory_modules = 16;
  c.butterfly_levels = 0;
  c.mot_levels = 8;
  c.mms_per_dram_ctrl = 2;
  c.fpus_per_cluster = 1;
  c.cache_bytes_per_mm = 32 * 1024;
  c.validate();
  return c;
}

std::string metric_safe(std::string s) {
  std::replace(s.begin(), s.end(), '+', '_');
  return s;
}

}  // namespace

struct SimHarness::Impl {
  xsim::MachineConfig config = sim_config();
  xsim::Machine machine{config};
  std::vector<xfft::KernelPhase> phases = xfft::build_fft_phases(kSimDims, 8);
  std::vector<xsim::ProgramGenerator> gens;
  std::vector<double> analytic_cycles;
};

SimHarness::SimHarness() : impl_(std::make_unique<Impl>()) {
  for (const auto& ph : impl_->phases) {
    impl_->gens.push_back(
        xsim::make_fft_phase_generator(impl_->config, kSimDims, ph));
  }
  const auto model = xsim::FftPerfModel(impl_->config)
                         .analyze(kSimDims, impl_->phases);
  for (const auto& pt : model.phases) {
    impl_->analytic_cycles.push_back(pt.cycles);
  }
  // Warm-up slice; the next run's first section discards it and starts
  // with cold modelled caches, so it cannot change any statistic.
  impl_->machine.begin_section(impl_->phases.front().threads,
                               impl_->gens.front());
  (void)impl_->machine.advance_section(kWarmupCycles);
}

SimHarness::~SimHarness() = default;

SimRun SimHarness::run(Tracer& tracer, bool traced) {
  SimRun out;
  const auto root = traced ? tracer.begin("sim.fft") : Tracer::kNoParent;
  char buf[512];
  for (std::size_t i = 0; i < impl_->phases.size(); ++i) {
    const auto& ph = impl_->phases[i];
    const auto t0 = Clock::now();
    const auto r = impl_->machine.run_parallel_section(
        ph.threads, impl_->gens[i], /*keep_cache=*/i != 0);
    const auto t1 = Clock::now();
    if (traced) tracer.record("xsim.Machine.section", t0, t1, root);
    SimRun::Phase p;
    p.name = metric_safe(ph.name);
    p.cycles = r.cycles;
    p.mem_requests = r.mem_requests;
    p.cache_hits = r.cache_hits;
    p.dram_utilization = r.dram_utilization;
    p.fpu_utilization = r.fpu_utilization;
    p.host_seconds = seconds_between(t0, t1);
    p.analytic_cycles = impl_->analytic_cycles[i];
    out.phases.push_back(p);
    out.total_cycles += r.cycles;
    out.mem_requests += r.mem_requests;
    out.host_seconds += p.host_seconds;
    out.truncated = out.truncated || r.truncated;
    std::snprintf(
        buf, sizeof(buf),
        "%s:%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%a,%a,"
        "%a,%d;",
        p.name.c_str(), static_cast<unsigned long long>(r.cycles),
        static_cast<unsigned long long>(r.threads),
        static_cast<unsigned long long>(r.threads_completed),
        static_cast<unsigned long long>(r.mem_requests),
        static_cast<unsigned long long>(r.cache_hits),
        static_cast<unsigned long long>(r.dram_line_fills),
        static_cast<unsigned long long>(r.dram_row_hits),
        static_cast<unsigned long long>(r.fp_ops),
        static_cast<unsigned long long>(r.int_ops),
        static_cast<unsigned long long>(r.ps_allocations),
        static_cast<unsigned long long>(r.max_mm_queue),
        static_cast<unsigned long long>(r.max_noc_queue), r.fpu_utilization,
        r.lsu_utilization, r.dram_utilization, r.truncated ? 1 : 0);
    out.fingerprint += buf;
    if (r.truncated) break;
  }
  tracer.end(root);
  return out;
}

void report_sim_layers(const SimRun& run, Report& report) {
  std::uint64_t hits = 0;
  double dram = 0.0;
  double fpu = 0.0;
  for (const auto& p : run.phases) {
    report.set("xsim.phase_cycles." + p.name, static_cast<double>(p.cycles),
               "cycles");
    report.set("xsim.host_ns_per_req." + p.name,
               p.mem_requests == 0
                   ? 0.0
                   : p.host_seconds * 1e9 / static_cast<double>(p.mem_requests),
               "ns");
    report.set("xsim.detailed_over_analytic." + p.name,
               p.analytic_cycles > 0.0
                   ? static_cast<double>(p.cycles) / p.analytic_cycles
                   : 0.0,
               "ratio");
    hits += p.cache_hits;
    dram += p.dram_utilization * static_cast<double>(p.cycles);
    fpu += p.fpu_utilization * static_cast<double>(p.cycles);
  }
  const double cycles = static_cast<double>(run.total_cycles);
  report.set("xsim.cycles", cycles, "cycles");
  report.set("xsim.mem_requests", static_cast<double>(run.mem_requests),
             "count");
  report.set("xsim.cache_hit_rate",
             run.mem_requests == 0 ? 0.0
                                   : static_cast<double>(hits) /
                                         static_cast<double>(run.mem_requests),
             "ratio");
  report.set("xsim.dram_utilization", cycles > 0 ? dram / cycles : 0.0,
             "ratio");
  report.set("xsim.fpu_utilization", cycles > 0 ? fpu / cycles : 0.0,
             "ratio");
}

Report run_sim(const RunOptions& opt, Tracer& tracer) {
  Report rep;
  // One independent simulation per core, as a design-space sweep runs
  // them: each Machine is single-threaded, and the aggregate averages the
  // host's per-core speed noise instead of riding one core's.
  const unsigned instances = std::max(1u, opt.nproc);
  rep.pool_lanes = instances;
  std::vector<double> setup_times;
  std::vector<std::unique_ptr<SimHarness>> sims;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = r == 0 ? process_start() : Clock::now();
    sims.clear();
    for (unsigned i = 0; i < instances; ++i) {
      sims.push_back(std::make_unique<SimHarness>());
    }
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }
  rep.set("setup_s", median(setup_times), "s");

  struct Lane {
    std::vector<SimRun> runs;
    std::vector<bool> traced;
  };
  std::vector<Lane> lanes(instances);
  const auto t_start = Clock::now();
  std::vector<std::exception_ptr> errors(instances);
  const auto body = [&](unsigned lane) {
    try {
      while (seconds_between(t_start, Clock::now()) < opt.seconds) {
        const bool traced =
            tracer.enabled() &&
            seconds_between(t_start, Clock::now()) >= opt.seconds / 2;
        lanes[lane].runs.push_back(sims[lane]->run(tracer, traced));
        lanes[lane].traced.push_back(traced);
      }
    } catch (...) {
      errors[lane] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < instances; ++i) threads.emplace_back(body, i);
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  const SimRun& first = lanes[0].runs.front();
  std::vector<double> ms;
  std::vector<double> ms_first;
  std::vector<double> ms_second;
  double rate = 0.0;
  for (const Lane& lane : lanes) {
    std::uint64_t reqs = 0;
    double host = 0.0;
    for (std::size_t k = 0; k < lane.runs.size(); ++k) {
      const SimRun& r = lane.runs[k];
      ++rep.attempted;
      if (r.truncated || r.total_cycles == 0 ||
          r.fingerprint != first.fingerprint) {
        ++rep.failed;
      }
      ms.push_back(r.host_seconds * 1e3);
      (lane.traced[k] ? ms_second : ms_first).push_back(r.host_seconds * 1e3);
      reqs += r.mem_requests;
      host += r.host_seconds;
    }
    rate += static_cast<double>(reqs) / host;
  }

  const Tail tl = tail(ms);
  rep.set("latency.p50_ms", median(ms), "ms");
  rep.set("latency.tail_ms", tl.value, "ms");
  rep.set("throughput_per_s", rate, "1/s");
  if (!ms_first.empty() && !ms_second.empty()) {
    rep.set("trace.overhead_p50_ms", median(ms_second) - median(ms_first),
            "ms");
  }
  // Layer numbers: exact counts from the first run, host time per phase
  // as the median over every run.
  SimRun layers = first;
  for (std::size_t i = 0; i < layers.phases.size(); ++i) {
    std::vector<double> host;
    for (const Lane& lane : lanes) {
      for (const SimRun& r : lane.runs) {
        if (i < r.phases.size()) host.push_back(r.phases[i].host_seconds);
      }
    }
    layers.phases[i].host_seconds = median(host);
  }
  report_sim_layers(layers, rep);
  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  for (const char ch : first.fingerprint) {
    fnv = (fnv ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
  }
  std::printf("sim: %llu full-FFT simulations of 256x256 on custom-16 over %u"
              " concurrent instances, %llu mismatched; statistics"
              " fingerprint %016llx\n",
              static_cast<unsigned long long>(rep.attempted), instances,
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(fnv));
  std::printf("sim_cycles %llu cycles\nsim_mreq_per_s %.4f M req/s (sum over"
              " instances)\nsim_p50_ms %.4f ms per full FFT\n"
              "sim_tail_ms %.4f ms (p%g of %zu)\n",
              static_cast<unsigned long long>(first.total_cycles), rate / 1e6,
              rep.get("latency.p50_ms"), tl.value, tl.percentile, ms.size());
  return rep;
}

}  // namespace perfbench
