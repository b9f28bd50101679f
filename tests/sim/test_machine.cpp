// Tests of the cycle-level machine: draining/invariant properties, the
// NBW-FSM no-deadlock property, resource-scaling monotonicity, hot-spot
// behaviour, the NoC orderings the analytic contention model assumes,
// cross-fidelity agreement with the analytic model, and golden statistics
// that pin every observable of representative runs exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xckpt/snapshot.hpp"
#include "xfault/fault_plan.hpp"
#include "xfft/xmt_kernel.hpp"
#include "xsim/fft_on_machine.hpp"
#include "xsim/fft_traffic.hpp"
#include "xsim/machine.hpp"
#include "xsim/perf_model.hpp"
#include "xsim/scaled_config.hpp"
#include "xutil/check.hpp"

namespace {

using xfft::Dims3;
using xsim::Machine;
using xsim::MachineConfig;
using xsim::MachineResult;

/// A small machine the detailed simulation can run quickly: 8 clusters of
/// 32 TCUs, 8 memory modules, hybrid 4+2 NoC, 4 DRAM channels.
MachineConfig tiny_config() {
  MachineConfig c;
  c.name = "tiny";
  c.clusters = 8;
  c.tcus = 8 * 32;
  c.memory_modules = 8;
  c.mot_levels = 4;
  c.butterfly_levels = 2;
  c.mms_per_dram_ctrl = 2;
  c.fpus_per_cluster = 1;
  c.node = xphys::TechNode::k22nm;
  c.cache_bytes_per_mm = 8 * 1024;
  c.validate();
  return c;
}

MachineConfig tiny_pure_mot() {
  MachineConfig c = tiny_config();
  c.name = "tiny-mot";
  c.mot_levels = 6;
  c.butterfly_levels = 0;
  c.validate();
  return c;
}

TEST(Machine, RejectsButterflyDeeperThanClusterIndex) {
  // The router permutes butterfly_levels bits of a cluster-wide link index;
  // 4 levels on 8 clusters would address links 8..15, which do not exist.
  MachineConfig cfg = tiny_config();
  cfg.butterfly_levels = 4;
  cfg.mot_levels = 2;
  cfg.validate();  // the topology split alone is legal
  EXPECT_THROW(Machine m(cfg), xutil::Error);
}

TEST(Machine, AllThreadsCompleteAndCountsConserve) {
  Machine m(tiny_config());
  const auto gen = xsim::make_uniform_generator(4, 4, 1 << 20, 1);
  const auto r = m.run_parallel_section(512, gen);
  EXPECT_EQ(r.threads, 512u);
  EXPECT_EQ(r.ps_allocations, 512u);
  // Every issued memory request reaches a module exactly once.
  EXPECT_EQ(r.mem_requests, 512u * 8u);
  EXPECT_LE(r.cache_hits, r.mem_requests);
  EXPECT_EQ(r.mem_requests - r.cache_hits, r.dram_line_fills);
  EXPECT_GT(r.cycles, 0u);
}

TEST(Machine, DeterministicAcrossRuns) {
  Machine m(tiny_config());
  const auto gen = xsim::make_uniform_generator(4, 2, 1 << 18, 3);
  const auto a = m.run_parallel_section(256, gen);
  const auto b = m.run_parallel_section(256, gen);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.dram_line_fills, b.dram_line_fills);
}

TEST(Machine, FpOnlyWorkloadIsComputeBoundAtFullUtilization) {
  Machine m(tiny_config());
  const auto gen = [](std::uint64_t) -> xsim::ThreadProgram {
    return {{xsim::Step::Kind::kFpOps, 64, 0}};
  };
  // 8 clusters x 1 FPU, 2048 threads x 64 flops = 131072 flops ->
  // at least 16384 cycles; near-full FPU utilization.
  const auto r = m.run_parallel_section(2048, gen);
  EXPECT_EQ(r.fp_ops, 2048u * 64u);
  EXPECT_GE(r.cycles, 16384u);
  EXPECT_GT(r.fpu_utilization, 0.9);
}

TEST(Machine, MoreFpusReduceComputeBoundTime) {
  auto c4 = tiny_config();
  c4.fpus_per_cluster = 4;
  Machine m1(tiny_config());
  Machine m4(c4);
  const auto gen = [](std::uint64_t) -> xsim::ThreadProgram {
    return {{xsim::Step::Kind::kFpOps, 64, 0}};
  };
  const auto r1 = m1.run_parallel_section(1024, gen);
  const auto r4 = m4.run_parallel_section(1024, gen);
  EXPECT_LT(r4.cycles, r1.cycles);
  EXPECT_NEAR(static_cast<double>(r1.cycles) / r4.cycles, 4.0, 1.0);
}

TEST(Machine, HotSpotSerializesOnOneModule) {
  Machine m(tiny_pure_mot());
  // 256 threads each load the same address 4 times: one module services
  // 1/cycle, so >= ~1024 cycles even though 8 modules exist.
  const auto r = m.run_parallel_section(
      256, xsim::make_hotspot_generator(4, 0x1000));
  EXPECT_GE(r.cycles, 1024u);
  // Spread traffic of the same volume over a cache-resident footprint
  // (warm run) uses all 8 module ports in parallel and is far faster.
  const auto gen = xsim::make_uniform_generator(4, 0, 4096, 9);
  (void)m.run_parallel_section(256, gen);  // warm the caches
  const auto spread = m.run_parallel_section(256, gen, /*keep_cache=*/true);
  EXPECT_GT(spread.cache_hit_rate(), 0.95);
  EXPECT_LT(spread.cycles * 3, r.cycles);
}

TEST(Machine, SequentialDramStreamsBeatRandom) {
  auto cfg = tiny_config();
  cfg.cache_bytes_per_mm = 1024;  // force misses
  Machine m(cfg);
  // Sequential: thread t streams adjacent lines.
  const auto seq = [](std::uint64_t t) -> xsim::ThreadProgram {
    xsim::ThreadProgram p;
    for (unsigned i = 0; i < 8; ++i) {
      p.push_back({xsim::Step::Kind::kLoad, 1, t * 256 + i * 32});
    }
    return p;
  };
  const auto rs = m.run_parallel_section(512, seq);
  const auto rr = m.run_parallel_section(
      512, xsim::make_uniform_generator(8, 0, 1 << 26, 11));
  // The hash scrambles line order per channel, so row hits are rare in
  // both cases, but random-footprint traffic cannot beat the streaming
  // pattern.
  EXPECT_LE(rs.cycles, rr.cycles * 11 / 10);
  EXPECT_EQ(rs.threads, 512u);
}

TEST(Machine, PrefetchWindowLimitsOutstandingLoads) {
  auto opt = xsim::MachineOptions{};
  opt.max_outstanding_loads = 1;
  Machine strict(tiny_config(), opt);
  Machine loose(tiny_config());  // default window 4
  const auto gen = xsim::make_uniform_generator(16, 0, 1 << 22, 5);
  const auto rs = strict.run_parallel_section(128, gen);
  const auto rl = loose.run_parallel_section(128, gen);
  EXPECT_GT(rs.cycles, rl.cycles);  // stalling on every load is slower
}

TEST(Machine, CacheHitsAfterWarmup) {
  Machine m(tiny_config());
  const auto gen = xsim::make_uniform_generator(8, 0, 4096, 13);
  const auto cold = m.run_parallel_section(128, gen);
  const auto warm = m.run_parallel_section(128, gen, /*keep_cache=*/true);
  EXPECT_GT(warm.cache_hit_rate(), 0.95);
  EXPECT_LE(cold.cache_hit_rate(), warm.cache_hit_rate());
  EXPECT_LT(warm.cycles, cold.cycles);
}

TEST(Machine, CycleLimitTruncatesGracefullyByDefault) {
  auto opt = xsim::MachineOptions{};
  opt.cycle_limit = 100;
  Machine m(tiny_config(), opt);
  const auto gen = xsim::make_uniform_generator(64, 64, 1 << 20, 17);
  const auto r = m.run_parallel_section(4096, gen);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.cycles, 100u);
  EXPECT_LT(r.threads_completed, r.threads);
  // An aborted memory-bound section must have work in flight.
  EXPECT_GT(r.outstanding_at_abort, 0u);
}

TEST(Machine, CycleLimitThrowsTypedErrorWhenRequested) {
  auto opt = xsim::MachineOptions{};
  opt.cycle_limit = 100;
  opt.throw_on_cycle_limit = true;
  Machine m(tiny_config(), opt);
  const auto gen = xsim::make_uniform_generator(64, 64, 1 << 20, 17);
  try {
    (void)m.run_parallel_section(4096, gen);
    FAIL() << "expected DeadlockError";
  } catch (const xsim::DeadlockError& e) {
    EXPECT_EQ(e.cycle_limit, 100u);
    EXPECT_EQ(e.threads_total, 4096u);
    EXPECT_LT(e.threads_completed, e.threads_total);
    EXPECT_GT(e.outstanding, 0u);
    EXPECT_NE(std::string(e.what()).find("cycle limit"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// NoC orderings on the machine's interconnect. Loads go to 8 cache-resident
// lines per module, so the warm run is bound by the NoC and module ports.
// ---------------------------------------------------------------------------

MachineConfig noc_config(std::size_t clusters, unsigned mot, unsigned bf) {
  MachineConfig c = tiny_config();
  c.name = "noc";
  c.clusters = clusters;
  c.tcus = clusters * 32;
  c.memory_modules = clusters;
  c.mot_levels = mot;
  c.butterfly_levels = bf;
  c.cache_bytes_per_mm = 16 * 1024;
  c.validate();
  return c;
}

/// Second (warm) run of 4 threads per TCU, 64 loads each.
MachineResult warm_noc_run(const MachineConfig& cfg,
                           xnoc::TrafficPattern pattern) {
  Machine m(cfg);
  const auto gen = xsim::make_noc_pattern_generator(m, pattern, 64);
  (void)m.run_parallel_section(4 * cfg.tcus, gen);
  return m.run_parallel_section(4 * cfg.tcus, gen, /*keep_cache=*/true);
}

/// Requests per cycle per cluster; 1 is every LSU port busy every cycle.
double noc_efficiency(const MachineResult& r, const MachineConfig& cfg) {
  return static_cast<double>(r.mem_requests) /
         (static_cast<double>(r.cycles) * static_cast<double>(cfg.clusters));
}

TEST(MachineNoc, PureMotSustainsNearFullThroughputUnderUniform) {
  const MachineConfig mot = noc_config(16, 8, 0);
  const auto r = warm_noc_run(mot, xnoc::TrafficPattern::kUniform);
  EXPECT_EQ(r.mem_requests, 4u * mot.tcus * 64u);
  EXPECT_GT(r.cache_hit_rate(), 0.95);
  EXPECT_GE(noc_efficiency(r, mot), 0.9);
  EXPECT_EQ(r.max_noc_queue, 0u);  // no shared links to queue on
}

TEST(MachineNoc, ButterflyUniformStaysHighButBelowMot) {
  const MachineConfig mot = noc_config(16, 8, 0);
  const MachineConfig bf = noc_config(16, 4, 4);
  const double e_mot = noc_efficiency(
      warm_noc_run(mot, xnoc::TrafficPattern::kUniform), mot);
  const auto r = warm_noc_run(bf, xnoc::TrafficPattern::kUniform);
  EXPECT_GT(noc_efficiency(r, bf), 0.5);
  EXPECT_LE(noc_efficiency(r, bf), e_mot + 0.05);
  EXPECT_GT(r.max_noc_queue, 0u);
}

TEST(MachineNoc, TransposeDegradesMoreThanUniformOnButterfly) {
  const MachineConfig cfg = noc_config(32, 4, 5);
  const double uni = noc_efficiency(
      warm_noc_run(cfg, xnoc::TrafficPattern::kUniform), cfg);
  const double rot = noc_efficiency(
      warm_noc_run(cfg, xnoc::TrafficPattern::kTranspose), cfg);
  EXPECT_LT(rot, uni);
}

TEST(MachineNoc, HotSpotThroughputIsOneModulesRate) {
  const MachineConfig cfg = noc_config(16, 4, 4);
  const auto r = warm_noc_run(cfg, xnoc::TrafficPattern::kHotSpot);
  // 16 cluster ports all feeding one module that retires 1/cycle.
  EXPECT_NEAR(noc_efficiency(r, cfg), 1.0 / 16.0, 0.02);
}

// The queued interconnect: every request drains, and neither a lone load
// nor a loaded network beats the hop count or the port bound.
TEST(QueueSim, AllPacketsDrainAndLatencyIsSane) {
  const MachineConfig cfg = noc_config(16, 4, 4);
  const auto r = warm_noc_run(cfg, xnoc::TrafficPattern::kUniform);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.threads_completed, 4u * cfg.tcus);
  EXPECT_EQ(r.mem_requests, 4u * cfg.tcus * 64u);
  EXPECT_GE(r.cycles, r.mem_requests / cfg.clusters);  // one LSU port each
  EXPECT_GT(r.max_noc_queue, 0u);

  Machine m(cfg);
  const auto one = xsim::make_noc_pattern_generator(
      m, xnoc::TrafficPattern::kUniform, 1);
  (void)m.run_parallel_section(1, one);
  const auto lone = m.run_parallel_section(1, one, /*keep_cache=*/true);
  EXPECT_EQ(lone.mem_requests, 1u);
  EXPECT_EQ(lone.cache_hits, 1u);
  EXPECT_GE(lone.cycles, cfg.butterfly_levels);
  EXPECT_LE(lone.max_noc_queue, 1u);  // queued behind nothing but itself
}

// The uniform pattern picks modules by a fixed hash of (thread, load), so
// two fresh machines must agree on every observable.
TEST(QueueSim, DeterministicForFixedSeed) {
  const MachineConfig cfg = noc_config(16, 4, 4);
  const auto a = warm_noc_run(cfg, xnoc::TrafficPattern::kUniform);
  const auto b = warm_noc_run(cfg, xnoc::TrafficPattern::kUniform);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.mem_requests, b.mem_requests);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.max_mm_queue, b.max_mm_queue);
  EXPECT_EQ(a.max_noc_queue, b.max_noc_queue);
}

// ---------------------------------------------------------------------------
// FFT traffic through the detailed machine.
// ---------------------------------------------------------------------------

TEST(MachineFft, PhaseTrafficDrainsAndTouchesEveryPoint) {
  const Dims3 dims{64, 8, 1};
  const auto phases = xfft::build_fft_phases(dims, 8);
  const auto cfg = tiny_config();
  Machine m(cfg);
  const auto gen = xsim::make_fft_phase_generator(cfg, dims, phases[0]);
  const auto r = m.run_parallel_section(phases[0].threads, gen);
  EXPECT_EQ(r.threads, phases[0].threads);
  // 8 data loads + 7 twiddle loads + 8 stores per thread.
  EXPECT_EQ(r.mem_requests, phases[0].threads * 23u);
}

TEST(MachineFft, RotationPhaseIsSlowerThanMatchingIteration) {
  // Same dims, same radix, same volume: the scattered writes of the
  // rotation phase must cost at least as much as the in-place iteration.
  const Dims3 dims{64, 64, 1};
  const auto phases = xfft::build_fft_phases(dims, 8);
  ASSERT_EQ(phases.size(), 4u);
  const auto cfg = tiny_config();
  Machine m(cfg);
  const auto t_plain = m.run_parallel_section(
      phases[0].threads,
      xsim::make_fft_phase_generator(cfg, dims, phases[0]));
  const auto t_rot = m.run_parallel_section(
      phases[1].threads,
      xsim::make_fft_phase_generator(cfg, dims, phases[1]));
  ASSERT_TRUE(phases[1].rotation);
  EXPECT_GE(t_rot.cycles * 10, t_plain.cycles * 9);  // allow 10% noise
}

TEST(MachineFft, UnreplicatedTwiddleTableIsSlower) {
  // The paper's replication rationale, sharpest in the LAST iteration:
  // there the live roots have decimated down to a handful (here: all
  // butterflies read root 0), so with a single table copy every thread's
  // twiddle reads queue on one memory location — the per-location queueing
  // Section IV-A calls a bottleneck. Replicas spread those reads.
  const Dims3 dims{512, 8, 1};
  const auto phases = xfft::build_fft_phases(dims, 8);
  ASSERT_EQ(phases[2].iter, 2);  // block 8, all twiddle indices collapse
  // Hot-spot queueing is a cache-module service-rate effect, so measure it
  // with warm, capacity-ample caches (cold runs are DRAM-bound and mask
  // it — the DRAM-bound regime is covered by other tests).
  auto cfg = tiny_config();
  cfg.cache_bytes_per_mm = 256 * 1024;
  // Plenty of FPUs so the memory system, not arithmetic, is binding.
  cfg.fpus_per_cluster = 8;
  cfg.validate();
  Machine m(cfg);
  xsim::FftTrafficOptions replicated;
  replicated.twiddle_copies = 64;
  xsim::FftTrafficOptions single;
  single.twiddle_copies = 1;
  const auto gen_rep =
      xsim::make_fft_phase_generator(cfg, dims, phases[2], replicated);
  const auto gen_one =
      xsim::make_fft_phase_generator(cfg, dims, phases[2], single);
  (void)m.run_parallel_section(phases[2].threads, gen_rep);  // warm
  const auto r_rep =
      m.run_parallel_section(phases[2].threads, gen_rep, /*keep_cache=*/true);
  (void)m.run_parallel_section(phases[2].threads, gen_one);  // warm
  const auto r_one =
      m.run_parallel_section(phases[2].threads, gen_one, /*keep_cache=*/true);
  EXPECT_GT(r_rep.cache_hit_rate(), 0.99);
  EXPECT_GT(r_one.cache_hit_rate(), 0.99);
  EXPECT_GT(r_one.cycles, r_rep.cycles * 3 / 2);
}

TEST(MachineFft, CrossFidelityAgreementWithAnalyticModel) {
  // The two fidelities describe the same machine; on a homogeneous phase
  // their cycle counts should agree within a small factor (the analytic
  // model is calibrated at scale; the detailed machine adds latency
  // effects the batched model folds into efficiencies).
  const Dims3 dims{64, 64, 1};
  const auto phases = xfft::build_fft_phases(dims, 8);
  const auto cfg = tiny_config();

  Machine m(cfg);
  const auto detailed = m.run_parallel_section(
      phases[0].threads,
      xsim::make_fft_phase_generator(cfg, dims, phases[0]));

  xsim::FftPerfModel model(cfg);
  const auto analytic = model.time_phase(phases[0]);

  const double ratio =
      static_cast<double>(detailed.cycles) / analytic.cycles;
  EXPECT_GT(ratio, 0.4) << "detailed " << detailed.cycles << " vs analytic "
                        << analytic.cycles;
  EXPECT_LT(ratio, 2.5) << "detailed " << detailed.cycles << " vs analytic "
                        << analytic.cycles;
}

// ---------------------------------------------------------------------------
// Golden statistics. Every MachineResult field of a set of representative
// runs, pinned exactly: integers as integers, utilizations as hex floats.
// A change meant only to make the simulator faster on the host must leave
// every value here untouched; one that changes the simulated machine must
// say why and re-record them.
// ---------------------------------------------------------------------------

/// The 16-cluster all-MoT machine the repository benchmark simulates.
MachineConfig custom16_config() {
  MachineConfig c;
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

/// Four clusters of `tcus_per_cluster` TCUs on a pure MoT. With 24 TCUs a
/// cluster straddles a 64-TCU boundary; with 100 each spans several.
MachineConfig odd_cluster_config(unsigned tcus_per_cluster, unsigned fpus,
                                 unsigned lsus) {
  MachineConfig c;
  c.name = "odd-" + std::to_string(tcus_per_cluster);
  c.clusters = 4;
  c.tcus_per_cluster = tcus_per_cluster;
  c.alus_per_cluster = tcus_per_cluster;
  c.tcus = 4 * tcus_per_cluster;
  c.memory_modules = 4;
  c.butterfly_levels = 0;
  c.mot_levels = 4;
  c.mms_per_dram_ctrl = 2;
  c.fpus_per_cluster = fpus;
  c.lsus_per_cluster = lsus;
  c.cache_bytes_per_mm = 4 * 1024;
  c.validate();
  return c;
}

std::vector<MachineResult> fft_results(Machine& m, Dims3 dims) {
  std::vector<MachineResult> out;
  for (const auto& ph : xsim::run_fft_on_machine(m, dims).phases) {
    out.push_back(ph.result);
  }
  return out;
}

void expect_golden(const MachineResult& r, const MachineResult& want) {
  EXPECT_EQ(r.cycles, want.cycles);
  EXPECT_EQ(r.threads, want.threads);
  EXPECT_EQ(r.threads_completed, want.threads_completed);
  EXPECT_EQ(r.mem_requests, want.mem_requests);
  EXPECT_EQ(r.cache_hits, want.cache_hits);
  EXPECT_EQ(r.dram_line_fills, want.dram_line_fills);
  EXPECT_EQ(r.dram_row_hits, want.dram_row_hits);
  EXPECT_EQ(r.fp_ops, want.fp_ops);
  EXPECT_EQ(r.int_ops, want.int_ops);
  EXPECT_EQ(r.ps_allocations, want.ps_allocations);
  EXPECT_EQ(r.max_mm_queue, want.max_mm_queue);
  EXPECT_EQ(r.max_noc_queue, want.max_noc_queue);
  // Exact comparison on purpose: the same counts give the same doubles.
  EXPECT_EQ(r.fpu_utilization, want.fpu_utilization);
  EXPECT_EQ(r.lsu_utilization, want.lsu_utilization);
  EXPECT_EQ(r.dram_utilization, want.dram_utilization);
  EXPECT_EQ(r.truncated, want.truncated);
  EXPECT_EQ(r.outstanding_at_abort, want.outstanding_at_abort);
  EXPECT_EQ(r.dead_tcus, want.dead_tcus);
  EXPECT_EQ(r.failed_channels, want.failed_channels);
  EXPECT_EQ(r.degraded_links, want.degraded_links);
  EXPECT_EQ(r.remapped_fills, want.remapped_fills);
}

void expect_golden(const std::vector<MachineResult>& got,
                   const std::vector<MachineResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("phase " + std::to_string(i));
    expect_golden(got[i], want[i]);
  }
}

// Every phase of the radix-8 128x128 FFT (three iterations per dimension,
// the same phase structure as 256x256), caches kept between phases.
const std::vector<MachineResult> kGoldenCustom16Fft = {
    {.cycles = 31491, .threads = 2048, .threads_completed = 2048,
     .mem_requests = 47104, .cache_hits = 27951, .dram_line_fills = 19153,
     .dram_row_hits = 169, .fp_ops = 208896, .int_ops = 24576,
     .ps_allocations = 2048, .max_mm_queue = 42,
     .fpu_utilization = 0x1.a88b7fb833b3dp-2,
     .lsu_utilization = 0x1.7eec41007ef28p-4,
     .dram_utilization = 0x1.360701e90f20fp-1},
    {.cycles = 13262, .threads = 2048, .threads_completed = 2048,
     .mem_requests = 47104, .cache_hits = 45250, .dram_line_fills = 1854,
     .dram_row_hits = 25, .fp_ops = 208896, .int_ops = 24576,
     .ps_allocations = 2048, .max_mm_queue = 1189,
     .fpu_utilization = 0x1.f80c0b94fb8f7p-1,
     .lsu_utilization = 0x1.c6a173dbb5b89p-3,
     .dram_utilization = 0x1.1c60351f631a6p-3},
    {.cycles = 20439, .threads = 8192, .threads_completed = 8192,
     .mem_requests = 40960, .cache_hits = 21157, .dram_line_fills = 19803,
     .dram_row_hits = 49, .fp_ops = 81920, .int_ops = 98304,
     .ps_allocations = 8192, .max_mm_queue = 656,
     .fpu_utilization = 0x1.008376932b6cap-2,
     .lsu_utilization = 0x1.008376932b6cap-3,
     .dram_utilization = 0x1.ef745203a1dc9p-1},
    {.cycles = 13394, .threads = 2048, .threads_completed = 2048,
     .mem_requests = 47104, .cache_hits = 42439, .dram_line_fills = 4665,
     .dram_row_hits = 31, .fp_ops = 208896, .int_ops = 24576,
     .ps_allocations = 2048, .max_mm_queue = 301,
     .fpu_utilization = 0x1.f3145fdef9013p-1,
     .lsu_utilization = 0x1.c2267496eaa1bp-3,
     .dram_utilization = 0x1.6376d8487a048p-2},
    {.cycles = 13372, .threads = 2048, .threads_completed = 2048,
     .mem_requests = 47104, .cache_hits = 45840, .dram_line_fills = 1264,
     .dram_row_hits = 24, .fp_ops = 208896, .int_ops = 24576,
     .ps_allocations = 2048, .max_mm_queue = 1232,
     .fpu_utilization = 0x1.f3e6937d3474bp-1,
     .lsu_utilization = 0x1.c2e40c8f0c2dp-3,
     .dram_utilization = 0x1.7f80930794ca8p-4},
    {.cycles = 11547, .threads = 8192, .threads_completed = 8192,
     .mem_requests = 40960, .cache_hits = 35356, .dram_line_fills = 5604,
     .dram_row_hits = 54, .fp_ops = 81920, .int_ops = 98304,
     .ps_allocations = 8192, .max_mm_queue = 657,
     .fpu_utilization = 0x1.c60c042b02a36p-2,
     .lsu_utilization = 0x1.c60c042b02a36p-3,
     .dram_utilization = 0x1.ee92fd23d96c8p-2},
};

TEST(MachineGolden, Custom16FftAllPhases) {
  Machine m(custom16_config());
  expect_golden(fft_results(m, {128, 128, 1}), kGoldenCustom16Fft);
}

TEST(MachineGolden, ButterflyPresetWithFaults) {
  const MachineConfig cfg = xsim::scaled_down(xsim::preset_64k(), 8);
  ASSERT_GT(cfg.butterfly_levels, 0u);
  Machine m(cfg);
  m.set_faults(xfault::materialize(
      xfault::FaultPlan::parse(
          "tcu:kill:0.05,dram:chan:2,noc:link:degrade:3x:0.5", 21),
      xsim::fault_shape(cfg)));
  const auto r = m.run_parallel_section(
      4096, xsim::make_uniform_generator(6, 3, 1 << 22, 23));
  expect_golden(r, {.cycles = 18528, .threads = 4096, .threads_completed = 4096,
                    .mem_requests = 36864, .cache_hits = 1258,
                    .dram_line_fills = 35606, .int_ops = 32768,
                    .ps_allocations = 4096, .max_mm_queue = 5,
                    .max_noc_queue = 89, .lsu_utilization = 0x1.fd58ded6e17ep-8,
                    .dram_utilization = 0x1.0661af0f00dadp-1, .dead_tcus = 410,
                    .failed_channels = 2, .degraded_links = 128,
                    .remapped_fills = 2292});
}

TEST(MachineGolden, PrefetchWindowOfOne) {
  auto opt = xsim::MachineOptions{};
  opt.max_outstanding_loads = 1;
  Machine m(tiny_config(), opt);
  const auto r = m.run_parallel_section(
      1024, xsim::make_uniform_generator(12, 2, 1 << 20, 29));
  expect_golden(r, {.cycles = 27467, .threads = 1024, .threads_completed = 1024,
                    .mem_requests = 14336, .cache_hits = 749,
                    .dram_line_fills = 13587, .dram_row_hits = 1,
                    .int_ops = 8192, .ps_allocations = 1024, .max_mm_queue = 14,
                    .max_noc_queue = 7, .lsu_utilization = 0x1.0b3b1e566621bp-4,
                    .dram_utilization = 0x1.fa8509a0ba67dp-1});
}

TEST(MachineGolden, Hotspot) {
  Machine m(tiny_config());
  const auto r =
      m.run_parallel_section(512, xsim::make_hotspot_generator(6, 0x2040));
  expect_golden(r, {.cycles = 3085, .threads = 512, .threads_completed = 512,
                    .mem_requests = 3072, .cache_hits = 3071,
                    .dram_line_fills = 1, .ps_allocations = 512,
                    .max_mm_queue = 947, .max_noc_queue = 137,
                    .lsu_utilization = 0x1.fdd7abb0ab467p-4,
                    .dram_utilization = 0x1.53e51d20722efp-11});
}

TEST(MachineGolden, TruncatedByCycleLimit) {
  auto opt = xsim::MachineOptions{};
  opt.cycle_limit = 3000;
  Machine m(tiny_config(), opt);
  const auto r = m.run_parallel_section(
      8192, xsim::make_uniform_generator(4, 2, 1 << 16, 31));
  expect_golden(r, {.cycles = 3000, .threads = 8192, .threads_completed = 238,
                    .mem_requests = 2962, .cache_hits = 395,
                    .dram_line_fills = 1492, .int_ops = 3952,
                    .ps_allocations = 494, .max_mm_queue = 24,
                    .max_noc_queue = 15,
                    .lsu_utilization = 0x1.f9db22d0e5604p-4,
                    .dram_utilization = 0x1.fd44f3078263bp-1, .truncated = true,
                    .outstanding_at_abort = 1077});
}

const std::vector<MachineResult> kGoldenOdd24 = {
    {.cycles = 14335, .threads = 256, .threads_completed = 256,
     .mem_requests = 5888, .cache_hits = 2900, .dram_line_fills = 2988,
     .dram_row_hits = 39, .fp_ops = 26112, .int_ops = 3072,
     .ps_allocations = 256, .max_mm_queue = 17,
     .fpu_utilization = 0x1.d251784fdcdadp-2,
     .lsu_utilization = 0x1.a499cbe3a410ap-4,
     .dram_utilization = 0x1.a819dbe3ed368p-1},
    {.cycles = 13687, .threads = 256, .threads_completed = 256,
     .mem_requests = 5888, .cache_hits = 2871, .dram_line_fills = 3017,
     .dram_row_hits = 7, .fp_ops = 26112, .int_ops = 3072,
     .ps_allocations = 256, .max_mm_queue = 105,
     .fpu_utilization = 0x1.e8654cdaaf8ep-2,
     .lsu_utilization = 0x1.b88386930cc65p-4,
     .dram_utilization = 0x1.c2e9c2d69bba8p-1},
    {.cycles = 11095, .threads = 256, .threads_completed = 256,
     .mem_requests = 5888, .cache_hits = 3462, .dram_line_fills = 2426,
     .dram_row_hits = 230, .fp_ops = 26112, .int_ops = 3072,
     .ps_allocations = 256, .max_mm_queue = 25,
     .fpu_utilization = 0x1.2d3f3e8d59163p-1,
     .lsu_utilization = 0x1.0fb688bbb9c3bp-3,
     .dram_utilization = 0x1.aa9502255535dp-1},
    {.cycles = 11715, .threads = 512, .threads_completed = 512,
     .mem_requests = 5632, .cache_hits = 2831, .dram_line_fills = 2801,
     .dram_row_hits = 69, .fp_ops = 17408, .int_ops = 6144,
     .ps_allocations = 512, .max_mm_queue = 124,
     .fpu_utilization = 0x1.7c67c13d7878dp-2,
     .lsu_utilization = 0x1.ec4a09225fab6p-4,
     .dram_utilization = 0x1.e3a2bbf944fcep-1},
};

TEST(MachineGolden, TwentyFourTcusPerCluster) {
  Machine m(odd_cluster_config(24, 1, 1));
  expect_golden(fft_results(m, {64, 32, 1}), kGoldenOdd24);
}

const std::vector<MachineResult> kGoldenOdd100 = {
    {.cycles = 32975, .threads = 512, .threads_completed = 512,
     .mem_requests = 11776, .cache_hits = 4326, .dram_line_fills = 7450,
     .dram_row_hits = 84, .fp_ops = 52224, .int_ops = 6144,
     .ps_allocations = 512, .max_mm_queue = 241,
     .fpu_utilization = 0x1.957054579a547p-3,
     .lsu_utilization = 0x1.6db09c6317bfap-5,
     .dram_utilization = 0x1.cc17f147cde11p-1},
    {.cycles = 27955, .threads = 512, .threads_completed = 512,
     .mem_requests = 11776, .cache_hits = 5162, .dram_line_fills = 6614,
     .fp_ops = 52224, .int_ops = 6144, .ps_allocations = 512,
     .max_mm_queue = 274, .fpu_utilization = 0x1.de3ec419ad86ep-3,
     .lsu_utilization = 0x1.af5bbfef00e81p-5,
     .dram_utilization = 0x1.e48babdc3652ap-1},
    {.cycles = 31039, .threads = 512, .threads_completed = 512,
     .mem_requests = 11776, .cache_hits = 4584, .dram_line_fills = 7192,
     .dram_row_hits = 103, .fp_ops = 52224, .int_ops = 6144,
     .ps_allocations = 512, .max_mm_queue = 243,
     .fpu_utilization = 0x1.aeba2eede9ae8p-3,
     .lsu_utilization = 0x1.847fc5efafa27p-5,
     .dram_utilization = 0x1.d7241569373c2p-1},
    {.cycles = 27707, .threads = 512, .threads_completed = 512,
     .mem_requests = 11776, .cache_hits = 5314, .dram_line_fills = 6462,
     .dram_row_hits = 4, .fp_ops = 52224, .int_ops = 6144,
     .ps_allocations = 512, .max_mm_queue = 266,
     .fpu_utilization = 0x1.e2869ec0fa22p-3,
     .lsu_utilization = 0x1.b3382acc2ce78p-5,
     .dram_utilization = 0x1.dd7fe26ef787p-1},
};

TEST(MachineGolden, HundredTcusPerCluster) {
  Machine m(odd_cluster_config(100, 2, 2));
  expect_golden(fft_results(m, {64, 64, 1}), kGoldenOdd100);
}

// A snapshot taken 6,000 cycles into phase 1 of the 24-TCU run above and
// committed as a file. Restoring it on the current build and finishing the
// section must reproduce the uninterrupted run exactly: a checkpoint stays
// valid for as long as the snapshot schema does.
TEST(MachineGolden, CommittedMidSectionSnapshotRestores) {
  const MachineConfig cfg = odd_cluster_config(24, 1, 1);
  const Dims3 dims{64, 32, 1};
  const auto phases = xfft::build_fft_phases(dims, 8);
  const auto payload = xckpt::read_snapshot_file(
      std::string(XSIM_TEST_DATA_DIR) + "/odd24_dim0_iter1_mid.xckpt",
      xckpt::kTagTest);
  xckpt::Reader r(payload);
  Machine m(cfg);
  m.restore(r, xsim::make_fft_phase_generator(cfg, dims, phases[1]));
  EXPECT_TRUE(r.done());
  EXPECT_EQ(m.section_cycle(), 6000u);
  EXPECT_TRUE(m.advance_section(~std::uint64_t{0}));
  expect_golden(m.end_section(), kGoldenOdd24[1]);
}

}  // namespace
