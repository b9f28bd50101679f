// Cycle-level XMT machine simulation (the detailed fidelity).
//
// Simulates one parallel section (spawn ... join) the way Section II-A
// describes the hardware executing it: the MTCU broadcasts the section, the
// prefix-sum unit hands thread IDs to TCUs as they finish, TCUs execute
// their threads in order through shared cluster resources (FPUs, the single
// LSU port), requests traverse the hybrid NoC (MoT levels are conflict-free
// pipeline latency; butterfly levels are shared 1-request/cycle links),
// memory modules serve one request per cycle from an on-module line cache,
// and misses stream 32-byte lines from per-controller DRAM channels with a
// row-buffer (sequential-line) bonus.
//
// The machine transports no data — it is a timing model. Numerical
// correctness of the FFT is established host-side by xfft; the traffic the
// machine times is generated from the same kernel structure
// (xsim/fft_traffic.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "xfault/fault_plan.hpp"
#include "xsim/config.hpp"
#include "xutil/check.hpp"

namespace xckpt {
class Writer;
class Reader;
}  // namespace xckpt

namespace xsim {

/// One step of a thread's trace program.
struct Step {
  enum class Kind : std::uint8_t { kIntOps, kFpOps, kLoad, kStore };
  Kind kind = Kind::kIntOps;
  /// For kIntOps/kFpOps: number of operations. For memory: access bytes
  /// are fixed at 8 (one complex single-precision element).
  std::uint32_t count = 0;
  /// For kLoad/kStore: byte address in the simulated global address space.
  std::uint64_t addr = 0;
};

/// A thread's full trace. Generated lazily per thread ID so millions of
/// threads need not be materialized at once.
using ThreadProgram = std::vector<Step>;
using ProgramGenerator = std::function<ThreadProgram(std::uint64_t)>;

/// Fixed microarchitectural latencies of the detailed machine, in cycles.
inline constexpr unsigned kCacheHitLatency = 2;
inline constexpr unsigned kDramCyclesPerLine = 4;   ///< 32 B line at 8 B/cycle
inline constexpr unsigned kDramRowMissPenalty = 4;  ///< extra, non-sequential
inline constexpr unsigned kResponseLatency = 4;     ///< uncontended return

/// Tunable knobs of the detailed machine.
struct MachineOptions {
  unsigned max_outstanding_loads = 4;  ///< per-TCU prefetch window
  std::uint64_t cycle_limit = 500'000'000;  ///< deadlock guard
  /// When the guard trips: false (default) returns a partial MachineResult
  /// with truncated set and full telemetry; true throws DeadlockError.
  bool throw_on_cycle_limit = false;
};

/// Typed watchdog failure carrying the abort-time diagnostics that the old
/// bare invariant check used to discard.
class DeadlockError : public xutil::Error {
 public:
  DeadlockError(std::uint64_t cycle_limit, std::uint64_t threads_completed,
                std::uint64_t threads_total, std::uint64_t outstanding,
                std::uint64_t max_mm_queue, std::uint64_t max_noc_queue);

  std::uint64_t cycle_limit = 0;
  std::uint64_t threads_completed = 0;
  std::uint64_t threads_total = 0;
  std::uint64_t outstanding = 0;      ///< in-flight requests at abort
  std::uint64_t max_mm_queue = 0;     ///< deepest module queue observed
  std::uint64_t max_noc_queue = 0;    ///< deepest butterfly-link queue
};

/// Aggregate observables of one parallel section.
struct MachineResult {
  std::uint64_t cycles = 0;
  std::uint64_t threads = 0;
  std::uint64_t threads_completed = 0;  ///< == threads unless truncated
  std::uint64_t mem_requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t dram_line_fills = 0;
  std::uint64_t dram_row_hits = 0;
  std::uint64_t fp_ops = 0;
  std::uint64_t int_ops = 0;
  std::uint64_t ps_allocations = 0;  ///< prefix-sum thread grants
  std::uint64_t max_mm_queue = 0;
  std::uint64_t max_noc_queue = 0;
  double fpu_utilization = 0.0;
  double lsu_utilization = 0.0;
  double dram_utilization = 0.0;

  // Degradation diagnostics (zero on a healthy machine).
  bool truncated = false;  ///< cycle-limit watchdog cut the section short
  std::uint64_t outstanding_at_abort = 0;  ///< in-flight requests, if truncated
  std::uint64_t dead_tcus = 0;             ///< TCUs the PS allocator skipped
  std::uint64_t failed_channels = 0;       ///< DRAM channels taken offline
  std::uint64_t degraded_links = 0;        ///< butterfly links running slow
  std::uint64_t remapped_fills = 0;  ///< line fills rerouted off failed channels

  [[nodiscard]] double cache_hit_rate() const {
    return mem_requests == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(mem_requests);
  }
};

/// The cycle-stepped machine. Construct once per configuration; each
/// run_parallel_section() starts with cold caches unless keep_cache is set.
class Machine {
 public:
  explicit Machine(MachineConfig config, MachineOptions opt = {});
  ~Machine();
  Machine(Machine&&) noexcept;
  Machine& operator=(Machine&&) noexcept;

  /// Executes `num_threads` virtual threads of `gen` to completion and
  /// returns the observables. Deterministic. Equivalent to begin_section +
  /// advance_section(unbounded) + end_section.
  MachineResult run_parallel_section(std::uint64_t num_threads,
                                     const ProgramGenerator& gen,
                                     bool keep_cache = false);

  // --- Resumable section API (the checkpointing surface) -----------------
  //
  // A parallel section can be advanced in bounded slices so long runs can
  // snapshot between slices: begin_section(); while (!advance_section(N))
  // { save a checkpoint; } result = end_section(). A slice boundary is an
  // ordinary cycle boundary — slicing never changes the simulation, so the
  // final MachineResult is bit-identical to a run_parallel_section() call.

  /// Starts a section. Any previously active section is discarded.
  void begin_section(std::uint64_t num_threads, const ProgramGenerator& gen,
                     bool keep_cache = false);

  /// Advances at most `max_cycles` further cycles. Returns true when the
  /// section has finished (all threads joined and every request drained,
  /// or the cycle-limit watchdog truncated it; with throw_on_cycle_limit
  /// the watchdog throws DeadlockError instead).
  bool advance_section(std::uint64_t max_cycles);

  /// Finalizes the section (utilization math) and returns the observables.
  MachineResult end_section();

  [[nodiscard]] bool section_active() const { return sec_ != nullptr; }
  /// Cycles simulated so far in the active section.
  [[nodiscard]] std::uint64_t section_cycle() const;

  // --- Checkpointing ------------------------------------------------------
  //
  // save() serializes the complete simulation state: the configuration and
  // latency fingerprints (verified on restore — a snapshot never silently
  // resumes on a different machine), the fault map, every cache module's
  // tags, and, when a section is active, all of its discrete-event state
  // (cycle counter, per-TCU thread programs and pipeline positions, NoC
  // stage queues, MoT delay pipes, memory-module queues, DRAM channel
  // state, in-flight load completions, and the partial counters).
  //
  // restore() deserializes into a scratch machine and swaps only on full
  // success, so a damaged snapshot can never half-apply: on any
  // xckpt::SnapshotError the machine is untouched. The thread-program
  // generator cannot live in a snapshot (it is code, not data); the caller
  // passes the same deterministic generator it would give begin_section.
  void save(xckpt::Writer& w) const;
  void restore(xckpt::Reader& r, const ProgramGenerator& gen);

  [[nodiscard]] const MachineConfig& config() const { return config_; }

  /// Installs a fault map (materialized for this machine's shape — see
  /// fault_shape()). The machine then degrades rather than dies: dead TCUs
  /// are skipped by the prefix-sum allocator, traffic destined for failed
  /// DRAM channels is remapped to surviving controllers, and degraded
  /// butterfly links forward at their reduced rate. Throws xutil::Error if
  /// the map's shape does not match the configuration.
  void set_faults(xfault::FaultMap faults);
  [[nodiscard]] const xfault::FaultMap& faults() const { return faults_; }

  /// Memory module servicing a byte address (the global address hash).
  [[nodiscard]] std::uint32_t module_of(std::uint64_t addr) const;

 private:
  struct Section;  ///< discrete-event state of one in-flight section

  MachineConfig config_;
  MachineOptions opt_;
  xfault::FaultMap faults_;  ///< default: the perfect machine
  // Per-module direct-mapped line-tag cache, persisted across sections when
  // keep_cache is requested.
  std::vector<std::vector<std::uint64_t>> cache_tags_;
  std::unique_ptr<Section> sec_;  ///< null when no section is active
  void reset_caches();
  void load_state(xckpt::Reader& r, const ProgramGenerator& gen);
};

/// The plain-integer shape of `config` for xfault::materialize().
[[nodiscard]] xfault::MachineShape fault_shape(const MachineConfig& config);

/// Serialization of MachineResult (used by Machine snapshots and by the
/// phase journal of checkpointed full-FFT runs). Bit-exact round trip.
void save_result(xckpt::Writer& w, const MachineResult& r);
[[nodiscard]] MachineResult load_result(xckpt::Reader& r);

}  // namespace xsim
