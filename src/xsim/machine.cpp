#include "xsim/machine.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <utility>

#include "xckpt/snapshot.hpp"
#include "xutil/check.hpp"
#include "xutil/units.hpp"

namespace xsim {

// Named (not anonymous) namespace: these are subobject types of
// Machine::Section, which has external linkage.
namespace sim_detail {

struct Request {
  std::uint64_t addr = 0;
  std::uint32_t dst_module = 0;
  std::uint32_t tcu = 0;     // global TCU index (for load completion)
  bool is_load = false;
};

struct TcuState {
  ThreadProgram program;
  std::size_t pc = 0;            // current step
  std::uint32_t remaining = 0;   // remaining ops in current step
  std::uint32_t outstanding = 0; // in-flight loads
  bool has_thread = false;
};

struct Channel {
  std::deque<Request> queue;
  std::uint64_t busy_until = 0;
  std::uint64_t last_line = ~0ULL;
};

/// Load completion: (ready cycle, TCU). Kept as an explicit min-heap
/// (std::push_heap/pop_heap with greater<>) instead of a priority_queue so
/// the underlying array can be serialized and restored verbatim —
/// identical heap layout means a resumed run pops in the identical order.
using Completion = std::pair<std::uint64_t, std::uint32_t>;

}  // namespace sim_detail

namespace {

using sim_detail::Channel;
using sim_detail::Completion;
using sim_detail::Request;
using sim_detail::TcuState;

/// SplitMix-style mixer for the global address hash: "the global memory
/// address space is evenly partitioned into the MMs through a form of
/// hashing" (Section II-A). Also used (with a different salt) for the
/// cache-set index, so strided access patterns cannot thrash a single set.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hashed cache-set index (salted differently from the module hash).
std::size_t set_of(std::uint64_t line, std::size_t lines_per_mm) {
  return static_cast<std::size_t>(mix(line ^ 0x5bd1e995c2b2ae35ULL) %
                                  lines_per_mm);
}

// ---- snapshot payload schema -------------------------------------------

constexpr std::uint32_t kMachineSchema = 1;

void save_request(xckpt::Writer& w, const Request& q) {
  w.u64(q.addr);
  w.u32(q.dst_module);
  w.u32(q.tcu);
  w.u8(q.is_load ? 1 : 0);
}

Request load_request(xckpt::Reader& r) {
  Request q;
  q.addr = r.u64();
  q.dst_module = r.u32();
  q.tcu = r.u32();
  q.is_load = r.u8() != 0;
  return q;
}

void save_request_deque(xckpt::Writer& w, const std::deque<Request>& q) {
  w.u64(q.size());
  for (const Request& req : q) save_request(w, req);
}

std::deque<Request> load_request_deque(xckpt::Reader& r) {
  std::deque<Request> q;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) q.push_back(load_request(r));
  return q;
}

void save_delay_pipe(xckpt::Writer& w,
                     const std::deque<std::pair<std::uint64_t, Request>>& q) {
  w.u64(q.size());
  for (const auto& [ready, req] : q) {
    w.u64(ready);
    save_request(w, req);
  }
}

std::deque<std::pair<std::uint64_t, Request>> load_delay_pipe(
    xckpt::Reader& r) {
  std::deque<std::pair<std::uint64_t, Request>> q;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t ready = r.u64();
    q.emplace_back(ready, load_request(r));
  }
  return q;
}

[[noreturn]] void mismatch(const std::string& what) {
  throw xckpt::SnapshotError(xckpt::ErrorKind::kMismatch, what);
}

/// Verifies one fingerprint field of the snapshot against the live
/// configuration; restore never silently adapts a snapshot to different
/// hardware.
void expect_u64(std::uint64_t got, std::uint64_t want, const char* field) {
  if (got != want) {
    mismatch(std::string("snapshot was taken on a machine with ") + field +
             "=" + std::to_string(got) + ", this machine has " +
             std::to_string(want));
  }
}

}  // namespace

// Complete discrete-event state of one parallel section. Everything here
// except the generator and the derived constants is serialized; the
// derived constants are recomputed from the configuration on restore and
// the generator is re-supplied by the caller.
struct Machine::Section {
  // Parameters.
  std::uint64_t num_threads = 0;
  ProgramGenerator gen;

  // Derived constants (recomputed, never serialized).
  std::size_t n_clusters = 0;
  std::size_t tcus_per_cluster = 0;
  std::size_t n_tcus = 0;
  unsigned bf_stages = 0;
  unsigned module_bits = 0;
  unsigned cluster_side_latency = 0;
  unsigned module_side_latency = 0;
  std::size_t lines_per_mm = 0;
  std::vector<std::uint32_t> chan_remap;

  // Event state (serialized).
  MachineResult res;               ///< partial counters
  std::vector<TcuState> tcu;
  std::uint64_t next_thread = 0;   ///< the PS-incremented global register X
  std::uint64_t done_threads = 0;
  std::deque<std::pair<std::uint64_t, Request>> mot_in;
  std::vector<std::deque<Request>> stage_q;
  std::deque<std::pair<std::uint64_t, Request>> mot_out;
  std::vector<std::deque<Request>> mm_q;
  std::vector<Channel> channels;
  std::vector<std::uint64_t> link_free;
  std::vector<Completion> completions;  ///< min-heap array
  std::uint64_t fpu_busy = 0;
  std::uint64_t lsu_busy = 0;
  std::uint64_t dram_busy = 0;
  std::uint64_t inflight = 0;  ///< injected but not yet fully serviced
  std::uint64_t cycle = 0;
  bool finished = false;

  /// Bit t is set for every TCU that may act this cycle; derived from
  /// `tcu`, never serialized. A TCU with no thread, one whose body is done
  /// but whose loads are still in flight, or one at a load with a full
  /// prefetch window does nothing when visited, and only a load of its own
  /// retiring can change that — so step 7 skips it until then.
  std::vector<std::uint64_t> awake;

  static bool blocked(const TcuState& t, unsigned load_window) {
    if (!t.has_thread) return true;
    if (t.pc >= t.program.size()) return t.outstanding > 0;
    return t.program[t.pc].kind == Step::Kind::kLoad &&
           t.outstanding >= load_window;
  }

  void wake(std::size_t t) { awake[t / 64] |= std::uint64_t{1} << (t % 64); }

  void rebuild_awake(unsigned load_window) {
    awake.assign((n_tcus + 63) / 64, 0);
    for (std::size_t t = 0; t < n_tcus; ++t) {
      if (!blocked(tcu[t], load_window)) wake(t);
    }
  }

  /// Positions a TCU at its next executable step, skipping zero-count
  /// arithmetic steps (memory steps always execute regardless of count).
  static void settle(TcuState& t) {
    while (t.pc < t.program.size()) {
      const Step& s = t.program[t.pc];
      const bool is_ops = s.kind == Step::Kind::kIntOps ||
                          s.kind == Step::Kind::kFpOps;
      if (is_ops && s.count == 0) {
        ++t.pc;
        continue;
      }
      t.remaining = s.count;
      return;
    }
    t.remaining = 0;
  }

  void grab_thread(TcuState& t) {
    if (next_thread >= num_threads) {
      t.has_thread = false;
      return;
    }
    t.program = gen(next_thread);
    ++next_thread;
    ++res.ps_allocations;
    t.pc = 0;
    t.has_thread = true;
    settle(t);
  }

  /// Recomputes the configuration-derived constants (incl. the DRAM
  /// channel remap for the installed fault map) without touching the
  /// serialized event state.
  void init_derived(const MachineConfig& config,
                    const xfault::FaultMap& faults) {
    n_clusters = config.clusters;
    tcus_per_cluster = config.tcus_per_cluster;
    n_tcus = n_clusters * tcus_per_cluster;
    bf_stages = config.butterfly_levels;
    module_bits = xutil::log2_exact(config.memory_modules, "memory modules");
    cluster_side_latency = config.mot_levels / 2;
    module_side_latency = config.mot_levels - cluster_side_latency;
    lines_per_mm = config.cache_bytes_per_mm / config.cache_line_bytes;

    // DRAM channel remap: traffic destined for a failed channel goes to
    // the next surviving controller (scanning upward, wrapping) — survivors
    // absorb the orphaned modules' line fills at the cost of row-buffer
    // locality.
    const std::size_t n_channels = config.dram_channels();
    chan_remap.assign(n_channels, 0);
    std::size_t live_channels = 0;
    for (std::size_t c = 0; c < n_channels; ++c) {
      if (!faults.channel_failed(c)) ++live_channels;
    }
    XU_CHECK_MSG(n_channels == 0 || live_channels >= 1,
                 "no surviving DRAM channel to remap traffic onto");
    for (std::size_t c = 0; c < n_channels; ++c) {
      std::size_t target = c;
      while (faults.channel_failed(target)) {
        target = (target + 1) % n_channels;
      }
      chan_remap[c] = static_cast<std::uint32_t>(target);
    }
  }
};

DeadlockError::DeadlockError(std::uint64_t cycle_limit,
                             std::uint64_t threads_completed,
                             std::uint64_t threads_total,
                             std::uint64_t outstanding,
                             std::uint64_t max_mm_queue,
                             std::uint64_t max_noc_queue)
    : xutil::Error(
          "machine simulation exceeded cycle limit " +
          std::to_string(cycle_limit) + " (deadlock?): " +
          std::to_string(threads_completed) + "/" +
          std::to_string(threads_total) + " threads joined, " +
          std::to_string(outstanding) + " requests in flight, max queues " +
          std::to_string(max_mm_queue) + " (module) / " +
          std::to_string(max_noc_queue) + " (NoC)"),
      cycle_limit(cycle_limit),
      threads_completed(threads_completed),
      threads_total(threads_total),
      outstanding(outstanding),
      max_mm_queue(max_mm_queue),
      max_noc_queue(max_noc_queue) {}

xfault::MachineShape fault_shape(const MachineConfig& config) {
  xfault::MachineShape s;
  s.clusters = config.clusters;
  s.tcus_per_cluster = config.tcus_per_cluster;
  s.memory_modules = config.memory_modules;
  s.mms_per_dram_ctrl = config.mms_per_dram_ctrl;
  s.butterfly_levels = config.butterfly_levels;
  return s;
}

Machine::Machine(MachineConfig config, MachineOptions opt)
    : config_(std::move(config)), opt_(opt) {
  config_.validate();
  // The butterfly router permutes butterfly_levels bits of a link index
  // that spans the clusters, so deeper butterflies than log2(clusters)
  // would address links that do not exist. xnoc::validate() only bounds
  // the total level split; the cycle-level machine needs this too.
  XU_CHECK_MSG(std::uint64_t{1} << config_.butterfly_levels <=
                   config_.clusters,
               config_.name << ": " << config_.butterfly_levels
                            << " butterfly levels need at least "
                            << (std::uint64_t{1} << config_.butterfly_levels)
                            << " clusters, have " << config_.clusters);
  reset_caches();
}

Machine::~Machine() = default;
Machine::Machine(Machine&&) noexcept = default;
Machine& Machine::operator=(Machine&&) noexcept = default;

void Machine::set_faults(xfault::FaultMap faults) {
  const xfault::MachineShape want = fault_shape(config_);
  const bool empty_map = faults.dead_tcu.empty() &&
                         faults.failed_channel.empty() &&
                         faults.link_period.empty();
  if (empty_map) {
    faults.shape = want;  // clearing faults needs no shape from the caller
  } else {
    const xfault::MachineShape& got = faults.shape;
    XU_CHECK_MSG(got.clusters == want.clusters &&
                     got.tcus_per_cluster == want.tcus_per_cluster &&
                     got.memory_modules == want.memory_modules &&
                     got.mms_per_dram_ctrl == want.mms_per_dram_ctrl &&
                     got.butterfly_levels == want.butterfly_levels,
                 "fault map was materialized for a different machine shape "
                 "than '" << config_.name << "'");
  }
  faults_ = std::move(faults);
}

void Machine::reset_caches() {
  const std::size_t lines =
      config_.cache_bytes_per_mm / config_.cache_line_bytes;
  XU_CHECK_MSG(lines >= 1, "cache must hold at least one line");
  cache_tags_.assign(config_.memory_modules,
                     std::vector<std::uint64_t>(lines, ~0ULL));
}

std::uint32_t Machine::module_of(std::uint64_t addr) const {
  const std::uint64_t line = addr / config_.cache_line_bytes;
  return static_cast<std::uint32_t>(mix(line) % config_.memory_modules);
}

MachineResult Machine::run_parallel_section(std::uint64_t num_threads,
                                            const ProgramGenerator& gen,
                                            bool keep_cache) {
  begin_section(num_threads, gen, keep_cache);
  advance_section(~std::uint64_t{0});
  return end_section();
}

void Machine::begin_section(std::uint64_t num_threads,
                            const ProgramGenerator& gen, bool keep_cache) {
  XU_CHECK_MSG(num_threads >= 1, "spawn needs at least one thread");
  if (!keep_cache) reset_caches();

  sec_ = std::make_unique<Section>();
  Section& s = *sec_;
  s.num_threads = num_threads;
  s.gen = gen;
  s.init_derived(config_, faults_);

  s.res.threads = num_threads;
  s.res.dead_tcus = faults_.dead_tcu_count();
  s.res.failed_channels = faults_.failed_channel_count();
  s.res.degraded_links = faults_.degraded_link_count();
  XU_CHECK_MSG(s.res.dead_tcus < s.n_tcus,
               "no live TCU to run the parallel section");

  s.tcu.assign(s.n_tcus, TcuState{});
  // Butterfly stage queues: stage st, link l -> stage_q[st*n_clusters + l].
  s.stage_q.assign(static_cast<std::size_t>(s.bf_stages) * s.n_clusters, {});
  s.mm_q.assign(config_.memory_modules, {});
  s.channels.assign(config_.dram_channels(), Channel{});
  // Degraded butterfly links forward one packet per `period` cycles instead
  // of every cycle; healthy links have period 1 and are never gated.
  s.link_free.assign(
      faults_.link_period.empty() ? 0 : s.stage_q.size(), 0);

  // The prefix-sum allocator only hands thread IDs to live TCUs; a dead TCU
  // never grabs work, so the machine degrades instead of stalling.
  for (std::size_t t = 0; t < s.n_tcus; ++t) {
    if (!faults_.tcu_dead(t)) s.grab_thread(s.tcu[t]);
  }
  s.rebuild_awake(opt_.max_outstanding_loads);
}

std::uint64_t Machine::section_cycle() const {
  XU_CHECK_MSG(sec_ != nullptr, "no active section");
  return sec_->cycle;
}

bool Machine::advance_section(std::uint64_t max_cycles) {
  XU_CHECK_MSG(sec_ != nullptr, "no active section to advance");
  Section& s = *sec_;
  if (s.finished) return true;

  const auto butterfly_next_link = [&](std::uint32_t link, std::uint32_t dst,
                                       unsigned st) -> std::uint32_t {
    const unsigned bit = s.bf_stages - 1 - st;
    const std::uint32_t dst_bit =
        bit < s.module_bits ? ((dst >> bit) & 1u) : 0u;
    return (link & ~(1u << bit)) | (dst_bit << bit);
  };

  std::uint64_t stepped = 0;
  // Run until every thread has joined AND every request (including
  // fire-and-forget stores) has been serviced — bandwidth accounting and
  // queue-conservation invariants depend on full drain.
  while (s.done_threads < s.num_threads || s.inflight > 0) {
    if (stepped >= max_cycles) return false;  // slice boundary, not done
    if (s.cycle >= opt_.cycle_limit) {
      // Watchdog: preserve the telemetry gathered so far instead of
      // discarding the whole run.
      if (opt_.throw_on_cycle_limit) {
        throw DeadlockError(opt_.cycle_limit, s.done_threads, s.num_threads,
                            s.inflight, s.res.max_mm_queue,
                            s.res.max_noc_queue);
      }
      s.res.truncated = true;
      s.res.outstanding_at_abort = s.inflight;
      break;
    }

    // 1. Retire load completions.
    while (!s.completions.empty() && s.completions.front().first <= s.cycle) {
      const std::uint32_t t = s.completions.front().second;
      std::pop_heap(s.completions.begin(), s.completions.end(),
                    std::greater<>{});
      s.completions.pop_back();
      XU_CHECK(s.tcu[t].outstanding > 0);
      --s.tcu[t].outstanding;
      s.wake(t);
    }

    // 2. DRAM channels: start the next line fill when free.
    for (auto& ch : s.channels) {
      if (ch.queue.empty() || ch.busy_until > s.cycle) continue;
      const Request req = ch.queue.front();
      ch.queue.pop_front();
      const std::uint64_t line = req.addr / config_.cache_line_bytes;
      unsigned service = kDramCyclesPerLine;
      if (ch.last_line != ~0ULL && line == ch.last_line + 1) {
        ++s.res.dram_row_hits;  // open-row sequential stream
      } else {
        service += kDramRowMissPenalty;
      }
      ch.last_line = line;
      ch.busy_until = s.cycle + service;
      s.dram_busy += service;
      ++s.res.dram_line_fills;
      XU_CHECK(s.inflight > 0);
      --s.inflight;
      // Install the line and schedule the response.
      cache_tags_[req.dst_module][set_of(line, s.lines_per_mm)] = line;
      if (req.is_load) {
        s.completions.emplace_back(ch.busy_until + kResponseLatency, req.tcu);
        std::push_heap(s.completions.begin(), s.completions.end(),
                       std::greater<>{});
      }
    }

    // 3. Memory modules: one request per cycle per module, FIFO order.
    for (std::size_t m = 0; m < s.mm_q.size(); ++m) {
      auto& q = s.mm_q[m];
      if (q.empty()) continue;
      const Request req = q.front();
      q.pop_front();
      const std::uint64_t line = req.addr / config_.cache_line_bytes;
      ++s.res.mem_requests;
      if (cache_tags_[m][set_of(line, s.lines_per_mm)] == line) {
        ++s.res.cache_hits;
        XU_CHECK(s.inflight > 0);
        --s.inflight;
        if (req.is_load) {
          s.completions.emplace_back(
              s.cycle + kCacheHitLatency + kResponseLatency, req.tcu);
          std::push_heap(s.completions.begin(), s.completions.end(),
                         std::greater<>{});
        }
      } else {
        const auto home =
            static_cast<std::uint32_t>(m / config_.mms_per_dram_ctrl);
        const std::uint32_t ch = s.chan_remap[home];
        if (ch != home) ++s.res.remapped_fills;
        s.channels[ch].queue.push_back(req);
      }
    }

    // 4. Module-side fan-in trees: conflict-free, pure latency.
    while (!s.mot_out.empty() && s.mot_out.front().first <= s.cycle) {
      const Request req = s.mot_out.front().second;
      s.mot_out.pop_front();
      s.mm_q[req.dst_module].push_back(req);
    }

    // 5. Butterfly stages, last first (one stage per cycle per packet).
    for (unsigned st = s.bf_stages; st-- > 0;) {
      for (std::size_t link = 0; link < s.n_clusters; ++link) {
        const std::size_t li =
            static_cast<std::size_t>(st) * s.n_clusters + link;
        auto& q = s.stage_q[li];
        if (q.empty()) continue;
        if (!s.link_free.empty() && s.link_free[li] > s.cycle) continue;
        const Request req = q.front();
        q.pop_front();
        if (!s.link_free.empty()) {
          const std::uint32_t period = faults_.period_of_link(li);
          if (period > 1) s.link_free[li] = s.cycle + period;
        }
        if (st + 1 == s.bf_stages) {
          s.mot_out.emplace_back(s.cycle + s.module_side_latency, req);
        } else {
          s.stage_q[static_cast<std::size_t>(st + 1) * s.n_clusters +
                    butterfly_next_link(static_cast<std::uint32_t>(link),
                                        req.dst_module, st)]
              .push_back(req);
        }
      }
    }

    // 6. Cluster-side fan-out trees feed the butterfly (or, for a pure MoT,
    //    go straight to the module-side pipe — non-blocking end to end).
    while (!s.mot_in.empty() && s.mot_in.front().first <= s.cycle) {
      const Request req = s.mot_in.front().second;
      const std::uint32_t src_cluster =
          req.tcu / static_cast<std::uint32_t>(s.tcus_per_cluster);
      s.mot_in.pop_front();
      if (s.bf_stages == 0) {
        s.mot_out.emplace_back(s.cycle + s.module_side_latency, req);
      } else {
        s.stage_q[src_cluster].push_back(req);
      }
    }

    // 7. TCU issue: per cluster, shared FPU pool and one LSU port. Only
    //    awake TCUs are visited, in ascending index order: a sleeping TCU's
    //    visit would be a no-op, so arbitration and thread-ID assignment
    //    are those of a scan over every TCU.
    const auto issue = [&](std::size_t t, TcuState& st, unsigned& fp_budget,
                           unsigned& mem_budget) {
      if (st.pc >= st.program.size()) {
        // Thread body finished; join once all loads have returned, then
        // do a prefix-sum to get the next thread ID.
        if (st.outstanding == 0) {
          ++s.done_threads;
          s.grab_thread(st);
        }
        return;
      }
      const Step& step = st.program[st.pc];
      switch (step.kind) {
        case Step::Kind::kIntOps:
          // The TCU's own ALU retires one integer op per cycle.
          ++s.res.int_ops;
          if (--st.remaining == 0) {
            ++st.pc;
            Section::settle(st);
          }
          break;
        case Step::Kind::kFpOps:
          if (fp_budget == 0) break;  // stall: FPUs shared per cluster
          --fp_budget;
          ++s.fpu_busy;
          ++s.res.fp_ops;
          if (--st.remaining == 0) {
            ++st.pc;
            Section::settle(st);
          }
          break;
        case Step::Kind::kLoad:
        case Step::Kind::kStore: {
          const bool is_load = step.kind == Step::Kind::kLoad;
          if (mem_budget == 0) break;  // one LSU port per cluster
          if (is_load && st.outstanding >= opt_.max_outstanding_loads) {
            break;  // prefetch window full
          }
          --mem_budget;
          ++s.lsu_busy;
          Request req;
          req.addr = step.addr;
          req.dst_module = module_of(step.addr);
          req.tcu = static_cast<std::uint32_t>(t);
          req.is_load = is_load;
          if (is_load) ++st.outstanding;
          ++s.inflight;
          s.mot_in.emplace_back(s.cycle + s.cluster_side_latency, req);
          ++st.pc;
          Section::settle(st);
          break;
        }
      }
    };
    for (std::size_t cl = 0; cl < s.n_clusters; ++cl) {
      unsigned fp_budget = config_.fpus_per_cluster;
      unsigned mem_budget = config_.lsus_per_cluster;
      // The cluster's TCUs need not align with 64-bit words: mask the
      // first and last word to [lo, hi).
      const std::size_t lo = cl * s.tcus_per_cluster;
      const std::size_t hi = lo + s.tcus_per_cluster;
      for (std::size_t w = lo / 64; w * 64 < hi; ++w) {
        std::uint64_t bits = s.awake[w];
        if (w * 64 < lo) bits &= ~std::uint64_t{0} << (lo % 64);
        if (hi < (w + 1) * 64) bits &= (std::uint64_t{1} << (hi % 64)) - 1;
        for (; bits != 0; bits &= bits - 1) {
          const std::size_t t =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          TcuState& st = s.tcu[t];
          issue(t, st, fp_budget, mem_budget);
          if (Section::blocked(st, opt_.max_outstanding_loads)) {
            s.awake[w] &= ~(std::uint64_t{1} << (t % 64));
          }
        }
      }
    }

    // Congestion tracking.
    for (const auto& q : s.mm_q) {
      s.res.max_mm_queue =
          std::max<std::uint64_t>(s.res.max_mm_queue, q.size());
    }
    for (const auto& q : s.stage_q) {
      s.res.max_noc_queue =
          std::max<std::uint64_t>(s.res.max_noc_queue, q.size());
    }
    ++s.cycle;
    ++stepped;
  }

  s.finished = true;
  return true;
}

MachineResult Machine::end_section() {
  XU_CHECK_MSG(sec_ != nullptr, "no active section to end");
  Section& s = *sec_;
  MachineResult res = s.res;
  res.cycles = s.cycle;
  res.threads_completed = s.done_threads;
  // Utilizations are measured against the machine's *surviving* capacity:
  // a half-dead machine running its live half flat out is fully utilized.
  const std::size_t live_clusters = faults_.dead_tcu.empty()
                                        ? s.n_clusters
                                        : faults_.live_clusters();
  const std::size_t live_channels = faults_.failed_channel.empty()
                                        ? s.channels.size()
                                        : faults_.live_channels();
  const double denom = static_cast<double>(s.cycle);
  res.fpu_utilization =
      static_cast<double>(s.fpu_busy) /
      (denom * static_cast<double>(live_clusters * config_.fpus_per_cluster));
  res.lsu_utilization =
      static_cast<double>(s.lsu_busy) /
      (denom * static_cast<double>(live_clusters * config_.lsus_per_cluster));
  res.dram_utilization = static_cast<double>(s.dram_busy) /
                         (denom * static_cast<double>(live_channels));
  sec_.reset();
  return res;
}

// ---- checkpointing ------------------------------------------------------

void save_result(xckpt::Writer& w, const MachineResult& r) {
  w.u64(r.cycles);
  w.u64(r.threads);
  w.u64(r.threads_completed);
  w.u64(r.mem_requests);
  w.u64(r.cache_hits);
  w.u64(r.dram_line_fills);
  w.u64(r.dram_row_hits);
  w.u64(r.fp_ops);
  w.u64(r.int_ops);
  w.u64(r.ps_allocations);
  w.u64(r.max_mm_queue);
  w.u64(r.max_noc_queue);
  w.f64(r.fpu_utilization);
  w.f64(r.lsu_utilization);
  w.f64(r.dram_utilization);
  w.u8(r.truncated ? 1 : 0);
  w.u64(r.outstanding_at_abort);
  w.u64(r.dead_tcus);
  w.u64(r.failed_channels);
  w.u64(r.degraded_links);
  w.u64(r.remapped_fills);
}

MachineResult load_result(xckpt::Reader& r) {
  MachineResult out;
  out.cycles = r.u64();
  out.threads = r.u64();
  out.threads_completed = r.u64();
  out.mem_requests = r.u64();
  out.cache_hits = r.u64();
  out.dram_line_fills = r.u64();
  out.dram_row_hits = r.u64();
  out.fp_ops = r.u64();
  out.int_ops = r.u64();
  out.ps_allocations = r.u64();
  out.max_mm_queue = r.u64();
  out.max_noc_queue = r.u64();
  out.fpu_utilization = r.f64();
  out.lsu_utilization = r.f64();
  out.dram_utilization = r.f64();
  out.truncated = r.u8() != 0;
  out.outstanding_at_abort = r.u64();
  out.dead_tcus = r.u64();
  out.failed_channels = r.u64();
  out.degraded_links = r.u64();
  out.remapped_fills = r.u64();
  return out;
}

void Machine::save(xckpt::Writer& w) const {
  w.u32(kMachineSchema);

  // Configuration fingerprint (verified on restore).
  w.str(config_.name);
  w.u64(config_.tcus);
  w.u64(config_.clusters);
  w.u64(config_.memory_modules);
  w.u64(config_.mot_levels);
  w.u64(config_.butterfly_levels);
  w.u64(config_.mms_per_dram_ctrl);
  w.u64(config_.fpus_per_cluster);
  w.u64(config_.tcus_per_cluster);
  w.u64(config_.lsus_per_cluster);
  w.u64(config_.cache_line_bytes);
  w.u64(config_.cache_bytes_per_mm);

  // Latency fingerprint (verified on restore; different latencies would
  // continue a different simulation). The fixed latencies stay in it so
  // the payload keeps its schema.
  w.u32(opt_.max_outstanding_loads);
  w.u32(kCacheHitLatency);
  w.u32(kDramCyclesPerLine);
  w.u32(kDramRowMissPenalty);
  w.u32(kResponseLatency);

  // Fault map (restored: the degraded machine resumes degraded).
  w.u64(faults_.shape.clusters);
  w.u64(faults_.shape.tcus_per_cluster);
  w.u64(faults_.shape.memory_modules);
  w.u64(faults_.shape.mms_per_dram_ctrl);
  w.u64(faults_.shape.butterfly_levels);
  w.vec_u8(faults_.dead_tcu);
  w.vec_u8(faults_.failed_channel);
  w.vec_u32(faults_.link_period);
  w.f64(faults_.soft_flip_rate);
  w.u64(faults_.seed);

  // Cache tags.
  w.u64(cache_tags_.size());
  for (const auto& mod : cache_tags_) w.vec_u64(mod);

  // Active section.
  w.u8(sec_ != nullptr ? 1 : 0);
  if (sec_ == nullptr) return;
  const Section& s = *sec_;
  w.u64(s.num_threads);
  w.u64(s.next_thread);
  w.u64(s.done_threads);
  w.u64(s.cycle);
  w.u64(s.inflight);
  w.u64(s.fpu_busy);
  w.u64(s.lsu_busy);
  w.u64(s.dram_busy);
  w.u8(s.finished ? 1 : 0);
  save_result(w, s.res);

  w.u64(s.tcu.size());
  for (const TcuState& t : s.tcu) {
    w.u8(t.has_thread ? 1 : 0);
    if (!t.has_thread) continue;
    w.u64(t.pc);
    w.u32(t.remaining);
    w.u32(t.outstanding);
    w.u64(t.program.size());
    for (const Step& step : t.program) {
      w.u8(static_cast<std::uint8_t>(step.kind));
      w.u32(step.count);
      w.u64(step.addr);
    }
  }

  save_delay_pipe(w, s.mot_in);
  w.u64(s.stage_q.size());
  for (const auto& q : s.stage_q) save_request_deque(w, q);
  save_delay_pipe(w, s.mot_out);
  w.u64(s.mm_q.size());
  for (const auto& q : s.mm_q) save_request_deque(w, q);
  w.u64(s.channels.size());
  for (const Channel& ch : s.channels) {
    save_request_deque(w, ch.queue);
    w.u64(ch.busy_until);
    w.u64(ch.last_line);
  }
  w.vec_u64(s.link_free);
  w.u64(s.completions.size());
  for (const Completion& c : s.completions) {
    w.u64(c.first);
    w.u32(c.second);
  }
}

void Machine::load_state(xckpt::Reader& r, const ProgramGenerator& gen) {
  if (const std::uint32_t schema = r.u32(); schema != kMachineSchema) {
    throw xckpt::SnapshotError(
        xckpt::ErrorKind::kBadVersion,
        "machine payload schema v" + std::to_string(schema) +
            ", this build reads v" + std::to_string(kMachineSchema));
  }

  // Configuration fingerprint.
  if (const std::string name = r.str(); name != config_.name) {
    mismatch("snapshot was taken on configuration '" + name +
             "', this machine is '" + config_.name + "'");
  }
  expect_u64(r.u64(), config_.tcus, "tcus");
  expect_u64(r.u64(), config_.clusters, "clusters");
  expect_u64(r.u64(), config_.memory_modules, "memory_modules");
  expect_u64(r.u64(), config_.mot_levels, "mot_levels");
  expect_u64(r.u64(), config_.butterfly_levels, "butterfly_levels");
  expect_u64(r.u64(), config_.mms_per_dram_ctrl, "mms_per_dram_ctrl");
  expect_u64(r.u64(), config_.fpus_per_cluster, "fpus_per_cluster");
  expect_u64(r.u64(), config_.tcus_per_cluster, "tcus_per_cluster");
  expect_u64(r.u64(), config_.lsus_per_cluster, "lsus_per_cluster");
  expect_u64(r.u64(), config_.cache_line_bytes, "cache_line_bytes");
  expect_u64(r.u64(), config_.cache_bytes_per_mm, "cache_bytes_per_mm");

  expect_u64(r.u32(), opt_.max_outstanding_loads, "max_outstanding_loads");
  expect_u64(r.u32(), kCacheHitLatency, "cache_hit_latency");
  expect_u64(r.u32(), kDramCyclesPerLine, "dram_cycles_per_line");
  expect_u64(r.u32(), kDramRowMissPenalty, "dram_row_miss_penalty");
  expect_u64(r.u32(), kResponseLatency, "response_latency");

  // Fault map.
  xfault::FaultMap faults;
  faults.shape.clusters = r.u64();
  faults.shape.tcus_per_cluster = r.u64();
  faults.shape.memory_modules = r.u64();
  faults.shape.mms_per_dram_ctrl = r.u64();
  faults.shape.butterfly_levels = r.u64();
  faults.dead_tcu = r.vec_u8();
  faults.failed_channel = r.vec_u8();
  faults.link_period = r.vec_u32();
  faults.soft_flip_rate = r.f64();
  faults.seed = r.u64();
  const xfault::MachineShape want = fault_shape(config_);
  const bool empty_map = faults.dead_tcu.empty() &&
                         faults.failed_channel.empty() &&
                         faults.link_period.empty();
  if (empty_map) {
    faults.shape = want;  // a healthy machine snapshots a shapeless map
  } else if (faults.shape.clusters != want.clusters ||
             faults.shape.tcus_per_cluster != want.tcus_per_cluster ||
             faults.shape.memory_modules != want.memory_modules ||
             faults.shape.mms_per_dram_ctrl != want.mms_per_dram_ctrl ||
             faults.shape.butterfly_levels != want.butterfly_levels) {
    mismatch("fault map shape does not match the machine configuration");
  }
  faults_ = std::move(faults);

  // Cache tags.
  const std::uint64_t n_modules = r.u64();
  expect_u64(n_modules, config_.memory_modules, "cache module count");
  const std::size_t lines =
      config_.cache_bytes_per_mm / config_.cache_line_bytes;
  cache_tags_.clear();
  cache_tags_.reserve(static_cast<std::size_t>(n_modules));
  for (std::uint64_t m = 0; m < n_modules; ++m) {
    auto mod = r.vec_u64();
    expect_u64(mod.size(), lines, "cache lines per module");
    cache_tags_.push_back(std::move(mod));
  }

  // Active section.
  if (r.u8() == 0) {
    sec_.reset();
    return;
  }
  auto sec = std::make_unique<Section>();
  Section& s = *sec;
  s.num_threads = r.u64();
  s.next_thread = r.u64();
  s.done_threads = r.u64();
  s.cycle = r.u64();
  s.inflight = r.u64();
  s.fpu_busy = r.u64();
  s.lsu_busy = r.u64();
  s.dram_busy = r.u64();
  s.finished = r.u8() != 0;
  s.res = load_result(r);
  s.gen = gen;
  s.init_derived(config_, faults_);

  const std::uint64_t n_tcus = r.u64();
  expect_u64(n_tcus, s.n_tcus, "TCU count");
  s.tcu.assign(s.n_tcus, TcuState{});
  for (std::uint64_t t = 0; t < n_tcus; ++t) {
    TcuState& st = s.tcu[static_cast<std::size_t>(t)];
    st.has_thread = r.u8() != 0;
    if (!st.has_thread) continue;
    st.pc = static_cast<std::size_t>(r.u64());
    st.remaining = r.u32();
    st.outstanding = r.u32();
    const std::uint64_t steps = r.u64();
    st.program.resize(static_cast<std::size_t>(steps));
    for (Step& step : st.program) {
      step.kind = static_cast<Step::Kind>(r.u8());
      step.count = r.u32();
      step.addr = r.u64();
    }
    if (st.pc > st.program.size()) {
      mismatch("TCU program counter past the end of its program");
    }
  }

  s.mot_in = load_delay_pipe(r);
  const std::uint64_t n_stage_q = r.u64();
  expect_u64(n_stage_q,
             static_cast<std::uint64_t>(s.bf_stages) * s.n_clusters,
             "butterfly stage queue count");
  s.stage_q.resize(static_cast<std::size_t>(n_stage_q));
  for (auto& q : s.stage_q) q = load_request_deque(r);
  s.mot_out = load_delay_pipe(r);
  const std::uint64_t n_mm_q = r.u64();
  expect_u64(n_mm_q, config_.memory_modules, "memory module queue count");
  s.mm_q.resize(static_cast<std::size_t>(n_mm_q));
  for (auto& q : s.mm_q) q = load_request_deque(r);
  const std::uint64_t n_channels = r.u64();
  expect_u64(n_channels, config_.dram_channels(), "DRAM channel count");
  s.channels.assign(static_cast<std::size_t>(n_channels), Channel{});
  for (Channel& ch : s.channels) {
    ch.queue = load_request_deque(r);
    ch.busy_until = r.u64();
    ch.last_line = r.u64();
  }
  s.link_free = r.vec_u64();
  if (!s.link_free.empty() && s.link_free.size() != s.stage_q.size()) {
    mismatch("degraded-link table size does not match the NoC");
  }
  const std::uint64_t n_completions = r.u64();
  s.completions.resize(static_cast<std::size_t>(n_completions));
  for (Completion& c : s.completions) {
    c.first = r.u64();
    c.second = r.u32();
  }
  // Requests and completions index TCUs and modules; CRC already vouches
  // for the bytes, but bounds keep a logic bug from becoming an OOB write.
  for (const Completion& c : s.completions) {
    if (c.second >= s.n_tcus) mismatch("completion for a TCU out of range");
  }
  s.rebuild_awake(opt_.max_outstanding_loads);

  sec_ = std::move(sec);
}

void Machine::restore(xckpt::Reader& r, const ProgramGenerator& gen) {
  // Deserialize into a scratch machine and swap only on success: a
  // damaged snapshot (SnapshotError mid-parse) leaves this machine
  // exactly as it was — restore never half-applies.
  Machine scratch(config_, opt_);
  scratch.load_state(r, gen);
  *this = std::move(scratch);
}

}  // namespace xsim
