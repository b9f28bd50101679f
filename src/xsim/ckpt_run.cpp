#include "xsim/ckpt_run.hpp"

#include <utility>

#include "xckpt/ring.hpp"
#include "xckpt/snapshot.hpp"
#include "xsim/fft_traffic.hpp"

namespace xsim {

namespace {

constexpr std::uint32_t kRunSchema = 1;

/// The run identity: a snapshot of one FFT run must never resume a
/// different one. Configuration/latency identity is checked separately by
/// Machine::restore.
void save_fingerprint(xckpt::Writer& w, xfft::Dims3 dims,
                      unsigned max_radix, const FftTrafficOptions& t) {
  w.u64(dims.nx);
  w.u64(dims.ny);
  w.u64(dims.nz);
  w.u32(max_radix);
  w.u32(t.twiddle_copies);
  w.u8(t.twiddle_on_demand ? 1 : 0);
  // The fixed traffic constants stay in the fingerprint so the payload
  // keeps its schema.
  w.u32(kOnDemandTwiddleFlops);
  w.u64(kDataBase);
  w.u64(kRotatedBase);
  w.u64(kTwiddleBase);
}

void check_fingerprint(xckpt::Reader& r, xfft::Dims3 dims,
                       unsigned max_radix, const FftTrafficOptions& t) {
  const bool same = r.u64() == dims.nx && r.u64() == dims.ny &&
                    r.u64() == dims.nz && r.u32() == max_radix &&
                    r.u32() == t.twiddle_copies &&
                    (r.u8() != 0) == t.twiddle_on_demand &&
                    r.u32() == kOnDemandTwiddleFlops &&
                    r.u64() == kDataBase && r.u64() == kRotatedBase &&
                    r.u64() == kTwiddleBase;
  if (!same) {
    throw xckpt::SnapshotError(
        xckpt::ErrorKind::kMismatch,
        "checkpoint belongs to a different FFT run (dims/radix/traffic "
        "differ) — use a fresh --checkpoint-dir or drop --resume");
  }
}

}  // namespace

CheckpointedRunStatus run_fft_checkpointed(Machine& machine,
                                           xckpt::CheckpointRing& ring,
                                           xfft::Dims3 dims,
                                           unsigned max_radix,
                                           FftTrafficOptions traffic,
                                           const CheckpointedRunOptions& opt) {
  CheckpointedRunStatus status;
  DetailedFftResult& out = status.result;
  const auto phases = xfft::build_fft_phases(dims, max_radix);
  std::size_t phase_index = 0;  // phases fully simulated so far

  const auto generator_for = [&](std::size_t pi) {
    // A finished run's snapshot has no active section; the generator is
    // unused but restore still needs one, so clamp to the last phase.
    const std::size_t clamped = pi < phases.size() ? pi : phases.size() - 1;
    return make_fft_phase_generator(machine.config(), dims, phases[clamped],
                                    traffic);
  };

  if (opt.resume) {
    if (auto loaded = ring.load_latest()) {
      status.fallbacks = loaded->skipped.size();
      xckpt::Reader r(loaded->payload);
      if (const std::uint32_t schema = r.u32(); schema != kRunSchema) {
        throw xckpt::SnapshotError(
            xckpt::ErrorKind::kBadVersion,
            "run payload schema v" + std::to_string(schema) +
                ", this build reads v" + std::to_string(kRunSchema));
      }
      check_fingerprint(r, dims, max_radix, traffic);
      phase_index = static_cast<std::size_t>(r.u64());
      if (phase_index > phases.size()) {
        throw xckpt::SnapshotError(xckpt::ErrorKind::kMismatch,
                                   "phase index past the end of the plan");
      }
      out.total_cycles = r.u64();
      out.truncated = r.u8() != 0;
      const std::uint64_t n_done = r.u64();
      if (n_done != phase_index) {
        throw xckpt::SnapshotError(xckpt::ErrorKind::kMismatch,
                                   "phase journal out of step");
      }
      out.phases.clear();
      for (std::uint64_t i = 0; i < n_done; ++i) {
        DetailedFftResult::Phase ph;
        ph.name = r.str();
        ph.result = load_result(r);
        out.phases.push_back(std::move(ph));
      }
      machine.restore(r, generator_for(phase_index));
      status.resumed = true;
      status.resumed_generation = loaded->generation;
      status.resumed_cycles =
          out.total_cycles +
          (machine.section_active() ? machine.section_cycle() : 0);
    }
  }

  const auto snapshot = [&] {
    xckpt::Writer w;
    w.u32(kRunSchema);
    save_fingerprint(w, dims, max_radix, traffic);
    w.u64(phase_index);
    w.u64(out.total_cycles);
    w.u8(out.truncated ? 1 : 0);
    w.u64(out.phases.size());
    for (const auto& ph : out.phases) {
      w.str(ph.name);
      save_result(w, ph.result);
    }
    machine.save(w);
    ring.save(w.data());
    ++status.snapshots;
  };

  const auto want_stop = [&] {
    return opt.interrupted && opt.interrupted();
  };

  const std::uint64_t slice =
      opt.every == 0 ? ~std::uint64_t{0} : opt.every;

  while (phase_index < phases.size() && !out.truncated) {
    const xfft::KernelPhase& ph = phases[phase_index];
    if (!machine.section_active()) {
      // First phase starts cold; later iterations inherit whatever the
      // previous pass left resident (twiddles, tail of the data stream).
      machine.begin_section(ph.threads, generator_for(phase_index),
                            /*keep_cache=*/phase_index != 0);
    }
    while (!machine.advance_section(slice)) {
      snapshot();
      if (want_stop()) {
        status.interrupted = true;
        return status;
      }
    }
    const MachineResult r = machine.end_section();
    out.total_cycles += r.cycles;
    out.phases.push_back({ph.name, r});
    if (r.truncated) {
      // Later phases would start from an inconsistent machine state; keep
      // the partial telemetry and stop.
      out.truncated = true;
    }
    ++phase_index;
    if (opt.every != 0 || want_stop()) snapshot();
    if (want_stop()) {
      status.interrupted = true;
      return status;
    }
  }
  return status;
}

}  // namespace xsim
