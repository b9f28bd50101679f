// Machine-level checkpoint/restore tests: slicing and snapshotting the
// cycle-level simulator never changes what it computes. "Identical" is
// always byte-identical serialized results, never approximate.
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "xckpt/ring.hpp"
#include "xckpt/snapshot.hpp"
#include "xfft/types.hpp"
#include "xfft/xmt_kernel.hpp"
#include "xsim/ckpt_run.hpp"
#include "xsim/config.hpp"
#include "xsim/fft_on_machine.hpp"
#include "xsim/fft_traffic.hpp"
#include "xsim/machine.hpp"
#include "xsim/scaled_config.hpp"
#include "xutil/check.hpp"

namespace {

namespace fs = std::filesystem;

xsim::MachineConfig small_config() {
  return xsim::scaled_down(xsim::preset_64k(), 16);
}

const xfft::Dims3 kDims{32, 32, 1};

std::vector<std::uint8_t> bytes_of(const xsim::DetailedFftResult& r) {
  xckpt::Writer w;
  w.u64(r.total_cycles);
  w.u8(r.truncated ? 1 : 0);
  w.u64(r.phases.size());
  for (const auto& ph : r.phases) {
    w.str(ph.name);
    xsim::save_result(w, ph.result);
  }
  return {w.data().begin(), w.data().end()};
}

class MachineCkpt : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("xckpt-machine-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(MachineCkpt, SlicedCheckpointedRunMatchesUninterruptedBitwise) {
  xsim::Machine plain(small_config());
  const auto ref = xsim::run_fft_on_machine(plain, kDims);

  xsim::Machine sliced(small_config());
  xckpt::CheckpointRing ring(dir_, xckpt::kTagMachineRun);
  xsim::CheckpointedRunOptions copt;
  copt.every = 300;  // many slices and snapshots per phase
  const auto st =
      xsim::run_fft_checkpointed(sliced, ring, kDims, 8, {}, copt);
  EXPECT_FALSE(st.interrupted);
  EXPECT_FALSE(st.resumed);
  EXPECT_GT(st.snapshots, 1u);
  EXPECT_EQ(bytes_of(st.result), bytes_of(ref));
}

TEST_F(MachineCkpt, InterruptResumeChainIsBitIdentical) {
  xsim::Machine plain(small_config());
  const auto ref = xsim::run_fft_on_machine(plain, kDims);

  // Stop after every few snapshots, then resume in a brand-new Machine —
  // the worst-case "crash loop" where no process state survives.
  xsim::CheckpointedRunStatus st;
  unsigned sessions = 0;
  for (;; ++sessions) {
    ASSERT_LT(sessions, 100u) << "resume chain did not converge";
    xsim::Machine machine(small_config());
    xckpt::CheckpointRing ring(dir_, xckpt::kTagMachineRun);
    xsim::CheckpointedRunOptions copt;
    copt.every = 250;
    copt.resume = true;
    unsigned polls = 0;
    copt.interrupted = [&polls] { return ++polls >= 3; };
    st = xsim::run_fft_checkpointed(machine, ring, kDims, 8, {}, copt);
    if (!st.interrupted) break;
  }
  EXPECT_GT(sessions, 2u) << "test never actually interrupted";
  EXPECT_TRUE(st.resumed);
  EXPECT_EQ(bytes_of(st.result), bytes_of(ref));
}

TEST_F(MachineCkpt, TransformWithNoPhasesIsRefused) {
  xsim::Machine machine(small_config());
  xckpt::CheckpointRing ring(dir_, xckpt::kTagMachineRun);
  EXPECT_THROW((void)xsim::run_fft_checkpointed(
                   machine, ring, xfft::Dims3{1, 1, 1}, 8, {}, {}),
               xutil::Error);
}

TEST_F(MachineCkpt, ResumeRejectsDifferentRun) {
  {
    xsim::Machine machine(small_config());
    xckpt::CheckpointRing ring(dir_, xckpt::kTagMachineRun);
    xsim::CheckpointedRunOptions copt;
    copt.every = 300;
    (void)xsim::run_fft_checkpointed(machine, ring, kDims, 8, {}, copt);
  }
  // Same directory, different dims: the fingerprint must refuse.
  xsim::Machine machine(small_config());
  xckpt::CheckpointRing ring(dir_, xckpt::kTagMachineRun);
  xsim::CheckpointedRunOptions copt;
  copt.resume = true;
  try {
    (void)xsim::run_fft_checkpointed(machine, ring, xfft::Dims3{64, 32, 1},
                                     8, {}, copt);
    FAIL() << "resumed a checkpoint for different dims";
  } catch (const xckpt::SnapshotError& e) {
    EXPECT_EQ(e.kind, xckpt::ErrorKind::kMismatch);
  }
}

TEST_F(MachineCkpt, RestoreRejectsDifferentMachineShape) {
  const auto phases = xfft::build_fft_phases(kDims, 8);
  const auto gen = xsim::make_fft_phase_generator(small_config(), kDims,
                                                  phases[0], {});
  xsim::Machine a(small_config());
  a.begin_section(phases[0].threads, gen, /*keep_cache=*/false);
  (void)a.advance_section(500);
  xckpt::Writer w;
  a.save(w);

  // A machine with a different cluster count must refuse the snapshot and
  // keep its own state intact (restore never half-applies).
  const auto other_cfg = xsim::scaled_down(xsim::preset_64k(), 32);
  xsim::Machine b(other_cfg);
  xckpt::Reader r(w.data());
  const auto other_gen =
      xsim::make_fft_phase_generator(other_cfg, kDims, phases[0], {});
  try {
    b.restore(r, other_gen);
    FAIL() << "restored a snapshot from a different machine shape";
  } catch (const xckpt::SnapshotError& e) {
    EXPECT_EQ(e.kind, xckpt::ErrorKind::kMismatch);
  }
  EXPECT_FALSE(b.section_active());
}

TEST_F(MachineCkpt, MidSectionSaveRestoreConvergesIdentically) {
  const auto phases = xfft::build_fft_phases(kDims, 8);
  const auto cfg = small_config();
  const auto gen =
      xsim::make_fft_phase_generator(cfg, kDims, phases[0], {});

  // Reference: one uninterrupted section.
  xsim::Machine ref(cfg);
  const auto ref_result =
      ref.run_parallel_section(phases[0].threads, gen, /*keep_cache=*/false);

  // Save mid-section, restore into a fresh machine, finish there.
  xsim::Machine a(cfg);
  a.begin_section(phases[0].threads, gen, /*keep_cache=*/false);
  const bool finished_early = a.advance_section(ref_result.cycles / 2);
  ASSERT_FALSE(finished_early);
  xckpt::Writer w;
  a.save(w);

  xsim::Machine b(cfg);
  xckpt::Reader r(w.data());
  b.restore(r, gen);
  ASSERT_TRUE(b.section_active());
  EXPECT_EQ(b.section_cycle(), ref_result.cycles / 2);
  while (!b.advance_section(1000)) {
  }
  const auto got = b.end_section();

  xckpt::Writer wa;
  xckpt::Writer wb;
  xsim::save_result(wa, ref_result);
  xsim::save_result(wb, got);
  EXPECT_EQ(wa.data(), wb.data());
}

}  // namespace
