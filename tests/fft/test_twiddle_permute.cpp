// Tests for twiddle tables (incl. the paper's replicated/decimating LUT)
// and digit-reversal permutations.
#include <gtest/gtest.h>

#include "xutil/check.hpp"

#include <cmath>
#include <numbers>
#include <set>

#include "xfft/permute.hpp"
#include "xfft/twiddle.hpp"

namespace {

using xfft::Cf;
using xfft::Direction;
using xfft::ReplicatedTwiddleTable;
using xfft::TwiddleTable;

TEST(TwiddleTable, HoldsNthRootsOfUnity) {
  const std::size_t n = 64;
  const TwiddleTable<double> tw(n, Direction::kForward);
  for (std::size_t k = 0; k < n; ++k) {
    const double a = -2.0 * std::numbers::pi * static_cast<double>(k) /
                     static_cast<double>(n);
    EXPECT_NEAR(tw[k].real(), std::cos(a), 1e-14);
    EXPECT_NEAR(tw[k].imag(), std::sin(a), 1e-14);
  }
}

TEST(TwiddleTable, InverseIsConjugate) {
  const std::size_t n = 32;
  const TwiddleTable<double> fwd(n, Direction::kForward);
  const TwiddleTable<double> inv(n, Direction::kInverse);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fwd[k].real(), inv[k].real(), 1e-15);
    EXPECT_NEAR(fwd[k].imag(), -inv[k].imag(), 1e-15);
  }
}

TEST(ReplicatedTwiddle, ReadsSpreadOverReplicas) {
  const std::size_t n = 16;
  const std::size_t copies = 4;
  const ReplicatedTwiddleTable tab(n, copies, Direction::kForward);
  std::set<std::size_t> replicas_used;
  for (std::size_t thread = 0; thread < 8; ++thread) {
    replicas_used.insert(tab.storage_index(thread, 3) / n);
  }
  EXPECT_EQ(replicas_used.size(), copies);
}

TEST(ReplicatedTwiddle, AllReplicasReturnSameRoot) {
  const std::size_t n = 16;
  const ReplicatedTwiddleTable tab(n, 3, Direction::kForward);
  const TwiddleTable<float> master(n, Direction::kForward);
  for (std::size_t t = 0; t < 6; ++t) {
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(tab.read(t, k), master[k]);
    }
  }
}

TEST(ReplicatedTwiddle, DecimationKeepsLiveRootsReadable) {
  // After a radix-r iteration only every r-th root is live; those must be
  // unchanged, and every dead slot must replicate the preceding live root
  // (Section IV-A's replacement scheme).
  const std::size_t n = 64;
  const unsigned r = 4;
  ReplicatedTwiddleTable tab(n, 2, Direction::kForward);
  const TwiddleTable<float> master(n, Direction::kForward);

  tab.decimate(r);
  EXPECT_EQ(tab.live_roots(), n / r);
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t live_k = k - (k % r);
      EXPECT_EQ(tab.read(t, k), master[live_k]) << "k=" << k;
    }
  }

  // Second decimation compounds: live roots are multiples of r^2.
  tab.decimate(r);
  EXPECT_EQ(tab.live_roots(), n / (r * r));
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t live_k = k - (k % (r * r));
    EXPECT_EQ(tab.read(0, k), master[live_k]) << "k=" << k;
  }
}

TEST(ReplicatedTwiddle, CopiesForMachineCoversAllModules) {
  // 512-entry table, 128 cache modules, 4 complex elements per 32-byte
  // line: one copy spans 128 lines, exactly covering the modules.
  EXPECT_EQ(ReplicatedTwiddleTable::copies_for_machine(512, 128, 1024, 4), 1u);
  // 2048 modules need 16 copies of the same table.
  EXPECT_EQ(ReplicatedTwiddleTable::copies_for_machine(512, 2048, 1024, 4),
            16u);
  // A huge table always needs only one copy.
  EXPECT_EQ(ReplicatedTwiddleTable::copies_for_machine(1 << 20, 128, 1024, 4),
            1u);
}

TEST(ReplicatedTwiddle, DecimationRequiresDivisibility) {
  ReplicatedTwiddleTable tab(27, 1, Direction::kForward);
  EXPECT_NO_THROW(tab.decimate(3));
  EXPECT_THROW(tab.decimate(2), xutil::Error);
}

TEST(BitReverse, KnownValues) {
  EXPECT_EQ(xfft::bit_reverse(0b000, 3), 0b000u);
  EXPECT_EQ(xfft::bit_reverse(0b001, 3), 0b100u);
  EXPECT_EQ(xfft::bit_reverse(0b011, 3), 0b110u);
  EXPECT_EQ(xfft::bit_reverse(0b101, 3), 0b101u);
}

TEST(BitReverse, IsAnInvolution) {
  for (std::size_t v = 0; v < 256; ++v) {
    EXPECT_EQ(xfft::bit_reverse(xfft::bit_reverse(v, 8), 8), v);
  }
}

TEST(DifPermutation, Radix2EqualsBitReversal) {
  const unsigned radices[] = {2, 2, 2, 2};
  const auto perm = xfft::dif_output_permutation(radices, 16);
  for (std::size_t k = 0; k < 16; ++k) {
    EXPECT_EQ(perm[k], xfft::bit_reverse(k, 4)) << "k=" << k;
  }
}

TEST(DifPermutation, IsAPermutation) {
  const unsigned radices[] = {8, 4, 2};
  const auto perm = xfft::dif_output_permutation(radices, 64);
  std::set<std::uint32_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 64u);
  EXPECT_EQ(*seen.rbegin(), 63u);
}

TEST(DifPermutation, RejectsMismatchedRadices) {
  const unsigned radices[] = {8, 4};
  EXPECT_THROW(xfft::dif_output_permutation(radices, 64), xutil::Error);
}

TEST(Permute, GatherThenInPlaceAgree) {
  const std::size_t n = 24;
  const unsigned radices[] = {4, 3, 2};
  const auto perm = xfft::dif_output_permutation(radices, n);
  std::vector<Cf> data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = Cf(static_cast<float>(i), 1.0F);

  std::vector<Cf> gathered(n);
  xfft::gather_permute(std::span<const Cf>(data), std::span<Cf>(gathered),
                       perm);
  auto in_place = data;
  xfft::permute_in_place(std::span<Cf>(in_place), perm);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(in_place[i], gathered[i]) << "i=" << i;
  }
}

}  // namespace
