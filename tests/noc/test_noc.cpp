// Tests for NoC topology and the analytic contention model. The orderings
// the model assumes are checked on the cycle-level machine's interconnect
// (MachineNoc.* in tests/sim/test_machine.cpp).
#include <gtest/gtest.h>

#include "xnoc/contention.hpp"
#include "xnoc/topology.hpp"
#include "xutil/check.hpp"

namespace {

using xnoc::ContentionParams;
using xnoc::hybrid;
using xnoc::pure_mot;
using xnoc::Topology;
using xnoc::TrafficPattern;

TEST(Topology, PureMotLevelsMatchTableII) {
  // 4k: 128x128 -> 14 levels; 8k: 256x256 -> 16 levels.
  EXPECT_EQ(pure_mot(128, 128).mot_levels, 14u);
  EXPECT_EQ(pure_mot(256, 256).mot_levels, 16u);
  EXPECT_TRUE(pure_mot(128, 128).is_pure_mot());
}

TEST(Topology, HybridLevelSplitsOfTableII) {
  const Topology t64k = hybrid(2048, 2048, 8, 7);
  EXPECT_EQ(t64k.total_levels(), 15u);
  const Topology t128k = hybrid(4096, 4096, 6, 9);
  EXPECT_EQ(t128k.total_levels(), 15u);
}

TEST(Topology, RejectsInvalidConfigurations) {
  EXPECT_THROW(xnoc::validate(Topology{100, 128, 14, 0}), xutil::Error);
  EXPECT_THROW(xnoc::validate(Topology{128, 128, 10, 0}), xutil::Error);
  EXPECT_THROW(xnoc::validate(Topology{128, 128, 10, 9}), xutil::Error);
}

TEST(Topology, PureMotSwitchCountIsQuadratic) {
  // C*(M-1) + M*(C-1) = 2CM - C - M.
  EXPECT_EQ(xnoc::switch_count(pure_mot(256, 256)), 2u * 256 * 256 - 512);
  EXPECT_EQ(xnoc::switch_count(pure_mot(4, 4)), 24u);
}

TEST(Topology, PaperNocAreaAnchors) {
  // Section II-B: 8k TCUs (256x256) needs 190 mm^2 of MoT; 16k (512x512)
  // needs 760 mm^2 — i.e. 4x the switches.
  const auto s8k = xnoc::switch_count(pure_mot(256, 256));
  const auto s16k = xnoc::switch_count(pure_mot(512, 512));
  EXPECT_NEAR(static_cast<double>(s16k) / static_cast<double>(s8k), 4.0,
              0.02);
}

TEST(Topology, HybridHasFarFewerSwitchesThanPureMot) {
  const auto pure = xnoc::switch_count(pure_mot(2048, 2048));
  const auto hyb = xnoc::switch_count(hybrid(2048, 2048, 8, 7));
  EXPECT_LT(hyb, pure / 10);
}

TEST(Contention, PureMotIsNonBlocking) {
  EXPECT_DOUBLE_EQ(
      xnoc::efficiency(pure_mot(128, 128), TrafficPattern::kUniform), 1.0);
  EXPECT_DOUBLE_EQ(
      xnoc::efficiency(pure_mot(128, 128), TrafficPattern::kTranspose), 1.0);
}

TEST(Contention, ButterflyLevelsCompound) {
  const Topology t7 = hybrid(2048, 2048, 8, 7);
  const Topology t9 = hybrid(4096, 4096, 6, 9);
  const double u7 = xnoc::efficiency(t7, TrafficPattern::kUniform);
  const double u9 = xnoc::efficiency(t9, TrafficPattern::kUniform);
  EXPECT_GT(u7, u9);
  EXPECT_GT(u9, 0.8);  // uniform traffic loses little
  const double r7 = xnoc::efficiency(t7, TrafficPattern::kTranspose);
  const double r9 = xnoc::efficiency(t9, TrafficPattern::kTranspose);
  EXPECT_GT(r7, r9);
  EXPECT_LT(r7, u7);  // transpose always worse than uniform
}

TEST(Contention, HotSpotCollapsesToSingleModuleRate) {
  const Topology t = pure_mot(128, 128);
  EXPECT_DOUBLE_EQ(xnoc::efficiency(t, TrafficPattern::kHotSpot),
                   1.0 / 128.0);
}

}  // namespace
