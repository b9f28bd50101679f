// Plan-cache tests plus randomized differential ("fuzz") tests that sweep
// random shapes, radices, and directions against the oracle.
#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "xfft/dft_reference.hpp"
#include "xfft/plan_cache.hpp"
#include "xutil/check.hpp"
#include "xutil/rng.hpp"

namespace {

using xfft::Cf;
using xfft::Dims3;
using xfft::Direction;
using xfft::PlanCache;
using xfft_test::random_signal;
using xfft_test::relative_max_error;
using xfft_test::tol_f;

TEST(PlanCache, ReusesPlansAndCountsHits) {
  PlanCache cache;
  const auto a = cache.plan_nd(Dims3{256, 1, 1}, Direction::kForward);
  const auto b = cache.plan_nd(Dims3{256, 1, 1}, Direction::kForward);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  // Different key dimensions create distinct plans.
  const auto c = cache.plan_nd(Dims3{256, 1, 1}, Direction::kInverse);
  const auto d = cache.plan_nd(Dims3{256, 1, 1}, Direction::kForward,
                               xfft::PlanND<float>::Options{.max_radix = 2});
  EXPECT_NE(a.get(), c.get());
  EXPECT_NE(a.get(), d.get());
  EXPECT_EQ(cache.size(), 3u);
}

TEST(PlanCache, NdPlansKeyedOnShapeAndMode) {
  PlanCache cache;
  const auto a = cache.plan_nd(Dims3{8, 8, 1}, Direction::kForward);
  const auto b = cache.plan_nd(Dims3{8, 8, 1}, Direction::kForward);
  const auto c = cache.plan_nd(Dims3{8, 8, 2}, Direction::kForward);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
}

TEST(PlanCache, ClearKeepsOutstandingPlansAlive) {
  PlanCache cache;
  auto plan = cache.plan_nd(Dims3{64, 1, 1}, Direction::kForward);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  auto x = random_signal(64, 1);
  EXPECT_NO_THROW(plan->execute(std::span<Cf>(x)));  // still valid
}

TEST(PlanCache, LruEvictsLeastRecentlyUsedAcrossBothKeySpaces) {
  // Capacity 2: insert A and B, touch A (a hit refreshes recency), insert
  // C — B is the LRU victim, A and C stay resident.
  PlanCache cache(2);
  EXPECT_EQ(cache.capacity(), 2u);
  const auto a = cache.plan_nd(Dims3{64, 1, 1}, Direction::kForward);
  const auto b = cache.plan_nd(Dims3{128, 1, 1}, Direction::kForward);
  (void)cache.plan_nd(Dims3{64, 1, 1}, Direction::kForward);  // touch A
  EXPECT_EQ(cache.hits(), 1u);
  // C is a 2-D plan: recency ordering spans every rank.
  (void)cache.plan_nd(Dims3{8, 8, 1}, Direction::kForward);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);

  // A still resident (hit); B was evicted (miss rebuilds a fresh plan).
  const auto a2 = cache.plan_nd(Dims3{64, 1, 1}, Direction::kForward);
  EXPECT_EQ(a2.get(), a.get());
  EXPECT_EQ(cache.hits(), 2u);
  const auto b2 = cache.plan_nd(Dims3{128, 1, 1}, Direction::kForward);
  EXPECT_NE(b2.get(), b.get());
  EXPECT_EQ(cache.evictions(), 2u);  // reinserting B evicted the next LRU

  // The evicted plan stays alive and usable through its shared_ptr.
  auto x = random_signal(128, 3);
  EXPECT_NO_THROW(b->execute(std::span<Cf>(x)));
}

TEST(PlanCache, SetCapacityShrinksAndEvictsInLruOrder) {
  PlanCache cache(8);
  (void)cache.plan_nd(Dims3{32, 1, 1}, Direction::kForward);
  (void)cache.plan_nd(Dims3{64, 1, 1}, Direction::kForward);
  (void)cache.plan_nd(Dims3{128, 1, 1}, Direction::kForward);
  (void)cache.plan_nd(Dims3{32, 1, 1}, Direction::kForward);  // refresh 32
  cache.set_capacity(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 2u);
  // The survivor is the most recently used entry.
  (void)cache.plan_nd(Dims3{32, 1, 1}, Direction::kForward);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_THROW(cache.set_capacity(0), xutil::Error);
}

TEST(PlanCache, CachedConvenienceCallsMatchDirectPlans) {
  auto a = random_signal(128, 2);
  auto b = a;
  xfft::fft_cached_nd(std::span<Cf>(a), Dims3{128, 1, 1}, Direction::kForward);
  xfft::Plan1D<float> plan(128, Direction::kForward);
  plan.execute(std::span<Cf>(b));
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

// ---------------------------------------------------------------------------
// Randomized differential sweeps.
// ---------------------------------------------------------------------------

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, RandomSmooth1DShapesMatchOracle) {
  xutil::Pcg32 rng(GetParam());
  // Random smooth size: product of random small factors, capped at 2048.
  std::size_t n = 1;
  const unsigned factors[] = {2, 2, 2, 3, 4, 5, 7, 8};
  while (true) {
    const unsigned f = factors[rng.next_below(8)];
    if (n * f > 2048) break;
    n *= f;
  }
  if (n < 2) n = 2;

  auto x = random_signal(n, GetParam() * 31 + n);
  const auto want = xfft_test::oracle(x, Direction::kForward);
  const xfft::Plan1D<float> plan(
      n, Direction::kForward,
      xfft::PlanOptions{.scaling = xfft::Scaling::kNone});
  plan.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(n)) << "n=" << n;
}

TEST_P(FuzzSeeds, Random3DShapesRoundTrip) {
  xutil::Pcg32 rng(GetParam() + 9000);
  const std::size_t sides[] = {1, 2, 3, 4, 6, 8, 12, 16};
  const Dims3 dims{sides[rng.next_below(8)], sides[rng.next_below(8)],
                   sides[rng.next_below(8)]};
  const auto original = random_signal(dims.total(), GetParam());
  auto x = original;
  xfft::PlanND<float> fwd(dims, Direction::kForward);
  xfft::PlanND<float> inv(dims, Direction::kInverse);
  fwd.execute(std::span<Cf>(x));
  inv.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, original)), tol_f(dims.total()))
      << dims.nx << "x" << dims.ny << "x" << dims.nz;
}

TEST_P(FuzzSeeds, Random3DForwardMatchesOracle) {
  xutil::Pcg32 rng(GetParam() + 7777);
  const std::size_t sides[] = {2, 3, 4, 5, 8};
  const Dims3 dims{sides[rng.next_below(5)], sides[rng.next_below(5)],
                   sides[rng.next_below(5)]};
  auto x = random_signal(dims.total(), GetParam() * 3);
  std::vector<xfft::Cd> in_d(x.size());
  std::vector<xfft::Cd> want(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    in_d[i] = xfft::Cd{x[i].real(), x[i].imag()};
  }
  xfft::dft_reference_3d(in_d, std::span<xfft::Cd>(want), dims,
                         Direction::kForward);
  xfft::PlanND<float> plan(dims, Direction::kForward);
  plan.execute(std::span<Cf>(x));
  double max_err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    max_err = std::max(max_err, std::abs(xfft::Cd{x[i].real(), x[i].imag()} -
                                         want[i]));
  }
  EXPECT_LT(max_err, 1e-3 * static_cast<double>(dims.total()))
      << dims.nx << "x" << dims.ny << "x" << dims.nz;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
