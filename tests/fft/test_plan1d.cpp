// Unit and property tests for the 1-D mixed-radix DIF plan (xfft::Plan1D),
// checked against the O(N^2) double-precision oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <numeric>

#include "test_helpers.hpp"
#include "xfft/butterflies.hpp"
#include "xfft/plan1d.hpp"

namespace {

using xfft::Cf;
using xfft::Direction;
using xfft::Plan1D;
using xfft::PlanOptions;
using xfft::Scaling;
using xfft_test::oracle;
using xfft_test::random_signal;
using xfft_test::relative_max_error;
using xfft_test::tol_f;

TEST(ChooseRadices, PowersOfTwoPreferEight) {
  EXPECT_EQ(xfft::choose_radices(512), (std::vector<unsigned>{8, 8, 8}));
  EXPECT_EQ(xfft::choose_radices(64), (std::vector<unsigned>{8, 8}));
  EXPECT_EQ(xfft::choose_radices(16), (std::vector<unsigned>{8, 2}));
  EXPECT_EQ(xfft::choose_radices(32), (std::vector<unsigned>{8, 4}));
  EXPECT_EQ(xfft::choose_radices(2), (std::vector<unsigned>{2}));
  EXPECT_EQ(xfft::choose_radices(4), (std::vector<unsigned>{4}));
}

TEST(ChooseRadices, RespectsMaxRadix) {
  EXPECT_EQ(xfft::choose_radices(64, 2),
            (std::vector<unsigned>{2, 2, 2, 2, 2, 2}));
  EXPECT_EQ(xfft::choose_radices(64, 4), (std::vector<unsigned>{4, 4, 4}));
  EXPECT_EQ(xfft::choose_radices(128, 4), (std::vector<unsigned>{4, 4, 4, 2}));
}

TEST(ChooseRadices, SmoothCompositeSizes) {
  EXPECT_EQ(xfft::choose_radices(12), (std::vector<unsigned>{4, 3}));
  EXPECT_EQ(xfft::choose_radices(15), (std::vector<unsigned>{3, 5}));
  EXPECT_EQ(xfft::choose_radices(1), (std::vector<unsigned>{1}));
  const auto r360 = xfft::choose_radices(360);
  const std::size_t product = std::accumulate(
      r360.begin(), r360.end(), std::size_t{1},
      [](std::size_t a, unsigned b) { return a * b; });
  EXPECT_EQ(product, 360u);
}

TEST(ChooseRadices, RejectsLargePrimeFactors) {
  EXPECT_THROW(xfft::choose_radices(67), xutil::Error);
  EXPECT_THROW(xfft::choose_radices(2 * 127), xutil::Error);
}

TEST(SmallDft, Radix2MatchesOracle) {
  auto x = random_signal(2, 7);
  const auto want = oracle(x, Direction::kForward);
  xfft::dft2(x.data());
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), 1e-6);
}

TEST(SmallDft, Radix4MatchesOracleBothDirections) {
  for (const bool inverse : {false, true}) {
    auto x = random_signal(4, 11);
    const auto want =
        oracle(x, inverse ? Direction::kInverse : Direction::kForward);
    xfft::dft4(x.data(), inverse);
    EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), 1e-6) << "inverse="
                                                         << inverse;
  }
}

TEST(SmallDft, Radix8MatchesOracleBothDirections) {
  for (const bool inverse : {false, true}) {
    auto x = random_signal(8, 13);
    const auto want =
        oracle(x, inverse ? Direction::kInverse : Direction::kForward);
    xfft::dft8(x.data(), inverse);
    EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), 1e-6) << "inverse="
                                                         << inverse;
  }
}

TEST(SmallDft, GenericCoreMatchesOracleForOddRadix) {
  for (const unsigned r : {3u, 5u, 7u}) {
    auto x = random_signal(r, r);
    const auto want = oracle(x, Direction::kForward);
    const xfft::TwiddleTable<float> tw(r, Direction::kForward);
    xfft::dft_generic(x.data(), r, tw, r);
    EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), 1e-5) << "radix " << r;
  }
}

// ---------------------------------------------------------------------------
// Parameterized sweep: forward transform matches oracle over many sizes.
// ---------------------------------------------------------------------------

class Plan1DSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Plan1DSizes, ForwardMatchesOracle) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, n);
  const auto want = oracle(x, Direction::kForward);
  Plan1D<float> plan(n, Direction::kForward);
  plan.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(n)) << "n=" << n;
}

TEST_P(Plan1DSizes, InverseMatchesOracle) {
  const std::size_t n = GetParam();
  auto x = random_signal(n, n + 1);
  auto want = oracle(x, Direction::kInverse);
  for (auto& v : want) v *= 1.0F / static_cast<float>(n);
  Plan1D<float> plan(n, Direction::kInverse);
  plan.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(n)) << "n=" << n;
}

TEST_P(Plan1DSizes, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const auto original = random_signal(n, n + 2);
  auto x = original;
  Plan1D<float> fwd(n, Direction::kForward);
  Plan1D<float> inv(n, Direction::kInverse);
  fwd.execute(std::span<Cf>(x));
  inv.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, original)), tol_f(n)) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwo, Plan1DSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256,
                                           512, 1024, 4096));
INSTANTIATE_TEST_SUITE_P(Smooth, Plan1DSizes,
                         ::testing::Values(3, 5, 6, 9, 12, 15, 20, 24, 48, 60,
                                           120, 360));

// ---------------------------------------------------------------------------
// Radix ablation correctness: every max_radix choice computes the same DFT.
// ---------------------------------------------------------------------------

class Plan1DRadix
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned>> {};

TEST_P(Plan1DRadix, AllRadixChoicesAgreeWithOracle) {
  const auto [n, radix] = GetParam();
  auto x = random_signal(n, n * 31 + radix);
  const auto want = oracle(x, Direction::kForward);
  Plan1D<float> plan(n, Direction::kForward, PlanOptions{.max_radix = radix});
  plan.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(n))
      << "n=" << n << " radix=" << radix;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Plan1DRadix,
    ::testing::Combine(::testing::Values(8, 64, 256, 512, 1024),
                       ::testing::Values(2u, 4u, 8u)));

// ---------------------------------------------------------------------------
// Algebraic properties.
// ---------------------------------------------------------------------------

TEST(Plan1DProperties, Linearity) {
  const std::size_t n = 256;
  const auto a = random_signal(n, 1);
  const auto b = random_signal(n, 2);
  const Cf alpha(0.7F, -0.3F);
  const Cf beta(-1.2F, 0.5F);

  Plan1D<float> plan(n, Direction::kForward);
  auto fa = a;
  auto fb = b;
  plan.execute(std::span<Cf>(fa));
  plan.execute(std::span<Cf>(fb));

  std::vector<Cf> combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = alpha * a[i] + beta * b[i];
  plan.execute(std::span<Cf>(combo));

  for (std::size_t i = 0; i < n; ++i) {
    const Cf want = alpha * fa[i] + beta * fb[i];
    EXPECT_NEAR(combo[i].real(), want.real(), 1e-3);
    EXPECT_NEAR(combo[i].imag(), want.imag(), 1e-3);
  }
}

TEST(Plan1DProperties, ImpulseTransformsToConstant) {
  const std::size_t n = 512;
  std::vector<Cf> x(n, Cf{0.0F, 0.0F});
  x[0] = Cf{1.0F, 0.0F};
  Plan1D<float> plan(n, Direction::kForward);
  plan.execute(std::span<Cf>(x));
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(x[k].real(), 1.0F, 1e-4);
    EXPECT_NEAR(x[k].imag(), 0.0F, 1e-4);
  }
}

TEST(Plan1DProperties, ConstantTransformsToImpulse) {
  const std::size_t n = 512;
  std::vector<Cf> x(n, Cf{1.0F, 0.0F});
  Plan1D<float> plan(n, Direction::kForward);
  plan.execute(std::span<Cf>(x));
  EXPECT_NEAR(x[0].real(), static_cast<float>(n), 1e-2);
  for (std::size_t k = 1; k < n; ++k) {
    EXPECT_NEAR(std::abs(x[k]), 0.0F, 1e-2) << "k=" << k;
  }
}

TEST(Plan1DProperties, ParsevalEnergyConservation) {
  const std::size_t n = 1024;
  auto x = random_signal(n, 99);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  Plan1D<float> plan(n, Direction::kForward);
  plan.execute(std::span<Cf>(x));
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / (static_cast<double>(n) * time_energy), 1.0, 1e-4);
}

TEST(Plan1DProperties, TimeShiftBecomesPhaseRamp) {
  const std::size_t n = 128;
  const std::size_t shift = 5;
  const auto x = random_signal(n, 4);
  std::vector<Cf> shifted(n);
  for (std::size_t i = 0; i < n; ++i) shifted[i] = x[(i + shift) % n];

  Plan1D<float> plan(n, Direction::kForward);
  auto fx = x;
  plan.execute(std::span<Cf>(fx));
  plan.execute(std::span<Cf>(shifted));

  // X_shifted[k] = X[k] * exp(+2 pi i k shift / n).
  for (std::size_t k = 0; k < n; ++k) {
    const double a = 2.0 * 3.14159265358979323846 * static_cast<double>(k) *
                     static_cast<double>(shift) / static_cast<double>(n);
    const Cf rot(static_cast<float>(std::cos(a)),
                 static_cast<float>(std::sin(a)));
    const Cf want = fx[k] * rot;
    EXPECT_NEAR(shifted[k].real(), want.real(), 2e-3) << "k=" << k;
    EXPECT_NEAR(shifted[k].imag(), want.imag(), 2e-3) << "k=" << k;
  }
}

TEST(Plan1D, NoScalingOptionLeavesRawSums) {
  const std::size_t n = 64;
  auto x = random_signal(n, 5);
  const auto want = oracle(x, Direction::kInverse);  // unscaled
  Plan1D<float> plan(n, Direction::kInverse,
                     PlanOptions{.scaling = Scaling::kNone});
  plan.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(n));
}

TEST(Plan1D, DoublePrecisionIsMoreAccurate) {
  const std::size_t n = 1024;
  auto xd = xfft_test::random_signal_d(n, 6);
  std::vector<xfft::Cd> want(n);
  xfft::dft_reference(std::span<const xfft::Cd>(xd), std::span<xfft::Cd>(want),
                      Direction::kForward);
  Plan1D<double> plan(n, Direction::kForward);
  plan.execute(std::span<xfft::Cd>(xd));
  EXPECT_LT((relative_max_error<xfft::Cd, xfft::Cd>(xd, want)), 1e-12);
}

TEST(Plan1D, ActualFlopsScalesWithNLogN) {
  Plan1D<float> p512(512, Direction::kForward);
  Plan1D<float> p4096(4096, Direction::kForward);
  // 512 -> 3 radix-8 stages; 4096 -> 4 stages over 8x the points:
  // flops ratio should be (4096*4)/(512*3) = 32/3.
  const double ratio = static_cast<double>(p4096.actual_flops()) /
                       static_cast<double>(p512.actual_flops());
  EXPECT_NEAR(ratio, 32.0 / 3.0, 1e-9);
}

/// Puts `bad` into the real part of one element of a random signal and
/// expects at least one non-finite output, in both directions.
template <typename T>
void expect_non_finite_survives(T bad) {
  for (const std::size_t n : {256u, 60u}) {
    for (const Direction dir : {Direction::kForward, Direction::kInverse}) {
      const auto signal = xfft_test::random_signal_d(n, 8);
      std::vector<std::complex<T>> x(signal.begin(), signal.end());
      x[3].real(bad);
      Plan1D<T> plan(n, dir);
      plan.execute(std::span<std::complex<T>>(x));
      const bool any_non_finite =
          std::any_of(x.begin(), x.end(), [](std::complex<T> v) {
            return !std::isfinite(v.real()) || !std::isfinite(v.imag());
          });
      EXPECT_TRUE(any_non_finite)
          << "n=" << n << " bad=" << bad
          << " inverse=" << (dir == Direction::kInverse);
    }
  }
}

TEST(Plan1D, NonFiniteInputNeverComesBackFinite) {
  // Plan1D documents bit-identity with std::complex arithmetic only for
  // finite inputs; outside that contract garbage must still look like
  // garbage.
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    expect_non_finite_survives<float>(bad);
    expect_non_finite_survives<double>(bad);
  }
}

TEST(Plan1D, RejectsWrongBufferLength) {
  Plan1D<float> plan(64, Direction::kForward);
  std::vector<Cf> wrong(63);
  EXPECT_THROW(plan.execute(std::span<Cf>(wrong)), xutil::Error);
}

}  // namespace
