// Tests for multi-dimensional plans (the paper's Section IV algorithm) and
// the standalone axis rotation.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "test_helpers.hpp"
#include "xfft/dft_reference.hpp"
#include "xfft/fftnd.hpp"
#include "xutil/check.hpp"

namespace {

using xfft::Cd;
using xfft::Cf;
using xfft::Dims3;
using xfft::Direction;
using xfft::PlanND;
using xfft::Scaling;
using xfft_test::random_signal;
using xfft_test::relative_max_error;
using xfft_test::tol_f;

std::vector<Cf> oracle_3d(std::span<const Cf> in, Dims3 dims, Direction dir) {
  std::vector<Cd> tmp_in(in.size());
  std::vector<Cd> tmp_out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    tmp_in[i] = Cd{in[i].real(), in[i].imag()};
  }
  xfft::dft_reference_3d(tmp_in, std::span<Cd>(tmp_out), dims, dir);
  std::vector<Cf> out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = Cf{static_cast<float>(tmp_out[i].real()),
                static_cast<float>(tmp_out[i].imag())};
  }
  return out;
}

TEST(RotateAxes, TransposesA2DArray) {
  // 3x2 array (nx=3, ny=2): rotation = transpose.
  const Dims3 dims{3, 2, 1};
  std::vector<Cf> src(6);
  for (std::size_t i = 0; i < 6; ++i) src[i] = Cf(static_cast<float>(i), 0.0F);
  std::vector<Cf> dst(6);
  xfft::rotate_axes(std::span<const Cf>(src), std::span<Cf>(dst), dims);
  // src[y][x]; dst[x][y] with y fastest: dst[x*2+y] = src[y*3+x].
  for (std::size_t y = 0; y < 2; ++y) {
    for (std::size_t x = 0; x < 3; ++x) {
      EXPECT_EQ(dst[x * 2 + y], src[y * 3 + x]);
    }
  }
}

TEST(RotateAxes, ThreeRotationsRestoreOriginalLayout) {
  const Dims3 d0{4, 3, 2};
  const auto original = random_signal(d0.total(), 21);
  std::vector<Cf> a(original.begin(), original.end());
  std::vector<Cf> b(a.size());
  Dims3 cur = d0;
  for (int pass = 0; pass < 3; ++pass) {
    xfft::rotate_axes(std::span<const Cf>(a), std::span<Cf>(b), cur);
    std::swap(a, b);
    cur = Dims3{cur.ny, cur.nz, cur.nx};
  }
  EXPECT_EQ(cur, d0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], original[i]) << "i=" << i;
  }
}

TEST(RotateAxes, SingleAxisIsIdentity) {
  const Dims3 dims{8, 1, 1};
  const auto src = random_signal(8, 3);
  std::vector<Cf> dst(8);
  xfft::rotate_axes(std::span<const Cf>(src), std::span<Cf>(dst), dims);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(dst[i], src[i]);
}

// Test names embed the default printer's dump of all 32 bytes, so every
// byte after `dims` is set explicitly: `name_tag` fixes each case's name,
// where uninitialised padding would make names differ from build to build.
struct NdCase {
  Dims3 dims;
  std::uint64_t name_tag = 1;
};
static_assert(sizeof(NdCase) == 32, "NdCase must have no padding");

class PlanNDSweep : public ::testing::TestWithParam<NdCase> {};

TEST_P(PlanNDSweep, ForwardMatchesOracle) {
  const Dims3 dims = GetParam().dims;
  auto x = random_signal(dims.total(), dims.total());
  const auto want = oracle_3d(x, dims, Direction::kForward);
  PlanND<float> plan(dims, Direction::kForward);
  plan.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(dims.total()));
}

TEST_P(PlanNDSweep, RoundTripIsIdentity) {
  const Dims3 dims = GetParam().dims;
  const auto original = random_signal(dims.total(), dims.total() + 7);
  auto x = original;
  PlanND<float> fwd(dims, Direction::kForward);
  PlanND<float> inv(dims, Direction::kInverse);
  fwd.execute(std::span<Cf>(x));
  inv.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, original)), tol_f(dims.total()));
}

INSTANTIATE_TEST_SUITE_P(
    Fused, PlanNDSweep,
    ::testing::Values(NdCase{{8, 8, 1}}, NdCase{{16, 4, 1}},
                      NdCase{{4, 16, 1}}, NdCase{{8, 8, 8}},
                      NdCase{{16, 8, 4}}, NdCase{{4, 4, 32}},
                      NdCase{{32, 32, 1}}, NdCase{{16, 16, 16}}));

INSTANTIATE_TEST_SUITE_P(NonPowerOfTwo, PlanNDSweep,
                         ::testing::Values(NdCase{{12, 6, 1}},
                                           NdCase{{6, 10, 3}, 0},
                                           NdCase{{9, 9, 9}}));

TEST(PlanND, RankOneBehavesLikePlan1D) {
  const Dims3 dims{64, 1, 1};
  auto x = random_signal(64, 17);
  const auto want = xfft_test::oracle(x, Direction::kForward);
  PlanND<float> plan(dims, Direction::kForward);
  plan.execute(std::span<Cf>(x));
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(64));
}

TEST(PlanND, SeparableProductTransformsCorrectly) {
  // A rank-1-separable input f(x,y) = g(x) h(y) has FFT G(kx) H(ky).
  const std::size_t nx = 16;
  const std::size_t ny = 8;
  const auto g = random_signal(nx, 31);
  const auto h = random_signal(ny, 32);
  std::vector<Cf> f(nx * ny);
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) f[y * nx + x] = g[x] * h[y];
  }
  const auto fg = xfft_test::oracle(g, Direction::kForward);
  const auto fh = xfft_test::oracle(h, Direction::kForward);

  PlanND<float> plan(Dims3{nx, ny, 1}, Direction::kForward);
  plan.execute(std::span<Cf>(f));
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) {
      const Cf want = fg[x] * fh[y];
      EXPECT_NEAR(f[y * nx + x].real(), want.real(), 2e-3);
      EXPECT_NEAR(f[y * nx + x].imag(), want.imag(), 2e-3);
    }
  }
}

TEST(PlanND, ActualFlopsCountsAllAxes) {
  PlanND<float> plan(Dims3{64, 64, 64}, Direction::kForward);
  // 64^3 points, two radix-8 stages per dimension (6 total); per stage and
  // point the radix-8 kernel costs 102/8 flops.
  const double expected = 6.0 * 262144.0 * 102.0 / 8.0;
  EXPECT_NEAR(static_cast<double>(plan.actual_flops()), expected, 1.0);
}

TEST(PlanND, DoublePrecision3DMatchesOracle) {
  const Dims3 dims{8, 8, 8};
  auto x = xfft_test::random_signal_d(dims.total(), 61);
  std::vector<Cd> want(dims.total());
  xfft::dft_reference_3d(std::span<const Cd>(x), std::span<Cd>(want), dims,
                         Direction::kForward);
  PlanND<double> plan(dims, Direction::kForward);
  plan.execute(std::span<Cd>(x));
  EXPECT_LT((relative_max_error<Cd, Cd>(x, want)), 1e-11);
}

TEST(PlanND, DoublePrecisionRoundTrip) {
  const Dims3 dims{16, 8, 4};
  const auto original = xfft_test::random_signal_d(dims.total(), 62);
  auto x = original;
  PlanND<double> fwd(dims, Direction::kForward);
  PlanND<double> inv(dims, Direction::kInverse);
  fwd.execute(std::span<Cd>(x));
  inv.execute(std::span<Cd>(x));
  EXPECT_LT((relative_max_error<Cd, Cd>(x, original)), 1e-12);
}

TEST(PlanND, RepeatedFloatRoundTripsDoNotDrift) {
  // Forward+inverse again and again on one buffer, as a closed-loop caller
  // does. Float butterfly arithmetic makes the round-trip error repeat on
  // every pass, so it grows linearly (2.2e-5 after 200 round trips on
  // 32^3); with double-precision butterflies it grows like a random walk
  // (1.1e-6).
  const Dims3 dims{32, 32, 32};
  const auto original = random_signal(dims.total(), 63);
  auto x = original;
  PlanND<float> fwd(dims, Direction::kForward);
  PlanND<float> inv(dims, Direction::kInverse);
  for (int trip = 0; trip < 200; ++trip) {
    fwd.execute(std::span<Cf>(x));
    inv.execute(std::span<Cf>(x));
  }
  double err2 = 0.0;
  double ref2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err2 += std::norm(Cd(x[i]) - Cd(original[i]));
    ref2 += std::norm(Cd(original[i]));
  }
  EXPECT_LT(std::sqrt(err2 / ref2), 5e-6);
}

/// A unitary inverse multiplies by 1/N as its last pass writes back; that
/// must round exactly as an unscaled inverse followed by x *= 1/N.
template <typename T>
void expect_scaling_fold_exact(Dims3 dims, const xfft::ExecOptions& exec) {
  const auto signal = random_signal(dims.total(), 31);
  std::vector<std::complex<T>> got(signal.begin(), signal.end());
  auto want = got;
  PlanND<T>(dims, Direction::kInverse, {.scaling = Scaling::kUnitary1OverN})
      .execute(std::span<std::complex<T>>(got), exec);
  PlanND<T>(dims, Direction::kInverse, {.scaling = Scaling::kNone})
      .execute(std::span<std::complex<T>>(want), exec);
  const T s = T(1) / static_cast<T>(dims.total());
  for (auto& v : want) v *= s;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(want[0])),
            0)
      << dims.nx << "x" << dims.ny << "x" << dims.nz
      << " double=" << std::is_same_v<T, double> << " serial=" << exec.serial;
}

TEST(PlanND, UnitaryInverseScalesExactlyInItsLastPass) {
  // The last pass is x (rank 1), y (136x256, wide work items) or z; 1x24x40
  // has no x pass.
  xfft::ExecOptions serial;
  serial.serial = true;
  for (const xfft::ExecOptions& exec : {xfft::ExecOptions{}, serial}) {
    for (const Dims3 dims : {Dims3{1000, 1, 1}, Dims3{136, 256, 1},
                             Dims3{136, 3, 256}, Dims3{1, 24, 40}}) {
      expect_scaling_fold_exact<float>(dims, exec);
      expect_scaling_fold_exact<double>(dims, exec);
    }
  }
}

TEST(PlanND, RejectsWrongBufferLength) {
  PlanND<float> plan(Dims3{8, 8, 1}, Direction::kForward);
  std::vector<Cf> wrong(63);
  EXPECT_THROW(plan.execute(std::span<Cf>(wrong)), xutil::Error);
}

}  // namespace
