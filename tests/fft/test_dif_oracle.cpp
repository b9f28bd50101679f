// Exactness oracle for the plan library's DIF kernel.
//
// The reference below is the paper's breadth-first DIF program (Section IV-A)
// run serially, one butterfly at a time: r strided loads widened to double, a
// small-DFT core picked per butterfly, twiddle multiplies with std::complex's
// `*=`, then each output rounded to the plan's precision and stored in place —
// or, on the last iteration of a multi-dimensional pass, stored through the
// fused axis rotation. Every twiddle index also goes through the replicated
// lookup table (decimated between iterations), whose float entry must be the
// rounding of the double root the reference multiplies by. The reference shares
// only the radix list, the small-DFT cores, the digit-reversal map and the root
// values with Plan1D/PlanND, so EXPECT_EQ against them pins the lane-generic
// dif_block codelet (one interleaved transform in Plan1D, 16 lane-major
// transforms in PlanND's work blocks), its precomputed per-stage twiddle rows,
// its written-out complex multiply (xfft::cmul) and PlanND's in-place schedule
// (full and partial blocks of 16 pencils or rows, work items of several
// blocks, tail rows, the digit reversal and the inverse's 1/N folded into the
// write-back) to the paper's fused schedule bit for bit. The plans run once
// per build of the radix-2/4/8 stage loop and the pencil copies that the
// library has and the CPU supports (x86-64-v4, x86-64-v3, baseline), so
// every build is pinned, not only the one the library picks. The suites are
// named after the paper's XMTC FFT program, of which the reference is a
// serial transcription.
#include <gtest/gtest.h>

#include <complex>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "test_helpers.hpp"
#include "xfft/butterflies.hpp"
#include "xfft/fftnd.hpp"
#include "xfft/permute.hpp"
#include "xfft/plan1d.hpp"
#include "xfft/stage_loop.hpp"
#include "xfft/twiddle.hpp"

namespace {

using xfft::Cd;
using xfft::Cf;
using xfft::Dims3;
using xfft::Direction;
using xfft_test::random_signal;
using xfft_test::relative_max_error;
using xfft_test::tol_f;

constexpr std::size_t kReplicas = 4;  // any count >= 2 exercises replication
constexpr Direction kDirs[] = {Direction::kForward, Direction::kInverse};

/// The r-point core for one butterfly, dispatched at run time.
void small_dft(Cd* v, unsigned r, bool inverse,
               const xfft::TwiddleTable<double>& master, std::size_t n) {
  switch (r) {
    case 2:
      xfft::dft2(v);
      break;
    case 4:
      xfft::dft4(v, inverse);
      break;
    case 8:
      xfft::dft8(v, inverse);
      break;
    default:
      xfft::dft_generic(v, r, master, n);
      break;
  }
}

/// Runs the DIF stages `radices` over each length-`len` (>= 2) row of `buf`.
/// With `rotated` null the rows end in digit-reversed order in place;
/// otherwise the last stage writes frequency k of row `row` to
/// rotated[k*rows + row].
template <typename T>
void dif_rows(std::span<std::complex<T>> buf, std::size_t len,
              const std::vector<unsigned>& radices, Direction dir,
              std::complex<T>* rotated) {
  const std::size_t rows = buf.size() / len;
  xfft::ReplicatedTwiddleTable table(len, kReplicas, dir);
  const xfft::TwiddleTable<double> roots(len, dir);
  const auto perm = xfft::dif_output_permutation(radices, len);
  std::vector<std::size_t> freq(len);
  for (std::size_t k = 0; k < len; ++k) freq[perm[k]] = k;

  std::size_t block = len;
  for (std::size_t s = 0; s < radices.size(); ++s) {
    const unsigned r = radices[s];
    const std::size_t sub = block / r;
    const bool fused = rotated != nullptr && s + 1 == radices.size();
    // One virtual thread per butterfly, in thread-id order.
    for (std::size_t tid = 0; tid < buf.size() / r; ++tid) {
      const std::size_t row = tid / (len / r);
      const std::size_t j = tid % (len / r);
      const std::size_t first = (j / sub) * block + j % sub;
      std::complex<T>* p = buf.data() + row * len;
      Cd v[xfft::kMaxRadix];
      for (unsigned i = 0; i < r; ++i) v[i] = Cd(p[first + i * sub]);
      small_dft(v, r, dir == Direction::kInverse, roots, len);
      for (unsigned i = 1; i < r; ++i) {
        const std::size_t k = (i * (j % sub) % block) * (len / block);
        EXPECT_EQ(table.read(tid, k), Cf(roots[k])) << "root " << k;
        v[i] *= roots[k];
      }
      for (unsigned i = 0; i < r; ++i) {
        const std::size_t pos = first + i * sub;
        (fused ? rotated[freq[pos] * rows + row] : p[pos]) =
            std::complex<T>(v[i]);
      }
    }
    if (s + 1 < radices.size()) table.decimate(r);
    block = sub;
  }
}

template <typename T>
void scale_inverse(std::vector<std::complex<T>>& x, Direction dir) {
  if (dir != Direction::kInverse) return;
  const T s = T(1) / static_cast<T>(x.size());
  for (auto& v : x) v *= s;
}

template <typename T>
std::vector<std::complex<T>> reference_fft1d(
    std::vector<std::complex<T>> x, const std::vector<unsigned>& radices,
    Direction dir) {
  const std::size_t n = x.size();
  dif_rows<T>(x, n, radices, dir, nullptr);
  const auto perm = xfft::dif_output_permutation(radices, n);
  std::vector<std::complex<T>> out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = x[perm[k]];
  scale_inverse(out, dir);
  return out;
}

/// Three fused passes; each rotates the axes (x, y, z) -> (y, z, x), so the
/// data is back in natural layout after the third. A unit axis has no
/// stages, and rotating it past the others leaves the layout unchanged.
template <typename T>
std::vector<std::complex<T>> reference_fftnd(std::vector<std::complex<T>> x,
                                             Dims3 dims, Direction dir,
                                             unsigned max_radix = 8) {
  std::vector<std::complex<T>> rotated(x.size());
  for (const std::size_t len : {dims.nx, dims.ny, dims.nz}) {
    if (len == 1) continue;
    dif_rows<T>(x, len, xfft::choose_radices(len, max_radix), dir,
                rotated.data());
    std::swap(x, rotated);
  }
  scale_inverse(x, dir);
  return x;
}

/// Runs `check` once under each build of the stage loop that can run here.
template <typename F>
void for_each_stage_loop_build(F check) {
  for (const std::string_view build :
       xfft::detail::supported_stage_loop_builds()) {
    SCOPED_TRACE(build);
    const xfft::detail::ScopedStageLoopBuild use(build);
    check();
  }
}

/// Float and double plans of every radix limit against the reference.
template <typename T>
void expect_plan_matches_reference(std::size_t n) {
  const auto signal = random_signal(n, n + 77);
  const std::vector<std::complex<T>> input(signal.begin(), signal.end());
  for (const unsigned max_radix : {8u, 4u, 2u}) {
    for (const Direction dir : kDirs) {
      xfft::Plan1D<T> plan(n, dir, {.max_radix = max_radix});
      const auto want = reference_fft1d<T>(input, plan.radices(), dir);
      auto got = input;
      plan.execute(std::span<std::complex<T>>(got));
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got[i], want[i])
            << "i=" << i << " max_radix=" << max_radix
            << " inverse=" << (dir == Direction::kInverse)
            << " double=" << std::is_same_v<T, double>;
      }
    }
  }
}

class XmtcFft1D : public ::testing::TestWithParam<std::size_t> {};

TEST_P(XmtcFft1D, MatchesPlanLibraryExactly) {
  for_each_stage_loop_build([this] {
    expect_plan_matches_reference<float>(GetParam());
    expect_plan_matches_reference<double>(GetParam());
  });
}

TEST_P(XmtcFft1D, InverseRoundTrips) {
  const std::size_t n = GetParam();
  const auto input = random_signal(n, n + 78);
  const auto radices = xfft::choose_radices(n, 8);
  const auto x = reference_fft1d<float>(
      reference_fft1d<float>(input, radices, Direction::kForward), radices,
      Direction::kInverse);
  EXPECT_LT((relative_max_error<Cf, Cf>(x, input)), tol_f(n));
}

// 128 = 8*8*2 and 256 = 8*8*4 (the row length of the 256^3 benchmark) end
// in a radix-2 or radix-4 stage; 4096 = 8^4. 35 = 5*7, 243 = 3^5 and
// 3000 = 8*3*5^3 run several odd stages, which a vector build of the stage
// loop would get wrong (see xfft::cmul).
INSTANTIATE_TEST_SUITE_P(Sizes, XmtcFft1D,
                         ::testing::Values(2, 8, 16, 64, 512, 1024, 24, 60,
                                           128, 256, 4096, 35, 243, 3000));

/// Float and double PlanND of every radix limit against the reference.
template <typename T>
void expect_plannd_matches_reference(Dims3 dims) {
  const auto signal = random_signal(dims.total(), 5);
  const std::vector<std::complex<T>> input(signal.begin(), signal.end());
  for (const unsigned max_radix : {8u, 4u, 2u}) {
    for (const Direction dir : kDirs) {
      const auto want = reference_fftnd<T>(input, dims, dir, max_radix);
      auto got = input;
      xfft::PlanND<T> plan(dims, dir, {.max_radix = max_radix});
      plan.execute(std::span<std::complex<T>>(got));
      // One failure per case: a wrong schedule moves nearly every element.
      std::size_t differ = 0;
      std::size_t first = got.size();
      for (std::size_t i = 0; i < got.size(); ++i) {
        if (got[i] == want[i]) continue;
        if (differ++ == 0) first = i;
      }
      EXPECT_EQ(differ, 0u)
          << dims.nx << "x" << dims.ny << "x" << dims.nz
          << " first differing i=" << first << " max_radix=" << max_radix
          << " inverse=" << (dir == Direction::kInverse)
          << " double=" << std::is_same_v<T, double>;
    }
  }
}

TEST(XmtcFftND, MatchesPlanNDOn3D) {
  // {16,8,4}: nx is exactly one lane block; {4,4,32}: nx is smaller than
  // a block; {36,20,1}: a 2-D case; {1000,1,1}: a 1-D case, one tail row
  // of the x pass. {20,256,2}, {3,128,32} and {40,4096,1} run pencils of
  // 256, 128 (and 32) and 4096 points over a partial last block. {24,6,5},
  // {20,9,24} and {18,24,9} give y and z pencils of 6, 5, 9 and 24 points,
  // whose odd factors go through dft_generic.
  //
  // A y or z work item is as many lane blocks as fit 256 KiB: 128 pencils
  // of 256 points or 32 of 1024 in float, half as many in double. So the
  // per-precision shapes below split each row of pencils into a full item
  // and one of several blocks that ends in a partial block (y: 168 = 128 +
  // 40 and 104 = 64 + 40), or into a full item and a partial block (z: 40
  // = 32 + 8), and 136x256 and 72x256 do so in a 2-D plan, whose y pass
  // does the inverse's scaling.
  //
  // The x pass transposes each row block 64 bytes of each row at a time (8
  // float or 4 double points) and copies the rest point by point:
  // {256,32,2} is all full tiles, {45,32,2} ends in a tail of 5 float or 1
  // double point (over odd radices), {7,48,1} is all tail, and {1020,16,1}
  // is one long block that ends in a tail of 4 float points.
  for_each_stage_loop_build([] {
    for (const Dims3 dims :
         {Dims3{16, 8, 4}, Dims3{4, 4, 32}, Dims3{36, 20, 1},
          Dims3{1000, 1, 1}, Dims3{20, 256, 2}, Dims3{3, 128, 32},
          Dims3{40, 4096, 1}, Dims3{24, 6, 5}, Dims3{20, 9, 24},
          Dims3{18, 24, 9}, Dims3{256, 32, 2}, Dims3{45, 32, 2},
          Dims3{7, 48, 1}, Dims3{1020, 16, 1}}) {
      expect_plannd_matches_reference<float>(dims);
      expect_plannd_matches_reference<double>(dims);
    }
    for (const Dims3 dims :
         {Dims3{168, 256, 2}, Dims3{40, 1, 1024}, Dims3{136, 256, 1}}) {
      expect_plannd_matches_reference<float>(dims);
    }
    for (const Dims3 dims :
         {Dims3{104, 256, 2}, Dims3{40, 1, 512}, Dims3{72, 256, 1}}) {
      expect_plannd_matches_reference<double>(dims);
    }
  });
}

TEST(StageLoopBuilds, WidestSupportedRunsUnlessOverridden) {
  const auto builds = xfft::detail::supported_stage_loop_builds();
  ASSERT_FALSE(builds.empty());
  EXPECT_EQ(builds.back(), "baseline");
  EXPECT_EQ(xfft::stage_loop_build(), builds.front());
  {
    const xfft::detail::ScopedStageLoopBuild use(builds.back());
    EXPECT_EQ(xfft::stage_loop_build(), "baseline");
  }
  EXPECT_EQ(xfft::stage_loop_build(), builds.front());
}

TEST(XmtcFftND, RoundTrip3D) {
  const Dims3 dims{8, 8, 8};
  const auto input = random_signal(dims.total(), 6);
  const auto x = reference_fftnd<float>(
      reference_fftnd<float>(input, dims, Direction::kForward), dims,
      Direction::kInverse);
  EXPECT_LT((relative_max_error<Cf, Cf>(x, input)), tol_f(dims.total()));
}

TEST(XmtcFftND, Rank2AgreesWithOracle) {
  const Dims3 dims{32, 16, 1};
  const auto input = random_signal(dims.total(), 9);
  auto want = input;
  xfft::PlanND<float> plan(dims, Direction::kForward);
  plan.execute(std::span<Cf>(want));
  const auto x = reference_fftnd<float>(input, dims, Direction::kForward);
  EXPECT_LT((relative_max_error<Cf, Cf>(x, want)), tol_f(dims.total()));
}

}  // namespace
