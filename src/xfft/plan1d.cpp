#include "xfft/plan1d.hpp"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <string_view>

#include "xfft/butterflies.hpp"
#include "xfft/stage_loop.hpp"
#include "xfft/vector_builds.hpp"
#include "xutil/check.hpp"
#include "xutil/units.hpp"

namespace xfft {

std::vector<unsigned> choose_radices(std::size_t n, unsigned max_radix) {
  XU_CHECK_MSG(n >= 1, "transform size must be >= 1");
  XU_CHECK_MSG(max_radix == 2 || max_radix == 4 || max_radix == 8,
               "max_radix must be 2, 4 or 8");
  std::vector<unsigned> radices;
  std::size_t rem = n;
  // Separate the power-of-two part and spend it greedily: as many stages of
  // max_radix as fit, then one stage of 4 or 2 for the remainder.
  unsigned two_exp = 0;
  while (rem % 2 == 0) {
    rem /= 2;
    ++two_exp;
  }
  const unsigned max_exp = max_radix == 8 ? 3 : (max_radix == 4 ? 2 : 1);
  while (two_exp >= max_exp) {
    radices.push_back(max_radix);
    two_exp -= max_exp;
  }
  if (two_exp == 2) {
    radices.push_back(4);
  } else if (two_exp == 1) {
    radices.push_back(2);
  }
  // Odd prime factors via trial division.
  for (std::size_t p = 3; p * p <= rem; p += 2) {
    while (rem % p == 0) {
      XU_CHECK_MSG(p <= kMaxRadix,
                   "prime factor " << p << " exceeds max supported radix");
      radices.push_back(static_cast<unsigned>(p));
      rem /= p;
    }
  }
  if (rem > 1) {
    XU_CHECK_MSG(rem <= kMaxRadix,
                 "prime factor " << rem << " exceeds max supported radix");
    radices.push_back(static_cast<unsigned>(rem));
  }
  if (radices.empty()) radices.push_back(1);  // n == 1: identity stage
  return radices;
}

template <typename T>
Plan1D<T>::Plan1D(std::size_t n, Direction dir, PlanOptions opt)
    : n_(n), dir_(dir), opt_(opt), tw_(std::max<std::size_t>(n, 1), dir) {
  XU_CHECK_MSG(n >= 1, "transform size must be >= 1");
  radices_ = choose_radices(n, opt_.max_radix);
  if (n == 1) {
    perm_ = {0};
    return;
  }
  perm_ = dif_output_permutation(radices_, n_);
  rows_.reserve(n_ - 1);
  std::size_t block = n_;
  for (const unsigned r : radices_) {
    // Flop accounting: per stage of radix r there are n/r butterflies, each
    // running the r-point core plus (r-1) twiddle complex multiplies.
    const std::uint64_t butterflies = n_ / r;
    flops_ += butterflies * (small_dft_flops(r) + 6ULL * (r - 1));
    const std::size_t sub = block / r;
    const std::size_t tw_stride = n_ / block;
    for (std::size_t j = 0; j < sub; ++j) {
      for (std::size_t i = 1; i < r; ++i) {
        rows_.push_back(tw_[i * j * tw_stride]);
      }
    }
    block = sub;
  }
  scratch_.resize(n_);
}

namespace {

/// One stage: every block of length `block` through dif_block<R, L>.
template <unsigned R, std::size_t L, typename T>
void dif_stage(T* re, T* im, std::size_t n, std::size_t block, unsigned r,
               const std::complex<double>* row, bool inverse,
               const TwiddleTable<double>& tw) {
  constexpr std::size_t S = kElemStride<L>;
  for (std::size_t base = 0; base < n; base += block) {
    dif_block<R, L>(re + base * S, im + base * S, block / r, r, row, inverse,
                    tw, n);
  }
}

/// A stage of radix 2, 4 or 8 (`r`), the part of the stage loop that has a
/// build per vector width (vector_builds.hpp).
template <std::size_t L, typename T>
void pow2_stage(T* re, T* im, std::size_t n, std::size_t block, unsigned r,
                const std::complex<double>* row, bool inverse,
                const TwiddleTable<double>& tw) {
  switch (r) {
    case 2:
      dif_stage<2, L>(re, im, n, block, r, row, inverse, tw);
      break;
    case 4:
      dif_stage<4, L>(re, im, n, block, r, row, inverse, tw);
      break;
    default:
      dif_stage<8, L>(re, im, n, block, r, row, inverse, tw);
      break;
  }
}

bool build_supported(std::size_t b) {
#ifdef XFFT_VECTOR_BUILDS
  __builtin_cpu_init();
  switch (b) {
    case 0:
      return __builtin_cpu_supports("x86-64-v4");
    case 1:
      return __builtin_cpu_supports("x86-64-v3");
    default:
      return true;
  }
#else
  (void)b;
  return true;
#endif
}

}  // namespace

std::string_view stage_loop_build() {
  return detail::kBuildNames[detail::active_build().load(
      std::memory_order_relaxed)];
}

namespace detail {

std::atomic<std::size_t>& active_build() {
  static std::atomic<std::size_t> build = [] {
    std::size_t b = 0;
    while (!build_supported(b)) ++b;
    return b;
  }();
  return build;
}

std::vector<std::string_view> supported_stage_loop_builds() {
  std::vector<std::string_view> names;
  for (std::size_t b = 0; b < kBuilds; ++b) {
    if (build_supported(b)) names.push_back(kBuildNames[b]);
  }
  return names;
}

ScopedStageLoopBuild::ScopedStageLoopBuild(std::string_view name) {
  const auto* const it = std::find(std::begin(kBuildNames),
                                   std::end(kBuildNames), name);
  const auto b = static_cast<std::size_t>(it - std::begin(kBuildNames));
  XU_CHECK_MSG(b < kBuilds && build_supported(b),
               "stage loop build " << name << " is not supported here");
  previous_ = active_build().exchange(b);
}

ScopedStageLoopBuild::~ScopedStageLoopBuild() {
  active_build().store(previous_);
}

}  // namespace detail

template <typename T>
template <std::size_t L>
void Plan1D<T>::run_stages(T* re, T* im,
                           const xutil::CancelToken* cancel) const {
  if (n_ == 1) return;
  const bool inverse = dir_ == Direction::kInverse;
  // Odd radices stay on the baseline build (see cmul in butterflies.hpp).
  const auto pow2 = detail::in_active_build<&pow2_stage<L, T>>();
  const std::complex<double>* row = rows_.data();
  std::size_t block = n_;
  for (const unsigned r : radices_) {
    // Stage-granularity cancellation: a deadline aborts between butterfly
    // passes (each O(n) per lane), leaving the buffer in a partial state
    // the caller has agreed to discard.
    if (cancel != nullptr && cancel->expired()) return;
    if (r == 2 || r == 4 || r == 8) {
      pow2(re, im, n_, block, r, row, inverse, tw_);
    } else {
      dif_stage<0, L>(re, im, n_, block, r, row, inverse, tw_);
    }
    block /= r;
    row += block * (r - 1);
  }
}

template <typename T>
void Plan1D<T>::apply_scaling(std::span<std::complex<T>> data) const {
  if (dir_ == Direction::kInverse && opt_.scaling == Scaling::kUnitary1OverN) {
    const T s = T(1) / static_cast<T>(n_);
    for (auto& x : data) x *= s;
  }
}

template <typename T>
void Plan1D<T>::execute(std::span<std::complex<T>> data) const {
  execute(data, std::span<std::complex<T>>(scratch_.data(), scratch_.size()));
}

template <typename T>
void Plan1D<T>::execute(std::span<std::complex<T>> data,
                        std::span<std::complex<T>> scratch,
                        const xutil::CancelToken* cancel) const {
  XU_CHECK_MSG(data.size() == n_, "buffer length " << data.size()
                                                   << " != plan size " << n_);
  XU_CHECK_MSG(n_ <= 1 || scratch.size() >= n_,
               "scratch length " << scratch.size() << " < plan size " << n_);
  // [complex.numbers]: a std::complex<T> array is an array of T pairs.
  T* const re = reinterpret_cast<T*>(data.data());
  run_stages<1>(re, re + 1, cancel);
  if (cancel != nullptr && cancel->expired()) return;
  if (n_ > 1) {
    for (std::size_t k = 0; k < n_; ++k) scratch[k] = data[perm_[k]];
    std::copy(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(n_),
              data.begin());
  }
  apply_scaling(data);
}

template <typename T>
void Plan1D<T>::execute_lanes(T* re, T* im,
                              const xutil::CancelToken* cancel) const {
  run_stages<kLanes>(re, im, cancel);
}

template class Plan1D<float>;
template class Plan1D<double>;

}  // namespace xfft
