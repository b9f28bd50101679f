#include "xfft/bluestein.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "xfft/butterflies.hpp"
#include "xfft/plan1d.hpp"
#include "xutil/check.hpp"

namespace xfft {

namespace {

/// Chirp c(m) = e^{sign * i * pi * m^2 / n}, computed in double with the
/// quadratic index reduced mod 2n (m^2 mod 2n keeps the angle small).
Cd chirp(std::uint64_t m, std::uint64_t n, double sign) {
  const std::uint64_t q = (m * m) % (2 * n);
  const double a = sign * std::numbers::pi * static_cast<double>(q) /
                   static_cast<double>(n);
  return {std::cos(a), std::sin(a)};
}

/// Smallest power of two >= n (the zero-padded convolution length).
std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Circular convolution of equal-length complex vectors via the FFT:
/// out[k] = sum_j a[j] * b[(k - j) mod n]. Length must be a smooth size.
std::vector<Cf> circular_convolve(std::span<const Cf> a,
                                  std::span<const Cf> b) {
  XU_CHECK_MSG(a.size() == b.size(), "operands must have equal length");
  const std::size_t n = a.size();
  std::vector<Cf> fa(a.begin(), a.end());
  std::vector<Cf> fb(b.begin(), b.end());
  Plan1D<float> fwd(n, Direction::kForward,
                    PlanOptions{.scaling = Scaling::kNone});
  fwd.execute(std::span<Cf>(fa));
  fwd.execute(std::span<Cf>(fb));
  for (std::size_t k = 0; k < n; ++k) fa[k] *= fb[k];
  Plan1D<float> inv(n, Direction::kInverse,
                    PlanOptions{.scaling = Scaling::kUnitary1OverN});
  inv.execute(std::span<Cf>(fa));
  return fa;
}

}  // namespace

bool is_smooth_size(std::size_t n) {
  if (n == 0) return false;
  std::size_t rem = n;
  for (std::size_t p = 2; p <= kMaxRadix && p * p <= rem; ++p) {
    while (rem % p == 0) rem /= p;
  }
  return rem <= kMaxRadix;
}

void fft_bluestein(std::span<Cf> data, Direction dir) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  // DFT sign: forward -1, inverse +1; the chirp inherits it.
  const double sign = dir == Direction::kForward ? -1.0 : 1.0;
  const std::size_t m = next_pow2(2 * n - 1);

  // a[t] = x[t] * c(t); b[t] = conj-chirp kernel, symmetric wrap-around.
  std::vector<Cf> a(m, Cf{0.0F, 0.0F});
  std::vector<Cf> b(m, Cf{0.0F, 0.0F});
  for (std::size_t t = 0; t < n; ++t) {
    const Cd c = chirp(t, n, sign);
    const Cd x{data[t].real(), data[t].imag()};
    const Cd ax = x * c;
    a[t] = Cf(static_cast<float>(ax.real()), static_cast<float>(ax.imag()));
    const Cd inv = chirp(t, n, -sign);
    const Cf bf(static_cast<float>(inv.real()),
                static_cast<float>(inv.imag()));
    b[t] = bf;
    if (t != 0) b[m - t] = bf;  // b is even: b[-t] = b[t]
  }

  // Circular convolution at the padded power-of-two length.
  const auto conv = circular_convolve(a, b);

  for (std::size_t k = 0; k < n; ++k) {
    const Cd c = chirp(k, n, sign);
    const Cd y = Cd{conv[k].real(), conv[k].imag()} * c;
    data[k] = Cf(static_cast<float>(y.real()), static_cast<float>(y.imag()));
  }
}

void fft_any(std::span<Cf> data, Direction dir) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  if (is_smooth_size(n)) {
    Plan1D<float> plan(n, dir, PlanOptions{.scaling = Scaling::kNone});
    plan.execute(data);
  } else {
    fft_bluestein(data, dir);
  }
}

}  // namespace xfft
