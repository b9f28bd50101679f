// Small-DFT cores used inside each radix-r butterfly.
//
// The hardcoded radix-2/4/8 cores mirror the structure a TCU register-file
// kernel would use on XMT (Section IV-A: radix 8 is the largest practical
// radix because a TCU's 32 floating-point registers hold 16 single-precision
// complex values). A generic O(r^2) core supports other radices (3, 5, ...)
// so the library handles any smooth size.
#pragma once

#include <complex>
#include <cstddef>

#include "xfft/twiddle.hpp"
#include "xutil/check.hpp"

namespace xfft {

/// Maximum radix the generic core accepts (bounded local scratch).
inline constexpr unsigned kMaxRadix = 64;

/// In-place 2-point DFT (self-inverse up to scaling).
template <typename T>
inline void dft2(std::complex<T>* v) {
  const std::complex<T> a = v[0];
  v[0] = a + v[1];
  v[1] = a - v[1];
}

/// In-place 4-point DFT. Forward multiplies the odd cross term by -i,
/// inverse by +i; both cases are free of real multiplications.
template <typename T>
inline void dft4(std::complex<T>* v, bool inverse) {
  const std::complex<T> a = v[0] + v[2];
  const std::complex<T> b = v[0] - v[2];
  const std::complex<T> c = v[1] + v[3];
  std::complex<T> d = v[1] - v[3];
  // d *= -i (forward) or +i (inverse).
  d = inverse ? std::complex<T>(-d.imag(), d.real())
              : std::complex<T>(d.imag(), -d.real());
  v[0] = a + c;
  v[1] = b + d;
  v[2] = a - c;
  v[3] = b - d;
}

/// In-place 8-point DFT: two 4-point DFTs over even/odd lanes combined with
/// the 8th roots of unity (only w8^1 and w8^3 cost real multiplications).
template <typename T>
inline void dft8(std::complex<T>* v, bool inverse) {
  std::complex<T> e[4] = {v[0], v[2], v[4], v[6]};
  std::complex<T> o[4] = {v[1], v[3], v[5], v[7]};
  dft4(e, inverse);
  dft4(o, inverse);

  const T c = static_cast<T>(0.70710678118654752440);  // 1/sqrt(2)
  // Forward twiddles w8^{-k}: 1, (c,-c), (0,-1), (-c,-c); inverse conjugates.
  const T s = inverse ? T(1) : T(-1);
  const std::complex<T> w1(c, s * c);
  const std::complex<T> w3(-c, s * c);
  o[1] *= w1;
  o[2] = inverse ? std::complex<T>(-o[2].imag(), o[2].real())
                 : std::complex<T>(o[2].imag(), -o[2].real());
  o[3] *= w3;

  for (int k = 0; k < 4; ++k) {
    v[k] = e[k] + o[k];
    v[k + 4] = e[k] - o[k];
  }
}

/// In-place r-point DFT via the master twiddle table of a length-n plan
/// (n divisible by r). O(r^2); used for radices without a hardcoded core.
template <typename T>
inline void dft_generic(std::complex<T>* v, unsigned r,
                        const TwiddleTable<T>& master, std::size_t n) {
  XU_DCHECK(r >= 2 && r <= kMaxRadix);
  XU_DCHECK(n % r == 0);
  const std::size_t stride = n / r;
  std::complex<T> y[kMaxRadix];
  for (unsigned i = 0; i < r; ++i) {
    std::complex<T> acc = v[0];
    for (unsigned t = 1; t < r; ++t) {
      acc += v[t] * master[(static_cast<std::size_t>(i) * t % r) * stride];
    }
    y[i] = acc;
  }
  for (unsigned i = 0; i < r; ++i) v[i] = y[i];
}

/// Dispatches to the fastest available core for radix r.
/// `master` must be the plan's full-size table (its direction determines
/// forward/inverse for the generic path; `inverse` must agree with it).
template <typename T>
inline void small_dft(std::complex<T>* v, unsigned r, bool inverse,
                      const TwiddleTable<T>& master, std::size_t n) {
  switch (r) {
    case 2:
      dft2(v);
      break;
    case 4:
      dft4(v, inverse);
      break;
    case 8:
      dft8(v, inverse);
      break;
    default:
      dft_generic(v, r, master, n);
      break;
  }
}

/// Batched radix-8 DIF inner loop over one block: all `sub` butterflies of
/// the block starting at `p`, loads and stores at stride `sub`. This is the
/// hot loop of every power-of-8 transform, so the radix is a compile-time
/// constant here: the per-butterfly radix dispatch and variable-bound copy
/// loops of the generic path collapse into straight-line code the compiler
/// can keep in registers and vectorize. The arithmetic — loads, dft8,
/// ascending-i twiddle multiplies with index (i*j % block) * tw_stride,
/// stores — is identical in order to the generic path, so results are
/// bit-for-bit the same (tests/fft/test_dif_oracle.cpp pins this against a
/// serial per-butterfly reference).
template <typename T>
inline void radix8_dif_block(std::complex<T>* p, std::size_t sub,
                             std::size_t block, std::size_t tw_stride,
                             const TwiddleTable<T>& tw, bool inverse) {
  for (std::size_t j = 0; j < sub; ++j) {
    std::complex<T>* const q = p + j;
    std::complex<T> v[8];
    for (unsigned t = 0; t < 8; ++t) v[t] = q[t * sub];
    dft8(v, inverse);
    for (unsigned i = 1; i < 8; ++i) {
      v[i] *= tw[(static_cast<std::size_t>(i) * j % block) * tw_stride];
    }
    for (unsigned t = 0; t < 8; ++t) q[t * sub] = v[t];
  }
}

/// Actual floating-point operations performed by one r-point core
/// (real adds + real multiplies), per the accounting in DESIGN.md §5.
[[nodiscard]] constexpr std::uint64_t small_dft_flops(unsigned r) {
  switch (r) {
    case 2:
      return 4;  // 2 complex additions
    case 4:
      return 16;  // 8 complex additions
    case 8:
      return 60;  // 2x dft4 + 8 cadds + 2 nontrivial w8 multiplies
    default:
      return 6ULL * r * r + 2ULL * r * (r - 1);
  }
}

}  // namespace xfft
