// The DIF stage kernel: small-DFT cores and the batched butterfly loop.
//
// The hardcoded radix-2/4/8 cores mirror the structure a TCU register-file
// kernel would use on XMT (Section IV-A: radix 8 is the largest practical
// radix because a TCU's 32 floating-point registers hold 16 single-precision
// complex values). A generic O(r^2) core supports other radices (3, 5, ...)
// so the library handles any smooth size. dif_block runs one block of a
// stage through a core in double precision, multiplies by the stage's
// precomputed twiddle row with cmul, a complex multiply written out in real
// arithmetic, and rounds once per stored output. It is generic over a lane
// count: one transform (Plan1D::execute) or a block of 16 run in lockstep
// (PlanND's work blocks), with each lane bit-identical to the first.
#pragma once

#include <complex>
#include <cstddef>
#include <type_traits>

#include "xfft/twiddle.hpp"
#include "xutil/check.hpp"

namespace xfft {

/// Maximum radix the generic core accepts (bounded local scratch).
inline constexpr unsigned kMaxRadix = 64;

/// Complex product written out as (ac - bd, ad + bc). These are the
/// operations, in the order, of GCC's std::complex multiply, without its
/// branch to __mulsc3/__muldc3 when both parts come out NaN (the C Annex G
/// recovery of infinities), which keeps the multiply vectorizable. The
/// result is bit-identical to `a * b` whenever that branch is not taken,
/// i.e. for finite products, as long as nothing fuses a multiply and an
/// add. GCC's C++ default is -ffp-contract=fast, also under -std=c++20, so
/// xfft builds with -ffp-contract=off: the baseline x86-64 build has no FMA
/// anyway, but the x86-64-v3/v4 builds of the radix-2/4/8 stage loop
/// (plan1d.cpp) do. GCC 12's SLP vectorizer still turns the complex
/// multiply into vfmaddsub with contraction off: at -O3 in dft_generic
/// (`*` and cmul alike), which changed double outputs of odd sizes, and at
/// -O2 or under the sanitizers in cmul everywhere. So the R = 0 stages run
/// only in the baseline build, and the vector builds exist only in the -O3
/// Release library, which CI checks for FMA instructions.
template <typename T>
[[nodiscard]] inline std::complex<T> cmul(std::complex<T> a,
                                          std::complex<T> b) {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

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
  o[1] = cmul(o[1], w1);
  o[2] = inverse ? std::complex<T>(-o[2].imag(), o[2].real())
                 : std::complex<T>(o[2].imag(), -o[2].real());
  o[3] = cmul(o[3], w3);

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

/// Distance in T between consecutive elements of one lane of dif_block:
/// 2 for one interleaved std::complex<T> array, L for L lanes stored
/// lane-major in split re/im arrays.
template <std::size_t L>
inline constexpr std::size_t kElemStride = L == 1 ? 2 : L;

/// Radix-R DIF butterflies over one block of L transforms run in lockstep:
/// all `sub` butterflies of the block, loads and stores at stride `sub`.
/// Element q of lane l sits at re[q*S + l] and im[q*S + l] with
/// S = kElemStride<L>; for L = 1, re and im = re + 1 address the real and
/// imaginary parts of a std::complex<T> array. For butterfly j each lane
/// widens its R inputs to double, runs the R-point core, multiplies output
/// i (i = 1..R-1) by its stage twiddle row[j*(R-1) + i-1] = w_block^{-i*j}
/// and rounds each output once when it stores it, so every lane performs
/// exactly the operations of the L = 1 loop. This is the only stage loop of
/// Plan1D and PlanND: R = 2, 4 and 8 are compile-time constants, so the
/// core and the copy loops become straight-line code and the lane loop
/// vectorizes, at the widest vector width the CPU has (plan1d.cpp builds
/// them for x86-64-v4, v3 and baseline); R = 0 runs the runtime radix `r`
/// (odd factors) through dft_generic with the plan's master table
/// `master` of size `n`, in the baseline build only (see cmul).
/// tests/fft/test_dif_oracle.cpp pins the result bit for bit to a serial
/// per-butterfly reference that multiplies with std::complex operators.
template <unsigned R, std::size_t L, typename T>
inline void dif_block(T* re, T* im, std::size_t sub, unsigned r,
                      const std::complex<double>* row, bool inverse,
                      const TwiddleTable<double>& master, std::size_t n) {
  static_assert(R == 0 || R == 2 || R == 4 || R == 8);
  constexpr std::size_t S = kElemStride<L>;
  const unsigned radix = R == 0 ? r : R;
  // `inv` is a compile-time constant, so the cores are branch-free and the
  // lane loop vectorizes.
  const auto butterflies = [&](auto inv) {
    for (std::size_t j = 0; j < sub; ++j) {
      const std::complex<double>* const w = row + j * (radix - 1);
      T* const qr = re + j * S;
      T* const qi = im + j * S;
      // For L > 1 the lanes touch disjoint elements: rows t*sub*S of the
      // block are at least S = L apart, and re and im are disjoint arrays.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC ivdep
#endif
      for (std::size_t l = 0; l < L; ++l) {
        std::complex<double> v[R == 0 ? kMaxRadix : R];
        for (unsigned t = 0; t < radix; ++t) {
          v[t] = {static_cast<double>(qr[t * sub * S + l]),
                  static_cast<double>(qi[t * sub * S + l])};
        }
        if constexpr (R == 2) {
          dft2(v);
        } else if constexpr (R == 4) {
          dft4(v, inv);
        } else if constexpr (R == 8) {
          dft8(v, inv);
        } else {
          dft_generic(v, r, master, n);
        }
        for (unsigned i = 1; i < radix; ++i) v[i] = cmul(v[i], w[i - 1]);
        for (unsigned t = 0; t < radix; ++t) {
          qr[t * sub * S + l] = static_cast<T>(v[t].real());
          qi[t * sub * S + l] = static_cast<T>(v[t].imag());
        }
      }
    }
  };
  if (inverse) {
    butterflies(std::true_type{});
  } else {
    butterflies(std::false_type{});
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
