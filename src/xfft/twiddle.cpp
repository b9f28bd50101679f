#include "xfft/twiddle.hpp"

#include <cmath>
#include <numbers>

#include "xutil/check.hpp"

namespace xfft {

template <typename T>
TwiddleTable<T>::TwiddleTable(std::size_t n, Direction dir) {
  XU_CHECK_MSG(n >= 1, "twiddle table size must be >= 1");
  w_.resize(n);
  // Compute in double regardless of T so float tables are correctly rounded.
  const double sign = dir == Direction::kForward ? -1.0 : 1.0;
  const double step = sign * 2.0 * std::numbers::pi / static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double a = step * static_cast<double>(k);
    w_[k] = std::complex<T>(static_cast<T>(std::cos(a)),
                            static_cast<T>(std::sin(a)));
  }
}

template class TwiddleTable<float>;
template class TwiddleTable<double>;

ReplicatedTwiddleTable::ReplicatedTwiddleTable(std::size_t n,
                                               std::size_t copies,
                                               Direction dir)
    : n_(n), copies_(copies), live_(n) {
  XU_CHECK_MSG(n >= 1, "table size must be >= 1");
  XU_CHECK_MSG(copies >= 1, "at least one replica required");
  const TwiddleTable<float> master(n, dir);
  slots_.resize(n_ * copies_);
  for (std::size_t c = 0; c < copies_; ++c) {
    for (std::size_t k = 0; k < n_; ++k) {
      slots_[c * n_ + k] = master[k];
    }
  }
}

std::size_t ReplicatedTwiddleTable::copies_for_machine(
    std::size_t n, std::size_t cache_modules, std::size_t lines_per_module,
    std::size_t elems_per_line) {
  XU_CHECK(n >= 1 && cache_modules >= 1 && elems_per_line >= 1);
  (void)lines_per_module;
  // The paper: "We choose the number of copies to be just enough so that one
  // cache line in each cache module contains a portion of the lookup table."
  // One copy spans ceil(n / elems_per_line) lines, which hash uniformly over
  // the modules; we need total lines >= cache_modules.
  const std::size_t lines_per_copy = (n + elems_per_line - 1) / elems_per_line;
  const std::size_t copies =
      (cache_modules + lines_per_copy - 1) / lines_per_copy;
  return copies < 1 ? 1 : copies;
}

std::size_t ReplicatedTwiddleTable::storage_index(std::size_t thread,
                                                  std::size_t k) const {
  XU_DCHECK(k < n_);
  const std::size_t replica = thread % copies_;
  return replica * n_ + k;
}

Cf ReplicatedTwiddleTable::read(std::size_t thread, std::size_t k) const {
  return slots_[storage_index(thread, k)];
}

void ReplicatedTwiddleTable::decimate(std::size_t radix) {
  XU_CHECK_MSG(radix >= 2, "decimation radix must be >= 2");
  XU_CHECK_MSG(live_ % radix == 0,
               "live root count " << live_ << " not divisible by radix "
                                  << radix);
  live_ /= radix;
  // After this iteration only roots at indices that are multiples of
  // (n_/live_) remain in use; replace each dead slot with a replica of the
  // next-lower live root so reads of live roots can be spread over the
  // whole region (Section IV-A, decimation-in-frequency discussion).
  const std::size_t stride = n_ / live_;
  for (std::size_t c = 0; c < copies_; ++c) {
    Cf* copy = &slots_[c * n_];
    for (std::size_t k = 0; k < n_; ++k) {
      copy[k] = copy[k - (k % stride)];
    }
  }
}

}  // namespace xfft
