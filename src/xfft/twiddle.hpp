// Twiddle-factor tables.
//
// TwiddleTable is the master table of Nth roots of unity used by every stage
// of a decimation-in-frequency FFT (Section IV-A of the paper: "In the first
// iteration, there are N Nth roots of unity ... the N/r-th roots are a subset
// of the Nth roots").
//
// ReplicatedTwiddleTable models the paper's replication scheme: multiple
// copies of the table are kept so that concurrent readers spread across cache
// modules instead of queueing on one location, and after each iteration the
// roots that will no longer be used are overwritten with replicas of roots
// that are still live ("decimation" of the table).
#pragma once

#include <cstdint>
#include <vector>

#include "xfft/types.hpp"

namespace xfft {

/// Master table W[k] = exp(-2*pi*i*k/N) for k in [0, N).
/// A stage of block length L uses the twiddle w_L^{-i*j} = W[i*j*(N/L)]
/// (i*j < L); Plan1D copies these into one row per stage.
template <typename T>
class TwiddleTable {
 public:
  TwiddleTable() = default;

  /// Builds the table for transform size n (n >= 1).
  /// Forward tables hold e^{-2 pi i k / n}; inverse tables the conjugates.
  TwiddleTable(std::size_t n, Direction dir);

  [[nodiscard]] std::size_t size() const { return w_.size(); }

  /// W[k] with k already reduced mod n by the caller.
  [[nodiscard]] std::complex<T> operator[](std::size_t k) const {
    return w_[k];
  }

  [[nodiscard]] const std::complex<T>* data() const { return w_.data(); }

 private:
  std::vector<std::complex<T>> w_;
};

/// The paper's replicated lookup table, modelled functionally.
///
/// The table holds `copies` replicas of the N roots; a thread with id t reads
/// root k from replica (t % copies), so concurrent accesses spread uniformly
/// over replicas (and hence over cache modules). After each radix-r DIF
/// iteration, decimate(r) keeps only every r-th root live and fills the freed
/// slots with replicas of the next-lower live root, exactly as Section IV-A
/// describes, so later (lower-root-count) iterations still enjoy full spread.
class ReplicatedTwiddleTable {
 public:
  /// n: transform size; copies: replica count (the paper picks the smallest
  /// count such that every cache module holds a piece of the table).
  ReplicatedTwiddleTable(std::size_t n, std::size_t copies, Direction dir);

  /// Chooses the replica count per the paper's rule: just enough copies that
  /// one cache line in each of `cache_modules` modules holds table data.
  /// words_per_line is the cache line size in table elements.
  [[nodiscard]] static std::size_t copies_for_machine(
      std::size_t n, std::size_t cache_modules, std::size_t lines_per_module,
      std::size_t elems_per_line);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t copies() const { return copies_; }
  /// Number of distinct live roots remaining (n / r^decimations).
  [[nodiscard]] std::size_t live_roots() const { return live_; }

  /// Root k as read by thread `thread` (selects a replica).
  [[nodiscard]] Cf read(std::size_t thread, std::size_t k) const;

  /// Flat storage index that `read` touches; the simulator uses this to
  /// model which cache module services the access.
  [[nodiscard]] std::size_t storage_index(std::size_t thread,
                                          std::size_t k) const;

  /// After a radix-r iteration, only every r-th root remains in use; rewrite
  /// the table so dead slots replicate the preceding live root.
  void decimate(std::size_t radix);

 private:
  std::size_t n_;
  std::size_t copies_;
  std::size_t live_;
  std::vector<Cf> slots_;  // copies_ replicas, each n_ roots
};

extern template class TwiddleTable<float>;
extern template class TwiddleTable<double>;

}  // namespace xfft
