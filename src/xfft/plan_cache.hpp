// Plan cache: FFTW-style amortization of plan construction.
//
// Twiddle tables and digit-reversal permutations dominate plan setup; a
// cache keyed on (shape, direction, options) lets call sites that cannot
// hold a plan (e.g. library internals, language bindings) still reuse
// them. Plans are shared via shared_ptr. 1-D transforms are PlanND plans
// with dims {n, 1, 1}.
//
// The cache is bounded: at most `capacity` entries (default
// kDefaultCapacity — generous for any realistic working set) are retained,
// and inserting past the bound evicts the least-recently-used entry. A
// long-running service (xserve) can therefore plan for arbitrary request
// streams without unbounded memory growth; evicted plans stay valid for
// whoever still holds their shared_ptr.
//
// The cache is thread-safe (a mutex guards the map and counters), and so
// are the plans it hands out: PlanND::execute keeps its workspace per call,
// so any number of threads may execute one cached plan at once, each on
// its own buffer.
#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "xfft/fftnd.hpp"

namespace xfft {

class PlanCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 256;

  /// `capacity` bounds the number of retained plans (>= 1).
  explicit PlanCache(std::size_t capacity = kDefaultCapacity);

  /// Returns the cached N-D plan for (dims, dir, opt), creating on miss.
  std::shared_ptr<PlanND<float>> plan_nd(Dims3 dims, Direction dir,
                                         PlanND<float>::Options opt = {});

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }
  [[nodiscard]] std::size_t capacity() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }
  [[nodiscard]] std::uint64_t hits() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  [[nodiscard]] std::uint64_t misses() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  [[nodiscard]] std::uint64_t evictions() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }

  /// Rebounds the cache (>= 1), evicting LRU entries down to the new size.
  void set_capacity(std::size_t capacity);

  /// Drops every cached plan (outstanding shared_ptrs stay valid).
  void clear();

  /// Process-wide cache for convenience call sites.
  static PlanCache& global();

 private:
  struct Key {
    std::size_t nx, ny, nz;
    Direction dir;
    unsigned max_radix;
    Scaling scaling;
    auto operator<=>(const Key&) const = default;
  };
  struct Entry {
    std::shared_ptr<PlanND<float>> plan;
    std::uint64_t last_use = 0;  ///< recency stamp from tick_
  };

  /// Evicts least-recently-used entries until the size fits capacity_.
  /// Caller holds mu_.
  void evict_to_capacity_locked();

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::map<Key, Entry> cache_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Convenience one-call transform through the global cache.
void fft_cached_nd(std::span<Cf> data, Dims3 dims, Direction dir);

}  // namespace xfft
