#include "xfft/plan_cache.hpp"

#include <algorithm>

#include "xutil/check.hpp"

namespace xfft {

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {
  XU_CHECK_MSG(capacity >= 1, "plan cache capacity must be >= 1");
}

std::shared_ptr<PlanND<float>> PlanCache::plan_nd(Dims3 dims, Direction dir,
                                                  PlanND<float>::Options opt) {
  const Key key{dims.nx, dims.ny, dims.nz, dir, opt.max_radix, opt.scaling};
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    it->second.last_use = ++tick_;
    return it->second.plan;
  }
  ++misses_;
  auto plan = std::make_shared<PlanND<float>>(dims, dir, opt);
  cache_.emplace(key, Entry{plan, ++tick_});
  evict_to_capacity_locked();
  return plan;
}

void PlanCache::evict_to_capacity_locked() {
  // Linear scan for the oldest stamp: capacities are small (hundreds) and
  // evictions rare, so no separate recency list is kept.
  while (cache_.size() > capacity_) {
    const auto oldest = std::min_element(
        cache_.begin(), cache_.end(), [](const auto& a, const auto& b) {
          return a.second.last_use < b.second.last_use;
        });
    cache_.erase(oldest);
    ++evictions_;
  }
}

void PlanCache::set_capacity(std::size_t capacity) {
  XU_CHECK_MSG(capacity >= 1, "plan cache capacity must be >= 1");
  const std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  evict_to_capacity_locked();
}

void PlanCache::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

void fft_cached_nd(std::span<Cf> data, Dims3 dims, Direction dir) {
  PlanCache::global().plan_nd(dims, dir)->execute(data);
}

}  // namespace xfft
