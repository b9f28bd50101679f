#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

std::int64_t Tracer::record(const char* name, Clock::time_point start,
                            Clock::time_point end, std::int64_t parent) {
  if (!enabled_) return kNoParent;
  const Span s{name, parent, ns(start), ns(end)};
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::begin(const char* name, std::int64_t parent) {
  if (!enabled_) return kNoParent;
  const auto now = Clock::now();
  return record(name, now, now, parent);
}

void Tracer::end(std::int64_t id) {
  if (!enabled_ || id < 0) return;
  const std::int64_t t = ns(Clock::now());
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<Tracer::Summary> Tracer::summarize() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Children intervals per parent, clipped to the parent, then merged so
  // overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::int64_t b = std::max(s.start_ns, p.start_ns);
    const std::int64_t e = std::min(s.end_ns, p.end_ns);
    if (e > b) kids[static_cast<std::size_t>(s.parent)].emplace_back(b, e);
  }
  std::vector<Summary> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_b = 0;
    std::int64_t cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    const auto [it, fresh] = index.emplace(s.name, out.size());
    if (fresh) out.push_back(Summary{s.name, 0, 0.0, 0.0});
    Summary& sum = out[it->second];
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++sum.count;
    sum.total_seconds += static_cast<double>(dur) * 1e-9;
    sum.self_seconds += static_cast<double>(dur - covered) * 1e-9;
  }
  return out;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  std::fputs("id,parent,name,start_ns,end_ns\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%lld,%s,%lld,%lld\n", i,
                 static_cast<long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
