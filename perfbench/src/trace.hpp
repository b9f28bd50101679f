// In-memory span recorder for traced benchmark runs.
//
// Spans are recorded in the benchmark's own code around each public call
// into a library layer: name, start, end and the span that caused it.
// They stay in memory until the run ends, when they are summarized (self
// time = a span's duration minus the part its children cover) and written
// out. A disabled tracer records nothing and costs one branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::int64_t kNoParent = -1;

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (kNoParent when disabled) so
  /// children recorded later can name it. Thread-safe.
  std::int64_t record(const char* name, Clock::time_point start,
                      Clock::time_point end,
                      std::int64_t parent = kNoParent);

  /// Opens a span that end() closes; returns its id. Thread-safe.
  std::int64_t begin(const char* name, std::int64_t parent = kNoParent);
  void end(std::int64_t id);

  struct Summary {
    std::string name;
    std::uint64_t count = 0;
    double total_seconds = 0.0;
    double self_seconds = 0.0;
  };
  /// Per-name totals and self time, in order of first appearance.
  [[nodiscard]] std::vector<Summary> summarize() const;

  [[nodiscard]] std::size_t size() const;

  /// Writes every span as CSV (id,parent,name,start_ns,end_ns); returns
  /// false when the file cannot be written.
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Scoped span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name,
             std::int64_t parent = Tracer::kNoParent)
      : tracer_(t), id_(t.begin(name, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
