// Test seam for the builds of the radix-2/4/8 DIF stage loop (plan1d.cpp,
// docs/architecture.md §3). The library picks the widest build the CPU
// supports on its own; this header lets a test run every supported build
// against one oracle. It is not part of the library's interface.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

namespace xfft::detail {

/// Names of the stage loop builds this library has and this CPU can run,
/// widest first; the last is always "baseline".
[[nodiscard]] std::vector<std::string_view> supported_stage_loop_builds();

/// While alive, every Plan1D and PlanND of the process runs its radix-2/4/8
/// stages through build `name`, which must be supported. Set it while no
/// transform runs.
class ScopedStageLoopBuild {
 public:
  explicit ScopedStageLoopBuild(std::string_view name);
  ~ScopedStageLoopBuild();
  ScopedStageLoopBuild(const ScopedStageLoopBuild&) = delete;
  ScopedStageLoopBuild& operator=(const ScopedStageLoopBuild&) = delete;

 private:
  std::size_t previous_ = 0;
};

}  // namespace xfft::detail
