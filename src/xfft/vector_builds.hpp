// The one build table of xfft's hot loops (docs/architecture.md §3): the
// radix-2/4/8 stage loop (plan1d.cpp), PlanND's unit-stride pencil copies and
// its x pass's transposing row copies (fftnd.cpp) each have an x86-64-v4, an
// x86-64-v3 and a baseline build of one source, and every call goes through
// the build active_build() names.
// Included only by xfft's own sources, which all see the same
// XFFT_STAGE_LOOP_BUILDS (src/xfft/CMakeLists.txt); tests use the seam in
// stage_loop.hpp instead.
#pragma once

#include <atomic>
#include <cstddef>
#include <iterator>
#include <string_view>

namespace xfft::detail {

template <auto F, auto Narrow = F>
struct VectorBuilds;

// The same source compiled for wider vectors: `flatten` inlines the whole
// call tree of F into the target's code. Built with -ffp-contract=off, and
// only in the configuration whose code has no FMA instruction, so every
// build rounds exactly as the baseline one does.
#if defined(XFFT_STAGE_LOOP_BUILDS) && defined(__GNUC__) && \
    !defined(__clang__) && defined(__x86_64__)
#define XFFT_VECTOR_BUILDS 1
/// The builds, widest first; the last runs on any CPU.
inline constexpr std::string_view kBuildNames[] = {"x86-64-v4", "x86-64-v3",
                                                   "baseline"};

template <typename... A, void (*F)(A...), void (*Narrow)(A...)>
struct VectorBuilds<F, Narrow> {
  [[gnu::target("arch=x86-64-v4"), gnu::flatten]] static void v4(A... a) {
    F(a...);
  }
  [[gnu::target("arch=x86-64-v3"), gnu::flatten]] static void v3(A... a) {
    Narrow(a...);
  }
  static constexpr void (*kTable[])(A...) = {&v4, &v3, Narrow};
};
#else
inline constexpr std::string_view kBuildNames[] = {"baseline"};

template <typename... A, void (*F)(A...), void (*Narrow)(A...)>
struct VectorBuilds<F, Narrow> {
  static constexpr void (*kTable[])(A...) = {Narrow};
};
#endif

inline constexpr std::size_t kBuilds = std::size(kBuildNames);

/// Index into kBuildNames of the build every hot loop runs: the widest the
/// CPU supports, chosen once (or the one a ScopedStageLoopBuild set).
std::atomic<std::size_t>& active_build();

/// F as compiled for the active build. A loop whose source has to differ
/// by vector width passes its x86-64-v4 form as F and the form for the
/// narrower builds as Narrow.
template <auto F, auto Narrow = F>
auto in_active_build() {
  return VectorBuilds<F, Narrow>::kTable[active_build().load(
      std::memory_order_relaxed)];
}

}  // namespace xfft::detail
