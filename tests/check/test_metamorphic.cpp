// Metamorphic FFT properties: the full suite passes for every engine in the
// repository, the engine roster covers the paths the paper's pipeline uses
// (N-D with rotation, Q15 fixed point, the resilience harness), and a
// deliberately broken engine fails — proving the properties have teeth.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "xcheck/metamorphic.hpp"

namespace {

using xcheck::Engine;

TEST(XCheckMetamorphic, FullSuitePasses) {
  const auto results = xcheck::run_metamorphic_suite(/*seed=*/1);
  ASSERT_GT(results.size(), 100u);  // 10 engines x 9 sizes x 5 properties
  for (const auto& r : results) {
    EXPECT_TRUE(r.pass) << r.describe();
  }
}

TEST(XCheckMetamorphic, RosterCoversEveryEngineFamily) {
  std::set<std::string> names;
  for (const auto& e : xcheck::all_engines()) names.insert(e.name);
  for (const char* required :
       {"plan1d-r8", "plan1d-r4", "plan1d-r2", "stockham", "dit-recursive",
        "four-step", "bluestein", "plannd", "q15", "resilient-fft"}) {
    EXPECT_TRUE(names.count(required)) << "missing engine: " << required;
  }
}

TEST(XCheckMetamorphic, SupportsRespectsRankAndRadix) {
  const auto engines = xcheck::all_engines();
  for (const auto& e : engines) {
    if (e.max_rank == 1) {
      EXPECT_FALSE(e.supports({16, 16, 1})) << e.name;
    }
    if (e.pow2_only) {
      EXPECT_FALSE(e.supports({17, 1, 1})) << e.name;
    } else {
      EXPECT_TRUE(e.supports({17, 1, 1})) << e.name;
    }
  }
}

TEST(XCheckMetamorphic, SuiteIsDeterministic) {
  const auto a = xcheck::run_metamorphic_suite(7);
  const auto b = xcheck::run_metamorphic_suite(7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].describe(), b[i].describe());
    EXPECT_EQ(a[i].error, b[i].error);
  }
}

// Negative control: an "FFT" that drops one output bin must trip the
// properties (Parseval loses that bin's energy; round-trip loses data).
TEST(XCheckMetamorphic, BrokenEngineIsCaught) {
  const auto engines = xcheck::all_engines();
  const auto it = std::find_if(engines.begin(), engines.end(),
                               [](const Engine& e) {
                                 return e.name == "plan1d-r8";
                               });
  ASSERT_NE(it, engines.end());
  Engine broken = *it;
  broken.name = "plan1d-r8-broken";
  auto inner = broken.transform;
  broken.transform = [inner](std::span<xfft::Cf> data, xfft::Dims3 dims,
                             xfft::Direction dir) {
    inner(data, dims, dir);
    if (data.size() > 1) data[1] = {0.0F, 0.0F};
  };
  const auto results = xcheck::run_properties(broken, {64, 1, 1}, 1);
  ASSERT_FALSE(results.empty());
  EXPECT_TRUE(std::any_of(results.begin(), results.end(),
                          [](const auto& r) { return !r.pass; }));
}

}  // namespace
