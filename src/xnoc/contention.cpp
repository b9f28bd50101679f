#include "xnoc/contention.hpp"

#include <cmath>

#include "xutil/check.hpp"

namespace xnoc {

double efficiency(const Topology& t, TrafficPattern pattern,
                  const ContentionParams& params) {
  validate(t);
  XU_CHECK(params.uniform_per_level > 0.0 && params.uniform_per_level <= 1.0);
  XU_CHECK(params.transpose_per_level > 0.0 &&
           params.transpose_per_level <= 1.0);
  switch (pattern) {
    case TrafficPattern::kUniform:
      return std::pow(params.uniform_per_level, t.butterfly_levels);
    case TrafficPattern::kTranspose:
      return std::pow(params.transpose_per_level, t.butterfly_levels);
    case TrafficPattern::kHotSpot: {
      // All clusters aim at one module: the module services one request per
      // cycle while clusters offer `clusters` per cycle.
      const double ratio =
          1.0 / static_cast<double>(t.clusters == 0 ? 1 : t.clusters);
      return ratio > 1.0 ? 1.0 : ratio;
    }
  }
  return 1.0;
}

}  // namespace xnoc
