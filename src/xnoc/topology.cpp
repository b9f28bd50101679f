#include "xnoc/topology.hpp"

#include "xutil/check.hpp"
#include "xutil/units.hpp"

namespace xnoc {

Topology pure_mot(std::size_t clusters, std::size_t modules) {
  Topology t{clusters, modules,
             xutil::log2_exact(clusters, "clusters") +
                 xutil::log2_exact(modules, "memory modules"),
             0};
  validate(t);
  return t;
}

Topology hybrid(std::size_t clusters, std::size_t modules,
                unsigned mot_levels, unsigned butterfly_levels) {
  Topology t{clusters, modules, mot_levels, butterfly_levels};
  validate(t);
  return t;
}

void validate(const Topology& t) {
  XU_CHECK_MSG(t.clusters >= 1 && t.modules >= 1,
               "topology must connect at least one cluster and module");
  XU_CHECK_MSG(xutil::is_pow2(t.clusters) && xutil::is_pow2(t.modules),
               "cluster and module counts must be powers of two");
  const unsigned full = xutil::log2_exact(t.clusters, "clusters") +
                        xutil::log2_exact(t.modules, "memory modules");
  XU_CHECK_MSG(t.total_levels() <= full,
               "level split " << t.mot_levels << "+" << t.butterfly_levels
                              << " exceeds pure-MoT depth " << full);
  if (t.is_pure_mot()) {
    XU_CHECK_MSG(t.mot_levels == full,
                 "pure MoT must have log2(C)+log2(M) = " << full
                                                         << " levels");
  }
}

namespace {

/// Ports seen by the butterfly section (0 for pure MoT).
std::uint64_t butterfly_ports(const Topology& t) {
  if (t.is_pure_mot()) return 0;
  // Split the MoT levels between the cluster side and the module side in
  // proportion to the tree depths (evenly when C == M).
  const unsigned d1 = t.mot_levels / 2;
  return static_cast<std::uint64_t>(t.clusters) << d1;
}

}  // namespace

std::uint64_t switch_count(const Topology& t) {
  validate(t);
  if (t.is_pure_mot()) {
    return static_cast<std::uint64_t>(t.clusters) * (t.modules - 1) +
           static_cast<std::uint64_t>(t.modules) * (t.clusters - 1);
  }
  const unsigned d1 = t.mot_levels / 2;
  const unsigned d2 = t.mot_levels - d1;
  // Truncated fan-out trees (cluster side) and fan-in trees (module side):
  // a binary tree truncated after d levels has 2^d - 1 internal nodes.
  const std::uint64_t cluster_side =
      static_cast<std::uint64_t>(t.clusters) * ((1ULL << d1) - 1);
  const std::uint64_t module_side =
      static_cast<std::uint64_t>(t.modules) * ((1ULL << d2) - 1);
  const std::uint64_t ports = butterfly_ports(t);
  const std::uint64_t butterfly = ports / 2 * t.butterfly_levels;
  return cluster_side + module_side + butterfly;
}

}  // namespace xnoc
