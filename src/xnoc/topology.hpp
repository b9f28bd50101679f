// Interconnection-network topology models (Section II-B of the paper).
//
// XMT requires a high-throughput NoC between processing clusters and cache
// modules. A pure mesh-of-trees (MoT) network gives a unique data path per
// (cluster, module) pair — no internal blocking — but its switch count grows
// with clusters x modules, so large configurations replace the inner levels
// with butterfly levels (Balkan, Qu, Vishkin [19]), trading area for some
// internal blocking.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xnoc {

/// Topology of a cluster<->memory-module interconnect.
/// `mot_levels` counts tree levels split between the cluster-side fan-out
/// trees and the module-side fan-in trees; `butterfly_levels` counts the
/// blocking levels replacing the middle of the pure MoT.
struct Topology {
  std::size_t clusters = 0;
  std::size_t modules = 0;
  unsigned mot_levels = 0;
  unsigned butterfly_levels = 0;

  /// True for a pure (non-blocking) mesh of trees.
  [[nodiscard]] bool is_pure_mot() const { return butterfly_levels == 0; }

  /// Total pipeline depth request packets traverse (one cycle per level).
  [[nodiscard]] unsigned total_levels() const {
    return mot_levels + butterfly_levels;
  }
};

/// Pure MoT between `clusters` and `modules` (both powers of two):
/// log2(clusters) + log2(modules) levels, no butterfly.
[[nodiscard]] Topology pure_mot(std::size_t clusters, std::size_t modules);

/// Hybrid MoT/butterfly with an explicit level split (as in Table II).
[[nodiscard]] Topology hybrid(std::size_t clusters, std::size_t modules,
                              unsigned mot_levels, unsigned butterfly_levels);

/// Number of switching elements.
///
/// Pure MoT: each of the `clusters` fan-out trees has (modules - 1) internal
/// nodes and each of the `modules` fan-in trees has (clusters - 1), i.e.
/// ~2*C*M switches — the quadratic growth that motivates the hybrid.
///
/// Hybrid: the cluster-side trees are truncated after d1 levels and the
/// module-side trees after d2 (d1 + d2 = mot_levels), connected by a
/// butterfly on P = clusters * 2^d1 ports with butterfly_levels stages of
/// P/2 2x2 switches.
[[nodiscard]] std::uint64_t switch_count(const Topology& t);

/// Validates internal consistency (power-of-two sizes, level split within
/// the pure-MoT depth); throws xutil::Error on violation.
void validate(const Topology& t);

}  // namespace xnoc
