// Analytic throughput/contention model of the NoC.
//
// A pure MoT is non-blocking: under any admissible traffic every
// (cluster, module) pair has a private path, so sustained efficiency is ~1.
// Each butterfly level introduces internal link sharing; its cost depends on
// the traffic pattern. The per-level efficiencies below are the calibration
// constants that, combined with the DRAM model, reproduce the paper's
// Table IV and the Fig. 3 observations (see xsim/calibration.hpp for the
// derivation):
//
//  - uniform (hashed, all-to-all balanced) traffic loses little per level;
//  - rotation (generalized transpose) traffic concentrates bursts of
//    addresses onto module subsets, conflicting inside the butterfly.
#pragma once

#include "xnoc/topology.hpp"

namespace xnoc {

/// Spatial structure of the request stream offered to the network.
enum class TrafficPattern {
  kUniform,   ///< address-hashed streaming (FFT butterfly iterations)
  kTranspose, ///< axis-rotation scatter (strided bursts)
  kHotSpot,   ///< all requests target one module (unreplicated twiddle LUT)
};

/// Per-butterfly-level sustained-throughput retention factors.
struct ContentionParams {
  double uniform_per_level = 0.985;
  double transpose_per_level = 0.785;
};

/// Fraction of the network's raw port bandwidth sustainable under `pattern`
/// (in (0, 1]). Hot-spot traffic is limited by the single target module's
/// service rate: modules/clusters of the per-cluster rate (capped at 1).
[[nodiscard]] double efficiency(const Topology& t, TrafficPattern pattern,
                                const ContentionParams& params = {});

}  // namespace xnoc
