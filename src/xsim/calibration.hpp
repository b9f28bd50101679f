// Calibration constants of the analytic performance model, with the
// derivation of each value. See DESIGN.md §5 and EXPERIMENTS.md.
//
// The paper's own simulator (XMTSim) was validated against an FPGA
// prototype with up to 33% discrepancy (5% for the FFT); our model is
// calibrated against the paper's published Table IV, and the calibration is
// cross-checked by the cycle-level machine simulation (xsim::Machine) at
// small scale. The machine's "NoC orderings" table (bench/micro_noc)
// shows the orderings the NoC constants assume; its transpose penalty
// appears on a pure MoT too, so kNocTransposePerLevel stays a calibration.
#pragma once

namespace xsim::cal {

/// DRAM channel efficiency for streaming (butterfly-iteration) access.
/// Address-hashed sequential streams still pay bank conflicts and
/// read/write turnarounds; 0.70 of the 8 B/cycle channel peak reproduces
/// the 4k/8k rows of Table IV, where both phase classes sit on the
/// bandwidth roofline.
inline constexpr double kDramStreamEff = 0.70;

/// DRAM channel efficiency for rotation (generalized-transpose) traffic.
/// The scatter writes touch cache lines with poor spatial locality, so DRAM
/// bursts are partially wasted; with 6 streaming + 3 rotation iterations,
/// 0.506 closes the Table IV 4k/8k totals (6/0.70 + 3/0.506 = 14.5 unit
/// iterations against the paper's 14.3-14.9).
inline constexpr double kDramRotationEff = 0.506;

/// Per-butterfly-level throughput retention under uniform traffic. At nine
/// levels (128k) this keeps 87% of raw NoC bandwidth — enough that the
/// non-rotation phases of 128k x4 become jointly NoC/compute/DRAM bound,
/// which is what caps its gain at ~+50% (paper: +51%, observation (c)).
inline constexpr double kNocUniformPerLevel = 0.985;

/// Per-butterfly-level retention under rotation (transpose) traffic:
/// correlated strided bursts conflict inside the butterfly. On the
/// cycle-level machine the bursts also queue at the module window they all
/// aim at, on a pure MoT too, so this value is fitted to Table IV rather
/// than derived from a simulated butterfly. 0.785 places
/// the 64k rotation marker just below the bandwidth roofline (observation
/// (b): "beginning to fall below the sloped line") and makes rotation
/// clearly NoC-bound at 128k (9 levels -> 0.11 retention).
inline constexpr double kNocTransposePerLevel = 0.785;

/// NoC port payload per cluster per cycle. Ports are 50 bits wide
/// (Section V-D); 8 B/cycle of payload at 3.3 GHz is 211 Gb/s of data on a
/// 165 Gb/s-per-direction port pair.
inline constexpr double kNocPortBytesPerCycle = 8.0;

/// Cluster load/store unit width: one 8-byte (complex single-precision)
/// access per cycle.
inline constexpr double kLsuBytesPerCycle = 8.0;

/// Exponent of the p-norm that combines per-resource cycle counts into a
/// phase time: t = (sum_i t_i^p)^(1/p). p -> infinity is a pure bottleneck
/// max; p = 4 adds the mild interference real queueing systems show when
/// two resources are near-saturated, which is what nudges the 64k rotation
/// marker off the roofline.
inline constexpr double kBottleneckNorm = 4.0;

/// Fixed cycles per parallel section for the spawn broadcast and the final
/// join (the MTCU starts all TCUs in the time of starting one; the cost is
/// pipeline depth, not TCU count).
inline constexpr double kSpawnOverheadCycles = 200.0;

}  // namespace xsim::cal
