// End-to-end soft-error resilience harness for the host FFT.
//
// Models the recovery loop a degraded XMT machine would run: transient bit
// flips are injected into row data (rate from a FaultPlan's soft:flip
// directive), each row's transform is verified with a Parseval-style energy
// checksum (an unscaled DFT preserves sum |x|^2 up to the factor N), and a
// detected corruption triggers bounded recomputation of the affected
// butterfly slab (the row). Injection, like every fault in xfault, is
// deterministic for a fixed seed.
//
// Injected flips target a high exponent bit, modeling the high-order upsets
// an energy checksum can catch; low-order mantissa flips are below the FFT's
// own rounding noise and would need residue-style checks — a documented
// limitation, not an oversight (docs/architecture.md section 6).
#pragma once

#include <cstdint>
#include <span>

#include "xfft/fftnd.hpp"
#include "xfft/types.hpp"

namespace xfault {

struct ResilienceOptions {
  double soft_flip_rate = 0.0;  ///< per-element bit-flip probability
  std::uint64_t seed = 1;
  /// Compute attempts per row: 1 initial + (max_attempts - 1) recoveries.
  unsigned max_attempts_per_row = 4;
};

/// Retry/backoff accounting of one resilient transform.
struct ResilienceReport {
  std::uint64_t rows_computed = 0;    ///< row transforms, first attempts only
  std::uint64_t flips_injected = 0;   ///< transient upsets inserted
  std::uint64_t errors_detected = 0;  ///< checksum mismatches observed
  std::uint64_t rows_recomputed = 0;  ///< recovery recomputations
  std::uint64_t retries_exhausted = 0;  ///< rows left corrupted (should be 0)

  [[nodiscard]] bool ok() const { return retries_exhausted == 0; }
};

/// In-place N-dimensional FFT over `dims` with per-row checksum verification
/// and bounded recomputation. It runs the cached xfft::PlanND (radix 8,
/// unitary 1/N inverse) with a checker inside its passes: each transform is
/// checked after its stages and before its write-back, and one that fails is
/// recomputed from its input, which the write-back has not yet overwritten.
/// With soft_flip_rate == 0 the output is identical to PlanND's. `exec`
/// works as in PlanND::execute; on token expiry `data` and the report are
/// unspecified.
ResilienceReport resilient_fft(std::span<xfft::Cf> data, xfft::Dims3 dims,
                               xfft::Direction dir,
                               const ResilienceOptions& opt = {},
                               const xfft::ExecOptions& exec = {});

}  // namespace xfault
