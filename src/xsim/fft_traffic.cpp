#include "xsim/fft_traffic.hpp"

#include <vector>

#include "xfft/twiddle.hpp"
#include "xutil/check.hpp"

namespace xsim {

namespace {

constexpr std::uint64_t kElemBytes = 8;  // complex single precision

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ProgramGenerator make_fft_phase_generator(const MachineConfig& config,
                                          xfft::Dims3 dims,
                                          const xfft::KernelPhase& phase,
                                          FftTrafficOptions opt) {
  const std::size_t axis_len[3] = {dims.nx, dims.ny, dims.nz};
  const std::size_t len = axis_len[phase.dim];
  XU_CHECK_MSG(len > 1, "phase dimension has length 1");
  const unsigned r = phase.radix;

  // The phase carries its butterfly span (build_fft_phases fills it for any
  // radix schedule — re-deriving it here with choose_radices() silently
  // assumed the paper's max radix of 8 and broke radix-2/4 runs).
  const auto block = static_cast<std::size_t>(phase.block);
  XU_CHECK_MSG(block >= r && block % r == 0 && len % block == 0,
               phase.name << ": block " << block
                          << " inconsistent with radix " << r << " over row "
                          << len);
  const std::size_t sub = block / r;

  const std::size_t n = dims.total();
  const std::size_t rows = n / len;
  const std::size_t threads_per_row = len / r;

  unsigned copies = opt.twiddle_copies;
  if (copies == 0) {
    copies = static_cast<unsigned>(xfft::ReplicatedTwiddleTable::
            copies_for_machine(len, config.memory_modules,
                               config.cache_bytes_per_mm /
                                   config.cache_line_bytes,
                               config.cache_line_bytes / kElemBytes));
  }

  const std::uint64_t flops =
      phase.flops / phase.threads;  // per-thread FP work
  const FftTrafficOptions o = opt;  // captured by value below

  return [=, cfg_line = config.cache_line_bytes](
             std::uint64_t t) -> ThreadProgram {
    (void)cfg_line;
    XU_CHECK_MSG(t < phase.threads, "thread id out of range");
    const std::uint64_t row = t / threads_per_row;
    const std::uint64_t j = t % threads_per_row;
    const std::uint64_t base = (j / sub) * block;
    const std::uint64_t off = j % sub;
    const std::uint64_t row_base = row * len;

    ThreadProgram p;
    p.reserve(3 + 3 * r);
    // Address setup and loop control.
    p.push_back({Step::Kind::kIntOps,
                 static_cast<std::uint32_t>(xfft::kControlOpsPerThread), 0});
    // Gather the r input points (stride `sub` elements within the row).
    for (unsigned i = 0; i < r; ++i) {
      const std::uint64_t elem = row_base + base + off + i * sub;
      p.push_back({Step::Kind::kLoad, 1, kDataBase + elem * kElemBytes});
    }
    // Twiddle factors: r-1 complex loads from this thread's LUT replica,
    // or on-demand sin/cos evaluation.
    std::uint32_t fp = static_cast<std::uint32_t>(flops);
    if (o.twiddle_on_demand) {
      fp += static_cast<std::uint32_t>((r - 1) * kOnDemandTwiddleFlops);
    } else {
      const std::uint64_t replica = t % copies;
      for (unsigned i = 1; i < r; ++i) {
        // Root index w_block^{-i*off} lives at (i*off mod block)*(len/block)
        // in the master table of this row length.
        const std::uint64_t root =
            (static_cast<std::uint64_t>(i) * off % block) * (len / block);
        p.push_back({Step::Kind::kLoad, 1,
                     kTwiddleBase + (replica * len + root) * kElemBytes});
      }
    }
    // The butterfly arithmetic.
    p.push_back({Step::Kind::kFpOps, fp, 0});
    // Write back: in place, or scattered through the axis rotation.
    for (unsigned i = 0; i < r; ++i) {
      const std::uint64_t pos = base + off + i * sub;  // within-row position
      std::uint64_t dst;
      if (phase.rotation) {
        // Rotation scatter: row-position p of row `row` lands at
        // p * rows + row in the rotated array (element stride = rows).
        dst = kRotatedBase + (pos * rows + row) * kElemBytes;
      } else {
        dst = kDataBase + (row_base + pos) * kElemBytes;
      }
      p.push_back({Step::Kind::kStore, 1, dst});
    }
    return p;
  };
}

ProgramGenerator make_uniform_generator(std::size_t loads, std::size_t stores,
                                        std::uint64_t footprint_bytes,
                                        std::uint64_t seed) {
  XU_CHECK(footprint_bytes >= kElemBytes);
  return [=](std::uint64_t t) -> ThreadProgram {
    ThreadProgram p;
    p.reserve(loads + stores + 1);
    p.push_back({Step::Kind::kIntOps, 8, 0});
    for (std::size_t i = 0; i < loads; ++i) {
      const std::uint64_t a =
          mix64(seed ^ (t * 1315423911ULL + i)) % (footprint_bytes / 8) * 8;
      p.push_back({Step::Kind::kLoad, 1, a});
    }
    for (std::size_t i = 0; i < stores; ++i) {
      const std::uint64_t a =
          mix64(seed ^ (t * 2654435761ULL + i + loads)) %
          (footprint_bytes / 8) * 8;
      p.push_back({Step::Kind::kStore, 1, a});
    }
    return p;
  };
}

ProgramGenerator make_hotspot_generator(std::size_t loads,
                                        std::uint64_t addr) {
  return [=](std::uint64_t) -> ThreadProgram {
    ThreadProgram p;
    p.reserve(loads);
    for (std::size_t i = 0; i < loads; ++i) {
      p.push_back({Step::Kind::kLoad, 1, addr});
    }
    return p;
  };
}

ProgramGenerator make_noc_pattern_generator(const Machine& machine,
                                            xnoc::TrafficPattern pattern,
                                            std::size_t loads) {
  constexpr std::size_t kLinesPerModule = 8;
  const MachineConfig& cfg = machine.config();
  const std::uint64_t modules = cfg.memory_modules;
  // lines[m * kLinesPerModule + j]: the j-th lowest line address that the
  // machine's address hash sends to module m.
  std::vector<std::uint64_t> lines(modules * kLinesPerModule);
  std::vector<std::size_t> found(modules, 0);
  for (std::uint64_t addr = 0, full = 0; full < modules;
       addr += cfg.cache_line_bytes) {
    const std::uint32_t m = machine.module_of(addr);
    if (found[m] == kLinesPerModule) continue;
    lines[m * kLinesPerModule + found[m]] = addr;
    if (++found[m] == kLinesPerModule) ++full;
  }
  if (pattern == xnoc::TrafficPattern::kHotSpot) {
    return make_hotspot_generator(loads, lines[0]);
  }

  return [=, lines = std::move(lines)](std::uint64_t t) -> ThreadProgram {
    ThreadProgram p;
    p.reserve(loads);
    for (std::uint64_t k = 0; k < loads; ++k) {
      const std::uint64_t h = mix64(t * 1315423911ULL + k);
      std::uint64_t m = h % modules;
      if (pattern == xnoc::TrafficPattern::kTranspose) {
        // Rotation scatter: during an epoch every thread aims at the same
        // narrow window of modules, the strided burst all threads emit at
        // once; the window shifts between epochs.
        const std::uint64_t window = modules >= 4 ? modules / 4 : 1;
        const std::uint64_t base = (k / kNocTransposeEpoch) * window;
        const std::uint64_t offset = (t * 2654435761ULL + k) % window;
        m = (base + offset) % modules;
      }
      const std::uint64_t line = (h >> 32) % kLinesPerModule;
      p.push_back({Step::Kind::kLoad, 1, lines[m * kLinesPerModule + line]});
    }
    return p;
  };
}

}  // namespace xsim
