// Multi-dimensional FFT plans (Section IV of the paper).
//
// The paper's algorithm: "our multidimensional FFT implementation consists
// of two phases that are executed once per dimension. First, the FFT of each
// row is computed. Second, the axes of the array are rotated so that the
// next time the FFT is applied to the rows of the array, it will actually
// compute the FFT of what was originally the columns. ... In our
// implementation, the rotation is combined with the last iteration of the
// computation to reduce the number of synchronization points and round
// trips to memory."
//
// The host plan does not rotate. It transforms every axis in place through
// Plan1D::execute_lanes, 16 transforms per lane block. The y and z passes
// copy the pencils that start at adjacent x row by row into lane-major
// blocks, as many 16-pencil blocks per work item as fit 256 KiB (128
// pencils of 256 points in float), so that each step along the pencils is
// one long contiguous run; those unit-stride copies have the stage loop's
// x86-64-v4/v3/baseline builds. The x pass transposes 16 consecutive rows
// into one block in cache. The write-back stores row perm[k] of the result
// at position k, which is the digit reversal, and the last pass's
// write-back multiplies by an inverse's 1/N. Each transform sees the same
// values and the same arithmetic as a row of the rotated array, so the
// output is bit-identical to the paper's fused schedule, which xsim, the
// performance model and the exactness oracle in
// tests/fft/test_dif_oracle.cpp keep.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "xfft/plan1d.hpp"
#include "xfft/types.hpp"

namespace xfft {

/// Per-execution controls threaded through PlanND (and from there into the
/// chunk loops and Plan1D stages). Distinct from the plan-time Options:
/// the same cached plan serves requests with different deadlines and on
/// different degradation rungs.
struct ExecOptions {
  /// Polled at chunk/pass boundaries; on expiry the remaining work is
  /// skipped and the data buffer is left unspecified. Callers must check
  /// the token after execute() and discard the buffer when it expired.
  const xutil::CancelToken* cancel = nullptr;
  /// True bypasses the xpar pool entirely and runs every chunk inline on
  /// the calling thread — the service layer's first degradation rung
  /// (shedding parallelism keeps pool lanes free for other requests).
  bool serial = false;
};

template <typename T>
class PlanND;

namespace detail {

/// A check PlanND runs on each transform between its stages and its
/// write-back, while the input is still in the data buffer: the soft-error
/// checker of xfault::resilient_fft. `scratch` holds 3 * len values.
template <typename T>
class PassChecker {
 public:
  /// `width` transforms along `axis` from offset `first` and the next rows
  /// (axis 0) or x, in `work` as Plan1D::execute_lanes left its blocks.
  virtual void check_lanes(int axis, std::size_t first, std::size_t width,
                           T* work, std::complex<T>* scratch) = 0;
  /// Transforms the x row at offset `first` in place, unscaled.
  virtual void check_row(std::size_t first, std::complex<T>* scratch) = 0;

 protected:
  ~PassChecker() = default;
};

/// PlanND::execute with `checker` attached.
void execute_checked(const PlanND<float>& plan, std::span<Cf> data,
                     const ExecOptions& exec, PassChecker<float>& checker);

}  // namespace detail

/// Rotates axes of a 3-D array: dst[i0][i2][i1] = src[i2][i1][i0], where
/// src has logical dims [d2][d1][d0] with d0 fastest. After the rotation the
/// previously second-fastest axis (d1) is fastest, so row FFTs on dst
/// transform what were columns of src. For 2-D arrays (d2 == 1) this is a
/// matrix transpose. Three successive rotations restore the original layout.
/// No library code rotates: PlanND computes the same rows in place, and the
/// only caller is perfbench's xfft.rotate_gbps probe.
template <typename T>
void rotate_axes(std::span<const std::complex<T>> src,
                 std::span<std::complex<T>> dst, Dims3 dims);

/// In-place N-dimensional FFT plan (rank 1, 2 or 3), natural layout in and
/// out (x fastest). A plan is reusable and reentrant: its work blocks are
/// per thread, so any number of threads may run one plan (e.g. a
/// PlanCache entry) at once, each on its own buffer.
///
/// Execution is block-parallel on the xpar pool: the row blocks of the x
/// pass and the pencil items of the y and z passes are chunked with
/// xpar::parallel_for. Every item writes a disjoint region, so output is
/// byte-identical at any pool size (including 1); callers pick the
/// concurrency through xpar::ThreadPool::set_global_threads / --threads /
/// XMTFFT_THREADS.
template <typename T>
class PlanND {
 public:
  struct Options {
    unsigned max_radix = 8;
    Scaling scaling = Scaling::kUnitary1OverN;
  };

  PlanND(Dims3 dims, Direction dir, Options opt = {});

  /// Transforms `data` (length dims.total(), x fastest) in place.
  void execute(std::span<std::complex<T>> data) const;

  /// Same, with per-execution controls: a cooperative cancellation token
  /// polled at chunk and pass boundaries, and a serial mode that keeps the
  /// whole transform on the calling thread. On token expiry the method
  /// returns early with `data` unspecified — check exec.cancel afterwards.
  void execute(std::span<std::complex<T>> data, const ExecOptions& exec) const;

  [[nodiscard]] Dims3 dims() const { return dims_; }
  [[nodiscard]] Direction direction() const { return dir_; }
  /// Actual real FLOPs per execution across all dimensions' row FFTs.
  [[nodiscard]] std::uint64_t actual_flops() const;
  /// The 1-D plan used along axis `axis` (0 = x).
  [[nodiscard]] const Plan1D<T>& axis_plan(int axis) const;

 private:
  friend void detail::execute_checked(const PlanND<float>&, std::span<Cf>,
                                      const ExecOptions&,
                                      detail::PassChecker<float>&);

  void run(std::span<std::complex<T>> data, const ExecOptions& exec,
           detail::PassChecker<T>* checker) const;
  void transform_rows(std::span<std::complex<T>> data, T scale,
                      const ExecOptions& exec,
                      detail::PassChecker<T>* checker) const;
  void transform_pencils(std::span<std::complex<T>> data, int axis,
                         std::size_t stride, std::size_t groups,
                         std::size_t group_stride, T scale,
                         const ExecOptions& exec,
                         detail::PassChecker<T>* checker) const;

  Dims3 dims_;
  Direction dir_;
  Options opt_;
  // One plan per axis length (axes of equal length share a plan).
  std::vector<std::unique_ptr<Plan1D<T>>> plans_;
  std::array<int, 3> plan_of_axis_{};
};

/// Convenience aliases matching the paper's 2-D / 3-D usage.
template <typename T>
using Plan2D = PlanND<T>;
template <typename T>
using Plan3D = PlanND<T>;

extern template void rotate_axes<float>(std::span<const Cf>, std::span<Cf>,
                                        Dims3);
extern template void rotate_axes<double>(std::span<const Cd>, std::span<Cd>,
                                         Dims3);
extern template class PlanND<float>;
extern template class PlanND<double>;

}  // namespace xfft
