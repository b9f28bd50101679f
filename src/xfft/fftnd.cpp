#include "xfft/fftnd.hpp"

#include <algorithm>

#include "xpar/pool.hpp"
#include "xutil/aligned.hpp"
#include "xutil/check.hpp"

namespace xfft {

namespace {

/// Chunked loop shared by the pool and serial execution paths. The pool
/// path delegates to the cancellation-aware parallel_for; the serial path
/// replays the same work inline in fixed chunks so a deadline still aborts
/// with chunk granularity. Bodies write disjoint outputs per index, so both
/// paths produce byte-identical results (absent cancellation).
void for_chunks(const ExecOptions& exec, std::int64_t begin, std::int64_t end,
                std::int64_t grain,
                const std::function<void(std::int64_t, std::int64_t)>& body) {
  if (!exec.serial) {
    xpar::ThreadPool::global().parallel_for(begin, end, grain, body,
                                            exec.cancel);
    return;
  }
  const std::int64_t g = grain > 0 ? grain : 64;
  for (std::int64_t lo = begin; lo < end; lo += g) {
    if (exec.cancel != nullptr && exec.cancel->expired()) return;
    body(lo, std::min(end, lo + g));
  }
}

bool exec_expired(const ExecOptions& exec) {
  return exec.cancel != nullptr && exec.cancel->expired();
}

/// Transforms per work block of every pass, one lane each of
/// Plan1D::execute_lanes: 16 adjacent x positions of the y and z passes, or
/// 16 consecutive rows of the x pass.
constexpr std::size_t kBlockCols = kLanes;

/// Runs `width` (<= kBlockCols) transforms of `plan` through the lane-major
/// work block `re`/`im` (kBlockCols * plan.size() values each), where
/// element k of transform c is base[k*ks + c*cs]. Copying in fills row k of
/// the block; lanes past `width` transform zeros. The codelet leaves
/// frequency k in row perm[k], so writing that row back to element k is the
/// digit reversal.
template <typename T>
void transform_block(const Plan1D<T>& plan, std::complex<T>* base,
                     std::size_t ks, std::size_t cs, std::size_t width, T* re,
                     T* im, const ExecOptions& exec) {
  const std::size_t len = plan.size();
  for (std::size_t k = 0; k < len; ++k) {
    T* const rk = re + k * kBlockCols;
    T* const ik = im + k * kBlockCols;
    for (std::size_t c = 0; c < width; ++c) {
      rk[c] = base[k * ks + c * cs].real();
      ik[c] = base[k * ks + c * cs].imag();
    }
    std::fill(rk + width, rk + kBlockCols, T(0));
    std::fill(ik + width, ik + kBlockCols, T(0));
  }
  plan.execute_lanes(re, im, exec.cancel);
  if (exec_expired(exec)) return;
  const std::uint32_t* const perm = plan.perm().data();
  for (std::size_t k = 0; k < len; ++k) {
    const T* const rk = re + perm[k] * kBlockCols;
    const T* const ik = im + perm[k] * kBlockCols;
    for (std::size_t c = 0; c < width; ++c) {
      base[k * ks + c * cs] = {rk[c], ik[c]};
    }
  }
}

}  // namespace

template <typename T>
void rotate_axes(std::span<const std::complex<T>> src,
                 std::span<std::complex<T>> dst, Dims3 dims) {
  XU_CHECK(src.size() == dims.total() && dst.size() == dims.total());
  XU_CHECK_MSG(src.data() != dst.data(), "rotate_axes must not alias");
  const std::size_t d0 = dims.nx;
  const std::size_t d1 = dims.ny;
  const std::size_t d2 = dims.nz;
  // dst logical dims are [d0][d2][d1] with d1 fastest. Tiled across the
  // pool over the (i2, i1) plane: each tile of source rows writes a
  // disjoint comb of dst, so the parallel rotation is byte-identical to
  // the serial one at any thread count.
  xpar::ThreadPool::global().parallel_for(
      0, static_cast<std::int64_t>(d2 * d1), 0,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t idx = lo; idx < hi; ++idx) {
          const auto i2 = static_cast<std::size_t>(idx) / d1;
          const auto i1 = static_cast<std::size_t>(idx) % d1;
          const std::size_t src_base = (i2 * d1 + i1) * d0;
          const std::size_t dst_base = i2 * d1 + i1;
          for (std::size_t i0 = 0; i0 < d0; ++i0) {
            dst[dst_base + i0 * d1 * d2] = src[src_base + i0];
          }
        }
      });
}

template <typename T>
PlanND<T>::PlanND(Dims3 dims, Direction dir, Options opt)
    : dims_(dims), dir_(dir), opt_(opt) {
  XU_CHECK_MSG(dims.nx >= 1 && dims.ny >= 1 && dims.nz >= 1,
               "all dimensions must be >= 1");
  const std::size_t lens[3] = {dims.nx, dims.ny, dims.nz};
  for (int axis = 0; axis < 3; ++axis) {
    int found = -1;
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      if (plans_[p]->size() == lens[axis]) {
        found = static_cast<int>(p);
        break;
      }
    }
    if (found < 0) {
      plans_.push_back(std::make_unique<Plan1D<T>>(
          lens[axis], dir,
          PlanOptions{.max_radix = opt_.max_radix, .scaling = Scaling::kNone}));
      found = static_cast<int>(plans_.size()) - 1;
    }
    plan_of_axis_[static_cast<std::size_t>(axis)] = found;
  }
}

template <typename T>
const Plan1D<T>& PlanND<T>::axis_plan(int axis) const {
  XU_CHECK(axis >= 0 && axis < 3);
  return *plans_[static_cast<std::size_t>(
      plan_of_axis_[static_cast<std::size_t>(axis)])];
}

template <typename T>
std::uint64_t PlanND<T>::actual_flops() const {
  std::uint64_t total = 0;
  const std::size_t n = dims_.total();
  for (int axis = 0; axis < 3; ++axis) {
    const Plan1D<T>& p = axis_plan(axis);
    if (p.size() <= 1) continue;
    total += (n / p.size()) * p.actual_flops();
  }
  return total;
}

template <typename T>
void PlanND<T>::apply_scaling(std::span<std::complex<T>> data,
                              const ExecOptions& exec) const {
  if (dir_ == Direction::kInverse && opt_.scaling == Scaling::kUnitary1OverN) {
    const T s = T(1) / static_cast<T>(dims_.total());
    for_chunks(exec, 0, static_cast<std::int64_t>(data.size()), 0,
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) {
                   data[static_cast<std::size_t>(i)] *= s;
                 }
               });
  }
}

template <typename T>
void PlanND<T>::execute(std::span<std::complex<T>> data) const {
  execute(data, ExecOptions{});
}

template <typename T>
void PlanND<T>::execute(std::span<std::complex<T>> data,
                        const ExecOptions& exec) const {
  XU_CHECK_MSG(data.size() == dims_.total(),
               "buffer length " << data.size() << " != " << dims_.total());
  const std::size_t nx = dims_.nx;
  const std::size_t ny = dims_.ny;
  if (nx > 1) transform_rows(data, exec);
  // y pencils run at stride nx inside each of the nz planes; z pencils run
  // at stride nx*ny from each of the ny rows of the first plane.
  if (ny > 1 && !exec_expired(exec)) {
    transform_pencils(data, 1, nx, dims_.nz, nx * ny, exec);
  }
  if (dims_.nz > 1 && !exec_expired(exec)) {
    transform_pencils(data, 2, nx * ny, ny, nx, exec);
  }
  if (exec_expired(exec)) return;
  apply_scaling(data, exec);
}

template <typename T>
void PlanND<T>::transform_rows(std::span<std::complex<T>> data,
                               const ExecOptions& exec) const {
  const Plan1D<T>& plan = axis_plan(0);
  const std::size_t len = dims_.nx;
  const std::size_t rows = data.size() / len;
  // Work item b < blocks is the block of kBlockCols consecutive rows from
  // row b*kBlockCols, transposed into the work block in cache. The rows
  // past the last full block run one item each through execute(), so a
  // 1-D transform does not pay for idle lanes.
  const std::size_t blocks = rows / kBlockCols;
  for_chunks(
      exec, 0, static_cast<std::int64_t>(blocks + rows % kBlockCols), 0,
      [&](std::int64_t lo, std::int64_t hi) {
        // Complex, so that a tail row can use it as execute()'s scratch;
        // [complex.numbers] lets the lane blocks view it as 2x as many T.
        // A chunk of tail rows only (every chunk of a 1-D transform) needs
        // just that scratch.
        xutil::AlignedVector<std::complex<T>> work(
            static_cast<std::size_t>(lo) < blocks ? kBlockCols * len : len);
        T* const re = reinterpret_cast<T*>(work.data());
        for (auto item = static_cast<std::size_t>(lo);
             item < static_cast<std::size_t>(hi); ++item) {
          if (exec_expired(exec)) return;
          if (item < blocks) {
            transform_block(plan, data.data() + item * kBlockCols * len, 1,
                            len, kBlockCols, re, re + kBlockCols * len, exec);
          } else {
            const std::size_t row = blocks * kBlockCols + (item - blocks);
            plan.execute(data.subspan(row * len, len),
                         std::span<std::complex<T>>(work.data(), len),
                         exec.cancel);
          }
        }
      });
}

template <typename T>
void PlanND<T>::transform_pencils(std::span<std::complex<T>> data, int axis,
                                  std::size_t stride, std::size_t groups,
                                  std::size_t group_stride,
                                  const ExecOptions& exec) const {
  const Plan1D<T>& plan = axis_plan(axis);
  const std::size_t len = plan.size();
  const std::size_t nx = dims_.nx;
  const std::size_t blocks = (nx + kBlockCols - 1) / kBlockCols;
  // One work item is a block of up to kBlockCols pencils that start at
  // adjacent x, so step k along the axis copies one contiguous run of the
  // block into row k of the work block, with no transpose. Blocks are
  // disjoint, so the pass needs no synchronization and no second full-size
  // array.
  for_chunks(
      exec, 0, static_cast<std::int64_t>(groups * blocks), 0,
      [&](std::int64_t lo, std::int64_t hi) {
        xutil::AlignedVector<T> work(2 * kBlockCols * len);
        T* const re = work.data();
        for (auto item = static_cast<std::size_t>(lo);
             item < static_cast<std::size_t>(hi); ++item) {
          if (exec_expired(exec)) return;
          const std::size_t x0 = item % blocks * kBlockCols;
          transform_block(plan, data.data() + item / blocks * group_stride + x0,
                          stride, 1, std::min(kBlockCols, nx - x0), re,
                          re + kBlockCols * len, exec);
        }
      });
}

template void rotate_axes<float>(std::span<const Cf>, std::span<Cf>, Dims3);
template void rotate_axes<double>(std::span<const Cd>, std::span<Cd>, Dims3);
template class PlanND<float>;
template class PlanND<double>;

}  // namespace xfft
