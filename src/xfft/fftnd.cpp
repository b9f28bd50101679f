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

/// Pencils gathered per block of the y and z passes: 16 adjacent x
/// positions, 128 B per step along the axis in single precision.
constexpr std::size_t kBlockCols = 16;

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
  // Each chunk of rows runs on one lane with its own reorder scratch,
  // reused across every row of the chunk (the plan is read-only here).
  for_chunks(exec, 0, static_cast<std::int64_t>(data.size() / len), 0,
             [&](std::int64_t lo, std::int64_t hi) {
               xutil::AlignedVector<std::complex<T>> scratch(len);
               for (std::int64_t row = lo; row < hi; ++row) {
                 if (exec_expired(exec)) return;
                 plan.execute(data.subspan(static_cast<std::size_t>(row) * len,
                                           len),
                              std::span<std::complex<T>>(scratch.data(), len),
                              exec.cancel);
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
  // adjacent x: gathering it reads whole cache lines per step along the
  // axis, the pencils are transformed contiguously, and the block is
  // written back where it came from. Blocks are disjoint, so the pass needs
  // no synchronization and no second full-size array.
  for_chunks(
      exec, 0, static_cast<std::int64_t>(groups * blocks), 0,
      [&](std::int64_t lo, std::int64_t hi) {
        xutil::AlignedVector<std::complex<T>> work((kBlockCols + 1) * len);
        std::complex<T>* block = work.data();
        const std::span<std::complex<T>> scratch(work.data() + kBlockCols * len,
                                                 len);
        for (std::int64_t item = lo; item < hi; ++item) {
          if (exec_expired(exec)) return;
          const std::size_t x0 =
              static_cast<std::size_t>(item) % blocks * kBlockCols;
          const std::size_t width = std::min(kBlockCols, nx - x0);
          std::complex<T>* base =
              data.data() + static_cast<std::size_t>(item) / blocks *
                                group_stride + x0;
          for (std::size_t j = 0; j < len; ++j) {
            for (std::size_t c = 0; c < width; ++c) {
              block[c * len + j] = base[j * stride + c];
            }
          }
          for (std::size_t c = 0; c < width; ++c) {
            plan.execute(std::span<std::complex<T>>(block + c * len, len),
                         scratch, exec.cancel);
          }
          for (std::size_t j = 0; j < len; ++j) {
            for (std::size_t c = 0; c < width; ++c) {
              base[j * stride + c] = block[c * len + j];
            }
          }
        }
      });
}

template void rotate_axes<float>(std::span<const Cf>, std::span<Cf>, Dims3);
template void rotate_axes<double>(std::span<const Cd>, std::span<Cd>, Dims3);
template class PlanND<float>;
template class PlanND<double>;

}  // namespace xfft
