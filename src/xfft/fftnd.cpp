#include "xfft/fftnd.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <utility>

#include "xfft/vector_builds.hpp"
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

/// Transforms per lane block, one lane each of Plan1D::execute_lanes: 16
/// consecutive rows of the x pass, or 16 pencils of the y and z passes that
/// start at adjacent x.
constexpr std::size_t kBlockCols = kLanes;

/// Work budget of one y or z item: as many adjacent lane blocks as fit, so
/// that each step along the pencils copies one long contiguous run.
constexpr std::size_t kItemBytes = std::size_t{256} << 10;

/// This thread's grow-only work buffer of at least `bytes`, contents
/// unspecified. A chunk body holds it until it returns; no chunk body
/// starts another chunk on its thread.
std::byte* thread_work(std::size_t bytes) {
  thread_local xutil::AlignedVector<std::byte> buf;
  if (buf.size() < bytes) buf = xutil::AlignedVector<std::byte>(bytes);
  return buf.data();
}

/// A kBytes vector of T: kPoints complex points of one row, re and im
/// interleaved, or kWidth lanes of one row of a lane block.
template <typename T, std::size_t kBytes>
struct Tile {
  typedef T V __attribute__((vector_size(kBytes)));
  static constexpr std::size_t kWidth = sizeof(V) / sizeof(T);
  static constexpr std::size_t kPoints = kWidth / 2;
  static_assert(kBlockCols % kWidth == 0);

  /// Transposes the kWidth x kWidth matrix v[r][l] in place. Each of the
  /// log2(kWidth) stages zips vector i with vector i + kWidth/2 into vectors
  /// 2i and 2i+1, which rotates the bits of (r, l) left by one. Callers
  /// keep V in memory or registers: a 64-byte V passed by value across a
  /// call changes the ABI between builds.
  [[gnu::always_inline]] static void transpose(V* v) {
    for (std::size_t w = kWidth; w > 1; w /= 2) {
      zip(v, std::make_index_sequence<kWidth>{});
    }
  }

 private:
  template <std::size_t... I>
  [[gnu::always_inline]] static void zip(V* v, std::index_sequence<I...>) {
    constexpr std::size_t h = kWidth / 2;
    V t[kWidth];
    for (std::size_t i = 0; i < h; ++i) {
      t[2 * i] = __builtin_shufflevector(v[i], v[i + h],
                                         I / 2 + I % 2 * kWidth...);
      t[2 * i + 1] = __builtin_shufflevector(v[i], v[i + h],
                                             h + I / 2 + I % 2 * kWidth...);
    }
    std::copy(t, t + kWidth, v);
  }
};

/// Copies the kBlockCols rows of `len` points at `base` into the lane block
/// `work`: element k of row c to work[k*kBlockCols + c] (real parts) and
/// kBlockCols * len values later (imaginary parts). Each step transposes
/// one kBytes tile of each of kWidth rows in registers; the last
/// len % kPoints points go one by one.
template <typename T, std::size_t kBytes>
void gather_rows(const std::complex<T>* base, std::size_t len, T* work) {
  using Tl = Tile<T, kBytes>;
  const auto* const src = reinterpret_cast<const T*>(base);
  T* const im = work + kBlockCols * len;
  const std::size_t tiled = len - len % Tl::kPoints;
  for (std::size_t k = 0; k < tiled; k += Tl::kPoints) {
    for (std::size_t g = 0; g < kBlockCols; g += Tl::kWidth) {
      typename Tl::V v[Tl::kWidth];
      for (std::size_t r = 0; r < Tl::kWidth; ++r) {
        std::memcpy(&v[r], src + 2 * ((g + r) * len + k), sizeof v[r]);
      }
      Tl::transpose(v);
      for (std::size_t j = 0; j < Tl::kWidth; ++j) {
        T* const dst = (j % 2 == 0 ? work : im) + (k + j / 2) * kBlockCols;
        std::memcpy(dst + g, &v[j], sizeof v[j]);
      }
    }
  }
  for (std::size_t k = tiled; k < len; ++k) {
    for (std::size_t c = 0; c < kBlockCols; ++c) {
      work[k * kBlockCols + c] = base[c * len + k].real();
      im[k * kBlockCols + c] = base[c * len + k].imag();
    }
  }
}

/// The inverse of gather_rows after the stages: writes row perm[k] of the
/// lane block to element k of its rows, through the same transpose. The
/// codelet leaves frequency k in row perm[k], so this is the digit reversal.
template <typename T, std::size_t kBytes>
void scatter_rows(std::complex<T>* base, std::size_t len, const T* work,
                  const std::uint32_t* perm) {
  using Tl = Tile<T, kBytes>;
  auto* const dst = reinterpret_cast<T*>(base);
  const T* const im = work + kBlockCols * len;
  const std::size_t tiled = len - len % Tl::kPoints;
  for (std::size_t k = 0; k < tiled; k += Tl::kPoints) {
    for (std::size_t g = 0; g < kBlockCols; g += Tl::kWidth) {
      typename Tl::V v[Tl::kWidth];
      for (std::size_t j = 0; j < Tl::kWidth; ++j) {
        const T* const src = j % 2 == 0 ? work : im;
        std::memcpy(&v[j], src + perm[k + j / 2] * kBlockCols + g,
                    sizeof v[j]);
      }
      Tl::transpose(v);
      for (std::size_t r = 0; r < Tl::kWidth; ++r) {
        std::memcpy(dst + 2 * ((g + r) * len + k), &v[r], sizeof v[r]);
      }
    }
  }
  for (std::size_t k = tiled; k < len; ++k) {
    for (std::size_t c = 0; c < kBlockCols; ++c) {
      base[c * len + k] = {work[perm[k] * kBlockCols + c],
                           im[perm[k] * kBlockCols + c]};
    }
  }
}

/// Copies `width` pencils of `len` points, element k of pencil c at
/// base[k*stride + c], into the lane blocks of `work`: block b holds pencils
/// b*kBlockCols... as kBlockCols * len real parts, then as many imaginary
/// parts. Step k reads one contiguous run of `width` values. Lanes past
/// `width` get zeros.
template <typename T>
void gather_pencils(const std::complex<T>* base, std::size_t stride,
                    std::size_t width, std::size_t len, T* work) {
  const std::size_t block = 2 * kBlockCols * len;
  for (std::size_t k = 0; k < len; ++k) {
    const std::complex<T>* const src = base + k * stride;
    T* re = work + k * kBlockCols;
    std::size_t c = 0;
    for (; c + kBlockCols <= width; c += kBlockCols, re += block) {
      T* const im = re + kBlockCols * len;
      for (std::size_t l = 0; l < kBlockCols; ++l) {
        re[l] = src[c + l].real();
        im[l] = src[c + l].imag();
      }
    }
    if (c < width) {
      T* const im = re + kBlockCols * len;
      for (std::size_t l = 0; l < kBlockCols; ++l) {
        re[l] = c + l < width ? src[c + l].real() : T(0);
        im[l] = c + l < width ? src[c + l].imag() : T(0);
      }
    }
  }
}

/// The inverse of gather_pencils after the stages: writes row perm[k] of
/// every lane block to step k of its pencils, times `scale` if kScaled.
template <typename T, bool kScaled>
void scatter_pencils(std::complex<T>* base, std::size_t stride,
                     std::size_t width, std::size_t len, const T* work,
                     const std::uint32_t* perm, T scale) {
  const std::size_t block = 2 * kBlockCols * len;
  for (std::size_t k = 0; k < len; ++k) {
    std::complex<T>* const dst = base + k * stride;
    const T* re = work + perm[k] * kBlockCols;
    for (std::size_t c = 0; c < width; c += kBlockCols, re += block) {
      const T* const im = re + kBlockCols * len;
      const std::size_t w = std::min(kBlockCols, width - c);
      for (std::size_t l = 0; l < w; ++l) {
        if constexpr (kScaled) {
          dst[c + l] = {re[l] * scale, im[l] * scale};
        } else {
          dst[c + l] = {re[l], im[l]};
        }
      }
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
void PlanND<T>::execute(std::span<std::complex<T>> data) const {
  execute(data, ExecOptions{});
}

template <typename T>
void PlanND<T>::execute(std::span<std::complex<T>> data,
                        const ExecOptions& exec) const {
  run(data, exec, nullptr);
}

void detail::execute_checked(const PlanND<float>& plan, std::span<Cf> data,
                             const ExecOptions& exec,
                             PassChecker<float>& checker) {
  plan.run(data, exec, &checker);
}

template <typename T>
void PlanND<T>::run(std::span<std::complex<T>> data, const ExecOptions& exec,
                    detail::PassChecker<T>* checker) const {
  XU_CHECK_MSG(data.size() == dims_.total(),
               "buffer length " << data.size() << " != " << dims_.total());
  const std::size_t nx = dims_.nx;
  const std::size_t ny = dims_.ny;
  const std::size_t nz = dims_.nz;
  // The last pass to run (z, else y, else x) multiplies by 1/N as it
  // writes back, so a unitary inverse needs no scaling pass of its own.
  const T scale =
      dir_ == Direction::kInverse && opt_.scaling == Scaling::kUnitary1OverN
          ? T(1) / static_cast<T>(dims_.total())
          : T(1);
  if (nx > 1) {
    transform_rows(data, ny > 1 || nz > 1 ? T(1) : scale, exec, checker);
  }
  // y pencils run at stride nx inside each of the nz planes; z pencils run
  // at stride nx*ny from each of the ny rows of the first plane.
  if (ny > 1 && !exec_expired(exec)) {
    transform_pencils(data, 1, nx, nz, nx * ny, nz > 1 ? T(1) : scale, exec,
                      checker);
  }
  if (nz > 1 && !exec_expired(exec)) {
    transform_pencils(data, 2, nx * ny, ny, nx, scale, exec, checker);
  }
}

template <typename T>
void PlanND<T>::transform_rows(std::span<std::complex<T>> data, T scale,
                               const ExecOptions& exec,
                               detail::PassChecker<T>* checker) const {
  const Plan1D<T>& plan = axis_plan(0);
  const std::size_t len = dims_.nx;
  const std::size_t rows = data.size() / len;
  // Work item b < blocks is the block of kBlockCols consecutive rows from
  // row b*kBlockCols, transposed into the work block in cache one vector
  // of each row at a time. The rows past the last full block run one item
  // each through execute(), so a 1-D transform does not pay for idle lanes.
  // The x pass runs last only at rank 1, whose one row is a tail row, so
  // only tail rows take `scale`.
  const std::size_t blocks = rows / kBlockCols;
  // The transposing copies have a build per vector width, as the stage
  // loop does. Only x86-64-v4 moves 64-byte tiles: GCC 12 splits a shuffle
  // wider than the target's registers into single elements, and its AVX2
  // 32-byte tiles were no faster than copying point by point, so the
  // narrower builds move 16-byte tiles.
  const auto gather =
      detail::in_active_build<&gather_rows<T, 64>, &gather_rows<T, 16>>();
  const auto scatter =
      detail::in_active_build<&scatter_rows<T, 64>, &scatter_rows<T, 16>>();
  const std::size_t check_len = checker != nullptr ? 3 * len : 0;
  for_chunks(
      exec, 0, static_cast<std::int64_t>(blocks + rows % kBlockCols), 0,
      [&](std::int64_t lo, std::int64_t hi) {
        // Complex, so that a tail row can use it as execute()'s scratch;
        // [complex.numbers] lets the lane blocks view it as 2x as many T.
        // A chunk of tail rows only (every chunk of a 1-D transform) needs
        // just that scratch. A checker's scratch follows.
        const std::size_t block_len =
            static_cast<std::size_t>(lo) < blocks ? kBlockCols * len : len;
        auto* const work = reinterpret_cast<std::complex<T>*>(thread_work(
            (block_len + check_len) * sizeof(std::complex<T>)));
        T* const re = reinterpret_cast<T*>(work);
        for (auto item = static_cast<std::size_t>(lo);
             item < static_cast<std::size_t>(hi); ++item) {
          if (exec_expired(exec)) return;
          if (item < blocks) {
            const std::size_t first = item * kBlockCols * len;
            gather(data.data() + first, len, re);
            plan.execute_lanes(re, re + kBlockCols * len, exec.cancel);
            if (exec_expired(exec)) return;
            if (checker != nullptr) {
              checker->check_lanes(0, first, kBlockCols, re, work + block_len);
            }
            scatter(data.data() + first, len, re, plan.perm().data());
          } else {
            const std::size_t first =
                (blocks * kBlockCols + (item - blocks)) * len;
            const auto row = data.subspan(first, len);
            if (checker != nullptr) {
              checker->check_row(first, work + block_len);
            } else {
              plan.execute(row, std::span<std::complex<T>>(work, len),
                           exec.cancel);
            }
            if (scale != T(1)) {
              for (auto& v : row) v *= scale;
            }
          }
        }
      });
}

template <typename T>
void PlanND<T>::transform_pencils(std::span<std::complex<T>> data, int axis,
                                  std::size_t stride, std::size_t groups,
                                  std::size_t group_stride, T scale,
                                  const ExecOptions& exec,
                                  detail::PassChecker<T>* checker) const {
  const Plan1D<T>& plan = axis_plan(axis);
  const std::size_t len = plan.size();
  const std::size_t nx = dims_.nx;
  // One work item is up to item_cols pencils that start at adjacent x: as
  // many lane blocks as fit kItemBytes, at most one row of them. Step k
  // along the axis copies one contiguous run of the item into row k of its
  // lane blocks, with no transpose. Items are disjoint, so the pass needs
  // no synchronization and no second full-size array.
  const std::size_t lane_block = 2 * kBlockCols * len;
  const std::size_t item_cols =
      kBlockCols *
      std::clamp<std::size_t>(kItemBytes / (lane_block * sizeof(T)), 1,
                              (nx + kBlockCols - 1) / kBlockCols);
  const std::size_t row_items = (nx + item_cols - 1) / item_cols;
  // The copies have a build per vector width, as the stage loop does; the
  // digit reversal and the scaling ride on the scatter, which multiplies
  // only in the pass that scales.
  const auto gather = detail::in_active_build<&gather_pencils<T>>();
  const auto scatter =
      scale != T(1) ? detail::in_active_build<&scatter_pencils<T, true>>()
                    : detail::in_active_build<&scatter_pencils<T, false>>();
  // A checker's scratch follows the item's lane blocks.
  const std::size_t item_len = item_cols / kBlockCols * lane_block;
  const std::size_t work_len = item_len + (checker != nullptr ? 6 * len : 0);
  for_chunks(
      exec, 0, static_cast<std::int64_t>(groups * row_items), 0,
      [&](std::int64_t lo, std::int64_t hi) {
        T* const work = reinterpret_cast<T*>(thread_work(work_len * sizeof(T)));
        for (auto item = static_cast<std::size_t>(lo);
             item < static_cast<std::size_t>(hi); ++item) {
          if (exec_expired(exec)) return;
          const std::size_t x0 = item % row_items * item_cols;
          const std::size_t width = std::min(item_cols, nx - x0);
          const std::size_t first = item / row_items * group_stride + x0;
          std::complex<T>* const base = data.data() + first;
          gather(base, stride, width, len, work);
          for (std::size_t c = 0; c < width; c += kBlockCols) {
            T* const re = work + c / kBlockCols * lane_block;
            plan.execute_lanes(re, re + kBlockCols * len, exec.cancel);
          }
          if (exec_expired(exec)) return;
          if (checker != nullptr) {
            checker->check_lanes(
                axis, first, width, work,
                reinterpret_cast<std::complex<T>*>(work + item_len));
          }
          scatter(base, stride, width, len, work, plan.perm().data(), scale);
        }
      });
}

template void rotate_axes<float>(std::span<const Cf>, std::span<Cf>, Dims3);
template void rotate_axes<double>(std::span<const Cd>, std::span<Cd>, Dims3);
template class PlanND<float>;
template class PlanND<double>;

}  // namespace xfft
