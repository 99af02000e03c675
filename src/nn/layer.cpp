#include "nn/layer.hpp"

#include <algorithm>
#include <cstring>

#include "core/error.hpp"
#include "tensor/gemm.hpp"  // FRLFI_RESTRICT

namespace frlfi {
namespace {

// (rows x cols) -> (cols x rows) transpose. The interior runs on 4x4
// micro-blocks lowered to vector shuffles through GCC's portable vector
// extensions (the scalar fallback tiles the same way); edges finish
// scalar. Pure data movement, so codegen differences cannot change a bit.
#if defined(__GNUC__)
typedef float v4sf __attribute__((vector_size(16)));
typedef int v4si __attribute__((vector_size(16)));

inline v4sf load4(const float* p) {
  v4sf v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, v4sf v) { std::memcpy(p, &v, sizeof v); }

void transpose_tiled(const float* FRLFI_RESTRICT src, float* FRLFI_RESTRICT dst,
                     std::size_t rows, std::size_t cols) {
  const std::size_t rfull = rows - rows % 4;
  const std::size_t cfull = cols - cols % 4;
  // c0 outer / r0 inner: each group of 4 destination rows is produced
  // front-to-back in one sweep, so every destination cache line is written
  // exactly once while the 4-column source window stays cache-resident.
  for (std::size_t c0 = 0; c0 < cfull; c0 += 4) {
    for (std::size_t r0 = 0; r0 < rfull; r0 += 4) {
      const v4sf a0 = load4(src + (r0 + 0) * cols + c0);
      const v4sf a1 = load4(src + (r0 + 1) * cols + c0);
      const v4sf a2 = load4(src + (r0 + 2) * cols + c0);
      const v4sf a3 = load4(src + (r0 + 3) * cols + c0);
      const v4sf t0 = __builtin_shuffle(a0, a1, (v4si){0, 4, 1, 5});
      const v4sf t1 = __builtin_shuffle(a0, a1, (v4si){2, 6, 3, 7});
      const v4sf t2 = __builtin_shuffle(a2, a3, (v4si){0, 4, 1, 5});
      const v4sf t3 = __builtin_shuffle(a2, a3, (v4si){2, 6, 3, 7});
      store4(dst + (c0 + 0) * rows + r0,
             __builtin_shuffle(t0, t2, (v4si){0, 1, 4, 5}));
      store4(dst + (c0 + 1) * rows + r0,
             __builtin_shuffle(t0, t2, (v4si){2, 3, 6, 7}));
      store4(dst + (c0 + 2) * rows + r0,
             __builtin_shuffle(t1, t3, (v4si){0, 1, 4, 5}));
      store4(dst + (c0 + 3) * rows + r0,
             __builtin_shuffle(t1, t3, (v4si){2, 3, 6, 7}));
    }
    for (std::size_t r = rfull; r < rows; ++r)
      for (std::size_t c = c0; c < c0 + 4; ++c)
        dst[c * rows + r] = src[r * cols + c];
  }
  for (std::size_t c = cfull; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r) dst[c * rows + r] = src[r * cols + c];
}
#else
constexpr std::size_t kTransposeTile = 32;

void transpose_tiled(const float* FRLFI_RESTRICT src, float* FRLFI_RESTRICT dst,
                     std::size_t rows, std::size_t cols) {
  for (std::size_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
    const std::size_t rmax = std::min(r0 + kTransposeTile, rows);
    for (std::size_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
      const std::size_t cmax = std::min(c0 + kTransposeTile, cols);
      for (std::size_t r = r0; r < rmax; ++r)
        for (std::size_t c = c0; c < cmax; ++c)
          dst[c * rows + r] = src[r * cols + c];
    }
  }
}
#endif

}  // namespace

Tensor batch_to_inner(const Tensor& batch_major, std::size_t batch) {
  FRLFI_CHECK(batch >= 1 && batch_major.rank() >= 2 &&
              batch_major.dim(0) == batch);
  const std::size_t features = batch_major.size() / batch;
  std::vector<std::size_t> shape(batch_major.shape().begin() + 1,
                                 batch_major.shape().end());
  shape.push_back(batch);
  Tensor out(std::move(shape));
  transpose_tiled(batch_major.data().data(), out.data().data(), batch,
                  features);
  return out;
}

Tensor batch_to_major(const Tensor& batch_inner, std::size_t batch) {
  FRLFI_CHECK(batch >= 1 && batch_inner.rank() >= 2 &&
              batch_inner.dim(batch_inner.rank() - 1) == batch);
  const std::size_t features = batch_inner.size() / batch;
  std::vector<std::size_t> shape{batch};
  shape.insert(shape.end(), batch_inner.shape().begin(),
               batch_inner.shape().end() - 1);
  Tensor out(std::move(shape));
  transpose_tiled(batch_inner.data().data(), out.data().data(), features,
                  batch);
  return out;
}

}  // namespace frlfi
