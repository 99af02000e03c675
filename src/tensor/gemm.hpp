#pragma once

/// \file gemm.hpp
/// Cache-blocked row-major float GEMM/GEMV kernels: the compute substrate
/// under `Tensor::matmul`, `Dense`, and the im2col path of `Conv2D`.
///
/// All kernels take raw pointers into row-major storage and make two
/// ordering guarantees that the rest of the library leans on:
///  * for each output element, the k-reduction of the `*_accumulate` /
///    `gemm` / `gemv` kernels runs in strictly increasing k order, so the
///    GEMM-backed layer paths are bit-identical to the naive reference
///    loops they replaced (padding contributes exact +0.0f terms);
///  * blocking never reorders that per-element chain, only the traversal
///    of independent output elements.
/// Two deliberate exceptions trade exact ordering for throughput (always
/// deterministic for a given shape, just not reference-ordered):
///  * gemm/gemm_accumulate with n < 8 switch to a packed SIMD dot-product
///    kernel (the saxpy form degenerates to scalar loop overhead there);
///  * the transposed kernels (`gemm_nt_accumulate`, `gemm_tn`) use SIMD
///    reductions.

#include <cstddef>

#if defined(__GNUC__) || defined(__clang__)
#define FRLFI_RESTRICT __restrict__
#else
#define FRLFI_RESTRICT
#endif

// Runtime-dispatched wider-vector clones for kernels whose loops are pure
// elementwise/saxpy chains. AVX2 vmulps/vaddps are IEEE-identical per lane
// to the SSE baseline and the build keeps ISO fp-contract (no FMA fusing),
// so for reduction-free loops the vector width cannot change a single
// result bit — cloning preserves the library's cross-machine
// bit-reproducibility while roughly doubling hot-loop throughput on AVX2
// parts. Kernels with reductions (packed narrow dots, the transposed
// GEMMs, gemv) must NOT be cloned: their reduction-tree shape follows the
// vector width. Disabled under ThreadSanitizer: target_clones emits IFUNC
// resolvers that run before the TSan runtime initializes, crashing any
// binary that links a cloned kernel at load time (dispatch is identical
// either way, so sanitizer builds just lose the wider vectors).
#if defined(__SANITIZE_THREAD__)
#define FRLFI_NO_TARGET_CLONES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FRLFI_NO_TARGET_CLONES 1
#endif
#endif
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && \
    !defined(__AVX2__) && !defined(FRLFI_NO_TARGET_CLONES)
#define FRLFI_TARGET_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define FRLFI_TARGET_CLONES
#endif

namespace frlfi {

/// C (m x n) = A (m x k) · B (k x n). C is overwritten.
void gemm(const float* a, const float* b, float* c, std::size_t m,
          std::size_t k, std::size_t n);

/// C (m x n) += A (m x k) · B (k x n). Fused accumulate form used by the
/// backward passes so gradient buffers never need a temporary.
void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n);

/// C (m x n) = row-bias + A·B: c[i][j] = bias[i] + sum_p a[i][p]·b[p][j],
/// the accumulator seeded from bias[i] before the k-chain — the exact
/// summation order of the naive convolution loops. C is overwritten.
/// Fused form used by Conv2D::forward (k must be >= 1).
void gemm_bias_rows(const float* a, const float* b, const float* bias,
                    float* c, std::size_t m, std::size_t k, std::size_t n);

/// gemm_bias_rows that always runs the ordered saxpy kernel, even below
/// the narrow-n threshold where gemm_bias_rows would switch to the packed
/// (reassociating) dot kernel. Used by Dense's batch-inner GEMM (n = B)
/// so its per-element chain is reference-ordered at every width: lane-view
/// forwards split a batch into runs, and results cannot depend on the
/// width a run happens to have.
void gemm_bias_rows_ordered(const float* a, const float* b, const float* bias,
                            float* c, std::size_t m, std::size_t k,
                            std::size_t n);

/// C (m x n) += A (m x k) · Bᵀ where B is stored (n x k). Both operand
/// rows are contiguous, so the k-reduction vectorizes as a dot product.
void gemm_nt_accumulate(const float* a, const float* b, float* c,
                        std::size_t m, std::size_t k, std::size_t n);

/// C (m x n) = Aᵀ · B where A is stored (k x m) and B is (k x n).
void gemm_tn(const float* a, const float* b, float* c, std::size_t m,
             std::size_t k, std::size_t n);

/// C (m x n) += A (m x k) · B (k x n), skipping zero elements of A.
/// Only worth it when A is mostly zeros — e.g. weight matrices after the
/// fault-masking mitigation has suppressed anomalous values. The dense
/// kernels above are faster in the common (dense) case.
void gemm_zero_skip_accumulate(const float* a, const float* b, float* c,
                               std::size_t m, std::size_t k, std::size_t n);

/// y (n) += alpha · x (n): the BLAS saxpy. Reduction-free elementwise
/// chain, so it carries the wider-vector clones; alpha == 1.0f multiplies
/// exactly, which is what lets the federated row-sum accumulate rows in
/// agent order bit-identically to the scalar reference loop.
void axpy(float alpha, const float* x, float* y, std::size_t n);

/// y (m) = W (m x n) · x (n). y is overwritten.
void gemv(const float* w, const float* x, float* y, std::size_t m,
          std::size_t n);

/// y (m) = bias (m) + W (m x n) · x (n), with the accumulator seeded from
/// bias[i] before the dot product — the exact summation order of the naive
/// Dense/Conv forward loops, kept for bit-reproducibility.
void gemv_bias(const float* w, const float* x, const float* bias, float* y,
               std::size_t m, std::size_t n);

/// y (n) += Wᵀ · g where W is stored (m x n) and g is (m). Row-major
/// friendly form of the Dense input-gradient product.
void gemv_t_accumulate(const float* w, const float* g, float* y, std::size_t m,
                       std::size_t n);

/// A (m x n) += g (m) · xᵀ (n): rank-1 update for Dense weight gradients.
void ger_accumulate(const float* g, const float* x, float* a, std::size_t m,
                    std::size_t n);

}  // namespace frlfi
