/**
 * @file
 * Elementwise and linear-algebra primitives over Tensor.
 *
 * All binary ops require exactly matching shapes (no broadcasting);
 * the transformer layers handle their own batching explicitly, which
 * keeps these kernels simple and fast.
 */

#ifndef LRD_TENSOR_OPS_H
#define LRD_TENSOR_OPS_H

#include "tensor/tensor.h"

namespace lrd {

/** @name Elementwise operations (shapes must match exactly)
 *  @{
 */
Tensor add(const Tensor &a, const Tensor &b);
Tensor sub(const Tensor &a, const Tensor &b);
Tensor hadamard(const Tensor &a, const Tensor &b);
Tensor scale(const Tensor &a, float s);
/** a += s * b (AXPY); mutates a in place. */
void axpy(Tensor &a, float s, const Tensor &b);
/** @} */

/** @name Matrix operations (rank-2 tensors)
 *  @{
 */
/** C = A (m x k) * B (k x n). */
Tensor matmul(const Tensor &a, const Tensor &b);
/** C = A (m x k) * B^T where B is (n x k). Faster inner loop. */
Tensor matmulTransB(const Tensor &a, const Tensor &b);
/** C = A^T (k x m -> m x k view) * B (k x n). */
Tensor matmulTransA(const Tensor &a, const Tensor &b);
/** Explicit 2D transpose. */
Tensor transpose2d(const Tensor &a);
/** y = A (m x n) * x (n). */
Tensor matvec(const Tensor &a, const Tensor &x);
/** @} */

/** @name Raw-pointer GEMM kernels used by hot paths
 *  C (m x n) = A (m x k) * B (k x n), with accumulate option.
 *
 *  Cache-blocked, packed, and parallelized over fixed row chunks of
 *  the global thread pool; results are bitwise identical at any
 *  LRD_THREADS setting. IEEE special values propagate (no zero-skip).
 *  Skinny shapes take an unblocked fallback, which runs inline on the
 *  calling thread below kInlineMaxMacs (m * k * n) and fans out
 *  over output columns (rows of C for gemmTransA) above it.
 *  @{
 */
/** MACs below which a kernel runs inline instead of fanning out over
 *  the thread pool: the measured crossover of an m = 1 gemmTransB at
 *  4 threads on a 4-vCPU AVX-512 VM, where a pool dispatch starts to
 *  pay for itself. */
constexpr int64_t kInlineMaxMacs = int64_t{1} << 18;
void gemm(const float *a, const float *b, float *c, int64_t m, int64_t k,
          int64_t n, bool accumulate = false);
/** C (m x n) = A (m x k) * B^T, B stored (n x k). */
void gemmTransB(const float *a, const float *b, float *c, int64_t m,
                int64_t k, int64_t n, bool accumulate = false);
/** C (k x n) = A^T, A stored (m x k), times B (m x n). */
void gemmTransA(const float *a, const float *b, float *c, int64_t m,
                int64_t k, int64_t n, bool accumulate = false);
/** @} */

/** @name Activations
 *  @{
 */
Tensor relu(const Tensor &a);
/** Tanh-approximation GELU as used by BERT. */
Tensor gelu(const Tensor &a);
/** SiLU (x * sigmoid(x)) as used by Llama's SwiGLU MLP. */
Tensor silu(const Tensor &a);
/** @} */

/**
 * Softmax along the last mode, numerically stabilized.
 * Works for any rank >= 1.
 */
Tensor softmaxLastDim(const Tensor &a);

/**
 * Log-softmax along the last mode, numerically stabilized.
 */
Tensor logSoftmaxLastDim(const Tensor &a);

/** Relative Frobenius error ||a - b|| / ||a|| (0 when both zero). */
double relativeError(const Tensor &a, const Tensor &b);

/** Dot product of two equal-shaped tensors. */
double dot(const Tensor &a, const Tensor &b);

} // namespace lrd

#endif // LRD_TENSOR_OPS_H
