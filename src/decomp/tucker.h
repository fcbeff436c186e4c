/**
 * @file
 * Tucker decomposition: Higher-Order Orthogonal Iteration (Algorithm 1
 * of the paper) for arbitrary-order tensors, the 2D three-factor form
 * used to compress transformer weight matrices (Section 2.3), and the
 * compression-ratio arithmetic.
 */

#ifndef LRD_DECOMP_TUCKER_H
#define LRD_DECOMP_TUCKER_H

#include <vector>

#include "tensor/tensor.h"
#include "util/status.h"

namespace lrd {

/** Core tensor plus one factor matrix per mode; factors[i] is
 *  (n_i x r_i) with orthonormal columns. */
struct TuckerResult
{
    Tensor core;                 ///< Shape (r_0, ..., r_{N-1}).
    std::vector<Tensor> factors; ///< Per-mode (n_i x r_i) factors.
    Status status;               ///< First Jacobi non-convergence, if any.

    /** Reconstruct core x_0 U^0 x_1 U^1 ... back to full shape. */
    Tensor reconstruct() const;

    /** Total parameter count of core + factors. */
    int64_t paramCount() const;
};

/** Options controlling the HOI iteration. */
struct HoiOptions
{
    int maxIters = 30;      ///< Maximum alternating sweeps.
    double tol = 1e-7;      ///< Stop when fit improves less than this.
    bool hosvdInit = true;  ///< Init factors via truncated HOSVD
                            ///< (false: random orthonormal).
    uint64_t seed = 42;     ///< Seed for random init.
};

/**
 * Truncated higher-order SVD: factor i is the top-r_i left singular
 * vectors of the mode-i unfolding. Used both standalone and as the
 * HOI initializer.
 */
TuckerResult hosvd(const Tensor &t, const std::vector<int64_t> &ranks);

/**
 * Tucker decomposition via Higher Order Orthogonal Iteration
 * (Algorithm 1). @param ranks one target rank per mode, each in
 * [1, n_i].
 *
 * A Jacobi non-convergence inside any factor update surfaces in the
 * result's status. Under LRD_ROBUST=retry the iteration deterministically
 * re-runs with a reseeded random initialization (bounded attempts)
 * before reporting failure.
 */
TuckerResult hooi(const Tensor &t, const std::vector<int64_t> &ranks,
                  const HoiOptions &opts = {});

/**
 * The paper's 2D weight factorization (Section 2.3):
 * W (H x W) approx= U1 (H x pr) * core (pr x pr) * U2 (pr x W).
 * For 2D tensors Tucker reduces to SVD with the singular values
 * folded into the core.
 */
struct Tucker2d
{
    Tensor u1;   ///< (H x pr).
    Tensor core; ///< (pr x pr), diagonal by construction.
    Tensor u2;   ///< (pr x W).
    Status status; ///< Propagated SVD convergence status.

    /** Reconstruct u1 * core * u2. */
    Tensor reconstruct() const;

    /** H*pr + pr*pr + pr*W. */
    int64_t paramCount() const;

    /**
     * The rank-k prefix: the first k columns of u1, the leading k x k
     * block of the core and the first k rows of u2, with the same
     * status. Since tucker2dDecompose copies the leading columns of
     * one full SVD, leading(k) of a rank-r result equals
     * tucker2dDecompose(w, k) bit for bit, for every 1 <= k <= r.
     */
    Tucker2d leading(int64_t k) const;
};

/** Rank-pruned 2D Tucker of a weight matrix via truncated SVD. */
Tucker2d tucker2dDecompose(const Tensor &w, int64_t prunedRank);

/** @name Compression arithmetic (Section 2.3)
 *  @{
 */
/** Parameters of the dense (H x W) matrix. */
int64_t denseParams(int64_t h, int64_t w);
/** Parameters after decomposition with pruned rank pr. */
int64_t decomposedParams(int64_t h, int64_t w, int64_t pr);
/** Dense / decomposed parameter ratio. */
double compressionRatio(int64_t h, int64_t w, int64_t pr);
/**
 * Largest pruned rank that still shrinks the matrix:
 * pr < (sqrt((H+W)^2 + 4HW) - (H+W)) / 2.
 */
int64_t breakEvenRank(int64_t h, int64_t w);
/** @} */

} // namespace lrd

#endif // LRD_DECOMP_TUCKER_H
