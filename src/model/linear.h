/**
 * @file
 * Fully-connected layer supporting both dense weights and the paper's
 * three-factor Tucker form.
 *
 * Dense:      y = x W^T (+ b),        W of shape (out, in).
 * Factorized: W approx= U1 * core * U2 with U1 (out, pr),
 *             core (pr, pr), U2 (pr, in); the forward pass chains
 *             three small matmuls, which is exactly how the paper's
 *             decomposed fully-connected layers execute (Section 2.3).
 *
 * Both paths implement backward() so the accuracy-recovery fine-tuning
 * extension (paper Section 6) can train through factorized layers.
 */

#ifndef LRD_MODEL_LINEAR_H
#define LRD_MODEL_LINEAR_H

#include <atomic>
#include <string>
#include <vector>

#include "model/parameter.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/status.h"

namespace lrd {

class Counter;

/** Dense-or-factorized linear layer with manual backprop. */
class Linear
{
  public:
    /**
     * @param outDim Output features.
     * @param inDim  Input features.
     * @param hasBias Whether to include a bias vector.
     * @param name   Parameter-name prefix for optimizers/serialization.
     * @param rng    Initialization stream (scaled normal init).
     */
    Linear(int64_t outDim, int64_t inDim, bool hasBias,
           const std::string &name, Rng &rng);

    /**
     * What backward() needs from one forward(): the input and, when
     * factorized, the two factor intermediates. Owned by the caller,
     * so the layer itself holds no per-call state.
     */
    struct Tape
    {
        Tensor x;
        Tensor t1; ///< x * U2^T (factorized only).
        Tensor t2; ///< t1 * core^T (factorized only).
    };

    /**
     * Forward pass for x of shape (n, in). Factorized, it runs the
     * chain ((x U2^T) core^T) U1^T (+ b) whether or not it is taped,
     * so inference and training see the same bits. With tape ==
     * nullptr nothing is recorded; otherwise the activations
     * backward() needs are recorded into *tape.
     */
    Tensor forward(const Tensor &x, Tape *tape = nullptr) const;

    /**
     * Backward through the forward() that filled `tape`: accumulates
     * parameter gradients into `grads` and returns dL/dx.
     */
    Tensor backward(const Tensor &dy, const Tape &tape,
                    const Grads &grads) const;

    /**
     * Replace the dense weight by its rank-pruned Tucker factors.
     *
     * A non-converged SVD is resolved by the active recovery policy:
     * strict fails fast; otherwise the layer keeps its dense weight
     * and returns the NonConvergence status (it stays usable).
     *
     * @param prunedRank Pruned rank in [1, min(out, in)].
     */
    Status factorize(int64_t prunedRank);

    /**
     * Activation-aware factorization (ASVD-style): decompose
     * W * diag(colScale) and fold diag(1/colScale) back into U2, so
     * the truncation error is weighted by how strongly each input
     * feature is actually driven at inference time. Recovery policy
     * as in factorize().
     * @param colScale Positive per-input-feature scales (size in).
     */
    Status factorizeActivationAware(int64_t prunedRank,
                                    const std::vector<float> &colScale);

    /**
     * Switch to factorized layout with zero-initialized factors of
     * the given rank (no SVD); used when deserializing factorized
     * checkpoints whose factor values follow.
     */
    void installFactorShape(int64_t prunedRank);

    /** Contract the factors back into a dense weight. */
    void densify();

    bool isFactorized() const { return factorized_; }
    int64_t outDim() const { return outDim_; }
    int64_t inDim() const { return inDim_; }
    int64_t prunedRank() const { return prunedRank_; }

    /** Current parameter count (changes when factorized). */
    int64_t paramCount() const;

    /** Live parameters (dense: W[,b]; factorized: U1, core, U2[,b]). */
    std::vector<Parameter *> parameters();

    /** Dense weight accessor; fatal() when factorized. */
    Parameter &weight();
    const Parameter &weight() const;

    /** Effective dense weight: W, or U1*core*U2 when factorized. */
    Tensor effectiveWeight() const;

  private:
    int64_t outDim_;
    int64_t inDim_;
    bool hasBias_;
    bool factorized_ = false;
    int64_t prunedRank_ = 0;
    std::string name_; ///< Layer name; keys the per-layer MAC counter.
    /** "model.<name>.macs"; resolved on the first forward with metrics
     *  on. Concurrent first forwards resolve the same handle. */
    mutable std::atomic<Counter *> macsCounter_{nullptr};

    Parameter w_;    ///< Dense (out, in); empty when factorized.
    Parameter u1_;   ///< (out, pr).
    Parameter core_; ///< (pr, pr).
    Parameter u2_;   ///< (pr, in).
    Parameter b_;    ///< (out), optional.
};

} // namespace lrd

#endif // LRD_MODEL_LINEAR_H
