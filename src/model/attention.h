/**
 * @file
 * Multi-head self-attention with optional causal masking and rotary
 * position embeddings, full-sequence forward/backward for training
 * and an incremental KV-cache path for autoregressive inference.
 *
 * The four projection weights (W_Q, W_K, W_V, W_SO) are the
 * attention-side decomposable tensors of the paper's Figure 4; each is
 * a Linear that can be swapped to its Tucker-factorized form.
 */

#ifndef LRD_MODEL_ATTENTION_H
#define LRD_MODEL_ATTENTION_H

#include <memory>
#include <vector>

#include "model/config.h"
#include "model/linear.h"

namespace lrd {

/** Per-layer key/value cache for incremental decoding. */
struct KvCache
{
    KvCache() = default;
    KvCache(int64_t maxSeq, int64_t dModel)
        : k({maxSeq, dModel}), v({maxSeq, dModel})
    {
    }

    Tensor k;        ///< Cached post-RoPE keys, rows 0..len.
    Tensor v;        ///< Cached values, rows 0..len.
    int64_t len = 0; ///< Number of valid cached positions.
};

/** Multi-head self-attention block. */
class MultiHeadAttention
{
  public:
    /** `rng` as for Linear: null leaves the projections zero. */
    MultiHeadAttention(const ModelConfig &cfg, int64_t layerIdx, Rng *rng);

    /** What backward() needs from one forward(). */
    struct Tape
    {
        Linear::Tape wq, wk, wv, wso;
        Tensor q, k, v; ///< Post-RoPE projections.
        Tensor probs;   ///< (nHeads, T, T) softmax rows.
    };

    /** Full-sequence forward: x (T, d) -> (T, d); records into *tape
     *  if set. */
    Tensor forward(const Tensor &x, Tape *tape = nullptr) const;

    /** Backward through the forward() that filled `tape`; returns
     *  dL/dx. */
    Tensor backward(const Tensor &dy, const Tape &tape,
                    const Grads &grads) const;

    /**
     * Incremental inference forward: append x's rows (usually one) at
     * positions cache.len..cache.len+n and attend over everything
     * cached so far.
     */
    Tensor forwardCached(const Tensor &x, KvCache &cache) const;

    /** Access one of the four projection Linears by kind. */
    Linear &linear(WeightKind kind);

    std::vector<Parameter *> parameters();
    int64_t paramCount() const;

    /**
     * Apply (or invert) RoPE to rows holding `heads` concatenated
     * head slices, at absolute positions startPos... (< maxSeq). A
     * no-op for architectures without RoPE.
     */
    void applyRope(Tensor &qk, int64_t startPos, bool inverse,
                   int64_t heads) const;

  private:
    int64_t dModel_;
    int64_t nHeads_;
    int64_t kvHeads_;  ///< < nHeads_ under grouped-query attention.
    int64_t kvDim_;    ///< kvHeads_ * headDim_.
    int64_t headDim_;
    bool causal_;
    bool useRope_;
    /** cos/sin of every RoPE angle, (maxSeq, headDim / 2) row-major;
     *  empty without RoPE. */
    std::vector<float> ropeCos_, ropeSin_;

    std::unique_ptr<Linear> wq_, wk_, wv_, wso_;
};

} // namespace lrd

#endif // LRD_MODEL_ATTENTION_H
