/**
 * @file
 * The full transformer: embedding, a stack of blocks, final norm and
 * LM head. Provides training (forward + cross-entropy + backward),
 * full-sequence inference, KV-cache incremental inference, Tucker
 * decomposition of any (layer, tensor) pair, and serialization.
 */

#ifndef LRD_MODEL_TRANSFORMER_H
#define LRD_MODEL_TRANSFORMER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "model/attention.h"
#include "model/config.h"
#include "model/embedding.h"
#include "model/mlp.h"
#include "model/norms.h"

namespace lrd {

/**
 * One encoder/decoder layer. LlamaStyle uses pre-RMSNorm residual
 * blocks; BertStyle uses post-LayerNorm residual blocks.
 */
class TransformerBlock
{
  public:
    TransformerBlock(const ModelConfig &cfg, int64_t layerIdx, Rng &rng);

    /** What backward() needs from one forward(). */
    struct Tape
    {
        RmsNorm::Tape rms1, rms2;  ///< LlamaStyle.
        LayerNorm::Tape ln1, ln2;  ///< BertStyle.
        MultiHeadAttention::Tape attn;
        Mlp::Tape mlp;

        /** The recorded tape of one decomposable Linear. */
        const Linear::Tape &linear(WeightKind kind) const;
    };

    /** Full-sequence forward; records into *tape if set. */
    Tensor forward(const Tensor &x, Tape *tape = nullptr) const;
    /** Backward through the forward() that filled `tape`. */
    Tensor backward(const Tensor &dy, const Tape &tape,
                    const Grads &grads) const;
    /** Incremental decode step (LlamaStyle only). */
    Tensor forwardCached(const Tensor &x, KvCache &cache) const;

    /** Access any decomposable tensor of this layer by kind. */
    Linear &linear(WeightKind kind);

    std::vector<Parameter *> parameters();
    int64_t paramCount() const;

  private:
    Arch arch_;
    std::unique_ptr<RmsNorm> rms1_, rms2_;
    std::unique_ptr<LayerNorm> ln1_, ln2_;
    std::unique_ptr<MultiHeadAttention> attn_;
    std::unique_ptr<Mlp> mlp_;
};

/** A complete decoder-only (Llama-style) or encoder-only (BERT-style)
 *  transformer language model. */
class TransformerModel
{
  public:
    explicit TransformerModel(const ModelConfig &cfg, uint64_t seed = 1234);

    const ModelConfig &config() const { return cfg_; }

    /**
     * Every activation backward() needs from one full-sequence
     * forward. Owned by the caller: the model itself holds only
     * weights, so any number of threads may run forwards (and
     * backwards into separate Grads) through one model at once.
     */
    struct Tape
    {
        std::vector<TransformerBlock::Tape> blocks;
        RmsNorm::Tape finalNorm; ///< LlamaStyle.
        Linear::Tape lmHead;
    };

    /**
     * Full-sequence forward; returns logits (T, vocab). With a tape
     * the activations are recorded for backward(); without one this
     * is pure inference and records nothing. Both run the same
     * arithmetic, so the logits are bitwise equal either way.
     */
    Tensor forward(const TokenSeq &tokens, Tape *tape = nullptr) const;

    /**
     * Forward + mean cross-entropy over positions with target >= 0 +
     * full backward, accumulating into each Parameter::grad.
     *
     * For causal LM training pass targets[i] = tokens[i + 1]; for MLM
     * pass the original token at masked positions and -1 elsewhere.
     * @return Mean loss over supervised positions.
     */
    double lossAndGrad(const TokenSeq &tokens,
                       const std::vector<int> &targets);

    /** As lossAndGrad(), but accumulating into `grads` (built over
     *  this model's parameters()); safe to run concurrently. */
    double lossAndGradInto(const TokenSeq &tokens,
                           const std::vector<int> &targets,
                           const Grads &grads) const;

    /** Forward-only mean cross-entropy (no gradients). */
    double loss(const TokenSeq &tokens,
                const std::vector<int> &targets) const;

    /** All trainable parameters (changes after factorization). */
    std::vector<Parameter *> parameters();

    /** Zero every parameter gradient. */
    void zeroGrad();

    /** Access a decomposable weight tensor. */
    Linear &linear(int64_t layer, WeightKind kind);
    const Linear &linear(int64_t layer, WeightKind kind) const;

    /**
     * Factorize one weight with the given pruned rank (the paper's
     * per-tensor decomposition step). Returns the factorization
     * status; under the degrade policy a non-converged SVD leaves the
     * tensor dense and reports NonConvergence.
     */
    Status applyTucker(int64_t layer, WeightKind kind, int64_t prunedRank);

    /** Live parameter count (drops after decomposition). */
    int64_t paramCount() const;

    int64_t numLayers() const
    {
        return static_cast<int64_t>(blocks_.size());
    }

    /**
     * Serialize weights (v2 format). Factorized layers are stored as
     * their Tucker factors plus a manifest, so compressed checkpoints
     * round-trip at their compressed size.
     */
    std::vector<uint8_t> serialize() const;
    /** Restore a model saved by serialize() (reads v1 and v2). */
    static TransformerModel deserialize(const std::vector<uint8_t> &bytes);

    /**
     * No-op, kept for source compatibility: activations live in
     * caller-owned tapes and sessions, never in the model.
     */
    void clearCache() {}

    /** Whether any linear layer is factorized. */
    bool anyFactorized() const;

  private:
    friend class InferenceSession;

    ModelConfig cfg_;
    std::unique_ptr<Embedding> embedding_;
    std::vector<std::unique_ptr<TransformerBlock>> blocks_;
    std::unique_ptr<RmsNorm> finalNorm_;
    std::unique_ptr<Linear> lmHead_;
};

/**
 * KV-cache incremental decoding session over a LlamaStyle model. The
 * session owns all per-sequence state; the model is only read, so
 * sessions on many threads may share one model. Sessions are cheaply
 * copyable, which the evaluator uses to score multiple choices
 * against a shared context prefix.
 */
class InferenceSession
{
  public:
    explicit InferenceSession(const TransformerModel &model);

    /** Clear the caches; the session restarts at position 0. */
    void reset();

    /**
     * Feed tokens and return the logits row of the last fed token
     * (shape (vocab)).
     */
    Tensor append(const TokenSeq &tokens);

    /** Number of tokens consumed so far. */
    int64_t length() const { return caches_.empty() ? 0 : caches_[0].len; }

  private:
    const TransformerModel *model_;
    std::vector<KvCache> caches_;
};

/** Sum of log-probabilities of `continuation` given `context`. */
double scoreContinuation(const TransformerModel &model,
                         const TokenSeq &context,
                         const TokenSeq &continuation);

/**
 * Greedy decoding: feed `prompt`, then repeatedly append the argmax
 * token until `maxNew` tokens are emitted or `stopToken` appears
 * (the stop token is not included in the result).
 */
TokenSeq greedyGenerate(const TransformerModel &model,
                        const TokenSeq &prompt, int maxNew, int stopToken);

} // namespace lrd

#endif // LRD_MODEL_TRANSFORMER_H
