#include "transformer.h"

#include <cmath>
#include <limits>
#include <tuple>

#include "robust/fault.h"
#include "robust/recovery.h"
#include "robust/signal.h"
#include "tensor/ops.h"
#include "util/cache.h"
#include "util/logging.h"

namespace lrd {

namespace {

/**
 * Layer-boundary guard: report the first non-finite activation with
 * the layer that produced it. The "model.block" nan fault poisons one
 * element first, so the guard path itself is exercisable in tests.
 */
void
guardBlockOutput(Tensor &h, int64_t layerIdx)
{
    if (faultAt("model.block", FaultKind::Nan) && h.size() > 0)
        h[0] = std::numeric_limits<float>::quiet_NaN();
    pollCancelFault("model.block");
    const int64_t bad = firstNonFinite(h.data(), h.size());
    if (bad >= 0)
        reportNonFinite("model.block", layerIdx, bad);
}

} // namespace

TransformerBlock::TransformerBlock(const ModelConfig &cfg, int64_t layerIdx,
                                   Rng &rng)
    : arch_(cfg.arch)
{
    const std::string base = strCat("layer", layerIdx, ".");
    if (arch_ == Arch::LlamaStyle) {
        rms1_ = std::make_unique<RmsNorm>(cfg.dModel, base + "rms1");
        rms2_ = std::make_unique<RmsNorm>(cfg.dModel, base + "rms2");
    } else {
        ln1_ = std::make_unique<LayerNorm>(cfg.dModel, base + "ln1");
        ln2_ = std::make_unique<LayerNorm>(cfg.dModel, base + "ln2");
    }
    attn_ = std::make_unique<MultiHeadAttention>(cfg, layerIdx, rng);
    mlp_ = std::make_unique<Mlp>(cfg, layerIdx, rng);
}

Tensor
TransformerBlock::forward(const Tensor &x, Tape *tape) const
{
    const auto rec = [tape](auto member) {
        return tape != nullptr ? &(tape->*member) : nullptr;
    };
    if (arch_ == Arch::LlamaStyle) {
        // Pre-norm: x + attn(rms1(x)), then + mlp(rms2(.)).
        Tensor a = add(x, attn_->forward(
                              rms1_->forward(x, rec(&Tape::rms1)),
                              rec(&Tape::attn)));
        return add(a, mlp_->forward(rms2_->forward(a, rec(&Tape::rms2)),
                                    rec(&Tape::mlp)));
    }
    // Post-norm: ln1(x + attn(x)), then ln2(a + mlp(a)).
    Tensor a = ln1_->forward(add(x, attn_->forward(x, rec(&Tape::attn))),
                             rec(&Tape::ln1));
    return ln2_->forward(add(a, mlp_->forward(a, rec(&Tape::mlp))),
                         rec(&Tape::ln2));
}

Tensor
TransformerBlock::backward(const Tensor &dy, const Tape &tape,
                           const Grads &grads) const
{
    if (arch_ == Arch::LlamaStyle) {
        Tensor da = dy;
        axpy(da, 1.0F,
             rms2_->backward(mlp_->backward(dy, tape.mlp, grads),
                             tape.rms2, grads));
        Tensor dx = da;
        axpy(dx, 1.0F,
             rms1_->backward(attn_->backward(da, tape.attn, grads),
                             tape.rms1, grads));
        return dx;
    }
    Tensor dIn2 = ln2_->backward(dy, tape.ln2, grads);
    Tensor da = dIn2;
    axpy(da, 1.0F, mlp_->backward(dIn2, tape.mlp, grads));
    Tensor dIn1 = ln1_->backward(da, tape.ln1, grads);
    Tensor dx = dIn1;
    axpy(dx, 1.0F, attn_->backward(dIn1, tape.attn, grads));
    return dx;
}

Tensor
TransformerBlock::forwardCached(const Tensor &x, KvCache &cache) const
{
    require(arch_ == Arch::LlamaStyle,
            "TransformerBlock::forwardCached: KV cache is decoder-only");
    Tensor a = add(x, attn_->forwardCached(rms1_->forward(x), cache));
    return add(a, mlp_->forward(rms2_->forward(a)));
}

const Linear::Tape &
TransformerBlock::Tape::linear(WeightKind kind) const
{
    switch (kind) {
      case WeightKind::Query: return attn.wq;
      case WeightKind::Key: return attn.wk;
      case WeightKind::Value: return attn.wv;
      case WeightKind::SelfOutput: return attn.wso;
      case WeightKind::Gate:
      case WeightKind::Intermediate: return mlp.g;
      case WeightKind::Up: return mlp.u;
      default: return mlp.d; // Down / Output.
    }
}

Linear &
TransformerBlock::linear(WeightKind kind)
{
    switch (kind) {
      case WeightKind::Query:
      case WeightKind::Key:
      case WeightKind::Value:
      case WeightKind::SelfOutput:
        return attn_->linear(kind);
      default:
        return mlp_->linear(kind);
    }
}

std::vector<Parameter *>
TransformerBlock::parameters()
{
    std::vector<Parameter *> ps;
    auto append = [&](std::vector<Parameter *> more) {
        ps.insert(ps.end(), more.begin(), more.end());
    };
    if (arch_ == Arch::LlamaStyle) {
        append(rms1_->parameters());
        append(rms2_->parameters());
    } else {
        append(ln1_->parameters());
        append(ln2_->parameters());
    }
    append(attn_->parameters());
    append(mlp_->parameters());
    return ps;
}

int64_t
TransformerBlock::paramCount() const
{
    int64_t n = attn_->paramCount() + mlp_->paramCount();
    if (arch_ == Arch::LlamaStyle)
        n += 2 * rms1_->parameters()[0]->size();
    else
        n += 2
             * (ln1_->parameters()[0]->size()
                + ln1_->parameters()[1]->size());
    return n;
}

TransformerModel::TransformerModel(const ModelConfig &cfg, uint64_t seed)
    : cfg_(cfg)
{
    cfg_.validate();
    Rng rng(seed);
    embedding_ = std::make_unique<Embedding>(
        cfg_.vocabSize, cfg_.dModel, cfg_.maxSeq,
        cfg_.arch == Arch::BertStyle, "emb", rng);
    blocks_.reserve(static_cast<size_t>(cfg_.nLayers));
    for (int64_t i = 0; i < cfg_.nLayers; ++i)
        blocks_.push_back(std::make_unique<TransformerBlock>(cfg_, i, rng));
    if (cfg_.arch == Arch::LlamaStyle)
        finalNorm_ = std::make_unique<RmsNorm>(cfg_.dModel, "final_norm");
    lmHead_ = std::make_unique<Linear>(cfg_.vocabSize, cfg_.dModel, false,
                                       "lm_head", rng);
}

Tensor
TransformerModel::forward(const TokenSeq &tokens, Tape *tape) const
{
    require(static_cast<int64_t>(tokens.size()) <= cfg_.maxSeq,
            strCat("TransformerModel::forward: sequence length ",
                   tokens.size(), " exceeds maxSeq ", cfg_.maxSeq));
    if (tape != nullptr)
        // lrd-lint: allow(hot-path-alloc) the tape is the item's activation record: one resize per taped forward
        tape->blocks.resize(blocks_.size());
    Tensor h = embedding_->forward(tokens);
    for (size_t l = 0; l < blocks_.size(); ++l) {
        h = blocks_[l]->forward(h, tape != nullptr ? &tape->blocks[l]
                                                   : nullptr);
        guardBlockOutput(h, static_cast<int64_t>(l));
    }
    if (finalNorm_)
        h = finalNorm_->forward(h, tape != nullptr ? &tape->finalNorm
                                                   : nullptr);
    return lmHead_->forward(h, tape != nullptr ? &tape->lmHead : nullptr);
}

namespace {

/**
 * Cross-entropy on logits rows with target >= 0; fills dLogits with
 * (softmax - onehot) / numSupervised when dLogits != nullptr.
 */
double
crossEntropy(const Tensor &logits, const std::vector<int> &targets,
             Tensor *dLogits)
{
    const int64_t t = logits.dim(0);
    const int64_t v = logits.dim(1);
    require(static_cast<int64_t>(targets.size()) == t,
            "crossEntropy: target length mismatch");
    int64_t supervised = 0;
    for (int tgt : targets)
        if (tgt >= 0)
            ++supervised;
    require(supervised > 0, "crossEntropy: no supervised positions");

    Tensor logProbs = logSoftmaxLastDim(logits);
    double loss = 0.0;
    if (dLogits != nullptr)
        *dLogits = Tensor(logits.shape());
    const double invN = 1.0 / static_cast<double>(supervised);
    for (int64_t i = 0; i < t; ++i) {
        const int tgt = targets[static_cast<size_t>(i)];
        if (tgt < 0)
            continue;
        require(tgt < v, "crossEntropy: target out of vocab");
        loss -= logProbs(i, tgt);
        if (dLogits != nullptr) {
            const float *lp = logProbs.data() + i * v;
            float *dl = dLogits->data() + i * v;
            for (int64_t j = 0; j < v; ++j)
                dl[j] = static_cast<float>(std::exp(lp[j]) * invN);
            dl[tgt] -= static_cast<float>(invN);
        }
    }
    return loss * invN;
}

} // namespace

double
TransformerModel::lossAndGrad(const TokenSeq &tokens,
                              const std::vector<int> &targets)
{
    return lossAndGradInto(tokens, targets, Grads(parameters()));
}

double
TransformerModel::lossAndGradInto(const TokenSeq &tokens,
                                  const std::vector<int> &targets,
                                  const Grads &grads) const
{
    Tape tape;
    Tensor logits = forward(tokens, &tape);
    Tensor dLogits;
    const double loss = crossEntropy(logits, targets, &dLogits);

    Tensor dh = lmHead_->backward(dLogits, tape.lmHead, grads);
    if (finalNorm_)
        dh = finalNorm_->backward(dh, tape.finalNorm, grads);
    for (size_t l = blocks_.size(); l-- > 0;)
        dh = blocks_[l]->backward(dh, tape.blocks[l], grads);
    embedding_->backward(dh, tokens, 0, grads);
    return loss;
}

double
TransformerModel::loss(const TokenSeq &tokens,
                       const std::vector<int> &targets) const
{
    Tensor logits = forward(tokens);
    return crossEntropy(logits, targets, nullptr);
}

std::vector<Parameter *>
TransformerModel::parameters()
{
    std::vector<Parameter *> ps;
    auto append = [&](std::vector<Parameter *> more) {
        ps.insert(ps.end(), more.begin(), more.end());
    };
    append(embedding_->parameters());
    for (auto &b : blocks_)
        append(b->parameters());
    if (finalNorm_)
        append(finalNorm_->parameters());
    append(lmHead_->parameters());
    return ps;
}

void
TransformerModel::zeroGrad()
{
    for (Parameter *p : parameters())
        p->zeroGrad();
}

Linear &
TransformerModel::linear(int64_t layer, WeightKind kind)
{
    require(layer >= 0 && layer < numLayers(),
            strCat("TransformerModel::linear: layer ", layer,
                   " out of range"));
    return blocks_[static_cast<size_t>(layer)]->linear(kind);
}

const Linear &
TransformerModel::linear(int64_t layer, WeightKind kind) const
{
    return const_cast<TransformerModel *>(this)->linear(layer, kind);
}

Status
TransformerModel::applyTucker(int64_t layer, WeightKind kind,
                              int64_t prunedRank)
{
    return linear(layer, kind).factorize(prunedRank);
}

int64_t
TransformerModel::paramCount() const
{
    int64_t n = 0;
    for (Parameter *p :
         const_cast<TransformerModel *>(this)->parameters())
        n += p->size();
    return n;
}

bool
TransformerModel::anyFactorized() const
{
    for (int64_t l = 0; l < numLayers(); ++l)
        for (WeightKind k : decomposableKinds(cfg_.arch))
            if (linear(l, k).isFactorized())
                return true;
    return false;
}

std::vector<uint8_t>
TransformerModel::serialize() const
{
    auto *self = const_cast<TransformerModel *>(this);
    ByteWriter w;
    w.putString("lrd-model-v3");
    w.putString(cfg_.name);
    w.putU32(cfg_.arch == Arch::LlamaStyle ? 0 : 1);
    w.putU64(static_cast<uint64_t>(cfg_.vocabSize));
    w.putU64(static_cast<uint64_t>(cfg_.dModel));
    w.putU64(static_cast<uint64_t>(cfg_.nLayers));
    w.putU64(static_cast<uint64_t>(cfg_.nHeads));
    w.putU64(static_cast<uint64_t>(cfg_.nKvHeads));
    w.putU64(static_cast<uint64_t>(cfg_.dFf));
    w.putU64(static_cast<uint64_t>(cfg_.maxSeq));

    // Factorization manifest: which (layer, tensor) pairs are stored
    // as Tucker factors, and at what rank.
    std::vector<std::tuple<uint64_t, uint32_t, uint64_t>> manifest;
    for (int64_t l = 0; l < numLayers(); ++l) {
        for (WeightKind kind : decomposableKinds(cfg_.arch)) {
            const Linear &lin = linear(l, kind);
            if (lin.isFactorized())
                manifest.emplace_back(static_cast<uint64_t>(l),
                                      static_cast<uint32_t>(kind),
                                      static_cast<uint64_t>(
                                          lin.prunedRank()));
        }
    }
    w.putU64(manifest.size());
    for (const auto &[layer, kind, rank] : manifest) {
        w.putU64(layer);
        w.putU32(kind);
        w.putU64(rank);
    }

    auto params = self->parameters();
    w.putU64(params.size());
    for (Parameter *p : params) {
        w.putString(p->name);
        w.putFloats(p->value.storage());
    }
    return w.bytes();
}

TransformerModel
TransformerModel::deserialize(const std::vector<uint8_t> &bytes)
{
    ByteReader r(bytes);
    const std::string magic = r.getString();
    require(magic == "lrd-model-v1" || magic == "lrd-model-v2"
                || magic == "lrd-model-v3",
            "TransformerModel::deserialize: bad magic");
    ModelConfig cfg;
    cfg.name = r.getString();
    cfg.arch = r.getU32() == 0 ? Arch::LlamaStyle : Arch::BertStyle;
    cfg.vocabSize = static_cast<int64_t>(r.getU64());
    cfg.dModel = static_cast<int64_t>(r.getU64());
    cfg.nLayers = static_cast<int64_t>(r.getU64());
    cfg.nHeads = static_cast<int64_t>(r.getU64());
    if (magic == "lrd-model-v3")
        cfg.nKvHeads = static_cast<int64_t>(r.getU64());
    cfg.dFf = static_cast<int64_t>(r.getU64());
    cfg.maxSeq = static_cast<int64_t>(r.getU64());

    TransformerModel model(cfg);
    if (magic != "lrd-model-v1") {
        const uint64_t n = r.getU64();
        for (uint64_t i = 0; i < n; ++i) {
            const auto layer = static_cast<int64_t>(r.getU64());
            const auto kind = static_cast<WeightKind>(r.getU32());
            const auto rank = static_cast<int64_t>(r.getU64());
            model.linear(layer, kind).installFactorShape(rank);
        }
    }
    auto params = model.parameters();
    const uint64_t n = r.getU64();
    require(n == params.size(),
            strCat("TransformerModel::deserialize: parameter count ",
                   n, " != expected ", params.size()));
    for (Parameter *p : params) {
        const std::string name = r.getString();
        require(name == p->name,
                strCat("TransformerModel::deserialize: expected ", p->name,
                       ", found ", name));
        std::vector<float> data = r.getFloats();
        require(static_cast<int64_t>(data.size()) == p->value.size(),
                "TransformerModel::deserialize: size mismatch for " + name);
        p->value.storage() = std::move(data);
    }
    return model;
}

InferenceSession::InferenceSession(const TransformerModel &model)
    : model_(&model)
{
    require(model.config().arch == Arch::LlamaStyle,
            "InferenceSession: KV-cache decoding is decoder-only");
    reset();
}

void
InferenceSession::reset()
{
    caches_.assign(static_cast<size_t>(model_->numLayers()),
                   KvCache(model_->config().maxSeq,
                           model_->config().kvDim()));
}

Tensor
InferenceSession::append(const TokenSeq &tokens)
{
    require(!tokens.empty(), "InferenceSession::append: empty input");
    const int64_t start = length();
    require(start + static_cast<int64_t>(tokens.size())
                <= model_->config().maxSeq,
            "InferenceSession::append: exceeds maxSeq");
    Tensor h = model_->embedding_->forward(tokens, start);
    for (int64_t l = 0; l < model_->numLayers(); ++l) {
        h = model_->blocks_[static_cast<size_t>(l)]->forwardCached(
            h, caches_[static_cast<size_t>(l)]);
        guardBlockOutput(h, l);
    }
    h = model_->finalNorm_->forward(h);
    Tensor logits = model_->lmHead_->forward(h);
    // Return the last row only.
    const int64_t v = logits.dim(1);
    Tensor last({v});
    const float *src = logits.data() + (logits.dim(0) - 1) * v;
    for (int64_t j = 0; j < v; ++j)
        last[j] = src[j];
    return last;
}

double
scoreContinuation(const TransformerModel &model, const TokenSeq &context,
                  const TokenSeq &continuation)
{
    require(!context.empty() && !continuation.empty(),
            "scoreContinuation: context and continuation must be "
            "non-empty");
    InferenceSession session(model);
    Tensor logits = session.append(context);
    double total = 0.0;
    for (size_t i = 0; i < continuation.size(); ++i) {
        Tensor logProbs = logSoftmaxLastDim(logits);
        total += logProbs[continuation[i]];
        if (i + 1 < continuation.size())
            logits = session.append({continuation[i]});
    }
    return total;
}

TokenSeq
greedyGenerate(const TransformerModel &model, const TokenSeq &prompt,
               int maxNew, int stopToken)
{
    require(!prompt.empty(), "greedyGenerate: empty prompt");
    InferenceSession session(model);
    Tensor logits = session.append(prompt);
    TokenSeq out;
    const int64_t maxSeq = model.config().maxSeq;
    for (int i = 0; i < maxNew && session.length() < maxSeq; ++i) {
        int best = 0;
        for (int64_t j = 1; j < logits.dim(0); ++j)
            if (logits[j] > logits[best])
                best = static_cast<int>(j);
        if (best == stopToken)
            break;
        out.push_back(best);
        if (session.length() + 1 <= maxSeq && i + 1 < maxNew)
            logits = session.append({best});
    }
    return out;
}

} // namespace lrd
