#include "attention.h"

#include <cmath>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace lrd {

namespace {

Counter *
headsProcessedCounter()
{
    static Counter *c =
        MetricsRegistry::instance().counter("attn.headsProcessed");
    return c;
}

} // namespace

MultiHeadAttention::MultiHeadAttention(const ModelConfig &cfg,
                                       int64_t layerIdx, Rng &rng)
    : dModel_(cfg.dModel), nHeads_(cfg.nHeads), kvHeads_(cfg.kvHeads()),
      kvDim_(cfg.kvDim()), headDim_(cfg.headDim()),
      causal_(cfg.causal()), useRope_(cfg.arch == Arch::LlamaStyle)
{
    const bool bias = cfg.arch == Arch::BertStyle;
    const std::string base = strCat("layer", layerIdx, ".attn.");
    wq_ = std::make_unique<Linear>(dModel_, dModel_, bias, base + "wq", rng);
    wk_ = std::make_unique<Linear>(kvDim_, dModel_, bias, base + "wk", rng);
    wv_ = std::make_unique<Linear>(kvDim_, dModel_, bias, base + "wv", rng);
    wso_ =
        std::make_unique<Linear>(dModel_, dModel_, bias, base + "wso", rng);
    // Scale the residual-branch output projection down by
    // 1/sqrt(2 * nLayers) (GPT-2-style init) so deep post-LN stacks
    // train stably.
    const float scale =
        1.0F / std::sqrt(2.0F * static_cast<float>(cfg.nLayers));
    for (int64_t i = 0; i < wso_->weight().value.size(); ++i)
        wso_->weight().value[i] *= scale;
    if (!useRope_)
        return;
    // Angle p * 10000^(-d / headDim) for pair d / 2 at position p,
    // evaluated in double and rounded to float.
    const int64_t half = headDim_ / 2;
    ropeCos_.resize(static_cast<size_t>(cfg.maxSeq * half));
    ropeSin_.resize(static_cast<size_t>(cfg.maxSeq * half));
    for (int64_t p = 0; p < cfg.maxSeq; ++p)
        for (int64_t d = 0; d < headDim_; d += 2) {
            const double freq = std::pow(
                10000.0,
                -static_cast<double>(d) / static_cast<double>(headDim_));
            const double angle = static_cast<double>(p) * freq;
            const auto at = static_cast<size_t>(p * half + d / 2);
            ropeCos_[at] = static_cast<float>(std::cos(angle));
            ropeSin_[at] = static_cast<float>(std::sin(angle));
        }
}

void
MultiHeadAttention::applyRope(Tensor &qk, int64_t startPos, bool inverse,
                              int64_t heads) const
{
    if (!useRope_)
        return;
    const int64_t n = qk.dim(0);
    const int64_t half = headDim_ / 2;
    require(startPos >= 0 && (startPos + n) * half
                                 <= static_cast<int64_t>(ropeCos_.size()),
            strCat("MultiHeadAttention::applyRope: positions ", startPos,
                   "..", startPos + n, " exceed maxSeq"));
    const int64_t width = heads * headDim_;
    // The inverse rotation is the rotation by -angle: cos is even and
    // sin odd, so negating the sine gives the same bits as evaluating
    // at the negated angle.
    const float sign = inverse ? -1.0F : 1.0F;
    for (int64_t i = 0; i < n; ++i) {
        const float *cosRow = ropeCos_.data() + (startPos + i) * half;
        const float *sinRow = ropeSin_.data() + (startPos + i) * half;
        float *row = qk.data() + i * width;
        for (int64_t h = 0; h < heads; ++h) {
            float *head = row + h * headDim_;
            for (int64_t d = 0; d < headDim_; d += 2) {
                const float c = cosRow[d / 2];
                const float s = sign * sinRow[d / 2];
                const float x = head[d];
                const float y = head[d + 1];
                head[d] = x * c - y * s;
                head[d + 1] = x * s + y * c;
            }
        }
    }
}

Tensor
MultiHeadAttention::forward(const Tensor &x, Tape *tape) const
{
    LRD_TRACE_SPAN("attn.forward");
    require(x.rank() == 2 && x.dim(1) == dModel_,
            strCat("MultiHeadAttention::forward: bad input ",
                   shapeToString(x.shape())));
    const int64_t t = x.dim(0);
    const bool record = tape != nullptr;
    Tensor q = wq_->forward(x, record ? &tape->wq : nullptr);
    Tensor k = wk_->forward(x, record ? &tape->wk : nullptr);
    Tensor v = wv_->forward(x, record ? &tape->wv : nullptr);
    applyRope(q, 0, false, nHeads_);
    applyRope(k, 0, false, kvHeads_);

    const float invSqrt = 1.0F / std::sqrt(static_cast<float>(headDim_));
    Tensor allProbs({nHeads_, t, t});
    Tensor ctx({t, dModel_});

    // Heads write disjoint probs planes and disjoint ctx column
    // slices, so the per-head loop parallelizes deterministically.
    const int64_t group = nHeads_ / kvHeads_;
    parallelFor(0, nHeads_, 1, [&](int64_t h0, int64_t h1) {
    headsProcessedCounter()->add(h1 - h0);
    for (int64_t h = h0; h < h1; ++h) {
        const int64_t kvh = h / group;
        float *probs = allProbs.data() + h * t * t;
        for (int64_t i = 0; i < t; ++i) {
            const float *qrow = q.data() + i * dModel_ + h * headDim_;
            float *prow = probs + i * t;
            const int64_t limit = causal_ ? i + 1 : t;
            float mx = -std::numeric_limits<float>::infinity();
            for (int64_t j = 0; j < limit; ++j) {
                const float *krow =
                    k.data() + j * kvDim_ + kvh * headDim_;
                float s = 0.0F;
                for (int64_t d = 0; d < headDim_; ++d)
                    s += qrow[d] * krow[d];
                s *= invSqrt;
                prow[j] = s;
                mx = std::max(mx, s);
            }
            float sum = 0.0F;
            for (int64_t j = 0; j < limit; ++j) {
                prow[j] = std::exp(prow[j] - mx);
                sum += prow[j];
            }
            const float inv = 1.0F / sum;
            for (int64_t j = 0; j < limit; ++j)
                prow[j] *= inv;
            for (int64_t j = limit; j < t; ++j)
                prow[j] = 0.0F;
            // ctx row = P V for this head.
            float *crow = ctx.data() + i * dModel_ + h * headDim_;
            for (int64_t j = 0; j < limit; ++j) {
                const float *vrow =
                    v.data() + j * kvDim_ + kvh * headDim_;
                const float p = prow[j];
                for (int64_t d = 0; d < headDim_; ++d)
                    crow[d] += p * vrow[d];
            }
        }
    }
    });
    if (!record)
        return wso_->forward(ctx);
    tape->q = std::move(q);
    tape->k = std::move(k);
    tape->v = std::move(v);
    tape->probs = std::move(allProbs);
    return wso_->forward(ctx, &tape->wso);
}

Tensor
MultiHeadAttention::backward(const Tensor &dy, const Tape &tape,
                             const Grads &grads) const
{
    LRD_TRACE_SPAN("attn.backward");
    const int64_t t = dy.dim(0);
    require(tape.probs.rank() == 3 && tape.probs.dim(1) == t,
            "MultiHeadAttention::backward: tape does not match this "
            "gradient");
    Tensor dCtx = wso_->backward(dy, tape.wso, grads);

    const float invSqrt = 1.0F / std::sqrt(static_cast<float>(headDim_));
    Tensor dq({t, dModel_});
    Tensor dk({t, kvDim_});
    Tensor dv({t, kvDim_});

    // Heads within a KV group accumulate into the same dk/dv columns,
    // so the group (not the head) is the parallel unit; heads inside a
    // group run in ascending order, matching the serial accumulation.
    const int64_t group = nHeads_ / kvHeads_;
    parallelFor(0, kvHeads_, 1, [&](int64_t kv0, int64_t kv1) {
    headsProcessedCounter()->add((kv1 - kv0) * group);
    std::vector<float> dprow(static_cast<size_t>(t));
    for (int64_t h = kv0 * group; h < kv1 * group; ++h) {
        const int64_t kvh = h / group;
        const float *probs = tape.probs.data() + h * t * t;
        for (int64_t i = 0; i < t; ++i) {
            const float *prow = probs + i * t;
            const float *dcrow = dCtx.data() + i * dModel_ + h * headDim_;
            const int64_t limit = causal_ ? i + 1 : t;
            // dP = dCtx V^T ; dV += P^T dCtx.
            for (int64_t j = 0; j < limit; ++j) {
                const float *vrow =
                    tape.v.data() + j * kvDim_ + kvh * headDim_;
                float *dvrow = dv.data() + j * kvDim_ + kvh * headDim_;
                float acc = 0.0F;
                const float p = prow[j];
                for (int64_t d = 0; d < headDim_; ++d) {
                    acc += dcrow[d] * vrow[d];
                    dvrow[d] += p * dcrow[d];
                }
                dprow[static_cast<size_t>(j)] = acc;
            }
            // Softmax backward: dS_j = P_j (dP_j - sum_k P_k dP_k).
            float inner = 0.0F;
            for (int64_t j = 0; j < limit; ++j)
                inner += prow[j] * dprow[static_cast<size_t>(j)];
            const float *qrow = tape.q.data() + i * dModel_ + h * headDim_;
            float *dqrow = dq.data() + i * dModel_ + h * headDim_;
            for (int64_t j = 0; j < limit; ++j) {
                const float ds =
                    prow[j] * (dprow[static_cast<size_t>(j)] - inner)
                    * invSqrt;
                const float *krow =
                    tape.k.data() + j * kvDim_ + kvh * headDim_;
                float *dkrow = dk.data() + j * kvDim_ + kvh * headDim_;
                for (int64_t d = 0; d < headDim_; ++d) {
                    dqrow[d] += ds * krow[d];
                    dkrow[d] += ds * qrow[d];
                }
            }
        }
    }
    });

    // Invert RoPE on the gradients (rotation is orthogonal).
    applyRope(dq, 0, true, nHeads_);
    applyRope(dk, 0, true, kvHeads_);

    Tensor dx = wq_->backward(dq, tape.wq, grads);
    axpy(dx, 1.0F, wk_->backward(dk, tape.wk, grads));
    axpy(dx, 1.0F, wv_->backward(dv, tape.wv, grads));
    return dx;
}

Tensor
MultiHeadAttention::forwardCached(const Tensor &x, KvCache &cache) const
{
    LRD_TRACE_SPAN("attn.cached");
    require(x.rank() == 2 && x.dim(1) == dModel_,
            "MultiHeadAttention::forwardCached: bad input");
    const int64_t n = x.dim(0);
    const int64_t start = cache.len;
    require(start + n <= cache.k.dim(0),
            strCat("MultiHeadAttention::forwardCached: cache overflow (",
                   start + n, " > ", cache.k.dim(0), ")"));

    Tensor q = wq_->forward(x);
    Tensor k = wk_->forward(x);
    Tensor v = wv_->forward(x);
    applyRope(q, start, false, nHeads_);
    applyRope(k, start, false, kvHeads_);

    // Append to the cache (rows are kvDim wide under GQA).
    for (int64_t i = 0; i < n; ++i) {
        float *kdst = cache.k.data() + (start + i) * kvDim_;
        float *vdst = cache.v.data() + (start + i) * kvDim_;
        const float *ksrc = k.data() + i * kvDim_;
        const float *vsrc = v.data() + i * kvDim_;
        for (int64_t j = 0; j < kvDim_; ++j) {
            kdst[j] = ksrc[j];
            vdst[j] = vsrc[j];
        }
    }
    cache.len = start + n;

    const float invSqrt = 1.0F / std::sqrt(static_cast<float>(headDim_));
    Tensor ctx({n, dModel_});
    const int64_t group = nHeads_ / kvHeads_;
    const auto attendHeads = [&](int64_t h0, int64_t h1) {
    headsProcessedCounter()->add(h1 - h0);
    std::vector<float> scores(static_cast<size_t>(cache.len));
    for (int64_t h = h0; h < h1; ++h) {
        const int64_t kvh = h / group;
        for (int64_t i = 0; i < n; ++i) {
            const int64_t absPos = start + i;
            const int64_t limit = causal_ ? absPos + 1 : cache.len;
            const float *qrow = q.data() + i * dModel_ + h * headDim_;
            float mx = -std::numeric_limits<float>::infinity();
            for (int64_t j = 0; j < limit; ++j) {
                const float *krow =
                    cache.k.data() + j * kvDim_ + kvh * headDim_;
                float s = 0.0F;
                for (int64_t d = 0; d < headDim_; ++d)
                    s += qrow[d] * krow[d];
                s *= invSqrt;
                scores[static_cast<size_t>(j)] = s;
                mx = std::max(mx, s);
            }
            float sum = 0.0F;
            for (int64_t j = 0; j < limit; ++j) {
                scores[static_cast<size_t>(j)] =
                    std::exp(scores[static_cast<size_t>(j)] - mx);
                sum += scores[static_cast<size_t>(j)];
            }
            const float inv = 1.0F / sum;
            float *crow = ctx.data() + i * dModel_ + h * headDim_;
            for (int64_t j = 0; j < limit; ++j) {
                const float p = scores[static_cast<size_t>(j)] * inv;
                const float *vrow =
                    cache.v.data() + j * kvDim_ + kvh * headDim_;
                for (int64_t d = 0; d < headDim_; ++d)
                    crow[d] += p * vrow[d];
            }
        }
    }
    };
    // QK^T and PV MACs; a one-token step is far below the fan-out
    // threshold, so decode never pays for a pool dispatch here.
    if (2 * nHeads_ * n * cache.len * headDim_ < kInlineMaxMacs)
        attendHeads(0, nHeads_);
    else
        parallelFor(0, nHeads_, 1, attendHeads);
    return wso_->forward(ctx);
}

Linear &
MultiHeadAttention::linear(WeightKind kind)
{
    switch (kind) {
      case WeightKind::Query: return *wq_;
      case WeightKind::Key: return *wk_;
      case WeightKind::Value: return *wv_;
      case WeightKind::SelfOutput: return *wso_;
      default:
        panic("MultiHeadAttention::linear: not an attention tensor");
    }
}

std::vector<Parameter *>
MultiHeadAttention::parameters()
{
    std::vector<Parameter *> ps;
    for (Linear *l : {wq_.get(), wk_.get(), wv_.get(), wso_.get()})
        for (Parameter *p : l->parameters())
            ps.push_back(p);
    return ps;
}

int64_t
MultiHeadAttention::paramCount() const
{
    return wq_->paramCount() + wk_->paramCount() + wv_->paramCount()
           + wso_->paramCount();
}

} // namespace lrd
