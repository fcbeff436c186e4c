#include "linear.h"

#include <cmath>

#include "decomp/tucker.h"
#include "obs/metrics.h"
#include "robust/recovery.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace lrd {

namespace {

/**
 * Resolve a failed decomposition per the recovery policy: fatal under
 * strict, otherwise a degraded-but-usable dense layer. There is no
 * retry: the decomposition is deterministic, so a real failure
 * repeats exactly on identical input.
 */
Tucker2d
decomposeWithPolicy(Tucker2d d, const std::string &name)
{
    if (d.status.ok())
        return d;
    if (robustPolicy().mode == RobustMode::Strict)
        fatal("Linear::factorize(" + name + "): " + d.status.toString());
    static Counter *degraded = MetricsRegistry::instance().counter(
        "robust.degradedFactorizations");
    degraded->inc();
    warn("Linear::factorize(" + name + "): keeping dense weight; "
         + d.status.toString());
    return d;
}

} // namespace

Linear::Linear(int64_t outDim, int64_t inDim, bool hasBias,
               const std::string &name, Rng &rng)
    : outDim_(outDim), inDim_(inDim), hasBias_(hasBias), name_(name)
{
    require(outDim > 0 && inDim > 0, "Linear: dims must be positive");
    const float stddev = 1.0F / std::sqrt(static_cast<float>(inDim));
    w_ = Parameter(name + ".w",
                   Tensor::randn({outDim, inDim}, rng, stddev));
    if (hasBias_)
        b_ = Parameter(name + ".b", Tensor({outDim}));
}

Tensor
Linear::forward(const Tensor &x, Tape *tape) const
{
    require(x.rank() == 2 && x.dim(1) == inDim_,
            strCat("Linear::forward: input ", shapeToString(x.shape()),
                   " incompatible with in dim ", inDim_));
    if (MetricsRegistry::enabled()) {
        Counter *macs = macsCounter_.load(std::memory_order_acquire);
        if (!macs) {
            // The registry hands every caller the same handle.
            macs = MetricsRegistry::instance().counter(
                strCat("model.", name_, ".macs"));
            macsCounter_.store(macs, std::memory_order_release);
        }
        const int64_t n = x.dim(0);
        macs->add(!factorized_
                      ? n * outDim_ * inDim_
                      : n * prunedRank_ * inDim_
                            + n * prunedRank_ * prunedRank_
                            + n * outDim_ * prunedRank_);
    }
    Tensor y;
    if (!factorized_) {
        y = matmulTransB(x, w_.value);
    } else {
        Tensor t1 = matmulTransB(x, u2_.value);    // (n, pr)
        Tensor t2 = matmulTransB(t1, core_.value); // (n, pr)
        y = matmulTransB(t2, u1_.value);           // (n, out)
        if (tape != nullptr) {
            tape->t1 = std::move(t1);
            tape->t2 = std::move(t2);
        }
    }
    if (tape != nullptr)
        tape->x = x;
    if (hasBias_) {
        const int64_t n = y.dim(0);
        for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < outDim_; ++j)
                y(i, j) += b_.value[j];
    }
    return y;
}

Tensor
Linear::backward(const Tensor &dy, const Tape &tape,
                 const Grads &grads) const
{
    require(dy.rank() == 2 && dy.dim(1) == outDim_,
            strCat("Linear::backward: grad ", shapeToString(dy.shape()),
                   " incompatible with out dim ", outDim_));
    const Tensor &x = tape.x;
    require(x.rank() == 2 && dy.dim(0) == x.dim(0),
            "Linear::backward: tape does not match this gradient");

    if (hasBias_) {
        float *gb = grads[b_];
        const int64_t n = dy.dim(0);
        for (int64_t i = 0; i < n; ++i)
            for (int64_t j = 0; j < outDim_; ++j)
                gb[j] += dy(i, j);
    }

    if (!factorized_) {
        // dW += dy^T x ; dx = dy W.
        gemmTransA(dy.data(), x.data(), grads[w_], dy.dim(0), outDim_,
                   inDim_, /*accumulate=*/true);
        return matmul(dy, w_.value);
    }

    // y = ((x U2^T) core^T) U1^T.
    Tensor dT2 = matmul(dy, u1_.value); // (n, pr)
    gemmTransA(dy.data(), tape.t2.data(), grads[u1_], dy.dim(0), outDim_,
               prunedRank_, true);
    Tensor dT1 = matmul(dT2, core_.value); // (n, pr)
    gemmTransA(dT2.data(), tape.t1.data(), grads[core_], dT2.dim(0),
               prunedRank_, prunedRank_, true);
    gemmTransA(dT1.data(), x.data(), grads[u2_], dT1.dim(0), prunedRank_,
               inDim_, true);
    return matmul(dT1, u2_.value);
}

Status
Linear::factorize(int64_t prunedRank)
{
    require(!factorized_, "Linear::factorize: already factorized");
    return installFactors(tucker2dDecompose(w_.value, prunedRank));
}

Status
Linear::factorizeActivationAware(int64_t prunedRank,
                                 const std::vector<float> &colScale)
{
    require(!factorized_,
            "Linear::factorizeActivationAware: already factorized");
    require(static_cast<int64_t>(colScale.size()) == inDim_,
            strCat("Linear::factorizeActivationAware: ", colScale.size(),
                   " scales for in dim ", inDim_));
    for (float s : colScale)
        require(s > 0.0F && std::isfinite(s),
                "Linear::factorizeActivationAware: scales must be "
                "positive and finite");
    // Decompose W * diag(s); unscale U2 afterwards.
    Tensor scaled = w_.value;
    for (int64_t r = 0; r < outDim_; ++r) {
        float *row = scaled.data() + r * inDim_;
        for (int64_t c = 0; c < inDim_; ++c)
            row[c] *= colScale[static_cast<size_t>(c)];
    }
    Tucker2d d = tucker2dDecompose(scaled, prunedRank);
    if (d.status.ok()) {
        for (int64_t r = 0; r < prunedRank; ++r) {
            float *row = d.u2.data() + r * inDim_;
            for (int64_t c = 0; c < inDim_; ++c)
                row[c] /= colScale[static_cast<size_t>(c)];
        }
    }
    return installFactors(std::move(d));
}

Status
Linear::installFactors(Tucker2d d)
{
    require(!factorized_, "Linear::installFactors: already factorized");
    const int64_t pr = d.u1.rank() == 2 ? d.u1.dim(1) : 0;
    const Shape coreShape{pr, pr}, u2Shape{pr, inDim_};
    require(pr >= 1 && d.u1.dim(0) == outDim_ && d.core.shape() == coreShape
                && d.u2.shape() == u2Shape,
            strCat("Linear::installFactors: factors do not fit (", outDim_,
                   ", ", inDim_, ")"));
    d = decomposeWithPolicy(std::move(d), w_.name);
    if (!d.status.ok())
        return d.status;
    prunedRank_ = pr;
    const std::string base = w_.name;
    u1_ = Parameter(base + ".u1", std::move(d.u1));
    core_ = Parameter(base + ".core", std::move(d.core));
    u2_ = Parameter(base + ".u2", std::move(d.u2));
    w_ = Parameter(base, Tensor({0}));
    factorized_ = true;
    return Status();
}

void
Linear::installFactorShape(int64_t prunedRank)
{
    require(!factorized_, "Linear::installFactorShape: already factorized");
    require(prunedRank >= 1 && prunedRank <= std::min(outDim_, inDim_),
            strCat("Linear::installFactorShape: rank ", prunedRank,
                   " invalid for (", outDim_, ", ", inDim_, ")"));
    prunedRank_ = prunedRank;
    const std::string base = w_.name;
    u1_ = Parameter(base + ".u1", Tensor({outDim_, prunedRank}));
    core_ = Parameter(base + ".core", Tensor({prunedRank, prunedRank}));
    u2_ = Parameter(base + ".u2", Tensor({prunedRank, inDim_}));
    w_ = Parameter(base, Tensor({0}));
    factorized_ = true;
}

void
Linear::densify()
{
    require(factorized_, "Linear::densify: not factorized");
    Tucker2d d;
    d.u1 = u1_.value;
    d.core = core_.value;
    d.u2 = u2_.value;
    const std::string base = u1_.name.substr(0, u1_.name.size() - 3);
    w_ = Parameter(base, d.reconstruct());
    u1_ = Parameter();
    core_ = Parameter();
    u2_ = Parameter();
    factorized_ = false;
    prunedRank_ = 0;
}

int64_t
Linear::paramCount() const
{
    int64_t n = hasBias_ ? outDim_ : 0;
    if (factorized_)
        n += u1_.size() + core_.size() + u2_.size();
    else
        n += w_.size();
    return n;
}

std::vector<Parameter *>
Linear::parameters()
{
    std::vector<Parameter *> ps;
    if (factorized_) {
        ps.push_back(&u1_);
        ps.push_back(&core_);
        ps.push_back(&u2_);
    } else {
        ps.push_back(&w_);
    }
    if (hasBias_)
        ps.push_back(&b_);
    return ps;
}

Parameter &
Linear::weight()
{
    require(!factorized_, "Linear::weight: layer is factorized");
    return w_;
}

const Parameter &
Linear::weight() const
{
    require(!factorized_, "Linear::weight: layer is factorized");
    return w_;
}

Tensor
Linear::effectiveWeight() const
{
    if (!factorized_)
        return w_.value;
    return matmul(matmul(u1_.value, core_.value), u2_.value);
}

} // namespace lrd
