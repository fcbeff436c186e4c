#include "tucker.h"

#include <algorithm>
#include <cmath>

#include "linalg/linalg.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/recovery.h"
#include "robust/retry.h"
#include "tensor/ops.h"
#include "tensor/unfold.h"
#include "util/logging.h"

namespace lrd {

namespace {

void
checkRanks(const Tensor &t, const std::vector<int64_t> &ranks)
{
    require(static_cast<int64_t>(ranks.size()) == t.rank(),
            strCat("tucker: ", ranks.size(), " ranks given for order-",
                   t.rank(), " tensor"));
    for (size_t i = 0; i < ranks.size(); ++i)
        require(ranks[i] >= 1 && ranks[i] <= t.dim(static_cast<int64_t>(i)),
                strCat("tucker: rank ", ranks[i], " invalid for mode ", i,
                       " extent ", t.dim(static_cast<int64_t>(i))));
}

/** Contract t with the transposes of all factors except `skip`. */
Tensor
projectAllBut(const Tensor &t, const std::vector<Tensor> &factors,
              int64_t skip)
{
    Tensor p = t;
    for (int64_t m = 0; m < t.rank(); ++m) {
        if (m == skip)
            continue;
        // U_m is (n_m x r_m); U_m^T is (r_m x n_m) and shrinks mode m.
        p = modeProduct(p, transpose2d(factors[static_cast<size_t>(m)]), m);
    }
    return p;
}

} // namespace

Tensor
TuckerResult::reconstruct() const
{
    Tensor t = core;
    for (int64_t m = 0; m < static_cast<int64_t>(factors.size()); ++m)
        t = modeProduct(t, factors[static_cast<size_t>(m)], m);
    return t;
}

int64_t
TuckerResult::paramCount() const
{
    int64_t n = core.size();
    for (const auto &f : factors)
        n += f.size();
    return n;
}

TuckerResult
hosvd(const Tensor &t, const std::vector<int64_t> &ranks)
{
    checkRanks(t, ranks);
    TuckerResult out;
    out.factors.reserve(ranks.size());
    for (int64_t m = 0; m < t.rank(); ++m)
        out.factors.push_back(leftSingularVectors(
            unfold(t, m), ranks[static_cast<size_t>(m)], &out.status));
    // Core = T x_0 U0^T x_1 U1^T ...
    out.core = projectAllBut(t, out.factors, /*skip=*/-1);
    return out;
}

namespace {

/** One full HOI run; the retry policy wraps this. */
TuckerResult
hooiOnce(const Tensor &t, const std::vector<int64_t> &ranks,
         const HoiOptions &opts)
{
    TuckerResult cur;
    if (opts.hosvdInit) {
        cur = hosvd(t, ranks);
    } else {
        Rng rng(opts.seed);
        cur.factors.reserve(ranks.size());
        for (int64_t m = 0; m < t.rank(); ++m)
            cur.factors.push_back(randomOrthonormal(
                t.dim(m), ranks[static_cast<size_t>(m)], rng));
        cur.core = projectAllBut(t, cur.factors, -1);
    }

    const double normT = t.norm();
    double prevFit = -1.0;
    for (int iter = 0; iter < opts.maxIters; ++iter) {
        // One alternating sweep: refresh each factor from the
        // projection that holds all *other* factors fixed
        // (lines 3-8 of Algorithm 1).
        for (int64_t m = 0; m < t.rank(); ++m) {
            Tensor p = projectAllBut(t, cur.factors, m);
            cur.factors[static_cast<size_t>(m)] = leftSingularVectors(
                unfold(p, m), ranks[static_cast<size_t>(m)], &cur.status);
        }
        cur.core = projectAllBut(t, cur.factors, -1);

        // Fit = 1 - ||T - reconstruction|| / ||T||. With orthonormal
        // factors, ||residual||^2 = ||T||^2 - ||core||^2.
        const double normCore = cur.core.norm();
        const double resid2 =
            std::max(0.0, normT * normT - normCore * normCore);
        const double fit =
            normT > 0.0 ? 1.0 - std::sqrt(resid2) / normT : 1.0;
        if (prevFit >= 0.0 && std::abs(fit - prevFit) < opts.tol)
            break;
        prevFit = fit;
    }
    return cur;
}

} // namespace

TuckerResult
hooi(const Tensor &t, const std::vector<int64_t> &ranks,
     const HoiOptions &opts)
{
    checkRanks(t, ranks);
    require(opts.maxIters >= 1, "hooi: maxIters must be >= 1");

    TuckerResult cur = hooiOnce(t, ranks, opts);
    const RobustPolicy policy = robustPolicy();
    if (cur.status.ok() || policy.mode != RobustMode::Retry)
        return cur;

    // Attempt 0 replays the failure already in hand; later attempts
    // re-run HOI from a reseeded random initialization so the retry
    // sequence depends only on (opts.seed, attempt index).
    // The outcome is folded into cur.status by the lambda; the
    // returned copy carries no extra information.
    (void)retryWithReseed(opts.seed, policy.maxRetries + 1,
                    [&](Rng &rng, int attempt) -> Status {
                        if (attempt == 0)
                            return cur.status;
                        HoiOptions ropts = opts;
                        ropts.hosvdInit = false;
                        ropts.seed = rng.next();
                        TuckerResult again = hooiOnce(t, ranks, ropts);
                        if (again.status.ok())
                            cur = std::move(again);
                        return cur.status;
                    });
    return cur;
}

Tensor
Tucker2d::reconstruct() const
{
    return matmul(matmul(u1, core), u2);
}

int64_t
Tucker2d::paramCount() const
{
    return u1.size() + core.size() + u2.size();
}

Tucker2d
Tucker2d::leading(int64_t k) const
{
    const int64_t h = u1.dim(0), r = u1.dim(1), wd = u2.dim(1);
    require(k >= 1 && k <= r,
            strCat("Tucker2d::leading: rank ", k, " invalid for rank ", r));
    Tucker2d out;
    out.status = status;
    out.u1 = Tensor({h, k});
    for (int64_t i = 0; i < h; ++i)
        for (int64_t j = 0; j < k; ++j)
            out.u1(i, j) = u1(i, j);
    out.core = Tensor({k, k});
    for (int64_t i = 0; i < k; ++i)
        for (int64_t j = 0; j < k; ++j)
            out.core(i, j) = core(i, j);
    // u2 is row-major (r x W): its first k rows are one prefix.
    out.u2 = Tensor({k, wd});
    std::copy(u2.data(), u2.data() + k * wd, out.u2.data());
    return out;
}

Tucker2d
tucker2dDecompose(const Tensor &w, int64_t prunedRank)
{
    LRD_TRACE_SPAN("tucker2d");
    static Counter *calls =
        MetricsRegistry::instance().counter("tucker2d.calls");
    calls->inc();
    require(w.rank() == 2, "tucker2dDecompose: weight must be a matrix");
    const int64_t h = w.dim(0), wd = w.dim(1);
    require(prunedRank >= 1 && prunedRank <= std::min(h, wd),
            strCat("tucker2dDecompose: pruned rank ", prunedRank,
                   " invalid for ", shapeToString(w.shape())));
    SvdResult s = truncatedSvd(w, prunedRank);
    Tucker2d out;
    out.status = std::move(s.status);
    out.u1 = std::move(s.u);
    out.core = Tensor({prunedRank, prunedRank});
    for (int64_t i = 0; i < prunedRank; ++i)
        out.core(i, i) = static_cast<float>(s.s[static_cast<size_t>(i)]);
    out.u2 = transpose2d(s.v);
    return out;
}

int64_t
denseParams(int64_t h, int64_t w)
{
    return h * w;
}

int64_t
decomposedParams(int64_t h, int64_t w, int64_t pr)
{
    return h * pr + pr * pr + pr * w;
}

double
compressionRatio(int64_t h, int64_t w, int64_t pr)
{
    return static_cast<double>(denseParams(h, w))
           / static_cast<double>(decomposedParams(h, w, pr));
}

int64_t
breakEvenRank(int64_t h, int64_t w)
{
    const double hw = static_cast<double>(h) + static_cast<double>(w);
    const double disc =
        std::sqrt(hw * hw +
                  4.0 * static_cast<double>(h) * static_cast<double>(w));
    const double bound = (disc - hw) / 2.0;
    // Strictly-less-than bound: the largest integer rank that still
    // reduces parameters.
    auto pr = static_cast<int64_t>(std::ceil(bound) - 1);
    return std::max<int64_t>(pr, 0);
}

} // namespace lrd
