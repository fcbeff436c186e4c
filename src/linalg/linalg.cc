#include "linalg.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/cancel.h"
#include "robust/fault.h"
#include "robust/signal.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace lrd {

QrResult
qrDecompose(const Tensor &a)
{
    require(a.rank() == 2, "qrDecompose: input must be a matrix");
    const int64_t m = a.dim(0), n = a.dim(1);
    const int64_t k = std::min(m, n);

    // Work in double for stability; R accumulates in-place.
    std::vector<double> r(static_cast<size_t>(m * n));
    for (int64_t i = 0; i < m * n; ++i)
        r[static_cast<size_t>(i)] = a[i];

    // Householder vectors stored per reflection.
    std::vector<std::vector<double>> vs;
    vs.reserve(static_cast<size_t>(k));

    for (int64_t j = 0; j < k; ++j) {
        // Build reflector for column j, rows j..m-1.
        double normx = 0.0;
        for (int64_t i = j; i < m; ++i) {
            const double x = r[static_cast<size_t>(i * n + j)];
            normx += x * x;
        }
        normx = std::sqrt(normx);
        std::vector<double> v(static_cast<size_t>(m - j), 0.0);
        const double x0 = r[static_cast<size_t>(j * n + j)];
        if (normx == 0.0) {
            // Degenerate column: identity reflector.
            vs.push_back(std::move(v));
            continue;
        }
        const double alpha = x0 >= 0.0 ? -normx : normx;
        v[0] = x0 - alpha;
        for (int64_t i = j + 1; i < m; ++i)
            v[static_cast<size_t>(i - j)] = r[static_cast<size_t>(i * n + j)];
        double vnorm2 = 0.0;
        for (double x : v)
            vnorm2 += x * x;
        if (vnorm2 == 0.0) {
            vs.push_back(std::move(v));
            continue;
        }
        // Apply H = I - 2 v v^T / (v^T v) to trailing columns.
        for (int64_t c = j; c < n; ++c) {
            double proj = 0.0;
            for (int64_t i = j; i < m; ++i)
                proj += v[static_cast<size_t>(i - j)]
                        * r[static_cast<size_t>(i * n + c)];
            const double f = 2.0 * proj / vnorm2;
            for (int64_t i = j; i < m; ++i)
                r[static_cast<size_t>(i * n + c)]
                    -= f * v[static_cast<size_t>(i - j)];
        }
        vs.push_back(std::move(v));
    }

    // Q = H_0 H_1 ... H_{k-1} applied to the thin identity.
    std::vector<double> q(static_cast<size_t>(m * k), 0.0);
    for (int64_t i = 0; i < k; ++i)
        q[static_cast<size_t>(i * k + i)] = 1.0;
    for (int64_t j = k - 1; j >= 0; --j) {
        const auto &v = vs[static_cast<size_t>(j)];
        double vnorm2 = 0.0;
        for (double x : v)
            vnorm2 += x * x;
        if (vnorm2 == 0.0)
            continue;
        for (int64_t c = 0; c < k; ++c) {
            double proj = 0.0;
            for (int64_t i = j; i < m; ++i)
                proj += v[static_cast<size_t>(i - j)]
                        * q[static_cast<size_t>(i * k + c)];
            const double f = 2.0 * proj / vnorm2;
            for (int64_t i = j; i < m; ++i)
                q[static_cast<size_t>(i * k + c)]
                    -= f * v[static_cast<size_t>(i - j)];
        }
    }

    QrResult out{Tensor({m, k}), Tensor({k, n})};
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < k; ++j)
            out.q(i, j) = static_cast<float>(q[static_cast<size_t>(i * k + j)]);
    for (int64_t i = 0; i < k; ++i)
        for (int64_t j = 0; j < n; ++j)
            out.r(i, j) =
                j >= i ? static_cast<float>(r[static_cast<size_t>(i * n + j)])
                       : 0.0F;
    return out;
}

EigenResult
symmetricEigen(const Tensor &s, int maxSweeps)
{
    require(s.rank() == 2 && s.dim(0) == s.dim(1),
            "symmetricEigen: input must be square");
    const int64_t n = s.dim(0);

    // Copy into double, enforcing symmetry.
    std::vector<double> a(static_cast<size_t>(n * n));
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < n; ++j)
            a[static_cast<size_t>(i * n + j)] =
                0.5 * (static_cast<double>(s(i, j)) + s(j, i));

    // Eigenvectors are stored transposed: row p of vt is eigenvector
    // p, so a rotation of vectors p and q walks two contiguous rows.
    std::vector<double> vt(static_cast<size_t>(n * n), 0.0);
    for (int64_t i = 0; i < n; ++i)
        vt[static_cast<size_t>(i * n + i)] = 1.0;

    auto off = [&]() {
        double sum = 0.0;
        for (int64_t i = 0; i < n; ++i)
            for (int64_t j = i + 1; j < n; ++j)
                sum += a[static_cast<size_t>(i * n + j)]
                       * a[static_cast<size_t>(i * n + j)];
        return sum;
    };

    double normA = 0.0;
    for (double x : a)
        normA += x * x;
    const double tol = 1e-24 * (normA > 0.0 ? normA : 1.0);

    // A NaN never compares above the tolerance, so a non-finite input
    // would "converge" at once into garbage factors: refuse it before
    // sweeping. Squares of float-range entries cannot overflow a
    // double, so the norm is finite exactly when every entry is.
    const bool finite = std::isfinite(normA);
    if (!finite)
        maxSweeps = 0;

    struct JacobiMetrics
    {
        Counter *sweeps;
        Counter *nonconverged;
        Histogram *sweepsPerCall;
    };
    static JacobiMetrics jm = [] {
        MetricsRegistry &reg = MetricsRegistry::instance();
        return JacobiMetrics{reg.counter("jacobi.sweeps"),
                             reg.counter("jacobi.nonconverged"),
                             reg.histogram("jacobi.sweepsPerCall")};
    }();

    // Injected non-convergence: run zero sweeps so the loop exits with
    // the off-diagonal norm untouched and the status path below fires.
    const bool forceNonConverge = faultAt("jacobi", FaultKind::NonConverge);
    if (forceNonConverge)
        maxSweeps = 0;
    pollCancelFault("jacobi");

    // Evaluate the off-diagonal norm once up front and once after each
    // sweep: the same sequence of off() evaluations as the plain
    // `off() > tol` loop condition, so results stay bitwise identical,
    // but the current norm is available as a trace-span payload.
    int sweepsDone = 0;
    bool cancelled = false;
    double offNow = off();
    for (int sweep = 0; sweep < maxSweeps && offNow > tol; ++sweep) {
        // Sweep boundaries are the eigensolver's cancellation points:
        // a partially rotated matrix only ever escapes with a
        // Cancelled status telling the caller to discard it.
        if (cancelRequested()) {
            cancelled = true;
            break;
        }
        LRD_TRACE_SPAN("jacobi.sweep", offNow);
        for (int64_t p = 0; p < n - 1; ++p) {
            for (int64_t q = p + 1; q < n; ++q) {
                const double apq = a[static_cast<size_t>(p * n + q)];
                if (std::abs(apq) < 1e-300)
                    continue;
                const double app = a[static_cast<size_t>(p * n + p)];
                const double aqq = a[static_cast<size_t>(q * n + q)];
                const double theta = (aqq - app) / (2.0 * apq);
                const double t = (theta >= 0.0 ? 1.0 : -1.0)
                                 / (std::abs(theta)
                                    + std::sqrt(theta * theta + 1.0));
                const double c = 1.0 / std::sqrt(t * t + 1.0);
                const double sn = t * c;
                // Rotate cols, then rows, p and q of A, then
                // eigenvectors p and q. One Jacobi runs serially:
                // callers get parallelism by factoring several
                // weights at once.
                double *ap = a.data() + p * n;
                double *aq = a.data() + q * n;
                for (int64_t i = 0; i < n; ++i) {
                    double *ai = a.data() + i * n;
                    const double aip = ai[p];
                    const double aiq = ai[q];
                    ai[p] = c * aip - sn * aiq;
                    ai[q] = sn * aip + c * aiq;
                }
                for (int64_t j = 0; j < n; ++j) {
                    const double apj = ap[j];
                    const double aqj = aq[j];
                    ap[j] = c * apj - sn * aqj;
                    aq[j] = sn * apj + c * aqj;
                }
                double *vp = vt.data() + p * n;
                double *vq = vt.data() + q * n;
                for (int64_t i = 0; i < n; ++i) {
                    const double vip = vp[i];
                    const double viq = vq[i];
                    vp[i] = c * vip - sn * viq;
                    vq[i] = sn * vip + c * viq;
                }
            }
        }
        ++sweepsDone;
        jm.sweeps->inc();
        noteProgress("jacobi.sweep");
        offNow = off();
    }
    jm.sweepsPerCall->record(sweepsDone);

    Status convergence;
    if (!finite) {
        convergence = Status(StatusCode::NonFinite, "jacobi",
                             "input holds a NaN or Inf entry");
    } else if (cancelled) {
        convergence = cancelStatus("jacobi");
    } else if (forceNonConverge || offNow > tol) {
        jm.nonconverged->inc();
        convergence = Status(
            StatusCode::NonConvergence, "jacobi",
            strCat("off-diagonal norm ", offNow, " above tolerance ", tol,
                   " after ", sweepsDone, " sweeps"));
    }

    // Sort descending by eigenvalue. NaNs admit no ordering, so a
    // non-finite input keeps its index order.
    std::vector<int64_t> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    if (finite)
        std::sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
            return a[static_cast<size_t>(x * n + x)]
                   > a[static_cast<size_t>(y * n + y)];
        });

    EigenResult out;
    out.status = std::move(convergence);
    out.sweeps = sweepsDone;
    out.values.resize(static_cast<size_t>(n));
    out.vectors = Tensor({n, n});
    for (int64_t j = 0; j < n; ++j) {
        const int64_t src = order[static_cast<size_t>(j)];
        out.values[static_cast<size_t>(j)] =
            a[static_cast<size_t>(src * n + src)];
        const double *vsrc = vt.data() + src * n;
        for (int64_t i = 0; i < n; ++i)
            out.vectors(i, j) = static_cast<float>(vsrc[i]);
    }
    return out;
}

Tensor
SvdResult::reconstruct() const
{
    // U diag(s) V^T computed as (U * diag(s)) * V^T.
    Tensor us = u;
    const int64_t m = u.dim(0), k = u.dim(1);
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < k; ++j)
            us(i, j) *= static_cast<float>(s[static_cast<size_t>(j)]);
    return matmulTransB(us, v);
}

namespace {

/**
 * SVD core for matrices where m <= n: eigendecompose A A^T (m x m),
 * then V = A^T U / sigma. Columns with (near-)zero singular values get
 * zero right vectors; they carry no energy in the reconstruction.
 */
SvdResult
svdShortFat(const Tensor &a)
{
    const int64_t m = a.dim(0), n = a.dim(1);
    Tensor gram = matmulTransB(a, a); // (m x m)
    EigenResult eig = symmetricEigen(gram);

    SvdResult out;
    out.status = eig.status;
    out.u = eig.vectors; // (m x m)
    out.s.resize(static_cast<size_t>(m));
    for (int64_t i = 0; i < m; ++i)
        out.s[static_cast<size_t>(i)] =
            std::sqrt(std::max(0.0, eig.values[static_cast<size_t>(i)]));

    // V = A^T U scaled by 1/sigma.
    Tensor v = matmulTransA(a, out.u); // (n x m)
    const double eps = 1e-12 * (out.s.empty() ? 1.0 : out.s[0] + 1.0);
    for (int64_t j = 0; j < m; ++j) {
        const double sj = out.s[static_cast<size_t>(j)];
        const float inv = sj > eps ? static_cast<float>(1.0 / sj) : 0.0F;
        for (int64_t i = 0; i < n; ++i)
            v(i, j) *= inv;
    }
    out.v = std::move(v);
    return out;
}

} // namespace

SvdResult
svd(const Tensor &a)
{
    LRD_TRACE_SPAN("svd");
    static Counter *calls =
        MetricsRegistry::instance().counter("svd.calls");
    calls->inc();
    require(a.rank() == 2, "svd: input must be a matrix");
    const int64_t m = a.dim(0), n = a.dim(1);
    require(m > 0 && n > 0, "svd: empty matrix");
    if (m <= n)
        return svdShortFat(a);
    // Tall: factor the transpose and swap U <-> V.
    SvdResult t = svdShortFat(transpose2d(a));
    SvdResult out;
    out.status = std::move(t.status);
    out.u = std::move(t.v);
    out.v = std::move(t.u);
    out.s = std::move(t.s);
    return out;
}

SvdResult
truncatedSvd(const Tensor &a, int64_t k)
{
    require(a.rank() == 2, "truncatedSvd: input must be a matrix");
    const int64_t m = a.dim(0), n = a.dim(1);
    require(k >= 1 && k <= std::min(m, n),
            strCat("truncatedSvd: rank ", k, " invalid for ",
                   shapeToString(a.shape())));
    SvdResult full = svd(a);
    SvdResult out;
    out.status = std::move(full.status);
    out.u = Tensor({m, k});
    out.v = Tensor({n, k});
    out.s.assign(full.s.begin(), full.s.begin() + k);
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < k; ++j)
            out.u(i, j) = full.u(i, j);
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < k; ++j)
            out.v(i, j) = full.v(i, j);
    return out;
}

Tensor
leftSingularVectors(const Tensor &a, int64_t k, Status *convergence)
{
    require(a.rank() == 2, "leftSingularVectors: input must be a matrix");
    require(k >= 1 && k <= a.dim(0),
            strCat("leftSingularVectors: rank ", k, " invalid for ",
                   shapeToString(a.shape())));
    // Always via the (m x m) Gram matrix: we only need U.
    Tensor gram = matmulTransB(a, a);
    EigenResult eig = symmetricEigen(gram);
    if (convergence != nullptr && convergence->ok() && !eig.status.ok())
        *convergence = eig.status;
    Tensor u({a.dim(0), k});
    for (int64_t i = 0; i < a.dim(0); ++i)
        for (int64_t j = 0; j < k; ++j)
            u(i, j) = eig.vectors(i, j);
    return u;
}

SvdResult
randomizedSvd(const Tensor &a, int64_t k, Rng &rng, int64_t oversample,
              int powerIters)
{
    require(a.rank() == 2, "randomizedSvd: input must be a matrix");
    const int64_t m = a.dim(0), n = a.dim(1);
    require(k >= 1 && k <= std::min(m, n),
            strCat("randomizedSvd: rank ", k, " invalid for ",
                   shapeToString(a.shape())));
    const int64_t l = std::min(k + oversample, std::min(m, n));

    // Range finder: Q approximates the column space of A.
    Tensor omega = Tensor::randn({n, l}, rng);
    Tensor y = matmul(a, omega); // (m x l)
    Tensor q = qrDecompose(y).q;
    for (int iter = 0; iter < powerIters; ++iter) {
        Tensor z = matmulTransA(a, q); // (n x l)
        Tensor qz = qrDecompose(z).q;
        y = matmul(a, qz);
        q = qrDecompose(y).q;
    }

    // Project and factor the small matrix B = Q^T A (l x n).
    Tensor b = matmulTransA(q, a);
    SvdResult small = truncatedSvd(b, k);

    SvdResult out;
    out.status = std::move(small.status);
    out.u = matmul(q, small.u);
    out.s = std::move(small.s);
    out.v = std::move(small.v);
    return out;
}

double
orthonormalityError(const Tensor &q)
{
    require(q.rank() == 2, "orthonormalityError: input must be a matrix");
    Tensor gram = matmulTransA(q, q);
    const int64_t k = gram.dim(0);
    double err = 0.0;
    for (int64_t i = 0; i < k; ++i) {
        for (int64_t j = 0; j < k; ++j) {
            const double target = i == j ? 1.0 : 0.0;
            const double d = gram(i, j) - target;
            err += d * d;
        }
    }
    return std::sqrt(err);
}

Tensor
randomOrthonormal(int64_t m, int64_t k, Rng &rng)
{
    require(k >= 1 && k <= m,
            strCat("randomOrthonormal: invalid dims (", m, ", ", k, ")"));
    Tensor g = Tensor::randn({m, k}, rng);
    return qrDecompose(g).q;
}

} // namespace lrd
