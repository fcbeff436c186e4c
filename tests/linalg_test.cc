/**
 * @file
 * Tests for QR, symmetric eigendecomposition, SVD (full, truncated,
 * randomized), including Eckart-Young optimality properties.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "linalg/linalg.h"
#include "parallel/thread_pool.h"
#include "robust/fault.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace lrd {
namespace {

TEST(Qr, ReconstructsInput)
{
    Rng rng(1);
    for (auto [m, n] : {std::pair<int64_t, int64_t>{6, 4}, {4, 6}, {5, 5}}) {
        Tensor a = Tensor::randn({m, n}, rng);
        QrResult qr = qrDecompose(a);
        EXPECT_LT(relativeError(a, matmul(qr.q, qr.r)), 1e-5);
        EXPECT_LT(orthonormalityError(qr.q), 1e-5);
    }
}

TEST(Qr, RIsUpperTriangular)
{
    Rng rng(2);
    Tensor a = Tensor::randn({5, 5}, rng);
    QrResult qr = qrDecompose(a);
    for (int64_t i = 1; i < 5; ++i)
        for (int64_t j = 0; j < i; ++j)
            EXPECT_FLOAT_EQ(qr.r(i, j), 0.0F);
}

TEST(Qr, HandlesRankDeficientInput)
{
    // Two identical columns: still must satisfy A = Q R.
    Tensor a({3, 2}, {1, 1, 2, 2, 3, 3});
    QrResult qr = qrDecompose(a);
    EXPECT_LT(relativeError(a, matmul(qr.q, qr.r)), 1e-5);
}

TEST(Qr, ZeroMatrix)
{
    Tensor a({3, 2});
    QrResult qr = qrDecompose(a);
    EXPECT_LT(matmul(qr.q, qr.r).norm(), 1e-6);
}

TEST(Eigen, DiagonalMatrix)
{
    Tensor d({3, 3});
    d(0, 0) = 1.0F;
    d(1, 1) = 5.0F;
    d(2, 2) = 3.0F;
    EigenResult e = symmetricEigen(d);
    EXPECT_NEAR(e.values[0], 5.0, 1e-8);
    EXPECT_NEAR(e.values[1], 3.0, 1e-8);
    EXPECT_NEAR(e.values[2], 1.0, 1e-8);
}

TEST(Eigen, ReconstructsSymmetricMatrix)
{
    Rng rng(3);
    Tensor g = Tensor::randn({6, 6}, rng);
    Tensor s = add(g, transpose2d(g)); // symmetric
    EigenResult e = symmetricEigen(s);
    // Rebuild V diag(w) V^T.
    Tensor vw = e.vectors;
    for (int64_t i = 0; i < 6; ++i)
        for (int64_t j = 0; j < 6; ++j)
            vw(i, j) *= static_cast<float>(e.values[static_cast<size_t>(j)]);
    Tensor rec = matmulTransB(vw, e.vectors);
    EXPECT_LT(relativeError(s, rec), 1e-5);
    EXPECT_LT(orthonormalityError(e.vectors), 1e-5);
}

TEST(Eigen, RejectsNonSquare)
{
    EXPECT_THROW(symmetricEigen(Tensor({2, 3})), std::runtime_error);
}

TEST(Svd, ReconstructsRandomMatrices)
{
    Rng rng(4);
    for (auto [m, n] : {std::pair<int64_t, int64_t>{8, 5}, {5, 8}, {6, 6}}) {
        Tensor a = Tensor::randn({m, n}, rng);
        SvdResult s = svd(a);
        EXPECT_LT(relativeError(a, s.reconstruct()), 1e-4)
            << m << "x" << n;
        EXPECT_LT(orthonormalityError(s.u), 1e-4);
        // Singular values descending and non-negative.
        for (size_t i = 1; i < s.s.size(); ++i)
            EXPECT_GE(s.s[i - 1], s.s[i] - 1e-9);
        EXPECT_GE(s.s.back(), -1e-12);
    }
}

TEST(Svd, SingularValuesOfKnownMatrix)
{
    // A = diag(3, 2) embedded in a 2x2.
    Tensor a({2, 2}, {3, 0, 0, 2});
    SvdResult s = svd(a);
    EXPECT_NEAR(s.s[0], 3.0, 1e-8);
    EXPECT_NEAR(s.s[1], 2.0, 1e-8);
}

TEST(Svd, FrobeniusNormMatchesSingularValues)
{
    Rng rng(5);
    Tensor a = Tensor::randn({7, 4}, rng);
    SvdResult s = svd(a);
    double sum2 = 0.0;
    for (double v : s.s)
        sum2 += v * v;
    EXPECT_NEAR(std::sqrt(sum2), a.norm(), 1e-5);
}

TEST(TruncatedSvd, ExactForLowRankMatrix)
{
    // Build an exactly rank-2 matrix; rank-2 truncation must be exact.
    Rng rng(6);
    Tensor u = Tensor::randn({8, 2}, rng);
    Tensor v = Tensor::randn({2, 6}, rng);
    Tensor a = matmul(u, v);
    SvdResult s = truncatedSvd(a, 2);
    EXPECT_LT(relativeError(a, s.reconstruct()), 1e-4);
}

TEST(TruncatedSvd, ErrorDecreasesWithRank)
{
    Rng rng(7);
    Tensor a = Tensor::randn({10, 10}, rng);
    double prev = 1e9;
    for (int64_t k : {1, 3, 5, 8, 10}) {
        SvdResult s = truncatedSvd(a, k);
        const double err = relativeError(a, s.reconstruct());
        EXPECT_LE(err, prev + 1e-9) << "rank " << k;
        prev = err;
    }
    EXPECT_LT(prev, 1e-4); // full rank is exact
}

TEST(TruncatedSvd, ErrorEqualsTailSingularValues)
{
    // Eckart-Young: ||A - A_k||_F^2 = sum_{i>k} sigma_i^2.
    Rng rng(8);
    Tensor a = Tensor::randn({9, 6}, rng);
    SvdResult full = svd(a);
    for (int64_t k : {1, 2, 4}) {
        SvdResult trunc = truncatedSvd(a, k);
        double tail = 0.0;
        for (size_t i = static_cast<size_t>(k); i < full.s.size(); ++i)
            tail += full.s[i] * full.s[i];
        const Tensor diff = sub(a, trunc.reconstruct());
        EXPECT_NEAR(diff.norm(), std::sqrt(tail), 1e-4);
    }
}

TEST(TruncatedSvd, BeatsRandomProjection)
{
    // Eckart-Young optimality vs an arbitrary rank-k projector.
    Rng rng(9);
    Tensor a = Tensor::randn({12, 12}, rng);
    const int64_t k = 3;
    SvdResult s = truncatedSvd(a, k);
    const double svdErr = relativeError(a, s.reconstruct());
    Tensor q = randomOrthonormal(12, k, rng);
    Tensor proj = matmul(q, matmulTransA(q, a));
    EXPECT_LT(svdErr, relativeError(a, proj));
}

TEST(TruncatedSvd, InvalidRankThrows)
{
    Tensor a({4, 3});
    EXPECT_THROW(truncatedSvd(a, 0), std::runtime_error);
    EXPECT_THROW(truncatedSvd(a, 4), std::runtime_error);
}

TEST(LeftSingularVectors, SpanMatchesTruncatedSvd)
{
    Rng rng(10);
    Tensor a = Tensor::randn({6, 9}, rng);
    const int64_t k = 3;
    Tensor u = leftSingularVectors(a, k);
    EXPECT_EQ(u.shape(), (Shape{6, 3}));
    EXPECT_LT(orthonormalityError(u), 1e-4);
    // Projection of A onto span(U) must capture the same energy as
    // the rank-k SVD reconstruction.
    Tensor proj = matmul(u, matmulTransA(u, a));
    SvdResult s = truncatedSvd(a, k);
    EXPECT_NEAR(relativeError(a, proj), relativeError(a, s.reconstruct()),
                1e-4);
}

TEST(RandomizedSvd, CloseToExactOnDecayingSpectrum)
{
    Rng rng(11);
    // Matrix with fast-decaying spectrum: randomized SVD is accurate.
    const int64_t n = 30;
    Tensor u = randomOrthonormal(n, n, rng);
    Tensor v = randomOrthonormal(n, n, rng);
    Tensor us = u;
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < n; ++j)
            us(i, j) *= std::pow(0.5F, static_cast<float>(j));
    Tensor a = matmulTransB(us, v);

    const int64_t k = 5;
    SvdResult exact = truncatedSvd(a, k);
    SvdResult approx = randomizedSvd(a, k, rng);
    const double exactErr = relativeError(a, exact.reconstruct());
    const double approxErr = relativeError(a, approx.reconstruct());
    EXPECT_LT(approxErr, exactErr * 1.5 + 1e-3);
}

TEST(RandomOrthonormal, ProducesOrthonormalColumns)
{
    Rng rng(12);
    Tensor q = randomOrthonormal(10, 4, rng);
    EXPECT_EQ(q.shape(), (Shape{10, 4}));
    EXPECT_LT(orthonormalityError(q), 1e-5);
    EXPECT_THROW(randomOrthonormal(3, 5, rng), std::runtime_error);
}

/** Property sweep: SVD reconstructs random matrices of random shape. */
class SvdProperty : public ::testing::TestWithParam<int> {};

TEST_P(SvdProperty, ReconstructionAndOrdering)
{
    Rng rng(static_cast<uint64_t>(300 + GetParam()));
    const int64_t m = 2 + static_cast<int64_t>(rng.uniformInt(12));
    const int64_t n = 2 + static_cast<int64_t>(rng.uniformInt(12));
    Tensor a = Tensor::randn({m, n}, rng);
    SvdResult s = svd(a);
    EXPECT_LT(relativeError(a, s.reconstruct()), 1e-3)
        << m << "x" << n;
    for (size_t i = 1; i < s.s.size(); ++i)
        EXPECT_GE(s.s[i - 1], s.s[i] - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, SvdProperty, ::testing::Range(0, 16));

TEST(Eigen, ConvergedDecompositionReportsOkStatus)
{
    Rng rng(55);
    Tensor b = Tensor::randn({6, 6}, rng);
    Tensor a = matmulTransB(b, b); // symmetric PSD
    const EigenResult e = symmetricEigen(a);
    EXPECT_TRUE(e.status.ok());
    EXPECT_GT(e.sweeps, 0);
}

TEST(Eigen, InjectedNonConvergenceIsReportedNotSilent)
{
    clearFaults();
    Rng rng(56);
    Tensor b = Tensor::randn({6, 6}, rng);
    Tensor a = matmulTransB(b, b);

    setFault(FaultSpec{"jacobi", FaultKind::NonConverge, 1});
    const EigenResult e = symmetricEigen(a);
    clearFaults();
    EXPECT_EQ(e.status.code(), StatusCode::NonConvergence);
    EXPECT_STREQ(e.status.site(), "jacobi");

    // The status propagates through the SVD wrappers.
    setFault(FaultSpec{"jacobi", FaultKind::NonConverge, 1});
    const SvdResult s = truncatedSvd(Tensor::randn({8, 5}, rng), 3);
    clearFaults();
    EXPECT_EQ(s.status.code(), StatusCode::NonConvergence);
}

TEST(Eigen, NonFiniteInputIsRefusedNotSilent)
{
    clearFaults();
    Rng rng(57);
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
        Tensor a = Tensor::randn({8, 12}, rng);
        a(3, 5) = bad;
        const SvdResult s = svd(a);
        EXPECT_EQ(s.status.code(), StatusCode::NonFinite) << bad;
        EXPECT_STREQ(s.status.site(), "jacobi");
        const EigenResult e = symmetricEigen(matmulTransB(a, a));
        EXPECT_EQ(e.status.code(), StatusCode::NonFinite) << bad;
        EXPECT_EQ(e.sweeps, 0);
    }
}

/**
 * The Jacobi rotation loop as it stood before it was made serial with
 * transposed eigenvectors, kept verbatim as the reference the current
 * kernel must match bit for bit. Metrics, faults and cancellation are
 * left out: they never touch the numbers.
 */
EigenResult
referenceEigen(const Tensor &s, int maxSweeps)
{
    const int64_t n = s.dim(0);
    std::vector<double> a(static_cast<size_t>(n * n));
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < n; ++j)
            a[static_cast<size_t>(i * n + j)] =
                0.5 * (static_cast<double>(s(i, j)) + s(j, i));

    std::vector<double> v(static_cast<size_t>(n * n), 0.0);
    for (int64_t i = 0; i < n; ++i)
        v[static_cast<size_t>(i * n + i)] = 1.0;

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

    int sweepsDone = 0;
    double offNow = off();
    for (int sweep = 0; sweep < maxSweeps && offNow > tol; ++sweep) {
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
                parallelFor(0, n, 2048, [&](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i) {
                        const double aip =
                            a[static_cast<size_t>(i * n + p)];
                        const double aiq =
                            a[static_cast<size_t>(i * n + q)];
                        a[static_cast<size_t>(i * n + p)] =
                            c * aip - sn * aiq;
                        a[static_cast<size_t>(i * n + q)] =
                            sn * aip + c * aiq;
                    }
                });
                parallelFor(0, n, 2048, [&](int64_t lo, int64_t hi) {
                    for (int64_t j = lo; j < hi; ++j) {
                        const double apj =
                            a[static_cast<size_t>(p * n + j)];
                        const double aqj =
                            a[static_cast<size_t>(q * n + j)];
                        a[static_cast<size_t>(p * n + j)] =
                            c * apj - sn * aqj;
                        a[static_cast<size_t>(q * n + j)] =
                            sn * apj + c * aqj;
                    }
                });
                parallelFor(0, n, 2048, [&](int64_t lo, int64_t hi) {
                    for (int64_t i = lo; i < hi; ++i) {
                        const double vip =
                            v[static_cast<size_t>(i * n + p)];
                        const double viq =
                            v[static_cast<size_t>(i * n + q)];
                        v[static_cast<size_t>(i * n + p)] =
                            c * vip - sn * viq;
                        v[static_cast<size_t>(i * n + q)] =
                            sn * vip + c * viq;
                    }
                });
            }
        }
        ++sweepsDone;
        offNow = off();
    }

    EigenResult out;
    if (offNow > tol)
        out.status = Status(
            StatusCode::NonConvergence, "jacobi",
            strCat("off-diagonal norm ", offNow, " above tolerance ", tol,
                   " after ", sweepsDone, " sweeps"));
    std::vector<int64_t> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int64_t x, int64_t y) {
        return a[static_cast<size_t>(x * n + x)]
               > a[static_cast<size_t>(y * n + y)];
    });
    out.sweeps = sweepsDone;
    out.values.resize(static_cast<size_t>(n));
    out.vectors = Tensor({n, n});
    for (int64_t j = 0; j < n; ++j) {
        const int64_t src = order[static_cast<size_t>(j)];
        out.values[static_cast<size_t>(j)] =
            a[static_cast<size_t>(src * n + src)];
        for (int64_t i = 0; i < n; ++i)
            out.vectors(i, j) =
                static_cast<float>(v[static_cast<size_t>(i * n + src)]);
    }
    return out;
}

void
expectBitwiseEqualEigen(const Tensor &s, int maxSweeps)
{
    const EigenResult want = referenceEigen(s, maxSweeps);
    const EigenResult got = symmetricEigen(s, maxSweeps);
    EXPECT_EQ(got.sweeps, want.sweeps);
    EXPECT_EQ(got.status.toString(), want.status.toString());
    ASSERT_EQ(got.values.size(), want.values.size());
    EXPECT_EQ(std::memcmp(got.values.data(), want.values.data(),
                          got.values.size() * sizeof(double)),
              0);
    ASSERT_EQ(got.vectors.shape(), want.vectors.shape());
    EXPECT_EQ(std::memcmp(got.vectors.data(), want.vectors.data(),
                          static_cast<size_t>(got.vectors.size())
                              * sizeof(float)),
              0);
}

/** Symmetric n x n inputs of every shape class the kernel meets. */
std::vector<std::pair<std::string, Tensor>>
eigenInputs(int64_t n, Rng &rng)
{
    std::vector<std::pair<std::string, Tensor>> in;
    const Tensor b = Tensor::randn({n, n + 3}, rng);
    in.emplace_back("gram", matmulTransB(b, b));
    in.emplace_back("zero", Tensor({n, n}));
    Tensor eye({n, n});
    for (int64_t i = 0; i < n; ++i)
        eye(i, i) = 1.0F;
    in.emplace_back("identity", eye);
    // Q diag(2, 2, 1, 1, ...) Q^T: every eigenvalue repeated.
    const Tensor q = randomOrthonormal(n, n, rng);
    Tensor qd = q;
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < n; ++j)
            qd(i, j) *= j < n / 2 ? 2.0F : 1.0F;
    in.emplace_back("repeated", matmulTransB(qd, q));
    const Tensor u = Tensor::randn({n, 1}, rng);
    in.emplace_back("rank1", matmulTransB(u, u));
    return in;
}

TEST(Eigen, SerialTransposedKernelMatchesReferenceBitwise)
{
    clearFaults();
    for (const int threads : {1, 4}) {
        ThreadPool::instance().resize(threads);
        for (const int64_t n : {1, 2, 3, 17, 64, 128}) {
            Rng rng(static_cast<uint64_t>(900 + n));
            for (const auto &[name, s] : eigenInputs(n, rng)) {
                SCOPED_TRACE(strCat(name, " n=", n, " threads=", threads));
                expectBitwiseEqualEigen(s, 60);
            }
        }
        // A sweep cap below convergence takes the NonConvergence path
        // and returns the partial factors.
        Rng rng(77);
        const Tensor b = Tensor::randn({17, 20}, rng);
        const Tensor gram = matmulTransB(b, b);
        ASSERT_FALSE(symmetricEigen(gram, 1).status.ok());
        SCOPED_TRACE(strCat("maxSweeps=1 threads=", threads));
        expectBitwiseEqualEigen(gram, 1);
    }
    ThreadPool::instance().resize(1);
}

} // namespace
} // namespace lrd
