/**
 * @file
 * Fuzz tests of the optimized GEMM kernels against a naive reference
 * triple loop, covering all transpose variants, accumulate modes and
 * degenerate shapes; bitwise differential tests of the skinny
 * fallbacks (including the narrow n < 16 paths), the RoPE table, the
 * attention training core and the MLP backward against the code they
 * replaced, and of the untaped factorized forward against the taped
 * one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "model/attention.h"
#include "model/linear.h"
#include "model/mlp.h"
#include "parallel/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/simd/pack.h"
#include "tensor/simd/simd.h"
#include "util/logging.h"
#include "util/rng.h"

namespace lrd {
namespace {

/** Naive reference: C = A? * B? with explicit index arithmetic. */
void
referenceGemm(const Tensor &a, const Tensor &b, Tensor &c, bool transA,
              bool transB, bool accumulate)
{
    const int64_t m = transA ? a.dim(1) : a.dim(0);
    const int64_t k = transA ? a.dim(0) : a.dim(1);
    const int64_t n = transB ? b.dim(0) : b.dim(1);
    if (!accumulate)
        c.fill(0.0F);
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (int64_t p = 0; p < k; ++p) {
                const float av = transA ? a(p, i) : a(i, p);
                const float bv = transB ? b(j, p) : b(p, j);
                acc += static_cast<double>(av) * bv;
            }
            c(i, j) += static_cast<float>(acc);
        }
}

class GemmFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GemmFuzz, AllVariantsMatchReference)
{
    Rng rng(static_cast<uint64_t>(1000 + GetParam()));
    const int64_t m = 1 + static_cast<int64_t>(rng.uniformInt(17));
    const int64_t k = 1 + static_cast<int64_t>(rng.uniformInt(17));
    const int64_t n = 1 + static_cast<int64_t>(rng.uniformInt(17));
    const bool accumulate = rng.bernoulli(0.5);

    // Plain gemm.
    {
        Tensor a = Tensor::randn({m, k}, rng);
        Tensor b = Tensor::randn({k, n}, rng);
        Tensor want = Tensor::randn({m, n}, rng);
        Tensor got = want;
        referenceGemm(a, b, want, false, false, accumulate);
        gemm(a.data(), b.data(), got.data(), m, k, n, accumulate);
        EXPECT_LT(relativeError(want, got), 1e-4)
            << m << "x" << k << "x" << n;
    }
    // B transposed.
    {
        Tensor a = Tensor::randn({m, k}, rng);
        Tensor b = Tensor::randn({n, k}, rng);
        Tensor want = Tensor::randn({m, n}, rng);
        Tensor got = want;
        referenceGemm(a, b, want, false, true, accumulate);
        gemmTransB(a.data(), b.data(), got.data(), m, k, n, accumulate);
        EXPECT_LT(relativeError(want, got), 1e-4);
    }
    // A transposed: c (k x n) = a^T (m x k)^T * b (m x n).
    {
        Tensor a = Tensor::randn({m, k}, rng);
        Tensor b = Tensor::randn({m, n}, rng);
        Tensor want = Tensor::randn({k, n}, rng);
        Tensor got = want;
        referenceGemm(a, b, want, true, false, accumulate);
        gemmTransA(a.data(), b.data(), got.data(), m, k, n, accumulate);
        EXPECT_LT(relativeError(want, got), 1e-4);
    }
}

INSTANTIATE_TEST_SUITE_P(Random, GemmFuzz, ::testing::Range(0, 20));

TEST(GemmEdge, OneByOne)
{
    Tensor a({1, 1}, {3.0F});
    Tensor b({1, 1}, {-2.0F});
    Tensor c({1, 1});
    gemm(a.data(), b.data(), c.data(), 1, 1, 1, false);
    EXPECT_FLOAT_EQ(c[0], -6.0F);
}

TEST(GemmEdge, SparseInputsMatchReference)
{
    Rng rng(7);
    Tensor a = Tensor::randn({6, 6}, rng);
    for (int64_t i = 0; i < a.size(); i += 2)
        a[i] = 0.0F;
    Tensor b = Tensor::randn({6, 6}, rng);
    Tensor want({6, 6});
    referenceGemm(a, b, want, false, false, false);
    Tensor got({6, 6});
    gemm(a.data(), b.data(), got.data(), 6, 6, 6, false);
    EXPECT_LT(relativeError(want, got), 1e-5);
}

/** Shapes chosen to straddle the blocked kernel's tile sizes
 *  (MR=8, NR=48, KC=384, 32-row chunks), including 1 x k x 1. */
class GemmOddShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmOddShapes, AllVariantsMatchScalarReference)
{
    const auto [mi, ki, ni] = GetParam();
    const int64_t m = mi, k = ki, n = ni;
    Rng rng(static_cast<uint64_t>(9000 + m * 31 + k * 7 + n));
    for (const bool accumulate : {false, true}) {
        {
            Tensor a = Tensor::randn({m, k}, rng);
            Tensor b = Tensor::randn({k, n}, rng);
            Tensor want = Tensor::randn({m, n}, rng);
            Tensor got = want;
            referenceGemm(a, b, want, false, false, accumulate);
            gemm(a.data(), b.data(), got.data(), m, k, n, accumulate);
            EXPECT_LT(relativeError(want, got), 1e-4)
                << m << "x" << k << "x" << n << " acc=" << accumulate;
        }
        {
            Tensor a = Tensor::randn({m, k}, rng);
            Tensor b = Tensor::randn({n, k}, rng);
            Tensor want = Tensor::randn({m, n}, rng);
            Tensor got = want;
            referenceGemm(a, b, want, false, true, accumulate);
            gemmTransB(a.data(), b.data(), got.data(), m, k, n,
                       accumulate);
            EXPECT_LT(relativeError(want, got), 1e-4)
                << m << "x" << k << "x" << n << "^T acc=" << accumulate;
        }
        {
            Tensor a = Tensor::randn({m, k}, rng);
            Tensor b = Tensor::randn({m, n}, rng);
            Tensor want = Tensor::randn({k, n}, rng);
            Tensor got = want;
            referenceGemm(a, b, want, true, false, accumulate);
            gemmTransA(a.data(), b.data(), got.data(), m, k, n,
                       accumulate);
            EXPECT_LT(relativeError(want, got), 1e-4)
                << m << "^T x" << k << "x" << n << " acc=" << accumulate;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    TileBoundaries, GemmOddShapes,
    ::testing::Values(std::make_tuple(1, 1, 1),
                      std::make_tuple(1, 385, 1),
                      std::make_tuple(1, 17, 49),
                      std::make_tuple(7, 9, 47),
                      std::make_tuple(8, 384, 48),
                      std::make_tuple(9, 385, 49),
                      std::make_tuple(16, 8, 24),
                      std::make_tuple(31, 390, 95),
                      std::make_tuple(33, 401, 97),
                      std::make_tuple(65, 130, 53),
                      std::make_tuple(129, 63, 201)));

/** Pins each microkernel level this host can run and re-checks the
 *  dispatched entry points against the scalar reference; restores the
 *  startup level afterwards. */
class GemmSimdLevel : public ::testing::TestWithParam<int>
{
  protected:
    void SetUp() override
    {
        restore_ = simd::activeLevel();
        const auto level = static_cast<simd::Level>(GetParam());
        if (!simd::levelSupported(level))
            GTEST_SKIP() << "level '" << simd::levelName(level)
                         << "' not available on this host/build";
        simd::setActiveLevel(level);
    }
    void TearDown() override { simd::setActiveLevel(restore_); }

  private:
    simd::Level restore_ = simd::Level::Scalar;
};

TEST_P(GemmSimdLevel, OddShapesMatchReference)
{
    // Shapes straddling the 8 x 48 register tile, the 384-deep k-slab
    // and the 32-row parallel chunk, so every partial-tile merge path
    // of the pinned kernel is exercised.
    for (const auto &[m, k, n] :
         {std::tuple<int64_t, int64_t, int64_t>{1, 1, 1},
          {1, 385, 1},
          {7, 9, 47},
          {9, 385, 49},
          {16, 8, 24},
          {33, 401, 97},
          {65, 130, 53}}) {
        Rng rng(static_cast<uint64_t>(500 + m + k + n));
        for (const bool accumulate : {false, true}) {
            Tensor a = Tensor::randn({m, k}, rng);
            Tensor b = Tensor::randn({k, n}, rng);
            Tensor want = Tensor::randn({m, n}, rng);
            Tensor got = want;
            referenceGemm(a, b, want, false, false, accumulate);
            gemm(a.data(), b.data(), got.data(), m, k, n, accumulate);
            EXPECT_LT(relativeError(want, got), 1e-4)
                << simd::levelName(simd::activeLevel()) << " " << m << "x"
                << k << "x" << n << " acc=" << accumulate;

            Tensor bt = Tensor::randn({n, k}, rng);
            Tensor wantT = Tensor::randn({m, n}, rng);
            Tensor gotT = wantT;
            referenceGemm(a, bt, wantT, false, true, accumulate);
            gemmTransB(a.data(), bt.data(), gotT.data(), m, k, n,
                       accumulate);
            EXPECT_LT(relativeError(wantT, gotT), 1e-4)
                << simd::levelName(simd::activeLevel()) << " transB " << m
                << "x" << k << "x" << n;
        }
    }
}

TEST_P(GemmSimdLevel, NanPropagates)
{
    // Zero-padded pack lanes must not suppress NaN/Inf: every level
    // computes full padded tiles rather than skipping zero entries.
    const int64_t m = 32, k = 64, n = 64;
    Rng rng(21);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    a(3, 5) = 0.0F;
    b(5, 7) = std::numeric_limits<float>::quiet_NaN();
    Tensor c({m, n});
    gemm(a.data(), b.data(), c.data(), m, k, n, false);
    EXPECT_TRUE(std::isnan(c(3, 7)))
        << simd::levelName(simd::activeLevel());
    EXPECT_FALSE(std::isnan(c(2, 6)))
        << simd::levelName(simd::activeLevel());
}

TEST_P(GemmSimdLevel, MatchesScalarLevelWithinTolerance)
{
    // Cross-level agreement is tolerance-based, not bitwise: wider
    // lanes contract multiply-adds with FMA while the scalar fallback
    // may not, so rounding differs by a few ULPs.
    const int64_t m = 33, k = 390, n = 95;
    Rng rng(22);
    Tensor a = Tensor::randn({m, k}, rng);
    Tensor b = Tensor::randn({k, n}, rng);
    Tensor got({m, n});
    gemm(a.data(), b.data(), got.data(), m, k, n, false);

    simd::setActiveLevel(simd::Level::Scalar);
    Tensor scalar({m, n});
    gemm(a.data(), b.data(), scalar.data(), m, k, n, false);
    EXPECT_LT(relativeError(scalar, got), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Levels, GemmSimdLevel,
    ::testing::Values(static_cast<int>(simd::Level::Scalar),
                      static_cast<int>(simd::Level::Neon),
                      static_cast<int>(simd::Level::Avx2),
                      static_cast<int>(simd::Level::Avx512)),
    [](const ::testing::TestParamInfo<int> &levelInfo) {
        return simd::levelName(static_cast<simd::Level>(levelInfo.param));
    });

TEST(SimdDispatch, PerLevelLookupMatchesDispatchTable)
{
    // The parity-test lookup must agree with what dispatch actually
    // installed for the running level.
    EXPECT_EQ(simd::microKernelForLevel(simd::activeLevel()),
              simd::activeKernels().microKernel);
}

/** An untaped (inference) factorized forward must equal the taped
 *  (training) one bit for bit: both run the one three-GEMM chain,
 *  across the skinny, small-k and blocked GEMM paths. */
TEST(FactorizedForward, UntapedMatchesTapedBitwise)
{
    Rng rng(23);
    std::vector<std::tuple<int64_t, int64_t, int64_t, int64_t>> cases = {
        {64, 48, 12, 33}, {96, 96, 40, 8}, {176, 64, 16, 65}};
    for (int64_t rank : {1, 4, 24})
        for (int64_t rows : {1, 8, 15, 16})
            cases.emplace_back(64, 48, rank, rows);
    for (const auto &[out, in, rank, rows] : cases) {
        Linear l(out, in, /*hasBias=*/true, "factorizedtest", &rng);
        l.installFactorShape(rank);
        for (Parameter *p : l.parameters())
            p->value = Tensor::randn(p->value.shape(), rng);
        const Tensor x = Tensor::randn({rows, in}, rng);

        const Tensor untaped = l.forward(x);
        Linear::Tape tape;
        const Tensor taped = l.forward(x, &tape);

        ASSERT_EQ(untaped.dim(0), rows);
        ASSERT_EQ(untaped.dim(1), out);
        int64_t mismatches = 0;
        for (int64_t i = 0; i < taped.size(); ++i)
            if (std::bit_cast<uint32_t>(untaped[i])
                != std::bit_cast<uint32_t>(taped[i]))
                ++mismatches;
        EXPECT_EQ(mismatches, 0)
            << out << "x" << in << " rank " << rank << " rows " << rows;
    }
}

/** Factor values written directly (as AdamW, checkpoint restore and
 *  tests do via parameters()) must show in the very next forward. */
TEST(FactorizedForward, DetectsExternalFactorWrites)
{
    Rng rng(25);
    Linear l(40, 40, /*hasBias=*/true, "factorizedtest.write", &rng);
    l.installFactorShape(8);
    for (Parameter *p : l.parameters())
        p->value = Tensor::randn(p->value.shape(), rng);
    const Tensor x = Tensor::randn({16, 40}, rng);
    const Tensor before = l.forward(x);

    std::vector<Parameter *> params = l.parameters();
    for (Parameter *p : params)
        p->value[0] += 1.0F;
    const Tensor after = l.forward(x);

    // x W_eff^T + b from the written values.
    Tensor want = matmulTransB(x, l.effectiveWeight());
    const Tensor &bias = params.back()->value;
    for (int64_t i = 0; i < want.dim(0); ++i)
        for (int64_t j = 0; j < want.dim(1); ++j)
            want(i, j) += bias[j];
    EXPECT_LT(relativeError(want, after), 1e-5);
    EXPECT_GT(relativeError(before, after), 1e-6);
}

TEST(GemmEdge, NanPropagatesThroughZeroEntries)
{
    // 0 * NaN must be NaN: the old kernels skipped zero a-values and
    // silently dropped NaN/Inf contributions from b.
    Tensor a({1, 2}, {0.0F, 1.0F});
    Tensor b({2, 1},
             {std::numeric_limits<float>::quiet_NaN(), 2.0F});
    Tensor c({1, 1});
    gemm(a.data(), b.data(), c.data(), 1, 2, 1, false);
    EXPECT_TRUE(std::isnan(c[0]));

    // Same property through the blocked path.
    const int64_t m = 32, k = 64, n = 64;
    Rng rng(11);
    Tensor ab = Tensor::randn({m, k}, rng);
    Tensor bb = Tensor::randn({k, n}, rng);
    ab(3, 5) = 0.0F;
    bb(5, 7) = std::numeric_limits<float>::quiet_NaN();
    Tensor cb({m, n});
    gemm(ab.data(), bb.data(), cb.data(), m, k, n, false);
    EXPECT_TRUE(std::isnan(cb(3, 7)));

    // 0 * inf = NaN propagates through gemmTransA as well.
    Tensor at({1, 1}, {0.0F});
    Tensor bt({1, 1}, {std::numeric_limits<float>::infinity()});
    Tensor ct({1, 1});
    gemmTransA(at.data(), bt.data(), ct.data(), 1, 1, 1, false);
    EXPECT_TRUE(std::isnan(ct[0]));
}

/*
 * Scalar references for the skinny fallbacks: laneDot and the plain
 * j-inner loops, with no inline dispatch, no small-k gemmTransB path
 * and no narrow n < 16 paths. Kept out of line so each compiles as
 * the loop it copies did. The optimized code must reproduce them bit
 * for bit.
 */

/** ops.cc's laneDot: 16 striped lanes, then a fixed reduction tree. */
float
refLaneDot(const float *x, const float *y, int64_t k)
{
    float lane[16] = {};
    int64_t p = 0;
    for (; p + 16 <= k; p += 16)
        for (int64_t l = 0; l < 16; ++l)
            lane[l] += x[p + l] * y[p + l];
    for (int64_t l = 0; p + l < k; ++l)
        lane[l] += x[p + l] * y[p + l];
    for (int64_t l = 0; l < 8; ++l)
        lane[l] += lane[l + 8];
    for (int64_t l = 0; l < 4; ++l)
        lane[l] += lane[l + 4];
    return ((lane[0] + lane[2]) + (lane[1] + lane[3]));
}

[[gnu::noinline]] void
refSkinnyGemm(const float *a, const float *b, float *c, int64_t m,
              int64_t k, int64_t n, bool accumulate)
{
    for (int64_t i = 0; i < m; ++i) {
        float *crow = c + i * n;
        if (!accumulate)
            for (int64_t j = 0; j < n; ++j)
                crow[j] = 0.0F;
        for (int64_t p = 0; p < k; ++p) {
            const float av = a[i * k + p];
            for (int64_t j = 0; j < n; ++j)
                crow[j] += av * b[p * n + j];
        }
    }
}

[[gnu::noinline]] void
refSkinnyTransB(const float *a, const float *b, float *c, int64_t m,
                int64_t k, int64_t n, bool accumulate)
{
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            const float acc = refLaneDot(a + i * k, b + j * k, k);
            c[i * n + j] = accumulate ? c[i * n + j] + acc : acc;
        }
}

[[gnu::noinline]] void
refSkinnyTransA(const float *a, const float *b, float *c, int64_t m,
                int64_t k, int64_t n, bool accumulate)
{
    if (!accumulate)
        for (int64_t i = 0; i < k * n; ++i)
            c[i] = 0.0F;
    for (int64_t i = 0; i < m; ++i)
        for (int64_t p = 0; p < k; ++p) {
            const float av = a[i * k + p];
            for (int64_t j = 0; j < n; ++j)
                c[p * n + j] += av * b[i * n + j];
        }
}

/** Equal bit patterns, or both NaN (payloads are not compared). */
bool
sameBits(float x, float y)
{
    return (std::isnan(x) && std::isnan(y))
           || std::bit_cast<uint32_t>(x) == std::bit_cast<uint32_t>(y);
}

/**
 * A shared draw of mostly normal values; about 1 in `specialEvery` is
 * one of ±0, NaN, ±Inf and ±1e-30 (whose pairwise products underflow
 * to ±0). Operands are random windows of it, which keeps the large
 * above-threshold shapes cheap to fill.
 */
class MixedValues
{
  public:
    MixedValues(uint64_t seed, uint64_t specialEvery) : rng_(seed)
    {
        static const float kSpecials[] = {
            0.0F, -0.0F, std::numeric_limits<float>::quiet_NaN(),
            std::numeric_limits<float>::infinity(),
            -std::numeric_limits<float>::infinity(), 1e-30F, -1e-30F};
        for (float &x : pool_)
            x = rng_.uniformInt(specialEvery) == 0
                    ? kSpecials[rng_.uniformInt(std::size(kSpecials))]
                    : static_cast<float>(rng_.normal());
    }

    std::vector<float> take(int64_t n)
    {
        const auto len = static_cast<size_t>(n);
        const size_t at = rng_.uniformInt(pool_.size() - len + 1);
        return {pool_.begin() + static_cast<ptrdiff_t>(at),
                pool_.begin() + static_cast<ptrdiff_t>(at + len)};
    }

  private:
    Rng rng_;
    std::vector<float> pool_ = std::vector<float>(size_t{1} << 19);
};
/** Pins the pool to `threads` workers for one scope. */
class PoolSize
{
  public:
    explicit PoolSize(int threads)
        : saved_(ThreadPool::instance().numThreads())
    {
        ThreadPool::instance().resize(threads);
    }
    ~PoolSize() { ThreadPool::instance().resize(saved_); }

  private:
    int saved_;
};

/** Every skinny variant of one (m, k, n) shape against its copy. */
void
expectSkinnyBitwise(int64_t m, int64_t k, int64_t n, bool accumulate,
                    MixedValues &values)
{
    using Gemm = void (*)(const float *, const float *, float *, int64_t,
                          int64_t, int64_t, bool);
    struct Variant
    {
        const char *name;
        Gemm got, want;
        int64_t aSize, bSize, cSize;
    };
    const Variant variants[] = {
        {"gemm", gemm, refSkinnyGemm, m * k, k * n, m * n},
        {"gemmTransB", gemmTransB, refSkinnyTransB, m * k, n * k, m * n},
        {"gemmTransA", gemmTransA, refSkinnyTransA, m * k, m * n, k * n},
    };
    for (const Variant &v : variants) {
        const std::vector<float> a = values.take(v.aSize);
        const std::vector<float> b = values.take(v.bSize);
        std::vector<float> want = values.take(v.cSize);
        std::vector<float> got = want;
        v.want(a.data(), b.data(), want.data(), m, k, n, accumulate);
        v.got(a.data(), b.data(), got.data(), m, k, n, accumulate);
        int64_t mismatches = 0;
        for (size_t i = 0; i < got.size(); ++i)
            mismatches += sameBits(got[i], want[i]) ? 0 : 1;
        EXPECT_EQ(mismatches, 0)
            << v.name << " " << m << "x" << k << "x" << n
            << " acc=" << accumulate << " threads="
            << ThreadPool::instance().numThreads();
    }
}

TEST(SkinnyGemm, BitwiseEqualToScalarLoopsAcrossInlineThreshold)
{
    // m < kMr keeps every variant on the skinny fallback (the blocked
    // path needs 2 * kMr rows, and gemmTransA's blocked inner dim is
    // m). k spans the small-k gemmTransB path (k < 16) and laneDot's
    // 16-lane body; n lands below and above the inline threshold.
    for (const int threads : {1, 4}) {
        PoolSize pool(threads);
        MixedValues values(static_cast<uint64_t>(31 + threads), 64);
        for (int64_t k = 1; k <= 40; ++k)
            for (int64_t m = 1; m < simd::kMr; ++m) {
                const int64_t above = kInlineMaxMacs / (m * k) + 1;
                for (const int64_t n : {int64_t{1}, int64_t{17},
                                        int64_t{48}, above}) {
                    ASSERT_EQ(m * k * n >= kInlineMaxMacs,
                              n == above);
                    expectSkinnyBitwise(m, k, n, (m + k + n) % 2 == 1,
                                        values);
                }
            }
    }
}

TEST(SkinnyGemm, SpecialValuesAndUnderflowMatchScalarLoops)
{
    // Dense specials at small k, where each output sees only a few
    // products: signed zeros, products underflowing to ±0, NaN and
    // Inf must come out of the small-k path exactly as from laneDot.
    for (const int threads : {1, 4}) {
        PoolSize pool(threads);
        MixedValues values(static_cast<uint64_t>(77 + threads), 2);
        for (int64_t k = 1; k < 16; ++k)
            for (int64_t m = 1; m < simd::kMr; ++m)
                for (const bool accumulate : {false, true})
                    expectSkinnyBitwise(m, k, 37, accumulate, values);
    }
}

TEST(SkinnyGemm, NarrowPathsBitwiseEqualToJInnerLoops)
{
    // gemm takes its row-block path for n < 16 and gemmTransA its
    // p-inner path for n < 8; n = 1..16 covers both and the first
    // widths left on the old loops. m straddles the 16-row block (and
    // the blocked path's 16 rows, which n < 24 keeps out of reach); k
    // spans one product to a d_ff-deep chain. Mostly normal values,
    // then a dense mix of specials.
    for (const int threads : {1, 4}) {
        PoolSize pool(threads);
        for (const uint64_t specialEvery : {64, 3}) {
            MixedValues values(specialEvery + static_cast<uint64_t>(threads),
                               specialEvery);
            for (const int64_t m : {15, 16, 17, 33, 64, 96})
                for (int64_t n = 1; n <= 16; ++n)
                    for (const int64_t k : {1, 7, 64, 176})
                        for (const bool accumulate : {false, true})
                            expectSkinnyBitwise(m, k, n, accumulate,
                                                values);
        }
    }
}

/** Reference rotation: pow/cos/sin evaluated per element, the
 *  expression the RoPE table is built from. */
void
refApplyRope(Tensor &qk, int64_t startPos, bool inverse, int64_t heads,
             int64_t headDim)
{
    const int64_t n = qk.dim(0);
    const int64_t width = heads * headDim;
    for (int64_t i = 0; i < n; ++i) {
        const auto p = static_cast<double>(startPos + i);
        float *row = qk.data() + i * width;
        for (int64_t h = 0; h < heads; ++h) {
            float *head = row + h * headDim;
            for (int64_t d = 0; d < headDim; d += 2) {
                const double freq = std::pow(
                    10000.0,
                    -static_cast<double>(d) / static_cast<double>(headDim));
                double angle = p * freq;
                if (inverse)
                    angle = -angle;
                const auto c = static_cast<float>(std::cos(angle));
                const auto s = static_cast<float>(std::sin(angle));
                const float x = head[d];
                const float y = head[d + 1];
                head[d] = x * c - y * s;
                head[d + 1] = x * s + y * c;
            }
        }
    }
}

TEST(RopeTable, BitwiseEqualToPerCallExpressionAtEveryPosition)
{
    for (const int64_t headDim : {8, 16, 32, 64, 128}) {
        ModelConfig cfg = testLlamaConfig();
        cfg.nHeads = 2;
        cfg.dModel = cfg.nHeads * headDim;
        cfg.maxSeq = 512;
        Rng rng(static_cast<uint64_t>(headDim));
        const MultiHeadAttention attn(cfg, 0, &rng);
        for (const bool inverse : {false, true}) {
            // Every position in one call, then the tail again from an
            // offset start.
            for (const int64_t start : {int64_t{0}, cfg.maxSeq - 37}) {
                const Tensor x =
                    Tensor::randn({cfg.maxSeq - start, cfg.dModel}, rng);
                Tensor got = x;
                Tensor want = x;
                attn.applyRope(got, start, inverse, cfg.nHeads);
                refApplyRope(want, start, inverse, cfg.nHeads, headDim);
                int64_t mismatches = 0;
                for (int64_t i = 0; i < got.size(); ++i)
                    mismatches += sameBits(got[i], want[i]) ? 0 : 1;
                EXPECT_EQ(mismatches, 0)
                    << "headDim " << headDim << " start " << start
                    << (inverse ? " inverse" : " forward");
            }
        }
        Tensor past({2, cfg.dModel});
        EXPECT_THROW(attn.applyRope(past, cfg.maxSeq - 1, false, cfg.nHeads),
                     std::runtime_error);
    }
}

/** Bit-pattern mismatches between two equally long float arrays. */
int64_t
mismatchCount(const float *got, const float *want, int64_t n)
{
    int64_t bad = 0;
    for (int64_t i = 0; i < n; ++i)
        bad += sameBits(got[i], want[i]) ? 0 : 1;
    return bad;
}

/*
 * MultiHeadAttention's training core as it was before the QK^T scores
 * and the dCtx V^T products ran across keys: one headDim dot per key.
 * Verbatim loops, minus the per-head parallelFor (each head owns its
 * outputs, so the split does not change bits), and with each dot's
 * product spelled as roundedProduct.
 */

/**
 * a * b rounded on its own. The Release build vectorizes a per-key dot
 * `s += x[d] * y[d]` as a multiply, then in-order adds, so every
 * product is rounded; an unvectorized build (the UBSan one, for
 * instance) contracts the same statement into FMAs. The copies spell
 * out the Release rounding, so the comparison holds in every build.
 */
float
roundedProduct(float a, float b)
{
    const volatile float p = a * b;
    return p;
}

struct RefAttnShape
{
    int64_t t, nHeads, kvHeads, headDim;
    bool causal;
};

[[gnu::noinline]] void
refAttnForwardCore(const RefAttnShape &sh, const Tensor &q, const Tensor &k,
                   const Tensor &v, Tensor &allProbs, Tensor &ctx)
{
    const int64_t t = sh.t, headDim_ = sh.headDim;
    const int64_t dModel_ = sh.nHeads * headDim_;
    const int64_t kvDim_ = sh.kvHeads * headDim_;
    const bool causal_ = sh.causal;
    const float invSqrt = 1.0F / std::sqrt(static_cast<float>(headDim_));
    const int64_t group = sh.nHeads / sh.kvHeads;
    for (int64_t h = 0; h < sh.nHeads; ++h) {
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
                    s += roundedProduct(qrow[d], krow[d]);
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
}

[[gnu::noinline]] void
refAttnBackwardCore(const RefAttnShape &sh, const Tensor &dCtx,
                    const MultiHeadAttention::Tape &tape, Tensor &dq,
                    Tensor &dk, Tensor &dv)
{
    const int64_t t = sh.t, headDim_ = sh.headDim;
    const int64_t dModel_ = sh.nHeads * headDim_;
    const int64_t kvDim_ = sh.kvHeads * headDim_;
    const bool causal_ = sh.causal;
    const float invSqrt = 1.0F / std::sqrt(static_cast<float>(headDim_));
    const int64_t group = sh.nHeads / sh.kvHeads;
    std::vector<float> dprow(static_cast<size_t>(t));
    for (int64_t h = 0; h < sh.nHeads; ++h) {
        const int64_t kvh = h / group;
        const float *probs = tape.probs.data() + h * t * t;
        for (int64_t i = 0; i < t; ++i) {
            const float *prow = probs + i * t;
            const float *dcrow = dCtx.data() + i * dModel_ + h * headDim_;
            const int64_t limit = causal_ ? i + 1 : t;
            for (int64_t j = 0; j < limit; ++j) {
                const float *vrow =
                    tape.v.data() + j * kvDim_ + kvh * headDim_;
                float *dvrow = dv.data() + j * kvDim_ + kvh * headDim_;
                float acc = 0.0F;
                const float p = prow[j];
                for (int64_t d = 0; d < headDim_; ++d) {
                    acc += roundedProduct(dcrow[d], vrow[d]);
                    dvrow[d] += p * dcrow[d];
                }
                dprow[static_cast<size_t>(j)] = acc;
            }
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
}

/** Flat gradient buffer for every parameter in `params`. */
std::vector<float>
gradBuffer(const std::vector<Parameter *> &params)
{
    size_t n = 0;
    for (const Parameter *p : params)
        n += static_cast<size_t>(p->size());
    return std::vector<float>(n);
}

TEST(AttentionCore, AcrossKeyScoresBitwiseEqualToPerKeyDots)
{
    ModelConfig gqa = tinyLlamaConfig();
    gqa.nKvHeads = 2;
    ModelConfig narrow = testLlamaConfig(); // headDim 8, one KV head
    narrow.nKvHeads = 1;
    narrow.maxSeq = 96;
    const ModelConfig configs[] = {tinyLlamaConfig(), tinyBertConfig(), gqa,
                                   narrow};
    for (const int threads : {1, 4}) {
        PoolSize pool(threads);
        for (const ModelConfig &cfg : configs)
            for (const int64_t t : {1, 2, 17, 64, 96}) {
                Rng rng(static_cast<uint64_t>(100 * t + threads));
                MultiHeadAttention attn(cfg, 0, &rng);
                const Tensor x = Tensor::randn({t, cfg.dModel}, rng);
                const Tensor dy = Tensor::randn({t, cfg.dModel}, rng);
                const RefAttnShape sh{t, cfg.nHeads, cfg.kvHeads(),
                                      cfg.headDim(), cfg.causal()};
                const std::string where =
                    strCat(cfg.name, " kvHeads ", cfg.kvHeads(), " t ", t,
                           " threads ", threads);

                MultiHeadAttention::Tape tape;
                (void)attn.forward(x, &tape);
                Tensor probs({cfg.nHeads, t, t});
                Tensor ctx({t, cfg.dModel});
                refAttnForwardCore(sh, tape.q, tape.k, tape.v, probs, ctx);
                EXPECT_EQ(mismatchCount(tape.probs.data(), probs.data(),
                                        probs.size()),
                          0)
                    << "probs, " << where;
                // wso's tape input is the context.
                EXPECT_EQ(mismatchCount(tape.wso.x.data(), ctx.data(),
                                        ctx.size()),
                          0)
                    << "ctx, " << where;

                const std::vector<Parameter *> params = attn.parameters();
                std::vector<float> gotFlat = gradBuffer(params);
                std::vector<float> wantFlat = gradBuffer(params);
                const Tensor dxGot =
                    attn.backward(dy, tape, Grads(params, gotFlat));

                const Grads want(params, wantFlat);
                const Tensor dCtx = attn.linear(WeightKind::SelfOutput)
                                        .backward(dy, tape.wso, want);
                Tensor dq({t, cfg.dModel});
                Tensor dk({t, cfg.kvDim()});
                Tensor dv({t, cfg.kvDim()});
                refAttnBackwardCore(sh, dCtx, tape, dq, dk, dv);
                attn.applyRope(dq, 0, true, cfg.nHeads);
                attn.applyRope(dk, 0, true, cfg.kvHeads());
                // dq, dk and dv reach the result only through these
                // backward calls: equal dx and equal projection grads
                // pin them.
                Tensor dxWant = attn.linear(WeightKind::Query)
                                    .backward(dq, tape.wq, want);
                axpy(dxWant, 1.0F,
                     attn.linear(WeightKind::Key).backward(dk, tape.wk, want));
                axpy(dxWant, 1.0F,
                     attn.linear(WeightKind::Value)
                         .backward(dv, tape.wv, want));
                EXPECT_EQ(mismatchCount(dxGot.data(), dxWant.data(),
                                        dxWant.size()),
                          0)
                    << "dx, " << where;
                EXPECT_EQ(mismatchCount(gotFlat.data(), wantFlat.data(),
                                        static_cast<int64_t>(gotFlat.size())),
                          0)
                    << "grads, " << where;
            }
    }
}

/*
 * Mlp::backward's elementwise step as it was before SwiGLU evaluated
 * exp(-g) once per element: silu from one exp, siluGrad from a
 * second. Verbatim, helpers included.
 */
float
refSigmoidf(float x)
{
    return 1.0F / (1.0F + std::exp(-x));
}

float
refSiluGrad(float x)
{
    const float s = refSigmoidf(x);
    return s * (1.0F + x * (1.0F - s));
}

float
refGeluGrad(float x)
{
    constexpr float kC = 0.7978845608028654F; // sqrt(2/pi)
    const float x3 = x * x * x;
    const float inner = kC * (x + 0.044715F * x3);
    const float t = std::tanh(inner);
    const float dInner = kC * (1.0F + 3.0F * 0.044715F * x * x);
    return 0.5F * (1.0F + t) + 0.5F * x * (1.0F - t * t) * dInner;
}

[[gnu::noinline]] Tensor
refMlpBackward(Mlp &mlp, Arch arch, const Tensor &dy, const Mlp::Tape &tape,
               const Grads &grads)
{
    const bool llama = arch == Arch::LlamaStyle;
    Tensor dh = mlp.linear(llama ? WeightKind::Down : WeightKind::Output)
                    .backward(dy, tape.d, grads);
    const Tensor &gatePre = tape.gatePre;
    if (llama) {
        Tensor dg(gatePre.shape());
        Tensor du(tape.up.shape());
        const float *g = gatePre.data();
        const float *u = tape.up.data();
        const float *dhp = dh.data();
        float *dgp = dg.data();
        float *dup = du.data();
        for (int64_t i = 0; i < dh.size(); ++i) {
            const float sg = g[i] / (1.0F + std::exp(-g[i])); // silu(g)
            dup[i] = dhp[i] * sg;
            dgp[i] = dhp[i] * u[i] * refSiluGrad(g[i]);
        }
        Tensor dx = mlp.linear(WeightKind::Gate).backward(dg, tape.g, grads);
        axpy(dx, 1.0F,
             mlp.linear(WeightKind::Up).backward(du, tape.u, grads));
        return dx;
    }
    Tensor dg(gatePre.shape());
    const float *g = gatePre.data();
    const float *dhp = dh.data();
    float *dgp = dg.data();
    for (int64_t i = 0; i < dh.size(); ++i)
        dgp[i] = dhp[i] * refGeluGrad(g[i]);
    return mlp.linear(WeightKind::Intermediate).backward(dg, tape.g, grads);
}

TEST(MlpBackward, SiluAndGeluBitwiseEqualToTwoExpLoop)
{
    for (const ModelConfig &cfg : {tinyLlamaConfig(), tinyBertConfig()})
        for (const int64_t t : {1, 17, 64}) {
            Rng rng(static_cast<uint64_t>(500 + t));
            Mlp mlp(cfg, 0, &rng);
            // Wide inputs drive the gate far into both tails, where
            // exp(-g) overflows or vanishes.
            const Tensor x = scale(Tensor::randn({t, cfg.dModel}, rng), 8.0F);
            const Tensor dy = Tensor::randn({t, cfg.dModel}, rng);
            Mlp::Tape tape;
            (void)mlp.forward(x, &tape);

            const std::vector<Parameter *> params = mlp.parameters();
            std::vector<float> gotFlat = gradBuffer(params);
            std::vector<float> wantFlat = gradBuffer(params);
            const Tensor dxGot =
                mlp.backward(dy, tape, Grads(params, gotFlat));
            const Tensor dxWant = refMlpBackward(
                mlp, cfg.arch, dy, tape, Grads(params, wantFlat));
            EXPECT_EQ(mismatchCount(dxGot.data(), dxWant.data(),
                                    dxWant.size()),
                      0)
                << cfg.name << " t " << t;
            EXPECT_EQ(mismatchCount(gotFlat.data(), wantFlat.data(),
                                    static_cast<int64_t>(gotFlat.size())),
                      0)
                << cfg.name << " t " << t;
        }
}

} // namespace
} // namespace lrd
