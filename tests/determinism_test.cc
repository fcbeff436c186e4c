/**
 * @file
 * Bitwise determinism of every parallelized path across thread
 * counts: the pool's fixed chunk partitioning must make matmul (all
 * transpose variants), truncatedSvd, the evaluator, and the trainer
 * produce identical bits at LRD_THREADS=1 and LRD_THREADS=8.
 *
 * This suite is the one the verify script re-runs under
 * -DLRD_SANITIZE=thread: it exercises the pool from a single posting
 * thread across resize cycles, and one model shared by every worker
 * of the evaluator, a serve batch and a trainer step, which is
 * exactly the usage TSan must see clean.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "eval/evaluator.h"
#include "linalg/linalg.h"
#include "model/config.h"
#include "model/decomp_config.h"
#include "model/linear.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "serve/batcher.h"
#include "serve/workload.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "train/model_zoo.h"
#include "train/trainer.h"
#include "util/memprobe.h"

namespace lrd {
namespace {

constexpr int kManyThreads = 8;

// The whole suite runs with metrics recording on: the instrumented
// hot paths must not perturb numeric results at any thread count.
const bool kMetricsOn = [] {
    MetricsRegistry::instance().setEnabled(true);
    return true;
}();

/** Run fn with the pool at n threads, restoring nothing: each test
 *  sets the count it needs explicitly. */
template <class Fn>
auto
withThreads(int n, Fn fn)
{
    ThreadPool::instance().resize(n);
    return fn();
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape()
           && std::memcmp(a.data(), b.data(),
                          static_cast<size_t>(a.size()) * sizeof(float))
                  == 0;
}

TEST(Determinism, MatmulAllVariantsAcrossThreadCounts)
{
    Rng rng(42);
    // Odd shapes that straddle the register-tile and row-chunk
    // boundaries of the blocked kernel.
    const Tensor a = Tensor::randn({150, 97}, rng);
    const Tensor b = Tensor::randn({97, 201}, rng);
    const Tensor bt = Tensor::randn({201, 97}, rng);
    const Tensor at = Tensor::randn({150, 201}, rng);

    const Tensor c1 = withThreads(1, [&] { return matmul(a, b); });
    const Tensor d1 = withThreads(1, [&] { return matmulTransB(a, bt); });
    const Tensor e1 = withThreads(1, [&] { return matmulTransA(a, at); });
    const Tensor cN =
        withThreads(kManyThreads, [&] { return matmul(a, b); });
    const Tensor dN =
        withThreads(kManyThreads, [&] { return matmulTransB(a, bt); });
    const Tensor eN =
        withThreads(kManyThreads, [&] { return matmulTransA(a, at); });

    EXPECT_TRUE(bitwiseEqual(c1, cN));
    EXPECT_TRUE(bitwiseEqual(d1, dN));
    EXPECT_TRUE(bitwiseEqual(e1, eN));
}

TEST(Determinism, TruncatedSvdAcrossThreadCounts)
{
    Rng rng(43);
    const Tensor a = Tensor::randn({70, 50}, rng);
    const SvdResult s1 =
        withThreads(1, [&] { return truncatedSvd(a, 8); });
    const SvdResult sN =
        withThreads(kManyThreads, [&] { return truncatedSvd(a, 8); });
    EXPECT_TRUE(bitwiseEqual(s1.u, sN.u));
    EXPECT_TRUE(bitwiseEqual(s1.v, sN.v));
    ASSERT_EQ(s1.s.size(), sN.s.size());
    for (size_t i = 0; i < s1.s.size(); ++i)
        EXPECT_EQ(s1.s[i], sN.s[i]) << "singular value " << i;
}

TEST(Determinism, ApplyToAcrossThreadCounts)
{
    // The factor step decomposes one weight per pool chunk; the model
    // it installs must not depend on how many workers shared the work.
    const ModelConfig cfg = tinyLlamaConfig();
    const DecompConfig gamma = DecompConfig::allTensors(cfg, {0, 3, 5}, 2);
    auto decomposed = [&] {
        TransformerModel model(cfg, 55);
        EXPECT_TRUE(gamma.applyTo(model).ok());
        return model.serialize();
    };
    const std::vector<uint8_t> one = withThreads(1, decomposed);
    EXPECT_EQ(withThreads(4, decomposed), one);
    EXPECT_EQ(withThreads(kManyThreads, decomposed), one);
}

TEST(Determinism, EvaluatorAcrossThreadCounts)
{
    const World &world = defaultWorld();
    const auto evalOnce = [&] {
        TransformerModel model(tinyLlamaConfig(), 1234);
        Evaluator ev(model, world, EvalOptions{16, 999, false});
        return ev.run(allBenchmarks().front());
    };
    const EvalResult r1 = withThreads(1, evalOnce);
    const EvalResult rN = withThreads(kManyThreads, evalOnce);
    EXPECT_EQ(r1.numCorrect, rN.numCorrect);
    EXPECT_EQ(r1.numTasks, rN.numTasks);
    EXPECT_EQ(r1.accuracy, rN.accuracy);
}

TEST(Determinism, TrainerAcrossThreadCounts)
{
    const World &world = defaultWorld();
    TrainOptions topts;
    topts.steps = 4;
    topts.batchSeqs = 4;
    topts.seqLen = 24;
    topts.warmupSteps = 2;
    topts.logEvery = 0;
    const auto trainOnce = [&] {
        TransformerModel model(tinyLlamaConfig(), 777);
        Trainer trainer(model, world, topts);
        const double loss = trainer.run();
        return std::make_pair(loss, model.serialize());
    };
    const auto [loss1, bytes1] = withThreads(1, trainOnce);
    const auto [lossN, bytesN] = withThreads(kManyThreads, trainOnce);
    EXPECT_EQ(loss1, lossN);
    EXPECT_EQ(bytes1, bytesN);
}

TEST(Determinism, GemmSkinnyFallbackAcrossThreadCounts)
{
    Rng rng(44);
    // Shapes below the blocked-path threshold take the fallback
    // kernels, which parallelize over columns / output rows.
    const Tensor a = Tensor::randn({1, 3000}, rng);
    const Tensor b = Tensor::randn({3000, 700}, rng);
    const Tensor bt = Tensor::randn({700, 3000}, rng);
    const Tensor c1 = withThreads(1, [&] { return matmul(a, b); });
    const Tensor cN =
        withThreads(kManyThreads, [&] { return matmul(a, b); });
    const Tensor d1 = withThreads(1, [&] { return matmulTransB(a, bt); });
    const Tensor dN =
        withThreads(kManyThreads, [&] { return matmulTransB(a, bt); });
    EXPECT_TRUE(bitwiseEqual(c1, cN));
    EXPECT_TRUE(bitwiseEqual(d1, dN));
}

/** The bitwise thread-count contract must hold at every microkernel
 *  level this host can run, not just the startup choice: each level
 *  assigns every C element to exactly one fixed row chunk and visits
 *  k-slabs in a fixed serial order. */
TEST(Determinism, MatmulAcrossThreadCountsAtEverySimdLevel)
{
    Rng rng(31);
    const Tensor a = Tensor::randn({65, 130}, rng);
    const Tensor b = Tensor::randn({130, 53}, rng);
    const Tensor bt = Tensor::randn({53, 130}, rng);
    const Tensor at = Tensor::randn({65, 96}, rng);

    const simd::Level restore = simd::activeLevel();
    for (const simd::Level level : simd::availableLevels()) {
        simd::setActiveLevel(level);
        const Tensor c1 = withThreads(1, [&] { return matmul(a, b); });
        const Tensor c4 = withThreads(4, [&] { return matmul(a, b); });
        const Tensor cN =
            withThreads(kManyThreads, [&] { return matmul(a, b); });
        EXPECT_TRUE(bitwiseEqual(c1, c4)) << simd::levelName(level);
        EXPECT_TRUE(bitwiseEqual(c1, cN)) << simd::levelName(level);

        const Tensor d1 =
            withThreads(1, [&] { return matmulTransB(a, bt); });
        const Tensor dN = withThreads(kManyThreads,
                                      [&] { return matmulTransB(a, bt); });
        EXPECT_TRUE(bitwiseEqual(d1, dN)) << simd::levelName(level);

        const Tensor e1 =
            withThreads(1, [&] { return matmulTransA(a, at); });
        const Tensor eN = withThreads(kManyThreads,
                                      [&] { return matmulTransA(a, at); });
        EXPECT_TRUE(bitwiseEqual(e1, eN)) << simd::levelName(level);
    }
    simd::setActiveLevel(restore);
}

/** The factorized forward's three-GEMM chain shares the contract, at
 *  a small rank and at one near full. */
TEST(Determinism, FusedFactorizedForwardAcrossThreadCounts)
{
    Rng rng(32);
    for (const auto &[dim, rank] :
         {std::pair<int64_t, int64_t>{96, 24}, {256, 200}}) {
        Linear l(dim, dim, /*hasBias=*/true, "dettest.factorized", rng);
        l.installFactorShape(rank);
        for (Parameter *p : l.parameters())
            p->value = Tensor::randn(p->value.shape(), rng);
        const Tensor x = Tensor::randn({96, dim}, rng);

        const Tensor y1 = withThreads(1, [&] { return l.forward(x); });
        const Tensor y4 = withThreads(4, [&] { return l.forward(x); });
        const Tensor yN =
            withThreads(kManyThreads, [&] { return l.forward(x); });
        EXPECT_TRUE(bitwiseEqual(y1, y4)) << dim << "/" << rank;
        EXPECT_TRUE(bitwiseEqual(y1, yN)) << dim << "/" << rank;
    }
}

/**
 * A decoder whose weights outweigh the per-item state (two KV-cache
 * sessions of maxSeq rows, or one short training tape) of three extra
 * in-flight items, so the tensor-arena high-water mark tells a
 * per-worker weight copy apart from per-item activations.
 */
ModelConfig
sharedModelConfig()
{
    ModelConfig c = tinyLlamaConfig();
    c.name = "shared-llama";
    c.dFf = 512;
    c.maxSeq = 48;
    return c;
}

/** Peak live tensor bytes above the starting level while fn runs. */
template <class Fn>
int64_t
arenaGrowth(Fn fn)
{
    const int64_t base = tensorArenaStats().liveBytes;
    tensorArenaResetPeakForTest();
    fn();
    return tensorArenaStats().peakLiveBytes - base;
}

/**
 * One model, shared by every pool worker: the evaluator, a serve
 * batch and a trainer step at 4 threads must reproduce 1 thread
 * bitwise, and must not hold a weight copy per worker. The 4-thread
 * runs go first, and the trained weights are then re-scored, so the
 * workers read factors an optimizer step has just rewritten.
 */
TEST(Determinism, OneSharedModelAcrossEvalServeAndTrain)
{
    const World &world = defaultWorld();
    const ModelConfig cfg = sharedModelConfig();
    std::vector<uint8_t> start;
    {
        TransformerModel model(cfg, 4321);
        // Factorized tensors exercise the shared three-GEMM chain.
        ASSERT_TRUE(model.applyTucker(0, WeightKind::Query, 8).ok());
        ASSERT_TRUE(model.applyTucker(1, WeightKind::Gate, 8).ok());
        start = model.serialize();
    }
    const int64_t weightBytes =
        TransformerModel::deserialize(start).paramCount()
        * static_cast<int64_t>(sizeof(float));

    WorkloadOptions wopts;
    wopts.numRequests = 8;
    wopts.maxContextLen = 24;
    const std::vector<ServeRequest> requests =
        makeSyntheticWorkload(cfg, wopts);

    TrainOptions topts;
    topts.steps = 1;
    topts.batchSeqs = 4;
    topts.seqLen = 8;
    topts.warmupSteps = 1;
    topts.logEvery = 0;

    struct Outcome
    {
        double accuracy = 0.0;
        int64_t evalGrowth = 0;
        std::vector<double> scores;
        int64_t serveGrowth = 0;
        std::vector<uint8_t> trained;
        int64_t trainGrowth = 0;
        double trainedAccuracy = 0.0;
    };
    const auto runAt = [&](int threads) {
        ThreadPool::instance().resize(threads);
        Outcome o;
        TransformerModel model = TransformerModel::deserialize(start);
        Evaluator ev(model, world, EvalOptions{6, 99, false});
        o.evalGrowth =
            arenaGrowth([&] { o.accuracy = ev.aggregateAccuracy(); });

        Batcher batcher(model, nullptr);
        std::vector<ServeResponse> responses(requests.size());
        std::vector<ServeResponse *> slots;
        for (ServeResponse &r : responses)
            slots.push_back(&r);
        o.serveGrowth = arenaGrowth(
            [&] { batcher.execute(requests, false, 0, slots); });
        for (const ServeResponse &r : responses) {
            EXPECT_TRUE(r.status.ok()) << r.status.toString();
            o.scores.push_back(r.score);
        }

        Trainer trainer(model, world, topts);
        o.trainGrowth = arenaGrowth([&] { (void)trainer.run(); });
        o.trained = model.serialize();
        o.trainedAccuracy = ev.aggregateAccuracy();
        return o;
    };
    const Outcome four = runAt(4);
    const Outcome one = runAt(1);

    EXPECT_EQ(one.accuracy, four.accuracy);
    ASSERT_EQ(one.scores.size(), four.scores.size());
    EXPECT_EQ(0, std::memcmp(one.scores.data(), four.scores.data(),
                             one.scores.size() * sizeof(double)));
    EXPECT_EQ(one.trained, four.trained);
    EXPECT_EQ(one.trainedAccuracy, four.trainedAccuracy);

    // More workers may hold more items' sessions and tapes in flight,
    // but never another copy of the weights.
    EXPECT_LT(four.evalGrowth - one.evalGrowth, weightBytes)
        << "eval: " << four.evalGrowth << " vs " << one.evalGrowth;
    EXPECT_LT(four.serveGrowth - one.serveGrowth, weightBytes)
        << "serve: " << four.serveGrowth << " vs " << one.serveGrowth;
    EXPECT_LT(four.trainGrowth - one.trainGrowth, weightBytes)
        << "train: " << four.trainGrowth << " vs " << one.trainGrowth;
}

} // namespace
} // namespace lrd
