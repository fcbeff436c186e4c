/**
 * @file
 * End-to-end fault-tolerance tests: trainer and DSE kill-and-resume
 * (an injected cancellation mid-run, then a resumed run that must be
 * bitwise identical to the uninterrupted one at every thread count),
 * evaluator failure budgets under poisoned activations, and
 * recovery-policy behavior of the factorization path.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "dse/optimizer.h"
#include "eval/evaluator.h"
#include "model/transformer.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/checkpoint.h"
#include "robust/fault.h"
#include "robust/recovery.h"
#include "robust/signal.h"
#include "train/trainer.h"

namespace lrd {
namespace {

namespace fs = std::filesystem;

/** Restores the default policy and disarms faults around each test. */
struct RobustGuard
{
    RobustGuard() { reset(); }
    ~RobustGuard() { reset(); }

    static void reset()
    {
        clearFaults();
        setRobustPolicy(RobustPolicy{});
        (void)takeNumericFault();
        // The cancel token is process-wide: a leftover request or
        // armed deadline would abort every later test immediately.
        clearCancelRequest();
        clearDeadline();
        resetSignalsForTest();
    }
};

WorldSpec
smallSpec()
{
    WorldSpec s;
    s.numEntities = 12;
    s.numColors = 5;
    s.numCategories = 5;
    s.numPlaces = 5;
    s.numNumbers = 14;
    s.numVerbs = 3;
    s.numPatternSymbols = 6;
    s.seed = 7;
    return s;
}

const World &
smallWorld()
{
    static World w(smallSpec());
    return w;
}

ModelConfig
smallConfig()
{
    ModelConfig cfg = testLlamaConfig();
    cfg.vocabSize = smallWorld().vocabSize();
    cfg.dModel = 32;
    cfg.nHeads = 4;
    cfg.dFf = 64;
    cfg.nLayers = 4;
    cfg.maxSeq = 48;
    return cfg;
}

/** A briefly-trained small decoder shared by the DSE tests. */
const std::vector<uint8_t> &
trainedBytes()
{
    static const std::vector<uint8_t> bytes = [] {
        TransformerModel model(smallConfig(), 17);
        TrainOptions t;
        t.steps = 60;
        t.batchSeqs = 4;
        t.seqLen = 40;
        t.warmupSteps = 10;
        t.logEvery = 0;
        Trainer trainer(model, smallWorld(), t);
        trainer.run();
        return model.serialize();
    }();
    return bytes;
}

/** Fresh checkpoint path (primary, .prev and .tmp all removed). */
std::string
ckptPath(const std::string &name)
{
    const fs::path p = fs::temp_directory_path() / name;
    fs::remove(p);
    fs::remove(p.string() + ".prev");
    fs::remove(checkpointTmpPath(p.string()));
    return p.string();
}

TrainOptions
resumableTrainOptions()
{
    TrainOptions t;
    t.steps = 10;
    t.batchSeqs = 4;
    t.seqLen = 24;
    t.warmupSteps = 2;
    t.logEvery = 0;
    return t;
}

TEST(Resume, TrainerKillAndResumeIsBitwiseIdentical)
{
    RobustGuard guard;
    for (int nThreads : {1, 4, 8}) {
        ThreadPool::instance().resize(nThreads);

        // Uninterrupted reference run (no checkpointing).
        TrainOptions clean = resumableTrainOptions();
        TransformerModel refModel(smallConfig(), 777);
        Trainer ref(refModel, smallWorld(), clean);
        const double refLoss = ref.run();
        const std::vector<uint8_t> refBytes = refModel.serialize();

        // Interrupted run: an injected cancellation kills the loop
        // before step 7; the step-4 checkpoint is the resume point.
        TrainOptions opts = resumableTrainOptions();
        opts.checkpointPath =
            ckptPath("lrd_resume_train_" + std::to_string(nThreads)
                     + ".bin");
        opts.checkpointEvery = 4;
        {
            TransformerModel model(smallConfig(), 777);
            Trainer trainer(model, smallWorld(), opts);
            setFault(FaultSpec{"train.step", FaultKind::Cancel, 8});
            trainer.run();
            clearFaults();
            clearCancelRequest();
            ASSERT_EQ(trainer.runStatus().code(), StatusCode::Cancelled)
                << "threads=" << nThreads;
        }

        // Resumed run: picks up at the checkpoint and must land on
        // bitwise the same weights and loss as the reference.
        opts.resume = true;
        TransformerModel model(smallConfig(), 777);
        Trainer trainer(model, smallWorld(), opts);
        const double loss = trainer.run();
        EXPECT_TRUE(trainer.runStatus().ok());
        EXPECT_EQ(loss, refLoss) << "threads=" << nThreads;
        EXPECT_EQ(model.serialize(), refBytes) << "threads=" << nThreads;
    }
    ThreadPool::instance().resize(1);
}

TEST(Resume, TrainerSigintKillAndResumeIsBitwiseIdentical)
{
    RobustGuard guard;
    // Real handler path: the injected cancel fault raises an actual
    // SIGINT, which travels through the async-signal-safe handler into
    // the cooperative token — exactly what an operator's Ctrl-C does.
    installSignalHandlers();
    for (int nThreads : {1, 4, 8}) {
        ThreadPool::instance().resize(nThreads);

        TrainOptions clean = resumableTrainOptions();
        TransformerModel refModel(smallConfig(), 777);
        Trainer ref(refModel, smallWorld(), clean);
        const double refLoss = ref.run();
        const std::vector<uint8_t> refBytes = refModel.serialize();

        TrainOptions opts = resumableTrainOptions();
        opts.checkpointPath =
            ckptPath("lrd_sigint_train_" + std::to_string(nThreads)
                     + ".bin");
        opts.checkpointEvery = 4;
        {
            TransformerModel model(smallConfig(), 777);
            Trainer trainer(model, smallWorld(), opts);
            resetSignalsForTest();
            setFault(FaultSpec{"train.step", FaultKind::Cancel, 8});
            trainer.run();
            clearFaults();
            ASSERT_EQ(trainer.runStatus().code(), StatusCode::Cancelled)
                << "threads=" << nThreads;
            EXPECT_EQ(cancelCause(), CancelCause::Signal);
            EXPECT_EQ(signalsSeen(), 1);
            clearCancelRequest();
            resetSignalsForTest();
        }

        opts.resume = true;
        TransformerModel model(smallConfig(), 777);
        Trainer trainer(model, smallWorld(), opts);
        const double loss = trainer.run();
        EXPECT_TRUE(trainer.runStatus().ok());
        EXPECT_EQ(loss, refLoss) << "threads=" << nThreads;
        EXPECT_EQ(model.serialize(), refBytes) << "threads=" << nThreads;
    }
    ThreadPool::instance().resize(1);
}

TEST(Resume, TrainerResumeWithoutCheckpointStartsFresh)
{
    RobustGuard guard;
    ThreadPool::instance().resize(1);
    TrainOptions opts = resumableTrainOptions();
    opts.steps = 2;
    opts.checkpointPath = ckptPath("lrd_resume_train_fresh.bin");
    opts.checkpointEvery = 1;
    opts.resume = true; // Nothing on disk yet: fresh start, no error.

    TransformerModel model(smallConfig(), 777);
    Trainer trainer(model, smallWorld(), opts);
    trainer.run();
    EXPECT_TRUE(trainer.runStatus().ok());
    EXPECT_TRUE(fs::exists(opts.checkpointPath));
}

void
expectSameRecords(const std::vector<CandidateRecord> &a,
                  const std::vector<CandidateRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].config.describe(), b[i].config.describe()) << i;
        EXPECT_EQ(a[i].accuracy, b[i].accuracy) << i;
        EXPECT_EQ(a[i].latencySec, b[i].latencySec) << i;
        EXPECT_EQ(a[i].energyJ, b[i].energyJ) << i;
        EXPECT_EQ(a[i].edp, b[i].edp) << i;
        EXPECT_EQ(a[i].reduction, b[i].reduction) << i;
        EXPECT_EQ(a[i].feasible, b[i].feasible) << i;
        EXPECT_EQ(a[i].failed, b[i].failed) << i;
    }
}

TEST(Resume, DseKillAndResumeMatchesUninterruptedSweep)
{
    RobustGuard guard;
    ThreadPool::instance().resize(4);

    OptimizerOptions opts;
    opts.evalTasks = 10;
    opts.accuracyDropTolerance = 1.1;

    // Uninterrupted reference sweep.
    const OptimizerResult ref =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    ASSERT_FALSE(ref.cancelled);

    // Interrupted sweep: the cancel fires at the start of the second
    // batch, so only the first checkpointEvery candidates complete.
    opts.checkpointPath = ckptPath("lrd_resume_dse.bin");
    opts.checkpointEvery = 2;
    setFault(FaultSpec{"dse.batch", FaultKind::Cancel, 2});
    const OptimizerResult cut =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    clearFaults();
    clearCancelRequest();
    ASSERT_TRUE(cut.cancelled);
    EXPECT_EQ(cut.status.code(), StatusCode::Cancelled);
    EXPECT_EQ(cut.explored.size(), 2U);
    ASSERT_TRUE(fs::exists(opts.checkpointPath));

    // Resumed sweep: restores the baseline and the completed prefix
    // from the checkpoint and must reproduce the reference bitwise.
    opts.resume = true;
    const OptimizerResult resumed =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    ASSERT_FALSE(resumed.cancelled);
    EXPECT_EQ(resumed.baselineAccuracy, ref.baselineAccuracy);
    EXPECT_EQ(resumed.baselineEdp, ref.baselineEdp);
    expectSameRecords(resumed.explored, ref.explored);
    EXPECT_EQ(resumed.best.config.describe(), ref.best.config.describe());
    EXPECT_EQ(resumed.best.edp, ref.best.edp);
    ThreadPool::instance().resize(1);
}

TEST(Resume, DseSigintKillAndResumeMatchesUninterruptedSweep)
{
    RobustGuard guard;
    installSignalHandlers();
    ThreadPool::instance().resize(4);

    OptimizerOptions opts;
    opts.evalTasks = 10;
    opts.accuracyDropTolerance = 1.1;

    const OptimizerResult ref =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    ASSERT_FALSE(ref.cancelled);

    // A real SIGINT at the start of the second batch: the sweep
    // checkpoints the completed prefix and stops as Cancelled.
    opts.checkpointPath = ckptPath("lrd_sigint_dse.bin");
    opts.checkpointEvery = 2;
    resetSignalsForTest();
    setFault(FaultSpec{"dse.batch", FaultKind::Cancel, 2});
    const OptimizerResult cut =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    clearFaults();
    ASSERT_TRUE(cut.cancelled);
    EXPECT_EQ(cut.status.code(), StatusCode::Cancelled);
    EXPECT_EQ(cancelCause(), CancelCause::Signal);
    EXPECT_EQ(signalsSeen(), 1);
    clearCancelRequest();
    resetSignalsForTest();
    ASSERT_TRUE(fs::exists(opts.checkpointPath));

    opts.resume = true;
    const OptimizerResult resumed =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    ASSERT_FALSE(resumed.cancelled);
    EXPECT_EQ(resumed.baselineAccuracy, ref.baselineAccuracy);
    EXPECT_EQ(resumed.baselineEdp, ref.baselineEdp);
    expectSameRecords(resumed.explored, ref.explored);
    EXPECT_EQ(resumed.best.config.describe(), ref.best.config.describe());
    EXPECT_EQ(resumed.best.edp, ref.best.edp);
    ThreadPool::instance().resize(1);
}

TEST(Resume, EvaluatorDegradesPoisonedItemsWithinBudget)
{
    RobustGuard guard;
    ThreadPool::instance().resize(1);
    RobustPolicy degrade;
    degrade.mode = RobustMode::Degrade;
    degrade.failureBudget = 0.5;
    setRobustPolicy(degrade);

    TransformerModel model(smallConfig(), 42);
    Evaluator ev(model, smallWorld(), EvalOptions{12, 5, false});

    // One poisoned activation: exactly one item fails, the sweep
    // completes, and the failure is reported in the result.
    setFault(FaultSpec{"model.block", FaultKind::Nan, 1});
    const EvalResult r = ev.run(BenchmarkKind::ArcEasy);
    clearFaults();
    EXPECT_EQ(r.numFailed, 1);
    EXPECT_EQ(r.numTasks, 12);

    // With a zero budget the same poisoned run is fatal.
    degrade.failureBudget = 0.0;
    setRobustPolicy(degrade);
    setFault(FaultSpec{"model.block", FaultKind::Nan, 1});
    EXPECT_THROW(ev.run(BenchmarkKind::ArcEasy), std::runtime_error);
    clearFaults();
}

TEST(Resume, EvaluatorDegradesInjectedAllocFailure)
{
    RobustGuard guard;
    ThreadPool::instance().resize(1);
    RobustPolicy degrade;
    degrade.mode = RobustMode::Degrade;
    degrade.failureBudget = 0.5;
    setRobustPolicy(degrade);

    TransformerModel model(smallConfig(), 42);
    Evaluator ev(model, smallWorld(), EvalOptions{12, 5, false});
    setFault(FaultSpec{"eval.item", FaultKind::Alloc, 3});
    const EvalResult r = ev.run(BenchmarkKind::ArcEasy);
    clearFaults();
    EXPECT_EQ(r.numFailed, 1);
    EXPECT_EQ(r.numTasks, 12);
}

TEST(Resume, FactorizeDegradeKeepsDenseOnNonConvergence)
{
    RobustGuard guard;
    ThreadPool::instance().resize(1);
    TransformerModel model(smallConfig(), 42);
    const int64_t denseParams = model.paramCount();

    setFault(FaultSpec{"jacobi", FaultKind::NonConverge, 1});
    const Status s = model.applyTucker(0, WeightKind::Query, 2);
    clearFaults();
    EXPECT_EQ(s.code(), StatusCode::NonConvergence);
    // Degrade keeps the dense weight: the model is untouched and
    // usable.
    EXPECT_FALSE(model.linear(0, WeightKind::Query).isFactorized());
    EXPECT_EQ(model.paramCount(), denseParams);
}

TEST(Resume, StrictPolicyFailsFastOnNonConvergence)
{
    RobustGuard guard;
    ThreadPool::instance().resize(1);
    RobustPolicy strict;
    strict.mode = RobustMode::Strict;
    setRobustPolicy(strict);

    TransformerModel model(smallConfig(), 42);
    setFault(FaultSpec{"jacobi", FaultKind::NonConverge, 1});
    EXPECT_THROW(model.applyTucker(0, WeightKind::Query, 2),
                 std::runtime_error);
    clearFaults();
}

/** A kill-and-resume DSE sweep over factorized candidates must
 *  reproduce the uninterrupted one bitwise. */
TEST(Resume, DseKillAndResumeIsBitwiseWithFusedPathEngaged)
{
    RobustGuard guard;
    ThreadPool::instance().resize(2);
    MetricsRegistry::instance().setEnabled(true);

    OptimizerOptions opts;
    opts.evalTasks = 6;
    opts.accuracyDropTolerance = 1.1;
    const OptimizerResult ref =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    ASSERT_FALSE(ref.cancelled);

    opts.checkpointPath = ckptPath("lrd_resume_dse_fused.bin");
    opts.checkpointEvery = 2;
    setFault(FaultSpec{"dse.batch", FaultKind::Cancel, 2});
    const OptimizerResult cut =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    clearFaults();
    clearCancelRequest();
    ASSERT_TRUE(cut.cancelled);

    opts.resume = true;
    const OptimizerResult resumed =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    ASSERT_FALSE(resumed.cancelled);
    expectSameRecords(resumed.explored, ref.explored);
    EXPECT_EQ(resumed.best.edp, ref.best.edp);
    MetricsRegistry::instance().setEnabled(false);
    ThreadPool::instance().resize(1);
}

} // namespace
} // namespace lrd
