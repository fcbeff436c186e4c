/**
 * @file
 * Cross-module integration tests: train -> decompose -> evaluate
 * pipelines, the Definition-1 optimizer, factorized fine-tuning
 * (the paper's future-work accuracy recovery), and cache round-trips
 * through serialization.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "dse/optimizer.h"
#include "dse/schedules.h"
#include "eval/evaluator.h"
#include "hw/opcount.h"
#include "train/trainer.h"
#include "util/table.h"

namespace lrd {
namespace {

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

/** A briefly-trained small decoder shared by the heavier tests. */
const std::vector<uint8_t> &
trainedBytes()
{
    static const std::vector<uint8_t> bytes = [] {
        ModelConfig cfg = testLlamaConfig();
        cfg.vocabSize = smallWorld().vocabSize();
        cfg.dModel = 32;
        cfg.nHeads = 4;
        cfg.dFf = 64;
        cfg.nLayers = 4;
        cfg.maxSeq = 48;
        TransformerModel model(cfg, 17);
        TrainOptions t;
        t.steps = 150;
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

TEST(Integration, TrainingImprovesModelOverUntrained)
{
    TransformerModel trained =
        TransformerModel::deserialize(trainedBytes());
    TransformerModel untrained(trained.config(), 999);
    // Held-out LM loss must improve decisively...
    TrainOptions t;
    t.seqLen = 40;
    Trainer probeT(trained, smallWorld(), t);
    Trainer probeU(untrained, smallWorld(), t);
    EXPECT_LT(probeT.evalLoss(10), probeU.evalLoss(10) - 0.5);
    // ...and aggregate benchmark accuracy must be higher.
    Evaluator evT(trained, smallWorld(), EvalOptions{40, 3, false});
    Evaluator evU(untrained, smallWorld(), EvalOptions{40, 3, false});
    EXPECT_GT(evT.aggregateAccuracy(), evU.aggregateAccuracy() + 0.05);
}

TEST(Integration, DecompositionAtFullRankPreservesAccuracy)
{
    TransformerModel model =
        TransformerModel::deserialize(trainedBytes());
    const ModelConfig cfg = model.config();
    Evaluator ev(model, smallWorld(), EvalOptions{50, 5, false});
    const double before = ev.run(BenchmarkKind::ArcEasy).accuracy;
    // Full-rank factorization is (numerically) lossless.
    DecompConfig gamma =
        DecompConfig::allTensors(cfg, {1, 2}, cfg.dModel);
    ASSERT_TRUE(gamma.applyTo(model).ok());
    const double after = ev.run(BenchmarkKind::ArcEasy).accuracy;
    EXPECT_NEAR(before, after, 0.05);
}

TEST(Integration, Rank1EverythingDegradesTowardChance)
{
    TransformerModel model =
        TransformerModel::deserialize(trainedBytes());
    const ModelConfig cfg = model.config();
    std::vector<int> all;
    for (int l = 0; l < cfg.nLayers; ++l)
        all.push_back(l);
    TransformerModel dense =
        TransformerModel::deserialize(trainedBytes());
    ASSERT_TRUE(DecompConfig::allTensors(cfg, all, 1).applyTo(model).ok());
    // Rank-1 everywhere must cost real language-model quality. (On
    // this deliberately tiny test world the MC accuracies are too
    // coarse to be a reliable probe, so held-out loss is the signal.)
    TrainOptions t;
    t.seqLen = 40;
    Trainer probeDense(dense, smallWorld(), t);
    Trainer probeDec(model, smallWorld(), t);
    EXPECT_GT(probeDec.evalLoss(10), probeDense.evalLoss(10) + 0.1);
}

TEST(Integration, DecomposedModelStillGeneratesAndScores)
{
    TransformerModel model =
        TransformerModel::deserialize(trainedBytes());
    ASSERT_TRUE(DecompConfig::allTensors(model.config(), {0, 2}, 2).applyTo(model).ok());
    const TokenSeq out = greedyGenerate(model, {1, 12, 4}, 5, -1);
    EXPECT_LE(out.size(), 5U);
    const double ll = scoreContinuation(model, {1, 12}, {4});
    EXPECT_LT(ll, 0.0);
    EXPECT_TRUE(std::isfinite(ll));
}

TEST(Integration, OptimizerRespectsTolerance)
{
    OptimizerOptions opts;
    opts.evalTasks = 20;
    opts.accuracyDropTolerance = 1.1; // everything feasible
    const OptimizerResult loose =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    EXPECT_FALSE(loose.explored.empty());
    // With an always-satisfied constraint the minimum-EDP candidate
    // is the deepest decomposition.
    double minEdp = 1e30;
    for (const CandidateRecord &r : loose.explored)
        minEdp = std::min(minEdp, r.edp);
    EXPECT_NEAR(loose.best.edp, minEdp, 1e-12);
    EXPECT_LT(loose.best.edp, loose.baselineEdp);

    opts.accuracyDropTolerance = 0.0; // nothing feasible (drop >= 0)
    const OptimizerResult strict =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    EXPECT_TRUE(strict.best.config.empty());
}

TEST(Integration, OptimizerExploresWholeLadder)
{
    OptimizerOptions opts;
    opts.evalTasks = 10;
    const OptimizerResult res =
        optimizeDecomposition(trainedBytes(), smallWorld(), opts);
    TransformerModel model =
        TransformerModel::deserialize(trainedBytes());
    EXPECT_EQ(res.explored.size(),
              static_cast<size_t>(model.config().nLayers)
                  * opts.candidateRanks.size());
    for (const CandidateRecord &r : res.explored) {
        EXPECT_GT(r.reduction, 0.0);
        EXPECT_GT(r.latencySec, 0.0);
        EXPECT_GT(r.energyJ, 0.0);
    }
}

TEST(Integration, FineTuningRecoversFactorizedAccuracy)
{
    // The paper's future-work experiment: decompose, then fine-tune
    // *through the factors* to recover quality. We verify the loss
    // recovers measurably after a short factorized fine-tune.
    TransformerModel model =
        TransformerModel::deserialize(trainedBytes());
    TrainOptions t;
    t.steps = 40;
    t.batchSeqs = 4;
    t.seqLen = 40;
    t.warmupSteps = 5;
    t.lr = 1e-3;
    t.logEvery = 0;
    Trainer probe(model, smallWorld(), t);
    const double denseLoss = probe.evalLoss(8);

    ASSERT_TRUE(DecompConfig::allTensors(model.config(), {1, 2}, 2).applyTo(model).ok());
    const double decomposedLoss = probe.evalLoss(8);
    EXPECT_GT(decomposedLoss, denseLoss); // decomposition hurts

    Trainer recover(model, smallWorld(), t);
    recover.run(); // trains the u1/core/u2 factors too
    const double recoveredLoss = recover.evalLoss(8);
    EXPECT_LT(recoveredLoss, decomposedLoss - 0.02);
}

TEST(Integration, OpCountMatchesLiveModelForDecomposedConfig)
{
    // The analytical weight-byte model must agree with the live
    // parameter count of a decomposed model (FP32 here, 4 bytes).
    TransformerModel model =
        TransformerModel::deserialize(trainedBytes());
    const ModelConfig cfg = model.config();
    const DecompConfig gamma = DecompConfig::allTensors(cfg, {0, 3}, 1);
    ASSERT_TRUE(gamma.applyTo(model).ok());
    EXPECT_EQ(transformerWeightBytes(cfg, gamma, 4),
              model.paramCount() * 4);
}

TEST(Integration, EvalIsDeterministicAcrossProcessesViaSerialization)
{
    TransformerModel a = TransformerModel::deserialize(trainedBytes());
    TransformerModel b = TransformerModel::deserialize(trainedBytes());
    Evaluator evA(a, smallWorld(), EvalOptions{40, 9, false});
    Evaluator evB(b, smallWorld(), EvalOptions{40, 9, false});
    for (BenchmarkKind kind :
         {BenchmarkKind::ArcEasy, BenchmarkKind::Gsm8k}) {
        EXPECT_EQ(evA.run(kind).numCorrect, evB.run(kind).numCorrect)
            << benchmarkName(kind);
    }
}

/** `lrdtool info` prints parameter counts through
 *  TablePrinter::scaled: the tiny presets must not collapse to
 *  "0.000 B", and the paper's presets keep their billions. */
TEST(Integration, PresetParamCountsPrintInScaledUnits)
{
    EXPECT_EQ(TablePrinter::scaled(
                  static_cast<double>(tinyLlamaConfig().totalParams())),
              "443.456 K");
    EXPECT_EQ(TablePrinter::scaled(
                  static_cast<double>(bertBaseConfig().totalParams())),
              "132.329 M");
    EXPECT_EQ(TablePrinter::scaled(
                  static_cast<double>(llama2_7bConfig().totalParams())),
              "6.738 B");
}

} // namespace
} // namespace lrd
