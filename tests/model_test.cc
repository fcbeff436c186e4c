/**
 * @file
 * Tests for the transformer model library: configuration arithmetic,
 * dense/factorized Linear equivalence, finite-difference gradient
 * checks through every layer type, causality, KV-cache consistency,
 * serialization, and basic trainability.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "model/transformer.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace lrd {
namespace {

TokenSeq
randomTokens(const ModelConfig &cfg, int64_t n, Rng &rng)
{
    TokenSeq t;
    for (int64_t i = 0; i < n; ++i)
        t.push_back(static_cast<int>(
            rng.uniformInt(static_cast<uint64_t>(cfg.vocabSize))));
    return t;
}

std::vector<int>
shiftTargets(const TokenSeq &tokens)
{
    std::vector<int> targets(tokens.begin() + 1, tokens.end());
    targets.push_back(-1);
    return targets;
}

TEST(Config, ValidationCatchesBadDims)
{
    ModelConfig c = testLlamaConfig();
    c.nHeads = 3; // 16 % 3 != 0
    EXPECT_THROW(c.validate(), std::runtime_error);
    c = testLlamaConfig();
    c.vocabSize = 0;
    EXPECT_THROW(c.validate(), std::runtime_error);
}

TEST(Config, DecomposableKindCountsMatchPaper)
{
    // Figure 4: 7 tensors in a Llama layer, 6 in a BERT layer.
    EXPECT_EQ(decomposableKinds(Arch::LlamaStyle).size(), 7U);
    EXPECT_EQ(decomposableKinds(Arch::BertStyle).size(), 6U);
}

TEST(Config, WeightShapesMatchArchitecture)
{
    ModelConfig llama = llama2_7bConfig();
    EXPECT_EQ(llama.weightShape(WeightKind::Query),
              (std::vector<int64_t>{4096, 4096}));
    EXPECT_EQ(llama.weightShape(WeightKind::Gate),
              (std::vector<int64_t>{11008, 4096}));
    EXPECT_EQ(llama.weightShape(WeightKind::Down),
              (std::vector<int64_t>{4096, 11008}));
    EXPECT_THROW(llama.weightShape(WeightKind::Intermediate),
                 std::runtime_error);

    ModelConfig bert = bertBaseConfig();
    EXPECT_EQ(bert.weightShape(WeightKind::Intermediate),
              (std::vector<int64_t>{3072, 768}));
    EXPECT_THROW(bert.weightShape(WeightKind::Gate), std::runtime_error);
}

TEST(Config, FullSizeParamCountsMatchPublishedScale)
{
    // Llama2-7B has ~6.7B parameters; BERT-Base ~110M.
    const double llama = static_cast<double>(llama2_7bConfig().totalParams());
    EXPECT_GT(llama, 6.5e9);
    EXPECT_LT(llama, 7.1e9);
    // Our BERT config uses an untied LM head (+23M over the published
    // tied-decoder 110M).
    const double bert = static_cast<double>(bertBaseConfig().totalParams());
    EXPECT_GT(bert, 1.0e8);
    EXPECT_LT(bert, 1.4e8);
}

TEST(Config, ModelParamCountMatchesConfigFormula)
{
    for (const ModelConfig &cfg : {testLlamaConfig(), testBertConfig()}) {
        TransformerModel m(cfg);
        EXPECT_EQ(m.paramCount(), cfg.totalParams()) << cfg.name;
    }
}

TEST(Linear, FactorizeReducesParamsPerFormula)
{
    Rng rng(1);
    Linear l(24, 16, false, "t", rng);
    const int64_t dense = l.paramCount();
    EXPECT_EQ(dense, 24 * 16);
    ASSERT_TRUE(l.factorize(2).ok());
    EXPECT_TRUE(l.isFactorized());
    EXPECT_EQ(l.paramCount(), 24 * 2 + 2 * 2 + 2 * 16);
    EXPECT_LT(l.paramCount(), dense);
}

TEST(Linear, FullRankFactorizationPreservesOutput)
{
    Rng rng(2);
    Linear l(12, 10, false, "t", rng);
    Tensor x = Tensor::randn({5, 10}, rng);
    Tensor dense = l.forward(x);
    ASSERT_TRUE(l.factorize(10).ok());
    Tensor fact = l.forward(x);
    EXPECT_LT(relativeError(dense, fact), 1e-3);
}

TEST(Linear, DensifyRoundTrip)
{
    Rng rng(3);
    Linear l(8, 8, false, "t", rng);
    Tensor w0 = l.weight().value;
    ASSERT_TRUE(l.factorize(8).ok());
    l.densify();
    EXPECT_LT(relativeError(w0, l.weight().value), 1e-4);
}

TEST(Linear, FactorizedOutputErrorShrinksWithRank)
{
    Rng rng(4);
    Tensor x = Tensor::randn({6, 20}, rng);
    double prev = 1e9;
    for (int64_t pr : {1, 4, 10, 16}) {
        Rng r1(4);
        Linear l(16, 20, false, "t", r1);
        Rng r2(4);
        Linear dense(16, 20, false, "t", r2);
        Tensor want = dense.forward(x);
        ASSERT_TRUE(l.factorize(pr).ok());
        const double err = relativeError(want, l.forward(x));
        EXPECT_LE(err, prev + 1e-6) << "pr " << pr;
        prev = err;
    }
    EXPECT_LT(prev, 1e-3);
}

TEST(Linear, WeightAccessorFatalWhenFactorized)
{
    Rng rng(5);
    Linear l(4, 4, false, "t", rng);
    ASSERT_TRUE(l.factorize(1).ok());
    EXPECT_THROW(l.weight(), std::runtime_error);
    EXPECT_THROW(l.factorize(1), std::runtime_error);
}

TEST(Model, ForwardShapeAndFiniteness)
{
    for (const ModelConfig &cfg : {testLlamaConfig(), testBertConfig()}) {
        TransformerModel m(cfg);
        Rng rng(6);
        TokenSeq toks = randomTokens(cfg, 10, rng);
        Tensor logits = m.forward(toks);
        EXPECT_EQ(logits.shape(), (Shape{10, cfg.vocabSize})) << cfg.name;
        EXPECT_TRUE(logits.allFinite()) << cfg.name;
    }
}

/** The model holds only weights: a taped forward records into the
 *  caller's tape, leaves the weights untouched, and matches the
 *  untaped forward bitwise; clearCache() is a documented no-op. */
TEST(Model, ForwardHoldsNoStateAndClearCacheIsANoOp)
{
    for (const ModelConfig &cfg : {testLlamaConfig(), testBertConfig()}) {
        TransformerModel m(cfg);
        Rng rng(16);
        TokenSeq toks = randomTokens(cfg, 8, rng);
        const std::vector<uint8_t> weights = m.serialize();
        TransformerModel::Tape tape;
        const Tensor taped = m.forward(toks, &tape);
        EXPECT_EQ(static_cast<int64_t>(tape.blocks.size()), cfg.nLayers);
        EXPECT_EQ(tape.lmHead.x.dim(0), 8) << cfg.name;
        EXPECT_EQ(m.serialize(), weights) << cfg.name;
        m.clearCache();
        const Tensor plain = m.forward(toks);
        ASSERT_EQ(taped.shape(), plain.shape());
        for (int64_t i = 0; i < taped.size(); ++i)
            ASSERT_EQ(taped[i], plain[i]) << cfg.name << " at " << i;
    }
}

TEST(Model, ForwardRejectsOverlongSequence)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg);
    Rng rng(7);
    TokenSeq toks = randomTokens(cfg, cfg.maxSeq + 1, rng);
    EXPECT_THROW(m.forward(toks), std::runtime_error);
}

TEST(Model, CausalityFutureTokensDoNotAffectPast)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg);
    Rng rng(8);
    TokenSeq a = randomTokens(cfg, 8, rng);
    TokenSeq b = a;
    b[7] = (b[7] + 1) % static_cast<int>(cfg.vocabSize);
    Tensor la = m.forward(a);
    Tensor lb = m.forward(b);
    // Rows 0..6 must be identical; row 7 must differ.
    for (int64_t i = 0; i < 7; ++i)
        for (int64_t j = 0; j < cfg.vocabSize; ++j)
            ASSERT_FLOAT_EQ(la(i, j), lb(i, j)) << "row " << i;
    double diff = 0.0;
    for (int64_t j = 0; j < cfg.vocabSize; ++j)
        diff += std::abs(la(7, j) - lb(7, j));
    EXPECT_GT(diff, 1e-4);
}

TEST(Model, BertIsBidirectional)
{
    ModelConfig cfg = testBertConfig();
    TransformerModel m(cfg);
    Rng rng(9);
    TokenSeq a = randomTokens(cfg, 8, rng);
    TokenSeq b = a;
    b[7] = (b[7] + 1) % static_cast<int>(cfg.vocabSize);
    Tensor la = m.forward(a);
    Tensor lb = m.forward(b);
    // Early rows must change: the encoder attends to the future.
    double diff = 0.0;
    for (int64_t j = 0; j < cfg.vocabSize; ++j)
        diff += std::abs(la(0, j) - lb(0, j));
    EXPECT_GT(diff, 1e-6);
}

TEST(Model, KvCacheMatchesFullForward)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg);
    Rng rng(10);
    TokenSeq toks = randomTokens(cfg, 9, rng);

    Tensor full = m.forward(toks);
    InferenceSession session(m);
    // Feed a 4-token chunk then the rest one-by-one.
    TokenSeq head(toks.begin(), toks.begin() + 4);
    Tensor logits = session.append(head);
    for (int64_t j = 0; j < cfg.vocabSize; ++j)
        EXPECT_NEAR(logits[j], full(3, j), 2e-3) << "after prefill";
    for (size_t i = 4; i < toks.size(); ++i) {
        logits = session.append({toks[i]});
        for (int64_t j = 0; j < cfg.vocabSize; ++j)
            ASSERT_NEAR(logits[j], full(static_cast<int64_t>(i), j), 2e-3)
                << "pos " << i;
    }
}

TEST(Model, KvCacheWorksWithFactorizedLayers)
{
    // Rank 1 on all seven tensors puts every factor product of a
    // one-token step on the small-k gemmTransB path.
    for (const int64_t rank : {2, 1}) {
        ModelConfig cfg = testLlamaConfig();
        TransformerModel m(cfg);
        for (WeightKind k : decomposableKinds(cfg.arch))
            ASSERT_TRUE(m.applyTucker(0, k, rank).ok());
        Rng rng(11);
        TokenSeq toks = randomTokens(cfg, 6, rng);
        Tensor full = m.forward(toks);
        InferenceSession session(m);
        Tensor logits = session.append(toks);
        for (int64_t j = 0; j < cfg.vocabSize; ++j)
            EXPECT_NEAR(logits[j], full(5, j), 2e-3) << "rank " << rank;

        InferenceSession stepwise(m);
        for (size_t t = 0; t < toks.size(); ++t) {
            const Tensor step = stepwise.append({toks[t]});
            for (int64_t j = 0; j < cfg.vocabSize; ++j)
                EXPECT_NEAR(step[j], full(static_cast<int64_t>(t), j), 2e-3)
                    << "rank " << rank << " position " << t;
        }
    }
}

TEST(Model, ScoreContinuationMatchesFullForward)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg);
    Rng rng(12);
    TokenSeq ctx = randomTokens(cfg, 5, rng);
    TokenSeq cont = randomTokens(cfg, 3, rng);

    TokenSeq all = ctx;
    all.insert(all.end(), cont.begin(), cont.end());
    Tensor logits = m.forward(all);
    Tensor lp = logSoftmaxLastDim(logits);
    double want = 0.0;
    for (size_t i = 0; i < cont.size(); ++i)
        want += lp(static_cast<int64_t>(ctx.size() + i) - 1,
                   cont[i]);

    EXPECT_NEAR(scoreContinuation(m, ctx, cont), want, 5e-3);
}

TEST(Model, SerializationRoundTripsExactLogits)
{
    for (const ModelConfig &cfg : {testLlamaConfig(), testBertConfig()}) {
        TransformerModel m(cfg, /*seed=*/99);
        auto bytes = m.serialize();
        TransformerModel m2 = TransformerModel::deserialize(bytes);
        Rng rng(13);
        TokenSeq toks = randomTokens(cfg, 7, rng);
        EXPECT_LT(relativeError(m.forward(toks), m2.forward(toks)), 1e-7)
            << cfg.name;
    }
}

TEST(Model, FactorizedSerializationRoundTrips)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg, 42);
    ASSERT_TRUE(m.applyTucker(1, WeightKind::Gate, 2).ok());
    ASSERT_TRUE(m.applyTucker(0, WeightKind::Query, 1).ok());
    const auto bytes = m.serialize();
    TransformerModel m2 = TransformerModel::deserialize(bytes);
    EXPECT_TRUE(m2.anyFactorized());
    EXPECT_EQ(m2.paramCount(), m.paramCount());
    Rng rng(4);
    TokenSeq toks = randomTokens(cfg, 6, rng);
    EXPECT_LT(relativeError(m.forward(toks), m2.forward(toks)), 1e-7);
    // A compressed checkpoint is smaller than the dense one.
    TransformerModel dense(cfg, 42);
    EXPECT_LT(bytes.size(), dense.serialize().size());
}

TEST(Model, ApplyTuckerReducesParamCount)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg);
    const int64_t before = m.paramCount();
    ASSERT_TRUE(m.applyTucker(0, WeightKind::Query, 1).ok());
    const int64_t after = m.paramCount();
    // Test config dModel = 16, pr = 1: dense 256 -> 16 + 1 + 16.
    EXPECT_EQ(before - after, 16 * 16 - (16 * 1 + 1 * 1 + 1 * 16));
}

TEST(Gqa, MatchesMhaWhenKvHeadsEqualHeads)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel mha(cfg, 33);
    ModelConfig gqaCfg = cfg;
    gqaCfg.nKvHeads = cfg.nHeads; // explicit == implicit
    TransformerModel gqa(gqaCfg, 33);
    Rng rng(50);
    TokenSeq toks = randomTokens(cfg, 8, rng);
    EXPECT_LT(relativeError(mha.forward(toks), gqa.forward(toks)), 1e-7);
}

TEST(Gqa, GroupedKvReducesParamsAndStaysConsistent)
{
    ModelConfig cfg = testLlamaConfig(); // 2 heads
    cfg.nKvHeads = 1;
    cfg.validate();
    TransformerModel m(cfg, 34);
    ModelConfig full = testLlamaConfig();
    TransformerModel mFull(full, 34);
    EXPECT_LT(m.paramCount(), mFull.paramCount());
    EXPECT_EQ(m.paramCount(), cfg.totalParams());

    // Causality and KV-cache equivalence must hold under GQA too.
    Rng rng(51);
    TokenSeq toks = randomTokens(cfg, 7, rng);
    Tensor fullLogits = m.forward(toks);
    InferenceSession session(m);
    Tensor logits = session.append(toks);
    for (int64_t j = 0; j < cfg.vocabSize; ++j)
        EXPECT_NEAR(logits[j], fullLogits(6, j), 2e-3);
}

TEST(Gqa, GradientsFlowThroughGroupedHeads)
{
    ModelConfig cfg = testLlamaConfig();
    cfg.nKvHeads = 1;
    TransformerModel m(cfg, 35);
    Rng rng(52);
    TokenSeq toks = randomTokens(cfg, 8, rng);
    std::vector<int> targets = shiftTargets(toks);
    const double initial = m.loss(toks, targets);
    double last = initial;
    for (int step = 0; step < 10; ++step) {
        m.zeroGrad();
        last = m.lossAndGrad(toks, targets);
        for (Parameter *p : m.parameters())
            axpy(p->value, -0.05F, p->grad);
    }
    EXPECT_LT(last, initial - 0.05);
}

TEST(Gqa, InvalidKvHeadsRejected)
{
    ModelConfig cfg = testLlamaConfig(); // 2 heads
    cfg.nKvHeads = 3; // does not divide
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(Gqa, Llama70bParamCountMatchesPublished)
{
    // With GQA the 70B config must land near the published ~69B.
    const double params =
        static_cast<double>(llama2_70bConfig().totalParams());
    EXPECT_GT(params, 66e9);
    EXPECT_LT(params, 72e9);
}

TEST(Model, LossDecreasesUnderSgd)
{
    // A few steps of plain SGD on one batch must reduce the loss:
    // validates the end-to-end gradient direction.
    for (const ModelConfig &cfg : {testLlamaConfig(), testBertConfig()}) {
        TransformerModel m(cfg, 7);
        Rng rng(14);
        TokenSeq toks = randomTokens(cfg, 12, rng);
        std::vector<int> targets = shiftTargets(toks);
        const double initial = m.loss(toks, targets);
        double last = initial;
        for (int step = 0; step < 10; ++step) {
            m.zeroGrad();
            last = m.lossAndGrad(toks, targets);
            for (Parameter *p : m.parameters())
                axpy(p->value, -0.05F, p->grad);
        }
        EXPECT_LT(last, initial - 0.05) << cfg.name;
    }
}

TEST(Model, GreedyGenerateIsDeterministicAndBounded)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg);
    TokenSeq prompt = {1, 2, 3};
    TokenSeq a = greedyGenerate(m, prompt, 5, /*stopToken=*/-1);
    TokenSeq b = greedyGenerate(m, prompt, 5, -1);
    EXPECT_EQ(a, b);
    EXPECT_LE(a.size(), 5U);
}

/**
 * Finite-difference gradient check through the whole model. Perturbs
 * a sample of coordinates of every parameter and compares the
 * numerical derivative with the analytic gradient.
 */
class GradCheck : public ::testing::TestWithParam<int> {};

TEST_P(GradCheck, AnalyticMatchesNumeric)
{
    const bool llama = GetParam() == 0;
    ModelConfig cfg = llama ? testLlamaConfig() : testBertConfig();
    TransformerModel m(cfg, 21);
    Rng rng(15);
    TokenSeq toks = randomTokens(cfg, 8, rng);
    std::vector<int> targets = shiftTargets(toks);

    m.zeroGrad();
    m.lossAndGrad(toks, targets);

    int checked = 0, failed = 0;
    for (Parameter *p : m.parameters()) {
        // Sample up to 4 coordinates per parameter.
        for (int s = 0; s < 4; ++s) {
            const auto idx = static_cast<int64_t>(
                rng.uniformInt(static_cast<uint64_t>(p->value.size())));
            const float orig = p->value[idx];
            const float eps = 1e-2F;
            p->value[idx] = orig + eps;
            const double up = m.loss(toks, targets);
            p->value[idx] = orig - eps;
            const double down = m.loss(toks, targets);
            p->value[idx] = orig;
            const double numeric = (up - down) / (2.0 * eps);
            const double analytic = p->grad[idx];
            const double scale =
                std::max({std::abs(numeric), std::abs(analytic), 1e-4});
            ++checked;
            if (std::abs(numeric - analytic) / scale > 0.08)
                ++failed;
        }
    }
    // Allow a small fraction of float32 finite-difference outliers.
    EXPECT_LE(failed, checked / 20)
        << failed << "/" << checked << " gradient checks failed";
}

INSTANTIATE_TEST_SUITE_P(Archs, GradCheck, ::testing::Values(0, 1));

/** Gradient check through factorized linears (fine-tuning path). */
TEST(GradCheckFactorized, AnalyticMatchesNumeric)
{
    ModelConfig cfg = testLlamaConfig();
    TransformerModel m(cfg, 22);
    ASSERT_TRUE(m.applyTucker(0, WeightKind::Gate, 2).ok());
    ASSERT_TRUE(m.applyTucker(1, WeightKind::Query, 2).ok());
    Rng rng(16);
    TokenSeq toks = randomTokens(cfg, 8, rng);
    std::vector<int> targets = shiftTargets(toks);

    m.zeroGrad();
    m.lossAndGrad(toks, targets);

    int checked = 0, failed = 0;
    for (Parameter *p : m.parameters()) {
        if (p->name.find(".u1") == std::string::npos
            && p->name.find(".u2") == std::string::npos
            && p->name.find(".core") == std::string::npos)
            continue;
        for (int s = 0; s < 6; ++s) {
            const auto idx = static_cast<int64_t>(
                rng.uniformInt(static_cast<uint64_t>(p->value.size())));
            const float orig = p->value[idx];
            const float eps = 1e-2F;
            p->value[idx] = orig + eps;
            const double up = m.loss(toks, targets);
            p->value[idx] = orig - eps;
            const double down = m.loss(toks, targets);
            p->value[idx] = orig;
            const double numeric = (up - down) / (2.0 * eps);
            const double analytic = p->grad[idx];
            const double scale =
                std::max({std::abs(numeric), std::abs(analytic), 1e-4});
            ++checked;
            if (std::abs(numeric - analytic) / scale > 0.1)
                ++failed;
        }
    }
    EXPECT_GT(checked, 0);
    EXPECT_LE(failed, checked / 10);
}

} // namespace
} // namespace lrd
