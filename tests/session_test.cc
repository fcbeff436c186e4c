/**
 * @file
 * Tests for InferenceSession lifecycle and evaluator options:
 * reset/reuse, rewind (the shared-context scoring trick), copy
 * independence, overflow handling, stop tokens, and length
 * normalization.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "eval/evaluator.h"
#include "parallel/thread_pool.h"
#include "tensor/ops.h"
#include "train/world.h"

namespace lrd {
namespace {

ModelConfig
cfgWithVocab(int vocab)
{
    ModelConfig cfg = testLlamaConfig();
    cfg.vocabSize = vocab;
    cfg.maxSeq = 24;
    return cfg;
}

TEST(Session, ResetRestartsAtPositionZero)
{
    TransformerModel m(cfgWithVocab(32), 1);
    InferenceSession s(m);
    Tensor first = s.append({1, 2, 3});
    EXPECT_EQ(s.length(), 3);
    s.reset();
    EXPECT_EQ(s.length(), 0);
    Tensor again = s.append({1, 2, 3});
    EXPECT_LT(relativeError(first, again), 1e-6);
}

TEST(Session, CopyDivergesIndependently)
{
    TransformerModel m(cfgWithVocab(32), 2);
    InferenceSession a(m);
    (void)a.append({1, 2, 3});
    InferenceSession b = a; // copy shares nothing mutable
    Tensor la = a.append({4});
    Tensor lb = b.append({5});
    EXPECT_EQ(a.length(), 4);
    EXPECT_EQ(b.length(), 4);
    // Different continuations must give different logits.
    EXPECT_GT(relativeError(la, lb), 1e-6);
    // And each must match a fresh full-context run.
    InferenceSession fresh(m);
    Tensor want = fresh.append({1, 2, 3, 4});
    for (int64_t j = 0; j < want.dim(0); ++j)
        EXPECT_NEAR(la[j], want[j], 2e-3);
}

TEST(Session, RewoundThenAppendedMatchesFreshSessionBitwise)
{
    TransformerModel m(cfgWithVocab(32), 8);
    InferenceSession s(m);
    const Tensor context = s.append({1, 2, 3});
    (void)s.append({4});
    (void)s.append({5, 6});
    s.rewind(3);
    EXPECT_EQ(s.length(), 3);
    const Tensor got = s.append({7});
    const Tensor got2 = s.append({8, 9});

    InferenceSession fresh(m);
    (void)fresh.append({1, 2, 3});
    const Tensor want = fresh.append({7});
    const Tensor want2 = fresh.append({8, 9});
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             static_cast<size_t>(got.size()) * sizeof(float)));
    EXPECT_EQ(0, std::memcmp(got2.data(), want2.data(),
                             static_cast<size_t>(got2.size())
                                 * sizeof(float)));

    // Rewinding to 0 restarts the sequence, like reset().
    s.rewind(0);
    const Tensor again = s.append({1, 2, 3});
    EXPECT_EQ(0, std::memcmp(again.data(), context.data(),
                             static_cast<size_t>(again.size())
                                 * sizeof(float)));
}

TEST(Session, RewindOutsideZeroToLengthIsFatal)
{
    TransformerModel m(cfgWithVocab(32), 9);
    InferenceSession s(m);
    (void)s.append({1, 2, 3});
    EXPECT_THROW(s.rewind(4), std::runtime_error);
    EXPECT_THROW(s.rewind(-1), std::runtime_error);
    EXPECT_EQ(s.length(), 3);
    s.rewind(3); // the current length is a valid no-op
    EXPECT_EQ(s.length(), 3);
}

TEST(Session, OverflowingMaxSeqThrows)
{
    ModelConfig cfg = cfgWithVocab(32);
    TransformerModel m(cfg, 3);
    InferenceSession s(m);
    TokenSeq fill(static_cast<size_t>(cfg.maxSeq), 1);
    (void)s.append(fill);
    EXPECT_THROW(s.append({1}), std::runtime_error);
}

TEST(Session, EmptyAppendThrows)
{
    TransformerModel m(cfgWithVocab(32), 4);
    InferenceSession s(m);
    EXPECT_THROW(s.append({}), std::runtime_error);
}

TEST(Session, BertModelsAreRejected)
{
    TransformerModel m(testBertConfig(), 5);
    EXPECT_THROW(InferenceSession{m}, std::runtime_error);
}

TEST(Generate, StopsAtStopToken)
{
    TransformerModel m(cfgWithVocab(32), 6);
    // Find what the model would emit first, then use it as the stop
    // token: the result must be empty.
    const TokenSeq unbounded = greedyGenerate(m, {1, 2}, 1, -1);
    ASSERT_EQ(unbounded.size(), 1U);
    const TokenSeq stopped = greedyGenerate(m, {1, 2}, 8, unbounded[0]);
    EXPECT_TRUE(stopped.empty());
}

TEST(Generate, RespectsMaxSeqBound)
{
    ModelConfig cfg = cfgWithVocab(32);
    TransformerModel m(cfg, 7);
    const TokenSeq out = greedyGenerate(m, {1, 2, 3}, 1000, -1);
    EXPECT_LE(static_cast<int64_t>(out.size() + 3), cfg.maxSeq);
}

TEST(EvalOptions, LengthNormalizationChangesScoring)
{
    // A task whose choices have very different lengths: without
    // normalization longer choices accumulate more negative log
    // probability and are disfavored; with normalization the
    // per-token average decides. Verify the two scoring modes can
    // disagree on at least one random model/task combination.
    const WorldSpec spec = [] {
        WorldSpec s;
        s.numEntities = 8;
        s.numColors = 4;
        s.numCategories = 4;
        s.numPlaces = 4;
        s.numNumbers = 12;
        s.numVerbs = 2;
        s.numPatternSymbols = 5;
        return s;
    }();
    World world(spec);
    ModelConfig cfg = cfgWithVocab(world.vocabSize());
    bool disagreed = false;
    for (uint64_t seed = 0; seed < 10 && !disagreed; ++seed) {
        TransformerModel m(cfg, 100 + seed);
        Evaluator plain(m, world, EvalOptions{1, 1, false});
        Evaluator norm(m, world, EvalOptions{1, 1, true});
        McTask task;
        task.context = {world.bosToken(), world.entityToken(0)};
        task.choices = {{world.colorToken(0)},
                        {world.colorToken(1), world.colorToken(2),
                         world.colorToken(3)}};
        task.gold = 0;
        disagreed = plain.pickChoiceCausal(task)
                    != norm.pickChoiceCausal(task);
    }
    EXPECT_TRUE(disagreed);
}

TEST(EvalOptions, SeedChangesTasksButNotProtocol)
{
    WorldSpec spec;
    spec.numEntities = 10;
    spec.numColors = 4;
    spec.numCategories = 4;
    spec.numPlaces = 4;
    spec.numNumbers = 12;
    spec.numVerbs = 2;
    spec.numPatternSymbols = 5;
    World world(spec);
    ModelConfig cfg = cfgWithVocab(world.vocabSize());
    TransformerModel m(cfg, 9);
    Evaluator a(m, world, EvalOptions{30, 1, false});
    Evaluator b(m, world, EvalOptions{30, 2, false});
    const EvalResult ra = a.run(BenchmarkKind::ArcEasy);
    const EvalResult rb = b.run(BenchmarkKind::ArcEasy);
    EXPECT_EQ(ra.numTasks, rb.numTasks);
    // Accuracy on an untrained model is near chance for both seeds.
    EXPECT_NEAR(ra.accuracy, rb.accuracy, 0.35);
}

/** One item's per-choice summed log-likelihoods and its pick. */
struct CausalScores
{
    std::vector<double> ll;
    int pick = 0;
};

/**
 * The copy-per-choice scoring the rewound session replaced, kept
 * verbatim as the reference: each choice extends its own copy of the
 * shared-context session.
 */
CausalScores
copyPerChoiceReference(const TransformerModel &model, const McTask &task,
                       bool lengthNormalize)
{
    CausalScores out;
    InferenceSession base(model);
    Tensor firstLogits = base.append(task.context);

    double bestScore = -std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < task.choices.size(); ++c) {
        const TokenSeq &choice = task.choices[c];
        // Copy the shared-context session so each choice extends its
        // own KV cache.
        InferenceSession session = base;
        Tensor logits = firstLogits;
        double ll = 0.0;
        for (size_t i = 0; i < choice.size(); ++i) {
            Tensor lp = logSoftmaxLastDim(logits);
            ll += lp[choice[i]];
            if (i + 1 < choice.size())
                logits = session.append({choice[i]});
        }
        out.ll.push_back(ll);
        if (lengthNormalize)
            ll /= static_cast<double>(choice.size());
        if (ll > bestScore) {
            bestScore = ll;
            out.pick = static_cast<int>(c);
        }
    }
    return out;
}

const World &
scoringWorld()
{
    static World w([] {
        WorldSpec s;
        s.numEntities = 12;
        s.numColors = 5;
        s.numCategories = 5;
        s.numPlaces = 5;
        s.numNumbers = 14;
        s.numVerbs = 3;
        s.numPatternSymbols = 6;
        s.seed = 77;
        return s;
    }());
    return w;
}

TEST(RewindScoring, MatchesCopyPerChoiceReferenceOnEveryMcBenchmark)
{
    const World &world = scoringWorld();
    ModelConfig cfg = testLlamaConfig();
    cfg.vocabSize = world.vocabSize();
    cfg.maxSeq = 64;
    TransformerModel dense(cfg, 31);
    TransformerModel rank1(cfg, 31);
    for (int64_t l = 0; l < rank1.numLayers(); ++l)
        for (WeightKind kind : decomposableKinds(cfg.arch))
            ASSERT_TRUE(rank1.applyTucker(l, kind, 1).ok());

    const int before = ThreadPool::instance().numThreads();
    int compared = 0;
    for (const int threads : {1, 4}) {
        ThreadPool::instance().resize(threads);
        for (const TransformerModel *model : {&dense, &rank1}) {
            for (const bool norm : {false, true}) {
                const EvalOptions opts{6, 5, norm};
                Evaluator ev(*model, world, opts);
                for (BenchmarkKind kind : allBenchmarks()) {
                    if (kind == BenchmarkKind::Gsm8k)
                        continue;
                    SCOPED_TRACE(benchmarkName(kind) + " threads "
                                 + std::to_string(threads));
                    int refCorrect = 0;
                    for (const McTask &t : makeMcTasks(
                             kind, world, opts.numTasks, opts.seed)) {
                        const CausalScores ref =
                            copyPerChoiceReference(*model, t, norm);
                        InferenceSession session(*model);
                        const Tensor logits = session.append(t.context);
                        const int64_t len = session.length();
                        for (size_t c = 0; c < t.choices.size(); ++c) {
                            const double got = scoreChoice(
                                session, len, logits, t.choices[c]);
                            EXPECT_EQ(0, std::memcmp(&got, &ref.ll[c],
                                                     sizeof(double)))
                                << "choice " << c << ": " << got
                                << " vs " << ref.ll[c];
                            ++compared;
                        }
                        EXPECT_EQ(ev.pickChoiceCausal(t), ref.pick);
                        refCorrect += ref.pick == t.gold ? 1 : 0;
                    }
                    // The pooled run scores the same items the same way.
                    EXPECT_EQ(ev.run(kind).numCorrect, refCorrect);
                }
            }
        }
    }
    ThreadPool::instance().resize(before);
    EXPECT_GT(compared, 0);
}

} // namespace
} // namespace lrd
