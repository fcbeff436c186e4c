/**
 * @file
 * Unit tests for the fault-tolerance layer: Status/Result semantics,
 * the fault-injection harness, CRC-protected checkpoints (including
 * injected truncation/bit-flip/allocation failures), numeric-fault
 * detection, the failure budget, retry-with-reseed determinism, and a
 * parametrized cancel-kill pass over every registered fault site.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "dse/coordinator.h"
#include "dse/optimizer.h"
#include "eval/evaluator.h"
#include "model/transformer.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/checkpoint.h"
#include "robust/fault.h"
#include "robust/recovery.h"
#include "robust/retry.h"
#include "robust/signal.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "train/trainer.h"
#include "util/status.h"

using namespace lrd;
namespace fs = std::filesystem;

namespace {

/** Restores the default policy and disarms faults on scope exit. */
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

} // namespace

TEST(Status, DefaultIsOkAndHeapFree)
{
    const Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::Ok);
    EXPECT_EQ(s.toString(), "ok");
}

TEST(Status, ToStringCarriesCodeSiteAndMessage)
{
    const Status s(StatusCode::NonConvergence, "jacobi", "stuck");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.toString(), "non-convergence at jacobi: stuck");
    EXPECT_STREQ(statusCodeName(StatusCode::DataLoss), "data-loss");
}

TEST(Result, HoldsValueOrStatus)
{
    const Result<int> good(42);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
    EXPECT_EQ(good.valueOr(7), 42);

    const Result<int> bad(Status(StatusCode::NotFound, "cache.read", "x"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::NotFound);
    EXPECT_EQ(bad.valueOr(7), 7);
    EXPECT_THROW(bad.value(), std::runtime_error);
}

TEST(FaultSpec, ParsesSiteKindAndNth)
{
    Result<FaultSpec> r = parseFaultSpec("jacobi:nonconv");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().site, "jacobi");
    EXPECT_EQ(r.value().kind, FaultKind::NonConverge);
    EXPECT_EQ(r.value().nth, 1);

    r = parseFaultSpec("ckpt.write:bitflip:3");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().kind, FaultKind::BitFlip);
    EXPECT_EQ(r.value().nth, 3);
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_FALSE(parseFaultSpec("no-colon").ok());
    EXPECT_FALSE(parseFaultSpec(":nan").ok());
    EXPECT_FALSE(parseFaultSpec("site:frobnicate").ok());
    EXPECT_FALSE(parseFaultSpec("site:nan:0").ok());
    EXPECT_FALSE(parseFaultSpec("site:nan:x").ok());
}

TEST(FaultAt, FiresExactlyOnNthOccurrence)
{
    RobustGuard guard;
    setFault(FaultSpec{"test.site", FaultKind::Nan, 2});
    EXPECT_FALSE(faultAt("test.site", FaultKind::Nan));  // 1st
    EXPECT_FALSE(faultAt("test.site", FaultKind::Alloc)); // other kind
    EXPECT_FALSE(faultAt("other.site", FaultKind::Nan));  // other site
    EXPECT_TRUE(faultAt("test.site", FaultKind::Nan));    // 2nd: fires
    EXPECT_FALSE(faultAt("test.site", FaultKind::Nan));   // 3rd
    clearFaults();
    EXPECT_FALSE(faultInjectionEnabled());
    EXPECT_FALSE(faultAt("test.site", FaultKind::Nan));
}

TEST(RobustPolicyParse, AcceptsAllThreeModes)
{
    Result<RobustPolicy> r = parseRobustPolicy("strict");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().mode, RobustMode::Strict);

    r = parseRobustPolicy("degrade:0.25");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().mode, RobustMode::Degrade);
    EXPECT_DOUBLE_EQ(r.value().failureBudget, 0.25);

    r = parseRobustPolicy("retry:5:0.5");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().mode, RobustMode::Retry);
    EXPECT_EQ(r.value().maxRetries, 5);
    EXPECT_DOUBLE_EQ(r.value().failureBudget, 0.5);
}

TEST(RobustPolicyParse, RejectsBadValues)
{
    EXPECT_FALSE(parseRobustPolicy("").ok());
    EXPECT_FALSE(parseRobustPolicy("lenient").ok());
    EXPECT_FALSE(parseRobustPolicy("strict:0.5").ok());
    EXPECT_FALSE(parseRobustPolicy("degrade:1.5").ok());
    EXPECT_FALSE(parseRobustPolicy("retry:0").ok());
    EXPECT_FALSE(parseRobustPolicy("retry:2:nope").ok());
}

TEST(Crc32, MatchesTheIeeeTestVector)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const uint8_t *>(check.data()),
                    check.size()),
              0xCBF43926U);
    EXPECT_EQ(crc32(nullptr, 0), 0U);
}

TEST(Checkpoint, RoundTripsPayloadAndVersion)
{
    const std::string path = ckptPath("lrd_robust_ckpt_rt.bin");
    const std::vector<uint8_t> payload = {0, 1, 2, 3, 254, 255, 7};
    ASSERT_TRUE(writeCheckpoint(path, 3, payload).ok());

    Result<std::vector<uint8_t>> r = readCheckpoint(path, 3);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), payload);

    r = readCheckpoint(path, 4); // version mismatch
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::InvalidArgument);
}

TEST(Checkpoint, MissingFileIsNotFound)
{
    const std::string path = ckptPath("lrd_robust_ckpt_missing.bin");
    const Result<std::vector<uint8_t>> r = readCheckpoint(path, 1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::NotFound);
}

TEST(Checkpoint, DetectsManualTruncation)
{
    const std::string path = ckptPath("lrd_robust_ckpt_trunc.bin");
    const std::vector<uint8_t> payload(100, 0x5A);
    ASSERT_TRUE(writeCheckpoint(path, 1, payload).ok());
    fs::resize_file(path, fs::file_size(path) / 2);

    const Result<std::vector<uint8_t>> r = readCheckpoint(path, 1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DataLoss);
}

TEST(Checkpoint, DetectsManualBitFlip)
{
    const std::string path = ckptPath("lrd_robust_ckpt_flip.bin");
    const std::vector<uint8_t> payload(64, 0x11);
    ASSERT_TRUE(writeCheckpoint(path, 1, payload).ok());
    {
        std::fstream f(path, std::ios::in | std::ios::out
                                 | std::ios::binary);
        f.seekp(40); // Well inside the payload.
        const char flipped = 0x10;
        f.write(&flipped, 1);
    }
    const Result<std::vector<uint8_t>> r = readCheckpoint(path, 1);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DataLoss);
}

TEST(Checkpoint, InjectedTruncationFallsBackToPreviousGood)
{
    RobustGuard guard;
    const std::string path = ckptPath("lrd_robust_ckpt_fb1.bin");
    const std::vector<uint8_t> first = {1, 1, 1, 1, 1, 1, 1, 1};
    const std::vector<uint8_t> second = {2, 2, 2, 2, 2, 2, 2, 2};
    ASSERT_TRUE(writeCheckpoint(path, 1, first).ok());

    setFault(FaultSpec{"ckpt.write", FaultKind::Truncate, 1});
    ASSERT_TRUE(writeCheckpoint(path, 1, second).ok());
    clearFaults();

    // The damaged primary is detected; the rotated previous-good
    // checkpoint (the first write) supplies the payload.
    ASSERT_FALSE(readCheckpoint(path, 1).ok());
    bool usedFallback = false;
    const Result<std::vector<uint8_t>> r =
        readCheckpointWithFallback(path, 1, &usedFallback);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(usedFallback);
    EXPECT_EQ(r.value(), first);
}

TEST(Checkpoint, InjectedBitFlipFallsBackToPreviousGood)
{
    RobustGuard guard;
    const std::string path = ckptPath("lrd_robust_ckpt_fb2.bin");
    const std::vector<uint8_t> first(32, 0xAA);
    const std::vector<uint8_t> second(32, 0xBB);
    ASSERT_TRUE(writeCheckpoint(path, 1, first).ok());

    setFault(FaultSpec{"ckpt.write", FaultKind::BitFlip, 1});
    ASSERT_TRUE(writeCheckpoint(path, 1, second).ok());
    clearFaults();

    bool usedFallback = false;
    const Result<std::vector<uint8_t>> r =
        readCheckpointWithFallback(path, 1, &usedFallback);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(usedFallback);
    EXPECT_EQ(r.value(), first);
}

TEST(Checkpoint, InjectedAllocFailureLeavesPrimaryIntact)
{
    RobustGuard guard;
    const std::string path = ckptPath("lrd_robust_ckpt_alloc.bin");
    const std::vector<uint8_t> first = {4, 5, 6};
    ASSERT_TRUE(writeCheckpoint(path, 1, first).ok());

    setFault(FaultSpec{"ckpt.write", FaultKind::Alloc, 1});
    const Status s = writeCheckpoint(path, 1, {9, 9, 9});
    clearFaults();
    EXPECT_EQ(s.code(), StatusCode::ResourceExhausted);

    const Result<std::vector<uint8_t>> r = readCheckpoint(path, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), first);
}

TEST(NumericGuards, FirstNonFiniteFindsTheFirstBadElement)
{
    std::vector<float> v(100, 0.5F);
    EXPECT_EQ(firstNonFinite(v.data(), static_cast<int64_t>(v.size())),
              -1);
    v[63] = std::numeric_limits<float>::infinity();
    v[80] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(firstNonFinite(v.data(), static_cast<int64_t>(v.size())),
              63);
    EXPECT_EQ(firstNonFinite(v.data(), 0), -1);
}

TEST(NumericGuards, NoteAndTakeSlotFirstWinsAndClears)
{
    RobustGuard guard;
    EXPECT_FALSE(numericFaultPending());
    noteNumericFault(Status(StatusCode::NonFinite, "model.block", "a"));
    noteNumericFault(Status(StatusCode::NonFinite, "model.block", "b"));
    EXPECT_TRUE(numericFaultPending());
    const Status s = takeNumericFault();
    EXPECT_EQ(s.message(), "a"); // First note wins.
    EXPECT_FALSE(numericFaultPending());
    EXPECT_TRUE(takeNumericFault().ok());
}

TEST(NumericGuards, ReportNonFiniteIsFatalUnderStrict)
{
    RobustGuard guard;
    RobustPolicy strict;
    strict.mode = RobustMode::Strict;
    setRobustPolicy(strict);
    EXPECT_THROW(reportNonFinite("model.block", 3, 17),
                 std::runtime_error);

    RobustGuard::reset(); // Degrade: noted, not thrown.
    reportNonFinite("model.block", 3, 17);
    const Status s = takeNumericFault();
    EXPECT_EQ(s.code(), StatusCode::NonFinite);
    EXPECT_NE(s.message().find("layer 3"), std::string::npos);
    EXPECT_NE(s.message().find("index 17"), std::string::npos);
}

TEST(FailureBudget, WithinBudgetWarnsAndOverBudgetIsFatal)
{
    RobustGuard guard;
    RobustPolicy p;
    p.mode = RobustMode::Degrade;
    p.failureBudget = 0.25;
    setRobustPolicy(p);

    EXPECT_EQ(failureBudgetItems(p, 8), 2);
    enforceFailureBudget("test", 0, 8, Status());
    enforceFailureBudget("test", 2, 8,
                         Status(StatusCode::NonFinite, "x", "y"));
    EXPECT_THROW(enforceFailureBudget(
                     "test", 3, 8,
                     Status(StatusCode::NonFinite, "x", "y")),
                 std::runtime_error);

    p.failureBudget = 0.0; // Zero budget: any failure is fatal.
    setRobustPolicy(p);
    EXPECT_THROW(enforceFailureBudget(
                     "test", 1, 8,
                     Status(StatusCode::NonFinite, "x", "y")),
                 std::runtime_error);
}

TEST(Retry, ReseedsDeterministicallyAndStopsAtFirstOk)
{
    RobustGuard guard;
    std::vector<uint64_t> draws1, draws2;
    const auto runOnce = [](std::vector<uint64_t> &draws) {
        return retryWithReseed(1234, 4, [&](Rng &rng, int attempt) {
            draws.push_back(rng.next());
            return attempt < 2 ? Status(StatusCode::NonConvergence,
                                        "test", "not yet")
                               : Status();
        });
    };
    EXPECT_TRUE(runOnce(draws1).ok());
    EXPECT_TRUE(runOnce(draws2).ok());
    ASSERT_EQ(draws1.size(), 3U); // Attempts 0, 1, 2; stopped at ok.
    EXPECT_EQ(draws1, draws2);    // Bitwise-identical retry streams.
    EXPECT_NE(draws1[0], draws1[1]); // Each attempt is reseeded.
}

TEST(Retry, ExhaustedAttemptsReturnTheLastFailure)
{
    RobustGuard guard;
    int calls = 0;
    const Status s = retryWithReseed(7, 3, [&](Rng &, int) {
        ++calls;
        return Status(StatusCode::NonConvergence, "test", "never");
    });
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(s.code(), StatusCode::NonConvergence);
}

TEST(Checkpoint, SweepsAStaleTmpFileBeforeWriting)
{
    RobustGuard guard;
    const std::string path = ckptPath("lrd_robust_ckpt_sweep.bin");
    {
        // An interrupted earlier write of our own: junk at our
        // pid-unique <path>.<pid>.tmp, never renamed.
        std::ofstream f(checkpointTmpPath(path), std::ios::binary);
        f << "half-written garbage";
    }
    ASSERT_TRUE(fs::exists(checkpointTmpPath(path)));

    const std::vector<uint8_t> payload = {3, 1, 4, 1, 5};
    ASSERT_TRUE(writeCheckpoint(path, 1, payload).ok());
    // Truncated, then renamed into place.
    EXPECT_FALSE(fs::exists(checkpointTmpPath(path)));
    const Result<std::vector<uint8_t>> r = readCheckpoint(path, 1);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), payload);
}

/**
 * The .prev fallback must hold up when the damage comes from a
 * DIFFERENT process: a sibling scribbles over the primary and dies,
 * leaving its own pid-unique temp file orphaned. The reader falls
 * back to the rotated previous-good file, and the orphan sweep
 * reclaims only the dead writer's temp — never a live sibling's.
 */
TEST(Checkpoint, PrevFallbackSurvivesForeignProcessCorruption)
{
    RobustGuard guard;
    const fs::path dir = fs::temp_directory_path() / "lrd_robust_xproc";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "ckpt.bin").string();
    ASSERT_TRUE(writeCheckpoint(path, 1, {1, 2, 3}).ok());
    // The second write rotates {1,2,3} into .prev.
    ASSERT_TRUE(writeCheckpoint(path, 1, {4, 5, 6}).ok());

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // In the child: corrupt the primary in place and leave a
        // half-written temp under the CHILD's pid, then die.
        {
            std::ofstream f(path, std::ios::binary | std::ios::trunc);
            f << "scribbled over by another process";
        }
        {
            std::ofstream f(checkpointTmpPath(path), std::ios::binary);
            f << "orphaned half-write";
        }
        _exit(0);
    }
    int waitStatus = 0;
    ASSERT_EQ(waitpid(child, &waitStatus, 0), child);
    ASSERT_TRUE(WIFEXITED(waitStatus) && WEXITSTATUS(waitStatus) == 0);

    bool usedFallback = false;
    const Result<std::vector<uint8_t>> r =
        readCheckpointWithFallback(path, 1, &usedFallback);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_TRUE(usedFallback);
    EXPECT_EQ(r.value(), (std::vector<uint8_t>{1, 2, 3}));

    // The dead child's temp is sweepable; a live writer's is not.
    const std::string liveTmp =
        path + "." + std::to_string(getppid()) + ".tmp";
    {
        std::ofstream f(liveTmp, std::ios::binary);
        f << "live sibling's in-flight write";
    }
    EXPECT_EQ(sweepOrphanCheckpointTmps(dir.string()), 1);
    EXPECT_TRUE(fs::exists(liveTmp));
    fs::remove_all(dir);
}

/**
 * The supervisor relaunches a crashed shard with backoff, and a shard
 * that keeps dying exhausts its bounded retry budget and surfaces the
 * dedicated "dse.shard.retry" status (exit code 8 in lrdtool).
 */
TEST(Supervisor, RetriesCrashedShardThenFailsPastBudget)
{
    RobustGuard guard;
    const fs::path dir =
        fs::temp_directory_path() / "lrd_robust_sup_retry";
    fs::remove_all(dir);
    SupervisorOptions sup;
    sup.shards = 1;
    sup.dir = dir.string();
    sup.maxRetries = 1;
    sup.backoffBaseTicks = 1;
    sup.childArgs = {"/bin/sh", "-c", "exit 1"};
    const SupervisorReport rep = superviseDse(sup);
    EXPECT_EQ(rep.status.code(), StatusCode::Internal)
        << rep.status.toString();
    EXPECT_STREQ(rep.status.site(), "dse.shard.retry");
    EXPECT_EQ(rep.launched, 2); // First try + one bounded retry.
    EXPECT_EQ(rep.retried, 1);
    EXPECT_EQ(rep.failed, 1);
    fs::remove_all(dir);
}

/** A launch that never produced a child (injected spawn failure)
 *  consumes the same retry budget as a crashed one. */
TEST(Supervisor, SpawnFaultConsumesRetryBudget)
{
    RobustGuard guard;
    const fs::path dir =
        fs::temp_directory_path() / "lrd_robust_sup_spawnfail";
    fs::remove_all(dir);
    SupervisorOptions sup;
    sup.shards = 1;
    sup.dir = dir.string();
    sup.maxRetries = 0;
    sup.backoffBaseTicks = 1;
    sup.childArgs = {"/bin/sh", "-c", "exit 0"};
    setFault(FaultSpec{"dse.shard.spawn", FaultKind::Alloc, 1});
    const SupervisorReport rep = superviseDse(sup);
    EXPECT_EQ(rep.status.code(), StatusCode::Internal)
        << rep.status.toString();
    EXPECT_STREQ(rep.status.site(), "dse.shard.retry");
    EXPECT_EQ(rep.launched, 0);
    EXPECT_EQ(rep.failed, 1);
    fs::remove_all(dir);
}

/** A shard exiting 0 without having written its result file is a
 *  failure, not a success — the supervisor must not merge a hole. */
TEST(Supervisor, CleanExitWithoutResultFileCountsAsFailure)
{
    RobustGuard guard;
    const fs::path dir =
        fs::temp_directory_path() / "lrd_robust_sup_noresult";
    fs::remove_all(dir);
    SupervisorOptions sup;
    sup.shards = 1;
    sup.dir = dir.string();
    sup.maxRetries = 0;
    sup.backoffBaseTicks = 1;
    sup.childArgs = {"/bin/sh", "-c", "exit 0"};
    const SupervisorReport rep = superviseDse(sup);
    EXPECT_EQ(rep.status.code(), StatusCode::Internal)
        << rep.status.toString();
    EXPECT_STREQ(rep.status.site(), "dse.shard.retry");
    EXPECT_EQ(rep.launched, 1);
    fs::remove_all(dir);
}

/**
 * Every registered fault site must support an injected cancel kill and
 * wind down with a Cancelled status. A site in the registry with no
 * driver here fails the test, so the table and the coverage cannot
 * drift apart.
 */
TEST(FaultSites, EveryRegisteredSiteSupportsCancelKill)
{
    RobustGuard guard;
    ThreadPool::instance().resize(1);
    ASSERT_FALSE(registeredFaultSites().empty());
    for (const FaultSiteInfo &info : registeredFaultSites()) {
        SCOPED_TRACE(info.site);
        const std::string site = info.site;
        EXPECT_NE(std::string(info.kinds).find("cancel"),
                  std::string::npos)
            << "every site must list the cancel kind";

        if (site == "jacobi") {
            TransformerModel model(smallConfig(), 42);
            setFault(FaultSpec{"jacobi", FaultKind::Cancel, 1});
            const Status s = model.applyTucker(0, WeightKind::Query, 2);
            EXPECT_EQ(s.code(), StatusCode::Cancelled) << s.toString();
            // The kill never commits a partially rotated factor.
            EXPECT_FALSE(
                model.linear(0, WeightKind::Query).isFactorized());
        } else if (site == "model.block") {
            TransformerModel model(smallConfig(), 42);
            Evaluator ev(model, smallWorld(), EvalOptions{12, 5, false});
            setFault(FaultSpec{"model.block", FaultKind::Cancel, 1});
            const EvalResult r = ev.run(BenchmarkKind::ArcEasy);
            EXPECT_TRUE(r.partial());
            EXPECT_EQ(r.status.code(), StatusCode::Cancelled);
        } else if (site == "eval.item") {
            TransformerModel model(smallConfig(), 42);
            Evaluator ev(model, smallWorld(), EvalOptions{12, 5, false});
            setFault(FaultSpec{"eval.item", FaultKind::Cancel, 3});
            const EvalResult r = ev.run(BenchmarkKind::ArcEasy);
            EXPECT_TRUE(r.partial());
            EXPECT_EQ(r.status.code(), StatusCode::Cancelled);
            EXPECT_EQ(r.numTasks, 12);
        } else if (site == "train.step") {
            TransformerModel model(smallConfig(), 7);
            TrainOptions t;
            t.steps = 4;
            t.batchSeqs = 2;
            t.seqLen = 16;
            t.warmupSteps = 1;
            t.logEvery = 0;
            Trainer trainer(model, smallWorld(), t);
            setFault(FaultSpec{"train.step", FaultKind::Cancel, 2});
            trainer.run();
            EXPECT_EQ(trainer.runStatus().code(), StatusCode::Cancelled);
        } else if (site == "dse.batch") {
            const std::vector<uint8_t> bytes = [] {
                TransformerModel model(smallConfig(), 17);
                return model.serialize();
            }();
            OptimizerOptions opts;
            opts.evalTasks = 6;
            opts.accuracyDropTolerance = 1.1;
            setFault(FaultSpec{"dse.batch", FaultKind::Cancel, 1});
            const OptimizerResult r =
                optimizeDecomposition(bytes, smallWorld(), opts);
            EXPECT_TRUE(r.cancelled);
            EXPECT_EQ(r.status.code(), StatusCode::Cancelled);
        } else if (site == "ckpt.write") {
            const std::string path = ckptPath("lrd_robust_site_w.bin");
            setFault(FaultSpec{"ckpt.write", FaultKind::Cancel, 1});
            const Status s = writeCheckpoint(path, 1, {1, 2, 3});
            EXPECT_EQ(s.code(), StatusCode::Cancelled);
            // The kill leaves the half-written pid-unique .tmp, never
            // the primary; the next write replaces the leftover.
            EXPECT_TRUE(fs::exists(checkpointTmpPath(path)));
            EXPECT_FALSE(fs::exists(path));
            clearFaults();
            ASSERT_TRUE(writeCheckpoint(path, 1, {1, 2, 3}).ok());
            EXPECT_FALSE(fs::exists(checkpointTmpPath(path)));
        } else if (site == "ckpt.read") {
            const std::string path = ckptPath("lrd_robust_site_r.bin");
            ASSERT_TRUE(writeCheckpoint(path, 1, {9}).ok());
            setFault(FaultSpec{"ckpt.read", FaultKind::Cancel, 1});
            const Result<std::vector<uint8_t>> r = readCheckpoint(path, 1);
            ASSERT_FALSE(r.ok());
            EXPECT_EQ(r.status().code(), StatusCode::Cancelled);
        } else if (site == "serve.admit" || site == "serve.batch" ||
                   site == "serve.respond") {
            TransformerModel model(smallConfig(), 42);
            ServeOptions opts;
            opts.queueCapacity = 4;
            opts.maxBatch = 2;
            WorkloadOptions wl;
            wl.numRequests = 8;
            wl.deadlineTicks = 256;
            Server server(model, opts);
            setFault(FaultSpec{site, FaultKind::Cancel, 2});
            const ServeReport r =
                server.run(makeSyntheticWorkload(smallConfig(), wl));
            EXPECT_EQ(r.status.code(), StatusCode::Cancelled)
                << r.status.toString();
            // The kill drains: every request still settles exactly
            // once, the unscored remainder as Cancelled.
            ASSERT_EQ(r.responses.size(), 8u);
            int64_t cancelled = 0;
            for (const ServeResponse &resp : r.responses) {
                EXPECT_TRUE(serveOutcomeTerminal(resp.outcome));
                cancelled += resp.outcome == ServeOutcome::Cancelled;
            }
            EXPECT_GT(cancelled, 0);
            EXPECT_EQ(cancelled, r.stats.cancelled);
        } else if (site == "dse.shard.spawn") {
            const fs::path dir =
                fs::temp_directory_path() / "lrd_robust_spawn_site";
            fs::remove_all(dir);
            SupervisorOptions sup;
            sup.shards = 1;
            sup.dir = dir.string();
            sup.childArgs = {"/bin/sh", "-c", "exit 0"};
            setFault(FaultSpec{"dse.shard.spawn", FaultKind::Cancel, 1});
            const SupervisorReport rep = superviseDse(sup);
            EXPECT_EQ(rep.status.code(), StatusCode::Cancelled)
                << rep.status.toString();
            // The kill lands before the fork: no child ever spawned.
            EXPECT_EQ(rep.launched, 0);
            fs::remove_all(dir);
        } else if (site == "dse.shard.merge") {
            const fs::path dir =
                fs::temp_directory_path() / "lrd_robust_merge_site";
            fs::remove_all(dir);
            fs::create_directories(dir);
            setFault(FaultSpec{"dse.shard.merge", FaultKind::Cancel, 1});
            const Result<MergeReport> m =
                mergeShardResults(dir.string(), 1, 0.05);
            ASSERT_FALSE(m.ok());
            EXPECT_EQ(m.status().code(), StatusCode::Cancelled);
            fs::remove_all(dir);
        } else {
            FAIL() << "registered fault site '" << site
                   << "' has no cancel-kill driver in this test; add one";
        }
        RobustGuard::reset();
    }
}
