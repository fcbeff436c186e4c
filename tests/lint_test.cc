/**
 * @file
 * Fixture-snippet coverage for every lrd-lint rule: one positive hit
 * per rule, the suppression comment, exemption paths, layering
 * back-edge detection, and include-cycle path printing.
 *
 * The fixtures feed (path, content) pairs straight into the lint
 * library, so the tests exercise exactly the code the CLI runs on
 * the real tree.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache.h"
#include "lint.h"
#include "output.h"
#include "parser.h"

namespace lrd::lint {
namespace {

std::vector<Diagnostic>
lintSnippet(const std::string &path, const std::string &content)
{
    return lintFile(SourceFile{path, content});
}

bool
hasRule(const std::vector<Diagnostic> &diags, const std::string &rule)
{
    return std::any_of(diags.begin(), diags.end(),
                       [&](const Diagnostic &d) { return d.rule == rule; });
}

const Diagnostic *
findRule(const std::vector<Diagnostic> &diags, const std::string &rule)
{
    for (const Diagnostic &d : diags)
        if (d.rule == rule)
            return &d;
    return nullptr;
}

// ---------------------------------------------------------------- random

TEST(LintRandom, FlagsRandAndRandomDevice)
{
    const auto diags = lintSnippet("src/linalg/linalg.cc", R"(
        int noisy() { return rand(); }
        int seedy() { std::random_device rd; return rd(); }
    )");
    ASSERT_TRUE(hasRule(diags, kRuleBannedRandom));
    EXPECT_EQ(2u, diags.size());
}

TEST(LintRandom, RngModuleIsExempt)
{
    const auto diags = lintSnippet("src/util/rng.cc", R"(
        unsigned seed() { std::random_device rd; return rd(); }
    )");
    EXPECT_FALSE(hasRule(diags, kRuleBannedRandom));
}

TEST(LintRandom, StringAndCommentOccurrencesIgnored)
{
    const auto diags = lintSnippet("src/eval/evaluator.cc", R"__(
        // rand() would break determinism here.
        const char *kMsg = "never call srand()";
    )__");
    EXPECT_TRUE(diags.empty());
}

TEST(LintRandom, SuppressionCommentSilencesTheLine)
{
    const auto diags = lintSnippet("src/eval/evaluator.cc", R"(
        void f() {
            int a = rand(); // lrd-lint: allow(banned-random)
            // lrd-lint: allow(banned-random)
            int b = rand();
            int c = rand();
        }
    )");
    ASSERT_EQ(1u, diags.size()); // only 'c' survives
    EXPECT_EQ(kRuleBannedRandom, diags[0].rule);
}

// ------------------------------------------------------------- wall clock

TEST(LintWallClock, FlagsSystemClockAndTimeCalls)
{
    const auto diags = lintSnippet("src/train/trainer.cc", R"(
        void f() {
            auto t0 = std::chrono::system_clock::now();
            long t1 = time(nullptr);
        }
    )");
    EXPECT_EQ(2u, diags.size());
    EXPECT_TRUE(hasRule(diags, kRuleWallClock));
}

TEST(LintWallClock, SteadyClockAndMemberTimeAreFine)
{
    const auto diags = lintSnippet("src/train/trainer.cc", R"(
        void f() {
            auto t0 = std::chrono::steady_clock::now();
            double t1 = timer.time();
        }
    )");
    EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------- unordered containers

TEST(LintUnordered, FlaggedInNumericCoreModules)
{
    const auto diags = lintSnippet("src/tensor/ops.cc", R"(
        std::unordered_map<int, double> partials;
    )");
    ASSERT_TRUE(hasRule(diags, kRuleUnordered));
}

TEST(LintUnordered, AllowedOutsideTheNumericCore)
{
    const auto diags = lintSnippet("src/eval/evaluator.cc", R"(
        std::unordered_map<int, double> lookupOnly;
    )");
    EXPECT_FALSE(hasRule(diags, kRuleUnordered));
}

// -------------------------------------------------------------- threading

TEST(LintThread, FlagsStdThreadAsyncAndPthread)
{
    const auto diags = lintSnippet("src/eval/evaluator.cc", R"(
        void spawn() {
            std::thread t([] {});
            auto f = std::async([] { return 1; });
            pthread_create(nullptr, nullptr, nullptr, nullptr);
            t.join();
        }
    )");
    EXPECT_EQ(3u, diags.size());
    EXPECT_TRUE(hasRule(diags, kRuleThread));
}

TEST(LintThread, PoolAndWorkerLaneAreExempt)
{
    const std::string snippet = "void f() { std::thread worker; }";
    EXPECT_TRUE(lintSnippet("src/parallel/thread_pool.cc", snippet).empty());
    EXPECT_TRUE(lintSnippet("src/util/worker_lane.cc", snippet).empty());
    EXPECT_FALSE(lintSnippet("src/model/linear.cc", snippet).empty());
}

TEST(LintThread, TelemetrySamplerNeedsExplicitAnnotation)
{
    // The flight-recorder sampler thread lives in src/obs/, which is
    // NOT a threading-exempt module: without the allow annotation the
    // rule fires, so every sampler-style thread remains a reviewed,
    // documented exception rather than a blanket exemption.
    const auto flagged = lintSnippet("src/obs/sampler.cc", R"(
        void start() { std::thread worker(samplerMain); }
    )");
    ASSERT_TRUE(hasRule(flagged, kRuleThread));

    const auto annotated = lintSnippet("src/obs/sampler.cc", R"(
        void start() {
            // lrd-lint: allow(thread-outside-parallel)
            std::thread worker(samplerMain);
        }
    )");
    EXPECT_FALSE(hasRule(annotated, kRuleThread));
}

// ---------------------------------------------------------------- globals

TEST(LintGlobals, FlagsMutableNamespaceScopeVariable)
{
    const auto diags = lintSnippet("src/obs/obs.cc", R"(
        namespace lrd {
        namespace {
        std::string g_path;
        } // namespace
        } // namespace lrd
    )");
    const Diagnostic *d = findRule(diags, kRuleNonconstGlobal);
    ASSERT_NE(nullptr, d);
    EXPECT_NE(std::string::npos, d->message.find("g_path"));
}

TEST(LintGlobals, ConstAtomicMutexAndThreadLocalAreFine)
{
    const auto diags = lintSnippet("src/obs/obs.cc", R"(
        namespace lrd {
        const int kLimit = 3;
        constexpr double kEps = 1e-6;
        std::atomic<int> g_count{0};
        std::mutex g_mu;
        thread_local int t_lane = 0;
        // lrd-lint: mutex(g_mu)
        std::string g_guarded;
        } // namespace lrd
    )");
    EXPECT_TRUE(diags.empty());
}

TEST(LintGlobals, FunctionBodiesAndDeclarationsAreNotGlobals)
{
    const auto diags = lintSnippet("src/obs/obs.cc", R"(
        namespace lrd {
        int add(int a, int b);
        int add(int a, int b) {
            int localMutable = a;
            static int functionLocal = 0;
            return localMutable + b + functionLocal;
        }
        struct Holder { int mutableMember = 0; };
        using Alias = int;
        } // namespace lrd
    )");
    EXPECT_TRUE(diags.empty());
}

// ------------------------------------------------------------ naked throw

TEST(LintThrow, FlaggedOutsideUtilAndSuppressible)
{
    const auto diags = lintSnippet("src/linalg/linalg.cc", R"(
        void f() { throw std::runtime_error("late"); }
    )");
    const Diagnostic *d = findRule(diags, kRuleNakedThrow);
    ASSERT_NE(nullptr, d);
    EXPECT_NE(std::string::npos, d->message.find("Status"));

    const auto ok = lintSnippet("src/linalg/linalg.cc", R"(
        void f() {
            throw std::runtime_error("x"); // lrd-lint: allow(naked-throw)
        }
    )");
    EXPECT_FALSE(hasRule(ok, kRuleNakedThrow));
}

TEST(LintThrow, UtilAndNonSrcTreesAreExempt)
{
    const std::string snippet = "void f() { throw 1; }";
    EXPECT_FALSE(
        hasRule(lintSnippet("src/util/logging.cc", snippet),
                kRuleNakedThrow));
    EXPECT_FALSE(hasRule(lintSnippet("tests/some_test.cc", snippet),
                         kRuleNakedThrow));
    EXPECT_TRUE(hasRule(lintSnippet("src/robust/fault.cc", snippet),
                        kRuleNakedThrow));
    EXPECT_TRUE(hasRule(lintSnippet("src/train/trainer.cc", snippet),
                        kRuleNakedThrow));
}

// --------------------------------------------------------- blocking sleep

TEST(LintSleep, FlaggedInPipelineCodeAndSuppressible)
{
    const auto diags = lintSnippet("src/train/trainer.cc", R"(
        void f() {
            std::this_thread::sleep_for(std::chrono::seconds(1));
        }
    )");
    const Diagnostic *d = findRule(diags, kRuleBlockingSleep);
    ASSERT_NE(nullptr, d);
    EXPECT_NE(std::string::npos, d->message.find("robust"));

    const auto ok = lintSnippet("src/train/trainer.cc", R"(
        void f() {
            std::this_thread::sleep_for( // lrd-lint: allow(blocking-sleep)
                std::chrono::seconds(1));
        }
    )");
    EXPECT_FALSE(hasRule(ok, kRuleBlockingSleep));
}

TEST(LintSleep, WatchdogAndToolsAreExempt)
{
    const std::string snippet =
        "void f() { std::this_thread::sleep_for(t); }";
    EXPECT_FALSE(hasRule(lintSnippet("src/robust/cancel.cc", snippet),
                         kRuleBlockingSleep));
    EXPECT_FALSE(hasRule(lintSnippet("tools/lrdtool.cc", snippet),
                         kRuleBlockingSleep));
    EXPECT_TRUE(hasRule(lintSnippet("src/eval/evaluator.cc", snippet),
                        kRuleBlockingSleep));
    EXPECT_TRUE(hasRule(lintSnippet("src/parallel/thread_pool.cc",
                                    snippet),
                        kRuleBlockingSleep));
    EXPECT_TRUE(hasRule(lintSnippet("tests/some_test.cc", snippet),
                        kRuleBlockingSleep));
    EXPECT_TRUE(hasRule(lintSnippet("src/robust_adjacent/x.cc", snippet),
                        kRuleBlockingSleep));
}

TEST(LintSleep, CoversEveryBlockingPrimitive)
{
    for (const char *call : {"usleep(100)", "nanosleep(&ts, nullptr)",
                             "std::this_thread::sleep_until(tp)"}) {
        const std::string snippet =
            "void f() { " + std::string(call) + "; }";
        EXPECT_TRUE(hasRule(lintSnippet("src/linalg/linalg.cc", snippet),
                            kRuleBlockingSleep))
            << call;
    }
}

// ----------------------------------------------------------- header rules

TEST(LintHeader, MissingGuardFlagged)
{
    const auto diags = lintSnippet("src/util/fresh.h", "int f();\n");
    EXPECT_TRUE(hasRule(diags, kRuleHeaderGuard));
}

TEST(LintHeader, PragmaOnceAndIfndefGuardAccepted)
{
    EXPECT_TRUE(lintSnippet("src/util/a.h", "#pragma once\nint f();\n")
                    .empty());
    EXPECT_TRUE(lintSnippet("src/util/b.h",
                            "#ifndef LRD_B_H\n#define LRD_B_H\n"
                            "int f();\n#endif\n")
                    .empty());
}

TEST(LintHeader, UsingNamespaceInHeaderFlagged)
{
    const std::string snippet = "#pragma once\nusing namespace std;\n";
    EXPECT_TRUE(hasRule(lintSnippet("src/util/a.h", snippet),
                        kRuleUsingNamespace));
    // Same construct in a .cc file is style, not a lint error.
    EXPECT_FALSE(hasRule(lintSnippet("src/util/a.cc",
                                     "using namespace std;\n"),
                         kRuleUsingNamespace));
}

// -------------------------------------------------------- include layering

TEST(LintLayering, BackEdgeFromLowerToHigherLayerFlagged)
{
    // util (layer 0) must never include obs (layer 1).
    const std::vector<SourceFile> tree = {
        {"src/util/logging.cc",
         "#include \"obs/metrics.h\"\n"},
        {"src/obs/metrics.h", "#pragma once\n"},
    };
    const auto diags = checkIncludeGraph(tree);
    const Diagnostic *d = findRule(diags, kRuleLayering);
    ASSERT_NE(nullptr, d);
    EXPECT_EQ("src/util/logging.cc", d->file);
    EXPECT_NE(std::string::npos, d->message.find("back-edge"));
    EXPECT_NE(std::string::npos, d->message.find("'obs'"));
}

TEST(LintLayering, ForwardEdgesAreClean)
{
    const std::vector<SourceFile> tree = {
        {"src/linalg/linalg.cc", "#include \"tensor/tensor.h\"\n"
                                 "#include \"util/logging.h\"\n"},
        {"src/tensor/tensor.h", "#pragma once\n"},
        {"src/util/logging.h", "#pragma once\n"},
    };
    EXPECT_TRUE(checkIncludeGraph(tree).empty());
}

TEST(LintLayering, IntraLayerModuleCycleFlagged)
{
    // model <-> decomp are the same layer; an edge each way is a
    // module cycle even though no single file pair forms one.
    const std::vector<SourceFile> tree = {
        {"src/model/linear.h", "#pragma once\n#include \"decomp/tucker.h\"\n"},
        {"src/decomp/tucker.h", "#pragma once\n"},
        {"src/decomp/hosvd.cc", "#include \"model/config.h\"\n"},
        {"src/model/config.h", "#pragma once\n"},
    };
    const auto diags = checkIncludeGraph(tree);
    const Diagnostic *d = findRule(diags, kRuleCycle);
    ASSERT_NE(nullptr, d);
    EXPECT_NE(std::string::npos, d->message.find("module dependency cycle"));
    EXPECT_NE(std::string::npos, d->message.find("model"));
    EXPECT_NE(std::string::npos, d->message.find("decomp"));
}

TEST(LintLayering, FileIncludeCyclePrintsThePath)
{
    const std::vector<SourceFile> tree = {
        {"src/tensor/a.h", "#pragma once\n#include \"b.h\"\n"},
        {"src/tensor/b.h", "#pragma once\n#include \"c.h\"\n"},
        {"src/tensor/c.h", "#pragma once\n#include \"a.h\"\n"},
    };
    const auto diags = checkIncludeGraph(tree);
    const Diagnostic *d = findRule(diags, kRuleCycle);
    ASSERT_NE(nullptr, d);
    EXPECT_NE(std::string::npos,
              d->message.find("src/tensor/a.h -> src/tensor/b.h -> "
                              "src/tensor/c.h -> src/tensor/a.h"));
}

TEST(LintLayering, RobustSitsBetweenObsAndParallel)
{
    // robust (layer 2) may use obs, but not the pool above it.
    const std::vector<SourceFile> ok = {
        {"src/robust/fault.cc", "#include \"obs/metrics.h\"\n"},
        {"src/obs/metrics.h", "#pragma once\n"},
        {"src/linalg/linalg.cc", "#include \"robust/fault.h\"\n"},
        {"src/robust/fault.h", "#pragma once\n"},
    };
    EXPECT_TRUE(checkIncludeGraph(ok).empty());

    const std::vector<SourceFile> bad = {
        {"src/robust/recovery.cc",
         "#include \"parallel/thread_pool.h\"\n"},
        {"src/parallel/thread_pool.h", "#pragma once\n"},
    };
    EXPECT_TRUE(hasRule(checkIncludeGraph(bad), kRuleLayering));
}

TEST(LintLayering, SystemIncludesAreOutsideTheGraph)
{
    const std::vector<SourceFile> tree = {
        {"src/util/logging.cc", "#include <thread>\n#include <vector>\n"},
    };
    EXPECT_TRUE(checkIncludeGraph(tree).empty());
}

// ------------------------------------------------------------- formatting

TEST(LintFormat, HumanAndFixListFormats)
{
    const Diagnostic d{"src/a.cc", 7, "banned-random", "no rand()", ""};
    EXPECT_EQ("src/a.cc:7: [banned-random] no rand()", formatDiagnostic(d));
    EXPECT_EQ("src/a.cc\t7\tbanned-random\tno rand()", formatFixList(d));
}

TEST(LintFormat, LintFilesSortsAndMergesGraphRules)
{
    const std::vector<SourceFile> tree = {
        {"src/util/z.cc", "int tick = time(nullptr);\n"},
        {"src/util/a.cc", "#include \"obs/metrics.h\"\n"},
        {"src/obs/metrics.h", "#pragma once\n"},
    };
    const auto diags = lintFiles(tree);
    ASSERT_EQ(3u, diags.size()); // layering + wall-clock + nonconst-global
    EXPECT_EQ("src/util/a.cc", diags[0].file);
    EXPECT_EQ("src/util/z.cc", diags[1].file);
}

TEST(LintIntrinsics, FlagsIntrinsicsHeaderOutsideSimd)
{
    const auto diags = lintSnippet("src/model/linear.cc", R"(
#include <immintrin.h>
void f();
)");
    EXPECT_TRUE(hasRule(diags, kRuleIntrinsics));
}

TEST(LintIntrinsics, FlagsNeonHeaderAndOpsOutsideSimd)
{
    const auto diags = lintSnippet("src/tensor/ops.cc", R"(
#include <arm_neon.h>
void f(const float *p) {
    float32x4_t v = vld1q_f32(p);
    (void)v;
}
)");
    EXPECT_TRUE(hasRule(diags, kRuleIntrinsics));
}

TEST(LintIntrinsics, FlagsMmIdentifierWithoutHeader)
{
    const auto diags = lintSnippet("src/linalg/linalg.cc", R"(
void f(float *c, const float *a) {
    auto v = _mm256_loadu_ps(a);
    _mm256_storeu_ps(c, v);
}
)");
    EXPECT_TRUE(hasRule(diags, kRuleIntrinsics));
}

TEST(LintIntrinsics, AllowsIntrinsicsInsideSimdDirectory)
{
    const auto diags = lintSnippet("src/tensor/simd/kernel_avx2.cc", R"(
#include <immintrin.h>
void f(float *c, const float *a) {
    __m256 v = _mm256_loadu_ps(a);
    _mm256_storeu_ps(c, v);
}
)");
    EXPECT_FALSE(hasRule(diags, kRuleIntrinsics));
}

TEST(LintIntrinsics, IgnoresOrdinaryIdentifiers)
{
    const auto diags = lintSnippet("src/model/linear.cc", R"(
void f() {
    int value = 0;
    int visit = value;
    float vmax_norm = 0.0F;
    (void)visit;
    (void)vmax_norm;
}
)");
    EXPECT_FALSE(hasRule(diags, kRuleIntrinsics));
}

// ---------------------------------------------------------- hot-path-alloc

TEST(LintHotPath, TransitiveAllocationFromSimdRootPrintsPath)
{
    // Any function in src/tensor/simd/ is a hot root; the allocation
    // sits one call away, in another directory.
    const std::vector<SourceFile> tree = {
        {"src/tensor/simd/kernel_demo.cc", R"(
namespace lrd::simd {
void growScratch(std::vector<float> &v);
void microKernelDemo(std::vector<float> &v) { growScratch(v); }
} // namespace lrd::simd
)"},
        {"src/tensor/scratch.cc", R"(
namespace lrd::simd {
void growScratch(std::vector<float> &v) { v.push_back(0.0F); }
} // namespace lrd::simd
)"},
    };
    const auto diags = lintFiles(tree);
    const Diagnostic *d = findRule(diags, kRuleHotPathAlloc);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ("src/tensor/scratch.cc", d->file);
    EXPECT_NE(d->message.find("reachable via:"), std::string::npos);
    EXPECT_NE(d->message.find("growScratch"), std::string::npos);
    EXPECT_NE(d->message.find("microKernelDemo"), std::string::npos);
}

TEST(LintHotPath, ChunkBodyAllocationIsFlagged)
{
    const auto diags = lintFiles({{"src/eval/items.cc", R"(
namespace lrd {
void scoreAll(long n) {
    parallelFor(0, n, 1, [&](long lo, long hi) {
        float *scratch = new float[8];
        delete[] scratch;
    });
}
} // namespace lrd
)"}});
    const Diagnostic *d = findRule(diags, kRuleHotPathAlloc);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("new"), std::string::npos);
}

TEST(LintHotPath, ConduitMakesCallbackCallersHot)
{
    // forEachItem feeds its parameter into a chunk body, so a lambda
    // handed to forEachItem from another file runs hot too.
    const std::vector<SourceFile> tree = {
        {"src/eval/driver.cc", R"(
namespace lrd {
template <class Fn>
void forEachItem(long n, const Fn &fn) {
    parallelFor(0, n, 1, [&](long lo, long hi) {
        for (long i = lo; i < hi; ++i)
            fn(i);
    });
}
} // namespace lrd
)"},
        {"src/eval/user.cc", R"(
namespace lrd {
void runAll(std::vector<int> &sink) {
    forEachItem(8, [&](long i) { sink.push_back(static_cast<int>(i)); });
}
} // namespace lrd
)"},
    };
    const auto diags = lintFiles(tree);
    const Diagnostic *d = findRule(diags, kRuleHotPathAlloc);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ("src/eval/user.cc", d->file);
    // The reachability chain crosses into the conduit's file.
    EXPECT_NE(d->message.find("reachable via:"), std::string::npos);
    EXPECT_NE(d->message.find("src/eval/driver.cc"), std::string::npos);
}

TEST(LintHotPath, AllowCommentAndColdCodeAreClean)
{
    // The allow() escape on the preceding line suppresses the hit,
    // and an allocating function nobody hot calls is not flagged.
    const auto diags = lintFiles({{"src/eval/items.cc", R"(
namespace lrd {
void scoreAll(long n) {
    parallelFor(0, n, 1, [&](long lo, long hi) {
        // lrd-lint: allow(hot-path-alloc) test fixture
        float *scratch = new float[8];
        delete[] scratch;
    });
}
void coldSetup(std::vector<float> &v) { v.reserve(64); }
} // namespace lrd
)"}});
    EXPECT_FALSE(hasRule(diags, kRuleHotPathAlloc));
}

// --------------------------------------------------------- lock-discipline

TEST(LintLock, UnknownMutexNameInAnnotationIsFlagged)
{
    const auto diags = lintFiles({{"src/obs/state.cc", R"(
namespace lrd {
namespace {
// lrd-lint: mutex(ghostMu)
int gCount = 0;
} // namespace
} // namespace lrd
)"}});
    const Diagnostic *d = findRule(diags, kRuleLockDiscipline);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("ghostMu"), std::string::npos);
    EXPECT_NE(d->message.find("not declared"), std::string::npos);
}

TEST(LintLock, WriteWithoutHoldingAnnotatedMutexIsFlagged)
{
    const auto diags = lintFiles({{"src/obs/state.cc", R"(
namespace lrd {
namespace {
std::mutex gMu;
// lrd-lint: mutex(gMu)
int gCount = 0;
} // namespace
void bumpGuarded() {
    std::lock_guard<std::mutex> l(gMu);
    gCount = 1;
}
void bumpRacy() { gCount = 2; }
} // namespace lrd
)"}});
    const Diagnostic *d = findRule(diags, kRuleLockDiscipline);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("bumpRacy"), std::string::npos);
    EXPECT_NE(d->message.find("without acquiring"), std::string::npos);
    // The guarded writer must not be reported.
    for (const Diagnostic &x : diags) {
        if (x.rule == kRuleLockDiscipline) {
            EXPECT_EQ(x.message.find("bumpGuarded"), std::string::npos);
        }
    }
}

TEST(LintLock, OppositeAcquisitionOrdersFormACycle)
{
    const std::vector<SourceFile> tree = {
        {"src/obs/a.cc", R"(
namespace lrd {
namespace {
std::mutex muA;
std::mutex muB;
} // namespace
void lockForward() {
    std::lock_guard<std::mutex> la(muA);
    std::lock_guard<std::mutex> lb(muB);
}
} // namespace lrd
)"},
        {"src/obs/b.cc", R"(
namespace lrd {
namespace {
std::mutex muA;
std::mutex muB;
} // namespace
void lockBackward() {
    std::lock_guard<std::mutex> lb(muB);
    std::lock_guard<std::mutex> la(muA);
}
} // namespace lrd
)"},
    };
    // Identical names in two files are distinct internal-linkage
    // mutexes, so a cycle needs same-file opposing orders.
    EXPECT_FALSE(hasRule(lintFiles(tree), kRuleLockDiscipline));

    const auto diags = lintFiles({{"src/obs/a.cc", R"(
namespace lrd {
namespace {
std::mutex muA;
std::mutex muB;
} // namespace
void lockForward() {
    std::lock_guard<std::mutex> la(muA);
    std::lock_guard<std::mutex> lb(muB);
}
void lockBackward() {
    std::lock_guard<std::mutex> lb(muB);
    std::lock_guard<std::mutex> la(muA);
}
} // namespace lrd
)"}});
    const Diagnostic *d = findRule(diags, kRuleLockDiscipline);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("lock acquisition order cycle"),
              std::string::npos);

    // Acquisition order is statement order, not line order: two
    // guards on one line still form the edge.
    const auto oneLine = lintFiles({{"src/obs/a.cc", R"(
namespace lrd {
namespace {
std::mutex muA;
std::mutex muB;
} // namespace
void fwd() { std::lock_guard<std::mutex> a(muA); std::lock_guard<std::mutex> b(muB); }
void bwd() { std::lock_guard<std::mutex> b(muB); std::lock_guard<std::mutex> a(muA); }
} // namespace lrd
)"}});
    const Diagnostic *o = findRule(oneLine, kRuleLockDiscipline);
    ASSERT_NE(o, nullptr);
    EXPECT_NE(o->message.find("lock acquisition order cycle"),
              std::string::npos);
}

TEST(LintLock, ConsistentOrderIsClean)
{
    const auto diags = lintFiles({{"src/obs/a.cc", R"(
namespace lrd {
namespace {
std::mutex muA;
std::mutex muB;
} // namespace
void first() {
    std::lock_guard<std::mutex> la(muA);
    std::lock_guard<std::mutex> lb(muB);
}
void second() {
    std::lock_guard<std::mutex> la(muA);
    std::lock_guard<std::mutex> lb(muB);
}
} // namespace lrd
)"}});
    EXPECT_FALSE(hasRule(diags, kRuleLockDiscipline));
}

// -------------------------------------------------------- unchecked-result

TEST(LintUnchecked, DiscardedStatusReturnIsFlagged)
{
    const auto diags = lintFiles({{"src/decomp/apply.cc", R"(
namespace lrd {
Status applyStep(int k) { return Status(); }
void run() { applyStep(3); }
} // namespace lrd
)"}});
    const Diagnostic *d = findRule(diags, kRuleUncheckedResult);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("applyStep"), std::string::npos);
    EXPECT_NE(d->message.find("discarded"), std::string::npos);
}

TEST(LintUnchecked, CheckedAndVoidCastCallsAreClean)
{
    const auto diags = lintFiles({{"src/decomp/apply.cc", R"(
namespace lrd {
Status applyStep(int k) { return Status(); }
int plainValue() { return 4; }
void run() {
    const Status st = applyStep(3);
    if (!st.ok())
        return;
    (void)applyStep(4);
    plainValue();
}
} // namespace lrd
)"}});
    EXPECT_FALSE(hasRule(diags, kRuleUncheckedResult));
}

// --------------------------------------------------------------- fp-order

TEST(LintFpOrder, CapturedAccumulationInChunkBodyIsFlagged)
{
    const auto diags = lintFiles({{"src/eval/reduce.cc", R"(
namespace lrd {
double sumAll(long n) {
    double total = 0.0;
    parallelFor(0, n, 1, [&](long lo, long hi) {
        total += 1.0;
    });
    return total;
}
} // namespace lrd
)"}});
    const Diagnostic *d = findRule(diags, kRuleFpOrder);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("total"), std::string::npos);
    EXPECT_NE(d->message.find("reorders"), std::string::npos);
}

TEST(LintFpOrder, ChunkLocalAndBlessedHelperAreClean)
{
    // A chunk-local accumulator is serial within its chunk, and the
    // fixed-order reducers under src/parallel/ are exempt wholesale.
    const std::string body = R"(
namespace lrd {
double sumAll(long n) {
    double total = 0.0;
    parallelFor(0, n, 1, [&](long lo, long hi) {
        double part = 0.0;
        for (long i = lo; i < hi; ++i)
            part += 1.0;
        consumePart(part);
    });
    return total;
}
} // namespace lrd
)";
    EXPECT_FALSE(hasRule(lintFiles({{"src/eval/reduce.cc", body}}),
                         kRuleFpOrder));

    const std::string captured = R"(
namespace lrd {
double sumAll(long n) {
    double total = 0.0;
    parallelFor(0, n, 1, [&](long lo, long hi) {
        total += 1.0;
    });
    return total;
}
} // namespace lrd
)";
    EXPECT_FALSE(hasRule(lintFiles({{"src/parallel/reduce.cc", captured}}),
                         kRuleFpOrder));
}

// ------------------------------------------------------------ dead-symbol

TEST(LintDead, UnreferencedPublicFunctionIsFlagged)
{
    const auto diags = lintFiles({{"src/util/extra.cc", R"(
namespace lrd {
int orphanHelper() { return 1; }
} // namespace lrd
)"}});
    const Diagnostic *d = findRule(diags, kRuleDeadSymbol);
    ASSERT_NE(d, nullptr);
    EXPECT_NE(d->message.find("orphanHelper"), std::string::npos);
}

TEST(LintDead, ReferenceFromTestsCountsAsLive)
{
    const std::vector<SourceFile> tree = {
        {"src/util/extra.cc", R"(
namespace lrd {
int orphanHelper() { return 1; }
} // namespace lrd
)"},
        {"tests/extra_test.cc", R"(
#include <gtest/gtest.h>
TEST(Extra, Helper) { EXPECT_EQ(1, lrd::orphanHelper()); }
)"},
    };
    EXPECT_FALSE(hasRule(lintFiles(tree), kRuleDeadSymbol));
}

// --------------------------------------------------- cache and reporters

TEST(LintCache, SummaryRoundTripsThroughSerialization)
{
    const FileSummary sum = parseFile(
        SourceFile{"src/obs/state.cc", R"(
namespace lrd {
namespace {
std::mutex gMu;
// lrd-lint: mutex(gMu)
int gCount = 0;
} // namespace
Status bump() {
    std::lock_guard<std::mutex> l(gMu);
    gCount += 1;
    return Status();
}
void all(long n) {
    parallelFor(0, n, 1, [&](long lo, long hi) { bump(); });
}
} // namespace lrd
)"},
        "feedcafe");
    const std::string wire = serializeSummary(sum);
    FileSummary back;
    ASSERT_TRUE(deserializeSummary(wire, back));
    // Round-tripped summaries must analyze identically, which the
    // re-serialization equality pins down field by field.
    EXPECT_EQ(wire, serializeSummary(back));
    EXPECT_EQ(sum.path, back.path);
    EXPECT_EQ(sum.functions.size(), back.functions.size());
}

TEST(LintCache, DeserializeRejectsCorruptPayload)
{
    FileSummary out;
    EXPECT_FALSE(deserializeSummary("not a summary", out));
    EXPECT_FALSE(deserializeSummary("", out));
}

TEST(LintOutput, SarifAndJsonAreDeterministic)
{
    const std::vector<Diagnostic> diags = {
        {"src/a.cc", 7, kRuleHotPathAlloc, "allocation (new) on the hot path", "f"},
        {"src/b.cc", 9, kRuleDeadSymbol, "'g' has no in-tree reference", "g"},
    };
    const std::string sarif = toSarif(diags);
    EXPECT_EQ(sarif, toSarif(diags));
    EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find(kRuleHotPathAlloc), std::string::npos);
    const std::string json = toJson(diags);
    EXPECT_EQ(json, toJson(diags));
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
}

} // namespace
} // namespace lrd::lint
