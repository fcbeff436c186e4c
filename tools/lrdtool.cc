/**
 * @file
 * lrdtool — command-line front-end to the lrd library.
 *
 * Subcommands (analytic ones need no training; eval ones load or
 * train the cached stand-in model):
 *
 *   lrdtool info <preset>                 model shape + param counts
 *   lrdtool designspace <preset>          Theorem 3.2 scale
 *   lrdtool schedule <preset> <percent>   Table-4-style layer schedule
 *   lrdtool profile <preset> [percent]    A100 latency/energy/memory
 *   lrdtool breakeven <H> <W>             largest compressing rank
 *   lrdtool eval [percent]                benchmark the tiny stand-in
 *   lrdtool stats [percent]               decompose + eval the tiny
 *                                         stand-in, dump metrics JSON
 *   lrdtool train [flags]                 checkpointed training run
 *   lrdtool dse [flags]                   checkpointed Definition-1
 *                                         sweep on the tiny stand-in;
 *                                         --shard/--supervise/--merge
 *                                         run it as crash-supervised
 *                                         shard processes
 *   lrdtool serve [flags]                 closed-loop serving run over
 *                                         a request file or synthetic
 *                                         workload
 *   lrdtool loadgen [flags]               open-loop seeded arrival
 *                                         process against the server
 *   lrdtool faults                        fault-injection site table
 *   lrdtool monitor <file> [--follow]     per-phase summary of a
 *                                         flight-recorder JSONL file
 *   lrdtool compare <runA> <runB>         metric-by-metric diff of
 *                                         two flight-recorder runs
 *
 * Presets: llama2-7b, llama2-70b, bert-base, bert-large, tiny-llama,
 * tiny-bert.
 *
 * Environment: LRD_THREADS, LRD_LOG, LRD_TRACE, LRD_STATS,
 * LRD_TELEMETRY, LRD_ROBUST, LRD_FAULT, LRD_DEADLINE, LRD_WATCHDOG,
 * LRD_SERVE_* (see usage()).
 *
 * Exit codes (see README.md): 0 ok, 1 error, 2 degraded past the
 * failure budget, 3 cancelled (SIGINT/SIGTERM), 4 deadline exceeded,
 * 5 corrupt checkpoint, 6 non-convergence, 8 shard failed past its
 * retry budget (7 is retired). A second signal force-exits with the
 * POSIX 128+signo code.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "decomp/tucker.h"
#include "util/logging.h"
#include "dse/coordinator.h"
#include "dse/design_space.h"
#include "dse/optimizer.h"
#include "dse/schedules.h"
#include "dse/shard.h"
#include "eval/evaluator.h"
#include "hw/opcount.h"
#include "hw/roofline.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/checkpoint.h"
#include "robust/fault.h"
#include "robust/signal.h"
#include "serve/load_control.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "tensor/simd/simd.h"
#include "train/model_zoo.h"
#include "train/trainer.h"
#include "util/json.h"
#include "util/table.h"
#include "util/timer.h"

using namespace lrd;

namespace {

void usage();

ModelConfig
presetByName(const std::string &name)
{
    if (name == "llama2-7b")
        return llama2_7bConfig();
    if (name == "llama2-70b")
        return llama2_70bConfig();
    if (name == "bert-base")
        return bertBaseConfig();
    if (name == "bert-large")
        return bertLargeConfig();
    if (name == "tiny-llama")
        return tinyLlamaConfig();
    if (name == "tiny-bert")
        return tinyBertConfig();
    fatal("unknown preset '" + name
          + "' (try llama2-7b, llama2-70b, bert-base, bert-large, "
            "tiny-llama, tiny-bert)");
}

int
cmdInfo(const std::string &preset)
{
    const ModelConfig cfg = presetByName(preset);
    std::printf("%s (%s)\n", cfg.name.c_str(),
                cfg.arch == Arch::LlamaStyle ? "decoder, Llama-style"
                                             : "encoder, BERT-style");
    std::printf("  vocab %lld  dModel %lld  layers %lld  heads %lld  "
                "dFf %lld  maxSeq %lld\n",
                static_cast<long long>(cfg.vocabSize),
                static_cast<long long>(cfg.dModel),
                static_cast<long long>(cfg.nLayers),
                static_cast<long long>(cfg.nHeads),
                static_cast<long long>(cfg.dFf),
                static_cast<long long>(cfg.maxSeq));
    const auto total = static_cast<double>(cfg.totalParams());
    const auto decomposable =
        static_cast<double>(cfg.allDecomposableParams());
    std::printf("  total params        %s\n",
                TablePrinter::scaled(total).c_str());
    std::printf("  decomposable params %s (%.1f%%) across %lld "
                "tensors/layer\n",
                TablePrinter::scaled(decomposable).c_str(),
                100.0 * decomposable / total,
                static_cast<long long>(cfg.numDecomposableTensors()));
    const double fp16Bytes = total * 2;
    std::printf("  FP16 size           %s\n",
                fp16Bytes >= 1e9
                    ? (TablePrinter::num(fp16Bytes / 1e9, 2) + " GB").c_str()
                    : (TablePrinter::num(fp16Bytes / 1e6, 2) + " MB").c_str());
    for (WeightKind kind : decomposableKinds(cfg.arch)) {
        const auto shape = cfg.weightShape(kind);
        std::printf("    %-5s %lld x %lld (break-even rank %lld)\n",
                    weightKindName(kind).c_str(),
                    static_cast<long long>(shape[0]),
                    static_cast<long long>(shape[1]),
                    static_cast<long long>(
                        breakEvenRank(shape[0], shape[1])));
    }
    return 0;
}

int
cmdDesignSpace(const std::string &preset)
{
    const ModelConfig cfg = presetByName(preset);
    std::printf("%s: N_layers=%lld, N_tensors=%lld\n", cfg.name.c_str(),
                static_cast<long long>(cfg.nLayers),
                static_cast<long long>(cfg.numDecomposableTensors()));
    std::printf("  |S_LR| = (2^%lld - 1)(2^%lld - 1) r + 1 = "
                "O(2^%.1f) at r = 1\n",
                static_cast<long long>(cfg.nLayers),
                static_cast<long long>(cfg.numDecomposableTensors()),
                designSpaceSizeLog2(cfg, 1));
    if (cfg.nLayers <= 16)
        std::printf("  exact count at r=1: %llu\n",
                    static_cast<unsigned long long>(
                        designSpaceSizeExact(cfg, 1)));
    return 0;
}

int
cmdSchedule(const std::string &preset, double percent)
{
    const ModelConfig cfg = presetByName(preset);
    const DecompConfig gamma =
        scheduleForReduction(cfg, percent / 100.0);
    std::printf("target %.1f%% -> %s\n", percent,
                gamma.describe().c_str());
    std::printf("achieved reduction: %.2f%% (%lld -> %lld params in "
                "decomposed tensors)\n",
                gamma.parameterReduction(cfg) * 100.0,
                static_cast<long long>(gamma.paramsBefore(cfg)),
                static_cast<long long>(gamma.paramsAfter(cfg)));
    return 0;
}

int
cmdProfile(const std::string &preset, double percent)
{
    const ModelConfig cfg = presetByName(preset);
    const DeviceSpec dev = a100_80gb();
    GenerationWorkload wl;
    wl.batch = 32;
    wl.promptLen = 1024;
    wl.decodeTokens = 256;
    const DecompConfig gamma =
        percent > 0.0 ? scheduleForReduction(cfg, percent / 100.0)
                      : DecompConfig::identity();
    const InferenceEstimate est =
        estimateGeneration(cfg, gamma, dev, wl);
    std::printf("host SIMD: %s (CPU roofline cross-checks use %s)\n",
                simd::levelName(simd::activeLevel()),
                cpuCore().name.c_str());
    std::printf("%s @ %.1f%% reduction on %s (batch %lld, prompt "
                "%lld, decode %lld):\n",
                cfg.name.c_str(), gamma.parameterReduction(cfg) * 100.0,
                dev.name.c_str(), static_cast<long long>(wl.batch),
                static_cast<long long>(wl.promptLen),
                static_cast<long long>(wl.decodeTokens));
    std::printf("  latency  %.3f s (prefill %.3f + decode %.3f)\n",
                est.latencySec, est.prefillSec, est.decodeSec);
    std::printf("  decode   %.0f tok/s\n", est.tokensPerSec);
    std::printf("  energy   %.1f J\n", est.energyJoules);
    std::printf("  memory   %.2f GB\n", est.memBytes / 1e9);

    // Per-layer time/MAC breakdown of one prefill-shaped forward
    // pass; "layer<l>.<op>" rows are folded into one row per layer.
    WorkloadParams wp;
    wp.batch = wl.batch;
    wp.seqLen = wl.promptLen;
    struct LayerCost
    {
        int64_t macs = 0;
        int64_t bytes = 0;
    };
    std::vector<std::pair<std::string, LayerCost>> layers;
    std::map<std::string, size_t> layerIndex;
    for (const OpProfile &op : profileTransformer(cfg, gamma, wp)) {
        const size_t dot = op.name.find('.');
        const std::string label =
            dot == std::string::npos ? op.name : op.name.substr(0, dot);
        auto [it, inserted] =
            layerIndex.try_emplace(label, layers.size());
        if (inserted)
            layers.push_back({label, {}});
        LayerCost &cost = layers[it->second].second;
        cost.macs += op.macs;
        cost.bytes += op.bytesMoved;
    }
    double totalSec = 0.0;
    for (const auto &[label, cost] : layers)
        totalSec += roofline(cost.macs, cost.bytes, dev).latencySec;

    TablePrinter table("Per-layer breakdown (prefill, roofline)");
    table.setHeader({"layer", "MACs (G)", "moved (MB)", "time (ms)",
                     "share (%)"});
    for (const auto &[label, cost] : layers) {
        const double sec = roofline(cost.macs, cost.bytes, dev).latencySec;
        table.addRow({label,
                      TablePrinter::num(static_cast<double>(cost.macs) / 1e9),
                      TablePrinter::num(static_cast<double>(cost.bytes) / 1e6,
                                        2),
                      TablePrinter::num(sec * 1e3),
                      TablePrinter::num(
                          totalSec > 0.0 ? 100.0 * sec / totalSec : 0.0,
                          1)});
    }
    std::printf("\n");
    table.print();
    return 0;
}

int
cmdBreakEven(int64_t h, int64_t w)
{
    const int64_t pr = breakEvenRank(h, w);
    std::printf("W (%lld x %lld): largest compressing pruned rank = "
                "%lld\n",
                static_cast<long long>(h), static_cast<long long>(w),
                static_cast<long long>(pr));
    if (pr >= 1)
        std::printf("  at pr=%lld: %lld -> %lld params (%.2fx)\n",
                    static_cast<long long>(pr),
                    static_cast<long long>(denseParams(h, w)),
                    static_cast<long long>(decomposedParams(h, w, pr)),
                    compressionRatio(h, w, pr));
    std::printf("  at pr=1:  %.1fx compression\n",
                compressionRatio(h, w, 1));
    return 0;
}

int
cmdEval(double percent)
{
    TransformerModel model = pretrainedTinyLlama();
    const ModelConfig cfg = model.config();
    const DecompConfig gamma =
        percent > 0.0 ? scheduleForReduction(cfg, percent / 100.0)
                      : DecompConfig::identity();
    if (!gamma.empty()) {
        std::printf("applying %s\n", gamma.describe().c_str());
        const Status applied = gamma.applyTo(model);
        if (!applied.ok()) {
            std::fprintf(stderr, "eval: %s\n", applied.toString().c_str());
            return exitCodeForStatus(applied);
        }
    }
    Evaluator ev(model, defaultWorld(), EvalOptions{120, 777, false});
    Status worst;
    for (BenchmarkKind kind : allBenchmarks()) {
        const EvalResult r = ev.run(kind);
        std::printf("%-14s %.3f (%d/%d)%s\n", benchmarkName(kind).c_str(),
                    r.accuracy, r.numCorrect, r.numTasks,
                    r.partial() ? " [partial]" : "");
        if (worst.ok() && !r.status.ok())
            worst = r.status;
    }
    if (!worst.ok())
        std::printf("status     %s\n", worst.toString().c_str());
    return exitCodeForStatus(worst);
}

/**
 * Decompose + briefly evaluate the tiny stand-in model with metrics
 * forced on, then dump the registry JSON to stdout. Exercises the
 * Jacobi sweeps (via Tucker factorization) and the per-layer GEMM MAC
 * counters, so the output covers every metric family.
 */
int
cmdStats(double percent)
{
    MetricsRegistry::instance().setEnabled(true);
    inform(strCat("stats: SIMD dispatch level ",
                  simd::levelName(simd::activeLevel()), ", ",
                  parallelWorkers(), " worker thread(s)"));
    TransformerModel model = pretrainedTinyLlama();
    const ModelConfig cfg = model.config();
    const DecompConfig gamma =
        percent > 0.0 ? scheduleForReduction(cfg, percent / 100.0)
                      : DecompConfig::identity();
    if (!gamma.empty()) {
        inform(strCat("stats: applying ", gamma.describe()));
        const Status applied = gamma.applyTo(model);
        if (!applied.ok()) {
            std::fprintf(stderr, "stats: %s\n", applied.toString().c_str());
            return exitCodeForStatus(applied);
        }
    }
    Evaluator ev(model, defaultWorld(), EvalOptions{24, 777, false});
    const EvalResult r = ev.run(allBenchmarks().front());
    inform(strCat("stats: scored ", r.numTasks, " items (accuracy ",
                  r.accuracy, ")"));
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    TablePrinter quantiles("Histogram quantiles");
    quantiles.setHeader({"histogram", "count", "p50", "p90", "p99"});
    for (const auto &[name, hs] : snap.histograms) {
        if (hs.count == 0)
            continue;
        quantiles.addRow({name, std::to_string(hs.count),
                          TablePrinter::num(hs.p50(), 1),
                          TablePrinter::num(hs.p90(), 1),
                          TablePrinter::num(hs.p99(), 1)});
    }
    if (quantiles.rowCount() > 0)
        quantiles.print();
    // With LRD_STATS set, flushObservability() writes the registry;
    // printing here too would emit the JSON twice.
    if (obsStatsPath().empty())
        std::printf("%s", MetricsRegistry::instance().toJson().c_str());
    if (!obsTracePath().empty())
        inform(strCat("stats: trace spans flush to ", obsTracePath(),
                      " on exit"));
    return 0;
}

/** "--key=value" / "--flag" parsing for the train/dse subcommands. */
struct Flags
{
    std::map<std::string, std::string> kv;

    static Flags parse(int argc, char **argv, int first)
    {
        Flags f;
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0)
                fatal("unexpected argument '" + arg + "'");
            const size_t eq = arg.find('=', 2);
            if (eq == std::string::npos)
                f.kv.insert_or_assign(arg.substr(2), std::string("1"));
            else
                f.kv.insert_or_assign(arg.substr(2, eq - 2),
                                      arg.substr(eq + 1));
        }
        return f;
    }

    std::string str(const std::string &key,
                    const std::string &fallback = "") const
    {
        const auto it = kv.find(key);
        return it == kv.end() ? fallback : it->second;
    }

    int num(const std::string &key, int fallback) const
    {
        const auto it = kv.find(key);
        return it == kv.end() ? fallback : std::atoi(it->second.c_str());
    }

    bool has(const std::string &key) const { return kv.count(key) != 0; }
};

/**
 * A short checkpointed training run on the tiny stand-in. Prints the
 * final loss and a CRC of the trained weights, so two invocations
 * (interrupted-and-resumed vs. uninterrupted) can be diffed directly.
 */
int
cmdTrain(const Flags &flags)
{
    TransformerModel model(tinyLlamaConfig(), /*seed=*/1001);
    TrainOptions t = zooTrainOptions(Arch::LlamaStyle);
    t.steps = flags.num("steps", 12);
    t.logEvery = flags.num("log-every", 0);
    t.checkpointPath = flags.str("ckpt");
    t.checkpointEvery = flags.num("every", 4);
    t.resume = flags.has("resume");
    Trainer trainer(model, defaultWorld(), t);
    const double loss = trainer.run();
    const std::vector<uint8_t> bytes = model.serialize();
    std::printf("status     %s\n", trainer.runStatus().ok()
                                       ? "completed"
                                       : trainer.runStatus().toString().c_str());
    std::printf("final loss %.6f\n", loss);
    std::printf("weights    crc32 %08x (%zu bytes)\n", crc32(bytes),
                bytes.size());
    return exitCodeForStatus(trainer.runStatus());
}

/** Absolute path of this binary, for respawning shard children. */
std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return std::string(buf);
    }
    return std::string(argv0);
}

/** Parse "--ranks=1,2,4" into positive integers; false on bad text. */
bool
parseRanksFlag(const std::string &text, std::vector<int64_t> &out)
{
    size_t pos = 0;
    for (;;) {
        const size_t comma = text.find(',', pos);
        const std::string tok =
            comma == std::string::npos
                ? text.substr(pos)
                : text.substr(pos, comma - pos);
        if (tok.empty() || tok.size() > 6
            || tok.find_first_not_of("0123456789") != std::string::npos)
            return false;
        out.push_back(std::atoll(tok.c_str()));
        if (out.back() < 1)
            return false;
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return !out.empty();
}

void
printDseResult(const OptimizerResult &r)
{
    std::printf("explored   %zu candidates (%d degraded)\n",
                r.explored.size(), r.numFailed);
    std::printf("baseline   acc %.3f  edp %.4g\n", r.baselineAccuracy,
                r.baselineEdp);
    std::printf("best       %s\n", r.best.config.describe().c_str());
    std::printf("           acc %.3f  edp %.4g  reduction %.2f%%\n",
                r.best.accuracy, r.best.edp, r.best.reduction * 100.0);
}

/** Exit code for a DSE-family status: the supervisor's retry-budget
 *  failure gets its own documented code 8. */
int
dseExitCode(const Status &status)
{
    if (!status.ok()
        && std::strcmp(status.site(), "dse.shard.retry") == 0)
        return kExitShardFailed;
    return exitCodeForStatus(status);
}

/**
 * A checkpointed Definition-1 sweep on the tiny stand-in model.
 *
 * Four modes: serial (default), one shard of a partitioned sweep
 * (--shard=i/n), supervisor of n shard child processes
 * (--supervise=n), and merge-only over an existing results directory
 * (--merge=n). A supervised run's merged --out file is bitwise
 * identical to a serial run's at any LRD_THREADS.
 */
int
cmdDse(const Flags &flags, const char *argv0)
{
    OptimizerOptions opts;
    opts.evalTasks = flags.num("tasks", 24);
    opts.checkpointPath = flags.str("ckpt");
    opts.checkpointEvery = flags.num("every", 8);
    opts.resume = flags.has("resume");
    if (flags.has("ranks")
        && !parseRanksFlag(flags.str("ranks"), opts.candidateRanks)) {
        std::fprintf(stderr,
                     "dse: bad --ranks '%s' (want e.g. --ranks=1,2,4)\n",
                     flags.str("ranks").c_str());
        usage();
        return 1;
    }
    const std::string dir = flags.str("dir", "dse_shards");

    if (flags.has("supervise")) {
        const int shards = flags.num("supervise", 0);
        if (shards < 1 || shards > 4096) {
            std::fprintf(stderr,
                         "dse: bad --supervise '%s' (want 1..4096)\n",
                         flags.str("supervise").c_str());
            usage();
            return 1;
        }
        MetricsRegistry::instance().setEnabled(true);
        SupervisorOptions sup;
        sup.shards = shards;
        sup.dir = dir;
        sup.maxRetries = flags.num("retries", 3);
        sup.backoffBaseTicks = flags.num("backoff", 100);
        sup.staleLeaseSeconds = flags.num("stale-secs", 900);
        sup.accuracyDropTolerance = opts.accuracyDropTolerance;
        sup.childArgs = {selfExePath(argv0), "dse", "--shard={shard}",
                         "--dir=" + dir,
                         "--tasks=" + std::to_string(opts.evalTasks),
                         "--every="
                             + std::to_string(opts.checkpointEvery)};
        if (flags.has("ranks"))
            sup.childArgs.push_back("--ranks=" + flags.str("ranks"));
        const SupervisorReport rep = superviseDse(sup);
        std::printf("status     %s\n", rep.status.ok()
                                           ? "completed"
                                           : rep.status.toString().c_str());
        std::printf("launched   %d\n", rep.launched);
        std::printf("retried    %d\n", rep.retried);
        std::printf("reclaimed  %d\n", rep.reclaimed);
        std::printf("skipped    %d\n", rep.skipped);
        std::printf("failed     %d\n", rep.failed);
        std::printf("merged     %d\n", rep.shardsMerged);
        std::printf("evals ever %lld\n",
                    static_cast<long long>(rep.evalsEver));
        std::printf("recomputed %lld\n",
                    static_cast<long long>(rep.recomputed));
        std::printf("orphan tmps %lld\n",
                    static_cast<long long>(rep.orphanTmpsSwept));
        if (!rep.status.ok())
            return dseExitCode(rep.status);
        printDseResult(rep.result);
        if (flags.has("out")) {
            const Status ws =
                writeDseResultFile(flags.str("out"), rep.result);
            if (!ws.ok()) {
                std::fprintf(stderr, "dse: %s\n", ws.toString().c_str());
                return exitCodeForStatus(ws);
            }
        }
        return 0;
    }

    if (flags.has("merge")) {
        const int shards = flags.num("merge", 0);
        if (shards < 1 || shards > 4096) {
            std::fprintf(stderr,
                         "dse: bad --merge '%s' (want 1..4096)\n",
                         flags.str("merge").c_str());
            usage();
            return 1;
        }
        MetricsRegistry::instance().setEnabled(true);
        Result<MergeReport> merge =
            mergeShardResults(dir, shards, opts.accuracyDropTolerance);
        if (!merge.ok()) {
            std::fprintf(stderr, "dse: %s\n",
                         merge.status().toString().c_str());
            return exitCodeForStatus(merge.status());
        }
        const MergeReport &rep = merge.value();
        std::printf("status     completed\n");
        std::printf("merged     %d\n", rep.shardsMerged);
        std::printf("evals ever %lld\n",
                    static_cast<long long>(rep.evalsEver));
        std::printf("recomputed %lld\n",
                    static_cast<long long>(rep.recomputed));
        printDseResult(rep.result);
        if (flags.has("out")) {
            const Status ws =
                writeDseResultFile(flags.str("out"), rep.result);
            if (!ws.ok()) {
                std::fprintf(stderr, "dse: %s\n", ws.toString().c_str());
                return exitCodeForStatus(ws);
            }
        }
        return 0;
    }

    if (flags.has("shard")) {
        Result<ShardSpec> spec = parseShardSpec(flags.str("shard"));
        if (!spec.ok()) {
            std::fprintf(stderr, "dse: %s\n",
                         spec.status().toString().c_str());
            usage();
            return 1;
        }
        MetricsRegistry::instance().setEnabled(true);
        TransformerModel model = pretrainedTinyLlama();
        Result<OptimizerResult> run = runDseShard(
            model.serialize(), defaultWorld(), opts, spec.value(), dir);
        if (!run.ok()) {
            std::fprintf(stderr, "dse: %s\n",
                         run.status().toString().c_str());
            return exitCodeForStatus(run.status());
        }
        const OptimizerResult &r = run.value();
        std::printf("status     completed\n");
        std::printf("shard      %d/%d: %zu of %lld candidates\n",
                    spec.value().index, spec.value().count,
                    r.explored.size(),
                    static_cast<long long>(r.gridSize));
        return 0;
    }

    TransformerModel model = pretrainedTinyLlama();
    const OptimizerResult r =
        optimizeDecomposition(model.serialize(), defaultWorld(), opts);
    std::printf("status     %s\n",
                r.cancelled ? (r.status.toString()
                               + " (resume with --resume)").c_str()
                            : "completed");
    printDseResult(r);
    if (flags.has("out") && !r.cancelled) {
        const Status ws = writeDseResultFile(flags.str("out"), r);
        if (!ws.ok()) {
            std::fprintf(stderr, "dse: %s\n", ws.toString().c_str());
            return exitCodeForStatus(ws);
        }
    }
    return exitCodeForStatus(r.status);
}

/**
 * Digest of the full response vector (ids, outcomes, score bit
 * patterns, settle ticks). Two serve runs of the same seed workload
 * must print the same CRC at any LRD_THREADS — scripts diff this
 * directly instead of parsing every response.
 */
uint32_t
responseDigest(const std::vector<ServeResponse> &responses)
{
    std::vector<uint8_t> bytes;
    bytes.reserve(responses.size() * 24);
    const auto append = [&](const void *p, size_t n) {
        const auto *b = static_cast<const uint8_t *>(p);
        bytes.insert(bytes.end(), b, b + n);
    };
    for (const ServeResponse &resp : responses) {
        append(&resp.id, sizeof(resp.id));
        const auto outcome = static_cast<int32_t>(resp.outcome);
        append(&outcome, sizeof(outcome));
        const auto degraded = static_cast<int32_t>(resp.degraded);
        append(&degraded, sizeof(degraded));
        append(&resp.score, sizeof(resp.score));
        append(&resp.settledTick, sizeof(resp.settledTick));
    }
    return crc32(bytes);
}

/**
 * Drive the serving layer over a workload and report the outcome mix,
 * latency quantiles, and the degradation ladder's deepest rung.
 * Closed loop (serve): every request arrives at tick 0, so admission
 * control and the ladder face the full burst. Open loop (loadgen):
 * arrivals follow a seeded gap process at a configurable rate.
 */
int
runServeCommand(const Flags &flags, bool openLoop)
{
    // Serving reports through obs metrics (and the flight recorder
    // when LRD_TELEMETRY is set), so recording must be on.
    MetricsRegistry::instance().setEnabled(true);
    ServeOptions opts = ServeOptions::fromEnv();
    opts.queueCapacity =
        flags.num("queue", static_cast<int>(opts.queueCapacity));
    opts.maxBatch = flags.num("batch", static_cast<int>(opts.maxBatch));
    opts.maxClientAttempts =
        flags.num("retries", opts.maxClientAttempts);
    opts.retryBackoffBaseTicks = flags.num(
        "backoff", static_cast<int>(opts.retryBackoffBaseTicks));
    opts.fallbackRank = flags.num(
        "fallback-rank",
        static_cast<int>(opts.fallbackRank > 0 ? opts.fallbackRank : 2));
    opts.defaultDeadlineTicks = flags.num(
        "deadline", static_cast<int>(opts.defaultDeadlineTicks));

    // The untrained tiny model serves by default: synthetic workloads
    // only need deterministic scores, and chaos/CI runs should not
    // pay the train-once cache fill. --pretrained opts into the zoo.
    TransformerModel model =
        flags.has("pretrained")
            ? pretrainedTinyLlama()
            : TransformerModel(tinyLlamaConfig(), /*seed=*/1001);

    std::vector<ServeRequest> workload;
    if (flags.has("file")) {
        Result<std::vector<ServeRequest>> loaded = loadWorkloadFile(
            flags.str("file"), opts.defaultDeadlineTicks);
        if (!loaded.ok()) {
            std::fprintf(stderr, "serve: %s\n",
                         loaded.status().toString().c_str());
            return exitCodeForStatus(loaded.status());
        }
        workload = std::move(loaded).value();
    } else {
        WorkloadOptions w;
        w.numRequests = flags.num("requests", openLoop ? 96 : 48);
        w.tenants = flags.num("tenants", 4);
        w.deadlineTicks = opts.defaultDeadlineTicks;
        w.maxArrivalGapTicks = openLoop ? flags.num("gap", 2) : 0;
        w.seed = static_cast<uint64_t>(flags.num("seed", 42));
        workload = makeSyntheticWorkload(model.config(), w);
    }

    inform(strCat(openLoop ? "loadgen" : "serve", ": ", workload.size(),
                  " requests, queue ", opts.queueCapacity, ", batch ",
                  opts.maxBatch, ", ", parallelWorkers(),
                  " worker thread(s)"));
    Server server(model, opts);
    const ServeReport report = server.run(std::move(workload));
    const ServeStats &s = report.stats;

    TablePrinter outcomes("Serving outcomes");
    outcomes.setHeader({"outcome", "count"});
    outcomes.addRow({"responded",
                     strCat(s.responded, s.degradedResponses > 0
                                             ? strCat(" (",
                                                      s.degradedResponses,
                                                      " degraded)")
                                             : std::string())});
    outcomes.addRow({"shed", std::to_string(s.shed)});
    outcomes.addRow({"deadline-missed", std::to_string(s.deadlineMissed)});
    outcomes.addRow({"cancelled", std::to_string(s.cancelled)});
    outcomes.print();

    const auto total = static_cast<double>(report.responses.size());
    std::printf("offers     %lld admitted / %lld total (%lld client "
                "retries)\n",
                static_cast<long long>(s.admitted),
                static_cast<long long>(s.offered),
                static_cast<long long>(s.clientRetries));
    std::printf("latency    p50 %.0f ticks, p99 %.0f ticks\n",
                s.p50LatencyTicks, s.p99LatencyTicks);
    std::printf("rates      shed %.1f%%  deadline-miss %.1f%%\n",
                100.0 * static_cast<double>(s.shed) / total,
                100.0 * static_cast<double>(s.deadlineMissed) / total);
    std::printf("throughput %.1f req/s (%lld batches over %lld ticks, "
                "%.3f s)\n",
                s.throughputRps, static_cast<long long>(s.batches),
                static_cast<long long>(s.ticks), s.wallSeconds);
    std::printf("ladder     deepest rung %s\n",
                serviceLevelName(
                    static_cast<ServiceLevel>(s.maxServiceLevel)));
    std::printf("responses  crc32 %08x\n",
                responseDigest(report.responses));
    std::printf("status     %s\n", report.status.ok()
                                       ? "completed"
                                       : report.status.toString().c_str());
    return exitCodeForStatus(report.status);
}

/** One flight-recorder file, split by record type. */
struct TelemetryFile
{
    bool hasManifest = false;
    RunManifest manifest;
    std::vector<JsonValue> samples;
    bool hasFinal = false;
    JsonValue finalRecord;
};

Result<std::string>
readFileText(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return Status(StatusCode::NotFound, "telemetry.read",
                      strCat("cannot open ", path));
    std::string text;
    char buf[4096];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return text;
}

/**
 * Load a telemetry JSONL file. A truncated final line (the record a
 * kill cut off mid-append) is tolerated; any earlier corruption is an
 * error.
 */
Result<TelemetryFile>
loadTelemetryFile(const std::string &path)
{
    Result<std::string> text = readFileText(path);
    if (!text.ok())
        return text.status();
    Result<std::vector<JsonValue>> records =
        parseJsonLines(text.value(), /*stopAtError=*/true);
    if (!records.ok())
        return records.status();
    TelemetryFile tf;
    for (JsonValue &rec : records.value()) {
        const std::string type = rec.stringOr("type", "");
        if (type == "manifest" && !tf.hasManifest) {
            Result<RunManifest> m = manifestFromJson(rec);
            if (m.ok()) {
                tf.manifest = std::move(m).value();
                tf.hasManifest = true;
            }
        } else if (type == "sample") {
            tf.samples.push_back(std::move(rec));
        } else if (type == "final") {
            tf.finalRecord = std::move(rec);
            tf.hasFinal = true;
        }
    }
    if (!tf.hasManifest)
        return Status(StatusCode::DataLoss, "telemetry.read",
                      strCat(path, ": no manifest record (not a "
                                   "flight-recorder file?)"));
    return tf;
}

void
printManifestSummary(const RunManifest &m)
{
    std::printf("run %s  (git %s, %s build)\n", m.runId.c_str(),
                m.gitSha.c_str(), m.buildType.c_str());
    std::printf("  cpu %s  simd %s  threads %d\n", m.cpuModel.c_str(),
                m.simdLevel.c_str(), m.threads);
    if (!m.commandLine.empty())
        std::printf("  cmd %s\n", m.commandLine.c_str());
}

/** Per-phase rollup of a run's samples. */
int
printPhaseTable(const TelemetryFile &tf)
{
    struct PhaseAgg
    {
        int64_t samples = 0;
        int64_t durMs = 0;
        int64_t macs = 0;
        int64_t rssMax = 0;
        int64_t arenaPeak = 0;
    };
    std::vector<std::pair<std::string, PhaseAgg>> phases;
    int64_t prevT = 0;
    for (const JsonValue &s : tf.samples) {
        std::string label = s.stringOr("phase", "");
        if (label.empty())
            label = "(idle)";
        auto it = std::find_if(phases.begin(), phases.end(),
                               [&](const auto &p) {
                                   return p.first == label;
                               });
        if (it == phases.end()) {
            phases.push_back({label, {}});
            it = std::prev(phases.end());
        }
        PhaseAgg &agg = it->second;
        const int64_t t = s.intOr("t_ms", prevT);
        agg.samples++;
        agg.durMs += t - prevT;
        prevT = t;
        if (const JsonValue *macs =
                s.findPath({"counters", "gemm.macs"}))
            agg.macs += macs->asInt();
        agg.rssMax = std::max(agg.rssMax, s.intOr("rss_bytes", 0));
        agg.arenaPeak =
            std::max(agg.arenaPeak, s.intOr("arena_peak_bytes", 0));
    }
    TablePrinter table("Per-phase telemetry");
    table.setHeader({"phase", "samples", "time (s)", "MACs (G)",
                     "G MACs/s", "RSS max (MB)", "arena peak (MB)"});
    for (const auto &[label, agg] : phases) {
        const double sec = static_cast<double>(agg.durMs) / 1e3;
        const double gmacs = static_cast<double>(agg.macs) / 1e9;
        table.addRow({label, std::to_string(agg.samples),
                      TablePrinter::num(sec, 2),
                      TablePrinter::num(gmacs, 2),
                      TablePrinter::num(sec > 0.0 ? gmacs / sec : 0.0, 2),
                      TablePrinter::num(
                          static_cast<double>(agg.rssMax) / 1e6, 1),
                      TablePrinter::num(
                          static_cast<double>(agg.arenaPeak) / 1e6, 1)});
    }
    table.print();
    // Serving runs get their own rollup: outcome counters, the
    // degradation ladder's resting level, and latency quantiles —
    // the operator view of admission control under load.
    if (tf.hasFinal) {
        const JsonValue &fin = tf.finalRecord;
        const auto counterAt = [&](const char *name) {
            const JsonValue *c = fin.findPath({"counters", name});
            return c != nullptr ? c->asInt() : 0;
        };
        if (counterAt("serve.ticks") > 0) {
            TablePrinter serve("Serving & admission control");
            serve.setHeader({"metric", "value"});
            serve.addRow({"admitted",
                          std::to_string(counterAt("serve.admitted"))});
            serve.addRow({"shed",
                          std::to_string(counterAt("serve.shed"))});
            serve.addRow({"responded",
                          std::to_string(counterAt("serve.responded"))});
            serve.addRow(
                {"deadline missed",
                 std::to_string(counterAt("serve.deadline.missed"))});
            serve.addRow({"cancelled",
                          std::to_string(counterAt("serve.cancelled"))});
            serve.addRow({"client retries",
                          std::to_string(
                              counterAt("serve.client.retries"))});
            serve.addRow(
                {"batches / ticks",
                 strCat(counterAt("serve.batches"), " / ",
                        counterAt("serve.ticks"))});
            const JsonValue *level =
                fin.findPath({"gauges", "serve.degrade.level"});
            serve.addRow(
                {"ladder level",
                 strCat(serviceLevelName(static_cast<ServiceLevel>(
                            level != nullptr
                                ? static_cast<int>(level->asNumber())
                                : 0)),
                        " (", counterAt("serve.degrade.transitions"),
                        " transitions)")});
            if (const JsonValue *lat =
                    fin.findPath({"hist", "serve.latency.ticks"}))
                serve.addRow(
                    {"latency ticks p50/p99",
                     strCat(TablePrinter::num(lat->numberOr("p50", 0.0),
                                              1),
                            " / ",
                            TablePrinter::num(lat->numberOr("p99", 0.0),
                                              1))});
            serve.print();
        }
        // Supervised sharded sweeps roll up their process-level
        // lifecycle: how many children launched, how often the
        // retry/backoff path fired, and how much work the merge saw
        // evaluated more than once.
        if (counterAt("dse.shard.launched") > 0) {
            TablePrinter shard("Sharded DSE supervision");
            shard.setHeader({"metric", "value"});
            shard.addRow(
                {"shards launched",
                 std::to_string(counterAt("dse.shard.launched"))});
            shard.addRow(
                {"retried",
                 std::to_string(counterAt("dse.shard.retried"))});
            shard.addRow(
                {"leases reclaimed",
                 std::to_string(counterAt("dse.shard.reclaimed"))});
            shard.addRow(
                {"failed past budget",
                 std::to_string(counterAt("dse.shard.failed"))});
            shard.addRow(
                {"shards merged",
                 std::to_string(counterAt("dse.shard.merged"))});
            shard.addRow(
                {"evals recomputed",
                 std::to_string(counterAt("dse.shard.recomputed"))});
            shard.addRow({"orphan tmps swept",
                          std::to_string(counterAt(
                              "checkpoint.orphanTmpSwept"))});
            shard.print();
        }
    }
    if (tf.hasFinal)
        std::printf("final: %lld samples over %.2f s (%lld rotations)\n",
                    static_cast<long long>(
                        tf.finalRecord.intOr("samples", 0)),
                    static_cast<double>(tf.finalRecord.intOr("t_ms", 0))
                        / 1e3,
                    static_cast<long long>(
                        tf.finalRecord.intOr("rotations", 0)));
    else
        std::printf("(no final record: run still live or killed "
                    "mid-write)\n");
    return 0;
}

/**
 * Summarize a flight-recorder file. With --follow, poll a live run
 * until its final record lands (or the file stops growing for 10 s),
 * echoing one status line per new sample batch.
 */
int
cmdMonitor(const std::string &path, bool follow)
{
    if (follow) {
        size_t lastSize = 0;
        size_t lastCount = 0;
        Timer sinceGrowth;
        for (;;) {
            Result<std::string> text = readFileText(path);
            if (text.ok() && text.value().size() != lastSize) {
                lastSize = text.value().size();
                sinceGrowth.reset();
            }
            Result<TelemetryFile> tf =
                text.ok() ? loadTelemetryFile(path)
                          : Result<TelemetryFile>(text.status());
            if (tf.ok()) {
                const TelemetryFile &t = tf.value();
                if (t.samples.size() != lastCount) {
                    lastCount = t.samples.size();
                    const JsonValue &s = t.samples.back();
                    std::printf("t=%8.2fs  phase=%-10s rss=%7.1f MB  "
                                "samples=%zu\n",
                                static_cast<double>(s.intOr("t_ms", 0))
                                    / 1e3,
                                s.stringOr("phase", "(idle)").c_str(),
                                static_cast<double>(
                                    s.intOr("rss_bytes", 0))
                                    / 1e6,
                                t.samples.size());
                }
                if (t.hasFinal)
                    break;
            }
            if (sinceGrowth.elapsedMillis() > 10000.0) {
                warn(strCat("monitor: ", path,
                            " stopped growing; giving up on --follow"));
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
        }
    }
    Result<TelemetryFile> tf = loadTelemetryFile(path);
    if (!tf.ok()) {
        std::fprintf(stderr, "%s\n", tf.status().toString().c_str());
        return 1;
    }
    printManifestSummary(tf.value().manifest);
    return printPhaseTable(tf.value());
}

/** "+12.3%" delta cell; "n/a" when the baseline is zero. */
std::string
deltaCell(double a, double b)
{
    if (a == 0.0)
        return b == 0.0 ? "0.0%" : "n/a";
    const double pct = 100.0 * (b - a) / a;
    return strCat(pct >= 0.0 ? "+" : "", TablePrinter::num(pct, 1), "%");
}

/** Ordered union of the member names of two JSON objects. */
std::vector<std::string>
memberNameUnion(const JsonValue *a, const JsonValue *b)
{
    std::vector<std::string> names;
    for (const JsonValue *obj : {a, b}) {
        if (!obj || !obj->isObject())
            continue;
        for (const auto &[name, value] : obj->members()) {
            static_cast<void>(value);
            if (std::find(names.begin(), names.end(), name)
                == names.end())
                names.push_back(name);
        }
    }
    return names;
}

/**
 * Diff two flight-recorder runs: manifest provenance side by side,
 * then cumulative counters / gauges / histogram quantiles from the
 * final records.
 */
int
cmdCompare(const std::string &pathA, const std::string &pathB)
{
    Result<TelemetryFile> ra = loadTelemetryFile(pathA);
    Result<TelemetryFile> rb = loadTelemetryFile(pathB);
    if (!ra.ok() || !rb.ok()) {
        std::fprintf(stderr, "%s\n",
                     (!ra.ok() ? ra.status() : rb.status())
                         .toString()
                         .c_str());
        return 1;
    }
    const TelemetryFile &a = ra.value();
    const TelemetryFile &b = rb.value();

    TablePrinter manifest("Run manifests");
    manifest.setHeader({"field", "A", "B"});
    const RunManifest &ma = a.manifest;
    const RunManifest &mb = b.manifest;
    manifest.addRow({"runId", ma.runId, mb.runId});
    manifest.addRow({"gitSha", ma.gitSha, mb.gitSha});
    manifest.addRow({"buildType", ma.buildType, mb.buildType});
    manifest.addRow({"simdLevel", ma.simdLevel, mb.simdLevel});
    manifest.addRow({"threads", std::to_string(ma.threads),
                     std::to_string(mb.threads)});
    manifest.addRow({"commandLine", ma.commandLine, mb.commandLine});
    // Env rows only where the two runs disagree.
    std::map<std::string, std::pair<std::string, std::string>> env;
    for (const auto &[name, value] : ma.env)
        env[name].first = value;
    for (const auto &[name, value] : mb.env)
        env[name].second = value;
    for (const auto &[name, values] : env)
        if (values.first != values.second)
            manifest.addRow({name, values.first, values.second});
    manifest.print();

    if (!a.hasFinal || !b.hasFinal) {
        std::printf("\n(%s lacks a final record; metric diff needs "
                    "completed runs)\n",
                    !a.hasFinal ? pathA.c_str() : pathB.c_str());
        return 1;
    }
    const JsonValue &fa = a.finalRecord;
    const JsonValue &fb = b.finalRecord;

    TablePrinter totals("Run totals");
    totals.setHeader({"metric", "A", "B", "delta"});
    const double ta = static_cast<double>(fa.intOr("t_ms", 0)) / 1e3;
    const double tb = static_cast<double>(fb.intOr("t_ms", 0)) / 1e3;
    totals.addRow({"wall time (s)", TablePrinter::num(ta, 2),
                   TablePrinter::num(tb, 2), deltaCell(ta, tb)});
    for (const char *key : {"rss_peak_bytes", "arena_peak_bytes"}) {
        const double va = static_cast<double>(fa.intOr(key, 0));
        const double vb = static_cast<double>(fb.intOr(key, 0));
        totals.addRow({strCat(key, " (MB)"),
                       TablePrinter::num(va / 1e6, 1),
                       TablePrinter::num(vb / 1e6, 1),
                       deltaCell(va, vb)});
    }
    for (const std::string &name :
         memberNameUnion(fa.find("counters"), fb.find("counters"))) {
        const JsonValue *ca = fa.findPath({"counters", name});
        const JsonValue *cb = fb.findPath({"counters", name});
        const int64_t va = ca ? ca->asInt() : 0;
        const int64_t vb = cb ? cb->asInt() : 0;
        totals.addRow({name, std::to_string(va), std::to_string(vb),
                       deltaCell(static_cast<double>(va),
                                 static_cast<double>(vb))});
    }
    for (const std::string &name :
         memberNameUnion(fa.find("gauges"), fb.find("gauges"))) {
        const JsonValue *ga = fa.findPath({"gauges", name});
        const JsonValue *gb = fb.findPath({"gauges", name});
        const double va = ga ? ga->asNumber() : 0.0;
        const double vb = gb ? gb->asNumber() : 0.0;
        totals.addRow({name, TablePrinter::num(va),
                       TablePrinter::num(vb), deltaCell(va, vb)});
    }
    totals.print();

    const std::vector<std::string> histNames =
        memberNameUnion(fa.find("hist"), fb.find("hist"));
    if (!histNames.empty()) {
        TablePrinter hist("Histogram quantiles");
        hist.setHeader({"histogram", "A p50", "B p50", "d p50",
                        "A p99", "B p99", "d p99"});
        for (const std::string &name : histNames) {
            const JsonValue *ha = fa.findPath({"hist", name});
            const JsonValue *hb = fb.findPath({"hist", name});
            const double p50a = ha ? ha->numberOr("p50", 0.0) : 0.0;
            const double p50b = hb ? hb->numberOr("p50", 0.0) : 0.0;
            const double p99a = ha ? ha->numberOr("p99", 0.0) : 0.0;
            const double p99b = hb ? hb->numberOr("p99", 0.0) : 0.0;
            hist.addRow({name, TablePrinter::num(p50a, 1),
                         TablePrinter::num(p50b, 1),
                         deltaCell(p50a, p50b),
                         TablePrinter::num(p99a, 1),
                         TablePrinter::num(p99b, 1),
                         deltaCell(p99a, p99b)});
        }
        hist.print();
    }
    return 0;
}

/** Markdown table of every compiled-in fault-injection site. */
int
cmdFaults()
{
    std::printf("| site | kinds | fires in |\n");
    std::printf("| --- | --- | --- |\n");
    for (const FaultSiteInfo &info : registeredFaultSites())
        std::printf("| `%s` | %s | %s |\n", info.site, info.kinds,
                    info.description);
    return 0;
}

void
usage()
{
    std::printf(
        "usage: lrdtool <command> [args]\n"
        "  info <preset>\n"
        "  designspace <preset>\n"
        "  schedule <preset> <reduction-percent>\n"
        "  profile <preset> [reduction-percent]\n"
        "  breakeven <H> <W>\n"
        "  eval [reduction-percent]\n"
        "  stats [reduction-percent]     (default 50)\n"
        "  train [--steps=N] [--ckpt=FILE] [--every=N] [--resume]\n"
        "  dse   [--tasks=N] [--ckpt=FILE] [--every=N] [--resume]\n"
        "        [--ranks=R1,R2,...] [--out=FILE]\n"
        "        [--shard=I/N --dir=DIR]     run one shard of the sweep\n"
        "        [--supervise=N --dir=DIR [--retries=N] [--backoff=MS]\n"
        "         [--stale-secs=S]]          spawn+watch N shard children,\n"
        "                                    merge to serial-identical out\n"
        "        [--merge=N --dir=DIR]       merge an existing shard dir\n"
        "  serve [--requests=N] [--file=JSONL] [--queue=N] [--batch=N]\n"
        "        [--retries=N] [--backoff=N] [--fallback-rank=N]\n"
        "        [--deadline=N] [--seed=N] [--tenants=N] [--pretrained]\n"
        "                                closed-loop serving run\n"
        "  loadgen [serve flags] [--gap=N]\n"
        "                                open-loop seeded arrivals\n"
        "  faults                        fault-injection site table\n"
        "  monitor <file> [--follow]     per-phase summary of a\n"
        "                                flight-recorder JSONL file\n"
        "  compare <runA> <runB>         diff two flight-recorder runs\n"
        "environment:\n"
        "  LRD_THREADS=<n>     thread-pool size (default: all cores)\n"
        "  LRD_LOG=<level>[+ts]  debug|info|warn|error; +ts adds\n"
        "                      timestamp / worker prefixes\n"
        "  LRD_TRACE=<file>    write chrome://tracing JSON (and\n"
        "                      <file>.summary.csv) on exit\n"
        "  LRD_STATS=<file>    write metrics-registry JSON on exit\n"
        "                      ('-' = stdout)\n"
        "  LRD_TELEMETRY=<ms>[:path]\n"
        "                      flight recorder: sample counters/RSS/\n"
        "                      quantiles every <ms> into a JSONL file\n"
        "                      (default lrd_telemetry.jsonl)\n"
        "  LRD_ROBUST=<mode>   strict | degrade[:budget] |\n"
        "                      retry[:attempts[:budget]]\n"
        "                      (default degrade:0.1)\n"
        "  LRD_FAULT=<spec>    inject faults: <site>:<kind>[:<nth>],...\n"
        "                      kinds: nan nonconv truncate bitflip\n"
        "                      alloc cancel\n"
        "  LRD_DEADLINE=<spec> stop early: steps:<n> | items:<n>\n"
        "                      (deterministic work budgets) or\n"
        "                      wall:<secs> (wall clock)\n"
        "  LRD_WATCHDOG=<secs> report stalled pipelines after <secs>\n"
        "                      without progress (report-only)\n"
        "  LRD_SERVE_QUEUE=<n>     serve: bounded request-queue capacity\n"
        "  LRD_SERVE_BATCH=<n>     serve: max batch size per tick\n"
        "  LRD_SERVE_RETRIES=<n>   serve: admission attempts per request\n"
        "  LRD_SERVE_BACKOFF=<n>   serve: client backoff base (ticks)\n"
        "  LRD_SERVE_FALLBACK_RANK=<n>\n"
        "                      serve: pruned rank of the degradation-\n"
        "                      ladder fallback variant (0 = off)\n"
        "  LRD_SERVE_DEADLINE=<n>  serve: default per-request deadline\n"
        "                      (ticks after arrival)\n"
        "  LRD_SANITIZE        build-time option (see CMakeLists.txt)\n"
        "exit codes:\n"
        "  0 ok  1 error  2 degraded past failure budget  3 cancelled\n"
        "  4 deadline exceeded  5 corrupt checkpoint  6 non-convergence\n"
        "  8 shard failed past its retry budget (dse --supervise)\n"
        "  (a second SIGINT/SIGTERM force-exits with 128+signo)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    try {
        initObservabilityFromEnv();
        initFaultsFromEnv();
        initCancelFromEnv();
        installSignalHandlers();
        // With tracing on, spawn the pool up front so every worker
        // emits its lane marker even for purely analytic commands.
        if (Tracer::enabled())
            ThreadPool::instance();
        {
            // Stamp runtime facts into the run manifest before the
            // sampler captures it. The command line doubles as the
            // run's label in `lrdtool compare`. Only a telemetry run
            // pays for materializing the pool here; analytic commands
            // without LRD_TELEMETRY stay thread-free.
            std::string cmdline;
            for (int i = 0; i < argc; ++i)
                cmdline += strCat(i ? " " : "", argv[i]);
            const int threads = obsTelemetryPath().empty()
                                    ? hardwareConcurrency()
                                    : ThreadPool::instance().numThreads();
            setManifestRuntimeInfo(
                simd::levelName(simd::activeLevel()), threads, cmdline);
        }
        startTelemetryFromEnv();

        int ret = -1;
        if (cmd == "info" && argc >= 3)
            ret = cmdInfo(argv[2]);
        else if (cmd == "designspace" && argc >= 3)
            ret = cmdDesignSpace(argv[2]);
        else if (cmd == "schedule" && argc >= 4)
            ret = cmdSchedule(argv[2], std::atof(argv[3]));
        else if (cmd == "profile" && argc >= 3)
            ret = cmdProfile(argv[2],
                             argc >= 4 ? std::atof(argv[3]) : 0.0);
        else if (cmd == "breakeven" && argc >= 4)
            ret = cmdBreakEven(std::atoll(argv[2]),
                               std::atoll(argv[3]));
        else if (cmd == "eval")
            ret = cmdEval(argc >= 3 ? std::atof(argv[2]) : 0.0);
        else if (cmd == "stats")
            ret = cmdStats(argc >= 3 ? std::atof(argv[2]) : 50.0);
        else if (cmd == "train")
            ret = cmdTrain(Flags::parse(argc, argv, 2));
        else if (cmd == "dse")
            ret = cmdDse(Flags::parse(argc, argv, 2), argv[0]);
        else if (cmd == "serve")
            ret = runServeCommand(Flags::parse(argc, argv, 2),
                                  /*openLoop=*/false);
        else if (cmd == "loadgen")
            ret = runServeCommand(Flags::parse(argc, argv, 2),
                                  /*openLoop=*/true);
        else if (cmd == "faults")
            ret = cmdFaults();
        else if (cmd == "monitor" && argc >= 3)
            ret = cmdMonitor(argv[2],
                             argc >= 4
                                 && std::strcmp(argv[3], "--follow")
                                        == 0);
        else if (cmd == "compare" && argc >= 4)
            ret = cmdCompare(argv[2], argv[3]);
        if (ret >= 0) {
            shutdownFlush();
            stopWatchdog();
            return ret;
        }
    } catch (const StatusError &e) {
        // Structured failures (failure budget, corrupt checkpoints)
        // map to their documented exit codes.
        std::fprintf(stderr, "%s\n", e.what());
        shutdownFlush();
        stopWatchdog();
        return exitCodeForStatus(e.status());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        shutdownFlush();
        stopWatchdog();
        return 1;
    }
    usage();
    return 1;
}
