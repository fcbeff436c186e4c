#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <tuple>

#include "dse/optimizer.h"
#include "dse/schedules.h"
#include "dse/shard.h"
#include "eval/evaluator.h"
#include "hw/opcount.h"
#include "hw/roofline.h"
#include "model/decomp_config.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "spans.h"
#include "train/adam.h"
#include "train/corpus.h"
#include "train/model_zoo.h"
#include "train/trainer.h"
#include "util/cache.h"
#include "util/memprobe.h"
#include "util/rng.h"

namespace perfbench {

using namespace lrd;

namespace {

constexpr int kNewTokens = 16;  ///< Tokens generated per decode request.
constexpr int kPrompts = 48;    ///< Prompts per decode pass.
constexpr int kSetupReps = 7;   ///< Set-ups per untraced run (median).
constexpr int kHwContext = 48;  ///< Context length of the opcount rows.
constexpr int kFinetuneSteps = 20;
/**
 * Quantile of a unit's repetitions that the gated unit_ms.q25 reports.
 * The lower quartile ignores slow stretches of a run (a loaded host)
 * covering up to three quarters of it, and single lucky repetitions.
 */
constexpr double kUnitQuantile = 0.25;

/** Every per-layer metric a traced run reports, with its unit. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"model.step_us.self", "us"},
    {"model.prefill_us.self", "us"},
    {"model.weight_packs_per_token", "count"},
    {"model.fused_forwards_per_token", "count"},
    {"model.deserialize_s", "s"},
    {"tensor.gemm_calls_per_token", "count"},
    {"tensor.gemm_macs_per_token", "count"},
    {"tensor.packed_bytes_per_token", "bytes"},
    {"tensor.achieved_gmacs", "GMAC/s"},
    {"tensor.allocs_per_token", "count"},
    {"tensor.arena_peak_mb", "MB"},
    {"linalg.svd_calls", "count"},
    {"linalg.jacobi_sweeps", "count"},
    {"linalg.svd_useful_ratio", "ratio"},
    {"linalg.nonconverged", "count"},
    {"decomp.apply_s", "s"},
    {"decomp.tucker2d_calls", "count"},
    {"eval.aggregate_s.self", "s"},
    {"eval.items", "count"},
    {"eval.items_per_s", "1/s"},
    {"dse.candidate_s.p50", "s"},
    {"dse.candidate_s.max", "s"},
    {"train.loss_and_grad_ms.self", "ms"},
    {"train.adam_step_ms.self", "ms"},
    {"train.steps", "count"},
    {"parallel.chunks_per_token", "count"},
    {"parallel.idle_waits", "count"},
    {"hw.decode_macs_per_token.dense", "count"},
    {"hw.decode_macs_per_token.lrd", "count"},
    {"hw.decode_bytes_per_token.dense", "bytes"},
    {"hw.decode_bytes_per_token.lrd", "bytes"},
    {"robust.degraded_items", "count"},
    {"robust.retries", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.span_coverage_pct", "%"},
};

/** Spans that wrap one call into a program layer (not benchmark glue). */
const std::set<std::string> kLayerSpans = {
    "model.prefill",  "model.step",          "dense.prefill",
    "dense.step",     "model.deserialize",
    "decomp.apply",   "eval.aggregate",      "hw.estimate",
    "dse.fold",       "train.examples",      "train.sync_replicas",
    "train.loss_and_grad", "train.reduce",   "train.adam_step",
};

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

double
secondsSince(int64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e9;
}

/** Registry counters plus the tensor-arena allocation count. */
using Counters = std::map<std::string, int64_t>;

Counters
takeCounters()
{
    Counters c;
    for (const auto &[name, value] : MetricsRegistry::instance().snapshot()
                                         .counters)
        c[name] = value;
    c["arena.allocCount"] = tensorArenaStats().allocCount;
    return c;
}

void
addDelta(Counters &acc, const Counters &before, const Counters &after)
{
    for (const auto &[name, value] : after) {
        const auto it = before.find(name);
        acc[name] += value - (it == before.end() ? 0 : it->second);
    }
}

double
get(const Counters &c, const char *name)
{
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
}

/** Turn the registry and the span recorder on or off together. */
void
setTracing(bool on)
{
    MetricsRegistry::instance().setEnabled(on);
    SpanRecorder::instance().setEnabled(on);
}

const SpanStats &
spanStats(const std::map<std::string, SpanStats> &st, const char *name)
{
    static const SpanStats kEmpty;
    const auto it = st.find(name);
    return it == st.end() ? kEmpty : it->second;
}

int
argmax(const float *p, int64_t n)
{
    int64_t best = 0;
    for (int64_t i = 1; i < n; ++i)
        if (p[i] > p[best])
            best = i;
    return static_cast<int>(best);
}

/** `"rep_rates":[...]`: the rate of every repetition, for diagnosis. */
std::string
repRatesJson(const std::vector<double> &rates)
{
    std::string out = "\"rep_rates\":[";
    for (size_t i = 0; i < rates.size(); ++i)
        out += strCat(i ? "," : "", rates[i]);
    return out + "]";
}

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, f, v);
    return buf;
}

/** Everything a workload needs before measurement starts. */
struct Fixture
{
    ModelConfig cfg;
    DecompConfig gamma;
    std::vector<uint8_t> denseBytes;
    std::vector<uint8_t> lrdBytes;
    std::unique_ptr<TransformerModel> dense;
    std::unique_ptr<TransformerModel> lrd;
    std::vector<TokenSeq> prompts; ///< decode
    OptimizerOptions sweep;        ///< sweep
    TrainOptions train;            ///< finetune
};

/**
 * Load the pretrained tiny-llama from the (warm) zoo cache, build the
 * 88% decomposed copy and generate the seeded inputs.
 */
Fixture
setUp(const RunArgs &a)
{
    ScopedSpan root("setup");
    Fixture f;
    f.cfg = tinyLlamaConfig();
    {
        ScopedSpan s("zoo.load");
        f.denseBytes = pretrainedTinyLlama().serialize();
    }
    {
        ScopedSpan s("model.deserialize");
        f.dense = std::make_unique<TransformerModel>(
            TransformerModel::deserialize(f.denseBytes));
    }
    {
        ScopedSpan s("model.deserialize");
        f.lrd = std::make_unique<TransformerModel>(
            TransformerModel::deserialize(f.denseBytes));
    }
    const int nLayers = static_cast<int>(f.cfg.nLayers);
    f.gamma = DecompConfig::allTensors(f.cfg, spreadSchedule(nLayers, nLayers),
                                       1);
    Status st;
    {
        ScopedSpan s("decomp.apply");
        st = f.gamma.applyTo(*f.lrd);
    }
    if (!st.ok()) {
        std::fprintf(stderr, "lrdbench: decomposition failed: %s\n",
                     st.toString().c_str());
        std::exit(1);
    }
    f.lrdBytes = f.lrd->serialize();

    ScopedSpan inputs("inputs");
    if (a.workload == "decode") {
        // Prompt lengths cover short to near-maxSeq contexts, so the KV
        // cache length varies across requests. Lengths are drawn one
        // per stratum of [4, maxSeq - kNewTokens], so every seed sees
        // the same spread of context lengths; the seed picks the
        // lengths within each stratum, the prompt order and the text.
        Rng rng(a.seed ^ 0x5DEECE66DULL);
        CorpusGenerator gen(defaultWorld(), a.seed);
        const double span = static_cast<double>(f.cfg.maxSeq - kNewTokens - 3);
        std::vector<int> lengths;
        for (int i = 0; i < kPrompts; ++i)
            lengths.push_back(4 + static_cast<int>((i + rng.uniform()) * span
                                                   / kPrompts));
        for (int i = kPrompts - 1; i > 0; --i)
            std::swap(lengths[static_cast<size_t>(i)],
                      lengths[rng.uniformInt(static_cast<uint64_t>(i) + 1)]);
        for (int len : lengths)
            f.prompts.push_back(gen.document(len));
    } else if (a.workload == "sweep") {
        f.sweep.candidateRanks = {1, 2, 4};
        f.sweep.evalTasks = 20;
        f.sweep.evalSeed = a.seed;
    } else {
        // Fine-tune recovery recipe (bench_ext_finetune_recovery).
        f.train.steps = kFinetuneSteps;
        f.train.batchSeqs = 8;
        f.train.seqLen = 64;
        f.train.warmupSteps = 2;
        f.train.lr = 1e-3;
        f.train.logEvery = 0;
        f.train.seed = a.seed;
    }
    return f;
}

using LayerMap = std::map<std::string, double>;

/** Per-token registry counters shared by decode and finetune. */
void
perTokenLayers(LayerMap &L, const Counters &d, double tokens,
               double modelNs)
{
    if (tokens <= 0)
        return;
    L["model.weight_packs_per_token"] =
        get(d, "model.linear.weightPacks") / tokens;
    L["model.fused_forwards_per_token"] =
        get(d, "model.linear.fusedForwards") / tokens;
    L["tensor.gemm_calls_per_token"] = get(d, "gemm.calls") / tokens;
    L["tensor.gemm_macs_per_token"] = get(d, "gemm.macs") / tokens;
    L["tensor.packed_bytes_per_token"] =
        (get(d, "gemm.packedBytesA") + get(d, "gemm.packedBytesB")) / tokens;
    L["tensor.allocs_per_token"] = get(d, "arena.allocCount") / tokens;
    L["parallel.chunks_per_token"] = get(d, "pool.chunks") / tokens;
    if (modelNs > 0)
        L["tensor.achieved_gmacs"] = get(d, "gemm.macs") / modelNs;
}

/** Linalg/decomp counters over a window with `distinct` (weight, rank)
 *  factorizations requested. */
void
linalgLayers(LayerMap &L, const Counters &d, double distinct)
{
    L["linalg.svd_calls"] = get(d, "svd.calls");
    L["linalg.jacobi_sweeps"] = get(d, "jacobi.sweeps");
    if (get(d, "svd.calls") > 0)
        L["linalg.svd_useful_ratio"] = distinct / get(d, "svd.calls");
    L["decomp.tucker2d_calls"] = get(d, "tucker2d.calls");
}

// ---------------------------------------------------------------- decode

struct DecodeSide
{
    const char *prefillSpan;
    const char *stepSpan;
    std::vector<double> gapNs;
    std::vector<double> ttftNs;
    std::vector<TokenSeq> first; ///< First-pass stream per prompt.
    /** Mean one-token gap of every pass, per prompt. */
    std::vector<std::vector<double>> passGapNs;
};

/**
 * Closed loop, one client: each request prefills its prompt with one
 * multi-token append and then generates greedily with one-token
 * appends. Requests alternate between the dense (0) and decomposed (1)
 * model so machine drift hits both equally.
 */
void
runDecode(const RunArgs &a, Fixture &f, RunResult &r, LayerMap &L)
{
    TransformerModel *models[2] = {f.dense.get(), f.lrd.get()};
    DecodeSide side[2] = {{"dense.prefill", "dense.step", {}, {}, {}, {}},
                          {"model.prefill", "model.step", {}, {}, {}, {}}};
    for (DecodeSide &s : side) {
        s.first.resize(f.prompts.size());
        s.passGapNs.resize(f.prompts.size());
    }
    int64_t repeatTokens = 0;
    int64_t repeatMatch = 0;
    int64_t parityFailures = 0;
    TokenSeq one(1);

    // Traced-run accounting: counters of decomposed requests only.
    Counters lrdDelta;
    double lrdTokens = 0;
    double tracedNs = 0;
    double plainNs = 0;
    double coveredNs = 0;
    int tracedPasses = 0;
    int plainPasses = 0;
    std::vector<double> passRates; // Decomposed tokens/s of each pass.

    auto request = [&](int m, size_t i, int64_t req) {
        ScopedSpan rs("decode.request", req);
        DecodeSide &s = side[m];
        InferenceSession session(*models[m]);
        TokenSeq out;
        out.reserve(kNewTokens);
        const int64_t t0 = nowNs();
        Tensor logits;
        {
            ScopedSpan sp(s.prefillSpan, req);
            logits = session.append(f.prompts[i]);
        }
        int tok = argmax(logits.data(), logits.size());
        s.ttftNs.push_back(static_cast<double>(nowNs() - t0));
        out.push_back(tok);
        for (int k = 1; k < kNewTokens; ++k) {
            const int64_t ta = nowNs();
            one[0] = tok;
            {
                ScopedSpan sp(s.stepSpan, req);
                logits = session.append(one);
            }
            tok = argmax(logits.data(), logits.size());
            s.gapNs.push_back(static_cast<double>(nowNs() - ta));
            out.push_back(tok);
        }
        return out;
    };

    // The dense model's decode must agree with a full forward over the
    // same tokens at every generated position.
    auto parityOk = [&](size_t i, const TokenSeq &out) {
        TokenSeq full = f.prompts[i];
        full.insert(full.end(), out.begin(), out.end() - 1);
        const Tensor logits = f.dense->forward(full);
        const int64_t vocab = logits.dim(1);
        for (size_t j = 0; j < out.size(); ++j) {
            const auto row =
                static_cast<int64_t>(f.prompts[i].size() - 1 + j);
            if (argmax(logits.data() + row * vocab, vocab) != out[j])
                return false;
        }
        return true;
    };

    const int64_t tStart = nowNs();
    int64_t req = 0;
    for (int pass = 0;; ++pass) {
        // Traced runs alternate plain and traced passes so the tracing
        // overhead is measured on identical work. Pass 0 also runs the
        // parity checks and is left out of that comparison.
        const bool traced = a.trace && pass % 2 == 1;
        setTracing(traced);
        const size_t gapsBefore = side[1].gapNs.size();
        const int64_t p0 = nowNs();
        for (size_t i = 0; i < f.prompts.size(); ++i) {
            for (int k = 0; k < 2; ++k) {
                const int m =
                    (static_cast<int>(i) + pass) % 2 == 0 ? k : 1 - k;
                Counters before;
                if (traced && m == 1)
                    before = takeCounters();
                const TokenSeq out = request(m, i, req++);
                const std::vector<double> &g = side[m].gapNs;
                side[m].passGapNs[i].push_back(
                    std::accumulate(g.end() - (kNewTokens - 1), g.end(), 0.0)
                    / (kNewTokens - 1));
                if (traced && m == 1) {
                    addDelta(lrdDelta, before, takeCounters());
                    lrdTokens += static_cast<double>(f.prompts[i].size())
                                 + kNewTokens - 1;
                }
                ++r.attempted;
                bool ok = true;
                if (pass == 0) {
                    side[m].first[i] = out;
                    if (m == 0 && !parityOk(i, out)) {
                        ok = false;
                        ++parityFailures;
                    }
                } else {
                    const TokenSeq &ref = side[m].first[i];
                    for (size_t j = 0; j < out.size(); ++j)
                        repeatMatch += out[j] == ref[j] ? 1 : 0;
                    repeatTokens += static_cast<int64_t>(out.size());
                    ok = out == ref;
                }
                if (!ok)
                    ++r.failed;
            }
        }
        const int64_t p1 = nowNs();
        setTracing(false);
        const std::vector<double> passGaps(
            side[1].gapNs.begin() + static_cast<ptrdiff_t>(gapsBefore),
            side[1].gapNs.end());
        passRates.push_back(static_cast<double>(passGaps.size())
                            / (sum(passGaps) / 1e9));
        if (traced) {
            tracedNs += static_cast<double>(p1 - p0);
            ++tracedPasses;
            coveredNs += SpanRecorder::instance().coverage(kLayerSpans, p0,
                                                           p1)
                         * static_cast<double>(p1 - p0);
        } else if (pass > 0) {
            plainNs += static_cast<double>(p1 - p0);
            ++plainPasses;
        }
        // A traced run ends after a plain pass, so both kinds ran
        // equally often.
        if (secondsSince(tStart) >= a.seconds
            && (!a.trace || (pass >= 2 && pass % 2 == 0)))
            break;
    }
    if (parityFailures > 0)
        r.checks.push_back(strCat(parityFailures,
                                  " dense decode streams disagree with a "
                                  "full forward"));
    if (repeatMatch != repeatTokens)
        r.checks.push_back(strCat(repeatTokens - repeatMatch, " of ",
                                  repeatTokens,
                                  " repeated tokens differ from the first "
                                  "pass"));

    const double lrdP50 = quantile(side[1].gapNs, 0.5);
    const double denseP50 = quantile(side[0].gapNs, 0.5);
    const double gaps = static_cast<double>(side[1].gapNs.size());
    // Per prompt, the lower quartile of its passes; then the median
    // over prompts.
    double unitGapNs[2];
    for (int m = 0; m < 2; ++m) {
        std::vector<double> perPrompt;
        for (const std::vector<double> &g : side[m].passGapNs)
            perPrompt.push_back(quantile(g, kUnitQuantile));
        unitGapNs[m] = quantile(perPrompt, 0.5);
    }
    r.detail = {
        {"decode.gap_us.p50", lrdP50 / 1e3, "us"},
        {"decode.gap_us.p99", quantile(side[1].gapNs, 0.99) / 1e3, "us"},
        {"decode.gap_samples", gaps, "count"},
        {"decode.dense_gap_us.p50", denseP50 / 1e3, "us"},
        {"decode.ttft_ms.p50", quantile(side[1].ttftNs, 0.5) / 1e6, "ms"},
        {"decode.lrd_speedup", denseP50 / lrdP50, "x"},
        {"decode.gap_us.q25", unitGapNs[1] / 1e3, "us"},
        {"decode.dense_gap_us.q25", unitGapNs[0] / 1e3, "us"},
        {"decode.lrd_speedup.q25", unitGapNs[0] / unitGapNs[1], "x"},
        {"decode.repeat_tokens", static_cast<double>(repeatTokens), "count"},
        {"decode.repeat_token_match",
         repeatTokens > 0 ? static_cast<double>(repeatMatch)
                                / static_cast<double>(repeatTokens)
                          : 1.0,
         "ratio"},
    };
    r.endToEnd = {
        {"unit_ms.q25", unitGapNs[1] / 1e6, "ms"},
    };

    // First-pass streams, for the stored-reference check.
    std::string streams = "\"streams\":{";
    for (int m = 0; m < 2; ++m) {
        streams += m == 0 ? "\"dense\":[" : "],\"lrd\":[";
        for (size_t i = 0; i < side[m].first.size(); ++i) {
            streams += i ? ",[" : "[";
            for (size_t j = 0; j < side[m].first[i].size(); ++j)
                streams += strCat(j ? "," : "", side[m].first[i][j]);
            streams += "]";
        }
    }
    r.extraJson = streams + "]}," + repRatesJson(passRates);

    if (!a.trace)
        return;
    const auto st = SpanRecorder::instance().stats();
    L["model.step_us.self"] = spanStats(st, "model.step").selfP50Ns / 1e3;
    L["model.prefill_us.self"] =
        spanStats(st, "model.prefill").selfP50Ns / 1e3;
    perTokenLayers(L, lrdDelta, lrdTokens,
                   spanStats(st, "model.step").totalNs
                       + spanStats(st, "model.prefill").totalNs);
    L["parallel.idle_waits"] = get(lrdDelta, "pool.idleWaits");
    L["obs.trace_overhead_pct"] =
        (tracedNs / tracedPasses / (plainNs / plainPasses) - 1.0) * 100.0;
    L["obs.span_coverage_pct"] = coveredNs / tracedNs * 100.0;
}

// ----------------------------------------------------------------- sweep

std::vector<uint8_t>
resultBytes(const OptimizerResult &res)
{
    ByteWriter w;
    w.putF64(res.baselineAccuracy);
    w.putF64(res.baselineEdp);
    putCandidateRecord(w, res.best);
    w.putU64(res.explored.size());
    for (const CandidateRecord &rec : res.explored)
        putCandidateRecord(w, rec);
    return w.bytes();
}

/** Output checks shared by the entry point and the replay. */
void
checkSweep(const OptimizerResult &res, double tau, RunResult &r)
{
    int64_t failed = 0;
    for (const CandidateRecord &rec : res.explored)
        failed += rec.failed ? 1 : 0;
    r.attempted += static_cast<int64_t>(res.explored.size());
    r.failed += failed;
    if (failed > 0 || res.numFailed > 0)
        r.checks.push_back(strCat(failed, " sweep candidates failed"));
    if (res.cancelled || !res.status.ok())
        r.checks.push_back("sweep stopped early: " + res.status.toString());
    if (!res.best.feasible
        || std::max(res.baselineAccuracy - res.best.accuracy, 0.0) >= tau)
        r.checks.push_back("best candidate violates tau");
}

/**
 * optimizeDecomposition's steps, made through the public calls it is
 * built from, with a span around each call: the dense baseline, then
 * every candidate of the grid at candidate grain on the pool, then the
 * serial fold. Must reproduce the entry point's records bitwise.
 */
OptimizerResult
replaySweep(const Fixture &f, const World &world)
{
    const OptimizerOptions &o = f.sweep;
    ScopedSpan root("sweep.replay");
    const ModelConfig edpShape = llama2_7bConfig();
    auto edpEstimate = [&](const ModelConfig &probeCfg,
                           const DecompConfig &gamma) {
        ScopedSpan s("hw.estimate");
        const DecompConfig projected = scheduleForReduction(
            edpShape, gamma.parameterReduction(probeCfg));
        return estimateGeneration(edpShape, projected, o.device, o.workload);
    };
    const EvalOptions evalOpts{o.evalTasks, o.evalSeed, false};

    ModelConfig cfg;
    {
        ScopedSpan s("model.deserialize");
        cfg = TransformerModel::deserialize(f.denseBytes).config();
    }
    double baselineAccuracy = 0;
    double baselineEdp = 0;
    {
        ScopedSpan b("dse.baseline");
        std::unique_ptr<TransformerModel> dense;
        {
            ScopedSpan s("model.deserialize");
            dense = std::make_unique<TransformerModel>(
                TransformerModel::deserialize(f.denseBytes));
        }
        Evaluator ev(*dense, world, evalOpts);
        {
            ScopedSpan s("eval.aggregate");
            baselineAccuracy = ev.aggregateAccuracy();
        }
        const InferenceEstimate est =
            edpEstimate(cfg, DecompConfig::identity());
        baselineEdp = est.latencySec * est.energyJoules;
    }

    std::vector<std::pair<int64_t, int>> grid;
    for (int64_t rank : o.candidateRanks)
        for (int count = 1; count <= cfg.nLayers; ++count)
            grid.emplace_back(rank, count);
    std::vector<CandidateRecord> records(grid.size());
    const int64_t rootId = root.id();
    parallelFor(0, static_cast<int64_t>(grid.size()), 1,
                [&](int64_t lo, int64_t hi) {
        for (int64_t idx = lo; idx < hi; ++idx) {
            ScopedSpan c("dse.candidate", idx, rootId);
            const auto &[rank, count] = grid[static_cast<size_t>(idx)];
            const DecompConfig gamma = DecompConfig::allTensors(
                cfg, spreadSchedule(static_cast<int>(cfg.nLayers), count),
                rank);
            CandidateRecord rec;
            rec.config = gamma;
            rec.gridIndex = idx;
            try {
                std::unique_ptr<TransformerModel> model;
                {
                    ScopedSpan s("model.deserialize", idx);
                    model = std::make_unique<TransformerModel>(
                        TransformerModel::deserialize(f.denseBytes));
                }
                Status ds;
                {
                    ScopedSpan s("decomp.apply", idx);
                    ds = gamma.applyTo(*model);
                }
                if (!ds.ok()) {
                    rec.failed = true;
                    rec.failure = ds.toString();
                } else {
                    Evaluator ev(*model, world, evalOpts);
                    {
                        ScopedSpan s("eval.aggregate", idx);
                        rec.accuracy = ev.aggregateAccuracy();
                    }
                    rec.reduction = gamma.parameterReduction(cfg);
                    const InferenceEstimate est = edpEstimate(cfg, gamma);
                    rec.latencySec = est.latencySec;
                    rec.energyJ = est.energyJoules;
                    rec.edp = est.latencySec * est.energyJoules;
                }
            } catch (const std::exception &e) {
                rec.failed = true;
                rec.failure = e.what();
            }
            records[static_cast<size_t>(idx)] = std::move(rec);
        }
    });
    ScopedSpan fold("dse.fold");
    return foldCandidateRecords(baselineAccuracy, baselineEdp,
                                o.accuracyDropTolerance, std::move(records));
}

void
runSweep(const RunArgs &a, Fixture &f, RunResult &r, LayerMap &L)
{
    const World &world = defaultWorld();
    const double tau = f.sweep.accuracyDropTolerance;
    std::vector<double> repNs;
    std::vector<double> perCandidateNs;
    std::vector<double> repRates;
    OptimizerResult first;
    std::vector<uint8_t> firstBytes;
    const int64_t tStart = nowNs();
    for (int rep = 0;; ++rep) {
        const int64_t t0 = nowNs();
        OptimizerResult res =
            optimizeDecomposition(f.denseBytes, world, f.sweep);
        const int64_t t1 = nowNs();
        repNs.push_back(static_cast<double>(t1 - t0));
        perCandidateNs.push_back(static_cast<double>(t1 - t0)
                                 / static_cast<double>(res.explored.size()));
        repRates.push_back(1e9 / perCandidateNs.back());
        checkSweep(res, tau, r);
        if (rep == 0) {
            firstBytes = resultBytes(res);
            first = std::move(res);
        } else if (resultBytes(res) != firstBytes) {
            r.failed += static_cast<int64_t>(res.explored.size());
            r.checks.push_back(strCat("sweep repetition ", rep,
                                      " differs from the first"));
        }
        // Traced runs time two entry-point sweeps (the first warms the
        // allocator and caches), then the replay.
        if (a.trace ? rep == 1
                    : secondsSince(tStart) + static_cast<double>(t1 - t0) / 1e9
                          > a.seconds)
            break;
    }
    double accSum = 0;
    for (const CandidateRecord &rec : first.explored)
        accSum += rec.accuracy;
    // The traced run's overhead is measured against the last
    // (warm) entry-point repetition.
    const double entryNs = repNs.back();
    r.detail = {
        {"sweep.candidates_per_s", quantile(repRates, 0.5), "1/s"},
        {"sweep.mean_accuracy",
         accSum / static_cast<double>(first.explored.size()), "ratio"},
        {"sweep.repetitions", static_cast<double>(repNs.size()), "count"},
    };
    r.endToEnd = {
        {"unit_ms.q25", quantile(perCandidateNs, kUnitQuantile) / 1e6, "ms"},
    };
    r.extraJson = repRatesJson(repRates);
    if (!a.trace)
        return;

    setTracing(true);
    const Counters c0 = takeCounters();
    const int64_t t0 = nowNs();
    const OptimizerResult replay = replaySweep(f, world);
    const int64_t t1 = nowNs();
    const Counters c1 = takeCounters();
    setTracing(false);
    if (resultBytes(replay) != firstBytes) {
        r.failed += static_cast<int64_t>(replay.explored.size());
        r.checks.push_back(
            "sweep replay does not reproduce optimizeDecomposition's "
            "records bitwise");
    }
    Counters d;
    addDelta(d, c0, c1);
    std::set<std::tuple<int, int, int64_t>> distinct;
    for (const CandidateRecord &rec : replay.explored)
        for (const PrunedRankEntry &e : rec.config.prunedRanks())
            distinct.emplace(e.layer, static_cast<int>(e.kind), e.rank);
    linalgLayers(L, d, static_cast<double>(distinct.size()));
    L["linalg.nonconverged"] = get(d, "jacobi.nonconverged");
    L["robust.degraded_items"] = get(d, "robust.degradedItems");
    L["robust.retries"] = get(d, "robust.retries");
    if (get(d, "jacobi.nonconverged") > 0
        || get(d, "robust.degradedItems") > 0)
        r.checks.push_back("sweep saw non-converged or degraded work");

    const auto st = SpanRecorder::instance().stats();
    const SpanStats &cand = spanStats(st, "dse.candidate");
    const SpanStats &agg = spanStats(st, "eval.aggregate");
    const SpanStats &deser = spanStats(st, "model.deserialize");
    const SpanStats &apply = spanStats(st, "decomp.apply");
    L["dse.candidate_s.p50"] = cand.p50Ns / 1e9;
    L["dse.candidate_s.max"] = cand.maxNs / 1e9;
    L["eval.aggregate_s.self"] =
        agg.selfTotalNs / 1e9 / std::max<double>(1.0, static_cast<double>(agg.count));
    L["eval.items"] = get(d, "eval.items");
    L["eval.items_per_s"] = get(d, "eval.items") / (agg.totalNs / 1e9);
    L["model.deserialize_s"] =
        deser.totalNs / 1e9
        / std::max<double>(1.0, static_cast<double>(deser.count));
    L["decomp.apply_s"] =
        apply.totalNs / 1e9
        / std::max<double>(1.0, static_cast<double>(apply.count));
    L["parallel.idle_waits"] = get(d, "pool.idleWaits");
    if (agg.totalNs > 0)
        L["tensor.achieved_gmacs"] = get(d, "gemm.macs") / agg.totalNs;
    L["obs.trace_overhead_pct"] =
        (static_cast<double>(t1 - t0) / entryNs - 1.0) * 100.0;
    L["obs.span_coverage_pct"] =
        SpanRecorder::instance().coverage(kLayerSpans, t0, t1) * 100.0;
}

// -------------------------------------------------------------- finetune

/** Trainer::run's per-item gradient copy. */
void
extractGrads(const std::vector<Parameter *> &params, std::vector<float> &out)
{
    out.clear();
    for (Parameter *p : params)
        out.insert(out.end(), p->grad.storage().begin(),
                   p->grad.storage().end());
}

/**
 * Trainer::run's steps, made through the public calls it is built
 * from (lossAndGrad on one replica per pool worker, a fixed-order
 * gradient reduction, AdamW::step), with a span around each call.
 * Must reproduce the entry point's final loss and weights bitwise.
 */
double
replayTrainer(TransformerModel &model, const World &world,
              const TrainOptions &opts, std::vector<double> &losses)
{
    AdamOptions aopts;
    aopts.lr = opts.lr;
    AdamW optimizer(model.parameters(), aopts);
    ThreadPool &pool = ThreadPool::instance();
    std::vector<std::unique_ptr<TransformerModel>> replicas;
    if (std::min(pool.numThreads(), opts.batchSeqs) > 1) {
        const std::vector<uint8_t> snapshot = model.serialize();
        replicas.resize(static_cast<size_t>(pool.numThreads()));
        for (size_t w = 1; w < replicas.size(); ++w) {
            ScopedSpan s("model.deserialize");
            replicas[w] = std::make_unique<TransformerModel>(
                TransformerModel::deserialize(snapshot));
        }
    }
    const std::vector<Parameter *> master = model.parameters();
    CorpusGenerator gen(world, opts.seed);
    const auto batch = static_cast<size_t>(opts.batchSeqs);
    std::vector<TokenSeq> tokens(batch);
    std::vector<std::vector<int>> targets(batch);
    std::vector<std::vector<float>> grads(batch);
    std::vector<double> itemLoss(batch);
    double lastLoss = 0;
    for (int step = 0; step < opts.steps; ++step) {
        ScopedSpan stepSpan("train.step", step);
        {
            ScopedSpan s("train.examples", step);
            for (size_t b = 0; b < batch; ++b) {
                tokens[b] = gen.document(opts.seqLen);
                targets[b].assign(tokens[b].size(), -1);
                for (size_t i = 0; i + 1 < tokens[b].size(); ++i)
                    targets[b][i] = tokens[b][i + 1];
            }
        }
        {
            ScopedSpan s("train.sync_replicas", step);
            for (auto &replica : replicas) {
                if (!replica)
                    continue;
                const auto rp = replica->parameters();
                for (size_t j = 0; j < master.size(); ++j)
                    rp[j]->value.storage() = master[j]->value.storage();
            }
        }
        const int64_t stepId = stepSpan.id();
        pool.parallelFor(0, opts.batchSeqs, 1, [&](int64_t lo, int64_t hi) {
            const auto w = static_cast<size_t>(ThreadPool::workerIndex());
            TransformerModel &m =
                (w == 0 || replicas.empty() || !replicas[w]) ? model
                                                             : *replicas[w];
            const auto params = m.parameters();
            for (int64_t b = lo; b < hi; ++b) {
                ScopedSpan s("train.loss_and_grad", step, stepId);
                const auto i = static_cast<size_t>(b);
                m.zeroGrad();
                itemLoss[i] = m.lossAndGrad(tokens[i], targets[i]);
                extractGrads(params, grads[i]);
            }
        });
        {
            ScopedSpan s("train.reduce", step);
            model.zeroGrad();
            double lossSum = 0;
            for (size_t b = 0; b < batch; ++b) {
                size_t off = 0;
                for (Parameter *p : master) {
                    float *pg = p->grad.data();
                    for (int64_t i = 0; i < p->grad.size(); ++i)
                        pg[i] += grads[b][off++];
                }
                lossSum += itemLoss[b];
            }
            for (Parameter *p : master)
                for (int64_t i = 0; i < p->grad.size(); ++i)
                    p->grad[i] /= static_cast<float>(opts.batchSeqs);
            lastLoss = lossSum / opts.batchSeqs;
        }
        losses.push_back(lastLoss);
        ScopedSpan s("train.adam_step", step);
        optimizer.step(cosineSchedule(step, opts.warmupSteps, opts.steps));
    }
    model.clearCache();
    return lastLoss;
}

void
runFinetune(const RunArgs &a, Fixture &f, RunResult &r, LayerMap &L)
{
    const World &world = defaultWorld();
    const int steps = f.train.steps;
    std::vector<double> repNs;
    double firstLoss = 0;
    std::vector<uint8_t> finalWeights;
    const int64_t tStart = nowNs();
    for (int rep = 0;; ++rep) {
        TransformerModel model = TransformerModel::deserialize(f.lrdBytes);
        Trainer trainer(model, world, f.train);
        const int64_t t0 = nowNs();
        const double loss = trainer.run();
        const int64_t t1 = nowNs();
        repNs.push_back(static_cast<double>(t1 - t0));
        r.attempted += steps;
        bool ok = true;
        if (!trainer.runStatus().ok() || !std::isfinite(loss)) {
            ok = false;
            r.checks.push_back("fine-tune did not finish with a finite "
                               "loss: "
                               + trainer.runStatus().toString());
        }
        if (rep == 0) {
            firstLoss = loss;
            if (a.trace)
                finalWeights = model.serialize();
        } else if (std::memcmp(&loss, &firstLoss, sizeof loss) != 0) {
            ok = false;
            r.checks.push_back(strCat("fine-tune repetition ", rep,
                                      " ended at a different loss"));
        }
        if (!ok)
            r.failed += steps;
        if (a.trace ? rep == 1
                    : secondsSince(tStart) + static_cast<double>(t1 - t0) / 1e9
                          > a.seconds)
            break;
    }
    std::vector<double> perStepNs;
    std::vector<double> repRates;
    for (double ns : repNs) {
        perStepNs.push_back(ns / steps);
        repRates.push_back(1e9 / perStepNs.back());
    }
    const double entryNs = repNs.back();
    const double stepsPerS = quantile(repRates, 0.5);
    r.detail = {
        {"finetune.steps_per_s", stepsPerS, "1/s"},
        {"finetune.final_loss", firstLoss, "nats"},
        {"finetune.repetitions", static_cast<double>(repNs.size()), "count"},
    };
    r.endToEnd = {
        {"unit_ms.q25", quantile(perStepNs, kUnitQuantile) / 1e6, "ms"},
    };
    r.extraJson = strCat("\"final_loss_bits\":\"", fmt("%a", firstLoss),
                         "\",", repRatesJson(repRates));
    if (!a.trace)
        return;

    TransformerModel model = TransformerModel::deserialize(f.lrdBytes);
    std::vector<double> losses;
    setTracing(true);
    const Counters c0 = takeCounters();
    const int64_t t0 = nowNs();
    const double loss = replayTrainer(model, world, f.train, losses);
    const int64_t t1 = nowNs();
    const Counters c1 = takeCounters();
    setTracing(false);
    for (double l : losses)
        if (!std::isfinite(l)) {
            r.checks.push_back("fine-tune replay saw a non-finite loss");
            break;
        }
    if (std::memcmp(&loss, &firstLoss, sizeof loss) != 0
        || model.serialize() != finalWeights) {
        r.failed += steps;
        r.checks.push_back("fine-tune replay does not reproduce "
                           "Trainer::run's loss and weights bitwise");
    }
    Counters d;
    addDelta(d, c0, c1);
    const auto st = SpanRecorder::instance().stats();
    const SpanStats &lg = spanStats(st, "train.loss_and_grad");
    const SpanStats &adam = spanStats(st, "train.adam_step");
    L["train.loss_and_grad_ms.self"] = lg.selfP50Ns / 1e6;
    L["train.adam_step_ms.self"] = adam.selfP50Ns / 1e6;
    L["train.steps"] =
        static_cast<double>(spanStats(st, "train.step").count);
    const double tokens =
        static_cast<double>(steps * f.train.batchSeqs * f.train.seqLen);
    perTokenLayers(L, d, tokens, lg.totalNs);
    L["parallel.idle_waits"] = get(d, "pool.idleWaits");
    L["robust.degraded_items"] = get(d, "robust.degradedItems");
    L["robust.retries"] = get(d, "robust.retries");
    L["obs.trace_overhead_pct"] =
        (static_cast<double>(t1 - t0) / entryNs - 1.0) * 100.0;
    L["obs.span_coverage_pct"] =
        SpanRecorder::instance().coverage(kLayerSpans, t0, t1) * 100.0;
}

} // namespace

void
prepareModelZoo()
{
    (void)pretrainedTinyLlama();
}

RunResult
runWorkload(const RunArgs &a)
{
    RunResult r;
    LayerMap L;
    Fixture f;
    std::vector<double> setupS;
    if (a.trace) {
        // One set-up with the registry on: its linalg and decomp
        // counters are the decode and finetune rows.
        setTracing(true);
        const Counters c0 = takeCounters();
        f = setUp(a);
        const Counters c1 = takeCounters();
        setTracing(false);
        Counters d;
        addDelta(d, c0, c1);
        linalgLayers(L, d, static_cast<double>(f.gamma.prunedRanks().size()));
        L["linalg.nonconverged"] = get(d, "jacobi.nonconverged");
        const auto st = SpanRecorder::instance().stats();
        L["decomp.apply_s"] = spanStats(st, "decomp.apply").totalNs / 1e9;
        const SpanStats &deser = spanStats(st, "model.deserialize");
        L["model.deserialize_s"] =
            deser.totalNs / 1e9
            / std::max<double>(1.0, static_cast<double>(deser.count));
    } else {
        for (int k = 0; k < kSetupReps; ++k) {
            f = Fixture();
            const int64_t t0 = nowNs();
            f = setUp(a);
            setupS.push_back(secondsSince(t0));
        }
    }

    if (a.workload == "decode")
        runDecode(a, f, r, L);
    else if (a.workload == "sweep")
        runSweep(a, f, r, L);
    else
        runFinetune(a, f, r, L);

    const double peakRssMb =
        static_cast<double>(sampleProcMem().peakRssBytes) / (1 << 20);
    const double failedFrac =
        r.attempted > 0 ? static_cast<double>(r.failed)
                              / static_cast<double>(r.attempted)
                        : 1.0;
    r.detail.insert(r.detail.begin(),
                    {{"setup_s", quantile(setupS, 0.5), "s"},
                     {"peak_rss_mb", peakRssMb, "MB"},
                     {"failed_frac", failedFrac, "ratio"}});
    r.endToEnd.insert(r.endToEnd.begin(),
                      {{"setup_s", quantile(setupS, 0.5), "s"},
                       {"peak_rss_mb", peakRssMb, "MB"},
                       {"ok_frac", 1.0 - failedFrac, "ratio"}});
    if (!a.trace)
        return r;

    // Analytical decode cost of one token at a fixed context, per model.
    const DecompConfig models[2] = {DecompConfig::identity(), f.gamma};
    const char *tag[2] = {"dense", "lrd"};
    for (int m = 0; m < 2; ++m) {
        L[strCat("hw.decode_macs_per_token.", tag[m])] =
            static_cast<double>(
                transformerDecodeMacs(f.cfg, models[m], 1, kHwContext));
        L[strCat("hw.decode_bytes_per_token.", tag[m])] =
            static_cast<double>(transformerWeightBytes(f.cfg, models[m], 4)
                                + kvCacheBytesPerToken(f.cfg, 4)
                                      * kHwContext);
    }
    L["tensor.arena_peak_mb"] =
        static_cast<double>(tensorArenaStats().peakLiveBytes) / (1 << 20);

    for (const auto &[name, unit] : kLayerMetrics) {
        const auto it = L.find(name);
        if (it == L.end())
            r.notes.push_back(strCat(name, ": not exercised by the ",
                                     a.workload, " workload (reads 0)"));
        r.layers.push_back({name, it == L.end() ? 0.0 : it->second, unit});
    }
    if (!a.outDir.empty()) {
        const std::string path =
            strCat(a.outDir, "/spans-", a.workload, "-", a.seed, ".json");
        if (!SpanRecorder::instance().writeChromeJson(path))
            r.notes.push_back("could not write " + path);
    }
    return r;
}

} // namespace perfbench
