/**
 * @file
 * Google-benchmark microbenchmarks for the numeric kernels: GEMM
 * variants, SVD, 2D Tucker factorization, dense vs rank-1 factorized
 * linear layers, and a KV-cache decode step.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <thread>

#include "decomp/tucker.h"
#include "linalg/linalg.h"
#include "model/transformer.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"
#include "train/model_zoo.h"
#include "train/trainer.h"

namespace lrd {
namespace {

void
BM_Gemm(benchmark::State &state)
{
    const auto n = static_cast<int64_t>(state.range(0));
    Rng rng(1);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        Tensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void
BM_GemmTransB(benchmark::State &state)
{
    const auto n = static_cast<int64_t>(state.range(0));
    Rng rng(2);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        Tensor c = matmulTransB(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmTransB)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void
BM_GemmTransA(benchmark::State &state)
{
    const auto n = static_cast<int64_t>(state.range(0));
    Rng rng(12);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        Tensor c = matmulTransA(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmTransA)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

/** BM_Gemm with metrics recording forced on: the delta against
 *  BM_Gemm/256 is the instrumentation overhead (budget: <2%). */
void
BM_GemmMetricsOn(benchmark::State &state)
{
    const auto n = static_cast<int64_t>(state.range(0));
    Rng rng(1);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    MetricsRegistry::instance().setEnabled(true);
    for (auto _ : state) {
        Tensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    MetricsRegistry::instance().setEnabled(false);
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmMetricsOn)->Arg(256);

/** BM_Gemm with the flight-recorder sampler running at a 10 ms tick:
 *  the delta against BM_Gemm/256 is the telemetry overhead (budget:
 *  <1% — the sampler only takes relaxed snapshots off-thread). */
void
BM_GemmTelemetryOn(benchmark::State &state)
{
    const auto n = static_cast<int64_t>(state.range(0));
    Rng rng(1);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    TelemetryConfig config;
    config.intervalMs = 10;
    config.path = "/tmp/lrd_bench_telemetry.jsonl";
    startTelemetrySampler(config);
    for (auto _ : state) {
        Tensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    stopTelemetrySampler();
    MetricsRegistry::instance().setEnabled(false);
    std::remove(config.path.c_str());
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmTelemetryOn)->Arg(256);

/** BM_Gemm with tracing on (spans recorded into the ring buffers). */
void
BM_GemmTraceOn(benchmark::State &state)
{
    const auto n = static_cast<int64_t>(state.range(0));
    Rng rng(1);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    Tracer::instance().setEnabled(true);
    for (auto _ : state) {
        Tensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    Tracer::instance().setEnabled(false);
    Tracer::instance().clear();
    state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_GemmTraceOn)->Arg(256);

/** Thread-scaling sweep: same 256x256x256 GEMM at a fixed pool size.
 *  The pool is resized outside the timed region; results must be
 *  bitwise identical at every point (see determinism_test). */
void
BM_GemmThreads(benchmark::State &state)
{
    const int threads = static_cast<int>(state.range(0));
    static const int restoreThreads = ThreadPool::instance().numThreads();
    ThreadPool::instance().resize(threads);
    const int64_t n = 256;
    Rng rng(13);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        Tensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
    ThreadPool::instance().resize(restoreThreads);
}
void
threadSweepArgs(benchmark::internal::Benchmark *b)
{
    b->Arg(1)->Arg(2)->Arg(4);
    const int hw = hardwareConcurrency();
    if (hw > 4)
        b->Arg(hw);
}
BENCHMARK(BM_GemmThreads)->Apply(threadSweepArgs);

/** Same 256^3 GEMM pinned to each microkernel level this host can
 *  run (arg = simd::Level). items/s / 1e9 = G MACs/s; the ratio
 *  against the scalar row is the measured SIMD speedup. */
void
BM_GemmSimdLevel(benchmark::State &state)
{
    const auto level = static_cast<simd::Level>(state.range(0));
    const simd::Level restore = simd::activeLevel();
    simd::setActiveLevel(level);
    state.SetLabel(simd::levelName(level));
    const int64_t n = 256;
    Rng rng(14);
    Tensor a = Tensor::randn({n, n}, rng);
    Tensor b = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        Tensor c = matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * n * n * n);
    simd::setActiveLevel(restore);
}
void
simdLevelArgs(benchmark::internal::Benchmark *b)
{
    for (simd::Level level : simd::availableLevels())
        b->Arg(static_cast<int64_t>(level));
}
BENCHMARK(BM_GemmSimdLevel)->Apply(simdLevelArgs);

// ---------------------------------------------------------------------
// Dense vs factorized crossover sweep (paper Section 5): at hidden
// size h, a dense forward costs m*h^2 MACs while the factorized chain
// costs m*(2*h*r + r^2); the roofline predicts factorized wins below
// r* = h*(sqrt(2)-1) ~ 0.414*h. BM_CrossoverDense/h is the dense
// baseline; BM_CrossoverFactorized/{h, r} sweeps ranks around the
// predicted crossover. Comparing real_time at equal h locates the
// measured crossover rank (items/s is per-variant G MACs/s, so it is
// NOT the comparison metric). Batch m = 256 rows is a prefill-sized
// batch.
// ---------------------------------------------------------------------

constexpr int64_t kCrossoverRows = 256;

/** Give `l` rank-r factor shapes filled with random values, skipping
 *  the SVD (timing is shape-dependent, not value-dependent). */
void
randomizeFactors(Linear &l, int64_t r, Rng &rng)
{
    l.installFactorShape(r);
    for (Parameter *p : l.parameters())
        p->value = Tensor::randn(p->value.shape(), rng);
}

void
BM_CrossoverDense(benchmark::State &state)
{
    const auto h = static_cast<int64_t>(state.range(0));
    Rng rng(15);
    Linear l(h, h, /*hasBias=*/false, "bench.crossover", rng);
    Tensor x = Tensor::randn({kCrossoverRows, h}, rng);
    for (auto _ : state) {
        Tensor y = l.forward(x);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * kCrossoverRows * h * h);
}
BENCHMARK(BM_CrossoverDense)->Arg(256)->Arg(512);

void
BM_CrossoverFactorized(benchmark::State &state)
{
    const auto h = static_cast<int64_t>(state.range(0));
    const auto r = static_cast<int64_t>(state.range(1));
    Rng rng(16);
    Linear l(h, h, /*hasBias=*/false, "bench.crossover", rng);
    randomizeFactors(l, r, rng);
    Tensor x = Tensor::randn({kCrossoverRows, h}, rng);
    for (auto _ : state) {
        Tensor y = l.forward(x);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * kCrossoverRows *
                            (2 * h * r + r * r));
}
void
crossoverArgs(benchmark::internal::Benchmark *b)
{
    for (int64_t h : {int64_t{256}, int64_t{512}}) {
        for (double frac :
             {0.0625, 0.125, 0.25, 0.375, 0.414, 0.5, 0.625, 0.75, 1.0})
            b->Args({h, std::llround(static_cast<double>(h) * frac)});
    }
}
BENCHMARK(BM_CrossoverFactorized)->Apply(crossoverArgs);

void
BM_Svd(benchmark::State &state)
{
    const auto n = static_cast<int64_t>(state.range(0));
    Rng rng(3);
    Tensor a = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        SvdResult s = svd(a);
        benchmark::DoNotOptimize(s.s.data());
    }
}
BENCHMARK(BM_Svd)->Arg(32)->Arg(64)->Arg(128);

void
BM_Tucker2dRank1(benchmark::State &state)
{
    const auto n = static_cast<int64_t>(state.range(0));
    Rng rng(4);
    Tensor w = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        Tucker2d d = tucker2dDecompose(w, 1);
        benchmark::DoNotOptimize(d.core.data());
    }
}
BENCHMARK(BM_Tucker2dRank1)->Arg(64)->Arg(128)->Arg(256);

void
BM_RandomizedSvdRank8(benchmark::State &state)
{
    const auto n = static_cast<int64_t>(state.range(0));
    Rng rng(5);
    Tensor a = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        Rng r2(6);
        SvdResult s = randomizedSvd(a, 8, r2);
        benchmark::DoNotOptimize(s.s.data());
    }
}
BENCHMARK(BM_RandomizedSvdRank8)->Arg(128)->Arg(256);

void
BM_DenseLinearForward(benchmark::State &state)
{
    Rng rng(7);
    Linear l(176, 64, false, "bench", rng);
    Tensor x = Tensor::randn({64, 64}, rng);
    for (auto _ : state) {
        Tensor y = l.forward(x);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_DenseLinearForward);

void
BM_FactorizedLinearForward(benchmark::State &state)
{
    Rng rng(8);
    Linear l(176, 64, false, "bench", rng);
    const Status st = l.factorize(static_cast<int64_t>(state.range(0)));
    if (!st.ok()) {
        state.SkipWithError(st.toString().c_str());
        return;
    }
    Tensor x = Tensor::randn({64, 64}, rng);
    for (auto _ : state) {
        Tensor y = l.forward(x);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_FactorizedLinearForward)->Arg(1)->Arg(8)->Arg(16);

void
BM_DecodeStep(benchmark::State &state)
{
    TransformerModel model(tinyLlamaConfig(), 9);
    InferenceSession session(model);
    Tensor logits = session.append({1, 2, 3, 4});
    for (auto _ : state) {
        if (session.length() + 1 >= model.config().maxSeq) {
            state.PauseTiming();
            session.reset();
            (void)session.append({1, 2, 3, 4});
            state.ResumeTiming();
        }
        logits = session.append({5});
        benchmark::DoNotOptimize(logits.data());
    }
}
BENCHMARK(BM_DecodeStep);

void
BM_FullForward64(benchmark::State &state)
{
    TransformerModel model(tinyLlamaConfig(), 10);
    TokenSeq tokens;
    for (int i = 0; i < 64; ++i)
        tokens.push_back(i % 100);
    for (auto _ : state) {
        Tensor logits = model.forward(tokens);
        benchmark::DoNotOptimize(logits.data());
    }
}
BENCHMARK(BM_FullForward64);

/** One optimizer step (forward + backward + AdamW) on the tiny
 *  stand-in. The robust-layer guards (faultAt at the step boundary,
 *  the per-block non-finite check) are compiled in but disarmed; the
 *  delta against a pre-guard baseline is the guard overhead
 *  (budget: <2%). */
void
BM_TrainerStep(benchmark::State &state)
{
    TransformerModel model(tinyLlamaConfig(), 11);
    TrainOptions opts;
    opts.steps = 1;
    opts.batchSeqs = 2;
    opts.seqLen = 32;
    opts.warmupSteps = 0;
    opts.logEvery = 0;
    for (auto _ : state) {
        Trainer trainer(model, defaultWorld(), opts);
        const double loss = trainer.run();
        benchmark::DoNotOptimize(loss);
    }
}
BENCHMARK(BM_TrainerStep);

void
BM_ServeThroughput(benchmark::State &state)
{
    // End-to-end serving cost: a closed-loop burst through admission,
    // batching, and delivery on a fresh (untrained) tiny model.
    TransformerModel model(tinyLlamaConfig(), 11);
    ServeOptions opts;
    opts.queueCapacity = 16;
    opts.maxBatch = 4;
    opts.maxClientAttempts = 8;
    WorkloadOptions wl;
    wl.numRequests = 24;
    wl.maxContextLen = 8;
    wl.maxContinuationLen = 3;
    wl.deadlineTicks = 1024;
    int64_t responded = 0;
    for (auto _ : state) {
        Server server(model, opts);
        const ServeReport r =
            server.run(makeSyntheticWorkload(tinyLlamaConfig(), wl));
        responded += r.stats.responded;
        benchmark::DoNotOptimize(r.stats.throughputRps);
    }
    state.SetItemsProcessed(responded);
}
BENCHMARK(BM_ServeThroughput);

void
BM_ServeP99(benchmark::State &state)
{
    // Tail latency under overload: a burst twice the queue depth, so
    // the run exercises the degradation ladder and client backoff.
    // p99 (in ticks, deterministic) is exported as a counter so
    // check_bench.py gates tail regressions, not just mean time.
    TransformerModel model(tinyLlamaConfig(), 11);
    ServeOptions opts;
    opts.queueCapacity = 8;
    opts.maxBatch = 4;
    opts.maxClientAttempts = 8;
    WorkloadOptions wl;
    wl.numRequests = 16;
    wl.maxContextLen = 8;
    wl.maxContinuationLen = 3;
    wl.deadlineTicks = 1024;
    double p99 = 0.0;
    int64_t responded = 0;
    for (auto _ : state) {
        Server server(model, opts);
        const ServeReport r =
            server.run(makeSyntheticWorkload(tinyLlamaConfig(), wl));
        p99 = r.stats.p99LatencyTicks;
        responded += r.stats.responded;
    }
    state.SetItemsProcessed(responded);
    state.counters["p99_latency_ticks"] = p99;
}
BENCHMARK(BM_ServeP99);

} // namespace
} // namespace lrd

#ifndef LRD_CMAKE_BUILD_TYPE
#define LRD_CMAKE_BUILD_TYPE "unknown"
#endif

int
main(int argc, char **argv)
{
    // Tag the JSON context with the dispatch choice and the build
    // type of THIS library (google-benchmark's own
    // "library_build_type" describes the preinstalled libbenchmark,
    // not our kernels).
    benchmark::AddCustomContext(
        "lrd_simd", lrd::simd::levelName(lrd::simd::activeLevel()));
    benchmark::AddCustomContext("lrd_build_type", LRD_CMAKE_BUILD_TYPE);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
