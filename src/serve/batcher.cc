#include "serve/batcher.h"

#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "robust/cancel.h"
#include "robust/fault.h"
#include "util/logging.h"

namespace lrd {

Batcher::Batcher(const TransformerModel &primary,
                 const TransformerModel *fallback)
    : primary_(primary), fallback_(fallback != nullptr ? *fallback : primary)
{
}

void
Batcher::execute(const std::vector<ServeRequest> &batch, bool useFallback,
                 int64_t tick, std::vector<ServeResponse *> &out)
{
    require(batch.size() == out.size(),
            "Batcher: batch and response slots must pair up");
    if (batch.empty())
        return;
    static Counter *items =
        MetricsRegistry::instance().counter("serve.batch.items");
    static Histogram *sizes =
        MetricsRegistry::instance().histogram("serve.batch.size");
    items->add(static_cast<int64_t>(batch.size()));
    sizes->record(static_cast<int64_t>(batch.size()));

    // Serial point: consume the fault counter once per batch so the
    // poisoned item is the same at any LRD_THREADS.
    const bool poisonFirst = faultAt("serve.batch", FaultKind::Nan);
    const TransformerModel &model = useFallback ? fallback_ : primary_;
    const auto scoreRange = [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
            LRD_TRACE_SPAN("serve.item");
            const ServeRequest &req = batch[static_cast<size_t>(i)];
            ServeResponse &resp = *out[static_cast<size_t>(i)];
            const bool poisoned = poisonFirst && i == 0;
            const double score =
                poisoned ? std::numeric_limits<double>::quiet_NaN()
                         : scoreContinuation(model, req.context,
                                             req.continuation);
            // Once cancellation is requested the pool drops unclaimed
            // chunks, so a GEMM of this item may have been cut short.
            // The token never clears mid-run: a score finished while
            // it is still unset is exact, any other stays Pending.
            if (!poisoned && cancelRequested())
                continue;
            resp.id = req.id;
            resp.outcome = ServeOutcome::Responded;
            resp.degraded = useFallback;
            resp.settledTick = tick;
            resp.score = score;
            if (poisoned)
                resp.status = Status(StatusCode::NonFinite, "serve.batch",
                                     "injected numeric fault");
            else if (!std::isfinite(resp.score))
                resp.status = Status(StatusCode::NonFinite, "serve.batch",
                                     "non-finite continuation score");
        }
    };

    const auto n = static_cast<int64_t>(batch.size());
    ThreadPool &pool = ThreadPool::instance();
    if (pool.numThreads() <= 1 || n <= 1 || ThreadPool::inParallelRegion()
        || ThreadPool::workerIndex() != 0)
        scoreRange(0, n);
    else
        pool.parallelFor(0, n, 1, scoreRange);
}

} // namespace lrd
