#include "serve/server.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "model/decomp_config.h"
#include "obs/metrics.h"
#include "robust/cancel.h"
#include "robust/retry.h"
#include "robust/signal.h"
#include "util/logging.h"
#include "util/timer.h"

namespace lrd {

namespace {

int64_t
envInt64(const char *name, int64_t fallback)
{
    const char *env = std::getenv(name);
    if (env == nullptr || *env == '\0')
        return fallback;
    char *end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    require(end != nullptr && *end == '\0',
            strCat(name, ": '", env, "' is not an integer"));
    return static_cast<int64_t>(v);
}

/** Quantile of a sorted sample set (nearest-rank; deterministic). */
double
sortedQuantile(const std::vector<int64_t> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const auto n = static_cast<double>(sorted.size());
    auto rank = static_cast<size_t>(q * n);
    if (rank >= sorted.size())
        rank = sorted.size() - 1;
    return static_cast<double>(sorted[rank]);
}

/** A shed request waiting out its client-side backoff. */
struct RetryEntry
{
    int64_t dueTick = 0;
    ServeRequest req;
};

} // namespace

ServeOptions
ServeOptions::fromEnv()
{
    ServeOptions opts;
    opts.queueCapacity = envInt64("LRD_SERVE_QUEUE", opts.queueCapacity);
    opts.maxBatch = envInt64("LRD_SERVE_BATCH", opts.maxBatch);
    opts.maxClientAttempts = static_cast<int>(
        envInt64("LRD_SERVE_RETRIES", opts.maxClientAttempts));
    opts.retryBackoffBaseTicks =
        envInt64("LRD_SERVE_BACKOFF", opts.retryBackoffBaseTicks);
    opts.fallbackRank = envInt64("LRD_SERVE_FALLBACK_RANK", opts.fallbackRank);
    opts.defaultDeadlineTicks =
        envInt64("LRD_SERVE_DEADLINE", opts.defaultDeadlineTicks);
    require(opts.queueCapacity > 0 && opts.maxBatch > 0
                && opts.maxClientAttempts > 0,
            "LRD_SERVE_*: queue, batch, and retries must be positive");
    return opts;
}

Server::Server(TransformerModel &model, ServeOptions opts)
    : model_(model), opts_(opts)
{
    if (opts_.fallbackRank <= 0)
        return;
    const ModelConfig &cfg = model_.config();
    std::vector<int> layers(static_cast<size_t>(cfg.nLayers));
    for (size_t l = 0; l < layers.size(); ++l)
        layers[l] = static_cast<int>(l);
    const DecompConfig gamma = DecompConfig::allTensors(
        cfg, std::move(layers), opts_.fallbackRank);
    std::string why;
    if (!gamma.valid(cfg, &why)) {
        warn("serve: fallback rank " + std::to_string(opts_.fallbackRank)
             + " invalid for this model (" + why
             + "); degradation ladder will shrink batches only");
        return;
    }
    // lrd-lint: allow(hot-path-alloc) fallback variant: one copy at server construction
    auto fallback = std::make_unique<TransformerModel>(
        TransformerModel::deserialize(model_.serialize()));
    const Status applied = gamma.applyTo(*fallback);
    if (!applied.ok())
        // Under the degrade policy a failed tensor stays dense; the
        // variant is still consistent and usable.
        warn("serve: fallback factorization degraded: "
             + applied.toString());
    fallback_ = std::move(fallback);
    inform(strCat("serve: fallback variant ready (", gamma.describe(),
                  ", parameter reduction ",
                  gamma.parameterReduction(cfg), ")"));
}

ServeReport
Server::run(std::vector<ServeRequest> workload)
{
    static Counter *ticksCtr =
        MetricsRegistry::instance().counter("serve.ticks");
    static Counter *batchesCtr =
        MetricsRegistry::instance().counter("serve.batches");
    static Counter *respondedCtr =
        MetricsRegistry::instance().counter("serve.responded");
    static Counter *missedCtr =
        MetricsRegistry::instance().counter("serve.deadline.missed");
    static Counter *cancelledCtr =
        MetricsRegistry::instance().counter("serve.cancelled");
    static Counter *retriesCtr =
        MetricsRegistry::instance().counter("serve.client.retries");
    static Gauge *depthGauge =
        MetricsRegistry::instance().gauge("serve.queue.depth");
    static Histogram *latencyTicksHist =
        MetricsRegistry::instance().histogram("serve.latency.ticks");
    static Histogram *latencyUsHist =
        MetricsRegistry::instance().histogram("serve.latency.us");

    const auto n = static_cast<int64_t>(workload.size());
    require(n > 0, "Server::run: workload is empty");
    std::stable_sort(workload.begin(), workload.end(),
                     [](const ServeRequest &a, const ServeRequest &b) {
                         return a.arrivalTick != b.arrivalTick
                                    ? a.arrivalTick < b.arrivalTick
                                    : a.id < b.id;
                     });
    ServeReport report;
    report.responses.resize(static_cast<size_t>(n));
    std::vector<int64_t> arrivalOf(static_cast<size_t>(n), 0);
    std::vector<double> offerWallSeconds(static_cast<size_t>(n), 0.0);
    for (const ServeRequest &req : workload) {
        require(req.id >= 0 && req.id < n,
                "Server::run: request ids must be dense [0, n)");
        arrivalOf[static_cast<size_t>(req.id)] = req.arrivalTick;
    }

    // Exactly-one-terminal-outcome invariant: every settle goes
    // through here, and a second settle of the same id is a bug.
    const auto settle = [&](int64_t id, ServeOutcome outcome,
                            Status status, int64_t tick) {
        ServeResponse &slot = report.responses[static_cast<size_t>(id)];
        require(slot.outcome == ServeOutcome::Pending,
                strCat("Server: request ", id, " settled twice"));
        slot.id = id;
        slot.outcome = outcome;
        slot.status = std::move(status);
        slot.settledTick = tick;
    };

    WatchdogSection watched("serve");
    Timer wall;
    BoundedMpmcQueue<ServeRequest> queue(opts_.queueCapacity);
    AdmissionController admission(opts_.queueCapacity, opts_.maxBatch);
    LoadController ladder(opts_.ladder);
    Batcher batcher(model_, fallback_.get());
    ServeStats &stats = report.stats;

    size_t nextArrival = 0;
    std::vector<RetryEntry> backlog; // Sorted by (dueTick, id).
    std::vector<ServeRequest> truncated; // Cut by an items budget.
    int64_t tick = 0;
    bool budgetExpired = false;

    const auto offerOne = [&](ServeRequest req) {
        if (req.deadlineTick < tick) {
            missedCtr->inc();
            settle(req.id, ServeOutcome::DeadlineMissed,
                   Status(StatusCode::DeadlineExceeded, "serve.admit",
                          "deadline expired during client backoff"),
                   tick);
            return;
        }
        ++stats.offered;
        const AdmitDecision decision = admission.offer(queue.size());
        if (decision.admitted) {
            if (offerWallSeconds[static_cast<size_t>(req.id)] == 0.0)
                offerWallSeconds[static_cast<size_t>(req.id)] =
                    wall.elapsedSeconds();
            ++stats.admitted;
            require(queue.tryPush(std::move(req)),
                    "Server: admission admitted into a full queue");
            return;
        }
        if (req.attempt + 1 < opts_.maxClientAttempts) {
            RetryEntry entry;
            entry.dueTick = tick
                            + backoffTicks(opts_.retryBackoffBaseTicks,
                                           req.attempt);
            entry.req = std::move(req);
            ++entry.req.attempt;
            ++stats.clientRetries;
            retriesCtr->inc();
            const auto pos = std::upper_bound(
                backlog.begin(), backlog.end(), entry,
                [](const RetryEntry &a, const RetryEntry &b) {
                    return a.dueTick != b.dueTick ? a.dueTick < b.dueTick
                                                  : a.req.id < b.req.id;
                });
            backlog.insert(pos, std::move(entry));
            return;
        }
        ++stats.shed;
        ServeResponse &slot = report.responses[static_cast<size_t>(req.id)];
        settle(req.id, ServeOutcome::Shed, decision.status, tick);
        slot.retryAfterTicks = decision.retryAfterTicks;
    };

    for (;;) {
        const bool workRemains = nextArrival < workload.size()
                                 || !backlog.empty() || queue.size() > 0;
        if (!workRemains)
            break;
        pollCancelFault("serve.admit");
        if (cancelRequested() || budgetExpired)
            break;

        // Offer phase (serial point): due backoff re-offers first
        // (they are older), then due arrivals, each in id order.
        while (!backlog.empty() && backlog.front().dueTick <= tick) {
            RetryEntry entry = std::move(backlog.front());
            backlog.erase(backlog.begin());
            offerOne(std::move(entry.req));
        }
        while (nextArrival < workload.size()
               && workload[nextArrival].arrivalTick <= tick) {
            offerOne(std::move(workload[nextArrival]));
            ++nextArrival;
        }
        depthGauge->set(static_cast<double>(queue.size()));

        // Degradation ladder, then batch formation with deadline
        // excision — all still on the control thread.
        ladder.update(queue.size(), opts_.queueCapacity);
        stats.maxServiceLevel =
            std::max(stats.maxServiceLevel,
                     static_cast<int64_t>(ladder.level()));
        const int64_t maxBatch = ladder.maxBatch(opts_.maxBatch);
        std::vector<ServeRequest> batch;
        while (static_cast<int64_t>(batch.size()) < maxBatch) {
            std::optional<ServeRequest> item = queue.tryPop();
            if (!item)
                break;
            if (item->deadlineTick < tick) {
                missedCtr->inc();
                ++stats.deadlineMissed;
                settle(item->id, ServeOutcome::DeadlineMissed,
                       Status(StatusCode::DeadlineExceeded, "serve.batch",
                              "deadline expired before batch execution"),
                       tick);
                continue;
            }
            batch.push_back(std::move(*item));
        }

        // LRD_DEADLINE=items:<n>: the batch that exhausts the budget
        // is truncated here, at a serial point, so the cut lands on
        // the same request at any LRD_THREADS.
        const auto formed = static_cast<int64_t>(batch.size());
        const int64_t admittedUnits = consumeWorkBudget("items", formed);
        if (admittedUnits < formed) {
            truncated.assign(
                std::make_move_iterator(batch.begin() + admittedUnits),
                std::make_move_iterator(batch.end()));
            batch.resize(static_cast<size_t>(admittedUnits));
            budgetExpired = true;
        }

        if (!batch.empty()) {
            // A formed batch is in-flight: it executes even if this
            // poll (or a signal) requested cancellation, and every
            // item scored before the cancel is delivered. An item the
            // cancel cut short settles as Cancelled, never with a
            // partial score.
            pollCancelFault("serve.batch");
            std::vector<ServeResponse *> slots;
            slots.reserve(batch.size());
            for (const ServeRequest &req : batch)
                slots.push_back(
                    &report.responses[static_cast<size_t>(req.id)]);
            // The RankFallback rung only degrades responses when a
            // fallback variant actually exists; otherwise the rung
            // still shrinks batches but scoring stays full-rank.
            batcher.execute(batch,
                            ladder.useFallbackModel() && fallback_ != nullptr,
                            tick, slots);
            ++stats.batches;
            batchesCtr->inc();

            // Delivery phase: serial, per-response.
            pollCancelFault("serve.respond");
            for (size_t i = 0; i < batch.size(); ++i) {
                if (slots[i]->outcome == ServeOutcome::Pending) {
                    ++stats.cancelled;
                    cancelledCtr->inc();
                    settle(batch[i].id, ServeOutcome::Cancelled,
                           cancelStatus("serve.batch"), tick);
                    continue;
                }
                ++stats.responded;
                if (slots[i]->degraded)
                    ++stats.degradedResponses;
                respondedCtr->inc();
                const int64_t latency =
                    tick - arrivalOf[static_cast<size_t>(batch[i].id)];
                latencyTicksHist->record(latency);
                const double offeredAt =
                    offerWallSeconds[static_cast<size_t>(batch[i].id)];
                latencyUsHist->record(static_cast<int64_t>(
                    (wall.elapsedSeconds() - offeredAt) * 1e6));
            }
        }

        ++tick;
        ticksCtr->inc();
        noteProgress("serve.batch");

        // Open-loop fast-forward: with nothing queued and nothing
        // due, jump straight to the next arrival / backoff event
        // instead of spinning empty ticks.
        if (batch.empty() && queue.size() == 0) {
            int64_t nextEvent = tick;
            bool have = false;
            if (nextArrival < workload.size()) {
                nextEvent = workload[nextArrival].arrivalTick;
                have = true;
            }
            if (!backlog.empty())
                nextEvent = have ? std::min(nextEvent,
                                            backlog.front().dueTick)
                                 : backlog.front().dueTick;
            if (nextEvent > tick)
                tick = nextEvent;
        }
    }

    // Drain (serial point): stop admitting, then give every still-
    // pending request its terminal outcome. Reached on cancellation,
    // budget expiry, or natural completion (where it settles nothing).
    queue.close();
    if (budgetExpired)
        expireDeadline("serve.batch");
    const Status drainStatus = cancelStatus("serve.drain");
    const auto settleDrained = [&](const ServeRequest &req,
                                   const char *what) {
        ++stats.cancelled;
        cancelledCtr->inc();
        settle(req.id, ServeOutcome::Cancelled,
               drainStatus.ok()
                   ? Status(StatusCode::Cancelled, "serve.drain", what)
                   : drainStatus,
               tick);
    };
    while (std::optional<ServeRequest> item = queue.tryPop())
        settleDrained(*item, "drained from the queue");
    for (const ServeRequest &req : truncated)
        settleDrained(req, "cut by the items budget");
    for (const RetryEntry &entry : backlog)
        settleDrained(entry.req, "drained during client backoff");
    for (; nextArrival < workload.size(); ++nextArrival)
        settleDrained(workload[nextArrival], "never offered");
    report.status = drainStatus;

    // Report: deterministic nearest-rank quantiles over tick
    // latencies of responded requests.
    std::vector<int64_t> latencies;
    latencies.reserve(static_cast<size_t>(stats.responded));
    for (const ServeResponse &resp : report.responses) {
        require(serveOutcomeTerminal(resp.outcome),
                "Server: a request finished without a terminal outcome");
        if (resp.outcome == ServeOutcome::Responded)
            latencies.push_back(
                resp.settledTick
                - arrivalOf[static_cast<size_t>(resp.id)]);
    }
    std::sort(latencies.begin(), latencies.end());
    stats.ticks = tick;
    stats.p50LatencyTicks = sortedQuantile(latencies, 0.50);
    stats.p99LatencyTicks = sortedQuantile(latencies, 0.99);
    stats.wallSeconds = wall.elapsedSeconds();
    stats.throughputRps =
        stats.wallSeconds > 0.0
            ? static_cast<double>(stats.responded) / stats.wallSeconds
            : 0.0;
    return report;
}

const char *
serveOutcomeName(ServeOutcome outcome)
{
    switch (outcome) {
    case ServeOutcome::Pending:
        return "pending";
    case ServeOutcome::Responded:
        return "responded";
    case ServeOutcome::Shed:
        return "shed";
    case ServeOutcome::DeadlineMissed:
        return "deadline-missed";
    case ServeOutcome::Cancelled:
        return "cancelled";
    }
    return "unknown";
}

} // namespace lrd
