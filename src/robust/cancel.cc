#include "robust/cancel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "obs/sampler.h"
#include "util/logging.h"
#include "util/timer.h"
#include "util/worker_lane.h"

namespace lrd {

namespace {

/**
 * The process-wide cancel token. Everything the signal handler
 * touches is a lock-free atomic; the deadline fields are guarded by
 * mu and mirrored into atomics for the fast paths.
 */
struct CancelState
{
    std::atomic<int> cause{0}; ///< CancelCause; 0 = not cancelled.
    std::atomic<const char *> site{""};

    std::mutex mu; ///< Serializes deadline (re)configuration.
    Deadline deadline;
    Timer wallTimer;
    std::atomic<bool> stepsArmed{false};
    std::atomic<bool> itemsArmed{false};
    std::atomic<bool> wallArmed{false};
    std::atomic<int64_t> unitsLeft{0};
};

CancelState &
state()
{
    static CancelState s;
    return s;
}

/** True at a serial program point (not inside / below a pool region). */
bool
atSerialPoint()
{
    return !inParallelRegion() && workerLane() == 0;
}

} // namespace

const char *
cancelCauseName(CancelCause cause)
{
    switch (cause) {
    case CancelCause::None:
        return "none";
    case CancelCause::Signal:
        return "signal";
    case CancelCause::Deadline:
        return "deadline";
    case CancelCause::Test:
        return "test";
    }
    return "unknown";
}

bool
cancelRequested()
{
    return state().cause.load(std::memory_order_relaxed) != 0;
}

void
requestCancel(CancelCause cause, const char *site)
{
    if (cause == CancelCause::None)
        return;
    CancelState &s = state();
    int expected = 0;
    // First cause wins. Async-signal-safe: CAS + store only — no
    // locks, no allocation, no logging.
    if (s.cause.compare_exchange_strong(expected, static_cast<int>(cause),
                                        std::memory_order_acq_rel))
        s.site.store(site, std::memory_order_release);
}

CancelCause
cancelCause()
{
    return static_cast<CancelCause>(
        state().cause.load(std::memory_order_acquire));
}

const char *
cancelSite()
{
    return state().site.load(std::memory_order_acquire);
}

Status
cancelStatus(const char *site)
{
    const CancelCause cause = cancelCause();
    if (cause == CancelCause::None)
        return Status();
    const StatusCode code = cause == CancelCause::Deadline
                                ? StatusCode::DeadlineExceeded
                                : StatusCode::Cancelled;
    return Status(code, site,
                  strCat("cancellation requested (", cancelCauseName(cause),
                         ") at ", cancelSite()));
}

void
clearCancelRequest()
{
    CancelState &s = state();
    s.cause.store(0, std::memory_order_release);
    s.site.store("", std::memory_order_release);
}

// ---------------------------------------------------------------------
// Deadlines

Result<Deadline>
parseDeadline(const std::string &text)
{
    const size_t colon = text.find(':');
    if (colon == std::string::npos || colon == 0)
        return Status(StatusCode::InvalidArgument, "deadline.parse",
                      "'" + text
                          + "' is not steps:<n>, items:<n>, or wall:<secs>");
    const std::string unit = text.substr(0, colon);
    const std::string amount = text.substr(colon + 1);
    Deadline d;
    if (unit == "steps")
        d.kind = DeadlineKind::Steps;
    else if (unit == "items")
        d.kind = DeadlineKind::Items;
    else if (unit == "wall")
        d.kind = DeadlineKind::Wall;
    else
        return Status(StatusCode::InvalidArgument, "deadline.parse",
                      "unknown deadline unit '" + unit
                          + "' (steps, items, wall)");
    char *end = nullptr;
    if (d.kind == DeadlineKind::Wall) {
        d.wallSeconds = std::strtod(amount.c_str(), &end);
        if (amount.empty() || end == nullptr || *end != '\0'
            || !(d.wallSeconds > 0.0))
            return Status(StatusCode::InvalidArgument, "deadline.parse",
                          "wall seconds must be a positive number, got '"
                              + amount + "'");
    } else {
        const long long n = std::strtoll(amount.c_str(), &end, 10);
        if (amount.empty() || end == nullptr || *end != '\0' || n < 1)
            return Status(StatusCode::InvalidArgument, "deadline.parse",
                          "budget must be a positive integer, got '" + amount
                              + "'");
        d.budget = static_cast<int64_t>(n);
    }
    return d;
}

void
setDeadline(const Deadline &deadline)
{
    CancelState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.deadline = deadline;
    s.unitsLeft.store(deadline.budget, std::memory_order_release);
    s.wallTimer.reset();
    s.stepsArmed.store(deadline.kind == DeadlineKind::Steps,
                       std::memory_order_release);
    s.itemsArmed.store(deadline.kind == DeadlineKind::Items,
                       std::memory_order_release);
    s.wallArmed.store(deadline.kind == DeadlineKind::Wall,
                      std::memory_order_release);
}

void
clearDeadline()
{
    setDeadline(Deadline{});
}

Deadline
currentDeadline()
{
    CancelState &s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    return s.deadline;
}

int64_t
consumeWorkBudget(const char *unit, int64_t n)
{
    CancelState &s = state();
    const bool steps = unit[0] == 's';
    const bool armed =
        steps ? s.stepsArmed.load(std::memory_order_acquire)
              : s.itemsArmed.load(std::memory_order_acquire);
    if (!armed || n <= 0)
        return n;
    // Budget accounting happens only at serial program points; a
    // nested consumer (e.g. an evaluator running inside a DSE
    // candidate on a pool worker) admits everything, so expiry lands
    // at the same outer work unit at any LRD_THREADS.
    if (!atSerialPoint())
        return n;
    int64_t left = s.unitsLeft.load(std::memory_order_acquire);
    while (true) {
        const int64_t admit = left < n ? left : n;
        if (admit <= 0)
            return 0;
        if (s.unitsLeft.compare_exchange_weak(left, left - admit,
                                              std::memory_order_acq_rel))
            return admit;
    }
}

void
expireDeadline(const char *site)
{
    static Counter *expiries =
        MetricsRegistry::instance().counter("cancel.deadlineExpiries");
    expiries->inc();
    requestCancel(CancelCause::Deadline, site);
}

namespace {

void
pollWallDeadline()
{
    CancelState &s = state();
    if (!s.wallArmed.load(std::memory_order_acquire) || !atSerialPoint())
        return;
    double limit = 0.0;
    double elapsed = 0.0;
    {
        std::lock_guard<std::mutex> lock(s.mu);
        limit = s.deadline.wallSeconds;
        elapsed = s.wallTimer.elapsedSeconds();
    }
    if (elapsed >= limit)
        expireDeadline("deadline.wall");
}

} // namespace

Status
checkCancellation(const char *site)
{
    pollWallDeadline();
    if (!cancelRequested())
        return Status();
    return cancelStatus(site);
}

void
initCancelFromEnv()
{
    const char *deadline = std::getenv("LRD_DEADLINE");
    if (deadline != nullptr && *deadline != '\0') {
        Result<Deadline> parsed = parseDeadline(deadline);
        require(parsed.ok(), "LRD_DEADLINE: " + parsed.status().toString());
        setDeadline(parsed.value());
        inform(strCat("deadline armed: ", deadline));
    }
    const char *watchdog = std::getenv("LRD_WATCHDOG");
    if (watchdog != nullptr && *watchdog != '\0') {
        char *end = nullptr;
        const double secs = std::strtod(watchdog, &end);
        require(end != nullptr && *end == '\0' && secs > 0.0,
                strCat("LRD_WATCHDOG must be a positive number of seconds, "
                       "got '",
                       watchdog, "'"));
        startWatchdog(secs);
    }
}

// ---------------------------------------------------------------------
// Watchdog

namespace {

/**
 * Watchdog state. The monitor thread is report-only: it watches the
 * progress heartbeat while sections are open and logs stalls, but
 * never cancels or kills work itself.
 */
struct WatchdogState
{
    std::atomic<bool> armed{false}; ///< Gates the noteProgress fast path.
    std::atomic<int64_t> progress{0};
    std::atomic<const char *> lastSite{""};
    std::atomic<int> activeSections{0};
    std::atomic<const char *> sectionSite{""};
    std::atomic<int64_t> stalls{0};

    std::mutex mu;
    std::condition_variable cv;
    bool stopping = false;
    double stallSeconds = 0.0;
    std::thread monitor; // lrd-lint: allow(thread-outside-parallel)
};

WatchdogState &
watchdogState()
{
    static WatchdogState s;
    return s;
}

void
watchdogMain()
{
    WatchdogState &w = watchdogState();
    static Counter *stallCounter =
        MetricsRegistry::instance().counter("watchdog.stalls");
    static Gauge *stallGauge =
        MetricsRegistry::instance().gauge("watchdog.lastStallSeconds");
    double stallSeconds = 0.0;
    {
        std::lock_guard<std::mutex> lock(w.mu);
        stallSeconds = w.stallSeconds;
    }
    const double tickSeconds =
        stallSeconds / 4.0 < 0.01 ? 0.01
        : stallSeconds / 4.0 > 1.0 ? 1.0
                                   : stallSeconds / 4.0;
    const auto tick = std::chrono::duration<double>(tickSeconds);
    int64_t lastSeen = w.progress.load(std::memory_order_acquire);
    Timer sinceProgress;
    bool reported = false;
    std::unique_lock<std::mutex> lock(w.mu);
    while (!w.stopping) {
        w.cv.wait_for(lock, tick);
        if (w.stopping)
            break;
        const int64_t now = w.progress.load(std::memory_order_acquire);
        if (now != lastSeen
            || w.activeSections.load(std::memory_order_acquire) == 0) {
            lastSeen = now;
            sinceProgress.reset();
            reported = false;
            continue;
        }
        const double stalled = sinceProgress.elapsedSeconds();
        if (stalled < stallSeconds || reported)
            continue;
        // One report per stall episode; the next heartbeat re-arms it.
        reported = true;
        w.stalls.fetch_add(1, std::memory_order_acq_rel);
        stallCounter->inc();
        stallGauge->set(stalled);
        warn(strCat("watchdog: no progress for ", stalled,
                    "s in section '",
                    w.sectionSite.load(std::memory_order_acquire),
                    "' (last progress at '",
                    w.lastSite.load(std::memory_order_acquire), "')"));
    }
}

} // namespace

void
startWatchdog(double stallSeconds)
{
    require(stallSeconds > 0.0,
            "startWatchdog: stallSeconds must be positive");
    stopWatchdog();
    WatchdogState &w = watchdogState();
    {
        std::lock_guard<std::mutex> lock(w.mu);
        w.stopping = false;
        w.stallSeconds = stallSeconds;
        // The monitor is a supervisor, not a worker: it never computes,
        // so it lives outside the pool's deterministic lane structure.
        // lrd-lint: allow(thread-outside-parallel)
        w.monitor = std::thread(watchdogMain);
    }
    w.armed.store(true, std::memory_order_release);
    inform(strCat("watchdog armed: stall threshold ", stallSeconds, "s"));
}

void
stopWatchdog()
{
    WatchdogState &w = watchdogState();
    std::thread monitor; // lrd-lint: allow(thread-outside-parallel)
    {
        std::lock_guard<std::mutex> lock(w.mu);
        if (!w.monitor.joinable())
            return;
        w.stopping = true;
        monitor = std::move(w.monitor);
    }
    w.armed.store(false, std::memory_order_release);
    w.cv.notify_all();
    monitor.join();
}

bool
watchdogRunning()
{
    WatchdogState &w = watchdogState();
    std::lock_guard<std::mutex> lock(w.mu);
    return w.monitor.joinable();
}

int64_t
watchdogStallCount()
{
    return watchdogState().stalls.load(std::memory_order_acquire);
}

void
noteProgress(const char *site)
{
    WatchdogState &w = watchdogState();
    if (!w.armed.load(std::memory_order_relaxed))
        return;
    w.lastSite.store(site, std::memory_order_release);
    w.progress.fetch_add(1, std::memory_order_acq_rel);
}

WatchdogSection::WatchdogSection(const char *site)
    : prevPhase_(setTelemetryPhase(site))
{
    WatchdogState &w = watchdogState();
    w.sectionSite.store(site, std::memory_order_release);
    w.activeSections.fetch_add(1, std::memory_order_acq_rel);
    noteProgress(site);
}

WatchdogSection::~WatchdogSection()
{
    WatchdogState &w = watchdogState();
    w.activeSections.fetch_sub(1, std::memory_order_acq_rel);
    noteProgress("section.exit");
    setTelemetryPhase(prevPhase_);
}

} // namespace lrd
