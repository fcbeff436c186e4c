#include "robust/signal.h"

#include <atomic>
#include <csignal>
#include <unistd.h>

#include "obs/obs.h"
#include "obs/sampler.h"
#include "robust/cancel.h"
#include "robust/fault.h"
#include "util/logging.h"

namespace lrd {

namespace {

std::atomic<bool> gInstalled{false};
std::atomic<int> gSignalsSeen{0};

extern "C" void
gracefulSignalHandler(int signo)
{
    // Async-signal-safe: atomics and _exit only. The first signal
    // requests cooperative cancellation; a second one means the user
    // is insisting, so force-exit with the POSIX 128+signo code.
    if (gSignalsSeen.fetch_add(1, std::memory_order_relaxed) >= 1)
        _exit(128 + signo);
    requestCancel(CancelCause::Signal, "signal");
    // One relaxed store: the telemetry sampler pushes a sample to
    // disk within its next wait slice, so an interrupted run keeps
    // its time series even if the cooperative drain never finishes.
    requestTelemetryFlush();
}

} // namespace

int
exitCodeForStatus(const Status &status)
{
    switch (status.code()) {
    case StatusCode::Ok:
        return kExitOk;
    case StatusCode::ResourceExhausted:
        return kExitDegraded;
    case StatusCode::Cancelled:
        return kExitCancelled;
    case StatusCode::DeadlineExceeded:
        return kExitDeadline;
    case StatusCode::DataLoss:
        return kExitCorruptCheckpoint;
    case StatusCode::NonConvergence:
        return kExitNonConvergence;
    default:
        return kExitError;
    }
}

void
installSignalHandlers()
{
    if (gInstalled.exchange(true, std::memory_order_acq_rel))
        return;
    // Touch the cancel token now: its function-local static must be
    // constructed before the handler (which cannot safely construct
    // it) can possibly run.
    static_cast<void>(cancelRequested());
    struct sigaction sa = {};
    sa.sa_handler = gracefulSignalHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0; // No SA_RESTART: let blocking syscalls wake up.
    if (sigaction(SIGINT, &sa, nullptr) != 0
        || sigaction(SIGTERM, &sa, nullptr) != 0)
        warn("installSignalHandlers: sigaction failed; "
             "graceful shutdown disabled");
}

bool
signalHandlersInstalled()
{
    return gInstalled.load(std::memory_order_acquire);
}

int
signalsSeen()
{
    return gSignalsSeen.load(std::memory_order_acquire);
}

void
resetSignalsForTest()
{
    gSignalsSeen.store(0, std::memory_order_release);
}

void
simulateKill(const char *site)
{
    if (signalHandlersInstalled()) {
        std::raise(SIGINT);
        return;
    }
    requestCancel(CancelCause::Test, site);
}

void
pollCancelFault(const char *site)
{
    if (faultAt(site, FaultKind::Cancel))
        simulateKill(site);
}

void
shutdownFlush()
{
    // flushObservability is itself idempotent (and stops the sampler
    // first), so racing exit paths are harmless.
    flushObservability();
}

} // namespace lrd
