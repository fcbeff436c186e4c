/**
 * @file
 * Graceful shutdown: POSIX signal handling, simulated kills, and the
 * Status → process-exit-code mapping.
 *
 * The first SIGINT/SIGTERM requests cooperative cancellation (see
 * robust/cancel.h) from an async-signal-safe handler — pipelines
 * drain in-flight chunks, write a final checkpoint, and surface a
 * Cancelled status that lrdtool maps to exit code kExitCancelled. A
 * second signal force-exits immediately with the POSIX convention
 * 128 + signo (130 for SIGINT, 143 for SIGTERM).
 *
 * Tests exercise the real handler path without an external killer:
 * pollCancelFault(site) turns an armed LRD_FAULT=<site>:cancel into
 * simulateKill(), which raises a real SIGINT when handlers are
 * installed and falls back to a direct requestCancel() otherwise.
 */

#ifndef LRD_ROBUST_SIGNAL_H
#define LRD_ROBUST_SIGNAL_H

#include "util/status.h"

namespace lrd {

// Process exit codes, documented in README.md. Scripts and CI key off
// these to distinguish outcomes without parsing logs.
inline constexpr int kExitOk = 0;
inline constexpr int kExitError = 1;             ///< Generic failure.
inline constexpr int kExitDegraded = 2;          ///< Failure budget exceeded.
inline constexpr int kExitCancelled = 3;         ///< Signal / cancel request.
inline constexpr int kExitDeadline = 4;          ///< LRD_DEADLINE expired.
inline constexpr int kExitCorruptCheckpoint = 5; ///< Checkpoint data loss.
inline constexpr int kExitNonConvergence = 6;    ///< Kernel sweep cap hit.
// 7 is retired (it meant "response delivery failed"); do not reuse it.
inline constexpr int kExitShardFailed = 8;       ///< Shard died past retries.

/**
 * Map a pipeline Status to the documented process exit code.
 * kExitShardFailed is not produced here: it is reserved for the DSE
 * shard supervisor, which reports a shard that exhausted its retry
 * budget via a Status at site "dse.shard.retry" (see
 * dse/coordinator.h) that lrdtool maps to 8 explicitly.
 */
int exitCodeForStatus(const Status &status);

/**
 * Install the SIGINT/SIGTERM graceful-shutdown handlers (idempotent).
 * First signal: requestCancel(Signal). Second signal: immediate
 * _exit(128 + signo).
 */
void installSignalHandlers();

/** Whether installSignalHandlers() has run. */
bool signalHandlersInstalled();

/** Signals observed by the handlers since install / last reset. */
int signalsSeen();

/** Zero the signal counter so a test can deliver a fresh "first" signal. */
void resetSignalsForTest();

/**
 * Simulate an external kill at `site`: raise a real SIGINT when the
 * handlers are installed (exercising the genuine async path), else
 * request Test cancellation directly.
 */
void simulateKill(const char *site);

/** Injection point: LRD_FAULT=<site>:cancel triggers simulateKill(). */
void pollCancelFault(const char *site);

/**
 * Flush every observability artifact exactly once: stops the
 * telemetry sampler (final record + close) and writes any trace /
 * stats exports. Every lrdtool exit path — success, StatusError,
 * unexpected exception — funnels through this so a cancelled or
 * failing run still lands its flight-recorder data on disk.
 */
void shutdownFlush();

} // namespace lrd

#endif // LRD_ROBUST_SIGNAL_H
