/**
 * @file
 * Bounded deterministic retry-with-reseed for transient numeric
 * failures. Attempt k draws its randomness from an Rng seeded purely
 * by (baseSeed, k), so the retry sequence — and therefore the final
 * result — depends only on the attempt number, never on timing,
 * thread identity, or how many other retries ran elsewhere.
 */

#ifndef LRD_ROBUST_RETRY_H
#define LRD_ROBUST_RETRY_H

#include <cstdint>

#include "robust/recovery.h"
#include "util/rng.h"

namespace lrd {

/**
 * Exponential backoff in abstract work units ("ticks"): attempt k
 * (0-based) waits baseTicks * 2^k, capped at maxTicks. Pure integer
 * arithmetic on the attempt number — never wall clock — so a retry
 * schedule built from it is bitwise reproducible. Used by the serve
 * layer's client-side retry (a shed request re-offers itself at
 * tick + backoffTicks(base, attempt)).
 */
inline int64_t
backoffTicks(int64_t baseTicks, int attempt, int64_t maxTicks = 1 << 20)
{
    if (baseTicks <= 0)
        return 0;
    int64_t ticks = baseTicks;
    for (int k = 0; k < attempt && ticks < maxTicks; ++k)
        ticks *= 2;
    return ticks < maxTicks ? ticks : maxTicks;
}

/**
 * Block the calling thread for `ticks` milliseconds. The one
 * sanctioned sleep for process supervisors (shard relaunch backoff):
 * it lives in src/robust/ because pipeline and numeric code must
 * never sleep, and it only ever delays operational actions — never
 * anything that feeds a deterministic result.
 */
void sleepForBackoff(int64_t ticks);

/**
 * Run fn(rng, attempt) up to maxAttempts times, stopping at the first
 * ok Status. Attempt 0 is the original try; each later attempt gets a
 * fresh Rng derived from baseSeed and the attempt index. Returns the
 * first ok Status, or the last failure when every attempt failed.
 */
template <class Fn>
Status
retryWithReseed(uint64_t baseSeed, int maxAttempts, const Fn &fn)
{
    Status last;
    for (int attempt = 0; attempt < maxAttempts; ++attempt) {
        if (attempt > 0)
            noteRetry();
        Rng rng(baseSeed
                ^ (0x9E3779B97F4A7C15ULL
                   * static_cast<uint64_t>(attempt + 1)));
        last = fn(rng, attempt);
        if (last.ok())
            return last;
    }
    return last;
}

} // namespace lrd

#endif // LRD_ROBUST_RETRY_H
