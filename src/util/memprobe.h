/**
 * @file
 * Process memory accounting for the flight recorder: an OS-level RSS
 * probe and the tensor-arena byte counters.
 *
 * Two complementary views of memory:
 *
 * - sampleProcMem() reads /proc/self/status (VmRSS / VmHWM) — what
 *   the kernel actually charges the process, including code, stacks,
 *   allocator slack, and the model cache. Zeroes on non-Linux hosts.
 * - The tensor arena counters track bytes owned by live Tensor
 *   objects. Tensor's constructors and destructor (src/tensor/) call
 *   tensorArenaRecordAlloc/Free; the counters live here in util
 *   (layer 0) so the telemetry sampler in src/obs/ (layer 1) can read
 *   them without an obs → tensor layering back-edge.
 *
 * The counters are split into cache-line-aligned shards so pool
 * workers allocating at once never write the same line. A thread
 * takes a shard on its first allocation; a free is charged to the
 * shard that allocated the bytes (the shard index travels in the
 * token tensorArenaRecordAlloc returns), so each shard's live level
 * never goes negative. Counts and byte totals summed over the shards
 * are exact. Each shard keeps its own high-water mark; their sum is
 * the exact peak when one thread allocates, and an upper bound on it
 * otherwise (shards can peak at different instants). All counters
 * are relaxed atomics, cheap enough to leave always on, and safe to
 * read from the sampler thread.
 */

#ifndef LRD_UTIL_MEMPROBE_H
#define LRD_UTIL_MEMPROBE_H

#include <cstdint>

namespace lrd {

/** Kernel-reported process memory at one instant. */
struct ProcMemSample
{
    int64_t rssBytes = 0;     ///< VmRSS: current resident set.
    int64_t peakRssBytes = 0; ///< VmHWM: resident-set high-water mark.
};

/** Read /proc/self/status; all-zero when unreadable (non-Linux). */
ProcMemSample sampleProcMem();

/** Cumulative + live byte accounting of Tensor storage. */
struct TensorArenaStats
{
    int64_t allocCount = 0;    ///< Tensors ever constructed.
    int64_t allocBytes = 0;    ///< Cumulative bytes allocated.
    int64_t freedBytes = 0;    ///< Cumulative bytes released.
    int64_t liveBytes = 0;     ///< allocBytes - freedBytes.
    /** Sum of the per-shard high-water marks of liveBytes: exact
     *  when a single thread allocates, an upper bound otherwise. */
    int64_t peakLiveBytes = 0;
};

/**
 * Record `bytes` entering the arena (Tensor construction) on the
 * calling thread's shard. Returns the token to hand back to
 * tensorArenaRecordFree(): the bytes with the shard index packed in.
 */
int64_t tensorArenaRecordAlloc(int64_t bytes);

/** Record a token's bytes leaving the arena (Tensor destruction),
 *  charged to the shard that allocated them. A token of zero bytes,
 *  such as a moved-from tensor's 0, is a no-op. */
void tensorArenaRecordFree(int64_t token);

/** Coherent-enough snapshot of the counters (relaxed loads). */
TensorArenaStats tensorArenaStats();

/** Reset every shard's peak to its live level (tests). */
void tensorArenaResetPeakForTest();

} // namespace lrd

#endif // LRD_UTIL_MEMPROBE_H
