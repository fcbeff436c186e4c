#include "memprobe.h"

#include <atomic>
#include <cstdio>
#include <cstring>

namespace lrd {

namespace {

/** "VmRSS:    123 kB" -> bytes; -1 when the key is not this line. */
int64_t
parseStatusLine(const char *line, const char *key)
{
    const size_t keyLen = std::strlen(key);
    if (std::strncmp(line, key, keyLen) != 0)
        return -1;
    long long kb = 0;
    if (std::sscanf(line + keyLen, " %lld", &kb) != 1)
        return -1;
    return static_cast<int64_t>(kb) * 1024;
}

constexpr int kShardBits = 6;
constexpr int kShards = 1 << kShardBits;

/** One thread's counters, alone on its cache line. Live bytes are
 *  allocBytes - freedBytes, so an allocation costs two uncontended
 *  read-modify-writes and a free one. */
struct alignas(64) ArenaShard
{
    std::atomic<int64_t> allocCount{0};
    std::atomic<int64_t> allocBytes{0};
    std::atomic<int64_t> freedBytes{0};
    std::atomic<int64_t> peakLiveBytes{0};
};

ArenaShard *
shards()
{
    // Constant-initialized and trivially destructible: tensors owned
    // by function-local statics (the model cache) destruct after
    // main, and their accounting still finds live counters.
    static ArenaShard s[kShards];
    return s;
}

std::atomic<int> nextShard{0};
thread_local int threadShard = -1;

} // namespace

ProcMemSample
sampleProcMem()
{
    ProcMemSample out;
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return out;
    char line[256];
    while (std::fgets(line, sizeof(line), f)) {
        int64_t v = parseStatusLine(line, "VmRSS:");
        if (v >= 0)
            out.rssBytes = v;
        v = parseStatusLine(line, "VmHWM:");
        if (v >= 0)
            out.peakRssBytes = v;
        if (out.rssBytes > 0 && out.peakRssBytes > 0)
            break;
    }
    std::fclose(f);
    return out;
}

int64_t
tensorArenaRecordAlloc(int64_t bytes)
{
    if (threadShard < 0)
        threadShard =
            nextShard.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
    ArenaShard &s = shards()[threadShard];
    s.allocCount.fetch_add(1, std::memory_order_relaxed);
    const int64_t live =
        s.allocBytes.fetch_add(bytes, std::memory_order_relaxed) + bytes
        - s.freedBytes.load(std::memory_order_relaxed);
    int64_t peak = s.peakLiveBytes.load(std::memory_order_relaxed);
    while (live > peak
           && !s.peakLiveBytes.compare_exchange_weak(
               peak, live, std::memory_order_relaxed))
        ;
    return bytes << kShardBits | threadShard;
}

void
tensorArenaRecordFree(int64_t token)
{
    const int64_t bytes = token >> kShardBits;
    if (bytes == 0)
        return;
    shards()[token & (kShards - 1)].freedBytes.fetch_add(
        bytes, std::memory_order_relaxed);
}

TensorArenaStats
tensorArenaStats()
{
    TensorArenaStats out;
    for (int i = 0; i < kShards; ++i) {
        const ArenaShard &s = shards()[i];
        out.allocCount += s.allocCount.load(std::memory_order_relaxed);
        out.allocBytes += s.allocBytes.load(std::memory_order_relaxed);
        out.freedBytes += s.freedBytes.load(std::memory_order_relaxed);
        out.peakLiveBytes +=
            s.peakLiveBytes.load(std::memory_order_relaxed);
    }
    out.liveBytes = out.allocBytes - out.freedBytes;
    return out;
}

void
tensorArenaResetPeakForTest()
{
    for (int i = 0; i < kShards; ++i) {
        ArenaShard &s = shards()[i];
        const int64_t live = s.allocBytes.load(std::memory_order_relaxed)
                             - s.freedBytes.load(std::memory_order_relaxed);
        s.peakLiveBytes.store(live, std::memory_order_relaxed);
    }
}

} // namespace lrd
