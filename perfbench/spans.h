/**
 * @file
 * In-memory span recorder for the pipeline benchmark.
 *
 * Every span carries a name, start and end (steady-clock ns), the id of
 * the span that caused it, and a request id (a prompt, a DSE candidate
 * or a trainer step). Spans are kept in memory and written once, when
 * the run ends; nothing is dropped. Self time is a span's duration
 * minus the part of its interval that its children cover.
 *
 * The recorder is separate from the program's LRD_TRACE ring on
 * purpose: that ring keeps only the newest events per thread.
 */
#ifndef LRD_PERFBENCH_SPANS_H
#define LRD_PERFBENCH_SPANS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic clock in nanoseconds. */
int64_t nowNs();

struct Span
{
    std::string name;
    int64_t start = 0;
    int64_t end = -1;   ///< -1 while open.
    int64_t id = 0;
    int64_t parent = -1; ///< -1 for a root span.
    int64_t request = -1;
    int lane = 0;        ///< Recording thread (0 = main).
};

/** Summary of one span name: count, total, self and quantiles (ns). */
struct SpanStats
{
    int64_t count = 0;
    double totalNs = 0;
    double selfTotalNs = 0;
    double p50Ns = 0;
    double maxNs = 0;
    double selfP50Ns = 0;
};

class SpanRecorder
{
  public:
    static SpanRecorder &instance();

    void setEnabled(bool on) { enabled_.store(on); }
    bool enabled() const { return enabled_.load(); }

    /** Open a span; returns its id, or -1 when recording is off. */
    int64_t open(const char *name, int64_t parent, int64_t request);
    void close(int64_t id);

    /** Per-span self time (ns), indexed by span id. */
    std::vector<int64_t> selfTimes() const;
    /** Aggregate every span of each name. */
    std::map<std::string, SpanStats> stats() const;
    /**
     * Share of [t0, t1] covered by the union of the spans named in
     * `names` that were opened in that window.
     */
    double coverage(const std::set<std::string> &names, int64_t t0,
                    int64_t t1) const;

    /** Write the spans as a chrome://tracing / Perfetto JSON file. */
    bool writeChromeJson(const std::string &path) const;

  private:
    SpanRecorder() = default;
    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** Sentinel parent: use the innermost span open on this thread. */
constexpr int64_t kCurrentParent = -2;

/** RAII span; a no-op when the recorder is disabled. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name, int64_t request = -1,
                        int64_t parent = kCurrentParent);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    int64_t id_;
};

} // namespace perfbench

#endif // LRD_PERFBENCH_SPANS_H
