#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

thread_local std::vector<int64_t> tlOpen; // Open span ids, innermost last.

/** Id of the innermost span open on this thread, or -1. */
int64_t
currentSpan()
{
    return tlOpen.empty() ? -1 : tlOpen.back();
}

int
threadLane()
{
    static std::atomic<int> next{0};
    thread_local const int lane = next.fetch_add(1);
    return lane;
}

/** Length of the union of [lo, hi) intervals (sorted in place). */
int64_t
unionLength(std::vector<std::pair<int64_t, int64_t>> &iv)
{
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t curLo = 0;
    int64_t curHi = -1;
    for (const auto &[lo, hi] : iv) {
        if (hi <= lo)
            continue;
        if (lo > curHi) {
            if (curHi > curLo)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
        } else {
            curHi = std::max(curHi, hi);
        }
    }
    if (curHi > curLo)
        covered += curHi - curLo;
    return covered;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

SpanRecorder &
SpanRecorder::instance()
{
    static SpanRecorder rec;
    return rec;
}

int64_t
SpanRecorder::open(const char *name, int64_t parent, int64_t request)
{
    if (!enabled_)
        return -1;
    if (parent == kCurrentParent)
        parent = currentSpan();
    Span s;
    s.name = name;
    s.parent = parent;
    s.request = request;
    s.lane = threadLane();
    int64_t id = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = static_cast<int64_t>(spans_.size());
        s.id = id;
        s.start = nowNs();
        spans_.push_back(std::move(s));
    }
    tlOpen.push_back(id);
    return id;
}

void
SpanRecorder::close(int64_t id)
{
    if (id < 0)
        return;
    const int64_t t = nowNs();
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<size_t>(id)].end = t;
    }
    if (!tlOpen.empty() && tlOpen.back() == id)
        tlOpen.pop_back();
}

std::vector<int64_t>
SpanRecorder::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span &s : spans_)
        if (s.parent >= 0 && s.end >= 0)
            children[static_cast<size_t>(s.parent)].emplace_back(s.start,
                                                                 s.end);
    std::vector<int64_t> self(spans_.size(), 0);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.end < 0)
            continue;
        auto &iv = children[i];
        for (auto &[lo, hi] : iv) {
            lo = std::max(lo, s.start);
            hi = std::min(hi, s.end);
        }
        self[i] = (s.end - s.start) - unionLength(iv);
    }
    return self;
}

std::map<std::string, SpanStats>
SpanRecorder::stats() const
{
    const std::vector<int64_t> self = selfTimes();
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, std::vector<double>> dur;
    std::map<std::string, std::vector<double>> selfDur;
    for (const Span &s : spans_) {
        if (s.end < 0)
            continue;
        dur[s.name].push_back(static_cast<double>(s.end - s.start));
        selfDur[s.name].push_back(
            static_cast<double>(self[static_cast<size_t>(s.id)]));
    }
    std::map<std::string, SpanStats> out;
    for (const auto &[name, d] : dur) {
        SpanStats st;
        st.count = static_cast<int64_t>(d.size());
        for (double x : d) {
            st.totalNs += x;
            st.maxNs = std::max(st.maxNs, x);
        }
        for (double x : selfDur[name])
            st.selfTotalNs += x;
        st.p50Ns = quantile(d, 0.5);
        st.selfP50Ns = quantile(selfDur[name], 0.5);
        out[name] = st;
    }
    return out;
}

double
SpanRecorder::coverage(const std::set<std::string> &names, int64_t t0,
                       int64_t t1) const
{
    if (t1 <= t0)
        return 0.0;
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const Span &s : spans_)
        if (s.end >= 0 && s.start >= t0 && s.start < t1
            && names.count(s.name) != 0)
            iv.emplace_back(s.start, std::min(s.end, t1));
    return static_cast<double>(unionLength(iv))
           / static_cast<double>(t1 - t0);
}

bool
SpanRecorder::writeChromeJson(const std::string &path) const
{
    const std::vector<int64_t> self = selfTimes();
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const int64_t base = spans_.empty() ? 0 : spans_.front().start;
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.end < 0)
            continue;
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%lld,\"parent\":%lld,\"request\":%lld,"
                     "\"self_us\":%.3f}}\n",
                     first ? "" : ",", s.name.c_str(), s.lane,
                     static_cast<double>(s.start - base) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3,
                     static_cast<long long>(s.id),
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.request),
                     static_cast<double>(self[i]) / 1e3);
        first = false;
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char *name, int64_t request, int64_t parent)
    : id_(SpanRecorder::instance().open(name, parent, request))
{
}

ScopedSpan::~ScopedSpan()
{
    SpanRecorder::instance().close(id_);
}

} // namespace perfbench
