/**
 * @file
 * The three pipeline workloads (decode, sweep, finetune) of the
 * benchmark, and the result record each run produces.
 */
#ifndef LRD_PERFBENCH_WORKLOADS_H
#define LRD_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string outDir; ///< Where the span file is written (trace runs).
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct RunResult
{
    int64_t attempted = 0; ///< Requests, candidates or optimizer steps.
    int64_t failed = 0;    ///< Attempts that failed an output check.
    std::vector<std::string> checks;   ///< Failed-check messages.
    std::vector<Metric> endToEnd;      ///< Gated metrics (untraced run).
    std::vector<Metric> detail;        ///< Workload-named metrics.
    std::vector<Metric> layers;        ///< Per-layer metrics (traced run).
    std::vector<std::string> notes;    ///< Why a layer metric reads 0.
    std::string extraJson;             ///< Raw `"key":value` fragments.
};

/** Train-or-load the zoo model so later runs hit a warm cache. */
void prepareModelZoo();

/** Run one workload for args.seconds and check its outputs. */
RunResult runWorkload(const RunArgs &args);

} // namespace perfbench

#endif // LRD_PERFBENCH_WORKLOADS_H
