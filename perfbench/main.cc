/**
 * @file
 * lrdbench: the pipeline benchmark's program.
 *
 *   lrdbench prepare
 *       Train-or-load the zoo model (fills LRD_CACHE_DIR; untimed).
 *   lrdbench run --workload decode|sweep|finetune --seed N --seconds S
 *                --trace 0|1 [--out DIR]
 *       Run one workload and print one JSON result line.
 *
 * Thread count comes from LRD_THREADS, as for every lrd program.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

#include "obs/manifest.h"
#include "parallel/thread_pool.h"
#include "tensor/simd/simd.h"
#include "util/logging.h"
#include "workloads.h"

using namespace perfbench;

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (size_t i = 0; i < ms.size(); ++i)
        out += lrd::strCat(i ? "," : "", jsonString(ms[i].name),
                           ":{\"value\":", jsonNumber(ms[i].value),
                           ",\"unit\":", jsonString(ms[i].unit), "}");
    return out + "}";
}

std::string
stringsJson(const std::vector<std::string> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ",";
        out += jsonString(v[i]);
    }
    return out + "]";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: lrdbench prepare\n"
                 "       lrdbench run --workload decode|sweep|finetune "
                 "--seed N --seconds S --trace 0|1 [--out DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "prepare") {
        prepareModelZoo();
        return 0;
    }
    if (cmd != "run")
        return usage();

    RunArgs a;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v);
        else if (k == "--trace")
            a.trace = std::strcmp(v, "0") != 0;
        else if (k == "--out")
            a.outDir = v;
        else
            return usage();
    }
    if (a.workload != "decode" && a.workload != "sweep"
        && a.workload != "finetune")
        return usage();

    std::string cmdline;
    for (int i = 0; i < argc; ++i)
        cmdline += lrd::strCat(i ? " " : "", argv[i]);
    lrd::setManifestRuntimeInfo(
        lrd::simd::levelName(lrd::simd::activeLevel()),
        lrd::ThreadPool::instance().numThreads(), cmdline);
    const lrd::RunManifest manifest = lrd::captureRunManifest();
    if (manifest.buildType != "Release") {
        std::fprintf(stderr,
                     "lrdbench: refusing to measure a '%s' build; configure "
                     "with -DCMAKE_BUILD_TYPE=Release\n",
                     manifest.buildType.c_str());
        return 3;
    }

    const RunResult r = runWorkload(a);
    std::string line = lrd::strCat(
        "{\"workload\":", jsonString(a.workload), ",\"seed\":", a.seed,
        ",\"seconds\":", jsonNumber(a.seconds),
        ",\"trace\":", a.trace ? 1 : 0,
        ",\"nproc\":", sysconf(_SC_NPROCESSORS_ONLN),
        ",\"manifest\":", manifest.toJson(),
        ",\"correct\":", r.checks.empty() ? "true" : "false",
        ",\"attempted\":", r.attempted, ",\"failed\":", r.failed,
        ",\"checks\":", stringsJson(r.checks),
        ",\"end_to_end\":", metricsJson(r.endToEnd),
        ",\"detail\":", metricsJson(r.detail),
        ",\"per_layer\":", metricsJson(r.layers),
        ",\"notes\":", stringsJson(r.notes));
    if (!r.extraJson.empty())
        line += "," + r.extraJson;
    std::printf("%s}\n", line.c_str());
    return 0;
}
