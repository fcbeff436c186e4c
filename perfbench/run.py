#!/usr/bin/env python3
"""Pipeline benchmark for the lrd engine: decode, sweep and finetune.

Run from the repository root:

    python3 perfbench/run.py --workload decode --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # all three, summary table
    python3 perfbench/run.py --write-reference       # refresh reference.json

Each run builds perfbench/ (and the lrd libraries it links) into
.bench_build/perfbench as a Release build, fills the model-zoo cache in
.bench_build/zoo in an untimed prepare step, runs one workload in
lrdbench, checks its outputs against perfbench/reference.json, writes
the full stamped result to .bench_build/results/ and prints, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_DIR = BUILD / "perfbench"
EXE = BUILD_DIR / "lrdbench"
ZOO = BUILD / "zoo"
RESULTS = BUILD / "results"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("decode", "sweep", "finetune")
# decode is the paper's single-stream latency setting; the sweep and the
# fine-tune are throughput jobs that use the whole 4-thread pool.
THREADS = {"decode": 1, "sweep": 4, "finetune": 4}
RUN_TIMEOUT_S = 170

# The workload-named metrics printed by --workload all, in order.
SUMMARY = [
    ("all", "setup_s"), ("all", "peak_rss_mb"), ("all", "failed_frac"),
    ("decode", "decode.gap_us.p50"), ("decode", "decode.gap_us.p99"),
    ("decode", "decode.dense_gap_us.p50"), ("decode", "decode.ttft_ms.p50"),
    ("decode", "decode.lrd_speedup"), ("decode", "decode.token_match"),
    ("sweep", "sweep.candidates_per_s"), ("sweep", "sweep.mean_accuracy"),
    ("finetune", "finetune.steps_per_s"), ("finetune", "finetune.final_loss"),
]


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def bench_env(workload):
    """The caller's environment without any LRD_* knob, plus ours."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LRD_")}
    env["LRD_CACHE_DIR"] = str(ZOO)
    env["LRD_THREADS"] = str(THREADS.get(workload, 4))
    return env


def build_and_prepare():
    """Configure, build and fill the model cache, once per checkout."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no lrd source tree next to perfbench/ (expected src/ and "
             "CMakeLists.txt at %s)" % ROOT, 2)
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    with open(BUILD / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log, "w") as out:
            steps = []
            if not (BUILD_DIR / "CMakeCache.txt").is_file():
                steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                          "lrdbench", "-j", "4"])
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    tail = log.read_text().splitlines()[-30:]
                    print("\n".join(tail), file=sys.stderr)
                    fail("build failed (full log: %s)" % log)
        cache = (BUILD_DIR / "CMakeCache.txt").read_text()
        if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
            fail("%s is not a Release build; benchmark numbers from "
                 "unoptimized code are meaningless" % BUILD_DIR, 3)
        # Untimed: a cold zoo cache trains the model (tens of seconds).
        ZOO.mkdir(exist_ok=True)
        if subprocess.run([str(EXE), "prepare"], env=bench_env("prepare"),
                          stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("model-zoo prepare step failed")


def source_digest():
    """sha256 over the files the benchmark builds from."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_lrdbench(workload, seed, seconds, trace):
    RESULTS.mkdir(exist_ok=True)
    cmd = [str(EXE), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(RESULTS)]
    try:
        proc = subprocess.run(cmd, env=bench_env(workload), cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("lrdbench exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def load_reference():
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {"seed": 1, "levels": {}}


def check_reference(res, ref):
    """Compare against the stored outputs of the reference seed.

    References are kept per SIMD level: the micro-kernels of different
    levels round differently, so their token streams may legitimately
    differ.
    """
    detail = res["detail"]
    level = res["manifest"].get("simdLevel", "unknown")
    stored = ref["levels"].get(level, {}).get(res["workload"])
    res["reference"] = "none for seed %d at SIMD level %s" % (res["seed"],
                                                              level)
    if res["workload"] == "decode":
        matched = detail["decode.repeat_token_match"]["value"]
        total = detail["decode.repeat_tokens"]["value"]
        matched *= total
        if res["seed"] == ref["seed"] and stored:
            res["reference"] = "checked"
            bad = 0
            for model in ("dense", "lrd"):
                for got, want in zip(res["streams"][model], stored[model]):
                    same = sum(1 for g, w in zip(got, want) if g == w)
                    matched += same
                    total += len(want)
                    bad += same != len(want) or len(got) != len(want)
            if bad:
                res["failed"] += bad
                res["checks"].append("%d decode streams differ from the "
                                     "stored reference" % bad)
        detail["decode.token_match"] = {
            "value": matched / total if total else 1.0, "unit": "ratio"}
    elif res["workload"] == "finetune" and res["seed"] == ref["seed"] \
            and stored:
        res["reference"] = "checked"
        if res["final_loss_bits"] != stored["final_loss_bits"]:
            res["failed"] += res["attempted"]
            res["checks"].append("final loss %s differs from the stored "
                                 "reference %s" % (res["final_loss_bits"],
                                                   stored["final_loss_bits"]))
    if res["attempted"]:
        frac = res["failed"] / res["attempted"]
        detail["failed_frac"]["value"] = frac
        res["end_to_end"]["ok_frac"]["value"] = 1.0 - frac
    res["correct"] = not res["checks"]


def measure(workload, seed, seconds, trace, ref):
    res = run_lrdbench(workload, seed, seconds, trace)
    check_reference(res, ref)
    res["source_digest"] = source_digest()
    out = RESULTS / ("%s-seed%d-trace%d.json" % (workload, seed, trace))
    out.write_text(json.dumps(res, indent=1) + "\n")
    return res


def print_metrics(res, section):
    for name, m in res[section].items():
        print("%-34s %16.6f %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this SIMD level's decode streams and "
                    "fine-tune loss for the reference seed")
    args = ap.parse_args()

    build_and_prepare()
    ref = load_reference()

    if args.write_reference:
        level = None
        for w in ("decode", "finetune"):
            res = run_lrdbench(w, ref["seed"], 1, 0)
            level = res["manifest"]["simdLevel"]
            entry = ref["levels"].setdefault(level, {})
            entry[w] = ({"dense": res["streams"]["dense"],
                         "lrd": res["streams"]["lrd"]} if w == "decode" else
                        {"final_loss_bits": res["final_loss_bits"]})
        REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
        print("wrote %s for SIMD level %s" % (REFERENCE, level))
        return

    if args.workload == "all":
        results = {w: measure(w, args.seed, args.seconds, args.trace, ref)
                   for w in WORKLOADS}
        for w, res in results.items():
            print("== %s (%s)" % (w, "correct" if res["correct"] else
                                  "INCORRECT: " + "; ".join(res["checks"])))
            if args.trace:
                print_metrics(res, "per_layer")
        print("== end-to-end summary")
        for scope, name in SUMMARY:
            for w in (WORKLOADS if scope == "all" else (scope,)):
                m = results[w]["detail"][name]
                label = name if scope != "all" else "%s.%s" % (w, name)
                print("%-34s %16.6f %s" % (label, m["value"], m["unit"]))
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        print(json.dumps(summary))
        return

    res = measure(args.workload, args.seed, args.seconds, args.trace, ref)
    m = res["manifest"]
    print("manifest: git %s, source %s, %s build, SIMD %s, %d threads, "
          "nproc %d, seed %d" % (m["gitSha"], res["source_digest"],
                                 m["buildType"], m["simdLevel"], m["threads"],
                                 res["nproc"], res["seed"]))
    for msg in res["checks"]:
        print("check failed: " + msg)
    for note in res["notes"]:
        print("note: " + note)
    section = "per_layer" if args.trace else "end_to_end"
    if not args.trace:
        print_metrics(res, "detail")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res[section],
    }))


if __name__ == "__main__":
    main()
