#!/usr/bin/env python3
"""Compare two sets of perfbench results against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE NEW
    python3 perfbench/compare.py --self-test

BASE and NEW are each a directory of result files (as run.py writes to
.bench_build/results/) or a JSONL file with one result per line (as
perfbench/baseline.jsonl). Only untraced results are used. For every
workload and end-to-end metric, the median of NEW may be worse than the
median of BASE by at most the metric's bound, a share of BASE's median.
Exits 1 and names each metric and workload that regressed or is
missing, else prints "unchanged" and exits 0.
"""

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
BASELINE = HERE / "baseline.jsonl"


def load_results(path):
    path = Path(path)
    if path.is_dir():
        docs = [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
    else:
        docs = [json.loads(line) for line in path.read_text().splitlines()
                if line.strip()]
    return [d for d in docs if not d.get("trace")]


def medians(results):
    """{(workload, metric): median value} over untraced results."""
    values = {}
    for res in results:
        for name, m in res["end_to_end"].items():
            values.setdefault((res["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in values.items()}


def compare(base, new, spec):
    """List of regression messages (empty when nothing got worse)."""
    base_med, new_med = medians(base), medians(new)
    problems = []
    for (workload, name), b in sorted(base_med.items()):
        metric = next((m for m in spec["end_to_end"] if m["name"] == name),
                      None)
        if metric is None:
            continue
        if (workload, name) not in new_med:
            problems.append("%s on %s: missing from the new results"
                            % (name, workload))
            continue
        n = new_med[(workload, name)]
        worse = (n - b) if metric["better"] == "lower" else (b - n)
        if worse > metric["bound"] * abs(b):
            problems.append(
                "%s on %s regressed: %.6g -> %.6g %s (worse by %.1f%%, "
                "bound %.1f%%)" % (name, workload, b, n, metric["unit"],
                                   100.0 * worse / abs(b),
                                   100.0 * metric["bound"]))
    return problems


def write_set(results, directory):
    directory.mkdir(parents=True)
    for i, res in enumerate(results):
        (directory / ("%s-%03d.json" % (res["workload"], i))).write_text(
            json.dumps(res))


def self_test(spec):
    """Identical sets pass; each metric worsened past its bound on one
    workload fails and is named; worsened within its bound passes."""
    base = load_results(BASELINE)
    tmp = HERE.parent / ".bench_build" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    write_set(base, tmp / "base")
    write_set(base, tmp / "same")
    assert compare(load_results(tmp / "base"),
                   load_results(tmp / "same"), spec) == [], \
        "identical result sets must compare as unchanged"
    checked = 0
    for workload in sorted({r["workload"] for r in base}):
        for metric in spec["end_to_end"]:
            for share, must_fail in ((1.5, True), (0.5, False)):
                step = 1 + share * metric["bound"]
                worse = json.loads(json.dumps(base))
                for res in worse:
                    if res["workload"] != workload:
                        continue
                    m = res["end_to_end"][metric["name"]]
                    m["value"] = (m["value"] * step
                                  if metric["better"] == "lower"
                                  else m["value"] / step)
                tag = "%s-%s-%s" % (workload, metric["name"], share)
                write_set(worse, tmp / tag)
                problems = compare(load_results(tmp / "base"),
                                   load_results(tmp / tag), spec)
                if must_fail:
                    assert len(problems) == 1 and problems[0].startswith(
                        "%s on %s regressed" % (metric["name"], workload)), \
                        "%s: expected one named regression, got %r" % (
                            tag, problems)
                else:
                    assert problems == [], "%s: %r" % (tag, problems)
                checked += 1
    shutil.rmtree(tmp)
    print("self-test passed: %d cases over %d result files"
          % (checked + 1, len(base)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    if args.self_test:
        self_test(spec)
        return 0
    if not args.base or not args.new:
        ap.error("BASE and NEW are required")
    problems = compare(load_results(args.base), load_results(args.new), spec)
    for p in problems:
        print(p)
    if problems:
        return 1
    print("unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
