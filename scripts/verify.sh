#!/usr/bin/env bash
# Tier-1 verification: clean Release build + full ctest, the lrd-lint
# static-analysis gate, a ThreadSanitizer build that re-runs the
# determinism + observability suites, a UBSan build of the same two
# suites plus the GEMM reference suite (signed overflow / misaligned
# loads in the packed and skinny GEMM kernels would surface here), and an ASan build of the fault-
# tolerance suites (checkpoint I/O and injected alloc failures
# exercise error paths where leaks and overreads hide). clang-tidy
# (curated subset, WarningsAsErrors) blocks when the tool is
# installed and is skipped loudly when it is not.
#
# Usage: scripts/verify.sh
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

echo "== tier-1: Release build + ctest =="
cmake -B build -S .
cmake --build build -j
# --timeout: a hung cancellation drain or unjoined watchdog thread
# must fail the run, not wedge it.
ctest --test-dir build --output-on-failure --timeout 300 -j "$(nproc)"

echo "== lint: lrd-lint over src/ tools/ tests/ bench/ =="
cmake --build build -j --target lrd-lint
# The checked-in baseline grandfathers reviewed findings; anything
# new fails. The cache dir makes repeat verify runs parse-free, and
# the SARIF report is what CI uploads for code scanning.
./build/tools/lint/lrd-lint --root "${repo_root}" \
    --baseline tools/lint/baseline.txt \
    --cache-dir build/lint-cache --sarif build/lint.sarif

echo "== bench gate: check_bench.py self-test + advisory quick pass =="
# The self-test is load-bearing (the gate must pass the baseline
# against itself and fail a synthetic 20% slowdown); the live
# comparison is advisory because shared-VM noise on a one-repetition
# run is not a code regression.
python3 scripts/check_bench.py --self-test
if [[ "${LRD_VERIFY_BENCH:-0}" == "1" ]]; then
    cmake --build build -j --target bench_kernels
    ./build/bench/bench_kernels \
        "--benchmark_filter=BM_Gemm/256|BM_GemmTelemetryOn" \
        --benchmark_repetitions=3 \
        --benchmark_report_aggregates_only=true \
        --benchmark_out=/tmp/lrd_verify_bench.json \
        --benchmark_out_format=json
    # --allow-missing: this quick pass deliberately filters to two
    # benchmarks, so the absent rest is not a gate failure here.
    python3 scripts/check_bench.py --fresh /tmp/lrd_verify_bench.json \
        --allow-missing \
        || echo "bench gate reported regressions (advisory)"
fi

if command -v run-clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy (blocking; curated subset via .clang-tidy) =="
    # .clang-tidy sets WarningsAsErrors: '*', so any finding from the
    # curated check set fails the run.
    run-clang-tidy -quiet -p build "${repo_root}/src" "${repo_root}/tools"
else
    echo "== clang-tidy not installed; blocking pass skipped (CI runs it) =="
fi

echo "== TSan: determinism + obs + serve suites under -fsanitize=thread =="
# serve_test's MPMC contention storm runs here AND under ASan: the
# queue is the one serve component raw threads touch concurrently.
cmake -B build-tsan -S . -DLRD_SANITIZE=thread
cmake --build build-tsan -j --target determinism_test obs_test serve_test
./build-tsan/tests/determinism_test
./build-tsan/tests/obs_test
./build-tsan/tests/serve_test

echo "== UBSan: determinism + obs + GEMM reference suites under -fsanitize=undefined =="
cmake -B build-ubsan -S . -DLRD_SANITIZE=undefined
cmake --build build-ubsan -j --target determinism_test obs_test \
    gemm_reference_test
./build-ubsan/tests/determinism_test
./build-ubsan/tests/obs_test
./build-ubsan/tests/gemm_reference_test

echo "== ASan: robust + resume + cancel + serve suites under -fsanitize=address =="
cmake -B build-asan -S . -DLRD_SANITIZE=address
cmake --build build-asan -j --target robust_test resume_test cancel_test \
    serve_test
./build-asan/tests/robust_test
./build-asan/tests/resume_test
./build-asan/tests/cancel_test
./build-asan/tests/serve_test

echo "verify: OK"
