#!/usr/bin/env bash
# Kill-and-resume soak for the checkpointed DSE sweep. Runs serial
# reference sweeps at several thread counts, then SIGKILLs a
# checkpointing sweep mid-run and resumes it, and asserts:
#
#   - the serial --out file is BYTE-IDENTICAL at LRD_THREADS=1/4/8,
#   - a sweep SIGKILLed after its first checkpoint and rerun with
#     --resume writes an --out file byte-identical to the serial one,
#     at 1/4/8 threads,
#   - the kill really landed mid-sweep (the victim died by SIGKILL and
#     the resume restored some but not all candidates); a run that
#     finished before the kill fails the script,
#   - no *.tmp file is left next to the checkpoint after the resume,
#   - malformed --ranks arguments exit 1 without starting a sweep.
#
# Usage: scripts/dse_kill_resume.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
lrdtool="${build_dir}/tools/lrdtool"

if [[ ! -x "${lrdtool}" ]]; then
    echo "building lrdtool in ${build_dir}" >&2
    cmake -B "${build_dir}" -S "${repo_root}"
    cmake --build "${build_dir}" -j --target lrdtool
fi

fail() {
    echo "dse_kill_resume: FAIL — $*" >&2
    exit 1
}

victim_pid=""
workdir="$(mktemp -d "${TMPDIR:-/tmp}/lrd_dse_kill.XXXXXX")"
cleanup() {
    if [[ -n "${victim_pid}" ]]; then
        kill -KILL "${victim_pid}" 2>/dev/null || true
    fi
    rm -rf "${workdir}"
}
trap cleanup EXIT
# A private model cache: the first run trains the stand-in once, every
# later run reuses the same cached weights.
export LRD_CACHE_DIR="${workdir}/cache"

# Every chaos target below must be a documented injection site, or
# this script rots silently when sites are renamed.
faults_table="$("${lrdtool}" faults)"
for site in dse.batch; do
    grep -q "${site}" <<<"${faults_table}" \
        || fail "site ${site} missing from 'lrdtool faults'"
done
echo "dse_kill_resume: all chaos sites registered"

# Malformed --ranks must exit 1 with usage, never start a sweep.
for bad in --ranks=0 --ranks=x --ranks=1,,2 --ranks= --ranks=-1; do
    got=0
    "${lrdtool}" dse "${bad}" --ckpt="${workdir}/never.bin" \
        >/dev/null 2>&1 || got=$?
    [[ "${got}" == "1" ]] || fail "dse ${bad}: exit ${got}, want 1"
done
[[ ! -e "${workdir}/never.bin" ]] || fail "bad args still wrote a checkpoint"
echo "dse_kill_resume: malformed --ranks args exit 1"

# 32 candidates in 16 checkpoint batches: about 1.6 s at 8 threads on
# a 4-core host, so a kill sent at the first checkpoint leaves most of
# the sweep still to run.
SWEEP=(--tasks=24 --ranks=1,2,3,4)
EVERY=2
CANDIDATES=32

# Serial references. The first run also warms the model cache, so the
# victims below spend their time sweeping, not training.
for threads in 1 4 8; do
    LRD_THREADS="${threads}" "${lrdtool}" dse "${SWEEP[@]}" \
        --out="${workdir}/serial-t${threads}.bin" >/dev/null 2>&1 \
        || fail "serial dse at ${threads} threads failed"
done
for threads in 4 8; do
    cmp -s "${workdir}/serial-t1.bin" "${workdir}/serial-t${threads}.bin" \
        || fail "serial result differs between 1 and ${threads} threads"
done
echo "dse_kill_resume: serial result identical at 1/4/8 threads"

for threads in 1 4 8; do
    dir="${workdir}/kill-t${threads}"
    mkdir -p "${dir}"
    ckpt="${dir}/dse.ckpt"
    out="${dir}/out.bin"

    LRD_THREADS="${threads}" "${lrdtool}" dse "${SWEEP[@]}" \
        --ckpt="${ckpt}" --every="${EVERY}" --out="${out}" \
        >"${dir}/victim.log" 2>&1 &
    victim_pid=$!
    # Wait for the first checkpoint, then kill at once.
    for _ in $(seq 1 6000); do
        [[ -e "${ckpt}" ]] && break
        kill -0 "${victim_pid}" 2>/dev/null || break
        sleep 0.01
    done
    [[ -e "${ckpt}" ]] \
        || fail "${threads} threads: no checkpoint appeared: $(cat "${dir}/victim.log")"
    kill -0 "${victim_pid}" 2>/dev/null \
        || fail "${threads} threads: sweep finished before the kill; lengthen SWEEP"
    kill -KILL "${victim_pid}"
    got=0
    wait "${victim_pid}" || got=$?
    victim_pid=""
    [[ "${got}" == "137" ]] \
        || fail "${threads} threads: victim exit ${got}, want 137 (SIGKILL); the sweep finished first"
    [[ ! -e "${out}" ]] || fail "${threads} threads: killed sweep wrote --out"

    LRD_THREADS="${threads}" "${lrdtool}" dse "${SWEEP[@]}" \
        --ckpt="${ckpt}" --every="${EVERY}" --resume --out="${out}" \
        >"${dir}/resume.log" 2>&1 \
        || fail "${threads} threads: resume failed: $(cat "${dir}/resume.log")"
    restored="$(sed -n 's/.*dse: resumed .* with \([0-9]*\) of .*/\1/p' \
        "${dir}/resume.log")"
    [[ -n "${restored}" ]] \
        || fail "${threads} threads: resume did not restore a checkpoint: $(cat "${dir}/resume.log")"
    [[ "${restored}" -gt 0 && "${restored}" -lt "${CANDIDATES}" ]] \
        || fail "${threads} threads: restored ${restored} of ${CANDIDATES}; the kill did not land mid-sweep"
    cmp -s "${workdir}/serial-t1.bin" "${out}" \
        || fail "${threads} threads: resumed result differs from serial"
    leftover="$(find "${dir}" -name '*.tmp')"
    [[ -z "${leftover}" ]] || fail "${threads} threads: left behind ${leftover}"
    echo "dse_kill_resume: ${threads} threads — killed at ${restored}/${CANDIDATES}," \
        "resumed == serial, no .tmp left"
done

echo "dse_kill_resume: OK"
