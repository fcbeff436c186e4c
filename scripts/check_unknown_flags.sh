#!/usr/bin/env bash
# lrdtool's flag-taking subcommands must refuse a flag they do not
# read: exit 1, name the flag, and do no work first (the model cache
# stays empty). A known flag must still get past the parser.
#
# Usage: check_unknown_flags.sh <lrdtool-binary>
set -euo pipefail

LRDTOOL=${1:?usage: check_unknown_flags.sh <lrdtool>}
cache=$(mktemp -d)
trap 'rm -rf "$cache"' EXIT
export LRD_CACHE_DIR="$cache"

failed=0
# expect <exit code> <stderr substring> <lrdtool args...>
expect() {
    local want_rc=$1 want_msg=$2
    shift 2
    local rc=0 err
    err=$("$LRDTOOL" "$@" 2>&1 >/dev/null) || rc=$?
    if [ "$rc" -ne "$want_rc" ] || [[ "$err" != *"$want_msg"* ]]; then
        echo "check_unknown_flags: 'lrdtool $*' exited $rc" \
            "(want $want_rc) with: ${err:-<no stderr>}"
        failed=1
    fi
}

# Flags retired with the sharded sweep, a typo, and flags of another
# subcommand.
expect 1 "dse: unknown flag '--merge'" dse --tasks=4 --merge=4
expect 1 "dse: unknown flag '--shard'" dse --shard=0/2
expect 1 "train: unknown flag '--resum'" train --resum
expect 1 "train: unknown flag '--out'" train --steps=2 --out=x
expect 1 "serve: unknown flag '--gap'" serve --gap=3
expect 1 "loadgen: unknown flag '--bogus'" loadgen --requests=4 --bogus
# A known flag parses: --ranks reaches cmdDse's own check, which
# rejects its value before the model is loaded.
expect 1 "dse: bad --ranks 'x'" dse --tasks=4 --ranks=x

if [ -n "$(ls -A "$cache")" ]; then
    echo "check_unknown_flags: a refused command wrote to the model cache:"
    ls -A "$cache"
    failed=1
fi
exit "$failed"
