#!/usr/bin/env bash
# Keep the documented fault-site table in sync with the binary: the
# rows `lrdtool faults` prints must equal, as a set, the rows of the
# `| site | kinds | fires in |` table in docs/ARCHITECTURE.md.
#
# Usage: check_fault_table.sh <lrdtool-binary> <ARCHITECTURE.md>
set -euo pipefail

LRDTOOL=${1:?usage: check_fault_table.sh <lrdtool> <ARCHITECTURE.md>}
DOC=${2:?usage: check_fault_table.sh <lrdtool> <ARCHITECTURE.md>}

# Body rows of the first table whose header is the fault-table header:
# every `|` line after it, minus the separator, up to the first other
# line.
table_rows() {
    awk '
        /^\| site \| kinds \| fires in \|$/ { inside = 1; next }
        inside && /^\|/ { if ($0 !~ /^\| ---/) print; next }
        inside { exit }
    ' | sort
}

binary_rows=$("$LRDTOOL" faults | table_rows)
doc_rows=$(table_rows <"$DOC")

if [ -z "$binary_rows" ]; then
    echo "check_fault_table: 'lrdtool faults' printed no table rows"
    exit 1
fi
if [ "$binary_rows" != "$doc_rows" ]; then
    echo "check_fault_table: $DOC fault table differs from 'lrdtool faults'"
    echo "(< only in lrdtool faults, > only in the doc)"
    diff <(echo "$binary_rows") <(echo "$doc_rows") || true
    exit 1
fi
echo "check_fault_table: $(echo "$binary_rows" | wc -l) rows match"
