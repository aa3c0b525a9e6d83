#!/usr/bin/env bash
# Count Rust code lines the way ROADMAP.md reports them.
#
#   scripts/loc.sh              totals over crates/*/src/**/*.rs
#   scripts/loc.sh FILE...      the same two metrics per file, then a total
#
# A code line is non-blank and not a `//` comment line. Two metrics:
#   before_test  code lines before the file's first `#[cfg(test)]`
#   non_test     code lines outside `#[cfg(test)] mod … { … }` blocks
# The first is the historical metric; the second does not stop at an
# early test-only item, so moving such an item cannot look like a deletion.
set -euo pipefail

count() {
    awk '
        FNR == 1 { if (NR > 1) emit(); file = FILENAME; before = 0; nontest = 0; seen_test = 0; pending = 0; skip = "" }
        function emit() { printf "%8d %8d  %s\n", before, nontest, file; tb += before; tn += nontest }
        {
            line = $0
            code = line !~ /^[[:space:]]*$/ && line !~ /^[[:space:]]*\/\//
            if (skip != "") {
                if (line == skip) skip = ""
                next
            }
            if (line ~ /^[[:space:]]*#\[cfg\(test\)\]/) {
                seen_test = 1
                pending = 1
                next
            }
            if (pending && line ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{$/) {
                match(line, /^[[:space:]]*/)
                skip = substr(line, 1, RLENGTH) "}"
                pending = 0
                next
            }
            if (pending && code) {
                # `#[cfg(test)]` on an item other than an inline module:
                # the attribute and the item stay outside a test module.
                nontest++
                pending = 0
            }
            if (!code) next
            if (!seen_test) before++
            nontest++
        }
        END { if (NR > 0) emit(); printf "%8d %8d  total\n", tb, tn }
    ' "$@"
}

printf "%8s %8s\n" before_test non_test
if [ "$#" -eq 0 ]; then
    cd "$(dirname "$0")/.."
    mapfile -t files < <(find crates/*/src -name '*.rs' | sort)
    count "${files[@]}" | tail -n 1
else
    count "$@"
fi
