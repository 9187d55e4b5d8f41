#!/usr/bin/env bash
# Line counts of the crates the ROADMAP tracks.
#
# For each file under crates/sim/src it prints:
#   non-test  lines above the first `#[cfg(test)]` (the whole file when
#             there is none);
#   code      non-test lines that are neither blank nor `//` comments
#             (doc comments included).
# A total row follows, then the same two totals for the memory
# controller (crates/mem/src) and the DRAM model (crates/dram/src).
# Run from anywhere: ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# count DIR [per-file]: the totals of DIR, after a row per file when a
# second argument is given.
count() {
    awk -v dir="$1" -v per_file="${2:-}" '
        FNR == 1 { in_test = 0; files[++n] = FILENAME }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        {
            nontest[FILENAME]++
            if ($0 !~ /^[[:space:]]*$/ && $0 !~ /^[[:space:]]*\/\//) code[FILENAME]++
        }
        END {
            for (i = 1; i <= n; i++) {
                f = files[i]
                if (per_file != "") printf "%9d %7d  %s\n", nontest[f], code[f], f
                tn += nontest[f]; tc += code[f]
            }
            printf "%9d %7d  %s\n", tn, tc, "total " dir
        }
    ' $(find "$1" -name '*.rs' | sort)
}

printf "%9s %7s  %s\n" "non-test" "code" "file"
count crates/sim/src per-file
count crates/mem/src
count crates/dram/src
