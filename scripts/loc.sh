#!/usr/bin/env bash
# Line counts of the simulator crate, the numbers the ROADMAP tracks.
#
# For each file under crates/sim/src it prints:
#   non-test  lines above the first `#[cfg(test)]` (the whole file when
#             there is none);
#   code      non-test lines that are neither blank nor `//` comments
#             (doc comments included).
# A total row follows. Run from anywhere: ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

awk '
    FNR == 1 { in_test = 0; files[++n] = FILENAME }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
    in_test { next }
    {
        nontest[FILENAME]++
        if ($0 !~ /^[[:space:]]*$/ && $0 !~ /^[[:space:]]*\/\//) code[FILENAME]++
    }
    END {
        printf "%9s %7s  %s\n", "non-test", "code", "file"
        for (i = 1; i <= n; i++) {
            f = files[i]
            printf "%9d %7d  %s\n", nontest[f], code[f], f
            tn += nontest[f]; tc += code[f]
        }
        printf "%9d %7d  %s\n", tn, tc, "total"
    }
' $(find crates/sim/src -name '*.rs' | sort)
