#!/usr/bin/env bash
# Count non-test Rust lines: for every tracked `.rs` file outside `vendor/`,
# `benchmark/` and any `tests/` directory, the lines before its first line
# that begins `#[cfg(test)]` (all of its lines if it has none). Prints the
# total, then each crate's share (`dewe` is the root package: `src/` and
# `examples/`).
#
# Usage: scripts/nontest-lines.sh [checkout]   (default: this one)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
git ls-files -- '*.rs' | grep -Ev '^(vendor|benchmark)/|(^|/)tests/' |
    while IFS= read -r file; do
        case "$file" in
            crates/*) crate=${file#crates/}; crate=${crate%%/*} ;;
            *) crate=dewe ;;
        esac
        lines=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
        printf '%s %s\n' "$crate" "$lines"
    done |
    awk '{ total += $2; per[$1] += $2 }
         END { printf "total %d\n", total; for (c in per) printf "%s %d\n", c, per[c] | "sort" }'
