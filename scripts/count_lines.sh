#!/usr/bin/env bash
# Counts the engine's lines: non-blank, non-comment lines of every
# `crates/*/src` file before its first `#[cfg(test)]`. Prints one line per
# crate and the total.
#
#   scripts/count_lines.sh            # from the repository root
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for crate in crates/*/; do
    name=$(basename "$crate")
    count=0
    while IFS= read -r -d '' file; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
                 /^[[:space:]]*$/ { next }
                 /^[[:space:]]*\/\// { next }
                 { n++ }
                 END { print n + 0 }' "$file")
        count=$((count + n))
    done < <(find "$crate/src" -name '*.rs' -print0)
    printf '%-16s %6d\n' "$name" "$count"
    total=$((total + count))
done
printf '%-16s %6d\n' total "$total"
