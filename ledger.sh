#!/usr/bin/env sh
# The non-test lines of every Rust file under the given paths: the lines
# ahead of the file's first `#[cfg(test)]` (all of them when it has none),
# one file a line, then their total. Run from the repository root:
#
#     sh ledger.sh crates/fsd/src/log.rs crates/fsd/src/repl
#
# Paths may be files or directories; files are listed in sorted order.
set -eu
if [ "$#" -eq 0 ]; then
    echo "usage: sh ledger.sh PATH..." >&2
    exit 2
fi
find "$@" -type f -name '*.rs' | LC_ALL=C sort | while IFS= read -r file; do
    awk '/^[ \t]*#\[cfg\(test\)\]/ { exit } { n++ } END { printf "%6d %s\n", n, FILENAME }' "$file"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
