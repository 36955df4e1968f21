#!/usr/bin/env sh
# History replay: cedar-lint over twelve frozen trees of this repository.
#
# The taint interpreter and the flow rules get little real code to chew on
# in the current tree (it is clean), so their verdicts are pinned on the
# trees of twelve past commits instead, each linted with no allowlist. One
# line per tree: the commit, the findings per rule, and the `cksum` of the
# whole JSON document. The output is checked in as
# `crates/analyze/replay.txt`; a change to the rules that moves any verdict
# on any tree shows up as a diff there.
#
# Usage (from anywhere inside the repository; needs the full history):
#
#   cargo build --release -p cedar-analyze
#   sh crates/analyze/replay.sh > crates/analyze/replay.txt
#   git diff --exit-code crates/analyze/replay.txt
#
# The first argument, if given, is the cedar-lint binary to run (default:
# `target/release/cedar-lint` under the repository root).
set -eu

root=$(git rev-parse --show-toplevel)
lint=${1:-$root/target/release/cedar-lint}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for c in e52d68d a7713f9 c40ffd4 96f6e7b b7ee77b 4480b46 0f059f4 7a7d691 \
    87ef865 3042e54 efd9efa 6d14ae5; do
    mkdir "$work/$c"
    git -C "$root" archive "$c" | tar -x -C "$work/$c"
    # Exit status 1 means "findings", which is the point; 2 is an error.
    "$lint" --root "$work/$c" --allowlist /dev/null --format json \
        > "$work/$c.json" || [ $? -eq 1 ]
    counts=$(grep -o '"rule":"[a-z-]*"' "$work/$c.json" | cut -d'"' -f4 |
        sort | uniq -c | awk '{ printf " %s=%s", $2, $1 }')
    echo "$c$counts cksum=$(cksum < "$work/$c.json" | cut -d' ' -f1,2 | tr ' ' /)"
    rm -rf "$work/$c" "$work/$c.json"
done
