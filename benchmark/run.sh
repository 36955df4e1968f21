#!/usr/bin/env bash
# Builds the benchmark offline and runs it from the root of the checkout.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in this process; the last line of standard output
#       is the result object BENCHMARK.json's contract asks for.
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--out FILE]
#       every workload, untraced and traced, one process each; prints
#       every declared metric and writes the combined results file that
#       compare.sh reads.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# One CPU for the whole process (the last one this shell may use): with
# the client threads and the engine's log writer on two vCPUs, throughput
# depends on what a cross-CPU wake-up costs the hypervisor that minute.
# On one CPU the host pass measures CPU time per op, which repeats.
run=("$CARGO_TARGET_DIR/release/cedar-benchmark" "$@")
if cpus=$(taskset -cp $$ 2>/dev/null); then
    cpu=${cpus##*[:,-]}
    run=(taskset -c "${cpu// /}" "${run[@]}")
fi
exec "${run[@]}"
