#!/usr/bin/env sh
# The CI gate, runnable locally. Mirrors .github/workflows/ci.yml.
set -eux

cargo build --release
cargo test -q --workspace
# Every target: tests, examples and benches as well as the libraries and
# bins, and once more with the loom shims the model-checked lanes build.
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p cedar-fsd --features loom --all-targets -- -D warnings
cargo fmt --check
# Rustdoc: every intra-doc link resolves, and no public doc links a
# private item.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo run --release -p cedar-analyze --bin cedar-lint -- --workspace
# The lint's verdicts on twelve frozen trees of this repository's history
# (every finding of every rule, as a checksum of the JSON) must not move.
sh crates/analyze/replay.sh > crates/analyze/replay.txt
git diff --exit-code crates/analyze/replay.txt
# Corrupted-image fuzz: random byte flips and label smashes over a live
# image must end in repair or a typed error — serial and 8-way
# parallel scavenge alike, never a panic — and the fuzz lane then edits
# the rotten image: whatever tree recovery lands takes a create and a
# delete, each ending Ok or typed, before verify runs.
cargo test -q -p cedar-fsd --test fuzz_corrupt
# Every script of the crash-sweep harness (crates/fsd/tests/support) once
# more, optimised: every crash point of one log append (append_sweep), of
# a restart that reads (restart_sweep), of one that laps the log it
# resumed, its owed images going home third by third (resumed_lap_sweep),
# of one that allocates, frees, walks and fills the volume
# (reserve_sweep), of a session that reuses the sectors of logged leaders
# (leader_sweep), of a hot name-table page through a log lap
# (hot_page_sweep), of the first create after a crash (deferred_vam), of
# a replica applying a frame, as a sync ship and as a promotion apply it
# (repl_sweep), and of crash_recovery's torn groups, home flush and
# recovery crashed inside itself, with the arithmetic and the inlining the
# bench bins and the benchmark run under. The debug lane above has
# already run them with overflow checks and debug assertions.
cargo test --release -q -p cedar-fsd --test append_sweep --test restart_sweep \
    --test resumed_lap_sweep --test reserve_sweep --test leader_sweep --test hot_page_sweep \
    --test repl_sweep --test crash_recovery
cargo test --release -q -p cedar-fsd --test deferred_vam \
    a_crash_while_owed_or_inside_the_first_create_owes_the_same_walk
# Model-checked epoch hand-off: the engine built against the in-tree
# loom shims, every interleaving within the preemption bound explored,
# its commit windows on model time. Read misses are served on the
# caller's thread under the volume lease: the models race them against
# a crashed force and against shutdown, and a sync-mode replicated
# create against a thread holding the shipper's lock: the ack never
# precedes the replica's apply. `--nocapture` lets each model's note
# through when a schedule cap truncates its search.
cargo test --release -p cedar-fsd --features loom --test loom_engine -- --nocapture
# ThreadSanitizer lane over the concurrent conformance suite. Needs a
# nightly toolchain with rust-src (for -Zbuild-std); skipped when the
# host has neither, since the container cannot install components.
if command -v rustup >/dev/null 2>&1 \
    && rustup toolchain list 2>/dev/null | grep -q nightly \
    && [ -d "$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library" ]; then
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target x86_64-unknown-linux-gnu \
        --release --test concurrent_conformance
else
    echo "tsan lane skipped: no nightly toolchain with rust-src"
fi
# Saturation (smoke): the full simulated §5.4 curve plus a reduced
# threaded sweep — throughput must climb and forces/op must fall. The
# simulated sweep is deterministic: the file it writes must be the one
# checked in (every window, backpressure and bulky settle shows in it).
cargo run --release -p cedar-bench --bin saturation -- --smoke
git diff --exit-code BENCH_saturation_sim.json
# Asserts scheduled submission (IoPolicy::Satf, shortest positioning
# time first) never regresses above the in-order baseline.
cargo run --release -p cedar-bench --bin io_sched -- --smoke
# The full run is deterministic and takes seconds: the file it writes
# must be the one checked in.
cargo run --release -p cedar-bench --bin io_sched
git diff --exit-code BENCH_io_sched.json
# The §5.6 allocator tables (size shares, fragmentation after churn under
# each policy) are pure functions of their seeds: every rotating first
# fit, nearest-the-cursor and from-the-end decision the ablation makes,
# and every file its split-area churn touches to move the cursor, shows
# in the file it prints.
cargo run --release -p cedar-bench --bin allocator > BENCH_allocator.txt
git diff --exit-code BENCH_allocator.txt
# The §5.4 group-commit tables (I/O reduction, record sizes, the commit
# interval x log size ablation) run on simulated clocks: every record a
# force cuts shows in the file it prints.
cargo run --release -p cedar-bench --bin group_commit > BENCH_group_commit.txt
git diff --exit-code BENCH_group_commit.txt
# Fault-injection campaign (reduced grid): every scenario must recover
# to a commit boundary, every escalation rung must be exercised, and
# the corrupt-block's rotten images must scavenge to a verifying tree.
cargo run --release -p cedar-bench --bin fault_campaign -- --smoke
# The full grid is deterministic and takes under a second: like
# io_sched's, the file it writes must be the one checked in.
cargo run --release -p cedar-bench --bin fault_campaign
git diff --exit-code BENCH_fault_campaign.json
# Scavenge & VAM-rebuild scaling (smoke): parallel and serial recovery
# scans must agree exactly on a small population.
cargo run --release -p cedar-bench --bin scavenge_scale -- --smoke
# The full run (about twenty seconds) is simulated time throughout:
# exact, not banded.
cargo run --release -p cedar-bench --bin scavenge_scale
git diff --exit-code BENCH_scavenge_scale.json
# Crash recovery (smoke): relations, not floors. Time to first read at
# 4000 files stays within 2.5x of that at 250 (boot follows the log, not
# the population) and so does time to first write, which scans no file
# at all (it is served from the restart reserve); full recovery at 4000
# files is at least 5x its own time to first read (the name-table walk
# boot defers is still paid and still measured) and is the scan, the
# settle and the walk and nothing more (the reserve costs it no write);
# the crash boot of an undamaged volume writes zero sectors; boot's
# share is strictly less than the whole of redo (the home writes have not
# crept back into boot); and the first write after the crash writes no
# name-table home (boot resumed the log, and neither fixture's first
# record enters a third).
cargo run --release -p cedar-bench --bin recovery -- --smoke
# The §6 model against the simulator: relations, not floors. A 1 MB
# file read whole must land within the paper's five percent of its
# script (one seek, one latency, one transfer, one copy) — it stops
# doing so the day whole-file reads go back to one request per buffer.
# So must the log force behind a small create (copy n sectors, one seek,
# one latency, 2n + 5 transfers) — it stops doing so the day the record
# is written out of platter order and the head waits for the end page.
cargo run --release -p cedar-bench --bin model_validation
# Log-shipping replication (smoke): per-mode ack/loss contracts — sync
# and semi-sync failovers lose nothing acknowledged, async stays within
# its lag bound, and both resync paths converge.
cargo run --release -p cedar-bench --bin replication -- --smoke
# The full run drives a primary and its `Shipper` on simulated clocks:
# exact as well.
# (BENCH_saturation_mt.json is threaded, host-timed, and not gated.)
cargo run --release -p cedar-bench --bin replication
git diff --exit-code BENCH_replication.json
# The repository's benchmark (BENCHMARK.json, benchmark/ — a package of
# its own): its harness tests against the crates as they are now, then
# every workload end to end. The smoke run exits non-zero if any op
# fails, any read returns other than the generated content, a final
# listing differs from the MemFs replay, or the emitted metric set is
# not the declared one.
cargo test -q --manifest-path benchmark/Cargo.toml --offline
bash benchmark/run.sh --smoke
