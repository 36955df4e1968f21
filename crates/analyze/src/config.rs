//! Rule configuration: the workspace's layer map and rule scopes, as data.
//!
//! Everything repo-specific lives here so fixture tests can run the same
//! rules over synthetic workspaces.

use std::collections::BTreeMap;

/// A duplicated-constant pattern for the const-consistency rule.
#[derive(Clone, Debug)]
pub struct KnownConst {
    /// The literal value that must not be written out by hand.
    pub value: u128,
    /// The canonical constant to use instead.
    pub const_name: &'static str,
    /// Crates the rule applies in (empty = all crates).
    pub crates: Vec<&'static str>,
    /// Files allowed to spell the literal (the definition site).
    pub defining_files: Vec<&'static str>,
}

/// The argument of a sink call that steers it (`taint_sink_calls`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkArg {
    /// The argument at this index, counting from the first.
    Nth(usize),
    /// The argument this many places before the last (`Back(0)` is the
    /// last). Dropping a leading parameter does not move it, so call
    /// sites written before and after such a change name the same
    /// argument.
    Back(usize),
}

impl SinkArg {
    /// Whether argument `i` of a call passing `n` arguments is this one.
    pub(crate) fn is(self, i: usize, n: usize) -> bool {
        match self {
            SinkArg::Nth(p) => i == p,
            SinkArg::Back(p) => i + 1 + p == n,
        }
    }
}

/// Full rule configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// crate key -> workspace crates it may import (by `use` ident, e.g.
    /// `cedar_disk`). Crates absent from the map are unconstrained.
    pub allowed_imports: BTreeMap<&'static str, Vec<&'static str>>,
    /// Crates whose non-test code may perform raw sector I/O on a disk
    /// receiver.
    pub raw_io_crates: Vec<&'static str>,
    /// Method names that constitute raw sector I/O on a `…disk` receiver.
    pub io_methods: Vec<&'static str>,
    /// Batch-submission discipline: (file, functions) forming the
    /// multi-sector commit/recovery hot paths. A raw disk call inside one
    /// of these functions is a finding — those paths must submit through
    /// `cedar_disk::sched` batches so barriers and scheduling apply.
    /// The deliberate both-copies reader (`read_replicated`) is simply
    /// not listed.
    pub batch_io_fns: Vec<(&'static str, Vec<&'static str>)>,
    /// Files (by relative path) allowed to address log-region sectors.
    pub log_region_files: Vec<&'static str>,
    /// Identifier tokens that address the log region.
    pub log_region_idents: Vec<&'static str>,
    /// Crates covered by the panic-freedom ratchet.
    pub panic_crates: Vec<&'static str>,
    /// Crates covered by the cast-safety rule.
    pub cast_crates: Vec<&'static str>,
    /// Layout constants whose width-changing `as` casts are flagged
    /// (name, defining files where the cast is permitted).
    pub cast_const_idents: Vec<(&'static str, Vec<&'static str>)>,
    /// Duplicated-constant patterns.
    pub known_consts: Vec<KnownConst>,
    /// Method names that force/write on the commit path (used by the
    /// error-flow rule's must-handle set).
    pub force_methods: Vec<&'static str>,
    /// Crates whose `src/lib.rs` must carry `#![deny(unsafe_code)]`.
    pub deny_unsafe_crates: Vec<&'static str>,
    /// wal-order: files whose unrestricted-`pub` fns are the commit-unit
    /// entry points (the `FsdVolume` public API).
    pub wal_entry_files: Vec<&'static str>,
    /// wal-order: files exempt from the rule (recovery redoes home writes
    /// from the log itself, so it writes homes without a fresh append).
    pub wal_exempt_files: Vec<&'static str>,
    /// wal-order: (receiver name, method) pairs that append to the redo
    /// log — the events that establish write-ahead protection.
    pub wal_append_calls: Vec<(&'static str, &'static str)>,
    /// wal-order: free functions that write home/leader/name-table
    /// sectors — the events that require protection.
    pub wal_write_fns: Vec<&'static str>,
    /// repl-order: files whose `pub` fns seal replication frames (the
    /// `FsdVolume` commit path).
    pub repl_entry_files: Vec<&'static str>,
    /// repl-order: calls that seal a record-carrying frame for the
    /// shipper; each must be dominated by a `wal_append_calls` event.
    pub repl_seal_fns: Vec<&'static str>,
    /// repl-order: data-only seal helpers exempt from the domination
    /// rule (their frames carry no log records).
    pub repl_opaque_fns: Vec<&'static str>,
    /// repl-order: shipping-layer files where home-sector writes are
    /// forbidden — replica redo (`repl/replica.rs`) is the only writer.
    pub repl_ship_files: Vec<&'static str>,
    /// repl-order: write calls forbidden in the shipping layer.
    pub repl_write_fns: Vec<&'static str>,
    /// barrier-discipline: (file, functions) where every `IoBatch` that is
    /// executed must have called `barrier()` first (commit-record writes
    /// go in the post-barrier window).
    pub barrier_fns: Vec<(&'static str, Vec<&'static str>)>,
    /// batch-io: callees that deliberately read copy by copy (the one
    /// reader of replicated structures), exempt from the indirect
    /// raw-I/O check.
    pub batch_io_fallback_fns: Vec<&'static str>,
    /// error-flow: files forming the force/flush/recovery paths where
    /// `Result` values must not be silently discarded.
    pub error_flow_files: Vec<&'static str>,
    /// error-flow: (file, functions) that probe replicas / torn records
    /// and legitimately treat errors as data; exempt from the rule.
    pub error_flow_fallback_fns: Vec<(&'static str, Vec<&'static str>)>,
    /// error-flow: method names (beyond `io_methods`/`force_methods`)
    /// whose `Result` must be handled on those paths.
    pub error_must_handle: Vec<&'static str>,
    /// error-flow: error-type idents whose variants a catch-all match arm
    /// must not swallow.
    pub error_type_idents: Vec<&'static str>,
    /// concurrency: files forming the threaded engine, where the
    /// guard-across-blocking-call check applies (lock-order cycles are
    /// checked workspace-wide).
    pub concurrency_files: Vec<&'static str>,
    /// concurrency: blocking method names a guard must not be live
    /// across, directly or anywhere in the callee chain. Distinct from
    /// `force_methods`: that list includes `write`, which collides with
    /// `RwLock::write` in the engine.
    pub blocking_methods: Vec<&'static str>,
    /// concurrency: free functions that acquire and return a lock guard
    /// (the engine's poison-recovering `plock`). Their own bodies are not
    /// summarized — the lock is named by the call-site argument.
    pub lock_acquire_fns: Vec<&'static str>,
    /// concurrency: leading receiver segments stripped when naming a lock
    /// (`self.shared.signal` and `shared.signal` are the same lock).
    pub lock_root_segs: Vec<&'static str>,
    /// concurrency: shared structs to verify with the field access
    /// matrix — (defining file, struct name, plain fields exempted with a
    /// documented reason). Every other field must be a `Mutex`/`RwLock`
    /// (touched only to lock it), an atomic (touched only through its
    /// methods), an `Arc` (clone/deref is safe), or a sync object.
    pub shared_structs: Vec<(&'static str, &'static str, Vec<&'static str>)>,
    /// concurrency: field types with interior synchronization beyond the
    /// lock/atomic wrappers (safe to touch from any thread).
    pub sync_types: Vec<&'static str>,
    /// concurrency: atomic fields that publish state before a wake —
    /// stores need `Release`/`AcqRel`/`SeqCst`, loads need
    /// `Acquire`/`SeqCst`.
    pub publish_atomics: Vec<&'static str>,
    /// concurrency: types owned by the writer thread; a function with a
    /// parameter naming one must be unreachable from client entry points.
    pub owned_types: Vec<&'static str>,
    /// concurrency: (file, type) whose methods are client-thread entry
    /// points for the role-reachability check.
    pub client_entry_owners: Vec<(&'static str, &'static str)>,
    /// concurrency: lifecycle methods exempt from role reachability —
    /// they run before the writer thread starts or after it is joined.
    pub role_setup_fns: Vec<&'static str>,
    /// taint: files forming the recovery trust boundary — the only files
    /// where taint findings are *emitted* (summaries are computed
    /// workspace-wide so flows through shared helpers still resolve).
    pub taint_files: Vec<&'static str>,
    /// taint: call names whose results are raw on-disk bytes or values
    /// decoded from them (the taint sources). Listed by last path
    /// segment; resolution-independent so taint survives plumbing the
    /// call graph cannot see (buffers, channels).
    pub taint_source_calls: Vec<&'static str>,
    /// taint: method/fn names whose *result* is safe regardless of the
    /// receiver (bounded accessors, checked conversions, in-memory
    /// lengths). `retain` additionally sanitizes its receiver in place.
    pub taint_sanitizer_methods: Vec<&'static str>,
    /// taint: validator functions — a call sanitizes the receiver and
    /// every argument (`runs_sane(layout, &entry)` vouches for `entry`;
    /// `meta.validate(log_size)` vouches for `meta`). The rule trusts
    /// the callee to reject out-of-range values with a typed error.
    pub taint_validator_calls: Vec<&'static str>,
    /// taint: sink calls — panic-prone or region-critical operations a
    /// tainted value must never steer. The second element is the
    /// dangerous argument; for `write_checked` only the address (arg 0)
    /// matters — writing tainted *bytes* to a validated address is
    /// exactly what redo does.
    pub taint_sink_calls: Vec<(&'static str, SinkArg)>,
    /// taint: mutating collection methods that taint their receiver when
    /// the *first* argument is tainted. First-argument-only encodes the
    /// control/data split: `map.insert(addr, img)` taints the map only
    /// if the key (an address that will steer I/O) is tainted, not when
    /// merely the payload bytes are.
    pub taint_collect_methods: Vec<&'static str>,
    /// decode-coverage: (defining file, type, field) triples naming
    /// on-disk struct fields that steer recovery. Each must be mentioned
    /// inside a validator fn body or sit adjacent to a comparison /
    /// sanitizer method somewhere in library code. A triple whose
    /// defining file or type is absent from the scanned tree is skipped
    /// (fixture workspaces stay independent).
    pub decode_fields: Vec<(&'static str, &'static str, &'static str)>,
}

impl Config {
    /// True when a (file, fns) list such as `batch_io_fns` names `name`
    /// under the file `rel`.
    pub fn lists(fns: &[(&str, Vec<&str>)], rel: &str, name: &str) -> bool {
        fns.iter()
            .any(|(f, names)| *f == rel && names.contains(&name))
    }

    /// The Cedar workspace's configuration.
    pub fn cedar() -> Self {
        let mut allowed_imports: BTreeMap<&'static str, Vec<&'static str>> = BTreeMap::new();
        // The layer cake, bottom to top. A crate may import strictly
        // lower layers; `bench`, the CLI and the facade go through the
        // `FileSystem` trait for file operations (enforced separately by
        // the raw-I/O check) but may name lower crates for setup.
        // `loom` is in-tree: `disk`'s scan channel model-checks against
        // its shims under `--features loom`.
        allowed_imports.insert("disk", vec!["loom"]);
        allowed_imports.insert("btree", vec![]);
        allowed_imports.insert("proptest", vec![]);
        allowed_imports.insert("loom", vec![]);
        allowed_imports.insert("analyze", vec![]);
        allowed_imports.insert("vol", vec!["cedar_disk"]);
        allowed_imports.insert("model", vec!["cedar_disk"]);
        allowed_imports.insert("cfs", vec!["cedar_disk", "cedar_vol", "cedar_btree"]);
        // `loom` is the in-tree model checker: the engine's sync module
        // re-exports its shims under `--features loom`.
        allowed_imports.insert(
            "fsd",
            vec!["cedar_disk", "cedar_vol", "cedar_btree", "loom"],
        );
        allowed_imports.insert("ffs", vec!["cedar_disk", "cedar_vol"]);
        allowed_imports.insert("workload", vec!["cedar_disk", "cedar_vol"]);
        allowed_imports.insert(
            "bench",
            vec![
                "cedar_disk",
                "cedar_vol",
                "cedar_cfs",
                "cedar_fsd",
                "cedar_ffs",
                "cedar_model",
                "cedar_workload",
            ],
        );
        allowed_imports.insert(
            "root",
            vec![
                "cedar_disk",
                "cedar_btree",
                "cedar_vol",
                "cedar_cfs",
                "cedar_fsd",
                "cedar_ffs",
                "cedar_model",
                "cedar_workload",
                "cedar_fs_repro",
            ],
        );
        Self {
            allowed_imports,
            raw_io_crates: vec!["disk", "btree", "vol", "cfs", "fsd", "ffs"],
            io_methods: vec![
                "read",
                "write",
                "read_checked",
                "write_checked",
                "write_with_labels",
                "read_allow_damage",
                "read_labels",
                "write_labels",
            ],
            batch_io_fns: vec![
                ("crates/fsd/src/log.rs", vec!["append", "write_meta"]),
                (
                    "crates/fsd/src/volume.rs",
                    // `force` includes the third-entry writeback: the
                    // closure it hands `Log::append`.
                    vec![
                        "force",
                        "collect_home_writes",
                        "sync_home_all",
                        "write_boot_pages",
                        "save_vam_and_mark_valid",
                    ],
                ),
                // The whole of redo: the scan boot runs, the settle the
                // first write pays, and the leader pass inside it.
                (
                    "crates/fsd/src/recovery.rs",
                    vec!["scan_phase", "pay_redo", "redo_leaders"],
                ),
            ],
            log_region_files: vec![
                "crates/fsd/src/log.rs",
                "crates/fsd/src/recovery.rs",
                "crates/fsd/src/layout.rs",
            ],
            log_region_idents: vec!["log_start", "log_sectors"],
            panic_crates: vec!["disk", "btree", "vol", "cfs", "fsd", "ffs", "analyze"],
            cast_crates: vec!["disk", "btree", "vol", "cfs", "fsd", "ffs"],
            cast_const_idents: vec![
                ("SECTOR_BYTES", vec!["crates/disk/src/lib.rs"]),
                ("BLOCK_SECTORS", vec!["crates/ffs/src/lib.rs"]),
                ("INODES_PER_BLOCK", vec!["crates/ffs/src/layout.rs"]),
                ("INODE_BYTES", vec!["crates/ffs/src/lib.rs"]),
            ],
            known_consts: vec![
                KnownConst {
                    value: 512,
                    const_name: "cedar_disk::SECTOR_BYTES",
                    // The analyzer and the proptest shim legitimately spell
                    // 512 (this table, shrink budgets); everything that
                    // touches sectors must use the constant.
                    crates: vec![
                        "disk", "btree", "vol", "cfs", "fsd", "ffs", "model", "workload", "bench",
                        "root",
                    ],
                    defining_files: vec!["crates/disk/src/lib.rs"],
                },
                KnownConst {
                    value: 1024,
                    const_name: "cedar_ffs::BLOCK_BYTES",
                    crates: vec!["ffs"],
                    defining_files: vec!["crates/ffs/src/lib.rs"],
                },
                KnownConst {
                    value: 128,
                    const_name: "cedar_ffs::INODE_BYTES",
                    crates: vec!["ffs"],
                    defining_files: vec!["crates/ffs/src/lib.rs"],
                },
            ],
            force_methods: vec![
                "write",
                "write_checked",
                "write_with_labels",
                "write_labels",
                "force",
                "append",
                "write_meta",
            ],
            deny_unsafe_crates: vec![
                "disk", "btree", "vol", "cfs", "fsd", "ffs", "model", "workload", "bench",
                "proptest", "analyze", "loom", "root",
            ],
            wal_entry_files: vec!["crates/fsd/src/volume.rs"],
            // Recovery and scavenge rebuild home sectors from the log (or
            // from leader pages) — by construction they run before any new
            // WAL records exist, so the write-ahead obligation does not
            // apply to them.
            wal_exempt_files: vec!["crates/fsd/src/recovery.rs", "crates/fsd/src/scavenge.rs"],
            wal_append_calls: vec![("log", "append")],
            wal_write_fns: vec!["write_home_batch"],
            repl_entry_files: vec!["crates/fsd/src/volume.rs"],
            repl_seal_fns: vec!["seal_repl_frame"],
            // The data-only frame replicates unlogged data-page writes
            // (§5.2 writes them direct-to-disk); it carries no records,
            // so there is no append for it to follow.
            repl_opaque_fns: vec!["seal_repl_data_frame"],
            repl_ship_files: vec![
                "crates/fsd/src/repl/mod.rs",
                "crates/fsd/src/repl/session.rs",
            ],
            repl_write_fns: vec![
                "write",
                "write_checked",
                "write_with_labels",
                "write_labels",
                "write_home_batch",
                "redo_leaders",
            ],
            barrier_fns: vec![
                ("crates/fsd/src/log.rs", vec!["append"]),
                ("crates/fsd/src/layout.rs", vec!["write_replicas"]),
            ],
            // The thin per-structure readers (`read_boot_page`,
            // `Log::read_meta`, `read_saved_vam`, `read_through`) no
            // longer touch the disk themselves.
            batch_io_fallback_fns: vec!["read_replicated"],
            error_flow_files: vec![
                "crates/fsd/src/log.rs",
                "crates/fsd/src/volume.rs",
                "crates/fsd/src/recovery.rs",
                "crates/fsd/src/sched.rs",
                "crates/fsd/src/engine.rs",
                "crates/fsd/src/spare.rs",
                "crates/fsd/src/scavenge.rs",
                "crates/disk/src/sched.rs",
                "crates/disk/src/scan.rs",
            ],
            error_flow_fallback_fns: vec![
                // `decode_record` is the one reader of a log record; the
                // scan's `read_record_at`, which held that decoding until
                // it moved out, still takes its "not here" as data.
                (
                    "crates/fsd/src/log.rs",
                    vec![
                        "read_meta",
                        "read_record_at",
                        "decode_record",
                        "scan_records",
                    ],
                ),
                // `note_failed_settle` notes a failed settle on the boot
                // page best effort: the caller gets the settle's error
                // either way, and if the note does not land the next
                // session's settle fails on the same sector and writes
                // it again.
                (
                    "crates/fsd/src/recovery.rs",
                    vec![
                        "read_boot_page",
                        "read_saved_vam",
                        "redo_leaders",
                        "note_failed_settle",
                    ],
                ),
                // The scavenger is a deliberate best-effort reader: it
                // salvages what it can from damaged media and records the
                // rest as losses, so swallowed per-sector errors are the
                // point, not a bug.
                (
                    "crates/fsd/src/scavenge.rs",
                    vec!["scan_leaders", "old_boot_hint"],
                ),
                // Engine teardown joins the log-writer best-effort; a
                // panicked writer already poisoned the engine, so the
                // join result adds nothing.
                ("crates/fsd/src/engine.rs", vec!["drop"]),
            ],
            error_must_handle: vec!["execute", "execute_partial"],
            error_type_idents: vec!["DiskError", "FsdError"],
            concurrency_files: vec![
                "crates/fsd/src/engine.rs",
                "crates/fsd/src/sched.rs",
                "crates/fsd/src/scavenge.rs",
            ],
            blocking_methods: vec![
                "wait",
                "wait_timeout",
                "wait_while",
                "recv",
                "recv_timeout",
                "join",
                "force",
            ],
            lock_acquire_fns: vec!["plock"],
            lock_root_segs: vec!["self", "shared"],
            shared_structs: vec![
                ("crates/fsd/src/engine.rs", "EngineShared", vec![]),
                ("crates/fsd/src/engine.rs", "Slot", vec![]),
                ("crates/fsd/src/engine.rs", "FsdEngine", vec![]),
            ],
            sync_types: vec!["Condvar"],
            publish_atomics: vec!["epoch"],
            owned_types: vec!["FsdVolume"],
            client_entry_owners: vec![("crates/fsd/src/engine.rs", "FsdEngine")],
            role_setup_fns: vec![
                "start",
                "start_replicated",
                "start_inner",
                "shutdown",
                "shutdown_arc",
                "shutdown_replicated",
                "stop_writer",
                "drop",
            ],
            taint_files: vec![
                "crates/fsd/src/recovery.rs",
                "crates/fsd/src/scavenge.rs",
                "crates/fsd/src/log.rs",
                "crates/fsd/src/spare.rs",
                "crates/fsd/src/cache.rs",
                "crates/cfs/src/scavenge.rs",
            ],
            taint_source_calls: vec![
                "read_allow_damage",
                "read_labels",
                "into_data_mask",
                "into_labels",
                "read_chunks",
                "recv",
                "decode",
                "decode_header",
                "decode_end",
                "read_meta",
            ],
            taint_sanitizer_methods: vec![
                "retain", "min", "clamp", "len", "is_empty", "sectors", "count", "get", "try_from",
                "try_into", "position",
            ],
            taint_validator_calls: vec!["runs_sane", "validate", "check_range"],
            taint_sink_calls: vec![
                // Layout address math asserts on out-of-range pages.
                ("nt_a_sector", SinkArg::Nth(0)),
                ("nt_b_sector", SinkArg::Nth(0)),
                ("nt_pair", SinkArg::Nth(0)),
                // VAM bitmap ops panic on out-of-range sectors.
                ("allocate_run", SinkArg::Nth(0)),
                ("free_run", SinkArg::Nth(0)),
                // Allocation sized by a tainted length is an OOM.
                ("with_capacity", SinkArg::Nth(0)),
                ("resize", SinkArg::Nth(0)),
                ("copy_from_slice", SinkArg::Nth(0)),
                // Address-steered I/O: the batch/map carries the targets.
                // Counted from the end, the batch and the pair are the
                // same argument whether or not the call still passes the
                // scheduling policy ahead of them, as older trees do.
                ("write_checked", SinkArg::Nth(0)),
                ("write_home_batch", SinkArg::Back(0)),
                ("scrub_batch", SinkArg::Back(0)),
                ("redo_leaders", SinkArg::Nth(3)),
                // The pair steers two reads and the scrub between them.
                ("read_replicated", SinkArg::Back(2)),
                ("read_allow_damage", SinkArg::Nth(1)),
                ("with_entries", SinkArg::Nth(1)),
                ("execute", SinkArg::Back(0)),
                ("execute_partial", SinkArg::Back(0)),
            ],
            taint_collect_methods: vec![
                "insert",
                "push",
                "push_back",
                "extend",
                "extend_from_slice",
                "append",
                "send",
            ],
            decode_fields: vec![
                ("crates/fsd/src/log.rs", "LogMeta", "oldest_offset"),
                ("crates/fsd/src/log.rs", "PageTarget", "page"),
                ("crates/fsd/src/log.rs", "PageTarget", "sector"),
                ("crates/fsd/src/log.rs", "PageTarget", "addr"),
                ("crates/fsd/src/log.rs", "LogRecord", "reallocated"),
                ("crates/fsd/src/layout.rs", "FsdBootPage", "spare_map"),
                ("crates/fsd/src/layout.rs", "FsdBootPage", "reserve"),
                ("crates/fsd/src/entry.rs", "FileEntry", "leader_addr"),
                ("crates/fsd/src/entry.rs", "FileEntry", "run_table"),
                ("crates/cfs/src/header.rs", "FileHeader", "byte_size"),
                ("crates/cfs/src/header.rs", "FileHeader", "run_table"),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cedar_config_is_coherent() {
        let c = Config::cedar();
        // Every raw-I/O crate is a known crate in the import map.
        for k in &c.raw_io_crates {
            assert!(c.allowed_imports.contains_key(k), "{k} missing");
        }
        // The log module itself must be allowed to address the log.
        assert!(c.log_region_files.contains(&"crates/fsd/src/log.rs"));
        // The checker lints itself.
        assert!(c.panic_crates.contains(&"analyze"));
        assert!(c.deny_unsafe_crates.contains(&"analyze"));
    }
}
