//! barrier-discipline and batch-io: commit-window ordering on the disk
//! scheduler paths.
//!
//! * **barrier-discipline**: in the configured commit fns, every
//!   `execute`/`execute_partial` that submits a batch must follow the
//!   batch's `barrier()` — the commit record must sit in its own
//!   post-barrier window (§4: the end pages are written only after the
//!   body windows are on disk). A `FlowSpec` on the wal-order walker,
//!   inside each fn's own body, with a may-join: a batch with one window
//!   needs no barrier, so `layout::write_replicas` puts its barrier in
//!   front of the second write only, in an `if` inside its loop, where a
//!   must-join would flag it.
//! * **batch-io**, a `Confinement`: inside the configured multi-sector
//!   commit/recovery fns, a raw disk call — direct (on the disk, or on a
//!   wrapper that is handed the disk, such as the remap-translating
//!   `spare.read_allow_damage(disk, ..)`), or via a plain same-crate
//!   callee that performs one — bypasses `cedar_disk::sched` batching
//!   (write barriers + scheduling). The deliberate copy-by-copy reader of
//!   replicated structures is listed in `batch_io_fallback_fns`.

use crate::config::Config;
use crate::{Analysis, Finding};

use super::walorder::{flow_check, FlowSpec};
use super::Confinement;

/// Runs both checks.
pub fn check(a: &Analysis<'_>) -> Vec<Finding> {
    let config = a.config;
    let mut out = flow_check(
        &a.cg,
        &FlowSpec {
            rule: "barrier-discipline",
            entry: &|f, def| Config::lists(&config.barrier_fns, &f.rel, &def.name),
            exempt_files: &[],
            establish: &[("batch", "barrier")],
            require: &["execute", "execute_partial"],
            opaque_fns: &[],
            must: false,
            direct: |_, args| {
                // The batch is the last plain-path argument
                // (`sched::execute(&mut disk, &batch)` → `batch`).
                let batch = args.iter().rev().find_map(|a| a.last_name());
                let batch = batch.unwrap_or_default();
                (
                    format!("execute({batch}) without barrier"),
                    format!(
                        "`IoBatch` `{batch}` is submitted with no `barrier()` \
                         before it: the commit record must be in its own \
                         post-barrier window (§4), or the disk may reorder it \
                         ahead of the data"
                    ),
                )
            },
            via_msg: None,
        },
    );
    let batch_io = Confinement {
        rule: "batch-io",
        scope: &|f, def| Config::lists(&config.batch_io_fns, &f.rel, &def.name),
        calls: &config.io_methods,
        on_disk: true,
        direct: |name| {
            (
                format!("disk.{name}()"),
                format!(
                    "raw `{name}` on a multi-sector commit/recovery path: \
                     submit through a `cedar_disk::sched` batch so write \
                     barriers and scheduling apply"
                ),
            )
        },
        fallbacks: &config.batch_io_fallback_fns,
        via: |name| {
            (
                format!("{name}() raw io"),
                format!(
                    "`{name}` performs raw sector I/O and is called on a \
                     multi-sector commit/recovery path: batch it through \
                     `cedar_disk::sched`, or list it as a deliberate \
                     fallback reader"
                ),
            )
        },
    };
    out.extend(batch_io.check(a));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn file(rel: &str, krate: &str, src: &str) -> SourceFile {
        SourceFile::parse(rel.into(), krate.into(), false, src)
    }

    fn run(files: Vec<SourceFile>) -> Vec<Finding> {
        check(&Analysis::new(&files, &Config::cedar()))
    }

    #[test]
    fn raw_io_on_batch_path_flagged() {
        let f = file(
            "crates/fsd/src/volume.rs",
            "fsd",
            "impl FsdVolume {\n  fn sync_home_all(&mut self) { self.disk.write(a, &b); }\n}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "batch-io");
        assert!(out[0].message.contains("sched"));
    }

    /// The loop the leader pass ran until it read its homes as one
    /// window: the disk goes in as an argument, not as the receiver.
    #[test]
    fn raw_io_through_a_wrapper_handed_the_disk_flagged() {
        let f = file(
            "crates/fsd/src/recovery.rs",
            "fsd",
            "fn redo_leaders(disk: &mut SimDisk, spare: &SpareMap) {\n  \
             for a in addrs { spare.read_allow_damage(disk, a, 1); }\n}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].snippet, "disk.read_allow_damage()");
    }

    #[test]
    fn raw_io_outside_batch_fns_in_same_file_clean() {
        let f = file(
            "crates/fsd/src/volume.rs",
            "fsd",
            "impl FsdVolume {\n  fn read_page(&mut self, s: u32) { self.disk.read(s, 1); }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn indirect_raw_io_via_same_crate_helper_flagged() {
        let f = file(
            "crates/fsd/src/recovery.rs",
            "fsd",
            "pub fn scan_phase(disk: &mut SimDisk) { probe_sector(disk); }\n\
             fn probe_sector(disk: &mut SimDisk) { disk.read(7, 1); }\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert!(out[0].snippet.contains("probe_sector"));
    }

    #[test]
    fn fallback_reader_exempt_from_indirect_check() {
        let f = file(
            "crates/fsd/src/recovery.rs",
            "fsd",
            "pub fn scan_phase(disk: &mut SimDisk) { read_replicated(disk); }\n\
             fn read_replicated(disk: &mut SimDisk) { disk.read(0, 1); }\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn single_sector_fallback_reader_clean() {
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn read_meta(&mut self, disk: &mut SimDisk) { disk.read(a, 1); }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn batch_path_in_unlisted_file_clean() {
        let f = file(
            "crates/cfs/src/volume.rs",
            "cfs",
            "impl CfsVolume {\n  fn force(&mut self) { self.disk.write(a, &b); }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn execute_without_barrier_flagged() {
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn append(&mut self, disk: &mut SimDisk) {\n\
               let mut batch = IoBatch::new();\n\
               batch.push(op);\n\
               sched::execute(disk, policy, &batch);\n\
             }\n}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "barrier-discipline");
        assert!(out[0].message.contains("post-barrier"));
    }

    #[test]
    fn batch_created_inside_a_loop_is_followed() {
        // The shape `Log::append` has had since its media-fault retry
        // loop: one batch per round, bound below the fn's top level.
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn append(&mut self, disk: &mut SimDisk) {\n\
               loop {\n\
                 let mut batch = IoBatch::new();\n\
                 batch.push(op);\n\
                 let r = sched::execute_partial(disk, policy, &batch);\n\
               }\n\
             }\n}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "barrier-discipline");
        assert_eq!(out[0].snippet, "execute(batch) without barrier");
    }

    #[test]
    fn execute_partial_without_barrier_flagged() {
        // The partial-success variant carries the same ordering
        // obligation as `execute`: skipping the barrier before the
        // commit window is a violation either way.
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn append(&mut self, disk: &mut SimDisk) {\n\
               let mut batch = IoBatch::new();\n\
               batch.push(op);\n\
               let r = sched::execute_partial(disk, policy, &batch);\n\
             }\n}\n",
        );
        let out = run(vec![f]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "barrier-discipline");
        assert!(out[0].snippet.contains("batch"));
    }

    #[test]
    fn execute_partial_after_barrier_clean() {
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn append(&mut self, disk: &mut SimDisk) {\n\
               let mut batch = IoBatch::new();\n\
               batch.push(op);\n\
               batch.barrier();\n\
               batch.push(end);\n\
               let r = sched::execute_partial(disk, policy, &batch);\n\
             }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn execute_after_barrier_clean() {
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn append(&mut self, disk: &mut SimDisk) {\n\
               let mut batch = IoBatch::new();\n\
               batch.push(op);\n\
               batch.barrier();\n\
               batch.push(end);\n\
               sched::execute(disk, policy, &batch);\n\
             }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    /// `layout::write_replicas`' shape: the barrier goes in front of the
    /// second write only, so it sits in an `if` inside the loop that
    /// pushes. Some path barriers the batch, which is the obligation.
    #[test]
    fn barrier_before_the_second_push_only_is_clean() {
        let f = file(
            "crates/fsd/src/layout.rs",
            "fsd",
            "pub(crate) fn write_replicas(disk: &mut SimDisk) {\n\
               let mut batch = IoBatch::new();\n\
               for at in targets {\n\
                 if !slots.is_empty() { batch.barrier(); }\n\
                 batch.push(at);\n\
               }\n\
               let r = sched::execute_partial(disk, policy, &batch);\n\
             }\n",
        );
        assert!(run(vec![f]).is_empty());
    }

    #[test]
    fn unconfigured_fn_may_skip_barrier() {
        // `write_meta` deliberately writes two identical replicas with no
        // barrier; only configured fns carry the obligation.
        let f = file(
            "crates/fsd/src/log.rs",
            "fsd",
            "impl Log {\n  fn write_meta(&mut self, disk: &mut SimDisk) {\n\
               let mut batch = IoBatch::new();\n\
               batch.push(op);\n\
               sched::execute(disk, policy, &batch);\n\
             }\n}\n",
        );
        assert!(run(vec![f]).is_empty());
    }
}
