//! Running one generated op against any `FileSystem` and checking the
//! answer, and the `MemFs` model a pass's final listing is compared with.

use crate::gen::Op;
use cedar_vol::fs::{CedarFsError, FileInfo, FileSystem, FsBackend};
use cedar_workload::steps::content_for;
use cedar_workload::{MemFs, Step};
use std::time::Instant;

/// The five verbs of the `FileSystem` trait a workload uses, in the
/// order per-verb tables are indexed.
pub const VERBS: [&str; 5] = ["create", "open", "read", "delete", "list"];

/// Index of `step`'s verb in [`VERBS`].
pub fn verb(step: &Step) -> usize {
    match step {
        Step::Create { .. } => 0,
        Step::Touch { .. } => 1,
        Step::Read { .. } => 2,
        Step::Delete { .. } => 3,
        Step::List { .. } => 4,
    }
}

/// Whether the verb changes the volume (and, under the engine, waits for
/// a force).
pub fn is_write(step: &Step) -> bool {
    matches!(step, Step::Create { .. } | Step::Delete { .. })
}

/// What one successful op did: user bytes moved, and when the trait call
/// itself began and ended (generating and checking contents is the
/// harness's time, not the system's, and lies outside that interval).
#[derive(Clone, Copy, Debug)]
pub struct Done {
    pub created: u64,
    pub read: u64,
    pub began: Instant,
    pub ended: Instant,
}

impl Done {
    pub fn bytes(&self) -> u64 {
        self.created + self.read
    }

    pub fn call_ns(&self) -> u64 {
        self.ended.duration_since(self.began).as_nanos() as u64
    }
}

/// Runs `op` and checks what came back: a read must return exactly
/// `content_for` the name at the expected length, an open the expected
/// length, a listing sorted names under its prefix. Any error, refusal
/// or mismatch is a failed op.
pub fn execute(fs: &dyn FileSystem, op: &Op) -> Result<Done, String> {
    let fail = |e: CedarFsError| format!("{} {}: {e}", VERBS[verb(&op.step)], name_of(&op.step));
    let (mut created, mut read) = (0, 0);
    let (began, ended);
    match &op.step {
        Step::Create { name, bytes } => {
            let data = content_for(name, *bytes);
            began = Instant::now();
            let info = fs.create(name, &data);
            ended = Instant::now();
            let info = info.map_err(fail)?;
            if info.bytes != *bytes {
                return Err(format!("create {name}: {} bytes, not {bytes}", info.bytes));
            }
            created = *bytes;
        }
        Step::Read { name } => {
            began = Instant::now();
            let data = fs.read(name);
            ended = Instant::now();
            if data.map_err(fail)? != content_for(name, op.expect) {
                return Err(format!("read {name}: wrong contents"));
            }
            read = op.expect;
        }
        Step::Touch { name } => {
            began = Instant::now();
            let info = fs.open(name);
            ended = Instant::now();
            let info = info.map_err(fail)?;
            if info.bytes != op.expect {
                return Err(format!(
                    "open {name}: {} bytes, not {}",
                    info.bytes, op.expect
                ));
            }
        }
        Step::Delete { name } => {
            began = Instant::now();
            let gone = fs.delete(name);
            ended = Instant::now();
            gone.map_err(fail)?;
        }
        Step::List { prefix } => {
            began = Instant::now();
            let listing = fs.list(prefix);
            ended = Instant::now();
            let listing = listing.map_err(fail)?;
            let ordered = listing.windows(2).all(|w| w[0].name < w[1].name);
            if !ordered || listing.iter().any(|i| !i.name.starts_with(prefix.as_str())) {
                return Err(format!("list {prefix}: unsorted or foreign names"));
            }
        }
    }
    Ok(Done {
        created,
        read,
        began,
        ended,
    })
}

/// The name (or prefix) a step acts on.
pub fn name_of(step: &Step) -> &str {
    match step {
        Step::Create { name, .. }
        | Step::Read { name }
        | Step::Touch { name }
        | Step::Delete { name } => name,
        Step::List { prefix } => prefix,
    }
}

/// Applies `steps` to the model. Only names, versions and lengths are
/// compared, so the model is fed zeros of the right length instead of
/// regenerating every file's contents.
pub fn replay_into(model: &mut MemFs, steps: impl IntoIterator<Item = Step>) {
    let mut zeros = Vec::new();
    for step in steps {
        // The generators only delete what exists and the model has no
        // other way to fail, so a model error is a generator bug that the
        // listing comparison will report.
        let _ = match step {
            Step::Create { name, bytes } => {
                let bytes = bytes as usize;
                if zeros.len() < bytes {
                    zeros.resize(bytes, 0u8);
                }
                model.create(&name, &zeros[..bytes]).map(drop)
            }
            Step::Delete { name } => model.delete(&name),
            Step::Read { .. } | Step::Touch { .. } | Step::List { .. } => Ok(()),
        };
    }
}

/// The model's full listing.
pub fn model_listing(model: &mut MemFs) -> Vec<FileInfo> {
    model.list("").expect("MemFs::list cannot fail")
}

/// Number of names on which two sorted listings disagree (missing on
/// either side, or different version or length).
pub fn listing_mismatches(expected: &[FileInfo], found: &[FileInfo]) -> u64 {
    let (mut i, mut j, mut bad) = (0, 0, 0);
    while i < expected.len() && j < found.len() {
        match expected[i].name.cmp(&found[j].name) {
            std::cmp::Ordering::Less => {
                bad += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                bad += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                bad += u64::from(expected[i] != found[j]);
                i += 1;
                j += 1;
            }
        }
    }
    bad + (expected.len() - i) as u64 + (found.len() - j) as u64
}
