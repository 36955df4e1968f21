//! Workload steps and the replay loop.
//!
//! A workload is pure data — a vector of [`Step`]s — replayed against
//! any backend through the shared-reference [`FileSystem`] trait
//! (`cedar_vol::fs`), so one generated script drives CFS, FSD, and FFS
//! identically — from one thread or many (the replay loop takes
//! `&dyn FileSystem`, so N threads can replay disjoint scripts against
//! one service concurrently).

use cedar_vol::fs::{CedarFsError, FileSystem, FsBackend};

/// One step of a replayable workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Create a file of the given size (content is generated
    /// deterministically from the name).
    Create {
        /// File name (path-like).
        name: String,
        /// Size in bytes.
        bytes: u64,
    },
    /// Open a file and read all of it.
    Read {
        /// File name.
        name: String,
    },
    /// Open a file without reading (property access / cache touch).
    Touch {
        /// File name.
        name: String,
    },
    /// Delete a file.
    Delete {
        /// File name.
        name: String,
    },
    /// List a directory (by name prefix) with properties.
    List {
        /// Directory prefix.
        prefix: String,
    },
}

impl Step {
    /// Rewrites the step to live under `prefix/` — how one script is
    /// stamped out per client in the multi-client workload.
    pub fn prefixed(&self, prefix: &str) -> Step {
        let p = |n: &str| format!("{prefix}/{n}");
        match self {
            Step::Create { name, bytes } => Step::Create {
                name: p(name),
                bytes: *bytes,
            },
            Step::Read { name } => Step::Read { name: p(name) },
            Step::Touch { name } => Step::Touch { name: p(name) },
            Step::Delete { name } => Step::Delete { name: p(name) },
            Step::List { prefix: pre } => Step::List { prefix: p(pre) },
        }
    }
}

/// Aggregate results of a workload run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Steps executed.
    pub steps: u64,
    /// Bytes written via creates.
    pub bytes_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Entries returned by lists.
    pub listed: u64,
}

impl WorkloadStats {
    /// Accumulates another run's totals into this one.
    pub fn absorb(&mut self, other: &WorkloadStats) {
        self.steps += other.steps;
        self.bytes_written += other.bytes_written;
        self.bytes_read += other.bytes_read;
        self.listed += other.listed;
    }
}

/// Deterministic file content derived from the name (verifiable on read).
pub fn content_for(name: &str, bytes: u64) -> Vec<u8> {
    let seed = name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    });
    (0..bytes)
        .map(|i| (seed.wrapping_add(i).wrapping_mul(0x9E3779B97F4A7C15) >> 56) as u8)
        .collect()
}

/// Executes a single step, folding its effect into `stats`.
pub fn run_step(
    step: &Step,
    fs: &dyn FileSystem,
    stats: &mut WorkloadStats,
) -> Result<(), CedarFsError> {
    stats.steps += 1;
    match step {
        Step::Create { name, bytes } => {
            let data = content_for(name, *bytes);
            fs.create(name, &data)?;
            stats.bytes_written += bytes;
        }
        Step::Read { name } => {
            stats.bytes_read += fs.read(name)?.len() as u64;
        }
        Step::Touch { name } => {
            fs.open(name)?;
        }
        Step::Delete { name } => fs.delete(name)?,
        Step::List { prefix } => {
            stats.listed += fs.list(prefix)?.len() as u64;
        }
    }
    Ok(())
}

/// Replays a workload against a file system.
pub fn run(steps: &[Step], fs: &dyn FileSystem) -> Result<WorkloadStats, CedarFsError> {
    let mut stats = WorkloadStats::default();
    for step in steps {
        run_step(step, fs, &mut stats)?;
    }
    Ok(stats)
}

/// Executes a single step against an exclusively-held backend (for
/// single-owner callers — fault-injection drivers, population phases —
/// that hold a raw volume rather than a shared service).
pub fn run_step_backend(
    step: &Step,
    fs: &mut dyn FsBackend,
    stats: &mut WorkloadStats,
) -> Result<(), CedarFsError> {
    stats.steps += 1;
    match step {
        Step::Create { name, bytes } => {
            let data = content_for(name, *bytes);
            fs.create(name, &data)?;
            stats.bytes_written += bytes;
        }
        Step::Read { name } => {
            stats.bytes_read += fs.read(name)?.len() as u64;
        }
        Step::Touch { name } => {
            fs.open(name)?;
        }
        Step::Delete { name } => fs.delete(name)?,
        Step::List { prefix } => {
            stats.listed += fs.list(prefix)?.len() as u64;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memfs::MemFs;
    use cedar_vol::fs::SyncFs;

    #[test]
    fn replay_accumulates_stats() {
        let steps = vec![
            Step::Create {
                name: "d/a".into(),
                bytes: 100,
            },
            Step::Create {
                name: "d/b".into(),
                bytes: 50,
            },
            Step::Read { name: "d/a".into() },
            Step::List {
                prefix: "d/".into(),
            },
            Step::Delete { name: "d/b".into() },
        ];
        let fs = SyncFs::new(MemFs::default());
        let stats = run(&steps, &fs).unwrap();
        assert_eq!(stats.steps, 5);
        assert_eq!(stats.bytes_written, 150);
        assert_eq!(stats.bytes_read, 100);
        assert_eq!(stats.listed, 2);
        assert_eq!(fs.list("d/").unwrap().len(), 1);
    }

    #[test]
    fn content_is_deterministic_and_name_dependent() {
        assert_eq!(content_for("x", 32), content_for("x", 32));
        assert_ne!(content_for("x", 32), content_for("y", 32));
        assert_eq!(content_for("x", 0).len(), 0);
    }

    #[test]
    fn replay_propagates_errors() {
        let steps = vec![Step::Read {
            name: "absent".into(),
        }];
        assert!(run(&steps, &SyncFs::new(MemFs::default())).is_err());
    }

    #[test]
    fn prefixing_rewrites_every_name() {
        let s = Step::Create {
            name: "pkg/a".into(),
            bytes: 1,
        };
        assert_eq!(
            s.prefixed("c07"),
            Step::Create {
                name: "c07/pkg/a".into(),
                bytes: 1
            }
        );
        let l = Step::List {
            prefix: "pkg/".into(),
        };
        assert_eq!(
            l.prefixed("c07"),
            Step::List {
                prefix: "c07/pkg/".into()
            }
        );
    }
}
