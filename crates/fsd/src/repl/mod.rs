//! Log-shipping replication.
//!
//! The paper's physical redo log is a complete, self-describing record of
//! every committed *metadata* change — which makes it a replication
//! stream for free. But FSD writes file **data** pages synchronously,
//! direct to disk, and never logs them (§5.2), so a faithful replication
//! stream must carry two currents:
//!
//! * the sealed log records of each group commit (name-table sectors
//!   and leader images), the very bytes `Log::append` wrote, in their
//!   `2n + 5` on-disk form, with the log offset it wrote them at; and
//! * every other sector write since the previous commit (file data,
//!   home writes, the log meta), drained from the
//!   [`cedar_disk::SimDisk`] write journal.
//!
//! One successful [`crate::FsdVolume::force`] seals one [`ReplFrame`]
//! holding both. Frames are strictly ordered by id; the replica takes
//! each record by the boot scan's own rule, checks a frame whole before
//! it writes any of it, writes it as the primary's disk took it, log
//! record last, and refuses gaps, which is what makes the catch-up
//! resync protocol ([`Shipper::resync`]) sound.
//!
//! Three acknowledgement modes ([`ReplMode`]) trade ack latency against
//! loss on failover; their contract table is DESIGN.md's "Replication
//! and failover", the one place it is written.
//!
//! Module map: [`replica`] is the receiving volume;
//! [`session`] holds the [`Shipper`], the one implementation of the
//! shipping protocol. Whoever forces the primary ships after the force:
//! the concurrent [`crate::FsdEngine`] on its log-writer, the bench and
//! the fault campaign one commit at a time.

pub mod replica;
pub mod session;

pub use replica::{Replica, ReplicaStats};
pub use session::{FailoverOutcome, ReplSessionConfig, ResyncKind, ResyncOutcome, Shipper};

use cedar_disk::Label;

/// When the primary acknowledges a commit to its clients.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplMode {
    /// Ack after the replica has *applied* the frame (its record is in
    /// the replica's log): zero acknowledged loss even if the primary's
    /// disk is destroyed.
    Sync,
    /// Ack after the replica has *received* the frame into its buffer:
    /// an acknowledged write survives any single-machine failure.
    SemiSync,
    /// Ack after the primary's own force; frames ship in the background
    /// with lag bounded by [`ReplSessionConfig::max_lag_frames`].
    Async,
}

impl ReplMode {
    /// Short stable name used in bench output and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Sync => "sync",
            Self::SemiSync => "semi_sync",
            Self::Async => "async",
        }
    }

    /// All modes, in contract-strength order.
    pub const ALL: [ReplMode; 3] = [ReplMode::Sync, ReplMode::SemiSync, ReplMode::Async];
}

/// One raw sector write mirrored from the primary's write journal. The
/// address is *physical* (post-remap): the replica's disk is a physical
/// clone of the primary's, so no translation is needed on apply.
#[derive(Clone, Debug)]
pub struct DataWrite {
    /// Physical sector address on the (cloned) volume.
    pub addr: u32,
    /// New sector contents, if the data field was written.
    pub data: Option<Vec<u8>>,
    /// New label, if the label field was written.
    pub label: Option<Label>,
}

/// One replication frame: everything one successful group commit (or a
/// data-only interval between commits) changed on the primary's disk.
/// The log's data area travels as the records, each with its offset; the
/// rest, the log meta included, as the journal's writes.
#[derive(Clone, Debug)]
pub struct ReplFrame {
    /// Monotonic frame id, starting at 1; the replica refuses gaps.
    pub id: u64,
    /// Sealed log records in their exact `2n + 5` sector byte form, each
    /// with its offset in the log region, where the primary wrote it.
    pub records: Vec<(u32, Vec<u8>)>,
    /// Raw writes outside the log's data area since the previous frame,
    /// in the order the primary made them.
    pub data: Vec<DataWrite>,
    /// The primary's bad-sector remap table as of this frame (tiny; lets
    /// the replica put a record's sectors where the primary's are).
    pub spare: Vec<(u32, u32)>,
}

impl ReplFrame {
    /// Bytes this frame occupies on the wire (records and their offsets +
    /// data images + labels + fixed header), used for link bandwidth
    /// accounting.
    pub fn encoded_len(&self) -> usize {
        let rec: usize = self.records.iter().map(|(_, r)| 4 + r.len()).sum();
        let data: usize = self
            .data
            .iter()
            .map(|w| 8 + w.data.as_ref().map_or(0, Vec::len) + w.label.map_or(0, |_| 16))
            .sum();
        64 + rec + data + self.spare.len() * 8
    }

    /// Whether the frame carries any change at all.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.data.is_empty()
    }
}

/// The primary-side tap state held by [`crate::FsdVolume`]: sealed
/// frames waiting for the [`Shipper`] to take them.
#[derive(Debug, Default)]
pub(crate) struct ReplTap {
    /// Id the next sealed frame will get (first frame is 1).
    pub(crate) next_frame: u64,
    /// Frames sealed since the last [`crate::FsdVolume::take_repl_frames`].
    pub(crate) frames: Vec<ReplFrame>,
}

impl ReplTap {
    pub(crate) fn new() -> Self {
        Self {
            next_frame: 1,
            frames: Vec::new(),
        }
    }
}
