//! The background shipper thread for the concurrent [`crate::FsdEngine`].
//!
//! The engine's log-writer thread seals [`ReplFrame`]s inside
//! `FsdVolume::force` and hands them to the shipper through
//! [`ShipperShared`] — a queue guarded by a [`crate::sync::Mutex`] with
//! two condvars (`work` wakes the shipper, `ack` wakes the writer), so
//! the same hand-off is model-checked under loom (`tests/loom_repl.rs`).
//!
//! Ack ordering is the whole contract: the writer's per-mode wait in
//! [`ShipperShared::submit_and_wait`] blocks *before* the batch's client
//! slots complete, so a client is never acknowledged before the mode's
//! durability point (`applied_high` for sync, `shipped_high` for
//! semi-sync, local force for async with `max_lag_frames` backpressure).
//!
//! Failure discipline (ISSUE satellite 1): the shipper never *drops* a
//! frame. When a frame exhausts its link retries the sticky `failed`
//! error is raised, the frame stays at the queue front, and the waiting
//! writer completes that batch's clients with the retryable
//! `CedarFsError::Link` — so an unshipped record is by construction an
//! *unacknowledged* record in sync mode. The next submission (or an
//! explicit [`ReplHandle::kick`] after healing the link) clears the
//! sticky failure and retries from the front, preserving strict frame
//! order. On engine shutdown or poison the writer drains its queue and
//! stops, then the shipper drains *its* queue (one last bounded-retry
//! pass per frame) before returning the [`Replica`] to the caller.

use std::collections::VecDeque;
use std::sync::Arc;

use cedar_disk::clock::Micros;
use cedar_disk::{Link, LinkPlan, LinkStats};
use cedar_vol::fs::CedarFsError;

use crate::repl::replica::{Replica, ReplicaStats};
use crate::repl::{ReplFrame, ReplMode, ReplSessionConfig};
use crate::sync::{Condvar, Mutex, MutexGuard};

/// Configuration for the engine-attached shipper thread.
#[derive(Clone, Debug)]
pub struct ShipperConfig {
    /// Acknowledgement mode (where `submit_and_wait` blocks).
    pub mode: ReplMode,
    /// Simulated link fault/latency/bandwidth plan.
    pub link: LinkPlan,
    /// Send retries per frame before raising the sticky failure.
    pub retry_attempts: u32,
    /// Initial backoff between retries (doubles each attempt), in
    /// simulated microseconds charged to the replica's clock.
    pub backoff_us: Micros,
    /// Async mode: `submit_and_wait` blocks while more than this many
    /// frames are queued (bounded lag — the mode's loss bound).
    pub max_lag_frames: usize,
}

impl ShipperConfig {
    /// The link, retries, backoff and lag bound of
    /// [`ReplSessionConfig::for_mode`], so the engine's replicated path
    /// ships over the link the bench and the campaign measure.
    pub fn for_mode(mode: ReplMode) -> Self {
        let session = ReplSessionConfig::for_mode(mode);
        Self {
            mode,
            link: session.link,
            retry_attempts: session.retry_attempts,
            backoff_us: session.backoff_us,
            max_lag_frames: session.max_lag_frames,
        }
    }
}

/// Counters published by the shipper thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShipperStats {
    /// Frames handed over by the log writer.
    pub frames_enqueued: u64,
    /// Frames successfully sent over the link.
    pub frames_shipped: u64,
    /// Frames applied by the replica's redo engine.
    pub frames_applied: u64,
    /// Wire bytes shipped.
    pub bytes_shipped: u64,
    /// Link send attempts that failed and were retried.
    pub retries: u64,
    /// Times a frame exhausted its retries and raised the sticky
    /// failure (the frame itself stays queued).
    pub stalls: u64,
}

/// Queue state behind the shared mutex.
struct ShipState {
    /// Frames awaiting shipment, strictly ordered by id.
    frames: VecDeque<ReplFrame>,
    /// The simulated link (kept under the lock so tests can inject
    /// partitions through [`ReplHandle`] while the shipper runs).
    link: Link,
    /// Set by the engine at shutdown: drain the queue, then exit.
    stop: bool,
    /// Generation counter bumped on every enqueue/kick/stop so the
    /// shipper can park after a sticky failure without missing work.
    kick: u64,
    /// Highest frame id ever enqueued.
    enqueued_high: u64,
    /// Highest frame id received by the replica (semi-sync ack point).
    shipped_high: u64,
    /// Highest frame id applied by the replica (sync ack point).
    applied_high: u64,
    /// Sticky failure: the front frame exhausted its retries (or the
    /// replica refused a frame). Cleared by the next submit or kick.
    failed: Option<CedarFsError>,
    stats: ShipperStats,
    /// Snapshot of the replica's own counters, refreshed after each
    /// apply so [`ReplHandle::replica_stats`] works while the replica
    /// is owned by the shipper thread.
    replica_stats: ReplicaStats,
}

/// The writer/shipper rendezvous: queue + two condvars.
pub(crate) struct ShipperShared {
    cfg: ShipperConfig,
    state: Mutex<ShipState>,
    /// Signalled when frames are enqueued, the link is kicked, or stop
    /// is requested; the shipper waits here.
    work: Condvar,
    /// Signalled on ship/apply progress and on failure; the log writer
    /// waits here for the mode's ack point.
    ack: Condvar,
}

/// See `engine.rs` — lock acquisition that shrugs off poisoning so a
/// crashed client thread can never wedge the writer/shipper pair.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

impl ShipperShared {
    pub(crate) fn new(cfg: ShipperConfig) -> Self {
        let link = Link::new(cfg.link.clone());
        Self {
            cfg,
            state: Mutex::new(ShipState {
                frames: VecDeque::new(),
                link,
                stop: false,
                kick: 0,
                enqueued_high: 0,
                shipped_high: 0,
                applied_high: 0,
                failed: None,
                stats: ShipperStats::default(),
                replica_stats: ReplicaStats::default(),
            }),
            work: Condvar::new(),
            ack: Condvar::new(),
        }
    }

    /// Log-writer side: enqueue this force's sealed frames and block
    /// until the configured mode's durability point. Returns `Err` (and
    /// the writer then fails the batch's clients) if the frames could
    /// not reach that point — they stay queued for a later retry, so
    /// nothing acknowledged is ever dropped.
    pub(crate) fn submit_and_wait(&self, frames: Vec<ReplFrame>) -> Result<(), CedarFsError> {
        let mut st = plock(&self.state);
        let mut high = st.enqueued_high;
        for f in frames {
            high = high.max(f.id);
            st.stats.frames_enqueued += 1;
            st.frames.push_back(f);
        }
        let fresh_work = high > st.enqueued_high;
        st.enqueued_high = high;
        if fresh_work {
            // New work gives a previously-stalled front frame another
            // round of retries.
            st.failed = None;
            st.kick += 1;
            self.work.notify_all();
        }
        match self.cfg.mode {
            ReplMode::Async => {
                // Ack locally; only block when the replica has fallen
                // more than `max_lag_frames` behind (the loss bound).
                while st.frames.len() > self.cfg.max_lag_frames {
                    if let Some(e) = st.failed.clone() {
                        return Err(e);
                    }
                    if st.stop {
                        break;
                    }
                    st = match self.ack.wait(st) {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                }
                Ok(())
            }
            ReplMode::SemiSync => {
                while st.shipped_high < high {
                    if let Some(e) = st.failed.clone() {
                        return Err(e);
                    }
                    st = match self.ack.wait(st) {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                }
                Ok(())
            }
            ReplMode::Sync => {
                while st.applied_high < high {
                    if let Some(e) = st.failed.clone() {
                        return Err(e);
                    }
                    st = match self.ack.wait(st) {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                }
                Ok(())
            }
        }
    }

    /// Request the shipper drain its queue and exit.
    pub(crate) fn request_stop(&self) {
        let mut st = plock(&self.state);
        st.stop = true;
        st.kick += 1;
        self.work.notify_all();
        self.ack.notify_all();
    }
}

/// What the shipper decided to do after waiting for work.
enum Action {
    Ship(ReplFrame),
    Exit,
}

/// Body of the `fsd-shipper` thread. Owns the [`Replica`]; returns it
/// when asked to stop (after a final drain pass).
pub(crate) fn shipper_loop(shared: Arc<ShipperShared>, mut replica: Replica) -> Replica {
    loop {
        let action = {
            let mut st = plock(&shared.state);
            loop {
                if st.stop && (st.frames.is_empty() || st.failed.is_some()) {
                    // Drained, or draining but the front frame already
                    // exhausted its final round of retries: anything
                    // left was never acknowledged in sync mode.
                    break Action::Exit;
                }
                if st.failed.is_none() {
                    if let Some(f) = st.frames.front() {
                        break Action::Ship(f.clone());
                    }
                }
                let kick = st.kick;
                while st.kick == kick {
                    st = match shared.work.wait(st) {
                        Ok(g) => g,
                        Err(p) => p.into_inner(),
                    };
                }
            }
        };
        let frame = match action {
            Action::Ship(f) => f,
            Action::Exit => return replica,
        };
        ship_one(&shared, &mut replica, frame);
    }
}

/// Ship one frame with bounded retries, then receive + apply it on the
/// replica, updating the ack marks in order (shipped before applied).
fn ship_one(shared: &ShipperShared, replica: &mut Replica, frame: ReplFrame) {
    let wire = frame.encoded_len();
    let id = frame.id;
    let mut backoff = shared.cfg.backoff_us.max(1);
    let mut attempt: u32 = 0;
    loop {
        let now = replica.clock().now();
        let sent = {
            let mut st = plock(&shared.state);
            st.link.send(now, wire)
        };
        match sent {
            Ok(delay) => {
                replica.clock().advance(delay);
                break;
            }
            Err(e) => {
                attempt += 1;
                let mut st = plock(&shared.state);
                st.stats.retries += 1;
                if attempt > shared.cfg.retry_attempts {
                    st.stats.stalls += 1;
                    st.failed = Some(CedarFsError::from(e));
                    shared.ack.notify_all();
                    return;
                }
                drop(st);
                replica.clock().advance(backoff);
                backoff = backoff.saturating_mul(2);
            }
        }
    }
    // Receive: the semi-sync durability point.
    if let Err(e) = replica.receive(frame) {
        let mut st = plock(&shared.state);
        st.failed = Some(crate::repl::session::apply_err(e));
        shared.ack.notify_all();
        return;
    }
    {
        let mut st = plock(&shared.state);
        st.frames.pop_front();
        st.stats.frames_shipped += 1;
        st.stats.bytes_shipped += wire as u64;
        st.shipped_high = st.shipped_high.max(id);
        st.replica_stats = replica.stats();
        shared.ack.notify_all();
    }
    // Apply (continuous redo): the sync durability point.
    match replica.apply_received() {
        Ok(_) => {
            let mut st = plock(&shared.state);
            st.stats.frames_applied += 1;
            st.applied_high = st.applied_high.max(id);
            st.replica_stats = replica.stats();
            shared.ack.notify_all();
        }
        Err(e) => {
            let mut st = plock(&shared.state);
            st.failed = Some(crate::repl::session::apply_err(e));
            shared.ack.notify_all();
        }
    }
}

/// Test/observability handle onto a running shipper, returned by
/// [`crate::FsdEngine::repl_handle`]. Lets callers inspect ack marks
/// and inject link faults while the engine runs.
#[derive(Clone)]
pub struct ReplHandle {
    pub(crate) shared: Arc<ShipperShared>,
}

impl ReplHandle {
    /// Shipper counters.
    pub fn stats(&self) -> ShipperStats {
        plock(&self.shared.state).stats
    }

    /// Replica-side counters (snapshot taken after each apply).
    pub fn replica_stats(&self) -> ReplicaStats {
        plock(&self.shared.state).replica_stats
    }

    /// Link counters.
    pub fn link_stats(&self) -> LinkStats {
        plock(&self.shared.state).link.stats()
    }

    /// Highest frame id handed to the shipper.
    pub fn enqueued_high(&self) -> u64 {
        plock(&self.shared.state).enqueued_high
    }

    /// Highest frame id received by the replica (semi-sync ack point).
    pub fn shipped_high(&self) -> u64 {
        plock(&self.shared.state).shipped_high
    }

    /// Highest frame id applied by the replica (sync ack point).
    pub fn applied_high(&self) -> u64 {
        plock(&self.shared.state).applied_high
    }

    /// Frames queued but not yet shipped.
    pub fn backlog(&self) -> usize {
        plock(&self.shared.state).frames.len()
    }

    /// The sticky failure, if the front frame is stalled.
    pub fn failed(&self) -> Option<CedarFsError> {
        plock(&self.shared.state).failed.clone()
    }

    /// Force the link down (drops/rejects sends until [`Self::heal`]).
    pub fn force_down(&self) {
        plock(&self.shared.state).link.force_down();
    }

    /// Heal a forced-down link and kick the shipper to retry the front
    /// frame (clearing the sticky failure).
    pub fn heal(&self) {
        let mut st = plock(&self.shared.state);
        st.link.heal();
        st.failed = None;
        st.kick += 1;
        self.shared.work.notify_all();
    }

    /// Clear the sticky failure and wake the shipper without touching
    /// the link (e.g. after a transient partition window expired).
    pub fn kick(&self) {
        let mut st = plock(&self.shared.state);
        st.failed = None;
        st.kick += 1;
        self.shared.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_agree_with_the_session_defaults() {
        for mode in [ReplMode::Sync, ReplMode::SemiSync, ReplMode::Async] {
            let ship = ShipperConfig::for_mode(mode);
            let session = ReplSessionConfig::for_mode(mode);
            assert_eq!(ship.mode, session.mode);
            assert_eq!(ship.link.latency_us, session.link.latency_us);
            assert_eq!(ship.link.bytes_per_sec, session.link.bytes_per_sec);
            assert_eq!(ship.link.drop_sends, session.link.drop_sends);
            assert_eq!(ship.link.partitions, session.link.partitions);
            assert_eq!(ship.link.timeout_us, session.link.timeout_us);
            assert_eq!(ship.retry_attempts, session.retry_attempts);
            assert_eq!(ship.backoff_us, session.backoff_us);
            assert_eq!(ship.max_lag_frames, session.max_lag_frames);
        }
    }
}
