//! A simulated replication link between a primary and a replica machine.
//!
//! The log-shipping subsystem (`cedar_fsd::repl`) streams sealed log
//! records and data-area writes over this link. Like [`crate::disk`], it
//! is a deterministic model, not a socket: a send is costed in simulated
//! microseconds (propagation latency plus serialization at the configured
//! bandwidth), and faults — message drops, timed partition windows, a
//! manual "pull the cable" switch — are injected from a [`LinkPlan`] the
//! same way media faults come from a [`crate::FaultPlan`].
//!
//! The link never advances any clock itself. [`Link::send`] returns the
//! delivery delay relative to the caller-supplied `now`; the replication
//! driver owns the decision of which simulated clock to charge it to.

use crate::clock::Micros;

/// Errors a [`Link::send`] can produce. All of them are *transient* from
/// the caller's point of view (retry may succeed); the filesystem layer
/// classifies them as retryable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkError {
    /// The link is partitioned (a [`LinkPlan::partitions`] window covers
    /// `now`, or [`Link::force_down`] was called and not yet healed).
    Down,
    /// The message was silently dropped in flight ([`LinkPlan::drop_sends`]
    /// named this send). The sender learns of it only by ack timeout.
    Dropped,
    /// The transfer could not complete within [`LinkPlan::timeout_us`].
    Timeout,
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Down => write!(f, "link down (partition)"),
            Self::Dropped => write!(f, "message dropped in flight"),
            Self::Timeout => write!(f, "link send timed out"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Declarative fault and performance plan for a [`Link`].
#[derive(Clone, Debug, Default)]
pub struct LinkPlan {
    /// One-way propagation latency charged to every send.
    pub latency_us: Micros,
    /// Serialization bandwidth in bytes per simulated second; `0` means
    /// unlimited (latency-only model).
    pub bytes_per_sec: u64,
    /// Zero-based send indices that are silently dropped in flight.
    pub drop_sends: Vec<u64>,
    /// Half-open `[start, end)` windows of simulated time during which the
    /// link is partitioned and every send fails with [`LinkError::Down`].
    pub partitions: Vec<(Micros, Micros)>,
    /// If nonzero, a send whose total delivery delay would exceed this
    /// fails with [`LinkError::Timeout`] instead of completing.
    pub timeout_us: Micros,
}

impl LinkPlan {
    /// A latency-only plan with unlimited bandwidth and no faults.
    pub fn with_latency(latency_us: Micros) -> Self {
        Self {
            latency_us,
            ..Self::default()
        }
    }
}

/// Cumulative link statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Sends attempted (including failed ones).
    pub sends: u64,
    /// Bytes successfully delivered.
    pub bytes: u64,
    /// Sends lost to [`LinkError::Dropped`].
    pub dropped: u64,
    /// Sends rejected with [`LinkError::Down`].
    pub down_rejects: u64,
    /// Sends rejected with [`LinkError::Timeout`].
    pub timeouts: u64,
}

/// The simulated link itself: a [`LinkPlan`] plus running state.
#[derive(Clone, Debug)]
pub struct Link {
    plan: LinkPlan,
    /// Manual partition switch ([`Self::force_down`] / [`Self::heal`]).
    forced_down: bool,
    /// Simulated time at which the previous transfer finishes serializing;
    /// a new send queues behind it (the link is a single pipe).
    busy_until: Micros,
    stats: LinkStats,
}

impl Link {
    /// Creates a link governed by `plan`.
    pub fn new(plan: LinkPlan) -> Self {
        Self {
            plan,
            forced_down: false,
            busy_until: 0,
            stats: LinkStats::default(),
        }
    }

    /// Manually partitions the link until [`Self::heal`].
    pub fn force_down(&mut self) {
        self.forced_down = true;
    }

    /// Clears a manual partition. Timed [`LinkPlan::partitions`] windows
    /// still apply.
    pub fn heal(&mut self) {
        self.forced_down = false;
    }

    /// Whether the link is partitioned at simulated time `now`.
    pub fn is_down(&self, now: Micros) -> bool {
        self.forced_down
            || self
                .plan
                .partitions
                .iter()
                .any(|&(start, end)| now >= start && now < end)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Attempts to deliver `bytes` at simulated time `now`. On success,
    /// returns the delivery delay in microseconds *relative to `now`*
    /// (queueing behind an in-flight transfer, plus serialization at the
    /// configured bandwidth, plus propagation latency). The caller decides
    /// which clock, if any, to charge.
    pub fn send(&mut self, now: Micros, bytes: usize) -> Result<Micros, LinkError> {
        self.stats.sends += 1;
        let idx = self.stats.sends - 1;
        if self.is_down(now) {
            self.stats.down_rejects += 1;
            return Err(LinkError::Down);
        }
        // `bytes_per_sec == 0` means unlimited bandwidth: zero transfer time.
        let xfer = (bytes as u64)
            .saturating_mul(1_000_000)
            .checked_div(self.plan.bytes_per_sec)
            .unwrap_or(0);
        let start = self.busy_until.max(now);
        let done = start + xfer;
        let delay = (done - now) + self.plan.latency_us;
        if self.plan.timeout_us != 0 && delay > self.plan.timeout_us {
            self.stats.timeouts += 1;
            return Err(LinkError::Timeout);
        }
        if self.plan.drop_sends.contains(&idx) {
            // The bytes left the sender (and occupy the pipe) but never
            // arrive; the sender only learns via its own ack timeout.
            self.busy_until = done;
            self.stats.dropped += 1;
            return Err(LinkError::Dropped);
        }
        self.busy_until = done;
        self.stats.bytes += bytes as u64;
        Ok(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_only_send_costs_latency() {
        let mut link = Link::new(LinkPlan::with_latency(250));
        assert_eq!(link.send(1_000, 4096), Ok(250));
        assert_eq!(link.stats().bytes, 4096);
    }

    #[test]
    fn bandwidth_serializes_back_to_back_sends() {
        let mut link = Link::new(LinkPlan {
            latency_us: 100,
            bytes_per_sec: 1_000_000, // 1 byte/µs
            ..LinkPlan::default()
        });
        // 5000 bytes = 5000 µs of serialization.
        assert_eq!(link.send(0, 5000), Ok(5100));
        // Second send at t=0 queues behind the first: 5000 + 5000 + 100.
        assert_eq!(link.send(0, 5000), Ok(10_100));
        // A send issued after the pipe drains pays no queueing.
        assert_eq!(link.send(20_000, 5000), Ok(5100));
    }

    #[test]
    fn partition_window_rejects_then_heals() {
        let mut link = Link::new(LinkPlan {
            partitions: vec![(1_000, 2_000)],
            ..LinkPlan::default()
        });
        assert_eq!(link.send(500, 10), Ok(0));
        assert_eq!(link.send(1_500, 10), Err(LinkError::Down));
        assert_eq!(link.send(2_000, 10), Ok(0));
        assert_eq!(link.stats().down_rejects, 1);
    }

    #[test]
    fn forced_down_until_heal() {
        let mut link = Link::new(LinkPlan::default());
        link.force_down();
        assert_eq!(link.send(0, 1), Err(LinkError::Down));
        link.heal();
        assert_eq!(link.send(0, 1), Ok(0));
    }

    #[test]
    fn drop_plan_loses_named_send() {
        let mut link = Link::new(LinkPlan {
            drop_sends: vec![1],
            ..LinkPlan::default()
        });
        assert_eq!(link.send(0, 8), Ok(0));
        assert_eq!(link.send(0, 8), Err(LinkError::Dropped));
        assert_eq!(link.send(0, 8), Ok(0));
        let s = link.stats();
        assert_eq!((s.sends, s.dropped), (3, 1));
    }

    #[test]
    fn timeout_fires_on_oversized_transfer() {
        let mut link = Link::new(LinkPlan {
            bytes_per_sec: 1_000, // 1 byte/ms
            timeout_us: 1_000_000,
            ..LinkPlan::default()
        });
        // 2000 bytes = 2 s of serialization > 1 s timeout.
        assert_eq!(link.send(0, 2000), Err(LinkError::Timeout));
        assert_eq!(link.stats().timeouts, 1);
        // Small send still goes through.
        assert!(link.send(0, 100).is_ok());
    }
}
