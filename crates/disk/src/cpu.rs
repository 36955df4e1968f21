//! CPU time charges.
//!
//! The paper's §6 model deliberately ignored CPU time and admits this was
//! only marginally defensible: "the design selected was very stingy with
//! disk I/O's, but the CPU was sometimes a slight bottleneck". Table 2's
//! FSD numbers make the Dorado's CPU cost visible — an FSD open takes
//! 11.7 ms with *no* disk I/O at all. To reproduce those shapes the
//! simulation charges explicit, documented CPU costs against the same
//! simulated clock the disk uses.
//!
//! The constants below are calibrated to the Dorado-era numbers in
//! Table 2 (open 11.7 ms, small delete 15 ms, both I/O-free in FSD) and
//! are intentionally coarse: a fixed per-operation dispatch cost, a cost
//! per B-tree node visited, a cost per name-table entry encoded or
//! decoded, and a small per-sector cost for moving data.
//!
//! The calibration assumes what the volumes now do: one root-to-leaf walk
//! per lookup, so an operation's CPU follows the name table's height. An
//! open of a 4000-file volume's three-level name table is dispatch + 3
//! nodes + 1 entry = 4.0 + 5.4 + 0.9 = 10.3 ms, and `table2`, which
//! forces before each timed window, prints 10.3 ms against the paper's
//! 11.7. A small delete is that walk with the leaf written on the way
//! out — the walk that finds the newest version removes it — so
//! dispatch + 3 nodes + 1 written + 1 entry = 4.0 + 5.4 + 1.8 + 0.9 =
//! 12.1 ms of CPU, and `table2` prints 15.3 ms against the paper's 15
//! (the rest is the one group-commit force its window holds, and the odd
//! cold page). The height is the B-tree's split policy's doing: the
//! benchmark's 20 000 mail names took four levels when every leaf split
//! in half and every separator was a whole key (an open 4.0 + 7.2 + 0.9
//! = 12.1 ms), and take three now that a leaf is cut where a mailbox's
//! names end and the shortest separator is promoted (10.3 ms).

use crate::clock::{Micros, SimClock};
use std::ops::Range;

/// A table of CPU costs, charged against the simulated clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuModel {
    /// Fixed cost of entering a file-system operation (monitors,
    /// dispatch, pathname handling).
    pub op_overhead_us: Micros,
    /// Cost per B-tree node visited or modified.
    pub btree_node_us: Micros,
    /// Cost per name-table entry encoded, decoded or compared.
    pub entry_us: Micros,
    /// Cost per sector of data moved, checksummed or interpreted.
    pub per_sector_us: Micros,
    /// Scavenger cost per label interpreted (the Dorado scavenger
    /// interpreted every sector's label in Mesa; this dominates its hour
    /// of elapsed time).
    pub label_interpret_us: Micros,
}

impl CpuModel {
    /// Dorado-class CPU costs (see module docs for the calibration).
    pub const DORADO: Self = Self {
        op_overhead_us: 4_000,
        btree_node_us: 1_800,
        entry_us: 900,
        per_sector_us: 60,
        label_interpret_us: 2_000,
    };

    /// An effectively free CPU, for experiments isolating disk behaviour.
    pub const FREE: Self = Self {
        op_overhead_us: 0,
        btree_node_us: 0,
        entry_us: 0,
        per_sector_us: 0,
        label_interpret_us: 0,
    };
}

/// A CPU charger bound to a clock, tracking total CPU time separately so
/// Table 5's %CPU can be computed.
#[derive(Clone, Debug)]
pub struct Cpu {
    clock: SimClock,
    model: CpuModel,
    total_us: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl Cpu {
    /// Creates a charger for `clock` with the given cost table.
    pub fn new(clock: SimClock, model: CpuModel) -> Self {
        Self {
            clock,
            model,
            total_us: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    /// The cost table.
    pub fn model(&self) -> &CpuModel {
        &self.model
    }

    /// Total CPU time charged so far.
    pub fn total_us(&self) -> Micros {
        self.total_us.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Charges `us` microseconds of CPU time.
    pub fn charge(&self, us: Micros) {
        self.total_us
            .fetch_add(us, std::sync::atomic::Ordering::AcqRel);
        self.clock.advance(us);
    }

    /// Charges the fixed per-operation overhead.
    pub fn op(&self) {
        self.charge(self.model.op_overhead_us);
    }

    /// Charges for visiting `n` B-tree nodes.
    pub fn btree_nodes(&self, n: u64) {
        self.charge(self.model.btree_node_us * n);
    }

    /// Charges for handling `n` name-table entries.
    pub fn entries(&self, n: u64) {
        self.charge(self.model.entry_us * n);
    }

    /// Charges for moving `n` sectors of data.
    pub fn sectors(&self, n: u64) {
        self.charge(self.model.per_sector_us * n);
    }

    /// Charges for interpreting `n` labels during a scavenge.
    pub fn labels(&self, n: u64) {
        self.charge(self.model.label_interpret_us * n);
    }

    /// Joins a parallel stage that started at simulated time
    /// `started_at` and whose workers accumulated `worker_us`
    /// microseconds each (see [`WorkerCpu::into_us`]).
    ///
    /// The *sum* of the workers' time is added to [`Cpu::total_us`] — it
    /// is all real CPU work for %CPU accounting — but the clock advances
    /// only to `started_at + max(worker_us)`: on parallel hardware the
    /// elapsed time of the stage is its critical path, the slowest
    /// worker. (Any I/O or serial charges that happened concurrently may
    /// already have pushed the clock past that point, in which case the
    /// stage's CPU time was fully hidden behind them and the clock does
    /// not move.)
    pub fn join_parallel(&self, started_at: Micros, worker_us: &[Micros]) {
        let sum: Micros = worker_us.iter().sum();
        let max = worker_us.iter().copied().max().unwrap_or(0);
        self.total_us
            .fetch_add(sum, std::sync::atomic::Ordering::AcqRel);
        self.clock.advance_to(started_at.saturating_add(max));
    }

    /// The accumulators of one parallel stage on `workers` simulated
    /// CPUs. Zero asks for one, like 1: this is where every recovery
    /// stage reads its configured worker count.
    pub fn workers(&self, workers: usize) -> Vec<WorkerCpu> {
        let idle = WorkerCpu {
            model: self.model,
            accumulated_us: 0,
        };
        vec![idle; workers.max(1)]
    }

    /// Runs one stage of pure per-item work over `len` items: at most
    /// `workers` contiguous shards of `len.div_ceil(workers)` items,
    /// run one after another on the caller's thread, each handed to
    /// `work` with a [`WorkerCpu`] of its own, and joined with
    /// [`Cpu::join_parallel`]. Results come back in shard order, so
    /// concatenating them restores item order.
    ///
    /// Serial is the one-shard case: its join advances the clock from
    /// the start of the stage by the shard's own charge, which is what
    /// charging this `Cpu` directly would have done.
    pub fn sharded<R>(
        &self,
        workers: usize,
        len: usize,
        mut work: impl FnMut(Range<usize>, &mut WorkerCpu) -> R,
    ) -> Vec<R> {
        let started_at = self.clock.now();
        let mut wcpus = self.workers(workers);
        let shard_len = len.div_ceil(wcpus.len()).max(1);
        let results = (0..len)
            .step_by(shard_len)
            .zip(&mut wcpus)
            .map(|(lo, wcpu)| work(lo..(lo + shard_len).min(len), wcpu))
            .collect();
        let worker_us: Vec<Micros> = wcpus.into_iter().map(WorkerCpu::into_us).collect();
        self.join_parallel(started_at, &worker_us);
        results
    }
}

/// A per-worker CPU accumulator for parallel stages.
///
/// On the simulated machine every [`Cpu::charge`] advances the one
/// shared clock, which models a *single* CPU: concurrent charges
/// serialize. A parallel stage instead hands each worker a `WorkerCpu`,
/// which accumulates charges locally without touching the clock; at the
/// join, [`Cpu::join_parallel`] folds the workers' totals back in —
/// summing them for %CPU, advancing the clock by the maximum.
///
/// The workers are simulated CPUs, not threads: a stage runs its
/// workers one after another on the caller's thread, and only the join
/// says they overlapped.
#[derive(Clone, Debug)]
pub struct WorkerCpu {
    model: CpuModel,
    accumulated_us: Micros,
}

impl WorkerCpu {
    /// The cost table (shared with the parent [`Cpu`]).
    pub fn model(&self) -> &CpuModel {
        &self.model
    }

    /// Microseconds accumulated so far.
    pub fn accumulated_us(&self) -> Micros {
        self.accumulated_us
    }

    /// Consumes the accumulator, yielding its total for
    /// [`Cpu::join_parallel`].
    pub fn into_us(self) -> Micros {
        self.accumulated_us
    }

    /// Accumulates `us` microseconds of CPU time locally.
    pub fn charge(&mut self, us: Micros) {
        self.accumulated_us = self.accumulated_us.saturating_add(us);
    }

    /// Accumulates the cost of handling `n` name-table entries.
    pub fn entries(&mut self, n: u64) {
        self.charge(self.model.entry_us * n);
    }

    /// Accumulates the cost of moving `n` sectors of data.
    pub fn sectors(&mut self, n: u64) {
        self.charge(self.model.per_sector_us * n);
    }

    /// Accumulates the cost of interpreting `n` labels.
    pub fn labels(&mut self, n: u64) {
        self.charge(self.model.label_interpret_us * n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_advance_clock_and_accumulate() {
        let clock = SimClock::new();
        let cpu = Cpu::new(clock.clone(), CpuModel::DORADO);
        cpu.op();
        cpu.entries(2);
        assert_eq!(cpu.total_us(), 4_000 + 1_800);
        assert_eq!(clock.now(), cpu.total_us());
    }

    #[test]
    fn free_model_charges_nothing() {
        let clock = SimClock::new();
        let cpu = Cpu::new(clock.clone(), CpuModel::FREE);
        cpu.op();
        cpu.labels(1000);
        assert_eq!(clock.now(), 0);
        assert_eq!(cpu.total_us(), 0);
    }

    #[test]
    fn clones_share_totals() {
        let cpu = Cpu::new(SimClock::new(), CpuModel::DORADO);
        let view = cpu.clone();
        cpu.sectors(10);
        assert_eq!(view.total_us(), 600);
    }

    #[test]
    fn workers_accumulate_without_advancing_clock() {
        let clock = SimClock::new();
        let cpu = Cpu::new(clock.clone(), CpuModel::DORADO);
        let mut w = cpu.workers(1).remove(0);
        w.labels(3);
        w.entries(1);
        assert_eq!(w.accumulated_us(), 3 * 2_000 + 900);
        assert_eq!(clock.now(), 0);
        assert_eq!(cpu.total_us(), 0);
    }

    #[test]
    fn join_sums_totals_but_advances_clock_by_max() {
        let clock = SimClock::new();
        let cpu = Cpu::new(clock.clone(), CpuModel::DORADO);
        clock.advance(1_000);
        cpu.join_parallel(1_000, &[5_000, 2_000, 7_000]);
        assert_eq!(cpu.total_us(), 14_000);
        assert_eq!(clock.now(), 1_000 + 7_000);
    }

    #[test]
    fn one_shard_is_the_direct_charge() {
        let direct_clock = SimClock::new();
        let direct = Cpu::new(direct_clock.clone(), CpuModel::DORADO);
        direct.labels(10);
        for workers in [0, 1] {
            let clock = SimClock::new();
            let cpu = Cpu::new(clock.clone(), CpuModel::DORADO);
            let got = cpu.sharded(workers, 10, |range, wcpu| {
                wcpu.labels(range.len() as u64);
                (range.start, range.end)
            });
            assert_eq!(got, vec![(0, 10)]);
            assert_eq!(clock.now(), direct_clock.now());
            assert_eq!(cpu.total_us(), direct.total_us());
        }
    }

    #[test]
    fn shards_advance_clock_by_max_total_by_sum_and_keep_item_order() {
        let clock = SimClock::new();
        let cpu = Cpu::new(clock.clone(), CpuModel::DORADO);
        clock.advance(1_000);
        // 8 items over 3 workers: shards of 3, 3 and 2.
        let got = cpu.sharded(3, 8, |range, wcpu| {
            wcpu.entries(range.len() as u64);
            range.collect::<Vec<usize>>()
        });
        assert_eq!(got.concat(), (0..8).collect::<Vec<_>>());
        assert_eq!(clock.now(), 1_000 + 3 * 900);
        assert_eq!(cpu.total_us(), 8 * 900);
    }

    #[test]
    fn no_items_is_no_shard_and_no_time() {
        let clock = SimClock::new();
        let cpu = Cpu::new(clock.clone(), CpuModel::DORADO);
        clock.advance(500);
        let got = cpu.sharded(4, 0, |_, wcpu| wcpu.labels(1));
        assert_eq!(got, vec![]);
        assert_eq!((clock.now(), cpu.total_us()), (500, 0));
    }

    #[test]
    fn join_never_moves_clock_backwards() {
        let clock = SimClock::new();
        let cpu = Cpu::new(clock.clone(), CpuModel::DORADO);
        clock.advance(50_000); // concurrent I/O already passed the join
        cpu.join_parallel(10_000, &[1_000]);
        assert_eq!(clock.now(), 50_000);
        assert_eq!(cpu.total_us(), 1_000);
    }
}
