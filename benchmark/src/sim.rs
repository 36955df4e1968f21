//! Building a populated volume, and the simulated-clock pass: a fixed
//! number of ops, one client, through `SyncFs<FsdVolume>` on the T-300
//! with Dorado CPU costs. Everything it reports is simulated time or a
//! count, and repeats exactly for a given seed.

use crate::exec::{execute, verb, VERBS};
use crate::gen::{Generator, Sizing, Workload};
use crate::trace::{Span, Trace};
use cedar_disk::{DiskStats, SimClock, SimDisk};
use cedar_fsd::volume::CommitStats;
use cedar_fsd::{FsdConfig, FsdVolume};
use cedar_vol::fs::{FileInfo, FileSystem, FsBackend, SyncFs};
use cedar_workload::steps::content_for;
use cedar_workload::Step;
use std::time::Instant;

/// Disk regions I/Os are attributed to, in the order of [`Probe::regions`].
pub const REGIONS: [&str; 4] = ["log", "nt", "data", "bootvam"];
const NT: usize = 1;

/// `FsdConfig::default()` — C-SCAN, half-second commit daemon, no VAM
/// logging, unbounded name-table cache — with a name table sized for the
/// workload's population.
pub fn fsd_config(workload: Workload, sizing: Sizing) -> FsdConfig {
    FsdConfig {
        nt_pages: workload.nt_pages(sizing),
        ..FsdConfig::default()
    }
}

/// A populated volume and the client streams that run against it.
pub struct Built {
    pub vol: FsdVolume,
    pub cfg: FsdConfig,
    pub population: Vec<Step>,
    pub clients: Vec<Box<dyn Generator>>,
    /// Free sectors right after format, before any file exists.
    pub free_at_format: u32,
    /// Host seconds generating the population and the client streams.
    pub gen_s: f64,
    /// Host seconds formatting and populating (forced at the end).
    pub populate_s: f64,
}

impl Built {
    /// The set-up time a user waits for: generate, format, populate.
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.populate_s
    }
}

/// Generates the workload's traffic for `clients` clients, formats a
/// fresh disk and creates the population on it.
pub fn build(
    workload: Workload,
    seed: u64,
    sizing: Sizing,
    clients: usize,
) -> Result<Built, String> {
    let started = Instant::now();
    let population = workload.population(seed, sizing);
    let streams = (0..clients)
        .map(|c| workload.client(seed, sizing, &population, c, clients))
        .collect();
    let gen_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let disk = if sizing.tiny {
        SimDisk::tiny()
    } else {
        SimDisk::trident_t300(SimClock::new())
    };
    let cfg = fsd_config(workload, sizing);
    let mut vol = FsdVolume::format(disk, cfg).map_err(|e| format!("format: {e}"))?;
    let l = *vol.layout();
    vol.disk_mut().set_regions(vec![
        (l.log_start, l.nt_b_start, REGIONS[0]),
        (l.nt_a_start, l.log_start, REGIONS[1]),
        (l.nt_b_start, l.central_end, REGIONS[1]),
        (l.small_start, l.nt_a_start, REGIONS[2]),
        (l.central_end, l.total_sectors, REGIONS[2]),
        (0, l.small_start, REGIONS[3]),
    ]);
    let free_at_format = vol.free_sectors();
    for step in &population {
        if let Step::Create { name, bytes } = step {
            FsBackend::create(&mut vol, name, &content_for(name, *bytes))
                .map_err(|e| format!("populate {name}: {e}"))?;
        }
    }
    vol.force().map_err(|e| format!("populate force: {e}"))?;
    Ok(Built {
        vol,
        cfg,
        population,
        clients: streams,
        free_at_format,
        gen_s,
        populate_s: started.elapsed().as_secs_f64(),
    })
}

/// Every cumulative counter the harness can read from outside a volume.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Probe {
    pub clock_us: u64,
    pub disk: DiskStats,
    pub cpu_us: u64,
    pub commit: CommitStats,
    pub regions: [u64; 4],
}

impl Probe {
    pub fn take(vol: &mut FsdVolume) -> Probe {
        let ops = vol.disk_mut().region_ops();
        let regions = REGIONS.map(|r| ops.get(r).copied().unwrap_or(0));
        Probe {
            clock_us: vol.clock().now(),
            disk: vol.disk_stats(),
            cpu_us: vol.cpu().total_us(),
            commit: vol.commit_stats(),
            regions,
        }
    }

    /// `self − earlier` (`max_record_sectors` is a running maximum and is
    /// carried over as it stands).
    pub fn since(&self, earlier: &Probe) -> Probe {
        let c = &self.commit;
        let e = &earlier.commit;
        Probe {
            clock_us: self.clock_us - earlier.clock_us,
            disk: self.disk.since(&earlier.disk),
            cpu_us: self.cpu_us - earlier.cpu_us,
            commit: CommitStats {
                forces: c.forces - e.forces,
                records: c.records - e.records,
                images_logged: c.images_logged - e.images_logged,
                log_sectors_written: c.log_sectors_written - e.log_sectors_written,
                third_flush_pages: c.third_flush_pages - e.third_flush_pages,
                max_record_sectors: c.max_record_sectors,
            },
            regions: std::array::from_fn(|i| self.regions[i] - earlier.regions[i]),
        }
    }

    /// Simulated µs the five parts account for: the four the disk books
    /// and the CPU charge. Equal to `clock_us` when nothing else advanced
    /// the clock.
    pub fn accounted_us(&self) -> u64 {
        self.disk.busy_us() + self.cpu_us
    }

    /// The non-zero counters, for a span.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let d = &self.disk;
        let c = &self.commit;
        [
            ("reads", d.reads),
            ("writes", d.writes),
            ("sectors_read", d.sectors_read),
            ("sectors_written", d.sectors_written),
            ("seek_us", d.seek_us),
            ("rotation_us", d.rotation_us),
            ("lost_rev_us", d.lost_rev_us),
            ("transfer_us", d.transfer_us),
            ("cpu_us", self.cpu_us),
            ("forces", c.forces),
            ("images_logged", c.images_logged),
            ("log_sectors", c.log_sectors_written),
            ("third_flush_pages", c.third_flush_pages),
            ("ios_log", self.regions[0]),
            ("ios_nt", self.regions[1]),
            ("ios_data", self.regions[2]),
            ("ios_bootvam", self.regions[3]),
        ]
        .into_iter()
        .filter(|&(_, v)| v != 0)
        .collect()
    }
}

/// What the simulated-clock pass measured.
#[derive(Debug, Default)]
pub struct SimPass {
    /// Ops issued, and how many of them failed.
    pub ops: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// The steps issued, for the model to replay.
    pub steps: Vec<Step>,
    /// Counter deltas over the window: first op to the closing force.
    pub window: Probe,
    /// Host seconds the window took.
    pub wall_s: f64,
    /// Simulated latency of every call.
    pub latencies_us: Vec<u64>,
    /// Per verb (order of [`VERBS`]): summed latency and call count.
    pub verb_us: [u64; 5],
    pub verb_calls: [u64; 5],
    /// User bytes created and read.
    pub created: u64,
    pub read: u64,
    /// Traced pass only: latencies of the calls during which the log was
    /// forced, and name-table-region I/Os of calls that wrote nothing
    /// (those I/Os can only have been reads).
    pub stall_us: Vec<u64>,
    pub nt_reads: u64,
    /// After the window: the volume's listing and free sectors.
    pub listing: Vec<FileInfo>,
    pub free_at_end: u32,
}

/// Replays the next `ops` ops of `client` and closes with one explicit
/// force. With a trace, every call gets an `op.<verb>` span carrying the
/// counter deltas of that call.
pub fn sim_pass(
    vol: FsdVolume,
    client: &mut dyn Generator,
    ops: usize,
    mut trace: Option<&mut Trace>,
) -> (SimPass, FsdVolume) {
    let mut pass = SimPass::default();
    let clock = vol.clock();
    let fs = SyncFs::new(vol);
    let begin = fs.with(Probe::take);
    let started = Instant::now();
    let mut before = begin;
    for i in 0..ops {
        let op = client.next_op();
        let host_start = trace.as_ref().map_or(0, |t| t.host_ns());
        let sim_start = clock.now();
        let outcome = execute(&fs, &op);
        let latency = clock.now() - sim_start;
        match outcome {
            Ok(done) => {
                pass.created += done.created;
                pass.read += done.read;
            }
            Err(e) => {
                pass.failed += 1;
                pass.first_error.get_or_insert(e);
            }
        }
        let v = verb(&op.step);
        pass.latencies_us.push(latency);
        pass.verb_us[v] += latency;
        pass.verb_calls[v] += 1;
        if let Some(trace) = trace.as_deref_mut() {
            let host_end = trace.host_ns();
            let after = fs.with(Probe::take);
            let delta = after.since(&before);
            before = after;
            if delta.commit.forces > 0 {
                pass.stall_us.push(latency);
            }
            if delta.disk.writes == 0 {
                pass.nt_reads += delta.regions[NT];
            }
            trace.push(Span {
                op: i as u64,
                pass: "sim",
                layer: "fsd.volume",
                name: format!("op.{}", VERBS[v]),
                sim_us: (sim_start, sim_start + latency),
                host_ns: (host_start, host_end),
                counters: delta.counters(),
                ..Span::default()
            });
        }
        pass.steps.push(op.step);
    }
    pass.ops = ops as u64;
    if let Err(e) = fs.with(|v| v.force()) {
        pass.failed += 1;
        pass.first_error
            .get_or_insert(format!("closing force: {e}"));
    }
    pass.window = fs.with(Probe::take).since(&begin);
    pass.wall_s = started.elapsed().as_secs_f64();

    match fs.list("") {
        Ok(listing) => pass.listing = listing,
        Err(e) => {
            pass.failed += 1;
            pass.first_error.get_or_insert(format!("final list: {e}"));
        }
    }
    let vol = fs.into_inner();
    pass.free_at_end = vol.free_sectors();
    (pass, vol)
}
