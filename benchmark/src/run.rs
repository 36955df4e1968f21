//! One workload, one process: the untraced run that yields the
//! end-to-end metrics, or the traced run that yields the per-layer ones.

use crate::exec::{listing_mismatches, model_listing, replay_into, VERBS};
use crate::gen::{Sizing, Workload, CLIENTS, DEFAULT_SEED};
use crate::host::{engine_pass, host_pass, parallelism, volume_pass, HostPass};
use crate::json::Json;
use crate::recover::{crash_and_recover, rung_number, Crash, Recovery};
use crate::sim::{build, sim_pass, Built, SimPass};
use crate::stats::{best, median, median_u64, spread, tail, Windows};
use crate::trace::{Span, Trace};
use cedar_disk::SECTOR_BYTES_U64;
use cedar_vol::fs::FileInfo;
use cedar_workload::{MemFs, Step};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Where traces and results files go unless `--out` says otherwise:
/// inside the benchmark's own directory, ignored by git.
pub const OUT_DIR: &str = "benchmark/out";

/// Set-ups timed per untraced run, `setup_s` being the fastest: at least
/// [`MIN_SETUPS`], and more — up to [`MAX_SETUPS`] — while they have
/// taken less than [`MIN_SETUP_TIME_S`] between them, so a workload that
/// sets up in milliseconds still reports a steady figure.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const MIN_SETUP_TIME_S: f64 = 0.25;
/// Windows of the host pass, and how many of the best are averaged into
/// the result. Windows this short let most of them escape a neighbour's
/// burst; three of them are long enough together that `read_mostly`,
/// whose half-second windows differ by ±12 % on their own (a window
/// holds about 75 replacements, give or take 9), reports a steady figure.
const WINDOWS: usize = 20;
const BEST_WINDOWS: usize = 3;
/// Ops of the stream the traced single-client passes replay.
const TRACED_HOST_OPS: usize = 3_000;

#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Wall seconds the host pass measures (after its warm-up).
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Options {
    fn sizing(&self) -> Sizing {
        if self.smoke {
            Sizing::SMOKE
        } else {
            Sizing::FULL
        }
    }

    /// Twenty windows after the warm-up (in a traced run, alternately
    /// untraced and traced).
    fn windows(&self) -> Windows {
        Windows {
            warmup_ns: if self.smoke {
                100_000_000
            } else {
                2_000_000_000
            },
            len_ns: (self.seconds * 1e9) as u64 / WINDOWS as u64,
            count: WINDOWS,
        }
    }

    /// Timed boots of clones of the crashed disk: a per-layer figure,
    /// so only the traced run pays for the clones.
    fn boots(&self) -> usize {
        match (self.trace, self.smoke) {
            (false, _) => 0,
            (true, true) => 3,
            (true, false) => 9,
        }
    }
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// For a best-of-N host-clock metric, the best sample's lead over the
    /// runner-up as a share of itself (see [`crate::stats::Best`]).
    pub spread: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Report {
    fn absorb(&mut self, failed: u64, first_error: &Option<String>, pass: &str) {
        self.failed += failed;
        if let Some(e) = first_error {
            self.errors.push(format!("{pass}: {e} ({failed} failed)"));
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<u64>() as f64 / samples.len() as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Replays the population and what a pass issued into a `MemFs` and
/// compares its listing with the pass's final `list("")`; every name they
/// disagree on is a failed op.
fn check_model(
    report: &mut Report,
    pass: &str,
    population: &[Step],
    issued: impl IntoIterator<Item = Step>,
    found: &[FileInfo],
) {
    let mut model = MemFs::default();
    replay_into(&mut model, population.iter().cloned());
    replay_into(&mut model, issued);
    let bad = listing_mismatches(&model_listing(&mut model), found);
    if bad > 0 {
        report.failed += bad;
        report.errors.push(format!(
            "{pass}: final listing differs from the MemFs replay on {bad} names"
        ));
    }
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let mut report = Report::default();
    let w = opts.workload;
    let sizing = opts.sizing();

    let fingerprint = w.fingerprint(opts.seed, sizing);
    if opts.seed == DEFAULT_SEED && sizing == Sizing::FULL && fingerprint != w.fingerprint_1987() {
        return Err(format!(
            "{}: generated traffic has fingerprint {fingerprint}, the benchmark was defined with {}; \
             a generator changed, so no number from this run compares with an earlier one",
            w.name(),
            w.fingerprint_1987()
        ));
    }
    report.notes.push(format!(
        "workload.fingerprint {fingerprint} (seed {})",
        opts.seed
    ));
    report.notes.push(format!(
        "{CLIENTS} client threads, available_parallelism {}",
        parallelism()
    ));

    if opts.trace {
        traced(opts, fingerprint, &mut report)?;
    } else {
        untraced(opts, &mut report)?;
    }
    Ok(report)
}

/// The simulated pass and the restart leg on one freshly built volume.
fn sim_and_restart(
    opts: &Options,
    mut trace: Option<&mut Trace>,
    report: &mut Report,
) -> Result<(SetupFacts, SimPass, Recovery), String> {
    let w = opts.workload;
    let Built {
        vol,
        cfg,
        population,
        mut clients,
        free_at_format,
        gen_s,
        populate_s,
    } = build(w, opts.seed, opts.sizing(), 1)?;
    let (sim, vol) = sim_pass(
        vol,
        &mut *clients[0],
        w.sim_ops(opts.sizing()),
        trace.as_deref_mut(),
    );
    let crash = match w {
        Workload::CrashBoot => Crash::TornForce(&mut *clients[0]),
        _ => Crash::Clean,
    };
    let rec = crash_and_recover(vol, cfg, &sim.listing, crash, opts.boots(), trace);

    report.attempted += sim.ops;
    report.absorb(sim.failed, &sim.first_error, "sim pass");
    report.absorb(rec.failed + rec.lost_acked, &rec.first_error, "restart");
    if rec.lost_acked > 0 {
        report.errors.push(format!(
            "restart: {} acknowledged files lost",
            rec.lost_acked
        ));
    }
    if sim.window.accounted_us() != sim.window.clock_us {
        report.failed += 1;
        report.errors.push(format!(
            "sim pass: seek+rotation+lost_rev+transfer+cpu = {} µs but the clock advanced {} µs",
            sim.window.accounted_us(),
            sim.window.clock_us
        ));
    }
    let built = SetupFacts {
        population,
        free_at_format,
        gen_s,
        populate_s,
    };
    Ok((built, sim, rec))
}

/// What outlives a [`Built`] once its volume has been consumed.
struct SetupFacts {
    population: Vec<Step>,
    free_at_format: u32,
    gen_s: f64,
    populate_s: f64,
}

/// The windowed engine pass on a freshly built volume, and its model
/// check (deferred by the caller until memory has been sampled).
fn engine_windows(
    opts: &Options,
    report: &mut Report,
) -> Result<(HostPass, Vec<Step>, f64), String> {
    let mut built = build(opts.workload, opts.seed, opts.sizing(), CLIENTS)?;
    let setup_s = built.setup_s();
    let host = host_pass(built.vol, &mut built.clients, opts.windows(), opts.trace)?;
    report.attempted += host.issued.iter().sum::<u64>();
    report.absorb(host.failed, &host.first_error, "host pass");
    Ok((host, built.population, setup_s))
}

/// Replays what every client issued into the model and compares.
fn check_host_model(opts: &Options, host: &HostPass, population: &[Step], report: &mut Report) {
    let issued = host.issued.iter().enumerate().flat_map(|(c, &n)| {
        let mut stream =
            opts.workload
                .client(opts.seed, opts.sizing(), population, c, host.issued.len());
        (0..n).map(move |_| stream.next_op().step)
    });
    check_model(report, "host pass", population, issued, &host.listing);
}

fn untraced(opts: &Options, report: &mut Report) -> Result<(), String> {
    // The host pass goes first and the high-water mark is read right
    // after it: the peak of a populated volume with an engine serving it.
    // Later the restart leg clones whole disks and the models hold every
    // file's bytes again; that memory is the harness's, and how much of
    // it the allocator hands back varies from run to run.
    let (host, host_population, host_setup_s) = engine_windows(opts, report)?;
    let rss_mb = peak_rss_mb();
    let (built, mut sim, rec) = sim_and_restart(opts, None, report)?;
    let mut setups = vec![host_setup_s, built.gen_s + built.populate_s];
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < MIN_SETUP_TIME_S)
    {
        setups.push(build(opts.workload, opts.seed, opts.sizing(), CLIENTS)?.setup_s());
    }

    check_model(
        report,
        "sim pass",
        &built.population,
        sim.steps.drain(..),
        &sim.listing,
    );
    check_host_model(opts, &host, &host_population, report);

    let ops = sim.ops;
    let d = &sim.window.disk;
    let p99 = tail(&mut sim.latencies_us, 0.99);
    report.notes.push(format!(
        "sim_op_p99_ms is the p{:.2} of {} calls (the highest percentile with ten samples beyond it)",
        p99.percentile * 100.0,
        p99.samples
    ));
    report.notes.push(format!(
        "host windows, ops/s: median {:.1}, interquartile spread {:.1} %, all {:?}",
        median(&host.window_ops_per_s),
        spread(&host.window_ops_per_s) * 100.0,
        host.window_ops_per_s
    ));
    report.notes.push(format!("set-ups, s: {setups:?}"));
    let live_bytes: u64 = sim.listing.iter().map(|i| i.bytes).sum();

    let setup = best(&setups, 1, false);
    let ops_per_s = best(&host.window_ops_per_s, BEST_WINDOWS, true);
    let mb_per_s = best(&host.window_mb_per_s, BEST_WINDOWS, true);
    report.set("setup_s", setup.value + host.start_ms / 1e3);
    report.set(
        "sim_ms_per_op",
        sim.window.clock_us as f64 / 1e3 / ops as f64,
    );
    report.set(
        "sim_mb_per_s",
        ratio(sim.created + sim.read, sim.window.clock_us),
    );
    report.set("sim_op_p99_ms", p99.value as f64 / 1e3);
    report.set("ios_per_op", ratio(d.total_ops(), ops));
    report.set(
        "write_amp",
        ratio(d.sectors_written, sim.created.div_ceil(SECTOR_BYTES_U64)),
    );
    report.set(
        "space_amp",
        ratio(
            (built.free_at_format - sim.free_at_end) as u64 * SECTOR_BYTES_U64,
            live_bytes,
        ),
    );
    report.set("host_ops_per_s", ops_per_s.value);
    report.set("host_mb_per_s", mb_per_s.value);
    report.set("host_rss_mb", rss_mb);
    report.set("sim_ttfr_s", (rec.boot_us + rec.first_read_us) as f64 / 1e6);
    report.set(
        "sim_ttfw_s",
        (rec.boot_us + rec.first_write_us) as f64 / 1e6,
    );

    report.spread.insert("setup_s", setup.lead);
    report.spread.insert("host_ops_per_s", ops_per_s.lead);
    report.spread.insert("host_mb_per_s", mb_per_s.lead);
    Ok(())
}

fn traced(opts: &Options, fingerprint: u64, report: &mut Report) -> Result<(), String> {
    let w = opts.workload;
    let mut trace = Trace::new();
    let (built, mut sim, rec) = sim_and_restart(opts, Some(&mut trace), report)?;

    // The same stream through the bare volume and through a one-client
    // engine: what the engine adds is the difference.
    let host_ops = w.sim_ops(opts.sizing()).min(TRACED_HOST_OPS);
    let mut fresh = build(w, opts.seed, opts.sizing(), 1)?;
    let volume = volume_pass(fresh.vol, &mut *fresh.clients[0], host_ops, &mut trace);
    report.absorb(volume.failed, &volume.first_error, "volume pass");
    let mut fresh = build(w, opts.seed, opts.sizing(), 1)?;
    let mut engine = engine_pass(fresh.vol, &mut *fresh.clients[0], host_ops, &mut trace)?;
    report.absorb(engine.failed, &engine.first_error, "engine pass");
    report.attempted += 2 * host_ops as u64;

    let micro = crate::micro::run(&mut trace, opts.sizing().div);

    let (host, host_population, _) = engine_windows(opts, report)?;
    for &(client, call) in &host.calls {
        trace.push(Span {
            op: call.op,
            pass: "host",
            layer: "fsd.engine",
            name: format!("fsd.engine.op.{}", VERBS[call.verb]),
            client,
            host_ns: (call.began_ns, call.ended_ns),
            ..Span::default()
        });
    }
    check_model(
        report,
        "sim pass",
        &built.population,
        sim.steps.drain(..),
        &sim.listing,
    );
    check_host_model(opts, &host, &host_population, report);

    let path = PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", w.name(), opts.seed));
    trace
        .write_jsonl(&path, w.name())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    report.notes.push(format!(
        "{} spans written to {}",
        trace.spans().len(),
        path.display()
    ));

    let ops = sim.ops;
    let per_op = |n: u64| ratio(n, ops);
    let ms_per_op = |us: u64| us as f64 / 1e3 / ops as f64;
    let win = &sim.window;
    let (d, c) = (&win.disk, &win.commit);
    report.set("disk.seek_ms_per_op", ms_per_op(d.seek_us));
    report.set("disk.rotation_ms_per_op", ms_per_op(d.rotation_us));
    report.set("disk.lost_rev_ms_per_op", ms_per_op(d.lost_rev_us));
    report.set("disk.transfer_ms_per_op", ms_per_op(d.transfer_us));
    report.set("disk.cpu_ms_per_op", ms_per_op(win.cpu_us));
    report.set("disk.reads_per_op", per_op(d.reads));
    report.set("disk.writes_per_op", per_op(d.writes));
    report.set("disk.seeks_per_op", per_op(d.seeks + d.short_seeks));
    report.set("disk.lost_revs_per_op", per_op(d.lost_revolutions));
    report.set(
        "disk.sectors_per_io",
        ratio(d.sectors_read + d.sectors_written, d.total_ops()),
    );
    report.set("disk.ios_log_per_op", per_op(win.regions[0]));
    report.set("disk.ios_nt_per_op", per_op(win.regions[1]));
    report.set("disk.ios_data_per_op", per_op(win.regions[2]));
    report.set("disk.ios_bootvam_per_op", per_op(win.regions[3]));
    report.set("disk.write_ns_per_sector", micro.disk_write_ns_per_sector);
    report.set("disk.read_ns_per_sector", micro.disk_read_ns_per_sector);

    report.set("btree.insert_ns", micro.btree_insert_ns);
    report.set("btree.get_ns", micro.btree_get_ns);
    report.set("btree.scan_ns_per_entry", micro.btree_scan_ns_per_entry);

    report.set("vol.runs_per_file", rec.runs_per_file);
    report.set(
        "vol.free_frac_end",
        ratio(sim.free_at_end as u64, built.free_at_format as u64),
    );

    let stall = tail(&mut sim.stall_us, 0.99);
    report.set("fsd.log.forces_per_op", per_op(c.forces));
    report.set("fsd.log.images_per_force", ratio(c.images_logged, c.forces));
    report.set(
        "fsd.log.sectors_per_record",
        ratio(c.log_sectors_written, c.records),
    );
    report.set("fsd.log.log_sectors_per_op", per_op(c.log_sectors_written));
    report.set(
        "fsd.log.third_flush_pages_per_op",
        per_op(c.third_flush_pages),
    );
    report.set("fsd.log.max_record_sectors", c.max_record_sectors as f64);
    report.set("fsd.log.force_stall_p99_ms", stall.value as f64 / 1e3);
    report.set("fsd.log.encode_ns_per_image", micro.log_encode_ns_per_image);
    report.notes.push(format!(
        "fsd.log.force_stall_p99_ms is the p{:.2} of {} calls that forced the log",
        stall.percentile * 100.0,
        stall.samples
    ));

    report.set("fsd.cache.nt_reads_per_op", per_op(sim.nt_reads));
    report.set(
        "fsd.cache.nt_home_writes_per_op",
        per_op(win.regions[1] - sim.nt_reads),
    );

    const VERB_SIM_MS: [&str; 5] = [
        "fsd.volume.create_sim_ms",
        "fsd.volume.open_sim_ms",
        "fsd.volume.read_sim_ms",
        "fsd.volume.delete_sim_ms",
        "fsd.volume.list_sim_ms",
    ];
    for (v, name) in VERB_SIM_MS.into_iter().enumerate() {
        report.set(name, ratio(sim.verb_us[v], sim.verb_calls[v]) / 1e3);
    }
    report.set(
        "fsd.volume.op_p50_sim_ms",
        median_u64(&mut sim.latencies_us) as f64 / 1e3,
    );
    let apply_us = mean(&volume.apply_ns) / 1e3;
    let force_us = mean(&volume.force_ns) / 1e3;
    report.set("fsd.volume.host_ops_per_s", ops as f64 / sim.wall_s);
    report.set("fsd.volume.apply_us_per_write", apply_us);
    report.set("fsd.volume.force_us", force_us);
    report.set("fsd.volume.read_us", mean(&volume.read_ns) / 1e3);

    let e = &host.engine;
    let mut writes: Vec<u64> = host
        .calls
        .iter()
        .filter(|(_, c)| matches!(VERBS[c.verb], "create" | "delete"))
        .map(|(_, c)| c.ended_ns - c.began_ns)
        .collect();
    let write_p99 = tail(&mut writes, 0.99);
    report.set(
        "fsd.engine.ops_per_epoch",
        ratio(e.write_ops + e.read_misses, e.epochs),
    );
    report.set("fsd.engine.batch_max", e.batch_max as f64);
    report.set(
        "fsd.engine.read_hit_ratio",
        if e.read_hits + e.read_misses == 0 {
            1.0
        } else {
            ratio(e.read_hits, e.read_hits + e.read_misses)
        },
    );
    report.set(
        "fsd.engine.write_p50_us",
        median_u64(&mut writes) as f64 / 1e3,
    );
    report.set("fsd.engine.write_p99_us", write_p99.value as f64 / 1e3);
    report.set(
        "fsd.engine.read_hit_p50_us",
        median_u64(&mut engine.read_ns) as f64 / 1e3,
    );
    report.set(
        "fsd.engine.read_miss_p50_us",
        median_u64(&mut engine.miss_ns) as f64 / 1e3,
    );
    report.set(
        "fsd.engine.self_us_per_write",
        mean(&engine.write_ns) / 1e3 - apply_us - force_us,
    );
    report.set("fsd.engine.start_ms", host.start_ms);
    report.set("fsd.engine.shutdown_ms", host.shutdown_ms);
    report.set(
        "fsd.engine.window_iqr_pct",
        spread(&host.window_ops_per_s) * 100.0,
    );
    report.notes.push(format!(
        "fsd.engine: {} read misses and {} hits in the measured windows; write_p99_us is the p{:.2} of {} calls",
        e.read_misses,
        e.read_hits,
        write_p99.percentile * 100.0,
        write_p99.samples
    ));

    let r = &rec.report;
    report.set("fsd.recovery.boot_s", rec.boot_us as f64 / 1e6);
    report.set("fsd.recovery.redo_s", r.redo_us as f64 / 1e6);
    report.set("fsd.recovery.vam_s", r.vam_us as f64 / 1e6);
    report.set(
        "fsd.recovery.other_s",
        rec.boot_us.saturating_sub(r.total_us()) as f64 / 1e6,
    );
    report.set("fsd.recovery.records_replayed", r.records_replayed as f64);
    report.set("fsd.recovery.images_redone", r.images_redone as f64);
    report.set("fsd.recovery.files_scanned", r.files_scanned as f64);
    report.set("fsd.recovery.rung", rung_number(r.rung));
    report.set("fsd.recovery.first_read_ms", rec.first_read_us as f64 / 1e3);
    report.set(
        "fsd.recovery.first_write_ms",
        rec.first_write_us as f64 / 1e3,
    );
    report.set("fsd.recovery.lost_acked_ops", rec.lost_acked as f64);
    report.set(
        "fsd.recovery.host_boot_ms",
        best(&rec.host_boot_ms, 1, false).value,
    );

    report.set("workload.gen_s", built.gen_s);
    report.set("workload.populate_s", built.populate_s);
    report.set("workload.fingerprint", fingerprint as f64);

    // Every traced (odd) window against the mean of the untraced windows
    // on either side of it, so a throughput that drifts over the pass
    // cancels; the median of those differences.
    let overheads: Vec<f64> = host
        .window_ops_per_s
        .windows(3)
        .step_by(2)
        .filter(|w| w[0] + w[2] > 0.0)
        .map(|w| (1.0 - w[1] / ((w[0] + w[2]) / 2.0)) * 100.0)
        .collect();
    report.set("trace.overhead_pct", median(&overheads));
    report.notes.push(format!(
        "host windows, ops/s (odd ones traced): {:?}",
        host.window_ops_per_s
    ));
    Ok(())
}

/// The run's detail as JSON: what `--out` writes and the all-workloads
/// driver merges.
pub fn detail(opts: &Options, report: &Report, units: &BTreeMap<String, String>) -> Json {
    let num = |n: f64| Json::Num(n);
    Json::obj([
        ("workload", Json::Str(opts.workload.name().into())),
        ("seed", num(opts.seed as f64)),
        ("trace", Json::Bool(opts.trace)),
        ("available_parallelism", num(parallelism() as f64)),
        ("clients", num(CLIENTS as f64)),
        ("attempted", num(report.attempted as f64)),
        ("failed", num(report.failed as f64)),
        ("metrics", metrics_json(report, units)),
        (
            "spread",
            Json::obj(report.spread.iter().map(|(&k, &v)| (k, num(v)))),
        ),
    ])
}

/// `{name: {"value": v, "unit": u}}` for every metric of the report.
pub fn metrics_json(report: &Report, units: &BTreeMap<String, String>) -> Json {
    Json::obj(report.metrics.iter().map(|(&name, &value)| {
        let unit = units.get(name).cloned().unwrap_or_default();
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::Str(unit))]),
        )
    }))
}
