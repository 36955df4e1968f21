//! The host-clock passes: closed-loop client threads against an unpaced
//! `FsdEngine`, counted in fixed wall-clock windows; and, for the traced
//! run, the same stream through the bare volume and through a one-client
//! engine so the engine's own time can be told from the volume's.

use crate::exec::{execute, is_write, verb, VERBS};
use crate::gen::Generator;
use crate::stats::Windows;
use crate::trace::{Span, Trace};
use cedar_disk::Micros;
use cedar_fsd::{EngineConfig, EngineStats, FsdEngine, FsdVolume};
use cedar_vol::fs::{FileInfo, FileSystem, SyncFs};
use cedar_workload::Step;
use std::time::{Duration, Instant};

/// CPUs this process may run on; printed with every host number.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One client call recorded in a traced window.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    pub op: u64,
    pub verb: usize,
    pub began_ns: u64,
    pub ended_ns: u64,
}

/// What one client thread counted.
struct ClientTally {
    ops: Vec<u64>,
    bytes: Vec<u64>,
    issued: u64,
    failed: u64,
    first_error: Option<String>,
    calls: Vec<Call>,
}

/// What the windowed engine pass measured.
#[derive(Debug, Default)]
pub struct HostPass {
    /// Per window: ops that began and completed inside it, per second,
    /// and user MB created + read per second.
    pub window_ops_per_s: Vec<f64>,
    pub window_mb_per_s: Vec<f64>,
    /// Ops each client issued over the whole pass (warm-up included), for
    /// the model to replay.
    pub issued: Vec<u64>,
    pub failed: u64,
    pub first_error: Option<String>,
    /// Engine counters over the measured windows only.
    pub engine: EngineStats,
    pub start_ms: f64,
    pub shutdown_ms: f64,
    pub listing: Vec<FileInfo>,
    /// Calls of the traced (odd) windows, all clients.
    pub calls: Vec<(usize, Call)>,
}

fn stats_since(now: EngineStats, then: EngineStats) -> EngineStats {
    EngineStats {
        ops: now.ops - then.ops,
        write_ops: now.write_ops - then.write_ops,
        read_hits: now.read_hits - then.read_hits,
        read_misses: now.read_misses - then.read_misses,
        epochs: now.epochs - then.epochs,
        log_forces: now.log_forces - then.log_forces,
        // A running maximum, not a sum.
        batch_max: now.batch_max,
    }
}

fn sleep_until(deadline: Instant) {
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
}

/// Starts an engine on `vol` and drives it from one thread per stream,
/// each issuing its next op as soon as the last returns, until the last
/// window closes. When `traced`, every odd window also records each
/// call; the even windows stay untraced, so one pass yields both sides
/// of the tracing-overhead comparison.
pub fn host_pass(
    vol: FsdVolume,
    streams: &mut [Box<dyn Generator>],
    windows: Windows,
    traced: bool,
) -> Result<HostPass, String> {
    let mut pass = HostPass::default();
    let began = Instant::now();
    let engine = FsdEngine::start(vol, EngineConfig::default()).map_err(|e| e.to_string())?;
    pass.start_ms = began.elapsed().as_secs_f64() * 1e3;

    let origin = Instant::now();
    let ns = |at: Instant| at.duration_since(origin).as_nanos() as u64;
    let (tallies, during) = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                let engine = &engine;
                scope.spawn(move || {
                    let mut tally = ClientTally {
                        ops: vec![0; windows.count],
                        bytes: vec![0; windows.count],
                        issued: 0,
                        failed: 0,
                        first_error: None,
                        calls: Vec::with_capacity(if traced { 1 << 16 } else { 0 }),
                    };
                    loop {
                        let started = ns(Instant::now());
                        if started >= windows.end_ns() {
                            return tally;
                        }
                        let op = stream.next_op();
                        let outcome = execute(engine, &op);
                        let finished = ns(Instant::now());
                        tally.issued += 1;
                        match outcome {
                            Ok(done) => {
                                if let Some(w) = windows.index(started, finished) {
                                    tally.ops[w] += 1;
                                    tally.bytes[w] += done.bytes();
                                    if traced && w % 2 == 1 {
                                        tally.calls.push(Call {
                                            op: tally.issued - 1,
                                            verb: verb(&op.step),
                                            began_ns: ns(done.began),
                                            ended_ns: ns(done.ended),
                                        });
                                    }
                                }
                            }
                            Err(e) => {
                                tally.failed += 1;
                                tally.first_error.get_or_insert(e);
                            }
                        }
                    }
                })
            })
            .collect();
        sleep_until(origin + Duration::from_nanos(windows.warmup_ns));
        let at_warm = engine.engine_stats();
        sleep_until(origin + Duration::from_nanos(windows.end_ns()));
        let at_end = engine.engine_stats();
        let tallies: Vec<ClientTally> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (tallies, stats_since(at_end, at_warm))
    });
    pass.engine = during;

    let window_s = windows.len_ns as f64 / 1e9;
    for w in 0..windows.count {
        let ops: u64 = tallies.iter().map(|t| t.ops[w]).sum();
        let bytes: u64 = tallies.iter().map(|t| t.bytes[w]).sum();
        pass.window_ops_per_s.push(ops as f64 / window_s);
        pass.window_mb_per_s.push(bytes as f64 / 1e6 / window_s);
    }
    for (client, tally) in tallies.into_iter().enumerate() {
        pass.issued.push(tally.issued);
        pass.failed += tally.failed;
        if pass.first_error.is_none() {
            pass.first_error = tally.first_error;
        }
        pass.calls
            .extend(tally.calls.into_iter().map(|c| (client, c)));
    }

    let closing = engine.sync().and_then(|_| engine.list(""));
    match closing {
        Ok(listing) => pass.listing = listing,
        Err(e) => {
            pass.failed += 1;
            pass.first_error.get_or_insert(format!("final list: {e}"));
        }
    }
    let began = Instant::now();
    engine.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    pass.shutdown_ms = began.elapsed().as_secs_f64() * 1e3;
    Ok(pass)
}

/// Host ns of the calls of a traced single-client pass.
#[derive(Debug, Default)]
pub struct CallTimes {
    /// Bare volume: applying a write, and the force after it.
    pub apply_ns: Vec<u64>,
    pub force_ns: Vec<u64>,
    /// Bare volume: a whole read. Engine: a read served from its caches.
    pub read_ns: Vec<u64>,
    /// Engine: a whole write (apply + force + the engine's own work).
    pub write_ns: Vec<u64>,
    /// Engine: a read that had to queue for the log writer.
    pub miss_ns: Vec<u64>,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl CallTimes {
    fn fail(&mut self, e: String) {
        self.failed += 1;
        self.first_error.get_or_insert(e);
    }
}

/// The first `ops` ops of `stream` against the bare volume with its
/// commit daemon off (as the engine runs it) and a force after every
/// write: each write is an `op` span with an `fsd.volume.apply` and an
/// `fsd.volume.force` child.
pub fn volume_pass(
    mut vol: FsdVolume,
    stream: &mut dyn Generator,
    ops: usize,
    trace: &mut Trace,
) -> CallTimes {
    let mut times = CallTimes::default();
    vol.set_commit_interval(Micros::MAX);
    let clock = vol.clock();
    let fs = SyncFs::new(vol);
    for i in 0..ops as u64 {
        let op = stream.next_op();
        let name = format!("op.{}", VERBS[verb(&op.step)]);
        let sim_start = clock.now();
        let done = match execute(&fs, &op) {
            Ok(done) => done,
            Err(e) => {
                times.fail(e);
                continue;
            }
        };
        let sim_applied = clock.now();
        let (began, applied) = (trace.host_ns_at(done.began), trace.host_ns_at(done.ended));
        let span = Span {
            op: i,
            pass: "volume",
            layer: "fsd.volume",
            ..Span::default()
        };
        if !is_write(&op.step) {
            if matches!(op.step, Step::Read { .. }) {
                times.read_ns.push(applied - began);
            }
            trace.push(Span {
                name,
                sim_us: (sim_start, sim_applied),
                host_ns: (began, applied),
                ..span
            });
            continue;
        }
        let force_began = Instant::now();
        let forced = fs.with(|v| v.force());
        let (force_began, force_ended) = (trace.host_ns_at(force_began), trace.host_ns());
        if let Err(e) = forced {
            times.fail(format!("force: {e}"));
        }
        times.apply_ns.push(applied - began);
        times.force_ns.push(force_ended - force_began);
        let sim_end = clock.now();
        let parent = trace.push(Span {
            name,
            sim_us: (sim_start, sim_end),
            host_ns: (began, force_ended),
            ..span.clone()
        });
        trace.push(Span {
            parent,
            name: "fsd.volume.apply".into(),
            sim_us: (sim_start, sim_applied),
            host_ns: (began, applied),
            ..span.clone()
        });
        trace.push(Span {
            parent,
            name: "fsd.volume.force".into(),
            sim_us: (sim_applied, sim_end),
            host_ns: (force_began, force_ended),
            ..span
        });
    }
    times
}

/// The same first `ops` ops from one client through an engine: one
/// `fsd.engine.op.<verb>` span a call. With a lone client every read's
/// hit or miss can be read off the engine's counters around the call.
pub fn engine_pass(
    vol: FsdVolume,
    stream: &mut dyn Generator,
    ops: usize,
    trace: &mut Trace,
) -> Result<CallTimes, String> {
    let mut times = CallTimes::default();
    let began = Instant::now();
    let engine = FsdEngine::start(vol, EngineConfig::default()).map_err(|e| e.to_string())?;
    let span = Span {
        pass: "engine",
        layer: "fsd.engine",
        ..Span::default()
    };
    trace.push(Span {
        name: "fsd.engine.start".into(),
        host_ns: (trace.host_ns_at(began), trace.host_ns()),
        ..span.clone()
    });
    for i in 0..ops as u64 {
        let op = stream.next_op();
        let misses_before = engine.engine_stats().read_misses;
        let done = match execute(&engine, &op) {
            Ok(done) => done,
            Err(e) => {
                times.fail(e);
                continue;
            }
        };
        let missed = engine.engine_stats().read_misses > misses_before;
        if is_write(&op.step) {
            times.write_ns.push(done.call_ns());
        } else if missed {
            times.miss_ns.push(done.call_ns());
        } else if matches!(op.step, Step::Read { .. }) {
            times.read_ns.push(done.call_ns());
        }
        trace.push(Span {
            op: i,
            name: format!("fsd.engine.op.{}", VERBS[verb(&op.step)]),
            host_ns: (trace.host_ns_at(done.began), trace.host_ns_at(done.ended)),
            counters: vec![("read_miss", u64::from(missed))],
            ..span.clone()
        });
    }
    engine.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(times)
}
