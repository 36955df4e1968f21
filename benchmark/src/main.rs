//! Command line of the benchmark; `benchmark/run.sh` builds and execs it.

use cedar_benchmark::compare::compare;
use cedar_benchmark::decl::Declared;
use cedar_benchmark::gen::{Workload, DEFAULT_SEED};
use cedar_benchmark::json::Json;
use cedar_benchmark::run::{detail, metrics_json, run, Options, OUT_DIR};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  run.sh --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out FILE]
  run.sh [--seed N] [--seconds S] [--smoke] [--out FILE]      (every workload, untraced and traced)
  compare.sh A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => parsed.trace = matches!(value()?.as_str(), "1" | "true"),
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// One workload in this process. The last line printed is the result
/// object of the contract.
fn run_one(args: &Args, name: &str, declared: &Declared) -> Result<bool, String> {
    let workload = Workload::from_name(name).ok_or(format!("unknown workload {name}"))?;
    if !declared.workloads.iter().any(|w| w == name) {
        return Err(format!("workload {name} is not declared in BENCHMARK.json"));
    }
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 0.5 } else { 10.0 }),
        trace: args.trace,
        smoke: args.smoke,
    };
    let mut report = run(&opts)?;
    let section = if opts.trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    if let Some(m) = Declared::mismatch(section, report.metrics.keys().copied()) {
        report.failed += 1;
        report
            .errors
            .push(format!("metrics do not match BENCHMARK.json — {m}"));
    }

    let units = declared.units();
    println!(
        "# {name}  seed {}  trace {}{}",
        opts.seed,
        u8::from(opts.trace),
        if opts.smoke { "  (smoke)" } else { "" }
    );
    for (metric, value) in &report.metrics {
        println!(
            "{metric:<34} {value:>18.6} {}",
            units.get(*metric).map_or("", String::as_str)
        );
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for error in &report.errors {
        println!("# FAILED {error}");
    }
    if let Some(path) = &args.out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, format!("{}\n", detail(&opts, &report, &units)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let correct = report.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(report.attempted.max(1) as f64)),
            ("failed", Json::Num(report.failed as f64)),
            ("metrics", metrics_json(&report, &units)),
        ])
    );
    Ok(correct)
}

/// Every declared workload, untraced then traced, each in a process of
/// its own (peak memory is per workload); merges their details into one
/// results file.
fn run_all(args: &Args, declared: &Declared) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    let mut shared = Vec::new();
    for name in &declared.workloads {
        let mut merged = vec![];
        for trace in [false, true] {
            let part =
                PathBuf::from(OUT_DIR).join(format!("part-{name}-trace{}.json", u8::from(trace)));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()]);
            cmd.args(["--trace", if trace { "1" } else { "0" }]);
            cmd.arg("--out").arg(&part);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.smoke {
                cmd.arg("--smoke");
            }
            let status = cmd
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_correct &= status.success();
            let text =
                std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
            let doc = Json::parse(&text)?;
            let _ = std::fs::remove_file(&part);
            let take = |key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
            if trace {
                merged.push(("per_layer", take("metrics")));
            } else {
                shared = vec![
                    ("available_parallelism", take("available_parallelism")),
                    ("clients", take("clients")),
                ];
                merged.extend([
                    ("attempted", take("attempted")),
                    ("failed", take("failed")),
                    ("end_to_end", take("metrics")),
                    ("spread", take("spread")),
                ]);
            }
        }
        workloads.push((name.clone(), Json::obj(merged)));
    }
    let mut doc = vec![
        ("seed", Json::Num(args.seed as f64)),
        ("smoke", Json::Bool(args.smoke)),
    ];
    doc.extend(shared);
    doc.push(("workloads", Json::Obj(workloads)));
    // The benchmark's defining change measures; it claims no gain.
    doc.push(("claim", Json::Null));
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(OUT_DIR).join(format!("results-seed{}.json", args.seed)));
    std::fs::write(&out, format!("{}\n", Json::obj(doc)))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# results written to {}", out.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        match argv.as_slice() {
            [_, a, b] => compare(a, b),
            _ => Err(USAGE.to_string()),
        }
    } else {
        parse(&argv).and_then(|args| {
            let declared = Declared::load()?;
            match &args.workload {
                Some(name) => run_one(&args, name, &declared),
                None => run_all(&args, &declared),
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cedar-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
