//! `benchmark` — the measurement harness for `jsonx`.
//!
//! ```text
//! benchmark run     [--seed N] [--workload NAME] [--seconds S] [--trace 0|1] [--smoke]
//! benchmark trace   [--seed N] [--workload NAME] [--seconds S] [--smoke]
//! benchmark compare A.json B.json
//! ```
//!
//! `run` builds `target/release/jsonx`, generates the workloads from the
//! seed, measures, checks every output, prints every metric by name with
//! its unit and writes `benchmark/out/result-<seed>.json`. Without
//! `--trace` it measures both the end-to-end metrics (tracing off) and
//! the per-layer metrics (a separate traced pass); `--trace 0` / `--trace
//! 1` pick one. With `--workload` the last stdout line is the result as
//! one JSON object. `trace` is `run --trace 1`. The exit code is non-zero
//! when any output check failed.

mod e2e;
mod layers;
mod metrics;
mod probe;
mod proc;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use e2e::{Env, Ops};
use report::WorkloadResult;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Scale;

/// `run_seconds` of `BENCHMARK.json`: what a run measures for when
/// `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 28.0;
/// What `--smoke` measures for when `--seconds` is not given.
const SMOKE_SECONDS: f64 = 2.0;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str =
    "usage: benchmark run [--seed N] [--workload NAME] [--seconds S] [--trace 0|1] [--smoke]
       benchmark trace [--seed N] [--workload NAME] [--seconds S] [--smoke]
       benchmark compare A.json B.json
workloads: events, wide, tiny, dirty-skew";

/// Which passes a run makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Passes {
    EndToEnd,
    Layers,
    Both,
}

struct RunArgs {
    seed: u64,
    workload: Option<String>,
    seconds: f64,
    passes: Passes,
    smoke: bool,
}

fn parse_run_args(args: &[String], passes: Passes) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        seed: 1,
        workload: None,
        seconds: 0.0,
        passes,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--workload" => {
                let name = value()?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload '{name}'"));
                }
                run.workload = Some(name.clone());
            }
            "--seconds" => {
                run.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                run.passes = match value()?.as_str() {
                    "0" => Passes::EndToEnd,
                    "1" => Passes::Layers,
                    other => return Err(format!("bad --trace '{other}' (use 0 or 1)")),
                }
            }
            "--smoke" => run.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if run.seconds == 0.0 {
        run.seconds = if run.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    Ok(run)
}

/// Scratch directory of one workload, removed again on success.
fn scratch_dir(out: &Path, workload: &str) -> Result<PathBuf, String> {
    let dir = out.join(format!("work-{workload}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_workload(
    jsonx: &Path,
    out: &Path,
    name: &str,
    args: &RunArgs,
) -> Result<WorkloadResult, String> {
    let env = Env {
        jsonx: jsonx.to_path_buf(),
        placement: proc::Placement::detect(),
        out: scratch_dir(out, name)?,
    };
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let mut ops = Ops::default();

    // Set-up: generate, write, derive schema and references. Repeated so
    // `setup_s` is a median, like the other timings; every repetition
    // rebuilds the same files. The end-to-end pass reads each against the
    // reference process.
    let warm_up = if args.smoke {
        Duration::ZERO
    } else {
        probe::WARM_UP
    };
    let mut gauge = match args.passes {
        Passes::Layers => None,
        _ => Some(probe::Gauge::new(&env.out, warm_up)?),
    };
    let setups = match (&gauge, args.smoke) {
        (None, _) | (_, true) => 1,
        _ => SETUPS,
    };
    let mut setup = e2e::Samples::default();
    let mut prepared = None;
    for _ in 0..setups {
        let mut set_up = || {
            let t0 = Instant::now();
            let generated = workloads::generate(name, args.seed, scale)
                .ok_or_else(|| format!("unknown workload '{name}'"))?;
            let p = e2e::prepare(&env, generated, &mut ops)?;
            Ok::<_, String>((p, t0.elapsed().as_secs_f64()))
        };
        let ((p, wall), speed) = match &mut gauge {
            Some(gauge) => {
                let (done, speed) = gauge.around(set_up)?;
                (done?, speed)
            }
            None => (set_up()?, 1.0),
        };
        setup.push_seconds("setup_s", wall, speed);
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up ran");

    let mut result = WorkloadResult {
        name: p.name,
        corpus: report::corpus_facts(&p),
        e2e: Default::default(),
        layers: Default::default(),
        ops: Ops::default(),
    };
    if let Some(gauge) = &mut gauge {
        let samples = e2e::measure(&env, &p, gauge, args.seconds, args.smoke, &mut ops)?;
        result.e2e = samples.summaries();
        result.e2e.extend(setup.summaries());
        result
            .e2e
            .insert("machine_speed", Summary::of(&gauge.speeds));
    }
    if args.passes != Passes::EndToEnd {
        let (metrics, spans) = layers::measure(&env, &p, args.seconds, args.smoke, &mut ops)?;
        result.layers = metrics;
        let path = out.join(format!("trace-{name}.json"));
        std::fs::write(&path, trace::spans_to_json(name, &spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    result.ops = ops;
    if result.ops.failed == 0 {
        let _ = std::fs::remove_dir_all(&env.out);
    }
    Ok(result)
}

fn cmd_run(args: RunArgs) -> Result<bool, String> {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = bench_dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let (jsonx, build) = proc::build_jsonx()?;
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => workloads::NAMES.to_vec(),
    };
    let mut results = Vec::new();
    for name in names {
        let result = run_workload(&jsonx, &out, name, &args)?;
        result.print_table();
        results.push(result);
    }
    let repo = bench_dir.parent().unwrap_or(bench_dir);
    let document = report::result_document(
        report::machine(repo),
        args.seed,
        args.seconds,
        args.smoke,
        build.as_secs_f64(),
        &results,
    );
    let path = out.join(format!("result-{}.json", args.seed));
    std::fs::write(&path, document).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    if let (Some(_), [only]) = (&args.workload, results.as_slice()) {
        println!("{}", only.contract_line(args.passes == Passes::Layers));
    }
    Ok(results.iter().all(WorkloadResult::correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(proc::LAUNCHER) => {
            return match proc::launcher_main(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("benchmark {}: {e}", proc::LAUNCHER);
                    ExitCode::from(2)
                }
            };
        }
        Some(probe::PROBE) => {
            return match probe::probe_main(&args[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("benchmark {}: {e}", probe::PROBE);
                    ExitCode::from(2)
                }
            };
        }
        Some("run") => parse_run_args(&args[1..], Passes::Both).and_then(cmd_run),
        Some("trace") => parse_run_args(&args[1..], Passes::Layers).and_then(cmd_run),
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(a, b),
            _ => Err(USAGE.to_string()),
        },
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
