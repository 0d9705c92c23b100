//! E17 — Fault tolerance: error-policy overhead and dirty-corpus
//! throughput.
//!
//! Two claims operationalised on the guarded streaming pipeline:
//!
//! 1. Fault tolerance is close to free on clean data: routing streaming
//!    inference through the guarded engine (per-record policy checks,
//!    per-shard error summaries, `catch_unwind` isolation) costs only a
//!    small constant factor over the legacy fail-fast path, for both the
//!    `FailFast` and `Skip` policies.
//! 2. Dirty corpora degrade gracefully instead of dying: with 1% of
//!    records corrupted, `Skip` streams the surviving 99% at a rate
//!    comparable to clean-corpus throughput, infers exactly the type a
//!    fail-fast run infers over the prefiltered twin, and accounts for
//!    every rejected record — while fail-fast aborts on the first bad
//!    line, timing how quickly the error surfaces.
//!
//! Prints timing tables over 100k GitHub-style events, writes
//! `BENCH_fault_tolerance.json`, and benches the policy paths under
//! Criterion.

use criterion::{black_box, Criterion, Throughput};
use jsonx::core::Equivalence;
use jsonx::syntax::{to_string, to_string_pretty};
use jsonx::{ErrorPolicy, FaultOptions, ParseLimits, Run, RunReport, Source, StreamError};
use jsonx_bench::{banner, criterion};
use jsonx_data::{json, Value};
use jsonx_gen::{dirty_ndjson, Corpus, DirtyConfig};
use std::time::Instant;

fn to_ndjson(docs: &[Value]) -> String {
    let mut out = String::new();
    for d in docs {
        out.push_str(&to_string(d));
        out.push('\n');
    }
    out
}

fn docs_per_sec(n: usize, elapsed: std::time::Duration) -> f64 {
    n as f64 / elapsed.as_secs_f64()
}

fn skip_policy() -> FaultOptions {
    FaultOptions {
        policy: ErrorPolicy::Skip { max_errors: None },
        keep_rejects: false,
        limits: ParseLimits::default(),
    }
}

/// Single-worker streaming inference under `fault`.
fn infer(
    ndjson: &str,
    fault: FaultOptions,
) -> Result<(jsonx::core::JType, RunReport), StreamError> {
    let run = Run {
        workers: 1,
        fault,
        ..Run::default()
    };
    run.infer(Source::slice(ndjson), Equivalence::Kind)
}

fn main() {
    banner(
        "E17",
        "fault tolerance: error-policy overhead, dirty-corpus throughput",
    );

    // ---- Part 1: policy overhead on a clean corpus --------------------
    let docs = Corpus::Github.generate(100_000);
    let ndjson = to_ndjson(&docs);
    println!(
        "clean collection: {} documents, {:.1} MiB of NDJSON\n",
        docs.len(),
        ndjson.len() as f64 / (1024.0 * 1024.0)
    );

    // Warm up both paths before timing anything: the first pass over a
    // ~40 MiB corpus pays page faults and cache population that have
    // nothing to do with the policy layer, and charging them to whichever
    // variant happens to run first inflated its "overhead" by ~20 points.
    black_box(infer(&ndjson, FaultOptions::default()).expect("clean"));
    black_box(infer(&ndjson, skip_policy()).expect("clean"));

    // Since the run-plan collapse there is one fail-fast path, so the
    // "legacy" and "guarded" fail-fast rows time the same code: their
    // difference is this harness's noise floor, which is what the skip
    // row's overhead has to be read against.
    let t = Instant::now();
    let (legacy_ty, _) = infer(&ndjson, FaultOptions::default()).expect("clean");
    let legacy_time = t.elapsed();
    let legacy_rate = docs_per_sec(docs.len(), legacy_time);

    println!(
        "{:>24} {:>12} {:>14} {:>10}",
        "clean-corpus path", "time", "docs/sec", "overhead"
    );
    println!(
        "{:>24} {:>12.2?} {:>14.0} {:>10}",
        "legacy fail-fast", legacy_time, legacy_rate, "--"
    );
    let mut clean_rates = vec![("legacy_failfast", legacy_rate)];
    for (label, key, fault) in [
        (
            "guarded fail-fast",
            "guarded_failfast",
            FaultOptions::default(),
        ),
        ("guarded skip", "guarded_skip", skip_policy()),
    ] {
        let t = Instant::now();
        let (ty, report) = infer(&ndjson, fault).expect("clean");
        let elapsed = t.elapsed();
        assert_eq!(ty, legacy_ty, "guarded type must equal legacy type");
        assert_eq!(report.errors.total, 0, "clean corpus rejects nothing");
        let rate = docs_per_sec(docs.len(), elapsed);
        println!(
            "{:>24} {:>12.2?} {:>14.0} {:>9.1}%",
            label,
            elapsed,
            rate,
            (legacy_rate / rate - 1.0) * 100.0
        );
        clean_rates.push((key, rate));
    }

    // ---- Part 2: throughput on a 1%-corrupted corpus ------------------
    let dirty = dirty_ndjson(&DirtyConfig {
        seed: 17,
        docs: 100_000,
        corruption_rate: 0.01,
        blank_rate: 0.0,
        ..DirtyConfig::default()
    });
    let bad = dirty.bad_lines.len();
    println!(
        "\ndirty collection: 100000 records ({:.1} MiB — smaller records than\nthe GitHub corpus, so rates are not comparable across the two tables),\n{bad} corrupted ({:.2}%)\n",
        dirty.text.len() as f64 / (1024.0 * 1024.0),
        bad as f64 / 1000.0
    );

    let t = Instant::now();
    let failfast_err =
        infer(&dirty.text, FaultOptions::default()).expect_err("dirty corpus must fail fast");
    let abort_time = t.elapsed();

    let t = Instant::now();
    let (skip_ty, report) = infer(&dirty.text, skip_policy()).expect("skip survives");
    let skip_time = t.elapsed();
    let (reference, _) = infer(&dirty.clean_text, FaultOptions::default()).expect("clean");
    assert_eq!(
        skip_ty, reference,
        "skip type == prefiltered fail-fast type"
    );
    assert_eq!(report.errors.total, bad, "every corrupt record accounted");
    let skip_rate = docs_per_sec(100_000, skip_time);

    println!(
        "{:>24} {:>12} {:>14}",
        "dirty-corpus path", "time", "docs/sec"
    );
    println!(
        "{:>24} {:>12.2?} {:>14}   (error: {:.40}...)",
        "fail-fast abort",
        abort_time,
        "--",
        failfast_err.to_string()
    );
    println!(
        "{:>24} {:>12.2?} {:>14.0}   ({} rejected, type == prefiltered)",
        "skip", skip_time, skip_rate, bad
    );

    let mut clean_obj = jsonx_data::Object::new();
    for (key, rate) in &clean_rates {
        clean_obj.insert((*key).to_string(), json!(*rate as i64));
    }
    let report_doc = json!({
        "experiment": "E17",
        "documents": 100_000,
        "clean_docs_per_sec": Value::Obj(clean_obj),
        "guarded_failfast_overhead_pct":
            ((legacy_rate / clean_rates[1].1 - 1.0) * 100.0),
        "guarded_skip_overhead_pct":
            ((legacy_rate / clean_rates[2].1 - 1.0) * 100.0),
        "dirty_corrupted_records": (bad as i64),
        "dirty_skip_docs_per_sec": (skip_rate as i64)
    });
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_fault_tolerance.json"
    );
    std::fs::write(path, to_string_pretty(&report_doc) + "\n")
        .expect("write BENCH_fault_tolerance.json");
    println!("\nwrote {path}");

    let mut c: Criterion = criterion();
    let mut group = c.benchmark_group("e17_fault_tolerance");
    let small = to_ndjson(&Corpus::Github.generate(8_000));
    let small_dirty = dirty_ndjson(&DirtyConfig {
        seed: 17,
        docs: 8_000,
        corruption_rate: 0.01,
        blank_rate: 0.0,
        ..DirtyConfig::default()
    });
    group.throughput(Throughput::Elements(8_000));
    group.bench_function("legacy_failfast_clean", |b| {
        b.iter(|| infer(black_box(&small), FaultOptions::default()))
    });
    group.bench_function("guarded_failfast_clean", |b| {
        b.iter(|| infer(black_box(&small), FaultOptions::default()))
    });
    group.bench_function("guarded_skip_clean", |b| {
        b.iter(|| infer(black_box(&small), skip_policy()))
    });
    group.bench_function("guarded_skip_dirty_1pct", |b| {
        b.iter(|| infer(black_box(&small_dirty.text), skip_policy()))
    });
    group.finish();
    c.final_summary();
}
