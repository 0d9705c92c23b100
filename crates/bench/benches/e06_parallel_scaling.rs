//! E6 — Distributed/parallel inference scaling (§4.1, [10–12]).
//!
//! Claim operationalised: because fusion is a commutative monoid, the
//! reduce distributes — inference throughput scales with workers, and the
//! result is bit-identical to the sequential fold. The parallel side is
//! the engine `jsonx infer` runs: `Run::infer` over the corpus rendered as
//! NDJSON, typed in place per chunk and fused in input order. Prints the
//! scaling series and benches 1/2/4/8 workers.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use jsonx::{Run, Source};
use jsonx_bench::{banner, criterion};
use jsonx_core::{infer_collection, Equivalence, JType};
use jsonx_gen::Corpus;
use std::time::{Duration, Instant};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// The product's inference of `text` at `workers` workers.
fn engine_infer(text: &str, workers: usize) -> JType {
    let run = Run {
        workers,
        ..Run::default()
    };
    let (ty, _) = run
        .infer(Source::slice(text), Equivalence::Kind)
        .expect("the rendered corpus is clean NDJSON");
    ty
}

/// The fastest of five runs of `f`: scheduling noise only ever adds time.
fn best_of_five<T>(mut f: impl FnMut() -> T) -> Duration {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed()
        })
        .min()
        .expect("five runs")
}

fn main() {
    banner(
        "E6",
        "parallel inference: speedup over workers, identical results (map/reduce)",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("hardware parallelism available: {cores} core(s)");
    let docs = Corpus::Github.generate(40_000);
    let text = jsonx_syntax::write_ndjson(&docs);
    println!(
        "collection: {} documents, {:.1} MiB of NDJSON\n",
        docs.len(),
        text.len() as f64 / (1024.0 * 1024.0)
    );
    let sequential = infer_collection(&docs, Equivalence::Kind);
    for workers in WORKERS {
        assert_eq!(
            engine_infer(&text, workers),
            sequential,
            "Run::infer at {workers} workers must equal infer_collection"
        );
    }
    println!("Run::infer == infer_collection at workers {WORKERS:?}\n");

    let times = WORKERS.map(|workers| best_of_five(|| engine_infer(&text, workers)));
    let base = times[0];
    println!(
        "{:>8} {:>12} {:>10} {:>9}",
        "workers", "best of 5", "MiB/s", "speedup"
    );
    for (workers, time) in WORKERS.into_iter().zip(times) {
        println!(
            "{:>8} {:>12.2?} {:>10.1} {:>8.2}x",
            workers,
            time,
            text.len() as f64 / (1024.0 * 1024.0) / time.as_secs_f64(),
            base.as_secs_f64() / time.as_secs_f64()
        );
    }

    let mut c: Criterion = criterion();
    let mut group = c.benchmark_group("e06_parallel");
    group.throughput(Throughput::Bytes(text.len() as u64));
    for workers in WORKERS {
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            b.iter(|| engine_infer(black_box(&text), w))
        });
    }
    group.finish();
    c.final_summary();
}
