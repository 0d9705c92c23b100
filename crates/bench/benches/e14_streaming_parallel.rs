//! E14 — Sharded zero-copy streaming inference (§4.1 massive collections).
//!
//! Claim operationalised: typing NDJSON straight off the event stream —
//! no DOM per document, `Cow`-borrowed strings, interned field names —
//! beats the parse-then-infer pipeline on the same input, and newline
//! sharding distributes it across workers with bit-identical results.
//! Prints a scaling table over 100k documents and benches the DOM
//! pipeline against streaming at 1/2/4/8 workers.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use jsonx::{Run, Source};
use jsonx_bench::{banner, criterion};
use jsonx_core::{infer_collection, Equivalence};
use jsonx_gen::Corpus;
use jsonx_syntax::{parse_ndjson, to_string};
use std::time::Instant;

fn to_ndjson(docs: &[jsonx_data::Value]) -> String {
    let mut out = String::new();
    for d in docs {
        out.push_str(&to_string(d));
        out.push('\n');
    }
    out
}

/// Fail-fast streaming inference at `workers` threads.
fn infer_streaming(ndjson: &str, workers: usize) -> jsonx_core::JType {
    let run = Run {
        workers,
        ..Run::default()
    };
    let (ty, _) = run
        .infer(Source::slice(ndjson), Equivalence::Kind)
        .expect("valid NDJSON");
    ty
}

fn main() {
    banner(
        "E14",
        "streaming inference: DOM-free typing, newline sharding, identical results",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("hardware parallelism available: {cores} core(s)");
    if cores == 1 {
        println!("NOTE: single-core substrate — shard-transparency (identical results");
        println!("at every worker count) is the measurable claim here; wall-clock");
        println!("speedup from sharding requires multi-core hardware.\n");
    }
    let docs = Corpus::Github.generate(100_000);
    let ndjson = to_ndjson(&docs);
    println!(
        "collection: {} documents, {:.1} MiB of NDJSON\n",
        docs.len(),
        ndjson.len() as f64 / (1024.0 * 1024.0)
    );

    // Reference: the DOM pipeline over the same bytes (parse + infer).
    let warm_up = ndjson[..ndjson.len() / 16].rfind('\n').map_or(0, |i| i + 1);
    let _ = infer_streaming(&ndjson[..warm_up], 1);
    let t = Instant::now();
    let dom_docs = parse_ndjson(&ndjson).expect("valid NDJSON");
    let dom = infer_collection(&dom_docs, Equivalence::Kind);
    let dom_time = t.elapsed();
    drop(dom_docs);

    let t = Instant::now();
    let streamed = infer_streaming(&ndjson, 1);
    let stream_time = t.elapsed();
    assert_eq!(streamed, dom, "streaming must match the DOM pipeline");

    println!(
        "{:>12} {:>12} {:>14} {:>10}",
        "path", "time", "vs DOM", "identical"
    );
    println!(
        "{:>12} {:>12.2?} {:>13.2}x {:>10}",
        "dom", dom_time, 1.0, "-"
    );
    println!(
        "{:>12} {:>12.2?} {:>13.2}x {:>10}",
        "stream seq",
        stream_time,
        dom_time.as_secs_f64() / stream_time.as_secs_f64(),
        streamed == dom
    );
    for workers in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let par = infer_streaming(&ndjson, workers);
        let elapsed = t.elapsed();
        println!(
            "{:>12} {:>12.2?} {:>13.2}x {:>10}",
            format!("workers={workers}"),
            elapsed,
            dom_time.as_secs_f64() / elapsed.as_secs_f64(),
            par == dom
        );
        assert_eq!(par, dom, "sharded result must be identical");
    }

    let mut c: Criterion = criterion();
    let mut group = c.benchmark_group("e14_streaming");
    let small = to_ndjson(&Corpus::Github.generate(8_000));
    group.throughput(Throughput::Bytes(small.len() as u64));
    group.bench_function("dom_pipeline", |b| {
        b.iter(|| {
            let docs = parse_ndjson(black_box(&small)).unwrap();
            infer_collection(&docs, Equivalence::Kind)
        })
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("stream_workers", workers),
            &workers,
            |b, &w| b.iter(|| infer_streaming(black_box(&small), w)),
        );
    }
    group.finish();
    c.final_summary();
}
