//! E16 — Pipeline-engine stages: streaming translation and the combined
//! single-pass infer+validate (§4.1 map/reduce meets §5 translation).
//!
//! Two claims operationalised on the shared sharded engine:
//!
//! 1. Schema-driven translation can stream: shredding newline-bounded
//!    shards into per-worker columnar batches and concatenating them in
//!    shard order builds a batch row-identical to the DOM path
//!    (`Shredder::shred` over the parsed collection) at every worker
//!    count — without ever materialising the whole collection as DOMs.
//! 2. Fusing inference and validation into one pass halves tokenisation:
//!    `StreamTyper::type_and_build` feeds one raw-event walk to both the
//!    type fold and the compiled fail-fast validator, so the combined
//!    stage beats running the two streaming passes back to back while
//!    producing bit-identical type and verdicts.
//!
//! Prints timing tables over 100k GitHub-style events, writes
//! `BENCH_translation.json`, and benches both stages under Criterion.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use jsonx::core::{infer_collection, Equivalence};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::{parse_ndjson, to_string, to_string_pretty};
use jsonx::translate::Shredder;
use jsonx::{Run, Source};
use jsonx_bench::{banner, criterion};
use jsonx_data::{json, Value};
use jsonx_gen::Corpus;
use std::time::Instant;

/// A lean envelope schema for the GitHub events corpus — enough keywords
/// that the validator does real work per document without dominating the
/// tokenisation cost the combined pass is designed to halve.
fn envelope_schema() -> Value {
    json!({
        "type": "object",
        "required": ["id", "type", "actor", "repo", "public", "created_at"],
        "properties": {
            "id": {"type": "string", "pattern": "^[0-9]+$"},
            "type": {"enum": ["PushEvent", "IssuesEvent", "WatchEvent", "ForkEvent"]},
            "actor": {
                "type": "object",
                "required": ["id", "login"],
                "properties": {
                    "id": {"type": "integer", "minimum": 1},
                    "login": {"type": "string", "minLength": 1}
                }
            },
            "repo": {
                "type": "object",
                "required": ["id", "name"],
                "properties": {"id": {"type": "integer", "minimum": 1}}
            },
            "public": {"type": "boolean"},
            "created_at": {"type": "string", "minLength": 20}
        }
    })
}

fn to_ndjson(docs: &[Value]) -> String {
    let mut out = String::new();
    for d in docs {
        out.push_str(&to_string(d));
        out.push('\n');
    }
    out
}

/// A fail-fast plan on the full parser at `workers` threads (E18 owns
/// the fast-parse comparison).
fn plan(workers: usize) -> Run<'static> {
    Run {
        workers,
        fast_parse: false,
        ..Run::default()
    }
}

fn docs_per_sec(n: usize, elapsed: std::time::Duration) -> f64 {
    n as f64 / elapsed.as_secs_f64()
}

fn main() {
    banner(
        "E16",
        "pipeline stages: streaming translation, combined single-pass infer+validate",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("hardware parallelism available: {cores} core(s)");
    if cores == 1 {
        println!("NOTE: single-core substrate — shard-transparency (identical batches");
        println!("and verdicts at every worker count) is the measurable claim for the");
        println!("parallel rows; wall-clock speedup needs multi-core hardware.\n");
    }

    let docs = Corpus::Github.generate(100_000);
    let ndjson = to_ndjson(&docs);
    println!(
        "collection: {} documents, {:.1} MiB of NDJSON\n",
        docs.len(),
        ndjson.len() as f64 / (1024.0 * 1024.0)
    );

    // ---- Part 1: streaming vs DOM translation -------------------------
    let t = Instant::now();
    let dom_docs = parse_ndjson(&ndjson).expect("valid NDJSON");
    let ty = infer_collection(&dom_docs, Equivalence::Kind);
    let shredder = Shredder::from_type(&ty);
    let dom_batch = shredder.clone().shred(&dom_docs).expect("records shred");
    let dom_time = t.elapsed();

    println!(
        "{:>20} {:>12} {:>14} {:>12}",
        "translation path", "time", "docs/sec", "vs DOM"
    );
    println!(
        "{:>20} {:>12.2?} {:>14.0} {:>11.2}x  (parse+infer+shred)",
        "DOM",
        dom_time,
        docs_per_sec(docs.len(), dom_time),
        1.0
    );
    let mut translate_rates = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let (sty, batch, _) = plan(workers)
            .translate_inferred(Source::slice(&ndjson), Equivalence::Kind)
            .expect("well-formed records shred");
        let elapsed = t.elapsed();
        assert_eq!(sty, ty, "streaming type must equal DOM type");
        assert_eq!(
            batch, dom_batch,
            "streaming batch must equal DOM batch (workers={workers})"
        );
        println!(
            "{:>20} {:>12.2?} {:>14.0} {:>11.2}x  (infer+shred, no DOM collection)",
            format!("streaming w={workers}"),
            elapsed,
            docs_per_sec(docs.len(), elapsed),
            dom_time.as_secs_f64() / elapsed.as_secs_f64(),
        );
        translate_rates.push((workers, docs_per_sec(docs.len(), elapsed)));
    }

    // ---- Part 2: combined single pass vs two streaming passes ---------
    let schema = CompiledSchema::compile(&envelope_schema()).expect("schema compiles");
    let vopts = ValidatorOptions::default();

    let t = Instant::now();
    let (two_pass_ty, _) = plan(1)
        .infer(Source::slice(&ndjson), Equivalence::Kind)
        .expect("well-formed");
    let (two_pass_verdicts, _) = plan(1)
        .validate(Source::slice(&ndjson), &schema, vopts)
        .expect("well-formed");
    let two_pass_time = t.elapsed();
    let valid = two_pass_verdicts
        .iter()
        .filter(|(_, v)| v.is_valid())
        .count();
    println!(
        "\n{:>20} {:>12} {:>14} {:>12}   ({valid}/{} valid)",
        "infer+validate path",
        "time",
        "docs/sec",
        "vs 2-pass",
        docs.len()
    );
    println!(
        "{:>20} {:>12.2?} {:>14.0} {:>11.2}x  (tokenise twice)",
        "two passes",
        two_pass_time,
        docs_per_sec(docs.len(), two_pass_time),
        1.0
    );
    let mut combined_rates = Vec::new();
    let mut combined_seq_secs = f64::NAN;
    for workers in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let ((ty, verdicts), _) = plan(workers)
            .infer_validate(Source::slice(&ndjson), Equivalence::Kind, &schema, vopts)
            .expect("well-formed");
        let elapsed = t.elapsed();
        assert_eq!(ty, two_pass_ty);
        assert_eq!(verdicts, two_pass_verdicts);
        if workers == 1 {
            combined_seq_secs = elapsed.as_secs_f64();
        }
        println!(
            "{:>20} {:>12.2?} {:>14.0} {:>11.2}x  (tokenise once)",
            format!("combined w={workers}"),
            elapsed,
            docs_per_sec(docs.len(), elapsed),
            two_pass_time.as_secs_f64() / elapsed.as_secs_f64(),
        );
        combined_rates.push((workers, docs_per_sec(docs.len(), elapsed)));
    }
    let combined_speedup = two_pass_time.as_secs_f64() / combined_seq_secs;

    let mut translate = jsonx_data::Object::new();
    for (workers, rate) in &translate_rates {
        translate.insert(format!("workers_{workers}"), json!(*rate as i64));
    }
    let mut combined = jsonx_data::Object::new();
    for (workers, rate) in &combined_rates {
        combined.insert(format!("workers_{workers}"), json!(*rate as i64));
    }
    let report = json!({
        "experiment": "E16",
        "documents": (docs.len() as i64),
        "ndjson_mib": (ndjson.len() as f64 / (1024.0 * 1024.0)),
        "columns": (dom_batch.columns.len() as i64),
        "dom_translation_docs_per_sec": (docs_per_sec(docs.len(), dom_time) as i64),
        "streaming_translation_docs_per_sec": Value::Obj(translate),
        "two_pass_docs_per_sec": (docs_per_sec(docs.len(), two_pass_time) as i64),
        "combined_pass_docs_per_sec": Value::Obj(combined),
        "combined_vs_two_pass_speedup": combined_speedup
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_translation.json");
    std::fs::write(path, to_string_pretty(&report) + "\n").expect("write BENCH_translation.json");
    println!("\nwrote {path}");

    let mut c: Criterion = criterion();
    let mut group = c.benchmark_group("e16_pipeline_stages");
    let small_docs = Corpus::Github.generate(8_000);
    let small = to_ndjson(&small_docs);
    let small_ty = infer_collection(&small_docs, Equivalence::Kind);
    let small_shredder = Shredder::from_type(&small_ty);
    group.throughput(Throughput::Elements(small_docs.len() as u64));
    group.bench_function("dom_shred", |b| {
        b.iter(|| {
            small_shredder
                .clone()
                .shred(black_box(&small_docs))
                .expect("records")
        })
    });
    for workers in [1usize, 4] {
        let run = plan(workers);
        group.bench_with_input(
            BenchmarkId::new("stream_shred_workers", workers),
            &workers,
            |b, _| b.iter(|| run.translate(Source::slice(black_box(&small)), &small_shredder)),
        );
    }
    group.bench_function("two_pass_infer_validate", |b| {
        let run = plan(1);
        b.iter(|| {
            let ty = run.infer(Source::slice(black_box(&small)), Equivalence::Kind);
            let verdicts = run.validate(Source::slice(black_box(&small)), &schema, vopts);
            (ty, verdicts)
        })
    });
    group.bench_function("combined_pass_infer_validate", |b| {
        let run = plan(1);
        b.iter(|| {
            run.infer_validate(
                Source::slice(black_box(&small)),
                Equivalence::Kind,
                &schema,
                vopts,
            )
        })
    });
    group.finish();
    c.final_summary();
}
