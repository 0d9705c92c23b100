//! E18 — Fused SWAR fast path: structural skip-scanning + projection
//! pushdown vs the full-parser streaming pipeline.
//!
//! Two corpora, two consumers:
//!
//! * **standard** — 100k GitHub-style events. Validation projects to the
//!   envelope fields the schema actually reads (`id`, `type`, `public`),
//!   so the scanner skips the payload bulk; translation shreds the *full*
//!   inferred layout, so every root field is projected and the fast path
//!   pays its worst case (scan + per-span re-parse with nothing skipped).
//! * **wide** — synthetic wide records (~14 root fields, chunky string
//!   payloads) where both consumers only read `id` and `name`, so the
//!   scanner skip-scans well over half the bytes. This is the corpus the
//!   1.5× acceptance floor is pinned on, for validation *and*
//!   translation.
//!
//! Every timed pair first asserts result equality (verdicts / batches),
//! prints a table, writes `BENCH_parsing.json`, and benches the wide
//! variants under Criterion at 8k docs.

use criterion::{black_box, Criterion, Throughput};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::structural::{FieldSet, ScanOptions, StructuralScanner};
use jsonx::syntax::{to_string, to_string_pretty};
use jsonx::translate::Shredder;
use jsonx::{Run, Source};
use jsonx_bench::{banner, criterion};
use jsonx_data::{json, Object, Value};
use jsonx_gen::Corpus;
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

/// Wide records: two fields anyone reads, a dozen nobody does.
fn wide_docs(n: usize) -> Vec<Value> {
    (0..n)
        .map(|i| {
            let i = i as i64;
            let mut obj = Object::new();
            obj.insert("id", json!(i));
            obj.insert("name", Value::Str(format!("user{i}")));
            for k in 0..10i64 {
                obj.insert(
                    format!("field{k:02}"),
                    Value::Str(format!("{}-{}", i * 31 + k, "x".repeat(40))),
                );
            }
            obj.insert("metrics", json!([i, i * 2, i * 3, i % 7, i % 11]));
            obj.insert(
                "nested",
                json!({"a": (i % 100), "b": format!("deep{}", i % 13), "c": [true, false]}),
            );
            Value::Obj(obj)
        })
        .collect()
}

/// Fraction of record bytes the projection does NOT materialise, measured
/// with the actual scanner: everything outside the projected key/value
/// spans is skip-scanned (bitmap pass only, no tokens, no DOM).
fn skipped_byte_fraction(ndjson: &str, set: &FieldSet) -> f64 {
    let opts = ScanOptions::default();
    let mut sc = StructuralScanner::new();
    let (mut total, mut projected) = (0usize, 0usize);
    for line in ndjson.lines().filter(|l| !l.trim().is_empty()) {
        assert!(
            sc.scan(line.as_bytes(), set, &opts),
            "corpus line must scan"
        );
        total += line.len();
        for f in sc.fields() {
            projected += (f.key.end - f.key.start) + (f.value.end - f.value.start);
        }
    }
    1.0 - projected as f64 / total as f64
}

struct Timed {
    slow_rate: f64,
    fast_rate: f64,
}

impl Timed {
    fn speedup(&self) -> f64 {
        self.fast_rate / self.slow_rate
    }
}

fn report_row(label: &str, n: usize, t: &Timed) {
    println!(
        "{label:>22} {:>14.0} {:>14.0} {:>9.2}x",
        t.slow_rate,
        t.fast_rate,
        t.speedup()
    );
    let _ = n;
}

/// The single-worker plan with the fast path on or off — the one knob
/// this experiment turns.
fn plan(fast_parse: bool) -> Run<'static> {
    Run {
        workers: 1,
        fast_parse,
        ..Run::default()
    }
}

fn time_validate(ndjson: &str, n: usize, schema: &CompiledSchema) -> Timed {
    let vopts = ValidatorOptions::default();
    let run = |fast_parse| {
        plan(fast_parse)
            .validate(Source::slice(ndjson), schema, vopts)
            .expect("clean corpus")
    };
    // Warm both paths before timing (page faults, cache population).
    assert_eq!(
        run(true),
        run(false),
        "fast verdicts must equal slow verdicts"
    );

    let t = Instant::now();
    black_box(run(false));
    let slow_rate = docs_per_sec(n, t.elapsed());
    let t = Instant::now();
    black_box(run(true));
    let fast_rate = docs_per_sec(n, t.elapsed());
    Timed {
        slow_rate,
        fast_rate,
    }
}

fn time_translate(ndjson: &str, n: usize, shredder: &Shredder) -> Timed {
    let run = |fast_parse| {
        plan(fast_parse)
            .translate(Source::slice(ndjson), shredder)
            .expect("clean corpus")
    };
    assert_eq!(run(true), run(false), "fast batch must equal slow batch");

    let t = Instant::now();
    black_box(run(false));
    let slow_rate = docs_per_sec(n, t.elapsed());
    let t = Instant::now();
    black_box(run(true));
    let fast_rate = docs_per_sec(n, t.elapsed());
    Timed {
        slow_rate,
        fast_rate,
    }
}

fn main() {
    banner(
        "E18",
        "SWAR structural fast path + projection pushdown vs full parsing",
    );
    const N: usize = 100_000;

    // ---- standard corpus: GitHub-style events -------------------------
    let docs = Corpus::Github.generate(N);
    let ndjson = to_ndjson(&docs);
    let envelope_schema = CompiledSchema::compile(&json!({
        "type": "object",
        "properties": {
            "id": {"type": "string"},
            "type": {"type": "string"},
            "public": {"type": "boolean"}
        },
        "required": ["id", "type"]
    }))
    .expect("schema compiles");
    let full_ty = jsonx::core::infer_collection(&docs, jsonx::core::Equivalence::Kind);
    let full_shredder = Shredder::from_type(&full_ty);
    println!(
        "standard corpus: {} documents, {:.1} MiB (validation projects 3 of 7\nroot fields; translation shreds the full layout — nothing skipped)\n",
        N,
        ndjson.len() as f64 / (1024.0 * 1024.0)
    );

    // ---- wide corpus: projection skips most bytes ---------------------
    let wide = wide_docs(N);
    let wide_ndjson = to_ndjson(&wide);
    let wide_schema = CompiledSchema::compile(&json!({
        "type": "object",
        "properties": {"id": {"type": "integer"}, "name": {"type": "string"}},
        "required": ["id", "name"]
    }))
    .expect("schema compiles");
    let narrow: Vec<Value> = wide
        .iter()
        .map(
            |d| json!({"id": d.get("id").unwrap().clone(), "name": d.get("name").unwrap().clone()}),
        )
        .collect();
    let narrow_ty = jsonx::core::infer_collection(&narrow, jsonx::core::Equivalence::Kind);
    let narrow_shredder = Shredder::from_type(&narrow_ty);

    let skip_frac = skipped_byte_fraction(
        &wide_ndjson,
        &FieldSet::new(["id".to_string(), "name".to_string()]),
    );
    println!(
        "wide corpus: {} documents, {:.1} MiB, projection skips {:.1}% of bytes",
        N,
        wide_ndjson.len() as f64 / (1024.0 * 1024.0),
        skip_frac * 100.0
    );
    assert!(
        skip_frac >= 0.5,
        "wide corpus must skip at least half its bytes, got {skip_frac:.2}"
    );

    println!(
        "\n{:>22} {:>14} {:>14} {:>10}",
        "pipeline / corpus", "slow docs/s", "fast docs/s", "speedup"
    );
    let val_std = time_validate(&ndjson, N, &envelope_schema);
    report_row("validate / standard", N, &val_std);
    let tr_std = time_translate(&ndjson, N, &full_shredder);
    report_row("translate / standard", N, &tr_std);
    let val_wide = time_validate(&wide_ndjson, N, &wide_schema);
    report_row("validate / wide", N, &val_wide);
    let tr_wide = time_translate(&wide_ndjson, N, &narrow_shredder);
    report_row("translate / wide", N, &tr_wide);

    // The acceptance floor: on the wide corpus the fast path must beat
    // the full parser by at least 1.5x for both consumers.
    assert!(
        val_wide.speedup() >= 1.5,
        "wide validation speedup {:.2} below the 1.5x floor",
        val_wide.speedup()
    );
    assert!(
        tr_wide.speedup() >= 1.5,
        "wide translation speedup {:.2} below the 1.5x floor",
        tr_wide.speedup()
    );

    let report_doc = json!({
        "experiment": "E18",
        "documents": (N as i64),
        "wide_skipped_byte_pct": ((skip_frac * 1000.0).round() / 10.0),
        "validate_standard": {
            "slow_docs_per_sec": (val_std.slow_rate as i64),
            "fast_docs_per_sec": (val_std.fast_rate as i64),
            "speedup": ((val_std.speedup() * 100.0).round() / 100.0)
        },
        "translate_standard": {
            "slow_docs_per_sec": (tr_std.slow_rate as i64),
            "fast_docs_per_sec": (tr_std.fast_rate as i64),
            "speedup": ((tr_std.speedup() * 100.0).round() / 100.0)
        },
        "validate_wide": {
            "slow_docs_per_sec": (val_wide.slow_rate as i64),
            "fast_docs_per_sec": (val_wide.fast_rate as i64),
            "speedup": ((val_wide.speedup() * 100.0).round() / 100.0)
        },
        "translate_wide": {
            "slow_docs_per_sec": (tr_wide.slow_rate as i64),
            "fast_docs_per_sec": (tr_wide.fast_rate as i64),
            "speedup": ((tr_wide.speedup() * 100.0).round() / 100.0)
        }
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parsing.json");
    std::fs::write(path, to_string_pretty(&report_doc) + "\n").expect("write BENCH_parsing.json");
    println!("\nwrote {path}");

    // ---- Criterion: the wide variants at 8k docs ----------------------
    let small_wide = to_ndjson(&wide_docs(8_000));
    let mut c: Criterion = criterion();
    let mut group = c.benchmark_group("e18_parsing");
    group.throughput(Throughput::Elements(8_000));
    for (name, fast_parse) in [("validate_wide_slow", false), ("validate_wide_fast", true)] {
        let run = plan(fast_parse);
        group.bench_function(name, |b| {
            b.iter(|| {
                run.validate(
                    Source::slice(black_box(&small_wide)),
                    &wide_schema,
                    ValidatorOptions::default(),
                )
            })
        });
    }
    for (name, fast_parse) in [
        ("translate_wide_slow", false),
        ("translate_wide_fast", true),
    ] {
        let run = plan(fast_parse);
        group.bench_function(name, |b| {
            b.iter(|| run.translate(Source::slice(black_box(&small_wide)), &narrow_shredder))
        });
    }
    group.finish();
    c.final_summary();
}
