//! E15 — Compiled fail-fast validation (§2 validation at collection scale).
//!
//! Claim operationalised: lowering a compiled schema into a flat IR —
//! `$ref` targets pre-resolved to arena indices, sorted property tables,
//! kind bitmasks, reusable regex scratch — makes the boolean verdict
//! (`is_valid`) several times faster than the error-collecting
//! interpreter on a ref-heavy schema, and newline sharding distributes
//! whole-pipeline (parse + probe) validation across workers with
//! positionally identical verdicts. Prints a docs/sec table over 100k
//! GitHub-style events, writes `BENCH_validation.json`, and benches the
//! three paths under Criterion.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::{parse_ndjson, to_string, to_string_pretty};
use jsonx::{Run, Source};
use jsonx_bench::{banner, criterion};
use jsonx_data::{json, Value};
use jsonx_gen::Corpus;
use std::time::Instant;

/// A reference-heavy schema for the GitHub events corpus: every envelope
/// field routes through `definitions`, the payload is an `anyOf` of four
/// `$ref` branches (one per event type), and commits recurse through a
/// shared `$ref`. Patterns guard ids, shas, urls and timestamps.
fn github_schema() -> Value {
    json!({
        "$ref": "#/definitions/event",
        "definitions": {
            "event": {
                "type": "object",
                "required": ["id", "type", "actor", "repo", "payload", "public", "created_at"],
                "properties": {
                    "id": {"type": "string", "pattern": "^[0-9]+$"},
                    "type": {"enum": ["PushEvent", "IssuesEvent", "WatchEvent", "ForkEvent"]},
                    "actor": {"$ref": "#/definitions/actor"},
                    "repo": {"$ref": "#/definitions/repo"},
                    "payload": {"anyOf": [
                        {"$ref": "#/definitions/push_payload"},
                        {"$ref": "#/definitions/issues_payload"},
                        {"$ref": "#/definitions/watch_payload"},
                        {"$ref": "#/definitions/fork_payload"}
                    ]},
                    "public": {"type": "boolean"},
                    "created_at": {
                        "type": "string",
                        "pattern": "^[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z$"
                    }
                }
            },
            "actor": {
                "type": "object",
                "required": ["id", "login"],
                "properties": {
                    "id": {"type": "integer", "minimum": 1},
                    "login": {"type": "string", "minLength": 1},
                    "gravatar_id": {"type": "string"}
                }
            },
            "repo": {
                "type": "object",
                "required": ["id", "name", "url"],
                "properties": {
                    "id": {"type": "integer", "minimum": 1},
                    "name": {"type": "string", "pattern": "^[a-z0-9]+/"},
                    "url": {"type": "string", "pattern": "^https://"}
                }
            },
            "commit": {
                "type": "object",
                "required": ["sha", "message"],
                "properties": {
                    "sha": {"type": "string", "pattern": "^[0-9a-f]{40}$"},
                    "message": {"type": "string"},
                    "distinct": {"type": "boolean"}
                }
            },
            "push_payload": {
                "type": "object",
                "required": ["push_id", "commits"],
                "properties": {
                    "push_id": {"type": "integer", "minimum": 1},
                    "size": {"type": "integer", "minimum": 0},
                    "ref": {"type": "string"},
                    "commits": {
                        "type": "array",
                        "items": {"$ref": "#/definitions/commit"},
                        "minItems": 1
                    }
                }
            },
            "issues_payload": {
                "type": "object",
                "required": ["action", "issue"],
                "properties": {
                    "action": {"enum": ["opened", "closed"]},
                    "issue": {
                        "type": "object",
                        "required": ["number"],
                        "properties": {
                            "number": {"type": "integer", "minimum": 1},
                            "title": {"type": "string"},
                            "labels": {"items": {"type": "object"}},
                            "assignee": {"anyOf": [
                                {"type": "null"},
                                {"type": "object", "required": ["login"]}
                            ]}
                        }
                    }
                }
            },
            "watch_payload": {
                "type": "object",
                "required": ["action"],
                "properties": {"action": {"const": "started"}}
            },
            "fork_payload": {
                "type": "object",
                "required": ["forkee"],
                "properties": {
                    "forkee": {
                        "type": "object",
                        "required": ["id", "full_name"],
                        "properties": {
                            "id": {"type": "integer"},
                            "full_name": {"type": "string"},
                            "private": {"type": "boolean"}
                        }
                    }
                }
            }
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

fn docs_per_sec(n: usize, elapsed: std::time::Duration) -> f64 {
    n as f64 / elapsed.as_secs_f64()
}

/// The parse + probe pipeline this experiment measures: every record
/// through the full parser (E18 owns the fast-parse comparison).
fn full_parser(workers: usize) -> Run<'static> {
    Run {
        workers,
        fast_parse: false,
        ..Run::default()
    }
}

fn main() {
    banner(
        "E15",
        "compiled fail-fast validation: IR probe vs interpreter, sharded NDJSON",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("hardware parallelism available: {cores} core(s)");
    if cores == 1 {
        println!("NOTE: single-core substrate — shard-transparency (identical verdicts");
        println!("at every worker count) is the measurable claim for the parallel rows;");
        println!("wall-clock speedup from sharding requires multi-core hardware.\n");
    }

    let schema = CompiledSchema::compile(&github_schema()).expect("schema compiles");
    let vopts = ValidatorOptions::default();
    let docs = Corpus::Github.generate(100_000);
    let ndjson = to_ndjson(&docs);
    println!(
        "collection: {} documents, {:.1} MiB of NDJSON\n",
        docs.len(),
        ndjson.len() as f64 / (1024.0 * 1024.0)
    );

    // Warm both paths, then time validation over pre-parsed DOMs so the
    // interpreter-vs-IR comparison isolates validation cost.
    let warm = docs.len() / 16;
    for d in &docs[..warm] {
        let _ = schema.validate_with(d, vopts);
        let _ = black_box(schema.is_valid(d));
    }

    let t = Instant::now();
    let slow_valid: usize = docs
        .iter()
        .filter(|d| schema.validate_with(d, vopts).is_ok())
        .count();
    let interp_time = t.elapsed();

    let mut fast = schema.fast_validator_with(vopts);
    let t = Instant::now();
    let fast_valid: usize = docs.iter().filter(|d| fast.is_valid(d)).count();
    let compiled_time = t.elapsed();

    assert_eq!(
        fast_valid, slow_valid,
        "fail-fast and interpreter verdicts must agree"
    );
    assert_eq!(slow_valid, docs.len(), "generated corpus should validate");

    let speedup = interp_time.as_secs_f64() / compiled_time.as_secs_f64();
    println!(
        "{:>16} {:>12} {:>14} {:>14}",
        "path", "time", "docs/sec", "vs interp"
    );
    println!(
        "{:>16} {:>12.2?} {:>14.0} {:>13.2}x",
        "interpreter",
        interp_time,
        docs_per_sec(docs.len(), interp_time),
        1.0
    );
    println!(
        "{:>16} {:>12.2?} {:>14.0} {:>13.2}x",
        "compiled IR",
        compiled_time,
        docs_per_sec(docs.len(), compiled_time),
        speedup
    );

    // Whole-pipeline rows: parse + probe per line, sharded across workers.
    let reference: Vec<bool> = {
        let dom = parse_ndjson(&ndjson).expect("valid NDJSON");
        dom.iter()
            .map(|d| schema.validate_with(d, vopts).is_ok())
            .collect()
    };
    let mut parallel_rates = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let run = full_parser(workers);
        let t = Instant::now();
        let (verdicts, _) = run
            .validate(Source::slice(&ndjson), &schema, vopts)
            .expect("valid NDJSON");
        let elapsed = t.elapsed();
        assert_eq!(verdicts.len(), reference.len());
        for ((line, v), expected) in verdicts.iter().zip(&reference) {
            assert_eq!(v.is_valid(), *expected, "line {line}");
        }
        println!(
            "{:>16} {:>12.2?} {:>14.0} {:>13.2}x  (parse+probe)",
            format!("workers={workers}"),
            elapsed,
            docs_per_sec(docs.len(), elapsed),
            interp_time.as_secs_f64() / elapsed.as_secs_f64(),
        );
        parallel_rates.push((workers, docs_per_sec(docs.len(), elapsed)));
    }

    assert!(
        speedup >= 3.0,
        "acceptance: compiled fail-fast must be >= 3x interpreter (got {speedup:.2}x)"
    );

    let mut parallel = jsonx_data::Object::new();
    for (workers, rate) in &parallel_rates {
        parallel.insert(format!("workers_{workers}"), json!(*rate as i64));
    }
    let report = json!({
        "experiment": "E15",
        "documents": (docs.len() as i64),
        "ndjson_mib": (ndjson.len() as f64 / (1024.0 * 1024.0)),
        "interpreter_docs_per_sec": (docs_per_sec(docs.len(), interp_time) as i64),
        "compiled_docs_per_sec": (docs_per_sec(docs.len(), compiled_time) as i64),
        "compiled_speedup": speedup,
        "parallel_parse_probe_docs_per_sec": Value::Obj(parallel)
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_validation.json");
    std::fs::write(path, to_string_pretty(&report) + "\n").expect("write BENCH_validation.json");
    println!("\nwrote {path}");

    let mut c: Criterion = criterion();
    let mut group = c.benchmark_group("e15_validation");
    let small_docs = Corpus::Github.generate(8_000);
    let small = to_ndjson(&small_docs);
    group.throughput(Throughput::Elements(small_docs.len() as u64));
    group.bench_function("interpreter", |b| {
        b.iter(|| {
            small_docs
                .iter()
                .filter(|d| schema.validate_with(black_box(d), vopts).is_ok())
                .count()
        })
    });
    group.bench_function("compiled_is_valid", |b| {
        let mut fv = schema.fast_validator_with(vopts);
        b.iter(|| {
            small_docs
                .iter()
                .filter(|d| fv.is_valid(black_box(d)))
                .count()
        })
    });
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("stream_workers", workers),
            &workers,
            |b, &w| {
                let run = full_parser(w);
                b.iter(|| run.validate(Source::slice(black_box(&small)), &schema, vopts))
            },
        );
    }
    group.finish();
    c.final_summary();
}
