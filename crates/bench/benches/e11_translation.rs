//! E11 — Schema-aware vs schema-blind data translation (§5).
//!
//! Claim operationalised: translating heterogeneous JSON into columnar /
//! binary formats is faster and cleaner when driven by an inferred schema:
//! the schema-aware shredder dispatches into a precomputed layout, while
//! the schema-blind one rediscovers and retypes columns while scanning.
//! Prints the comparison and benches shredding, Avro encoding, and
//! relational normalization.

use criterion::{black_box, Criterion, Throughput};
use jsonx_bench::{banner, criterion};
use jsonx_core::{infer_collection, Equivalence};
use jsonx_data::text_size;
use jsonx_gen::Corpus;
use jsonx_translate::{discover, normalize, AvroCodec, AvroSchema, Shredder};
use std::time::Instant;

fn main() {
    banner(
        "E11",
        "schema-aware translation beats schema-blind conversion (§5)",
    );
    let docs = Corpus::Twitter.generate(5_000);
    let json_bytes: usize = docs.iter().map(text_size).sum();
    println!(
        "feed: {} tweets, {:.1} MiB JSON\n",
        docs.len(),
        json_bytes as f64 / (1024.0 * 1024.0)
    );

    // One-off schema inference (amortised across the feed).
    let t = Instant::now();
    let ty = infer_collection(&docs, Equivalence::Kind);
    let infer_time = t.elapsed();

    // Columnar: aware vs blind.
    let t = Instant::now();
    let aware_batch = Shredder::from_type(&ty).shred(&docs).unwrap();
    let aware_time = t.elapsed();
    let t = Instant::now();
    let blind_batch = discover(&docs).unwrap();
    let blind_time = t.elapsed();
    println!(
        "columnar shredding ({} columns):",
        aware_batch.columns.len()
    );
    println!("  schema-aware: {aware_time:>10.2?}  (+ {infer_time:.2?} one-off inference)");
    println!(
        "  schema-blind: {blind_time:>10.2?}  ({:.2}x slower, layout rediscovered per record)",
        blind_time.as_secs_f64() / aware_time.as_secs_f64()
    );
    assert_eq!(aware_batch.rows, blind_batch.rows);

    // Avro-like binary rows: compaction factor.
    let codec = AvroCodec::new(AvroSchema::from_type(&ty));
    let t = Instant::now();
    let binary_bytes: usize = docs
        .iter()
        .map(|d| codec.encode(d).expect("conforming").len())
        .sum();
    let encode_time = t.elapsed();
    println!(
        "\navro-like encoding: {encode_time:.2?}, {} KiB -> {} KiB ({}%)",
        json_bytes / 1024,
        binary_bytes / 1024,
        binary_bytes * 100 / json_bytes
    );

    // Relational normalization.
    let t = Instant::now();
    let relations = normalize("tweets", &docs);
    let norm_time = t.elapsed();
    println!(
        "relational normalization: {norm_time:.2?}, {} relations ({} child, {} dims)",
        relations.len(),
        relations
            .iter()
            .filter(|r| r.columns.first().map(String::as_str) == Some("_parent_id"))
            .count(),
        relations
            .iter()
            .filter(|r| r.name.contains("_dim_"))
            .count()
    );

    let mut c: Criterion = criterion();
    let mut group = c.benchmark_group("e11_translation");
    let sample = Corpus::Twitter.generate(1_000);
    let sample_bytes: usize = sample.iter().map(text_size).sum();
    let sample_ty = infer_collection(&sample, Equivalence::Kind);
    group.throughput(Throughput::Bytes(sample_bytes as u64));
    group.bench_function("shred_schema_aware", |b| {
        b.iter(|| {
            Shredder::from_type(&sample_ty)
                .shred(black_box(&sample))
                .unwrap()
        })
    });
    group.bench_function("shred_schema_blind", |b| {
        b.iter(|| discover(black_box(&sample)).unwrap())
    });
    let sample_codec = AvroCodec::new(AvroSchema::from_type(&sample_ty));
    group.bench_function("avro_encode", |b| {
        b.iter(|| {
            sample
                .iter()
                .map(|d| sample_codec.encode(black_box(d)).unwrap().len())
                .sum::<usize>()
        })
    });
    group.finish();
    c.final_summary();
}
