//! A1 — Ablations of the workspace's own design knobs.
//!
//! Three dials that DESIGN.md singles out, each swept to show the
//! trade-off it buys:
//!
//! 1. **Union-width bounding** (`bound_union_width` k): the "top-k + rest"
//!    abstraction between L (precise) and K (succinct).
//! 2. **Pattern-tree capacity** (`PatternTree::new(max_alternatives)`):
//!    how many remembered positions speculation needs under layout churn.
//! 3. **Structural-index depth** (`StructuralIndex::build(max_level)`):
//!    what bounding the index to the query depth saves.
//!
//! Plus three implementation ablations with identical results on both
//! arms: bitmap construction (SWAR vs scalar), the inference input path
//! (DOM vs events), and the collection-typing route (a `JType` per record
//! fused into the accumulator vs events updating it in place).

use criterion::{black_box, BenchmarkId, Criterion};
use jsonx_bench::{banner, criterion};
use jsonx_core::{
    bound_union_width, false_acceptance_rate, infer_collection, type_size, Equivalence,
};
use jsonx_data::Value;
use jsonx_gen::{Corpus, DialedGenerator, GeneratorConfig};
use jsonx_mison::{PatternTree, StructuralIndex};
use jsonx_syntax::{structural, to_string};

fn union_width_ablation() {
    println!("\n-- union-width bounding (L type of a 12-shape corpus) --");
    let config = GeneratorConfig {
        seed: 3,
        shape_variants: 12,
        shape_skew: 1.2,
        record_width: 5,
        ..Default::default()
    };
    let docs = DialedGenerator::new(config).generate(3_000);
    let l = infer_collection(&docs, Equivalence::Label);
    // Probes that mix fields of two *different* shapes: no single shape
    // ever carried this label set, so precise label unions reject them,
    // while merged (K-like) records with optional fields admit them.
    let probes: Vec<Value> = {
        let mut out = Vec::new();
        'outer: for a in &docs {
            for b in &docs {
                let (ka, kb) = (a.as_object().unwrap(), b.as_object().unwrap());
                let label = |o: &jsonx_data::Object| {
                    o.keys()
                        .find(|k| *k != "id" && *k != "items")
                        .map(str::to_string)
                };
                if label(ka) != label(kb) {
                    let mut mixed = ka.clone();
                    for (k, v) in kb.iter() {
                        if !mixed.contains_key(k) {
                            mixed.insert(k.to_string(), v.clone());
                        }
                    }
                    out.push(Value::Obj(mixed));
                    if out.len() >= 300 {
                        break 'outer;
                    }
                }
            }
        }
        out
    };
    println!("{:>6} {:>10} {:>8} {:>10}", "k", "nodes", "FAR", "sound");
    for k in [usize::MAX, 8, 4, 2, 1] {
        let bounded = if k == usize::MAX {
            l.clone()
        } else {
            bound_union_width(l.clone(), k)
        };
        let sound = docs.iter().all(|d| bounded.admits(d));
        println!(
            "{:>6} {:>10} {:>7.1}% {:>10}",
            if k == usize::MAX {
                "∞(L)".to_string()
            } else {
                k.to_string()
            },
            type_size(&bounded),
            false_acceptance_rate(&bounded, &probes) * 100.0,
            sound
        );
        assert!(sound, "bounding must stay sound");
    }
    println!("(size falls, FAR rises — k interpolates between L and K)");
}

fn pattern_capacity_ablation() {
    println!("\n-- pattern-tree capacity under layout churn --");
    // Documents cycling through 3 layouts.
    let keys_sets: [&[&str]; 3] = [
        &["a", "b", "target", "c"],
        &["target", "a", "b", "c"],
        &["a", "target", "b", "c"],
    ];
    println!("{:>14} {:>10}", "capacity", "hit rate");
    for cap in [1usize, 2, 3, 4] {
        let mut tree = PatternTree::new(cap);
        for i in 0..3_000 {
            let keys = keys_sets[i % 3];
            tree.probe("target", keys);
        }
        println!("{:>14} {:>9.1}%", cap, tree.stats().hit_rate() * 100.0);
    }
    println!("(hit rate saturates once capacity covers the distinct layouts: 3)");
}

fn index_depth_ablation(c: &mut Criterion) {
    println!("\n-- structural-index depth bound --");
    let docs = Corpus::Twitter.generate(1_500);
    let lines: Vec<String> = docs.iter().map(to_string).collect();
    let mut group = c.benchmark_group("a01_index_depth");
    for depth in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("levels", depth), &depth, |b, &d| {
            b.iter(|| {
                for line in &lines {
                    black_box(StructuralIndex::build(line.as_bytes(), d));
                }
            })
        });
    }
    group.finish();
    println!("(shallower bounds skip bucketing deeper colons — E9's pushdown saving)");
}

fn bitmap_construction_ablation(c: &mut Criterion) {
    println!("\n-- bitmap construction: word-parallel (SWAR) vs scalar --");
    let docs = Corpus::Nytimes.generate(1_500);
    let lines: Vec<String> = docs.iter().map(to_string).collect();
    let mut group = c.benchmark_group("a01_bitmap_build");
    group.bench_function("word_parallel", |b| {
        b.iter(|| {
            for line in &lines {
                black_box(structural::build(line.as_bytes()));
            }
        })
    });
    group.bench_function("scalar_reference", |b| {
        b.iter(|| {
            for line in &lines {
                black_box(structural::build_scalar(line.as_bytes()));
            }
        })
    });
    group.finish();
    println!("(the 64-lane construction is the paper's SIMD contribution in portable form)");
}

fn streaming_inference_ablation(c: &mut Criterion) {
    println!("\n-- inference input path: DOM vs streaming events --");
    let docs = Corpus::Github.generate(2_000);
    let ndjson = jsonx_syntax::write_ndjson(&docs);
    // Equivalence check once, outside measurement.
    let dom = {
        let parsed = jsonx_syntax::parse_ndjson(&ndjson).unwrap();
        infer_collection(&parsed, Equivalence::Kind)
    };
    let sequential = jsonx::Run {
        workers: 1,
        ..jsonx::Run::default()
    };
    let stream = |text: &str| {
        let (ty, _) = sequential
            .infer(jsonx::Source::slice(text), Equivalence::Kind)
            .unwrap();
        ty
    };
    assert_eq!(stream(&ndjson), dom);
    let mut group = c.benchmark_group("a01_inference_path");
    group.bench_function("parse_dom_then_infer", |b| {
        b.iter(|| {
            let parsed = jsonx_syntax::parse_ndjson(black_box(&ndjson)).unwrap();
            infer_collection(&parsed, Equivalence::Kind)
        })
    });
    group.bench_function("streaming_events", |b| {
        b.iter(|| stream(black_box(&ndjson)))
    });
    group.finish();
    println!("(identical results; streaming skips the DOM allocation entirely)");
}

fn typing_route_ablation(c: &mut Criterion) {
    println!("\n-- collection typing: type-then-fuse vs in-place --");
    use jsonx::core::{fuse, JType};
    use jsonx::{JsonDecoder, StreamTyper, TypeFold};
    let docs = Corpus::Github.generate(2_000);
    let ndjson = jsonx_syntax::write_ndjson(&docs);
    let decoder = JsonDecoder::new();
    // One worker's fold over one chunk, both ways: a `JType` per record
    // fused into the accumulated type, against events incrementing the
    // accumulated type where it stands.
    let type_then_fuse = |typer: &mut StreamTyper, text: &str| {
        text.lines().fold(JType::Bottom, |acc, line| {
            let ty = typer.type_decoded(&decoder, &mut (), line).unwrap();
            fuse(acc, ty, Equivalence::Kind)
        })
    };
    let in_place = |fold: &mut TypeFold, text: &str| {
        let mut routes = jsonx::RouteCounts::default();
        for line in text.lines() {
            routes.count(fold.record(&decoder, &mut (), line).unwrap());
        }
        (fold.take(), routes)
    };
    let mut typer = StreamTyper::new(Equivalence::Kind);
    let mut fold = TypeFold::new(Equivalence::Kind);
    let (ty, routes) = in_place(&mut fold, &ndjson);
    assert_eq!(ty, type_then_fuse(&mut typer, &ndjson));
    println!(
        "{} records typed in place, {} replayed; identical types",
        routes.fast,
        routes.replayed.values().sum::<u64>()
    );
    let mut group = c.benchmark_group("a01_typing_route");
    group.bench_function("type_then_fuse", |b| {
        b.iter(|| type_then_fuse(&mut typer, black_box(&ndjson)))
    });
    group.bench_function("in_place", |b| {
        b.iter(|| in_place(&mut fold, black_box(&ndjson)))
    });
    group.finish();
    println!("(same decode on both arms; the difference is the typing + fusion layer)");
}

fn main() {
    banner(
        "A1",
        "ablations: union bounding, speculation capacity, index depth",
    );
    union_width_ablation();
    pattern_capacity_ablation();
    let mut c: Criterion = criterion();
    index_depth_ablation(&mut c);
    bitmap_construction_ablation(&mut c);
    streaming_inference_ablation(&mut c);
    typing_route_ablation(&mut c);
    c.final_summary();
}
