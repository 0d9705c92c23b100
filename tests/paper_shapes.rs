//! The tutorial's claims about the systems it surveys, held as shapes.
//!
//! The EDBT 2019 tutorial publishes no tables of its own; EXPERIMENTS.md
//! turns the claims it makes about each surveyed system into an expected
//! *shape* — who wins, what collapses, what stays flat. Each test here
//! asserts one such shape (E1–E13, and A1's deterministic rows) on the
//! seeded `jsonx-gen` corpora: orderings, equalities, monotonicity and
//! thresholds, never a node count or a time. Where the product has the
//! capability, the claim runs through it: `Run::infer` for K and L,
//! `Run::documents` for the mongo profile and the skeleton.
//!
//! `cargo test --test paper_shapes -- --nocapture` prints the rows
//! EXPERIMENTS.md quotes. The claims whose shape is a time (E2's growth,
//! E9's and E11's speed) are printed by `examples/paper_timings.rs`.

use jsonx::baselines::{infer_naive, infer_skinfer, infer_spark, SparkType};
use jsonx::core::{
    bound_union_width, false_acceptance_rate, fuse, infer_collection, infer_value, print_type,
    type_size, Equivalence, JType, PrintOptions,
};
use jsonx::data::{node_count, text_size};
use jsonx::documents::{ProfileFold, SkeletonFold};
use jsonx::gen::{twitter, Corpus, DialedGenerator, GeneratorConfig};
use jsonx::jaql::{expr, infer_output_type, Pipeline};
use jsonx::mison::{PatternTree, ProjectedParser, SpeculativeDecoder};
use jsonx::schema::CompiledSchema;
use jsonx::skeleton::Skeleton;
use jsonx::syntax::{parse, parse_ndjson, to_string, write_ndjson};
use jsonx::translate::{
    discover, normalize, rows_as_values, AvroCodec, AvroSchema, ColumnarBatch, Shredder,
};
use jsonx::{json, JsonDecoder, Number, Object, RouteCounts, Run, Source, TypeFold, Value};

/// The product's run: two workers over 64 KiB chunks, so chunk results
/// fuse.
fn run() -> Run<'static> {
    Run {
        workers: 2,
        chunk_bytes: 1 << 16,
        ..Run::default()
    }
}

/// `jsonx infer` of `docs` rendered as NDJSON.
fn engine_infer(docs: &[Value], equiv: Equivalence) -> JType {
    let text = write_ndjson(docs);
    let (ty, report) = run().infer(Source::slice(&text), equiv).unwrap();
    assert_eq!(report.records, docs.len());
    ty
}

fn share(hits: usize, of: usize) -> f64 {
    hits as f64 / of as f64
}

// ---------------------------------------------------------------------------
// E2 — validation stays polynomial (Pezoa et al.)
// ---------------------------------------------------------------------------

/// A schema of `depth` nested levels of `width` patterned string
/// properties, each level with a union and a negation.
fn deep_schema(depth: usize, width: usize) -> Value {
    let mut properties = Object::new();
    for i in 0..width {
        properties.insert(
            format!("s{i}"),
            json!({"type": "string", "pattern": "^[a-z0-9_]*$"}),
        );
    }
    properties.insert(
        "v",
        json!({"anyOf": [{"type": "integer"}, {"type": "string"}], "not": {"type": "boolean"}}),
    );
    if depth > 0 {
        properties.insert("child", deep_schema(depth - 1, width));
    }
    json!({"type": "object", "properties": Value::Obj(properties), "required": ["v"]})
}

/// A document matching `deep_schema(depth, width)`, its deepest `v`
/// replaced by `leaf`.
fn deep_doc(depth: usize, width: usize, leaf: &Value) -> Value {
    let mut obj = Object::new();
    for i in 0..width {
        obj.insert(format!("s{i}"), Value::Str(format!("value_{i}")));
    }
    match depth {
        0 => obj.insert("v", leaf.clone()),
        _ => {
            obj.insert("v", Value::from(42));
            obj.insert("child", deep_doc(depth - 1, width, leaf))
        }
    };
    Value::Obj(obj)
}

#[test]
fn e02_negation_towers_and_deep_schemas_give_the_expected_verdicts() {
    let mut tower = json!({"type": "integer"});
    for _ in 0..64 {
        tower = json!({ "not": tower });
    }
    let tower = CompiledSchema::compile(&tower).unwrap();
    assert!(tower.is_valid(&json!(3)));
    assert!(!tower.is_valid(&json!("3")));
    for depth in [1, 2, 4, 8, 16] {
        let schema = CompiledSchema::compile(&deep_schema(depth, 6)).unwrap();
        for (leaf, valid) in [(json!(42), true), (json!("s"), true), (json!(true), false)] {
            let doc = deep_doc(depth, 6, &leaf);
            assert_eq!(schema.is_valid(&doc), valid, "depth {depth}, v = {leaf}");
        }
        let mut bad_pattern = deep_doc(depth, 6, &json!(42));
        if let Value::Obj(obj) = &mut bad_pattern {
            obj.insert("s0", Value::from("Not Lower"));
        }
        assert!(!schema.is_valid(&bad_pattern), "depth {depth}");
    }
}

// ---------------------------------------------------------------------------
// E3 — parametric inference: K is succinct, L is precise
// ---------------------------------------------------------------------------

/// Probes no corpus holds: dialed documents of four shapes with every
/// scalar's kind drawn at random, and real documents with one field
/// turned into an object.
fn perturbations(docs: &[Value], seed_shift: u64) -> Vec<Value> {
    let config = GeneratorConfig {
        seed: 999 + seed_shift,
        type_noise: 1.0,
        shape_variants: 4,
        ..Default::default()
    };
    let mut probes = DialedGenerator::new(config).generate(docs.len().min(200));
    for doc in docs.iter().take(100) {
        let obj = doc.as_object().unwrap();
        if let Some(key) = obj.keys().next() {
            let mut broken = obj.clone();
            broken.insert(key.to_string(), json!({"__corrupt": true}));
            probes.push(Value::Obj(broken));
        }
    }
    probes
}

#[test]
fn e03_k_is_no_larger_than_l_and_l_admits_no_more_than_k() {
    println!("corpus        K size  L size  data nodes  FAR K   FAR L");
    for corpus in [
        Corpus::Twitter,
        Corpus::Github,
        Corpus::Nytimes,
        Corpus::Heterogeneous(40),
    ] {
        let docs = corpus.generate(1_000);
        let name = corpus.name();
        let data_nodes: usize = docs.iter().map(node_count).sum();
        let probes = perturbations(&docs, name.len() as u64);
        let [k, l] = [Equivalence::Kind, Equivalence::Label].map(|equiv| {
            let ty = engine_infer(&docs, equiv);
            assert_eq!(ty, infer_collection(&docs, equiv), "{name} {equiv:?}");
            assert!(docs.iter().all(|d| ty.admits(d)), "{name} {equiv:?}");
            ty
        });
        let (far_k, far_l) = (
            false_acceptance_rate(&k, &probes),
            false_acceptance_rate(&l, &probes),
        );
        println!(
            "{name:<12} {:>7} {:>7} {data_nodes:>11} {:>5.1}% {:>5.1}%",
            type_size(&k),
            type_size(&l),
            far_k * 100.0,
            far_l * 100.0
        );
        assert!(type_size(&l) * 20 < data_nodes, "{name}");
        assert!(far_l <= far_k, "{name}");
        match corpus {
            Corpus::Nytimes => assert_eq!(k, l, "one label set leaves L nothing to separate"),
            _ => assert!(
                type_size(&k) < type_size(&l),
                "{name}: L keeps each label set apart"
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// E4 — counting types profile the collection
// ---------------------------------------------------------------------------

#[test]
fn e04_presence_counters_expose_the_api_drift() {
    let config = twitter::TwitterConfig::default();
    let docs = twitter::tweets(&config, 2_000);
    let JType::Record(root) = engine_infer(&docs, Equivalence::Kind) else {
        panic!("tweets type as a record");
    };
    let presence = |field: &str| root.field(field).map_or(0, |f| f.presence);
    let (text, full_text) = (presence("text"), presence("full_text"));
    let retweets = presence("retweeted_status");
    println!(
        "text {text} + full_text {full_text} of {}; retweeted_status {retweets}",
        root.count
    );
    assert_eq!(text + full_text, root.count);
    assert_eq!(root.count, docs.len() as u64);
    let rate = retweets as f64 / root.count as f64;
    assert!((rate - config.retweet_rate).abs() < 0.03, "{rate}");
}

// ---------------------------------------------------------------------------
// E5 — Spark resorts to Str; K and L keep the union
// ---------------------------------------------------------------------------

/// The bench's linear congruential generator.
struct Lcg(u64);

impl Lcg {
    fn chance(&mut self, percent: u8) -> bool {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % 100 < u64::from(percent)
    }
}

const WIDTH: usize = 8;

/// Records of `WIDTH` integer fields, each drifting to the integer's
/// string with probability `drift`%.
fn drifting(drift: u8, n: usize) -> Vec<Value> {
    let mut rng = Lcg(42);
    (0..n)
        .map(|i| {
            let mut obj = Object::with_capacity(WIDTH);
            for f in 0..WIDTH {
                let v = (i * WIDTH + f) as i64;
                let value = match rng.chance(drift) {
                    true => Value::Str(v.to_string()),
                    false => Value::Num(Number::Int(v)),
                };
                obj.insert(format!("f{f}"), value);
            }
            Value::Obj(obj)
        })
        .collect()
}

/// Records carrying kinds no drifting record has: booleans and floats.
fn unseen_kinds(n: usize) -> Vec<Value> {
    let mut rng = Lcg(7);
    (0..n)
        .map(|i| {
            let mut obj = Object::with_capacity(WIDTH);
            for f in 0..WIDTH {
                let value = match rng.chance(50) {
                    true => Value::Bool(i % 2 == 0),
                    false => Value::Num(Number::Float(0.5 + f as f64)),
                };
                obj.insert(format!("f{f}"), value);
            }
            Value::Obj(obj)
        })
        .collect()
}

#[test]
fn e05_spark_collapses_drifting_fields_to_string() {
    let probes = unseen_kinds(400);
    println!("drift  str-fallbacks  FAR spark  FAR K  FAR L");
    for drift in [0u8, 5, 10, 25, 50, 75, 100] {
        let docs = drifting(drift, 1_000);
        let spark = infer_spark(&docs);
        let SparkType::Struct(fields) = &spark else {
            panic!("records infer to a struct");
        };
        let fallbacks = fields
            .iter()
            .filter(|(_, t)| *t == SparkType::String)
            .count();
        let far_spark = share(
            probes.iter().filter(|p| spark.admits(p)).count(),
            probes.len(),
        );
        let [far_k, far_l] = [Equivalence::Kind, Equivalence::Label].map(|equiv| {
            let ty = infer_collection(&docs, equiv);
            assert!(docs.iter().all(|d| ty.admits(d)), "{drift}% {equiv:?}");
            false_acceptance_rate(&ty, &probes)
        });
        println!(
            "{drift:>4}%  {fallbacks:>10}/{WIDTH}  {:>8.1}%  {:>4.1}%  {:>4.1}%",
            far_spark * 100.0,
            far_k * 100.0,
            far_l * 100.0
        );
        let collapsed = if drift == 0 { (0, 0.0) } else { (WIDTH, 1.0) };
        assert_eq!((fallbacks, far_spark), collapsed, "{drift}% drift");
        assert_eq!((far_k, far_l), (0.0, 0.0), "{drift}% drift");
    }
}

// ---------------------------------------------------------------------------
// E7 — no-merge schemas grow with the data; merged ones do not
// ---------------------------------------------------------------------------

/// Flat records with two optional fields and 5% type drift: a bounded
/// shape vocabulary.
fn bounded_shapes(n: usize) -> Vec<Value> {
    let config = GeneratorConfig {
        seed: 13,
        record_width: 6,
        optional_rate: 0.5,
        optional_fraction: 0.33,
        type_noise: 0.05,
        nesting_depth: 0,
        array_len: (0, 3),
        ..Default::default()
    };
    DialedGenerator::new(config).generate(n)
}

#[test]
fn e07_naive_schemas_grow_while_k_and_the_profile_stay_fixed() {
    let mut naive_sizes = Vec::new();
    let mut k_sizes = Vec::new();
    let mut mongo_paths = Vec::new();
    println!("docs   data bytes  naive  K  L  mongo paths");
    for n in [10usize, 100, 1_000, 5_000] {
        let docs = bounded_shapes(n);
        let text = write_ndjson(&docs);
        let (profile, _) = run().documents(Source::slice(&text), &ProfileFold).unwrap();
        assert_eq!(profile.total_docs(), n as u64);
        let naive = infer_naive(&docs).size();
        let k = type_size(&engine_infer(&docs, Equivalence::Kind));
        let l = type_size(&engine_infer(&docs, Equivalence::Label));
        println!(
            "{n:>5} {:>11} {naive:>6} {k:>3} {l:>3} {:>5}",
            text.len() - n,
            profile.size()
        );
        naive_sizes.push(naive);
        k_sizes.push(k);
        mongo_paths.push(profile.size());
    }
    assert!(
        naive_sizes.windows(2).all(|w| w[0] < w[1]),
        "{naive_sizes:?}"
    );
    assert_eq!(k_sizes[2], k_sizes[3], "{k_sizes:?}");
    assert!(
        mongo_paths.iter().all(|&p| p == mongo_paths[0]),
        "{mongo_paths:?}"
    );
}

// ---------------------------------------------------------------------------
// E8 — a skeleton misses the rare paths
// ---------------------------------------------------------------------------

#[test]
fn e08_the_skeleton_sheds_rare_structures_as_coverage_falls() {
    let docs = Corpus::Github.generate(5_000);
    let text = write_ndjson(&docs);
    let (counts, _) = run()
        .documents(Source::slice(&text), &SkeletonFold)
        .unwrap();
    let full = Skeleton::mine(&docs, 1.0);
    let mut last_size = usize::MAX;
    println!("coverage  structures  nodes  paths  payload.forkee");
    for coverage in [1.0, 0.95, 0.9, 0.8, 0.6, 0.4] {
        let skeleton = Skeleton::from_counts(counts.clone(), coverage);
        let stats = skeleton.stats();
        let forkee = skeleton.contains_path("payload.forkee");
        println!(
            "{coverage:>8.2} {:>11} {:>6} {:>6}  {forkee}",
            stats.structures, stats.size, stats.paths
        );
        assert!(stats.size <= last_size, "coverage {coverage}");
        last_size = stats.size;
        if coverage == 1.0 {
            assert_eq!(stats.structures, 5);
            assert_eq!(stats.size, full.stats().size);
            assert!(forkee);
        }
        if coverage == 0.6 {
            assert!(!forkee);
        }
    }
}

// ---------------------------------------------------------------------------
// E9 — Mison's projection reads what a full parse reads
// ---------------------------------------------------------------------------

#[test]
fn e09_projection_equals_the_full_parse_restricted_to_its_fields() {
    let docs = Corpus::Nytimes.generate(500);
    let lines: Vec<String> = docs.iter().map(to_string).collect();
    let fields: Vec<&str> = docs[0].as_object().unwrap().keys().collect();
    assert_eq!(fields.len(), 14);
    for k in [1, 2, 4, 8, 14] {
        let projected = &fields[..k];
        let parser = ProjectedParser::new(projected).unwrap();
        for line in &lines {
            let want = restrict(&parse(line).unwrap(), projected);
            assert_eq!(parser.parse(line.as_bytes()).unwrap(), want, "{k} fields");
        }
    }
}

// ---------------------------------------------------------------------------
// E10 and A1 — speculation needs a stable layout
// ---------------------------------------------------------------------------

/// `doc` with its keys rotated left by `by`.
fn rotate_layout(doc: &Value, by: usize) -> String {
    let entries: Vec<(&str, &Value)> = doc.as_object().unwrap().iter().collect();
    let mut rotated = Object::with_capacity(entries.len());
    for i in 0..entries.len() {
        let (key, value) = entries[(i + by) % entries.len()];
        rotated.insert(key.to_string(), value.clone());
    }
    to_string(&Value::Obj(rotated))
}

#[test]
fn e10_speculation_hits_on_stable_layouts_and_degrades_under_rotation() {
    let docs = Corpus::Nytimes.generate(3_000);
    let regime = |layout: &dyn Fn(usize, &Value) -> String| {
        let decoder = SpeculativeDecoder::new();
        for (i, doc) in docs.iter().enumerate() {
            let line = layout(i, doc);
            let got = decoder.get_field(line.as_bytes(), "word_count");
            assert_eq!(got.as_ref(), doc.get("word_count"), "document {i}");
        }
        decoder.stats()
    };
    let stable = regime(&|_, doc| to_string(doc));
    let alternating = regime(&|i, doc| rotate_layout(doc, (i % 2) * 3)).hit_rate();
    let rotating = regime(&|i, doc| rotate_layout(doc, i % 7)).hit_rate();
    println!(
        "hit rates: stable {:.4}, two alternating {alternating:.4}, rotating {rotating:.4}",
        stable.hit_rate()
    );
    assert_eq!(stable.misses, 1, "only the first, cold lookup misses");
    assert!(alternating >= 0.99, "{alternating}");
    assert!(rotating < 0.6, "{rotating}");
}

#[test]
fn a1_pattern_capacity_must_cover_the_distinct_layouts() {
    let layouts: [&[&str]; 3] = [
        &["a", "b", "target", "c"],
        &["target", "a", "b", "c"],
        &["a", "target", "b", "c"],
    ];
    let rates = [1, 2, 3, 4].map(|capacity| {
        let mut tree = PatternTree::new(capacity);
        for i in 0..3_000 {
            tree.probe("target", layouts[i % 3]);
        }
        tree.stats().hit_rate()
    });
    println!("hit rate at capacity 1..4: {rates:?}");
    assert!((rates[0] - 1.0 / 3.0).abs() < 0.01, "{rates:?}");
    assert!((rates[1] - 2.0 / 3.0).abs() < 0.01, "{rates:?}");
    assert!(rates[2] >= 0.99, "{rates:?}");
    assert_eq!(rates[3], rates[2]);
}

// ---------------------------------------------------------------------------
// E11 — schema-driven translation
// ---------------------------------------------------------------------------

/// `batch`'s rows with only the cells at `paths`.
fn rows_at(batch: &ColumnarBatch, paths: &[&str]) -> Vec<Object> {
    rows_as_values(batch, usize::MAX)
        .iter()
        .map(|row| restrict(row, paths))
        .collect()
}

/// `doc`'s members whose key is one of `keys`, in `doc`'s order.
fn restrict(doc: &Value, keys: &[&str]) -> Object {
    let mut out = Object::new();
    for (key, value) in doc.as_object().unwrap().iter() {
        if keys.contains(&key) {
            out.insert(key, value.clone());
        }
    }
    out
}

#[test]
fn e11_schema_aware_translation_matches_discovery_and_compacts() {
    let docs = Corpus::Twitter.generate(5_000);
    let ty = infer_collection(&docs, Equivalence::Kind);
    let aware = Shredder::from_type(&ty).shred(&docs).unwrap();
    let blind = discover(&docs).unwrap();
    let paths: Vec<&str> = aware.columns.iter().map(|c| c.path.as_str()).collect();
    assert_eq!(rows_at(&aware, &paths), rows_at(&blind, &paths));

    let codec = AvroCodec::new(AvroSchema::from_type(&ty));
    let json_bytes: usize = docs.iter().map(text_size).sum();
    let avro_bytes: usize = docs.iter().map(|d| codec.encode(d).unwrap().len()).sum();
    let relations = normalize("tweets", &docs);
    println!(
        "{} columns; avro {avro_bytes} of {json_bytes} JSON bytes; {} relations",
        aware.columns.len(),
        relations.len()
    );
    assert!(
        avro_bytes * 100 < json_bytes * 40,
        "{avro_bytes} / {json_bytes}"
    );
    assert_eq!(relations.len(), 9);
}

// ---------------------------------------------------------------------------
// E12 — Skinfer does not merge under arrays
// ---------------------------------------------------------------------------

/// `{"xs": leaf}` with `leaf` under `depth` arrays.
fn nest(depth: usize, mut leaf: Value) -> Value {
    for _ in 0..depth {
        leaf = json!([leaf]);
    }
    json!({ "xs": leaf })
}

/// Whether Skinfer's schema still constrains the items under `xs`.
fn skinfer_keeps_items(schema: &Value, depth: usize) -> bool {
    let mut node = schema.get("properties").and_then(|p| p.get("xs"));
    for _ in 0..depth {
        node = node.and_then(|n| n.get("items"));
    }
    node.is_some_and(|n| n.get("properties").is_some() || n.get("type").is_some())
}

#[test]
fn e12_skinfer_drops_items_under_arrays_where_fusion_keeps_them() {
    println!("depth  skinfer items  FAR skinfer  FAR K  FAR L");
    for depth in 0..=3 {
        let docs: Vec<Value> = (0..500i64)
            .map(|i| match i % 2 {
                0 => nest(depth, json!({"a": i})),
                _ => nest(depth, json!({"a": i, "b": "extra"})),
            })
            .collect();
        let probes: Vec<Value> = (0..200)
            .map(|i| nest(depth, json!({"a": format!("not-an-int-{i}")})))
            .collect();
        let skinfer = infer_skinfer(&docs);
        let compiled = CompiledSchema::compile(&skinfer).unwrap();
        let far_skinfer = share(probes.iter().filter(|p| compiled.is_valid(p)).count(), 200);
        let [far_k, far_l] = [Equivalence::Kind, Equivalence::Label].map(|equiv| {
            let ty = infer_collection(&docs, equiv);
            assert!(docs.iter().all(|d| ty.admits(d)), "depth {depth} {equiv:?}");
            false_acceptance_rate(&ty, &probes)
        });
        let kept = skinfer_keeps_items(&skinfer, depth);
        println!(
            "{depth:>5}  {kept:>13}  {:>10.1}%  {:>4.1}%  {:>4.1}%",
            far_skinfer * 100.0,
            far_k * 100.0,
            far_l * 100.0
        );
        assert_eq!((far_k, far_l), (0.0, 0.0), "depth {depth}");
        match depth {
            0 => assert_eq!(far_skinfer, 0.0),
            _ => assert_eq!((kept, far_skinfer), (false, 1.0), "depth {depth}"),
        }
    }
}

// ---------------------------------------------------------------------------
// E13 — Jaql types a query's output from the input schema
// ---------------------------------------------------------------------------

#[test]
fn e13_every_row_a_query_yields_is_admitted_by_its_static_type() {
    let query = Pipeline::new()
        .filter(expr::path("type").eq(expr::lit("PushEvent")))
        .expand(expr::path("payload.commits"))
        .transform(expr::record([
            ("sha", expr::path("sha")),
            ("flag", expr::path("distinct")),
        ]));
    let docs = Corpus::Github.generate(1_000);
    let output = infer_output_type(&query, &engine_infer(&docs, Equivalence::Kind));
    assert_eq!(
        print_type(&output, PrintOptions::plain()),
        "{flag: Bool, sha: Str}"
    );
    let rows = query.eval(&docs);
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|row| output.admits(row)));
}

// ---------------------------------------------------------------------------
// A1 — the workspace's own knobs
// ---------------------------------------------------------------------------

#[test]
fn a1_bounding_union_width_trades_size_for_precision_soundly() {
    let config = GeneratorConfig {
        seed: 3,
        shape_variants: 12,
        shape_skew: 1.2,
        record_width: 5,
        ..Default::default()
    };
    let docs = DialedGenerator::new(config).generate(3_000);
    let l = infer_collection(&docs, Equivalence::Label);
    // Records mixing the fields of two shapes: no document has their
    // label set.
    fn label(o: &Object) -> Option<&str> {
        o.keys().find(|k| *k != "id" && *k != "items")
    }
    let mut probes = Vec::new();
    'pairs: for a in &docs {
        for b in &docs {
            let (a, b) = (a.as_object().unwrap(), b.as_object().unwrap());
            if label(a) != label(b) {
                let mut mixed = a.clone();
                for (key, value) in b.iter() {
                    if !mixed.contains_key(key) {
                        mixed.insert(key.to_string(), value.clone());
                    }
                }
                probes.push(Value::Obj(mixed));
                if probes.len() == 300 {
                    break 'pairs;
                }
            }
        }
    }
    let mut last = (usize::MAX, 0.0);
    for k in [usize::MAX, 8, 4, 2, 1] {
        let bounded = match k {
            usize::MAX => l.clone(),
            k => bound_union_width(l.clone(), k),
        };
        let (size, far) = (
            type_size(&bounded),
            false_acceptance_rate(&bounded, &probes),
        );
        println!("k {k:>20}: {size} nodes, FAR {:.1}%", far * 100.0);
        assert!(docs.iter().all(|d| bounded.admits(d)), "k = {k}");
        assert!(size <= last.0 && far >= last.1, "k = {k}");
        last = (size, far);
    }
}

#[test]
fn a1_inference_input_paths_and_typing_routes_agree() {
    let docs = Corpus::Github.generate(2_000);
    let text = write_ndjson(&docs);
    let dom = infer_collection(&parse_ndjson(&text).unwrap(), Equivalence::Kind);
    let sequential = Run {
        workers: 1,
        timing: true,
        ..Run::default()
    };
    let (streamed, report) = sequential
        .infer(Source::slice(&text), Equivalence::Kind)
        .unwrap();
    assert_eq!(streamed, dom);
    assert_eq!(report.routes.fast, 2_000);

    // A `JType` per record fused into the accumulated type, against
    // events incrementing it in place.
    let type_then_fuse = docs.iter().fold(JType::Bottom, |acc, doc| {
        fuse(acc, infer_value(doc, Equivalence::Kind), Equivalence::Kind)
    });
    let decoder = JsonDecoder::new();
    let mut fold = TypeFold::new(Equivalence::Kind);
    let mut routes = RouteCounts::default();
    for line in text.lines() {
        routes.count(fold.record(&decoder, &mut (), line).unwrap());
    }
    assert_eq!(fold.take(), type_then_fuse);
    assert_eq!((routes.fast, routes.replayed.len()), (2_000, 0));
}
