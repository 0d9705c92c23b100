//! The three surveyed claims whose shape is a time: E2's validation
//! cost against schema depth, E9's projection speedup against the
//! number of projected fields, and E11's schema-aware shredding against
//! schema-blind discovery. Each row is printed after the equality that
//! makes the timing a fair comparison; `tests/paper_shapes.rs` holds the
//! claims' other shapes.
//!
//! ```sh
//! cargo run --release --example paper_timings
//! ```

use jsonx::core::{infer_collection, Equivalence};
use jsonx::data::{node_count, text_size};
use jsonx::gen::Corpus;
use jsonx::mison::ProjectedParser;
use jsonx::schema::CompiledSchema;
use jsonx::syntax::{parse_bytes, write_ndjson};
use jsonx::translate::{discover, normalize, rows_as_values, AvroCodec, AvroSchema, Shredder};
use jsonx::{json, Object, Value};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The fastest of five runs of `f`: scheduling noise only adds time.
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

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
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

/// E2's schema: `depth` nested levels of six patterned strings, a union
/// and a negation.
fn deep_schema(depth: usize) -> Value {
    let mut properties = Object::new();
    for i in 0..6 {
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
        properties.insert("child", deep_schema(depth - 1));
    }
    json!({"type": "object", "properties": Value::Obj(properties), "required": ["v"]})
}

fn deep_doc(depth: usize) -> Value {
    let mut obj = Object::new();
    for i in 0..6 {
        obj.insert(format!("s{i}"), Value::Str(format!("value_{i}")));
    }
    obj.insert("v", Value::from(42));
    if depth > 0 {
        obj.insert("child", deep_doc(depth - 1));
    }
    Value::Obj(obj)
}

fn e02_validation_scaling() {
    println!("E2: validation time against schema x document size (Pezoa et al.)");
    println!(
        "{:>6} {:>13} {:>10} {:>14}",
        "depth", "schema nodes", "doc nodes", "us/validation"
    );
    let per_validation = |schema: &CompiledSchema, doc: &Value| {
        let runs = 2_000;
        let best = best_of_five(|| (0..runs).all(|_| schema.is_valid(black_box(doc))));
        best.as_secs_f64() * 1e6 / f64::from(runs)
    };
    for depth in [1, 2, 4, 8, 16] {
        let (schema_doc, doc) = (deep_schema(depth), deep_doc(depth));
        let schema = CompiledSchema::compile(&schema_doc).unwrap();
        assert!(schema.is_valid(&doc));
        println!(
            "{depth:>6} {:>13} {:>10} {:>14.2}",
            node_count(&schema_doc),
            node_count(&doc),
            per_validation(&schema, &doc)
        );
    }
    let mut tower = json!({"type": "integer"});
    for _ in 0..64 {
        tower = json!({ "not": tower });
    }
    let tower = CompiledSchema::compile(&tower).unwrap();
    assert!(tower.is_valid(&json!(3)) && !tower.is_valid(&json!("3")));
    println!(
        "64-deep not tower: {:.2} us/validation\n",
        per_validation(&tower, &json!(3))
    );
}

fn e09_projection() {
    let docs = Corpus::Nytimes.generate(4_000);
    let text = write_ndjson(&docs);
    let lines: Vec<&[u8]> = text.lines().map(str::as_bytes).collect();
    let fields: Vec<&str> = docs[0].as_object().unwrap().keys().collect();
    println!(
        "E9: projection against full parsing, {} articles x {} fields, {:.1} MiB (Mison)",
        docs.len(),
        fields.len(),
        text.len() as f64 / (1024.0 * 1024.0)
    );
    let full = best_of_five(|| {
        for line in &lines {
            black_box(parse_bytes(line).unwrap());
        }
    });
    println!("{:>10} {:>10} {:>9}", "fields", "ms", "speedup");
    println!("{:>10} {:>10.2} {:>8.2}x", "all (full)", ms(full), 1.0);
    for k in [1, 2, 4, 8, fields.len()] {
        let parser = ProjectedParser::new(&fields[..k]).unwrap();
        for line in &lines {
            let want = restrict(&parse_bytes(line).unwrap(), &fields[..k]);
            assert_eq!(parser.parse(line).unwrap(), want);
        }
        let projected = best_of_five(|| {
            for line in &lines {
                black_box(parser.parse(line).unwrap());
            }
        });
        println!(
            "{k:>10} {:>10.2} {:>8.2}x",
            ms(projected),
            full.as_secs_f64() / projected.as_secs_f64()
        );
    }
    println!();
}

fn e11_translation() {
    let docs = Corpus::Twitter.generate(5_000);
    let json_bytes: usize = docs.iter().map(text_size).sum();
    println!(
        "E11: schema-aware against schema-blind translation, {} tweets, {:.1} MiB",
        docs.len(),
        json_bytes as f64 / (1024.0 * 1024.0)
    );
    let ty = infer_collection(&docs, Equivalence::Kind);
    let shredder = Shredder::from_type(&ty);
    let aware = shredder.shred(&docs).unwrap();
    let blind = discover(&docs).unwrap();
    let paths: Vec<&str> = aware.columns.iter().map(|c| c.path.as_str()).collect();
    let on_paths = |rows: Vec<Value>| -> Vec<Object> {
        rows.iter().map(|row| restrict(row, &paths)).collect()
    };
    assert_eq!(
        on_paths(rows_as_values(&aware, usize::MAX)),
        on_paths(rows_as_values(&blind, usize::MAX))
    );
    let infer = best_of_five(|| infer_collection(&docs, Equivalence::Kind));
    let aware = best_of_five(|| shredder.shred(&docs).unwrap());
    let blind = best_of_five(|| discover(&docs).unwrap());
    println!(
        "columnar ({} columns): schema-aware {:.2} ms (+ {:.2} ms one-off inference), schema-blind {:.2} ms, {:.2}x slower",
        paths.len(),
        ms(aware),
        ms(infer),
        ms(blind),
        blind.as_secs_f64() / aware.as_secs_f64()
    );
    let codec = AvroCodec::new(AvroSchema::from_type(&ty));
    let avro_bytes: usize = docs.iter().map(|d| codec.encode(d).unwrap().len()).sum();
    let encode = best_of_five(|| {
        docs.iter()
            .map(|d| codec.encode(d).unwrap().len())
            .sum::<usize>()
    });
    println!(
        "avro-like rows: {:.2} ms, {} -> {} KiB ({}%)",
        ms(encode),
        json_bytes / 1024,
        avro_bytes / 1024,
        avro_bytes * 100 / json_bytes
    );
    let relations = normalize("tweets", &docs).len();
    let normalized = best_of_five(|| normalize("tweets", &docs));
    println!(
        "relational normalization: {:.2} ms, {relations} relations",
        ms(normalized)
    );
}

fn main() {
    e02_validation_scaling();
    e09_projection();
    e11_translation();
}
