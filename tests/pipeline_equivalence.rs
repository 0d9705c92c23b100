//! Cross-crate property tests for the two new pipeline stages: the
//! combined single-pass infer+validate must equal running the inference
//! and validation stages back to back, and streaming schema-driven
//! translation must build the exact batch the DOM shredder builds — for
//! any worker count and arbitrary document mixes, including blank lines
//! and missing trailing newlines at shard boundaries.

use jsonx::core::{infer_collection, Equivalence};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::{parse_ndjson, to_string};
use jsonx::translate::Shredder;
use jsonx::{Run, Source};
use jsonx_data::{json, Number, Object, Value};
use proptest::prelude::*;

/// Strategy producing arbitrary JSON documents of bounded size.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(|i| Value::Num(Number::Int(i))),
        (-1e9f64..1e9f64).prop_map(|f| Value::Num(Number::from_f64(f).unwrap())),
        "\\PC{0,12}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Arr),
            prop::collection::vec(("[a-z]{0,6}", inner), 0..5)
                .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>())),
        ]
    })
}

/// Strategy producing flat-ish records only — what the columnar shredder
/// accepts as rows.
fn arb_record() -> impl Strategy<Value = Value> {
    let field = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(|i| Value::Num(Number::Int(i))),
        "\\PC{0,8}".prop_map(Value::Str),
        prop::collection::vec(any::<i64>().prop_map(|i| Value::Num(Number::Int(i))), 0..4)
            .prop_map(Value::Arr),
        prop::collection::vec(("[a-z]{1,4}", any::<bool>().prop_map(Value::Bool)), 0..3)
            .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>())),
    ];
    prop::collection::vec(("[a-z]{1,5}", field), 0..6)
        .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>()))
}

/// Serializes docs one per line, optionally inserting blank lines (which
/// every stage must skip) and optionally dropping the final newline.
fn to_ndjson(docs: &[Value], blank_every: usize, trailing_newline: bool) -> String {
    let mut out = String::new();
    for (i, d) in docs.iter().enumerate() {
        if blank_every > 0 && i % blank_every == 0 {
            out.push('\n');
        }
        out.push_str(&to_string(d));
        out.push('\n');
    }
    if !trailing_newline && out.ends_with('\n') {
        out.pop();
    }
    out
}

/// A fail-fast plan; a nonzero `chunk_bytes` dispatches even the tiny
/// proptest corpora across `workers` threads.
fn plan(workers: usize, chunk_bytes: usize) -> Run<'static> {
    Run {
        workers,
        chunk_bytes,
        ..Run::default()
    }
}

fn test_schema() -> CompiledSchema {
    CompiledSchema::compile(&json!({
        "type": "object",
        "properties": {
            "a": {"type": "integer"},
            "b": {"type": "string", "minLength": 1}
        },
        "required": ["a"]
    }))
    .unwrap()
}

proptest! {
    #[test]
    fn combined_pass_equals_infer_then_validate(
        docs in prop::collection::vec(arb_value(), 0..24),
        workers in prop::sample::select(vec![1usize, 2, 3, 8]),
        blank_every in 0usize..4,
        trailing_newline in any::<bool>(),
    ) {
        let ndjson = to_ndjson(&docs, blank_every, trailing_newline);
        let schema = test_schema();
        let vopts = ValidatorOptions::default();
        let (ty, _) = plan(1, 0).infer(Source::slice(&ndjson), Equivalence::Kind).unwrap();
        let (verdicts, _) = plan(1, 0).validate(Source::slice(&ndjson), &schema, vopts).unwrap();
        let ((combined_ty, combined_verdicts), _) = plan(workers, 16)
            .infer_validate(Source::slice(&ndjson), Equivalence::Kind, &schema, vopts)
            .unwrap();
        prop_assert_eq!(&combined_ty, &ty, "workers {}", workers);
        prop_assert_eq!(&combined_verdicts, &verdicts, "workers {}", workers);
    }

    #[test]
    fn streaming_translation_equals_dom_shred(
        docs in prop::collection::vec(arb_record(), 0..24),
        workers in prop::sample::select(vec![1usize, 2, 3, 8]),
        blank_every in 0usize..4,
        trailing_newline in any::<bool>(),
    ) {
        let ndjson = to_ndjson(&docs, blank_every, trailing_newline);
        // Serialization round-trips, so the DOM shred over the reparse is
        // the reference batch.
        prop_assert_eq!(&parse_ndjson(&ndjson).unwrap(), &docs);
        let ty = infer_collection(&docs, Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let dom = shredder.clone().shred(&docs).unwrap();
        let (seq, _) = plan(1, 0).translate(Source::slice(&ndjson), &shredder).unwrap();
        prop_assert_eq!(&seq, &dom);
        let (par, _) = plan(workers, 16).translate(Source::slice(&ndjson), &shredder).unwrap();
        prop_assert_eq!(&par, &dom, "workers {}", workers);
    }
}

#[test]
fn tiny_inputs_fall_back_to_sequential_in_both_stages() {
    // Smaller than the automatic chunking threshold: the engine must take
    // the sequential path and still agree with the explicit sequential
    // calls.
    let ndjson = "{\"a\": 1}\n";
    let schema = test_schema();
    let vopts = ValidatorOptions::default();
    let auto = Run::default();
    let (combined, report) = auto
        .infer_validate(Source::slice(ndjson), Equivalence::Kind, &schema, vopts)
        .unwrap();
    assert_eq!(report.shards, 1);
    let (seq, _) = plan(1, 0)
        .infer_validate(Source::slice(ndjson), Equivalence::Kind, &schema, vopts)
        .unwrap();
    assert_eq!(combined, seq);

    let docs = parse_ndjson(ndjson).unwrap();
    let ty = infer_collection(&docs, Equivalence::Kind);
    let shredder = Shredder::from_type(&ty);
    let dom = shredder.clone().shred(&docs).unwrap();
    let (batch, _) = auto.translate(Source::slice(ndjson), &shredder).unwrap();
    assert_eq!(batch, dom);
}

#[test]
fn empty_input_yields_empty_outputs() {
    let schema = test_schema();
    let ((ty, verdicts), report) = plan(1, 0)
        .infer_validate(
            Source::slice(""),
            Equivalence::Kind,
            &schema,
            ValidatorOptions::default(),
        )
        .unwrap();
    assert_eq!(ty, jsonx::core::JType::Bottom);
    assert!(verdicts.is_empty());
    assert_eq!(report.records, 0);

    let shredder = Shredder::from_type(&jsonx::core::JType::Bottom);
    let (batch, _) = plan(1, 0).translate(Source::slice(""), &shredder).unwrap();
    assert_eq!(batch.rows, 0);
}
