//! Cross-crate property tests: sharded streaming validation (facade
//! `streaming` module, driven by the compiled fail-fast IR) must be
//! **verdict-identical** to sequential DOM validation
//! (`jsonx_syntax::parse_ndjson` + `CompiledSchema::validate`) at every
//! worker count, with per-line results in input order and malformed lines
//! reported at their exact indices.

use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::{parse_ndjson, to_string};
use jsonx::{ErrorPolicy, FaultOptions, LineVerdict, Run, Source, StreamError};
use jsonx_data::{json, Number, Object, Value};
use proptest::prelude::*;

/// Arbitrary JSON documents whose shapes overlap the schema strategy's
/// keywords (keys "a"/"b"/"c", small ints, short strings).
fn arb_doc() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-20i64..20).prop_map(|i| Value::Num(Number::Int(i))),
        (-20.0f64..20.0).prop_map(|f| Value::Num(Number::from_f64(f).unwrap())),
        "[a-c]{0,5}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Arr),
            prop::collection::vec(("[a-c]", inner), 0..4)
                .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>())),
        ]
    })
}

/// Schemas exercising types, bounds, patterns, combinators and `$ref`.
fn arb_schema() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(json!(true)),
        Just(json!({"type": "object"})),
        Just(json!({"type": ["integer", "string"]})),
        (-10i64..10).prop_map(|n| json!({ "minimum": n })),
        (0i64..4).prop_map(|n| json!({ "minLength": n })),
        Just(json!({"pattern": "^[ab]+$"})),
        Just(json!({"required": ["a"]})),
        Just(json!({"$ref": "#/definitions/d0"})),
    ];
    leaf.prop_recursive(2, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|s| json!({ "items": s })),
            inner.clone().prop_map(|s| json!({"properties": {"a": s}})),
            inner
                .clone()
                .prop_map(|s| json!({ "additionalProperties": s })),
            prop::collection::vec(inner.clone(), 1..3).prop_map(|ss| json!({ "anyOf": ss })),
            prop::collection::vec(inner.clone(), 1..3).prop_map(|ss| json!({ "oneOf": ss })),
            inner.clone().prop_map(|s| json!({ "not": s })),
        ]
    })
    .prop_map(|root| match root {
        Value::Obj(mut obj) => {
            obj.insert(
                "definitions",
                json!({"d0": {"type": "integer", "minimum": 0}}),
            );
            Value::Obj(obj)
        }
        other => other,
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

/// Fail-fast streaming verdicts at `workers` threads; a nonzero
/// `chunk_bytes` dispatches even tiny corpora across them.
fn stream_verdicts(
    ndjson: &str,
    schema: &CompiledSchema,
    opts: ValidatorOptions,
    workers: usize,
    chunk_bytes: usize,
) -> Vec<(usize, LineVerdict)> {
    let run = Run {
        workers,
        chunk_bytes,
        ..Run::default()
    };
    let (verdicts, _) = run
        .validate(Source::slice(ndjson), schema, opts)
        .expect("well-formed corpus");
    verdicts
}

/// The reference result: parse every line into a DOM and run the
/// error-collecting interpreter sequentially.
fn dom_verdicts(ndjson: &str, schema: &CompiledSchema, opts: ValidatorOptions) -> Vec<bool> {
    parse_ndjson(ndjson)
        .unwrap()
        .iter()
        .map(|doc| schema.validate_with(doc, opts).is_ok())
        .collect()
}

proptest! {
    #[test]
    fn streaming_validation_equals_dom_at_every_worker_count(
        schema_doc in arb_schema(),
        docs in prop::collection::vec(arb_doc(), 0..24),
    ) {
        let schema = CompiledSchema::compile(&schema_doc).unwrap();
        let ndjson = to_ndjson(&docs);
        let opts = ValidatorOptions::default();
        let reference = dom_verdicts(&ndjson, &schema, opts);

        let seq = stream_verdicts(&ndjson, &schema, opts, 1, 0);
        prop_assert_eq!(seq.len(), reference.len());
        for ((line, verdict), expected) in seq.iter().zip(&reference) {
            prop_assert_eq!(
                verdict.is_valid(),
                *expected,
                "line {} schema {} doc {}",
                line,
                schema_doc,
                docs[*line]
            );
        }

        for workers in 1..=6usize {
            let par = stream_verdicts(&ndjson, &schema, opts, workers, 16);
            prop_assert_eq!(&par, &seq, "workers={}", workers);
        }
    }

    #[test]
    fn line_indices_match_input_order(docs in prop::collection::vec(arb_doc(), 1..16)) {
        let schema = CompiledSchema::compile(&json!({"type": "object"})).unwrap();
        let ndjson = to_ndjson(&docs);
        let verdicts = stream_verdicts(&ndjson, &schema, ValidatorOptions::default(), 4, 8);
        let lines: Vec<usize> = verdicts.iter().map(|(l, _)| *l).collect();
        prop_assert_eq!(lines, (0..docs.len()).collect::<Vec<_>>());
    }
}

#[test]
fn malformed_lines_are_flagged_in_place() {
    let schema = CompiledSchema::compile(&json!({"type": "object"})).unwrap();
    let ndjson = "{\"a\": 1}\n{oops\n\n[1, 2]\n{\"b\": 2}\n";
    for workers in [1, 2, 4] {
        let run = Run {
            workers,
            chunk_bytes: 4,
            ..Run::default()
        };
        // Fail-fast names the malformed line at its exact index...
        let err = run
            .validate(Source::slice(ndjson), &schema, ValidatorOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, StreamError::Record { record: 1, .. }),
            "workers={workers}: {err:?}"
        );
        // ...and a tolerant run accounts for it there, with verdicts for
        // everything else. Blank line 2 is skipped; indices are original
        // line numbers.
        let tolerant = Run {
            fault: FaultOptions {
                policy: ErrorPolicy::Collect { max_errors: 10 },
                ..FaultOptions::default()
            },
            ..run
        };
        let (verdicts, report) = tolerant
            .validate(Source::slice(ndjson), &schema, ValidatorOptions::default())
            .unwrap();
        assert_eq!(
            verdicts,
            vec![
                (0, LineVerdict::Valid),
                (3, LineVerdict::Invalid),
                (4, LineVerdict::Valid)
            ],
            "workers={workers}"
        );
        assert_eq!(report.errors.rejects.len(), 1);
        assert_eq!(report.errors.rejects[0].record, 1);
    }
}

#[test]
fn formats_option_threads_through_streaming() {
    let schema = CompiledSchema::compile(&json!({"format": "date"})).unwrap();
    let ndjson = "\"2019-03-26\"\n\"not a date\"\n";
    let strict = ValidatorOptions {
        enforce_formats: true,
    };
    let lax = ValidatorOptions::default();
    let with = stream_verdicts(ndjson, &schema, strict, 1, 0);
    assert!(with[0].1.is_valid());
    assert_eq!(with[1].1, LineVerdict::Invalid);
    let without = stream_verdicts(ndjson, &schema, lax, 1, 0);
    assert!(without[0].1.is_valid() && without[1].1.is_valid());
}

#[test]
fn ref_heavy_schema_agrees_across_workers() {
    // A recursive schema (tree of nodes) stressing pre-resolved ref slots
    // and cycle guards on the parallel path.
    let schema_doc = json!({
        "$ref": "#/definitions/node",
        "definitions": {
            "node": {
                "type": "object",
                "properties": {
                    "v": {"type": "integer"},
                    "kids": {"items": {"$ref": "#/definitions/node"}}
                },
                "required": ["v"]
            }
        }
    });
    let schema = CompiledSchema::compile(&schema_doc).unwrap();
    let mut ndjson = String::new();
    for i in 0..200i64 {
        let doc = if i % 3 == 0 {
            json!({"v": i, "kids": [{"v": 1}, {"v": 2, "kids": []}]})
        } else if i % 3 == 1 {
            json!({"v": i})
        } else {
            json!({"kids": [{"v": "bad"}]})
        };
        ndjson.push_str(&to_string(&doc));
        ndjson.push('\n');
    }
    let opts = ValidatorOptions::default();
    let seq = stream_verdicts(&ndjson, &schema, opts, 1, 0);
    let reference = dom_verdicts(&ndjson, &schema, opts);
    assert_eq!(seq.len(), reference.len());
    for ((_, v), expected) in seq.iter().zip(&reference) {
        assert_eq!(v.is_valid(), *expected);
    }
    for workers in [2, 3, 8] {
        let par = stream_verdicts(&ndjson, &schema, opts, workers, 64);
        assert_eq!(par, seq, "workers={workers}");
    }
}
