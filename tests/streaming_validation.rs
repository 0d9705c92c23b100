//! Cross-crate property tests: sharded streaming validation (facade
//! `streaming` module, driven by the compiled fail-fast IR) must be
//! **verdict-identical** to sequential DOM validation
//! (`jsonx_syntax::parse_ndjson` + `CompiledSchema::validate`) at every
//! worker count, with per-line results in input order and malformed lines
//! reported at their exact indices. The schema strategy reaches both
//! ways a record meets the IR — validated from its events (open, closed
//! and inferred schemas), decoded to a document — and the corpora are
//! text with repeated keys, which only the document route can judge.

#[path = "../crates/schema/tests/oracle/mod.rs"]
mod oracle;

use jsonx::core::{infer_collection, to_json_schema, Equivalence};
use jsonx::gen::respelled;
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::{parse_ndjson, to_string};
use jsonx::{ErrorPolicy, FaultOptions, LineVerdict, Route, RouteCounts, Run, Source, StreamError};
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

/// Schemas exercising types, bounds, patterns, combinators and `$ref`,
/// open and closed records and kind-discriminated unions (streamable),
/// and the rest.
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
            (inner.clone(), inner.clone()).prop_map(|(a, b)| json!({
                "properties": {"a": a, "b": b},
                "required": ["a", "c"],
                "additionalProperties": false
            })),
            (inner.clone(), inner.clone()).prop_map(|(a, item)| json!({"anyOf": [
                {"type": "object", "properties": {"a": a}, "additionalProperties": false},
                {"type": "array", "items": [item], "additionalItems": false},
                {"type": "number"},
                {"type": "null"}
            ]})),
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

/// `docs` as text a serializer does not write — repeated and
/// escaped-equal keys, shuffled members, `3.0` for `3` — two lines in
/// three.
fn to_respelled_ndjson(docs: &[Value], seed: u64) -> String {
    let mut out = String::new();
    for (i, d) in docs.iter().enumerate() {
        match i % 3 {
            0 => out.push_str(&to_string(d)),
            _ => out.push_str(&respelled(d, seed.wrapping_add(i as u64))),
        }
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
/// oracle interpreter sequentially.
fn dom_verdicts(ndjson: &str, schema: &CompiledSchema, opts: ValidatorOptions) -> Vec<bool> {
    parse_ndjson(ndjson)
        .unwrap()
        .iter()
        .map(|doc| oracle::validate_with(schema, doc, opts).is_ok())
        .collect()
}

/// Streamed verdicts on `ndjson` ≡ the interpreter's on the parser's
/// documents, sequentially and at every worker count.
fn assert_streaming_equals_dom(ndjson: &str, schema_doc: &Value) -> Result<(), TestCaseError> {
    // The strategy's one reference target is a leaf: every schema is well
    // formed, by `compile` and by the oracle's own check.
    prop_assert_eq!(oracle::well_formed(schema_doc), Ok(()), "{}", schema_doc);
    let schema = CompiledSchema::compile(schema_doc).unwrap();
    let opts = ValidatorOptions::default();
    let reference = dom_verdicts(ndjson, &schema, opts);

    let seq = stream_verdicts(ndjson, &schema, opts, 1, 0);
    prop_assert_eq!(seq.len(), reference.len());
    for (((line, verdict), expected), text) in seq.iter().zip(&reference).zip(ndjson.lines()) {
        prop_assert_eq!(
            verdict.is_valid(),
            *expected,
            "line {} schema {} doc {}",
            line,
            schema_doc,
            text
        );
    }

    for workers in 1..=6usize {
        let par = stream_verdicts(ndjson, &schema, opts, workers, 16);
        prop_assert_eq!(&par, &seq, "workers={}", workers);
    }
    Ok(())
}

proptest! {
    #[test]
    fn streaming_validation_equals_dom_at_every_worker_count(
        schema_doc in arb_schema(),
        docs in prop::collection::vec(arb_doc(), 0..24),
        seed in any::<u64>(),
    ) {
        assert_streaming_equals_dom(&to_respelled_ndjson(&docs, seed), &schema_doc)?;
    }

    /// The schema `jsonx infer --schema` would write for the documents,
    /// over their respelled text: every record is validated from events
    /// or handed back for a repeated key, and strays from the schema
    /// wherever the respelling took it.
    #[test]
    fn inferred_schemas_validate_from_events_like_the_dom(
        docs in prop::collection::vec(arb_doc(), 1..24),
        seed in any::<u64>(),
    ) {
        let schema_doc = to_json_schema(&infer_collection(&docs, Equivalence::Kind));
        prop_assert_eq!(CompiledSchema::compile(&schema_doc).unwrap().streamable(), Ok(()));
        assert_streaming_equals_dom(&to_respelled_ndjson(&docs, seed), &schema_doc)?;
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
                policy: ErrorPolicy::Skip {
                    max_errors: Some(10),
                },
                keep_rejects: true,
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

/// The three records the event walk's design turns on, through the whole
/// engine: each gets the document's verdict (last key wins) and says by
/// its route how it got it.
#[test]
fn repeated_keys_get_the_documents_verdict_and_say_so() {
    let tree = CompiledSchema::compile(&json!({
        "definitions": {"t": {
            "type": "object",
            "additionalProperties": false,
            "required": ["value"],
            "properties": {
                "value": {"type": "integer"},
                "children": {"type": "array", "items": {"$ref": "#/definitions/t"}}
            }
        }},
        "$ref": "#/definitions/t"
    }))
    .unwrap();
    let a_integer = CompiledSchema::compile(&json!({
        "properties": {"a": {"type": "integer"}},
        "additionalProperties": false
    }))
    .unwrap();
    let unique = CompiledSchema::compile(&json!({
        "properties": {"a": {"uniqueItems": true}},
        "additionalProperties": false
    }))
    .unwrap();
    let replayed = |why| Route::Replayed(why);
    let cases: [(&CompiledSchema, &str, bool, Route); 7] = [
        // One node, two open frames: the inner object's `value` is no
        // duplicate of the outer's, the outer's second `value` is.
        (
            &tree,
            r#"{"value":1,"children":[{"value":2}],"value":2}"#,
            true,
            replayed("duplicate-key"),
        ),
        (
            &tree,
            r#"{"value":1,"children":[{"value":2}]}"#,
            true,
            Route::Fast,
        ),
        (
            &tree,
            r#"{"children":[{"children":[]}],"value":1}"#,
            false,
            Route::Fast,
        ),
        // A violation, then the duplicate that takes it back — and the
        // other way round.
        (
            &a_integer,
            r#"{"a":"x","a":1}"#,
            true,
            replayed("duplicate-key"),
        ),
        (
            &a_integer,
            r#"{"a":1,"a":"x"}"#,
            false,
            replayed("duplicate-key"),
        ),
        (
            &a_integer,
            r#"{"\u0061":1,"a":2}"#,
            true,
            replayed("duplicate-key"),
        ),
        // Outside the streamable fragment nothing is speculated.
        (&unique, r#"{"a":[1,1]}"#, false, replayed("uniqueItems")),
    ];
    for (schema, record, valid, route) in cases {
        // Enough copies for every worker to see some.
        let ndjson = format!("{record}\n").repeat(24);
        let mut routes = RouteCounts::default();
        (0..24).for_each(|_| routes.count(route));
        for workers in [1, 2, 8] {
            let run = Run {
                workers,
                chunk_bytes: 64,
                timing: true,
                ..Run::default()
            };
            let (verdicts, report) = run
                .validate(Source::slice(&ndjson), schema, ValidatorOptions::default())
                .unwrap();
            assert_eq!(verdicts.len(), 24);
            assert!(
                verdicts.iter().all(|(_, v)| v.is_valid() == valid),
                "{record} workers={workers}"
            );
            assert_eq!(report.routes, routes, "{record} workers={workers}");
            assert_eq!(
                schema.is_valid(&jsonx::syntax::parse(record).unwrap()),
                valid
            );
        }
    }
}
