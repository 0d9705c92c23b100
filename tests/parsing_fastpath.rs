//! Differential property tests for the fused SWAR fast path.
//!
//! Two layers, matching the two claims the fast path makes:
//!
//! 1. **Structural index ≡ lexer.** The word-parallel bitmaps of
//!    `jsonx_syntax::structural` must agree with the recursive-descent
//!    lexer about where every structural character sits — on serialized
//!    arbitrary documents (escapes, multi-byte UTF-8, strings *containing*
//!    `{`/`:`/`,`/quotes) exactly, and on corrupted inputs for every token
//!    the lexer still produces before its first error.
//!
//! 2. **Fast path ≡ slow path.** Validation and translation with
//!    `fast_parse` on must be result-identical to `fast_parse` off at
//!    every worker count: verdict vectors, reject diagnostics (with exact
//!    error offsets), columnar batches, `RunReport`s and `StreamError`s,
//!    on clean and dirty corpora under every error policy. The fast path
//!    may *decline* records (verified fallback), never decide them
//!    differently. For validation the fast path is one of two: the
//!    projecting scanner under a schema that lets it skip, the walk over
//!    events under one that does not (closed or inferred schemas) — so
//!    the schema pool holds both kinds and the corpora hold text-level
//!    duplicate keys, the one thing the walk hands back.

use jsonx::gen::{dirty_ndjson, respelled, DirtyConfig};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::{to_string, Bitmaps, Lexer, RawToken};
use jsonx::translate::Shredder;
use jsonx::{ErrorPolicy, FaultOptions, RouteCounts, Run, Source};
use jsonx_data::{json, Number, Object, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// The slow/fast twins of one plan; the explicit chunk size dispatches
/// small corpora across `workers` threads.
fn twins(workers: usize, fault: FaultOptions) -> (Run<'static>, Run<'static>) {
    let slow = Run {
        workers,
        chunk_bytes: 64,
        fault,
        fast_parse: false,
        ..Run::default()
    };
    let fast = Run {
        fast_parse: true,
        ..slow.clone()
    };
    (slow, fast)
}

// ---------------------------------------------------------------------------
// Layer 1: structural index vs lexer token positions
// ---------------------------------------------------------------------------

/// Structural positions according to the lexer: scan tokens, recording
/// the byte offset each one starts at (strings also record their closing
/// quote). Stops at the first lexer error, so on invalid input the result
/// covers exactly the well-formed prefix.
#[derive(Debug, Default, PartialEq)]
struct LexerStructurals {
    colon: Vec<usize>,
    comma: Vec<usize>,
    lbrace: Vec<usize>,
    rbrace: Vec<usize>,
    lbracket: Vec<usize>,
    rbracket: Vec<usize>,
    quote: Vec<usize>,
}

fn lexer_structurals(bytes: &[u8]) -> LexerStructurals {
    let mut lx = Lexer::new(bytes);
    let mut out = LexerStructurals::default();
    loop {
        lx.skip_ws();
        let at = lx.offset();
        match lx.next_token_raw() {
            Ok(RawToken::Eof) | Err(_) => return out,
            Ok(RawToken::Colon) => out.colon.push(at),
            Ok(RawToken::Comma) => out.comma.push(at),
            Ok(RawToken::LBrace) => out.lbrace.push(at),
            Ok(RawToken::RBrace) => out.rbrace.push(at),
            Ok(RawToken::LBracket) => out.lbracket.push(at),
            Ok(RawToken::RBracket) => out.rbracket.push(at),
            Ok(RawToken::Str(_)) => {
                // The token spans `at..lx.offset()`; both delimiting quotes
                // are unescaped by construction.
                out.quote.push(at);
                out.quote.push(lx.offset() - 1);
            }
            Ok(_) => {}
        }
    }
}

fn bitmap_structurals(bytes: &[u8]) -> LexerStructurals {
    let bits = jsonx::syntax::structural::build(bytes);
    LexerStructurals {
        colon: Bitmaps::positions(&bits.colon).collect(),
        comma: Bitmaps::positions(&bits.comma).collect(),
        lbrace: Bitmaps::positions(&bits.lbrace).collect(),
        rbrace: Bitmaps::positions(&bits.rbrace).collect(),
        lbracket: Bitmaps::positions(&bits.lbracket).collect(),
        rbracket: Bitmaps::positions(&bits.rbracket).collect(),
        quote: Bitmaps::positions(&bits.quote).collect(),
    }
}

/// Documents whose serialized form is hostile to a structural scanner:
/// strings full of braces, colons, commas, quotes-to-be-escaped,
/// backslashes and multi-byte UTF-8.
fn arb_doc() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-100_000i64..100_000).prop_map(|i| Value::Num(Number::Int(i))),
        (-1000.0f64..1000.0).prop_map(|f| Value::Num(Number::from_f64(f).unwrap())),
        "\\PC{0,12}".prop_map(Value::Str),
        "[{}:,\u{4e16}\u{e9}a-c]{0,10}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Arr),
            prop::collection::vec(("\\PC{0,6}", inner), 0..4)
                .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>())),
        ]
    })
}

proptest! {
    /// On valid JSON the bitmap and the lexer must agree exactly, for
    /// every structural category and both string delimiters.
    #[test]
    fn structural_bitmaps_match_lexer_on_valid_json(doc in arb_doc()) {
        let text = to_string(&doc);
        let bytes = text.as_bytes();
        prop_assert_eq!(bitmap_structurals(bytes), lexer_structurals(bytes), "doc {}", text);
    }

    /// On corrupted input every token the lexer produces before its first
    /// error must still be present in the bitmaps: the lexer and the
    /// scanner read the same prefix the same way.
    #[test]
    fn structural_bitmaps_cover_lexer_prefix_on_corrupted_json(
        doc in arb_doc(),
        cut in 0usize..512,
        junk in "[@\\{\\}:,\"a-z ]{1,4}",
    ) {
        let mut text = to_string(&doc);
        // Corrupt: truncate at an arbitrary char boundary and append junk.
        while !text.is_char_boundary(cut.min(text.len())) {
            text.pop();
        }
        text.truncate(cut.min(text.len()));
        text.push_str(&junk);
        let bytes = text.as_bytes();
        let from_lexer = lexer_structurals(bytes);
        let from_bits = bitmap_structurals(bytes);
        for (name, lexer, bits) in [
            ("colon", &from_lexer.colon, &from_bits.colon),
            ("comma", &from_lexer.comma, &from_bits.comma),
            ("lbrace", &from_lexer.lbrace, &from_bits.lbrace),
            ("rbrace", &from_lexer.rbrace, &from_bits.rbrace),
            ("lbracket", &from_lexer.lbracket, &from_bits.lbracket),
            ("rbracket", &from_lexer.rbracket, &from_bits.rbracket),
            ("quote", &from_lexer.quote, &from_bits.quote),
        ] {
            for pos in lexer {
                prop_assert!(
                    bits.contains(pos),
                    "{} at {} seen by lexer but not bitmap in {:?}",
                    name, pos, text
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 2: fast path vs slow path, clean corpora
// ---------------------------------------------------------------------------

/// A schema pool straddling both boundaries: some members project (the
/// scanner route), some are closed — nothing to skip, so they are
/// validated from events — and some are neither projectable nor
/// streamable (every record decoded to a document). Behaviour must be
/// identical everywhere.
fn schema_pool() -> Vec<Value> {
    vec![
        json!({
            "type": "object",
            "properties": {"a": {"type": "integer"}, "b": {"type": "string"}},
            "required": ["a"]
        }),
        json!({"properties": {"a": {"minimum": 0}, "geo": {"properties": {"lat": {"type": "number"}}}}}),
        json!(true),
        json!({"type": "object"}),
        // Non-projectable: the verdict can depend on skipped fields.
        json!({"type": "object", "additionalProperties": {"type": "string"}}),
        json!({"allOf": [{"required": ["a"]}]}),
        json!({"type": "object", "minProperties": 2}),
        // Closed: every field matters. Streamable, so the event walk.
        closed_schema(),
        json!({
            "properties": {"a": {"type": ["integer", "null"]}, "b": {"maxLength": 3}},
            "required": ["a", "geo.lat"],
            "additionalProperties": false
        }),
        // Closed and not streamable.
        json!({"properties": {"a": {"uniqueItems": true}, "b": {}}, "additionalProperties": false}),
    ]
}

/// The shape of schema `jsonx infer --schema` writes, by hand.
fn closed_schema() -> Value {
    json!({
        "type": "object",
        "properties": {
            "a": {"anyOf": [{"type": "integer"}, {"type": "array", "items": {"type": "integer"}}]},
            "b": {"type": "string"},
            "geo": {
                "type": "object",
                "properties": {"lat": {"type": "number"}, "a": {"type": "null"}},
                "additionalProperties": false
            }
        },
        "required": ["a"],
        "additionalProperties": false
    })
}

/// Schema `idx` of the pool; one past its end, the schema inferred from
/// `docs` themselves (which their respelled text then strays from).
fn schema_at(idx: usize, docs: &[Value]) -> Value {
    let mut pool = schema_pool();
    if idx == pool.len() {
        let ty = jsonx::core::infer_collection(docs, jsonx::core::Equivalence::Kind);
        return jsonx::core::to_json_schema(&ty);
    }
    pool.swap_remove(idx)
}

/// Record-shaped documents over a small key pool that includes dotted
/// keys (exercising the translation plan's dotted-skip guard) and the
/// schema pool's property names.
fn arb_record() -> impl Strategy<Value = Value> {
    let key = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("geo".to_string()),
        Just("geo.lat".to_string()),
        "[a-d.]{1,4}",
    ];
    let scalar = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-100i64..100).prop_map(|i| Value::Num(Number::Int(i))),
        "\\PC{0,8}".prop_map(Value::Str),
    ];
    let value = scalar.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Arr),
            prop::collection::vec(("[a-d]{1,3}", inner), 0..3)
                .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>())),
        ]
    });
    prop::collection::vec((key, value), 0..5)
        .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>()))
}

fn to_ndjson(docs: &[Value]) -> String {
    let mut out = String::new();
    for d in docs {
        out.push_str(&to_string(d));
        out.push('\n');
    }
    out
}

/// `docs` as text no serializer writes: repeated and escaped-equal keys,
/// shuffled members, integer-valued floats (every other line; the rest
/// stay as serialized).
fn to_respelled_ndjson(docs: &[Value], seed: u64) -> String {
    let mut out = String::new();
    for (i, d) in docs.iter().enumerate() {
        match i % 2 {
            0 => out.push_str(&respelled(d, seed.wrapping_add(i as u64))),
            _ => out.push_str(&to_string(d)),
        }
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fast and slow validation verdicts are identical for projectable,
    /// streamable and other schemas alike, at every worker count — and
    /// they are the interpreter's on the parser's document.
    #[test]
    fn fast_validation_verdicts_equal_slow(
        docs in prop::collection::vec(arb_record(), 1..30),
        schema_idx in 0usize..11,
        seed in any::<u64>(),
    ) {
        let ndjson = to_respelled_ndjson(&docs, seed);
        let schema = CompiledSchema::compile(&schema_at(schema_idx, &docs)).unwrap();
        let vopts = ValidatorOptions::default();
        for workers in WORKER_COUNTS {
            let (slow, fast) = twins(workers, FaultOptions::default());
            let slow = slow.validate(Source::slice(&ndjson), &schema, vopts);
            let fast = fast.validate(Source::slice(&ndjson), &schema, vopts);
            prop_assert_eq!(&fast, &slow, "workers {}", workers);
            let (verdicts, _) = fast.unwrap();
            for ((record, verdict), line) in verdicts.iter().zip(ndjson.lines()) {
                let doc = jsonx::syntax::parse(line).unwrap();
                prop_assert_eq!(verdict.is_valid(), schema.validate(&doc).is_ok(), "record {}: {}", record, line);
            }
        }
    }

    /// Fast and slow translation batches are row-identical at every
    /// worker count — including corpora with literal dotted root keys,
    /// which the fast path must route to the full parser rather than
    /// let them alias nested column paths.
    #[test]
    fn fast_translation_batches_equal_slow(
        docs in prop::collection::vec(arb_record(), 1..30),
    ) {
        let ndjson = to_ndjson(&docs);
        let ty = jsonx::core::infer_collection(&docs, jsonx::core::Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        for workers in WORKER_COUNTS {
            let (slow, fast) = twins(workers, FaultOptions::default());
            let slow = slow.translate(Source::slice(&ndjson), &shredder);
            let fast = fast.translate(Source::slice(&ndjson), &shredder);
            prop_assert_eq!(&fast, &slow, "workers {}", workers);
        }
    }
}

/// Wide records under a two-field envelope: the case the fast path
/// exists for. The scanner must *take* every record (declining them all
/// would make fast ≡ slow hold vacuously), leave most bytes untouched,
/// and both consumers — the envelope schema, a layout of the same two
/// fields — must decide exactly as the full parser does.
#[test]
fn wide_records_take_the_fast_path_and_skip_most_bytes() {
    use jsonx::syntax::structural::{FieldSet, ScanOptions, StructuralScanner};
    let docs: Vec<Value> = (0..60i64)
        .map(|i| {
            let mut obj = Object::new();
            obj.insert("id", json!(i));
            obj.insert("name", Value::Str(format!("user{i}")));
            for k in 0..10i64 {
                let text = format!("{}-{}", i * 31 + k, "x".repeat(40));
                obj.insert(format!("field{k:02}"), Value::Str(text));
            }
            obj.insert("metrics", json!([i, i * 2, i % 7]));
            obj.insert(
                "nested",
                json!({"a": (i % 100), "b": "d,e:f\\\"", "c": [true, false]}),
            );
            Value::Obj(obj)
        })
        .collect();
    let ndjson = to_ndjson(&docs);

    let envelope = FieldSet::new(["id".to_string(), "name".to_string()]);
    let mut scanner = StructuralScanner::new();
    let (mut total, mut projected) = (0, 0);
    for line in ndjson.lines() {
        assert!(
            scanner.scan(line.as_bytes(), &envelope, &ScanOptions::default()),
            "declined: {line}"
        );
        total += line.len();
        for field in scanner.fields() {
            projected += field.key.len() + field.value.len();
        }
    }
    assert!(projected * 2 < total, "{projected} of {total} bytes parsed");

    let schema = CompiledSchema::compile(&json!({
        "type": "object",
        "properties": {"id": {"type": "integer", "maximum": 49}, "name": {"type": "string"}},
        "required": ["id", "name"]
    }))
    .unwrap();
    let narrow: Vec<Value> = docs
        .iter()
        .map(
            |d| json!({"id": d.get("id").unwrap().clone(), "name": d.get("name").unwrap().clone()}),
        )
        .collect();
    let layout = Shredder::from_type(&jsonx::core::infer_collection(
        &narrow,
        jsonx::core::Equivalence::Kind,
    ));
    for workers in WORKER_COUNTS {
        let (slow, fast) = twins(workers, FaultOptions::default());
        let vopts = ValidatorOptions::default();
        let verdicts = fast.validate(Source::slice(&ndjson), &schema, vopts);
        assert_eq!(
            verdicts,
            slow.validate(Source::slice(&ndjson), &schema, vopts),
            "workers {workers}"
        );
        let (verdicts, _) = verdicts.unwrap();
        let invalid = verdicts.iter().filter(|(_, v)| !v.is_valid());
        assert_eq!(invalid.count(), 10, "ids 50..60 exceed the maximum");
        let batch = fast.translate(Source::slice(&ndjson), &layout);
        assert_eq!(
            batch,
            slow.translate(Source::slice(&ndjson), &layout),
            "workers {workers}"
        );
        assert_eq!(batch.unwrap().0, layout.clone().shred(&narrow).unwrap());
    }

    // The run's own account of the same thing, kept under `timing`: every
    // record projected under the envelope; every record validated from
    // its events when the schema closes the record (every field matters,
    // so there is no plan, but the schema is streamable); every record
    // decoded to a document under the keyword that keeps a schema out of
    // the streamable fragment, and under `no-plan` with the fast path off.
    let closed = CompiledSchema::compile(&json!({"additionalProperties": false})).unwrap();
    let unique = CompiledSchema::compile(
        &json!({"properties": {"metrics": {"uniqueItems": true}}, "additionalProperties": false}),
    )
    .unwrap();
    assert_eq!(closed.streamable(), Ok(()));
    let (slow, fast) = twins(2, FaultOptions::default());
    let all = |why| [(why, 60)].into_iter().collect::<BTreeMap<_, _>>();
    for (run, timing, schema, fast, replayed) in [
        (&fast, true, &schema, 60, BTreeMap::new()),
        (&fast, true, &closed, 60, BTreeMap::new()),
        (&fast, true, &unique, 0, all("uniqueItems")),
        (&slow, true, &schema, 0, all("no-plan")),
        (&slow, true, &closed, 0, all("no-plan")),
        (&slow, true, &unique, 0, all("no-plan")),
        (&fast, false, &schema, 0, BTreeMap::new()),
        (&fast, false, &closed, 0, BTreeMap::new()),
    ] {
        let run = Run {
            timing,
            ..run.clone()
        };
        let (_, report) = run
            .validate(Source::slice(&ndjson), schema, ValidatorOptions::default())
            .unwrap();
        assert_eq!(report.routes, RouteCounts { fast, replayed });
    }
    assert_eq!(fast.validation_route(&schema), "projected");
    assert_eq!(fast.validation_route(&closed), "validated from events");
}

// ---------------------------------------------------------------------------
// Layer 2: fast path vs slow path, dirty corpora under every policy
// ---------------------------------------------------------------------------

fn policies() -> Vec<ErrorPolicy> {
    vec![
        ErrorPolicy::FailFast,
        ErrorPolicy::Skip { max_errors: None },
        ErrorPolicy::Skip {
            max_errors: Some(10),
        },
        ErrorPolicy::Collect { max_errors: 1000 },
    ]
}

fn dirty_corpus() -> jsonx::gen::DirtyNdjson {
    dirty_ndjson(&DirtyConfig {
        seed: 0xFA57,
        docs: 600,
        corruption_rate: 0.08,
        blank_rate: 0.02,
        ..DirtyConfig::default()
    })
}

/// The dirty corpus with every third good line respelled (repeated keys
/// among the rest), and the two schemas it is validated under: one the
/// scanner projects for, and the closed one inferred from the corpus's
/// clean twin, which is validated from events.
fn dirty_validation_inputs() -> (jsonx::gen::DirtyNdjson, [CompiledSchema; 2]) {
    let mut corpus = dirty_corpus();
    let clean = jsonx::syntax::parse_ndjson(&corpus.clean_text).unwrap();
    let inferred = jsonx::core::to_json_schema(&jsonx::core::infer_collection(
        &clean,
        jsonx::core::Equivalence::Kind,
    ));
    let lines: Vec<String> = corpus
        .text
        .lines()
        .enumerate()
        .map(|(i, line)| match jsonx::syntax::parse(line) {
            Ok(doc) if i % 3 == 0 => respelled(&doc, i as u64),
            _ => line.to_string(),
        })
        .collect();
    corpus.text = lines.join("\n") + "\n";
    let schemas = [schema_pool().swap_remove(0), inferred]
        .map(|schema| CompiledSchema::compile(&schema).unwrap());
    assert!(schemas[0].root_projection().is_some() && schemas[1].root_projection().is_none());
    assert_eq!(schemas[1].streamable(), Ok(()));
    (corpus, schemas)
}

/// On a dirty corpus every malformed line lands in the report with its
/// diagnostic: fast and slow must agree on every entry, error kinds and
/// offsets included (the declined record's diagnostics come from the
/// same full parser on both paths, and the event walk's from the one
/// grammar).
#[test]
fn fast_validation_matches_slow_on_dirty_corpus() {
    let (corpus, schemas) = dirty_validation_inputs();
    let vopts = ValidatorOptions::default();
    let keep_all = FaultOptions {
        policy: ErrorPolicy::Skip { max_errors: None },
        keep_rejects: true,
        ..FaultOptions::default()
    };
    for schema in &schemas {
        for workers in WORKER_COUNTS {
            let (slow, fast) = twins(workers, keep_all);
            let slow = slow
                .validate(Source::slice(&corpus.text), schema, vopts)
                .unwrap();
            let fast = fast
                .validate(Source::slice(&corpus.text), schema, vopts)
                .unwrap();
            assert_eq!(fast, slow, "workers {workers}");
            assert_eq!(slow.1.errors.rejects.len(), corpus.bad_lines.len());
        }
    }
    // Not vacuous: the walk took most records and handed some back.
    let timed = Run {
        timing: true,
        ..twins(2, keep_all).1
    };
    let (verdicts, report) = timed
        .validate(Source::slice(&corpus.text), &schemas[1], vopts)
        .unwrap();
    let routes = report.routes;
    assert!(
        routes.fast > 400 && routes.replayed["duplicate-key"] > 20,
        "{routes:?}"
    );
    let valid = verdicts.iter().filter(|(_, v)| v.is_valid()).count();
    assert!(
        valid > 300 && verdicts.len() - valid > 20,
        "{valid} of {}",
        verdicts.len()
    );
}

/// Validation: verdicts, RunReports and StreamErrors must be
/// identical under every policy at every worker count.
#[test]
fn fast_guarded_validation_matches_slow_on_dirty_corpus() {
    let (corpus, schemas) = dirty_validation_inputs();
    let vopts = ValidatorOptions::default();
    for schema in &schemas {
        for policy in policies() {
            for keep_rejects in [false, true] {
                let fault = FaultOptions {
                    policy,
                    keep_rejects,
                    ..FaultOptions::default()
                };
                for workers in WORKER_COUNTS {
                    let (slow, fast) = twins(workers, fault);
                    let slow = slow.validate(Source::slice(&corpus.text), schema, vopts);
                    let fast = fast.validate(Source::slice(&corpus.text), schema, vopts);
                    assert_eq!(fast, slow, "workers {workers} policy {policy:?}");
                }
            }
        }
    }
}

/// Translation: batches, RunReports and StreamErrors must be
/// identical under every policy at every worker count.
#[test]
fn fast_guarded_translation_matches_slow_on_dirty_corpus() {
    let corpus = dirty_corpus();
    // Plan the layout from the clean twin so the shredder has a real
    // record type to project to.
    let docs = jsonx::syntax::parse_ndjson(&corpus.clean_text).unwrap();
    let ty = jsonx::core::infer_collection(&docs, jsonx::core::Equivalence::Kind);
    let shredder = Shredder::from_type(&ty);
    for policy in policies() {
        let fault = FaultOptions {
            policy,
            ..FaultOptions::default()
        };
        for workers in WORKER_COUNTS {
            let (slow, fast) = twins(workers, fault);
            let slow = slow.translate(Source::slice(&corpus.text), &shredder);
            let fast = fast.translate(Source::slice(&corpus.text), &shredder);
            assert_eq!(fast, slow, "workers {workers} policy {policy:?}");
        }
    }
}

/// Fail-fast translation on a dirty corpus must report the same first
/// error (line and kind) with and without the fast path.
#[test]
fn fast_translation_first_error_matches_slow_on_dirty_corpus() {
    let corpus = dirty_corpus();
    let docs = jsonx::syntax::parse_ndjson(&corpus.clean_text).unwrap();
    let ty = jsonx::core::infer_collection(&docs, jsonx::core::Equivalence::Kind);
    let shredder = Shredder::from_type(&ty);
    for workers in WORKER_COUNTS {
        let (slow, fast) = twins(workers, FaultOptions::default());
        let slow = slow.translate(Source::slice(&corpus.text), &shredder);
        let fast = fast.translate(Source::slice(&corpus.text), &shredder);
        assert_eq!(fast, slow, "workers {workers}");
        assert!(
            fast.is_err(),
            "dirty corpus must fail fail-fast translation"
        );
    }
}
