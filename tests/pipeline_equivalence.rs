//! Cross-crate property tests for the two new pipeline stages: the
//! combined single-pass infer+validate must equal running the inference
//! and validation stages back to back, and streaming schema-driven
//! translation must build the exact batch the DOM shredder builds — for
//! any worker count and arbitrary document mixes, including blank lines
//! and missing trailing newlines at shard boundaries.

use jsonx::core::{infer_collection, to_json_schema, Equivalence};
use jsonx::gen::respelled;
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::{parse_ndjson, to_string};
use jsonx::translate::{ColumnarBatch, Shredder};
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
    /// Under the hand-written open schema and the closed schema inferred
    /// from the documents, where both the separate stage and the
    /// combined pass validate from events — over
    /// text that repeats keys, so that either half of the combined pass
    /// may ask for the record's document, and under both equivalences.
    #[test]
    fn combined_pass_equals_infer_then_validate(
        docs in prop::collection::vec(arb_value(), 0..24),
        workers in prop::sample::select(vec![1usize, 2, 3, 8]),
        blank_every in 0usize..4,
        trailing_newline in any::<bool>(),
        seed in any::<u64>(),
        equiv in prop::sample::select(vec![Equivalence::Kind, Equivalence::Label]),
    ) {
        let plain = to_ndjson(&docs, blank_every, trailing_newline);
        let respelt: String = plain
            .split_inclusive('\n')
            .enumerate()
            .map(|(i, line)| match (line.trim().is_empty(), line.ends_with('\n')) {
                (true, _) => line.to_string(),
                (false, newline) => {
                    let doc = jsonx::syntax::parse(line).unwrap();
                    respelled(&doc, seed.wrapping_add(i as u64)) + if newline { "\n" } else { "" }
                }
            })
            .collect();
        let inferred =
            CompiledSchema::compile(&to_json_schema(&infer_collection(&docs, Equivalence::Kind)))
                .unwrap();
        prop_assert_eq!(inferred.streamable(), Ok(()));
        let vopts = ValidatorOptions::default();
        for (ndjson, schema) in [
            (&plain, &test_schema()),
            (&plain, &inferred),
            (&respelt, &test_schema()),
            (&respelt, &inferred),
        ] {
            let (ty, _) = plan(1, 0).infer(Source::slice(ndjson), equiv).unwrap();
            // The separate validation stage on the trusted route.
            let trusted = Run { fast_parse: false, ..plan(1, 0) };
            let (verdicts, _) = trusted.validate(Source::slice(ndjson), schema, vopts).unwrap();
            let ((combined_ty, combined_verdicts), _) = plan(workers, 16)
                .infer_validate(Source::slice(ndjson), equiv, schema, vopts)
                .unwrap();
            prop_assert_eq!(&combined_ty, &ty, "workers {}", workers);
            prop_assert_eq!(&combined_verdicts, &verdicts, "workers {}", workers);
        }
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
        let dom = Shredder::from_type(&ty).shred(&docs).unwrap();
        let (seq, _) = plan(1, 0).translate(Source::slice(&ndjson)).unwrap();
        prop_assert_eq!(&whole(seq), &dom);
        let (par, _) = plan(workers, 16).translate(Source::slice(&ndjson)).unwrap();
        prop_assert_eq!(&whole(par), &dom, "workers {}", workers);
    }
}

/// A translation's chunk batches as the one batch they make up.
fn whole(parts: Vec<ColumnarBatch>) -> ColumnarBatch {
    let mut parts = parts.into_iter();
    let mut batch = parts.next().expect("a translation returns a batch");
    parts.for_each(|part| batch.append(part));
    batch
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
    let dom = Shredder::from_type(&ty).shred(&docs).unwrap();
    let (parts, report) = auto.translate(Source::slice(ndjson)).unwrap();
    assert_eq!(report.shards, 1);
    assert_eq!(whole(parts), dom);
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

    let (parts, report) = plan(1, 0).translate(Source::slice("")).unwrap();
    assert_eq!(report.records, 0);
    // One part, so the empty corpus keeps its (empty) layout.
    let empty = Shredder::from_type(&jsonx::core::JType::Bottom)
        .shred(&[])
        .unwrap();
    assert_eq!(parts, [empty]);
}

// ---------------------------------------------------------------------------
// Event shred ≡ DOM shred
// ---------------------------------------------------------------------------
//
// Translation shreds each record straight from its events and replays
// through the DOM route whatever the event walk cannot vouch for. The
// tests below hold that speculation against a sequential loop over the
// public leaf calls (`parse`, then `ShredStream::push`).

mod event_shred {
    use super::*;
    use jsonx::pipeline::{ErrorPolicy, RecordDiagnostic, RunReport};
    use jsonx::syntax::{parse, CsvDecoder, ParseLimits, RecordDecoder};
    use jsonx::translate::{write_jxc, ShredError};
    use jsonx::{write_quarantine, FaultOptions, Format, StreamError};

    /// Records fixing a layout with nested records, a nested-nested
    /// record, spill columns, a literal dotted key that spells a nested
    /// path (`a.b`), and a key that needs escaping.
    const LAYOUT: &[&str] = &[
        r#"{"id": 1, "name": "a", "geo": {"lat": 1.5, "box": {"w": 1}}, "tags": [1], "v": 1, "esc\"k": "x"}"#,
        r#"{"id": 2, "v": "s", "a.b": 1, "a": {"b": 2, "c": true}, "ok": false}"#,
    ];

    /// Everything the event walker must get right or give up on.
    const ADVERSARIAL: &[&str] = &[
        // Plain rows, every column hit.
        r#"{"id": 3, "name": "n", "geo": {"lat": 2, "box": {"w": 5}}, "tags": [1, [2, {"k": null}]], "v": {"x": [true]}, "ok": true, "a": {"b": 7, "c": false}}"#,
        // Duplicate keys: root, nested, record-vs-scalar in both orders.
        r#"{"id": 1, "id": 2}"#,
        r#"{"id": 1, "name": "x", "id": "s"}"#,
        r#"{"geo": {"lat": 1, "lat": 2}}"#,
        r#"{"geo": {"lat": 1}, "geo": {"box": {"w": 3}}}"#,
        r#"{"a": {"b": 1}, "a": 5}"#,
        r#"{"a": 5, "a": {"b": 1}}"#,
        r#"{"tags": [1], "tags": [2]}"#,
        r#"{"zz": 1, "zz": {"id": 2}}"#,
        // Duplicates only inside spilled subtrees stay on the event route.
        r#"{"v": {"k": 1, "k": 2}, "tags": [{"d": 1, "d": [2]}]}"#,
        // Literal dotted keys aliasing nested paths, both orders.
        r#"{"a.b": 10, "a": {"b": 20}}"#,
        r#"{"a": {"b": 20}, "a.b": 10}"#,
        r#"{"a.b": "wrong type still takes the cell", "a": {"b": 20}}"#,
        r#"{"geo.box": {"w": 1}, "geo": {"box": {"w": 2}}}"#,
        r#"{"geo.box": {"w": 1}, "geo": {"lat": 2}}"#,
        r#"{"geo.box.w": 9, "geo.lat": 1}"#,
        r#"{"a.c": true, "a": {"b": 1}}"#,
        r#"{"geo": {"box.w": 4}}"#,
        r#"{"a.": 1, ".a": 2, "a..b": 3, ".": 4, "": 5}"#,
        // Cells of the wrong type, containers where scalars go and back.
        r#"{"id": "s", "name": 5, "geo": [1], "tags": {"x": 1}, "v": null, "ok": 0}"#,
        r#"{"id": 2.0, "geo": {"lat": "x", "box": 3}, "a": {"b": {"deep": 1}, "c": [true]}}"#,
        r#"{"id": 2.5, "geo": 1, "ok": null, "name": null}"#,
        r#"{"id": 9223372036854775808, "geo": {"lat": 1e300}}"#,
        // Not records.
        r#"[1, 2]"#,
        r#"7"#,
        r#""str""#,
        r#"null"#,
        // Truncated and otherwise malformed, after events were delivered.
        r#"{"id": 1, "name": "cu"#,
        r#"{"id": 1,"#,
        r#"{"geo": {"lat": 1"#,
        r#"{"tags": [1, 2"#,
        r#"{"id": 1} x"#,
        r#"{"id": 1}{"id": 2}"#,
        r#"{"id": tru}"#,
        r#"{"id": 01}"#,
        r#"{"id" 1}"#,
        r#"{id: 1}"#,
        r#"nul"#,
        r#"{"name": "bad \q escape"}"#,
        "{\"name\": \"raw \u{1} control\"}",
        // Escapes in keys and strings; an escaped spelling of a plain key.
        r#"{"esc\"k": "q\"uote\\ \n é", "name": "😀 \/"}"#,
        r#"{"id": 5}"#,
        r#"{"id": 1, "id": 2}"#,
        r#"{"a.b": 3}"#,
        r#"   {"id" : 4 , "geo" : { "lat" : 3 } }   "#,
        r#"{}"#,
    ];

    fn lines(extra: &[&str]) -> String {
        let mut text = String::new();
        for (i, line) in LAYOUT.iter().chain(extra).enumerate() {
            if i % 5 == 3 {
                text.push('\n');
            }
            text.push_str(line);
            text.push('\n');
        }
        text
    }

    fn layout() -> Shredder {
        let docs = parse_ndjson(&LAYOUT.join("\n")).unwrap();
        Shredder::from_type(&infer_collection(&docs, Equivalence::Kind))
    }

    /// The layout a translation of `text` shreds under: that of the type
    /// of every record that decodes to an object.
    fn inferred(
        text: &str,
        decode: impl Fn(&str) -> Result<Value, jsonx::syntax::ParseError>,
    ) -> Shredder {
        let records: Vec<Value> = text
            .lines()
            .filter_map(|line| decode(line).ok())
            .filter(|doc| doc.as_object().is_some())
            .collect();
        Shredder::from_type(&infer_collection(&records, Equivalence::Kind))
    }

    fn policies() -> Vec<ErrorPolicy> {
        vec![
            ErrorPolicy::FailFast,
            ErrorPolicy::Skip { max_errors: None },
            ErrorPolicy::Skip {
                max_errors: Some(1000),
            },
        ]
    }

    fn run(
        workers: usize,
        chunk_bytes: usize,
        policy: ErrorPolicy,
        fast_parse: bool,
    ) -> Run<'static> {
        Run {
            workers,
            chunk_bytes,
            fast_parse,
            fault: FaultOptions {
                policy,
                keep_rejects: true,
                limits: ParseLimits::default(),
            },
            ..Run::default()
        }
    }

    /// The sequential oracle: every non-blank line through `decode` and
    /// `ShredStream::push`, collecting the diagnostics a tolerant run
    /// must report. `Err` is the first rejection, for fail-fast.
    fn oracle(
        shredder: &Shredder,
        text: &str,
        decode: impl Fn(&str) -> Result<Value, jsonx::syntax::ParseError>,
    ) -> (ColumnarBatch, Vec<RecordDiagnostic>) {
        let mut stream = shredder.stream();
        let mut rejects = Vec::new();
        for (record, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let (offset, kind, message) = match decode(line) {
                Err(e) => (e.offset, e.kind.label(), e.to_string()),
                Ok(doc) => match stream.push(&doc) {
                    Ok(()) => continue,
                    Err(_) => (0, "not-a-record", "not a JSON object".to_string()),
                },
            };
            rejects.push(RecordDiagnostic {
                record,
                offset,
                kind,
                message,
                raw: Some(line.to_string()),
            });
        }
        (stream.finish(), rejects)
    }

    fn quarantine_bytes(report: &RunReport) -> Vec<u8> {
        let mut out = Vec::new();
        write_quarantine(&mut out, report).unwrap();
        out
    }

    /// The error a fail-fast translation stops at: the first malformed
    /// line anywhere — the typing pass that teaches the layout decodes
    /// every line it reads — or else the first non-record.
    fn first_failure(rejects: &[RecordDiagnostic]) -> &RecordDiagnostic {
        rejects
            .iter()
            .find(|d| d.kind != "not-a-record")
            .unwrap_or(&rejects[0])
    }

    /// Runs `text` through both routes — the layout taught by the first
    /// chunk and verified per record, and the whole corpus typed first —
    /// under every policy, worker count and a few chunk sizes: they must
    /// agree with each other and with the sequential oracle.
    fn check_all_plans(
        text: &str,
        format: &Format,
        (want_batch, want_rejects): &(ColumnarBatch, Vec<RecordDiagnostic>),
    ) {
        for policy in policies() {
            for workers in [1, 2, 3, 8] {
                for chunk_bytes in [1, 48, 300, 0] {
                    let outcome = |fast_parse| {
                        let plan = Run {
                            format: format.clone(),
                            ..run(workers, chunk_bytes, policy, fast_parse)
                        };
                        plan.translate(Source::slice(text))
                            .map(|(parts, report)| (whole(parts), report))
                    };
                    let (events, reference) = (outcome(true), outcome(false));
                    let what = format!("{policy:?} workers={workers} chunk_bytes={chunk_bytes}");
                    match (&events, &reference) {
                        (Ok((eb, er)), Ok((db, dr))) => {
                            assert_eq!(eb, db, "{what}");
                            assert_eq!(er.errors, dr.errors, "{what}");
                            assert_eq!(er.records, dr.records, "{what}");
                            assert_eq!(quarantine_bytes(er), quarantine_bytes(dr), "{what}");
                            assert_eq!(write_jxc(eb), write_jxc(db), "{what}");
                        }
                        (Err(e), Err(d)) => assert_eq!(e, d, "{what}"),
                        _ => panic!("{what}: routes disagree: {events:?} vs {reference:?}"),
                    }
                    match (policy, events) {
                        (ErrorPolicy::FailFast, Err(StreamError::Record { record, issue })) => {
                            let first = first_failure(want_rejects);
                            assert_eq!(record, first.record, "{what}");
                            assert_eq!(issue.kind_label(), first.kind, "{what}");
                            assert_eq!(issue.offset(), first.offset, "{what}");
                            assert_eq!(issue.to_string(), first.message, "{what}");
                        }
                        (ErrorPolicy::FailFast, Ok((batch, _))) => {
                            assert!(want_rejects.is_empty(), "{what}");
                            assert_eq!(&batch, want_batch, "{what}");
                        }
                        (_, Ok((batch, report))) => {
                            assert_eq!(&batch, want_batch, "{what}");
                            assert_eq!(&report.errors.rejects, want_rejects, "{what}");
                            assert_eq!(report.errors.total, want_rejects.len(), "{what}");
                        }
                        (_, Err(e)) => panic!("{what}: {e}"),
                    }
                }
            }
        }
    }

    #[test]
    fn adversarial_records_shred_like_the_dom_route_under_every_plan() {
        let text = lines(ADVERSARIAL);
        let want = oracle(&inferred(&text, parse), &text, parse);
        assert!(want.1.len() >= 15, "the corpus keeps its malformed lines");
        check_all_plans(&text, &Format::Ndjson, &want);
        // And a clean corpus, where fail-fast succeeds.
        let clean = lines(&ADVERSARIAL[..23]);
        let want = oracle(&inferred(&clean, parse), &clean, parse);
        assert!(want.1.is_empty());
        check_all_plans(&clean, &Format::Ndjson, &want);
    }

    #[test]
    fn csv_rows_shred_like_their_decoded_documents() {
        // Duplicate and dotted header names; quoted, sniffed, short,
        // over-long and unterminated rows.
        let decoder = CsvDecoder::from_header("id,name,geo.lat,id,note").unwrap();
        let rows = [
            "1,ada,1.5,2,plain",
            "3,\"quoted, with comma\",,4,\"say \"\"hi\"\"\"",
            "5,bob",
            "",
            "true,7,x,,",
            "6,c,2.5,7,n,extra,cells",
            "8,\"open quote,1,2,3",
            "9,\"bad\"quote,1,2,3",
            ",,,,",
            "10,d,3,11,é😀",
        ];
        let text = rows.join("\n") + "\n";
        let decode = |row: &str| decoder.decode_value(&mut (), row);
        let want = oracle(&inferred(&text, decode), &text, decode);
        assert_eq!(want.1.len(), 3);
        check_all_plans(&text, &Format::Csv(decoder.clone()), &want);
    }

    #[test]
    fn a_rolled_back_row_leaves_nothing_behind_even_across_take_batch() {
        let shredder = layout();
        let decoder = jsonx::syntax::JsonDecoder::new();
        let all: Vec<&str> = LAYOUT.iter().chain(ADVERSARIAL).copied().collect();
        // Take a batch after every `stride` records, so every record —
        // rolled back or not — is at some point the first, the last and
        // the only record of a batch.
        for stride in 1..=4 {
            let mut by_events = shredder.stream();
            let mut by_values = shredder.stream();
            let (mut events_total, mut values_total) =
                (by_events.take_batch(), by_values.take_batch());
            for (i, line) in all.iter().enumerate() {
                let pushed = by_events.push_record(&decoder, &mut (), line);
                let want = match parse(line) {
                    Ok(doc) => by_values.push(&doc),
                    Err(e) => Err(ShredError::Parse(e)),
                };
                assert_eq!(pushed.map(|_route| ()), want, "{line}");
                assert_eq!(by_events.rows(), by_values.rows(), "{line}");
                if i % stride == 0 {
                    let (a, b) = (by_events.take_batch(), by_values.take_batch());
                    assert_eq!(a, b, "stride {stride}, after {line}");
                    events_total.append(a);
                    values_total.append(b);
                }
            }
            events_total.append(by_events.finish());
            values_total.append(by_values.finish());
            assert_eq!(events_total, values_total);
            assert_eq!(write_jxc(&events_total), write_jxc(&values_total));
        }
    }

    /// A record whose keys are drawn from the layout's own vocabulary —
    /// plain, dotted, duplicated — with values of every shape, so
    /// collisions and duplicates actually occur.
    fn arb_adversarial_record() -> impl Strategy<Value = String> {
        let scalar = prop_oneof![
            Just("null".to_string()),
            Just("true".to_string()),
            (-3i64..3).prop_map(|i| i.to_string()),
            Just("1.5".to_string()),
            Just("\"s\"".to_string()),
            Just("[1,\"x\"]".to_string()),
            Just("{\"k\":1,\"k\":2}".to_string()),
        ];
        let key = prop::sample::select(vec![
            "id",
            "name",
            "geo",
            "lat",
            "box",
            "w",
            "a",
            "b",
            "c",
            "tags",
            "v",
            "a.b",
            "a.c",
            "geo.lat",
            "geo.box",
            "geo.box.w",
            "box.w",
            "zz",
            "esc\\\"k",
            "\\u0069d",
        ]);
        let value = scalar.prop_recursive(3, 16, 4, move |inner| {
            prop::collection::vec((key.clone(), inner), 0..4).prop_map(|members| {
                let body: Vec<String> = members
                    .iter()
                    .map(|(k, v)| format!("\"{k}\":{v}"))
                    .collect();
                format!("{{{}}}", body.join(","))
            })
        });
        // Now and then cut the record short or append junk.
        (value, 0usize..12).prop_map(|(text, damage)| match damage {
            0 => text[..text.len() / 2].to_string(),
            1 => format!("{text} x"),
            _ => text,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn arbitrary_adversarial_records_shred_like_the_dom_route(
            records in prop::collection::vec(arb_adversarial_record(), 0..16),
            workers in prop::sample::select(vec![1usize, 2, 3, 8]),
            chunk_bytes in prop::sample::select(vec![1usize, 40, 0]),
        ) {
            let text = records.join("\n");
            let (want_batch, want_rejects) = oracle(&inferred(&text, parse), &text, parse);
            for policy in [ErrorPolicy::Skip { max_errors: None }, ErrorPolicy::FailFast] {
                let outcome = |fast_parse| {
                    run(workers, chunk_bytes, policy, fast_parse)
                        .translate(Source::slice(&text))
                        .map(|(parts, report)| (whole(parts), report))
                };
                match (outcome(true), outcome(false)) {
                    (Ok((eb, er)), Ok((db, dr))) => {
                        prop_assert_eq!(&eb, &db);
                        prop_assert_eq!(&eb, &want_batch);
                        prop_assert_eq!(&er.errors, &dr.errors);
                        prop_assert_eq!(&er.errors.rejects, &want_rejects);
                        prop_assert_eq!(quarantine_bytes(&er), quarantine_bytes(&dr));
                    }
                    (Err(e), Err(d)) => prop_assert_eq!(e, d),
                    (e, d) => prop_assert!(false, "routes disagree: {:?} vs {:?}", e, d),
                }
            }
        }
    }
}
