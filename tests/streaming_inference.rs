//! Cross-crate property tests: the zero-copy streaming inference path
//! (facade `streaming` module, driven by `jsonx-syntax` raw events) must be
//! observationally identical to the DOM pipeline
//! (`jsonx_syntax::parse_ndjson` + `jsonx_core::infer_collection`) — for
//! both equivalences, any worker count, and arbitrary document mixes.

use jsonx::core::{infer_collection, Equivalence};
use jsonx::syntax::{parse_ndjson, to_string};
use jsonx::{Run, Source};
use jsonx_data::{Number, Object, Value};
use proptest::prelude::*;

/// Strategy producing arbitrary JSON documents of bounded size.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(|i| Value::Num(Number::Int(i))),
        (-1e9f64..1e9f64).prop_map(|f| Value::Num(Number::from_f64(f).unwrap())),
        // \PC includes multibyte chars; strings with escapes exercise the
        // owned fallback of the Cow event layer.
        "\\PC{0,12}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Arr),
            prop::collection::vec(("[a-z]{0,6}", inner), 0..5)
                .prop_map(|pairs| { Value::Obj(pairs.into_iter().collect::<Object>()) }),
        ]
    })
}

fn arb_collection() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(arb_value(), 0..24)
}

fn to_ndjson(docs: &[Value]) -> String {
    let mut out = String::new();
    for d in docs {
        out.push_str(&to_string(d));
        out.push('\n');
    }
    out
}

proptest! {
    #[test]
    fn streaming_equals_dom_inference(docs in arb_collection()) {
        let ndjson = to_ndjson(&docs);
        // The serialized collection parses back to the same documents, so
        // DOM inference over the reparse is the reference result.
        let reparsed = parse_ndjson(&ndjson).unwrap();
        prop_assert_eq!(&reparsed, &docs);
        for equiv in [Equivalence::Kind, Equivalence::Label] {
            let dom = infer_collection(&docs, equiv);
            let sequential = Run { workers: 1, ..Run::default() };
            let (streamed, _) = sequential.infer(Source::slice(&ndjson), equiv).unwrap();
            prop_assert_eq!(&streamed, &dom, "equiv {:?}", equiv);
        }
    }

    #[test]
    fn parallel_sharding_is_transparent(
        docs in arb_collection(),
        workers in 1usize..6,
    ) {
        let ndjson = to_ndjson(&docs);
        for equiv in [Equivalence::Kind, Equivalence::Label] {
            let dom = infer_collection(&docs, equiv);
            // An explicit chunk size dispatches even these tiny corpora.
            let sharded = Run { workers, chunk_bytes: 16, ..Run::default() };
            let (par, _) = sharded.infer(Source::slice(&ndjson), equiv).unwrap();
            prop_assert_eq!(&par, &dom, "equiv {:?} workers {}", equiv, workers);
        }
    }
}

// ---------------------------------------------------------------------------
// In-place typing ≡ type-then-fuse: the differential matrix
// ---------------------------------------------------------------------------

use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::{ParseError, RawEvent};
use jsonx::{
    CsvDecoder, ErrorPolicy, EventReceiver, FaultOptions, Format, JsonDecoder, RecordDecoder,
    RecordIssue, RouteCounts, StreamError, ValueBuilder,
};
use std::collections::HashSet;

/// Flags a key repeated inside one object — by key *text*, so `"a"`
/// beside `"a"` counts and `[{"a":1},{"a":2}]` does not.
#[derive(Default)]
struct DuplicateKeys {
    open: Vec<HashSet<String>>,
    found: bool,
}

impl EventReceiver for DuplicateKeys {
    fn event(&mut self, ev: &RawEvent<'_>) {
        match ev {
            RawEvent::StartObject => self.open.push(HashSet::new()),
            RawEvent::EndObject => drop(self.open.pop()),
            RawEvent::Key(k) => {
                let seen = self.open.last_mut().expect("key inside an object");
                self.found |= !seen.insert(k.to_string());
            }
            _ => {}
        }
    }
}

/// What the decoder alone says about each non-blank line: the DOM value
/// (last duplicate wins) and whether it repeated a key, or its error.
type Oracle = Vec<(usize, Result<(Value, bool), ParseError>)>;

fn oracle<D: RecordDecoder>(decoder: &D, corpus: &str) -> Oracle {
    let mut scratch = decoder.scratch();
    corpus
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            let mut dom = ValueBuilder::new();
            let mut keys = DuplicateKeys::default();
            let decoded = decoder
                .decode_events(
                    &mut scratch,
                    line,
                    &mut jsonx::syntax::Tee(&mut dom, &mut keys),
                )
                .map(|()| (dom.take(), keys.found));
            (i, decoded)
        })
        .collect()
}

/// Runs `corpus` through `infer` and the combined pass at workers
/// {1, 2, 3, 8} × chunk_bytes {1, 48, 300, auto} × both equivalences ×
/// every error policy, against `infer_collection` over what the decoder
/// alone accepts — type, reject account, first error and route counts.
fn assert_inference_matrix<D: RecordDecoder>(format: Format, decoder: &D, corpus: &str) {
    let truth = oracle(decoder, corpus);
    let accepted: Vec<Value> = truth
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok().map(|(v, _)| v.clone()))
        .collect();
    let duplicates = truth
        .iter()
        .filter(|(_, r)| matches!(r, Ok((_, true))))
        .count() as u64;
    let rejected: Vec<usize> = truth
        .iter()
        .filter(|(_, r)| r.is_err())
        .map(|(i, _)| *i)
        .collect();
    let first_error = truth.iter().find_map(|(i, r)| {
        r.as_ref().err().map(|e| StreamError::Record {
            record: *i,
            issue: RecordIssue::Parse(e.clone()),
        })
    });
    let anything = CompiledSchema::compile(&jsonx::json!({})).unwrap();
    // Each policy, and whether the run keeps every reject.
    let policies = [
        (ErrorPolicy::FailFast, false),
        (ErrorPolicy::Skip { max_errors: None }, false),
        (
            ErrorPolicy::Skip {
                max_errors: Some(usize::MAX),
            },
            true,
        ),
    ];
    for equiv in [Equivalence::Kind, Equivalence::Label] {
        let want_ty = infer_collection(&accepted, equiv);
        let want_routes = match equiv {
            Equivalence::Kind => RouteCounts {
                fast: accepted.len() as u64 - duplicates,
                replayed: (duplicates > 0)
                    .then_some(("duplicate-key", duplicates))
                    .into_iter()
                    .collect(),
            },
            Equivalence::Label => RouteCounts {
                fast: 0,
                replayed: (!accepted.is_empty())
                    .then_some(("label-equivalence", accepted.len() as u64))
                    .into_iter()
                    .collect(),
            },
        };
        for workers in [1, 2, 3, 8] {
            for chunk_bytes in [1, 48, 300, 0] {
                for (policy, keep_rejects) in policies {
                    let run = Run {
                        workers,
                        chunk_bytes,
                        timing: true,
                        fault: FaultOptions {
                            policy,
                            keep_rejects,
                            ..FaultOptions::default()
                        },
                        format: format.clone(),
                        ..Run::default()
                    };
                    let at = format!("{equiv:?} workers={workers} chunk={chunk_bytes} {policy:?}");
                    let inferred = run.infer(Source::slice(corpus), equiv);
                    let combined = run
                        .infer_validate(
                            Source::slice(corpus),
                            equiv,
                            &anything,
                            ValidatorOptions::default(),
                        )
                        .map(|((ty, verdicts), report)| {
                            assert_eq!(verdicts.len(), accepted.len(), "{at}");
                            (ty, report)
                        });
                    for (pass, outcome) in [("infer", inferred), ("combined", combined)] {
                        match (&first_error, policy) {
                            (Some(first), ErrorPolicy::FailFast) => {
                                assert_eq!(outcome.unwrap_err(), *first, "{pass} {at}");
                            }
                            _ => {
                                let (ty, report) = outcome.unwrap();
                                assert_eq!(ty, want_ty, "{pass} {at}");
                                assert_eq!(report.routes, want_routes, "{pass} {at}");
                                assert_eq!(report.records, truth.len(), "{pass} {at}");
                                assert_eq!(report.errors.total, rejected.len(), "{pass} {at}");
                                let listed: Vec<usize> =
                                    report.errors.rejects.iter().map(|d| d.record).collect();
                                if listed.len() == rejected.len() {
                                    assert_eq!(listed, rejected, "{pass} {at}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Every shape the in-place walk treats specially, one per line.
const SHAPES: &str = r#"{"id":1,"name":"ada","geo":{"lat":1.5,"lon":-0.5},"tags":["a","b"]}
{"id":2,"name":"bob","geo":{"lat":0,"lon":1e2},"tags":[]}
{"name":"shuffled","tags":["c"],"id":3,"geo":{"lon":2.5,"lat":1.0}}
{"id":4,"opt":true}
{"id":5,"name":null,"opt":false,"extra":{"deep":[{"k":1},{"k":"s"},{}]}}
{"dup":1,"dup":"at the root","id":6}
{"id":7,"geo":{"lat":1,"lat":{"nested":"dup"}}}
{"id":8,"extra":{"deep":[{"k":null,"k":2},{"k":3}]}}
{"id":9,"a":1,"a":"escaped-equal"}
{"id":10,"extra":{"deep":[{"k":1},{"k":2},{"k":{"k":3}}]}}
{}
[]
[[],{},[{}],[1,"two",2.5,null,true]]
42
1.0
1e2
2.5
-0
"scalar"
null
true
{"n":1}
{"n":1.0}
{"n":1e2}
{"n":2.5}
{"id":11,"tags":["x"],"name":"back to the first shape","geo":{"lat":2,"lon":3}}
"#;

#[test]
fn in_place_typing_matches_type_then_fuse_on_every_special_shape() {
    let truth = oracle(&JsonDecoder::new(), SHAPES);
    let replays = truth.iter().filter(|(_, r)| matches!(r, Ok((_, true))));
    assert_eq!(
        replays.count(),
        4,
        "root, nested, in an array, escaped-equal"
    );
    assert_inference_matrix(Format::Ndjson, &JsonDecoder::new(), SHAPES);
}

#[test]
fn rejected_records_leave_no_trace_wherever_the_decoder_gives_up() {
    // Every line cut at every character boundary (most cuts are
    // malformed, a few are shorter valid documents), then the line
    // itself, trailing garbage, and a depth bomb.
    let mut corpus = String::new();
    for line in SHAPES.lines().take(12) {
        for cut in (1..line.len()).filter(|at| line.is_char_boundary(*at)) {
            corpus.push_str(&line[..cut]);
            corpus.push('\n');
        }
        corpus.push_str(line);
        corpus.push('\n');
        corpus.push_str(line);
        corpus.push_str(" garbage\n");
    }
    corpus.push_str(&"[".repeat(200));
    corpus.push_str(&"]".repeat(200));
    corpus.push('\n');
    corpus.push_str("{\"id\":12,\"name\":\"after the bomb\"}\n");
    let truth = oracle(&JsonDecoder::new(), &corpus);
    let rejected = truth.iter().filter(|(_, r)| r.is_err()).count();
    assert!(rejected > 400 && truth.len() - rejected > 12, "{rejected}");
    assert_inference_matrix(Format::Ndjson, &JsonDecoder::new(), &corpus);
}

#[test]
fn csv_rows_type_in_place_and_duplicate_headers_replay() {
    let rows = "1,ada,1.5,true\n2,\"bob, b\",,false\n3,,2,\n4,eve\n5,\"unterminated,1,true\n6,x,1e2,true,overflow\n";
    let plain = CsvDecoder::from_header("id,name,score,active").unwrap();
    assert_inference_matrix(Format::Csv(plain.clone()), &plain, rows);
    // Two columns named `id`: every row repeats a key, the DOM keeps the
    // last cell, and every accepted row is replayed.
    let repeated = CsvDecoder::from_header("id,name,id,active").unwrap();
    let truth = oracle(&repeated, rows);
    assert!(truth.iter().any(|(_, r)| matches!(r, Ok((_, true)))));
    assert_inference_matrix(Format::Csv(repeated.clone()), &repeated, rows);
}
