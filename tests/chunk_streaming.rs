//! Cross-layer property tests for the chunked work-stealing dispatch:
//! at every worker count × chunk size — including chunks far smaller
//! than a record — the stealing engine must be **outcome-identical** to
//! the sequential reference, for verdicts, inferred types, columnar
//! batches, reports and quarantine order, on clean and dirty corpora,
//! from both in-memory slices and out-of-core readers.

use jsonx::core::Equivalence;
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::parse;
use jsonx::translate::Shredder;
use jsonx::{ErrorPolicy, FaultOptions, Run, RunReport, Source};
use jsonx_pipeline::{run_source_controlled, RunControl, ShardFold, SliceChunks};
use proptest::prelude::*;
use std::io::Cursor;

const WORKERS: [usize; 4] = [1, 2, 3, 8];
const CHUNK_SIZES: [usize; 3] = [64, 4096, 1 << 20];

/// One corpus line: mostly small records, a tail of records longer than
/// the 64-byte chunk target (so byte-chunking must keep them whole),
/// plus blanks; `dirty` mixes in malformed lines.
fn clean_line() -> BoxedStrategy<String> {
    prop_oneof![
        (0i64..100, "[a-z]{0,6}")
            .prop_map(|(id, tag)| format!("{{\"id\": {id}, \"tag\": \"{tag}\"}}")),
        (0i64..100, 40usize..120).prop_map(|(id, n)| format!(
            "{{\"id\": {id}, \"tag\": \"t\", \"payload\": \"{}\"}}",
            "x".repeat(n)
        )),
        Just(String::new()),
    ]
    .boxed()
}

fn arb_line(dirty: bool) -> BoxedStrategy<String> {
    if dirty {
        prop_oneof![
            clean_line(),
            clean_line(),
            clean_line(),
            prop_oneof![
                Just("{\"id\":".to_string()),
                Just("[1, 2".to_string()),
                Just("not json".to_string()),
                Just("{\"id\": 1, \"tag\": \"dup\"".to_string()),
            ],
        ]
        .boxed()
    } else {
        clean_line()
    }
}

/// A corpus that always ends with one record whose bytes outspan the
/// smallest chunk target, exercising the chunk boundary that would
/// split a record.
fn arb_corpus(dirty: bool) -> impl Strategy<Value = String> {
    prop::collection::vec(arb_line(dirty), 0..40).prop_map(|lines| {
        let mut out = lines.join("\n");
        out.push_str("\n{\"id\": 7, \"tag\": \"t\", \"payload\": \"");
        out.push_str(&"y".repeat(200));
        out.push_str("\"}\n");
        out
    })
}

/// A plan under `fault`; a nonzero `chunk_bytes` forces chunk dispatch
/// even on tiny proptest corpora, `0` with one worker is the sequential
/// reference.
fn plan(workers: usize, chunk_bytes: usize, fault: FaultOptions) -> Run<'static> {
    Run {
        workers,
        chunk_bytes,
        fault,
        ..Run::default()
    }
}

fn collect_fault() -> FaultOptions {
    FaultOptions {
        policy: ErrorPolicy::Collect { max_errors: 1000 },
        keep_rejects: true,
        ..FaultOptions::default()
    }
}

/// Drops the dispatch-dependent fields (`shards` counts work units,
/// `timings` is empty on untimed runs anyway) so reports from different
/// chunkings compare on outcome alone.
fn normalize(mut r: RunReport) -> RunReport {
    r.shards = 0;
    r.timings.clear();
    r
}

fn tag_schema() -> CompiledSchema {
    let doc = parse(r#"{"type": "object", "required": ["tag"]}"#).unwrap();
    CompiledSchema::compile(&doc).unwrap()
}

/// An order-sensitive fold for the engine-level comparison: shard
/// results concatenate, so any mis-ordered or double-counted chunk
/// changes the output.
struct IndexLines;

impl ShardFold<str> for IndexLines {
    type State = Vec<(usize, String)>;
    type Out = Vec<(usize, String)>;

    fn init(&self) -> Self::State {
        Vec::new()
    }

    fn feed(&self, state: &mut Self::State, item: &str, index: usize) {
        if !item.trim().is_empty() {
            state.push((index, item.to_string()));
        }
    }

    fn finish(&self, state: Self::State) -> Self::Out {
        state
    }

    fn merge(&self, mut left: Self::Out, right: Self::Out) -> Self::Out {
        left.extend(right);
        left
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Engine layer: work-stealing ≡ the sequential fold for an
    /// order-sensitive fold, at every worker count × chunk size.
    #[test]
    fn stealing_matches_sequential_fold(ndjson in arb_corpus(true)) {
        let mut state = IndexLines.init();
        for (i, line) in ndjson.lines().enumerate() {
            IndexLines.feed(&mut state, line, i);
        }
        let sequential = IndexLines.finish(state);
        for &workers in &WORKERS {
            for &chunk_bytes in &CHUNK_SIZES {
                let stolen = run_source_controlled(
                    &SliceChunks::new(&ndjson, chunk_bytes),
                    &IndexLines,
                    workers,
                    false,
                    RunControl::default(),
                )
                .expect("in-memory chunk sources cannot fail");
                prop_assert_eq!(&stolen.out, &sequential);
                prop_assert!(stolen.poisoned.is_empty());
            }
        }
    }

    /// Validation verdicts, reports and quarantine order are invariant
    /// across dispatch configurations, and the out-of-core reader path
    /// agrees with the in-memory slice.
    #[test]
    fn validation_is_dispatch_invariant(ndjson in arb_corpus(true)) {
        let schema = tag_schema();
        let vopts = ValidatorOptions::default();
        let fault = collect_fault();
        let (ref_verdicts, ref_report) = plan(1, 0, fault)
            .validate(Source::slice(&ndjson), &schema, vopts)
            .expect("collect policy under the cap cannot fail");
        // Quarantine order: diagnostics arrive in record order.
        prop_assert!(ref_report
            .errors
            .rejects
            .windows(2)
            .all(|w| w[0].record < w[1].record));
        for &w in &WORKERS[1..] {
            for &cb in &CHUNK_SIZES {
                let (v, r) = plan(w, cb, fault)
                    .validate(Source::slice(&ndjson), &schema, vopts)
                    .unwrap();
                prop_assert_eq!(&v, &ref_verdicts);
                prop_assert_eq!(normalize(r), normalize(ref_report.clone()));
            }
        }
        let (v, r) = plan(3, 64, fault)
            .validate(Source::Reader(Cursor::new(ndjson.clone())), &schema, vopts)
            .unwrap();
        prop_assert_eq!(&v, &ref_verdicts);
        prop_assert_eq!(normalize(r), normalize(ref_report));
    }

    /// Fail-fast runs agree on the *first* error across dispatch
    /// configurations (or on the inferred type when the corpus is
    /// clean).
    #[test]
    fn failfast_first_error_is_dispatch_invariant(ndjson in arb_corpus(true)) {
        let fault = FaultOptions::default();
        let reference = plan(1, 0, fault).infer(Source::slice(&ndjson), Equivalence::Kind);
        for &w in &WORKERS[1..] {
            for &cb in &CHUNK_SIZES {
                let got = plan(w, cb, fault).infer(Source::slice(&ndjson), Equivalence::Kind);
                match (&reference, &got) {
                    (Ok((ty_a, ra)), Ok((ty_b, rb))) => {
                        prop_assert_eq!(ty_a, ty_b);
                        prop_assert_eq!(normalize(ra.clone()), normalize(rb.clone()));
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    _ => prop_assert!(
                        false,
                        "dispatch configs disagree on success: workers {} chunk {}",
                        w,
                        cb
                    ),
                }
            }
        }
    }

    /// Columnar translation produces byte-identical batches across
    /// dispatch configurations, including from an out-of-core reader.
    #[test]
    fn translation_batches_are_dispatch_invariant(ndjson in arb_corpus(false)) {
        let fault = FaultOptions {
            policy: ErrorPolicy::Skip { max_errors: None },
            ..FaultOptions::default()
        };
        let (ty, _) = plan(1, 0, fault)
            .infer(Source::slice(&ndjson), Equivalence::Kind)
            .unwrap();
        let shredder = Shredder::from_type(&ty);
        let (ref_batch, ref_report) = plan(1, 0, fault)
            .translate(Source::slice(&ndjson), &shredder)
            .unwrap();
        for &w in &WORKERS[1..] {
            for &cb in &CHUNK_SIZES {
                let (b, r) = plan(w, cb, fault)
                    .translate(Source::slice(&ndjson), &shredder)
                    .unwrap();
                prop_assert_eq!(&b, &ref_batch);
                prop_assert_eq!(normalize(r), normalize(ref_report.clone()));
            }
        }
        let slow_parse = Run { fast_parse: false, ..plan(8, 64, fault) };
        let (b, r) = slow_parse
            .translate(Source::Reader(Cursor::new(ndjson.clone())), &shredder)
            .unwrap();
        prop_assert_eq!(&b, &ref_batch);
        prop_assert_eq!(normalize(r), normalize(ref_report));
    }
}

/// A chunk target smaller than every record: each record becomes its
/// own chunk, none is ever split mid-bytes.
#[test]
fn record_longer_than_chunk_stays_whole() {
    let ndjson =
        "{\"tag\": \"a\"}\n{\"tag\": \"bbbbbbbbbbbbbbbbbbbbbbbbbbbbbb\"}\n{\"tag\": \"c\"}\n";
    let schema = tag_schema();
    let (verdicts, report) = plan(2, 8, collect_fault())
        .validate(Source::slice(ndjson), &schema, ValidatorOptions::default())
        .unwrap();
    assert_eq!(verdicts.len(), 3);
    assert!(verdicts
        .iter()
        .all(|(_, v)| matches!(v, jsonx::LineVerdict::Valid)));
    assert_eq!(report.records, 3);
    assert!(report.shards >= 3, "each record should get its own chunk");
}

/// A run that has its answer stops reading: the first fault under
/// fail-fast, the bound exceeded under a bounded skip. The answer is the
/// in-memory run's at every worker count; how little was read is ours to
/// promise only for one worker (which of several is descheduled is not).
#[test]
fn a_decided_run_stops_asking_the_reader_for_chunks() {
    const CHUNK: usize = 4096;
    let line = format!("{{\"pad\": \"{}\"}}\n", "x".repeat(52));
    let bad = format!("{{bad{}\n", " ".repeat(line.len() - 5));
    let corpus = format!("{line}{bad}{}", line.repeat(64 * CHUNK / line.len() - 2));
    assert_eq!(corpus.len().div_ceil(CHUNK), 64);

    let fault = |policy| FaultOptions {
        policy,
        ..FaultOptions::default()
    };
    // The outcome over a reader, and the bytes it had handed out by the end.
    let read = |workers, policy| {
        let mut reader = Cursor::new(corpus.as_bytes());
        let run = plan(workers, CHUNK, fault(policy));
        let outcome = run.infer(Source::Reader(&mut reader), Equivalence::Kind);
        (outcome, reader.position() as usize)
    };
    let bounded = ErrorPolicy::Skip {
        max_errors: Some(0),
    };
    for policy in [ErrorPolicy::FailFast, bounded] {
        let reference = plan(1, 0, fault(policy)).infer(Source::slice(&corpus), Equivalence::Kind);
        assert!(reference.is_err());
        for workers in [1, 2, 8] {
            let (outcome, bytes) = read(workers, policy);
            assert_eq!(outcome, reference, "workers={workers} {policy:?}");
            assert!(
                workers > 1 || bytes <= 2 * (CHUNK + line.len()),
                "{policy:?}: {bytes} of {} bytes read",
                corpus.len()
            );
        }
    }
    // Nothing is decided while rejects are tolerated without bound.
    let (outcome, bytes) = read(1, ErrorPolicy::Skip { max_errors: None });
    assert_eq!(outcome.unwrap().1.errors.total, 1);
    assert_eq!(bytes, corpus.len());
}
