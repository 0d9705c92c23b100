//! One matrix instead of pairwise twins: for every stage, every way of
//! configuring a [`Run`] must yield the **same** output and the same
//! [`RunReport`] (up to its dispatch-dependent fields) as the sequential
//! in-memory reference —
//!
//! sources {slice, reader, file, file + fresh journal, file + journal
//! stopped after `k` commits then resumed} × workers {1, 2, 3, 8} ×
//! {fast-parse on, off, timed} × policy {fail-fast, skip, collect + keep
//! rejects} — on clean and dirty corpora alike, including the failures:
//! a fail-fast run over a dirty corpus must name the same first record
//! from every cell of the matrix.

#[path = "../crates/schema/tests/oracle/mod.rs"]
mod oracle;

use jsonx::core::{Equivalence, JType};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::parse;
use jsonx::translate::{ColumnarBatch, Shredder};
use jsonx::{ErrorPolicy, FaultOptions, JournalControl, Run, RunReport, Source, StreamError};
use proptest::prelude::*;
use std::fmt::Debug;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const WORKERS: [usize; 4] = [1, 2, 3, 8];
/// Small enough that every corpus below spans several chunks (so journals
/// commit several times and workers genuinely interleave).
const CHUNK_BYTES: usize = 192;
/// Cases of the cheap differential at the end.
const SOAK: u32 = 200;

type Reader = Cursor<Vec<u8>>;
type Outcome<O> = Result<(O, RunReport), StreamError>;

fn policies() -> [FaultOptions; 3] {
    [
        FaultOptions::default(),
        FaultOptions {
            policy: ErrorPolicy::Skip { max_errors: None },
            ..FaultOptions::default()
        },
        FaultOptions {
            policy: ErrorPolicy::Skip {
                max_errors: Some(1000),
            },
            keep_rejects: true,
            ..FaultOptions::default()
        },
    ]
}

/// Drops the dispatch-dependent fields (`shards` counts work units,
/// `timings` and `routes` are empty on untimed runs anyway) so outcomes
/// from different cells compare on what the run computed.
fn normalize<O>(outcome: Outcome<O>) -> Outcome<O> {
    outcome.map(|(out, mut report)| {
        report.shards = 0;
        report.timings.clear();
        report.routes = Default::default();
        report.layout = None;
        (out, report)
    })
}

/// A translation's chunk batches as the one batch they make up — what
/// its `.jxc` holds.
fn whole(outcome: Outcome<Vec<ColumnarBatch>>) -> Outcome<ColumnarBatch> {
    outcome.map(|(parts, report)| {
        let mut parts = parts.into_iter();
        let mut batch = parts.next().expect("a translation returns a batch");
        parts.for_each(|part| batch.append(part));
        (batch, report)
    })
}

/// One well-formed corpus line: records the schemas accept, records
/// they reject, nested records, dotted keys, keys repeated in the text
/// (at the root and nested, spelled alike and escaped-equal, before and
/// after a value the closed schema refuses), blanks.
fn clean_line() -> impl Strategy<Value = String> {
    prop_oneof![
        (0i64..100, "[a-z]{0,6}")
            .prop_map(|(id, tag)| format!("{{\"id\": {id}, \"tag\": \"{tag}\"}}")),
        (0i64..100, 20usize..90).prop_map(|(id, n)| format!(
            "{{\"id\": \"s{id}\", \"tag\": \"t\", \"geo\": {{\"lat\": {id}.5}}, \"pad\": \"{}\"}}",
            "x".repeat(n)
        )),
        (0i64..100).prop_map(|id| format!("{{\"id\": {id}, \"tags\": [1, \"x\"]}}")),
        Just("{\"a.b\": 1, \"tag\": null}".to_string()),
        (0i64..100).prop_map(|id| format!("{{\"id\": \"s{id}\", \"tag\": \"t\", \"id\": {id}}}")),
        (0i64..100)
            .prop_map(|id| format!("{{\"\\u0069d\": {id}, \"tag\": \"t\", \"id\": [{id}]}}")),
        (0i64..100).prop_map(|id| format!(
            "{{\"tag\": \"t\", \"geo\": {{\"lat\": null, \"lat\": {id}.25}}, \"id\": {id}}}"
        )),
        Just(String::new()),
    ]
}

/// A line some stage rejects: malformed JSON, or a well-formed
/// non-record (which only translation refuses).
fn bad_line() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("{\"id\":".to_string()),
        Just("[1, 2".to_string()),
        Just("[1, 2]".to_string()),
        Just("not json".to_string()),
    ]
}

/// Half the corpora are clean; the other half have about a quarter of
/// their lines replaced by bad ones.
fn mixed_corpus() -> impl Strategy<Value = String> {
    let line = (clean_line(), bad_line(), 0u8..4);
    (any::<bool>(), prop::collection::vec(line, 4..28)).prop_map(|(dirty, lines)| {
        let lines: Vec<String> = lines
            .into_iter()
            .map(|(clean, bad, pick)| if dirty && pick == 0 { bad } else { clean })
            .collect();
        lines.join("\n") + "\n"
    })
}

/// What one line can do that no line before it did — each of them once a
/// layout has been fixed from the lines before: fit it all the same, add
/// to it, change a column it had, or be no record at all.
const LATE: [&str; 20] = [
    // A new root field, a new nested field.
    r#"{"id": 1, "tag": "t", "fresh": true}"#,
    r#"{"id": 1, "geo": {"lat": 1.5, "lon": 2.5}}"#,
    // Int → Float, scalar → object, object → scalar.
    r#"{"id": 1, "n": 1.5}"#,
    r#"{"id": 1, "tag": {"x": 1}}"#,
    r#"{"id": 1, "geo": 7}"#,
    // Only-ever-null → typed, as a scalar and as a record.
    r#"{"id": 1, "nil": 3}"#,
    r#"{"id": 1, "nil": {"deep": [1]}}"#,
    // A field that was always `{}`: a member, a scalar.
    r#"{"id": 1, "e": {"k": 1}}"#,
    r#"{"id": 1, "e": 5}"#,
    // Array → scalar and an integer-valued float: both fit.
    r#"{"id": 1, "tags": 5, "n": 2.0}"#,
    // A literal dotted key beside the nested path; one that spells a
    // path the layout has.
    r#"{"a.b": 1, "a": {"b": 2}}"#,
    r#"{"id": 1, "geo.lat": 2.5}"#,
    // A key repeated outside and inside a spilled subtree.
    r#"{"id": 1, "tag": "t", "id": 2}"#,
    r#"{"id": 1, "tags": [{"k": 1, "k": 2}]}"#,
    r#"{"id": 1, "tags": [{"k": 1, "\u006b": "x"}], "geo": {"lat": 1, "lat": "y"}}"#,
    // No record; not JSON.
    "42",
    "[1, 2]",
    "null",
    r#"{"id":"#,
    "not json",
];

/// A corpus that *widens late*: lines of one shape, and at a random
/// position — the first line, the last, anywhere between — one or two of
/// [`LATE`].
fn widening_corpus() -> impl Strategy<Value = String> {
    let base = (0i64..100).prop_map(|i| {
        format!(
            "{{\"id\": {i}, \"tag\": \"t{i}\", \"n\": {i}, \"geo\": {{\"lat\": {i}.5}}, \
             \"nil\": null, \"e\": {{}}, \"tags\": [{i}, \"x\"]}}"
        )
    });
    let late = || (prop::sample::select(LATE.to_vec()), 0usize..1000);
    (
        prop::collection::vec(base, 3..40),
        late(),
        late(),
        any::<bool>(),
    )
        .prop_map(|(mut lines, first, second, both)| {
            for (line, at) in [first, second].into_iter().take(1 + usize::from(both)) {
                lines.insert(at % (lines.len() + 1), line.to_string());
            }
            lines.join("\n") + "\n"
        })
}

fn arb_corpus() -> impl Strategy<Value = String> {
    prop_oneof![mixed_corpus(), widening_corpus()]
}

fn tag_schema() -> CompiledSchema {
    let doc = parse(
        r#"{"type": "object", "required": ["tag"], "properties": {"id": {"type": "integer"}}}"#,
    )
    .unwrap();
    CompiledSchema::compile(&doc).unwrap()
}

/// The same corpus under a schema of the shape `jsonx infer --schema`
/// writes: these cells validate from events (and hand repeated keys
/// back).
fn closed_schema() -> CompiledSchema {
    let doc = parse(
        r#"{"type": "object", "required": ["tag"], "additionalProperties": false, "properties": {
            "id": {"type": "integer"},
            "tag": {"anyOf": [{"type": "null"}, {"type": "string"}]},
            "geo": {"type": "object", "properties": {"lat": {"type": "number"}}, "additionalProperties": false},
            "pad": {"type": "string"},
            "tags": {"type": "array", "items": {"anyOf": [{"type": "integer"}, {"type": "string"}]}},
            "a.b": {"type": "integer"}
        }}"#,
    )
    .unwrap();
    let schema = CompiledSchema::compile(&doc).unwrap();
    assert!(schema.root_projection().is_none() && schema.streamable().is_ok());
    schema
}

/// The corpus on disk, plus a scratch journal path next to it.
struct OnDisk {
    dir: PathBuf,
    input: PathBuf,
    journal: PathBuf,
}

impl OnDisk {
    fn new(tag: &str, text: &str) -> OnDisk {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "jsonx-run-plan-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("corpus.ndjson");
        std::fs::write(&input, text).unwrap();
        OnDisk {
            journal: dir.join("run.journal"),
            input,
            dir,
        }
    }
}

impl Drop for OnDisk {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A journaled copy of `run`.
fn journaled<'a>(run: &Run<'static>, ctrl: JournalControl<'a>) -> Run<'a> {
    Run {
        journal: Some(ctrl),
        ..run.clone()
    }
}

/// Runs `stage` journaled, stopping gracefully once `stop_after` chunks
/// have committed (counted across both passes of a translation), then
/// resumes it. The first leg must either be interrupted or — when the
/// stop came too late to matter — already agree with `want`; the second
/// leg is the cell's outcome.
fn stopped_then_resumed<O: PartialEq + Debug>(
    run: &Run<'static>,
    disk: &OnDisk,
    stop_after: u64,
    want: &Outcome<O>,
    stage: &impl Fn(&Run<'_>, Source<'_, Reader>) -> Outcome<O>,
) -> Outcome<O> {
    let _ = std::fs::remove_file(&disk.journal);
    let stop = Arc::new(AtomicBool::new(false));
    let (latch, commits) = (stop.clone(), AtomicU64::new(0));
    let ctrl = JournalControl {
        stop: Some(&stop),
        after_commit: Some(Arc::new(move |_| {
            if commits.fetch_add(1, Ordering::SeqCst) + 1 >= stop_after {
                latch.store(true, Ordering::SeqCst);
            }
        })),
        ..JournalControl::new(&disk.journal)
    };
    let first = normalize(stage(&journaled(run, ctrl), Source::File(&disk.input)));
    assert!(
        first == Err(StreamError::Interrupted) || &first == want,
        "stopped leg is neither interrupted nor complete: {first:?}"
    );
    let ctrl = JournalControl {
        resume: true,
        ..JournalControl::new(&disk.journal)
    };
    stage(&journaled(run, ctrl), Source::File(&disk.input))
}

/// Which sources a stage can read from.
#[derive(Clone, Copy)]
struct Sources {
    /// A reader cannot be read again, which translation may have to.
    reader: bool,
    /// Only stages with a journal codec can be journaled.
    journal: bool,
}

/// Asserts the whole matrix for one stage over one corpus.
fn assert_matrix<O: PartialEq + Debug>(
    name: &str,
    text: &str,
    stop_after: u64,
    sources: Sources,
    stage: impl Fn(&Run<'_>, Source<'_, Reader>) -> Outcome<O>,
) {
    assert_matrix_chunked(name, text, CHUNK_BYTES, stop_after, sources, stage)
}

/// [`assert_matrix`] at a chunk size of the caller's choosing.
fn assert_matrix_chunked<O: PartialEq + Debug>(
    name: &str,
    text: &str,
    chunk_bytes: usize,
    stop_after: u64,
    sources: Sources,
    stage: impl Fn(&Run<'_>, Source<'_, Reader>) -> Outcome<O>,
) {
    let disk = OnDisk::new(name, text);
    for fault in policies() {
        let reference = Run {
            workers: 1,
            fault,
            fast_parse: false,
            ..Run::default()
        };
        let want = normalize(stage(&reference, Source::Slice(text)));
        for workers in WORKERS {
            // Timing is an account of the same run, not another way to run
            // it: same outcome, and somebody did the work — one worker
            // included, from every source.
            for (fast_parse, timing) in [(true, false), (false, false), (true, true)] {
                let run = Run {
                    workers,
                    chunk_bytes,
                    fault,
                    fast_parse,
                    timing,
                    ..Run::default()
                };
                let cell = |source: &str, got: Outcome<O>| {
                    if let (true, Ok((_, report))) = (timing, &got) {
                        let ran = report.timings.len();
                        assert!(
                            (1..=workers).contains(&ran),
                            "{name}: {source}, {ran} timed"
                        );
                    }
                    assert_eq!(
                        normalize(got),
                        want,
                        "{name}: {source}, workers {workers}, chunks of {chunk_bytes}, \
                         fast_parse {fast_parse}, {:?}",
                        fault.policy
                    );
                };
                cell("slice", stage(&run, Source::Slice(text)));
                if sources.reader {
                    let reader = Cursor::new(text.as_bytes().to_vec());
                    cell("reader", stage(&run, Source::Reader(reader)));
                }
                cell("file", stage(&run, Source::File(&disk.input)));
                if sources.journal {
                    let fresh = journaled(&run, JournalControl::new(&disk.journal));
                    cell("fresh journal", stage(&fresh, Source::File(&disk.input)));
                    cell(
                        "stopped + resumed journal",
                        stopped_then_resumed(&run, &disk, stop_after, &want, &stage),
                    );
                }
            }
        }
    }
}

const EVERY_SOURCE: Sources = Sources {
    reader: true,
    journal: true,
};
const NO_JOURNAL: Sources = Sources {
    reader: true,
    journal: false,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn infer_is_plan_invariant(
        text in arb_corpus(), stop_after in 1u64..6, label in any::<bool>()
    ) {
        let equiv = if label { Equivalence::Label } else { Equivalence::Kind };
        assert_matrix("infer", &text, stop_after, EVERY_SOURCE, |run, source| {
            run.infer(source, equiv)
        });
    }

    #[test]
    fn validate_is_plan_invariant(text in arb_corpus(), stop_after in 1u64..6) {
        for (name, schema) in [("validate", tag_schema()), ("validate-closed", closed_schema())] {
            assert_matrix(name, &text, stop_after, EVERY_SOURCE, |run, source| {
                run.validate(source, &schema, ValidatorOptions::default())
            });
        }
    }

    #[test]
    fn infer_validate_is_plan_invariant(text in arb_corpus(), label in any::<bool>()) {
        let equiv = if label { Equivalence::Label } else { Equivalence::Kind };
        for (name, schema) in [("infer-validate", tag_schema()), ("infer-validate-closed", closed_schema())] {
            assert_matrix(name, &text, 0, NO_JOURNAL, |run, source| {
                run.infer_validate(source, equiv, &schema, ValidatorOptions::default())
            });
        }
    }

    #[test]
    fn translate_is_plan_invariant(text in arb_corpus()) {
        // The layout every cell shreds under: the type of whatever the
        // corpus holds that types at all.
        let tolerant = Run { fault: policies()[1], ..Run::default() };
        let (ty, _) = tolerant.infer(Source::slice(&text), Equivalence::Kind).unwrap();
        let shredder = Shredder::from_type(&ty);
        assert_matrix("translate", &text, 0, NO_JOURNAL, |run, source| {
            run.translate(source, &shredder)
        });
    }

    /// The reference cell (`fast_parse: false`) types the whole corpus,
    /// then shreds it; the cells with `fast_parse` on — journaled or not
    /// — let the first chunk teach the layout and verify every record
    /// against it. So this is one-pass ≡ two-pass at every worker count ×
    /// source × journal cell — and, from one line per chunk to one chunk
    /// per corpus, over corpora where every record fits, where a late one
    /// adds columns (only its chunk is shredded again), where it changes
    /// a column (every chunk is), and where the first chunk, or every
    /// chunk, holds a misfit: `widening_corpus`'s arms, which the
    /// journaled cells stop in any of the three phases (teach, verify,
    /// shred again) and resume.
    #[test]
    fn translate_inferred_is_plan_invariant(
        text in arb_corpus(),
        chunk_bytes in prop::sample::select(vec![16usize, 100, 192, 1024, 4096]),
        stop_after in 1u64..12,
    ) {
        let rereadable = Sources { reader: false, journal: true };
        assert_matrix_chunked("translate-inferred", &text, chunk_bytes, stop_after, rereadable, |run, source| {
            whole(run.translate_inferred(source, Equivalence::Kind))
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(SOAK))]

    /// The matrix's translate row again, on the cells where it is a
    /// differential between two routes — slice and file, no journal —
    /// so that many more corpora fit in the budget: one line per chunk to
    /// one chunk per corpus.
    #[test]
    fn a_layout_taught_by_the_first_chunk_is_the_whole_corpus_layout(
        text in arb_corpus(),
        chunk_bytes in prop::sample::select(vec![1usize, 100, 192, 400, 1024, 4096]),
    ) {
        let disk = OnDisk::new("taught", &text);
        for fault in policies() {
            let reference = Run { workers: 1, fault, fast_parse: false, ..Run::default() };
            let want = normalize(whole(reference.translate_inferred(Source::slice(&text), Equivalence::Kind)));
            for workers in [1, 2, 3] {
                let run = Run { workers, chunk_bytes, fault, ..Run::default() };
                let slice = whole(run.translate_inferred(Source::slice(&text), Equivalence::Kind));
                prop_assert_eq!(&normalize(slice), &want, "slice, {} workers, chunks of {}", workers, chunk_bytes);
                let file = whole(run.translate_inferred(Source::<Reader>::File(&disk.input), Equivalence::Kind));
                prop_assert_eq!(&normalize(file), &want, "file, {} workers, chunks of {}", workers, chunk_bytes);
            }
        }
    }
}

/// The matrix above trusts the reference cell; anchor that cell to the
/// DOM once, so "all cells agree" cannot mean "all cells are wrong".
#[test]
fn reference_cell_matches_the_dom() {
    let text = "{\"id\": 1, \"tag\": \"a\"}\n\n{\"id\": \"x\"}\n{\"tag\": null, \"id\": 2}\n\
                {\"id\": \"x\", \"tag\": \"t\", \"id\": 3}\n{\"id\": 3, \"tag\": \"t\", \"id\": \"x\"}\n";
    let docs = jsonx::syntax::parse_ndjson(text).unwrap();
    let run = Run {
        workers: 1,
        fast_parse: false,
        ..Run::default()
    };
    for (schema, valid) in [(tag_schema(), 3), (closed_schema(), 3)] {
        let (verdicts, report) = run
            .validate(Source::slice(text), &schema, ValidatorOptions::default())
            .unwrap();
        let dom: Vec<bool> = docs
            .iter()
            .map(|d| oracle::validate(&schema, d).is_ok())
            .collect();
        let streamed: Vec<bool> = verdicts.iter().map(|(_, v)| v.is_valid()).collect();
        assert_eq!(streamed, dom);
        assert_eq!(dom.iter().filter(|valid| **valid).count(), valid);
        assert_eq!(report.records, 5);
    }
    let (batch, _) = whole(run.translate_inferred(Source::slice(text), Equivalence::Kind)).unwrap();
    let dom_ty: JType = jsonx::core::infer_collection(&docs, Equivalence::Kind);
    assert_eq!(batch, Shredder::from_type(&dom_ty).shred(&docs).unwrap());
}
