//! Cross-crate fault-tolerance properties, pinned over the dirty-corpus
//! generator's ground truth.
//!
//! The central identity: a `Skip`-policy run over a dirty corpus must be
//! observationally identical to a fail-fast run over the same corpus with
//! the corrupt lines blanked — same inferred type, same validation
//! verdicts (on the same original line numbers), same columnar batch —
//! for every worker count. Rejected-record indices must equal the
//! generator's `bad_lines` exactly, and the bounded policies must trip
//! deterministically regardless of sharding.
//! And what a report says about a bad line — record, offset, kind,
//! message — is what the decoder alone says about it: every route is held
//! to that one oracle, so all of them agree with each other.

use jsonx::core::{to_json_schema, Equivalence, JType};
use jsonx::gen::{dirty_ndjson, respelled, DirtyConfig, DirtyNdjson};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::{JsonDecoder, RecordDecoder};
use jsonx::translate::{ColumnarBatch, Shredder};
use jsonx::{ErrorPolicy, FaultOptions, ParseLimits, Run, RunReport, Source, StreamError};
use jsonx_data::json;
use proptest::prelude::*;

const WORKERS: [usize; 4] = [1, 2, 3, 8];

/// A plan under `fault`; the explicit chunk size dispatches these small
/// corpora across `workers` threads.
fn plan(workers: usize, fault: FaultOptions) -> Run<'static> {
    Run {
        workers,
        chunk_bytes: 128,
        fault,
        ..Run::default()
    }
}

/// The fail-fast sequential reference plan.
fn reference() -> Run<'static> {
    plan(1, FaultOptions::default())
}

fn skip_all() -> FaultOptions {
    FaultOptions {
        policy: ErrorPolicy::Skip { max_errors: None },
        keep_rejects: true,
        limits: ParseLimits::default(),
    }
}

fn arb_config() -> impl Strategy<Value = DirtyConfig> {
    (any::<u64>(), 40..160usize, 0.05..0.35f64).prop_map(|(seed, docs, corruption_rate)| {
        DirtyConfig {
            seed,
            docs,
            corruption_rate,
            ..DirtyConfig::default()
        }
    })
}

/// `(record, offset, kind, message)` of one reject.
type Diagnostic = (usize, usize, &'static str, String);

/// What the decoder alone says about each line it rejects — the one
/// diagnostic every route must report for that line.
fn decoder_diagnostics(text: &str, limits: ParseLimits) -> Vec<Diagnostic> {
    let decoder = JsonDecoder::new().with_limits(limits);
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .filter_map(|(record, line)| {
            let e = decoder.decode_value(&mut (), line).err()?;
            Some((record, e.offset, e.kind.label(), e.to_string()))
        })
        .collect()
}

/// A report's rejects, raw lines aside.
fn diagnostics(report: &RunReport) -> Vec<Diagnostic> {
    let of = |d: &jsonx::RecordDiagnostic| (d.record, d.offset, d.kind, d.message.clone());
    report.errors.rejects.iter().map(of).collect()
}

/// The report's rejects must be exactly the generator's bad lines, in
/// order, each with the decoder's own diagnostic.
fn assert_rejects_match(report: &RunReport, corpus: &DirtyNdjson, limits: ParseLimits) {
    let want = decoder_diagnostics(&corpus.text, limits);
    assert_eq!(diagnostics(report), want, "rejects != the decoder's");
    let lines: Vec<usize> = want.iter().map(|d| d.0).collect();
    assert_eq!(lines, corpus.bad_lines, "reject indices != ground truth");
    assert_eq!(report.errors.total, corpus.bad_lines.len());
    assert_eq!(report.errors.dropped, 0);
    let by_kind_total: usize = report.errors.by_kind.values().sum();
    assert_eq!(by_kind_total, report.errors.total);
}

/// Respells every other good line — the same way in the dirty text and
/// its clean twin — so both carry repeated and escaped-equal keys,
/// shuffled members and stray values where a serializer wrote none.
fn respell_good_lines(corpus: &mut DirtyNdjson, seed: u64) {
    let respell = |text: &str, bad_lines: &[usize]| {
        let lines: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, line)| match jsonx::syntax::parse(line) {
                Ok(doc) if i % 2 == 0 && !bad_lines.contains(&i) => {
                    respelled(&doc, seed.wrapping_add(i as u64))
                }
                _ => line.to_string(),
            })
            .collect();
        lines.join("\n") + "\n"
    };
    corpus.text = respell(&corpus.text, &corpus.bad_lines);
    corpus.clean_text = respell(&corpus.clean_text, &corpus.bad_lines);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn skip_inference_equals_prefiltered_failfast(config in arb_config()) {
        let corpus = dirty_ndjson(&config);
        let (want, _) = reference()
            .infer(Source::slice(&corpus.clean_text), Equivalence::Kind)
            .unwrap();
        for workers in WORKERS {
            let (ty, report) = plan(workers, skip_all())
                .infer(Source::slice(&corpus.text), Equivalence::Kind)
                .unwrap();
            prop_assert_eq!(&ty, &want, "workers={}", workers);
            assert_rejects_match(&report, &corpus, ParseLimits::default());
            // The combined pass types (and rejects) the same records.
            let any = CompiledSchema::compile(&json!({})).unwrap();
            let ((ty, _), report) = plan(workers, skip_all())
                .infer_validate(Source::slice(&corpus.text), Equivalence::Kind, &any, Default::default())
                .unwrap();
            prop_assert_eq!(&ty, &want, "combined, workers={}", workers);
            assert_rejects_match(&report, &corpus, ParseLimits::default());
        }
    }

    /// Under an open envelope and under the closed schema inferred from
    /// the clean twin, both validated from events — over text whose good
    /// lines repeat keys, so the walk hands records back among the
    /// rejects. The fast path on and off, every worker
    /// count and chunk size: same verdicts, and the same quarantine
    /// sidecar byte for byte.
    #[test]
    fn skip_validation_equals_prefiltered_failfast(config in arb_config()) {
        let mut corpus = dirty_ndjson(&config);
        let (ty, _) = reference()
            .infer(Source::slice(&corpus.clean_text), Equivalence::Kind)
            .unwrap();
        respell_good_lines(&mut corpus, config.seed);
        let envelope = json!({"type": "object", "required": ["id", "name"]});
        for schema in [envelope, to_json_schema(&ty)] {
            let schema = CompiledSchema::compile(&schema).unwrap();
            let vopts = ValidatorOptions::default();
            // The clean twin has no malformed lines, so the fail-fast
            // verdicts over it are the reference — on original line numbers.
            let (want, _) = Run { fast_parse: false, ..reference() }
                .validate(Source::slice(&corpus.clean_text), &schema, vopts)
                .unwrap();
            let mut sidecar: Option<Vec<u8>> = None;
            for (workers, fast_parse) in WORKERS.into_iter().flat_map(|w| [(w, true), (w, false)]) {
                for chunk_bytes in [128, 1, 0] {
                    let run = Run { fast_parse, chunk_bytes, ..plan(workers, skip_all()) };
                    let (verdicts, report) = run
                        .validate(Source::slice(&corpus.text), &schema, vopts)
                        .unwrap();
                    prop_assert_eq!(&verdicts, &want, "workers={} fast={}", workers, fast_parse);
                    assert_rejects_match(&report, &corpus, ParseLimits::default());
                    let mut written = Vec::new();
                    jsonx::write_quarantine(&mut written, &report).unwrap();
                    prop_assert_eq!(sidecar.get_or_insert(written.clone()), &written);
                }
            }
        }
    }

    #[test]
    fn skip_translation_equals_prefiltered_failfast(config in arb_config()) {
        let corpus = dirty_ndjson(&config);
        let (ty, _) = reference()
            .infer(Source::slice(&corpus.clean_text), Equivalence::Kind)
            .unwrap();
        if matches!(ty, JType::Bottom) {
            return Ok(()); // every record was corrupted; nothing to shred
        }
        // The DOM shred of the clean twin under its own type.
        let docs = jsonx::syntax::parse_ndjson(&corpus.clean_text).unwrap();
        let want = Shredder::from_type(&ty).shred(&docs).unwrap();
        let (parts, _) = reference()
            .translate(Source::slice(&corpus.clean_text))
            .unwrap();
        prop_assert_eq!(&whole(parts), &want);
        // The fast path on and off.
        for (workers, fast_parse) in WORKERS.into_iter().flat_map(|w| [(w, true), (w, false)]) {
            let run = Run { fast_parse, ..plan(workers, skip_all()) };
            let (parts, report) = run
                .translate(Source::slice(&corpus.text))
                .unwrap();
            prop_assert_eq!(&whole(parts), &want, "workers={} fast={}", workers, fast_parse);
            assert_rejects_match(&report, &corpus, ParseLimits::default());
        }
    }

    #[test]
    fn error_bound_trips_identically_across_worker_counts(config in arb_config()) {
        let corpus = dirty_ndjson(&config);
        let bad = corpus.bad_lines.len();
        if bad == 0 {
            return Ok(());
        }
        // One error of headroom succeeds; one short of the count fails —
        // at every worker count, because the bound is checked on the
        // merged total, not per shard.
        for workers in WORKERS {
            let bounded = |max_errors| {
                let fault = FaultOptions {
                    policy: ErrorPolicy::Skip { max_errors: Some(max_errors) },
                    ..skip_all()
                };
                plan(workers, fault).infer(Source::slice(&corpus.text), Equivalence::Kind)
            };
            let ok = bounded(bad);
            prop_assert!(ok.is_ok(), "workers={} bound={} should pass", workers, bad);
            let err = bounded(bad - 1).unwrap_err();
            prop_assert!(
                matches!(err, StreamError::TooManyErrors { .. }),
                "workers={} got {:?}",
                workers,
                err
            );
        }
    }

    /// The policy that collects every diagnostic: a bounded skip that
    /// keeps its rejects, each with its raw line.
    #[test]
    fn collect_policy_keeps_every_diagnostic(config in arb_config()) {
        let corpus = dirty_ndjson(&config);
        let fault = FaultOptions {
            policy: ErrorPolicy::Skip {
                max_errors: Some(config.docs),
            },
            ..skip_all()
        };
        let (_, report) = plan(3, fault)
            .infer(Source::slice(&corpus.text), Equivalence::Kind)
            .unwrap();
        assert_rejects_match(&report, &corpus, ParseLimits::default());
        let lines: Vec<&str> = corpus.text.lines().collect();
        prop_assert!(report
            .errors
            .rejects
            .iter()
            .all(|d| d.raw.as_deref() == Some(lines[d.record])));
    }
}

#[test]
fn failfast_on_dirty_reports_first_bad_line_at_any_worker_count() {
    let corpus = dirty_ndjson(&DirtyConfig {
        seed: 9,
        docs: 200,
        corruption_rate: 0.1,
        ..DirtyConfig::default()
    });
    let first_bad = corpus.bad_lines[0];
    for workers in WORKERS {
        let err = plan(workers, FaultOptions::default())
            .infer(Source::slice(&corpus.text), Equivalence::Kind)
            .unwrap_err();
        match err {
            StreamError::Record { record, .. } => {
                assert_eq!(record, first_bad, "workers={workers}")
            }
            other => panic!("expected record fault, got {other:?}"),
        }
    }
}

#[test]
fn oversize_guard_rejects_padded_lines() {
    let corpus = dirty_ndjson(&DirtyConfig {
        seed: 3,
        docs: 300,
        corruption_rate: 0.15,
        oversize_bytes: Some(512),
        ..DirtyConfig::default()
    });
    let fault = FaultOptions {
        limits: ParseLimits::new().with_max_input_bytes(512),
        ..skip_all()
    };
    let (_, report) = plan(2, fault)
        .infer(Source::slice(&corpus.text), Equivalence::Kind)
        .unwrap();
    assert_rejects_match(&report, &corpus, fault.limits);
    // The generator produced at least one of each configured corruption
    // kind at this seed, including the byte-limit one.
    assert!(report
        .errors
        .by_kind
        .contains_key("limit-exceeded-input-bytes"));
    assert!(report.errors.by_kind.contains_key("too-deep"));
}

/// Hand-written malformed lines × policy × workers: every route reports the
/// decoder's diagnostic — `trailing-data` at the first byte past the value.
#[test]
fn one_reject_has_one_diagnostic_whatever_the_route() {
    let bomb = format!("{{\"id\": {}", "[".repeat(128)); // one past the default depth
    let capped = r#"{"id": 15, "name": "longer than the sixteen-byte cap"}"#;
    let table = [
        (r#"{"id": 2} xyz"#, "trailing-data", 10),
        (r#"{"id": 3}]"#, "trailing-data", 9),
        (r#"{"id": 4} {"id": 5}"#, "trailing-data", 10),
        (r#"{"id": 6} 7"#, "trailing-data", 10),
        (r#"{"id": 8, "name": "cut"#, "unexpected-eof", 18),
        (r#"{"id": 9, "tags": [1, 2"#, "unexpected-eof", 23),
        (r#"{"id": 10, "name": "x""#, "unexpected-eof", 22),
        (r#"{"id": 11, "name": "a\qb"}"#, "bad-escape", 21),
        (r#"{"id": 12, "name": "\ud83d"}"#, "lone-surrogate", 20),
        (
            "{\"id\": 13, \"n\": \"a\u{1}b\"}",
            "control-character-in-string",
            18,
        ),
        (r#"{"id": 14, "name": tru}"#, "bad-keyword", 19),
        // A parse error wins over whatever a walk had concluded by then:
        // a violation, an undeclared key, a repeated key.
        (
            r#"{"id": "violation", "id": 16, "zzz": 1, "name": tru}"#,
            "bad-keyword",
            48,
        ),
        (&bomb, "too-deep", 135),
        (capped, "limit-exceeded-string-bytes", 19),
    ];
    let schema = CompiledSchema::compile(&json!({"type": "object", "required": ["id"]})).unwrap();
    // Open and closed: both are validated from events.
    let closed = CompiledSchema::compile(&json!({
        "properties": {"id": {"type": "integer"}, "name": {"type": "string"}, "tags": {}, "n": {}},
        "additionalProperties": false
    }))
    .unwrap();
    assert_eq!(closed.streamable(), Ok(()));
    let vopts = ValidatorOptions::default();
    let policies = [
        ErrorPolicy::FailFast,
        ErrorPolicy::Skip { max_errors: None },
        ErrorPolicy::Skip {
            max_errors: Some(100),
        },
    ];
    for (line, kind, offset) in table {
        // Only the line that needs a string cap runs under one.
        let limits = match line == capped {
            true => ParseLimits::new().with_max_string_bytes(16),
            false => ParseLimits::default(),
        };
        let text = format!("{{\"id\": 0}}\n\n{line}\n{{\"id\": 1, \"name\": \"b\"}}\n");
        let want = decoder_diagnostics(&text, limits);
        let found: Vec<_> = want.iter().map(|d| (d.0, d.1, d.2)).collect();
        assert_eq!(found, [(2, offset, kind)], "{line}");
        for (policy, workers) in policies.iter().flat_map(|p| [(*p, 1), (*p, 2), (*p, 8)]) {
            let mut fault = skip_all();
            (fault.policy, fault.limits) = (policy, limits);
            let mut run = plan(workers, fault);
            run.chunk_bytes = 1; // every line is a chunk of its own
            let mut slow = run.clone();
            slow.fast_parse = false;
            let src = || Source::slice(&text);
            let outcomes = [
                run.infer(src(), Equivalence::Kind).map(|o| o.1),
                run.validate(src(), &schema, vopts).map(|o| o.1),
                slow.validate(src(), &schema, vopts).map(|o| o.1),
                run.translate(src()).map(|o| o.1),
                slow.translate(src()).map(|o| o.1),
                run.infer_validate(src(), Equivalence::Kind, &schema, vopts)
                    .map(|o| o.1),
                run.validate(src(), &closed, vopts).map(|o| o.1),
                slow.validate(src(), &closed, vopts).map(|o| o.1),
                run.infer_validate(src(), Equivalence::Kind, &closed, vopts)
                    .map(|o| o.1),
                run.infer_validate(src(), Equivalence::Label, &closed, vopts)
                    .map(|o| o.1),
            ];
            for (route, outcome) in outcomes.into_iter().enumerate() {
                let context = format!("{line}: route {route}, {policy:?}, workers {workers}");
                let got = match outcome {
                    Ok(report) => diagnostics(&report),
                    Err(StreamError::Record { record, issue: i }) => {
                        vec![(record, i.offset(), i.kind_label(), i.to_string())]
                    }
                    Err(other) => panic!("{context}: {other:?}"),
                };
                assert_eq!(got, want, "{context}");
            }
        }
    }
}

/// The corpus the translate cases below share: one shape, 27 bytes a
/// line, ten lines a chunk at `chunk_bytes` 256.
fn uniform_lines(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| format!("{{\"a\": {i}, \"s\": \"row {i:04}\"}}"))
        .collect()
}

/// A translation's chunk batches as the one batch they make up.
fn whole(parts: Vec<ColumnarBatch>) -> ColumnarBatch {
    let mut parts = parts.into_iter();
    let mut batch = parts.next().expect("a translation returns a batch");
    parts.for_each(|part| batch.append(part));
    batch
}

/// Both routes of `translate` — the layout taught by the first
/// chunk and verified per record, and the whole corpus typed first — at
/// 256-byte chunks.
fn translate_routes(fault: FaultOptions) -> impl Iterator<Item = (String, Run<'static>)> {
    [1usize, 2, 3].into_iter().flat_map(move |workers| {
        [true, false].map(|fast_parse| {
            let run = Run {
                chunk_bytes: 256,
                fast_parse,
                ..plan(workers, fault)
            };
            (format!("workers {workers}, fast_parse {fast_parse}"), run)
        })
    })
}

/// One stray scalar line used to erase every column: the typing pass
/// typed what the shredder then rejected, the root became `Int + {a, s}`,
/// and the layout collapsed to one spill column. Teaching rejects what
/// shredding rejects.
#[test]
fn a_stray_scalar_line_is_rejected_not_taught() {
    let mut lines = uniform_lines(40);
    lines[1] = "42".into();
    lines[29] = "[1, 2]".into();
    let text = lines.join("\n") + "\n";
    let accepted: Vec<jsonx::Value> = lines
        .iter()
        .filter(|l| l.starts_with('{'))
        .map(|l| jsonx::syntax::parse(l).unwrap())
        .collect();
    let ty = jsonx::core::infer_collection(&accepted, Equivalence::Kind);
    let want = Shredder::from_type(&ty).shred(&accepted).unwrap();
    assert_eq!(want.schema_string(), "a:int64, s:utf8");
    for (context, run) in translate_routes(skip_all()) {
        let (parts, report) = run.translate(Source::slice(&text)).unwrap();
        assert_eq!(whole(parts), want, "{context}");
        assert_eq!(report.records, 40, "{context}");
        let rejected: Vec<_> = diagnostics(&report)
            .into_iter()
            .map(|d| (d.0, d.2))
            .collect();
        assert_eq!(
            rejected,
            [(1, "not-a-record"), (29, "not-a-record")],
            "{context}"
        );
    }
    // Fail-fast names the first of them — unless a line anywhere is
    // malformed, which is found first, as it always was.
    for (context, run) in translate_routes(FaultOptions::default()) {
        let err = run.translate(Source::slice(&text)).unwrap_err();
        assert_eq!(err.to_string(), "line 2: not a JSON object", "{context}");
        for at in [0, 20, 39] {
            let mut lines = lines.clone();
            lines[at] = "{\"a\": ".into();
            let text = lines.join("\n") + "\n";
            let err = run.translate(Source::slice(&text)).unwrap_err();
            assert!(
                matches!(err, StreamError::Record { record, ref issue } if record == at && issue.kind_label() == "unexpected-eof"),
                "{context}, malformed at {at}: {err:?}"
            );
        }
    }
}

/// A chunk whose record widens the layout is voided and shredded again:
/// its lines are rejected, counted and routed once — whatever a malformed
/// line's position relative to it — and a bounded policy trips where the
/// two-pass route trips.
#[test]
fn a_voided_chunk_is_accounted_for_once() {
    // Chunks of ten lines; line 24 (chunk 2) widens the layout and line
    // 38 (chunk 3) is no record. The malformed line sits before the
    // voided chunks, inside one before and after its misfit, and after
    // them.
    let widener = r#"{"a": 24, "s": "row 0024", "late": true}"#;
    for bad_at in [3, 21, 27, 45] {
        let mut lines = uniform_lines(50);
        lines[24] = widener.into();
        lines[bad_at] = "{\"a\": [1, ".into();
        lines[38] = "7".into();
        let text = lines.join("\n") + "\n";
        let reference = Run {
            fast_parse: false,
            chunk_bytes: 256,
            ..plan(1, FaultOptions::default())
        };
        let want_err = reference.translate(Source::slice(&text)).unwrap_err();
        assert!(
            matches!(want_err, StreamError::Record { record, .. } if record == bad_at),
            "{want_err:?}"
        );
        for (context, run) in translate_routes(FaultOptions::default()) {
            let err = run.translate(Source::slice(&text)).unwrap_err();
            assert_eq!(err, want_err, "{context}, malformed at {bad_at}");
        }

        let mut routes = translate_routes(skip_all());
        let (_, two_pass) = routes.find(|(_, run)| !run.fast_parse).unwrap();
        let (want, want_report) = two_pass.translate(Source::slice(&text)).unwrap();
        let want = whole(want);
        assert!(want.column("late").is_some());
        assert_eq!(
            (want.rows, want_report.records, want_report.errors.total),
            (48, 50, 2)
        );
        for (context, run) in translate_routes(skip_all()) {
            let timed = Run {
                timing: true,
                ..run.clone()
            };
            let (parts, report) = timed.translate(Source::slice(&text)).unwrap();
            assert_eq!(whole(parts), want, "{context}");
            assert_eq!(report.records, want_report.records, "{context}");
            assert_eq!(report.errors, want_report.errors, "{context}");
            assert_eq!(
                jsonx::quarantine::write_quarantine(&mut Vec::new(), &report).unwrap(),
                2,
                "{context}"
            );
            // Every accepted record was routed once, by the shredding
            // that produced its row.
            let routed = report.routes.fast + report.routes.replayed.values().sum::<u64>();
            assert_eq!(routed, 48, "{context}");
            let layout = report
                .layout
                .expect("a timed translation accounts for its layout");
            match run.fast_parse {
                // Chunk 2 for the new column, chunk 3 for the scalar line.
                true => assert_eq!(
                    (
                        layout.once,
                        layout.again,
                        layout.misfit,
                        &layout.restructured
                    ),
                    (3, 2, Some(24), &None),
                    "{context}"
                ),
                false => assert_eq!(
                    (layout.taught, layout.once, layout.again, layout.misfit),
                    (48, 5, 0, None),
                    "{context}"
                ),
            }
            // One reject short of the bound: both routes pass; at the
            // bound, both fail.
            for (max_errors, passes) in [(2, true), (1, false)] {
                let mut bounded = run.clone();
                bounded.fault.policy = ErrorPolicy::Skip {
                    max_errors: Some(max_errors),
                };
                let outcome = bounded.translate(Source::slice(&text));
                match (passes, outcome) {
                    (true, Ok((parts, _))) => assert_eq!(whole(parts), want, "{context}"),
                    (false, Err(StreamError::TooManyErrors { limit, seen })) => {
                        assert_eq!((limit, seen), (1, 2), "{context}")
                    }
                    (_, other) => panic!("{context}, max_errors {max_errors}: {other:?}"),
                }
            }
        }
    }
}
