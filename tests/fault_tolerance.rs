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

use jsonx::core::{Equivalence, JType};
use jsonx::gen::{dirty_ndjson, DirtyConfig};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::translate::Shredder;
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

/// The report's reject indices must be exactly the generator's bad lines,
/// in order.
fn assert_rejects_match(report: &RunReport, bad_lines: &[usize]) {
    let rejected: Vec<usize> = report.errors.rejects.iter().map(|d| d.record).collect();
    assert_eq!(rejected, bad_lines, "reject indices != ground truth");
    assert_eq!(report.errors.total, bad_lines.len());
    assert_eq!(report.errors.dropped, 0);
    let by_kind_total: usize = report.errors.by_kind.values().sum();
    assert_eq!(by_kind_total, report.errors.total);
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
            assert_rejects_match(&report, &corpus.bad_lines);
        }
    }

    #[test]
    fn skip_validation_equals_prefiltered_failfast(config in arb_config()) {
        let corpus = dirty_ndjson(&config);
        let schema = CompiledSchema::compile(
            &json!({"type": "object", "required": ["id", "name"]}),
        )
        .unwrap();
        let vopts = ValidatorOptions::default();
        // The clean twin has no malformed lines, so the fail-fast
        // verdicts over it are the reference — on original line numbers.
        let (want, _) = reference()
            .validate(Source::slice(&corpus.clean_text), &schema, vopts)
            .unwrap();
        for workers in WORKERS {
            let (verdicts, report) = plan(workers, skip_all())
                .validate(Source::slice(&corpus.text), &schema, vopts)
                .unwrap();
            prop_assert_eq!(&verdicts, &want, "workers={}", workers);
            assert_rejects_match(&report, &corpus.bad_lines);
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
        let shredder = Shredder::from_type(&ty);
        let (want, _) = reference()
            .translate(Source::slice(&corpus.clean_text), &shredder)
            .unwrap();
        for workers in WORKERS {
            let (batch, report) = plan(workers, skip_all())
                .translate(Source::slice(&corpus.text), &shredder)
                .unwrap();
            prop_assert_eq!(&batch, &want, "workers={}", workers);
            assert_rejects_match(&report, &corpus.bad_lines);
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

    #[test]
    fn collect_policy_keeps_every_diagnostic(config in arb_config()) {
        let corpus = dirty_ndjson(&config);
        let fault = FaultOptions {
            policy: ErrorPolicy::Collect {
                max_errors: config.docs,
            },
            keep_rejects: false,
            limits: ParseLimits::default(),
        };
        let (_, report) = plan(3, fault)
            .infer(Source::slice(&corpus.text), Equivalence::Kind)
            .unwrap();
        assert_rejects_match(&report, &corpus.bad_lines);
        // Collect without keep_rejects retains diagnostics but not raw lines.
        prop_assert!(report.errors.rejects.iter().all(|d| d.raw.is_none()));
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
    assert_rejects_match(&report, &corpus.bad_lines);
    // The generator produced at least one of each configured corruption
    // kind at this seed, including the byte-limit one.
    assert!(report
        .errors
        .by_kind
        .contains_key("limit-exceeded-input-bytes"));
    assert!(report.errors.by_kind.contains_key("too-deep"));
}
