//! Boundary-value tests for [`ParseLimits`]: every limit must accept a
//! record sitting *exactly at* the configured bound and reject one
//! sitting one past it, with the stable error label — and the fused SWAR
//! fast path must agree with the full parser on both sides of every
//! boundary.

use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::parse;
use jsonx::{ErrorPolicy, FaultOptions, ParseLimits, Run, RunReport, Source};

/// Runs one NDJSON corpus through validation on BOTH parsers (full
/// parser and SWAR fast path) under `limits`, asserting identical verdict
/// vectors and error accounts before returning the shared outcome.
fn both_paths(ndjson: &str, limits: ParseLimits) -> (Vec<(usize, bool)>, RunReport) {
    let schema = CompiledSchema::compile(&parse("{}").unwrap()).unwrap();
    let fault = FaultOptions {
        policy: ErrorPolicy::Skip { max_errors: None },
        keep_rejects: false,
        limits,
    };
    let run = |fast_parse: bool| {
        let plan = Run {
            workers: 1,
            fault,
            fast_parse,
            ..Run::default()
        };
        plan.validate(Source::slice(ndjson), &schema, ValidatorOptions::default())
            .unwrap()
    };
    let (full_verdicts, full_report) = run(false);
    let (fast_verdicts, fast_report) = run(true);
    let full: Vec<(usize, bool)> = full_verdicts
        .iter()
        .map(|(i, v)| (*i, v.is_valid()))
        .collect();
    let fast: Vec<(usize, bool)> = fast_verdicts
        .iter()
        .map(|(i, v)| (*i, v.is_valid()))
        .collect();
    assert_eq!(full, fast, "fast path diverged on verdicts");
    assert_eq!(
        full_report.errors.by_kind, fast_report.errors.by_kind,
        "fast path diverged on error kinds"
    );
    assert_eq!(full_report.errors.total, fast_report.errors.total);
    (full, full_report)
}

/// A document whose nesting depth is exactly `depth` (arrays all the way
/// down around a scalar).
fn nested(depth: usize) -> String {
    format!("{}1{}", "[".repeat(depth), "]".repeat(depth))
}

#[test]
fn depth_exactly_at_limit_is_accepted_one_over_rejected() {
    let limits = ParseLimits::new().with_max_depth(8);
    let ndjson = format!("{}\n{}\n", nested(8), nested(9));
    let (verdicts, report) = both_paths(&ndjson, limits);
    assert_eq!(verdicts, vec![(0, true)], "at-limit record must parse");
    assert_eq!(report.errors.total, 1);
    assert_eq!(report.errors.by_kind["too-deep"], 1);
    assert_eq!(report.errors.rejects[0].record, 1);
}

#[test]
fn depth_boundary_counts_objects_and_arrays_alike() {
    // Mixed nesting: {"a": [{"b": [1]}]} is depth 4.
    let limits = ParseLimits::new().with_max_depth(4);
    let at = r#"{"a": [{"b": [1]}]}"#;
    let over = r#"{"a": [{"b": [[1]]}]}"#;
    let ndjson = format!("{at}\n{over}\n");
    let (verdicts, report) = both_paths(&ndjson, limits);
    assert_eq!(verdicts, vec![(0, true)]);
    assert_eq!(report.errors.by_kind["too-deep"], 1);
}

#[test]
fn input_bytes_exactly_at_limit_is_accepted_one_over_rejected() {
    // Pad a record to land exactly on the byte limit, then add one byte.
    let base = r#"{"pad": ""#;
    let close = r#""}"#;
    let limit = 64usize;
    let at = format!(
        "{base}{}{close}",
        "x".repeat(limit - base.len() - close.len())
    );
    assert_eq!(at.len(), limit);
    let over = format!(
        "{base}{}{close}",
        "x".repeat(limit + 1 - base.len() - close.len())
    );
    assert_eq!(over.len(), limit + 1);
    let limits = ParseLimits::new().with_max_input_bytes(limit);
    let ndjson = format!("{at}\n{over}\n");
    let (verdicts, report) = both_paths(&ndjson, limits);
    assert_eq!(verdicts, vec![(0, true)], "at-limit record must parse");
    assert_eq!(report.errors.total, 1);
    assert_eq!(report.errors.by_kind["limit-exceeded-input-bytes"], 1);
    assert_eq!(report.errors.rejects[0].record, 1);
}

#[test]
fn string_bytes_exactly_at_limit_is_accepted_one_over_rejected() {
    let limit = 16usize;
    let at = format!("{{\"s\": \"{}\"}}", "a".repeat(limit));
    let over = format!("{{\"s\": \"{}\"}}", "a".repeat(limit + 1));
    let limits = ParseLimits::new().with_max_string_bytes(limit);
    let ndjson = format!("{at}\n{over}\n");
    let (verdicts, report) = both_paths(&ndjson, limits);
    assert_eq!(verdicts, vec![(0, true)], "at-limit string must parse");
    assert_eq!(report.errors.total, 1);
    assert_eq!(report.errors.by_kind["limit-exceeded-string-bytes"], 1);
}

#[test]
fn all_limits_at_their_boundaries_in_one_corpus() {
    // One record sits exactly at every bound simultaneously; three
    // siblings each violate exactly one bound by one unit.
    let depth = 2usize; // {"s": ["..."]} is depth 2: object + array
    let strlen = 8usize;
    let at_depth_and_string = format!("{{\"s\": [\"{}\"]}}", "a".repeat(strlen));
    let line_limit = at_depth_and_string.len();
    let over_depth = format!("{{\"s\": [[\"{}\"]]}}", "a".repeat(strlen - 2)); // same length, one deeper
    assert_eq!(over_depth.len(), line_limit);
    let over_string = format!("{{\"s\":[\"{}\"]}}", "a".repeat(strlen + 1)); // same length, longer string
    assert_eq!(over_string.len(), line_limit);
    let over_line = format!("{{\"s\": [\"{}\" ]}}", "a".repeat(strlen)); // one byte longer, same depth/string
    assert_eq!(over_line.len(), line_limit + 1);
    let limits = ParseLimits::new()
        .with_max_depth(depth)
        .with_max_input_bytes(line_limit)
        .with_max_string_bytes(strlen);
    let ndjson = format!("{at_depth_and_string}\n{over_depth}\n{over_string}\n{over_line}\n");
    let (verdicts, report) = both_paths(&ndjson, limits);
    assert_eq!(
        verdicts,
        vec![(0, true)],
        "the all-at-limit record must parse"
    );
    assert_eq!(report.errors.total, 3);
    assert_eq!(report.errors.by_kind["too-deep"], 1);
    assert_eq!(report.errors.by_kind["limit-exceeded-string-bytes"], 1);
    assert_eq!(report.errors.by_kind["limit-exceeded-input-bytes"], 1);
}
