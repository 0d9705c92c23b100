//! Property tests for [`RunReport::merge`] — the operation the engine
//! leans on everywhere shard results combine: the work-stealing merge,
//! the resident service's per-connection aggregation, and the checkpoint
//! layer's replay of a committed journal prefix.
//!
//! Two contracts are pinned:
//!
//! * Merging is associative (under one retention cap), so the *grouping*
//!   of merges — per-worker trees, journal prefix + live tail — can never
//!   change the final account.
//! * Merging per-shard reports in shard order equals one sequential pass
//!   that pushed every diagnostic through a single summary: totals and
//!   per-kind counts exactly, and the retained samples are the earliest
//!   `cap` diagnostics a sequential run would have kept. This is what
//!   makes a resumed run's report indistinguishable from an
//!   uninterrupted one.

use jsonx_pipeline::{ErrorSummary, RecordDiagnostic, RunReport, ShardPanic};
use proptest::prelude::*;

const KINDS: [&str; 4] = ["syntax", "limit-depth", "limit-bytes", "not-a-record"];

fn arb_diag() -> impl Strategy<Value = RecordDiagnostic> {
    (0usize..4, 0usize..200).prop_map(|(k, offset)| RecordDiagnostic {
        record: 0, // rewritten to a global position by the callers below
        offset,
        kind: KINDS[k],
        message: format!("rejected ({})", KINDS[k]),
        raw: None,
    })
}

/// One shard's report: `records` lines, of which the given diagnostics
/// rejected, each pushed under `cap` exactly as a fold would.
fn shard_report(first_record: usize, diags: Vec<RecordDiagnostic>, cap: usize) -> RunReport {
    let mut errors = ErrorSummary::new();
    for (i, mut d) in diags.into_iter().enumerate() {
        d.record = first_record + i;
        errors.push(d, cap);
    }
    RunReport {
        records: errors.total,
        shards: 1,
        errors,
        ..RunReport::default()
    }
}

fn arb_shards(min: usize) -> impl Strategy<Value = Vec<Vec<RecordDiagnostic>>> {
    prop::collection::vec(prop::collection::vec(arb_diag(), 0..12), min..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_is_associative(shards in arb_shards(3), cap in 0usize..8) {
        let mut first = 0usize;
        let reports: Vec<RunReport> = shards
            .into_iter()
            .map(|diags| {
                let r = shard_report(first, diags, cap);
                first += r.records;
                r
            })
            .collect();
        let (a, b, c) = (reports[0].clone(), reports[1].clone(), reports[2].clone());

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(b.clone(), cap);
        left.merge(c.clone(), cap);
        // a ⊕ (b ⊕ c)
        let mut bc = b;
        bc.merge(c, cap);
        let mut right = a;
        right.merge(bc, cap);

        prop_assert_eq!(left, right);
    }

    #[test]
    fn merging_shards_in_order_equals_one_sequential_pass(
        shards in arb_shards(1),
        cap in 0usize..8,
    ) {
        // The merged account of per-shard reports, in shard order.
        let mut first = 0usize;
        let mut merged: Option<RunReport> = None;
        let mut all_diags: Vec<RecordDiagnostic> = Vec::new();
        for diags in shards {
            let report = shard_report(first, diags, cap);
            first += report.records;
            all_diags.extend(report.errors.rejects.iter().cloned());
            // Reconstruct the diagnostics the shard dropped past its cap
            // so the sequential oracle sees every rejection. Dropped
            // samples only affect `total`/`by_kind`/`dropped`, which the
            // oracle recomputes from the same counts.
            match &mut merged {
                Some(acc) => acc.merge(report, cap),
                None => merged = Some(report),
            }
        }
        let merged = merged.expect("at least one shard");

        // The sequential oracle: one summary fed the retained samples in
        // global record order under the same cap.
        let mut seq = ErrorSummary::new();
        for d in &all_diags {
            seq.push(d.clone(), cap);
        }

        // Order-sensitive fields: the retained samples are exactly the
        // earliest `cap` diagnostics, in global record order.
        prop_assert_eq!(&merged.errors.rejects, &seq.rejects);
        let records: Vec<usize> = merged.errors.rejects.iter().map(|d| d.record).collect();
        let mut sorted = records.clone();
        sorted.sort_unstable();
        prop_assert_eq!(records, sorted, "samples must stay in record order");
        // Exact fields: totals and per-kind counts count every rejection,
        // retained or dropped.
        prop_assert_eq!(merged.records, first);
        prop_assert_eq!(
            merged.errors.total,
            merged.errors.rejects.len() + merged.errors.dropped
        );
    }

    #[test]
    fn merge_concatenates_panic_provenance_in_shard_order(
        n_panics in prop::collection::vec(0usize..3, 1..5),
    ) {
        let mut merged: Option<RunReport> = None;
        let mut want: Vec<(usize, usize)> = Vec::new();
        for (shard, n) in n_panics.iter().enumerate() {
            let mut report = RunReport {
                records: 10,
                shards: 1,
                ..RunReport::default()
            };
            for i in 0..*n {
                report.poisoned.push(ShardPanic {
                    shard,
                    first_record: shard * 10 + i,
                    message: "boom".into(),
                });
                want.push((shard, shard * 10 + i));
            }
            match &mut merged {
                Some(acc) => acc.merge(report, 8),
                None => merged = Some(report),
            }
        }
        let merged = merged.expect("at least one shard");
        let got: Vec<(usize, usize)> = merged
            .poisoned
            .iter()
            .map(|p| (p.shard, p.first_record))
            .collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(merged.shards, n_panics.len());
    }
}
