//! Fault-tolerance vocabulary: error policies, per-shard error summaries,
//! and the run report every tolerant entry point returns.
//!
//! Massive real-world NDJSON collections are dirty — truncated documents,
//! stray bytes, nesting bombs — and an all-or-nothing pipeline turns one
//! bad record into a dead run. The types here let a stage *account* for
//! rejected records instead: each shard folds an [`ErrorSummary`] (counts
//! by error kind plus the first few sample diagnostics), summaries merge
//! in shard order exactly like stage outputs, and the caller receives a
//! [`RunReport`] alongside the result. The engine's `catch_unwind` layer
//! reports poisoned shards through the same report as [`ShardPanic`]s.

use std::collections::BTreeMap;
use std::fmt;

/// How many sample diagnostics a summary retains by default. Counts in
/// [`ErrorSummary::by_kind`] are always exact; only the per-record samples
/// are capped.
pub const DIAGNOSTIC_SAMPLES: usize = 8;

/// What to do when a record is rejected (malformed, over a limit, or not
/// the shape the stage requires).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Abort the run on the first rejected record (the historical
    /// behaviour, and still the default).
    #[default]
    FailFast,
    /// Skip rejected records and keep going; `max_errors` (when set)
    /// bounds how many rejections the whole run tolerates before it fails
    /// anyway.
    ///
    /// A summary retains the first [`DIAGNOSTIC_SAMPLES`] diagnostics;
    /// a caller that needs every one (a quarantine sink) asks its stage
    /// to keep them all.
    Skip {
        /// Abort once the *total* rejection count exceeds this.
        max_errors: Option<usize>,
    },
}

impl ErrorPolicy {
    /// Whether rejected records are tolerated at all.
    pub fn tolerates(&self) -> bool {
        !matches!(self, ErrorPolicy::FailFast)
    }

    /// The total-rejection bound, if any.
    pub fn max_errors(&self) -> Option<usize> {
        match self {
            ErrorPolicy::FailFast => None,
            ErrorPolicy::Skip { max_errors } => *max_errors,
        }
    }
}

/// One rejected record's diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordDiagnostic {
    /// Global record index (0-based NDJSON line number).
    pub record: usize,
    /// Byte offset of the error within the record.
    pub offset: usize,
    /// Stable machine-readable error label (e.g. `"unexpected-eof"`).
    pub kind: &'static str,
    /// Human-readable error message.
    pub message: String,
    /// The raw rejected line, retained only when a quarantine sink needs
    /// to write it back out.
    pub raw: Option<String>,
}

/// Per-shard (and, after merging, per-run) account of rejected records.
///
/// `total` and `by_kind` are exact; `rejects` holds at most the retention
/// cap the stage was configured with, with `dropped` counting the
/// diagnostics that fell past it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErrorSummary {
    /// Exact number of rejected records.
    pub total: usize,
    /// Exact rejection counts grouped by stable error label.
    pub by_kind: BTreeMap<&'static str, usize>,
    /// Sample diagnostics, in record order after merging.
    pub rejects: Vec<RecordDiagnostic>,
    /// How many diagnostics were discarded past the retention cap.
    pub dropped: usize,
}

impl ErrorSummary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one rejection, retaining its diagnostic only while under
    /// `cap`.
    pub fn push(&mut self, diag: RecordDiagnostic, cap: usize) {
        self.total += 1;
        *self.by_kind.entry(diag.kind).or_insert(0) += 1;
        if self.rejects.len() < cap {
            self.rejects.push(diag);
        } else {
            self.dropped += 1;
        }
    }

    /// Merges `right` (the later shard) into `self`, re-applying the
    /// retention cap so the merged sample set is the *earliest* `cap`
    /// diagnostics — the ones a sequential run would have kept.
    pub fn merge(&mut self, right: ErrorSummary, cap: usize) {
        self.total += right.total;
        for (kind, n) in right.by_kind {
            *self.by_kind.entry(kind).or_insert(0) += n;
        }
        self.dropped += right.dropped;
        for diag in right.rejects {
            if self.rejects.len() < cap {
                self.rejects.push(diag);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Whether nothing was rejected.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// A worker panic caught by the engine, with shard provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPanic {
    /// Shard number (in shard order).
    pub shard: usize,
    /// Global index of the shard's first record.
    pub first_record: usize,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl fmt::Display for ShardPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker panicked in shard {} (first record {}): {}",
            self.shard, self.first_record, self.message
        )
    }
}

impl std::error::Error for ShardPanic {}

/// Per-worker account of a chunked (work-stealing) run, collected only
/// when timing is requested: how the dispatcher actually spread the work,
/// and whether any worker ran ahead of its fair share (stole).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerTiming {
    /// Worker index (0-based).
    pub worker: usize,
    /// Chunks this worker claimed.
    pub chunks: usize,
    /// Lines this worker fed through the fold (blank lines included).
    pub records: usize,
    /// Bytes of chunk text this worker processed.
    pub bytes: usize,
    /// Time spent inside chunk processing (excludes claim waits), summed
    /// over the worker's chunks. Stored as a [`std::time::Duration`] so
    /// the report stays `Eq`; derive rates at display time.
    pub busy: std::time::Duration,
    /// Chunks claimed beyond this worker's fair share
    /// (`chunks - ceil(total_chunks / workers)`, floored at 0) — a direct
    /// count of work stolen from slower workers' shares.
    pub steals: usize,
}

impl WorkerTiming {
    /// Records per second over this worker's busy time (0 when idle).
    pub fn records_per_sec(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs > 0.0 {
            self.records as f64 / secs
        } else {
            0.0
        }
    }

    /// Bytes per second over this worker's busy time (0 when idle).
    pub fn bytes_per_sec(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs > 0.0 {
            self.bytes as f64 / secs
        } else {
            0.0
        }
    }
}

/// The route one accepted record took through a stage that speculates
/// per record: a fast route it verifies, with a replay through the slow
/// route when it cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The fast route, verified.
    Fast,
    /// Replayed through the slow route, for the labelled reason.
    Replayed(&'static str),
}

/// How often a stage took each [`Route`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteCounts {
    /// Records that took the fast route.
    pub fast: u64,
    /// Records replayed through the slow route, by reason label.
    pub replayed: BTreeMap<&'static str, u64>,
}

impl RouteCounts {
    /// Counts one record's route.
    pub fn count(&mut self, route: Route) {
        match route {
            Route::Fast => self.fast += 1,
            Route::Replayed(why) => *self.replayed.entry(why).or_default() += 1,
        }
    }

    /// Adds `right`'s counts.
    pub fn merge(&mut self, right: RouteCounts) {
        self.fast += right.fast;
        for (why, n) in right.replayed {
            *self.replayed.entry(why).or_default() += n;
        }
    }
}

/// How a run that speculated on its output's *layout* went: the layout
/// was taught by some of the records, every other record was checked
/// against it where it was laid out, and a chunk holding one that did not
/// fit was laid out again once the layout had been widened.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LayoutAccount {
    /// Records read to fix the layout: the teach set's, and each chunk's
    /// from its first misfit on.
    pub taught: usize,
    /// Chunks laid out once.
    pub once: usize,
    /// Chunks laid out again under the widened layout.
    pub again: usize,
    /// The first record (0-based) that did not fit the taught layout.
    pub misfit: Option<usize>,
    /// The column the widening restructured, when it did: every chunk
    /// was laid out again, not just those with a misfit.
    pub restructured: Option<String>,
}

impl fmt::Display for LayoutAccount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "layout taught by {} records: ", self.taught)?;
        let line = self.misfit.map_or(0, |record| record + 1);
        match (&self.restructured, self.again) {
            (Some(column), _) => write!(
                f,
                "every chunk re-shredded: line {line} restructured column {column}"
            ),
            (None, 0) => write!(f, "{} chunks shredded once", self.once),
            (None, again) => write!(
                f,
                "{} chunks shredded once, {again} re-shredded after line {line} did not fit",
                self.once
            ),
        }
    }
}

/// The account of one tolerant streaming run, returned alongside the
/// stage result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Number of non-blank records processed (accepted + rejected).
    pub records: usize,
    /// Number of work units (claimed chunks) the input was split into
    /// (1 for an empty input).
    pub shards: usize,
    /// The merged rejection account.
    pub errors: ErrorSummary,
    /// Shards whose worker panicked; their partial results are lost but
    /// the remaining shards still merge.
    pub poisoned: Vec<ShardPanic>,
    /// Per-worker timing, populated only when the run requested it
    /// (empty otherwise, so untimed reports compare as before).
    pub timings: Vec<WorkerTiming>,
    /// Fast-route / replay counts of a speculating stage, populated like
    /// `timings` only when the run requested timing. They count this
    /// process's work: a resumed run does not re-count its journaled
    /// prefix.
    pub routes: RouteCounts,
    /// What a run that speculated on its output's layout did about it,
    /// populated like `timings` only when the run requested timing.
    pub layout: Option<LayoutAccount>,
}

impl RunReport {
    /// Whether every record was accepted and no shard panicked.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty() && self.poisoned.is_empty()
    }

    /// Merges `right` (the later run) into `self`, so long-lived services
    /// can aggregate many per-request or per-connection reports into one
    /// final account. Error samples re-apply `cap` exactly like
    /// [`ErrorSummary::merge`]; panic provenance and timings concatenate.
    pub fn merge(&mut self, right: RunReport, cap: usize) {
        self.records += right.records;
        self.shards += right.shards;
        self.errors.merge(right.errors, cap);
        self.poisoned.extend(right.poisoned);
        self.timings.extend(right.timings);
        self.routes.merge(right.routes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(record: usize, kind: &'static str) -> RecordDiagnostic {
        RecordDiagnostic {
            record,
            offset: 0,
            kind,
            message: format!("boom at {record}"),
            raw: None,
        }
    }

    #[test]
    fn push_caps_samples_but_counts_exactly() {
        let mut s = ErrorSummary::new();
        for i in 0..10 {
            s.push(diag(i, if i % 2 == 0 { "even" } else { "odd" }), 3);
        }
        assert_eq!(s.total, 10);
        assert_eq!(s.by_kind["even"], 5);
        assert_eq!(s.by_kind["odd"], 5);
        assert_eq!(s.rejects.len(), 3);
        assert_eq!(s.dropped, 7);
    }

    #[test]
    fn merge_keeps_earliest_samples_in_shard_order() {
        let mut left = ErrorSummary::new();
        left.push(diag(1, "a"), 4);
        left.push(diag(3, "a"), 4);
        let mut right = ErrorSummary::new();
        right.push(diag(7, "b"), 4);
        right.push(diag(9, "b"), 4);
        right.push(diag(11, "b"), 4);
        left.merge(right, 4);
        assert_eq!(left.total, 5);
        let records: Vec<usize> = left.rejects.iter().map(|d| d.record).collect();
        assert_eq!(records, vec![1, 3, 7, 9]);
        assert_eq!(left.dropped, 1);
        assert_eq!(left.by_kind["a"], 2);
        assert_eq!(left.by_kind["b"], 3);
    }

    #[test]
    fn run_report_merge_aggregates_and_recaps() {
        let mut left = RunReport {
            records: 3,
            shards: 1,
            ..RunReport::default()
        };
        left.errors.push(diag(0, "a"), 2);
        let mut right = RunReport {
            records: 5,
            shards: 2,
            ..RunReport::default()
        };
        right.errors.push(diag(4, "b"), 2);
        right.errors.push(diag(6, "b"), 2);
        left.routes.fast = 3;
        left.routes.count(Route::Replayed("uniqueItems"));
        right.routes.fast = 3;
        right.routes.count(Route::Fast);
        right.routes.replayed.insert("uniqueItems", 2);
        right.routes.count(Route::Replayed("duplicate-key"));
        right.poisoned.push(ShardPanic {
            shard: 1,
            first_record: 4,
            message: "boom".into(),
        });
        left.merge(right, 2);
        assert_eq!(left.records, 8);
        assert_eq!(left.shards, 3);
        assert_eq!(left.errors.total, 3);
        assert_eq!(left.errors.rejects.len(), 2, "cap re-applied on merge");
        assert_eq!(left.errors.dropped, 1);
        assert_eq!(left.poisoned.len(), 1);
        assert!(!left.is_clean());
        assert_eq!(left.routes.fast, 7);
        assert_eq!(left.routes.replayed["uniqueItems"], 3);
        assert_eq!(left.routes.replayed["duplicate-key"], 1);
    }

    #[test]
    fn policy_helpers() {
        assert!(!ErrorPolicy::FailFast.tolerates());
        assert!(ErrorPolicy::Skip { max_errors: None }.tolerates());
        assert_eq!(
            ErrorPolicy::Skip {
                max_errors: Some(5)
            }
            .max_errors(),
            Some(5)
        );
        assert_eq!(ErrorPolicy::FailFast.max_errors(), None);
        assert_eq!(ErrorPolicy::default(), ErrorPolicy::FailFast);
    }
}
