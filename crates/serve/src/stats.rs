//! Aggregate accounting: live counters, the `STATS` snapshot, and the
//! final report graceful shutdown emits.
//!
//! The daemon's account embeds a pipeline [`RunReport`] — `records` is
//! every data request processed (accepted + rejected), `shards` is the
//! connection count, rejected payloads carry the same
//! [`RecordDiagnostic`](jsonx_pipeline::RecordDiagnostic) shape the batch
//! quarantine uses, and request panics land in `poisoned` with connection
//! / request-sequence provenance. Around it sit the service-only
//! counters (shed, expired, refused connections, frame-level faults) and
//! the admission gate's own books ([`GateBooks`]), and
//! [`FinalReport::reconciled`] checks the books balance: every admitted
//! request is accounted for exactly once.

use crate::gate::GateBooks;
use jsonx_data::Value;
use jsonx_pipeline::{ErrorSummary, RunReport, ShardPanic};

/// Live counters behind the shared mutex.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Connections accepted and handled.
    pub connections: usize,
    /// Connections turned away at the connection cap, or because the
    /// OS refused their thread.
    pub refused: usize,
    /// Complete frames received (before verb parsing).
    pub frames: usize,
    /// Frames that parsed to no request (unknown verb, missing payload).
    pub malformed_requests: usize,
    /// Data requests finished (accepted + rejected).
    pub processed: usize,
    /// `VALIDATE` verdicts.
    pub valid: usize,
    /// `VALIDATE` verdicts.
    pub invalid: usize,
    /// Data requests rejected (parse error, limit, not-a-record).
    pub rejected: usize,
    /// Data requests shed with `busy` at the gate's full waiting room.
    pub shed: usize,
    /// Data requests that waited at the gate past the deadline.
    pub expired: usize,
    /// Frames that were not UTF-8.
    pub bad_frames: usize,
    /// Frames cut off at the size cap.
    pub oversized_frames: usize,
    /// Frames cut off at the completion budget (slow-loris).
    pub slow_frames: usize,
    /// Peers that vanished mid-frame.
    pub disconnects: usize,
    /// Successful `RELOAD`s.
    pub reloads: usize,
    /// Failed `RELOAD`s (old epoch kept serving).
    pub reload_failures: usize,
    /// Rejected-payload diagnostics, batch-shaped.
    pub errors: ErrorSummary,
    /// Caught request panics, batch-shaped.
    pub poisoned: Vec<ShardPanic>,
}

/// The aggregated account [`Server::run`](crate::Server::run) returns
/// after a graceful drain.
#[derive(Debug, Clone)]
pub struct FinalReport {
    /// The batch-shaped core: `records` = data requests processed,
    /// `shards` = connections handled, `errors` = rejected payloads,
    /// `poisoned` = caught request panics.
    pub report: RunReport,
    /// Connections turned away at the connection cap, or because the OS
    /// refused their thread.
    pub refused: usize,
    /// Complete frames received.
    pub frames: usize,
    /// Frames that parsed to no request.
    pub malformed_requests: usize,
    /// Data requests admitted to the admission gate (not shed).
    pub enqueued: usize,
    /// `VALIDATE` verdict counts.
    pub valid: usize,
    /// `VALIDATE` verdict counts.
    pub invalid: usize,
    /// Data requests rejected (parse error, limit, not-a-record).
    pub rejected: usize,
    /// Data requests shed with `busy`.
    pub shed: usize,
    /// Data requests that waited past the deadline.
    pub expired: usize,
    /// Non-UTF-8 frames.
    pub bad_frames: usize,
    /// Frames over the size cap.
    pub oversized_frames: usize,
    /// Frames over the completion budget.
    pub slow_frames: usize,
    /// Mid-frame disconnects.
    pub disconnects: usize,
    /// Successful reloads.
    pub reloads: usize,
    /// Failed reloads.
    pub reload_failures: usize,
    /// The schema epoch serving at shutdown.
    pub epoch: u64,
}

impl FinalReport {
    pub(crate) fn from_counters(c: Counters, books: GateBooks, epoch: u64) -> FinalReport {
        FinalReport {
            report: RunReport {
                records: c.processed,
                shards: c.connections,
                errors: c.errors,
                poisoned: c.poisoned,
                ..RunReport::default()
            },
            refused: c.refused,
            frames: c.frames,
            malformed_requests: c.malformed_requests,
            enqueued: books.enqueued,
            valid: c.valid,
            invalid: c.invalid,
            rejected: c.rejected,
            shed: c.shed,
            expired: c.expired,
            bad_frames: c.bad_frames,
            oversized_frames: c.oversized_frames,
            slow_frames: c.slow_frames,
            disconnects: c.disconnects,
            reloads: c.reloads,
            reload_failures: c.reload_failures,
            epoch,
        }
    }

    /// Whether the books balance: every admitted request was processed,
    /// expired, or panicked — exactly once — the per-record error account
    /// matches the rejection counter, and verdicts plus rejections never
    /// exceed the records that produced them.
    pub fn reconciled(&self) -> bool {
        self.enqueued == self.report.records + self.expired + self.report.poisoned.len()
            && self.report.errors.total == self.rejected
            && self.valid + self.invalid + self.rejected <= self.report.records
    }

    /// The report as one JSON value (the shutdown line on stderr).
    pub fn to_json(&self) -> Value {
        let mut by_kind = jsonx_data::Object::new();
        for (kind, n) in &self.report.errors.by_kind {
            by_kind.insert(*kind, Value::from(*n as i64));
        }
        jsonx_data::json!({
            "records": (self.report.records as i64),
            "connections": (self.report.shards as i64),
            "refused": (self.refused as i64),
            "frames": (self.frames as i64),
            "malformed_requests": (self.malformed_requests as i64),
            "enqueued": (self.enqueued as i64),
            "valid": (self.valid as i64),
            "invalid": (self.invalid as i64),
            "rejected": (self.report.errors.total as i64),
            "shed": (self.shed as i64),
            "expired": (self.expired as i64),
            "panics": (self.report.poisoned.len() as i64),
            "bad_frames": (self.bad_frames as i64),
            "oversized_frames": (self.oversized_frames as i64),
            "slow_frames": (self.slow_frames as i64),
            "disconnects": (self.disconnects as i64),
            "reloads": (self.reloads as i64),
            "reload_failures": (self.reload_failures as i64),
            "epoch": (self.epoch as i64),
            "errors_by_kind": Value::Obj(by_kind),
            "reconciled": self.reconciled(),
        })
    }

    /// The report as one serialised JSON line.
    pub fn to_json_line(&self) -> String {
        jsonx_syntax::to_string(&self.to_json())
    }
}

/// The `STATS` verb's inline snapshot: the requests waiting at the
/// admission gate (`queue_depth`) next to the shed/expired/poisoned
/// counters and the serving schema epoch, so an operator can tell
/// back-pressure (depth near capacity, shed rising) from a stall (depth
/// pinned, processed flat) without restarting.
pub(crate) fn stats_response(
    c: &Counters,
    books: GateBooks,
    epoch: u64,
    queue_capacity: usize,
) -> crate::Response {
    let line = jsonx_syntax::to_string(&jsonx_data::json!({
        "ok": true,
        "op": "stats",
        "connections": (c.connections as i64),
        "frames": (c.frames as i64),
        "enqueued": (books.enqueued as i64),
        "dequeued": (books.dequeued as i64),
        "processed": (c.processed as i64),
        "queue_depth": (books.waiting as i64),
        "queue_capacity": (queue_capacity as i64),
        "valid": (c.valid as i64),
        "invalid": (c.invalid as i64),
        "rejected": (c.rejected as i64),
        "shed": (c.shed as i64),
        "expired": (c.expired as i64),
        "panics": (c.poisoned.len() as i64),
        "reloads": (c.reloads as i64),
        "epoch": (epoch as i64),
    }));
    crate::Response { line, close: false }
}
