//! The worker pool: bounded-queue consumers running data-plane requests
//! under deadlines, [`ParseLimits`], and `catch_unwind` panic isolation.
//!
//! A request is served from its document: [`JsonDecoder::decode_value`]
//! under the configured limits, then the compiled schema's fail-fast
//! verdict face, [`infer_collection`] or a DOM shred. The batch stages
//! read the same record differently — they validate from its events,
//! count its type in place and shred from its events — so a daemon
//! verdict equals the batch CLI's by test, not by construction:
//! `tests/serve_faults.rs::verdicts_match_the_batch_pipeline` holds the
//! two to each other. Rejected payloads carry the stable error labels
//! the quarantine sidecar uses.

use crate::protocol::{Response, KIND_DEADLINE, KIND_NOT_A_RECORD, KIND_NO_SCHEMA, KIND_PANIC};
use crate::{DataOp, Shared};
use jsonx_core::{infer_collection, print_type, Equivalence, PrintOptions};
use jsonx_pipeline::{panic_message, RecordDiagnostic, ShardPanic, DIAGNOSTIC_SAMPLES};
use jsonx_schema::ValidatorOptions;
use jsonx_syntax::{JsonDecoder, RecordDecoder};
use jsonx_translate::Shredder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a worker should do with one dequeued request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Work {
    Data(DataOp),
    /// Debug: panic inside the worker's `catch_unwind`.
    Boom,
    /// Debug: hold the worker for this many milliseconds.
    Sleep(u64),
}

/// One enqueued request.
pub(crate) struct Job {
    pub(crate) work: Work,
    pub(crate) payload: String,
    /// Global request sequence number (reported as `first_record` in
    /// panic provenance).
    pub(crate) seq: usize,
    /// Owning connection (reported as `shard` in panic provenance).
    pub(crate) conn: usize,
    pub(crate) enqueued: Instant,
    /// Rendezvous channel back to the connection thread.
    pub(crate) reply: SyncSender<Response>,
}

/// One worker: dequeue, enforce the deadline, process under
/// `catch_unwind`, always reply. Exits when the queue's senders are gone
/// and the queue is drained — the graceful-shutdown contract.
pub(crate) fn worker_loop(shared: &Arc<Shared>, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the lock only to dequeue; processing runs unlocked so the
        // pool drains the queue concurrently.
        let job = match rx.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        shared.stats.lock().unwrap().dequeued += 1;
        if let Some(deadline) = shared.config.deadline {
            if job.enqueued.elapsed() > deadline {
                shared.stats.lock().unwrap().expired += 1;
                let _ = job.reply.send(Response::err(
                    KIND_DEADLINE,
                    &format!("queued longer than {} ms", deadline.as_millis()),
                ));
                continue;
            }
        }
        let response = match catch_unwind(AssertUnwindSafe(|| process(shared, &job))) {
            Ok(response) => response,
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                let mut stats = shared.stats.lock().unwrap();
                stats.poisoned.push(ShardPanic {
                    shard: job.conn,
                    first_record: job.seq,
                    message: message.clone(),
                });
                Response::err_close(KIND_PANIC, &format!("request panicked: {message}"))
            }
        };
        let _ = job.reply.send(response);
    }
}

/// Runs one data-plane request, updating the aggregate counters. Always
/// returns a response; panics escape to the worker's `catch_unwind`.
fn process(shared: &Shared, job: &Job) -> Response {
    match job.work {
        Work::Boom => panic!("BOOM requested by client"),
        Work::Sleep(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            shared.stats.lock().unwrap().processed += 1;
            Response::ok_sleep(ms)
        }
        Work::Data(op) => {
            // The batch pipeline's decoder under the daemon's limits (its
            // size guard runs before any parsing): a payload is rejected alike
            // whether it arrives over a socket or in an NDJSON corpus.
            let decoder = JsonDecoder::new().with_limits(shared.config.limits);
            let value = match decoder.decode_value(&mut (), &job.payload) {
                Ok(value) => value,
                Err(err) => {
                    return reject(shared, job, err.kind.label(), err.offset, &err.to_string())
                }
            };
            let response = match op {
                DataOp::Validate => {
                    let epoch = shared.cache.snapshot();
                    let Some(schema) = &epoch.schema else {
                        return reject(
                            shared,
                            job,
                            KIND_NO_SCHEMA,
                            0,
                            "daemon started without --schema",
                        );
                    };
                    // A fresh fail-fast validator per request: compilation
                    // is the expensive part and is amortised by the cache;
                    // the validator itself is scratch space.
                    let mut validator = schema.fast_validator_with(ValidatorOptions::default());
                    let valid = validator.is_valid(&value);
                    let mut stats = shared.stats.lock().unwrap();
                    stats.processed += 1;
                    if valid {
                        stats.valid += 1;
                    } else {
                        stats.invalid += 1;
                    }
                    Response::ok_validate(valid, epoch.epoch)
                }
                DataOp::Infer => {
                    let ty = infer_collection(std::slice::from_ref(&value), Equivalence::Kind);
                    shared.stats.lock().unwrap().processed += 1;
                    Response::ok_infer(&print_type(&ty, PrintOptions::plain()))
                }
                DataOp::Translate => {
                    let ty = infer_collection(std::slice::from_ref(&value), Equivalence::Kind);
                    match Shredder::from_type(&ty).shred(std::slice::from_ref(&value)) {
                        Ok(batch) => {
                            shared.stats.lock().unwrap().processed += 1;
                            Response::ok_translate(
                                batch.rows,
                                batch.columns.len(),
                                &batch.schema_string(),
                            )
                        }
                        Err(err) => {
                            return reject(shared, job, KIND_NOT_A_RECORD, 0, &err.to_string())
                        }
                    }
                }
            };
            response
        }
    }
}

/// Records one rejected payload in the aggregate error summary — the
/// same [`RecordDiagnostic`] shape the batch `RunReport` carries — and
/// answers with its stable kind. Rejected records still count as
/// processed (the batch convention: accepted + rejected).
fn reject(
    shared: &Shared,
    job: &Job,
    kind: &'static str,
    offset: usize,
    message: &str,
) -> Response {
    let mut stats = shared.stats.lock().unwrap();
    stats.processed += 1;
    stats.rejected += 1;
    stats.errors.push(
        RecordDiagnostic {
            record: job.seq,
            offset,
            kind,
            message: message.to_string(),
            raw: None,
        },
        DIAGNOSTIC_SAMPLES,
    );
    Response::err(kind, message)
}
