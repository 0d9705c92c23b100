//! Running one data-plane request on its connection's thread: under the
//! admission gate's permit (taken by the caller), [`ParseLimits`], and
//! `catch_unwind` panic isolation.
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
//!
//! [`ParseLimits`]: jsonx_syntax::ParseLimits

use crate::protocol::{Response, KIND_NOT_A_RECORD, KIND_NO_SCHEMA, KIND_PANIC};
use crate::{DataOp, Shared};
use jsonx_core::{infer_collection, print_type, Equivalence, PrintOptions};
use jsonx_pipeline::{panic_message, RecordDiagnostic, ShardPanic, DIAGNOSTIC_SAMPLES};
use jsonx_schema::ValidatorOptions;
use jsonx_syntax::{JsonDecoder, RecordDecoder};
use jsonx_translate::Shredder;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What one admitted request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Work<'a> {
    /// Run a stage over the payload.
    Data(DataOp, &'a str),
    /// Debug: panic inside the request's `catch_unwind`.
    Boom,
    /// Debug: hold the permit for this many milliseconds.
    Sleep(u64),
}

/// Runs one admitted request under `catch_unwind` and always answers: a
/// panic becomes a `panic` response that closes the connection, and lands
/// in `poisoned` with the connection (`shard`) and the request's sequence
/// number (`first_record`) as its provenance.
pub(crate) fn run(shared: &Shared, work: Work<'_>, conn: usize) -> Response {
    let seq = shared.next_seq();
    match catch_unwind(AssertUnwindSafe(|| process(shared, work, seq))) {
        Ok(response) => response,
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            shared.stats.lock().unwrap().poisoned.push(ShardPanic {
                shard: conn,
                first_record: seq,
                message: message.clone(),
            });
            Response::err_close(KIND_PANIC, &format!("request panicked: {message}"))
        }
    }
}

/// Runs one data-plane request, updating the aggregate counters. Always
/// returns a response; panics escape to [`run`]'s `catch_unwind`.
fn process(shared: &Shared, work: Work<'_>, seq: usize) -> Response {
    match work {
        Work::Boom => panic!("BOOM requested by client"),
        Work::Sleep(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            shared.stats.lock().unwrap().processed += 1;
            Response::ok_sleep(ms)
        }
        Work::Data(op, payload) => {
            // The batch pipeline's decoder under the daemon's limits (its
            // size guard runs before any parsing): a payload is rejected alike
            // whether it arrives over a socket or in an NDJSON corpus.
            let decoder = JsonDecoder::new().with_limits(shared.config.limits);
            let value = match decoder.decode_value(&mut (), payload) {
                Ok(value) => value,
                Err(err) => {
                    return reject(shared, seq, err.kind.label(), err.offset, &err.to_string())
                }
            };
            let response = match op {
                DataOp::Validate => {
                    let epoch = shared.cache.snapshot();
                    let Some(schema) = &epoch.schema else {
                        return reject(
                            shared,
                            seq,
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
                            return reject(shared, seq, KIND_NOT_A_RECORD, 0, &err.to_string())
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
    seq: usize,
    kind: &'static str,
    offset: usize,
    message: &str,
) -> Response {
    let mut stats = shared.stats.lock().unwrap();
    stats.processed += 1;
    stats.rejected += 1;
    stats.errors.push(
        RecordDiagnostic {
            record: seq,
            offset,
            kind,
            message: message.to_string(),
            raw: None,
        },
        DIAGNOSTIC_SAMPLES,
    );
    Response::err(kind, message)
}
