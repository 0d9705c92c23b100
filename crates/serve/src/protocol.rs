//! The wire protocol: one request per line, one JSON response line back.
//!
//! Requests are a verb, optionally followed by one space and a payload:
//!
//! ```text
//! VALIDATE {"name": "ada", "age": 36}
//! INFER {"name": "ada", "tags": ["x"]}
//! TRANSLATE {"name": "ada", "age": 36}
//! PING
//! STATS
//! RELOAD
//! SHUTDOWN
//! ```
//!
//! Every line gets exactly one JSON object back. Successes carry
//! `"ok": true` plus per-op fields; failures carry `"ok": false`, a
//! stable machine-readable `"kind"` (the batch pipeline's
//! [`ParseErrorKind::label`](jsonx_syntax::ParseErrorKind::label) values
//! for payload rejections, plus the service kinds below), and a
//! human-readable `"error"`:
//!
//! ```text
//! {"ok": true, "op": "validate", "verdict": "valid", "epoch": 1}
//! {"ok": false, "kind": "busy", "error": "request queue full (depth 64)"}
//! ```
//!
//! When the daemon runs with `--debug-faults`, two extra verbs exist for
//! deterministic fault injection: `BOOM` (panics inside a request,
//! proving the isolation boundary) and `SLEEP <ms>` (holds one of the
//! admission gate's permits, filling the gate on demand). Without the
//! flag they answer `unknown-verb` like any other typo.

/// Structured overload response kind (the admission gate's waiting room
/// full, or the connection cap hit).
pub const KIND_BUSY: &str = "busy";
/// The request waited at the admission gate past the configured
/// deadline.
pub const KIND_DEADLINE: &str = "deadline-exceeded";
/// The verb is not part of the protocol (or a debug verb without
/// `--debug-faults`).
pub const KIND_UNKNOWN_VERB: &str = "unknown-verb";
/// The frame was not well-formed (bad UTF-8, missing payload, bad
/// argument).
pub const KIND_BAD_FRAME: &str = "bad-frame";
/// `VALIDATE` was sent to a daemon started without `--schema`.
pub const KIND_NO_SCHEMA: &str = "no-schema";
/// The request panicked; its connection closes, the daemon survives.
pub const KIND_PANIC: &str = "panic";
/// `RELOAD` failed; the previous schema epoch keeps serving.
pub const KIND_RELOAD_FAILED: &str = "reload-failed";
/// The daemon is draining and no longer admits requests.
pub const KIND_SHUTTING_DOWN: &str = "shutting-down";
/// The frame's bytes did not finish arriving within the frame budget
/// (the slow-loris guard); the connection closes.
pub const KIND_SLOW_FRAME: &str = "slow-frame";
/// `TRANSLATE` payload was well-formed JSON but not an object (matches
/// the batch translation stage's label).
pub const KIND_NOT_A_RECORD: &str = "not-a-record";

/// A data-plane operation, run behind the admission gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataOp {
    /// Validate one JSON document against the cached schema.
    Validate,
    /// Infer the structural type of one JSON document.
    Infer,
    /// Shred one JSON record into its columnar layout.
    Translate,
}

impl DataOp {
    /// The `"op"` field value in responses.
    pub fn label(&self) -> &'static str {
        match self {
            DataOp::Validate => "validate",
            DataOp::Infer => "infer",
            DataOp::Translate => "translate",
        }
    }
}

/// One parsed request frame, borrowing its payload from the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<'a> {
    /// A data-plane request with its raw JSON payload.
    Data {
        /// Which stage to run.
        op: DataOp,
        /// The payload text after the verb, unparsed.
        payload: &'a str,
    },
    /// Liveness probe; answered inline.
    Ping,
    /// Counter snapshot; answered inline.
    Stats,
    /// Recompile the schema and swap epochs.
    Reload,
    /// Begin graceful drain.
    Shutdown,
    /// Debug: panic inside the request's `catch_unwind`.
    Boom,
    /// Debug: hold a permit for the given milliseconds.
    Sleep(u64),
}

/// One response frame: the JSON line to write, and whether the
/// connection must close after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The serialised JSON object (no trailing newline).
    pub line: String,
    /// Close the connection after writing (panics, frame-level faults).
    pub close: bool,
}

impl Response {
    /// A success response from pre-rendered `"key":value` fragments
    /// (compact, matching the serializer's output for error responses).
    fn ok(op: &str, extra: &[(&str, String)]) -> Response {
        let mut line = format!("{{\"ok\":true,\"op\":\"{op}\"");
        for (key, rendered) in extra {
            line.push_str(&format!(",\"{key}\":{rendered}"));
        }
        line.push('}');
        Response { line, close: false }
    }

    /// A failure response with a stable kind and message.
    pub fn err(kind: &str, message: &str) -> Response {
        let line = jsonx_syntax::to_string(&jsonx_data::json!({
            "ok": false,
            "kind": kind,
            "error": message,
        }));
        Response { line, close: false }
    }

    /// A failure response that also closes the connection.
    pub fn err_close(kind: &str, message: &str) -> Response {
        let mut resp = Response::err(kind, message);
        resp.close = true;
        resp
    }

    pub(crate) fn ok_validate(valid: bool, epoch: u64) -> Response {
        let verdict = if valid { "valid" } else { "invalid" };
        Response::ok(
            "validate",
            &[
                ("verdict", format!("\"{verdict}\"")),
                ("epoch", epoch.to_string()),
            ],
        )
    }

    pub(crate) fn ok_infer(ty: &str) -> Response {
        Response::ok(
            "infer",
            &[(
                "type",
                jsonx_syntax::to_string(&jsonx_data::Value::Str(ty.to_string())),
            )],
        )
    }

    pub(crate) fn ok_translate(rows: usize, columns: usize, schema: &str) -> Response {
        Response::ok(
            "translate",
            &[
                ("rows", rows.to_string()),
                ("columns", columns.to_string()),
                (
                    "schema",
                    jsonx_syntax::to_string(&jsonx_data::Value::Str(schema.to_string())),
                ),
            ],
        )
    }

    pub(crate) fn ok_ping(epoch: u64) -> Response {
        Response::ok("ping", &[("epoch", epoch.to_string())])
    }

    pub(crate) fn ok_reload(epoch: u64) -> Response {
        Response::ok("reload", &[("epoch", epoch.to_string())])
    }

    pub(crate) fn ok_shutdown() -> Response {
        let mut resp = Response::ok("shutdown", &[("draining", "true".to_string())]);
        resp.close = true;
        resp
    }

    pub(crate) fn ok_sleep(ms: u64) -> Response {
        Response::ok("sleep", &[("ms", ms.to_string())])
    }
}

/// Parses one frame. `Err` carries the response to send instead (the
/// connection stays open — a typo'd verb shouldn't cost a reconnect).
pub fn parse_request(line: &str, debug_faults: bool) -> Result<Request<'_>, Response> {
    let line = line.trim_end_matches('\r');
    let (verb, rest) = match line.find(' ') {
        Some(pos) => (&line[..pos], line[pos + 1..].trim()),
        None => (line, ""),
    };
    let data = |op: DataOp| {
        if rest.is_empty() {
            Err(Response::err(
                KIND_BAD_FRAME,
                &format!("{} requires a JSON payload", op.label().to_uppercase()),
            ))
        } else {
            Ok(Request::Data { op, payload: rest })
        }
    };
    match verb {
        "VALIDATE" => data(DataOp::Validate),
        "INFER" => data(DataOp::Infer),
        "TRANSLATE" => data(DataOp::Translate),
        "PING" => Ok(Request::Ping),
        "STATS" => Ok(Request::Stats),
        "RELOAD" => Ok(Request::Reload),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "BOOM" if debug_faults => Ok(Request::Boom),
        "SLEEP" if debug_faults => match rest.parse::<u64>() {
            Ok(ms) => Ok(Request::Sleep(ms)),
            Err(_) => Err(Response::err(KIND_BAD_FRAME, "SLEEP requires milliseconds")),
        },
        "" => Err(Response::err(KIND_BAD_FRAME, "empty frame")),
        other => Err(Response::err(
            KIND_UNKNOWN_VERB,
            &format!("unknown verb {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse() {
        assert_eq!(
            parse_request("VALIDATE {\"a\": 1}", false),
            Ok(Request::Data {
                op: DataOp::Validate,
                payload: "{\"a\": 1}"
            })
        );
        assert_eq!(parse_request("PING\r", false), Ok(Request::Ping));
        assert_eq!(parse_request("SLEEP 50", true), Ok(Request::Sleep(50)));
        assert_eq!(parse_request("BOOM", true), Ok(Request::Boom));
    }

    #[test]
    fn debug_verbs_hidden_without_flag() {
        for line in ["BOOM", "SLEEP 50"] {
            let resp = parse_request(line, false).unwrap_err();
            assert!(resp.line.contains(KIND_UNKNOWN_VERB), "{}", resp.line);
            assert!(!resp.close);
        }
    }

    #[test]
    fn malformed_frames_answer_without_closing() {
        for line in ["", "VALIDATE", "SLEEP soon", "NONSENSE {}"] {
            let resp = parse_request(line, true).unwrap_err();
            assert!(resp.line.contains("\"ok\":false"), "{}", resp.line);
            assert!(!resp.close);
        }
    }

    #[test]
    fn responses_are_parseable_json() {
        for resp in [
            Response::ok_validate(true, 3),
            Response::ok_infer("{id: Int}"),
            Response::ok_translate(1, 2, "a:int64, b:utf8"),
            Response::err(KIND_BUSY, "queue full"),
            Response::ok_shutdown(),
        ] {
            let doc = jsonx_syntax::parse(&resp.line).unwrap();
            assert!(doc.get("ok").is_some(), "{}", resp.line);
        }
    }
}
