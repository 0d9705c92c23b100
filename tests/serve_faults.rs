//! Fault-injection harness for the resident schema service.
//!
//! Every test drives a live daemon (bound to port 0, run on a background
//! thread) with deliberately misbehaving clients from
//! [`jsonx::gen::fault_client`] and asserts the robustness contract:
//! the daemon never panics or deadlocks, every accepted well-formed
//! request gets a verdict identical to the batch pipeline's, overload is
//! shed with structured `busy` responses, and the final report's books
//! balance.

use jsonx::gen::fault_client::{abandon_mid_frame, pipeline, send_raw, slow_loris, LineClient};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::serve::{FinalReport, ServeConfig, Server};
use jsonx::syntax::parse;
use jsonx::{ErrorPolicy, FaultOptions, ParseLimits, Run, Source, Value};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

const SCHEMA: &str =
    r#"{"type": "object", "properties": {"id": {"type": "integer"}}, "required": ["id"]}"#;
const STRICT_SCHEMA: &str = r#"{"type": "object", "properties": {"id": {"type": "integer"}, "name": {"type": "string"}}, "required": ["id", "name"]}"#;

/// Writes a schema file unique to this test.
fn schema_file(name: &str, body: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("jsonx-serve-{}-{name}.json", std::process::id()));
    std::fs::write(&path, body).unwrap();
    path
}

/// Binds and runs a daemon on a background thread.
fn start(config: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<FinalReport>) {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run()))
}

/// Sends `SHUTDOWN` and returns the drained final report.
fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<FinalReport>) -> FinalReport {
    let mut client = LineClient::connect(addr).unwrap();
    let ack = client.request("SHUTDOWN").unwrap().unwrap();
    assert!(ack.contains("\"draining\":true"), "{ack}");
    let report = handle.join().expect("server thread survived");
    assert!(report.reconciled(), "books must balance: {report:?}");
    report
}

fn response_json(line: &str) -> Value {
    parse(line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"))
}

fn field<'v>(doc: &'v Value, key: &str) -> &'v Value {
    doc.get(key)
        .unwrap_or_else(|| panic!("missing {key:?} in {doc:?}"))
}

#[test]
fn verdicts_match_the_batch_pipeline() {
    let limits = ParseLimits::new()
        .with_max_depth(4)
        .with_max_input_bytes(256);
    let corpus: Vec<String> = vec![
        r#"{"id": 1}"#.to_string(),
        r#"{"id": "not an int"}"#.to_string(),
        r#"{"id": 2, "extra": [1, {"a": null}]}"#.to_string(),
        r#"{"id""#.to_string(),
        "[1, 2, 3]".to_string(),
        "nonsense".to_string(),
        r#"{"id": 4} xyz"#.to_string(),
        r#"{"id": 5}]"#.to_string(),
        r#"{"deep": [[[[[[1]]]]]]}"#.to_string(),
        format!("{{\"id\": 3, \"pad\": \"{}\"}}", "x".repeat(300)),
    ];
    // Ground truth: the batch path over the same records with the same
    // schema and limits.
    let ndjson: String = corpus.iter().map(|l| format!("{l}\n")).collect();
    let schema = CompiledSchema::compile(&parse(SCHEMA).unwrap()).unwrap();
    let batch = Run {
        workers: 1,
        fault: FaultOptions {
            policy: ErrorPolicy::Skip { max_errors: None },
            keep_rejects: false,
            limits,
        },
        fast_parse: false,
        ..Run::default()
    };
    let (batch_verdicts, batch_report) = batch
        .validate(Source::slice(&ndjson), &schema, ValidatorOptions::default())
        .unwrap();

    // The batch run splits outcomes: parsed records land in the verdict
    // vector, malformed ones in the report's diagnostics. Re-key both by
    // record index so every corpus line has exactly one expected outcome.
    let mut expected: BTreeMap<usize, Result<bool, (&'static str, &str)>> = BTreeMap::new();
    for (idx, verdict) in &batch_verdicts {
        expected.insert(*idx, Ok(verdict.is_valid()));
    }
    for diag in &batch_report.errors.rejects {
        expected.insert(diag.record, Err((diag.kind, &diag.message)));
    }
    assert_eq!(expected.len(), corpus.len(), "every line has one outcome");
    // Which batch command is the reference does not matter: inference
    // rejects the same lines with the same diagnostics.
    let (_, infer_report) = batch
        .infer(Source::slice(&ndjson), jsonx::core::Equivalence::Kind)
        .unwrap();
    assert_eq!(infer_report.errors, batch_report.errors);

    let (addr, handle) = start(ServeConfig {
        schema_path: Some(schema_file("parity", SCHEMA)),
        limits,
        ..ServeConfig::default()
    });
    let mut client = LineClient::connect(addr).unwrap();
    for (idx, line) in corpus.iter().enumerate() {
        let resp = client
            .request(&format!("VALIDATE {line}"))
            .unwrap()
            .unwrap();
        let doc = response_json(&resp);
        match expected[&idx] {
            Ok(true) => {
                assert_eq!(
                    field(&doc, "verdict").as_str(),
                    Some("valid"),
                    "{line}: {resp}"
                );
            }
            Ok(false) => {
                assert_eq!(
                    field(&doc, "verdict").as_str(),
                    Some("invalid"),
                    "{line}: {resp}"
                );
            }
            Err((kind, message)) => {
                assert_eq!(field(&doc, "ok").as_bool(), Some(false), "{line}: {resp}");
                assert_eq!(field(&doc, "kind").as_str(), Some(kind), "{line}: {resp}");
                assert_eq!(field(&doc, "error").as_str(), Some(message), "{resp}");
            }
        }
    }
    let report = shutdown(addr, handle);
    // The service's per-kind error account equals the batch run's.
    assert_eq!(report.report.errors.by_kind, batch_report.errors.by_kind);
    assert_eq!(report.report.records, corpus.len());
}

#[test]
fn infer_and_translate_match_the_batch_primitives() {
    use jsonx::core::{infer_collection, print_type, Equivalence, PrintOptions};
    use jsonx::translate::Shredder;
    let docs = [
        r#"{"a": 1, "b": "x"}"#,
        r#"{"a": [1, 2], "nested": {"k": true}}"#,
        r#"{"a": null}"#,
    ];
    let (addr, handle) = start(ServeConfig::default());
    let mut client = LineClient::connect(addr).unwrap();
    for line in docs {
        let value = parse(line).unwrap();
        let ty = infer_collection(std::slice::from_ref(&value), Equivalence::Kind);
        let expected_ty = print_type(&ty, PrintOptions::plain());
        let resp = client.request(&format!("INFER {line}")).unwrap().unwrap();
        let doc = response_json(&resp);
        assert_eq!(field(&doc, "type").as_str(), Some(expected_ty.as_str()));

        let batch = Shredder::from_type(&ty)
            .shred(std::slice::from_ref(&value))
            .unwrap();
        let resp = client
            .request(&format!("TRANSLATE {line}"))
            .unwrap()
            .unwrap();
        let doc = response_json(&resp);
        assert_eq!(
            field(&doc, "schema").as_str(),
            Some(batch.schema_string().as_str())
        );
        assert_eq!(
            field(&doc, "columns").as_i64(),
            Some(batch.columns.len() as i64)
        );
    }
    shutdown(addr, handle);
}

#[test]
fn malformed_frames_answer_and_keep_the_connection() {
    let (addr, handle) = start(ServeConfig::default());
    let mut client = LineClient::connect(addr).unwrap();
    // Unknown verbs, missing payloads, and empty frames each get a
    // structured error on the SAME connection — no reconnect needed.
    for (frame, kind) in [
        ("FROBNICATE {}", "unknown-verb"),
        ("VALIDATE", "bad-frame"),
        ("", "bad-frame"),
        ("BOOM", "unknown-verb"), // debug verb hidden without --debug-faults
    ] {
        let resp = client.request(frame).unwrap().unwrap();
        let doc = response_json(&resp);
        assert_eq!(field(&doc, "kind").as_str(), Some(kind), "{frame}: {resp}");
    }
    // ...and the connection still serves real requests afterwards.
    let resp = client.request(r#"INFER {"a": 1}"#).unwrap().unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let report = shutdown(addr, handle);
    assert_eq!(report.malformed_requests, 4);
    assert!(report.report.poisoned.is_empty());
}

#[test]
fn non_utf8_frames_close_the_connection_cleanly() {
    let (addr, handle) = start(ServeConfig::default());
    let resp = send_raw(addr, b"VALIDATE {\"a\": \xff\xfe}").unwrap();
    if let Some(resp) = resp {
        assert!(resp.contains("bad-frame"), "{resp}");
    }
    // The daemon survives to serve the next client.
    let mut client = LineClient::connect(addr).unwrap();
    assert!(client
        .request("PING")
        .unwrap()
        .unwrap()
        .contains("\"ok\":true"));
    let report = shutdown(addr, handle);
    assert_eq!(report.bad_frames, 1);
}

#[test]
fn oversized_payloads_reject_with_the_batch_label() {
    let limits = ParseLimits::new().with_max_input_bytes(128);
    let (addr, handle) = start(ServeConfig {
        schema_path: Some(schema_file("oversize", SCHEMA)),
        limits,
        ..ServeConfig::default()
    });
    // Over the record limit but under the frame cap: a structured reject,
    // connection stays open.
    let mut client = LineClient::connect(addr).unwrap();
    let payload = format!("{{\"id\": 1, \"pad\": \"{}\"}}", "x".repeat(200));
    let resp = client
        .request(&format!("VALIDATE {payload}"))
        .unwrap()
        .unwrap();
    let doc = response_json(&resp);
    assert_eq!(
        field(&doc, "kind").as_str(),
        Some("limit-exceeded-input-bytes"),
        "{resp}"
    );
    assert!(client
        .request("PING")
        .unwrap()
        .unwrap()
        .contains("\"ok\":true"));
    // Over the frame cap (limit + slack): the framer cuts the connection
    // before buffering the whole thing.
    let monster = format!("VALIDATE {{\"pad\": \"{}\"}}", "y".repeat(64 * 1024));
    match send_raw(addr, monster.as_bytes()) {
        Ok(Some(resp)) => assert!(resp.contains("limit-exceeded-input-bytes"), "{resp}"),
        Ok(None) => {}
        // A server that closes a socket with the frame's tail still
        // unread resets it: the client's write or read sees the cut as
        // a reset instead of an end of stream, depending on timing.
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("{e}"),
    }
    let report = shutdown(addr, handle);
    assert_eq!(report.oversized_frames, 1);
    assert_eq!(
        report.report.errors.by_kind["limit-exceeded-input-bytes"],
        1
    );
}

#[test]
fn a_record_at_the_depth_ceiling_passes_through_every_verb() {
    use jsonx::syntax::MAX_DEPTH_CEILING as CEILING;
    // A schema that follows the record all the way down.
    let recursive = r##"{"$ref": "#/definitions/t", "definitions": {"t": {"items": {"$ref": "#/definitions/t"}, "additionalProperties": {"$ref": "#/definitions/t"}}}}"##;
    let (addr, handle) = start(ServeConfig {
        schema_path: Some(schema_file("ceiling", recursive)),
        limits: ParseLimits::new().with_max_depth(CEILING),
        ..ServeConfig::default()
    });
    // Objects and arrays alternating, exactly `CEILING` deep. An overflow in
    // what walks it would abort this process, not fail an assertion.
    let bomb = "{\"a\":[".repeat(CEILING / 2) + &"]}".repeat(CEILING / 2);
    let mut client = LineClient::connect(addr).unwrap();
    for verb in ["VALIDATE", "INFER", "TRANSLATE"] {
        let resp = client.request(&format!("{verb} {bomb}")).unwrap().unwrap();
        assert!(resp.starts_with("{\"ok\":true"), "{verb}: {resp:.200}");
    }
    shutdown(addr, handle);
}

#[test]
fn slow_loris_writers_are_cut_off() {
    let (addr, handle) = start(ServeConfig {
        frame_budget: Duration::from_millis(150),
        ..ServeConfig::default()
    });
    // 20 bytes at 50ms/byte can never finish inside a 150ms budget.
    let resp = slow_loris(addr, "VALIDATE {\"id\": 1}\n", Duration::from_millis(50)).unwrap();
    if let Some(resp) = resp {
        assert!(resp.contains("slow-frame"), "{resp}");
    }
    // The worker pool never saw the frame; the daemon is healthy.
    let mut client = LineClient::connect(addr).unwrap();
    assert!(client
        .request("PING")
        .unwrap()
        .unwrap()
        .contains("\"ok\":true"));
    let report = shutdown(addr, handle);
    assert_eq!(report.slow_frames, 1);
    assert_eq!(report.report.records, 0);
}

#[test]
fn mid_request_disconnects_are_absorbed() {
    let (addr, handle) = start(ServeConfig::default());
    for _ in 0..3 {
        abandon_mid_frame(addr, "VALIDATE {\"id\": ").unwrap();
    }
    // Give the handlers a beat to observe the EOFs.
    std::thread::sleep(Duration::from_millis(100));
    let mut client = LineClient::connect(addr).unwrap();
    assert!(client
        .request("PING")
        .unwrap()
        .unwrap()
        .contains("\"ok\":true"));
    let report = shutdown(addr, handle);
    assert_eq!(report.disconnects, 3);
    assert_eq!(report.report.records, 0);
}

#[test]
fn queue_overflow_sheds_with_structured_busy() {
    let (addr, handle) = start(ServeConfig {
        queue_depth: 1,
        workers: 1,
        debug_faults: true,
        ..ServeConfig::default()
    });
    // Occupy the single worker...
    let mut sleeper = LineClient::connect(addr).unwrap();
    sleeper.send("SLEEP 600").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // ...then storm from concurrent connections while it holds the queue
    // at depth 1.
    let storm = 8;
    let handles: Vec<_> = (0..storm)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr).unwrap();
                client
                    .request(&format!("INFER {{\"n\": {i}}}"))
                    .unwrap()
                    .unwrap()
            })
        })
        .collect();
    let responses: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(sleeper
        .read_response()
        .unwrap()
        .unwrap()
        .contains("\"ok\":true"));
    let ok = responses
        .iter()
        .filter(|r| r.contains("\"ok\":true"))
        .count();
    let busy = responses.iter().filter(|r| r.contains("\"busy\"")).count();
    assert_eq!(ok + busy, storm, "{responses:?}");
    assert!(
        busy >= 1,
        "storm must overflow a depth-1 queue: {responses:?}"
    );
    let report = shutdown(addr, handle);
    assert_eq!(report.shed, busy);
    // Every admitted request produced exactly one verdict.
    assert_eq!(report.report.records, ok + 1, "{report:?}"); // + the sleeper
}

#[test]
fn queued_requests_past_the_deadline_expire() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        queue_depth: 4,
        deadline: Some(Duration::from_millis(100)),
        debug_faults: true,
        ..ServeConfig::default()
    });
    let mut sleeper = LineClient::connect(addr).unwrap();
    sleeper.send("SLEEP 500").unwrap();
    std::thread::sleep(Duration::from_millis(50));
    // This request waits ~450ms in the queue — far past its 100ms
    // deadline — and must be answered, not silently dropped.
    let mut client = LineClient::connect(addr).unwrap();
    let resp = client.request(r#"INFER {"a": 1}"#).unwrap().unwrap();
    let doc = response_json(&resp);
    assert_eq!(
        field(&doc, "kind").as_str(),
        Some("deadline-exceeded"),
        "{resp}"
    );
    assert!(sleeper
        .read_response()
        .unwrap()
        .unwrap()
        .contains("\"ok\":true"));
    let report = shutdown(addr, handle);
    assert_eq!(report.expired, 1);
}

#[test]
fn reload_swaps_epochs_without_interrupting_traffic() {
    let path = schema_file("reload", SCHEMA);
    let (addr, handle) = start(ServeConfig {
        schema_path: Some(path.clone()),
        ..ServeConfig::default()
    });
    let doc = r#"{"id": 7}"#;
    let mut client = LineClient::connect(addr).unwrap();
    let resp = client.request(&format!("VALIDATE {doc}")).unwrap().unwrap();
    assert!(
        resp.contains("\"valid\"") && resp.contains("\"epoch\":1"),
        "{resp}"
    );

    // Concurrent traffic while epochs swap: every response must be a
    // coherent verdict from epoch 1 or 2, never an error.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let traffic: Vec<_> = (0..4)
        .map(|_| {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr).unwrap();
                let mut seen = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let resp = client
                        .request(r#"VALIDATE {"id": 7}"#)
                        .unwrap()
                        .expect("connection stays open across reloads");
                    assert!(resp.contains("\"ok\":true"), "{resp}");
                    seen.push(resp);
                }
                seen
            })
        })
        .collect();
    // The stricter schema flips the verdict for the same document.
    std::fs::write(&path, STRICT_SCHEMA).unwrap();
    let resp = client.request("RELOAD").unwrap().unwrap();
    assert!(resp.contains("\"epoch\":2"), "{resp}");
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let all: Vec<String> = traffic
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    for resp in &all {
        let doc = response_json(resp);
        match field(&doc, "epoch").as_i64() {
            Some(1) => assert_eq!(field(&doc, "verdict").as_str(), Some("valid"), "{resp}"),
            Some(2) => assert_eq!(field(&doc, "verdict").as_str(), Some("invalid"), "{resp}"),
            other => panic!("unexpected epoch {other:?} in {resp}"),
        }
    }
    let resp = client.request(&format!("VALIDATE {doc}")).unwrap().unwrap();
    assert!(
        resp.contains("\"invalid\"") && resp.contains("\"epoch\":2"),
        "{resp}"
    );

    // A broken reload keeps the old epoch serving — whether the file is
    // not JSON, uses a keyword the validator would have to ignore, or
    // recurses without consuming input.
    for (broken, names) in [
        ("{\"type\": [not json", "reload-failed"),
        (r#"{"prefixItems": [{"type": "string"}]}"#, "#/prefixItems"),
        (
            r##"{"anyOf": [{"$ref": "#"}, {"type": "object"}]}"##,
            "# → #",
        ),
    ] {
        std::fs::write(&path, broken).unwrap();
        let resp = client.request("RELOAD").unwrap().unwrap();
        assert!(
            resp.contains("reload-failed") && resp.contains(names),
            "{resp}"
        );
        let resp = client.request(&format!("VALIDATE {doc}")).unwrap().unwrap();
        assert!(
            resp.contains("\"invalid\"") && resp.contains("\"epoch\":2"),
            "{resp}"
        );
    }

    let report = shutdown(addr, handle);
    assert_eq!(report.reloads, 1);
    assert_eq!(report.reload_failures, 3);
    assert_eq!(report.epoch, 2);
    let _ = std::fs::remove_file(&path);
}

/// A schema file that leads with a byte-order mark (RFC 8259 §8.1) is
/// served from start-up, and a marked file reloads like any other.
#[test]
fn a_schema_file_with_a_byte_order_mark_starts_and_reloads() {
    let path = schema_file("bom", &format!("\u{feff}{SCHEMA}"));
    let (addr, handle) = start(ServeConfig {
        schema_path: Some(path.clone()),
        ..ServeConfig::default()
    });
    let mut client = LineClient::connect(addr).unwrap();
    let resp = client.request(r#"VALIDATE {"id": 7}"#).unwrap().unwrap();
    assert!(
        resp.contains("\"valid\"") && resp.contains("\"epoch\":1"),
        "{resp}"
    );
    std::fs::write(&path, format!("\u{feff}{STRICT_SCHEMA}")).unwrap();
    let resp = client.request("RELOAD").unwrap().unwrap();
    assert!(resp.contains("\"epoch\":2"), "{resp}");
    let resp = client.request(r#"VALIDATE {"id": 7}"#).unwrap().unwrap();
    assert!(
        resp.contains("\"invalid\"") && resp.contains("\"epoch\":2"),
        "{resp}"
    );
    let report = shutdown(addr, handle);
    assert_eq!((report.reloads, report.reload_failures), (1, 0));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_poisoned_request_kills_one_connection_not_the_daemon() {
    let (addr, handle) = start(ServeConfig {
        debug_faults: true,
        ..ServeConfig::default()
    });
    let mut victim = LineClient::connect(addr).unwrap();
    let mut bystander = LineClient::connect(addr).unwrap();
    let resp = victim.request("BOOM").unwrap().unwrap();
    assert!(resp.contains("\"panic\""), "{resp}");
    // The poisoned connection is closed...
    assert!(victim.is_closed());
    // ...the bystander's is not, and the daemon keeps serving.
    assert!(bystander
        .request(r#"INFER {"a": 1}"#)
        .unwrap()
        .unwrap()
        .contains("\"ok\":true"));
    let report = shutdown(addr, handle);
    assert_eq!(report.report.poisoned.len(), 1);
    assert!(report.report.poisoned[0].message.contains("BOOM"));
}

#[test]
fn pipelined_bursts_get_every_response_in_order() {
    let (addr, handle) = start(ServeConfig {
        schema_path: Some(schema_file("burst", SCHEMA)),
        ..ServeConfig::default()
    });
    let frames: Vec<String> = (0..32)
        .map(|i| {
            if i % 3 == 0 {
                format!("VALIDATE {{\"id\": {i}}}")
            } else if i % 3 == 1 {
                format!("VALIDATE {{\"id\": \"s{i}\"}}")
            } else {
                format!("INFER {{\"n\": {i}}}")
            }
        })
        .collect();
    let responses = pipeline(addr, &frames).unwrap();
    assert_eq!(responses.len(), frames.len());
    for (frame, resp) in frames.iter().zip(&responses) {
        let doc = response_json(resp);
        if frame.starts_with("VALIDATE {\"id\": \"") {
            assert_eq!(
                field(&doc, "verdict").as_str(),
                Some("invalid"),
                "{frame}: {resp}"
            );
        } else if frame.starts_with("VALIDATE") {
            assert_eq!(
                field(&doc, "verdict").as_str(),
                Some("valid"),
                "{frame}: {resp}"
            );
        } else {
            assert_eq!(field(&doc, "op").as_str(), Some("infer"), "{frame}: {resp}");
        }
    }
    let report = shutdown(addr, handle);
    assert_eq!(report.report.records, frames.len());
    assert_eq!(report.valid, 11);
    assert_eq!(report.invalid, 11);
}

#[test]
fn connection_cap_refuses_with_busy() {
    let (addr, handle) = start(ServeConfig {
        max_conns: 2,
        ..ServeConfig::default()
    });
    let mut a = LineClient::connect(addr).unwrap();
    let mut b = LineClient::connect(addr).unwrap();
    assert!(a.request("PING").unwrap().unwrap().contains("\"ok\":true"));
    assert!(b.request("PING").unwrap().unwrap().contains("\"ok\":true"));
    let mut c = LineClient::connect(addr).unwrap();
    let resp = c.read_response().unwrap().unwrap();
    assert!(resp.contains("\"busy\""), "{resp}");
    // Free the two slots (the shutdown connection is subject to the same
    // cap) and give the handlers a beat to observe the EOFs.
    drop(a);
    drop(b);
    std::thread::sleep(Duration::from_millis(150));
    let report = shutdown(addr, handle);
    assert_eq!(report.refused, 1);
}

#[test]
fn a_frame_near_the_cap_in_one_write_gets_its_verdict() {
    use std::io::{BufRead, BufReader, Write};
    // Under the 8 MiB default cap, and read in a few thousand pieces: a
    // framer that searched the whole buffer again after every read would
    // spend seconds on it, far past the budget.
    let (addr, handle) = start(ServeConfig {
        frame_budget: Duration::from_millis(500),
        ..ServeConfig::default()
    });
    let frame = format!("INFER {{\"a\":\"{}\"}}\n", "x".repeat(7 << 20));
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // A daemon that gives up on the frame closes the socket under the
    // write.
    if let Err(e) = stream.write_all(frame.as_bytes()) {
        panic!("the daemon cut the frame off: {e}");
    }
    let mut resp = String::new();
    BufReader::new(&stream).read_line(&mut resp).unwrap();
    let doc = response_json(&resp);
    assert_eq!(field(&doc, "type").as_str(), Some("{a: Str}"), "{resp}");
    drop(stream);
    let report = shutdown(addr, handle);
    assert_eq!(report.slow_frames, 0);
    assert_eq!(report.report.records, 1);
}

/// One `STATS` snapshot on a fresh connection.
fn stats(addr: SocketAddr) -> Value {
    let mut client = LineClient::connect(addr).unwrap();
    response_json(&client.request("STATS").unwrap().unwrap())
}

/// Polls `STATS` until `done` holds of it (or fails after five seconds).
fn await_stats(addr: SocketAddr, done: impl Fn(&Value) -> bool) -> Value {
    let t0 = std::time::Instant::now();
    loop {
        let snapshot = stats(addr);
        if done(&snapshot) {
            return snapshot;
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "{snapshot:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn count(doc: &Value, key: &str) -> i64 {
    field(doc, key).as_i64().unwrap()
}

#[test]
fn two_permits_run_two_sleeps_at_once_and_a_third_waits() {
    let (addr, handle) = start(ServeConfig {
        workers: 2,
        debug_faults: true,
        ..ServeConfig::default()
    });
    let mut clients: Vec<LineClient> = (0..3).map(|_| LineClient::connect(addr).unwrap()).collect();
    for client in &mut clients {
        client.send("SLEEP 500").unwrap();
    }
    // Both permits taken, nothing finished yet, and the third request in
    // the waiting room: the two sleeps overlap.
    let snapshot = await_stats(addr, |s| {
        count(s, "dequeued") == 2 && count(s, "queue_depth") == 1
    });
    assert_eq!(count(&snapshot, "processed"), 0, "{snapshot:?}");
    assert_eq!(count(&snapshot, "enqueued"), 3, "{snapshot:?}");
    for client in &mut clients {
        let resp = client.read_response().unwrap().unwrap();
        assert!(resp.contains("\"op\":\"sleep\""), "{resp}");
    }
    let snapshot = stats(addr);
    assert_eq!(count(&snapshot, "queue_depth"), 0, "{snapshot:?}");
    assert_eq!(count(&snapshot, "dequeued"), 3, "{snapshot:?}");
    let report = shutdown(addr, handle);
    assert_eq!(report.report.records, 3);
}

#[test]
fn a_waiter_expires_at_its_deadline_not_when_the_permit_frees() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        deadline: Some(Duration::from_millis(100)),
        debug_faults: true,
        ..ServeConfig::default()
    });
    let mut sleeper = LineClient::connect(addr).unwrap();
    sleeper.send("SLEEP 1500").unwrap();
    await_stats(addr, |s| count(s, "dequeued") == 1);
    let mut waiter = LineClient::connect(addr).unwrap();
    let resp = waiter.request(r#"INFER {"a": 1}"#).unwrap().unwrap();
    let doc = response_json(&resp);
    assert_eq!(
        field(&doc, "kind").as_str(),
        Some("deadline-exceeded"),
        "{resp}"
    );
    // The sleeper still holds the permit: the waiter was answered before
    // it, and left the waiting room without a permit.
    let snapshot = stats(addr);
    assert_eq!(count(&snapshot, "processed"), 0, "{snapshot:?}");
    assert_eq!(count(&snapshot, "queue_depth"), 0, "{snapshot:?}");
    assert_eq!(count(&snapshot, "dequeued"), 1, "{snapshot:?}");
    assert_eq!(count(&snapshot, "expired"), 1, "{snapshot:?}");
    assert!(sleeper
        .read_response()
        .unwrap()
        .unwrap()
        .contains("\"ok\":true"));
    let report = shutdown(addr, handle);
    assert_eq!(report.expired, 1);
    assert_eq!(report.report.records, 1);
}

#[test]
fn a_request_waiting_at_shutdown_is_answered() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        debug_faults: true,
        ..ServeConfig::default()
    });
    let mut sleeper = LineClient::connect(addr).unwrap();
    sleeper.send("SLEEP 300").unwrap();
    await_stats(addr, |s| count(s, "dequeued") == 1);
    let mut waiter = LineClient::connect(addr).unwrap();
    waiter.send(r#"INFER {"a": 1}"#).unwrap();
    await_stats(addr, |s| count(s, "queue_depth") == 1);
    let report = shutdown(addr, handle);
    assert_eq!(report.report.records, 2, "{report:?}");
    assert_eq!(report.enqueued, 2, "{report:?}");
    assert!(sleeper
        .read_response()
        .unwrap()
        .unwrap()
        .contains("\"ok\":true"));
    let resp = waiter.read_response().unwrap().unwrap();
    assert_eq!(
        field(&response_json(&resp), "type").as_str(),
        Some("{a: Int}"),
        "{resp}"
    );
}

#[test]
fn a_panicked_request_gives_its_permit_back() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        // A permit kept by the panic would make the next request expire
        // here instead of hanging the test.
        deadline: Some(Duration::from_secs(2)),
        debug_faults: true,
        ..ServeConfig::default()
    });
    for _ in 0..2 {
        let mut victim = LineClient::connect(addr).unwrap();
        let resp = victim.request("BOOM").unwrap().unwrap();
        assert!(resp.contains("\"panic\""), "{resp}");
        assert!(victim.is_closed());
    }
    let mut next = LineClient::connect(addr).unwrap();
    let resp = next.request(r#"INFER {"a": 1}"#).unwrap().unwrap();
    assert!(resp.contains("\"ok\":true"), "{resp}");
    let report = shutdown(addr, handle);
    assert_eq!(report.report.poisoned.len(), 2);
    assert_eq!(report.expired, 0);
    assert_eq!(report.report.records, 1);
}
