//! The record quarantine sink: rejected raw lines plus structured
//! diagnostics, written as sidecar NDJSON.
//!
//! Under [`ErrorPolicy::Skip`](jsonx_pipeline::ErrorPolicy::Skip) with
//! [`FaultOptions::keep_rejects`](crate::FaultOptions) set, the
//! [`RunReport`] retains one [`RecordDiagnostic`] — including the raw
//! line — per rejected record. This module serialises them, one JSON
//! object per line, so a dirty corpus splits cleanly into "what the
//! pipeline consumed" and "what it refused, and why":
//!
//! ```json
//! {"line": 7, "offset": 4, "kind": "unexpected-eof", "error": "unexpected end of input at line 1, column 5 (byte 4)", "raw": "{\"a\""}
//! ```
//!
//! `line` is 1-based (matching error messages and editors); `kind` is the
//! stable label of [`ParseErrorKind::label`](jsonx_syntax::ParseErrorKind::label)
//! (plus `"not-a-record"` from the translation stage); `raw` is the
//! rejected line verbatim, or `null` when the run did not retain raw
//! lines.

use jsonx_data::{json, Value};
use jsonx_pipeline::{RecordDiagnostic, RunReport};
use jsonx_syntax::to_string;
use std::io::Write;
use std::path::Path;

/// Serialises one reject as its quarantine diagnostic line.
fn diagnostic_line(diag: &RecordDiagnostic) -> String {
    let raw = match &diag.raw {
        Some(raw) => Value::Str(raw.clone()),
        None => Value::Null,
    };
    to_string(&json!({
        "line": (diag.record as i64 + 1),
        "offset": (diag.offset as i64),
        "kind": diag.kind,
        "error": diag.message.clone(),
        "raw": raw,
    }))
}

/// Writes the report's retained rejects to `out`, one diagnostic JSON
/// object per line, in record order. Returns how many were written.
pub fn write_quarantine<W: Write>(out: &mut W, report: &RunReport) -> std::io::Result<usize> {
    for diag in &report.errors.rejects {
        writeln!(out, "{}", diagnostic_line(diag))?;
    }
    Ok(report.errors.rejects.len())
}

/// Writes the report's retained rejects to the file at `path` (created or
/// truncated). Returns how many diagnostics were written.
///
/// The write is crash-safe: diagnostics go to a temporary sibling
/// (`<name>.tmp.<pid>` in the same directory, so the final step stays a
/// same-filesystem rename), are flushed and fsynced, and only then
/// renamed over `path`. A crash mid-run leaves either the previous
/// quarantine file intact or no file — never a truncated NDJSON that a
/// replay tool would silently treat as the complete reject set.
pub fn write_quarantine_file(path: &Path, report: &RunReport) -> std::io::Result<usize> {
    let tmp = sibling_temp_path(path);
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut out = std::io::BufWriter::new(file);
        let n = write_quarantine(&mut out, report)?;
        out.flush()?;
        out.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(n)
    })();
    if result.is_err() {
        // Best-effort cleanup; the original error is what matters.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// A temporary path next to `path` (same directory, so `rename` cannot
/// cross filesystems), disambiguated by pid for concurrent runs.
fn sibling_temp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonx_pipeline::ErrorSummary;

    fn report_with(rejects: Vec<RecordDiagnostic>) -> RunReport {
        let mut errors = ErrorSummary::new();
        for d in rejects {
            errors.push(d, usize::MAX);
        }
        RunReport {
            records: 10,
            shards: 1,
            errors,
            ..RunReport::default()
        }
    }

    #[test]
    fn diagnostics_round_trip_as_json() {
        let report = report_with(vec![
            RecordDiagnostic {
                record: 6,
                offset: 4,
                kind: "unexpected-eof",
                message: "unexpected end of input".into(),
                raw: Some("{\"a\"".into()),
            },
            RecordDiagnostic {
                record: 9,
                offset: 0,
                kind: "not-a-record",
                message: "not a JSON object".into(),
                raw: None,
            },
        ]);
        let mut buf = Vec::new();
        assert_eq!(write_quarantine(&mut buf, &report).unwrap(), 2);
        let text = String::from_utf8(buf).unwrap();
        let docs = jsonx_syntax::parse_ndjson(&text).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("line").unwrap().as_i64(), Some(7));
        assert_eq!(
            docs[0].get("kind").unwrap().as_str(),
            Some("unexpected-eof")
        );
        assert_eq!(docs[0].get("raw").unwrap().as_str(), Some("{\"a\""));
        assert_eq!(docs[1].get("line").unwrap().as_i64(), Some(10));
        assert_eq!(docs[1].get("raw"), Some(&Value::Null));
    }

    #[test]
    fn file_write_is_atomic_and_leaves_no_temp_behind() {
        let dir = std::env::temp_dir().join(format!("jsonx-quarantine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rejects.ndjson");
        // Seed a previous run's quarantine file; a failed or interrupted
        // rewrite must never truncate it.
        std::fs::write(&path, "{\"line\": 1}\n").unwrap();
        let report = report_with(vec![RecordDiagnostic {
            record: 2,
            offset: 0,
            kind: "unexpected-eof",
            message: "truncated".into(),
            raw: Some("{".into()),
        }]);
        assert_eq!(write_quarantine_file(&path, &report).unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let docs = jsonx_syntax::parse_ndjson(&text).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].get("line").unwrap().as_i64(), Some(3));
        // The temp sibling was renamed away, not left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        // A write to an impossible path fails cleanly and does not touch
        // the existing file.
        let bad = dir.join("no-such-dir").join("rejects.ndjson");
        assert!(write_quarantine_file(&bad, &report).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_report_writes_nothing() {
        let mut buf = Vec::new();
        assert_eq!(
            write_quarantine(&mut buf, &report_with(Vec::new())).unwrap(),
            0
        );
        assert!(buf.is_empty());
    }
}
