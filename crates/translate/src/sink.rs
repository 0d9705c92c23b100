//! One interface over the three translation targets.
//!
//! The CLI used to re-implement per-format plumbing for every `--to X`
//! dispatch: encode-and-count for Avro, schema-string printing for
//! columnar, relation listing for relational — once in `convert`, again
//! in `translate`. [`OutputSink`] centralises that: callers resolve a
//! target name once ([`OutputSink::for_target`]) and hand over either a
//! DOM collection ([`OutputSink::consume`]) or already-shredded batches
//! ([`OutputSink::consume_batches`]); the sink returns a [`SinkReport`]
//! with the stdout body and the one-line summary, and — for the columnar
//! target with an output path — persists the batch as a `.jxc` file.

use crate::avro::{AvroCodec, AvroSchema};
use crate::columnar::{ColumnarBatch, Shredder};
use crate::jxc::write_parts_file;
use crate::relational::normalize;
use jsonx_core::JType;
use jsonx_data::Value;
use std::fmt::Write as _;
use std::path::PathBuf;

/// What a sink produced: the document body for stdout and a summary
/// sentence for the status line (empty when the body says it all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkReport {
    /// Per-format primary output (may be empty).
    pub body: String,
    /// One-line run summary without trailing newline (may be empty).
    pub summary: String,
    /// The size in bytes of the file the sink wrote, when it wrote one.
    pub written: Option<u64>,
}

/// Why a sink produced nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkError {
    /// The data does not fit the target.
    Data(String),
    /// The output file could not be written.
    Write(String),
}

/// A resolved `--to` target, ready to consume translated data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputSink {
    /// Avro-flavoured binary rows: encode everything, report the size.
    Avro,
    /// Columnar batch: print the schema; optionally persist as `.jxc`.
    Columnar {
        /// `--out FILE`: write the batch as a `.jxc` file here.
        out: Option<PathBuf>,
    },
    /// DiScala/Abadi-style relational normalization: list the relations.
    Relational,
}

impl OutputSink {
    /// Resolves a `--to` target name plus the optional `--out` path.
    /// `--out` is only meaningful for the columnar target (the only one
    /// with a file format); anything else is rejected up front.
    pub fn for_target(target: &str, out: Option<&str>) -> Result<OutputSink, String> {
        let sink = match target {
            "avro" => OutputSink::Avro,
            "columnar" => OutputSink::Columnar {
                out: out.map(PathBuf::from),
            },
            "relational" => OutputSink::Relational,
            other => return Err(format!("unknown target '{other}'")),
        };
        if out.is_some() && !matches!(sink, OutputSink::Columnar { .. }) {
            return Err(format!(
                "--out is only supported for --to columnar, not '{target}'"
            ));
        }
        Ok(sink)
    }

    /// DOM path: translate a materialised collection under its inferred
    /// type. Every target supports this.
    pub fn consume(&self, ty: &JType, docs: &[Value]) -> Result<SinkReport, SinkError> {
        match self {
            OutputSink::Avro => {
                let codec = AvroCodec::new(AvroSchema::from_type(ty));
                let mut total = 0usize;
                for doc in docs {
                    total += codec
                        .encode(doc)
                        .map_err(|e| SinkError::Data(e.to_string()))?
                        .len();
                }
                Ok(SinkReport {
                    body: String::new(),
                    summary: format!(
                        "{} documents encoded: {total} bytes binary (schema derived from inference)",
                        docs.len()
                    ),
                    written: None,
                })
            }
            OutputSink::Columnar { .. } => {
                let batch = Shredder::from_type(ty)
                    .shred(docs)
                    .map_err(|e| SinkError::Data(e.to_string()))?;
                self.consume_batches(&[batch])
            }
            OutputSink::Relational => {
                let lines: Vec<String> = normalize("root", docs)
                    .iter()
                    .map(|rel| {
                        format!(
                            "{}({})  -- {} rows",
                            rel.name,
                            rel.columns.join(", "),
                            rel.rows.len()
                        )
                    })
                    .collect();
                Ok(SinkReport {
                    body: lines.join("\n"),
                    summary: String::new(),
                    written: None,
                })
            }
        }
    }

    /// Streaming path: consume already-shredded batches of one layout,
    /// in row order, as the one batch they make up — written as one
    /// `.jxc` file straight from the parts ([`write_jxc_parts`](crate::write_jxc_parts)).
    /// Only the columnar sink accepts this — the other targets have no
    /// batch representation and must go through [`OutputSink::consume`].
    pub fn consume_batches(&self, parts: &[ColumnarBatch]) -> Result<SinkReport, SinkError> {
        let OutputSink::Columnar { out } = self else {
            return Err(SinkError::Data(
                "only the columnar target can consume a shredded batch".into(),
            ));
        };
        let columns = parts.first().map_or(0, |part| part.columns.len());
        let rows: usize = parts.iter().map(|part| part.rows).sum();
        let mut summary = format!("{columns} columns x {rows} rows");
        let mut written = None;
        if let Some(path) = out {
            let bytes = write_parts_file(path, parts)
                .map_err(|e| SinkError::Write(format!("writing {}: {e}", path.display())))?;
            write!(summary, ", {bytes} bytes -> {}", path.display())
                .expect("writing to String cannot fail");
            written = Some(bytes);
        }
        Ok(SinkReport {
            body: parts
                .first()
                .map_or_else(String::new, ColumnarBatch::schema_string),
            summary,
            written,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jxc::read_jxc_file;
    use jsonx_core::{infer_collection, Equivalence};
    use jsonx_syntax::parse_ndjson;

    fn corpus() -> (JType, Vec<Value>) {
        let docs =
            parse_ndjson("{\"id\": 1, \"name\": \"a\"}\n{\"id\": 2, \"name\": \"b\"}\n").unwrap();
        let ty = infer_collection(&docs, Equivalence::Kind);
        (ty, docs)
    }

    #[test]
    fn unknown_target_and_misplaced_out_are_rejected() {
        assert!(OutputSink::for_target("parquet", None).is_err());
        assert!(OutputSink::for_target("avro", Some("x.jxc")).is_err());
        assert!(OutputSink::for_target("columnar", Some("x.jxc")).is_ok());
    }

    #[test]
    fn all_three_targets_consume_a_dom_collection() {
        let (ty, docs) = corpus();
        let avro = OutputSink::for_target("avro", None)
            .unwrap()
            .consume(&ty, &docs)
            .unwrap();
        assert!(avro.summary.contains("2 documents encoded"));
        let col = OutputSink::for_target("columnar", None)
            .unwrap()
            .consume(&ty, &docs)
            .unwrap();
        assert!(col.body.contains("id:int64"));
        assert!(col.summary.starts_with("2 columns x 2 rows"));
        let rel = OutputSink::for_target("relational", None)
            .unwrap()
            .consume(&ty, &docs)
            .unwrap();
        assert!(rel.body.contains("root("));
    }

    #[test]
    fn columnar_out_persists_a_readable_jxc_file() {
        let (ty, docs) = corpus();
        let dir = std::env::temp_dir().join("jsonx-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("batch.jxc");
        let sink = OutputSink::for_target("columnar", path.to_str()).unwrap();
        let report = sink.consume(&ty, &docs).unwrap();
        assert!(report.summary.contains("bytes ->"));
        let file = read_jxc_file(&path).unwrap();
        assert_eq!(file.batch.rows, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn only_columnar_takes_batches() {
        let (ty, docs) = corpus();
        let batch = Shredder::from_type(&ty).shred(&docs).unwrap();
        let parts = [batch];
        assert!(OutputSink::Avro.consume_batches(&parts).is_err());
        assert!(OutputSink::Relational.consume_batches(&parts).is_err());
        assert!(OutputSink::Columnar { out: None }
            .consume_batches(&parts)
            .is_ok());
    }
}
