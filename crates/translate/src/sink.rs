//! The columnar sink: shredded batches to stdout's schema line, a
//! summary, and — with an output path — a `.jxc` file.
//!
//! [`OutputSink::consume_batches`] takes the batches a translation
//! shredded, in row order, and returns a [`SinkReport`] with the stdout
//! body and the one-line summary; with [`OutputSink::out`] set it also
//! writes them as one `.jxc` file.

use crate::columnar::ColumnarBatch;
use crate::jxc::write_parts_file;
use std::fmt::Write as _;
use std::path::PathBuf;

/// What a sink produced: the document body for stdout and a summary
/// sentence for the status line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkReport {
    /// The batch's schema line (empty for no batch).
    pub body: String,
    /// One-line run summary without trailing newline.
    pub summary: String,
    /// The size in bytes of the file the sink wrote, when it wrote one.
    pub written: Option<u64>,
}

/// Why a sink produced nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SinkError {
    /// The output file could not be written.
    Write(String),
}

/// The columnar sink.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutputSink {
    /// `--out FILE`: write the batch as a `.jxc` file here.
    pub out: Option<PathBuf>,
}

impl OutputSink {
    /// Consumes already-shredded batches of one layout, in row order,
    /// as the one batch they make up — written as one `.jxc` file
    /// straight from the parts ([`write_jxc_parts`](crate::write_jxc_parts)).
    pub fn consume_batches(&self, parts: &[ColumnarBatch]) -> Result<SinkReport, SinkError> {
        let columns = parts.first().map_or(0, |part| part.columns.len());
        let rows: usize = parts.iter().map(|part| part.rows).sum();
        let mut summary = format!("{columns} columns x {rows} rows");
        let mut written = None;
        if let Some(path) = &self.out {
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
    use crate::columnar::Shredder;
    use crate::jxc::read_jxc_file;
    use jsonx_core::{infer_collection, Equivalence};
    use jsonx_syntax::parse_ndjson;

    fn batch() -> ColumnarBatch {
        let docs =
            parse_ndjson("{\"id\": 1, \"name\": \"a\"}\n{\"id\": 2, \"name\": \"b\"}\n").unwrap();
        let ty = infer_collection(&docs, Equivalence::Kind);
        Shredder::from_type(&ty).shred(&docs).unwrap()
    }

    #[test]
    fn the_batch_prints_its_schema_and_summary() {
        let report = OutputSink::default().consume_batches(&[batch()]).unwrap();
        assert!(report.body.contains("id:int64"));
        assert_eq!(report.summary, "2 columns x 2 rows");
        assert_eq!(report.written, None);
    }

    #[test]
    fn out_persists_a_readable_jxc_file() {
        let dir = std::env::temp_dir().join("jsonx-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("batch.jxc");
        let sink = OutputSink {
            out: Some(path.clone()),
        };
        let report = sink.consume_batches(&[batch(), batch()]).unwrap();
        assert!(report.summary.contains("bytes ->"));
        let file = read_jxc_file(&path).unwrap();
        assert_eq!(file.batch.rows, 4);
        assert_eq!(
            report.written,
            Some(std::fs::metadata(&path).unwrap().len())
        );
        std::fs::remove_file(&path).ok();
    }
}
