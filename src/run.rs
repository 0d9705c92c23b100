//! The run plan: **one** description of a streaming run, **one**
//! executor.
//!
//! The paper's §4.1 point is that collection inference is one fold with
//! an associative, commutative fusion, and §4.2's speculation is
//! result-identical by construction — so worker count, chunking, source,
//! decoder, fault policy, fast-parse and journaling are *parameters of
//! one run*, not reasons for separate entry points. A [`Run`] holds those
//! parameters; its methods — one per output type — build the stage and
//! hand it to a single private executor, the only place that wraps a
//! stage in the fault layer and calls the engine:
//!
//! ```
//! use jsonx::core::Equivalence;
//! use jsonx::{Run, Source};
//!
//! let ndjson = "{\"id\": 1}\n{\"id\": \"x\", \"tag\": null}\n";
//! let run = Run { workers: 2, ..Run::default() };
//! let (ty, report) = run.infer(Source::slice(ndjson), Equivalence::Kind).unwrap();
//! assert_eq!(report.records, 2);
//! assert_eq!(ty.count(), 2);
//! ```
//!
//! Whatever the parameters, the outputs are identical: every source,
//! worker count, chunk size, fast-parse setting and interrupted-then-
//! resumed journal yields the same value and the same
//! [`RunReport`] (up to its dispatch-dependent `shards` / `timings`
//! fields) — pinned as one matrix in `tests/run_plan.rs`.

use crate::checkpoint::{
    infer_codec, translate_codec, validate_codec, JournalControl, Phase, Prefix, Session,
};
use crate::fastpath::{FastPlan, LineDecoder};
use crate::streaming::{
    FaultFold, FaultOptions, Halt, InferStage, InferValidateStage, LineVerdict, RecordStage,
    StreamError, TranslateStage, TypedVerdicts, ValidateStage,
};
use jsonx_core::{Equivalence, JType};
use jsonx_pipeline::{
    run_source_controlled, CheckpointSink, ChunkSource, PipelineOptions, ReaderChunks, RunControl,
    RunReport, SliceChunks,
};
use jsonx_schema::{CompiledSchema, ValidatorOptions};
use jsonx_syntax::{CsvDecoder, JsonDecoder, ParseLimits};
use jsonx_translate::{ColumnarBatch, Shredder};
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::path::Path;

/// How record text becomes documents: which
/// [`RecordDecoder`](jsonx_syntax::RecordDecoder) the run's stages decode
/// with.
#[derive(Debug, Clone, Default)]
pub enum Format {
    /// One JSON document per line.
    #[default]
    Ndjson,
    /// One CSV row per line, decoded by a [`CsvDecoder`] built from the
    /// header row — which the caller peels off: a slice or reader source
    /// starts at the first data row (record 0). The run applies its own
    /// [`FaultOptions::limits`] to the decoder.
    Csv(CsvDecoder),
}

/// Where a run reads its records from.
///
/// The type parameter defaults to [`std::io::Empty`] so callers that
/// never stream can write `Source::slice(text)` / `Source::file(path)`
/// without naming a reader type.
pub enum Source<'a, R = std::io::Empty> {
    /// An in-memory corpus, dispatched as zero-copy chunks.
    Slice(&'a str),
    /// Any buffered reader (socket, pipe, decompressor), streamed
    /// out-of-core through a bounded ring of chunk buffers: peak
    /// residency is about `workers × chunk_bytes` whatever the corpus
    /// size. Cannot be re-read, so [`Run::translate_inferred`] refuses it.
    Reader(R),
    /// A regular file, streamed like a reader. The only source a
    /// checkpoint journal accepts (a resume seeks it by byte offset).
    /// Under [`Format::Csv`] its first line is the header the decoder was
    /// built from and is skipped.
    File(&'a Path),
}

impl<'a> Source<'a> {
    /// An in-memory source with the reader type pinned.
    pub fn slice(text: &'a str) -> Self {
        Source::Slice(text)
    }

    /// A file source with the reader type pinned.
    pub fn file(path: &'a Path) -> Self {
        Source::File(path)
    }
}

/// One streaming run's configuration. `Run::default()` is the CLI's
/// defaults: one worker per CPU, automatic chunking, fail-fast, default
/// limits, fast-parse on, NDJSON, no journal.
#[derive(Clone)]
pub struct Run<'a> {
    /// Worker threads (0 = one per CPU). Results never depend on it.
    pub workers: usize,
    /// Target chunk size in bytes (0 = automatic: sized from an in-memory
    /// input, 1 MiB for readers and files). An explicit value
    /// chunk-dispatches even a tiny in-memory input. Results never depend
    /// on it, but a journal's chunk sequence does — a resume must repeat
    /// the value.
    pub chunk_bytes: usize,
    /// Collect per-worker dispatch timing into [`RunReport::timings`].
    pub timing: bool,
    /// Error policy, reject retention and per-record limits.
    pub fault: FaultOptions,
    /// Speculate per record and verify, instead of decoding every record
    /// to a document: the SWAR structural scanner with projection
    /// pushdown (NDJSON only: validation under a schema that lets it skip
    /// fields, translation under a caller-supplied layout), and
    /// validation from a record's events where there is nothing to skip.
    /// Every record a fast route cannot vouch for falls back, so results
    /// never depend on it; `false` is the reference route.
    pub fast_parse: bool,
    /// The record decoder.
    pub format: Format,
    /// Journal every committed chunk durably so an interrupted run can
    /// resume. Needs [`Source::File`] with [`Format::Ndjson`], and a
    /// stage with a journal codec: [`infer`](Self::infer),
    /// [`validate`](Self::validate) or
    /// [`translate_inferred`](Self::translate_inferred).
    pub journal: Option<JournalControl<'a>>,
}

impl Default for Run<'_> {
    fn default() -> Self {
        Run {
            workers: 0,
            chunk_bytes: 0,
            timing: false,
            fault: FaultOptions::default(),
            fast_parse: true,
            format: Format::Ndjson,
            journal: None,
        }
    }
}

fn input_err(e: impl std::fmt::Display) -> StreamError {
    StreamError::Input(e.to_string())
}

impl Run<'_> {
    /// Infers the collection type without building DOMs.
    ///
    /// Equal to parsing every record and running
    /// [`infer_collection`](jsonx_core::infer_collection) —
    /// property-tested in `tests/streaming_inference.rs` — at every
    /// worker count, because fusion is commutative and associative with
    /// `Bottom` as unit. Under a tolerant policy the type covers exactly
    /// the accepted records.
    pub fn infer<R: BufRead + Send>(
        &self,
        source: Source<'_, R>,
        equiv: Equivalence,
    ) -> Result<(JType, RunReport), StreamError> {
        let mut session = self.open_journal(&source, "infer", || {
            format!("equiv={equiv:?} fault={:?}", self.fault)
        })?;
        let journal = session.as_mut().map(|s| s.phase(1, infer_codec()));
        self.execute(source, &self.infer_stage(equiv), journal)
    }

    /// Validates every record against `schema`, yielding per-record
    /// verdicts (original record indices, input order) for the records
    /// that decoded.
    pub fn validate<R: BufRead + Send>(
        &self,
        source: Source<'_, R>,
        schema: &CompiledSchema,
        options: ValidatorOptions,
    ) -> Result<(Vec<(usize, LineVerdict)>, RunReport), StreamError> {
        let mut session = self.open_journal(&source, "validate", || {
            // `fast_parse` is deliberately absent: the fast path is
            // verdict-identical, so a resume may toggle it freely.
            let tag = self.journal.as_ref().map_or(0, |j| j.schema_tag);
            format!(
                "schema={tag:08x} options={options:?} fault={:?}",
                self.fault
            )
        })?;
        let journal = session.as_mut().map(|s| s.phase(1, validate_codec()));
        let stage = self.validate_stage(schema, options, |limits| {
            FastPlan::for_validation(schema, limits)
        });
        self.execute(source, &stage, journal)
    }

    /// Infers **and** validates in one pass: one decode per accepted
    /// record feeds both the type fusion and the compiled validator.
    pub fn infer_validate<R: BufRead + Send>(
        &self,
        source: Source<'_, R>,
        equiv: Equivalence,
        schema: &CompiledSchema,
        options: ValidatorOptions,
    ) -> Result<(TypedVerdicts, RunReport), StreamError> {
        self.refuse_journal("the combined infer+validate pass (journal one pass at a time)")?;
        let stage = InferValidateStage {
            equiv,
            // The type fold reads every field: nothing to project away.
            validate: self.validate_stage(schema, options, |_| None),
        };
        self.execute(source, &stage, None)
    }

    /// The name of the fast route [`validate`](Self::validate) takes for
    /// `schema` under this plan — what `--report-timing` calls the records
    /// [`RunReport::routes`] counts as `fast`.
    pub fn validation_route(&self, schema: &CompiledSchema) -> &'static str {
        let plan = |limits: &ParseLimits| FastPlan::for_validation(schema, limits);
        if self.decoder(plan).has_plan() {
            "projected"
        } else {
            "validated from events"
        }
    }

    /// A validating stage over `schema`: the decoder with whatever `plan`
    /// the caller can offer the scanner, and whether records are validated
    /// from their events. Not under a plan — the scanner skips what a walk
    /// would read; not with [`fast_parse`](Self::fast_parse) off — that is
    /// the trusted route, nothing speculates on it; and not for a schema
    /// outside the streamable fragment.
    fn validate_stage<'s>(
        &self,
        schema: &'s CompiledSchema,
        options: ValidatorOptions,
        plan: impl FnOnce(&ParseLimits) -> Option<FastPlan>,
    ) -> ValidateStage<'s> {
        let decoder = self.decoder(plan);
        let events = if !self.fast_parse || decoder.has_plan() {
            Err("no-plan")
        } else {
            schema.streamable()
        };
        ValidateStage {
            schema,
            options,
            decoder,
            events,
        }
    }

    /// Shreds every record into one columnar batch under `shredder`'s
    /// fixed layout ([`Shredder::from_type`]) — §5's schema-driven
    /// translation. Row-identical to the DOM
    /// [`Shredder::shred`](jsonx_translate::Shredder::shred) at every
    /// worker count.
    ///
    /// The layout may be narrower than the records, so with
    /// [`fast_parse`](Self::fast_parse) the structural scanner projects
    /// each record to the layout's root fields before it is shredded.
    pub fn translate<R: BufRead + Send>(
        &self,
        source: Source<'_, R>,
        shredder: &Shredder,
    ) -> Result<(ColumnarBatch, RunReport), StreamError> {
        self.refuse_journal("translation under a caller-supplied layout (use translate_inferred)")?;
        let stage = TranslateStage {
            shredder,
            decoder: self.decoder(|limits| FastPlan::for_translation(shredder, limits)),
        };
        self.execute(source, &stage, None)
    }

    /// The two passes of a translation from scratch: infer the collection
    /// type, then shred under the layout it fixes. The report covers the
    /// shredding pass. Both passes run under the same policy, so a record
    /// the typer rejected is rejected again (and quarantined) by the
    /// shredder.
    ///
    /// A journal holds both passes, phase-tagged, with a `type` marker
    /// sealing the first — so an interrupted run resumes in whichever
    /// pass it died in, and the layout is reconstructed from the journal
    /// rather than re-inferred.
    pub fn translate_inferred<R: BufRead + Send>(
        &self,
        source: Source<'_, R>,
        equiv: Equivalence,
    ) -> Result<(JType, ColumnarBatch, RunReport), StreamError> {
        let (first, second): (Source<'_, R>, Source<'_, R>) = match source {
            Source::Slice(text) => (Source::Slice(text), Source::Slice(text)),
            Source::File(path) => (Source::File(path), Source::File(path)),
            Source::Reader(_) => {
                return Err(StreamError::Input(
                    "translate needs two passes over the corpus; a reader cannot be re-read — \
                     pass a slice or a file"
                        .into(),
                ))
            }
        };
        let mut session = self.open_journal(&first, "translate", || {
            format!("equiv={equiv:?} fault={:?}", self.fault)
        })?;
        let sealed = match &session {
            Some(s) => s.sealed_type()?,
            None => None,
        };
        let ty = match sealed {
            Some(ty) => ty,
            None => {
                let journal = session.as_mut().map(|s| s.phase(1, infer_codec()));
                let (ty, _report) = self.execute(first, &self.infer_stage(equiv), journal)?;
                if let Some(s) = &mut session {
                    s.seal_type(&ty)?;
                }
                ty
            }
        };
        let shredder = Shredder::from_type(&ty);
        let journal = session.as_mut().map(|s| s.phase(2, translate_codec()));
        let stage = TranslateStage {
            shredder: &shredder,
            // The layout was inferred from this very corpus: no accepted
            // record has a root field outside it, so a projecting scan
            // could skip nothing. No plan; records shred straight from
            // events.
            decoder: self.decoder(|_| None),
        };
        let (batch, report) = self.execute(second, &stage, journal)?;
        Ok((ty, batch, report))
    }

    fn infer_stage(&self, equiv: Equivalence) -> InferStage {
        InferStage {
            equiv,
            decoder: self.decoder(|_| None),
        }
    }

    /// The run's one decoder value: the format, the limits, and — for
    /// NDJSON with [`fast_parse`](Self::fast_parse) on — whatever
    /// projection `plan` the stage can offer the structural scanner.
    fn decoder(&self, plan: impl FnOnce(&ParseLimits) -> Option<FastPlan>) -> LineDecoder {
        let limits = self.fault.limits;
        match &self.format {
            Format::Ndjson => LineDecoder::Json {
                full: JsonDecoder::new().with_limits(limits),
                plan: self.fast_parse.then(|| plan(&limits)).flatten(),
            },
            Format::Csv(decoder) => LineDecoder::Csv(decoder.clone().with_limits(limits)),
        }
    }

    fn pipeline_options(&self) -> PipelineOptions {
        PipelineOptions {
            workers: self.workers,
            chunk_bytes: self.chunk_bytes,
        }
    }

    fn refuse_journal(&self, what: &str) -> Result<(), StreamError> {
        match self.journal {
            None => Ok(()),
            Some(_) => Err(StreamError::Input(format!(
                "a checkpoint journal does not support {what}"
            ))),
        }
    }

    /// Opens the plan's journal, if it has one, for a run of `stage`.
    /// `config` renders whatever else the committed chunks depend on
    /// into the header fingerprint (see [`Session::open`]).
    fn open_journal<'s, R>(
        &'s self,
        source: &Source<'_, R>,
        stage: &str,
        config: impl FnOnce() -> String,
    ) -> Result<Option<Session<'s>>, StreamError> {
        let Some(ctrl) = &self.journal else {
            return Ok(None);
        };
        let (Source::File(input), Format::Ndjson) = (source, &self.format) else {
            return Err(StreamError::Input(
                "a checkpoint journal needs an NDJSON file source (a resume seeks the input by \
                 byte offset)"
                    .into(),
            ));
        };
        let chunk_bytes = self.pipeline_options().reader_chunk_bytes();
        Session::open(ctrl, input, stage, chunk_bytes, &config()).map(Some)
    }

    /// The single execution path: runs `stage` under the fault layer on
    /// the chunked engine and folds the outcome into the
    /// `(result, report)` / [`StreamError`] contract every stage shares.
    ///
    /// A journal is a committed-prefix replay before the run and a
    /// commit sink during it, nothing more: the prefix's chunk outputs
    /// fuse with the fresh tail's through the stage's own merge, so a
    /// resumed run is indistinguishable from an uninterrupted one.
    /// Interruption surfaces as [`StreamError::Interrupted`] *after*
    /// data-level failures, which a resume would deterministically
    /// re-hit.
    pub(crate) fn execute<R, S>(
        &self,
        source: Source<'_, R>,
        stage: &S,
        mut journal: Option<Phase<'_, '_, S::Out>>,
    ) -> Result<(S::Out, RunReport), StreamError>
    where
        R: BufRead + Send,
        S: RecordStage,
        S::Out: 'static,
    {
        let fold = FaultFold::new(stage, self.fault, self.timing);
        let cap = fold.retention_cap();
        let prefix = match &journal {
            Some(phase) => phase.replay(|a, b| stage.merge(a, b), cap)?,
            None => Prefix::empty(),
        };
        let opts = self.pipeline_options();
        let mut workers = opts.effective_workers();
        let chunk_bytes = opts.reader_chunk_bytes();
        // On the stack: boxed, a reader's per-line cursor lands beside the
        // decoder every worker reads per record (DESIGN.md §9).
        let (slice, reader, file);
        let chunks: &dyn ChunkSource = match source {
            Source::Slice(text) => {
                slice = SliceChunks::new(text, opts.slice_chunk_bytes(text.len()));
                // A worker with no chunk to claim is a thread for nothing.
                workers = workers.min(slice.len()).max(1);
                &slice
            }
            Source::Reader(input) => {
                reader = ReaderChunks::new(input, chunk_bytes, workers);
                &reader
            }
            Source::File(path) => {
                let input = File::open(path)
                    .map_err(|e| StreamError::Input(format!("reading {}: {e}", path.display())))?;
                let mut input = BufReader::new(input);
                if matches!(self.format, Format::Csv(_)) {
                    input.read_line(&mut String::new()).map_err(input_err)?;
                }
                // Chunk boundaries depend only on bytes and the chunk
                // target, so seeking to the committed byte total lands
                // exactly on the first uncommitted chunk's first byte.
                if prefix.bytes > 0 {
                    input
                        .seek(SeekFrom::Start(prefix.bytes))
                        .map_err(input_err)?;
                }
                file = ReaderChunks::with_offset(
                    input,
                    chunk_bytes,
                    workers,
                    prefix.chunks,
                    prefix.lines,
                );
                &file
            }
        };
        let sink = journal.as_mut().map(|phase| phase.sink(prefix.chunks));
        let control = RunControl {
            sink: sink.as_ref().map(|s| s as &dyn CheckpointSink<_>),
            stop: journal.as_ref().and_then(|phase| phase.stop()),
        };
        let outcome = run_source_controlled(chunks, &fold, workers, self.timing, control)
            .map_err(input_err)?;
        if let (Some(phase), Some(sink)) = (journal, sink) {
            phase.close(sink)?;
        }
        let tail = outcome.out;
        let mut errors = prefix.errors;
        errors.merge(tail.errors, cap);
        let out = match prefix.out {
            Some(committed) => stage.merge(committed, tail.out),
            None => tail.out,
        };
        let mut report = RunReport {
            records: prefix.records + tail.records,
            shards: prefix.chunks + outcome.shards,
            errors,
            poisoned: outcome.poisoned,
            timings: outcome.timings,
            // Work, not results: this process's tail, tallied when timed.
            routes: tail.routes,
        };
        let policy = self.fault.policy;
        if !policy.tolerates() && !report.poisoned.is_empty() {
            return Err(StreamError::ShardPanicked(report.poisoned.remove(0)));
        }
        match tail.halt {
            Some(Halt::Fault { record, issue }) => {
                return Err(StreamError::Record { record, issue })
            }
            Some(Halt::TooMany) => {
                return Err(StreamError::TooManyErrors {
                    limit: policy.max_errors().unwrap_or(0),
                    seen: report.errors.total,
                })
            }
            None => {}
        }
        // The authoritative bound check is on the *merged* total: each
        // chunk may be under the limit while the run is over it.
        if let Some(limit) = policy.max_errors() {
            if report.errors.total > limit {
                return Err(StreamError::TooManyErrors {
                    limit,
                    seen: report.errors.total,
                });
            }
        }
        if outcome.interrupted {
            return Err(StreamError::Interrupted);
        }
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::RecordIssue;
    use jsonx_pipeline::{ErrorPolicy, Route};

    /// A stage that panics on a trigger line — the facade-level face of
    /// the engine's panic isolation.
    struct PanicStage;

    impl RecordStage for PanicStage {
        type State = usize;
        type Out = usize;

        fn init(&self) -> usize {
            0
        }

        fn record(
            &self,
            seen: &mut usize,
            line: &str,
            _record: usize,
        ) -> Result<Route, RecordIssue> {
            assert!(!line.contains("boom"), "injected stage panic");
            *seen += 1;
            Ok(Route::Fast)
        }

        fn take(&self, seen: &mut usize) -> usize {
            std::mem::take(seen)
        }

        fn merge(&self, a: usize, b: usize) -> usize {
            a + b
        }
    }

    fn boom_corpus() -> String {
        let mut lines: Vec<String> = (0..80).map(|i| format!("{{\"i\": {i}}}")).collect();
        lines[60] = "{\"i\": \"boom\"}".into();
        lines.join("\n") + "\n"
    }

    #[test]
    fn panicked_shard_fails_cleanly_under_failfast() {
        let run = Run {
            workers: 4,
            chunk_bytes: 32,
            ..Run::default()
        };
        let err = run
            .execute(Source::slice(&boom_corpus()), &PanicStage, None)
            .unwrap_err();
        match err {
            StreamError::ShardPanicked(p) => {
                assert!(p.message.contains("injected stage panic"));
            }
            other => panic!("expected shard panic, got {other:?}"),
        }
    }

    #[test]
    fn panicked_shard_degrades_gracefully_under_skip() {
        let run = Run {
            workers: 4,
            chunk_bytes: 32,
            fault: FaultOptions {
                policy: ErrorPolicy::Skip { max_errors: None },
                ..FaultOptions::default()
            },
            ..Run::default()
        };
        let (seen, report) = run
            .execute(Source::slice(&boom_corpus()), &PanicStage, None)
            .unwrap();
        assert_eq!(report.poisoned.len(), 1, "one shard poisoned");
        assert!(report.poisoned[0].message.contains("injected stage panic"));
        assert!(report.shards > 1);
        // The surviving shards' records merged.
        assert!(seen > 0 && seen < 80, "got {seen}");
    }

    #[test]
    fn journal_needs_an_ndjson_file_source_and_a_journalable_stage() {
        let journal = std::env::temp_dir().join("jsonx-run-never-created.journal");
        let run = Run {
            journal: Some(JournalControl::new(&journal)),
            ..Run::default()
        };
        let refused = |r: Result<(), StreamError>| match r {
            Err(StreamError::Input(msg)) => assert!(msg.contains("checkpoint journal"), "{msg}"),
            other => panic!("expected an input error, got {other:?}"),
        };
        refused(
            run.infer(Source::slice("{}\n"), Equivalence::Kind)
                .map(|_| ()),
        );
        refused(
            run.infer(
                Source::Reader(std::io::Cursor::new("{}\n")),
                Equivalence::Kind,
            )
            .map(|_| ()),
        );
        let shredder = Shredder::from_type(&JType::Bottom);
        refused(
            run.translate(Source::file(Path::new("unread")), &shredder)
                .map(|_| ()),
        );
        let csv = Run {
            format: Format::Csv(CsvDecoder::from_header("a,b").unwrap()),
            ..run.clone()
        };
        refused(
            csv.infer(Source::file(Path::new("unread")), Equivalence::Kind)
                .map(|_| ()),
        );
        assert!(
            !journal.exists(),
            "a refused run must not touch the journal"
        );
    }

    #[test]
    fn translate_inferred_refuses_a_source_it_cannot_reread() {
        let err = Run::default()
            .translate_inferred(
                Source::Reader(std::io::Cursor::new("{}\n")),
                Equivalence::Kind,
            )
            .unwrap_err();
        assert!(matches!(err, StreamError::Input(msg) if msg.contains("two passes")));
    }

    #[test]
    fn csv_file_source_skips_the_header_the_decoder_was_built_from() {
        let path = std::env::temp_dir().join(format!("jsonx-run-csv-{}.csv", std::process::id()));
        std::fs::write(&path, "id,name\n1,ada\n2,bob\n").unwrap();
        let run = Run {
            workers: 2,
            format: Format::Csv(CsvDecoder::from_header("id,name").unwrap()),
            ..Run::default()
        };
        let from_file = run.translate_inferred(Source::file(&path), Equivalence::Kind);
        let _ = std::fs::remove_file(&path);
        let from_slice = run.translate_inferred(Source::slice("1,ada\n2,bob\n"), Equivalence::Kind);
        let (ty, batch, report) = from_file.unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(batch.rows, 2);
        assert_eq!((ty, batch, report.records), {
            let (ty, batch, report) = from_slice.unwrap();
            (ty, batch, report.records)
        });
    }
}
