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
//! [`RunReport`] (up to its dispatch-dependent `shards` / `timings` /
//! `routes` / `layout` fields) — pinned as one matrix in
//! `tests/run_plan.rs`.

use crate::checkpoint::{
    infer_codec, translate_codec, validate_codec, JournalControl, Phase, Prefix, Session, Stage,
};
use crate::documents::{DocumentFold, DocumentStage};
use crate::streaming::{
    FaultFold, FaultOptions, Halt, InferStage, InferValidateStage, LineDecoder, LineVerdict,
    RecordStage, Shredded, StreamError, TranslateStage, TypedVerdicts, ValidateStage,
};
use jsonx_core::{fuse, Equivalence, JType};
use jsonx_pipeline::{
    run_source_controlled, CheckpointSink, ChunkJournal, ChunkMeta, ChunkSource, ChunkSpan,
    FirstChunks, LayoutAccount, ListedFile, ListedSlice, PipelineOptions, ReaderChunks, RunControl,
    RunReport, SliceChunks,
};
use jsonx_schema::{CompiledSchema, ValidatorOptions};
use jsonx_syntax::{CsvDecoder, JsonDecoder};
use jsonx_translate::{lifts, ColumnarBatch, Shredder};
use std::fs::File;
use std::io::{BufRead, BufReader, Seek, SeekFrom};
use std::path::Path;
use std::sync::Mutex;

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
    /// size. Cannot be read again, so [`Run::translate`], which may have
    /// to, refuses it.
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
    /// to a document: [`validate`](Self::validate) walks the schema over
    /// a record's events, and [`translate`](Self::translate) shreds under
    /// a layout taught by the first chunk and verified per record. Every
    /// record the walk cannot vouch for is replayed through the parser,
    /// so results never depend on it; `false` is the reference route, on
    /// which nothing speculates.
    pub fast_parse: bool,
    /// The record decoder.
    pub format: Format,
    /// Journal every committed chunk durably so an interrupted run can
    /// resume. Needs [`Source::File`] with [`Format::Ndjson`], and a
    /// stage with a journal codec: [`infer`](Self::infer),
    /// [`validate`](Self::validate) or [`translate`](Self::translate) —
    /// which also writes its chunks' rows to a sidecar beside the journal
    /// (`FILE.rows`).
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

/// Which of its source's chunks a pass reads.
#[derive(Clone, Copy)]
pub(crate) enum Select<'a> {
    All,
    /// The first one.
    First,
    /// These, as an earlier pass over all of them recorded them.
    Listed(&'a [ChunkSpan]),
}

/// Notes every chunk a pass folds — replayed from its journal or folded
/// fresh — so its outputs can be told apart and a later pass can read
/// some of the chunks again.
#[derive(Default)]
struct ChunkLog(Mutex<Vec<ChunkMeta>>);

impl ChunkLog {
    fn note(&self, meta: &ChunkMeta) {
        self.0.lock().expect("pushing cannot panic").push(*meta);
    }

    /// The chunks noted, in sequence order.
    fn metas(self) -> Vec<ChunkMeta> {
        let mut metas = self.0.into_inner().expect("pushing cannot panic");
        metas.sort_unstable_by_key(|meta| meta.seq);
        metas
    }
}

/// Where each of a pass's chunks sits in the input. Only for a pass that
/// folded every chunk (none poisoned): offsets are running byte totals.
fn spans(metas: &[ChunkMeta]) -> Vec<ChunkSpan> {
    let mut offset = 0;
    metas
        .iter()
        .map(|meta| {
            let span = ChunkSpan {
                seq: meta.seq,
                first_line: meta.first_line,
                offset,
                bytes: meta.bytes,
            };
            offset += meta.bytes as u64;
            span
        })
        .collect()
}

/// Who hears of each chunk a pass folds: its journal, to commit it, and
/// its log.
struct Sinks<'a, T> {
    journal: Option<&'a ChunkJournal<T>>,
    log: Option<&'a ChunkLog>,
}

impl<T: Send> CheckpointSink<T> for Sinks<'_, T> {
    fn chunk_done(&self, meta: &ChunkMeta, out: &T) {
        if let Some(log) = self.log {
            log.note(meta);
        }
        if let Some(journal) = self.journal {
            journal.chunk_done(meta, out);
        }
    }
}

/// A source a run can read more than once.
#[derive(Clone, Copy)]
enum Again<'a> {
    Slice(&'a str),
    File(&'a Path),
}

impl<'a> Again<'a> {
    fn source<R>(self) -> Source<'a, R> {
        match self {
            Again::Slice(text) => Source::Slice(text),
            Again::File(path) => Source::File(path),
        }
    }
}

/// One account of two passes over disjoint chunks of one input: `later`'s
/// are chunks `kept` had voided, so rejects interleave by record, the
/// earliest `cap` retained as one pass would have, and each worker's two
/// stints add up.
fn absorb(kept: &mut RunReport, later: RunReport, cap: usize) {
    kept.records += later.records;
    kept.errors.merge(later.errors, usize::MAX);
    kept.errors.rejects.sort_by_key(|diag| diag.record);
    let excess = kept.errors.rejects.len().saturating_sub(cap);
    kept.errors.rejects.truncate(cap);
    kept.errors.dropped += excess;
    kept.poisoned.extend(later.poisoned);
    kept.routes.merge(later.routes);
    for stint in later.timings {
        match kept.timings.iter_mut().find(|t| t.worker == stint.worker) {
            Some(t) => {
                t.chunks += stint.chunks;
                t.records += stint.records;
                t.bytes += stint.bytes;
                t.busy += stint.busy;
                t.read += stint.read;
                t.steals += stint.steals;
            }
            None => kept.timings.push(stint),
        }
    }
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
        let mut session = self.open_journal(&source, Stage::Infer, || {
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
        let mut session = self.open_journal(&source, Stage::Validate, || {
            // `fast_parse` is deliberately absent: the fast path is
            // verdict-identical, so a resume may toggle it freely.
            let tag = self.journal.as_ref().map_or(0, |j| j.schema_tag);
            format!(
                "schema={tag:08x} options={options:?} fault={:?}",
                self.fault
            )
        })?;
        let journal = session.as_mut().map(|s| s.phase(1, validate_codec()));
        self.execute(source, &self.validate_stage(schema, options), journal)
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
            validate: self.validate_stage(schema, options),
        };
        self.execute(source, &stage, None)
    }

    /// Folds every accepted record's document with `fold` (see
    /// [`documents`](crate::documents)): the one way in for the tools
    /// that read whole documents. Each record is decoded to a [`Value`]
    /// by the run's decoder, under the run's limits and fault layer, and
    /// the chunks' results merge in input order.
    ///
    /// [`Value`]: jsonx_data::Value
    pub fn documents<R: BufRead + Send, F: DocumentFold>(
        &self,
        source: Source<'_, R>,
        fold: &F,
    ) -> Result<(F::Out, RunReport), StreamError>
    where
        F::Out: 'static,
    {
        self.refuse_journal("a document fold (journal infer, validate or translate)")?;
        let stage = DocumentStage {
            fold,
            decoder: self.decoder(),
        };
        self.execute(source, &stage, None)
    }

    /// A validating stage over `schema`, and whether records are
    /// validated from their events: not with
    /// [`fast_parse`](Self::fast_parse) off — that is the trusted route,
    /// nothing speculates on it — and not for a schema outside the
    /// streamable fragment.
    fn validate_stage<'s>(
        &self,
        schema: &'s CompiledSchema,
        options: ValidatorOptions,
    ) -> ValidateStage<'s> {
        ValidateStage {
            schema,
            options,
            decoder: self.decoder(),
            events: match self.fast_parse {
                true => schema.streamable(),
                false => Err("no-plan"),
            },
        }
    }

    /// §5's schema-driven translation, under the corpus's own type:
    /// infer a type, shred under the layout it fixes
    /// ([`Shredder::from_type`]). The rows are the ones the layout of the
    /// *whole corpus's* type gives — row-identical to the DOM
    /// [`Shredder::shred`] of every accepted record — at every worker
    /// count and chunking, and the report counts each chunk's records,
    /// rejects and routes once, from the shredding that produced its
    /// rows. Each record is shredded straight from its events; one the
    /// walk cannot vouch for (a repeated key, a literal dotted key that
    /// collides with the nested path it spells) is replayed through its
    /// document.
    ///
    /// They come back as the chunks' batches in input order, never
    /// concatenated: at least one, so an empty corpus keeps its layout.
    /// [`write_jxc_parts`](jsonx_translate::write_jxc_parts) writes them
    /// as the one `.jxc` file their concatenation
    /// ([`ColumnarBatch::append`]) would be.
    ///
    /// The layout is **taught** by the first chunk alone, and every chunk
    /// is then shredded under it by walkers that also verify that each
    /// record *fits* the taught type
    /// ([`push_fitting`](jsonx_translate::ShredStream::push_fitting)): a
    /// record that fits would not have changed the layout, so a corpus
    /// whose records all fit is read once (and its first chunk twice). A
    /// chunk with a record that does not fit yields no rows: it is voided,
    /// and types its lines from that record on instead. After the pass
    /// the taught type is fused with what the voided chunks taught — by
    /// induction over the records that fit, that is a type with the whole
    /// corpus's layout — and when it only *adds* columns
    /// ([`lifts`](jsonx_translate::lifts)) the voided chunks alone are
    /// read again and shredded under it, the other chunks' batches
    /// null-filled into it; when it changes a column's slot, every chunk
    /// is shredded again: the worst case is the cost of typing and
    /// shredding everything, plus the first pass.
    ///
    /// The *whole corpus* teaches, and nothing is verified or voided —
    /// the same passes, from a different first teach set — when nothing
    /// may speculate ([`fast_parse`](Self::fast_parse) off).
    ///
    /// The type is always the [`Equivalence::Kind`] one: a shredder's
    /// layout reads kinds, and fitting is an argument about `Kind`.
    ///
    /// With a journal each pass is a phase of it — teach (1), shred and
    /// verify (2), shred again what the widened layout needs (3) — opened
    /// by a `type` marker holding the type its rows are laid out under,
    /// so an interrupted run resumes in whichever pass it died in and
    /// nothing is taught again: what the voided chunks taught, where they
    /// are, and the rows already shredded (read back from the rows
    /// sidecar) all come from the journal.
    ///
    /// Either teach set skips a record whose root is no object: the
    /// shredder rejects it, under the run's policy, when it shreds its
    /// chunk for good. So a malformed line anywhere still fails a
    /// fail-fast run before a non-record does.
    pub fn translate<R: BufRead + Send>(
        &self,
        source: Source<'_, R>,
    ) -> Result<(Vec<ColumnarBatch>, RunReport), StreamError> {
        let mut session = self.open_journal(&source, Stage::Translate, || {
            // The route fixes which passes, so which phases, a journal
            // holds. `equiv=Kind` stays in the text so that journals
            // written when translation took an equivalence still resume.
            let route = if self.fast_parse {
                "speculative"
            } else {
                "reference"
            };
            format!("equiv=Kind fault={:?} route={route}", self.fault)
        })?;
        let again = match source {
            Source::Slice(text) => Again::Slice(text),
            Source::File(path) => Again::File(path),
            Source::Reader(_) => {
                return Err(StreamError::Input(
                    "translate reads a chunk again when a record widens the layout the first \
                     chunk taught; a reader cannot be read again — pass a slice or a file"
                        .into(),
                ))
            }
        };
        let sealed = match &session {
            Some(s) => s.sealed_types()?,
            None => Vec::new(),
        };
        let mut ty = match sealed.first() {
            Some(ty) => ty.clone(),
            None => {
                let journal = session.as_mut().map(|s| s.phase(1, infer_codec()));
                let stage = InferStage {
                    records_only: true,
                    ..self.infer_stage(Equivalence::Kind)
                };
                let teachers = if self.fast_parse {
                    Select::First
                } else {
                    Select::All
                };
                let (ty, _) =
                    self.execute_on(again.source::<R>(), teachers, &stage, journal, None)?;
                if let Some(s) = &mut session {
                    s.seal_type(&ty)?;
                }
                ty
            }
        };
        // The teach set's type counts every record it typed.
        let mut account = LayoutAccount {
            taught: ty.count() as usize,
            ..LayoutAccount::default()
        };
        let cap = self.fault.sample_cap();
        let mut shredder = Shredder::from_type(&ty);
        // Each chunk's rows under `shredder`'s layout, by sequence number.
        let mut rows: Vec<(usize, ColumnarBatch)> = Vec::new();
        let mut report: Option<RunReport> = None;
        // The chunks still to shred; `None`: all of them.
        let mut todo: Option<Vec<ChunkSpan>> = None;
        // Phase 2 shreds every chunk under the taught layout, verifying
        // when it speculates; phase 3, if a chunk was voided, what the
        // widened layout needs shredded again.
        for phase in 2.. {
            let widened = phase > 2;
            let stage = TranslateStage {
                shredder: &shredder,
                decoder: self.decoder(),
                verify: self.fast_parse && !widened,
            };
            // A pass is journaled once the type it lays rows out under is.
            let journal = session
                .as_mut()
                .filter(|s| s.markers() + 1 >= phase)
                .map(|s| s.phase(phase, translate_codec()));
            let log = ChunkLog::default();
            let select = todo.as_deref().map_or(Select::All, Select::Listed);
            let (chunks, pass) =
                self.execute_on(again.source::<R>(), select, &stage, journal, Some(&log))?;
            // One output per chunk folded, in order — and past them, when
            // nothing was left to fold, the empty output of none.
            let folded = log.metas();
            let mut taught = JType::Bottom;
            let mut voided = Vec::new();
            for (meta, chunk) in folded.iter().zip(chunks) {
                match chunk {
                    Shredded::Rows(batch) => {
                        account.again += usize::from(widened);
                        rows.push((meta.seq, batch));
                    }
                    Shredded::Taught {
                        ty,
                        misfit,
                        records,
                    } => {
                        taught = fuse(taught, ty, Equivalence::Kind);
                        voided.push(meta.seq);
                        account.taught += records;
                        account.misfit = Some(account.misfit.map_or(misfit, |m| m.min(misfit)));
                    }
                }
            }
            if voided.is_empty() {
                match &mut report {
                    Some(kept) => absorb(kept, pass, cap),
                    None => report = Some(pass),
                }
                break;
            }
            // Every record shredded so far fits `ty`, so fits `wider`:
            // `wider` has the layout of the whole corpus's type, and what
            // is shredded under it needs no verifying.
            let wider = fuse(ty.clone(), taught, Equivalence::Kind);
            match (sealed.get(1), &mut session) {
                (Some(marker), _) if *marker != wider => {
                    return Err(StreamError::Input(
                        "checkpoint journal: its widened type is not what its voided chunks \
                         taught; pass a fresh --checkpoint path or drop --resume"
                            .into(),
                    ))
                }
                // Sealed after a pass that lost no chunk only, so that a
                // resume rebuilds it from what the pass committed.
                (None, Some(s)) if pass.poisoned.is_empty() => s.seal_type(&wider)?,
                _ => {}
            }
            account.restructured = lifts(&ty, &wider).err();
            shredder = Shredder::from_type(&wider);
            ty = wider;
            // Byte offsets are running totals: a chunk lost to a panic
            // would have shifted every later one.
            if account.restructured.is_none() && pass.poisoned.is_empty() {
                rows = rows
                    .into_iter()
                    .map(|(seq, batch)| (seq, shredder.lift(batch)))
                    .collect();
                let mut spans = spans(&folded);
                spans.retain(|span| voided.contains(&span.seq));
                todo = Some(spans);
                report = Some(pass);
            } else {
                rows.clear();
            }
        }
        let mut report = report.expect("the loop ends on a pass it kept");
        account.once = rows.len() - account.again;
        report.layout = self.timing.then_some(account);
        self.check_bound(&report)?;
        rows.sort_unstable_by_key(|(seq, _)| *seq);
        let mut parts: Vec<ColumnarBatch> = rows.into_iter().map(|(_, batch)| batch).collect();
        if parts.is_empty() {
            parts.push(shredder.stream().finish());
        }
        Ok((parts, report))
    }

    fn infer_stage(&self, equiv: Equivalence) -> InferStage {
        InferStage {
            equiv,
            decoder: self.decoder(),
            records_only: false,
        }
    }

    /// The run's one decoder value: the format under the run's limits.
    fn decoder(&self) -> LineDecoder {
        let limits = self.fault.limits;
        match &self.format {
            Format::Ndjson => LineDecoder::Json(JsonDecoder::new().with_limits(limits)),
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
        stage: Stage,
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
        journal: Option<Phase<'_, '_, S::Out>>,
    ) -> Result<(S::Out, RunReport), StreamError>
    where
        R: BufRead + Send,
        S: RecordStage,
        S::Out: 'static,
    {
        self.execute_on(source, Select::All, stage, journal, None)
    }

    /// [`execute`](Self::execute) over the chunks of `source` that
    /// `select` names, noting in `log`, when there is one, every chunk
    /// folded — those a journal replays included. A journal commits the
    /// chunks the pass reads in the order it reads them, and a resume
    /// reads only those it has not committed.
    fn execute_on<R, S>(
        &self,
        source: Source<'_, R>,
        select: Select<'_>,
        stage: &S,
        mut journal: Option<Phase<'_, '_, S::Out>>,
        log: Option<&ChunkLog>,
    ) -> Result<(S::Out, RunReport), StreamError>
    where
        R: BufRead + Send,
        S: RecordStage,
        S::Out: 'static,
    {
        let fold = FaultFold::new(stage, self.fault, self.timing);
        let cap = fold.retention_cap();
        let prefix = match &journal {
            Some(phase) => phase.replay(|a, b| stage.merge(a, b), cap, select)?,
            None => Prefix::empty(),
        };
        if let Some(log) = log {
            prefix.metas.iter().for_each(|meta| log.note(meta));
        }
        let committed = prefix.metas.len();
        let select = match select {
            Select::Listed(spans) => Select::Listed(&spans[committed..]),
            select => select,
        };
        let opts = self.pipeline_options();
        let mut workers = opts.effective_workers();
        let chunk_bytes = opts.reader_chunk_bytes();
        // On the stack: boxed, a reader's per-line cursor lands beside the
        // decoder every worker reads per record (DESIGN.md §9).
        let (slice, reader, file, listed_slice, listed_file, first);
        let mut chunks: &dyn ChunkSource = match (source, select) {
            (Source::Slice(text), Select::Listed(spans)) => {
                listed_slice = ListedSlice::new(text, spans);
                &listed_slice
            }
            (Source::Slice(text), _) => {
                slice = SliceChunks::new(text, opts.slice_chunk_bytes(text.len()));
                // A worker with no chunk to claim is a thread for nothing.
                workers = workers.min(slice.len()).max(1);
                &slice
            }
            (Source::Reader(_), Select::Listed(_)) => {
                return Err(StreamError::Input("a reader cannot be read again".into()))
            }
            (Source::Reader(input), _) => {
                reader = ReaderChunks::new(input, chunk_bytes, workers);
                &reader
            }
            (Source::File(path), select) => {
                let input = File::open(path)
                    .map_err(|e| StreamError::Input(format!("reading {}: {e}", path.display())))?;
                let mut input = BufReader::new(input);
                let mut header = 0;
                if matches!(self.format, Format::Csv(_)) {
                    header = input.read_line(&mut String::new()).map_err(input_err)?;
                }
                if let Select::Listed(spans) = select {
                    listed_file = ListedFile::new(input, header as u64, spans);
                    &listed_file
                } else {
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
                        committed,
                        prefix.lines,
                    );
                    &file
                }
            }
        };
        match select {
            Select::All => {}
            Select::First => {
                // Nothing, when a resumed journal committed the first.
                first = FirstChunks::new(chunks, 1usize.saturating_sub(committed));
                chunks = &first;
                workers = 1;
            }
            Select::Listed(spans) => workers = workers.min(spans.len()).max(1),
        }
        let sink = journal.as_mut().map(|phase| match select {
            Select::Listed(spans) => {
                phase.sink(spans.iter().map(|span| span.seq).collect::<Vec<_>>())
            }
            Select::All | Select::First => phase.sink(committed..),
        });
        let sinks = Sinks {
            journal: sink.as_ref(),
            log,
        };
        let control = RunControl {
            sink: (sink.is_some() || log.is_some()).then_some(&sinks as &dyn CheckpointSink<_>),
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
            shards: committed + outcome.shards,
            errors,
            poisoned: outcome.poisoned,
            timings: outcome.timings,
            // Work, not results: this process's tail, tallied when timed.
            routes: tail.routes,
            layout: None,
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
        self.check_bound(&report)?;
        if outcome.interrupted {
            return Err(StreamError::Interrupted);
        }
        Ok((out, report))
    }

    /// The authoritative bound check is on the *merged* total: each chunk
    /// — each pass — may be under the limit while the run is over it.
    fn check_bound(&self, report: &RunReport) -> Result<(), StreamError> {
        match self.fault.policy.max_errors() {
            Some(limit) if report.errors.total > limit => Err(StreamError::TooManyErrors {
                limit,
                seen: report.errors.total,
            }),
            _ => Ok(()),
        }
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
        refused(
            run.translate(Source::Reader(std::io::Cursor::new("{}\n")))
                .map(|_| ()),
        );
        refused(
            run.documents(
                Source::file(Path::new("unread")),
                &crate::documents::CollectFold,
            )
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
    fn translate_refuses_a_source_it_cannot_reread() {
        let err = Run::default()
            .translate(Source::Reader(std::io::Cursor::new("{}\n")))
            .unwrap_err();
        assert!(matches!(err, StreamError::Input(msg) if msg.contains("cannot be read again")));
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
        let from_file = run.translate(Source::file(&path));
        let _ = std::fs::remove_file(&path);
        let from_slice = run.translate(Source::slice("1,ada\n2,bob\n"));
        let image = |parts: &[ColumnarBatch]| {
            let mut bytes = Vec::new();
            jsonx_translate::write_jxc_parts(parts, &mut bytes).unwrap();
            jsonx_translate::read_jxc(&bytes).unwrap().batch
        };
        let (parts, report) = from_file.unwrap();
        let batch = image(&parts);
        assert_eq!(report.records, 2);
        assert_eq!(batch.rows, 2);
        assert_eq!((batch, report.records), {
            let (parts, report) = from_slice.unwrap();
            (image(&parts), report.records)
        });
    }
}
