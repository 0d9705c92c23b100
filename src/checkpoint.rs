//! Crash-safe journaled runs: durable chunk-commit journals and
//! `--resume` for the out-of-core streaming stages.
//!
//! A journaled run writes one CRC-framed, fsync'd record per committed
//! chunk to a [journal](jsonx_pipeline::JournalWriter) *before* the
//! chunk's result is fused — and chunks commit strictly in the order the
//! pass reads them (see [`ChunkJournal`]). Because chunk boundaries
//! depend only on the byte stream and the chunk-size target (never on
//! worker count or scheduling), the journal is a durable, deterministic
//! prefix of the run: after a crash, a signal, or an operator stop,
//! rerunning with the same journal skips every committed chunk, seeks the
//! input to the first uncommitted byte, and merges fresh tail results
//! onto the decoded prefix. The final output is byte-identical to an
//! uninterrupted run at any worker count.
//!
//! What goes in a journal record is the chunk's **entire observable
//! effect**: the stage output (an inferred [`JType`], a verdict vector,
//! where a columnar batch is), the record count, and the full rejection
//! account (including raw quarantined lines when the run keeps them).
//! Final artifacts — stdout verdicts, the quarantine sidecar, the `.jxc`
//! file — are only written at end-of-run, exactly like an unjournaled
//! run, so the journal (and, for translation, its rows sidecar) is the
//! *only* durable state a resume needs.
//!
//! Torn tails are expected, not fatal: [`read_journal`] stops at the
//! first incomplete or CRC-failing record, and the resume path truncates
//! the file back to the intact prefix before appending
//! ([`JournalWriter::resume`]). A record damaged *before* the tail — or
//! a header that does not match the current invocation — means the
//! journal belongs to a different run (input replaced, options changed,
//! incompatible version) and the resume refuses instead of guessing.
//!
//! Translation (journal format v2) journals each pass of its one loop as
//! a phase — the teach pass, the verifying shred pass, and the re-shred
//! of what a widened layout needs again — each opened by a `type` marker
//! holding the type its rows are laid out under. A shredded chunk's batch
//! is never in the journal: its `.jxc` image goes to `FILE.rows` beside
//! it, synced before the record that names it (`"rows"`: its length,
//! `"crc"`: its footer CRC; offsets are implied by commit order).
//!
//! There is no journaled runner here: this module holds the journal's
//! *format* (header fingerprint, chunk-record codecs, the rows sidecar)
//! and hands the one executor in [`crate::run`] a [`Session`] whose
//! [`Phase`]s replay a committed [`Prefix`] before the engine call and
//! supply its commit sink during it.

use crate::run::Select;
use crate::streaming::{LineVerdict, ShardYield, Shredded, StreamError};
use jsonx_core::{parse_type, print_type, JType, PrintOptions};
use jsonx_data::{Number, Object, Value};
use jsonx_pipeline::{
    read_journal, ChunkJournal, ChunkMeta, Commit, ErrorSummary, JournalWriter, RecordDiagnostic,
};
use jsonx_syntax::parse;
use jsonx_translate::{footer_crc, read_jxc, write_jxc};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, OnceLock};

/// The stages a journal records. Each names its journal format, so a
/// stale journal refuses cleanly instead of decoding garbage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    Infer,
    Validate,
    Translate,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Infer => "infer",
            Stage::Validate => "validate",
            Stage::Translate => "translate",
        }
    }

    /// The journal format the stage writes: v1 for infer and validate,
    /// unchanged since it was frozen; v2 for translate, whose passes
    /// became phases and whose chunk images moved to a rows sidecar.
    fn version(self) -> i64 {
        match self {
            Stage::Translate => 2,
            Stage::Infer | Stage::Validate => 1,
        }
    }
}

/// The rows sidecar of the journal at `journal`: `FILE.rows`.
pub(crate) fn rows_path(journal: &Path) -> PathBuf {
    let mut path = journal.as_os_str().to_owned();
    path.push(".rows");
    PathBuf::from(path)
}

/// How a journaled [`Run`](crate::Run) finds its journal and reacts to
/// stop requests.
#[derive(Clone)]
pub struct JournalControl<'a> {
    /// Path of the journal file. A translation also writes its chunks'
    /// rows beside it, to `FILE.rows`: a resume needs both files.
    pub journal: &'a Path,
    /// `false` starts a fresh run (truncating any prior journal); `true`
    /// resumes from the journal's committed prefix.
    pub resume: bool,
    /// Graceful-stop latch: when set (signal handler, operator), workers
    /// stop claiming chunks, drain in-flight work, and the run returns
    /// [`StreamError::Interrupted`] with everything committed so far
    /// durable in the journal.
    pub stop: Option<&'a AtomicBool>,
    /// Called after each journal commit with the running commit count —
    /// the crash/stop injection hook the kill-and-resume harness uses.
    pub after_commit: Option<Arc<dyn Fn(u64) + Send + Sync>>,
    /// Caller-computed fingerprint of the schema text a validation run
    /// checks against, baked into the journal header so a resume against
    /// a different schema refuses. Other stages ignore it.
    pub schema_tag: u32,
}

impl<'a> JournalControl<'a> {
    /// A control with just a journal path: fresh run, no stop latch.
    pub fn new(journal: &'a Path) -> Self {
        JournalControl {
            journal,
            resume: false,
            stop: None,
            after_commit: None,
            schema_tag: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// JSON codec plumbing
// ---------------------------------------------------------------------------

fn s(text: impl Into<String>) -> Value {
    Value::Str(text.into())
}

fn num(n: usize) -> Value {
    Value::Num(Number::Int(n as i64))
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    let mut o = Object::new();
    for (k, v) in entries {
        o.insert(k, v);
    }
    Value::Obj(o)
}

fn get_usize(v: &Value, key: &str) -> Option<usize> {
    let n = v.get(key)?.as_i64()?;
    usize::try_from(n).ok()
}

fn get_str<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    v.get(key)?.as_str()
}

/// Re-interns a diagnostic kind label read back from a journal.
///
/// [`RecordDiagnostic::kind`] is `&'static str` in memory; labels are a
/// small closed set (one per error kind), so leaking each distinct label
/// once on resume is bounded and keeps the report types unchanged.
fn intern_kind(kind: &str) -> &'static str {
    static CACHE: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap();
    if let Some(interned) = cache.get(kind) {
        return interned;
    }
    let leaked: &'static str = Box::leak(kind.to_string().into_boxed_str());
    cache.insert(kind.to_string(), leaked);
    leaked
}

fn encode_errors(e: &ErrorSummary) -> Value {
    let kinds = e
        .by_kind
        .iter()
        .map(|(k, n)| Value::Arr(vec![s(*k), num(*n)]))
        .collect();
    let rejects = e
        .rejects
        .iter()
        .map(|d| {
            obj(vec![
                ("record", num(d.record)),
                ("offset", num(d.offset)),
                ("kind", s(d.kind)),
                ("message", s(d.message.clone())),
                ("raw", d.raw.clone().map(Value::Str).unwrap_or(Value::Null)),
            ])
        })
        .collect();
    obj(vec![
        ("total", num(e.total)),
        ("dropped", num(e.dropped)),
        ("kinds", Value::Arr(kinds)),
        ("rejects", Value::Arr(rejects)),
    ])
}

fn decode_errors(v: &Value) -> Option<ErrorSummary> {
    let mut by_kind = BTreeMap::new();
    for pair in v.get("kinds")?.as_array()? {
        let kind = pair.get_index(0)?.as_str()?;
        let n = usize::try_from(pair.get_index(1)?.as_i64()?).ok()?;
        by_kind.insert(intern_kind(kind), n);
    }
    let mut rejects = Vec::new();
    for d in v.get("rejects")?.as_array()? {
        rejects.push(RecordDiagnostic {
            record: get_usize(d, "record")?,
            offset: get_usize(d, "offset")?,
            kind: intern_kind(get_str(d, "kind")?),
            message: get_str(d, "message")?.to_string(),
            raw: match d.get("raw")? {
                Value::Null => None,
                raw => Some(raw.as_str()?.to_string()),
            },
        });
    }
    Some(ErrorSummary {
        total: get_usize(v, "total")?,
        by_kind,
        rejects,
        dropped: get_usize(v, "dropped")?,
    })
}

/// A chunk record's `out`, and the image, if any, the rows sidecar holds
/// for it.
type Encoded = (Value, Option<Vec<u8>>);

/// How one stage output round-trips through a journal record. Plain
/// function pointers so the commit closure handed to [`ChunkJournal`]
/// stays `'static` without capturing borrowed stage state.
pub(crate) struct OutCodec<T> {
    encode: fn(&T) -> Option<Encoded>,
    /// The inverse, handed the image the record names.
    decode: fn(&Value, Option<&[u8]>) -> Option<T>,
}

pub(crate) fn infer_codec() -> OutCodec<JType> {
    OutCodec {
        // The counting printer/parser round-trip is exact (pinned by
        // `counting_round_trip_exact`), so the journaled prefix fuses to
        // the same type the live run computed.
        encode: |ty| Some((s(print_type(ty, PrintOptions::with_counts())), None)),
        decode: |v, _| parse_type(v.as_str()?).ok(),
    }
}

pub(crate) fn validate_codec() -> OutCodec<Vec<(usize, LineVerdict)>> {
    OutCodec {
        encode: |verdicts| {
            let mut rows = Vec::with_capacity(verdicts.len());
            for (record, verdict) in verdicts {
                let flag = match verdict {
                    LineVerdict::Valid => 1,
                    LineVerdict::Invalid => 0,
                };
                rows.push(Value::Arr(vec![num(*record), num(flag)]));
            }
            Some((Value::Arr(rows), None))
        },
        decode: |v, _| {
            let mut verdicts = Vec::new();
            for row in v.as_array()? {
                let record = usize::try_from(row.get_index(0)?.as_i64()?).ok()?;
                let verdict = match row.get_index(1)?.as_i64()? {
                    1 => LineVerdict::Valid,
                    0 => LineVerdict::Invalid,
                    _ => return None,
                };
                verdicts.push((record, verdict));
            }
            Some(verdicts)
        },
    }
}

pub(crate) fn translate_codec() -> OutCodec<Vec<Shredded>> {
    OutCodec {
        // A chunk's rows are its checksummed `.jxc` image, written to the
        // rows sidecar as they are — no text encoding — and named in the
        // record by length and footer CRC; `read_jxc` (every block CRC, the
        // footer CRC, the finalize marker) gives back the identical batch,
        // layout included. A voided chunk journals what it taught.
        encode: |chunk| match chunk.as_slice() {
            [Shredded::Rows(batch)] => {
                let image = write_jxc(batch);
                let crc = footer_crc(&image)?;
                let out = obj(vec![
                    ("rows", num(image.len())),
                    ("crc", Value::Num(Number::Int(crc.into()))),
                ]);
                Some((out, Some(image)))
            }
            [Shredded::Taught {
                ty,
                misfit,
                records,
            }] => {
                let out = obj(vec![
                    ("taught", s(print_type(ty, PrintOptions::with_counts()))),
                    ("misfit", num(*misfit)),
                    ("records", num(*records)),
                ]);
                Some((out, None))
            }
            _ => None,
        },
        decode: |v, image| {
            let chunk = match image {
                Some(image) => Shredded::Rows(read_jxc(image).ok()?.batch),
                None => Shredded::Taught {
                    ty: parse_type(get_str(v, "taught")?).ok()?,
                    misfit: get_usize(v, "misfit")?,
                    records: get_usize(v, "records")?,
                },
            };
            Some(vec![chunk])
        },
    }
}

/// The image a chunk record names in the rows sidecar: its length and
/// footer CRC. A record whose `out` has `rows` owns the next that many
/// bytes of the sidecar.
fn named_image(record: &Value) -> Option<(u64, i64)> {
    let out = record.get("out")?;
    let len = u64::try_from(out.get("rows")?.as_i64()?).ok()?;
    Some((len, out.get("crc")?.as_i64()?))
}

// ---------------------------------------------------------------------------
// Journal session: header validation, prefix decoding
// ---------------------------------------------------------------------------

fn header_record(stage: Stage, chunk_bytes: usize, input_bytes: u64, config: &str) -> Value {
    obj(vec![
        ("kind", s("header")),
        ("v", Value::Num(Number::Int(stage.version()))),
        ("stage", s(stage.name())),
        ("chunk_bytes", num(chunk_bytes)),
        ("input_bytes", num(input_bytes as usize)),
        ("config", s(config)),
    ])
}

fn journal_err(context: &str, e: impl std::fmt::Display) -> StreamError {
    StreamError::Input(format!("checkpoint journal: {context}: {e}"))
}

fn kind_is(record: &Value, kind: &str) -> bool {
    record.get("kind").and_then(Value::as_str) == Some(kind)
}

/// Why a resume's journal is not this run's: one in another format
/// version for the stage says so, anything else shows both headers.
fn foreign_header(path: &Path, stage: Stage, header: &Value, found: &Value) -> StreamError {
    let found_stage = found.get("stage").and_then(Value::as_str);
    match found.get("v").and_then(Value::as_i64) {
        Some(v) if v != stage.version() && found_stage == Some(stage.name()) => {
            StreamError::Input(format!(
                "--resume: checkpoint journal {} was written in journal format v{v}; this jsonx \
                 writes v{} for {} — rerun without --resume",
                path.display(),
                stage.version(),
                stage.name()
            ))
        }
        _ => StreamError::Input(format!(
            "--resume: checkpoint journal {} was written by a different run \
             (expected header {header}, found {found}); \
             pass a fresh --checkpoint path or drop --resume",
            path.display()
        )),
    }
}

/// A committed record, and where the image it names sits in the rows
/// sidecar.
struct Committed {
    record: Value,
    image: Option<Range<u64>>,
}

/// Opens the journal for this run: fresh runs truncate and write the
/// header (and create or truncate the rows sidecar); resumes read the
/// intact prefix back, verify the header matches this invocation and the
/// sidecar holds every image the records name — refusing before either
/// file is written to — then cut any torn tail off both, and return the
/// committed records for replay.
fn open_session(
    ctrl: &JournalControl<'_>,
    stage: Stage,
    header: Value,
    rows: Option<&Path>,
) -> Result<(JournalWriter, Vec<Committed>), StreamError> {
    let path = ctrl.journal;
    let mut records = Vec::new();
    let mut valid_bytes = 0;
    if ctrl.resume {
        let read = read_journal(path).map_err(|e| {
            StreamError::Input(format!(
                "--resume: cannot read checkpoint journal {}: {e}",
                path.display()
            ))
        })?;
        for (idx, line) in read.records.iter().enumerate() {
            let value = parse(line).map_err(|e| {
                journal_err(
                    &format!("record {idx} is framed correctly but is not JSON"),
                    e,
                )
            })?;
            records.push(value);
        }
        valid_bytes = read.valid_bytes;
    }
    match records.first() {
        // A fresh run — or a journal that died before its header
        // committed, which holds no progress.
        None => {
            let mut writer = JournalWriter::create(path)
                .map_err(|e| journal_err(&path.display().to_string(), e))?;
            if let Some(rows) = rows {
                let file = File::create(rows).map_err(|e| rows_err(rows, e))?;
                writer = writer.with_attachments(file);
            }
            writer
                .append(&header.to_json_string())
                .map_err(|e| journal_err("writing header", e))?;
            return Ok((writer, Vec::new()));
        }
        Some(found) if *found == header => {}
        Some(found) => return Err(foreign_header(path, stage, &header, found)),
    }
    let mut end = 0u64;
    let committed: Vec<Committed> = records
        .into_iter()
        .skip(1)
        .map(|record| {
            let image = named_image(&record).map(|(len, _)| {
                let start = end;
                end = end.saturating_add(len);
                start..end
            });
            Committed { record, image }
        })
        .collect();
    let attachments = rows
        .map(|rows| open_rows(rows, &committed, end))
        .transpose()?;
    let mut writer = JournalWriter::resume(path, valid_bytes)
        .map_err(|e| journal_err("truncating torn tail", e))?;
    if let Some(file) = attachments {
        writer = writer.with_attachments(file);
    }
    Ok((writer, committed))
}

fn rows_err(rows: &Path, e: impl std::fmt::Display) -> StreamError {
    StreamError::Input(format!("checkpoint rows file {}: {e}", rows.display()))
}

/// Opens a resumed journal's rows sidecar for appending. It must hold
/// every image the committed records name, each ending in the footer CRC
/// its record names — anything else is damage, or another run's file,
/// and the resume refuses — and is then cut back to the last one's
/// `end`: an image torn before its record was durable is dropped.
fn open_rows(rows: &Path, committed: &[Committed], end: u64) -> Result<File, StreamError> {
    let refuse = |why: String| {
        StreamError::Input(format!(
            "--resume: checkpoint rows file {} {why}; pass a fresh --checkpoint path or drop \
             --resume",
            rows.display()
        ))
    };
    let mut file = File::options()
        .read(true)
        .append(true)
        .create(end == 0)
        .open(rows)
        .map_err(|e| {
            refuse(format!(
                "cannot be opened ({e}), but the journal commits rows"
            ))
        })?;
    let len = file.metadata().map_err(|e| rows_err(rows, e))?.len();
    if len < end {
        return Err(refuse(format!(
            "holds {len} bytes, shorter than the {end} the journal commits"
        )));
    }
    for (idx, c) in committed.iter().enumerate() {
        let Some(image) = &c.image else { continue };
        let mut trailer = [0; 16];
        let read = image.end - image.start >= 16
            && file.seek(SeekFrom::Start(image.end - 16)).is_ok()
            && file.read_exact(&mut trailer).is_ok();
        let named = named_image(&c.record).map(|(_, crc)| crc);
        if !read || footer_crc(&trailer).map(i64::from) != named {
            return Err(refuse(format!(
                "does not hold the image committed record {idx} names (damaged, or another \
                 run's rows)"
            )));
        }
    }
    file.set_len(end).map_err(|e| rows_err(rows, e))?;
    Ok(file)
}

/// The bytes of one committed image, read back from the rows sidecar
/// (which [`open_rows`] found long enough to hold it).
fn read_image(rows: &Path, range: &Range<u64>) -> Result<Vec<u8>, StreamError> {
    let len = usize::try_from(range.end - range.start).map_err(|e| rows_err(rows, e))?;
    let mut image = vec![0; len];
    let mut file = File::open(rows).map_err(|e| rows_err(rows, e))?;
    file.seek(SeekFrom::Start(range.start))
        .and_then(|_| file.read_exact(&mut image))
        .map_err(|e| rows_err(rows, e))?;
    Ok(image)
}

fn encode_chunk_record<T>(
    phase: usize,
    encode: fn(&T) -> Option<Encoded>,
    meta: &ChunkMeta,
    y: &ShardYield<T>,
) -> Option<Commit> {
    // A halted chunk stopped feeding mid-way; its partial output must
    // never become durable. Returning `None` latches the committer, so
    // nothing after this chunk commits either.
    if y.halt.is_some() {
        return None;
    }
    let (out, image) = encode(&y.out)?;
    let payload = obj(vec![
        ("kind", s("chunk")),
        ("phase", num(phase)),
        ("seq", num(meta.seq)),
        ("first", num(meta.first_line)),
        ("lines", num(meta.lines)),
        ("bytes", num(meta.bytes)),
        ("records", num(y.records)),
        ("errors", encode_errors(&y.errors)),
        ("out", out),
    ])
    .to_json_string();
    Some(Commit {
        payload,
        attachment: image,
    })
}

struct DecodedChunk<T> {
    meta: ChunkMeta,
    records: usize,
    errors: ErrorSummary,
    out: T,
}

fn decode_chunk_record<T>(
    value: &Value,
    decode: fn(&Value, Option<&[u8]>) -> Option<T>,
    image: Option<&[u8]>,
) -> Option<DecodedChunk<T>> {
    Some(DecodedChunk {
        meta: ChunkMeta {
            seq: get_usize(value, "seq")?,
            first_line: get_usize(value, "first")?,
            lines: get_usize(value, "lines")?,
            bytes: get_usize(value, "bytes")?,
        },
        records: get_usize(value, "records")?,
        errors: decode_errors(value.get("errors")?)?,
        out: decode(value.get("out")?, image)?,
    })
}

// ---------------------------------------------------------------------------
// The journal's face towards the run executor
// ---------------------------------------------------------------------------

fn input_len(input: &Path) -> Result<u64, StreamError> {
    std::fs::metadata(input)
        .map(|m| m.len())
        .map_err(|e| StreamError::Input(format!("{}: {e}", input.display())))
}

/// One run's open journal: the writer (lent to each pass's commit sink
/// and handed back when the pass ends) plus the records a resume found
/// already committed.
pub(crate) struct Session<'c> {
    ctrl: &'c JournalControl<'c>,
    writer: Option<JournalWriter>,
    committed: Vec<Committed>,
    /// The rows sidecar, for a stage whose chunks have images.
    rows: Option<PathBuf>,
    /// How many `type` markers are durable: committed, or sealed since.
    markers: usize,
}

impl<'c> Session<'c> {
    /// Opens (or resumes) the journal for a run of `stage` over `input`.
    /// The header pins everything the committed chunks depend on — the
    /// format version, the chunk target (`chunk_bytes`, which fixes chunk
    /// boundaries), the input length, and `config` — so a resume under
    /// different settings refuses instead of mixing two runs.
    pub(crate) fn open(
        ctrl: &'c JournalControl<'c>,
        input: &Path,
        stage: Stage,
        chunk_bytes: usize,
        config: &str,
    ) -> Result<Session<'c>, StreamError> {
        let header = header_record(stage, chunk_bytes, input_len(input)?, config);
        let rows = (stage == Stage::Translate).then(|| rows_path(ctrl.journal));
        let (writer, committed) = open_session(ctrl, stage, header, rows.as_deref())?;
        let markers = committed
            .iter()
            .filter(|c| kind_is(&c.record, "type"))
            .count();
        Ok(Session {
            ctrl,
            writer: Some(writer),
            committed,
            rows,
            markers,
        })
    }

    /// One pass of the run: the chunk records tagged `phase`, encoded
    /// and decoded with `codec`.
    pub(crate) fn phase<T>(&mut self, phase: usize, codec: OutCodec<T>) -> Phase<'_, 'c, T> {
        Phase {
            session: self,
            phase,
            codec,
        }
    }

    /// The types a previous run sealed between translation's passes, in
    /// order: the taught one, then the widened one, as far as it got.
    pub(crate) fn sealed_types(&self) -> Result<Vec<JType>, StreamError> {
        self.committed
            .iter()
            .filter(|c| kind_is(&c.record, "type"))
            .map(|c| {
                let printed = get_str(&c.record, "type").unwrap_or_default();
                parse_type(printed)
                    .map_err(|e| journal_err("type marker does not parse", format!("{e:?}")))
            })
            .collect()
    }

    /// How many `type` markers are durable.
    pub(crate) fn markers(&self) -> usize {
        self.markers
    }

    /// Seals a pass: once this marker is durable, a resume never teaches
    /// or widens again — the layout the next phase lays rows out under is
    /// pinned for it forever.
    pub(crate) fn seal_type(&mut self, ty: &JType) -> Result<(), StreamError> {
        let marker = obj(vec![
            ("kind", s("type")),
            ("type", s(print_type(ty, PrintOptions::with_counts()))),
        ]);
        self.writer
            .as_mut()
            .expect("no pass holds the writer between phases")
            .append(&marker.to_json_string())
            .map_err(|e| journal_err("writing type marker", e))?;
        self.markers += 1;
        Ok(())
    }
}

/// What a resume found committed for one pass, already fused.
pub(crate) struct Prefix<T> {
    /// The committed chunks' outputs folded in sequence order (`None`
    /// when nothing was committed).
    pub(crate) out: Option<T>,
    /// Each committed chunk, in commit order.
    pub(crate) metas: Vec<ChunkMeta>,
    pub(crate) bytes: u64,
    pub(crate) lines: usize,
    pub(crate) records: usize,
    pub(crate) errors: ErrorSummary,
}

impl<T> Prefix<T> {
    /// The prefix of a run with no journal, or a fresh one.
    pub(crate) fn empty() -> Prefix<T> {
        Prefix {
            out: None,
            metas: Vec::new(),
            bytes: 0,
            lines: 0,
            records: 0,
            errors: ErrorSummary::new(),
        }
    }
}

/// One journaled pass over the input (see [`Session::phase`]).
pub(crate) struct Phase<'s, 'c, T> {
    session: &'s mut Session<'c>,
    phase: usize,
    codec: OutCodec<T>,
}

impl<'c, T> Phase<'_, 'c, T> {
    /// The graceful-stop latch of the run's [`JournalControl`].
    pub(crate) fn stop(&self) -> Option<&'c AtomicBool> {
        self.session.ctrl.stop
    }

    /// Replays the committed prefix of a pass over the chunks `select`
    /// names: decodes this phase's chunk records — reading each image
    /// back from the rows sidecar — checks they are the pass's first
    /// chunks in its order, and folds their outputs in that order with
    /// `merge` — the stage's own fusion, the same the live run applied —
    /// re-applying the diagnostic retention `cap`.
    pub(crate) fn replay(
        &self,
        merge: impl Fn(T, T) -> T,
        cap: usize,
        select: Select<'_>,
    ) -> Result<Prefix<T>, StreamError> {
        let session = &*self.session;
        let mut prefix = Prefix::empty();
        let chunks = session.committed.iter().filter(|c| {
            kind_is(&c.record, "chunk")
                && c.record.get("phase").and_then(Value::as_i64) == Some(self.phase as i64)
        });
        for (idx, c) in chunks.enumerate() {
            let image = match (&c.image, &session.rows) {
                (Some(range), Some(rows)) => Some(read_image(rows, range)?),
                _ => None,
            };
            let c = decode_chunk_record(&c.record, self.codec.decode, image.as_deref())
                .ok_or_else(|| match &session.rows {
                    Some(rows) if image.is_some() => StreamError::Input(format!(
                        "--resume: checkpoint rows file {}: the image committed chunk record \
                         {idx} names is damaged; pass a fresh --checkpoint path or drop --resume",
                        rows.display()
                    )),
                    _ => StreamError::Input(format!(
                        "checkpoint journal: committed chunk record {idx} cannot be decoded \
                         (incompatible journal version?)"
                    )),
                })?;
            let expected = match select {
                Select::Listed(spans) => spans.get(idx).map(|span| (span.seq, span.first_line)),
                Select::All | Select::First => Some((idx, prefix.lines)),
            };
            if expected != Some((c.meta.seq, c.meta.first_line)) {
                return Err(StreamError::Input(format!(
                    "checkpoint journal: committed chunks are not contiguous at record {idx}"
                )));
            }
            prefix.metas.push(c.meta);
            prefix.bytes += c.meta.bytes as u64;
            prefix.lines += c.meta.lines;
            prefix.records += c.records;
            prefix.errors.merge(c.errors, cap);
            prefix.out = Some(match prefix.out.take() {
                Some(acc) => merge(acc, c.out),
                None => c.out,
            });
        }
        Ok(prefix)
    }

    /// The commit sink for the fresh tail of this pass, committing the
    /// chunks `order` lists (see [`ChunkJournal::new`]). Borrows the
    /// session's writer until [`close`](Self::close) returns it.
    pub(crate) fn sink<I>(&mut self, order: I) -> ChunkJournal<ShardYield<T>>
    where
        T: 'static,
        I: IntoIterator<Item = usize>,
        I::IntoIter: Send + 'static,
    {
        let writer = self
            .session
            .writer
            .take()
            .expect("one pass holds the writer at a time");
        let (phase, encode) = (self.phase, self.codec.encode);
        let sink = ChunkJournal::new(writer, order, move |meta: &ChunkMeta, y| {
            encode_chunk_record(phase, encode, meta, y)
        });
        match &self.session.ctrl.after_commit {
            Some(hook) => {
                let hook = hook.clone();
                sink.with_after_commit(move |n| hook(n))
            }
            None => sink,
        }
    }

    /// Ends the pass: surfaces any commit failure and returns the writer
    /// to the session for the next pass or marker.
    pub(crate) fn close(self, sink: ChunkJournal<ShardYield<T>>) -> Result<(), StreamError> {
        let (writer, _committed_now) =
            sink.finish().map_err(|e| journal_err("commit failed", e))?;
        self.session.writer = Some(writer);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Run, Source};
    use crate::streaming::FaultOptions;
    use jsonx_core::Equivalence;
    use jsonx_pipeline::ErrorPolicy;
    use jsonx_schema::ValidatorOptions;
    use std::io::Write as _;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("jsonx-ckpt-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn corpus(lines: usize) -> String {
        let mut text = String::new();
        for i in 0..lines {
            text.push_str(&format!(
                "{{\"id\":{i},\"name\":\"row {i}\",\"flag\":{}}}\n",
                i % 2 == 0
            ));
        }
        text
    }

    fn write_input(dir: &TempDir, name: &str, text: &str) -> std::path::PathBuf {
        let path = dir.path(name);
        std::fs::File::create(&path)
            .unwrap()
            .write_all(text.as_bytes())
            .unwrap();
        path
    }

    /// Small chunks, so the corpora above commit several times.
    fn plan(workers: usize) -> Run<'static> {
        Run {
            workers,
            chunk_bytes: 64,
            ..Run::default()
        }
    }

    fn journaled<'a>(base: &Run<'static>, ctrl: JournalControl<'a>) -> Run<'a> {
        Run {
            journal: Some(ctrl),
            ..base.clone()
        }
    }

    /// A control that trips its own stop latch after `commits` commits.
    /// The flag is leaked so the 'static commit hook can store to it —
    /// the same wiring the CLI uses for `JSONX_CRASHPOINT=stop:N`. The
    /// counter spans both phases of a translation, mirroring the CLI
    /// hook.
    fn stop_after(journal: &Path, commits: u64) -> JournalControl<'_> {
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let seen = AtomicU64::new(0);
        JournalControl {
            stop: Some(stop),
            after_commit: Some(Arc::new(move |_| {
                if seen.fetch_add(1, Ordering::SeqCst) + 1 >= commits {
                    stop.store(true, Ordering::SeqCst);
                }
            })),
            ..JournalControl::new(journal)
        }
    }

    fn resume(journal: &Path) -> JournalControl<'_> {
        JournalControl {
            resume: true,
            ..JournalControl::new(journal)
        }
    }

    #[test]
    fn journaled_infer_matches_plain_run() {
        let dir = TempDir::new("infer-plain");
        let text = corpus(40);
        let input = write_input(&dir, "in.ndjson", &text);
        let journal = dir.path("run.journal");
        let plain = plan(3);

        let (ty, report) = journaled(&plain, JournalControl::new(&journal))
            .infer(Source::file(&input), Equivalence::Kind)
            .unwrap();
        let (want_ty, want_report) = plain
            .infer(Source::slice(&text), Equivalence::Kind)
            .unwrap();
        assert_eq!(ty, want_ty);
        assert_eq!(report.records, want_report.records);
        assert!(journal.exists());
    }

    #[test]
    fn interrupted_run_resumes_to_identical_result() {
        let dir = TempDir::new("stop-resume");
        let text = corpus(60);
        let input = write_input(&dir, "in.ndjson", &text);
        let journal = dir.path("run.journal");
        let plain = Run {
            fault: FaultOptions {
                policy: ErrorPolicy::Skip { max_errors: None },
                ..FaultOptions::default()
            },
            ..plan(2)
        };

        let err = journaled(&plain, stop_after(&journal, 3))
            .infer(Source::file(&input), Equivalence::Kind)
            .unwrap_err();
        assert_eq!(err, StreamError::Interrupted);
        let committed = read_journal(&journal).unwrap().records.len();
        assert!(committed > 3, "header + at least 3 chunks, got {committed}");

        let (ty, report) = journaled(&plain, resume(&journal))
            .infer(Source::file(&input), Equivalence::Kind)
            .unwrap();
        let (want_ty, want_report) = plain
            .infer(Source::slice(&text), Equivalence::Kind)
            .unwrap();
        assert_eq!(ty, want_ty, "resumed type identical to uninterrupted run");
        assert_eq!(report.records, want_report.records);
    }

    #[test]
    fn resume_with_torn_tail_continues_from_last_valid_record() {
        let dir = TempDir::new("torn-tail");
        let text = corpus(50);
        let input = write_input(&dir, "in.ndjson", &text);
        let journal = dir.path("run.journal");
        let plain = plan(2);

        // Interrupt after 2 commits, then tear the journal's tail.
        let err = journaled(&plain, stop_after(&journal, 2))
            .infer(Source::file(&input), Equivalence::Kind)
            .unwrap_err();
        assert_eq!(err, StreamError::Interrupted);
        let mut file = std::fs::File::options()
            .append(true)
            .open(&journal)
            .unwrap();
        file.write_all(b"00000000 {\"kind\":\"chunk\",\"torn")
            .unwrap();

        let (ty, _report) = journaled(&plain, resume(&journal))
            .infer(Source::file(&input), Equivalence::Kind)
            .unwrap();
        let (want_ty, _) = plain
            .infer(Source::slice(&text), Equivalence::Kind)
            .unwrap();
        assert_eq!(ty, want_ty);
    }

    #[test]
    fn resume_refuses_mismatched_header() {
        let dir = TempDir::new("bad-header");
        let text = corpus(10);
        let input = write_input(&dir, "in.ndjson", &text);
        let journal = dir.path("run.journal");
        let plain = plan(1);

        journaled(&plain, JournalControl::new(&journal))
            .infer(Source::file(&input), Equivalence::Kind)
            .unwrap();

        // Same journal, different equivalence: the header no longer
        // matches, so the resume must refuse.
        let err = journaled(&plain, resume(&journal))
            .infer(Source::file(&input), Equivalence::Label)
            .unwrap_err();
        assert!(
            matches!(&err, StreamError::Input(msg) if msg.contains("different run")),
            "got {err:?}"
        );
    }

    /// The journal and rows sidecar a run left behind.
    fn files(journal: &Path) -> (Vec<u8>, Vec<u8>) {
        let rows = std::fs::read(rows_path(journal)).unwrap_or_default();
        (std::fs::read(journal).unwrap(), rows)
    }

    /// The `.jxc` bytes a translation's parts make up.
    fn image(parts: &[jsonx_translate::ColumnarBatch]) -> Vec<u8> {
        let mut bytes = Vec::new();
        jsonx_translate::write_jxc_parts(parts, &mut bytes).unwrap();
        bytes
    }

    fn chunk_records(journal: &Path) -> u64 {
        let records = read_journal(journal).unwrap().records;
        records
            .iter()
            .filter(|r| r.starts_with("{\"kind\":\"chunk\""))
            .count() as u64
    }

    /// A journaled translation stopped after every commit in turn — in
    /// the teach pass, the verifying pass, and the pass that shreds again
    /// what a late record widened (one that adds a column: its chunk; one
    /// that changes a column: every chunk) — resumes to the unjournaled
    /// batch, and leaves the journal and rows sidecar an uninterrupted
    /// journaled run writes.
    #[test]
    fn journaled_translate_two_phase_resume_is_batch_identical() {
        let dir = TempDir::new("translate");
        let plain = plan(2);
        let late = |line: &str| {
            let mut lines: Vec<String> = corpus(60).lines().map(String::from).collect();
            lines[40] = line.to_string();
            lines.join("\n") + "\n"
        };
        for (name, text) in [
            ("fits", corpus(60)),
            (
                "adds",
                late(r#"{"id":40,"name":"row 40","flag":true,"late":{"x":1}}"#),
            ),
            (
                "restructures",
                late(r#"{"id":"forty","name":"row 40","flag":true}"#),
            ),
        ] {
            let input = write_input(&dir, &format!("{name}.ndjson"), &text);
            let journal = dir.path(&format!("{name}.journal"));
            let (want, want_report) = plain
                .translate_inferred(Source::slice(&text), Equivalence::Kind)
                .unwrap();
            let want = image(&want);
            let (parts, _) = journaled(&plain, JournalControl::new(&journal))
                .translate_inferred(Source::file(&input), Equivalence::Kind)
                .unwrap();
            assert_eq!(image(&parts), want, "{name}");
            let uninterrupted = files(&journal);
            let total = chunk_records(&journal);
            assert!(total > 20, "{name}: {total} commits");
            for stop in 1..=total {
                let err = journaled(&plain, stop_after(&journal, stop))
                    .translate_inferred(Source::file(&input), Equivalence::Kind)
                    .unwrap_err();
                assert_eq!(err, StreamError::Interrupted, "{name}: stop {stop}");
                let (parts, report) = journaled(&plain, resume(&journal))
                    .translate_inferred(Source::file(&input), Equivalence::Kind)
                    .unwrap();
                assert_eq!(report.records, want_report.records, "{name}: stop {stop}");
                assert_eq!(image(&parts), want, "{name}: stop {stop}");
                assert!(files(&journal) == uninterrupted, "{name}: stop {stop}");
            }
        }
    }

    /// `tests/fixtures/golden_translate.journal` and its rows sidecar
    /// `golden_translate.journal.rows` were written by the commit that
    /// made a translate journal v2 (phases = passes, images in the
    /// sidecar), from `crates/translate/tests/fixtures/golden.ndjson` at
    /// `chunk_bytes` 256. This code must write those bytes and resume
    /// from any prefix of them: cut after each record in turn and
    /// mid-record, with every image still in the sidecar (those past the
    /// cut are an image written before its record, cut off on resume);
    /// and with the last record gone and its image cut at every byte.
    /// (`golden_translate_v1.journal`, the v1 journal of the same run, is
    /// refused — `tests/crash_resume.rs`.)
    #[test]
    fn parent_written_journal_is_reproduced_and_resumes() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let input = root.join("crates/translate/tests/fixtures/golden.ndjson");
        let fixture = root.join("tests/fixtures/golden_translate.journal");
        let golden = files(&fixture);
        let golden_jxc =
            std::fs::read(root.join("crates/translate/tests/fixtures/golden.jxc")).unwrap();
        let dir = TempDir::new("golden-journal");
        let journal = dir.path("run.journal");
        let plain = Run {
            workers: 2,
            chunk_bytes: 256,
            ..Run::default()
        };

        let (parts, _) = journaled(&plain, JournalControl::new(&journal))
            .translate_inferred(Source::file(&input), Equivalence::Kind)
            .unwrap();
        assert_eq!(image(&parts), golden_jxc);
        assert!(files(&journal) == golden);

        // A header, the first chunk, the type marker, three chunks' rows.
        let (text, rows) = &golden;
        let record_ends: Vec<usize> = text
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(record_ends.len(), 6);
        let last = read_journal(&fixture).unwrap().records.pop().unwrap();
        let (len, _) = named_image(&parse(&last).unwrap()).unwrap();
        let last_image = rows.len() - len as usize;
        let cuts = record_ends
            .iter()
            .flat_map(|end| [(*end, rows.len()), (end - 40, rows.len())])
            .chain((last_image..=rows.len()).map(|cut| (record_ends[4], cut)));
        for (cut, rows_cut) in cuts {
            std::fs::write(&journal, &text[..cut]).unwrap();
            std::fs::write(rows_path(&journal), &rows[..rows_cut]).unwrap();
            let (parts, report) = journaled(&plain, resume(&journal))
                .translate_inferred(Source::file(&input), Equivalence::Kind)
                .unwrap();
            assert_eq!(image(&parts), golden_jxc, "cut at {cut}, {rows_cut}");
            assert_eq!(report.records, 11, "cut at {cut}, {rows_cut}");
            assert!(files(&journal) == golden, "cut at {cut}, {rows_cut}");
        }
    }

    /// `tests/fixtures/golden_infer.journal` was written by the commit
    /// before inference counted records in place, from
    /// `tests/fixtures/golden_infer.ndjson` (duplicate keys, rejected
    /// lines, top-level scalars) under `--on-error skip` at `chunk_bytes`
    /// 256. Frozen in both directions like the translation journal above
    /// — but for one reject, rewritten when the two JSON grammars became
    /// one: line 12's `unexpected-byte` is everyone else's `trailing-data`.
    #[test]
    fn parent_written_infer_journal_is_reproduced_and_resumes() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let input = root.join("tests/fixtures/golden_infer.ndjson");
        let golden = std::fs::read(root.join("tests/fixtures/golden_infer.journal")).unwrap();
        let dir = TempDir::new("golden-infer-journal");
        let journal = dir.path("run.journal");
        let plain = Run {
            workers: 2,
            chunk_bytes: 256,
            fault: FaultOptions {
                policy: ErrorPolicy::Skip { max_errors: None },
                ..FaultOptions::default()
            },
            ..Run::default()
        };

        let (want_ty, want_report) = plain
            .infer(Source::file(&input), Equivalence::Kind)
            .unwrap();
        assert_eq!((want_report.records, want_report.errors.total), (16, 2));
        let (ty, _) = journaled(&plain, JournalControl::new(&journal))
            .infer(Source::file(&input), Equivalence::Kind)
            .unwrap();
        assert_eq!(ty, want_ty);
        assert_eq!(std::fs::read(&journal).unwrap(), golden);

        // A header and three chunks: cut after each record in turn, and
        // mid-record.
        let record_ends: Vec<usize> = golden
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(record_ends.len(), 4);
        for cut in record_ends.iter().flat_map(|end| [*end, end - 40]) {
            std::fs::write(&journal, &golden[..cut]).unwrap();
            let (ty, report) = journaled(&plain, resume(&journal))
                .infer(Source::file(&input), Equivalence::Kind)
                .unwrap();
            assert_eq!(ty, want_ty, "cut at {cut}");
            assert_eq!(report.records, want_report.records, "cut at {cut}");
            assert_eq!(report.errors, want_report.errors, "cut at {cut}");
            assert_eq!(std::fs::read(&journal).unwrap(), golden, "cut at {cut}");
        }
    }

    /// `tests/fixtures/golden_validate.journal` was written by the commit
    /// before validation read events, from the same
    /// `tests/fixtures/golden_infer.ndjson` under the closed schema in
    /// `golden_validate.schema.json` — which that corpus meets with valid
    /// and invalid records, records whose repeated key the event walk
    /// hands back (at the root, nested, inside an array; one valid only
    /// because the last value wins, one invalid because it does) and two
    /// rejects — under `--on-error skip` at `chunk_bytes` 256. Frozen in
    /// both directions like the two journals above: routes are work, not
    /// results, and never reach a journal.
    #[test]
    fn parent_written_validate_journal_is_reproduced_and_resumes() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let input = root.join("tests/fixtures/golden_infer.ndjson");
        let golden = std::fs::read(root.join("tests/fixtures/golden_validate.journal")).unwrap();
        let schema_text =
            std::fs::read_to_string(root.join("tests/fixtures/golden_validate.schema.json"))
                .unwrap();
        let schema =
            jsonx_schema::CompiledSchema::compile(&jsonx_syntax::parse(&schema_text).unwrap())
                .unwrap();
        assert_eq!(schema.streamable(), Ok(()));
        let dir = TempDir::new("golden-validate-journal");
        let journal = dir.path("run.journal");
        let plain = Run {
            workers: 2,
            chunk_bytes: 256,
            timing: true,
            fault: FaultOptions {
                policy: ErrorPolicy::Skip { max_errors: None },
                ..FaultOptions::default()
            },
            ..Run::default()
        };
        // The tag the CLI derives from the schema file's bytes.
        let tagged = |ctrl| JournalControl {
            schema_tag: jsonx_data::crc32(schema_text.as_bytes()),
            ..ctrl
        };
        let vopts = ValidatorOptions::default();

        let (want, want_report) = plain
            .validate(Source::file(&input), &schema, vopts)
            .unwrap();
        assert_eq!((want_report.records, want_report.errors.total), (16, 2));
        let valid = want.iter().filter(|(_, v)| v.is_valid()).count();
        assert_eq!((valid, want.len()), (7, 14));
        let routes = &want_report.routes;
        assert_eq!((routes.fast, routes.replayed["duplicate-key"]), (11, 3));
        let fresh = tagged(JournalControl::new(&journal));
        let (verdicts, _) = journaled(&plain, fresh)
            .validate(Source::file(&input), &schema, vopts)
            .unwrap();
        assert_eq!(verdicts, want);
        assert_eq!(std::fs::read(&journal).unwrap(), golden);

        // A header and three chunks: cut after each record in turn, and
        // mid-record; resume with the event walk and on the trusted route.
        let record_ends: Vec<usize> = golden
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(record_ends.len(), 4);
        for cut in record_ends.iter().flat_map(|end| [*end, end - 40]) {
            for fast_parse in [true, false] {
                std::fs::write(&journal, &golden[..cut]).unwrap();
                let run = Run {
                    fast_parse,
                    ..plain.clone()
                };
                let (verdicts, report) = journaled(&run, tagged(resume(&journal)))
                    .validate(Source::file(&input), &schema, vopts)
                    .unwrap();
                assert_eq!(verdicts, want, "cut at {cut}");
                assert_eq!(report.records, want_report.records, "cut at {cut}");
                assert_eq!(report.errors, want_report.errors, "cut at {cut}");
                assert_eq!(std::fs::read(&journal).unwrap(), golden, "cut at {cut}");
            }
        }
    }

    /// The header's `config` fingerprint embeds `Debug` output, so
    /// renaming a `FaultOptions` / `ValidatorOptions` / `ParseLimits`
    /// field would silently refuse every journal written before the
    /// rename. These literals are what the parent commit wrote.
    #[test]
    fn header_fingerprints_are_pinned() {
        let dir = TempDir::new("headers");
        let input = write_input(&dir, "in.ndjson", &corpus(3));
        let input_bytes = std::fs::metadata(&input).unwrap().len();
        let schema =
            jsonx_schema::CompiledSchema::compile(&jsonx_data::json!({"type": "object"})).unwrap();
        let header_of =
            |journal: &Path| -> String { read_journal(journal).unwrap().records.remove(0) };
        const FAULT: &str = "FaultOptions { policy: FailFast, keep_rejects: false, \
             limits: ParseLimits { max_depth: 128, max_input_bytes: None, \
             max_string_bytes: None } }";
        let expect = |stage: &str, config: String| {
            format!(
                "{{\"kind\":\"header\",\"v\":1,\"stage\":\"{stage}\",\"chunk_bytes\":64,\
                 \"input_bytes\":{input_bytes},\"config\":\"{config}\"}}"
            )
        };

        let journal = dir.path("infer.journal");
        journaled(&plan(1), JournalControl::new(&journal))
            .infer(Source::file(&input), Equivalence::Kind)
            .unwrap();
        assert_eq!(
            header_of(&journal),
            expect("infer", format!("equiv=Kind fault={FAULT}"))
        );

        let journal = dir.path("validate.journal");
        let ctrl = JournalControl {
            schema_tag: 0xfeed_beef,
            ..JournalControl::new(&journal)
        };
        journaled(&plan(1), ctrl)
            .validate(Source::file(&input), &schema, ValidatorOptions::default())
            .unwrap();
        assert_eq!(
            header_of(&journal),
            expect(
                "validate",
                format!(
                    "schema=feedbeef options=ValidatorOptions {{ enforce_formats: false }} \
                     fault={FAULT}"
                )
            )
        );

        // Translate's journal is v2, and its route is part of it.
        let journal = dir.path("translate.journal");
        journaled(&plan(1), JournalControl::new(&journal))
            .translate_inferred(Source::file(&input), Equivalence::Label)
            .unwrap();
        assert_eq!(
            header_of(&journal),
            expect(
                "translate",
                format!("equiv=Label fault={FAULT} route=reference")
            )
            .replace("\"v\":1", "\"v\":2")
        );
    }
}
