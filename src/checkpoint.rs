//! Crash-safe journaled runs: durable chunk-commit journals and
//! `--resume` for the out-of-core streaming stages.
//!
//! A journaled run writes one CRC-framed, fsync'd record per committed
//! chunk to a [journal](jsonx_pipeline::JournalWriter) *before* the
//! chunk's result is fused — and chunks commit strictly in input order
//! (see [`ChunkJournal`]). Because chunk boundaries depend only on the
//! byte stream and the chunk-size target (never on worker count or
//! scheduling), the journal is a durable, deterministic prefix of the
//! run: after a crash, a signal, or an operator stop, rerunning with the
//! same journal skips every committed chunk, seeks the input to the
//! first uncommitted byte, and merges fresh tail results onto the
//! decoded prefix. The final output is byte-identical to an
//! uninterrupted run at any worker count.
//!
//! What goes in a journal record is the chunk's **entire observable
//! effect**: the stage output (an inferred [`JType`], a verdict vector,
//! a columnar batch), the record count, and the full rejection account
//! (including raw quarantined lines when the run keeps them). Final
//! artifacts — stdout verdicts, the quarantine sidecar, the `.jxc` file
//! — are only written at end-of-run, exactly like an unjournaled run,
//! so the journal is the *only* durable state a resume needs.
//!
//! Torn tails are expected, not fatal: [`read_journal`] stops at the
//! first incomplete or CRC-failing record, and the resume path truncates
//! the file back to the intact prefix before appending
//! ([`JournalWriter::resume`]). A record damaged *before* the tail — or
//! a header that does not match the current invocation — means the
//! journal belongs to a different run (input replaced, options changed,
//! incompatible version) and the resume refuses instead of guessing.
//!
//! Translation journals both of its passes into one file, phase-tagged,
//! with a `type` marker record sealing phase 1 — so a kill during either
//! pass resumes precisely, and the shred layout is reconstructed from
//! the journal rather than re-inferred.
//!
//! There is no journaled runner here: this module holds the journal's
//! *format* (header fingerprint, chunk-record codecs) and hands the one
//! executor in [`crate::run`] a [`Session`] whose [`Phase`]s replay a
//! committed [`Prefix`] before the engine call and supply its commit
//! sink during it.

use crate::streaming::{LineVerdict, ShardYield, Shredded, StreamError};
use jsonx_core::{parse_type, print_type, JType, PrintOptions};
use jsonx_data::{Number, Object, Value};
use jsonx_pipeline::{
    read_journal, ChunkJournal, ChunkMeta, ErrorSummary, JournalWriter, RecordDiagnostic,
};
use jsonx_syntax::parse;
use jsonx_translate::{read_jxc, write_jxc};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, OnceLock};

/// Journal format version — bumped whenever record shapes change, so a
/// stale journal refuses cleanly instead of decoding garbage.
const JOURNAL_VERSION: i64 = 1;

/// How a journaled [`Run`](crate::Run) finds its journal and reacts to
/// stop requests.
#[derive(Clone)]
pub struct JournalControl<'a> {
    /// Path of the journal file.
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

const HEX: &[u8; 16] = b"0123456789abcdef";

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[usize::from(b >> 4)] as char);
        out.push(HEX[usize::from(b & 0xF)] as char);
    }
    out
}

/// The inverse of [`hex_encode`]: pairs of hex digits (either case) and
/// nothing else.
fn hex_decode(text: &str) -> Option<Vec<u8>> {
    /// A hex digit's value, `0xFF` for any other byte.
    const NIBBLE: [u8; 256] = {
        let mut table = [0xFF; 256];
        let mut i = 0;
        while i < 16 {
            table[HEX[i] as usize] = i as u8;
            table[HEX[i].to_ascii_uppercase() as usize] = i as u8;
            i += 1;
        }
        table
    };
    if !text.len().is_multiple_of(2) {
        return None;
    }
    text.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let (hi, lo) = (NIBBLE[usize::from(pair[0])], NIBBLE[usize::from(pair[1])]);
            ((hi | lo) < 16).then_some((hi << 4) | lo)
        })
        .collect()
}

/// How one stage output round-trips through a journal record. Plain
/// function pointers so the commit closure handed to [`ChunkJournal`]
/// stays `'static` without capturing borrowed stage state.
pub(crate) struct OutCodec<T> {
    encode: fn(&T) -> Option<Value>,
    decode: fn(&Value) -> Option<T>,
}

pub(crate) fn infer_codec() -> OutCodec<JType> {
    OutCodec {
        // The counting printer/parser round-trip is exact (pinned by
        // `counting_round_trip_exact`), so the journaled prefix fuses to
        // the same type the live run computed.
        encode: |ty| Some(s(print_type(ty, PrintOptions::with_counts()))),
        decode: |v| parse_type(v.as_str()?).ok(),
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
            Some(Value::Arr(rows))
        },
        decode: |v| {
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
        // A chunk's batch is journaled as its checksummed `.jxc` image;
        // decoding reconstructs the identical batch (layout included),
        // and batches concatenate in seq order exactly like live merging.
        // A journaled run's layout is the whole corpus's before the first
        // row is durable: no chunk is ever voided.
        encode: |chunk| match chunk.as_slice() {
            [Shredded::Rows(batch)] => Some(s(hex_encode(&write_jxc(batch)))),
            _ => None,
        },
        decode: |v| {
            let batch = read_jxc(&hex_decode(v.as_str()?)?).ok()?.batch;
            Some(vec![Shredded::Rows(batch)])
        },
    }
}

// ---------------------------------------------------------------------------
// Journal session: header validation, prefix decoding
// ---------------------------------------------------------------------------

fn header_record(stage: &str, chunk_bytes: usize, input_bytes: u64, config: &str) -> Value {
    obj(vec![
        ("kind", s("header")),
        ("v", Value::Num(Number::Int(JOURNAL_VERSION))),
        ("stage", s(stage)),
        ("chunk_bytes", num(chunk_bytes)),
        ("input_bytes", num(input_bytes as usize)),
        ("config", s(config)),
    ])
}

fn journal_err(context: &str, e: impl std::fmt::Display) -> StreamError {
    StreamError::Input(format!("checkpoint journal: {context}: {e}"))
}

/// Opens the journal for this run: fresh runs truncate and write the
/// header; resumes read the intact prefix back, verify the header
/// matches this invocation, cut any torn tail, and return the committed
/// records for replay.
fn open_session(
    ctrl: &JournalControl<'_>,
    header: Value,
) -> Result<(JournalWriter, Vec<Value>), StreamError> {
    let path = ctrl.journal;
    if !ctrl.resume {
        let mut writer =
            JournalWriter::create(path).map_err(|e| journal_err(&path.display().to_string(), e))?;
        writer
            .append(&header.to_json_string())
            .map_err(|e| journal_err("writing header", e))?;
        return Ok((writer, Vec::new()));
    }
    let read = read_journal(path).map_err(|e| {
        StreamError::Input(format!(
            "--resume: cannot read checkpoint journal {}: {e}",
            path.display()
        ))
    })?;
    let mut records = Vec::with_capacity(read.records.len());
    for (idx, line) in read.records.iter().enumerate() {
        let value = parse(line).map_err(|e| {
            journal_err(
                &format!("record {idx} is framed correctly but is not JSON"),
                e,
            )
        })?;
        records.push(value);
    }
    let mut writer = JournalWriter::resume(path, read.valid_bytes)
        .map_err(|e| journal_err("truncating torn tail", e))?;
    match records.first() {
        // A journal that died before its header committed holds no
        // progress; restart it as a fresh run.
        None => {
            writer
                .append(&header.to_json_string())
                .map_err(|e| journal_err("writing header", e))?;
            Ok((writer, Vec::new()))
        }
        Some(found) if *found == header => {
            records.remove(0);
            Ok((writer, records))
        }
        Some(found) => Err(StreamError::Input(format!(
            "--resume: checkpoint journal {} was written by a different run \
             (expected header {header}, found {found}); \
             pass a fresh --checkpoint path or drop --resume",
            path.display()
        ))),
    }
}

fn phase_chunks(records: &[Value], phase: usize) -> Vec<&Value> {
    records
        .iter()
        .filter(|r| {
            r.get("kind").and_then(Value::as_str) == Some("chunk")
                && r.get("phase").and_then(Value::as_i64) == Some(phase as i64)
        })
        .collect()
}

fn type_marker(records: &[Value]) -> Option<&str> {
    records
        .iter()
        .find(|r| r.get("kind").and_then(Value::as_str) == Some("type"))
        .and_then(|r| r.get("type"))
        .and_then(Value::as_str)
}

fn encode_chunk_record<T>(
    phase: usize,
    encode: fn(&T) -> Option<Value>,
    meta: &ChunkMeta,
    y: &ShardYield<T>,
) -> Option<String> {
    // A halted chunk stopped feeding mid-way; its partial output must
    // never become durable. Returning `None` latches the committer, so
    // nothing after this chunk commits either.
    if y.halt.is_some() {
        return None;
    }
    let out = encode(&y.out)?;
    Some(
        obj(vec![
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
        .to_json_string(),
    )
}

struct DecodedChunk<T> {
    seq: usize,
    first_line: usize,
    lines: usize,
    bytes: usize,
    records: usize,
    errors: ErrorSummary,
    out: T,
}

fn decode_chunk_record<T>(
    value: &Value,
    decode: fn(&Value) -> Option<T>,
) -> Option<DecodedChunk<T>> {
    Some(DecodedChunk {
        seq: get_usize(value, "seq")?,
        first_line: get_usize(value, "first")?,
        lines: get_usize(value, "lines")?,
        bytes: get_usize(value, "bytes")?,
        records: get_usize(value, "records")?,
        errors: decode_errors(value.get("errors")?)?,
        out: decode(value.get("out")?)?,
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
    committed: Vec<Value>,
}

impl<'c> Session<'c> {
    /// Opens (or resumes) the journal for a run of `stage` over `input`.
    /// The header pins everything the committed chunks depend on — the
    /// chunk target (`chunk_bytes`, which fixes chunk boundaries), the
    /// input length, and `config` — so a resume under different settings
    /// refuses instead of mixing two runs.
    pub(crate) fn open(
        ctrl: &'c JournalControl<'c>,
        input: &Path,
        stage: &str,
        chunk_bytes: usize,
        config: &str,
    ) -> Result<Session<'c>, StreamError> {
        let header = header_record(stage, chunk_bytes, input_len(input)?, config);
        let (writer, committed) = open_session(ctrl, header)?;
        Ok(Session {
            ctrl,
            writer: Some(writer),
            committed,
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

    /// The type a previous run sealed between translation's two passes,
    /// if it got that far.
    pub(crate) fn sealed_type(&self) -> Result<Option<JType>, StreamError> {
        type_marker(&self.committed)
            .map(|printed| {
                parse_type(printed)
                    .map_err(|e| journal_err("type marker does not parse", format!("{e:?}")))
            })
            .transpose()
    }

    /// Seals phase 1: once this marker is durable, a resume never
    /// re-infers — the layout is pinned for phase 2 forever.
    pub(crate) fn seal_type(&mut self, ty: &JType) -> Result<(), StreamError> {
        let marker = obj(vec![
            ("kind", s("type")),
            ("type", s(print_type(ty, PrintOptions::with_counts()))),
        ]);
        self.writer
            .as_mut()
            .expect("no pass holds the writer between phases")
            .append(&marker.to_json_string())
            .map_err(|e| journal_err("writing type marker", e))
    }
}

/// What a resume found committed for one pass, already fused.
pub(crate) struct Prefix<T> {
    /// The committed chunks' outputs folded in sequence order (`None`
    /// when nothing was committed).
    pub(crate) out: Option<T>,
    pub(crate) chunks: usize,
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
            chunks: 0,
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

    /// Replays the committed prefix: decodes this pass's chunk records
    /// and folds their outputs in sequence order with `merge` — the
    /// stage's own fusion, the same the live run applied — re-applying
    /// the diagnostic retention `cap`.
    pub(crate) fn replay(
        &self,
        merge: impl Fn(T, T) -> T,
        cap: usize,
    ) -> Result<Prefix<T>, StreamError> {
        let mut prefix = Prefix::empty();
        for (idx, rec) in phase_chunks(&self.session.committed, self.phase)
            .into_iter()
            .enumerate()
        {
            let c = decode_chunk_record(rec, self.codec.decode).ok_or_else(|| {
                StreamError::Input(format!(
                    "checkpoint journal: committed chunk record {idx} cannot be decoded \
                     (incompatible journal version?)"
                ))
            })?;
            if c.seq != idx || c.first_line != prefix.lines {
                return Err(StreamError::Input(format!(
                    "checkpoint journal: committed chunks are not contiguous at record {idx}"
                )));
            }
            prefix.chunks += 1;
            prefix.bytes += c.bytes as u64;
            prefix.lines += c.lines;
            prefix.records += c.records;
            prefix.errors.merge(c.errors, cap);
            prefix.out = Some(match prefix.out.take() {
                Some(acc) => merge(acc, c.out),
                None => c.out,
            });
        }
        Ok(prefix)
    }

    /// The commit sink for the fresh tail of this pass, continuing the
    /// chunk sequence after `resumed` replayed chunks. Borrows the
    /// session's writer until [`close`](Self::close) returns it.
    pub(crate) fn sink(&mut self, resumed: usize) -> ChunkJournal<ShardYield<T>>
    where
        T: 'static,
    {
        let writer = self
            .session
            .writer
            .take()
            .expect("one pass holds the writer at a time");
        let (phase, encode) = (self.phase, self.codec.encode);
        let sink = ChunkJournal::new(writer, resumed, move |meta: &ChunkMeta, y| {
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

    #[test]
    fn journaled_translate_two_phase_resume_is_batch_identical() {
        let dir = TempDir::new("translate");
        let text = corpus(60);
        let input = write_input(&dir, "in.ndjson", &text);
        let journal = dir.path("run.journal");
        let plain = plan(2);

        // Stop during phase 2: phase 1 commits ~13 chunks of 64B, so a
        // threshold past that lands the interruption mid-shred.
        let err = journaled(&plain, stop_after(&journal, 40))
            .translate_inferred(Source::file(&input), Equivalence::Kind)
            .unwrap_err();
        assert_eq!(err, StreamError::Interrupted);

        let (batch, report) = journaled(&plain, resume(&journal))
            .translate_inferred(Source::file(&input), Equivalence::Kind)
            .unwrap();
        let (want_batch, want_report) = plain
            .translate_inferred(Source::slice(&text), Equivalence::Kind)
            .unwrap();
        assert_eq!(report.records, want_report.records);
        assert_eq!(
            write_jxc(&batch),
            write_jxc(&want_batch),
            "resumed .jxc bytes identical to uninterrupted run"
        );
    }

    /// `tests/fixtures/golden_translate.journal` was written by the
    /// commit before the columns became arena-backed, from
    /// `crates/translate/tests/fixtures/golden.ndjson` at `chunk_bytes`
    /// 256. The journal format is frozen in both directions: this code
    /// must write those bytes (so that commit can resume our journals)
    /// and resume from any prefix of them (so we can resume its).
    #[test]
    fn parent_written_journal_is_reproduced_and_resumes() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let input = root.join("crates/translate/tests/fixtures/golden.ndjson");
        let golden = std::fs::read(root.join("tests/fixtures/golden_translate.journal")).unwrap();
        let golden_jxc =
            std::fs::read(root.join("crates/translate/tests/fixtures/golden.jxc")).unwrap();
        let dir = TempDir::new("golden-journal");
        let journal = dir.path("run.journal");
        let plain = Run {
            workers: 2,
            chunk_bytes: 256,
            ..Run::default()
        };

        let (batch, _) = journaled(&plain, JournalControl::new(&journal))
            .translate_inferred(Source::file(&input), Equivalence::Kind)
            .unwrap();
        assert_eq!(write_jxc(&batch), golden_jxc);
        assert_eq!(std::fs::read(&journal).unwrap(), golden);

        // A header, three phase-1 chunks, the type marker, three phase-2
        // chunks: cut after each record in turn, and mid-record.
        let record_ends: Vec<usize> = golden
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == b'\n')
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(record_ends.len(), 8);
        for cut in record_ends.iter().flat_map(|end| [*end, end - 40]) {
            std::fs::write(&journal, &golden[..cut]).unwrap();
            let (batch, report) = journaled(&plain, resume(&journal))
                .translate_inferred(Source::file(&input), Equivalence::Kind)
                .unwrap();
            assert_eq!(write_jxc(&batch), golden_jxc, "cut at {cut}");
            assert_eq!(report.records, 11, "cut at {cut}");
            assert_eq!(std::fs::read(&journal).unwrap(), golden, "cut at {cut}");
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

    #[test]
    fn hex_codec_round_trips_and_rejects_non_hex() {
        let bytes: Vec<u8> = (0..=255).collect();
        let text = hex_encode(&bytes);
        assert!(text.starts_with("000102") && text.ends_with("fdfeff"));
        let reference: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(text, reference);
        assert_eq!(hex_decode(&text), Some(bytes.clone()));
        assert_eq!(hex_decode(&text.to_uppercase()), Some(bytes));
        assert_eq!(hex_decode(""), Some(Vec::new()));
        // `u8::from_str_radix` takes a sign; a hex codec must not.
        for bad in ["+f", "-1", "0", "0g", "g0", " 1", "1 ", "0x", "é"] {
            assert_eq!(hex_decode(bad), None, "{bad:?}");
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

        let journal = dir.path("translate.journal");
        journaled(&plan(1), JournalControl::new(&journal))
            .translate_inferred(Source::file(&input), Equivalence::Label)
            .unwrap();
        assert_eq!(
            header_of(&journal),
            expect("translate", format!("equiv=Label fault={FAULT}"))
        );
    }
}
