//! The durable run journal: crash-safe chunk-commit records and the
//! ordered committer the engine drives through [`CheckpointSink`].
//!
//! A long out-of-core run is a sequence of chunk folds fused in sequence
//! order. To survive a crash (OOM-kill, deploy, SIGTERM) the run
//! write-ahead-logs every *committed* chunk — one fsync'd NDJSON record
//! per chunk, framed with a CRC-32 so a torn tail write is detectable —
//! and a resumed run replays the journal, skips the committed prefix of
//! the input, and re-merges the decoded per-chunk results with the
//! freshly processed tail. Because [`ChunkSource`](crate::ChunkSource)
//! sequence numbers depend only on the input bytes and the chunk target
//! (never the worker count), a resume at any worker count reproduces the
//! exact chunk boundaries and therefore the exact output.
//!
//! This module is format-blind: records are opaque payload strings
//! (the facade crate encodes stage-specific results into them), each
//! optionally with an opaque *attachment* — bytes too bulky to encode as
//! text, kept in a second, append-only file beside the journal — and the
//! commit protocol lives in [`ChunkJournal`]:
//!
//! * chunks complete in *any* order on the worker pool, but only the
//!   prefix of successfully folded chunks, in the order the pass reads
//!   them, is ever committed — `chunk_done(seq=k)` is buffered until every
//!   chunk the pass reads before `k` committed;
//! * each commit appends its attachment and fsyncs it, then appends one
//!   framed record and fsyncs before the next, so the journal on disk is
//!   always a valid prefix of the run and every attachment it names is
//!   durable;
//! * a chunk whose result cannot be encoded (or a poisoned chunk, which
//!   never reports `chunk_done` at all) leaves a hole: nothing past it
//!   commits, and the resumed run reprocesses from the hole.
//!
//! Reading is tail-tolerant by design: [`read_journal`] stops at the
//! first record whose frame is malformed or whose CRC disagrees —
//! exactly what a record half-written at crash time looks like — and
//! reports everything before it as durable.

use jsonx_data::crc32;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// Everything the engine knows about one successfully folded chunk when
/// it reports the chunk to a [`CheckpointSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// The chunk's position in the input's chunk sequence.
    pub seq: usize,
    /// Global index of the chunk's first line.
    pub first_line: usize,
    /// How many lines the chunk spans (including blank lines).
    pub lines: usize,
    /// The chunk's size in bytes — the resume cursor advances by exactly
    /// this much per committed chunk.
    pub bytes: usize,
}

/// Hook the engine calls once per successfully folded chunk, before the
/// chunk's result is fused. Calls arrive in completion order (any
/// order); implementations that need sequence order must buffer.
pub trait CheckpointSink<Out>: Sync {
    /// One chunk finished folding with result `out`.
    fn chunk_done(&self, meta: &ChunkMeta, out: &Out);
}

// ---------------------------------------------------------------------------
// Framed append-only journal file
// ---------------------------------------------------------------------------

/// Append-only writer of CRC-framed journal records.
///
/// Each record is one line: eight lowercase hex digits of the payload's
/// CRC-32, one space, the payload (which must not contain newlines), a
/// newline. Every append is followed by `sync_data`, so once `append`
/// returns the record survives a crash.
pub struct JournalWriter {
    file: File,
    /// Where [`append_attached`](Self::append_attached) puts attachments.
    attachments: Option<File>,
}

impl JournalWriter {
    /// Creates (or truncates) the journal at `path`.
    pub fn create(path: &Path) -> std::io::Result<JournalWriter> {
        Ok(JournalWriter {
            file: File::create(path)?,
            attachments: None,
        })
    }

    /// Opens an existing journal for appending after truncating it to
    /// `valid_bytes` — the [`JournalRead::valid_bytes`] cursor — so a
    /// record torn by the previous crash is physically cut off before
    /// any new record lands after it.
    pub fn resume(path: &Path, valid_bytes: u64) -> std::io::Result<JournalWriter> {
        let file = File::options().append(true).open(path)?;
        file.set_len(valid_bytes)?;
        Ok(JournalWriter {
            file,
            attachments: None,
        })
    }

    /// Gives the journal an attachment file, opened for appending and
    /// already cut to the end of the last committed attachment (what a
    /// torn one left past that is never read).
    pub fn with_attachments(self, attachments: File) -> JournalWriter {
        JournalWriter {
            attachments: Some(attachments),
            ..self
        }
    }

    /// Appends `attachment` to the attachment file and fsyncs it, then
    /// appends the record that names it: a crash between the two leaves
    /// bytes no record names, never a record naming lost bytes.
    pub fn append_attached(&mut self, payload: &str, attachment: &[u8]) -> std::io::Result<()> {
        let file = self
            .attachments
            .as_mut()
            .ok_or_else(|| std::io::Error::other("the journal has no attachment file"))?;
        file.write_all(attachment)?;
        file.sync_data()?;
        self.append(payload)
    }

    /// Appends one framed record and fsyncs it.
    ///
    /// # Panics
    ///
    /// Panics if `payload` contains a newline — that would corrupt the
    /// framing, and every caller controls its payloads.
    pub fn append(&mut self, payload: &str) -> std::io::Result<()> {
        assert!(
            !payload.contains('\n'),
            "journal payloads must be single lines"
        );
        let line = format!("{:08x} {payload}\n", crc32(payload.as_bytes()));
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }
}

/// What [`read_journal`] recovered from a journal file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRead {
    /// The payloads of every intact record, in file order.
    pub records: Vec<String>,
    /// Whether reading stopped early at a torn or corrupted record (the
    /// expected state after a crash mid-append). The intact prefix in
    /// `records` is still fully durable.
    pub truncated: bool,
    /// Byte length of the intact prefix — pass to
    /// [`JournalWriter::resume`] to cut a torn tail before appending.
    pub valid_bytes: u64,
}

/// Reads a journal tail-tolerantly: stops at the first line that is
/// incomplete (no trailing newline), malformed, fails its CRC or is not
/// UTF-8, and returns the intact prefix. Frames are checked on bytes: a
/// tail torn inside a multi-byte character is a torn tail like any other.
pub fn read_journal(path: &Path) -> std::io::Result<JournalRead> {
    let bytes = std::fs::read(path)?;
    let mut records = Vec::new();
    let mut rest = bytes.as_slice();
    let mut valid_bytes = 0u64;
    loop {
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            // A non-empty remainder is a record that never finished
            // writing.
            return Ok(JournalRead {
                records,
                truncated: !rest.is_empty(),
                valid_bytes,
            });
        };
        let line = &rest[..nl];
        rest = &rest[nl + 1..];
        let Some(payload) = parse_frame(line) else {
            return Ok(JournalRead {
                records,
                truncated: true,
                valid_bytes,
            });
        };
        valid_bytes += nl as u64 + 1;
        records.push(payload.to_string());
    }
}

/// Checks one `crc32hex payload` frame; `Some(payload)` when intact.
/// The header is exactly what the writer writes: eight lowercase hex
/// digits, so a flipped bit that turns `f` into `F` is damage too.
fn parse_frame(line: &[u8]) -> Option<&str> {
    let (crc_hex, payload) = line.split_at_checked(8)?;
    let payload = payload.strip_prefix(b" ")?;
    let mut expected = 0u32;
    for &digit in crc_hex {
        let nibble = match digit {
            b'0'..=b'9' => digit - b'0',
            b'a'..=b'f' => digit - b'a' + 10,
            _ => return None,
        };
        expected = expected << 4 | u32::from(nibble);
    }
    if crc32(payload) != expected {
        return None;
    }
    std::str::from_utf8(payload).ok()
}

// ---------------------------------------------------------------------------
// Ordered committer
// ---------------------------------------------------------------------------

/// One chunk's commit: its journal record, and the attachment, if any,
/// made durable before it ([`JournalWriter::append_attached`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Commit {
    /// The record payload.
    pub payload: String,
    /// Bytes for the attachment file.
    pub attachment: Option<Vec<u8>>,
}

type Encode<Out> = dyn Fn(&ChunkMeta, &Out) -> Option<Commit> + Send + Sync;
type AfterCommit = dyn Fn(u64) + Send + Sync;

/// The commit protocol: buffers out-of-order `chunk_done` reports and
/// appends exactly the prefix of encodable chunk results, in the pass's
/// commit order, to the journal, fsyncing each.
///
/// The encoder returns the commit for a chunk, or `None` for a result
/// that must not commit (a halted shard, an unencodable value) — which
/// latches the committer: nothing at or past that chunk ever reaches the
/// journal, so a resume reprocesses from there.
/// I/O errors are latched too and surfaced by [`finish`](Self::finish);
/// the engine's run continues (the in-memory result is still correct,
/// only durability is lost).
pub struct ChunkJournal<Out> {
    inner: Mutex<CommitState>,
    encode: Box<Encode<Out>>,
    after_commit: Option<Box<AfterCommit>>,
}

struct CommitState {
    writer: JournalWriter,
    /// Completed-but-not-yet-committed chunk commits, keyed by seq.
    pending: BTreeMap<usize, Option<Commit>>,
    /// The sequence numbers after `next`, in commit order.
    order: Box<dyn Iterator<Item = usize> + Send>,
    /// The next sequence number eligible to commit; `None` once every
    /// chunk of the order has.
    next: Option<usize>,
    /// Total records committed through this committer.
    committed: u64,
    /// Set when an unencodable result closed the journal.
    stopped: bool,
    error: Option<std::io::Error>,
}

impl<Out> ChunkJournal<Out> {
    /// Wraps `writer`, committing the chunks `order` lists — ascending
    /// sequence numbers, in the order the pass reads them: `k..` for a
    /// pass over the whole input whose prefix `0..k` was resumed, the
    /// listed chunks for a pass over some of them.
    pub fn new<I>(
        writer: JournalWriter,
        order: I,
        encode: impl Fn(&ChunkMeta, &Out) -> Option<Commit> + Send + Sync + 'static,
    ) -> ChunkJournal<Out>
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: Send + 'static,
    {
        let mut order = order.into_iter();
        ChunkJournal {
            inner: Mutex::new(CommitState {
                writer,
                pending: BTreeMap::new(),
                next: order.next(),
                order: Box::new(order),
                committed: 0,
                stopped: false,
                error: None,
            }),
            encode: Box::new(encode),
            after_commit: None,
        }
    }

    /// Registers a hook fired after each durable commit with the running
    /// commit count — the seam the kill-and-resume harness injects its
    /// crashpoints through.
    pub fn with_after_commit(
        mut self,
        hook: impl Fn(u64) + Send + Sync + 'static,
    ) -> ChunkJournal<Out> {
        self.after_commit = Some(Box::new(hook));
        self
    }

    /// Consumes the committer: the journal writer (for appending
    /// post-run markers) plus the number of records committed, or the
    /// first I/O error a commit hit.
    pub fn finish(self) -> std::io::Result<(JournalWriter, u64)> {
        let inner = self.inner.into_inner().unwrap();
        match inner.error {
            Some(err) => Err(err),
            None => Ok((inner.writer, inner.committed)),
        }
    }

    fn drain(&self, inner: &mut CommitState) {
        while !inner.stopped && inner.error.is_none() {
            let Some(entry) = inner.next.and_then(|next| inner.pending.remove(&next)) else {
                return;
            };
            let Some(commit) = entry else {
                inner.stopped = true;
                return;
            };
            let appended = match &commit.attachment {
                Some(bytes) => inner.writer.append_attached(&commit.payload, bytes),
                None => inner.writer.append(&commit.payload),
            };
            if let Err(err) = appended {
                inner.error = Some(err);
                return;
            }
            inner.next = inner.order.next();
            inner.committed += 1;
            if let Some(hook) = &self.after_commit {
                hook(inner.committed);
            }
        }
    }
}

impl<Out> CheckpointSink<Out> for ChunkJournal<Out>
where
    Out: Send,
{
    fn chunk_done(&self, meta: &ChunkMeta, out: &Out) {
        let commit = (self.encode)(meta, out);
        let mut inner = self.inner.lock().unwrap();
        let stale = inner.next.is_none_or(|next| meta.seq < next);
        if inner.stopped || inner.error.is_some() || stale {
            return;
        }
        inner.pending.insert(meta.seq, commit);
        self.drain(&mut inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("jsonx-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    /// A commit with no attachment.
    fn plain(payload: String) -> Commit {
        Commit {
            payload,
            attachment: None,
        }
    }

    #[test]
    fn journal_round_trips() {
        let path = tmp("round-trip");
        let mut writer = JournalWriter::create(&path).unwrap();
        for payload in ["{\"a\":1}", "{\"b\":2}", "plain text"] {
            writer.append(payload).unwrap();
        }
        let read = read_journal(&path).unwrap();
        assert!(!read.truncated);
        assert_eq!(read.records, vec!["{\"a\":1}", "{\"b\":2}", "plain text"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_tail_is_dropped_not_fatal() {
        let path = tmp("corrupt-tail");
        let mut writer = JournalWriter::create(&path).unwrap();
        writer.append("first").unwrap();
        writer.append("second").unwrap();
        // A record torn mid-write: valid frame prefix, no newline.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"00000000 half-writ");
        std::fs::write(&path, &bytes).unwrap();
        let read = read_journal(&path).unwrap();
        assert!(read.truncated);
        assert_eq!(read.records, vec!["first", "second"]);
        // A bit flip in a complete record drops it and everything after.
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = bytes.iter().position(|&b| b == b'f').unwrap();
        bytes[flip] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let read = read_journal(&path).unwrap();
        assert!(read.truncated);
        assert!(read.records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    /// A header the writer would not have written is damage even when
    /// it spells the payload's CRC: upper-case digits, or a `+` in place
    /// of a leading zero.
    #[test]
    fn a_frame_header_is_eight_lowercase_hex_digits() {
        let (payload, lower) = (0..)
            .map(|seq| format!("{{\"seq\":{seq}}}"))
            .map(|payload| {
                let lower = format!("{:08x}", crc32(payload.as_bytes()));
                (payload, lower)
            })
            .find(|(_, lower)| lower.starts_with('0') && lower.contains(char::is_alphabetic))
            .expect("some CRC has a leading zero and a letter");
        let frame = |header: &str| format!("{header} {payload}");
        assert_eq!(
            parse_frame(frame(&lower).as_bytes()),
            Some(payload.as_str())
        );
        for header in [lower.to_uppercase(), format!("+{}", &lower[1..])] {
            assert_eq!(parse_frame(frame(&header).as_bytes()), None, "{header}");
        }
    }

    #[test]
    fn resume_truncates_torn_tail_before_appending() {
        let path = tmp("resume-truncate");
        let mut writer = JournalWriter::create(&path).unwrap();
        writer.append("first").unwrap();
        drop(writer);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"00000000 torn");
        std::fs::write(&path, &bytes).unwrap();
        let read = read_journal(&path).unwrap();
        assert!(read.truncated);
        let mut writer = JournalWriter::resume(&path, read.valid_bytes).unwrap();
        writer.append("second").unwrap();
        let read = read_journal(&path).unwrap();
        assert!(!read.truncated);
        assert_eq!(read.records, vec!["first", "second"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn committer_orders_out_of_order_chunks() {
        let path = tmp("ordered");
        let writer = JournalWriter::create(&path).unwrap();
        let journal: ChunkJournal<String> = ChunkJournal::new(writer, 0.., |meta, out| {
            Some(plain(format!("{}:{out}", meta.seq)))
        });
        let meta = |seq| ChunkMeta {
            seq,
            first_line: seq * 10,
            lines: 10,
            bytes: 100,
        };
        journal.chunk_done(&meta(2), &"c".to_string());
        journal.chunk_done(&meta(0), &"a".to_string());
        assert_eq!(read_journal(&path).unwrap().records, vec!["0:a"]);
        journal.chunk_done(&meta(1), &"b".to_string());
        let (_, committed) = journal.finish().unwrap();
        assert_eq!(committed, 3);
        assert_eq!(
            read_journal(&path).unwrap().records,
            vec!["0:a", "1:b", "2:c"]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unencodable_chunk_latches_the_committer() {
        let path = tmp("latched");
        let writer = JournalWriter::create(&path).unwrap();
        let journal: ChunkJournal<Option<String>> =
            ChunkJournal::new(writer, 0.., |meta, out: &Option<String>| {
                out.as_ref().map(|s| plain(format!("{}:{s}", meta.seq)))
            });
        let meta = |seq| ChunkMeta {
            seq,
            first_line: 0,
            lines: 1,
            bytes: 1,
        };
        journal.chunk_done(&meta(0), &Some("a".to_string()));
        journal.chunk_done(&meta(1), &None);
        journal.chunk_done(&meta(2), &Some("c".to_string()));
        let (_, committed) = journal.finish().unwrap();
        assert_eq!(committed, 1);
        assert_eq!(read_journal(&path).unwrap().records, vec!["0:a"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn gap_from_missing_chunk_blocks_later_commits() {
        // A poisoned chunk never reports chunk_done: nothing past its
        // hole may commit.
        let path = tmp("gap");
        let writer = JournalWriter::create(&path).unwrap();
        let journal: ChunkJournal<String> = ChunkJournal::new(writer, 0.., |meta, out| {
            Some(plain(format!("{}:{out}", meta.seq)))
        });
        let meta = |seq| ChunkMeta {
            seq,
            first_line: 0,
            lines: 1,
            bytes: 1,
        };
        journal.chunk_done(&meta(0), &"a".to_string());
        journal.chunk_done(&meta(2), &"c".to_string());
        journal.chunk_done(&meta(3), &"d".to_string());
        let (_, committed) = journal.finish().unwrap();
        assert_eq!(committed, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn after_commit_sees_running_count() {
        let path = tmp("hook");
        let writer = JournalWriter::create(&path).unwrap();
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let journal: ChunkJournal<String> =
            ChunkJournal::new(writer, 0.., |_, out: &String| Some(plain(out.clone())))
                .with_after_commit(move |n| seen2.lock().unwrap().push(n));
        let meta = |seq| ChunkMeta {
            seq,
            first_line: 0,
            lines: 1,
            bytes: 1,
        };
        journal.chunk_done(&meta(1), &"b".to_string());
        journal.chunk_done(&meta(0), &"a".to_string());
        journal.finish().unwrap();
        assert_eq!(*seen.lock().unwrap(), vec![1, 2]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_start_seq_skips_committed_prefix() {
        let path = tmp("resume-seq");
        let writer = JournalWriter::create(&path).unwrap();
        let journal: ChunkJournal<String> = ChunkJournal::new(writer, 2.., |meta, out| {
            Some(plain(format!("{}:{out}", meta.seq)))
        });
        let meta = |seq| ChunkMeta {
            seq,
            first_line: 0,
            lines: 1,
            bytes: 1,
        };
        // Stale reports for already-committed chunks are ignored.
        journal.chunk_done(&meta(0), &"stale".to_string());
        journal.chunk_done(&meta(2), &"c".to_string());
        journal.chunk_done(&meta(3), &"d".to_string());
        let (_, committed) = journal.finish().unwrap();
        assert_eq!(committed, 2);
        assert_eq!(read_journal(&path).unwrap().records, vec!["2:c", "3:d"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn listed_order_commits_only_the_listed_chunks_in_their_order() {
        let path = tmp("listed");
        let writer = JournalWriter::create(&path).unwrap();
        let journal: ChunkJournal<String> =
            ChunkJournal::new(writer, vec![1, 4, 6], |meta, out| {
                Some(plain(format!("{}:{out}", meta.seq)))
            });
        let meta = |seq| ChunkMeta {
            seq,
            first_line: 0,
            lines: 1,
            bytes: 1,
        };
        journal.chunk_done(&meta(6), &"f".to_string());
        journal.chunk_done(&meta(4), &"d".to_string());
        assert!(read_journal(&path).unwrap().records.is_empty());
        journal.chunk_done(&meta(1), &"a".to_string());
        // Past the end of the order: nothing more commits.
        journal.chunk_done(&meta(7), &"g".to_string());
        let (_, committed) = journal.finish().unwrap();
        assert_eq!(committed, 3);
        assert_eq!(
            read_journal(&path).unwrap().records,
            vec!["1:a", "4:d", "6:f"]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn an_attachment_is_durable_before_the_record_that_names_it() {
        let (path, rows) = (tmp("attached"), tmp("attached.rows"));
        let attachments = File::create(&rows).unwrap();
        let writer = JournalWriter::create(&path)
            .unwrap()
            .with_attachments(attachments);
        let journal: ChunkJournal<String> = ChunkJournal::new(writer, 0.., |meta, out: &String| {
            Some(Commit {
                payload: format!("{}:{}", meta.seq, out.len()),
                attachment: (!out.is_empty()).then(|| out.clone().into_bytes()),
            })
        });
        let meta = |seq| ChunkMeta {
            seq,
            first_line: 0,
            lines: 1,
            bytes: 1,
        };
        journal.chunk_done(&meta(1), &String::new());
        journal.chunk_done(&meta(2), &"cc".to_string());
        journal.chunk_done(&meta(0), &"aaa".to_string());
        journal.finish().unwrap();
        assert_eq!(
            read_journal(&path).unwrap().records,
            vec!["0:3", "1:0", "2:2"]
        );
        assert_eq!(std::fs::read(&rows).unwrap(), b"aaacc");
        std::fs::remove_file(&rows).unwrap();

        // An attachment that cannot be written commits no record.
        #[cfg(target_os = "linux")]
        {
            let full = File::options().write(true).open("/dev/full").unwrap();
            let writer = JournalWriter::create(&path).unwrap().with_attachments(full);
            let journal: ChunkJournal<String> =
                ChunkJournal::new(writer, 0.., |_, out: &String| {
                    Some(Commit {
                        payload: out.clone(),
                        attachment: Some(out.clone().into_bytes()),
                    })
                });
            journal.chunk_done(&meta(0), &"lost".to_string());
            assert!(journal.finish().is_err());
            assert!(read_journal(&path).unwrap().records.is_empty());
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A tail torn inside a multi-byte character is a torn tail: the
    /// intact records before it are read, at every byte of the cut.
    #[test]
    fn a_tail_torn_inside_a_character_is_a_torn_tail() {
        let path = tmp("utf8-tail");
        let mut writer = JournalWriter::create(&path).unwrap();
        for payload in ["{\"naïve\":1}", "{\"café\":\"ü2\"}"] {
            writer.append(payload).unwrap();
        }
        drop(writer);
        let whole = std::fs::read(&path).unwrap();
        let last = whole[..whole.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let record = &whole[last..];
        let at = record.windows(2).position(|w| w == "é".as_bytes()).unwrap();
        for cut in at..at + "é".len() {
            let mut bytes = whole.clone();
            bytes.extend_from_slice(&record[..cut]);
            std::fs::write(&path, &bytes).unwrap();
            let read = read_journal(&path).unwrap();
            assert!(read.truncated, "cut at {cut}");
            assert_eq!(read.records.len(), 2, "cut at {cut}");
            assert_eq!(read.valid_bytes, whole.len() as u64, "cut at {cut}");
        }
        // A frame whose CRC holds but whose payload is no UTF-8 is torn.
        let mut bytes = whole.clone();
        bytes.extend_from_slice(format!("{:08x} ", crc32(b"\xc3")).as_bytes());
        bytes.extend_from_slice(b"\xc3\n");
        std::fs::write(&path, &bytes).unwrap();
        let read = read_journal(&path).unwrap();
        assert!(read.truncated);
        assert_eq!(read.records.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
