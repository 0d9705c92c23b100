//! Out-of-core chunked input: newline-aligned byte chunks with sequence
//! numbers, claimed dynamically by workers.
//!
//! A [`ChunkSource`] is the unit of work distribution. Workers *claim*
//! chunks one at a time — a shared atomic cursor over pre-split
//! descriptors for in-memory input ([`SliceChunks`]), a guarded
//! incremental reader for input larger than RAM ([`ReaderChunks`]) — so
//! a straggler chunk delays only the worker holding it while the rest of
//! the pool keeps draining the queue. Every
//! chunk carries its **sequence number** and the global index of its
//! first line; the engine fuses per-chunk results in sequence order, so
//! the merged result (and with it FailFast first-error-line selection
//! and `RunReport` determinism) is exactly the sequential fold's.
//!
//! Bounded memory: [`ReaderChunks`] hands out owned chunk buffers and
//! takes them back through [`ChunkSource::recycle`], retaining at most a
//! small ring of them. Each worker holds at most one chunk at a time, so
//! peak resident chunk memory is `O(workers × chunk_bytes)` (plus one
//! oversized record, since chunks are never split mid-line) regardless of
//! corpus size.

use crate::shard::{chunk_lines, count_newlines};
use std::borrow::Cow;
use std::fmt;
use std::io::{BufRead, Read, Seek, SeekFrom};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default target chunk size for chunked dispatch (1 MiB): large enough
/// to amortise claim-cursor traffic and per-chunk state extraction, small
/// enough that a corpus splits into many stealable units per worker.
pub const DEFAULT_CHUNK_BYTES: usize = 1 << 20;

/// How many chunks per worker the automatic chunk sizing aims for. More
/// chunks means finer-grained stealing (stragglers redistribute better)
/// at the cost of more claim/merge overhead.
pub(crate) const CHUNKS_PER_WORKER: usize = 8;

/// One claimed unit of work: a newline-aligned run of whole lines.
#[derive(Debug)]
pub struct Chunk<'a> {
    /// Position of this chunk in the input's chunk sequence; per-chunk
    /// results are fused in `seq` order.
    pub seq: usize,
    /// Global (whole-input) index of the chunk's first line.
    pub first_line: usize,
    /// The chunk's text: borrowed for in-memory sources, owned (and
    /// recyclable) for readers.
    pub text: Cow<'a, str>,
}

/// Why a chunk source stopped producing chunks.
#[derive(Debug)]
pub enum ChunkError {
    /// The underlying reader failed.
    Io {
        /// Sequence number the failed chunk would have had.
        chunk: usize,
        /// The reader's error.
        source: std::io::Error,
    },
    /// The input is not valid UTF-8.
    NotUtf8 {
        /// Zero-based line index where the invalid byte sequence starts.
        line: usize,
    },
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::Io { chunk, source } => {
                write!(f, "reading input chunk {chunk}: {source}")
            }
            ChunkError::NotUtf8 { line } => {
                write!(f, "input is not valid UTF-8 (at line {})", line + 1)
            }
        }
    }
}

impl std::error::Error for ChunkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChunkError::Io { source, .. } => Some(source),
            ChunkError::NotUtf8 { .. } => None,
        }
    }
}

/// A shared queue of newline-aligned chunks, claimed by workers one at a
/// time. Implementations must be safely claimable from many threads
/// (`Sync`); `next_chunk` takes `&self`.
pub trait ChunkSource: Sync {
    /// Claims the next chunk, `Ok(None)` once the input is exhausted.
    /// Claims are totally ordered by `seq` but workers interleave freely.
    fn next_chunk(&self) -> Result<Option<Chunk<'_>>, ChunkError>;

    /// Returns an owned chunk buffer for reuse after the worker has
    /// drained it. In-memory sources hand out borrowed text and ignore
    /// this.
    fn recycle(&self, _buf: String) {}
}

// ---------------------------------------------------------------------------
// In-memory source
// ---------------------------------------------------------------------------

/// Zero-copy chunk source over an in-memory slice: the input is pre-split
/// into newline-aligned descriptors once, and workers claim them through
/// a shared atomic cursor.
pub struct SliceChunks<'a> {
    chunks: Vec<crate::shard::Shard<'a>>,
    cursor: AtomicUsize,
}

impl<'a> SliceChunks<'a> {
    /// Pre-splits `input` at newline boundaries into chunks of roughly
    /// `target_bytes` each (a record longer than the target gets its own
    /// oversized chunk).
    pub fn new(input: &'a str, target_bytes: usize) -> Self {
        SliceChunks {
            chunks: chunk_lines(input, target_bytes),
            cursor: AtomicUsize::new(0),
        }
    }

    /// How many chunks the input split into.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the input produced no chunks (empty input).
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }
}

impl ChunkSource for SliceChunks<'_> {
    fn next_chunk(&self) -> Result<Option<Chunk<'_>>, ChunkError> {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        Ok(self.chunks.get(idx).map(|shard| Chunk {
            seq: idx,
            first_line: shard.first_line,
            text: Cow::Borrowed(shard.text),
        }))
    }
}

// ---------------------------------------------------------------------------
// Out-of-core reader source
// ---------------------------------------------------------------------------

/// Incremental chunk source over any [`BufRead`]: corpora much larger
/// than RAM stream through a bounded ring of reusable chunk buffers.
///
/// A claim reads the chunk target's bytes straight into the chunk buffer
/// in bulk, then the rest of the line the target falls in
/// (`read_until`, which leaves the bytes past that newline in the
/// reader's own buffer for the next claim). So a chunk ends at the first
/// newline at or past the target, or at EOF — the rule [`chunk_lines`]
/// cuts an in-memory input by — and a record longer than the target is
/// one larger chunk. Each chunk's UTF-8 is checked once and its lines
/// counted eight bytes at a time. Reads are serialised behind a mutex —
/// the reader is effectively a single producer — while chunk
/// *processing* runs unlocked on the claiming worker.
pub struct ReaderChunks<R> {
    inner: Mutex<ReaderState<R>>,
    chunk_bytes: usize,
    ring: usize,
}

struct ReaderState<R> {
    reader: R,
    /// Spent chunk buffers, their old bytes kept: a claim overwrites them
    /// instead of zeroing a fresh target's worth.
    pool: Vec<Vec<u8>>,
    seq: usize,
    next_line: usize,
    done: bool,
}

impl<R: BufRead> ReaderChunks<R> {
    /// Wraps `reader`, targeting `chunk_bytes` per chunk and retaining at
    /// most `ring` recycled buffers (both floored at sane minimums).
    pub fn new(reader: R, chunk_bytes: usize, ring: usize) -> Self {
        Self::with_offset(reader, chunk_bytes, ring, 0, 0)
    }

    /// Like [`new`](Self::new) but starting the chunk sequence at
    /// `first_seq` and the global line numbering at `first_line` — the
    /// resume constructor. The caller must have positioned `reader` at
    /// the byte offset where chunk `first_seq` begins (the sum of the
    /// committed chunks' byte lengths); chunk boundaries depend only on
    /// the byte stream and `chunk_bytes`, never the worker count, so the
    /// resumed sequence reproduces the original run's chunks exactly.
    pub fn with_offset(
        reader: R,
        chunk_bytes: usize,
        ring: usize,
        first_seq: usize,
        first_line: usize,
    ) -> Self {
        ReaderChunks {
            inner: Mutex::new(ReaderState {
                reader,
                pool: Vec::new(),
                seq: first_seq,
                next_line: first_line,
                done: false,
            }),
            chunk_bytes: chunk_bytes.max(1),
            ring: ring.max(1),
        }
    }
}

/// Room a chunk buffer is given past the target for the line the target
/// falls in, capped at the target itself so the buffer stays under the
/// recycle cap of twice the target.
const TAIL_ROOM: usize = 64 << 10;

/// How far a claim reserves and zero-fills its buffer ahead of the bytes
/// it has read: a target far past the input costs no more memory than
/// the input.
const READ_STEP: usize = 1 << 20;

/// Reads until `buf` holds `want` bytes or the input ends, retrying
/// `ErrorKind::Interrupted` — a signal landing mid-read is not data loss.
/// Returns whether `want` bytes arrived; `buf` holds exactly what was read.
fn fill<R: Read>(reader: &mut R, buf: &mut Vec<u8>, want: usize) -> std::io::Result<bool> {
    // A recycled buffer's old bytes are overwritten, not zeroed first.
    buf.truncate(want);
    let mut len = 0;
    let result = loop {
        if len == want {
            break Ok(true);
        }
        if len == buf.len() {
            buf.resize(want.min(len + READ_STEP), 0);
        }
        match reader.read(&mut buf[len..]) {
            Ok(0) => break Ok(false),
            Ok(n) => len += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    buf.truncate(len);
    result
}

impl<R: BufRead + Send> ChunkSource for ReaderChunks<R> {
    fn next_chunk(&self) -> Result<Option<Chunk<'_>>, ChunkError> {
        let mut guard = self
            .inner
            .lock()
            .expect("no claim panics with the lock held");
        let st = &mut *guard;
        if st.done {
            return Ok(None);
        }
        // Reserved once, so a recycled buffer does not regrow.
        let mut buf = st.pool.pop().unwrap_or_default();
        let room = self.chunk_bytes.min(READ_STEP) + TAIL_ROOM.min(self.chunk_bytes);
        buf.reserve_exact(room.saturating_sub(buf.len()));
        let read = fill(&mut st.reader, &mut buf, self.chunk_bytes).and_then(|full| {
            // The target ends mid-line: the chunk takes the rest of it.
            if full && buf.last() != Some(&b'\n') {
                st.reader.read_until(b'\n', &mut buf)?;
            }
            Ok(full && buf.last() == Some(&b'\n'))
        });
        let more = match read {
            Ok(more) => more,
            Err(source) => {
                // Latch exhaustion so the other workers drain out
                // cleanly while this claim carries the error.
                st.done = true;
                return Err(ChunkError::Io {
                    chunk: st.seq,
                    source,
                });
            }
        };
        st.done = !more;
        if buf.is_empty() {
            if st.pool.len() < self.ring {
                st.pool.push(buf);
            }
            return Ok(None);
        }
        let first_line = st.next_line;
        let text = String::from_utf8(buf).map_err(|e| {
            st.done = true;
            let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
            ChunkError::NotUtf8 {
                line: first_line + count_newlines(valid),
            }
        })?;
        // An unterminated last line is a line too.
        st.next_line += count_newlines(text.as_bytes()) + usize::from(!text.ends_with('\n'));
        let seq = st.seq;
        st.seq += 1;
        Ok(Some(Chunk {
            seq,
            first_line,
            text: Cow::Owned(text),
        }))
    }

    fn recycle(&self, buf: String) {
        // A chunk that swallowed one giant record would pin its capacity
        // forever; let oversized buffers drop instead.
        if buf.capacity() > self.chunk_bytes.saturating_mul(2) {
            return;
        }
        let mut st = self.inner.lock().unwrap();
        if st.pool.len() < self.ring {
            st.pool.push(buf.into_bytes());
        }
    }
}

// ---------------------------------------------------------------------------
// Parts of an input that was chunked before
// ---------------------------------------------------------------------------

/// A source that stops after its first `limit` chunks.
pub struct FirstChunks<'s, S: ?Sized> {
    inner: &'s S,
    limit: usize,
    claimed: AtomicUsize,
}

impl<'s, S: ChunkSource + ?Sized> FirstChunks<'s, S> {
    /// The first `limit` chunks of `inner`.
    pub fn new(inner: &'s S, limit: usize) -> Self {
        FirstChunks {
            inner,
            limit,
            claimed: AtomicUsize::new(0),
        }
    }
}

impl<S: ChunkSource + ?Sized> ChunkSource for FirstChunks<'_, S> {
    fn next_chunk(&self) -> Result<Option<Chunk<'_>>, ChunkError> {
        // Counts claims, not chunks: `inner` hands its chunks out in
        // sequence order, so the first `limit` claims are the first
        // `limit` chunks.
        if self.claimed.fetch_add(1, Ordering::Relaxed) >= self.limit {
            return Ok(None);
        }
        self.inner.next_chunk()
    }

    fn recycle(&self, buf: String) {
        self.inner.recycle(buf);
    }
}

/// Where one chunk of an earlier pass sits in the input — what a later
/// pass needs to read that chunk, and only it, again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpan {
    /// The chunk's position in the input's chunk sequence.
    pub seq: usize,
    /// Global index of the chunk's first line.
    pub first_line: usize,
    /// Byte offset of the chunk's first byte from the first chunk's.
    pub offset: u64,
    /// The chunk's size in bytes.
    pub bytes: usize,
}

/// A cursor over a listed set of an input's chunks: a later pass reads
/// them in list order, under the sequence and line numbers they had when
/// the whole input was chunked.
struct Listed<'a> {
    spans: &'a [ChunkSpan],
    cursor: AtomicUsize,
}

impl<'a> Listed<'a> {
    fn new(spans: &'a [ChunkSpan]) -> Self {
        Listed {
            spans,
            cursor: AtomicUsize::new(0),
        }
    }

    fn claim(&self) -> Option<&'a ChunkSpan> {
        self.spans.get(self.cursor.fetch_add(1, Ordering::Relaxed))
    }
}

/// The listed chunks of an in-memory input, borrowed.
pub struct ListedSlice<'a> {
    input: &'a str,
    listed: Listed<'a>,
}

impl<'a> ListedSlice<'a> {
    /// The chunks `spans` lists of `input`, whose first chunk starts at
    /// its first byte.
    pub fn new(input: &'a str, spans: &'a [ChunkSpan]) -> Self {
        ListedSlice {
            input,
            listed: Listed::new(spans),
        }
    }
}

impl ChunkSource for ListedSlice<'_> {
    fn next_chunk(&self) -> Result<Option<Chunk<'_>>, ChunkError> {
        Ok(self.listed.claim().map(|span| {
            let start = span.offset as usize;
            Chunk {
                seq: span.seq,
                first_line: span.first_line,
                text: Cow::Borrowed(&self.input[start..start + span.bytes]),
            }
        }))
    }
}

/// The listed chunks of a file, each read by seeking to it.
pub struct ListedFile<'a, R> {
    input: Mutex<R>,
    base: u64,
    listed: Listed<'a>,
}

impl<'a, R: Read + Seek> ListedFile<'a, R> {
    /// The chunks `spans` lists of `input`, whose first chunk starts at
    /// byte `base`.
    pub fn new(input: R, base: u64, spans: &'a [ChunkSpan]) -> Self {
        ListedFile {
            input: Mutex::new(input),
            base,
            listed: Listed::new(spans),
        }
    }
}

impl<R: Read + Seek + Send> ChunkSource for ListedFile<'_, R> {
    fn next_chunk(&self) -> Result<Option<Chunk<'_>>, ChunkError> {
        let Some(span) = self.listed.claim() else {
            return Ok(None);
        };
        let io = |source| ChunkError::Io {
            chunk: span.seq,
            source,
        };
        let mut bytes = vec![0; span.bytes];
        {
            let mut input = self
                .input
                .lock()
                .expect("no claim panics with the lock held");
            input
                .seek(SeekFrom::Start(self.base + span.offset))
                .map_err(io)?;
            input.read_exact(&mut bytes).map_err(io)?;
        }
        let text = String::from_utf8(bytes).map_err(|e| {
            let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
            ChunkError::NotUtf8 {
                line: span.first_line + count_newlines(valid),
            }
        })?;
        Ok(Some(Chunk {
            seq: span.seq,
            first_line: span.first_line,
            text: Cow::Owned(text),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn drain<S: ChunkSource>(source: &S) -> Vec<(usize, usize, String)> {
        let mut out = Vec::new();
        while let Some(chunk) = source.next_chunk().unwrap() {
            out.push((chunk.seq, chunk.first_line, chunk.text.to_string()));
            if let Cow::Owned(buf) = chunk.text {
                source.recycle(buf);
            }
        }
        out
    }

    fn corpus(n: usize) -> String {
        (0..n).map(|i| format!("{{\"id\": {i}}}\n")).collect()
    }

    #[test]
    fn slice_and_reader_chunks_agree() {
        for input in [
            corpus(100),
            corpus(1),
            "no trailing newline".to_string(),
            "a\n\n\nb".to_string(),
            String::new(),
        ] {
            for target in [1usize, 7, 64, 1 << 20] {
                let slice = SliceChunks::new(&input, target);
                let from_slice = drain(&slice);
                let reader = ReaderChunks::new(Cursor::new(input.as_bytes()), target, 2);
                let from_reader = drain(&reader);
                assert_eq!(from_slice, from_reader, "target={target}");
                let rejoined: String = from_slice.iter().map(|(_, _, t)| t.as_str()).collect();
                assert_eq!(rejoined, input);
                // Sequence numbers are dense and first_line is cumulative.
                let mut line = 0usize;
                for (i, (seq, first_line, text)) in from_slice.iter().enumerate() {
                    assert_eq!(*seq, i);
                    assert_eq!(*first_line, line);
                    line += text.lines().count();
                }
            }
        }
    }

    #[test]
    fn first_and_listed_chunks_are_the_whole_inputs_chunks() {
        let input = corpus(60);
        for target in [1usize, 40, 200] {
            let all = drain(&SliceChunks::new(&input, target));
            let whole = SliceChunks::new(&input, target);
            assert_eq!(drain(&FirstChunks::new(&whole, 2)), all[..2.min(all.len())]);
            // Every third chunk, by where a pass over all of them saw it.
            let mut offset = 0;
            let spans: Vec<ChunkSpan> = all
                .iter()
                .map(|(seq, first_line, text)| {
                    let span = ChunkSpan {
                        seq: *seq,
                        first_line: *first_line,
                        offset,
                        bytes: text.len(),
                    };
                    offset += text.len() as u64;
                    span
                })
                .step_by(3)
                .collect();
            let want: Vec<_> = all.iter().step_by(3).cloned().collect();
            assert_eq!(drain(&ListedSlice::new(&input, &spans)), want);
            // From a file whose first chunk starts past a header.
            let file = format!("header\n{input}");
            let listed = ListedFile::new(Cursor::new(file.into_bytes()), 7, &spans);
            assert_eq!(drain(&listed), want, "target={target}");
        }
        let bad = ChunkSpan {
            seq: 4,
            first_line: 9,
            offset: 0,
            bytes: 4,
        };
        let listed = ListedFile::new(
            Cursor::new(b"a\n\xff\n".to_vec()),
            0,
            std::slice::from_ref(&bad),
        );
        assert!(matches!(
            listed.next_chunk(),
            Err(ChunkError::NotUtf8 { line: 10 })
        ));
        let short = ListedFile::new(Cursor::new(b"a\n".to_vec()), 0, std::slice::from_ref(&bad));
        assert!(matches!(
            short.next_chunk(),
            Err(ChunkError::Io { chunk: 4, .. })
        ));
    }

    #[test]
    fn oversized_record_gets_its_own_chunk() {
        let long = format!("{{\"blob\": \"{}\"}}\n", "x".repeat(4096));
        let input = format!("{{\"a\": 1}}\n{long}{{\"b\": 2}}\n");
        let source = SliceChunks::new(&input, 16);
        let chunks = drain(&source);
        assert!(chunks.iter().any(|(_, _, t)| t.len() > 4096));
        // Every chunk is newline-terminated (no record split).
        for (_, _, text) in &chunks {
            assert!(text.ends_with('\n'));
        }
        let rejoined: String = chunks.iter().map(|(_, _, t)| t.as_str()).collect();
        assert_eq!(rejoined, input);
    }

    #[test]
    fn reader_rejects_non_utf8_cleanly() {
        let mut bytes = b"{\"ok\": 1}\n".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, b'\n']);
        let reader = ReaderChunks::new(Cursor::new(bytes), 4, 2);
        // First claim may carry the valid line or the error depending on
        // the target; drain until the error surfaces.
        let mut saw_error = None;
        loop {
            match reader.next_chunk() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    saw_error = Some(e);
                    break;
                }
            }
        }
        match saw_error {
            Some(ChunkError::NotUtf8 { line }) => assert_eq!(line, 1),
            other => panic!("expected NotUtf8, got {other:?}"),
        }
        // After an error the source reports exhaustion, not a hang.
        assert!(matches!(reader.next_chunk(), Ok(None)));
    }

    /// A reader whose `read` and `fill_buf` fail with `Interrupted` on
    /// every other call — the EINTR shape the bulk read and the line tail
    /// must absorb.
    struct FlakyReader {
        inner: Cursor<Vec<u8>>,
        calls: usize,
    }

    impl FlakyReader {
        fn interrupt(&mut self) -> std::io::Result<()> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "signal landed mid-read",
                ));
            }
            Ok(())
        }
    }

    impl std::io::Read for FlakyReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.interrupt()?;
            self.inner.read(buf)
        }
    }

    impl BufRead for FlakyReader {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.interrupt()?;
            self.inner.fill_buf()
        }

        fn consume(&mut self, amt: usize) {
            self.inner.consume(amt)
        }
    }

    #[test]
    fn interrupted_reads_are_retried_not_fatal() {
        let input = corpus(50);
        // 1 and 16 end most targets mid-line, so the tail read is
        // interrupted too.
        for target in [1usize, 16, 1 << 20] {
            let flaky = FlakyReader {
                inner: Cursor::new(input.clone().into_bytes()),
                calls: 0,
            };
            let reader = ReaderChunks::new(flaky, target, 2);
            let want = drain(&SliceChunks::new(&input, target));
            assert_eq!(drain(&reader), want, "target={target}");
        }
    }

    #[test]
    fn non_interrupted_errors_still_surface() {
        struct BrokenReader;
        impl std::io::Read for BrokenReader {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
        }
        impl BufRead for BrokenReader {
            fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn consume(&mut self, _amt: usize) {}
        }
        let reader = ReaderChunks::new(BrokenReader, 8, 1);
        match reader.next_chunk() {
            Err(ChunkError::Io { chunk, .. }) => assert_eq!(chunk, 0),
            other => panic!("expected Io error, got {other:?}"),
        }
        assert!(matches!(reader.next_chunk(), Ok(None)));
    }

    #[test]
    fn a_target_past_the_input_reads_what_is_there() {
        let input = corpus(3);
        let reader = ReaderChunks::new(Cursor::new(input.clone().into_bytes()), usize::MAX, 2);
        assert_eq!(drain(&reader), [(0, 0, input)]);
    }

    #[test]
    fn recycle_bounds_the_pool() {
        let reader = ReaderChunks::new(Cursor::new(corpus(10).into_bytes()), 8, 1);
        reader.recycle(String::with_capacity(8));
        reader.recycle(String::with_capacity(8));
        assert_eq!(reader.inner.lock().unwrap().pool.len(), 1);
        // Oversized buffers are dropped, not retained.
        let reader = ReaderChunks::new(Cursor::new(Vec::new()), 8, 4);
        reader.recycle(String::with_capacity(1024));
        assert_eq!(reader.inner.lock().unwrap().pool.len(), 0);
    }
}
