//! Property tests for the out-of-core reader ([`ReaderChunks`]) against
//! the in-memory chunker ([`SliceChunks`]): inputs of CRLF and LF lines,
//! blank lines, lines longer than the chunk target and a missing final
//! newline, some with one invalid UTF-8 byte anywhere, delivered through a
//! reader that answers every `read` and `fill_buf` with an arbitrary short
//! piece. Spent buffers go back to the reader's ring between claims, so
//! later chunks are read into buffers that still hold earlier bytes.
//!
//! * A valid input reads to exactly `SliceChunks::new(input, target)`'s
//!   chunks: the same `(seq, first_line, text)`, in order.
//! * An input with an invalid byte reads, before the error, exactly the
//!   chunks that end before the chunk holding it, then fails with
//!   `NotUtf8 { line }` where `line` counts the newlines before the first
//!   invalid byte — what `from_utf8` and a newline count predict — and
//!   then reports exhaustion.
//!
//! `PROPTEST_SEED=N` draws a fresh set of inputs; a failure names its seed.

use jsonx_pipeline::{ChunkError, ChunkSource, ReaderChunks, SliceChunks};
use proptest::prelude::*;
use std::borrow::Cow;
use std::io::{BufRead, Read};

/// A reader that hands its bytes out in the short pieces `sizes` lists,
/// cycled.
struct ShortReads {
    bytes: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    turn: usize,
}

impl ShortReads {
    /// How many bytes the next call may see.
    fn window(&mut self) -> usize {
        let size = self.sizes[self.turn % self.sizes.len()];
        self.turn += 1;
        size.min(self.bytes.len() - self.pos)
    }
}

impl Read for ShortReads {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.window().min(buf.len());
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl BufRead for ShortReads {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let n = self.window();
        Ok(&self.bytes[self.pos..self.pos + n])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

type Chunks = Vec<(usize, usize, String)>;

/// Every chunk `source` yields, recycling each buffer, and the error that
/// ended it, if one did.
fn drain<S: ChunkSource>(source: &S) -> (Chunks, Option<ChunkError>) {
    let mut chunks = Vec::new();
    loop {
        match source.next_chunk() {
            Ok(Some(chunk)) => {
                chunks.push((chunk.seq, chunk.first_line, chunk.text.to_string()));
                if let Cow::Owned(buf) = chunk.text {
                    source.recycle(buf);
                }
            }
            Ok(None) => return (chunks, None),
            Err(e) => return (chunks, Some(e)),
        }
    }
}

/// One line, its terminator included: short text, blank, CRLF, or longer
/// than any target drawn below.
fn arb_line() -> impl Strategy<Value = String> {
    let text = prop_oneof![
        Just(String::new()),
        "[a-z{}:,é😀 ]{1,12}",
        (0usize..400).prop_map(|n| "x".repeat(n + 100)),
    ];
    let end = prop::sample::select(vec!["\n", "\r\n"]);
    (text, end).prop_map(|(text, end)| text + end)
}

/// An input's bytes: lines, maybe without the last newline, maybe with one
/// byte overwritten or inserted by one that no UTF-8 text holds.
fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    let lines = prop::collection::vec(arb_line(), 0..40);
    let bad = (
        any::<bool>(),
        any::<usize>(),
        prop::sample::select(vec![0xffu8, 0x80, 0xc3]),
        any::<bool>(),
    );
    (lines, any::<bool>(), bad).prop_map(|(lines, unterminated, (bad, at, byte, overwrite))| {
        let mut bytes = lines.concat().into_bytes();
        if unterminated && bytes.last() == Some(&b'\n') {
            bytes.pop();
        }
        if bad {
            let at = at % (bytes.len() + 1);
            if overwrite && at < bytes.len() {
                bytes[at] = byte;
            } else {
                bytes.insert(at, byte);
            }
        }
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn the_reader_cuts_where_the_slice_chunker_cuts(
        bytes in arb_input(),
        target in prop_oneof![1usize..8, 8usize..300, Just(1usize << 20)],
        sizes in prop::collection::vec(1usize..64, 1..6),
        ring in 1usize..3,
    ) {
        let reader = ShortReads { bytes: bytes.clone(), pos: 0, sizes, turn: 0 };
        let source = ReaderChunks::new(reader, target, ring);
        let (got, error) = drain(&source);
        match std::str::from_utf8(&bytes) {
            Ok(input) => {
                prop_assert!(error.is_none(), "{:?}", error);
                let (want, _) = drain(&SliceChunks::new(input, target));
                prop_assert_eq!(got, want);
            }
            Err(e) => {
                let valid = &bytes[..e.valid_up_to()];
                let line = valid.iter().filter(|&&b| b == b'\n').count();
                match error {
                    Some(ChunkError::NotUtf8 { line: at }) => prop_assert_eq!(at, line),
                    other => prop_assert!(false, "expected NotUtf8, got {:?}", other),
                }
                prop_assert!(matches!(source.next_chunk(), Ok(None)));
                // The chunks that end before the one holding the bad byte:
                // the whole lines before it, chunked, less a last piece the
                // bad line would have continued.
                let lines = &valid[..valid.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)];
                let lines = std::str::from_utf8(lines).unwrap();
                let (mut want, _) = drain(&SliceChunks::new(lines, target));
                want.retain(|(_, _, text)| text.len() >= target);
                prop_assert_eq!(got, want);
            }
        }
    }
}
