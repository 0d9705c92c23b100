//! No-panic fuzzing of the serve framer's buffering: streams of valid
//! lines, empty lines, `\r\n` endings, lines that are not UTF-8 and
//! lines over a small cap, pushed into a [`LineBuffer`] in reads of any
//! size from one byte to the whole stream. Whatever the pieces:
//!
//! * the buffer never panics;
//! * the frames it gives are a reference split of the whole stream on
//!   `\n` — each line as it was sent (a `\r` kept for the verb parser to
//!   trim), `BadUtf8` for a line that is not UTF-8, and `Oversized`, then
//!   nothing more, for the first line longer than the cap, its newline
//!   sent or not;
//! * a line still unterminated at the end gives no frame.
//!
//! `PROPTEST_SEED=N` draws fresh streams; a failure names its seed.

use jsonx_serve::framing::{Frame, LineBuffer};
use proptest::prelude::*;

/// The cap the streams are framed under.
const CAP: usize = 24;

/// A frame with its bytes owned, to compare against the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Owned {
    Line(String),
    BadUtf8,
    Oversized,
}

/// Text a valid line is made of: multi-byte characters to be split
/// across reads, a lone `\r` inside a line, JSON punctuation.
fn arb_text() -> impl Strategy<Value = String> {
    let piece = prop::sample::select(vec![
        "a",
        "VALIDATE ",
        "{",
        "}",
        "\"",
        "\\",
        " ",
        "é",
        "😀",
        "\r",
        "\t",
        "0",
    ]);
    prop::collection::vec(piece, 0..6).prop_map(|pieces| pieces.concat())
}

/// One line's bytes, without its newline.
fn arb_line() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_text().prop_map(String::into_bytes),
        Just(Vec::new()),
        arb_text().prop_map(|text| format!("{text}\r").into_bytes()),
        // Not UTF-8: a byte no character starts with, a character cut
        // short, a surrogate's encoding.
        (
            arb_text(),
            prop::sample::select(vec![&b"\xff"[..], b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]),
            arb_text(),
        )
            .prop_map(|(head, bad, tail)| [head.as_bytes(), bad, tail.as_bytes()].concat()),
        // Over the cap, and at it.
        (CAP + 1..CAP * 3).prop_map(|n| vec![b'x'; n]),
        (CAP - 2..CAP + 1).prop_map(|n| vec![b'y'; n]),
    ]
}

/// A stream: lines, each with its newline, then maybe an unterminated
/// tail.
fn arb_stream() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(arb_line(), 0..12),
        arb_line(),
        any::<bool>(),
    )
        .prop_map(|(lines, tail, terminated)| {
            let mut stream = Vec::new();
            for line in lines {
                stream.extend_from_slice(&line);
                stream.push(b'\n');
            }
            stream.extend_from_slice(&tail);
            if terminated {
                stream.push(b'\n');
            }
            stream
        })
}

/// The read sizes: single bytes, small pieces, or everything left.
fn arb_reads() -> impl Strategy<Value = Vec<usize>> {
    let read = prop_oneof![Just(1usize), 1..8usize, 1..64usize, Just(usize::MAX)];
    prop::collection::vec(read, 1..40)
}

/// The frames of `stream`, split in one piece.
fn reference(stream: &[u8]) -> Vec<Owned> {
    let mut frames = Vec::new();
    let mut parts = stream.split(|&b| b == b'\n').peekable();
    while let Some(line) = parts.next() {
        let terminated = parts.peek().is_some();
        if line.len() > CAP {
            frames.push(Owned::Oversized);
            break;
        }
        if !terminated {
            break;
        }
        frames.push(match std::str::from_utf8(line) {
            Ok(text) => Owned::Line(text.to_string()),
            Err(_) => Owned::BadUtf8,
        });
    }
    frames
}

/// The frames a [`LineBuffer`] gives when `stream` arrives in reads of
/// `reads` bytes (the last size repeating).
fn framed(stream: &[u8], reads: &[usize]) -> Vec<Owned> {
    let mut lines = LineBuffer::new(CAP);
    let mut frames = Vec::new();
    let mut at = 0;
    let mut sizes = reads.iter().chain(std::iter::repeat(reads.last().unwrap()));
    while at < stream.len() {
        let n = (*sizes.next().unwrap()).min(stream.len() - at);
        lines.push(&stream[at..at + n]);
        at += n;
        while let Some(frame) = lines.next_frame() {
            frames.push(match frame {
                Frame::Line(text) => Owned::Line(text.to_string()),
                Frame::BadUtf8 => Owned::BadUtf8,
                Frame::Oversized => Owned::Oversized,
            });
            if frames.last() == Some(&Owned::Oversized) {
                return frames;
            }
        }
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn frames_equal_the_reference_split_whatever_the_reads(
        stream in arb_stream(),
        reads in arb_reads(),
    ) {
        prop_assert_eq!(framed(&stream, &reads), reference(&stream));
    }
}

#[test]
fn pipelined_frames_come_out_of_one_read_in_order() {
    let mut lines = LineBuffer::new(CAP);
    lines.push(b"PING\r\n\nSTATS\nVALI");
    assert_eq!(lines.next_frame(), Some(Frame::Line("PING\r")));
    assert_eq!(lines.next_frame(), Some(Frame::Line("")));
    assert_eq!(lines.next_frame(), Some(Frame::Line("STATS")));
    assert_eq!(lines.next_frame(), None);
    assert_eq!(lines.pending(), 4);
    lines.push(b"DATE {}\n");
    assert_eq!(lines.next_frame(), Some(Frame::Line("VALIDATE {}")));
    assert_eq!(lines.pending(), 0);
}
