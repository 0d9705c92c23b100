//! The framer's buffering without its socket: bytes in, frames out.
//!
//! [`LineBuffer`] takes the bytes of one connection in whatever pieces
//! its reads return and hands back one [`Frame`] per newline-terminated
//! line. It remembers how far it has searched, so each byte is looked at
//! once however many reads a frame takes, and it takes frames by offset:
//! the bytes of the frames already taken are dropped once, at the next
//! [`push`](LineBuffer::push), not once per frame.
//!
//! A line is the bytes before a `\n`, a `\r` before it included (the
//! verb parser trims it). A line longer than the cap is
//! [`Frame::Oversized`] however its bytes arrive — by the time the cap is
//! passed, before its newline has — and the buffer cannot find the next
//! line's start after it, so the connection ends there.

/// One complete frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A line, its newline stripped.
    Line(&'a str),
    /// A line that was not valid UTF-8.
    BadUtf8,
    /// A line longer than the cap; nothing after it is framed.
    Oversized,
}

/// Where the next frame is, found without borrowing the bytes (so a
/// read loop can look, and read more when there is nothing, before it
/// borrows the frame).
pub(crate) enum Found {
    Line { end: usize },
    Oversized,
}

/// Newline framing over bytes pushed in arbitrary pieces.
#[derive(Debug)]
pub struct LineBuffer {
    buf: Vec<u8>,
    /// Start of the first byte no frame has taken.
    start: usize,
    /// Bytes before this offset hold no newline after `start`.
    scanned: usize,
    cap: usize,
}

impl LineBuffer {
    /// An empty buffer whose lines may be at most `cap` bytes long.
    pub fn new(cap: usize) -> LineBuffer {
        LineBuffer {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            cap,
        }
    }

    /// Appends the bytes of one read, first dropping the frames already
    /// taken.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes pushed that no frame has taken yet.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// The next complete frame, or `None` until more bytes arrive.
    pub fn next_frame(&mut self) -> Option<Frame<'_>> {
        let found = self.find()?;
        Some(self.take(found))
    }

    pub(crate) fn find(&mut self) -> Option<Found> {
        match self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(at) => {
                let end = self.scanned + at;
                Some(if end - self.start > self.cap {
                    Found::Oversized
                } else {
                    Found::Line { end }
                })
            }
            None => {
                self.scanned = self.buf.len();
                (self.pending() > self.cap).then_some(Found::Oversized)
            }
        }
    }

    pub(crate) fn take(&mut self, found: Found) -> Frame<'_> {
        match found {
            Found::Oversized => Frame::Oversized,
            Found::Line { end } => {
                let line = &self.buf[self.start..end];
                self.start = end + 1;
                self.scanned = self.start;
                match std::str::from_utf8(line) {
                    Ok(text) => Frame::Line(text),
                    Err(_) => Frame::BadUtf8,
                }
            }
        }
    }
}
