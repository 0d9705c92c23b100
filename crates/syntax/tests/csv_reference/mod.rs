//! The CSV decoder before its cells were scanned once: the test suites'
//! reference for `CsvDecoder`.
//!
//! `take_cell`, `cell_end`, `sniff` and `decode_events` are the bodies the
//! decoder shipped with when every unquoted cell was searched for the
//! delimiter twice (once for its text, once for its end), a quoted cell's
//! end was recomputed by counting its quotes, and every unquoted cell was
//! tried as an `i64`, then as an `f64`, before it was called a string.
//! They share no code with the decoder's scan or its sniffer, so a
//! misreading of one shows up as a disagreement with the other.
#![allow(dead_code)]

use std::borrow::Cow;

use jsonx_data::Number;
use jsonx_syntax::{
    EventReceiver, ParseError, ParseErrorKind, ParseLimits, RawEvent, RecordDecoder, RecordLimit,
};

/// A header's field names, the delimiter and the limits, decoded as the
/// reference decoder did.
#[derive(Debug, Clone)]
pub struct Reference {
    pub fields: Vec<String>,
    pub delimiter: u8,
    pub limits: ParseLimits,
}

/// One parsed cell: where it started, its unescaped text, and whether it
/// was quoted (quoted cells skip scalar sniffing).
struct Cell<'a> {
    start: usize,
    text: Cow<'a, str>,
    quoted: bool,
}

impl Reference {
    /// Parses the cell starting at `start`, returning its unescaped text
    /// and quoting. The cell's end is recomputed by [`cell_end`] (closing
    /// delimiter position or end-of-line).
    fn take_cell<'a>(&self, record: &'a str, start: usize) -> Result<Cell<'a>, ParseError> {
        let bytes = record.as_bytes();
        if bytes.get(start) == Some(&b'"') {
            // Quoted cell: scan for the closing quote, unescaping "".
            let mut buf: Option<String> = None;
            let mut seg_start = start + 1;
            let mut i = start + 1;
            loop {
                match bytes.get(i) {
                    None => {
                        // Quote still open at end-of-line: the newline is a
                        // hard record boundary, so this row is malformed.
                        return Err(ParseError::at(
                            ParseErrorKind::UnexpectedEof,
                            bytes,
                            bytes.len(),
                        ));
                    }
                    Some(b'"') if bytes.get(i + 1) == Some(&b'"') => {
                        let buf = buf.get_or_insert_with(String::new);
                        buf.push_str(&record[seg_start..i]);
                        buf.push('"');
                        i += 2;
                        seg_start = i;
                    }
                    Some(b'"') => {
                        match bytes.get(i + 1) {
                            None => {}
                            Some(&d) if d == self.delimiter => {}
                            Some(&other) => {
                                return Err(ParseError::at(
                                    ParseErrorKind::UnexpectedByte(other),
                                    bytes,
                                    i + 1,
                                ));
                            }
                        }
                        let text = match buf {
                            Some(mut b) => {
                                b.push_str(&record[seg_start..i]);
                                Cow::Owned(b)
                            }
                            None => Cow::Borrowed(&record[seg_start..i]),
                        };
                        return Ok(Cell {
                            start,
                            text,
                            quoted: true,
                        });
                    }
                    Some(_) => i += 1,
                }
            }
        } else {
            let end = bytes[start..]
                .iter()
                .position(|&b| b == self.delimiter)
                .map(|p| start + p)
                .unwrap_or(bytes.len());
            Ok(Cell {
                start,
                text: Cow::Borrowed(&record[start..end]),
                quoted: false,
            })
        }
    }

    /// Sniffs an unquoted cell's scalar type. Quoted cells are always
    /// strings; this is only called for unquoted text.
    fn sniff<'a>(text: &Cow<'a, str>) -> RawEvent<'a> {
        let t: &str = text;
        if t.is_empty() {
            return RawEvent::Null;
        }
        match t {
            "true" => return RawEvent::Bool(true),
            "false" => return RawEvent::Bool(false),
            _ => {}
        }
        if let Ok(i) = t.parse::<i64>() {
            return RawEvent::Num(Number::Int(i));
        }
        if let Ok(f) = t.parse::<f64>() {
            if let Some(n) = Number::from_f64(f) {
                return RawEvent::Num(n);
            }
        }
        RawEvent::Str(text.clone())
    }
}

/// The byte position just past `cell`'s content (the delimiter position,
/// or the line length when the cell is last).
fn cell_end(bytes: &[u8], cell: &Cell<'_>, delimiter: u8) -> usize {
    if cell.quoted {
        // start + opening quote + content (escaped "" doubles back to two
        // source bytes per produced quote) + closing quote.
        let escaped_quotes = cell.text.matches('"').count();
        cell.start + 1 + cell.text.len() + escaped_quotes + 1
    } else {
        bytes[cell.start..]
            .iter()
            .position(|&b| b == delimiter)
            .map(|p| cell.start + p)
            .unwrap_or(bytes.len())
    }
}

impl RecordDecoder for Reference {
    type Scratch = ();

    fn scratch(&self) {}

    fn decode_events<R: EventReceiver + ?Sized>(
        &self,
        _scratch: &mut (),
        record: &str,
        recv: &mut R,
    ) -> Result<(), ParseError> {
        let bytes = record.as_bytes();
        if let Some(cap) = self.limits.max_input_bytes {
            if bytes.len() > cap {
                return Err(ParseError::at(
                    ParseErrorKind::LimitExceeded(RecordLimit::InputBytes),
                    bytes,
                    cap,
                ));
            }
        }
        recv.event(&RawEvent::StartObject);
        let mut pos = 0;
        let mut idx = 0;
        loop {
            let cell = self.take_cell(record, pos)?;
            if idx >= self.fields.len() {
                return Err(ParseError::at(
                    ParseErrorKind::TrailingData,
                    bytes,
                    cell.start,
                ));
            }
            if let Some(cap) = self.limits.max_string_bytes {
                if cell.text.len() > cap {
                    return Err(ParseError::at(
                        ParseErrorKind::LimitExceeded(RecordLimit::StringBytes),
                        bytes,
                        cell.start,
                    ));
                }
            }
            recv.event(&RawEvent::Key(Cow::Borrowed(&self.fields[idx])));
            if cell.quoted {
                recv.event(&RawEvent::Str(cell.text.clone()));
            } else {
                recv.event(&Self::sniff(&cell.text));
            }
            idx += 1;
            let end = cell_end(bytes, &cell, self.delimiter);
            match bytes.get(end) {
                Some(_) => pos = end + 1,
                None => break,
            }
        }
        recv.event(&RawEvent::EndObject);
        Ok(())
    }
}
