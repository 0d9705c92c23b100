//! CSV ingestion front-end for the record-decoding seam.
//!
//! [`CsvDecoder`] implements [`RecordDecoder`] over one CSV data row per
//! record: each row decodes to the event stream of a flat JSON object
//! whose keys come from the header and whose scalar values are sniffed
//! from the cell text. Because it sits behind the same seam as the NDJSON
//! decoder, CSV corpora inherit the whole pipeline — type inference,
//! schema validation, columnar translation, error policies, quarantine,
//! work stealing, out-of-core chunking — without any stage knowing the
//! source was not JSON.
//!
//! ## Dialect
//!
//! The dialect is RFC-4180-within-a-line, chosen so records stay aligned
//! with the engine's chunk boundaries:
//!
//! * The newline is a hard record boundary. Quoted fields may not contain
//!   literal line breaks — a row whose quote is still open at end-of-line
//!   is a malformed record (`unexpected-eof`), and both halves reject
//!   cleanly under the run's error policy instead of silently merging
//!   across a chunk split. (Escaped content is unrestricted: `""` encodes
//!   a quote, and any other byte is taken literally.)
//! * A field is *quoted* only when its first byte is `"`. Inside, `""`
//!   encodes one quote; the field ends at the closing quote, which must be
//!   followed by the delimiter or end-of-line (`unexpected-byte`
//!   otherwise). Quoted cells always decode as strings — quoting is the
//!   escape hatch from sniffing (`"5"` is the string, `5` the integer).
//! * Unquoted cells are taken literally and sniffed: empty → `null`,
//!   `true`/`false` → booleans, then an `i64` parse, then a finite `f64`
//!   parse, else a string. (Number sniffing is as lenient as Rust's
//!   numeric `FromStr` — `+5`, `05`, `1e3`, `.5` all read as numbers;
//!   quote a cell to opt out.) The sniffer decides by the first byte past
//!   an optional sign before it parses anything: `FromStr` reads no number
//!   that starts with another byte than an ASCII digit or `.` — only
//!   `inf`, `infinity` and `nan`, which are not finite and stay strings —
//!   so a cell like `user123` is a string at once, and only an all-digit
//!   cell is tried as an `i64`. The verdicts are `FromStr`'s exactly.
//! * Rows shorter than the header simply omit the trailing fields — under
//!   inference those fields become optional, exactly like absent keys in
//!   heterogeneous NDJSON. Rows with *extra* fields are malformed
//!   (`trailing-data` at the first extra cell).
//! * Duplicate header names are kept; a row emits one key event per cell
//!   and downstream object semantics resolve duplicates last-wins, same
//!   as duplicate keys in a JSON document.
//!
//! Record indices reported by the engine count *data* rows: the caller
//! peels the header line off the input before streaming starts (see the
//! CLI's `--format csv`), so "record 0" is the first row after the
//! header.

use std::borrow::Cow;

use crate::decoder::{EventReceiver, RecordDecoder};
use crate::error::{ParseError, ParseErrorKind, RecordLimit};
use crate::event::RawEvent;
use crate::limits::ParseLimits;
use jsonx_data::Number;

/// Header-driven CSV row decoder. See the module docs for the dialect.
#[derive(Debug, Clone)]
pub struct CsvDecoder {
    fields: Vec<String>,
    delimiter: u8,
    limits: ParseLimits,
}

/// One parsed cell: where it started and ended, its unescaped text, and
/// whether it was quoted (quoted cells skip scalar sniffing).
struct Cell<'a> {
    start: usize,
    /// Just past the cell: its delimiter's position, or the line's length
    /// when the cell is last.
    end: usize,
    text: Cow<'a, str>,
    quoted: bool,
}

impl CsvDecoder {
    /// A decoder with explicit field names and the `,` delimiter.
    pub fn new<S: Into<String>>(fields: Vec<S>) -> CsvDecoder {
        CsvDecoder {
            fields: fields.into_iter().map(Into::into).collect(),
            delimiter: b',',
            limits: ParseLimits::default(),
        }
    }

    /// Builds a decoder from a header line, parsed with the same cell
    /// grammar as data rows (so header names may be quoted). The line
    /// must not include its newline terminator; a leading byte-order mark
    /// (U+FEFF) is skipped.
    pub fn from_header(header: &str) -> Result<CsvDecoder, ParseError> {
        Self::from_header_with(header, b',')
    }

    /// [`from_header`](Self::from_header) with a custom delimiter.
    pub fn from_header_with(header: &str, delimiter: u8) -> Result<CsvDecoder, ParseError> {
        // The byte-order mark a spreadsheet export leads its first line
        // with is not part of the first name.
        let header = header.strip_prefix('\u{feff}').unwrap_or(header);
        let template = CsvDecoder {
            fields: Vec::new(),
            delimiter,
            limits: ParseLimits::default(),
        };
        let mut fields = Vec::new();
        let mut pos = 0;
        let bytes = header.as_bytes();
        loop {
            let cell = template.take_cell(header, pos)?;
            fields.push(cell.text.into_owned());
            match bytes.get(cell.end) {
                Some(_) => pos = cell.end + 1,
                None => break,
            }
        }
        Ok(CsvDecoder {
            fields,
            delimiter,
            limits: ParseLimits::default(),
        })
    }

    /// Replaces the per-record resource limits (`max_input_bytes` bounds
    /// the row, `max_string_bytes` each cell; depth does not apply to the
    /// flat rows CSV produces).
    pub fn with_limits(mut self, limits: ParseLimits) -> CsvDecoder {
        self.limits = limits;
        self
    }

    /// The header-derived field names, in column order.
    pub fn fields(&self) -> &[String] {
        &self.fields
    }

    /// Parses the cell starting at `start`, returning its unescaped text,
    /// its quoting and its end — found by the one scan that reads it.
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
                            end: i + 1,
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
                end,
                text: Cow::Borrowed(&record[start..end]),
                quoted: false,
            })
        }
    }

    /// Sniffs an unquoted cell's scalar type. Quoted cells are always
    /// strings; this is only called for unquoted text.
    ///
    /// The first byte past an optional sign decides most cells: numeric
    /// `FromStr` reads nothing that starts with anything but an ASCII
    /// digit or `.`, except `inf`, `infinity` and `nan`, which are not
    /// finite and so stay strings anyway. Only an all-digit cell can be an
    /// `i64`; the rest keep the order `i64` → finite `f64` → string.
    fn sniff(text: &str) -> RawEvent<'_> {
        match text {
            "" => return RawEvent::Null,
            "true" => return RawEvent::Bool(true),
            "false" => return RawEvent::Bool(false),
            _ => {}
        }
        let digits = match text.as_bytes() {
            [b'+' | b'-', rest @ ..] => rest,
            all => all,
        };
        if !matches!(digits.first(), Some(b'0'..=b'9' | b'.')) {
            return RawEvent::Str(Cow::Borrowed(text));
        }
        if digits.iter().all(u8::is_ascii_digit) {
            if let Ok(i) = text.parse::<i64>() {
                return RawEvent::Num(Number::Int(i));
            }
        }
        match text.parse::<f64>().ok().and_then(Number::from_f64) {
            Some(n) => RawEvent::Num(n),
            None => RawEvent::Str(Cow::Borrowed(text)),
        }
    }
}

impl RecordDecoder for CsvDecoder {
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
            recv.event(&match cell.text {
                Cow::Borrowed(text) if !cell.quoted => Self::sniff(text),
                text => RawEvent::Str(text),
            });
            idx += 1;
            match bytes.get(cell.end) {
                Some(_) => pos = cell.end + 1,
                None => break,
            }
        }
        recv.event(&RawEvent::EndObject);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::ValueBuilder;
    use crate::parser::parse;
    use jsonx_data::Value;

    fn decode(decoder: &CsvDecoder, row: &str) -> Result<Value, ParseError> {
        decoder.decode_value(&mut (), row)
    }

    fn expect(decoder: &CsvDecoder, row: &str, json: &str) {
        assert_eq!(
            decode(decoder, row).unwrap_or_else(|e| panic!("row {row:?}: {e}")),
            parse(json).unwrap(),
            "row {row:?}"
        );
    }

    #[test]
    fn header_drives_field_names() {
        let d = CsvDecoder::from_header("id,name,score").unwrap();
        assert_eq!(d.fields(), ["id", "name", "score"]);
        expect(&d, "1,ada,9.5", r#"{"id": 1, "name": "ada", "score": 9.5}"#);
    }

    #[test]
    fn quoted_headers_and_cells_unescape() {
        let d = CsvDecoder::from_header(r#""a,b","say ""hi""",c"#).unwrap();
        assert_eq!(d.fields(), ["a,b", "say \"hi\"", "c"]);
        expect(
            &d,
            r#""x,y","""quoted""",3"#,
            r#"{"a,b": "x,y", "say \"hi\"": "\"quoted\"", "c": 3}"#,
        );
    }

    #[test]
    fn sniffing_covers_null_bool_int_float_string() {
        let d = CsvDecoder::new(vec!["n", "b", "i", "f", "s"]);
        expect(
            &d,
            ",true,-7,2.5e2,plain text",
            r#"{"n": null, "b": true, "i": -7, "f": 250.0, "s": "plain text"}"#,
        );
    }

    #[test]
    fn quoting_opts_out_of_sniffing() {
        let d = CsvDecoder::new(vec!["a", "b", "c"]);
        expect(
            &d,
            r#""5","true","""#,
            r#"{"a": "5", "b": "true", "c": ""}"#,
        );
    }

    #[test]
    fn non_finite_numbers_stay_strings() {
        let d = CsvDecoder::new(vec!["a", "b"]);
        expect(&d, "inf,NaN", r#"{"a": "inf", "b": "NaN"}"#);
    }

    #[test]
    fn short_rows_omit_trailing_fields() {
        let d = CsvDecoder::from_header("a,b,c").unwrap();
        expect(&d, "1,2", r#"{"a": 1, "b": 2}"#);
        expect(&d, "1,", r#"{"a": 1, "b": null}"#);
    }

    #[test]
    fn extra_cells_are_trailing_data() {
        let d = CsvDecoder::from_header("a,b").unwrap();
        let err = decode(&d, "1,2,3").unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TrailingData);
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn open_quote_at_eol_is_unexpected_eof() {
        let d = CsvDecoder::from_header("a,b").unwrap();
        let err = decode(&d, r#"1,"unterminated"#).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedEof);
        assert_eq!(err.offset, 15);
    }

    #[test]
    fn garbage_after_closing_quote_is_rejected() {
        let d = CsvDecoder::from_header("a,b").unwrap();
        let err = decode(&d, r#""x"y,2"#).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::UnexpectedByte(b'y'));
        assert_eq!(err.offset, 3);
    }

    #[test]
    fn duplicate_headers_resolve_last_wins() {
        let d = CsvDecoder::from_header("k,k").unwrap();
        expect(&d, "1,2", r#"{"k": 2}"#);
    }

    #[test]
    fn custom_delimiter_tsv() {
        let d = CsvDecoder::from_header_with("a\tb", b'\t').unwrap();
        assert_eq!(d.fields(), ["a", "b"]);
        expect(&d, "1\tx,y", r#"{"a": 1, "b": "x,y"}"#);
    }

    #[test]
    fn limits_guard_row_and_cell_sizes() {
        let d = CsvDecoder::from_header("a,b")
            .unwrap()
            .with_limits(ParseLimits::new().with_max_input_bytes(8));
        let err = decode(&d, "123456,789").unwrap_err();
        assert_eq!(
            err.kind,
            ParseErrorKind::LimitExceeded(RecordLimit::InputBytes)
        );

        let d = CsvDecoder::from_header("a,b")
            .unwrap()
            .with_limits(ParseLimits::new().with_max_string_bytes(3));
        let err = decode(&d, "1,abcdef").unwrap_err();
        assert_eq!(
            err.kind,
            ParseErrorKind::LimitExceeded(RecordLimit::StringBytes)
        );
    }

    #[test]
    fn events_match_decoded_value() {
        let d = CsvDecoder::from_header("a,b").unwrap();
        let mut builder = ValueBuilder::new();
        d.decode_events(&mut (), "1,x", &mut builder).unwrap();
        assert_eq!(builder.take(), decode(&d, "1,x").unwrap());
    }

    #[test]
    fn empty_record_is_one_null_cell() {
        let d = CsvDecoder::from_header("a,b").unwrap();
        expect(&d, "", r#"{"a": null}"#);
    }
}
