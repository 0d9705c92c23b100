//! The JSON tokenizer.
//!
//! Operates over raw bytes, validating UTF-8 only where it can appear
//! (inside strings), so that pure-ASCII structural scanning stays cheap.

use crate::error::{ParseError, ParseErrorKind, RecordLimit};
use jsonx_data::Number;
use std::borrow::Cow;

/// A lexical token whose string payload borrows from the input when the
/// literal contains no escapes — the common case in machine-generated
/// JSON — and owns an unescaped buffer otherwise.
#[derive(Debug, Clone, PartialEq)]
pub enum RawToken<'a> {
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Colon,
    Comma,
    /// A string literal: borrowed when escape-free, owned when unescaped.
    Str(Cow<'a, str>),
    /// A number literal.
    Num(Number),
    True,
    False,
    Null,
    /// End of input.
    Eof,
}

impl<'a> RawToken<'a> {
    /// Short name used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            RawToken::LBrace => "'{'",
            RawToken::RBrace => "'}'",
            RawToken::LBracket => "'['",
            RawToken::RBracket => "']'",
            RawToken::Colon => "':'",
            RawToken::Comma => "','",
            RawToken::Str(_) => "string",
            RawToken::Num(_) => "number",
            RawToken::True => "'true'",
            RawToken::False => "'false'",
            RawToken::Null => "'null'",
            RawToken::Eof => "end of input",
        }
    }
}

/// A resumable tokenizer over a byte slice.
pub struct Lexer<'a> {
    input: &'a [u8],
    pos: usize,
    /// Cap on one string literal's content bytes; `None` disables the guard.
    max_string_bytes: Option<usize>,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Lexer {
            input,
            pos: 0,
            max_string_bytes: None,
        }
    }

    /// Caps one string literal's content size in bytes.
    ///
    /// On the owned (escaped) path the check runs *before* the unescape
    /// buffer grows, so an oversized literal is rejected without the
    /// allocation it was trying to force.
    pub fn set_max_string_bytes(&mut self, limit: Option<usize>) {
        self.max_string_bytes = limit;
    }

    /// Current byte offset (start of the next token after whitespace).
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn err(&self, kind: ParseErrorKind, at: usize) -> ParseError {
        ParseError::at(kind, self.input, at)
    }

    /// Skips insignificant whitespace.
    pub fn skip_ws(&mut self) {
        while let Some(&b) = self.input.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// Scans the next token, borrowing string data when possible.
    pub fn next_token_raw(&mut self) -> Result<RawToken<'a>, ParseError> {
        self.skip_ws();
        let Some(&b) = self.input.get(self.pos) else {
            return Ok(RawToken::Eof);
        };
        match b {
            b'{' => {
                self.pos += 1;
                Ok(RawToken::LBrace)
            }
            b'}' => {
                self.pos += 1;
                Ok(RawToken::RBrace)
            }
            b'[' => {
                self.pos += 1;
                Ok(RawToken::LBracket)
            }
            b']' => {
                self.pos += 1;
                Ok(RawToken::RBracket)
            }
            b':' => {
                self.pos += 1;
                Ok(RawToken::Colon)
            }
            b',' => {
                self.pos += 1;
                Ok(RawToken::Comma)
            }
            b'"' => self.scan_string_cow().map(RawToken::Str),
            b'-' | b'0'..=b'9' => self.scan_number().map(RawToken::Num),
            b't' => self.scan_keyword(b"true", RawToken::True),
            b'f' => self.scan_keyword(b"false", RawToken::False),
            b'n' => self.scan_keyword(b"null", RawToken::Null),
            other => Err(self.err(ParseErrorKind::UnexpectedByte(other), self.pos)),
        }
    }

    fn scan_keyword(
        &mut self,
        word: &'static [u8],
        tok: RawToken<'a>,
    ) -> Result<RawToken<'a>, ParseError> {
        let end = self.pos + word.len();
        if self.input.len() >= end && &self.input[self.pos..end] == word {
            self.pos = end;
            Ok(tok)
        } else {
            Err(self.err(ParseErrorKind::BadKeyword, self.pos))
        }
    }

    /// Scans a string literal (cursor on the opening quote), borrowing the
    /// input slice when the literal contains no escapes.
    ///
    /// This is the zero-copy hot path: escape-free strings cost one UTF-8
    /// validation pass and no heap allocation. Escaped strings fall back to
    /// `scan_string`, which builds the unescaped buffer.
    pub fn scan_string_cow(&mut self) -> Result<Cow<'a, str>, ParseError> {
        debug_assert_eq!(self.input[self.pos], b'"');
        let start = self.pos;
        self.pos += 1;
        let body_start = self.pos;
        loop {
            let Some(&b) = self.input.get(self.pos) else {
                return Err(self.err(ParseErrorKind::UnexpectedEof, start));
            };
            match b {
                b'"' => {
                    let chunk = &self.input[body_start..self.pos];
                    if let Some(limit) = self.max_string_bytes {
                        if chunk.len() > limit {
                            return Err(self.err(
                                ParseErrorKind::LimitExceeded(RecordLimit::StringBytes),
                                start,
                            ));
                        }
                    }
                    let s = std::str::from_utf8(chunk).map_err(|e| {
                        self.err(ParseErrorKind::InvalidUtf8, body_start + e.valid_up_to())
                    })?;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                b'\\' => {
                    // Escape seen: rewind and take the owned slow path.
                    self.pos = start;
                    return self.scan_string().map(Cow::Owned);
                }
                0x00..=0x1F => {
                    return Err(self.err(ParseErrorKind::ControlCharacterInString, self.pos));
                }
                _ => self.pos += 1,
            }
        }
    }

    /// The escape path of [`scan_string_cow`](Self::scan_string_cow):
    /// scans a string literal (cursor on the opening quote) into an
    /// unescaped buffer.
    fn scan_string(&mut self) -> Result<String, ParseError> {
        debug_assert_eq!(self.input[self.pos], b'"');
        let start = self.pos;
        self.pos += 1;
        let mut out = String::new();
        // Fast path: copy runs of plain bytes between escapes.
        let mut run_start = self.pos;
        loop {
            let Some(&b) = self.input.get(self.pos) else {
                return Err(self.err(ParseErrorKind::UnexpectedEof, start));
            };
            match b {
                b'"' => {
                    self.flush_run(run_start, &mut out)?;
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.flush_run(run_start, &mut out)?;
                    self.pos += 1;
                    self.scan_escape(&mut out)?;
                    run_start = self.pos;
                }
                0x00..=0x1F => {
                    return Err(self.err(ParseErrorKind::ControlCharacterInString, self.pos));
                }
                _ => self.pos += 1,
            }
        }
    }

    fn flush_run(&self, run_start: usize, out: &mut String) -> Result<(), ParseError> {
        if run_start < self.pos {
            let chunk = &self.input[run_start..self.pos];
            if let Some(limit) = self.max_string_bytes {
                // Checked before the buffer grows: the literal is rejected
                // without paying for the allocation it would have forced.
                if out.len() + chunk.len() > limit {
                    return Err(self.err(
                        ParseErrorKind::LimitExceeded(RecordLimit::StringBytes),
                        run_start,
                    ));
                }
            }
            let s = std::str::from_utf8(chunk)
                .map_err(|e| self.err(ParseErrorKind::InvalidUtf8, run_start + e.valid_up_to()))?;
            out.push_str(s);
        }
        Ok(())
    }

    fn scan_escape(&mut self, out: &mut String) -> Result<(), ParseError> {
        let at = self.pos - 1;
        let Some(&esc) = self.input.get(self.pos) else {
            return Err(self.err(ParseErrorKind::UnexpectedEof, at));
        };
        self.pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.scan_hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: must be followed by \uDC00..\uDFFF.
                    if self.input.get(self.pos) == Some(&b'\\')
                        && self.input.get(self.pos + 1) == Some(&b'u')
                    {
                        self.pos += 2;
                        let lo = self.scan_hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err(ParseErrorKind::LoneSurrogate, at));
                        }
                        let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        out.push(char::from_u32(c).expect("valid supplementary code point"));
                    } else {
                        return Err(self.err(ParseErrorKind::LoneSurrogate, at));
                    }
                } else if (0xDC00..0xE000).contains(&hi) {
                    return Err(self.err(ParseErrorKind::LoneSurrogate, at));
                } else {
                    out.push(char::from_u32(hi).expect("BMP non-surrogate code point"));
                }
            }
            _ => return Err(self.err(ParseErrorKind::BadEscape, at)),
        }
        Ok(())
    }

    fn scan_hex4(&mut self) -> Result<u32, ParseError> {
        let at = self.pos;
        if self.pos + 4 > self.input.len() {
            return Err(self.err(ParseErrorKind::UnexpectedEof, at));
        }
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self.input[self.pos];
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err(ParseErrorKind::BadUnicodeEscape, at)),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// Scans a number literal (cursor on `-` or a digit).
    pub fn scan_number(&mut self) -> Result<Number, ParseError> {
        let start = self.pos;
        let bytes = self.input;
        let mut i = self.pos;
        let mut is_float = false;

        if bytes.get(i) == Some(&b'-') {
            i += 1;
        }
        // Integer part: `0` or non-zero digit followed by digits.
        match bytes.get(i) {
            Some(b'0') => i += 1,
            Some(b'1'..=b'9') => {
                while matches!(bytes.get(i), Some(b'0'..=b'9')) {
                    i += 1;
                }
            }
            _ => return Err(self.err(ParseErrorKind::BadNumber, start)),
        }
        // Reject a second digit after a leading zero (e.g. "01").
        if matches!(bytes.get(i), Some(b'0'..=b'9')) {
            return Err(self.err(ParseErrorKind::BadNumber, start));
        }
        if bytes.get(i) == Some(&b'.') {
            is_float = true;
            i += 1;
            if !matches!(bytes.get(i), Some(b'0'..=b'9')) {
                return Err(self.err(ParseErrorKind::BadNumber, start));
            }
            while matches!(bytes.get(i), Some(b'0'..=b'9')) {
                i += 1;
            }
        }
        if matches!(bytes.get(i), Some(b'e' | b'E')) {
            is_float = true;
            i += 1;
            if matches!(bytes.get(i), Some(b'+' | b'-')) {
                i += 1;
            }
            if !matches!(bytes.get(i), Some(b'0'..=b'9')) {
                return Err(self.err(ParseErrorKind::BadNumber, start));
            }
            while matches!(bytes.get(i), Some(b'0'..=b'9')) {
                i += 1;
            }
        }

        let text = std::str::from_utf8(&bytes[start..i]).expect("number bytes are ASCII");
        self.pos = i;
        if !is_float {
            if let Ok(int) = text.parse::<i64>() {
                return Ok(Number::Int(int));
            }
            // Integer overflowing i64 degrades to f64, like most parsers.
        }
        let f: f64 = text
            .parse()
            .map_err(|_| self.err(ParseErrorKind::BadNumber, start))?;
        Number::from_f64(f).ok_or_else(|| self.err(ParseErrorKind::NumberOutOfRange, start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex_all(s: &str) -> Result<Vec<RawToken<'_>>, ParseError> {
        let mut lx = Lexer::new(s.as_bytes());
        let mut out = Vec::new();
        loop {
            let t = lx.next_token_raw()?;
            if t == RawToken::Eof {
                return Ok(out);
            }
            out.push(t);
        }
    }

    #[test]
    fn structural_tokens() {
        assert_eq!(
            lex_all("{ } [ ] : ,").unwrap(),
            vec![
                RawToken::LBrace,
                RawToken::RBrace,
                RawToken::LBracket,
                RawToken::RBracket,
                RawToken::Colon,
                RawToken::Comma
            ]
        );
    }

    #[test]
    fn keywords() {
        assert_eq!(
            lex_all("true false null").unwrap(),
            vec![RawToken::True, RawToken::False, RawToken::Null]
        );
        assert!(lex_all("tru").is_err());
        assert!(lex_all("nul").is_err());
    }

    #[test]
    fn simple_strings() {
        assert_eq!(
            lex_all(r#""hello""#).unwrap(),
            vec![RawToken::Str("hello".into())]
        );
        assert_eq!(lex_all(r#""""#).unwrap(), vec![RawToken::Str("".into())]);
    }

    #[test]
    fn escapes() {
        assert_eq!(
            lex_all(r#""a\"b\\c\/d\n\t\r\b\f""#).unwrap(),
            vec![RawToken::Str("a\"b\\c/d\n\t\r\u{8}\u{c}".into())]
        );
        assert_eq!(
            lex_all(r#""Aé中""#).unwrap(),
            vec![RawToken::Str("Aé中".into())]
        );
    }

    #[test]
    fn surrogate_pairs() {
        assert_eq!(
            lex_all(r#""😀""#).unwrap(),
            vec![RawToken::Str("😀".into())]
        );
        assert!(lex_all(r#""\ud83d""#).is_err()); // lone high
        assert!(lex_all(r#""\ude00""#).is_err()); // lone low
        assert!(lex_all(r#""\ud83dx""#).is_err()); // high not followed by \u
    }

    #[test]
    fn raw_utf8_passthrough() {
        assert_eq!(
            lex_all("\"héllo→\"").unwrap(),
            vec![RawToken::Str("héllo→".into())]
        );
    }

    #[test]
    fn control_characters_rejected() {
        assert!(lex_all("\"a\u{1}b\"").is_err());
        assert!(lex_all("\"a\nb\"").is_err()); // raw newline must be escaped
    }

    #[test]
    fn numbers_integral_and_float() {
        assert_eq!(lex_all("0").unwrap(), vec![RawToken::Num(Number::Int(0))]);
        assert_eq!(
            lex_all("-12").unwrap(),
            vec![RawToken::Num(Number::Int(-12))]
        );
        assert_eq!(
            lex_all("3.25").unwrap(),
            vec![RawToken::Num(Number::Float(3.25))]
        );
        assert_eq!(
            lex_all("1e3").unwrap(),
            vec![RawToken::Num(Number::Float(1000.0))]
        );
        assert_eq!(
            lex_all("-2.5E-1").unwrap(),
            vec![RawToken::Num(Number::Float(-0.25))]
        );
    }

    #[test]
    fn number_grammar_rejections() {
        for bad in ["01", "-", "1.", ".5", "1e", "1e+", "+1", "--1", "1.e3"] {
            assert!(lex_all(bad).is_err(), "expected {bad:?} to fail");
        }
    }

    #[test]
    fn huge_integer_degrades_to_float() {
        let toks = lex_all("123456789012345678901234567890").unwrap();
        match &toks[0] {
            RawToken::Num(Number::Float(f)) => assert!(*f > 1e29),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn number_overflow_to_infinity_is_error() {
        assert!(lex_all("1e400").is_err());
    }

    #[test]
    fn error_positions() {
        let mut lx = Lexer::new(b"   @");
        let err = lx.next_token_raw().unwrap_err();
        assert_eq!(err.offset, 3);
        assert_eq!(err.kind, ParseErrorKind::UnexpectedByte(b'@'));
    }

    #[test]
    fn invalid_utf8_in_string() {
        let mut lx = Lexer::new(b"\"\xff\"");
        assert_eq!(
            lx.next_token_raw().unwrap_err().kind,
            ParseErrorKind::InvalidUtf8
        );
    }

    #[test]
    fn escape_free_strings_borrow_from_input() {
        let input = r#""plain key" "héllo→😀""#;
        let mut lx = Lexer::new(input.as_bytes());
        for expected in ["plain key", "héllo→😀"] {
            match lx.next_token_raw().unwrap() {
                RawToken::Str(cow) => {
                    assert!(
                        matches!(cow, Cow::Borrowed(_)),
                        "escape-free string must not allocate: {cow:?}"
                    );
                    assert_eq!(cow, expected);
                }
                other => panic!("expected string, got {other:?}"),
            }
        }
    }

    #[test]
    fn escaped_strings_fall_back_to_owned() {
        let mut lx = Lexer::new(br#""a\nb""#);
        match lx.next_token_raw().unwrap() {
            RawToken::Str(cow) => {
                assert!(matches!(cow, Cow::Owned(_)));
                assert_eq!(cow, "a\nb");
            }
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn string_byte_limit_guards_both_paths() {
        // Borrowed (escape-free) path.
        let mut lx = Lexer::new(br#""abcdefgh""#);
        lx.set_max_string_bytes(Some(4));
        assert_eq!(
            lx.next_token_raw().unwrap_err().kind,
            ParseErrorKind::LimitExceeded(RecordLimit::StringBytes)
        );
        // Owned (escaped) path: rejected before the unescape buffer grows.
        let mut lx = Lexer::new(br#""ab\ncdefgh""#);
        lx.set_max_string_bytes(Some(4));
        assert_eq!(
            lx.next_token_raw().unwrap_err().kind,
            ParseErrorKind::LimitExceeded(RecordLimit::StringBytes)
        );
        // At or under the limit both paths succeed.
        for input in [&br#""abcd""#[..], br#""ab\ncd""#] {
            let mut lx = Lexer::new(input);
            lx.set_max_string_bytes(Some(6));
            assert!(matches!(lx.next_token_raw().unwrap(), RawToken::Str(_)));
        }
    }

    #[test]
    fn escaped_strings_fail_like_escape_free_ones() {
        // Behind an escape (the owned path): same kind, offset moved by it.
        for (plain, escaped, shift) in [
            (&b"\"a"[..], &b"\"\\na"[..], 0),
            (b"\"a\x01b\"", b"\"\\na\x01b\"", 2),
            (b"\"\xffz\"", b"\"\\n\xffz\"", 2),
        ] {
            let plain = Lexer::new(plain).next_token_raw().unwrap_err();
            let escaped = Lexer::new(escaped).next_token_raw().unwrap_err();
            assert_eq!(
                (plain.kind, plain.offset + shift),
                (escaped.kind, escaped.offset)
            );
        }
    }
}
