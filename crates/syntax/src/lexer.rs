//! The JSON tokenizer.
//!
//! Operates over raw bytes. The input is checked as UTF-8 **once**, when
//! the lexer is made (or not at all, when the caller already holds a
//! `&str`), so a string literal is a slice of validated text instead of
//! a validation pass of its own; only input that is not valid UTF-8 as a
//! whole pays for per-literal checks, to say where it goes wrong.
//!
//! The scanners ([`scan_string_cow`](Lexer::scan_string_cow),
//! [`scan_number`](Lexer::scan_number), the keyword scan) are what
//! [`parse_events`](crate::parse_events) calls, byte-driven; tokens
//! ([`next_token_raw`](Lexer::next_token_raw)) are for diagnosing the byte
//! the grammar could not take, and for tests.

use crate::error::{ParseError, ParseErrorKind, RecordLimit};
use crate::structural::{control_mask, eq_mask};
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
    /// `input` as text, when all of it is valid UTF-8.
    text: Option<&'a str>,
    pos: usize,
    /// Cap on one string literal's content bytes; `None` disables the guard.
    max_string_bytes: Option<usize>,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `input`, checking it as UTF-8 once. Invalid
    /// input is still lexed — literal by literal, so the error names the
    /// first bad byte a literal holds.
    pub fn new(input: &'a [u8]) -> Self {
        Lexer {
            input,
            text: std::str::from_utf8(input).ok(),
            pos: 0,
            max_string_bytes: None,
        }
    }

    /// Creates a lexer over text: checked already, by whoever made it.
    pub(crate) fn over_text(text: &'a str) -> Self {
        Lexer {
            input: text.as_bytes(),
            text: Some(text),
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

    /// Whether the cursor is at the end of the input.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.input.len()
    }

    pub(crate) fn err(&self, kind: ParseErrorKind, at: usize) -> ParseError {
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

    /// The next significant byte, with the cursor left on it; `0` at the
    /// end of input (no grammar position takes a NUL, so both end up in
    /// [`unexpected`](Self::unexpected), which tells them apart).
    #[inline]
    pub(crate) fn peek(&mut self) -> u8 {
        match self.input.get(self.pos) {
            Some(&b) if b > b' ' => b,
            _ => {
                self.skip_ws();
                self.input.get(self.pos).copied().unwrap_or(0)
            }
        }
    }

    /// Steps over the one-byte token [`peek`](Self::peek) returned.
    #[inline]
    pub(crate) fn bump(&mut self) {
        self.pos += 1;
    }

    /// Diagnoses the byte the grammar could not take where it stands
    /// (cursor on or before it) by lexing the token it starts: that
    /// token's own lexical error if it has one, else "this token, not
    /// here", positioned at the byte after it.
    #[cold]
    pub(crate) fn unexpected(&mut self) -> ParseError {
        match self.next_token_raw() {
            Err(lexical) => lexical,
            Ok(RawToken::Eof) => self.err(ParseErrorKind::UnexpectedEof, self.pos),
            Ok(tok) => self.err(ParseErrorKind::UnexpectedToken(tok.name()), self.pos),
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
            b't' => self.scan_keyword(b"true").map(|()| RawToken::True),
            b'f' => self.scan_keyword(b"false").map(|()| RawToken::False),
            b'n' => self.scan_keyword(b"null").map(|()| RawToken::Null),
            other => Err(self.err(ParseErrorKind::UnexpectedByte(other), self.pos)),
        }
    }

    /// Scans `word` (cursor on its first byte).
    #[inline]
    pub(crate) fn scan_keyword(&mut self, word: &'static [u8]) -> Result<(), ParseError> {
        if self.input[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(ParseErrorKind::BadKeyword, self.pos))
        }
    }

    /// Scans a string literal (cursor on the opening quote), borrowing the
    /// input slice when the literal contains no escapes.
    ///
    /// This is the zero-copy hot path: the first `"`, `\` or control byte
    /// is found eight bytes at a time, and an escape-free literal is then
    /// a slice of the text checked when the lexer was made — no UTF-8
    /// pass of its own, no heap allocation. Escaped strings fall back to
    /// `scan_string`, which builds the unescaped buffer.
    pub fn scan_string_cow(&mut self) -> Result<Cow<'a, str>, ParseError> {
        debug_assert_eq!(self.input[self.pos], b'"');
        let start = self.pos;
        self.pos += 1;
        let body_start = self.pos;
        while let Some(word) = self.input.get(self.pos..self.pos + 8) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            // 0x80 in every lane holding a byte the loop below stops at;
            // bytes of multi-byte characters (>= 0x80) are not among them.
            let stops = eq_mask(word, b'"') | eq_mask(word, b'\\') | control_mask(word);
            if stops != 0 {
                self.pos += (stops.trailing_zeros() / 8) as usize;
                break;
            }
            self.pos += 8;
        }
        // Decides at the byte the words stopped on, and walks the last
        // few bytes of an input too short for another word.
        loop {
            let Some(&b) = self.input.get(self.pos) else {
                return Err(self.err(ParseErrorKind::UnexpectedEof, start));
            };
            match b {
                b'"' => {
                    if let Some(limit) = self.max_string_bytes {
                        if self.pos - body_start > limit {
                            return Err(self.err(
                                ParseErrorKind::LimitExceeded(RecordLimit::StringBytes),
                                start,
                            ));
                        }
                    }
                    let s = self.text_of(body_start, self.pos)?;
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

    /// `input[from..to]`, a run of literal content delimited by ASCII
    /// bytes, as text: a slice of the validated input, or — when the
    /// input as a whole is not valid UTF-8 — this run's own check.
    #[inline]
    fn text_of(&self, from: usize, to: usize) -> Result<&'a str, ParseError> {
        match self.text {
            Some(text) => Ok(&text[from..to]),
            None => std::str::from_utf8(&self.input[from..to])
                .map_err(|e| self.err(ParseErrorKind::InvalidUtf8, from + e.valid_up_to())),
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
            if let Some(limit) = self.max_string_bytes {
                // Checked before the buffer grows: the literal is rejected
                // without paying for the allocation it would have forced.
                if out.len() + (self.pos - run_start) > limit {
                    return Err(self.err(
                        ParseErrorKind::LimitExceeded(RecordLimit::StringBytes),
                        run_start,
                    ));
                }
            }
            out.push_str(self.text_of(run_start, self.pos)?);
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

    /// Scans a number literal (cursor on `-` or a digit). An integer of
    /// at most 18 bytes cannot overflow, so its value is accumulated while
    /// the grammar is checked; longer or fractional literals are parsed
    /// from their text.
    pub fn scan_number(&mut self) -> Result<Number, ParseError> {
        let start = self.pos;
        let bytes = self.input;
        let mut i = self.pos;
        let mut is_float = false;

        let negative = bytes.get(i) == Some(&b'-');
        if negative {
            i += 1;
        }
        // Integer part: `0` or non-zero digit followed by digits.
        let mut magnitude = 0i64;
        match bytes.get(i) {
            Some(b'0') => i += 1,
            Some(b'1'..=b'9') => {
                while let Some(&digit @ b'0'..=b'9') = bytes.get(i) {
                    magnitude = magnitude
                        .wrapping_mul(10)
                        .wrapping_add(i64::from(digit - b'0'));
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

        self.pos = i;
        if !is_float && i - start <= 18 {
            return Ok(Number::Int(if negative { -magnitude } else { magnitude }));
        }
        let text = std::str::from_utf8(&bytes[start..i]).expect("number bytes are ASCII");
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
