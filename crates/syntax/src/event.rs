//! The JSON grammar, written once: [`parse_events`] pushes a document's
//! event stream into an [`EventReceiver`].
//!
//! The schema-inference tools the tutorial surveys (mongodb-schema, the
//! distributed map/reduce inferrers) process collections too large to hold
//! as DOMs, so the grammar builds nothing itself: it checks
//! well-formedness and hands container boundaries, keys and scalars to
//! the caller's receiver — a [`ValueBuilder`](crate::ValueBuilder) for a
//! DOM, a typer, a shredder. Events borrow escape-free strings straight
//! from the input and the open containers are bits in a word: **no heap
//! allocation per token or per record** on the common machine-generated
//! document.

use crate::decoder::EventReceiver;
use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::Lexer;
use crate::parser::ParserOptions;
use jsonx_data::Number;
use std::borrow::Cow;

/// One event of a document's parse, borrowing from the input.
///
/// `Key`/`Str` payloads are `Cow::Borrowed` when the literal contains no
/// escapes and `Cow::Owned` only when unescaping forced a buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum RawEvent<'a> {
    StartObject,
    EndObject,
    StartArray,
    EndArray,
    /// An object member key (always followed by that member's value events).
    Key(Cow<'a, str>),
    Null,
    Bool(bool),
    Num(Number),
    Str(Cow<'a, str>),
}

/// Parses one JSON document, handing its events to `recv` in document
/// order — the only code in the workspace that knows the container
/// grammar `{ "k" : v , … }` / `[ v , … ]`, so every consumer rejects the
/// same documents with the same [`ParseError`]. `Ok(())` means one
/// complete value, followed by nothing but whitespace unless
/// `opts.allow_trailing`; on an error the receiver has seen the events of
/// the prefix that parsed and is the caller's to reset.
///
/// Iterative: open containers live on an explicit stack, so nesting costs
/// heap instead of call stack and `opts.max_depth` is the only bound.
///
/// Byte-driven: the loop dispatches on the next significant byte —
/// punctuation is a cursor step, scalars go from the lexer's scanners
/// straight to the receiver — and builds a token only to word the error
/// for a byte it cannot take (the lexer's cold `unexpected`).
pub fn parse_events<R: EventReceiver + ?Sized>(
    input: &[u8],
    opts: ParserOptions,
    recv: &mut R,
) -> Result<(), ParseError> {
    push_events(Lexer::new(input), opts, recv)
}

/// [`parse_events`] on a lexer the caller made — over bytes, or over text
/// that needs no second UTF-8 check.
pub(crate) fn push_events<R: EventReceiver + ?Sized>(
    mut lexer: Lexer<'_>,
    opts: ParserOptions,
    recv: &mut R,
) -> Result<(), ParseError> {
    lexer.set_max_string_bytes(opts.max_string_bytes);
    let mut open = OpenContainers::default();
    'member: loop {
        // The cursor is before a member of the innermost container — or
        // before the document.
        let mut b = lexer.peek();
        if open.innermost_is_object() {
            if b != b'"' {
                return Err(lexer.unexpected());
            }
            recv.event(&RawEvent::Key(lexer.scan_string_cow()?));
            if lexer.peek() != b':' {
                return Err(lexer.unexpected());
            }
            lexer.bump();
            b = lexer.peek();
        }
        match b {
            b'"' => recv.event(&RawEvent::Str(lexer.scan_string_cow()?)),
            b'-' | b'0'..=b'9' => recv.event(&RawEvent::Num(lexer.scan_number()?)),
            b't' => {
                lexer.scan_keyword(b"true")?;
                recv.event(&RawEvent::Bool(true));
            }
            b'f' => {
                lexer.scan_keyword(b"false")?;
                recv.event(&RawEvent::Bool(false));
            }
            b'n' => {
                lexer.scan_keyword(b"null")?;
                recv.event(&RawEvent::Null);
            }
            b'{' | b'[' => {
                lexer.bump();
                if open.depth >= opts.max_depth {
                    return Err(lexer.err(ParseErrorKind::TooDeep, lexer.offset()));
                }
                let object = b == b'{';
                recv.event(if object {
                    &RawEvent::StartObject
                } else {
                    &RawEvent::StartArray
                });
                open.push(object);
                // An empty container's closer stands where a first member would.
                if lexer.peek() != if object { b'}' } else { b']' } {
                    continue;
                }
            }
            _ => return Err(lexer.unexpected()),
        }
        // The cursor follows a member of the innermost container, or is
        // on the closer of an empty one.
        while open.depth > 0 {
            match (lexer.peek(), open.innermost_is_object()) {
                (b',', _) => {
                    lexer.bump();
                    continue 'member;
                }
                (b'}', true) => recv.event(&RawEvent::EndObject),
                (b']', false) => recv.event(&RawEvent::EndArray),
                _ => return Err(lexer.unexpected()),
            }
            lexer.bump();
            open.pop();
        }
        break;
    }
    if !opts.allow_trailing {
        // Whatever follows the value is trailing data *at its first
        // byte*; it is not lexed, so garbage cannot reword the error.
        lexer.skip_ws();
        if !lexer.at_end() {
            return Err(lexer.err(ParseErrorKind::TrailingData, lexer.offset()));
        }
    }
    Ok(())
}

/// The open containers, innermost last, one bit each (set: an object).
/// The innermost 64 live in a word, so a record of ordinary depth
/// allocates nothing; each full word below them is spilled to the heap.
#[derive(Default)]
struct OpenContainers {
    depth: usize,
    /// Bit 0 is the innermost container; zero when none is open.
    word: u64,
    spilled: Vec<u64>,
}

impl OpenContainers {
    #[inline]
    fn innermost_is_object(&self) -> bool {
        self.word & 1 != 0
    }

    #[inline]
    fn push(&mut self, object: bool) {
        if self.depth != 0 && self.depth & 63 == 0 {
            self.spilled.push(std::mem::take(&mut self.word));
        }
        self.word = self.word << 1 | u64::from(object);
        self.depth += 1;
    }

    #[inline]
    fn pop(&mut self) {
        self.depth -= 1;
        self.word >>= 1;
        if self.depth != 0 && self.depth & 63 == 0 {
            self.word = self.spilled.pop().expect("one word per 64 levels");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::NullReceiver;

    /// The collecting receiver: each event's `Debug` text, and whether
    /// each string payload arrived borrowed.
    #[derive(Default)]
    struct Collect(Vec<String>, Vec<bool>);

    impl EventReceiver for Collect {
        fn event(&mut self, ev: &RawEvent<'_>) {
            if let RawEvent::Key(s) | RawEvent::Str(s) = ev {
                self.1.push(matches!(s, Cow::Borrowed(_)));
            }
            self.0.push(format!("{ev:?}"));
        }
    }

    fn events_with(s: &str, opts: ParserOptions) -> Result<Vec<String>, ParseError> {
        let mut collect = Collect::default();
        parse_events(s.as_bytes(), opts, &mut collect)?;
        Ok(collect.0)
    }

    fn events(s: &str) -> Result<Vec<String>, ParseError> {
        events_with(s, ParserOptions::default())
    }

    #[test]
    fn events_arrive_in_document_order() {
        assert_eq!(events("42").unwrap(), ["Num(Int(42))"]);
        assert_eq!(events("[]").unwrap(), ["StartArray", "EndArray"]);
        assert_eq!(events("{}").unwrap(), ["StartObject", "EndObject"]);
        assert_eq!(
            events(r#"{"a": 1, "b": [true, null, {}]}"#)
                .unwrap()
                .join(" "),
            r#"StartObject Key("a") Num(Int(1)) Key("b") StartArray Bool(true) Null StartObject EndObject EndArray EndObject"#
        );
        assert_eq!(
            events("[[1],[2]]").unwrap().join(" "),
            "StartArray StartArray Num(Int(1)) EndArray StartArray Num(Int(2)) EndArray EndArray"
        );
    }

    #[test]
    fn errors_name_the_token_and_the_byte_after_it() {
        use ParseErrorKind::*;
        for (bad, kind, offset) in [
            ("", UnexpectedEof, 0),
            ("{", UnexpectedEof, 1),
            ("[1,", UnexpectedEof, 3),
            ("[1,]", UnexpectedToken("']'"), 4),
            ("[1 2]", UnexpectedToken("number"), 4),
            ("[,", UnexpectedToken("','"), 2),
            ("[}", UnexpectedToken("'}'"), 2),
            ("{]", UnexpectedToken("']'"), 2),
            ("{\"a\"}", UnexpectedToken("'}'"), 5),
            ("{\"a\" 1}", UnexpectedToken("number"), 6),
            ("{\"a\":1,}", UnexpectedToken("'}'"), 8),
            ("{\"a\":}", UnexpectedToken("'}'"), 6),
            ("{,}", UnexpectedToken("','"), 2),
            ("{1:2}", UnexpectedToken("number"), 2),
            ("]", UnexpectedToken("']'"), 1),
            (",", UnexpectedToken("','"), 1),
            ("{\"a\": @}", UnexpectedByte(b'@'), 6),
            // Whatever follows the value is trailing data where it starts:
            // a bad byte, a closer, a second value, half a keyword.
            ("{\"a\":2} xyz", TrailingData, 8),
            ("{\"a\":3}]", TrailingData, 7),
            ("[1]]", TrailingData, 3),
            ("1 2", TrailingData, 2),
            ("[] nul", TrailingData, 3),
        ] {
            let err = events(bad).unwrap_err();
            assert_eq!((err.kind, err.offset), (kind, offset), "{bad:?}");
        }
        let lenient = ParserOptions {
            allow_trailing: true,
            ..ParserOptions::default()
        };
        assert_eq!(events_with("[] nul", lenient).unwrap().len(), 2);
    }

    #[test]
    fn raw_events_borrow_escape_free_strings() {
        let doc = r#"{"plain": "value", "esc\n": "a\tb"}"#;
        let mut collect = Collect::default();
        parse_events(doc.as_bytes(), ParserOptions::default(), &mut collect).unwrap();
        assert_eq!(collect.1, [true, true, false, false]);
        assert_eq!(collect.0[3..5], [r#"Key("esc\n")"#, r#"Str("a\tb")"#]);
    }

    #[test]
    fn depth_limit_counts_open_containers_and_costs_no_call_stack() {
        let opts = |max_depth| ParserOptions {
            max_depth,
            ..ParserOptions::default()
        };
        // Exactly `max_depth` open containers pass; the next one is
        // rejected at the byte after its bracket.
        let deep = "[".repeat(10) + &"]".repeat(10);
        assert!(events_with(&deep, opts(10)).is_ok());
        let err = events_with(&deep, opts(5)).unwrap_err();
        assert_eq!((err.kind, err.offset), (ParseErrorKind::TooDeep, 6));
        let mixed = r#"{"a": [{"b": [1]}]}"#;
        assert!(events_with(mixed, opts(4)).is_ok());
        assert!(events_with(mixed, opts(3)).is_err());
        // Far past what a recursive parser survives on a thread's stack.
        let bomb = "[".repeat(200_000) + &"]".repeat(200_000);
        assert!(parse_events(bomb.as_bytes(), opts(200_000), &mut NullReceiver).is_ok());
    }
}
