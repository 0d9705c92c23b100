//! The JSON grammar, written once: [`parse_events`] pushes a document's
//! event stream into an [`EventReceiver`].
//!
//! The schema-inference tools the tutorial surveys (mongodb-schema, the
//! distributed map/reduce inferrers) process collections too large to hold
//! as DOMs, so the grammar builds nothing itself: it checks
//! well-formedness and hands container boundaries, keys and scalars to
//! the caller's receiver — a [`ValueBuilder`](crate::ValueBuilder) for a
//! DOM, a typer, a shredder. Events borrow escape-free strings straight
//! from the input: **zero per-token heap allocations** on the common
//! machine-generated document.

use crate::decoder::EventReceiver;
use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::{Lexer, RawToken};
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
pub fn parse_events<R: EventReceiver + ?Sized>(
    input: &[u8],
    opts: ParserOptions,
    recv: &mut R,
) -> Result<(), ParseError> {
    let mut lexer = Lexer::new(input);
    lexer.set_max_string_bytes(opts.max_string_bytes);
    let fail = |lexer: &Lexer<'_>, kind| ParseError::at(kind, input, lexer.offset());
    let unexpected = |lexer: &Lexer<'_>, tok: RawToken<'_>| match tok {
        RawToken::Eof => fail(lexer, ParseErrorKind::UnexpectedEof),
        other => fail(lexer, ParseErrorKind::UnexpectedToken(other.name())),
    };
    // One entry per open container, innermost last: is it an object?
    let mut open: Vec<bool> = Vec::new();
    let mut tok = lexer.next_token_raw()?;
    'member: loop {
        // `tok` starts a member of the innermost container — or the document.
        if open.last() == Some(&true) {
            let RawToken::Str(key) = tok else {
                return Err(unexpected(&lexer, tok));
            };
            recv.event(&RawEvent::Key(key));
            match lexer.next_token_raw()? {
                RawToken::Colon => {}
                other => return Err(unexpected(&lexer, other)),
            }
            tok = lexer.next_token_raw()?;
        }
        let ev = match tok {
            RawToken::Null => RawEvent::Null,
            RawToken::True => RawEvent::Bool(true),
            RawToken::False => RawEvent::Bool(false),
            RawToken::Num(n) => RawEvent::Num(n),
            RawToken::Str(s) => RawEvent::Str(s),
            RawToken::LBrace => RawEvent::StartObject,
            RawToken::LBracket => RawEvent::StartArray,
            other => return Err(unexpected(&lexer, other)),
        };
        let opens = matches!(ev, RawEvent::StartObject | RawEvent::StartArray);
        if opens && open.len() >= opts.max_depth {
            return Err(fail(&lexer, ParseErrorKind::TooDeep));
        }
        recv.event(&ev);
        if opens {
            let object = matches!(ev, RawEvent::StartObject);
            open.push(object);
            tok = lexer.next_token_raw()?;
            // An empty container's closer stands where a first member would.
            match (object, &tok) {
                (true, RawToken::RBrace) | (false, RawToken::RBracket) => {}
                _ => continue,
            }
        } else if open.is_empty() {
            break;
        } else {
            tok = lexer.next_token_raw()?;
        }
        // `tok` follows a member of the innermost container, or closes it.
        loop {
            match (open.last(), tok) {
                (Some(_), RawToken::Comma) => break,
                (Some(true), RawToken::RBrace) => recv.event(&RawEvent::EndObject),
                (Some(false), RawToken::RBracket) => recv.event(&RawEvent::EndArray),
                (_, other) => return Err(unexpected(&lexer, other)),
            }
            open.pop();
            if open.is_empty() {
                break 'member;
            }
            tok = lexer.next_token_raw()?;
        }
        tok = lexer.next_token_raw()?;
    }
    if !opts.allow_trailing {
        // Whatever follows the value is trailing data *at its first
        // byte*; it is not lexed, so garbage cannot reword the error.
        lexer.skip_ws();
        if lexer.offset() != input.len() {
            return Err(fail(&lexer, ParseErrorKind::TrailingData));
        }
    }
    Ok(())
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
