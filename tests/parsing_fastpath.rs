//! Differential property tests for the fast path and the SWAR kernels
//! beneath it.
//!
//! Beneath the two layers sits the grammar every route decodes with:
//!
//! 0. **Fused grammar ≡ token grammar.** `parse_events` dispatches on
//!    bytes and builds no token unless it has an error to word; the loop
//!    it replaced pulled one `RawToken` per lexeme. That loop lives on
//!    here, rebuilt from the public `Lexer`, and the two must agree on
//!    every event (borrowed or owned) and on every field of every error
//!    — over records, their truncations and overwrites, and tables aimed
//!    at what the kernel does a word, a digit or a bit at a time, each
//!    with an expectation worked out independently of the lexer.
//!
//! Then two layers:
//!
//! 1. **Structural index ≡ lexer.** The word-parallel bitmaps of
//!    `jsonx_syntax::structural` — a library the product's stages no
//!    longer route records through — must agree with the
//!    recursive-descent lexer about where every structural character
//!    sits — on serialized arbitrary documents (escapes, multi-byte
//!    UTF-8, strings *containing* `{`/`:`/`,`/quotes) exactly, and on
//!    corrupted inputs for every token the lexer still produces before
//!    its first error.
//!
//! 2. **Fast path ≡ slow path.** Validation and translation with
//!    `fast_parse` on must be result-identical to `fast_parse` off at
//!    every worker count: verdict vectors, reject diagnostics (with exact
//!    error offsets), columnar batches, `RunReport`s and `StreamError`s,
//!    on clean and dirty corpora under every error policy. The fast path
//!    — the walk over a record's events — may *hand records back*
//!    (verified fallback), never decide them differently. The schema pool
//!    holds open and closed schemas, and the corpora hold text-level
//!    duplicate keys, the one thing the walk hands back.

#[path = "../crates/schema/tests/oracle/mod.rs"]
mod oracle;

use jsonx::gen::{dirty_ndjson, respelled, DirtyConfig};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::{
    parse_events, to_string, Bitmaps, EventReceiver, JsonDecoder, Lexer, ParseError,
    ParseErrorKind, ParseLimits, ParserOptions, RawEvent, RawToken, RecordDecoder, RecordLimit,
};
use jsonx::translate::Shredder;
use jsonx::{ErrorPolicy, FaultOptions, RouteCounts, Run, Source};
use jsonx_data::{json, Number, Object, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// The slow/fast twins of one plan; the explicit chunk size dispatches
/// small corpora across `workers` threads.
fn twins(workers: usize, fault: FaultOptions) -> (Run<'static>, Run<'static>) {
    let slow = Run {
        workers,
        chunk_bytes: 64,
        fault,
        fast_parse: false,
        ..Run::default()
    };
    let fast = Run {
        fast_parse: true,
        ..slow.clone()
    };
    (slow, fast)
}

// ---------------------------------------------------------------------------
// Layer 0: the fused grammar vs the token grammar
// ---------------------------------------------------------------------------

/// One event as text, string payloads marked borrowed (`&`) or owned (`+`).
fn render(ev: &RawEvent<'_>) -> String {
    match ev {
        RawEvent::Key(s) | RawEvent::Str(s) => {
            let mark = if matches!(s, std::borrow::Cow::Borrowed(_)) {
                '&'
            } else {
                '+'
            };
            format!("{mark}{ev:?}")
        }
        _ => format!("{ev:?}"),
    }
}

/// The events a parse delivered before it ended, and how it ended.
type Parsed = (Vec<String>, Result<(), ParseError>);

#[derive(Default)]
struct Rendered(Vec<String>);

impl EventReceiver for Rendered {
    fn event(&mut self, ev: &RawEvent<'_>) {
        self.0.push(render(ev));
    }
}

/// The grammar as a loop over tokens — `parse_events` as it was before
/// it read bytes, kept as the reference: one `next_token_raw` per lexeme,
/// errors positioned at the lexer's offset after the offending token.
fn token_grammar(input: &[u8], opts: ParserOptions) -> Parsed {
    let mut events = Vec::new();
    let outcome = token_grammar_into(input, opts, &mut events);
    (events, outcome)
}

fn token_grammar_into(
    input: &[u8],
    opts: ParserOptions,
    events: &mut Vec<String>,
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
        if open.last() == Some(&true) {
            let RawToken::Str(key) = tok else {
                return Err(unexpected(&lexer, tok));
            };
            events.push(render(&RawEvent::Key(key)));
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
        events.push(render(&ev));
        if opens {
            let object = matches!(ev, RawEvent::StartObject);
            open.push(object);
            tok = lexer.next_token_raw()?;
            match (object, &tok) {
                (true, RawToken::RBrace) | (false, RawToken::RBracket) => {}
                _ => continue,
            }
        } else if open.is_empty() {
            break;
        } else {
            tok = lexer.next_token_raw()?;
        }
        loop {
            match (open.last(), tok) {
                (Some(_), RawToken::Comma) => break,
                (Some(true), RawToken::RBrace) => events.push(render(&RawEvent::EndObject)),
                (Some(false), RawToken::RBracket) => events.push(render(&RawEvent::EndArray)),
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
        lexer.skip_ws();
        if lexer.offset() != input.len() {
            return Err(fail(&lexer, ParseErrorKind::TrailingData));
        }
    }
    Ok(())
}

/// `parse_events` over the bytes.
fn fused(input: &[u8], opts: ParserOptions) -> Parsed {
    let mut recv = Rendered::default();
    let outcome = parse_events(input, opts, &mut recv);
    (recv.0, outcome)
}

/// The engine's entrance, which hands the grammar text it need not check
/// again: `JsonDecoder::decode_events` under the same limits.
fn decoded(text: &str, opts: ParserOptions) -> Parsed {
    let limits = ParseLimits {
        max_depth: opts.max_depth,
        max_input_bytes: None,
        max_string_bytes: opts.max_string_bytes,
    };
    let mut recv = Rendered::default();
    let outcome = JsonDecoder::new()
        .with_limits(limits)
        .decode_events(&mut (), text, &mut recv);
    (recv.0, outcome)
}

/// Every field of an error, and the message the CLI prints.
fn error_fields(outcome: &Result<(), ParseError>) -> Option<(ParseError, String)> {
    outcome.as_ref().err().map(|e| (e.clone(), e.to_string()))
}

/// Both entrances of the fused grammar against the token grammar; returns
/// what they agreed on.
fn assert_grammars_agree(input: &[u8], opts: ParserOptions) -> Parsed {
    let want = token_grammar(input, opts);
    let shown = String::from_utf8_lossy(input);
    let got = fused(input, opts);
    assert_eq!(got.0, want.0, "events of {shown:?}");
    assert_eq!(error_fields(&got.1), error_fields(&want.1), "{shown:?}");
    if let Ok(text) = std::str::from_utf8(input) {
        if !opts.allow_trailing {
            let got = decoded(text, opts);
            assert_eq!(got.0, want.0, "decoded events of {shown:?}");
            assert_eq!(error_fields(&got.1), error_fields(&want.1), "{shown:?}");
        }
    }
    want
}

/// Records that between them hold every lexeme: escapes of every kind,
/// multi-byte text, every number shape, nesting, insignificant whitespace
/// around every token.
const GRAMMAR_RECORDS: [&str; 6] = [
    r#"{"id":"9000000001","type":"IssuesEvent","actor":{"id":283294,"login":"dev7040","gravatar_id":""},"public":true,"labels":[{"name":"bug","color":"d73a4a"}],"assignee":null}"#,
    r#"{"esc\n":"a\tb\"c\\d\/e\b\f\r","\u00e9\ud83d\ude00":"é😀 plain multi-byte text, long enough to span words","":""}"#,
    r#"[0,-0,1,-1,12345678901234567,123456789012345678,1234567890123456789,-9223372036854775808,9223372036854775808,0.5,-2.5E-1,1e3,1E+2,3.0]"#,
    " {\t\"a\" :\r\n [ 1 , { } , [ ] , { \"b\" : [ [ ] ] } ] , \"c\" : false }\n ",
    r#"[[[[{"a":[{"b":[null,true,false]}]}]]]]"#,
    r#""a bare string""#,
];

fn default_and_tight() -> [ParserOptions; 3] {
    [
        ParserOptions::default(),
        ParserOptions {
            max_depth: 3,
            max_string_bytes: Some(9),
            allow_trailing: false,
        },
        ParserOptions {
            allow_trailing: true,
            ..ParserOptions::default()
        },
    ]
}

/// (i) The corpora the rest of this file runs on — clean lines, corrupted
/// lines, respelled witnesses — through both grammars.
#[test]
fn fused_grammar_matches_token_grammar_on_the_corpora() {
    let corpus = dirty_corpus();
    let mut accepted = 0;
    let mut rejected = 0;
    for (i, line) in corpus.text.lines().enumerate() {
        for opts in default_and_tight() {
            let (_, outcome) = assert_grammars_agree(line.as_bytes(), opts);
            if outcome.is_ok() {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        if let Ok(doc) = jsonx::syntax::parse(line) {
            let witness = respelled(&doc, i as u64);
            let (_, outcome) = assert_grammars_agree(witness.as_bytes(), ParserOptions::default());
            assert_eq!(outcome, Ok(()), "{witness}");
        }
    }
    assert!(accepted > 1000 && rejected > 100, "{accepted} / {rejected}");
}

/// (i) Every single-byte truncation and a table of single-byte overwrites
/// of a dozen records: wherever a document can break, it breaks with the
/// same events delivered and the same error.
#[test]
fn fused_grammar_matches_token_grammar_on_every_truncation_and_overwrite() {
    const OVERWRITES: &[u8] = b"\"\\{}[]:, \n0-.eEtn\x00\x1f\x7f\x80\xe9\xff";
    let corpus = dirty_corpus();
    let records = GRAMMAR_RECORDS
        .iter()
        .copied()
        .chain(corpus.clean_text.lines().filter(|l| !l.is_empty()).take(6));
    let mut errors = std::collections::BTreeSet::new();
    for record in records {
        let bytes = record.as_bytes();
        assert_eq!(
            assert_grammars_agree(bytes, ParserOptions::default()).1,
            Ok(()),
            "{record}"
        );
        for cut in 0..bytes.len() {
            for opts in default_and_tight() {
                let _ = assert_grammars_agree(&bytes[..cut], opts);
            }
        }
        let mut dirty = bytes.to_vec();
        for at in 0..bytes.len() {
            for &b in OVERWRITES {
                dirty[at] = b;
                let (_, outcome) = assert_grammars_agree(&dirty, ParserOptions::default());
                if let Err(e) = outcome {
                    errors.insert(e.kind.label());
                }
            }
            dirty[at] = bytes[at];
        }
    }
    // Not vacuous: the overwrites reached every way a document is refused
    // short of a limit.
    for label in [
        "unexpected-eof",
        "unexpected-byte",
        "unexpected-token",
        "bad-number",
        "bad-escape",
        "bad-unicode-escape",
        "lone-surrogate",
        "control-character-in-string",
        "invalid-utf8",
        "trailing-data",
        "bad-keyword",
    ] {
        assert!(errors.contains(label), "{label} not among {errors:?}");
    }
}

/// What a lone literal at the start of `doc` must lex to, worked out a
/// byte at a time with nothing of the lexer's: its text, whether it can
/// be borrowed, and where it ends — or the error's kind and offset. The
/// only escapes it knows are `\n`, `\\` and `\"`; any other is refused.
fn model_literal(
    doc: &[u8],
    limit: Option<usize>,
) -> Result<(String, bool, usize), (ParseErrorKind, usize)> {
    let over = |len: usize| limit.is_some_and(|limit| len > limit);
    let too_long = ParseErrorKind::LimitExceeded(RecordLimit::StringBytes);
    let utf8 = |from: usize, to: usize| {
        std::str::from_utf8(&doc[from..to])
            .map_err(|e| (ParseErrorKind::InvalidUtf8, from + e.valid_up_to()))
    };
    assert_eq!(doc[0], b'"');
    let stops = |b: u8| b == b'"' || b == b'\\' || b < 0x20;
    let first = (1..doc.len()).find(|&i| stops(doc[i]));
    match first.map(|i| (i, doc[i])) {
        None => Err((ParseErrorKind::UnexpectedEof, 0)),
        Some((end, b'"')) if over(end - 1) => Err((too_long, 0)),
        Some((end, b'"')) => Ok((utf8(1, end)?.to_string(), true, end + 1)),
        Some((_, b'\\')) => {
            // The owned path: clean runs between escapes, each checked
            // against what the buffer already holds before it is copied.
            let mut out = String::new();
            let mut run = 1;
            let mut i = 1;
            loop {
                match doc.get(i) {
                    None => return Err((ParseErrorKind::UnexpectedEof, 0)),
                    Some(b'"') | Some(b'\\') => {
                        if run < i {
                            if over(out.len() + (i - run)) {
                                return Err((too_long, run));
                            }
                            out.push_str(utf8(run, i)?);
                        }
                        if doc[i] == b'"' {
                            return Ok((out, false, i + 1));
                        }
                        match doc.get(i + 1) {
                            None => return Err((ParseErrorKind::UnexpectedEof, i)),
                            Some(b'n') => out.push('\n'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'"') => out.push('"'),
                            Some(_) => return Err((ParseErrorKind::BadEscape, i)),
                        }
                        i += 2;
                        run = i;
                    }
                    Some(0x00..=0x1F) => return Err((ParseErrorKind::ControlCharacterInString, i)),
                    Some(_) => i += 1,
                }
            }
        }
        Some((at, _)) => Err((ParseErrorKind::ControlCharacterInString, at)),
    }
}

/// Checks a document that is `[`, one literal, then `suffix` against
/// [`model_literal`], through both grammars and both entrances.
fn assert_literal(literal: &[u8], suffix: &[u8], limit: Option<usize>) {
    let doc = [b"[", literal, suffix].concat();
    let opts = ParserOptions {
        max_string_bytes: limit,
        ..ParserOptions::default()
    };
    let (events, outcome) = assert_grammars_agree(&doc, opts);
    let shown = String::from_utf8_lossy(&doc);
    match model_literal(&doc[1..], limit) {
        Err((kind, offset)) => {
            assert_eq!(events, ["StartArray"], "{shown:?}");
            let want = ParseError::at(kind, &doc, 1 + offset);
            assert_eq!(outcome, Err(want), "{shown:?} under {limit:?}");
        }
        Ok((text, borrowed, end)) => {
            let mark = if borrowed { '&' } else { '+' };
            assert_eq!(events[1], format!("{mark}Str({text:?})"), "{shown:?}");
            // A literal the model ends early leaves content behind it
            // that no array goes on with.
            let whole = !suffix.is_empty() && doc[1 + end..] == *suffix;
            assert_eq!(outcome.is_ok(), whole, "{shown:?}: {outcome:?}");
        }
    }
}

/// (ii) The lane table: the string scanner looks at eight bytes at once,
/// so every byte it must stop at — and every byte it must not — sits at
/// every lane, with the literal ending in the last word of the input (the
/// byte-wise walk) and well before it (the word scan).
#[test]
fn string_scanner_lane_table() {
    let specials: [&[u8]; 9] = [
        b"\"",
        b"\\",
        b"\\n",
        b"\x00",
        b"\x1f",
        b"\x7f",
        b"\x80",
        "é".as_bytes(),
        "😀".as_bytes(),
    ];
    let suffixes: [&[u8]; 2] = [b"]", b",0,0,0,0]"];
    for len in 0..=17 {
        for suffix in suffixes {
            // Plain literals of every length, and cut short at every byte.
            let plain = [b"\"", "a".repeat(len).as_bytes(), b"\""].concat();
            assert_literal(&plain, suffix, None);
            assert_literal(&plain[..=len], b"", None);
            for special in specials {
                for at in 0..=len {
                    let body = [
                        "a".repeat(at).as_bytes(),
                        special,
                        "a".repeat(len - at).as_bytes(),
                    ]
                    .concat();
                    let literal = [b"\"", &body[..], b"\""].concat();
                    assert_literal(&literal, suffix, None);
                    // …and unterminated, ending right after the special.
                    assert_literal(&literal[..1 + at + special.len()], b"", None);
                }
            }
        }
    }
    // The cap counts content bytes — borrowed: of the literal; owned: of
    // the unescaped text, run by run.
    for literal in [&b"\"abcdefghijkl\""[..], b"\"abcde\\nfghijk\"", b"\"\\n\""] {
        let content = literal.len() - 2;
        for limit in content.saturating_sub(3)..=content + 1 {
            for suffix in suffixes {
                assert_literal(literal, suffix, Some(limit));
            }
        }
    }
    // Input that is not UTF-8 as a whole: the bad byte is found in the
    // literal that holds it, the literals before it still borrow, and
    // outside a literal it is a byte no token starts with.
    for (doc, kind, offset) in [
        (&b"[\"ok\",\"a\xffb\"]"[..], ParseErrorKind::InvalidUtf8, 8),
        (b"[\"ok\",\"\\n\xc3(\"]", ParseErrorKind::InvalidUtf8, 9),
        (b"[\"ok\",\"\xe9\x80\"]", ParseErrorKind::InvalidUtf8, 7),
        (b"[\"ok\",\xff]", ParseErrorKind::UnexpectedByte(0xff), 6),
        (b"[\"ok\",\"fine\"]\xff", ParseErrorKind::TrailingData, 13),
        (b"[\"ok\",\"a\xff", ParseErrorKind::UnexpectedEof, 6),
        (
            b"[\"ok\",\"a\xff\x01\"]",
            ParseErrorKind::ControlCharacterInString,
            9,
        ),
    ] {
        let (events, outcome) = assert_grammars_agree(doc, ParserOptions::default());
        assert_eq!(events[..2], ["StartArray", "&Str(\"ok\")"]);
        let want = ParseError::at(kind, doc, offset);
        assert_eq!(jsonx::syntax::parse_bytes(doc), Err(want.clone()));
        assert_eq!(outcome, Err(want));
    }
}

/// (iii) Integers are accumulated while short enough not to overflow and
/// parsed from text otherwise: the seam is at 18 bytes, the type's edge
/// at 19 digits.
#[test]
fn integer_scanner_seam_table() {
    let mut literals: Vec<String> = Vec::new();
    for digits in 1..=21 {
        for lead in ['1', '9'] {
            let tail = "0726354819".chars().cycle();
            let magnitude: String = std::iter::once(lead).chain(tail).take(digits).collect();
            literals.push(format!("-{magnitude}"));
            literals.push(magnitude);
        }
    }
    literals.extend([
        i64::MIN.to_string(),
        i64::MAX.to_string(),
        "9223372036854775808".to_string(),
        "-9223372036854775809".to_string(),
        "0".to_string(),
        "-0".to_string(),
    ]);
    let mut ints = 0;
    let mut floats = 0;
    for literal in &literals {
        let want = match literal.parse::<i64>() {
            Ok(int) => {
                ints += 1;
                Number::Int(int)
            }
            Err(_) => {
                floats += 1;
                Number::from_f64(literal.parse::<f64>().unwrap()).unwrap()
            }
        };
        let want = render(&RawEvent::Num(want));
        for doc in [
            literal.clone(),
            format!("[{literal}]"),
            format!("[{literal} ,0]"),
        ] {
            let (events, outcome) = assert_grammars_agree(doc.as_bytes(), ParserOptions::default());
            assert_eq!(outcome, Ok(()), "{doc}");
            assert!(events.contains(&want), "{doc}: {events:?} lacks {want}");
        }
    }
    assert!(ints > 70 && floats >= 10, "{ints} / {floats}");
    for (bad, offset) in [("01", 0), ("-01", 0), ("[-]", 1), ("[1.]", 1), ("[00]", 1)] {
        let (_, outcome) = assert_grammars_agree(bad.as_bytes(), ParserOptions::default());
        let want = ParseError::at(ParseErrorKind::BadNumber, bad.as_bytes(), offset);
        assert_eq!(outcome, Err(want), "{bad}");
    }
}

/// (iv) The open-container stack keeps 64 levels in a word and spills the
/// rest: objects and arrays interleaved to either side of each word's
/// edge close in the order they opened, and the depth limit holds one
/// below, at and above each.
#[test]
fn nesting_across_the_container_words() {
    for depth in [1usize, 2, 63, 64, 65, 127, 128, 129, 130, 200] {
        // Level `i` is an object when bit `i` of a pattern is set.
        for pattern in [0x5555_5555_5555_5555u64, 0xF0F0_F0F0_0F0F_0F0F, 0, u64::MAX] {
            let object = |level: usize| pattern >> (level % 64) & 1 == 1 || level % 67 == 3;
            let mut doc = String::new();
            let mut want = Vec::new();
            let mut opener_ends = Vec::new();
            for level in 0..depth {
                if object(level) {
                    doc.push_str("{\"k\":");
                    opener_ends.push(doc.len() - 4);
                    want.extend(["StartObject".to_string(), "&Key(\"k\")".to_string()]);
                } else {
                    doc.push('[');
                    opener_ends.push(doc.len());
                    want.push("StartArray".to_string());
                }
            }
            doc.push('7');
            want.push("Num(Int(7))".to_string());
            for level in (0..depth).rev() {
                doc.push(if object(level) { '}' } else { ']' });
                want.push(
                    if object(level) {
                        "EndObject"
                    } else {
                        "EndArray"
                    }
                    .to_string(),
                );
            }
            for max_depth in [depth - 1, depth, depth + 1] {
                let opts = ParserOptions {
                    max_depth,
                    ..ParserOptions::default()
                };
                let (events, outcome) = assert_grammars_agree(doc.as_bytes(), opts);
                if max_depth >= depth {
                    assert_eq!(outcome, Ok(()), "depth {depth} under {max_depth}");
                    assert_eq!(events, want, "depth {depth} pattern {pattern:x}");
                } else {
                    let at = opener_ends[max_depth];
                    let too_deep = ParseError::at(ParseErrorKind::TooDeep, doc.as_bytes(), at);
                    assert_eq!(outcome, Err(too_deep), "depth {depth} under {max_depth}");
                }
            }
            // A closer of the wrong kind, at each level's turn to close.
            let closers = doc.len() - depth;
            for level in [0, depth / 2, depth - 1] {
                let mut wrong = doc.clone().into_bytes();
                let at = closers + (depth - 1 - level);
                wrong[at] = if wrong[at] == b'}' { b']' } else { b'}' };
                let opts = ParserOptions {
                    max_depth: depth,
                    ..ParserOptions::default()
                };
                let (_, outcome) = assert_grammars_agree(&wrong, opts);
                let name = if wrong[at] == b'}' { "'}'" } else { "']'" };
                let kind = ParseErrorKind::UnexpectedToken(name);
                assert_eq!(outcome, Err(ParseError::at(kind, &wrong, at + 1)));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 1: structural index vs lexer token positions
// ---------------------------------------------------------------------------

/// Structural positions according to the lexer: scan tokens, recording
/// the byte offset each one starts at (strings also record their closing
/// quote). Stops at the first lexer error, so on invalid input the result
/// covers exactly the well-formed prefix.
#[derive(Debug, Default, PartialEq)]
struct LexerStructurals {
    colon: Vec<usize>,
    comma: Vec<usize>,
    lbrace: Vec<usize>,
    rbrace: Vec<usize>,
    lbracket: Vec<usize>,
    rbracket: Vec<usize>,
    quote: Vec<usize>,
}

fn lexer_structurals(bytes: &[u8]) -> LexerStructurals {
    let mut lx = Lexer::new(bytes);
    let mut out = LexerStructurals::default();
    loop {
        lx.skip_ws();
        let at = lx.offset();
        match lx.next_token_raw() {
            Ok(RawToken::Eof) | Err(_) => return out,
            Ok(RawToken::Colon) => out.colon.push(at),
            Ok(RawToken::Comma) => out.comma.push(at),
            Ok(RawToken::LBrace) => out.lbrace.push(at),
            Ok(RawToken::RBrace) => out.rbrace.push(at),
            Ok(RawToken::LBracket) => out.lbracket.push(at),
            Ok(RawToken::RBracket) => out.rbracket.push(at),
            Ok(RawToken::Str(_)) => {
                // The token spans `at..lx.offset()`; both delimiting quotes
                // are unescaped by construction.
                out.quote.push(at);
                out.quote.push(lx.offset() - 1);
            }
            Ok(_) => {}
        }
    }
}

fn bitmap_structurals(bytes: &[u8]) -> LexerStructurals {
    let bits = jsonx::syntax::structural::build(bytes);
    LexerStructurals {
        colon: Bitmaps::positions(&bits.colon).collect(),
        comma: Bitmaps::positions(&bits.comma).collect(),
        lbrace: Bitmaps::positions(&bits.lbrace).collect(),
        rbrace: Bitmaps::positions(&bits.rbrace).collect(),
        lbracket: Bitmaps::positions(&bits.lbracket).collect(),
        rbracket: Bitmaps::positions(&bits.rbracket).collect(),
        quote: Bitmaps::positions(&bits.quote).collect(),
    }
}

/// Documents whose serialized form is hostile to a structural scanner:
/// strings full of braces, colons, commas, quotes-to-be-escaped,
/// backslashes and multi-byte UTF-8.
fn arb_doc() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-100_000i64..100_000).prop_map(|i| Value::Num(Number::Int(i))),
        (-1000.0f64..1000.0).prop_map(|f| Value::Num(Number::from_f64(f).unwrap())),
        "\\PC{0,12}".prop_map(Value::Str),
        "[{}:,\u{4e16}\u{e9}a-c]{0,10}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Arr),
            prop::collection::vec(("\\PC{0,6}", inner), 0..4)
                .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>())),
        ]
    })
}

proptest! {
    /// On valid JSON the bitmap and the lexer must agree exactly, for
    /// every structural category and both string delimiters.
    #[test]
    fn structural_bitmaps_match_lexer_on_valid_json(doc in arb_doc()) {
        let text = to_string(&doc);
        let bytes = text.as_bytes();
        prop_assert_eq!(bitmap_structurals(bytes), lexer_structurals(bytes), "doc {}", text);
    }

    /// On corrupted input every token the lexer produces before its first
    /// error must still be present in the bitmaps: the lexer and the
    /// scanner read the same prefix the same way.
    #[test]
    fn structural_bitmaps_cover_lexer_prefix_on_corrupted_json(
        doc in arb_doc(),
        cut in 0usize..512,
        junk in "[@\\{\\}:,\"a-z ]{1,4}",
    ) {
        let mut text = to_string(&doc);
        // Corrupt: truncate at an arbitrary char boundary and append junk.
        while !text.is_char_boundary(cut.min(text.len())) {
            text.pop();
        }
        text.truncate(cut.min(text.len()));
        text.push_str(&junk);
        let bytes = text.as_bytes();
        let from_lexer = lexer_structurals(bytes);
        let from_bits = bitmap_structurals(bytes);
        for (name, lexer, bits) in [
            ("colon", &from_lexer.colon, &from_bits.colon),
            ("comma", &from_lexer.comma, &from_bits.comma),
            ("lbrace", &from_lexer.lbrace, &from_bits.lbrace),
            ("rbrace", &from_lexer.rbrace, &from_bits.rbrace),
            ("lbracket", &from_lexer.lbracket, &from_bits.lbracket),
            ("rbracket", &from_lexer.rbracket, &from_bits.rbracket),
            ("quote", &from_lexer.quote, &from_bits.quote),
        ] {
            for pos in lexer {
                prop_assert!(
                    bits.contains(pos),
                    "{} at {} seen by lexer but not bitmap in {:?}",
                    name, pos, text
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Layer 2: fast path vs slow path, clean corpora
// ---------------------------------------------------------------------------

/// A schema pool straddling the streamable fragment's boundary: open and
/// closed members the walk validates from events, and members outside
/// the fragment (every record decoded to a document). Behaviour must be
/// identical everywhere.
fn schema_pool() -> Vec<Value> {
    vec![
        json!({
            "type": "object",
            "properties": {"a": {"type": "integer"}, "b": {"type": "string"}},
            "required": ["a"]
        }),
        json!({"properties": {"a": {"minimum": 0}, "geo": {"properties": {"lat": {"type": "number"}}}}}),
        json!(true),
        json!({"type": "object"}),
        // The verdict reads every root field.
        json!({"type": "object", "additionalProperties": {"type": "string"}}),
        json!({"allOf": [{"required": ["a"]}]}),
        json!({"type": "object", "minProperties": 2}),
        // Closed: every field matters. Streamable, so the event walk.
        closed_schema(),
        json!({
            "properties": {"a": {"type": ["integer", "null"]}, "b": {"maxLength": 3}},
            "required": ["a", "geo.lat"],
            "additionalProperties": false
        }),
        // Closed and not streamable.
        json!({"properties": {"a": {"uniqueItems": true}, "b": {}}, "additionalProperties": false}),
    ]
}

/// The shape of schema `jsonx infer --schema` writes, by hand.
fn closed_schema() -> Value {
    json!({
        "type": "object",
        "properties": {
            "a": {"anyOf": [{"type": "integer"}, {"type": "array", "items": {"type": "integer"}}]},
            "b": {"type": "string"},
            "geo": {
                "type": "object",
                "properties": {"lat": {"type": "number"}, "a": {"type": "null"}},
                "additionalProperties": false
            }
        },
        "required": ["a"],
        "additionalProperties": false
    })
}

/// Schema `idx` of the pool; one past its end, the schema inferred from
/// `docs` themselves (which their respelled text then strays from).
fn schema_at(idx: usize, docs: &[Value]) -> Value {
    let mut pool = schema_pool();
    if idx == pool.len() {
        let ty = jsonx::core::infer_collection(docs, jsonx::core::Equivalence::Kind);
        return jsonx::core::to_json_schema(&ty);
    }
    pool.swap_remove(idx)
}

/// Record-shaped documents over a small key pool that includes dotted
/// keys (a skipped one must not alias a nested column, one the layout
/// has must collide with it as the DOM shred does) and the schema
/// pool's property names.
fn arb_record() -> impl Strategy<Value = Value> {
    let key = prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("geo".to_string()),
        Just("geo.lat".to_string()),
        "[a-d.]{1,4}",
    ];
    let scalar = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-100i64..100).prop_map(|i| Value::Num(Number::Int(i))),
        "\\PC{0,8}".prop_map(Value::Str),
    ];
    let value = scalar.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Arr),
            prop::collection::vec(("[a-d]{1,3}", inner), 0..3)
                .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>())),
        ]
    });
    prop::collection::vec((key, value), 0..5)
        .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>()))
}

fn to_ndjson(docs: &[Value]) -> String {
    let mut out = String::new();
    for d in docs {
        out.push_str(&to_string(d));
        out.push('\n');
    }
    out
}

/// `docs` as text no serializer writes: repeated and escaped-equal keys,
/// shuffled members, integer-valued floats (every other line; the rest
/// stay as serialized).
fn to_respelled_ndjson(docs: &[Value], seed: u64) -> String {
    let mut out = String::new();
    for (i, d) in docs.iter().enumerate() {
        match i % 2 {
            0 => out.push_str(&respelled(d, seed.wrapping_add(i as u64))),
            _ => out.push_str(&to_string(d)),
        }
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fast and slow validation verdicts are identical for open, closed
    /// and non-streamable schemas alike, at every worker count — and
    /// they are the interpreter's on the parser's document.
    #[test]
    fn fast_validation_verdicts_equal_slow(
        docs in prop::collection::vec(arb_record(), 1..30),
        schema_idx in 0usize..11,
        seed in any::<u64>(),
    ) {
        let ndjson = to_respelled_ndjson(&docs, seed);
        let schema = CompiledSchema::compile(&schema_at(schema_idx, &docs)).unwrap();
        let vopts = ValidatorOptions::default();
        for workers in WORKER_COUNTS {
            let (slow, fast) = twins(workers, FaultOptions::default());
            let slow = slow.validate(Source::slice(&ndjson), &schema, vopts);
            let fast = fast.validate(Source::slice(&ndjson), &schema, vopts);
            prop_assert_eq!(&fast, &slow, "workers {}", workers);
            let (verdicts, _) = fast.unwrap();
            for ((record, verdict), line) in verdicts.iter().zip(ndjson.lines()) {
                let doc = jsonx::syntax::parse(line).unwrap();
                prop_assert_eq!(verdict.is_valid(), oracle::validate(&schema, &doc).is_ok(), "record {}: {}", record, line);
            }
        }
    }

    /// Fast and slow translation batches are row-identical at every
    /// worker count — including corpora with literal dotted root keys,
    /// which the fast path must route to the full parser rather than
    /// let them alias nested column paths.
    #[test]
    fn fast_translation_batches_equal_slow(
        docs in prop::collection::vec(arb_record(), 1..30),
    ) {
        let ndjson = to_ndjson(&docs);
        let ty = jsonx::core::infer_collection(&docs, jsonx::core::Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        for workers in WORKER_COUNTS {
            let (slow, fast) = twins(workers, FaultOptions::default());
            let slow = slow.translate(Source::slice(&ndjson), &shredder);
            let fast = fast.translate(Source::slice(&ndjson), &shredder);
            prop_assert_eq!(&fast, &slow, "workers {}", workers);
        }
    }
}

/// Wide records: 14 root fields, most of the bytes in long strings.
fn wide_records() -> Vec<Value> {
    (0..60i64)
        .map(|i| {
            let mut obj = Object::new();
            obj.insert("id", json!(i));
            obj.insert("name", Value::Str(format!("user{i}")));
            for k in 0..10i64 {
                let text = format!("{}-{}", i * 31 + k, "x".repeat(40));
                obj.insert(format!("field{k:02}"), Value::Str(text));
            }
            obj.insert("metrics", json!([i, i * 2, i % 7]));
            obj.insert(
                "nested",
                json!({"a": (i % 100), "b": "d,e:f\\\"", "c": [true, false]}),
            );
            Value::Obj(obj)
        })
        .collect()
}

/// The structural scanner, as a library: under a two-field envelope it
/// must *take* every wide record and leave most of its bytes untouched.
#[test]
fn wide_records_scan_skips_most_bytes() {
    use jsonx::syntax::structural::{FieldSet, ScanOptions, StructuralScanner};
    let ndjson = to_ndjson(&wide_records());
    let envelope = FieldSet::new(["id".to_string(), "name".to_string()]);
    let mut scanner = StructuralScanner::new();
    let (mut total, mut projected) = (0, 0);
    for line in ndjson.lines() {
        assert!(
            scanner.scan(line.as_bytes(), &envelope, &ScanOptions::default()),
            "declined: {line}"
        );
        total += line.len();
        for field in scanner.fields() {
            projected += field.key.len() + field.value.len();
        }
    }
    assert!(projected * 2 < total, "{projected} of {total} bytes parsed");
}

/// Wide records under a two-field envelope, and a layout of the same two
/// fields: the event walk must take every record (handing them all back
/// would make fast ≡ slow hold vacuously) and both consumers must decide
/// exactly as the full parser does.
#[test]
fn wide_records_take_the_event_walk() {
    let docs = wide_records();
    let ndjson = to_ndjson(&docs);
    let schema = CompiledSchema::compile(&json!({
        "type": "object",
        "properties": {"id": {"type": "integer", "maximum": 49}, "name": {"type": "string"}},
        "required": ["id", "name"]
    }))
    .unwrap();
    // Open, so the scanner could project it, but `uniqueItems` needs the
    // array whole: every record is decoded to a document.
    let open_unique =
        CompiledSchema::compile(&json!({"properties": {"metrics": {"uniqueItems": true}}}))
            .unwrap();
    assert!(open_unique.root_projection().is_some());
    assert_eq!(open_unique.streamable(), Err("uniqueItems"));
    let narrow: Vec<Value> = docs
        .iter()
        .map(
            |d| json!({"id": d.get("id").unwrap().clone(), "name": d.get("name").unwrap().clone()}),
        )
        .collect();
    let layout = Shredder::from_type(&jsonx::core::infer_collection(
        &narrow,
        jsonx::core::Equivalence::Kind,
    ));
    for workers in WORKER_COUNTS {
        let (slow, fast) = twins(workers, FaultOptions::default());
        let vopts = ValidatorOptions::default();
        let verdicts = fast.validate(Source::slice(&ndjson), &schema, vopts);
        assert_eq!(
            verdicts,
            slow.validate(Source::slice(&ndjson), &schema, vopts),
            "workers {workers}"
        );
        let (verdicts, _) = verdicts.unwrap();
        let invalid = verdicts.iter().filter(|(_, v)| !v.is_valid());
        assert_eq!(invalid.count(), 10, "ids 50..60 exceed the maximum");
        assert_eq!(
            fast.validate(Source::slice(&ndjson), &open_unique, vopts),
            slow.validate(Source::slice(&ndjson), &open_unique, vopts),
            "workers {workers}"
        );
        let batch = fast.translate(Source::slice(&ndjson), &layout);
        assert_eq!(
            batch,
            slow.translate(Source::slice(&ndjson), &layout),
            "workers {workers}"
        );
        assert_eq!(batch.unwrap().0, layout.clone().shred(&narrow).unwrap());
    }

    // The run's own account of the same thing, kept under `timing`: every
    // record validated from its events under a streamable schema, open or
    // closed; every record decoded to a document under the keyword that
    // keeps a schema out of the streamable fragment, and under `no-plan`
    // with the fast path off.
    let closed = CompiledSchema::compile(&json!({"additionalProperties": false})).unwrap();
    let unique = CompiledSchema::compile(
        &json!({"properties": {"metrics": {"uniqueItems": true}}, "additionalProperties": false}),
    )
    .unwrap();
    assert_eq!(closed.streamable(), Ok(()));
    let (slow, fast) = twins(2, FaultOptions::default());
    let all = |why| [(why, 60)].into_iter().collect::<BTreeMap<_, _>>();
    for (run, timing, schema, fast, replayed) in [
        (&fast, true, &schema, 60, BTreeMap::new()),
        (&fast, true, &closed, 60, BTreeMap::new()),
        (&fast, true, &unique, 0, all("uniqueItems")),
        (&fast, true, &open_unique, 0, all("uniqueItems")),
        (&slow, true, &schema, 0, all("no-plan")),
        (&slow, true, &closed, 0, all("no-plan")),
        (&slow, true, &unique, 0, all("no-plan")),
        (&fast, false, &schema, 0, BTreeMap::new()),
        (&fast, false, &closed, 0, BTreeMap::new()),
    ] {
        let run = Run {
            timing,
            ..run.clone()
        };
        let (_, report) = run
            .validate(Source::slice(&ndjson), schema, ValidatorOptions::default())
            .unwrap();
        assert_eq!(report.routes, RouteCounts { fast, replayed });
    }
}

// ---------------------------------------------------------------------------
// Layer 2: fast path vs slow path, dirty corpora under every policy
// ---------------------------------------------------------------------------

fn policies() -> Vec<ErrorPolicy> {
    vec![
        ErrorPolicy::FailFast,
        ErrorPolicy::Skip { max_errors: None },
        ErrorPolicy::Skip {
            max_errors: Some(10),
        },
        ErrorPolicy::Skip {
            max_errors: Some(1000),
        },
    ]
}

fn dirty_corpus() -> jsonx::gen::DirtyNdjson {
    dirty_ndjson(&DirtyConfig {
        seed: 0xFA57,
        docs: 600,
        corruption_rate: 0.08,
        blank_rate: 0.02,
        ..DirtyConfig::default()
    })
}

/// The dirty corpus with every third good line respelled (repeated keys
/// among the rest), and the two schemas it is validated under, both from
/// events: an open one, and the closed one inferred from the corpus's
/// clean twin.
fn dirty_validation_inputs() -> (jsonx::gen::DirtyNdjson, [CompiledSchema; 2]) {
    let mut corpus = dirty_corpus();
    let clean = jsonx::syntax::parse_ndjson(&corpus.clean_text).unwrap();
    let inferred = jsonx::core::to_json_schema(&jsonx::core::infer_collection(
        &clean,
        jsonx::core::Equivalence::Kind,
    ));
    let lines: Vec<String> = corpus
        .text
        .lines()
        .enumerate()
        .map(|(i, line)| match jsonx::syntax::parse(line) {
            Ok(doc) if i % 3 == 0 => respelled(&doc, i as u64),
            _ => line.to_string(),
        })
        .collect();
    corpus.text = lines.join("\n") + "\n";
    let schemas = [schema_pool().swap_remove(0), inferred]
        .map(|schema| CompiledSchema::compile(&schema).unwrap());
    assert!(schemas[0].root_projection().is_some() && schemas[1].root_projection().is_none());
    assert_eq!(schemas[1].streamable(), Ok(()));
    (corpus, schemas)
}

/// On a dirty corpus every malformed line lands in the report with its
/// diagnostic: fast and slow must agree on every entry, error kinds and
/// offsets included (the event walk's diagnostics come from the one
/// grammar the full parser is).
#[test]
fn fast_validation_matches_slow_on_dirty_corpus() {
    let (corpus, schemas) = dirty_validation_inputs();
    let vopts = ValidatorOptions::default();
    let keep_all = FaultOptions {
        policy: ErrorPolicy::Skip { max_errors: None },
        keep_rejects: true,
        ..FaultOptions::default()
    };
    for schema in &schemas {
        for workers in WORKER_COUNTS {
            let (slow, fast) = twins(workers, keep_all);
            let slow = slow
                .validate(Source::slice(&corpus.text), schema, vopts)
                .unwrap();
            let fast = fast
                .validate(Source::slice(&corpus.text), schema, vopts)
                .unwrap();
            assert_eq!(fast, slow, "workers {workers}");
            assert_eq!(slow.1.errors.rejects.len(), corpus.bad_lines.len());
        }
    }
    // Not vacuous: the walk took most records and handed some back.
    let timed = Run {
        timing: true,
        ..twins(2, keep_all).1
    };
    let (verdicts, report) = timed
        .validate(Source::slice(&corpus.text), &schemas[1], vopts)
        .unwrap();
    let routes = report.routes;
    assert!(
        routes.fast > 400 && routes.replayed["duplicate-key"] > 20,
        "{routes:?}"
    );
    let valid = verdicts.iter().filter(|(_, v)| v.is_valid()).count();
    assert!(
        valid > 300 && verdicts.len() - valid > 20,
        "{valid} of {}",
        verdicts.len()
    );
}

/// Validation: verdicts, RunReports and StreamErrors must be
/// identical under every policy at every worker count.
#[test]
fn fast_guarded_validation_matches_slow_on_dirty_corpus() {
    let (corpus, schemas) = dirty_validation_inputs();
    let vopts = ValidatorOptions::default();
    for schema in &schemas {
        for policy in policies() {
            for keep_rejects in [false, true] {
                let fault = FaultOptions {
                    policy,
                    keep_rejects,
                    ..FaultOptions::default()
                };
                for workers in WORKER_COUNTS {
                    let (slow, fast) = twins(workers, fault);
                    let slow = slow.validate(Source::slice(&corpus.text), schema, vopts);
                    let fast = fast.validate(Source::slice(&corpus.text), schema, vopts);
                    assert_eq!(fast, slow, "workers {workers} policy {policy:?}");
                }
            }
        }
    }
}

/// Translation: batches, RunReports and StreamErrors must be
/// identical under every policy at every worker count.
#[test]
fn fast_guarded_translation_matches_slow_on_dirty_corpus() {
    let corpus = dirty_corpus();
    // Plan the layout from the clean twin so the shredder has a real
    // record type to shred into.
    let docs = jsonx::syntax::parse_ndjson(&corpus.clean_text).unwrap();
    let ty = jsonx::core::infer_collection(&docs, jsonx::core::Equivalence::Kind);
    let shredder = Shredder::from_type(&ty);
    for policy in policies() {
        let fault = FaultOptions {
            policy,
            ..FaultOptions::default()
        };
        for workers in WORKER_COUNTS {
            let (slow, fast) = twins(workers, fault);
            let slow = slow.translate(Source::slice(&corpus.text), &shredder);
            let fast = fast.translate(Source::slice(&corpus.text), &shredder);
            assert_eq!(fast, slow, "workers {workers} policy {policy:?}");
        }
    }
}

/// Fail-fast translation on a dirty corpus must report the same first
/// error (line and kind) with and without the fast path.
#[test]
fn fast_translation_first_error_matches_slow_on_dirty_corpus() {
    let corpus = dirty_corpus();
    let docs = jsonx::syntax::parse_ndjson(&corpus.clean_text).unwrap();
    let ty = jsonx::core::infer_collection(&docs, jsonx::core::Equivalence::Kind);
    let shredder = Shredder::from_type(&ty);
    for workers in WORKER_COUNTS {
        let (slow, fast) = twins(workers, FaultOptions::default());
        let slow = slow.translate(Source::slice(&corpus.text), &shredder);
        let fast = fast.translate(Source::slice(&corpus.text), &shredder);
        assert_eq!(fast, slow, "workers {workers}");
        assert!(
            fast.is_err(),
            "dirty corpus must fail fail-fast translation"
        );
    }
}
