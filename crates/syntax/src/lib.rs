//! # jsonx-syntax
//!
//! A from-scratch JSON syntax layer: one lexer, one push grammar
//! ([`parse_events`]) whose receivers build whatever the caller needs — a
//! DOM ([`ValueBuilder`], behind [`parse`]), a type, a column batch —, a
//! serializer/pretty-printer, and newline-delimited collection I/O.
//!
//! This crate is the *baseline* parser of the workspace. The tutorial's §4.2
//! surveys parsers (Mison, Fad.js) whose headline claims are speedups
//! relative to a conventional eager DOM parser — this is that conventional
//! parser, implemented carefully per RFC 8259: full string escapes with
//! surrogate pairs, the exact number grammar, configurable nesting limits,
//! and byte-precise error positions. The [`structural`] module carries the
//! word-parallel counterpart: SWAR structural bitmaps and a projecting
//! skip-scanner that the streaming pipeline uses as its fast path, with
//! this parser as the verified fallback.
//!
//! ```
//! use jsonx_syntax::{parse, to_string_pretty};
//!
//! let v = parse(r#"{"greeting": "hello", "n": [1, 2.5, -3e2]}"#).unwrap();
//! assert_eq!(v.get("n").unwrap().get_index(2).unwrap().as_f64(), Some(-300.0));
//! let pretty = to_string_pretty(&v);
//! assert!(pretty.contains("\"greeting\""));
//! ```

pub mod csv;
pub mod decoder;
pub mod error;
pub mod event;
pub mod lexer;
pub mod limits;
pub mod ndjson;
pub mod parser;
pub mod serializer;
pub mod structural;

pub use csv::CsvDecoder;
pub use decoder::{EventReceiver, JsonDecoder, NullReceiver, RecordDecoder, Tee, ValueBuilder};
pub use error::{ParseError, ParseErrorKind, RecordLimit};
pub use event::{parse_events, RawEvent};
pub use lexer::{Lexer, RawToken};
pub use limits::{ParseLimits, DEFAULT_MAX_DEPTH, MAX_DEPTH_CEILING};
pub use ndjson::{parse_ndjson, write_ndjson};
pub use parser::{parse, parse_bytes, parse_with, ParserOptions};
pub use serializer::{
    append_compact, to_string, to_string_pretty, write_ndjson_to, write_value, write_value_to,
    SerializeOptions,
};
pub use structural::{Bitmaps, FieldSet, ProjectedField, ScanOptions, StructuralScanner};
