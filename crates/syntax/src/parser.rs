//! The DOM parser: the one grammar ([`parse_events`]) pushed into a
//! [`ValueBuilder`].

use crate::decoder::ValueBuilder;
use crate::error::ParseError;
use crate::event::parse_events;
use crate::limits::DEFAULT_MAX_DEPTH;
use jsonx_data::Value;

/// Parser configuration.
#[derive(Debug, Clone, Copy)]
pub struct ParserOptions {
    /// Maximum nesting depth of arrays/objects. The grammar itself does
    /// not recurse; the cap protects what walks the parsed document.
    pub max_depth: usize,
    /// When `false` (default), non-whitespace after the value is an error.
    pub allow_trailing: bool,
    /// Cap on one string literal's content bytes; `None` disables the
    /// guard. Mirrors [`ParseLimits::max_string_bytes`].
    ///
    /// [`ParseLimits::max_string_bytes`]: crate::ParseLimits::max_string_bytes
    pub max_string_bytes: Option<usize>,
}

impl Default for ParserOptions {
    fn default() -> Self {
        ParserOptions {
            max_depth: DEFAULT_MAX_DEPTH,
            allow_trailing: false,
            max_string_bytes: None,
        }
    }
}

/// Parses a complete JSON document from text.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    parse_bytes(text.as_bytes())
}

/// Parses a complete JSON document from bytes.
pub fn parse_bytes(bytes: &[u8]) -> Result<Value, ParseError> {
    parse_with(bytes, ParserOptions::default())
}

/// Parses with explicit [`ParserOptions`]. Returns the value and, when
/// `allow_trailing` is set, ignores anything after it.
pub fn parse_with(bytes: &[u8], opts: ParserOptions) -> Result<Value, ParseError> {
    let mut builder = ValueBuilder::new();
    parse_events(bytes, opts, &mut builder)?;
    Ok(builder.take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{ParseErrorKind, RecordLimit};
    use jsonx_data::json;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-3").unwrap(), Value::from(-3));
        assert_eq!(parse("\"s\"").unwrap(), Value::from("s"));
    }

    #[test]
    fn composites() {
        let v = parse(r#"{"a": [1, {"b": null}], "c": false}"#).unwrap();
        assert_eq!(v, json!({"a": [1, {"b": null}], "c": false}));
    }

    #[test]
    fn empty_composites() {
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), json!({}));
        assert_eq!(parse("[[]]").unwrap(), json!([[]]));
    }

    #[test]
    fn duplicate_keys_last_wins() {
        // …in the first occurrence's position.
        let v = parse(r#"{"k": 1, "z": 0, "k": 2}"#).unwrap();
        assert_eq!(crate::to_string(&v), r#"{"k":2,"z":0}"#);
    }

    #[test]
    fn string_byte_limit_enforced_on_dom_path() {
        let opts = ParserOptions {
            max_string_bytes: Some(4),
            ..Default::default()
        };
        // Exactly at the cap parses; one over is rejected — in values
        // and in object keys alike.
        assert!(parse_with(br#"{"k": "abcd"}"#, opts).is_ok());
        let err = parse_with(br#"{"k": "abcde"}"#, opts).unwrap_err();
        assert_eq!(
            err.kind,
            ParseErrorKind::LimitExceeded(RecordLimit::StringBytes)
        );
        assert!(parse_with(br#"{"abcde": 1}"#, opts).is_err());
    }

    #[test]
    fn depth_limit_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn whitespace_everywhere() {
        let v = parse(" \t\r\n{ \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v, json!({"a": [1, 2]}));
    }
}
