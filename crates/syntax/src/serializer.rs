//! JSON serialization: compact, pretty, ASCII-safe, and key-sorted modes.

use jsonx_data::{write_escaped, Number, Value};
use std::fmt::Write as _;

/// Serializer configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerializeOptions {
    /// `Some(n)`: pretty-print with `n`-space indentation; `None`: compact.
    pub indent: Option<usize>,
    /// Escape all non-ASCII characters as `\uXXXX`.
    pub ascii_only: bool,
    /// Emit object keys in sorted order (canonical form).
    pub sort_keys: bool,
}

impl SerializeOptions {
    /// Compact output (no whitespace).
    pub fn compact() -> Self {
        Self::default()
    }

    /// Two-space pretty-printing.
    pub fn pretty() -> Self {
        SerializeOptions {
            indent: Some(2),
            ..Default::default()
        }
    }

    /// Canonical form: compact, sorted keys, ASCII-only — byte-identical
    /// output for structurally equal values.
    pub fn canonical() -> Self {
        SerializeOptions {
            indent: None,
            ascii_only: true,
            sort_keys: true,
        }
    }
}

/// Serializes compactly.
pub fn to_string(v: &Value) -> String {
    write_value(v, SerializeOptions::compact())
}

/// Serializes with two-space indentation.
pub fn to_string_pretty(v: &Value) -> String {
    write_value(v, SerializeOptions::pretty())
}

/// Serializes with explicit options.
pub fn write_value(v: &Value, opts: SerializeOptions) -> String {
    let mut out = String::new();
    write_inner(v, &opts, 0, &mut out);
    out
}

/// Appends the compact rendering of `v` to an existing buffer (no
/// intermediate allocation — the building block for template-stitching
/// encoders).
pub fn append_compact(out: &mut String, v: &Value) {
    write_inner(v, &SerializeOptions::compact(), 0, out);
}

/// Serializes straight into an [`std::io::Write`] sink (buffers one value
/// at a time; use for NDJSON streams and files without building one big
/// `String`).
pub fn write_value_to<W: std::io::Write>(
    w: &mut W,
    v: &Value,
    opts: SerializeOptions,
) -> std::io::Result<()> {
    // Rendering is infallible; only the sink can fail.
    w.write_all(write_value(v, opts).as_bytes())
}

/// Writes a collection as NDJSON into a sink.
pub fn write_ndjson_to<W: std::io::Write>(w: &mut W, docs: &[Value]) -> std::io::Result<()> {
    for doc in docs {
        write_value_to(w, doc, SerializeOptions::compact())?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

fn write_inner(v: &Value, opts: &SerializeOptions, level: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(n, out),
        Value::Str(s) => write_string(s, opts, out),
        Value::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(opts, level + 1, out);
                write_inner(item, opts, level + 1, out);
            }
            newline_indent(opts, level, out);
            out.push(']');
        }
        Value::Obj(obj) => {
            if obj.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            let write_entry = |i: usize, k: &str, v: &Value, out: &mut String| {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(opts, level + 1, out);
                write_string(k, opts, out);
                out.push(':');
                if opts.indent.is_some() {
                    out.push(' ');
                }
                write_inner(v, opts, level + 1, out);
            };
            if opts.sort_keys {
                for (i, (k, v)) in obj.sorted_entries().into_iter().enumerate() {
                    write_entry(i, k, v, out);
                }
            } else {
                for (i, (k, v)) in obj.iter().enumerate() {
                    write_entry(i, k, v, out);
                }
            }
            newline_indent(opts, level, out);
            out.push('}');
        }
    }
}

fn newline_indent(opts: &SerializeOptions, level: usize, out: &mut String) {
    if let Some(width) = opts.indent {
        out.push('\n');
        for _ in 0..level * width {
            out.push(' ');
        }
    }
}

fn write_number(n: &Number, out: &mut String) {
    write!(out, "{n}").expect("writing to a String");
}

fn write_string(s: &str, opts: &SerializeOptions, out: &mut String) {
    let literal_from = out.len();
    write_escaped(s, out);
    if opts.ascii_only && !out[literal_from..].is_ascii() {
        // What is left to escape is exactly the non-ASCII characters.
        let literal = out.split_off(literal_from);
        for c in literal.chars() {
            let code = c as u32;
            if c.is_ascii() {
                out.push(c);
            } else if code <= 0xFFFF {
                push_u_escape(code, out);
            } else {
                // Encode as a UTF-16 surrogate pair.
                let v = code - 0x10000;
                push_u_escape(0xD800 + (v >> 10), out);
                push_u_escape(0xDC00 + (v & 0x3FF), out);
            }
        }
    }
}

fn push_u_escape(code: u32, out: &mut String) {
    write!(out, "\\u{code:04x}").expect("writing to a String");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use jsonx_data::json;

    #[test]
    fn compact_matches_data_crate_rendering() {
        let v = json!({"a": [1, null], "b": "x"});
        assert_eq!(to_string(&v), v.to_json_string());
        // Every escape class between clean runs, at both ends, in a key.
        let v =
            json!({"\"k\n": "\u{1}a\"b\\c\n\r\t\u{8}\u{c}\u{1f}é😀\u{7f}/", "n": [-0.5, 3.0, 7]});
        let text = r#"{"\"k\n":"\u0001a\"b\\c\n\r\t\b\f\u001fé😀\u007f/","n":[-0.5,3.0,7]}"#;
        assert_eq!(to_string(&v), text.replace("\\u007f", "\u{7f}"));
        assert_eq!(to_string(&v), v.to_json_string());
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn pretty_layout() {
        let v = json!({"a": [1, 2]});
        assert_eq!(to_string_pretty(&v), "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
    }

    #[test]
    fn empty_containers_stay_inline() {
        let v = json!({"a": [], "b": {}});
        assert_eq!(to_string_pretty(&v), "{\n  \"a\": [],\n  \"b\": {}\n}");
    }

    #[test]
    fn canonical_is_order_insensitive() {
        let a = parse(r#"{"x":1,"y":2}"#).unwrap();
        let b = parse(r#"{"y":2,"x":1}"#).unwrap();
        let opts = SerializeOptions::canonical();
        assert_eq!(write_value(&a, opts), write_value(&b, opts));
    }

    #[test]
    fn ascii_only_escapes_non_ascii() {
        let v = json!("é😀");
        let opts = SerializeOptions {
            ascii_only: true,
            ..Default::default()
        };
        assert_eq!(write_value(&v, opts), "\"\\u00e9\\ud83d\\ude00\"");
        // Between the escapes every writer makes.
        assert_eq!(
            write_value(&json!("a\"é\n\u{1}😀z"), opts),
            r#""a\"\u00e9\n\u0001\ud83d\ude00z""#
        );
        // And the escaped form parses back to the original.
        assert_eq!(parse(&write_value(&v, opts)).unwrap(), v);
    }

    #[test]
    fn io_writer_paths() {
        let v = json!({"a": [1, 2]});
        let mut buf: Vec<u8> = Vec::new();
        write_value_to(&mut buf, &v, SerializeOptions::compact()).unwrap();
        assert_eq!(buf, to_string(&v).as_bytes());
        let mut buf = Vec::new();
        write_ndjson_to(&mut buf, &[v.clone(), json!(null)]).unwrap();
        assert_eq!(buf, b"{\"a\":[1,2]}\nnull\n");
    }

    #[test]
    fn round_trip_through_parser() {
        let text = r#"{"nested":{"deep":[[1.5,-2,"s\n"],{"k":null}]},"t":true}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
        assert_eq!(parse(&to_string_pretty(&v)).unwrap(), v);
    }
}
