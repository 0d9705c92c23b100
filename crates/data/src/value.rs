//! The owned JSON value.

use crate::kind::Kind;
use crate::number::Number;
use crate::object::Object;
use std::fmt::{self, Write as _};

/// An owned JSON value.
///
/// Equality is structural; for objects it is key-set based (order does not
/// matter), and for numbers it is canonical across `Int`/`Float` (see
/// [`Number`]). A total *canonical order* for set semantics lives in
/// [`crate::cmp`].
#[derive(Clone, PartialEq, Default)]
pub enum Value {
    /// JSON `null`.
    #[default]
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A JSON number.
    Num(Number),
    /// A JSON string (always valid UTF-8).
    Str(String),
    /// A JSON array.
    Arr(Vec<Value>),
    /// A JSON object.
    Obj(Object),
}

impl Value {
    /// The kind of this value. Integral numbers report [`Kind::Integer`].
    pub fn kind(&self) -> Kind {
        match self {
            Value::Null => Kind::Null,
            Value::Bool(_) => Kind::Boolean,
            Value::Num(n) if n.is_integer() => Kind::Integer,
            Value::Num(_) => Kind::Number,
            Value::Str(_) => Kind::String,
            Value::Arr(_) => Kind::Array,
            Value::Obj(_) => Kind::Object,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_number(&self) -> Option<&Number> {
        match self {
            Value::Num(n) => Some(n),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an exactly-integral number.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_number().and_then(Number::as_i64)
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_number().map(Number::as_f64)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Convenience field access: `value.get("a")` on objects,
    /// `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// Convenience index access on arrays.
    pub fn get_index(&self, idx: usize) -> Option<&Value> {
        self.as_array().and_then(|a| a.get(idx))
    }

    /// Renders the value as compact JSON text.
    ///
    /// This is the minimal, always-available rendering used in error
    /// messages; the full-featured serializer (pretty printing, writers)
    /// lives in `jsonx-syntax`.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) => write!(out, "{n}").expect("writing to a String"),
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_json(out);
                }
                out.push(']');
            }
            Value::Obj(obj) => {
                out.push('{');
                for (i, (k, v)) in obj.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a JSON string literal with required escapes — the one
/// escaper behind every rendering of a string, here and in the
/// serializer. Clean runs are copied whole; only `"`, `\` and control
/// characters interrupt them.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `b` is ASCII, so `i` is a character boundary.
        out.push_str(&s[clean_from..i]);
        clean_from = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => write!(out, "\\u{b:04x}").expect("writing to a String"),
        }
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Num(Number::Int(i))
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Num(Number::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Self {
        Value::Num(Number::from(i))
    }
}

impl From<f64> for Value {
    /// Panics on NaN/∞, which JSON cannot represent; use
    /// [`Number::from_f64`] to handle that case explicitly.
    fn from(f: f64) -> Self {
        Value::Num(Number::from_f64(f).expect("JSON numbers must be finite"))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<Number> for Value {
    fn from(n: Number) -> Self {
        Value::Num(n)
    }
}

impl From<Object> for Value {
    fn from(o: Object) -> Self {
        Value::Obj(o)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value> + Clone> From<&[T]> for Value {
    fn from(v: &[T]) -> Self {
        Value::Arr(v.iter().cloned().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_reported() {
        assert_eq!(Value::Null.kind(), Kind::Null);
        assert_eq!(Value::from(true).kind(), Kind::Boolean);
        assert_eq!(Value::from(1).kind(), Kind::Integer);
        assert_eq!(Value::from(1.5).kind(), Kind::Number);
        assert_eq!(Value::from(1.0).kind(), Kind::Integer); // integral float
        assert_eq!(Value::from("x").kind(), Kind::String);
        assert_eq!(Value::from(vec![1, 2]).kind(), Kind::Array);
        assert_eq!(Value::Obj(Object::new()).kind(), Kind::Object);
    }

    #[test]
    fn accessors() {
        let v = Value::from(vec![Value::from(1), Value::from("a")]);
        assert_eq!(v.get_index(1).and_then(Value::as_str), Some("a"));
        assert_eq!(v.get_index(0).and_then(Value::as_i64), Some(1));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn json_string_rendering_escapes() {
        let mut o = Object::new();
        o.insert("a\"b", Value::from("line\nbreak\u{01}"));
        let v = Value::Obj(o);
        assert_eq!(v.to_json_string(), "{\"a\\\"b\":\"line\\nbreak\\u0001\"}");
    }

    #[test]
    fn compact_rendering_of_composites() {
        let v = Value::Arr(vec![Value::Null, Value::from(false), Value::from(2.5)]);
        assert_eq!(v.to_json_string(), "[null,false,2.5]");
    }
}
