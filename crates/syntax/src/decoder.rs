//! The source-agnostic record-decoding seam.
//!
//! Every streaming stage in the workspace consumes records through one
//! interface: a [`RecordDecoder`] turns the bytes of a single
//! newline-framed record into the [`RawEvent`] stream the JSON data model
//! is defined over. The pipeline engine (chunking, work stealing, fault
//! tolerance, out-of-core dispatch) never inspects record syntax — it
//! frames lines and hands them to a decoder — so a new ingestion format
//! only has to say how one record becomes events to inherit inference,
//! validation, translation, error policies and quarantine unchanged.
//!
//! Two implementations live in this crate: [`JsonDecoder`] (the NDJSON
//! baseline: [`parse_events`](crate::parse_events) under a run's [`ParseLimits`]) and
//! [`CsvDecoder`](crate::csv::CsvDecoder) (header-driven CSV rows as flat
//! objects). The facade crate adds a third, wrapping the SWAR
//! structural-index fast path behind the same trait.
//!
//! Event consumers implement [`EventReceiver`]; [`ValueBuilder`] is the
//! receiver that *is* the DOM parser — [`parse`](crate::parse) is the
//! grammar pushed into it (insertion order, duplicate keys last-wins in
//! place) — and [`Tee`] fans one decode out to two receivers so a single
//! tokenisation can feed, say, a typer and a validator.

use crate::error::{ParseError, ParseErrorKind, RecordLimit};
use crate::event::{push_events, RawEvent};
use crate::lexer::Lexer;
use crate::limits::ParseLimits;
use crate::parser::ParserOptions;
use jsonx_data::{Object, Value};

/// Observes a record's event stream. Receivers are infallible: decode
/// errors belong to the decoder, and a receiver must tolerate being
/// abandoned mid-document (the decoder stops on the first error).
pub trait EventReceiver {
    /// Called once per event, in document order.
    fn event(&mut self, ev: &RawEvent<'_>);
}

/// The no-op receiver: compiles to nothing, for decode-only passes
/// (well-formedness checks, typing paths that read events elsewhere).
pub struct NullReceiver;

impl EventReceiver for NullReceiver {
    #[inline(always)]
    fn event(&mut self, _ev: &RawEvent<'_>) {}
}

/// Fans one event stream out to two receivers, left first.
pub struct Tee<'r, A: ?Sized, B: ?Sized>(pub &'r mut A, pub &'r mut B);

impl<A: EventReceiver + ?Sized, B: EventReceiver + ?Sized> EventReceiver for Tee<'_, A, B> {
    #[inline]
    fn event(&mut self, ev: &RawEvent<'_>) {
        self.0.event(ev);
        self.1.event(ev);
    }
}

/// Builds the document [`Value`] from an event stream — the DOM half of
/// the DOM parser: insertion order preserved, duplicate keys resolve
/// last-wins in place.
#[derive(Default)]
pub struct ValueBuilder {
    stack: Vec<Value>,
    keys: Vec<Option<String>>,
    pending_key: Option<String>,
    result: Option<Value>,
}

impl ValueBuilder {
    /// A fresh builder.
    pub fn new() -> ValueBuilder {
        ValueBuilder::default()
    }

    /// Takes the completed document ([`Value::Null`] when no value event
    /// arrived) and resets the builder for the next record.
    pub fn take(&mut self) -> Value {
        self.stack.clear();
        self.keys.clear();
        self.pending_key = None;
        self.result.take().unwrap_or(Value::Null)
    }

    fn attach(&mut self, v: Value) {
        match self.stack.last_mut() {
            Some(Value::Arr(items)) => items.push(v),
            Some(Value::Obj(obj)) => {
                let key = self.pending_key.take().expect("key precedes value");
                obj.insert(key, v);
            }
            _ => self.result = Some(v),
        }
    }
}

impl EventReceiver for ValueBuilder {
    fn event(&mut self, ev: &RawEvent<'_>) {
        match ev {
            RawEvent::StartObject => {
                self.keys.push(self.pending_key.take());
                self.stack.push(Value::Obj(Object::new()));
            }
            RawEvent::StartArray => {
                self.keys.push(self.pending_key.take());
                self.stack.push(Value::Arr(Vec::new()));
            }
            RawEvent::EndObject | RawEvent::EndArray => {
                let v = self.stack.pop().expect("balanced events");
                self.pending_key = self.keys.pop().expect("balanced events");
                self.attach(v);
            }
            RawEvent::Key(k) => self.pending_key = Some(k.as_ref().to_owned()),
            RawEvent::Null => self.attach(Value::Null),
            RawEvent::Bool(b) => self.attach(Value::Bool(*b)),
            RawEvent::Num(n) => self.attach(Value::Num(*n)),
            RawEvent::Str(s) => self.attach(Value::Str(s.as_ref().to_owned())),
        }
    }
}

/// Decodes one newline-framed record into its event stream.
///
/// Implementations are shared across a run's workers (`Sync`); mutable
/// per-worker machinery lives in the associated `Scratch` (reusable
/// buffers, speculation state, scanners), created once per worker via
/// [`scratch`](Self::scratch) and threaded through every decode.
///
/// The contract is that of [`parse_events`](crate::parse_events): a successful decode
/// emits a balanced event stream describing exactly one value, and an
/// error leaves the receiver abandonable (partial events may have been
/// delivered; callers reset their receivers on error). Byte offsets in
/// errors are relative to the record, not the corpus.
pub trait RecordDecoder: Sync {
    /// Per-worker reusable state.
    type Scratch;

    /// Creates one worker's scratch state.
    fn scratch(&self) -> Self::Scratch;

    /// Decodes one record, delivering its events to `recv`.
    fn decode_events<R: EventReceiver + ?Sized>(
        &self,
        scratch: &mut Self::Scratch,
        record: &str,
        recv: &mut R,
    ) -> Result<(), ParseError>;

    /// Decodes one record into a DOM [`Value`]. The default route goes
    /// through [`ValueBuilder`]; a decoder with a faster direct path (a
    /// projecting scanner) overrides it — where the override builds the
    /// whole record, the result must equal the event-built value.
    fn decode_value(&self, scratch: &mut Self::Scratch, record: &str) -> Result<Value, ParseError> {
        let mut builder = ValueBuilder::new();
        self.decode_events(scratch, record, &mut builder)?;
        Ok(builder.take())
    }
}

/// The NDJSON baseline decoder: one JSON document per record, pushed
/// through [`parse_events`](crate::parse_events) under the configured [`ParseLimits`] — so a
/// record's events, its DOM value and its rejection are one parse's.
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonDecoder {
    /// Per-record resource limits (depth, record bytes, string bytes).
    pub limits: ParseLimits,
}

impl JsonDecoder {
    /// A decoder with [`ParseLimits::default`].
    pub fn new() -> JsonDecoder {
        JsonDecoder::default()
    }

    /// Replaces the per-record resource limits.
    pub fn with_limits(mut self, limits: ParseLimits) -> JsonDecoder {
        self.limits = limits;
        self
    }
}

impl RecordDecoder for JsonDecoder {
    type Scratch = ();

    fn scratch(&self) {}

    fn decode_events<R: EventReceiver + ?Sized>(
        &self,
        _scratch: &mut (),
        record: &str,
        recv: &mut R,
    ) -> Result<(), ParseError> {
        if let Some(limit) = self.limits.max_input_bytes {
            if record.len() > limit {
                return Err(ParseError::at(
                    ParseErrorKind::LimitExceeded(RecordLimit::InputBytes),
                    record.as_bytes(),
                    limit,
                ));
            }
        }
        let opts = ParserOptions {
            max_depth: self.limits.max_depth,
            allow_trailing: false,
            max_string_bytes: self.limits.max_string_bytes,
        };
        // The record is text already: no second UTF-8 check.
        push_events(Lexer::over_text(record), opts, recv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn value_builder_is_reusable_after_abandonment() {
        let decoder = JsonDecoder::new();
        let mut builder = ValueBuilder::new();
        assert!(decoder
            .decode_events(&mut (), "{\"a\": [1, ", &mut builder)
            .is_err());
        let _ = builder.take(); // reset after the abandoned decode
        decoder
            .decode_events(&mut (), "{\"ok\": 1}", &mut builder)
            .unwrap();
        assert_eq!(builder.take(), parse("{\"ok\": 1}").unwrap());
    }

    #[test]
    fn tee_feeds_both_receivers() {
        struct Count(usize);
        impl EventReceiver for Count {
            fn event(&mut self, _ev: &RawEvent<'_>) {
                self.0 += 1;
            }
        }
        let mut a = Count(0);
        let mut b = ValueBuilder::new();
        JsonDecoder::new()
            .decode_events(&mut (), r#"{"k": [1, 2]}"#, &mut Tee(&mut a, &mut b))
            .unwrap();
        assert_eq!(a.0, 7); // {, k, [, 1, 2, ], }
        assert_eq!(b.take(), parse(r#"{"k": [1, 2]}"#).unwrap());
    }

    #[test]
    fn limits_are_enforced() {
        let decoder = |limits| JsonDecoder::new().with_limits(limits);
        let err = decoder(ParseLimits::new().with_max_depth(2))
            .decode_events(&mut (), "[[[1]]]", &mut NullReceiver)
            .unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        // Over the size limit: rejected at the first byte past it.
        let doc = r#"{"a": [1, 2, 3]}"#;
        let capped = |limit| decoder(ParseLimits::new().with_max_input_bytes(limit));
        let err = capped(8).decode_value(&mut (), doc).unwrap_err();
        let over = ParseErrorKind::LimitExceeded(RecordLimit::InputBytes);
        assert_eq!((err.kind, err.offset), (over, 8));
        assert!(capped(doc.len()).decode_value(&mut (), doc).is_ok());
    }
}
