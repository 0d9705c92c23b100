//! Streaming pipeline stages over record collections: inference,
//! validation, combined infer+validate, and schema-driven translation.
//!
//! Every stage here is a [`RecordStage`]: what to do with one record and
//! how to fuse chunk outputs. [`FaultFold`] wraps a stage in the shared
//! fault layer (blank-line skipping, the record-size guard, error-policy
//! bookkeeping) and the one executor in [`crate::run`] drives it on the
//! chunked engine of [`jsonx_pipeline`]. The stages are
//! **source-agnostic**: each holds the run's one decoder value (the
//! crate-private `LineDecoder`: NDJSON or CSV) and reaches it through the
//! [`RecordDecoder`] seam the public pieces here ([`TypeFold`],
//! [`StreamTyper`]) are generic over, so the engine's work stealing,
//! fault tolerance and out-of-core layers never assume JSON. Every stage
//! reads a record the same way: it speculates from the record's events,
//! verifies per record, and replays through a document only what the
//! walk cannot vouch for. A stage answers each accepted record with the
//! [`Route`] it took, which the fault layer tallies. The stages differ
//! only in their per-worker state and merge:
//!
//! * inference — a [`TypeFold`] per worker: under `Kind` a counting type
//!   that each record's events update in place, verified per record;
//!   chunk types fused with the §4.1 monoid (commutative + associative,
//!   `Bottom` unit), so every worker count reproduces the sequential —
//!   and DOM — result bit for bit.
//! * validation — the compiled validation IR per worker, per-line verdict
//!   vectors concatenated in chunk order. The IR is walked **from the
//!   record's events** ([`EventValidator`]), no document built, verified
//!   per record — a repeated key, which only the document's last-wins
//!   rule can judge, replays the record through the parser to a document
//!   ([`FastValidator`]), as does every record under a schema outside the
//!   streamable fragment.
//! * combined infer+validate — the single pass: **one tokenisation** per
//!   line feeds both the type fold and the validator, each from the
//!   events ([`TypeFold::record_beside`]); a [`Value`] is built only for
//!   a record one of them hands back, or under a schema the event walk
//!   does not cover ([`TypeFold::record_and_build`]).
//! * translation — §5's schema-driven translation: per-chunk Arrow-like
//!   columnar batches ([`ShredStream`](jsonx_translate::ShredStream)),
//!   shredded straight from each record's events (no DOM; a verified
//!   per-record fallback replays what the event walk cannot vouch for),
//!   kept per chunk for the caller to concatenate, in chunk order, into
//!   the batch a DOM
//!   [`Shredder::shred`](jsonx_translate::Shredder::shred) would build.
//!   Under a layout taught by a sample of the corpus the same walk also
//!   verifies that each record *fits* the sample's type; a chunk with
//!   one that does not yields the type of its remaining lines instead of
//!   rows ([`Run::translate_inferred`](crate::Run::translate_inferred)).
//!
//! The massive-collection setting of §4.1 is exactly where building a
//! [`Value`](jsonx_data::Value) per document hurts: the map step only
//! needs the *types* — and, once the collection's shape is known, only
//! their *counters*. Under `Kind` the inference stage therefore builds no
//! per-document type at all: events increment a
//! [`TypeAccumulator`] (a mutable trie with the shape of the fused type,
//! keys resolved by guessing last time's order, no allocation once a shape
//! has been seen), every increment logged so that a record the decoder
//! rejects — or one with a duplicate key, which only the DOM's last-wins
//! rule can type — is taken back. The latter, and every record under
//! `Label`, go through [`StreamTyper`], which fuses a document's type
//! directly from the decoder's events, with memory bounded by document
//! depth rather than document size:
//!
//! - events borrow escape-free keys and strings from the input
//!   ([`RawEvent`]'s `Cow` payloads), so scalar strings never allocate —
//!   typing only needs their *kind*;
//! - field names are interned per [`StreamTyper`]: a repeated key costs an
//!   `Arc` refcount bump instead of a fresh `String`;
//! - the container frame stack is reused across documents.

use jsonx_core::{fuse, infer_value, Equivalence, JType, ScalarKind, TypeAccumulator};
use jsonx_core::{ArrayType, FieldName, FieldType, RecordType};
use jsonx_data::Value;
use jsonx_pipeline::{
    ErrorPolicy, ErrorSummary, RecordDiagnostic, Route, RouteCounts, ShardFold, ShardPanic,
    DIAGNOSTIC_SAMPLES,
};
use jsonx_schema::{CompiledSchema, EventValidator, FastValidator, ValidatorOptions};
use jsonx_syntax::{
    CsvDecoder, EventReceiver, JsonDecoder, NullReceiver, ParseError, ParseErrorKind, ParseLimits,
    RawEvent, RecordDecoder, RecordLimit, Tee, ValueBuilder,
};
use jsonx_translate::{ColumnarBatch, ShredError, ShredStream, Shredder};
use std::collections::HashSet;

/// How one run's record text becomes events: what
/// [`Format`](crate::Format) and the limits resolve to, once per run. The
/// stages hold this value instead of a type parameter, so each is
/// compiled once; the `match` runs once per record and every arm is a
/// static call.
pub(crate) enum LineDecoder {
    /// One JSON document per line.
    Json(JsonDecoder),
    /// One CSV row per line.
    Csv(CsvDecoder),
}

impl LineDecoder {
    /// Whether `record`, if it decodes at all, decodes to an object: a
    /// CSV row always does, a JSON document when `{` is its first
    /// significant byte.
    pub(crate) fn roots_an_object(&self, record: &str) -> bool {
        match self {
            LineDecoder::Json(_) => record.bytes().find(|b| !b.is_ascii_whitespace()) == Some(b'{'),
            LineDecoder::Csv(_) => true,
        }
    }
}

impl RecordDecoder for LineDecoder {
    type Scratch = ();

    fn scratch(&self) {}

    #[inline]
    fn decode_events<R: EventReceiver + ?Sized>(
        &self,
        _scratch: &mut (),
        record: &str,
        recv: &mut R,
    ) -> Result<(), ParseError> {
        match self {
            LineDecoder::Json(json) => json.decode_events(&mut (), record, recv),
            LineDecoder::Csv(csv) => csv.decode_events(&mut (), record, recv),
        }
    }
}

/// A reusable event-stream typing engine.
///
/// One `StreamTyper` types many documents in sequence: its frame stack and
/// field-name interner persist across [`type_decoded`](Self::type_decoded)
/// calls. Each worker of a streaming inference run owns one.
pub struct StreamTyper {
    equiv: Equivalence,
    stack: Vec<Frame>,
    interner: HashSet<FieldName>,
}

/// The typing logic as an [`EventReceiver`]: splits mutable borrows of a
/// [`StreamTyper`]'s frame stack and interner so any
/// [`RecordDecoder`]'s event stream — JSON, CSV, whatever comes next —
/// can drive the same §4.1 type fusion. Typing is infallible; decode
/// errors belong to the decoder, and on error the abandoned sink's frames
/// are cleared by the typer.
struct TypeSink<'t> {
    equiv: Equivalence,
    stack: &'t mut Vec<Frame>,
    interner: &'t mut HashSet<FieldName>,
    result: Option<JType>,
}

impl<'t> TypeSink<'t> {
    fn new(
        equiv: Equivalence,
        stack: &'t mut Vec<Frame>,
        interner: &'t mut HashSet<FieldName>,
    ) -> Self {
        stack.clear();
        TypeSink {
            equiv,
            stack,
            interner,
            result: None,
        }
    }

    /// Returns the interned name for `key`, allocating only on first sight.
    fn intern(&mut self, key: &str) -> FieldName {
        match self.interner.get(key) {
            Some(name) => name.clone(),
            None => {
                let name = FieldName::from(key);
                self.interner.insert(name.clone());
                name
            }
        }
    }

    fn attach(&mut self, ty: JType) {
        match self.stack.last_mut() {
            Some(Frame::Record {
                fields,
                pending_key,
            }) => {
                let key = pending_key.take().expect("key precedes value");
                // Duplicate keys resolve in `Frame::finish` (last wins);
                // appending here keeps attachment O(1) per field.
                fields.push((key, FieldType { ty, presence: 1 }));
            }
            Some(Frame::Array { item, len }) => {
                let current = std::mem::replace(item, JType::Bottom);
                *item = fuse(current, ty, self.equiv);
                *len += 1;
            }
            None => self.result = Some(ty),
        }
    }

    /// The typed document ([`JType::Bottom`] when no value event arrived).
    fn finish(self) -> JType {
        self.result.unwrap_or(JType::Bottom)
    }
}

impl EventReceiver for TypeSink<'_> {
    fn event(&mut self, ev: &RawEvent<'_>) {
        match ev {
            RawEvent::StartObject => self.stack.push(Frame::Record {
                fields: Vec::new(),
                pending_key: None,
            }),
            RawEvent::StartArray => self.stack.push(Frame::Array {
                item: JType::Bottom,
                len: 0,
            }),
            RawEvent::EndObject | RawEvent::EndArray => {
                let frame = self.stack.pop().expect("balanced events");
                let ty = frame.finish();
                self.attach(ty);
            }
            RawEvent::Key(k) => {
                let name = self.intern(k);
                if let Some(Frame::Record { pending_key, .. }) = self.stack.last_mut() {
                    *pending_key = Some(name);
                }
            }
            RawEvent::Null => self.attach(JType::Null { count: 1 }),
            RawEvent::Bool(_) => self.attach(JType::Bool { count: 1 }),
            RawEvent::Num(n) if n.is_integer() => self.attach(JType::Int { count: 1 }),
            RawEvent::Num(_) => self.attach(JType::Float { count: 1 }),
            RawEvent::Str(_) => self.attach(JType::Str { count: 1 }),
        }
    }
}

impl StreamTyper {
    /// Creates a typer for the given equivalence.
    pub fn new(equiv: Equivalence) -> Self {
        StreamTyper {
            equiv,
            stack: Vec::new(),
            interner: HashSet::new(),
        }
    }

    /// Types one record from the events an arbitrary [`RecordDecoder`]
    /// produces, without building a DOM: JSON text through
    /// [`JsonDecoder`], or any other source
    /// through the same fusion.
    pub fn type_decoded<D: RecordDecoder>(
        &mut self,
        decoder: &D,
        scratch: &mut D::Scratch,
        record: &str,
    ) -> Result<JType, ParseError> {
        self.type_beside(decoder, scratch, record, &mut NullReceiver)
    }

    /// [`type_decoded`](Self::type_decoded) while `beside` receives the
    /// same events — one tokenisation feeding two consumers: with a
    /// [`ValueBuilder`] beside it the record's DOM is rebuilt from the
    /// decode that types it (identical to [`jsonx_syntax::parse`] on the
    /// same bytes), with a validator of events the combined pass needs no
    /// DOM at all.
    pub fn type_beside<D: RecordDecoder, R: EventReceiver + ?Sized>(
        &mut self,
        decoder: &D,
        scratch: &mut D::Scratch,
        record: &str,
        beside: &mut R,
    ) -> Result<JType, ParseError> {
        let outcome = {
            let mut sink = TypeSink::new(self.equiv, &mut self.stack, &mut self.interner);
            decoder
                .decode_events(scratch, record, &mut Tee(&mut sink, beside))
                .map(|()| sink.finish())
        };
        outcome.inspect_err(|_| {
            // Leave the typer reusable after malformed input.
            self.stack.clear();
        })
    }
}

enum Frame {
    Record {
        fields: Vec<(FieldName, FieldType)>,
        pending_key: Option<FieldName>,
    },
    Array {
        item: JType,
        len: u64,
    },
}

impl Frame {
    fn finish(self) -> JType {
        match self {
            Frame::Record { mut fields, .. } => {
                // Sort is stable, so among equal names insertion order
                // survives; dedup then keeps the *last* occurrence —
                // mirroring the DOM parser — in one linear pass (the old
                // per-key `retain` was quadratic in the duplicate case).
                fields.sort_by(|(a, _), (b, _)| a.cmp(b));
                fields.dedup_by(|next, prev| {
                    if next.0 == prev.0 {
                        std::mem::swap(next, prev);
                        true
                    } else {
                        false
                    }
                });
                JType::Record(RecordType { fields, count: 1 })
            }
            Frame::Array { item, len } => JType::Array(ArrayType {
                item: Box::new(item),
                count: 1,
                total_items: len,
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-tolerant execution layer
// ---------------------------------------------------------------------------

/// Why one record was rejected by a streaming stage.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordIssue {
    /// The record is not well-formed JSON, or tripped a [`ParseLimits`]
    /// guard.
    Parse(ParseError),
    /// The record parsed but is not a JSON object (translation shreds
    /// records only).
    NotARecord,
    /// The record parsed, but the run's
    /// [`DocumentFold`](crate::documents::DocumentFold) refused its
    /// document — a projection through a field that is no object, say.
    Refused(String),
}

impl RecordIssue {
    /// Stable machine-readable label, the grouping key of
    /// [`ErrorSummary::by_kind`] and the `"kind"` field of quarantine
    /// diagnostics.
    pub fn kind_label(&self) -> &'static str {
        match self {
            RecordIssue::Parse(e) => e.kind.label(),
            RecordIssue::NotARecord => "not-a-record",
            RecordIssue::Refused(_) => "refused",
        }
    }

    /// Byte offset of the error within the record (0 for shape errors).
    pub fn offset(&self) -> usize {
        match self {
            RecordIssue::Parse(e) => e.offset,
            RecordIssue::NotARecord | RecordIssue::Refused(_) => 0,
        }
    }
}

impl std::fmt::Display for RecordIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordIssue::Parse(e) => write!(f, "{e}"),
            RecordIssue::NotARecord => write!(f, "not a JSON object"),
            RecordIssue::Refused(why) => write!(f, "{why}"),
        }
    }
}

/// How a streaming run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// Under [`ErrorPolicy::FailFast`]: the first rejected record.
    Record {
        /// Zero-based record (line) index.
        record: usize,
        /// Why it was rejected.
        issue: RecordIssue,
    },
    /// Under a tolerant policy: the rejection count exceeded the policy's
    /// `max_errors` bound.
    TooManyErrors {
        /// The configured bound.
        limit: usize,
        /// Rejections seen before the run gave up (at least `limit + 1`;
        /// shards stop counting once the bound trips, so this is a lower
        /// bound on the corpus total).
        seen: usize,
    },
    /// Under [`ErrorPolicy::FailFast`]: a worker panicked, with shard
    /// provenance.
    ShardPanicked(ShardPanic),
    /// The input itself could not be read (out-of-core mode only): an
    /// I/O failure or non-UTF-8 bytes. No error policy applies — without
    /// readable bytes there is no trustworthy record numbering to skip
    /// past — so any partial results are discarded.
    Input(String),
    /// A journaled run was stopped gracefully (signal, operator) after
    /// committing a resumable prefix to its checkpoint journal. Not an
    /// input fault: rerunning with `--resume` continues from the last
    /// committed chunk.
    Interrupted,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Record { record, issue } => write!(f, "line {}: {issue}", record + 1),
            StreamError::TooManyErrors { limit, seen } => {
                write!(f, "too many rejected records: {seen} seen, limit {limit}")
            }
            StreamError::ShardPanicked(p) => write!(f, "{p}"),
            StreamError::Input(msg) => write!(f, "{msg}"),
            StreamError::Interrupted => {
                write!(f, "interrupted; committed progress is resumable")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Fault-tolerance settings of a [`Run`](crate::Run), orthogonal to its
/// dispatch knobs.
#[derive(Debug, Clone, Copy)]
pub struct FaultOptions {
    /// What to do with rejected records.
    pub policy: ErrorPolicy,
    /// Retain **every** reject's diagnostic *and raw line* in the report —
    /// required when a quarantine sink will write them back out.
    pub keep_rejects: bool,
    /// Per-record resource limits (depth, record bytes, string bytes).
    pub limits: ParseLimits,
}

impl Default for FaultOptions {
    fn default() -> Self {
        FaultOptions {
            policy: ErrorPolicy::FailFast,
            keep_rejects: false,
            limits: ParseLimits::default(),
        }
    }
}

impl FaultOptions {
    /// How many rejects' diagnostics a report retains.
    pub(crate) fn sample_cap(&self) -> usize {
        if self.keep_rejects {
            usize::MAX
        } else {
            DIAGNOSTIC_SAMPLES
        }
    }
}

/// One streaming stage's record-level logic, with the error handling
/// factored out: [`FaultFold`] supplies blank-line skipping, the central
/// record-size guard, policy bookkeeping, the route tally, and shard
/// merging, so a stage only says what to do with one record — and which
/// route that took — and how to fuse shard outputs.
pub(crate) trait RecordStage: Sync {
    /// Per-worker scratch state.
    type State;
    /// Per-shard result.
    type Out: Send;

    fn init(&self) -> Self::State;
    /// Processes one non-blank record and says which route it took; `Err`
    /// rejects it (the state must be left reusable for the next record).
    /// Implementations are `#[inline]`: each has one caller, its
    /// [`FaultFold::feed`], and out of line the call and the `Result`
    /// handed back through memory cost `infer` 3–6% on 400-byte records.
    fn record(
        &self,
        state: &mut Self::State,
        line: &str,
        record: usize,
    ) -> Result<Route, RecordIssue>;
    fn merge(&self, left: Self::Out, right: Self::Out) -> Self::Out;
    /// Extracts the current chunk's output, leaving the state ready for
    /// the worker's next claimed chunk (see [`ShardFold::take`]): the
    /// expensive machinery (interners, validators, column builders)
    /// survives across chunks.
    fn take(&self, state: &mut Self::State) -> Self::Out;
    /// Whether the chunk being fed has been given up: what
    /// [`take`](Self::take) yields for it stands in for no record, and
    /// whoever reads the yield runs the chunk again. Asked before `take`.
    fn voided(&self, _state: &Self::State) -> bool {
        false
    }
}

/// Why a shard stopped feeding records early.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Halt {
    /// Fail-fast: the shard's first rejected record.
    Fault { record: usize, issue: RecordIssue },
    /// Tolerant: the shard alone exceeded the rejection bound.
    TooMany,
}

/// What one shard yields: the stage output plus the fault account and
/// the routes its accepted records took.
pub(crate) struct ShardYield<T> {
    pub(crate) out: T,
    pub(crate) records: usize,
    pub(crate) errors: ErrorSummary,
    pub(crate) routes: RouteCounts,
    pub(crate) halt: Option<Halt>,
}

pub(crate) struct FaultState<T> {
    inner: T,
    records: usize,
    errors: ErrorSummary,
    routes: RouteCounts,
    halt: Option<Halt>,
}

/// The adapter that runs a [`RecordStage`] under an error policy on the
/// sharded engine.
///
/// The policy-derived values every record consults (`input_cap`,
/// `tolerates`, `sample_cap`, `max_errors`) are hoisted out of the inner
/// loop at construction: they are constant for a run, and deriving them
/// per record put measurable per-record overhead on the guarded paths.
pub(crate) struct FaultFold<'s, S> {
    stage: &'s S,
    fault: FaultOptions,
    /// Keep the route tally? Reported only by a timed run, and a map
    /// entry per replayed record is 3% of `validate` on 45-byte rows.
    tally: bool,
    input_cap: Option<usize>,
    tolerates: bool,
    sample_cap: usize,
    max_errors: Option<usize>,
}

impl<'s, S> FaultFold<'s, S> {
    pub(crate) fn new(stage: &'s S, fault: FaultOptions, tally: bool) -> Self {
        FaultFold {
            stage,
            tally,
            input_cap: fault.limits.max_input_bytes,
            tolerates: fault.policy.tolerates(),
            sample_cap: fault.sample_cap(),
            max_errors: fault.policy.max_errors(),
            fault,
        }
    }

    /// The diagnostic-retention cap this fold applies when merging
    /// [`ErrorSummary`]s — journaled runs re-apply it when fusing a
    /// resumed prefix with fresh tail results.
    pub(crate) fn retention_cap(&self) -> usize {
        self.sample_cap
    }
}

impl<'s, S: RecordStage> ShardFold<str> for FaultFold<'s, S> {
    type State = FaultState<S::State>;
    type Out = ShardYield<S::Out>;

    fn init(&self) -> Self::State {
        FaultState {
            inner: self.stage.init(),
            records: 0,
            errors: ErrorSummary::new(),
            routes: RouteCounts::default(),
            halt: None,
        }
    }

    fn feed(&self, state: &mut Self::State, line: &str, record: usize) {
        // A run's first line may lead with a byte-order mark, which is not
        // part of the record (RFC 8259 §8.1); anywhere else it is a byte
        // the decoder rejects. Chunk byte accounting never sees this.
        let line = match record {
            0 => line.strip_prefix('\u{feff}').unwrap_or(line),
            _ => line,
        };
        if state.halt.is_some() || line.trim().is_empty() {
            return;
        }
        state.records += 1;
        // The record-size guard runs centrally so every stage gets it,
        // whatever its decoder, and an oversized line is rejected before
        // any parsing starts.
        let issue = match self.input_cap {
            Some(limit) if line.len() > limit => RecordIssue::Parse(ParseError::at(
                ParseErrorKind::LimitExceeded(RecordLimit::InputBytes),
                line.as_bytes(),
                limit,
            )),
            _ => match self.stage.record(&mut state.inner, line, record) {
                Ok(route) => {
                    if self.tally {
                        state.routes.count(route);
                    }
                    return;
                }
                Err(issue) => issue,
            },
        };
        if !self.tolerates {
            state.halt = Some(Halt::Fault { record, issue });
            return;
        }
        let diag = RecordDiagnostic {
            record,
            offset: issue.offset(),
            kind: issue.kind_label(),
            message: issue.to_string(),
            raw: self.fault.keep_rejects.then(|| line.to_string()),
        };
        state.errors.push(diag, self.sample_cap);
        if let Some(max) = self.max_errors {
            // Shard-local short-circuit: if this shard alone is over the
            // bound the merged total is too, so stop paying for the rest.
            if state.errors.total > max {
                state.halt = Some(Halt::TooMany);
            }
        }
    }

    fn finish(&self, mut state: Self::State) -> Self::Out {
        self.take(&mut state)
    }

    fn take(&self, state: &mut Self::State) -> Self::Out {
        // Per-chunk extraction on the work-stealing path: the stage's
        // reusable machinery survives in `inner` while the fault account
        // resets. A halt moves into the chunk's yield — the halted chunk
        // already stopped feeding, and the worker's next chunk starts
        // clean.
        if self.stage.voided(&state.inner) && state.halt.is_none() {
            // A voided chunk is accounted for — records, rejects, routes —
            // by the run that does it again. One that halted is the run's
            // outcome as it stands.
            state.records = 0;
            state.errors = ErrorSummary::new();
            state.routes = RouteCounts::default();
        }
        ShardYield {
            out: self.stage.take(&mut state.inner),
            records: std::mem::take(&mut state.records),
            errors: std::mem::take(&mut state.errors),
            routes: std::mem::take(&mut state.routes),
            halt: state.halt.take(),
        }
    }

    fn halted(&self, state: &Self::State) -> bool {
        // Either halt decides the run — its first fault, or its error
        // bound exceeded — so what lies past this chunk cannot matter.
        state.halt.is_some()
    }

    fn merge(&self, mut left: Self::Out, right: Self::Out) -> Self::Out {
        // Lowest-record fault wins across shards — the error a sequential
        // scan would have hit first (TooMany only meets TooMany, because a
        // policy is uniform across one run).
        let halt = match (left.halt, right.halt) {
            (None, h) | (h, None) => h,
            (Some(Halt::Fault { record: a, issue }), Some(Halt::Fault { record: b, .. }))
                if a <= b =>
            {
                Some(Halt::Fault { record: a, issue })
            }
            (Some(_), Some(h)) => Some(h),
        };
        left.errors.merge(right.errors, self.sample_cap);
        left.routes.merge(right.routes);
        ShardYield {
            out: self.stage.merge(left.out, right.out),
            records: left.records + right.records,
            errors: left.errors,
            routes: left.routes,
            halt,
        }
    }
}

// ---------------------------------------------------------------------------
// Inference stage
// ---------------------------------------------------------------------------

/// A [`TypeAccumulator`] as an [`EventReceiver`]: every event lands as a
/// counter increment in the worker's accumulated type.
struct InPlace<'a>(&'a mut TypeAccumulator);

impl EventReceiver for InPlace<'_> {
    #[inline]
    fn event(&mut self, ev: &RawEvent<'_>) {
        match ev {
            RawEvent::StartObject => self.0.start_object(),
            RawEvent::EndObject => self.0.end_object(),
            RawEvent::StartArray => self.0.start_array(),
            RawEvent::EndArray => self.0.end_array(),
            RawEvent::Key(k) => self.0.key(k),
            RawEvent::Null => self.0.scalar(ScalarKind::Null),
            RawEvent::Bool(_) => self.0.scalar(ScalarKind::Bool),
            RawEvent::Num(n) if n.is_integer() => self.0.scalar(ScalarKind::Int),
            RawEvent::Num(_) => self.0.scalar(ScalarKind::Float),
            RawEvent::Str(_) => self.0.scalar(ScalarKind::Str),
        }
    }
}

/// An [`EventValidator`] as an [`EventReceiver`]: every event is checked
/// against the compiled schema where it passes.
struct Walking<'a, 's>(&'a mut EventValidator<'s>);

impl EventReceiver for Walking<'_, '_> {
    #[inline]
    fn event(&mut self, ev: &RawEvent<'_>) {
        match ev {
            RawEvent::StartObject => self.0.start_object(),
            RawEvent::EndObject => self.0.end_object(),
            RawEvent::StartArray => self.0.start_array(),
            RawEvent::EndArray => self.0.end_array(),
            RawEvent::Key(k) => self.0.key(k),
            RawEvent::Null => self.0.null(),
            RawEvent::Bool(b) => self.0.boolean(*b),
            RawEvent::Num(n) => self.0.number(*n),
            RawEvent::Str(s) => self.0.string(s),
        }
    }
}

/// One worker's collection type in the making — the only way a stage
/// here accumulates one. Under [`Equivalence::Kind`] records are counted
/// **in place**: their events walk a [`TypeAccumulator`], verified per
/// record — one the decoder rejects is taken back and rejected, one the
/// walk cannot vouch for (a duplicate key) is taken back and replayed
/// through the [`StreamTyper`] route into `replayed`. Under
/// [`Equivalence::Label`] every record takes that route. Each record's
/// [`Route`] is returned to the caller; [`take`] fuses the two parts, so
/// `fuse` runs per chunk and per replayed record.
///
/// [`take`]: TypeFold::take
pub struct TypeFold {
    equiv: Equivalence,
    in_place: TypeAccumulator,
    typer: StreamTyper,
    replayed: JType,
}

impl TypeFold {
    /// A fold that has typed nothing ([`JType::Bottom`]).
    pub fn new(equiv: Equivalence) -> Self {
        TypeFold {
            equiv,
            in_place: TypeAccumulator::new(),
            typer: StreamTyper::new(equiv),
            replayed: JType::Bottom,
        }
    }

    /// Types one record into the fold; a rejected record leaves no trace.
    pub fn record<D: RecordDecoder>(
        &mut self,
        decoder: &D,
        scratch: &mut D::Scratch,
        line: &str,
    ) -> Result<Route, ParseError> {
        if self.equiv == Equivalence::Kind {
            let decoded = decoder.decode_events(scratch, line, &mut InPlace(&mut self.in_place));
            if self.settle(decoded)? {
                return Ok(Route::Fast);
            }
        }
        let ty = self.typer.type_decoded(decoder, scratch, line)?;
        Ok(self.fuse_replayed(ty))
    }

    /// [`record`](Self::record) while `beside` receives the same events:
    /// one decode, two consumers. `Ok(None)`: the record was taken back
    /// for replay, and the caller — who has, or is about to build, its
    /// [`Value`] — hands that to [`replay`](Self::replay).
    pub fn record_beside<D: RecordDecoder, R: EventReceiver + ?Sized>(
        &mut self,
        decoder: &D,
        scratch: &mut D::Scratch,
        line: &str,
        beside: &mut R,
    ) -> Result<Option<Route>, ParseError> {
        if self.equiv != Equivalence::Kind {
            let ty = self.typer.type_beside(decoder, scratch, line, beside)?;
            return Ok(Some(self.fuse_replayed(ty)));
        }
        let mut walk = InPlace(&mut self.in_place);
        let decoded = decoder.decode_events(scratch, line, &mut Tee(&mut walk, beside));
        Ok(self.settle(decoded)?.then_some(Route::Fast))
    }

    /// Types a record [`record_beside`](Self::record_beside) took back,
    /// from its document.
    pub fn replay(&mut self, doc: &Value) -> Route {
        self.fuse_replayed(infer_value(doc, self.equiv))
    }

    /// [`record`](Self::record), also rebuilding the record's DOM from
    /// the same decode.
    pub fn record_and_build<D: RecordDecoder>(
        &mut self,
        decoder: &D,
        scratch: &mut D::Scratch,
        line: &str,
    ) -> Result<(Value, Route), ParseError> {
        let mut builder = ValueBuilder::new();
        let typed = self.record_beside(decoder, scratch, line, &mut builder)?;
        let doc = builder.take();
        let route = typed.unwrap_or_else(|| self.replay(&doc));
        Ok((doc, route))
    }

    /// Settles the in-place walk of one record: counted (`true`), taken
    /// back for replay (`false`), or — the decoder rejected it after any
    /// number of events — taken back and rejected.
    fn settle(&mut self, decoded: Result<(), ParseError>) -> Result<bool, ParseError> {
        if let Err(e) = decoded {
            self.in_place.rollback();
            return Err(e);
        }
        Ok(self.in_place.commit())
    }

    fn fuse_replayed(&mut self, ty: JType) -> Route {
        let current = std::mem::replace(&mut self.replayed, JType::Bottom);
        self.replayed = fuse(current, ty, self.equiv);
        // One reason per equivalence: under `Label` the union member a
        // record joins is known only once its last key has arrived, so no
        // record is typed in place; under `Kind` only a key repeated
        // inside one object sends a record back.
        Route::Replayed(match self.equiv {
            Equivalence::Kind => "duplicate-key",
            Equivalence::Label => "label-equivalence",
        })
    }

    /// The type of every record accepted since the last `take`; counting
    /// restarts from zero while the learnt structure, names, frame stacks
    /// and interner survive.
    pub fn take(&mut self) -> JType {
        let replayed = std::mem::replace(&mut self.replayed, JType::Bottom);
        fuse(self.in_place.take(), replayed, self.equiv)
    }
}

/// The route label of a record [`teach`] left untyped.
pub(crate) const NOT_TAUGHT: &str = "not-a-record";

/// Types one record into `fold` to teach a shredder's layout — unless
/// its root is no object: the shredder rejects that record
/// ([`RecordIssue::NotARecord`], when it has the layout and the policy to
/// apply), so it teaches nothing, and is decoded here only for the
/// decoder's own verdict, which comes first.
fn teach(fold: &mut TypeFold, decoder: &LineDecoder, line: &str) -> Result<Route, RecordIssue> {
    if decoder.roots_an_object(line) {
        fold.record(decoder, &mut (), line)
    } else {
        decoder
            .decode_events(&mut (), line, &mut NullReceiver)
            .map(|()| Route::Replayed(NOT_TAUGHT))
    }
    .map_err(RecordIssue::Parse)
}

/// The inference stage: one [`TypeFold`] per worker, chunk types fused
/// with the §4.1 monoid.
pub(crate) struct InferStage {
    pub(crate) equiv: Equivalence,
    pub(crate) decoder: LineDecoder,
    /// Type records only ([`teach`]): the type is for a shredder.
    pub(crate) records_only: bool,
}

impl RecordStage for InferStage {
    type State = TypeFold;
    type Out = JType;

    fn init(&self) -> TypeFold {
        TypeFold::new(self.equiv)
    }

    #[inline]
    fn record(
        &self,
        fold: &mut TypeFold,
        line: &str,
        _record: usize,
    ) -> Result<Route, RecordIssue> {
        if self.records_only {
            return teach(fold, &self.decoder, line);
        }
        fold.record(&self.decoder, &mut (), line)
            .map_err(RecordIssue::Parse)
    }

    fn merge(&self, left: JType, right: JType) -> JType {
        fuse(left, right, self.equiv)
    }

    fn take(&self, fold: &mut TypeFold) -> JType {
        fold.take()
    }
}

// ---------------------------------------------------------------------------
// Validation stage
// ---------------------------------------------------------------------------

/// Per-record outcome of streaming validation. Records that do not
/// decode never get a verdict: they go to the fault layer
/// ([`StreamError::Record`] under fail-fast, the [`RunReport`]'s reject
/// account under a tolerant policy).
///
/// [`RunReport`]: jsonx_pipeline::RunReport
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineVerdict {
    /// The record decoded and satisfies the schema.
    Valid,
    /// The record decoded but violates the schema.
    Invalid,
}

impl LineVerdict {
    /// True only for [`LineVerdict::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, LineVerdict::Valid)
    }

    fn of(valid: bool) -> LineVerdict {
        if valid {
            LineVerdict::Valid
        } else {
            LineVerdict::Invalid
        }
    }
}

/// The validation stage: per-record verdicts, concatenated in chunk
/// order, from the compiled validation IR — **identical** to validating
/// each document on its own (property-tested against the oracle
/// interpreter in `tests/streaming_validation.rs`), so callers wanting
/// diagnostics can re-run [`CompiledSchema::validate`], the same walk's
/// errors face, on just the invalid lines.
/// Malformed records are rejected to the fault layer, so the verdict
/// vector covers exactly the records that decoded.
///
/// A record reaches the IR one of two ways, fixed per run (`events`): an
/// [`EventValidator`] checks the record's events as they are decoded, no
/// document built — verified per record, one it cannot vouch for (a
/// duplicate key) is decoded again, to a document; and a run that may not
/// speculate, or a schema outside the streamable fragment, decodes every
/// record to a document for [`FastValidator`].
pub(crate) struct ValidateStage<'s> {
    pub(crate) schema: &'s CompiledSchema,
    pub(crate) options: ValidatorOptions,
    /// How record text becomes events or a document.
    pub(crate) decoder: LineDecoder,
    /// `Ok`: validate from events. `Err`: why every record is decoded to
    /// a document — `no-plan` for a run with the fast path off, else the
    /// keyword that keeps the schema out of the streamable fragment.
    pub(crate) events: Result<(), &'static str>,
}

/// What validation keeps per worker: the validator of documents, and the
/// validator of events — or why the stage does not walk them.
pub(crate) struct Validators<'s> {
    documents: FastValidator<'s>,
    events: Result<EventValidator<'s>, &'static str>,
}

impl<'s> ValidateStage<'s> {
    fn validators(&self) -> Validators<'s> {
        Validators {
            documents: self.schema.fast_validator_with(self.options),
            events: self
                .events
                .and_then(|()| self.schema.event_validator_with(self.options)),
        }
    }

    /// The verdict on the record's document, decoded for `why`.
    #[inline]
    fn document(
        &self,
        documents: &mut FastValidator<'s>,
        line: &str,
        why: &'static str,
    ) -> Result<(bool, Route), RecordIssue> {
        let doc = self
            .decoder
            .decode_value(&mut (), line)
            .map_err(RecordIssue::Parse)?;
        Ok((documents.is_valid(&doc), Route::Replayed(why)))
    }

    /// The verdict on one record. From its events when the stage walks
    /// them: a record the decoder rejects is a reject with the decoder's
    /// error whatever the walk had concluded, and one with a repeated key
    /// is decoded again, to the document only last-wins can judge.
    #[inline]
    fn verdict(
        &self,
        state: &mut Validators<'s>,
        line: &str,
    ) -> Result<(bool, Route), RecordIssue> {
        let walk = match &mut state.events {
            Ok(walk) => walk,
            Err(why) => return self.document(&mut state.documents, line, why),
        };
        let decoded = self
            .decoder
            .decode_events(&mut (), line, &mut Walking(walk));
        if let Err(e) = decoded {
            walk.reset();
            return Err(RecordIssue::Parse(e));
        }
        match walk.finish() {
            Some(valid) => Ok((valid, Route::Fast)),
            None => self.replay(&mut state.documents, line),
        }
    }

    #[cold]
    fn replay(
        &self,
        documents: &mut FastValidator<'s>,
        line: &str,
    ) -> Result<(bool, Route), RecordIssue> {
        self.document(documents, line, "duplicate-key")
    }
}

impl<'s> RecordStage for ValidateStage<'s> {
    type State = (Validators<'s>, Vec<(usize, LineVerdict)>);
    type Out = Vec<(usize, LineVerdict)>;

    fn init(&self) -> Self::State {
        (self.validators(), Vec::new())
    }

    #[inline]
    fn record(
        &self,
        (validators, verdicts): &mut Self::State,
        line: &str,
        record: usize,
    ) -> Result<Route, RecordIssue> {
        let (valid, route) = self.verdict(validators, line)?;
        verdicts.push((record, LineVerdict::of(valid)));
        Ok(route)
    }

    fn merge(&self, mut left: Self::Out, right: Self::Out) -> Self::Out {
        left.extend(right);
        left
    }

    fn take(&self, (_, verdicts): &mut Self::State) -> Self::Out {
        // Validators survive across chunks; verdicts are the chunk's
        // output.
        std::mem::take(verdicts)
    }
}

// ---------------------------------------------------------------------------
// Combined infer + validate stage (single pass)
// ---------------------------------------------------------------------------

/// The combined single-pass stage: one decode per accepted record feeds
/// both the type fold and the compiled validator, for half the
/// tokenisation work of running the two passes back to back — with the
/// type and the verdicts each equal to what the separate stages produce
/// (pinned by `tests/pipeline_equivalence.rs`). Rejected records appear
/// in neither.
///
/// Where [`ValidateStage`] validates from events, so does this: the
/// record's events go to the fold and the [`EventValidator`] behind one
/// [`Tee`], and only when either asks for a replay is the record decoded
/// to a document — once, for both. Otherwise the second receiver is a
/// [`ValueBuilder`] and the validator reads its document
/// ([`TypeFold::record_and_build`]).
pub(crate) struct InferValidateStage<'s> {
    pub(crate) equiv: Equivalence,
    pub(crate) validate: ValidateStage<'s>,
}

impl<'s> InferValidateStage<'s> {
    /// Decodes to a document the record one half could not vouch for.
    #[cold]
    fn replay(
        &self,
        fold: &mut TypeFold,
        validators: &mut Validators<'s>,
        line: &str,
        typed: Option<Route>,
        valid: Option<bool>,
    ) -> Result<(bool, Route), RecordIssue> {
        let doc = self
            .validate
            .decoder
            .decode_value(&mut (), line)
            .map_err(RecordIssue::Parse)?;
        let route = match typed {
            None => fold.replay(&doc),
            Some(Route::Fast) => Route::Replayed("duplicate-key"),
            Some(replayed) => replayed,
        };
        let valid = valid.unwrap_or_else(|| validators.documents.is_valid(&doc));
        Ok((valid, route))
    }
}

impl<'s> RecordStage for InferValidateStage<'s> {
    type State = (TypeFold, Validators<'s>, Vec<(usize, LineVerdict)>);
    type Out = TypedVerdicts;

    fn init(&self) -> Self::State {
        (
            TypeFold::new(self.equiv),
            self.validate.validators(),
            Vec::new(),
        )
    }

    #[inline]
    fn record(
        &self,
        (fold, validators, verdicts): &mut Self::State,
        line: &str,
        record: usize,
    ) -> Result<Route, RecordIssue> {
        let decoder = &self.validate.decoder;
        let (valid, route) = match &mut validators.events {
            Ok(walk) => {
                let typed = fold.record_beside(decoder, &mut (), line, &mut Walking(walk));
                let typed = typed.map_err(|e| {
                    walk.reset();
                    RecordIssue::Parse(e)
                })?;
                match (typed, walk.finish()) {
                    (Some(route), Some(valid)) => (valid, route),
                    (typed, valid) => self.replay(fold, validators, line, typed, valid)?,
                }
            }
            Err(_) => {
                let (doc, route) = fold
                    .record_and_build(decoder, &mut (), line)
                    .map_err(RecordIssue::Parse)?;
                (validators.documents.is_valid(&doc), route)
            }
        };
        verdicts.push((record, LineVerdict::of(valid)));
        Ok(route)
    }

    fn merge(&self, left: Self::Out, right: Self::Out) -> Self::Out {
        let (lty, mut lverdicts) = left;
        let (rty, rverdicts) = right;
        lverdicts.extend(rverdicts);
        (fuse(lty, rty, self.equiv), lverdicts)
    }

    fn take(&self, (fold, _, verdicts): &mut Self::State) -> Self::Out {
        (fold.take(), std::mem::take(verdicts))
    }
}

/// What a successful combined pass yields: the fused collection type
/// next to the per-record verdicts (original record indices).
pub type TypedVerdicts = (JType, Vec<(usize, LineVerdict)>);

// ---------------------------------------------------------------------------
// Schema-driven translation stage (§5)
// ---------------------------------------------------------------------------

/// The translation stage: one [`ShredStream`] per worker over a shared
/// fixed layout ([`Shredder::from_type`], typically over a type the
/// inference stage produced), one result per chunk, in chunk order — the
/// rows are what parsing every line and shredding the whole collection
/// with [`Shredder::shred`](jsonx_translate::Shredder::shred) gives,
/// property-tested in `tests/pipeline_equivalence.rs`. Under a tolerant
/// policy rejected records (malformed, non-record, over a limit) simply
/// contribute no row.
///
/// When the layout's type is that of a *sample* of the corpus
/// ([`teach`](Self::teach)), every record is shredded only if it
/// [fits](ShredStream::push_fitting) that type. The first that does not
/// voids its chunk: from that record on the chunk's lines are typed
/// instead ([`teach`]) — so a malformed line is still rejected where it
/// stands — and the chunk yields what it taught, not rows.
pub(crate) struct TranslateStage<'t> {
    pub(crate) shredder: &'t Shredder,
    /// How record text becomes events: records are shredded straight
    /// from them, and the walker skips the root keys the layout lacks.
    pub(crate) decoder: LineDecoder,
    /// `Some`: shred only what fits the layout's type, and type — under
    /// this equivalence — what does not.
    pub(crate) teach: Option<Equivalence>,
}

/// What translating one chunk came to.
pub(crate) enum Shredded {
    /// Every accepted record's row.
    Rows(ColumnarBatch),
    /// The chunk was voided at record `misfit`: the type of the
    /// `records` accepted from there on.
    Taught {
        ty: JType,
        misfit: usize,
        records: usize,
    },
}

/// What translation keeps per worker.
pub(crate) struct Shredding<'t> {
    stream: ShredStream<'t>,
    /// Types the tail of a voided chunk ([`TranslateStage::teach`]).
    fold: Option<TypeFold>,
    /// Where the chunk being fed was voided, and the records it has
    /// taught since.
    voided: Option<(usize, usize)>,
}

impl<'t> RecordStage for TranslateStage<'t> {
    type State = Shredding<'t>;
    type Out = Vec<Shredded>;

    fn init(&self) -> Self::State {
        Shredding {
            stream: self.shredder.stream(),
            fold: self.teach.map(TypeFold::new),
            voided: None,
        }
    }

    #[inline]
    fn record(
        &self,
        state: &mut Self::State,
        line: &str,
        record: usize,
    ) -> Result<Route, RecordIssue> {
        let Shredding {
            stream,
            fold,
            voided,
        } = state;
        if let Some(fold) = fold {
            if voided.is_none() {
                match stream.push_fitting(&self.decoder, &mut (), line) {
                    Ok(true) => return Ok(Route::Fast),
                    Ok(false) => {}
                    Err(e) => return Err(RecordIssue::Parse(e)),
                }
            }
            let (_, taught) = voided.get_or_insert((record, 0));
            let route = teach(fold, &self.decoder, line)?;
            *taught += usize::from(route != Route::Replayed(NOT_TAUGHT));
            return Ok(route);
        }
        match stream.push_record(&self.decoder, &mut (), line) {
            Ok(replayed) => Ok(replayed.map_or(Route::Fast, |why| Route::Replayed(why.label()))),
            Err(ShredError::NotARecord { .. }) => Err(RecordIssue::NotARecord),
            Err(ShredError::Parse(e)) => Err(RecordIssue::Parse(e)),
        }
    }

    fn merge(&self, mut chunks: Self::Out, right: Self::Out) -> Self::Out {
        chunks.extend(right);
        chunks
    }

    fn take(&self, state: &mut Self::State) -> Self::Out {
        // Column builders reset inside `take_batch`; the fold's learnt
        // structure survives across chunks.
        let rows = state.stream.take_batch();
        vec![match (state.voided.take(), &mut state.fold) {
            (Some((misfit, records)), Some(fold)) => Shredded::Taught {
                ty: fold.take(),
                misfit,
                records,
            },
            _ => Shredded::Rows(rows),
        }]
    }

    fn voided(&self, state: &Self::State) -> bool {
        state.voided.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Run, Source};
    use jsonx_core::infer_collection;
    use jsonx_data::json;
    use jsonx_syntax::parse_ndjson;

    fn type_json(typer: &mut StreamTyper, doc: &str) -> Result<JType, ParseError> {
        typer.type_decoded(&jsonx_syntax::JsonDecoder::new(), &mut (), doc)
    }

    /// A plan with `workers` threads; a nonzero `chunk_bytes` forces
    /// chunk dispatch even on the small corpora below.
    fn plan(workers: usize, chunk_bytes: usize) -> Run<'static> {
        Run {
            workers,
            chunk_bytes,
            ..Run::default()
        }
    }

    fn tolerant(workers: usize, chunk_bytes: usize, policy: ErrorPolicy) -> Run<'static> {
        Run {
            fault: FaultOptions {
                policy,
                keep_rejects: true,
                limits: ParseLimits::default(),
            },
            ..plan(workers, chunk_bytes)
        }
    }

    fn infer_seq(ndjson: &str, equiv: Equivalence) -> Result<JType, StreamError> {
        plan(1, 0)
            .infer(Source::slice(ndjson), equiv)
            .map(|(ty, _)| ty)
    }

    #[test]
    fn matches_dom_inference_on_mixed_documents() {
        let ndjson = r#"
{"id": 1, "tags": ["a", 2], "geo": null}
{"id": "x", "geo": {"lat": 1.5}, "tags": []}
{"dup": 1, "dup": "last-wins"}
42
[1, {"k": true}]
"#;
        let docs = parse_ndjson(ndjson).unwrap();
        for equiv in [Equivalence::Kind, Equivalence::Label] {
            let dom = infer_collection(&docs, equiv);
            let streamed = infer_seq(ndjson, equiv).unwrap();
            assert_eq!(streamed, dom, "equiv {equiv:?}");
        }
    }

    #[test]
    fn duplicate_keys_last_wins_like_dom() {
        let doc = r#"{"a": 1, "b": true, "a": "s", "a": null}"#;
        let streamed = type_json(&mut StreamTyper::new(Equivalence::Kind), doc).unwrap();
        let dom = jsonx_syntax::parse(doc).unwrap();
        assert_eq!(streamed, jsonx_core::infer_value(&dom, Equivalence::Kind));
        match streamed {
            JType::Record(rt) => {
                assert_eq!(rt.fields.len(), 2);
                assert!(matches!(rt.field("a").unwrap().ty, JType::Null { .. }));
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn type_and_build_rebuilds_the_dom_value() {
        let mut typer = StreamTyper::new(Equivalence::Kind);
        for doc in [
            r#"{"a": 1, "b": [true, null, {"c": "x\ny"}], "geo": {"lat": 1.5}}"#,
            r#"{"dup": 1, "dup": "last-wins", "keep": 0}"#,
            r#"[[], {}, [1, "s"]]"#,
            "42",
            "\"plain\"",
            "null",
        ] {
            let mut builder = ValueBuilder::new();
            let ty = typer
                .type_beside(
                    &jsonx_syntax::JsonDecoder::new(),
                    &mut (),
                    doc,
                    &mut builder,
                )
                .unwrap();
            let built = builder.take();
            let dom = jsonx_syntax::parse(doc).unwrap();
            assert_eq!(built, dom, "doc {doc}");
            assert_eq!(ty, jsonx_core::infer_value(&dom, Equivalence::Kind));
        }
    }

    #[test]
    fn failfast_reports_the_parsers_own_error_with_its_line() {
        let err = infer_seq("{\"a\":1}\n{bad\n", Equivalence::Kind).unwrap_err();
        let parser_err = type_json(&mut StreamTyper::new(Equivalence::Kind), "{bad").unwrap_err();
        assert_eq!(
            err,
            StreamError::Record {
                record: 1,
                issue: RecordIssue::Parse(parser_err),
            }
        );
        assert!(err.to_string().starts_with("line 2: "), "{err}");
    }

    #[test]
    fn empty_input_is_bottom() {
        assert_eq!(infer_seq("", Equivalence::Kind).unwrap(), JType::Bottom);
    }

    #[test]
    fn typer_is_reusable_after_error() {
        let mut typer = StreamTyper::new(Equivalence::Kind);
        assert!(type_json(&mut typer, "{broken").is_err());
        let ty = type_json(&mut typer, r#"{"ok": 1}"#).unwrap();
        assert!(matches!(ty, JType::Record(_)));
    }

    fn corpus_ndjson(n: usize) -> String {
        let mut out = String::new();
        for i in 0..n {
            match i % 4 {
                0 => out.push_str(&format!("{{\"id\": {i}, \"name\": \"a\"}}\n")),
                1 => out.push_str(&format!("{{\"id\": {i}}}\n")),
                2 => out.push_str(&format!("{{\"id\": \"s{i}\", \"tags\": [1, \"x\"]}}\n")),
                _ => out.push_str(&format!(
                    "{{\"geo\": {{\"lat\": 1.5, \"lon\": -0.5}}, \"id\": {i}}}\n"
                )),
            }
        }
        out
    }

    #[test]
    fn parallel_equals_sequential_and_dom() {
        let ndjson = corpus_ndjson(3_000);
        let docs = parse_ndjson(&ndjson).unwrap();
        for equiv in [Equivalence::Kind, Equivalence::Label] {
            let dom = infer_collection(&docs, equiv);
            assert_eq!(infer_seq(&ndjson, equiv).unwrap(), dom);
            for workers in [1, 2, 3, 8] {
                let (par, _) = plan(workers, 256)
                    .infer(Source::slice(&ndjson), equiv)
                    .unwrap();
                assert_eq!(par, dom, "workers={workers} equiv={equiv:?}");
            }
        }
    }

    #[test]
    fn parallel_reports_first_error_line() {
        let base = corpus_ndjson(500);
        let total = base.lines().count();
        // Corrupt two lines, one early and one late; the early one must win
        // regardless of which chunk fails first.
        let mut corrupted: Vec<String> = base.lines().map(str::to_string).collect();
        corrupted[40] = "{oops".to_string();
        corrupted[total - 10] = "[1,".to_string();
        let mut ndjson = corrupted.join("\n");
        ndjson.push('\n');
        let seq_err = infer_seq(&ndjson, Equivalence::Kind).unwrap_err();
        let par_err = plan(4, 64)
            .infer(Source::slice(&ndjson), Equivalence::Kind)
            .unwrap_err();
        assert!(matches!(seq_err, StreamError::Record { record: 40, .. }));
        assert_eq!(par_err, seq_err);
    }

    #[test]
    fn small_inputs_fall_back_to_sequential() {
        let ndjson = corpus_ndjson(10);
        let (par, report) = Run::default()
            .infer(Source::slice(&ndjson), Equivalence::Kind)
            .unwrap();
        assert_eq!(report.shards, 1);
        assert_eq!(par, infer_seq(&ndjson, Equivalence::Kind).unwrap());
    }

    #[test]
    fn combined_pass_matches_two_passes() {
        let schema_doc = json!({
            "type": "object",
            "properties": {"id": {"type": "integer"}},
            "required": ["id"]
        });
        let schema = CompiledSchema::compile(&schema_doc).unwrap();
        let vopts = ValidatorOptions::default();
        let ndjson = corpus_ndjson(600);
        let ty = infer_seq(&ndjson, Equivalence::Kind).unwrap();
        let (verdicts, _) = plan(1, 0)
            .validate(Source::slice(&ndjson), &schema, vopts)
            .unwrap();
        for workers in [1, 2, 3, 8] {
            let ((cty, cverdicts), _) = plan(workers, 128)
                .infer_validate(Source::slice(&ndjson), Equivalence::Kind, &schema, vopts)
                .unwrap();
            assert_eq!(cty, ty, "workers={workers}");
            assert_eq!(cverdicts, verdicts, "workers={workers}");
        }
    }

    #[test]
    fn combined_pass_rejects_malformed_lines_to_the_fault_layer() {
        let schema = CompiledSchema::compile(&json!({"type": "object"})).unwrap();
        let vopts = ValidatorOptions::default();
        let ndjson = "{\"a\": 1}\n{bad\nnot json\n{\"b\": 2}\n";
        let err = plan(1, 0)
            .infer_validate(Source::slice(ndjson), Equivalence::Kind, &schema, vopts)
            .unwrap_err();
        assert!(matches!(err, StreamError::Record { record: 1, .. }));
        let bounded = ErrorPolicy::Skip {
            max_errors: Some(10),
        };
        let ((_, verdicts), report) = tolerant(1, 0, bounded)
            .infer_validate(Source::slice(ndjson), Equivalence::Kind, &schema, vopts)
            .unwrap();
        assert_eq!(
            verdicts,
            vec![(0, LineVerdict::Valid), (3, LineVerdict::Valid)]
        );
        let rejected: Vec<usize> = report.errors.rejects.iter().map(|d| d.record).collect();
        assert_eq!(rejected, vec![1, 2]);
    }

    #[test]
    fn streaming_translation_matches_dom_shred() {
        let ndjson = corpus_ndjson(500);
        let docs = parse_ndjson(&ndjson).unwrap();
        let ty = infer_collection(&docs, Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let dom = shredder.clone().shred(&docs).unwrap();
        for workers in [1, 2, 3, 8] {
            let (streamed, _) = plan(workers, 128)
                .translate(Source::slice(&ndjson), &shredder)
                .unwrap();
            assert_eq!(streamed, dom, "workers={workers}");
        }
    }

    #[test]
    fn streaming_translation_reports_first_bad_line() {
        let mut lines: Vec<String> = corpus_ndjson(200).lines().map(str::to_string).collect();
        lines[150] = "{oops".into();
        lines[20] = "[1, 2]".into(); // well-formed but not a record
        let ndjson = lines.join("\n") + "\n";
        let docs_ty = infer_collection(
            &parse_ndjson(&corpus_ndjson(10)).unwrap(),
            Equivalence::Kind,
        );
        let shredder = Shredder::from_type(&docs_ty);
        for workers in [1, 4] {
            let err = plan(workers, 64)
                .translate(Source::slice(&ndjson), &shredder)
                .unwrap_err();
            assert_eq!(
                err,
                StreamError::Record {
                    record: 20,
                    issue: RecordIssue::NotARecord,
                },
                "workers={workers}"
            );
        }
    }

    #[test]
    fn skip_policy_infers_type_of_surviving_lines() {
        let mut lines: Vec<String> = corpus_ndjson(100).lines().map(str::to_string).collect();
        lines[13] = "{broken".into();
        lines[55] = "[1, 2".into();
        let dirty = lines.join("\n") + "\n";
        // Reference: blank the bad lines (preserving indices) and fail-fast.
        let mut clean_lines = lines.clone();
        clean_lines[13].clear();
        clean_lines[55].clear();
        let clean = clean_lines.join("\n") + "\n";
        let reference = infer_seq(&clean, Equivalence::Kind).unwrap();
        for workers in [1, 2, 4] {
            let (ty, report) = tolerant(workers, 64, ErrorPolicy::Skip { max_errors: None })
                .infer(Source::slice(&dirty), Equivalence::Kind)
                .unwrap();
            assert_eq!(ty, reference, "workers={workers}");
            assert_eq!(report.errors.total, 2);
            let rejected: Vec<usize> = report.errors.rejects.iter().map(|d| d.record).collect();
            assert_eq!(rejected, vec![13, 55]);
            assert_eq!(report.errors.rejects[0].raw.as_deref(), Some("{broken"));
            assert_eq!(report.records, 100, "rejected lines still count as records");
        }
    }

    #[test]
    fn max_errors_bound_trips_deterministically() {
        let mut lines: Vec<String> = corpus_ndjson(60).lines().map(str::to_string).collect();
        for i in [5, 15, 25, 35] {
            lines[i] = "{bad".into();
        }
        let ndjson = lines.join("\n") + "\n";
        for workers in [1, 3] {
            let bounded = |max_errors| {
                tolerant(workers, 32, ErrorPolicy::Skip { max_errors })
                    .infer(Source::slice(&ndjson), Equivalence::Kind)
            };
            // Bound above the rejection count: run succeeds.
            let (_, report) = bounded(Some(4)).unwrap();
            assert_eq!(report.errors.total, 4, "workers={workers}");
            // Bound below: the run fails with TooManyErrors.
            let err = bounded(Some(3)).unwrap_err();
            assert!(
                matches!(err, StreamError::TooManyErrors { limit: 3, .. }),
                "workers={workers}, got {err:?}"
            );
        }
    }

    /// The policy that collects every diagnostic is a bounded skip that
    /// keeps its rejects: past the default sample cap, raw lines included.
    #[test]
    fn collect_policy_retains_all_diagnostics_up_to_bound() {
        let mut lines: Vec<String> = corpus_ndjson(40).lines().map(str::to_string).collect();
        let bad: Vec<usize> = (1..40).step_by(3).collect();
        assert!(bad.len() > DIAGNOSTIC_SAMPLES);
        for &i in &bad {
            lines[i] = "nope!".into();
        }
        let ndjson = lines.join("\n") + "\n";
        let run = tolerant(
            1,
            0,
            ErrorPolicy::Skip {
                max_errors: Some(100),
            },
        );
        let (_, report) = run
            .infer(Source::slice(&ndjson), Equivalence::Kind)
            .unwrap();
        let rejected: Vec<usize> = report.errors.rejects.iter().map(|d| d.record).collect();
        assert_eq!(rejected, bad);
        assert_eq!(report.errors.dropped, 0);
        assert!(report
            .errors
            .rejects
            .iter()
            .all(|d| d.raw.as_deref() == Some("nope!")));
    }

    fn skip_with_limits(limits: ParseLimits) -> Run<'static> {
        Run {
            fault: FaultOptions {
                policy: ErrorPolicy::Skip { max_errors: None },
                keep_rejects: false,
                limits,
            },
            ..plan(1, 0)
        }
    }

    #[test]
    fn resource_limits_reject_pathological_records() {
        let bomb = "[".repeat(200) + &"]".repeat(200);
        let huge = format!("[{}1]", "1, ".repeat(600));
        let ndjson = format!("{{\"ok\": 1}}\n{bomb}\n{huge}\n{{\"ok\": 2}}\n");
        let run = skip_with_limits(
            ParseLimits::new()
                .with_max_depth(128)
                .with_max_input_bytes(1024)
                .with_max_string_bytes(64),
        );
        let (ty, report) = run
            .infer(Source::slice(&ndjson), Equivalence::Kind)
            .unwrap();
        assert_eq!(report.errors.total, 2);
        assert_eq!(report.errors.by_kind["too-deep"], 1);
        assert_eq!(report.errors.by_kind["limit-exceeded-input-bytes"], 1);
        // Only the two {"ok": n} records contribute to the type.
        assert_eq!(ty.count(), 2);
    }

    #[test]
    fn string_limit_rejects_on_event_path() {
        let ndjson = format!("{{\"k\": \"{}\"}}\n{{\"k\": \"s\"}}\n", "y".repeat(100));
        let run = skip_with_limits(ParseLimits::new().with_max_string_bytes(16));
        let (_, report) = run
            .infer(Source::slice(&ndjson), Equivalence::Kind)
            .unwrap();
        assert_eq!(report.errors.by_kind["limit-exceeded-string-bytes"], 1);
        assert_eq!(report.errors.total, 1);
    }

    #[test]
    fn validation_rejects_malformed_lines_instead_of_giving_verdicts() {
        let schema = CompiledSchema::compile(&json!({"type": "object"})).unwrap();
        let ndjson = "{\"a\": 1}\n{oops\n[1, 2]\n";
        let (verdicts, report) = tolerant(1, 0, ErrorPolicy::Skip { max_errors: None })
            .validate(Source::slice(ndjson), &schema, ValidatorOptions::default())
            .unwrap();
        assert_eq!(
            verdicts,
            vec![(0, LineVerdict::Valid), (2, LineVerdict::Invalid)]
        );
        assert_eq!(report.errors.total, 1);
        assert_eq!(report.errors.rejects[0].record, 1);
        // One verdict entry is an index plus a one-byte tag — no parse
        // error rides along per record.
        assert_eq!(std::mem::size_of::<(usize, LineVerdict)>(), 16);
    }

    #[test]
    fn tolerant_translation_skips_non_records() {
        let ndjson = corpus_ndjson(30);
        let docs = parse_ndjson(&ndjson).unwrap();
        let ty = infer_collection(&docs, Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let mut lines: Vec<String> = ndjson.lines().map(str::to_string).collect();
        lines[10] = "[1, 2]".into();
        lines[17] = "{nope".into();
        let dirty = lines.join("\n") + "\n";
        let mut clean = lines.clone();
        clean[10].clear();
        clean[17].clear();
        let clean = clean.join("\n") + "\n";
        let (reference, _) = plan(1, 0)
            .translate(Source::slice(&clean), &shredder)
            .unwrap();
        let (batch, report) = tolerant(1, 0, ErrorPolicy::Skip { max_errors: None })
            .translate(Source::slice(&dirty), &shredder)
            .unwrap();
        assert_eq!(batch, reference);
        assert_eq!(report.errors.total, 2);
        assert_eq!(report.errors.by_kind["not-a-record"], 1);
    }

    #[test]
    fn interner_shares_repeated_keys() {
        let mut typer = StreamTyper::new(Equivalence::Kind);
        let a = type_json(&mut typer, r#"{"hot": 1}"#).unwrap();
        let b = type_json(&mut typer, r#"{"hot": 2}"#).unwrap();
        let (JType::Record(ra), JType::Record(rb)) = (a, b) else {
            panic!("expected records");
        };
        assert!(FieldName::ptr_eq(&ra.fields[0].0, &rb.fields[0].0));
    }
}
