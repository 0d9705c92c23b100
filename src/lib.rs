//! # jsonx — Schemas And Types For JSON Data
//!
//! Facade crate re-exporting the whole `jsonx` workspace: a Rust toolkit for
//! JSON schema languages, structural type inference, structural-index
//! parsing, and schema-driven translation, reproducing the system landscape
//! of the EDBT 2019 tutorial *"Schemas And Types For JSON Data"* (Baazizi,
//! Colazzo, Ghelli, Sartiani).
//!
//! Sub-crates (also usable directly):
//!
//! * [`data`] — JSON value model, pointers, canonical comparison.
//! * [`syntax`] — from-scratch JSON lexer/parser/serializer and streaming.
//! * [`regex`] — the small regex engine behind schema `pattern` keywords.
//! * [`schema`] — JSON Schema (Pezoa et al. formal core) validator.
//! * [`joi`] — Joi-style object schema DSL with co-occurrence constraints.
//! * [`jsound`] — JSound-style compact schema-by-example language.
//! * [`skeleton`] — Wang et al. skeleton schemas (frequent-structure mining).
//! * [`core`] — the type algebra and parametric schema inference (K/L
//!   equivalences, counting types, commutative fusion — what lets
//!   [`Run::infer`] type chunks on several workers and fuse them).
//! * [`baselines`] — Spark-style, Studio3T-naive, mongodb-schema-style and
//!   Skinfer-style inference baselines.
//! * [`typelang`] — a miniature TypeScript/Swift-flavoured structural type
//!   system with typed decoding.
//! * [`mison`] — Mison-style structural-index parser with projection
//!   pushdown and a Fad.js-style speculative decoder.
//! * [`pipeline`] — the generic chunked fold engine behind every parallel
//!   workload (sequence-numbered chunks, a work-stealing worker pool,
//!   sequence-order fusion).
//! * [`translate`] — schema-driven translation to columnar batches and an
//!   Avro-like binary row format.
//! * [`gen`] — seeded synthetic dataset generators with heterogeneity dials.
//! * [`serve`] — the resident schema service: validate/infer/translate over
//!   a line protocol with bounded queues, deadlines, and hot reload.
//!
//! The streaming pipeline itself lives in this crate: a [`Run`] describes
//! one streaming run (workers, chunking, fault policy, fast-parse, record
//! format, optional checkpoint journal) and its methods —
//! [`infer`](Run::infer), [`validate`](Run::validate),
//! [`infer_validate`](Run::infer_validate), [`translate`](Run::translate),
//! [`documents`](Run::documents) — execute it over a [`Source`] through
//! one path (see [`run`]). Every stage reads a record one way: from its
//! events, verified per record, with a document built only for a record
//! the walk hands back or a schema outside the streamable fragment (see
//! [`streaming`]) — except the document stage, which hands each record's
//! document to a whole-collection tool's fold (see [`documents`]).
//! `translate` is a loop over that path, not a pass: the first
//! chunk teaches the columnar layout, every chunk is shredded under it by
//! walkers that verify each record against it, and a chunk whose records
//! widen it is shredded again — the corpus is read once when the first
//! chunk describes it.

pub mod checkpoint;
pub mod documents;
pub mod quarantine;
pub mod run;
pub mod streaming;

pub use jsonx_baselines as baselines;
pub use jsonx_core as core;
pub use jsonx_data as data;
pub use jsonx_gen as gen;
pub use jsonx_jaql as jaql;
pub use jsonx_joi as joi;
pub use jsonx_jsound as jsound;
pub use jsonx_mison as mison;
pub use jsonx_regex as regex;
pub use jsonx_schema as schema;
pub use jsonx_serve as serve;
pub use jsonx_skeleton as skeleton;
pub use jsonx_syntax as syntax;
pub use jsonx_translate as translate;
pub use jsonx_typelang as typelang;

pub use checkpoint::JournalControl;
pub use jsonx_data::{json, Kind, Number, Object, Pointer, Value};
pub use jsonx_pipeline as pipeline;
pub use jsonx_pipeline::{
    ErrorPolicy, ErrorSummary, LayoutAccount, RecordDiagnostic, Route, RouteCounts, RunReport,
    ShardPanic, WorkerTiming,
};
pub use jsonx_syntax::{
    CsvDecoder, EventReceiver, JsonDecoder, ParseLimits, RecordDecoder, ValueBuilder,
};
pub use quarantine::{write_quarantine, write_quarantine_file};
pub use run::{Format, Run, Source};
pub use streaming::{
    FaultOptions, LineVerdict, RecordIssue, StreamError, StreamTyper, TypeFold, TypedVerdicts,
};
