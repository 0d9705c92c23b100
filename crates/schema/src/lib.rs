//! # jsonx-schema
//!
//! An implementation of the JSON Schema core the tutorial's §2 surveys,
//! following the formal semantics of Pezoa et al. (*Foundations of JSON
//! Schema*, WWW 2016): the draft-04/06 validation vocabulary including the
//! boolean combinators (`allOf`, `anyOf`, `oneOf`, and **negation** via
//! `not`), intra-document `$ref` (recursion included), `definitions`,
//! per-kind keyword sets, and `uniqueItems`/`enum`/`const` under canonical
//! value equality.
//!
//! ```
//! use jsonx_data::json;
//! use jsonx_schema::CompiledSchema;
//!
//! let schema = CompiledSchema::compile(&json!({
//!     "type": "object",
//!     "properties": {
//!         "name": { "type": "string", "minLength": 1 },
//!         "age":  { "type": "integer", "minimum": 0 }
//!     },
//!     "required": ["name"]
//! })).unwrap();
//!
//! assert!(schema.is_valid(&json!({ "name": "ada", "age": 36 })));
//! assert!(!schema.is_valid(&json!({ "age": -1 })));
//! ```
//!
//! Design notes:
//! * Schemas compile once ([`CompiledSchema::compile`]) into an AST with
//!   pre-compiled `pattern` regexes, then lower into a flat validation IR
//!   ([`ir`]) with `$ref` targets pre-resolved to arena indices, sorted
//!   `properties` tables, kind bitmasks, and deduplicated pattern slots.
//! * One walk over the IR evaluates a `Value`, with two faces: the
//!   fail-fast verdict ([`CompiledSchema::is_valid`] / [`FastValidator`])
//!   short-circuits and allocates nothing; the errors face
//!   ([`CompiledSchema::validate`]) reports every violation with its
//!   instance path.
//! * Only well-formed schemas compile (Pezoa et al.): every cycle of
//!   references must pass through a keyword that moves to a sub-instance
//!   (`properties`, `items`, `contains`, …). A schema that recurses
//!   without consuming input — `{"not": {"$ref": "#"}}` — is a
//!   [`SchemaError`] naming the cycle's references, so no evaluator ever
//!   meets such a cycle.
//! * A second evaluator reads no `Value` at all: [`EventValidator`] walks
//!   the same IR from a record's parse events, for the *streamable*
//!   fragment ([`CompiledSchema::streamable`]) every inferred schema is in.
//! * `format` is an annotation by default (per spec); [`ValidatorOptions`]
//!   can opt in to enforcing the formats this crate knows.

pub mod ast;
pub mod errors;
pub mod formats;
pub mod ir;
pub mod parse;
pub mod sample;
pub mod validate;

pub use ast::{Dependency, Items, Schema, SchemaNode};
pub use errors::{SchemaError, ValidationError, ValidationErrorKind};
pub use ir::{EventValidator, FastValidator};
pub use parse::CompiledSchema;
pub use validate::ValidatorOptions;
