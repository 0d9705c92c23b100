//! # jsonx-core
//!
//! The tutorial's centre of gravity (§4.1): **parametric schema inference
//! for massive JSON collections**, after the line of work by Baazizi,
//! Colazzo, Ghelli and Sartiani (EDBT 2017; DBPL 2017 "counting types";
//! VLDB Journal 2019 "parametric schema inference").
//!
//! The pipeline is a map/reduce:
//!
//! 1. **Map** ([`infer_value`]): each document is abstracted into a
//!    [`JType`] — its exact structural type with all counters set to 1.
//! 2. **Reduce** ([`fuse`]): types are pairwise *fused* with a commutative,
//!    associative, idempotent-on-shape operator, parameterised by an
//!    [`Equivalence`] that decides when two record types collapse into one:
//!    * [`Equivalence::Kind`] (**K**): all records merge — maximal
//!      succinctness, fields become optional as needed;
//!    * [`Equivalence::Label`] (**L**): records merge only when they have
//!      the same field-name set — maximal precision, unions grow.
//!
//! Because fusion is a commutative monoid (with [`JType::Bottom`] as the
//! unit), the reduce parallelises and distributes freely. `jsonx::Run::infer`
//! exploits that on the workspace's chunked, work-stealing engine
//! (`jsonx-pipeline`), standing in for the papers' Spark deployment: each
//! worker types its chunks in place and the chunk types are fused in input
//! order.
//!
//! Types carry **counting annotations** (DBPL 2017): how many values were
//! fused into each node and how often each record field was present, so the
//! inferred schema doubles as a statistical profile of the collection.
//!
//! ```
//! use jsonx_data::json;
//! use jsonx_core::{infer_collection, Equivalence, print_type, PrintOptions};
//!
//! let docs = vec![
//!     json!({"id": 1, "name": "ada"}),
//!     json!({"id": 2}),
//!     json!({"id": "x3", "name": "lin"}),
//! ];
//! let ty = infer_collection(&docs, Equivalence::Kind);
//! let rendered = print_type(&ty, PrintOptions::plain());
//! assert_eq!(rendered, "{id: (Int + Str), name?: Str}");
//! ```

pub mod accumulate;
pub mod equiv;
pub mod export;
pub mod fuse;
pub mod infer;
pub mod metrics;
pub mod printer;
pub mod simplify;
pub mod type_parser;
pub mod types;

pub use accumulate::{ScalarKind, TypeAccumulator};
pub use equiv::Equivalence;
pub use export::to_json_schema;
pub use fuse::{fuse, fuse_all};
pub use infer::{infer_collection, infer_value};
pub use metrics::{false_acceptance_rate, measure, type_size, TypeMetrics};
pub use printer::{print_type, PrintOptions};
pub use simplify::{
    bound_union_width, collapse_below_depth, collapse_record_unions, widen_numeric,
};
pub use type_parser::{parse_type, TypeParseError};
pub use types::{ArrayType, FieldName, FieldType, JType, RecordType};
