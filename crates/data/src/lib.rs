//! # jsonx-data
//!
//! The JSON data model shared by every crate in the `jsonx` workspace.
//!
//! This crate deliberately contains *no* parsing or schema logic: it is the
//! substrate that the tutorial's §1 ("JSON primer") describes — values built
//! from the seven JSON kinds (null, true/false, numbers, strings, arrays,
//! objects), plus the operations every schema/type tool needs:
//!
//! * [`Value`] — an owned JSON value with order-preserving objects,
//! * [`Number`] — an exact number representation with canonical equality
//!   across the integer/float boundary,
//! * [`Object`] — an insertion-ordered string→value map,
//! * [`Pointer`] — RFC 6901 JSON Pointers for addressing into values,
//! * [`cmp::canonical_cmp`] — a total order on values used by
//!   schema tools for deduplication and set semantics (`uniqueItems`,
//!   `enum`),
//! * [`metrics`] — structural size/depth/path statistics used by the
//!   schema-size experiments (E7, E8),
//! * [`hash::crc32`] — the CRC-32 checksum shared by the run journal's
//!   record frames, translate's `.rows` images and the `.jxc` per-block
//!   integrity checks: carry-less-multiply folding on x86_64 CPUs that
//!   have it, slice-by-8 tables everywhere else, one value either way.

pub mod cmp;
pub mod hash;
pub mod kind;
pub mod metrics;
pub mod number;
pub mod object;
pub mod pointer;
pub mod value;

#[macro_use]
mod macros;

pub use cmp::{all_unique, canonical_cmp, canonical_dedup, canonical_eq};
pub use hash::{crc32, crc32_update};
pub use kind::Kind;
pub use metrics::{label_paths, max_depth, node_count, text_size, LabelPath, LabelStep};
pub use number::Number;
pub use object::Object;
pub use pointer::{Pointer, PointerParseError, Token};
pub use value::{write_escaped, Value};
