//! # jsonx-gen
//!
//! Deterministic, seeded generators for the JSON collections every
//! experiment in this workspace consumes.
//!
//! The tutorial's examples "come from publicly available datasets"
//! (Twitter and NYTimes API results, GitHub events, data.gov). Live pulls
//! are neither reproducible nor available offline, so this crate generates
//! *structurally equivalent* corpora instead: the shapes, optional-field
//! patterns, nesting and heterogeneity of those feeds, behind explicit
//! dials. Every structural claim the experiments measure (schema sizes,
//! union widths, projection ratios, merge behaviour) depends only on those
//! dials — which is what makes the substitution sound (see DESIGN.md §4).
//!
//! * [`param::DialedGenerator`] — fully parameterised generator: record
//!   width, optional-field rate, type-noise rate, nesting, shape variants,
//!   skew.
//! * [`github`], [`twitter`], [`nytimes`], [`opendata`] — fixed-shape
//!   corpora modelled on the public feeds the tutorial cites.
//! * [`corpus::Corpus`] — a registry used by benches and examples to name
//!   workloads.
//! * [`dirty`] — dirty NDJSON corpora (seeded corruption with ground
//!   truth) for the fault-tolerance suites, and [`respelled`]: well-formed
//!   text no serializer writes (repeated and escaped-equal keys, shuffled
//!   members, `3.0` for `3`).
//! * [`fault_client`] — deliberately misbehaving line-protocol clients
//!   (slow-loris writers, mid-frame disconnects, pipelined bursts) for
//!   the resident service's fault-injection harness.
//!
//! Everything is seeded: the same configuration always yields the same
//! collection, byte for byte.

pub mod corpus;
pub mod crashpoint;
pub mod dirty;
pub mod fault_client;
pub mod github;
pub mod nytimes;
pub mod opendata;
pub mod param;
pub mod twitter;

pub use corpus::Corpus;
pub use crashpoint::Crashpoint;
pub use dirty::{dirty_ndjson, respelled, DirtyConfig, DirtyNdjson};
pub use param::{DialedGenerator, GeneratorConfig};
