//! # jsonx-mison
//!
//! A Mison-style structural-index parser (Li et al., *Mison: A Fast JSON
//! Parser for Data Analytics*, PVLDB 2017) plus a Fad.js-style speculative
//! decoder (Bonetta & Brantner, PVLDB 2017) — the two §4.2 parsing systems
//! the tutorial surveys.
//!
//! ## Role in the workspace
//!
//! It is the **paper reproduction** of §4.2, where Mison's pipeline is
//! rebuilt stage by stage so each stage can be measured in isolation
//! (E9, E10, A1). [`ProjectedParser`], whose dotted paths reach into
//! nested records, is also the oracle `jsonx project` is tested against:
//! the command itself selects its paths from each record's document on
//! the engine (`jsonx::documents::ProjectFold`), so one decoder judges
//! every line. No stage of the engine projects any more: `validate`,
//! `infer` and `translate` each walk a record's events, verified per
//! record. Stage 1 (the bitmap builder) was promoted to
//! `jsonx_syntax::structural`, whose fused structural scanner absorbs
//! the *ideas* of the leveled index and pattern-tree speculation
//! (skip-scanning, verified speculation) rather than their code; the
//! benchmark harness measures it as a layer, and the index here builds
//! on the same bitmaps.
//!
//! The Mison pipeline, reproduced stage by stage:
//!
//! 1. **Word-parallel bitmap construction** (promoted to
//!    [`jsonx_syntax::structural`]): one `u64` lane per 64 input bytes;
//!    quote/colon/comma/brace bitmaps, backslash-aware unescaped-quote
//!    detection, and the carry-propagating prefix-XOR string mask. (The
//!    paper uses AVX + PCLMULQDQ; the identical algorithms run here on
//!    portable 64-bit words — same structure, 64 lanes per operation.)
//! 2. **Leveled structural index** ([`index`]): colon and comma positions
//!    bucketed by nesting level, built only to the depth the query needs.
//! 3. **Projection pushdown** ([`project`]): parse *only* the requested
//!    (possibly dotted) fields, skipping everything else byte-free.
//! 4. **Speculation** ([`pattern`], [`speculative`]): pattern trees
//!    remember at which physical colon a field usually lives, so stable
//!    collections skip even the key comparisons; misses deoptimise to the
//!    index scan, Fad.js-style.
//!
//! ```
//! use jsonx_mison::project::ProjectedParser;
//!
//! let doc = br#"{"id": 7, "user": {"name": "ada", "bio": "..."}, "huge": [1,2,3]}"#;
//! let parser = ProjectedParser::new(&["id", "user.name"]).unwrap();
//! let out = parser.parse(doc).unwrap();
//! assert_eq!(out.get("id").unwrap().as_i64(), Some(7));
//! assert_eq!(out.get("user").unwrap().get("name").unwrap().as_str(), Some("ada"));
//! assert!(out.get("huge").is_none()); // never parsed
//! ```

pub mod encoder;
pub mod index;
pub mod pattern;
pub mod project;
pub mod speculative;

pub use encoder::{EncoderStats, SpeculativeEncoder};
pub use index::StructuralIndex;
pub use pattern::PatternTree;
pub use project::ProjectedParser;
pub use speculative::{SpeculativeDecoder, SpeculativeStats};
