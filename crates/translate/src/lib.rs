//! # jsonx-translate
//!
//! §5 of the tutorial ("Schema-Based Data Translation") as a working
//! system: "while JSON is very frequently used for exchanging and
//! publishing data, it is hardly used as internal data format in Big Data
//! management tools, that, instead, usually rely on formats like Avro and
//! Parquet. When input datasets are heterogeneous, schemas can improve the
//! efficiency and the effectiveness of data format conversion."
//!
//! Three translation targets, all driven by the inferred types of
//! `jsonx-core`:
//!
//! * [`columnar`] — Arrow/Parquet-flavoured column batches: records are
//!   shredded into typed columns with validity bitmaps; the schema decides
//!   the column layout up front (the *schema-aware* path E11 measures
//!   against schema-blind discovery, [`columnar::discover`]).
//! * [`avro`] — an Avro-flavoured binary row format: zig-zag varints,
//!   length-prefixed strings, union branch indices — encoded and decoded
//!   against a writer schema derived from the inferred type.
//! * [`relational`] — DiScala & Abadi-style normalization (§4.1 \[16\]):
//!   nested documents become flat relations, arrays of records become
//!   child tables with foreign keys, and functional dependencies split
//!   out dimension tables.
//!
//! [`jxc`] closes the loop from translation to storage: `.jxc`, a binary
//! columnar *file* format for [`columnar::ColumnarBatch`] —
//! dictionary-encoded strings, validity bitmaps, nested-list offset
//! arrays, schema footer — written straight from a translation's chunk
//! batches ([`write_jxc_parts`]).

pub mod avro;
pub mod columnar;
pub mod jxc;
pub mod relational;

pub use avro::{AvroCodec, AvroError, AvroField, AvroSchema};
pub use columnar::{
    discover, lifts, Bitmap, ColumnData, ColumnarBatch, Fallback, ShredError, ShredStream,
    Shredder, StrArena,
};
pub use jxc::{
    flatten_rows, footer_crc, read_jxc, read_jxc_file, read_jxc_file_head, read_jxc_head,
    render_rows, rows_as_values, write_jxc, write_jxc_file, write_jxc_parts, Encoding,
    JxcColumnInfo, JxcError, JxcFile,
};
pub use relational::{normalize, Relation};
