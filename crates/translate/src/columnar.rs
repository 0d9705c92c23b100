//! Columnar shredding (Arrow/Parquet-flavoured).
//!
//! A [`Shredder`] turns a stream of JSON records into a [`ColumnarBatch`]:
//! one typed column per scalar leaf path, with a validity bitmap for
//! optional/null positions. Nested records flatten into dotted paths;
//! arrays and union-typed leaves spill into a JSON-text column (the same
//! escape hatch production columnar stores use for "variant" data).
//!
//! A shredder's layout is **schema-aware**: [`Shredder::from_type`] fixes
//! it up front from an inferred [`JType`], so each record dispatches
//! straight into pre-typed columns. E11 contrasts it with [`discover`],
//! **schema-blind** shredding: columns are discovered and retyped on the
//! fly while scanning, the way a schema-less converter must.
//!
//! ## Storage
//!
//! Columns hold no per-cell heap objects. String and spill columns are a
//! [`StrArena`] — every cell's bytes in one buffer plus one end offset
//! per cell — and validity (like dense booleans) is a [`Bitmap`], packed
//! LSB-first exactly as `.jxc` stores it, so the file codec moves whole
//! slices in both directions.
//!
//! ## One cell writer, two walkers
//!
//! A fixed layout compiles into a plan tree (key → column | sub-record
//! per nesting level). Two walkers resolve a record's keys against it
//! and hand every cell to the same builder function, which owns the
//! typing rules (a value that does not fit its column is a null; the
//! first write to a column in a row wins):
//!
//! * the **event walker** ([`ShredStream::push_record`]) shreds straight
//!   from a decoder's [`RawEvent`]s — no DOM, no per-field allocation;
//! * the **value walker** ([`ShredStream::push`]) shreds a parsed
//!   [`Value`].
//!
//! The event route is a speculation verified per record (§4.2 of the
//! paper): whenever it cannot prove its row equals the value walker's —
//! a key seen twice in one object, a column written twice, a non-object
//! root — it rolls the row back and replays the record through the
//! decoder's DOM route and [`ShredStream::push`], and says so in what it
//! returns. A record the decoder rejects is rolled back, not replayed.
//!
//! ## A layout taught by a sample
//!
//! A layout planned from the type of *some* of a collection's records is
//! the whole collection's as long as every other record **fits** that
//! type — adds nothing to it that [`Shredder::from_type`] reads: no new
//! key where it flattens, no value a column's slot cannot hold, nothing
//! but `null` where only `null` had been seen.
//! [`ShredStream::push_fitting`] shreds a record only if it fits, with
//! the same walk that shreds it; [`lifts`] says whether batches shredded
//! under the layout of a type are, null-filled ([`Shredder::lift`]),
//! batches under the layout of a wider one.

use jsonx_core::{JType, RecordType};
use jsonx_data::{write_escaped, Number, Value};
use jsonx_syntax::{
    parse_events, EventReceiver, ParseError, ParserOptions, RawEvent, RecordDecoder,
};
use std::collections::HashMap;
use std::fmt::{self, Write as _};

// ---------------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------------

/// A packed, LSB-first bit sequence: bit `i` is `bytes[i / 8] >> (i % 8)`.
/// The representation of validity and of dense boolean values — byte for
/// byte what a `.jxc` block stores.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    /// `len.div_ceil(8)` bytes. Bits at and past `len` are zero, so the
    /// derived equality is logical equality.
    bytes: Vec<u8>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// An empty bitmap with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Bitmap {
        Bitmap {
            bytes: Vec::with_capacity(bits.div_ceil(8)),
            len: 0,
        }
    }

    /// The first `len` bits of `bytes`; `None` when `bytes` is too short.
    /// Set bits past `len` in the last byte are dropped.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Option<Bitmap> {
        let mut bytes = bytes.get(..len.div_ceil(8))?.to_vec();
        if !len.is_multiple_of(8) {
            *bytes.last_mut()? &= (1u8 << (len % 8)) - 1;
        }
        Some(Bitmap { bytes, len })
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        self.bytes[i / 8] & (1 << (i % 8)) != 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[self.len / 8] |= 1 << (self.len % 8);
        }
        self.len += 1;
    }

    /// The bits in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.bytes[i / 8] & (1 << (i % 8)) != 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bytes.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Number of set bits before position `i` — the dense index of row
    /// `i`'s value in a column whose validity this is.
    pub fn rank(&self, i: usize) -> usize {
        assert!(i <= self.len, "bit {i} out of range (len {})", self.len);
        let whole: usize = self.bytes[..i / 8]
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum();
        match i % 8 {
            0 => whole,
            rest => whole + (self.bytes[i / 8] & ((1u8 << rest) - 1)).count_ones() as usize,
        }
    }

    /// The packed bytes (`len.div_ceil(8)` of them, unused high bits of
    /// the last one zero).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Appends all of `other`'s bits.
    pub fn extend_from(&mut self, other: &Bitmap) {
        other.append_to(&mut self.bytes, self.len);
        self.len += other.len;
    }

    /// Appends these bits to the `len`-bit packed bitmap that ends `out`
    /// — a `.jxc` block continues one across parts this way.
    pub(crate) fn append_to(&self, out: &mut Vec<u8>, len: usize) {
        let start = out.len() - len.div_ceil(8);
        let shift = len % 8;
        if shift == 0 {
            out.extend_from_slice(&self.bytes);
        } else {
            // Each incoming byte straddles two of ours.
            for &b in &self.bytes {
                *out.last_mut().expect("shift != 0 implies a byte") |= b << shift;
                out.push(b >> (8 - shift));
            }
        }
        out.truncate(start + (len + self.len).div_ceil(8));
    }

    /// Grows to `len` bits with zeros (no-op when already that long).
    fn pad_to(&mut self, len: usize) {
        if len > self.len {
            self.bytes.resize(len.div_ceil(8), 0);
            self.len = len;
        }
    }

    /// Shrinks to `len` bits (no-op when already that short).
    fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.bytes.truncate(len.div_ceil(8));
            if !len.is_multiple_of(8) {
                self.bytes[len / 8] &= (1u8 << (len % 8)) - 1;
            }
            self.len = len;
        }
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Bitmap {
        let mut out = Bitmap::new();
        for bit in iter {
            out.push(bit);
        }
        out
    }
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A sequence of strings in one allocation: every cell's bytes
/// concatenated, plus each cell's end offset. Offsets are `usize`, so
/// they cannot wrap however large a column grows.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct StrArena {
    bytes: String,
    /// `ends[i]` is where cell `i` ends in `bytes`; it starts where cell
    /// `i - 1` ended (cell 0 at offset 0).
    ends: Vec<usize>,
}

impl StrArena {
    /// An empty arena.
    pub fn new() -> StrArena {
        StrArena::default()
    }

    /// An empty arena with room for `cells` strings totalling `bytes`.
    pub fn with_capacity(cells: usize, bytes: usize) -> StrArena {
        StrArena {
            bytes: String::with_capacity(bytes),
            ends: Vec::with_capacity(cells),
        }
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there are no strings.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total bytes of all strings.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// String `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len`.
    pub fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// The strings in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let s = &self.bytes[start..end];
            start = end;
            s
        })
    }

    /// Appends one string.
    pub fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.ends.push(self.bytes.len());
    }

    /// Appends one string written by `write` straight into the arena.
    pub fn push_with(&mut self, write: impl FnOnce(&mut String)) {
        write(&mut self.bytes);
        self.ends.push(self.bytes.len());
    }

    /// Appends all of `other`'s strings.
    pub fn extend_from(&mut self, other: &StrArena) {
        let base = self.bytes.len();
        self.bytes.push_str(&other.bytes);
        self.ends.extend(other.ends.iter().map(|end| base + end));
    }

    /// Shrinks to the first `cells` strings (no-op when already that
    /// short).
    pub fn truncate(&mut self, cells: usize) {
        if cells < self.ends.len() {
            self.bytes
                .truncate(if cells == 0 { 0 } else { self.ends[cells - 1] });
            self.ends.truncate(cells);
        }
    }
}

impl<'a> FromIterator<&'a str> for StrArena {
    fn from_iter<I: IntoIterator<Item = &'a str>>(iter: I) -> StrArena {
        let mut out = StrArena::new();
        for s in iter {
            out.push(s);
        }
        out
    }
}

impl fmt::Debug for StrArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A typed column's storage: one dense entry per *valid* row.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Bools(Bitmap),
    Ints(Vec<i64>),
    Floats(Vec<f64>),
    Strs(StrArena),
    /// Spill column: compact JSON text (arrays, nested unions, mixed types).
    Json(StrArena),
}

impl ColumnData {
    /// Number of dense values.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bools(v) => v.len(),
            ColumnData::Ints(v) => v.len(),
            ColumnData::Floats(v) => v.len(),
            ColumnData::Strs(v) | ColumnData::Json(v) => v.len(),
        }
    }

    /// True when no row has a value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage type name (`bool`, `int64`, `float64`, `utf8`, `json`).
    pub fn type_name(&self) -> &'static str {
        match self {
            ColumnData::Bools(_) => "bool",
            ColumnData::Ints(_) => "int64",
            ColumnData::Floats(_) => "float64",
            ColumnData::Strs(_) => "utf8",
            ColumnData::Json(_) => "json",
        }
    }

    fn truncate(&mut self, len: usize) {
        match self {
            ColumnData::Bools(v) => v.truncate(len),
            ColumnData::Ints(v) => v.truncate(len),
            ColumnData::Floats(v) => v.truncate(len),
            ColumnData::Strs(v) | ColumnData::Json(v) => v.truncate(len),
        }
    }
}

/// One column: dotted leaf path, values, validity.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Dotted path from the record root (e.g. `user.name`).
    pub path: String,
    /// Dense values (one slot per *valid* row position).
    pub data: ColumnData,
    /// Bit `row` — the row has a value in this column.
    pub validity: Bitmap,
}

/// A batch of shredded records.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBatch {
    /// Columns in layout order.
    pub columns: Vec<Column>,
    /// Number of records shredded.
    pub rows: usize,
}

impl ColumnarBatch {
    /// Column lookup by path.
    pub fn column(&self, path: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.path == path)
    }

    /// A schema line for reports: `path:type` pairs.
    pub fn schema_string(&self) -> String {
        self.columns
            .iter()
            .map(|c| format!("{}:{}", c.path, c.data.type_name()))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Appends another batch row-wise. Both batches must come from the
    /// same fixed layout (the shard-merge case: per-shard batches built by
    /// one [`Shredder`], fused in shard order), so column paths and
    /// storage types line up position by position.
    ///
    /// The result is identical to shredding the concatenated record
    /// sequence in one pass: every cell write is per-row independent.
    ///
    /// # Panics
    ///
    /// Panics when the layouts disagree (different column count, path or
    /// storage type) — that is a caller bug, not a data error.
    pub fn append(&mut self, other: ColumnarBatch) {
        assert_eq!(
            self.columns.len(),
            other.columns.len(),
            "ColumnarBatch::append: column count mismatch"
        );
        for (a, b) in self.columns.iter_mut().zip(other.columns) {
            assert_eq!(a.path, b.path, "ColumnarBatch::append: path mismatch");
            a.validity.extend_from(&b.validity);
            match (&mut a.data, b.data) {
                (ColumnData::Bools(x), ColumnData::Bools(y)) => x.extend_from(&y),
                (ColumnData::Ints(x), ColumnData::Ints(y)) => x.extend(y),
                (ColumnData::Floats(x), ColumnData::Floats(y)) => x.extend(y),
                (ColumnData::Strs(x), ColumnData::Strs(y))
                | (ColumnData::Json(x), ColumnData::Json(y)) => x.extend_from(&y),
                (a_data, b_data) => panic!(
                    "ColumnarBatch::append: storage mismatch at {} ({} vs {})",
                    a.path,
                    a_data.type_name(),
                    b_data.type_name()
                ),
            }
        }
        self.rows += other.rows;
    }
}

/// Shredding errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ShredError {
    /// A record was not a JSON object.
    NotARecord { row: usize },
    /// A record did not decode ([`ShredStream::push_record`] only).
    Parse(ParseError),
}

impl fmt::Display for ShredError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShredError::NotARecord { row } => write!(f, "row {row} is not an object"),
            ShredError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShredError {}

/// Internal column type tags for layout planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Bool,
    Int,
    Float,
    Str,
    Json,
    /// A `json` column planned where only `null` has been seen: no other
    /// value fits it.
    Null,
}

impl Slot {
    /// Empty storage with room for `dense` values totalling `bytes`.
    fn storage(self, dense: usize, bytes: usize) -> ColumnData {
        match self {
            Slot::Bool => ColumnData::Bools(Bitmap::with_capacity(dense)),
            Slot::Int => ColumnData::Ints(Vec::with_capacity(dense)),
            Slot::Float => ColumnData::Floats(Vec::with_capacity(dense)),
            Slot::Str => ColumnData::Strs(StrArena::with_capacity(dense, bytes)),
            Slot::Json | Slot::Null => ColumnData::Json(StrArena::with_capacity(dense, bytes)),
        }
    }
}

/// What [`plan`] reads off a type — everything shredding under it
/// depends on.
#[derive(Debug, Clone, Default, PartialEq)]
struct Planned {
    /// (path, slot type); columns in order, one per path.
    layout: Vec<(String, Slot)>,
    /// Paths of record-typed fields that have no field of their own yet:
    /// no column, but an object there flattens (to nothing).
    hollow: Vec<String>,
    /// A field name holds a `.`: two fields may flatten to one path, and
    /// a path no longer says which field it came from.
    dotted: bool,
}

// ---------------------------------------------------------------------------
// The plan tree
// ---------------------------------------------------------------------------

/// One level of a fixed layout: what a key at this nesting level means.
#[derive(Debug, Clone)]
struct PlanNode {
    /// The dotted segment that names this node under its parent.
    name: Box<str>,
    /// The parent's index in [`Plan::nodes`] (`usize::MAX` for the root).
    parent: usize,
    /// The column a value under this key lands in, unless it is an
    /// object and the node has children.
    column: Option<usize>,
    /// The sub-record's keys as node indices, sorted by name. Non-empty
    /// means an object value here flattens further.
    children: Vec<usize>,
}

impl PlanNode {
    /// Whether an object value here is flattened, not stored: the field
    /// is record-typed, with fields (children) or as yet without (no
    /// column either).
    fn flattens(&self) -> bool {
        !self.children.is_empty() || self.column.is_none()
    }
}

/// A fixed layout's paths as a trie over their dotted segments, built
/// once per [`Shredder`], so the walkers resolve a key with one lookup
/// per nesting level instead of building and hashing a dotted path per
/// field. Node 0 is the record root.
#[derive(Debug, Clone)]
struct Plan {
    nodes: Vec<PlanNode>,
    /// Whether a record's walk can tell that the record *fits* the type
    /// the layout was planned from: the type is a record's, and no field
    /// name holds a `.` — so every node is one field, a node with a
    /// column is a scalar or spilled field, and a node without one is a
    /// record-typed field.
    verifiable: bool,
}

impl Plan {
    fn from_layout(planned: &Planned, verifiable: bool) -> Plan {
        let root = PlanNode {
            name: "".into(),
            parent: usize::MAX,
            column: None,
            children: Vec::new(),
        };
        let mut plan = Plan {
            nodes: vec![root],
            verifiable: verifiable && !planned.dotted,
        };
        for (column, (path, _)) in planned.layout.iter().enumerate() {
            // [`plan`] gives each path one column, so no node is named
            // twice.
            let node = plan.path_or_insert(path);
            plan.nodes[node].column = Some(column);
        }
        for path in &planned.hollow {
            plan.path_or_insert(path);
        }
        plan
    }

    fn path_or_insert(&mut self, path: &str) -> usize {
        path.split('.')
            .fold(0, |node, segment| self.child_or_insert(node, segment))
    }

    fn position(&self, node: usize, segment: &str) -> Result<usize, usize> {
        self.nodes[node]
            .children
            .binary_search_by(|&child| (*self.nodes[child].name).cmp(segment))
    }

    fn child_or_insert(&mut self, node: usize, segment: &str) -> usize {
        match self.position(node, segment) {
            Ok(at) => self.nodes[node].children[at],
            Err(at) => {
                let child = self.nodes.len();
                self.nodes.push(PlanNode {
                    name: segment.into(),
                    parent: node,
                    column: None,
                    children: Vec::new(),
                });
                self.nodes[node].children.insert(at, child);
                child
            }
        }
    }

    /// The node `key` names under `node`. A key is matched segment by
    /// dotted segment, so a literal `"a.b"` key aliases the nested path
    /// `a.b` — in a layout, both are the one string `a.b`.
    fn resolve(&self, node: usize, key: &str) -> Option<usize> {
        key.split('.').try_fold(node, |node, segment| {
            let at = self.position(node, segment).ok()?;
            Some(self.nodes[node].children[at])
        })
    }
}

/// A speculation on key order: the records of one collection tend to
/// list their fields in one order, so the key that followed a key last
/// time is the first guess for what follows it now. A right guess costs
/// one string comparison; a wrong one falls back to [`Plan::resolve`]
/// and is corrected, so the answer never depends on the guess.
#[derive(Debug)]
struct KeyOrder {
    /// Per plan node: the child that came first in the last object there.
    first: Vec<usize>,
    /// Per plan node: the node resolved right after it last time.
    next: Vec<usize>,
}

impl KeyOrder {
    fn new(plan: &Plan) -> KeyOrder {
        // Node 0 is nobody's child, so it is the guess that always misses.
        KeyOrder {
            first: vec![0; plan.nodes.len()],
            next: vec![0; plan.nodes.len()],
        }
    }

    /// [`Plan::resolve`], trying the remembered successor of `prev` — the
    /// node the object's previous resolved key named, 0 before the first.
    fn resolve(&mut self, plan: &Plan, node: usize, prev: &mut usize, key: &str) -> Option<usize> {
        let guess = match *prev {
            0 => &mut self.first[node],
            prev => &mut self.next[prev],
        };
        let guessed = &plan.nodes[*guess];
        if guessed.parent != node || *guessed.name != *key {
            *guess = plan.resolve(node, key)?;
        }
        *prev = *guess;
        Some(*guess)
    }
}

/// The shredder: a fixed column layout, planned from a type.
#[derive(Debug, Clone)]
pub struct Shredder {
    /// Layout: (path, slot type); columns in order.
    layout: Vec<(String, Slot)>,
    /// The layout's plan tree.
    plan: Plan,
    /// Top-level field names of the planned record type. `None` when the
    /// plan was not built from a record type.
    root_fields: Option<Vec<String>>,
}

impl Shredder {
    /// Schema-aware construction: derive the column layout from an
    /// inferred type (records flatten; arrays/unions become spill columns).
    pub fn from_type(ty: &JType) -> Shredder {
        let mut planned = Planned::default();
        plan(ty, String::new(), &mut planned);
        let root_fields = match ty {
            JType::Record(rt) => Some(rt.fields.iter().map(|(name, _)| name.to_string()).collect()),
            _ => None,
        };
        Shredder {
            plan: Plan::from_layout(&planned, root_fields.is_some()),
            layout: planned.layout,
            root_fields,
        }
    }

    /// The top-level field names this plan reads from each record, or
    /// `None` when the plan requires whole records (a non-record type).
    /// Every column path's first dotted segment is one of these names, so
    /// a caller that parses only these fields shreds identically —
    /// provided skipped records with literal dotted root keys are routed
    /// to the full parser (they could alias a nested column path).
    ///
    /// No stage of the product projects: translation shreds each record
    /// from its events, and the walker skips the root keys the layout
    /// lacks by itself. Only the benchmark harness's per-layer pass
    /// (`benchmark/src/layers.rs`), which measures a projecting scan,
    /// reads this.
    pub fn root_fields(&self) -> Option<&[String]> {
        self.root_fields.as_deref()
    }

    /// Shreds a collection into one batch: one batch-sized
    /// [`ShredStream`], the code path the streaming stage runs record by
    /// record.
    pub fn shred(&self, docs: &[Value]) -> Result<ColumnarBatch, ShredError> {
        let mut stream = self.stream();
        for doc in docs {
            stream.push(doc)?;
        }
        Ok(stream.finish())
    }

    /// Begins incremental shredding: records are pushed one at a time
    /// and finished into a batch. This is the entry point the streaming
    /// translation stage uses — each worker owns one `ShredStream`, and
    /// the per-chunk batches concatenate with [`ColumnarBatch::append`].
    pub fn stream(&self) -> ShredStream<'_> {
        ShredStream {
            shredder: self,
            builders: self.builders(),
            rows: 0,
            order: KeyOrder::new(&self.plan),
            frames: Vec::new(),
            stamps: vec![0; self.plan.nodes.len()],
            serial: 0,
            spill: SpillText::default(),
        }
    }

    /// Re-lays `batch` — shredded under the layout of a type this
    /// shredder's type [`lifts`] — into this layout: a column both
    /// layouts have moves over, every other is all null.
    pub fn lift(&self, batch: ColumnarBatch) -> ColumnarBatch {
        let rows = batch.rows;
        let mut had: HashMap<String, (ColumnData, Bitmap)> = batch
            .columns
            .into_iter()
            .map(|c| (c.path, (c.data, c.validity)))
            .collect();
        let columns = self
            .layout
            .iter()
            .map(|(path, slot)| {
                let fresh = slot.storage(0, 0);
                match had.remove(path) {
                    Some((data, validity)) if data.type_name() == fresh.type_name() => Column {
                        path: path.clone(),
                        data,
                        validity,
                    },
                    // New here, or a column nothing but a null fit.
                    other => {
                        debug_assert!(other.is_none_or(|(data, _)| data.is_empty()));
                        let mut validity = Bitmap::new();
                        validity.pad_to(rows);
                        Column {
                            path: path.clone(),
                            data: fresh,
                            validity,
                        }
                    }
                }
            })
            .collect();
        ColumnarBatch { columns, rows }
    }

    fn builders(&self) -> Vec<TypedBuilder> {
        self.layout
            .iter()
            .map(|(_, slot)| TypedBuilder::new(*slot))
            .collect()
    }
}

/// Schema-blind shredding — what a converter with no schema must do,
/// and the baseline E11 measures [`Shredder::from_type`] against: columns
/// are discovered and retyped on the fly while scanning, so every cell is
/// buffered as a generic value until the collection's layout is known.
pub fn discover(docs: &[Value]) -> Result<ColumnarBatch, ShredError> {
    Discovery::default().shred(docs)
}

/// [`discover`]'s growing layout.
#[derive(Default)]
struct Discovery {
    /// Layout: (path, slot type); columns in order of discovery.
    layout: Vec<(String, Slot)>,
    /// path → layout index.
    by_path: HashMap<String, usize>,
}

impl Discovery {
    /// Generic cell buffering with on-the-fly layout growth and
    /// retyping.
    fn shred(&mut self, docs: &[Value]) -> Result<ColumnarBatch, ShredError> {
        // Cell buffer: per column, per row, an optional scalar.
        let mut cells: Vec<Vec<Option<Value>>> = vec![Vec::new(); self.layout.len()];
        for (row, doc) in docs.iter().enumerate() {
            let obj = doc.as_object().ok_or(ShredError::NotARecord { row })?;
            let mut seen = vec![false; self.layout.len()];
            self.shred_record(obj, String::new(), row, &mut cells, &mut seen);
            // Pad unseen columns for this row.
            for (i, seen) in seen.iter().enumerate() {
                if !seen {
                    pad_to(&mut cells[i], row + 1);
                }
            }
            for column in &mut cells {
                pad_to(column, row + 1);
            }
        }
        // Materialise typed storage through the one cell writer.
        let columns = self
            .layout
            .iter()
            .zip(&cells)
            .map(|((path, slot), column_cells)| {
                let mut builder = TypedBuilder::new(*slot);
                for (row, cell) in column_cells.iter().enumerate() {
                    if let Some(value) = cell {
                        builder.cell(row, Cell::of(value));
                    }
                }
                builder.finish(path, docs.len())
            })
            .collect();
        Ok(ColumnarBatch {
            columns,
            rows: docs.len(),
        })
    }

    fn shred_record(
        &mut self,
        obj: &jsonx_data::Object,
        prefix: String,
        row: usize,
        cells: &mut Vec<Vec<Option<Value>>>,
        seen: &mut Vec<bool>,
    ) {
        for (key, value) in obj.iter() {
            let path = if prefix.is_empty() {
                key.to_string()
            } else {
                format!("{prefix}.{key}")
            };
            match value {
                // Schema-blind mode flattens every nested record.
                Value::Obj(inner) => self.shred_record(inner, path, row, cells, seen),
                other => self.write_cell(&path, other, row, cells, seen),
            }
        }
    }

    /// Buffers one cell, growing or retyping the discovered layout.
    fn write_cell(
        &mut self,
        path: &str,
        value: &Value,
        row: usize,
        cells: &mut Vec<Vec<Option<Value>>>,
        seen: &mut Vec<bool>,
    ) {
        let idx = match self.by_path.get(path) {
            Some(&i) => i,
            None => {
                let slot = slot_of(value);
                self.layout.push((path.to_string(), slot));
                self.by_path.insert(path.to_string(), self.layout.len() - 1);
                cells.push(Vec::new());
                seen.push(false);
                self.layout.len() - 1
            }
        };
        // Retype the column when observations conflict (the cost of
        // schema-blind conversion: every value re-checks the slot).
        let slot = self.layout[idx].1;
        let incoming = slot_of(value);
        if slot != incoming && !value.is_null() {
            self.layout[idx].1 = widen(slot, incoming);
        }
        if cells[idx].len() > row {
            // A flattened path collided with a literal dotted key
            // (e.g. `{"a.b": 1}` vs `{"a": {"b": 1}}`): first write wins.
            return;
        }
        pad_to(&mut cells[idx], row);
        cells[idx].push(Some(value.clone()));
        if let Some(s) = seen.get_mut(idx) {
            *s = true;
        }
    }
}

// ---------------------------------------------------------------------------
// Incremental shredding: the cell writer and its two walkers
// ---------------------------------------------------------------------------

/// Why [`ShredStream::push_record`] gave up shredding a record from its
/// events and replayed it through the DOM route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// A key naming a planned field occurred twice in one object (the
    /// DOM keeps the last value in the first position).
    DuplicateKey,
    /// Two keys flattened to one column (a literal dotted key next to
    /// the nested path it spells; the first write wins).
    PathCollision,
    /// The record's root is not an object (the replay rejects it, so
    /// this reason is never returned).
    NotARecord,
    /// The record does not fit the type the layout was planned from
    /// ([`ShredStream::push_fitting`] only, which replays nothing).
    Misfit,
}

impl Fallback {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Fallback::DuplicateKey => "duplicate-key",
            Fallback::PathCollision => "path-collision",
            Fallback::NotARecord => "not-a-record",
            Fallback::Misfit => "misfit",
        }
    }
}

/// Incremental schema-aware shredding over a fixed layout.
///
/// Created by [`Shredder::stream`]; push records with
/// [`push_record`](Self::push_record) (undecoded) or
/// [`push`](Self::push) (parsed) and materialise the batch with
/// [`finish`](Self::finish). `shred` over the same records produces an
/// identical batch — pushing is per-row independent.
pub struct ShredStream<'s> {
    shredder: &'s Shredder,
    builders: Vec<TypedBuilder>,
    rows: usize,
    order: KeyOrder,
    /// The event walker's open record frames.
    frames: Vec<Frame>,
    /// Per plan node, the serial of the last frame in which a key
    /// resolved to it — a key seen twice in one frame is a duplicate.
    /// Serials only grow, so nothing is cleared between rows.
    stamps: Vec<u64>,
    serial: u64,
    /// The text of the spill subtree the event walker is inside.
    spill: SpillText,
}

impl fmt::Debug for ShredStream<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShredStream")
            .field("rows", &self.rows)
            .field("builders", &self.builders)
            .finish_non_exhaustive()
    }
}

impl ShredStream<'_> {
    /// Shreds one parsed record into the stream's columns. The error's
    /// `row` is this stream's local row index (records pushed so far).
    pub fn push(&mut self, doc: &Value) -> Result<(), ShredError> {
        let obj = doc
            .as_object()
            .ok_or(ShredError::NotARecord { row: self.rows })?;
        let mut walker = ValueWalker {
            plan: &self.shredder.plan,
            order: &mut self.order,
            builders: &mut self.builders,
            row: self.rows,
        };
        walker.object(0, obj);
        self.rows += 1;
        Ok(())
    }

    /// Shreds one undecoded record straight from `decoder`'s events,
    /// building no document. A record the decoder rejects is rolled back
    /// and the decoder's error returned. When the event walk cannot
    /// vouch for its row (see [`Fallback`]) the row is rolled back and
    /// the record replayed through [`RecordDecoder::decode_value`] and
    /// [`push`](Self::push), so the columns are always the DOM route's.
    /// Returns the route the row took: `None` for one shredded from its
    /// events, the reason for one that was replayed.
    pub fn push_record<D: RecordDecoder>(
        &mut self,
        decoder: &D,
        scratch: &mut D::Scratch,
        record: &str,
    ) -> Result<Option<Fallback>, ShredError> {
        match self.walk(decoder, scratch, record, false) {
            (Ok(()), None) => {
                self.rows += 1;
                Ok(None)
            }
            (Err(e), _) => {
                self.abort_row();
                Err(ShredError::Parse(e))
            }
            (Ok(()), Some(why)) => {
                self.abort_row();
                let doc = decoder
                    .decode_value(scratch, record)
                    .map_err(ShredError::Parse)?;
                self.push(&doc)?;
                Ok(Some(why))
            }
        }
    }

    /// [`push_record`](Self::push_record) for a layout planned from the
    /// type of *other* records: shreds `record` from its events only if it
    /// **fits** that type — fusing the record's type into it would leave
    /// the layout as it is. `Ok(true)`: it fits, and its row is the one
    /// the layout of the fused type gives. `Ok(false)`: no row; the
    /// record
    ///
    /// * has a key, at a level the layout flattens, that the type has no
    ///   field for, or that holds a `.`;
    /// * puts a non-null value where a column's slot cannot hold it (a
    ///   fraction in an `int64` column, a number in a `utf8` one, …; an
    ///   integer in a `float64` column fits), an array or object where
    ///   the layout has a scalar column, or anything but an object or
    ///   `null` where it flattens;
    /// * puts anything but `null` where the type has only seen `null`;
    /// * is one the walk cannot vouch for (a [`Fallback`] bail), or has
    ///   no object at its root;
    ///
    /// or the layout's type is no record's, or has a dotted field name,
    /// and the walk cannot tell. Fitting is monotone: what fits a type
    /// fits every fusion of that type with others. `Err`: the decoder
    /// rejected the record; no row.
    pub fn push_fitting<D: RecordDecoder>(
        &mut self,
        decoder: &D,
        scratch: &mut D::Scratch,
        record: &str,
    ) -> Result<bool, ParseError> {
        if !self.shredder.plan.verifiable {
            return Ok(false);
        }
        let settled = match self.walk(decoder, scratch, record, true) {
            (Ok(()), None) => {
                self.rows += 1;
                return Ok(true);
            }
            (Ok(()), Some(_)) => Ok(false),
            (Err(e), _) => Err(e),
        };
        self.abort_row();
        settled
    }

    /// Walks `record`'s events into the current row: what the decoder
    /// made of the record, and why the walk gave up on it, if it did.
    fn walk<D: RecordDecoder>(
        &mut self,
        decoder: &D,
        scratch: &mut D::Scratch,
        record: &str,
        verify: bool,
    ) -> (Result<(), ParseError>, Option<Fallback>) {
        let mut walker = EventWalker {
            plan: &self.shredder.plan,
            order: &mut self.order,
            builders: &mut self.builders,
            row: self.rows,
            frames: &mut self.frames,
            stamps: &mut self.stamps,
            serial: &mut self.serial,
            spill: &mut self.spill,
            target: None,
            mode: Mode::Root,
            verify,
            bail: None,
        };
        let decoded = decoder.decode_events(scratch, record, &mut walker);
        (decoded, walker.bail)
    }

    /// Rolls every builder back to the start of the current row and
    /// resets the event walker's per-record state.
    fn abort_row(&mut self) {
        for builder in &mut self.builders {
            builder.truncate_to_row(self.rows);
        }
        self.frames.clear();
        self.spill.clear();
    }

    /// Records pushed so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Materialises the batch, null-padding columns to the row count.
    pub fn finish(mut self) -> ColumnarBatch {
        self.take_batch()
    }

    /// Materialises the rows pushed so far and resets the stream to
    /// empty, keeping it usable for further pushes — the chunked pipeline
    /// extracts one batch per claimed chunk from a long-lived per-worker
    /// stream. `take_batch` then pushing more rows is equivalent to two
    /// separate streams: pushes are per-row independent.
    pub fn take_batch(&mut self) -> ColumnarBatch {
        let rows = std::mem::take(&mut self.rows);
        let builders = std::mem::replace(&mut self.builders, self.shredder.builders());
        let columns = self
            .shredder
            .layout
            .iter()
            .zip(builders)
            .map(|((path, _), b)| b.finish(path, rows))
            .collect();
        ColumnarBatch { columns, rows }
    }
}

/// One value offered to a column.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Null,
    Bool(bool),
    Num(Number),
    Str(&'a str),
    /// An array or object.
    Tree(&'a Value),
    /// An array or object, as the compact JSON text a spill column stores.
    Json(&'a str),
}

impl<'a> Cell<'a> {
    fn of(value: &'a Value) -> Cell<'a> {
        match value {
            Value::Null => Cell::Null,
            Value::Bool(b) => Cell::Bool(*b),
            Value::Num(n) => Cell::Num(*n),
            Value::Str(s) => Cell::Str(s),
            tree => Cell::Tree(tree),
        }
    }

    /// Appends the compact JSON text a spill column stores — always
    /// [`Value::to_json_string`]'s, so both walkers store the same bytes.
    fn write_json(self, out: &mut String) {
        match self {
            Cell::Null => out.push_str("null"),
            Cell::Bool(b) => out.push_str(if b { "true" } else { "false" }),
            Cell::Num(n) => write!(out, "{n}").expect("writing to a String"),
            Cell::Str(s) => write_escaped(s, out),
            Cell::Tree(tree) => out.push_str(&tree.to_json_string()),
            Cell::Json(text) => out.push_str(text),
        }
    }
}

/// What [`TypedBuilder::cell`] did with a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Written {
    /// Written as the layout of the fused type would have it: the value,
    /// or a null for a `null`.
    Fit,
    /// Written as a null: the column's slot cannot hold the value, so
    /// the value's type fused in would change the slot.
    Misfit,
    /// Not written: the column already has a cell for the row.
    Collision,
}

/// Direct typed column construction for the schema-aware path.
#[derive(Debug)]
struct TypedBuilder {
    data: ColumnData,
    validity: Bitmap,
    /// Planned where only `null` had been seen ([`Slot::Null`]).
    null_only: bool,
}

impl TypedBuilder {
    fn new(slot: Slot) -> TypedBuilder {
        TypedBuilder {
            data: slot.storage(0, 0),
            validity: Bitmap::new(),
            null_only: slot == Slot::Null,
        }
    }

    fn spills(&self) -> bool {
        matches!(self.data, ColumnData::Json(_))
    }

    /// The one place a cell enters a column: appends `cell` at `row`,
    /// null-padding skipped rows. A value that does not fit the column's
    /// type is a null — and, unless it is a `null`, a
    /// [misfit](Written::Misfit). Writes nothing when the column already
    /// has a cell — value or null — for `row` (a literal dotted key
    /// collided with the nested path it spells: first write wins).
    fn cell(&mut self, row: usize, cell: Cell<'_>) -> Written {
        if self.validity.len() > row {
            return Written::Collision;
        }
        self.validity.pad_to(row);
        let (valid, fits) = match (&mut self.data, cell) {
            (_, Cell::Null) => (false, true),
            (ColumnData::Bools(v), Cell::Bool(b)) => {
                v.push(b);
                (true, true)
            }
            (ColumnData::Ints(v), Cell::Num(n)) => match n.as_i64() {
                Some(i) => {
                    v.push(i);
                    (true, true)
                }
                // Typed `Int` all the same when it has no fraction
                // (`1e300`): no cell, and nothing new.
                None => (false, n.is_integer()),
            },
            (ColumnData::Floats(v), Cell::Num(n)) => {
                v.push(n.as_f64());
                (true, true)
            }
            (ColumnData::Strs(v), Cell::Str(s)) => {
                v.push(s);
                (true, true)
            }
            (ColumnData::Json(v), cell) => {
                v.push_with(|out| cell.write_json(out));
                (true, !self.null_only)
            }
            _ => (false, false),
        };
        self.validity.push(valid);
        if fits {
            Written::Fit
        } else {
            Written::Misfit
        }
    }

    /// Drops whatever was written at `row` and after (at most one cell:
    /// rows are written in order).
    fn truncate_to_row(&mut self, row: usize) {
        if self.validity.len() > row {
            self.data.truncate(self.validity.rank(row));
            self.validity.truncate(row);
        }
    }

    fn finish(mut self, path: &str, rows: usize) -> Column {
        self.validity.pad_to(rows);
        Column {
            path: path.to_string(),
            data: self.data,
            validity: self.validity,
        }
    }
}

/// The value walker: resolves a parsed record's keys against the plan
/// tree, descending where the layout flattens a sub-record.
struct ValueWalker<'a> {
    plan: &'a Plan,
    order: &'a mut KeyOrder,
    builders: &'a mut [TypedBuilder],
    row: usize,
}

impl ValueWalker<'_> {
    fn object(&mut self, node: usize, obj: &jsonx_data::Object) {
        let mut prev = 0;
        for (key, value) in obj.iter() {
            // Fields outside the planned layout are dropped.
            let Some(at) = self.order.resolve(self.plan, node, &mut prev, key) else {
                continue;
            };
            let target = &self.plan.nodes[at];
            match value {
                Value::Obj(inner) if !target.children.is_empty() => self.object(at, inner),
                other => {
                    if let Some(column) = target.column {
                        self.builders[column].cell(self.row, Cell::of(other));
                    }
                }
            }
        }
    }
}

/// One object the event walker is flattening.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The plan node its keys resolve against.
    node: usize,
    /// Unique per frame, see [`ShredStream::stamps`].
    serial: u64,
    /// The node its previous resolved key named (0: none yet).
    prev: usize,
}

/// What the event walker does with the events it is receiving.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// Before the record's first event.
    Root,
    /// Inside an object the layout flattens: keys resolve against the
    /// top frame's plan node.
    Record,
    /// Inside a value nothing reads, `depth` containers deep.
    Skip { depth: usize },
    /// Inside a spill column's array or object, `depth` containers deep.
    Spill { column: usize, depth: usize },
}

/// The event walker: the [`EventReceiver`] that shreds one record from
/// its events. It writes cells as they arrive and sets `bail` as soon as
/// it cannot vouch for the row; [`ShredStream::push_record`] then rolls
/// the row back.
struct EventWalker<'a> {
    plan: &'a Plan,
    order: &'a mut KeyOrder,
    builders: &'a mut [TypedBuilder],
    row: usize,
    frames: &'a mut Vec<Frame>,
    stamps: &'a mut [u64],
    serial: &'a mut u64,
    spill: &'a mut SpillText,
    /// The plan node the last key resolved to.
    target: Option<usize>,
    mode: Mode,
    /// Give up on a record that does not fit the layout's type
    /// ([`ShredStream::push_fitting`]); otherwise what does not fit is
    /// dropped or nulled, as the layout says.
    verify: bool,
    bail: Option<Fallback>,
}

impl EventWalker<'_> {
    fn open_frame(&mut self, node: usize) {
        *self.serial += 1;
        self.frames.push(Frame {
            node,
            serial: *self.serial,
            prev: 0,
        });
        self.mode = Mode::Record;
    }

    /// The record does not fit the layout's type here.
    fn misfit(&mut self) {
        if self.verify {
            self.bail = Some(Fallback::Misfit);
        }
    }

    fn write(&mut self, column: usize, cell: Cell<'_>) {
        let written = self.builders[column].cell(self.row, cell);
        self.settle(written);
    }

    fn settle(&mut self, written: Written) {
        match written {
            Written::Fit => {}
            Written::Misfit => self.misfit(),
            Written::Collision => self.bail = Some(Fallback::PathCollision),
        }
    }

    /// An event at key/value level of a flattened object.
    fn record_event(&mut self, ev: &RawEvent<'_>) {
        let cell = match ev {
            RawEvent::Key(key) => {
                let frame = self.frames.last_mut().expect("keys arrive inside a frame");
                self.target = self
                    .order
                    .resolve(self.plan, frame.node, &mut frame.prev, key);
                let known = match self.target {
                    Some(at) => {
                        if self.stamps[at] == frame.serial {
                            self.bail = Some(Fallback::DuplicateKey);
                        }
                        self.stamps[at] = frame.serial;
                        // One segment per level: a key that resolved
                        // further down spelled a dotted path.
                        self.plan.nodes[at].parent == frame.node
                    }
                    None => false,
                };
                if !known {
                    self.misfit();
                }
                return;
            }
            RawEvent::EndObject => {
                self.frames.pop();
                return;
            }
            RawEvent::EndArray => unreachable!("arrays are skipped or spilled whole"),
            RawEvent::StartObject | RawEvent::StartArray => None,
            RawEvent::Null => Some(Cell::Null),
            RawEvent::Bool(b) => Some(Cell::Bool(*b)),
            RawEvent::Num(n) => Some(Cell::Num(*n)),
            RawEvent::Str(s) => Some(Cell::Str(s)),
        };
        let target = self.target.take().map(|at| (at, &self.plan.nodes[at]));
        match (cell, target) {
            (Some(cell), Some((_, node))) => match node.column {
                Some(column) => self.write(column, cell),
                // Where the layout flattens a record, only a `null`
                // adds nothing.
                None if matches!(cell, Cell::Null) => {}
                None => self.misfit(),
            },
            (Some(_), None) => {}
            (None, Some((at, node))) if matches!(ev, RawEvent::StartObject) && node.flattens() => {
                self.open_frame(at);
            }
            (None, Some((_, node))) => match node.column {
                Some(column) if self.builders[column].spills() => {
                    self.spill.event(ev);
                    self.mode = Mode::Spill { column, depth: 1 };
                }
                column => {
                    // A container where the layout has a scalar column
                    // is a null, like any other ill-typed value; an
                    // array where it flattens is dropped.
                    self.misfit();
                    if let Some(column) = column {
                        self.write(column, Cell::Null);
                    }
                    self.mode = Mode::Skip { depth: 1 };
                }
            },
            (None, None) => self.mode = Mode::Skip { depth: 1 },
        }
    }
}

/// The compact JSON text of one spilled array or object, written from
/// its events with the serializer's own pieces — [`write_escaped`],
/// [`Number`]'s `Display`, a comma before every member but the first — so
/// it is [`Value::to_json_string`]'s text for any subtree in which no
/// object repeats a key.
#[derive(Debug, Default)]
pub(crate) struct SpillText {
    text: String,
    /// The open containers, innermost last.
    open: Vec<Open>,
    /// Where in `text` each key of each open object sits, quotes
    /// included, outermost object first.
    keys: Vec<(usize, usize)>,
}

#[derive(Debug)]
struct Open {
    /// A member or element has been written.
    filled: bool,
    /// An object's first entry in [`SpillText::keys`]; `None`: an array.
    keys_from: Option<usize>,
}

impl SpillText {
    fn clear(&mut self) {
        self.text.clear();
        self.open.clear();
        self.keys.clear();
    }

    /// The compact text of the JSON document `text` — what serializing
    /// its parse compactly writes — from its events; `None` when it does
    /// not parse, or an object in it repeats a key.
    pub(crate) fn compact(&mut self, text: &str) -> Option<&str> {
        struct Distinct<'s> {
            spill: &'s mut SpillText,
            keys: bool,
        }
        impl EventReceiver for Distinct<'_> {
            fn event(&mut self, ev: &RawEvent<'_>) {
                self.keys &= self.spill.event(ev);
            }
        }
        self.clear();
        let mut walk = Distinct {
            spill: self,
            keys: true,
        };
        parse_events(text.as_bytes(), ParserOptions::default(), &mut walk).ok()?;
        walk.keys.then_some(self.text.as_str())
    }

    /// Appends `ev`'s text. `false`: the object `ev` closes repeated a
    /// key — the document keeps its last value in its first position,
    /// which is not what has been written.
    fn event(&mut self, ev: &RawEvent<'_>) -> bool {
        let separate = |open: &mut Open, text: &mut String| {
            if std::mem::replace(&mut open.filled, true) {
                text.push(',');
            }
        };
        match ev {
            RawEvent::Key(key) => {
                let object = self.open.last_mut().expect("keys arrive inside an object");
                separate(object, &mut self.text);
                let start = self.text.len();
                write_escaped(key, &mut self.text);
                self.keys.push((start, self.text.len()));
                self.text.push(':');
                return true;
            }
            RawEvent::EndArray => {
                self.open.pop();
                self.text.push(']');
                return true;
            }
            RawEvent::EndObject => {
                let object = self.open.pop().expect("balanced events");
                let from = object.keys_from.expect("an object closes an object");
                let text = &self.text;
                let key = |&(start, end): &(usize, usize)| &text[start..end];
                // Escaping is one-to-one, so equal keys are equal texts.
                let keys = &mut self.keys[from..];
                keys.sort_unstable_by(|a, b| key(a).cmp(key(b)));
                let distinct = keys.windows(2).all(|pair| key(&pair[0]) != key(&pair[1]));
                self.keys.truncate(from);
                self.text.push('}');
                return distinct;
            }
            _ => {}
        }
        // A value: an array's element, or the member whose key (and
        // comma) came before it.
        if let Some(
            array @ Open {
                keys_from: None, ..
            },
        ) = self.open.last_mut()
        {
            separate(array, &mut self.text);
        }
        match ev {
            RawEvent::StartObject => {
                self.text.push('{');
                self.open.push(Open {
                    filled: false,
                    keys_from: Some(self.keys.len()),
                });
            }
            RawEvent::StartArray => {
                self.text.push('[');
                self.open.push(Open {
                    filled: false,
                    keys_from: None,
                });
            }
            RawEvent::Null => Cell::Null.write_json(&mut self.text),
            RawEvent::Bool(b) => Cell::Bool(*b).write_json(&mut self.text),
            RawEvent::Num(n) => Cell::Num(*n).write_json(&mut self.text),
            RawEvent::Str(s) => Cell::Str(s).write_json(&mut self.text),
            RawEvent::Key(_) | RawEvent::EndObject | RawEvent::EndArray => unreachable!(),
        }
        true
    }
}

/// `depth` after `ev`, for the modes that only count nesting.
fn nested(depth: usize, ev: &RawEvent<'_>) -> usize {
    match ev {
        RawEvent::StartObject | RawEvent::StartArray => depth + 1,
        RawEvent::EndObject | RawEvent::EndArray => depth - 1,
        _ => depth,
    }
}

impl EventReceiver for EventWalker<'_> {
    fn event(&mut self, ev: &RawEvent<'_>) {
        if self.bail.is_some() {
            return;
        }
        match self.mode {
            Mode::Record => self.record_event(ev),
            Mode::Skip { depth } => {
                self.mode = match nested(depth, ev) {
                    0 => Mode::Record,
                    depth => Mode::Skip { depth },
                };
            }
            Mode::Spill { column, depth } => {
                if !self.spill.event(ev) {
                    self.bail = Some(Fallback::DuplicateKey);
                    return;
                }
                self.mode = match nested(depth, ev) {
                    0 => {
                        let text = Cell::Json(&self.spill.text);
                        let written = self.builders[column].cell(self.row, text);
                        self.settle(written);
                        self.spill.clear();
                        Mode::Record
                    }
                    depth => Mode::Spill { column, depth },
                };
            }
            Mode::Root => match ev {
                RawEvent::StartObject => self.open_frame(0),
                _ => self.bail = Some(Fallback::NotARecord),
            },
        }
    }
}

fn pad_to(cells: &mut Vec<Option<Value>>, row: usize) {
    while cells.len() < row {
        cells.push(None);
    }
}

fn slot_of(value: &Value) -> Slot {
    match value {
        Value::Bool(_) => Slot::Bool,
        Value::Num(n) if n.is_integer() => Slot::Int,
        Value::Num(_) => Slot::Float,
        Value::Str(_) => Slot::Str,
        _ => Slot::Json,
    }
}

fn widen(a: Slot, b: Slot) -> Slot {
    match (a, b) {
        (Slot::Null, x) | (x, Slot::Null) => x,
        (Slot::Int, Slot::Float) | (Slot::Float, Slot::Int) => Slot::Float,
        (x, y) if x == y => x,
        _ => Slot::Json,
    }
}

/// What the layout makes of one type: a record to flatten, or a column.
enum Shape<'t> {
    Record(&'t RecordType),
    Column(Slot),
}

fn shape(ty: &JType) -> Shape<'_> {
    match ty {
        JType::Record(rt) => Shape::Record(rt),
        JType::Bool { .. } => Shape::Column(Slot::Bool),
        JType::Int { .. } => Shape::Column(Slot::Int),
        JType::Float { .. } => Shape::Column(Slot::Float),
        JType::Str { .. } => Shape::Column(Slot::Str),
        // Unions of Int+Float widen to Float; Null+T takes T (validity
        // covers the nulls); everything else spills to JSON.
        JType::Union(ms) => {
            let non_null: Vec<&JType> = ms
                .iter()
                .filter(|m| !matches!(m, JType::Null { .. }))
                .collect();
            match non_null.as_slice() {
                [single] => shape(single),
                [JType::Int { .. }, JType::Float { .. }]
                | [JType::Float { .. }, JType::Int { .. }] => Shape::Column(Slot::Float),
                _ => Shape::Column(Slot::Json),
            }
        }
        // Bare nulls and Bottom spill too, but say that nothing has been
        // seen there.
        JType::Null { .. } | JType::Bottom => Shape::Column(Slot::Null),
        // Arrays: spill (validity handles nulls).
        JType::Array(_) => Shape::Column(Slot::Json),
    }
}

fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

/// Plans columns from an inferred type.
fn plan(ty: &JType, prefix: String, planned: &mut Planned) {
    match shape(ty) {
        Shape::Record(rt) => {
            if rt.fields.is_empty() && !prefix.is_empty() {
                planned.hollow.push(prefix);
                return;
            }
            for (name, field) in &rt.fields {
                planned.dotted |= name.contains('.');
                plan(&field.ty, join(&prefix, name), planned);
            }
        }
        Shape::Column(slot) => {
            // A literal dotted key and a nested path can spell one path
            // (`{"a.b": 1}` next to `{"a": {"b": "x"}}`), and by the
            // second of two such fields a dotted name has been planned.
            // One column holds both, its slot widened as `discover`
            // widens a retyped column.
            let same = match planned.dotted {
                true => planned.layout.iter_mut().find(|(path, _)| *path == prefix),
                false => None,
            };
            match same {
                Some((_, had)) => *had = widen(*had, slot),
                None => planned.layout.push((prefix, slot)),
            }
        }
    }
}

/// Whether every batch shredded under the layout of `old` from records
/// that [fit](ShredStream::push_fitting) `old` is — once
/// [lifted](Shredder::lift) — the batch the layout of `new` gives those
/// records, for `new` a fusion of `old` with more types: every column
/// `old` plans is planned by `new` with the same slot, and `new` adds
/// columns only. `Err` names the first path where that fails.
///
/// A rule on types, not on layouts: a field `old` types as an empty
/// record plans no column, yet `{}` fits it — and is a `json` cell once
/// `new` types the field as a record or a number.
pub fn lifts(old: &JType, new: &JType) -> Result<(), String> {
    lifts_at(Some(old), new, "")
}

fn lifts_at(old: Option<&JType>, new: &JType, path: &str) -> Result<(), String> {
    match (old.map(shape), shape(new)) {
        // Nothing but nulls were there, if anything: whatever `new`
        // plans here holds no cell of the old batches.
        (None | Some(Shape::Column(Slot::Null)), Shape::Column(_)) => Ok(()),
        (None | Some(Shape::Column(Slot::Null)), Shape::Record(rt)) => lifts_fields(None, rt, path),
        (Some(Shape::Record(had)), Shape::Record(rt)) => lifts_fields(Some(had), rt, path),
        (Some(Shape::Column(had)), Shape::Column(slot)) if had == slot => Ok(()),
        _ => Err(path.to_string()),
    }
}

fn lifts_fields(old: Option<&RecordType>, new: &RecordType, path: &str) -> Result<(), String> {
    new.fields.iter().try_for_each(|(name, field)| {
        let path = join(path, name);
        if name.contains('.') {
            // The plan resolves a dotted path to its last column, which
            // may now be this one.
            return Err(path);
        }
        let had = old.and_then(|rt| rt.field(name)).map(|f| &f.ty);
        lifts_at(had, &field.ty, &path)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonx_core::{infer_collection, Equivalence};
    use jsonx_data::json;

    fn docs() -> Vec<Value> {
        vec![
            json!({"id": 1, "name": "a", "geo": {"lat": 1.5}, "tags": [1]}),
            json!({"id": 2, "geo": {"lat": 2.5}, "tags": []}),
            json!({"id": 3, "name": "c", "geo": {"lat": -1.0}, "extra": true}),
        ]
    }

    fn aware_batch() -> ColumnarBatch {
        let ty = infer_collection(&docs(), Equivalence::Kind);
        Shredder::from_type(&ty).shred(&docs()).unwrap()
    }

    #[test]
    fn schema_aware_layout_flattens_records() {
        let b = aware_batch();
        let paths: Vec<&str> = b.columns.iter().map(|c| c.path.as_str()).collect();
        assert!(paths.contains(&"id"));
        assert!(paths.contains(&"geo.lat"));
        assert!(paths.contains(&"tags")); // spill
        assert_eq!(b.rows, 3);
    }

    #[test]
    fn validity_tracks_optionality() {
        let b = aware_batch();
        let name = b.column("name").unwrap();
        assert_eq!(name.validity, Bitmap::from_iter([true, false, true]));
        assert_eq!(name.data, ColumnData::Strs(StrArena::from_iter(["a", "c"])));
    }

    #[test]
    fn typed_columns() {
        let b = aware_batch();
        assert!(matches!(b.column("id").unwrap().data, ColumnData::Ints(_)));
        assert!(matches!(
            b.column("geo.lat").unwrap().data,
            ColumnData::Floats(_)
        ));
        assert!(matches!(
            b.column("extra").unwrap().data,
            ColumnData::Bools(_)
        ));
        assert!(matches!(
            b.column("tags").unwrap().data,
            ColumnData::Json(_)
        ));
    }

    #[test]
    fn union_typed_fields_spill() {
        let docs = vec![json!({"v": 1}), json!({"v": "s"})];
        let ty = infer_collection(&docs, Equivalence::Kind);
        let b = Shredder::from_type(&ty).shred(&docs).unwrap();
        assert!(matches!(b.column("v").unwrap().data, ColumnData::Json(_)));
        // Int+Float widens instead.
        let docs = vec![json!({"v": 1}), json!({"v": 2.5})];
        let ty = infer_collection(&docs, Equivalence::Kind);
        let b = Shredder::from_type(&ty).shred(&docs).unwrap();
        assert_eq!(
            b.column("v").unwrap().data,
            ColumnData::Floats(vec![1.0, 2.5])
        );
    }

    #[test]
    fn null_unions_use_validity() {
        let docs = vec![json!({"v": null}), json!({"v": 7})];
        let ty = infer_collection(&docs, Equivalence::Kind);
        let b = Shredder::from_type(&ty).shred(&docs).unwrap();
        let col = b.column("v").unwrap();
        assert_eq!(col.data, ColumnData::Ints(vec![7]));
        assert_eq!(col.validity, Bitmap::from_iter([false, true]));
    }

    #[test]
    fn discovery_matches_aware_on_layout_paths() {
        let aware = aware_batch();
        let blind = discover(&docs()).unwrap();
        let mut a: Vec<&str> = aware.columns.iter().map(|c| c.path.as_str()).collect();
        let mut d: Vec<&str> = blind.columns.iter().map(|c| c.path.as_str()).collect();
        a.sort_unstable();
        d.sort_unstable();
        assert_eq!(a, d);
        // Values agree column by column.
        for col in &aware.columns {
            let other = blind.column(&col.path).unwrap();
            assert_eq!(col.validity, other.validity, "path {}", col.path);
        }
    }

    #[test]
    fn discovery_retypes_on_conflict() {
        let docs = vec![json!({"v": 1}), json!({"v": 2.5}), json!({"v": 3})];
        let b = discover(&docs).unwrap();
        assert_eq!(
            b.column("v").unwrap().data,
            ColumnData::Floats(vec![1.0, 2.5, 3.0])
        );
        let docs = vec![json!({"v": 1}), json!({"v": "s"})];
        let b = discover(&docs).unwrap();
        assert!(matches!(b.column("v").unwrap().data, ColumnData::Json(_)));
    }

    #[test]
    fn non_records_rejected() {
        let err = discover(&[json!([1])]).unwrap_err();
        assert_eq!(err, ShredError::NotARecord { row: 0 });
    }

    #[test]
    fn stream_push_equals_batch_shred() {
        let ty = infer_collection(&docs(), Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let batch = shredder.shred(&docs()).unwrap();
        let mut stream = shredder.stream();
        for doc in &docs() {
            stream.push(doc).unwrap();
        }
        assert_eq!(stream.finish(), batch);
    }

    #[test]
    fn append_equals_one_pass_shred() {
        let ty = infer_collection(&docs(), Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let whole = shredder.shred(&docs()).unwrap();
        for split in 0..=docs().len() {
            let all = docs();
            let (a, b) = all.split_at(split);
            let mut left = shredder.shred(a).unwrap();
            let right = shredder.shred(b).unwrap();
            left.append(right);
            assert_eq!(left, whole, "split at {split}");
        }
    }

    #[test]
    fn stream_reports_local_row_for_non_records() {
        let ty = infer_collection(&docs(), Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let mut stream = shredder.stream();
        stream.push(&docs()[0]).unwrap();
        let err = stream.push(&json!([1])).unwrap_err();
        assert_eq!(err, ShredError::NotARecord { row: 1 });
    }

    #[test]
    fn bitmap_packs_lsb_first_and_appends_across_byte_boundaries() {
        let bits = [
            true, false, true, true, false, false, false, true, true, true,
        ];
        let map = Bitmap::from_iter(bits);
        assert_eq!(map.as_bytes(), [0b1000_1101, 0b0000_0011]);
        assert_eq!(map.count_ones(), 6);
        assert_eq!(map.rank(0), 0);
        assert_eq!(map.rank(8), 4);
        assert_eq!(map.rank(10), 6);
        assert_eq!(map.iter().collect::<Vec<_>>(), bits);
        // Unused high bits of the last byte are dropped on the way in.
        assert_eq!(
            Bitmap::from_bytes(&[0b1000_1101, 0xFF], 10),
            Some(map.clone())
        );
        assert_eq!(Bitmap::from_bytes(&[0xFF], 10), None);
        for split in 0..=bits.len() {
            let mut left = Bitmap::from_iter(bits[..split].iter().copied());
            left.extend_from(&Bitmap::from_iter(bits[split..].iter().copied()));
            assert_eq!(left, map, "split at {split}");
            let mut cut = map.clone();
            cut.truncate(split);
            assert_eq!(cut, Bitmap::from_iter(bits[..split].iter().copied()));
        }
    }

    #[test]
    fn arena_holds_cells_contiguously() {
        let mut arena = StrArena::from_iter(["ab", "", "ünï"]);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.byte_len(), 7);
        assert_eq!(arena.get(2), "ünï");
        arena.extend_from(&StrArena::from_iter(["x"]));
        arena.push_with(|buf| buf.push_str("yz"));
        assert_eq!(
            arena.iter().collect::<Vec<_>>(),
            ["ab", "", "ünï", "x", "yz"]
        );
        arena.truncate(1);
        assert_eq!(arena, StrArena::from_iter(["ab"]));
    }

    /// The batch, and the route each line took — so the tests can see
    /// which walker ran.
    type Routes = Vec<Result<Option<Fallback>, ShredError>>;

    fn push_lines(shredder: &Shredder, lines: &[&str]) -> (ColumnarBatch, Routes) {
        let decoder = jsonx_syntax::JsonDecoder::new();
        let mut stream = shredder.stream();
        let routes = lines
            .iter()
            .map(|line| stream.push_record(&decoder, &mut (), line))
            .collect();
        (stream.finish(), routes)
    }

    fn push_values(shredder: &Shredder, lines: &[&str]) -> ColumnarBatch {
        let mut stream = shredder.stream();
        for line in lines {
            if let Ok(doc) = jsonx_syntax::parse(line) {
                let _ = stream.push(&doc);
            }
        }
        stream.finish()
    }

    #[test]
    fn event_walk_equals_value_walk_and_falls_back_when_unsure() {
        let layout_docs = vec![
            json!({"id": 1, "name": "a", "geo": {"lat": 1.5, "box": {"w": 1}}, "tags": [1], "v": 1}),
            json!({"id": 2, "v": "s", "a.b": 1, "a": {"b": 2, "c": true}}),
        ];
        let ty = infer_collection(&layout_docs, Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let clean = [
            r#"{"id": 1, "name": "a\tb", "geo": {"lat": 1.5, "box": {"w": 7}}, "tags": [1, {"k": [2]}], "v": {"x": null}}"#,
            r#"{"id": "wrong", "name": 5, "geo": 3, "tags": null, "v": "sé", "extra": {"deep": [1, 2]}}"#,
            r#"{"geo": {"lat": [1], "box": 1, "other": {"w": 2}}, "a": {"c": false}, "id": 2.0}"#,
            r#"{"id": 3, "a.c": true, "geo.box": {"w": 4}, "geo": {"lat": 2}}"#,
            r#"{}"#,
        ];
        let (batch, routes) = push_lines(&shredder, &clean);
        assert_eq!(batch, push_values(&shredder, &clean));
        assert_eq!(routes, vec![Ok(None); clean.len()]);

        // Spill cells are written from events: the text must be the
        // serializer's, whatever the subtree holds.
        let deep = format!("{{\"tags\": {}7{}}}", "[".repeat(64), "]".repeat(64));
        let spilled = [
            r#"{"tags": [], "v": {}}"#,
            r#"{"tags": [[], {}, [{}], {"e": {}, "a": []}], "v": [null, true, false]}"#,
            r#"{"tags": [-0, 0, -0.0, 1e2, 1.0, 1E-2, 2.5e300, 9223372036854775807, -9223372036854775808, 9223372036854775808]}"#,
            r#"{"v": {"a\tb": "q\"uo\\te\u00e9\n\u0001", "\u0061c": "é😀", "": ""}}"#,
            r#"{"v": "just a string \u0041", "tags": {"k": {"k": {"k": 1}}, "j": [{"k": 1}, {"k": 2}]}}"#,
            deep.as_str(),
        ];
        let (batch, routes) = push_lines(&shredder, &spilled);
        assert_eq!(batch, push_values(&shredder, &spilled));
        assert_eq!(routes, vec![Ok(None); spilled.len()]);
        let texts: Vec<&str> = match &batch.column("tags").unwrap().data {
            ColumnData::Json(cells) => cells.iter().collect(),
            other => panic!("tags spills, got {other:?}"),
        };
        assert_eq!(texts[1], r#"[[],{},[{}],{"e":{},"a":[]}]"#);
        assert!(
            texts[2].starts_with("[0,0,-0.0,100.0,1.0,0.01,25000"),
            "{}",
            texts[2]
        );

        // Unsure rows replay, for the reason given; a non-record, and a
        // record the decoder rejects however far the walk got, leave no
        // row.
        let dup = Some(Some(Fallback::DuplicateKey));
        let collision = Some(Some(Fallback::PathCollision));
        let unsure = [
            (r#"{"v": {"k": 1, "k": 2}}"#, dup),
            (r#"{"v": {"a": 1, "b": 2, "\u0061": 3}}"#, dup),
            (
                r#"{"tags": [1, {"x": {"y": 1, "z": [2], "y": {"y": 3}}}]}"#,
                dup,
            ),
            (r#"{"v": {"k": 1, "k": 2}, "tags": "cut"#, None),
            (r#"{"id": 1, "id": 2}"#, dup),
            (r#"{"a": {"b": 1}, "a": 5}"#, dup),
            (r#"{"geo": {"lat": 1, "lat": 2}}"#, dup),
            (r#"{"a.b": 1, "a": {"b": 2}}"#, collision),
            (r#"{"a": {"b": "x"}, "a.b": 2}"#, collision),
            (r#"[1, 2]"#, None),
            (r#"{"id": 1, "name": "cut"#, None),
            (r#"{"id": 1} trailing"#, None),
            (r#"{"id": 1, "id": 2} trailing"#, None),
            (r#"[1, 2] trailing"#, None),
        ];
        for (line, why) in unsure {
            let (batch, routes) = push_lines(&shredder, &[clean[0], line, clean[1]]);
            assert_eq!(
                batch,
                push_values(&shredder, &[clean[0], line, clean[1]]),
                "{line}"
            );
            let routes: Vec<_> = routes.into_iter().map(Result::ok).collect();
            assert_eq!(routes, [Some(None), why, Some(None)], "{line}");
        }
    }

    /// Well-formed text no serializer writes — keys repeated plainly and
    /// escaped-equal, at any depth, members shuffled, `3.0` for `3` —
    /// inside spilled subtrees: the event walk's cell is the document's,
    /// or the walk hands the record back.
    #[test]
    fn respelled_spill_subtrees_are_the_documents_text_or_handed_back() {
        let doc = json!({
            "id": 1,
            "tags": [{"a": 1, "b": {"c": [1, 2.5], "d": "x\ty"}}, [3, {"e": null}], "s"],
            "v": {"p": {"q": 1, "r": true}, "s": [{"t": null, "u": -7}]},
        });
        let ty = infer_collection(std::slice::from_ref(&doc), Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let (mut from_events, mut handed_back) = (0, 0);
        for seed in 0..400 {
            let line = jsonx_gen::respelled(&doc, seed);
            let (batch, routes) = push_lines(&shredder, &[&line]);
            assert_eq!(batch, push_values(&shredder, &[&line]), "{line}");
            match routes[0] {
                Ok(None) => from_events += 1,
                Ok(Some(Fallback::DuplicateKey)) => handed_back += 1,
                ref other => panic!("{other:?}: {line}"),
            }
        }
        assert!(
            from_events > 10 && handed_back > 10,
            "{from_events} / {handed_back}"
        );
    }

    fn planned(ty: &JType) -> Planned {
        let mut planned = Planned::default();
        plan(ty, String::new(), &mut planned);
        planned
    }

    /// One row per clause of the definition of *fits*: the verdict, and
    /// that a record fits only if fusing its type in plans the same
    /// layout — and, but for the records the walk hands back whatever
    /// they hold, whenever it does.
    #[test]
    fn a_record_fits_exactly_when_its_type_leaves_the_layout_alone() {
        let taught = vec![
            json!({"id": 1, "name": "a", "score": 1.5, "ok": true, "geo": {"lat": 1.5, "box": {"w": 1}},
                   "tags": [1], "v": 1, "nil": null, "e": {}, "opt": null}),
            json!({"id": 2, "v": "s", "opt": 3}),
        ];
        let ty = infer_collection(&taught, Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let decoder = jsonx_syntax::JsonDecoder::new();
        // (record, fits, the walk hands it back unread)
        let table = [
            // Nothing, nulls anywhere, and every kind where it was seen.
            (r#"{}"#, true, false),
            (
                r#"{"id": null, "geo": null, "tags": null, "nil": null, "e": null, "opt": null}"#,
                true,
                false,
            ),
            (
                r#"{"id": 3, "name": "b", "score": 2.5, "ok": false, "opt": 4}"#,
                true,
                false,
            ),
            (
                r#"{"geo": {"lat": 0.5, "box": {"w": 2}}, "e": {}}"#,
                true,
                false,
            ),
            (r#"{"geo": {"box": {}}}"#, true, false),
            // An integer fits a float column; so does what types as one.
            (r#"{"score": 2}"#, true, false),
            (r#"{"id": 2.0}"#, true, false),
            (r#"{"id": 1e300}"#, true, false),
            // A spill column takes anything, dotted keys included.
            (
                r#"{"tags": {"a": {"b.c": 1}}, "v": [1, {"x.y": 2}]}"#,
                true,
                false,
            ),
            (r#"{"tags": 5, "v": true}"#, true, false),
            // A key the type has no field for, at any flattened level.
            (r#"{"fresh": 1}"#, false, false),
            (r#"{"fresh": null}"#, false, false),
            (r#"{"fresh": {}}"#, false, false),
            (r#"{"geo": {"lon": 1}}"#, false, false),
            (r#"{"geo": {"box": {"h": 1}}}"#, false, false),
            (r#"{"e": {"k": 1}}"#, false, false),
            // A dotted key: unknown, or spelling a path the type has.
            (r#"{"a.b": 1}"#, false, false),
            (r#"{"geo.lat": 1.5}"#, false, false),
            (r#"{"geo": {"box.w": 1}}"#, false, false),
            // A value the column's slot cannot hold.
            (r#"{"id": 1.5}"#, false, false),
            (r#"{"id": "x"}"#, false, false),
            (r#"{"name": 5}"#, false, false),
            (r#"{"ok": 1}"#, false, false),
            (r#"{"score": "x"}"#, false, false),
            (r#"{"opt": "x"}"#, false, false),
            // A container where the layout has a scalar column.
            (r#"{"id": [1]}"#, false, false),
            (r#"{"name": {"a": 1}}"#, false, false),
            // Anything but an object or null where it flattens.
            (r#"{"geo": 7}"#, false, false),
            (r#"{"geo": [1]}"#, false, false),
            (r#"{"geo": {"box": "x"}}"#, false, false),
            (r#"{"e": 5}"#, false, false),
            (r#"{"e": []}"#, false, false),
            // Anything but null where only null had been seen.
            (r#"{"nil": 1}"#, false, false),
            (r#"{"nil": [1]}"#, false, false),
            (r#"{"nil": {}}"#, false, false),
            // No object at the root.
            (r#"[{"id": 1}]"#, false, false),
            (r#"7"#, false, false),
            // What the walk cannot vouch for, it hands back.
            (r#"{"id": 1, "id": 2}"#, false, true),
            (r#"{"v": {"k": 1, "k": 2}}"#, false, true),
            (r#"{"geo": {"lat": 1, "lat": 2}}"#, false, true),
        ];
        let mut stream = shredder.stream();
        let mut fitting = Vec::new();
        for (line, fits, handed_back) in table {
            let got = stream.push_fitting(&decoder, &mut (), line).unwrap();
            assert_eq!(got, fits, "{line}");
            let doc = jsonx_syntax::parse(line).unwrap();
            let fused = jsonx_core::fuse(
                ty.clone(),
                jsonx_core::infer_value(&doc, Equivalence::Kind),
                Equivalence::Kind,
            );
            let same = planned(&fused) == planned(&ty);
            assert!(same || !fits, "{line} fits, yet changes the layout");
            assert!(
                same == fits || handed_back,
                "{line}: fits {fits}, same layout {same}"
            );
            if fits {
                fitting.push(line);
            }
        }
        // What fit was shredded as ever; what did not left nothing.
        assert_eq!(stream.finish(), push_values(&shredder, &fitting));
        // A decoder's reject is a reject, however far the walk got.
        let mut stream = shredder.stream();
        for line in [
            r#"{"fresh": 1"#,
            r#"{"id": 1} x"#,
            r#"[1"#,
            r#"{"id": 1, "id": 2"#,
        ] {
            let want = jsonx_syntax::parse(line).unwrap_err();
            assert_eq!(
                stream.push_fitting(&decoder, &mut (), line),
                Err(want),
                "{line}"
            );
        }
        assert_eq!(stream.rows(), 0);

        // A type the walk cannot check against fits nothing: no record
        // type at the root, or a dotted field name (`a.b` is then two
        // fields' path).
        for docs in [
            vec![],
            vec![json!({"a.b": 1, "a": {"b": 2}})],
            vec![json!({"n": {"x.y": 1}})],
        ] {
            let unverifiable = Shredder::from_type(&infer_collection(&docs, Equivalence::Kind));
            let mut stream = unverifiable.stream();
            for line in ["{}", r#"{"a": {"b": 2}}"#] {
                assert_eq!(
                    stream.push_fitting(&decoder, &mut (), line),
                    Ok(false),
                    "{line}"
                );
            }
        }
    }

    /// `lifts` on a type and its fusion with one more record: when it
    /// says yes, lifting the old batch is shredding under the new layout.
    #[test]
    fn a_widened_layout_lifts_exactly_when_it_only_adds_columns() {
        let taught = vec![
            json!({"id": 1, "geo": {"lat": 1.5}, "tags": [1], "nil": null, "e": {}}),
            json!({"id": 2, "geo": null, "e": {}}),
        ];
        let old = infer_collection(&taught, Equivalence::Kind);
        let table = [
            (json!({"id": 3}), Ok(())),
            (json!({"fresh": "x", "geo": {"lon": 2.5}}), Ok(())),
            (json!({"nil": 4}), Ok(())),
            (json!({"nil": {"deep": {"er": [1]}}}), Ok(())),
            (json!({"e": {"k": 1}}), Ok(())),
            (json!({"tags": "s"}), Ok(())),
            (json!({"id": 1.5}), Err("id")),
            (json!({"id": "x"}), Err("id")),
            (json!({"geo": 7}), Err("geo")),
            (json!({"geo": {"lat": "x"}}), Err("geo.lat")),
            (json!({"e": 5}), Err("e")),
            (json!({"a.b": 1}), Err("a.b")),
            (json!({"nil": {"x.y": 1}}), Err("nil.x.y")),
        ];
        for (late, want) in table {
            let new = jsonx_core::fuse(
                old.clone(),
                jsonx_core::infer_value(&late, Equivalence::Kind),
                Equivalence::Kind,
            );
            assert_eq!(lifts(&old, &new), want.map_err(str::to_string), "{late}");
            if want.is_ok() {
                let lifted = Shredder::from_type(&new)
                    .lift(Shredder::from_type(&old).shred(&taught).unwrap());
                assert_eq!(
                    lifted,
                    Shredder::from_type(&new).shred(&taught).unwrap(),
                    "{late}"
                );
            }
        }
        // Nothing taught at all lifts into anything without a dotted name.
        assert_eq!(lifts(&JType::Bottom, &old), Ok(()));
    }

    #[test]
    fn push_record_reports_the_dom_parsers_error() {
        let ty = infer_collection(&docs(), Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let decoder = jsonx_syntax::JsonDecoder::new();
        let mut stream = shredder.stream();
        for line in ["{\"id\": 1} x", "{\"id\": tru}", "nul"] {
            let want = jsonx_syntax::parse(line).unwrap_err();
            let got = stream.push_record(&decoder, &mut (), line).unwrap_err();
            assert_eq!(got, ShredError::Parse(want), "{line}");
        }
        assert_eq!(
            stream.push_record(&decoder, &mut (), "7"),
            Err(ShredError::NotARecord { row: 0 })
        );
        assert_eq!(stream.rows(), 0);
        assert_eq!(stream.finish(), shredder.stream().finish());
    }

    #[test]
    fn schema_string_renders() {
        let b = aware_batch();
        let s = b.schema_string();
        assert!(s.contains("id:int64"));
        assert!(s.contains("geo.lat:float64"));
    }
}
