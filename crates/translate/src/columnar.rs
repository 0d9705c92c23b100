//! Columnar shredding (Arrow/Parquet-flavoured).
//!
//! A [`Shredder`] turns a stream of JSON records into a [`ColumnarBatch`]:
//! one typed column per scalar leaf path, with a validity bitmap for
//! optional/null positions. Nested records flatten into dotted paths;
//! arrays and union-typed leaves spill into a JSON-text column (the same
//! escape hatch production columnar stores use for "variant" data).
//!
//! The shredder has two constructions, which is exactly the E11 contrast:
//!
//! * [`Shredder::from_type`] — **schema-aware**: the column layout is
//!   fixed up front from an inferred [`JType`], so each record dispatches
//!   straight into pre-typed columns;
//! * [`Shredder::discovering`] — **schema-blind**: columns are discovered
//!   and retyped on the fly while scanning, the way a schema-less
//!   converter must.
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

use jsonx_core::JType;
use jsonx_data::{Number, Value};
use jsonx_syntax::{EventReceiver, ParseError, RawEvent, RecordDecoder, ValueBuilder};
use std::collections::HashMap;
use std::fmt;

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
        let shift = self.len % 8;
        if shift == 0 {
            self.bytes.extend_from_slice(&other.bytes);
        } else {
            // Each incoming byte straddles two of ours.
            for &b in &other.bytes {
                *self.bytes.last_mut().expect("shift != 0 implies a byte") |= b << shift;
                self.bytes.push(b >> (8 - shift));
            }
        }
        self.len += other.len;
        self.bytes.truncate(self.len.div_ceil(8));
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

/// A fixed layout's paths as a trie over their dotted segments, built
/// once per [`Shredder`], so the walkers resolve a key with one lookup
/// per nesting level instead of building and hashing a dotted path per
/// field. Node 0 is the record root.
#[derive(Debug, Clone)]
struct Plan {
    nodes: Vec<PlanNode>,
}

impl Plan {
    fn from_layout(layout: &[(String, Slot)]) -> Plan {
        let root = PlanNode {
            name: "".into(),
            parent: usize::MAX,
            column: None,
            children: Vec::new(),
        };
        let mut plan = Plan { nodes: vec![root] };
        for (column, (path, _)) in layout.iter().enumerate() {
            let mut node = 0;
            for segment in path.split('.') {
                node = plan.child_or_insert(node, segment);
            }
            // Two fields can flatten to one path (`{"a.b": 1}` next to
            // `{"a": {"b": 1}}`): the later column takes the cells.
            plan.nodes[node].column = Some(column);
        }
        plan
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

/// The shredder: fixed or discovering layout.
#[derive(Debug, Clone)]
pub struct Shredder {
    /// Layout: (path, slot type); columns in order.
    layout: Vec<(String, Slot)>,
    /// The fixed layout's plan tree (just a root when discovering).
    plan: Plan,
    /// path → layout index, for the discovering mode's growing layout.
    by_path: HashMap<String, usize>,
    /// Schema-blind mode grows/retypes the layout on the fly.
    discovering: bool,
    /// Top-level field names of the planned record type — the projection
    /// a streaming fast path may push down. `None` when the plan was not
    /// built from a record type (or is discovering), i.e. when every
    /// record must be parsed in full.
    root_fields: Option<Vec<String>>,
}

impl Shredder {
    /// Schema-aware construction: derive the column layout from an
    /// inferred type (records flatten; arrays/unions become spill columns).
    pub fn from_type(ty: &JType) -> Shredder {
        let mut layout = Vec::new();
        plan(ty, String::new(), &mut layout);
        let root_fields = match ty {
            JType::Record(rt) => Some(rt.fields.iter().map(|(name, _)| name.to_string()).collect()),
            _ => None,
        };
        Shredder {
            plan: Plan::from_layout(&layout),
            layout,
            by_path: HashMap::new(),
            discovering: false,
            root_fields,
        }
    }

    /// Schema-blind construction: start empty, discover as you go.
    pub fn discovering() -> Shredder {
        Shredder {
            layout: Vec::new(),
            plan: Plan::from_layout(&[]),
            by_path: HashMap::new(),
            discovering: true,
            root_fields: None,
        }
    }

    /// Number of planned columns.
    pub fn column_count(&self) -> usize {
        self.layout.len()
    }

    /// The top-level field names this plan reads from each record, or
    /// `None` when the plan requires whole records (non-record types,
    /// discovering mode). Every column path's first dotted segment is one
    /// of these names, so a driver that parses only these fields shreds
    /// identically — provided skipped records with literal dotted root
    /// keys are routed to the full parser (they could alias a nested
    /// column path).
    pub fn root_fields(&self) -> Option<&[String]> {
        self.root_fields.as_deref()
    }

    /// Shreds a collection into one batch.
    ///
    /// Dispatches on the construction: the schema-aware path writes
    /// straight into typed column storage (the layout is fixed, so every
    /// cell's destination type is known before the scan); the discovering
    /// path must buffer generic cells because columns can appear and
    /// retype mid-stream — that architectural difference is what E11
    /// measures.
    pub fn shred(&mut self, docs: &[Value]) -> Result<ColumnarBatch, ShredError> {
        if !self.discovering {
            return self.shred_typed(docs);
        }
        self.shred_generic(docs)
    }

    /// Begins incremental schema-aware shredding: records are pushed one
    /// at a time and finished into a batch. This is the entry point the
    /// streaming translation pipeline stage uses — each shard owns one
    /// `ShredStream` and the per-shard batches concatenate with
    /// [`ColumnarBatch::append`].
    ///
    /// # Panics
    ///
    /// Panics on a discovering shredder: a schema-blind layout can grow
    /// and retype mid-stream, so it must scan the whole collection via
    /// [`shred`](Self::shred).
    pub fn stream(&self) -> ShredStream<'_> {
        assert!(
            !self.discovering,
            "ShredStream requires a fixed layout (Shredder::from_type)"
        );
        ShredStream {
            shredder: self,
            builders: self.builders(),
            rows: 0,
            order: KeyOrder::new(&self.plan),
            frames: Vec::new(),
            stamps: vec![0; self.plan.nodes.len()],
            serial: 0,
            spill: ValueBuilder::new(),
        }
    }

    fn builders(&self) -> Vec<TypedBuilder> {
        self.layout
            .iter()
            .map(|(_, slot)| TypedBuilder::new(*slot))
            .collect()
    }

    /// Schema-aware fast path: typed builders, no intermediate cells.
    /// One batch-sized [`ShredStream`] — the streaming stage uses the same
    /// code path record by record.
    fn shred_typed(&self, docs: &[Value]) -> Result<ColumnarBatch, ShredError> {
        let mut stream = self.stream();
        for doc in docs {
            stream.push(doc)?;
        }
        Ok(stream.finish())
    }

    /// Schema-blind path: generic cell buffering with on-the-fly layout
    /// growth and retyping.
    fn shred_generic(&mut self, docs: &[Value]) -> Result<ColumnarBatch, ShredError> {
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
}

impl Fallback {
    /// Stable machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Fallback::DuplicateKey => "duplicate-key",
            Fallback::PathCollision => "path-collision",
            Fallback::NotARecord => "not-a-record",
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
    /// Rebuilds spill subtrees for the event walker.
    spill: ValueBuilder,
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
            bail: None,
        };
        let decoded = decoder.decode_events(scratch, record, &mut walker);
        match (decoded, walker.bail) {
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

    /// Rolls every builder back to the start of the current row and
    /// resets the event walker's per-record state.
    fn abort_row(&mut self) {
        for builder in &mut self.builders {
            builder.truncate_to_row(self.rows);
        }
        self.frames.clear();
        self.spill.take();
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

    /// The compact JSON text a spill column stores — always
    /// [`Value::to_json_string`], so both walkers store the same bytes.
    fn json_text(self) -> String {
        match self {
            Cell::Null => Value::Null,
            Cell::Bool(b) => Value::Bool(b),
            Cell::Num(n) => Value::Num(n),
            Cell::Str(s) => Value::Str(s.to_owned()),
            Cell::Tree(tree) => return tree.to_json_string(),
        }
        .to_json_string()
    }
}

/// Direct typed column construction for the schema-aware path.
#[derive(Debug)]
struct TypedBuilder {
    data: ColumnData,
    validity: Bitmap,
}

impl TypedBuilder {
    fn new(slot: Slot) -> TypedBuilder {
        TypedBuilder {
            data: match slot {
                Slot::Bool => ColumnData::Bools(Bitmap::new()),
                Slot::Int => ColumnData::Ints(Vec::new()),
                Slot::Float => ColumnData::Floats(Vec::new()),
                Slot::Str => ColumnData::Strs(StrArena::new()),
                Slot::Json => ColumnData::Json(StrArena::new()),
            },
            validity: Bitmap::new(),
        }
    }

    fn spills(&self) -> bool {
        matches!(self.data, ColumnData::Json(_))
    }

    /// The one place a cell enters a column: appends `cell` at `row`,
    /// null-padding skipped rows. A value that does not fit the column's
    /// type is a null. Returns `false`, writing nothing, when the column
    /// already has a cell — value or null — for `row` (a literal dotted
    /// key collided with the nested path it spells: first write wins).
    fn cell(&mut self, row: usize, cell: Cell<'_>) -> bool {
        if self.validity.len() > row {
            return false;
        }
        self.validity.pad_to(row);
        let valid = match (&mut self.data, cell) {
            (ColumnData::Bools(v), Cell::Bool(b)) => {
                v.push(b);
                true
            }
            (ColumnData::Ints(v), Cell::Num(n)) => match n.as_i64() {
                Some(i) => {
                    v.push(i);
                    true
                }
                None => false,
            },
            (ColumnData::Floats(v), Cell::Num(n)) => {
                v.push(n.as_f64());
                true
            }
            (ColumnData::Strs(v), Cell::Str(s)) => {
                v.push(s);
                true
            }
            (ColumnData::Json(_), Cell::Null) => false,
            (ColumnData::Json(v), cell) => {
                v.push(&cell.json_text());
                true
            }
            _ => false,
        };
        self.validity.push(valid);
        true
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
    spill: &'a mut ValueBuilder,
    /// The plan node the last key resolved to.
    target: Option<usize>,
    mode: Mode,
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

    fn write(&mut self, column: usize, cell: Cell<'_>) {
        if !self.builders[column].cell(self.row, cell) {
            self.bail = Some(Fallback::PathCollision);
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
                if let Some(at) = self.target {
                    if self.stamps[at] == frame.serial {
                        self.bail = Some(Fallback::DuplicateKey);
                    }
                    self.stamps[at] = frame.serial;
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
            (Some(cell), Some((_, node))) => {
                if let Some(column) = node.column {
                    self.write(column, cell);
                }
            }
            (Some(_), None) => {}
            (None, Some((at, node)))
                if matches!(ev, RawEvent::StartObject) && !node.children.is_empty() =>
            {
                self.open_frame(at);
            }
            (None, Some((_, node))) => match node.column {
                Some(column) if self.builders[column].spills() => {
                    self.spill.event(ev);
                    self.mode = Mode::Spill { column, depth: 1 };
                }
                Some(column) => {
                    // A container where the layout has a scalar column
                    // is a null, like any other ill-typed value.
                    self.write(column, Cell::Null);
                    self.mode = Mode::Skip { depth: 1 };
                }
                None => self.mode = Mode::Skip { depth: 1 },
            },
            (None, None) => self.mode = Mode::Skip { depth: 1 },
        }
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
                self.spill.event(ev);
                self.mode = match nested(depth, ev) {
                    0 => {
                        let tree = self.spill.take();
                        self.write(column, Cell::Tree(&tree));
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
        (Slot::Int, Slot::Float) | (Slot::Float, Slot::Int) => Slot::Float,
        (x, y) if x == y => x,
        _ => Slot::Json,
    }
}

/// Plans columns from an inferred type.
fn plan(ty: &JType, prefix: String, layout: &mut Vec<(String, Slot)>) {
    match ty {
        JType::Record(rt) => {
            for (name, field) in &rt.fields {
                let path = if prefix.is_empty() {
                    name.to_string()
                } else {
                    format!("{prefix}.{name}")
                };
                plan(&field.ty, path, layout);
            }
        }
        JType::Bool { .. } => layout.push((prefix, Slot::Bool)),
        JType::Int { .. } => layout.push((prefix, Slot::Int)),
        JType::Float { .. } => layout.push((prefix, Slot::Float)),
        JType::Str { .. } => layout.push((prefix, Slot::Str)),
        // Unions of Int+Float widen to Float; Null+T takes T (validity
        // covers the nulls); everything else spills to JSON.
        JType::Union(ms) => {
            let non_null: Vec<&JType> = ms
                .iter()
                .filter(|m| !matches!(m, JType::Null { .. }))
                .collect();
            match non_null.as_slice() {
                [single] => plan(single, prefix, layout),
                [JType::Int { .. }, JType::Float { .. }]
                | [JType::Float { .. }, JType::Int { .. }] => layout.push((prefix, Slot::Float)),
                _ => layout.push((prefix, Slot::Json)),
            }
        }
        // Arrays, bare nulls and Bottom: spill (validity handles nulls).
        _ => layout.push((prefix, Slot::Json)),
    }
}

/// Rebuilds the scalar projection of row `row` from a batch (used by the
/// round-trip tests; arrays/unions come back as JSON text).
pub fn row_scalar(batch: &ColumnarBatch, path: &str, row: usize) -> Option<Number> {
    let col = batch.column(path)?;
    if row >= col.validity.len() || !col.validity.get(row) {
        return None;
    }
    let dense_idx = col.validity.rank(row);
    match &col.data {
        ColumnData::Ints(v) => Some(Number::Int(v[dense_idx])),
        ColumnData::Floats(v) => Number::from_f64(v[dense_idx]),
        _ => None,
    }
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
    fn discovering_matches_aware_on_layout_paths() {
        let aware = aware_batch();
        let blind = Shredder::discovering().shred(&docs()).unwrap();
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
    fn discovering_retypes_on_conflict() {
        let docs = vec![json!({"v": 1}), json!({"v": 2.5}), json!({"v": 3})];
        let b = Shredder::discovering().shred(&docs).unwrap();
        assert_eq!(
            b.column("v").unwrap().data,
            ColumnData::Floats(vec![1.0, 2.5, 3.0])
        );
        let docs = vec![json!({"v": 1}), json!({"v": "s"})];
        let b = Shredder::discovering().shred(&docs).unwrap();
        assert!(matches!(b.column("v").unwrap().data, ColumnData::Json(_)));
    }

    #[test]
    fn row_scalar_reads_back() {
        let b = aware_batch();
        assert_eq!(row_scalar(&b, "id", 1), Some(Number::Int(2)));
        assert_eq!(row_scalar(&b, "geo.lat", 2), Number::from_f64(-1.0));
        assert_eq!(row_scalar(&b, "name", 1), None); // invalid slot
    }

    #[test]
    fn non_records_rejected() {
        let mut s = Shredder::discovering();
        let err = s.shred(&[json!([1])]).unwrap_err();
        assert_eq!(err, ShredError::NotARecord { row: 0 });
    }

    #[test]
    fn stream_push_equals_batch_shred() {
        let ty = infer_collection(&docs(), Equivalence::Kind);
        let shredder = Shredder::from_type(&ty);
        let batch = shredder.clone().shred(&docs()).unwrap();
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
        let whole = shredder.clone().shred(&docs()).unwrap();
        for split in 0..=docs().len() {
            let all = docs();
            let (a, b) = all.split_at(split);
            let mut left = shredder.clone().shred(a).unwrap();
            let right = shredder.clone().shred(b).unwrap();
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
    #[should_panic(expected = "fixed layout")]
    fn discovering_shredders_cannot_stream() {
        let _ = Shredder::discovering().stream();
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

        // Unsure rows replay, for the reason given; a non-record, and a
        // record the decoder rejects however far the walk got, leave no
        // row.
        let dup = Some(Some(Fallback::DuplicateKey));
        let collision = Some(Some(Fallback::PathCollision));
        let unsure = [
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
