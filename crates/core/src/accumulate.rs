//! In-place type fusion: a counting type that events update directly.
//!
//! [`fuse`](crate::fuse) reduces *values*: typing a collection with it
//! means building one [`JType`] tree per document and rebuilding the
//! accumulated type once per document, although after the first few
//! documents nothing about the accumulated type changes except its
//! counters. A [`TypeAccumulator`] is the same type, mutable: a trie with
//! the shape of a [`JType`] under [`Equivalence::Kind`](crate::Equivalence)
//! — per position five scalar counters, at most one array node and at
//! most one record node whose fields lead to child positions — that a
//! document's events walk, incrementing counters where they pass.
//!
//! It is a speculation that each document **verifies** (§4.2): keys are
//! resolved by guessing that they arrive in the order they did last time,
//! and a document's increments are logged so that
//! [`rollback`](TypeAccumulator::rollback) takes them back — for a
//! document its decoder goes on to reject, and for one with a key repeated
//! inside a single object, where the data model keeps only the last value
//! and an in-place walk has already counted the first.
//! [`commit`](TypeAccumulator::commit) reports the latter so the caller
//! can type that document the ordinary way; fusion is commutative and
//! associative, so where its type joins the rest does not matter.
//!
//! The law, pinned by `tests/prop_algebra.rs`: for any sequence of
//! committed documents and any placement of [`take`](TypeAccumulator::take)
//! between them, fusing the taken types equals
//! [`fuse_all`](crate::fuse_all) of the documents'
//! [`infer_value`](crate::infer_value) types under `Kind`, as a value —
//! structure that survives a `take` with zero counts never surfaces.

use crate::types::{ArrayType, FieldName, FieldType, JType, RecordType};

/// The "no such node" index; `Vec::get` turns it into `None`.
const NONE: usize = usize::MAX;
/// The position of a whole document.
const ROOT: usize = 0;

/// The scalar kinds, in union-member order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarKind {
    Null,
    Bool,
    Int,
    Float,
    Str,
}

impl ScalarKind {
    const ALL: [ScalarKind; 5] = [
        ScalarKind::Null,
        ScalarKind::Bool,
        ScalarKind::Int,
        ScalarKind::Float,
        ScalarKind::Str,
    ];

    fn typed(self, count: u64) -> JType {
        match self {
            ScalarKind::Null => JType::Null { count },
            ScalarKind::Bool => JType::Bool { count },
            ScalarKind::Int => JType::Int { count },
            ScalarKind::Float => JType::Float { count },
            ScalarKind::Str => JType::Str { count },
        }
    }
}

/// Somewhere a value can occur — the document root, a record field, an
/// array's elements — and what has occurred there: a union in the making.
struct Position {
    /// Indexed by [`ScalarKind`].
    scalars: [u64; 5],
    array: usize,
    record: usize,
}

struct ArrayNode {
    count: u64,
    total_items: u64,
    /// The position of every element.
    item: usize,
}

struct RecordNode {
    count: u64,
    /// The field the last object here started with.
    first: usize,
    /// This record's fields, sorted by name: the miss path's index and
    /// the order [`TypeAccumulator::take`] emits them in.
    fields: Vec<usize>,
}

struct Field {
    name: FieldName,
    presence: u64,
    /// Serial of the last object in which a key resolved here; a second
    /// key of the same object landing here is a duplicate.
    stamp: u64,
    /// The position of this field's values.
    value: usize,
    /// The field that followed this one in the last object to have both.
    next: usize,
}

/// The arenas. Nodes are only ever added; [`Trie::take_position`] zeroes
/// counters and keeps structure and names.
#[derive(Default)]
struct Trie {
    positions: Vec<Position>,
    arrays: Vec<ArrayNode>,
    records: Vec<RecordNode>,
    fields: Vec<Field>,
}

/// An open container of the document being walked.
enum Frame {
    Record {
        node: usize,
        serial: u64,
        /// The field the previous key resolved to.
        prev: usize,
        /// Where the pending key's value goes.
        value: usize,
    },
    Array {
        node: usize,
        item: usize,
        len: u64,
    },
}

/// One increment of the current document, to be taken back on rollback.
enum Undo {
    Scalar(usize, ScalarKind),
    Array(usize),
    Items(usize, u64),
    Record(usize),
    Field(usize),
}

/// A mutable counting type under `Kind` equivalence; see the module docs.
///
/// Feed one document's events ([`scalar`](Self::scalar),
/// [`start_object`](Self::start_object), [`key`](Self::key), …), then
/// settle it with [`commit`](Self::commit) or [`rollback`](Self::rollback)
/// before the next; [`take`](Self::take) between documents yields the type
/// of everything committed since the last `take`.
pub struct TypeAccumulator {
    trie: Trie,
    stack: Vec<Frame>,
    undo: Vec<Undo>,
    /// Grows with every object opened, so stamps never need clearing.
    serial: u64,
    duplicate_key: bool,
}

impl Default for TypeAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl Trie {
    fn add_position(&mut self) -> usize {
        self.positions.push(Position {
            scalars: [0; 5],
            array: NONE,
            record: NONE,
        });
        self.positions.len() - 1
    }

    fn array_at(&mut self, position: usize) -> usize {
        if self.positions[position].array == NONE {
            let item = self.add_position();
            self.arrays.push(ArrayNode {
                count: 0,
                total_items: 0,
                item,
            });
            self.positions[position].array = self.arrays.len() - 1;
        }
        self.positions[position].array
    }

    fn record_at(&mut self, position: usize) -> usize {
        if self.positions[position].record == NONE {
            self.records.push(RecordNode {
                count: 0,
                first: NONE,
                fields: Vec::new(),
            });
            self.positions[position].record = self.records.len() - 1;
        }
        self.positions[position].record
    }

    /// The field `name` of record `node`, trying the one that followed
    /// `prev` last time (the record's remembered first field when `prev`
    /// is `NONE`): one string comparison while objects keep their key
    /// order. A miss searches — and on first sight extends — the record's
    /// sorted field list, and remembers the answer.
    #[inline]
    fn field_of(&mut self, node: usize, prev: usize, name: &str) -> usize {
        let guess = match self.fields.get(prev) {
            Some(prev) => prev.next,
            None => self.records[node].first,
        };
        if self.fields.get(guess).is_some_and(|f| *f.name == *name) {
            return guess;
        }
        let found = self.find_or_add_field(node, name);
        match self.fields.get_mut(prev) {
            Some(prev) => prev.next = found,
            None => self.records[node].first = found,
        }
        found
    }

    fn find_or_add_field(&mut self, node: usize, name: &str) -> usize {
        let fields = &self.fields;
        let sorted = &self.records[node].fields;
        match sorted.binary_search_by(|&f| (*fields[f].name).cmp(name)) {
            Ok(at) => sorted[at],
            Err(at) => {
                let value = self.add_position();
                self.fields.push(Field {
                    name: FieldName::from(name),
                    presence: 0,
                    stamp: 0,
                    value,
                    next: NONE,
                });
                let field = self.fields.len() - 1;
                self.records[node].fields.insert(at, field);
                field
            }
        }
    }

    /// The canonical type of everything counted at `position`, zeroing
    /// the counters it reads. A node that counted nothing has counted
    /// nothing below it either, so zero-count subtrees are skipped whole.
    fn take_position(&mut self, position: usize) -> JType {
        let here = &mut self.positions[position];
        let scalars = std::mem::take(&mut here.scalars);
        let (array, record) = (here.array, here.record);
        let mut members: Vec<JType> = ScalarKind::ALL
            .into_iter()
            .zip(scalars)
            .filter(|(_, count)| *count > 0)
            .map(|(kind, count)| kind.typed(count))
            .collect();
        if let Some(node) = self.arrays.get_mut(array).filter(|node| node.count > 0) {
            let count = std::mem::take(&mut node.count);
            let total_items = std::mem::take(&mut node.total_items);
            let item = node.item;
            members.push(JType::Array(ArrayType {
                item: Box::new(self.take_position(item)),
                count,
                total_items,
            }));
        }
        if let Some(node) = self.records.get_mut(record).filter(|node| node.count > 0) {
            let count = std::mem::take(&mut node.count);
            let mut fields = Vec::with_capacity(node.fields.len());
            for at in 0..self.records[record].fields.len() {
                let field = &mut self.fields[self.records[record].fields[at]];
                let presence = std::mem::take(&mut field.presence);
                if presence > 0 {
                    let (name, value) = (field.name.clone(), field.value);
                    let ty = self.take_position(value);
                    fields.push((name, FieldType { ty, presence }));
                }
            }
            members.push(JType::Record(RecordType { fields, count }));
        }
        match members.len() {
            0 => JType::Bottom,
            1 => members.pop().expect("len checked"),
            _ => JType::Union(members),
        }
    }
}

impl TypeAccumulator {
    /// An accumulator that has counted nothing ([`JType::Bottom`]).
    pub fn new() -> Self {
        let mut trie = Trie::default();
        trie.add_position();
        TypeAccumulator {
            trie,
            stack: Vec::new(),
            undo: Vec::new(),
            serial: 0,
            duplicate_key: false,
        }
    }

    /// Where the value now starting goes; counts it as an element when it
    /// starts inside an array.
    #[inline]
    fn value_position(&mut self) -> usize {
        match self.stack.last_mut() {
            Some(Frame::Array { item, len, .. }) => {
                *len += 1;
                *item
            }
            Some(Frame::Record { value, .. }) => *value,
            None => ROOT,
        }
    }

    /// A scalar value.
    #[inline]
    pub fn scalar(&mut self, kind: ScalarKind) {
        let position = self.value_position();
        self.trie.positions[position].scalars[kind as usize] += 1;
        self.undo.push(Undo::Scalar(position, kind));
    }

    /// An object opens.
    #[inline]
    pub fn start_object(&mut self) {
        let position = self.value_position();
        let node = self.trie.record_at(position);
        self.trie.records[node].count += 1;
        self.undo.push(Undo::Record(node));
        self.serial += 1;
        self.stack.push(Frame::Record {
            node,
            serial: self.serial,
            prev: NONE,
            value: NONE,
        });
    }

    /// A member key of the innermost open object, unescaped.
    #[inline]
    pub fn key(&mut self, name: &str) {
        let Some(Frame::Record {
            node,
            serial,
            prev,
            value,
        }) = self.stack.last_mut()
        else {
            panic!("a key outside an object");
        };
        let found = self.trie.field_of(*node, *prev, name);
        let field = &mut self.trie.fields[found];
        // The data model keeps a repeated key's last value only; the
        // first is already counted, so the whole document is replayed.
        self.duplicate_key |= field.stamp == *serial;
        field.stamp = *serial;
        field.presence += 1;
        self.undo.push(Undo::Field(found));
        *prev = found;
        *value = field.value;
    }

    /// The innermost open object closes.
    #[inline]
    pub fn end_object(&mut self) {
        let closed = self.stack.pop();
        debug_assert!(matches!(closed, Some(Frame::Record { .. })));
    }

    /// An array opens.
    #[inline]
    pub fn start_array(&mut self) {
        let position = self.value_position();
        let node = self.trie.array_at(position);
        let array = &mut self.trie.arrays[node];
        array.count += 1;
        self.undo.push(Undo::Array(node));
        self.stack.push(Frame::Array {
            node,
            item: array.item,
            len: 0,
        });
    }

    /// The innermost open array closes.
    #[inline]
    pub fn end_array(&mut self) {
        let Some(Frame::Array { node, len, .. }) = self.stack.pop() else {
            panic!("an array end without its start");
        };
        self.trie.arrays[node].total_items += len;
        self.undo.push(Undo::Items(node, len));
    }

    /// Settles a fully delivered document. `true`: it is counted.
    /// `false`: it repeated a key inside one object, so it was taken back
    /// ([`rollback`](Self::rollback)) and the caller must type it some
    /// other way.
    #[must_use = "a document that was not counted must be typed another way"]
    pub fn commit(&mut self) -> bool {
        debug_assert!(self.stack.is_empty(), "commit inside a document");
        if self.duplicate_key {
            self.rollback();
            return false;
        }
        self.undo.clear();
        true
    }

    /// Takes back every increment since the last settled document — for
    /// one abandoned after any number of events. Structure and names the
    /// document introduced stay, counting nothing.
    pub fn rollback(&mut self) {
        self.stack.clear();
        self.duplicate_key = false;
        let trie = &mut self.trie;
        for increment in self.undo.drain(..) {
            match increment {
                Undo::Scalar(position, kind) => {
                    trie.positions[position].scalars[kind as usize] -= 1
                }
                Undo::Array(node) => trie.arrays[node].count -= 1,
                Undo::Items(node, len) => trie.arrays[node].total_items -= len,
                Undo::Record(node) => trie.records[node].count -= 1,
                Undo::Field(field) => trie.fields[field].presence -= 1,
            }
        }
    }

    /// The type of every document committed since the last `take`, as
    /// [`fuse_all`](crate::fuse_all) would build it; counting restarts
    /// from zero over the structure and names learnt so far.
    pub fn take(&mut self) -> JType {
        debug_assert!(
            self.stack.is_empty() && self.undo.is_empty(),
            "take inside a document"
        );
        self.trie.take_position(ROOT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fuse, infer_value, Equivalence};
    use jsonx_data::{json, Value};

    /// Walks a DOM value as the events a decoder would deliver.
    fn feed(acc: &mut TypeAccumulator, value: &Value) {
        match value {
            Value::Null => acc.scalar(ScalarKind::Null),
            Value::Bool(_) => acc.scalar(ScalarKind::Bool),
            Value::Num(n) if n.is_integer() => acc.scalar(ScalarKind::Int),
            Value::Num(_) => acc.scalar(ScalarKind::Float),
            Value::Str(_) => acc.scalar(ScalarKind::Str),
            Value::Arr(items) => {
                acc.start_array();
                items.iter().for_each(|item| feed(acc, item));
                acc.end_array();
            }
            Value::Obj(obj) => {
                acc.start_object();
                for (k, v) in obj.iter() {
                    acc.key(k);
                    feed(acc, v);
                }
                acc.end_object();
            }
        }
    }

    fn kind(values: &[Value]) -> JType {
        crate::infer_collection(values, Equivalence::Kind)
    }

    #[test]
    fn equals_map_then_fuse_and_restarts_clean_after_take() {
        let docs = [
            json!({"id": 1, "tags": ["a", 2, null], "geo": {"lat": 1.5}}),
            json!({"id": "x", "geo": null, "tags": []}),
            json!([1, {"k": true}, [2.5]]),
            json!(42),
            json!({}),
        ];
        let mut acc = TypeAccumulator::new();
        for doc in &docs {
            feed(&mut acc, doc);
            assert!(acc.commit());
        }
        assert_eq!(acc.take(), kind(&docs));
        assert_eq!(acc.take(), JType::Bottom);
        // Only what the next chunk saw: no `tags`, `geo` or array member
        // survives as zero-count structure.
        feed(&mut acc, &docs[3]);
        assert!(acc.commit());
        feed(&mut acc, &json!({"id": 2}));
        assert!(acc.commit());
        assert_eq!(acc.take(), kind(&[json!(42), json!({"id": 2})]));
    }

    #[test]
    fn rollback_after_any_number_of_events_leaves_no_trace() {
        let mut acc = TypeAccumulator::new();
        let doc = json!({"a": [1, {"b": null}], "c": "s"});
        feed(&mut acc, &doc);
        assert!(acc.commit());
        // An abandoned walk: open containers, a pending key, new names.
        acc.start_object();
        acc.key("a");
        acc.start_array();
        acc.scalar(ScalarKind::Str);
        acc.start_object();
        acc.key("new");
        acc.rollback();
        assert_eq!(acc.take(), kind(&[doc]));
        // What the abandoned walk introduced counts nothing later either.
        feed(&mut acc, &json!({"a": []}));
        assert!(acc.commit());
        assert_eq!(acc.take(), kind(&[json!({"a": []})]));
    }

    #[test]
    fn a_key_repeated_in_one_object_is_taken_back_for_replay() {
        let mut acc = TypeAccumulator::new();
        feed(&mut acc, &json!({"a": 1}));
        assert!(acc.commit());
        acc.start_object();
        acc.key("a");
        acc.scalar(ScalarKind::Int);
        acc.key("b");
        acc.scalar(ScalarKind::Bool);
        acc.key("a");
        acc.scalar(ScalarKind::Str);
        acc.end_object();
        assert!(!acc.commit());
        // The caller types it from the DOM, where the last value won.
        let replayed = infer_value(&json!({"a": "s", "b": true}), Equivalence::Kind);
        assert_eq!(
            fuse(acc.take(), replayed, Equivalence::Kind),
            kind(&[json!({"a": 1}), json!({"a": "s", "b": true})])
        );
    }

    #[test]
    fn the_same_key_in_sibling_objects_is_not_a_duplicate() {
        let mut acc = TypeAccumulator::new();
        let doc = json!([{"a": 1}, {"a": 2}, {"a": {"a": 3}}]);
        feed(&mut acc, &doc);
        assert!(acc.commit());
        assert_eq!(acc.take(), kind(&[doc]));
    }

    #[test]
    fn reordered_and_optional_keys_only_miss_the_guess() {
        let docs = [
            json!({"a": 1, "b": 2, "c": 3}),
            json!({"c": 1, "a": 2}),
            json!({"b": null, "c": 1, "a": 2.5, "d": "new"}),
            json!({"a": 1, "c": 3}),
        ];
        let mut acc = TypeAccumulator::new();
        for doc in &docs {
            feed(&mut acc, doc);
            assert!(acc.commit());
        }
        assert_eq!(acc.take(), kind(&docs));
    }
}
