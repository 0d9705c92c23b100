//! Whole-collection tools on the engine: what a run does with each
//! record's document.
//!
//! Paper §4's collection tools — mongodb-schema's field profile, Wang et
//! al.'s skeletons, Jaql's typed pipelines, Mison-style projection — and
//! §5's Avro and relational targets each read whole documents. A
//! [`DocumentFold`] says what one of them does with one document and how
//! two chunks' results fuse; [`Run::documents`](crate::Run::documents)
//! runs it: the run's own decoder turns each accepted record into a
//! [`Value`], so the run's limits, its byte-order-mark and blank-line
//! rules, the fault layer, chunking and workers all apply, and chunk
//! results merge in input order. No fold here but [`CollectFold`] keeps
//! the documents it is fed.
//!
//! ```
//! use jsonx::documents::ProfileFold;
//! use jsonx::{Run, Source};
//!
//! let ndjson = "{\"a\": 1}\n{\"a\": \"x\", \"b\": [true]}\n";
//! let run = Run { workers: 2, chunk_bytes: 16, ..Run::default() };
//! let (profile, _) = run.documents(Source::slice(ndjson), &ProfileFold).unwrap();
//! assert_eq!(profile.total_docs(), 2);
//! assert!(profile.report().contains("b[] p=0.50 [boolean×1]"));
//! ```

use crate::streaming::{LineDecoder, RecordIssue, RecordStage};
use jsonx_baselines::MongoProfiler;
use jsonx_core::JType;
use jsonx_data::{Object, Value};
use jsonx_jaql::{Op, Pipeline};
use jsonx_mison::project::ProjectError;
use jsonx_pipeline::Route;
use jsonx_skeleton::StructTree;
use jsonx_syntax::{to_string, RecordDecoder};
use jsonx_translate::{AvroCodec, AvroSchema};
use std::collections::{BTreeMap, HashMap};

/// What a run does with each accepted record's document: each worker
/// feeds a chunk's documents, one at a time, into an `Out` that starts
/// as `Out::default()`, and the chunks' `Out`s fuse in chunk order. When
/// `merge` of two equals feeding the second chunk's documents after the
/// first's, the run's result is the sequential fold's at every worker
/// count and chunk size.
pub trait DocumentFold: Sync {
    /// What the fold accumulates; the default is the empty result.
    type Out: Default + Send;

    /// Folds one document; `Err` rejects its record under the run's
    /// error policy, as a record that does not decode is rejected.
    fn feed(&self, out: &mut Self::Out, doc: Value) -> Result<(), RecordIssue>;
    /// Fuses two chunks' results, the earlier chunk's first.
    fn merge(&self, left: Self::Out, right: Self::Out) -> Self::Out;
}

/// The document stage: every record decoded to a document by the run's
/// decoder, then handed to the fold.
pub(crate) struct DocumentStage<'f, F> {
    pub(crate) fold: &'f F,
    pub(crate) decoder: LineDecoder,
}

impl<F: DocumentFold> RecordStage for DocumentStage<'_, F> {
    type State = F::Out;
    type Out = F::Out;

    fn init(&self) -> F::Out {
        F::Out::default()
    }

    #[inline]
    fn record(&self, out: &mut F::Out, line: &str, _record: usize) -> Result<Route, RecordIssue> {
        let doc = self
            .decoder
            .decode_value(&mut (), line)
            .map_err(RecordIssue::Parse)?;
        self.fold.feed(out, doc)?;
        Ok(Route::Fast)
    }

    fn merge(&self, left: F::Out, right: F::Out) -> F::Out {
        self.fold.merge(left, right)
    }

    fn take(&self, out: &mut F::Out) -> F::Out {
        std::mem::take(out)
    }
}

/// `jsonx profile`: a [`MongoProfiler`] per worker, merged in chunk
/// order ([`MongoProfiler::merge`]) — the profile of observing every
/// document in order.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileFold;

impl DocumentFold for ProfileFold {
    type Out = MongoProfiler;

    fn feed(&self, profiler: &mut MongoProfiler, doc: Value) -> Result<(), RecordIssue> {
        profiler.observe(&doc);
        Ok(())
    }

    fn merge(&self, mut left: MongoProfiler, right: MongoProfiler) -> MongoProfiler {
        left.merge(right);
        left
    }
}

/// `jsonx skeleton`: how many documents have each structure, summed over
/// chunks. [`Skeleton::from_counts`](jsonx_skeleton::Skeleton::from_counts)
/// ranks and cuts them.
#[derive(Debug, Clone, Copy, Default)]
pub struct SkeletonFold;

impl DocumentFold for SkeletonFold {
    type Out = HashMap<StructTree, u64>;

    fn feed(&self, counts: &mut Self::Out, doc: Value) -> Result<(), RecordIssue> {
        *counts.entry(StructTree::of(&doc)).or_insert(0) += 1;
        Ok(())
    }

    fn merge(&self, left: Self::Out, right: Self::Out) -> Self::Out {
        let (mut into, from) = match left.len() >= right.len() {
            true => (left, right),
            false => (right, left),
        };
        for (tree, n) in from {
            *into.entry(tree).or_insert(0) += n;
        }
        into
    }
}

/// `jsonx query`: a Jaql pipeline evaluated one document at a time.
///
/// Filter, transform and expand map each document to rows of its own,
/// so the stages before the first top-n run per document; a chunk keeps
/// at most that top's `n` rows, and so does each merge. The stages after
/// it run once over the merged rows, in [`finish`](Self::finish): the
/// rows are `query.eval(docs)`'s.
#[derive(Debug, Clone)]
pub struct QueryFold {
    per_document: Pipeline,
    top: Option<usize>,
    after_top: Pipeline,
}

impl QueryFold {
    /// The fold of `query`.
    pub fn new(query: &Pipeline) -> QueryFold {
        let cut = query.ops.iter().position(|op| matches!(op, Op::Top(_)));
        let (head, tail) = query.ops.split_at(cut.unwrap_or(query.ops.len()));
        let top = match tail.first() {
            Some(Op::Top(n)) => Some(*n),
            _ => None,
        };
        QueryFold {
            per_document: Pipeline { ops: head.to_vec() },
            top,
            after_top: Pipeline {
                ops: tail.iter().skip(1).cloned().collect(),
            },
        }
    }

    /// The query's rows, from the rows a run merged.
    pub fn finish(&self, rows: Vec<Value>) -> Vec<Value> {
        match self.after_top.ops.is_empty() {
            true => rows,
            false => self.after_top.eval(&rows),
        }
    }

    fn cut(&self, rows: &mut Vec<Value>) {
        if let Some(n) = self.top {
            rows.truncate(n);
        }
    }
}

impl DocumentFold for QueryFold {
    type Out = Vec<Value>;

    fn feed(&self, rows: &mut Vec<Value>, doc: Value) -> Result<(), RecordIssue> {
        if self.top.is_some_and(|n| rows.len() >= n) {
            return Ok(());
        }
        rows.extend(self.per_document.eval(std::slice::from_ref(&doc)));
        self.cut(rows);
        Ok(())
    }

    fn merge(&self, mut left: Vec<Value>, right: Vec<Value>) -> Vec<Value> {
        left.extend(right);
        self.cut(&mut left);
        left
    }
}

/// `jsonx project`: the requested dotted paths of each document as one
/// compact JSON line, in the shape
/// [`ProjectedParser`](jsonx_mison::ProjectedParser) gives — an object
/// of the fields found, in document order, a nested path as a nested
/// object, a missing field absent. A document whose root is no object,
/// or a path through a field that is no object, rejects its record.
#[derive(Debug, Clone)]
pub struct ProjectFold {
    wanted: Fields,
}

/// A tree of wanted fields: `["id", "user.name"]` is
/// `{id: {}, user: {name: {}}}`, a leaf taken whole.
#[derive(Debug, Clone, Default)]
struct Fields(BTreeMap<String, Fields>);

impl ProjectFold {
    /// The fold projecting `paths`; an empty path or segment is refused.
    pub fn new(paths: &[&str]) -> Result<ProjectFold, ProjectError> {
        let mut wanted = Fields::default();
        for path in paths {
            let mut node = &mut wanted;
            for seg in path.split('.') {
                if seg.is_empty() {
                    return Err(ProjectError::BadFieldPath(path.to_string()));
                }
                node = node.0.entry(seg.to_string()).or_default();
            }
        }
        Ok(ProjectFold { wanted })
    }
}

fn select(doc: Object, wanted: &Fields) -> Result<Object, RecordIssue> {
    let mut out = Object::new();
    for (key, value) in doc {
        let Some(sub) = wanted.0.get(&key) else {
            continue;
        };
        let value = match value {
            value if sub.0.is_empty() => value,
            Value::Obj(inner) => Value::Obj(select(inner, sub)?),
            _ => {
                let field = ProjectError::NotAnObjectAt { field: key };
                return Err(RecordIssue::Refused(field.to_string()));
            }
        };
        out.insert(key, value);
    }
    Ok(out)
}

impl DocumentFold for ProjectFold {
    type Out = Vec<String>;

    fn feed(&self, rows: &mut Vec<String>, doc: Value) -> Result<(), RecordIssue> {
        let Value::Obj(doc) = doc else {
            return Err(RecordIssue::NotARecord);
        };
        rows.push(to_string(&Value::Obj(select(doc, &self.wanted)?)));
        Ok(())
    }

    fn merge(&self, mut left: Vec<String>, right: Vec<String>) -> Vec<String> {
        left.extend(right);
        left
    }
}

/// `jsonx convert --to avro`: how many documents, and how many bytes
/// their Avro-flavoured binary rows take under one writer schema.
#[derive(Debug, Clone)]
pub struct AvroFold {
    codec: AvroCodec,
}

impl AvroFold {
    /// Encodes under the writer schema [`AvroSchema::from_type`] derives
    /// from `ty` — the collection's type, for every document to fit.
    pub fn new(ty: &JType) -> AvroFold {
        AvroFold {
            codec: AvroCodec::new(AvroSchema::from_type(ty)),
        }
    }
}

impl DocumentFold for AvroFold {
    /// `(documents, bytes)`.
    type Out = (usize, usize);

    fn feed(&self, (docs, bytes): &mut (usize, usize), doc: Value) -> Result<(), RecordIssue> {
        let row = self
            .codec
            .encode(&doc)
            .map_err(|e| RecordIssue::Refused(e.to_string()))?;
        *docs += 1;
        *bytes += row.len();
        Ok(())
    }

    fn merge(&self, left: (usize, usize), right: (usize, usize)) -> (usize, usize) {
        (left.0 + right.0, left.1 + right.1)
    }
}

/// The documents themselves, in input order: for a tool that needs the
/// whole collection at once — `jsonx convert --to relational`, whose
/// functional-dependency decomposition compares every row with every
/// other.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectFold;

impl DocumentFold for CollectFold {
    type Out = Vec<Value>;

    fn feed(&self, docs: &mut Vec<Value>, doc: Value) -> Result<(), RecordIssue> {
        docs.push(doc);
        Ok(())
    }

    fn merge(&self, mut left: Vec<Value>, right: Vec<Value>) -> Vec<Value> {
        left.extend(right);
        left
    }
}
