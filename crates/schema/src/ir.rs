//! The flat validation IR and the one walk that evaluates it.
//!
//! [`CompiledSchema::compile`](crate::CompiledSchema::compile) lowers the
//! boxed [`Schema`] AST into an arena of [`IrNode`]s where every subschema
//! edge — combinator branches, `items`, `properties` values, and crucially
//! `$ref` targets — is a plain `u32` index. Resolving a reference at
//! validation time is therefore an array index instead of a pointer walk
//! over the source document plus a compile; `properties` tables are sorted
//! for binary search; `type` lists become a kind bitmask; and `pattern`
//! regexes live in deduplicated slots, each analysed once into a
//! specialised [`MatchPlan`](jsonx_regex::MatchPlan) (anchored literal,
//! fixed class sequence, class repetition) with the Pike VM — driven by
//! one reusable [`Matcher`](jsonx_regex::Matcher) — as fallback.
//!
//! One walk over a [`Value`] evaluates that arena, written once and
//! generic over what a failed keyword does (its *face*). The **verdict
//! face** ([`FastValidator::is_valid`], [`CompiledSchema::is_valid`])
//! stops at the first violation, builds no instance path and renders no
//! message, and in steady state (validator reused across documents)
//! allocates nothing. The **errors face** ([`CompiledSchema::validate`])
//! records each violation with its instance path and goes on; the
//! combinators, `contains`, `propertyNames` and schema `dependencies` it
//! judges with the verdict face. A verdict and its diagnostics therefore
//! come from the same arena, in the same keyword order. [`EventValidator`]
//! evaluates the arena a third way, from a record's parse events.
//!
//! The AST interpreter this walk replaced is kept under `tests/oracle/`
//! as the test suites' reference (`tests/prop_ir_agreement.rs` holds both
//! faces to it, error for error).

use crate::ast::{CompiledPattern, Dependency, Items, Schema, SchemaNode};
use crate::errors::{SchemaError, ValidationError, ValidationErrorKind};
use crate::formats::check_format;
use crate::parse::{resolve_and_compile, CompiledSchema};
use crate::validate::ValidatorOptions;
use jsonx_data::{all_unique, Kind, Number, Token, Value};
use jsonx_regex::{MatchPlan, Matcher, Regex};
use std::collections::{BTreeMap, HashMap};

/// Arena index of the shared `Any` node.
const ANY: u32 = 0;
/// Arena index of the shared `Never` node.
const NEVER: u32 = 1;

/// The lowered schema document: every node of the (ref-expanded) schema
/// graph, flat.
#[derive(Debug)]
pub(crate) struct Ir {
    nodes: Vec<IrNode>,
    patterns: Vec<IrPattern>,
    root: u32,
    /// The tables of the event walk, or the first keyword that keeps this
    /// schema out of the streamable fragment.
    walk: Result<Walk, &'static str>,
}

/// One deduplicated pattern slot: the compiled automaton plus the
/// specialised plan chosen for it at build time.
#[derive(Debug)]
struct IrPattern {
    regex: Regex,
    plan: MatchPlan,
    /// The pattern as written, for the `pattern` error.
    source: String,
}

impl IrPattern {
    /// Unanchored search via the plan, falling back to the Pike VM.
    #[inline]
    fn is_match(&self, matcher: &mut Matcher, text: &str) -> bool {
        match self.plan.eval(text) {
            Some(hit) => hit,
            None => self.regex.is_match_with(matcher, text),
        }
    }
}

/// One arena node.
#[derive(Debug)]
enum IrNode {
    /// Accepts everything (`true`, `{}`).
    Any,
    /// Rejects everything (`false`).
    Never,
    /// A `$ref` site with its target pre-resolved to an arena index, and
    /// the reference as written (what a refused cycle names).
    Ref { target: u32, reference: Box<str> },
    /// A `$ref` whose target is missing or not a schema; always rejects,
    /// with the reference and why it failed to compile as the error.
    BadRef {
        reference: Box<str>,
        error: Box<str>,
    },
    /// A constraining keyword node.
    Node(Box<IrSchemaNode>),
}

/// [`SchemaNode`] with every subschema edge flattened to an arena index.
#[derive(Debug, Default)]
struct IrSchemaNode {
    /// `type` as a bitmask over [`Kind`]s, subsumption pre-applied.
    types: Option<u8>,
    /// `type` as listed, in schema order, for the `type` error.
    type_names: Vec<Kind>,
    enumeration: Option<Vec<Value>>,
    const_value: Option<Value>,

    all_of: Vec<u32>,
    any_of: Vec<u32>,
    one_of: Vec<u32>,
    not: Option<u32>,
    if_schema: Option<u32>,
    then_schema: Option<u32>,
    else_schema: Option<u32>,

    min_length: Option<u64>,
    max_length: Option<u64>,
    /// Index into the shared pattern slot table.
    pattern: Option<u32>,
    format: Option<String>,

    minimum: Option<Number>,
    maximum: Option<Number>,
    exclusive_minimum: Option<Number>,
    exclusive_maximum: Option<Number>,
    multiple_of: Option<Number>,

    items: Option<IrItems>,
    additional_items: Option<u32>,
    min_items: Option<u64>,
    max_items: Option<u64>,
    unique_items: bool,
    contains: Option<u32>,

    /// Sorted by name for binary search.
    properties: Vec<(String, u32)>,
    /// (pattern slot, schema index) pairs.
    pattern_properties: Vec<(u32, u32)>,
    additional_properties: Option<u32>,
    required: Vec<String>,
    min_properties: Option<u64>,
    max_properties: Option<u64>,
    property_names: Option<u32>,
    dependencies: Vec<(String, IrDependency)>,
}

#[derive(Debug)]
enum IrItems {
    All(u32),
    Tuple(Vec<u32>),
}

#[derive(Debug)]
enum IrDependency {
    Keys(Vec<String>),
    Schema(u32),
}

/// The bit of one kind in a `type` mask.
fn kind_bit(kind: Kind) -> u8 {
    match kind {
        Kind::Null => 1 << 0,
        Kind::Boolean => 1 << 1,
        Kind::Integer => 1 << 2,
        Kind::Number => 1 << 3,
        Kind::String => 1 << 4,
        Kind::Array => 1 << 5,
        Kind::Object => 1 << 6,
    }
}

/// The set of kinds `declared` accepts, as a mask (`number ⊇ integer`).
fn subsumed_bits(declared: Kind) -> u8 {
    match declared {
        Kind::Number => kind_bit(Kind::Number) | kind_bit(Kind::Integer),
        other => kind_bit(other),
    }
}

/// Follows `Ref` chains from `idx` to a non-reference node. Every chain
/// ends: a cycle of references alone consumes no input, and `build`
/// refuses those.
fn deref(nodes: &[IrNode], mut idx: u32) -> &IrNode {
    while let IrNode::Ref { target, .. } = &nodes[idx as usize] {
        idx = *target;
    }
    &nodes[idx as usize]
}

impl Ir {
    /// The root-level field names the fail-fast validator's verdict can
    /// depend on — what a projecting scan may keep (no product stage
    /// projects; see [`CompiledSchema::root_projection`]).
    ///
    /// Returns `Some(names)` only when validating an **object** document
    /// provably reads nothing but the named fields: the root (after
    /// `$ref`s) is `Any`/`Never`, or a keyword node with no enum/const,
    /// no combinators or conditional schemas, no pattern/name/count/
    /// dependency constraints over properties, and whose
    /// `additionalProperties` is absent or accepts everything. The names
    /// are the declared `properties` plus `required` (membership in
    /// `required` must remain observable). `None` means a projecting
    /// scan must hand whole records to the full parser + validator.
    pub(crate) fn root_projection(&self) -> Option<Vec<String>> {
        match deref(&self.nodes, self.root) {
            // The verdict ignores document content entirely; every field
            // can be skipped.
            IrNode::Any | IrNode::Never => Some(Vec::new()),
            IrNode::BadRef { .. } => None,
            IrNode::Ref { .. } => unreachable!("deref follows every reference"),
            IrNode::Node(n) => {
                let clean = n.enumeration.is_none()
                    && n.const_value.is_none()
                    && n.all_of.is_empty()
                    && n.any_of.is_empty()
                    && n.one_of.is_empty()
                    && n.not.is_none()
                    && n.if_schema.is_none()
                    && n.then_schema.is_none()
                    && n.else_schema.is_none()
                    && n.pattern_properties.is_empty()
                    && n.property_names.is_none()
                    && n.dependencies.is_empty()
                    && n.min_properties.is_none()
                    && n.max_properties.is_none();
                if !clean {
                    return None;
                }
                if let Some(extra) = n.additional_properties {
                    if !matches!(deref(&self.nodes, extra), IrNode::Any) {
                        return None;
                    }
                }
                let mut names: Vec<String> =
                    n.properties.iter().map(|(name, _)| name.clone()).collect();
                names.extend(n.required.iter().cloned());
                names.sort();
                names.dedup();
                Some(names)
            }
        }
    }
}

/// The tables [`build`] returns: the arena, and every reachable reference
/// resolved (or failed), which [`CompiledSchema::resolve_ref`] serves
/// lookups from.
type Built = (Ir, HashMap<String, Result<Schema, SchemaError>>);

/// Lowers a compiled AST into the IR, resolving every reachable `$ref`
/// against `source` exactly once, and refuses a schema that is not well
/// formed (see [`refuse_unguarded_cycles`]).
pub(crate) fn build(root: &Schema, source: &Value) -> Result<Built, SchemaError> {
    let mut b = Builder {
        source,
        nodes: vec![IrNode::Any, IrNode::Never],
        patterns: Vec::new(),
        pattern_slots: HashMap::new(),
        ref_slots: HashMap::new(),
        ref_table: HashMap::new(),
    };
    let root_idx = b.lower(root);
    refuse_unguarded_cycles(&b.nodes)?;
    Ok((
        Ir {
            walk: plan_walk(&b.nodes, root_idx),
            nodes: b.nodes,
            patterns: b.patterns,
            root: root_idx,
        },
        b.ref_table,
    ))
}

/// The positions that judge the very value `node` judges: a reference's
/// target, the combinators' branches, `if` / `then` / `else` and schema
/// `dependencies`. Every other subschema edge moves to a member, an
/// element or a property name.
fn same_instance(node: &IrNode) -> Vec<u32> {
    match node {
        IrNode::Ref { target, .. } => vec![*target],
        IrNode::Node(n) => {
            let conditional = [n.not, n.if_schema, n.then_schema, n.else_schema];
            let dependencies = n.dependencies.iter().filter_map(|(_, dep)| match dep {
                IrDependency::Schema(schema) => Some(*schema),
                IrDependency::Keys(_) => None,
            });
            n.all_of
                .iter()
                .chain(&n.any_of)
                .chain(&n.one_of)
                .copied()
                .chain(conditional.into_iter().flatten())
                .chain(dependencies)
                .collect()
        }
        IrNode::Any | IrNode::Never | IrNode::BadRef { .. } => Vec::new(),
    }
}

/// Refuses a schema that recurses without consuming input: a cycle of
/// [`same_instance`] edges. Pezoa et al. give meaning only to well-formed
/// schemas, where every cycle of references passes through a keyword
/// that moves to a sub-instance; the evaluators rely on it to end. The
/// arena is a tree except at `Ref`, so such a cycle holds a reference,
/// and the error names the cycle's references in order.
fn refuse_unguarded_cycles(nodes: &[IrNode]) -> Result<(), SchemaError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Unseen,
        OnPath,
        Finished,
    }
    let mut marks = vec![Mark::Unseen; nodes.len()];
    // A depth-first path of positions, each with the edges not yet taken.
    let mut path: Vec<(u32, std::vec::IntoIter<u32>)> = Vec::new();
    for start in 0..nodes.len() as u32 {
        if marks[start as usize] != Mark::Unseen {
            continue;
        }
        marks[start as usize] = Mark::OnPath;
        path.push((start, same_instance(&nodes[start as usize]).into_iter()));
        while let Some((position, edges)) = path.last_mut() {
            let Some(next) = edges.next() else {
                marks[*position as usize] = Mark::Finished;
                path.pop();
                continue;
            };
            match marks[next as usize] {
                Mark::Finished => {}
                Mark::Unseen => {
                    marks[next as usize] = Mark::OnPath;
                    path.push((next, same_instance(&nodes[next as usize]).into_iter()));
                }
                Mark::OnPath => {
                    let from = path.iter().position(|(p, _)| *p == next);
                    let mut cycle: Vec<&str> = path[from.expect("on the path")..]
                        .iter()
                        .filter_map(|(p, _)| match &nodes[*p as usize] {
                            IrNode::Ref { reference, .. } => Some(&**reference),
                            _ => None,
                        })
                        .collect();
                    // Begin and end with the reference that closes the cycle.
                    let closing = *cycle.last().expect("a cycle passes a reference");
                    cycle.insert(0, closing);
                    return Err(SchemaError::new(
                        closing,
                        format!(
                            "the schema recurses without consuming input: {} \
                             (a well-formed schema's every cycle of references passes through \
                             properties, patternProperties, additionalProperties, items, \
                             additionalItems, contains or propertyNames)",
                            cycle.join(" → ")
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

struct Builder<'a> {
    source: &'a Value,
    nodes: Vec<IrNode>,
    patterns: Vec<IrPattern>,
    /// Pattern source → slot, so identical patterns share one automaton.
    pattern_slots: HashMap<String, u32>,
    /// Reference text → arena slot of the compiled target body (or, for
    /// an unresolvable reference, the text of its compile error).
    ref_slots: HashMap<String, Result<u32, String>>,
    ref_table: HashMap<String, Result<Schema, SchemaError>>,
}

impl<'a> Builder<'a> {
    fn push(&mut self, node: IrNode) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        idx
    }

    fn lower(&mut self, schema: &Schema) -> u32 {
        match schema {
            Schema::Any => ANY,
            Schema::Never => NEVER,
            Schema::Node(_) => {
                let node = self.lower_value(schema);
                self.push(node)
            }
        }
    }

    fn lower_value(&mut self, schema: &Schema) -> IrNode {
        match schema {
            Schema::Any => IrNode::Any,
            Schema::Never => IrNode::Never,
            Schema::Node(node) => {
                // `$ref` siblings are ignored (draft-04/06).
                if let Some(reference) = &node.reference {
                    match self.ref_target(reference) {
                        Ok(target) => IrNode::Ref {
                            target,
                            reference: reference.as_str().into(),
                        },
                        Err(error) => IrNode::BadRef {
                            reference: reference.as_str().into(),
                            error: error.into(),
                        },
                    }
                } else {
                    IrNode::Node(Box::new(self.lower_fields(node)))
                }
            }
        }
    }

    /// The arena slot of `reference`'s compiled body, compiling it on
    /// first sight. A placeholder reserved *before* the recursive lowering
    /// lets cyclic references close over their own slot.
    fn ref_target(&mut self, reference: &str) -> Result<u32, String> {
        if let Some(slot) = self.ref_slots.get(reference) {
            return slot.clone();
        }
        match resolve_and_compile(self.source, reference) {
            Ok(ast) => {
                let slot = self.nodes.len() as u32;
                self.nodes.push(IrNode::Any); // placeholder
                self.ref_slots.insert(reference.to_string(), Ok(slot));
                self.ref_table
                    .insert(reference.to_string(), Ok(ast.clone()));
                let lowered = self.lower_value(&ast);
                self.nodes[slot as usize] = lowered;
                Ok(slot)
            }
            Err(e) => {
                let error = e.to_string();
                self.ref_slots
                    .insert(reference.to_string(), Err(error.clone()));
                self.ref_table.insert(reference.to_string(), Err(e));
                Err(error)
            }
        }
    }

    fn pattern_slot(&mut self, pattern: &CompiledPattern) -> u32 {
        if let Some(&slot) = self.pattern_slots.get(&pattern.source) {
            return slot;
        }
        let slot = self.patterns.len() as u32;
        self.patterns.push(IrPattern {
            plan: pattern.regex.plan(),
            regex: pattern.regex.clone(),
            source: pattern.source.clone(),
        });
        self.pattern_slots.insert(pattern.source.clone(), slot);
        slot
    }

    fn lower_opt(&mut self, schema: &Option<Schema>) -> Option<u32> {
        schema.as_ref().map(|s| self.lower(s))
    }

    fn lower_all(&mut self, schemas: &[Schema]) -> Vec<u32> {
        schemas.iter().map(|s| self.lower(s)).collect()
    }

    fn lower_fields(&mut self, node: &SchemaNode) -> IrSchemaNode {
        let mut properties: Vec<(String, u32)> = node
            .properties
            .iter()
            .map(|(name, s)| (name.clone(), self.lower(s)))
            .collect();
        properties.sort_by(|(a, _), (b, _)| a.cmp(b));
        IrSchemaNode {
            types: node
                .types
                .as_ref()
                .map(|ts| ts.iter().fold(0u8, |m, t| m | subsumed_bits(*t))),
            type_names: node.types.clone().unwrap_or_default(),
            enumeration: node.enumeration.clone(),
            const_value: node.const_value.clone(),
            all_of: self.lower_all(&node.all_of),
            any_of: self.lower_all(&node.any_of),
            one_of: self.lower_all(&node.one_of),
            not: self.lower_opt(&node.not),
            if_schema: self.lower_opt(&node.if_schema),
            then_schema: self.lower_opt(&node.then_schema),
            else_schema: self.lower_opt(&node.else_schema),
            min_length: node.min_length,
            max_length: node.max_length,
            pattern: node.pattern.as_ref().map(|p| self.pattern_slot(p)),
            format: node.format.clone(),
            minimum: node.minimum,
            maximum: node.maximum,
            exclusive_minimum: node.exclusive_minimum,
            exclusive_maximum: node.exclusive_maximum,
            multiple_of: node.multiple_of,
            items: node.items.as_ref().map(|items| match items {
                Items::All(s) => IrItems::All(self.lower(s)),
                Items::Tuple(ss) => IrItems::Tuple(self.lower_all(ss)),
            }),
            additional_items: self.lower_opt(&node.additional_items),
            min_items: node.min_items,
            max_items: node.max_items,
            unique_items: node.unique_items,
            contains: self.lower_opt(&node.contains),
            properties,
            pattern_properties: node
                .pattern_properties
                .iter()
                .map(|(p, s)| (self.pattern_slot(p), self.lower(s)))
                .collect(),
            additional_properties: self.lower_opt(&node.additional_properties),
            required: node.required.clone(),
            min_properties: node.min_properties,
            max_properties: node.max_properties,
            property_names: self.lower_opt(&node.property_names),
            dependencies: node
                .dependencies
                .iter()
                .map(|(name, dep)| {
                    let dep = match dep {
                        Dependency::Keys(keys) => IrDependency::Keys(keys.clone()),
                        Dependency::Schema(s) => IrDependency::Schema(self.lower(s)),
                    };
                    (name.clone(), dep)
                })
                .collect(),
        }
    }
}

/// The reusable arena walker, and the fail-fast verdict over it.
///
/// Holds the mutable scratch the arena walk needs — one regex
/// [`Matcher`], and a string buffer for `propertyNames` probes (and the
/// strings [`EventValidator`] hands over) — so validating many documents
/// through one `FastValidator` allocates nothing in steady state. Create one per worker thread; it is deliberately `!Sync` (cheap
/// to construct, not to share).
pub struct FastValidator<'s> {
    ir: &'s Ir,
    options: ValidatorOptions,
    matcher: Matcher,
    /// Reused `Value::Str` for `propertyNames` probes and the event
    /// walk's string scalars.
    key_scratch: Value,
}

impl CompiledSchema {
    /// A fail-fast validator over this schema (default options).
    pub fn fast_validator(&self) -> FastValidator<'_> {
        self.fast_validator_with(ValidatorOptions::default())
    }

    /// A fail-fast validator with explicit options.
    pub fn fast_validator_with(&self, options: ValidatorOptions) -> FastValidator<'_> {
        FastValidator {
            ir: self.ir(),
            options,
            matcher: Matcher::new(),
            key_scratch: Value::Str(String::new()),
        }
    }
}

/// A failed keyword: `fail!(face, Kind, "message", args…)`, `Kind` a
/// [`ValidationErrorKind`] variant, hands `face` the error to render —
/// lazily: the verdict face renders nothing.
macro_rules! fail {
    ($face:expr, $kind:ident $({ $($field:tt)* })?, $($message:tt)+) => {
        $face.fail(|| (ValidationErrorKind::$kind $({ $($field)* })?, format!($($message)+)))
    };
}

/// How the walk goes on after a keyword: `Err` ends it.
type Walked = Result<(), Stop>;

/// A failed keyword under the verdict face: the walk unwinds.
struct Stop;

/// One step from a value to a member or element of it.
#[derive(Clone, Copy)]
enum Step<'v> {
    Key(&'v str),
    Index(usize),
}

/// What a failed keyword does — the one thing the verdict and the
/// diagnostics of a `Value` differ in. The walk is written once, over
/// this: it reports every failed keyword through [`fail`](Self::fail) and
/// every step into a member or element through [`enter`](Self::enter) /
/// [`leave`](Self::leave).
trait Face<'v> {
    /// The first failure is the answer: `oneOf` stops counting at two.
    const FAIL_FAST: bool;
    /// A keyword failed at the current instance location. `Err` ends the
    /// walk; a face that goes on renders the error first.
    fn fail(&mut self, error: impl FnOnce() -> (ValidationErrorKind, String)) -> Walked;
    fn enter(&mut self, step: Step<'v>);
    fn leave(&mut self);
    /// How many errors are recorded: an object-level `additionalItems` /
    /// `additionalProperties` error follows the member's own.
    fn recorded(&self) -> usize;
}

/// The verdict face: no path, no message, nothing recorded.
struct Verdict;

impl Face<'_> for Verdict {
    const FAIL_FAST: bool = true;

    #[inline(always)]
    fn fail(&mut self, _: impl FnOnce() -> (ValidationErrorKind, String)) -> Walked {
        Err(Stop)
    }

    #[inline(always)]
    fn enter(&mut self, _: Step<'_>) {}

    #[inline(always)]
    fn leave(&mut self) {}

    #[inline(always)]
    fn recorded(&self) -> usize {
        0
    }
}

/// The errors face: every failed keyword, at its instance path, in walk
/// order. What `allOf`, `anyOf`, `oneOf`, `not`, `if`, `contains`,
/// `propertyNames` and a schema `dependency` conclude is the verdict
/// face's; their branches report nothing of their own.
struct Errors<'v> {
    path: Vec<Step<'v>>,
    errors: Vec<ValidationError>,
}

impl<'v> Face<'v> for Errors<'v> {
    const FAIL_FAST: bool = false;

    fn fail(&mut self, error: impl FnOnce() -> (ValidationErrorKind, String)) -> Walked {
        let (kind, message) = error();
        let instance_path = self
            .path
            .iter()
            .map(|step| match step {
                Step::Key(key) => Token::Key(key.to_string()),
                Step::Index(i) => Token::Index(*i),
            })
            .collect();
        self.errors.push(ValidationError {
            instance_path,
            kind,
            message,
        });
        Ok(())
    }

    fn enter(&mut self, step: Step<'v>) {
        self.path.push(step);
    }

    fn leave(&mut self) {
        self.path.pop();
    }

    fn recorded(&self) -> usize {
        self.errors.len()
    }
}

impl<'s> FastValidator<'s> {
    /// True when `value` conforms: the walk's verdict face, which
    /// short-circuits on the first violation and allocates nothing.
    pub fn is_valid(&mut self, value: &Value) -> bool {
        let root = self.ir.root;
        self.probe(root, value)
    }

    /// Every violation in `value`, in walk order: the errors face.
    pub(crate) fn errors(&mut self, value: &Value) -> Vec<ValidationError> {
        let mut face = Errors {
            path: Vec::new(),
            errors: Vec::new(),
        };
        let root = self.ir.root;
        // The errors face goes on after every failure: never `Err`.
        let _ = self.walk(&mut face, root, value);
        face.errors
    }

    /// The verdict on `value` at arena index `idx`.
    fn probe(&mut self, idx: u32, value: &Value) -> bool {
        self.walk(&mut Verdict, idx, value).is_ok()
    }

    fn walk<'v, F: Face<'v>>(&mut self, face: &mut F, idx: u32, value: &'v Value) -> Walked {
        let ir = self.ir;
        match &ir.nodes[idx as usize] {
            IrNode::Any => Ok(()),
            IrNode::Never => fail!(face, Never, "schema 'false' accepts nothing"),
            IrNode::BadRef { reference, error } => fail!(
                face,
                BadRef {
                    reference: reference.to_string()
                },
                "{error}"
            ),
            IrNode::Ref { target, .. } => self.walk(face, *target, value),
            IrNode::Node(node) => self.walk_node(face, node, value),
        }
    }

    /// The walk one step below the current instance location.
    fn walk_member<'v, F: Face<'v>>(
        &mut self,
        face: &mut F,
        step: Step<'v>,
        idx: u32,
        value: &'v Value,
    ) -> Walked {
        face.enter(step);
        let walked = self.walk(face, idx, value);
        face.leave();
        walked
    }

    fn walk_node<'v, F: Face<'v>>(
        &mut self,
        face: &mut F,
        node: &'s IrSchemaNode,
        value: &'v Value,
    ) -> Walked {
        if let Some(mask) = node.types {
            if mask & kind_bit(value.kind()) == 0 {
                face.fail(|| {
                    let names: Vec<&str> = node.type_names.iter().map(|t| t.name()).collect();
                    (
                        ValidationErrorKind::Type,
                        format!("expected {}, found {}", names.join(" or "), value.kind()),
                    )
                })?;
            }
        }
        if let Some(options) = &node.enumeration {
            if !options.iter().any(|o| o == value) {
                fail!(face, Enum, "{value} is not one of the permitted values")?;
            }
        }
        if let Some(expected) = &node.const_value {
            if expected != value {
                fail!(face, Const, "expected {expected}, found {value}")?;
            }
        }
        self.walk_combinators(face, node, value)?;
        match value {
            Value::Str(s) => self.walk_string(face, node, s),
            Value::Num(n) => walk_number(face, node, *n),
            Value::Arr(items) => self.walk_array(face, node, items),
            Value::Obj(_) => self.walk_object(face, node, value),
            _ => Ok(()),
        }
    }

    fn walk_combinators<'v, F: Face<'v>>(
        &mut self,
        face: &mut F,
        node: &'s IrSchemaNode,
        value: &'v Value,
    ) -> Walked {
        for (i, &sub) in node.all_of.iter().enumerate() {
            if !self.probe(sub, value) {
                fail!(face, AllOf, "does not satisfy allOf branch {i}")?;
            }
        }
        if !node.any_of.is_empty() && !node.any_of.iter().any(|&sub| self.probe(sub, value)) {
            fail!(
                face,
                AnyOf,
                "matches none of the {} anyOf branches",
                node.any_of.len()
            )?;
        }
        if !node.one_of.is_empty() {
            let mut matched = 0usize;
            for &sub in &node.one_of {
                if self.probe(sub, value) {
                    matched += 1;
                    if F::FAIL_FAST && matched > 1 {
                        break;
                    }
                }
            }
            if matched != 1 {
                fail!(
                    face,
                    OneOf { matched },
                    "matches {matched} oneOf branches, expected exactly 1"
                )?;
            }
        }
        if let Some(negated) = node.not {
            if self.probe(negated, value) {
                fail!(face, Not, "matches the negated schema")?;
            }
        }
        if let Some(condition) = node.if_schema {
            if self.probe(condition, value) {
                if let Some(then_schema) = node.then_schema {
                    if !self.probe(then_schema, value) {
                        fail!(
                            face,
                            Conditional { then_branch: true },
                            "matches 'if' but violates 'then'"
                        )?;
                    }
                }
            } else if let Some(else_schema) = node.else_schema {
                if !self.probe(else_schema, value) {
                    fail!(
                        face,
                        Conditional { then_branch: false },
                        "fails 'if' and violates 'else'"
                    )?;
                }
            }
        }
        Ok(())
    }

    fn walk_string<'v, F: Face<'v>>(
        &mut self,
        face: &mut F,
        node: &IrSchemaNode,
        s: &str,
    ) -> Walked {
        // Lengths count Unicode scalar values, not bytes, per spec.
        if node.min_length.is_some() || node.max_length.is_some() {
            let len = s.chars().count() as u64;
            if let Some(min) = node.min_length.filter(|&min| len < min) {
                fail!(face, MinLength, "length {len} < minLength {min}")?;
            }
            if let Some(max) = node.max_length.filter(|&max| len > max) {
                fail!(face, MaxLength, "length {len} > maxLength {max}")?;
            }
        }
        if let Some(slot) = node.pattern {
            let pattern = &self.ir.patterns[slot as usize];
            if !pattern.is_match(&mut self.matcher, s) {
                fail!(face, Pattern, "does not match pattern '{}'", pattern.source)?;
            }
        }
        if self.options.enforce_formats {
            if let Some(format) = &node.format {
                if !check_format(format, s) {
                    fail!(face, Format, "'{s}' is not a valid {format}")?;
                }
            }
        }
        Ok(())
    }

    fn walk_array<'v, F: Face<'v>>(
        &mut self,
        face: &mut F,
        node: &'s IrSchemaNode,
        items: &'v [Value],
    ) -> Walked {
        let len = items.len() as u64;
        if let Some(min) = node.min_items.filter(|&min| len < min) {
            fail!(face, MinItems, "{len} items < minItems {min}")?;
        }
        if let Some(max) = node.max_items.filter(|&max| len > max) {
            fail!(face, MaxItems, "{len} items > maxItems {max}")?;
        }
        if node.unique_items && !all_unique(items) {
            fail!(face, UniqueItems, "array items are not unique")?;
        }
        match &node.items {
            Some(IrItems::All(schema)) => {
                for (i, item) in items.iter().enumerate() {
                    self.walk_member(face, Step::Index(i), *schema, item)?;
                }
            }
            Some(IrItems::Tuple(schemas)) => {
                for (i, item) in items.iter().enumerate() {
                    match schemas.get(i) {
                        Some(&schema) => self.walk_member(face, Step::Index(i), schema, item)?,
                        None => {
                            if let Some(extra) = node.additional_items {
                                let before = face.recorded();
                                self.walk_member(face, Step::Index(i), extra, item)?;
                                if face.recorded() > before {
                                    fail!(
                                        face,
                                        AdditionalItems,
                                        "item {i} violates additionalItems"
                                    )?;
                                }
                            }
                        }
                    }
                }
            }
            None => {}
        }
        if let Some(contains) = node.contains {
            if !items.iter().any(|item| self.probe(contains, item)) {
                fail!(face, Contains, "no element matches 'contains'")?;
            }
        }
        Ok(())
    }

    fn walk_object<'v, F: Face<'v>>(
        &mut self,
        face: &mut F,
        node: &'s IrSchemaNode,
        value: &'v Value,
    ) -> Walked {
        let obj = value.as_object().expect("checked by caller");
        let len = obj.len() as u64;
        if let Some(min) = node.min_properties.filter(|&min| len < min) {
            fail!(
                face,
                MinProperties,
                "{len} properties < minProperties {min}"
            )?;
        }
        if let Some(max) = node.max_properties.filter(|&max| len > max) {
            fail!(
                face,
                MaxProperties,
                "{len} properties > maxProperties {max}"
            )?;
        }
        for required in &node.required {
            if !obj.contains_key(required) {
                fail!(
                    face,
                    Required {
                        missing: required.clone()
                    },
                    "missing required property '{required}'"
                )?;
            }
        }
        for (key, member) in obj.iter() {
            let mut matched = false;
            if let Ok(pos) = node
                .properties
                .binary_search_by(|(name, _)| name.as_str().cmp(key))
            {
                matched = true;
                self.walk_member(face, Step::Key(key), node.properties[pos].1, member)?;
            }
            for &(pattern, schema) in &node.pattern_properties {
                if self.ir.patterns[pattern as usize].is_match(&mut self.matcher, key) {
                    matched = true;
                    self.walk_member(face, Step::Key(key), schema, member)?;
                }
            }
            if !matched {
                if let Some(additional) = node.additional_properties {
                    let before = face.recorded();
                    self.walk_member(face, Step::Key(key), additional, member)?;
                    if face.recorded() > before {
                        fail!(
                            face,
                            AdditionalProperties {
                                key: key.to_string()
                            },
                            "property '{key}' violates additionalProperties"
                        )?;
                    }
                }
            }
            if let Some(name_schema) = node.property_names {
                if !self.probe_str(name_schema, key) {
                    fail!(
                        face,
                        PropertyNames {
                            key: key.to_string()
                        },
                        "property name '{key}' violates propertyNames"
                    )?;
                }
            }
        }
        for (trigger, dep) in &node.dependencies {
            if !obj.contains_key(trigger) {
                continue;
            }
            match dep {
                IrDependency::Keys(keys) => {
                    for needed in keys {
                        if !obj.contains_key(needed) {
                            fail!(
                                face,
                                Dependencies {
                                    key: trigger.clone()
                                },
                                "'{trigger}' requires '{needed}' to be present"
                            )?;
                        }
                    }
                }
                IrDependency::Schema(schema) => {
                    if !self.probe(*schema, value) {
                        fail!(
                            face,
                            Dependencies {
                                key: trigger.clone()
                            },
                            "object violates the schema dependency of '{trigger}'"
                        )?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Probes a string — a property name for `propertyNames`, a string
    /// scalar for the event walk — reusing one scratch buffer instead of
    /// allocating a `Value::Str` each time.
    fn probe_str(&mut self, schema: u32, key: &str) -> bool {
        let mut scratch = std::mem::take(&mut self.key_scratch);
        match &mut scratch {
            Value::Str(buf) => {
                buf.clear();
                buf.push_str(key);
            }
            _ => scratch = Value::Str(key.to_string()),
        }
        let ok = self.probe(schema, &scratch);
        self.key_scratch = scratch;
        ok
    }
}

/// Numeric keyword checks (no scratch state needed).
fn walk_number<'v, F: Face<'v>>(face: &mut F, node: &IrSchemaNode, n: Number) -> Walked {
    if let Some(min) = node.minimum.filter(|&min| n < min) {
        fail!(face, Minimum, "{n} < minimum {min}")?;
    }
    if let Some(max) = node.maximum.filter(|&max| n > max) {
        fail!(face, Maximum, "{n} > maximum {max}")?;
    }
    if let Some(min) = node.exclusive_minimum.filter(|&min| n <= min) {
        fail!(face, ExclusiveMinimum, "{n} <= exclusiveMinimum {min}")?;
    }
    if let Some(max) = node.exclusive_maximum.filter(|&max| n >= max) {
        fail!(face, ExclusiveMaximum, "{n} >= exclusiveMaximum {max}")?;
    }
    if let Some(divisor) = node
        .multiple_of
        .filter(|divisor| !n.is_multiple_of(divisor))
    {
        fail!(face, MultipleOf, "{n} is not a multiple of {divisor}")?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The event walk: the same arena, evaluated from a record's events
// ---------------------------------------------------------------------------
//
// The streamable fragment — the scope statement of the walk, as
// `UNSUPPORTED_KEYWORDS` is the validator's. One forward pass decides a
// schema when every node a container can arrive at (reached from the root
// through `properties`, `items`/`additionalItems`, `anyOf` branches and
// `$ref`) checks that container with nothing but:
//
// * `type`;
// * `properties`, `required`, and `additionalProperties` absent, `true` or
//   `false`;
// * `items` (both forms), `additionalItems`, `minItems`, `maxItems`;
// * `$ref`;
// * `anyOf` beside no other container keyword where, for each of `array`
//   and `object`, at most one branch's `type` admits it — what
//   `to_json_schema` emits for a `Kind` union (the walk descends into that
//   branch; no branch is a violation);
// * `enum` / `const` without a container member (a container then simply
//   fails).
//
// String and number keywords never see a container, and a node whose
// `type` excludes both containers may carry any keyword at all: scalars
// are handed to [`FastValidator::probe`]. Everything else needs the whole
// container at once — `uniqueItems` and `contains` its sibling elements,
// `patternProperties` / `propertyNames` / `additionalProperties: <schema>`
// a second schema per member, `dependencies` and `minProperties` /
// `maxProperties` the key set under the last-wins rule, `allOf` / `oneOf`
// / `not` / `if` two walks of one subtree — and makes the schema
// non-streamable, by that keyword's name.

/// Mask bits of the five scalar kinds.
const SCALARS: u8 = 0b001_1111;
/// Mask bits of all seven kinds.
const ALL_KINDS: u8 = 0b111_1111;
/// The "no such key" index; `slice::get` turns it into `None`.
const NO_KEY: u32 = u32::MAX;

/// What a container arriving at a schema position meets.
#[derive(Debug, Clone, Copy)]
enum Plan {
    /// Nothing constrains it: the subtree is skipped.
    Skip,
    /// Nothing admits it: a violation.
    Fail,
    /// The [`ObjectTable`] / [`ArrayTable`] its members are walked under.
    Walk(u32),
}

/// A schema position — an arena index a value can arrive at — resolved
/// through `$ref`s and kind-discriminated `anyOf`s to what each kind of
/// instance meets there.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The scalar kinds admitted here, as a `type` mask.
    scalars: u8,
    /// An admitted scalar has more than `type` to satisfy: `probe` it.
    probed: bool,
    object: Plan,
    array: Plan,
}

impl Slot {
    const ANY: Slot = Slot {
        scalars: SCALARS,
        probed: false,
        object: Plan::Skip,
        array: Plan::Skip,
    };
    const NEVER: Slot = Slot {
        scalars: 0,
        probed: false,
        object: Plan::Fail,
        array: Plan::Fail,
    };
}

/// The keys an object node knows: `properties ∪ required`.
#[derive(Debug)]
struct ObjectTable {
    /// Its [`WalkKey`]s in [`Walk::keys`], sorted by name.
    keys: std::ops::Range<u32>,
    /// How many of them are required.
    required: u32,
    /// `additionalProperties` absent or `true`: the value of an undeclared
    /// key is skipped. `false`: the key is a violation.
    open: bool,
}

#[derive(Debug)]
struct WalkKey {
    name: String,
    /// The position of this member's value (a name only in `required`
    /// takes the `additionalProperties` schema).
    value: u32,
    required: bool,
}

#[derive(Debug)]
struct ArrayTable {
    /// The positions of the leading elements (`items` as a tuple).
    prefix: Vec<u32>,
    /// The position of every element after them.
    rest: u32,
    min: u64,
    max: u64,
}

/// The read-only tables of the event walk, shared by every worker.
#[derive(Debug)]
struct Walk {
    /// The position of a whole record.
    root: u32,
    /// Indexed like the arena; `Slot::ANY` where no value can arrive.
    slots: Vec<Slot>,
    objects: Vec<ObjectTable>,
    keys: Vec<WalkKey>,
    arrays: Vec<ArrayTable>,
}

/// Decides streamability and builds the tables, from the arena alone.
fn plan_walk(nodes: &[IrNode], root: u32) -> Result<Walk, &'static str> {
    let mut planner = Planner {
        nodes,
        slots: vec![None; nodes.len()],
        todo: vec![root],
        objects: Vec::new(),
        keys: Vec::new(),
        arrays: Vec::new(),
    };
    while let Some(position) = planner.todo.pop() {
        planner.slot(position)?;
    }
    Ok(Walk {
        root,
        slots: planner
            .slots
            .into_iter()
            .map(|slot| slot.unwrap_or(Slot::ANY))
            .collect(),
        objects: planner.objects,
        keys: planner.keys,
        arrays: planner.arrays,
    })
}

struct Planner<'a> {
    nodes: &'a [IrNode],
    /// Each position's slot, once resolved.
    slots: Vec<Option<Slot>>,
    /// Member positions still to resolve. They wait here instead of on the
    /// call stack because a member may lead back to a position still being
    /// resolved (a recursive schema consumes input on the way). `$ref` and
    /// `anyOf` edges, which are resolved on the call stack, cannot: `build`
    /// refused every cycle of them.
    todo: Vec<u32>,
    objects: Vec<ObjectTable>,
    keys: Vec<WalkKey>,
    arrays: Vec<ArrayTable>,
}

impl<'a> Planner<'a> {
    fn slot(&mut self, position: u32) -> Result<Slot, &'static str> {
        if let Some(slot) = self.slots[position as usize] {
            return Ok(slot);
        }
        let nodes = self.nodes;
        let slot = match &nodes[position as usize] {
            IrNode::Any => Slot::ANY,
            IrNode::Never | IrNode::BadRef { .. } => Slot::NEVER,
            IrNode::Ref { target, .. } => self.slot(*target)?,
            IrNode::Node(node) => {
                let (scalars, probed) = self.scalars(node);
                Slot {
                    scalars,
                    probed,
                    object: self.container(node, Kind::Object)?,
                    array: self.container(node, Kind::Array)?,
                }
            }
        };
        self.slots[position as usize] = Some(slot);
        Ok(slot)
    }

    /// The scalar kinds `node` admits, and whether an admitted scalar has
    /// a keyword besides `type` to satisfy. A union of bare `type`s — what
    /// inference exports for a nullable or mixed-kind field — is itself
    /// only a mask.
    fn scalars(&self, node: &IrSchemaNode) -> (u8, bool) {
        let admitted = node.types.unwrap_or(ALL_KINDS) & SCALARS;
        if node.checks_scalars() {
            return (admitted, true);
        }
        if node.any_of.is_empty() {
            return (admitted, false);
        }
        let mut union = 0;
        for &branch in &node.any_of {
            match deref(self.nodes, branch) {
                IrNode::Any => union = ALL_KINDS,
                IrNode::Never | IrNode::BadRef { .. } => {}
                IrNode::Node(b) if !b.checks_scalars() && b.any_of.is_empty() => {
                    union |= b.types.unwrap_or(ALL_KINDS)
                }
                _ => return (admitted, true),
            }
        }
        (admitted & union, false)
    }

    /// What an object or an array (`kind`) arriving at `node` meets, or
    /// the keyword that needs it whole.
    fn container(&mut self, node: &'a IrSchemaNode, kind: Kind) -> Result<Plan, &'static str> {
        let excludes = |n: &IrSchemaNode| n.types.is_some_and(|mask| mask & kind_bit(kind) == 0);
        if excludes(node) {
            return Ok(Plan::Fail);
        }
        let listed = [
            ("enum", node.enumeration.as_deref()),
            ("const", node.const_value.as_ref().map(std::slice::from_ref)),
        ];
        for (keyword, members) in listed {
            let Some(members) = members else { continue };
            // A container equals no scalar member; comparing it with a
            // container member takes the whole value.
            let container = |m: &Value| matches!(m, Value::Arr(_) | Value::Obj(_));
            return if members.iter().any(container) {
                Err(keyword)
            } else {
                Ok(Plan::Fail)
            };
        }
        for (keyword, present) in [
            ("allOf", !node.all_of.is_empty()),
            ("oneOf", !node.one_of.is_empty()),
            ("not", node.not.is_some()),
            ("if", node.if_schema.is_some()),
        ] {
            if present {
                return Err(keyword);
            }
        }
        let own = match kind {
            Kind::Object => self.object_table(node)?,
            _ => self.array_table(node)?,
        };
        if node.any_of.is_empty() {
            return Ok(own.map_or(Plan::Skip, Plan::Walk));
        }
        if own.is_some() {
            return Err("anyOf");
        }
        // Branches whose `type` excludes the kind fail it whatever else
        // they say, so the verdict is the one remaining branch's.
        let mut taker = None;
        for &branch in &node.any_of {
            let admitted = match deref(self.nodes, branch) {
                IrNode::Never | IrNode::BadRef { .. } => false,
                IrNode::Node(b) => !excludes(b),
                IrNode::Any => true,
                IrNode::Ref { .. } => unreachable!("deref follows every reference"),
            };
            if admitted && taker.replace(branch).is_some() {
                return Err("anyOf");
            }
        }
        let Some(branch) = taker else {
            return Ok(Plan::Fail);
        };
        let slot = self.slot(branch)?;
        Ok(match kind {
            Kind::Object => slot.object,
            _ => slot.array,
        })
    }

    /// The table of `node`'s object keywords; `None` when it has none.
    fn object_table(&mut self, node: &IrSchemaNode) -> Result<Option<u32>, &'static str> {
        for (keyword, present) in [
            ("patternProperties", !node.pattern_properties.is_empty()),
            ("propertyNames", node.property_names.is_some()),
            ("dependencies", !node.dependencies.is_empty()),
            ("minProperties", node.min_properties.is_some()),
            ("maxProperties", node.max_properties.is_some()),
        ] {
            if present {
                return Err(keyword);
            }
        }
        let extra = node.additional_properties;
        let open = match extra.map(|extra| deref(self.nodes, extra)) {
            None | Some(IrNode::Any) => true,
            Some(IrNode::Never | IrNode::BadRef { .. }) => false,
            Some(_) => return Err("additionalProperties"),
        };
        if open && node.properties.is_empty() && node.required.is_empty() {
            return Ok(None);
        }
        let undeclared = if open { ANY } else { NEVER };
        let mut keys: BTreeMap<&str, (u32, bool)> = node
            .properties
            .iter()
            .map(|(name, value)| (name.as_str(), (*value, false)))
            .collect();
        for name in &node.required {
            keys.entry(name).or_insert((undeclared, false)).1 = true;
        }
        let start = self.keys.len() as u32;
        let mut required = 0;
        for (name, (value, needed)) in keys {
            self.todo.push(value);
            required += u32::from(needed);
            self.keys.push(WalkKey {
                name: name.to_string(),
                value,
                required: needed,
            });
        }
        self.objects.push(ObjectTable {
            keys: start..self.keys.len() as u32,
            required,
            open,
        });
        Ok(Some(self.objects.len() as u32 - 1))
    }

    /// The table of `node`'s array keywords; `None` when it has none.
    fn array_table(&mut self, node: &IrSchemaNode) -> Result<Option<u32>, &'static str> {
        if node.unique_items {
            return Err("uniqueItems");
        }
        if node.contains.is_some() {
            return Err("contains");
        }
        if node.items.is_none() && node.min_items.is_none() && node.max_items.is_none() {
            return Ok(None);
        }
        let (prefix, rest) = match &node.items {
            Some(IrItems::All(schema)) => (Vec::new(), *schema),
            Some(IrItems::Tuple(schemas)) => {
                (schemas.clone(), node.additional_items.unwrap_or(ANY))
            }
            None => (Vec::new(), ANY),
        };
        self.todo.extend(&prefix);
        self.todo.push(rest);
        self.arrays.push(ArrayTable {
            prefix,
            rest,
            min: node.min_items.unwrap_or(0),
            max: node.max_items.unwrap_or(u64::MAX),
        });
        Ok(Some(self.arrays.len() as u32 - 1))
    }
}

impl IrSchemaNode {
    /// True when a scalar instance has a keyword other than `type` and
    /// `anyOf` to satisfy here.
    fn checks_scalars(&self) -> bool {
        self.enumeration.is_some()
            || self.const_value.is_some()
            || !self.all_of.is_empty()
            || !self.one_of.is_empty()
            || self.not.is_some()
            || self.if_schema.is_some()
            || self.min_length.is_some()
            || self.max_length.is_some()
            || self.pattern.is_some()
            || self.format.is_some()
            || self.minimum.is_some()
            || self.maximum.is_some()
            || self.exclusive_minimum.is_some()
            || self.exclusive_maximum.is_some()
            || self.multiple_of.is_some()
    }
}

/// An open container of the record being walked.
enum Frame {
    Object {
        table: u32,
        /// Where this object's seen-bits start in [`EventValidator::seen`].
        seen: u32,
        /// Required keys seen so far.
        required: u32,
        /// The key the previous member resolved to.
        prev: u32,
        /// The position of the pending key's value.
        value: u32,
    },
    Array {
        table: u32,
        len: u64,
    },
}

/// The compiled schema evaluated from a record's **events** instead of its
/// [`Value`]: the second evaluator of the arena, for the streamable
/// fragment (see the scope statement above; every schema `to_json_schema`
/// exports is inside it).
///
/// Feed one record's events ([`start_object`](Self::start_object),
/// [`key`](Self::key), [`number`](Self::number), …), then settle it with
/// [`finish`](Self::finish) — or [`reset`](Self::reset) when its decoder
/// gave up part-way — before the next. Containers are checked as they
/// stream by: keys resolve by guessing that they arrive in last time's
/// order (a binary search when they do not), `required` is a count, and a
/// bare `type` is one mask test. Every other scalar keyword is
/// [`FastValidator`]'s: the walk hands it the scalar and the arena index.
///
/// The walk verifies what it speculated. The data model keeps the *last*
/// value of a key repeated inside one object, the walk has already judged
/// the first; `finish` then answers `None` and the caller validates the
/// record's `Value`. Create one per worker thread.
pub struct EventValidator<'s> {
    walk: &'s Walk,
    /// Scalar keywords, and the reused string buffer scalars reach them in.
    keywords: FastValidator<'s>,
    frames: Vec<Frame>,
    /// One bit per key of each open object's table, innermost last — per
    /// *open object*, not per table: `$ref` shares a table between
    /// positions and a recursive schema re-enters one whose frame is still
    /// open.
    seen: Vec<u64>,
    /// Per table: the key the last object there started with.
    first: Vec<u32>,
    /// Per key: the key that followed it in the last object to have both.
    /// Guesses only, so frames over one table may share them.
    next: Vec<u32>,
    /// Open containers nothing checks, below the innermost frame.
    skipping: u32,
    violated: bool,
    duplicate: bool,
}

impl CompiledSchema {
    /// Whether this schema is inside the fragment one forward pass over a
    /// record's events decides — every schema `to_json_schema` exports
    /// is. `Err` names the first keyword found that needs a container
    /// whole (`uniqueItems`, `patternProperties`, `allOf` where an object
    /// can arrive, …). Decided once, at [`compile`](Self::compile).
    pub fn streamable(&self) -> Result<(), &'static str> {
        self.ir()
            .walk
            .as_ref()
            .map(|_| ())
            .map_err(|keyword| *keyword)
    }

    /// An [`EventValidator`] over this schema, or what
    /// [`streamable`](Self::streamable) has against one.
    pub fn event_validator_with(
        &self,
        options: ValidatorOptions,
    ) -> Result<EventValidator<'_>, &'static str> {
        let walk = self.ir().walk.as_ref().map_err(|keyword| *keyword)?;
        Ok(EventValidator {
            walk,
            keywords: self.fast_validator_with(options),
            frames: Vec::new(),
            seen: Vec::new(),
            first: vec![NO_KEY; walk.objects.len()],
            next: vec![NO_KEY; walk.keys.len()],
            skipping: 0,
            violated: false,
            duplicate: false,
        })
    }
}

impl EventValidator<'_> {
    /// The position of the value now starting; counts it as an element
    /// when it starts inside an array. After a violation nothing is
    /// checked any more — but open frames keep resolving keys, see
    /// [`key`](Self::key).
    #[inline]
    fn position(&mut self) -> u32 {
        let position = match self.frames.last_mut() {
            None => self.walk.root,
            Some(Frame::Object { value, .. }) => *value,
            Some(Frame::Array { table, len }) => {
                let table = &self.walk.arrays[*table as usize];
                let at = *len;
                *len += 1;
                match usize::try_from(at).ok().and_then(|at| table.prefix.get(at)) {
                    Some(position) => *position,
                    None => table.rest,
                }
            }
        };
        if self.violated {
            ANY
        } else {
            position
        }
    }

    /// A scalar of the kind with mask bit `kind` arrives: `Some(position)`
    /// when `type` admits it and more keywords wait there.
    #[inline]
    fn scalar(&mut self, kind: u8) -> Option<u32> {
        if self.skipping > 0 {
            return None;
        }
        let position = self.position();
        let slot = &self.walk.slots[position as usize];
        if slot.scalars & kind == 0 {
            self.violated = true;
            None
        } else if slot.probed {
            Some(position)
        } else {
            None
        }
    }

    #[cold]
    fn probe(&mut self, position: u32, value: &Value) {
        self.violated |= !self.keywords.probe(position, value);
    }

    /// A `null`.
    #[inline]
    pub fn null(&mut self) {
        if let Some(position) = self.scalar(kind_bit(Kind::Null)) {
            self.probe(position, &Value::Null);
        }
    }

    /// A boolean.
    #[inline]
    pub fn boolean(&mut self, b: bool) {
        if let Some(position) = self.scalar(kind_bit(Kind::Boolean)) {
            self.probe(position, &Value::Bool(b));
        }
    }

    /// A number; its kind is [`Value::kind`]'s (`3.0` is an integer).
    #[inline]
    pub fn number(&mut self, n: Number) {
        let kind = if n.is_integer() {
            Kind::Integer
        } else {
            Kind::Number
        };
        if let Some(position) = self.scalar(kind_bit(kind)) {
            self.probe(position, &Value::Num(n));
        }
    }

    /// A string, unescaped.
    #[inline]
    pub fn string(&mut self, s: &str) {
        if let Some(position) = self.scalar(kind_bit(Kind::String)) {
            self.violated |= !self.keywords.probe_str(position, s);
        }
    }

    /// A container opens: `Some(table)` when its members are to be walked.
    #[inline]
    fn open(&mut self, plan: impl FnOnce(&Slot) -> Plan) -> Option<u32> {
        if self.skipping > 0 {
            self.skipping += 1;
            return None;
        }
        let position = self.position();
        match plan(&self.walk.slots[position as usize]) {
            Plan::Walk(table) => return Some(table),
            Plan::Skip => {}
            Plan::Fail => self.violated = true,
        }
        self.skipping = 1;
        None
    }

    /// A container closes: `true` when it is the innermost frame's.
    #[inline]
    fn close(&mut self) -> bool {
        if self.skipping > 0 {
            self.skipping -= 1;
            return false;
        }
        true
    }

    /// An object opens.
    #[inline]
    pub fn start_object(&mut self) {
        if let Some(table) = self.open(|slot| slot.object) {
            let keys = &self.walk.objects[table as usize].keys;
            let seen = self.seen.len();
            self.seen.resize(seen + keys.len().div_ceil(64), 0);
            self.frames.push(Frame::Object {
                table,
                seen: seen as u32,
                required: 0,
                prev: NO_KEY,
                value: ANY,
            });
        }
    }

    /// A member key of the innermost open object, unescaped (`"a"`
    /// and `"\u0061"` are one key). Keys keep resolving after a violation: a
    /// repeated one sends the record to replay, because last-wins may have
    /// replaced the very value that was judged (`{"a":"x","a":1}` under
    /// `a: integer` is valid).
    #[inline]
    pub fn key(&mut self, name: &str) {
        if self.skipping > 0 {
            return;
        }
        let Some(Frame::Object {
            table,
            seen,
            required,
            prev,
            value,
        }) = self.frames.last_mut()
        else {
            panic!("a key outside an object");
        };
        let walk = self.walk;
        let guess = match self.next.get(*prev as usize) {
            Some(next) => *next,
            None => self.first[*table as usize],
        };
        let found = match walk.keys.get(guess as usize) {
            Some(key) if key.name == name => guess,
            _ => {
                let object = &walk.objects[*table as usize];
                let Some(found) = search(walk, object, name) else {
                    // Undeclared: skipped, or a violation. Whichever, a
                    // second one changes nothing.
                    self.violated |= !object.open;
                    *value = ANY;
                    return;
                };
                match self.next.get_mut(*prev as usize) {
                    Some(next) => *next = found,
                    None => self.first[*table as usize] = found,
                }
                found
            }
        };
        let key = &walk.keys[found as usize];
        let bit = found - walk.objects[*table as usize].keys.start;
        let word = &mut self.seen[*seen as usize + bit as usize / 64];
        let mask = 1u64 << (bit % 64);
        self.duplicate |= *word & mask != 0;
        *required += u32::from(key.required && *word & mask == 0);
        *word |= mask;
        *prev = found;
        *value = key.value;
    }

    /// The innermost open object closes.
    #[inline]
    pub fn end_object(&mut self) {
        if !self.close() {
            return;
        }
        let Some(Frame::Object {
            table,
            seen,
            required,
            ..
        }) = self.frames.pop()
        else {
            panic!("an object end without its start");
        };
        self.seen.truncate(seen as usize);
        self.violated |= required != self.walk.objects[table as usize].required;
    }

    /// An array opens.
    #[inline]
    pub fn start_array(&mut self) {
        if let Some(table) = self.open(|slot| slot.array) {
            self.frames.push(Frame::Array { table, len: 0 });
        }
    }

    /// The innermost open array closes.
    #[inline]
    pub fn end_array(&mut self) {
        if !self.close() {
            return;
        }
        let Some(Frame::Array { table, len }) = self.frames.pop() else {
            panic!("an array end without its start");
        };
        let table = &self.walk.arrays[table as usize];
        self.violated |= len < table.min || len > table.max;
    }

    /// Settles a fully delivered record: `Some(valid)` — what
    /// [`FastValidator::is_valid`] answers for the record's `Value` — or
    /// `None` when a declared key repeated inside one object, and only
    /// that `Value` (last wins) can say.
    #[must_use = "a record the walk cannot vouch for must be validated as a Value"]
    pub fn finish(&mut self) -> Option<bool> {
        debug_assert!(
            self.frames.is_empty() && self.skipping == 0,
            "finish inside a record"
        );
        let verdict = (!self.duplicate).then_some(!self.violated);
        self.violated = false;
        self.duplicate = false;
        verdict
    }

    /// Forgets a record abandoned after any number of events.
    pub fn reset(&mut self) {
        self.frames.clear();
        self.seen.clear();
        self.skipping = 0;
        self.violated = false;
        self.duplicate = false;
    }
}

/// The miss path of [`EventValidator::key`]: `name` among `table`'s keys.
#[cold]
fn search(walk: &Walk, table: &ObjectTable, name: &str) -> Option<u32> {
    let keys = &walk.keys[table.keys.start as usize..table.keys.end as usize];
    let at = keys
        .binary_search_by(|key| key.name.as_str().cmp(name))
        .ok()?;
    Some(table.keys.start + at as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonx_data::json;

    fn compile(doc: Value) -> CompiledSchema {
        CompiledSchema::compile(&doc).unwrap()
    }

    /// Both faces, asserted to agree; returns the verdict.
    fn agree(schema: &CompiledSchema, value: &Value) -> bool {
        let verdict = schema.fast_validator().is_valid(value);
        let errors = schema.validate(value);
        assert_eq!(verdict, errors.is_ok(), "faces disagree on {value}");
        verdict
    }

    #[test]
    fn refs_resolve_to_arena_indices() {
        let s = compile(json!({
            "definitions": {"pos": {"type": "integer", "minimum": 1}},
            "properties": {
                "a": {"$ref": "#/definitions/pos"},
                "b": {"$ref": "#/definitions/pos"}
            }
        }));
        // Both ref sites share one compiled target body.
        let ref_targets: Vec<u32> = s
            .ir()
            .nodes
            .iter()
            .filter_map(|n| match n {
                IrNode::Ref { target, .. } => Some(*target),
                _ => None,
            })
            .collect();
        assert_eq!(ref_targets.len(), 2);
        assert_eq!(ref_targets[0], ref_targets[1]);
        assert!(agree(&s, &json!({"a": 1, "b": 2})));
        assert!(!agree(&s, &json!({"a": 0})));
    }

    #[test]
    fn recursive_ref_closes_over_its_own_slot() {
        let s = compile(json!({
            "definitions": {
                "tree": {
                    "type": "object",
                    "properties": {
                        "value": {"type": "integer"},
                        "children": {"type": "array", "items": {"$ref": "#/definitions/tree"}}
                    },
                    "required": ["value"]
                }
            },
            "$ref": "#/definitions/tree"
        }));
        assert!(agree(
            &s,
            &json!({"value": 1, "children": [{"value": 2, "children": []}]})
        ));
        assert!(!agree(&s, &json!({"value": 1, "children": [{}]})));
    }

    /// A schema that recurses without consuming input does not compile;
    /// the error names the cycle's references in order, from the one that
    /// closes it (`tests/conformance/wellformed.json` has one per keyword).
    /// Through a consuming keyword the same recursion compiles.
    #[test]
    fn unguarded_cycles_are_refused_naming_their_references() {
        let error = CompiledSchema::compile(&json!({
            "definitions": {
                "a": {"$ref": "#/definitions/b"},
                "b": {"allOf": [{"$ref": "#/definitions/a"}]}
            },
            "$ref": "#/definitions/a"
        }))
        .unwrap_err()
        .to_string();
        assert!(
            error.starts_with("invalid schema at '#/definitions/a'")
                && error.contains("#/definitions/a → #/definitions/b → #/definitions/a"),
            "{error}"
        );
        let guarded = compile(json!({"properties": {"a": {"not": {"$ref": "#"}}}}));
        assert!(!agree(&guarded, &json!({"a": 1})));
        assert!(agree(&guarded, &json!({"a": {"a": 1}})));
    }

    #[test]
    fn bad_ref_rejects() {
        let s = compile(json!({"$ref": "#/nope"}));
        assert!(!agree(&s, &json!(null)));
        let s = compile(json!({"$ref": "http://elsewhere"}));
        assert!(!agree(&s, &json!(null)));
    }

    /// What the messages need and a bitmask or a slot index loses is
    /// lowered beside it: `type` names in schema order, a pattern's source,
    /// a reference's text and its compile error. And the errors face counts
    /// every `oneOf` match.
    #[test]
    fn the_errors_face_renders_what_the_arena_lowered() {
        let s = compile(json!({
            "properties": {
                "t": {"type": ["string", "null"]},
                "p": {"pattern": "^[a-z]+$"},
                "bad": {"$ref": "#/nope"},
                "one": {"oneOf": [{}, {"type": "integer"}, {"minimum": 0}]}
            }
        }));
        let doc = json!({"t": 1, "p": "X", "bad": 0, "one": 1});
        assert!(!agree(&s, &doc));
        let shown: Vec<String> = s
            .validate(&doc)
            .unwrap_err()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            shown,
            [
                "/t: [type] expected string or null, found integer",
                "/p: [pattern] does not match pattern '^[a-z]+$'",
                "/bad: [$ref] invalid schema at '#/nope': reference target not found",
                "/one: [oneOf] matches 3 oneOf branches, expected exactly 1",
            ]
        );
    }

    #[test]
    fn identical_patterns_share_a_slot() {
        let s = compile(json!({
            "properties": {
                "a": {"pattern": "^[a-z]+$"},
                "b": {"pattern": "^[a-z]+$"},
                "c": {"pattern": "^[0-9]+$"}
            }
        }));
        assert_eq!(s.ir().patterns.len(), 2);
        assert!(agree(&s, &json!({"a": "x", "b": "y", "c": "7"})));
        assert!(!agree(&s, &json!({"b": "UPPER"})));
    }

    #[test]
    fn type_mask_subsumption() {
        let s = compile(json!({"type": "number"}));
        assert!(agree(&s, &json!(3)));
        assert!(agree(&s, &json!(3.5)));
        assert!(!agree(&s, &json!("3")));
        let s = compile(json!({"type": "integer"}));
        assert!(agree(&s, &json!(3)));
        assert!(agree(&s, &json!(3.0)));
        assert!(!agree(&s, &json!(3.5)));
        let s = compile(json!({"type": ["string", "null"]}));
        assert!(agree(&s, &json!(null)));
        assert!(agree(&s, &json!("s")));
        assert!(!agree(&s, &json!(true)));
    }

    #[test]
    fn one_of_short_circuits_at_two_matches() {
        let s = compile(json!({"oneOf": [
            {"type": "integer"},
            {"minimum": 5},
            {"maximum": 100}
        ]}));
        assert!(!agree(&s, &json!(7))); // matches all three
        assert!(!agree(&s, &json!("s"))); // matches none
        assert!(agree(&s, &json!(4.5))); // maximum only
    }

    #[test]
    fn property_names_via_scratch_buffer() {
        let s = compile(json!({"propertyNames": {"pattern": "^[a-z]+$", "maxLength": 3}}));
        assert!(agree(&s, &json!({"ab": 1, "xyz": 2})));
        assert!(!agree(&s, &json!({"toolong": 1})));
        assert!(!agree(&s, &json!({"NOPE": 1})));
    }

    #[test]
    fn tuple_items_and_additional() {
        let s = compile(json!({
            "items": [{"type": "integer"}, {"type": "string"}],
            "additionalItems": {"type": "boolean"}
        }));
        assert!(agree(&s, &json!([1, "a", true, false])));
        assert!(!agree(&s, &json!([1, "a", "not-bool"])));
        // No additionalItems: extras are unconstrained.
        let s = compile(json!({"items": [{"type": "integer"}]}));
        assert!(agree(&s, &json!([1, "anything", null])));
    }

    #[test]
    fn dependencies_both_forms() {
        let s = compile(json!({
            "dependencies": {
                "a": ["b"],
                "c": {"required": ["d"]}
            }
        }));
        assert!(agree(&s, &json!({"a": 1, "b": 2})));
        assert!(!agree(&s, &json!({"a": 1})));
        assert!(!agree(&s, &json!({"c": 1})));
        assert!(agree(&s, &json!({"c": 1, "d": 2})));
        assert!(agree(&s, &json!({"x": 1})));
    }

    #[test]
    fn formats_respected_when_enforced() {
        let s = compile(json!({"format": "date"}));
        assert!(s.fast_validator().is_valid(&json!("not a date")));
        let opts = ValidatorOptions {
            enforce_formats: true,
        };
        let mut fv = s.fast_validator_with(opts);
        assert!(!fv.is_valid(&json!("not a date")));
        assert!(fv.is_valid(&json!("2019-03-26")));
        assert_eq!(
            fv.is_valid(&json!("2019-03-26")),
            s.validate_with(&json!("2019-03-26"), opts).is_ok()
        );
    }

    #[test]
    fn validator_reuse_across_documents() {
        let s = compile(json!({
            "definitions": {"leaf": {"type": "integer"}},
            "type": "object",
            "properties": {"xs": {"type": "array", "items": {"$ref": "#/definitions/leaf"}}},
            "propertyNames": {"pattern": "^[a-z]+$"}
        }));
        let mut fv = s.fast_validator();
        for i in 0..100 {
            let ok = fv.is_valid(&json!({"xs": [i, i + 1]}));
            assert!(ok);
            assert!(!fv.is_valid(&json!({"xs": ["not int"]})));
        }
    }

    // -- the event walk ------------------------------------------------------

    use jsonx_syntax::{EventReceiver, JsonDecoder, RawEvent, RecordDecoder};

    struct Walking<'a, 's>(&'a mut EventValidator<'s>);

    impl EventReceiver for Walking<'_, '_> {
        fn event(&mut self, ev: &RawEvent<'_>) {
            match ev {
                RawEvent::StartObject => self.0.start_object(),
                RawEvent::EndObject => self.0.end_object(),
                RawEvent::StartArray => self.0.start_array(),
                RawEvent::EndArray => self.0.end_array(),
                RawEvent::Key(k) => self.0.key(k),
                RawEvent::Null => self.0.null(),
                RawEvent::Bool(b) => self.0.boolean(*b),
                RawEvent::Num(n) => self.0.number(*n),
                RawEvent::Str(s) => self.0.string(s),
            }
        }
    }

    /// Walks `text`'s events; the answer must be the DOM's (both DOM
    /// paths), or a replay. Returns the walk's own answer.
    fn walked(schema: &CompiledSchema, text: &str) -> Option<bool> {
        let mut walk = schema
            .event_validator_with(ValidatorOptions::default())
            .unwrap();
        let mut answers = Vec::new();
        // Twice through one validator: nothing of a record may linger.
        for _ in 0..2 {
            JsonDecoder::new()
                .decode_events(&mut (), text, &mut Walking(&mut walk))
                .unwrap();
            answers.push(walk.finish());
        }
        assert_eq!(answers[0], answers[1], "{text}");
        let dom = agree(schema, &jsonx_syntax::parse(text).unwrap());
        if let Some(valid) = answers[0] {
            assert_eq!(valid, dom, "walk disagrees with the DOM on {text}");
        }
        answers[0]
    }

    fn tree_schema() -> CompiledSchema {
        compile(json!({
            "definitions": {"t": {
                "type": "object",
                "additionalProperties": false,
                "required": ["value"],
                "properties": {
                    "value": {"type": "integer"},
                    "children": {"type": "array", "items": {"$ref": "#/definitions/t"}}
                }
            }},
            "$ref": "#/definitions/t"
        }))
    }

    #[test]
    fn duplicates_are_per_open_object_not_per_node() {
        let s = tree_schema();
        assert_eq!(s.streamable(), Ok(()));
        assert_eq!(
            walked(&s, r#"{"value":1,"children":[{"value":2}]}"#),
            Some(true)
        );
        assert_eq!(
            walked(&s, r#"{"value":1,"children":[{"value":2},{}]}"#),
            Some(false)
        );
        // The inner object is another frame over the same table: it must
        // neither hide the outer duplicate nor count `required` for it.
        let text = r#"{"value":1,"children":[{"value":2}],"value":2}"#;
        assert_eq!(walked(&s, text), None);
        assert!(agree(&s, &jsonx_syntax::parse(text).unwrap()));
        // ... and its own keys are no duplicates of the outer object's.
        let text = r#"{"children":[{"value":2,"children":[{"value":3}]}],"value":1}"#;
        assert_eq!(walked(&s, text), Some(true));
    }

    #[test]
    fn a_duplicate_after_a_violation_still_replays() {
        let s = compile(json!({"properties": {"a": {"type": "integer"}}}));
        // Last wins: the judged value is not the record's.
        assert_eq!(walked(&s, r#"{"a":"x","a":1}"#), None);
        assert!(agree(
            &s,
            &jsonx_syntax::parse(r#"{"a":"x","a":1}"#).unwrap()
        ));
        assert_eq!(walked(&s, r#"{"a":1,"a":"x"}"#), None);
        assert!(!agree(
            &s,
            &jsonx_syntax::parse(r#"{"a":1,"a":"x"}"#).unwrap()
        ));
        assert_eq!(walked(&s, r#"{"a":"x"}"#), Some(false));
        // The violation sits in a frame that has closed; its parent's
        // duplicate replaces it all the same.
        let s = compile(json!({
            "properties": {"o": {"properties": {"a": {"type": "integer"}}, "required": ["a"]}}
        }));
        assert_eq!(walked(&s, r#"{"o":{"a":"x"},"o":{"a":1}}"#), None);
        assert_eq!(
            walked(&s, r#"{"o":{},"p":{"a":1,"a":2},"o":{"a":1}}"#),
            None
        );
        // A subtree nothing checks hides its duplicates: they cannot matter.
        assert_eq!(walked(&s, r#"{"o":{},"p":{"a":1,"a":2}}"#), Some(false));
        assert_eq!(walked(&s, r#"{"o":[{"a":"x","a":"y"}]}"#), Some(true));
    }

    #[test]
    fn keys_are_properties_and_required_compared_unescaped() {
        let closed = compile(json!({
            "properties": {"a": {"type": "integer"}},
            "required": ["a", "r", "r"],
            "additionalProperties": false
        }));
        // `r` is only required: under `false` it can be neither absent
        // nor present.
        assert_eq!(walked(&closed, r#"{"a":1}"#), Some(false));
        assert_eq!(walked(&closed, r#"{"a":1,"r":1}"#), Some(false));
        assert_eq!(walked(&closed, r#"{"a":1,"zzz":1}"#), Some(false));
        let open = compile(json!({
            "properties": {"a": {"type": "integer"}},
            "required": ["a", "r"]
        }));
        assert_eq!(walked(&open, r#"{"r":[{}],"a":1}"#), Some(true));
        assert_eq!(
            walked(&open, r#"{"a":1,"r":null,"x":1,"x":"again"}"#),
            Some(true)
        );
        assert_eq!(walked(&open, r#"{"a":1}"#), Some(false));
        assert_eq!(walked(&open, r#"{"a":1,"r":0}"#), Some(true));
        assert_eq!(walked(&open, r#"{"a":1,"r":0,"a":2}"#), None);
    }

    #[test]
    fn numbers_have_the_kind_of_their_value() {
        let s = compile(json!({"items": {"type": "integer"}}));
        assert_eq!(
            walked(&s, "[3.0, 1e2, 12345678901234567890, -0.0]"),
            Some(true)
        );
        assert_eq!(walked(&s, "[3.5]"), Some(false));
        let s =
            compile(json!({"anyOf": [{"type": "integer"}, {"type": "number"}, {"type": "null"}]}));
        assert_eq!(walked(&s, "3.5"), Some(true));
        assert_eq!(walked(&s, "null"), Some(true));
        assert_eq!(walked(&s, "\"3.5\""), Some(false));
        assert_eq!(walked(&s, "[]"), Some(false));
    }

    #[test]
    fn scalar_keywords_are_the_fast_validators() {
        let s = compile(json!({
            "type": "object",
            "properties": {
                "name": {"type": "string", "pattern": "^[a-z]+$", "maxLength": 3},
                "n": {"type": "number", "minimum": 0, "not": {"multipleOf": 7}},
                "tag": {"enum": ["x", 1, null]},
                "when": {"type": "string", "format": "date"},
                "either": {"type": ["string", "integer"], "oneOf": [{"minimum": 5}, {"maxLength": 1}]}
            }
        }));
        assert_eq!(s.streamable(), Ok(()));
        for (text, valid) in [
            (r#"{"name":"ab","n":3,"tag":null,"either":"long"}"#, true),
            (r#"{"name":"abcd"}"#, false),
            (r#"{"name":"A"}"#, false),
            (r#"{"n":14}"#, false),
            (r#"{"n":[14]}"#, false),
            (r#"{"tag":"y"}"#, false),
            (r#"{"tag":{}}"#, false),
            (r#"{"either":3}"#, true),
            (r#"{"either":"x"}"#, false),
            (r#"{"when":"not a date"}"#, true),
        ] {
            assert_eq!(walked(&s, text), Some(valid), "{text}");
        }
        let mut walk = s
            .event_validator_with(ValidatorOptions {
                enforce_formats: true,
            })
            .unwrap();
        let mut valid = |text: &str| {
            JsonDecoder::new()
                .decode_events(&mut (), text, &mut Walking(&mut walk))
                .unwrap();
            walk.finish()
        };
        assert_eq!(valid(r#"{"when":"not a date"}"#), Some(false));
        assert_eq!(valid(r#"{"when":"2019-03-26"}"#), Some(true));
    }

    #[test]
    fn containers_stream_through_tuples_unions_and_bounds() {
        let s = compile(json!({
            "items": [{"type": "integer"}, {"type": "string"}],
            "additionalItems": {"type": "boolean"},
            "minItems": 1,
            "maxItems": 4
        }));
        for (text, valid) in [
            ("[1,\"a\",true,false]", true),
            ("[1,\"a\",\"not-bool\"]", false),
            ("[]", false),
            ("[1,\"a\",true,true,true]", false),
            ("{\"not\":\"an array\"}", true),
        ] {
            assert_eq!(walked(&s, text), Some(valid), "{text}");
        }
        // What inference exports for a mixed-kind position: each container
        // kind has one taker.
        let s = compile(json!({"anyOf": [
            {"type": "null"},
            {"type": "array", "items": {"type": "integer"}},
            {"type": "object", "properties": {"k": {"type": "string"}}, "additionalProperties": false}
        ]}));
        assert_eq!(s.streamable(), Ok(()));
        for (text, valid) in [
            ("null", true),
            ("1", false),
            ("[1,2]", true),
            ("[1,\"2\"]", false),
            ("{\"k\":\"v\"}", true),
            ("{\"k\":1}", false),
            ("{\"other\":1}", false),
        ] {
            assert_eq!(walked(&s, text), Some(valid), "{text}");
        }
        // No taker at all: the container is a violation, not a skip.
        let s = compile(
            json!({"properties": {"v": {"anyOf": [{"type": "string"}, {"type": "array"}]}}}),
        );
        assert_eq!(walked(&s, r#"{"v":{"deep":[1,{"x":2}]}}"#), Some(false));
        assert_eq!(walked(&s, r#"{"v":[{"deep":[1,{"x":2}]}]}"#), Some(true));
    }

    #[test]
    fn an_abandoned_record_leaves_nothing_behind() {
        let s = tree_schema();
        let mut walk = s.event_validator_with(ValidatorOptions::default()).unwrap();
        for broken in [
            r#"{"value":"x","children":[{"value":1,"#,
            r#"{"value":1,"value":2,"other":[[{"#,
        ] {
            assert!(JsonDecoder::new()
                .decode_events(&mut (), broken, &mut Walking(&mut walk))
                .is_err());
            walk.reset();
            JsonDecoder::new()
                .decode_events(&mut (), r#"{"value":1}"#, &mut Walking(&mut walk))
                .unwrap();
            assert_eq!(walk.finish(), Some(true));
        }
    }

    #[test]
    fn streamable_names_the_keyword_that_needs_a_whole_container() {
        for (schema, keyword) in [
            (json!({"uniqueItems": true}), "uniqueItems"),
            (
                json!({"properties": {"a": {"contains": {"type": "integer"}}}}),
                "contains",
            ),
            (
                json!({"patternProperties": {"^x": {}}}),
                "patternProperties",
            ),
            (json!({"propertyNames": {"maxLength": 3}}), "propertyNames"),
            (json!({"dependencies": {"a": ["b"]}}), "dependencies"),
            (
                json!({"type": "object", "minProperties": 1}),
                "minProperties",
            ),
            (json!({"items": {"maxProperties": 1}}), "maxProperties"),
            (
                json!({"additionalProperties": {"type": "string"}}),
                "additionalProperties",
            ),
            (json!({"allOf": [{"required": ["a"]}]}), "allOf"),
            (
                json!({"oneOf": [{"type": "object"}, {"type": "array"}]}),
                "oneOf",
            ),
            (json!({"not": {"type": "object"}}), "not"),
            (
                json!({"if": {"required": ["a"]}, "then": {"required": ["b"]}}),
                "if",
            ),
            (json!({"enum": [1, [2]]}), "enum"),
            (json!({"const": {"a": 1}}), "const"),
            (
                json!({"anyOf": [{"type": "object"}, {"required": ["a"]}]}),
                "anyOf",
            ),
            (
                json!({"required": ["a"], "anyOf": [{"type": "object"}]}),
                "anyOf",
            ),
            (
                json!({"definitions": {"u": {"items": {"uniqueItems": true}}}, "properties": {"deep": {"$ref": "#/definitions/u"}}}),
                "uniqueItems",
            ),
        ] {
            let s = compile(schema.clone());
            assert_eq!(s.streamable(), Err(keyword), "{schema}");
            assert_eq!(
                s.event_validator_with(ValidatorOptions::default()).err(),
                Some(keyword)
            );
        }
        // The same keywords where no container can arrive, and those that
        // only ever see scalars, stay inside the fragment.
        for schema in [
            json!({"type": "string", "allOf": [{"minLength": 1}], "not": {"const": "x"}}),
            json!({"type": ["integer", "null"], "oneOf": [{"minimum": 0}, {"type": "null"}]}),
            json!({"type": "object", "uniqueItems": true, "properties": {"a": {"enum": [1, "x"]}}}),
            json!({"type": "array", "minProperties": 2, "items": {"const": 3}}),
            json!({"properties": {"a": {"$ref": "#/nowhere"}}, "additionalProperties": true}),
            json!(true),
            json!(false),
        ] {
            assert_eq!(compile(schema.clone()).streamable(), Ok(()), "{schema}");
        }
        assert_eq!(walked(&compile(json!(false)), "{}"), Some(false));
        assert_eq!(walked(&compile(json!(true)), "[{}]"), Some(true));
        let s = compile(json!({"properties": {"a": {"$ref": "#/nowhere"}}}));
        assert_eq!(walked(&s, r#"{"a":[1]}"#), Some(false));
        assert_eq!(walked(&s, r#"{"b":[1]}"#), Some(true));
    }
}
