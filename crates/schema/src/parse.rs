//! Schema document compilation.
//!
//! [`CompiledSchema::compile`] turns a JSON value (the schema document)
//! into the [`Schema`] AST, validating keyword shapes along the way and
//! pre-compiling every `pattern` / `patternProperties` regex, then lowers
//! the AST into the flat validation IR of [`crate::ir`]. Every `$ref`
//! reachable from the root is resolved and compiled **at compile time**
//! (recursive schemas included, via placeholder slots — no fixpoint
//! pass); validation-time resolution is a plain table lookup, and the IR
//! path skips even that by carrying arena indices.
//!
//! Keywords that assert something this validator does not implement
//! (`UNSUPPORTED_KEYWORDS`) are refused up front: ignoring them would
//! accept instances the schema, as written, rejects.

use crate::ast::{CompiledPattern, Dependency, Items, Schema, SchemaNode};
use crate::errors::SchemaError;
use crate::ir::{self, Ir};
use jsonx_data::{Kind, Number, Pointer, Value};
use jsonx_regex::Regex;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};

/// A compiled schema document, ready to validate instances.
#[derive(Debug)]
pub struct CompiledSchema {
    /// Compiled root schema.
    root: Schema,
    /// The original document, kept for `$ref` target lookup.
    source: Value,
    /// The flattened validation IR (pre-resolved refs, sorted property
    /// tables, pattern slots) driving the fail-fast path.
    ir: Ir,
    /// Every reference reachable from the root, resolved at compile time —
    /// including failed resolutions, so the error path never re-walks the
    /// document for a reference already known to be bad.
    ref_table: HashMap<String, Result<Schema, SchemaError>>,
    /// Fallback memo for references *not* reachable from the root (only
    /// hit through the public [`resolve_ref`](Self::resolve_ref) API).
    ref_cache: Mutex<HashMap<String, Schema>>,
}

impl CompiledSchema {
    /// Compiles a schema document.
    pub fn compile(document: &Value) -> Result<CompiledSchema, SchemaError> {
        refuse_unsupported(document, document, "#")?;
        let root = compile_schema(document, "#")?;
        let (ir, ref_table) = ir::build(&root, document)?;
        Ok(CompiledSchema {
            root,
            source: document.clone(),
            ir,
            ref_table,
            ref_cache: Mutex::new(HashMap::new()),
        })
    }

    /// The compiled root schema.
    pub fn root(&self) -> &Schema {
        &self.root
    }

    /// The lowered validation IR.
    pub(crate) fn ir(&self) -> &Ir {
        &self.ir
    }

    /// The root-level field names the fail-fast verdict of this schema
    /// can depend on when the document is an object, or `None` when the
    /// schema inspects objects in ways projection cannot preserve
    /// (combinators, enum/const, `patternProperties`, property counts,
    /// constraining `additionalProperties`, …).
    ///
    /// A caller may skip-parse every root field outside the returned set
    /// and still produce verdicts identical to validating full documents.
    /// No stage of the product projects — validation walks each record's
    /// events (see [`streamable`](Self::streamable)) — so only the
    /// benchmark harness's per-layer pass (`benchmark/src/layers.rs`),
    /// which measures a projecting scan, reads this.
    pub fn root_projection(&self) -> Option<Vec<String>> {
        self.ir.root_projection()
    }

    /// Resolves and compiles a `$ref` target. `reference` must be an
    /// intra-document fragment: `#` or `#/<json-pointer>`.
    ///
    /// References reachable from the root were resolved at compile time,
    /// so this is a table lookup returning a cheap (`Arc`) clone; novel
    /// references (possible only through this public API) fall back to
    /// on-demand resolution with its own memo.
    pub fn resolve_ref(&self, reference: &str) -> Result<Schema, SchemaError> {
        if let Some(resolved) = self.ref_table.get(reference) {
            return resolved.clone();
        }
        if let Some(hit) = self.ref_cache.lock().get(reference) {
            return Ok(hit.clone());
        }
        let compiled = resolve_and_compile(&self.source, reference)?;
        self.ref_cache
            .lock()
            .insert(reference.to_string(), compiled.clone());
        Ok(compiled)
    }
}

/// Resolves `reference` against `source` and compiles the target in
/// place, without cloning the target subtree.
pub(crate) fn resolve_and_compile(source: &Value, reference: &str) -> Result<Schema, SchemaError> {
    let target = resolve_target(source, reference)?;
    // `compile` checked every reference it could reach; one handed
    // straight to `resolve_ref` may point anywhere in the document.
    refuse_unsupported(source, target, reference)?;
    compile_schema(target, reference)
}

/// The value an intra-document `reference` points at.
fn resolve_target<'d>(source: &'d Value, reference: &str) -> Result<&'d Value, SchemaError> {
    let Some(fragment) = reference.strip_prefix('#') else {
        return Err(SchemaError::new(
            reference,
            "only intra-document references ('#...') are supported",
        ));
    };
    let pointer = percent_decode(fragment);
    if pointer.is_empty() {
        return Ok(source);
    }
    let ptr = Pointer::parse(&pointer)
        .map_err(|e| SchemaError::new(reference, format!("bad pointer: {e}")))?;
    ptr.resolve(source)
        .ok_or_else(|| SchemaError::new(reference, "reference target not found"))
}

/// The draft 2019-09 / 2020-12 keywords (Attouche et al., *Validation of
/// Modern JSON Schema*) whose assertions this draft-06/07 validator does
/// not implement. A schema using one is refused: dropping the keyword
/// would validate more permissively than the schema was written.
const UNSUPPORTED_KEYWORDS: [&str; 10] = [
    "prefixItems",
    "unevaluatedProperties",
    "unevaluatedItems",
    "dependentRequired",
    "dependentSchemas",
    "minContains",
    "maxContains",
    "$dynamicRef",
    "$dynamicAnchor",
    "$recursiveRef",
];

/// How a keyword's value holds subschemas.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Holds {
    /// The value is a subschema.
    One,
    /// An array of subschemas.
    Many,
    /// Either (`items`).
    OneOrMany,
    /// An object mapping names to subschemas.
    Named,
}
use Holds::{Many, Named, One, OneOrMany};

/// Every keyword whose value is entered as a schema, by `compile_schema`
/// or (for `definitions`, `$defs` and the unsupported ones) only by the
/// pre-walk. Anything else — property *names*, `enum` / `const` /
/// `default` / `examples` payloads, unknown vendor keys — is data. The
/// test `the_prewalk_and_the_compiler_enter_the_same_positions` holds
/// this table and `compile_schema` together.
#[rustfmt::skip]
const SUBSCHEMA_KEYWORDS: [(&str, Holds); 21] = [
    ("not", One), ("if", One), ("then", One), ("else", One), ("contains", One),
    ("additionalItems", One), ("additionalProperties", One), ("propertyNames", One),
    ("unevaluatedItems", One), ("unevaluatedProperties", One),
    ("allOf", Many), ("anyOf", Many), ("oneOf", Many), ("prefixItems", Many),
    ("items", OneOrMany),
    ("properties", Named), ("patternProperties", Named), ("dependencies", Named),
    ("definitions", Named), ("$defs", Named), ("dependentSchemas", Named),
];

/// Fails with one error listing the path of every `UNSUPPORTED_KEYWORDS`
/// member found in a schema position of `value` (the schema at `path`
/// of `document`) or of a `$ref` target reachable from one.
fn refuse_unsupported(document: &Value, value: &Value, path: &str) -> Result<(), SchemaError> {
    let mut walk = Prewalk {
        document,
        visited: HashSet::new(),
        found: Vec::new(),
    };
    walk.schema(value, path);
    match walk.found.first() {
        None => Ok(()),
        Some(first) => Err(SchemaError::new(
            first.clone(),
            format!(
                "unsupported keywords (ignoring them would validate more permissively than written): {}",
                walk.found.join(", ")
            ),
        )),
    }
}

/// The walk over every schema position of a document, done before
/// compiling so that unused `definitions` are covered and all offenders
/// are reported together.
struct Prewalk<'d> {
    document: &'d Value,
    /// Paths already entered: a definition is reached both by position
    /// and by reference, and references may be cyclic.
    visited: HashSet<String>,
    found: Vec<String>,
}

impl Prewalk<'_> {
    fn schema(&mut self, value: &Value, path: &str) {
        let Value::Obj(obj) = value else { return };
        if !self.visited.insert(path.to_string()) {
            return;
        }
        for (key, val) in obj.iter() {
            let at = format!("{path}/{key}");
            let holds = SUBSCHEMA_KEYWORDS
                .iter()
                .find(|(keyword, _)| *keyword == key)
                .map(|(_, holds)| *holds);
            match (holds, val) {
                (Some(Many | OneOrMany), Value::Arr(schemas)) => {
                    for (i, s) in schemas.iter().enumerate() {
                        self.schema(s, &format!("{at}/{i}"));
                    }
                }
                (Some(One | OneOrMany), one) => self.schema(one, &at),
                (Some(Named), Value::Obj(named)) => {
                    for (name, s) in named.iter() {
                        self.schema(s, &format!("{at}/{name}"));
                    }
                }
                // A target outside the positions above (say
                // `#/components/schemas/x`). A reference that does not
                // resolve stays what it was: an error when validation
                // meets it.
                (None, Value::Str(reference)) if key == "$ref" => {
                    if let Ok(target) = resolve_target(self.document, reference) {
                        self.schema(target, reference);
                    }
                }
                _ => {}
            }
            if UNSUPPORTED_KEYWORDS.contains(&key) {
                self.found.push(at);
            }
        }
    }
}

/// Decodes the small set of percent-escapes pointers in fragments need.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
            if let Some(v) = hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                out.push(v);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8(out).unwrap_or_else(|_| s.to_string())
}

/// Compiles one schema value (recursively).
pub fn compile_schema(value: &Value, path: &str) -> Result<Schema, SchemaError> {
    match value {
        Value::Bool(true) => Ok(Schema::Any),
        Value::Bool(false) => Ok(Schema::Never),
        Value::Obj(obj) => {
            let mut node = SchemaNode::default();
            let sub = |key: &str| format!("{path}/{key}");

            for (key, val) in obj.iter() {
                match key {
                    "type" => node.types = Some(parse_types(val, &sub(key))?),
                    "enum" => {
                        let arr = expect_array(val, &sub(key))?;
                        if arr.is_empty() {
                            return Err(SchemaError::new(sub(key), "enum must be non-empty"));
                        }
                        node.enumeration = Some(arr.to_vec());
                    }
                    "const" => node.const_value = Some(val.clone()),
                    "allOf" => node.all_of = parse_schema_array(val, &sub(key))?,
                    "anyOf" => node.any_of = parse_schema_array(val, &sub(key))?,
                    "oneOf" => node.one_of = parse_schema_array(val, &sub(key))?,
                    "not" => node.not = Some(compile_schema(val, &sub(key))?),
                    "if" => node.if_schema = Some(compile_schema(val, &sub(key))?),
                    "then" => node.then_schema = Some(compile_schema(val, &sub(key))?),
                    "else" => node.else_schema = Some(compile_schema(val, &sub(key))?),
                    "minLength" => node.min_length = Some(expect_count(val, &sub(key))?),
                    "maxLength" => node.max_length = Some(expect_count(val, &sub(key))?),
                    "pattern" => node.pattern = Some(compile_pattern(val, &sub(key))?),
                    "format" => {
                        node.format = Some(expect_string(val, &sub(key))?.to_string());
                    }
                    "minimum" => node.minimum = Some(expect_number(val, &sub(key))?),
                    "maximum" => node.maximum = Some(expect_number(val, &sub(key))?),
                    "exclusiveMinimum" => {
                        node.exclusive_minimum = Some(expect_number(val, &sub(key))?)
                    }
                    "exclusiveMaximum" => {
                        node.exclusive_maximum = Some(expect_number(val, &sub(key))?)
                    }
                    "multipleOf" => {
                        let n = expect_number(val, &sub(key))?;
                        if n.as_f64() <= 0.0 {
                            return Err(SchemaError::new(sub(key), "multipleOf must be > 0"));
                        }
                        node.multiple_of = Some(n);
                    }
                    "items" => {
                        node.items = Some(match val {
                            Value::Arr(schemas) => {
                                let mut tuple = Vec::with_capacity(schemas.len());
                                for (i, s) in schemas.iter().enumerate() {
                                    tuple.push(compile_schema(s, &format!("{path}/items/{i}"))?);
                                }
                                Items::Tuple(tuple)
                            }
                            other => Items::All(compile_schema(other, &sub(key))?),
                        });
                    }
                    "additionalItems" => {
                        node.additional_items = Some(compile_schema(val, &sub(key))?)
                    }
                    "minItems" => node.min_items = Some(expect_count(val, &sub(key))?),
                    "maxItems" => node.max_items = Some(expect_count(val, &sub(key))?),
                    "uniqueItems" => {
                        node.unique_items = val
                            .as_bool()
                            .ok_or_else(|| SchemaError::new(sub(key), "expected a boolean"))?;
                    }
                    "contains" => node.contains = Some(compile_schema(val, &sub(key))?),
                    "properties" => {
                        let props = expect_object(val, &sub(key))?;
                        for (name, s) in props.iter() {
                            let compiled = compile_schema(s, &format!("{path}/properties/{name}"))?;
                            node.properties.push((name.to_string(), compiled));
                        }
                    }
                    "patternProperties" => {
                        let props = expect_object(val, &sub(key))?;
                        for (pat, s) in props.iter() {
                            let compiled_pat = compile_pattern(
                                &Value::Str(pat.to_string()),
                                &format!("{path}/patternProperties/{pat}"),
                            )?;
                            let compiled =
                                compile_schema(s, &format!("{path}/patternProperties/{pat}"))?;
                            node.pattern_properties.push((compiled_pat, compiled));
                        }
                    }
                    "additionalProperties" => {
                        node.additional_properties = Some(compile_schema(val, &sub(key))?)
                    }
                    "required" => {
                        let arr = expect_array(val, &sub(key))?;
                        let mut names = Vec::with_capacity(arr.len());
                        for item in arr {
                            names.push(expect_string(item, &sub(key))?.to_string());
                        }
                        node.required = names;
                    }
                    "minProperties" => node.min_properties = Some(expect_count(val, &sub(key))?),
                    "maxProperties" => node.max_properties = Some(expect_count(val, &sub(key))?),
                    "propertyNames" => node.property_names = Some(compile_schema(val, &sub(key))?),
                    "dependencies" => {
                        let deps = expect_object(val, &sub(key))?;
                        for (name, spec) in deps.iter() {
                            let dep = match spec {
                                Value::Arr(keys) => {
                                    let mut names = Vec::with_capacity(keys.len());
                                    for k in keys {
                                        names.push(
                                            expect_string(
                                                k,
                                                &format!("{path}/dependencies/{name}"),
                                            )?
                                            .to_string(),
                                        );
                                    }
                                    Dependency::Keys(names)
                                }
                                other => Dependency::Schema(compile_schema(
                                    other,
                                    &format!("{path}/dependencies/{name}"),
                                )?),
                            };
                            node.dependencies.push((name.to_string(), dep));
                        }
                    }
                    "$ref" => {
                        node.reference = Some(expect_string(val, &sub(key))?.to_string());
                    }
                    "title" => node.title = Some(expect_string(val, &sub(key))?.to_string()),
                    "description" => {
                        node.description = Some(expect_string(val, &sub(key))?.to_string())
                    }
                    // `definitions`, `$defs`, `$schema`, `$id`, `$comment`,
                    // `default`, `examples` and unknown keywords are
                    // non-validating; the raw document stays available for
                    // `$ref` resolution. (`refuse_unsupported` has already
                    // turned away the keywords that do assert something.)
                    _ => {}
                }
            }
            if node.is_unconstrained() {
                Ok(Schema::Any)
            } else {
                Ok(Schema::node(node))
            }
        }
        other => Err(SchemaError::new(
            path,
            format!(
                "a schema must be an object or boolean, found {}",
                other.kind()
            ),
        )),
    }
}

fn parse_types(val: &Value, path: &str) -> Result<Vec<Kind>, SchemaError> {
    let parse_one = |v: &Value| -> Result<Kind, SchemaError> {
        let name = v
            .as_str()
            .ok_or_else(|| SchemaError::new(path, "type must be a string"))?;
        Kind::from_name(name)
            .ok_or_else(|| SchemaError::new(path, format!("unknown type '{name}'")))
    };
    match val {
        Value::Arr(items) => {
            if items.is_empty() {
                return Err(SchemaError::new(path, "type array must be non-empty"));
            }
            items.iter().map(parse_one).collect()
        }
        other => Ok(vec![parse_one(other)?]),
    }
}

fn parse_schema_array(val: &Value, path: &str) -> Result<Vec<Schema>, SchemaError> {
    let arr = expect_array(val, path)?;
    if arr.is_empty() {
        return Err(SchemaError::new(
            path,
            "must be a non-empty array of schemas",
        ));
    }
    arr.iter()
        .enumerate()
        .map(|(i, s)| compile_schema(s, &format!("{path}/{i}")))
        .collect()
}

fn compile_pattern(val: &Value, path: &str) -> Result<CompiledPattern, SchemaError> {
    let source = expect_string(val, path)?;
    let regex =
        Regex::compile(source).map_err(|e| SchemaError::new(path, format!("bad pattern: {e}")))?;
    Ok(CompiledPattern {
        source: source.to_string(),
        regex,
    })
}

fn expect_string<'v>(val: &'v Value, path: &str) -> Result<&'v str, SchemaError> {
    val.as_str()
        .ok_or_else(|| SchemaError::new(path, "expected a string"))
}

fn expect_array<'v>(val: &'v Value, path: &str) -> Result<&'v [Value], SchemaError> {
    val.as_array()
        .ok_or_else(|| SchemaError::new(path, "expected an array"))
}

fn expect_object<'v>(val: &'v Value, path: &str) -> Result<&'v jsonx_data::Object, SchemaError> {
    val.as_object()
        .ok_or_else(|| SchemaError::new(path, "expected an object"))
}

fn expect_number(val: &Value, path: &str) -> Result<Number, SchemaError> {
    val.as_number()
        .copied()
        .ok_or_else(|| SchemaError::new(path, "expected a number"))
}

fn expect_count(val: &Value, path: &str) -> Result<u64, SchemaError> {
    match val.as_i64() {
        Some(i) if i >= 0 => Ok(i as u64),
        _ => Err(SchemaError::new(path, "expected a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonx_data::json;

    #[test]
    fn boolean_schemas() {
        assert!(matches!(
            compile_schema(&json!(true), "#").unwrap(),
            Schema::Any
        ));
        assert!(matches!(
            compile_schema(&json!(false), "#").unwrap(),
            Schema::Never
        ));
        assert!(matches!(
            compile_schema(&json!({}), "#").unwrap(),
            Schema::Any
        ));
    }

    #[test]
    fn non_schema_values_rejected() {
        assert!(compile_schema(&json!(3), "#").is_err());
        assert!(compile_schema(&json!("s"), "#").is_err());
        assert!(compile_schema(&json!([1]), "#").is_err());
    }

    #[test]
    fn keyword_shape_validation() {
        for bad in [
            json!({"type": "strang"}),
            json!({"type": []}),
            json!({"type": 3}),
            json!({"minLength": -1}),
            json!({"minLength": 1.5}),
            json!({"enum": []}),
            json!({"multipleOf": 0}),
            json!({"allOf": []}),
            json!({"required": [1]}),
            json!({"uniqueItems": "yes"}),
            json!({"pattern": "["}),
            json!({"properties": []}),
        ] {
            assert!(
                CompiledSchema::compile(&bad).is_err(),
                "expected {bad} to be rejected"
            );
        }
    }

    #[test]
    fn error_paths_are_pointers() {
        let err = CompiledSchema::compile(&json!({
            "properties": { "a": { "minimum": "x" } }
        }))
        .unwrap_err();
        assert_eq!(err.schema_path, "#/properties/a/minimum");
    }

    #[test]
    fn ref_resolution() {
        let doc = json!({
            "definitions": { "pos": { "type": "integer", "minimum": 1 } },
            "$ref": "#/definitions/pos"
        });
        let compiled = CompiledSchema::compile(&doc).unwrap();
        let target = compiled.resolve_ref("#/definitions/pos").unwrap();
        assert!(matches!(target, Schema::Node(_)));
        // Memoized: second resolution hits the cache.
        let again = compiled.resolve_ref("#/definitions/pos").unwrap();
        if let (Schema::Node(a), Schema::Node(b)) = (&target, &again) {
            assert!(std::sync::Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn ref_errors() {
        let compiled = CompiledSchema::compile(&json!({"$ref": "#/nope"})).unwrap();
        assert!(compiled.resolve_ref("#/nope").is_err());
        assert!(compiled
            .resolve_ref("http://elsewhere/schema.json")
            .is_err());
    }

    #[test]
    fn root_ref_resolves_to_whole_document() {
        let compiled = CompiledSchema::compile(&json!({"type": "array"})).unwrap();
        let target = compiled.resolve_ref("#").unwrap();
        assert!(matches!(target, Schema::Node(_)));
    }

    #[test]
    fn percent_encoded_pointer() {
        let doc = json!({
            "definitions": { "a b": { "type": "null" } }
        });
        let compiled = CompiledSchema::compile(&doc).unwrap();
        assert!(compiled.resolve_ref("#/definitions/a%20b").is_ok());
    }

    #[test]
    fn annotations_and_unknown_keywords_ignored() {
        let s = CompiledSchema::compile(&json!({
            "$schema": "http://json-schema.org/draft-06/schema#",
            "$id": "http://example.com/s.json",
            "$comment": "not an assertion",
            "definitions": {},
            "$defs": {},
            "x-vendor": {"anything": true, "prefixItems": [false]},
            "default": {"prefixItems": 3},
            "examples": [{"unevaluatedItems": false}],
            "title": "t",
            "description": "d"
        }))
        .unwrap();
        assert!(matches!(s.root(), Schema::Any));
        assert!(s.validate(&json!([1, "x"])).is_ok());
        // A property *named* like a keyword, or enum/const data spelling
        // one, is not a keyword.
        CompiledSchema::compile(&json!({
            "properties": {"prefixItems": {"type": "string"}},
            "enum": [{"dependentRequired": 1}],
            "const": {"minContains": 2}
        }))
        .unwrap();
    }

    #[test]
    fn unsupported_keywords_are_refused_wherever_they_sit() {
        for keyword in UNSUPPORTED_KEYWORDS {
            let offender = match keyword {
                "prefixItems" => json!([{"type": "string"}]),
                "unevaluatedProperties" | "unevaluatedItems" => json!(false),
                "dependentRequired" => json!({"a": ["b"]}),
                "dependentSchemas" => json!({"a": {"required": ["b"]}}),
                "minContains" | "maxContains" => json!(2),
                _ => json!("#meta"),
            };
            let mut node = jsonx_data::Object::new();
            node.insert(keyword, offender);
            let node = Value::Obj(node);
            for (doc, at) in [
                (node.clone(), format!("#/{keyword}")),
                (
                    json!({"properties": {"p": node.clone()}}),
                    format!("#/properties/p/{keyword}"),
                ),
                (json!({"items": node.clone()}), format!("#/items/{keyword}")),
                (
                    json!({"anyOf": [{"type": "null"}, node.clone()]}),
                    format!("#/anyOf/1/{keyword}"),
                ),
            ] {
                let err = CompiledSchema::compile(&doc).unwrap_err();
                assert_eq!(err.schema_path, at, "{doc}");
                assert!(err.message.contains(&at), "{err}");
            }
        }
    }

    #[test]
    fn one_error_lists_every_unsupported_keyword() {
        let err = CompiledSchema::compile(&json!({
            "prefixItems": [{"unevaluatedItems": false}],
            "definitions": {"unused": {"dependentRequired": {"a": ["b"]}}},
            "$defs": {"d": {"not": {"$dynamicRef": "#x"}}},
            "dependentSchemas": {"a": {"maxContains": 1}}
        }))
        .unwrap_err();
        for at in [
            "#/prefixItems",
            "#/prefixItems/0/unevaluatedItems",
            "#/definitions/unused/dependentRequired",
            "#/$defs/d/not/$dynamicRef",
            "#/dependentSchemas",
            "#/dependentSchemas/a/maxContains",
        ] {
            assert!(err.message.contains(at), "{at} missing from: {err}");
        }
        assert_eq!(err.message.matches("#/").count(), 6, "{err}");
    }

    #[test]
    fn a_ref_target_outside_the_keyword_positions_is_checked_too() {
        let err = CompiledSchema::compile(&json!({
            "properties": {"p": {"$ref": "#/components/pair"}},
            "components": {
                "pair": {"prefixItems": [{"type": "string"}], "not": {"$ref": "#/components/pair"}},
                "unused": {"minContains": 1}
            }
        }))
        .unwrap_err();
        assert_eq!(err.schema_path, "#/components/pair/prefixItems");
        assert_eq!(err.message.matches("#/").count(), 1, "{err}");
        // Not reachable from the root, so only `resolve_ref` can meet it.
        let compiled = CompiledSchema::compile(&json!({
            "components": {"pair": {"prefixItems": [{"type": "string"}]}}
        }))
        .unwrap();
        let err = compiled.resolve_ref("#/components/pair").unwrap_err();
        assert!(err.message.contains("prefixItems"), "{err}");
        // A definition reached by position and by reference is listed once;
        // a dangling reference is still left to validation.
        let err = CompiledSchema::compile(&json!({
            "$ref": "#/definitions/d",
            "definitions": {"d": {"maxContains": 1, "not": {"$ref": "#/nowhere"}}}
        }))
        .unwrap_err();
        assert_eq!(err.message.matches("#/").count(), 1, "{err}");
    }

    /// `{keyword: …}` holding `sub` as one subschema, in an array and in a
    /// name map, each with the path `sub` then sits at.
    fn in_each_shape(keyword: &str, sub: Value) -> [(Value, String); 3] {
        let doc = |held: Value| {
            let mut obj = jsonx_data::Object::new();
            obj.insert(keyword, held);
            Value::Obj(obj)
        };
        [
            (doc(sub.clone()), format!("#/{keyword}")),
            (doc(json!([sub.clone()])), format!("#/{keyword}/0")),
            (doc(json!({"n": sub})), format!("#/{keyword}/n")),
        ]
    }

    #[test]
    fn the_prewalk_and_the_compiler_enter_the_same_positions() {
        // The vocabulary of drafts 04 to 2020-12, so that a keyword either
        // side learns to enter is already on the list.
        #[rustfmt::skip]
        const VOCABULARY: [&str; 63] = [
            "$schema", "$id", "id", "$ref", "$anchor", "$dynamicRef", "$dynamicAnchor",
            "$recursiveRef", "$recursiveAnchor", "$vocabulary", "$comment", "$defs",
            "definitions", "allOf", "anyOf", "oneOf", "not", "if", "then", "else",
            "dependentSchemas", "prefixItems", "items", "additionalItems", "contains",
            "properties", "patternProperties", "additionalProperties", "propertyNames",
            "unevaluatedItems", "unevaluatedProperties", "dependencies", "type", "enum",
            "const", "multipleOf", "maximum", "exclusiveMaximum", "minimum",
            "exclusiveMinimum", "maxLength", "minLength", "pattern", "maxItems", "minItems",
            "uniqueItems", "maxContains", "minContains", "maxProperties", "minProperties",
            "required", "dependentRequired", "format", "contentEncoding", "contentMediaType",
            "contentSchema", "title", "description", "default", "deprecated", "readOnly",
            "writeOnly", "examples",
        ];
        for (keyword, _) in SUBSCHEMA_KEYWORDS {
            assert!(VOCABULARY.contains(&keyword), "{keyword}");
        }
        for keyword in VOCABULARY {
            let listed = match SUBSCHEMA_KEYWORDS.iter().find(|(k, _)| *k == keyword) {
                None => [false, false, false],
                Some((_, One)) => [true, false, false],
                Some((_, Many)) => [false, true, false],
                Some((_, OneOrMany)) => [true, true, false],
                Some((_, Named)) => [false, false, true],
            };
            // The pre-walk enters a position when it finds an unsupported
            // keyword there; the compiler, when a malformed subschema
            // there fails the compile.
            let walked = in_each_shape(keyword, json!({"minContains": 1})).map(|(doc, at)| {
                refuse_unsupported(&doc, &doc, "#")
                    .is_err_and(|e| e.message.contains(&format!("{at}/minContains")))
            });
            assert_eq!(walked, listed, "pre-walk, {keyword}");
            let compiled = in_each_shape(keyword, json!({"type": 3})).map(|(doc, at)| {
                compile_schema(&doc, "#").is_err_and(|e| {
                    e.schema_path == format!("{at}/type") && e.message == "type must be a string"
                })
            });
            let ignored = UNSUPPORTED_KEYWORDS.contains(&keyword)
                || ["definitions", "$defs"].contains(&keyword);
            let expected = if ignored { [false; 3] } else { listed };
            assert_eq!(compiled, expected, "compiler, {keyword}");
        }
    }

    #[test]
    fn schemas_of_the_shape_infer_emits_still_compile() {
        // Every keyword `jsonx_core::to_json_schema` writes: type,
        // properties, required, additionalProperties, items, maxItems,
        // anyOf.
        CompiledSchema::compile(&json!({
            "type": "object",
            "properties": {
                "id": {"anyOf": [{"type": "integer"}, {"type": "string"}]},
                "tags": {"type": "array", "items": {"type": "string"}},
                "none": {"type": "array", "maxItems": 0},
                "geo": {
                    "type": "object",
                    "properties": {"lat": {"type": "number"}},
                    "required": ["lat"],
                    "additionalProperties": false
                }
            },
            "required": ["id"],
            "additionalProperties": false
        }))
        .unwrap();
    }
}
