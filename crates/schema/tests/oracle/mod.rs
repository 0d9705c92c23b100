//! The AST interpreter: the test suites' reference evaluator.
//!
//! This is the tree-walking validator `jsonx-schema` shipped before its
//! diagnostics came from the compiled arena's errors face. It reads only
//! the public AST ([`CompiledSchema::root`], [`CompiledSchema::resolve_ref`],
//! [`Schema`], [`SchemaNode`]) and shares no code with the arena walk, so
//! a misreading of one shows up as a disagreement with the other. Root
//! test suites include it with `#[path = "../crates/schema/tests/oracle/mod.rs"]`.
#![allow(dead_code)]

use jsonx_data::{all_unique, Pointer, Value};
use jsonx_schema::formats::check_format;
use jsonx_schema::parse::compile_schema;
use jsonx_schema::{
    CompiledSchema, Dependency, Items, Schema, SchemaNode, ValidationError, ValidationErrorKind,
    ValidatorOptions,
};
use std::collections::{BTreeMap, BTreeSet};

/// Validates `value`, returning every violation found.
pub fn validate(schema: &CompiledSchema, value: &Value) -> Result<(), Vec<ValidationError>> {
    validate_with(schema, value, ValidatorOptions::default())
}

/// Validates with explicit options.
pub fn validate_with(
    schema: &CompiledSchema,
    value: &Value,
    options: ValidatorOptions,
) -> Result<(), Vec<ValidationError>> {
    let mut ctx = Ctx {
        doc: schema,
        options,
        errors: Vec::new(),
    };
    ctx.check(schema.root(), value, &Pointer::root());
    if ctx.errors.is_empty() {
        Ok(())
    } else {
        Err(ctx.errors)
    }
}

/// The well-formedness rule of Pezoa et al., decided without `compile`:
/// from the schema document and the public AST alone. A schema is ill
/// formed when a cycle of references passes no keyword that moves to a
/// sub-instance (`properties`, `patternProperties`, `additionalProperties`,
/// `items`, `additionalItems`, `contains`, `propertyNames`). Returns one
/// such cycle's references, the first repeated at the end.
///
/// References are resolved here as plain JSON pointers behind `#` (no
/// percent-escapes: the suites' schemas use none); one that resolves to
/// nothing, or to no schema, ends its chain.
pub fn well_formed(document: &Value) -> Result<(), Vec<String>> {
    // Each reference reached, with those its target reaches in place.
    let mut edges: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut todo = Vec::new();
    if let Ok(root) = compile_schema(document, "#") {
        refs_of(&root, true, &mut Vec::new(), &mut todo);
    }
    while let Some(reference) = todo.pop() {
        if edges.contains_key(&reference) {
            continue;
        }
        let (mut same, mut all) = (Vec::new(), Vec::new());
        let target = reference
            .strip_prefix('#')
            .and_then(|pointer| Pointer::parse(pointer).ok())
            .and_then(|pointer| pointer.resolve(document));
        if let Some(Ok(ast)) = target.map(|target| compile_schema(target, &reference)) {
            refs_of(&ast, true, &mut same, &mut all);
        }
        todo.extend(all);
        edges.insert(reference, same);
    }
    let mut finished = BTreeSet::new();
    for reference in edges.keys() {
        if let Some(cycle) = cycle_from(&edges, reference, &mut Vec::new(), &mut finished) {
            return Err(cycle);
        }
    }
    Ok(())
}

/// A depth-first search of the in-place reference edges from `reference`.
fn cycle_from(
    edges: &BTreeMap<String, Vec<String>>,
    reference: &str,
    path: &mut Vec<String>,
    finished: &mut BTreeSet<String>,
) -> Option<Vec<String>> {
    if let Some(at) = path.iter().position(|r| r == reference) {
        let mut cycle = path[at..].to_vec();
        cycle.push(reference.to_string());
        return Some(cycle);
    }
    if finished.contains(reference) {
        return None;
    }
    path.push(reference.to_string());
    for next in &edges[reference] {
        if let Some(cycle) = cycle_from(edges, next, path, finished) {
            return Some(cycle);
        }
    }
    path.pop();
    finished.insert(reference.to_string());
    None
}

/// The references `schema` holds: into `same` those it reaches without
/// moving to a sub-instance (when `here`), into `all` every one.
fn refs_of(schema: &Schema, here: bool, same: &mut Vec<String>, all: &mut Vec<String>) {
    let Schema::Node(node) = schema else { return };
    if let Some(reference) = &node.reference {
        // Siblings of `$ref` are ignored (draft-04/06).
        if here {
            same.push(reference.clone());
        }
        all.push(reference.clone());
        return;
    }
    let in_place = node
        .all_of
        .iter()
        .chain(&node.any_of)
        .chain(&node.one_of)
        .chain(&node.not)
        .chain(&node.if_schema)
        .chain(&node.then_schema)
        .chain(&node.else_schema)
        .chain(node.dependencies.iter().filter_map(|(_, dep)| match dep {
            Dependency::Schema(schema) => Some(schema),
            Dependency::Keys(_) => None,
        }));
    for sub in in_place {
        refs_of(sub, here, same, all);
    }
    let items: Vec<&Schema> = match &node.items {
        Some(Items::All(schema)) => vec![schema],
        Some(Items::Tuple(schemas)) => schemas.iter().collect(),
        None => Vec::new(),
    };
    let below = items
        .into_iter()
        .chain(&node.additional_items)
        .chain(&node.contains)
        .chain(node.properties.iter().map(|(_, schema)| schema))
        .chain(node.pattern_properties.iter().map(|(_, schema)| schema))
        .chain(&node.additional_properties)
        .chain(&node.property_names);
    for sub in below {
        refs_of(sub, false, same, all);
    }
}

struct Ctx<'a> {
    doc: &'a CompiledSchema,
    options: ValidatorOptions,
    errors: Vec<ValidationError>,
}

impl<'a> Ctx<'a> {
    fn emit(&mut self, path: &Pointer, kind: ValidationErrorKind, message: String) {
        self.errors.push(ValidationError {
            instance_path: path.clone(),
            kind,
            message,
        });
    }

    /// Validates without recording errors; returns conformity.
    fn probe(&mut self, schema: &Schema, value: &Value, path: &Pointer) -> bool {
        let saved = std::mem::take(&mut self.errors);
        self.check(schema, value, path);
        let ok = self.errors.is_empty();
        self.errors = saved;
        ok
    }

    fn check(&mut self, schema: &Schema, value: &Value, path: &Pointer) {
        match schema {
            Schema::Any => {}
            Schema::Never => self.emit(
                path,
                ValidationErrorKind::Never,
                "schema 'false' accepts nothing".to_string(),
            ),
            Schema::Node(node) => self.check_node(node, value, path),
        }
    }

    fn check_node(&mut self, node: &SchemaNode, value: &Value, path: &Pointer) {
        // `$ref`: per draft-04/06, siblings of $ref are ignored.
        if let Some(reference) = &node.reference {
            self.check_ref(reference, value, path);
            return;
        }

        self.check_general(node, value, path);
        self.check_combinators(node, value, path);
        match value {
            Value::Str(s) => self.check_string(node, s, path),
            Value::Num(_) => self.check_number(node, value, path),
            Value::Arr(items) => self.check_array(node, items, path),
            Value::Obj(_) => self.check_object(node, value, path),
            _ => {}
        }
    }

    fn check_ref(&mut self, reference: &str, value: &Value, path: &Pointer) {
        match self.doc.resolve_ref(reference) {
            Ok(target) => self.check(&target, value, path),
            Err(e) => self.emit(
                path,
                ValidationErrorKind::BadRef {
                    reference: reference.to_string(),
                },
                e.to_string(),
            ),
        }
    }

    fn check_general(&mut self, node: &SchemaNode, value: &Value, path: &Pointer) {
        if let Some(types) = &node.types {
            let actual = value.kind();
            if !types.iter().any(|t| t.subsumes(actual)) {
                let names: Vec<&str> = types.iter().map(|t| t.name()).collect();
                self.emit(
                    path,
                    ValidationErrorKind::Type,
                    format!("expected {}, found {}", names.join(" or "), actual),
                );
            }
        }
        if let Some(options) = &node.enumeration {
            if !options.iter().any(|o| o == value) {
                self.emit(
                    path,
                    ValidationErrorKind::Enum,
                    format!("{value} is not one of the permitted values"),
                );
            }
        }
        if let Some(expected) = &node.const_value {
            if expected != value {
                self.emit(
                    path,
                    ValidationErrorKind::Const,
                    format!("expected {expected}, found {value}"),
                );
            }
        }
    }

    fn check_combinators(&mut self, node: &SchemaNode, value: &Value, path: &Pointer) {
        for (i, sub) in node.all_of.iter().enumerate() {
            if !self.probe(sub, value, path) {
                self.emit(
                    path,
                    ValidationErrorKind::AllOf,
                    format!("does not satisfy allOf branch {i}"),
                );
            }
        }
        if !node.any_of.is_empty() {
            let hit = node.any_of.iter().any(|sub| self.probe(sub, value, path));
            if !hit {
                self.emit(
                    path,
                    ValidationErrorKind::AnyOf,
                    format!("matches none of the {} anyOf branches", node.any_of.len()),
                );
            }
        }
        if !node.one_of.is_empty() {
            let matched = node
                .one_of
                .iter()
                .filter(|sub| self.probe(sub, value, path))
                .count();
            if matched != 1 {
                self.emit(
                    path,
                    ValidationErrorKind::OneOf { matched },
                    format!("matches {matched} oneOf branches, expected exactly 1"),
                );
            }
        }
        if let Some(negated) = &node.not {
            if self.probe(negated, value, path) {
                self.emit(
                    path,
                    ValidationErrorKind::Not,
                    "matches the negated schema".to_string(),
                );
            }
        }
        if let Some(condition) = &node.if_schema {
            if self.probe(condition, value, path) {
                if let Some(then_schema) = &node.then_schema {
                    if !self.probe(then_schema, value, path) {
                        self.emit(
                            path,
                            ValidationErrorKind::Conditional { then_branch: true },
                            "matches 'if' but violates 'then'".to_string(),
                        );
                    }
                }
            } else if let Some(else_schema) = &node.else_schema {
                if !self.probe(else_schema, value, path) {
                    self.emit(
                        path,
                        ValidationErrorKind::Conditional { then_branch: false },
                        "fails 'if' and violates 'else'".to_string(),
                    );
                }
            }
        }
    }

    fn check_string(&mut self, node: &SchemaNode, s: &str, path: &Pointer) {
        // Lengths count Unicode scalar values, not bytes, per spec.
        let need_len = node.min_length.is_some() || node.max_length.is_some();
        if need_len {
            let len = s.chars().count() as u64;
            if let Some(min) = node.min_length {
                if len < min {
                    self.emit(
                        path,
                        ValidationErrorKind::MinLength,
                        format!("length {len} < minLength {min}"),
                    );
                }
            }
            if let Some(max) = node.max_length {
                if len > max {
                    self.emit(
                        path,
                        ValidationErrorKind::MaxLength,
                        format!("length {len} > maxLength {max}"),
                    );
                }
            }
        }
        if let Some(pattern) = &node.pattern {
            if !pattern.regex.is_match(s) {
                self.emit(
                    path,
                    ValidationErrorKind::Pattern,
                    format!("does not match pattern '{}'", pattern.source),
                );
            }
        }
        if self.options.enforce_formats {
            if let Some(format) = &node.format {
                if !check_format(format, s) {
                    self.emit(
                        path,
                        ValidationErrorKind::Format,
                        format!("'{s}' is not a valid {format}"),
                    );
                }
            }
        }
    }

    fn check_number(&mut self, node: &SchemaNode, value: &Value, path: &Pointer) {
        let n = *value.as_number().expect("checked by caller");
        if let Some(min) = node.minimum {
            if n < min {
                self.emit(
                    path,
                    ValidationErrorKind::Minimum,
                    format!("{n} < minimum {min}"),
                );
            }
        }
        if let Some(max) = node.maximum {
            if n > max {
                self.emit(
                    path,
                    ValidationErrorKind::Maximum,
                    format!("{n} > maximum {max}"),
                );
            }
        }
        if let Some(min) = node.exclusive_minimum {
            if n <= min {
                self.emit(
                    path,
                    ValidationErrorKind::ExclusiveMinimum,
                    format!("{n} <= exclusiveMinimum {min}"),
                );
            }
        }
        if let Some(max) = node.exclusive_maximum {
            if n >= max {
                self.emit(
                    path,
                    ValidationErrorKind::ExclusiveMaximum,
                    format!("{n} >= exclusiveMaximum {max}"),
                );
            }
        }
        if let Some(divisor) = node.multiple_of {
            if !n.is_multiple_of(&divisor) {
                self.emit(
                    path,
                    ValidationErrorKind::MultipleOf,
                    format!("{n} is not a multiple of {divisor}"),
                );
            }
        }
    }

    fn check_array(&mut self, node: &SchemaNode, items: &[Value], path: &Pointer) {
        let len = items.len() as u64;
        if let Some(min) = node.min_items {
            if len < min {
                self.emit(
                    path,
                    ValidationErrorKind::MinItems,
                    format!("{len} items < minItems {min}"),
                );
            }
        }
        if let Some(max) = node.max_items {
            if len > max {
                self.emit(
                    path,
                    ValidationErrorKind::MaxItems,
                    format!("{len} items > maxItems {max}"),
                );
            }
        }
        if node.unique_items && !all_unique(items) {
            self.emit(
                path,
                ValidationErrorKind::UniqueItems,
                "array items are not unique".to_string(),
            );
        }
        match &node.items {
            Some(Items::All(schema)) => {
                for (i, item) in items.iter().enumerate() {
                    let item_path = path.push_index(i);
                    self.check(schema, item, &item_path);
                }
            }
            Some(Items::Tuple(schemas)) => {
                for (i, item) in items.iter().enumerate() {
                    let item_path = path.push_index(i);
                    match schemas.get(i) {
                        Some(schema) => self.check(schema, item, &item_path),
                        None => {
                            if let Some(extra) = &node.additional_items {
                                let before = self.errors.len();
                                self.check(extra, item, &item_path);
                                if self.errors.len() > before {
                                    self.emit(
                                        path,
                                        ValidationErrorKind::AdditionalItems,
                                        format!("item {i} violates additionalItems"),
                                    );
                                }
                            }
                        }
                    }
                }
            }
            None => {}
        }
        if let Some(contains) = &node.contains {
            let hit = items
                .iter()
                .enumerate()
                .any(|(i, item)| self.probe(contains, item, &path.push_index(i)));
            if !hit {
                self.emit(
                    path,
                    ValidationErrorKind::Contains,
                    "no element matches 'contains'".to_string(),
                );
            }
        }
    }

    fn check_object(&mut self, node: &SchemaNode, value: &Value, path: &Pointer) {
        let obj = value.as_object().expect("checked by caller");
        let len = obj.len() as u64;
        if let Some(min) = node.min_properties {
            if len < min {
                self.emit(
                    path,
                    ValidationErrorKind::MinProperties,
                    format!("{len} properties < minProperties {min}"),
                );
            }
        }
        if let Some(max) = node.max_properties {
            if len > max {
                self.emit(
                    path,
                    ValidationErrorKind::MaxProperties,
                    format!("{len} properties > maxProperties {max}"),
                );
            }
        }
        for required in &node.required {
            if !obj.contains_key(required) {
                self.emit(
                    path,
                    ValidationErrorKind::Required {
                        missing: required.clone(),
                    },
                    format!("missing required property '{required}'"),
                );
            }
        }
        for (key, member) in obj.iter() {
            let member_path = path.push_key(key);
            let mut matched = false;
            if let Some((_, schema)) = node.properties.iter().find(|(name, _)| name == key) {
                matched = true;
                self.check(schema, member, &member_path);
            }
            for (pattern, schema) in &node.pattern_properties {
                if pattern.regex.is_match(key) {
                    matched = true;
                    self.check(schema, member, &member_path);
                }
            }
            if !matched {
                if let Some(additional) = &node.additional_properties {
                    let before = self.errors.len();
                    self.check(additional, member, &member_path);
                    if self.errors.len() > before {
                        // Make the offending key visible at the object level
                        // too (matches the error shape real validators emit).
                        self.emit(
                            path,
                            ValidationErrorKind::AdditionalProperties {
                                key: key.to_string(),
                            },
                            format!("property '{key}' violates additionalProperties"),
                        );
                    }
                }
            }
            if let Some(name_schema) = &node.property_names {
                if !self.probe(name_schema, &Value::Str(key.to_string()), &member_path) {
                    self.emit(
                        path,
                        ValidationErrorKind::PropertyNames {
                            key: key.to_string(),
                        },
                        format!("property name '{key}' violates propertyNames"),
                    );
                }
            }
        }
        for (trigger, dep) in &node.dependencies {
            if !obj.contains_key(trigger) {
                continue;
            }
            match dep {
                Dependency::Keys(keys) => {
                    for needed in keys {
                        if !obj.contains_key(needed) {
                            self.emit(
                                path,
                                ValidationErrorKind::Dependencies {
                                    key: trigger.clone(),
                                },
                                format!("'{trigger}' requires '{needed}' to be present"),
                            );
                        }
                    }
                }
                Dependency::Schema(schema) => {
                    if !self.probe(schema, value, path) {
                        self.emit(
                            path,
                            ValidationErrorKind::Dependencies {
                                key: trigger.clone(),
                            },
                            format!("object violates the schema dependency of '{trigger}'"),
                        );
                    }
                }
            }
        }
    }
}
