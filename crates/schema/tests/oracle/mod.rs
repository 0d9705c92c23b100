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
use jsonx_schema::{
    CompiledSchema, Dependency, Items, Schema, SchemaNode, ValidationError, ValidationErrorKind,
    ValidatorOptions,
};

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
        ref_stack: Vec::new(),
    };
    ctx.check(schema.root(), value, &Pointer::root());
    if ctx.errors.is_empty() {
        Ok(())
    } else {
        Err(ctx.errors)
    }
}

struct Ctx<'a> {
    doc: &'a CompiledSchema,
    options: ValidatorOptions,
    errors: Vec<ValidationError>,
    /// Active `$ref` expansions: (reference, instance path) pairs, used to
    /// detect unguarded recursion that would never consume input.
    ref_stack: Vec<(String, Pointer)>,
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
        // Compare borrowed before owning: the cycle check itself must not
        // allocate — only an actual expansion pays for the owned frame.
        let cycles = self
            .ref_stack
            .iter()
            .any(|(r, p)| r == reference && p == path);
        if cycles {
            self.emit(
                path,
                ValidationErrorKind::RefCycle {
                    reference: reference.to_string(),
                },
                format!("reference '{reference}' loops without consuming input"),
            );
            return;
        }
        match self.doc.resolve_ref(reference) {
            Ok(target) => {
                self.ref_stack.push((reference.to_string(), path.clone()));
                self.check(&target, value, path);
                self.ref_stack.pop();
            }
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
