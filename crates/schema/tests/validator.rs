//! Keyword-by-keyword validator conformance tests, in the style of the
//! official JSON-Schema-Test-Suite: each case is (schema, instance,
//! expected validity). Every verdict is also the errors face's and the
//! oracle's (the AST interpreter under `tests/oracle/`).

mod oracle;

use jsonx_data::{json, Value};
use jsonx_schema::CompiledSchema;

fn check(schema: Value, cases: &[(Value, bool)]) {
    let compiled = CompiledSchema::compile(&schema)
        .unwrap_or_else(|e| panic!("schema {schema} failed to compile: {e}"));
    for (instance, expected) in cases {
        let got = compiled.is_valid(instance);
        assert_eq!(
            got, *expected,
            "schema {schema} instance {instance}: expected valid={expected}"
        );
        let errors = compiled.validate(instance);
        assert_eq!(errors.is_ok(), got, "schema {schema} instance {instance}");
        assert_eq!(errors, oracle::validate(&compiled, instance));
    }
}

#[test]
fn type_keyword() {
    check(
        json!({"type": "string"}),
        &[
            (json!("x"), true),
            (json!(""), true),
            (json!(1), false),
            (json!(null), false),
            (json!([]), false),
            (json!({}), false),
        ],
    );
    check(
        json!({"type": ["string", "null"]}),
        &[(json!("x"), true), (json!(null), true), (json!(1), false)],
    );
    check(
        json!({"type": "array"}),
        &[(json!([1, 2]), true), (json!({}), false)],
    );
}

#[test]
fn enum_and_const() {
    check(
        json!({"enum": ["red", "green", 3, [1], {"k": 1}]}),
        &[
            (json!("red"), true),
            (json!(3), true),
            (json!(3.0), true), // canonical numeric equality
            (json!([1]), true),
            (json!({"k": 1}), true),
            (json!("blue"), false),
            (json!([1, 2]), false),
        ],
    );
    check(
        json!({"const": {"a": [1, 2]}}),
        &[
            (json!({"a": [1, 2]}), true),
            (json!({"a": [2, 1]}), false),
            (json!({"a": [1, 2], "b": 3}), false),
        ],
    );
}

#[test]
fn string_constraints() {
    check(
        json!({"minLength": 2, "maxLength": 4}),
        &[
            (json!("ab"), true),
            (json!("abcd"), true),
            (json!("a"), false),
            (json!("abcde"), false),
            // Length counts characters, not bytes.
            (json!("héé"), true),
            (json!(12), true), // non-strings pass string keywords
        ],
    );
    check(
        json!({"pattern": "^[a-z]+$"}),
        &[
            (json!("abc"), true),
            (json!("aBc"), false),
            (json!(""), false),
        ],
    );
}

#[test]
fn numeric_constraints() {
    check(
        json!({"minimum": 0, "maximum": 10}),
        &[
            (json!(0), true),
            (json!(10), true),
            (json!(5.5), true),
            (json!(-0.1), false),
            (json!(10.1), false),
            (json!("11"), true), // strings pass numeric keywords
        ],
    );
    check(
        json!({"exclusiveMinimum": 0, "exclusiveMaximum": 1}),
        &[(json!(0.5), true), (json!(0), false), (json!(1), false)],
    );
    check(
        json!({"multipleOf": 0.5}),
        &[(json!(1.5), true), (json!(2), true), (json!(1.3), false)],
    );
}

#[test]
fn array_constraints() {
    check(
        json!({"items": {"type": "integer"}, "minItems": 1, "maxItems": 3}),
        &[
            (json!([1]), true),
            (json!([1, 2, 3]), true),
            (json!([]), false),
            (json!([1, 2, 3, 4]), false),
            (json!([1, "x"]), false),
        ],
    );
    check(
        json!({"uniqueItems": true}),
        &[
            (json!([1, 2, 3]), true),
            (json!([1, 2, 1]), false),
            (json!([1, 1.0]), false), // canonical equality
            (json!([{"a": 1}, {"a": 1}]), false),
            (json!([[1], [2]]), true),
        ],
    );
    check(
        json!({"contains": {"type": "string"}}),
        &[
            (json!([1, "x"]), true),
            (json!([1, 2]), false),
            (json!([]), false),
        ],
    );
}

#[test]
fn tuple_items_and_additional() {
    let schema = json!({
        "items": [{"type": "integer"}, {"type": "string"}],
        "additionalItems": {"type": "boolean"}
    });
    check(
        schema,
        &[
            (json!([1, "a"]), true),
            (json!([1]), true),
            (json!([]), true),
            (json!([1, "a", true, false]), true),
            (json!([1, "a", 3]), false),
            (json!(["a", 1]), false),
        ],
    );
}

#[test]
fn object_constraints() {
    check(
        json!({
            "properties": {"a": {"type": "integer"}},
            "required": ["a"],
            "minProperties": 1,
            "maxProperties": 2
        }),
        &[
            (json!({"a": 1}), true),
            (json!({"a": 1, "b": 2}), true),
            (json!({}), false),
            (json!({"b": 1}), false),
            (json!({"a": "x"}), false),
            (json!({"a": 1, "b": 2, "c": 3}), false),
        ],
    );
}

#[test]
fn pattern_and_additional_properties() {
    let schema = json!({
        "properties": {"name": {"type": "string"}},
        "patternProperties": {"^x_": {"type": "integer"}},
        "additionalProperties": false
    });
    check(
        schema,
        &[
            (json!({"name": "n", "x_a": 1}), true),
            (json!({"x_a": 1, "x_b": 2}), true),
            (json!({"other": 1}), false),
            (json!({"x_a": "not int"}), false),
        ],
    );
    // additionalProperties as a schema.
    check(
        json!({"additionalProperties": {"type": "string"}}),
        &[
            (json!({"a": "x", "b": "y"}), true),
            (json!({"a": 1}), false),
        ],
    );
}

#[test]
fn property_names() {
    check(
        json!({"propertyNames": {"pattern": "^[a-z]+$"}}),
        &[
            (json!({"abc": 1}), true),
            (json!({"Abc": 1}), false),
            (json!({}), true),
        ],
    );
}

#[test]
fn dependencies_keyword() {
    // Key dependencies (co-occurrence).
    check(
        json!({"dependencies": {"credit_card": ["billing_address"]}}),
        &[
            (json!({"credit_card": "123", "billing_address": "x"}), true),
            (json!({"credit_card": "123"}), false),
            (json!({"billing_address": "x"}), true),
            (json!({}), true),
        ],
    );
    // Schema dependencies.
    check(
        json!({"dependencies": {"a": {"required": ["b"]}}}),
        &[
            (json!({"a": 1, "b": 2}), true),
            (json!({"a": 1}), false),
            (json!({"c": 1}), true),
        ],
    );
}

#[test]
fn combinators() {
    check(
        json!({"allOf": [{"type": "integer"}, {"minimum": 3}]}),
        &[(json!(4), true), (json!(3.5), false), (json!(2), false)],
    );
    check(
        json!({"anyOf": [{"type": "string"}, {"minimum": 10}]}),
        &[(json!("x"), true), (json!(12), true), (json!(5), false)],
    );
    // Union types for heterogeneous fields — the §2 motivating example.
    check(
        json!({"anyOf": [
            {"type": "string"},
            {"type": "object", "properties": {"lat": {"type": "number"}}, "required": ["lat"]}
        ]}),
        &[
            (json!("Lisbon"), true),
            (json!({"lat": 38.7}), true),
            (json!({"lon": -9.1}), false),
            (json!(7), false),
        ],
    );
}

#[test]
fn boolean_schemas_and_nesting() {
    check(json!(true), &[(json!(1), true), (json!(null), true)]);
    check(json!(false), &[(json!(1), false), (json!(null), false)]);
    check(
        json!({"properties": {"banned": false}}),
        &[
            (json!({}), true),
            (json!({"banned": 1}), false),
            (json!({"ok": 1}), true),
        ],
    );
}

#[test]
fn definitions_with_refs() {
    let schema = json!({
        "definitions": {
            "name": {"type": "string", "minLength": 1},
            "person": {
                "type": "object",
                "properties": {
                    "name": {"$ref": "#/definitions/name"},
                    "friend": {"$ref": "#/definitions/person"}
                },
                "required": ["name"]
            }
        },
        "$ref": "#/definitions/person"
    });
    check(
        schema,
        &[
            (json!({"name": "ada"}), true),
            (json!({"name": "ada", "friend": {"name": "grace"}}), true),
            (json!({"name": ""}), false),
            (json!({"name": "ada", "friend": {"name": 3}}), false),
            (json!({"friend": {"name": "grace"}}), false),
        ],
    );
}

#[test]
fn deeply_nested_error_paths() {
    let compiled = CompiledSchema::compile(&json!({
        "properties": {
            "a": {"items": {"properties": {"b": {"type": "integer"}}}}
        }
    }))
    .unwrap();
    let instance = json!({"a": [{"b": 1}, {"b": "x"}]});
    let errs = compiled.validate(&instance).unwrap_err();
    assert_eq!(errs[0].instance_path.to_string(), "/a/1/b");
    assert_eq!(Err(errs), oracle::validate(&compiled, &instance));
}

#[test]
fn twitter_like_schema_end_to_end() {
    // The tutorial's running example: a schema for (simplified) tweets.
    let schema = json!({
        "type": "object",
        "properties": {
            "id": {"type": "integer", "minimum": 0},
            "text": {"type": "string", "maxLength": 280},
            "user": {
                "type": "object",
                "properties": {
                    "screen_name": {"type": "string", "pattern": "^[A-Za-z0-9_]{1,15}$"},
                    "verified": {"type": "boolean"}
                },
                "required": ["screen_name"]
            },
            "coordinates": {
                "anyOf": [
                    {"type": "null"},
                    {
                        "type": "object",
                        "properties": {
                            "type": {"const": "Point"},
                            "coordinates": {
                                "type": "array",
                                "items": {"type": "number"},
                                "minItems": 2, "maxItems": 2
                            }
                        },
                        "required": ["type", "coordinates"]
                    }
                ]
            },
            "entities": {
                "type": "object",
                "properties": {
                    "hashtags": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "properties": {"text": {"type": "string"}},
                            "required": ["text"]
                        }
                    }
                }
            }
        },
        "required": ["id", "text", "user"]
    });
    check(
        schema,
        &[
            (
                json!({
                    "id": 1, "text": "hello EDBT",
                    "user": {"screen_name": "baazizi", "verified": false},
                    "coordinates": null,
                    "entities": {"hashtags": [{"text": "json"}]}
                }),
                true,
            ),
            (
                json!({
                    "id": 2, "text": "geo",
                    "user": {"screen_name": "colazzo"},
                    "coordinates": {"type": "Point", "coordinates": [38.72, -9.13]}
                }),
                true,
            ),
            (
                // Bad screen_name and missing text.
                json!({"id": 3, "user": {"screen_name": "way too long for twitter handles"}}),
                false,
            ),
            (
                // Coordinates wrong arity.
                json!({
                    "id": 4, "text": "x", "user": {"screen_name": "ok"},
                    "coordinates": {"type": "Point", "coordinates": [1.0]}
                }),
                false,
            ),
        ],
    );
}

#[test]
fn if_then_else_conditionals() {
    // The draft-07 conditional: country-dependent postal code shapes.
    let schema = json!({
        "type": "object",
        "properties": {
            "country": {"type": "string"},
            "postal_code": {"type": "string"}
        },
        "if": {"properties": {"country": {"const": "US"}}, "required": ["country"]},
        "then": {"properties": {"postal_code": {"pattern": "^\\d{5}$"}}},
        "else": {"properties": {"postal_code": {"pattern": "^[A-Z0-9 -]{3,10}$"}}}
    });
    check(
        schema,
        &[
            (json!({"country": "US", "postal_code": "20500"}), true),
            (json!({"country": "US", "postal_code": "W1A 1AA"}), false),
            (json!({"country": "UK", "postal_code": "W1A 1AA"}), true),
            (json!({"country": "UK", "postal_code": "*"}), false),
            // `if` fails when country is absent → else branch applies.
            (json!({"postal_code": "SW1"}), true),
        ],
    );
}

#[test]
fn if_without_branches_is_vacuous() {
    check(
        json!({"if": {"type": "string"}}),
        &[(json!("x"), true), (json!(1), true)],
    );
    // `then` without `if` is ignored per spec.
    check(json!({"then": {"type": "string"}}), &[(json!(1), true)]);
}

#[test]
fn conditional_error_kinds() {
    use jsonx_schema::ValidationErrorKind;
    let schema = CompiledSchema::compile(&json!({
        "if": {"type": "integer"},
        "then": {"minimum": 10},
        "else": {"type": "string"}
    }))
    .unwrap();
    let errs = schema.validate(&json!(3)).unwrap_err();
    assert!(matches!(
        errs[0].kind,
        ValidationErrorKind::Conditional { then_branch: true }
    ));
    let errs = schema.validate(&json!(null)).unwrap_err();
    assert!(matches!(
        errs[0].kind,
        ValidationErrorKind::Conditional { then_branch: false }
    ));
    for instance in [json!(3), json!(null)] {
        assert_eq!(
            schema.validate(&instance),
            oracle::validate(&schema, &instance)
        );
    }
    assert!(schema.is_valid(&json!(12)));
    assert!(schema.is_valid(&json!("s")));
}

/// The root fields a verdict can depend on: what a caller that projects
/// records before validating them may keep, skipping the rest.
#[test]
fn root_projection_names_the_fields_a_verdict_reads() {
    let projection = |schema: &Value| {
        let mut names = CompiledSchema::compile(schema).unwrap().root_projection()?;
        names.sort();
        names.dedup();
        Some(names)
    };
    let envelope = json!({
        "type": "object",
        "properties": {"id": {"type": "integer"}, "name": {"type": "string"}},
        "required": ["id"]
    });
    assert_eq!(
        projection(&envelope),
        Some(vec!["id".into(), "name".into()])
    );
    assert_eq!(projection(&json!(true)), Some(vec![]));
    assert_eq!(projection(&json!({})), Some(vec![]));
    // Combinators, a constraining `additionalProperties`, property counts
    // and `patternProperties` read fields a projection would skip.
    for schema in [
        json!({"allOf": [{"type": "object"}]}),
        json!({"type": "object", "additionalProperties": {"type": "string"}}),
        json!({"type": "object", "minProperties": 2}),
        json!({"type": "object", "patternProperties": {"^x": {"type": "integer"}}}),
    ] {
        assert_eq!(projection(&schema), None, "{schema}");
    }
}
