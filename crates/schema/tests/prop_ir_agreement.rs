//! Property tests pinning the compiled arena's one walk to the AST
//! interpreter kept under `tests/oracle/`: for arbitrary schema/value
//! pairs — including `$ref` chains, reference cycles and bad references —
//! the errors face (`validate`) must produce the oracle's errors exactly
//! (kind, instance path, message and order), and the verdict face
//! (`is_valid` / `FastValidator`) must answer "no errors". The errors must
//! also be deterministic across repeated runs and independent
//! compilations, so compile-time reference memoization cannot change
//! diagnostics. Over the same unrestricted vocabulary, `streamable()` must
//! be sound: whatever it accepts, the event walk decides like the IR does.

mod oracle;

use jsonx_data::{json, Number, Object, Value};
use jsonx_schema::{CompiledSchema, EventValidator, ValidatorOptions};
use jsonx_syntax::{EventReceiver, JsonDecoder, RawEvent, RecordDecoder};
use proptest::prelude::*;

/// Arbitrary JSON instances. Object keys are drawn from a pool that
/// overlaps the property names the schema strategy uses ("a", "b", …),
/// so properties/required/dependencies keywords actually fire.
fn arb_instance() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-20i64..20).prop_map(|i| Value::Num(Number::Int(i))),
        (-20.0f64..20.0).prop_map(|f| Value::Num(Number::from_f64(f).unwrap())),
        "[a-z]{0,6}".prop_map(Value::Str),
        Just(Value::Str("2019-03-26".to_string())),
    ];
    leaf.prop_recursive(3, 24, 5, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Arr),
            prop::collection::vec((arb_key(), inner), 0..4)
                .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>())),
        ]
    })
}

fn arb_key() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        "[a-z]{0,4}".prop_map(|s| s),
    ]
}

/// Small pool of values for `enum` / `const`.
fn arb_const() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(json!(1)),
        Just(json!("a")),
        Just(json!(null)),
        Just(json!([1])),
        Just(json!({"a": 1})),
    ]
}

/// Leaf schemas: single keywords, boolean schemas, and references into
/// the definitions pool (including the root and a dangling target).
fn arb_leaf_schema() -> impl Strategy<Value = Value> + Clone {
    prop_oneof![
        Just(json!(true)),
        Just(json!(false)),
        Just(json!({})),
        prop_oneof![
            Just("null"),
            Just("boolean"),
            Just("integer"),
            Just("number"),
            Just("string"),
            Just("array"),
            Just("object")
        ]
        .prop_map(|t| json!({ "type": t })),
        Just(json!({"type": ["integer", "string"]})),
        (-10i64..10).prop_map(|n| json!({ "minimum": n })),
        (-10i64..10).prop_map(|n| json!({ "maximum": n })),
        (1i64..5).prop_map(|n| json!({ "multipleOf": n })),
        (0i64..4).prop_map(|n| json!({ "minLength": n })),
        (0i64..6).prop_map(|n| json!({ "maxLength": n })),
        prop_oneof![Just("^[a-z]+$"), Just("\\d"), Just("^a")]
            .prop_map(|p| json!({ "pattern": p })),
        Just(json!({"format": "date"})),
        prop::collection::vec(arb_const(), 1..4).prop_map(|vs| json!({ "enum": vs })),
        arb_const().prop_map(|v| json!({ "const": v })),
        prop::collection::vec(arb_key(), 1..3).prop_map(|ks| json!({ "required": ks })),
        Just(json!({"uniqueItems": true})),
        (0i64..3).prop_map(|n| json!({ "minItems": n })),
        (0i64..3).prop_map(|n| json!({ "minProperties": n })),
        prop_oneof![
            Just("#/definitions/d0"),
            Just("#/definitions/d1"),
            Just("#/definitions/d2"),
            Just("#"),
            Just("#/definitions/missing")
        ]
        .prop_map(|r| json!({ "$ref": r })),
    ]
}

/// Full schema strategy: leaves composed through every applicator.
fn arb_schema() -> impl Strategy<Value = Value> {
    arb_leaf_schema().prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|s| json!({ "items": s })),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| json!({"items": [a], "additionalItems": b})),
            (arb_key(), inner.clone(), any::<bool>()).prop_map(|(k, s, req)| {
                if req {
                    json!({"properties": {k.clone(): s}, "required": [k]})
                } else {
                    json!({ "properties": { k: s } })
                }
            }),
            // One object failing `required` and a member at once: the
            // errors face must report them in the oracle's order.
            (arb_key(), inner.clone(), arb_key())
                .prop_map(|(k, s, other)| json!({"properties": {k: s}, "required": [other]})),
            inner
                .clone()
                .prop_map(|s| json!({"patternProperties": {"^[ab]$": s}})),
            inner
                .clone()
                .prop_map(|s| json!({ "additionalProperties": s })),
            inner.clone().prop_map(|s| json!({ "propertyNames": s })),
            prop::collection::vec(inner.clone(), 1..3).prop_map(|ss| json!({ "anyOf": ss })),
            prop::collection::vec(inner.clone(), 1..3).prop_map(|ss| json!({ "oneOf": ss })),
            prop::collection::vec(inner.clone(), 1..3).prop_map(|ss| json!({ "allOf": ss })),
            inner.clone().prop_map(|s| json!({ "not": s })),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(i, t, e)| json!({"if": i, "then": t, "else": e})),
            inner.clone().prop_map(|s| json!({ "contains": s })),
            Just(json!({"dependencies": {"a": ["b"]}})),
            inner
                .clone()
                .prop_map(|s| json!({"dependencies": {"a": s}})),
        ]
    })
}

/// A whole schema document: a root schema plus a definitions pool the
/// `$ref` leaves point into. Definitions may reference each other (and
/// the root), so guarded and unguarded cycles both occur.
fn arb_schema_document() -> impl Strategy<Value = Value> {
    (arb_schema(), arb_schema(), arb_schema(), arb_schema()).prop_map(|(root, d0, d1, d2)| {
        match root {
            Value::Obj(mut obj) => {
                obj.insert("definitions", json!({"d0": d0, "d1": d1, "d2": d2}));
                Value::Obj(obj)
            }
            // Boolean root schemas carry no refs; use them as-is.
            other => other,
        }
    })
}

proptest! {
    #[test]
    fn compiled_ir_agrees_with_interpreter(
        doc in arb_schema_document(),
        instance in arb_instance(),
    ) {
        let compiled = CompiledSchema::compile(&doc)
            .unwrap_or_else(|e| panic!("strategy produced uncompilable schema {doc}: {e}"));
        let errors = compiled.validate(&instance);
        prop_assert_eq!(
            &errors,
            &oracle::validate(&compiled, &instance),
            "errors differ from the oracle's on schema {} instance {}",
            doc,
            instance
        );
        prop_assert_eq!(
            compiled.is_valid(&instance),
            errors.is_ok(),
            "verdict mismatch on schema {} instance {}",
            doc,
            instance
        );

        // Determinism: the same errors on repeat, and on a fresh
        // compilation (memoized vs recomputed reference resolution).
        prop_assert_eq!(&errors, &compiled.validate(&instance));
        let recompiled = CompiledSchema::compile(&doc).unwrap();
        prop_assert_eq!(&errors, &recompiled.validate(&instance));
    }

    #[test]
    fn agreement_holds_with_formats_enforced(
        doc in arb_schema_document(),
        instance in arb_instance(),
    ) {
        let opts = ValidatorOptions { enforce_formats: true };
        let compiled = CompiledSchema::compile(&doc).unwrap();
        let errors = compiled.validate_with(&instance, opts);
        prop_assert_eq!(
            &errors,
            &oracle::validate_with(&compiled, &instance, opts),
            "format-enforcing errors differ from the oracle's on schema {} instance {}",
            doc,
            instance
        );
        prop_assert_eq!(
            compiled.is_valid_with(&instance, opts),
            errors.is_ok(),
            "format-enforcing verdict mismatch on schema {} instance {}",
            doc,
            instance
        );
    }

    #[test]
    fn reused_fast_validator_agrees_across_documents(
        doc in arb_schema_document(),
        instances in prop::collection::vec(arb_instance(), 1..8),
    ) {
        let compiled = CompiledSchema::compile(&doc).unwrap();
        let mut fv = compiled.fast_validator();
        for instance in &instances {
            prop_assert_eq!(
                fv.is_valid(instance),
                oracle::validate(&compiled, instance).is_ok(),
                "reused-validator mismatch on schema {} instance {}",
                doc,
                instance
            );
        }
    }

    /// The generator knows nothing of the streamable fragment, so this
    /// holds `streamable()` itself to account: a schema it accepts is one
    /// the event walk decides like the IR (or hands back), on respelled
    /// text with repeated keys; a schema it refuses contains the keyword
    /// it names.
    #[test]
    fn whatever_streamable_accepts_the_event_walk_decides_like_the_ir(
        doc in arb_schema_document(),
        instances in prop::collection::vec((arb_instance(), any::<u64>()), 1..6),
    ) {
        let compiled = CompiledSchema::compile(&doc).unwrap();
        let mut walk = match compiled.event_validator_with(ValidatorOptions::default()) {
            Ok(walk) => walk,
            Err(keyword) => {
                prop_assert_eq!(compiled.streamable(), Err(keyword));
                prop_assert!(doc.to_string().contains(&format!("\"{keyword}\":")), "{} in {}", keyword, doc);
                return Ok(());
            }
        };
        for (instance, seed) in &instances {
            let text = jsonx_gen::respelled(instance, *seed);
            JsonDecoder::new()
                .decode_events(&mut (), &text, &mut Walking(&mut walk))
                .unwrap();
            if let Some(valid) = walk.finish() {
                let value = jsonx_syntax::parse(&text).unwrap();
                prop_assert_eq!(valid, compiled.is_valid(&value), "schema {} record {}", doc, text);
            }
        }
    }
}

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
