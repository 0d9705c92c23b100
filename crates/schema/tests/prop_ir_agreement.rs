//! Property tests pinning the compiled arena's one walk to the AST
//! interpreter kept under `tests/oracle/`. The generator draws `$ref`
//! chains, bad references and reference cycles, guarded and not:
//! `compile` must refuse a document exactly when the oracle's own
//! well-formedness check finds a cycle that consumes no input. On every
//! document it accepts, for arbitrary values, the errors face
//! (`validate`) must produce the oracle's errors exactly (kind, instance
//! path, message and order), and the verdict face (`is_valid` /
//! `FastValidator`) must answer "no errors". The errors must also be
//! deterministic across repeated runs and independent compilations, so
//! compile-time reference memoization cannot change diagnostics. Over the
//! same unrestricted vocabulary, `streamable()` must be sound: whatever it
//! accepts, the event walk decides like the IR does.

mod oracle;

use jsonx_data::{json, Number, Object, Value};
use jsonx_schema::{CompiledSchema, EventValidator, ValidatorOptions};
use jsonx_syntax::{EventReceiver, JsonDecoder, RawEvent, RecordDecoder};
use proptest::prelude::*;
use proptest::test_runner::{run_seed, TestRng};

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

/// A document of references into itself, each placed under one keyword —
/// one that judges the same instance or one that moves to a member, an
/// element or a name — so that cycles consuming no input are common, not
/// the rare draw they are in [`arb_schema_document`].
fn arb_reference_web() -> impl Strategy<Value = Value> {
    let reference = prop_oneof![
        Just("#"),
        Just("#/definitions/d0"),
        Just("#/definitions/d1"),
        Just("#/definitions/d2")
    ]
    .prop_map(|r| json!({ "$ref": r }));
    let placed = prop_oneof![
        reference.clone(),
        (reference.clone(), arb_leaf_schema()).prop_map(|(r, s)| json!({"allOf": [s, r]})),
        (reference.clone(), arb_leaf_schema()).prop_map(|(r, s)| json!({"anyOf": [s, r]})),
        (reference.clone(), arb_leaf_schema()).prop_map(|(r, s)| json!({"oneOf": [r, s]})),
        reference.clone().prop_map(|r| json!({ "not": r })),
        reference.clone().prop_map(|r| json!({ "if": r })),
        reference
            .clone()
            .prop_map(|r| json!({"if": {"type": "object"}, "then": r})),
        reference
            .clone()
            .prop_map(|r| json!({"if": {"type": "object"}, "else": r})),
        reference
            .clone()
            .prop_map(|r| json!({"dependencies": {"a": r}})),
        reference
            .clone()
            .prop_map(|r| json!({"properties": {"a": r}})),
        reference.clone().prop_map(|r| json!({ "items": r })),
        reference
            .clone()
            .prop_map(|r| json!({"items": [{}], "additionalItems": r})),
        reference
            .clone()
            .prop_map(|r| json!({ "additionalProperties": r })),
        reference
            .clone()
            .prop_map(|r| json!({"patternProperties": {"^[ab]$": r}})),
        reference.clone().prop_map(|r| json!({ "contains": r })),
        reference.prop_map(|r| json!({ "propertyNames": r })),
        arb_leaf_schema(),
    ];
    (placed.clone(), placed.clone(), placed.clone(), placed).prop_map(|(root, d0, d1, d2)| {
        let definitions = json!({"d0": d0, "d1": d1, "d2": d2});
        match root {
            Value::Obj(mut obj) => {
                obj.insert("definitions", definitions);
                Value::Obj(obj)
            }
            other => json!({"allOf": [other], "definitions": definitions}),
        }
    })
}

/// `doc` compiled, or `None` when it is not well formed — which `compile`
/// must decide exactly as the oracle's independent check does.
fn compiled(doc: &Value) -> Option<CompiledSchema> {
    let compiled = CompiledSchema::compile(doc);
    let well_formed = oracle::well_formed(doc);
    assert_eq!(
        compiled.is_ok(),
        well_formed.is_ok(),
        "compile and the oracle disagree on {doc}: {:?} / {:?}",
        compiled.as_ref().err(),
        well_formed
    );
    compiled.ok()
}

/// How many of `cases` documents drawn from `documents` are refused.
fn refused(documents: impl Strategy<Value = Value>, name: &str, cases: usize) -> usize {
    let mut rng = TestRng::for_run(name, run_seed());
    let refused = (0..cases)
        .filter(|_| compiled(&documents.generate(&mut rng)).is_none())
        .count();
    eprintln!("{name}: {refused} of {cases} documents refused as ill formed");
    refused
}

/// The refused documents are skipped, so most of the agreement sample
/// must compile; and the reference web must land on both sides of the
/// rule, or its equivalence with the oracle is checked on one.
#[test]
fn the_generators_draw_both_well_formed_and_ill_formed_documents() {
    let cases = ProptestConfig::default().run_cases() as usize;
    let share = refused(arb_schema_document(), "arb_schema_document", cases);
    assert!(share * 2 <= cases, "{share} of {cases} refused");
    let share = refused(arb_reference_web(), "arb_reference_web", cases);
    assert!(
        share * 8 >= cases && share * 8 <= cases * 7,
        "{share} of {cases} refused"
    );
}

proptest! {
    /// Where cycles are common: `compile` refuses what the oracle calls ill
    /// formed, and the walk of what it accepts ends, with the oracle's errors.
    #[test]
    fn compile_refuses_exactly_what_the_oracle_calls_ill_formed(
        doc in arb_reference_web(),
        instance in arb_instance(),
    ) {
        let Some(compiled) = compiled(&doc) else { return Ok(()) };
        let errors = compiled.validate(&instance);
        prop_assert_eq!(&errors, &oracle::validate(&compiled, &instance), "schema {} instance {}", doc, instance);
        prop_assert_eq!(compiled.is_valid(&instance), errors.is_ok());
    }

    #[test]
    fn compiled_ir_agrees_with_interpreter(
        doc in arb_schema_document(),
        instance in arb_instance(),
    ) {
        let Some(compiled) = compiled(&doc) else { return Ok(()) };
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
        let Some(compiled) = compiled(&doc) else { return Ok(()) };
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
        let Some(compiled) = compiled(&doc) else { return Ok(()) };
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
        let Some(compiled) = compiled(&doc) else { return Ok(()) };
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
