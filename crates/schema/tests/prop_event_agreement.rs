//! Property tests pinning the event walk to the other two evaluators:
//! for schemas inside the streamable fragment, what
//! [`EventValidator`] concludes from a record's **events** is what
//! `FastValidator::is_valid` and the oracle (the AST interpreter under
//! `tests/oracle/`) conclude from its document — or it asks for a
//! replay, and then the text really does repeat a key. Documents are rendered as *text*
//! ([`jsonx_gen::respelled`]) so they can carry what a `Value` cannot:
//! duplicate keys at every depth and on both sides of a violation,
//! escaped-equal keys, reordered, missing and undeclared members,
//! integer-valued floats. Outside the fragment `streamable()` must name a
//! keyword the schema contains.

mod oracle;

use jsonx_data::{json, Object, Value};
use jsonx_gen::respelled;
use jsonx_schema::{CompiledSchema, EventValidator, ValidatorOptions};
use jsonx_syntax::{
    parse, EventReceiver, JsonDecoder, ParseErrorKind, ParseLimits, RawEvent, RecordDecoder,
    DEFAULT_MAX_DEPTH,
};
use proptest::prelude::*;
use std::collections::HashSet;

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

/// Does any object of the record repeat a key (compared unescaped)?
#[derive(Default)]
struct Duplicates {
    open: Vec<HashSet<String>>,
    found: bool,
}

impl EventReceiver for Duplicates {
    fn event(&mut self, ev: &RawEvent<'_>) {
        match ev {
            RawEvent::StartObject | RawEvent::StartArray => self.open.push(HashSet::new()),
            RawEvent::EndObject | RawEvent::EndArray => {
                self.open.pop();
            }
            RawEvent::Key(k) => {
                let fresh = self.open.last_mut().unwrap().insert(k.to_string());
                self.found |= !fresh;
            }
            _ => {}
        }
    }
}

fn key() -> impl Strategy<Value = String> + Clone {
    prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")].prop_map(str::to_string)
}

/// Schemas that only ever judge scalars — every keyword allowed, since a
/// `type` that excludes both containers leaves them to `probe` — plus
/// the boolean schemas and references into the document.
fn scalar_schema() -> BoxedStrategy<Value> {
    prop_oneof![
        prop_oneof![
            Just("null"),
            Just("boolean"),
            Just("integer"),
            Just("number"),
            Just("string")
        ]
        .prop_map(|t| json!({ "type": t })),
        Just(json!({"type": ["integer", "string"]})),
        Just(json!({"type": ["number", "null"]})),
        (-5i64..5).prop_map(|n| json!({"type": "integer", "minimum": n})),
        (-5i64..5).prop_map(|n| json!({"type": "number", "exclusiveMaximum": n})),
        (1i64..4).prop_map(|n| json!({"type": ["integer", "null"], "multipleOf": n})),
        // String and number keywords need no `type`: they never see a container.
        (0i64..4).prop_map(|n| json!({"minLength": n, "maximum": 3})),
        Just(json!({"type": "string", "pattern": "^[a-c]+$", "maxLength": 4})),
        Just(json!({"type": "string", "format": "date"})),
        Just(json!({"enum": [1, "a", null, 2.5]})),
        Just(json!({"const": "decoy"})),
        Just(json!({"type": "string", "allOf": [{"minLength": 1}], "not": {"const": "decoy"}})),
        Just(json!({"type": ["integer", "null"], "oneOf": [{"minimum": 0}, {"type": "null"}]})),
        Just(json!({"type": "integer", "if": {"minimum": 3}, "then": {"multipleOf": 2}})),
        Just(json!({"type": ["boolean", "number"], "anyOf": [{"const": true}, {"maximum": 1}]})),
        Just(json!(true)),
        Just(json!(false)),
        Just(json!({})),
        prop_oneof![
            Just("#"),
            Just("#/definitions/d0"),
            Just("#/definitions/d1"),
            Just("#/definitions/missing")
        ]
        .prop_map(|r| json!({ "$ref": r })),
    ]
    .boxed()
}

/// An object node of the fragment: `properties`, names that are only
/// `required`, `additionalProperties` absent / `true` / `false`.
fn object_schema(member: BoxedStrategy<Value>) -> BoxedStrategy<Value> {
    (
        prop::collection::vec((key(), member, any::<bool>()), 0..4),
        prop::collection::vec(key(), 0..2),
        prop_oneof![Just(None), Just(Some(true)), Just(Some(false))],
    )
        .prop_map(|(members, only_required, additional)| {
            let mut properties = Object::new();
            let mut required: Vec<Value> = only_required.into_iter().map(Value::from).collect();
            for (name, schema, needed) in members {
                if needed {
                    required.push(Value::from(name.as_str()));
                }
                properties.insert(name, schema);
            }
            let mut node = Object::new();
            node.insert("type", json!("object"));
            node.insert("properties", Value::Obj(properties));
            if !required.is_empty() {
                node.insert("required", Value::Arr(required));
            }
            if let Some(additional) = additional {
                node.insert("additionalProperties", Value::Bool(additional));
            }
            Value::Obj(node)
        })
        .boxed()
}

/// An array node of the fragment: both forms of `items`,
/// `additionalItems`, bounds.
fn array_schema(member: BoxedStrategy<Value>) -> BoxedStrategy<Value> {
    prop_oneof![
        (member.clone(), 0i64..2, 1i64..4).prop_map(
            |(items, min, max)| json!({"type": "array", "items": items, "minItems": min, "maxItems": max})
        ),
        (member.clone(), member.clone(), member)
            .prop_map(|(a, b, rest)| json!({"type": "array", "items": [a, b], "additionalItems": rest})),
        Just(json!({"type": "array", "maxItems": 0})),
    ]
    .boxed()
}

/// What inference exports for a position of mixed kinds: `anyOf` over
/// bare scalar `type`s (`integer` beside `number` included) and at most
/// one taker per container kind.
fn union_schema(member: BoxedStrategy<Value>) -> BoxedStrategy<Value> {
    let scalars = prop_oneof![
        Just("null"),
        Just("boolean"),
        Just("integer"),
        Just("number"),
        Just("string")
    ];
    (
        prop::collection::vec(scalars.prop_map(|t| json!({ "type": t })), 0..3),
        prop_oneof![Just(None), object_schema(member.clone()).prop_map(Some)],
        prop_oneof![Just(None), array_schema(member).prop_map(Some)],
    )
        .prop_map(|(mut branches, object, array)| {
            branches.extend(object);
            branches.extend(array);
            if branches.is_empty() {
                branches.push(json!({"type": "null"}));
            }
            json!({ "anyOf": branches })
        })
        .boxed()
}

/// A container node: an object, an array, or a union with one of each.
fn container_schema(member: BoxedStrategy<Value>) -> BoxedStrategy<Value> {
    prop_oneof![
        object_schema(member.clone()),
        object_schema(member.clone()),
        array_schema(member.clone()),
        union_schema(member),
    ]
    .boxed()
}

fn member_schema() -> BoxedStrategy<Value> {
    scalar_schema().prop_recursive(2, 24, 4, container_schema)
}

/// A whole schema document inside the fragment. The root and the
/// definitions are keyword nodes, so every `$ref` — which only occur as
/// members — passes one before it can come back to itself: recursive,
/// never unguarded.
fn fragment_document() -> impl Strategy<Value = Value> {
    let node = || container_schema(member_schema());
    (node(), node(), node()).prop_map(|(root, d0, d1)| {
        let Value::Obj(mut root) = root else {
            unreachable!("container schemas are objects")
        };
        root.insert("definitions", json!({"d0": d0, "d1": d1}));
        Value::Obj(root)
    })
}

/// One keyword each that needs a container whole, as a schema.
fn offender() -> impl Strategy<Value = (&'static str, Value)> {
    prop::sample::select(vec![
        ("uniqueItems", json!({"uniqueItems": true})),
        ("contains", json!({"contains": {"type": "integer"}})),
        (
            "patternProperties",
            json!({"patternProperties": {"^a": {}}}),
        ),
        ("propertyNames", json!({"propertyNames": {"maxLength": 2}})),
        ("dependencies", json!({"dependencies": {"a": ["b"]}})),
        ("minProperties", json!({"minProperties": 1})),
        (
            "maxProperties",
            json!({"type": ["object", "null"], "maxProperties": 2}),
        ),
        (
            "additionalProperties",
            json!({"additionalProperties": {"type": "string"}}),
        ),
        ("allOf", json!({"allOf": [{"required": ["a"]}]})),
        (
            "oneOf",
            json!({"oneOf": [{"type": "array"}, {"type": "string"}]}),
        ),
        ("not", json!({"not": {"type": "array"}})),
        (
            "if",
            json!({"if": {"required": ["a"]}, "then": {"required": ["b"]}}),
        ),
        ("enum", json!({"enum": [1, [1]]})),
        ("const", json!({"const": {"a": 1}})),
        (
            "anyOf",
            json!({"anyOf": [{"type": ["object", "null"]}, {"required": ["a"]}]}),
        ),
    ])
}

/// Every `$ref` of the fragment sits under `properties` or `items`, so
/// every document is well formed: `compile` and the oracle's own check
/// must both say so.
fn compile(doc: &Value) -> CompiledSchema {
    assert_eq!(oracle::well_formed(doc), Ok(()), "{doc}");
    CompiledSchema::compile(doc).unwrap_or_else(|e| panic!("uncompilable schema {doc}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn the_event_walk_agrees_with_both_document_evaluators(
        doc in fragment_document(),
        seeds in prop::collection::vec(any::<u64>(), 4..10),
        enforce_formats in any::<bool>(),
    ) {
        let schema = compile(&doc);
        prop_assert_eq!(schema.streamable(), Ok(()), "{}", doc);
        let opts = ValidatorOptions { enforce_formats };
        let mut walk = schema.event_validator_with(opts).unwrap();
        let mut fast = schema.fast_validator_with(opts);
        let decoder = JsonDecoder::new();
        for seed in seeds {
            // A witness of the schema (or of its first definition when
            // the sampler finds none), respelled: mostly valid, then
            // nudged out of it at any depth.
            let witness = schema
                .sample(seed)
                .unwrap_or_else(|| json!({"a": [(seed % 7) as i64, "b"], "b": {"a": null}, "c": 1.5}));
            let text = respelled(&witness, seed);
            let value = parse(&text).unwrap();
            let dom = fast.is_valid(&value);
            prop_assert_eq!(dom, oracle::validate_with(&schema, &value, opts).is_ok());
            decoder.decode_events(&mut (), &text, &mut Walking(&mut walk)).unwrap();
            match walk.finish() {
                Some(valid) => prop_assert_eq!(valid, dom, "schema {} record {}", doc, text),
                None => {
                    let mut duplicates = Duplicates::default();
                    decoder.decode_events(&mut (), &text, &mut duplicates).unwrap();
                    prop_assert!(duplicates.found, "replay without a repeated key: schema {} record {}", doc, text);
                }
            }
            // A record abandoned anywhere leaves nothing behind.
            let cut = (seed % text.len() as u64) as usize;
            if text.is_char_boundary(cut)
                && decoder.decode_events(&mut (), &text[..cut], &mut Walking(&mut walk)).is_err()
            {
                walk.reset();
            } else {
                let _ = walk.finish();
            }
        }
    }

    #[test]
    fn outside_the_fragment_streamable_names_a_keyword_the_schema_contains(
        doc in fragment_document(),
        (keyword, offender) in offender(),
        inside_an_array in any::<bool>(),
    ) {
        // Planted where a container can arrive: as a member's schema
        // beside the generated document, directly or as its `items`.
        let Value::Obj(mut rest) = doc else {
            unreachable!()
        };
        let definitions = rest.remove("definitions").unwrap();
        let planted = if inside_an_array {
            json!({ "items": offender })
        } else {
            offender
        };
        let doc = json!({
            "properties": {"planted": planted, "rest": Value::Obj(rest)},
            "definitions": definitions
        });
        let schema = compile(&doc);
        prop_assert_eq!(schema.streamable(), Err(keyword), "{}", doc);
        prop_assert!(schema.event_validator_with(ValidatorOptions::default()).is_err());
    }
}

/// The walk has no depth limit of its own — the decoder's is the only
/// one — so a record nested exactly as deep as the decoder lets through
/// is walked to the bottom, and one level more is the decoder's reject.
#[test]
fn nesting_at_the_decoders_limit_is_walked_and_one_deeper_is_its_reject() {
    let schema = compile(&json!({
        "definitions": {"t": {
            "type": "object",
            "properties": {
                "v": {"type": "integer"},
                "t": {"$ref": "#/definitions/t"},
                "ts": {"type": "array", "items": {"$ref": "#/definitions/t"}, "maxItems": 1}
            },
            "required": ["v"],
            "additionalProperties": false
        }},
        "$ref": "#/definitions/t"
    }));
    let nested = |depth: usize, innermost: &str| {
        let mut text = String::new();
        for level in 0..depth - 1 {
            // Alternate the two ways down: through a member, through an array.
            text.push_str(if level % 3 == 2 {
                "{\"v\":1,\"ts\":["
            } else {
                "{\"v\":1,\"t\":"
            });
        }
        text.push_str(innermost);
        for level in (0..depth - 1).rev() {
            text.push_str(if level % 3 == 2 { "]}" } else { "}" });
        }
        text
    };
    let depth_of = |text: &str| text.bytes().filter(|b| matches!(b, b'{' | b'[')).count();
    let mut walk = schema
        .event_validator_with(ValidatorOptions::default())
        .unwrap();
    let decoder = JsonDecoder::new().with_limits(ParseLimits::default());
    let mut objects = 1;
    while depth_of(&nested(objects + 1, "{\"v\":1}")) <= DEFAULT_MAX_DEPTH {
        objects += 1;
    }
    for (innermost, valid) in [("{\"v\":1}", true), ("{\"v\":\"x\"}", false), ("{}", false)] {
        let text = nested(objects, innermost);
        assert!(depth_of(&text) <= DEFAULT_MAX_DEPTH && depth_of(&text) + 2 > DEFAULT_MAX_DEPTH);
        decoder
            .decode_events(&mut (), &text, &mut Walking(&mut walk))
            .unwrap();
        assert_eq!(walk.finish(), Some(valid), "{innermost}");
        assert_eq!(schema.is_valid(&parse(&text).unwrap()), valid);
    }
    let too_deep = nested(objects + 2, "{\"v\":1}");
    let err = decoder
        .decode_events(&mut (), &too_deep, &mut Walking(&mut walk))
        .unwrap_err();
    assert_eq!(err.kind, ParseErrorKind::TooDeep);
    walk.reset();
    decoder
        .decode_events(&mut (), "{\"v\":1}", &mut Walking(&mut walk))
        .unwrap();
    assert_eq!(walk.finish(), Some(true));
}
