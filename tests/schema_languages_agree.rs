//! Cross-language agreement: the same constraints expressed in JSON
//! Schema, Joi, and JSound must classify the same instances identically —
//! the "compare their capabilities in a few scenarios" exercise of §2.

use jsonx::joi::{joi, When};
use jsonx::json;
use jsonx::jsound::JSoundSchema;
use jsonx::schema::CompiledSchema;
use jsonx::Value;

/// A user-profile constraint set expressible in all three languages.
struct Scenario {
    json_schema: CompiledSchema,
    joi_schema: jsonx::joi::JoiSchema,
    jsound_schema: JSoundSchema,
}

fn profile_scenario() -> Scenario {
    let json_schema = CompiledSchema::compile(&json!({
        "type": "object",
        "properties": {
            "id": {"type": "integer"},
            "name": {"type": "string"},
            "tags": {"type": "array", "items": {"type": "string"}}
        },
        "required": ["id"],
        "additionalProperties": false
    }))
    .unwrap();
    let joi_schema = joi::object()
        .key("id", joi::integer().required())
        .key("name", joi::string())
        .key("tags", joi::array().items(joi::string()))
        .build();
    let jsound_schema = JSoundSchema::compile(&json!({
        "!id": "integer",
        "name": "string",
        "tags": ["string"]
    }))
    .unwrap();
    Scenario {
        json_schema,
        joi_schema,
        jsound_schema,
    }
}

#[test]
fn all_three_languages_agree_on_profiles() {
    let s = profile_scenario();
    let cases: Vec<(Value, bool)> = vec![
        (json!({"id": 1, "name": "a", "tags": ["x"]}), true),
        (json!({"id": 1}), true),
        (json!({"name": "a"}), false),          // id required
        (json!({"id": "1"}), false),            // wrong type
        (json!({"id": 1, "tags": [2]}), false), // item type
        (json!({"id": 1, "zzz": true}), false), // closed object
        (json!([1]), false),                    // not an object
    ];
    for (instance, expected) in cases {
        assert_eq!(
            s.json_schema.is_valid(&instance),
            expected,
            "JSON Schema on {instance}"
        );
        assert_eq!(
            s.joi_schema.is_valid(&instance),
            expected,
            "Joi on {instance}"
        );
        assert_eq!(
            s.jsound_schema.is_valid(&instance),
            expected,
            "JSound on {instance}"
        );
    }
}

/// The tweet record of the generated Twitter corpus in each language.
/// JSound has no bounds, patterns or nested requirements, so its `user`
/// is `any` and its `text` has no length.
fn tweet_scenario() -> Scenario {
    let json_schema = CompiledSchema::compile(&json!({
        "type": "object",
        "required": ["id", "created_at", "user"],
        "properties": {
            "id": {"type": "integer", "minimum": 0},
            "created_at": {"type": "string"},
            "text": {"type": "string", "maxLength": 280},
            "full_text": {"type": "string"},
            "display_text_range": {"type": "array", "items": {"type": "integer"}},
            "user": {"type": "object", "required": ["id", "screen_name"],
                      "properties": {
                          "id": {"type": "integer"},
                          "screen_name": {"type": "string"},
                          "verified": {"type": "boolean"},
                          "followers_count": {"type": "integer"},
                          "location": {"type": "string"}}},
            "coordinates": {"anyOf": [{"type": "null"}, {"type": "object"}]},
            "entities": {"type": "object"},
            "retweet_count": {"type": "integer"},
            "favorite_count": {"type": "integer"},
            "retweeted_status": {"type": "object"}
        }
    }))
    .unwrap();
    let user = joi::object()
        .key("id", joi::integer().required())
        .key("screen_name", joi::string().required())
        .key("verified", joi::boolean())
        .key("followers_count", joi::integer())
        .key("location", joi::string())
        .build();
    let joi_schema = joi::object()
        .key("id", joi::integer().min(0.0).required())
        .key("created_at", joi::string().required())
        .key("text", joi::string().max_len(280))
        .key("full_text", joi::string())
        .key("display_text_range", joi::array().items(joi::integer()))
        .key("user", user.required())
        .key(
            "coordinates",
            joi::alternatives([joi::object().unknown(true).build()]).allow_null(),
        )
        .key("entities", joi::object().unknown(true).build())
        .key("retweet_count", joi::integer())
        .key("favorite_count", joi::integer())
        .key("retweeted_status", joi::object().unknown(true).build())
        .build();
    let jsound_schema = JSoundSchema::compile(&json!({
        "!id": "integer",
        "!created_at": "string",
        "text": "string",
        "full_text": "string",
        "display_text_range": ["integer"],
        "user": "any",
        "coordinates": "any",
        "entities": "any",
        "retweet_count": "integer",
        "favorite_count": "integer",
        "retweeted_status": "any"
    }))
    .unwrap();
    Scenario {
        json_schema,
        joi_schema,
        jsound_schema,
    }
}

/// E1 in EXPERIMENTS.md: on every generated tweet, and on each tweet
/// broken where all three languages constrain it, the three verdicts
/// are one.
#[test]
fn all_three_languages_agree_on_generated_tweets() {
    let s = tweet_scenario();
    let breaks: [(&str, Option<Value>); 4] = [
        ("id", None),
        ("id", Some(json!("1"))),
        ("created_at", None),
        ("retweet_count", Some(json!("many"))),
    ];
    for tweet in jsonx::gen::Corpus::Twitter.generate(500) {
        let mut cases = vec![(tweet.clone(), true)];
        for (key, value) in &breaks {
            let mut broken = tweet.as_object().unwrap().clone();
            match value {
                Some(value) => broken.insert(*key, value.clone()),
                None => broken.remove(key),
            };
            cases.push((Value::Obj(broken), false));
        }
        for (instance, expected) in cases {
            let verdicts = [
                s.json_schema.is_valid(&instance),
                s.joi_schema.is_valid(&instance),
                s.jsound_schema.is_valid(&instance),
            ];
            assert_eq!(verdicts, [expected; 3], "{instance}");
        }
    }
}

#[test]
fn jsound_compiles_into_equivalent_json_schema() {
    let s = profile_scenario();
    let compiled = CompiledSchema::compile(&s.jsound_schema.compile_to_json_schema()).unwrap();
    for instance in [
        json!({"id": 1, "name": "a", "tags": ["x", "y"]}),
        json!({"id": 1}),
        json!({"name": "a"}),
        json!({"id": 1.5}),
        json!({"id": 1, "tags": "not array"}),
        json!({"id": 1, "other": 0}),
        json!(42),
    ] {
        assert_eq!(
            s.jsound_schema.is_valid(&instance),
            compiled.is_valid(&instance),
            "JSound and its JSON Schema translation disagree on {instance}"
        );
    }
}

#[test]
fn joi_expresses_what_json_schema_needs_dependencies_for() {
    // Co-occurrence: card payments need a billing address.
    let joi_schema = joi::object()
        .key("card", joi::string())
        .key("cash", joi::boolean())
        .key("billing_address", joi::string())
        .xor(["card", "cash"])
        .with("card", ["billing_address"])
        .build();
    let json_schema = CompiledSchema::compile(&json!({
        "type": "object",
        "properties": {
            "card": {"type": "string"},
            "cash": {"type": "boolean"},
            "billing_address": {"type": "string"}
        },
        "additionalProperties": false,
        "oneOf": [
            {"required": ["card"], "not": {"required": ["cash"]}},
            {"required": ["cash"], "not": {"required": ["card"]}}
        ],
        "dependencies": {"card": ["billing_address"]}
    }))
    .unwrap();
    for (instance, expected) in [
        (json!({"card": "41", "billing_address": "x"}), true),
        (json!({"cash": true}), true),
        (json!({"card": "41"}), false),
        (
            json!({"card": "41", "cash": true, "billing_address": "x"}),
            false,
        ),
        (json!({}), false),
    ] {
        assert_eq!(
            joi_schema.is_valid(&instance),
            expected,
            "joi on {instance}"
        );
        assert_eq!(
            json_schema.is_valid(&instance),
            expected,
            "json-schema on {instance}"
        );
    }
}

#[test]
fn value_dependent_types_match_schema_conditionals() {
    // Joi `when` vs JSON Schema anyOf-encoded conditional.
    let joi_schema = joi::object()
        .key("kind", joi::string().valid(["point", "named"]).required())
        .key(
            "payload",
            joi::any().when(
                When::is(
                    "kind",
                    joi::any().valid(["point"]),
                    joi::array()
                        .items(joi::number())
                        .min_items(2)
                        .max_items(2)
                        .required(),
                )
                .otherwise(joi::string().required()),
            ),
        )
        .build();
    let json_schema = CompiledSchema::compile(&json!({
        "type": "object",
        "required": ["kind"],
        "properties": {"kind": {"enum": ["point", "named"]}},
        "additionalProperties": true,
        "anyOf": [
            {
                "properties": {
                    "kind": {"const": "point"},
                    "payload": {"type": "array", "items": {"type": "number"},
                                 "minItems": 2, "maxItems": 2}
                },
                "required": ["payload"]
            },
            {
                "properties": {
                    "kind": {"const": "named"},
                    "payload": {"type": "string"}
                },
                "required": ["payload"]
            }
        ]
    }))
    .unwrap();
    for (instance, expected) in [
        (json!({"kind": "point", "payload": [1.0, 2.0]}), true),
        (json!({"kind": "named", "payload": "lisbon"}), true),
        (json!({"kind": "point", "payload": "lisbon"}), false),
        (json!({"kind": "named", "payload": [1.0, 2.0]}), false),
        (json!({"kind": "point", "payload": [1.0]}), false),
    ] {
        assert_eq!(
            joi_schema.is_valid(&instance),
            expected,
            "joi on {instance}"
        );
        assert_eq!(
            json_schema.is_valid(&instance),
            expected,
            "json-schema on {instance}"
        );
    }
}
