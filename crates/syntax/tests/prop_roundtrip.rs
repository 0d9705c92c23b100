//! Property tests: serialize ∘ parse = id, across serializer modes.

use jsonx_data::{Number, Object, Value};
use jsonx_syntax::{
    parse, parse_events, to_string, to_string_pretty, write_value, NullReceiver, ParserOptions,
    SerializeOptions,
};
use proptest::prelude::*;

/// Strategy producing arbitrary JSON values of bounded size.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(|i| Value::Num(Number::Int(i))),
        (-1e9f64..1e9f64).prop_map(|f| Value::Num(Number::from_f64(f).unwrap())),
        "\\PC{0,12}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(4, 64, 8, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Arr),
            prop::collection::vec(("[a-z]{0,6}", inner), 0..6)
                .prop_map(|pairs| { Value::Obj(pairs.into_iter().collect::<Object>()) }),
        ]
    })
}

proptest! {
    #[test]
    fn compact_round_trip(v in arb_value()) {
        let text = to_string(&v);
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn pretty_round_trip(v in arb_value()) {
        let text = to_string_pretty(&v);
        let back = parse(&text).unwrap();
        prop_assert_eq!(back, v);
    }

    #[test]
    fn canonical_round_trip_and_stability(v in arb_value()) {
        let opts = SerializeOptions::canonical();
        let text = write_value(&v, opts);
        let back = parse(&text).unwrap();
        prop_assert_eq!(&back, &v);
        // Canonical output is a fixed point.
        prop_assert_eq!(write_value(&back, opts), text);
    }

    #[test]
    fn event_stream_is_well_formed(v in arb_value()) {
        let text = to_string(&v);
        let parsed = parse_events(text.as_bytes(), ParserOptions::default(), &mut NullReceiver);
        prop_assert!(parsed.is_ok());
    }

    #[test]
    fn parser_never_panics_on_garbage(s in "\\PC{0,64}") {
        let _ = parse(&s);
    }

    #[test]
    fn parser_never_panics_on_bytes(b in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = jsonx_syntax::parse_bytes(&b);
    }
}
