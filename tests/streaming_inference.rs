//! Cross-crate property tests: the zero-copy streaming inference path
//! (facade `streaming` module, driven by `jsonx-syntax` raw events) must be
//! observationally identical to the DOM pipeline
//! (`jsonx_syntax::parse_ndjson` + `jsonx_core::infer_collection`) — for
//! both equivalences, any worker count, and arbitrary document mixes.

use jsonx::core::{infer_collection, Equivalence};
use jsonx::syntax::{parse_ndjson, to_string};
use jsonx::{Run, Source};
use jsonx_data::{Number, Object, Value};
use proptest::prelude::*;

/// Strategy producing arbitrary JSON documents of bounded size.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(|i| Value::Num(Number::Int(i))),
        (-1e9f64..1e9f64).prop_map(|f| Value::Num(Number::from_f64(f).unwrap())),
        // \PC includes multibyte chars; strings with escapes exercise the
        // owned fallback of the Cow event layer.
        "\\PC{0,12}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Arr),
            prop::collection::vec(("[a-z]{0,6}", inner), 0..5)
                .prop_map(|pairs| { Value::Obj(pairs.into_iter().collect::<Object>()) }),
        ]
    })
}

fn arb_collection() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(arb_value(), 0..24)
}

fn to_ndjson(docs: &[Value]) -> String {
    let mut out = String::new();
    for d in docs {
        out.push_str(&to_string(d));
        out.push('\n');
    }
    out
}

proptest! {
    #[test]
    fn streaming_equals_dom_inference(docs in arb_collection()) {
        let ndjson = to_ndjson(&docs);
        // The serialized collection parses back to the same documents, so
        // DOM inference over the reparse is the reference result.
        let reparsed = parse_ndjson(&ndjson).unwrap();
        prop_assert_eq!(&reparsed, &docs);
        for equiv in [Equivalence::Kind, Equivalence::Label] {
            let dom = infer_collection(&docs, equiv);
            let sequential = Run { workers: 1, ..Run::default() };
            let (streamed, _) = sequential.infer(Source::slice(&ndjson), equiv).unwrap();
            prop_assert_eq!(&streamed, &dom, "equiv {:?}", equiv);
        }
    }

    #[test]
    fn parallel_sharding_is_transparent(
        docs in arb_collection(),
        workers in 1usize..6,
    ) {
        let ndjson = to_ndjson(&docs);
        for equiv in [Equivalence::Kind, Equivalence::Label] {
            let dom = infer_collection(&docs, equiv);
            // An explicit chunk size dispatches even these tiny corpora.
            let sharded = Run { workers, chunk_bytes: 16, ..Run::default() };
            let (par, _) = sharded.infer(Source::slice(&ndjson), equiv).unwrap();
            prop_assert_eq!(&par, &dom, "equiv {:?} workers {}", equiv, workers);
        }
    }
}
