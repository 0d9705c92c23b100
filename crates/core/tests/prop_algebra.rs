//! Property tests for the fusion algebra and inference soundness — the
//! laws that make distributed/parallel inference correct.

use jsonx_core::{
    fuse, fuse_all, infer_collection, infer_value, parse_type, print_type, to_json_schema,
    Equivalence, JType, PrintOptions, ScalarKind, TypeAccumulator,
};
use jsonx_data::{Number, Object, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(|i| Value::Num(Number::Int(i))),
        (-10.0f64..10.0).prop_map(|f| Value::Num(Number::from_f64(f).unwrap())),
        "[a-z]{0,6}".prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 24, 5, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Arr),
            prop::collection::vec(("[a-d]{1,2}", inner), 0..4)
                .prop_map(|pairs| { Value::Obj(pairs.into_iter().collect::<Object>()) }),
        ]
    })
}

fn arb_equiv() -> impl Strategy<Value = Equivalence> {
    prop_oneof![Just(Equivalence::Kind), Just(Equivalence::Label)]
}

/// Walks `value` into `acc` the way a decoder's events would, giving up
/// once `budget` events have been delivered (an abandoned decode).
fn feed(acc: &mut TypeAccumulator, value: &Value, budget: &mut usize) {
    if *budget == 0 {
        return;
    }
    *budget -= 1;
    match value {
        Value::Null => acc.scalar(ScalarKind::Null),
        Value::Bool(_) => acc.scalar(ScalarKind::Bool),
        Value::Num(n) if n.is_integer() => acc.scalar(ScalarKind::Int),
        Value::Num(_) => acc.scalar(ScalarKind::Float),
        Value::Str(_) => acc.scalar(ScalarKind::Str),
        Value::Arr(items) => {
            acc.start_array();
            items.iter().for_each(|item| feed(acc, item, budget));
            if *budget > 0 {
                acc.end_array();
            }
        }
        Value::Obj(obj) => {
            acc.start_object();
            for (key, member) in obj.iter() {
                if *budget > 0 {
                    *budget -= 1;
                    acc.key(key);
                    feed(acc, member, budget);
                }
            }
            if *budget > 0 {
                acc.end_object();
            }
        }
    }
}

/// No member, field or array of `ty` counts nothing, and `Bottom` only
/// ever stands for "no elements".
fn counts_something_everywhere(ty: &JType) -> bool {
    match ty {
        JType::Bottom => false,
        JType::Record(r) => {
            r.count > 0
                && r.fields
                    .iter()
                    .all(|(_, f)| f.presence > 0 && counts_something_everywhere(&f.ty))
        }
        JType::Array(a) => {
            a.count > 0
                && match &*a.item {
                    JType::Bottom => a.total_items == 0,
                    item => a.total_items > 0 && counts_something_everywhere(item),
                }
        }
        JType::Union(members) => {
            members.len() > 1 && members.iter().all(counts_something_everywhere)
        }
        scalar => scalar.count() > 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The in-place law: one accumulator, re-used across collections, any
    /// chunking with a `take` between chunks, any number of abandoned
    /// documents in between — every taken type is the map-then-fuse type
    /// of exactly the documents committed since the previous `take`.
    #[test]
    fn accumulator_equals_map_then_fuse(
        collections in prop::collection::vec(
            prop::collection::vec((arb_value(), any::<bool>(), 0usize..48), 0..10),
            1..4,
        )
    ) {
        let kind = Equivalence::Kind;
        let mut acc = TypeAccumulator::new();
        for docs in &collections {
            let mut chunk = Vec::new();
            let mut taken = Vec::new();
            for (doc, take_after, abandon_after) in docs {
                // The decoder rejects a look-alike after some events: a
                // rolled-back record changes nothing.
                let (mut some, mut all) = (*abandon_after, usize::MAX);
                feed(&mut acc, doc, &mut some);
                acc.rollback();
                feed(&mut acc, doc, &mut all);
                prop_assert!(acc.commit());
                chunk.push(infer_value(doc, kind));
                if *take_after {
                    let ty = acc.take();
                    prop_assert!(counts_something_everywhere(&ty), "{:?}", ty);
                    prop_assert_eq!(&ty, &fuse_all(std::mem::take(&mut chunk), kind));
                    taken.push(ty);
                }
            }
            let last = acc.take();
            prop_assert!(last == JType::Bottom || counts_something_everywhere(&last), "{:?}", last);
            prop_assert_eq!(&last, &fuse_all(chunk, kind));
            taken.push(last);
            let all = docs.iter().map(|(doc, ..)| doc.clone()).collect::<Vec<_>>();
            prop_assert_eq!(fuse_all(taken, kind), infer_collection(&all, kind));
            prop_assert_eq!(acc.take(), JType::Bottom);
        }
    }

    #[test]
    fn fusion_is_commutative(a in arb_value(), b in arb_value(), e in arb_equiv()) {
        let ta = infer_value(&a, e);
        let tb = infer_value(&b, e);
        prop_assert_eq!(
            fuse(ta.clone(), tb.clone(), e),
            fuse(tb, ta, e)
        );
    }

    #[test]
    fn fusion_is_associative(
        a in arb_value(), b in arb_value(), c in arb_value(), e in arb_equiv()
    ) {
        let (ta, tb, tc) = (infer_value(&a, e), infer_value(&b, e), infer_value(&c, e));
        let left = fuse(fuse(ta.clone(), tb.clone(), e), tc.clone(), e);
        let right = fuse(ta, fuse(tb, tc, e), e);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn bottom_is_identity(a in arb_value(), e in arb_equiv()) {
        let t = infer_value(&a, e);
        prop_assert_eq!(fuse(t.clone(), JType::Bottom, e), t.clone());
        prop_assert_eq!(fuse(JType::Bottom, t.clone(), e), t);
    }

    #[test]
    fn inference_is_sound(docs in prop::collection::vec(arb_value(), 0..12), e in arb_equiv()) {
        let t = infer_collection(&docs, e);
        for d in &docs {
            prop_assert!(t.admits(d), "inferred type does not admit {}", d);
        }
    }

    #[test]
    fn count_equals_collection_size(
        docs in prop::collection::vec(arb_value(), 0..12), e in arb_equiv()
    ) {
        let t = infer_collection(&docs, e);
        prop_assert_eq!(t.count(), docs.len() as u64);
    }

    #[test]
    fn partition_invariance(
        docs in prop::collection::vec(arb_value(), 0..24),
        split in 0usize..24, e in arb_equiv()
    ) {
        // Fusing partition-wise equals fusing document-wise regardless of
        // the cut point.
        let cut = split.min(docs.len());
        let left = infer_collection(&docs[..cut], e);
        let right = infer_collection(&docs[cut..], e);
        prop_assert_eq!(fuse(left, right, e), infer_collection(&docs, e));
    }

    #[test]
    fn counting_print_parse_round_trip(
        docs in prop::collection::vec(arb_value(), 1..10), e in arb_equiv()
    ) {
        let t = infer_collection(&docs, e);
        let text = print_type(&t, PrintOptions::with_counts());
        let back = parse_type(&text)
            .unwrap_or_else(|err| panic!("reparse of {text:?} failed: {err}"));
        prop_assert_eq!(back, t);
    }

    #[test]
    fn exported_schema_shape_is_schema_like(
        docs in prop::collection::vec(arb_value(), 0..8), e in arb_equiv()
    ) {
        // Full cross-crate validation lives in the workspace integration
        // tests; here we check the export is always a bool or object.
        let t = infer_collection(&docs, e);
        let schema = to_json_schema(&t);
        prop_assert!(matches!(schema, Value::Bool(_) | Value::Obj(_)));
    }

    #[test]
    fn fuse_all_equals_pairwise_fold(
        docs in prop::collection::vec(arb_value(), 0..10), e in arb_equiv()
    ) {
        let types: Vec<_> = docs.iter().map(|d| infer_value(d, e)).collect();
        let a = fuse_all(types.clone(), e);
        let b = types.into_iter().fold(JType::Bottom, |acc, t| fuse(acc, t, e));
        prop_assert_eq!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn abstractions_preserve_soundness(
        docs in prop::collection::vec(arb_value(), 1..10),
        depth in 0usize..4,
        k in 1usize..4,
    ) {
        use jsonx_core::{bound_union_width, collapse_below_depth,
                         collapse_record_unions, widen_numeric};
        let l = infer_collection(&docs, Equivalence::Label);
        for (name, abstracted) in [
            ("widen_numeric", widen_numeric(l.clone())),
            ("collapse_record_unions", collapse_record_unions(l.clone())),
            ("collapse_below_depth", collapse_below_depth(l.clone(), depth)),
            ("bound_union_width", bound_union_width(l.clone(), k)),
        ] {
            for d in &docs {
                prop_assert!(
                    abstracted.admits(d),
                    "{} lost document {}", name, d
                );
            }
        }
    }

    #[test]
    fn depth_zero_collapse_equals_kind_inference(
        docs in prop::collection::vec(arb_value(), 0..10)
    ) {
        use jsonx_core::collapse_below_depth;
        let l = infer_collection(&docs, Equivalence::Label);
        let k = infer_collection(&docs, Equivalence::Kind);
        prop_assert_eq!(collapse_below_depth(l, 0), k);
    }
}
