//! Property tests for the translation targets: Avro round-trips exactly,
//! and the schema-aware and schema-blind shredders agree.

use jsonx_core::{infer_collection, Equivalence};
use jsonx_data::{Number, Object, Value};
use jsonx_translate::{AvroCodec, AvroSchema, Shredder};
use proptest::prelude::*;

/// Record-shaped documents (top level must be an object for shredding).
fn arb_record() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1000i64..1000).prop_map(|i| Value::Num(Number::Int(i))),
        (-9.0f64..9.0).prop_map(|f| Value::Num(Number::from_f64(f).unwrap())),
        "[a-c]{0,4}".prop_map(Value::Str),
    ];
    let value = leaf.prop_recursive(2, 12, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Arr),
            prop::collection::vec(("[a-d]", inner), 0..3)
                .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>())),
        ]
    });
    prop::collection::vec(("[a-d]", value), 0..4)
        .prop_map(|pairs| Value::Obj(pairs.into_iter().collect::<Object>()))
}

/// Resolves a dotted column path inside a document.
fn resolve_dotted<'v>(doc: &'v Value, dotted: &str) -> Option<&'v Value> {
    let mut cur = doc;
    for seg in dotted.split('.') {
        cur = cur.get(seg)?;
    }
    Some(cur)
}

/// Equality up to Avro's lossy corner: `back` may carry explicit nulls
/// where `doc` had absent fields (recursively).
fn equal_modulo_null_absence(doc: &Value, back: &Value) -> bool {
    match (doc, back) {
        (Value::Obj(a), Value::Obj(b)) => {
            // Every original field matches; every extra decoded field is null.
            a.iter()
                .all(|(k, v)| b.get(k).is_some_and(|w| equal_modulo_null_absence(v, w)))
                && b.iter().all(|(k, w)| a.contains_key(k) || w.is_null())
        }
        (Value::Arr(a), Value::Arr(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(v, w)| equal_modulo_null_absence(v, w))
        }
        _ => doc == back,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn avro_round_trips_collections(
        docs in prop::collection::vec(arb_record(), 1..8)
    ) {
        let ty = infer_collection(&docs, Equivalence::Kind);
        let codec = AvroCodec::new(AvroSchema::from_type(&ty));
        for doc in &docs {
            let bytes = codec
                .encode(doc)
                .unwrap_or_else(|e| panic!("encode of admitted doc {doc} failed: {e}"));
            let back = codec.decode(&bytes).unwrap();
            // Exact round trip, except Avro's documented lossy corner:
            // a field that is both optional and genuinely nullable decodes
            // absent-as-null. So: the decoded value is admitted by the
            // schema's type and re-encodes to the identical bytes.
            prop_assert!(ty.admits(&back), "decoded {} escapes the type", back);
            let again = codec.encode(&back).unwrap();
            prop_assert_eq!(&again, &bytes, "encoding is not a fixpoint for {}", back);
            if !equal_modulo_null_absence(doc, &back) {
                prop_assert_eq!(&back, doc, "round trip changed {}", doc);
            }
        }
    }

    #[test]
    fn aware_shredder_validity_is_sound(
        docs in prop::collection::vec(arb_record(), 1..8)
    ) {
        // (The blind shredder legitimately diverges on mixed object/scalar
        // fields — that mis-layout is E11's point — so the contract tested
        // here is the schema-aware one: validity reflects the documents.)
        let ty = infer_collection(&docs, Equivalence::Kind);
        let aware = Shredder::from_type(&ty).shred(&docs).unwrap();
        prop_assert_eq!(aware.rows, docs.len());
        for col in &aware.columns {
            for (row, doc) in docs.iter().enumerate() {
                let present = resolve_dotted(doc, &col.path)
                    .is_some_and(|v| !v.is_null());
                if col.validity.get(row) {
                    prop_assert!(
                        present,
                        "column {} claims row {} valid but {} has no value there",
                        &col.path, row, doc
                    );
                }
            }
        }
    }
}

/// Every column path's first segment is a root field: what a caller that
/// projects records before shredding them must keep.
#[test]
fn root_fields_are_the_heads_of_the_column_paths() {
    let docs = [
        jsonx_data::json!({"id": 1, "geo": {"lat": 0.5}}),
        jsonx_data::json!({"id": 2, "geo": {"lat": 1.5}}),
    ];
    let shredder = Shredder::from_type(&infer_collection(&docs, Equivalence::Kind));
    let mut roots = shredder.root_fields().expect("a record layout").to_vec();
    roots.sort();
    assert_eq!(roots, ["geo", "id"]);
    assert_eq!(Shredder::discovering().root_fields(), None);
}
