//! Property tests for the translation targets: Avro round-trips exactly,
//! the schema-aware shredder's validity is sound, and its two walkers —
//! from a record's events and from its document — build the same rows
//! under a fixed layout, whatever the records hold beyond it.

use jsonx_core::{infer_collection, Equivalence};
use jsonx_data::{Number, Object, Value};
use jsonx_translate::{AvroCodec, AvroSchema, ShredError, Shredder};
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
    let scalar = Shredder::from_type(&infer_collection(
        &[jsonx_data::json!(1)],
        Equivalence::Kind,
    ));
    assert_eq!(scalar.root_fields(), None);
}

/// A layout fixed by other records than the ones it shreds: nested
/// records, a spill column, and a literal dotted key spelling a nested
/// path.
fn fixed_layout() -> Shredder {
    let docs = [
        jsonx_data::json!({"id": 1, "geo": {"lat": 1.5, "box": {"w": 1}}, "tags": [1]}),
        jsonx_data::json!({"id": 2, "a.b": 1, "a": {"b": 2, "c": true}, "name": "x"}),
    ];
    Shredder::from_type(&infer_collection(&docs, Equivalence::Kind))
}

/// A record drawn from the layout's own vocabulary — plain, dotted and
/// repeated keys, keys the layout lacks — with values of every shape, so
/// collisions, duplicates and wrong-typed cells occur; now and then cut
/// short or followed by junk.
fn arb_record_text() -> impl Strategy<Value = String> {
    let scalar = prop_oneof![
        Just("null".to_string()),
        Just("true".to_string()),
        (-3i64..3).prop_map(|i| i.to_string()),
        Just("1.5".to_string()),
        Just("\"s\"".to_string()),
        Just("[1,\"x\"]".to_string()),
    ];
    let key = prop::sample::select(vec![
        "id",
        "geo",
        "lat",
        "box",
        "w",
        "a",
        "b",
        "c",
        "tags",
        "name",
        "a.b",
        "geo.lat",
        "geo.box.w",
        "zz",
        "\\u0069d",
    ]);
    let value = scalar.prop_recursive(3, 16, 4, move |inner| {
        prop::collection::vec((key.clone(), inner), 0..4).prop_map(|members| {
            let body: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            format!("{{{}}}", body.join(","))
        })
    });
    (value, 0usize..12).prop_map(|(text, damage)| match damage {
        0 => text[..text.len() / 2].to_string(),
        1 => format!("{text} x"),
        _ => text,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The event walker shreds what the value walker shreds from the
    /// parsed document — rows, rejections and rolled-back rows alike —
    /// under a layout that is not the records' own, across batch cuts.
    #[test]
    fn event_walk_equals_value_walk_under_a_fixed_layout(
        records in prop::collection::vec(arb_record_text(), 0..12),
        stride in 1usize..4,
    ) {
        let shredder = fixed_layout();
        let decoder = jsonx_syntax::JsonDecoder::new();
        let (mut by_events, mut by_values) = (shredder.stream(), shredder.stream());
        let (mut events_total, mut values_total) = (by_events.take_batch(), by_values.take_batch());
        for (i, line) in records.iter().enumerate() {
            let pushed = by_events.push_record(&decoder, &mut (), line);
            let want = match jsonx_syntax::parse(line) {
                Ok(doc) => by_values.push(&doc),
                Err(e) => Err(ShredError::Parse(e)),
            };
            prop_assert_eq!(pushed.map(|_route| ()), want, "{}", line);
            if i % stride == 0 {
                events_total.append(by_events.take_batch());
                values_total.append(by_values.take_batch());
            }
        }
        events_total.append(by_events.finish());
        values_total.append(by_values.finish());
        prop_assert_eq!(events_total, values_total);
    }
}

/// Wide records under a layout of two of their fields: the event walker
/// skips the root keys the layout has no column under and takes every
/// record itself — no replay — building the narrow documents' rows.
#[test]
fn a_narrower_layout_shreds_only_its_columns() {
    let wide: Vec<String> = (0..60)
        .map(|i| {
            let fields: Vec<String> = (0..10)
                .map(|k| format!("\"field{k:02}\": \"{}-{}\"", i * 31 + k, "x".repeat(40)))
                .collect();
            format!(
                "{{\"id\": {i}, \"name\": \"user{i}\", {}, \"metrics\": [{i}, {}], \
                 \"nested\": {{\"a\": {}, \"b\": \"d,e:f\\\\\\\"\", \"c\": [true, false]}}}}",
                fields.join(", "),
                i * 2,
                i % 100
            )
        })
        .collect();
    let narrow: Vec<Value> = wide
        .iter()
        .map(|line| {
            let doc = jsonx_syntax::parse(line).unwrap();
            jsonx_data::json!({"id": doc.get("id").unwrap().clone(), "name": doc.get("name").unwrap().clone()})
        })
        .collect();
    let layout = Shredder::from_type(&infer_collection(&narrow, Equivalence::Kind));
    let decoder = jsonx_syntax::JsonDecoder::new();
    let mut stream = layout.stream();
    for line in &wide {
        assert_eq!(
            stream.push_record(&decoder, &mut (), line),
            Ok(None),
            "{line}"
        );
    }
    assert_eq!(stream.finish(), layout.shred(&narrow).unwrap());
}
