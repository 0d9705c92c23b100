//! Property tests for the `.jxc` binary columnar format and the
//! chunked shredding path behind it.
//!
//! Three contracts are pinned here:
//!
//! * `read_jxc(write_jxc(batch))` reproduces the in-memory
//!   [`ColumnarBatch`] exactly — values, validity bitmaps, dictionary
//!   decoding, and nested-list offset reconstruction included.
//! * Chunked streaming (`ShredStream::take_batch`/`finish` +
//!   `ColumnarBatch::append`) equals one-shot `Shredder::shred`, order
//!   preserved, for arbitrary split points — the invariant the parallel
//!   translation engine relies on when it concatenates per-worker
//!   batches in shard order.
//! * `write_jxc_parts(parts)` writes the bytes `write_jxc` writes for the
//!   parts' concatenation, however the rows are cut into parts — the file
//!   `translate` writes straight from its chunks' batches.

use jsonx_core::{infer_collection, Equivalence};
use jsonx_data::{Number, Object, Value};
use jsonx_translate::columnar::Column;
use jsonx_translate::{
    read_jxc, write_jxc, write_jxc_parts, ColumnData, ColumnarBatch, Encoding, Shredder, StrArena,
};
use proptest::prelude::*;

/// What `write_jxc_parts` writes for `parts`.
fn parts_bytes(parts: &[ColumnarBatch]) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_jxc_parts(parts, &mut bytes).unwrap();
    bytes
}

/// The parts appended in order.
fn concatenated(parts: &[ColumnarBatch]) -> ColumnarBatch {
    let mut whole = parts[0].clone();
    for part in &parts[1..] {
        whole.append(part.clone());
    }
    whole
}

/// One spill column `v` holding `cells`, every row valid.
fn spill_part(cells: &[&str]) -> ColumnarBatch {
    ColumnarBatch {
        columns: vec![Column {
            path: "v".into(),
            data: ColumnData::Json(cells.iter().copied().collect::<StrArena>()),
            validity: cells.iter().map(|_| true).collect(),
        }],
        rows: cells.len(),
    }
}

/// A spill column is list-encoded when every part's cells verify, not
/// when each part's would on its own: the sniff runs across the parts.
#[test]
fn a_spill_column_earns_a_list_encoding_only_from_every_part() {
    let ints = spill_part(&["[1,2]", "[3]", "[-4]"]);
    let strs = spill_part(&["[\"a\",\"b\"]"]);
    let empties = spill_part(&["[]", "[]"]);
    let objects = spill_part(&["{\"k\":[1]}"]);
    for (parts, want) in [
        (vec![ints.clone(), empties.clone()], Encoding::ListInt),
        (vec![empties.clone(), strs.clone()], Encoding::ListStr),
        (vec![empties.clone()], Encoding::ListInt),
        (vec![ints.clone(), strs.clone()], Encoding::Dict),
        (
            vec![ints.clone(), strs.clone(), empties.clone()],
            Encoding::Dict,
        ),
        (
            vec![empties.clone(), strs.clone(), objects.clone()],
            Encoding::Dict,
        ),
        (vec![ints.clone(), objects.clone()], Encoding::Dict),
    ] {
        let bytes = parts_bytes(&parts);
        let whole = concatenated(&parts);
        assert_eq!(bytes, write_jxc(&whole), "{parts:?}");
        let file = read_jxc(&bytes).unwrap();
        assert_eq!(file.columns[0].encoding, want, "{parts:?}");
        assert_eq!(file.batch, whole);
    }
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn jxc_write_read_reproduces_the_batch(
        docs in prop::collection::vec(arb_record(), 0..10)
    ) {
        let ty = infer_collection(&docs, Equivalence::Kind);
        let batch = Shredder::from_type(&ty).shred(&docs).unwrap();
        let bytes = write_jxc(&batch);
        let file = read_jxc(&bytes)
            .unwrap_or_else(|e| panic!("written file failed to read back: {e}"));
        prop_assert_eq!(&file.batch, &batch, "batch changed across write/read");
        // The footer's per-column facts agree with the batch itself.
        prop_assert_eq!(file.columns.len(), batch.columns.len());
        for (col, info) in batch.columns.iter().zip(&file.columns) {
            prop_assert_eq!(&info.path, &col.path);
            prop_assert_eq!(
                info.valid_count,
                col.validity.count_ones()
            );
        }
    }

    #[test]
    fn chunked_stream_take_batch_equals_one_shot_shred(
        docs in prop::collection::vec(arb_record(), 1..12),
        raw_splits in prop::collection::vec(0usize..12, 0..4),
    ) {
        let ty = infer_collection(&docs, Equivalence::Kind);
        let one_shot = Shredder::from_type(&ty).shred(&docs).unwrap();
        // Same documents pushed one at a time, with a batch taken at
        // every (arbitrary) split point and appended in order.
        let splits: Vec<usize> = raw_splits.iter().map(|s| s % (docs.len() + 1)).collect();
        let shredder = Shredder::from_type(&ty);
        let mut stream = shredder.stream();
        let mut acc: Option<ColumnarBatch> = None;
        for (i, doc) in docs.iter().enumerate() {
            if splits.contains(&i) {
                let part = stream.take_batch();
                match &mut acc {
                    None => acc = Some(part),
                    Some(batch) => batch.append(part),
                }
            }
            stream.push(doc).unwrap();
        }
        let tail = stream.finish();
        let chunked = match acc {
            None => tail,
            Some(mut batch) => {
                batch.append(tail);
                batch
            }
        };
        prop_assert_eq!(&chunked, &one_shot, "chunked shredding diverged");
        // And the equality survives a trip through the file format.
        let file = read_jxc(&write_jxc(&chunked)).unwrap();
        prop_assert_eq!(&file.batch, &one_shot);
    }

    #[test]
    fn parts_write_the_file_of_their_concatenation(
        docs in prop::collection::vec(arb_record(), 0..24),
        raw_cuts in prop::collection::vec(0usize..25, 0..6),
    ) {
        // Cut points in order; a repeated one, or one at 0, is an empty
        // part, and row counts are whatever falls between them.
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (docs.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(docs.len());
        let shredder = Shredder::from_type(&infer_collection(&docs, Equivalence::Kind));
        let mut stream = shredder.stream();
        let mut parts = Vec::new();
        let mut at = 0;
        for cut in cuts {
            for doc in &docs[at..cut] {
                stream.push(doc).unwrap();
            }
            parts.push(stream.take_batch());
            at = cut;
        }
        let whole = concatenated(&parts);
        let want = write_jxc(&whole);
        prop_assert_eq!(parts_bytes(&parts), want.clone(), "{} parts", parts.len());
        prop_assert_eq!(parts_bytes(std::slice::from_ref(&whole)), want);
    }
}
