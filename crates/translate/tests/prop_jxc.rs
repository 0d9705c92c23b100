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
//! * `read_jxc_head(bytes, n)` is `read_jxc(bytes)` cut to its first `n`
//!   rows, with the same column facts and row count — and, on a damaged
//!   file, the same error: every check covers the whole file at any `n`.

use jsonx_core::{infer_collection, Equivalence};
use jsonx_data::{crc32, Number, Object, Value};
use jsonx_translate::columnar::Column;
use jsonx_translate::{
    flatten_rows, read_jxc, read_jxc_head, rows_as_values, write_jxc, write_jxc_parts, Bitmap,
    ColumnData, ColumnarBatch, Encoding, JxcError, JxcFile, Shredder, StrArena,
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

/// The first `rows` rows of `batch`, cut cell by cell.
fn prefix(batch: &ColumnarBatch, rows: usize) -> ColumnarBatch {
    let rows = rows.min(batch.rows);
    let columns = batch
        .columns
        .iter()
        .map(|col| {
            let validity: Bitmap = col.validity.iter().take(rows).collect();
            let cells = validity.count_ones();
            let data = match &col.data {
                ColumnData::Bools(v) => ColumnData::Bools(v.iter().take(cells).collect()),
                ColumnData::Ints(v) => ColumnData::Ints(v[..cells].to_vec()),
                ColumnData::Floats(v) => ColumnData::Floats(v[..cells].to_vec()),
                ColumnData::Strs(v) => ColumnData::Strs(v.iter().take(cells).collect()),
                ColumnData::Json(v) => ColumnData::Json(v.iter().take(cells).collect()),
            };
            Column {
                path: col.path.clone(),
                data,
                validity,
            }
        })
        .collect();
    ColumnarBatch { columns, rows }
}

/// Holds a head read of `n` rows to the full read of the same bytes:
/// the same error, or the full batch's prefix under the same facts.
fn assert_head_is_prefix(bytes: &[u8], n: usize) -> Result<(), TestCaseError> {
    match (read_jxc_head(bytes, n), read_jxc(bytes)) {
        (Err(head), Err(full)) => prop_assert_eq!(head, full, "n = {}", n),
        (Ok(head), Ok(full)) => {
            prop_assert_eq!(head.rows, full.rows);
            prop_assert_eq!(&head.columns, &full.columns);
            prop_assert_eq!(&head.batch, &prefix(&full.batch, n), "n = {}", n);
            prop_assert_eq!(
                rows_as_values(&head.batch, n),
                rows_as_values(&full.batch, n)
            );
            prop_assert_eq!(flatten_rows(&head, n), flatten_rows(&full, n));
        }
        (head, full) => prop_assert!(false, "n = {}: head {:?}, full {:?}", n, head, full),
    }
    Ok(())
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

/// Records that give every encoding a column: plain `i`/`b`/`f`, dict
/// `s`, list-int `xs` and list-str `ts`, each sometimes absent, beside
/// an arbitrary record under `r`.
fn arb_encoded_record() -> impl Strategy<Value = Value> {
    (
        any::<u8>(),
        (-50i64..50, any::<bool>(), -9.0f64..9.0),
        (
            "[a-c]{0,3}",
            prop::collection::vec(-9i64..9, 0..4),
            prop::collection::vec("[a-c\"]{0,2}", 0..4),
        ),
        arb_record(),
    )
        .prop_map(|(present, (i, b, f), (s, xs, ts), r)| {
            let cells = [
                ("i", Value::Num(Number::Int(i))),
                ("b", Value::Bool(b)),
                ("f", Value::Num(Number::from_f64(f).unwrap())),
                ("s", Value::Str(s)),
                (
                    "xs",
                    Value::Arr(xs.into_iter().map(|x| Value::Num(Number::Int(x))).collect()),
                ),
                ("ts", Value::Arr(ts.into_iter().map(Value::Str).collect())),
            ];
            // Cell k is absent when bits k and k + 1 of `present` are both
            // clear: one record in four.
            let mut obj: Object = cells
                .into_iter()
                .enumerate()
                .filter(|(k, _)| present >> k & 3 != 0)
                .map(|(_, (key, value))| (key.to_string(), value))
                .collect();
            obj.insert("r", r);
            Value::Obj(obj)
        })
}

/// Recomputes every column block's CRC and then the footer's, so an edit
/// inside a block reaches the structural checks behind the checksums.
fn reseal(bytes: &mut [u8]) {
    let le = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap()) as usize;
    let len = bytes.len();
    let footer = le(&bytes[len - 12..len - 4]);
    let ncols = u32::from_le_bytes(bytes[footer + 8..footer + 12].try_into().unwrap());
    let mut at = footer + 12;
    for _ in 0..ncols {
        let path_len = u16::from_le_bytes([bytes[at], bytes[at + 1]]) as usize;
        at += 2 + path_len + 2;
        let (off, block_len) = (le(&bytes[at..at + 8]), le(&bytes[at + 8..at + 16]));
        let crc = crc32(&bytes[off..off + block_len]);
        at += 24;
        bytes[at..at + 4].copy_from_slice(&crc.to_le_bytes());
        at += 4;
    }
    let crc = crc32(&bytes[footer..len - 16]);
    bytes[len - 16..len - 12].copy_from_slice(&crc.to_le_bytes());
}

/// Column `path`'s block: its offset in the file and its length.
fn block_of(file: &JxcFile, path: &str) -> (usize, usize) {
    // Blocks follow the leading magic in column order.
    let mut at = 4;
    for info in &file.columns {
        if info.path == path {
            return (at, info.block_bytes);
        }
        at += info.block_bytes;
    }
    panic!("no column {path}")
}

/// Ten rows (bitmaps cross a byte) over plain, dict, list-int and
/// list-str columns, with absent cells in each.
fn small_image() -> Vec<u8> {
    let ndjson: String = (0..10)
        .map(|i| {
            let name = ["ada", "bob", "cy"][i % 3];
            let name = if i == 9 { "zed".to_string() } else { name.to_string() };
            match i % 4 {
                3 => format!("{{\"id\": {i}, \"ok\": true}}\n"),
                _ => format!(
                    "{{\"id\": {i}, \"name\": \"{name}\", \"xs\": [{i}, {}], \"tags\": [\"t{}\"]}}\n",
                    i * 7,
                    i % 2
                ),
            }
        })
        .collect();
    let docs = jsonx_syntax::parse_ndjson(&ndjson).unwrap();
    let batch = Shredder::from_type(&infer_collection(&docs, Equivalence::Kind))
        .shred(&docs)
        .unwrap();
    write_jxc(&batch)
}

/// Every single-byte flip and every truncation of a small image is
/// the same error from a one-row head read as from the full read — with
/// the checksums left as written, and with them recomputed after a flip
/// inside a column block, so the structural checks are what answer.
#[test]
fn a_head_read_rejects_every_flip_and_truncation_the_full_read_does() {
    let good = small_image();
    let file = read_jxc(&good).unwrap();
    let encodings: Vec<Encoding> = file.columns.iter().map(|info| info.encoding).collect();
    for want in [
        Encoding::Plain,
        Encoding::Dict,
        Encoding::ListInt,
        Encoding::ListStr,
    ] {
        assert!(encodings.contains(&want), "{encodings:?}");
    }
    let blocks_end = 4 + file.columns.iter().map(|i| i.block_bytes).sum::<usize>();
    let mut cases = 0;
    let mut check = |bytes: &[u8]| {
        assert_head_is_prefix(bytes, 1).unwrap();
        cases += 1;
    };
    for cut in 0..good.len() {
        check(&good[..cut]);
    }
    for pos in 0..good.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bad = good.clone();
            bad[pos] ^= mask;
            check(&bad);
            if (4..blocks_end).contains(&pos) {
                reseal(&mut bad);
                check(&bad);
            }
        }
    }
    assert!(cases > 4 * good.len(), "{cases} cases");
}

/// Damage no shown row touches is still found at `n = 1`: a code out of
/// range in the last row, a non-UTF-8 entry only a later row uses, and
/// a list offset that decreases past the head — each behind valid
/// checksums.
#[test]
fn damage_past_the_head_is_corrupt_at_one_row() {
    let good = small_image();
    let file = read_jxc(&good).unwrap();
    let rows = file.rows;
    assert!(rows >= 9);
    let bitmap = rows.div_ceil(8);
    let u32_at =
        |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let mut cases = Vec::new();

    // The last row's name code: codes end the block.
    let (off, len) = block_of(&file, "name");
    let dict_len = u32_at(&good, off + bitmap);
    let mut bad = good.clone();
    bad[off + len - 4..off + len].copy_from_slice(&dict_len.to_le_bytes());
    cases.push((bad, format!("dictionary code {dict_len} out of range")));

    // The last name entry first appears in the last row.
    let mut at = off + bitmap + 4;
    for _ in 1..dict_len {
        at += 4 + u32_at(&good, at) as usize;
    }
    assert_eq!(&good[at + 4..at + 7], b"zed");
    let mut bad = good.clone();
    bad[at + 4] = 0xFF;
    cases.push((bad, "non-UTF-8 dictionary entry".to_string()));

    // The next-to-last xs offset, raised past the last one.
    let (off, _) = block_of(&file, "xs");
    let cells = file
        .columns
        .iter()
        .find(|i| i.path == "xs")
        .unwrap()
        .valid_count;
    let last = off + bitmap + 4 * cells;
    let mut bad = good.clone();
    let raised = u32_at(&good, last) + 1;
    bad[last - 4..last].copy_from_slice(&raised.to_le_bytes());
    cases.push((bad, "non-monotone list offsets".to_string()));

    for (mut bad, message) in cases {
        reseal(&mut bad);
        let full = read_jxc(&bad).unwrap_err();
        assert_eq!(full, JxcError::Corrupt(message));
        for n in [0, 1] {
            assert_eq!(read_jxc_head(&bad, n).unwrap_err(), full);
        }
    }
}

/// Docs cut into parts at `raw_cuts` and shredded part by part.
fn shred_parts(docs: &[Value], raw_cuts: &[usize]) -> Vec<ColumnarBatch> {
    let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| c % (docs.len() + 1)).collect();
    cuts.sort_unstable();
    cuts.push(docs.len());
    let shredder = Shredder::from_type(&infer_collection(docs, Equivalence::Kind));
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
    parts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_head_read_is_the_full_reads_prefix(
        docs in prop::collection::vec(arb_encoded_record(), 0..24),
        raw_cuts in prop::collection::vec(0usize..25, 0..4),
    ) {
        let bytes = parts_bytes(&shred_parts(&docs, &raw_cuts));
        let rows = docs.len();
        for n in [0, 1, 7, 8, 9, rows.saturating_sub(1), rows, rows + 1, usize::MAX] {
            assert_head_is_prefix(&bytes, n)?;
        }
    }

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
        let parts = shred_parts(&docs, &raw_cuts);
        let whole = concatenated(&parts);
        let want = write_jxc(&whole);
        prop_assert_eq!(parts_bytes(&parts), want.clone(), "{} parts", parts.len());
        prop_assert_eq!(parts_bytes(std::slice::from_ref(&whole)), want);
    }
}
