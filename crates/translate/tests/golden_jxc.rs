//! The `.jxc` format is frozen: these fixtures were written by the
//! commit *before* the columns became arena-backed and the codec bulk
//! (`fixtures/golden{,_empty,_handbuilt}.jxc`, from
//! `fixtures/golden.ndjson` and [`handbuilt_batch`]), and every
//! later writer must reproduce them byte for byte and every later reader
//! must return the batch they hold.
//!
//! Between them the fixtures cover each (type, encoding) pair — plain
//! bool / int64 / float64, dict utf8, dict json, list-int, list-str —
//! with nulls in every column, an all-null column, bitmaps that end
//! mid-byte, a zero-row batch, and a batch assembled from several
//! chunks (one of them empty) with `take_batch` + `append`.
//!
//! `fixtures/golden_large.jxc` was written later, by the last writer
//! whose CRC was slice-by-8 and whose dictionaries were built from a
//! table sized by the value count, from [`large_parts`]: blocks longer
//! than the CRC's 64-byte fold stride, a dictionary of over a thousand
//! entries, a string-list spill column, an all-null column and four
//! parts. The kernels that replaced those two must reproduce it.
//!
//! The list recogniser was rewritten to scan instead of parse and
//! re-serialize each cell; [`reference_encoding`] keeps the old
//! definition, and a proptest checks the two choose the same encoding.

use jsonx_core::{infer_collection, Equivalence};
use jsonx_data::{Number, Value};
use jsonx_syntax::parse_ndjson;
use jsonx_translate::columnar::Column;
use jsonx_translate::{
    read_jxc, write_jxc, write_jxc_parts, Bitmap, ColumnData, ColumnarBatch, Encoding, Shredder,
    StrArena,
};
use proptest::prelude::*;

const CORPUS: &str = include_str!("fixtures/golden.ndjson");
const GOLDEN: &[u8] = include_bytes!("fixtures/golden.jxc");
const GOLDEN_EMPTY: &[u8] = include_bytes!("fixtures/golden_empty.jxc");
const GOLDEN_HANDBUILT: &[u8] = include_bytes!("fixtures/golden_handbuilt.jxc");
const GOLDEN_LARGE: &[u8] = include_bytes!("fixtures/golden_large.jxc");

fn shredder() -> Shredder {
    let docs = parse_ndjson(CORPUS).unwrap();
    Shredder::from_type(&infer_collection(&docs, Equivalence::Kind))
}

/// The corpus shredded in four chunks, appended in order.
fn chunked_batch() -> ColumnarBatch {
    let docs = parse_ndjson(CORPUS).unwrap();
    let shredder = shredder();
    let mut stream = shredder.stream();
    let mut total: Option<ColumnarBatch> = None;
    for range in [0..4, 4..4, 4..9, 9..11] {
        for doc in &docs[range] {
            stream.push(doc).unwrap();
        }
        let batch = stream.take_batch();
        match &mut total {
            Some(total) => total.append(batch),
            None => total = Some(batch),
        }
    }
    total.unwrap()
}

/// Columns no shredder would build: spill texts that are arrays but not
/// in compact form, and bitmaps nine bits long.
fn handbuilt_batch() -> ColumnarBatch {
    let column = |path: &str, data, valid: &[usize]| Column {
        path: path.into(),
        data,
        validity: (0..9).map(|row| valid.contains(&row)).collect(),
    };
    ColumnarBatch {
        columns: vec![
            column(
                "spaced",
                ColumnData::Json(StrArena::from_iter(["[1,  2]", "[1,2]"])),
                &[0, 8],
            ),
            column(
                "escaped",
                ColumnData::Json(StrArena::from_iter(["[\"a\\u0041\"]"])),
                &[4],
            ),
            column(
                "flags",
                ColumnData::Bools(Bitmap::from_iter([
                    true, false, true, true, false, false, true, false, true,
                ])),
                &[0, 1, 2, 3, 4, 5, 6, 7, 8],
            ),
            column(
                "strs",
                ColumnData::Strs(StrArena::from_iter(["x", "", "x"])),
                &[1, 3, 5],
            ),
        ],
        rows: 9,
    }
}

/// A seeded corpus in four parts (one empty) whose blocks are longer
/// than the fixtures above: `actor` has over a thousand distinct
/// strings among repeats, some multi-byte; `tags` is a string-list
/// spill column; `gone` is never set; `n` and `ok` are sparse scalars.
fn large_parts() -> Vec<ColumnarBatch> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |n: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % n
    };
    const TAGS: [&str; 6] = ["rust", "json", "schema", "types", "é", "日本"];
    [600, 0, 1100, 700]
        .into_iter()
        .map(|rows| {
            let (mut actor, mut tags) = (StrArena::new(), StrArena::new());
            let (mut ns, mut oks) = (Vec::new(), Bitmap::new());
            let mut valid: [Bitmap; 5] = Default::default();
            for _ in 0..rows {
                let has_actor = next(10) != 0;
                if has_actor {
                    let id = next(1300);
                    actor.push(&match id % 7 {
                        0 => format!("ü{id}"),
                        1 => format!("a-somewhat-longer-login-{id}"),
                        _ => format!("u{id}"),
                    });
                }
                let has_tags = next(2) == 0;
                if has_tags {
                    let items: Vec<String> = (0..next(4))
                        .map(|_| format!("\"{}\"", TAGS[next(6) as usize]))
                        .collect();
                    tags.push(&format!("[{}]", items.join(",")));
                }
                let has_n = next(8) == 0;
                if has_n {
                    ns.push(next(1 << 40) as i64 - (1 << 39));
                }
                let has_ok = next(3) == 0;
                if has_ok {
                    oks.push(next(2) == 0);
                }
                for (bits, bit) in valid
                    .iter_mut()
                    .zip([has_actor, has_tags, false, has_n, has_ok])
                {
                    bits.push(bit);
                }
            }
            let [actor_valid, tags_valid, gone_valid, n_valid, ok_valid] = valid;
            let column = |path: &str, data, validity| Column {
                path: path.into(),
                data,
                validity,
            };
            ColumnarBatch {
                columns: vec![
                    column("actor", ColumnData::Strs(actor), actor_valid),
                    column("tags", ColumnData::Json(tags), tags_valid),
                    column("gone", ColumnData::Json(StrArena::new()), gone_valid),
                    column("n", ColumnData::Ints(ns), n_valid),
                    column("ok", ColumnData::Bools(oks), ok_valid),
                ],
                rows,
            }
        })
        .collect()
}

#[test]
fn writer_reproduces_the_parent_commits_bytes() {
    assert_eq!(write_jxc(&chunked_batch()), GOLDEN);
    assert_eq!(write_jxc(&shredder().stream().finish()), GOLDEN_EMPTY);
    assert_eq!(write_jxc(&handbuilt_batch()), GOLDEN_HANDBUILT);
    // Chunking is invisible in the file.
    let docs = parse_ndjson(CORPUS).unwrap();
    assert_eq!(write_jxc(&shredder().shred(&docs).unwrap()), GOLDEN);
    let mut large = Vec::new();
    write_jxc_parts(&large_parts(), &mut large).unwrap();
    assert_eq!(large, GOLDEN_LARGE);
}

#[test]
fn reader_returns_the_batch_the_parent_commit_wrote() {
    let file = read_jxc(GOLDEN).unwrap();
    assert_eq!(file.batch, chunked_batch());
    let encodings: Vec<(&str, &str, Encoding)> = file
        .columns
        .iter()
        .map(|c| (c.path.as_str(), c.type_name, c.encoding))
        .collect();
    assert_eq!(
        encodings,
        [
            ("geo.lat", "float64", Encoding::Plain),
            ("geo.lon", "float64", Encoding::Plain),
            ("id", "int64", Encoding::Plain),
            ("name", "utf8", Encoding::Dict),
            ("ok", "bool", Encoding::Plain),
            ("score", "float64", Encoding::Plain),
            ("tags", "json", Encoding::ListStr),
            ("v", "json", Encoding::Dict),
            ("xs", "json", Encoding::ListInt),
            ("z", "json", Encoding::ListInt),
        ]
    );
    let z = file.batch.column("z").unwrap();
    assert_eq!((z.validity.count_ones(), z.data.len()), (0, 0), "all-null");

    let empty = read_jxc(GOLDEN_EMPTY).unwrap();
    assert_eq!(empty.batch, shredder().stream().finish());
    assert_eq!((empty.batch.rows, empty.batch.columns.len()), (0, 10));

    let handbuilt = read_jxc(GOLDEN_HANDBUILT).unwrap();
    assert_eq!(handbuilt.batch, handbuilt_batch());
    assert!(handbuilt.columns[..2]
        .iter()
        .all(|c| c.encoding == Encoding::Dict));

    let large = read_jxc(GOLDEN_LARGE).unwrap();
    let mut parts = large_parts().into_iter();
    let mut whole = parts.next().unwrap();
    parts.for_each(|part| whole.append(part));
    assert_eq!(large.batch, whole);
    let facts: Vec<(&str, Encoding, Option<usize>)> = large
        .columns
        .iter()
        .map(|c| (c.path.as_str(), c.encoding, c.dict_len))
        .collect();
    assert_eq!(
        facts,
        [
            ("actor", Encoding::Dict, Some(1086)),
            ("tags", Encoding::ListStr, Some(6)),
            ("gone", Encoding::ListInt, None),
            ("n", Encoding::Plain, None),
            ("ok", Encoding::Plain, None),
        ]
    );
}

/// What the writer chose for a spill column before the recogniser was
/// rewritten: every cell must parse, be an array, and serialize back to
/// its own text; then all-integer items earn `ListInt`, all-string items
/// `ListStr`, anything else the text dictionary.
fn reference_encoding(texts: &[String]) -> Encoding {
    let (mut ints, mut strs) = (true, true);
    for text in texts {
        let Ok(value) = jsonx_syntax::parse(text) else {
            return Encoding::Dict;
        };
        let Value::Arr(items) = &value else {
            return Encoding::Dict;
        };
        if value.to_json_string() != *text {
            return Encoding::Dict;
        }
        ints &= items
            .iter()
            .all(|v| matches!(v, Value::Num(Number::Int(_))));
        strs &= items.iter().all(|v| matches!(v, Value::Str(_)));
    }
    match (ints, strs) {
        (true, _) => Encoding::ListInt,
        (false, true) => Encoding::ListStr,
        (false, false) => Encoding::Dict,
    }
}

fn spill_column(texts: &[String]) -> ColumnarBatch {
    ColumnarBatch {
        columns: vec![Column {
            path: "v".into(),
            data: ColumnData::Json(texts.iter().map(String::as_str).collect()),
            validity: texts.iter().map(|_| true).collect(),
        }],
        rows: texts.len(),
    }
}

fn assert_encodes_like_the_reference(texts: &[String]) {
    let batch = spill_column(texts);
    let file = read_jxc(&write_jxc(&batch)).unwrap();
    assert_eq!(
        file.columns[0].encoding,
        reference_encoding(texts),
        "{texts:?}"
    );
    assert_eq!(file.batch, batch, "{texts:?}");
}

#[test]
fn list_recogniser_agrees_with_the_reference_on_edge_cases() {
    let singles = [
        "[]",
        "[1,2,3]",
        "[-7]",
        "[0]",
        "[-0]",
        "[01]",
        "[1e2]",
        "[100.0]",
        "[1.5]",
        "[+1]",
        "[--1]",
        "[-]",
        "[9223372036854775807]",
        "[9223372036854775808]",
        "[-9223372036854775808]",
        "[-9223372036854775809]",
        "[1, 2]",
        "[1,2 ]",
        " [1,2]",
        "[1,2]\n",
        "[1,,2]",
        "[1,2,]",
        "[,]",
        "[[1]]",
        "[[]]",
        "[1,[2]]",
        "[null]",
        "[true]",
        "[{}]",
        "[1,\"a\"]",
        "[\"a\"]",
        "[\"a\",\"b\"]",
        "[\"a\", \"b\"]",
        "[\"a\",]",
        "[\"a\"\"b\"]",
        "[\"\"]",
        "[\"é😀\"]",
        "[\"q\\\"uote\"]",
        "[\"back\\\\slash\"]",
        "[\"tab\\there\"]",
        "[\"tab\there\"]",
        "[\"nul\\u0000\"]",
        "[\"upper\\u001F\"]",
        "[\"lower\\u001f\"]",
        "[\"needless\\u0041\"]",
        "[\"sol\\/idus\"]",
        "[\"a,b\",\"]\"]",
        "[\"unterminated]",
        "\"[1]\"",
        "{\"a\":[1]}",
        "1",
        "",
        "[",
        "]",
    ];
    for text in singles {
        assert_encodes_like_the_reference(&[text.to_string()]);
        // Next to cells that on their own earn each list encoding.
        assert_encodes_like_the_reference(&["[4]".to_string(), text.to_string()]);
        assert_encodes_like_the_reference(&[
            "[]".to_string(),
            text.to_string(),
            "[\"s\"]".to_string(),
        ]);
    }
    assert_encodes_like_the_reference(&[]);
}

/// Array-ish texts built from fragments that are each sometimes right
/// and sometimes subtly wrong.
fn arb_cell() -> impl Strategy<Value = String> {
    let int = prop_oneof![
        Just("0".to_string()),
        Just("-0".to_string()),
        Just("007".to_string()),
        Just("1e2".to_string()),
        Just("2.0".to_string()),
        Just("9223372036854775808".to_string()),
        Just("-9223372036854775808".to_string()),
        (-50i64..50).prop_map(|i| i.to_string()),
        any::<i64>().prop_map(|i| i.to_string()),
    ];
    let string = prop_oneof![
        "[a-c ,[]{0,4}".prop_map(|s| format!("\"{s}\"")),
        Just("\"]\"".to_string()),
        Just("\"\\n\"".to_string()),
        Just("\"\\u000a\"".to_string()),
        Just("\"\\\"\"".to_string()),
        Just("\"\\/\"".to_string()),
        Just("\"é\"".to_string()),
        Just("\"\u{1}\"".to_string()),
    ];
    let other = prop_oneof![
        Just("null".to_string()),
        Just("[]".to_string()),
        Just("[1]".to_string()),
        Just("{}".to_string()),
        Just("".to_string()),
    ];
    // Mostly well-formed: the vendored proptest has no weighted choice,
    // so the rare malformed variants are picked by index.
    let item = prop_oneof![int.clone(), int, string.clone(), string, other];
    let separator = (0usize..10).prop_map(|i| [",", ", ", ""][i.saturating_sub(7)]);
    let brackets =
        (0usize..10).prop_map(|i| [("[", "]"), ("[ ", "]"), ("", "")][i.saturating_sub(7)]);
    (prop::collection::vec((item, separator), 0..4), brackets).prop_map(|(items, (open, close))| {
        let mut text = open.to_string();
        for (i, (item, separator)) in items.iter().enumerate() {
            if i > 0 {
                text.push_str(separator);
            }
            text.push_str(item);
        }
        text.push_str(close);
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn list_recogniser_agrees_with_the_reference(
        texts in prop::collection::vec(arb_cell(), 0..5)
    ) {
        assert_encodes_like_the_reference(&texts);
    }
}
