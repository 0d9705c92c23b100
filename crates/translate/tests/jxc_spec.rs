//! A second `.jxc` reader, written from DESIGN.md §13's "The `JXC1`
//! grammar, field by field" alone, holds the writer and the reader in
//! `jxc.rs` to the format rather than to each other: a mistake both of
//! them share — a wrong CRC constant, a field written and read in the
//! wrong order — passes every round trip and fails here.
//!
//! [`spec_rows`] shares no code with `jxc.rs` and does not use the
//! workspace's CRC: its CRC-32 is bit-at-a-time from the polynomial. It
//! decodes a file straight to rows — flat objects keyed by dotted path,
//! absent cells omitted, a json cell the value of its text — which must
//! equal `read_jxc` then `rows_as_values`: on every golden fixture, and
//! on a few hundred seeded multi-part files whose blocks run from empty
//! to several KiB (every length modulo the CRC's 16-byte fold), some
//! with dictionaries of over a thousand entries.

use jsonx_core::{infer_collection, Equivalence};
use jsonx_data::{json, Number, Object, Value};
use jsonx_translate::columnar::Column;
use jsonx_translate::{
    read_jxc, rows_as_values, write_jxc_parts, Bitmap, ColumnData, ColumnarBatch, Shredder,
    StrArena,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// The reader, from the grammar
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE, reflected polynomial `0xEDB88320`, pre- and
/// post-inverted), one bit at a time.
fn spec_crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// Little-endian fields, in order, each bounds-checked.
struct Fields<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Fields<'a> {
    fn new(bytes: &'a [u8]) -> Fields<'a> {
        Fields { bytes, at: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| format!("{n} bytes at {} run past the end", self.at))?;
        let field = &self.bytes[self.at..end];
        self.at = end;
        Ok(field)
    }

    fn uint(&mut self, width: usize) -> Result<u64, String> {
        let field = self.bytes(width)?;
        Ok(field
            .iter()
            .rev()
            .fold(0u64, |n, &byte| n << 8 | u64::from(byte)))
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.uint(1)? as u8)
    }

    fn u16(&mut self) -> Result<usize, String> {
        Ok(self.uint(2)? as usize)
    }

    fn u32(&mut self) -> Result<usize, String> {
        Ok(self.uint(4)? as usize)
    }

    fn u64(&mut self) -> Result<usize, String> {
        usize::try_from(self.uint(8)?).map_err(|e| e.to_string())
    }

    fn utf8(&mut self, n: usize) -> Result<&'a str, String> {
        std::str::from_utf8(self.bytes(n)?).map_err(|e| e.to_string())
    }

    /// `n` bits, LSB-first.
    fn bits(&mut self, n: usize) -> Result<Vec<bool>, String> {
        let bytes = self.bytes(n.div_ceil(8))?;
        Ok((0..n).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1).collect())
    }

    /// `dict_len` u32, then that many `len` u32 + UTF-8 entries.
    fn dictionary(&mut self) -> Result<Vec<&'a str>, String> {
        let len = self.u32()?;
        (0..len)
            .map(|_| {
                let bytes = self.u32()?;
                self.utf8(bytes)
            })
            .collect()
    }

    /// `n` u32 codes, each `< dict_len`.
    fn codes(&mut self, n: usize, dict_len: usize) -> Result<Vec<usize>, String> {
        (0..n)
            .map(|_| {
                let code = self.u32()?;
                if code < dict_len {
                    Ok(code)
                } else {
                    Err(format!("code {code} of a {dict_len}-entry dictionary"))
                }
            })
            .collect()
    }

    /// `n + 1` u32 item offsets: the first 0, never decreasing.
    fn offsets(&mut self, n: usize) -> Result<Vec<usize>, String> {
        let offsets = (0..=n).map(|_| self.u32()).collect::<Result<Vec<_>, _>>()?;
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("list offsets do not start at 0 and rise".into());
        }
        Ok(offsets)
    }

    fn end(&self, what: &str) -> Result<(), String> {
        match self.bytes.len() - self.at {
            0 => Ok(()),
            left => Err(format!("{left} bytes left over in {what}")),
        }
    }
}

/// A json cell: the value its text spells, or the text itself when it
/// does not parse.
fn json_cell(text: &str) -> Value {
    jsonx_syntax::parse(text).unwrap_or_else(|_| Value::Str(text.to_owned()))
}

/// One column block: each row's cell, `None` where the row has none.
fn spec_block(
    block: &[u8],
    rows: usize,
    valid_count: usize,
    type_tag: u8,
    enc: u8,
) -> Result<Vec<Option<Value>>, String> {
    let mut fields = Fields::new(block);
    let validity = fields.bits(rows)?;
    if validity.iter().filter(|&&bit| bit).count() != valid_count {
        return Err("validity bitmap disagrees with valid_count".into());
    }
    let dense: Vec<Value> = match (type_tag, enc) {
        (0, 0) => fields
            .bits(valid_count)?
            .into_iter()
            .map(Value::Bool)
            .collect(),
        (1, 0) => (0..valid_count)
            .map(|_| Ok(Value::Num(Number::Int(fields.uint(8)? as i64))))
            .collect::<Result<_, String>>()?,
        (2, 0) => (0..valid_count)
            .map(|_| {
                let bits = fields.uint(8)?;
                Ok(Number::from_f64(f64::from_bits(bits)).map_or(Value::Null, Value::Num))
            })
            .collect::<Result<_, String>>()?,
        (3 | 4, 1) => {
            let entries = fields.dictionary()?;
            fields
                .codes(valid_count, entries.len())?
                .into_iter()
                .map(|code| match type_tag {
                    3 => Value::Str(entries[code].to_owned()),
                    _ => json_cell(entries[code]),
                })
                .collect()
        }
        (4, 2) => {
            let offsets = fields.offsets(valid_count)?;
            let items = (0..offsets[valid_count])
                .map(|_| Ok(Value::Num(Number::Int(fields.uint(8)? as i64))))
                .collect::<Result<Vec<_>, String>>()?;
            offsets
                .windows(2)
                .map(|cell| Value::Arr(items[cell[0]..cell[1]].to_vec()))
                .collect()
        }
        (4, 3) => {
            let offsets = fields.offsets(valid_count)?;
            let entries = fields.dictionary()?;
            let items: Vec<Value> = fields
                .codes(offsets[valid_count], entries.len())?
                .into_iter()
                .map(|code| Value::Str(entries[code].to_owned()))
                .collect();
            offsets
                .windows(2)
                .map(|cell| Value::Arr(items[cell[0]..cell[1]].to_vec()))
                .collect()
        }
        (tag, enc) => return Err(format!("type tag {tag} with encoding {enc}")),
    };
    fields.end("a column block")?;
    let mut dense = dense.into_iter();
    Ok(validity
        .into_iter()
        .map(|valid| valid.then(|| dense.next().expect("one value per valid row")))
        .collect())
}

/// Decodes a `.jxc` file to its rows, checking every CRC and structure
/// the grammar names.
fn spec_rows(file: &[u8]) -> Result<Vec<Value>, String> {
    let len = file.len();
    if len < 4 || &file[..4] != b"JXC1" {
        return Err("no leading magic".into());
    }
    if len < 20 || &file[len - 4..] != b"JXC1" {
        return Err("no finalize marker".into());
    }
    let mut trailer = Fields::new(&file[len - 16..len - 4]);
    let ftr_crc = trailer.u32()? as u32;
    let footer_off = trailer.u64()?;
    if !(4..=len - 16).contains(&footer_off) {
        return Err(format!("footer_off {footer_off} of a {len}-byte file"));
    }
    let footer = &file[footer_off..len - 16];
    if spec_crc32(footer) != ftr_crc {
        return Err("footer CRC mismatch".into());
    }
    let mut fields = Fields::new(footer);
    let rows = fields.u64()?;
    let ncols = fields.u32()?;
    let mut columns = Vec::new();
    let mut next_block = 4;
    for _ in 0..ncols {
        let path_len = fields.u16()?;
        let path = fields.utf8(path_len)?;
        let type_tag = fields.u8()?;
        let enc = fields.u8()?;
        let block_off = fields.u64()?;
        let block_len = fields.u64()?;
        let valid_count = fields.u64()?;
        let block_crc = fields.u32()? as u32;
        if valid_count > rows {
            return Err(format!("{path}: {valid_count} valid cells of {rows} rows"));
        }
        // Blocks are contiguous, in column order, from byte 4.
        if block_off != next_block || block_len > footer_off - block_off {
            return Err(format!(
                "{path}: block at {block_off}, expected {next_block}"
            ));
        }
        next_block = block_off + block_len;
        let block = &file[block_off..next_block];
        if spec_crc32(block) != block_crc {
            return Err(format!("{path}: block CRC mismatch"));
        }
        columns.push((path, spec_block(block, rows, valid_count, type_tag, enc)?));
    }
    fields.end("the footer")?;
    if next_block != footer_off {
        return Err("bytes between the last block and the footer".into());
    }
    Ok((0..rows)
        .map(|row| {
            let mut object = Object::new();
            for (path, cells) in &columns {
                if let Some(value) = &cells[row] {
                    object.insert(path.to_string(), value.clone());
                }
            }
            Value::Obj(object)
        })
        .collect())
}

/// `spec_rows` of `file`, and the rows `jxc.rs` reads from it.
fn assert_spec_agrees(file: &[u8]) {
    let want = rows_as_values(&read_jxc(file).expect("jxc.rs reads it").batch, usize::MAX);
    assert_eq!(spec_rows(file), Ok(want));
}

#[test]
fn the_spec_crc_is_zlibs() {
    assert_eq!(spec_crc32(b""), 0);
    assert_eq!(spec_crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn the_spec_reader_reads_every_golden_fixture() {
    for fixture in [
        &include_bytes!("fixtures/golden.jxc")[..],
        include_bytes!("fixtures/golden_empty.jxc"),
        include_bytes!("fixtures/golden_handbuilt.jxc"),
        include_bytes!("fixtures/golden_large.jxc"),
    ] {
        assert_spec_agrees(fixture);
    }
}

#[test]
fn the_spec_reader_refuses_a_flipped_block_byte() {
    let mut file = include_bytes!("fixtures/golden_large.jxc").to_vec();
    file[100] ^= 0x10;
    assert_eq!(spec_rows(&file), Err("actor: block CRC mismatch".into()));
}

// ---------------------------------------------------------------------------
// Seeded files
// ---------------------------------------------------------------------------

/// xorshift64: the cells of one file from one seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// One column's cells, generated whole and cut into parts later.
enum Cells {
    Bools(Vec<Option<bool>>),
    Ints(Vec<Option<i64>>),
    Floats(Vec<Option<f64>>),
    Strs(Vec<Option<String>>),
    Json(Vec<Option<String>>),
}

const WORDS: [&str; 8] = [
    "",
    "a",
    "é",
    "日本",
    "😀",
    "q\"uote",
    "back\\slash",
    "tab\there",
];

/// A cell text that earns `list-int`, `list-str` or only `dict`.
fn json_text(rng: &mut Rng, shape: u64) -> String {
    let items = rng.below(5);
    match shape {
        0 => {
            let ints: Vec<String> = (0..items)
                .map(|_| (rng.below(2001) as i64 - 1000).to_string())
                .collect();
            format!("[{}]", ints.join(","))
        }
        1 => {
            let strs: Vec<String> = (0..items)
                .map(|_| Value::Str(rng.pick(&WORDS).to_string()).to_json_string())
                .collect();
            format!("[{}]", strs.join(","))
        }
        _ => rng
            .pick(&[
                "{\"a\":1}",
                "null",
                "\"s\"",
                "[1,\"a\"]",
                "1.5",
                "not json",
                "[1, 2]",
            ])
            .to_string(),
    }
}

/// `rows` cells of a random kind, with nulls at a random rate. A large
/// file's string column has over a thousand distinct values.
fn cells(rng: &mut Rng, rows: usize, large: bool) -> Cells {
    let valid_per_8 = if large {
        8
    } else {
        *rng.pick(&[0, 4, 7, 8, 8])
    };
    let cell = |rng: &mut Rng| rng.below(8) < valid_per_8;
    let distinct = if large {
        4000
    } else {
        *rng.pick(&[1, 5, 50, 2000])
    };
    match if large { 3 } else { rng.below(5) } {
        0 => Cells::Bools(
            (0..rows)
                .map(|_| cell(rng).then(|| rng.below(2) == 1))
                .collect(),
        ),
        1 => Cells::Ints(
            (0..rows)
                .map(|_| cell(rng).then(|| (rng.below(u64::MAX) as i64) >> rng.below(64)))
                .collect(),
        ),
        2 => Cells::Floats(
            (0..rows)
                .map(|_| cell(rng).then(|| (rng.below(1 << 30) as f64 - (1 << 29) as f64) / 7.0))
                .collect(),
        ),
        3 => Cells::Strs(
            (0..rows)
                .map(|_| cell(rng).then(|| format!("{}{}", rng.pick(&WORDS), rng.below(distinct))))
                .collect(),
        ),
        _ => {
            let shape = rng.below(3);
            Cells::Json(
                (0..rows)
                    .map(|_| cell(rng).then(|| json_text(rng, shape)))
                    .collect(),
            )
        }
    }
}

/// The rows `range` of `cells` as a column of one part.
fn column(path: &str, cells: &Cells, range: std::ops::Range<usize>) -> Column {
    fn split<T: Clone>(cells: &[Option<T>]) -> (Bitmap, Vec<T>) {
        let validity = cells.iter().map(Option::is_some).collect();
        (validity, cells.iter().flatten().cloned().collect())
    }
    let (validity, data) = match cells {
        Cells::Bools(v) => {
            let (validity, bits) = split(&v[range]);
            (validity, ColumnData::Bools(bits.into_iter().collect()))
        }
        Cells::Ints(v) => {
            let (validity, ints) = split(&v[range]);
            (validity, ColumnData::Ints(ints))
        }
        Cells::Floats(v) => {
            let (validity, floats) = split(&v[range]);
            (validity, ColumnData::Floats(floats))
        }
        Cells::Strs(v) | Cells::Json(v) => {
            let (validity, texts) = split(&v[range]);
            let arena: StrArena = texts.iter().map(String::as_str).collect();
            let data = match cells {
                Cells::Strs(_) => ColumnData::Strs(arena),
                _ => ColumnData::Json(arena),
            };
            (validity, data)
        }
    };
    Column {
        path: path.into(),
        data,
        validity,
    }
}

/// A seeded file's parts: 1–6 columns over 0–~600 rows (1,000–2,000 for
/// a large one), cut into 1–4 parts, some empty.
fn seeded_parts(seed: u64, large: bool) -> Vec<ColumnarBatch> {
    let mut rng = Rng(seed | 1);
    let rows = if large {
        1000 + rng.below(1000) as usize
    } else {
        *rng.pick(&[0, 1, 7, 8, 9, 64]) + rng.below(600) as usize * rng.below(2) as usize
    };
    let ncols = 1 + rng.below(6) as usize;
    let columns: Vec<(String, Cells)> = (0..ncols)
        .map(|c| (format!("c{c}.x"), cells(&mut rng, rows, large && c == 0)))
        .collect();
    let mut cuts: Vec<usize> = (0..rng.below(4))
        .map(|_| rng.below(rows as u64 + 1) as usize)
        .collect();
    cuts.extend([0, rows]);
    cuts.sort_unstable();
    cuts.windows(2)
        .map(|range| ColumnarBatch {
            columns: columns
                .iter()
                .map(|(path, cells)| column(path, cells, range[0]..range[1]))
                .collect(),
            rows: range[1] - range[0],
        })
        .collect()
}

fn parts_file(parts: &[ColumnarBatch]) -> Vec<u8> {
    let mut file = Vec::new();
    write_jxc_parts(parts, &mut file).unwrap();
    file
}

#[test]
fn the_spec_reader_reads_dictionaries_of_over_a_thousand_entries() {
    for seed in 0..6 {
        let file = parts_file(&seeded_parts(seed, true));
        let dict_len = read_jxc(&file).unwrap().columns[0].dict_len;
        assert!(dict_len > Some(1000), "seed {seed}: {dict_len:?}");
        assert_spec_agrees(&file);
    }
}

/// A literal dotted key and the nested path it spells are one column,
/// its slot widened to hold both fields' values: the writer names no
/// path twice, and a record holding both keys keeps the first.
#[test]
fn the_spec_reader_reads_a_dotted_key_beside_the_path_it_spells() {
    let docs = [
        json!({"a.b": 1}),
        json!({"a": {"b": "x"}}),
        json!({"a.b": 2, "a": {"b": "y"}}),
    ];
    let ty = infer_collection(&docs, Equivalence::Kind);
    let file = parts_file(&[Shredder::from_type(&ty).shred(&docs).unwrap()]);
    let paths: Vec<String> = read_jxc(&file)
        .unwrap()
        .columns
        .iter()
        .map(|col| col.path.clone())
        .collect();
    assert_eq!(paths, ["a.b"]);
    assert_spec_agrees(&file);
    let rows = [json!({"a.b": 1}), json!({"a.b": "x"}), json!({"a.b": 2})];
    assert_eq!(spec_rows(&file), Ok(rows.to_vec()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn the_spec_reader_reads_what_write_jxc_parts_writes(seed in any::<u64>()) {
        assert_spec_agrees(&parts_file(&seeded_parts(seed, false)));
    }
}
