//! `.jxc` — the workspace's binary columnar file format.
//!
//! A `.jxc` file is a [`ColumnarBatch`] on disk: one block per column
//! (validity bitmap + encoded values), a schema footer describing every
//! column, and a trailer pointing back at the footer so readers seek
//! straight to the schema without scanning data. The §5 story of the
//! paper — schema-driven translation feeding columnar analytics — ends
//! here instead of at an in-memory struct.
//!
//! ## Layout
//!
//! ```text
//! ┌─────────┬───────────────────────┬─────────┬──────────┬────────────┬─────────┐
//! │ "JXC1"  │ column blocks …       │ footer  │ ftr_crc  │ footer_off │ "JXC1"  │
//! │ 4 bytes │ (per-column, in order)│         │ u32 LE   │ u64 LE     │ 4 bytes │
//! └─────────┴───────────────────────┴─────────┴──────────┴────────────┴─────────┘
//!
//! footer := rows:u64, ncols:u32,
//!           ncols × { path_len:u16, path:bytes, type_tag:u8, enc:u8,
//!                     block_off:u64, block_len:u64, valid_count:u64,
//!                     block_crc:u32 }
//!
//! block  := validity bitmap (⌈rows/8⌉ bytes, LSB-first), then dense
//!           values (one entry per *valid* row) under the encoding:
//!   plain    bool: bit-packed; int64: i64 LE; float64: f64 bits LE
//!   dict     dict_len:u32, dict_len × {len:u32, bytes}, codes:u32 …
//!   list-int (n+1):u32 offsets, then Σ items × i64 LE
//!   list-str (n+1):u32 offsets, dict (as above), then Σ items × u32 codes
//! ```
//!
//! All integers are little-endian. Every string column is
//! dictionary-encoded (first-appearance order). JSON spill columns are
//! inspected at write time: when **every** valid cell is an integer
//! array — or a string array — whose compact serialization matches the
//! stored text byte for byte, the column is stored as nested-list
//! offset arrays instead of opaque text, which is what gives `jsonx cat
//! --flatten` its cross-join semantics (and costs nothing when the data
//! doesn't fit: the column falls back to a text dictionary). The
//! round-trip verification makes `read(write(batch)) == batch` exact by
//! construction, pinned by `tests/prop_jxc.rs`.
//!
//! A file is written from **parts** — batches of one layout, in row
//! order ([`write_jxc_parts`]) — one column block at a time, and holds
//! exactly the bytes their concatenation would: bitmaps continue
//! mid-byte across parts, a dictionary's first-appearance order runs
//! across all of them, and a spill column is list-encoded only when
//! every part's cells verify.
//!
//! Per column, the values, dictionary entries, list items and each
//! entry's bytes are bounded by `u32::MAX`, counted over all parts: a
//! total past that is an [`std::io::ErrorKind::InvalidInput`] error
//! naming the column and the count from [`write_jxc_parts`] and
//! [`write_jxc_file`], and a panic from the in-memory [`write_jxc`] —
//! data that large should be written as multiple files.
//!
//! ## Reading: verify in place, materialize a head
//!
//! One decoder reads a file from a block source: bytes in memory, which
//! lend each block where it lies ([`read_jxc_head`]), or a file on disk,
//! read one block at a time through one reused buffer
//! ([`read_jxc_file_head`]) — either way the same [`JxcFile`] or the
//! same [`JxcError`]. It takes each column block in two steps. First the
//! whole block is checked where it lies — its CRC and validity count,
//! every dictionary entry's UTF-8, every code's range, the list offsets,
//! no trailing bytes — keeping borrowed spans of the block: dictionary
//! entries as `&str`, codes, words and items as byte slices. No
//! dictionary is copied. Then only the first `n` rows are copied out of
//! those spans, before the next block is read; [`read_jxc`] is the same
//! decoder asked for every row. Because the checks never depend on `n`,
//! a damaged file is the same [`JxcError`] however few rows are asked
//! for, and the cost of a head read is the checks plus `n` rows, not the
//! whole batch — `jsonx cat --head N` holds one block and builds what it
//! prints.
//!
//! ## Integrity and crash semantics
//!
//! Every column block and the footer carry a CRC-32
//! ([`jsonx_data::crc32`]), and the trailing magic doubles as a
//! **finalize marker**: it is the last thing written, so its absence
//! means the writer died mid-file. The reader therefore distinguishes
//! two failure worlds:
//!
//! * [`JxcError::Truncated`] — the leading magic is present but the
//!   trailer (checksum + footer offset + finalize marker) is not, or the
//!   file ends before a structure it promises: the classic
//!   crash-mid-write shape. The run that produced it can be re-finalized
//!   with `--resume`.
//! * [`JxcError::Corrupt`] — the file *claims* to be complete but a
//!   checksum or structural invariant fails: bit rot or foul play, not
//!   an interrupted write. Resuming cannot help; the file is bad.

use crate::columnar::{Bitmap, Column, ColumnData, ColumnarBatch, SpillText, StrArena};
use jsonx_data::{crc32, crc32_update, write_escaped, Number, Object, Value};
use jsonx_syntax::{append_compact, to_string};
use std::collections::HashSet;
use std::fmt;
use std::fmt::Write as _;
use std::fs::File;
use std::hash::{BuildHasher, RandomState};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"JXC1";

/// How one column's dense values are encoded on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Fixed-width scalars (bit-packed bools, i64/f64 words).
    Plain,
    /// Dictionary: unique strings once, u32 codes per value.
    Dict,
    /// Nested integer lists: offset array + flat i64 items.
    ListInt,
    /// Nested string lists: offset array + dictionary + flat u32 codes.
    ListStr,
}

impl Encoding {
    /// Stable label used by `jsonx cat` and the footer docs.
    pub fn label(&self) -> &'static str {
        match self {
            Encoding::Plain => "plain",
            Encoding::Dict => "dict",
            Encoding::ListInt => "list-int",
            Encoding::ListStr => "list-str",
        }
    }

    fn tag(&self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Dict => 1,
            Encoding::ListInt => 2,
            Encoding::ListStr => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<Encoding> {
        Some(match tag {
            0 => Encoding::Plain,
            1 => Encoding::Dict,
            2 => Encoding::ListInt,
            3 => Encoding::ListStr,
            _ => return None,
        })
    }
}

/// Why a `.jxc` file could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JxcError {
    /// The leading magic is missing — not a `.jxc` file at all.
    BadMagic,
    /// The file starts as `.jxc` but ends before a structure it
    /// promises — including a missing finalize marker, the signature of
    /// a writer killed mid-write. The producing run is resumable.
    Truncated,
    /// The file claims completeness but fails a checksum or structural
    /// invariant (bad tags, offsets, codes, CRC mismatches).
    Corrupt(String),
    /// The underlying file could not be read.
    Io(String),
}

impl fmt::Display for JxcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JxcError::BadMagic => write!(f, "not a .jxc file (bad magic)"),
            JxcError::Truncated => write!(
                f,
                ".jxc file is truncated (likely interrupted mid-write; the producing run is resumable)"
            ),
            JxcError::Corrupt(msg) => write!(f, "corrupt .jxc file: {msg}"),
            JxcError::Io(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for JxcError {}

/// Per-column facts a reader learns from the footer — what `jsonx cat`
/// prints next to the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JxcColumnInfo {
    /// Dotted leaf path.
    pub path: String,
    /// Storage type name (`bool`, `int64`, `float64`, `utf8`, `json`).
    pub type_name: &'static str,
    /// On-disk encoding of the dense values.
    pub encoding: Encoding,
    /// The column block's size in bytes (bitmap + values).
    pub block_bytes: usize,
    /// Number of valid (non-null) cells.
    pub valid_count: usize,
    /// Dictionary entry count, for dictionary-bearing encodings.
    pub dict_len: Option<usize>,
    /// Total flattened list items, for list encodings.
    pub list_items: Option<usize>,
}

/// A decoded `.jxc` file: the batch plus the footer's per-column facts.
#[derive(Debug, Clone, PartialEq)]
pub struct JxcFile {
    /// The reconstructed batch — equal to the batch that was written, or
    /// to its first rows when read with [`read_jxc_head`].
    pub batch: ColumnarBatch,
    /// Per-column encodings and sizes, in column order — the whole
    /// file's, however many rows `batch` holds.
    pub columns: Vec<JxcColumnInfo>,
    /// The file's row count, from the footer.
    pub rows: usize,
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn invalid(message: String) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidInput,
        format!(".jxc writer: {message}"),
    )
}

/// `n` as the u32 a block stores it in, or an `InvalidInput` error
/// naming the column at `path` and the count.
fn cap(n: usize, what: &str, path: &str) -> io::Result<u32> {
    u32::try_from(n).map_err(|_| invalid(format!("column {path}: {what} ({n}) exceed u32::MAX")))
}

/// Appends `items` as fixed-width little-endian words in one pass over
/// a pre-sized region (no per-word length check or capacity growth).
fn put_words<T: Copy, const N: usize>(out: &mut Vec<u8>, items: &[T], le: impl Fn(T) -> [u8; N]) {
    let start = out.len();
    out.resize(start + items.len() * N, 0);
    for (word, item) in out[start..].chunks_exact_mut(N).zip(items) {
        word.copy_from_slice(&le(*item));
    }
}

/// The buffers a column block is built in, reused from column to column
/// so that writing a file allocates one of each, not one per column.
#[derive(Default)]
struct Scratch {
    /// The block being built.
    block: Vec<u8>,
    dict: Dict,
    lists: Lists,
}

/// A dictionary under construction.
#[derive(Default)]
struct Dict {
    /// Open-addressing table: a slot is 0 when empty, else the hash's
    /// high half over the entry's code + 1.
    slots: Vec<u64>,
    /// Each entry, as where its `len:u32 + bytes` starts in the block
    /// and its hash — what re-slotting a grown table needs.
    entries: Vec<(usize, u64)>,
    /// One code per value.
    codes: Vec<u32>,
}

/// The shapes a JSON spill column is verified against to earn a list
/// encoding: `offsets[i]..offsets[i + 1]` are cell `i`'s items.
#[derive(Default)]
struct Lists {
    int_offsets: Vec<u32>,
    ints: Vec<i64>,
    str_offsets: Vec<u32>,
    strs: StrArena,
}

/// Appends the items of `text` to `out` when it is the compact
/// serialization of an integer array: `[` + `i64`s as `{}` prints them,
/// comma-separated + `]`.
fn scan_int_list(text: &str, out: &mut Vec<i64>) -> bool {
    let Some(inner) = text.strip_prefix('[').and_then(|t| t.strip_suffix(']')) else {
        return false;
    };
    if inner.is_empty() {
        return true;
    }
    inner.split(',').all(|item| {
        let digits = item.strip_prefix('-').unwrap_or(item).as_bytes();
        // What the parser reads as `Number::Int` *and* the serializer
        // writes back unchanged: no sign but `-`, no leading zeros, no
        // `-0`, within i64 (`parse` checks the range).
        let canonical = match digits {
            [b'0'] => item.len() == 1,
            [b'1'..=b'9', rest @ ..] => rest.iter().all(u8::is_ascii_digit),
            _ => false,
        };
        canonical && item.parse::<i64>().map(|i| out.push(i)).is_ok()
    })
}

/// Appends the items of `text` to `out` when it is the compact
/// serialization of a string array. Literals free of escapes are taken
/// as they stand; anything else is settled by parsing the cell and
/// serializing it back, which is what defines "compact serialization".
fn scan_str_list(text: &str, out: &mut StrArena) -> bool {
    let mark = out.len();
    if scan_plain_str_list(text, out) == Some(()) {
        return true;
    }
    out.truncate(mark);
    reparse_str_list(text, out)
}

/// The escape-free case of [`scan_str_list`]: `["a","b"]` with nothing
/// in the literals that the serializer would have written differently.
/// `None` means "not of that form", not "not a string array".
fn scan_plain_str_list(text: &str, out: &mut StrArena) -> Option<()> {
    let mut rest = text.strip_prefix('[')?.strip_suffix(']')?;
    while !rest.is_empty() {
        let body = rest.strip_prefix('"')?;
        let end = body
            .bytes()
            .position(|b| b == b'"' || b == b'\\' || b < 0x20)?;
        let (item, after) = body.split_at(end);
        out.push(item);
        rest = match after.strip_prefix('"')? {
            "" => "",
            more => more.strip_prefix(',').filter(|next| !next.is_empty())?,
        };
    }
    Some(())
}

/// [`scan_str_list`] by definition: parse, require a string array, and
/// require the serializer to reproduce `text` byte for byte.
fn reparse_str_list(text: &str, out: &mut StrArena) -> bool {
    let Ok(value) = jsonx_syntax::parse(text) else {
        return false;
    };
    let Value::Arr(items) = &value else {
        return false;
    };
    if !items.iter().all(|v| matches!(v, Value::Str(_))) || value.to_json_string() != text {
        return false;
    }
    for item in items {
        out.push(item.as_str().expect("checked above"));
    }
    true
}

/// The encoding a JSON spill column's cells — every part's, in order —
/// earn: `ListInt` when every cell is an integer array (or, failing that,
/// `ListStr` when every cell is a string array) whose compact
/// serialization reproduces the stored text exactly, with its offsets
/// and items left in `lists`; else `Dict`. The byte-equality is what
/// lets the reader re-serialize lists without keeping the original text
/// around.
fn sniff_lists<'a>(
    cells: impl Iterator<Item = &'a str>,
    path: &str,
    lists: &mut Lists,
) -> io::Result<Encoding> {
    let Lists {
        int_offsets,
        ints,
        str_offsets,
        strs,
    } = lists;
    int_offsets.clear();
    int_offsets.push(0);
    ints.clear();
    str_offsets.clear();
    str_offsets.push(0);
    strs.truncate(0);
    let (mut all_ints, mut all_strs) = (true, true);
    for text in cells {
        if all_ints {
            all_ints = scan_int_list(text, ints);
            if all_ints {
                int_offsets.push(cap(ints.len(), "list items", path)?);
            }
        }
        if all_strs {
            all_strs = scan_str_list(text, strs);
            if all_strs {
                str_offsets.push(cap(strs.len(), "list items", path)?);
            }
        }
        if !all_ints && !all_strs {
            return Ok(Encoding::Dict);
        }
    }
    Ok(if all_ints {
        Encoding::ListInt
    } else {
        Encoding::ListStr
    })
}

/// Hashes a string for the dictionary table: a multiply-fold per 8-byte
/// word. `seed` is drawn per file from the standard library's random
/// keys, so which strings collide is not predictable from outside.
fn hash_str(seed: u64, s: &str) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    fn fold(a: u64, b: u64) -> u64 {
        let wide = u128::from(a) * u128::from(b);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
    let mut words = s.as_bytes().chunks_exact(8);
    let mut h = seed ^ s.len() as u64;
    for word in &mut words {
        h = fold(h ^ u64::from_le_bytes(word.try_into().expect("8 bytes")), K);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = fold(h ^ u64::from_le_bytes(word), K);
    }
    fold(h, K)
}

/// Appends the strings of `arenas`, in order, dictionary-encoded: the
/// unique strings in first-appearance order, then one u32 code per
/// string. Each entry goes into `out` when it is first seen, and the
/// table probes those bytes.
fn put_dict(
    arenas: &[&StrArena],
    seed: u64,
    path: &str,
    dict: &mut Dict,
    out: &mut Vec<u8>,
) -> io::Result<()> {
    // Codes are stored as u32 below, and there are no more entries than
    // values.
    cap(arenas.iter().map(|arena| arena.len()).sum(), "values", path)?;
    let Dict {
        slots,
        entries,
        codes,
    } = dict;
    // Open addressing at load <= 1/2, doubled as entries arrive.
    slots.clear();
    slots.resize(16, 0);
    entries.clear();
    codes.clear();
    let count_at = out.len();
    put_u32(out, 0);
    for value in arenas.iter().flat_map(|arena| arena.iter()) {
        let hash = hash_str(seed, value);
        let tag = hash & !0xFFFF_FFFF;
        let mask = slots.len() - 1;
        let mut at = hash as usize & mask;
        let code = loop {
            let slot = slots[at];
            if slot == 0 {
                let len = cap(value.len(), "bytes in a dictionary entry", path)?;
                entries.push((out.len(), hash));
                put_u32(out, len);
                out.extend_from_slice(value.as_bytes());
                slots[at] = tag | entries.len() as u64;
                if entries.len() * 2 > slots.len() {
                    reslot(slots, entries);
                }
                break entries.len() as u32 - 1;
            }
            let code = (slot & 0xFFFF_FFFF) as u32 - 1;
            if slot & !0xFFFF_FFFF == tag
                && entry(out, entries[code as usize].0) == value.as_bytes()
            {
                break code;
            }
            at = (at + 1) & mask;
        };
        codes.push(code);
    }
    out[count_at..count_at + 4].copy_from_slice(&(entries.len() as u32).to_le_bytes());
    put_words(out, codes, u32::to_le_bytes);
    Ok(())
}

/// The bytes of the dictionary entry whose `len:u32` starts at `at`.
fn entry(out: &[u8], at: usize) -> &[u8] {
    let len = u32::from_le_bytes(out[at..at + 4].try_into().expect("4 bytes"));
    &out[at + 4..at + 4 + len as usize]
}

/// Doubles the table and puts every entry back by its stored hash, so
/// no entry's bytes are read again.
fn reslot(slots: &mut Vec<u64>, entries: &[(usize, u64)]) {
    let mask = slots.len() * 2 - 1;
    slots.clear();
    slots.resize(mask + 1, 0);
    for (code, &(_, hash)) in entries.iter().enumerate() {
        let mut at = hash as usize & mask;
        while slots[at] != 0 {
            at = (at + 1) & mask;
        }
        slots[at] = (hash & !0xFFFF_FFFF) | (code as u64 + 1);
    }
}

/// Where a part's storage is not the first part's: ruled out by the
/// layout check [`write_jxc_parts`] makes before it builds a block.
fn mismatch() -> ! {
    unreachable!(".jxc writer: parts share each column's storage type")
}

/// Builds column `c` of every part as one block in `s.block` (bitmap +
/// dense values); returns the chosen encoding.
fn put_block(
    parts: &[ColumnarBatch],
    c: usize,
    seed: u64,
    s: &mut Scratch,
) -> io::Result<Encoding> {
    let Scratch { block, dict, lists } = s;
    block.clear();
    let mut rows = 0;
    for part in parts {
        part.columns[c].validity.append_to(block, rows);
        rows += part.rows;
    }
    let path = &parts[0].columns[c].path;
    let data = || parts.iter().map(|part| &part.columns[c].data);
    let arenas = || -> Vec<&StrArena> {
        data()
            .map(|d| match d {
                ColumnData::Strs(v) | ColumnData::Json(v) => v,
                _ => mismatch(),
            })
            .collect()
    };
    Ok(match &parts[0].columns[c].data {
        ColumnData::Bools(_) => {
            let mut bits = 0;
            for d in data() {
                let ColumnData::Bools(v) = d else { mismatch() };
                v.append_to(block, bits);
                bits += v.len();
            }
            Encoding::Plain
        }
        ColumnData::Ints(_) => {
            for d in data() {
                let ColumnData::Ints(v) = d else { mismatch() };
                put_words(block, v, i64::to_le_bytes);
            }
            Encoding::Plain
        }
        ColumnData::Floats(_) => {
            for d in data() {
                let ColumnData::Floats(v) = d else { mismatch() };
                put_words(block, v, |f| f.to_bits().to_le_bytes());
            }
            Encoding::Plain
        }
        ColumnData::Strs(_) => {
            put_dict(&arenas(), seed, path, dict, block)?;
            Encoding::Dict
        }
        ColumnData::Json(_) => {
            let arenas = arenas();
            match sniff_lists(arenas.iter().flat_map(|a| a.iter()), path, lists)? {
                Encoding::ListInt => {
                    put_words(block, &lists.int_offsets, u32::to_le_bytes);
                    put_words(block, &lists.ints, i64::to_le_bytes);
                    Encoding::ListInt
                }
                Encoding::ListStr => {
                    put_words(block, &lists.str_offsets, u32::to_le_bytes);
                    put_dict(&[&lists.strs], seed, path, dict, block)?;
                    Encoding::ListStr
                }
                _ => {
                    put_dict(&arenas, seed, path, dict, block)?;
                    Encoding::Dict
                }
            }
        }
    })
}

fn type_tag(data: &ColumnData) -> u8 {
    match data {
        ColumnData::Bools(_) => 0,
        ColumnData::Ints(_) => 1,
        ColumnData::Floats(_) => 2,
        ColumnData::Strs(_) => 3,
        ColumnData::Json(_) => 4,
    }
}

/// Writes `parts` — batches of one layout, in row order — to `out` as
/// one `.jxc` file: byte for byte the file of their concatenation, built
/// without it. Each column block is built over every part in one reused
/// buffer, checksummed, and written before the next; the footer follows.
/// Returns the file size in bytes. No parts is a file of no columns.
///
/// # Errors
///
/// `out`'s errors, and [`io::ErrorKind::InvalidInput`] naming the column
/// and the count when a column's total across the parts exceeds a u32
/// field of the format, or its path is longer than 64 KiB.
///
/// # Panics
///
/// Panics when the parts disagree on the layout (column count, path or
/// storage type), or a column's validity length disagrees with its
/// part's row count or its dense data length with its valid count.
pub fn write_jxc_parts(parts: &[ColumnarBatch], mut out: impl Write) -> io::Result<u64> {
    let layout = parts
        .first()
        .map_or(&[][..], |part| part.columns.as_slice());
    for part in parts {
        assert_eq!(
            part.columns.len(),
            layout.len(),
            ".jxc writer: parts disagree on the column count"
        );
    }
    let rows: usize = parts.iter().map(|part| part.rows).sum();
    let ncols = u32::try_from(layout.len())
        .map_err(|_| invalid(format!("{} columns exceed u32::MAX", layout.len())))?;
    let mut footer = Vec::new();
    put_u64(&mut footer, rows as u64);
    put_u32(&mut footer, ncols);
    out.write_all(MAGIC)?;
    let mut at = MAGIC.len() as u64;
    let seed = RandomState::new().hash_one(0u8);
    let mut scratch = Scratch::default();
    for (c, col) in layout.iter().enumerate() {
        let mut valid_count = 0;
        for part in parts {
            let own = &part.columns[c];
            assert!(
                own.path == col.path && type_tag(&own.data) == type_tag(&col.data),
                ".jxc writer: parts disagree on column {}",
                col.path
            );
            assert_eq!(
                own.validity.len(),
                part.rows,
                ".jxc writer: validity length mismatch at {}",
                col.path
            );
            let valid = own.validity.count_ones();
            assert_eq!(
                own.data.len(),
                valid,
                ".jxc writer: dense length mismatch at {}",
                col.path
            );
            valid_count += valid;
        }
        let enc = put_block(parts, c, seed, &mut scratch)?;
        let block = &scratch.block;
        out.write_all(block)?;
        let path = col.path.as_bytes();
        let path_len = u16::try_from(path.len()).map_err(|_| {
            invalid(format!(
                "column path longer than 64 KiB ({} bytes)",
                path.len()
            ))
        })?;
        put_u16(&mut footer, path_len);
        footer.extend_from_slice(path);
        footer.push(type_tag(&col.data));
        footer.push(enc.tag());
        put_u64(&mut footer, at);
        put_u64(&mut footer, block.len() as u64);
        put_u64(&mut footer, valid_count as u64);
        put_u32(&mut footer, crc32(block));
        at += block.len() as u64;
    }
    let footer_crc = crc32(&footer);
    put_u32(&mut footer, footer_crc);
    put_u64(&mut footer, at);
    // The trailing magic is the finalize marker: written last, so its
    // presence certifies the file was completely written.
    footer.extend_from_slice(MAGIC);
    out.write_all(&footer)?;
    Ok(at + footer.len() as u64)
}

/// Serializes a batch to `.jxc` bytes: [`write_jxc_parts`] of one part,
/// in memory.
///
/// # Panics
///
/// Panics when a column's validity length disagrees with the batch row
/// count or its dense data length disagrees with its valid count (layout
/// invariant violations), or when a per-column count exceeds `u32::MAX`.
pub fn write_jxc(batch: &ColumnarBatch) -> Vec<u8> {
    let mut out = Vec::new();
    write_jxc_parts(std::slice::from_ref(batch), &mut out).unwrap_or_else(|e| panic!("{e}"));
    out
}

/// The footer checksum an image ends with — what tells one complete
/// image from another without decoding it (a checkpoint journal names the
/// images it committed by it). `None` when `image` does not end with a
/// trailer: it is shorter than one, or has no finalize marker.
pub fn footer_crc(image: &[u8]) -> Option<u32> {
    let trailer = &image[image.len().checked_sub(16)?..];
    (&trailer[12..] == MAGIC)
        .then(|| u32::from_le_bytes(trailer[..4].try_into().expect("a trailer has 16 bytes")))
}

/// Writes a batch to `path` as `.jxc`; returns the file size in bytes.
pub fn write_jxc_file(path: &Path, batch: &ColumnarBatch) -> io::Result<u64> {
    let mut file = BufWriter::new(std::fs::File::create(path)?);
    let bytes = write_jxc_parts(std::slice::from_ref(batch), &mut file)?;
    file.flush()?;
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian cursor.
struct Cur<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], JxcError> {
        let end = self.pos.checked_add(n).ok_or(JxcError::Truncated)?;
        if end > self.bytes.len() {
            return Err(JxcError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, JxcError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, JxcError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, JxcError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The bytes of `n` words of `N` bytes each.
    fn words<const N: usize>(&mut self, n: usize) -> Result<&'a [u8], JxcError> {
        self.take(n.checked_mul(N).ok_or(JxcError::Truncated)?)
    }

    fn bitmap(&mut self, bits: usize) -> Result<Bitmap, JxcError> {
        let bytes = self.take(bits.div_ceil(8))?;
        Ok(Bitmap::from_bytes(bytes, bits).expect("took exactly the bytes the bits need"))
    }
}

/// The fixed-width little-endian words of `bytes`, decoded.
fn words<'a, const N: usize, T>(
    bytes: &'a [u8],
    le: impl Fn([u8; N]) -> T + 'a,
) -> impl Iterator<Item = T> + 'a {
    bytes
        .chunks_exact(N)
        .map(move |word| le(word.try_into().expect("chunks_exact yields N bytes")))
}

/// A dictionary's entries, each checked to be UTF-8 and borrowed from
/// the block, not copied: in one check over the whole dictionary when
/// [`ascii_prefixed_entries`] can prove every entry with it, else entry
/// by entry — the route that names what is wrong.
fn read_dict<'a>(cur: &mut Cur<'a>) -> Result<Vec<&'a str>, JxcError> {
    let start = cur.pos;
    if let Some(entries) = ascii_prefixed_entries(cur) {
        return Ok(entries);
    }
    cur.pos = start;
    let len = cur.u32()? as usize;
    // Every entry takes at least its 4-byte length.
    let mut entries = Vec::with_capacity(len.min((cur.bytes.len() - cur.pos) / 4));
    for _ in 0..len {
        let bytes = cur.u32()? as usize;
        let entry = std::str::from_utf8(cur.take(bytes)?)
            .map_err(|_| JxcError::Corrupt("non-UTF-8 dictionary entry".into()))?;
        entries.push(entry);
    }
    Ok(entries)
}

/// A dictionary's entries from one UTF-8 check over all of its
/// `len:u32 + bytes` pairs, when every byte of every length is ASCII;
/// `None` (with `cur` moved anywhere) when one is not, or when the
/// dictionary is truncated or not UTF-8.
///
/// Exact: an ASCII byte is a whole character, so a region that is UTF-8
/// has a character boundary on either side of each of its length bytes,
/// which is where every entry starts and ends — each entry is UTF-8 on
/// its own. A length byte of `0x80` or more could be the middle of a
/// character that runs across an entry boundary, so such a dictionary is
/// checked entry by entry.
fn ascii_prefixed_entries<'a>(cur: &mut Cur<'a>) -> Option<Vec<&'a str>> {
    let len = cur.u32().ok()? as usize;
    let first = cur.pos;
    for _ in 0..len {
        let bytes = cur.u32().ok()?;
        if bytes & 0x8080_8080 != 0 {
            return None;
        }
        cur.take(bytes as usize).ok()?;
    }
    let region = std::str::from_utf8(&cur.bytes[first..cur.pos]).ok()?;
    let mut walk = Cur {
        bytes: region.as_bytes(),
        pos: 0,
    };
    let mut entries = Vec::with_capacity(len);
    for _ in 0..len {
        let bytes = walk.u32().ok()? as usize;
        let start = walk.pos;
        walk.take(bytes).ok()?;
        entries.push(region.get(start..walk.pos)?);
    }
    Some(entries)
}

/// The bytes of `n` codes, each checked to name one of `dict_len`
/// dictionary entries.
fn read_codes<'a>(cur: &mut Cur<'a>, n: usize, dict_len: usize) -> Result<&'a [u8], JxcError> {
    let codes = cur.words::<4>(n)?;
    if let Some(code) = words(codes, u32::from_le_bytes).find(|&code| code as usize >= dict_len) {
        return Err(JxcError::Corrupt(format!(
            "dictionary code {code} out of range"
        )));
    }
    Ok(codes)
}

/// The bytes of `n + 1` list offsets, checked to start at 0 and never
/// decrease, and the last one: the list items the block holds.
fn read_offsets<'a>(cur: &mut Cur<'a>, n: usize) -> Result<(&'a [u8], usize), JxcError> {
    let count = n.checked_add(1).ok_or(JxcError::Truncated)?;
    let offsets = cur.words::<4>(count)?;
    let mut last = 0;
    for (i, offset) in words(offsets, u32::from_le_bytes).enumerate() {
        if offset < last || (i == 0 && offset != 0) {
            return Err(JxcError::Corrupt("non-monotone list offsets".into()));
        }
        last = offset;
    }
    Ok((offsets, last as usize))
}

/// A column block's dense values, checked in place: every valid cell of
/// the column, as spans of the file's bytes (bools aside).
enum Values<'a> {
    /// Bools, one bit each.
    Bools(Bitmap),
    /// i64 words.
    Ints(&'a [u8]),
    /// f64 bit patterns.
    Floats(&'a [u8]),
    /// A dictionary and one code per cell; `json` for a spill column.
    Dict {
        entries: Vec<&'a str>,
        codes: &'a [u8],
        json: bool,
    },
    /// Offsets (one more than cells) and i64 items.
    ListInt { offsets: &'a [u8], items: &'a [u8] },
    /// Offsets (one more than cells), a dictionary, one code per item.
    ListStr {
        offsets: &'a [u8],
        entries: Vec<&'a str>,
        codes: &'a [u8],
    },
}

/// A column block that passed every check: its bitmaps, and the rest of
/// its values borrowed from the file.
struct Block<'a> {
    validity: Bitmap,
    values: Values<'a>,
}

/// Checks a whole column block in place — the validity count, every
/// dictionary entry's UTF-8, every code's range, the list offsets, no
/// trailing bytes — and keeps its parts as spans of `block`.
fn read_block<'a>(
    block: &'a [u8],
    rows: usize,
    valid_count: usize,
    type_tag: u8,
    enc: Encoding,
    path: &str,
) -> Result<Block<'a>, JxcError> {
    let mut cur = Cur {
        bytes: block,
        pos: 0,
    };
    let validity = cur.bitmap(rows)?;
    if validity.count_ones() != valid_count {
        return Err(JxcError::Corrupt(format!(
            "validity bitmap of {path} disagrees with its valid count"
        )));
    }
    let values = match (type_tag, enc) {
        (0, Encoding::Plain) => Values::Bools(cur.bitmap(valid_count)?),
        (1, Encoding::Plain) => Values::Ints(cur.words::<8>(valid_count)?),
        (2, Encoding::Plain) => Values::Floats(cur.words::<8>(valid_count)?),
        (3, Encoding::Dict) | (4, Encoding::Dict) => {
            let entries = read_dict(&mut cur)?;
            let codes = read_codes(&mut cur, valid_count, entries.len())?;
            Values::Dict {
                entries,
                codes,
                json: type_tag == 4,
            }
        }
        (4, Encoding::ListInt) => {
            let (offsets, total) = read_offsets(&mut cur, valid_count)?;
            let items = cur.words::<8>(total)?;
            Values::ListInt { offsets, items }
        }
        (4, Encoding::ListStr) => {
            let (offsets, total) = read_offsets(&mut cur, valid_count)?;
            let entries = read_dict(&mut cur)?;
            let codes = read_codes(&mut cur, total, entries.len())?;
            Values::ListStr {
                offsets,
                entries,
                codes,
            }
        }
        (tag, enc) => {
            return Err(JxcError::Corrupt(format!(
                "type tag {tag} cannot carry encoding {}",
                enc.label()
            )));
        }
    };
    if cur.pos != block.len() {
        return Err(JxcError::Corrupt(format!(
            "column block of {path} has {} trailing bytes",
            block.len() - cur.pos
        )));
    }
    Ok(Block { validity, values })
}

/// Rebuilds a list column's texts — what serializing each row's array
/// compactly yields — from its offsets, writing every item with `push`.
fn list_texts(offsets: &[usize], mut push: impl FnMut(&mut String, usize)) -> StrArena {
    let mut texts = StrArena::with_capacity(offsets.len() - 1, 0);
    for row in offsets.windows(2) {
        texts.push_with(|text| {
            text.push('[');
            for item in row[0]..row[1] {
                if item > row[0] {
                    text.push(',');
                }
                push(text, item);
            }
            text.push(']');
        });
    }
    texts
}

/// Expands `codes` through `entries` into one arena, sized exactly
/// before the first copy.
fn expand(entries: &[&str], codes: &[u8]) -> Result<StrArena, JxcError> {
    let cells = || words(codes, |word| entries[u32::from_le_bytes(word) as usize]);
    let mut bytes = 0usize;
    for cell in cells() {
        bytes = bytes
            .checked_add(cell.len())
            .ok_or_else(|| JxcError::Corrupt("dictionary codes expand past usize".into()))?;
    }
    let mut out = StrArena::with_capacity(codes.len() / 4, bytes);
    for cell in cells() {
        out.push(cell);
    }
    Ok(out)
}

impl Block<'_> {
    /// Dictionary entry count, for dictionary-bearing encodings.
    fn dict_len(&self) -> Option<usize> {
        match &self.values {
            Values::Dict { entries, .. } | Values::ListStr { entries, .. } => Some(entries.len()),
            _ => None,
        }
    }

    /// Total list items, for list encodings.
    fn list_items(&self) -> Option<usize> {
        match &self.values {
            Values::ListInt { items, .. } => Some(items.len() / 8),
            Values::ListStr { codes, .. } => Some(codes.len() / 4),
            _ => None,
        }
    }

    /// The column's first `rows` rows, copied out of the spans.
    fn column(&self, path: &str, rows: usize) -> Result<Column, JxcError> {
        let validity = Bitmap::from_bytes(self.validity.as_bytes(), rows)
            .expect("the bitmap covers every row");
        let cells = validity.count_ones();
        let offsets = |offsets: &[u8]| -> Vec<usize> {
            words(&offsets[..(cells + 1) * 4], |word| {
                u32::from_le_bytes(word) as usize
            })
            .collect()
        };
        let data = match &self.values {
            Values::Bools(bits) => ColumnData::Bools(
                Bitmap::from_bytes(bits.as_bytes(), cells).expect("a bit per cell"),
            ),
            Values::Ints(items) => {
                ColumnData::Ints(words(&items[..cells * 8], i64::from_le_bytes).collect())
            }
            Values::Floats(items) => ColumnData::Floats(
                words(&items[..cells * 8], |word| {
                    f64::from_bits(u64::from_le_bytes(word))
                })
                .collect(),
            ),
            Values::Dict {
                entries,
                codes,
                json,
            } => {
                let texts = expand(entries, &codes[..cells * 4])?;
                if *json {
                    ColumnData::Json(texts)
                } else {
                    ColumnData::Strs(texts)
                }
            }
            Values::ListInt { offsets: o, items } => {
                let offsets = offsets(o);
                let items: Vec<i64> =
                    words(&items[..offsets[cells] * 8], i64::from_le_bytes).collect();
                ColumnData::Json(list_texts(&offsets, |text, item| {
                    write!(text, "{}", Number::Int(items[item])).expect("writing to a String");
                }))
            }
            Values::ListStr {
                offsets: o,
                entries,
                codes,
            } => {
                let offsets = offsets(o);
                let codes: Vec<u32> =
                    words(&codes[..offsets[cells] * 4], u32::from_le_bytes).collect();
                ColumnData::Json(list_texts(&offsets, |text, item| {
                    write_escaped(entries[codes[item] as usize], text);
                }))
            }
        };
        Ok(Column {
            path: path.to_owned(),
            data,
            validity,
        })
    }
}

/// Decodes `.jxc` bytes back into the batch that was written:
/// [`read_jxc_head`] of every row.
///
/// Failure taxonomy: no leading magic → [`JxcError::BadMagic`] (not our
/// file); leading magic but no complete trailer (footer CRC + offset +
/// finalize marker) → [`JxcError::Truncated`] (killed mid-write); a
/// complete trailer whose checksums or structure disagree →
/// [`JxcError::Corrupt`].
pub fn read_jxc(bytes: &[u8]) -> Result<JxcFile, JxcError> {
    read_jxc_head(bytes, usize::MAX)
}

/// Checks all of `.jxc` bytes and decodes the first `n` rows: the
/// batch [`read_jxc`] returns, cut to `n` rows, with the same column
/// facts and row count. Every check [`read_jxc`] makes runs over the
/// whole file, in the same order, so a file one of them rejects is the
/// same error at any `n`; only the copying is bounded by `n`.
pub fn read_jxc_head(mut bytes: &[u8], n: usize) -> Result<JxcFile, JxcError> {
    decode(&mut bytes, n)
}

/// Where [`decode`] takes a file's bytes from: a slice already in memory,
/// which lends its blocks where they lie, or a [`FileBlocks`].
trait Source {
    /// The file's length in bytes.
    fn size(&self) -> usize;

    /// Fills `out` with the file's bytes from `off` on; they lie inside
    /// the file.
    fn read_at(&mut self, off: usize, out: &mut [u8]) -> Result<(), JxcError>;

    /// The CRC-32 of the `len` bytes at `off` (inside the file), taken
    /// without holding more of them than a block read would: the footer
    /// is checked before it is held, however far back a damaged trailer
    /// points.
    fn crc_at(&mut self, off: usize, len: usize) -> Result<u32, JxcError>;

    /// The `len` bytes at `off` (inside the file) of the column block the
    /// footer gives `path` and the checksum `crc`, once they match it;
    /// lent until the next call.
    fn block(&mut self, off: usize, len: usize, crc: u32, path: &str) -> Result<&[u8], JxcError>;
}

/// `block`, when it matches the checksum `crc` the footer gives the
/// column at `path`.
fn checksummed<'b>(block: &'b [u8], crc: u32, path: &str) -> Result<&'b [u8], JxcError> {
    if crc32(block) != crc {
        return Err(JxcError::Corrupt(format!(
            "column block of {path} fails its checksum"
        )));
    }
    Ok(block)
}

impl Source for &[u8] {
    fn size(&self) -> usize {
        <[u8]>::len(self)
    }

    fn read_at(&mut self, off: usize, out: &mut [u8]) -> Result<(), JxcError> {
        out.copy_from_slice(&self[off..off + out.len()]);
        Ok(())
    }

    fn crc_at(&mut self, off: usize, len: usize) -> Result<u32, JxcError> {
        Ok(crc32(&self[off..off + len]))
    }

    fn block(&mut self, off: usize, len: usize, crc: u32, path: &str) -> Result<&[u8], JxcError> {
        checksummed(&self[off..off + len], crc, path)
    }
}

/// The one `.jxc` decoder. It reads the magic, the trailer and the
/// footer, then each column's block in footer order — checked, then cut
/// to its first `n` rows before the next block is asked for — so it holds
/// one block at a time and whatever `src` keeps of it.
fn decode(src: &mut impl Source, n: usize) -> Result<JxcFile, JxcError> {
    let size = src.size();
    let mut magic = [0; 4];
    if size >= magic.len() {
        src.read_at(0, &mut magic)?;
    }
    if &magic != MAGIC {
        return Err(JxcError::BadMagic);
    }
    // The trailer is footer_crc:u32 + footer_off:u64 + finalize magic;
    // anything shorter — or a missing finalize marker — is a file whose
    // writer never got to the end.
    let mut trailer = [0; 16];
    if size >= magic.len() + trailer.len() {
        src.read_at(size - trailer.len(), &mut trailer)?;
    }
    if &trailer[12..] != MAGIC {
        return Err(JxcError::Truncated);
    }
    let footer_off = u64::from_le_bytes(trailer[4..12].try_into().unwrap());
    let footer_off = usize::try_from(footer_off).map_err(|_| JxcError::Truncated)?;
    if footer_off < 4 || footer_off > size - 16 {
        return Err(JxcError::Corrupt("footer offset out of range".into()));
    }
    let footer_crc = u32::from_le_bytes(trailer[..4].try_into().unwrap());
    let footer_len = size - 16 - footer_off;
    if src.crc_at(footer_off, footer_len)? != footer_crc {
        return Err(JxcError::Corrupt("footer checksum mismatch".into()));
    }
    let mut footer = vec![0; footer_len];
    src.read_at(footer_off, &mut footer)?;
    let mut cur = Cur {
        bytes: &footer,
        pos: 0,
    };
    let rows = usize::try_from(cur.u64()?).map_err(|_| JxcError::Truncated)?;
    let shown = rows.min(n);
    let ncols = cur.u32()? as usize;
    let mut columns = Vec::with_capacity(ncols.min(1 << 12));
    let mut infos = Vec::with_capacity(ncols.min(1 << 12));
    for _ in 0..ncols {
        let path_len = cur.u16()? as usize;
        let path = std::str::from_utf8(cur.take(path_len)?)
            .map_err(|_| JxcError::Corrupt("non-UTF-8 column path".into()))?
            .to_owned();
        let type_tag = cur.take(1)?[0];
        let enc_tag = cur.take(1)?[0];
        let enc = Encoding::from_tag(enc_tag)
            .ok_or_else(|| JxcError::Corrupt(format!("unknown encoding tag {enc_tag}")))?;
        let block_off = usize::try_from(cur.u64()?).map_err(|_| JxcError::Truncated)?;
        let block_len = usize::try_from(cur.u64()?).map_err(|_| JxcError::Truncated)?;
        let valid_count = usize::try_from(cur.u64()?).map_err(|_| JxcError::Truncated)?;
        let block_crc = cur.u32()?;
        if valid_count > rows {
            return Err(JxcError::Corrupt(format!(
                "column {path} claims more valid cells than rows"
            )));
        }
        if !block_off
            .checked_add(block_len)
            .is_some_and(|end| end <= footer_off && block_off >= 4)
        {
            return Err(JxcError::Corrupt(format!(
                "column block of {path} out of range"
            )));
        }
        let bytes = src.block(block_off, block_len, block_crc, &path)?;
        let block = read_block(bytes, rows, valid_count, type_tag, enc, &path)?;
        let column = block.column(&path, shown)?;
        infos.push(JxcColumnInfo {
            path,
            type_name: column.data.type_name(),
            encoding: enc,
            block_bytes: block_len,
            valid_count,
            dict_len: block.dict_len(),
            list_items: block.list_items(),
        });
        columns.push(column);
    }
    Ok(JxcFile {
        batch: ColumnarBatch {
            columns,
            rows: shown,
        },
        columns: infos,
        rows,
    })
}

/// How many bytes [`FileBlocks`] asks the file for at least, so that
/// small blocks cost one read between them.
const WINDOW: usize = 256 << 10;

/// A `.jxc` file on disk, read in pieces: the magic, the trailer and the
/// footer exactly, the column blocks through one buffer reused from
/// block to block. A block the buffer does not hold yet is read with the
/// blocks after it, `window` bytes in all or the block if it is longer,
/// so the buffer grows to the larger of the two and is zero-filled only
/// when it grows.
struct FileBlocks<'p> {
    file: File,
    path: &'p Path,
    size: usize,
    window: usize,
    buf: Vec<u8>,
    /// The file offset of `buf[0]`, and how many bytes from there `buf`
    /// holds.
    at: usize,
    held: usize,
}

/// An I/O error reading `path`, as the reader reports it.
fn io_error(path: &Path, e: io::Error) -> JxcError {
    JxcError::Io(format!("{}: {e}", path.display()))
}

/// Fills `out` with `file`'s bytes from `off` on.
fn read_exact_at(mut file: &File, off: usize, out: &mut [u8]) -> io::Result<()> {
    file.seek(SeekFrom::Start(off as u64))?;
    file.read_exact(out)
}

impl Source for FileBlocks<'_> {
    fn size(&self) -> usize {
        self.size
    }

    fn read_at(&mut self, off: usize, out: &mut [u8]) -> Result<(), JxcError> {
        read_exact_at(&self.file, off, out).map_err(|e| io_error(self.path, e))
    }

    fn crc_at(&mut self, off: usize, len: usize) -> Result<u32, JxcError> {
        let mut state = 0xFFFF_FFFF;
        let mut at = off;
        while at < off + len {
            let piece = (off + len - at).min(self.window);
            if self.buf.len() < piece {
                self.buf.resize(piece, 0);
            }
            read_exact_at(&self.file, at, &mut self.buf[..piece])
                .map_err(|e| io_error(self.path, e))?;
            state = crc32_update(state, &self.buf[..piece]);
            at += piece;
        }
        // The buffer no longer holds the bytes from `self.at` on.
        self.held = 0;
        Ok(state ^ 0xFFFF_FFFF)
    }

    fn block(&mut self, off: usize, len: usize, crc: u32, path: &str) -> Result<&[u8], JxcError> {
        if off < self.at || off + len > self.at + self.held {
            let want = len.max(self.window).min(self.size - off);
            if self.buf.len() < want {
                self.buf.resize(want, 0);
            }
            read_exact_at(&self.file, off, &mut self.buf[..want])
                .map_err(|e| io_error(self.path, e))?;
            (self.at, self.held) = (off, want);
        }
        checksummed(&self.buf[off - self.at..][..len], crc, path)
    }
}

/// Reads a `.jxc` file from disk: [`read_jxc_file_head`] of every row.
pub fn read_jxc_file(path: &Path) -> Result<JxcFile, JxcError> {
    read_jxc_file_head(path, usize::MAX)
}

/// Reads a `.jxc` file from disk, decoding its first `n` rows: the
/// [`JxcFile`] or the [`JxcError`] that [`read_jxc_head`] gives for the
/// file's bytes.
///
/// A regular file is read one column block at a time, through one buffer
/// reused from block to block, so the reader holds at most the largest
/// block (or 256 KiB of small ones), the footer and the `n` rows — a file
/// larger than memory reads too. Anything else — a pipe, `/dev/stdin` on
/// one — cannot seek, and is read whole and decoded in memory.
pub fn read_jxc_file_head(path: &Path, n: usize) -> Result<JxcFile, JxcError> {
    read_file_head(path, n, WINDOW)
}

/// [`read_jxc_file_head`], reading blocks `window` bytes at a time.
fn read_file_head(path: &Path, n: usize, window: usize) -> Result<JxcFile, JxcError> {
    let io = |e| io_error(path, e);
    let mut file = File::open(path).map_err(io)?;
    let meta = file.metadata().map_err(io)?;
    if !meta.is_file() {
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io)?;
        return read_jxc_head(&bytes, n);
    }
    let size = usize::try_from(meta.len()).map_err(|_| {
        io(io::Error::new(
            io::ErrorKind::FileTooLarge,
            "file too large",
        ))
    })?;
    let mut blocks = FileBlocks {
        file,
        path,
        size,
        window,
        buf: Vec::new(),
        at: 0,
        held: 0,
    };
    decode(&mut blocks, n)
}

// ---------------------------------------------------------------------------
// Row reconstruction (jsonx cat)
// ---------------------------------------------------------------------------

/// The value of one cell for display: scalars as themselves, JSON spill
/// text parsed back into a value (raw text as a string if it somehow
/// does not parse).
fn cell_value(data: &ColumnData, dense: usize) -> Value {
    match data {
        ColumnData::Bools(v) => Value::Bool(v.get(dense)),
        ColumnData::Ints(v) => Value::Num(Number::Int(v[dense])),
        ColumnData::Floats(v) => Number::from_f64(v[dense])
            .map(Value::Num)
            .unwrap_or(Value::Null),
        ColumnData::Strs(v) => Value::Str(v.get(dense).to_owned()),
        ColumnData::Json(v) => {
            let text = v.get(dense);
            jsonx_syntax::parse(text).unwrap_or_else(|_| Value::Str(text.to_owned()))
        }
    }
}

/// Reconstructs the first `limit` rows as flat JSON objects (dotted
/// paths as keys, absent cells omitted) — the inverse view of shredding,
/// for `jsonx cat`.
pub fn rows_as_values(batch: &ColumnarBatch, limit: usize) -> Vec<Value> {
    let n = batch.rows.min(limit);
    let mut dense = vec![0usize; batch.columns.len()];
    let mut out = Vec::with_capacity(n);
    for row in 0..n {
        let mut obj = Object::new();
        for (c, col) in batch.columns.iter().enumerate() {
            if col.validity.get(row) {
                obj.insert(col.path.clone(), cell_value(&col.data, dense[c]));
                dense[c] += 1;
            }
        }
        out.push(Value::Obj(obj));
    }
    out
}

/// Cross-join flattening of list columns, the semantics `jsonx cat
/// --flatten` exposes: each row expands into the cartesian product of
/// its list-encoded columns' elements (an empty or absent list
/// contributes a single null), with every scalar column repeated per
/// combination — the classic nested-to-flat-rows unnest.
///
/// Only columns the file stored list-encoded ([`Encoding::ListInt`] /
/// [`Encoding::ListStr`]) flatten; opaque JSON spill stays embedded.
/// Returns the first `limit` flattened rows.
pub fn flatten_rows(file: &JxcFile, limit: usize) -> Vec<Value> {
    let list_cols: Vec<usize> = file
        .columns
        .iter()
        .enumerate()
        .filter(|(_, info)| matches!(info.encoding, Encoding::ListInt | Encoding::ListStr))
        .map(|(i, _)| i)
        .collect();
    let batch = &file.batch;
    let mut dense = vec![0usize; batch.columns.len()];
    let mut out = Vec::new();
    for row in 0..batch.rows {
        // Base object of non-list cells, plus each list column's variants.
        let mut base = Object::new();
        let mut variants: Vec<(String, Vec<Value>)> = Vec::with_capacity(list_cols.len());
        for (c, col) in batch.columns.iter().enumerate() {
            let valid = col.validity.get(row);
            let value = valid.then(|| cell_value(&col.data, dense[c]));
            if valid {
                dense[c] += 1;
            }
            if list_cols.contains(&c) {
                let elems = match value {
                    Some(Value::Arr(items)) if !items.is_empty() => items,
                    _ => vec![Value::Null],
                };
                variants.push((col.path.clone(), elems));
            } else if let Some(v) = value {
                base.insert(col.path.clone(), v);
            }
        }
        // Cartesian product over the list columns' elements.
        let mut idx = vec![0usize; variants.len()];
        loop {
            if out.len() >= limit {
                return out;
            }
            let mut obj = base.clone();
            for (slot, (path, elems)) in idx.iter().zip(&variants) {
                obj.insert(path.clone(), elems[*slot].clone());
            }
            out.push(Value::Obj(obj));
            // Odometer increment; done when it wraps (or there are no
            // list columns at all — one combination per row).
            let mut carry = true;
            for (slot, (_, elems)) in idx.iter_mut().zip(&variants).rev() {
                *slot += 1;
                if *slot < elems.len() {
                    carry = false;
                    break;
                }
                *slot = 0;
            }
            if carry {
                break;
            }
        }
    }
    out
}

/// Writes the text `to_string` gives [`cell_value`] of the cell: the
/// same rules, with no value built for a scalar, a list cell of a
/// `listed` (list-encoded) column, or a spill text `spill` can write
/// from its events.
fn write_cell(
    data: &ColumnData,
    dense: usize,
    listed: bool,
    spill: &mut SpillText,
    out: &mut String,
) {
    match data {
        ColumnData::Bools(v) => out.push_str(if v.get(dense) { "true" } else { "false" }),
        ColumnData::Ints(v) => {
            write!(out, "{}", Number::Int(v[dense])).expect("writing to a String")
        }
        ColumnData::Floats(v) => match Number::from_f64(v[dense]) {
            Some(n) => write!(out, "{n}").expect("writing to a String"),
            None => out.push_str("null"),
        },
        ColumnData::Strs(v) => write_escaped(v.get(dense), out),
        // The reader rebuilt a list column's text with the serializer's
        // escaper and integer format: it is what parsing and serializing
        // it again would print.
        ColumnData::Json(v) if listed => out.push_str(v.get(dense)),
        // A stored text need not be compact (another writer's), so it is
        // written again from its events; a repeated key keeps its first
        // position with its last value, and a text that does not parse
        // shows as a string: the value's own rules.
        ColumnData::Json(v) => match spill.compact(v.get(dense)) {
            Some(text) => out.push_str(text),
            None => append_compact(out, &cell_value(data, dense)),
        },
    }
}

/// Appends the items of a list cell's text — the reader's rebuild of a
/// [`Encoding::ListInt`] or [`Encoding::ListStr`] cell: integers or
/// escaped string literals, comma-separated in brackets.
fn push_list_items<'t>(text: &'t str, items: &mut Vec<&'t str>) {
    let inner = &text[1..text.len() - 1];
    if inner.is_empty() {
        return;
    }
    let (mut start, mut quoted, mut escaped) = (0, false, false);
    for (i, b) in inner.bytes().enumerate() {
        if escaped {
            escaped = false;
        } else if quoted {
            escaped = b == b'\\';
            quoted = b != b'"';
        } else if b == b'"' {
            quoted = true;
        } else if b == b',' {
            items.push(&inner[start..i]);
            start = i + 1;
        }
    }
    items.push(&inner[start..]);
}

/// Appends `"key":` to a row's text, after a comma unless the row holds
/// only its `{`.
fn push_key(text: &mut String, key: &str) {
    if text.len() > 1 {
        text.push(',');
    }
    text.push_str(key);
}

/// Renders the rows `jsonx cat` prints — [`rows_as_values`] of the
/// file's batch, or [`flatten_rows`] of the file when `flatten`, cut to
/// `limit` — each as the text `to_string` gives that row's value, with
/// no value built: every cell is written from its column into one line
/// buffer, under each column's `"path":` escaped once.
///
/// `line` is handed each row's text in order and returns whether to go
/// on; once it says stop, the remaining rows are counted, not handed
/// over. Returns the number of rows — the length of the `Vec` the DOM
/// route returns.
///
/// A file whose column paths repeat takes the DOM route: a row object
/// keeps the first position of a repeated key with its last value. The
/// writer names each path once, but files it wrote before the layout
/// gave a literal dotted key and the nested path it spells one column,
/// and files from other writers, may repeat one, and the reader does
/// not refuse them.
pub fn render_rows<E>(
    file: &JxcFile,
    limit: usize,
    flatten: bool,
    mut line: impl FnMut(&str) -> Result<bool, E>,
) -> Result<usize, E> {
    let batch = &file.batch;
    let mut paths = HashSet::with_capacity(batch.columns.len());
    if !batch
        .columns
        .iter()
        .all(|col| paths.insert(col.path.as_str()))
    {
        let rows = if flatten {
            flatten_rows(file, limit)
        } else {
            rows_as_values(batch, limit)
        };
        for row in &rows {
            if !line(&to_string(row))? {
                break;
            }
        }
        return Ok(rows.len());
    }
    let keys: Vec<String> = batch
        .columns
        .iter()
        .map(|col| {
            let mut key = String::new();
            write_escaped(&col.path, &mut key);
            key.push(':');
            key
        })
        .collect();
    let listed: Vec<bool> = file
        .columns
        .iter()
        .map(|info| matches!(info.encoding, Encoding::ListInt | Encoding::ListStr))
        .collect();
    let mut dense = vec![0usize; batch.columns.len()];
    let mut text = String::new();
    let mut spill = SpillText::default();
    // Each list column's items, and its span of them.
    let mut items: Vec<&str> = Vec::new();
    let mut lists: Vec<(usize, usize, usize)> = Vec::new();
    let mut odometer: Vec<usize> = Vec::new();
    let (mut shown, mut open) = (0, true);
    for row in 0..batch.rows {
        text.clear();
        text.push('{');
        items.clear();
        lists.clear();
        for (c, col) in batch.columns.iter().enumerate() {
            let valid = col.validity.get(row);
            if flatten && listed[c] {
                let ColumnData::Json(texts) = &col.data else {
                    unreachable!("a list-encoded column reads back as JSON text")
                };
                let start = items.len();
                if valid {
                    push_list_items(texts.get(dense[c]), &mut items);
                }
                if items.len() == start {
                    items.push("null");
                }
                lists.push((c, start, items.len()));
            } else if valid && open {
                push_key(&mut text, &keys[c]);
                write_cell(&col.data, dense[c], listed[c], &mut spill, &mut text);
            }
            if valid {
                dense[c] += 1;
            }
        }
        // The base cells stay; each combination of list items follows
        // them — the key order `flatten_rows` inserts in.
        let base = text.len();
        odometer.clear();
        odometer.resize(lists.len(), 0);
        loop {
            if shown >= limit {
                return Ok(shown);
            }
            if open {
                text.truncate(base);
                for (&(c, start, _), slot) in lists.iter().zip(&odometer) {
                    push_key(&mut text, &keys[c]);
                    text.push_str(items[start + slot]);
                }
                text.push('}');
                open = line(&text)?;
            }
            shown += 1;
            // Odometer increment; done when it wraps (or there are no
            // list columns at all — one combination per row).
            let mut carry = true;
            for (slot, &(_, start, end)) in odometer.iter_mut().zip(&lists).rev() {
                *slot += 1;
                if start + *slot < end {
                    carry = false;
                    break;
                }
                *slot = 0;
            }
            if carry {
                break;
            }
        }
    }
    Ok(shown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::Shredder;
    use jsonx_core::{infer_collection, Equivalence};
    use jsonx_syntax::parse_ndjson;

    fn shred(ndjson: &str) -> ColumnarBatch {
        let docs = parse_ndjson(ndjson).unwrap();
        let ty = infer_collection(&docs, Equivalence::Kind);
        Shredder::from_type(&ty).shred(&docs).unwrap()
    }

    fn round_trip(batch: &ColumnarBatch) -> JxcFile {
        let bytes = write_jxc(batch);
        let file = read_jxc(&bytes).expect("read back");
        assert_eq!(&file.batch, batch);
        file
    }

    #[test]
    fn scalar_columns_round_trip() {
        let batch = shred(concat!(
            "{\"id\": 1, \"name\": \"ada\", \"score\": 9.5, \"ok\": true}\n",
            "{\"id\": 2, \"name\": \"bob\", \"score\": -0.5, \"ok\": false}\n",
            "{\"id\": 3, \"name\": \"ada\"}\n",
        ));
        let file = round_trip(&batch);
        let by_path: std::collections::HashMap<&str, &JxcColumnInfo> =
            file.columns.iter().map(|i| (i.path.as_str(), i)).collect();
        assert_eq!(by_path["id"].encoding, Encoding::Plain);
        assert_eq!(by_path["name"].encoding, Encoding::Dict);
        assert_eq!(by_path["name"].dict_len, Some(2), "ada deduplicates");
        assert_eq!(by_path["score"].valid_count, 2);
    }

    #[test]
    fn int_lists_get_offset_arrays() {
        let batch = shred("{\"xs\": [1, 2, 3]}\n{\"xs\": []}\n{\"xs\": [-7]}\n");
        let file = round_trip(&batch);
        assert_eq!(file.columns[0].encoding, Encoding::ListInt);
        assert_eq!(file.columns[0].list_items, Some(4));
    }

    #[test]
    fn string_lists_get_offsets_plus_dict() {
        let batch = shred("{\"tags\": [\"a\", \"b\"]}\n{\"tags\": [\"b\"]}\n");
        let file = round_trip(&batch);
        assert_eq!(file.columns[0].encoding, Encoding::ListStr);
        assert_eq!(file.columns[0].dict_len, Some(2));
        assert_eq!(file.columns[0].list_items, Some(3));
    }

    #[test]
    fn mixed_spill_falls_back_to_text_dict() {
        let batch = shred("{\"v\": [1, \"x\"]}\n{\"v\": {\"k\": 1}}\n");
        let file = round_trip(&batch);
        assert_eq!(file.columns[0].encoding, Encoding::Dict);
    }

    #[test]
    fn non_canonical_list_text_is_not_list_encoded() {
        // Spacing differs from the compact serializer: byte equality
        // fails, so the column must stay opaque text to round-trip.
        let batch = ColumnarBatch {
            columns: vec![Column {
                path: "v".into(),
                data: ColumnData::Json(StrArena::from_iter(["[1,  2]"])),
                validity: Bitmap::from_iter([true]),
            }],
            rows: 1,
        };
        let file = round_trip(&batch);
        assert_eq!(file.columns[0].encoding, Encoding::Dict);
    }

    #[test]
    fn nulls_and_missing_cells_round_trip() {
        let batch = shred("{\"a\": 1}\n{\"b\": \"x\"}\n{\"a\": null, \"b\": \"y\"}\n");
        round_trip(&batch);
    }

    #[test]
    fn empty_batch_round_trips() {
        let batch = shred("");
        round_trip(&batch);
    }

    #[test]
    fn corrupt_files_are_rejected_not_panicked() {
        let batch = shred("{\"id\": 1, \"tags\": [\"a\"]}\n");
        let good = write_jxc(&batch);
        assert_eq!(read_jxc(b"nope"), Err(JxcError::BadMagic));
        assert_eq!(read_jxc(b"XXXX0123456789AB"), Err(JxcError::BadMagic));
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(read_jxc(&bad), Err(JxcError::BadMagic));
        for cut in [good.len() - 1, good.len() - 9, 10] {
            assert!(read_jxc(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// `bytes` with the footer's column entries in reverse order, the
    /// footer checksum made again: the blocks are read back to front.
    fn footer_reversed(bytes: &[u8]) -> Vec<u8> {
        let len = bytes.len();
        let footer = u64::from_le_bytes(bytes[len - 12..len - 4].try_into().unwrap()) as usize;
        let mut entries = Vec::new();
        let mut at = footer + 12;
        while at < len - 16 {
            let path_len = u16::from_le_bytes([bytes[at], bytes[at + 1]]) as usize;
            let end = at + 2 + path_len + 2 + 28;
            entries.push(&bytes[at..end]);
            at = end;
        }
        let mut out = bytes[..footer + 12].to_vec();
        for entry in entries.iter().rev() {
            out.extend_from_slice(entry);
        }
        let crc = crc32(&out[footer..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&bytes[len - 12..]);
        out
    }

    /// The file route reads what the slice route reads however its window
    /// cuts the blocks — one byte at a time, a few blocks at a time, all
    /// of them — and in whatever order the footer lists them.
    #[test]
    fn every_window_reads_a_file_as_the_slice() {
        let batch = shred(
            "{\"id\": 1, \"name\": \"ada\", \"xs\": [1, 2], \"tags\": [\"a\"], \"ok\": true}\n\
             {\"id\": 2, \"name\": \"bob\", \"xs\": [], \"score\": 1.5}\n\
             {\"id\": 3, \"tags\": [\"b\", \"c\"], \"ok\": false}\n",
        );
        let good = write_jxc(&batch);
        let reversed = footer_reversed(&good);
        let read = read_jxc(&reversed).unwrap();
        let mut want = read_jxc(&good).unwrap();
        want.batch.columns.reverse();
        want.columns.reverse();
        assert_eq!(read, want);
        let large = std::fs::read(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/golden_large.jxc"
        ))
        .unwrap();
        let mut images = vec![good.clone(), reversed, large];
        images.extend((0..good.len()).map(|cut| good[..cut].to_vec()));
        images.extend((4..good.len()).map(|at| {
            let mut bad = good.clone();
            bad[at] ^= 0x10;
            bad
        }));
        let path =
            std::env::temp_dir().join(format!("jsonx-jxc-window-{}.jxc", std::process::id()));
        for bytes in &images {
            std::fs::write(&path, bytes).unwrap();
            for n in [0, 2, usize::MAX] {
                let want = read_jxc_head(bytes, n);
                for window in [1, 7, 64, WINDOW] {
                    assert_eq!(
                        read_file_head(&path, n, window),
                        want,
                        "window {window}, n {n}"
                    );
                }
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_is_distinguished_from_corruption() {
        let batch = shred("{\"id\": 1, \"name\": \"ada\"}\n{\"id\": 2}\n");
        let good = write_jxc(&batch);
        // Any prefix that keeps the leading magic but loses the finalize
        // marker reads as Truncated — the crash-mid-write shape.
        for cut in [4, 5, good.len() / 2, good.len() - 1] {
            assert_eq!(
                read_jxc(&good[..cut]),
                Err(JxcError::Truncated),
                "cut at {cut}"
            );
        }
        // A complete file with a flipped bit in a column block or the
        // footer reads as Corrupt — checksums catch what structural
        // validation alone would miss.
        for pos in [6, good.len() - 20] {
            let mut bad = good.clone();
            bad[pos] ^= 0x01;
            assert!(
                matches!(read_jxc(&bad), Err(JxcError::Corrupt(_))),
                "flip at {pos}: {:?}",
                read_jxc(&bad)
            );
        }
    }

    #[test]
    fn a_count_past_a_u32_field_is_an_error_naming_the_column() {
        let max = u32::MAX as usize;
        assert_eq!(cap(max, "values", "a.b").unwrap(), u32::MAX);
        let err = cap(max + 1, "values", "a.b").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(
            err.to_string(),
            ".jxc writer: column a.b: values (4294967296) exceed u32::MAX"
        );
    }

    /// The dictionary encoder before entries were built in place: a
    /// table sized from the value count, entries as `(part, index)`
    /// pairs into the arenas, the entries written after the last value.
    fn put_dict_by_index(arenas: &[&StrArena], seed: u64, out: &mut Vec<u8>) {
        let values: usize = arenas.iter().map(|arena| arena.len()).sum();
        let mask = (values * 2).next_power_of_two().max(16) - 1;
        let mut slots = vec![0u64; mask + 1];
        let mut entries: Vec<(u32, u32)> = Vec::new();
        let mut codes = Vec::new();
        for (part, arena) in arenas.iter().enumerate() {
            for (index, value) in arena.iter().enumerate() {
                let hash = hash_str(seed, value);
                let tag = hash & !0xFFFF_FFFF;
                let mut at = hash as usize & mask;
                let code = loop {
                    let slot = slots[at];
                    if slot == 0 {
                        entries.push((part as u32, index as u32));
                        slots[at] = tag | entries.len() as u64;
                        break entries.len() as u32 - 1;
                    }
                    let code = (slot & 0xFFFF_FFFF) as u32 - 1;
                    if slot & !0xFFFF_FFFF == tag {
                        let (p, i) = entries[code as usize];
                        if arenas[p as usize].get(i as usize) == value {
                            break code;
                        }
                    }
                    at = (at + 1) & mask;
                };
                codes.push(code);
            }
        }
        put_u32(out, entries.len() as u32);
        for &(part, index) in &entries {
            let entry = arenas[part as usize].get(index as usize);
            put_u32(out, entry.len() as u32);
            out.extend_from_slice(entry.as_bytes());
        }
        put_words(out, &codes, u32::to_le_bytes);
    }

    /// Entries written into the block as they are first seen, probed
    /// there, and re-slotted by their stored hashes as the table doubles
    /// from 16 slots, give the bytes of the `(part, index)` loop — over
    /// parts of uneven sizes (one empty), behind a block prefix, with a
    /// table that grows at least five times, at several seeds.
    #[test]
    fn dictionaries_built_in_place_match_the_part_index_loop() {
        for (round, seed) in [0u64, 1, 0x9E37_79B9_7F4A_7C15, u64::MAX]
            .into_iter()
            .enumerate()
        {
            let mut state = 0x2545_F491_4F6C_DD1D ^ seed;
            let mut next = move |n: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            };
            let distinct = [40, 700, 3000, 20][round];
            let arenas: Vec<StrArena> = [900, 0, 1, 2500, 300]
                .into_iter()
                .map(|len| {
                    let mut arena = StrArena::new();
                    for _ in 0..len {
                        arena.push(&match next(distinct) {
                            0 => String::new(),
                            id if id % 5 == 0 => format!("é-{id}-a-longer-dictionary-entry"),
                            id => format!("v{id}"),
                        });
                    }
                    arena
                })
                .collect();
            let arenas: Vec<&StrArena> = arenas.iter().collect();
            let mut want = b"prefix".to_vec();
            put_dict_by_index(&arenas, seed, &mut want);
            let mut dict = Dict::default();
            for _ in 0..2 {
                // A second run reuses the grown table and buffers.
                let mut got = b"prefix".to_vec();
                put_dict(&arenas, seed, "v", &mut dict, &mut got).unwrap();
                assert_eq!(got, want, "seed {seed:#x}");
            }
            let entries = u32::from_le_bytes(want[6..10].try_into().unwrap()) as usize;
            assert_eq!(dict.entries.len(), entries);
            assert!(dict.slots.len() >= 2 * entries);
            if distinct >= 700 {
                assert!(dict.slots.len() >= 16 << 5, "{} slots", dict.slots.len());
            }
        }
    }

    /// The dictionary reader before it checked a dictionary's UTF-8 in
    /// one pass: entry by entry, each checked on its own.
    fn per_entry_dict<'a>(cur: &mut Cur<'a>) -> Result<Vec<&'a str>, JxcError> {
        let len = cur.u32()? as usize;
        let mut entries = Vec::with_capacity(len.min((cur.bytes.len() - cur.pos) / 4));
        for _ in 0..len {
            let bytes = cur.u32()? as usize;
            let entry = std::str::from_utf8(cur.take(bytes)?)
                .map_err(|_| JxcError::Corrupt("non-UTF-8 dictionary entry".into()))?;
            entries.push(entry);
        }
        Ok(entries)
    }

    /// `dict_len:u32`, then `len:u32 + bytes` per entry, then `tail`.
    fn dict_image(entries: &[&[u8]], tail: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, entries.len() as u32);
        for entry in entries {
            put_u32(&mut out, entry.len() as u32);
            out.extend_from_slice(entry);
        }
        out.extend_from_slice(tail);
        out
    }

    /// `read_dict` and the per-entry reference over `bytes`: the same
    /// entries and cursor position, or the same error.
    fn assert_reads_as_per_entry(bytes: &[u8], what: &str) {
        let mut bulk = Cur { bytes, pos: 0 };
        let mut each = Cur { bytes, pos: 0 };
        let (got, want) = (read_dict(&mut bulk), per_entry_dict(&mut each));
        assert_eq!(got, want, "{what}");
        if want.is_ok() {
            assert_eq!(bulk.pos, each.pos, "{what}");
        }
    }

    /// The one-pass UTF-8 rule reads every dictionary as the per-entry
    /// loop does — clean ones, ones with a length byte of `0x80` or more
    /// (entries of 128 to 300 bytes), invalid UTF-8 in the first, middle
    /// or last entry, an entry ending in a lead byte whose next length
    /// starts with a continuation byte (UTF-8 across the boundary), every
    /// truncation and every single-byte flip.
    #[test]
    fn one_utf8_check_per_dictionary_reads_as_the_per_entry_loop() {
        let long: Vec<Vec<u8>> = [128, 169, 200, 255, 256, 300]
            .into_iter()
            .map(|n| {
                "é".repeat(n / 2)
                    .into_bytes()
                    .into_iter()
                    .chain([b'x'])
                    .take(n)
                    .collect()
            })
            .collect();
        let mut cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty", dict_image(&[], b"")),
            (
                "clean",
                dict_image(&[b"a", b"", "é".as_bytes(), "😀x".as_bytes()], b"tail"),
            ),
            ("bad first", dict_image(&[b"\xFFa", b"b", b"c"], b"")),
            ("bad middle", dict_image(&[b"a", b"b\xC3", b"c"], b"")),
            ("bad last", dict_image(&[b"a", b"b", b"\xED\xA0\x80"], b"")),
            (
                "lead byte, continuation length",
                dict_image(&[b"ab\xC3", &long[1]], b""),
            ),
            ("count past the entries", {
                let mut image = dict_image(&[b"a"], b"");
                image[0] = 2;
                image
            }),
        ];
        let long_refs: Vec<&[u8]> = long.iter().map(Vec::as_slice).collect();
        cases.push(("long entries", dict_image(&long_refs, b"")));
        let mut mixed = long_refs.clone();
        mixed.insert(2, b"short");
        cases.push(("long and short", dict_image(&mixed, b"!")));
        for (what, image) in &cases {
            assert_reads_as_per_entry(image, what);
            for cut in 0..image.len() {
                assert_reads_as_per_entry(&image[..cut], &format!("{what} cut at {cut}"));
            }
            for pos in 0..image.len() {
                for mask in [0x01u8, 0x40, 0x80, 0xFF] {
                    let mut bad = image.clone();
                    bad[pos] ^= mask;
                    assert_reads_as_per_entry(&bad, &format!("{what} flip {mask:#x} at {pos}"));
                }
            }
        }
        // The clean dictionary takes the one-pass route; the long one
        // cannot.
        let clean = &cases[1].1;
        assert!(ascii_prefixed_entries(&mut Cur {
            bytes: clean,
            pos: 0
        })
        .is_some());
        let long = &cases.last().unwrap().1;
        assert!(ascii_prefixed_entries(&mut Cur {
            bytes: long,
            pos: 0
        })
        .is_none());
    }

    #[test]
    fn rows_reconstruct_shredded_records() {
        let batch = shred("{\"id\": 1, \"geo\": {\"lat\": 1.5}}\n{\"id\": 2}\n");
        let rows = rows_as_values(&batch, 10);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].to_json_string(),
            "{\"geo.lat\":1.5,\"id\":1}".to_string()
        );
        assert_eq!(rows[1].to_json_string(), "{\"id\":2}".to_string());
    }

    #[test]
    fn flatten_cross_joins_list_columns() {
        let batch = shred(concat!(
            "{\"id\": 1, \"xs\": [1, 2], \"tags\": [\"a\", \"b\"]}\n",
            "{\"id\": 2, \"xs\": [], \"tags\": [\"c\"]}\n",
        ));
        let file = round_trip(&batch);
        let flat = flatten_rows(&file, 100);
        // Row 1: 2 × 2 combinations; row 2: empty xs → single null × one tag.
        assert_eq!(flat.len(), 5);
        assert_eq!(
            flat[0].to_json_string(),
            "{\"id\":1,\"tags\":\"a\",\"xs\":1}"
        );
        assert_eq!(
            flat[3].to_json_string(),
            "{\"id\":1,\"tags\":\"b\",\"xs\":2}"
        );
        assert_eq!(
            flat[4].to_json_string(),
            "{\"id\":2,\"tags\":\"c\",\"xs\":null}"
        );
    }

    #[test]
    fn a_limit_of_zero_shows_no_rows_flattened_or_not() {
        let batch = shred("{\"id\": 1, \"xs\": [1, 2]}\n{\"id\": 2, \"xs\": [3]}\n");
        let file = round_trip(&batch);
        assert_eq!(file.columns[1].encoding, Encoding::ListInt);
        assert_eq!(flatten_rows(&file, 0), Vec::<Value>::new());
        assert_eq!(rows_as_values(&file.batch, 0), Vec::<Value>::new());
        assert_eq!(flatten_rows(&file, 1).len(), 1);
        assert_eq!(flatten_rows(&file, 3).len(), 3);
    }
}
