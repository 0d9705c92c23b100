//! Word-parallel structural bitmaps and the projecting record scanner —
//! the fast parse path of the workspace (Mison, Li et al. PVLDB 2017;
//! Fad.js, Bonetta & Brantner PVLDB 2017).
//!
//! Two layers live here:
//!
//! 1. [`Bitmaps`] — SWAR structural bitmaps, promoted out of
//!    `jsonx-mison` so the streaming pipeline can use them without a
//!    crate cycle. Each `u64` word covers 64 input bytes, bit *i* of word
//!    *w* describing byte `w*64 + i`: per-character bitmaps by 64-lane
//!    comparison, unescaped-quote detection via backslash-run parity, the
//!    string mask via a prefix-XOR within each word (the software
//!    equivalent of the paper's carry-less multiplication by all-ones)
//!    with a carry bit propagated across words, and structural bitmaps
//!    masked to positions *outside* string literals.
//! 2. [`StructuralScanner`] — a validating skip-scanner over one NDJSON
//!    record. It walks the merged structural bitmap (quotes, colons,
//!    commas, braces, brackets) instead of the bytes, jumps over string
//!    literals quote-to-quote, and extracts the byte spans of the
//!    root-level fields named by a [`FieldSet`] (projection pushdown: the
//!    fields a compiled schema or a shred plan actually consumes).
//!
//! ## The fallback contract
//!
//! The scanner is *conservative*: [`StructuralScanner::scan`] returns
//! `false` — telling the caller to run the full parser — for anything it
//! cannot prove cheap **and** equivalent: malformed structure, `\uXXXX`
//! escapes, exponent/huge numbers (whose overflow rules the lexer owns),
//! nesting past the depth limit, escaped or (when asked) dotted keys at
//! the root. A `true` return guarantees the record parses under
//! [`parse_with`](crate::parse_with) with the same limits, and that the
//! reported spans are exactly the member values the DOM parser would
//! build — so a consumer that only reads the projected fields sees the
//! same bytes either way, and every rejected record is re-parsed by the
//! slow path whose error (kind and offset) is authoritative. The scanner
//! never accepts a record the full parser rejects; the property tests in
//! `tests/parsing_fastpath.rs` pin both directions.

use std::ops::Range;

/// Structural bitmaps for one JSON document.
#[derive(Debug, Clone, Default)]
pub struct Bitmaps {
    /// Input length in bytes.
    pub len: usize,
    /// Unescaped quotes.
    pub quote: Vec<u64>,
    /// `:` outside strings.
    pub colon: Vec<u64>,
    /// `,` outside strings.
    pub comma: Vec<u64>,
    /// `{` outside strings.
    pub lbrace: Vec<u64>,
    /// `}` outside strings.
    pub rbrace: Vec<u64>,
    /// `[` outside strings.
    pub lbracket: Vec<u64>,
    /// `]` outside strings.
    pub rbracket: Vec<u64>,
    /// 1 = byte is inside a string literal (between quotes).
    pub string_mask: Vec<u64>,
    /// Every backslash, escaped or not, inside strings or out.
    pub backslash: Vec<u64>,
    /// Control bytes (`< 0x20`), including whitespace like `\t`.
    pub control: Vec<u64>,
}

/// Prefix XOR within a word: bit i of the result is the XOR of bits 0..=i
/// of the input — the software stand-in for `PCLMULQDQ(m, ~0)`.
#[inline]
fn prefix_xor(m: u64) -> u64 {
    let mut x = m;
    x ^= x << 1;
    x ^= x << 2;
    x ^= x << 4;
    x ^= x << 8;
    x ^= x << 16;
    x ^= x << 32;
    x
}

/// SWAR byte-equality: returns a mask with `0x80` at every byte of
/// `word` equal to `byte` (the classic carry-borrow trick — 8 lanes per
/// operation, the portable stand-in for `_mm256_cmpeq_epi8`).
#[inline]
pub(crate) fn eq_mask(word: u64, byte: u8) -> u64 {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // Exact zero-byte detection: per-byte `(b & 0x7f) + 0x7f` sets bit 7
    // iff the low bits are non-zero and never carries across bytes.
    let x = word ^ (LOW * u64::from(byte));
    let t = (x & LOW7) + LOW7;
    !(t | x) & HIGH
}

/// Compresses an `eq_mask` result into 8 low bits, byte *i* → bit *i*
/// (the portable `movemask`).
#[inline]
fn movemask(m: u64) -> u64 {
    (m >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Builds one character's bitmap word from a 64-byte chunk.
#[inline]
fn chunk_mask(chunk: &[u8; 64], byte: u8) -> u64 {
    let mut out = 0u64;
    for (k, sub) in chunk.chunks_exact(8).enumerate() {
        let w = u64::from_le_bytes(sub.try_into().expect("8-byte subword"));
        out |= movemask(eq_mask(w, byte)) << (k * 8);
    }
    out
}

/// `0x80` at every control byte (`< 0x20`) of `word`: a byte is a control
/// byte iff its top three bits are clear, i.e. `b & 0xE0 == 0`.
#[inline]
pub(crate) fn control_mask(word: u64) -> u64 {
    const TOP3: u64 = 0xE0E0_E0E0_E0E0_E0E0;
    eq_mask(word & TOP3, 0)
}

/// Bitmap word of control bytes (`< 0x20`).
#[inline]
fn chunk_control(chunk: &[u8; 64]) -> u64 {
    let mut out = 0u64;
    for (k, sub) in chunk.chunks_exact(8).enumerate() {
        let w = u64::from_le_bytes(sub.try_into().expect("8-byte subword"));
        out |= movemask(control_mask(w)) << (k * 8);
    }
    out
}

/// Builds all bitmaps for `input` using 64-lane word-parallel scanning.
///
/// The fast path assumes no backslashes in a chunk (overwhelmingly the
/// common case); chunks containing backslashes fall back to the scalar
/// escape-parity scan for their quote bits. [`build_scalar`] is the
/// byte-at-a-time reference implementation the property tests compare
/// against.
pub fn build(input: &[u8]) -> Bitmaps {
    let mut bits = Bitmaps::default();
    bits.build_from(input);
    bits
}

/// Scalar quote-bit extraction for one chunk, tracking backslash-run
/// parity across chunk boundaries.
fn quote_bits_scalar(chunk: &[u8; 64], carry_run_odd: &mut bool) -> u64 {
    let mut q = 0u64;
    let mut run_odd = *carry_run_odd;
    for (i, &b) in chunk.iter().enumerate() {
        match b {
            b'\\' => {
                run_odd = !run_odd;
                continue;
            }
            b'"' if !run_odd => q |= 1 << i,
            _ => {}
        }
        run_odd = false;
    }
    *carry_run_odd = run_odd;
    q
}

/// Byte-at-a-time reference builder (the oracle for the word-parallel
/// fast path; also what the parsing ablation benchmarks against).
pub fn build_scalar(input: &[u8]) -> Bitmaps {
    let words = input.len().div_ceil(64);
    let mut bits = Bitmaps::default();
    bits.reset(input.len(), words);
    let mut backslash_run = 0usize;
    for (i, &b) in input.iter().enumerate() {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        if b < 0x20 {
            bits.control[w] |= bit;
        }
        match b {
            b'\\' => {
                bits.backslash[w] |= bit;
                backslash_run += 1;
                continue;
            }
            b'"' if backslash_run.is_multiple_of(2) => bits.quote[w] |= bit,
            b':' => bits.colon[w] |= bit,
            b',' => bits.comma[w] |= bit,
            b'{' => bits.lbrace[w] |= bit,
            b'}' => bits.rbrace[w] |= bit,
            b'[' => bits.lbracket[w] |= bit,
            b']' => bits.rbracket[w] |= bit,
            _ => {}
        }
        backslash_run = 0;
    }
    bits.finish_masks(words);
    bits
}

impl Bitmaps {
    /// Clears and resizes every bitmap for a `len`-byte input.
    fn reset(&mut self, len: usize, words: usize) {
        self.len = len;
        for v in [
            &mut self.quote,
            &mut self.colon,
            &mut self.comma,
            &mut self.lbrace,
            &mut self.rbrace,
            &mut self.lbracket,
            &mut self.rbracket,
            &mut self.string_mask,
            &mut self.backslash,
            &mut self.control,
        ] {
            v.clear();
            v.resize(words, 0);
        }
    }

    /// String mask from the quote bitmap, then masks structural characters
    /// that sit inside strings.
    fn finish_masks(&mut self, words: usize) {
        // String mask: prefix-XOR per word with cross-word carry. The
        // opening quote's own bit is set in the mask while the closing
        // one is not; neither quote is a structural character, so the
        // off-by-one at the quotes themselves is harmless.
        let mut carry = 0u64; // all-ones when a string spans into this word
        for w in 0..words {
            let m = prefix_xor(self.quote[w]) ^ carry;
            self.string_mask[w] = m;
            // Carry flips when the word holds an odd number of quotes.
            if self.quote[w].count_ones() % 2 == 1 {
                carry = !carry;
            }
        }
        for w in 0..words {
            let outside = !self.string_mask[w];
            self.colon[w] &= outside;
            self.comma[w] &= outside;
            self.lbrace[w] &= outside;
            self.rbrace[w] &= outside;
            self.lbracket[w] &= outside;
            self.rbracket[w] &= outside;
        }
    }

    /// Rebuilds the bitmaps in place for a new input, reusing the word
    /// buffers — the per-record entry point of [`StructuralScanner`].
    pub fn build_from(&mut self, input: &[u8]) {
        let words = input.len().div_ceil(64);
        self.reset(input.len(), words);

        // Parity of the backslash run carried into the current chunk.
        let mut carry_run_odd = false;
        let mut w = 0usize;
        let mut chunks = input.chunks_exact(64);
        for chunk in &mut chunks {
            let chunk: &[u8; 64] = chunk.try_into().expect("exact chunk");
            self.colon[w] = chunk_mask(chunk, b':');
            self.comma[w] = chunk_mask(chunk, b',');
            self.lbrace[w] = chunk_mask(chunk, b'{');
            self.rbrace[w] = chunk_mask(chunk, b'}');
            self.lbracket[w] = chunk_mask(chunk, b'[');
            self.rbracket[w] = chunk_mask(chunk, b']');
            self.control[w] = chunk_control(chunk);
            let bs = chunk_mask(chunk, b'\\');
            self.backslash[w] = bs;
            let mut q = chunk_mask(chunk, b'"');
            if bs == 0 {
                // Fast path: only the first byte can be escaped (by a run
                // ending in the previous chunk).
                if carry_run_odd {
                    q &= !1u64;
                }
                carry_run_odd = false;
            } else {
                // Slow path: scalar escape-parity over this chunk.
                q = quote_bits_scalar(chunk, &mut carry_run_odd);
            }
            self.quote[w] = q;
            w += 1;
        }
        // Tail (< 64 bytes): scalar.
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let base = w * 64;
            let mut run_odd = carry_run_odd;
            for (i, &b) in rem.iter().enumerate() {
                let bit = 1u64 << ((base + i) % 64);
                if b < 0x20 {
                    self.control[w] |= bit;
                }
                match b {
                    b'\\' => {
                        self.backslash[w] |= bit;
                        run_odd = !run_odd;
                        continue;
                    }
                    b'"' if !run_odd => self.quote[w] |= bit,
                    b':' => self.colon[w] |= bit,
                    b',' => self.comma[w] |= bit,
                    b'{' => self.lbrace[w] |= bit,
                    b'}' => self.rbrace[w] |= bit,
                    b'[' => self.lbracket[w] |= bit,
                    b']' => self.rbracket[w] |= bit,
                    _ => {}
                }
                run_odd = false;
            }
        }
        self.finish_masks(words);
    }

    /// Iterates the set-bit positions of one bitmap.
    pub fn positions(bitmap: &[u64]) -> impl Iterator<Item = usize> + '_ {
        bitmap
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| BitIter { word }.map(move |bit| w * 64 + bit))
    }

    /// True when the byte at `pos` lies inside a string literal.
    pub fn in_string(&self, pos: usize) -> bool {
        self.string_mask
            .get(pos / 64)
            .is_some_and(|w| w & (1 << (pos % 64)) != 0)
    }

    /// The OR of every structural bitmap for one word — quotes, colons,
    /// commas, braces, brackets — the merged stream the scanner walks.
    #[inline]
    fn structural_word(&self, w: usize) -> u64 {
        self.quote[w]
            | self.colon[w]
            | self.comma[w]
            | self.lbrace[w]
            | self.rbrace[w]
            | self.lbracket[w]
            | self.rbracket[w]
    }

    #[inline]
    fn bit_at(words: &[u64], pos: usize) -> bool {
        words[pos / 64] & (1 << (pos % 64)) != 0
    }

    /// Whether any bit is set in `range` of one bitmap.
    fn any_in_range(words: &[u64], range: Range<usize>) -> bool {
        if range.start >= range.end {
            return false;
        }
        let (fw, lw) = (range.start / 64, (range.end - 1) / 64);
        for (w, &bits) in words.iter().enumerate().take(lw + 1).skip(fw) {
            let mut word = bits;
            if w == fw {
                word &= !0u64 << (range.start % 64);
            }
            if w == lw {
                let top = (range.end - 1) % 64;
                word &= if top == 63 {
                    !0
                } else {
                    (1u64 << (top + 1)) - 1
                };
            }
            if word != 0 {
                return true;
            }
        }
        false
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(bit)
    }
}

// ---------------------------------------------------------------------------
// Projection: the field set a consumer actually reads
// ---------------------------------------------------------------------------

/// The root-level field names a consumer (compiled schema, shred plan)
/// actually reads — the projection the scanner pushes down. Sorted for
/// binary search; keys compare as raw UTF-8 bytes.
#[derive(Debug, Clone, Default)]
pub struct FieldSet {
    names: Vec<Box<[u8]>>,
}

impl FieldSet {
    /// Builds a set from field names, deduplicating.
    pub fn new<I, S>(names: I) -> FieldSet
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut names: Vec<Box<[u8]>> = names
            .into_iter()
            .map(|n| n.into().into_bytes().into_boxed_slice())
            .collect();
        names.sort();
        names.dedup();
        FieldSet { names }
    }

    /// Whether `key` (raw, escape-free bytes) names a projected field.
    #[inline]
    pub fn contains(&self, key: &[u8]) -> bool {
        self.names.binary_search_by(|n| n.as_ref().cmp(key)).is_ok()
    }

    /// Number of projected fields.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no field is projected (every root field is skipped).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Knobs for one [`StructuralScanner::scan`] call.
#[derive(Debug, Clone, Copy)]
pub struct ScanOptions {
    /// Nesting-depth cap, matching [`ParserOptions`] `max_depth`
    /// (root container = depth 1) — past it the scanner rejects, and the
    /// full parser reports the authoritative `TooDeep`.
    ///
    /// [`ParserOptions`]: crate::ParserOptions
    pub max_depth: usize,
    /// Reject records whose *skipped* root keys contain a `.` — required
    /// when the consumer addresses fields by dotted path (the shred
    /// plan), where a literal dotted root key would alias a nested
    /// column.
    pub reject_dotted_skipped: bool,
}

impl Default for ScanOptions {
    fn default() -> Self {
        ScanOptions {
            max_depth: crate::DEFAULT_MAX_DEPTH,
            reject_dotted_skipped: false,
        }
    }
}

/// One projected root field: the byte span of its (escape-free) key and
/// the tight byte span of its value, in document order. Duplicate keys
/// yield one entry per occurrence, so a last-wins consumer reproduces the
/// DOM parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProjectedField {
    /// Key content (between the quotes).
    pub key: Range<usize>,
    /// Value span, tight (no surrounding whitespace).
    pub value: Range<usize>,
}

/// Remembered shape of one root-field ordinal — the Fad.js speculation:
/// stable collections repeat field order, so the ordinal's key usually
/// matches and the set lookup is replaced by one memcmp. A miss simply
/// re-resolves and updates the hint (verified fallback, never trusted
/// blindly).
#[derive(Debug, Default, Clone)]
struct SpecHint {
    key: Vec<u8>,
    projected: bool,
}

/// Cap on remembered ordinals, bounding speculation memory on records
/// with thousands of fields.
const SPEC_ORDINALS: usize = 256;

/// A reusable validating skip-scanner over single NDJSON records.
///
/// One scanner per worker: the bitmap buffers, container stack, field
/// output, and speculation hints persist across
/// [`scan`](StructuralScanner::scan) calls, so steady-state scanning of
/// uniform records performs no allocation.
#[derive(Debug, Default)]
pub struct StructuralScanner {
    bits: Bitmaps,
    stack: Vec<u8>,
    fields: Vec<ProjectedField>,
    spec: Vec<SpecHint>,
    /// Identity of the [`FieldSet`] the hints were computed against
    /// (buffer address + length); hints are dropped when it changes.
    spec_set: (usize, usize),
}

/// What the walk expects at the next structural position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// A value must start (after `:` or an array comma).
    Value,
    /// A value or the `]` of an empty array.
    ValueOrClose,
    /// A key or the `}` of an empty object.
    KeyOrClose,
    /// A key must start (after an object comma).
    Key,
    /// The `:` between key and value.
    Colon,
    /// `,`, or the close of the current container.
    CommaOrClose,
    /// Root value complete; only whitespace may remain.
    End,
}

/// Monotone cursor over the merged structural bitmap.
struct Structurals<'a> {
    bits: &'a Bitmaps,
    words: usize,
    w: usize,
    word: u64,
}

impl<'a> Structurals<'a> {
    fn new(bits: &'a Bitmaps) -> Self {
        let words = bits.quote.len();
        let word = if words > 0 {
            bits.structural_word(0)
        } else {
            0
        };
        Structurals {
            bits,
            words,
            w: 0,
            word,
        }
    }

    /// Next structural position, consuming it.
    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.word != 0 {
                let bit = self.word.trailing_zeros() as usize;
                self.word &= self.word - 1;
                return Some(self.w * 64 + bit);
            }
            self.w += 1;
            if self.w >= self.words {
                return None;
            }
            self.word = self.bits.structural_word(self.w);
        }
    }
}

impl StructuralScanner {
    /// A fresh scanner with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scans one record. Returns `true` when the record is proven
    /// well-formed under `opts` and the projected root fields (per
    /// `set`) have been collected — readable via
    /// [`fields`](StructuralScanner::fields) until the next scan. Returns
    /// `false` when the caller must fall back to the full parser; the
    /// scanner holds no claim about the record either way.
    pub fn scan(&mut self, input: &[u8], set: &FieldSet, opts: &ScanOptions) -> bool {
        self.fields.clear();
        self.stack.clear();

        // Speculation hints are only valid against the set they were
        // resolved with; a different set invalidates them.
        let set_id = (set.names.as_ptr() as usize, set.names.len());
        if self.spec_set != set_id {
            self.spec.clear();
            self.spec_set = set_id;
        }

        // The fast path only serves object roots: projection is
        // meaningless elsewhere and the slow path owns non-record
        // semantics.
        let first = input
            .iter()
            .position(|b| !matches!(b, b' ' | b'\t' | b'\n' | b'\r'));
        if first.is_none_or(|i| input[i] != b'{') {
            return false;
        }

        self.bits.build_from(input);

        // Whole-line prechecks, word-parallel: control bytes inside
        // strings are always errors; backslashes get one escape-validity
        // pass (`\uXXXX` punts to the full parser, which owns surrogate
        // rules).
        let words = self.bits.quote.len();
        let mut has_backslash = false;
        for w in 0..words {
            if self.bits.control[w] & self.bits.string_mask[w] != 0 {
                return false;
            }
            has_backslash |= self.bits.backslash[w] != 0;
        }
        if has_backslash && !self.escapes_ok(input) {
            return false;
        }

        let bits = std::mem::take(&mut self.bits);
        let ok = self.walk(input, set, opts, &bits);
        self.bits = bits;
        ok
    }

    /// The projected fields of the last successful scan, document order.
    pub fn fields(&self) -> &[ProjectedField] {
        &self.fields
    }

    /// Validates every backslash escape outside of `\u` (which falls
    /// back). Backslashes outside strings are structural errors.
    fn escapes_ok(&self, input: &[u8]) -> bool {
        let mut skip = 0usize;
        for p in Bitmaps::positions(&self.bits.backslash) {
            if p < skip {
                continue;
            }
            if !self.bits.in_string(p) {
                return false;
            }
            // Walk the backslash run; an odd-length run escapes the byte
            // after it.
            let mut q = p;
            while q < input.len() && input[q] == b'\\' {
                q += 1;
            }
            if (q - p) % 2 == 1 {
                match input.get(q) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {}
                    // `\uXXXX`: surrogate-pair rules live in the lexer.
                    _ => return false,
                }
                skip = q + 1;
            } else {
                skip = q;
            }
        }
        true
    }

    /// Resolves whether the root key at `ordinal` is projected, through
    /// the speculation hints.
    #[inline]
    fn key_projected(&mut self, ordinal: usize, key: &[u8], set: &FieldSet) -> bool {
        if let Some(hint) = self.spec.get(ordinal) {
            if hint.key == key {
                return hint.projected;
            }
        }
        let projected = set.contains(key);
        if ordinal < self.spec.len() {
            let hint = &mut self.spec[ordinal];
            hint.key.clear();
            hint.key.extend_from_slice(key);
            hint.projected = projected;
        } else if ordinal < SPEC_ORDINALS {
            self.spec.push(SpecHint {
                key: key.to_vec(),
                projected,
            });
        }
        projected
    }

    /// Records a completed root member (scalar/string span or container
    /// close) when the active key is projected. Only meaningful at stack
    /// depth 1, i.e. direct members of the root object.
    #[inline]
    fn member_done(&mut self, value: Range<usize>, cur_key: &Range<usize>, cur_projected: bool) {
        if self.stack.len() == 1 && cur_projected {
            self.fields.push(ProjectedField {
                key: cur_key.clone(),
                value,
            });
        }
    }

    /// The structural walk: token positions come from the merged bitmap,
    /// gaps between them are validated as whitespace or one scalar,
    /// strings are jumped quote-to-quote, and depth is tracked on the
    /// container stack.
    fn walk(&mut self, input: &[u8], set: &FieldSet, opts: &ScanOptions, bits: &Bitmaps) -> bool {
        let len = input.len();
        let mut st = Structurals::new(bits);
        let mut pos = 0usize;
        let mut expect = Expect::Value;
        let mut ordinal = 0usize;
        // Root-member bookkeeping, meaningful only at stack depth 1.
        let mut cur_key: Range<usize> = 0..0;
        let mut cur_projected = false;
        let mut vstart = 0usize;

        loop {
            let s = st.next();
            let gap_end = s.unwrap_or(len);
            let gap = &input[pos..gap_end];

            // The gap may hold one scalar token where a value is
            // expected; anywhere else it must be pure whitespace.
            match expect {
                Expect::Value | Expect::ValueOrClose => {
                    let (ts, te) = trim_ws(gap, pos);
                    if ts < te {
                        if !valid_scalar(&input[ts..te]) {
                            return false;
                        }
                        self.member_done(ts..te, &cur_key, cur_projected);
                        expect = Expect::CommaOrClose;
                    }
                }
                _ => {
                    if !all_ws(gap) {
                        return false;
                    }
                }
            }

            let Some(s) = s else {
                // Input exhausted: accept iff the root object closed (the
                // trailing gap was whitespace-checked above).
                return expect == Expect::End && self.stack.is_empty();
            };

            match (expect, input[s]) {
                (Expect::Value | Expect::ValueOrClose, b'"') => {
                    // String value: jump to the closing quote — interior
                    // bytes were cleared by prechecks + string masking.
                    let Some(close) = st.next() else { return false };
                    if !Bitmaps::bit_at(&bits.quote, close) {
                        return false;
                    }
                    self.member_done(s..close + 1, &cur_key, cur_projected);
                    expect = Expect::CommaOrClose;
                    pos = close + 1;
                    continue;
                }
                (Expect::Value | Expect::ValueOrClose, b'{') => {
                    if self.stack.len() == 1 {
                        vstart = s;
                    }
                    if self.stack.len() + 1 > opts.max_depth {
                        return false;
                    }
                    self.stack.push(b'{');
                    expect = Expect::KeyOrClose;
                }
                (Expect::Value | Expect::ValueOrClose, b'[') => {
                    if self.stack.len() == 1 {
                        vstart = s;
                    }
                    if self.stack.len() + 1 > opts.max_depth {
                        return false;
                    }
                    self.stack.push(b'[');
                    expect = Expect::ValueOrClose;
                }
                (Expect::ValueOrClose | Expect::CommaOrClose, b']') => {
                    if self.stack.pop() != Some(b'[') {
                        return false;
                    }
                    self.member_done(vstart..s + 1, &cur_key, cur_projected);
                    expect = if self.stack.is_empty() {
                        Expect::End
                    } else {
                        Expect::CommaOrClose
                    };
                }
                (Expect::KeyOrClose | Expect::CommaOrClose, b'}') => {
                    if self.stack.pop() != Some(b'{') {
                        return false;
                    }
                    self.member_done(vstart..s + 1, &cur_key, cur_projected);
                    expect = if self.stack.is_empty() {
                        Expect::End
                    } else {
                        Expect::CommaOrClose
                    };
                }
                (Expect::KeyOrClose | Expect::Key, b'"') => {
                    let Some(close) = st.next() else { return false };
                    if !Bitmaps::bit_at(&bits.quote, close) {
                        return false;
                    }
                    if self.stack.len() == 1 {
                        let key = s + 1..close;
                        // Escaped root keys would need unescaping before
                        // set membership — fall back.
                        if Bitmaps::any_in_range(&bits.backslash, key.clone()) {
                            return false;
                        }
                        cur_projected = self.key_projected(ordinal, &input[key.clone()], set);
                        ordinal += 1;
                        if !cur_projected
                            && opts.reject_dotted_skipped
                            && input[key.clone()].contains(&b'.')
                        {
                            return false;
                        }
                        cur_key = key;
                    }
                    expect = Expect::Colon;
                    pos = close + 1;
                    continue;
                }
                (Expect::Colon, b':') => {
                    expect = Expect::Value;
                }
                (Expect::CommaOrClose, b',') => {
                    expect = match self.stack.last() {
                        Some(b'{') => Expect::Key,
                        Some(b'[') => Expect::Value,
                        _ => return false,
                    };
                }
                _ => return false,
            }
            pos = s + 1;
        }
    }
}

/// Trims JSON whitespace from a gap, returning absolute token bounds.
#[inline]
fn trim_ws(gap: &[u8], base: usize) -> (usize, usize) {
    let mut start = 0;
    let mut end = gap.len();
    while start < end && matches!(gap[start], b' ' | b'\t' | b'\n' | b'\r') {
        start += 1;
    }
    while end > start && matches!(gap[end - 1], b' ' | b'\t' | b'\n' | b'\r') {
        end -= 1;
    }
    (base + start, base + end)
}

/// Whether a gap is all JSON whitespace.
#[inline]
fn all_ws(gap: &[u8]) -> bool {
    gap.iter()
        .all(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
}

/// Validates a scalar token against the subset of the number/keyword
/// grammar the scanner can prove without the lexer's overflow rules:
/// keywords, and numbers with no exponent and at most 17 integer digits
/// (finite in f64 by construction). Everything else falls back.
fn valid_scalar(tok: &[u8]) -> bool {
    match tok {
        b"true" | b"false" | b"null" => return true,
        _ => {}
    }
    let mut i = 0;
    if tok.first() == Some(&b'-') {
        i = 1;
    }
    let int_start = i;
    match tok.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            while i < tok.len() && tok[i].is_ascii_digit() {
                i += 1;
            }
            if i - int_start > 17 {
                return false;
            }
        }
        _ => return false,
    }
    if i == tok.len() {
        return true;
    }
    if tok[i] != b'.' {
        return false; // exponents (and junk) fall back to the lexer
    }
    i += 1;
    let frac_start = i;
    while i < tok.len() && tok[i].is_ascii_digit() {
        i += 1;
    }
    i > frac_start && i == tok.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_with, ParserOptions};

    fn colon_positions(s: &str) -> Vec<usize> {
        let b = build(s.as_bytes());
        Bitmaps::positions(&b.colon).collect()
    }

    #[test]
    fn prefix_xor_basics() {
        assert_eq!(prefix_xor(0), 0);
        // Single bit at 0 → all bits from 0 upward set.
        assert_eq!(prefix_xor(1), u64::MAX);
        // Bits at 1 and 3 → mask covers bits 1 and 2 (the [1,3) span).
        assert_eq!(prefix_xor(0b1010), 0b0110);
    }

    #[test]
    fn structural_positions() {
        let s = r#"{"a": 1, "b": [2, 3]}"#;
        assert_eq!(colon_positions(s), vec![4, 12]);
        let b = build(s.as_bytes());
        assert_eq!(
            Bitmaps::positions(&b.comma).collect::<Vec<_>>(),
            vec![7, 16]
        );
        assert_eq!(Bitmaps::positions(&b.lbrace).collect::<Vec<_>>(), vec![0]);
        assert_eq!(
            Bitmaps::positions(&b.lbracket).collect::<Vec<_>>(),
            vec![14]
        );
    }

    #[test]
    fn colons_inside_strings_are_masked() {
        let s = r#"{"time": "12:30:00", "x": 1}"#;
        // Only the two key colons survive.
        assert_eq!(colon_positions(s).len(), 2);
    }

    #[test]
    fn escaped_quotes_do_not_toggle_strings() {
        let s = r#"{"k\"ey": "va\\\"l:ue", "x": 1}"#;
        // The only structural colons are after "k\"ey" and "x".
        let cols = colon_positions(s);
        assert_eq!(cols.len(), 2);
        // Braces inside the values stay masked.
        let b = build(s.as_bytes());
        assert_eq!(Bitmaps::positions(&b.lbrace).count(), 1);
    }

    #[test]
    fn escaped_backslash_before_quote() {
        // "b\\" — the quote after two backslashes IS a real closing quote.
        let s = r#"{"a": "b\\", "c": 1}"#;
        assert_eq!(colon_positions(s).len(), 2);
    }

    #[test]
    fn string_mask_spans_words() {
        // A string longer than 64 bytes must keep the mask set across the
        // word boundary.
        let long = format!(r#"{{"k": "{}", "x": 1}}"#, "a:".repeat(64));
        let cols = colon_positions(&long);
        assert_eq!(
            cols.len(),
            2,
            "colons inside the long string must be masked"
        );
    }

    #[test]
    fn in_string_probe() {
        let s = r#"{"a": "x:y"}"#;
        let b = build(s.as_bytes());
        let colon_in_string = s.find(":y").unwrap();
        assert!(b.in_string(colon_in_string));
        assert!(!b.in_string(4)); // the structural colon
    }

    #[test]
    fn swar_primitives() {
        let word = u64::from_le_bytes(*b"a:b::cd\"");
        let m = eq_mask(word, b':');
        assert_eq!(movemask(m), 0b0011010);
        assert_eq!(movemask(eq_mask(word, b'"')), 0b10000000);
        assert_eq!(movemask(eq_mask(word, b'x')), 0);
    }

    #[test]
    fn control_and_backslash_bitmaps() {
        let s = "{\"a\": \"b\\n\", \"t\": 1}\t";
        let b = build(s.as_bytes());
        let bs: Vec<usize> = Bitmaps::positions(&b.backslash).collect();
        assert_eq!(bs, vec![s.find('\\').unwrap()]);
        let ctl: Vec<usize> = Bitmaps::positions(&b.control).collect();
        assert_eq!(ctl, vec![s.len() - 1]); // the trailing tab
        let raw = "{\"a\": \"x\u{1}y\"}";
        let b = build(raw.as_bytes());
        let ctl: Vec<usize> = Bitmaps::positions(&b.control).collect();
        assert_eq!(ctl, vec![raw.find('\u{1}').unwrap()]);
        assert!(b.in_string(ctl[0]));
    }

    #[test]
    fn word_parallel_matches_scalar_reference() {
        let samples: Vec<String> = vec![
            r#"{"a": 1, "b": [true, "x:y"], "c\\": "d\""}"#.to_string(),
            "x".repeat(200),
            format!(r#"{{"long": "{}"}}"#, "ab\\\"c".repeat(40)),
            format!("{}{}", "\\".repeat(63), '"'),
            format!("{}{}", "\\".repeat(64), '"'),
            "{\"ctl\": \"\u{1}\u{2}\", \"ws\": \t1}".to_string(),
            String::new(),
        ];
        for text in samples {
            let fast = build(text.as_bytes());
            let slow = build_scalar(text.as_bytes());
            assert_eq!(fast.quote, slow.quote, "quotes differ on {text:?}");
            assert_eq!(fast.colon, slow.colon, "colons differ on {text:?}");
            assert_eq!(
                fast.string_mask, slow.string_mask,
                "mask differs on {text:?}"
            );
            assert_eq!(fast.lbrace, slow.lbrace);
            assert_eq!(fast.comma, slow.comma);
            assert_eq!(fast.backslash, slow.backslash, "backslash on {text:?}");
            assert_eq!(fast.control, slow.control, "control on {text:?}");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let b = build(b"");
        assert_eq!(b.len, 0);
        assert_eq!(Bitmaps::positions(&b.colon).count(), 0);
        let b = build(b"1");
        assert_eq!(b.len, 1);
    }

    #[test]
    fn buffer_reuse_across_records() {
        let mut bits = Bitmaps::default();
        bits.build_from(br#"{"a": "a very long string to size the buffers", "b": [1, 2]}"#);
        let cap = bits.quote.capacity();
        bits.build_from(br#"{"x": 1}"#);
        assert_eq!(bits.len, 8);
        assert_eq!(Bitmaps::positions(&bits.quote).count(), 2);
        assert!(bits.quote.capacity() >= 1 && cap >= bits.quote.capacity());
    }

    // ---- scanner ----

    fn scan_fields(input: &str, names: &[&str]) -> Option<Vec<(String, String)>> {
        let mut sc = StructuralScanner::new();
        let set = FieldSet::new(names.iter().map(|s| s.to_string()));
        if !sc.scan(input.as_bytes(), &set, &ScanOptions::default()) {
            return None;
        }
        Some(
            sc.fields()
                .iter()
                .map(|f| {
                    (
                        input[f.key.clone()].to_string(),
                        input[f.value.clone()].to_string(),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn projects_requested_fields_with_tight_spans() {
        let doc = r#"{ "id": 7, "name": "ada", "skip": [1, {"x": ":"}], "geo": {"lat": 1.5} }"#;
        let fields = scan_fields(doc, &["id", "geo"]).expect("clean record scans");
        assert_eq!(
            fields,
            vec![
                ("id".to_string(), "7".to_string()),
                ("geo".to_string(), r#"{"lat": 1.5}"#.to_string()),
            ]
        );
    }

    #[test]
    fn duplicate_projected_keys_keep_every_occurrence_in_order() {
        let doc = r#"{"a": 1, "b": 2, "a": 3}"#;
        let fields = scan_fields(doc, &["a"]).unwrap();
        assert_eq!(
            fields,
            vec![
                ("a".to_string(), "1".to_string()),
                ("a".to_string(), "3".to_string()),
            ]
        );
    }

    #[test]
    fn empty_set_still_validates_structure() {
        assert_eq!(
            scan_fields(r#"{"a": [1, "x"], "b": null}"#, &[]),
            Some(vec![])
        );
        assert_eq!(scan_fields("{}", &[]), Some(vec![]));
        assert_eq!(scan_fields(r#"{"a": tru}"#, &[]), None);
        assert_eq!(scan_fields(r#"{"a": 1,}"#, &[]), None);
        assert_eq!(scan_fields(r#"{"a" 1}"#, &[]), None);
        assert_eq!(scan_fields(r#"{"a": 1"#, &[]), None);
        assert_eq!(scan_fields(r#"{"a": 1} extra"#, &[]), None);
        assert_eq!(scan_fields(r#"{"a": 01}"#, &[]), None);
        assert_eq!(scan_fields(r#"{"a": [1, 2,]}"#, &[]), None);
        assert_eq!(scan_fields(r#"{"a": [,1]}"#, &[]), None);
        assert_eq!(scan_fields(r#"{"a": 1]}"#, &[]), None);
    }

    #[test]
    fn non_object_roots_fall_back() {
        for doc in ["[1, 2]", "42", "\"s\"", "null", "  [1]", "", "   "] {
            assert_eq!(scan_fields(doc, &["a"]), None, "doc {doc}");
        }
    }

    #[test]
    fn conservative_fallbacks() {
        // \u escape: surrogate rules belong to the lexer.
        let unicode = "{\"a\": \"\\u0041\"}";
        assert_eq!(scan_fields(unicode, &["a"]), None);
        // Escaped key could unescape into a projected name.
        assert_eq!(scan_fields(r#"{"a\tb": 1}"#, &["a"]), None);
        // Unknown escape is malformed anyway.
        assert_eq!(scan_fields(r#"{"a": "\x41"}"#, &["a"]), None);
        // Exponents (overflow rules) fall back.
        assert_eq!(scan_fields(r#"{"a": 1e3}"#, &["a"]), None);
        // Control byte inside a string.
        assert_eq!(scan_fields("{\"a\": \"x\u{1}\"}", &["a"]), None);
        // Depth past the cap.
        let mut sc = StructuralScanner::new();
        let deep = format!(r#"{{"a": {}1{}}}"#, "[".repeat(5), "]".repeat(5));
        let set = FieldSet::new(["a".to_string()]);
        assert!(!sc.scan(
            deep.as_bytes(),
            &set,
            &ScanOptions {
                max_depth: 4,
                reject_dotted_skipped: false
            }
        ));
        assert!(sc.scan(deep.as_bytes(), &set, &ScanOptions::default()));
        assert_eq!(sc.fields().len(), 1);
    }

    #[test]
    fn dotted_skipped_keys_fall_back_only_when_asked() {
        let doc = r#"{"geo.lat": 1, "id": 2}"#;
        assert!(scan_fields(doc, &["id"]).is_some());
        let mut sc = StructuralScanner::new();
        let set = FieldSet::new(["id".to_string()]);
        let opts = ScanOptions {
            max_depth: 128,
            reject_dotted_skipped: true,
        };
        assert!(!sc.scan(doc.as_bytes(), &set, &opts));
        // Projected dotted keys are fine — the consumer asked for them.
        let set = FieldSet::new(["geo.lat".to_string(), "id".to_string()]);
        assert!(sc.scan(doc.as_bytes(), &set, &opts));
        assert_eq!(sc.fields().len(), 2);
    }

    #[test]
    fn speculation_hints_survive_reordering() {
        let mut sc = StructuralScanner::new();
        let set = FieldSet::new(["id".to_string()]);
        let opts = ScanOptions::default();
        for _ in 0..3 {
            assert!(sc.scan(br#"{"id": 1, "name": "a"}"#, &set, &opts));
            assert_eq!(sc.fields().len(), 1);
        }
        // Field order flips: hints miss, verified fallback re-resolves.
        let doc = r#"{"name": "a", "id": 2}"#;
        assert!(sc.scan(doc.as_bytes(), &set, &opts));
        assert_eq!(sc.fields().len(), 1);
        assert_eq!(&doc[sc.fields()[0].value.clone()], "2");
    }

    #[test]
    fn accepted_records_parse_and_spans_match_dom() {
        let docs = [
            r#"{"id": 0, "tags": ["a", "b:c"], "name": "x,y", "f": 1.25, "n": null}"#,
            r#"{ "a" : { "b" : [ true , false ] } , "c" : -0.5 }"#,
            r#"{"empty": {}, "earr": [], "s": "", "a": [[1], {"b": 2}]}"#,
        ];
        let set = FieldSet::new(["id", "a", "c", "s", "tags"].map(String::from));
        let mut sc = StructuralScanner::new();
        for doc in docs {
            assert!(
                sc.scan(doc.as_bytes(), &set, &ScanOptions::default()),
                "doc {doc}"
            );
            let dom = parse_with(doc.as_bytes(), ParserOptions::default()).expect("valid");
            assert!(!sc.fields().is_empty(), "doc {doc}");
            for f in sc.fields() {
                let key = &doc[f.key.clone()];
                let span_value =
                    parse_with(doc[f.value.clone()].as_bytes(), ParserOptions::default())
                        .expect("span parses");
                assert_eq!(
                    dom.get(key).expect("field exists"),
                    &span_value,
                    "field {key} of {doc}"
                );
            }
        }
    }

    #[test]
    fn scalar_grammar_subset() {
        for ok in ["0", "-0", "7", "123", "1.5", "-0.25", "10.00"] {
            assert!(valid_scalar(ok.as_bytes()), "{ok}");
        }
        for fallback in [
            "01",
            "1.",
            ".5",
            "+1",
            "-",
            "1e3",
            "1E3",
            "1e400",
            "--1",
            "0x1",
            "nul",
            "True",
            "123456789012345678", // >17 integer digits: overflow is the lexer's call
        ] {
            assert!(!valid_scalar(fallback.as_bytes()), "{fallback}");
        }
    }
}
