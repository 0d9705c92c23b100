//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) over byte slices.
//!
//! The workspace's durability features — the run journal's per-record
//! frames and the `.jxc` per-block checksums — need one shared, stable
//! checksum so a reader can tell "this record/block arrived intact" from
//! "the process died mid-write". CRC-32 is the right tool for that
//! threat model: it detects torn writes and bit rot, not adversaries.
//!
//! Two kernels compute the same value. On x86_64 CPUs with `pclmulqdq`
//! (detected at run time), a buffer of at least one 64-byte stride is
//! folded by carry-less multiplication — four 128-bit lanes per stride,
//! folded to one lane, then Barrett-reduced to 32 bits (Gopal et al.,
//! *Fast CRC Computation for Generic Polynomials Using PCLMULQDQ*,
//! Intel, 2009) — and only its last `len % 16` bytes go through the
//! table loop. Everything else takes the table loop: the reflected
//! table-driven CRC, eight bytes per step ("slice-by-8"), where table
//! `k` holds the CRC of a byte followed by `k` zero bytes, so eight
//! lookups fold one 64-bit word. The tables are generated at compile
//! time, so the crate stays dependency-free.

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]`
/// advances `TABLES[k - 1][b]` by one more zero byte.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` with the conventional `0xFFFF_FFFF` pre/post
/// conditioning — the same value `crc32(1)` in zlib or `zlib.crc32` in
/// Python would produce.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Folds `bytes` into a running (pre-conditioned) CRC state. Start from
/// `0xFFFF_FFFF`, fold each fragment, and finish with `^ 0xFFFF_FFFF`
/// to checksum data that arrives in pieces.
pub fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::STRIDE && std::arch::is_x86_feature_detected!("pclmulqdq") {
        let (folded, tail) = bytes.split_at(bytes.len() & !15);
        // SAFETY: the CPU was just checked for `pclmulqdq` (SSE2 is part
        // of the x86_64 baseline), the one condition `fold` needs; and
        // `folded` is a multiple of 16 bytes no shorter than one stride,
        // so its result is the CRC.
        let crc = unsafe { clmul::fold(state, folded) };
        return table_update(crc, tail);
    }
    table_update(state, bytes)
}

/// The CRC by carry-less multiplication, for x86_64 CPUs that have it.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Bytes folded per step: four 16-byte lanes.
    pub(super) const STRIDE: usize = 64;

    // The reflected-IEEE constants (Gopal et al.), each `x^n mod P`
    // bit-reflected and shifted left by one: `K1`/`K2` fold a lane
    // across four lanes, `K3`/`K4` across one, `K5` folds 64 bits to 32;
    // `P` is the polynomial and `MU` the quotient `x^64 / P`, both
    // reflected, for the Barrett step.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// [`super::table_update`] of `bytes`, by folding, when `bytes` is a
    /// multiple of 16 bytes no shorter than [`STRIDE`] (shorter panics;
    /// a ragged end is not folded in).
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`. Every load reads a 16-byte
    /// chunk of `bytes`, so no length of `bytes` reads out of bounds.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn fold(state: u32, bytes: &[u8]) -> u32 {
        debug_assert!(bytes.len() >= STRIDE && bytes.len().is_multiple_of(16));
        // `acc` times `x^n` for the `n` that `k`'s halves stand for, plus
        // `next`: the lane `acc` moved forward onto `next`.
        macro_rules! fold_onto {
            ($acc:expr, $k:expr, $next:expr) => {
                _mm_xor_si128(
                    _mm_xor_si128(
                        _mm_clmulepi64_si128($acc, $k, 0x00),
                        _mm_clmulepi64_si128($acc, $k, 0x11),
                    ),
                    $next,
                )
            };
        }
        let load = |chunk: &[u8]| -> __m128i { _mm_loadu_si128(chunk.as_ptr().cast()) };
        let mut strides = bytes.chunks_exact(STRIDE);
        let first = strides.next().expect("at least one stride");
        let mut lanes = [0, 16, 32, 48].map(|at| load(&first[at..at + 16]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let across_four = _mm_set_epi64x(K2, K1);
        for stride in &mut strides {
            for (lane, at) in lanes.iter_mut().zip([0, 16, 32, 48]) {
                *lane = fold_onto!(*lane, across_four, load(&stride[at..at + 16]));
            }
        }
        let across_one = _mm_set_epi64x(K4, K3);
        let mut acc = lanes[0];
        for &lane in &lanes[1..] {
            acc = fold_onto!(acc, across_one, lane);
        }
        for chunk in strides.remainder().chunks_exact(16) {
            acc = fold_onto!(acc, across_one, load(chunk));
        }
        // 128 bits to 64 (appending the 32 zero bits the CRC implies),
        // then to 32 + 32.
        acc = _mm_xor_si128(
            _mm_srli_si128(acc, 8),
            _mm_clmulepi64_si128(acc, across_one, 0x10),
        );
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        acc = _mm_xor_si128(
            _mm_srli_si128(acc, 4),
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
        );
        // Barrett reduction: the quotient by `MU`, times `P`, cancels
        // everything but the remainder in bits 32..64.
        let barrett = _mm_set_epi64x(MU, P);
        let quotient = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
        let product = _mm_clmulepi64_si128(_mm_and_si128(quotient, low32), barrett, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(acc, product), 4)) as u32
    }
}

/// Slice-by-8: the CRC on every CPU without the folding kernel and of
/// every buffer shorter than a stride, the folding kernel's tail loop,
/// and the reference it is tested against.
fn table_update(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][word[4] as usize]
            ^ TABLES[2][word[5] as usize]
            ^ TABLES[1][word[6] as usize]
            ^ TABLES[0][word[7] as usize];
    }
    bytewise_update(crc, words.remainder())
}

/// One table lookup per byte: the tail of [`table_update`], and the
/// reference its word-at-a-time loop is tested against.
fn bytewise_update(state: u32, bytes: &[u8]) -> u32 {
    let mut crc = state;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference values from the canonical IEEE CRC-32 ("check" value
        // for "123456789" is 0xCBF43926).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Long enough to fold: 64 and 1,000,000 `a`s.
        assert_eq!(crc32(&[b'a'; 64]), 0x89B4_6555);
        assert_eq!(crc32(&vec![b'a'; 1_000_000]), 0xDC25_BFBC);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"chunk-commit journal record payload";
        for split in 0..data.len() {
            let mut state = 0xFFFF_FFFF;
            state = crc32_update(state, &data[..split]);
            state = crc32_update(state, &data[split..]);
            assert_eq!(state ^ 0xFFFF_FFFF, crc32(data));
        }
    }

    /// Seeded bytes, `len` of them.
    fn noise(len: usize) -> Vec<u8> {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 24) as u8
            })
            .collect()
    }

    /// Slice-by-8 against the byte-wise loop over many lengths, start
    /// alignments and split points (the incremental contract): the loop
    /// a CPU without the folding kernel runs for every byte.
    #[test]
    fn word_loop_matches_bytewise_reference() {
        let data = noise(4096 + 64);
        for len in (0..200).chain([255, 256, 257, 1023, 1024, 4095, 4096]) {
            for align in 0..9 {
                let slice = &data[align..align + len];
                let want = bytewise_update(0xFFFF_FFFF, slice);
                assert_eq!(
                    table_update(0xFFFF_FFFF, slice),
                    want,
                    "len {len} align {align}"
                );
                for split in [0, 1, 7, 8, 9, len / 2, len.saturating_sub(1), len] {
                    let split = split.min(len);
                    let state = table_update(0xFFFF_FFFF, &slice[..split]);
                    assert_eq!(
                        table_update(state, &slice[split..]),
                        want,
                        "len {len} align {align} split {split}"
                    );
                }
            }
        }
    }

    /// `crc32_update` — the folding kernel where the CPU has it — against
    /// the table loop: every length up to 2 KiB at 16 start alignments,
    /// from a zero state and from a running one.
    #[test]
    fn crc32_update_matches_the_table_loop_at_every_length() {
        let data = noise(2048 + 16);
        for align in 0..16 {
            for len in 0..=2048 {
                let slice = &data[align..align + len];
                let states: &[u32] = if len <= 300 {
                    &[0xFFFF_FFFF, 0, 0x1234_5678]
                } else {
                    &[0x1234_5678]
                };
                for &state in states {
                    assert_eq!(
                        crc32_update(state, slice),
                        table_update(state, slice),
                        "len {len} align {align} state {state:#x}"
                    );
                }
            }
        }
    }

    /// An incremental state continues across the kernels' boundary:
    /// pieces shorter than a stride take the table, longer ones fold,
    /// and any split gives the one-shot value.
    #[test]
    fn incremental_state_crosses_the_kernels_boundary() {
        let data = noise(1000);
        let want = table_update(0xFFFF_FFFF, &data);
        for split in (0..=200).chain([255, 256, 257, 500, 936, 937, 999, 1000]) {
            let state = crc32_update(0xFFFF_FFFF, &data[..split]);
            assert_eq!(crc32_update(state, &data[split..]), want, "split {split}");
        }
        let mut state = 0xFFFF_FFFF;
        for piece in data.chunks(63).chain(std::iter::once(&[][..])) {
            state = crc32_update(state, piece);
        }
        assert_eq!(state, want);
    }

    #[test]
    fn a_mebibyte_matches_the_table_loop() {
        let data = noise(1 << 20);
        assert_eq!(crc32(&data), table_update(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF);
        assert_eq!(
            crc32(&data[3..]),
            table_update(0xFFFF_FFFF, &data[3..]) ^ 0xFFFF_FFFF
        );
    }

    /// The folding kernel on its own, where the CPU has it, so a test
    /// run on such a CPU cannot pass by taking the table for every call.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_folding_kernel_matches_the_table_loop() {
        if !std::arch::is_x86_feature_detected!("pclmulqdq") {
            return;
        }
        let data = noise(4096 + 16);
        for align in 0..16 {
            for len in (clmul::STRIDE..=4096).step_by(16) {
                let slice = &data[align..align + len];
                // SAFETY: `pclmulqdq` was detected above, and `len` is a
                // multiple of 16 no smaller than one stride.
                let folded = unsafe { clmul::fold(0xFFFF_FFFF, slice) };
                assert_eq!(
                    folded,
                    table_update(0xFFFF_FFFF, slice),
                    "len {len} align {align}"
                );
            }
        }
        // SAFETY: as above; 64 bytes are one stride.
        let check = unsafe { clmul::fold(0xFFFF_FFFF, &[b'1'; 64]) };
        assert_eq!(check, table_update(0xFFFF_FFFF, &[b'1'; 64]));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"some record";
        let good = crc32(data);
        let mut copy = data.to_vec();
        for i in 0..copy.len() * 8 {
            copy[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&copy), good, "flip at bit {i} undetected");
            copy[i / 8] ^= 1 << (i % 8);
        }
    }
}
