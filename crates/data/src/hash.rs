//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) over byte slices.
//!
//! The workspace's durability features — the run journal's per-record
//! frames and the `.jxc` per-block checksums — need one shared, stable
//! checksum so a reader can tell "this record/block arrived intact" from
//! "the process died mid-write". CRC-32 is the right tool for that
//! threat model: it detects torn writes and bit rot, not adversaries.
//! The implementation is the reflected table-driven one, eight bytes per
//! step ("slice-by-8"): table `k` holds the CRC of a byte followed by `k`
//! zero bytes, so eight lookups fold one 64-bit word. The tables are
//! generated at compile time, so the crate stays dependency-free.

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

/// One table lookup per byte: the tail of [`crc32_update`], and the
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

    /// Slice-by-8 against the byte-wise loop over many lengths, start
    /// alignments and split points (the incremental contract).
    #[test]
    fn word_loop_matches_bytewise_reference() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..4096 + 64)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 24) as u8
            })
            .collect();
        for len in (0..200).chain([255, 256, 257, 1023, 1024, 4095, 4096]) {
            for align in 0..9 {
                let slice = &data[align..align + len];
                let want = bytewise_update(0xFFFF_FFFF, slice);
                assert_eq!(
                    crc32_update(0xFFFF_FFFF, slice),
                    want,
                    "len {len} align {align}"
                );
                for split in [0, 1, 7, 8, 9, len / 2, len.saturating_sub(1), len] {
                    let split = split.min(len);
                    let state = crc32_update(0xFFFF_FFFF, &slice[..split]);
                    assert_eq!(
                        crc32_update(state, &slice[split..]),
                        want,
                        "len {len} align {align} split {split}"
                    );
                }
            }
        }
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
