//! Newline-boundary chunking.

/// One contiguous newline-aligned piece of an NDJSON input — one
/// stealable chunk (see [`crate::chunk`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard<'a> {
    /// Zero-based index of the shard's first line in the whole input.
    pub first_line: usize,
    /// The shard's text, ending just after a newline except possibly for
    /// the last shard.
    pub text: &'a str,
}

/// Splits `input` into contiguous pieces of roughly `target_bytes` each,
/// every boundary sitting just after a newline so no document spans two
/// pieces. A line longer than the target yields one oversized piece.
///
/// A piece closes at the first newline at or past its byte target, the
/// rule [`ReaderChunks`](crate::ReaderChunks) reads by, so both sources
/// cut an input at the same bytes. Only the bytes between the target and
/// that newline are searched; each piece's lines are counted with
/// [`count_newlines`], so callers never rescan shard bytes to recover
/// line numbering. A target that covers the whole input needs no
/// boundary and no count — one shard, no scan.
pub fn chunk_lines(input: &str, target_bytes: usize) -> Vec<Shard<'_>> {
    if !input.is_empty() && target_bytes >= input.len() {
        return vec![Shard {
            first_line: 0,
            text: input,
        }];
    }
    let bytes = input.as_bytes();
    let target = target_bytes.max(1);
    let mut shards = Vec::with_capacity(input.len().div_ceil(target).clamp(1, 1024));
    let mut start = 0usize;
    let mut first_line = 0usize;
    while start < bytes.len() {
        let from = (start + target - 1).min(bytes.len());
        let end = match bytes[from..].iter().position(|&b| b == b'\n') {
            Some(at) => from + at + 1,
            None => bytes.len(),
        };
        shards.push(Shard {
            first_line,
            text: &input[start..end],
        });
        first_line += count_newlines(&bytes[start..end]);
        start = end;
    }
    shards
}

/// How many `\n` bytes `bytes` holds, counted eight bytes at a time.
///
/// Each 64-bit word is XORed with eight newlines, so a newline becomes a
/// zero byte, and an exact zero-byte mask (no carries cross a byte) puts
/// a 1 in each such byte's lane. Lanes sum for up to 255 words before
/// they are added up, so one word costs a handful of integer operations
/// and no branch (a per-byte filter does not vectorize).
pub(crate) fn count_newlines(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    const NEWLINES: u64 = ONES * b'\n' as u64;
    const EVEN_LANES: u64 = 0x00ff_00ff_00ff_00ff;
    let mut words = bytes.chunks_exact(8);
    let mut count = 0;
    while words.len() > 0 {
        // One counter per byte lane, each at most 255.
        let mut lanes = 0u64;
        for word in words.by_ref().take(255) {
            let x = u64::from_le_bytes(word.try_into().expect("eight bytes")) ^ NEWLINES;
            // A lane's high bit survives only when its byte is zero.
            lanes += (!(((x & LOW7) + LOW7) | x) >> 7) & ONES;
        }
        // Sum the eight lanes: pairs into 16-bit lanes, then a multiply
        // gathers the four sums in the top 16 bits.
        let pairs = (lanes & EVEN_LANES) + ((lanes >> 8) & EVEN_LANES);
        count += (pairs.wrapping_mul(0x0001_0001_0001_0001) >> 48) as usize;
    }
    count + words.remainder().iter().filter(|&&b| b == b'\n').count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(n: usize) -> String {
        (0..n).map(|i| format!("{{\"id\": {i}}}\n")).collect()
    }

    #[test]
    fn shards_cover_input_without_splitting_lines() {
        for input in [
            corpus(100),
            corpus(1),
            "no trailing newline".to_string(),
            "a\n\n\nb".to_string(),
            String::new(),
        ] {
            for pieces in [1, 2, 3, 7, 16] {
                let shards = chunk_lines(&input, input.len().div_ceil(pieces));
                let rejoined: String = shards.iter().map(|s| s.text).collect();
                assert_eq!(rejoined, input, "pieces={pieces}");
                // In particular, a target covering the input is one shard
                // equal to it.
                assert!(shards.len() <= pieces || input.is_empty());
                let mut expected_line = 0;
                for (i, shard) in shards.iter().enumerate() {
                    assert_eq!(
                        shard.first_line, expected_line,
                        "single-scan line numbering must match a recount"
                    );
                    assert!(shard.text.ends_with('\n') || i == shards.len() - 1);
                    expected_line += shard.text.bytes().filter(|&b| b == b'\n').count();
                }
            }
        }
    }

    #[test]
    fn newlines_are_counted_exactly() {
        // Bytes beside `\n` in value (0x0b, 0x8a, 0x09) and every length
        // around the word and the 255-word block.
        let pattern = b"\n\x0b\x8aa\n\n\t\xff\x00\n";
        for len in (0..40).chain([8 * 255 - 1, 8 * 255, 8 * 255 + 9, 20_000]) {
            let bytes: Vec<u8> = pattern.iter().copied().cycle().take(len).collect();
            let want = bytes.iter().filter(|&&b| b == b'\n').count();
            assert_eq!(count_newlines(&bytes), want, "len={len}");
        }
        assert_eq!(count_newlines(&[b'\n'; 5000]), 5000);
    }

    #[test]
    fn empty_input_has_no_shards() {
        assert!(chunk_lines("", 4).is_empty());
    }

    #[test]
    fn single_line_input_is_one_shard() {
        let shards = chunk_lines("{\"a\": 1}\n", 2);
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].first_line, 0);
    }

    #[test]
    fn chunk_lines_honors_byte_target() {
        let input = corpus(1000);
        let chunks = chunk_lines(&input, 64);
        assert!(chunks.len() > 10, "small target must produce many chunks");
        let rejoined: String = chunks.iter().map(|s| s.text).collect();
        assert_eq!(rejoined, input);
        for chunk in &chunks[..chunks.len() - 1] {
            assert!(chunk.text.len() >= 64, "chunks close at or past the target");
        }
    }
}
