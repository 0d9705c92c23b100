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
/// Lines are counted in the same scan that finds the boundaries: each
/// [`Shard`] carries its `first_line` offset, so callers never rescan
/// shard bytes to recover line numbering. A target that covers the whole
/// input needs no boundary and no count — one shard, no scan.
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
    let mut lines = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        lines += 1;
        // A piece closes at the first newline at or past its byte target.
        if i + 1 >= start + target {
            shards.push(Shard {
                first_line,
                text: &input[start..i + 1],
            });
            first_line = lines;
            start = i + 1;
        }
    }
    if start < bytes.len() {
        shards.push(Shard {
            first_line,
            text: &input[start..],
        });
    }
    shards
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
