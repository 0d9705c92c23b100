//! The leveled structural index.
//!
//! Stage 2 of the Mison pipeline: colon and comma positions bucketed by
//! nesting level, built **only to the depth the query needs** — deeper
//! structure is never examined, which is where projection pushdown's
//! asymptotic win comes from.

use jsonx_syntax::structural::{build, Bitmaps};

/// A structural index over one JSON document.
#[derive(Debug, Clone)]
pub struct StructuralIndex {
    /// The bitmaps the index was distilled from.
    pub bitmaps: Bitmaps,
    /// `colons[l]` = sorted positions of colons at nesting level `l+1`
    /// (level 1 = directly inside the root container).
    colons: Vec<Vec<u32>>,
    /// Same bucketing for commas.
    commas: Vec<Vec<u32>>,
    /// Sorted positions of container events `(pos, open?, depth_after)`.
    containers: Vec<(u32, bool, u16)>,
}

impl StructuralIndex {
    /// Builds the index down to `max_level` (1 = root fields only).
    pub fn build(input: &[u8], max_level: usize) -> StructuralIndex {
        let bitmaps = build(input);
        let mut colons: Vec<Vec<u32>> = vec![Vec::new(); max_level];
        let mut commas: Vec<Vec<u32>> = vec![Vec::new(); max_level];

        // Walk every structural position in order with a single merged
        // bit-scan per word, tracking depth — no materialised event list.
        // Container events are recorded only when the index may need to
        // descend (max_level > 1): level-1 projections never ask for
        // sub-container spans, and skipping the event list is part of the
        // depth-bounded saving E9/A1 measure.
        let track_containers = max_level > 1;
        let mut depth: usize = 0;
        let mut containers = Vec::new();
        let words = bitmaps.colon.len();
        for w in 0..words {
            let opens = bitmaps.lbrace[w] | bitmaps.lbracket[w];
            let closes = bitmaps.rbrace[w] | bitmaps.rbracket[w];
            let mut rest = opens | closes | bitmaps.colon[w] | bitmaps.comma[w];
            while rest != 0 {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let mask = 1u64 << bit;
                let pos = (w * 64 + bit) as u32;
                if opens & mask != 0 {
                    depth += 1;
                    if track_containers {
                        containers.push((pos, true, depth as u16));
                    }
                } else if closes & mask != 0 {
                    if track_containers {
                        containers.push((pos, false, depth as u16));
                    }
                    depth = depth.saturating_sub(1);
                } else if bitmaps.colon[w] & mask != 0 {
                    if depth >= 1 && depth <= max_level {
                        colons[depth - 1].push(pos);
                    }
                } else if depth >= 1 && depth <= max_level {
                    commas[depth - 1].push(pos);
                }
            }
        }
        StructuralIndex {
            bitmaps,
            colons,
            commas,
            containers,
        }
    }

    /// Colon positions at `level` (1-based) within `range`.
    pub fn colons_in(&self, level: usize, range: std::ops::Range<usize>) -> &[u32] {
        slice_in(self.colons.get(level - 1).map_or(&[], |v| v), range)
    }

    /// The first comma at `level` strictly after `pos`, within `range`.
    pub fn next_comma(
        &self,
        level: usize,
        pos: usize,
        range: std::ops::Range<usize>,
    ) -> Option<usize> {
        let commas = self.commas.get(level - 1)?;
        let start = commas.partition_point(|&c| (c as usize) <= pos);
        commas[start..]
            .first()
            .map(|&c| c as usize)
            .filter(|&c| c < range.end)
    }

    /// The key string ending just before `colon`: returns the byte range
    /// *between* the quotes (escaped form). Works by scanning the quote
    /// bitmap backwards — O(1) for the adjacent key, no materialised
    /// quote list.
    pub fn key_before(&self, colon: usize) -> Option<std::ops::Range<usize>> {
        let close = self.prev_quote(colon)?;
        let open = self.prev_quote(close)?;
        Some(open + 1..close)
    }

    /// Position of the last unescaped quote strictly before `before`.
    fn prev_quote(&self, before: usize) -> Option<usize> {
        let mut w = before / 64;
        if w >= self.bitmaps.quote.len() {
            w = self.bitmaps.quote.len().checked_sub(1)?;
        }
        let mut mask = if before / 64 == w {
            (1u64 << (before % 64)) - 1
        } else {
            !0
        };
        loop {
            let word = self.bitmaps.quote[w] & mask;
            if word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
            if w == 0 {
                return None;
            }
            w -= 1;
            mask = !0;
        }
    }

    /// The end (exclusive) of the value starting after `colon` at `level`,
    /// inside the parent container span `parent`: the next same-level
    /// comma, or the parent's closing position.
    pub fn value_end(&self, level: usize, colon: usize, parent: std::ops::Range<usize>) -> usize {
        match self.next_comma(level, colon, parent.clone()) {
            Some(c) => c,
            None => parent.end - 1, // before the closing brace/bracket
        }
    }

    /// Finds the span of the container that *opens* at `open_pos`
    /// (inclusive of both braces). Uses the recorded container events —
    /// only available when the index was built with `max_level > 1`.
    pub fn container_span(&self, open_pos: usize) -> Option<std::ops::Range<usize>> {
        let start = self
            .containers
            .partition_point(|&(p, _, _)| (p as usize) < open_pos);
        let (p0, is_open, d0) = *self.containers.get(start)?;
        if p0 as usize != open_pos || !is_open {
            return None;
        }
        for &(p, open, d) in &self.containers[start + 1..] {
            if !open && d == d0 {
                return Some(open_pos..p as usize + 1);
            }
            if !open && d < d0 {
                break;
            }
        }
        None
    }

    /// The root container's span (the whole document trimmed to its
    /// outermost `{...}` or `[...]`), derived from the bitmaps directly
    /// so it works at any index depth.
    pub fn root_span(&self) -> Option<std::ops::Range<usize>> {
        let first_open = (0..self.bitmaps.lbrace.len()).find_map(|w| {
            let word = self.bitmaps.lbrace[w] | self.bitmaps.lbracket[w];
            (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)
        })?;
        let last_close = (0..self.bitmaps.rbrace.len()).rev().find_map(|w| {
            let word = self.bitmaps.rbrace[w] | self.bitmaps.rbracket[w];
            (word != 0).then(|| w * 64 + 63 - word.leading_zeros() as usize)
        })?;
        // A closer before the opener means no well-formed root container.
        (last_close > first_open).then_some(first_open..last_close + 1)
    }
}

fn slice_in(positions: &[u32], range: std::ops::Range<usize>) -> &[u32] {
    let lo = positions.partition_point(|&p| (p as usize) < range.start);
    let hi = positions.partition_point(|&p| (p as usize) < range.end);
    &positions[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"id": 7, "user": {"name": "ada", "tags": ["x", "y"]}, "n": [1, 2]}"#;

    fn idx(levels: usize) -> StructuralIndex {
        StructuralIndex::build(DOC.as_bytes(), levels)
    }

    #[test]
    fn level_one_colons_are_root_fields() {
        let index = idx(2);
        let root = index.root_span().unwrap();
        let cols = index.colons_in(1, root.clone());
        assert_eq!(cols.len(), 3); // id, user, n
                                   // Their keys:
        let keys: Vec<&str> = cols
            .iter()
            .map(|&c| {
                let r = index.key_before(c as usize).unwrap();
                std::str::from_utf8(&DOC.as_bytes()[r]).unwrap()
            })
            .collect();
        assert_eq!(keys, vec!["id", "user", "n"]);
    }

    #[test]
    fn level_two_colons_are_nested_fields() {
        let index = idx(2);
        let root = index.root_span().unwrap();
        let cols = index.colons_in(2, root);
        let keys: Vec<&str> = cols
            .iter()
            .map(|&c| {
                let r = index.key_before(c as usize).unwrap();
                std::str::from_utf8(&DOC.as_bytes()[r]).unwrap()
            })
            .collect();
        assert_eq!(keys, vec!["name", "tags"]);
    }

    #[test]
    fn index_is_depth_bounded() {
        let index = idx(1);
        let root = index.root_span().unwrap();
        assert_eq!(index.colons_in(1, root.clone()).len(), 3);
        assert!(index.colons_in(2, root).is_empty()); // never built
    }

    #[test]
    fn value_ends() {
        let index = idx(1);
        let root = index.root_span().unwrap();
        let cols: Vec<usize> = index
            .colons_in(1, root.clone())
            .iter()
            .map(|&c| c as usize)
            .collect();
        // id's value ends at the comma after `7`.
        let end = index.value_end(1, cols[0], root.clone());
        assert_eq!(&DOC[cols[0] + 1..end], " 7");
        // n's value (last field) ends at the closing brace.
        let end = index.value_end(1, cols[2], root.clone());
        assert_eq!(DOC[cols[2] + 1..end].trim(), "[1, 2]");
    }

    #[test]
    fn container_spans() {
        let index = idx(3);
        let user_open = DOC.find("{\"name\"").unwrap();
        let span = index.container_span(user_open).unwrap();
        assert_eq!(&DOC[span.clone()], r#"{"name": "ada", "tags": ["x", "y"]}"#);
        assert!(index.container_span(user_open + 1).is_none());
    }

    #[test]
    fn commas_inside_nested_containers_do_not_split_values() {
        let index = idx(1);
        let root = index.root_span().unwrap();
        let cols: Vec<usize> = index
            .colons_in(1, root.clone())
            .iter()
            .map(|&c| c as usize)
            .collect();
        // user's value contains commas at level ≥ 2; its level-1 end must
        // be the comma before "n".
        let end = index.value_end(1, cols[1], root);
        assert!(DOC[cols[1] + 1..end].trim().ends_with('}'));
    }

    #[test]
    fn array_root() {
        let doc = br#"[{"a": 1}, {"a": 2}]"#;
        let index = StructuralIndex::build(doc, 2);
        let root = index.root_span().unwrap();
        assert_eq!(root, 0..doc.len());
        assert_eq!(index.colons_in(2, root).len(), 2);
    }
}
