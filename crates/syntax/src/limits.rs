//! Per-record resource limits.
//!
//! Real-world NDJSON collections contain pathological records: nesting
//! bombs that would overflow a recursive walk, multi-megabyte lines, and
//! giant string literals whose unescape buffers can OOM a worker. One
//! [`ParseLimits`] value bounds all three, so a single bad record costs a
//! [`LimitExceeded`](crate::ParseErrorKind::LimitExceeded) (or
//! [`TooDeep`](crate::ParseErrorKind::TooDeep)) error instead of a stack
//! overflow or an allocation spike.
//!
//! [`DEFAULT_MAX_DEPTH`] is the single source of the nesting default:
//! [`ParserOptions`](crate::ParserOptions) and [`ParseLimits`] both
//! construct from it.

/// Default nesting-depth cap of [`ParserOptions`](crate::ParserOptions)
/// and [`ParseLimits`].
pub const DEFAULT_MAX_DEPTH: usize = 128;

/// The deepest nesting a front-end should let a user ask for (the
/// `jsonx` CLI refuses a larger `--max-depth`). The grammar is iterative,
/// but what consumes an accepted record recurses once per level —
/// `Value`/`JType` drop, inference and fusion, printing, the validators —
/// on 2 MiB worker stacks. A record of alternating objects and arrays
/// first overflows one near 4 500 levels (release build, `serve`'s
/// `INFER`; `infer`/`translate` near 5 900): a 4× margin.
pub const MAX_DEPTH_CEILING: usize = 1024;

/// Per-record resource limits.
///
/// `max_depth` is always enforced; the byte limits are opt-in (`None`
/// disables them) because the right bound depends on the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum nesting depth of arrays/objects (see [`MAX_DEPTH_CEILING`]).
    pub max_depth: usize,
    /// Maximum size of one record (one NDJSON line) in bytes.
    pub max_input_bytes: Option<usize>,
    /// Maximum size of one string literal's content in bytes (guards the
    /// unescape buffer).
    pub max_string_bytes: Option<usize>,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_depth: DEFAULT_MAX_DEPTH,
            max_input_bytes: None,
            max_string_bytes: None,
        }
    }
}

impl ParseLimits {
    /// The defaults: depth capped at [`DEFAULT_MAX_DEPTH`], byte limits off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the nesting-depth cap.
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Caps one record's total size in bytes.
    pub fn with_max_input_bytes(mut self, limit: usize) -> Self {
        self.max_input_bytes = Some(limit);
        self
    }

    /// Caps one string literal's content size in bytes.
    pub fn with_max_string_bytes(mut self, limit: usize) -> Self {
        self.max_string_bytes = Some(limit);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_historical_depth() {
        let l = ParseLimits::default();
        assert_eq!(l.max_depth, 128);
        assert_eq!(l.max_input_bytes, None);
        assert_eq!(l.max_string_bytes, None);
    }

    #[test]
    fn builders_compose() {
        let l = ParseLimits::new()
            .with_max_depth(4)
            .with_max_input_bytes(1024)
            .with_max_string_bytes(64);
        assert_eq!(l.max_depth, 4);
        assert_eq!(l.max_input_bytes, Some(1024));
        assert_eq!(l.max_string_bytes, Some(64));
    }
}
