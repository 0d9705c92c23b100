//! Dirty-corpus generator for the fault-tolerance suites.
//!
//! Real NDJSON feeds carry a tail of junk — truncated uploads, log lines
//! interleaved with records, nesting bombs, editor artifacts. This module
//! generates such corpora *with ground truth*: the same collection twice,
//! once with a seeded fraction of lines corrupted and once with exactly
//! those lines blanked. Because blank lines are skipped (not counted as
//! records) by every streaming entry point, the blanked twin keeps the
//! surviving records on their original line numbers — so
//! `Skip`-policy output over the dirty text must equal fail-fast output
//! over the clean text, record indices included. That identity is what
//! `tests/fault_tolerance.rs` pins across worker counts.
//!
//! Every corruption is guaranteed-invalid, not merely unusual:
//!
//! * **truncation** — a strict prefix of an object (unbalanced braces);
//! * **stray prefix byte** — junk before the document;
//! * **trailing garbage** — junk after a complete document;
//! * **nesting bomb** — arrays nested beyond the default depth cap;
//! * **raw control character** — unescaped `0x01` inside a string;
//! * **oversized line** — only generated when
//!   [`DirtyConfig::oversize_bytes`] is set, for suites that configure a
//!   `max_input_bytes` resource guard.
//!
//! [`respelled`] is the other kind of dirt: text that is **well-formed**
//! but that no serializer of a [`Value`] writes — repeated keys, keys equal
//! only once unescaped, members out of order, `3.0` for `3` — for the
//! routes that speculate on a record's shape and verify per record.

use jsonx_data::Value;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`dirty_ndjson`]. Same config, same corpus — byte
/// for byte, like every generator in this crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DirtyConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of record lines (blank lines are inserted on top).
    pub docs: usize,
    /// Probability that a record line is corrupted.
    pub corruption_rate: f64,
    /// Probability of inserting a blank line before a record.
    pub blank_rate: f64,
    /// Nesting depth of the array bomb; keep above the parser's
    /// `max_depth` (default 128) so the bomb actually trips it.
    pub bomb_depth: usize,
    /// When set, also emit lines padded past this many bytes — for
    /// suites that configure a `max_input_bytes` guard at this value.
    pub oversize_bytes: Option<usize>,
}

impl Default for DirtyConfig {
    fn default() -> Self {
        DirtyConfig {
            seed: 42,
            docs: 1_000,
            corruption_rate: 0.05,
            blank_rate: 0.01,
            bomb_depth: 160,
            oversize_bytes: None,
        }
    }
}

/// A dirty corpus and its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct DirtyNdjson {
    /// The corpus with corrupted lines in place.
    pub text: String,
    /// The same corpus with every corrupted line blanked — identical
    /// line numbering, no bad records.
    pub clean_text: String,
    /// 0-based line indices of the corrupted lines, ascending.
    pub bad_lines: Vec<usize>,
}

/// Generates a dirty NDJSON corpus plus its blanked clean twin.
pub fn dirty_ndjson(config: &DirtyConfig) -> DirtyNdjson {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut dirty: Vec<String> = Vec::new();
    let mut clean: Vec<String> = Vec::new();
    let mut bad_lines = Vec::new();
    for i in 0..config.docs {
        if rng.gen_bool(config.blank_rate) {
            dirty.push(String::new());
            clean.push(String::new());
        }
        let line = record_line(&mut rng, i as i64);
        if rng.gen_bool(config.corruption_rate) {
            bad_lines.push(dirty.len());
            dirty.push(corrupt(&mut rng, &line, config));
            clean.push(String::new());
        } else {
            clean.push(line.clone());
            dirty.push(line);
        }
    }
    DirtyNdjson {
        text: dirty.join("\n") + "\n",
        clean_text: clean.join("\n") + "\n",
        bad_lines,
    }
}

/// One well-formed record, drawn from a small heterogeneous shape pool
/// (optional fields, type noise on `id`, one nested shape) so the
/// inferred type is a non-trivial union.
fn record_line(rng: &mut SmallRng, id: i64) -> String {
    match rng.gen_range(0..4u8) {
        0 => format!(
            "{{\"id\": {id}, \"name\": \"user{}\"}}",
            rng.gen_range(0..100u32)
        ),
        1 => format!(
            "{{\"id\": {id}, \"tags\": [{}, \"t{}\"]}}",
            rng.gen_range(0..50u32),
            rng.gen_range(0..10u32)
        ),
        2 => format!("{{\"id\": \"s{id}\", \"active\": {}}}", rng.gen_bool(0.5)),
        _ => format!(
            "{{\"id\": {id}, \"geo\": {{\"lat\": {}.5, \"lon\": -{}.25}}}}",
            rng.gen_range(0..90u32),
            rng.gen_range(0..180u32)
        ),
    }
}

/// Replaces a well-formed line with one of the guaranteed-invalid
/// corruption kinds. Lines are pure ASCII, so byte-slicing is safe.
fn corrupt(rng: &mut SmallRng, line: &str, config: &DirtyConfig) -> String {
    let kinds = if config.oversize_bytes.is_some() {
        6
    } else {
        5
    };
    match rng.gen_range(0..kinds) {
        0 => line[..line.len() / 2].to_string(),
        1 => format!("@{line}"),
        2 => format!("{line} trailing"),
        3 => "[".repeat(config.bomb_depth) + &"]".repeat(config.bomb_depth),
        4 => "\"ctrl\u{1}char\"".to_string(),
        _ => format!(
            "{{\"pad\": \"{}\"}}",
            "x".repeat(config.oversize_bytes.expect("kind gated on Some"))
        ),
    }
}

/// Renders `doc` as JSON text with the liberties text has and a
/// [`Value`] has not, seeded: at any depth an object may lose a member,
/// gain an undeclared one, list its members in another order, or
/// **repeat a key** — before or after the original, spelled plainly or
/// with an escape that only unescaping makes equal, carrying a sibling's
/// value or a scalar of some other kind; integers may be spelled as
/// integer-valued floats (`3.0`, `3e0`) and a scalar may turn into one
/// of another kind. The text always parses; what it means is whatever the
/// parser (last key wins) says, which is the point: consumers that read
/// events must agree with those that read the document.
pub fn respelled(doc: &Value, seed: u64) -> String {
    let mut out = String::new();
    respell(doc, &mut SmallRng::seed_from_u64(seed), &mut out);
    out
}

/// Stand-ins for a value, one of each kind.
const DECOYS: [&str; 7] = ["null", "true", "7", "2.5", "\"decoy\"", "[]", "{}"];

fn respell(value: &Value, rng: &mut SmallRng, out: &mut String) {
    match value {
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                respell(item, rng, out);
            }
            out.push(']');
        }
        Value::Obj(obj) => {
            let mut members: Vec<(String, String)> = obj
                .iter()
                .map(|(key, member)| {
                    let mut text = String::new();
                    respell(member, rng, &mut text);
                    (Value::from(key).to_json_string(), text)
                })
                .collect();
            if members.len() > 1 && rng.gen_ratio(1, 4) {
                let (a, b) = (
                    rng.gen_range(0..members.len()),
                    rng.gen_range(0..members.len()),
                );
                members.swap(a, b);
            }
            if !members.is_empty() && rng.gen_ratio(1, 8) {
                members.remove(rng.gen_range(0..members.len()));
            }
            if rng.gen_ratio(1, 8) {
                members.push(("\"undeclared\"".to_string(), "null".to_string()));
            }
            if !members.is_empty() && rng.gen_ratio(1, 3) {
                let (key, _) = &members[rng.gen_range(0..members.len())];
                let mut key = key.clone();
                // `"abc"` as `"\u0061bc"`: another spelling of the same key.
                if let Some(first) = key[1..].chars().next().filter(char::is_ascii_alphanumeric) {
                    if rng.gen_ratio(1, 3) {
                        key = format!("\"\\u{:04x}{}", first as u32, &key[2..]);
                    }
                }
                let decoy = match rng.gen_range(0..=DECOYS.len()) {
                    sibling if sibling == DECOYS.len() => {
                        members[rng.gen_range(0..members.len())].1.clone()
                    }
                    kind => DECOYS[kind].to_string(),
                };
                members.insert(rng.gen_range(0..=members.len()), (key, decoy));
            }
            out.push('{');
            for (i, (key, member)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(key);
                out.push(':');
                out.push_str(member);
            }
            out.push('}');
        }
        _ if rng.gen_ratio(1, 16) => out.push_str(DECOYS[rng.gen_range(0..DECOYS.len())]),
        Value::Num(n) if n.is_integer() && rng.gen_ratio(1, 4) => {
            let n = n.to_string();
            match (rng.gen_bool(0.5), n.contains(['.', 'e', 'E'])) {
                (_, true) => out.push_str(&n),
                (true, false) => out.push_str(&format!("{n}.0")),
                (false, false) => out.push_str(&format!("{n}e0")),
            }
        }
        scalar => out.push_str(&scalar.to_json_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let config = DirtyConfig::default();
        assert_eq!(dirty_ndjson(&config), dirty_ndjson(&config));
        let other = DirtyConfig { seed: 7, ..config };
        assert_ne!(dirty_ndjson(&other).text, dirty_ndjson(&config).text);
    }

    #[test]
    fn twins_align_line_by_line() {
        let out = dirty_ndjson(&DirtyConfig {
            docs: 500,
            corruption_rate: 0.2,
            ..DirtyConfig::default()
        });
        let dirty: Vec<&str> = out.text.lines().collect();
        let clean: Vec<&str> = out.clean_text.lines().collect();
        assert_eq!(dirty.len(), clean.len());
        assert!(!out.bad_lines.is_empty());
        assert!(out.bad_lines.windows(2).all(|w| w[0] < w[1]));
        for (i, (d, c)) in dirty.iter().zip(&clean).enumerate() {
            if out.bad_lines.contains(&i) {
                assert!(c.is_empty(), "bad line {i} must be blanked in the twin");
                assert!(!d.is_empty());
            } else {
                assert_eq!(d, c, "good line {i} must match");
            }
        }
    }

    #[test]
    fn good_lines_parse_and_bad_lines_do_not() {
        let out = dirty_ndjson(&DirtyConfig {
            docs: 400,
            corruption_rate: 0.25,
            oversize_bytes: Some(256),
            ..DirtyConfig::default()
        });
        for (i, line) in out.text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let parsed = jsonx_syntax::parse(line);
            if out.bad_lines.contains(&i) {
                // Oversized lines are well-formed JSON — they only reject
                // under a configured byte limit. Everything else must
                // fail the plain parser outright.
                if !line.starts_with("{\"pad\":") {
                    assert!(parsed.is_err(), "bad line {i} parsed: {line:.60}");
                } else {
                    assert!(line.len() > 256);
                }
            } else {
                assert!(parsed.is_ok(), "good line {i} failed: {line:.60}");
            }
        }
    }

    #[test]
    fn respelled_text_parses_and_says_what_no_value_can() {
        let doc = jsonx_syntax::parse(
            r#"{"id": 7, "name": "ada", "tags": ["a", 1, null], "geo": {"lat": 1, "lon": 20}}"#,
        )
        .unwrap();
        let texts: Vec<String> = (0..400).map(|seed| respelled(&doc, seed)).collect();
        assert_eq!(texts[3], respelled(&doc, 3));
        for text in &texts {
            jsonx_syntax::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
        let some = |what: &str, test: &dyn Fn(&String) -> bool| {
            assert!(texts.iter().any(test), "no text with {what}");
        };
        some("the document itself", &|t| {
            jsonx_syntax::parse(t).unwrap() == doc
        });
        some("an escaped-equal key", &|t| t.contains("\\u006"));
        some("a float-spelled integer", &|t| {
            t.contains("7.0") || t.contains("7e0")
        });
        some("a nested repeated key", &|t| {
            t.matches("\"lat\"").count() > 1
        });
        some("a repeated key that changes the document", &|t| {
            t.matches("\"id\"").count() > 1
                && jsonx_syntax::parse(t).unwrap().get("id") != doc.get("id")
        });
        some("a repeated key that does not", &|t| {
            t.matches("\"id\"").count() > 1
                && jsonx_syntax::parse(t).unwrap().get("id") == doc.get("id")
        });
    }
}
