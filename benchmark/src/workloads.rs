//! The four seeded workloads and their ground truth.
//!
//! Each workload exists to load a different layer (the table in
//! `benchmark/README.md` says which); the seed reaches only these
//! generators — the program under test sees nothing but the files.

use jsonx::gen::github::{self, GithubConfig};
use jsonx::gen::twitter::{self, TwitterConfig};
use jsonx::gen::{DialedGenerator, GeneratorConfig};
use jsonx::syntax::to_string;
use std::fmt::Write as _;

/// The workload names, in the order `run` without `--workload` visits them.
pub const NAMES: [&str; 4] = ["events", "wide", "tiny", "dirty-skew"];

/// Record counts per workload. Full sizes are what fits the contract's
/// run-time cap (see README "Run-time budget"); smoke sizes keep the
/// harness's own tests to seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub events: usize,
    pub wide: usize,
    pub tiny: usize,
    pub dirty_skew: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        events: 20_000,
        wide: 11_000,
        tiny: 150_000,
        dirty_skew: 12_000,
    };
    pub const SMOKE: Scale = Scale {
        events: 4_000,
        wide: 2_200,
        tiny: 30_000,
        dirty_skew: 2_400,
    };
}

/// splitmix64: the harness's own generator, so the benchmark depends on
/// nothing but the `jsonx` facade.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// How the seeded corruptor broke one line. Every kind is guaranteed
/// malformed under the CLI's default limits, never merely unusual.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// A strict prefix of the object (unbalanced braces).
    Truncation,
    /// `\q` spliced into the first key.
    BadEscape,
    /// Arrays nested past the default depth cap of 128.
    DepthBomb,
    /// Junk after the complete document.
    TrailingGarbage,
}

const CORRUPTIONS: [Corruption; 4] = [
    Corruption::Truncation,
    Corruption::BadEscape,
    Corruption::DepthBomb,
    Corruption::TrailingGarbage,
];

/// Nesting of the depth bomb; above `ParseLimits::default().max_depth`.
const BOMB_DEPTH: usize = 160;

/// Corrupts one well-formed object line (`{"key"...}`, ASCII-safe at the
/// cut points because the cut lands on a char boundary by construction).
fn corrupt(line: &str, kind: Corruption) -> String {
    match kind {
        Corruption::Truncation => {
            let mut cut = line.len() / 2;
            while !line.is_char_boundary(cut) {
                cut -= 1;
            }
            line[..cut].to_string()
        }
        // Every generated line starts `{"`, so byte 2 is inside a key.
        Corruption::BadEscape => format!("{}\\q{}", &line[..2], &line[2..]),
        Corruption::DepthBomb => "[".repeat(BOMB_DEPTH) + &"]".repeat(BOMB_DEPTH),
        Corruption::TrailingGarbage => format!("{line} trailing"),
    }
}

/// Corrupts a seeded `share` of `lines` in place and returns the ground
/// truth: 0-based line numbers with their corruption kind, ascending.
pub fn corrupt_lines(lines: &mut [String], share: f64, rng: &mut Rng) -> Vec<(usize, Corruption)> {
    let threshold = (share * u32::MAX as f64) as u64;
    let mut truth = Vec::new();
    for (i, line) in lines.iter_mut().enumerate() {
        if rng.below(u32::MAX as u64) < threshold {
            let kind = CORRUPTIONS[rng.below(4) as usize];
            *line = corrupt(line, kind);
            truth.push((i, kind));
        }
    }
    truth
}

/// What the generator knows about the corpus before the program runs.
#[derive(Debug, Clone, Default)]
pub struct Truth {
    /// Record lines in the input (header excluded for CSV).
    pub docs: usize,
    /// Well-formed and satisfying the workload's schema.
    pub valid: usize,
    /// 0-based line numbers of well-formed records that violate the
    /// schema, ascending.
    pub invalid_lines: Vec<usize>,
    /// 0-based line numbers of malformed lines, ascending.
    pub bad_lines: Vec<usize>,
}

impl Truth {
    /// A corpus in which every record is well-formed and valid.
    fn all_valid(docs: usize) -> Truth {
        Truth {
            docs,
            valid: docs,
            invalid_lines: Vec::new(),
            bad_lines: Vec::new(),
        }
    }

    pub fn invalid(&self) -> usize {
        self.invalid_lines.len()
    }

    pub fn rejected(&self) -> usize {
        self.bad_lines.len()
    }
}

/// Where a workload's schema comes from.
#[derive(Debug, Clone)]
pub enum SchemaSource {
    /// A fixed schema document.
    Literal(&'static str),
    /// `jsonx infer --schema` over the batch input itself.
    InferInput,
    /// `jsonx infer --schema` over this NDJSON text (the clean Twitter
    /// prefix of `dirty-skew`, captured before corruption).
    InferFrom(String),
}

/// One generated workload, still in memory.
#[derive(Debug, Clone)]
pub struct Generated {
    pub name: &'static str,
    /// The text batch commands read: NDJSON, or header-led CSV.
    pub batch_text: String,
    pub csv: bool,
    /// The same records as NDJSON — what serve receives line by line and
    /// what the journaled commands read (the CLI refuses `--checkpoint`
    /// with `--format csv`). `None` when `batch_text` already is NDJSON.
    pub json_text: Option<String>,
    pub schema: SchemaSource,
    /// Commands run with `--on-error skip --quarantine Q`.
    pub tolerant: bool,
    pub truth: Truth,
}

fn join_lines(lines: &[String]) -> String {
    let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// GitHub-style events: the E14–E20 reference corpus. Payload shape
/// varies by event type; the inferred schema constrains every field.
fn events(seed: u64, docs: usize) -> Generated {
    let config = GithubConfig {
        seed,
        ..GithubConfig::default()
    };
    let lines: Vec<String> = github::events(&config, docs)
        .iter()
        .map(to_string)
        .collect();
    Generated {
        name: "events",
        batch_text: join_lines(&lines),
        csv: false,
        json_text: None,
        schema: SchemaSource::InferInput,
        tolerant: false,
        truth: Truth::all_valid(docs),
    }
}

/// Envelope schema for `wide`: two typed, required root fields.
const WIDE_SCHEMA: &str = r#"{"type":"object","properties":{"id":{"type":"integer"},"name":{"type":"string"}},"required":["id","name"]}"#;

/// E18's wide records: two fields anyone reads, a dozen chunky ones
/// nobody does. The seed moves ids and string lengths.
fn wide(seed: u64, docs: usize) -> Generated {
    let mut rng = Rng::new(seed);
    let base = rng.below(1_000_000) as i64;
    let mut text = String::with_capacity(docs * 800);
    for i in 0..docs as i64 {
        let id = base + i;
        write!(text, "{{\"id\":{id},\"name\":\"user{id}\"").unwrap();
        for k in 0..10i64 {
            let fill = 32 + rng.below(17) as usize;
            write!(
                text,
                ",\"field{k:02}\":\"{}-{}\"",
                id * 31 + k,
                "x".repeat(fill)
            )
            .unwrap();
        }
        write!(
            text,
            ",\"metrics\":[{id},{},{},{},{}],\"nested\":{{\"a\":{},\"b\":\"deep{}\",\"c\":[true,false]}}}}",
            id * 2,
            id * 3,
            id % 7,
            id % 11,
            id % 100,
            id % 13
        )
        .unwrap();
        text.push('\n');
    }
    Generated {
        name: "wide",
        batch_text: text,
        csv: false,
        json_text: None,
        schema: SchemaSource::Literal(WIDE_SCHEMA),
        tolerant: false,
        truth: Truth::all_valid(docs),
    }
}

const TINY_SCHEMA: &str = r#"{"type":"object","required":["id","actor"],"properties":{"id":{"type":"integer"},"actor":{"type":"string"},"score":{"type":"number"},"active":{"type":"boolean"},"note":{"type":"string"}}}"#;

const NOTES: [&str; 8] = [
    "checked-ok",
    "retry-later",
    "arrived-late",
    "duplicate",
    "brand-new",
    "on-hold",
    "delivered",
    "skipped",
];

/// Tiny CSV rows (~45 B): per-record fixed costs dominate. Every 7th
/// row quotes its cells, so the quoted-cell path of `CsvDecoder` runs
/// too. The JSON rendering decodes to the same values the CSV sniffer
/// produces (scores always carry a non-zero fraction, so neither side
/// can read one as an integer).
fn tiny(seed: u64, docs: usize) -> Generated {
    let mut rng = Rng::new(seed);
    let mut csv = String::with_capacity(docs * 48 + 32);
    let mut json = String::with_capacity(docs * 80);
    csv.push_str("id,actor,score,active,note\n");
    for i in 0..docs {
        let id = 1_000_000 + i as u64;
        let actor = rng.below(50_000);
        let whole = rng.below(1000);
        let frac = 1 + rng.below(99);
        let active = rng.below(2) == 1;
        let note = NOTES[rng.below(8) as usize];
        if i % 7 == 6 {
            // Quoted cells: the actor stays a string either way, and the
            // note carries a delimiter and an escaped quote.
            writeln!(
                csv,
                "{id},\"user{actor}\",{whole}.{frac:02},{active},\"{note}, \"\"{actor}\"\"\""
            )
            .unwrap();
            writeln!(
                json,
                "{{\"id\":{id},\"actor\":\"user{actor}\",\"score\":{whole}.{frac:02},\"active\":{active},\"note\":\"{note}, \\\"{actor}\\\"\"}}"
            )
            .unwrap();
        } else {
            writeln!(csv, "{id},user{actor},{whole}.{frac:02},{active},{note}").unwrap();
            writeln!(
                json,
                "{{\"id\":{id},\"actor\":\"user{actor}\",\"score\":{whole}.{frac:02},\"active\":{active},\"note\":\"{note}\"}}"
            )
            .unwrap();
        }
    }
    Generated {
        name: "tiny",
        batch_text: csv,
        csv: true,
        json_text: Some(json),
        schema: SchemaSource::Literal(TINY_SCHEMA),
        tolerant: false,
        truth: Truth::all_valid(docs),
    }
}

/// Share of `dirty-skew` records in the dense tail (E19's clustered skew).
const TAIL_SHARE: f64 = 0.15;
/// Share of `dirty-skew` lines the corruptor breaks.
const CORRUPT_SHARE: f64 = 0.01;

/// 85% tweets, then a 15% tail of dense nested high-type-noise records,
/// 1% of all lines corrupted. The schema is inferred from the clean
/// Twitter prefix, so tail records are well-formed but invalid.
fn dirty_skew(seed: u64, docs: usize) -> Generated {
    let tail = (docs as f64 * TAIL_SHARE) as usize;
    let head = docs - tail;
    let tweets = twitter::tweets(
        &TwitterConfig {
            seed,
            ..TwitterConfig::default()
        },
        head,
    );
    let dense = DialedGenerator::new(GeneratorConfig {
        seed,
        record_width: 10,
        optional_rate: 0.4,
        optional_fraction: 0.5,
        type_noise: 0.45,
        nesting_depth: 4,
        array_len: (6, 14),
        shape_variants: 6,
        shape_skew: 0.5,
    })
    .generate(tail);
    let mut lines: Vec<String> = tweets.iter().chain(&dense).map(to_string).collect();
    // The clean prefix is written before corruption so the schema never
    // sees a broken line.
    let clean_prefix = join_lines(&lines[..head]);
    let mut rng = Rng::new(seed ^ 0xD1B7);
    let bad = corrupt_lines(&mut lines, CORRUPT_SHARE, &mut rng);
    let bad_lines: Vec<usize> = bad.iter().map(|(i, _)| *i).collect();
    let bad_head = bad_lines.iter().filter(|i| **i < head).count();
    Generated {
        name: "dirty-skew",
        batch_text: join_lines(&lines),
        csv: false,
        json_text: None,
        schema: SchemaSource::InferFrom(clean_prefix),
        tolerant: true,
        truth: Truth {
            docs,
            valid: head - bad_head,
            invalid_lines: (head..docs)
                .filter(|i| bad_lines.binary_search(i).is_err())
                .collect(),
            bad_lines,
        },
    }
}

/// Builds the named workload from `seed`.
pub fn generate(name: &str, seed: u64, scale: Scale) -> Option<Generated> {
    match name {
        "events" => Some(events(seed, scale.events)),
        "wide" => Some(wide(seed, scale.wide)),
        "tiny" => Some(tiny(seed, scale.tiny)),
        "dirty-skew" => Some(dirty_skew(seed, scale.dirty_skew)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonx::syntax::{parse, CsvDecoder, RecordDecoder};

    fn sample_lines(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                format!("{{\"id\":{i},\"name\":\"caf\u{e9} {i}\",\"tags\":[1,2,{{\"k\":null}}]}}")
            })
            .collect()
    }

    #[test]
    fn corruptor_ground_truth_is_exact() {
        let mut lines = sample_lines(4000);
        let clean = lines.clone();
        let truth = corrupt_lines(&mut lines, 0.05, &mut Rng::new(9));
        assert!(truth.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        // Roughly the requested share, and every kind drawn.
        assert!(
            (120..=280).contains(&truth.len()),
            "{} corrupted",
            truth.len()
        );
        for kind in CORRUPTIONS {
            assert!(
                truth.iter().any(|(_, k)| *k == kind),
                "{kind:?} never drawn"
            );
        }
        let bad: Vec<usize> = truth.iter().map(|(i, _)| *i).collect();
        for (i, line) in lines.iter().enumerate() {
            assert!(!line.contains('\n'));
            if bad.binary_search(&i).is_ok() {
                assert!(
                    parse(line).is_err(),
                    "line {i} should be malformed: {line:.60}"
                );
            } else {
                assert_eq!(line, &clean[i], "line {i} must be untouched");
                assert!(parse(line).is_ok());
            }
        }
    }

    #[test]
    fn corruptor_is_seeded() {
        let run = |seed| {
            let mut lines = sample_lines(500);
            let truth = corrupt_lines(&mut lines, 0.1, &mut Rng::new(seed));
            (lines, truth)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).1, run(4).1);
    }

    #[test]
    fn dirty_skew_truth_adds_up() {
        let g = dirty_skew(5, 2000);
        let t = &g.truth;
        assert_eq!(t.valid + t.invalid() + t.rejected(), t.docs);
        assert_eq!(g.batch_text.lines().count(), t.docs);
        let head = t.docs - (t.docs as f64 * TAIL_SHARE) as usize;
        assert!(t.invalid_lines.iter().all(|i| *i >= head));
        assert!(t.rejected() > 0 && t.invalid() > 0);
        for (i, line) in g.batch_text.lines().enumerate() {
            assert_eq!(
                parse(line).is_err(),
                t.bad_lines.binary_search(&i).is_ok(),
                "line {i}"
            );
        }
        // The schema source is the clean prefix: no corrupted line in it.
        let SchemaSource::InferFrom(prefix) = &g.schema else {
            panic!("dirty-skew infers its schema from the clean prefix");
        };
        assert_eq!(prefix.lines().count(), head);
        assert!(prefix.lines().all(|l| parse(l).is_ok()));
    }

    #[test]
    fn tiny_csv_and_json_renderings_decode_alike() {
        let g = tiny(11, 700);
        let mut rows = g.batch_text.lines();
        let decoder = CsvDecoder::from_header(rows.next().unwrap()).unwrap();
        let json = g.json_text.as_deref().unwrap();
        let mut quoted = 0;
        for (row, line) in rows.zip(json.lines()) {
            let from_csv = decoder.decode_value(&mut decoder.scratch(), row).unwrap();
            assert_eq!(from_csv, parse(line).unwrap(), "{row}");
            quoted += usize::from(row.contains('"'));
        }
        assert_eq!(quoted, 100, "every 7th row quotes its cells");
    }

    #[test]
    fn generators_are_seeded() {
        for name in NAMES {
            let a = generate(name, 1, Scale::SMOKE).unwrap();
            let b = generate(name, 1, Scale::SMOKE).unwrap();
            let c = generate(name, 2, Scale::SMOKE).unwrap();
            assert_eq!(a.batch_text, b.batch_text, "{name}");
            assert_ne!(a.batch_text, c.batch_text, "{name}");
        }
    }
}
