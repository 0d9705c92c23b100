//! `jsonx cat` on the frozen `.jxc` fixtures, byte for byte.
//!
//! `tests/fixtures/golden_cat/F.MODE.{out,err}` hold the stdout and
//! stderr of `jsonx cat crates/translate/tests/fixtures/F.jxc` as the
//! binary printed them while it still rendered each row through a JSON
//! value (`rows_as_values` / `flatten_rows`, then `to_string`). Every
//! mode must exit 0 and print exactly those bytes: the rows, the schema
//! line, the per-column report and the `showing N` count.
//!
//! `damaged.CASE.{out,err,exit}` hold what `cat` printed, and its exit
//! code, on damaged copies of `golden_large.jxc` — a cut inside the
//! trailer, one flipped byte in the last column block, one in the
//! footer — and on a file that is not `.jxc` and an empty one, recorded
//! by the binary that still read the whole file before checking a byte.

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_jsonx");

const FIXTURES: [&str; 4] = ["golden", "golden_empty", "golden_handbuilt", "golden_large"];

const MODES: [(&str, &[&str]); 4] = [
    ("default", &[]),
    ("head0", &["--head", "0"]),
    ("head3", &["--head", "3"]),
    ("flatten", &["--flatten"]),
];

#[test]
fn cat_prints_the_golden_bytes_for_every_fixture_and_mode() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("tests/fixtures/golden_cat");
    for fixture in FIXTURES {
        let jxc = root.join(format!("crates/translate/tests/fixtures/{fixture}.jxc"));
        for (mode, flags) in MODES {
            let run = Command::new(BIN)
                .arg("cat")
                .arg(&jxc)
                .args(flags)
                .output()
                .expect("spawn jsonx");
            assert_eq!(run.status.code(), Some(0), "{fixture} {mode}");
            for (stream, got) in [("out", &run.stdout), ("err", &run.stderr)] {
                let path = golden.join(format!("{fixture}.{mode}.{stream}"));
                let want = std::fs::read(&path)
                    .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
                assert!(
                    *got == want,
                    "{fixture} {mode} std{stream} differs from {}:\n{}",
                    path.display(),
                    String::from_utf8_lossy(got)
                );
            }
        }
    }
}

/// The damaged copies of `good` (a complete `.jxc` image) the
/// `damaged.*` goldens were recorded on, by name.
fn damaged(good: &[u8], not_jxc: &[u8]) -> [(&'static str, Vec<u8>); 5] {
    let len = good.len();
    let footer = u64::from_le_bytes(good[len - 12..len - 4].try_into().unwrap()) as usize;
    let flipped = |at: usize| {
        let mut bytes = good.to_vec();
        bytes[at] ^= 1;
        bytes
    };
    [
        ("trailer_cut", good[..len - 6].to_vec()),
        // The last column block ends where the footer starts.
        ("last_block_flip", flipped(footer - 1)),
        ("footer_flip", flipped(footer + 8)),
        ("not_jxc", not_jxc.to_vec()),
        ("empty", Vec::new()),
    ]
}

#[test]
fn cat_prints_the_golden_bytes_for_every_damaged_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("tests/fixtures/golden_cat");
    let fixtures = root.join("crates/translate/tests/fixtures");
    let good = std::fs::read(fixtures.join("golden_large.jxc")).unwrap();
    let not_jxc = std::fs::read(fixtures.join("golden.ndjson")).unwrap();
    let dir = std::env::temp_dir().join(format!("jsonx-golden-cat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (case, bytes) in damaged(&good, &not_jxc) {
        let jxc = dir.join(format!("{case}.jxc"));
        std::fs::write(&jxc, bytes).unwrap();
        let run = Command::new(BIN)
            .arg("cat")
            .arg(&jxc)
            .output()
            .expect("spawn jsonx");
        let read = |stream: &str| {
            let path = golden.join(format!("damaged.{case}.{stream}"));
            std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
        };
        let exit = format!("{}\n", run.status.code().expect("an exit code"));
        for (stream, got) in [
            ("out", &run.stdout),
            ("err", &run.stderr),
            ("exit", &exit.into_bytes()),
        ] {
            assert!(
                *got == read(stream),
                "{case} {stream} differs from the golden:\n{}",
                String::from_utf8_lossy(got)
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
