//! `jsonx cat` on the frozen `.jxc` fixtures, byte for byte.
//!
//! `tests/fixtures/golden_cat/F.MODE.{out,err}` hold the stdout and
//! stderr of `jsonx cat crates/translate/tests/fixtures/F.jxc` as the
//! binary printed them while it still rendered each row through a JSON
//! value (`rows_as_values` / `flatten_rows`, then `to_string`). Every
//! mode must exit 0 and print exactly those bytes: the rows, the schema
//! line, the per-column report and the `showing N` count.

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
