//! Drives the whole harness once at `--smoke` scale: builds `jsonx`,
//! generates a workload, runs the end-to-end and the per-layer pass and
//! every output check, in seconds.

use std::process::Command;

fn smoke(workload: &str, trace: &str, seed: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--smoke", "--seconds", "1", "--seed", seed])
        .args(["--workload", workload, "--trace", trace])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = jsonx::syntax::parse(last).expect("the last line is one JSON object");
    assert_eq!(result.get("correct").and_then(|c| c.as_bool()), Some(true));
    assert_eq!(result.get("failed").and_then(|f| f.as_i64()), Some(0));
    let metrics = result.get("metrics").and_then(|m| m.as_object()).unwrap();
    let expected = if trace == "1" { 57 } else { 12 };
    assert_eq!(metrics.len(), expected, "{last}");
}

/// The workload with rejects, invalid verdicts and a quarantine sidecar.
#[test]
fn dirty_skew_end_to_end() {
    smoke("dirty-skew", "0", "7");
}

/// The CSV workload through the composed per-layer passes.
#[test]
fn tiny_per_layer() {
    smoke("tiny", "1", "8");
}
