//! The result file (one JSON document per run) and `compare`.

use crate::e2e::{Ops, Prepared};
use crate::layers::LayerMetrics;
use crate::metrics::{BESIDE_END_TO_END, END_TO_END, PER_LAYER};
use crate::stats::{median, Better, Summary};
use jsonx::{Object, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn num(value: f64) -> Value {
    // Non-finite values cannot be written as JSON; a metric that could
    // not be measured reads 0 next to `correct: false`.
    Value::from(if value.is_finite() { value } else { 0.0 })
}

fn count(value: u64) -> Value {
    Value::from(value as i64)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What the numbers were measured on.
pub fn machine(repo: &Path) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let mut m = Object::new();
    m.insert("nproc", count(nproc as u64));
    m.insert("kernel", Value::from(kernel));
    m.insert(
        "rustc",
        Value::from(
            command_line("rustc", &["--version"], repo).unwrap_or_else(|| "unknown".into()),
        ),
    );
    m.insert(
        "commit",
        Value::from(
            command_line("git", &["rev-parse", "HEAD"], repo).unwrap_or_else(|| "unknown".into()),
        ),
    );
    Value::Obj(m)
}

/// Everything one workload's run produced.
pub struct WorkloadResult {
    pub name: &'static str,
    pub corpus: Value,
    pub e2e: BTreeMap<&'static str, Summary>,
    pub layers: LayerMetrics,
    pub ops: Ops,
}

/// Corpus sizes, record counts and ground-truth counts of a workload.
pub fn corpus_facts(p: &Prepared) -> Value {
    let mut c = Object::new();
    c.insert("input_bytes", count(p.input_bytes));
    c.insert("json_bytes", count(p.json_bytes));
    c.insert("jxc_bytes", count(p.ref_jxc.len() as u64));
    c.insert("docs", count(p.truth.docs as u64));
    c.insert("valid", count(p.truth.valid as u64));
    c.insert("invalid", count(p.truth.invalid() as u64));
    c.insert("rejected", count(p.truth.rejected() as u64));
    Value::Obj(c)
}

impl WorkloadResult {
    fn to_json(&self) -> Value {
        let (mut e2e, mut beside) = (Object::new(), Object::new());
        for (defs, gated, into) in [
            (&END_TO_END[..], true, &mut e2e),
            (&BESIDE_END_TO_END[..], false, &mut beside),
        ] {
            for def in defs {
                let Some(s) = self.e2e.get(def.name) else {
                    continue;
                };
                let mut entry = Object::new();
                entry.insert("value", num(s.median));
                entry.insert("min", num(s.min));
                entry.insert("max", num(s.max));
                entry.insert("q1", num(s.q1));
                entry.insert("q3", num(s.q3));
                entry.insert("n", count(s.n as u64));
                let list = |values: &[f64]| Value::Arr(values.iter().map(|v| num(*v)).collect());
                entry.insert("samples", list(&s.samples));
                if !s.raw.is_empty() {
                    entry.insert("raw_median", num(median(&s.raw)));
                    entry.insert("raw_samples", list(&s.raw));
                }
                entry.insert("unit", Value::from(def.unit));
                entry.insert("better", Value::from(def.better.label()));
                if gated {
                    entry.insert("bound", num(def.bound));
                }
                into.insert(def.name, Value::Obj(entry));
            }
        }
        let mut layers = Object::new();
        for def in &PER_LAYER {
            let Some(value) = self.layers.get(def.name) else {
                continue;
            };
            let mut entry = Object::new();
            entry.insert("value", num(*value));
            entry.insert("unit", Value::from(def.unit));
            entry.insert("better", Value::from(def.better.label()));
            layers.insert(def.name, Value::Obj(entry));
        }
        let mut w = Object::new();
        w.insert("corpus", self.corpus.clone());
        w.insert("e2e", Value::Obj(e2e));
        w.insert("beside_e2e", Value::Obj(beside));
        w.insert("layers", Value::Obj(layers));
        w.insert("ops_attempted", count(self.ops.attempted));
        w.insert("ops_failed", count(self.ops.failed));
        w.insert("failed_share", num(self.ops.failed_share()));
        w.insert(
            "failures",
            Value::Arr(
                self.ops
                    .notes
                    .iter()
                    .map(|n| Value::from(n.as_str()))
                    .collect(),
            ),
        );
        Value::Obj(w)
    }

    /// The contract's last stdout line: `correct`, `attempted`, `failed`
    /// and exactly the end-to-end (`trace` off) or per-layer (`trace`
    /// on) metrics.
    pub fn contract_line(&self, trace: bool) -> String {
        let mut metrics = Object::new();
        let mut entry = |name: &str, value: f64, unit: &str| {
            let mut e = Object::new();
            e.insert("value", num(value));
            e.insert("unit", Value::from(unit));
            metrics.insert(name, Value::Obj(e));
        };
        let mut complete = true;
        if trace {
            for def in &PER_LAYER {
                let value = self.layers.get(def.name).copied();
                complete &= value.is_some_and(f64::is_finite);
                entry(def.name, value.unwrap_or(0.0), def.unit);
            }
        } else {
            for def in &END_TO_END {
                let value = self.e2e.get(def.name).map(|s| s.median);
                complete &= value.is_some_and(|v| v.is_finite() && v != 0.0);
                entry(def.name, value.unwrap_or(0.0), def.unit);
            }
        }
        let mut line = Object::new();
        line.insert("correct", Value::from(self.ops.failed == 0 && complete));
        line.insert("attempted", count(self.ops.attempted.max(1)));
        line.insert("failed", count(self.ops.failed));
        line.insert("metrics", Value::Obj(metrics));
        jsonx::syntax::to_string(&Value::Obj(line))
    }

    /// Whether every check passed and every metric was measured.
    pub fn correct(&self) -> bool {
        self.ops.failed == 0
    }

    /// The human-readable table: every metric by name with its unit.
    pub fn print_table(&self) {
        println!(
            "== {} == ops {} attempted, {} failed (failed_share {:.6})",
            self.name,
            self.ops.attempted,
            self.ops.failed,
            self.ops.failed_share()
        );
        for def in END_TO_END.iter().chain(&BESIDE_END_TO_END) {
            if let Some(s) = self.e2e.get(def.name) {
                let raw = if s.raw.is_empty() {
                    String::new()
                } else {
                    format!(", raw median {:.4}", median(&s.raw))
                };
                println!(
                    "  {:<32} {:>14.4} {:<9} (q1 {:.4}, q3 {:.4}, min {:.4}, max {:.4}, n {}{raw})",
                    def.name, s.median, def.unit, s.q1, s.q3, s.min, s.max, s.n
                );
            }
        }
        for def in &PER_LAYER {
            if let Some(value) = self.layers.get(def.name) {
                println!("  {:<32} {:>14.4} {}", def.name, value, def.unit);
            }
        }
        for note in &self.ops.notes {
            println!("  FAILED {note}");
        }
    }
}

/// The whole run as one JSON document.
pub fn result_document(
    machine: Value,
    seed: u64,
    seconds: f64,
    smoke: bool,
    build_s: f64,
    workloads: &[WorkloadResult],
) -> String {
    let mut per = Object::new();
    for w in workloads {
        per.insert(w.name, w.to_json());
    }
    let mut doc = Object::new();
    doc.insert("machine", machine);
    doc.insert("seed", count(seed));
    doc.insert("seconds", num(seconds));
    doc.insert("smoke", Value::from(smoke));
    doc.insert("build_s", num(build_s));
    doc.insert("workloads", Value::Obj(per));
    jsonx::syntax::to_string_pretty(&Value::Obj(doc)) + "\n"
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

/// How a metric of run B stands against run A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The within-run spread of either side is wider than the bound, so
    /// the difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Relative change of `b` against `a`, signed so that positive is worse.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

/// `a`/`b` are the reported values, `spread` the wider of the two runs'
/// own [`Summary::spread`]s.
pub fn judge(a: f64, b: f64, spread: f64, better: Better, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worsening(a, b, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn summary_of(entry: &Value) -> Option<Summary> {
    Some(Summary {
        median: entry.get("value")?.as_f64()?,
        min: entry.get("min")?.as_f64()?,
        max: entry.get("max")?.as_f64()?,
        q1: entry.get("q1")?.as_f64()?,
        q3: entry.get("q3")?.as_f64()?,
        n: entry.get("n")?.as_i64()? as usize,
        samples: Vec::new(),
        raw: Vec::new(),
    })
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    jsonx::syntax::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints, per workload row, each end-to-end metric's medians, relative
/// change, bound and verdict. Returns whether nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |doc: &Value| doc.get("workloads").and_then(|w| w.as_object().cloned());
    let (wa, wb) = (
        workloads(&a).ok_or(format!("{path_a}: no workloads"))?,
        workloads(&b).ok_or(format!("{path_b}: no workloads"))?,
    );
    let mut clean = true;
    println!(
        "{:<11} {:<26} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for (name, entry_a) in wa.iter() {
        let Some(entry_b) = wb.get(name) else {
            println!("{name:<11} (missing from {path_b})");
            clean = false;
            continue;
        };
        for def in &END_TO_END {
            let side = |w: &Value| w.get("e2e")?.get(def.name).and_then(summary_of);
            let (Some(sa), Some(sb)) = (side(entry_a), side(entry_b)) else {
                continue;
            };
            let (va, vb) = (sa.median, sb.median);
            let spread = sa.spread().max(sb.spread());
            let verdict = judge(va, vb, spread, def.better, def.bound);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{:<11} {:<26} {:>14.4} {:>14.4} {:>+8.2}% {:>5.0}%  {}",
                name,
                def.name,
                va,
                vb,
                // Shown in the metric's own direction: + is more.
                if va == 0.0 {
                    0.0
                } else {
                    (vb - va) / va * 100.0
                },
                def.bound * 100.0,
                verdict.label()
            );
        }
        let failed = |w: &Value| w.get("ops_failed").and_then(|v| v.as_i64()).unwrap_or(0);
        if failed(entry_b) > failed(entry_a) {
            println!(
                "{name:<11} ops_failed rose from {} to {}: regressed",
                failed(entry_a),
                failed(entry_b)
            );
            clean = false;
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(2.0, 2.5, Better::Lower) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn judge_separates_ok_regressed_and_unresolved() {
        let judge = |b, spread| judge(100.0, b, spread, Better::Higher, 0.10);
        assert_eq!(judge(95.0, 0.02), Verdict::Ok);
        assert_eq!(judge(85.0, 0.02), Verdict::Regressed);
        // An improvement is never a regression.
        assert_eq!(judge(150.0, 0.02), Verdict::Ok);
        // The runs' own samples are wider apart than the bound: cannot tell.
        assert_eq!(judge(85.0, 0.30), Verdict::Unresolved);
    }
}
