//! # jsonx-bench
//!
//! The benchmark harness for the tutorial's surveyed claims: one
//! Criterion target per experiment in `EXPERIMENTS.md` (E1–E13, plus the
//! A1 ablations; the engine's own performance is measured by the
//! `benchmark/` package `BENCHMARK.json` declares). Each bench first prints the table or series
//! the corresponding surveyed evaluation reports (so `cargo bench` output
//! is self-contained), then measures the hot operations with Criterion.
//!
//! Run everything with `cargo bench --workspace`, or a single experiment
//! with e.g. `cargo bench -p jsonx-bench --bench e09_mison_projection`.

/// Shared Criterion configuration: short measurement windows so the full
/// suite completes in minutes while staying stable enough
/// for the shape-level comparisons the experiments make.
pub fn criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_millis(800))
        .warm_up_time(std::time::Duration::from_millis(300))
        .configure_from_args()
}

/// Prints a table header for the experiment's printed series.
pub fn banner(id: &str, claim: &str) {
    println!("\n================================================================");
    println!("{id}: {claim}");
    println!("================================================================");
}
