//! The reference process: what a timed sample is read against.
//!
//! The benchmark runs on a few cores of a shared host whose speed is not
//! stationary: for half a minute or for minutes at a time every command
//! takes 15–40% longer, then the machine recovers (README, "Steadiness").
//! A run of half a minute can sit wholly inside such a stretch, so no
//! statistic of its own raw timings can tell a slow machine from a slow
//! program. What can is a piece of work that never changes, timed at the
//! same moments: the reference process below, run right before and right
//! after every timed sample, through the same launcher. A sample is
//! reported as if the machine had run the reference in its nominal time.
//!
//! The reference is this harness's own code and calls nothing of `jsonx`,
//! so a change to the program under test cannot move it. It is shaped
//! like the program's work, because different interference slows
//! different things: it is a fresh process (exec, page faults), reads a
//! file, scans bytes and sniffs scalars, allocates a string per distinct
//! cell, interns tens of thousands of cells in hash tables, appends to
//! columns on as many threads as the timed commands have workers, and
//! writes a file.

use crate::e2e::WORKERS;
use crate::proc::run_timed;
use crate::workloads::Rng;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Hidden subcommand the harness re-executes itself with:
/// `exec-probe INPUT OUTPUT`.
pub const PROBE: &str = "exec-probe";

/// Wall time of the reference process on the 2-vCPU box the benchmark
/// was written on, undisturbed. Only a scale: it makes a normalised
/// number read like a raw one on that box.
pub const NOMINAL_S: f64 = 0.025;

/// Records of the reference input. Fixed, like its seed: the reference
/// must be the same work on every run of every seed.
const RECORDS: usize = 30_000;
const SEED: u64 = 0x5EED_7E57;

/// The reference input: CSV-like records with integer, decimal, boolean,
/// low- and high-cardinality string cells.
fn input_text() -> String {
    let mut rng = Rng::new(SEED);
    let mut text = String::with_capacity(RECORDS * 72);
    for i in 0..RECORDS {
        let pad = "abcdefghijklmnopqrstuvwxyz012345";
        writeln!(
            text,
            "{},user{},{}.{:02},{},tag-{},{}-{}",
            1_000_000 + i,
            rng.below(30_000),
            rng.below(10_000),
            rng.below(100),
            rng.below(2) == 1,
            rng.below(64),
            &pad[..8 + rng.below(24) as usize],
            rng.below(1 << 40),
        )
        .expect("writing to a String");
    }
    text
}

/// Lines a worker claims at a time. The workers share the input the way
/// the engine's workers do — whoever is free takes the next block — so a
/// CPU that is busy elsewhere for a while costs the reference what it
/// costs a timed command, not the whole of a fixed half.
const BLOCK: usize = 256;

/// One worker: claim blocks until none is left; sniff every cell, intern
/// the strings, append to columns; then render dictionary and codes.
fn digest(lines: &[&str], next_block: &AtomicUsize) -> Vec<u8> {
    let mut ints: Vec<i64> = Vec::new();
    let mut floats: Vec<f64> = Vec::new();
    let mut bools: Vec<bool> = Vec::new();
    let mut codes: Vec<u32> = Vec::new();
    let mut dictionary: HashMap<String, u32> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    loop {
        // Relaxed: the counter hands out indices and publishes nothing.
        let start = next_block.fetch_add(1, Ordering::Relaxed) * BLOCK;
        if start >= lines.len() {
            break;
        }
        let block = &lines[start..lines.len().min(start + BLOCK)];
        for cell in block.iter().flat_map(|line| line.split(',')) {
            if let Ok(n) = cell.parse::<i64>() {
                ints.push(n);
            } else if let Ok(x) = cell.parse::<f64>() {
                floats.push(x);
            } else if let Ok(b) = cell.parse::<bool>() {
                bools.push(b);
            } else if let Some(code) = dictionary.get(cell) {
                codes.push(*code);
            } else {
                let code = order.len() as u32;
                dictionary.insert(cell.to_string(), code);
                order.push(cell.to_string());
                codes.push(code);
            }
        }
    }
    let mut out = Vec::new();
    for n in &ints {
        out.extend_from_slice(&n.to_le_bytes());
    }
    for x in &floats {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.extend(bools.iter().map(|b| u8::from(*b)));
    for code in &codes {
        out.extend_from_slice(&code.to_le_bytes());
    }
    for cell in &order {
        out.extend_from_slice(cell.as_bytes());
        out.push(b'\n');
    }
    out
}

/// The reference process itself.
pub fn probe_main(args: &[String]) -> std::io::Result<()> {
    let [input, output] = args else {
        return Err(std::io::Error::other("exec-probe: INPUT OUTPUT"));
    };
    let text = std::fs::read_to_string(input)?;
    let lines: Vec<&str> = text.lines().collect();
    let next_block = AtomicUsize::new(0);
    let parts: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|_| scope.spawn(|| digest(&lines, &next_block)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference worker panicked"))
            .collect()
    });
    std::fs::write(output, parts.concat())
}

/// How long a run keeps the CPUs busy before it times anything. After a
/// pause of a few seconds this box runs everything at about 0.6 of its
/// speed until it has seen 1.5–2 s of load, and the short reference
/// process feels that more than a long command does; a run that starts
/// right after an idle stretch (the end of a per-layer pass is mostly
/// waiting on the daemon) would time its set-ups and first round there.
pub const WARM_UP: Duration = Duration::from_secs(2);

/// Spins on as many threads as the timed commands have workers.
fn keep_busy(duration: Duration) {
    let until = Instant::now() + duration;
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < until {
                    for i in 0..10_000u64 {
                        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
                    }
                }
            });
        }
    });
}

/// Times the reference process around samples.
pub struct Gauge {
    input: PathBuf,
    output: PathBuf,
    scratch: PathBuf,
    /// Wall of the latest reference run, seconds.
    latest: f64,
    /// Machine speed at every sample taken, in the order taken.
    pub speeds: Vec<f64>,
}

impl Gauge {
    /// Warms the machine up, writes the reference input under `scratch`
    /// and takes the first reference run (after one to warm the file and
    /// the binary).
    pub fn new(scratch: &Path, warm_up: Duration) -> Result<Gauge, String> {
        keep_busy(warm_up);
        let input = scratch.join("reference.csv");
        std::fs::write(&input, input_text())
            .map_err(|e| format!("writing {}: {e}", input.display()))?;
        crate::e2e::settle(&input);
        let mut gauge = Gauge {
            input,
            output: scratch.join("reference.out"),
            scratch: scratch.to_path_buf(),
            latest: 0.0,
            speeds: Vec::new(),
        };
        gauge.run()?;
        gauge.latest = gauge.run()?;
        Ok(gauge)
    }

    fn run(&self) -> Result<f64, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg(PROBE).arg(&self.input).arg(&self.output);
        let done =
            run_timed(&mut cmd, &self.scratch).map_err(|e| format!("reference process: {e}"))?;
        if done.code != Some(0) {
            return Err(format!("reference process failed: {}", done.summary()));
        }
        Ok(done.wall.as_secs_f64())
    }

    /// Runs `sample` between two reference runs (the one before is the
    /// one after the previous sample) and returns what it returned with
    /// the machine's speed around it: nominal reference time over the
    /// mean of the two reference times — 1 on the undisturbed reference
    /// box, 0.8 when everything takes a quarter longer.
    pub fn around<R>(&mut self, sample: impl FnOnce() -> R) -> Result<(R, f64), String> {
        let before = self.latest;
        let result = sample();
        self.latest = self.run()?;
        let speed = NOMINAL_S / ((before + self.latest) / 2.0);
        self.speeds.push(speed);
        Ok((result, speed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_fixed_and_covers_every_cell_kind() {
        let text = input_text();
        assert_eq!(text, input_text());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), RECORDS);
        let once = |lines: &[&str]| digest(lines, &AtomicUsize::new(0));
        let out = once(&lines[..1000]);
        // 1000 ints, floats and bools; 3000 string cells coded in 4 bytes
        // each; the dictionary text follows.
        assert!(out.len() > 1000 * (8 + 8 + 1) + 3000 * 4);
        assert_eq!(out, once(&lines[..1000]));
    }
}
