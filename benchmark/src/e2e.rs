//! End-to-end measurement: set-up (corpus, schema, reference outputs),
//! then the timed CLI invocations and daemon load, each checked on
//! every run. Everything here goes through the CLI's flags and the
//! serve wire protocol only.

use crate::probe::Gauge;
use crate::proc::{run_timed, Daemon, Finished, Placement};
use crate::serve::{self, Expect, Mix, Target, Traffic};
use crate::stats::Summary;
use crate::workloads::{Generated, SchemaSource, Truth};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Fixed chunk size for every batch command, so chunk and journal record
/// counts repeat exactly.
pub const CHUNK_BYTES: usize = 1 << 20;
/// Rows `jsonx cat` is asked to print.
const CAT_HEAD: usize = 1000;
/// Fixed open-loop rate for `serve_p50_us` / `serve_p99_us`.
pub const OPEN_LOOP_RATE: f64 = 5000.0;
/// `--workers` of every timed batch command, and connections (one
/// generator thread each) of daemon load: both sized to `nproc` of the
/// 2-core reference box.
pub const WORKERS: usize = 2;
pub const LOAD_CONNS: usize = 2;

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// Where the program under test and the scratch files live.
pub struct Env {
    pub jsonx: PathBuf,
    /// CPU split between load generator and daemon, when there are CPUs
    /// to split.
    pub placement: Option<Placement>,
    /// Scratch directory under `benchmark/out/`, removed on success.
    pub out: PathBuf,
}

/// Operation accounting: an op is one CLI invocation or one serve
/// request; it fails on any check it does not pass.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
}

impl Ops {
    const MAX_NOTES: usize = 20;

    /// Records one op; `problems` empty means it passed.
    pub fn record(&mut self, what: &str, problems: &[String]) -> bool {
        self.attempted += 1;
        if problems.is_empty() {
            return true;
        }
        self.failed += 1;
        if self.notes.len() < Self::MAX_NOTES {
            self.notes.push(format!("{what}: {}", problems.join("; ")));
        }
        false
    }

    /// Records many ops at once (serve requests).
    pub fn record_many(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.notes.len() < Self::MAX_NOTES {
            self.notes
                .push(format!("{what}: {failed} of {attempted} requests failed"));
        }
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A workload on disk with everything its checks compare against.
pub struct Prepared {
    pub name: &'static str,
    pub csv: bool,
    pub tolerant: bool,
    pub truth: Truth,
    /// What batch commands read.
    pub input: PathBuf,
    pub input_bytes: u64,
    /// The NDJSON rendering: what journaled commands and serve read
    /// (the same file as `input` unless the workload is CSV).
    pub json_input: PathBuf,
    pub json_bytes: u64,
    pub schema: PathBuf,
    /// The NDJSON text, kept for serve traffic.
    pub ndjson: String,
    /// Batch verdict per NDJSON line.
    pub expect: Vec<Expect>,
    pub ref_infer: Vec<u8>,
    pub ref_jxc: Vec<u8>,
    pub ref_cat: Vec<u8>,
}

/// The three batch stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    Infer,
    Validate,
    Translate,
}

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Infer => "infer",
            Stage::Validate => "validate",
            Stage::Translate => "translate",
        }
    }
}

/// Journal flags of one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Journal {
    Off,
    Fresh,
    Resume,
}

impl Prepared {
    fn quarantine_path(&self, env: &Env) -> PathBuf {
        env.out.join("quarantine.ndjson")
    }

    pub fn jxc_path(&self, env: &Env) -> PathBuf {
        env.out.join("T.jxc")
    }

    pub fn journal_path(&self, env: &Env) -> PathBuf {
        env.out.join("run.journal")
    }

    /// The out-of-core command line every timed batch run uses:
    /// `--input FILE --workers W --chunk-bytes 1048576`, plus the
    /// workload's format and fault flags.
    pub fn batch_command(
        &self,
        env: &Env,
        stage: Stage,
        workers: usize,
        journal: Journal,
    ) -> Command {
        let mut cmd = Command::new(&env.jsonx);
        cmd.arg(stage.name());
        match stage {
            Stage::Infer => {
                cmd.arg("--schema");
            }
            Stage::Validate => {
                cmd.arg("--schema").arg(&self.schema);
            }
            Stage::Translate => {
                cmd.arg("--out").arg(self.jxc_path(env));
            }
        }
        // The CLI refuses --checkpoint with --format csv, so journaled
        // runs of a CSV workload read its NDJSON rendering.
        if journal == Journal::Off && self.csv {
            cmd.args(["--format", "csv"])
                .arg("--input")
                .arg(&self.input);
        } else if journal == Journal::Off {
            cmd.arg("--input").arg(&self.input);
        } else {
            cmd.arg("--input").arg(&self.json_input);
            cmd.arg("--checkpoint").arg(self.journal_path(env));
            if journal == Journal::Resume {
                cmd.arg("--resume");
            }
        }
        cmd.arg("--workers").arg(workers.to_string());
        cmd.arg("--chunk-bytes").arg(CHUNK_BYTES.to_string());
        self.fault_flags(env, &mut cmd);
        cmd
    }

    fn fault_flags(&self, env: &Env, cmd: &mut Command) {
        if self.tolerant {
            cmd.args(["--on-error", "skip", "--quarantine"])
                .arg(self.quarantine_path(env));
        }
    }

    /// Bytes of the file an invocation with these journal flags reads.
    pub fn bytes_read(&self, journal: Journal) -> u64 {
        if journal == Journal::Off {
            self.input_bytes
        } else {
            self.json_bytes
        }
    }

    /// The in-memory, single-worker command set-up derives references
    /// with (`--no-fast-parse` for validate/translate).
    fn reference_command(&self, env: &Env, stage: Stage, jxc: &Path) -> Command {
        let mut cmd = Command::new(&env.jsonx);
        cmd.arg(stage.name());
        match stage {
            Stage::Infer => {
                cmd.arg("--schema");
            }
            Stage::Validate => {
                cmd.arg("--schema").arg(&self.schema).arg("--no-fast-parse");
            }
            Stage::Translate => {
                cmd.arg("--out").arg(jxc).arg("--no-fast-parse");
            }
        }
        if self.csv {
            cmd.args(["--format", "csv"]);
        }
        cmd.args(["--workers", "1"]);
        self.fault_flags(env, &mut cmd);
        cmd.arg(&self.input);
        cmd
    }
}

// ---------------------------------------------------------------------------
// Output parsing
// ---------------------------------------------------------------------------

/// `(valid, total, rejected)` from validate's `» V/T documents valid …`.
fn parse_validate_summary(stderr: &str) -> Option<(usize, usize, usize)> {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("» ") && l.contains(" documents valid"))?;
    let (counts, rest) = line.strip_prefix("» ")?.split_once(' ')?;
    let (valid, total) = counts.split_once('/')?;
    let rejected = match rest.rsplit_once(", ") {
        Some((_, tail)) if tail.ends_with(" rejected") => {
            tail.strip_suffix(" rejected")?.parse().ok()?
        }
        _ => 0,
    };
    Some((valid.parse().ok()?, total.parse().ok()?, rejected))
}

/// The distinct `doc N` numbers on validate's stdout, in output order.
fn parse_doc_list(stdout: &[u8]) -> Vec<usize> {
    let mut docs: Vec<usize> = Vec::new();
    for line in String::from_utf8_lossy(stdout).lines() {
        let n = line
            .strip_prefix("doc ")
            .and_then(|r| r.split_once(':'))
            .and_then(|(n, _)| n.parse().ok());
        if let Some(n) = n {
            if docs.last() != Some(&n) {
                docs.push(n);
            }
        }
    }
    docs
}

/// Rows from cat's `» C columns x R rows, showing K`.
fn parse_cat_rows(stderr: &str) -> Option<usize> {
    let line = stderr.lines().rev().find(|l| l.contains(" columns x "))?;
    let (_, rest) = line.split_once(" columns x ")?;
    rest.split_once(" rows")?.0.parse().ok()
}

/// `(0-based line, kind)` per diagnostic of a quarantine sidecar.
fn read_quarantine(path: &Path) -> Result<Vec<(usize, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .map(|l| {
            let v = jsonx::syntax::parse(l).map_err(|e| format!("quarantine line: {e}"))?;
            let line = v.get("line").and_then(|n| n.as_i64());
            let kind = v.get("kind").and_then(|k| k.as_str());
            match (line, kind) {
                (Some(line), Some(kind)) if line >= 1 => Ok((line as usize - 1, kind.to_string())),
                _ => Err(format!("quarantine line without line/kind: {l:.80}")),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Per-invocation checks
// ---------------------------------------------------------------------------

fn check_code(run: &Finished, want: i32, problems: &mut Vec<String>) {
    if run.code != Some(want) {
        problems.push(format!(
            "exit code {:?}, expected {want} ({})",
            run.code,
            run.summary()
        ));
    }
}

impl Prepared {
    fn check_quarantine(&self, env: &Env, problems: &mut Vec<String>) {
        if !self.tolerant {
            return;
        }
        match read_quarantine(&self.quarantine_path(env)) {
            Ok(diags) => {
                let lines: Vec<usize> = diags.iter().map(|(l, _)| *l).collect();
                if lines != self.truth.bad_lines {
                    problems.push(format!(
                        "quarantine names {} lines, ground truth {}",
                        lines.len(),
                        self.truth.bad_lines.len()
                    ));
                }
            }
            Err(e) => problems.push(e),
        }
    }

    fn check_infer(&self, env: &Env, run: &Finished) -> Vec<String> {
        let mut problems = Vec::new();
        check_code(run, 0, &mut problems);
        if run.stdout != self.ref_infer {
            problems.push("inferred schema differs from the reference".into());
        }
        self.check_quarantine(env, &mut problems);
        problems
    }

    fn check_validate(&self, env: &Env, run: &Finished) -> Vec<String> {
        let mut problems = Vec::new();
        let truth = &self.truth;
        check_code(run, i32::from(truth.invalid() > 0), &mut problems);
        let want = (truth.valid, truth.valid + truth.invalid(), truth.rejected());
        match parse_validate_summary(&run.stderr) {
            Some(got) if got == want => {}
            got => problems.push(format!(
                "valid/total/rejected {got:?}, ground truth {want:?}"
            )),
        }
        if parse_doc_list(&run.stdout) != truth.invalid_lines {
            problems.push("invalid document numbers differ from ground truth".into());
        }
        self.check_quarantine(env, &mut problems);
        problems
    }

    fn check_translate(&self, env: &Env, run: &Finished) -> Vec<String> {
        let mut problems = Vec::new();
        check_code(run, 0, &mut problems);
        match std::fs::read(self.jxc_path(env)) {
            Ok(bytes) if bytes == self.ref_jxc => {}
            Ok(bytes) => problems.push(format!(
                ".jxc differs from the reference ({} vs {} bytes)",
                bytes.len(),
                self.ref_jxc.len()
            )),
            Err(e) => problems.push(format!("reading .jxc: {e}")),
        }
        self.check_quarantine(env, &mut problems);
        problems
    }

    fn check_cat(&self, run: &Finished) -> Vec<String> {
        let mut problems = Vec::new();
        check_code(run, 0, &mut problems);
        let want = self.truth.docs - self.truth.rejected();
        if parse_cat_rows(&run.stderr) != Some(want) {
            problems.push(format!(
                "cat rows {:?}, expected {want}",
                parse_cat_rows(&run.stderr)
            ));
        }
        if run.stdout != self.ref_cat {
            problems.push("cat output differs from the reference".into());
        }
        problems
    }

    pub fn check(&self, env: &Env, stage: Stage, run: &Finished) -> Vec<String> {
        match stage {
            Stage::Infer => self.check_infer(env, run),
            Stage::Validate => self.check_validate(env, run),
            Stage::Translate => self.check_translate(env, run),
        }
    }

    pub fn cat_command(&self, env: &Env, jxc: &Path) -> Command {
        let mut cmd = Command::new(&env.jsonx);
        cmd.arg("cat")
            .arg(jxc)
            .arg("--head")
            .arg(CAT_HEAD.to_string());
        cmd
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Flushes a file the harness or the program just wrote. Left dirty, its
/// pages would be written back seconds later, in the middle of whichever
/// timed command runs then — the benchmark's own I/O would be the
/// loudest noise on the box.
pub fn settle(path: &Path) {
    if let Ok(file) = std::fs::File::open(path) {
        let _ = file.sync_all();
    }
}

fn write_file(path: &Path, text: &str) -> Result<u64, String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    settle(path);
    Ok(text.len() as u64)
}

fn run(cmd: &mut Command, env: &Env) -> Result<Finished, String> {
    run_timed(cmd, &env.out).map_err(|e| format!("running jsonx: {e}"))
}

/// Writes the workload's files, derives its schema and reference
/// outputs through the in-memory single-worker CLI path, and checks the
/// references against the generator's ground truth.
pub fn prepare(env: &Env, generated: Generated, ops: &mut Ops) -> Result<Prepared, String> {
    let name = generated.name;
    let ext = if generated.csv { "csv" } else { "ndjson" };
    let input = env.out.join(format!("{name}.{ext}"));
    let input_bytes = write_file(&input, &generated.batch_text)?;
    let (json_input, json_bytes) = match &generated.json_text {
        Some(json) => {
            let path = env.out.join(format!("{name}.ndjson"));
            let bytes = write_file(&path, json)?;
            (path, bytes)
        }
        None => (input.clone(), input_bytes),
    };
    let schema = env.out.join(format!("{name}.schema.json"));
    let ndjson = match generated.json_text {
        Some(json) => json,
        None => generated.batch_text,
    };
    let mut p = Prepared {
        name,
        csv: generated.csv,
        tolerant: generated.tolerant,
        truth: generated.truth,
        input,
        input_bytes,
        json_input,
        json_bytes,
        schema,
        ndjson,
        expect: Vec::new(),
        ref_infer: Vec::new(),
        ref_jxc: Vec::new(),
        ref_cat: Vec::new(),
    };

    // Reference inference; for `events` its output is also the schema.
    let ref_jxc_path = env.out.join("REF.jxc");
    let infer = run(
        &mut p.reference_command(env, Stage::Infer, &ref_jxc_path),
        env,
    )?;
    let mut problems = Vec::new();
    check_code(&infer, 0, &mut problems);
    ops.record("set-up infer", &problems);
    p.ref_infer = infer.stdout;
    match &generated.schema {
        SchemaSource::Literal(text) => {
            write_file(&p.schema, text)?;
        }
        SchemaSource::InferInput => {
            std::fs::write(&p.schema, &p.ref_infer).map_err(|e| e.to_string())?;
        }
        SchemaSource::InferFrom(prefix) => {
            let prefix_path = env.out.join(format!("{name}.prefix.ndjson"));
            write_file(&prefix_path, prefix)?;
            let mut cmd = Command::new(&env.jsonx);
            cmd.args(["infer", "--schema", "--workers", "1"])
                .arg(&prefix_path);
            let derived = run(&mut cmd, env)?;
            let mut problems = Vec::new();
            check_code(&derived, 0, &mut problems);
            ops.record("set-up schema", &problems);
            std::fs::write(&p.schema, &derived.stdout).map_err(|e| e.to_string())?;
        }
    }

    // Reference validation: counts, invalid lines and reject kinds must
    // equal the generator's ground truth before anything is timed.
    let validate = run(
        &mut p.reference_command(env, Stage::Validate, &ref_jxc_path),
        env,
    )?;
    let problems = p.check_validate(env, &validate);
    ops.record("set-up validate", &problems);
    let reject_kinds: BTreeMap<usize, String> = if p.tolerant {
        read_quarantine(&p.quarantine_path(env))?
            .into_iter()
            .collect()
    } else {
        BTreeMap::new()
    };

    // Reference translation and its `cat` rendering.
    let translate = run(
        &mut p.reference_command(env, Stage::Translate, &ref_jxc_path),
        env,
    )?;
    let mut problems = Vec::new();
    check_code(&translate, 0, &mut problems);
    p.check_quarantine(env, &mut problems);
    ops.record("set-up translate", &problems);
    settle(&ref_jxc_path);
    p.ref_jxc = std::fs::read(&ref_jxc_path).map_err(|e| format!("reading REF.jxc: {e}"))?;
    let cat = run(&mut p.cat_command(env, &ref_jxc_path), env)?;
    p.ref_cat = cat.stdout.clone();
    let problems = p.check_cat(&cat);
    ops.record("set-up cat", &problems);

    // Per-line expectation for serve: ground truth, with the reject kind
    // the batch validator reported for that line.
    let mut expect = vec![Expect::Valid; p.truth.docs];
    for line in &p.truth.invalid_lines {
        expect[*line] = Expect::Invalid;
    }
    for line in &p.truth.bad_lines {
        let kind = reject_kinds.get(line).cloned().unwrap_or_default();
        expect[*line] = Expect::Rejected(kind);
    }
    p.expect = expect;
    Ok(p)
}

// ---------------------------------------------------------------------------
// Timed measurement
// ---------------------------------------------------------------------------

/// Fewest rounds of a run: each round samples every metric.
const MIN_ROUNDS: usize = 3;
/// How long a round loads the daemon closed loop, and open loop (at the
/// fixed rate: 1500 requests, fifteen beyond the 99th percentile).
const CLOSED_BURST: Duration = Duration::from_millis(300);
const OPEN_BURST: Duration = Duration::from_millis(300);

/// Repeats `round` while another one fits into `seconds`, judged by the
/// longest so far (at least [`MIN_ROUNDS`] times; `--smoke` runs it once).
fn repeat(
    seconds: f64,
    smoke: bool,
    mut round: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let (mut done, mut longest) = (0, 0.0f64);
    loop {
        let t0 = Instant::now();
        round()?;
        done += 1;
        longest = longest.max(t0.elapsed().as_secs_f64());
        let fits = start.elapsed().as_secs_f64() + longest <= seconds;
        if smoke || (done >= MIN_ROUNDS && !fits) {
            return Ok(());
        }
    }
}

/// Samples of the timed runs of one workload, by metric name: the
/// reported ones, and beside them the raw timings of those that were
/// read against the reference process.
#[derive(Default)]
pub struct Samples {
    reported: BTreeMap<&'static str, Vec<f64>>,
    raw: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.reported.entry(name).or_default().push(value);
    }

    /// A rate measured while the machine ran at `speed`.
    fn push_rate(&mut self, name: &'static str, raw: f64, speed: f64) {
        self.raw.entry(name).or_default().push(raw);
        self.push(name, raw / speed);
    }

    /// A duration measured while the machine ran at `speed`.
    pub fn push_seconds(&mut self, name: &'static str, raw: f64, speed: f64) {
        self.raw.entry(name).or_default().push(raw);
        self.push(name, raw * speed);
    }

    pub fn summaries(&self) -> BTreeMap<&'static str, Summary> {
        let summarise = |(k, v): (&&'static str, &Vec<f64>)| (*k, Summary::of(v));
        let mut all: BTreeMap<_, _> = self.reported.iter().map(summarise).collect();
        for (name, values) in &self.raw {
            if let Some(summary) = all.get_mut(name) {
                summary.raw = values.clone();
            }
        }
        all
    }
}

/// Chunk commits recorded in a journal file.
pub fn journal_chunk_commits(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .map(|t| {
            t.lines()
                .filter(|l| l.contains("{\"kind\":\"chunk\""))
                .count()
        })
        .unwrap_or(0)
}

/// One timed batch run (spawn → wait), checked; returns it when it passed.
fn timed_batch(
    env: &Env,
    p: &Prepared,
    stage: Stage,
    journal: Journal,
    what: &str,
    ops: &mut Ops,
) -> Option<Finished> {
    if journal == Journal::Fresh {
        let _ = std::fs::remove_file(p.journal_path(env));
    }
    let what = format!("{} {what}", p.name);
    match run(&mut p.batch_command(env, stage, WORKERS, journal), env) {
        Ok(done) => {
            if stage == Stage::Translate {
                settle(&p.jxc_path(env));
            }
            ops.record(&what, &p.check(env, stage, &done))
                .then_some(done)
        }
        Err(e) => {
            ops.record(&what, &[e]);
            None
        }
    }
}

/// A journaled translate killed at `commits:<half>`, leaving the journal
/// `resume_s` resumes from. Returns whether it died as told.
fn crash_at(env: &Env, p: &Prepared, half: usize, ops: &mut Ops) -> bool {
    let _ = std::fs::remove_file(p.journal_path(env));
    let _ = std::fs::remove_file(p.jxc_path(env));
    let what = format!("{} resume_s (crash)", p.name);
    let mut crash = p.batch_command(env, Stage::Translate, WORKERS, Journal::Fresh);
    crash.env("JSONX_CRASHPOINT", format!("commits:{half}"));
    let crashed = run(&mut crash, env);
    settle(&p.journal_path(env));
    match crashed {
        // `commits:N` aborts: death by signal, no exit code.
        Ok(died) if died.code.is_none() => ops.record(&what, &[]),
        Ok(died) => ops.record(
            &what,
            &[format!("crashpoint run exited with {:?}", died.code)],
        ),
        Err(e) => ops.record(&what, &[e]),
    }
}

/// One workload's end-to-end measurement in progress: what a round
/// reads and what it records into.
struct Rounds<'a> {
    env: &'a Env,
    p: &'a Prepared,
    gauge: &'a mut Gauge,
    samples: Samples,
    ops: &'a mut Ops,
}

impl Rounds<'_> {
    /// One batch command between two reference runs; its throughput goes
    /// under `name`.
    fn batch(
        &mut self,
        name: &'static str,
        stage: Stage,
        journal: Journal,
    ) -> Result<Option<Finished>, String> {
        let (env, p) = (self.env, self.p);
        let (done, speed) = self
            .gauge
            .around(|| timed_batch(env, p, stage, journal, name, self.ops))?;
        if let Some(done) = &done {
            let rate = mib(p.bytes_read(journal)) / done.wall.as_secs_f64();
            self.samples.push_rate(name, rate, speed);
        }
        Ok(done)
    }

    /// The quick commands, `infer` and `validate` (20–100 ms, no longer
    /// than the reference process). With `cat` they are the ones a
    /// disturbance shorter than a sample misleads most, so a round takes
    /// two samples of each, apart.
    fn quick(&mut self) -> Result<(), String> {
        self.batch("infer_mib_s", Stage::Infer, Journal::Off)?;
        if let Some(done) = self.batch("validate_mib_s", Stage::Validate, Journal::Off)? {
            self.samples.push("validate_rss_mib", done.max_rss_mib);
        }
        Ok(())
    }

    /// `jsonx cat` over the `.jxc` the last translate wrote.
    fn cat(&mut self) -> Result<(), String> {
        let (env, p) = (self.env, self.p);
        let what = format!("{} cat_mib_s", p.name);
        let (done, speed) = self
            .gauge
            .around(|| run(&mut p.cat_command(env, &p.jxc_path(env)), env))?;
        match done {
            Ok(done) => {
                if self.ops.record(&what, &p.check_cat(&done)) {
                    let rate = mib(p.ref_jxc.len() as u64) / done.wall.as_secs_f64();
                    self.samples.push_rate("cat_mib_s", rate, speed);
                }
            }
            Err(e) => {
                self.ops.record(&what, &[e]);
            }
        }
        Ok(())
    }

    /// Kills a journaled translate at half the commits of the complete
    /// one just run (both phases count), then times the resume alone.
    fn resume(&mut self) -> Result<(), String> {
        let (env, p) = (self.env, self.p);
        let half = (journal_chunk_commits(&p.journal_path(env)) / 2).max(1);
        let (died, _) = self.gauge.around(|| crash_at(env, p, half, self.ops))?;
        if !died {
            return Ok(());
        }
        let (done, speed) = self.gauge.around(|| {
            timed_batch(
                env,
                p,
                Stage::Translate,
                Journal::Resume,
                "resume_s",
                self.ops,
            )
        })?;
        if let Some(done) = done {
            self.samples
                .push_seconds("resume_s", done.wall.as_secs_f64(), speed);
        }
        Ok(())
    }

    /// The daemon's load: a closed-loop burst (requests per second, read
    /// against the reference process like the batch commands), then an
    /// open-loop burst at the fixed rate (latency from the due instant,
    /// with the generator's own lateness beside it).
    fn serve(
        &mut self,
        target: Target<'_>,
        traffic: &Traffic<'_>,
        what: &str,
    ) -> Result<(), String> {
        let (load, speed) = self.gauge.around(|| {
            serve::closed_loop(target, traffic, Mix::Standard, LOAD_CONNS, CLOSED_BURST)
        })?;
        self.ops
            .record_many(&format!("{what} closed loop"), load.attempted, load.failed);
        if load.attempted > load.failed {
            self.samples
                .push_rate("serve_req_s", load.req_per_s(), speed);
        }
        let load = serve::open_loop(
            target,
            traffic,
            Mix::Standard,
            OPEN_LOOP_RATE,
            LOAD_CONNS,
            OPEN_BURST,
        );
        self.ops
            .record_many(&format!("{what} open loop"), load.attempted, load.failed);
        if !load.latency_ns.is_empty() {
            self.samples.push("serve_p50_us", load.latency_us(0.50));
            self.samples.push("serve_p99_us", load.latency_us(0.99));
            self.samples
                .push("serve_lateness_p99_us", load.lateness_us(0.99));
        }
        Ok(())
    }
}

/// Runs every timed end-to-end item of one workload with tracing off.
///
/// The run is a sequence of rounds, and a round samples every metric:
/// each batch command once (the quick ones twice), then a closed-loop and
/// an open-loop burst against the daemon (which stays up, idle, while the
/// batch commands run). Every metric's samples therefore span the whole
/// run. Every timed item runs between two runs of the reference process
/// and is recorded as if the machine had run at its nominal speed
/// ([`Gauge::around`]); the reported value is the median over rounds.
pub fn measure(
    env: &Env,
    p: &Prepared,
    gauge: &mut Gauge,
    seconds: f64,
    smoke: bool,
    ops: &mut Ops,
) -> Result<Samples, String> {
    let what = format!("{} serve", p.name);
    let daemon = start_daemon(env, p, &[])
        .map_err(|e| ops.record(&what, &[e]))
        .ok();
    let traffic = traffic(p);
    let mut rounds = Rounds {
        env,
        p,
        gauge,
        samples: Samples::default(),
        ops,
    };
    repeat(seconds, smoke, || {
        rounds.quick()?;
        if let Some(done) = rounds.batch("translate_mib_s", Stage::Translate, Journal::Off)? {
            rounds.samples.push("translate_rss_mib", done.max_rss_mib);
        }
        rounds.cat()?;
        rounds.batch("validate_ckpt_mib_s", Stage::Validate, Journal::Fresh)?;
        rounds.quick()?;
        rounds.batch("translate_ckpt_mib_s", Stage::Translate, Journal::Fresh)?;
        rounds.cat()?;
        rounds.resume()?;
        if let Some(daemon) = &daemon {
            rounds.serve(target(env, daemon), &traffic, &what)?;
        }
        Ok(())
    })?;
    let Rounds {
        mut samples, ops, ..
    } = rounds;
    if let Some(daemon) = daemon {
        stop_daemon(daemon, &what, ops);
    }
    // Repeats exactly for a seed: the reference file has the same bytes
    // every checked translate run produced.
    samples.push(
        "jxc_bytes_per_input_byte",
        p.ref_jxc.len() as f64 / p.input_bytes as f64,
    );
    Ok(samples)
}

/// Builds the serve traffic of a workload.
pub fn traffic(p: &Prepared) -> Traffic<'_> {
    Traffic {
        lines: p.ndjson.lines().collect(),
        expect: &p.expect,
    }
}

/// Starts the daemon the way every serve measurement does.
pub fn start_daemon(env: &Env, p: &Prepared, extra: &[&str]) -> Result<Daemon, String> {
    let schema = p.schema.to_string_lossy().into_owned();
    let mut args = vec!["--workers", "1", "--schema", &schema];
    args.extend_from_slice(extra);
    Daemon::start(&env.jsonx, &args, env.placement.as_ref())
        .map_err(|e| format!("starting daemon: {e}"))
}

/// The load target for a daemon started by [`start_daemon`].
pub fn target<'a>(env: &'a Env, daemon: &Daemon) -> Target<'a> {
    Target {
        addr: daemon.addr,
        placement: env.placement.as_ref(),
    }
}

/// `SHUTDOWN`, then the daemon must exit 0 with a reconciled report.
pub fn stop_daemon(daemon: Daemon, what: &str, ops: &mut Ops) {
    let mut problems = Vec::new();
    match serve::shutdown(daemon.addr) {
        Ok(ack) if ack.contains("\"op\":\"shutdown\"") => {}
        Ok(ack) => problems.push(format!("unexpected SHUTDOWN response {ack}")),
        Err(e) => problems.push(format!("SHUTDOWN: {e}")),
    }
    match daemon.finish(Duration::from_secs(10)) {
        Ok((status, report)) => {
            if status.code() != Some(0) {
                problems.push(format!("daemon exit {status}"));
            }
            if !report.contains("\"reconciled\":true") {
                problems.push(format!(
                    "final report not reconciled: {:.200}",
                    report.trim()
                ));
            }
        }
        Err(e) => problems.push(format!("waiting for daemon: {e}")),
    }
    ops.record(&format!("{what} shutdown"), &problems);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_summary_parses_with_and_without_rejects() {
        let tolerant = "» 7 diagnostics quarantined to q\n» 5888/6928 documents valid (streaming), 72 rejected\njsonx: 1040 invalid documents\n";
        assert_eq!(parse_validate_summary(tolerant), Some((5888, 6928, 72)));
        let plain = "» 20000/20000 documents valid (streaming csv)\n";
        assert_eq!(parse_validate_summary(plain), Some((20000, 20000, 0)));
        assert_eq!(parse_validate_summary("jsonx: boom\n"), None);
    }

    #[test]
    fn doc_list_dedupes_multi_line_diagnostics() {
        let out = b"doc 3: invalid\ndoc 9: missing a\ndoc 9: missing b\ndoc 12: invalid\n";
        assert_eq!(parse_doc_list(out), vec![3, 9, 12]);
    }

    #[test]
    fn cat_rows_parse() {
        let err = "» type: utf8 dict (dict 4), 20/20 valid, 82 bytes\n» 22 columns x 20000 rows, showing 1000\n";
        assert_eq!(parse_cat_rows(err), Some(20000));
    }
}
