//! `jsonx` — command-line front end for the workspace.
//!
//! ```text
//! jsonx infer     [--equiv K|L] [--counts] [--schema] [--workers N]
//!                 [--validate SCHEMA.json] [--format json|csv] [FILE]
//! jsonx validate  --schema SCHEMA.json [--formats] [--workers N]
//!                 [--no-fast-parse] [--format json|csv] [FILE]
//! jsonx profile   [FILE]
//! jsonx skeleton  [--coverage 0.9] [FILE]
//! jsonx project   --fields a,b.c [FILE]
//! jsonx convert   --to avro|relational [FILE]
//! jsonx translate [--out FILE.jxc] [--workers N] [--no-fast-parse]
//!                 [--format json|csv] [FILE]
//! jsonx query     [--where-exists p] [--expand p] [--project a,b.c] [--top n] [FILE]
//! jsonx cat       FILE.jxc [--head N] [--flatten]
//! jsonx serve     [--listen ADDR] [--schema FILE] [--queue-depth N] [--deadline-ms N]
//!                 [--max-conns N] [--workers N] [--max-depth N] [--max-line-bytes N]
//!                 [--frame-budget-ms N] [--debug-faults]
//! ```
//!
//! `FILE` is newline-delimited JSON — or header-led CSV with
//! `--format csv`, which routes the same corpus through the same typed
//! pipeline via the CSV record decoder. `-` or no file reads stdin. A
//! byte-order mark before the first line of either is skipped.
//! Every command that reads a corpus reads it through a [`Run`] on the
//! chunked work-stealing engine, so one decoder, one set of limits and
//! one fault layer judge every record: `infer`, `validate` and
//! `translate` through their own stages, `profile`, `skeleton`, `query`,
//! `project` and `convert` through the document stage
//! ([`jsonx::documents`]), which hands each record's document to the
//! command's fold. `infer`, `validate` and `translate` additionally
//! accept the fault-tolerance flags (`--on-error fail|skip`,
//! `--max-errors N`, `--quarantine FILE`, `--max-depth N`,
//! `--max-line-bytes N`) and the out-of-core flags: `--input FILE` to
//! process the corpus without loading it, `--chunk-bytes N` and
//! `--report-timing` to tune and observe the dispatch, and
//! `--checkpoint FILE` / `--resume` to journal chunk commits durably and
//! continue an interrupted run.
//!
//! Every command's flags live in one [`FlagSpec`] table; `jsonx help`
//! is generated from those tables, so value placeholders and help text
//! can never drift from what the parser accepts.
//!
//! Exit codes are uniform across subcommands (see README):
//! `0` success, `1` invalid data (malformed input or failed validation
//! verdicts), `2` usage error, `3` I/O error, `4` interrupted with a
//! resumable checkpoint.

use jsonx::core::{print_type, to_json_schema, Equivalence, PrintOptions};
use jsonx::documents::{
    AvroFold, CollectFold, DocumentFold, ProfileFold, ProjectFold, QueryFold, SkeletonFold,
};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::skeleton::Skeleton;
use jsonx::syntax::{parse, to_string, to_string_pretty, MAX_DEPTH_CEILING};
use jsonx::translate::{read_jxc_file_head, render_rows, write_jxc_parts, ColumnarBatch};
use jsonx::{
    write_quarantine_file, CsvDecoder, ErrorPolicy, FaultOptions, Format, JournalControl,
    JsonDecoder, LineVerdict, ParseLimits, RecordDecoder, Run, RunReport, Source, StreamError,
};
use std::io::{BufRead, BufReader, BufWriter, Read, Stdin, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// ---------------------------------------------------------------------------
// Flag tables: one source of truth for parsing AND `jsonx help`
// ---------------------------------------------------------------------------

/// One CLI flag: name, optional value placeholder, help text.
#[derive(Clone, Copy)]
struct FlagSpec {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

const fn flag(name: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value: None,
        help,
    }
}

const fn valued(name: &'static str, value: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value: Some(value),
        help,
    }
}

/// `--workers N`, shared by the engine commands.
const WORKERS_FLAG: FlagSpec = valued("workers", "N", "shard across N threads (0 = one per CPU)");

/// The most threads `--workers` may ask for. The engine survives an OS
/// that grants fewer than asked; a count no machine has is a typo.
const MAX_WORKERS: usize = 1024;

/// `--no-fast-parse`, shared by the commands that accept it.
const NO_FAST_PARSE_FLAG: FlagSpec = flag(
    "no-fast-parse",
    "the reference route, same output — nothing speculates: validate decodes every record to a document with the full parser (no validating from events); translate types the whole corpus, then shreds it (two passes, not a layout taught by the first chunk and verified per record)",
);

/// `--format json|csv`, shared by the engine commands.
const FORMAT_FLAG: FlagSpec = valued(
    "format",
    "json|csv",
    "input format: csv reads a header-led CSV corpus through the same typed pipeline",
);

/// The fault-tolerance flags shared by the engine commands.
const FAULT_FLAGS: &[FlagSpec] = &[
    valued(
        "on-error",
        "fail|skip",
        "record-error policy (default fail). skip drops bad records and keeps going",
    ),
    valued("max-errors", "N", "abort once more than N records reject"),
    valued(
        "quarantine",
        "FILE",
        "write one JSON diagnostic per rejected record (with the raw line) to FILE",
    ),
    valued(
        "max-depth",
        "N",
        "reject records nested deeper than N (default 128)",
    ),
    valued("max-line-bytes", "N", "reject records longer than N bytes"),
];

/// The out-of-core flags shared by the engine commands.
const CHUNK_FLAGS: &[FlagSpec] = &[
    valued(
        "input",
        "FILE",
        "stream FILE through a bounded ring of reusable chunk buffers instead of materialising it ('-' streams stdin); invalid-document diagnostics shrink to line numbers",
    ),
    valued(
        "chunk-bytes",
        "N",
        "target chunk size in bytes (default: sized from the input, capped at 1 MiB)",
    ),
    flag(
        "report-timing",
        "print per-worker chunk/record/byte counts, steal counts and throughput to stderr",
    ),
    valued(
        "checkpoint",
        "FILE",
        "journal every committed chunk to FILE (fsync'd, CRC-framed, committed in input order) so a crashed or interrupted run can be resumed; needs --input with a regular file; translate also writes the chunks' rows to FILE.rows — keep both files to resume, delete both afterwards",
    ),
    flag(
        "resume",
        "continue from the last committed chunk in the --checkpoint journal instead of starting over; the final output is byte-identical to an uninterrupted run",
    ),
];

const INFER_FLAGS: &[FlagSpec] = &[
    valued("equiv", "K|L", "equivalence (default K)"),
    flag("counts", "show counting annotations"),
    flag("schema", "emit JSON Schema instead of type syntax"),
    WORKERS_FLAG,
    valued(
        "validate",
        "F",
        "also validate against schema F in the same pass (one tokenisation per line)",
    ),
    FORMAT_FLAG,
];

const VALIDATE_FLAGS: &[FlagSpec] = &[
    valued("schema", "FILE", "schema document (required)"),
    flag("formats", "enforce the `format` keyword"),
    WORKERS_FLAG,
    NO_FAST_PARSE_FLAG,
    FORMAT_FLAG,
];

const SKELETON_FLAGS: &[FlagSpec] = &[valued(
    "coverage",
    "F",
    "coverage threshold in (0,1] (default 0.9)",
)];

const PROJECT_FLAGS: &[FlagSpec] = &[valued("fields", "a,b.c", "dotted field paths (required)")];

const CONVERT_FLAGS: &[FlagSpec] = &[valued("to", "TARGET", "avro | relational (required)")];

const TRANSLATE_FLAGS: &[FlagSpec] = &[
    valued("out", "FILE", "persist the batch as a binary .jxc file"),
    WORKERS_FLAG,
    NO_FAST_PARSE_FLAG,
    FORMAT_FLAG,
];

const QUERY_FLAGS: &[FlagSpec] = &[
    valued(
        "where-exists",
        "P",
        "keep documents where path P is non-null",
    ),
    valued("expand", "P", "flatten the array at path P"),
    valued(
        "project",
        "a,b.c",
        "transform to a record of the given paths",
    ),
    valued("top", "N", "keep the first N results"),
];

const CAT_FLAGS: &[FlagSpec] = &[
    valued("head", "N", "show at most N rows (default 10)"),
    flag(
        "flatten",
        "cross-join list columns into flat rows (unnest semantics)",
    ),
];

const SERVE_FLAGS: &[FlagSpec] = &[
    valued(
        "listen",
        "ADDR",
        "listen address (default 127.0.0.1:7077; port 0 picks a free port, printed on stdout)",
    ),
    valued(
        "schema",
        "FILE",
        "schema to compile once and serve; the RELOAD verb recompiles it and swaps epochs without interrupting in-flight requests",
    ),
    valued(
        "queue-depth",
        "N",
        "how many data requests may wait while --workers of them run; one more is shed with a structured busy response instead of buffered (default 64)",
    ),
    valued(
        "deadline-ms",
        "N",
        "answer deadline-exceeded, at the deadline, to a data request that has waited N ms to run",
    ),
    valued(
        "max-conns",
        "N",
        "concurrent-connection cap; excess connections get one busy line and are closed (default 64)",
    ),
    valued(
        "workers",
        "N",
        "how many data requests may run at once, each on its connection's thread (0 = one per CPU)",
    ),
    valued(
        "max-depth",
        "N",
        "reject payloads nested deeper than N (default 128)",
    ),
    valued(
        "max-line-bytes",
        "N",
        "reject payloads longer than N bytes (also caps the frame buffer)",
    ),
    valued(
        "frame-budget-ms",
        "N",
        "cut off frames that do not finish arriving within N ms — the slow-loris guard (default 2000)",
    ),
    flag(
        "debug-faults",
        "enable the deterministic fault verbs (BOOM, SLEEP) the fault-injection harness drives",
    ),
];

/// One subcommand: its summary line, flag table, and whether it also
/// accepts the shared fault-tolerance / out-of-core flag groups.
struct CommandSpec {
    name: &'static str,
    summary: &'static str,
    flags: &'static [FlagSpec],
    guarded: bool,
}

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "infer",
        summary: "infer a schema for an NDJSON (or CSV) collection",
        flags: INFER_FLAGS,
        guarded: true,
    },
    CommandSpec {
        name: "validate",
        summary: "validate documents against a JSON Schema",
        flags: VALIDATE_FLAGS,
        guarded: true,
    },
    CommandSpec {
        name: "profile",
        summary: "mongodb-schema-style field profile",
        flags: &[],
        guarded: false,
    },
    CommandSpec {
        name: "skeleton",
        summary: "mine the frequent-structure skeleton",
        flags: SKELETON_FLAGS,
        guarded: false,
    },
    CommandSpec {
        name: "project",
        summary: "parse each record whole, then keep only the selected fields",
        flags: PROJECT_FLAGS,
        guarded: false,
    },
    CommandSpec {
        name: "convert",
        summary: "translate the collection to Avro rows (sizes) or relational form (relations)",
        flags: CONVERT_FLAGS,
        guarded: false,
    },
    CommandSpec {
        name: "translate",
        summary: "schema-driven translation to a columnar batch (a binary .jxc file with --out)",
        flags: TRANSLATE_FLAGS,
        guarded: true,
    },
    CommandSpec {
        name: "query",
        summary: "run a Jaql-style pipeline and show its inferred output schema (stages apply in a fixed order: where-exists, expand, project, top)",
        flags: QUERY_FLAGS,
        guarded: false,
    },
    CommandSpec {
        name: "cat",
        summary: "inspect a binary .jxc columnar file (schema, rows, encodings)",
        flags: CAT_FLAGS,
        guarded: false,
    },
    CommandSpec {
        name: "serve",
        summary: "run the resident schema service (validate/infer/translate over a line protocol)",
        flags: SERVE_FLAGS,
        guarded: false,
    },
];

impl CommandSpec {
    /// Every flag this command accepts: its own plus the shared groups.
    fn all_flags(&self) -> impl Iterator<Item = &'static FlagSpec> {
        self.flags
            .iter()
            .chain(self.guarded.then_some(FAULT_FLAGS).into_iter().flatten())
            .chain(self.guarded.then_some(CHUNK_FLAGS).into_iter().flatten())
    }
}

/// Greedy word-wrap for generated help text.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines = Vec::new();
    let mut line = String::new();
    for word in text.split_whitespace() {
        if !line.is_empty() && line.len() + 1 + word.len() > width {
            lines.push(std::mem::take(&mut line));
        }
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(word);
    }
    if !line.is_empty() {
        lines.push(line);
    }
    lines
}

fn render_flag(out: &mut String, spec: &FlagSpec) {
    let head = match spec.value {
        Some(v) => format!("--{} {v}", spec.name),
        None => format!("--{}", spec.name),
    };
    for (i, line) in wrap(spec.help, 42).into_iter().enumerate() {
        if i == 0 {
            out.push_str(&format!("              {head:<19} {line}\n"));
        } else {
            out.push_str(&format!("              {:<19} {line}\n", ""));
        }
    }
}

/// The help text, generated from the command and flag tables.
fn usage() -> String {
    let mut s = String::from("usage: jsonx <command> [options] [FILE]\n\ncommands:\n");
    for cmd in COMMANDS {
        s.push_str(&format!("  {:<9} {}\n", cmd.name, cmd.summary));
        for spec in cmd.flags {
            render_flag(&mut s, spec);
        }
        if cmd.guarded {
            s.push_str("            (plus the fault-tolerance and out-of-core flags below)\n");
        }
    }
    s.push_str("\nfault-tolerance flags (infer / validate / translate):\n");
    for spec in FAULT_FLAGS {
        render_flag(&mut s, spec);
    }
    s.push_str("\nout-of-core flags (infer / validate / translate):\n");
    for spec in CHUNK_FLAGS {
        render_flag(&mut s, spec);
    }
    s.push_str(
        "\nFILE is newline-delimited JSON (header-led CSV with --format csv);\n'-' or absent reads stdin.",
    );
    s
}

/// A classified CLI failure. Every subcommand exits through one of
/// these, so exit codes are uniform across the tool: `0` success,
/// `1` invalid data, `2` usage, `3` I/O, `4` interrupted-resumable.
/// Plain `String` errors (the bulk of the data-shaped failures) convert
/// to [`CliError::Data`].
#[derive(Debug)]
enum CliError {
    /// Bad flags, bad flag values, wrong command shape — exit 2.
    Usage(String),
    /// The input is malformed or failed its validation verdicts — exit 1.
    Data(String),
    /// A file or stream could not be read or written — exit 3.
    Io(String),
    /// Stopped gracefully with a resumable checkpoint journal — exit 4.
    Interrupted(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }

    fn data(msg: impl Into<String>) -> CliError {
        CliError::Data(msg.into())
    }

    fn io(msg: impl Into<String>) -> CliError {
        CliError::Io(msg.into())
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Data(m) | CliError::Io(m) | CliError::Interrupted(m) => {
                m
            }
        }
    }

    fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Data(_) => 1,
            CliError::Io(_) => 3,
            CliError::Interrupted(_) => 4,
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Data(msg)
    }
}

/// Classifies a streaming-run failure: input problems are I/O, a
/// graceful stop is interrupted-resumable, everything else is bad data.
fn stream_err(e: StreamError) -> CliError {
    match e {
        StreamError::Interrupted => CliError::Interrupted(format!(
            "{e} — rerun with --resume to continue from the last committed chunk"
        )),
        StreamError::Input(msg) => CliError::Io(msg),
        other => CliError::Data(other.to_string()),
    }
}

/// Parses `--name VALUE` through `FromStr`, reporting failures as usage
/// errors (exit 2) naming the flag.
fn parse_flag<T: std::str::FromStr>(opts: &Opts, name: &str) -> Result<Option<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    opts.get(name)
        .map(str::parse)
        .transpose()
        .map_err(|e| CliError::usage(format!("bad --{name}: {e}")))
}

/// `--workers N` (0, the default, is one per CPU), refused past
/// [`MAX_WORKERS`] — the same rule for batch runs and `serve`.
fn parse_workers(opts: &Opts) -> Result<usize, CliError> {
    let workers = parse_flag(opts, "workers")?.unwrap_or(0);
    if workers > MAX_WORKERS {
        return Err(CliError::usage(format!(
            "bad --workers: {workers} is over the supported ceiling of {MAX_WORKERS}"
        )));
    }
    Ok(workers)
}

/// SIGINT/SIGTERM handling for journaled runs: the handler only trips a
/// latch; workers drain their in-flight chunks and the run exits as
/// interrupted-resumable. Installed only when a checkpoint is active —
/// unjournaled runs keep the default die-on-signal behaviour, because
/// without a journal there is nothing graceful to save.
mod sig {
    use std::sync::atomic::AtomicBool;

    static STOP: AtomicBool = AtomicBool::new(false);

    pub fn stop_flag() -> &'static AtomicBool {
        &STOP
    }

    #[cfg(unix)]
    pub fn install() {
        // Declared locally instead of pulling in a libc dependency;
        // glibc's `signal` installs BSD semantics (SA_RESTART), so
        // blocked reads resume after the handler runs and the stop
        // latch is observed at the next chunk-claim boundary.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_signal(_sig: i32) {
            STOP.store(true, std::sync::atomic::Ordering::SeqCst);
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

/// A peak resident set that repeats from run to run. glibc serves a block
/// of at least its mmap threshold (128 KiB at start) from a fresh mapping,
/// and each time such a block is freed it raises the threshold to that
/// block's size, up to 32 MiB. Which later blocks land in the arenas
/// instead then depends on the order the workers happened to free their
/// chunk buffers and column builders in: translating an 8 MiB corpus with
/// two workers on a 2-vCPU VM peaked at 18.4 MiB in one run and 24.5 MiB
/// in the next. Pinned at its default, the same translate peaks at
/// 14.6–16.9 MiB, for 2–7% more wall time: the column builders, emptied
/// by every batch taken, map fresh pages for every chunk. (Pinned at the
/// 32 MiB ceiling instead, `validate` on CSV held 22% more.)
mod heap {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    pub fn pin_mmap_threshold() {
        // Declared locally instead of pulling in a libc dependency, like
        // `sig::install`'s `signal`.
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // Setting the threshold, even to its default, also turns off its
        // adjustment. Called before any thread exists; `mallopt` takes two
        // integers and touches only the allocator's parameters.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 << 10);
        }
    }

    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    pub fn pin_mmap_threshold() {}
}

fn main() -> ExitCode {
    heap::pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("jsonx: {}", err.message());
            ExitCode::from(err.code())
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::usage(format!("missing command\n{}", usage())));
    };
    let rest = &args[1..];
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(());
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == command.as_str()) else {
        return Err(CliError::usage(format!(
            "unknown command '{command}'\n{}",
            usage()
        )));
    };
    let opts = parse_opts(rest, cmd)?;
    match cmd.name {
        "infer" => cmd_infer(&opts),
        "validate" => cmd_validate(&opts),
        "profile" => cmd_profile(&opts),
        "skeleton" => cmd_skeleton(&opts),
        "project" => cmd_project(&opts),
        "convert" => cmd_convert(&opts),
        "translate" => cmd_translate(&opts),
        "query" => cmd_query(&opts),
        "cat" => cmd_cat(&opts),
        "serve" => cmd_serve(&opts),
        _ => unreachable!("command table and dispatch table agree"),
    }
}

/// Parsed flags (with optional values) plus the positional FILE argument.
struct Opts {
    flags: Vec<(String, Option<String>)>,
    file: Option<String>,
}

/// Splits `args` into flags and the positional FILE according to the
/// command's flag table — whether a flag takes a value is read off its
/// spec, so the same name can be boolean in one command and valued in
/// another (`infer --schema` vs `validate --schema FILE`).
fn parse_opts(args: &[String], cmd: &CommandSpec) -> Result<Opts, CliError> {
    let mut flags = Vec::new();
    let mut file = None;
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            let Some(spec) = cmd.all_flags().find(|s| s.name == name) else {
                return Err(CliError::usage(match (cmd.name, name) {
                    ("convert", "out") => "convert --out was removed: \
                        `jsonx translate --out FILE` writes the .jxc file"
                        .to_string(),
                    _ => format!("unknown flag --{name} (see `jsonx help`)"),
                }));
            };
            if spec.value.is_some() {
                let v = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::usage(format!("flag --{name} needs a value")))?;
                flags.push((name.to_string(), Some(v.clone())));
                i += 2;
            } else {
                flags.push((name.to_string(), None));
                i += 1;
            }
        } else {
            if file.is_some() {
                return Err(CliError::usage(format!("unexpected extra argument '{a}'")));
            }
            file = Some(a.clone());
            i += 1;
        }
    }
    Ok(Opts { flags, file })
}

impl Opts {
    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }
}

// ---------------------------------------------------------------------------
// The run plan shared by infer / validate / translate
// ---------------------------------------------------------------------------

/// Builds the [`Run`] an engine command executes from the shared flag
/// tables — workers, the fault-tolerance flags, the out-of-core flags,
/// fast-parse, and the checkpoint journal — plus whether `--format csv`
/// was given. Only flags are looked at: every misuse is reported before
/// any input is opened. [`open_corpus`] completes the plan.
fn run_plan(opts: &Opts) -> Result<(Run<'_>, bool), CliError> {
    let workers = parse_workers(opts)?;
    if let (Some(input), Some(file)) = (opts.get("input"), &opts.file) {
        return Err(CliError::usage(format!(
            "--input {input} replaces the positional FILE, but '{file}' was given too \
             (one corpus per run)"
        )));
    }
    let fault = fault_options(opts)?;
    let chunk_bytes = parse_flag(opts, "chunk-bytes")?.unwrap_or(0);
    let csv = csv_requested(opts)?;
    let journal = checkpoint_cli(opts, csv)?;
    let run = Run {
        workers,
        chunk_bytes,
        timing: opts.has("report-timing"),
        fault,
        fast_parse: !opts.has("no-fast-parse"),
        format: Format::Ndjson,
        journal,
    };
    Ok((run, csv))
}

/// Where an engine command's corpus lives.
enum Corpus<'o> {
    /// The positional FILE (or stdin) loaded whole; records start at
    /// byte `body` — past the header row of a CSV corpus.
    Text { text: String, body: usize },
    /// `--input FILE`: streamed out-of-core through a bounded ring of
    /// chunk buffers, never materialised.
    File(&'o Path),
    /// `--input -`: stdin, streamed once.
    Stdin(BufReader<Stdin>),
}

impl Corpus<'_> {
    fn source(&mut self) -> Source<'_, &mut BufReader<Stdin>> {
        match self {
            Corpus::Text { text, body } => Source::Slice(&text[*body..]),
            Corpus::File(path) => Source::File(path),
            Corpus::Stdin(reader) => Source::Reader(reader),
        }
    }

    /// The records' text — past a CSV corpus's header — when it is in
    /// memory to re-validate lines of.
    fn records(&self) -> Option<&str> {
        match self {
            Corpus::Text { text, body } => Some(&text[*body..]),
            _ => None,
        }
    }
}

/// How a summary line names its mode.
fn mode(csv: bool) -> &'static str {
    if csv {
        "streaming csv"
    } else {
        "streaming"
    }
}

/// Opens the corpus a plan runs over. Under `--format csv` the header
/// row is read here and becomes the plan's record decoder; the remaining
/// rows then count from record 0.
fn open_corpus<'o>(opts: &'o Opts, run: &mut Run<'_>, csv: bool) -> Result<Corpus<'o>, CliError> {
    let header_io = |e: std::io::Error| CliError::io(format!("reading csv header: {e}"));
    let mut header = String::new();
    let corpus = match opts.get("input") {
        None => {
            let text = read_text(opts.file.as_deref())?;
            let mut body = 0;
            if csv {
                let end = text.find('\n').unwrap_or(text.len());
                header.push_str(&text[..end]);
                body = (end + 1).min(text.len());
            }
            Corpus::Text { text, body }
        }
        Some("-") => {
            let mut reader = BufReader::new(std::io::stdin());
            if csv {
                reader.read_line(&mut header).map_err(header_io)?;
            }
            Corpus::Stdin(reader)
        }
        Some(path) => {
            if csv {
                let file = std::fs::File::open(path)
                    .map_err(|e| CliError::io(format!("reading {path}: {e}")))?;
                BufReader::new(file)
                    .read_line(&mut header)
                    .map_err(header_io)?;
            }
            Corpus::File(Path::new(path))
        }
    };
    if csv {
        let header = header.trim_end_matches(['\n', '\r']);
        if header.trim().is_empty() {
            return Err(CliError::data("csv input has no header row"));
        }
        let decoder = CsvDecoder::from_header(header).map_err(|e| format!("csv header: {e}"))?;
        run.format = Format::Csv(decoder);
    }
    Ok(corpus)
}

/// Whether `--format csv` selected the CSV front-end.
fn csv_requested(opts: &Opts) -> Result<bool, CliError> {
    match opts.get("format") {
        None | Some("json") => Ok(false),
        Some("csv") => Ok(true),
        Some(other) => Err(CliError::usage(format!(
            "unknown --format '{other}' (use json or csv)"
        ))),
    }
}

/// Builds [`FaultOptions`] from the shared fault-tolerance flags (the
/// default — fail-fast, default limits — when none were given).
fn fault_options(opts: &Opts) -> Result<FaultOptions, CliError> {
    let max_errors: Option<usize> = parse_flag(opts, "max-errors")?;
    let policy = match opts.get("on-error").unwrap_or("fail") {
        "fail" if max_errors.is_some() || opts.has("quarantine") => {
            return Err(CliError::usage(
                "--max-errors and --quarantine need --on-error skip \
                 (the fail policy stops at the first rejected record)",
            ))
        }
        "fail" => ErrorPolicy::FailFast,
        "skip" => ErrorPolicy::Skip { max_errors },
        "collect" => {
            return Err(CliError::usage(
                "--on-error collect was removed (it printed what skip prints): \
                 use --on-error skip --max-errors N, which collect implied with N = 1000",
            ))
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown --on-error policy '{other}' (use fail or skip)"
            )))
        }
    };
    Ok(FaultOptions {
        policy,
        keep_rejects: opts.has("quarantine"),
        limits: parse_limits(opts)?,
    })
}

/// `--max-depth` / `--max-line-bytes` as [`ParseLimits`] (the defaults
/// when neither was given) — the same guards for batch runs and `serve`.
/// A depth past [`MAX_DEPTH_CEILING`] could abort the process: refused.
fn parse_limits(opts: &Opts) -> Result<ParseLimits, CliError> {
    let mut limits = ParseLimits::new();
    if let Some(depth) = parse_flag(opts, "max-depth")? {
        if depth > MAX_DEPTH_CEILING {
            return Err(CliError::usage(format!(
                "bad --max-depth: {depth} is over the supported ceiling of {MAX_DEPTH_CEILING}"
            )));
        }
        limits = limits.with_max_depth(depth);
    }
    if let Some(bytes) = parse_flag(opts, "max-line-bytes")? {
        limits = limits.with_max_input_bytes(bytes);
    }
    Ok(limits)
}

/// Post-run bookkeeping for an engine command: writes the quarantine
/// sidecar when requested, surfaces poisoned shards and `--report-timing`
/// accounts on stderr, and returns the `, N rejected` suffix every
/// engine summary line ends with.
fn finish_run(opts: &Opts, report: &RunReport) -> Result<String, CliError> {
    if let Some(path) = opts.get("quarantine") {
        let n = write_quarantine_file(Path::new(path), report)
            .map_err(|e| CliError::io(format!("writing {path}: {e}")))?;
        eprintln!("» {n} diagnostics quarantined to {path}");
    }
    for p in &report.poisoned {
        eprintln!("» warning: {p}");
    }
    for t in &report.timings {
        eprintln!(
            "» worker {}: {} chunks ({} stolen), {} records, {} bytes, {:.3}s busy, {:.3}s reading ({:.0} rec/s, {:.2} MB/s)",
            t.worker,
            t.chunks,
            t.steals,
            t.records,
            t.bytes,
            t.busy.as_secs_f64(),
            t.read.as_secs_f64(),
            t.records_per_sec(),
            t.bytes_per_sec() / 1e6,
        );
    }
    Ok(format!(", {} rejected", report.errors.total))
}

/// The `--report-timing` account of a stage that speculates per record
/// (nothing is printed for an untimed run, whose report has no routes):
/// how many records took the fast route — `took`, e.g. "typed in place" —
/// and how many were replayed through `slow`, by reason.
fn print_routes(report: &RunReport, took: &str, slow: &str) {
    let routes = &report.routes;
    if routes.fast == 0 && routes.replayed.is_empty() {
        return;
    }
    let reasons: Vec<String> = routes
        .replayed
        .iter()
        .map(|(why, n)| format!("{n} {why}"))
        .collect();
    eprintln!(
        "» {} records {took}, {} replayed through {slow}{}",
        routes.fast,
        routes.replayed.values().sum::<u64>(),
        if reasons.is_empty() {
            String::new()
        } else {
            format!(" ({})", reasons.join(", "))
        },
    );
    if let Some(layout) = &report.layout {
        eprintln!("» {layout}");
    }
}

/// Loads the whole corpus into memory — the in-memory path shared by
/// every command (`--input` is the out-of-core alternative). Raw bytes
/// are read first so non-UTF-8 input gets a clean diagnostic naming the
/// offending byte offset instead of a generic io error.
fn read_text(file: Option<&str>) -> Result<String, CliError> {
    let (bytes, name) = match file {
        None | Some("-") => {
            let mut buf = Vec::new();
            std::io::stdin()
                .read_to_end(&mut buf)
                .map_err(|e| CliError::io(format!("reading stdin: {e}")))?;
            (buf, "stdin")
        }
        Some(path) => (
            std::fs::read(path).map_err(|e| CliError::io(format!("reading {path}: {e}")))?,
            path,
        ),
    };
    String::from_utf8(bytes).map_err(|e| {
        CliError::data(format!(
            "{name}: input is not valid UTF-8 (bad byte at offset {})",
            e.utf8_error().valid_up_to()
        ))
    })
}

/// Folds every document of the positional FILE (or stdin) with `fold`,
/// on the engine's defaults.
fn fold_documents<F: DocumentFold>(text: &str, fold: &F) -> Result<F::Out, CliError>
where
    F::Out: 'static,
{
    let (out, _) = Run::default()
        .documents(Source::slice(text), fold)
        .map_err(stream_err)?;
    Ok(out)
}

/// The type [`Run::infer`] gives the positional FILE (or stdin) under
/// `Kind`, on the engine's defaults.
fn infer_text(text: &str) -> Result<jsonx::core::JType, CliError> {
    let (ty, _) = Run::default()
        .infer(Source::slice(text), Equivalence::Kind)
        .map_err(stream_err)?;
    Ok(ty)
}

/// Prints `lines` to stdout, one each, until the reader goes away.
fn print_lines<S: AsRef<str>>(lines: impl IntoIterator<Item = S>) -> Result<(), CliError> {
    let mut out = PipeOut::new();
    for line in lines {
        if !out.line(line.as_ref())? {
            break;
        }
    }
    out.finish()
}

/// Stdout wrapped for pipeline use (`jsonx cat big.jxc | head`): a
/// broken pipe quietly stops output instead of failing the run, so the
/// process still exits 0 — verdict loops keep counting, they just stop
/// printing. Any other write failure is a real I/O error (exit 3).
struct PipeOut {
    out: std::io::BufWriter<std::io::Stdout>,
    open: bool,
}

impl PipeOut {
    fn new() -> PipeOut {
        PipeOut {
            out: std::io::BufWriter::new(std::io::stdout()),
            open: true,
        }
    }

    /// Writes one line; returns `false` once the reader has gone away.
    /// Print-only callers may stop early on `false`; counting callers
    /// carry on and every later call is a cheap no-op.
    fn line(&mut self, text: &str) -> Result<bool, CliError> {
        if !self.open {
            return Ok(false);
        }
        match writeln!(self.out, "{text}") {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                self.open = false;
                Ok(false)
            }
            Err(e) => Err(CliError::io(format!("writing stdout: {e}"))),
        }
    }

    fn finish(mut self) -> Result<(), CliError> {
        match self.out.flush() {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
            Err(e) => Err(CliError::io(format!("writing stdout: {e}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint / resume wiring
// ---------------------------------------------------------------------------

/// Parses and validates `--checkpoint FILE` / `--resume` into the run's
/// [`JournalControl`]. Resume seeks the input by committed byte offset,
/// so the journal requires `--input` with a regular file (stdin cannot
/// be re-read); the CSV front-end is refused because its row identity
/// hangs off a header line the journal's byte accounting does not cover.
///
/// A journaled run installs the SIGINT/SIGTERM stop latch and wires the
/// deterministic crash injector (`JSONX_CRASHPOINT`) the kill-and-resume
/// harness drives. The injector counts commits across the whole run —
/// translate's phases share one counter — so `commits:N` always means
/// the Nth chunk record.
fn checkpoint_cli(opts: &Opts, csv: bool) -> Result<Option<JournalControl<'_>>, CliError> {
    let resume = opts.has("resume");
    let Some(journal) = opts.get("checkpoint") else {
        if resume {
            return Err(CliError::usage("--resume needs --checkpoint FILE"));
        }
        return Ok(None);
    };
    if csv {
        return Err(CliError::usage(
            "--checkpoint does not support --format csv",
        ));
    }
    let Some(input) = opts.get("input") else {
        return Err(CliError::usage(
            "--checkpoint needs --input FILE (resume seeks the input by byte offset)",
        ));
    };
    if input == "-" {
        return Err(CliError::usage(
            "--checkpoint cannot journal stdin; pass --input with a regular file",
        ));
    }
    if let Ok(meta) = std::fs::metadata(input) {
        if !meta.is_file() {
            return Err(CliError::usage(format!(
                "--checkpoint needs --input with a regular file, but {input} is not one"
            )));
        }
    }
    sig::install();
    let mut ctrl = JournalControl::new(Path::new(journal));
    ctrl.resume = resume;
    ctrl.stop = Some(sig::stop_flag());
    if let Some(cp) = jsonx::gen::Crashpoint::from_env() {
        let total = std::sync::atomic::AtomicU64::new(0);
        ctrl.after_commit = Some(std::sync::Arc::new(move |_phase_commits| {
            let n = total.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
            cp.observe_commit(n, sig::stop_flag());
        }));
    }
    Ok(Some(ctrl))
}

/// Reads and compiles a schema file; also returns its text, which
/// fingerprints the schema in a checkpoint journal's header. A leading
/// byte-order mark is not part of the document (RFC 8259 §8.1).
fn load_schema(path: &str) -> Result<(CompiledSchema, String), CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::io(format!("reading {path}: {e}")))?;
    let doc = parse(text.strip_prefix('\u{feff}').unwrap_or(&text))
        .map_err(|e| CliError::data(format!("{path}: {e}")))?;
    let schema = CompiledSchema::compile(&doc).map_err(|e| e.to_string())?;
    Ok((schema, text))
}

/// The one verdict printer: one stdout line per diagnostic of every
/// invalid document, returning how many documents were invalid. With the
/// records' text in memory the schema's errors face re-runs on *just* the
/// invalid lines — decoded again by the run's own format under its own
/// limits —: the same arena walk that gave the verdict, so an invalid
/// document always has diagnostics. An out-of-core run never holds a
/// line to re-validate and reports `doc N: invalid` instead.
fn print_invalid(
    verdicts: &[(usize, LineVerdict)],
    records: Option<&str>,
    run: &Run<'_>,
    schema: &CompiledSchema,
    vopts: ValidatorOptions,
) -> Result<usize, CliError> {
    let limits = run.fault.limits;
    let json = JsonDecoder::new().with_limits(limits);
    let csv = match &run.format {
        Format::Ndjson => None,
        Format::Csv(decoder) => Some(decoder.clone().with_limits(limits)),
    };
    let decode = |line: &str| match &csv {
        None => json.decode_value(&mut (), line),
        Some(csv) => csv.decode_value(&mut (), line),
    };
    let mut out = PipeOut::new();
    let mut invalid = 0usize;
    // Verdicts come in line order, so one forward walk finds every line.
    // (Lines as the run read them: less the byte-order mark the first may
    // lead with.)
    let mut lines = records.map(|text| {
        let text = text.strip_prefix('\u{feff}').unwrap_or(text);
        text.lines().enumerate()
    });
    for (line_no, verdict) in verdicts {
        if verdict.is_valid() {
            continue;
        }
        invalid += 1;
        let Some(lines) = &mut lines else {
            out.line(&format!("doc {line_no}: invalid"))?;
            continue;
        };
        let (_, line) = lines
            .find(|(i, _)| i == line_no)
            .expect("verdict indices are line numbers of this text");
        let Ok(doc) = decode(line) else {
            // Should the re-parse ever disagree with the run's decode.
            out.line(&format!("doc {line_no}: invalid"))?;
            continue;
        };
        if let Err(errors) = schema.validate_with(&doc, vopts) {
            for e in errors {
                out.line(&format!("doc {line_no}: {e}"))?;
            }
        }
    }
    out.finish()?;
    Ok(invalid)
}

// ---------------------------------------------------------------------------
// infer
// ---------------------------------------------------------------------------

fn cmd_infer(opts: &Opts) -> Result<(), CliError> {
    let equiv = match opts.get("equiv").unwrap_or("K") {
        "K" | "k" | "kind" => Equivalence::Kind,
        "L" | "l" | "label" => Equivalence::Label,
        other => {
            return Err(CliError::usage(format!(
                "unknown equivalence '{other}' (use K or L)"
            )))
        }
    };
    let (mut run, csv) = run_plan(opts)?;
    if let Some(schema_path) = opts.get("validate") {
        // The combined single pass: one tokenisation per line feeds both
        // type fusion and the compiled fail-fast validator. Invalid
        // documents are reported but don't fail the run — the primary
        // output is still the inferred type.
        if run.journal.is_some() {
            return Err(CliError::usage(
                "--checkpoint does not support infer --validate (journal one pass at a time)",
            ));
        }
        let (schema, _) = load_schema(schema_path)?;
        let vopts = ValidatorOptions::default();
        let mut corpus = open_corpus(opts, &mut run, csv)?;
        let ((ty, verdicts), report) = run
            .infer_validate(corpus.source(), equiv, &schema, vopts)
            .map_err(stream_err)?;
        let suffix = finish_run(opts, &report)?;
        print_routes(&report, "typed in place", "the typer");
        let invalid = print_invalid(&verdicts, corpus.records(), &run, &schema, vopts)?;
        print_inferred_type(opts, &ty)?;
        eprintln!(
            "» {}/{} documents valid (combined pass{}), equivalence {}, type size {} nodes{suffix}",
            verdicts.len() - invalid,
            verdicts.len(),
            if csv { ", csv" } else { "" },
            equiv.name(),
            jsonx::core::type_size(&ty)
        );
        return Ok(());
    }
    let mut corpus = open_corpus(opts, &mut run, csv)?;
    let (ty, report) = run.infer(corpus.source(), equiv).map_err(stream_err)?;
    let suffix = finish_run(opts, &report)?;
    print_routes(&report, "typed in place", "the typer");
    print_inferred_type(opts, &ty)?;
    eprintln!(
        "» {} documents ({}), equivalence {}, type size {} nodes{suffix}",
        report.records - report.errors.total,
        mode(csv),
        equiv.name(),
        jsonx::core::type_size(&ty)
    );
    Ok(())
}

fn print_inferred_type(opts: &Opts, ty: &jsonx::core::JType) -> Result<(), CliError> {
    let text = if opts.has("schema") {
        to_string_pretty(&to_json_schema(ty))
    } else {
        let popts = if opts.has("counts") {
            PrintOptions::with_counts()
        } else {
            PrintOptions::plain()
        };
        print_type(ty, popts)
    };
    print_lines(text.lines())
}

// ---------------------------------------------------------------------------
// validate
// ---------------------------------------------------------------------------

fn cmd_validate(opts: &Opts) -> Result<(), CliError> {
    let schema_path = opts
        .get("schema")
        .ok_or_else(|| CliError::usage("validate needs --schema SCHEMA.json"))?;
    let (schema, schema_text) = load_schema(schema_path)?;
    let vopts = ValidatorOptions {
        enforce_formats: opts.has("formats"),
    };
    // Fail-fast probe per record on shared workers; diagnostics come
    // from the same walk's errors face on demand (see `print_invalid`).
    let (mut run, csv) = run_plan(opts)?;
    if let Some(journal) = &mut run.journal {
        // A resume with a different schema is refused instead of
        // mixing verdicts from two schemas in one output.
        journal.schema_tag = jsonx::data::crc32(schema_text.as_bytes());
    }
    let mut corpus = open_corpus(opts, &mut run, csv)?;
    let (verdicts, report) = run
        .validate(corpus.source(), &schema, vopts)
        .map_err(stream_err)?;
    let suffix = finish_run(opts, &report)?;
    print_routes(&report, "validated from events", "the parser");
    let invalid = print_invalid(&verdicts, corpus.records(), &run, &schema, vopts)?;
    let total = verdicts.len();
    eprintln!(
        "» {}/{total} documents valid ({}){suffix}",
        total - invalid,
        mode(csv)
    );
    if invalid > 0 {
        return Err(CliError::data(format!("{invalid} invalid documents")));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// profile / skeleton / project
// ---------------------------------------------------------------------------

fn cmd_profile(opts: &Opts) -> Result<(), CliError> {
    let text = read_text(opts.file.as_deref())?;
    let profile = fold_documents(&text, &ProfileFold)?;
    print_lines(profile.report().lines())?;
    eprintln!(
        "» {} documents, {} paths",
        profile.total_docs(),
        profile.size()
    );
    Ok(())
}

fn cmd_skeleton(opts: &Opts) -> Result<(), CliError> {
    let coverage: f64 = parse_flag(opts, "coverage")?.unwrap_or(0.9);
    let text = read_text(opts.file.as_deref())?;
    let sk = Skeleton::from_counts(fold_documents(&text, &SkeletonFold)?, coverage);
    print_lines(
        sk.structures
            .iter()
            .map(|(tree, count)| format!("{count:>8}  {tree}")),
    )?;
    let stats = sk.stats();
    eprintln!(
        "» {} structures, {:.1}% coverage, {} queryable paths",
        stats.structures,
        stats.coverage * 100.0,
        stats.paths
    );
    Ok(())
}

fn cmd_project(opts: &Opts) -> Result<(), CliError> {
    let fields_arg = opts
        .get("fields")
        .ok_or_else(|| CliError::usage("project needs --fields a,b.c"))?;
    let fields: Vec<&str> = fields_arg.split(',').collect();
    let fold = ProjectFold::new(&fields).map_err(|e| e.to_string())?;
    let text = read_text(opts.file.as_deref())?;
    match Run::default().documents(Source::slice(&text), &fold) {
        Ok((rows, _)) => print_lines(rows),
        // A row per line, as far as the lines go well: the rows of the
        // lines before the one that stopped the run print before its error.
        Err(StreamError::Record { record, issue }) => {
            let before = text.split_inclusive('\n').take(record).map(str::len).sum();
            print_lines(fold_documents(&text[..before], &fold)?)?;
            Err(stream_err(StreamError::Record { record, issue }))
        }
        Err(e) => Err(stream_err(e)),
    }
}

// ---------------------------------------------------------------------------
// convert / translate / cat
// ---------------------------------------------------------------------------

/// The paper's §5 Avro and relational targets, on the document stage:
/// Avro rows are encoded one document at a time under the collection's
/// inferred type and only their sizes kept; the relational
/// decomposition needs every document at once. The columnar target is
/// `translate`'s.
fn cmd_convert(opts: &Opts) -> Result<(), CliError> {
    let target = opts
        .get("to")
        .ok_or_else(|| CliError::usage("convert needs --to avro|relational"))?;
    match target {
        "avro" | "relational" => {}
        "columnar" => {
            return Err(CliError::usage(
                "convert --to columnar was removed: `jsonx translate` prints the same \
                 columnar batch, and `translate --out FILE` writes it as a .jxc file",
            ))
        }
        other => return Err(CliError::usage(format!("unknown target '{other}'"))),
    }
    let text = read_text(opts.file.as_deref())?;
    if target == "avro" {
        let fold = AvroFold::new(&infer_text(&text)?);
        let (docs, bytes) = fold_documents(&text, &fold)?;
        eprintln!(
            "» {docs} documents encoded: {bytes} bytes binary (schema derived from inference)"
        );
        return Ok(());
    }
    let docs = fold_documents(&text, &CollectFold)?;
    drop(text);
    let relations = jsonx::translate::normalize("root", &docs);
    print_lines(relations.iter().map(|rel| {
        format!(
            "{}({})  -- {} rows",
            rel.name,
            rel.columns.join(", "),
            rel.rows.len()
        )
    }))
}

/// Schema-driven columnar translation on the engine.
///
/// Newline-bounded chunks are shredded into one columnar batch each,
/// under the layout of the corpus's own type — which the first chunk
/// teaches and every record is checked against while it is shredded, a
/// chunk whose records widen it being shredded again — so no DOM for
/// the whole collection ever exists, and a corpus the first chunk
/// describes is read once. `--no-fast-parse` is the reference route:
/// the whole corpus is typed first, then shredded. `--format csv` swaps
/// the record decoder for the CSV front-end on the same engine; `--out
/// FILE` writes the chunks' batches, in chunk order, as one binary
/// `.jxc` — one column block at a time, never concatenated; `--report-timing`
/// says how long that took. `--checkpoint` journals each pass as a phase of one
/// file (the type the next pass lays rows out under is sealed between
/// them) and the chunks' rows, as `.jxc` images, to `FILE.rows`, so a
/// resume lands in whichever pass the run died in. The Avro and
/// relational targets are `convert`'s.
fn cmd_translate(opts: &Opts) -> Result<(), CliError> {
    let (mut run, csv) = run_plan(opts)?;
    if opts.get("input") == Some("-") {
        return Err(CliError::usage(
            "translate reads a chunk again when a record widens the layout the first chunk \
             taught; --input - (stdin) cannot be read again — pass a regular file",
        ));
    }
    let mut corpus = open_corpus(opts, &mut run, csv)?;
    let (parts, report) = run.translate(corpus.source()).map_err(stream_err)?;
    let suffix = finish_run(opts, &report)?;
    print_routes(&report, "shredded from events", "the parser");
    // The run returns at least one part, so the layout is always known.
    let columns = parts[0].columns.len();
    let rows: usize = parts.iter().map(|part| part.rows).sum();
    let mut summary = format!("{columns} columns x {rows} rows");
    if let Some(path) = opts.get("out") {
        let started = std::time::Instant::now();
        let bytes = write_jxc_out(Path::new(path), &parts)
            .map_err(|e| CliError::io(format!("writing {path}: {e}")))?;
        if opts.has("report-timing") {
            eprintln!(
                "» wrote {path}: {columns} column blocks, {bytes} bytes in {:.1} ms",
                started.elapsed().as_secs_f64() * 1e3
            );
        }
        summary += &format!(", {bytes} bytes -> {path}");
    }
    println!("{}", parts[0].schema_string());
    eprintln!("» {summary} ({}){suffix}", mode(csv));
    Ok(())
}

/// Writes a translation's chunk batches to `path` as one `.jxc` file,
/// one column block at a time, through one buffer; returns its size.
fn write_jxc_out(path: &Path, parts: &[ColumnarBatch]) -> std::io::Result<u64> {
    let mut file = BufWriter::new(std::fs::File::create(path)?);
    let bytes = write_jxc_parts(parts, &mut file)?;
    file.flush()?;
    Ok(bytes)
}

/// `jsonx cat FILE.jxc`: schema and rows on stdout, per-column encoding
/// summary on stderr. `--flatten` cross-joins list columns into flat
/// rows; `--head N` bounds the rows shown — and decoded: the whole file
/// is checked, only its first N rows are built (a row flattens to at
/// least one row, so N rows are enough for `--flatten` too), and each
/// row is rendered from its columns (`render_rows`), not built. The file
/// is read one column block at a time (`read_jxc_file_head`), so `cat`
/// holds one block plus the rows it prints; a pipe (`/dev/stdin` on one)
/// cannot seek and is read whole, with the same output.
fn cmd_cat(opts: &Opts) -> Result<(), CliError> {
    use jsonx::translate::JxcError;
    use std::fmt::Write as _;
    let path = opts
        .file
        .as_deref()
        .ok_or_else(|| CliError::usage("cat needs a FILE.jxc argument"))?;
    let head: usize = parse_flag(opts, "head")?.unwrap_or(10);
    let file = read_jxc_file_head(std::path::Path::new(path), head).map_err(|e| match e {
        JxcError::Io(_) => CliError::io(e.to_string()),
        _ => CliError::data(e.to_string()),
    })?;
    let mut out = PipeOut::new();
    out.line(&file.batch.schema_string())?;
    let shown = render_rows(&file, head, opts.has("flatten"), |row| out.line(row))?;
    out.finish()?;
    // One write for the whole report: stderr is unbuffered.
    let mut report = String::new();
    for info in &file.columns {
        let detail = match (info.dict_len, info.list_items) {
            (Some(d), Some(items)) => format!(" ({items} items, dict {d})"),
            (Some(d), None) => format!(" (dict {d})"),
            (None, Some(items)) => format!(" ({items} items)"),
            (None, None) => String::new(),
        };
        writeln!(
            report,
            "» {}: {} {}{detail}, {}/{} valid, {} bytes",
            info.path,
            info.type_name,
            info.encoding.label(),
            info.valid_count,
            file.rows,
            info.block_bytes
        )
        .expect("writing to a String");
    }
    writeln!(
        report,
        "» {} columns x {} rows, showing {shown}",
        file.columns.len(),
        file.rows,
    )
    .expect("writing to a String");
    eprint!("{report}");
    Ok(())
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

fn cmd_serve(opts: &Opts) -> Result<(), CliError> {
    use jsonx::serve::{ServeConfig, Server};
    if opts.file.is_some() {
        return Err(CliError::usage(
            "serve takes no FILE argument (payloads arrive over the socket)",
        ));
    }
    let mut config = ServeConfig {
        listen: opts.get("listen").unwrap_or("127.0.0.1:7077").to_string(),
        schema_path: opts.get("schema").map(PathBuf::from),
        workers: parse_workers(opts)?,
        limits: parse_limits(opts)?,
        debug_faults: opts.has("debug-faults"),
        ..ServeConfig::default()
    };
    if let Some(depth) = parse_flag(opts, "queue-depth")? {
        config.queue_depth = depth;
    }
    if let Some(ms) = parse_flag::<u64>(opts, "deadline-ms")? {
        config.deadline = Some(std::time::Duration::from_millis(ms));
    }
    if let Some(n) = parse_flag(opts, "max-conns")? {
        config.max_conns = n;
    }
    if let Some(ms) = parse_flag::<u64>(opts, "frame-budget-ms")? {
        config.frame_budget = std::time::Duration::from_millis(ms);
    }
    let server = Server::bind(config).map_err(|e| CliError::io(e.to_string()))?;
    let addr = server
        .local_addr()
        .ok_or_else(|| CliError::io("could not determine listen address"))?;
    // The harness and the CI gate scrape this line, so flush it past any
    // pipe buffering before blocking in the accept loop.
    println!("listening on {addr}");
    let _ = std::io::stdout().flush();
    let report = server.run();
    eprintln!("{}", report.to_json_line());
    if report.reconciled() {
        Ok(())
    } else {
        Err(CliError::data("final report failed reconciliation"))
    }
}

// ---------------------------------------------------------------------------
// query
// ---------------------------------------------------------------------------

fn cmd_query(opts: &Opts) -> Result<(), CliError> {
    use jsonx::jaql::{expr, infer_output_type, Pipeline};
    // The stages' order is fixed, whatever the flags' order.
    let mut q = Pipeline::new();
    if let Some(path) = opts.get("where-exists") {
        q = q.filter(expr::exists(expr::path(path)));
    }
    if let Some(path) = opts.get("expand") {
        q = q.expand(expr::path(path));
    }
    if let Some(projection) = opts.get("project") {
        let fields: Vec<(&str, jsonx::jaql::Expr)> = projection
            .split(',')
            .map(|p| {
                let name = p.rsplit('.').next().unwrap_or(p);
                (name, expr::path(p))
            })
            .collect();
        q = q.transform(expr::record(fields));
    }
    if let Some(n) = parse_flag::<usize>(opts, "top")? {
        q = q.top(n);
    }
    let text = read_text(opts.file.as_deref())?;
    // Static output schema first — the Jaql §4.1 feature.
    let output_ty = infer_output_type(&q, &infer_text(&text)?);
    eprintln!("» pipeline: {q}");
    eprintln!(
        "» inferred output type: {}",
        print_type(&output_ty, PrintOptions::plain())
    );
    let fold = QueryFold::new(&q);
    let rows = fold.finish(fold_documents(&text, &fold)?);
    print_lines(rows.iter().map(to_string))
}
