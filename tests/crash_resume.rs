//! Kill-and-resume fault harness for the chunk-commit journal.
//!
//! The contract under test: a run killed at *any* commit boundary —
//! abort (SIGKILL stand-in), graceful stop, torn journal tail — resumes
//! with `--resume` to output **byte-identical** to an uninterrupted run.
//! Kill points are injected deterministically through the
//! `JSONX_CRASHPOINT` environment variable (`commits:N` aborts the
//! process after the Nth journal commit, `stop:N` trips the graceful
//! stop latch), driven across the matrix the design calls for: kill
//! after the first chunk, mid-run, and at the last chunk, each under
//! 1, 2 and 8 workers.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_jsonx");

/// Exit codes the CLI documents (README "Exit codes").
const EXIT_INTERRUPTED: i32 = 4;
const EXIT_USAGE: i32 = 2;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "jsonx-crash-{tag}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A corpus with enough variety that the inferred type, the verdict
/// stream and the columnar batch all depend on record order and content.
fn write_corpus(path: &Path, records: usize) {
    let mut text = String::new();
    for i in 0..records {
        text.push_str(&format!(
            "{{\"id\":{i},\"name\":\"user{i}\",\"tags\":[{},{}],\"active\":{}{}}}\n",
            i % 3,
            i % 7,
            i % 2 == 0,
            if i % 5 == 0 {
                format!(",\"extra\":{{\"depth\":{}}}", i % 11)
            } else {
                String::new()
            },
        ));
    }
    std::fs::write(path, text).expect("write corpus");
}

struct RunOutput {
    stdout: Vec<u8>,
    code: Option<i32>,
}

fn run(args: &[&str], crashpoint: Option<&str>) -> RunOutput {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    match crashpoint {
        Some(spec) => cmd.env("JSONX_CRASHPOINT", spec),
        None => cmd.env_remove("JSONX_CRASHPOINT"),
    };
    let out = cmd.output().expect("spawn jsonx");
    RunOutput {
        stdout: out.stdout,
        code: out.status.code(),
    }
}

fn run_owned(args: &[String], crashpoint: Option<&str>) -> RunOutput {
    let borrowed: Vec<&str> = args.iter().map(String::as_str).collect();
    run(&borrowed, crashpoint)
}

/// How many chunks an uninterrupted journaled run commits (counted from
/// the journal: total records minus the header line).
fn committed_chunks(journal: &Path) -> usize {
    let text = std::fs::read_to_string(journal).expect("read journal");
    text.lines().count().saturating_sub(1)
}

fn infer_args<'a>(
    corpus: &'a str,
    workers: &'a str,
    journal: Option<&'a str>,
    resume: bool,
) -> Vec<&'a str> {
    let mut args = vec![
        "infer",
        "--input",
        corpus,
        "--chunk-bytes",
        "2048",
        "--workers",
        workers,
    ];
    if let Some(journal) = journal {
        args.extend(["--checkpoint", journal]);
    }
    if resume {
        args.push("--resume");
    }
    args
}

/// The full kill matrix on infer: abort after {1 chunk, mid-run, last
/// chunk} × workers {1, 2, 8}, resumed output byte-identical to the
/// uninterrupted reference.
#[test]
fn aborted_infer_resumes_byte_identical_across_kill_matrix() {
    let dir = TempDir::new("matrix");
    let corpus = dir.path("corpus.ndjson");
    write_corpus(&corpus, 4000);
    let corpus = corpus.to_str().unwrap();

    let reference = run(&infer_args(corpus, "2", None, false), None);
    assert_eq!(reference.code, Some(0));

    // One complete journaled run tells us the total commit count, so the
    // matrix can aim at the first, middle and last commit exactly.
    let probe = dir.path("probe.journal");
    let complete = run(
        &infer_args(corpus, "2", Some(probe.to_str().unwrap()), false),
        None,
    );
    assert_eq!(complete.code, Some(0));
    assert_eq!(complete.stdout, reference.stdout);
    let total = committed_chunks(&probe);
    assert!(total > 3, "matrix needs several chunks, got {total}");

    for workers in ["1", "2", "8"] {
        for kill_at in [1, total / 2, total] {
            let journal = dir.path(&format!("w{workers}-k{kill_at}.journal"));
            let journal = journal.to_str().unwrap();
            let spec = format!("commits:{kill_at}");
            let killed = run(
                &infer_args(corpus, workers, Some(journal), false),
                Some(&spec),
            );
            assert_ne!(
                killed.code,
                Some(0),
                "workers={workers} kill_at={kill_at}: abort expected"
            );
            let resumed = run(&infer_args(corpus, workers, Some(journal), true), None);
            assert_eq!(
                resumed.code,
                Some(0),
                "workers={workers} kill_at={kill_at}: resume failed"
            );
            assert_eq!(
                resumed.stdout, reference.stdout,
                "workers={workers} kill_at={kill_at}: resumed output differs"
            );
        }
    }
}

/// Graceful stop (the signal path, exercised via the stop crashpoint):
/// exit code 4, then a resume that completes with identical output.
#[test]
fn graceful_stop_exits_resumable_then_resumes() {
    let dir = TempDir::new("stop");
    let corpus = dir.path("corpus.ndjson");
    write_corpus(&corpus, 3000);
    let corpus = corpus.to_str().unwrap();
    let journal = dir.path("run.journal");
    let journal = journal.to_str().unwrap();

    let reference = run(&infer_args(corpus, "2", None, false), None);
    assert_eq!(reference.code, Some(0));

    let stopped = run(
        &infer_args(corpus, "2", Some(journal), false),
        Some("stop:2"),
    );
    assert_eq!(
        stopped.code,
        Some(EXIT_INTERRUPTED),
        "graceful stop must exit with the interrupted-resumable code"
    );

    let resumed = run(&infer_args(corpus, "2", Some(journal), true), None);
    assert_eq!(resumed.code, Some(0));
    assert_eq!(resumed.stdout, reference.stdout);
}

/// A journal whose tail record was torn mid-append (the disk state a
/// power cut leaves) resumes from the last *valid* record.
#[test]
fn corrupted_journal_tail_resumes_from_last_valid_record() {
    use std::io::Write as _;

    let dir = TempDir::new("torn");
    let corpus = dir.path("corpus.ndjson");
    write_corpus(&corpus, 3000);
    let corpus = corpus.to_str().unwrap();
    let journal = dir.path("run.journal");

    let reference = run(&infer_args(corpus, "2", None, false), None);

    let stopped = run(
        &infer_args(corpus, "2", Some(journal.to_str().unwrap()), false),
        Some("stop:3"),
    );
    assert_eq!(stopped.code, Some(EXIT_INTERRUPTED));

    // Tear the tail: an incomplete frame with no trailing newline, as if
    // the process died mid-write.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal)
        .expect("open journal");
    file.write_all(b"00000000 {\"kind\":\"chunk\",\"torn")
        .expect("append torn tail");
    drop(file);

    let resumed = run(
        &infer_args(corpus, "2", Some(journal.to_str().unwrap()), true),
        None,
    );
    assert_eq!(resumed.code, Some(0), "torn tail must not block resume");
    assert_eq!(resumed.stdout, reference.stdout);
}

/// Translate journals *two* phases (infer, then shred) into one journal;
/// a kill in either phase resumes to a byte-identical `.jxc`.
#[test]
fn aborted_translate_resumes_to_identical_jxc() {
    let dir = TempDir::new("translate");
    let corpus = dir.path("corpus.ndjson");
    write_corpus(&corpus, 4000);
    let corpus = corpus.to_str().unwrap();

    let translate = |journal: Option<&str>, resume: bool, out: &str| -> Vec<String> {
        let mut args: Vec<String> = [
            "translate",
            "--input",
            corpus,
            "--chunk-bytes",
            "2048",
            "--workers",
            "2",
            "--out",
            out,
        ]
        .map(String::from)
        .to_vec();
        if let Some(journal) = journal {
            args.push("--checkpoint".into());
            args.push(journal.into());
        }
        if resume {
            args.push("--resume".into());
        }
        args
    };

    let ref_jxc = dir.path("ref.jxc");
    let reference = run_owned(&translate(None, false, ref_jxc.to_str().unwrap()), None);
    assert_eq!(reference.code, Some(0));
    let ref_bytes = std::fs::read(&ref_jxc).expect("reference .jxc");

    // Kill early (phase 1: infer) and late (phase 2: shred) — the commit
    // counter spans both phases.
    for kill_at in [2, 40] {
        let journal = dir.path(&format!("k{kill_at}.journal"));
        let journal = journal.to_str().unwrap();
        let out = dir.path(&format!("k{kill_at}.jxc"));
        let out = out.to_str().unwrap();
        let spec = format!("commits:{kill_at}");
        let killed = run_owned(&translate(Some(journal), false, out), Some(&spec));
        assert_ne!(killed.code, Some(0), "kill_at={kill_at}: abort expected");
        let resumed = run_owned(&translate(Some(journal), true, out), None);
        assert_eq!(resumed.code, Some(0), "kill_at={kill_at}: resume failed");
        let got = std::fs::read(out).expect("resumed .jxc");
        assert_eq!(
            got, ref_bytes,
            "kill_at={kill_at}: resumed .jxc differs from uninterrupted reference"
        );
    }
}

/// Validate journals verdicts; an interrupted run resumes to the same
/// verdict stream and summary as an uninterrupted one.
#[test]
fn interrupted_validate_resumes_identical_verdicts() {
    let dir = TempDir::new("validate");
    let corpus = dir.path("corpus.ndjson");
    write_corpus(&corpus, 3000);
    let corpus = corpus.to_str().unwrap();
    // A schema roughly half the corpus fails (ids must be < 1500).
    let schema = dir.path("schema.json");
    std::fs::write(
        &schema,
        r#"{"type":"object","properties":{"id":{"type":"integer","maximum":1499}}}"#,
    )
    .expect("write schema");
    let schema = schema.to_str().unwrap();
    let journal = dir.path("run.journal");
    let journal = journal.to_str().unwrap();

    let validate = |journal: Option<&str>, resume: bool| -> Vec<String> {
        let mut args: Vec<String> = [
            "validate",
            "--schema",
            schema,
            "--input",
            corpus,
            "--chunk-bytes",
            "2048",
            "--workers",
            "2",
        ]
        .map(String::from)
        .to_vec();
        if let Some(journal) = journal {
            args.push("--checkpoint".into());
            args.push(journal.into());
        }
        if resume {
            args.push("--resume".into());
        }
        args
    };

    let reference = run_owned(&validate(None, false), None);
    assert_eq!(reference.code, Some(1), "invalid corpus exits 1");

    let stopped = run_owned(&validate(Some(journal), false), Some("stop:2"));
    assert_eq!(stopped.code, Some(EXIT_INTERRUPTED));
    let resumed = run_owned(&validate(Some(journal), true), None);
    assert_eq!(resumed.code, reference.code);
    assert_eq!(
        resumed.stdout, reference.stdout,
        "resumed verdict stream differs"
    );
}

/// The flag-validation surface: every misuse is a usage error (exit 2),
/// reported before any work starts.
#[test]
fn checkpoint_misuse_is_a_usage_error() {
    let dir = TempDir::new("usage");
    let corpus = dir.path("corpus.ndjson");
    write_corpus(&corpus, 10);
    let corpus = corpus.to_str().unwrap();
    let journal = dir.path("run.journal");
    let journal = journal.to_str().unwrap();

    // --resume without --checkpoint.
    let out = run(&["infer", "--input", corpus, "--resume"], None);
    assert_eq!(out.code, Some(EXIT_USAGE));
    // --checkpoint without --input.
    let out = run(&["infer", "--checkpoint", journal, corpus], None);
    assert_eq!(out.code, Some(EXIT_USAGE));
    // --checkpoint with stdin input.
    let out = run(&["infer", "--input", "-", "--checkpoint", journal], None);
    assert_eq!(out.code, Some(EXIT_USAGE));
    // --checkpoint with the CSV front-end.
    let out = run(
        &[
            "infer",
            "--input",
            corpus,
            "--format",
            "csv",
            "--checkpoint",
            journal,
        ],
        None,
    );
    assert_eq!(out.code, Some(EXIT_USAGE));
    // --checkpoint with the combined infer --validate pass.
    let schema = dir.path("schema.json");
    std::fs::write(&schema, r#"{"type":"object"}"#).expect("write schema");
    let out = run(
        &[
            "infer",
            "--input",
            corpus,
            "--validate",
            schema.to_str().unwrap(),
            "--checkpoint",
            journal,
        ],
        None,
    );
    assert_eq!(out.code, Some(EXIT_USAGE));
}

/// `jsonx cat FILE.jxc | head` must exit 0 when the reader closes the
/// pipe early (the classic EPIPE trap).
#[cfg(unix)]
#[test]
fn cat_into_closed_pipe_exits_zero() {
    use std::io::Read as _;
    use std::process::Stdio;

    let dir = TempDir::new("epipe");
    let corpus = dir.path("corpus.ndjson");
    write_corpus(&corpus, 5000);
    let jxc = dir.path("corpus.jxc");
    let made = run(
        &[
            "translate",
            corpus.to_str().unwrap(),
            "--out",
            jxc.to_str().unwrap(),
        ],
        None,
    );
    assert_eq!(made.code, Some(0));

    // Spawn `jsonx cat --head 100000`, read a little, then drop the pipe.
    let mut child = Command::new(BIN)
        .args(["cat", jxc.to_str().unwrap(), "--head", "100000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn jsonx cat");
    let mut stdout = child.stdout.take().expect("stdout piped");
    let mut buf = [0u8; 512];
    let _ = stdout.read(&mut buf).expect("read some output");
    drop(stdout); // close the read end — further writes hit EPIPE
    let status = child.wait().expect("wait");
    assert_eq!(
        status.code(),
        Some(0),
        "cat must exit 0 when its reader goes away"
    );
}
