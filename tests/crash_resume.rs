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
//! 1, 2 and 8 workers — and for a translation, whose journal holds each
//! pass as a phase and its rows in a sidecar, at every commit of every
//! phase, over corpora that widen the layout the first chunk taught.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_jsonx");

/// Exit codes the CLI documents (README "Exit codes").
const EXIT_INTERRUPTED: i32 = 4;
const EXIT_USAGE: i32 = 2;
const EXIT_IO: i32 = 3;

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
    stderr: String,
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
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        code: out.status.code(),
    }
}

fn run_owned(args: &[String], crashpoint: Option<&str>) -> RunOutput {
    let borrowed: Vec<&str> = args.iter().map(String::as_str).collect();
    run(&borrowed, crashpoint)
}

/// How many chunks an uninterrupted journaled run commits (counted from
/// the journal: its chunk records).
fn committed_chunks(journal: &Path) -> usize {
    let text = std::fs::read_to_string(journal).expect("read journal");
    text.lines()
        .filter(|line| line.contains("{\"kind\":\"chunk\""))
        .count()
}

/// The rows sidecar of the journal at `journal`.
fn rows_of(journal: &Path) -> PathBuf {
    PathBuf::from(format!("{}.rows", journal.display()))
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

/// Translate journals its passes as phases of one journal (teach one
/// chunk, then shred every chunk); a kill in either resumes to a
/// byte-identical `.jxc`.
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

    // Kill in phase 1 (its one chunk: commit 1) and in phase 2 (shred) —
    // the commit counter spans the phases.
    for kill_at in [1, 2, 40] {
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

/// `translate` over `corpus` at small chunks, `--on-error skip` into a
/// quarantine sidecar; journaled when `journal` is given.
fn translate_args(
    corpus: &Path,
    workers: &str,
    out: &Path,
    quarantine: &Path,
    journal: Option<(&Path, bool)>,
) -> Vec<String> {
    let mut args: Vec<String> = vec![
        "translate".into(),
        "--input".into(),
        corpus.display().to_string(),
        "--chunk-bytes".into(),
        "1024".into(),
        "--workers".into(),
        workers.into(),
        "--on-error".into(),
        "skip".into(),
        "--quarantine".into(),
        quarantine.display().to_string(),
        "--out".into(),
        out.display().to_string(),
    ];
    if let Some((journal, resume)) = journal {
        args.extend(["--checkpoint".into(), journal.display().to_string()]);
        if resume {
            args.push("--resume".into());
        }
    }
    args
}

/// 200 records of one shape — ~8 chunks of 1 KiB — with a malformed line
/// and a non-record, and `late`'s lines instead of theirs: what a late
/// chunk does to the layout the first one taught.
fn widening_corpus(path: &Path, late: &[(usize, &str)]) {
    let text: String = (0..200)
        .map(|i| {
            let line = match late.iter().find(|(at, _)| *at == i) {
                Some((_, line)) => line.replace("{i}", &i.to_string()),
                None if i == 70 => "{\"id\":".into(),
                None if i == 110 => "42".into(),
                None => format!("{{\"id\":{i},\"name\":\"u{i}\",\"tags\":[{i}]}}"),
            };
            line + "\n"
        })
        .collect();
    std::fs::write(path, text).expect("write corpus");
}

/// A translation killed at **every** commit — in the teach pass, the
/// verifying shred pass and the pass that shreds again what a late record
/// widened — and stopped gracefully once, at workers 1, 2 and 8, resumes
/// to the unjournaled `.jxc` and quarantine sidecar, over corpora that
/// widen additively (a new field in a later chunk), restructure (`Int` →
/// `Str`) and void the chunk after the first. Each resume first finds an
/// image torn after the last commit at the sidecar's end (what a kill
/// between an image and its record leaves), and must leave the journal
/// and sidecar an uninterrupted journaled run writes.
#[test]
fn translate_killed_at_every_commit_resumes_to_the_unjournaled_jxc() {
    let dir = TempDir::new("translate-matrix");
    let corpora: [(&str, &[(usize, &str)]); 3] = [
        (
            "adds",
            &[(
                150,
                r#"{"id":{i},"name":"u{i}","tags":[{i}],"late":{"x":{i}}}"#,
            )],
        ),
        (
            "restructures",
            &[(120, r#"{"id":"s{i}","name":"u{i}","tags":[{i}]}"#)],
        ),
        (
            "voids-second",
            &[
                (30, r#"{"id":{i},"name":"u{i}","geo":{"lat":{i}.5}}"#),
                (35, r#"{"id":"#),
            ],
        ),
    ];
    for (name, late) in corpora {
        let corpus = dir.path(&format!("{name}.ndjson"));
        widening_corpus(&corpus, late);
        let (ref_jxc, ref_q) = (dir.path("ref.jxc"), dir.path("ref.q"));
        let reference = run_owned(&translate_args(&corpus, "2", &ref_jxc, &ref_q, None), None);
        assert_eq!(reference.code, Some(0), "{name}: {}", reference.stderr);
        let (want_jxc, want_q) = (
            std::fs::read(&ref_jxc).unwrap(),
            std::fs::read(&ref_q).unwrap(),
        );
        assert!(!want_q.is_empty(), "{name}: the corpus has rejects");

        let probe = dir.path("probe.journal");
        let (out, q) = (dir.path("out.jxc"), dir.path("out.q"));
        let complete = run_owned(
            &translate_args(&corpus, "2", &out, &q, Some((&probe, false))),
            None,
        );
        assert_eq!(complete.code, Some(0), "{name}: {}", complete.stderr);
        assert_eq!(std::fs::read(&out).unwrap(), want_jxc, "{name}");
        let uninterrupted = (
            std::fs::read(&probe).unwrap(),
            std::fs::read(rows_of(&probe)).unwrap(),
        );
        let total = committed_chunks(&probe);
        let phases = std::fs::read_to_string(&probe).unwrap();
        assert!(
            phases.contains("\"phase\":3"),
            "{name}: no chunk was shredded again"
        );

        let journal = dir.path("run.journal");
        for workers in ["1", "2", "8"] {
            let kills = (1..=total).map(|n| format!("commits:{n}"));
            for spec in kills.chain([format!("stop:{}", total / 2)]) {
                let what = format!("{name}, workers {workers}, {spec}");
                let _ = std::fs::remove_file(&out);
                let _ = std::fs::remove_file(&q);
                let killed = run_owned(
                    &translate_args(&corpus, workers, &out, &q, Some((&journal, false))),
                    Some(&spec),
                );
                assert_ne!(killed.code, Some(0), "{what}: the run was not interrupted");
                let mut rows = std::fs::OpenOptions::new()
                    .append(true)
                    .open(rows_of(&journal))
                    .unwrap();
                std::io::Write::write_all(&mut rows, b"JXC1 an image torn before its record")
                    .unwrap();
                drop(rows);
                let resumed = run_owned(
                    &translate_args(&corpus, workers, &out, &q, Some((&journal, true))),
                    None,
                );
                assert_eq!(resumed.code, Some(0), "{what}: {}", resumed.stderr);
                assert_eq!(std::fs::read(&out).unwrap(), want_jxc, "{what}: .jxc");
                assert_eq!(std::fs::read(&q).unwrap(), want_q, "{what}: quarantine");
                let left = (
                    std::fs::read(&journal).unwrap(),
                    std::fs::read(rows_of(&journal)).unwrap(),
                );
                assert!(left == uninterrupted, "{what}: journal or rows differ");
            }
        }
    }
}

/// A damaged rows sidecar — missing, cut before a committed image's end,
/// a byte flipped inside a committed image, another run's swapped in —
/// is a clean refusal naming the file: no panic, no `.jxc`. And a sidecar
/// that cannot be written commits no record whose image is not durable.
#[test]
fn a_damaged_rows_sidecar_is_refused_by_name() {
    let dir = TempDir::new("rows-damage");
    let corpus = dir.path("corpus.ndjson");
    write_corpus(&corpus, 400);
    let other = dir.path("other.ndjson");
    widening_corpus(&other, &[]);
    let (out, q) = (dir.path("out.jxc"), dir.path("out.q"));
    let journal = dir.path("run.journal");
    let rows = rows_of(&journal);
    let killed = |input: &Path, journal: &Path| {
        let args = translate_args(input, "2", &out, &q, Some((journal, false)));
        let killed = run_owned(&args, Some("commits:5"));
        assert_ne!(killed.code, Some(0));
    };
    let other_journal = dir.path("other.journal");
    killed(&other, &other_journal);
    for damage in ["missing", "cut", "flipped", "swapped"] {
        killed(&corpus, &journal);
        let mut bytes = std::fs::read(&rows).unwrap();
        match damage {
            "missing" => std::fs::remove_file(&rows).unwrap(),
            "cut" => bytes.truncate(bytes.len() - 10),
            "flipped" => {
                let at = bytes.len() / 3;
                bytes[at] ^= 0x40;
            }
            _ => bytes = std::fs::read(rows_of(&other_journal)).unwrap(),
        }
        if damage != "missing" {
            std::fs::write(&rows, &bytes).unwrap();
        }
        let _ = std::fs::remove_file(&out);
        let resumed = run_owned(
            &translate_args(&corpus, "2", &out, &q, Some((&journal, true))),
            None,
        );
        assert_eq!(resumed.code, Some(EXIT_IO), "{damage}: {}", resumed.stderr);
        assert!(
            resumed.stderr.contains(&rows.display().to_string())
                && !resumed.stderr.contains("panicked"),
            "{damage}: {}",
            resumed.stderr
        );
        assert!(!out.exists(), "{damage}: a refused resume wrote a .jxc");
    }

    #[cfg(target_os = "linux")]
    {
        let _ = std::fs::remove_file(&rows);
        std::os::unix::fs::symlink("/dev/full", &rows).unwrap();
        let full = run_owned(
            &translate_args(&corpus, "2", &out, &q, Some((&journal, false))),
            None,
        );
        assert_eq!(full.code, Some(EXIT_IO), "{}", full.stderr);
        let text = std::fs::read_to_string(&journal).unwrap();
        assert!(text.contains("\"phase\":1"), "{text}");
        assert!(
            !text.contains("\"phase\":2"),
            "a record names an image that is not durable: {text}"
        );
    }
}

/// The translate journal of the commit before v2 is refused by version —
/// the exit code of any header mismatch — and neither it nor a rows
/// sidecar is touched.
#[test]
fn a_v1_translate_journal_is_refused_untouched() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let input = root.join("crates/translate/tests/fixtures/golden.ndjson");
    let fixture = std::fs::read(root.join("tests/fixtures/golden_translate_v1.journal")).unwrap();
    let dir = TempDir::new("v1");
    let journal = dir.path("v1.journal");
    std::fs::write(&journal, &fixture).unwrap();
    let out = dir.path("out.jxc");
    let args = |resume: bool, chunk_bytes: &str| {
        let mut args = vec![
            "translate".to_string(),
            "--input".into(),
            input.display().to_string(),
            "--chunk-bytes".into(),
            chunk_bytes.into(),
            "--checkpoint".into(),
            journal.display().to_string(),
            "--out".into(),
            out.display().to_string(),
        ];
        if resume {
            args.push("--resume".into());
        }
        args
    };
    let refused = run_owned(&args(true, "256"), None);
    let message = format!(
        "checkpoint journal {} was written in journal format v1; this jsonx writes v2 for \
         translate — rerun without --resume",
        journal.display()
    );
    assert!(refused.stderr.contains(&message), "{}", refused.stderr);
    assert_eq!(std::fs::read(&journal).unwrap(), fixture);
    assert!(!rows_of(&journal).exists() && !out.exists());

    // Any header mismatch exits alike: a v2 journal resumed with another
    // chunk target.
    let fresh = run_owned(&args(false, "256"), None);
    assert_eq!(fresh.code, Some(0), "{}", fresh.stderr);
    let mismatched = run_owned(&args(true, "512"), None);
    assert!(
        mismatched.stderr.contains("different run"),
        "{}",
        mismatched.stderr
    );
    assert_eq!(refused.code, mismatched.code);
    assert_eq!(refused.code, Some(EXIT_IO));
}

/// A journal whose torn tail splits a multi-byte character resumes like
/// any torn tail, to the type of an uninterrupted run.
#[test]
fn a_tail_torn_inside_a_character_resumes() {
    use std::io::Write as _;

    let dir = TempDir::new("utf8-tail");
    let corpus = dir.path("u.ndjson");
    let text: String = (0..400)
        .map(|i| format!("{{\"café\":{i},\"naïve\":\"ü{i}\"}}\n"))
        .collect();
    std::fs::write(&corpus, text).unwrap();
    let corpus = corpus.to_str().unwrap();
    let journal = dir.path("u.journal");
    let args = |journal: Option<&str>, resume| {
        let mut args = infer_args(corpus, "1", journal, resume);
        args[4] = "2048";
        args.into_iter().map(String::from).collect::<Vec<_>>()
    };
    let reference = run_owned(&args(None, false), None);
    assert_eq!(reference.code, Some(0));
    let made = run_owned(&args(Some(journal.to_str().unwrap()), false), None);
    assert_eq!(made.code, Some(0));
    let written = std::fs::read(&journal).unwrap();
    let last = written[..written.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .unwrap()
        + 1;
    let record = &written[last..];
    let e_acute = record.windows(2).position(|w| w == "é".as_bytes()).unwrap();
    for cut in [e_acute, e_acute + 1] {
        std::fs::write(&journal, &written).unwrap();
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        file.write_all(&record[..cut]).unwrap();
        drop(file);
        let resumed = run_owned(&args(Some(journal.to_str().unwrap()), true), None);
        assert_eq!(resumed.code, Some(0), "cut at {cut}: {}", resumed.stderr);
        assert_eq!(resumed.stdout, reference.stdout, "cut at {cut}");
    }
}
