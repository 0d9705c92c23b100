//! End-to-end tests of the `jsonx` CLI binary.

#[path = "../crates/schema/tests/oracle/mod.rs"]
mod oracle;

use jsonx::core::{infer_collection, Equivalence};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::parse_ndjson;
use jsonx::translate::Shredder;
use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_jsonx");

fn run(args: &[&str], stdin: &str) -> (String, String, bool) {
    let (out, err, code) = run_code(args, stdin);
    (out, err, code == Some(0))
}

fn run_code(args: &[&str], stdin: &str) -> (String, String, Option<i32>) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn jsonx");
    // A command that errors out before reading stdin closes the pipe;
    // that's fine — ignore the resulting BrokenPipe.
    let _ = child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(stdin.as_bytes());
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

const SAMPLE: &str = r#"{"id":1,"name":"a","tags":["x"]}
{"id":2,"geo":{"lat":3.5}}
{"id":"s3","name":"b"}
"#;

/// One path per job: however the corpus reaches an engine command —
/// stdin, a positional file, `--input`, one worker or four over 64-byte
/// chunks, fast path on or off — stdout is the same bytes, and those
/// bytes are what an independent reference says they should be.
#[test]
fn every_route_to_the_engine_prints_the_same_bytes() {
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let schema_path = dir.join("matrix-schema.json");
    let schema_text =
        r#"{"type": "object", "properties": {"id": {"type": "integer"}}, "required": ["name"]}"#;
    std::fs::write(&schema_path, schema_text).unwrap();
    let schema_arg = schema_path.to_str().unwrap();
    let schema = CompiledSchema::compile(&jsonx::syntax::parse(schema_text).unwrap()).unwrap();

    // SAMPLE behind a byte-order mark, its second line first so that the
    // marked line is one `validate` has to print a diagnostic for.
    let sample: Vec<&str> = SAMPLE.lines().collect();
    let marked = format!("\u{feff}{}\n{}\n{}\n", sample[1], sample[0], sample[2]);
    let sample_kind = "{geo?: {lat: Num}, id: (Int + Str), name?: Str, tags?: [Str]}\n";
    let sample_counts = "({geo: {lat: Num(1) (1/1)}(1) (1/1), id: Int(1) (1/1)}(1) + \
             {id: Str(1) (1/1), name: Str(1) (1/1)}(1) + \
             {id: Int(1) (1/1), name: Str(1) (1/1), tags: [Str(1)](1#1) (1/1)}(1))\n";
    let corpora = [
        ("sample", SAMPLE.to_string(), sample_kind, sample_counts),
        // A run skips the mark on its first line, whatever the route.
        ("marked", marked, sample_kind, sample_counts),
        // Blank lines where the fixture's corrupt ones were: `doc N` below
        // is a line number, not a document count.
        (
            "dirty-cleaned",
            dirty_fixture_cleaned(),
            "{active?: Bool, geo?: {lat: Num, lon: Num}, id: (Int + Str), name?: Str, \
             tags?: [(Int + Str)]}\n",
            "({active: Bool(1) (1/1), id: Str(1) (1/1)}(1) + \
             {geo: {lat: Num(1) (1/1), lon: Num(1) (1/1)}(1) (1/1), id: Int(1) (1/1)}(1) + \
             {id: Int(2) (2/2), name: Str(2) (2/2)}(2) + \
             {id: Int(1) (1/1), tags: [(Int(1) + Str(1))](1#2) (1/1)}(1))\n",
        ),
    ];
    for (name, corpus, kind_type, label_counts) in &corpora {
        let file = dir.join(format!("matrix-{name}.ndjson"));
        std::fs::write(&file, corpus).unwrap();
        let file = file.to_str().unwrap();

        // The oracle interpreter's diagnostics, numbered by line.
        let unmarked = corpus.trim_start_matches('\u{feff}');
        let mut diagnostics = String::new();
        for (line_no, line) in unmarked.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let doc = jsonx::syntax::parse(line).unwrap();
            if let Err(errors) = oracle::validate_with(&schema, &doc, ValidatorOptions::default()) {
                for e in errors {
                    diagnostics.push_str(&format!("doc {line_no}: {e}\n"));
                }
            }
        }
        // Five documents in the cleaned fixture, yet one is number six:
        // `N` counts lines.
        let probe = match *name {
            "marked" => "doc 0: ",
            "dirty-cleaned" => "doc 6: ",
            _ => "doc 1: ",
        };
        assert!(diagnostics.contains(probe), "{name}: {diagnostics}");
        // Out-of-core runs hold no line to re-validate: one `invalid` per
        // document, same numbers.
        let mut shrunk: Vec<String> = diagnostics
            .lines()
            .map(|d| format!("{}: invalid\n", d.split(':').next().unwrap()))
            .collect();
        shrunk.dedup();
        let shrunk = shrunk.concat();
        // translate prints the schema line of the batch the DOM shredder
        // builds under the collection's type.
        let docs = parse_ndjson(unmarked).unwrap();
        let columnar = Shredder::from_type(&infer_collection(&docs, Equivalence::Kind))
            .shred(&docs)
            .unwrap()
            .schema_string()
            + "\n";

        let jobs: [(&[&str], &str, &str); 4] = [
            (&["infer"], kind_type, kind_type),
            (
                &["infer", "--equiv", "L", "--counts"],
                label_counts,
                label_counts,
            ),
            (&["validate", "--schema", schema_arg], &diagnostics, &shrunk),
            (&["translate"], &columnar, &columnar),
        ];
        for (job, in_memory, out_of_core) in jobs {
            let mut routes: Vec<(Vec<&str>, &str)> = vec![
                (vec!["-"], in_memory),
                (vec![file], in_memory),
                (vec!["--workers", "1", "-"], in_memory),
                (
                    vec!["--workers", "4", "--chunk-bytes", "64", "-"],
                    in_memory,
                ),
                (vec!["--input", file], out_of_core),
                (
                    vec!["--input", file, "--workers", "4", "--chunk-bytes", "64"],
                    out_of_core,
                ),
                // Far more workers than the corpus has chunks.
                (vec!["--workers", "64", "-"], in_memory),
                (vec!["--workers", "64", file], in_memory),
                (vec!["--workers", "64", "--input", file], out_of_core),
            ];
            if job[0] != "infer" {
                routes.push((vec!["--no-fast-parse", "-"], in_memory));
            }
            if job[0] != "translate" {
                routes.push((vec!["--workers", "64", "--input", "-"], out_of_core));
            }
            for (route, want) in routes {
                let args = [job, &route[..]].concat();
                let (out, err, ok) = run(&args, corpus);
                // Both corpora hold documents the schema rejects.
                assert_eq!(ok, job[0] != "validate", "{name} {args:?}: {err}");
                assert_eq!(out, want, "{name} {args:?}");
            }
        }
    }
}

#[test]
fn removed_flags_are_unknown_and_help_names_one_mode() {
    for args in [
        &["infer", "--streaming", "-"][..],
        &["validate", "--streaming", "--schema", "s.json", "-"][..],
        &["translate", "--streaming", "-"][..],
        &["validate", "--fast-parse", "--schema", "s.json", "-"][..],
        &["translate", "--fast-parse", "-"][..],
        &["translate", "--to", "avro", "-"][..],
    ] {
        let (out, err, code) = run_code(args, SAMPLE);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?}: {out}");
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
    }
    let (help, _, ok) = run(&["help"], "");
    assert!(ok);
    assert!(
        !help.contains("--streaming") && !help.contains("implies"),
        "{help}"
    );
    assert!(help.contains("--no-fast-parse"), "{help}");
}

#[test]
fn a_schema_with_an_unsupported_keyword_fails_before_any_document() {
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    // At the root, and reached only through a `$ref` into a vendor key;
    // then a schema that is not well formed: it recurses without consuming
    // input, and the refusal names the cycle.
    for (name, text, at) in [
        (
            "prefix-items-schema.json",
            r#"{"prefixItems": [{"type": "string"}]}"#,
            "#/prefixItems",
        ),
        (
            "prefix-items-ref-schema.json",
            r##"{"$ref": "#/components/pair", "components": {"pair": {"prefixItems": [{"type": "string"}]}}}"##,
            "#/components/pair/prefixItems",
        ),
        (
            "unguarded-cycle-schema.json",
            r##"{"definitions": {"a": {"$ref": "#/definitions/b"}, "b": {"not": {"$ref": "#/definitions/a"}}}, "$ref": "#/definitions/a"}"##,
            "#/definitions/a → #/definitions/b → #/definitions/a",
        ),
    ] {
        let schema_path = dir.join(name);
        std::fs::write(&schema_path, text).unwrap();
        let schema = schema_path.to_str().unwrap();
        for args in [
            &["validate", "--schema", schema, "-"][..],
            &["validate", "--schema", schema, "--no-fast-parse", "-"][..],
            &["infer", "--validate", schema, "-"][..],
        ] {
            let (out, err, code) = run_code(args, "[1, \"x\"]\n");
            assert_eq!(code, Some(1), "{args:?}: {err}");
            assert!(out.is_empty(), "{args:?}: {out}");
            assert!(err.contains(at), "{args:?}: {err}");
            assert!(
                !err.contains("documents valid"),
                "{args:?} validated: {err}"
            );
        }
    }
}

#[test]
fn report_timing_accounts_for_how_records_were_typed() {
    let corpus = format!("{SAMPLE}{{\"id\":4,\"id\":\"twice\"}}\n{{broken\n");
    let tolerant = ["infer", "--workers", "2", "--on-error", "skip", "-"];
    let (plain_out, plain_err, ok) = run(&tolerant, &corpus);
    assert!(ok, "stderr: {plain_err}");
    assert!(!plain_err.contains("typed in place"), "{plain_err}");

    let timed = [&tolerant[..], &["--report-timing"]].concat();
    let (out, err, ok) = run(&timed, &corpus);
    assert!(ok, "stderr: {err}");
    assert_eq!(out, plain_out);
    assert!(
        err.contains("» 3 records typed in place, 1 replayed through the typer (1 duplicate-key)"),
        "{err}"
    );

    let label = [&timed[..], &["--equiv", "L"]].concat();
    let (_, err, ok) = run(&label, &corpus);
    assert!(ok, "stderr: {err}");
    assert!(
        err.contains(
            "» 0 records typed in place, 4 replayed through the typer (4 label-equivalence)"
        ),
        "{err}"
    );

    // Validate's account: an open envelope and the closed schema `infer
    // --schema` writes are both validated from events; a schema outside
    // the streamable fragment, closed or open, sends every record to the
    // parser under the keyword's name; and with the fast path off nothing
    // speculates.
    // Every route prints what the reference route prints.
    let envelope = schema_file("routes-envelope", r#"{"required": ["id"]}"#);
    let (inferred, _, _) = run(&["infer", "--schema", "-"], SAMPLE);
    let inferred = schema_file("routes-inferred", &inferred);
    let unique = schema_file(
        "routes-unique",
        r#"{"properties": {"id": {}, "name": {}, "geo": {}, "tags": {"uniqueItems": true}},
            "additionalProperties": false}"#,
    );
    let open_unique = schema_file(
        "routes-open-unique",
        r#"{"properties": {"tags": {"uniqueItems": true}}}"#,
    );
    let events = "» 3 records validated from events, 0 replayed through the parser\n";
    let replayed =
        "» 0 records validated from events, 3 replayed through the parser (3 uniqueItems)\n";
    let none = "» 0 records validated from events, 3 replayed through the parser (3 no-plan)\n";
    for (args, account) in [
        (format!("validate --schema {envelope}"), events),
        (format!("validate --schema {inferred}"), events),
        (format!("validate --schema {unique}"), replayed),
        (format!("validate --schema {open_unique}"), replayed),
        (
            format!("validate --schema {envelope} --no-fast-parse"),
            none,
        ),
        (
            format!("validate --schema {inferred} --no-fast-parse"),
            none,
        ),
    ] {
        let args: Vec<&str> = args.split(' ').collect();
        let (plain_out, plain_err, plain_ok) = run(&[&args[..], &["-"]].concat(), SAMPLE);
        assert!(!plain_err.contains("replayed"), "{plain_err}");
        let reference = [&args[..3], &["--no-fast-parse", "-"]].concat();
        assert_eq!(
            run(&reference, SAMPLE),
            (plain_out.clone(), plain_err, plain_ok)
        );
        let (out, err, ok) = run(&[&args[..], &["--report-timing", "-"]].concat(), SAMPLE);
        assert!(
            ok && out == plain_out && err.contains(account),
            "{args:?}: {err}"
        );
    }

    // A repeated key is the one thing the event walk hands back, whatever
    // it had concluded by then; the verdict is the document's (last wins).
    let (out, err, ok) = run(
        &[
            "validate",
            "--schema",
            &inferred,
            "--report-timing",
            "--workers",
            "1",
            "-",
        ],
        &format!("{SAMPLE}{{\"id\":[],\"id\":4}}\n{{\"id\":4,\"id\":[]}}\n"),
    );
    assert!(!ok && out.starts_with("doc 4: "), "{out}\n{err}");
    assert!(
        err.contains(
            "» 3 records validated from events, 2 replayed through the parser (2 duplicate-key)"
        ) && err.contains("» 4/5 documents valid"),
        "{err}"
    );
}

/// Validating from events is a route, not a mode: under closed schemas
/// (what `infer --schema` writes) `validate` prints the same bytes, exits the same and quarantines the
/// same sidecar as `--no-fast-parse`, which decodes every record to a
/// document — on the dirty fixture under its own schema (all valid), and
/// under the sample's (mostly not), with keys repeated in the text.
#[test]
fn validating_from_events_prints_what_validating_documents_prints() {
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let (own, _, ok) = run(
        &["infer", "--schema", "--on-error", "skip", DIRTY_FIXTURE],
        "",
    );
    assert!(ok);
    let (sample, _, ok) = run(&["infer", "--schema", "-"], SAMPLE);
    assert!(ok);
    let repeated = dir.join("events-repeated.ndjson");
    let text = std::fs::read_to_string(DIRTY_FIXTURE).unwrap()
        + "{\"id\": [], \"id\": 8}\n{\"id\": 9, \"geo\": {\"lat\": 1, \"l\\u0061t\": \"x\"}}\n";
    std::fs::write(&repeated, text).unwrap();
    let mut outputs = Vec::new();
    for (name, schema, invalid) in [("own", &own, 1), ("sample", &sample, 4)] {
        let schema = schema_file(&format!("events-{name}"), schema);
        let mut seen: Option<(String, Option<i32>, String)> = None;
        for route in [
            &[][..],
            &["--no-fast-parse"][..],
            &["--workers", "3", "--chunk-bytes", "40"][..],
            &["--workers", "3", "--chunk-bytes", "40", "--no-fast-parse"][..],
        ] {
            let sidecar = dir.join(format!("events-{name}.quarantine"));
            let _ = std::fs::remove_file(&sidecar);
            let args = [
                &["validate", "--schema", &schema, "--on-error", "skip"][..],
                &["--quarantine", sidecar.to_str().unwrap()][..],
                route,
                &[repeated.to_str().unwrap()][..],
            ]
            .concat();
            let (out, err, code) = run_code(&args, "");
            assert!(
                err.contains(&format!("» {}/7 documents valid", 7 - invalid)),
                "{args:?}: {err}"
            );
            let got = (out, code, std::fs::read_to_string(&sidecar).unwrap());
            assert_eq!(seen.get_or_insert(got.clone()), &got, "{args:?}");
        }
        outputs.push(seen.unwrap());
    }
    // The first repeated key is valid only as a document (`id` last 8), the
    // second invalid only as one (`lat` last "x"; and no `lon`).
    let (out, code, sidecar) = &outputs[0];
    assert!(out.lines().all(|l| l.starts_with("doc 10: /geo")), "{out}");
    assert_eq!((out.lines().count(), *code), (2, Some(1)), "{out}");
    assert_eq!(sidecar.lines().count(), 3);
}

#[test]
fn infer_schema_then_validate_roundtrip() {
    let (schema, _, ok) = run(&["infer", "--schema", "-"], SAMPLE);
    assert!(ok);
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let schema_path = dir.join("schema.json");
    std::fs::write(&schema_path, &schema).unwrap();

    let (_, err, ok) = run(
        &["validate", "--schema", schema_path.to_str().unwrap(), "-"],
        SAMPLE,
    );
    assert!(ok, "validation should pass: {err}");
    assert!(err.contains("3/3 documents valid"));

    // A violating document fails with a nonzero exit.
    let (out, _, ok) = run(
        &["validate", "--schema", schema_path.to_str().unwrap(), "-"],
        "{\"id\": true}\n",
    );
    assert!(!ok);
    assert!(out.contains("doc 0"));
}

#[test]
fn profile_and_skeleton() {
    let (out, _, ok) = run(&["profile", "-"], SAMPLE);
    assert!(ok);
    assert!(out.contains("id p=1.00"));
    assert!(out.contains("geo.lat p=0.33"));

    let (out, err, ok) = run(&["skeleton", "--coverage", "1.0", "-"], SAMPLE);
    assert!(ok);
    assert!(out.contains("{id:·,name:·}"), "skeleton output: {out}");
    assert!(err.contains("3 structures"));
}

#[test]
fn project_fields() {
    let (out, _, ok) = run(&["project", "--fields", "id,geo.lat", "-"], SAMPLE);
    assert!(ok);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines[0], r#"{"id":1}"#);
    assert_eq!(lines[1], r#"{"id":2,"geo":{"lat":3.5}}"#);
    assert_eq!(lines[2], r#"{"id":"s3"}"#);

    // A malformed line stops the run where it stands, as in every other
    // command; the lines before it still print their rows.
    for bad in [r#"{"a":1} trailing"#, r#"{"a":1,"b":tru}"#] {
        let corpus = format!("{{\"a\":0}}\n{bad}\n{{\"a\":2}}\n");
        let (out, err, code) = run_code(&["project", "--fields", "a", "-"], &corpus);
        assert_eq!(code, Some(1), "{bad}: {err}");
        assert!(err.contains("line 2: "), "{bad}: {err}");
        assert_eq!(out, "{\"a\":0}\n", "{bad}");
    }
    // A repeated key resolves last-wins, and uses up no wanted field.
    let (out, _, ok) = run(
        &["project", "--fields", "a,b", "-"],
        "{\"a\":1,\"a\":2,\"b\":3}\n",
    );
    assert!(ok);
    assert_eq!(out, "{\"a\":2,\"b\":3}\n");
    // Shape errors name their line; a bad path is refused before any input.
    for (fields, input, want) in [
        (
            "id.sub",
            SAMPLE,
            "line 1: cannot descend into 'id': not an object",
        ),
        ("id", "{\"id\":1}\n[2]\n", "line 2: not a JSON object"),
        ("a..b", SAMPLE, "bad field path 'a..b'"),
    ] {
        let (_, err, code) = run_code(&["project", "--fields", fields, "-"], input);
        assert_eq!(code, Some(1), "{fields}: {err}");
        assert!(err.contains(want), "{fields}: {err}");
    }
}

#[test]
fn convert_targets() {
    let (out, _, ok) = run(&["convert", "--to", "relational", "-"], SAMPLE);
    assert!(ok);
    assert!(out.contains("root("));
    let (_, err, ok) = run(&["convert", "--to", "avro", "-"], SAMPLE);
    assert!(ok);
    assert!(err.contains("3 documents encoded"));
    // The columnar target and its --out are translate's: both are usage
    // errors that say so.
    for args in [
        &["convert", "--to", "columnar", "-"][..],
        &["convert", "--to", "avro", "--out", "x.jxc", "-"],
        &["convert", "--to", "columnar", "--out", "x.jxc", "-"],
    ] {
        let (out, err, code) = run_code(args, SAMPLE);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(err.contains("translate"), "{args:?}: {err}");
        assert!(out.is_empty());
    }
    let (help, _, _) = run(&["help"], "");
    assert!(help.contains("avro | relational (required)"), "{help}");
    assert!(!help.contains("columnar only"), "{help}");
}

/// Every command that reads a corpus skips a byte-order mark before its
/// first line: stdout on a marked copy is stdout on the plain one.
#[test]
fn every_corpus_verb_skips_a_leading_byte_order_mark() {
    let (schema, _, ok) = run(&["infer", "--schema", "-"], SAMPLE);
    assert!(ok);
    let schema_path = corpus_file("bom-schema.json", &schema);
    let plain = corpus_file("bom-plain.ndjson", SAMPLE);
    let marked = corpus_file("bom-marked.ndjson", &format!("\u{feff}{SAMPLE}"));
    let verbs: [&[&str]; 11] = [
        &["infer"],
        &["validate", "--schema", &schema_path],
        &["translate"],
        &["profile"],
        &["skeleton"],
        &["project", "--fields", "id,geo.lat"],
        &["query", "--project", "id,name", "--top", "2"],
        &["query", "--where-exists", "tags", "--expand", "tags"],
        &["convert", "--to", "avro"],
        &["convert", "--to", "relational"],
        &["infer", "--counts", "--equiv", "L"],
    ];
    for verb in verbs {
        let (want, err, ok) = run(&[verb, &[plain.as_str()]].concat(), "");
        assert!(ok, "{verb:?}: {err}");
        for file in [&marked, "-"] {
            let (out, err, ok) = run(&[verb, &[file]].concat(), &format!("\u{feff}{SAMPLE}"));
            assert!(ok, "{verb:?} {file}: {err}");
            assert_eq!(out, want, "{verb:?} {file}");
        }
    }
}

#[test]
fn translate_summarises_rows_and_refuses_non_records() {
    let (_, err, ok) = run(&["translate", "-"], SAMPLE);
    assert!(ok, "stderr: {err}");
    assert!(err.contains("3 rows (streaming)"), "{err}");
    // Errors carry 1-based line numbers.
    let (_, err, ok) = run(&["translate", "-"], "{\"a\":1}\n[2]\n");
    assert!(!ok);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn infer_validate_combined_pass() {
    let (schema, _, ok) = run(&["infer", "--schema", "-"], SAMPLE);
    assert!(ok);
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let schema_path = dir.join("combined-schema.json");
    std::fs::write(&schema_path, &schema).unwrap();

    let (dom_out, _, ok) = run(&["infer", "-"], SAMPLE);
    assert!(ok);
    let (out, err, ok) = run(
        &["infer", "--validate", schema_path.to_str().unwrap(), "-"],
        SAMPLE,
    );
    assert!(ok, "stderr: {err}");
    assert_eq!(out, dom_out);
    assert!(err.contains("3/3 documents valid (combined pass)"), "{err}");

    // Invalid documents get interpreter diagnostics but the type still
    // prints and the run still succeeds — inference is the primary output.
    let mut mixed = SAMPLE.to_string();
    mixed.push_str("{\"id\": true}\n");
    let (out, err, ok) = run(
        &[
            "infer",
            "--validate",
            schema_path.to_str().unwrap(),
            "--workers",
            "2",
            "-",
        ],
        &mixed,
    );
    assert!(ok, "stderr: {err}");
    assert!(out.contains("doc 3"), "{out}");
    assert!(err.contains("3/4 documents valid (combined pass)"), "{err}");
}

#[test]
fn errors_are_reported() {
    let (_, err, ok) = run(&["nonsense"], "");
    assert!(!ok);
    assert!(err.contains("unknown command"));
    let (_, err, ok) = run(&["infer", "-"], "{broken\n");
    assert!(!ok);
    assert!(err.contains("line 1"));
    let (_, err, ok) = run(&["infer", "-"], "{\"a\":1}\n{broken\n");
    assert!(!ok);
    assert!(err.contains("line 2"), "{err}");
    let (_, err, ok) = run(&["convert", "-"], "{}\n");
    assert!(!ok);
    assert!(err.contains("--to"));
}

#[test]
fn query_pipeline_with_static_typing() {
    let (out, err, ok) = run(
        &["query", "--project", "id,geo.lat", "--top", "2", "-"],
        SAMPLE,
    );
    assert!(ok, "stderr: {err}");
    assert!(err.contains("inferred output type"), "{err}");
    assert!(err.contains("lat: (Null + Num)"), "{err}");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2);
    assert_eq!(lines[0], r#"{"id":1,"lat":null}"#);
    assert_eq!(lines[1], r#"{"id":2,"lat":3.5}"#);

    // expand + where-exists
    let (out, _, ok) = run(
        &["query", "--where-exists", "tags", "--expand", "tags", "-"],
        SAMPLE,
    );
    assert!(ok);
    assert_eq!(out.trim(), r#""x""#);

    // The stages apply in one order whatever the flags' order: the
    // printed pipeline says which.
    let (out, err, ok) = run(
        &[
            "query",
            "--top",
            "1",
            "--project",
            "id",
            "--expand",
            "tags",
            "-",
        ],
        SAMPLE,
    );
    assert!(ok, "{err}");
    assert!(
        err.contains("» pipeline: $input -> expand $.tags -> transform {id: $.id} -> top 1\n"),
        "{err}"
    );
    assert_eq!(out, "{\"id\":null}\n");

    // bad --top
    let (_, err, ok) = run(&["query", "--top", "many", "-"], SAMPLE);
    assert!(!ok);
    assert!(err.contains("bad --top"));
}

/// The dirty fixture shipped in `examples/`, and its fail-fast reference:
/// the same lines with the three corrupt ones blanked.
const DIRTY_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/dirty.ndjson");

fn dirty_fixture_cleaned() -> String {
    let text = std::fs::read_to_string(DIRTY_FIXTURE).expect("read examples/dirty.ndjson");
    text.lines()
        .map(|l| {
            if jsonx::syntax::parse(l).is_ok() {
                l
            } else {
                ""
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn infer_skip_policy_quarantines_and_matches_prefiltered_type() {
    let quarantine = std::env::temp_dir().join("jsonx_cli_test_quarantine.ndjson");
    let q = quarantine.to_str().unwrap();
    // Fail-fast on the dirty fixture names its first bad line.
    let (_, err, ok) = run(&["infer", DIRTY_FIXTURE], "");
    assert!(!ok);
    assert!(err.contains("line 3"), "{err}");
    // Skip + quarantine succeeds and reports the rejects.
    let (out, err, ok) = run(
        &[
            "infer",
            "--on-error",
            "skip",
            "--quarantine",
            q,
            DIRTY_FIXTURE,
        ],
        "",
    );
    assert!(ok, "stderr: {err}");
    assert!(err.contains("5 documents (streaming)"), "{err}");
    assert!(err.contains("3 rejected"), "{err}");
    // The inferred type equals fail-fast inference over the fixture with
    // the bad lines removed.
    let (ref_out, ref_err, ok) = run(&["infer", "-"], &dirty_fixture_cleaned());
    assert!(ok, "stderr: {ref_err}");
    assert_eq!(out, ref_out);
    // One diagnostic per rejected line, each with the raw line retained.
    let qtext = std::fs::read_to_string(&quarantine).expect("quarantine written");
    let _ = std::fs::remove_file(&quarantine);
    let diags = jsonx::syntax::parse_ndjson(&qtext).expect("quarantine is valid NDJSON");
    assert_eq!(diags.len(), 3);
    let lines: Vec<i64> = diags
        .iter()
        .map(|d| d.get("line").unwrap().as_i64().unwrap())
        .collect();
    assert_eq!(lines, vec![3, 6, 8]);
    assert!(diags
        .iter()
        .all(|d| d.get("raw").unwrap().as_str().is_some()));
    assert!(diags
        .iter()
        .all(|d| d.get("kind").unwrap().as_str().is_some()));
}

#[test]
fn validate_and_translate_honour_error_policies() {
    let text = std::fs::read_to_string(DIRTY_FIXTURE).unwrap();
    // Tolerant validation: every surviving record is an object, so the
    // run passes and reports the rejects.
    let (_, err, ok) = run(
        &[
            "validate",
            "--schema",
            "/dev/stdin",
            "--on-error",
            "skip",
            DIRTY_FIXTURE,
        ],
        "{\"type\": \"object\"}",
    );
    // /dev/stdin may be unavailable; fall back to a temp schema file.
    let (err, ok) = if ok {
        (err, ok)
    } else {
        let schema = std::env::temp_dir().join("jsonx_cli_test_schema.json");
        std::fs::write(&schema, "{\"type\": \"object\"}").unwrap();
        let (_, err, ok) = run(
            &[
                "validate",
                "--schema",
                schema.to_str().unwrap(),
                "--on-error",
                "skip",
                DIRTY_FIXTURE,
            ],
            "",
        );
        let _ = std::fs::remove_file(&schema);
        (err, ok)
    };
    assert!(ok, "stderr: {err}");
    assert!(err.contains("3 rejected"), "{err}");
    // Tolerant translation drops the same records from the batch.
    let (out, err, ok) = run(&["translate", "--on-error", "skip", DIRTY_FIXTURE], "");
    assert!(ok, "stderr: {err}");
    assert!(err.contains("3 rejected"), "{err}");
    assert!(out.contains("id"), "{out}");
    // A strict error bound turns the same run into a failure.
    let (_, err, ok) = run(
        &[
            "infer",
            "--on-error",
            "skip",
            "--max-errors",
            "2",
            DIRTY_FIXTURE,
        ],
        "",
    );
    assert!(!ok);
    assert!(err.contains("too many"), "{err}");
    let _ = text;
}

#[test]
fn max_errors_without_a_tolerant_policy_is_a_usage_error() {
    // The bound only means something when records may be rejected and
    // skipped; silently dropping it would hide a typo'd invocation.
    for args in [
        &["infer", "--max-errors", "2", "-"][..],
        &["infer", "--on-error", "fail", "--max-errors", "2", "-"][..],
        &["translate", "--max-errors", "0", "-"][..],
    ] {
        let (out, err, code) = run_code(args, SAMPLE);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?} did work before refusing: {out}");
        assert!(
            err.contains("--max-errors") && err.contains("--on-error"),
            "{err}"
        );
    }
    // Likewise a sidecar under the policy that stops at the first reject,
    // a second corpus `--input` would never read, and `collect`, which
    // printed what `skip` prints: refused before anything is created.
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    let (sidecar, journal) = (dir.join("never.quarantine"), dir.join("never.journal"));
    for (args, names) in [
        (
            "infer --quarantine Q --checkpoint J --input F",
            ["--quarantine", "--on-error skip"],
        ),
        (
            "translate --on-error fail --quarantine Q F",
            ["--quarantine", "--on-error skip"],
        ),
        (
            "infer --checkpoint J --input F other.ndjson",
            ["--input F", "other.ndjson"],
        ),
        (
            "translate --on-error collect F",
            ["collect", "--on-error skip --max-errors N"],
        ),
    ] {
        let args = args
            .replace('Q', sidecar.to_str().unwrap())
            .replace('J', journal.to_str().unwrap());
        let (out, err, code) = run_code(&args.split(' ').collect::<Vec<_>>(), SAMPLE);
        assert_eq!((code, out.as_str()), (Some(2), ""), "{args}: {err}");
        assert!(names.iter().all(|name| err.contains(name)), "{args}: {err}");
        assert!(!sidecar.exists() && !journal.exists(), "{args}");
    }
}

#[test]
fn every_engine_summary_ends_with_the_reject_count() {
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let schema_path = dir.join("summary-schema.json");
    std::fs::write(&schema_path, r#"{"type": "object"}"#).unwrap();
    let schema = schema_path.to_str().unwrap();
    // No fault, chunk or format flag: the summary still accounts for
    // rejects, like every flagged run always did.
    for args in [
        &["infer", "-"][..],
        &["infer", "--validate", schema, "-"][..],
        &["validate", "--schema", schema, "-"][..],
        &["translate", "-"][..],
    ] {
        let (_, err, ok) = run(args, SAMPLE);
        assert!(ok, "{args:?}: {err}");
        let summary = err.lines().last().unwrap_or_default();
        assert!(
            summary.starts_with("» ") && summary.ends_with(", 0 rejected"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn failfast_validation_prints_nothing_before_a_malformed_line() {
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let schema_path = dir.join("failfast-schema.json");
    std::fs::write(&schema_path, r#"{"type": "object", "required": ["id"]}"#).unwrap();
    let schema = schema_path.to_str().unwrap();
    // Line 2 is invalid, line 3 malformed: the run fails on line 3 and
    // the invalid document before it is not reported — in memory exactly
    // as out-of-core, under CSV, or with an explicit `--on-error fail`.
    let input = "{\"id\": 1}\n{\"name\": \"x\"}\n{oops\n{\"id\": 4}\n";
    for args in [
        &["validate", "--schema", schema, "-"][..],
        &["validate", "--schema", schema, "--on-error", "fail", "-"][..],
        &["validate", "--schema", schema, "--input", "-"][..],
    ] {
        let (out, err, code) = run_code(args, input);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?}: {out}");
        assert!(err.contains("line 3: "), "{args:?}: {err}");
    }
    // A tolerant policy reports both the invalid document (with full
    // interpreter diagnostics — the text is in memory) and the reject.
    let (out, err, code) = run_code(
        &["validate", "--schema", schema, "--on-error", "skip", "-"],
        input,
    );
    assert_eq!(code, Some(1), "{err}");
    assert!(out.contains("doc 1: ") && out.contains("required"), "{out}");
    assert!(
        err.contains("2/3 documents valid (streaming), 1 rejected"),
        "{err}"
    );
}

#[test]
fn resource_guard_flags_reject_pathological_lines() {
    let deep = format!("{}1{}", "[".repeat(40), "]".repeat(40));
    let input = format!("{{\"a\": 1}}\n{deep}\n{{\"a\": 2}}\n");
    // Fail-fast: the depth guard kills the run.
    let (_, err, ok) = run(&["infer", "--max-depth", "8", "-"], &input);
    assert!(!ok);
    assert!(err.contains("line 2"), "{err}");
    // Skip: the run survives and rejects exactly the bomb.
    let (_, err, ok) = run(
        &["infer", "--max-depth", "8", "--on-error", "skip", "-"],
        &input,
    );
    assert!(ok, "stderr: {err}");
    assert!(err.contains("2 documents (streaming)"), "{err}");
    assert!(err.contains("1 rejected"), "{err}");
    // Byte guard.
    let (_, err, ok) = run(
        &["infer", "--max-line-bytes", "10", "--on-error", "skip", "-"],
        "{\"a\": 1}\n{\"a\": \"0123456789abcdef\"}\n",
    );
    assert!(ok, "stderr: {err}");
    assert!(err.contains("1 rejected"), "{err}");
}

/// Writes a schema file for one test and returns its path.
fn schema_file(name: &str, body: &str) -> String {
    let path = std::env::temp_dir().join(format!("jsonx-cli-test-{name}-schema.json"));
    std::fs::write(&path, body).unwrap();
    path.to_str().unwrap().to_string()
}

#[test]
fn an_invalid_record_deeper_than_the_default_limit_is_diagnosed_not_panicked_on() {
    let schema = schema_file("deep-invalid", r#"{"type": "object"}"#);
    // 200 nested arrays: accepted under --max-depth 1000, not an object.
    // The combined pass shares the printer (and does not fail the run).
    let input = "[".repeat(200) + &"]".repeat(200);
    for (command, exit) in [(["validate", "--schema"], 1), (["infer", "--validate"], 0)] {
        let args = [&command[..], &[&schema, "--max-depth", "1000", "-"]].concat();
        let (out, err, code) = run_code(&args, &input);
        assert_eq!(code, Some(exit), "{err}");
        assert!(out.starts_with("doc 0: <root>: [type]"), "{out}");
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn max_depth_is_capped_and_a_bomb_at_the_cap_passes_through_every_command() {
    use jsonx::syntax::MAX_DEPTH_CEILING as CEILING;
    // A schema that follows the record all the way down.
    let schema = schema_file(
        "bomb",
        r##"{"$ref": "#/definitions/t", "definitions": {"t": {"items": {"$ref": "#/definitions/t"},
            "additionalProperties": {"$ref": "#/definitions/t"}}}}"##,
    );
    // Objects and arrays alternating, exactly `CEILING` deep.
    let (open, close) = ("{\"a\":[".repeat(CEILING / 2), "]}".repeat(CEILING / 2));
    let input = format!("{{\"a\": 1}}\n{open}{close}\n{{\"a\": 2}}\n");
    let jsonx = |args: String, stdin| run_code(&args.split(' ').collect::<Vec<_>>(), stdin);
    for command in [
        "infer",
        "validate --schema SCHEMA",
        "translate",
        "infer --validate SCHEMA",
        "serve",
    ] {
        let command = command.replace("SCHEMA", &schema);
        // One past the ceiling is a usage error, before any input is read;
        // so is a worker count no machine has.
        let (_, err, code) = jsonx(format!("{command} --max-depth {}", CEILING + 1), "");
        assert_eq!(code, Some(2), "{command}: {err}");
        let (_, err, code) = jsonx(format!("{command} --workers 100000"), "");
        assert!(
            code == Some(2) && err.contains("ceiling"),
            "{command}: {err}"
        );
        if command == "serve" {
            continue; // `tests/serve_faults.rs` sends the daemon its bomb
        }
        // At the ceiling the record is accepted, and survives everything
        // downstream of the parser.
        let at = format!("{command} --max-depth {CEILING} --workers 2 --chunk-bytes 64 -");
        let (_, err, code) = jsonx(at, &input);
        assert_eq!(code, Some(0), "{command}: {err}");
    }
}

#[test]
fn every_command_quarantines_the_same_sidecar() {
    let schema = schema_file("sidecar", r#"{"type": "object"}"#);
    // Trailing word, closer, value and number; truncation; a bad escape;
    // a depth bomb — between records that parse.
    let input = format!(
        "{{\"id\": 1}}\n{{\"id\": 2}} xyz\n{{\"id\": 3}}]\n{{\"id\": 4}} {{\"id\": 5}}\n\
         {{\"id\": 6}} 7\n{{\"id\": 8, \"name\": \"cut\n{{\"id\": 9, \"name\": \"a\\qb\"}}\n\
         {{\"id\": {}\n{{\"id\": 10}}\n",
        "[".repeat(200)
    );
    let sidecar = |command: &str| {
        let path = std::env::temp_dir().join("jsonx-cli-test-sidecar.ndjson");
        let path = path.to_str().unwrap();
        let flags = "--on-error skip --workers 2 --chunk-bytes 32 --quarantine";
        let command = command.replace("SCHEMA", &schema);
        let args = format!("{command} {flags} {path} -");
        let (_, err, ok) = run(&args.split(' ').collect::<Vec<_>>(), &input);
        assert!(ok && err.contains(", 7 rejected"), "{command}: {err}");
        std::fs::read_to_string(path).expect("sidecar written")
    };
    let infer = sidecar("infer");
    assert!(infer.contains(r#""kind":"trailing-data""#), "{infer}");
    for command in [
        "translate",
        "validate --schema SCHEMA",
        "validate --schema SCHEMA --no-fast-parse",
        "infer --validate SCHEMA",
    ] {
        assert_eq!(sidecar(command), infer, "{command}");
    }
}

const CSV_SAMPLE: &str = "id,name,score\n1,ada,9.5\n2,\"bob, jr\",-0.5\n3,ada,7\n";

#[test]
fn csv_format_flag_routes_through_the_typed_pipeline() {
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let schema_path = dir.join("csv-schema.json");
    std::fs::write(
        &schema_path,
        r#"{"type": "object", "required": ["id", "name"]}"#,
    )
    .unwrap();
    let schema = schema_path.to_str().unwrap();
    // As written, and as a spreadsheet exports it: behind a byte-order
    // mark, which is not part of the first column's name.
    for sample in [CSV_SAMPLE.to_string(), format!("\u{feff}{CSV_SAMPLE}")] {
        let (out, err, ok) = run(&["infer", "--format", "csv", "-"], &sample);
        assert!(ok, "stderr: {err}");
        assert_eq!(out.trim(), "{id: Int, name: Str, score: (Int + Num)}");
        assert!(err.contains("3 documents (streaming csv)"), "{err}");

        for workers in ["1", "2", "3"] {
            // Worker counts don't change the inferred type.
            let job = ["--format", "csv", "--workers", workers, "-"];
            let (par_out, err, ok) = run(&[&["infer"], &job[..]].concat(), &sample);
            assert!(ok, "stderr: {err}");
            assert_eq!(par_out, out);

            // Validation sees the synthesised records.
            let (_, err, ok) = run(
                &[&["validate", "--schema", schema], &job[..]].concat(),
                &sample,
            );
            assert!(ok, "stderr: {err}");
            assert!(err.contains("3/3 documents valid (streaming csv)"), "{err}");

            // Translation shreds the same rows into typed columns.
            let (out, err, ok) = run(&[&["translate"], &job[..]].concat(), &sample);
            assert!(ok, "stderr: {err}");
            assert!(out.contains("id:int64"), "{out}");
            assert!(out.contains("score:float64"), "{out}");
            assert!(err.contains("3 rows (streaming csv)"), "{err}");
        }
    }

    // The mark is skipped on a run's first line only.
    let (_, err, code) = run_code(&["infer", "-"], "{\"a\":1}\n\u{feff}{\"a\":2}\n");
    assert_eq!(code, Some(1));
    assert!(err.contains("line 2: unexpected byte 0xef"), "{err}");
    let (_, err, code) = run_code(&["infer", "-"], "\u{feff}\u{feff}{\"a\":1}\n");
    assert_eq!(code, Some(1));
    assert!(err.contains("line 1: unexpected byte 0xef"), "{err}");

    // Unknown formats are rejected up front.
    let (_, err, ok) = run(&["infer", "--format", "tsv", "-"], CSV_SAMPLE);
    assert!(!ok);
    assert!(err.contains("--format"), "{err}");
}

/// An invalid CSV row gets the diagnostics an invalid NDJSON line gets:
/// the row is decoded again by the run's own CSV decoder. Only an
/// out-of-core run, which holds no row to decode, says `doc N: invalid`.
#[test]
fn an_invalid_csv_row_is_diagnosed_like_an_ndjson_line() {
    let schema = schema_file(
        "csv-id",
        r#"{"type": "object", "properties": {"id": {"type": "integer"}}}"#,
    );
    let csv = "id,name\n1,ada\nx,bob\n3,cy\n";
    let ndjson = "{\"id\": 1, \"name\": \"ada\"}\n{\"id\": \"x\", \"name\": \"bob\"}\n";
    let diagnostic = "doc 1: /id: [type] expected integer, found string\n";
    let (out, err, code) = run_code(&["validate", "--schema", &schema, "-"], ndjson);
    assert_eq!((out.as_str(), code), (diagnostic, Some(1)), "{err}");
    for fast in [&[][..], &["--no-fast-parse"]] {
        let args = [
            &["validate", "--format", "csv", "--schema", &schema][..],
            fast,
            &["-"],
        ]
        .concat();
        let (out, err, code) = run_code(&args, csv);
        assert_eq!((out.as_str(), code), (diagnostic, Some(1)), "{err}");
        assert!(err.contains("2/3 documents valid (streaming csv)"), "{err}");
    }
    // The combined pass prints them before the type.
    let (out, err, code) = run_code(
        &["infer", "--validate", &schema, "--format", "csv", "-"],
        csv,
    );
    assert_eq!(code, Some(0), "{err}");
    assert_eq!(out, format!("{diagnostic}{{id: (Int + Str), name: Str}}\n"));
    let path =
        std::env::temp_dir().join(format!("jsonx-cli-test-invalid-{}.csv", std::process::id()));
    std::fs::write(&path, csv).unwrap();
    let input = path.to_str().unwrap();
    let (out, err, code) = run_code(
        &[
            "validate", "--format", "csv", "--schema", &schema, "--input", input,
        ],
        "",
    );
    std::fs::remove_file(&path).unwrap();
    assert_eq!((out.as_str(), code), ("doc 1: invalid\n", Some(1)), "{err}");
}

#[test]
fn translate_out_persists_jxc_and_cat_inspects_it() {
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let jxc = dir.join("sample.jxc");
    let jxc_path = jxc.to_str().unwrap();

    let (out, err, ok) = run(&["translate", "--out", jxc_path, "-"], SAMPLE);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("id:"), "{out}");
    assert!(err.contains(&format!("bytes -> {jxc_path}")), "{err}");

    // cat: schema line, rows, per-column encoding summary.
    let (out, err, ok) = run(&["cat", jxc_path], "");
    assert!(ok, "stderr: {err}");
    assert!(out.contains("tags:json"), "{out}");
    assert!(out.contains("\"id\":1"), "{out}");
    assert!(
        err.contains("3 columns x 3 rows") || err.contains("4 columns x 3 rows"),
        "{err}"
    );
    // The tags column stores ["x"] as a nested string list.
    assert!(err.contains("list-str"), "{err}");

    // --flatten cross-joins the list column; --head bounds the output.
    let (flat, err, ok) = run(&["cat", jxc_path, "--flatten", "--head", "2"], "");
    assert!(ok, "stderr: {err}");
    assert!(flat.contains("\"tags\":\"x\""), "{flat}");
    assert_eq!(flat.lines().count(), 3, "schema line + 2 rows: {flat}");
    // --head 0 shows no row, flattened or not.
    for flags in [&["--head", "0"][..], &["--head", "0", "--flatten"]] {
        let (out, err, ok) = run(&[&["cat", jxc_path][..], flags].concat(), "");
        assert!(ok, "stderr: {err}");
        assert_eq!(out.lines().count(), 1, "schema line only: {out}");
        assert!(err.contains("x 3 rows, showing 0"), "{flags:?}: {err}");
    }

    // An --out that cannot be written is an I/O error; a corpus the sink
    // cannot shred is still the data's fault.
    let nowhere = "/nonexistent/dir/x.jxc";
    for (input, exit) in [(SAMPLE, 3), ("[1]\n", 1)] {
        let args = ["translate", "--out", nowhere, "-"];
        let (_, err, code) = run_code(&args, input);
        assert_eq!(code, Some(exit), "{input}: {err}");
    }

    // cat rejects non-.jxc bytes.
    let junk = dir.join("junk.jxc");
    std::fs::write(&junk, b"not a jxc file at all").unwrap();
    let (_, err, ok) = run(&["cat", junk.to_str().unwrap()], "");
    assert!(!ok);
    assert!(err.contains(".jxc"), "{err}");
    let _ = std::fs::remove_file(&junk);
    let _ = std::fs::remove_file(&jxc);
}

/// `cat /dev/stdin` prints what `cat FILE` prints, whether stdin is a pipe
/// (which cannot seek, so the file is read whole) or the file itself
/// (`< FILE`, read block by block): the golden bytes of the fixture.
#[cfg(unix)]
#[test]
fn cat_reads_a_piped_or_redirected_jxc_as_the_file() {
    let jxc = format!(
        "{}/crates/translate/tests/fixtures/golden_large.jxc",
        env!("CARGO_MANIFEST_DIR")
    );
    let bytes = std::fs::read(&jxc).unwrap();
    for (mode, flags) in [("default", &[][..]), ("head3", &["--head", "3"])] {
        let golden = |stream: &str| {
            std::fs::read(fixture(&format!("golden_cat/golden_large.{mode}.{stream}"))).unwrap()
        };
        let cat = || {
            let mut cmd = Command::new(BIN);
            cmd.arg("cat").arg("/dev/stdin").args(flags);
            cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
            cmd
        };
        let mut piped = cat().stdin(Stdio::piped()).spawn().expect("spawn jsonx");
        let mut stdin = piped.stdin.take().expect("stdin piped");
        let writer = {
            let bytes = bytes.clone();
            std::thread::spawn(move || stdin.write_all(&bytes))
        };
        let piped = piped.wait_with_output().expect("wait");
        writer.join().unwrap().unwrap();
        let redirected = cat()
            .stdin(std::fs::File::open(&jxc).unwrap())
            .output()
            .expect("spawn jsonx");
        for (how, run) in [("pipe", piped), ("redirect", redirected)] {
            assert_eq!(run.status.code(), Some(0), "{how} {mode}");
            assert!(run.stdout == golden("out"), "{how} {mode} stdout");
            assert!(
                run.stderr == golden("err"),
                "{how} {mode} stderr: {}",
                String::from_utf8_lossy(&run.stderr)
            );
        }
    }
}

/// Writes `text` under the CLI tests' scratch directory.
fn corpus_file(name: &str, text: &str) -> String {
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path.to_str().unwrap().to_string()
}

/// One stray scalar line used to erase every column — schema `:json`,
/// rows `{}` `{}`: the typing pass typed what the shredder then rejected.
/// It is one reject, on either route, journaled or not.
#[test]
fn a_stray_scalar_line_costs_one_reject_not_every_column() {
    let input = corpus_file("stray-scalar.ndjson", "{\"a\":1}\n42\n{\"a\":2}\n");
    let out = corpus_file("stray-scalar.jxc", "");
    let sidecar = corpus_file("stray-scalar.quarantine", "");
    let journal = corpus_file("stray-scalar.journal", "");
    for extra in [
        &["--workers", "1"][..],
        &["--workers", "2"],
        &["--workers", "2", "--no-fast-parse"],
        &["--workers", "1", "--checkpoint", &journal],
        &["--workers", "2", "--checkpoint", &journal],
    ] {
        let base = ["translate", "--out", &out, "--input", &input];
        let tolerant = ["--on-error", "skip", "--quarantine", &sidecar];
        let (_, err, ok) = run(&[&base[..], &tolerant, extra].concat(), "");
        assert!(ok, "{extra:?}: {err}");
        assert!(
            err.contains("1 columns x 2 rows") && err.contains("1 rejected"),
            "{extra:?}: {err}"
        );
        let (rows, _, ok) = run(&["cat", &out], "");
        assert!(ok);
        assert_eq!(rows, "a:int64\n{\"a\":1}\n{\"a\":2}\n", "{extra:?}");
        let quarantined = std::fs::read_to_string(&sidecar).unwrap();
        assert!(
            quarantined.starts_with("{\"line\":2,") && quarantined.lines().count() == 1,
            "{extra:?}: {quarantined}"
        );
        let (_, err, code) = run_code(&[&base[..], extra].concat(), "");
        assert_eq!(code, Some(1), "{extra:?}");
        assert_eq!(err, "jsonx: line 2: not a JSON object\n", "{extra:?}");
    }
    // A malformed line anywhere is found before a non-record is.
    let (_, err, code) = run_code(&["translate", "-"], "{\"a\":1}\n42\n{\"a\":2}\n{\"a\":\n");
    assert_eq!(code, Some(1));
    assert!(err.starts_with("jsonx: line 4: "), "{err}");
}

/// A literal dotted key and the nested path it spells write one column
/// (translate used to plan two `a.b` columns and null the first): both
/// routes, one worker or two, write the same bytes, and `cat` shows each
/// record's value. A record holding both keys keeps the first.
#[test]
fn a_dotted_key_and_the_nested_path_it_spells_share_one_column() {
    for (name, corpus, rows) in [
        (
            "dotted",
            "{\"a.b\":1}\n{\"a\":{\"b\":\"x\"}}\n",
            "a.b:json\n{\"a.b\":1}\n{\"a.b\":\"x\"}\n",
        ),
        (
            "dotted-both",
            "{\"a.b\":1}\n{\"a\":{\"b\":\"x\"}}\n{\"a\":{\"b\":\"y\"},\"a.b\":2}\n",
            "a.b:json\n{\"a.b\":1}\n{\"a.b\":\"x\"}\n{\"a.b\":\"y\"}\n",
        ),
    ] {
        let input = corpus_file(&format!("{name}.ndjson"), corpus);
        let out = corpus_file(&format!("{name}.jxc"), "");
        let mut written = Vec::new();
        for extra in [
            &["--workers", "1"][..],
            &["--workers", "2"],
            &["--workers", "1", "--no-fast-parse"],
            &["--workers", "2", "--no-fast-parse"],
        ] {
            let base = ["translate", "--out", &out, "--input", &input];
            let (_, err, ok) = run(&[&base[..], extra].concat(), "");
            assert!(ok && err.contains("1 columns x"), "{name} {extra:?}: {err}");
            assert!(err.contains("0 rejected"), "{name} {extra:?}: {err}");
            written.push(std::fs::read(&out).unwrap());
            let (shown, err, ok) = run(&["cat", &out], "");
            assert!(ok, "{err}");
            assert_eq!(shown, rows, "{name} {extra:?}");
        }
        assert!(written.windows(2).all(|w| w[0] == w[1]), "{name}");
    }
}

/// `--report-timing` says what the speculation on the layout did: the
/// first chunk's layout held; a late record added to it and its chunk
/// alone was shredded again; a late record changed a column and every
/// chunk was. The `.jxc` is the two-pass route's all three times.
#[test]
fn translate_report_timing_says_what_the_layout_speculation_did() {
    let line =
        |i: usize| format!("{{\"id\":{i},\"name\":\"row {i:04}\",\"geo\":{{\"lat\":{i}.5}}}}\n");
    let corpus = |late: &str| -> String {
        (0..60)
            .map(|i| {
                if i == 47 && !late.is_empty() {
                    format!("{late}\n")
                } else {
                    line(i)
                }
            })
            .collect()
    };
    let out = corpus_file("layout-account.jxc", "");
    let reference = corpus_file("layout-account.ref.jxc", "");
    let journal = corpus_file("layout-account.journal", "");
    // The sink's line follows the layout line, naming what it wrote.
    let wrote = |account: &str| {
        let file = jsonx::translate::read_jxc_file(std::path::Path::new(&out)).unwrap();
        let bytes = std::fs::metadata(&out).unwrap().len();
        let blocks = file.columns.len();
        format!("{account}» wrote {out}: {blocks} column blocks, {bytes} bytes in ")
    };
    for (name, late, account) in [
        ("fits", "", "» layout taught by 6 records: 10 chunks shredded once\n"),
        (
            "adds",
            r#"{"id":47,"geo":{"lat":1.5,"lon":2.5},"tags":["x"]}"#,
            "» layout taught by 7 records: 9 chunks shredded once, 1 re-shredded after line 48 did not fit\n",
        ),
        (
            "restructures",
            r#"{"id":"abc","name":"late"}"#,
            "» layout taught by 7 records: every chunk re-shredded: line 48 restructured column id\n",
        ),
    ] {
        let input = corpus_file(&format!("layout-account-{name}.ndjson"), &corpus(late));
        let fast = ["translate", "--out", &out, "--input", &input, "--workers", "2", "--chunk-bytes", "256"];
        let (_, plain_err, ok) = run(&fast, "");
        assert!(ok && !plain_err.contains("layout taught") && !plain_err.contains("» wrote"), "{name}: {plain_err}");
        let (_, err, ok) = run(&[&fast[..], &["--report-timing"]].concat(), "");
        assert!(ok && err.contains(&wrote(account)), "{name}: {err}");
        assert!(err.contains("» 60 records shredded from events, 0 replayed"), "{name}: {err}");
        let slow = ["translate", "--out", &reference, "--no-fast-parse", "--workers", "1", "--report-timing", &input];
        let (_, err, ok) = run(&slow, "");
        assert!(ok && err.contains("» layout taught by 60 records: 1 chunks shredded once\n"), "{name}: {err}");
        assert_eq!(std::fs::read(&out).unwrap(), std::fs::read(&reference).unwrap(), "{name}");
        // A journaled run says the same, and writes the same bytes.
        let _ = std::fs::remove_file(format!("{journal}.rows"));
        let journaled = [&fast[..], &["--report-timing", "--checkpoint", &journal]].concat();
        let (_, err, ok) = run(&journaled, "");
        assert!(ok && err.contains(&wrote(account)), "{name}, journaled: {err}");
        assert_eq!(std::fs::read(&out).unwrap(), std::fs::read(&reference).unwrap(), "{name}, journaled");
    }
    // What may have to be read again cannot come from a pipe.
    let (_, err, code) = run_code(&["translate", "--input", "-"], &corpus(""));
    assert_eq!(code, Some(2));
    assert!(err.contains("cannot be read again"), "{err}");
}

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// `validate`'s diagnostics, byte for byte: between them the fixture's
/// documents draw every error kind (`format` only under `--formats`) —
/// a missing `$ref`, a recursive tree, `propertyNames` and both forms of
/// `dependencies` among them. The golden stdout was written by the last
/// binary whose diagnostics came from the AST interpreter; the one line
/// removed since was a `$ref` cycle's, when a schema that recurses without
/// consuming input became one `compile` refuses.
#[test]
fn validate_diagnostics_match_the_golden_output() {
    let schema = fixture("golden_diagnostics.schema.json");
    let input = fixture("golden_diagnostics.ndjson");
    for (flags, golden) in [
        (&[][..], "golden_diagnostics.out"),
        (&["--formats"][..], "golden_diagnostics.formats.out"),
    ] {
        let want = std::fs::read_to_string(fixture(golden)).unwrap();
        for route in [&[][..], &["--no-fast-parse"][..]] {
            let args = [
                &["validate", "--schema", &schema][..],
                flags,
                route,
                &[&input],
            ]
            .concat();
            let (out, err, code) = run_code(&args, "");
            assert_eq!(code, Some(1), "{args:?}: {err}");
            assert_eq!(out, want, "{args:?}");
        }
    }
}

/// Every document counted invalid prints its diagnostics, and no other
/// does: the `doc N` numbers printed with the text in memory — by
/// positional-FILE `validate` and by `infer --validate` — are the ones an
/// `--input` run, which prints one `doc N: invalid` per verdict, counts.
#[test]
fn every_invalid_verdict_and_only_those_print_diagnostics() {
    let dir = std::env::temp_dir().join("jsonx-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let schema = dir.join("verdict-prefixes-schema.json");
    std::fs::write(
        &schema,
        r#"{"type": "object", "properties": {"id": {"type": "integer"}, "tags": {"items": {"type": "integer"}}}, "required": ["name"]}"#,
    )
    .unwrap();
    let schema = schema.to_str().unwrap();
    let docs = |args: &[&str]| {
        let (out, err, _) = run_code(args, "");
        let docs: std::collections::BTreeSet<String> = out
            .lines()
            .filter(|line| line.starts_with("doc "))
            .map(|line| line.split(':').next().unwrap().to_string())
            .collect();
        (docs, err)
    };
    let skip = ["--on-error", "skip"];
    let (verdicts, err) = docs(
        &[
            &["validate", "--schema", schema, "--input", DIRTY_FIXTURE][..],
            &skip,
        ]
        .concat(),
    );
    assert!(
        err.contains(&format!("{} invalid documents", verdicts.len())),
        "{err}"
    );
    assert!(verdicts.len() > 1, "{verdicts:?}");
    let (printed, _) =
        docs(&[&["validate", "--schema", schema, DIRTY_FIXTURE][..], &skip].concat());
    assert_eq!(printed, verdicts);
    let (printed, _) = docs(&[&["infer", "--validate", schema, DIRTY_FIXTURE][..], &skip].concat());
    assert_eq!(printed, verdicts);
}
