//! One oracle per corpus tool on the document stage: `profile`,
//! `skeleton`, `query`, `project` and `convert`'s folds, run through
//! [`Run::documents`] at workers {1, 2, 8} × chunk sizes {64 bytes — every
//! chunk a few records —, automatic}, must give what the tool's DOM
//! reference gives over `parse_ndjson` of the same text: the tool run
//! over the whole collection in memory, kept here and nowhere else.

use jsonx::baselines::MongoProfiler;
use jsonx::core::{infer_collection, Equivalence, JType};
use jsonx::documents::{AvroFold, CollectFold, ProfileFold, ProjectFold, QueryFold, SkeletonFold};
use jsonx::gen::Corpus;
use jsonx::jaql::{expr, infer_output_type, Expr, Pipeline};
use jsonx::mison::ProjectedParser;
use jsonx::skeleton::Skeleton;
use jsonx::syntax::{parse_ndjson, to_string, write_ndjson};
use jsonx::translate::{normalize, AvroCodec, AvroSchema};
use jsonx::{RecordIssue, Run, Source, StreamError, Value};

/// `tests/cli.rs`'s sample.
const SAMPLE: &str = r#"{"id":1,"name":"a","tags":["x"]}
{"id":2,"geo":{"lat":3.5}}
{"id":"s3","name":"b"}
"#;

fn runs() -> Vec<Run<'static>> {
    let mut runs = Vec::new();
    for workers in [1, 2, 8] {
        for chunk_bytes in [64, 0] {
            runs.push(Run {
                workers,
                chunk_bytes,
                ..Run::default()
            });
        }
    }
    runs
}

/// SAMPLE, and seeded generated corpora with blank lines between some
/// records (a run skips them; `parse_ndjson` does too).
fn corpora() -> Vec<(&'static str, String)> {
    let spaced = |docs: Vec<Value>| {
        let text = write_ndjson(&docs);
        let mut out = String::new();
        for (i, line) in text.lines().enumerate() {
            out.push_str(line);
            out.push('\n');
            if i % 37 == 5 {
                out.push('\n');
            }
        }
        out
    };
    vec![
        ("sample", SAMPLE.to_string()),
        ("github", spaced(Corpus::Github.generate(300))),
        ("twitter", spaced(Corpus::Twitter.generate(120))),
    ]
}

fn docs(text: &str) -> Vec<Value> {
    parse_ndjson(text).expect("the corpora are well-formed")
}

fn describe(run: &Run<'_>) -> String {
    format!("workers {} chunk_bytes {}", run.workers, run.chunk_bytes)
}

#[test]
fn profile_equals_observing_every_document_in_order() {
    for (name, text) in corpora() {
        let mut reference = MongoProfiler::default();
        for doc in docs(&text) {
            reference.observe(&doc);
        }
        for run in runs() {
            let (profile, report) = run.documents(Source::slice(&text), &ProfileFold).unwrap();
            let at = format!("{name} {}", describe(&run));
            assert_eq!(profile.report(), reference.report(), "{at}");
            assert_eq!(profile.total_docs(), reference.total_docs(), "{at}");
            assert_eq!(profile.size(), reference.size(), "{at}");
            assert!(profile.paths().eq(reference.paths()), "{at}: samples");
            assert_eq!(report.records as u64, reference.total_docs(), "{at}");
        }
    }
}

/// Why `profile` keeps its own fold instead of rendering the counting
/// type: a `X[]` row's `p` counts the parent arrays with at least one
/// element, and an array type keeps only how many arrays and items
/// there were — `[Int](3#3)` for both corpora below.
#[test]
fn a_profile_row_counts_what_the_counting_type_does_not() {
    let run = Run::default();
    for (text, p) in [
        ("{\"t\":[1]}\n{\"t\":[1,2]}\n{\"t\":[]}\n", "t[] p=0.67"),
        ("{\"t\":[1]}\n{\"t\":[1]}\n{\"t\":[1]}\n", "t[] p=1.00"),
    ] {
        let (profile, _) = run.documents(Source::slice(text), &ProfileFold).unwrap();
        assert!(profile.report().contains(p), "{}", profile.report());
        let (ty, _) = run.infer(Source::slice(text), Equivalence::Kind).unwrap();
        let printed = jsonx::core::print_type(&ty, jsonx::core::PrintOptions::with_counts());
        assert!(printed.contains("(3#3)"), "{printed}");
    }
}

#[test]
fn skeleton_equals_mining_the_collection() {
    for (name, text) in corpora() {
        let docs = docs(&text);
        for run in runs() {
            let (counts, _) = run.documents(Source::slice(&text), &SkeletonFold).unwrap();
            for coverage in [0.5, 0.9, 1.0] {
                let at = format!("{name} {} coverage {coverage}", describe(&run));
                let mined = Skeleton::from_counts(counts.clone(), coverage);
                let reference = Skeleton::mine(&docs, coverage);
                assert_eq!(mined.structures, reference.structures, "{at}");
                assert_eq!(mined.total_docs, docs.len() as u64, "{at}");
                assert_eq!(mined.total_docs, reference.total_docs, "{at}");
                assert_eq!(mined.covered_docs, reference.covered_docs, "{at}");
                assert_eq!(mined.stats(), reference.stats(), "{at}");
                assert!(mined.paths().eq(reference.paths()), "{at}");
            }
        }
    }
}

fn project(paths: &[&str]) -> Expr {
    expr::record(
        paths
            .iter()
            .map(|p| (p.rsplit('.').next().unwrap(), expr::path(p))),
    )
}

/// Pipelines with top-n absent, 0, 1 and N, over filter, expand and
/// project — in `jsonx query`'s order, and with a top-n followed by
/// more stages.
fn pipelines() -> Vec<Pipeline> {
    let mut out = Vec::new();
    for top in [None, Some(0), Some(1), Some(2), Some(40)] {
        let with_top = |q: Pipeline| match top {
            Some(n) => q.top(n),
            None => q,
        };
        out.push(with_top(Pipeline::new()));
        out.push(with_top(
            Pipeline::new().filter(expr::exists(expr::path("name"))),
        ));
        out.push(with_top(Pipeline::new().transform(project(&[
            "id",
            "geo.lat",
            "actor.login",
        ]))));
        out.push(with_top(
            Pipeline::new()
                .filter(expr::exists(expr::path("tags")))
                .expand(expr::path("tags")),
        ));
        out.push(with_top(
            Pipeline::new()
                .filter(expr::exists(expr::path("payload.commits")))
                .expand(expr::path("payload.commits"))
                .transform(project(&["sha", "distinct"])),
        ));
        out.push(with_top(
            Pipeline::new()
                .expand(expr::path("entities.hashtags"))
                .transform(project(&["text"])),
        ));
    }
    out.push(
        Pipeline::new()
            .top(50)
            .filter(expr::exists(expr::path("payload.action")))
            .transform(project(&["type", "payload.action"]))
            .top(3),
    );
    out
}

#[test]
fn query_equals_evaluating_the_collection() {
    for (name, text) in corpora() {
        let docs = docs(&text);
        let input = infer_collection(&docs, Equivalence::Kind);
        for q in pipelines() {
            let rows = q.eval(&docs);
            let output = infer_output_type(&q, &input);
            let fold = QueryFold::new(&q);
            for run in runs() {
                let at = format!("{name} {} {q}", describe(&run));
                let (ty, _) = run.infer(Source::slice(&text), Equivalence::Kind).unwrap();
                assert_eq!(infer_output_type(&q, &ty), output, "{at}");
                let (merged, _) = run.documents(Source::slice(&text), &fold).unwrap();
                assert_eq!(fold.finish(merged), rows, "{at}");
            }
        }
    }
}

#[test]
fn project_equals_the_projected_parser_on_well_formed_lines() {
    let field_sets: [&[&str]; 6] = [
        &["id"],
        &["id", "geo.lat"],
        &["type", "actor.login"],
        &["payload.commits", "id", "repo.name", "repo.id"],
        &["missing", "actor.id", "user.screen_name", "user.nope"],
        &["name", "tags", "user"],
    ];
    for (name, text) in corpora() {
        for fields in field_sets {
            let parser = ProjectedParser::new(fields).unwrap();
            let reference: Vec<String> = text
                .lines()
                .filter(|line| !line.trim().is_empty())
                .map(|line| match parser.parse(line.as_bytes()) {
                    Ok(row) => to_string(&Value::Obj(row)),
                    Err(e) => panic!("{name} {fields:?}: {e}"),
                })
                .collect();
            let fold = ProjectFold::new(fields).unwrap();
            for run in runs() {
                let (rows, _) = run.documents(Source::slice(&text), &fold).unwrap();
                assert_eq!(rows, reference, "{name} {fields:?} {}", describe(&run));
            }
        }
    }
}

#[test]
fn project_stops_at_the_first_document_it_cannot_project() {
    let good = write_ndjson(&Corpus::Github.generate(200));
    let lines: Vec<&str> = good.lines().collect();
    // A root that is no object; a path through a field that is no object.
    for (planted, bad, fields) in [
        (130, "[1, 2]", &["type", "actor.login"][..]),
        (
            70,
            r#"{"type": "X", "actor": 3}"#,
            &["type", "actor.login"][..],
        ),
        (0, r#""just a string""#, &["id"][..]),
    ] {
        let mut corpus = lines.clone();
        corpus[planted] = bad;
        // A second offender further on: the first one decides.
        corpus[planted + 50] = "[3]";
        let text = corpus.join("\n") + "\n";
        let parser = ProjectedParser::new(fields).unwrap();
        let first = text
            .lines()
            .position(|line| parser.parse(line.as_bytes()).is_err())
            .unwrap();
        assert_eq!(first, planted);
        let fold = ProjectFold::new(fields).unwrap();
        for run in runs() {
            match run.documents(Source::slice(&text), &fold) {
                Err(StreamError::Record { record, issue }) => {
                    assert_eq!(record, planted, "{bad} {}", describe(&run));
                    match bad.starts_with('{') {
                        true => assert_eq!(
                            issue,
                            RecordIssue::Refused(
                                "cannot descend into 'actor': not an object".into()
                            )
                        ),
                        false => assert_eq!(issue, RecordIssue::NotARecord),
                    }
                }
                other => panic!("{bad} {}: {:?}", describe(&run), other.map(|_| ())),
            }
        }
    }
}

/// A repeated key resolves last-wins in the document, so the projection
/// is the document's: the parser's count of wanted fields is not used up.
#[test]
fn project_reads_a_repeated_key_as_the_document_does() {
    let fold = ProjectFold::new(&["a", "b"]).unwrap();
    let (rows, _) = Run::default()
        .documents(Source::slice("{\"a\":1,\"a\":2,\"b\":3}\n"), &fold)
        .unwrap();
    assert_eq!(rows, [r#"{"a":2,"b":3}"#]);
    assert!(ProjectFold::new(&["a..b"]).is_err());
    assert!(ProjectFold::new(&[""]).is_err());
}

/// What `convert` printed before it ran on the document stage, ported
/// from the sink that held the collection: the stdout body and the
/// stderr summary of one target.
fn convert_in_memory(target: &str, ty: &JType, docs: &[Value]) -> (String, String) {
    match target {
        "avro" => {
            let codec = AvroCodec::new(AvroSchema::from_type(ty));
            let mut total = 0usize;
            for doc in docs {
                total += codec.encode(doc).unwrap().len();
            }
            (
                String::new(),
                format!(
                    "{} documents encoded: {total} bytes binary (schema derived from inference)",
                    docs.len()
                ),
            )
        }
        "relational" => {
            let lines: Vec<String> = normalize("root", docs)
                .iter()
                .map(|rel| {
                    format!(
                        "{}({})  -- {} rows",
                        rel.name,
                        rel.columns.join(", "),
                        rel.rows.len()
                    )
                })
                .collect();
            (lines.join("\n"), String::new())
        }
        _ => unreachable!(),
    }
}

#[test]
fn convert_prints_what_the_in_memory_sink_printed() {
    for (name, text) in corpora() {
        let docs = docs(&text);
        let ty = infer_collection(&docs, Equivalence::Kind);
        let (_, avro_summary) = convert_in_memory("avro", &ty, &docs);
        let (relations, _) = convert_in_memory("relational", &ty, &docs);
        for run in runs() {
            let at = format!("{name} {}", describe(&run));
            let (inferred, _) = run.infer(Source::slice(&text), Equivalence::Kind).unwrap();
            let (sizes, _) = run
                .documents(Source::slice(&text), &AvroFold::new(&inferred))
                .unwrap();
            let summary = format!(
                "{} documents encoded: {} bytes binary (schema derived from inference)",
                sizes.0, sizes.1
            );
            assert_eq!(summary, avro_summary, "{at}");
            let (collected, _) = run.documents(Source::slice(&text), &CollectFold).unwrap();
            assert_eq!(collected, docs, "{at}");
            let (body, _) = convert_in_memory("relational", &ty, &collected);
            assert_eq!(body, relations, "{at}");
        }
    }
}

/// The run's own rules hold on the document stage: a byte-order mark on
/// the first line is skipped, a malformed line stops a fail-fast run at
/// the line `parse_ndjson` names, and the run's limits apply.
#[test]
fn the_document_stage_reads_records_as_every_stage_does() {
    let marked = format!("\u{feff}{SAMPLE}");
    for run in runs() {
        let (plain, _) = run.documents(Source::slice(SAMPLE), &CollectFold).unwrap();
        let (skipped, _) = run.documents(Source::slice(&marked), &CollectFold).unwrap();
        assert_eq!(plain, skipped, "{}", describe(&run));
    }

    let mut lines: Vec<String> = write_ndjson(&Corpus::Github.generate(120))
        .lines()
        .map(str::to_string)
        .collect();
    lines[77] = "{\"a\":1} trailing".into();
    lines[90] = "{broken".into();
    let text = lines.join("\n") + "\n";
    let (line, _) = parse_ndjson(&text).unwrap_err();
    assert_eq!(line, 77);
    for run in runs() {
        match run.documents(Source::slice(&text), &ProfileFold) {
            Err(StreamError::Record { record, .. }) => assert_eq!(record, line),
            other => panic!("{}: {:?}", describe(&run), other.map(|_| ())),
        }
    }

    let deep = format!("{}1{}\n", "[".repeat(200), "]".repeat(200));
    let err = Run::default()
        .documents(Source::slice(&deep), &CollectFold)
        .unwrap_err();
    assert!(err.to_string().starts_with("line 1: "), "{err}");
}
