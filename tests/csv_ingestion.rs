//! End-to-end CSV ingestion through the decoder seam: the CSV front-end
//! must get inference, validation, translation, error policies and
//! quarantine diagnostics from the shared engine — and every stage must
//! be shard/worker-transparent (workers {1, 2, 3, 8} agree with the
//! single-worker reference, chunk boundaries included).

#[path = "../crates/schema/tests/oracle/mod.rs"]
mod oracle;

use jsonx::core::{to_json_schema, Equivalence};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::parse;
use jsonx::translate::Shredder;
use jsonx::{
    CsvDecoder, ErrorPolicy, FaultOptions, Format, LineVerdict, RecordDecoder, Run, Source,
};

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// A heterogeneous CSV corpus: typed scalars, quoted fields (with
/// embedded delimiters and escaped quotes), empty cells, short rows.
fn corpus() -> String {
    let mut text = String::from("id,name,score,active,note\n");
    for i in 0..240 {
        match i % 6 {
            0 => text.push_str(&format!("{i},alpha,{}.5,true,plain\n", i % 10)),
            1 => text.push_str(&format!(
                "{i},\"beta, quoted\",{},false,\"he said \"\"hi\"\"\"\n",
                i % 7
            )),
            2 => text.push_str(&format!("{i},gamma,,true,\n")),
            3 => text.push_str(&format!("{i},delta,{}\n", i % 5)),
            4 => text.push_str(&format!("{i},\"epsilon\",1,false,multi? no\n")),
            _ => text.push_str(&format!("{i},zeta,-{}.25,true,ok\n", i % 3)),
        }
    }
    text
}

/// Strips the header and builds the decoder the way the CLI does.
fn peel(text: &str) -> (CsvDecoder, &str) {
    let (header, rest) = text.split_once('\n').unwrap();
    (CsvDecoder::from_header(header).unwrap(), rest)
}

/// A CSV plan with small chunks, so multi-worker runs genuinely cross
/// chunk boundaries.
fn plan(decoder: &CsvDecoder, workers: usize, fault: FaultOptions) -> Run<'static> {
    Run {
        workers,
        chunk_bytes: 256,
        fault,
        format: Format::Csv(decoder.clone()),
        ..Run::default()
    }
}

#[test]
fn csv_inference_is_worker_transparent() {
    let text = corpus();
    let (decoder, rest) = peel(&text);
    let reference = plan(&decoder, 1, FaultOptions::default())
        .infer(Source::slice(rest), Equivalence::Kind)
        .unwrap();
    assert_eq!(reference.1.records, 240);
    assert!(reference.1.is_clean());
    // Behind a byte-order mark (a spreadsheet's export) the header names
    // the same columns; so does a headerless corpus whose first row has it.
    let marked = format!("\u{feff}{text}");
    let (from_marked, marked_rest) = peel(&marked);
    assert_eq!(from_marked.fields(), decoder.fields());
    let headerless = format!("\u{feff}{rest}");
    for rows in [rest, marked_rest, &headerless] {
        for workers in WORKER_COUNTS {
            let (ty, report) = plan(&from_marked, workers, FaultOptions::default())
                .infer(Source::slice(rows), Equivalence::Kind)
                .unwrap();
            assert_eq!(ty, reference.0, "inference diverged at {workers} workers");
            assert_eq!(report.records, reference.1.records);
        }
    }
}

#[test]
fn csv_validation_is_worker_transparent() {
    let text = corpus();
    let (decoder, rest) = peel(&text);
    // `score` is sometimes absent/null, so only `id` and `name` are
    // required; `active` must be boolean when present.
    let schema_doc = parse(
        r#"{"type": "object", "required": ["id", "name"],
            "properties": {"active": {"type": "boolean"}, "id": {"type": "integer"}}}"#,
    )
    .unwrap();
    let schema = CompiledSchema::compile(&schema_doc).unwrap();
    let mut reference: Option<Vec<(usize, LineVerdict)>> = None;
    for workers in WORKER_COUNTS {
        let (verdicts, report) = plan(&decoder, workers, FaultOptions::default())
            .validate(Source::slice(rest), &schema, ValidatorOptions::default())
            .unwrap();
        assert_eq!(report.records, 240);
        assert!(
            verdicts
                .iter()
                .all(|(_, v)| matches!(v, LineVerdict::Valid)),
            "synthesised CSV records should satisfy the schema"
        );
        match &reference {
            None => reference = Some(verdicts),
            Some(r) => assert_eq!(&verdicts, r, "verdicts diverged at {workers} workers"),
        }
    }
}

/// With the fast path on CSV rows are validated from their events —
/// under the closed schema inferred from
/// the corpus, and under the same schema with one column's type changed
/// (rows with long names invalid). A header that names a column twice
/// repeats a key in every row that reaches it: each is handed back and judged as the
/// document, where the last cell wins. Verdicts must be the
/// interpreter's on the decoder's documents, with the fast path on or
/// off, at every worker count; so must the combined pass's.
#[test]
fn csv_validation_from_events_matches_the_decoded_documents() {
    let text = corpus();
    let (decoder, rest) = peel(&text);
    let (ty, _) = plan(&decoder, 1, FaultOptions::default())
        .infer(Source::slice(rest), Equivalence::Kind)
        .unwrap();
    let inferred = to_json_schema(&ty);
    let stricter = {
        let jsonx::Value::Obj(mut root) = inferred.clone() else {
            panic!("a record schema: {inferred}")
        };
        let Some(jsonx::Value::Obj(mut properties)) = root.remove("properties") else {
            panic!("a record schema: {inferred}")
        };
        properties.insert(
            "name",
            parse(r#"{"type": "string", "maxLength": 5}"#).unwrap(),
        );
        root.insert("properties", jsonx::Value::Obj(properties));
        jsonx::Value::Obj(root)
    };
    let twice = CsvDecoder::from_header("id,name,score,active,name").unwrap();
    // The roundtrip; invalid rows only where `name` is long; the header's
    // second `name` judged (short rows stop before it).
    for (decoder, schema_doc, replayed, all_valid) in [
        (&decoder, &inferred, 0, true),
        (&decoder, &stricter, 0, false),
        (&twice, &stricter, 200, false),
    ] {
        let schema = CompiledSchema::compile(schema_doc).unwrap();
        assert_eq!(schema.streamable(), Ok(()));
        let want: Vec<(usize, LineVerdict)> = rest
            .lines()
            .enumerate()
            .map(|(i, row)| {
                let doc = decoder.decode_value(&mut decoder.scratch(), row).unwrap();
                match oracle::validate(&schema, &doc) {
                    Ok(()) => (i, LineVerdict::Valid),
                    Err(_) => (i, LineVerdict::Invalid),
                }
            })
            .collect();
        let valid = want.iter().filter(|(_, v)| v.is_valid()).count();
        for workers in WORKER_COUNTS {
            for fast_parse in [true, false] {
                let run = Run {
                    fast_parse,
                    timing: true,
                    ..plan(decoder, workers, FaultOptions::default())
                };
                let (verdicts, report) = run
                    .validate(Source::slice(rest), &schema, ValidatorOptions::default())
                    .unwrap();
                assert_eq!(verdicts, want, "{workers} workers, fast path {fast_parse}");
                let routes = &report.routes;
                match fast_parse {
                    true => assert_eq!(
                        (routes.fast, routes.replayed.get("duplicate-key").copied()),
                        (240 - replayed, Some(replayed).filter(|n| *n > 0))
                    ),
                    false => assert_eq!((routes.fast, routes.replayed["no-plan"]), (0, 240)),
                }
                let ((_, combined), _) = run
                    .infer_validate(
                        Source::slice(rest),
                        Equivalence::Kind,
                        &schema,
                        ValidatorOptions::default(),
                    )
                    .unwrap();
                assert_eq!(combined, want, "combined, {workers} workers");
            }
        }
        assert!(
            valid > 0 && (valid == 240) == all_valid,
            "{valid}: {schema_doc}"
        );
    }
}

#[test]
fn csv_combined_infer_validate_matches_separate_passes() {
    let text = corpus();
    let (decoder, rest) = peel(&text);
    let schema_doc = parse(r#"{"type": "object", "required": ["id"]}"#).unwrap();
    let schema = CompiledSchema::compile(&schema_doc).unwrap();
    let (ty_alone, _) = plan(&decoder, 2, FaultOptions::default())
        .infer(Source::slice(rest), Equivalence::Kind)
        .unwrap();
    for workers in WORKER_COUNTS {
        let ((ty, verdicts), _) = plan(&decoder, workers, FaultOptions::default())
            .infer_validate(
                Source::slice(rest),
                Equivalence::Kind,
                &schema,
                ValidatorOptions::default(),
            )
            .unwrap();
        assert_eq!(
            ty, ty_alone,
            "combined-pass type diverged at {workers} workers"
        );
        assert!(verdicts
            .iter()
            .all(|(_, v)| matches!(v, LineVerdict::Valid)));
    }
}

#[test]
fn csv_translation_is_worker_transparent() {
    let text = corpus();
    let (decoder, rest) = peel(&text);
    // The DOM shred of every row under the type of them all.
    let docs: Vec<jsonx::Value> = rest
        .lines()
        .map(|row| decoder.decode_value(&mut (), row).unwrap())
        .collect();
    let ty = jsonx::core::infer_collection(&docs, Equivalence::Kind);
    let dom = Shredder::from_type(&ty).shred(&docs).unwrap();
    assert_eq!(dom.rows, 240);
    for workers in WORKER_COUNTS {
        let (parts, report) = plan(&decoder, workers, FaultOptions::default())
            .translate(Source::slice(rest))
            .unwrap();
        let mut parts = parts.into_iter();
        let mut batch = parts.next().expect("a translation returns a batch");
        parts.for_each(|part| batch.append(part));
        assert_eq!(report.records, 240);
        assert_eq!(batch, dom, "batch diverged at {workers} workers");
    }
}

/// Rows with trailing extra cells are malformed under the header-driven
/// dialect; the shared error policies must treat them like any other
/// rejected record, quarantine diagnostics included.
#[test]
fn csv_error_policies_and_quarantine_diagnostics() {
    let mut text = String::from("id,name\n");
    for i in 0..30 {
        if i % 10 == 3 {
            text.push_str(&format!("{i},x,EXTRA,CELLS\n"));
        } else {
            text.push_str(&format!("{i},x\n"));
        }
    }
    let (decoder, rest) = peel(&text);
    // Fail-fast: the first extra-cell row kills the run.
    let failed =
        plan(&decoder, 2, FaultOptions::default()).infer(Source::slice(rest), Equivalence::Kind);
    assert!(failed.is_err(), "extra cells must reject under fail-fast");
    // A bounded skip that keeps its rejects: the run survives, counts the
    // three bad rows, and retains quarantine-ready diagnostics with the
    // raw line and a stable kind.
    let fault = FaultOptions {
        policy: ErrorPolicy::Skip {
            max_errors: Some(100),
        },
        keep_rejects: true,
        ..FaultOptions::default()
    };
    for workers in WORKER_COUNTS {
        let (ty, report) = plan(&decoder, workers, fault)
            .infer(Source::slice(rest), Equivalence::Kind)
            .unwrap();
        assert_eq!(report.records, 30);
        assert_eq!(report.errors.total, 3, "at {workers} workers");
        let rejected: Vec<usize> = report.errors.rejects.iter().map(|d| d.record).collect();
        assert_eq!(rejected, vec![3, 13, 23], "at {workers} workers");
        assert!(report
            .errors
            .rejects
            .iter()
            .all(|d| d.kind == "trailing-data" && d.raw.as_deref().is_some()));
        // The surviving type only saw the clean rows.
        assert!(jsonx::core::type_size(&ty) > 0);
    }
}
