//! The hand-authored inference conformance corpus:
//! `crates/core/tests/conformance/<rule>.json`.
//!
//! Each file holds groups of a collection (NDJSON lines), the K and L
//! types the paper's §4.1 rules give it — printed with counts, written by
//! hand from the rules rather than from our output — and a one-line `why`
//! naming the rule. Every group runs through every typer: the map-then-
//! fuse definition (`fuse_all` over `infer_value`), `Run::infer` at
//! several worker counts and chunk sizes (typing in place under K, the
//! document route for every record under L and for a repeated key), and
//! the combined pass `Run::infer_validate` against the schema `{}`; and
//! the printed type must parse back to the type it was printed from.

use jsonx::core::{
    fuse_all, infer_value, parse_type, print_type, Equivalence, JType, PrintOptions,
};
use jsonx::schema::{CompiledSchema, ValidatorOptions};
use jsonx::syntax::parse;
use jsonx::{LineVerdict, Run, Source, Value};
use std::path::Path;

/// Every `(file, group)` of the corpus, in file-name order.
fn corpus() -> Vec<(String, Value)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/tests/conformance");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no conformance files in {dir:?}");
    let mut groups = Vec::new();
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let doc = parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Some(Value::Arr(list)) = doc.get("groups") else {
            panic!("{name}: no \"groups\" array");
        };
        groups.extend(list.iter().map(|group| (name.clone(), group.clone())));
    }
    groups
}

fn text<'v>(group: &'v Value, key: &str, at: &str) -> &'v str {
    group
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{at}: no string {key:?}"))
}

#[test]
fn every_typer_gives_every_group_its_written_type() {
    let empty = CompiledSchema::compile(&parse("{}").unwrap()).unwrap();
    let counts = PrintOptions::with_counts();
    let mut checked = 0;
    for (file, group) in corpus() {
        let why = text(&group, "why", &file);
        let at = format!("{file}: {why}");
        let Some(Value::Arr(lines)) = group.get("lines") else {
            panic!("{at}: no \"lines\" array");
        };
        let lines: Vec<&str> = lines.iter().map(|l| l.as_str().unwrap()).collect();
        let ndjson: String = lines.iter().map(|l| format!("{l}\n")).collect();
        for (equiv, key) in [(Equivalence::Kind, "K"), (Equivalence::Label, "L")] {
            let want = text(&group, key, &at);
            let at = format!("{at} [{key}]");

            let mapped: JType = fuse_all(
                lines.iter().map(|l| infer_value(&parse(l).unwrap(), equiv)),
                equiv,
            );
            assert_eq!(
                print_type(&mapped, counts),
                want,
                "{at}: fuse_all(infer_value)"
            );
            assert_eq!(parse_type(want).as_ref(), Ok(&mapped), "{at}: parse_type");

            for workers in [1, 2, 8] {
                for chunk_bytes in [1, 64, 0] {
                    let run = Run {
                        workers,
                        chunk_bytes,
                        ..Run::default()
                    };
                    let (ty, _) = run.infer(Source::slice(&ndjson), equiv).unwrap();
                    assert_eq!(
                        print_type(&ty, counts),
                        want,
                        "{at}: Run::infer workers={workers} chunk_bytes={chunk_bytes}"
                    );
                }
            }

            let ((ty, verdicts), _) = Run::default()
                .infer_validate(
                    Source::slice(&ndjson),
                    equiv,
                    &empty,
                    ValidatorOptions::default(),
                )
                .unwrap();
            assert_eq!(print_type(&ty, counts), want, "{at}: Run::infer_validate");
            let expected: Vec<_> = (0..lines.len()).map(|i| (i, LineVerdict::Valid)).collect();
            assert_eq!(verdicts, expected, "{at}: Run::infer_validate verdicts");
        }
        checked += 1;
    }
    assert!(checked >= 6, "only {checked} groups");
}
