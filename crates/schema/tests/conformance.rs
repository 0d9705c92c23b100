//! The hand-authored conformance corpus: `tests/conformance/<keyword>.json`.
//!
//! Each file holds groups of a schema (`"formats": true` when `format` is
//! enforced) and its cases: an instance, the verdict the draft-04/06 text
//! or Pezoa et al. give it, a one-line `why` saying which, and the kinds
//! of the errors `validate` reports, in order (`Required(b)` names the
//! payload of a kind that has one). Every case runs through the verdict
//! face (`is_valid`), the errors face (`validate`), the event walk when the
//! schema is `streamable()` — as compact and as respelled text — and the
//! oracle (the AST interpreter under `tests/oracle/`), whose errors must be
//! the errors face's exactly. A group marked `"refused": true` is a
//! schema that `compile` must refuse: one in a later draft's vocabulary
//! (Attouche et al.), which it would otherwise validate more permissively
//! than written, or — with a `"cycle"`, the references `compile`'s error
//! must name — one that is not well formed (Pezoa et al.: it recurses
//! without consuming input). The oracle's own well-formedness check must
//! call exactly the groups with a `"cycle"` ill formed. Together the cases
//! produce every [`ValidationErrorKind`].

mod oracle;

use jsonx_data::Value;
use jsonx_schema::{CompiledSchema, EventValidator, ValidationErrorKind, ValidatorOptions};
use jsonx_syntax::{parse, to_string, EventReceiver, JsonDecoder, RawEvent, RecordDecoder};
use std::collections::BTreeSet;
use std::path::Path;

/// Every kind, by the name [`label`] gives it.
const KINDS: [&str; 30] = [
    "Type",
    "Enum",
    "Const",
    "AllOf",
    "AnyOf",
    "OneOf",
    "Not",
    "Conditional",
    "MinLength",
    "MaxLength",
    "Pattern",
    "Format",
    "Minimum",
    "Maximum",
    "ExclusiveMinimum",
    "ExclusiveMaximum",
    "MultipleOf",
    "AdditionalItems",
    "MinItems",
    "MaxItems",
    "UniqueItems",
    "Contains",
    "Required",
    "AdditionalProperties",
    "MinProperties",
    "MaxProperties",
    "PropertyNames",
    "Dependencies",
    "Never",
    "BadRef",
];

/// A kind as the corpus spells it: its name, then its payload, if any, in
/// parentheses. The match is exhaustive, so a new kind must be named here.
fn label(kind: &ValidationErrorKind) -> String {
    use ValidationErrorKind::*;
    let (name, payload) = match kind {
        Type => ("Type", None),
        Enum => ("Enum", None),
        Const => ("Const", None),
        AllOf => ("AllOf", None),
        AnyOf => ("AnyOf", None),
        OneOf { matched } => ("OneOf", Some(matched.to_string())),
        Not => ("Not", None),
        Conditional { then_branch } => {
            let branch = if *then_branch { "then" } else { "else" };
            ("Conditional", Some(branch.to_string()))
        }
        MinLength => ("MinLength", None),
        MaxLength => ("MaxLength", None),
        Pattern => ("Pattern", None),
        Format => ("Format", None),
        Minimum => ("Minimum", None),
        Maximum => ("Maximum", None),
        ExclusiveMinimum => ("ExclusiveMinimum", None),
        ExclusiveMaximum => ("ExclusiveMaximum", None),
        MultipleOf => ("MultipleOf", None),
        AdditionalItems => ("AdditionalItems", None),
        MinItems => ("MinItems", None),
        MaxItems => ("MaxItems", None),
        UniqueItems => ("UniqueItems", None),
        Contains => ("Contains", None),
        Required { missing } => ("Required", Some(missing.clone())),
        AdditionalProperties { key } => ("AdditionalProperties", Some(key.clone())),
        MinProperties => ("MinProperties", None),
        MaxProperties => ("MaxProperties", None),
        PropertyNames { key } => ("PropertyNames", Some(key.clone())),
        Dependencies { key } => ("Dependencies", Some(key.clone())),
        Never => ("Never", None),
        BadRef { reference } => ("BadRef", Some(reference.clone())),
    };
    match payload {
        Some(payload) => format!("{name}({payload})"),
        None => name.to_string(),
    }
}

struct Walking<'a, 's>(&'a mut EventValidator<'s>);

impl EventReceiver for Walking<'_, '_> {
    fn event(&mut self, ev: &RawEvent<'_>) {
        match ev {
            RawEvent::StartObject => self.0.start_object(),
            RawEvent::EndObject => self.0.end_object(),
            RawEvent::StartArray => self.0.start_array(),
            RawEvent::EndArray => self.0.end_array(),
            RawEvent::Key(k) => self.0.key(k),
            RawEvent::Null => self.0.null(),
            RawEvent::Bool(b) => self.0.boolean(*b),
            RawEvent::Num(n) => self.0.number(*n),
            RawEvent::Str(s) => self.0.string(s),
        }
    }
}

/// The corpus files, by name.
fn corpus() -> Vec<(String, Value)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/conformance");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path).unwrap();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, doc)
        })
        .collect()
}

fn field<'v>(value: &'v Value, name: &str, at: &str) -> &'v Value {
    value
        .get(name)
        .unwrap_or_else(|| panic!("{at}: no \"{name}\""))
}

#[test]
fn every_case_gets_its_verdict_and_kinds_from_every_evaluator() {
    let mut failures = Vec::new();
    let mut produced = BTreeSet::new();
    let mut cases = 0;
    for (name, doc) in corpus() {
        let groups = field(&doc, "groups", &name).as_array().unwrap();
        for (g, group) in groups.iter().enumerate() {
            let at = format!("{name} group {g}");
            let schema_doc = field(group, "schema", &at);
            let cycle = group.get("cycle").and_then(Value::as_str);
            if oracle::well_formed(schema_doc).is_ok() != cycle.is_none() {
                failures.push(format!(
                    "{at}: the oracle's well-formedness check answers {:?} on {schema_doc}",
                    oracle::well_formed(schema_doc)
                ));
            }
            if group.get("refused").and_then(Value::as_bool) == Some(true) {
                let why = field(group, "why", &at).as_str().unwrap();
                assert!(!why.is_empty(), "{at}: a refusal needs its why");
                match (CompiledSchema::compile(schema_doc), cycle) {
                    (Ok(_), _) => failures.push(format!("{at}: {schema_doc} compiled ({why})")),
                    (Err(e), Some(cycle)) if !e.message.contains(cycle) => {
                        failures.push(format!("{at}: the refusal does not name {cycle}: {e}"))
                    }
                    _ => {}
                }
                continue;
            }
            let schema = CompiledSchema::compile(schema_doc)
                .unwrap_or_else(|e| panic!("{at}: {schema_doc} does not compile: {e}"));
            let options = ValidatorOptions {
                enforce_formats: group.get("formats").and_then(Value::as_bool) == Some(true),
            };
            let mut walk = schema.event_validator_with(options).ok();
            for (c, case) in field(group, "cases", &at)
                .as_array()
                .unwrap()
                .iter()
                .enumerate()
            {
                cases += 1;
                let at = format!("{at} case {c}");
                let instance = field(case, "instance", &at);
                let valid = field(case, "valid", &at).as_bool().unwrap();
                let why = field(case, "why", &at).as_str().unwrap();
                assert!(!why.is_empty(), "{at}: a case needs its why");
                let kinds: Vec<&str> = field(case, "kinds", &at)
                    .as_array()
                    .unwrap()
                    .iter()
                    .map(|kind| kind.as_str().unwrap())
                    .collect();
                let mut fail = |what: String| {
                    failures.push(format!(
                        "{at}: schema {schema_doc} instance {instance}: {what} ({why})"
                    ))
                };

                if schema.is_valid_with(instance, options) != valid {
                    fail(format!("is_valid is not {valid}"));
                }
                let errors = schema.validate_with(instance, options);
                let got: Vec<String> = match &errors {
                    Ok(()) => Vec::new(),
                    Err(errors) => errors.iter().map(|e| label(&e.kind)).collect(),
                };
                if errors.is_ok() != valid || got != kinds {
                    fail(format!("validate reports {got:?}, not {kinds:?}"));
                }
                if errors != oracle::validate_with(&schema, instance, options) {
                    fail("validate's errors are not the oracle's".to_string());
                }
                if let Some(walk) = &mut walk {
                    // The instance's own text, then a respelling, which
                    // may mean another document (and repeat a key: then
                    // the walk asks for a replay).
                    let respelled = jsonx_gen::respelled(instance, c as u64);
                    let meant = schema.is_valid_with(&parse(&respelled).unwrap(), options);
                    for (text, expected) in [(to_string(instance), Some(valid)), (respelled, None)]
                    {
                        JsonDecoder::new()
                            .decode_events(&mut (), &text, &mut Walking(walk))
                            .unwrap();
                        match (walk.finish(), expected) {
                            (Some(walked), expected) if walked != expected.unwrap_or(meant) => {
                                fail(format!("the event walk answers {walked} on {text}"))
                            }
                            (None, Some(_)) => fail(format!("the event walk replays {text}")),
                            _ => {}
                        }
                    }
                }
                for kind in &kinds {
                    produced.insert(kind.split('(').next().unwrap().to_string());
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(cases > 0);
    for kind in KINDS {
        assert!(
            produced.contains(kind),
            "no conformance case produces {kind}"
        );
    }
    assert_eq!(produced.len(), KINDS.len(), "{produced:?}");
}
