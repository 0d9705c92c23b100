//! The validator's entry points: verdicts and diagnostics, both from the
//! compiled arena's one walk ([`crate::ir`]).

use crate::errors::ValidationError;
use crate::parse::CompiledSchema;
use jsonx_data::Value;

/// Validation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValidatorOptions {
    /// Enforce the `format` keyword for formats this crate knows
    /// (annotation-only by default, per spec).
    pub enforce_formats: bool,
}

impl CompiledSchema {
    /// Validates `value`, returning every violation found.
    pub fn validate(&self, value: &Value) -> Result<(), Vec<ValidationError>> {
        self.validate_with(value, ValidatorOptions::default())
    }

    /// Validates with explicit options: the errors face of the arena walk
    /// (see [`crate::ir`]), each violation with its instance path, in the
    /// walk's keyword order.
    pub fn validate_with(
        &self,
        value: &Value,
        options: ValidatorOptions,
    ) -> Result<(), Vec<ValidationError>> {
        let errors = self.fast_validator_with(options).errors(value);
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// True when `value` conforms.
    ///
    /// Runs the verdict face of the same walk (see [`crate::ir`]), which
    /// short-circuits on the first violation and allocates nothing —
    /// verdict-identical to `validate(value).is_ok()` but without paths or
    /// messages. For bulk validation prefer a reused
    /// [`crate::FastValidator`].
    pub fn is_valid(&self, value: &Value) -> bool {
        self.fast_validator().is_valid(value)
    }

    /// True when `value` conforms under explicit options (fail-fast).
    pub fn is_valid_with(&self, value: &Value, options: ValidatorOptions) -> bool {
        self.fast_validator_with(options).is_valid(value)
    }
}

/// Convenience: compile + validate in one call (for one-shot use; prefer
/// [`CompiledSchema`] when validating many instances).
pub fn validate_document(
    schema_doc: &Value,
    instance: &Value,
) -> Result<Result<(), Vec<ValidationError>>, crate::SchemaError> {
    let compiled = CompiledSchema::compile(schema_doc)?;
    Ok(compiled.validate(instance))
}

// Integration-grade tests for the validator live in `tests/validator.rs`;
// the unit tests here pin the subtle corners.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::ValidationErrorKind;
    use jsonx_data::json;

    fn compile(doc: Value) -> CompiledSchema {
        CompiledSchema::compile(&doc).unwrap()
    }

    #[test]
    fn integer_number_subsumption() {
        let s = compile(json!({"type": "number"}));
        assert!(s.is_valid(&json!(3)));
        assert!(s.is_valid(&json!(3.5)));
        let s = compile(json!({"type": "integer"}));
        assert!(s.is_valid(&json!(3)));
        assert!(s.is_valid(&json!(3.0))); // integral float is an integer
        assert!(!s.is_valid(&json!(3.5)));
    }

    #[test]
    fn negation_types() {
        let s = compile(json!({"not": {"type": "string"}}));
        assert!(s.is_valid(&json!(1)));
        assert!(!s.is_valid(&json!("s")));
        // Double negation.
        let s = compile(json!({"not": {"not": {"type": "string"}}}));
        assert!(s.is_valid(&json!("s")));
        assert!(!s.is_valid(&json!(1)));
    }

    #[test]
    fn one_of_counts_matches() {
        let s = compile(json!({"oneOf": [
            {"type": "integer"},
            {"minimum": 5}
        ]}));
        assert!(s.is_valid(&json!(3))); // integer only
        assert!(s.is_valid(&json!(5.5))); // minimum only
        assert!(!s.is_valid(&json!(7))); // both → fails
        let err = s.validate(&json!(7)).unwrap_err();
        assert!(matches!(
            err[0].kind,
            ValidationErrorKind::OneOf { matched: 2 }
        ));
    }

    #[test]
    fn guarded_recursion_works() {
        // A recursive tree schema: recursion consumes input, so no cycle.
        let s = compile(json!({
            "definitions": {
                "tree": {
                    "type": "object",
                    "properties": {
                        "value": {"type": "integer"},
                        "children": {"type": "array", "items": {"$ref": "#/definitions/tree"}}
                    },
                    "required": ["value"]
                }
            },
            "$ref": "#/definitions/tree"
        }));
        let ok = json!({"value": 1, "children": [
            {"value": 2, "children": []},
            {"value": 3, "children": [{"value": 4, "children": []}]}
        ]});
        assert!(s.is_valid(&ok));
        let bad = json!({"value": 1, "children": [{"children": []}]});
        let errs = s.validate(&bad).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.instance_path.to_string() == "/children/0"));
    }

    #[test]
    fn error_paths_point_into_instance() {
        let s = compile(json!({
            "type": "object",
            "properties": {"xs": {"type": "array", "items": {"type": "integer"}}}
        }));
        let errs = s.validate(&json!({"xs": [1, "two", 3]})).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].instance_path.to_string(), "/xs/1");
    }

    #[test]
    fn formats_are_annotations_unless_enforced() {
        let s = compile(json!({"format": "date"}));
        assert!(s.is_valid(&json!("not a date")));
        let opts = ValidatorOptions {
            enforce_formats: true,
        };
        assert!(s.validate_with(&json!("not a date"), opts).is_err());
        assert!(s.validate_with(&json!("2019-03-26"), opts).is_ok());
    }

    #[test]
    fn multiple_errors_collected() {
        let s = compile(json!({
            "type": "object",
            "properties": {"a": {"type": "integer"}, "b": {"type": "string"}},
            "required": ["a", "b", "c"]
        }));
        let errs = s.validate(&json!({"a": "x", "b": 1})).unwrap_err();
        assert_eq!(errs.len(), 3); // a wrong, b wrong, c missing
    }

    #[test]
    fn validate_document_convenience() {
        let ok = validate_document(&json!({"type": "null"}), &json!(null)).unwrap();
        assert!(ok.is_ok());
        assert!(validate_document(&json!(3), &json!(null)).is_err());
    }
}
