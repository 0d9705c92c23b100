//! Schema compilation and validation errors.

use jsonx_data::Pointer;
use std::fmt;

/// An error found while *compiling* a schema document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// JSON Pointer into the schema document.
    pub schema_path: String,
    /// Human-readable description.
    pub message: String,
}

impl SchemaError {
    pub(crate) fn new(schema_path: impl Into<String>, message: impl Into<String>) -> Self {
        SchemaError {
            schema_path: schema_path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid schema at '{}': {}",
            self.schema_path, self.message
        )
    }
}

impl std::error::Error for SchemaError {}

/// Which keyword a validation failure came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationErrorKind {
    Type,
    Enum,
    Const,
    AllOf,
    AnyOf,
    OneOf {
        matched: usize,
    },
    Not,
    /// `if`/`then`/`else` conditional failed.
    Conditional {
        then_branch: bool,
    },
    MinLength,
    MaxLength,
    Pattern,
    Format,
    Minimum,
    Maximum,
    ExclusiveMinimum,
    ExclusiveMaximum,
    MultipleOf,
    AdditionalItems,
    MinItems,
    MaxItems,
    UniqueItems,
    Contains,
    Required {
        missing: String,
    },
    AdditionalProperties {
        key: String,
    },
    MinProperties,
    MaxProperties,
    PropertyNames {
        key: String,
    },
    Dependencies {
        key: String,
    },
    /// `false` schema (or compiled `Never`) reached.
    Never,
    /// `$ref` target missing or not a valid schema.
    BadRef {
        reference: String,
    },
}

impl ValidationErrorKind {
    /// The keyword name as spelled in schema documents.
    pub fn keyword(&self) -> &'static str {
        use ValidationErrorKind::*;
        match self {
            Type => "type",
            Enum => "enum",
            Const => "const",
            AllOf => "allOf",
            AnyOf => "anyOf",
            OneOf { .. } => "oneOf",
            Not => "not",
            Conditional { then_branch: true } => "then",
            Conditional { then_branch: false } => "else",
            MinLength => "minLength",
            MaxLength => "maxLength",
            Pattern => "pattern",
            Format => "format",
            Minimum => "minimum",
            Maximum => "maximum",
            ExclusiveMinimum => "exclusiveMinimum",
            ExclusiveMaximum => "exclusiveMaximum",
            MultipleOf => "multipleOf",
            AdditionalItems => "additionalItems",
            MinItems => "minItems",
            MaxItems => "maxItems",
            UniqueItems => "uniqueItems",
            Contains => "contains",
            Required { .. } => "required",
            AdditionalProperties { .. } => "additionalProperties",
            MinProperties => "minProperties",
            MaxProperties => "maxProperties",
            PropertyNames { .. } => "propertyNames",
            Dependencies { .. } => "dependencies",
            Never => "false",
            BadRef { .. } => "$ref",
        }
    }
}

/// One validation failure: where in the instance, which keyword, and a
/// rendered message.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationError {
    /// Path into the *instance* (the validated value).
    pub instance_path: Pointer,
    /// Which keyword failed.
    pub kind: ValidationErrorKind,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path = self.instance_path.to_string();
        let shown = if path.is_empty() { "<root>" } else { &path };
        write!(f, "{}: [{}] {}", shown, self.kind.keyword(), self.message)
    }
}

impl std::error::Error for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_names() {
        assert_eq!(ValidationErrorKind::OneOf { matched: 2 }.keyword(), "oneOf");
        assert_eq!(
            ValidationErrorKind::Required {
                missing: "x".into()
            }
            .keyword(),
            "required"
        );
    }

    #[test]
    fn display_formats() {
        let e = ValidationError {
            instance_path: Pointer::root().push_key("age"),
            kind: ValidationErrorKind::Minimum,
            message: "-1 < 0".into(),
        };
        assert_eq!(e.to_string(), "/age: [minimum] -1 < 0");
        let root = ValidationError {
            instance_path: Pointer::root(),
            kind: ValidationErrorKind::Type,
            message: "m".into(),
        };
        assert!(root.to_string().starts_with("<root>"));
    }
}
