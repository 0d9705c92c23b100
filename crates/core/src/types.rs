//! The inferred type language.
//!
//! A [`JType`] is the structural abstraction of a set of JSON values:
//! scalar kinds with occurrence counters, record types with per-field
//! presence counters, array types summarising their element population, and
//! union types holding structurally-incompatible alternatives. This is the
//! counting-annotated type language of the parametric-inference papers.

use jsonx_data::Value;

/// A shared, immutable record field name.
///
/// `Arc<str>` (rather than `String`) lets inference workers intern hot
/// keys — every record mentioning a repeated field shares one allocation —
/// and lets record types cross thread boundaries in parallel inference.
/// `"x".into()` still produces one, so construction sites read as before.
pub type FieldName = std::sync::Arc<str>;

/// An inferred type with counting annotations.
#[derive(Debug, Clone, PartialEq)]
pub enum JType {
    /// The type of the empty collection (unit of fusion).
    Bottom,
    /// `null`, seen `count` times.
    Null { count: u64 },
    /// Booleans, seen `count` times.
    Bool { count: u64 },
    /// Integral numbers (JSON numbers with no fractional part).
    Int { count: u64 },
    /// Numbers in general (inferred for non-integral observations; admits
    /// *any* number — `Int` is its refinement, mirroring JSON Schema's
    /// `number`/`integer` and the papers' `Num`/`Int` kinds).
    Float { count: u64 },
    /// Strings.
    Str { count: u64 },
    /// Record (object) types.
    Record(RecordType),
    /// Array types.
    Array(ArrayType),
    /// A union of ≥2 pairwise-incompatible member types.
    ///
    /// Invariant (maintained by fusion): no member is itself a union or
    /// `Bottom`, and no two members are fusable under the equivalence in
    /// force when the union was built.
    Union(Vec<JType>),
}

/// A record type: fields with presence counters.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordType {
    /// Fields sorted by name. A field is *optional* when
    /// `presence < count`.
    pub fields: Vec<(FieldName, FieldType)>,
    /// How many record values were fused into this type.
    pub count: u64,
}

/// The type of one record field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldType {
    /// Type of the field's values (fused across occurrences).
    pub ty: JType,
    /// In how many of the `count` records the field was present.
    pub presence: u64,
}

/// An array type summarising the element population of all fused arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayType {
    /// Fused type of every element of every fused array
    /// (`Bottom` when all arrays were empty).
    pub item: Box<JType>,
    /// How many array values were fused into this type.
    pub count: u64,
    /// Total number of elements across those arrays.
    pub total_items: u64,
}

impl RecordType {
    /// Field lookup by name (a binary search: `fields` is sorted).
    pub fn field(&self, name: &str) -> Option<&FieldType> {
        self.fields
            .binary_search_by(|(n, _)| (**n).cmp(name))
            .ok()
            .map(|at| &self.fields[at].1)
    }

    /// Field names in sorted order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(n, _)| &**n)
    }

    /// True when both records have exactly the same field-name set —
    /// the **L** (label) equivalence test.
    pub fn same_labels(&self, other: &RecordType) -> bool {
        self.fields.len() == other.fields.len()
            && self
                .fields
                .iter()
                .zip(other.fields.iter())
                .all(|((a, _), (b, _))| a == b)
    }

    /// True when the field may be absent.
    pub fn is_optional(&self, name: &str) -> bool {
        self.field(name).is_some_and(|f| f.presence < self.count)
    }
}

impl JType {
    /// How many values this type abstracts.
    pub fn count(&self) -> u64 {
        match self {
            JType::Bottom => 0,
            JType::Null { count }
            | JType::Bool { count }
            | JType::Int { count }
            | JType::Float { count }
            | JType::Str { count } => *count,
            JType::Record(r) => r.count,
            JType::Array(a) => a.count,
            JType::Union(members) => members.iter().map(JType::count).sum(),
        }
    }

    /// The union members (a non-union type is its own single member).
    pub fn members(&self) -> &[JType] {
        match self {
            JType::Union(ms) => ms,
            other => std::slice::from_ref(other),
        }
    }

    /// A stable rank used to order union members canonically.
    pub(crate) fn rank(&self) -> u8 {
        match self {
            JType::Bottom => 0,
            JType::Null { .. } => 1,
            JType::Bool { .. } => 2,
            JType::Int { .. } => 3,
            JType::Float { .. } => 4,
            JType::Str { .. } => 5,
            JType::Array(_) => 6,
            JType::Record(_) => 7,
            JType::Union(_) => 8,
        }
    }

    /// Structural admission: would `value` have been abstracted into this
    /// type (ignoring the counters)? This is the *soundness* relation the
    /// property tests pin: every document that went into an inference is
    /// admitted by the inferred type.
    pub fn admits(&self, value: &Value) -> bool {
        match (self, value) {
            (JType::Bottom, _) => false,
            (JType::Null { .. }, Value::Null) => true,
            (JType::Bool { .. }, Value::Bool(_)) => true,
            (JType::Int { .. }, Value::Num(n)) => n.is_integer(),
            // `Num` admits every number: widening Int ∪ Num → Num must
            // stay sound (caught by the abstraction property tests).
            (JType::Float { .. }, Value::Num(_)) => true,
            (JType::Str { .. }, Value::Str(_)) => true,
            (JType::Array(at), Value::Arr(items)) => items.iter().all(|item| at.item.admits(item)),
            (JType::Record(rt), Value::Obj(obj)) => {
                // Every present field must be known and admitted; every
                // mandatory field must be present.
                obj.iter()
                    .all(|(k, v)| rt.field(k).is_some_and(|f| f.ty.admits(v)))
                    && rt
                        .fields
                        .iter()
                        .filter(|(_, f)| f.presence == rt.count)
                        .all(|(name, _)| obj.contains_key(name))
            }
            (JType::Union(members), v) => members.iter().any(|m| m.admits(v)),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsonx_data::json;

    fn str_t(count: u64) -> JType {
        JType::Str { count }
    }

    #[test]
    fn counts_aggregate_over_unions() {
        let u = JType::Union(vec![str_t(3), JType::Int { count: 2 }]);
        assert_eq!(u.count(), 5);
        assert_eq!(JType::Bottom.count(), 0);
    }

    #[test]
    fn members_of_non_union_is_self() {
        let t = str_t(1);
        assert_eq!(t.members().len(), 1);
        let u = JType::Union(vec![str_t(1), JType::Null { count: 1 }]);
        assert_eq!(u.members().len(), 2);
    }

    #[test]
    fn label_equivalence_checks_name_sets() {
        let a = RecordType {
            fields: vec![
                (
                    "a".into(),
                    FieldType {
                        ty: str_t(1),
                        presence: 1,
                    },
                ),
                (
                    "b".into(),
                    FieldType {
                        ty: str_t(1),
                        presence: 1,
                    },
                ),
            ],
            count: 1,
        };
        let b = RecordType {
            fields: vec![
                (
                    "a".into(),
                    FieldType {
                        ty: JType::Int { count: 1 },
                        presence: 1,
                    },
                ),
                (
                    "b".into(),
                    FieldType {
                        ty: str_t(1),
                        presence: 1,
                    },
                ),
            ],
            count: 1,
        };
        let c = RecordType {
            fields: vec![(
                "a".into(),
                FieldType {
                    ty: str_t(1),
                    presence: 1,
                },
            )],
            count: 1,
        };
        assert!(a.same_labels(&b)); // types differ, labels agree
        assert!(!a.same_labels(&c));
    }

    #[test]
    fn admits_scalars() {
        assert!(str_t(1).admits(&json!("x")));
        assert!(!str_t(1).admits(&json!(1)));
        assert!(JType::Int { count: 1 }.admits(&json!(3)));
        assert!(JType::Int { count: 1 }.admits(&json!(3.0)));
        assert!(!JType::Int { count: 1 }.admits(&json!(3.5)));
        assert!(JType::Float { count: 1 }.admits(&json!(3.5)));
        assert!(JType::Float { count: 1 }.admits(&json!(3))); // Num ⊇ Int
        assert!(!JType::Bottom.admits(&json!(null)));
    }

    #[test]
    fn admits_records_with_optionality() {
        let rt = JType::Record(RecordType {
            fields: vec![
                (
                    "id".into(),
                    FieldType {
                        ty: JType::Int { count: 2 },
                        presence: 2,
                    },
                ),
                (
                    "name".into(),
                    FieldType {
                        ty: str_t(1),
                        presence: 1,
                    },
                ),
            ],
            count: 2,
        });
        assert!(rt.admits(&json!({"id": 1, "name": "a"})));
        assert!(rt.admits(&json!({"id": 1}))); // name optional
        assert!(!rt.admits(&json!({"name": "a"}))); // id mandatory
        assert!(!rt.admits(&json!({"id": 1, "extra": true}))); // unknown field
    }

    #[test]
    fn admits_arrays() {
        let at = JType::Array(ArrayType {
            item: Box::new(JType::Union(vec![JType::Int { count: 2 }, str_t(1)])),
            count: 1,
            total_items: 3,
        });
        assert!(at.admits(&json!([1, "a", 2])));
        assert!(at.admits(&json!([])));
        assert!(!at.admits(&json!([true])));
    }

    #[test]
    fn field_lookup_matches_a_linear_scan() {
        let names = ["", "a", "a b", "aa", "b", "id", "z\u{e9}"];
        let rt = RecordType {
            fields: names
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    let presence = i as u64 + 1;
                    (
                        (*n).into(),
                        FieldType {
                            ty: str_t(1),
                            presence,
                        },
                    )
                })
                .collect(),
            count: 9,
        };
        let linear = |name: &str| rt.fields.iter().find(|(n, _)| &**n == name).map(|(_, f)| f);
        for probe in names.iter().chain(&["0", "a ", "ab", "c", "zz", "\u{e9}"]) {
            assert_eq!(rt.field(probe), linear(probe), "{probe:?}");
        }
        let empty = RecordType {
            fields: vec![],
            count: 0,
        };
        assert_eq!(empty.field("a"), None);
    }

    #[test]
    fn optionality_accessor() {
        let rt = RecordType {
            fields: vec![(
                "x".into(),
                FieldType {
                    ty: str_t(1),
                    presence: 1,
                },
            )],
            count: 3,
        };
        assert!(rt.is_optional("x"));
        assert!(!rt.is_optional("missing"));
    }
}
