//! Type fusion — the reduce step of parametric inference.
//!
//! `fuse` is a commutative, associative operator on [`JType`] with
//! [`JType::Bottom`] as unit; the collection type is the fold of the
//! per-document types under it. The property tests in `tests/` pin the
//! algebraic laws, which are what make the distributed/parallel reduce
//! correct.

use crate::equiv::Equivalence;
use crate::types::{ArrayType, FieldName, FieldType, JType, RecordType};

/// Fuses two types under the given equivalence.
pub fn fuse(a: JType, b: JType, equiv: Equivalence) -> JType {
    match (a, b) {
        (JType::Bottom, t) | (t, JType::Bottom) => t,
        (JType::Union(xs), JType::Union(ys)) => {
            let mut members = xs;
            for y in ys {
                members = add_member(members, y, equiv);
            }
            normalize_union(members)
        }
        (JType::Union(xs), y) => normalize_union(add_member(xs, y, equiv)),
        (x, JType::Union(ys)) => {
            // Commutativity: fold x into ys.
            normalize_union(add_member(ys, x, equiv))
        }
        (x, y) => match try_merge(x, y, equiv) {
            Ok(merged) => merged,
            Err((x, y)) => normalize_union(vec![x, y]),
        },
    }
}

/// Fuses a whole sequence of types.
pub fn fuse_all<I: IntoIterator<Item = JType>>(types: I, equiv: Equivalence) -> JType {
    types
        .into_iter()
        .fold(JType::Bottom, |acc, t| fuse(acc, t, equiv))
}

/// Adds one (non-union, non-bottom) member into a member list, merging with
/// the first compatible member.
fn add_member(mut members: Vec<JType>, incoming: JType, equiv: Equivalence) -> Vec<JType> {
    debug_assert!(!matches!(incoming, JType::Union(_) | JType::Bottom));
    let mut incoming = incoming;
    for i in 0..members.len() {
        let existing = members.swap_remove(i);
        match try_merge(existing, incoming, equiv) {
            Ok(merged) => {
                members.push(merged);
                return members;
            }
            Err((existing, original)) => {
                incoming = original;
                // Put the existing member back where swap_remove left a hole
                // (order is re-established by normalize_union).
                members.push(existing);
                let last = members.len() - 1;
                members.swap(i, last);
            }
        }
    }
    members.push(incoming);
    members
}

/// Attempts to merge two non-union types; returns them unchanged when they
/// are incompatible under `equiv`.
fn try_merge(a: JType, b: JType, equiv: Equivalence) -> Result<JType, (JType, JType)> {
    use JType::*;
    match (a, b) {
        (Null { count: x }, Null { count: y }) => Ok(Null { count: x + y }),
        (Bool { count: x }, Bool { count: y }) => Ok(Bool { count: x + y }),
        (Int { count: x }, Int { count: y }) => Ok(Int { count: x + y }),
        (Float { count: x }, Float { count: y }) => Ok(Float { count: x + y }),
        (Str { count: x }, Str { count: y }) => Ok(Str { count: x + y }),
        (Array(x), Array(y)) => Ok(Array(fuse_arrays(x, y, equiv))),
        (Record(x), Record(y)) => {
            if equiv.records_mergeable(&x, &y) {
                Ok(Record(fuse_records(x, y, equiv)))
            } else {
                Err((Record(x), Record(y)))
            }
        }
        (a, b) => Err((a, b)),
    }
}

fn fuse_arrays(a: ArrayType, b: ArrayType, equiv: Equivalence) -> ArrayType {
    ArrayType {
        item: Box::new(fuse(*a.item, *b.item, equiv)),
        count: a.count + b.count,
        total_items: a.total_items + b.total_items,
    }
}

/// Merges two record types: union of fields, fused field types, added
/// presence counters.
pub(crate) fn fuse_records(a: RecordType, b: RecordType, equiv: Equivalence) -> RecordType {
    let mut fields: Vec<(FieldName, FieldType)> =
        Vec::with_capacity(a.fields.len().max(b.fields.len()));
    let mut ai = a.fields.into_iter().peekable();
    let mut bi = b.fields.into_iter().peekable();
    // Both sides are sorted by name; merge like a sorted-list union.
    loop {
        match (ai.peek(), bi.peek()) {
            (Some((an, _)), Some((bn, _))) => {
                if an == bn {
                    let (name, fa) = ai.next().expect("peeked");
                    let (_, fb) = bi.next().expect("peeked");
                    fields.push((
                        name,
                        FieldType {
                            ty: fuse(fa.ty, fb.ty, equiv),
                            presence: fa.presence + fb.presence,
                        },
                    ));
                } else if an < bn {
                    fields.push(ai.next().expect("peeked"));
                } else {
                    fields.push(bi.next().expect("peeked"));
                }
            }
            (Some(_), None) => fields.push(ai.next().expect("peeked")),
            (None, Some(_)) => fields.push(bi.next().expect("peeked")),
            (None, None) => break,
        }
    }
    RecordType {
        fields,
        count: a.count + b.count,
    }
}

/// Canonicalises a member list into a type: unwraps singletons and orders
/// members deterministically.
fn normalize_union(mut members: Vec<JType>) -> JType {
    match members.len() {
        0 => JType::Bottom,
        1 => members.pop().expect("len checked"),
        _ => {
            members.sort_by(member_order);
            JType::Union(members)
        }
    }
}

/// Deterministic order for union members: by rank, then (for records) by
/// label set, then by count for stability.
fn member_order(a: &JType, b: &JType) -> std::cmp::Ordering {
    a.rank().cmp(&b.rank()).then_with(|| match (a, b) {
        (JType::Record(x), JType::Record(y)) => x.labels().cmp(y.labels()),
        _ => std::cmp::Ordering::Equal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::infer_value;
    use jsonx_data::json;

    fn t(v: jsonx_data::Value, e: Equivalence) -> JType {
        infer_value(&v, e)
    }

    #[test]
    fn bottom_is_unit() {
        let s = JType::Str { count: 3 };
        assert_eq!(fuse(JType::Bottom, s.clone(), Equivalence::Kind), s);
        assert_eq!(fuse(s.clone(), JType::Bottom, Equivalence::Kind), s);
    }

    #[test]
    fn same_kind_scalars_add_counts() {
        let a = JType::Int { count: 2 };
        let b = JType::Int { count: 5 };
        assert_eq!(fuse(a, b, Equivalence::Kind), JType::Int { count: 7 });
    }

    #[test]
    fn distinct_kinds_form_unions() {
        let u = fuse(
            JType::Int { count: 1 },
            JType::Str { count: 1 },
            Equivalence::Kind,
        );
        assert_eq!(
            u,
            JType::Union(vec![JType::Int { count: 1 }, JType::Str { count: 1 }])
        );
        // Fusing another Int folds into the existing member.
        let u2 = fuse(u, JType::Int { count: 3 }, Equivalence::Kind);
        assert_eq!(
            u2,
            JType::Union(vec![JType::Int { count: 4 }, JType::Str { count: 1 }])
        );
    }

    #[test]
    fn kind_merges_different_records() {
        let a = t(json!({"a": 1}), Equivalence::Kind);
        let b = t(json!({"b": "x"}), Equivalence::Kind);
        let fused = fuse(a, b, Equivalence::Kind);
        let JType::Record(r) = fused else {
            panic!("expected single record")
        };
        assert_eq!(r.count, 2);
        assert_eq!(r.labels().collect::<Vec<_>>(), vec!["a", "b"]);
        assert!(r.is_optional("a"));
        assert!(r.is_optional("b"));
    }

    #[test]
    fn label_keeps_different_records_apart() {
        let a = t(json!({"a": 1}), Equivalence::Label);
        let b = t(json!({"b": "x"}), Equivalence::Label);
        let fused = fuse(a, b, Equivalence::Label);
        let JType::Union(ms) = fused else {
            panic!("expected union")
        };
        assert_eq!(ms.len(), 2);
    }

    #[test]
    fn label_merges_same_labels() {
        let a = t(json!({"a": 1}), Equivalence::Label);
        let b = t(json!({"a": "x"}), Equivalence::Label);
        let fused = fuse(a, b, Equivalence::Label);
        let JType::Record(r) = fused else {
            panic!("expected record")
        };
        // Field type is itself a union of Int and Str.
        assert!(matches!(r.field("a").unwrap().ty, JType::Union(_)));
    }

    #[test]
    fn arrays_fuse_item_types() {
        let a = t(json!([1, 2]), Equivalence::Kind);
        let b = t(json!(["x"]), Equivalence::Kind);
        let JType::Array(at) = fuse(a, b, Equivalence::Kind) else {
            panic!("expected array")
        };
        assert_eq!(at.count, 2);
        assert_eq!(at.total_items, 3);
        assert!(matches!(*at.item, JType::Union(_)));
    }

    #[test]
    fn union_member_order_is_deterministic() {
        let u1 = fuse(
            JType::Str { count: 1 },
            JType::Int { count: 1 },
            Equivalence::Kind,
        );
        let u2 = fuse(
            JType::Int { count: 1 },
            JType::Str { count: 1 },
            Equivalence::Kind,
        );
        assert_eq!(u1, u2);
    }

    #[test]
    fn record_members_order_like_their_collected_label_lists() {
        let rec = |v| t(v, Equivalence::Label);
        let members = [
            rec(json!({})),
            rec(json!({"a": 1})),
            rec(json!({"a": 1, "b": 1})),
            rec(json!({"a": 1, "c": 1})),
            rec(json!({"ab": 1})),
            rec(json!({"b": 1})),
            JType::Int { count: 1 },
            t(json!([1]), Equivalence::Label),
        ];
        let collected = |a: &JType, b: &JType| {
            a.rank().cmp(&b.rank()).then_with(|| match (a, b) {
                (JType::Record(x), JType::Record(y)) => {
                    let xs: Vec<&str> = x.labels().collect();
                    let ys: Vec<&str> = y.labels().collect();
                    xs.cmp(&ys)
                }
                _ => std::cmp::Ordering::Equal,
            })
        };
        for a in &members {
            for b in &members {
                assert_eq!(member_order(a, b), collected(a, b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn fuse_all_over_collection() {
        let types = vec![
            JType::Int { count: 1 },
            JType::Int { count: 1 },
            JType::Null { count: 1 },
        ];
        let fused = fuse_all(types, Equivalence::Kind);
        assert_eq!(
            fused,
            JType::Union(vec![JType::Null { count: 1 }, JType::Int { count: 2 }])
        );
        assert_eq!(fuse_all(vec![], Equivalence::Kind), JType::Bottom);
    }

    #[test]
    fn nested_record_fusion_is_recursive() {
        let a = t(json!({"u": {"id": 1}}), Equivalence::Kind);
        let b = t(json!({"u": {"id": 2, "name": "x"}}), Equivalence::Kind);
        let JType::Record(r) = fuse(a, b, Equivalence::Kind) else {
            panic!()
        };
        let JType::Record(inner) = &r.field("u").unwrap().ty else {
            panic!("inner record expected")
        };
        assert_eq!(inner.count, 2);
        assert!(inner.is_optional("name"));
        assert!(!inner.is_optional("id"));
    }
}
