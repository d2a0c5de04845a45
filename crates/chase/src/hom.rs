//! Homomorphisms of annotated instances.
//!
//! Following §3 of the paper, a homomorphism `h : T → T′` is a map from
//! `Null` to `Null` (constants are fixed) such that for each annotated tuple
//! `(t, α)` of a relation `R` in `T`, the tuple `(h(t), α)` is in `R′` —
//! homomorphisms preserve annotations.
//!
//! Two search problems are implemented, both as front ends of the one
//! search for maps on nulls, [`dx_relation::find_map`]:
//!
//! * [`find_onto_hom`] — an `h` with `h(T) = T′` exactly (the
//!   "homomorphic image" half of presolutions / Proposition 1); onto-ness
//!   is the leaf test;
//! * [`find_hom_into_expansion`] — an `h` from `T` into *some expansion* of
//!   `T′` (the second half of Proposition 1): each image tuple must coincide
//!   with some `T′`-tuple on that tuple's closed positions.

use dx_relation::{find_map, AnnInstance, AnnTuple, Bindings, NullId, Tuple, Value};
use std::collections::BTreeMap;

/// A (partial) map `Null → Null`; identity outside its domain.
pub type NullMap = BTreeMap<NullId, NullId>;

/// Apply a null map to a tuple (identity outside the domain).
pub fn apply_null_map_tuple(t: &Tuple, h: &NullMap) -> Tuple {
    Tuple::new(
        t.iter()
            .map(|v| match v {
                Value::Null(n) => Value::Null(*h.get(&n).unwrap_or(&n)),
                c => c,
            })
            .collect::<Vec<_>>(),
    )
}

/// Apply a null map to an annotated instance (annotations and empty markers
/// are preserved; tuples may merge).
pub fn apply_null_map(inst: &AnnInstance, h: &NullMap) -> AnnInstance {
    let mut out = AnnInstance::new();
    for (r, rel) in inst.relations() {
        for at in rel.iter() {
            out.insert(
                r,
                AnnTuple::new(apply_null_map_tuple(&at.tuple, h), at.ann.clone()),
            );
        }
        for m in rel.empty_marks() {
            out.insert_empty_mark(r, m.clone());
        }
    }
    out
}

/// Search for a homomorphism `h` with `h(from) = to` **exactly** (same
/// annotated tuples, same empty markers). Returns the witnessing map (total
/// on the nulls of `from`) or `None`.
pub fn find_onto_hom(from: &AnnInstance, to: &AnnInstance) -> Option<NullMap> {
    // Empty markers are unaffected by homomorphisms: they must agree.
    if !empty_marks_equal(from, to) {
        return None;
    }
    // Onto-ness is the leaf test: a homomorphism that misses a `to`-tuple
    // sends the search on to the next one.
    find_map(hom_items(from, to), |h| apply_null_map(from, h) == *to)
}

fn empty_marks_equal(a: &AnnInstance, b: &AnnInstance) -> bool {
    let collect = |x: &AnnInstance| -> Vec<_> {
        x.relations()
            .flat_map(|(r, rel)| {
                rel.empty_marks()
                    .map(move |m| (r, m.clone()))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    collect(a) == collect(b)
}

/// Does every empty marker of `a` also occur in `b`?
pub(crate) fn empty_marks_included(a: &AnnInstance, b: &AnnInstance) -> bool {
    a.relations().all(|(r, rel)| {
        rel.empty_marks().all(|m| {
            b.relation(r)
                .is_some_and(|br| br.empty_marks().any(|bm| bm == m))
        })
    })
}

/// The items of an annotation-preserving `Null → Null` homomorphism
/// `from → to`: each `from`-tuple lands on a `to`-tuple with its annotation
/// and its constants, binding its nulls to that tuple's nulls.
pub(crate) fn hom_items(
    from: &AnnInstance,
    to: &AnnInstance,
) -> Vec<Vec<Bindings<NullId, NullId>>> {
    from.relations()
        .flat_map(|(r, rel)| {
            rel.iter().map(move |at| {
                to.tuples(r)
                    .filter(|cand| cand.ann == at.ann && compatible(at, cand))
                    .map(|cand| {
                        at.tuple
                            .iter()
                            .zip(cand.tuple.iter())
                            .filter_map(|(a, b)| Some((a.as_null()?, b.as_null()?)))
                            .collect()
                    })
                    .collect()
            })
        })
        .collect()
}

/// Can `from`'s tuple possibly map to `cand` (constants equal, nulls map to
/// nulls)? Null-consistency is resolved during search.
fn compatible(from: &AnnTuple, cand: &AnnTuple) -> bool {
    from.tuple
        .iter()
        .zip(cand.tuple.iter())
        .all(|(a, b)| match a {
            Value::Const(_) => a == b,
            Value::Null(_) => b.is_null(),
        })
}

/// Search for a homomorphism from `t` into **an expansion of** `csol`
/// (Proposition 1): a map `h` on the nulls of `t` such that every image
/// tuple `(h(t̄), α)` coincides with some tuple `(t̄₁, α₁)` of `csol` on the
/// positions `α₁` marks closed, and every empty marker of `t` also occurs in
/// `csol`.
pub fn find_hom_into_expansion(t: &AnnInstance, csol: &AnnInstance) -> Option<NullMap> {
    if !empty_marks_included(t, csol) {
        return None;
    }
    let items = t
        .relations()
        .flat_map(|(r, rel)| {
            rel.iter().map(move |at| {
                csol.tuples(r)
                    .filter_map(|cand| expansion_candidate(at, cand))
                    .collect()
            })
        })
        .collect();
    find_map(items, |_| true)
}

/// The bindings under which `at` coincides with `cand` (any annotation) on
/// the positions `cand` marks closed: equal constants there, or a null of
/// `at` bound to the null there. `None` if it cannot (`h` maps nulls to
/// nulls, so it never hits a constant).
fn expansion_candidate(at: &AnnTuple, cand: &AnnTuple) -> Option<Bindings<NullId, NullId>> {
    let mut forced = Vec::new();
    for i in cand.ann.closed_positions() {
        match (at.tuple.get(i), cand.tuple.get(i)) {
            (Value::Null(n), Value::Null(m)) => forced.push((n, m)),
            (a, b) if a.is_const() && a == b => {}
            _ => return None,
        }
    }
    Some(forced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_relation::{Ann, AnnTuple, Annotation, RelSym, Tuple, Value};

    fn at(vals: Vec<Value>, anns: Vec<Ann>) -> AnnTuple {
        AnnTuple::new(Tuple::new(vals), Annotation::new(anns))
    }

    /// The paper's CWA example: CSol = {(a,⊥1),(a,⊥2),(b,⊥3)} (all-closed),
    /// T = {(a,⊥10),(b,⊥11)} is a homomorphic image via ⊥1,⊥2↦⊥10, ⊥3↦⊥11.
    #[test]
    fn onto_hom_merges_nulls() {
        let r = RelSym::new("HomR");
        let cl2 = vec![Ann::Closed, Ann::Closed];
        let mut csol = AnnInstance::new();
        csol.insert(r, at(vec![Value::c("a"), Value::null(1)], cl2.clone()));
        csol.insert(r, at(vec![Value::c("a"), Value::null(2)], cl2.clone()));
        csol.insert(r, at(vec![Value::c("b"), Value::null(3)], cl2.clone()));
        let mut t = AnnInstance::new();
        t.insert(r, at(vec![Value::c("a"), Value::null(10)], cl2.clone()));
        t.insert(r, at(vec![Value::c("b"), Value::null(11)], cl2.clone()));
        let h = find_onto_hom(&csol, &t).expect("hom exists");
        assert_eq!(h[&NullId(1)], NullId(10));
        assert_eq!(h[&NullId(2)], NullId(10));
        assert_eq!(h[&NullId(3)], NullId(11));
        assert_eq!(apply_null_map(&csol, &h), t);
    }

    #[test]
    fn onto_hom_requires_full_coverage() {
        let r = RelSym::new("HomR2");
        let cl2 = vec![Ann::Closed, Ann::Closed];
        let mut csol = AnnInstance::new();
        csol.insert(r, at(vec![Value::c("a"), Value::null(1)], cl2.clone()));
        // T has an extra tuple that is not an image of anything.
        let mut t = AnnInstance::new();
        t.insert(r, at(vec![Value::c("a"), Value::null(10)], cl2.clone()));
        t.insert(r, at(vec![Value::c("zzz"), Value::null(11)], cl2.clone()));
        assert!(find_onto_hom(&csol, &t).is_none());
    }

    #[test]
    fn onto_hom_respects_annotations() {
        let r = RelSym::new("HomR3");
        let mut csol = AnnInstance::new();
        csol.insert(r, at(vec![Value::null(1)], vec![Ann::Open]));
        let mut t = AnnInstance::new();
        t.insert(r, at(vec![Value::null(10)], vec![Ann::Closed]));
        assert!(find_onto_hom(&csol, &t).is_none(), "annotation must match");
    }

    #[test]
    fn onto_hom_cannot_map_null_to_const() {
        let r = RelSym::new("HomR4");
        let cl = vec![Ann::Closed];
        let mut csol = AnnInstance::new();
        csol.insert(r, at(vec![Value::null(1)], cl.clone()));
        let mut t = AnnInstance::new();
        t.insert(r, at(vec![Value::c("a")], cl.clone()));
        assert!(find_onto_hom(&csol, &t).is_none());
    }

    /// Expansion matching: (a^cl, ⊥1^op) in csol licenses any image tuple
    /// agreeing on position 0.
    #[test]
    fn hom_into_expansion_open_positions_free() {
        let r = RelSym::new("ExpR");
        let mut csol = AnnInstance::new();
        csol.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(1)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        let mut t = AnnInstance::new();
        // Two tuples with different nulls at the open position: fine.
        t.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(10)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        t.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(11)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        assert!(find_hom_into_expansion(&t, &csol).is_some());
        // A tuple with a different closed value: no expansion allows it.
        let mut bad = AnnInstance::new();
        bad.insert(
            r,
            at(
                vec![Value::c("b"), Value::null(12)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        assert!(find_hom_into_expansion(&bad, &csol).is_none());
    }

    /// Closed positions force null identification consistency.
    #[test]
    fn hom_into_expansion_closed_consistency() {
        let r = RelSym::new("ExpR2");
        let cl2 = vec![Ann::Closed, Ann::Closed];
        let mut csol = AnnInstance::new();
        csol.insert(r, at(vec![Value::null(1), Value::null(1)], cl2.clone()));
        // (⊥10, ⊥11) must map both nulls to ⊥1 — fine (they merge).
        let mut t = AnnInstance::new();
        t.insert(r, at(vec![Value::null(10), Value::null(11)], cl2.clone()));
        assert!(find_hom_into_expansion(&t, &csol).is_some());
        // But if t insists ⊥10 maps to two different images, fail:
        let mut csol2 = AnnInstance::new();
        csol2.insert(r, at(vec![Value::null(1), Value::null(2)], cl2.clone()));
        csol2.insert(r, at(vec![Value::null(3), Value::null(4)], cl2.clone()));
        let mut t2 = AnnInstance::new();
        // (⊥10,⊥10) needs an image (m,m) with both positions equal — none.
        t2.insert(r, at(vec![Value::null(10), Value::null(10)], cl2));
        assert!(find_hom_into_expansion(&t2, &csol2).is_none());
    }

    #[test]
    fn empty_marks_must_carry_over() {
        let r = RelSym::new("ExpR3");
        let mut csol = AnnInstance::new();
        csol.insert_empty_mark(r, Annotation::all_open(1));
        let mut t = AnnInstance::new();
        t.insert_empty_mark(r, Annotation::all_open(1));
        assert!(find_hom_into_expansion(&t, &csol).is_some());
        let mut t2 = AnnInstance::new();
        t2.insert_empty_mark(r, Annotation::all_closed(1));
        assert!(find_hom_into_expansion(&t2, &csol).is_none());
        assert!(find_onto_hom(&csol, &t).is_some());
        assert!(find_onto_hom(&csol, &t2).is_none());
    }
}
