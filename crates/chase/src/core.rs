//! Cores of instances with nulls, and minimal `Σα`-solutions.
//!
//! Fagin, Kolaitis and Popa ("Data exchange: getting to the core", cited as
//! \[12\] by the paper) argue that among all universal solutions the **core**
//! — the smallest instance homomorphically equivalent to the canonical
//! solution — is the preferred instance to materialize. This module supplies
//! that machinery in both homomorphism regimes that coexist in the paper:
//!
//! * the **classic FKP regime** — homomorphisms map nulls to constants *or*
//!   nulls (constants are fixed). [`core_of`] computes the FKP core of a
//!   plain [`Instance`]; this is the notion used by \[12\] for un-annotated
//!   data exchange.
//! * the **annotated regime of §3** — homomorphisms map nulls to nulls only
//!   and preserve annotations. [`ann_core_of`] computes the least fixpoint
//!   of tuple-dropping endomorphisms on an [`AnnInstance`]. Applied to
//!   `CSol_A(S)` it yields a *minimal `Σα`-presolution*: the result is a
//!   homomorphic image of `CSol_A(S)` (so a presolution) and is contained in
//!   `CSol_A(S)` as a set of annotated tuples (so the identity null map is a
//!   homomorphism back into `CSol_A(S)` itself — by Proposition 1 it is a
//!   full `Σα`-solution).
//!
//! Both computations follow the standard retract-iteration algorithm: while
//! some endomorphism `h : C → C` has an image smaller than `C`, replace `C`
//! by `h(C)`. Each step strictly shrinks the tuple count, so the loop
//! terminates; the result is unique up to isomorphism (the core of a finite
//! structure is unique). The search for `h` is NP in general — the one
//! search for maps on nulls, [`dx_relation::find_map`], is exact and
//! intended for the canonical-solution-sized instances of this crate's
//! tests and benches.

use crate::hom::{apply_null_map, empty_marks_included, hom_items, NullMap};
use dx_relation::{find_map, AnnInstance, Instance, NullId, RelSym, Tuple, Value};
use std::collections::BTreeMap;

/// A homomorphism in the classic FKP regime: nulls may map to constants or
/// nulls; constants are fixed; identity outside the domain.
pub type ValueMap = BTreeMap<NullId, Value>;

/// Apply a [`ValueMap`] to a tuple (identity outside the domain).
pub fn apply_value_map_tuple(t: &Tuple, h: &ValueMap) -> Tuple {
    Tuple::new(
        t.iter()
            .map(|v| match v {
                Value::Null(n) => h.get(&n).copied().unwrap_or(v),
                c => c,
            })
            .collect::<Vec<_>>(),
    )
}

/// Apply a [`ValueMap`] to a plain instance (tuples may merge).
pub fn apply_value_map(inst: &Instance, h: &ValueMap) -> Instance {
    let mut out = Instance::new();
    for (r, rel) in inst.relations() {
        out.declare(r, rel.arity());
        for t in rel.iter() {
            out.insert(r, apply_value_map_tuple(t, h));
        }
    }
    out
}

/// Search for a classic homomorphism `h : from → to` — a [`ValueMap`] on the
/// nulls of `from` such that the image of every `from`-tuple is a tuple of
/// `to` (constants fixed, nulls free to hit constants or nulls of `to`).
///
/// This is the FKP notion of homomorphism between instances with nulls; it
/// is *not* required to be onto.
pub fn find_value_hom(from: &Instance, to: &Instance) -> Option<ValueMap> {
    let items = from
        .relations()
        .flat_map(|(r, rel)| {
            rel.iter().map(move |t| {
                to.tuples(r)
                    .filter(|cand| value_compatible(t, cand))
                    .map(|cand| {
                        t.iter()
                            .zip(cand.iter())
                            .filter_map(|(a, b)| Some((a.as_null()?, b)))
                            .collect()
                    })
                    .collect()
            })
        })
        .collect();
    find_map(items, |_| true)
}

/// Constants must agree; nulls can go anywhere (consistency checked during
/// search).
fn value_compatible(from: &Tuple, cand: &Tuple) -> bool {
    from.iter().zip(cand.iter()).all(|(a, b)| match a {
        Value::Const(_) => a == b,
        Value::Null(_) => true,
    })
}

/// Are two plain instances homomorphically equivalent in the FKP regime
/// (homomorphisms both ways)?
pub fn hom_equivalent(a: &Instance, b: &Instance) -> bool {
    find_value_hom(a, b).is_some() && find_value_hom(b, a).is_some()
}

/// The result of a core computation: the core itself plus the retraction
/// from the original instance onto it (the composition of all shrinking
/// endomorphisms found along the way).
#[derive(Debug, Clone)]
pub struct CoreResult {
    /// The core instance (unique up to isomorphism).
    pub core: Instance,
    /// A homomorphism from the original instance onto `core`.
    pub retraction: ValueMap,
    /// How many shrinking endomorphism steps were taken.
    pub steps: usize,
}

/// Compute the FKP **core** of an instance with nulls: the smallest
/// subinstance `C` such that there is a homomorphism `inst → C` (and hence
/// `C` is homomorphically equivalent to `inst`).
///
/// Algorithm: repeatedly look for a tuple `t` whose removal still leaves a
/// homomorphism `C → C∖{t}`; replace `C` by the image. Exponential-time in
/// the worst case (core identification is coNP-hard in general) but exact.
pub fn core_of(inst: &Instance) -> CoreResult {
    let mut current = inst.clone();
    let mut retraction: ValueMap = ValueMap::new();
    let mut steps = 0usize;
    'outer: loop {
        // Only tuples containing nulls can be dropped: ground tuples are
        // fixed by every homomorphism (constants are rigid).
        let candidates: Vec<(RelSym, Tuple)> = current
            .relations()
            .flat_map(|(r, rel)| {
                rel.iter()
                    .filter(|t| t.iter().any(|v| v.is_null()))
                    .map(move |t| (r, t.clone()))
            })
            .collect();
        for (r, t) in candidates {
            let mut smaller = Instance::new();
            for (r2, rel) in current.relations() {
                smaller.declare(r2, rel.arity());
                for t2 in rel.iter() {
                    if !(r2 == r && *t2 == t) {
                        smaller.insert(r2, t2.clone());
                    }
                }
            }
            if let Some(h) = find_value_hom(&current, &smaller) {
                current = apply_value_map(&current, &h);
                retraction = compose_value_maps(&retraction, &h, inst.nulls());
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    CoreResult {
        core: current,
        retraction,
        steps,
    }
}

/// `second ∘ first`, restricted to the given null domain; nulls untouched by
/// both maps are left out (identity).
fn compose_value_maps(
    first: &ValueMap,
    second: &ValueMap,
    domain: impl IntoIterator<Item = NullId>,
) -> ValueMap {
    let mut out = ValueMap::new();
    for n in domain {
        let mid = first.get(&n).copied().unwrap_or(Value::Null(n));
        let fin = match mid {
            Value::Null(m) => second.get(&m).copied().unwrap_or(mid),
            c => c,
        };
        if fin != Value::Null(n) {
            out.insert(n, fin);
        }
    }
    out
}

/// Search for a *plain* annotated homomorphism `h : from → to` in the §3
/// regime: `h` maps nulls to nulls, constants are fixed, and for every
/// annotated tuple `(t, α)` of `from` the tuple `(h(t), α)` is in `to`
/// (same annotation). Not required to be onto. Empty markers of `from`
/// must also occur in `to` (they are untouched by null maps).
pub fn find_ann_hom(from: &AnnInstance, to: &AnnInstance) -> Option<NullMap> {
    if !empty_marks_included(from, to) {
        return None;
    }
    find_map(hom_items(from, to), |_| true)
}

/// Are two annotated instances homomorphically equivalent in the §3 regime
/// (annotation-preserving `Null → Null` homomorphisms both ways)?
pub fn ann_hom_equivalent(a: &AnnInstance, b: &AnnInstance) -> bool {
    find_ann_hom(a, b).is_some() && find_ann_hom(b, a).is_some()
}

/// The result of an annotated core computation.
#[derive(Debug, Clone)]
pub struct AnnCoreResult {
    /// The annotated core (a subinstance of the input).
    pub core: AnnInstance,
    /// A `Null → Null` homomorphism from the original instance onto `core`.
    pub retraction: NullMap,
    /// How many shrinking endomorphism steps were taken.
    pub steps: usize,
}

/// Compute the core of an annotated instance under the paper's `Null → Null`
/// annotation-preserving homomorphisms.
///
/// Applied to `CSol_A(S)` this produces a **minimal `Σα`-solution**: the
/// retraction makes it a homomorphic image of `CSol_A(S)` (a presolution),
/// and since the result is a set of tuples of `CSol_A(S)` itself, the
/// identity map is a homomorphism into `CSol_A(S)` — by Proposition 1 the
/// result is a `Σα`-solution. It is minimal because no smaller homomorphic
/// image exists (the core is the least retract).
pub fn ann_core_of(inst: &AnnInstance) -> AnnCoreResult {
    let mut current = inst.clone();
    let mut retraction = NullMap::new();
    let mut steps = 0usize;
    'outer: loop {
        let candidates: Vec<(RelSym, dx_relation::AnnTuple)> = current
            .relations()
            .flat_map(|(r, rel)| {
                rel.iter()
                    .filter(|at| at.tuple.iter().any(|v| v.is_null()))
                    .map(move |at| (r, at.clone()))
            })
            .collect();
        for (r, at) in candidates {
            let mut smaller = AnnInstance::new();
            for (r2, rel) in current.relations() {
                for at2 in rel.iter() {
                    if !(r2 == r && *at2 == at) {
                        smaller.insert(r2, at2.clone());
                    }
                }
                for m in rel.empty_marks() {
                    smaller.insert_empty_mark(r2, m.clone());
                }
            }
            if let Some(h) = find_ann_hom(&current, &smaller) {
                current = apply_null_map(&current, &h);
                retraction = compose_null_maps(&retraction, &h, inst.nulls());
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    AnnCoreResult {
        core: current,
        retraction,
        steps,
    }
}

/// Are two annotated instances **isomorphic**: equal up to a bijective
/// renaming of nulls (constants fixed, annotations preserved)? Returns the
/// witnessing renaming. The core of a finite instance is unique up to
/// exactly this relation.
pub fn ann_isomorphic(a: &AnnInstance, b: &AnnInstance) -> Option<NullMap> {
    if a.tuple_count() != b.tuple_count() || a.nulls().len() != b.nulls().len() {
        return None;
    }
    /// A null of `a` (mapped forwards) or of `b` (mapped backwards).
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Side {
        A(NullId),
        B(NullId),
    }
    // Each null pair binds both ways, so the map is injective by binding
    // consistency alone.
    let items = hom_items(a, b)
        .into_iter()
        .map(|candidates| {
            candidates
                .into_iter()
                .map(|c| {
                    c.into_iter()
                        .flat_map(|(n, m)| [(Side::A(n), m), (Side::B(m), n)])
                        .collect()
                })
                .collect()
        })
        .collect();
    let h: NullMap = find_map(items, |_| true)?
        .into_iter()
        .filter_map(|(k, m)| match k {
            Side::A(n) => Some((n, m)),
            Side::B(_) => None,
        })
        .collect();
    // An injective homomorphism maps the tuples of `a` one to one into the
    // equally many tuples of `b`, hence onto them, so every such map gives
    // the same verdict here: only empty markers and declared relations are
    // left to compare.
    (apply_null_map(a, &h) == *b).then_some(h)
}

/// `second ∘ first` on null maps, restricted to the given domain.
fn compose_null_maps(
    first: &NullMap,
    second: &NullMap,
    domain: impl IntoIterator<Item = NullId>,
) -> NullMap {
    let mut out = NullMap::new();
    for n in domain {
        let mid = first.get(&n).copied().unwrap_or(n);
        let fin = second.get(&mid).copied().unwrap_or(mid);
        if fin != n {
            out.insert(n, fin);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonical_solution;
    use crate::mapping::Mapping;
    use dx_relation::{Ann, AnnTuple, Annotation, RelSym};

    fn at(vals: Vec<Value>, anns: Vec<Ann>) -> AnnTuple {
        AnnTuple::new(Tuple::new(vals), Annotation::new(anns))
    }

    /// The paper's §2 example: CSol R = {(a,⊥1),(a,⊥2),(b,⊥3)}. The core
    /// merges ⊥1 and ⊥2 (justified by the two E-tuples with first column a)
    /// but cannot merge across a and b.
    #[test]
    fn core_of_paper_csol() {
        let r = RelSym::new("CoreR");
        let mut inst = Instance::new();
        inst.insert(r, Tuple::new(vec![Value::c("a"), Value::null(1)]));
        inst.insert(r, Tuple::new(vec![Value::c("a"), Value::null(2)]));
        inst.insert(r, Tuple::new(vec![Value::c("b"), Value::null(3)]));
        let res = core_of(&inst);
        assert_eq!(res.core.tuple_count(), 2);
        assert!(hom_equivalent(&inst, &res.core));
        // The retraction really maps the original onto the core.
        assert_eq!(apply_value_map(&inst, &res.retraction), res.core);
    }

    /// Ground instances are rigid: the core is the instance itself.
    #[test]
    fn ground_instance_is_its_own_core() {
        let mut inst = Instance::new();
        inst.insert_names("CoreE", &["a", "b"]);
        inst.insert_names("CoreE", &["b", "c"]);
        let res = core_of(&inst);
        assert_eq!(res.core, inst);
        assert_eq!(res.steps, 0);
    }

    /// FKP-style collapse of a null onto a constant: F = {(a,b), (a,⊥)} has
    /// core {(a,b)} because ⊥ ↦ b is a homomorphism. The Null→Null regime
    /// cannot do this — the annotated core keeps both tuples.
    #[test]
    fn value_core_vs_null_core() {
        let f = RelSym::new("CoreF");
        let mut inst = Instance::new();
        inst.insert(f, Tuple::from_names(&["a", "b"]));
        inst.insert(f, Tuple::new(vec![Value::c("a"), Value::null(7)]));
        let res = core_of(&inst);
        assert_eq!(res.core.tuple_count(), 1);
        assert_eq!(res.retraction.get(&NullId(7)), Some(&Value::c("b")));

        let cl2 = vec![Ann::Closed, Ann::Closed];
        let mut ann = AnnInstance::new();
        ann.insert(f, at(vec![Value::c("a"), Value::c("b")], cl2.clone()));
        ann.insert(f, at(vec![Value::c("a"), Value::null(7)], cl2));
        let ares = ann_core_of(&ann);
        assert_eq!(
            ares.core.tuple_count(),
            2,
            "null→null core keeps the null tuple"
        );
        assert_eq!(ares.steps, 0);
    }

    /// Cores are idempotent: core(core(T)) = core(T).
    #[test]
    fn core_idempotent() {
        let r = RelSym::new("CoreIdem");
        let mut inst = Instance::new();
        for i in 0..4 {
            inst.insert(r, Tuple::new(vec![Value::c("a"), Value::null(i)]));
        }
        let res = core_of(&inst);
        assert_eq!(res.core.tuple_count(), 1);
        let res2 = core_of(&res.core);
        assert_eq!(res2.core, res.core);
        assert_eq!(res2.steps, 0);
    }

    /// A path of invented nulls cannot collapse onto a single copied edge
    /// unless the constants line up: {(a,b), (a,⊥), (⊥,b)} keeps all three
    /// tuples (⊥ would need (x,x)-style support).
    #[test]
    fn chain_does_not_collapse_without_support() {
        let e = RelSym::new("CoreChain");
        let mut inst = Instance::new();
        inst.insert(e, Tuple::from_names(&["a", "b"]));
        inst.insert(e, Tuple::new(vec![Value::c("a"), Value::null(1)]));
        inst.insert(e, Tuple::new(vec![Value::null(1), Value::c("b")]));
        let res = core_of(&inst);
        assert_eq!(res.core.tuple_count(), 3);
    }

    /// ... but with a loop (c,c) present, the whole chain retracts onto it.
    #[test]
    fn chain_collapses_onto_loop() {
        let e = RelSym::new("CoreLoop");
        let mut inst = Instance::new();
        inst.insert(e, Tuple::from_names(&["c", "c"]));
        inst.insert(e, Tuple::new(vec![Value::null(1), Value::null(2)]));
        inst.insert(e, Tuple::new(vec![Value::null(2), Value::null(3)]));
        let res = core_of(&inst);
        assert_eq!(res.core.tuple_count(), 1);
    }

    /// Annotated core of the canonical solution is a minimal Σα-solution:
    /// hom image of CSol_A + (identity) hom back, and no further shrink.
    #[test]
    fn ann_core_of_csol_is_minimal_solution() {
        let m = Mapping::parse("CoreTgt(x:cl, z:cl) <- CoreSrc(x, y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("CoreSrc", &["a", "c1"]);
        s.insert_names("CoreSrc", &["a", "c2"]);
        s.insert_names("CoreSrc", &["b", "c3"]);
        let csol = canonical_solution(&m, &s);
        let res = ann_core_of(&csol.instance);
        assert_eq!(res.core.tuple_count(), 2);
        // Hom image of CSol_A: the retraction maps CSol_A onto the core.
        assert_eq!(apply_null_map(&csol.instance, &res.retraction), res.core);
        // Hom back into CSol_A (identity suffices — the core is a
        // subinstance), so by Proposition 1 it is a Σα-solution.
        assert!(find_ann_hom(&res.core, &csol.instance).is_some());
        // It is in fact a solution according to the solution theory.
        assert!(crate::solutions::is_solution(&m, &s, &res.core).is_some());
    }

    /// Annotations block merges the relational part would allow: two tuples
    /// equal up to annotation do not merge across different annotations.
    #[test]
    fn ann_core_respects_annotations() {
        let r = RelSym::new("CoreAnnR");
        let mut ann = AnnInstance::new();
        ann.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(1)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        ann.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(2)],
                vec![Ann::Closed, Ann::Closed],
            ),
        );
        let res = ann_core_of(&ann);
        assert_eq!(
            res.core.tuple_count(),
            2,
            "different annotations cannot merge"
        );
        // With equal annotations they do merge.
        let mut ann2 = AnnInstance::new();
        ann2.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(1)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        ann2.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(2)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        let res2 = ann_core_of(&ann2);
        assert_eq!(res2.core.tuple_count(), 1);
    }

    /// Empty markers survive the core computation untouched.
    #[test]
    fn ann_core_keeps_empty_marks() {
        let r = RelSym::new("CoreMarkR");
        let mut ann = AnnInstance::new();
        ann.insert_empty_mark(r, Annotation::all_open(2));
        ann.insert(
            r,
            at(
                vec![Value::null(1), Value::null(2)],
                vec![Ann::Closed, Ann::Closed],
            ),
        );
        ann.insert(
            r,
            at(
                vec![Value::null(3), Value::null(4)],
                vec![Ann::Closed, Ann::Closed],
            ),
        );
        let res = ann_core_of(&ann);
        assert_eq!(res.core.tuple_count(), 1);
        let marks: Vec<_> = res
            .core
            .relation(r)
            .unwrap()
            .empty_marks()
            .cloned()
            .collect();
        assert_eq!(marks, vec![Annotation::all_open(2)]);
    }

    /// Isomorphism: detects renamings, rejects structure changes.
    #[test]
    fn ann_iso_basics() {
        let r = RelSym::new("IsoR");
        let cl2 = vec![Ann::Closed, Ann::Closed];
        let mut a = AnnInstance::new();
        a.insert(r, at(vec![Value::c("a"), Value::null(1)], cl2.clone()));
        a.insert(r, at(vec![Value::null(1), Value::null(2)], cl2.clone()));
        // Same shape, different null names.
        let mut b = AnnInstance::new();
        b.insert(r, at(vec![Value::c("a"), Value::null(7)], cl2.clone()));
        b.insert(r, at(vec![Value::null(7), Value::null(9)], cl2.clone()));
        let h = ann_isomorphic(&a, &b).expect("isomorphic");
        assert_eq!(h[&NullId(1)], NullId(7));
        assert_eq!(h[&NullId(2)], NullId(9));
        // Different sharing structure: not isomorphic.
        let mut c = AnnInstance::new();
        c.insert(r, at(vec![Value::c("a"), Value::null(7)], cl2.clone()));
        c.insert(r, at(vec![Value::null(8), Value::null(9)], cl2.clone()));
        assert!(ann_isomorphic(&a, &c).is_none());
        // Different annotations: not isomorphic.
        let mut d = AnnInstance::new();
        d.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(7)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        d.insert(r, at(vec![Value::null(7), Value::null(9)], cl2));
        assert!(ann_isomorphic(&a, &d).is_none());
    }

    /// The core is unique up to isomorphism: two different shrink orders
    /// (forced by seeding from differently-permuted inputs) give isomorphic
    /// results.
    #[test]
    fn core_unique_up_to_iso() {
        let r = RelSym::new("IsoCore");
        let cl2 = vec![Ann::Closed, Ann::Closed];
        // Three a-tuples with independent nulls plus one b-tuple.
        let build = |ids: [u32; 4]| {
            let mut inst = AnnInstance::new();
            for &i in &ids[..3] {
                inst.insert(r, at(vec![Value::c("a"), Value::null(i)], cl2.clone()));
            }
            inst.insert(r, at(vec![Value::c("b"), Value::null(ids[3])], cl2.clone()));
            inst
        };
        let core1 = ann_core_of(&build([1, 2, 3, 4])).core;
        let core2 = ann_core_of(&build([14, 13, 12, 11])).core;
        assert_eq!(core1.tuple_count(), 2);
        assert!(ann_isomorphic(&core1, &core2).is_some());
    }

    /// find_value_hom fails when constants clash, succeeds when a renaming
    /// of nulls exists.
    #[test]
    fn value_hom_basics() {
        let r = RelSym::new("CoreHomB");
        let mut a = Instance::new();
        a.insert(r, Tuple::new(vec![Value::null(1), Value::null(1)]));
        let mut b = Instance::new();
        b.insert(r, Tuple::new(vec![Value::c("x"), Value::c("y")]));
        // ⊥1 must map to both x and y — impossible.
        assert!(find_value_hom(&a, &b).is_none());
        b.insert(r, Tuple::new(vec![Value::c("z"), Value::c("z")]));
        // Now (z,z) supports it.
        let h = find_value_hom(&a, &b).unwrap();
        assert_eq!(h.get(&NullId(1)), Some(&Value::c("z")));
    }
}
