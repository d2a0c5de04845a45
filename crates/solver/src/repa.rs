//! `Rep_A` membership: deciding `R ∈ Rep_A(T)` by valuation search.
//!
//! Following §3 of the paper: a ground instance `R` is in `Rep_A(T)` iff for
//! some valuation `v` (total on the nulls of `T`),
//!
//! 1. `R` contains all non-empty tuples of `v(T)`, and
//! 2. every tuple of `R` coincides with some `v(tᵢ)` on all positions the
//!    annotation `αᵢ` marks closed (or is licensed by an all-open empty
//!    marker).
//!
//! This is the NP witness of Theorem 2; the search below is a backtracking
//! CSP over the nulls of `T`, with per-tuple candidate lists (each `T`-tuple
//! must land on *some* `R`-tuple) and the coverage condition (2) checked at
//! each leaf.

use dx_relation::index::{const_pattern_of, InstanceIndex};
use dx_relation::{AnnInstance, Instance, NullId, Tuple, Valuation, Value};

/// How candidate `R`-tuples are discovered during the `Rep_A` valuation
/// search (and the embedding search of Lemma 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MatchStrategy {
    /// Scan every `R`-tuple of the relation per `T`-tuple (the reference
    /// behaviour, kept as the ablation baseline).
    Scan,
    /// Probe a per-column hash index ([`dx_relation::InstanceIndex`]) on the
    /// constant positions of the `T`-tuple, post-filtering for repeated
    /// nulls.
    #[default]
    Indexed,
}

/// Decide `R ∈ Rep_A(T)`; returns a witnessing valuation if one exists.
///
/// `R` must be ground. Runs in exponential time in the number of nulls in
/// the worst case (the problem is NP-complete as soon as closed annotations
/// are present — Theorem 2), **except** for all-closed Codd tables, which
/// take the PTIME Hopcroft–Karp route of [`codd_rep_membership`] (the §3
/// complexity remark: canonical solutions are Codd whenever no rule head
/// shares an existential variable across atoms).
pub fn rep_a_membership(t: &AnnInstance, r: &Instance) -> Option<Valuation> {
    if t.is_all_closed() {
        let ground_part = t.rel_part();
        if is_codd(&ground_part) {
            // All-closed empty markers neither license nor require tuples;
            // the decision is exactly classical Rep membership.
            return codd_rep_membership(&ground_part, r);
        }
    }
    rep_a_membership_via(MatchStrategy::Indexed, t, r)
}

/// The generic `Rep_A` backtracking search with an explicit candidate
/// [`MatchStrategy`] (`Scan` is the reference baseline the indexed
/// discovery is raced against).
pub fn rep_a_membership_via(
    strategy: MatchStrategy,
    t: &AnnInstance,
    r: &Instance,
) -> Option<Valuation> {
    assert!(r.is_ground(), "Rep_A members are instances over Const");

    // Fast failure: relations where R has tuples but T is entirely absent
    // can never be covered.
    for (rel, rrel) in r.relations() {
        if !rrel.is_empty() && t.relation(rel).is_none() {
            return None;
        }
    }

    let index = match strategy {
        MatchStrategy::Indexed => Some(InstanceIndex::build(r)),
        MatchStrategy::Scan => None,
    };

    // Build the matching tasks: every non-empty annotated tuple of T must be
    // mapped (via the valuation) onto an R-tuple.
    struct Task {
        tuple: Tuple,
        candidates: Vec<Tuple>,
    }
    let mut tasks: Vec<Task> = Vec::new();
    for (rel, trel) in t.relations() {
        for at in trel.iter() {
            let candidates: Vec<Tuple> = match &index {
                Some(idx) => idx
                    .relation(rel)
                    .map(|ri| {
                        ri.matching(&const_pattern_of(&at.tuple))
                            .into_iter()
                            .map(|id| ri.get(id))
                            .filter(|cand| positionally_compatible(&at.tuple, cand))
                            .cloned()
                            .collect()
                    })
                    .unwrap_or_default(),
                None => r
                    .tuples(rel)
                    .filter(|cand| positionally_compatible(&at.tuple, cand))
                    .cloned()
                    .collect(),
            };
            if candidates.is_empty() {
                return None;
            }
            tasks.push(Task {
                tuple: at.tuple.clone(),
                candidates,
            });
        }
    }
    // Most-constrained-first ordering keeps the search shallow.
    tasks.sort_by_key(|t| t.candidates.len());

    let all_nulls: Vec<NullId> = t.nulls().into_iter().collect();

    fn search(
        tasks: &[(Tuple, Vec<Tuple>)],
        i: usize,
        v: &mut Valuation,
        t: &AnnInstance,
        r: &Instance,
        all_nulls: &[NullId],
    ) -> bool {
        if i == tasks.len() {
            // All T-tuples placed. Any null not occurring in a tuple is
            // irrelevant; give it an arbitrary image so the valuation is
            // total (choose the first candidate constant or a base value).
            let mut extra: Vec<NullId> = Vec::new();
            for &n in all_nulls {
                if !v.is_defined(n) {
                    // Any constant works; nulls outside tuples do not affect
                    // either condition. Use a deterministic dummy.
                    v.set(n, dx_relation::ConstId::new("⋆unused"));
                    extra.push(n);
                }
            }
            let ok = t.apply(v).covers_instance(r);
            if !ok {
                for n in extra {
                    v.unset(n);
                }
            }
            return ok;
        }
        let (tuple, candidates) = &tasks[i];
        'cands: for cand in candidates {
            let mut bound: Vec<NullId> = Vec::new();
            for (tv, cv) in tuple.iter().zip(cand.iter()) {
                match tv {
                    Value::Const(_) => {} // compatibility pre-checked
                    Value::Null(n) => {
                        let c = cv.as_const().expect("R is ground");
                        match v.get(n) {
                            Some(existing) if existing != c => {
                                for n in bound.drain(..) {
                                    v.unset(n);
                                }
                                continue 'cands;
                            }
                            Some(_) => {}
                            None => {
                                v.set(n, c);
                                bound.push(n);
                            }
                        }
                    }
                }
            }
            if search(tasks, i + 1, v, t, r, all_nulls) {
                return true;
            }
            for n in bound {
                v.unset(n);
            }
        }
        false
    }

    let task_pairs: Vec<(Tuple, Vec<Tuple>)> =
        tasks.into_iter().map(|t| (t.tuple, t.candidates)).collect();
    let mut v = Valuation::new();
    search(&task_pairs, 0, &mut v, t, r, &all_nulls).then_some(v)
}

/// Positional compatibility of a T-tuple with an R-tuple: constants must
/// agree; repeated nulls must see equal R-values.
fn positionally_compatible(t: &Tuple, cand: &Tuple) -> bool {
    if t.arity() != cand.arity() {
        return false;
    }
    let mut local: Vec<(NullId, Value)> = Vec::new();
    for (tv, cv) in t.iter().zip(cand.iter()) {
        match tv {
            Value::Const(_) => {
                if tv != cv {
                    return false;
                }
            }
            Value::Null(n) => {
                if let Some((_, prev)) = local.iter().find(|(m, _)| *m == n) {
                    if *prev != cv {
                        return false;
                    }
                } else {
                    local.push((n, cv));
                }
            }
        }
    }
    true
}

/// Find a valuation `v` with `v(T) ⊆ R` (an *embedding* of the naive table
/// `T` into the ground instance `R`). This is the first condition of
/// `Rep_A` membership alone — the workhorse of the Lemma 3 composition
/// fast path, where the open-world target only has to *contain* the
/// valuation image.
///
/// Unlike the leaf-checked valuation enumeration, this is a per-tuple
/// candidate CSP: nulls are constrained by the `R`-tuples each `T`-tuple
/// can land on, so inconsistent prefixes are pruned immediately.
pub fn find_embedding_valuation(t: &Instance, r: &Instance) -> Option<Valuation> {
    assert!(r.is_ground(), "embedding targets are instances over Const");
    let index = InstanceIndex::build(r);
    let mut tasks: Vec<(Tuple, Vec<Tuple>)> = Vec::new();
    for (rel, trel) in t.relations() {
        for tuple in trel.iter() {
            let candidates: Vec<Tuple> = index
                .relation(rel)
                .map(|ri| {
                    ri.matching(&const_pattern_of(tuple))
                        .into_iter()
                        .map(|id| ri.get(id))
                        .filter(|cand| positionally_compatible(tuple, cand))
                        .cloned()
                        .collect()
                })
                .unwrap_or_default();
            if candidates.is_empty() {
                return None;
            }
            tasks.push((tuple.clone(), candidates));
        }
    }
    tasks.sort_by_key(|(_, c)| c.len());

    fn search(tasks: &[(Tuple, Vec<Tuple>)], i: usize, v: &mut Valuation) -> bool {
        if i == tasks.len() {
            return true;
        }
        let (tuple, candidates) = &tasks[i];
        'cands: for cand in candidates {
            let mut bound: Vec<NullId> = Vec::new();
            for (tv, cv) in tuple.iter().zip(cand.iter()) {
                if let Value::Null(n) = tv {
                    let c = cv.as_const().expect("target is ground");
                    match v.get(n) {
                        Some(existing) if existing != c => {
                            for n in bound.drain(..) {
                                v.unset(n);
                            }
                            continue 'cands;
                        }
                        Some(_) => {}
                        None => {
                            v.set(n, c);
                            bound.push(n);
                        }
                    }
                }
            }
            if search(tasks, i + 1, v) {
                return true;
            }
            for n in bound {
                v.unset(n);
            }
        }
        false
    }

    let mut v = Valuation::new();
    search(&tasks, 0, &mut v).then_some(v)
}

/// Is the instance a **Codd table**: no null occurs more than once across
/// the whole instance (so every null is an independent "unknown")? The
/// paper (§3, after Corollary 1) cites the classical complexity gap: `Rep`
/// membership is PTIME for Codd tables, NP-complete for naive tables.
pub fn is_codd(t: &Instance) -> bool {
    let mut seen = std::collections::BTreeSet::new();
    t.relations().all(|(_, rel)| {
        rel.iter().all(|tuple| {
            tuple.iter().all(|v| match v {
                Value::Null(n) => seen.insert(n),
                Value::Const(_) => true,
            })
        })
    })
}

/// PTIME `Rep` membership for **Codd tables** via Hopcroft–Karp matching.
///
/// For a Codd table each `T`-tuple's image under a valuation is chosen
/// independently (its nulls appear nowhere else), so `R = v(T)` for some `v`
/// iff (a) every `T`-tuple is *compatible* with at least one `R`-tuple of
/// its relation (constants agree), and (b) a matching in the compatibility
/// graph saturates every `R`-tuple (giving each `R`-tuple a private
/// preimage; the remaining `T`-tuples pile onto any compatible image).
/// Returns a witnessing valuation. Panics if `t` is not Codd.
pub fn codd_rep_membership(t: &Instance, r: &Instance) -> Option<Valuation> {
    assert!(r.is_ground(), "Rep members are instances over Const");
    assert!(is_codd(t), "codd_rep_membership requires a Codd table");
    // Flatten both sides, tracking relations.
    let t_tuples: Vec<(dx_relation::RelSym, &Tuple)> = t
        .relations()
        .flat_map(|(rel, rl)| rl.iter().map(move |tu| (rel, tu)))
        .collect();
    let r_tuples: Vec<(dx_relation::RelSym, &Tuple)> = r
        .relations()
        .flat_map(|(rel, rl)| rl.iter().map(move |tu| (rel, tu)))
        .collect();
    // Compatibility lists (left = R-tuples, to saturate; right = T-tuples).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); r_tuples.len()];
    let mut t_candidates: Vec<Option<usize>> = vec![None; t_tuples.len()];
    for (ri, (rrel, rt)) in r_tuples.iter().enumerate() {
        for (ti, (trel, tt)) in t_tuples.iter().enumerate() {
            if rrel == trel && positionally_compatible(tt, rt) {
                adj[ri].push(ti);
                t_candidates[ti].get_or_insert(ri);
            }
        }
    }
    // (a) every T-tuple has an image.
    if t_candidates.iter().any(|c| c.is_none()) {
        return None;
    }
    // (b) a matching saturating R.
    let (size, match_r_side, _) =
        crate::matching::max_bipartite_matching(r_tuples.len(), t_tuples.len(), &adj);
    if size != r_tuples.len() {
        return None;
    }
    // Build the valuation: matched T-tuples take their matched R-image;
    // unmatched ones take their first compatible image.
    let mut image: Vec<usize> = t_candidates.iter().map(|c| c.expect("checked")).collect();
    for (ri, m) in match_r_side.iter().enumerate() {
        let ti = m.expect("saturated");
        image[ti] = ri;
    }
    let mut v = Valuation::new();
    for (ti, (_, tt)) in t_tuples.iter().enumerate() {
        let (_, rt) = r_tuples[image[ti]];
        for (tv, rv) in tt.iter().zip(rt.iter()) {
            if let Value::Null(n) = tv {
                v.set(n, rv.as_const().expect("R is ground"));
            }
        }
    }
    let vt = t.apply(&v);
    debug_assert!(vt.is_subinstance_of(r) && r.is_subinstance_of(&vt));
    Some(v)
}

/// Classical `Rep` membership for naive tables (no annotations): is
/// `R = v(T)` ... more precisely `R ∈ Rep(T)` where `Rep(T) = {v(T)}`?
///
/// Under the paper's definition `Rep(T) = {v(T) | v a valuation}` — i.e. `R`
/// must equal some valuation image *exactly*. This is the all-closed special
/// case of `Rep_A` (Lemma 1), implemented directly for clarity and tests.
/// Codd tables (no repeated nulls) automatically take the PTIME matching
/// route of [`codd_rep_membership`].
pub fn rep_membership(t: &Instance, r: &Instance) -> Option<Valuation> {
    assert!(r.is_ground(), "Rep members are instances over Const");
    if is_codd(t) {
        return codd_rep_membership(t, r);
    }
    // v(T) ⊆ R via the Rep_A machinery with all-closed annotations, then
    // check equality v(T) = R.
    let mut annotated = AnnInstance::new();
    for (rel, trel) in t.relations() {
        for tuple in trel.iter() {
            annotated.insert(
                rel,
                dx_relation::AnnTuple::new(
                    tuple.clone(),
                    dx_relation::Annotation::all_closed(tuple.arity()),
                ),
            );
        }
    }
    let v = rep_a_membership(&annotated, r)?;
    // Coverage under all-closed annotations already forces R ⊆ v(T); the
    // membership search forces v(T) ⊆ R. Equality holds; but relations R has
    // that T lacks entirely were rejected up front. Double-check in debug.
    debug_assert_eq!(t.apply(&v).union(r), t.apply(&v));
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_relation::{Ann, AnnTuple, Annotation, RelSym};

    fn at(vals: Vec<Value>, anns: Vec<Ann>) -> AnnTuple {
        AnnTuple::new(Tuple::new(vals), Annotation::new(anns))
    }

    /// Rep_A({(a^cl, ⊥^op)}) contains all relations whose projection on the
    /// first attribute is {a} (paper §3).
    #[test]
    fn open_null_allows_replication() {
        let rel = RelSym::new("RA1");
        let mut t = AnnInstance::new();
        t.insert(
            rel,
            at(
                vec![Value::c("a"), Value::null(0)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        let mut r = Instance::new();
        r.insert_names("RA1", &["a", "x"]);
        r.insert_names("RA1", &["a", "y"]);
        r.insert_names("RA1", &["a", "z"]);
        assert!(rep_a_membership(&t, &r).is_some());
        // But a tuple with first attribute b is not covered.
        r.insert_names("RA1", &["b", "x"]);
        assert!(rep_a_membership(&t, &r).is_none());
    }

    /// Rep_A({(a^cl, ⊥^cl)}) contains exactly the one-tuple relations
    /// {(a, b)} (paper §3).
    #[test]
    fn closed_null_forces_single_value() {
        let rel = RelSym::new("RA2");
        let mut t = AnnInstance::new();
        t.insert(
            rel,
            at(
                vec![Value::c("a"), Value::null(0)],
                vec![Ann::Closed, Ann::Closed],
            ),
        );
        let mut one = Instance::new();
        one.insert_names("RA2", &["a", "b"]);
        assert!(rep_a_membership(&t, &one).is_some());
        let mut two = Instance::new();
        two.insert_names("RA2", &["a", "b"]);
        two.insert_names("RA2", &["a", "c"]);
        assert!(rep_a_membership(&t, &two).is_none());
    }

    /// Repeated nulls must take equal values (naive-table semantics).
    #[test]
    fn shared_nulls_enforce_equality() {
        let rel = RelSym::new("RA3");
        let cl2 = vec![Ann::Closed, Ann::Closed];
        let mut t = AnnInstance::new();
        t.insert(rel, at(vec![Value::null(0), Value::null(0)], cl2.clone()));
        let mut good = Instance::new();
        good.insert_names("RA3", &["k", "k"]);
        assert!(rep_a_membership(&t, &good).is_some());
        let mut bad = Instance::new();
        bad.insert_names("RA3", &["k", "l"]);
        assert!(rep_a_membership(&t, &bad).is_none());
    }

    /// Cross-tuple null sharing.
    #[test]
    fn cross_tuple_null_consistency() {
        let rel = RelSym::new("RA4");
        let cl1 = vec![Ann::Closed];
        let mut t = AnnInstance::new();
        let r2 = RelSym::new("RA4b");
        t.insert(rel, at(vec![Value::null(0)], cl1.clone()));
        t.insert(r2, at(vec![Value::null(0)], cl1.clone()));
        let mut good = Instance::new();
        good.insert_names("RA4", &["k"]);
        good.insert_names("RA4b", &["k"]);
        assert!(rep_a_membership(&t, &good).is_some());
        let mut bad = Instance::new();
        bad.insert_names("RA4", &["k"]);
        bad.insert_names("RA4b", &["l"]);
        assert!(rep_a_membership(&t, &bad).is_none());
    }

    /// All-open empty markers license arbitrary tuples; others nothing.
    #[test]
    fn empty_marker_semantics() {
        let rel = RelSym::new("RA5");
        let mut t = AnnInstance::new();
        t.insert_empty_mark(rel, Annotation::all_open(2));
        let mut r = Instance::new();
        r.insert_names("RA5", &["p", "q"]);
        assert!(rep_a_membership(&t, &r).is_some());
        assert!(
            rep_a_membership(&t, &Instance::new()).is_some(),
            "the empty instance is in the semantics of an empty marker"
        );
        let mut t2 = AnnInstance::new();
        t2.insert_empty_mark(rel, Annotation::new(vec![Ann::Closed, Ann::Open]));
        assert!(rep_a_membership(&t2, &r).is_none());
        assert!(rep_a_membership(&t2, &Instance::new()).is_some());
    }

    /// The valuation returned is a real witness.
    #[test]
    fn witness_is_verifiable() {
        let rel = RelSym::new("RA6");
        let mut t = AnnInstance::new();
        t.insert(
            rel,
            at(
                vec![Value::null(0), Value::null(1)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        let mut r = Instance::new();
        r.insert_names("RA6", &["u", "v"]);
        r.insert_names("RA6", &["u", "w"]);
        let v = rep_a_membership(&t, &r).expect("member");
        let vt = t.apply(&v);
        assert!(vt.rel_part().is_subinstance_of(&r));
        assert!(vt.covers_instance(&r));
    }

    /// Codd detection: repeated nulls (within a tuple or across tuples)
    /// disqualify.
    #[test]
    fn codd_detection() {
        let rel = RelSym::new("CoddD");
        let mut codd = Instance::new();
        codd.insert(rel, Tuple::new(vec![Value::null(1), Value::null(2)]));
        codd.insert(rel, Tuple::new(vec![Value::c("a"), Value::null(3)]));
        assert!(is_codd(&codd));
        let mut naive = codd.clone();
        naive.insert(rel, Tuple::new(vec![Value::null(1), Value::c("b")]));
        assert!(!is_codd(&naive), "⊥1 repeats across tuples");
        let mut diag = Instance::new();
        diag.insert(rel, Tuple::new(vec![Value::null(9), Value::null(9)]));
        assert!(!is_codd(&diag), "⊥9 repeats within a tuple");
    }

    /// The matching-critical case: a greedy image assignment fails, an
    /// augmenting path succeeds.
    #[test]
    fn codd_membership_needs_augmenting_path() {
        let rel = RelSym::new("CoddM");
        let mut t = Instance::new();
        // t1 = (a, ⊥1) is compatible with both R-tuples; t2 = (a, x) only
        // with (a, x). Saturating both R-tuples forces t1 → (a, y).
        t.insert(rel, Tuple::new(vec![Value::c("a"), Value::null(1)]));
        t.insert(rel, Tuple::from_names(&["a", "x"]));
        let mut r = Instance::new();
        r.insert_names("CoddM", &["a", "x"]);
        r.insert_names("CoddM", &["a", "y"]);
        let v = codd_rep_membership(&t, &r).expect("member via augmenting path");
        assert_eq!(v.get(NullId(1)), Some(dx_relation::ConstId::new("y")));
    }

    /// Codd non-membership: more R-tuples than T-tuples can cover.
    #[test]
    fn codd_membership_counts() {
        let rel = RelSym::new("CoddC");
        let mut t = Instance::new();
        t.insert(rel, Tuple::new(vec![Value::null(1)]));
        let mut r = Instance::new();
        r.insert_names("CoddC", &["u"]);
        r.insert_names("CoddC", &["w"]);
        assert!(
            codd_rep_membership(&t, &r).is_none(),
            "one tuple cannot be two"
        );
        // And merging is fine the other way: two T-tuples, one R-tuple.
        let mut t2 = Instance::new();
        t2.insert(rel, Tuple::new(vec![Value::null(1)]));
        t2.insert(rel, Tuple::new(vec![Value::null(2)]));
        let mut r2 = Instance::new();
        r2.insert_names("CoddC", &["u"]);
        assert!(codd_rep_membership(&t2, &r2).is_some());
    }

    /// The PTIME path and the generic backtracking agree on randomized Codd
    /// tables (both directions of the decision).
    #[test]
    fn codd_agrees_with_generic_search() {
        let rel = RelSym::new("CoddA");
        let consts = ["a", "b", "c"];
        let mut seed = 0x5EEDu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..200 {
            let mut t = Instance::new();
            let mut null_id = 0u32;
            let n_t = (next() % 3 + 1) as usize;
            for _ in 0..n_t {
                let mut mk = |null_id: &mut u32| -> Value {
                    if next() % 2 == 0 {
                        Value::c(consts[(next() % 3) as usize])
                    } else {
                        *null_id += 1;
                        Value::null(*null_id)
                    }
                };
                let v1 = mk(&mut null_id);
                let v2 = mk(&mut null_id);
                t.insert(rel, Tuple::new(vec![v1, v2]));
            }
            assert!(is_codd(&t));
            let mut r = Instance::new();
            let n_r = (next() % 3 + 1) as usize;
            for _ in 0..n_r {
                r.insert_names(
                    "CoddA",
                    &[consts[(next() % 3) as usize], consts[(next() % 3) as usize]],
                );
            }
            // Generic route: all-closed Rep_A equality semantics.
            let mut annotated = AnnInstance::new();
            for (rl, trel) in t.relations() {
                for tuple in trel.iter() {
                    annotated.insert(
                        rl,
                        AnnTuple::new(tuple.clone(), Annotation::all_closed(tuple.arity())),
                    );
                }
            }
            let generic = rep_a_membership(&annotated, &r).is_some();
            let codd = codd_rep_membership(&t, &r).is_some();
            assert_eq!(generic, codd, "case {case}: t = {t}, r = {r}");
        }
    }

    /// The indexed candidate discovery is an optimization, not a semantics
    /// change: Scan and Indexed agree on randomized naive tables (both
    /// decisions and witness validity).
    #[test]
    fn indexed_and_scan_strategies_agree() {
        let rel = RelSym::new("IdxAgree");
        let consts = ["a", "b", "c"];
        let mut seed = 0xD1FFu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..300 {
            let mut t = AnnInstance::new();
            let n_t = (next() % 3 + 1) as usize;
            for ti in 0..n_t {
                let mk = |r: u64, nulls_from: u32| -> Value {
                    if r.is_multiple_of(2) {
                        Value::c(consts[(r / 2 % 3) as usize])
                    } else {
                        // Small null pool: repetitions across tuples likely.
                        Value::null(nulls_from + (r / 2 % 3) as u32)
                    }
                };
                let v1 = mk(next(), 0);
                let v2 = mk(next(), if ti % 2 == 0 { 0 } else { 2 });
                let ann = if next() % 2 == 0 {
                    Annotation::all_closed(2)
                } else {
                    Annotation::new(vec![Ann::Closed, Ann::Open])
                };
                t.insert(rel, AnnTuple::new(Tuple::new(vec![v1, v2]), ann));
            }
            let mut r = Instance::new();
            for _ in 0..(next() % 4 + 1) {
                r.insert_names(
                    "IdxAgree",
                    &[consts[(next() % 3) as usize], consts[(next() % 3) as usize]],
                );
            }
            let scan = rep_a_membership_via(MatchStrategy::Scan, &t, &r);
            let indexed = rep_a_membership_via(MatchStrategy::Indexed, &t, &r);
            assert_eq!(
                scan.is_some(),
                indexed.is_some(),
                "case {case}: t = {t}, r = {r}"
            );
            if let Some(v) = indexed {
                let vt = t.apply(&v);
                assert!(vt.rel_part().is_subinstance_of(&r));
                assert!(vt.covers_instance(&r));
            }
        }
    }

    #[test]
    fn rep_membership_exact_equality() {
        let mut t = Instance::new();
        t.insert(
            RelSym::new("RM"),
            Tuple::new(vec![Value::c("a"), Value::null(0)]),
        );
        let mut r = Instance::new();
        r.insert_names("RM", &["a", "b"]);
        assert!(rep_membership(&t, &r).is_some());
        // Rep requires equality, not containment.
        let mut r2 = r.clone();
        r2.insert_names("RM", &["c", "d"]);
        assert!(rep_membership(&t, &r2).is_none());
    }
}
