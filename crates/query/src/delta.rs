//! Delta plans: incremental maintenance of compiled-plan result sets.
//!
//! Given a compiled [`Plan`] and a set of *changed* relations, the delta
//! plan computes (a superset of) the **new** answers an insert-only change
//! produces, by the classic differentiation rule: for each occurrence of a
//! changed-relation scan, emit a copy of the plan with that one occurrence
//! redirected to the corresponding Δ-relation, and union the copies. Each
//! copy runs against the *post-update* store (via [`DeltaStore`], which
//! resolves Δ-symbols to the delta tuples and delegates everything else),
//! so every new answer — whose witness must use at least one new tuple —
//! is found by the copy that pins that tuple's occurrence, while old
//! answers may be re-derived (harmless under set union).
//!
//! This rule is only sound where the plan is **monotone in the changed
//! relations**: a changed relation occurring in the refuting side of an
//! [`Plan::AntiJoin`] / [`Plan::SeededAntiJoin`] can *remove* answers,
//! which no unioned copy can express. [`delta_plan`] returns `None` there,
//! and callers fall back to recomputation — the fallback arm of the delta
//! protocol (`DESIGN.md §Streaming data exchange`).

use crate::plan::Plan;
use crate::store::QueryStore;
use dx_relation::{FastMap, Instance, RelSym, Tuple, Value};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// The reserved suffix marking a Δ-relation symbol. `$` cannot appear in
/// parsed relation names, so `R$delta` never collides with a user symbol.
const DELTA_SUFFIX: &str = "$delta";

/// The Δ-symbol for `rel` (the scan target delta plans redirect to).
pub fn delta_sym(rel: RelSym) -> RelSym {
    RelSym::new(&format!("{rel}{DELTA_SUFFIX}"))
}

/// Derive the delta plan of `plan` with respect to the `changed`
/// relations, or `None` when a changed relation occurs in a non-monotone
/// position (the refuting side of an anti-join) and incremental
/// maintenance is unsound.
///
/// When no changed relation occurs in the plan at all the result is
/// `Plan::Empty` — the change cannot produce new answers (callers usually
/// skip evaluation entirely in that case).
pub fn delta_plan(plan: &Plan, changed: &BTreeSet<RelSym>) -> Option<Plan> {
    if !monotone_in(plan, changed) {
        return None;
    }
    let mut variants = Vec::new();
    collect_variants(plan, changed, &mut |p| variants.push(p));
    Some(match variants.len() {
        0 => Plan::Empty { vars: plan.vars() },
        1 => variants.pop().expect("len checked"),
        _ => Plan::Union { inputs: variants },
    })
}

/// Is `plan` monotone in every relation of `changed` (no occurrence in a
/// refuting anti-join branch)?
fn monotone_in(plan: &Plan, changed: &BTreeSet<RelSym>) -> bool {
    match plan {
        Plan::Unit | Plan::Empty { .. } | Plan::Bind { .. } | Plan::Scan { .. } => true,
        Plan::Join { inputs } | Plan::Union { inputs } => {
            inputs.iter().all(|p| monotone_in(p, changed))
        }
        Plan::SemiJoin { left, right } => monotone_in(left, changed) && monotone_in(right, changed),
        Plan::AntiJoin { left, right } | Plan::SeededAntiJoin { left, right, .. } => {
            monotone_in(left, changed) && right.relations().is_disjoint(changed)
        }
        Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Alias { input, .. } => {
            monotone_in(input, changed)
        }
    }
}

/// Emit one copy of the (sub)plan per changed-relation scan occurrence,
/// with that occurrence redirected to its Δ-symbol. Linear in plan size
/// times occurrence count.
fn collect_variants(plan: &Plan, changed: &BTreeSet<RelSym>, emit: &mut dyn FnMut(Plan)) {
    match plan {
        Plan::Unit | Plan::Empty { .. } | Plan::Bind { .. } => {}
        Plan::Scan { rel, args } => {
            if changed.contains(rel) {
                emit(Plan::Scan {
                    rel: delta_sym(*rel),
                    args: args.clone(),
                });
            }
        }
        Plan::Join { inputs } => {
            for (i, input) in inputs.iter().enumerate() {
                collect_variants(input, changed, &mut |v| {
                    let mut new_inputs = inputs.clone();
                    new_inputs[i] = v;
                    emit(Plan::Join { inputs: new_inputs });
                });
            }
        }
        Plan::Union { inputs } => {
            for (i, input) in inputs.iter().enumerate() {
                collect_variants(input, changed, &mut |v| {
                    let mut new_inputs = inputs.clone();
                    new_inputs[i] = v;
                    emit(Plan::Union { inputs: new_inputs });
                });
            }
        }
        Plan::SemiJoin { left, right } => {
            collect_variants(left, changed, &mut |v| {
                emit(Plan::SemiJoin {
                    left: Box::new(v),
                    right: right.clone(),
                });
            });
            collect_variants(right, changed, &mut |v| {
                emit(Plan::SemiJoin {
                    left: left.clone(),
                    right: Box::new(v),
                });
            });
        }
        Plan::AntiJoin { left, right } => {
            collect_variants(left, changed, &mut |v| {
                emit(Plan::AntiJoin {
                    left: Box::new(v),
                    right: right.clone(),
                });
            });
        }
        Plan::SeededAntiJoin { left, right, seed } => {
            collect_variants(left, changed, &mut |v| {
                emit(Plan::SeededAntiJoin {
                    left: Box::new(v),
                    right: right.clone(),
                    seed: seed.clone(),
                });
            });
        }
        Plan::Select { input, pred } => {
            collect_variants(input, changed, &mut |v| {
                emit(Plan::Select {
                    input: Box::new(v),
                    pred: pred.clone(),
                });
            });
        }
        Plan::Project { input, vars } => {
            collect_variants(input, changed, &mut |v| {
                emit(Plan::Project {
                    input: Box::new(v),
                    vars: vars.clone(),
                });
            });
        }
        Plan::Alias { input, src, dst } => {
            collect_variants(input, changed, &mut |v| {
                emit(Plan::Alias {
                    input: Box::new(v),
                    src: *src,
                    dst: *dst,
                });
            });
        }
    }
}

/// A [`QueryStore`] view that resolves Δ-symbols to a delta [`Instance`]
/// and delegates every other relation to the post-update base store —
/// what delta plans execute against.
pub struct DeltaStore<'a> {
    base: &'a dyn QueryStore,
    delta: &'a Instance,
    /// Δ-symbol → underlying relation, for the relations the delta holds.
    syms: FastMap<RelSym, RelSym>,
}

impl<'a> DeltaStore<'a> {
    /// View `base` (the post-update store) extended with Δ-relations
    /// serving the tuples of `delta`.
    pub fn new(base: &'a dyn QueryStore, delta: &'a Instance) -> Self {
        let syms = delta
            .relations()
            .map(|(rel, _)| (delta_sym(rel), rel))
            .collect();
        DeltaStore { base, delta, syms }
    }
}

impl QueryStore for DeltaStore<'_> {
    fn selectivity(&self, rel: RelSym, pattern: &[Option<Value>]) -> usize {
        match self.syms.get(&rel) {
            Some(orig) => self.delta.selectivity(*orig, pattern),
            None => self.base.selectivity(rel, pattern),
        }
    }

    fn for_each_matching(
        &self,
        rel: RelSym,
        pattern: &[Option<Value>],
        f: &mut dyn FnMut(&Tuple) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        match self.syms.get(&rel) {
            Some(orig) => self.delta.for_each_matching(*orig, pattern, f),
            None => self.base.for_each_matching(rel, pattern, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::CompiledQuery;
    use dx_logic::Query;
    use dx_relation::DeltaIndex;

    fn plan_of(heads: &[&str], src: &str) -> CompiledQuery {
        CompiledQuery::compile(&Query::parse(heads, src).unwrap()).unwrap()
    }

    fn inst(facts: &[(&str, &[&str])]) -> Instance {
        let mut s = Instance::new();
        for (rel, names) in facts {
            s.insert_names(rel, names);
        }
        s
    }

    #[test]
    fn join_delta_finds_exactly_the_new_answers() {
        let q = plan_of(&["x", "z"], "exists y. DltE(x, y) & DltF(y, z)");
        let old = inst(&[("DltE", &["a", "b"]), ("DltF", &["b", "c"])]);
        let delta = inst(&[("DltE", &["d", "b"])]);
        let mut new = old.clone();
        new.insert_names("DltE", &["d", "b"]);

        let changed: BTreeSet<RelSym> = [RelSym::new("DltE")].into();
        let dp = delta_plan(q.plan(), &changed).expect("join is monotone");
        let base = DeltaIndex::from_instance(&new);
        let store = DeltaStore::new(&base, &delta);
        let rows = crate::exec::exec(&dp, &store);
        let cols: Vec<usize> = q
            .head()
            .iter()
            .map(|v| rows.col(*v).expect("head var produced"))
            .collect();
        let answers: BTreeSet<Vec<Value>> = rows
            .rows
            .iter()
            .map(|r| cols.iter().map(|&c| r[c]).collect())
            .collect();
        assert_eq!(
            answers,
            [vec![Value::c("d"), Value::c("c")]].into(),
            "only the (d, c) answer is new"
        );
    }

    #[test]
    fn unrelated_change_yields_empty_delta() {
        let q = plan_of(&["x"], "exists y. DltE(x, y)");
        let changed: BTreeSet<RelSym> = [RelSym::new("DltOther")].into();
        let dp = delta_plan(q.plan(), &changed).unwrap();
        assert!(matches!(dp, Plan::Empty { .. }));
    }

    #[test]
    fn negated_occurrence_refuses_delta() {
        let q = plan_of(&["x"], "exists y. DltE(x, y) & !DltF(y, x)");
        let changed: BTreeSet<RelSym> = [RelSym::new("DltF")].into();
        assert!(
            delta_plan(q.plan(), &changed).is_none(),
            "DltF sits under the anti-join's refuting side"
        );
        // But a change confined to the positive side is fine.
        let changed: BTreeSet<RelSym> = [RelSym::new("DltE")].into();
        assert!(delta_plan(q.plan(), &changed).is_some());
    }

    #[test]
    fn delta_sym_round_trip_is_distinct() {
        let rel = RelSym::new("DltE");
        assert_ne!(delta_sym(rel), rel);
        assert_eq!(delta_sym(rel), delta_sym(rel));
    }
}
