//! Delta plans: incremental maintenance of compiled-plan result sets.
//!
//! Given a compiled [`Plan`] and a set of *changed* relations, the delta
//! plan is the classic differentiation rule: for each occurrence of a
//! changed-relation scan, emit a copy of the plan with that one occurrence
//! redirected to the corresponding Δ-relation, and union the copies (a
//! union differentiates branch by branch). A copy runs on a
//! [`DeltaStore`], which resolves Δ-symbols to a batch's tuples and
//! delegates every other relation to the post-update store.
//!
//! [`dred`] maintains a monotone query's answers across a batch with these
//! copies, by *delete and re-derive* (DRed): run over the added tuples they
//! find every gained answer, whose new derivation must use one; run over
//! the removed tuples, with every other scan reading the post-update store
//! ∪ the removed tuples (a superset of the pre-update store), they find
//! every answer that lost a derivation, and first-witness execution on the
//! post-update store re-derives each such candidate. The same copies serve
//! both signs; no derivation counts are kept.
//!
//! The rule is only sound where the plan is **monotone in the changed
//! relations**: a changed relation occurring in the refuting side of an
//! [`Plan::AntiJoin`] / [`Plan::SeededAntiJoin`] can flip answers either
//! way, which no copy expresses. [`delta_plan`] returns `None` there, and
//! callers recompute (`DESIGN.md §Streaming data exchange`).

use crate::eval::CompiledQuery;
use crate::exec::for_each_answer;
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
/// `Plan::Empty` — the change cannot move an answer (callers usually
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
        // A derivation through a union runs through one branch, and the
        // branches share their output variables: each branch's copies stand
        // alone, without re-reading the unchanged branches in full.
        Plan::Union { inputs } => {
            for input in inputs {
                collect_variants(input, changed, emit);
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

/// The answers one batch moved: what [`dred`] returns.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnswerDelta {
    /// Answers over the post-update store the `old` test rejected, sorted.
    pub gained: Vec<Tuple>,
    /// Answers the `old` test accepted that no longer hold, sorted.
    pub lost: Vec<Tuple>,
}

/// Carry a monotone query's answers across one batch by delete and
/// re-derive (DRed; Gupta, Mumick & Subrahmanian, SIGMOD 1993).
///
/// `variant` is [`delta_plan`] of `query`'s plan for the relations the
/// batch changed, `store` the post-update store `N`, `added` the tuples in
/// `N` but not in the pre-update store `O`, `removed` those in `O` but not
/// in `N`, and `old` the membership test of the answers maintained so far.
/// When `old` is exactly `Q(O)`, `gained` is `Q(N) ∖ Q(O)` and `lost` is
/// `Q(O) ∖ Q(N)`; a caller keeping a subset (say the null-free answers)
/// filters `gained` the same way.
///
/// * *Gained.* A new answer has a derivation in `N` that uses an added
///   tuple, so the copy pinning that occurrence to the Δ-relation finds
///   it over [`DeltaStore::new`]. Every row the copies yield holds on
///   `N`; the ones `old` rejects are gained.
/// * *Lost.* A lost answer had a derivation in `O` that used a removed
///   tuple. Over [`DeltaStore::retracting`] every other scan reads
///   `N ∪ removed ⊇ O`, so the copy pinning that occurrence finds it. Each
///   such candidate `old` accepts is then decided exactly by first-witness
///   execution on `N` ([`CompiledQuery::holds_on_store`]), and lost only
///   if no derivation survives there.
pub fn dred(
    query: &CompiledQuery,
    variant: &Plan,
    store: &dyn QueryStore,
    added: &Instance,
    removed: &Instance,
    old: &dyn Fn(&Tuple) -> bool,
) -> AnswerDelta {
    let head = query.head();
    let mut gained = BTreeSet::new();
    if !added.is_empty() {
        let view = DeltaStore::new(store, added);
        for_each_answer(variant, head, &view, &[], &mut |t| {
            if !old(&t) {
                gained.insert(t);
            }
        });
    }
    let mut candidates = BTreeSet::new();
    if !removed.is_empty() {
        let view = DeltaStore::retracting(store, removed);
        for_each_answer(variant, head, &view, &[], &mut |t| {
            if old(&t) {
                candidates.insert(t);
            }
        });
    }
    AnswerDelta {
        gained: gained.into_iter().collect(),
        lost: candidates
            .into_iter()
            .filter(|t| !query.holds_on_store(store, t))
            .collect(),
    }
}

/// A [`QueryStore`] view that resolves Δ-symbols to a batch's tuples and
/// delegates every other relation to the post-update base store — what
/// delta plans execute against. Its retracting form also lets the base
/// relations serve the removed tuples.
pub struct DeltaStore<'a> {
    base: &'a dyn QueryStore,
    delta: &'a Instance,
    /// Tuples the base relations serve after `base`'s own: the removed
    /// tuples of a retraction (disjoint from `base`), or none.
    restored: Option<&'a Instance>,
    /// Δ-symbol → underlying relation, for the relations the delta holds.
    syms: FastMap<RelSym, RelSym>,
}

impl<'a> DeltaStore<'a> {
    /// View `base` (the post-update store) extended with Δ-relations
    /// serving the tuples of `delta` (the added tuples).
    pub fn new(base: &'a dyn QueryStore, delta: &'a Instance) -> Self {
        let syms = delta
            .relations()
            .map(|(rel, _)| (delta_sym(rel), rel))
            .collect();
        DeltaStore {
            base,
            delta,
            restored: None,
            syms,
        }
    }

    /// The retraction view: Δ-relations serve `removed`, and every base
    /// relation reads `base ∪ removed` — a superset of the pre-update
    /// store. `removed` must be disjoint from `base`.
    pub fn retracting(base: &'a dyn QueryStore, removed: &'a Instance) -> Self {
        DeltaStore {
            restored: Some(removed),
            ..DeltaStore::new(base, removed)
        }
    }
}

impl QueryStore for DeltaStore<'_> {
    fn selectivity(&self, rel: RelSym, pattern: &[Option<Value>]) -> usize {
        match self.syms.get(&rel) {
            Some(orig) => self.delta.selectivity(*orig, pattern),
            None => {
                self.base.selectivity(rel, pattern)
                    + self.restored.map_or(0, |r| r.selectivity(rel, pattern))
            }
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
            None => {
                self.base.for_each_matching(rel, pattern, f)?;
                match self.restored {
                    Some(r) => r.for_each_matching(rel, pattern, f),
                    None => ControlFlow::Continue(()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// A random `(old, new)` instance pair over `DrA`/`DrB` and four
    /// constants: each tuple is in `old` with probability 3/8, and flips
    /// membership into `new` with probability 1/4.
    fn random_pair(seed: u64) -> (Instance, Instance) {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut below = |n: u64| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        };
        let (mut old, mut new) = (Instance::new(), Instance::new());
        for rel in ["DrA", "DrB"] {
            old.declare(RelSym::new(rel), 2);
            new.declare(RelSym::new(rel), 2);
            for a in 0..4 {
                for b in 0..4 {
                    let t = [format!("c{a}"), format!("c{b}")];
                    let names = [t[0].as_str(), t[1].as_str()];
                    let was = below(8) < 3;
                    if was {
                        old.insert_names(rel, &names);
                    }
                    if was != (below(4) == 0) {
                        new.insert_names(rel, &names);
                    }
                }
            }
        }
        (old, new)
    }

    /// `a ∖ b`, per relation.
    fn minus(a: &Instance, b: &Instance) -> Instance {
        let mut out = Instance::new();
        for (rel, r) in a.relations() {
            for t in r.iter().filter(|t| !b.contains(rel, t)) {
                out.insert(rel, t.clone());
            }
        }
        out
    }

    /// DRed against answers computed from scratch, on random old/new
    /// pairs: the candidates over the retracting view cover `Q(old) ∖
    /// Q(new)`, and after re-derivation the gained and lost sets are
    /// exactly the two set differences.
    #[test]
    fn dred_matches_recompute_on_random_pairs() {
        let queries = [
            plan_of(&["x", "z"], "exists y. DrA(x, y) & DrB(y, z)"),
            plan_of(&["x", "z"], "exists y. DrA(x, y) & DrA(y, z)"),
            plan_of(&["x", "y"], "DrA(x, y) | (exists z. DrB(x, z) & DrA(z, y))"),
            plan_of(&[], "exists x y. DrA(x, y) & DrB(y, x)"),
        ];
        let changed: BTreeSet<RelSym> = [RelSym::new("DrA"), RelSym::new("DrB")].into();
        let (mut gains, mut losses) = (0, 0);
        for q in &queries {
            let variant = delta_plan(q.plan(), &changed).expect("positive plans are monotone");
            for seed in 0..40 {
                let (old, new) = random_pair(seed);
                let (added, removed) = (minus(&new, &old), minus(&old, &new));
                let store = DeltaIndex::from_instance(&new);
                let (q_old, q_new) = (q.answers(&old), q.answers(&new));
                let mut candidates = BTreeSet::new();
                let view = DeltaStore::retracting(&store, &removed);
                for_each_answer(&variant, q.head(), &view, &[], &mut |t| {
                    candidates.insert(t);
                });
                let lost: Vec<Tuple> = q_old
                    .iter()
                    .filter(|t| !q_new.contains(t))
                    .cloned()
                    .collect();
                assert!(
                    lost.iter().all(|t| candidates.contains(t)),
                    "seed {seed}: candidates miss a lost answer of {:?}",
                    q.plan()
                );
                let gained: Vec<Tuple> = q_new
                    .iter()
                    .filter(|t| !q_old.contains(t))
                    .cloned()
                    .collect();
                let got = dred(q, &variant, &store, &added, &removed, &|t| {
                    q_old.contains(t)
                });
                assert_eq!(got.gained, gained, "seed {seed}: gained of {:?}", q.plan());
                assert_eq!(got.lost, lost, "seed {seed}: lost of {:?}", q.plan());
                gains += gained.len();
                losses += lost.len();
            }
        }
        assert!(gains > 0 && losses > 0, "the pairs move answers both ways");
    }

    #[test]
    fn delta_sym_round_trip_is_distinct() {
        let rel = RelSym::new("DltE");
        assert_ne!(delta_sym(rel), rel);
        assert_eq!(delta_sym(rel), delta_sym(rel));
    }
}
