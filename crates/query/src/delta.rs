//! Delta plans: incremental maintenance of compiled-plan result sets.
//!
//! Given a compiled [`Plan`] and a set of *changed* relations, the delta
//! plan is the classic differentiation rule: for each occurrence of a
//! changed-relation scan, emit a copy of the plan with that one occurrence
//! redirected to the corresponding Δ-relation, and union the copies (a
//! union differentiates branch by branch). A changed scan on the refuting
//! side of an [`Plan::AntiJoin`] gets a *refuting-side copy*: the anti-join
//! becomes a join of its preserved side with the refuting side, that scan
//! redirected to the counter-Δ (the tuples of the other state) and the
//! side's other changed scans reading both states. Such a copy finds the
//! rows whose refutation the batch lifted or created. Copies run on a
//! [`DeltaStore`], which resolves the three kinds of symbol for one pass.
//!
//! [`dred`] carries a query's answers across a batch with these copies, by
//! *delete and re-derive* (DRed) and its negation case: one pass derives
//! in the post-update store `N` and finds every candidate gained answer,
//! one derives in the pre-update store `O` and finds every candidate lost
//! one, and first-witness execution on `N` decides each candidate. No
//! derivation or refutation counts are kept.
//!
//! The rule needs every changed relation under at most one negation, and
//! none on the correlated side of a [`Plan::SeededAntiJoin`]: a change
//! there can flip answers in ways no single copy pins. [`delta_plan`]
//! returns `None` there, and callers recompute (`DESIGN.md §Streaming data
//! exchange`).

use crate::eval::CompiledQuery;
use crate::exec::for_each_answer;
use crate::plan::Plan;
use crate::store::QueryStore;
use dx_relation::{FastMap, Instance, RelSym, Tuple, Value};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// The reserved suffix marking a Δ-relation symbol. `$` cannot appear in
/// parsed relation names, so `R$delta` never collides with a user symbol;
/// nor do the two other derived symbols below.
const DELTA_SUFFIX: &str = "$delta";
/// The suffix of the counter-Δ symbol a refuting-side copy redirects to.
const COUNTER_SUFFIX: &str = "$counter";
/// The suffix of the symbol a refuting-side copy's other changed scans
/// read: both states at once.
const BOTH_SUFFIX: &str = "$both";

/// The Δ-symbol for `rel` (the scan target delta plans redirect to).
pub fn delta_sym(rel: RelSym) -> RelSym {
    RelSym::new(&format!("{rel}{DELTA_SUFFIX}"))
}

fn counter_sym(rel: RelSym) -> RelSym {
    RelSym::new(&format!("{rel}{COUNTER_SUFFIX}"))
}

fn both_sym(rel: RelSym) -> RelSym {
    RelSym::new(&format!("{rel}{BOTH_SUFFIX}"))
}

/// Derive the delta plan of `plan` with respect to the `changed`
/// relations, or `None` when a changed relation sits under two negations
/// or on a seeded anti-join's correlated side, where incremental
/// maintenance is unsound.
///
/// When no changed relation occurs in the plan at all the result is
/// `Plan::Empty` — the change cannot move an answer (callers usually
/// skip evaluation entirely in that case).
pub fn delta_plan(plan: &Plan, changed: &BTreeSet<RelSym>) -> Option<Plan> {
    if !maintainable(plan, changed, false) {
        return None;
    }
    let mut variants = Vec::new();
    collect_variants(plan, changed, delta_sym, &mut |p| variants.push(p));
    Some(match variants.len() {
        0 => Plan::Empty { vars: plan.vars() },
        1 => variants.pop().expect("len checked"),
        _ => Plan::Union { inputs: variants },
    })
}

/// Can copies maintain `plan` under a change of `changed`: no changed
/// relation under a second negation (`negated`: already under one), none
/// on a seeded anti-join's correlated side?
fn maintainable(plan: &Plan, changed: &BTreeSet<RelSym>, negated: bool) -> bool {
    match plan {
        Plan::Unit | Plan::Empty { .. } | Plan::Bind { .. } | Plan::Scan { .. } => true,
        Plan::Join { inputs } | Plan::Union { inputs } => {
            inputs.iter().all(|p| maintainable(p, changed, negated))
        }
        Plan::SemiJoin { left, right } => {
            maintainable(left, changed, negated) && maintainable(right, changed, negated)
        }
        Plan::AntiJoin { left, right } => {
            maintainable(left, changed, negated)
                && if negated {
                    right.relations().is_disjoint(changed)
                } else {
                    maintainable(right, changed, true)
                }
        }
        Plan::SeededAntiJoin { left, right, .. } => {
            maintainable(left, changed, negated) && right.relations().is_disjoint(changed)
        }
        Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Alias { input, .. } => {
            maintainable(input, changed, negated)
        }
    }
}

/// Emit one copy of the (sub)plan per changed-relation scan occurrence,
/// with that occurrence redirected to `sym` of its relation, and one
/// refuting-side copy per changed scan on an anti-join's refuting side.
/// Linear in plan size times occurrence count.
fn collect_variants(
    plan: &Plan,
    changed: &BTreeSet<RelSym>,
    sym: fn(RelSym) -> RelSym,
    emit: &mut dyn FnMut(Plan),
) {
    match plan {
        Plan::Unit | Plan::Empty { .. } | Plan::Bind { .. } => {}
        Plan::Scan { rel, args } => {
            if changed.contains(rel) {
                emit(Plan::Scan {
                    rel: sym(*rel),
                    args: args.clone(),
                });
            }
        }
        Plan::Join { inputs } => {
            for (i, input) in inputs.iter().enumerate() {
                collect_variants(input, changed, sym, &mut |v| {
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
                collect_variants(input, changed, sym, emit);
            }
        }
        Plan::SemiJoin { left, right } => {
            collect_variants(left, changed, sym, &mut |v| {
                emit(Plan::SemiJoin {
                    left: Box::new(v),
                    right: right.clone(),
                });
            });
            collect_variants(right, changed, sym, &mut |v| {
                emit(Plan::SemiJoin {
                    left: left.clone(),
                    right: Box::new(v),
                });
            });
        }
        Plan::AntiJoin { left, right } => {
            collect_variants(left, changed, sym, &mut |v| {
                emit(Plan::AntiJoin {
                    left: Box::new(v),
                    right: right.clone(),
                });
            });
            // The refuting-side copies: the preserved rows a refuting row
            // of the other state keys (`maintainable` leaves no changed
            // scan under a second negation, so none appear below here).
            collect_variants(right, changed, counter_sym, &mut |mut v| {
                read_both(&mut v, changed);
                emit(Plan::Join {
                    inputs: vec![(**left).clone(), v],
                });
            });
        }
        Plan::SeededAntiJoin { left, right, seed } => {
            collect_variants(left, changed, sym, &mut |v| {
                emit(Plan::SeededAntiJoin {
                    left: Box::new(v),
                    right: right.clone(),
                    seed: seed.clone(),
                });
            });
        }
        Plan::Select { input, pred } => {
            collect_variants(input, changed, sym, &mut |v| {
                emit(Plan::Select {
                    input: Box::new(v),
                    pred: pred.clone(),
                });
            });
        }
        Plan::Project { input, vars } => {
            collect_variants(input, changed, sym, &mut |v| {
                emit(Plan::Project {
                    input: Box::new(v),
                    vars: vars.clone(),
                });
            });
        }
        Plan::Alias { input, src, dst } => {
            collect_variants(input, changed, sym, &mut |v| {
                emit(Plan::Alias {
                    input: Box::new(v),
                    src: *src,
                    dst: *dst,
                });
            });
        }
    }
}

/// Point every scan of a changed relation in `plan` at its both-states
/// symbol: the other changed scans of a refuting-side copy.
fn read_both(plan: &mut Plan, changed: &BTreeSet<RelSym>) {
    match plan {
        Plan::Scan { rel, .. } if changed.contains(rel) => *rel = both_sym(*rel),
        Plan::Unit | Plan::Empty { .. } | Plan::Bind { .. } | Plan::Scan { .. } => {}
        Plan::Join { inputs } | Plan::Union { inputs } => {
            for p in inputs {
                read_both(p, changed);
            }
        }
        Plan::SemiJoin { left, right }
        | Plan::AntiJoin { left, right }
        | Plan::SeededAntiJoin { left, right, .. } => {
            read_both(left, changed);
            read_both(right, changed);
        }
        Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Alias { input, .. } => {
            read_both(input, changed);
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

/// Carry a query's answers across one batch by delete and re-derive
/// (DRed; Gupta, Mumick & Subrahmanian, SIGMOD 1993), negation included.
///
/// `variant` is [`delta_plan`] of `query`'s plan for the relations the
/// batch changed, `store` the post-update store `N`, `added` the tuples in
/// `N` but not in the pre-update store `O`, `removed` those in `O` but not
/// in `N`, and `old` the membership test of the answers maintained so far.
/// When `old` is exactly `Q(O)`, `gained` is `Q(N) ∖ Q(O)` and `lost` is
/// `Q(O) ∖ Q(N)`; a caller keeping a subset (say the null-free answers)
/// filters `gained` the same way.
///
/// The copies run twice, once per state `X` (`N`, then `O`; `Y` is the
/// other): every scan reads `X`, a copy's Δ-scan `X ∖ Y`, a refuting-side
/// copy's counter-Δ scan `Y ∖ X` and its other changed scans `N ∪ O`
/// ([`DeltaStore`]). Take an answer of `Q(X) ∖ Q(Y)` and a derivation of
/// it in `X`. Either the derivation uses a tuple of `X ∖ Y`, and the copy
/// pinning that occurrence finds it; or every tuple it uses is in `Y` too,
/// so some anti-join the derivation passes is refuted in `Y` but not in
/// `X`, by a refuting row whose derivation in `Y` uses a tuple of `Y ∖ X`,
/// and the refuting-side copy pinning that occurrence finds it: its other
/// refuting scans read `N ∪ O ⊇ Y`, and every other scan reads `X`, so the
/// derivation's other refutations hold. The pass over `N` thus finds every
/// gained answer, the pass over `O` every lost one; `old` filters each
/// pass, and each candidate is then decided exactly by first-witness
/// execution on `N` ([`CompiledQuery::holds_on_store`]). A variant with no
/// refuting-side copy skips the pass whose Δ is empty and takes the rows
/// of the pass over `N` as they are: each holds on `N`.
pub fn dred(
    query: &CompiledQuery,
    variant: &Plan,
    store: &dyn QueryStore,
    added: &Instance,
    removed: &Instance,
    old: &dyn Fn(&Tuple) -> bool,
) -> AnswerDelta {
    let head = query.head();
    let view = DeltaStore::new(store, added, removed);
    // Without a refuting-side copy, a pass whose Δ is empty finds nothing,
    // and every row of the pass over `N` holds on `N` as it stands.
    let refutes = (variant.relations().iter())
        .any(|r| matches!(view.syms.get(r), Some((Derived::Counter, _))));
    let mut gained = BTreeSet::new();
    if refutes || !added.is_empty() {
        for_each_answer(variant, head, &view, &[], &mut |t| {
            if !old(&t) {
                gained.insert(t);
            }
        });
    }
    let view = view.before();
    let mut lost = BTreeSet::new();
    if refutes || !removed.is_empty() {
        for_each_answer(variant, head, &view, &[], &mut |t| {
            if old(&t) {
                lost.insert(t);
            }
        });
    }
    AnswerDelta {
        gained: (gained.into_iter())
            .filter(|t| !refutes || query.holds_on_store(store, t))
            .collect(),
        lost: (lost.into_iter())
            .filter(|t| !query.holds_on_store(store, t))
            .collect(),
    }
}

/// What a derived symbol reads in a [`DeltaStore`].
#[derive(Clone, Copy)]
enum Derived {
    /// `R$delta`: the pass state's own tuples, `X ∖ Y`.
    Delta,
    /// `R$counter`: the other state's own tuples, `Y ∖ X`.
    Counter,
    /// `R$both`: `N ∪ O`.
    Both,
}

/// A [`QueryStore`] view of one pass over a batch: the base relations read
/// one state `X` — the post-update base store `N`, or ([`Self::before`])
/// the pre-update store `O = (N ∖ added) ∪ removed` — and the derived
/// symbols of delta plans read the batch's tuples: `R$delta` reads
/// `X ∖ Y`, `R$counter` reads `Y ∖ X` and `R$both` reads `N ∪ O`, with
/// `Y` the other state.
pub struct DeltaStore<'a> {
    base: &'a dyn QueryStore,
    added: &'a Instance,
    /// Disjoint from `base`.
    removed: &'a Instance,
    /// Does the view read `O` rather than `N`?
    before: bool,
    /// Derived symbol → what it reads, and of which relation.
    syms: FastMap<RelSym, (Derived, RelSym)>,
}

impl<'a> DeltaStore<'a> {
    /// The view reading `N` (the post-update `base`), for a batch that
    /// added `added` to the pre-update store and took `removed` out of it.
    pub fn new(base: &'a dyn QueryStore, added: &'a Instance, removed: &'a Instance) -> Self {
        let rels: BTreeSet<RelSym> = (added.relations().chain(removed.relations()))
            .map(|(rel, _)| rel)
            .collect();
        let syms = (rels.into_iter())
            .flat_map(|rel| {
                [
                    (delta_sym(rel), (Derived::Delta, rel)),
                    (counter_sym(rel), (Derived::Counter, rel)),
                    (both_sym(rel), (Derived::Both, rel)),
                ]
            })
            .collect();
        DeltaStore {
            base,
            added,
            removed,
            before: false,
            syms,
        }
    }

    /// The same batch's view reading `O`.
    pub fn before(self) -> Self {
        DeltaStore {
            before: true,
            ..self
        }
    }

    /// `X ∖ Y` (`own`) or `Y ∖ X`.
    fn side(&self, own: bool) -> &'a Instance {
        if own != self.before {
            self.added
        } else {
            self.removed
        }
    }
}

impl QueryStore for DeltaStore<'_> {
    fn selectivity(&self, rel: RelSym, pattern: &[Option<Value>]) -> usize {
        let both =
            |rel| self.base.selectivity(rel, pattern) + self.removed.selectivity(rel, pattern);
        match self.syms.get(&rel) {
            Some(&(Derived::Delta, orig)) => self.side(true).selectivity(orig, pattern),
            Some(&(Derived::Counter, orig)) => self.side(false).selectivity(orig, pattern),
            Some(&(Derived::Both, orig)) => both(orig),
            None if self.before => both(rel),
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
            Some(&(Derived::Delta, orig)) => self.side(true).for_each_matching(orig, pattern, f),
            Some(&(Derived::Counter, orig)) => self.side(false).for_each_matching(orig, pattern, f),
            Some(&(Derived::Both, orig)) => {
                self.base.for_each_matching(orig, pattern, f)?;
                self.removed.for_each_matching(orig, pattern, f)
            }
            None if !self.before => self.base.for_each_matching(rel, pattern, f),
            // `O`: `N` without the added tuples, then the removed ones.
            None => {
                match self.added.relation(rel) {
                    Some(hidden) => self.base.for_each_matching(rel, pattern, &mut |t| {
                        if hidden.contains(t) {
                            ControlFlow::Continue(())
                        } else {
                            f(t)
                        }
                    })?,
                    None => self.base.for_each_matching(rel, pattern, f)?,
                }
                self.removed.for_each_matching(rel, pattern, f)
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
        let none = Instance::new();
        let store = DeltaStore::new(&base, &delta, &none);
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
        // A change under the anti-join's refuting side gets the
        // refuting-side copy: the anti-join turned into a join with the
        // refuting scan reading the counter-Δ.
        let changed: BTreeSet<RelSym> = [RelSym::new("DltF")].into();
        let dp = delta_plan(q.plan(), &changed).expect("one negation is maintainable");
        let rels = dp.relations();
        assert!(rels.contains(&counter_sym(RelSym::new("DltF"))), "{dp}");
        assert!(!rels.contains(&delta_sym(RelSym::new("DltF"))), "{dp}");
        // A change confined to the positive side keeps the anti-join.
        let changed: BTreeSet<RelSym> = [RelSym::new("DltE")].into();
        let dp = delta_plan(q.plan(), &changed).unwrap();
        assert!(dp.relations().contains(&delta_sym(RelSym::new("DltE"))));
        assert!(!dp.relations().contains(&counter_sym(RelSym::new("DltE"))));
    }

    /// A relation under two negations, or on a seeded anti-join's
    /// correlated side, is still refused.
    #[test]
    fn double_negation_refuses_delta() {
        let q = plan_of(
            &["x"],
            "exists y. DrA(x, y) & !exists r. (DrB(x, r) & !DrA(r, r))",
        );
        let refuses = |rels: &[&str]| {
            let changed: BTreeSet<RelSym> = rels.iter().map(|r| RelSym::new(r)).collect();
            delta_plan(q.plan(), &changed).is_none()
        };
        assert!(refuses(&["DrA"]), "DrA sits under two negations");
        assert!(refuses(&["DrA", "DrB"]));
        assert!(!refuses(&["DrB"]), "DrB sits under one");
    }

    /// A random `(old, new)` instance pair over `DrA`/`DrB` and four
    /// constants: each tuple is in `old` with probability 3/8, and (in the
    /// relations of `flips`) flips membership into `new` with probability
    /// 1/4.
    fn random_pair(seed: u64, flips: &BTreeSet<RelSym>) -> (Instance, Instance) {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut below = |n: u64| {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        };
        let (mut old, mut new) = (Instance::new(), Instance::new());
        for rel in ["DrA", "DrB"] {
            let flips = flips.contains(&RelSym::new(rel));
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
                    if was != (flips && below(4) == 0) {
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

    /// DRed against answers computed from scratch on `seeds` random old/new
    /// pairs changing `changed`: the pass over the pre-update store covers
    /// `Q(old) ∖ Q(new)`, and after re-derivation the gained and lost sets
    /// are exactly the two set differences. Returns the gains and losses
    /// seen.
    fn dred_against_recompute(
        queries: &[CompiledQuery],
        changed: &[&str],
        seeds: u64,
    ) -> (usize, usize) {
        let changed: BTreeSet<RelSym> = changed.iter().map(|r| RelSym::new(r)).collect();
        let (mut gains, mut losses) = (0, 0);
        for q in queries {
            let variant = delta_plan(q.plan(), &changed).expect("maintainable");
            for seed in 0..seeds {
                let (old, new) = random_pair(seed, &changed);
                let (added, removed) = (minus(&new, &old), minus(&old, &new));
                let store = DeltaIndex::from_instance(&new);
                let (q_old, q_new) = (q.answers(&old), q.answers(&new));
                let mut candidates = BTreeSet::new();
                let view = DeltaStore::new(&store, &added, &removed).before();
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
        (gains, losses)
    }

    #[test]
    fn dred_matches_recompute_on_random_pairs() {
        let queries = [
            plan_of(&["x", "z"], "exists y. DrA(x, y) & DrB(y, z)"),
            plan_of(&["x", "z"], "exists y. DrA(x, y) & DrA(y, z)"),
            plan_of(&["x", "y"], "DrA(x, y) | (exists z. DrB(x, z) & DrA(z, y))"),
            plan_of(&[], "exists x y. DrA(x, y) & DrB(y, x)"),
        ];
        let (gains, losses) = dred_against_recompute(&queries, &["DrA", "DrB"], 40);
        assert!(gains > 0 && losses > 0, "the pairs move answers both ways");
    }

    /// Changed relations under an anti-join's refuting side: the
    /// refuting-side copies find every answer a refutation's change moved,
    /// on each shape a negation lowers to — one refuting side with two
    /// changed scans, and two refuting sides one derivation passes.
    #[test]
    fn dred_under_negation_matches_recompute_on_random_pairs() {
        let queries = [
            plan_of(&["x", "y"], "DrA(x, y) & !exists z. DrB(y, z)"),
            plan_of(&["x"], "exists y. DrA(x, y) & !DrB(y, x)"),
            plan_of(&["x", "y"], "DrA(x, y) & !DrA(y, x)"),
            plan_of(&["x", "z"], "exists y. DrB(x, y) & DrA(y, z) & !DrB(z, x)"),
            plan_of(&["x", "y"], "DrB(x, y) | (DrA(x, y) & !DrB(y, y))"),
            plan_of(&[], "exists x y. DrA(x, y) & !DrB(x, y)"),
            plan_of(
                &["x", "y"],
                "DrA(x, y) & !exists z. (DrB(y, z) & DrB(z, x))",
            ),
            plan_of(&["x", "y"], "DrA(x, y) & !DrB(x, y) & !DrB(y, x)"),
        ];
        for changed in [&["DrA", "DrB"][..], &["DrB"]] {
            let (gains, losses) = dred_against_recompute(&queries, changed, 60);
            assert!(
                gains > 0 && losses > 0,
                "the pairs move answers both ways under {changed:?}"
            );
        }
    }

    #[test]
    fn delta_sym_round_trip_is_distinct() {
        let rel = RelSym::new("DltE");
        assert_ne!(delta_sym(rel), rel);
        assert_eq!(delta_sym(rel), delta_sym(rel));
    }
}
