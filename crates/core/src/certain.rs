//! Certain answers `certain_Σα(Q, S)` and the `DEQA` problem (§4).
//!
//! By Corollary 2, `certain_Σα(Q, S) = □Q(CSol_A(S))` — certain answers over
//! one polynomial-time-computable annotated instance. The decision
//! procedures below therefore all *refute*: they search `Rep_A(CSol_A(S))`
//! for an instance falsifying `φ(t̄)`, with the witness space (and hence the
//! completeness guarantee) chosen per the paper's classification:
//!
//! | Query / mapping        | Procedure                              | Result |
//! |------------------------|----------------------------------------|--------|
//! | positive               | naive evaluation on `CSol(S)` (Prop 3) | exact, PTIME |
//! | monotone (e.g. CQ≠)    | valuation search over `Rep(CSol)` (Prop 4) | exact, coNP |
//! | `∀*∃*`                 | Prop 5's polynomial witness space      | exact, coNP |
//! | FO, `#op = 0`          | valuation search (Theorem 3(1))        | exact, coNP |
//! | FO, `#op = 1`          | bounded replication (Lemma 2)          | bounded* |
//! | FO, `#op > 1`          | bounded refutation (undecidable, Thm 3(3)) | bounded |
//!
//! \* complete for the budget `(qr(φ)+arity)·2ⁿ` externals per Lemma 2 —
//! available by passing an explicit [`SearchBudget`], astronomically
//! expensive by design (the problem is coNEXPTIME-complete).
//!
//! ## Answer sets: one search per palette group
//!
//! [`Exchange::certain_answers`] runs one refutation sweep per *palette
//! group* of candidates, not one search per candidate, with the same
//! answers and completeness; the equivalence argument is in DESIGN.md
//! §dx-core `regimes`.

use crate::Exchange;
use dx_chase::{Mapping, TargetDep};
use dx_logic::classify::{self, QueryClass};
use dx_logic::Query;
use dx_query::{PlanCatalog, QueryEval};
use dx_relation::{AnnInstance, ConstId, Instance, NullGen, Relation, Tuple};
use dx_solver::{search_rep_a_indexed, Completeness, Leaf, SearchBudget, SearchOutcome};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Which decision procedure handled a certain-answer query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Regime {
    /// Proposition 3: naive evaluation on the canonical solution.
    NaivePositive,
    /// Proposition 4: valuation search over `Rep(CSol)` for monotone
    /// queries.
    Monotone,
    /// Proposition 5: the exact `∀*∃*` procedure.
    UniversalExistential,
    /// Theorem 3(1): the all-closed (CWA) coNP procedure.
    ClosedWorld,
    /// Theorem 3(2)/(3): bounded open-world refutation (`#op ≥ 1`).
    OpenBounded,
}

impl Regime {
    /// Is the procedure's witness space exhaustive for its query class, so
    /// that an uncapped search that finds no refutation is definitive?
    pub(crate) fn is_exact(self) -> bool {
        self != Regime::OpenBounded
    }
}

/// Outcome of a certain-answer decision.
#[derive(Clone, Debug)]
pub struct CertainOutcome {
    /// Is the tuple certainly in the answer (no counterexample found)?
    pub certain: bool,
    /// Whether a negative search exhausted the witness space.
    pub completeness: Completeness,
    /// The procedure used.
    pub regime: Regime,
    /// A counterexample instance (member of `Rep_A(CSol_A(S))` falsifying
    /// the query), when `certain == false`.
    pub counterexample: Option<Instance>,
    /// Candidate instances examined by the search (0 for the naive path).
    pub leaves: u64,
}

/// Decide `t̄ ∈ certain_Σα(Q, S)` — the `DEQA(Σα, Q)` problem of §4 (see
/// [`Exchange::certain_contains`]).
pub fn certain_contains(
    mapping: &Mapping,
    source: &Instance,
    query: &Query,
    tuple: &Tuple,
    budget: Option<&SearchBudget>,
) -> CertainOutcome {
    Exchange::new(mapping, source).certain_contains(query, tuple, budget)
}

/// Compute the certain-answer relation `certain_Σα(Q, S)` (see
/// [`Exchange::certain_answers`]).
pub fn certain_answers(
    mapping: &Mapping,
    source: &Instance,
    query: &Query,
    budget: Option<&SearchBudget>,
) -> (Relation, Completeness) {
    Exchange::new(mapping, source).certain_answers(query, budget)
}

/// [`certain_answers`] against a canonical solution the caller already
/// holds. Kept as a free function because the benchmark (`perfbench`)
/// calls it with exactly this signature; new code uses
/// [`Exchange::from_csol`].
pub fn certain_answers_with(
    mapping: &Mapping,
    csol: &dx_chase::CanonicalSolution,
    source: &Instance,
    query: &Query,
    budget: Option<&SearchBudget>,
) -> (Relation, Completeness) {
    Exchange::from_csol(mapping, source, &csol.instance).certain_answers(query, budget)
}

/// Certain answers under the pure OWA reading (`Σop`) — Proposition 2's
/// first extreme.
pub fn certain_owa(
    mapping: &Mapping,
    source: &Instance,
    query: &Query,
    tuple: &Tuple,
    budget: Option<&SearchBudget>,
) -> CertainOutcome {
    certain_contains(&mapping.all_open(), source, query, tuple, budget)
}

/// Certain answers under the pure CWA reading (`Σcl`) — Proposition 2's
/// second extreme.
pub fn certain_cwa(
    mapping: &Mapping,
    source: &Instance,
    query: &Query,
    tuple: &Tuple,
) -> CertainOutcome {
    certain_contains(&mapping.all_closed(), source, query, tuple, None)
}

impl Exchange<'_> {
    /// Decide `t̄ ∈ certain_Σα(Q, S)`.
    ///
    /// `budget` only affects the `OpenBounded` regime (`#op ≥ 1` with a
    /// full-FO query) and the leaf cap of the `∀*∃*` space; all other
    /// regimes use their theory-exact witness spaces. Query evaluation
    /// (the Proposition 3 naive path and every `Rep_A` refutation check)
    /// runs on a [`QueryEval`] drawn from the shared [`PlanCatalog`].
    pub fn certain_contains(
        &self,
        query: &Query,
        tuple: &Tuple,
        budget: Option<&SearchBudget>,
    ) -> CertainOutcome {
        assert_eq!(tuple.arity(), query.arity(), "answer-tuple arity mismatch");
        assert!(tuple.is_ground(), "certain answers are tuples over Const");
        let ev = PlanCatalog::shared().eval_in(query, &self.mapping.target);

        // Proposition 3: positive queries via naive evaluation — for any
        // annotation.
        if classify::is_positive(&query.formula) {
            return naive_outcome(ev.holds_on(&self.csol.rel_part(), tuple));
        }

        let regime = self.refutation_regime(&ev);
        let space = self.witness_space(&ev, regime, budget, None);
        let mut palette = tuple_palette(query.formula.constants(), tuple);
        palette.extend(&space.palette);
        let (_, outcome) = refutation_sweep(
            &ev,
            &space.instance,
            &palette,
            &space.budget,
            vec![tuple.clone()],
            &mut |_, _| {},
        );
        refutation_outcome(outcome, regime, space.exact, &self.csol)
    }

    /// The procedure a refutation of the non-positive query of `ev` takes
    /// on this csol. It reads the csol (a relation is rigid only while it
    /// is ground and closed), so a maintained answer set re-checks it
    /// after every batch.
    ///
    /// Proposition 4: monotone queries — certain_Σα(Q,S) = □Q(CSol(S)),
    /// decided by valuation search over Rep(CSol) (all-closed Rep_A). The
    /// class is taken **modulo rigid relations** (ground, fully closed, no
    /// all-open marker — their extension is pinned in every member, see
    /// `dx_logic::classify::rigid_relations_of`): a negated atom over a
    /// rigid relation never changes value as members grow, so a query that
    /// is monotone apart from such atoms still has its minimal falsifiers
    /// among the extras-free valuation images, and the image sweep stays
    /// exact. With no rigid negations this is exactly Proposition 4.
    pub(crate) fn refutation_regime(&self, ev: &QueryEval) -> Regime {
        let formula = &ev.query().formula;
        let rigid = classify::rigid_relations_of(formula, &self.csol);
        if classify::is_monotone_rigid(formula, &rigid) {
            return Regime::Monotone;
        }
        match classify::classify(formula) {
            QueryClass::UniversalExistential => Regime::UniversalExistential,
            _ if self.mapping.is_all_closed() => Regime::ClosedWorld,
            _ => Regime::OpenBounded,
        }
    }

    /// The witness space a refutation under `regime` searches — one choice
    /// per `(query, csol, budget)`, shared by
    /// [`Exchange::certain_contains`] and every palette group of
    /// [`Exchange::certain_answers`]. `image_cap` caps the Proposition 4
    /// image sweep's leaves (`None`: exhaustive).
    fn witness_space(
        &self,
        ev: &QueryEval,
        regime: Regime,
        budget: Option<&SearchBudget>,
        image_cap: Option<u64>,
    ) -> WitnessSpace<'_> {
        let query = ev.query();
        let (instance, palette, budget) = match regime {
            // A compiled query reads only the relations it scans, so the
            // image sweep searches only those, over the full csol's
            // palette: the images of that restriction are the projections
            // of the full images (DESIGN.md §dx-core `regimes`). The tree
            // walker quantifies over the active domain, so a query that did
            // not compile searches the whole csol.
            Regime::Monotone => {
                let (instance, palette) = if ev.is_compiled() {
                    let reads = query.formula.relations();
                    let read = |rel| reads.iter().any(|&(r, _)| r == rel);
                    let closed = self.csol.restricted(read).reannotate_all_closed();
                    (closed, self.csol.adom_consts())
                } else {
                    (self.csol.reannotate_all_closed(), BTreeSet::new())
                };
                let budget = SearchBudget {
                    max_leaves: image_cap,
                    ..SearchBudget::closed_world()
                };
                (Cow::Owned(instance), palette, budget)
            }
            Regime::UniversalExistential => {
                // Prop 5: β = ¬φ(t̄) is ∃^l ∀* with l = the number of
                // universal variables of φ (they become β's existential
                // block); the counterexample needs at most l·arity(τ)
                // external constants.
                let l = classify::universal_var_count(&query.formula);
                let max_arity = self.mapping.target.max_arity().max(1);
                let mut prop5 = SearchBudget::universal_existential(l.max(1), max_arity);
                // The Prop 5 space is exhaustive but exponential in the
                // extras pool (every subset of the replicated tuples is a
                // member), so a certain tuple over a pool of n extras costs
                // 2^n leaves. Honor the caller's leaf cap — or the default
                // cap when none is given — and let the Capped completeness
                // report the truncation.
                prop5.max_leaves =
                    budget.map_or(SearchBudget::default().max_leaves, |b| b.max_leaves);
                (Cow::Borrowed(&*self.csol), BTreeSet::new(), prop5)
            }
            Regime::ClosedWorld => (
                Cow::Borrowed(&*self.csol),
                BTreeSet::new(),
                SearchBudget::closed_world(),
            ),
            // An explicit caller budget always wins (e.g. exhaustive
            // Lemma 2 runs).
            _ => (
                Cow::Borrowed(&*self.csol),
                BTreeSet::new(),
                budget.cloned().unwrap_or_default(),
            ),
        };
        WitnessSpace {
            instance,
            palette,
            budget,
            exact: regime.is_exact(),
        }
    }

    /// The certain answers among `candidates` of the non-positive query of
    /// `ev`, refuted under `regime` by one sweep per palette group, with
    /// the worst per-group completeness. Every refuting leaf is handed to
    /// `on_refute` with the candidates it refuted; the batch entry points
    /// pass an empty callback, a stream session keeps the witnesses.
    pub(crate) fn refute_candidates(
        &self,
        ev: &QueryEval,
        regime: Regime,
        candidates: Vec<Tuple>,
        budget: Option<&SearchBudget>,
        image_cap: Option<u64>,
        on_refute: &mut dyn FnMut(&Leaf<'_>, Vec<Tuple>),
    ) -> (Relation, Completeness) {
        let query = ev.query();
        let space = self.witness_space(ev, regime, budget, image_cap);
        let mut rel = Relation::new(query.arity());
        let mut completeness = Completeness::Exact;
        for (mut palette, group) in
            palette_groups(query.formula.constants(), candidates, &self.csol)
        {
            palette.extend(&space.palette);
            let (survivors, outcome) = refutation_sweep(
                ev,
                &space.instance,
                &palette,
                &space.budget,
                group,
                on_refute,
            );
            completeness = completeness.worse(outcome_completeness(&outcome, space.exact));
            for t in survivors {
                rel.insert(t);
            }
        }
        (rel, completeness)
    }

    /// Compute the certain-answer relation. Candidate tuples range over
    /// `(adom(S) ∪ constants(Q))^arity`; by genericity no other constant
    /// can be certain. The query compiles once (via the shared
    /// [`PlanCatalog`]) and every candidate reuses the plan.
    ///
    /// * A *positive* query is Proposition 3's naive evaluation: one
    ///   set-valued plan execution filtered to the candidate palette (the
    ///   compiled answers are domain independent), or, for a query that
    ///   did not compile, one copy of the csol's relational part checked
    ///   per candidate.
    /// * Any other query is one refutation sweep per palette group over
    ///   the witness space [`Exchange::certain_contains`] picks, with the
    ///   answers and completeness (the worst per-tuple one) of
    ///   `certain_contains` on every candidate (see the module docs).
    pub fn certain_answers(
        &self,
        query: &Query,
        budget: Option<&SearchBudget>,
    ) -> (Relation, Completeness) {
        self.certain_answers_capped(query, budget, None)
    }

    /// [`Exchange::certain_answers`] with the Proposition 4 image sweep of a
    /// monotone query capped at `image_cap` leaves per palette group. A
    /// capped sweep reports [`Completeness::Capped`] and answers a superset
    /// of the certain answers (candidates it did not get to refute).
    pub(crate) fn certain_answers_capped(
        &self,
        query: &Query,
        budget: Option<&SearchBudget>,
        image_cap: Option<u64>,
    ) -> (Relation, Completeness) {
        let palette = crate::regimes::answer_palette(self.source, query);
        let ev = PlanCatalog::shared().eval_in(query, &self.mapping.target);

        if classify::is_positive(&query.formula) {
            let rel = if ev.is_compiled() {
                // Boolean positive queries: the set computation already
                // covers the single empty candidate.
                let rows = ev.naive_certain_answers(&self.csol.rel_part());
                let in_palette = rows
                    .iter()
                    .filter(|t| t.consts().all(|c| palette.contains(&c)));
                Relation::from_tuples(query.arity(), in_palette.cloned())
            } else {
                let consts: Vec<ConstId> = palette.into_iter().collect();
                let inst = self.csol.rel_part();
                let certain = candidate_tuples(&consts, query.arity())
                    .into_iter()
                    .filter(|t| ev.holds_on(&inst, t));
                Relation::from_tuples(query.arity(), certain)
            };
            return (rel, Completeness::Exact);
        }

        let consts: Vec<ConstId> = palette.into_iter().collect();
        let candidates = candidate_tuples(&consts, query.arity());
        let regime = self.refutation_regime(&ev);
        self.refute_candidates(&ev, regime, candidates, budget, image_cap, &mut |_, _| {})
    }

    /// Certain answers under the **1-to-m** reading of open nulls (the
    /// paper's §6 extension): every open position may be instantiated by
    /// at most `m` distinct values. For `m = 1` this coincides with the
    /// CWA; as `m` grows the answers shrink towards the fully-open
    /// semantics. The witness space is finite, so the decision is
    /// **exact** for every query class — "all the complexity results about
    /// CWA mappings apply to this case" (§6).
    pub fn certain_contains_one_to_m(
        &self,
        query: &Query,
        tuple: &Tuple,
        m: usize,
    ) -> CertainOutcome {
        assert!(m >= 1, "1-to-m needs m ≥ 1");
        assert_eq!(tuple.arity(), query.arity(), "answer-tuple arity mismatch");
        let ev = PlanCatalog::shared().eval_in(query, &self.mapping.target);
        // Positive queries: naive evaluation is still exact (Prop 3 holds
        // for every solution notion between CWA and OWA).
        if classify::is_positive(&query.formula) {
            return naive_outcome(ev.holds_on(&self.csol.rel_part(), tuple));
        }
        let query_consts = tuple_palette(query.formula.constants(), tuple);
        // Count the open templates of CSol_A (tuples with an open position
        // and all-open empty markers) — they bound the extra-tuple space.
        let open_templates: usize = self
            .csol
            .relations()
            .map(|(_, rel)| {
                rel.iter().filter(|at| at.ann.count_open() > 0).count()
                    + usize::from(rel.has_all_open_empty_mark())
            })
            .sum();
        let budget = SearchBudget::one_to_m(m, open_templates, self.mapping.target.max_arity());
        let (_, outcome) = refutation_sweep(
            &ev,
            &self.csol,
            &query_consts,
            &budget,
            vec![tuple.clone()],
            &mut |_, _| {},
        );
        refutation_outcome(outcome, Regime::OpenBounded, true, &self.csol)
    }

    /// Positive-query certain answers in the presence of **target
    /// dependencies** (§6 / [Hernich–Schweikardt'07]): chase `CSol_A(S)`
    /// with the (weakly acyclic) dependencies on this exchange's
    /// [`dx_chase::ChaseStrategy`], then evaluate naively on the chased
    /// instance. Returns `None` when the chase fails (an egd clashes on
    /// constants — no solution exists, so every tuple is vacuously
    /// certain) or hits its step limit. Chase results differ across
    /// strategies only up to homomorphic equivalence, which preserves
    /// ground positive answers — so the returned relation is strategy
    /// independent.
    pub fn certain_positive_with_deps(
        &self,
        deps: &[TargetDep],
        query: &Query,
        max_steps: usize,
    ) -> Option<Relation> {
        assert!(
            classify::is_positive(&query.formula),
            "the chased-naive pipeline is exact for positive queries only"
        );
        let mut gen = NullGen::after(self.csol.nulls());
        let chased = self
            .strategy
            .chase(self.csol.clone().into_owned(), deps, &mut gen, max_steps);
        match chased.outcome {
            dx_chase::ChaseOutcome::Satisfied => Some(
                PlanCatalog::shared()
                    .eval_in(query, &self.mapping.target)
                    .naive_certain_answers(&chased.instance.rel_part()),
            ),
            _ => None,
        }
    }

    /// The dual of certain answers: is `t̄` a **possible** answer — in
    /// `Q(R)` for at least one `R ∈ ⟦S⟧_Σα`? Decided by direct witness
    /// search over the same `Rep_A(CSol_A(S))` space the certain-answer
    /// engines refute over; a positive answer is always definitive, a
    /// negative one carries the search's completeness (possibility is
    /// NP-hard in the same regimes where certainty is coNP-hard).
    pub fn possible_contains(
        &self,
        query: &Query,
        tuple: &Tuple,
        budget: Option<&SearchBudget>,
    ) -> CertainOutcome {
        assert_eq!(tuple.arity(), query.arity(), "answer-tuple arity mismatch");
        assert!(tuple.is_ground(), "possible answers are tuples over Const");
        let query_consts = tuple_palette(query.formula.constants(), tuple);
        let closed = self.mapping.is_all_closed();
        let search_budget = if closed {
            SearchBudget::closed_world()
        } else {
            budget.cloned().unwrap_or_default()
        };
        let ev = PlanCatalog::shared().eval_in(query, &self.mapping.target);
        let mut check =
            |leaf: &Leaf| ev.holds_on_indexed(leaf.index(), || leaf.index().to_instance(), tuple);
        let outcome = search_rep_a_indexed(&self.csol, &query_consts, &search_budget, &mut check);
        let regime = if closed {
            Regime::ClosedWorld
        } else {
            Regime::OpenBounded
        };
        let out = refutation_outcome(outcome, regime, closed, &self.csol);
        // The search looks for a witness, not a counterexample: finding
        // one proves possibility.
        CertainOutcome {
            certain: !out.certain,
            ..out
        }
    }
}

/// The witness space of a refutation: the annotated instance searched
/// (`CSol_A(S)`, or the all-closed reading of the relations the query
/// reads for the Proposition 4 image sweep), the constants every search
/// adds to its palette (the csol's, when the instance is a restriction of
/// it), the search budget, and whether that space is exhaustive for the
/// query class (then an uncapped search is [`Completeness::Exact`]).
struct WitnessSpace<'a> {
    instance: Cow<'a, AnnInstance>,
    palette: BTreeSet<ConstId>,
    budget: SearchBudget,
    exact: bool,
}

/// One `Rep_A(t)` search for a set of candidate tuples: every leaf drops
/// the candidates it refutes (those `ev` does not hold for) and hands them
/// with the leaf to `on_refute`, and the search stops once none survive.
/// Returns the survivors and the search outcome, whose witness — when the
/// sweep emptied — refuted the last survivor; the survivors are the
/// candidates a search for each alone finds no refutation for (DESIGN.md
/// §dx-core `regimes`).
pub(crate) fn refutation_sweep(
    ev: &QueryEval,
    t: &AnnInstance,
    palette: &BTreeSet<ConstId>,
    budget: &SearchBudget,
    mut survivors: Vec<Tuple>,
    on_refute: &mut dyn FnMut(&Leaf<'_>, Vec<Tuple>),
) -> (Vec<Tuple>, SearchOutcome) {
    let outcome = search_rep_a_indexed(t, palette, budget, &mut |leaf: &Leaf| {
        let mut refuted = Vec::new();
        survivors.retain(|c| {
            let holds = ev.holds_on_indexed(leaf.index(), || leaf.index().to_instance(), c);
            if !holds {
                refuted.push(c.clone());
            }
            holds
        });
        if !refuted.is_empty() {
            on_refute(leaf, refuted);
        }
        survivors.is_empty()
    });
    (survivors, outcome)
}

/// Split candidate tuples into **palette groups**: the candidates adding
/// the same constants beyond `adom(csol) ∪ consts(Q)`, whose per-tuple
/// searches share one palette. Returns each group's extra palette
/// (`consts(Q)` plus those constants) with its candidates. A single
/// candidate (every Boolean query) is its own group, without a pass over
/// the csol.
fn palette_groups(
    query_consts: BTreeSet<ConstId>,
    candidates: Vec<Tuple>,
    csol: &AnnInstance,
) -> Vec<(BTreeSet<ConstId>, Vec<Tuple>)> {
    if let [only] = candidates.as_slice() {
        return vec![(tuple_palette(query_consts, only), candidates)];
    }
    let mut shared = csol.adom_consts();
    shared.extend(query_consts.iter().copied());
    let mut groups: BTreeMap<BTreeSet<ConstId>, Vec<Tuple>> = BTreeMap::new();
    for t in candidates {
        let mut palette = query_consts.clone();
        palette.extend(t.consts().filter(|c| !shared.contains(c)));
        groups.entry(palette).or_default().push(t);
    }
    groups.into_iter().collect()
}

/// The extra palette constants of a per-tuple search (the paper's `C_φ`
/// for a refutation): the query's constants plus the tuple's.
pub(crate) fn tuple_palette(mut consts: BTreeSet<ConstId>, tuple: &Tuple) -> BTreeSet<ConstId> {
    consts.extend(tuple.consts());
    consts
}

/// The outcome of the Proposition 3 naive path (no search).
pub(crate) fn naive_outcome(certain: bool) -> CertainOutcome {
    CertainOutcome {
        certain,
        completeness: Completeness::Exact,
        regime: Regime::NaivePositive,
        counterexample: None,
        leaves: 0,
    }
}

/// The completeness of a refutation search: an `exact` witness space
/// upgrades every uncapped report to [`Completeness::Exact`].
pub(crate) fn outcome_completeness(outcome: &SearchOutcome, exact: bool) -> Completeness {
    match (outcome.completeness, exact) {
        (Completeness::Capped, _) => Completeness::Capped,
        (_, true) => Completeness::Exact,
        (c, false) => c,
    }
}

/// Turn a refutation search into a [`CertainOutcome`]: certain iff no
/// witness was found, with [`outcome_completeness`]. The witness is
/// materialized over the full `csol`, so a witness of a restricted space
/// (the Proposition 4 sweep reads only the query's relations) becomes a
/// member of `Rep_A(csol)`: the nulls it never valued take
/// [`Witness::free_const`](dx_solver::Witness::free_const).
pub(crate) fn refutation_outcome(
    outcome: SearchOutcome,
    regime: Regime,
    exact: bool,
    csol: &AnnInstance,
) -> CertainOutcome {
    CertainOutcome {
        certain: outcome.witness.is_none(),
        completeness: outcome_completeness(&outcome, exact),
        regime,
        counterexample: outcome.witness.as_ref().map(|w| w.to_instance(csol)),
        leaves: outcome.leaves,
    }
}

/// All candidate answer tuples over the palette (`consts^arity`; the single
/// empty tuple for Boolean queries, none when a non-Boolean query meets an
/// empty palette). Shared by the certain-answer sweeps above, the PTIME
/// language loop in [`crate::ptime_lang`] and the regime engines in
/// [`crate::regimes`].
pub(crate) fn candidate_tuples(consts: &[ConstId], arity: usize) -> Vec<Tuple> {
    if arity == 0 {
        return vec![Tuple::new(Vec::new())];
    }
    if consts.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(consts.len().pow(arity as u32));
    let mut idx = vec![0usize; arity];
    loop {
        out.push(Tuple::from_consts(
            &idx.iter().map(|&i| consts[i]).collect::<Vec<_>>(),
        ));
        let mut carry = 0usize;
        loop {
            if carry == arity {
                return out;
            }
            idx[carry] += 1;
            if idx[carry] < consts.len() {
                break;
            }
            idx[carry] = 0;
            carry += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_logic::{Formula, Term};
    use dx_relation::{Value, Var};

    fn papers_source() -> Instance {
        let mut s = Instance::new();
        s.insert_names("Papers", &["p1", "title1"]);
        s.insert_names("Papers", &["p2", "title2"]);
        s
    }

    /// The paper's §1 anomaly: "does every paper have exactly one author?"
    /// Under the CWA the certain answer is (counterintuitively) TRUE; with
    /// the author attribute opened it becomes FALSE.
    #[test]
    fn one_author_anomaly() {
        let one_author = Query::boolean(
            dx_logic::parse_formula(
                "forall p a1 a2. (Submissions(p, a1) & Submissions(p, a2) -> a1 = a2)",
            )
            .unwrap(),
        );
        let empty = Tuple::new(Vec::<Value>::new());

        // CWA: paper# and author both closed.
        let cwa = Mapping::parse("Submissions(x:cl, z:cl) <- Papers(x, y)").unwrap();
        let out = certain_contains(&cwa, &papers_source(), &one_author, &empty, None);
        assert!(out.certain, "CWA certain answer is true (the anomaly)");
        assert_eq!(out.regime, Regime::UniversalExistential);
        assert_eq!(out.completeness, Completeness::Exact);

        // Mixed: author open — replication gives a paper two authors.
        let mixed = Mapping::parse("Submissions(x:cl, z:op) <- Papers(x, y)").unwrap();
        let out = certain_contains(&mixed, &papers_source(), &one_author, &empty, None);
        assert!(!out.certain, "open author attribute defeats the anomaly");
        let cex = out.counterexample.expect("counterexample produced");
        // The counterexample is a genuine Rep_A member with a two-author paper.
        assert!(!one_author.holds_boolean(&cex));
    }

    /// Proposition 3: positive queries — naive evaluation, any annotation.
    #[test]
    fn positive_queries_use_naive_evaluation() {
        let q = Query::new(
            vec![Var::new("x")],
            dx_logic::parse_formula("exists z. Submissions(x, z)").unwrap(),
        );
        for rules in [
            "Submissions(x:cl, z:cl) <- Papers(x, y)",
            "Submissions(x:cl, z:op) <- Papers(x, y)",
            "Submissions(x:op, z:op) <- Papers(x, y)",
        ] {
            let m = Mapping::parse(rules).unwrap();
            let out = certain_contains(&m, &papers_source(), &q, &Tuple::from_names(&["p1"]), None);
            assert!(out.certain, "p1 has a submission under {rules}");
            assert_eq!(out.regime, Regime::NaivePositive);
            let out2 = certain_contains(
                &m,
                &papers_source(),
                &q,
                &Tuple::from_names(&["nope"]),
                None,
            );
            assert!(!out2.certain);
        }
    }

    /// Certain answers of a copying mapping with a negative query: the CWA
    /// answers definitely, the OWA cannot (certain answer false since
    /// arbitrary tuples may be added).
    #[test]
    fn copying_negation_cwa_vs_owa() {
        let q = Query::boolean(dx_logic::parse_formula("!exists x. Ep(x, 'c1')").unwrap());
        let m = Mapping::parse("Ep(x:cl, y:cl) <- E(x, y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("E", &["a", "b"]);
        let empty = Tuple::new(Vec::<Value>::new());
        // CWA: the target is exactly a copy, so no (·, c1) tuple exists.
        let out = certain_contains(&m, &s, &q, &empty, None);
        assert!(out.certain);
        // OWA: solutions may contain (x, c1) — not certain.
        let out = certain_contains(&m.all_open(), &s, &q, &empty, None);
        assert!(!out.certain);
    }

    /// Proposition 4: a CQ with an inequality is monotone; its certain
    /// answers reduce to □Q(CSol) — and nulls make a difference.
    #[test]
    fn monotone_inequality_query() {
        // Q(x): exists y z. R(x,y) & R(x,z) & y != z — "x has two values".
        let q = Query::new(
            vec![Var::new("x")],
            dx_logic::parse_formula("exists y z. R(x, y) & R(x, z) & y != z").unwrap(),
        );
        // Source with two facts for a (distinct constants) and one for b.
        let m = Mapping::parse("R(x:cl, y:cl) <- E(x, y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("E", &["a", "v1"]);
        s.insert_names("E", &["a", "v2"]);
        s.insert_names("E", &["b", "w"]);
        let out = certain_contains(&m, &s, &q, &Tuple::from_names(&["a"]), None);
        assert!(out.certain, "copied constants v1 ≠ v2 are certain");
        assert_eq!(out.regime, Regime::Monotone);
        // With nulls: R(x, z) :- E(x, y) creates two nulls for a, but a
        // valuation may merge them, so 'a' is NOT certain.
        let m2 = Mapping::parse("R(x:cl, z:cl) <- E(x, y)").unwrap();
        let out2 = certain_contains(&m2, &s, &q, &Tuple::from_names(&["a"]), None);
        assert!(!out2.certain, "nulls may collapse to one value");
    }

    /// Theorem 3(1): #op = 0 with a full-FO query — exact coNP decision.
    #[test]
    fn closed_world_full_fo_exact() {
        // Q: exists x y. Ep(x,y) & forall u v. (Ep(u,v) -> u = x) —
        // "all edges share one source" (not prenex ∀*∃*: full FO).
        let q = Query::boolean(
            dx_logic::parse_formula("exists x y. (Ep(x, y) & forall u v. (Ep(u, v) -> u = x))")
                .unwrap(),
        );
        let m = Mapping::parse("Ep(x:cl, z:cl) <- E(x, y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("E", &["a", "1"]);
        s.insert_names("E", &["a", "2"]);
        let empty = Tuple::new(Vec::<Value>::new());
        let out = certain_contains(&m, &s, &q, &empty, None);
        assert!(out.certain);
        assert_eq!(out.regime, Regime::ClosedWorld);
        assert_eq!(out.completeness, Completeness::Exact);
        // Two distinct sources: false.
        s.insert_names("E", &["b", "3"]);
        let out2 = certain_contains(&m, &s, &q, &empty, None);
        assert!(!out2.certain);
    }

    /// #op = 1 with a full-FO query: the bounded regime reports its
    /// completeness honestly.
    #[test]
    fn open_regime_reports_bounded() {
        let q = Query::boolean(
            dx_logic::parse_formula("exists x y. (R(x, y) & forall u v. (R(u, v) -> v = y))")
                .unwrap(),
        );
        let m = Mapping::parse("R(x:cl, z:op) <- E(x, y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("E", &["a", "b"]);
        let empty = Tuple::new(Vec::<Value>::new());
        let out = certain_contains(&m, &s, &q, &empty, None);
        assert_eq!(out.regime, Regime::OpenBounded);
        // Replication refutes the query: two R-tuples with different seconds.
        assert!(!out.certain);
    }

    /// Full certain-answer relation on the conference example.
    #[test]
    fn certain_answer_sets() {
        let m = Mapping::parse("Submissions(x:cl, z:op) <- Papers(x, y)").unwrap();
        let q = Query::new(
            vec![Var::new("x")],
            Formula::exists(
                vec![Var::new("z")],
                Formula::atom("Submissions", vec![Term::var("x"), Term::var("z")]),
            ),
        );
        let (rel, comp) = certain_answers(&m, &papers_source(), &q, None);
        assert_eq!(comp, Completeness::Exact);
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&Tuple::from_names(&["p1"])));
        assert!(rel.contains(&Tuple::from_names(&["p2"])));
    }

    /// Possible answers: certain ⇒ possible; a dropped attribute's value
    /// is possible but not certain; an unproducible value is neither.
    #[test]
    fn possible_answers_bracket_certain() {
        let m = Mapping::parse("Sub2(x:cl, z:cl) <- Papers(x, y)").unwrap();
        let q = Query::parse(&["a"], "exists p. Sub2(p, a)").unwrap();
        let s = papers_source();
        // "alice" is a possible author (the null can be valued to it)...
        let ex = Exchange::new(&m, &s);
        let possible = ex.possible_contains(&q, &Tuple::from_names(&["alice"]), None);
        assert!(possible.certain, "possible witness exists");
        assert_eq!(possible.completeness, Completeness::Exact);
        // ...but not a certain one.
        let certain = certain_contains(&m, &s, &q, &Tuple::from_names(&["alice"]), None);
        assert!(!certain.certain);
        // A paper id in the first column IS certain — and hence possible.
        let q_keys = Query::parse(&["p"], "exists a. Sub2(p, a)").unwrap();
        let t = Tuple::from_names(&["p1"]);
        assert!(certain_contains(&m, &s, &q_keys, &t, None).certain);
        assert!(ex.possible_contains(&q_keys, &t, None).certain);
        // An id never exchanged is not even possible (closed key column).
        let bad = Tuple::from_names(&["ghost"]);
        let out = ex.possible_contains(&q_keys, &bad, None);
        assert!(!out.certain);
        assert_eq!(out.completeness, Completeness::Exact);
    }

    /// Proposition 2 sanity: certain_Σop ⊆ certain_Σα ⊆ certain_Σcl on a
    /// query where they differ.
    #[test]
    fn certain_monotone_in_annotation() {
        let q = Query::boolean(
            dx_logic::parse_formula(
                "forall p a1 a2. (Submissions(p, a1) & Submissions(p, a2) -> a1 = a2)",
            )
            .unwrap(),
        );
        let empty = Tuple::new(Vec::<Value>::new());
        let mixed = Mapping::parse("Submissions(x:cl, z:op) <- Papers(x, y)").unwrap();
        let s = papers_source();
        let owa = certain_owa(&mixed, &s, &q, &empty, None).certain;
        let mid = certain_contains(&mixed, &s, &q, &empty, None).certain;
        let cwa = certain_cwa(&mixed, &s, &q, &empty).certain;
        assert!(!owa && !mid && cwa);
        // Inclusions: owa ⇒ mid ⇒ cwa.
        assert!(!owa || mid);
        assert!(!mid || cwa);
    }
}
