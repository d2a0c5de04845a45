//! Non-monotonic query-answering **regimes** on compiled plans: GCWA\* and
//! approximation semantics.
//!
//! The paper's certain-answer pipelines ([`crate::certain`]) quantify over
//! *all* of `Rep_A(CSol_A(S))` — under which non-monotonic queries behave
//! badly (the §1 anomaly: "every paper has exactly one author" is certainly
//! TRUE under the CWA). Two ROADMAP-named follow-up works refine the
//! solution space instead of the query class; this module ships both as
//! first-class regimes over the same substrate:
//!
//! * **GCWA\*-answers** (Hernich, *Answering Non-Monotonic Queries in
//!   Relational Data Exchange*, LMCS 2011 / arXiv:1107.1456): certain
//!   answers over the **GCWA\*-solutions** — the unions of ⊆-minimal
//!   solutions. Minimal solutions ignore spurious replication, and unions
//!   re-introduce exactly the uncertainty the source justifies: the §1
//!   anomaly flips to FALSE because two minimal solutions with different
//!   authors union into a two-author solution. See
//!   [`Exchange::gcwa_star_answers`] / [`Exchange::gcwa_star_contains`].
//! * **Approximation semantics** (after Calautti, Greco, Molinaro &
//!   Trubitsyna, *Querying Data Exchange Settings Beyond Positive
//!   Queries*): for queries outside the positive fragment, bracket the
//!   exact certain answers between a **sound under-approximation** and a
//!   **complete over-approximation**, both obtained by monotone query
//!   surgery ([`dx_logic::classify::monotone_under_approx`] /
//!   [`dx_logic::classify::monotone_over_approx`]) plus an indexed sample
//!   intersection. See [`Exchange::approx_certain_answers`].
//!
//! ## Monotone queries: Proposition 4, not the walk
//!
//! For a monotone query ([`classify::is_monotone`], positive included) the
//! GCWA\*-answers *are* the certain answers, and so is a tight
//! approximation bracket (the lemma and its proof are in DESIGN.md
//! §dx-core `regimes`). Both answer-set methods send such queries to the
//! Proposition 4 image sweep of [`Exchange::certain_answers`] and say so in
//! their `route` field ([`GcwaRoute::Monotone`], [`ApproxRoute::Monotone`]).
//! [`Exchange::gcwa_star_contains`] keeps the walk (its counterexample is a
//! union of minimal members), as do queries monotone only modulo rigid
//! relations.
//!
//! ## Complexity boundaries
//!
//! GCWA\*-answering is **coNP-hard** already for universal queries over
//! CWA-style mappings (Hernich); here the cost splits into (a) the minimal-
//! solution sweep — one valuation DFS, polynomial per valuation, and
//! PTIME in total for Codd-table canonical solutions whose null count is
//! bounded — and (b) the union walk, `Σ_{i≤k} C(m, i)` unions for `m`
//! minimal solutions under a union-size cap `k` (exponential in `m` when
//! uncapped — the source of the coNP lower bound). The approximation
//! regime is the PTIME counterpoint: the under/over rewritings land in the
//! Proposition 3/4 classes (naive evaluation / `□Q(CSol)`), and the sample
//! intersection costs one plan probe per (leaf, surviving candidate) on
//! the search's incrementally maintained index.
//!
//! ## One index build per scenario
//!
//! Both regimes are **plan-first**: queries compile once through the shared
//! [`PlanCatalog`] and every candidate evaluation probes a live store —
//! [`dx_solver::for_each_union`] composes unions by refcounted private
//! deltas over the minimal solutions' common base on one `DeltaIndex`,
//! and the sampler probes [`dx_solver::Leaf::index`]. The rebuild-per-candidate baseline
//! (the candidate materialized and a fresh `DeltaIndex` built per union
//! or leaf) exists only in the bench harness (`BENCH_query.json`, stages
//! `gcwa`/`approx`) to keep the speedup measured.

use crate::certain::{candidate_tuples, refutation_sweep};
use crate::Exchange;
use dx_chase::Mapping;
use dx_logic::classify;
use dx_logic::{Formula, Query, Term};
use dx_query::PlanCatalog;
use dx_relation::{AnnInstance, ConstId, Instance, RelSym, Relation, Tuple};
use dx_solver::{for_each_union, minimal_rep_a_members, Completeness, SearchBudget};
use std::collections::BTreeSet;

/// Budget for the GCWA\* regime.
#[derive(Clone, Debug)]
pub struct RegimeBudget {
    /// Maximum number of minimal solutions per union (Hernich's answers
    /// need unions of unbounded size in general; small caps are complete
    /// for correspondingly shaped queries and keep the walk polynomial).
    /// `usize::MAX` = all nonempty subsets.
    pub max_union_size: usize,
    /// Cap on the number of minimal solutions considered (combinatorial
    /// guard; exceeding it marks the outcome [`Completeness::Capped`]).
    pub max_minimal_solutions: usize,
    /// Cap on the valuation sweep of the minimal-solution enumeration.
    pub max_leaves: Option<u64>,
}

impl Default for RegimeBudget {
    fn default() -> Self {
        RegimeBudget {
            max_union_size: usize::MAX,
            max_minimal_solutions: 12,
            max_leaves: Some(2_000_000),
        }
    }
}

impl RegimeBudget {
    /// An explicit union-size cap with unbounded minimal-solution count —
    /// the polynomial GCWA\* slices (`k`-bounded unions).
    pub fn unions_of(k: usize) -> Self {
        RegimeBudget {
            max_union_size: k,
            max_minimal_solutions: usize::MAX,
            max_leaves: None,
        }
    }
}

/// The procedure that decided a GCWA\* answer set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GcwaRoute {
    /// The query is monotone ([`classify::is_monotone`], positive
    /// included), so its GCWA\*-answers are its certain answers, decided
    /// by [`Exchange::certain_answers`] (Proposition 3, or Proposition 4's
    /// valuation-image sweep under the budget's leaf cap); no minimal
    /// member is enumerated and no union is walked.
    Monotone,
    /// The minimal-member sweep and the union walk.
    UnionWalk,
}

/// Outcome of a GCWA\* answer-set computation.
#[derive(Clone, Debug)]
pub struct GcwaOutcome {
    /// The GCWA\*-answers over the candidate palette
    /// `(adom(S) ∪ constants(Q))^arity`.
    pub answers: Relation,
    /// Whether the minimal-solution space and the union space were covered
    /// exhaustively ([`Completeness::Exact`]), truncated by the budget
    /// ([`Completeness::Bounded`]/[`Completeness::Capped`]).
    pub completeness: Completeness,
    /// The procedure that decided.
    pub route: GcwaRoute,
    /// Number of ⊆-minimal solutions found (after the budget cap); 0 on
    /// the monotone route, which enumerates none.
    pub minimal_solutions: usize,
    /// Number of unions evaluated; 0 on the monotone route.
    pub unions: u64,
}

/// Outcome of a single GCWA\* membership decision.
#[derive(Clone, Debug)]
pub struct GcwaMembership {
    /// Is the tuple a GCWA\*-answer (no falsifying union found)?
    pub certain: bool,
    /// Coverage of the minimal-solution/union spaces.
    pub completeness: Completeness,
    /// A GCWA\*-solution (union of minimal solutions) falsifying the query,
    /// when `certain == false`.
    pub counterexample: Option<Instance>,
    /// Number of ⊆-minimal solutions found (after the budget cap).
    pub minimal_solutions: usize,
    /// Number of unions evaluated.
    pub unions: u64,
}

/// The GCWA\*-answers of `query` on `(mapping, source)` (see
/// [`Exchange::gcwa_star_answers`]); a free function because the
/// benchmark (`perfbench`) calls it.
pub fn gcwa_star_answers(
    mapping: &Mapping,
    source: &Instance,
    query: &Query,
    budget: &RegimeBudget,
) -> GcwaOutcome {
    Exchange::new(mapping, source).gcwa_star_answers(query, budget)
}

/// The budgeted minimal-solution enumeration shared by the GCWA\*
/// methods; a union-size cap below the number of minimal solutions makes
/// the walk [`Completeness::Bounded`].
fn minimal_solutions(
    csol: &AnnInstance,
    palette: &BTreeSet<ConstId>,
    budget: &RegimeBudget,
) -> (Vec<Instance>, Completeness) {
    let (mut minimal, mut completeness) = minimal_rep_a_members(csol, palette, budget.max_leaves);
    if minimal.len() > budget.max_minimal_solutions {
        minimal.truncate(budget.max_minimal_solutions);
        completeness = Completeness::Capped;
    }
    if budget.max_union_size < minimal.len() {
        completeness = completeness.worse(Completeness::Bounded);
    }
    (minimal, completeness)
}

/// The procedure that decided an approximation bracket.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ApproxRoute {
    /// The query is monotone ([`classify::is_monotone`], positive
    /// included): the exact certain answers of
    /// [`Exchange::certain_answers`], a tight bracket.
    Monotone,
    /// All-closed mapping: the exact, search-free conditional-table route
    /// ([`Exchange::certain_answers_cwa_fo`]), a tight bracket.
    CTable,
    /// The monotone under/over rewritings, with the upper bound tightened
    /// by a sampled `Rep_A` sweep.
    Sampled,
}

/// Outcome of the approximation regime: a certain-answer **bracket**
/// `lower ⊆ certain_Σα(Q, S) ⊆ upper`.
#[derive(Clone, Debug)]
pub struct ApproxOutcome {
    /// Sound under-approximation: every tuple here is a genuine certain
    /// answer (certain answers of the monotone under-rewriting, exact by
    /// Propositions 3/4).
    pub lower: Relation,
    /// Complete over-approximation: every genuine certain answer is here
    /// (certain answers of the monotone over-rewriting, intersected with
    /// the answers on every sampled `Rep_A` member).
    pub upper: Relation,
    /// Coverage of the sampling space: [`Completeness::Exact`] means the
    /// member space was exhausted, so `upper` *is* the exact answer set.
    pub completeness: Completeness,
    /// Did the bracket close (`lower == upper`)? Then both are exact.
    pub tight: bool,
    /// The procedure that decided.
    pub route: ApproxRoute,
    /// Number of members sampled by the intersection stage.
    pub leaves: u64,
}

/// The Calautti-style approximation bracket of `certain_Σα(Q, S)` (see
/// [`Exchange::approx_certain_answers`]); a free function because the
/// benchmark (`perfbench`) calls it.
pub fn approx_certain_answers(
    mapping: &Mapping,
    source: &Instance,
    query: &Query,
    sample: Option<&SearchBudget>,
) -> ApproxOutcome {
    Exchange::new(mapping, source).approx_certain_answers(query, sample)
}

impl Exchange<'_> {
    /// The GCWA\*-answers of `query`: tuples `t̄` with `Q(t̄)` true in
    /// **every union of ⊆-minimal members** of `Rep_A(CSol_A(S))` (within
    /// `budget`). For queries with negation this is Hernich's repair of
    /// the CWA anomalies.
    ///
    /// A **monotone** query ([`classify::is_monotone`], positive included)
    /// takes [`GcwaRoute::Monotone`]: its GCWA\*-answers are its certain
    /// answers (see the module docs), decided by the Proposition 4 image
    /// sweep with `budget.max_leaves` as its leaf cap per palette group; a
    /// capped sweep reports [`Completeness::Capped`] and a superset, as a
    /// capped minimal-member sweep does. Every other query takes
    /// [`GcwaRoute::UnionWalk`]: the query compiles once (shared
    /// [`PlanCatalog`]) and every union probes the one refcounted
    /// [`dx_relation::DeltaIndex`] of [`dx_solver::for_each_union`].
    pub fn gcwa_star_answers(&self, query: &Query, budget: &RegimeBudget) -> GcwaOutcome {
        if classify::is_monotone(&query.formula) {
            let (answers, completeness) =
                self.certain_answers_capped(query, None, budget.max_leaves);
            return GcwaOutcome {
                answers,
                completeness,
                route: GcwaRoute::Monotone,
                minimal_solutions: 0,
                unions: 0,
            };
        }
        let ev = PlanCatalog::shared().eval_in(query, &self.mapping.target);
        let palette = answer_palette(self.source, query);
        let (minimal, completeness) = minimal_solutions(&self.csol, &palette, budget);
        let consts: Vec<ConstId> = palette.into_iter().collect();
        let mut survivors = candidate_tuples(&consts, query.arity());
        let unions = for_each_union(&minimal, budget.max_union_size, &mut |store| {
            survivors.retain(|t| ev.holds_on_indexed(store, || store.to_instance(), t));
            survivors.is_empty()
        });
        GcwaOutcome {
            answers: Relation::from_tuples(query.arity(), survivors),
            completeness,
            route: GcwaRoute::UnionWalk,
            minimal_solutions: minimal.len(),
            unions,
        }
    }

    /// Decide `t̄ ∈ GCWA*-answers(Q, S)` directly, producing the falsifying
    /// union when the answer is negative (the Hernich counterpart of
    /// [`Exchange::certain_contains`]'s counterexample). Every query walks
    /// the unions, monotone ones included: the counterexample must be a
    /// union of minimal members, which the monotone route never builds.
    pub fn gcwa_star_contains(
        &self,
        query: &Query,
        tuple: &Tuple,
        budget: &RegimeBudget,
    ) -> GcwaMembership {
        assert_eq!(tuple.arity(), query.arity(), "answer-tuple arity mismatch");
        assert!(tuple.is_ground(), "GCWA*-answers are tuples over Const");
        let ev = PlanCatalog::shared().eval_in(query, &self.mapping.target);
        let mut palette = answer_palette(self.source, query);
        palette.extend(tuple.consts());
        let (minimal, completeness) = minimal_solutions(&self.csol, &palette, budget);
        let mut counterexample = None;
        let unions = for_each_union(&minimal, budget.max_union_size, &mut |store| {
            if ev.holds_on_indexed(store, || store.to_instance(), tuple) {
                return false;
            }
            counterexample = Some(store.to_instance());
            true
        });
        GcwaMembership {
            certain: counterexample.is_none(),
            completeness,
            counterexample,
            minimal_solutions: minimal.len(),
            unions,
        }
    }

    /// The Calautti-style approximation of `certain_Σα(Q, S)` for queries
    /// with negation: a PTIME-rewriting bracket tightened by an indexed
    /// sample intersection (see the module docs). Guarantees
    /// `lower ⊆ certain_Σα(Q, S) ⊆ upper` — w.r.t. both the true semantics
    /// and the budget-restricted member space, provided `sample` does not
    /// cap the valuation sweep.
    ///
    /// Monotone queries ([`classify::is_monotone`]) short-circuit to their
    /// exact certain answers ([`ApproxRoute::Monotone`]): a monotone query
    /// is its own under-rewriting, so this is the exact lower bound the
    /// rewriting route would compute first, and `sample` does not cap it.
    /// On **all-closed** mappings every query but a positive one (whose
    /// naive evaluation is cheaper) instead takes the search-free
    /// conditional-table route ([`Exchange::certain_answers_cwa_fo`],
    /// [`ApproxRoute::CTable`]). Both return a tight bracket.
    pub fn approx_certain_answers(
        &self,
        query: &Query,
        sample: Option<&SearchBudget>,
    ) -> ApproxOutcome {
        let exact = |rel: Relation, completeness, route| ApproxOutcome {
            lower: rel.clone(),
            upper: rel,
            completeness,
            tight: true,
            route,
            leaves: 0,
        };
        // The CWA route: for all-closed mappings the Imieliński–Lipski
        // engine answers full FO exactly and search-free — a closed
        // bracket.
        if self.mapping.is_all_closed() && !classify::is_positive(&query.formula) {
            if let Ok(rel) = self.certain_answers_cwa_fo(query) {
                return exact(rel, Completeness::Exact, ApproxRoute::CTable);
            }
        }
        if classify::is_monotone(&query.formula) {
            let (rel, completeness) = self.certain_answers(query, None);
            return exact(rel, completeness, ApproxRoute::Monotone);
        }
        // Rigid-negation tightening: negated atoms over relations whose
        // extension is pinned across the whole member space (ground + fully
        // closed in the canonical solution — `classify::rigid_relations_of`)
        // survive the monotone surgery instead of eroding to the lattice
        // corners, so strictly more of the query reaches both bounds. The
        // bounds stay exactly computable: the surgered queries are
        // monotone-modulo-rigid, which `certain_answers` decides on the
        // extras-free valuation-image sweep.
        let rigid = classify::rigid_relations_of(&query.formula, &self.csol);
        let (under, over) = under_over_queries_rigid(query, &rigid);
        let (lower, _) = self.certain_answers(&under, None);
        let (upper0, _) = self.certain_answers(&over, None);
        let ev = PlanCatalog::shared().eval_in(query, &self.mapping.target);
        let palette = answer_palette(self.source, query);
        let budget = sample.cloned().unwrap_or_default();
        let (survivors, outcome) = refutation_sweep(
            &ev,
            &self.csol,
            &palette,
            &budget,
            upper0.iter().cloned().collect(),
            &mut |_, _| {},
        );
        let upper = Relation::from_tuples(query.arity(), survivors);
        let tight = lower == upper;
        ApproxOutcome {
            lower,
            upper,
            completeness: outcome.completeness,
            tight,
            route: ApproxRoute::Sampled,
            leaves: outcome.leaves,
        }
    }
}

/// The monotone under/over rewritings of `query`, as queries over the same
/// head. The over-rewriting additionally keeps every constant of the
/// original formula in scope (via trivially-true `c = c` conjuncts), so the
/// candidate palette of its certain answers covers the original query's —
/// erasure must not shrink the over-approximation's candidate space.
pub fn under_over_queries(query: &Query) -> (Query, Query) {
    under_over_queries_rigid(query, &BTreeSet::new())
}

/// [`under_over_queries`] with **rigid negation kept**: negated atoms over
/// the `rigid` relations (see [`dx_logic::classify::rigid_relations_of`])
/// survive both rewritings — they are member-invariant, so keeping them is
/// sound in both directions and tightens the bracket from both sides. The
/// surgered queries satisfy [`classify::is_monotone_rigid`] for the same
/// rigid set, which keeps their certain answers exactly computable.
pub fn under_over_queries_rigid(query: &Query, rigid: &BTreeSet<RelSym>) -> (Query, Query) {
    let under = Query::new(
        query.head.clone(),
        classify::monotone_under_approx_rigid(&query.formula, rigid),
    );
    let keep_consts = query
        .formula
        .constants()
        .into_iter()
        .map(|c| Formula::eq(Term::Const(c), Term::Const(c)));
    let over = Query::new(
        query.head.clone(),
        Formula::and(
            std::iter::once(classify::monotone_over_approx_rigid(&query.formula, rigid))
                .chain(keep_consts),
        ),
    );
    (under, over)
}

/// The candidate/valuation palette of an answer computation over
/// `(mapping, source, query)`: the source's constants plus the query's —
/// by genericity no other constant can be a certain (or GCWA\*/bracket)
/// answer. Per-tuple deciders additionally extend this with the probed
/// tuple's constants.
pub fn answer_palette(source: &Instance, query: &Query) -> BTreeSet<ConstId> {
    let mut palette: BTreeSet<ConstId> = source.adom_consts();
    palette.extend(query.formula.constants());
    palette
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_relation::{Value, Var};

    fn papers_source() -> Instance {
        let mut s = Instance::new();
        s.insert_names("RgPapers", &["p1", "title1"]);
        s
    }

    /// The Hernich repair of the §1 anomaly: under the CWA the one-author
    /// query is certainly TRUE (the null takes one value per solution), but
    /// under GCWA\* two minimal solutions with different authors union into
    /// a two-author GCWA\*-solution — the answer flips to FALSE, matching
    /// the intuition the paper opens with.
    #[test]
    fn gcwa_star_defeats_the_one_author_anomaly() {
        let q = Query::boolean(
            dx_logic::parse_formula("forall p a1 a2. (RgSub(p, a1) & RgSub(p, a2) -> a1 = a2)")
                .unwrap(),
        );
        let m = Mapping::parse("RgSub(x:cl, z:cl) <- RgPapers(x, y)").unwrap();
        let s = papers_source();
        let empty = Tuple::new(Vec::<Value>::new());
        // CWA certain answer: TRUE (the anomaly).
        let cwa = crate::certain::certain_contains(&m, &s, &q, &empty, None);
        assert!(cwa.certain);
        // GCWA*: FALSE, with a two-author counterexample union.
        let out = Exchange::new(&m, &s).gcwa_star_contains(&q, &empty, &RegimeBudget::default());
        assert!(!out.certain, "unions of minimal solutions break uniqueness");
        let cex = out.counterexample.expect("falsifying union produced");
        assert!(!q.holds_boolean(&cex));
        assert!(out.minimal_solutions >= 2);
    }

    /// Positive queries: GCWA*-answers coincide with the certain answers
    /// (monotone truth on minimal solutions ⇔ on unions ⇔ on all members).
    #[test]
    fn gcwa_star_equals_certain_on_positive_queries() {
        let q = Query::new(
            vec![Var::new("x")],
            dx_logic::parse_formula("exists z. RgSub(x, z)").unwrap(),
        );
        for rules in [
            "RgSub(x:cl, z:cl) <- RgPapers(x, y)",
            "RgSub(x:cl, z:op) <- RgPapers(x, y)",
        ] {
            let m = Mapping::parse(rules).unwrap();
            let s = papers_source();
            let out = gcwa_star_answers(&m, &s, &q, &RegimeBudget::default());
            let (cert, _) = crate::certain::certain_answers(&m, &s, &q, None);
            assert_eq!(out.answers, cert, "{rules}");
            assert!(out.answers.contains(&Tuple::from_names(&["p1"])));
        }
    }

    /// Negation certain under GCWA\*: a fact never produced stays absent in
    /// every minimal solution and every union, so its negation is a
    /// GCWA\*-answer — while under the OWA it is not certain.
    #[test]
    fn gcwa_star_supports_negative_facts() {
        let q = Query::boolean(dx_logic::parse_formula("!exists x. RgSub(x, 'ghost')").unwrap());
        let m = Mapping::parse("RgSub(x:op, y:op) <- RgPapers(x, y)").unwrap();
        let s = papers_source();
        let empty = Tuple::new(Vec::<Value>::new());
        let owa = crate::certain::certain_contains(&m, &s, &q, &empty, None);
        assert!(!owa.certain, "OWA admits arbitrary extra tuples");
        let out = Exchange::new(&m, &s).gcwa_star_contains(&q, &empty, &RegimeBudget::default());
        assert!(out.certain, "no minimal solution invents (·, ghost)");
    }

    /// The approximation bracket on the one-author query with an open
    /// author attribute: lower is empty (sound), upper is empty too once
    /// the sampler sees a replicated two-author member — a closed bracket
    /// agreeing with the exact answer.
    #[test]
    fn approx_brackets_the_open_one_author_query() {
        let q = Query::boolean(
            dx_logic::parse_formula("forall p a1 a2. (RgSub2(p, a1) & RgSub2(p, a2) -> a1 = a2)")
                .unwrap(),
        );
        let m = Mapping::parse("RgSub2(x:cl, z:op) <- RgPapers(x, y)").unwrap();
        let s = papers_source();
        let out = approx_certain_answers(&m, &s, &q, None);
        assert!(out.lower.is_empty());
        assert!(out.upper.is_empty(), "replication falsifies uniqueness");
        assert!(out.tight);
        assert!(out.leaves > 0);
    }

    /// All-closed mappings take the exact conditional-table route: the
    /// bracket closes without any sampling.
    #[test]
    fn approx_is_exact_under_the_cwa_route() {
        let q = Query::parse(&["x"], "(exists y. RgT(x, y)) & !RgU(x)").unwrap();
        let m = Mapping::parse("RgT(x:cl, y:cl) <- RgA(x, y); RgU(x:cl) <- RgB(x)").unwrap();
        let mut s = Instance::new();
        s.insert_names("RgA", &["a", "1"]);
        s.insert_names("RgA", &["b", "2"]);
        s.insert_names("RgB", &["b"]);
        let out = approx_certain_answers(&m, &s, &q, None);
        assert!(out.tight);
        assert_eq!(out.completeness, Completeness::Exact);
        assert_eq!(out.leaves, 0, "search-free c-table route");
        assert!(out.upper.contains(&Tuple::from_names(&["a"])));
        assert!(!out.upper.contains(&Tuple::from_names(&["b"])));
        // Agrees with the coNP search engine.
        let (cert, _) = crate::certain::certain_answers(&m, &s, &q, None);
        assert_eq!(out.upper, cert);
    }

    /// Constants of erased subformulas stay in the over-approximation's
    /// candidate palette (the `c = c` conjuncts of [`under_over_queries`]).
    #[test]
    fn over_rewriting_keeps_query_constants() {
        let q = Query::parse(&["x"], "RgV(x) & !RgW('k9', x)").unwrap();
        let (under, over) = under_over_queries(&q);
        assert!(classify::is_monotone(&under.formula));
        assert!(classify::is_monotone(&over.formula));
        assert!(
            over.formula.constants().contains(&ConstId::new("k9")),
            "palette constant preserved: {over}"
        );
    }
}
