//! Certain answers for **PTIME query languages beyond FO** — the paper's
//! first §6 extension.
//!
//! > "The first trichotomy theorem is true for any query language of PTIME
//! > data complexity that contains FO."
//!
//! The decision procedures of [`crate::certain`] only use the query as a
//! black-box evaluator over ground instances plus two one-bit
//! classifications (hom-preservation, monotonicity); nothing in the witness
//! spaces is FO-specific except the `∀*∃*` and Lemma 2 *bounds*. This module
//! instantiates the machinery for [stratified Datalog](dx_logic::datalog)
//! (transitive closure and friends — properly more expressive than positive
//! FO) and, more generally, for any [`PtimeQuery`] implementor:
//!
//! * **hom-preserved** queries (negation- and inequality-free programs):
//!   naive evaluation on `CSol(S)` is exact for every annotation — the
//!   monotone generalization of Proposition 3;
//! * **monotone** queries: exact by valuation search over `Rep(CSol)`
//!   (Proposition 4's regime — its proof only uses monotonicity);
//! * general stratified queries: exact valuation search when `#op = 0`
//!   (Theorem 3(1) relies on the CWA witness space, not on FO), and
//!   budget-bounded refutation when `#op ≥ 1` (the Lemma 2 bound is proved
//!   by an Ehrenfeucht–Fraïssé argument that is FO-specific, so beyond FO
//!   the search is capped by the caller's [`SearchBudget`] and reported as
//!   such in [`CertainOutcome::completeness`]).

use crate::certain::{
    candidate_tuples, naive_outcome, refutation_outcome, tuple_palette, CertainOutcome, Regime,
};
use crate::Exchange;
use dx_logic::datalog::DatalogQuery;
use dx_relation::{ConstId, Instance, Relation, Tuple};
use dx_solver::{search_rep_a_indexed, Completeness, Leaf, SearchBudget};
use std::collections::BTreeSet;

/// A query in some language of PTIME data complexity, as seen by the
/// certain-answer engines: an evaluator over ground instances plus the two
/// semantic classifications that select a decision regime.
///
/// Implementors must guarantee that `answers` runs in time polynomial in the
/// instance (the trichotomy's "PTIME data complexity" hypothesis) and treats
/// nulls as atomic values (the naive semantics of §2).
pub trait PtimeQuery {
    /// Output arity.
    fn out_arity(&self) -> usize;

    /// Evaluate on an instance, nulls as atomic values.
    fn eval(&self, instance: &Instance) -> Relation;

    /// Does `t` belong to the answers on `instance`?
    fn holds(&self, instance: &Instance, t: &Tuple) -> bool {
        self.eval(instance).contains(t)
    }

    /// Is the query preserved under homomorphisms of instances? (Then naive
    /// evaluation on the canonical solution is exact for every annotation.)
    /// Implementations must be *conservative*: `false` when unknown.
    fn hom_preserved(&self) -> bool;

    /// Is the query monotone (answers only grow when tuples are added)?
    /// Conservative: `false` when unknown.
    fn monotone(&self) -> bool;

    /// Constants mentioned by the query (they seed the counterexample
    /// palette).
    fn query_constants(&self) -> BTreeSet<ConstId>;
}

impl PtimeQuery for DatalogQuery {
    fn out_arity(&self) -> usize {
        self.arity()
    }

    fn eval(&self, instance: &Instance) -> Relation {
        self.answers(instance)
    }

    fn hom_preserved(&self) -> bool {
        self.program.is_hom_preserved()
    }

    fn monotone(&self) -> bool {
        self.program.is_monotone()
    }

    fn query_constants(&self) -> BTreeSet<ConstId> {
        self.program.constants()
    }
}

impl Exchange<'_> {
    /// Decide `t̄ ∈ certain_Σα(Q, S)` for a black-box PTIME query.
    ///
    /// Regime selection mirrors [`Exchange::certain_contains`], minus the
    /// FO-specific `∀*∃*` and Lemma 2 bounds (see the module docs).
    pub fn certain_contains_ptime(
        &self,
        query: &dyn PtimeQuery,
        tuple: &Tuple,
        budget: Option<&SearchBudget>,
    ) -> CertainOutcome {
        assert_eq!(
            tuple.arity(),
            query.out_arity(),
            "answer-tuple arity mismatch"
        );
        assert!(tuple.is_ground(), "certain answers are tuples over Const");

        if query.hom_preserved() {
            return naive_outcome(query.holds(&self.csol.rel_part(), tuple));
        }

        let query_consts = tuple_palette(query.query_constants(), tuple);
        let mut check = |leaf: &Leaf| !query.holds(&leaf.index().to_instance(), tuple);

        if query.monotone() {
            let closed = self.csol.reannotate_all_closed();
            let outcome = search_rep_a_indexed(
                &closed,
                &query_consts,
                &SearchBudget::closed_world(),
                &mut check,
            );
            return refutation_outcome(outcome, Regime::Monotone, false, &self.csol);
        }

        let (search_budget, regime, exact) = if self.mapping.is_all_closed() {
            (SearchBudget::closed_world(), Regime::ClosedWorld, true)
        } else {
            (
                budget.cloned().unwrap_or_default(),
                Regime::OpenBounded,
                false,
            )
        };
        let outcome = search_rep_a_indexed(&self.csol, &query_consts, &search_budget, &mut check);
        refutation_outcome(outcome, regime, exact, &self.csol)
    }

    /// The full certain-answer relation for a black-box PTIME query
    /// (candidates range over `adom(S)` and the query constants, by
    /// genericity).
    pub fn certain_answers_ptime(
        &self,
        query: &dyn PtimeQuery,
        budget: Option<&SearchBudget>,
    ) -> (Relation, Completeness) {
        // Hom-preserved queries: one naive evaluation of the program on the
        // canonical solution gives the whole certain-answer relation (its
        // ground tuples) — no per-candidate loop.
        if query.hom_preserved() {
            let rows = query.eval(&self.csol.rel_part());
            let ground = rows.iter().filter(|t| t.is_ground()).cloned();
            return (
                Relation::from_tuples(query.out_arity(), ground),
                Completeness::Exact,
            );
        }
        let mut cands: BTreeSet<ConstId> = self.source.adom_consts();
        cands.extend(query.query_constants());
        let consts: Vec<ConstId> = cands.into_iter().collect();
        let mut rel = Relation::new(query.out_arity());
        let mut completeness = Completeness::Exact;
        for tuple in candidate_tuples(&consts, query.out_arity()) {
            let out = self.certain_contains_ptime(query, &tuple, budget);
            if out.certain {
                rel.insert(tuple);
            }
            completeness = completeness.worse(out.completeness);
        }
        (rel, completeness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_chase::Mapping;
    use dx_logic::datalog::DatalogQuery;
    use dx_logic::Query;
    use dx_relation::Value;

    const TC: &str = "PlPath(x, y) <- PlEdge(x, y); PlPath(x, z) <- PlPath(x, y) & PlEdge(y, z)";

    fn chain_source() -> Instance {
        let mut s = Instance::new();
        s.insert_names("SrcE", &["a", "b"]);
        s.insert_names("SrcE", &["b", "c"]);
        s
    }

    /// Transitive closure is hom-preserved: certain answers = naive
    /// evaluation on CSol for EVERY annotation (monotone Prop 3), including
    /// through invented nulls.
    #[test]
    fn reachability_certain_answers_any_annotation() {
        let q = DatalogQuery::parse("PlPath", TC).unwrap();
        for rules in [
            "PlEdge(x:cl, y:cl) <- SrcE(x, y)",
            "PlEdge(x:cl, y:op) <- SrcE(x, y)",
            "PlEdge(x:op, y:op) <- SrcE(x, y)",
        ] {
            let m = Mapping::parse(rules).unwrap();
            let out = Exchange::new(&m, &chain_source()).certain_contains_ptime(
                &q,
                &Tuple::from_names(&["a", "c"]),
                None,
            );
            assert!(out.certain, "a reaches c under {rules}");
            assert_eq!(out.regime, Regime::NaivePositive);
            assert_eq!(out.completeness, Completeness::Exact);
        }
    }

    /// Paths through invented nulls are NOT certain (the null could be
    /// anything), but the endpoints joined by a two-step null path are —
    /// reachability composes through the null whatever its value.
    #[test]
    fn reachability_through_nulls() {
        // E'(x,⊥) and E'(⊥,y) per source tuple: Link(x,z) & Link(z,y).
        let m = Mapping::parse(
            "PlEdge(x:cl, z:cl) <- SrcHop(x, y); PlEdge(z:cl, y:cl) <- SrcHop(x, y)",
        )
        .unwrap();
        let mut s = Instance::new();
        s.insert_names("SrcHop", &["a", "b"]);
        let q = DatalogQuery::parse("PlPath", TC).unwrap();
        // Each SrcHop tuple gets ONE justification per STD, so the two STDs
        // invent two different nulls — a and b are not certainly connected.
        let out =
            Exchange::new(&m, &s).certain_contains_ptime(&q, &Tuple::from_names(&["a", "b"]), None);
        assert!(!out.certain, "two distinct nulls do not certainly chain");
        // With a single STD producing both atoms, the null is shared:
        let m2 = Mapping::parse("PlEdge(x:cl, z:cl), PlEdge(z:cl, y:cl) <- SrcHop(x, y)").unwrap();
        let out2 = Exchange::new(&m2, &s).certain_contains_ptime(
            &q,
            &Tuple::from_names(&["a", "b"]),
            None,
        );
        assert!(out2.certain, "shared null chains a → ⊥ → b certainly");
        assert_eq!(out2.regime, Regime::NaivePositive);
    }

    /// A stratified (non-monotone) program on a copy mapping: under the CWA
    /// the answer is exact and certain; opening the target defeats it.
    #[test]
    fn stratified_negation_cwa_vs_open() {
        let prog = "PlReach(x) <- PlStart(x); \
                    PlReach(y) <- PlReach(x) & PlEdge(x, y); \
                    PlDead(x) <- PlNode(x) & !PlReach(x)";
        let q = DatalogQuery::parse("PlDead", prog).unwrap();
        let m = Mapping::parse(
            "PlEdge(x:cl, y:cl) <- SrcE(x, y); \
             PlNode(x:cl) <- SrcN(x); \
             PlStart(x:cl) <- SrcS(x)",
        )
        .unwrap();
        let mut s = Instance::new();
        s.insert_names("SrcE", &["a", "b"]);
        s.insert_names("SrcN", &["a"]);
        s.insert_names("SrcN", &["b"]);
        s.insert_names("SrcN", &["z"]);
        s.insert_names("SrcS", &["a"]);
        // z is an isolated node: not reachable from a — certainly dead under
        // the CWA.
        let out =
            Exchange::new(&m, &s).certain_contains_ptime(&q, &Tuple::from_names(&["z"]), None);
        assert!(out.certain);
        assert_eq!(out.regime, Regime::ClosedWorld);
        assert_eq!(out.completeness, Completeness::Exact);
        // b IS reachable: not dead.
        let out_b =
            Exchange::new(&m, &s).certain_contains_ptime(&q, &Tuple::from_names(&["b"]), None);
        assert!(!out_b.certain);
        // Open the edge relation: new edges may reach z — not certain,
        // and the engine reports the bounded regime.
        let m_open = Mapping::parse(
            "PlEdge(x:op, y:op) <- SrcE(x, y); \
             PlNode(x:cl) <- SrcN(x); \
             PlStart(x:cl) <- SrcS(x)",
        )
        .unwrap();
        let out_open =
            Exchange::new(&m_open, &s).certain_contains_ptime(&q, &Tuple::from_names(&["z"]), None);
        assert!(!out_open.certain, "an added edge a→z defeats deadness");
        assert_eq!(out_open.regime, Regime::OpenBounded);
    }

    /// Cross-validation on an enumerable space: the Datalog TC result
    /// matches the FO 2-step-reachability query wherever both apply.
    #[test]
    fn datalog_agrees_with_fo_on_bounded_diameter() {
        let fo = Query::parse(
            &["x", "y"],
            "PlEdge(x, y) | (exists z. PlEdge(x, z) & PlEdge(z, y))",
        )
        .unwrap();
        let dl = DatalogQuery::parse("PlPath", TC).unwrap();
        let m = Mapping::parse("PlEdge(x:cl, z:cl) <- SrcE(x, y)").unwrap();
        // Diameter ≤ 2 instance: nulls in second position.
        let mut s = Instance::new();
        s.insert_names("SrcE", &["a", "b"]);
        s.insert_names("SrcE", &["c", "d"]);
        let (fo_rel, _) = crate::certain::certain_answers(&m, &s, &fo, None);
        let (dl_rel, comp) = Exchange::new(&m, &s).certain_answers_ptime(&dl, None);
        assert_eq!(comp, Completeness::Exact);
        assert_eq!(fo_rel, dl_rel);
    }

    /// The full answer set for a hom-preserved program: only null-free
    /// tuples survive.
    #[test]
    fn answer_sets_drop_nulls() {
        let q = DatalogQuery::parse("PlPath", TC).unwrap();
        let m = Mapping::parse("PlEdge(x:cl, z:op) <- SrcE(x, y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("SrcE", &["a", "b"]);
        let (rel, comp) = Exchange::new(&m, &s).certain_answers_ptime(&q, None);
        assert_eq!(comp, Completeness::Exact);
        assert!(rel.is_empty(), "all paths end in an invented null");
    }

    /// Nulls in the answer tuple are rejected (certain answers are over
    /// Const).
    #[test]
    #[should_panic(expected = "over Const")]
    fn null_answer_tuple_panics() {
        let q = DatalogQuery::parse("PlPath", TC).unwrap();
        let m = Mapping::parse("PlEdge(x:cl, z:op) <- SrcE(x, y)").unwrap();
        let t = Tuple::new(vec![Value::c("a"), Value::null(1)]);
        Exchange::new(&m, &Instance::new()).certain_contains_ptime(&q, &t, None);
    }
}
