//! The c-table route to certain answers under the CWA.
//!
//! For an **all-closed** annotated mapping, Lemma 1 gives
//! `Rep_A(CSol_A(S)) = Rep(CSol(S))` and Corollary 2 gives
//! `certain_Σcl(Q, S) = □Q(CSol(S))`. Since `CSol(S)` is a naive table — a
//! conditional table whose guards are all `⊤` — the Imieliński–Lipski
//! machinery of [`dx_ctables`] computes `□Q` **exactly and search-free** for
//! full relational algebra: evaluate `Q` conditionally, then extract the
//! tuples whose support disjunction is valid.
//!
//! This module is the bridge; it cross-validates the coNP valuation-search
//! engine of [`crate::certain`] (same answers, different algorithm — see
//! `tests/ctables_cross.rs` at the workspace root), and is also the natural
//! representation-level justification for the Theorem 3(1) coNP bound:
//! support-condition validity is a coNP question.

use crate::Exchange;
use dx_ctables::algebra::RaError;
use dx_ctables::{certain_answers_ra, CInstance, RaExpr};
use dx_query::PlanCatalog;
use dx_relation::Relation;

impl Exchange<'_> {
    /// The conditional-table representation of the canonical solution:
    /// `CSol(S)` as a c-table with all guards `⊤`.
    ///
    /// Only meaningful for all-closed mappings (for open annotations,
    /// `Rep_A(CSol_A)` admits extra tuples that no c-table over the same
    /// rows represents); callers wanting the mixed semantics must use the
    /// search engines of [`crate::certain`].
    pub fn csol_as_ctable(&self) -> CInstance {
        CInstance::from_naive(&self.csol.rel_part())
    }

    /// `certain_Σcl(Q, S)` for a relational-algebra query, via conditional
    /// tables. Exact; panics if the mapping is not all-closed (the route
    /// is only sound under the CWA — see [`Exchange::csol_as_ctable`]).
    ///
    /// Execution runs on a `dx-query` compiled plan in conditional mode
    /// (equality selections over products unified into joins), drawn from
    /// the shared [`PlanCatalog`] — repeated queries over the same
    /// scenario compile once. An expression that does not fit the target
    /// schema (an unknown relation, an arity mismatch, a column out of
    /// range) is refused with its [`RaError`].
    pub fn certain_answers_cwa_ra(&self, query: &RaExpr) -> Result<Relation, RaError> {
        self.assert_cwa();
        let compiled = PlanCatalog::shared().ra_in(query, &self.mapping.target)?;
        Ok(compiled.certain_answers(&self.csol_as_ctable()))
    }

    /// `certain_Σcl(Q, S)` for a **first-order** query, via the
    /// Codd-theorem translation to relational algebra
    /// ([`dx_ctables::translate`]) and the conditional-table engine.
    /// Exact; an alternative to the coNP valuation search of
    /// [`Exchange::certain_contains`] with identical answers
    /// (cross-validated in `tests/ctables_cross.rs`).
    pub fn certain_answers_cwa_fo(
        &self,
        query: &dx_logic::Query,
    ) -> Result<Relation, dx_ctables::TranslateError> {
        self.assert_cwa();
        let cinst = self.csol_as_ctable();
        // Safe-range queries skip the Codd translation entirely: the
        // formula lowers straight to a plan (cached in the shared catalog)
        // and executes in conditional mode (answers are domain independent,
        // so the active-domain relativization of `fo_to_ra` is
        // unnecessary).
        if let Some(compiled) = PlanCatalog::shared()
            .eval_in(query, &self.mapping.target)
            .compiled()
        {
            return Ok(compiled.certain_answers_conditional(&cinst));
        }
        let schema: Vec<_> = self.mapping.target.iter().collect();
        let ra = dx_ctables::fo_to_ra(&query.formula, &query.head, &schema)?;
        Ok(certain_answers_ra(&ra, &cinst))
    }

    /// Possible answers `◇Q(CSol(S))` under the CWA (tuples appearing in
    /// at least one `Rep(CSol(S))` member's answer), over the
    /// mentioned-constant palette. Panics if the mapping is not
    /// all-closed; refuses an expression that does not fit the target
    /// schema as [`Exchange::certain_answers_cwa_ra`] does.
    pub fn possible_answers_cwa_ra(&self, query: &RaExpr) -> Result<Relation, RaError> {
        self.assert_cwa();
        let compiled = PlanCatalog::shared().ra_in(query, &self.mapping.target)?;
        Ok(compiled.possible_answers(&self.csol_as_ctable()))
    }

    fn assert_cwa(&self) {
        assert!(
            self.mapping.is_all_closed(),
            "the c-table route computes certain_Σcl and possible answers under \
             the CWA only; re-annotate with all_closed() or use \
             Exchange::certain_contains for mixed annotations"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_chase::Mapping;
    use dx_ctables::RaPred;
    use dx_relation::{Instance, RelSym, Tuple};

    fn source() -> Instance {
        let mut s = Instance::new();
        s.insert_names("CbSrc", &["p1", "alice"]);
        s.insert_names("CbSrc", &["p2", "bob"]);
        s
    }

    /// Copy-with-null mapping: Sub(x, ⊥) per source row. The RA query
    /// "first columns of Sub rows whose second column is 'alice'" has NO
    /// certain answers (the nulls are unconstrained), while the copying
    /// mapping keeps (p1).
    #[test]
    fn selection_on_dropped_attribute() {
        let q = RaExpr::rel("CbSub")
            .select(RaPred::col_is(1, "alice"))
            .project([0]);
        let dropped = Mapping::parse("CbSub(x:cl, z:cl) <- CbSrc(x, y)").unwrap();
        let s = source();
        assert!(Exchange::new(&dropped, &s)
            .certain_answers_cwa_ra(&q)
            .unwrap()
            .is_empty());
        // The author value is possible though.
        let poss = Exchange::new(&dropped, &s)
            .possible_answers_cwa_ra(&q)
            .unwrap();
        assert!(poss.contains(&Tuple::from_names(&["p1"])));
        assert!(
            poss.contains(&Tuple::from_names(&["p2"])),
            "⊥2 = alice is possible too"
        );

        let copied = Mapping::parse("CbSub(x:cl, y:cl) <- CbSrc(x, y)").unwrap();
        let certain = Exchange::new(&copied, &s)
            .certain_answers_cwa_ra(&q)
            .unwrap();
        assert_eq!(certain.len(), 1);
        assert!(certain.contains(&Tuple::from_names(&["p1"])));
    }

    /// Difference across two target relations: certain answers reflect the
    /// CWA ("no unjustified tuples").
    #[test]
    fn difference_under_cwa() {
        let m = Mapping::parse("CbAll(x:cl) <- CbSrc(x, y); CbPicked(x:cl) <- CbSrc(x, 'alice')")
            .unwrap();
        let q = RaExpr::rel("CbAll").diff(RaExpr::rel("CbPicked"));
        let certain = Exchange::new(&m, &source())
            .certain_answers_cwa_ra(&q)
            .unwrap();
        assert_eq!(certain.len(), 1);
        assert!(certain.contains(&Tuple::from_names(&["p2"])));
    }

    /// Malformed algebra is refused, never interpreted: with
    /// `T(x:cl) <- E(x)` and `E(a)`, an unknown relation, a difference of
    /// mismatched arities and a projection past the last column each come
    /// back as the schema error the planner reports.
    #[test]
    fn malformed_algebra_is_refused() {
        let m = Mapping::parse("T(x:cl) <- E(x)").unwrap();
        let mut s = Instance::new();
        s.insert_names("E", &["a"]);
        let ex = Exchange::new(&m, &s);
        let unknown = RaExpr::rel("Nope");
        let diff = RaExpr::rel("T").diff(RaExpr::rel("Nope"));
        let past_end = RaExpr::rel("T").project([3]);
        for q in [&unknown, &diff] {
            assert!(matches!(
                ex.certain_answers_cwa_ra(q),
                Err(RaError::UnknownRelation(r)) if r == RelSym::new("Nope")
            ));
            assert!(ex.possible_answers_cwa_ra(q).is_err());
        }
        assert!(matches!(
            ex.certain_answers_cwa_ra(&past_end),
            Err(RaError::ColumnOutOfRange { col: 3, .. })
        ));
        assert!(ex.possible_answers_cwa_ra(&past_end).is_err());
        assert_eq!(
            ex.certain_answers_cwa_ra(&RaExpr::rel("T")).unwrap().len(),
            1,
            "the well-formed query still answers"
        );
    }

    #[test]
    #[should_panic(expected = "certain_Σcl")]
    fn open_annotations_rejected() {
        let m = Mapping::parse("CbSub(x:cl, z:op) <- CbSrc(x, y)").unwrap();
        let _ = Exchange::new(&m, &source()).certain_answers_cwa_ra(&RaExpr::rel("CbSub"));
    }
}
