//! One exchange, every question: the [`Exchange`] value.
//!
//! Theorem 1(4) gives `⟦S⟧_Σα = Rep_A(CSol_A(S))` and Corollary 2 gives
//! `certain_Σα(Q, S) = □Q(CSol_A(S))`, so every question the paper asks of
//! an annotated mapping and a source is decided on one object, the
//! annotated canonical solution. An [`Exchange`] holds that object for one
//! `(mapping, source, chase strategy)`, built once, and each question is a
//! method reading it:
//!
//! | Question                                   | Method(s) | Module |
//! |--------------------------------------------|-----------|--------|
//! | certain / possible membership, answer sets, 1-to-m, positive answers under target dependencies | [`Exchange::certain_contains`], [`Exchange::certain_answers`], [`Exchange::possible_contains`], [`Exchange::certain_contains_one_to_m`], [`Exchange::certain_positive_with_deps`] | [`crate::certain`] |
//! | GCWA\* answers and membership, approximation bracket | [`Exchange::gcwa_star_answers`], [`Exchange::gcwa_star_contains`], [`Exchange::approx_certain_answers`] | [`crate::regimes`] |
//! | `⟦S⟧` membership (Theorem 2)               | [`Exchange::in_semantics`] | [`crate::semantics`] |
//! | composition `Comp(Σα, Δα′)` (Theorem 4)    | [`Exchange::comp_membership`] | [`crate::compose`] |
//! | c-table CWA routes                         | [`Exchange::certain_answers_cwa_ra`], [`Exchange::certain_answers_cwa_fo`], [`Exchange::possible_answers_cwa_ra`] | [`crate::ctable_bridge`] |
//! | PTIME query languages (§6)                 | [`Exchange::certain_contains_ptime`], [`Exchange::certain_answers_ptime`] | [`crate::ptime_lang`] |
//!
//! Search budgets stay per-call arguments: one exchange answers questions
//! under different budgets without being rebuilt.

use dx_chase::{canonical_solution_via, ChaseStrategy, Mapping};
use dx_engine::IndexedChase;
use dx_relation::{AnnInstance, Instance};
use std::borrow::Cow;

/// An annotated mapping applied to a source: `(Σα, S)` together with its
/// annotated canonical solution `CSol_A(S)`, built once (or borrowed from a
/// caller that already holds it) and read by every question method.
///
/// ```
/// use dx_chase::Mapping;
/// use dx_core::Exchange;
/// use dx_logic::Query;
/// use dx_relation::{Instance, Tuple};
///
/// let mapping = Mapping::parse("Sub(x:cl, z:op) <- Papers(x, y)").unwrap();
/// let mut source = Instance::new();
/// source.insert_names("Papers", &["p1", "t1"]);
/// let ex = Exchange::new(&mapping, &source);
/// let q = Query::parse(&["x"], "exists z. Sub(x, z)").unwrap();
/// assert!(ex.certain_contains(&q, &Tuple::from_names(&["p1"]), None).certain);
/// assert_eq!(ex.certain_answers(&q, None).0.len(), 1);
/// ```
pub struct Exchange<'a> {
    pub(crate) mapping: &'a Mapping,
    pub(crate) source: &'a Instance,
    /// The engine of the target-dependency chase and of the Δ-side
    /// exchanges a composition check builds per intermediate instance.
    pub(crate) strategy: &'a dyn ChaseStrategy,
    pub(crate) csol: Cow<'a, AnnInstance>,
}

impl<'a> Exchange<'a> {
    /// Build `CSol_A(S)` with the production engine: `dx-engine`'s
    /// [`IndexedChase`], whose STD bodies run as compiled `dx-query` plans.
    pub fn new(mapping: &'a Mapping, source: &'a Instance) -> Self {
        Self::with_strategy(&IndexedChase, mapping, source)
    }

    /// Build `CSol_A(S)` with an explicit [`ChaseStrategy`]; the
    /// differential tests pass the [`dx_chase::NaiveChase`] oracle here
    /// (tree-walking STD bodies). Body evaluators reproduce the reference
    /// witness order, so every answer is strategy independent.
    pub fn with_strategy(
        strategy: &'a dyn ChaseStrategy,
        mapping: &'a Mapping,
        source: &'a Instance,
    ) -> Self {
        let csol = canonical_solution_via(strategy.body_eval(), mapping, source);
        Exchange {
            mapping,
            source,
            strategy,
            csol: Cow::Owned(csol.instance),
        }
    }

    /// Answer questions over a canonical solution the caller already holds
    /// (e.g. the one a stream session maintains); nothing is rebuilt.
    /// `csol` must be `CSol_A(S)` of `source` under `mapping`, up to null
    /// renaming.
    pub fn from_csol(mapping: &'a Mapping, source: &'a Instance, csol: &'a AnnInstance) -> Self {
        Exchange {
            mapping,
            source,
            strategy: &IndexedChase,
            csol: Cow::Borrowed(csol),
        }
    }

    /// The annotated canonical solution `CSol_A(S)`.
    pub fn csol(&self) -> &AnnInstance {
        &self.csol
    }
}
