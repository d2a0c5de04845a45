//! Pluggable chase execution strategies.
//!
//! The chase is the workhorse under every §6 result (and under the
//! downstream solver and composition pipelines), so its execution engine is
//! abstracted behind [`ChaseStrategy`]: callers pick *what* to chase, a
//! strategy decides *how* triggers are discovered and applied.
//!
//! Two implementations exist in the workspace:
//!
//! * [`NaiveChase`] (here) — the reference oracle: full instance rescans
//!   with nested-loop body matching, exactly the semantics of
//!   [`crate::chase_engine::chase`]. Slow, simple, trusted.
//! * `dx_engine::IndexedChase` — the production engine: per-relation hash
//!   indexes and delta-driven (semi-naive) trigger discovery, each
//!   dependency compiled to a trigger query (body ∧ ¬conclusion) that runs
//!   on `dx-query`'s plan executor. Differentially tested against
//!   [`NaiveChase`] (`tests/engine_differential.rs`).
//!
//! Chase results are deterministic per strategy but **not identical across
//! strategies**: a terminating chase's result is unique only up to
//! homomorphic equivalence, and different trigger orders pick different
//! (isomorphic-core) representatives. Cross-strategy comparisons should use
//! `dx_chase::core::ann_hom_equivalent` / `ann_core_of` + `ann_isomorphic`.

use crate::canonical::{BodyEval, CanonicalSolution, NaiveBodyEval};
use crate::chase_engine::{self, ChaseResult};
use crate::mapping::Mapping;
use crate::target_deps::TargetDep;
use dx_relation::{AnnInstance, Instance, NullGen};

static NAIVE_BODY_EVAL: NaiveBodyEval = NaiveBodyEval;

/// A chase execution engine over annotated instances.
pub trait ChaseStrategy {
    /// A short human-readable engine name (used in bench/JSON output).
    fn name(&self) -> &'static str;

    /// The STD-body evaluation engine this strategy pairs with — used by
    /// [`canonical_solution_with_deps_via`] (and the `dx-core` pipelines)
    /// so the *whole* exchange runs on one architecture. Defaults to the
    /// tree-walking reference; `dx_engine::IndexedChase` overrides it with
    /// `dx-query`'s compiled plans.
    fn body_eval(&self) -> &dyn BodyEval {
        &NAIVE_BODY_EVAL
    }

    /// Run the standard (restricted) chase of `instance` with `deps`,
    /// drawing fresh nulls from `gen`, applying at most `max_steps` steps.
    fn chase(
        &self,
        instance: AnnInstance,
        deps: &[TargetDep],
        gen: &mut NullGen,
        max_steps: usize,
    ) -> ChaseResult;

    /// Does the (naive-table reading of the) instance satisfy all
    /// dependencies — no unsatisfied tgd trigger, no egd violation?
    fn satisfies(&self, instance: &AnnInstance, deps: &[TargetDep]) -> bool;
}

/// The reference strategy: rescan-everything nested-loop chase.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveChase;

impl ChaseStrategy for NaiveChase {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn chase(
        &self,
        instance: AnnInstance,
        deps: &[TargetDep],
        gen: &mut NullGen,
        max_steps: usize,
    ) -> ChaseResult {
        chase_engine::chase(instance, deps, gen, max_steps)
    }

    fn satisfies(&self, instance: &AnnInstance, deps: &[TargetDep]) -> bool {
        chase_engine::satisfies_deps(instance, deps)
    }
}

/// [`chase_engine::canonical_solution_with_deps`] routed through a strategy:
/// compute `CSol_A(S)` (body evaluation on the strategy's
/// [`ChaseStrategy::body_eval`] engine), then let `strategy` repair
/// target-constraint violations.
pub fn canonical_solution_with_deps_via(
    strategy: &dyn ChaseStrategy,
    mapping: &Mapping,
    deps: &[TargetDep],
    source: &Instance,
    max_steps: usize,
) -> ChaseResult {
    let csol: CanonicalSolution =
        crate::canonical::canonical_solution_via(strategy.body_eval(), mapping, source);
    let mut gen = NullGen::after(csol.instance.nulls());
    strategy.chase(csol.instance, deps, &mut gen, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase_engine::{ChaseOutcome, DEFAULT_CHASE_LIMIT};
    use dx_relation::RelSym;

    #[test]
    fn naive_strategy_matches_free_functions() {
        let m = Mapping::parse("G(x:cl, y:cl) <- E(x, y)").unwrap();
        let deps = TargetDep::parse_many("G(y:cl, x:cl) <- G(x, y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("E", &["a", "b"]);
        let via = canonical_solution_with_deps_via(&NaiveChase, &m, &deps, &s, DEFAULT_CHASE_LIMIT);
        let direct = chase_engine::canonical_solution_with_deps(&m, &deps, &s, DEFAULT_CHASE_LIMIT);
        assert_eq!(via.outcome, ChaseOutcome::Satisfied);
        assert_eq!(via.steps, direct.steps);
        assert_eq!(via.instance, direct.instance);
        assert!(NaiveChase.satisfies(&via.instance, &deps));
        assert_eq!(
            via.instance.relation(RelSym::new("G")).unwrap().len(),
            2,
            "symmetric closure of one edge"
        );
        assert_eq!(NaiveChase.name(), "naive");
    }
}
