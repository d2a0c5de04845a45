//! Consumer-facing evaluation: compiled queries, compile-or-fallback
//! wrappers, and the chase body-evaluation plug-in.

use crate::exec::{exec_nonempty, for_each_answer};
use crate::lower::{lower_formula, LowerError};
use crate::plan::Plan;
use crate::store::QueryStore;
use dx_chase::{BodyEval, Std};
use dx_logic::{Formula, Query};
use dx_relation::{DeltaIndex, Instance, RelSym, Relation, Tuple, Value, Var};
use std::collections::BTreeSet;

/// A query compiled to a plan: the head variables plus the safe-range plan
/// of the body. Reusable across instances — compile once, execute many.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    head: Vec<Var>,
    plan: Plan,
    /// The relations the plan scans ([`Plan::relations`]): an instance is
    /// indexed only on these before the plan runs on it.
    scanned: BTreeSet<RelSym>,
    /// Constants of the *source formula* — not recovered from the plan,
    /// which may drop them (trivial equalities fold away, empty disjuncts
    /// are pruned). They seed the candidate palette of the conditional
    /// certain/possible-answer extraction.
    consts: BTreeSet<dx_relation::ConstId>,
}

impl CompiledQuery {
    /// Compile a formula with an explicit head. Fails when the formula is
    /// outside the safe-range fragment or a head variable is not
    /// range-restricted by it (then answers depend on the quantifier
    /// domain and only the tree walker is faithful).
    pub fn compile_formula(formula: &Formula, head: &[Var]) -> Result<Self, LowerError> {
        let mut plan = lower_formula(formula)?;
        // A constant-false body has no rows, so it ranges every head
        // variable: `Q(x̄) := false` is the empty plan over x̄.
        if let Plan::Empty { vars } = &mut plan {
            for h in head {
                if !vars.contains(h) {
                    vars.push(*h);
                }
            }
        }
        let produced: BTreeSet<Var> = plan.vars().into_iter().collect();
        for h in head {
            if !produced.contains(h) {
                return Err(LowerError::NotSafeRange(
                    crate::lower::LowerReason::UnrestrictedHeadVar,
                    format!("head variable {h} is not range-restricted by the body"),
                ));
            }
        }
        Ok(CompiledQuery {
            head: head.to_vec(),
            scanned: plan.relations(),
            plan,
            consts: formula.constants(),
        })
    }

    /// Compile a [`Query`].
    pub fn compile(query: &Query) -> Result<Self, LowerError> {
        Self::compile_formula(&query.formula, &query.head)
    }

    /// The compiled plan (for `EXPLAIN`-style inspection).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The head variables.
    pub fn head(&self) -> &[Var] {
        &self.head
    }

    /// Evaluate over any indexed store, nulls as atomic values (naive
    /// semantics): the walk of [`crate::exec`] runs to the end and hands on
    /// its distinct head tuples. A Boolean query asks one yes/no question,
    /// answered at the first row with its 0 or 1 empty tuple.
    pub fn answers_store(&self, store: &dyn QueryStore) -> Relation {
        let mut rows = Vec::new();
        for_each_answer(&self.plan, &self.head, store, &[], &mut |t| rows.push(t));
        Relation::from_tuples(self.head.len(), rows)
    }

    /// Evaluate over an instance (indexes the relations the plan scans).
    pub fn answers(&self, instance: &Instance) -> Relation {
        self.answers_store(&index_scanned(instance, &self.scanned))
    }

    /// Naive certain answers `Q_naive(T)`: evaluate, then keep only
    /// null-free tuples (the Imieliński–Lipski null-discard operator; exact
    /// for positive queries by Proposition 3).
    pub fn naive_certain_answers(&self, instance: &Instance) -> Relation {
        let all = self.answers(instance);
        Relation::from_tuples(
            self.head.len(),
            all.iter().filter(|t| t.is_ground()).cloned(),
        )
    }

    /// Does `tuple` belong to the answers over `store`? Walks the plan in
    /// first-witness mode ([`exec_nonempty`]) with the head variables bound
    /// to the tuple's values, so the greedy join order starts from them and
    /// probes; a repeated head variable needs equal values.
    pub fn holds_on_store(&self, store: &dyn QueryStore, tuple: &Tuple) -> bool {
        assert_eq!(tuple.arity(), self.head.len(), "answer-tuple arity");
        let bound: Vec<(Var, Value)> = self.head.iter().copied().zip(tuple.iter()).collect();
        exec_nonempty(&self.plan, store, &bound)
    }

    /// [`CompiledQuery::holds_on_store`] over an instance.
    pub fn holds_on(&self, instance: &Instance, tuple: &Tuple) -> bool {
        self.holds_on_store(&index_scanned(instance, &self.scanned), tuple)
    }

    /// Exact CWA certain answers `□Q(T)` over a conditional instance via
    /// the conditional execution mode ([`crate::cexec`]): evaluate the plan
    /// with guards, then keep the ground rows whose support disjunction is
    /// valid. The plan-backed counterpart of the `dx-ctables` route.
    pub fn certain_answers_conditional(&self, cinst: &dx_ctables::CInstance) -> Relation {
        let result = crate::cexec::exec_conditional_table(&self.plan, &self.head, cinst);
        let mut extra = cinst.constants();
        extra.extend(self.consts.iter().copied());
        dx_ctables::certain_answers_from(&result, &extra, &cinst.global)
    }

    /// Exact possible answers `◇Q(T)` over a conditional instance (the dual
    /// of [`CompiledQuery::certain_answers_conditional`]). The candidate
    /// palette uses the formula's constants (the plan alone may have
    /// folded some away — validity checking tolerates a smaller palette,
    /// candidate *generation* does not).
    pub fn possible_answers_conditional(&self, cinst: &dx_ctables::CInstance) -> Relation {
        let result = crate::cexec::exec_conditional_table(&self.plan, &self.head, cinst);
        let mut extra = cinst.constants();
        extra.extend(self.consts.iter().copied());
        dx_ctables::possible_answers_from(&result, &extra, &cinst.global)
    }
}

/// A [`DeltaIndex`] over the relations of `instance` in `scanned` — the
/// relations a plan scans; it never probes the rest.
pub(crate) fn index_scanned(instance: &Instance, scanned: &BTreeSet<RelSym>) -> DeltaIndex {
    DeltaIndex::from_relations(
        scanned
            .iter()
            .filter_map(|&rel| instance.relation(rel).map(|r| (rel, r))),
    )
}

/// Compile-or-fallback evaluation of a [`Query`]: the compiled plan when
/// the formula is safe-range, the tree-walking active-domain evaluator
/// otherwise — with identical results either way (safe-range answers are
/// domain independent; differentially tested).
///
/// This is the type the `dx-core` pipelines hold per query: build once,
/// evaluate against many instances (e.g. every candidate of a `Rep_A`
/// refutation search).
#[derive(Clone, Debug)]
pub struct QueryEval {
    query: Query,
    compiled: Option<CompiledQuery>,
    error: Option<LowerError>,
}

impl QueryEval {
    /// Wrap a query, compiling when possible.
    pub fn new(query: &Query) -> Self {
        let (compiled, error) = match CompiledQuery::compile(query) {
            Ok(c) => (Some(c), None),
            Err(e) => (None, Some(e)),
        };
        QueryEval {
            query: query.clone(),
            compiled,
            error,
        }
    }

    /// Did the query compile to a plan?
    pub fn is_compiled(&self) -> bool {
        self.compiled.is_some()
    }

    /// Why the query fell back to the tree walker (`None` when compiled) —
    /// the observable rejection [`crate::PlanCatalog`] aggregates stats
    /// over.
    pub fn lower_error(&self) -> Option<&LowerError> {
        self.error.as_ref()
    }

    /// The compiled form, when the formula is safe-range (conditional-mode
    /// consumers route through it; `None` means callers must use an
    /// instance-level fallback).
    pub fn compiled(&self) -> Option<&CompiledQuery> {
        self.compiled.as_ref()
    }

    /// The underlying query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Evaluate (naive semantics).
    pub fn answers(&self, instance: &Instance) -> Relation {
        match &self.compiled {
            Some(c) => c.answers(instance),
            None => self.query.answers(instance),
        }
    }

    /// Naive certain answers (null-discarded evaluation).
    pub fn naive_certain_answers(&self, instance: &Instance) -> Relation {
        match &self.compiled {
            Some(c) => c.naive_certain_answers(instance),
            None => self.query.naive_certain_answers(instance),
        }
    }

    /// Does `tuple` belong to the answers on `instance`?
    pub fn holds_on(&self, instance: &Instance, tuple: &Tuple) -> bool {
        match &self.compiled {
            Some(c) => c.holds_on(instance, tuple),
            None => self.query.holds_on(instance, tuple),
        }
    }

    /// Does `tuple` belong to the answers over an already-indexed store?
    /// Compiled queries probe `store` directly — **no index build and no
    /// materialization per call**, which is what makes the solver's
    /// incrementally maintained candidate store pay off. A query that did
    /// not compile tree-walks the instance `fallback` builds, which must
    /// be the store's whole visible set (the tree walker quantifies over
    /// its active domain); bit-identical to [`QueryEval::holds_on`] either
    /// way.
    pub fn holds_on_indexed(
        &self,
        store: &dyn QueryStore,
        fallback: impl FnOnce() -> Instance,
        tuple: &Tuple,
    ) -> bool {
        match &self.compiled {
            Some(c) => c.holds_on_store(store, tuple),
            None => self.query.holds_on(&fallback(), tuple),
        }
    }

    /// Evaluate a Boolean query.
    pub fn holds_boolean(&self, instance: &Instance) -> bool {
        self.holds_on(instance, &Tuple::new(Vec::<Value>::new()))
    }
}

/// The compiled STD-body evaluator: implements [`dx_chase::BodyEval`] by
/// drawing each body's plan from the shared [`crate::PlanCatalog`] (one
/// lowering per distinct body per process, not one per `witnesses` call)
/// and executing it index-backed, falling back to the reference tree
/// walker for non-safe-range bodies. Reproduces the reference witness
/// order exactly (sorted rows in [`Std::body_vars`] order), so canonical
/// solutions are identical across engines.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlannedBodyEval;

impl BodyEval for PlannedBodyEval {
    fn name(&self) -> &'static str {
        "planned"
    }

    fn witnesses(&self, std: &Std, source: &Instance) -> Vec<Vec<Value>> {
        let vars = std.body_vars();
        match crate::PlanCatalog::shared().formula(&std.body, &vars) {
            Ok(cq) => cq
                .answers(source)
                .iter()
                .map(|t| t.values().to_vec())
                .collect(),
            Err(_) => dx_chase::canonical::std_witnesses(std, source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_chase::{canonical_solution, canonical_solution_via, Mapping};
    use dx_relation::RelSym;

    fn inst() -> Instance {
        let mut i = Instance::new();
        i.insert_names("EvR", &["a", "b"]);
        i.insert_names("EvR", &["a", "c"]);
        i.insert(
            RelSym::new("EvR"),
            Tuple::new(vec![Value::c("d"), Value::null(0)]),
        );
        i
    }

    #[test]
    fn compiled_matches_oracle_on_query() {
        let q = Query::parse(&["x"], "exists y. EvR(x, y)").unwrap();
        let ev = QueryEval::new(&q);
        assert!(ev.is_compiled());
        assert_eq!(ev.answers(&inst()), q.answers(&inst()));
        assert_eq!(
            ev.naive_certain_answers(&inst()),
            q.naive_certain_answers(&inst())
        );
    }

    #[test]
    fn holds_on_with_nulls_in_tuple() {
        let q = Query::parse(&["x", "y"], "EvR(x, y)").unwrap();
        let ev = QueryEval::new(&q);
        let t = Tuple::new(vec![Value::c("d"), Value::null(0)]);
        assert!(ev.holds_on(&inst(), &t));
        assert!(!ev.holds_on(&inst(), &Tuple::from_names(&["b", "a"])));
    }

    #[test]
    fn possible_answers_palette_survives_constant_folding() {
        // 'b' = 'b' folds to Unit during lowering and vanishes from the
        // plan, but the formula constant must still seed the candidate
        // palette: v(⊥1) = 'b' makes ('b') a possible answer.
        let mut i = Instance::new();
        i.insert(RelSym::new("PcR"), Tuple::new(vec![Value::null(1)]));
        let ct = dx_ctables::CInstance::from_naive(&i);
        let q = Query::parse(&["x"], "PcR(x) & 'b' = 'b'").unwrap();
        let cq = CompiledQuery::compile(&q).unwrap();
        let possible = cq.possible_answers_conditional(&ct);
        assert!(possible.contains(&Tuple::from_names(&["b"])));
        assert!(cq.certain_answers_conditional(&ct).is_empty());
    }

    /// The broadened safe-range fragment (mixed-schema disjunction filters,
    /// the implication shape) evaluates bit-identically to the tree-walking
    /// oracle, nulls included.
    #[test]
    fn broadened_fragment_matches_tree_walker() {
        let mut i = Instance::new();
        i.insert_names("BfR", &["a", "b"]);
        i.insert_names("BfR", &["b", "b"]);
        i.insert(
            RelSym::new("BfR"),
            Tuple::new(vec![Value::c("c"), Value::null(4)]),
        );
        i.insert_names("BfS", &["a"]);
        i.insert(RelSym::new("BfS"), Tuple::new(vec![Value::null(4)]));
        i.insert_names("BfT", &["b"]);
        i.insert_names("BfSub", &["p1", "alice"]);
        i.insert_names("BfSub", &["p1", "bob"]);
        i.insert_names("BfSub", &["p2", "carol"]);
        for (heads, src) in [
            (vec!["x", "y"], "BfR(x, y) & (BfS(x) | BfT(y))"),
            (vec!["x", "y"], "BfR(x, y) & (x = y | BfS(x))"),
            (vec!["x", "y"], "BfR(x, y) & (!BfS(x) | BfT(y))"),
            (
                vec![],
                "forall p a1 a2. (BfSub(p, a1) & BfSub(p, a2) -> a1 = a2)",
            ),
        ] {
            let heads: Vec<&str> = heads;
            let q = Query::parse(&heads, src).unwrap();
            let ev = QueryEval::new(&q);
            assert!(ev.is_compiled(), "{src} should now lower");
            assert_eq!(ev.answers(&i), q.answers(&i), "{src}");
            assert_eq!(
                ev.naive_certain_answers(&i),
                q.naive_certain_answers(&i),
                "{src}"
            );
        }
    }

    #[test]
    fn unsafe_query_falls_back() {
        // x = x is not range-restricted: tree walker handles it.
        let q = Query::parse(&["x"], "x = x").unwrap();
        let ev = QueryEval::new(&q);
        assert!(!ev.is_compiled());
        assert_eq!(ev.answers(&inst()), q.answers(&inst()));
    }

    #[test]
    fn head_var_must_be_restricted() {
        let f = dx_logic::parse_formula("EvR(x, x)").unwrap();
        assert!(CompiledQuery::compile_formula(&f, &[Var::new("x")]).is_ok());
        assert!(CompiledQuery::compile_formula(&f, &[Var::new("z")]).is_err());
    }

    /// The constant-false shapes the approximation surgery produces —
    /// `Q(x) := false` and `Q(p) := ∃a. false` — compile to empty plans
    /// and agree with the tree walker (no answers, also in first-witness
    /// mode); `false` nested under a join folds the same way.
    #[test]
    fn constant_false_bodies_compile_to_empty_plans() {
        for (head, body) in [
            (&["x"][..], "false"),
            (&["p"][..], "exists a. false"),
            (&[][..], "exists a b. false"),
            (&["x"][..], "(exists y. EvR(x, y)) & (exists a. false)"),
        ] {
            let q = Query::parse(head, body).unwrap();
            let ev = QueryEval::new(&q);
            assert!(ev.is_compiled(), "{body}: {:?}", ev.lower_error());
            assert!(ev.answers(&inst()).is_empty(), "{body}");
            assert_eq!(ev.answers(&inst()), q.answers(&inst()), "{body}");
            let t = Tuple::from_names(&["a"][..head.len()]);
            assert!(!ev.holds_on(&inst(), &t), "{body}");
        }
    }

    #[test]
    fn planned_body_eval_reproduces_canonical_solution() {
        let m = Mapping::parse(
            "EvSub(x:cl, z:op) <- EvP(x, y); \
             EvRev(x:cl, r:cl) <- EvP(x, y) & !exists a. EvA(x, a)",
        )
        .unwrap();
        let mut s = Instance::new();
        s.insert_names("EvP", &["p1", "t1"]);
        s.insert_names("EvP", &["p2", "t2"]);
        s.insert_names("EvA", &["p1", "al"]);
        let naive = canonical_solution(&m, &s);
        let planned = canonical_solution_via(&PlannedBodyEval, &m, &s);
        assert_eq!(naive.instance, planned.instance);
        assert_eq!(naive.null_origin, planned.null_origin);
        assert_eq!(naive.witnesses, planned.witnesses);
    }
}
