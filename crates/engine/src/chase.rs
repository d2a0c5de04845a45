//! The delta-driven (semi-naive) chase over an [`IndexedInstance`].
//!
//! The reference engine (`dx_chase::chase_engine`) rediscovers triggers by
//! rescanning the entire instance with nested-loop matching after every
//! step. This engine instead maintains a **work-queue of deltas** — tuple
//! ids inserted or rewritten since they were last considered — and derives
//! new triggers only from matches that *contain a delta tuple*:
//!
//! * every dependency is compiled once, through [`PlanCatalog::formula`],
//!   into its **trigger query** (`Trigger`): the body with the
//!   conclusion negated, `φ(x̄) ∧ ¬∃z̄ ψ` for a tgd and `φ(x̄) ∧ u ≠ v` for
//!   an egd, with the body's variables as head. Its answers are exactly the
//!   dependency's *active* triggers, the only ones a restricted chase
//!   fires, and it runs on `dx-query`'s first-witness walk over the
//!   store, which is a [`dx_query::QueryStore`] forwarding to its
//!   [`dx_relation::DeltaIndex`] — one ground executor and one relational
//!   index for queries and the chase alike, so a tuple live under several
//!   annotations is one row to the walk;
//! * every body match contains a latest-arriving tuple, so binding the
//!   variables of each body atom whose relation fits to a dequeued delta
//!   tuple and running the trigger query under those bindings finds each
//!   active trigger when its match first exists (the classic semi-naive
//!   argument; a satisfied head stays satisfied, so a match filtered out
//!   at discovery never needs to fire later);
//! * before a step, the same query with every body variable bound
//!   re-checks the trigger: earlier steps may have satisfied its head or
//!   rewritten its body;
//! * an egd merge `⊥ → v` rewrites only the tuples `⊥`'s postings report
//!   (in any column, [`IndexedInstance::ids_with_value`]), and re-enqueues
//!   every rewritten (or collided-into) id, which re-derives exactly the
//!   matches the substitution could have created.
//!
//! The loop (`close`) is this crate's only semi-naive closure. It is
//! generic over the store it chases (`ChaseStore`): [`IndexedChase`] runs
//! it over a bare [`IndexedInstance`], and the streaming exchange's target
//! layer over a store that also logs every firing and merge as a
//! derivation (`crate::stream`). The generic is monomorphized, so the
//! batch chase pays no dispatch for the sharing.
//!
//! Divergences from the reference engine, by design: trigger *order* differs
//! (results agree up to homomorphic equivalence — the differential harness
//! checks isomorphism of the annotated cores), and a chase that becomes
//! satisfied on exactly its last permitted step reports `Satisfied` where
//! the naive engine reports `StepLimit` (the naive engine checks the budget
//! before looking for the next trigger; this one checks before applying
//! one).
//!
//! Work metrics (`DX_OBS=1`): `engine.chase.triggers_discovered` (active
//! triggers the trigger queries return) / `.triggers_fired` /
//! `.tuples_inserted` / `.merges` counters, plus `engine.chase` /
//! `engine.chase.trigger_discovery` / `.fire` / `.insert` / `.merge` spans;
//! the walks' probes count as `query.exec.*`. With `DX_TRACE=1` every span
//! also lands on the timeline, and each dequeued delta emits an
//! `engine.chase.round` instant carrying the queue depth and step count
//! — the per-round phase structure the Chrome trace viewer nests.

use crate::store::{IndexedInstance, Inserted, TupleId};
use dx_chase::chase_engine::{ChaseOutcome, ChaseResult};
use dx_chase::target_deps::{TargetDep, Tgd};
use dx_chase::ChaseStrategy;
use dx_logic::{Formula, Term};
use dx_query::exec::{exec_nonempty, for_each_answer};
use dx_query::{CompiledQuery, PlanCatalog};
use dx_relation::{AnnTuple, NullGen, RelSym, Tuple, Value, Var};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

pub(crate) type Asg = BTreeMap<Var, Value>;

/// The indexed, delta-driven chase strategy.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexedChase;

static PLANNED_BODY_EVAL: dx_query::PlannedBodyEval = dx_query::PlannedBodyEval;

impl ChaseStrategy for IndexedChase {
    fn name(&self) -> &'static str {
        "indexed"
    }

    /// STD bodies evaluate on `dx-query` compiled plans (index joins), so
    /// `canonical_solution_with_deps_via(&IndexedChase, …)` is indexed end
    /// to end; non-safe-range bodies fall back to the tree walker inside
    /// [`dx_query::PlannedBodyEval`].
    fn body_eval(&self) -> &dyn dx_chase::BodyEval {
        &PLANNED_BODY_EVAL
    }

    /// Run the indexed chase (see the module docs for the algorithm).
    fn chase(
        &self,
        instance: dx_relation::AnnInstance,
        deps: &[TargetDep],
        gen: &mut NullGen,
        max_steps: usize,
    ) -> ChaseResult {
        let _span = dx_obs::span!("engine.chase");
        let triggers: Vec<Trigger> = deps.iter().map(Trigger::compile).collect();
        let mut idx = IndexedInstance::from_ann(&instance);
        let queue: VecDeque<TupleId> = idx.all_ids().collect();
        let mut steps = 0usize;
        let outcome = close(&mut idx, &triggers, gen, max_steps, &mut steps, queue);
        let instance = idx.to_ann();
        if outcome == ChaseOutcome::Satisfied {
            dx_obs::mem::publish_all(&[
                (
                    dx_obs::mem::names::INSTANCE_TUPLES,
                    instance.tuple_count() as u64,
                ),
                (
                    dx_obs::mem::names::INSTANCE_NULLS,
                    instance.nulls().len() as u64,
                ),
            ]);
        }
        ChaseResult {
            instance,
            steps,
            outcome,
        }
    }

    /// No dependency's trigger query has a row.
    fn satisfies(&self, instance: &dx_relation::AnnInstance, deps: &[TargetDep]) -> bool {
        let idx = IndexedInstance::from_ann(instance);
        deps.iter()
            .all(|dep| !exec_nonempty(Trigger::compile(dep).query.plan(), &idx, &[]))
    }
}

/// A target dependency compiled to its *trigger query*: the body with the
/// conclusion negated — `φ(x̄) ∧ ¬∃z̄ ψ(x̄, z̄)` for a tgd, `φ(x̄) ∧ u ≠ v`
/// for an egd — whose head is the body's variables `x̄`. Its answers over
/// a store are the dependency's active triggers, as body assignments.
pub(crate) struct Trigger {
    /// The dependency.
    pub(crate) dep: TargetDep,
    query: Arc<CompiledQuery>,
}

impl Trigger {
    /// Compile `dep` through the shared [`PlanCatalog`]. A head atom's
    /// annotation does not enter the query: a head tuple present under
    /// another annotation satisfies the tgd. Every dependency the parsers
    /// accept lowers (a body of atoms binds every variable of the negated
    /// conclusion, since an egd's sides are body variables or constants),
    /// so a dependency that does not is a bug.
    pub(crate) fn compile(dep: &TargetDep) -> Trigger {
        let (body, conclusion) = match dep {
            TargetDep::Tgd(tgd) => {
                let head = tgd
                    .head
                    .iter()
                    .map(|a| Formula::Atom(a.rel, a.args.clone()));
                let existential: Vec<Var> = tgd.existential_vars().into_iter().collect();
                (&tgd.body, Formula::exists(existential, Formula::and(head)))
            }
            TargetDep::Egd(egd) => (&egd.body, Formula::eq(egd.eq.0.clone(), egd.eq.1.clone())),
        };
        let atoms = body
            .iter()
            .map(|(rel, args)| Formula::Atom(*rel, args.clone()));
        let formula = Formula::and(atoms.chain([Formula::not(conclusion)]));
        let vars: BTreeSet<Var> = body
            .iter()
            .flat_map(|(_, args)| args.iter().flat_map(|t| t.vars()))
            .collect();
        let vars: Vec<Var> = vars.into_iter().collect();
        let query = PlanCatalog::shared()
            .formula(&formula, &vars)
            .unwrap_or_else(|e| panic!("the trigger query of `{dep}` does not lower: {e:?}"));
        Trigger {
            dep: dep.clone(),
            query,
        }
    }

    /// The dependency's body atoms.
    pub(crate) fn body(&self) -> &[(RelSym, Vec<Term>)] {
        match &self.dep {
            TargetDep::Tgd(tgd) => &tgd.body,
            TargetDep::Egd(egd) => &egd.body,
        }
    }

    /// Is `v` a body variable (a head variable of the trigger query)?
    pub(crate) fn binds(&self, v: Var) -> bool {
        self.query.head().contains(&v)
    }

    /// The active triggers agreeing with `bound`, in the walk's order.
    /// Materialized: a step mutates the store.
    pub(crate) fn discover(&self, idx: &IndexedInstance, bound: &[(Var, Value)]) -> Vec<Asg> {
        let _span = dx_obs::span!("engine.chase.trigger_discovery");
        let head = self.query.head();
        let mut out: Vec<Asg> = Vec::new();
        for_each_answer(self.query.plan(), head, idx, bound, &mut |t| {
            out.push(head.iter().copied().zip(t.iter()).collect());
        });
        dx_obs::count!("engine.chase.triggers_discovered", out.len());
        out
    }

    /// Is the body assignment `asg` still an active trigger?
    fn is_active(&self, idx: &IndexedInstance, asg: &Asg) -> bool {
        let bound: Vec<(Var, Value)> = asg.iter().map(|(&v, &x)| (v, x)).collect();
        exec_nonempty(self.query.plan(), idx, &bound)
    }
}

/// A store the semi-naive loop ([`close`]) chases: the index trigger
/// queries run on, and how a tgd firing or an egd merge lands in it. The
/// batch chase applies steps to a bare [`IndexedInstance`]; the streaming
/// exchange's target layer also logs them as derivations.
pub(crate) trait ChaseStore {
    /// The index trigger queries run on.
    fn index(&self) -> &IndexedInstance;

    /// Fire `tgd` at the body match `asg`, enqueueing fresh head tuples.
    fn fire(&mut self, tgd: &Tgd, asg: &Asg, gen: &mut NullGen, queue: &mut VecDeque<TupleId>);

    /// Merge `l` and `r` (one of them a null), the egd step at the match
    /// `asg` of `body`, enqueueing every rewritten id.
    fn merge(
        &mut self,
        body: &[(RelSym, Vec<Term>)],
        asg: &Asg,
        l: Value,
        r: Value,
        queue: &mut VecDeque<TupleId>,
    );
}

impl ChaseStore for IndexedInstance {
    fn index(&self) -> &IndexedInstance {
        self
    }

    fn fire(&mut self, tgd: &Tgd, asg: &Asg, gen: &mut NullGen, queue: &mut VecDeque<TupleId>) {
        apply_tgd(self, tgd, asg, gen, queue);
    }

    fn merge(
        &mut self,
        _body: &[(RelSym, Vec<Term>)],
        _asg: &Asg,
        l: Value,
        r: Value,
        queue: &mut VecDeque<TupleId>,
    ) {
        merge(self, l, r, queue);
    }
}

/// The semi-naive closure: pop delta ids off `queue`, run every trigger
/// query seeded at them, and step until no trigger is left, an egd
/// equates two constants, or `steps` reaches `max_steps`. `steps` carries
/// the count across calls; returns the outcome.
pub(crate) fn close<S: ChaseStore>(
    store: &mut S,
    triggers: &[Trigger],
    gen: &mut NullGen,
    max_steps: usize,
    steps: &mut usize,
    mut queue: VecDeque<TupleId>,
) -> ChaseOutcome {
    // A dependency with an empty body has one match, the empty one, which
    // no delta tuple seeds: ask its trigger query unseeded.
    for trigger in triggers.iter().filter(|t| t.body().is_empty()) {
        for asg in trigger.discover(store.index(), &[]) {
            if let Err(outcome) = step(store, trigger, &asg, gen, max_steps, steps, &mut queue) {
                return outcome;
            }
        }
    }
    'queue: while let Some(seed) = queue.pop_front() {
        dx_obs::trace_instant!(
            "engine.chase.round",
            "queue_depth" = queue.len(),
            "steps" = *steps
        );
        let Some((seed_rel, seed_at)) = store.index().get(seed) else {
            continue; // retracted by an earlier merge
        };
        let seed_tuple: Tuple = seed_at.tuple.clone();
        for trigger in triggers {
            for (rel, args) in trigger.body() {
                if *rel != seed_rel {
                    continue;
                }
                let Some(bound) = unify(args, &seed_tuple) else {
                    continue;
                };
                for asg in trigger.discover(store.index(), &bound) {
                    match step(store, trigger, &asg, gen, max_steps, steps, &mut queue) {
                        Err(outcome) => return outcome,
                        Ok(false) => {}
                        // A merge rewrites values the remaining triggers
                        // and the seed may carry. The seed (or its
                        // rewrite) goes back on the queue; restart there.
                        Ok(true) => {
                            if store.index().get(seed).is_some() {
                                queue.push_back(seed);
                            }
                            continue 'queue;
                        }
                    }
                }
            }
        }
    }
    ChaseOutcome::Satisfied
}

/// One restricted-chase step at the trigger `asg`, unless it stopped being
/// active (earlier steps may have satisfied its head or rewritten its
/// body): fire a tgd, or merge an egd's two sides. `Ok(true)` when an egd
/// merged; `Err` when the chase stops — an egd equates two constants, or
/// the budget is spent.
pub(crate) fn step<S: ChaseStore>(
    store: &mut S,
    trigger: &Trigger,
    asg: &Asg,
    gen: &mut NullGen,
    max_steps: usize,
    steps: &mut usize,
    queue: &mut VecDeque<TupleId>,
) -> Result<bool, ChaseOutcome> {
    if !trigger.is_active(store.index(), asg) {
        return Ok(false);
    }
    match &trigger.dep {
        TargetDep::Tgd(tgd) => {
            if *steps >= max_steps {
                return Err(ChaseOutcome::StepLimit);
            }
            store.fire(tgd, asg, gen, queue);
        }
        TargetDep::Egd(egd) => {
            let (l, r) = (eval_term(&egd.eq.0, asg), eval_term(&egd.eq.1, asg));
            if let (Value::Const(_), Value::Const(_)) = (l, r) {
                return Err(ChaseOutcome::Failed { left: l, right: r });
            }
            if *steps >= max_steps {
                return Err(ChaseOutcome::StepLimit);
            }
            store.merge(&egd.body, asg, l, r, queue);
        }
    }
    *steps += 1;
    Ok(matches!(trigger.dep, TargetDep::Egd(_)))
}

/// The bindings under which the atom template `args` matches `tuple`:
/// `None` when the arities differ, a constant disagrees, or a repeated
/// variable meets two values.
pub(crate) fn unify(args: &[Term], tuple: &Tuple) -> Option<Vec<(Var, Value)>> {
    if args.len() != tuple.arity() {
        return None;
    }
    let mut bound: Vec<(Var, Value)> = Vec::with_capacity(args.len());
    for (term, val) in args.iter().zip(tuple.iter()) {
        match term {
            Term::Const(c) if val != Value::Const(*c) => return None,
            Term::Const(_) => {}
            Term::Var(v) => match bound.iter().find(|(w, _)| w == v) {
                Some(&(_, prev)) if prev != val => return None,
                Some(_) => {}
                None => bound.push((*v, val)),
            },
            Term::App(_, _) => unreachable!("dependencies are function-free"),
        }
    }
    Some(bound)
}

/// The index probe pattern of `args` under a total assignment.
pub(crate) fn pattern(args: &[Term], asg: &Asg) -> Vec<Option<Value>> {
    args.iter()
        .map(|t| match t {
            Term::Const(c) => Some(Value::Const(*c)),
            Term::Var(v) => asg.get(v).copied(),
            Term::App(_, _) => unreachable!("dependency bodies are function-free"),
        })
        .collect()
}

/// Fire a tgd trigger: fresh nulls for existential variables, insert the
/// annotated head atoms, enqueue fresh tuples as deltas. Returns the id
/// each head atom landed on, fresh or already present.
pub(crate) fn apply_tgd(
    idx: &mut IndexedInstance,
    tgd: &Tgd,
    asg: &Asg,
    gen: &mut NullGen,
    queue: &mut VecDeque<TupleId>,
) -> Vec<TupleId> {
    let _span = dx_obs::span!("engine.chase.fire");
    dx_obs::count!("engine.chase.triggers_fired");
    let mut env = asg.clone();
    for z in tgd.existential_vars() {
        env.insert(z, Value::Null(gen.fresh()));
    }
    let _insert_span = dx_obs::span!("engine.chase.insert");
    let mut heads = Vec::with_capacity(tgd.head.len());
    for atom in &tgd.head {
        let vals: Vec<Value> = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Var(v) => env[v],
                Term::Const(c) => Value::Const(*c),
                Term::App(_, _) => unreachable!("tgd heads are function-free"),
            })
            .collect();
        let inserted = idx.insert(atom.rel, AnnTuple::new(Tuple::new(vals), atom.ann.clone()));
        if let Inserted::Fresh(id) = inserted {
            dx_obs::count!("engine.chase.tuples_inserted");
            queue.push_back(id);
        }
        heads.push(inserted.id());
    }
    heads
}

/// Merge `l` and `r` (at least one side is a null): substitute the null by
/// the other value across the store, enqueueing every rewritten id and every
/// id a rewrite collided into (a collision target participates in new joins
/// through the merged value, so it must be re-examined).
pub(crate) fn merge(idx: &mut IndexedInstance, l: Value, r: Value, queue: &mut VecDeque<TupleId>) {
    let _span = dx_obs::span!("engine.chase.merge");
    dx_obs::count!("engine.chase.triggers_fired");
    dx_obs::count!("engine.chase.merges");
    let (null, target) = match (l, r) {
        (Value::Null(n), other) => (n, other),
        (other, Value::Null(n)) => (n, other),
        _ => unreachable!("constant/constant clashes fail the chase"),
    };
    for rw in idx.replace_value(Value::Null(null), target) {
        queue.push_back(rw.new.id());
    }
}

fn eval_term(t: &Term, asg: &Asg) -> Value {
    match t {
        Term::Var(v) => asg[v],
        Term::Const(c) => Value::Const(*c),
        Term::App(_, _) => unreachable!("egds are function-free"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_chase::chase_engine::DEFAULT_CHASE_LIMIT;
    use dx_chase::{canonical_solution, Mapping};
    use dx_relation::{AnnInstance, Annotation, Instance, RelSym};

    fn csol_of(rules: &str, facts: &[(&str, &[&str])]) -> AnnInstance {
        let m = Mapping::parse(rules).unwrap();
        let mut s = Instance::new();
        for (rel, names) in facts {
            s.insert_names(rel, names);
        }
        canonical_solution(&m, &s).instance
    }

    #[test]
    fn symmetry_tgd_closes_the_graph() {
        let inst = csol_of("G(x:cl, y:cl) <- E(x, y)", &[("E", &["a", "b"])]);
        let deps = TargetDep::parse_many("G(y:cl, x:cl) <- G(x, y)").unwrap();
        let mut gen = NullGen::after(inst.nulls());
        let out = IndexedChase.chase(inst, &deps, &mut gen, DEFAULT_CHASE_LIMIT);
        assert_eq!(out.outcome, ChaseOutcome::Satisfied);
        assert_eq!(out.steps, 1);
        let g = out.instance.rel_part();
        assert!(g.contains(RelSym::new("G"), &Tuple::from_names(&["b", "a"])));
        assert!(IndexedChase.satisfies(&out.instance, &deps));
    }

    #[test]
    fn restricted_chase_does_not_refire() {
        let inst = csol_of("Emp(e:cl) <- Src(e)", &[("Src", &["ada"])]);
        let deps = TargetDep::parse_many("Dept(e:cl, d:op) <- Emp(e)").unwrap();
        let mut gen = NullGen::after(inst.nulls());
        let out = IndexedChase.chase(inst, &deps, &mut gen, DEFAULT_CHASE_LIMIT);
        assert_eq!(out.outcome, ChaseOutcome::Satisfied);
        assert_eq!(out.steps, 1);
        let again = IndexedChase.chase(out.instance.clone(), &deps, &mut gen, DEFAULT_CHASE_LIMIT);
        assert_eq!(again.steps, 0);
        assert_eq!(again.instance, out.instance);
    }

    #[test]
    fn egd_merges_null_chain_to_constant() {
        // R(a, ⊥1), R(a, ⊥2), R(a, k): the FD collapses everything to k.
        let mut inst = AnnInstance::new();
        let r = RelSym::new("EngR");
        for v in [Value::null(1), Value::null(2), Value::c("k")] {
            inst.insert(
                r,
                AnnTuple::new(
                    Tuple::new(vec![Value::c("a"), v]),
                    Annotation::all_closed(2),
                ),
            );
        }
        let deps = TargetDep::parse_many("y1 = y2 <- EngR(x, y1) & EngR(x, y2)").unwrap();
        let mut gen = NullGen::after(inst.nulls());
        let out = IndexedChase.chase(inst, &deps, &mut gen, DEFAULT_CHASE_LIMIT);
        assert_eq!(out.outcome, ChaseOutcome::Satisfied);
        let rel = out.instance.relation(r).unwrap();
        assert_eq!(rel.len(), 1);
        assert_eq!(
            rel.iter().next().unwrap().tuple,
            Tuple::from_names(&["a", "k"])
        );
    }

    #[test]
    fn egd_constant_clash_fails() {
        let mut inst = AnnInstance::new();
        let r = RelSym::new("EngF");
        inst.insert(
            r,
            AnnTuple::new(Tuple::from_names(&["a", "k"]), Annotation::all_closed(2)),
        );
        inst.insert(
            r,
            AnnTuple::new(Tuple::from_names(&["a", "l"]), Annotation::all_closed(2)),
        );
        let deps = TargetDep::parse_many("y1 = y2 <- EngF(x, y1) & EngF(x, y2)").unwrap();
        let mut gen = NullGen::new();
        let out = IndexedChase.chase(inst, &deps, &mut gen, DEFAULT_CHASE_LIMIT);
        assert!(matches!(out.outcome, ChaseOutcome::Failed { .. }));
    }

    #[test]
    fn non_weakly_acyclic_hits_step_limit() {
        let mut inst = AnnInstance::new();
        inst.insert(
            RelSym::new("EngChain"),
            AnnTuple::new(Tuple::from_names(&["a", "b"]), Annotation::all_closed(2)),
        );
        let deps = TargetDep::parse_many("EngChain(y:cl, z:cl) <- EngChain(x, y)").unwrap();
        let mut gen = NullGen::new();
        let out = IndexedChase.chase(inst, &deps, &mut gen, 25);
        assert_eq!(out.outcome, ChaseOutcome::StepLimit);
        assert_eq!(out.steps, 25);
    }

    #[test]
    fn multi_atom_join_through_indexes() {
        // Triangle completion: T(x,z) <- E(x,y) & E(y,z); chase a path.
        let mut inst = AnnInstance::new();
        let e = RelSym::new("EngE");
        for (a, b) in [("v0", "v1"), ("v1", "v2"), ("v2", "v3")] {
            inst.insert(
                e,
                AnnTuple::new(Tuple::from_names(&[a, b]), Annotation::all_closed(2)),
            );
        }
        let deps = TargetDep::parse_many("EngT(x:cl, z:cl) <- EngE(x, y) & EngE(y, z)").unwrap();
        let mut gen = NullGen::new();
        let out = IndexedChase.chase(inst, &deps, &mut gen, DEFAULT_CHASE_LIMIT);
        assert_eq!(out.outcome, ChaseOutcome::Satisfied);
        let t = out.instance.relation(RelSym::new("EngT")).unwrap();
        assert_eq!(t.len(), 2, "v0→v2 and v1→v3");
        assert!(IndexedChase.satisfies(&out.instance, &deps));
    }
}
