//! The delta-driven (semi-naive) chase over an [`IndexedInstance`].
//!
//! The reference engine (`dx_chase::chase_engine`) rediscovers triggers by
//! rescanning the entire instance with nested-loop matching after every
//! step. This engine instead maintains a **work-queue of deltas** — tuple
//! ids inserted or rewritten since they were last considered — and derives
//! new triggers only from matches that *contain a delta tuple*:
//!
//! * every body match of every dependency contains a latest-arriving tuple,
//!   so seeding the match at that tuple (at every body atom whose relation
//!   fits) and joining the remaining atoms through the column indexes finds
//!   each match exactly when it first exists (the classic semi-naive
//!   argument);
//! * remaining body atoms are joined **most-selective-first**: at each step
//!   the planner picks the atom whose bound-position posting list is
//!   shortest under the current partial assignment;
//! * an egd merge `⊥ → v` rewrites only the tuples the reverse value index
//!   reports, and re-enqueues every rewritten (or collided-into) id, which
//!   re-derives exactly the matches the substitution could have created.
//!
//! The loop (`close`) is this crate's only semi-naive closure. It is
//! generic over the store it chases (`ChaseStore`): [`indexed_chase`]
//! runs it over a bare [`IndexedInstance`], and the streaming exchange's
//! target layer over a store that also logs every firing and merge as a
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
//! Work metrics (`DX_OBS=1`): `engine.chase.triggers_discovered` /
//! `.triggers_fired` / `.tuples_inserted` / `.index_probes` / `.merges`
//! counters, plus `engine.chase` / `engine.chase.trigger_discovery` /
//! `.fire` / `.insert` / `.merge` spans. With `DX_TRACE=1` every span
//! also lands on the timeline, and each dequeued delta emits an
//! `engine.chase.round` instant carrying the queue depth and step count
//! — the per-round phase structure the Chrome trace viewer nests.

use crate::store::{IndexedInstance, Inserted, TupleId};
use dx_chase::chase_engine::{ChaseOutcome, ChaseResult};
use dx_chase::target_deps::{TargetDep, Tgd};
use dx_chase::ChaseStrategy;
use dx_logic::Term;
use dx_relation::{AnnTuple, NullGen, RelSym, Tuple, Value, Var};
use std::collections::{BTreeMap, VecDeque};

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

    fn chase(
        &self,
        instance: dx_relation::AnnInstance,
        deps: &[TargetDep],
        gen: &mut NullGen,
        max_steps: usize,
    ) -> ChaseResult {
        indexed_chase(instance, deps, gen, max_steps)
    }

    fn satisfies(&self, instance: &dx_relation::AnnInstance, deps: &[TargetDep]) -> bool {
        let idx = IndexedInstance::from_ann(instance);
        deps.iter().all(|dep| find_trigger(&idx, dep).is_none())
    }
}

/// Run the indexed chase (see the module docs for the algorithm).
pub fn indexed_chase(
    instance: dx_relation::AnnInstance,
    deps: &[TargetDep],
    gen: &mut NullGen,
    max_steps: usize,
) -> ChaseResult {
    let _span = dx_obs::span!("engine.chase");
    let mut idx = IndexedInstance::from_ann(&instance);
    let queue: VecDeque<TupleId> = idx.all_ids().collect();
    let mut steps = 0usize;
    let outcome = close(&mut idx, deps, gen, max_steps, &mut steps, queue);
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

/// A store the semi-naive loop ([`close`]) chases: the index it matches
/// bodies against, and how a tgd firing or an egd merge lands in it. The
/// batch chase applies steps to a bare [`IndexedInstance`]; the streaming
/// exchange's target layer also logs them as derivations.
pub(crate) trait ChaseStore {
    /// The index body matches and head checks probe.
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

/// The semi-naive closure: pop delta ids off `queue`, seed every
/// dependency's body at them, and step until no trigger is left, an egd
/// equates two constants, or `steps` reaches `max_steps`. `steps` carries
/// the count across calls; returns the outcome.
pub(crate) fn close<S: ChaseStore>(
    store: &mut S,
    deps: &[TargetDep],
    gen: &mut NullGen,
    max_steps: usize,
    steps: &mut usize,
    mut queue: VecDeque<TupleId>,
) -> ChaseOutcome {
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

        for dep in deps {
            match dep {
                TargetDep::Tgd(tgd) => {
                    for k in atom_positions(&tgd.body, seed_rel) {
                        // Materialize the seeded matches first: applying a
                        // trigger mutates the index.
                        let matches = seeded_matches(store.index(), &tgd.body, k, &seed_tuple);
                        for asg in matches {
                            if let Err(outcome) =
                                tgd_step(store, tgd, &asg, gen, max_steps, steps, &mut queue)
                            {
                                return outcome;
                            }
                        }
                    }
                }
                TargetDep::Egd(egd) => {
                    for k in atom_positions(&egd.body, seed_rel) {
                        let matches = seeded_matches(store.index(), &egd.body, k, &seed_tuple);
                        for asg in matches {
                            // A merge invalidates the remaining materialized
                            // assignments (their values may have been
                            // rewritten), so re-verify against the live
                            // index before acting.
                            if !match_still_live(store.index(), &egd.body, &asg) {
                                continue;
                            }
                            let l = eval_term(&egd.eq.0, &asg);
                            let r = eval_term(&egd.eq.1, &asg);
                            if l == r {
                                continue;
                            }
                            if let (Value::Const(_), Value::Const(_)) = (l, r) {
                                return ChaseOutcome::Failed { left: l, right: r };
                            }
                            if *steps >= max_steps {
                                return ChaseOutcome::StepLimit;
                            }
                            store.merge(&egd.body, &asg, l, r, &mut queue);
                            *steps += 1;
                            // The seed itself may have been rewritten; it
                            // (or its rewrite) is back on the queue, so
                            // restart from there.
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

/// One restricted-chase tgd step at the body match `asg`: fire unless the
/// head is already satisfied (earlier steps may have satisfied it since
/// the match was found). `Err(StepLimit)` when the budget is spent.
pub(crate) fn tgd_step<S: ChaseStore>(
    store: &mut S,
    tgd: &Tgd,
    asg: &Asg,
    gen: &mut NullGen,
    max_steps: usize,
    steps: &mut usize,
    queue: &mut VecDeque<TupleId>,
) -> Result<(), ChaseOutcome> {
    if head_satisfiable(store.index(), tgd, asg) {
        return Ok(());
    }
    if *steps >= max_steps {
        return Err(ChaseOutcome::StepLimit);
    }
    store.fire(tgd, asg, gen, queue);
    *steps += 1;
    Ok(())
}

/// Positions of `rel` among the body atoms.
fn atom_positions(body: &[(RelSym, Vec<Term>)], rel: RelSym) -> Vec<usize> {
    body.iter()
        .enumerate()
        .filter(|(_, (r, _))| *r == rel)
        .map(|(i, _)| i)
        .collect()
}

/// The index probe pattern of `args` under a partial assignment.
pub(crate) fn pattern(args: &[Term], asg: &Asg) -> Vec<Option<Value>> {
    args.iter()
        .map(|t| match t {
            Term::Const(c) => Some(Value::Const(*c)),
            Term::Var(v) => asg.get(v).copied(),
            Term::App(_, _) => unreachable!("dependency bodies are function-free"),
        })
        .collect()
}

/// Unify `args` with a concrete tuple, extending `asg`; newly bound
/// variables are pushed onto `bound` for backtracking.
pub(crate) fn match_tuple(
    tuple: &Tuple,
    args: &[Term],
    asg: &mut Asg,
    bound: &mut Vec<Var>,
) -> bool {
    for (j, term) in args.iter().enumerate() {
        let val = tuple.get(j);
        match term {
            Term::Const(c) => {
                if val != Value::Const(*c) {
                    return false;
                }
            }
            Term::Var(v) => match asg.get(v) {
                Some(&existing) => {
                    if existing != val {
                        return false;
                    }
                }
                None => {
                    asg.insert(*v, val);
                    bound.push(*v);
                }
            },
            Term::App(_, _) => unreachable!("dependency bodies are function-free"),
        }
    }
    true
}

/// Index-driven join of the `remaining` atoms (most selective first), calling
/// `visit` on every complete assignment; `visit` returning `true` stops the
/// enumeration.
pub(crate) fn join(
    idx: &IndexedInstance,
    atoms: &[(RelSym, Vec<Term>)],
    remaining: &mut Vec<usize>,
    asg: &mut Asg,
    visit: &mut dyn FnMut(&Asg) -> bool,
) -> bool {
    if remaining.is_empty() {
        return visit(asg);
    }
    // Pick the atom with the tightest posting list under the current
    // bindings (dynamic selectivity ordering).
    let pick = remaining
        .iter()
        .enumerate()
        .min_by_key(|(_, &ai)| {
            let (rel, args) = &atoms[ai];
            idx.selectivity(*rel, &pattern(args, asg))
        })
        .map(|(i, _)| i)
        .expect("remaining is non-empty");
    let ai = remaining.swap_remove(pick);
    let (rel, args) = &atoms[ai];
    let mut stop = false;
    dx_obs::count!("engine.chase.index_probes");
    for id in idx.matching(*rel, &pattern(args, asg)) {
        let Some((_, at)) = idx.get(id) else { continue };
        let mut bound: Vec<Var> = Vec::new();
        if match_tuple(&at.tuple, args, asg, &mut bound) && join(idx, atoms, remaining, asg, visit)
        {
            stop = true;
        }
        for v in bound {
            asg.remove(&v);
        }
        if stop {
            break;
        }
    }
    remaining.push(ai);
    stop
}

/// All body matches in which the seed tuple plays body atom `k`.
fn seeded_matches(
    idx: &IndexedInstance,
    body: &[(RelSym, Vec<Term>)],
    k: usize,
    seed_tuple: &Tuple,
) -> Vec<Asg> {
    let mut asg = Asg::new();
    let mut bound = Vec::new();
    if !match_tuple(seed_tuple, &body[k].1, &mut asg, &mut bound) {
        return Vec::new();
    }
    let mut remaining: Vec<usize> = (0..body.len()).filter(|&i| i != k).collect();
    let mut out = Vec::new();
    {
        let _span = dx_obs::span!("engine.chase.trigger_discovery");
        join(idx, body, &mut remaining, &mut asg, &mut |a| {
            out.push(a.clone());
            false
        });
    }
    dx_obs::count!("engine.chase.triggers_discovered", out.len());
    out
}

/// Is a materialized body match still realized by live tuples (used to
/// re-validate egd matches after a merge)?
fn match_still_live(idx: &IndexedInstance, body: &[(RelSym, Vec<Term>)], asg: &Asg) -> bool {
    body.iter().all(|(rel, args)| {
        let pat = pattern(args, asg);
        debug_assert!(pat.iter().all(|p| p.is_some()), "match is total");
        !idx.matching(*rel, &pat).is_empty()
    })
}

/// Can the tgd's head be extended into the instance under `asg` (restricted
/// chase check), with existential variables drawn from live tuples?
fn head_satisfiable(idx: &IndexedInstance, tgd: &Tgd, asg: &Asg) -> bool {
    let atoms: Vec<(RelSym, Vec<Term>)> =
        tgd.head.iter().map(|a| (a.rel, a.args.clone())).collect();
    let mut remaining: Vec<usize> = (0..atoms.len()).collect();
    let mut local = asg.clone();
    join(idx, &atoms, &mut remaining, &mut local, &mut |_| true)
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

/// Search the whole store for a trigger of `dep` (used by
/// [`IndexedChase::satisfies`]): an unsatisfied-head tgd match or a violated
/// egd match.
pub(crate) fn find_trigger(idx: &IndexedInstance, dep: &TargetDep) -> Option<Asg> {
    fn search(
        idx: &IndexedInstance,
        body: &[(RelSym, Vec<Term>)],
        is_violation: &dyn Fn(&Asg) -> bool,
    ) -> Option<Asg> {
        let mut remaining: Vec<usize> = (0..body.len()).collect();
        let mut asg = Asg::new();
        let mut found = None;
        join(idx, body, &mut remaining, &mut asg, &mut |a| {
            if is_violation(a) {
                found = Some(a.clone());
                true
            } else {
                false
            }
        });
        found
    }
    match dep {
        TargetDep::Tgd(tgd) => search(idx, &tgd.body, &|asg| !head_satisfiable(idx, tgd, asg)),
        TargetDep::Egd(egd) => search(idx, &egd.body, &|asg| {
            eval_term(&egd.eq.0, asg) != eval_term(&egd.eq.1, asg)
        }),
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
        let out = indexed_chase(inst, &deps, &mut gen, DEFAULT_CHASE_LIMIT);
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
        let out = indexed_chase(inst, &deps, &mut gen, DEFAULT_CHASE_LIMIT);
        assert_eq!(out.outcome, ChaseOutcome::Satisfied);
        assert_eq!(out.steps, 1);
        let again = indexed_chase(out.instance.clone(), &deps, &mut gen, DEFAULT_CHASE_LIMIT);
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
        let out = indexed_chase(inst, &deps, &mut gen, DEFAULT_CHASE_LIMIT);
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
        let out = indexed_chase(inst, &deps, &mut gen, DEFAULT_CHASE_LIMIT);
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
        let out = indexed_chase(inst, &deps, &mut gen, 25);
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
        let out = indexed_chase(inst, &deps, &mut gen, DEFAULT_CHASE_LIMIT);
        assert_eq!(out.outcome, ChaseOutcome::Satisfied);
        let t = out.instance.relation(RelSym::new("EngT")).unwrap();
        assert_eq!(t.len(), 2, "v0→v2 and v1→v3");
        assert!(IndexedChase.satisfies(&out.instance, &deps));
    }
}
