//! The ground executor: plans over [`QueryStore`]s, nulls as atomic values.
//!
//! One executor, the *first-witness walk*, answers both questions the paper
//! asks of a plan: answer sets (Proposition 3's naive evaluation) and the
//! yes/no membership question at every leaf of a valuation search. The
//! walk is depth-first over a binding stack: every operator extends the
//! stack with the variables it binds, hands the row to its continuation and
//! pops them again. Joins run as pipelined index-nested loops, ordered
//! greedily under the current bindings (an input sharing a bound variable
//! first, then the smallest index-selectivity estimate); selections apply
//! as soon as their variables are bound; anti-/semi-joins walk the
//! preserved side and probe the other side per row (a filter side sharing
//! no variable — a *boolean gate* — is asked once); a seeded anti-join
//! probes its correlated branch per preserved row, with the seeds bound as
//! parameters. Below the root nothing is materialized, and no plan is
//! cloned.
//!
//! * **Yes/no** ([`exec_nonempty`]) — "does the plan have a row agreeing
//!   with these bound variables?": the walk unwinds at the first root row.
//! * **Answer sets** ([`exec`], and through [`for_each_answer`] the head
//!   tuples of [`crate::CompiledQuery::answers_store`], delta plans,
//!   [`crate::CompiledRa::eval_ground_store`] and the chase's trigger
//!   queries, which `dx-engine` seeds with a delta tuple's bindings) — the
//!   walk runs to the end and keeps the distinct root rows.
//!
//! Work metrics (`DX_OBS=1`): `query.exec.rows_emitted` (the distinct rows
//! a set-mode root call returns, or the 0 or 1 row a root [`exec_nonempty`]
//! call answers with), `.rows_scanned` (tuples visited by scans and
//! probes), `.rows_joined` (complete join rows reached), `.index_probes`
//! (store probes) and `.seed_reruns` (correlated branch probes). Per-node
//! calls and rows for EXPLAIN reports go to [`crate::explain`]'s
//! collector, which each root call asks once whether capture is on.

use crate::explain::trace;
use crate::plan::{Plan, PlanPred, Ref};
use crate::store::QueryStore;
use dx_logic::Term;
use dx_relation::{FastSet, RelSym, Tuple, Value, Var};
use std::ops::ControlFlow;

/// A materialized binding table: `vars` are sorted, every row is keyed by
/// them positionally.
#[derive(Clone, Debug, Default)]
pub struct Rows {
    /// The sorted output variables.
    pub vars: Vec<Var>,
    /// The distinct binding rows, in ascending order.
    pub rows: Vec<Vec<Value>>,
}

impl Rows {
    /// Position of `v` in the schema.
    pub fn col(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&w| w == v)
    }
}

/// Execute a plan against a store: its distinct binding rows over its
/// sorted output variables, in ascending order.
pub fn exec(plan: &Plan, store: &dyn QueryStore) -> Rows {
    let vars = plan.vars();
    let mut rows = Vec::new();
    for_each_answer(plan, &vars, store, &[], &mut |t| {
        rows.push(t.values().to_vec())
    });
    rows.sort_unstable();
    Rows { vars, rows }
}

/// Walk `plan` on `store` to the end and hand `emit` each distinct root
/// row agreeing with `bound`, projected onto `head` (a head variable may
/// repeat, and may be one of `bound`'s). A Boolean head asks one yes/no
/// question: the walk stops at the first row and emits its empty tuple.
/// The set-mode root call; `bound` seeds the walk as in [`exec_nonempty`],
/// so the greedy join order starts from the bound variables and probes.
pub fn for_each_answer(
    plan: &Plan,
    head: &[Var],
    store: &dyn QueryStore,
    bound: &[(Var, Value)],
    emit: &mut dyn FnMut(Tuple),
) {
    let mut seen: FastSet<Tuple> = FastSet::default();
    walk(plan, store, bound, &mut |w| {
        let t: Tuple = head
            .iter()
            .map(|&v| w.lookup(v).expect("head variable is produced"))
            .collect::<Vec<_>>()
            .into();
        if seen.insert(t.clone()) {
            emit(t);
        }
        head.is_empty()
    });
    dx_obs::count!("query.exec.rows_emitted", seen.len());
    dx_obs::trace_instant!("query.exec.root_done", "rows" = seen.len());
}

/// Does the plan produce a row agreeing with `bound`? The first-witness
/// root call: `exec_nonempty(p, s, &[(x, a), …])` answers exactly
/// `!exec(Join[Bind x := a, …, p], s).rows.is_empty()`, stopping at the
/// first witness row. Nulls in `bound` are atomic values; a variable bound
/// twice to unequal values has no row.
pub fn exec_nonempty(plan: &Plan, store: &dyn QueryStore, bound: &[(Var, Value)]) -> bool {
    let found = walk(plan, store, bound, &mut |_| true);
    dx_obs::count!("query.exec.rows_emitted", u64::from(found));
    dx_obs::trace_instant!("query.exec.root_done", "rows" = usize::from(found));
    found
}

/// The root of every walk: bind `bound`, hand `plan`'s rows to `k` until
/// it accepts one, and flush the work counters.
fn walk<'s>(
    plan: &Plan,
    store: &'s dyn QueryStore,
    bound: &[(Var, Value)],
    k: &mut Cont<'_, 's>,
) -> bool {
    let _span = dx_obs::span!("query.exec");
    let mut w = Witness::new(store);
    let mut consistent = true;
    for &(var, val) in bound {
        match w.lookup(var) {
            Some(prev) => consistent &= prev == val,
            None => w.push(var, val, false),
        }
    }
    let found = consistent && w.run(plan, k);
    w.flush();
    found
}

/// Three-valued evaluation of a selection: `None` while a deciding
/// variable is unbound (`lookup` returns `None`).
fn eval_partial(p: &PlanPred, lookup: &dyn Fn(Var) -> Option<Value>) -> Option<bool> {
    let value = |r: &Ref| match r {
        Ref::Val(v) => Some(*v),
        Ref::Var(v) => lookup(*v),
    };
    match p {
        PlanPred::True => Some(true),
        PlanPred::Eq(a, b) => Some(value(a)? == value(b)?),
        PlanPred::And(ps) => {
            let mut out = Some(true);
            for p in ps {
                match eval_partial(p, lookup) {
                    Some(false) => return Some(false),
                    None => out = None,
                    Some(true) => {}
                }
            }
            out
        }
        PlanPred::Or(ps) => {
            let mut out = Some(false);
            for p in ps {
                match eval_partial(p, lookup) {
                    Some(true) => return Some(true),
                    None => out = None,
                    Some(false) => {}
                }
            }
            out
        }
        PlanPred::Not(p) => eval_partial(p, lookup).map(|b| !b),
    }
}

/// Do the two plans share an output variable?
fn shares_var(left: &Plan, right: &Plan) -> bool {
    right.any_out_var(&mut |v| left.any_out_var(&mut |w| w == v))
}

/// One binding of the walk's environment.
#[derive(Clone, Copy)]
struct Slot {
    var: Var,
    /// `None` hides every deeper binding of `var`: a projection scope
    /// whose same-named variable is a different one.
    val: Option<Value>,
    /// A seed binds a *parameter* of the refuting branch, visible through
    /// every projection like the constant [`Plan::bind_seed`] substitutes
    /// (lowering α-renames quantifiers that would shadow a seed).
    param: bool,
}

/// The continuation a walk hands each row to: `true` stops the walk (the
/// row was accepted), `false` asks for the next row.
type Cont<'k, 's> = dyn FnMut(&mut Witness<'s>) -> bool + 'k;

/// The walk: a depth-first executor over a binding stack. Every operator
/// extends the stack with the variables it binds, hands the row to its
/// continuation and pops them again; a scan's stored tuples are visited
/// lazily and the walk unwinds at the first accepted row.
struct Witness<'s> {
    store: &'s dyn QueryStore,
    env: Vec<Slot>,
    /// EXPLAIN capture is on: every node reports its calls and the rows it
    /// hands on.
    explain: bool,
    scanned: u64,
    probes: u64,
    joined: u64,
    reruns: u64,
}

impl<'s> Witness<'s> {
    fn new(store: &'s dyn QueryStore) -> Self {
        Witness {
            store,
            env: Vec::new(),
            explain: trace::capturing(),
            scanned: 0,
            probes: 0,
            joined: 0,
            reruns: 0,
        }
    }

    fn flush(&self) {
        dx_obs::count!("query.exec.rows_scanned", self.scanned);
        dx_obs::count!("query.exec.index_probes", self.probes);
        dx_obs::count!("query.exec.rows_joined", self.joined);
        dx_obs::count!("query.exec.seed_reruns", self.reruns);
    }

    /// The visible value of `v`, if bound.
    fn lookup(&self, v: Var) -> Option<Value> {
        self.env
            .iter()
            .rev()
            .find(|s| s.var == v)
            .and_then(|s| s.val)
    }

    fn push(&mut self, var: Var, val: Value, param: bool) {
        self.env.push(Slot {
            var,
            val: Some(val),
            param,
        });
    }

    /// Does `plan` have a row under the current bindings?
    fn exists(&mut self, plan: &Plan) -> bool {
        self.run(plan, &mut |_| true)
    }

    /// Walk the rows of `plan` agreeing with the bindings, each extending
    /// the stack with the plan's unbound output variables, until `k`
    /// accepts one (`true`) or the rows run out (`false`).
    fn run(&mut self, plan: &Plan, k: &mut Cont<'_, 's>) -> bool {
        self.noted(plan, k, |w, k| w.op(plan, k))
    }

    /// Run `body` as one execution of `plan`; under EXPLAIN capture, count
    /// the call and every row it hands to `k`.
    fn noted(
        &mut self,
        plan: &Plan,
        k: &mut Cont<'_, 's>,
        body: impl FnOnce(&mut Self, &mut Cont<'_, 's>) -> bool,
    ) -> bool {
        if !self.explain {
            return body(self, k);
        }
        trace::note_call(plan);
        body(self, &mut |w| {
            trace::note_rows(plan, 1);
            k(w)
        })
    }

    /// One operator of [`Witness::run`].
    fn op(&mut self, plan: &Plan, k: &mut Cont<'_, 's>) -> bool {
        match plan {
            Plan::Unit => k(self),
            Plan::Empty { .. } => false,
            Plan::Bind { var, value } => match self.lookup(*var) {
                Some(v) => v == *value && k(self),
                None => self.with(*var, *value, k),
            },
            Plan::Scan { rel, args } => self.scan(*rel, args, k),
            Plan::Join { inputs } => self.join(inputs, None, k),
            Plan::Select { input, pred } => match &**input {
                // The selection fuses into the join, which hands on the
                // rows it keeps.
                Plan::Join { inputs } => self.noted(input, k, |w, k| w.join(inputs, Some(pred), k)),
                input => {
                    self.partial(pred) != Some(false)
                        && self.run(input, &mut |w| w.check(pred) && k(w))
                }
            },
            Plan::Project { input, vars } => self.project(input, vars, k),
            Plan::Union { inputs } => {
                for p in inputs {
                    if self.run(p, k) {
                        return true;
                    }
                }
                false
            }
            Plan::Alias { input, src, dst } => match (self.lookup(*dst), self.lookup(*src)) {
                (Some(d), Some(s)) => d == s && self.run(input, k),
                // The alias forces its source: bind it before the input runs.
                (Some(d), None) => {
                    self.push(*src, d, false);
                    let found = self.run(input, k);
                    self.env.pop();
                    found
                }
                (None, _) => self.run(input, &mut |w| {
                    let v = w.lookup(*src).expect("alias source is produced");
                    w.with(*dst, v, k)
                }),
            },
            Plan::SemiJoin { left, right } => self.filter_join(left, right, true, k),
            Plan::AntiJoin { left, right } => self.filter_join(left, right, false, k),
            Plan::SeededAntiJoin { left, right, seed } => self.run(left, &mut |w| {
                let mark = w.env.len();
                for &s in seed {
                    let v = w
                        .lookup(s)
                        .expect("seed variable is bound by the left side");
                    w.push(s, v, true);
                }
                w.reruns += 1;
                if w.explain {
                    trace::note_seed(plan, 0, 1);
                }
                let refuted = w.exists(right);
                w.env.truncate(mark);
                !refuted && k(w)
            }),
        }
    }

    /// Bind `var := val` for the continuation only.
    fn with(&mut self, var: Var, val: Value, k: &mut Cont<'_, 's>) -> bool {
        self.push(var, val, false);
        let found = k(self);
        self.env.pop();
        found
    }

    /// Probe the store with the bound values folded into the pattern and
    /// hand each unifying tuple on, stopping the store scan at the first
    /// accepted row.
    fn scan(&mut self, rel: RelSym, args: &[Term], k: &mut Cont<'_, 's>) -> bool {
        let pattern = self.pattern(args);
        self.probes += 1;
        let store = self.store;
        store
            .for_each_matching(rel, &pattern, &mut |t| {
                self.scanned += 1;
                let mark = self.env.len();
                let found = self.unify(args, t) && k(self);
                self.env.truncate(mark);
                if found {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .is_break()
    }

    /// The value an argument position is bound to, if any.
    fn resolve(&self, t: &Term) -> Option<Value> {
        match t {
            Term::Const(c) => Some(Value::Const(*c)),
            Term::Var(v) => self.lookup(*v),
            Term::App(_, _) => unreachable!("plans are function-free"),
        }
    }

    /// The store probe pattern of an atom template under the bindings.
    fn pattern(&self, args: &[Term]) -> Vec<Option<Value>> {
        args.iter().map(|t| self.resolve(t)).collect()
    }

    /// Bind the template's unbound variables to `tuple`, checking
    /// constants, bound variables and repeated variables.
    fn unify(&mut self, args: &[Term], tuple: &Tuple) -> bool {
        for (arg, v) in args.iter().zip(tuple.iter()) {
            match (self.resolve(arg), arg) {
                (Some(bound), _) if bound != v => return false,
                (None, Term::Var(x)) => self.push(*x, v, false),
                _ => {}
            }
        }
        true
    }

    /// A pipelined n-ary join, with an optional selection checked as soon
    /// as it is decided.
    fn join(&mut self, inputs: &[Plan], pred: Option<&PlanPred>, k: &mut Cont<'_, 's>) -> bool {
        let mut rest: Vec<&Plan> = inputs.iter().collect();
        self.join_step(&mut rest, pred, k)
    }

    /// One nested-loop level: fold in the remaining input the greedy rule
    /// picks under the current bindings — one sharing a bound variable
    /// first, then the smallest estimate — and recurse per row.
    fn join_step(
        &mut self,
        rest: &mut Vec<&Plan>,
        pred: Option<&PlanPred>,
        k: &mut Cont<'_, 's>,
    ) -> bool {
        if let Some(p) = pred {
            match self.partial(p) {
                Some(false) => return false,
                None if rest.is_empty() => unreachable!("selection variables are bound"),
                _ => {}
            }
        }
        if rest.is_empty() {
            self.joined += 1;
            return k(self);
        }
        let pos = (0..rest.len())
            .min_by_key(|&i| (!self.binds_some(rest[i]), self.estimate(rest[i])))
            .expect("non-empty");
        let next = rest.swap_remove(pos);
        let found = self.run(next, &mut |w| w.join_step(rest, pred, k));
        rest.push(next);
        let last = rest.len() - 1;
        rest.swap(pos, last);
        found
    }

    /// Is some output variable of `plan` already bound?
    fn binds_some(&self, plan: &Plan) -> bool {
        plan.any_out_var(&mut |v| self.lookup(v).is_some())
    }

    /// The join-order size estimate under the current bindings: a scan's
    /// index selectivity with bound values in the pattern, composites by
    /// their driving input (projection scopes are ignored — an estimate
    /// only orders inputs).
    fn estimate(&self, plan: &Plan) -> usize {
        match plan {
            Plan::Empty { .. } => 0,
            Plan::Unit | Plan::Bind { .. } => 1,
            Plan::Scan { rel, args } => self.store.selectivity(*rel, &self.pattern(args)),
            Plan::Join { inputs } => inputs.iter().map(|p| self.estimate(p)).min().unwrap_or(1),
            Plan::Union { inputs } => inputs.iter().map(|p| self.estimate(p)).sum(),
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Alias { input, .. } => self.estimate(input),
            Plan::SemiJoin { left, .. }
            | Plan::AntiJoin { left, .. }
            | Plan::SeededAntiJoin { left, .. } => self.estimate(left),
        }
    }

    /// A projection scope. Outer bindings of variables it quantifies away
    /// are hidden from the input (an inner variable of the same name is a
    /// different one); on the way out, the input's bindings of those
    /// variables are hidden and the outer ones restored.
    fn project(&mut self, input: &Plan, vars: &[Var], k: &mut Cont<'_, 's>) -> bool {
        let outer = self.env.len();
        let mut hidden: Vec<Slot> = Vec::new();
        for (i, s) in self.env.iter().enumerate() {
            let quantified = !s.param && s.val.is_some() && !vars.contains(&s.var);
            if quantified && !self.env[i + 1..].iter().any(|t| t.var == s.var) {
                hidden.push(*s);
            }
        }
        for s in &hidden {
            self.env.push(Slot { val: None, ..*s });
        }
        let inner = self.env.len();
        let found = self.run(input, &mut |w| {
            let mark = w.env.len();
            for i in inner..mark {
                let s = w.env[i];
                if s.val.is_some() && !vars.contains(&s.var) {
                    w.env.push(Slot { val: None, ..s });
                }
            }
            w.env.extend_from_slice(&hidden);
            let found = k(w);
            w.env.truncate(mark);
            found
        });
        self.env.truncate(outer);
        found
    }

    /// Semi-join (`keep = true`) or anti-join (`keep = false`): walk the
    /// preserved side and probe the filter side per row, with the shared
    /// variables bound. A filter side sharing no variable is a boolean
    /// gate, asked once.
    fn filter_join(&mut self, left: &Plan, right: &Plan, keep: bool, k: &mut Cont<'_, 's>) -> bool {
        if !shares_var(left, right) {
            return self.exists(right) == keep && self.run(left, k);
        }
        self.run(left, &mut |w| w.exists(right) == keep && k(w))
    }

    /// The selection under the current bindings, three-valued.
    fn partial(&self, p: &PlanPred) -> Option<bool> {
        eval_partial(p, &|v| self.lookup(v))
    }

    /// A selection over a complete row.
    fn check(&self, p: &PlanPred) -> bool {
        self.partial(p).expect("bound pred var")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_formula;
    use dx_logic::parse_formula;
    use dx_relation::{DeltaIndex, Instance, RelSym, Tuple};
    use std::collections::BTreeSet;

    fn graph() -> Instance {
        let mut i = Instance::new();
        i.insert_names("ExE", &["a", "b"]);
        i.insert_names("ExE", &["b", "c"]);
        i.insert_names("ExE", &["d", "d"]);
        i.insert_names("ExV", &["a"]);
        i.insert_names("ExV", &["c"]);
        i
    }

    fn run(src: &str, inst: &Instance) -> Rows {
        let plan = lower_formula(&parse_formula(src).expect("parses")).expect("lowers");
        exec(&plan, &DeltaIndex::from_instance(inst))
    }

    #[test]
    fn join_two_hops() {
        let rows = run("exists y. ExE(x, y) & ExE(y, z)", &graph());
        // a→b→c, d→d→d.
        assert_eq!(rows.rows.len(), 2);
    }

    #[test]
    fn antijoin_sinks() {
        // Vertices of V with no outgoing edge: c.
        let rows = run("ExV(x) & !(exists y. ExE(x, y))", &graph());
        assert_eq!(rows.rows, vec![vec![Value::c("c")]]);
    }

    #[test]
    fn self_loop_via_repeated_var() {
        let rows = run("ExE(x, x)", &graph());
        assert_eq!(rows.rows, vec![vec![Value::c("d")]]);
    }

    #[test]
    fn bind_probes_constants() {
        let rows = run("ExE('a', y)", &graph());
        assert_eq!(rows.rows, vec![vec![Value::c("b")]]);
        let rows = run("ExE(x, y) & x = 'b'", &graph());
        assert_eq!(rows.rows.len(), 1);
    }

    #[test]
    fn union_and_filters() {
        let rows = run("(ExE(x, y) | ExE(y, x)) & !(x = y)", &graph());
        // (a,b),(b,a),(b,c),(c,b) — the d-loop is filtered out.
        assert_eq!(rows.rows.len(), 4);
    }

    #[test]
    fn empty_relation_short_circuits() {
        let rows = run("ExE(x, y) & ExMissing(y, z)", &graph());
        assert!(rows.rows.is_empty());
        let mut expected = vec![Var::new("x"), Var::new("y"), Var::new("z")];
        expected.sort();
        assert_eq!(rows.vars, expected);
    }

    /// The correlated §1 shape on the ground executor: papers with exactly
    /// one author, nulls as atomic author values.
    #[test]
    fn seeded_antijoin_one_author() {
        let mut i = Instance::new();
        i.insert_names("ExSub", &["p1", "alice"]);
        i.insert_names("ExSub", &["p2", "bob"]);
        i.insert_names("ExSub", &["p2", "carol"]);
        i.insert(
            RelSym::new("ExSub"),
            Tuple::new(vec![Value::c("p3"), Value::null(1)]),
        );
        let rows = run(
            "exists a. ExSub(p, a) & (forall b. (ExSub(p, b) -> a = b))",
            &i,
        );
        // p1 (one ground author) and p3 (one null author) qualify; p2 not.
        let got: BTreeSet<Vec<Value>> = rows.rows.into_iter().collect();
        let want: BTreeSet<Vec<Value>> = [vec![Value::c("p1")], vec![Value::c("p3")]]
            .into_iter()
            .collect();
        assert_eq!(got, want);
        // A second author for p3 — a null vs ground clash — disqualifies it.
        i.insert_names("ExSub", &["p3", "dave"]);
        let rows = run(
            "exists a. ExSub(p, a) & (forall b. (ExSub(p, b) -> a = b))",
            &i,
        );
        assert_eq!(rows.rows, vec![vec![Value::c("p1")]]);
    }

    /// Regression: **nested** seeded anti-joins with null seed values. The
    /// outer node substitutes `x = ⊥1` and the inner one `b = ⊥2` into the
    /// same scan; the reserved columns must stay distinct (`$seed:x` vs
    /// `$seed:b`) — a shared name would force the two positions equal and
    /// silently empty the refuting set.
    #[test]
    fn nested_null_seeds_do_not_collide() {
        let mut i = Instance::new();
        i.insert(RelSym::new("NnR"), Tuple::new(vec![Value::null(1)]));
        i.insert(RelSym::new("NnS"), Tuple::new(vec![Value::null(2)]));
        i.insert_names("NnV", &["v1"]);
        // The refuting tuple pairs ⊥2 with ⊥1 — exactly the shape a merged
        // seed column can never match (⊥1 ≠ ⊥2 atomically).
        i.insert(
            RelSym::new("NnW"),
            Tuple::new(vec![Value::c("v1"), Value::null(2), Value::null(1)]),
        );
        let src = "NnR(x) & !(exists b. NnS(b) & !(exists d. NnV(d) & !NnW(d, b, x)))";
        let plan = lower_formula(&parse_formula(src).unwrap()).unwrap();
        let explained = plan.explain();
        assert_eq!(
            explained.matches("seeded-antijoin").count(),
            2,
            "the shape nests two seeded nodes:\n{explained}"
        );
        let rows = run(src, &i);
        // Oracle: W(v1, ⊥2, ⊥1) holds, so d = v1 fails ¬W, ∃d fails, the
        // b = ⊥2 witness satisfies the negated branch — ⊥1 is NOT an answer.
        assert!(rows.rows.is_empty(), "got {:?}", rows.rows);
    }

    #[test]
    fn alias_extends_rows() {
        let rows = run("ExV(x) & y = x", &graph());
        let mut expected = vec![Var::new("x"), Var::new("y")];
        expected.sort();
        assert_eq!(rows.vars, expected);
        assert_eq!(rows.rows.len(), 2);
        for r in &rows.rows {
            assert_eq!(r[0], r[1]);
        }
    }
}
