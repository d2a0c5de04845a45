//! Lowering positional relational algebra ([`RaExpr`]) to plans.
//!
//! Each base-relation leaf scans with fresh variables; positional column
//! lists are tracked alongside the plan (`outcols`, which may repeat
//! variables — `π[0,0]` style). Two selections are pushed down during
//! lowering:
//!
//! * `σ_{i=j}` over any subexpression **unifies** the two column variables,
//!   turning products into natural joins the executor can order by
//!   selectivity;
//! * `σ_{i=c}` substitutes the constant into the scan templates (an index
//!   probe) and re-attaches the column through a single-row bind.
//!
//! Set operations align the two sides positionally (duplicated columns are
//! expanded with [`Plan::Alias`], then the right side is renamed onto the
//! left's variables): union stays a union, difference becomes an
//! anti-join, intersection a semi-join.

use crate::cexec::exec_conditional_table;
use crate::exec::for_each_answer;
use crate::plan::{Plan, PlanPred, Ref};
use crate::store::QueryStore;
use dx_ctables::algebra::{ColRef, RaError, RaExpr, RaPred};
use dx_ctables::{certain_answers_from, possible_answers_from, CInstance, CTable};
use dx_relation::{ConstId, Instance, RelSym, Relation, Value, Var};
use std::collections::BTreeSet;

/// A relational-algebra expression compiled to a plan, with its positional
/// output columns and the constants the source expression mentions.
#[derive(Clone, Debug)]
pub struct CompiledRa {
    plan: Plan,
    outcols: Vec<Var>,
    consts: BTreeSet<ConstId>,
    /// The relations the plan scans ([`Plan::relations`]).
    scanned: BTreeSet<RelSym>,
}

impl CompiledRa {
    /// Compile an RA expression; `arity` resolves base-relation arities
    /// (schema errors surface as the same [`RaError`]s the interpreter
    /// reports).
    pub fn compile(
        expr: &RaExpr,
        arity: &impl Fn(RelSym) -> Option<usize>,
    ) -> Result<Self, RaError> {
        // Validate against the schema first: lowering reuses the checks.
        expr.arity_with(arity)?;
        let mut supply = VarSupply::default();
        let (plan, outcols) = lower_ra(expr, arity, &mut supply)?;
        Ok(CompiledRa {
            scanned: plan.relations(),
            plan,
            outcols,
            consts: expr.constants(),
        })
    }

    /// The output arity.
    pub fn arity(&self) -> usize {
        self.outcols.len()
    }

    /// The compiled plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Ground evaluation over an indexed store (nulls as atomic values),
    /// mirroring [`RaExpr::eval_ground`]: the walk of [`crate::exec`] runs
    /// to the end and hands on the distinct output tuples.
    pub fn eval_ground_store(&self, store: &dyn QueryStore) -> Relation {
        let mut rel = Relation::new(self.outcols.len());
        for_each_answer(&self.plan, &self.outcols, store, &[], &mut |t| {
            rel.insert(t);
        });
        rel
    }

    /// Ground evaluation over an instance (indexes the relations the plan
    /// scans).
    pub fn eval_ground(&self, inst: &Instance) -> Relation {
        self.eval_ground_store(&crate::eval::index_scanned(inst, &self.scanned))
    }

    /// Conditional evaluation over a c-instance, mirroring
    /// [`RaExpr::eval_conditional`]: the result represents
    /// `{ eval_ground(v(T)) | v ⊨ global }`.
    pub fn eval_conditional(&self, cinst: &CInstance) -> CTable {
        exec_conditional_table(&self.plan, &self.outcols, cinst)
    }

    /// Exact certain answers `□Q(T)` via the conditional plan execution
    /// (the plan-backed counterpart of [`dx_ctables::certain_answers_ra`]).
    pub fn certain_answers(&self, cinst: &CInstance) -> Relation {
        let result = self.eval_conditional(cinst);
        let mut extra: BTreeSet<ConstId> = cinst.constants();
        extra.extend(self.consts.iter().copied());
        certain_answers_from(&result, &extra, &cinst.global)
    }

    /// Exact possible answers `◇Q(T)` via the conditional plan execution.
    pub fn possible_answers(&self, cinst: &CInstance) -> Relation {
        let result = self.eval_conditional(cinst);
        let mut extra: BTreeSet<ConstId> = cinst.constants();
        extra.extend(self.consts.iter().copied());
        possible_answers_from(&result, &extra, &cinst.global)
    }
}

#[derive(Default)]
struct VarSupply(u32);

impl VarSupply {
    fn fresh(&mut self) -> Var {
        let v = Var::new(&format!("·q{}", self.0));
        self.0 += 1;
        v
    }

    fn fresh_n(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.fresh()).collect()
    }
}

fn lower_ra(
    expr: &RaExpr,
    arity: &impl Fn(RelSym) -> Option<usize>,
    supply: &mut VarSupply,
) -> Result<(Plan, Vec<Var>), RaError> {
    match expr {
        RaExpr::Rel(r) => {
            let a = arity(*r).ok_or(RaError::UnknownRelation(*r))?;
            let vars = supply.fresh_n(a);
            Ok((
                Plan::Scan {
                    rel: *r,
                    args: vars.iter().map(|v| dx_logic::Term::Var(*v)).collect(),
                },
                vars,
            ))
        }
        RaExpr::Singleton(cs) => {
            let vars = supply.fresh_n(cs.len());
            let inputs: Vec<Plan> = vars
                .iter()
                .zip(cs.iter())
                .map(|(v, c)| Plan::Bind {
                    var: *v,
                    value: Value::Const(*c),
                })
                .collect();
            let plan = match inputs.len() {
                0 => Plan::Unit,
                1 => inputs.into_iter().next().expect("len checked"),
                _ => Plan::Join { inputs },
            };
            Ok((plan, vars))
        }
        RaExpr::Empty(a) => {
            let vars = supply.fresh_n(*a);
            Ok((Plan::Empty { vars: vars.clone() }, vars))
        }
        RaExpr::Select(e, pred) => {
            let (mut plan, mut outcols) = lower_ra(e, arity, supply)?;
            let mut residual: Vec<&RaPred> = Vec::new();
            // Pushdown is only attempted over alias-free subtrees: renaming
            // into (or out of) an `Alias` destination could collide two
            // columns of the same variable. With aliases present the
            // selection stays a filter, which is always correct.
            let pushable = alias_free(&plan);
            for p in top_conjuncts(pred) {
                match p {
                    RaPred::Eq(ColRef::Col(i), ColRef::Col(j)) if pushable => {
                        let (vi, vj) = (outcols[*i], outcols[*j]);
                        if vi != vj {
                            plan.rename_var(vj, vi);
                            for c in &mut outcols {
                                if *c == vj {
                                    *c = vi;
                                }
                            }
                        }
                    }
                    RaPred::Eq(ColRef::Col(i), ColRef::Const(c))
                    | RaPred::Eq(ColRef::Const(c), ColRef::Col(i))
                        if pushable =>
                    {
                        let vi = outcols[*i];
                        plan.substitute_const(vi, *c);
                        // Re-attach the column the substitution removed; the
                        // shared variable keeps any remaining producers
                        // (e.g. an inner bind) tied to the constant.
                        plan = Plan::Join {
                            inputs: vec![
                                plan,
                                Plan::Bind {
                                    var: vi,
                                    value: Value::Const(*c),
                                },
                            ],
                        };
                    }
                    other => residual.push(other),
                }
            }
            if !residual.is_empty() {
                let pred = PlanPred::And(
                    residual
                        .iter()
                        .map(|p| ra_pred_to_plan(p, &outcols))
                        .collect(),
                );
                plan = Plan::Select {
                    input: Box::new(plan),
                    pred,
                };
            }
            Ok((plan, outcols))
        }
        RaExpr::Project(e, cols) => {
            let (plan, outcols) = lower_ra(e, arity, supply)?;
            let new_cols: Vec<Var> = cols.iter().map(|&c| outcols[c]).collect();
            let keep: Vec<Var> = {
                let set: BTreeSet<Var> = new_cols.iter().copied().collect();
                set.into_iter().collect()
            };
            Ok((
                Plan::Project {
                    input: Box::new(plan),
                    vars: keep,
                },
                new_cols,
            ))
        }
        RaExpr::Product(l, r) => {
            let (pl, cl) = lower_ra(l, arity, supply)?;
            let (pr, cr) = lower_ra(r, arity, supply)?;
            let mut outcols = cl;
            outcols.extend(cr);
            Ok((
                Plan::Join {
                    inputs: vec![pl, pr],
                },
                outcols,
            ))
        }
        RaExpr::Union(l, r) | RaExpr::Diff(l, r) | RaExpr::Intersect(l, r) => {
            let (pl, cl) = lower_ra(l, arity, supply)?;
            let (pr, cr) = lower_ra(r, arity, supply)?;
            let (pl, cl) = distinct_columns(pl, cl, supply);
            let (mut pr, cr) = distinct_columns(pr, cr, supply);
            for (a, b) in cl.iter().zip(cr.iter()) {
                if a != b {
                    pr.rename_var(*b, *a);
                }
            }
            let plan = match expr {
                RaExpr::Union(_, _) => Plan::Union {
                    inputs: vec![pl, pr],
                },
                RaExpr::Diff(_, _) => Plan::AntiJoin {
                    left: Box::new(pl),
                    right: Box::new(pr),
                },
                _ => Plan::SemiJoin {
                    left: Box::new(pl),
                    right: Box::new(pr),
                },
            };
            Ok((plan, cl))
        }
    }
}

/// Expand duplicated output columns with aliases and narrow the plan to
/// exactly the column variables, so set operations compare positionally.
fn distinct_columns(mut plan: Plan, outcols: Vec<Var>, supply: &mut VarSupply) -> (Plan, Vec<Var>) {
    let mut seen: BTreeSet<Var> = BTreeSet::new();
    let mut cols = Vec::with_capacity(outcols.len());
    for v in outcols {
        if seen.insert(v) {
            cols.push(v);
        } else {
            let fresh = supply.fresh();
            plan = Plan::Alias {
                input: Box::new(plan),
                src: v,
                dst: fresh,
            };
            seen.insert(fresh);
            cols.push(fresh);
        }
    }
    let plan = Plan::Project {
        input: Box::new(plan),
        vars: cols.clone(),
    };
    (plan, cols)
}

/// Does the subtree contain no [`Plan::Alias`] node? (The precondition for
/// safe selection pushdown — see the `Select` arm above.)
fn alias_free(plan: &Plan) -> bool {
    match plan {
        Plan::Unit | Plan::Empty { .. } | Plan::Bind { .. } | Plan::Scan { .. } => true,
        Plan::Join { inputs } | Plan::Union { inputs } => inputs.iter().all(alias_free),
        Plan::SemiJoin { left, right }
        | Plan::AntiJoin { left, right }
        | Plan::SeededAntiJoin { left, right, .. } => alias_free(left) && alias_free(right),
        Plan::Select { input, .. } | Plan::Project { input, .. } => alias_free(input),
        Plan::Alias { .. } => false,
    }
}

fn top_conjuncts(pred: &RaPred) -> Vec<&RaPred> {
    match pred {
        RaPred::And(ps) => ps.iter().flat_map(top_conjuncts).collect(),
        RaPred::True => Vec::new(),
        other => vec![other],
    }
}

fn ra_pred_to_plan(pred: &RaPred, outcols: &[Var]) -> PlanPred {
    let conv = |r: &ColRef| -> Ref {
        match r {
            ColRef::Col(i) => Ref::Var(outcols[*i]),
            ColRef::Const(c) => Ref::Val(Value::Const(*c)),
        }
    };
    match pred {
        RaPred::True => PlanPred::True,
        RaPred::Eq(a, b) => PlanPred::Eq(conv(a), conv(b)),
        RaPred::And(ps) => PlanPred::And(ps.iter().map(|p| ra_pred_to_plan(p, outcols)).collect()),
        RaPred::Or(ps) => PlanPred::Or(ps.iter().map(|p| ra_pred_to_plan(p, outcols)).collect()),
        RaPred::Not(p) => PlanPred::Not(Box::new(ra_pred_to_plan(p, outcols))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_relation::Tuple;

    fn edges() -> Instance {
        let mut i = Instance::new();
        i.insert_names("RqE", &["a", "b"]);
        i.insert_names("RqE", &["b", "c"]);
        i.insert_names("RqE", &["a", "c"]);
        i
    }

    fn arity_of(inst: &Instance) -> impl Fn(RelSym) -> Option<usize> + '_ {
        |r| inst.relation(r).map(|rel| rel.arity())
    }

    fn check(expr: &RaExpr, inst: &Instance) {
        let compiled = CompiledRa::compile(expr, &arity_of(inst)).expect("compiles");
        assert_eq!(
            compiled.eval_ground(inst),
            expr.eval_ground(inst),
            "plan ≠ interpreter on {expr:?}"
        );
    }

    #[test]
    fn select_project_matches_interpreter() {
        let e = RaExpr::rel("RqE")
            .select(RaPred::col_is(0, "a"))
            .project([1]);
        check(&e, &edges());
    }

    #[test]
    fn product_with_eq_select_becomes_join() {
        let e = RaExpr::rel("RqE")
            .product(RaExpr::rel("RqE"))
            .select(RaPred::cols_eq(1, 2))
            .project([0, 3]);
        let compiled = CompiledRa::compile(&e, &arity_of(&edges())).unwrap();
        // The unification shows up as a shared variable (a natural join).
        assert!(!compiled.plan().explain().contains("select"));
        check(&e, &edges());
    }

    #[test]
    fn set_ops_match_interpreter() {
        let hop2 = RaExpr::rel("RqE")
            .product(RaExpr::rel("RqE"))
            .select(RaPred::cols_eq(1, 2))
            .project([0, 3]);
        check(
            &RaExpr::rel("RqE").clone().intersect(hop2.clone()),
            &edges(),
        );
        check(&RaExpr::rel("RqE").diff(hop2.clone()), &edges());
        check(&RaExpr::rel("RqE").union(hop2), &edges());
    }

    #[test]
    fn duplicate_projection_columns() {
        let e = RaExpr::rel("RqE").project([0, 0]);
        check(&e, &edges());
        let diff = RaExpr::rel("RqE").project([0, 0]).diff(RaExpr::rel("RqE"));
        check(&diff, &edges());
    }

    #[test]
    fn singleton_and_empty() {
        let s = RaExpr::Singleton(vec![ConstId::new("a"), ConstId::new("b")]);
        check(&s, &edges());
        check(&RaExpr::Empty(2).union(RaExpr::rel("RqE")), &edges());
    }

    #[test]
    fn schema_errors_surface() {
        let bad = RaExpr::rel("RqMissing");
        assert!(matches!(
            CompiledRa::compile(&bad, &arity_of(&edges())),
            Err(RaError::UnknownRelation(_))
        ));
    }

    #[test]
    fn conditional_certain_matches_interpreter_route() {
        let r = RelSym::new("RqC");
        let s = RelSym::new("RqD");
        let mut inst = Instance::new();
        inst.insert(r, Tuple::from_names(&["a"]));
        inst.insert(s, Tuple::new(vec![Value::null(1)]));
        let ct = CInstance::from_naive(&inst);
        let q = RaExpr::Rel(r).diff(RaExpr::Rel(s));
        let arity = |rel: RelSym| inst.relation(rel).map(|x| x.arity());
        let compiled = CompiledRa::compile(&q, &arity).unwrap();
        assert_eq!(
            compiled.certain_answers(&ct),
            dx_ctables::certain_answers_ra(&q, &ct)
        );
        assert_eq!(
            compiled.possible_answers(&ct),
            dx_ctables::possible_answers_ra(&q, &ct)
        );
    }
}
