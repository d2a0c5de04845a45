//! Conditional execution: the same plans over Imieliński–Lipski
//! conditional tables.
//!
//! Rows carry a [`Condition`] recording exactly when they are present; the
//! representation invariant mirrors [`dx_ctables::RaExpr::eval_conditional`]:
//! for every valuation `v` satisfying the instance's global condition,
//! applying `v` to the conditional result yields the ground execution of
//! the plan over `v(T)`. Join/unification steps between a null and another
//! value do **not** prune — they emit the pair guarded by the equality
//! condition (keeping the ground value as the row's representative, which
//! is sound because any satisfying valuation makes the two equal). Rows
//! whose condition folds to `False` are dropped.
//!
//! This is the execution mode behind the `dx-core::ctable_bridge` CWA
//! certain-answer pipeline — cross-validated against the `RaExpr`
//! conditional evaluator and brute-force `Rep` enumeration in
//! `tests/query_differential.rs`.
//!
//! Work metrics (`query.cexec.*`, see `dx-obs`): `rows_scanned` counts
//! stored conditional tuples examined by scans, `rows_joined` counts
//! conditional join output rows, `seed_partitions`/`seed_reruns` count a
//! seeded anti-join's distinct seed keys and branch executions, and
//! `rows_emitted` counts root-level result rows.

use crate::plan::{Plan, PlanPred, Ref};
use dx_ctables::{CInstance, CTable, CTuple, Condition};
use dx_logic::Term;
use dx_relation::{Tuple, Value, Var};
use std::collections::BTreeSet;

/// A conditional binding table.
#[derive(Clone, Debug, Default)]
pub struct CRows {
    /// Sorted output variables.
    pub vars: Vec<Var>,
    /// Binding rows with their presence conditions.
    pub rows: Vec<(Vec<Value>, Condition)>,
}

impl CRows {
    fn col(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&w| w == v)
    }

    fn push(&mut self, row: Vec<Value>, cond: Condition) {
        if cond != Condition::False {
            self.rows.push((row, cond));
        }
    }
}

/// Execute a plan over a conditional instance.
pub fn exec_conditional(plan: &Plan, cinst: &CInstance) -> CRows {
    let _span = dx_obs::span!("query.cexec");
    let rows = cexec_node(plan, cinst);
    dx_obs::count!("query.cexec.rows_emitted", rows.rows.len());
    dx_obs::trace_instant!("query.cexec.root_done", "rows" = rows.rows.len());
    rows
}

fn cexec_node(plan: &Plan, cinst: &CInstance) -> CRows {
    let rows = cexec_node_inner(plan, cinst);
    crate::explain::trace::note_call(plan);
    crate::explain::trace::note_rows(plan, rows.rows.len());
    rows
}

fn cexec_node_inner(plan: &Plan, cinst: &CInstance) -> CRows {
    match plan {
        Plan::Unit => CRows {
            vars: Vec::new(),
            rows: vec![(Vec::new(), Condition::True)],
        },
        Plan::Empty { vars } => {
            let mut vs = vars.clone();
            vs.sort();
            CRows {
                vars: vs,
                rows: Vec::new(),
            }
        }
        Plan::Bind { var, value } => CRows {
            vars: vec![*var],
            rows: vec![(vec![*value], Condition::True)],
        },
        Plan::Scan { rel, args } => {
            let schema: Vec<Var> = plan.vars();
            let mut out = CRows {
                vars: schema.clone(),
                rows: Vec::new(),
            };
            if let Some(table) = cinst.table(*rel) {
                let mut scanned = 0usize;
                for ct in table.rows() {
                    scanned += 1;
                    if let Some((row, cond)) = unify_conditional(args, &ct.tuple, &schema) {
                        out.push(row, Condition::and([ct.cond.clone(), cond]));
                    }
                }
                dx_obs::count!("query.cexec.rows_scanned", scanned);
            }
            out
        }
        Plan::Join { inputs } => {
            let mut parts: Vec<CRows> = inputs.iter().map(|p| cexec_node(p, cinst)).collect();
            // Cheapest-first fold keeps intermediates small.
            parts.sort_by_key(|r| r.rows.len());
            let mut acc = match parts.first() {
                None => return cexec_node(&Plan::Unit, cinst),
                Some(_) => parts.remove(0),
            };
            for part in parts {
                acc = cjoin(&acc, &part);
            }
            acc
        }
        Plan::SemiJoin { left, right } => filter_join_conditional(left, right, cinst, true),
        Plan::AntiJoin { left, right } => filter_join_conditional(left, right, cinst, false),
        Plan::SeededAntiJoin { left, right, seed } => {
            seeded_anti_conditional(plan, left, right, seed, cinst)
        }
        Plan::Select { input, pred } => {
            let rows = cexec_node(input, cinst);
            let mut out = CRows {
                vars: rows.vars.clone(),
                rows: Vec::new(),
            };
            for (row, cond) in rows.rows {
                let pc = pred_condition(pred, &rows.vars, &row);
                out.push(row, Condition::and([cond, pc]));
            }
            out
        }
        Plan::Project { input, vars } => {
            let rows = cexec_node(input, cinst);
            let mut out_vars = vars.clone();
            out_vars.sort();
            let cols: Vec<usize> = out_vars
                .iter()
                .map(|v| rows.col(*v).expect("projected variable is produced"))
                .collect();
            CRows {
                vars: out_vars,
                rows: rows
                    .rows
                    .into_iter()
                    .map(|(row, cond)| (cols.iter().map(|&c| row[c]).collect(), cond))
                    .collect(),
            }
        }
        Plan::Union { inputs } => {
            let mut out: Option<CRows> = None;
            for p in inputs {
                let rows = cexec_node(p, cinst);
                match &mut out {
                    None => out = Some(rows),
                    Some(acc) => {
                        debug_assert_eq!(acc.vars, rows.vars, "union schema mismatch");
                        acc.rows.extend(rows.rows);
                    }
                }
            }
            out.unwrap_or_default()
        }
        Plan::Alias { input, src, dst } => {
            let rows = cexec_node(input, cinst);
            let src_col = rows.col(*src).expect("alias source is produced");
            let mut vars = rows.vars.clone();
            vars.push(*dst);
            vars.sort();
            let order: Vec<usize> = vars
                .iter()
                .map(|v| {
                    if v == dst {
                        usize::MAX
                    } else {
                        rows.col(*v).expect("existing column")
                    }
                })
                .collect();
            CRows {
                vars,
                rows: rows
                    .rows
                    .into_iter()
                    .map(|(row, cond)| {
                        (
                            order
                                .iter()
                                .map(|&c| {
                                    if c == usize::MAX {
                                        row[src_col]
                                    } else {
                                        row[c]
                                    }
                                })
                                .collect(),
                            cond,
                        )
                    })
                    .collect(),
            }
        }
    }
}

/// Execute a plan and package the result as a [`CTable`] whose columns
/// follow `outcols` (variables may repeat, mirroring positional RA
/// projection).
pub fn exec_conditional_table(plan: &Plan, outcols: &[Var], cinst: &CInstance) -> CTable {
    let rows = exec_conditional(plan, cinst);
    let cols: Vec<usize> = outcols
        .iter()
        .map(|v| rows.col(*v).expect("output variable is produced"))
        .collect();
    let mut out = CTable::new(outcols.len());
    for (row, cond) in rows.rows {
        out.push(CTuple::when(
            Tuple::new(cols.iter().map(|&c| row[c]).collect::<Vec<_>>()),
            cond,
        ));
    }
    out
}

/// Unify a stored tuple against an atom template, conditionally: mismatches
/// between ground values prune, anything involving a null becomes an
/// equality condition. The bound representative prefers ground values.
fn unify_conditional(
    args: &[Term],
    tuple: &Tuple,
    schema: &[Var],
) -> Option<(Vec<Value>, Condition)> {
    let mut bound: Vec<(Var, Value)> = Vec::new();
    let mut conds: Vec<Condition> = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        let v = tuple.get(i);
        match arg {
            Term::Const(c) => {
                let cv = Value::Const(*c);
                if v.is_const() {
                    if v != cv {
                        return None;
                    }
                } else {
                    conds.push(Condition::eq(v, cv));
                }
            }
            Term::Var(x) => match bound.iter_mut().find(|(b, _)| *b == *x) {
                Some((_, bv)) => {
                    if bv.is_const() && v.is_const() {
                        if *bv != v {
                            return None;
                        }
                    } else if *bv != v {
                        conds.push(Condition::eq(*bv, v));
                        if v.is_const() {
                            *bv = v;
                        }
                    }
                }
                None => bound.push((*x, v)),
            },
            Term::App(_, _) => unreachable!("plans are function-free"),
        }
    }
    let row = schema
        .iter()
        .map(|s| {
            bound
                .iter()
                .find(|(b, _)| b == s)
                .map(|(_, v)| *v)
                .expect("schema variable bound")
        })
        .collect();
    Some((row, Condition::and(conds)))
}

/// Conditional natural join: pairs whose shared positions are ground and
/// equal combine with the conjoined condition; pairs where a shared
/// position involves a null combine guarded by the equality; ground-vs-
/// ground mismatches prune.
///
/// Execution is hash-partitioned on the join key: right rows whose shared
/// positions are **all ground** go into a hash table and are found by one
/// probe per ground-keyed left row, while rows carrying a null in a key
/// position — which must be paired against everything, since any pairing
/// is only *conditionally* equal — stay in a fallback list. A left row
/// with a null in its key likewise scans the whole right side. Candidate
/// lists are merged in right-row order, so emitted rows appear exactly as
/// the nested loop produced them (downstream condition extraction is
/// order-sensitive only in its intermediate representation, but keeping
/// the order makes the fast path bit-identical, not just set-identical).
fn cjoin(left: &CRows, right: &CRows) -> CRows {
    let shared: Vec<Var> = left
        .vars
        .iter()
        .copied()
        .filter(|v| right.col(*v).is_some())
        .collect();
    let mut schema: BTreeSet<Var> = left.vars.iter().copied().collect();
    schema.extend(right.vars.iter().copied());
    let schema: Vec<Var> = schema.into_iter().collect();
    let l_shared: Vec<usize> = shared.iter().map(|v| left.col(*v).unwrap()).collect();
    let r_shared: Vec<usize> = shared.iter().map(|v| right.col(*v).unwrap()).collect();
    let mut out = CRows {
        vars: schema.clone(),
        rows: Vec::new(),
    };

    // Partition the right side: ground join keys are hash-probeable, rows
    // with a null in a key position must see every left row.
    let mut ground_keyed: dx_relation::FastMap<Vec<Value>, Vec<usize>> =
        dx_relation::FastMap::default();
    let mut null_keyed: Vec<usize> = Vec::new();
    for (ri, (rrow, _)) in right.rows.iter().enumerate() {
        let key: Vec<Value> = r_shared.iter().map(|&c| rrow[c]).collect();
        if key.iter().all(|v| v.is_const()) {
            ground_keyed.entry(key).or_default().push(ri);
        } else {
            null_keyed.push(ri);
        }
    }

    // One pairing of a left row with a right row — exactly the old nested
    // loop's inner body.
    let mut emit = |lrow: &Vec<Value>, lcond: &Condition, ri: usize| {
        let (rrow, rcond) = &right.rows[ri];
        let mut conds = vec![lcond.clone(), rcond.clone()];
        // Shared positions: ground/ground mismatches prune; anything
        // with a null is guarded.
        let mut merged: Vec<(Var, Value)> = Vec::new();
        for (k, v) in shared.iter().enumerate() {
            let (a, b) = (lrow[l_shared[k]], rrow[r_shared[k]]);
            if a.is_const() && b.is_const() {
                if a != b {
                    return;
                }
                merged.push((*v, a));
            } else {
                if a != b {
                    conds.push(Condition::eq(a, b));
                }
                merged.push((*v, if b.is_const() { b } else { a }));
            }
        }
        let row: Vec<Value> = schema
            .iter()
            .map(|s| {
                if let Some((_, v)) = merged.iter().find(|(m, _)| m == s) {
                    *v
                } else if let Some(c) = left.col(*s) {
                    lrow[c]
                } else {
                    rrow[right.col(*s).expect("var from one side")]
                }
            })
            .collect();
        out.push(row, Condition::and(conds));
    };

    for (lrow, lcond) in &left.rows {
        let key: Vec<Value> = l_shared.iter().map(|&c| lrow[c]).collect();
        if key.iter().all(|v| v.is_const()) {
            // Hash fast path: exact-key ground partners plus every
            // null-keyed row, merged back into right-row order.
            let ground = ground_keyed.get(&key).map(Vec::as_slice).unwrap_or(&[]);
            let (mut gi, mut ni) = (0usize, 0usize);
            while gi < ground.len() || ni < null_keyed.len() {
                let next = match (ground.get(gi), null_keyed.get(ni)) {
                    (Some(&g), Some(&n)) if g < n => {
                        gi += 1;
                        g
                    }
                    (Some(_), Some(&n)) => {
                        ni += 1;
                        n
                    }
                    (Some(&g), None) => {
                        gi += 1;
                        g
                    }
                    (None, Some(&n)) => {
                        ni += 1;
                        n
                    }
                    (None, None) => unreachable!("loop condition"),
                };
                emit(lrow, lcond, next);
            }
        } else {
            // A null in the left key: every right row is a conditional
            // partner.
            for ri in 0..right.rows.len() {
                emit(lrow, lcond, ri);
            }
        }
    }
    dx_obs::count!("query.cexec.rows_joined", out.rows.len());
    out
}

/// Conditional semi-join (`keep = true`) / anti-join (`keep = false`).
fn filter_join_conditional(left: &Plan, right: &Plan, cinst: &CInstance, keep: bool) -> CRows {
    let l = cexec_node(left, cinst);
    let r = cexec_node(right, cinst);
    let shared: Vec<Var> = l
        .vars
        .iter()
        .copied()
        .filter(|v| r.col(*v).is_some())
        .collect();
    let l_cols: Vec<usize> = shared.iter().map(|v| l.col(*v).unwrap()).collect();
    let r_cols: Vec<usize> = shared.iter().map(|v| r.col(*v).unwrap()).collect();
    let mut out = CRows {
        vars: l.vars.clone(),
        rows: Vec::new(),
    };
    for (lrow, lcond) in &l.rows {
        // The condition under which SOME right row matches this left row.
        let support = Condition::or(r.rows.iter().map(|(rrow, rcond)| {
            Condition::and(
                std::iter::once(rcond.clone()).chain(
                    shared
                        .iter()
                        .enumerate()
                        .map(|(k, _)| Condition::eq(lrow[l_cols[k]], rrow[r_cols[k]])),
                ),
            )
        }));
        let cond = if keep {
            Condition::and([lcond.clone(), support])
        } else {
            Condition::and([lcond.clone(), support.negate()])
        };
        out.push(lrow.clone(), cond);
    }
    out
}

/// Conditional seeded anti-join. The left rows are hash-partitioned on the
/// seed key (a null in the key is an atomic partition value: identical
/// nulls share the branch execution, and the substituted plan's guards
/// reference that null, so any valuation resolves them consistently); the
/// correlated branch runs once per distinct key with the seeds substituted
/// ([`Plan::bind_seed`] — predicates take the value directly, scans of a
/// null seed gain an equality-guarded fresh column). Each left row then
/// receives the standard Imieliński–Lipski blocker condition: the negated
/// disjunction, over the branch's rows, of "row present ∧ shared variables
/// equal".
fn seeded_anti_conditional(
    node: &Plan,
    left: &Plan,
    right: &Plan,
    seed: &[Var],
    cinst: &CInstance,
) -> CRows {
    let l = cexec_node(left, cinst);
    let seed_cols: Vec<usize> = seed
        .iter()
        .map(|v| l.col(*v).expect("seed variable is bound by the left side"))
        .collect();
    // The shared variables are key independent: `bind_seed` removes the
    // same seed variables from the branch schema for every key, and the
    // reserved `$seed:` columns a null key adds never occur in `l.vars`.
    // Only the branch-side column positions can shift per key.
    let shared: Vec<Var> = {
        let rv: BTreeSet<Var> = right.vars().into_iter().collect();
        l.vars
            .iter()
            .copied()
            .filter(|v| rv.contains(v) && !seed.contains(v))
            .collect()
    };
    let l_cols: Vec<usize> = shared.iter().map(|v| l.col(*v).unwrap()).collect();
    let run_branch = |key: &[Value]| -> (CRows, Vec<usize>) {
        let mut branch = right.clone();
        for (v, val) in seed.iter().zip(key) {
            branch.bind_seed(*v, *val);
        }
        let rows = cexec_node(&branch, cinst);
        let r_cols: Vec<usize> = shared
            .iter()
            .map(|v| rows.col(*v).expect("shared variable survives seeding"))
            .collect();
        (rows, r_cols)
    };
    let mut branches: dx_relation::FastMap<Vec<Value>, (CRows, Vec<usize>)> =
        dx_relation::FastMap::default();
    let mut reruns = 0u64;
    let mut out = CRows {
        vars: l.vars.clone(),
        rows: Vec::new(),
    };
    for (lrow, lcond) in &l.rows {
        let key: Vec<Value> = seed_cols.iter().map(|&c| lrow[c]).collect();
        let (r, r_cols) = branches.entry(key.clone()).or_insert_with(|| {
            reruns += 1;
            run_branch(&key)
        });
        let support = Condition::or(r.rows.iter().map(|(rrow, rcond)| {
            Condition::and(
                std::iter::once(rcond.clone()).chain(
                    shared
                        .iter()
                        .enumerate()
                        .map(|(k, _)| Condition::eq(lrow[l_cols[k]], rrow[r_cols[k]])),
                ),
            )
        }));
        out.push(
            lrow.clone(),
            Condition::and([lcond.clone(), support.negate()]),
        );
    }
    dx_obs::count!("query.cexec.seed_partitions", branches.len());
    dx_obs::count!("query.cexec.seed_reruns", reruns);
    crate::explain::trace::note_seed(node, branches.len() as u64, reruns);
    out
}

fn pred_condition(p: &PlanPred, vars: &[Var], row: &[Value]) -> Condition {
    let resolve = |r: &Ref| -> Value {
        match r {
            Ref::Val(v) => *v,
            Ref::Var(v) => {
                let i = vars.iter().position(|w| w == v).expect("bound pred var");
                row[i]
            }
        }
    };
    match p {
        PlanPred::True => Condition::True,
        PlanPred::Eq(a, b) => Condition::eq(resolve(a), resolve(b)),
        PlanPred::And(ps) => Condition::and(ps.iter().map(|p| pred_condition(p, vars, row))),
        PlanPred::Or(ps) => Condition::or(ps.iter().map(|p| pred_condition(p, vars, row))),
        PlanPred::Not(p) => pred_condition(p, vars, row).negate(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_formula;
    use dx_logic::parse_formula;
    use dx_relation::{Instance, RelSym};

    /// v(exec_conditional(T)) must equal the ground execution over v(T),
    /// for every palette valuation — the representation theorem on the plan
    /// executor.
    #[test]
    fn conditional_commutes_with_valuations() {
        let r = RelSym::new("CxR");
        let s = RelSym::new("CxS");
        let mut inst = Instance::new();
        inst.insert(r, Tuple::new(vec![Value::c("a"), Value::null(1)]));
        inst.insert(r, Tuple::new(vec![Value::null(1), Value::null(2)]));
        inst.insert(s, Tuple::new(vec![Value::c("a")]));
        let ct = CInstance::from_naive(&inst);
        let f = parse_formula("exists y. CxR(x, y) & !CxS(x)").unwrap();
        let plan = lower_formula(&f).unwrap();
        let outcols = [dx_relation::Var::new("x")];
        let cond_result = exec_conditional_table(&plan, &outcols, &ct);
        for (ground, v) in ct.rep_members(&std::collections::BTreeSet::new()) {
            let idx = dx_relation::DeltaIndex::from_instance(&ground);
            let direct = crate::exec::exec(&plan, &idx);
            let direct_set: BTreeSet<Vec<Value>> = direct.rows.into_iter().collect();
            let via: BTreeSet<Vec<Value>> = cond_result
                .apply(&v)
                .into_iter()
                .map(|t| t.values().to_vec())
                .collect();
            assert_eq!(via, direct_set, "valuation {v:?}");
        }
    }

    /// The hash fast path of [`cjoin`] (ground join keys probed, null keys
    /// nested-loop) is semantics preserving: on a join whose key columns
    /// mix ground values and nulls on both sides, applying any palette
    /// valuation to the conditional result equals the ground execution
    /// over the valued instance.
    #[test]
    fn cjoin_hash_path_commutes_with_valuations() {
        let r = RelSym::new("CjR");
        let s = RelSym::new("CjS");
        let mut inst = Instance::new();
        for (a, b) in [("a", "k"), ("b", "l"), ("c", "k")] {
            inst.insert(r, Tuple::from_names(&[a, b]));
        }
        inst.insert(r, Tuple::new(vec![Value::c("d"), Value::null(1)]));
        inst.insert(s, Tuple::from_names(&["k", "out1"]));
        inst.insert(s, Tuple::from_names(&["l", "out2"]));
        inst.insert(s, Tuple::new(vec![Value::null(1), Value::c("out3")]));
        inst.insert(s, Tuple::new(vec![Value::null(2), Value::c("out4")]));
        let ct = CInstance::from_naive(&inst);
        let f = parse_formula("CjR(x, y) & CjS(y, z)").unwrap();
        let plan = lower_formula(&f).unwrap();
        let outcols = [dx_relation::Var::new("x"), dx_relation::Var::new("z")];
        let cond_result = exec_conditional_table(&plan, &outcols, &ct);
        let mut checked = 0usize;
        for (ground, v) in ct.rep_members(&std::collections::BTreeSet::new()) {
            let idx = dx_relation::DeltaIndex::from_instance(&ground);
            let direct: BTreeSet<Vec<Value>> = {
                let rows = crate::exec::exec(&plan, &idx);
                let xc = rows.col(outcols[0]).unwrap();
                let zc = rows.col(outcols[1]).unwrap();
                rows.rows.iter().map(|r| vec![r[xc], r[zc]]).collect()
            };
            let via: BTreeSet<Vec<Value>> = cond_result
                .apply(&v)
                .into_iter()
                .map(|t| t.values().to_vec())
                .collect();
            assert_eq!(via, direct, "valuation {v:?}");
            checked += 1;
        }
        assert!(checked > 1, "several rep members exercised");
    }

    /// The seeded anti-join commutes with valuations: on the correlated §1
    /// one-author query over a table whose papers and authors both carry
    /// nulls, applying any palette valuation to the conditional result
    /// equals the ground execution over the valued instance.
    #[test]
    fn seeded_antijoin_commutes_with_valuations() {
        let s = RelSym::new("CsSub");
        let mut inst = Instance::new();
        inst.insert(s, Tuple::from_names(&["p1", "alice"]));
        inst.insert(s, Tuple::new(vec![Value::c("p1"), Value::null(1)]));
        inst.insert(s, Tuple::new(vec![Value::null(2), Value::c("bob")]));
        let ct = CInstance::from_naive(&inst);
        let f =
            parse_formula("exists a. CsSub(p, a) & (forall b. (CsSub(p, b) -> a = b))").unwrap();
        let plan = lower_formula(&f).unwrap();
        let outcols = [dx_relation::Var::new("p")];
        let cond_result = exec_conditional_table(&plan, &outcols, &ct);
        let mut checked = 0usize;
        for (ground, v) in ct.rep_members(&std::collections::BTreeSet::new()) {
            let idx = dx_relation::DeltaIndex::from_instance(&ground);
            let direct: BTreeSet<Vec<Value>> =
                crate::exec::exec(&plan, &idx).rows.into_iter().collect();
            let via: BTreeSet<Vec<Value>> = cond_result
                .apply(&v)
                .into_iter()
                .map(|t| t.values().to_vec())
                .collect();
            assert_eq!(via, direct, "valuation {v:?}");
            checked += 1;
        }
        assert!(checked > 1, "several rep members exercised");
    }

    #[test]
    fn null_unification_guards_instead_of_pruning() {
        let r = RelSym::new("CxT");
        let mut inst = Instance::new();
        inst.insert(r, Tuple::new(vec![Value::null(7)]));
        let ct = CInstance::from_naive(&inst);
        let f = parse_formula("CxT('a')").unwrap();
        let plan = lower_formula(&f).unwrap();
        let rows = exec_conditional(&plan, &ct);
        assert_eq!(rows.rows.len(), 1);
        assert_eq!(rows.rows[0].1, Condition::eq(Value::null(7), Value::c("a")));
    }
}
