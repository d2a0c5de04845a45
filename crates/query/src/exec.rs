//! The ground executor: plans over [`QueryStore`]s, nulls as atomic values.
//!
//! Two modes share the plan algebra:
//!
//! * **Materializing** ([`exec`]) — rows are vectors of values keyed by the
//!   executing node's sorted output variables. Joins are executed
//!   **greedily by index selectivity**: scans stay symbolic until joined,
//!   and at each step the executor prefers an input sharing variables with
//!   the rows built so far (so the scan becomes a per-row index probe) and,
//!   among those, the one with the smallest selectivity estimate.
//!   Materialized inputs (subplans, unions, single-row binds) join by
//!   hashing on the shared variables. Anti-/semi-joins hash the filter side
//!   once and reduce the preserved side in one pass; a filter side sharing
//!   no column with the preserved side (a *boolean gate*) is only asked
//!   for emptiness, in first-witness mode.
//! * **First witness** ([`exec_nonempty`]) — the yes/no question "does the
//!   plan have a row agreeing with these bound variables?". Joins run as
//!   pipelined index-nested loops in the same greedy order, measured
//!   against the bound values; selections apply as soon as their variables
//!   are bound; anti-/semi-joins walk the preserved side lazily and probe
//!   the other side per row in the same mode; the walk returns at the
//!   first root row. Nothing is materialized and no plan is cloned.
//!
//! Work metrics (`DX_OBS=1`): `query.exec.rows_emitted` (rows returned by
//! root calls — [`exec`]'s row count, or the 0 or 1 row a root
//! [`exec_nonempty`] call answers with), `.rows_scanned` (tuples visited by
//! scans and probes), `.rows_joined` (rows produced by join nodes; in
//! first-witness mode, the complete join rows reached), `.index_probes`
//! (store probes), and `.seed_partitions` / `.seed_reruns` (the seeded
//! anti-join's distinct keys / correlated branch executions; a
//! first-witness walk has no partitions and counts one re-run per branch
//! probe). Per-node row counts for EXPLAIN reports are captured through
//! [`crate::explain`]'s thread-local collector in materializing mode.

use crate::plan::{Plan, PlanPred, Ref};
use crate::store::QueryStore;
use dx_logic::Term;
use dx_relation::{FastMap, FastSet, RelSym, Tuple, Value, Var};
use std::collections::BTreeSet;
use std::ops::ControlFlow;

/// Row count below which the chunked executors stay sequential: the
/// per-region pool setup costs more than it saves on tiny inputs.
const PAR_MIN_ROWS: usize = 256;

/// Chunk geometry for a parallel sweep over `n` rows: `Some((chunk_len,
/// chunk_count))` when going parallel pays off, `None` to stay inline.
/// Chunks are contiguous and merged in index order, so every chunked
/// executor emits rows in exactly the sequential order.
fn par_chunks(n: usize) -> Option<(usize, usize)> {
    let threads = rayon::current_num_threads();
    if threads <= 1 || n < PAR_MIN_ROWS {
        return None;
    }
    // Over-decompose (4 chunks per worker) so stealing can level skew.
    let chunk = n.div_ceil(threads * 4).max(1);
    Some((chunk, n.div_ceil(chunk)))
}

/// A materialized binding table: `vars` are sorted, every row is keyed by
/// them positionally.
#[derive(Clone, Debug, Default)]
pub struct Rows {
    /// The sorted output variables.
    pub vars: Vec<Var>,
    /// The binding rows (a set by construction).
    pub rows: Vec<Vec<Value>>,
}

impl Rows {
    /// Position of `v` in the schema.
    pub fn col(&self, v: Var) -> Option<usize> {
        self.vars.iter().position(|&w| w == v)
    }

    fn unit() -> Rows {
        Rows {
            vars: Vec::new(),
            rows: vec![Vec::new()],
        }
    }

    fn empty(vars: Vec<Var>) -> Rows {
        Rows {
            vars,
            rows: Vec::new(),
        }
    }
}

/// Execute a plan against a store, materializing its binding rows.
pub fn exec(plan: &Plan, store: &dyn QueryStore) -> Rows {
    let _span = dx_obs::span!("query.exec");
    let rows = exec_node(plan, store);
    dx_obs::count!("query.exec.rows_emitted", rows.rows.len());
    dx_obs::trace_instant!("query.exec.root_done", "rows" = rows.rows.len());
    rows
}

/// One node's execution (the recursive form). Every node completion is
/// reported to the explain collector; only root [`exec`] calls count
/// toward `query.exec.rows_emitted`.
fn exec_node(plan: &Plan, store: &dyn QueryStore) -> Rows {
    let rows = exec_node_inner(plan, store);
    crate::explain::trace::note_rows(plan, rows.rows.len());
    rows
}

fn exec_node_inner(plan: &Plan, store: &dyn QueryStore) -> Rows {
    match plan {
        Plan::Unit => Rows::unit(),
        Plan::Empty { vars } => {
            let mut vs = vars.clone();
            vs.sort();
            Rows::empty(vs)
        }
        Plan::Bind { var, value } => Rows {
            vars: vec![*var],
            rows: vec![vec![*value]],
        },
        Plan::Scan { rel, args } => scan_all(store, *rel, args),
        Plan::Join { inputs } => exec_join(inputs, store),
        Plan::SemiJoin { left, right } => exec_filter_join(left, right, store, true),
        Plan::AntiJoin { left, right } => exec_filter_join(left, right, store, false),
        Plan::SeededAntiJoin { left, right, seed } => {
            exec_seeded_anti(plan, left, right, seed, store)
        }
        Plan::Select { input, pred } => {
            let mut rows = exec_node(input, store);
            rows.rows.retain(|r| eval_pred(pred, &rows.vars, r));
            rows
        }
        Plan::Project { input, vars } => {
            let rows = exec_node(input, store);
            let mut out_vars = vars.clone();
            out_vars.sort();
            let cols: Vec<usize> = out_vars
                .iter()
                .map(|v| rows.col(*v).expect("projected variable is produced"))
                .collect();
            let set: BTreeSet<Vec<Value>> = rows
                .rows
                .iter()
                .map(|r| cols.iter().map(|&c| r[c]).collect())
                .collect();
            Rows {
                vars: out_vars,
                rows: set.into_iter().collect(),
            }
        }
        Plan::Union { inputs } => {
            let mut out_vars: Option<Vec<Var>> = None;
            let mut set: BTreeSet<Vec<Value>> = BTreeSet::new();
            for p in inputs {
                let rows = exec_node(p, store);
                match &out_vars {
                    None => out_vars = Some(rows.vars.clone()),
                    Some(vs) => debug_assert_eq!(vs, &rows.vars, "union schema mismatch"),
                }
                set.extend(rows.rows);
            }
            Rows {
                vars: out_vars.unwrap_or_default(),
                rows: set.into_iter().collect(),
            }
        }
        Plan::Alias { input, src, dst } => {
            let rows = exec_node(input, store);
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
            let out = rows
                .rows
                .iter()
                .map(|r| {
                    order
                        .iter()
                        .map(|&c| if c == usize::MAX { r[src_col] } else { r[c] })
                        .collect()
                })
                .collect();
            Rows { vars, rows: out }
        }
    }
}

/// Does the plan produce a row agreeing with `bound`? The first-witness
/// root call: `exec_nonempty(p, s, &[(x, a), …])` answers exactly
/// `!exec(Join[Bind x := a, …, p], s).rows.is_empty()`, stopping at the
/// first witness row. Nulls in `bound` are atomic values; a variable bound
/// twice to unequal values has no row.
pub fn exec_nonempty(plan: &Plan, store: &dyn QueryStore, bound: &[(Var, Value)]) -> bool {
    let _span = dx_obs::span!("query.exec");
    let mut w = Witness::new(store);
    let mut consistent = true;
    for &(var, val) in bound {
        match w.lookup(var) {
            Some(prev) => consistent &= prev == val,
            None => w.push(var, val, false),
        }
    }
    let found = consistent && w.exists(plan);
    w.flush();
    dx_obs::count!("query.exec.rows_emitted", u64::from(found));
    dx_obs::trace_instant!("query.exec.root_done", "rows" = usize::from(found));
    found
}

/// A boolean gate of the materializing executor: does `plan` have a row
/// with the `seeds` substituted ([`Plan::bind_seed`] semantics, so the
/// plan is not cloned)? Not a root call: counts no emitted rows.
fn gate_open(plan: &Plan, store: &dyn QueryStore, seeds: &[Var], key: &[Value]) -> bool {
    let mut w = Witness::new(store);
    for (&var, &val) in seeds.iter().zip(key) {
        w.push(var, val, true);
    }
    let found = w.exists(plan);
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

fn eval_pred(p: &PlanPred, vars: &[Var], row: &[Value]) -> bool {
    eval_partial(p, &|v| vars.iter().position(|&w| w == v).map(|i| row[i])).expect("bound pred var")
}

/// The constant-only probe pattern of an atom template.
fn const_pattern(args: &[Term]) -> Vec<Option<Value>> {
    args.iter()
        .map(|t| match t {
            Term::Const(c) => Some(Value::Const(*c)),
            _ => None,
        })
        .collect()
}

/// Unify one stored tuple against the template given some already-bound
/// variables; returns the row over `schema` on success.
fn unify_tuple(
    args: &[Term],
    tuple: &dx_relation::Tuple,
    schema: &[Var],
    prebound: &[(Var, Value)],
) -> Option<Vec<Value>> {
    let mut bound: Vec<(Var, Value)> = prebound.to_vec();
    for (i, arg) in args.iter().enumerate() {
        let v = tuple.get(i);
        match arg {
            Term::Const(c) => {
                if v != Value::Const(*c) {
                    return None;
                }
            }
            Term::Var(x) => match bound.iter().find(|(b, _)| b == x) {
                Some((_, bv)) => {
                    if *bv != v {
                        return None;
                    }
                }
                None => bound.push((*x, v)),
            },
            Term::App(_, _) => unreachable!("plans are function-free"),
        }
    }
    Some(
        schema
            .iter()
            .map(|s| {
                bound
                    .iter()
                    .find(|(b, _)| b == s)
                    .map(|(_, v)| *v)
                    .expect("schema variable bound")
            })
            .collect(),
    )
}

/// Full scan of an atom template (constants pre-filtered by the index).
fn scan_all(store: &dyn QueryStore, rel: RelSym, args: &[Term]) -> Rows {
    let schema: Vec<Var> = {
        let mut s: BTreeSet<Var> = BTreeSet::new();
        for t in args {
            if let Term::Var(v) = t {
                s.insert(*v);
            }
        }
        s.into_iter().collect()
    };
    let mut rows = Vec::new();
    let mut scanned = 0u64;
    dx_obs::count!("query.exec.index_probes");
    let _ = store.for_each_matching(rel, &const_pattern(args), &mut |t| {
        scanned += 1;
        if let Some(row) = unify_tuple(args, t, &schema, &[]) {
            rows.push(row);
        }
        ControlFlow::Continue(())
    });
    dx_obs::count!("query.exec.rows_scanned", scanned);
    // Repeated scans of set-semantics relations produce no duplicates, but a
    // live annotated store may expose the same tuple under two annotations.
    rows.sort();
    rows.dedup();
    Rows { vars: schema, rows }
}

enum JoinItem<'p> {
    Scan {
        rel: RelSym,
        args: &'p [Term],
        sel: usize,
    },
    Mat(Rows),
}

impl JoinItem<'_> {
    fn size(&self) -> usize {
        match self {
            JoinItem::Scan { sel, .. } => *sel,
            JoinItem::Mat(rows) => rows.rows.len(),
        }
    }

    fn vars(&self) -> Vec<Var> {
        match self {
            JoinItem::Scan { args, .. } => {
                let mut s: BTreeSet<Var> = BTreeSet::new();
                for t in *args {
                    if let Term::Var(v) = t {
                        s.insert(*v);
                    }
                }
                s.into_iter().collect()
            }
            JoinItem::Mat(rows) => rows.vars.clone(),
        }
    }
}

/// Greedy n-ary join: repeatedly fold in the input that (a) shares
/// variables with what is bound so far and (b) has the smallest
/// selectivity estimate; shared-variable scans run as per-row index
/// probes, everything else as hash joins.
fn exec_join(inputs: &[Plan], store: &dyn QueryStore) -> Rows {
    let mut items: Vec<JoinItem> = inputs
        .iter()
        .map(|p| match p {
            Plan::Scan { rel, args } => JoinItem::Scan {
                rel: *rel,
                args,
                sel: store.selectivity(*rel, &const_pattern(args)),
            },
            other => JoinItem::Mat(exec_node(other, store)),
        })
        .collect();
    if items.is_empty() {
        return Rows::unit();
    }
    // Start from the smallest input.
    let start = items
        .iter()
        .enumerate()
        .min_by_key(|(_, it)| it.size())
        .map(|(i, _)| i)
        .expect("non-empty");
    let mut acc = match items.swap_remove(start) {
        JoinItem::Scan { rel, args, .. } => scan_all(store, rel, args),
        JoinItem::Mat(rows) => rows,
    };
    while !items.is_empty() {
        let bound: BTreeSet<Var> = acc.vars.iter().copied().collect();
        let next = items
            .iter()
            .enumerate()
            .min_by_key(|(_, it)| {
                let shares = it.vars().iter().any(|v| bound.contains(v));
                (!shares, it.size())
            })
            .map(|(i, _)| i)
            .expect("non-empty");
        acc = match items.swap_remove(next) {
            JoinItem::Scan { rel, args, .. } => {
                if args
                    .iter()
                    .any(|t| matches!(t, Term::Var(v) if bound.contains(v)))
                {
                    probe_join(acc, store, rel, args)
                } else {
                    hash_join(acc, scan_all(store, rel, args))
                }
            }
            JoinItem::Mat(rows) => hash_join(acc, rows),
        };
        if acc.rows.is_empty() {
            // Every remaining input can only keep the result empty.
            let mut vars: BTreeSet<Var> = acc.vars.iter().copied().collect();
            for it in &items {
                vars.extend(it.vars());
            }
            return Rows::empty(vars.into_iter().collect());
        }
    }
    acc
}

/// Join `acc` with a scan by probing the store once per accumulated row,
/// with the shared variables' values folded into the probe pattern.
fn probe_join(acc: Rows, store: &dyn QueryStore, rel: RelSym, args: &[Term]) -> Rows {
    let mut schema: BTreeSet<Var> = acc.vars.iter().copied().collect();
    for t in args {
        if let Term::Var(v) = t {
            schema.insert(*v);
        }
    }
    let schema: Vec<Var> = schema.into_iter().collect();
    // Per-argument source: constant, shared column of acc, or free.
    let acc_cols: Vec<Option<usize>> = args
        .iter()
        .map(|t| match t {
            Term::Var(v) => acc.col(*v),
            _ => None,
        })
        .collect();
    dx_obs::count!("query.exec.index_probes", acc.rows.len());
    let probe_one = |row: &[Value], out: &mut Vec<Vec<Value>>, scanned: &mut u64| {
        let pattern: Vec<Option<Value>> = args
            .iter()
            .zip(&acc_cols)
            .map(|(t, col)| match (t, col) {
                (Term::Const(c), _) => Some(Value::Const(*c)),
                (_, Some(c)) => Some(row[*c]),
                _ => None,
            })
            .collect();
        let prebound: Vec<(Var, Value)> =
            acc.vars.iter().copied().zip(row.iter().copied()).collect();
        let _ = store.for_each_matching(rel, &pattern, &mut |t| {
            *scanned += 1;
            if let Some(joined) = unify_tuple(args, t, &schema, &prebound) {
                out.push(joined);
            }
            ControlFlow::Continue(())
        });
    };
    let (mut out, scanned) = match par_chunks(acc.rows.len()) {
        Some((chunk, chunks)) => {
            let parts: Vec<(Vec<Vec<Value>>, u64)> = rayon::par_map(chunks, |ci| {
                let lo = ci * chunk;
                let hi = (lo + chunk).min(acc.rows.len());
                let mut out = Vec::new();
                let mut scanned = 0u64;
                for row in &acc.rows[lo..hi] {
                    probe_one(row, &mut out, &mut scanned);
                }
                (out, scanned)
            });
            let mut out = Vec::new();
            let mut scanned = 0u64;
            for (part, s) in parts {
                out.extend(part);
                scanned += s;
            }
            (out, scanned)
        }
        None => {
            let mut out = Vec::new();
            let mut scanned = 0u64;
            for row in &acc.rows {
                probe_one(row, &mut out, &mut scanned);
            }
            (out, scanned)
        }
    };
    dx_obs::count!("query.exec.rows_scanned", scanned);
    out.sort();
    out.dedup();
    dx_obs::count!("query.exec.rows_joined", out.len());
    Rows {
        vars: schema,
        rows: out,
    }
}

/// Hash join on the shared variables (cartesian product when none).
fn hash_join(left: Rows, right: Rows) -> Rows {
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
    // Emit helper: schema position → (side, column).
    let sources: Vec<(bool, usize)> = schema
        .iter()
        .map(|v| match left.col(*v) {
            Some(c) => (true, c),
            None => (false, right.col(*v).expect("var from one side")),
        })
        .collect();
    let mut table: FastMap<Vec<Value>, Vec<usize>> = FastMap::default();
    for (i, r) in right.rows.iter().enumerate() {
        let key: Vec<Value> = r_shared.iter().map(|&c| r[c]).collect();
        table.entry(key).or_default().push(i);
    }
    let emit_range = |rows: &[Vec<Value>]| {
        let mut out = Vec::new();
        for l in rows {
            let key: Vec<Value> = l_shared.iter().map(|&c| l[c]).collect();
            if let Some(matches) = table.get(&key) {
                for &ri in matches {
                    let r = &right.rows[ri];
                    out.push(
                        sources
                            .iter()
                            .map(|&(from_left, c)| if from_left { l[c] } else { r[c] })
                            .collect::<Vec<Value>>(),
                    );
                }
            }
        }
        out
    };
    let out = match par_chunks(left.rows.len()) {
        Some((chunk, chunks)) => {
            // Probe chunks of the build-once table in parallel; in-order
            // concat keeps the emitted row order sequential-identical.
            let parts: Vec<Vec<Vec<Value>>> = rayon::par_map(chunks, |ci| {
                let lo = ci * chunk;
                let hi = (lo + chunk).min(left.rows.len());
                emit_range(&left.rows[lo..hi])
            });
            parts.into_iter().flatten().collect()
        }
        None => emit_range(&left.rows),
    };
    dx_obs::count!("query.exec.rows_joined", out.len());
    Rows {
        vars: schema,
        rows: out,
    }
}

/// Semi-join (`keep = true`) or anti-join (`keep = false`): hash the filter
/// side on the shared variables, reduce the preserved side in one pass. A
/// filter side sharing no variable is a boolean gate: only its emptiness
/// matters, so it is asked in first-witness mode instead of built.
fn exec_filter_join(left: &Plan, right: &Plan, store: &dyn QueryStore, keep: bool) -> Rows {
    let mut l = exec_node(left, store);
    if !shares_var(left, right) {
        if !l.rows.is_empty() && gate_open(right, store, &[], &[]) != keep {
            l.rows.clear();
        }
        return l;
    }
    let r = exec_node(right, store);
    let shared: Vec<Var> = l
        .vars
        .iter()
        .copied()
        .filter(|v| r.col(*v).is_some())
        .collect();
    let l_cols: Vec<usize> = shared.iter().map(|v| l.col(*v).unwrap()).collect();
    let r_cols: Vec<usize> = shared.iter().map(|v| r.col(*v).unwrap()).collect();
    let keys: BTreeSet<Vec<Value>> = r
        .rows
        .iter()
        .map(|row| r_cols.iter().map(|&c| row[c]).collect())
        .collect();
    let decide = |row: &Vec<Value>| {
        let key: Vec<Value> = l_cols.iter().map(|&c| row[c]).collect();
        keys.contains(&key) == keep
    };
    match par_chunks(l.rows.len()) {
        Some((chunk, chunks)) => {
            // Parallel keep-mask, sequential in-order compaction: the
            // surviving rows and their order match the plain retain.
            let mask: Vec<Vec<bool>> = rayon::par_map(chunks, |ci| {
                let lo = ci * chunk;
                let hi = (lo + chunk).min(l.rows.len());
                l.rows[lo..hi].iter().map(decide).collect()
            });
            let mask: Vec<bool> = mask.into_iter().flatten().collect();
            let mut i = 0;
            l.rows.retain(|_| {
                let k = mask[i];
                i += 1;
                k
            });
        }
        None => l.rows.retain(decide),
    }
    l
}

/// Seeded anti-join: hash-partition the preserved side on the seed key,
/// execute the correlated branch **once per distinct key** with the seeds
/// substituted as constants ([`Plan::bind_seed`]), and reduce each
/// partition by the branch's rows on the remaining shared variables. With
/// no shared variables the branch is a per-key boolean gate, asked in
/// first-witness mode with the seeds bound (the empty key is in the
/// refuting set iff the branch has a row).
fn exec_seeded_anti(
    node: &Plan,
    left: &Plan,
    right: &Plan,
    seed: &[Var],
    store: &dyn QueryStore,
) -> Rows {
    let mut l = exec_node(left, store);
    let seed_cols: Vec<usize> = seed
        .iter()
        .map(|v| l.col(*v).expect("seed variable is bound by the left side"))
        .collect();
    // The shared variables are key independent (`bind_seed` removes the
    // same seed variables from the branch schema for every key, and the
    // reserved `$seed:` columns a null key adds never occur in the left
    // schema); only the branch-side column positions can shift per key.
    let shared: Vec<Var> = {
        let rv: BTreeSet<Var> = right.vars().into_iter().collect();
        l.vars
            .iter()
            .copied()
            .filter(|v| rv.contains(v) && !seed.contains(v))
            .collect()
    };
    let l_cols: Vec<usize> = shared.iter().map(|v| l.col(*v).unwrap()).collect();
    let run_branch = |key: &[Value]| -> BTreeSet<Vec<Value>> {
        if shared.is_empty() {
            return if gate_open(right, store, seed, key) {
                BTreeSet::from([Vec::new()])
            } else {
                BTreeSet::new()
            };
        }
        let mut branch = right.clone();
        for (v, val) in seed.iter().zip(key) {
            branch.bind_seed(*v, *val);
        }
        let rows = exec_node(&branch, store);
        let r_cols: Vec<usize> = shared
            .iter()
            .map(|v| rows.col(*v).expect("shared variable survives seeding"))
            .collect();
        rows.rows
            .iter()
            .map(|r| r_cols.iter().map(|&c| r[c]).collect())
            .collect()
    };
    let (partitions, reruns) = if rayon::current_num_threads() > 1 {
        // Parallel form: collect the distinct seed keys up front (in
        // first-occurrence order), run the correlated branch for every
        // key on the pool, then reduce. Same partitions, same rerun
        // count, same surviving rows as the lazy sequential form.
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut seen: FastSet<Vec<Value>> = FastSet::default();
        for row in &l.rows {
            let key: Vec<Value> = seed_cols.iter().map(|&c| row[c]).collect();
            if seen.insert(key.clone()) {
                keys.push(key);
            }
        }
        let branches: Vec<BTreeSet<Vec<Value>>> =
            rayon::par_map(keys.len(), |i| run_branch(&keys[i]));
        let reruns = keys.len() as u64;
        let partitions: FastMap<Vec<Value>, BTreeSet<Vec<Value>>> =
            keys.into_iter().zip(branches).collect();
        l.rows.retain(|row| {
            let key: Vec<Value> = seed_cols.iter().map(|&c| row[c]).collect();
            let probe: Vec<Value> = l_cols.iter().map(|&c| row[c]).collect();
            !partitions[&key].contains(&probe)
        });
        (partitions, reruns)
    } else {
        let mut partitions: FastMap<Vec<Value>, BTreeSet<Vec<Value>>> = FastMap::default();
        let mut reruns = 0u64;
        l.rows.retain(|row| {
            let key: Vec<Value> = seed_cols.iter().map(|&c| row[c]).collect();
            let refuting = partitions.entry(key.clone()).or_insert_with(|| {
                reruns += 1;
                run_branch(&key)
            });
            let probe: Vec<Value> = l_cols.iter().map(|&c| row[c]).collect();
            !refuting.contains(&probe)
        });
        (partitions, reruns)
    };
    dx_obs::count!("query.exec.seed_partitions", partitions.len());
    dx_obs::count!("query.exec.seed_reruns", reruns);
    crate::explain::trace::note_seed(node, partitions.len() as u64, reruns);
    l
}

/// Do the two plans share an output variable?
fn shares_var(left: &Plan, right: &Plan) -> bool {
    right.any_out_var(&mut |v| left.any_out_var(&mut |w| w == v))
}

/// One binding of the first-witness environment.
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

/// The continuation a first-witness walk hands each row to: `true` stops
/// the walk (the row was accepted), `false` asks for the next row.
type Cont<'k, 's> = dyn FnMut(&mut Witness<'s>) -> bool + 'k;

/// The first-witness executor: a depth-first walk over a binding stack.
/// Every operator extends the stack with the variables it binds, hands
/// the row to its continuation and pops them again; a scan's stored tuples
/// are visited lazily and the walk unwinds at the first accepted row.
struct Witness<'s> {
    store: &'s dyn QueryStore,
    env: Vec<Slot>,
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
                Plan::Join { inputs } => self.join(inputs, Some(pred), k),
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

    /// Parallel execution is bit-identical to the single-threaded path:
    /// same rows, same order, across the chunked join executors (the
    /// instance is large enough to cross `PAR_MIN_ROWS`) and the
    /// keys-first seeded anti-join.
    #[test]
    fn parallel_exec_bit_identical_across_widths() {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut i = Instance::new();
        for k in 0..400 {
            let p = format!("p{k}");
            i.insert_names("PwSub", &[&p, &format!("a{}", k % 7)]);
            if k % 3 == 0 {
                i.insert_names("PwSub", &[&p, &format!("b{}", k % 5)]);
            }
            i.insert_names("PwV", &[&p]);
        }
        let src = "PwV(p) & (exists a. PwSub(p, a) & (forall b. (PwSub(p, b) -> a = b)))";
        rayon::set_threads(1);
        let reference = run(src, &i);
        assert!(!reference.rows.is_empty());
        for width in [2usize, 4, 8] {
            rayon::set_threads(width);
            let rows = run(src, &i);
            assert_eq!(rows.vars, reference.vars, "width {width}");
            assert_eq!(rows.rows, reference.rows, "width {width}");
        }
        rayon::set_threads(0);
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
