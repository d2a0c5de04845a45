//! Relational-algebra plans over named variables.
//!
//! A [`Plan`] node denotes a set of *binding rows*: tuples of values keyed
//! by the node's **output variables**, which are always reported in sorted
//! order ([`Plan::vars`]). The ground executor ([`crate::exec`]) walks the
//! tree depth-first over a binding stack, choosing join orders at run time
//! from index selectivity under the current bindings; the conditional
//! executor ([`crate::cexec`]) materializes the same tree bottom-up over
//! conditional tables.
//!
//! The operator set is the safe-range target algebra:
//!
//! * [`Plan::Scan`] — an atom template `R(t̄)` with `Var`/`Const` arguments
//!   (constants and repeated variables are matched by index probe +
//!   post-filter);
//! * [`Plan::Bind`] — a single-row constant binding, the pushed-down form
//!   of an equality selection `x = c` (the greedy join order starts from
//!   binds, so downstream scans become index probes);
//! * [`Plan::Join`] — n-ary natural join; order is chosen by the executor;
//! * [`Plan::SemiJoin`] / [`Plan::AntiJoin`] — reduction by an existence /
//!   non-existence check on the shared variables (anti-join is how safe
//!   negation and RA difference lower);
//! * [`Plan::Select`], [`Plan::Project`], [`Plan::Union`], [`Plan::Alias`] —
//!   filters, projection-with-dedup, same-schema union, and column
//!   duplication (`y := x`, the lowering of a variable equality that
//!   *extends* the bound set).

use dx_logic::Term;
use dx_relation::{RelSym, Value, Var};
use std::collections::BTreeSet;
use std::fmt;

/// A value reference in a selection predicate: a variable or a literal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ref {
    /// The value bound to a variable of the input row.
    Var(Var),
    /// A literal value (a constant, or — in specialized plans — a null,
    /// which is an atomic value under the naive semantics).
    Val(Value),
}

/// A selection predicate: boolean combinations of reference equalities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanPred {
    /// Always true.
    True,
    /// Equality of two references.
    Eq(Ref, Ref),
    /// Conjunction.
    And(Vec<PlanPred>),
    /// Disjunction.
    Or(Vec<PlanPred>),
    /// Negation.
    Not(Box<PlanPred>),
}

impl PlanPred {
    /// Variables mentioned by the predicate.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Var>) {
        match self {
            PlanPred::True => {}
            PlanPred::Eq(a, b) => {
                for r in [a, b] {
                    if let Ref::Var(v) = r {
                        out.insert(*v);
                    }
                }
            }
            PlanPred::And(ps) | PlanPred::Or(ps) => {
                for p in ps {
                    p.collect_vars(out);
                }
            }
            PlanPred::Not(p) => p.collect_vars(out),
        }
    }
}

/// A query plan node. See the module docs for the operator inventory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Plan {
    /// The unit: exactly one empty row (join identity).
    Unit,
    /// No rows, with a fixed output schema.
    Empty {
        /// Output variables of the empty result.
        vars: Vec<Var>,
    },
    /// A single row binding `var` to `value`.
    Bind {
        /// The bound variable.
        var: Var,
        /// Its value.
        value: Value,
    },
    /// An atom scan `R(t̄)`; arguments are `Term::Var` / `Term::Const` only.
    Scan {
        /// The scanned relation.
        rel: RelSym,
        /// The atom's argument template.
        args: Vec<Term>,
    },
    /// N-ary natural join (the executor picks the order).
    Join {
        /// Join inputs.
        inputs: Vec<Plan>,
    },
    /// Rows of `left` with at least one `right` row agreeing on the shared
    /// variables.
    SemiJoin {
        /// The preserved side.
        left: Box<Plan>,
        /// The filter side.
        right: Box<Plan>,
    },
    /// Rows of `left` with **no** `right` row agreeing on the shared
    /// variables (`right`'s variables must be a subset of `left`'s).
    AntiJoin {
        /// The preserved side.
        left: Box<Plan>,
        /// The refuting side.
        right: Box<Plan>,
    },
    /// Filter by a predicate over the input's variables.
    Select {
        /// The filtered input.
        input: Box<Plan>,
        /// The predicate.
        pred: PlanPred,
    },
    /// Projection onto a subset of the variables, with dedup.
    Project {
        /// The projected input.
        input: Box<Plan>,
        /// The surviving variables (sorted).
        vars: Vec<Var>,
    },
    /// Union of same-schema inputs, with dedup.
    Union {
        /// Union inputs (identical output variables).
        inputs: Vec<Plan>,
    },
    /// Extend every row with `dst := src` (the lowering of `dst = src`
    /// when `dst` is not otherwise range-restricted).
    Alias {
        /// The extended input.
        input: Box<Plan>,
        /// The copied (already bound) variable.
        src: Var,
        /// The fresh output variable.
        dst: Var,
    },
    /// The lowering of **correlated negation**: rows of `left` for which the
    /// `right` branch — re-executed with the `seed` variables bound to the
    /// row's values ("bindings as constants") — produces no row agreeing on
    /// the shared variables. `right` references the seed variables without
    /// ranging them (they occur only in predicates, or in scans of nested
    /// subtrees), so it is safe-range *given* the seeds. The ground executor
    /// probes `right` once per left row with the seeds bound as parameters;
    /// the conditional executor hash-partitions the left rows on the seed
    /// key and runs `right` once per distinct key via [`Plan::bind_seed`].
    SeededAntiJoin {
        /// The preserved side (binds every seed variable).
        left: Box<Plan>,
        /// The correlated refuting branch.
        right: Box<Plan>,
        /// The outer-bound variables seeded into `right`; never output
        /// columns of `right`.
        seed: Vec<Var>,
    },
}

impl Plan {
    /// The node's output variables, sorted ascending.
    pub fn vars(&self) -> Vec<Var> {
        let mut set = BTreeSet::new();
        self.any_out_var(&mut |v| {
            set.insert(v);
            false
        });
        set.into_iter().collect()
    }

    /// Does `f` hold for some output variable? Visits them (with repeats)
    /// until `f` returns `true` — [`Plan::vars`] without building the set.
    pub(crate) fn any_out_var(&self, f: &mut dyn FnMut(Var) -> bool) -> bool {
        match self {
            Plan::Unit => false,
            Plan::Empty { vars } | Plan::Project { vars, .. } => vars.iter().any(|&v| f(v)),
            Plan::Bind { var, .. } => f(*var),
            Plan::Scan { args, .. } => args.iter().any(|t| matches!(t, Term::Var(v) if f(*v))),
            Plan::Join { inputs } => inputs.iter().any(|p| p.any_out_var(f)),
            Plan::Union { inputs } => inputs.first().is_some_and(|p| p.any_out_var(f)),
            Plan::Select { input, .. } => input.any_out_var(f),
            Plan::Alias { input, dst, .. } => f(*dst) || input.any_out_var(f),
            Plan::SemiJoin { left, .. }
            | Plan::AntiJoin { left, .. }
            | Plan::SeededAntiJoin { left, .. } => left.any_out_var(f),
        }
    }

    /// Rename every occurrence of variable `from` to `to` (used by the RA
    /// lowering to unify equality-selected columns into natural joins;
    /// callers guarantee `to` does not already occur with a different
    /// meaning).
    pub fn rename_var(&mut self, from: Var, to: Var) {
        let fix = |v: &mut Var| {
            if *v == from {
                *v = to;
            }
        };
        match self {
            Plan::Unit => {}
            Plan::Empty { vars } => vars.iter_mut().for_each(fix),
            Plan::Bind { var, .. } => fix(var),
            Plan::Scan { args, .. } => {
                for t in args {
                    if let Term::Var(v) = t {
                        if *v == from {
                            *t = Term::Var(to);
                        }
                    }
                }
            }
            Plan::Join { inputs } | Plan::Union { inputs } => {
                for p in inputs {
                    p.rename_var(from, to);
                }
            }
            Plan::SemiJoin { left, right } | Plan::AntiJoin { left, right } => {
                left.rename_var(from, to);
                right.rename_var(from, to);
            }
            Plan::SeededAntiJoin { left, right, seed } => {
                left.rename_var(from, to);
                right.rename_var(from, to);
                seed.iter_mut().for_each(fix);
            }
            Plan::Select { input, pred } => {
                input.rename_var(from, to);
                rename_pred(pred, from, to);
            }
            Plan::Project { input, vars } => {
                input.rename_var(from, to);
                vars.iter_mut().for_each(fix);
                vars.sort();
                vars.dedup();
            }
            Plan::Alias { input, src, dst } => {
                input.rename_var(from, to);
                fix(src);
                fix(dst);
            }
        }
    }

    /// Substitute the constant `value` for every occurrence of `var` in scan
    /// templates and predicates (the pushed-down form of `var = value`); the
    /// variable disappears from the subtree's output schema.
    pub fn substitute_const(&mut self, var: Var, value: dx_relation::ConstId) {
        match self {
            Plan::Unit => {}
            Plan::Empty { vars } => vars.retain(|v| *v != var),
            Plan::Bind { .. } => {}
            Plan::Scan { args, .. } => {
                for t in args {
                    if let Term::Var(v) = t {
                        if *v == var {
                            *t = Term::Const(value);
                        }
                    }
                }
            }
            Plan::Join { inputs } | Plan::Union { inputs } => {
                for p in inputs {
                    p.substitute_const(var, value);
                }
            }
            Plan::SemiJoin { left, right } | Plan::AntiJoin { left, right } => {
                left.substitute_const(var, value);
                right.substitute_const(var, value);
            }
            Plan::SeededAntiJoin { left, right, seed } => {
                left.substitute_const(var, value);
                right.substitute_const(var, value);
                // The substitution did the seeding's job for this variable.
                seed.retain(|s| *s != var);
            }
            Plan::Select { input, pred } => {
                input.substitute_const(var, value);
                subst_pred(pred, var, Value::Const(value));
            }
            Plan::Project { input, vars } => {
                input.substitute_const(var, value);
                vars.retain(|v| *v != var);
            }
            Plan::Alias { input, .. } => input.substitute_const(var, value),
        }
    }

    /// Substitute `value` for the correlated variable `var` throughout the
    /// subtree — the "bindings as constants" step of seeded anti-join
    /// execution ([`Plan::SeededAntiJoin`]). Constants substitute into scan
    /// templates (becoming index-probe positions); **nulls** — atomic values
    /// the executors must compare exactly, but unrepresentable in a
    /// [`Term`] — rename the scan occurrences to the reserved variable
    /// `$seed:<var>` constrained by an equality select below the scan, so
    /// the constraint applies before any projection. Deriving the reserved
    /// name from the seed variable keeps substitutions collision-free
    /// across **nested** seeded anti-joins (each variable is substituted at
    /// most once per plan instance: an enclosing substitution strips it
    /// from nested seed lists) and consistent across union branches. The
    /// variable disappears from the subtree's output schema, mirroring
    /// [`Plan::substitute_const`].
    pub fn bind_seed(&mut self, var: Var, value: Value) {
        match self {
            Plan::Unit => {}
            Plan::Empty { vars } => vars.retain(|v| *v != var),
            Plan::Bind {
                var: v,
                value: bound,
            } => {
                if *v == var {
                    // The branch bound the seeded variable itself (`var = c`
                    // deep inside): the row survives exactly when the two
                    // values agree — conditionally, under nulls.
                    let pred = PlanPred::Eq(Ref::Val(*bound), Ref::Val(value));
                    *self = Plan::Select {
                        input: Box::new(Plan::Unit),
                        pred,
                    };
                }
            }
            Plan::Scan { args, .. } => {
                if !args.iter().any(|t| matches!(t, Term::Var(v) if *v == var)) {
                    return;
                }
                match value {
                    Value::Const(c) => {
                        for t in args.iter_mut() {
                            if matches!(t, Term::Var(v) if *v == var) {
                                *t = Term::Const(c);
                            }
                        }
                    }
                    null => {
                        let fv = Var::new(&format!("$seed:{var}"));
                        for t in args.iter_mut() {
                            if matches!(t, Term::Var(v) if *v == var) {
                                *t = Term::Var(fv);
                            }
                        }
                        let scan = std::mem::replace(self, Plan::Unit);
                        *self = Plan::Select {
                            input: Box::new(scan),
                            pred: PlanPred::Eq(Ref::Var(fv), Ref::Val(null)),
                        };
                    }
                }
            }
            Plan::Join { inputs } | Plan::Union { inputs } => {
                for p in inputs {
                    p.bind_seed(var, value);
                }
            }
            Plan::SemiJoin { left, right } | Plan::AntiJoin { left, right } => {
                left.bind_seed(var, value);
                right.bind_seed(var, value);
            }
            Plan::SeededAntiJoin { left, right, seed } => {
                left.bind_seed(var, value);
                right.bind_seed(var, value);
                // An enclosing seed shadows a nested one: the substitution
                // fixed the value everywhere, so the nested node no longer
                // partitions on it.
                seed.retain(|s| *s != var);
            }
            Plan::Select { input, pred } => {
                input.bind_seed(var, value);
                subst_pred(pred, var, value);
            }
            Plan::Project { input, vars } => {
                input.bind_seed(var, value);
                vars.retain(|v| *v != var);
            }
            Plan::Alias { input, src, dst } => {
                debug_assert_ne!(*dst, var, "alias target cannot be a seeded variable");
                if *src == var {
                    // `dst := var` with `var` now a constant: materialize the
                    // column as a single-row bind joined in.
                    let dst = *dst;
                    input.bind_seed(var, value);
                    let inner = std::mem::replace(&mut **input, Plan::Unit);
                    *self = Plan::Join {
                        inputs: vec![inner, Plan::Bind { var: dst, value }],
                    };
                } else {
                    input.bind_seed(var, value);
                }
            }
        }
    }

    /// All constants the plan mentions (scan templates, binds, selection
    /// predicates) — the `C_φ` palette seed for certain-answer extraction.
    pub fn constants(&self) -> BTreeSet<dx_relation::ConstId> {
        fn pred_consts(p: &PlanPred, out: &mut BTreeSet<dx_relation::ConstId>) {
            match p {
                PlanPred::True => {}
                PlanPred::Eq(a, b) => {
                    for r in [a, b] {
                        if let Ref::Val(Value::Const(c)) = r {
                            out.insert(*c);
                        }
                    }
                }
                PlanPred::And(ps) | PlanPred::Or(ps) => {
                    for p in ps {
                        pred_consts(p, out);
                    }
                }
                PlanPred::Not(p) => pred_consts(p, out),
            }
        }
        let mut out = BTreeSet::new();
        let mut stack = vec![self];
        while let Some(p) = stack.pop() {
            match p {
                Plan::Unit | Plan::Empty { .. } => {}
                Plan::Bind { value, .. } => {
                    if let Value::Const(c) = value {
                        out.insert(*c);
                    }
                }
                Plan::Scan { args, .. } => {
                    for t in args {
                        if let Term::Const(c) = t {
                            out.insert(*c);
                        }
                    }
                }
                Plan::Join { inputs } | Plan::Union { inputs } => stack.extend(inputs.iter()),
                Plan::SemiJoin { left, right }
                | Plan::AntiJoin { left, right }
                | Plan::SeededAntiJoin { left, right, .. } => {
                    stack.push(left);
                    stack.push(right);
                }
                Plan::Select { input, pred } => {
                    pred_consts(pred, &mut out);
                    stack.push(input);
                }
                Plan::Project { input, .. } | Plan::Alias { input, .. } => stack.push(input),
            }
        }
        out
    }

    /// The relations the plan scans — all a store built for this plan
    /// needs to index.
    pub fn relations(&self) -> BTreeSet<RelSym> {
        let mut out = BTreeSet::new();
        let mut stack = vec![self];
        while let Some(plan) = stack.pop() {
            if let Plan::Scan { rel, .. } = plan {
                out.insert(*rel);
            }
            stack.extend(plan.children());
        }
        out
    }

    /// The node's direct children, in plan order (the tree-walk order the
    /// EXPLAIN renderers use).
    pub fn children(&self) -> Vec<&Plan> {
        match self {
            Plan::Unit | Plan::Empty { .. } | Plan::Bind { .. } | Plan::Scan { .. } => Vec::new(),
            Plan::Join { inputs } | Plan::Union { inputs } => inputs.iter().collect(),
            Plan::SemiJoin { left, right }
            | Plan::AntiJoin { left, right }
            | Plan::SeededAntiJoin { left, right, .. } => vec![left, right],
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Alias { input, .. } => vec![input],
        }
    }

    /// One line describing this node alone — operator, operator arguments,
    /// and the output schema (`-> [vars]`). [`Plan::explain`] indents these
    /// into a tree; `dx_query::explain` annotates them with run counts. The
    /// rendering is stable: one node per line, seed keys in brackets.
    pub fn node_label(&self) -> String {
        let schema = {
            let vs: Vec<String> = self.vars().iter().map(|v| v.to_string()).collect();
            format!("-> [{}]", vs.join(", "))
        };
        match self {
            Plan::Unit => format!("unit {schema}"),
            Plan::Empty { .. } => format!("empty {schema}"),
            Plan::Bind { var, value } => format!("bind {var} := {value} {schema}"),
            Plan::Scan { rel, args } => {
                let args: Vec<String> = args.iter().map(|t| t.to_string()).collect();
                format!("scan {rel}({}) {schema}", args.join(", "))
            }
            Plan::Join { .. } => format!("join {schema}"),
            Plan::SemiJoin { .. } => format!("semijoin {schema}"),
            Plan::AntiJoin { .. } => format!("antijoin {schema}"),
            Plan::SeededAntiJoin { seed, .. } => {
                let vs: Vec<String> = seed.iter().map(|v| v.to_string()).collect();
                format!("seeded-antijoin [{}] {schema}", vs.join(", "))
            }
            Plan::Select { pred, .. } => format!("select {pred:?} {schema}"),
            Plan::Project { vars, .. } => {
                let vs: Vec<String> = vars.iter().map(|v| v.to_string()).collect();
                format!("project [{}] {schema}", vs.join(", "))
            }
            Plan::Union { .. } => format!("union {schema}"),
            Plan::Alias { src, dst, .. } => format!("alias {dst} := {src} {schema}"),
        }
    }

    /// Render the plan as an indented operator tree (`EXPLAIN` output):
    /// one node per line via [`Plan::node_label`], children indented two
    /// spaces per level.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.node_label());
        out.push('\n');
        for child in self.children() {
            child.explain_into(out, depth + 1);
        }
    }
}

fn rename_pred(pred: &mut PlanPred, from: Var, to: Var) {
    match pred {
        PlanPred::True => {}
        PlanPred::Eq(a, b) => {
            for r in [a, b] {
                if let Ref::Var(v) = r {
                    if *v == from {
                        *r = Ref::Var(to);
                    }
                }
            }
        }
        PlanPred::And(ps) | PlanPred::Or(ps) => {
            for p in ps {
                rename_pred(p, from, to);
            }
        }
        PlanPred::Not(p) => rename_pred(p, from, to),
    }
}

fn subst_pred(pred: &mut PlanPred, var: Var, value: Value) {
    match pred {
        PlanPred::True => {}
        PlanPred::Eq(a, b) => {
            for r in [a, b] {
                if let Ref::Var(v) = r {
                    if *v == var {
                        *r = Ref::Val(value);
                    }
                }
            }
        }
        PlanPred::And(ps) | PlanPred::Or(ps) => {
            for p in ps {
                subst_pred(p, var, value);
            }
        }
        PlanPred::Not(p) => subst_pred(p, var, value),
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vars_are_sorted_unions() {
        let p = Plan::Join {
            inputs: vec![
                Plan::Scan {
                    rel: RelSym::new("PlR"),
                    args: vec![Term::var("y"), Term::var("x")],
                },
                Plan::Bind {
                    var: Var::new("z"),
                    value: Value::c("a"),
                },
            ],
        };
        let mut expected = vec![Var::new("x"), Var::new("y"), Var::new("z")];
        expected.sort();
        assert_eq!(p.vars(), expected);
    }

    #[test]
    fn anti_join_keeps_left_schema() {
        let left = Plan::Scan {
            rel: RelSym::new("PlR"),
            args: vec![Term::var("x"), Term::var("y")],
        };
        let right = Plan::Scan {
            rel: RelSym::new("PlS"),
            args: vec![Term::var("y")],
        };
        let p = Plan::AntiJoin {
            left: Box::new(left),
            right: Box::new(right),
        };
        let mut expected = vec![Var::new("x"), Var::new("y")];
        expected.sort();
        assert_eq!(p.vars(), expected);
    }

    #[test]
    fn rename_and_substitute() {
        let mut p = Plan::Scan {
            rel: RelSym::new("PlR"),
            args: vec![Term::var("x"), Term::var("y")],
        };
        p.rename_var(Var::new("y"), Var::new("x"));
        assert_eq!(p.vars(), vec![Var::new("x")]);
        p.substitute_const(Var::new("x"), dx_relation::ConstId::new("a"));
        assert!(p.vars().is_empty());
    }

    #[test]
    fn explain_renders_tree() {
        let p = Plan::Project {
            input: Box::new(Plan::Scan {
                rel: RelSym::new("PlR"),
                args: vec![Term::var("x"), Term::cst("a")],
            }),
            vars: vec![Var::new("x")],
        };
        let text = p.explain();
        assert!(text.contains("project"));
        assert!(text.contains("scan PlR"));
    }
}
