//! Safe-range lowering of first-order formulas to plans.
//!
//! The compiled evaluator only accepts the **safe-range** fragment — the
//! formulas whose answers are *domain independent*, so that relational
//! evaluation agrees with the tree-walking active-domain semantics of
//! [`dx_logic::eval`] (the quantifier domain there always contains the
//! active domain plus the formula's constants, which is all a safe-range
//! formula can see). Everything else is rejected with a [`LowerError`];
//! callers fall back to the tree walker, keeping behaviour bit-identical.
//!
//! The translation is the classic one:
//!
//! * a conjunction becomes an n-ary [`Plan::Join`] of its positive
//!   conjuncts, with `x = c` equalities lowered to [`Plan::Bind`] inputs
//!   (pushed-down selections: a bind is the cheapest join input, so the
//!   executor's greedy order takes it first and downstream scans become
//!   index probes);
//! * `x = y` equalities either filter (both sides range-restricted) or
//!   extend ([`Plan::Alias`]) the bound set, iterated to a fixpoint so
//!   equality chains propagate range-restriction;
//! * a negated conjunct `¬ψ` whose free variables are covered by the
//!   positive part becomes an [`Plan::AntiJoin`]; a negated equality
//!   becomes an inequality filter; a negated disjunction is expanded by
//!   De Morgan into negated conjuncts first — which is how the implication
//!   shape `φ → ψ` (parsed as `¬φ ∨ ψ`) under a universal quantifier (the
//!   one-author query of §1) reaches the plan algebra;
//! * `∃z̄ φ` projects `z̄` away; `∀z̄ φ` is rewritten to `¬∃z̄ ¬φ` first;
//! * a disjunction whose disjuncts range identical variables becomes a
//!   [`Plan::Union`]; a disjunction whose disjuncts range **different**
//!   variable sets is accepted as a *filter* when all its free variables
//!   are range-restricted by the surrounding conjunction — each disjunct
//!   reduces the bound rows (semi-join, anti-join, or predicate select)
//!   and the branches union back together.
//!
//! ## Seeded (correlated) negation
//!
//! A negated conjunct `¬ψ` may use a variable the surrounding conjunction
//! binds but `ψ` itself does not range — the *correlated* negation of the
//! §1 one-author implication `∃a S(p, a) ∧ ∀b (S(p, b) → a = b)`, whose
//! `∀`-rewritten branch `∃b (S(p, b) ∧ a ≠ b)` mentions `a` only in a
//! filter. Such a branch is not safe-range on its own, but it **is**
//! safe-range once the outer bindings are treated as constants: for any
//! fixed value of `a`, `ψ[a := v]` is an ordinary safe-range formula, and
//! substituting a constant cannot enlarge what the branch can see (the
//! branch's answers stay domain independent, so plan execution still agrees
//! with the active-domain oracle). The lowering therefore retries a failed
//! negated conjunct with the conjunction's bound variables *allowed as
//! seeds*, records which of them the branch actually relied on, and emits a
//! [`Plan::SeededAntiJoin`]. The ground executor probes the branch once
//! per outer row with the seeds bound as parameters; the conditional one
//! hash-partitions the outer rows on the seed key and runs the branch once
//! per distinct key with the seeds substituted ([`Plan::bind_seed`]).
//! Quantifiers that shadow an allowed seed are α-renamed first, so neither
//! binding nor substitution can capture.

use crate::plan::{Plan, PlanPred, Ref};
use dx_logic::{Formula, Term};
use dx_relation::{Value, Var};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The reason class of a lowering rejection — the key [`crate::PlanCatalog`]
/// aggregates rejection counts under, so fragment gaps show up in bench/CI
/// stats instead of silently falling back to the tree walker.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LowerReason {
    /// Skolem/function terms (plans are function-free).
    FunctionTerm,
    /// A quantified variable not range-restricted by its scope.
    UnrestrictedQuantifiedVar,
    /// A bare `x = y` outside any restricting conjunction.
    BareVariableEquality,
    /// A variable-equality chain none of whose members is restricted.
    UnrestrictedEqualityChain,
    /// A filter predicate over an unrestricted variable.
    UnrestrictedFilterVar,
    /// A negated subformula ranging a variable bound nowhere.
    UncoveredNegation,
    /// Disjuncts ranging different variable sets outside a restricting
    /// conjunction.
    MixedSchemaDisjunction,
    /// A disjunctive filter over an unrestricted variable.
    UnrestrictedDisjunctionVar,
    /// A free variable not range-restricted by the formula.
    UnrestrictedFreeVar,
    /// A head variable not produced by the body.
    UnrestrictedHeadVar,
}

impl LowerReason {
    /// A stable label for stats/JSON output.
    pub fn label(self) -> &'static str {
        match self {
            LowerReason::FunctionTerm => "function-term",
            LowerReason::UnrestrictedQuantifiedVar => "unrestricted-quantified-var",
            LowerReason::BareVariableEquality => "bare-variable-equality",
            LowerReason::UnrestrictedEqualityChain => "unrestricted-equality-chain",
            LowerReason::UnrestrictedFilterVar => "unrestricted-filter-var",
            LowerReason::UncoveredNegation => "uncovered-negation",
            LowerReason::MixedSchemaDisjunction => "mixed-schema-disjunction",
            LowerReason::UnrestrictedDisjunctionVar => "unrestricted-disjunction-var",
            LowerReason::UnrestrictedFreeVar => "unrestricted-free-var",
            LowerReason::UnrestrictedHeadVar => "unrestricted-head-var",
        }
    }
}

impl fmt::Display for LowerReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Why a formula could not be lowered to a plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LowerError {
    /// The formula contains Skolem/function terms (plans are function-free;
    /// SkSTD bodies keep the tree-walking evaluator).
    FunctionTerm,
    /// The formula is outside the safe-range fragment; the payload names
    /// the reason class and the offending construct.
    NotSafeRange(LowerReason, String),
}

impl LowerError {
    /// The rejection's reason class (see [`LowerReason`]).
    pub fn reason(&self) -> LowerReason {
        match self {
            LowerError::FunctionTerm => LowerReason::FunctionTerm,
            LowerError::NotSafeRange(reason, _) => *reason,
        }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::FunctionTerm => write!(f, "formula contains function terms"),
            LowerError::NotSafeRange(reason, what) => {
                write!(f, "not safe-range ({reason}): {what}")
            }
        }
    }
}

impl std::error::Error for LowerError {}

fn not_safe(reason: LowerReason, what: impl Into<String>) -> LowerError {
    LowerError::NotSafeRange(reason, what.into())
}

/// The seeded-lowering environment threaded through the translation.
///
/// `allowed` is the set of outer-bound variables the current (sub)formula
/// may rely on as seeds — empty at the top level, so the plain fragment
/// lowers exactly as before. `used` accumulates the allowed variables the
/// lowering actually consulted; the enclosing negated-conjunct site turns
/// the locally bound ones into a [`Plan::SeededAntiJoin`]'s seed list and
/// propagates the rest outward. `fresh` numbers the α-renamings of
/// quantifiers that shadow an allowed seed.
#[derive(Default)]
struct Env {
    allowed: BTreeSet<Var>,
    used: BTreeSet<Var>,
    fresh: usize,
}

/// Lower a formula to a plan whose output variables are exactly the
/// formula's free variables. Fails outside the (seeded) safe-range
/// fragment.
pub fn lower_formula(f: &Formula) -> Result<Plan, LowerError> {
    let mut env = Env::default();
    let plan = lower(f, &mut env)?;
    debug_assert!(env.used.is_empty(), "no seeds exist at the top level");
    Ok(plan)
}

fn lower(f: &Formula, env: &mut Env) -> Result<Plan, LowerError> {
    match f {
        Formula::True => Ok(Plan::Unit),
        Formula::False => Ok(Plan::Empty { vars: Vec::new() }),
        Formula::Atom(rel, args) => {
            if args.iter().any(|t| matches!(t, Term::App(_, _))) {
                return Err(LowerError::FunctionTerm);
            }
            Ok(Plan::Scan {
                rel: *rel,
                args: args.clone(),
            })
        }
        Formula::Eq(a, b) => lower_eq(a, b),
        Formula::And(fs) => lower_and(fs, env),
        Formula::Or(fs) => lower_or(fs, env),
        Formula::Not(_) => lower_and(std::slice::from_ref(f), env),
        Formula::Exists(vars, inner) => {
            // α-rename quantified variables that shadow an allowed seed:
            // seed substitution is plan-wide and cannot see binder scopes,
            // so bound names must be disjoint from the seed set.
            let (vars, inner) = rename_shadowing(vars, inner, env);
            let p = lower(&inner, env)?;
            // ∃x̄. false is false over any domain: fold it to the empty
            // plan instead of rejecting x̄ as unranged.
            if let Plan::Empty { vars: free } = p {
                let keep = free.into_iter().filter(|v| !vars.contains(v)).collect();
                return Ok(Plan::Empty { vars: keep });
            }
            let pv: BTreeSet<Var> = p.vars().into_iter().collect();
            for v in &vars {
                if !pv.contains(v) {
                    // ∃z φ with z not ranged by φ depends on the quantifier
                    // domain being non-empty — not domain independent.
                    return Err(not_safe(
                        LowerReason::UnrestrictedQuantifiedVar,
                        format!("quantified variable {v} is not range-restricted"),
                    ));
                }
            }
            let keep: Vec<Var> = pv.into_iter().filter(|v| !vars.contains(v)).collect();
            Ok(Plan::Project {
                input: Box::new(p),
                vars: keep,
            })
        }
        Formula::Forall(vars, inner) => {
            // ∀z̄ φ ≡ ¬∃z̄ ¬φ; Formula::not collapses double negations.
            let rewritten = Formula::Not(Box::new(Formula::Exists(
                vars.clone(),
                Box::new(Formula::not((**inner).clone())),
            )));
            lower(&rewritten, env)
        }
    }
}

/// α-rename the quantified variables colliding with the environment's seed
/// set (a uniform rename to a globally fresh `$qN` name, which is α-safe).
/// Returns the block and body unchanged when no collision exists — the only
/// case that ever occurs outside a seeded lowering.
fn rename_shadowing(vars: &[Var], inner: &Formula, env: &mut Env) -> (Vec<Var>, Formula) {
    if vars.iter().all(|v| !env.allowed.contains(v)) {
        return (vars.to_vec(), inner.clone());
    }
    let mut map: BTreeMap<Var, Var> = BTreeMap::new();
    let mut out_vars = Vec::with_capacity(vars.len());
    for v in vars {
        if env.allowed.contains(v) {
            let fresh = Var::new(&format!("$q{}", env.fresh));
            env.fresh += 1;
            map.insert(*v, fresh);
            out_vars.push(fresh);
        } else {
            out_vars.push(*v);
        }
    }
    (out_vars, inner.rename_vars(&map))
}

/// A bare equality: only the ground-able shapes are range-restricted.
fn lower_eq(a: &Term, b: &Term) -> Result<Plan, LowerError> {
    match (a, b) {
        (Term::App(_, _), _) | (_, Term::App(_, _)) => Err(LowerError::FunctionTerm),
        (Term::Const(c), Term::Const(d)) => Ok(if c == d {
            Plan::Unit
        } else {
            Plan::Empty { vars: Vec::new() }
        }),
        (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => Ok(Plan::Bind {
            var: *x,
            value: Value::Const(*c),
        }),
        (Term::Var(x), Term::Var(y)) => Err(not_safe(
            LowerReason::BareVariableEquality,
            format!("bare variable equality {x} = {y}"),
        )),
    }
}

fn lower_or(fs: &[Formula], env: &mut Env) -> Result<Plan, LowerError> {
    let mut inputs = Vec::new();
    for g in fs {
        let p = lower(g, env)?;
        // Row-free children contribute nothing regardless of schema.
        if !matches!(p, Plan::Empty { .. }) {
            inputs.push(p);
        }
    }
    if inputs.is_empty() {
        let vars: Vec<Var> = Formula::Or(fs.to_vec()).free_vars().into_iter().collect();
        return Ok(Plan::Empty { vars });
    }
    let schema = inputs[0].vars();
    for p in &inputs[1..] {
        if p.vars() != schema {
            return Err(not_safe(
                LowerReason::MixedSchemaDisjunction,
                "disjuncts range different variables",
            ));
        }
    }
    if inputs.len() == 1 {
        return Ok(inputs.pop_unwrap());
    }
    Ok(Plan::Union { inputs })
}

// Small helper so clippy accepts the single-element pop above.
trait PopUnwrap<T> {
    fn pop_unwrap(self) -> T;
}
impl<T> PopUnwrap<T> for Vec<T> {
    fn pop_unwrap(mut self) -> T {
        self.pop().expect("non-empty")
    }
}

fn term_ref(t: &Term) -> Result<Ref, LowerError> {
    match t {
        Term::Var(v) => Ok(Ref::Var(*v)),
        Term::Const(c) => Ok(Ref::Val(Value::Const(*c))),
        Term::App(_, _) => Err(LowerError::FunctionTerm),
    }
}

fn lower_and(fs: &[Formula], env: &mut Env) -> Result<Plan, LowerError> {
    // Flatten nested conjunctions (substitution can re-nest them) and
    // expand negated disjunctions by De Morgan: ¬(g₁ ∨ … ∨ gₖ) contributes
    // the conjuncts ¬g₁, …, ¬gₖ — each handled by whichever rule fits it
    // (inequality filter, anti-join, …). This is what admits the
    // implication shape `ψ → x = y` (the §1 one-author query) into the
    // safe-range fragment: under ∀-rewriting it arrives here as
    // ¬(¬ψ ∨ x = y), i.e. the conjuncts ψ and ¬(x = y).
    let mut conjuncts: Vec<Formula> = Vec::new();
    fn flatten(fs: &[Formula], out: &mut Vec<Formula>) {
        for f in fs {
            match f {
                Formula::And(inner) => flatten(inner, out),
                Formula::Not(inner) => match &**inner {
                    Formula::Or(gs) => {
                        let negated: Vec<Formula> = gs.iter().cloned().map(Formula::not).collect();
                        flatten(&negated, out);
                    }
                    _ => out.push(f.clone()),
                },
                other => out.push(other.clone()),
            }
        }
    }
    flatten(fs, &mut conjuncts);

    let free: BTreeSet<Var> = conjuncts.iter().flat_map(|f| f.free_vars()).collect();
    let empty = || Plan::Empty {
        vars: free.iter().copied().collect(),
    };

    let mut positives: Vec<Plan> = Vec::new();
    let mut var_eqs: Vec<(Var, Var)> = Vec::new();
    let mut filters: Vec<PlanPred> = Vec::new();
    let mut negatives: Vec<Formula> = Vec::new();
    // Disjunctive conjuncts whose disjuncts range different variable sets:
    // deferred, then applied as row filters once the bound set is known.
    let mut or_filters: Vec<Vec<Formula>> = Vec::new();

    for c in &conjuncts {
        match c {
            Formula::True => {}
            Formula::False => return Ok(empty()),
            Formula::Eq(a, b) => match (a, b) {
                (Term::Var(x), Term::Var(y)) if x == y => {
                    // Trivially true wherever x is bound; the coverage check
                    // below rejects the formula if nothing else ranges x.
                }
                (Term::Var(x), Term::Var(y)) => var_eqs.push((*x, *y)),
                _ => match lower_eq(a, b)? {
                    Plan::Empty { .. } => return Ok(empty()),
                    p => positives.push(p),
                },
            },
            Formula::Not(inner) => match &**inner {
                Formula::Eq(a, b) => {
                    filters.push(PlanPred::Not(Box::new(PlanPred::Eq(
                        term_ref(a)?,
                        term_ref(b)?,
                    ))));
                }
                g => negatives.push(g.clone()),
            },
            // A universal conjunct is an anti-join against the *whole*
            // conjunction's bound variables: ∀z̄ φ ≡ ¬∃z̄ ¬φ.
            Formula::Forall(vars, inner) => negatives.push(Formula::Exists(
                vars.clone(),
                Box::new(Formula::not((**inner).clone())),
            )),
            Formula::Or(gs) => match lower_or(gs, env) {
                // Identically ranged disjuncts: a positive union, as before.
                Ok(p) => positives.push(p),
                Err(LowerError::FunctionTerm) => return Err(LowerError::FunctionTerm),
                // Differing variable sets: usable as a filter if the rest of
                // the conjunction ranges every variable (checked below).
                Err(LowerError::NotSafeRange(_, _)) => or_filters.push(gs.clone()),
            },
            other => positives.push(lower(other, env)?),
        }
    }

    let mut plan = match positives.len() {
        0 => Plan::Unit,
        1 => positives.pop_unwrap(),
        _ => Plan::Join { inputs: positives },
    };
    let mut avail: BTreeSet<Var> = plan.vars().into_iter().collect();
    // Consult an outer seed: legal exactly for the environment's allowed
    // set, and every consultation is recorded for the enclosing
    // seeded-anti-join site.
    macro_rules! try_seed {
        ($v:expr, $reason:expr, $what:expr) => {
            if env.allowed.contains(&$v) {
                env.used.insert($v);
            } else {
                return Err(not_safe($reason, $what));
            }
        };
    }

    // Propagate range restriction through variable equalities to a fixpoint:
    // both sides bound → filter; one side bound → alias (extends the bound
    // set, possibly unblocking further equalities); a side bound only as an
    // outer seed participates in filters (it is substituted at execution
    // time) but can never be an alias source (it is not a column).
    let mut pending = var_eqs;
    while !pending.is_empty() {
        let mut progressed = false;
        let mut rest = Vec::new();
        for (x, y) in pending {
            let col = |v: Var| avail.contains(&v);
            let seeded = |v: Var, env: &Env| !avail.contains(&v) && env.allowed.contains(&v);
            match (col(x), col(y)) {
                (true, true) => {
                    filters.push(PlanPred::Eq(Ref::Var(x), Ref::Var(y)));
                    progressed = true;
                }
                (true, false) | (false, true) => {
                    let (src, dst) = if col(x) { (x, y) } else { (y, x) };
                    if seeded(dst, env) {
                        // A column against an outer binding: a filter, not a
                        // new column (the outer value substitutes in).
                        env.used.insert(dst);
                        filters.push(PlanPred::Eq(Ref::Var(src), Ref::Var(dst)));
                    } else {
                        plan = Plan::Alias {
                            input: Box::new(plan),
                            src,
                            dst,
                        };
                        avail.insert(dst);
                    }
                    progressed = true;
                }
                (false, false) if seeded(x, env) && seeded(y, env) => {
                    env.used.insert(x);
                    env.used.insert(y);
                    filters.push(PlanPred::Eq(Ref::Var(x), Ref::Var(y)));
                    progressed = true;
                }
                (false, false) => rest.push((x, y)),
            }
        }
        if !progressed {
            return Err(not_safe(
                LowerReason::UnrestrictedEqualityChain,
                "variable equality between unrestricted variables",
            ));
        }
        pending = rest;
    }

    if !filters.is_empty() {
        for p in &filters {
            for v in p.vars() {
                if !avail.contains(&v) {
                    try_seed!(
                        v,
                        LowerReason::UnrestrictedFilterVar,
                        format!("filter variable {v} is not range-restricted")
                    );
                }
            }
        }
        let pred = if filters.len() == 1 {
            filters.pop_unwrap()
        } else {
            PlanPred::And(filters)
        };
        plan = Plan::Select {
            input: Box::new(plan),
            pred,
        };
    }

    for g in &negatives {
        // Plain attempt first: a self-contained negated branch stays the
        // ordinary anti-join of the pre-seeding fragment.
        let plain = {
            let mut sub = Env {
                allowed: BTreeSet::new(),
                used: BTreeSet::new(),
                fresh: env.fresh,
            };
            let r = lower(g, &mut sub);
            env.fresh = sub.fresh;
            r
        };
        let (p, seed) = match plain {
            Ok(p) => (p, Vec::new()),
            Err(LowerError::FunctionTerm) => return Err(LowerError::FunctionTerm),
            Err(LowerError::NotSafeRange(_, _)) => {
                // Seeded retry: the branch may rely on anything the
                // conjunction has bound, plus whatever an enclosing seeded
                // scope already allows.
                let mut allowed = avail.clone();
                allowed.extend(env.allowed.iter().copied());
                let mut sub = Env {
                    allowed,
                    used: BTreeSet::new(),
                    fresh: env.fresh,
                };
                let p = lower(g, &mut sub)?;
                env.fresh = sub.fresh;
                // Locally bound seeds key this node; outer ones propagate to
                // the enclosing site (a local column wins a name clash — the
                // nearest binding is the one the branch sees).
                let mut seed: Vec<Var> = Vec::new();
                for v in sub.used {
                    if avail.contains(&v) {
                        seed.push(v);
                    } else {
                        debug_assert!(env.allowed.contains(&v));
                        env.used.insert(v);
                    }
                }
                (p, seed)
            }
        };
        // Output coverage: every column the branch produces must be bound by
        // the conjunction — or be an outer seed, which the enclosing
        // substitution removes from the branch's schema before execution.
        for v in p.vars() {
            if !avail.contains(&v) {
                try_seed!(
                    v,
                    LowerReason::UncoveredNegation,
                    format!("negated subformula ranges uncovered variable {v}")
                );
            }
        }
        plan = if seed.is_empty() {
            Plan::AntiJoin {
                left: Box::new(plan),
                right: Box::new(p),
            }
        } else {
            Plan::SeededAntiJoin {
                left: Box::new(plan),
                right: Box::new(p),
                seed,
            }
        };
    }

    // Deferred disjunctions with differing variable sets: every free
    // variable must now be bound, then each disjunct filters the bound
    // rows — semi-join for a positive disjunct, anti-join for a negated
    // one, predicate select for (in)equalities — and the per-disjunct
    // branches union back together (schemas agree: filters preserve the
    // input schema).
    for gs in &or_filters {
        for v in Formula::Or(gs.clone()).free_vars() {
            if !avail.contains(&v) {
                try_seed!(
                    v,
                    LowerReason::UnrestrictedDisjunctionVar,
                    format!("disjunctive filter variable {v} is not range-restricted")
                );
            }
        }
        let mut branches: Vec<Plan> = Vec::new();
        for g in gs {
            let branch = match g {
                Formula::Eq(a, b) => Plan::Select {
                    input: Box::new(plan.clone()),
                    pred: PlanPred::Eq(term_ref(a)?, term_ref(b)?),
                },
                Formula::Not(inner) => match &**inner {
                    Formula::Eq(a, b) => Plan::Select {
                        input: Box::new(plan.clone()),
                        pred: PlanPred::Not(Box::new(PlanPred::Eq(term_ref(a)?, term_ref(b)?))),
                    },
                    neg => Plan::AntiJoin {
                        left: Box::new(plan.clone()),
                        right: Box::new(lower_branch(neg, env)?),
                    },
                },
                pos => Plan::SemiJoin {
                    left: Box::new(plan.clone()),
                    right: Box::new(lower_branch(pos, env)?),
                },
            };
            branches.push(branch);
        }
        plan = match branches.len() {
            0 => empty(),
            1 => branches.pop_unwrap(),
            _ => Plan::Union { inputs: branches },
        };
    }

    for v in free.iter() {
        if !avail.contains(v) {
            try_seed!(
                *v,
                LowerReason::UnrestrictedFreeVar,
                format!("free variable {v} is not range-restricted")
            );
        }
    }
    Ok(plan)
}

/// Lower a disjunctive-filter branch. Only the environment's *outer* seeds
/// are allowed inside (the enclosing substitution rewrites the whole
/// subtree before execution); the conjunction's own columns are not — a
/// branch correlated against them would need per-key re-execution, which
/// the semi-/anti-join filter shape does not provide.
fn lower_branch(g: &Formula, env: &mut Env) -> Result<Plan, LowerError> {
    let mut sub = Env {
        allowed: env.allowed.clone(),
        used: BTreeSet::new(),
        fresh: env.fresh,
    };
    let r = lower(g, &mut sub);
    env.fresh = sub.fresh;
    env.used.extend(sub.used);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_logic::parse_formula;

    fn lower_src(src: &str) -> Result<Plan, LowerError> {
        lower_formula(&parse_formula(src).expect("parses"))
    }

    #[test]
    fn cq_lowers_to_join_project() {
        let p = lower_src("exists y. LoR(x, y) & LoS(y, z)").unwrap();
        let mut expected = vec![Var::new("x"), Var::new("z")];
        expected.sort();
        assert_eq!(p.vars(), expected);
        assert!(matches!(p, Plan::Project { .. }));
    }

    #[test]
    fn safe_negation_is_antijoin() {
        let p = lower_src("LoR(x, y) & !LoS(y)").unwrap();
        assert!(matches!(p, Plan::AntiJoin { .. }));
        let mut expected = vec![Var::new("x"), Var::new("y")];
        expected.sort();
        assert_eq!(p.vars(), expected);
    }

    #[test]
    fn constant_equality_becomes_bind() {
        let p = lower_src("LoR(x, y) & y = 'c'").unwrap();
        // Bind joins in as a single-row input.
        assert!(matches!(p, Plan::Join { .. }));
    }

    #[test]
    fn equality_chain_aliases() {
        let p = lower_src("LoR(x) & y = x & z = y").unwrap();
        let mut expected = vec![Var::new("x"), Var::new("y"), Var::new("z")];
        expected.sort();
        assert_eq!(p.vars(), expected);
    }

    #[test]
    fn forall_rewrites_to_antijoin() {
        // sinks: LoV(x) & ∀y ¬LoE(x,y)
        let p = lower_src("LoV(x) & (forall y. !LoE(x, y))").unwrap();
        assert!(matches!(p, Plan::AntiJoin { .. }));
    }

    #[test]
    fn unsafe_shapes_rejected() {
        assert!(matches!(
            lower_src("x = y"),
            Err(LowerError::NotSafeRange(
                LowerReason::BareVariableEquality,
                _
            ))
        ));
        assert!(matches!(
            lower_src("!LoR(x)"),
            Err(LowerError::NotSafeRange(_, _))
        ));
        // Disjuncts ranging different variables.
        assert!(matches!(
            lower_src("LoR(x, y) | LoS(x)"),
            Err(LowerError::NotSafeRange(
                LowerReason::MixedSchemaDisjunction,
                _
            ))
        ));
        // Unused quantified variable (domain dependent).
        assert!(matches!(
            lower_src("exists z. LoR(x, y)"),
            Err(LowerError::NotSafeRange(
                LowerReason::UnrestrictedQuantifiedVar,
                _
            ))
        ));
        // Function terms.
        assert!(matches!(
            lower_src("LoF(x) & x = fsk(x)"),
            Err(LowerError::FunctionTerm)
        ));
        assert_eq!(LowerError::FunctionTerm.reason(), LowerReason::FunctionTerm);
    }

    /// Disjuncts ranging different variable sets are accepted as filters
    /// when the surrounding conjunction binds every variable.
    #[test]
    fn mixed_schema_disjunction_filters() {
        let p = lower_src("LoR(x, y) & (LoS(x) | LoT(y))").unwrap();
        let mut expected = vec![Var::new("x"), Var::new("y")];
        expected.sort();
        assert_eq!(p.vars(), expected);
        assert!(matches!(p, Plan::Union { .. }));
        // Equality and negated disjuncts participate too.
        let p = lower_src("LoR(x, y) & (x = y | LoS(x))").unwrap();
        assert_eq!(p.vars(), expected);
        let p = lower_src("LoR(x, y) & (!LoS(x) | LoT(y))").unwrap();
        assert_eq!(p.vars(), expected);
        // Unbound variables still reject.
        assert!(matches!(
            lower_src("LoR(x, y) & (LoS(z) | LoT(y))"),
            Err(LowerError::NotSafeRange(
                LowerReason::UnrestrictedDisjunctionVar,
                _
            ))
        ));
    }

    /// The §1 one-author query — a universally quantified implication —
    /// lowers via the De Morgan expansion of its `¬(¬ψ ∨ x = y)` core.
    #[test]
    fn one_author_implication_lowers() {
        let p = lower_src("forall p a1 a2. (LoSub(p, a1) & LoSub(p, a2) -> a1 = a2)").unwrap();
        assert!(p.vars().is_empty(), "boolean sentence");
        assert!(matches!(p, Plan::AntiJoin { .. }));
    }

    /// The *correlated* §1 shape — `∃a S(p,a) ∧ ∀b (S(p,b) → a = b)`, the
    /// outer-bound `a` occurring only in the negated branch's inequality —
    /// lowers to a seeded anti-join keyed on exactly `a` (`p` is ranged by
    /// the branch itself and joins as an ordinary shared column).
    #[test]
    fn correlated_implication_lowers_to_seeded_antijoin() {
        let p = lower_src("exists a. LoSub(p, a) & (forall b. (LoSub(p, b) -> a = b))").unwrap();
        assert_eq!(p.vars(), vec![Var::new("p")]);
        let Plan::Project { input, .. } = p else {
            panic!("∃a projects the witness away");
        };
        let Plan::SeededAntiJoin { right, seed, .. } = *input else {
            panic!("correlated negation must lower to a seeded anti-join");
        };
        assert_eq!(seed, vec![Var::new("a")], "seeded on the correlated var");
        assert_eq!(right.vars(), vec![Var::new("p")], "branch ranges p only");
    }

    /// Correlated negation against a nested atom: one seed (`x`) occurs in
    /// a filter, the other (`y`) in a scan of a doubly-nested negation —
    /// both must be seeded, exercising the scan-substitution path.
    #[test]
    fn correlated_nested_negation_lowers() {
        let p = lower_src("LoR(x, y) & !(exists b. LoS(b) & !LoT(y, b) & !(b = x))").unwrap();
        let Plan::SeededAntiJoin { seed, .. } = p else {
            panic!("correlated negation must lower to a seeded anti-join");
        };
        let got: BTreeSet<Var> = seed.into_iter().collect();
        let want: BTreeSet<Var> = [Var::new("x"), Var::new("y")].into_iter().collect();
        assert_eq!(got, want);
    }

    /// Quantifiers shadowing a seed are α-renamed, so the inner binder's
    /// occurrences are never substituted.
    #[test]
    fn shadowed_seed_variable_is_alpha_renamed() {
        // The inner `exists a` rebinds the seeded name.
        let p = lower_src(
            "exists a. LoSub(p, a) & !(exists b. LoSub(p, b) & !(a = b) & (exists a. LoT(a, b)))",
        )
        .unwrap();
        let mut found = false;
        fn walk(p: &Plan, found: &mut bool) {
            if let Plan::SeededAntiJoin { right, seed, .. } = p {
                assert_eq!(seed, &vec![Var::new("a")]);
                // The rebound inner `a` was renamed: the branch's scans of
                // LoT must not mention the seed name.
                let mut bad = false;
                fn scan_mentions(p: &Plan, var: Var, bad: &mut bool) {
                    if let Plan::Scan { rel, args } = p {
                        if rel.name() == "LoT"
                            && args.iter().any(|t| matches!(t, Term::Var(v) if *v == var))
                        {
                            *bad = true;
                        }
                    }
                    for c in plan_children(p) {
                        scan_mentions(c, var, bad);
                    }
                }
                scan_mentions(right, Var::new("a"), &mut bad);
                assert!(!bad, "shadowed binder must be α-renamed away");
                *found = true;
            }
            for c in plan_children(p) {
                walk(c, found);
            }
        }
        walk(&p, &mut found);
        assert!(found, "a seeded anti-join was built");
    }

    fn plan_children(p: &Plan) -> Vec<&Plan> {
        match p {
            Plan::Unit | Plan::Empty { .. } | Plan::Bind { .. } | Plan::Scan { .. } => Vec::new(),
            Plan::Join { inputs } | Plan::Union { inputs } => inputs.iter().collect(),
            Plan::SemiJoin { left, right }
            | Plan::AntiJoin { left, right }
            | Plan::SeededAntiJoin { left, right, .. } => vec![left, right],
            Plan::Select { input, .. }
            | Plan::Project { input, .. }
            | Plan::Alias { input, .. } => {
                vec![input]
            }
        }
    }

    #[test]
    fn union_of_same_schema_disjuncts() {
        let p = lower_src("LoR(x, y) | LoS(x, y)").unwrap();
        assert!(matches!(p, Plan::Union { .. }));
        let mut expected = vec![Var::new("x"), Var::new("y")];
        expected.sort();
        assert_eq!(p.vars(), expected);
    }

    #[test]
    fn boolean_negation_over_sentence() {
        let p = lower_src("!(exists x. LoR(x, x))").unwrap();
        assert!(matches!(p, Plan::AntiJoin { .. }));
        assert!(p.vars().is_empty());
    }
}
