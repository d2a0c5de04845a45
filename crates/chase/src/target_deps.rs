//! Target dependencies: tgds and egds over the target schema.
//!
//! The paper's conclusions (§6) single out the extension to mappings with
//! target constraints, noting that "adding weakly acyclic constraints would
//! lead to a terminating chase as in both open-world [FKMP'05] and
//! closed-world [Hernich–Schweikardt'07] cases". This module provides the
//! constraint language:
//!
//! * **tgds** `∀x̄ (φ(x̄) → ∃z̄ ψ(x̄, z̄))` with conjunctive bodies and
//!   annotated heads (invented positions carry their own `op`/`cl`
//!   annotations, consistent with the rest of the system);
//! * **egds** `∀x̄ (φ(x̄) → x = y)`;
//! * the **weak acyclicity** test on the position dependency graph.
//!
//! The chase itself lives in [`crate::chase_engine`].

use crate::std_dep::TargetAtom;
use dx_logic::{Formula, Term};
use dx_relation::{RelSym, Var};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A conjunctive-body tuple-generating dependency with annotated head.
#[derive(Clone, PartialEq, Eq)]
pub struct Tgd {
    /// Body atoms (variables and constants only).
    pub body: Vec<(RelSym, Vec<Term>)>,
    /// Annotated head atoms.
    pub head: Vec<TargetAtom>,
}

/// An equality-generating dependency `φ(x̄) → u = v`.
#[derive(Clone, PartialEq, Eq)]
pub struct Egd {
    /// Body atoms.
    pub body: Vec<(RelSym, Vec<Term>)>,
    /// The two terms forced equal (variables of the body, or constants).
    pub eq: (Term, Term),
}

/// A target dependency.
#[derive(Clone, PartialEq, Eq)]
pub enum TargetDep {
    /// Tuple-generating.
    Tgd(Tgd),
    /// Equality-generating.
    Egd(Egd),
}

impl Tgd {
    /// Parse from rule syntax, e.g.
    /// `Sym(y:cl, x:cl) <- Edge(x, y)` (a symmetry tgd) or
    /// `HasDept(e:cl, d:op) <- Emp(e)` (an inventing tgd).
    pub fn parse(src: &str) -> Result<Self, dx_logic::ParseError> {
        let rule = dx_logic::parse_rule(src)?;
        let body = conjunct_atoms(&rule.body).ok_or_else(|| dx_logic::ParseError {
            msg: "tgd bodies must be conjunctions of relational atoms".into(),
            pos: 0,
        })?;
        if (rule.head.iter().flat_map(|a| &a.args)).any(|t| matches!(t, Term::App(..))) {
            return Err(dx_logic::ParseError {
                msg: "tgd heads must be function-free".into(),
                pos: 0,
            });
        }
        Ok(Tgd {
            body,
            head: rule
                .head
                .into_iter()
                .map(|a| TargetAtom::new(a.rel, a.args, dx_relation::Annotation::new(a.anns)))
                .collect(),
        })
    }

    /// Universal variables: those occurring in the body.
    pub fn universal_vars(&self) -> BTreeSet<Var> {
        body_vars(&self.body)
    }

    /// Existential variables: head variables not in the body.
    pub fn existential_vars(&self) -> BTreeSet<Var> {
        let uni = self.universal_vars();
        self.head
            .iter()
            .flat_map(|a| a.vars())
            .filter(|v| !uni.contains(v))
            .collect()
    }
}

impl Egd {
    /// Parse from `u = v <- body` syntax, e.g.
    /// `y1 = y2 <- R(x, y1) & R(x, y2)` (a functional dependency). Each
    /// side must be a constant or a variable of the body: an egd equating a
    /// variable the body does not bind is unsafe, and refused.
    pub fn parse(src: &str) -> Result<Self, dx_logic::ParseError> {
        let (lhs, rhs) = src.split_once("<-").ok_or_else(|| dx_logic::ParseError {
            msg: "egd must be written `u = v <- body`".into(),
            pos: 0,
        })?;
        let eq_formula = dx_logic::parse_formula(lhs.trim())?;
        let eq = match eq_formula {
            Formula::Eq(a, b) => (a, b),
            _ => {
                return Err(dx_logic::ParseError {
                    msg: "egd left-hand side must be a single equality".into(),
                    pos: 0,
                })
            }
        };
        let body_formula = dx_logic::parse_formula(rhs.trim())?;
        let body = conjunct_atoms(&body_formula).ok_or_else(|| dx_logic::ParseError {
            msg: "egd bodies must be conjunctions of relational atoms".into(),
            pos: 0,
        })?;
        let bound: BTreeSet<Var> = body_vars(&body);
        for t in [&eq.0, &eq.1] {
            let msg = match t {
                Term::App(..) => "egd sides must be variables or constants".into(),
                Term::Var(v) if !bound.contains(v) => {
                    format!("unsafe egd: variable `{v}` is not bound by a positive body atom")
                }
                _ => continue,
            };
            let pos = lhs.len() - lhs.trim_start().len();
            return Err(dx_logic::ParseError { msg, pos });
        }
        Ok(Egd { body, eq })
    }
}

impl TargetDep {
    /// Parse a dependency: egd if the text before `<-` contains `=`,
    /// otherwise tgd.
    pub fn parse(src: &str) -> Result<Self, dx_logic::ParseError> {
        let head_part = src.split("<-").next().unwrap_or("");
        if head_part.contains('=') {
            Ok(TargetDep::Egd(Egd::parse(src)?))
        } else {
            Ok(TargetDep::Tgd(Tgd::parse(src)?))
        }
    }

    /// Parse a `;`-separated list of dependencies.
    pub fn parse_many(src: &str) -> Result<Vec<Self>, dx_logic::ParseError> {
        src.split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(Self::parse)
            .collect()
    }
}

/// The variables of a conjunctive body.
fn body_vars(body: &[(RelSym, Vec<Term>)]) -> BTreeSet<Var> {
    body.iter()
        .flat_map(|(_, args)| args.iter().flat_map(|t| t.vars()))
        .collect()
}

fn conjunct_atoms(f: &Formula) -> Option<Vec<(RelSym, Vec<Term>)>> {
    let mut out = Vec::new();
    fn go(f: &Formula, out: &mut Vec<(RelSym, Vec<Term>)>) -> bool {
        match f {
            Formula::Atom(r, args)
                if args
                    .iter()
                    .all(|t| matches!(t, Term::Var(_) | Term::Const(_))) =>
            {
                out.push((*r, args.clone()));
                true
            }
            Formula::And(fs) => fs.iter().all(|g| go(g, out)),
            Formula::True => true,
            _ => false,
        }
    }
    go(f, &mut out).then_some(out)
}

impl fmt::Display for TargetDep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetDep::Tgd(t) => {
                for (i, a) in t.head.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, " <- ")?;
                fmt_body(f, &t.body)
            }
            TargetDep::Egd(e) => {
                write!(f, "{} = {} <- ", e.eq.0, e.eq.1)?;
                fmt_body(f, &e.body)
            }
        }
    }
}

impl fmt::Debug for TargetDep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

fn fmt_body(f: &mut fmt::Formatter<'_>, body: &[(RelSym, Vec<Term>)]) -> fmt::Result {
    for (i, (r, args)) in body.iter().enumerate() {
        if i > 0 {
            write!(f, " & ")?;
        }
        write!(f, "{r}(")?;
        for (j, t) in args.iter().enumerate() {
            if j > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")?;
    }
    Ok(())
}

/// A position `(relation, index)` in the dependency graph.
pub type Position = (RelSym, usize);

/// The position dependency graph of a set of tgds, used by the weak
/// acyclicity test of [FKMP'05] (egds never add edges).
#[derive(Default)]
pub struct DependencyGraph {
    /// Regular edges `p → q`.
    pub regular: BTreeSet<(Position, Position)>,
    /// Special edges `p ⇒ q` (into existential positions).
    pub special: BTreeSet<(Position, Position)>,
}

/// Build the position dependency graph.
pub fn dependency_graph(deps: &[TargetDep]) -> DependencyGraph {
    let mut g = DependencyGraph::default();
    for dep in deps {
        let tgd = match dep {
            TargetDep::Tgd(t) => t,
            TargetDep::Egd(_) => continue,
        };
        // Body positions of each universal variable.
        let mut body_pos: BTreeMap<Var, Vec<Position>> = BTreeMap::new();
        for (rel, args) in &tgd.body {
            for (i, t) in args.iter().enumerate() {
                if let Term::Var(v) = t {
                    body_pos.entry(*v).or_default().push((*rel, i));
                }
            }
        }
        let existential = tgd.existential_vars();
        // Head occurrences.
        let mut exist_pos: Vec<Position> = Vec::new();
        let mut head_universals: BTreeSet<Var> = BTreeSet::new();
        for atom in &tgd.head {
            for (i, t) in atom.args.iter().enumerate() {
                if let Term::Var(v) = t {
                    if existential.contains(v) {
                        exist_pos.push((atom.rel, i));
                    } else {
                        head_universals.insert(*v);
                        // Regular edges from every body position of v.
                        if let Some(ps) = body_pos.get(v) {
                            for &p in ps {
                                g.regular.insert((p, (atom.rel, i)));
                            }
                        }
                    }
                }
            }
        }
        // Special edges: from every body position of every universal
        // variable occurring in the head, to every existential position.
        for v in &head_universals {
            if let Some(ps) = body_pos.get(v) {
                for &p in ps {
                    for &q in &exist_pos {
                        g.special.insert((p, q));
                    }
                }
            }
        }
    }
    g
}

/// Is the set of dependencies weakly acyclic (no cycle through a special
/// edge)? Guarantees chase termination ([FKMP'05] Thm 3.9; the paper's §6
/// points at the closed-world analogue of [Hernich–Schweikardt'07]).
pub fn is_weakly_acyclic(deps: &[TargetDep]) -> bool {
    let g = dependency_graph(deps);
    // Nodes.
    let mut nodes: BTreeSet<Position> = BTreeSet::new();
    for &(a, b) in g.regular.iter().chain(g.special.iter()) {
        nodes.insert(a);
        nodes.insert(b);
    }
    // For each special edge (p, q): check q cannot reach p (through any
    // edges). A cycle through the special edge exists iff q reaches p.
    let adj: BTreeMap<Position, Vec<Position>> = {
        let mut m: BTreeMap<Position, Vec<Position>> = BTreeMap::new();
        for &(a, b) in g.regular.iter().chain(g.special.iter()) {
            m.entry(a).or_default().push(b);
        }
        m
    };
    let reaches = |from: Position, to: Position| -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(p) = stack.pop() {
            if p == to {
                return true;
            }
            if seen.insert(p) {
                if let Some(next) = adj.get(&p) {
                    stack.extend(next.iter().copied());
                }
            }
        }
        false
    };
    g.special.iter().all(|&(p, q)| !reaches(q, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_tgd_and_egd() {
        let t = TargetDep::parse("Sym(y:cl, x:cl) <- Edge(x, y)").unwrap();
        assert!(matches!(t, TargetDep::Tgd(_)));
        let e = TargetDep::parse("y1 = y2 <- R(x, y1) & R(x, y2)").unwrap();
        assert!(matches!(e, TargetDep::Egd(_)));
        let both =
            TargetDep::parse_many("Sym(y:cl, x:cl) <- Edge(x, y); y1 = y2 <- R(x, y1) & R(x, y2)")
                .unwrap();
        assert_eq!(both.len(), 2);
    }

    /// An egd side the body does not bind is refused at parse time, with
    /// the position of the equality.
    #[test]
    fn unsafe_egd_is_refused() {
        let err = TargetDep::parse_many("y = k <- R(x, y)").unwrap_err();
        assert_eq!(
            err.msg,
            "unsafe egd: variable `k` is not bound by a positive body atom"
        );
        assert_eq!(err.pos, 0);
        assert_eq!(TargetDep::parse("  k = y <- R(x, y)").unwrap_err().pos, 2);
        // Function terms have no place in a target dependency.
        for bad in ["f(x) = y <- R(x, y)", "S(f(x):cl) <- R(x, y)"] {
            assert!(TargetDep::parse(bad).is_err(), "{bad}");
        }
        // Constants and body variables are safe sides.
        assert!(TargetDep::parse_many("y = 'k' <- R(x, y); x = y <- R(x, y)").is_ok());
    }

    #[test]
    fn tgd_variable_classification() {
        let t = Tgd::parse("HasDept(e:cl, d:op) <- Emp(e)").unwrap();
        assert_eq!(t.universal_vars(), [Var::new("e")].into());
        assert_eq!(t.existential_vars(), [Var::new("d")].into());
    }

    #[test]
    fn weakly_acyclic_cases() {
        // Symmetry: only regular edges — weakly acyclic.
        let sym = TargetDep::parse_many("Sym(y:cl, x:cl) <- Edge(x, y)").unwrap();
        assert!(is_weakly_acyclic(&sym));
        // Egds alone are always weakly acyclic.
        let fd = TargetDep::parse_many("y1 = y2 <- R(x, y1) & R(x, y2)").unwrap();
        assert!(is_weakly_acyclic(&fd));
        // The classic non-terminating tgd: R(y, z) <- R(x, y) — the
        // existential z position feeds back into the body position of y.
        let cyc = TargetDep::parse_many("R(y:cl, z:cl) <- R(x, y)").unwrap();
        assert!(!is_weakly_acyclic(&cyc));
        // Inventing into a *different* relation, no feedback: acyclic.
        let ok = TargetDep::parse_many("Emp2(e:cl, d:cl) <- Emp(e)").unwrap();
        assert!(is_weakly_acyclic(&ok));
        // Mutual invention where existential positions are sinks: still
        // weakly acyclic (the restricted chase terminates).
        let sinks =
            TargetDep::parse_many("B(x:cl, z:cl) <- A(x, y); A(x:cl, z:cl) <- B(x, y)").unwrap();
        assert!(is_weakly_acyclic(&sinks));
        // Genuine two-step feedback: each rule feeds its invented value into
        // the position the other rule generates from.
        let loop2 =
            TargetDep::parse_many("B(y:cl, z:cl) <- A(x, y); A(y:cl, z:cl) <- B(x, y)").unwrap();
        assert!(!is_weakly_acyclic(&loop2));
    }

    #[test]
    fn dependency_graph_edges() {
        let deps = TargetDep::parse_many("R2(x:cl, z:op) <- R1(x, y)").unwrap();
        let g = dependency_graph(&deps);
        let r1 = RelSym::new("R1");
        let r2 = RelSym::new("R2");
        assert!(g.regular.contains(&((r1, 0), (r2, 0))));
        assert!(g.special.contains(&((r1, 0), (r2, 1))));
        // y does not occur in the head: no edges from (R1, 1).
        assert!(!g.regular.iter().any(|&(p, _)| p == (r1, 1)));
        assert!(!g.special.iter().any(|&(p, _)| p == (r1, 1)));
    }
}
