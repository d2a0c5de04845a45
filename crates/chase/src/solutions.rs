//! Solution theories: OWA-solutions, CWA-(pre)solutions, and the paper's
//! `Σα`-solutions.
//!
//! * An **OWA-solution** for `S` under `Σ` is any target instance `T` over
//!   `Const ∪ Null` with `(S, T) |= Σ` ([FKMP'05]; §3 "Annotated mappings:
//!   basic properties").
//! * A **CWA-presolution** is a homomorphic image of the canonical solution;
//!   a **CWA-solution** additionally has all its facts justified
//!   ([Libkin'06]; §2).
//! * A **`Σα`-solution** is a presolution of `CSol_A(S)` whose annotated
//!   facts true under `|=_cl` are also true in `CSol_A(S)` — decided here
//!   via the effective characterization of **Proposition 1**: `T` is a
//!   `Σα`-solution iff it is a homomorphic image of `CSol_A(S)` *and* has a
//!   homomorphism into an expansion of `CSol_A(S)`.

use crate::canonical::{canonical_solution, std_satisfied, CanonicalSolution};
use crate::hom::{find_hom_into_expansion, find_onto_hom, NullMap};
use crate::mapping::Mapping;
use crate::std_dep::TargetAtom;
use dx_logic::Term;
use dx_relation::{find_map, AnnInstance, AnnTuple, Bindings, Instance, NullId, Value, Var};

/// Is `target` an OWA-solution for `source` under the (annotation-blind)
/// reading of the mapping's STDs, i.e. does `(S, T) |= Σ` hold?
pub fn is_owa_solution(mapping: &Mapping, source: &Instance, target: &Instance) -> bool {
    mapping
        .stds
        .iter()
        .all(|std| std_satisfied(std, source, target))
}

/// Is `t` a presolution for `source` under `mapping`, i.e. a homomorphic
/// image of `CSol_A(S)`? Returns the witnessing onto homomorphism.
pub fn find_presolution_hom(
    mapping: &Mapping,
    source: &Instance,
    t: &AnnInstance,
) -> Option<NullMap> {
    let csol = canonical_solution(mapping, source);
    find_onto_hom(&csol.instance, t)
}

/// Decide whether `t` is a `Σα`-solution for `source` under `mapping`, using
/// Proposition 1. Returns the pair of witnessing homomorphisms
/// `(h₁ : CSol_A(S) ↠ T, h₂ : T → expansion of CSol_A(S))`.
pub fn is_solution(
    mapping: &Mapping,
    source: &Instance,
    t: &AnnInstance,
) -> Option<(NullMap, NullMap)> {
    let csol = canonical_solution(mapping, source);
    is_solution_with(&csol, t)
}

/// [`is_solution`] against a precomputed canonical solution.
pub fn is_solution_with(csol: &CanonicalSolution, t: &AnnInstance) -> Option<(NullMap, NullMap)> {
    let h1 = find_onto_hom(&csol.instance, t)?;
    let h2 = find_hom_into_expansion(t, &csol.instance)?;
    Some((h1, h2))
}

/// An annotated fact `(f(ā), α)` where `f(ā) = ∃z̄ γ(ā, z̄)` and `γ` is a
/// conjunction of target atoms (§3, "Annotated solutions").
///
/// The atoms reuse [`TargetAtom`]: variables are the existential `z̄`,
/// constants are the `ā`.
#[derive(Clone, Debug)]
pub struct AnnotatedFact {
    /// The annotated atoms of `γ`.
    pub atoms: Vec<TargetAtom>,
}

impl AnnotatedFact {
    /// Build a fact from atoms.
    pub fn new(atoms: Vec<TargetAtom>) -> Self {
        AnnotatedFact { atoms }
    }

    /// The existential variables `z̄` of the fact.
    pub fn z_vars(&self) -> Vec<Var> {
        let mut out: Vec<Var> = Vec::new();
        for a in &self.atoms {
            for v in a.vars() {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// The satisfaction relation `T |=_cl (f(ā), α)`: is there a tuple `⊥̄`
    /// of nulls (of `T`) for `z̄` such that every atom `R(t)` of `γ(ā, ⊥̄)`
    /// coincides with some tuple `(t₀, α₀)` of `R` in `T` on the positions
    /// `α₀` marks closed?
    pub fn satisfied_cl(&self, t: &AnnInstance) -> bool {
        let items = self
            .atoms
            .iter()
            .map(|atom| {
                t.tuples(atom.rel)
                    .filter_map(|cand| Self::fact_candidate(atom, cand))
                    .collect()
            })
            .collect();
        find_map(items, |_| true).is_some()
    }

    /// The bindings of `atom`'s variables under which it coincides with
    /// `cand` on the positions `cand` marks closed, or `None` if it cannot.
    fn fact_candidate(atom: &TargetAtom, cand: &AnnTuple) -> Option<Bindings<Var, NullId>> {
        let mut forced = Vec::new();
        for p in cand.ann.closed_positions() {
            match (&atom.args[p], cand.tuple.get(p)) {
                (Term::Const(c), need) => {
                    if Value::Const(*c) != need {
                        return None;
                    }
                }
                (Term::Var(z), Value::Null(n)) => forced.push((*z, n)),
                // `⊥̄` ranges over nulls; a constant at a closed position
                // cannot be matched by a variable.
                (Term::Var(_), Value::Const(_)) => return None,
                (Term::App(_, _), _) => unreachable!("facts have no function terms"),
            }
        }
        Some(forced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_relation::{Ann, AnnTuple, Annotation, RelSym, Tuple};

    fn at(vals: Vec<Value>, anns: Vec<Ann>) -> AnnTuple {
        AnnTuple::new(Tuple::new(vals), Annotation::new(anns))
    }

    fn source_e3() -> Instance {
        let mut s = Instance::new();
        s.insert_names("E", &["a", "c1"]);
        s.insert_names("E", &["a", "c2"]);
        s.insert_names("E", &["b", "c3"]);
        s
    }

    /// Under the CWA (all-closed), merging ⊥1=⊥2 (both justified by source
    /// tuples with the same first component) yields a solution, but merging
    /// across different constants creates an unjustified fact and is
    /// rejected — the paper's §2 example.
    #[test]
    fn cwa_solutions_reject_unjustified_merges() {
        let m = Mapping::parse("R(x:cl, z:cl) <- E(x, y)").unwrap();
        let s = source_e3();
        let r = RelSym::new("R");
        let cl2 = vec![Ann::Closed, Ann::Closed];
        // Good: {(a,⊥), (b,⊥')} — merge the two a-nulls.
        let mut good = AnnInstance::new();
        good.insert(r, at(vec![Value::c("a"), Value::null(100)], cl2.clone()));
        good.insert(r, at(vec![Value::c("b"), Value::null(101)], cl2.clone()));
        assert!(is_solution(&m, &s, &good).is_some());
        // Bad: {(a,⊥), (a,⊥), (b,⊥)} with ⊥1=⊥3 merged: says a and b share a
        // value — unjustified under CWA.
        let mut bad = AnnInstance::new();
        bad.insert(r, at(vec![Value::c("a"), Value::null(100)], cl2.clone()));
        bad.insert(r, at(vec![Value::c("a"), Value::null(102)], cl2.clone()));
        bad.insert(r, at(vec![Value::c("b"), Value::null(100)], cl2.clone()));
        assert!(is_solution(&m, &s, &bad).is_none());
    }

    /// The canonical solution itself is always a Σα-solution.
    #[test]
    fn csol_is_a_solution() {
        let m = Mapping::parse(
            "Submissions(x:cl, z:op) <- Papers(x, y);\n\
             Reviews(x:cl, z:cl) <- Assignments(x, y)",
        )
        .unwrap();
        let mut s = Instance::new();
        s.insert_names("Papers", &["p1", "t1"]);
        s.insert_names("Assignments", &["p1", "r1"]);
        let csol = canonical_solution(&m, &s);
        assert!(is_solution_with(&csol, &csol.instance).is_some());
    }

    /// The paper's §3 worked example: STD R(x:op, z1:cl) ∧ R(y:cl, z2:cl) :-
    /// S(x, y), source {(a,b)}; equating the two nulls IS a Σα-solution.
    #[test]
    fn papers_solution_example() {
        let m = Mapping::parse("R(x:op, z1:cl), R(y:cl, z2:cl) <- S(x, y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("S", &["a", "b"]);
        let r = RelSym::new("R");
        let mut t = AnnInstance::new();
        t.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(50)],
                vec![Ann::Open, Ann::Closed],
            ),
        );
        t.insert(
            r,
            at(
                vec![Value::c("b"), Value::null(50)],
                vec![Ann::Closed, Ann::Closed],
            ),
        );
        assert!(
            is_solution(&m, &s, &t).is_some(),
            "equating z1 and z2 is allowed because the open x-position \
             lets the fact be matched in CSol_A"
        );
    }

    /// Contrast with the all-closed version of the same STD, where the merge
    /// creates an unjustified fact.
    #[test]
    fn all_closed_version_rejects_merge() {
        let m = Mapping::parse("R(x:cl, z1:cl), R(y:cl, z2:cl) <- S(x, y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("S", &["a", "b"]);
        let r = RelSym::new("R");
        let cl2 = vec![Ann::Closed, Ann::Closed];
        let mut t = AnnInstance::new();
        t.insert(r, at(vec![Value::c("a"), Value::null(50)], cl2.clone()));
        t.insert(r, at(vec![Value::c("b"), Value::null(50)], cl2.clone()));
        assert!(is_solution(&m, &s, &t).is_none());
    }

    #[test]
    fn owa_solution_check() {
        let m = Mapping::parse("R(x:op, z:op) <- E(x, y)").unwrap();
        let s = source_e3();
        let mut t = Instance::new();
        t.insert_names("R", &["a", "v"]);
        t.insert_names("R", &["b", "w"]);
        t.insert_names("R", &["extra", "tuples are fine under OWA"]);
        assert!(is_owa_solution(&m, &s, &t));
        let mut t2 = Instance::new();
        t2.insert_names("R", &["a", "v"]); // no tuple for b
        assert!(!is_owa_solution(&m, &s, &t2));
    }

    /// Annotated-fact satisfaction |=_cl, on the paper's §3 example.
    #[test]
    fn fact_satisfaction_cl() {
        // CSol_A = {(a^op, ⊥1^cl), (b^cl, ⊥2^cl)}.
        let r = RelSym::new("R");
        let mut csol = AnnInstance::new();
        csol.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(1)],
                vec![Ann::Open, Ann::Closed],
            ),
        );
        csol.insert(
            r,
            at(
                vec![Value::c("b"), Value::null(2)],
                vec![Ann::Closed, Ann::Closed],
            ),
        );
        // Fact ∃z R(a, z) ∧ R(b, z): satisfiable in CSol_A with z = ⊥1
        // because the first atom only needs to match (a^op, ⊥1^cl) on its
        // closed position (the second).
        let fact = AnnotatedFact::new(vec![
            TargetAtom::new(
                r,
                vec![Term::cst("a"), Term::var("z")],
                Annotation::new(vec![Ann::Open, Ann::Closed]),
            ),
            TargetAtom::new(
                r,
                vec![Term::cst("b"), Term::var("z")],
                Annotation::new(vec![Ann::Closed, Ann::Closed]),
            ),
        ]);
        assert!(fact.satisfied_cl(&csol));
        // All-closed CSol: the same fact is NOT satisfiable (⊥1 ≠ ⊥2 and the
        // first position now also has to match).
        let mut csol_cl = AnnInstance::new();
        csol_cl.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(1)],
                vec![Ann::Closed, Ann::Closed],
            ),
        );
        csol_cl.insert(
            r,
            at(
                vec![Value::c("b"), Value::null(2)],
                vec![Ann::Closed, Ann::Closed],
            ),
        );
        assert!(!fact.satisfied_cl(&csol_cl));
    }
}
