//! The mixed-world semantics `⟦S⟧_Σα` and its membership problem.
//!
//! By Theorem 1(4), `⟦S⟧_Σα = Rep_A(CSol_A(S))`, so membership `T ∈ ⟦S⟧_Σα`
//! reduces to `Rep_A` membership against the annotated canonical solution —
//! the NP procedure of Theorem 2. When every annotation is open, Theorem 1(2)
//! gives the PTIME alternative: `T ∈ ⟦S⟧_Σop` iff `(S, T) |= Σ`.

use crate::Exchange;
use dx_chase::{is_owa_solution, ChaseStrategy, Mapping};
use dx_engine::IndexedChase;
use dx_relation::{Instance, Valuation};
use dx_solver::repa::rep_a_membership;

/// How a membership query was decided.
#[derive(Clone, Debug)]
pub enum MembershipOutcome {
    /// Decided by the PTIME all-open path (`(S,T) |= Σ`, Theorem 2 case 1).
    OpenWorldCheck {
        /// The verdict.
        member: bool,
    },
    /// Decided by valuation search against `CSol_A(S)` (the NP witness of
    /// Theorem 2); carries the witnessing valuation when positive.
    ValuationSearch {
        /// The witnessing valuation, if `T ∈ ⟦S⟧_Σα`.
        witness: Option<Valuation>,
    },
}

impl MembershipOutcome {
    /// The boolean verdict.
    pub fn is_member(&self) -> bool {
        match self {
            MembershipOutcome::OpenWorldCheck { member } => *member,
            MembershipOutcome::ValuationSearch { witness } => witness.is_some(),
        }
    }
}

/// Decide `T ∈ ⟦S⟧_Σα`, the recognition problem of Theorem 2 (see
/// [`Exchange::in_semantics`]).
pub fn in_semantics(mapping: &Mapping, source: &Instance, t: &Instance) -> MembershipOutcome {
    in_semantics_on(&IndexedChase, mapping, source, t)
}

/// Plain boolean membership (see [`in_semantics`]).
pub fn is_member(mapping: &Mapping, source: &Instance, t: &Instance) -> bool {
    in_semantics(mapping, source, t).is_member()
}

/// [`in_semantics`] for a caller without an [`Exchange`]: `CSol_A(S)` is
/// built (on `strategy`) only when some position is closed, so an all-open
/// mapping pays for the PTIME check alone.
pub(crate) fn in_semantics_on(
    strategy: &dyn ChaseStrategy,
    mapping: &Mapping,
    source: &Instance,
    t: &Instance,
) -> MembershipOutcome {
    decide(mapping, source, t, || {
        rep_a_membership(Exchange::with_strategy(strategy, mapping, source).csol(), t)
    })
}

/// Theorem 2's case split. `search` — the valuation search against
/// `CSol_A(S)` — runs only when the annotation is not all-open.
fn decide(
    mapping: &Mapping,
    source: &Instance,
    t: &Instance,
    search: impl FnOnce() -> Option<Valuation>,
) -> MembershipOutcome {
    assert!(t.is_ground(), "⟦S⟧ members are instances over Const");
    if mapping.is_all_open() {
        MembershipOutcome::OpenWorldCheck {
            member: is_owa_solution(mapping, source, t),
        }
    } else {
        MembershipOutcome::ValuationSearch { witness: search() }
    }
}

impl Exchange<'_> {
    /// Decide `T ∈ ⟦S⟧_Σα` (the recognition problem of Theorem 2).
    ///
    /// * All-open annotation → polynomial time, via `(S, T) |= Σ`.
    /// * Otherwise → NP, by guessing a valuation of the nulls of
    ///   `CSol_A(S)` (backtracking search; both conditions of `Rep_A` are
    ///   verified).
    ///
    /// `T` must be a ground instance (solutions' semantics are sets of
    /// `Const`-instances).
    pub fn in_semantics(&self, t: &Instance) -> MembershipOutcome {
        decide(self.mapping, self.source, t, || {
            rep_a_membership(&self.csol, t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source_e3() -> Instance {
        let mut s = Instance::new();
        s.insert_names("E", &["a", "c1"]);
        s.insert_names("E", &["a", "c2"]);
        s.insert_names("E", &["b", "c3"]);
        s
    }

    /// All-closed copy mapping: the only member is a copy of S (the paper's
    /// §1 motivating observation for the CWA).
    #[test]
    fn closed_copy_is_rigid() {
        let m = Mapping::parse("Ep(x:cl, y:cl) <- E(x, y)").unwrap();
        let s = source_e3();
        let mut copy = Instance::new();
        copy.insert_names("Ep", &["a", "c1"]);
        copy.insert_names("Ep", &["a", "c2"]);
        copy.insert_names("Ep", &["b", "c3"]);
        assert!(is_member(&m, &s, &copy));
        // Any extra tuple breaks membership under the CWA…
        let mut bigger = copy.clone();
        bigger.insert_names("Ep", &["x", "y"]);
        assert!(!is_member(&m, &s, &bigger));
        // …but is fine under the OWA.
        let mo = m.all_open();
        assert!(is_member(&mo, &s, &bigger));
        assert!(is_member(&mo, &s, &copy));
    }

    /// Theorem 1(2): the PTIME OWA check agrees with the Rep_A path.
    #[test]
    fn open_paths_agree() {
        let m = Mapping::parse("R(x:op, z:op) <- E(x, y)").unwrap();
        let s = source_e3();
        // The general valuation-search path, forced for an all-open mapping.
        fn is_member_via_repa(m: &Mapping, s: &Instance, t: &Instance) -> bool {
            rep_a_membership(Exchange::new(m, s).csol(), t).is_some()
        }
        let mut t = Instance::new();
        t.insert_names("R", &["a", "k"]);
        t.insert_names("R", &["b", "k"]);
        t.insert_names("R", &["junk", "junk"]);
        assert_eq!(is_member(&m, &s, &t), is_member_via_repa(&m, &s, &t));
        assert!(is_member(&m, &s, &t));
        let mut missing_b = Instance::new();
        missing_b.insert_names("R", &["a", "k"]);
        assert_eq!(
            is_member(&m, &s, &missing_b),
            is_member_via_repa(&m, &s, &missing_b)
        );
        assert!(!is_member(&m, &s, &missing_b));
    }

    /// Mixed annotation: R(x:cl, z:op) — first attribute closed to source
    /// values, second open to replication.
    #[test]
    fn mixed_annotation_membership() {
        let m = Mapping::parse("R(x:cl, z:op) <- E(x, y)").unwrap();
        let s = source_e3();
        // Multiple values for a's null, one for b's: fine.
        let mut t = Instance::new();
        t.insert_names("R", &["a", "v1"]);
        t.insert_names("R", &["a", "v2"]);
        t.insert_names("R", &["b", "w"]);
        assert!(is_member(&m, &s, &t));
        // A tuple with a first attribute not in the source: rejected.
        let mut bad = t.clone();
        bad.insert_names("R", &["zzz", "v"]);
        assert!(!is_member(&m, &s, &bad));
        // Missing b entirely: rejected (v(rel CSol) ⊈ T).
        let mut missing = Instance::new();
        missing.insert_names("R", &["a", "v1"]);
        assert!(!is_member(&m, &s, &missing));
    }

    /// Theorem 1(3) on a bounded universe: ⟦S⟧_Σcl ⊆ ⟦S⟧_Σα ⊆ ⟦S⟧_Σop for
    /// α between the extremes — checked on an enumeration of small targets.
    #[test]
    fn semantics_monotone_in_annotation_on_small_universe() {
        let mid = Mapping::parse("R(x:cl, z:op) <- E(x, y)").unwrap();
        let cl = mid.all_closed();
        let op = mid.all_open();
        let mut s = Instance::new();
        s.insert_names("E", &["a", "b"]);
        // Enumerate all targets over constants {a, u, w} with ≤ 2 tuples.
        let consts = ["a", "u", "w"];
        let mut all_pairs = Vec::new();
        for x in consts {
            for y in consts {
                all_pairs.push((x, y));
            }
        }
        let mut checked = 0;
        for i in 0..all_pairs.len() {
            for j in i..all_pairs.len() {
                let mut t = Instance::new();
                let (x1, y1) = all_pairs[i];
                t.insert_names("R", &[x1, y1]);
                let (x2, y2) = all_pairs[j];
                t.insert_names("R", &[x2, y2]);
                let in_cl = is_member(&cl, &s, &t);
                let in_mid = is_member(&mid, &s, &t);
                let in_op = is_member(&op, &s, &t);
                assert!(!in_cl || in_mid, "cl ⊆ mid violated on {t}");
                assert!(!in_mid || in_op, "mid ⊆ op violated on {t}");
                checked += 1;
            }
        }
        assert!(checked > 30);
    }
}
