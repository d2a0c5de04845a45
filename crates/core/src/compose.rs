//! Semantic composition of annotated mappings (§5, Theorem 4, Table 1).
//!
//! `Σα ∘ Δα′ = {(S, W) | ∃J : J ∈ ⟦S⟧_Σα and W ∈ ⟦J⟧_Δα′}` — the
//! composition of the binary relations the two mappings denote, restricted
//! to instances over `Const` exactly as in [FKP&T'05] and §5.
//!
//! The decision procedure enumerates intermediate instances
//! `J ∈ Rep_A(CSol_A^Σα(S))` and checks `W ∈ ⟦J⟧_Δα′`, with the witness
//! space chosen per Table 1:
//!
//! * `Δ` monotone with all-open annotation — Lemma 3 / Corollary 4: only the
//!   *minimal* intermediates `J = v(CSol(S))` need checking (NP, exact, for
//!   any `Σα`);
//! * `#op(Σα) = 0` — `⟦S⟧_Σα` is exactly the valuation images (NP, exact);
//! * `#op(Σα) ≥ 1` — bounded open-position replication (NEXPTIME-complete
//!   at `#op = 1`, undecidable beyond; answers carry their completeness).

use crate::{semantics, Exchange};
use dx_chase::{is_owa_solution, Mapping};
use dx_relation::{ConstId, Instance, Tuple};
use dx_solver::{search_rep_a_indexed, Completeness, Leaf, SearchBudget};
use std::collections::BTreeSet;

/// Which path decided a composition query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompPath {
    /// Lemma 3 / Corollary 4: minimal intermediates suffice (`Δ` monotone,
    /// all-open).
    MonotoneOpen,
    /// Theorem 4, `#op(Σα) = 0`: valuation images are the whole semantics.
    ClosedIntermediate,
    /// The §6 remark: `Δ` with existential bodies — a witness intermediate
    /// can be restricted to `adom(v(CSol)) ∪ adom(W) ∪ consts(Δ)`, so the
    /// zero-external-constant search is exhaustive (NP for every
    /// annotation).
    ExistentialDelta,
    /// Theorem 4, `#op(Σα) ≥ 1`: bounded enumeration of intermediates.
    BoundedIntermediate,
}

/// Outcome of a composition-membership query.
#[derive(Clone, Debug)]
pub struct CompOutcome {
    /// Is `(S, W)` in `Σα ∘ Δα′` (within the explored space)?
    pub member: bool,
    /// Completeness of a negative answer.
    pub completeness: Completeness,
    /// The path taken.
    pub path: CompPath,
    /// A witnessing intermediate instance `J`, when `member`.
    pub intermediate: Option<Instance>,
    /// Intermediate instances examined.
    pub leaves: u64,
}

/// Decide `(S, W) ∈ Σα ∘ Δα′` — the problem `Comp(Σα, Δα′)` of §5 (see
/// [`Exchange::comp_membership`]).
pub fn comp_membership(
    sigma: &Mapping,
    delta: &Mapping,
    source: &Instance,
    w: &Instance,
    budget: Option<&SearchBudget>,
) -> CompOutcome {
    Exchange::new(sigma, source).comp_membership(delta, w, budget)
}

impl Exchange<'_> {
    /// Decide `(S, W) ∈ Σα ∘ Δα′`, with this exchange as `(Σα, S)`.
    /// Every per-intermediate `Δ` membership check builds its own exchange
    /// of the intermediate on this exchange's [`dx_chase::ChaseStrategy`];
    /// the verdict is strategy independent.
    ///
    /// `budget` only affects the `#op(Σα) ≥ 1` regime.
    pub fn comp_membership(
        &self,
        delta: &Mapping,
        w: &Instance,
        budget: Option<&SearchBudget>,
    ) -> CompOutcome {
        assert!(
            self.source.is_ground() && w.is_ground(),
            "instances over Const"
        );
        // Δ's source vocabulary must live in Σ's target.
        for std in &delta.stds {
            for (rel, arity) in std.body.relations() {
                assert_eq!(
                    self.mapping.target.arity(rel),
                    Some(arity),
                    "Δ body relation {rel} not produced by Σ"
                );
            }
        }

        // Constants the intermediate may need: everything W or Δ can "see".
        let mut extra: BTreeSet<ConstId> = w.adom_consts();
        for std in &delta.stds {
            extra.extend(std.body.constants());
        }

        // Lemma 3 fast path: Δ monotone + all-open ⇒ minimal intermediates
        // (valuation images of CSol) suffice, regardless of Σ's annotation.
        if delta.has_monotone_bodies() && delta.is_all_open() {
            // Copy-like Δ (single-atom bodies, frontier-only heads): the whole
            // condition "∃v: (v(CSol), W) ⊨ Δ" collapses to embedding the
            // Δ-image of CSol into W — a pruned CSP instead of leaf-checked
            // valuation enumeration.
            if let Some(pre) = delta_preimage(delta, &self.csol.rel_part()) {
                let v = dx_solver::find_embedding_valuation(&pre, w);
                let intermediate = v.map(|mut val| {
                    // Nulls Δ never looks at are unconstrained; ground them so
                    // the reported intermediate is a Const-instance.
                    for n in self.csol.nulls() {
                        if !val.is_defined(n) {
                            val.set(n, ConstId::new("⋆free"));
                        }
                    }
                    self.csol.rel_part().apply(&val)
                });
                return CompOutcome {
                    member: intermediate.is_some(),
                    completeness: Completeness::Exact,
                    path: CompPath::MonotoneOpen,
                    intermediate,
                    leaves: 1,
                };
            }
            let closed = self.csol.reannotate_all_closed();
            let mut check = |leaf: &Leaf| is_owa_solution(delta, leaf.instance(), w);
            let out =
                search_rep_a_indexed(&closed, &extra, &SearchBudget::closed_world(), &mut check);
            return CompOutcome {
                member: out.witness.is_some(),
                completeness: Completeness::Exact,
                path: CompPath::MonotoneOpen,
                intermediate: out.witness.map(|(j, _)| j),
                leaves: out.leaves,
            };
        }

        let (search_budget, path, exact) = if self.mapping.is_all_closed() {
            (
                SearchBudget::closed_world(),
                CompPath::ClosedIntermediate,
                true,
            )
        } else if let Some(b) = budget {
            // An explicit caller budget always wins (callers that want the
            // exhaustive existential-Δ space can pass None or build it via
            // SearchBudget::existential_delta themselves).
            (b.clone(), CompPath::BoundedIntermediate, false)
        } else if delta
            .stds
            .iter()
            .all(|std| dx_logic::classify::is_existential(&std.body))
        {
            // §6 remark: existential Δ-bodies — a witness J shrinks to the
            // values of `v(CSol) ∪ adom(W) ∪ consts(Δ)` plus the values of one
            // kept supporting body-match per W-tuple (restriction preserves
            // positive atoms of kept matches, only improves negated atoms, and
            // removes — never adds — obligations). That is ≤ |W| · (Δ body
            // variables) external values, realizable as canonical fresh
            // constants by genericity: NP, exact, for every annotation of Σ.
            let max_body_vars = delta
                .stds
                .iter()
                .map(|std| std.body.all_vars().len())
                .max()
                .unwrap_or(0);
            (
                SearchBudget::existential_delta(w.tuple_count(), max_body_vars),
                CompPath::ExistentialDelta,
                true,
            )
        } else {
            (
                budget.cloned().unwrap_or_default(),
                CompPath::BoundedIntermediate,
                false,
            )
        };

        // The per-intermediate membership check exchanges `J` as a source
        // (on this exchange's strategy), so it consumes the materialized
        // instance view (maintained in lock-step with the index — no
        // per-leaf clone).
        let mut check = |leaf: &Leaf| {
            semantics::in_semantics_on(self.strategy, delta, leaf.instance(), w).is_member()
        };
        let out = search_rep_a_indexed(&self.csol, &extra, &search_budget, &mut check);
        let completeness = match (out.completeness, exact) {
            (Completeness::Capped, _) => Completeness::Capped,
            (_, true) => Completeness::Exact,
            (c, false) => c,
        };
        CompOutcome {
            member: out.witness.is_some(),
            completeness,
            path,
            intermediate: out.witness.map(|(j, _)| j),
            leaves: out.leaves,
        }
    }
}

/// For *copy-like* Δ (every STD has a single positive-atom body with
/// variable-only arguments, and head atoms using only body variables),
/// compute the Δ-image of the (null-carrying) intermediate `j`: the exact
/// set of head tuples `(J, W) |= Δ` requires in `W`, with `j`'s nulls
/// flowing through. Returns `None` when Δ is not copy-like.
///
/// Soundness of the fast path: for a single-atom body, the matches of the
/// body over `v(J)` are exactly the `v`-images of the matches over `J`
/// (no null-merging can create new single-atom matches — merging only
/// collapses tuples), so `(v(J), W) |= Δ  ⟺  v(pre) ⊆ W`.
fn delta_preimage(delta: &Mapping, j: &Instance) -> Option<Instance> {
    use dx_logic::{Formula, Term};
    let mut pre = Instance::new();
    for std in &delta.stds {
        // Single positive atom body with *distinct* variable arguments.
        // (A repeated variable, e.g. M(x, x), matches more tuples once a
        // valuation merges nulls — the naive preimage would under-apply Δ.)
        let (body_rel, body_args) = match &std.body {
            Formula::Atom(r, args)
                if args.iter().all(|t| matches!(t, Term::Var(_)))
                    && args.iter().collect::<std::collections::BTreeSet<_>>().len()
                        == args.len() =>
            {
                (*r, args)
            }
            _ => return None,
        };
        // Heads: variables drawn from the body only (no existential nulls —
        // those would need fresh nulls per witness; keep the fast path
        // simple and fall back otherwise).
        if !std.existential_vars().is_empty() {
            return None;
        }
        let positions: std::collections::BTreeMap<dx_relation::Var, usize> = body_args
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_var().map(|v| (v, i)))
            .collect();
        for atom in &std.head {
            for tuple in j.tuples(body_rel) {
                let vals: Vec<dx_relation::Value> = atom
                    .args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => tuple.get(positions[v]),
                        Term::Const(c) => dx_relation::Value::Const(*c),
                        Term::App(_, _) => unreachable!("plain STDs are function-free"),
                    })
                    .collect();
                pre.insert(atom.rel, Tuple::new(vals));
            }
            // Repeated body variables would make the single-atom match
            // conditional; they are fine (they only filter j's tuples).
        }
    }
    Some(pre)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-hop copy: σ {E} → τ {M} → ω {F}. Under all-CWA the composition
    /// is exactly "F is a copy of E".
    #[test]
    fn closed_copy_chain() {
        let sigma = Mapping::parse("M(x:cl, y:cl) <- E(x, y)").unwrap();
        let delta = Mapping::parse("F(x:cl, y:cl) <- M(x, y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("E", &["a", "b"]);
        let mut w = Instance::new();
        w.insert_names("F", &["a", "b"]);
        let out = comp_membership(&sigma, &delta, &s, &w, None);
        assert!(out.member);
        assert_eq!(out.path, CompPath::ClosedIntermediate);
        assert_eq!(out.completeness, Completeness::Exact);
        // Extra tuple: rejected under CWA end-to-end.
        let mut w2 = w.clone();
        w2.insert_names("F", &["p", "q"]);
        assert!(!comp_membership(&sigma, &delta, &s, &w2, None).member);
    }

    /// Monotone all-open Δ takes the Lemma 3 fast path, and supersets are
    /// members.
    #[test]
    fn monotone_open_fast_path() {
        let sigma = Mapping::parse("M(x:cl, z:cl) <- E(x, y)").unwrap();
        let delta = Mapping::parse("F(x:op, y:op) <- M(x, y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("E", &["a", "b"]);
        // W must contain (a, c) for some c — the null's value is free.
        let mut w = Instance::new();
        w.insert_names("F", &["a", "anything"]);
        w.insert_names("F", &["extra", "junk"]);
        let out = comp_membership(&sigma, &delta, &s, &w, None);
        assert!(out.member);
        assert_eq!(out.path, CompPath::MonotoneOpen);
        // But W without any a-tuple is not a member.
        let mut w2 = Instance::new();
        w2.insert_names("F", &["b", "c"]);
        assert!(!comp_membership(&sigma, &delta, &s, &w2, None).member);
    }

    /// The null introduced by Σ flows through Δ: the composition constrains
    /// W to use ONE shared value where the intermediate had one null
    /// (the essence of the Proposition 6 gadget).
    #[test]
    fn shared_null_rectangle() {
        // Σ: N(z) :- R(x); C(x:cl) :- P(x)   (z existential: one null)
        let sigma = Mapping::parse("N(z:cl) <- R(x); C(x:cl) <- P(x)").unwrap();
        // Δ: D(x,y) :- C(x) & N(y)
        let delta = Mapping::parse("D(x:cl, y:cl) <- C(x) & N(y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("R", &["0"]);
        s.insert_names("P", &["1"]);
        s.insert_names("P", &["2"]);
        // Shared value: member.
        let mut w_good = Instance::new();
        w_good.insert_names("D", &["1", "c"]);
        w_good.insert_names("D", &["2", "c"]);
        assert!(comp_membership(&sigma, &delta, &s, &w_good, None).member);
        // Distinct values: not a member (no single valuation of the N-null).
        let mut w_bad = Instance::new();
        w_bad.insert_names("D", &["1", "c1"]);
        w_bad.insert_names("D", &["2", "c2"]);
        assert!(!comp_membership(&sigma, &delta, &s, &w_bad, None).member);
    }

    /// #op(Σ) = 1: open intermediates can be replicated, changing the
    /// verdict relative to the all-closed annotation.
    #[test]
    fn open_intermediate_replication() {
        // Σ: M(x:cl, z:op) :- E(x);  Δ: F(x:cl,y:cl) :- M(x, y) (all-closed Δ).
        let sigma_open = Mapping::parse("M(x:cl, z:op) <- E(x)").unwrap();
        let sigma_closed = sigma_open.all_closed();
        let delta = Mapping::parse("F(x:cl, y:cl) <- M(x, y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("E", &["a"]);
        // W with two F-tuples for a: needs an intermediate with two M-tuples.
        let mut w = Instance::new();
        w.insert_names("F", &["a", "v1"]);
        w.insert_names("F", &["a", "v2"]);
        let open_out = comp_membership(&sigma_open, &delta, &s, &w, None);
        assert!(open_out.member, "open annotation lets M replicate");
        // Δ's body is a single atom — existential — so the §6 NP fast path
        // applies even though #op(Σ) = 1.
        assert_eq!(open_out.path, CompPath::ExistentialDelta);
        assert_eq!(open_out.completeness, Completeness::Exact);
        let closed_out = comp_membership(&sigma_closed, &delta, &s, &w, None);
        assert!(!closed_out.member, "closed annotation forbids replication");
        assert_eq!(closed_out.completeness, Completeness::Exact);
    }

    /// The §6 remark end to end: existential Δ-bodies (with a negated atom)
    /// keep composition exact for open Σ — both the member and the
    /// non-member verdicts are definitive.
    #[test]
    fn existential_delta_exact_for_open_sigma() {
        let sigma = Mapping::parse("M(x:cl, z:op) <- E(x); Blocked(b:cl) <- BadSrc(b)").unwrap();
        // Existential body with safe negation: ∃y (M(x,y) ∧ ¬Blocked(y)).
        let delta = Mapping::parse("F(x:cl) <- M(x, y) & !Blocked(y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("E", &["a"]);
        s.insert_names("BadSrc", &["q"]);
        // W = {F(a)}: member — value the open null to something unblocked.
        let mut w = Instance::new();
        w.insert_names("F", &["a"]);
        let out = comp_membership(&sigma, &delta, &s, &w, None);
        assert!(out.member);
        assert_eq!(out.path, CompPath::ExistentialDelta);
        // W = {F(a), F(zzz)}: zzz is never produced by Σ — definitively out.
        let mut w_bad = w.clone();
        w_bad.insert_names("F", &["zzz"]);
        let out_bad = comp_membership(&sigma, &delta, &s, &w_bad, None);
        assert!(!out_bad.member);
        assert_eq!(out_bad.completeness, Completeness::Exact, "no hedging");
    }

    /// Regression for the existential-Δ witness bound: when Σ creates no
    /// nulls (it copies with an open position) and Δ's negation blocks
    /// every already-mentioned value, the witness needs a *fresh* value at
    /// an open position — only the `|W| · vars(Δ)` external-constant
    /// allowance finds it.
    #[test]
    fn existential_delta_needs_external_values() {
        let sigma = Mapping::parse("M(x:cl, y:op) <- E(x, y); G(w:cl) <- H(w)").unwrap();
        let delta = Mapping::parse("F(x:cl) <- M(x, y) & !G(y)").unwrap();
        let mut s = Instance::new();
        s.insert_names("E", &["a", "b"]);
        // G blocks BOTH palette values a and b.
        s.insert_names("H", &["a"]);
        s.insert_names("H", &["b"]);
        let mut w = Instance::new();
        w.insert_names("F", &["a"]);
        let out = comp_membership(&sigma, &delta, &s, &w, None);
        assert_eq!(out.path, CompPath::ExistentialDelta);
        assert!(
            out.member,
            "J = {{M(a,b), M(a,fresh), G(a), G(b)}} witnesses membership"
        );
        // And the fresh value really is external: the witnessing
        // intermediate contains a constant outside adom(S) ∪ adom(W).
        let j = out.intermediate.expect("witness");
        let known: BTreeSet<ConstId> = s.adom_consts().union(&w.adom_consts()).copied().collect();
        assert!(j.adom_consts().iter().any(|c| !known.contains(c)));
    }

    /// A non-existential Δ (∀ in NNF) with an open Σ still lands in the
    /// bounded regime.
    #[test]
    fn universal_delta_stays_bounded() {
        let sigma = Mapping::parse("M(x:cl, z:op) <- E(x)").unwrap();
        let delta =
            Mapping::parse("AllSame(x:cl) <- M(x, y) & !exists u. !exists w. M(u, w)").unwrap();
        let mut s = Instance::new();
        s.insert_names("E", &["a"]);
        let w = Instance::new();
        let out = comp_membership(&sigma, &delta, &s, &w, None);
        assert_eq!(out.path, CompPath::BoundedIntermediate);
    }

    /// Composition with FO (negation) in Δ's bodies.
    #[test]
    fn fo_delta_bodies() {
        let sigma = Mapping::parse("M(x:cl, y:cl) <- E(x, y)").unwrap();
        // Δ copies M-sources that have no outgoing M-edge from their target.
        let delta = Mapping::parse("Sink(x:cl) <- M(y, x) & !exists z. M(x, z)").unwrap();
        let mut s = Instance::new();
        s.insert_names("E", &["a", "b"]);
        s.insert_names("E", &["b", "c"]);
        let mut w = Instance::new();
        w.insert_names("Sink", &["c"]);
        assert!(comp_membership(&sigma, &delta, &s, &w, None).member);
        let mut w2 = Instance::new();
        w2.insert_names("Sink", &["b"]);
        assert!(!comp_membership(&sigma, &delta, &s, &w2, None).member);
    }
}
