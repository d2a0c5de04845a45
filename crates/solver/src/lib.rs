//! # dx-solver — search engines for `oc-exchange`
//!
//! The paper's decision procedures are nondeterministic guesses over three
//! witness spaces; this crate realizes each as deterministic backtracking:
//!
//! * **valuations** of nulls (`Rep_A` membership — the NP witness of
//!   Theorem 2) in [`repa`], on the one search for maps on nulls,
//!   [`dx_relation::find_map`];
//! * **instances** `I ∈ Rep_A(T)` of the form `V ∪ E₀ ∪ E′` — a valuation
//!   plus *replicated open tuples* (the witness spaces of Lemma 2 and
//!   Proposition 5) in [`enumerate`];
//! * **generic constant palettes** with first-use symmetry breaking in
//!   [`palette`] — the code form of the paper's genericity arguments
//!   (Claim 1, Lemma 2): fresh constants are interchangeable, so only
//!   canonically-named ones need to be tried;
//! * **Hopcroft–Karp matching** in [`matching`], powering the PTIME `Rep`
//!   membership for Codd tables (§3's complexity remark) in
//!   [`repa::codd_rep_membership`].
//!
//! Every search takes an explicit [`enumerate::SearchBudget`] and reports
//! [`enumerate::Completeness`] so callers can distinguish "no, certainly"
//! from "none found within the budget" — essential for the coNEXPTIME and
//! undecidable regimes (`#op ≥ 1`) where exact search is exponential or
//! impossible.
//!
//! The candidate-instance `check` closures passed to
//! [`enumerate::search_rep_a_indexed`] are supplied by `dx-core`; they
//! evaluate queries through `dx-query` compiled plans probing the search's
//! single incrementally maintained [`dx_relation::DeltaIndex`] (per-leaf
//! body checks run index joins against a store updated by delta apply/undo
//! on DFS enter/exit — no per-candidate materialization or re-indexing),
//! with the `dx-logic` evaluator over the candidate materialized by
//! [`dx_relation::DeltaIndex::to_instance`] as the automatic fallback for
//! non-safe-range queries. The search itself is
//! query agnostic: it only sees `&dyn FnMut(&Leaf) -> bool`.

#![warn(missing_docs)]

pub mod enumerate;
pub mod matching;
pub mod palette;
pub mod repa;

pub use enumerate::{
    for_each_union, minimal_rep_a_members, search_rep_a_indexed, Completeness, Leaf, SearchBudget,
    SearchOutcome, Witness,
};
pub use matching::max_bipartite_matching;
pub use palette::Palette;
pub use repa::{
    codd_rep_membership, find_embedding_valuation, is_codd, rep_a_membership,
    rep_a_membership_by_search, rep_membership,
};
