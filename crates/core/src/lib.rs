//! # dx-core — data exchange in open and closed worlds
//!
//! The primary contribution of the reproduced paper (Libkin & Sirangelo,
//! *Data exchange and schema mappings in open and closed worlds*, PODS'08 /
//! JCSS'11), built on the substrates `dx-relation`/`dx-logic`/`dx-chase`/
//! `dx-solver`:
//!
//! * [`exchange`] — the entry surface: an [`Exchange`] holds one annotated
//!   mapping, one source and their annotated canonical solution
//!   `CSol_A(S)`, built once, and answers every question below as a method
//!   reading it (Theorem 1(4) and Corollary 2 put every question on that
//!   one object);
//! * [`semantics`] — the mixed open/closed-world semantics `⟦S⟧_Σα`:
//!   membership (Theorem 2: PTIME when all-open, NP otherwise), the
//!   OWA/CWA extremes (Theorem 1(1–2), Proposition 2) and the annotation
//!   order (Theorem 1(3));
//! * [`certain`] — certain answers `certain_Σα(Q, S)` and the `DEQA`
//!   problem: naive evaluation for positive/monotone queries
//!   (Proposition 3/4), the exact coNP procedures for `#op = 0` and for
//!   `∀*∃*` queries (Proposition 5), the bounded-replication procedure for
//!   `#op = 1` (Lemma 2), and budget-bounded refutation in the undecidable
//!   regime (`#op > 1`);
//! * [`compose`] — semantic composition `Comp(Σα, Δα′)` (Theorem 4 /
//!   Table 1) with the monotone-`Δop` fast path (Lemma 3, Corollary 4);
//! * [`skstd`] — Skolemized STDs, their semantics `Sol_F′(S)` (§5),
//!   membership, and the Lemma 4 STD→SkSTD translation;
//! * [`compose_alg`] — the Lemma 5 syntactic composition algorithm with CQ
//!   re-normalization, giving the two composition-closed classes of
//!   Theorem 5;
//! * [`non_closure`] — the Proposition 6 counterexample: plain annotated
//!   STD mappings do *not* compose;
//! * [`ptime_lang`] — the §6 extension: certain answers for black-box PTIME
//!   query languages beyond FO (instantiated for stratified Datalog);
//! * [`ctable_bridge`] — exact, search-free CWA certain answers for full
//!   relational algebra via the conditional tables of [`dx_ctables`]
//!   (the §2-cited Imieliński–Lipski mechanism);
//! * [`streaming`] — streaming data exchange: [`streaming::StreamSession`]
//!   keeps registered queries' answers current under source update batches
//!   (delta plans where sound, recompute-on-maintained-csol elsewhere);
//! * [`regimes`] — the non-monotonic query-answering regimes of the
//!   follow-up literature: GCWA\*-answers over unions of minimal solutions
//!   (Hernich) and the under/over approximation bracket for queries with
//!   negation (after Calautti et al.), both on compiled plans over one
//!   incrementally maintained index.

#![warn(missing_docs)]

pub mod certain;
pub mod compose;
pub mod compose_alg;
pub mod ctable_bridge;
pub mod exchange;
pub mod non_closure;
pub mod ptime_lang;
pub mod regimes;
pub mod semantics;
pub mod skstd;
pub mod streaming;

pub use certain::{certain_answers, certain_answers_with, certain_contains, CertainOutcome};
pub use compose::{comp_membership, CompOutcome};
pub use compose_alg::{compose_skstd, ComposeError};
pub use exchange::Exchange;
pub use ptime_lang::PtimeQuery;
pub use regimes::{
    approx_certain_answers, gcwa_star_answers, under_over_queries, ApproxOutcome, ApproxRoute,
    GcwaMembership, GcwaOutcome, GcwaRoute, RegimeBudget,
};
pub use semantics::{in_semantics, MembershipOutcome};
pub use skstd::{SkAtom, SkMapping, SkStd};
pub use streaming::{affected_target_rels, QueryPath, SessionReport, StreamRegime, StreamSession};
