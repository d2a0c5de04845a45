//! # dx-chase — schema mappings and canonical solutions
//!
//! The data-exchange substrate of `oc-exchange`:
//!
//! * [`TargetAtom`], [`Std`] — annotated source-to-target dependencies
//!   `ψ(x̄, z̄) :– φ(x̄, ȳ)` with per-position `op`/`cl` annotations (§3 of
//!   Libkin & Sirangelo);
//! * [`Mapping`] — a triple `(σ, τ, Σα)` with annotation statistics
//!   (`#op(Σα)`, `#cl(Σα)`) that drive both trichotomy theorems;
//! * [`canonical::canonical_solution`] — the annotated canonical solution
//!   `CSol_A(S)` with per-null justification bookkeeping;
//! * [`hom`] — annotation-preserving homomorphisms (`Null → Null`), onto
//!   images, and homomorphisms into *expansions* (Proposition 1);
//! * [`solutions`] — solution theories: OWA-solutions of [FKMP'05],
//!   CWA-(pre)solutions of [Libkin'06], and the paper's `Σα`-solutions
//!   decided via the Proposition 1 characterization, plus annotated facts
//!   and the `|=_cl` satisfaction relation they are defined from;
//! * [`target_deps`] / [`chase_engine`] — the §6 extension: target tgds and
//!   egds, the weak-acyclicity test, and a standard chase over annotated
//!   instances (`canonical_solution_with_deps` runs the full
//!   exchange-then-repair pipeline);
//! * [`core`] — cores of instances with nulls: the classic FKP core
//!   (\[12\], nulls may collapse onto constants) and the annotated
//!   `Null → Null` core, whose application to `CSol_A(S)` yields a minimal
//!   `Σα`-solution.

#![warn(missing_docs)]

pub mod canonical;
pub mod chase_engine;
pub mod core;
pub mod hom;
pub mod mapping;
pub mod solutions;
pub mod std_dep;
pub mod strategy;
pub mod target_deps;

pub use canonical::{
    canonical_solution, canonical_solution_via, head_env, instantiate_atom, BodyEval,
    CanonicalSolution, Justification, NaiveBodyEval,
};
pub use chase_engine::{canonical_solution_with_deps, chase, ChaseOutcome, ChaseResult};
pub use core::{ann_core_of, ann_isomorphic, core_of, AnnCoreResult, CoreResult};
pub use hom::NullMap;
pub use mapping::Mapping;
pub use solutions::{is_owa_solution, is_solution, AnnotatedFact};
pub use std_dep::{Std, TargetAtom};
pub use strategy::{canonical_solution_with_deps_via, ChaseStrategy, NaiveChase};
pub use target_deps::{is_weakly_acyclic, Egd, TargetDep, Tgd};
