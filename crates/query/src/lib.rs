//! # dx-query — compiled, index-backed query evaluation
//!
//! The paper's query-answering results (Proposition 3, Theorem 4) reduce
//! certain answers of positive queries to *naive evaluation* over one
//! null-carrying instance, followed by discarding null-containing tuples.
//! The reference implementation of that semantics is the tree-walking
//! active-domain evaluator in [`dx_logic::eval`], which rescans whole
//! relations per quantifier. This crate is the compiled alternative:
//!
//! * [`lower`] — **safe-range analysis** and lowering of [`dx_logic::Formula`]
//!   queries into relational-algebra [`plan::Plan`]s: conjunctions become
//!   n-ary joins, constant equalities become pushed-down selections
//!   ([`plan::Plan::Bind`] inputs that seed index probes), safe negations
//!   become anti-joins, existentials become projections. Formulas outside
//!   the safe-range fragment are rejected — callers fall back to the
//!   tree-walking oracle, which stays bit-compatible by construction;
//! * [`ra`] — the same lowering for positional relational-algebra
//!   expressions ([`dx_ctables::RaExpr`]), with equality selections over
//!   products unified into natural joins;
//! * [`exec`] — the ground executor, one depth-first *walk* over a binding
//!   stack: pipelined index-nested-loop joins ordered greedily by **index
//!   selectivity** under the current bindings, against any
//!   [`store::QueryStore`] (a [`dx_relation::DeltaIndex`] built over the
//!   relations a plan scans, or one the solver or a streaming exchange
//!   maintains), with filter sides and correlated branches probed per row.
//!   Yes/no questions ([`exec::exec_nonempty`]: membership with the head
//!   bound, Boolean queries) stop at the first row; answer sets run the
//!   walk to the end and keep the distinct rows. Nulls are atomic values
//!   throughout — the naive semantics of §2;
//! * [`cexec`] — the **conditional execution mode**: the same plans run
//!   over [`dx_ctables::CInstance`] conditional tables, producing guarded
//!   [`dx_ctables::CTable`] results so the CWA certain-answer pipeline
//!   (`dx-core::ctable_bridge`) runs on plans too;
//! * [`eval`] — the consumer-facing bundle: [`eval::CompiledQuery`] (plan +
//!   head), [`eval::QueryEval`] (compile-or-fallback evaluation of a
//!   [`dx_logic::Query`], with [`eval::QueryEval::holds_on_indexed`] as the
//!   per-leaf form probing an already-maintained store), and
//!   [`eval::PlannedBodyEval`] (the [`dx_chase::BodyEval`] implementation
//!   that makes `canonical_solution`'s STD-body evaluation run on indexed
//!   plans);
//! * [`delta`] — delta plans (one copy of a plan per changed-relation scan
//!   occurrence, redirected to a Δ-relation, and a refuting-side copy per
//!   changed scan under a negation) and [`delta::dred`], which carries a
//!   query's answers across a source batch by delete and re-derive;
//! * [`catalog`] — the shared [`catalog::PlanCatalog`]: compiled plans
//!   cached behind interior mutability, keyed by structural hash + schema
//!   fingerprint and verified by equality, so one catalog serves every
//!   pipeline (certain/possible answers, composition, c-table routes, the
//!   chase body evaluator, the solver's `Rep_A` refutation closures).
//!   Consumers draw from [`catalog::PlanCatalog::shared`] instead of
//!   constructing [`eval::QueryEval`]s directly.
//!
//! Differential testing: `tests/query_differential.rs` at the workspace
//! root asserts plan execution ≡ tree-walking evaluation on randomized
//! safe formulas, workload queries, null handling and certain-answer
//! post-filtering; `cexec` is cross-validated against
//! [`dx_ctables::RaExpr::eval_conditional`] and brute-force `Rep`
//! enumeration.

#![warn(missing_docs)]

pub mod catalog;
pub mod cexec;
pub mod delta;
pub mod eval;
pub mod exec;
pub mod explain;
pub mod lower;
pub mod plan;
pub mod ra;
pub mod store;

pub use catalog::{CatalogStats, PlanCatalog};
pub use delta::{delta_plan, delta_sym, dred, AnswerDelta, DeltaStore};
pub use eval::{CompiledQuery, PlannedBodyEval, QueryEval};
pub use explain::{explain_run, explain_run_conditional};
pub use lower::{lower_formula, LowerError, LowerReason};
pub use plan::{Plan, PlanPred, Ref};
pub use ra::CompiledRa;
pub use store::QueryStore;
