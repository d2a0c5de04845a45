//! # dx-engine — the indexed, delta-driven chase engine
//!
//! The performance subsystem of `oc-exchange`. Every result reproduced from
//! the paper bottoms out in chase execution; this crate provides the fast
//! implementation of the [`dx_chase::ChaseStrategy`] contract:
//!
//! * [`store::IndexedInstance`] — a mutable annotated instance with stable
//!   tuple ids over one [`dx_relation::DeltaIndex`] of its relational
//!   tuples: trigger queries probe the index, and an egd null-merge reads
//!   the null's postings, so it is proportional to the affected tuples;
//! * [`chase::IndexedChase`] — semi-naive chase: triggers are discovered
//!   from the **delta** of the previous step (a work-queue of
//!   inserted/rewritten tuple ids) instead of full rescans. Each dependency
//!   is compiled once to a *trigger query* (its body with the conclusion
//!   negated, so its rows are the active triggers) that runs on
//!   `dx-query`'s first-witness walk over the store — the chase has no
//!   join of its own.
//!
//! The reference oracle is [`dx_chase::NaiveChase`]; the two engines are
//! differentially tested on randomized workloads in
//! `tests/engine_differential.rs`, and raced by the `experiments` binary
//! (E15; results land in `BENCH_chase.json`).
//!
//! For sustained update traffic, [`stream::IncrementalExchange`] maintains
//! the canonical solution (and its chased closure) under source
//! [`dx_relation::Update`] batches instead of re-running the pipeline. It
//! runs the same engines: STD bodies on `dx-query`'s delta plans over a
//! source index, and the target through the chase loop above — see
//! `DESIGN.md §Streaming data exchange` for the delta protocol.

#![deny(missing_docs)]

pub mod chase;
pub mod store;
pub mod stream;

pub use chase::IndexedChase;
pub use store::{IndexedInstance, Inserted, Rewrite, TupleId};
pub use stream::{IncrementalExchange, StdPath, TargetPath, UpdateReport};
