//! # dx-engine — the indexed, delta-driven chase engine
//!
//! The performance subsystem of `oc-exchange`. Every result reproduced from
//! the paper bottoms out in chase execution; this crate provides the fast
//! implementation of the [`dx_chase::ChaseStrategy`] contract:
//!
//! * [`store::IndexedInstance`] — a mutable annotated instance with stable
//!   tuple ids, per-relation per-column hash indexes, and a reverse
//!   `value → tuple ids` index that makes egd null-merging proportional to
//!   the affected tuples;
//! * [`chase::IndexedChase`] / [`chase::indexed_chase`] — semi-naive chase:
//!   triggers are discovered from the **delta** of the previous step (a
//!   work-queue of inserted/rewritten tuple ids) instead of full rescans,
//!   and body matching runs index-driven joins ordered by selectivity.
//!
//! The reference oracle is [`dx_chase::NaiveChase`]; the two engines are
//! differentially tested on randomized workloads in
//! `tests/engine_differential.rs`, and raced by the `experiments` binary
//! (E15; results land in `BENCH_chase.json`).
//!
//! For sustained update traffic, [`stream::IncrementalExchange`] maintains
//! the canonical solution (and its chased closure) under source
//! [`dx_relation::Update`] batches instead of re-running the pipeline —
//! see `DESIGN.md §Streaming data exchange` for the delta protocol.

#![deny(missing_docs)]

pub mod chase;
pub mod query_store;
pub mod store;
pub mod stream;

pub use chase::{indexed_chase, IndexedChase};
pub use store::{IndexedInstance, Inserted, Rewrite};
pub use stream::{IncrementalExchange, StdPath, TargetPath, UpdateReport};
