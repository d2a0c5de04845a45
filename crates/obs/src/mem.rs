//! Memory-accounting gauges: the shared vocabulary for space metrics.
//!
//! Counters answer "how much work happened"; gauges answer "how big is
//! it right now". This module fixes the gauge *names* for the three
//! structures whose footprint dominates a data-exchange run — the
//! materialized instance, the relational [`DeltaIndex`] (the solver's
//! candidate store, the union walks' shared base; it holds the only copy
//! of its tuples), and the compiled-plan catalog — and provides the
//! publishing helpers the
//! bench harness (and any long-running consumer) calls to stamp current
//! readings into the registry. The *values* come from cheap accessor
//! methods on the owning crates (`dx_relation::Instance::tuple_count`,
//! `DeltaIndex::mem_stats`, `PlanCatalog::stats`), keeping the
//! dependency direction intact: data structures know their sizes,
//! dx-obs knows how to export them.
//!
//! Publishing is gated on the `DX_OBS` toggle like [`crate::count!`];
//! with the gate off, [`publish`] is a single relaxed load.
//!
//! [`DeltaIndex`]: ../../dx_relation/delta/struct.DeltaIndex.html

use crate::registry::registry;

/// Standard gauge names (`mem.<structure>.<quantity>`).
pub mod names {
    /// Tuples materialized in the instance under measurement.
    pub const INSTANCE_TUPLES: &str = "mem.instance.tuples";
    /// Distinct labelled nulls in that instance.
    pub const INSTANCE_NULLS: &str = "mem.instance.nulls";
    /// Live (occupied) slots across a `DeltaIndex`'s relations.
    pub const DELTA_LIVE_SLOTS: &str = "mem.delta.live_slots";
    /// Posting-list entries across a `DeltaIndex`'s per-column maps.
    pub const DELTA_POSTING_ENTRIES: &str = "mem.delta.posting_entries";
    /// Sum of tuple refcounts held by a `DeltaIndex`.
    pub const DELTA_REFCOUNT_TOTAL: &str = "mem.delta.refcount_total";
    /// Compiled plans cached in the shared `PlanCatalog`.
    pub const CATALOG_ENTRIES: &str = "mem.catalog.entries";
    /// Estimated bytes held by the shared `PlanCatalog`.
    pub const CATALOG_EST_BYTES: &str = "mem.catalog.est_bytes";
}

/// Set one registry gauge (no-op while `DX_OBS` is off).
#[inline]
pub fn publish(name: &'static str, value: u64) {
    if crate::enabled() {
        registry().gauge(name).set(value);
    }
}

/// Set several registry gauges (no-op while `DX_OBS` is off).
pub fn publish_all(readings: &[(&'static str, u64)]) {
    if !crate::enabled() {
        return;
    }
    for &(name, value) in readings {
        registry().gauge(name).set(value);
    }
}
