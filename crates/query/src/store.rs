//! The storage abstraction plans execute against.
//!
//! [`QueryStore`] is the slice of an indexed tuple store the executor
//! needs: per-relation cardinalities, a **selectivity estimate** for a
//! partially bound pattern (the quantity the greedy join order minimizes),
//! and pattern-matching scans that probe the tightest bound column.
//!
//! Implementations in the workspace:
//!
//! * [`dx_relation::InstanceIndex`] (here) — an immutable snapshot index
//!   built per instance; the default backing of
//!   [`crate::eval::QueryEval`];
//! * `dx_engine::IndexedInstance` (in `dx-engine`, which depends on this
//!   crate) — the live, incrementally maintained store behind the
//!   delta-driven chase, so plans run against chase output without a
//!   re-index.

use dx_relation::{DeltaIndex, Instance, InstanceIndex, OverlayIndex, RelSym, Tuple, Value};
use std::ops::ControlFlow;

/// An indexed tuple source the executor can scan and probe.
///
/// `Sync` is a supertrait so the parallel executors can share one store
/// across pool workers; every implementation in the workspace is plain
/// data (no interior mutability), so the bound costs nothing.
pub trait QueryStore: Sync {
    /// The arity of `rel`, if the store knows the relation.
    fn rel_arity(&self, rel: RelSym) -> Option<usize>;

    /// Number of tuples in `rel` (0 when absent).
    fn rel_len(&self, rel: RelSym) -> usize;

    /// Upper bound on the number of tuples of `rel` matching `pattern`
    /// (`Some(v)` = position bound to `v`): the posting-list length of the
    /// tightest bound column, or the relation size when nothing is bound.
    fn selectivity(&self, rel: RelSym, pattern: &[Option<Value>]) -> usize;

    /// Invoke `f` on every tuple of `rel` matching `pattern` on all bound
    /// positions, stopping at the first tuple for which `f` breaks; returns
    /// that break, or `Continue` once the matches are exhausted. Full
    /// scans return `Continue` from `f`, existence checks break at their
    /// first witness.
    fn for_each_matching(
        &self,
        rel: RelSym,
        pattern: &[Option<Value>],
        f: &mut dyn FnMut(&Tuple) -> ControlFlow<()>,
    ) -> ControlFlow<()>;
}

impl QueryStore for InstanceIndex {
    fn rel_arity(&self, rel: RelSym) -> Option<usize> {
        self.relation(rel).map(|idx| idx.arity())
    }

    fn rel_len(&self, rel: RelSym) -> usize {
        self.relation(rel).map_or(0, |idx| idx.len())
    }

    fn selectivity(&self, rel: RelSym, pattern: &[Option<Value>]) -> usize {
        self.relation(rel).map_or(0, |idx| idx.selectivity(pattern))
    }

    fn for_each_matching(
        &self,
        rel: RelSym,
        pattern: &[Option<Value>],
        f: &mut dyn FnMut(&Tuple) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if let Some(idx) = self.relation(rel) {
            for id in idx.matching(pattern) {
                f(idx.get(id))?;
            }
        }
        ControlFlow::Continue(())
    }
}

/// The incrementally maintained store: `dx-solver`'s `Rep_A` search mutates
/// one [`DeltaIndex`] by delta apply/undo and compiled plans probe it at
/// every leaf — the replacement for building an [`InstanceIndex`] per
/// candidate instance. Identical tuple sets answer identically to the
/// snapshot index (`dx-relation`'s delta tests assert it).
impl QueryStore for DeltaIndex {
    fn rel_arity(&self, rel: RelSym) -> Option<usize> {
        DeltaIndex::rel_arity(self, rel)
    }

    fn rel_len(&self, rel: RelSym) -> usize {
        DeltaIndex::rel_len(self, rel)
    }

    fn selectivity(&self, rel: RelSym, pattern: &[Option<Value>]) -> usize {
        DeltaIndex::selectivity(self, rel, pattern)
    }

    fn for_each_matching(
        &self,
        rel: RelSym,
        pattern: &[Option<Value>],
        f: &mut dyn FnMut(&Tuple) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        DeltaIndex::for_each_matching(self, rel, pattern, f)
    }
}

/// A per-worker overlay over a shared frozen snapshot: what parallel
/// sweeps probe. Same visible set ⇒ same (set-normalized) answers as the
/// sequential [`DeltaIndex`] it was frozen from.
impl QueryStore for OverlayIndex {
    fn rel_arity(&self, rel: RelSym) -> Option<usize> {
        OverlayIndex::rel_arity(self, rel)
    }

    fn rel_len(&self, rel: RelSym) -> usize {
        OverlayIndex::rel_len(self, rel)
    }

    fn selectivity(&self, rel: RelSym, pattern: &[Option<Value>]) -> usize {
        OverlayIndex::selectivity(self, rel, pattern)
    }

    fn for_each_matching(
        &self,
        rel: RelSym,
        pattern: &[Option<Value>],
        f: &mut dyn FnMut(&Tuple) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        OverlayIndex::for_each_matching(self, rel, pattern, f)
    }
}

/// Un-indexed fallback: scan-and-filter directly over an [`Instance`].
/// Used when the instance is too small for an index build to pay off.
impl QueryStore for Instance {
    fn rel_arity(&self, rel: RelSym) -> Option<usize> {
        self.relation(rel).map(|r| r.arity())
    }

    fn rel_len(&self, rel: RelSym) -> usize {
        self.relation(rel).map_or(0, |r| r.len())
    }

    fn selectivity(&self, rel: RelSym, _pattern: &[Option<Value>]) -> usize {
        self.rel_len(rel)
    }

    fn for_each_matching(
        &self,
        rel: RelSym,
        pattern: &[Option<Value>],
        f: &mut dyn FnMut(&Tuple) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for t in self.tuples(rel) {
            let matches = pattern
                .iter()
                .enumerate()
                .all(|(c, p)| p.is_none_or(|pv| t.get(c) == pv));
            if matches {
                f(t)?;
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Instance {
        let mut i = Instance::new();
        i.insert_names("QsE", &["a", "b"]);
        i.insert_names("QsE", &["a", "c"]);
        i.insert_names("QsE", &["b", "c"]);
        i
    }

    #[test]
    fn index_and_naive_stores_agree() {
        let inst = sample();
        let idx = InstanceIndex::build(&inst);
        let pattern = [Some(Value::c("a")), None];
        let rel = RelSym::new("QsE");
        assert_eq!(idx.rel_arity(rel), Some(2));
        assert_eq!(inst.rel_arity(rel), Some(2));
        assert_eq!(idx.rel_len(rel), 3);
        assert_eq!(idx.selectivity(rel, &pattern), 2);
        let mut via_idx = Vec::new();
        let _ = idx.for_each_matching(rel, &pattern, &mut |t| {
            via_idx.push(t.clone());
            ControlFlow::Continue(())
        });
        let mut via_scan = Vec::new();
        let _ = inst.for_each_matching(rel, &pattern, &mut |t| {
            via_scan.push(t.clone());
            ControlFlow::Continue(())
        });
        via_idx.sort();
        via_scan.sort();
        assert_eq!(via_idx, via_scan);
        assert_eq!(via_idx.len(), 2);
    }

    /// The early stop: a callback's break ends the scan at once and is
    /// returned, on every store — the overlay included, whose base
    /// matches come before its private ones.
    #[test]
    fn a_break_stops_the_scan() {
        let inst = sample();
        let rel = RelSym::new("QsE");
        let mut base = Instance::new();
        base.insert_names("QsE", &["a", "b"]);
        let mut overlay = OverlayIndex::new(DeltaIndex::from_instance(&base).freeze());
        overlay.insert(rel, Tuple::from_names(&["a", "c"]));
        overlay.insert(rel, Tuple::from_names(&["b", "c"]));
        let idx = InstanceIndex::build(&inst);
        let delta = DeltaIndex::from_instance(&inst);
        let stores: [&dyn QueryStore; 4] = [&idx, &inst, &delta, &overlay];
        for store in stores {
            let mut seen = 0;
            let flow = store.for_each_matching(rel, &[Some(Value::c("a")), None], &mut |_| {
                seen += 1;
                ControlFlow::Break(())
            });
            assert!(flow.is_break());
            assert_eq!(seen, 1);
        }
    }

    #[test]
    fn absent_relations_read_empty() {
        let inst = sample();
        let idx = InstanceIndex::build(&inst);
        let rel = RelSym::new("QsMissing");
        assert_eq!(idx.rel_arity(rel), None);
        assert_eq!(idx.rel_len(rel), 0);
        let mut n = 0;
        let _ = idx.for_each_matching(rel, &[None], &mut |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(n, 0);
    }
}
