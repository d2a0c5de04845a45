//! The storage abstraction plans execute against.
//!
//! [`QueryStore`] is the slice of an indexed tuple store the executor
//! needs: a **selectivity estimate** for a partially bound pattern (the
//! quantity the greedy join order minimizes) and pattern-matching scans
//! that probe the tightest bound column.
//!
//! Implementations in the workspace:
//!
//! * [`dx_relation::DeltaIndex`] — the relational index: a fresh build
//!   per instance backs [`crate::eval::QueryEval`], the `Rep_A` search
//!   probes the one it maintains by apply/undo, and a streaming exchange
//!   keeps one over its canonical solution;
//! * [`crate::delta::DeltaStore`] — a base store plus a batch's tuples,
//!   what delta plans run on: the base relations read the post-update or
//!   the pre-update state, the derived symbols the batch's sides;
//! * [`Instance`] — the un-indexed scan-and-filter fallback;
//! * `dx_engine::IndexedInstance` — the chase's annotated store, which
//!   forwards to the `DeltaIndex` it keeps over its relational tuples; the
//!   chase's trigger queries walk it.

use dx_relation::{DeltaIndex, Instance, RelSym, Tuple, Value};
use std::ops::ControlFlow;

/// An indexed tuple source the executor can scan and probe.
pub trait QueryStore {
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

/// The relational index: built fresh per instance for one-shot plan
/// execution, or maintained by apply/undo (the `Rep_A` search probes it at
/// every leaf, the streaming exchange keeps one over its canonical
/// solution).
impl QueryStore for DeltaIndex {
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

/// Un-indexed fallback: scan-and-filter directly over an [`Instance`].
/// Used when the instance is too small for an index build to pay off.
impl QueryStore for Instance {
    fn selectivity(&self, rel: RelSym, _pattern: &[Option<Value>]) -> usize {
        self.relation(rel).map_or(0, |r| r.len())
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
    use crate::delta::DeltaStore;

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
        let idx = DeltaIndex::from_instance(&inst);
        let pattern = [Some(Value::c("a")), None];
        let rel = RelSym::new("QsE");
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
    /// returned, on every store.
    #[test]
    fn a_break_stops_the_scan() {
        let inst = sample();
        let rel = RelSym::new("QsE");
        let mut base = Instance::new();
        base.insert_names("QsE", &["a", "b"]);
        let delta = DeltaIndex::from_instance(&inst);
        // The pre-update view of a retraction: `QsE` reads the base index,
        // then the removed tuples.
        let base_idx = DeltaIndex::from_instance(&base);
        let mut removed = Instance::new();
        removed.insert_names("QsE", &["a", "c"]);
        removed.insert_names("QsE", &["b", "c"]);
        let none = Instance::new();
        let view = DeltaStore::new(&base_idx, &none, &removed).before();
        let stores: [&dyn QueryStore; 3] = [&inst, &delta, &view];
        for store in stores {
            let mut seen = 0;
            let flow = store.for_each_matching(rel, &[Some(Value::c("a")), None], &mut |_| {
                seen += 1;
                ControlFlow::Break(())
            });
            assert!(flow.is_break());
            assert_eq!(seen, 1);
        }
        // In the view: a break in the base part never reaches the removed
        // part, and a break in the removed part ends the scan there.
        for (first, pattern) in [("b", Some(Value::c("a"))), ("c", Some(Value::c("b")))] {
            let mut seen = Vec::new();
            let flow = view.for_each_matching(rel, &[pattern, None], &mut |t| {
                seen.push(t.clone());
                ControlFlow::Break(())
            });
            assert!(flow.is_break());
            assert_eq!(seen.len(), 1);
            assert_eq!(seen[0].get(1), Value::c(first));
        }
        let mut all = 0;
        let flow = view.for_each_matching(rel, &[None, None], &mut |_| {
            all += 1;
            ControlFlow::Continue(())
        });
        assert!(flow.is_continue());
        assert_eq!(all, 3, "base ∪ removed");
    }

    #[test]
    fn absent_relations_read_empty() {
        let inst = sample();
        let idx = DeltaIndex::from_instance(&inst);
        let rel = RelSym::new("QsMissing");
        assert_eq!(idx.rel_len(rel), 0);
        let mut n = 0;
        let _ = idx.for_each_matching(rel, &[None], &mut |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(n, 0);
    }
}
