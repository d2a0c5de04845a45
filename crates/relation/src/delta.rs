//! The relational index: per-column postings over refcounted tuples,
//! with O(delta) apply/undo.
//!
//! [`DeltaIndex`] is the one index relational probes run on: compiled
//! plans (`dx-query`), the `Rep_A` refutation search and the union walk
//! (`dx-solver`), and in `dx-engine` the canonical solution a streaming
//! exchange maintains and the chase's annotated store, which counts one
//! reference per annotated copy of a tuple. A fresh build over an
//! instance is the snapshot a one-shot plan execution probes; the same
//! store then takes apply/undo traffic when a consumer walks many
//! *slightly different* instances (the valuation search visits thousands
//! of candidates that differ by a handful of tuples):
//!
//! * tuples are **reference counted**, so the store keeps set semantics
//!   while callers apply and undo overlapping deltas in any (LIFO) order —
//!   two search branches valuing distinct nulls onto the same ground tuple
//!   simply bump the count;
//! * each relation keeps per-column hash postings of slot ids, so a
//!   pattern probe reads the tightest bound column and post-filters; on a
//!   fresh build slots and postings follow the instance's iteration order,
//!   so probes yield tuples in that order;
//! * each live tuple is held once, in its slot with its count: the
//!   tuple → slot map is keyed by the tuple's hash, and an insert moves
//!   the caller's tuple in. The store keeps no [`Instance`];
//!   [`DeltaIndex::to_instance`] materializes the live set for the few
//!   consumers that need one (witness capture, tree-walking fallbacks).
//!
//! Removal assumes the backtracking discipline of its consumers: deltas are
//! undone newest-first, so posting-list removals probe from the tail (an
//! O(1) hit on the LIFO path, linear only on out-of-order removals).
//!
//! Work metrics (`DX_OBS=1`): `relation.delta.applies` / `.undos` count
//! apply/undo deltas (a build applies one per tuple), `.refcount_churn`
//! the bumps that did not change visibility, `.postings_touched` the
//! per-column posting updates, and `.probes` the indexed pattern probes
//! and value footprints.

use crate::fxmap::{FastHasher, FastMap};
use crate::instance::Instance;
use crate::intern::RelSym;
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::ops::ControlFlow;

/// One relation's mutable index: refcounted tuples in insertion-ordered
/// slots plus per-column postings of slot ids.
struct DeltaRelation {
    arity: usize,
    /// Slot id → live tuple and its reference count (`None` = freed slot,
    /// reusable). The slot holds the relation's only copy of the tuple.
    slots: Vec<Option<(Tuple, u32)>>,
    /// Freed slot ids (reused newest-first).
    free: Vec<u32>,
    /// Tuple hash → the slot of a live tuple with that hash.
    by_hash: FastMap<u64, u32>,
    /// `(hash, slot)` of each live tuple whose hash `by_hash` already
    /// gives to another live tuple, told apart by content. Empty unless
    /// two live tuples collide on all 64 bits.
    clashes: Vec<(u64, u32)>,
    /// `by_col[c][v]` = slot ids of live tuples with value `v` at column
    /// `c`, in insertion order.
    by_col: Vec<FastMap<Value, Vec<u32>>>,
}

/// The hash a tuple is keyed by in [`DeltaRelation::by_hash`].
fn tuple_hash(t: &Tuple) -> u64 {
    BuildHasherDefault::<FastHasher>::default().hash_one(t)
}

impl DeltaRelation {
    fn new(arity: usize) -> Self {
        DeltaRelation {
            arity,
            slots: Vec::new(),
            free: Vec::new(),
            by_hash: FastMap::default(),
            clashes: Vec::new(),
            by_col: vec![FastMap::default(); arity],
        }
    }

    /// Number of live (distinct) tuples.
    fn len(&self) -> usize {
        self.by_hash.len() + self.clashes.len()
    }

    /// The live tuples with their reference counts, in slot order.
    fn live(&self) -> impl Iterator<Item = &(Tuple, u32)> + '_ {
        self.slots.iter().flatten()
    }

    /// The tuple in a live slot, with its reference count.
    fn slot(&self, slot: u32) -> &(Tuple, u32) {
        self.slots[slot as usize]
            .as_ref()
            .expect("indexed slots are live")
    }

    /// [`DeltaRelation::slot`], mutably.
    fn slot_mut(&mut self, slot: u32) -> &mut (Tuple, u32) {
        self.slots[slot as usize]
            .as_mut()
            .expect("indexed slots are live")
    }

    /// The slot of the live tuple `t`, whose hash is `h`.
    fn find(&self, h: u64, t: &Tuple) -> Option<u32> {
        let &first = self.by_hash.get(&h)?;
        if self.slot(first).0 == *t {
            return Some(first);
        }
        (self.clashes.iter())
            .find(|&&(ch, slot)| ch == h && self.slot(slot).0 == *t)
            .map(|&(_, slot)| slot)
    }

    /// The reference count of `t` (0 when it is not live).
    fn count(&self, t: &Tuple) -> u32 {
        self.find(tuple_hash(t), t)
            .map_or(0, |slot| self.slot(slot).1)
    }

    /// Bump or insert; returns `true` when the tuple became visible
    /// (count 0 → 1).
    fn insert(&mut self, t: Tuple) -> bool {
        self.insert_hashed(tuple_hash(&t), t)
    }

    /// [`DeltaRelation::insert`] of `t`, whose hash is `h`.
    fn insert_hashed(&mut self, h: u64, t: Tuple) -> bool {
        assert_eq!(t.arity(), self.arity, "arity mismatch");
        if let Some(slot) = self.find(h, &t) {
            self.slot_mut(slot).1 += 1;
            return false;
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        for (c, v) in t.iter().enumerate() {
            self.by_col[c].entry(v).or_default().push(slot);
        }
        self.slots[slot as usize] = Some((t, 1));
        match self.by_hash.entry(h) {
            Entry::Vacant(e) => {
                e.insert(slot);
            }
            Entry::Occupied(_) => self.clashes.push((h, slot)),
        }
        true
    }

    /// Unbump or remove; returns `true` when the tuple became invisible
    /// (count 1 → 0). Panics if the tuple is not live (an unmatched undo is
    /// a caller bug, not a runtime condition).
    fn remove(&mut self, t: &Tuple) -> bool {
        self.remove_hashed(tuple_hash(t), t)
    }

    /// [`DeltaRelation::remove`] of `t`, whose hash is `h`.
    fn remove_hashed(&mut self, h: u64, t: &Tuple) -> bool {
        let slot = (self.find(h, t)).expect("DeltaRelation::remove of a tuple that is not live");
        let count = &mut self.slot_mut(slot).1;
        if *count > 1 {
            *count -= 1;
            return false;
        }
        for (c, v) in t.iter().enumerate() {
            let posting = self.by_col[c]
                .get_mut(&v)
                .expect("posting list exists for a live tuple");
            // LIFO discipline: the undone tuple is almost always the newest
            // entry of its posting lists.
            let pos = posting
                .iter()
                .rposition(|&s| s == slot)
                .expect("slot posted for a live tuple");
            posting.remove(pos);
            if posting.is_empty() {
                self.by_col[c].remove(&v);
            }
        }
        if self.by_hash[&h] == slot {
            // A clash of the same hash, if any, takes over the key.
            match self.clashes.iter().position(|&(ch, _)| ch == h) {
                Some(i) => {
                    let (_, next) = self.clashes.swap_remove(i);
                    self.by_hash.insert(h, next);
                }
                None => {
                    self.by_hash.remove(&h);
                }
            }
        } else {
            self.clashes.retain(|&(_, s)| s != slot);
        }
        self.slots[slot as usize] = None;
        self.free.push(slot);
        true
    }

    /// Posting list of `(col, value)` (empty when absent).
    fn probe(&self, col: usize, value: Value) -> &[u32] {
        self.by_col[col]
            .get(&value)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The tightest bound column's posting length, or the live count when
    /// nothing is bound.
    fn selectivity(&self, pattern: &[Option<Value>]) -> usize {
        debug_assert_eq!(pattern.len(), self.arity);
        pattern
            .iter()
            .enumerate()
            .filter_map(|(c, p)| p.map(|v| self.probe(c, v).len()))
            .min()
            .unwrap_or_else(|| self.len())
    }

    fn for_each_matching(
        &self,
        pattern: &[Option<Value>],
        f: &mut dyn FnMut(&Tuple) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        debug_assert_eq!(pattern.len(), self.arity);
        let matches = |t: &Tuple| {
            pattern
                .iter()
                .enumerate()
                .all(|(c, p)| p.is_none_or(|pv| t.get(c) == pv))
        };
        let best = pattern
            .iter()
            .enumerate()
            .filter_map(|(c, p)| p.map(|v| (self.probe(c, v).len(), c, v)))
            .min();
        match best {
            None => {
                for (t, _) in self.live() {
                    f(t)?;
                }
            }
            Some((_, col, v)) => {
                for &slot in self.probe(col, v) {
                    let t = &self.slot(slot).0;
                    if matches(t) {
                        f(t)?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// A [`DeltaIndex`] footprint reading (see [`DeltaIndex::mem_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaMemStats {
    /// Live (distinct) tuples across all relations.
    pub live_slots: u64,
    /// Slot-table entries across all relations, live or freed for reuse
    /// (≥ `live_slots`; freed slots are reused before the table grows).
    pub slots: u64,
    /// Posting-list entries across all per-column maps (= live tuples ×
    /// arity, summed per relation).
    pub posting_entries: u64,
    /// Sum of tuple reference counts (≥ `live_slots`; the excess is
    /// overlap between un-undone deltas).
    pub refcount_total: u64,
}

/// A mutable, incrementally indexed instance (see the module docs).
#[derive(Default)]
pub struct DeltaIndex {
    rels: BTreeMap<RelSym, DeltaRelation>,
}

impl DeltaIndex {
    /// The empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index every relation of `inst` (each tuple at count 1).
    pub fn from_instance(inst: &Instance) -> Self {
        Self::from_relations(inst.relations())
    }

    /// Index the given relations (each tuple at count 1, relations
    /// declared even when empty). Plans index only the relations they
    /// scan this way.
    pub fn from_relations<'a>(rels: impl IntoIterator<Item = (RelSym, &'a Relation)>) -> Self {
        let mut d = DeltaIndex::new();
        for (rel, r) in rels {
            d.declare(rel, r.arity());
            for t in r.iter() {
                d.insert(rel, t.clone());
            }
        }
        d
    }

    /// Declare a relation (so its arity is known even while it is empty) —
    /// the counterpart of [`Instance::declare`].
    pub fn declare(&mut self, rel: RelSym, arity: usize) {
        self.rels
            .entry(rel)
            .or_insert_with(|| DeltaRelation::new(arity));
    }

    /// Apply a `+tuple` delta: bump the reference count, making the tuple
    /// visible on count 0 → 1 (the return value).
    pub fn insert(&mut self, rel: RelSym, t: Tuple) -> bool {
        dx_obs::count!("relation.delta.applies");
        let arity = t.arity();
        let entry = self
            .rels
            .entry(rel)
            .or_insert_with(|| DeltaRelation::new(arity));
        if entry.insert(t) {
            dx_obs::count!("relation.delta.postings_touched", arity);
            true
        } else {
            dx_obs::count!("relation.delta.refcount_churn");
            false
        }
    }

    /// Undo a `+tuple` delta: unbump, removing the tuple from view on
    /// count 1 → 0 (the return value). Panics when the tuple is not live.
    pub fn remove(&mut self, rel: RelSym, t: &Tuple) -> bool {
        dx_obs::count!("relation.delta.undos");
        let entry = self
            .rels
            .get_mut(&rel)
            .expect("DeltaIndex::remove from an undeclared relation");
        if entry.remove(t) {
            dx_obs::count!("relation.delta.postings_touched", t.arity());
            true
        } else {
            dx_obs::count!("relation.delta.refcount_churn");
            false
        }
    }

    /// Is `t` currently visible in `rel`?
    pub fn contains(&self, rel: RelSym, t: &Tuple) -> bool {
        self.count(rel, t) > 0
    }

    /// The reference count of `t` in `rel`: how many inserts it outlives
    /// (0 when it is not visible).
    pub fn count(&self, rel: RelSym, t: &Tuple) -> usize {
        self.rels.get(&rel).map_or(0, |r| r.count(t) as usize)
    }

    /// Materialize the live set: exactly the visible tuples, with every
    /// declared relation kept even when empty (as
    /// [`AnnInstance::rel_part`](crate::AnnInstance::rel_part) keeps them).
    /// O(live tuples) per call — the store itself never holds an
    /// [`Instance`].
    pub fn to_instance(&self) -> Instance {
        let mut out = Instance::new();
        for (&rel, r) in &self.rels {
            out.declare(rel, r.arity);
            for (t, _) in r.live() {
                out.insert(rel, t.clone());
            }
        }
        out
    }

    /// Number of live tuples in `rel` (0 when absent).
    pub fn rel_len(&self, rel: RelSym) -> usize {
        self.rels.get(&rel).map_or(0, |r| r.len())
    }

    /// Upper bound on the number of live tuples of `rel` matching
    /// `pattern` (`Some(v)` = position bound to `v`): the posting-list
    /// length of the tightest bound column, or the relation size when
    /// nothing is bound. This is the estimate join planners order atoms by.
    pub fn selectivity(&self, rel: RelSym, pattern: &[Option<Value>]) -> usize {
        self.rels.get(&rel).map_or(0, |r| r.selectivity(pattern))
    }

    /// Current footprint of the index, for memory-accounting gauges
    /// (`mem.delta.*` — see `dx_obs::mem`): live (distinct) tuples and
    /// slot-table entries across all relations, posting-list entries
    /// across all per-column maps, and the sum of reference counts. All
    /// four are O(slots + posting lists) reads of maintained state — no
    /// tuple is hashed or compared.
    pub fn mem_stats(&self) -> DeltaMemStats {
        let mut stats = DeltaMemStats::default();
        for r in self.rels.values() {
            stats.live_slots += r.len() as u64;
            stats.slots += r.slots.len() as u64;
            stats.posting_entries += r
                .by_col
                .iter()
                .flat_map(|col| col.values())
                .map(|posting| posting.len() as u64)
                .sum::<u64>();
            stats.refcount_total += r.live().map(|&(_, count)| count as u64).sum::<u64>();
        }
        stats
    }

    /// Invoke `f` on every live tuple of `rel` matching `pattern` on all
    /// bound positions, stopping as soon as `f` breaks (the break is
    /// returned). Probes the most selective bound column and post-filters
    /// the rest; a pattern with no bound position visits every live tuple.
    pub fn for_each_matching(
        &self,
        rel: RelSym,
        pattern: &[Option<Value>],
        f: &mut dyn FnMut(&Tuple) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        dx_obs::count!("relation.delta.probes");
        match self.rels.get(&rel) {
            Some(r) => r.for_each_matching(pattern, f),
            None => ControlFlow::Continue(()),
        }
    }

    /// Invoke `f` on every live tuple, in any relation, that mentions
    /// `value`, once per tuple: the postings of `value` in every column of
    /// every relation (the footprint of a substitution `value → v`).
    pub fn for_each_with_value(&self, value: Value, f: &mut dyn FnMut(RelSym, &Tuple)) {
        dx_obs::count!("relation.delta.probes");
        for (&rel, r) in &self.rels {
            for c in 0..r.arity {
                for &slot in r.probe(c, value) {
                    let t = &r.slot(slot).0;
                    // A tuple mentioning `value` twice is reported at its
                    // first column.
                    if !t.values()[..c].contains(&value) {
                        f(rel, t);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> RelSym {
        RelSym::new("DlR")
    }

    fn sample() -> Instance {
        let mut i = Instance::new();
        i.insert_names("DlR", &["a", "x"]);
        i.insert_names("DlR", &["a", "y"]);
        i.insert(rel(), Tuple::new(vec![Value::c("b"), Value::null(3)]));
        i
    }

    /// Every tuple of `rel` in `inst` matching `pattern`, in the
    /// instance's iteration order — the plain filter a fresh build must
    /// reproduce.
    fn filtered(inst: &Instance, rel: RelSym, pattern: &[Option<Value>]) -> Vec<Tuple> {
        inst.tuples(rel)
            .filter(|t| {
                pattern
                    .iter()
                    .enumerate()
                    .all(|(c, p)| p.is_none_or(|pv| t.get(c) == pv))
            })
            .cloned()
            .collect()
    }

    /// The matches of `pattern` as the store yields them, in order.
    fn probed(delta: &DeltaIndex, rel: RelSym, pattern: &[Option<Value>]) -> Vec<Tuple> {
        let mut out = Vec::new();
        let _ = delta.for_each_matching(rel, pattern, &mut |t| {
            out.push(t.clone());
            ControlFlow::Continue(())
        });
        out
    }

    /// The delta store built from an instance answers probes exactly like a
    /// plain filter of the instance's tuples, and its selectivity is the
    /// tightest bound column's match count.
    #[test]
    fn matches_snapshot_index_after_build() {
        let inst = sample();
        let delta = DeltaIndex::from_instance(&inst);
        assert_eq!(delta.to_instance(), inst);
        for pattern in [
            vec![Some(Value::c("a")), None],
            vec![None, Some(Value::c("x"))],
            vec![None, Some(Value::null(3))],
            vec![None, None],
            vec![Some(Value::c("zzz")), None],
        ] {
            let tightest = pattern
                .iter()
                .enumerate()
                .filter_map(|(c, p)| {
                    p.map(|v| {
                        let mut single = vec![None; pattern.len()];
                        single[c] = Some(v);
                        filtered(&inst, rel(), &single).len()
                    })
                })
                .min()
                .unwrap_or_else(|| inst.tuples(rel()).count());
            assert_eq!(delta.selectivity(rel(), &pattern), tightest);
            let mut via_delta = probed(&delta, rel(), &pattern);
            let mut via_filter = filtered(&inst, rel(), &pattern);
            via_delta.sort();
            via_filter.sort();
            assert_eq!(via_delta, via_filter, "pattern {pattern:?}");
        }
    }

    /// A fresh build yields matches in the instance's iteration order,
    /// unbound and bound alike, and two builds of one instance agree
    /// tuple for tuple — the order the `Rep_A` candidate lists and the
    /// search witnesses inherit.
    #[test]
    fn ids_are_stable_and_deterministic() {
        let inst = sample();
        let a = DeltaIndex::from_instance(&inst);
        let b = DeltaIndex::from_instance(&inst);
        for pattern in [
            vec![None, None],
            vec![Some(Value::c("a")), None],
            vec![Some(Value::c("b")), None],
            vec![None, Some(Value::null(3))],
        ] {
            let in_order = filtered(&inst, rel(), &pattern);
            assert_eq!(probed(&a, rel(), &pattern), in_order, "{pattern:?}");
            assert_eq!(probed(&b, rel(), &pattern), in_order, "{pattern:?}");
        }
    }

    /// Insert/remove round-trips restore the exact previous state, at any
    /// nesting depth (the backtracking protocol).
    #[test]
    fn lifo_apply_undo_restores_state() {
        let inst = sample();
        let mut delta = DeltaIndex::from_instance(&inst);
        let t1 = Tuple::from_names(&["c", "z"]);
        let t2 = Tuple::from_names(&["c", "w"]);
        assert!(delta.insert(rel(), t1.clone()));
        assert!(delta.insert(rel(), t2.clone()));
        assert_eq!(delta.rel_len(rel()), 5);
        assert_eq!(delta.selectivity(rel(), &[Some(Value::c("c")), None]), 2);
        assert!(delta.remove(rel(), &t2));
        assert!(delta.remove(rel(), &t1));
        assert_eq!(delta.to_instance(), inst);
        assert_eq!(delta.selectivity(rel(), &[Some(Value::c("c")), None]), 0);
    }

    /// Reference counting: overlapping deltas keep set semantics.
    #[test]
    fn refcounts_keep_set_semantics() {
        let mut delta = DeltaIndex::new();
        delta.declare(rel(), 2);
        let t = Tuple::from_names(&["a", "b"]);
        assert!(delta.insert(rel(), t.clone()));
        assert!(!delta.insert(rel(), t.clone()), "second insert only bumps");
        assert_eq!(delta.rel_len(rel()), 1);
        assert_eq!(delta.to_instance().tuple_count(), 1);
        assert!(!delta.remove(rel(), &t), "first remove only unbumps");
        assert!(delta.contains(rel(), &t));
        assert!(delta.remove(rel(), &t));
        assert!(!delta.contains(rel(), &t));
        assert!(delta.to_instance().is_empty());
        // The relation stays declared (mirrors `rel_part` semantics).
        assert_eq!(
            delta.to_instance().relation(rel()).map(|r| r.arity()),
            Some(2)
        );
    }

    /// Internal-invariant checker for the fuzz test: the slot table, the
    /// hash-keyed tuple → slot map, the per-column postings and the
    /// materialized instance must all describe the same set of live
    /// tuples, with the reference counts `expected` predicts.
    fn assert_consistent(delta: &DeltaIndex, expected: &BTreeMap<(RelSym, Tuple), u32>) {
        for (rel, dr) in &delta.rels {
            let live: Vec<(u32, &Tuple, u32)> = dr
                .slots
                .iter()
                .enumerate()
                .filter_map(|(s, e)| e.as_ref().map(|(t, n)| (s as u32, t, *n)))
                .collect();
            assert_eq!(live.len(), dr.len(), "live slots == hash-keyed entries");
            for &(slot, tuple, count) in &live {
                let found = dr.find(tuple_hash(tuple), tuple);
                assert_eq!(found, Some(slot), "the hash key finds the owning slot");
                assert_eq!(
                    Some(&count),
                    expected.get(&(*rel, tuple.clone())),
                    "refcount of {tuple} in {rel}"
                );
            }
            let keyed = (dr.by_hash.iter()).chain(dr.clashes.iter().map(|(h, s)| (h, s)));
            for (&h, &slot) in keyed {
                assert_eq!(tuple_hash(&dr.slot(slot).0), h, "keyed by the tuple's hash");
            }
            for &f in &dr.free {
                assert!(dr.slots[f as usize].is_none(), "free slots are vacated");
            }
            assert_eq!(
                dr.free.len() + live.len(),
                dr.slots.len(),
                "every slot is live or free"
            );
            // Postings: exactly one entry per (live tuple, column), on a
            // live slot whose tuple carries the value at that column.
            let mut posted = 0usize;
            for (c, col) in dr.by_col.iter().enumerate() {
                for (v, slots) in col.iter() {
                    assert!(!slots.is_empty(), "empty posting lists are pruned");
                    for &s in slots {
                        let t = &dr.slot(s).0;
                        assert_eq!(t.get(c), *v, "posting value matches the tuple");
                        posted += 1;
                    }
                }
            }
            assert_eq!(posted, live.len() * dr.arity, "one posting per live cell");
            // The materialized instance is exactly the live set.
            let materialized = delta.to_instance();
            let view: Vec<&Tuple> = materialized.tuples(*rel).collect();
            assert_eq!(view.len(), live.len());
            for t in view {
                assert!(dr.count(t) > 0, "view tuple is live");
            }
        }
    }

    /// Probe equality against a freshly built store over the same instance:
    /// `for_each_matching` results and selectivities agree on a pattern
    /// battery derived from the instance's values.
    fn assert_probes_match_fresh(delta: &DeltaIndex) {
        let materialized = delta.to_instance();
        let fresh = DeltaIndex::from_instance(&materialized);
        for (rel, r) in materialized.relations() {
            let mut values: Vec<Value> = r.active_domain().into_iter().collect();
            values.push(Value::c("fz-missing"));
            let mut patterns: Vec<Vec<Option<Value>>> = vec![vec![None; r.arity()]];
            for c in 0..r.arity() {
                for &v in &values {
                    let mut p = vec![None; r.arity()];
                    p[c] = Some(v);
                    patterns.push(p);
                }
            }
            for p in patterns {
                assert_eq!(delta.selectivity(rel, &p), fresh.selectivity(rel, &p));
                let mut a = Vec::new();
                let _ = delta.for_each_matching(rel, &p, &mut |t| {
                    a.push(t.clone());
                    ControlFlow::Continue(())
                });
                let mut b = Vec::new();
                let _ = fresh.for_each_matching(rel, &p, &mut |t| {
                    b.push(t.clone());
                    ControlFlow::Continue(())
                });
                a.sort();
                b.sort();
                assert_eq!(a, b, "pattern {p:?} on {rel}");
            }
        }
    }

    /// Fuzz: random interleavings of apply (insert), undo and out-of-order
    /// remove, with the journal replayed backwards at the end — the store
    /// must return to the exact pre-state (instance view, slot/refcount/
    /// posting invariants, probe results vs a fresh build), and stay
    /// internally consistent at every intermediate step.
    #[test]
    fn randomized_apply_undo_remove_fuzz() {
        let rel_a = RelSym::new("FzA");
        let rel_b = RelSym::new("FzB");
        let mut seed = 0xF77Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..60 {
            // Value pool: constants and nulls (nulls are atomic values to
            // the store).
            let mk_value = |r: u64| -> Value {
                if r.is_multiple_of(4) {
                    Value::null((r / 4 % 3) as u32)
                } else {
                    Value::c(&format!("fc{}", r / 4 % 4))
                }
            };
            let random_tuple = |rel: RelSym, next: &mut dyn FnMut() -> u64| -> Tuple {
                let arity = if rel == rel_a { 2 } else { 1 };
                Tuple::new((0..arity).map(|_| mk_value(next())).collect::<Vec<_>>())
            };
            // Random initial instance.
            let mut initial = Instance::new();
            initial.declare(rel_a, 2);
            initial.declare(rel_b, 1);
            for _ in 0..next() % 6 {
                let t = random_tuple(rel_a, &mut next);
                initial.insert(rel_a, t);
            }
            for _ in 0..next() % 4 {
                let t = random_tuple(rel_b, &mut next);
                initial.insert(rel_b, t);
            }
            let mut delta = DeltaIndex::from_instance(&initial);
            let mut expected: BTreeMap<(RelSym, Tuple), u32> = initial
                .relations()
                .flat_map(|(rel, r)| r.iter().map(move |t| ((rel, t.clone()), 1)))
                .collect();
            // Random op interleaving, journaled.
            let mut journal: Vec<(bool, RelSym, Tuple)> = Vec::new();
            for step in 0..(next() % 40) {
                let rel = if next() % 2 == 0 { rel_a } else { rel_b };
                let live: Vec<Tuple> = expected
                    .iter()
                    .filter(|((r, _), &c)| *r == rel && c > 0)
                    .map(|((_, t), _)| t.clone())
                    .collect();
                if next() % 10 < 6 || live.is_empty() {
                    // Apply: a fresh random tuple or a re-insert of a live
                    // one (refcount bump).
                    let t = if !live.is_empty() && next() % 3 == 0 {
                        live[(next() % live.len() as u64) as usize].clone()
                    } else {
                        random_tuple(rel, &mut next)
                    };
                    let count = expected.entry((rel, t.clone())).or_insert(0);
                    let became_visible = delta.insert(rel, t.clone());
                    assert_eq!(became_visible, *count == 0, "visibility on 0 → 1");
                    *count += 1;
                    journal.push((true, rel, t));
                } else {
                    // Remove (often out of journal order).
                    let t = live[(next() % live.len() as u64) as usize].clone();
                    let count = expected.get_mut(&(rel, t.clone())).expect("live");
                    let became_invisible = delta.remove(rel, &t);
                    assert_eq!(became_invisible, *count == 1, "invisibility on 1 → 0");
                    *count -= 1;
                    if *count == 0 {
                        expected.remove(&(rel, t.clone()));
                    }
                    journal.push((false, rel, t));
                }
                if step % 7 == 0 {
                    assert_consistent(&delta, &expected);
                    assert_probes_match_fresh(&delta);
                }
            }
            assert_consistent(&delta, &expected);
            // Unwind the journal backwards: every apply undone, every
            // remove re-applied — the exact pre-state must come back.
            for (was_insert, rel, t) in journal.into_iter().rev() {
                if was_insert {
                    delta.remove(rel, &t);
                } else {
                    delta.insert(rel, t);
                }
            }
            assert_eq!(
                delta.to_instance(),
                initial,
                "case {case}: unwound view equals the pre-state"
            );
            let pristine: BTreeMap<(RelSym, Tuple), u32> = initial
                .relations()
                .flat_map(|(rel, r)| r.iter().map(move |t| ((rel, t.clone()), 1)))
                .collect();
            assert_consistent(&delta, &pristine);
            assert_probes_match_fresh(&delta);
        }
    }

    /// `mem_stats` tracks live slots, postings and refcounts through
    /// overlapping apply/undo; a freed slot stays in the table until an
    /// insert reuses it.
    #[test]
    fn mem_stats_track_footprint() {
        let mut delta = DeltaIndex::from_instance(&sample());
        // 3 live binary tuples: 3 slots, 6 postings, 3 refs.
        assert_eq!(
            delta.mem_stats(),
            DeltaMemStats {
                live_slots: 3,
                slots: 3,
                posting_entries: 6,
                refcount_total: 3,
            }
        );
        // A refcount bump adds no slot/posting, only a ref.
        let t = Tuple::from_names(&["a", "x"]);
        assert!(!delta.insert(rel(), t.clone()));
        assert_eq!(
            delta.mem_stats(),
            DeltaMemStats {
                live_slots: 3,
                slots: 3,
                posting_entries: 6,
                refcount_total: 4,
            }
        );
        assert!(!delta.remove(rel(), &t));
        assert!(delta.remove(rel(), &t));
        assert_eq!(
            delta.mem_stats(),
            DeltaMemStats {
                live_slots: 2,
                slots: 3,
                posting_entries: 4,
                refcount_total: 2,
            }
        );
        assert!(delta.insert(rel(), Tuple::from_names(&["n", "w"])));
        assert_eq!(delta.mem_stats().slots, 3, "the freed slot is reused");
    }

    /// Out-of-order removal still works (linear posting scan).
    #[test]
    fn non_lifo_removal_is_correct() {
        let mut delta = DeltaIndex::new();
        delta.declare(rel(), 1);
        let ts: Vec<Tuple> = ["p", "q", "r"]
            .iter()
            .map(|n| Tuple::from_names(&[n]))
            .collect();
        for t in &ts {
            delta.insert(rel(), t.clone());
        }
        delta.remove(rel(), &ts[0]);
        let mut seen = Vec::new();
        let _ = delta.for_each_matching(rel(), &[None], &mut |t| {
            seen.push(t.clone());
            ControlFlow::Continue(())
        });
        seen.sort();
        assert_eq!(seen, vec![ts[1].clone(), ts[2].clone()]);
        // Freed slot is reused.
        delta.insert(rel(), Tuple::from_names(&["s"]));
        assert_eq!(delta.rel_len(rel()), 3);
    }

    /// Two live tuples on one hash: the second waits in the clash list,
    /// each is found and bumped by content, and whichever leaves first,
    /// the other keeps or takes over the hash key.
    #[test]
    fn tuples_sharing_a_hash_stay_apart() {
        let (a, b) = (Tuple::from_names(&["ha"]), Tuple::from_names(&["hb"]));
        let h = 7;
        for (gone, kept) in [(&a, &b), (&b, &a)] {
            let mut r = DeltaRelation::new(1);
            assert!(r.insert_hashed(h, a.clone()));
            assert!(r.insert_hashed(h, b.clone()));
            assert!(
                !r.insert_hashed(h, gone.clone()),
                "a bump, found by content"
            );
            assert_eq!((r.len(), r.clashes.len()), (2, 1));
            assert_eq!((r.find(h, &a), r.find(h, &b)), (Some(0), Some(1)));
            assert_eq!(r.slot(r.find(h, gone).unwrap()).1, 2);
            assert_eq!(r.slot(r.find(h, kept).unwrap()).1, 1);
            assert!(!r.remove_hashed(h, gone), "first remove only unbumps");
            assert!(r.remove_hashed(h, gone));
            assert_eq!(r.find(h, gone), None);
            let slot = r.find(h, kept).expect("the other tuple stays live");
            assert_eq!(r.by_hash.get(&h), Some(&slot), "it holds the hash key");
            assert!(r.clashes.is_empty());
            assert_eq!(r.probe(0, kept.get(0)), &[slot][..]);
            assert!(r.probe(0, gone.get(0)).is_empty());
            assert!(r.remove_hashed(h, kept));
            assert_eq!((r.len(), r.by_hash.len()), (0, 0));
        }
    }

    /// A value's footprint: every live tuple mentioning it, across
    /// relations, once even where it holds the value twice.
    #[test]
    fn value_footprint_reports_each_tuple_once() {
        let mut delta = DeltaIndex::from_instance(&sample());
        let s = RelSym::new("DlS");
        delta.insert(rel(), Tuple::from_names(&["x", "x"]));
        delta.insert(s, Tuple::from_names(&["x"]));
        delta.insert(s, Tuple::from_names(&["q"]));
        let mut seen = Vec::new();
        delta.for_each_with_value(Value::c("x"), &mut |r, t| seen.push((r, t.clone())));
        seen.sort();
        let mut expected = vec![
            (rel(), Tuple::from_names(&["a", "x"])),
            (rel(), Tuple::from_names(&["x", "x"])),
            (s, Tuple::from_names(&["x"])),
        ];
        expected.sort();
        assert_eq!(seen, expected);
    }
}
