//! The mutable indexed store behind the delta-driven chase.
//!
//! [`IndexedInstance`] holds an annotated instance as a slot table of
//! annotated tuples with **stable ids**, plus three incrementally maintained
//! indexes:
//!
//! * a dedup map `(relation, annotated tuple) → id` — set semantics;
//! * per-relation, per-column hash indexes `(column, value) → ids` — the
//!   probe structure behind index joins;
//! * a reverse index `value → ids` — the structure that makes egd merges
//!   (`⊥ → v` substitutions) proportional to the number of *affected*
//!   tuples instead of the instance size.
//!
//! Retraction clears a slot but never reuses its id, so ids handed to the
//! chase work-queue stay valid-or-dead, never dangling onto a different
//! tuple. [`IndexedInstance::check_invariants`] rebuilds every index from
//! the slot table and compares — the property tests in
//! `tests/engine_differential.rs` run it after random insert/merge
//! workloads.

use dx_relation::{AnnInstance, AnnTuple, Annotation, FastMap, RelSym, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A stable identifier of a tuple in an [`IndexedInstance`]: its slot in
/// insertion order. Ids are never reused, so the chase work queue and the
/// incremental derivation log can hold them across retractions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TupleId(pub u32);

impl TupleId {
    /// The id as a usize (for slot vectors).
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// What an insert did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inserted {
    /// The tuple was new; this is its fresh id.
    Fresh(TupleId),
    /// An identical annotated tuple was already live under this id.
    Duplicate(TupleId),
}

impl Inserted {
    /// The id, fresh or pre-existing.
    pub fn id(self) -> TupleId {
        match self {
            Inserted::Fresh(id) | Inserted::Duplicate(id) => id,
        }
    }
}

/// One rewrite performed by [`IndexedInstance::replace_value`].
#[derive(Clone, Debug)]
pub struct Rewrite {
    /// The id retracted (its tuple contained the replaced value).
    pub old: TupleId,
    /// Where the rewritten tuple ended up.
    pub new: Inserted,
}

/// A sorted posting list of tuple ids.
///
/// Fresh ids are allocated in strictly increasing order, so insertion is an
/// amortized-O(1) push (with a binary-search fallback for safety); removal
/// is a binary search plus shift. Posting lists are short and hot — a flat
/// `Vec` beats a `BTreeSet` on both allocation churn and probe locality.
#[derive(Default, Clone, Debug)]
struct SortedIds(Vec<TupleId>);

impl SortedIds {
    fn insert(&mut self, id: TupleId) {
        match self.0.last() {
            Some(&last) if last < id => self.0.push(id),
            None => self.0.push(id),
            _ => {
                if let Err(pos) = self.0.binary_search(&id) {
                    self.0.insert(pos, id);
                }
            }
        }
    }

    fn remove(&mut self, id: TupleId) {
        if let Ok(pos) = self.0.binary_search(&id) {
            self.0.remove(pos);
        }
    }

    fn contains(&self, id: TupleId) -> bool {
        self.0.binary_search(&id).is_ok()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn iter(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.0.iter().copied()
    }
}

/// Per-relation bookkeeping.
struct RelStore {
    arity: usize,
    /// Live ids of this relation, in id order.
    ids: SortedIds,
    /// `by_col[c][v]` = live ids with value `v` at column `c`.
    by_col: Vec<FastMap<Value, SortedIds>>,
    /// Empty annotated markers `(_, α)` (never touched by the chase).
    empty_marks: BTreeSet<Annotation>,
}

impl RelStore {
    fn new(arity: usize) -> Self {
        RelStore {
            arity,
            ids: SortedIds::default(),
            by_col: vec![FastMap::default(); arity],
            empty_marks: BTreeSet::new(),
        }
    }
}

/// A mutable annotated instance with stable tuple ids and incrementally
/// maintained hash indexes.
#[derive(Default)]
pub struct IndexedInstance {
    /// Slot table: id → live annotated tuple (None once retracted).
    slots: Vec<Option<(RelSym, AnnTuple)>>,
    /// Dedup: per relation, live annotated tuple → id (nested so lookups
    /// borrow the probe tuple instead of building an owned key).
    live: FastMap<RelSym, FastMap<AnnTuple, TupleId>>,
    /// Number of live tuples across relations.
    live_len: usize,
    rels: BTreeMap<RelSym, RelStore>,
    /// Reverse index: value → live ids whose tuple mentions it.
    by_value: FastMap<Value, SortedIds>,
}

impl IndexedInstance {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load an annotated instance (ids follow its deterministic iteration
    /// order).
    pub fn from_ann(inst: &AnnInstance) -> Self {
        let mut out = IndexedInstance::new();
        for (r, rel) in inst.relations() {
            out.rels
                .entry(r)
                .or_insert_with(|| RelStore::new(rel.arity()));
            for at in rel.iter() {
                out.insert(r, at.clone());
            }
            for m in rel.empty_marks() {
                out.insert_empty_mark(r, m.clone());
            }
        }
        out
    }

    /// Export back to an [`AnnInstance`].
    pub fn to_ann(&self) -> AnnInstance {
        let mut out = AnnInstance::new();
        for (&r, store) in &self.rels {
            for id in store.ids.iter() {
                let (_, at) = self.slots[id.idx()].as_ref().expect("live id");
                out.insert(r, at.clone());
            }
            for m in &store.empty_marks {
                out.insert_empty_mark(r, m.clone());
            }
        }
        out
    }

    /// Number of live tuples.
    pub fn live_count(&self) -> usize {
        self.live_len
    }

    /// Total slots ever allocated (live + dead).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The live tuple behind `id`, if it has not been retracted.
    pub fn get(&self, id: TupleId) -> Option<(RelSym, &AnnTuple)> {
        self.slots
            .get(id.idx())
            .and_then(|s| s.as_ref())
            .map(|(r, at)| (*r, at))
    }

    /// All live ids, in id order.
    pub fn all_ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| TupleId(i as u32))
    }

    /// Record an empty annotated marker.
    pub fn insert_empty_mark(&mut self, rel: RelSym, ann: Annotation) {
        self.rels
            .entry(rel)
            .or_insert_with(|| RelStore::new(ann.arity()))
            .empty_marks
            .insert(ann);
    }

    /// Drop an empty annotated marker (a no-op when it is absent).
    pub fn remove_empty_mark(&mut self, rel: RelSym, ann: &Annotation) {
        if let Some(store) = self.rels.get_mut(&rel) {
            store.empty_marks.remove(ann);
        }
    }

    /// Insert an annotated tuple; set semantics with a stable fresh id on
    /// first insertion.
    pub fn insert(&mut self, rel: RelSym, at: AnnTuple) -> Inserted {
        if let Some(&id) = self.live.get(&rel).and_then(|m| m.get(&at)) {
            return Inserted::Duplicate(id);
        }
        let id = TupleId(self.slots.len() as u32);
        let store = self
            .rels
            .entry(rel)
            .or_insert_with(|| RelStore::new(at.tuple.arity()));
        assert_eq!(store.arity, at.tuple.arity(), "arity mismatch in {rel}");
        store.ids.insert(id);
        for (c, v) in at.tuple.iter().enumerate() {
            store.by_col[c].entry(v).or_default().insert(id);
            self.by_value.entry(v).or_default().insert(id);
        }
        self.live.entry(rel).or_default().insert(at.clone(), id);
        self.live_len += 1;
        self.slots.push(Some((rel, at)));
        Inserted::Fresh(id)
    }

    /// Retract a live tuple, clearing its slot and all index entries.
    /// Returns the retracted tuple, or `None` if the id was already dead.
    pub fn retract(&mut self, id: TupleId) -> Option<(RelSym, AnnTuple)> {
        let (rel, at) = self.slots.get_mut(id.idx())?.take()?;
        self.live
            .get_mut(&rel)
            .and_then(|m| m.remove(&at))
            .expect("live tuple is in the dedup map");
        self.live_len -= 1;
        let store = self.rels.get_mut(&rel).expect("relation of live tuple");
        store.ids.remove(id);
        for (c, v) in at.tuple.iter().enumerate() {
            if let Some(set) = store.by_col[c].get_mut(&v) {
                set.remove(id);
                if set.is_empty() {
                    store.by_col[c].remove(&v);
                }
            }
            if let Some(set) = self.by_value.get_mut(&v) {
                set.remove(id);
                if set.is_empty() {
                    self.by_value.remove(&v);
                }
            }
        }
        Some((rel, at))
    }

    /// Point probe: live ids of `rel` with `value` at `col`.
    pub fn probe(
        &self,
        rel: RelSym,
        col: usize,
        value: Value,
    ) -> impl Iterator<Item = TupleId> + '_ {
        self.rels
            .get(&rel)
            .and_then(|s| s.by_col.get(col))
            .and_then(|m| m.get(&value))
            .into_iter()
            .flat_map(|set| set.iter())
    }

    /// Selectivity estimate for `pattern` over `rel` (the estimate of
    /// [`dx_relation::DeltaIndex::selectivity`]): posting-list length of
    /// the tightest bound column, or relation cardinality when unbound.
    pub fn selectivity(&self, rel: RelSym, pattern: &[Option<Value>]) -> usize {
        let Some(store) = self.rels.get(&rel) else {
            return 0;
        };
        pattern
            .iter()
            .enumerate()
            .filter_map(|(c, p)| p.map(|v| store.by_col[c].get(&v).map_or(0, |s| s.len())))
            .min()
            .unwrap_or(store.ids.len())
    }

    /// Live ids of `rel` matching `pattern` on every bound position, in id
    /// order: probe the tightest bound column, post-filter the rest.
    pub fn matching(&self, rel: RelSym, pattern: &[Option<Value>]) -> Vec<TupleId> {
        let Some(store) = self.rels.get(&rel) else {
            return Vec::new();
        };
        debug_assert_eq!(pattern.len(), store.arity);
        let best = pattern
            .iter()
            .enumerate()
            .filter_map(|(c, p)| p.map(|v| (store.by_col[c].get(&v).map_or(0, |s| s.len()), c, v)))
            .min();
        let check = |id: TupleId| {
            let (_, at) = self.slots[id.idx()].as_ref().expect("live id");
            pattern
                .iter()
                .enumerate()
                .all(|(c, p)| p.is_none_or(|pv| at.tuple.get(c) == pv))
        };
        match best {
            None => store.ids.iter().collect(),
            Some((_, col, v)) => store.by_col[col]
                .get(&v)
                .into_iter()
                .flat_map(|set| set.iter())
                .filter(|&id| check(id))
                .collect(),
        }
    }

    /// Ids whose tuples mention `value` (the merge footprint of an egd).
    pub fn ids_with_value(&self, value: Value) -> Vec<TupleId> {
        self.by_value
            .get(&value)
            .map(|s| s.iter().collect())
            .unwrap_or_default()
    }

    /// Substitute `from → to` in every live tuple mentioning `from` (the egd
    /// merge step). Each affected tuple is retracted and its rewritten form
    /// re-inserted — annotations are kept, rewritten tuples may merge with
    /// existing ones (set semantics). Returns the rewrites performed.
    pub fn replace_value(&mut self, from: Value, to: Value) -> Vec<Rewrite> {
        let affected = self.ids_with_value(from);
        let mut out = Vec::with_capacity(affected.len());
        for id in affected {
            let (rel, at) = self.retract(id).expect("affected ids are live");
            let vals: Vec<Value> = at
                .tuple
                .iter()
                .map(|v| if v == from { to } else { v })
                .collect();
            let new = self.insert(rel, AnnTuple::new(Tuple::new(vals), at.ann));
            out.push(Rewrite { old: id, new });
        }
        out
    }

    /// Exhaustively verify every index against the slot table; returns a
    /// description of the first inconsistency. Used by the property tests —
    /// O(instance²), not for production paths.
    pub fn check_invariants(&self) -> Result<(), String> {
        // 1. live map ↔ slots.
        let mut live_entries = 0usize;
        for (rel, m) in &self.live {
            for (key_at, &id) in m {
                live_entries += 1;
                match self.slots.get(id.idx()).and_then(|s| s.as_ref()) {
                    Some((r, at)) if r == rel && at == key_at => {}
                    _ => return Err(format!("live map entry {id:?} not backed by slot")),
                }
            }
        }
        let live_slots = self.slots.iter().flatten().count();
        if live_slots != live_entries || live_entries != self.live_len {
            return Err(format!(
                "slot table has {live_slots} live entries, dedup map has {live_entries}, counter says {}",
                self.live_len
            ));
        }
        // 2. per-relation ids and column indexes.
        for (i, slot) in self.slots.iter().enumerate() {
            let id = TupleId(i as u32);
            let Some((rel, at)) = slot else { continue };
            let store = self
                .rels
                .get(rel)
                .ok_or_else(|| format!("no store for relation {rel}"))?;
            if !store.ids.contains(id) {
                return Err(format!("{id:?} missing from {rel} id set"));
            }
            for (c, v) in at.tuple.iter().enumerate() {
                if !store.by_col[c].get(&v).is_some_and(|s| s.contains(id)) {
                    return Err(format!("{id:?} missing from {rel} column {c} index"));
                }
                if !self.by_value.get(&v).is_some_and(|s| s.contains(id)) {
                    return Err(format!("{id:?} missing from value index of {v}"));
                }
            }
        }
        // 3. no dead ids linger in any index.
        for (rel, store) in &self.rels {
            for id in store.ids.iter() {
                if self.get(id).is_none() {
                    return Err(format!("dead id {id:?} in {rel} id set"));
                }
            }
            for (c, col) in store.by_col.iter().enumerate() {
                for (v, set) in col {
                    for id in set.iter() {
                        let Some((r2, at)) = self.get(id) else {
                            return Err(format!("dead id {id:?} in {rel} column {c}"));
                        };
                        if r2 != *rel || at.tuple.get(c) != *v {
                            return Err(format!("stale entry {id:?} in {rel} column {c}"));
                        }
                    }
                }
            }
        }
        for (v, set) in &self.by_value {
            for id in set.iter() {
                let Some((_, at)) = self.get(id) else {
                    return Err(format!("dead id {id:?} in value index of {v}"));
                };
                if !at.tuple.iter().any(|x| x == *v) {
                    return Err(format!("stale value-index entry {id:?} for {v}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_relation::Ann;

    fn at(vals: Vec<Value>, anns: Vec<Ann>) -> AnnTuple {
        AnnTuple::new(Tuple::new(vals), Annotation::new(anns))
    }

    #[test]
    fn insert_dedup_retract_roundtrip() {
        let r = RelSym::new("StoreR");
        let mut s = IndexedInstance::new();
        let t = at(
            vec![Value::c("a"), Value::null(1)],
            vec![Ann::Closed, Ann::Open],
        );
        let id = match s.insert(r, t.clone()) {
            Inserted::Fresh(id) => id,
            _ => panic!("first insert must be fresh"),
        };
        assert_eq!(s.insert(r, t.clone()), Inserted::Duplicate(id));
        assert_eq!(s.live_count(), 1);
        // Same values, different annotation: distinct tuple.
        let t2 = at(
            vec![Value::c("a"), Value::null(1)],
            vec![Ann::Open, Ann::Closed],
        );
        assert!(matches!(s.insert(r, t2), Inserted::Fresh(_)));
        assert_eq!(s.live_count(), 2);
        s.check_invariants().unwrap();
        assert_eq!(s.retract(id), Some((r, t)));
        assert_eq!(s.retract(id), None, "double retract is a no-op");
        assert_eq!(s.live_count(), 1);
        s.check_invariants().unwrap();
    }

    #[test]
    fn probes_and_matching() {
        let r = RelSym::new("StoreP");
        let mut s = IndexedInstance::new();
        let cl2 = vec![Ann::Closed, Ann::Closed];
        s.insert(r, at(vec![Value::c("a"), Value::c("x")], cl2.clone()));
        s.insert(r, at(vec![Value::c("a"), Value::c("y")], cl2.clone()));
        s.insert(r, at(vec![Value::c("b"), Value::c("x")], cl2.clone()));
        assert_eq!(s.probe(r, 0, Value::c("a")).count(), 2);
        assert_eq!(
            s.matching(r, &[Some(Value::c("a")), Some(Value::c("x"))])
                .len(),
            1
        );
        assert_eq!(s.matching(r, &[None, None]).len(), 3);
        assert_eq!(s.selectivity(r, &[Some(Value::c("b")), None]), 1);
        assert_eq!(s.selectivity(r, &[None, None]), 3);
        assert_eq!(s.matching(RelSym::new("Absent"), &[None]).len(), 0);
    }

    #[test]
    fn replace_value_merges_and_reindexes() {
        let r = RelSym::new("StoreM");
        let cl2 = vec![Ann::Closed, Ann::Closed];
        let mut s = IndexedInstance::new();
        s.insert(r, at(vec![Value::c("a"), Value::null(1)], cl2.clone()));
        s.insert(r, at(vec![Value::c("a"), Value::c("k")], cl2.clone()));
        s.insert(r, at(vec![Value::c("b"), Value::null(1)], cl2.clone()));
        // ⊥1 → k: first tuple merges into the existing (a, k); third rewrites.
        let rewrites = s.replace_value(Value::null(1), Value::c("k"));
        assert_eq!(rewrites.len(), 2);
        assert_eq!(s.live_count(), 2);
        assert!(s.ids_with_value(Value::null(1)).is_empty());
        assert_eq!(s.probe(r, 1, Value::c("k")).count(), 2);
        let merged = rewrites
            .iter()
            .filter(|rw| matches!(rw.new, Inserted::Duplicate(_)))
            .count();
        assert_eq!(merged, 1, "exactly one rewrite hits the existing tuple");
        s.check_invariants().unwrap();
    }

    #[test]
    fn ann_roundtrip_preserves_everything() {
        let r = RelSym::new("StoreRT");
        let mut inst = AnnInstance::new();
        inst.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(3)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        inst.insert_empty_mark(r, Annotation::all_open(2));
        let s = IndexedInstance::from_ann(&inst);
        assert_eq!(s.to_ann(), inst);
        s.check_invariants().unwrap();
    }

    #[test]
    fn ids_stay_dead_after_retraction() {
        let r = RelSym::new("StoreDead");
        let mut s = IndexedInstance::new();
        let id = s.insert(r, at(vec![Value::c("a")], vec![Ann::Closed])).id();
        s.retract(id);
        // Re-inserting the same tuple allocates a new id; the old stays dead.
        let id2 = s.insert(r, at(vec![Value::c("a")], vec![Ann::Closed])).id();
        assert_ne!(id, id2);
        assert!(s.get(id).is_none());
        assert!(s.get(id2).is_some());
        assert_eq!(s.slot_count(), 2);
        s.check_invariants().unwrap();
    }
}
