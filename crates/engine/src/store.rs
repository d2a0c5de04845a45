//! The mutable store behind the delta-driven chase.
//!
//! [`IndexedInstance`] holds an annotated instance as a slot table of
//! annotated tuples with **stable ids**, and keeps what only the chase
//! needs beside one relational index:
//!
//! * a dedup map `(relation, tuple) → ids` of the tuple's annotated
//!   copies, in id order — set semantics over annotated tuples;
//! * one [`DeltaIndex`] over `rel(·)`, holding a reference per live
//!   annotated copy. The store is a [`dx_query::QueryStore`] that forwards
//!   to it, so a dependency's trigger query sees each relational tuple
//!   once, whatever annotations it is live under; the egd merge footprint
//!   ([`IndexedInstance::ids_with_value`]) is the value's postings in
//!   every column, mapped to ids.
//!
//! Retraction clears a slot but never reuses its id, so ids handed to the
//! chase work-queue stay valid-or-dead, never dangling onto a different
//! tuple; the index reuses its own slots, which no caller sees.
//! [`IndexedInstance::check_invariants`] checks the dedup map and the
//! index's reference counts against the slot table — the property tests
//! in `tests/engine_differential.rs` run it after random insert/merge
//! workloads.

use dx_query::QueryStore;
use dx_relation::{AnnInstance, AnnTuple, Annotation, DeltaIndex, FastMap, RelSym, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

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

/// A mutable annotated instance with stable tuple ids over one relational
/// index (see the module docs).
#[derive(Default)]
pub struct IndexedInstance {
    /// Slot table: id → live annotated tuple (None once retracted).
    slots: Vec<Option<(RelSym, AnnTuple)>>,
    /// Dedup: per relation, live tuple → the ids of its annotated copies,
    /// in id order (nested so lookups borrow the probe tuple).
    copies: FastMap<RelSym, FastMap<Tuple, Vec<TupleId>>>,
    /// Number of live tuples across relations.
    live_len: usize,
    /// Empty annotated markers `(_, α)` (never touched by the chase).
    empty_marks: BTreeMap<RelSym, BTreeSet<Annotation>>,
    /// `rel(·)` of the live tuples, one reference per annotated copy.
    index: DeltaIndex,
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
            out.index.declare(r, rel.arity());
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
        for (r, at) in self.slots.iter().flatten() {
            out.insert(*r, at.clone());
        }
        for (&r, marks) in &self.empty_marks {
            for m in marks {
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
        self.empty_marks.entry(rel).or_default().insert(ann);
    }

    /// Drop an empty annotated marker (a no-op when it is absent).
    pub fn remove_empty_mark(&mut self, rel: RelSym, ann: &Annotation) {
        if let Some(marks) = self.empty_marks.get_mut(&rel) {
            marks.remove(ann);
        }
    }

    /// Insert an annotated tuple; set semantics with a stable fresh id on
    /// first insertion.
    pub fn insert(&mut self, rel: RelSym, at: AnnTuple) -> Inserted {
        let id = TupleId(self.slots.len() as u32);
        let copies = self.copies.entry(rel).or_default();
        match copies.get_mut(&at.tuple) {
            Some(ids) => {
                let slots = &self.slots;
                let ann = |i: TupleId| slots[i.idx()].as_ref().map(|(_, live)| &live.ann);
                if let Some(&dup) = ids.iter().find(|&&i| ann(i) == Some(&at.ann)) {
                    return Inserted::Duplicate(dup);
                }
                ids.push(id);
            }
            None => {
                copies.insert(at.tuple.clone(), vec![id]);
            }
        }
        self.index.insert(rel, at.tuple.clone());
        self.live_len += 1;
        self.slots.push(Some((rel, at)));
        Inserted::Fresh(id)
    }

    /// Retract a live tuple, clearing its slot, its dedup entry and its
    /// index reference. Returns the retracted tuple, or `None` if the id
    /// was already dead.
    pub fn retract(&mut self, id: TupleId) -> Option<(RelSym, AnnTuple)> {
        let (rel, at) = self.slots.get_mut(id.idx())?.take()?;
        let copies = self.copies.get_mut(&rel).expect("relation of a live tuple");
        let ids = (copies.get_mut(&at.tuple)).expect("live tuple is in the dedup map");
        ids.retain(|&i| i != id);
        if ids.is_empty() {
            copies.remove(&at.tuple);
        }
        self.index.remove(rel, &at.tuple);
        self.live_len -= 1;
        Some((rel, at))
    }

    /// The ids of the annotated copies of `t` in `rel`, in id order.
    fn copies_of(&self, rel: RelSym, t: &Tuple) -> &[TupleId] {
        (self.copies.get(&rel))
            .and_then(|m| m.get(t))
            .map_or(&[], Vec::as_slice)
    }

    /// Live ids of `rel` matching `pattern` on every bound position, in id
    /// order: the index's matches, each mapped to its annotated copies.
    pub fn matching(&self, rel: RelSym, pattern: &[Option<Value>]) -> Vec<TupleId> {
        let mut ids = Vec::new();
        let _ = self.index.for_each_matching(rel, pattern, &mut |t| {
            ids.extend_from_slice(self.copies_of(rel, t));
            ControlFlow::Continue(())
        });
        ids.sort_unstable();
        ids
    }

    /// Ids whose tuples mention `value` (the merge footprint of an egd), in
    /// id order: the value's postings in every column, mapped to ids.
    pub fn ids_with_value(&self, value: Value) -> Vec<TupleId> {
        let mut ids = Vec::new();
        self.index.for_each_with_value(value, &mut |rel, t| {
            ids.extend_from_slice(self.copies_of(rel, t));
        });
        ids.sort_unstable();
        ids
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

    /// Verify the dedup map and the index's reference counts against the
    /// slot table; returns a description of the first inconsistency. Used
    /// by the property tests — a full pass, not for production paths.
    pub fn check_invariants(&self) -> Result<(), String> {
        // 1. every live slot is one of its tuple's copies.
        let live_slots = self.slots.iter().flatten().count();
        if live_slots != self.live_len {
            return Err(format!(
                "slot table has {live_slots} live entries, counter says {}",
                self.live_len
            ));
        }
        for id in self.all_ids() {
            let (rel, at) = self.get(id).expect("all_ids yields live ids");
            if !self.copies_of(rel, &at.tuple).contains(&id) {
                return Err(format!("{id:?} missing from the dedup map"));
            }
        }
        // 2. every dedup entry lists live copies of its tuple, in id order
        // and under distinct annotations, and the index counts each once.
        let mut listed = 0usize;
        for (&rel, m) in &self.copies {
            for (t, ids) in m {
                listed += ids.len();
                if ids.is_empty() || ids.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(format!("copies of {t} in {rel} not in id order: {ids:?}"));
                }
                let mut anns = BTreeSet::new();
                for &id in ids {
                    match self.get(id) {
                        Some((r, at)) if r == rel && at.tuple == *t && anns.insert(&at.ann) => {}
                        _ => return Err(format!("dedup entry {id:?} of {t} in {rel} is stale")),
                    }
                }
                let counted = self.index.count(rel, t);
                if counted != ids.len() {
                    return Err(format!(
                        "index counts {counted} copies of {t} in {rel}, the dedup map {}",
                        ids.len()
                    ));
                }
            }
        }
        // 3. nothing else is indexed.
        let refs = self.index.mem_stats().refcount_total;
        if listed != live_slots || refs != live_slots as u64 {
            return Err(format!(
                "{live_slots} live tuples, {listed} listed copies, {refs} index references"
            ));
        }
        Ok(())
    }
}

/// The chase's store serves `dx-query`'s walk through its relational
/// index: a dependency's trigger query ([`crate::chase`]) visits each
/// relational tuple once, whatever annotations it is live under.
impl QueryStore for IndexedInstance {
    fn selectivity(&self, rel: RelSym, pattern: &[Option<Value>]) -> usize {
        self.index.selectivity(rel, pattern)
    }

    fn for_each_matching(
        &self,
        rel: RelSym,
        pattern: &[Option<Value>],
        f: &mut dyn FnMut(&Tuple) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.index.for_each_matching(rel, pattern, f)
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
        assert_eq!(s.matching(r, &[Some(Value::c("a")), None]).len(), 2);
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

    /// The tuples a probe of `pattern` visits.
    fn visited(s: &IndexedInstance, r: RelSym, pattern: &[Option<Value>]) -> Vec<Tuple> {
        let mut out = Vec::new();
        let _ = s.for_each_matching(r, pattern, &mut |t| {
            out.push(t.clone());
            ControlFlow::Continue(())
        });
        out
    }

    /// A tuple live under two annotations is one relational tuple to the
    /// walk and to the estimate, and two ids to `matching` and the merge
    /// footprint; it stays visible until its last copy goes.
    #[test]
    fn annotated_copies_are_one_relational_tuple() {
        let r = RelSym::new("StoreCopies");
        let (a, b, c) = (Value::c("a"), Value::c("b"), Value::c("c"));
        let mut s = IndexedInstance::new();
        let open = s.insert(r, at(vec![a, b], vec![Ann::Closed, Ann::Open]));
        let closed = s.insert(r, at(vec![a, b], vec![Ann::Closed, Ann::Closed]));
        s.insert(r, at(vec![a, c], vec![Ann::Closed, Ann::Closed]));
        s.check_invariants().unwrap();
        let ab = Tuple::new(vec![a, b]);
        let a_any = [Some(a), None];
        assert_eq!(visited(&s, r, &a_any).len(), 2);
        assert_eq!(s.selectivity(r, &a_any), 2);
        let both = vec![open.id(), closed.id()];
        assert_eq!(s.matching(r, &[Some(a), Some(b)]), both);
        assert_eq!(s.ids_with_value(b), both);
        s.retract(open.id());
        s.check_invariants().unwrap();
        assert_eq!(visited(&s, r, &[Some(a), Some(b)]), vec![ab]);
        assert_eq!(s.matching(r, &[None, Some(b)]), vec![closed.id()]);
        s.retract(closed.id());
        s.check_invariants().unwrap();
        assert!(visited(&s, r, &[Some(a), Some(b)]).is_empty());
        assert!(s.ids_with_value(b).is_empty());
        assert_eq!(visited(&s, r, &a_any).len(), 1);
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
        assert_eq!(s.matching(r, &[None, Some(Value::c("k"))]).len(), 2);
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
