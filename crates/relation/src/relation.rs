//! Finite relations: sets of equal-arity tuples.

use crate::intern::ConstId;
use crate::tuple::Tuple;
use crate::valuation::Valuation;
use crate::value::{NullId, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// A finite relation: a set of tuples of a fixed arity.
///
/// Backed by a `BTreeSet` so iteration order (and therefore every derived
/// artifact: canonical solutions, displays, test expectations) is
/// deterministic. Clones share the set until one of them is written to
/// (copy on write), so a clone is O(1) and a reader's copy never sees a
/// later write.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Relation {
    arity: usize,
    tuples: Arc<BTreeSet<Tuple>>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            tuples: Arc::default(),
        }
    }

    /// Build from tuples; panics if arities disagree. The set is built in
    /// one go, which beats inserting the tuples one at a time.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let tuples = (tuples.into_iter())
            .inspect(|t| assert_arity(t, arity))
            .collect();
        Relation {
            arity,
            tuples: Arc::new(tuples),
        }
    }

    /// The arity of this relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Insert a tuple. Panics if the tuple's arity differs — arity errors are
    /// construction bugs, not runtime conditions.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_arity(&t, self.arity);
        Arc::make_mut(&mut self.tuples).insert(t)
    }

    /// Remove a tuple.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        Arc::make_mut(&mut self.tuples).remove(t)
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        self.tuples.contains(t)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterate over tuples in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// Set inclusion `self ⊆ other`.
    pub fn is_subset(&self, other: &Relation) -> bool {
        self.tuples.is_subset(&other.tuples)
    }

    /// In-place union with another relation of the same arity.
    pub fn union_with(&mut self, other: &Relation) {
        assert_eq!(self.arity, other.arity, "arity mismatch in union");
        if other.is_empty() {
            return;
        }
        let tuples = Arc::make_mut(&mut self.tuples);
        for t in other.iter() {
            tuples.insert(t.clone());
        }
    }

    /// All values occurring in the relation.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.tuples.iter().flat_map(|t| t.iter()).collect()
    }

    /// All nulls occurring in the relation.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        self.tuples.iter().flat_map(|t| t.nulls()).collect()
    }

    /// All constants occurring in the relation.
    pub fn consts(&self) -> BTreeSet<ConstId> {
        self.tuples.iter().flat_map(|t| t.consts()).collect()
    }

    /// Does every tuple consist of constants only?
    pub fn is_ground(&self) -> bool {
        self.tuples.iter().all(|t| t.is_ground())
    }

    /// Apply a valuation to every tuple (tuples may merge).
    pub fn apply(&self, v: &Valuation) -> Relation {
        Relation {
            arity: self.arity,
            tuples: Arc::new(self.tuples.iter().map(|t| t.apply(v)).collect()),
        }
    }
}

fn assert_arity(t: &Tuple, arity: usize) {
    assert_eq!(
        t.arity(),
        arity,
        "tuple arity {} does not match relation arity {}",
        t.arity(),
        arity
    );
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Relation {
        Relation::from_tuples(
            2,
            [
                Tuple::from_names(&["a", "b"]),
                Tuple::from_names(&["a", "c"]),
            ],
        )
    }

    #[test]
    fn insert_dedups() {
        let mut r = abc();
        assert_eq!(r.len(), 2);
        assert!(!r.insert(Tuple::from_names(&["a", "b"])));
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(Tuple::from_names(&["only-one"]));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn from_tuples_checks_arity() {
        Relation::from_tuples(2, [Tuple::from_names(&["only-one"])]);
    }

    #[test]
    fn subset_and_union() {
        let r = abc();
        let mut s = Relation::new(2);
        s.insert(Tuple::from_names(&["a", "b"]));
        assert!(s.is_subset(&r));
        assert!(!r.is_subset(&s));
        s.union_with(&r);
        assert_eq!(s, r);
    }

    #[test]
    fn groundness_and_nulls() {
        let mut r = abc();
        assert!(r.is_ground());
        r.insert(Tuple::new(vec![Value::c("a"), Value::null(9)]));
        assert!(!r.is_ground());
        assert_eq!(r.nulls().len(), 1);
    }

    #[test]
    fn valuation_can_merge_tuples() {
        // {(a,⊥0), (a,⊥1)} under ⊥0,⊥1 ↦ b collapses to one tuple.
        let mut r = Relation::new(2);
        r.insert(Tuple::new(vec![Value::c("a"), Value::null(0)]));
        r.insert(Tuple::new(vec![Value::c("a"), Value::null(1)]));
        let v = Valuation::from_pairs([
            (NullId(0), ConstId::new("b")),
            (NullId(1), ConstId::new("b")),
        ]);
        let rv = r.apply(&v);
        assert_eq!(rv.len(), 1);
        assert!(rv.contains(&Tuple::from_names(&["a", "b"])));
    }

    /// A clone shares the tuple set until the first write, and the write
    /// copies: neither side ever sees the other's `insert`, `remove` or
    /// `union_with`.
    #[test]
    fn clones_are_unchanged_by_writes_to_either_side() {
        let more = Relation::from_tuples(2, [Tuple::from_names(&["d", "e"])]);
        let writes: [fn(&mut Relation, &Relation); 3] = [
            |r, _| {
                r.insert(Tuple::from_names(&["x", "y"]));
            },
            |r, _| {
                r.remove(&Tuple::from_names(&["a", "b"]));
            },
            |r, more| r.union_with(more),
        ];
        for write in writes {
            let mut original = abc();
            let copy = original.clone();
            write(&mut original, &more);
            assert_ne!(original, copy);
            assert_eq!(copy, abc(), "a write to the original reached its clone");

            let original = abc();
            let mut copy = original.clone();
            write(&mut copy, &more);
            assert_ne!(original, copy);
            assert_eq!(original, abc(), "a write to the clone reached the original");
        }
    }

    #[test]
    fn active_domain() {
        let r = abc();
        assert_eq!(r.active_domain().len(), 3);
        assert_eq!(r.consts().len(), 3);
    }
}
