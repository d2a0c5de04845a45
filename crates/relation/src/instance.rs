//! Database instances and schemas.

use crate::intern::{ConstId, RelSym};
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::valuation::Valuation;
use crate::value::{NullId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A relational schema: relation symbols with arities.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Schema {
    rels: BTreeMap<RelSym, usize>,
}

impl Schema {
    /// The empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a schema from `(name, arity)` pairs.
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, usize)>) -> Self {
        let mut s = Schema::new();
        for (name, arity) in pairs {
            s.add(RelSym::new(name), arity);
        }
        s
    }

    /// Add a relation symbol. Panics on conflicting arity re-declaration.
    pub fn add(&mut self, rel: RelSym, arity: usize) -> &mut Self {
        if let Some(&prev) = self.rels.get(&rel) {
            assert_eq!(prev, arity, "conflicting arity for {rel}");
        }
        self.rels.insert(rel, arity);
        self
    }

    /// The arity of `rel`, if declared.
    pub fn arity(&self, rel: RelSym) -> Option<usize> {
        self.rels.get(&rel).copied()
    }

    /// Does the schema declare `rel`?
    pub fn contains(&self, rel: RelSym) -> bool {
        self.rels.contains_key(&rel)
    }

    /// Iterate over `(relation, arity)` in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (RelSym, usize)> + '_ {
        self.rels.iter().map(|(&r, &a)| (r, a))
    }

    /// Number of relation symbols.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// Is the schema empty?
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// The maximum arity over all relations (0 for the empty schema).
    pub fn max_arity(&self) -> usize {
        self.rels.values().copied().max().unwrap_or(0)
    }

    /// Union of two schemas; panics on conflicting arities.
    pub fn union(&self, other: &Schema) -> Schema {
        let mut s = self.clone();
        for (r, a) in other.iter() {
            s.add(r, a);
        }
        s
    }

    /// Do the two schemas share no relation symbol?
    pub fn is_disjoint(&self, other: &Schema) -> bool {
        self.rels.keys().all(|r| !other.rels.contains_key(r))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (r, a)) in self.rels.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}/{a}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A database instance: an assignment of a [`Relation`] to each relation
/// symbol that has at least one declared tuple (absent symbols read as empty).
///
/// Instances may contain nulls; *source* instances in data exchange are
/// ground (see [`Instance::is_ground`]).
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Instance {
    pub(crate) rels: BTreeMap<RelSym, Relation>,
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `t` into relation `rel`, creating the relation (with `t`'s
    /// arity) on first use.
    pub fn insert(&mut self, rel: RelSym, t: Tuple) -> bool {
        self.rels
            .entry(rel)
            .or_insert_with(|| Relation::new(t.arity()))
            .insert(t)
    }

    /// Insert a ground tuple given by constant names.
    pub fn insert_names(&mut self, rel: &str, names: &[&str]) -> bool {
        self.insert(RelSym::new(rel), Tuple::from_names(names))
    }

    /// Insert a ground tuple given by numeric constants.
    pub fn insert_nums(&mut self, rel: &str, nums: &[i64]) -> bool {
        self.insert(RelSym::new(rel), Tuple::from_nums(nums))
    }

    /// Declare an empty relation of the given arity (so it shows up in
    /// iteration even without tuples).
    pub fn declare(&mut self, rel: RelSym, arity: usize) {
        self.rels.entry(rel).or_insert_with(|| Relation::new(arity));
    }

    /// Remove `t` from relation `rel`; the relation stays declared even when
    /// it becomes empty (so arities survive, mirroring
    /// [`AnnInstance::rel_part`](crate::annotation::AnnInstance::rel_part)).
    pub fn remove(&mut self, rel: RelSym, t: &Tuple) -> bool {
        self.rels.get_mut(&rel).is_some_and(|r| r.remove(t))
    }

    /// The relation for `rel`, if any tuple or declaration exists.
    pub fn relation(&self, rel: RelSym) -> Option<&Relation> {
        self.rels.get(&rel)
    }

    /// Tuples of `rel` (empty iterator when the relation is absent).
    pub fn tuples(&self, rel: RelSym) -> impl Iterator<Item = &Tuple> + '_ {
        self.rels.get(&rel).into_iter().flat_map(|r| r.iter())
    }

    /// Does `rel` contain `t`?
    pub fn contains(&self, rel: RelSym, t: &Tuple) -> bool {
        self.rels.get(&rel).is_some_and(|r| r.contains(t))
    }

    /// Iterate over `(relation symbol, relation)` pairs.
    pub fn relations(&self) -> impl Iterator<Item = (RelSym, &Relation)> + '_ {
        self.rels.iter().map(|(&r, rel)| (r, rel))
    }

    /// Total number of tuples across relations.
    pub fn tuple_count(&self) -> usize {
        self.rels.values().map(|r| r.len()).sum()
    }

    /// Is the instance empty (no tuples at all)?
    pub fn is_empty(&self) -> bool {
        self.rels.values().all(|r| r.is_empty())
    }

    /// The active domain `D_T`: all values occurring in some tuple.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.rels.values().flat_map(|r| r.active_domain()).collect()
    }

    /// The constants of the active domain.
    pub fn adom_consts(&self) -> BTreeSet<ConstId> {
        self.rels.values().flat_map(|r| r.consts()).collect()
    }

    /// All nulls occurring in the instance.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        self.rels.values().flat_map(|r| r.nulls()).collect()
    }

    /// Does the instance mention no nulls (i.e. is it over `Const` only)?
    pub fn is_ground(&self) -> bool {
        self.rels.values().all(|r| r.is_ground())
    }

    /// Relation-wise inclusion `self ⊆ other`.
    pub fn is_subinstance_of(&self, other: &Instance) -> bool {
        self.rels.iter().all(|(r, rel)| {
            rel.is_empty() || other.rels.get(r).is_some_and(|orel| rel.is_subset(orel))
        })
    }

    /// Relation-wise union.
    pub fn union(&self, other: &Instance) -> Instance {
        let mut out = self.clone();
        for (r, rel) in other.relations() {
            match out.rels.get_mut(&r) {
                Some(mine) => mine.union_with(rel),
                None => {
                    out.rels.insert(r, rel.clone());
                }
            }
        }
        out
    }

    /// Apply a valuation relation-wise (`v(T)` in the paper).
    pub fn apply(&self, v: &Valuation) -> Instance {
        Instance {
            rels: self
                .rels
                .iter()
                .map(|(&r, rel)| (r, rel.apply(v)))
                .collect(),
        }
    }

    /// Restrict to tuples whose values all lie in `universe` (used by the
    /// bounded-model arguments of Lemma 2 / Proposition 5).
    pub fn restrict_to(&self, universe: &BTreeSet<Value>) -> Instance {
        let mut out = Instance::new();
        for (r, rel) in self.relations() {
            out.declare(r, rel.arity());
            for t in rel.iter() {
                if t.iter().all(|v| universe.contains(&v)) {
                    out.insert(r, t.clone());
                }
            }
        }
        out
    }

    /// Check that the instance only uses relations declared in `schema`, at
    /// the right arities.
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.rels
            .iter()
            .all(|(&r, rel)| schema.arity(r) == Some(rel.arity()))
    }

    /// Restrict the instance to the relations of `schema`.
    pub fn project_schema(&self, schema: &Schema) -> Instance {
        let mut out = Instance::new();
        for (r, a) in schema.iter() {
            out.declare(r, a);
            if let Some(rel) = self.rels.get(&r) {
                for t in rel.iter() {
                    out.insert(r, t.clone());
                }
            }
        }
        out
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rels.is_empty() {
            return write!(f, "∅");
        }
        for (i, (r, rel)) in self.rels.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r} = {rel}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::ConstId;

    fn sample() -> Instance {
        let mut i = Instance::new();
        i.insert_names("E", &["a", "b"]);
        i.insert_names("E", &["b", "c"]);
        i.insert_names("V", &["a"]);
        i
    }

    #[test]
    fn schema_basics() {
        let s = Schema::from_pairs([("E", 2), ("V", 1)]);
        assert_eq!(s.arity(RelSym::new("E")), Some(2));
        assert_eq!(s.arity(RelSym::new("Missing")), None);
        assert_eq!(s.max_arity(), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn schema_union_and_disjointness() {
        let s = Schema::from_pairs([("E", 2)]);
        let t = Schema::from_pairs([("V", 1)]);
        assert!(s.is_disjoint(&t));
        let u = s.union(&t);
        assert_eq!(u.len(), 2);
        assert!(!u.is_disjoint(&t));
    }

    #[test]
    #[should_panic(expected = "conflicting arity")]
    fn schema_conflicting_arity_panics() {
        let mut s = Schema::new();
        s.add(RelSym::new("R"), 2);
        s.add(RelSym::new("R"), 3);
    }

    #[test]
    fn insert_and_lookup() {
        let i = sample();
        assert_eq!(i.tuple_count(), 3);
        assert!(i.contains(RelSym::new("E"), &Tuple::from_names(&["a", "b"])));
        assert!(!i.contains(RelSym::new("E"), &Tuple::from_names(&["c", "a"])));
        assert!(i.conforms_to(&Schema::from_pairs([("E", 2), ("V", 1)])));
    }

    #[test]
    fn subinstance_and_union() {
        let i = sample();
        let mut j = Instance::new();
        j.insert_names("E", &["a", "b"]);
        assert!(j.is_subinstance_of(&i));
        assert!(!i.is_subinstance_of(&j));
        let u = j.union(&i);
        assert_eq!(u, i);
    }

    #[test]
    fn groundness_and_valuation() {
        let mut i = sample();
        i.insert(RelSym::new("V"), Tuple::new(vec![Value::null(0)]));
        assert!(!i.is_ground());
        let v = Valuation::from_pairs([(NullId(0), ConstId::new("a"))]);
        let iv = i.apply(&v);
        assert!(iv.is_ground());
        // (a) merges into the existing V tuple
        assert_eq!(iv.relation(RelSym::new("V")).unwrap().len(), 1);
    }

    #[test]
    fn restrict_to_universe() {
        let i = sample();
        let universe: BTreeSet<Value> = [Value::c("a"), Value::c("b")].into();
        let r = i.restrict_to(&universe);
        assert_eq!(r.tuple_count(), 2); // E(a,b) and V(a); E(b,c) dropped
    }

    /// Cloning an instance clones its relations, which share their tuples
    /// until the first write: a write to either side stays on that side.
    #[test]
    fn clones_are_unchanged_by_writes_to_either_side() {
        let (e, ab) = (RelSym::new("E"), Tuple::from_names(&["a", "b"]));
        let mut original = sample();
        let copy = original.clone();
        original.insert_names("E", &["c", "d"]);
        original.remove(e, &ab);
        assert_eq!(copy, sample(), "a write to the original reached its clone");

        let original = sample();
        let mut copy = original.clone();
        copy.insert_names("V", &["z"]);
        copy.remove(e, &ab);
        assert_eq!(
            original,
            sample(),
            "a write to the clone reached the original"
        );
        assert_eq!(copy.tuple_count(), 3);
    }

    #[test]
    fn display_empty() {
        assert_eq!(Instance::new().to_string(), "∅");
    }
}
