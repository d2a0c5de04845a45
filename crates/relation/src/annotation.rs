//! Open/closed annotations and annotated instances (§3 of the paper).
//!
//! An *annotated tuple* is a pair `(t, α)` where `α` assigns `op` or `cl` to
//! every position. An *annotated relation* is a finite set of annotated
//! tuples, plus (for purely technical reasons, to deal with empty tables)
//! *empty annotated tuples* `(_, α)`.
//!
//! The semantics `Rep_A(T)` (implemented in `dx-solver`) reads annotations as
//! follows: after applying a valuation `v`, a relation `R` over `Const` is in
//! `Rep_A(T)` iff `R` contains the non-empty tuples of `v(T)` and every tuple
//! of `R` coincides with some `v(tᵢ)` on all positions annotated **closed**
//! by `αᵢ`. An all-open empty tuple `(_, α)` licenses arbitrary tuples; empty
//! tuples with a closed position license nothing (but still permit the empty
//! table).

use crate::instance::Instance;
use crate::intern::{ConstId, RelSym};
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::valuation::Valuation;
use crate::value::{NullId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A single-position annotation: open (`op`) or closed (`cl`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Ann {
    /// `cl`: one-to-one; the position admits exactly the value chosen by the
    /// valuation (CWA behaviour).
    Closed,
    /// `op`: one-to-many; the position may be replicated with arbitrary
    /// constants (OWA behaviour).
    Open,
}

impl Ann {
    /// The annotation order used by Theorem 1(3): `a ⪯ a′` iff both are `cl`
    /// or `a′` is `op` (closed annotations may be relaxed to open).
    pub fn le(self, other: Ann) -> bool {
        other == Ann::Open || self == Ann::Closed
    }
}

impl fmt::Display for Ann {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ann::Open => write!(f, "op"),
            Ann::Closed => write!(f, "cl"),
        }
    }
}

/// A per-position annotation vector for one atom/tuple.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Annotation(Box<[Ann]>);

impl Annotation {
    /// Build from a vector of per-position annotations.
    pub fn new(anns: impl Into<Vec<Ann>>) -> Self {
        Annotation(anns.into().into_boxed_slice())
    }

    /// The all-open annotation of the given arity (OWA semantics of \[FKMP\]).
    pub fn all_open(arity: usize) -> Self {
        Annotation(vec![Ann::Open; arity].into_boxed_slice())
    }

    /// The all-closed annotation of the given arity (CWA semantics of
    /// [Libkin'06]).
    pub fn all_closed(arity: usize) -> Self {
        Annotation(vec![Ann::Closed; arity].into_boxed_slice())
    }

    /// Number of positions.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The annotation at position `i`.
    pub fn get(&self, i: usize) -> Ann {
        self.0[i]
    }

    /// Iterate over the per-position annotations.
    pub fn iter(&self) -> impl Iterator<Item = Ann> + '_ {
        self.0.iter().copied()
    }

    /// Positions annotated open.
    pub fn open_positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.0.len()).filter(|&i| self.0[i] == Ann::Open)
    }

    /// Positions annotated closed.
    pub fn closed_positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.0.len()).filter(|&i| self.0[i] == Ann::Closed)
    }

    /// Number of open positions (the per-atom quantity behind `#op(Σα)`).
    pub fn count_open(&self) -> usize {
        self.open_positions().count()
    }

    /// Number of closed positions (the per-atom quantity behind `#cl(Σα)`).
    pub fn count_closed(&self) -> usize {
        self.closed_positions().count()
    }

    /// Is every position open?
    pub fn is_all_open(&self) -> bool {
        self.0.iter().all(|&a| a == Ann::Open)
    }

    /// Is every position closed?
    pub fn is_all_closed(&self) -> bool {
        self.0.iter().all(|&a| a == Ann::Closed)
    }

    /// Pointwise annotation order `α ⪯ α′` (Theorem 1(3)): closed positions
    /// may open up, open positions must stay open.
    pub fn le(&self, other: &Annotation) -> bool {
        self.arity() == other.arity() && self.0.iter().zip(other.0.iter()).all(|(&a, &b)| a.le(b))
    }

    /// Does `candidate` coincide with `reference` on every position this
    /// annotation marks closed? This is the coincidence test used throughout
    /// `Rep_A`, expansions and `|=_cl`.
    pub fn coincide_on_closed(&self, candidate: &Tuple, reference: &Tuple) -> bool {
        debug_assert_eq!(candidate.arity(), self.arity());
        debug_assert_eq!(reference.arity(), self.arity());
        self.closed_positions()
            .all(|i| candidate.get(i) == reference.get(i))
    }
}

impl fmt::Display for Annotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, a) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Debug for Annotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// An annotated tuple `(t, α)`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AnnTuple {
    /// The underlying tuple of values.
    pub tuple: Tuple,
    /// The per-position annotation.
    pub ann: Annotation,
}

impl AnnTuple {
    /// Build an annotated tuple; panics if arities disagree.
    pub fn new(tuple: Tuple, ann: Annotation) -> Self {
        assert_eq!(tuple.arity(), ann.arity(), "annotation arity mismatch");
        AnnTuple { tuple, ann }
    }

    /// Apply a valuation to the tuple part, keeping the annotation.
    pub fn apply(&self, v: &Valuation) -> AnnTuple {
        AnnTuple {
            tuple: self.tuple.apply(v),
            ann: self.ann.clone(),
        }
    }
}

impl fmt::Display for AnnTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for i in 0..self.tuple.arity() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}^{}", self.tuple.get(i), self.ann.get(i))?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for AnnTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// An annotated relation: annotated tuples plus empty markers `(_, α)`.
#[derive(Clone, PartialEq, Eq)]
pub struct AnnRelation {
    arity: usize,
    tuples: BTreeSet<AnnTuple>,
    empty_marks: BTreeSet<Annotation>,
}

impl AnnRelation {
    /// An empty annotated relation of the given arity.
    pub fn new(arity: usize) -> Self {
        AnnRelation {
            arity,
            tuples: BTreeSet::new(),
            empty_marks: BTreeSet::new(),
        }
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Insert an annotated tuple.
    pub fn insert(&mut self, t: AnnTuple) -> bool {
        assert_eq!(t.tuple.arity(), self.arity, "arity mismatch");
        self.tuples.insert(t)
    }

    /// Record an empty annotated tuple `(_, α)`.
    pub fn insert_empty_mark(&mut self, ann: Annotation) -> bool {
        assert_eq!(ann.arity(), self.arity, "arity mismatch");
        self.empty_marks.insert(ann)
    }

    /// Remove an annotated tuple; `true` if it was present. Used by the
    /// incrementally maintained canonical solution when a tuple's last
    /// derivation dies.
    pub fn remove(&mut self, t: &AnnTuple) -> bool {
        self.tuples.remove(t)
    }

    /// Remove an empty marker `(_, α)`; `true` if it was present (the
    /// streaming counterpart of [`AnnRelation::insert_empty_mark`], fired
    /// when an STD's witness set transitions from empty to non-empty).
    pub fn remove_empty_mark(&mut self, ann: &Annotation) -> bool {
        self.empty_marks.remove(ann)
    }

    /// Is the annotated tuple present?
    pub fn contains(&self, t: &AnnTuple) -> bool {
        self.tuples.contains(t)
    }

    /// Iterate over the (non-empty) annotated tuples.
    pub fn iter(&self) -> impl Iterator<Item = &AnnTuple> + '_ {
        self.tuples.iter()
    }

    /// Iterate over the empty markers.
    pub fn empty_marks(&self) -> impl Iterator<Item = &Annotation> + '_ {
        self.empty_marks.iter()
    }

    /// Number of (non-empty) annotated tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// No tuples and no empty markers?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty() && self.empty_marks.is_empty()
    }

    /// Does some empty marker have the all-open annotation (licensing
    /// arbitrary tuples in `Rep_A`)?
    pub fn has_all_open_empty_mark(&self) -> bool {
        self.empty_marks.iter().any(|a| a.is_all_open())
    }

    /// The paper's `rel(T)` for this relation: the set of non-empty tuples.
    pub fn rel_part(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter().map(|t| &t.tuple)
    }

    /// Does `candidate` coincide with some annotated tuple on that tuple's
    /// closed positions, or is it licensed by an all-open empty marker?
    ///
    /// This is the *coverage* condition of `Rep_A` (applied to a valued
    /// relation).
    pub fn covers(&self, candidate: &Tuple) -> bool {
        self.has_all_open_empty_mark() || self.matches_closed(candidate)
    }

    /// Does `candidate` coincide with some annotated **tuple** (empty markers
    /// excluded) on that tuple's closed positions?
    ///
    /// This is the *expansion* condition of Proposition 1: an expansion of
    /// `T` may only add tuples coinciding with an existing tuple of `T` on
    /// that tuple's closed positions.
    pub fn matches_closed(&self, candidate: &Tuple) -> bool {
        self.tuples
            .iter()
            .any(|at| at.ann.coincide_on_closed(candidate, &at.tuple))
    }

    /// Apply a valuation to every tuple.
    pub fn apply(&self, v: &Valuation) -> AnnRelation {
        AnnRelation {
            arity: self.arity,
            tuples: self.tuples.iter().map(|t| t.apply(v)).collect(),
            empty_marks: self.empty_marks.clone(),
        }
    }

    /// All nulls in the relation.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        self.tuples.iter().flat_map(|t| t.tuple.nulls()).collect()
    }
}

impl fmt::Display for AnnRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for t in &self.tuples {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{t}")?;
        }
        for m in &self.empty_marks {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "(_,{m})")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for AnnRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// An annotated instance: one [`AnnRelation`] per relation symbol.
///
/// Equality reads a relation with no tuples and no empty markers as
/// absent, so a relation [`AnnInstance::remove`] emptied but left declared
/// does not tell two instances apart.
#[derive(Clone, Default)]
pub struct AnnInstance {
    rels: BTreeMap<RelSym, AnnRelation>,
}

impl PartialEq for AnnInstance {
    fn eq(&self, other: &Self) -> bool {
        fn live(i: &AnnInstance) -> impl Iterator<Item = (&RelSym, &AnnRelation)> {
            i.rels.iter().filter(|(_, r)| !r.is_empty())
        }
        live(self).eq(live(other))
    }
}

impl Eq for AnnInstance {}

impl AnnInstance {
    /// The empty annotated instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an annotated tuple into `rel`.
    pub fn insert(&mut self, rel: RelSym, t: AnnTuple) -> bool {
        self.rels
            .entry(rel)
            .or_insert_with(|| AnnRelation::new(t.tuple.arity()))
            .insert(t)
    }

    /// Record an empty marker `(_, α)` in `rel`.
    pub fn insert_empty_mark(&mut self, rel: RelSym, ann: Annotation) -> bool {
        self.rels
            .entry(rel)
            .or_insert_with(|| AnnRelation::new(ann.arity()))
            .insert_empty_mark(ann)
    }

    /// Remove an annotated tuple from `rel`; `true` if it was present. The
    /// (possibly now-empty) relation stays declared so arities survive —
    /// matching [`AnnInstance::rel_part`]'s declaration behaviour.
    pub fn remove(&mut self, rel: RelSym, t: &AnnTuple) -> bool {
        self.rels.get_mut(&rel).is_some_and(|r| r.remove(t))
    }

    /// Remove an empty marker `(_, α)` from `rel`; `true` if present.
    pub fn remove_empty_mark(&mut self, rel: RelSym, ann: &Annotation) -> bool {
        self.rels
            .get_mut(&rel)
            .is_some_and(|r| r.remove_empty_mark(ann))
    }

    /// Is the annotated tuple present in `rel`?
    pub fn contains(&self, rel: RelSym, t: &AnnTuple) -> bool {
        self.rels.get(&rel).is_some_and(|r| r.contains(t))
    }

    /// The annotated relation for `rel`, if present.
    pub fn relation(&self, rel: RelSym) -> Option<&AnnRelation> {
        self.rels.get(&rel)
    }

    /// Iterate over `(relation symbol, annotated relation)` pairs.
    pub fn relations(&self) -> impl Iterator<Item = (RelSym, &AnnRelation)> + '_ {
        self.rels.iter().map(|(&r, rel)| (r, rel))
    }

    /// Annotated tuples of `rel` (empty iterator when absent).
    pub fn tuples(&self, rel: RelSym) -> impl Iterator<Item = &AnnTuple> + '_ {
        self.rels.get(&rel).into_iter().flat_map(|r| r.iter())
    }

    /// Total number of (non-empty) annotated tuples.
    pub fn tuple_count(&self) -> usize {
        self.rels.values().map(|r| r.len()).sum()
    }

    /// The paper's `rel(T)`: the pure relational part (non-empty tuples,
    /// annotations stripped). Declared relations are kept so arities survive.
    pub fn rel_part(&self) -> Instance {
        Instance {
            rels: (self.rels.iter())
                .map(|(&r, rel)| {
                    (
                        r,
                        Relation::from_tuples(rel.arity(), rel.rel_part().cloned()),
                    )
                })
                .collect(),
        }
    }

    /// All nulls in the instance.
    pub fn nulls(&self) -> BTreeSet<NullId> {
        self.rels.values().flat_map(|r| r.nulls()).collect()
    }

    /// The constants occurring in (non-empty) tuples.
    pub fn adom_consts(&self) -> BTreeSet<ConstId> {
        self.rels
            .values()
            .flat_map(|r| r.iter())
            .flat_map(|t| t.tuple.consts())
            .collect()
    }

    /// All values occurring in (non-empty) tuples.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.rels
            .values()
            .flat_map(|r| r.iter())
            .flat_map(|t| t.tuple.iter())
            .collect()
    }

    /// Apply a valuation relation-wise, keeping annotations (`v(T)` on
    /// annotated instances).
    pub fn apply(&self, v: &Valuation) -> AnnInstance {
        AnnInstance {
            rels: self
                .rels
                .iter()
                .map(|(&r, rel)| (r, rel.apply(v)))
                .collect(),
        }
    }

    /// The relations `keep` accepts, with their tuples and empty markers.
    pub fn restricted(&self, keep: impl Fn(RelSym) -> bool) -> AnnInstance {
        AnnInstance {
            rels: (self.rels.iter())
                .filter(|(&rel, _)| keep(rel))
                .map(|(&rel, r)| (rel, r.clone()))
                .collect(),
        }
    }

    /// Re-annotate every tuple and empty marker as closed: `Rep(T)` as the
    /// all-closed `Rep_A(T)` (Lemma 1).
    pub fn reannotate_all_closed(&self) -> AnnInstance {
        let mut out = AnnInstance::new();
        for (r, rel) in self.relations() {
            for at in rel.iter() {
                out.insert(
                    r,
                    AnnTuple::new(at.tuple.clone(), Annotation::all_closed(at.tuple.arity())),
                );
            }
            for m in rel.empty_marks() {
                out.insert_empty_mark(r, Annotation::all_closed(m.arity()));
            }
        }
        out
    }

    /// Re-annotate every tuple and empty marker as open (the OWA reading of
    /// the same tuple set, Lemma 1).
    pub fn reannotate_all_open(&self) -> AnnInstance {
        let mut out = AnnInstance::new();
        for (r, rel) in self.relations() {
            for at in rel.iter() {
                out.insert(
                    r,
                    AnnTuple::new(at.tuple.clone(), Annotation::all_open(at.tuple.arity())),
                );
            }
            for m in rel.empty_marks() {
                out.insert_empty_mark(r, Annotation::all_open(m.arity()));
            }
        }
        out
    }

    /// Is every annotation (on tuples and empty markers) all-open?
    pub fn is_all_open(&self) -> bool {
        self.rels.values().all(|r| {
            r.iter().all(|t| t.ann.is_all_open()) && r.empty_marks().all(|a| a.is_all_open())
        })
    }

    /// Is every annotation all-closed?
    pub fn is_all_closed(&self) -> bool {
        self.rels.values().all(|r| {
            r.iter().all(|t| t.ann.is_all_closed()) && r.empty_marks().all(|a| a.is_all_closed())
        })
    }

    /// Coverage test lifted to instances: every tuple of `ground` must be
    /// covered by the corresponding annotated relation (see
    /// [`AnnRelation::covers`]); tuples of relations this instance does not
    /// even declare are uncovered.
    pub fn covers_instance(&self, ground: &Instance) -> bool {
        ground.relations().all(|(r, rel)| {
            rel.is_empty()
                || self
                    .rels
                    .get(&r)
                    .is_some_and(|ar| rel.iter().all(|t| ar.covers(t)))
        })
    }
}

impl fmt::Display for AnnInstance {
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

impl fmt::Debug for AnnInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(vals: Vec<Value>, anns: Vec<Ann>) -> AnnTuple {
        AnnTuple::new(Tuple::new(vals), Annotation::new(anns))
    }

    #[test]
    fn ann_order() {
        assert!(Ann::Closed.le(Ann::Open));
        assert!(Ann::Closed.le(Ann::Closed));
        assert!(Ann::Open.le(Ann::Open));
        assert!(!Ann::Open.le(Ann::Closed));
    }

    #[test]
    fn annotation_order_pointwise() {
        let a = Annotation::new(vec![Ann::Closed, Ann::Closed]);
        let b = Annotation::new(vec![Ann::Closed, Ann::Open]);
        let c = Annotation::all_open(2);
        assert!(a.le(&b) && b.le(&c) && a.le(&c));
        assert!(!b.le(&a));
        assert!(!c.le(&b));
        // arity mismatch is never ≤
        assert!(!a.le(&Annotation::all_open(3)));
    }

    #[test]
    fn open_closed_counting() {
        let a = Annotation::new(vec![Ann::Open, Ann::Closed, Ann::Open]);
        assert_eq!(a.count_open(), 2);
        assert_eq!(a.count_closed(), 1);
        assert_eq!(a.open_positions().collect::<Vec<_>>(), vec![0, 2]);
        assert!(!a.is_all_open() && !a.is_all_closed());
    }

    #[test]
    fn coincidence_on_closed_positions() {
        // (a^cl, ⊥^op): any tuple agreeing on position 0 coincides.
        let ann = Annotation::new(vec![Ann::Closed, Ann::Open]);
        let refr = Tuple::new(vec![Value::c("a"), Value::c("x")]);
        assert!(ann.coincide_on_closed(&Tuple::from_names(&["a", "whatever"]), &refr));
        assert!(!ann.coincide_on_closed(&Tuple::from_names(&["b", "x"]), &refr));
    }

    #[test]
    fn covers_via_open_positions() {
        // Rep_A({(a^cl, ⊥^op)}): first attribute must be a.
        let mut r = AnnRelation::new(2);
        r.insert(at(
            vec![Value::c("a"), Value::c("v")], // valued open null
            vec![Ann::Closed, Ann::Open],
        ));
        assert!(r.covers(&Tuple::from_names(&["a", "anything"])));
        assert!(!r.covers(&Tuple::from_names(&["b", "v"])));
    }

    #[test]
    fn all_open_empty_mark_licenses_everything() {
        let mut r = AnnRelation::new(2);
        r.insert_empty_mark(Annotation::all_open(2));
        assert!(r.covers(&Tuple::from_names(&["q", "r"])));
        let mut r2 = AnnRelation::new(2);
        r2.insert_empty_mark(Annotation::new(vec![Ann::Closed, Ann::Open]));
        assert!(!r2.covers(&Tuple::from_names(&["q", "r"])));
    }

    #[test]
    fn rel_part_strips_annotations_and_empties() {
        let mut t = AnnInstance::new();
        let r = RelSym::new("R_annot");
        t.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(0)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        t.insert_empty_mark(r, Annotation::all_open(2));
        let rp = t.rel_part();
        assert_eq!(rp.tuple_count(), 1);
        assert!(rp.contains(r, &Tuple::new(vec![Value::c("a"), Value::null(0)])));
    }

    #[test]
    fn same_tuple_different_annotations_coexist() {
        // CSol_A can contain (a^op, ⊥1^cl) and (a^cl, ⊥2^op) in one relation.
        let mut t = AnnInstance::new();
        let r = RelSym::new("R_coexist");
        t.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(1)],
                vec![Ann::Open, Ann::Closed],
            ),
        );
        t.insert(
            r,
            at(
                vec![Value::c("a"), Value::null(2)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        assert_eq!(t.tuple_count(), 2);
    }

    #[test]
    fn covers_instance_checks_all_relations() {
        let mut t = AnnInstance::new();
        let r = RelSym::new("CovR");
        t.insert(
            r,
            at(
                vec![Value::c("a"), Value::c("b")],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        let mut good = Instance::new();
        good.insert(r, Tuple::from_names(&["a", "zzz"]));
        assert!(t.covers_instance(&good));
        let mut bad = good.clone();
        bad.insert_names("Undeclared", &["u"]);
        assert!(!t.covers_instance(&bad));
    }

    #[test]
    fn valuation_preserves_annotations() {
        let mut t = AnnInstance::new();
        let r = RelSym::new("ValR");
        t.insert(
            r,
            at(
                vec![Value::null(0), Value::null(1)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        let v = Valuation::from_pairs([
            (NullId(0), ConstId::new("p")),
            (NullId(1), ConstId::new("q")),
        ]);
        let tv = t.apply(&v);
        let at0 = tv.tuples(r).next().unwrap();
        assert_eq!(at0.tuple, Tuple::from_names(&["p", "q"]));
        assert_eq!(at0.ann, Annotation::new(vec![Ann::Closed, Ann::Open]));
    }

    #[test]
    fn display_annotated_tuple() {
        let t = at(
            vec![Value::c("a"), Value::null(0)],
            vec![Ann::Closed, Ann::Open],
        );
        assert_eq!(t.to_string(), "(a^cl, ⊥0^op)");
    }
}
