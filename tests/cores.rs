//! Integration tests for cores of canonical solutions (the FKP \[12\]
//! "getting to the core" machinery) against the paper's semantics: positive
//! certain answers are invariant under taking cores, and the annotated core
//! is itself a `Σα`-solution.

use oc_exchange::chase::core::{
    ann_core_of, ann_isomorphic, core_of, find_ann_hom, hom_equivalent,
};
use oc_exchange::chase::hom::{apply_null_map, find_hom_into_expansion, find_onto_hom};
use oc_exchange::chase::{canonical_solution, solutions, Mapping, NullMap};
use oc_exchange::logic::Query;
use oc_exchange::workloads::random_gen;
use oc_exchange::{
    Ann, AnnInstance, AnnTuple, Annotation, Instance, NullId, RelSym, Schema, Tuple, Value,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;

/// Positive-query certain answers (Prop 3: naive evaluation) agree between
/// the canonical solution and its core: the two are homomorphically
/// equivalent, and UCQ answers without nulls are hom-invariant.
#[test]
fn positive_certain_answers_invariant_under_core() {
    let m = Mapping::parse("IcTgt(x:cl, z:op) <- IcSrc(x, y); IcLink(x:cl, y:cl) <- IcSrc(x, y)")
        .unwrap();
    let mut s = Instance::new();
    s.insert_names("IcSrc", &["a", "p"]);
    s.insert_names("IcSrc", &["a", "q"]);
    s.insert_names("IcSrc", &["b", "p"]);
    let csol = canonical_solution(&m, &s);
    let core = ann_core_of(&csol.instance);
    assert!(core.core.tuple_count() < csol.instance.tuple_count());

    // A CQ joining the two target relations.
    let q = Query::parse(&["x"], "(exists z. IcTgt(x, z)) & (exists y. IcLink(x, y))").unwrap();
    let on_csol = q.naive_certain_answers(&csol.instance.rel_part());
    let on_core = q.naive_certain_answers(&core.core.rel_part());
    assert_eq!(on_csol, on_core);
    assert!(!on_csol.is_empty());
}

/// The annotated core of `CSol_A(S)` is a `Σα`-solution for every sampled
/// random mapping/source pair (Proposition 1 both ways).
#[test]
fn ann_core_is_solution_randomized() {
    let schema = Schema::from_pairs([("CrA", 2), ("CrB", 1)]);
    for seed in 0..40u64 {
        let mut rng = random_gen::rng(seed);
        let m = random_gen::random_mapping(&schema, 1, 0.5, &mut rng);
        let s = random_gen::random_instance(&schema, 3, 3, &mut rng);
        let csol = canonical_solution(&m, &s);
        let core = ann_core_of(&csol.instance);
        assert!(
            solutions::is_solution(&m, &s, &core.core).is_some(),
            "seed {seed}: annotated core must be a Σα-solution"
        );
        assert!(
            solutions::is_solution(&m, &s, &csol.instance).is_some(),
            "seed {seed}: CSol_A(S) itself must be a Σα-solution"
        );
        // And it stays hom-equivalent to the canonical solution.
        assert!(find_ann_hom(&csol.instance, &core.core).is_some());
        assert!(find_ann_hom(&core.core, &csol.instance).is_some());
    }
}

/// FKP core can be strictly smaller than the annotated (Null→Null) core when
/// the source supplies ground support for invented nulls.
#[test]
fn fkp_core_sharper_than_annotated_core() {
    // Copy the edge AND invent a null companion: (a,b) supports ⊥ ↦ b.
    let m = Mapping::parse("CfE(x:cl, y:cl) <- CfS(x, y); CfE(x:cl, z:cl) <- CfS(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("CfS", &["a", "b"]);
    let csol = canonical_solution(&m, &s);
    let ground = csol.instance.rel_part();
    let fkp = core_of(&ground);
    let ann = ann_core_of(&csol.instance);
    assert_eq!(fkp.core.tuple_count(), 1, "⊥ collapses onto constant b");
    assert_eq!(ann.core.tuple_count(), 2, "null→null maps cannot reach b");
    assert!(hom_equivalent(&ground, &fkp.core));
}

/// Cores never change the ground part of an instance.
#[test]
fn core_preserves_ground_tuples() {
    let m = Mapping::parse("CgT(x:cl, y:cl) <- CgS(x, y); CgP(x:cl, z:op) <- CgS(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("CgS", &["a", "b"]);
    s.insert_names("CgS", &["c", "d"]);
    let csol = canonical_solution(&m, &s);
    let core = ann_core_of(&csol.instance);
    let ground_before: Vec<_> = csol
        .instance
        .rel_part()
        .tuples(oc_exchange::RelSym::new("CgT"))
        .cloned()
        .collect();
    let ground_after: Vec<_> = core
        .core
        .rel_part()
        .tuples(oc_exchange::RelSym::new("CgT"))
        .cloned()
        .collect();
    assert_eq!(ground_before, ground_after);
}

/// A relation that `AnnInstance::remove` emptied stays declared; the
/// null-map checks read it as absent in either argument order.
#[test]
fn emptied_relation_does_not_break_symmetry() {
    let (r, s) = (RelSym::new("EmR"), RelSym::new("EmS"));
    let open = |v: Value| AnnTuple::new(Tuple::new(vec![v]), Annotation::all_open(1));
    let mut a = AnnInstance::new();
    a.insert(r, open(Value::null(1)));
    let mut b = AnnInstance::new();
    b.insert(r, open(Value::null(2)));
    let gone = open(Value::c("s"));
    b.insert(s, gone.clone());
    assert!(b.remove(s, &gone));
    assert!(
        b.relation(s).is_some(),
        "the emptied relation stays declared"
    );
    let mut emptied = a.clone();
    emptied.insert(s, gone.clone());
    emptied.remove(s, &gone);
    assert_eq!(a, emptied, "an emptied relation reads as absent");
    assert!(ann_isomorphic(&a, &b).is_some(), "ann_isomorphic(a, b)");
    assert!(ann_isomorphic(&b, &a).is_some(), "ann_isomorphic(b, a)");
    assert!(find_onto_hom(&a, &b).is_some(), "find_onto_hom(a, b)");
    assert!(find_onto_hom(&b, &a).is_some(), "find_onto_hom(b, a)");
}

/// A random annotated instance over `OrA/2` and `OrB/1`: up to three tuples
/// with constants `a`, `b` and nulls `⊥0 … ⊥3`, random annotations, and now
/// and then an all-open empty marker.
fn random_ann_instance(rng: &mut StdRng) -> AnnInstance {
    let rels = [(RelSym::new("OrA"), 2), (RelSym::new("OrB"), 1)];
    let mut inst = AnnInstance::new();
    for _ in 0..rng.gen_range(1..4) {
        let (r, arity) = rels[rng.gen_range(0..2)];
        let vals: Vec<Value> = (0..arity)
            .map(|_| match rng.gen_range(0..6) {
                0 => Value::c("a"),
                1 => Value::c("b"),
                _ => Value::null(rng.gen_range(0..4)),
            })
            .collect();
        let anns: Vec<Ann> = (0..arity)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Ann::Closed
                } else {
                    Ann::Open
                }
            })
            .collect();
        inst.insert(r, AnnTuple::new(Tuple::new(vals), Annotation::new(anns)));
    }
    if rng.gen_range(0..4) == 0 {
        inst.insert_empty_mark(rels[0].0, Annotation::all_open(2));
    }
    inst
}

/// Every total map from `dom` into `range`.
fn all_maps(dom: &[NullId], range: &[NullId]) -> Vec<NullMap> {
    let mut maps = vec![NullMap::new()];
    for &n in dom {
        maps = maps
            .into_iter()
            .flat_map(|h| {
                range.iter().map(move |&m| {
                    let mut h = h.clone();
                    h.insert(n, m);
                    h
                })
            })
            .collect();
    }
    maps
}

fn image(v: Value, h: &NullMap) -> Value {
    match v {
        Value::Null(n) => Value::Null(*h.get(&n).unwrap_or(&n)),
        c => c,
    }
}

fn tuples_of(inst: &AnnInstance) -> BTreeSet<(RelSym, AnnTuple)> {
    inst.relations()
        .flat_map(|(r, rel)| rel.iter().map(move |at| (r, at.clone())))
        .collect()
}

fn marks_of(inst: &AnnInstance) -> BTreeSet<(RelSym, Annotation)> {
    inst.relations()
        .flat_map(|(r, rel)| rel.empty_marks().map(move |m| (r, m.clone())))
        .collect()
}

fn image_tuples(inst: &AnnInstance, h: &NullMap) -> BTreeSet<(RelSym, AnnTuple)> {
    tuples_of(inst)
        .into_iter()
        .map(|(r, at)| {
            let vals: Vec<Value> = at.tuple.iter().map(|v| image(v, h)).collect();
            (r, AnnTuple::new(Tuple::new(vals), at.ann))
        })
        .collect()
}

/// `h` is an annotation-preserving homomorphism `from → to`.
fn is_hom(h: &NullMap, from: &AnnInstance, to: &AnnInstance) -> bool {
    image_tuples(from, h).is_subset(&tuples_of(to)) && marks_of(from).is_subset(&marks_of(to))
}

/// `h(from) = to` exactly.
fn is_onto(h: &NullMap, from: &AnnInstance, to: &AnnInstance) -> bool {
    image_tuples(from, h) == tuples_of(to) && marks_of(from) == marks_of(to)
}

/// `h` renames the nulls of `a` bijectively onto those of `b`, and `h(a) = b`.
fn is_iso(h: &NullMap, a: &AnnInstance, b: &AnnInstance) -> bool {
    let range: BTreeSet<NullId> = a.nulls().iter().map(|n| h[n]).collect();
    range == b.nulls() && a.nulls().len() == b.nulls().len() && is_onto(h, a, b)
}

/// `h` maps `t` into an expansion of `csol` (Proposition 1): every image
/// tuple coincides with some `csol` tuple on that tuple's closed positions,
/// and every empty marker of `t` occurs in `csol`.
fn is_into_expansion(h: &NullMap, t: &AnnInstance, csol: &AnnInstance) -> bool {
    image_tuples(t, h).iter().all(|(r, at)| {
        csol.tuples(*r).any(|cand| {
            cand.ann
                .closed_positions()
                .all(|p| at.tuple.get(p) == cand.tuple.get(p))
        })
    }) && marks_of(t).is_subset(&marks_of(csol))
}

/// The one search against brute force: on small random annotated instances,
/// each homomorphism search finds a map exactly when enumerating every
/// null → null map does, and every map it returns meets its definition.
/// Maps range over the target's nulls plus one fresh null (which no closed
/// position can match, so it stands for every other null).
#[test]
fn null_map_searches_agree_with_brute_force() {
    type Definition = fn(&NullMap, &AnnInstance, &AnnInstance) -> bool;
    type Search = fn(&AnnInstance, &AnnInstance) -> Option<NullMap>;
    let checks: [(&str, Search, Definition); 4] = [
        ("find_ann_hom", find_ann_hom, is_hom),
        ("find_onto_hom", find_onto_hom, is_onto),
        ("ann_isomorphic", ann_isomorphic, is_iso),
        (
            "find_hom_into_expansion",
            find_hom_into_expansion,
            is_into_expansion,
        ),
    ];
    let mut found = [0usize; 4];
    for seed in 0..300u64 {
        let mut rng = random_gen::rng(seed);
        let a = random_ann_instance(&mut rng);
        // Mostly `b` is an image of `a` (a renaming, or a merge plus maybe
        // one more tuple), so that maps exist often enough to matter.
        let b = match rng.gen_range(0..4) {
            0 => random_ann_instance(&mut rng),
            1 => {
                let rename: NullMap = a
                    .nulls()
                    .into_iter()
                    .map(|n| (n, NullId(n.0 + 10)))
                    .collect();
                apply_null_map(&a, &rename)
            }
            k => {
                let merge: NullMap = a
                    .nulls()
                    .into_iter()
                    .map(|n| (n, NullId(rng.gen_range(0..4))))
                    .collect();
                let mut b = apply_null_map(&a, &merge);
                if k == 3 {
                    for (r, at) in tuples_of(&random_ann_instance(&mut rng))
                        .into_iter()
                        .take(1)
                    {
                        b.insert(r, at);
                    }
                }
                b
            }
        };
        for (from, to) in [(&a, &b), (&b, &a)] {
            let dom: Vec<NullId> = from.nulls().into_iter().collect();
            let mut range: Vec<NullId> = to.nulls().into_iter().collect();
            range.push(NullId(99));
            let maps = all_maps(&dom, &range);
            for (i, (name, search, definition)) in checks.iter().enumerate() {
                let brute = maps.iter().any(|h| definition(h, from, to));
                let got = search(from, to);
                assert_eq!(
                    got.is_some(),
                    brute,
                    "seed {seed}: {name}\nfrom = {from}\nto = {to}"
                );
                if let Some(h) = got {
                    found[i] += 1;
                    assert!(
                        definition(&h, from, to),
                        "seed {seed}: {name} returned {h:?}"
                    );
                }
            }
        }
    }
    // Every search meets inputs on both sides of its decision.
    assert!(found.iter().all(|&f| (20..580).contains(&f)), "{found:?}");
}
