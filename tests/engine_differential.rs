//! Differential testing of the two chase engines.
//!
//! `dx_chase::NaiveChase` (rescan-everything nested loops) is the reference
//! oracle; `dx_engine::IndexedChase` (stable-id store, delta work-queue,
//! trigger queries on the compiled-plan walk) is the fast implementation.
//! A chase result is unique only up to homomorphic equivalence, so the
//! harness compares:
//!
//! * **outcomes** (satisfied / failed / step-limit kind),
//! * **cross-engine dependency satisfaction** — each engine's `satisfies`
//!   accepts the other engine's result,
//! * **homomorphic equivalence** of the annotated results, and
//! * **isomorphism of the annotated cores** (the canonical representative
//!   of the equivalence class), via `dx_chase::hom` / `core` machinery.
//!
//! The second half of the file property-tests the engine's index
//! maintenance: random insert / merge (`replace_value`) workloads against a
//! model `AnnInstance`, with `IndexedInstance::check_invariants` (full
//! index-vs-slot-table verification) after every mutation batch.

use oc_exchange::chase::chase_engine::{ChaseOutcome, ChaseResult, DEFAULT_CHASE_LIMIT};
use oc_exchange::chase::core::{ann_core_of, ann_hom_equivalent, ann_isomorphic};
use oc_exchange::chase::target_deps::TargetDep;
use oc_exchange::chase::{canonical_solution_with_deps_via, ChaseStrategy, Mapping, NaiveChase};
use oc_exchange::engine::{IndexedChase, IndexedInstance, Inserted};
use oc_exchange::query::QueryStore;
use oc_exchange::workloads::{conference, copying, random_gen};
use oc_exchange::{Ann, AnnInstance, AnnTuple, Annotation, Instance, RelSym, Schema, Tuple, Value};
use rand::Rng;
use std::ops::ControlFlow;

/// Chase the same exchange problem with both engines.
fn chase_both(
    mapping: &Mapping,
    deps: &[TargetDep],
    source: &Instance,
) -> (ChaseResult, ChaseResult) {
    let naive =
        canonical_solution_with_deps_via(&NaiveChase, mapping, deps, source, DEFAULT_CHASE_LIMIT);
    let indexed =
        canonical_solution_with_deps_via(&IndexedChase, mapping, deps, source, DEFAULT_CHASE_LIMIT);
    (naive, indexed)
}

/// The full cross-engine agreement check for one case.
fn assert_agreement(case: &str, deps: &[TargetDep], naive: &ChaseResult, indexed: &ChaseResult) {
    assert_eq!(
        std::mem::discriminant(&naive.outcome),
        std::mem::discriminant(&indexed.outcome),
        "{case}: outcomes diverge: naive {:?} vs indexed {:?}\nnaive result:\n{}\nindexed result:\n{}",
        naive.outcome,
        indexed.outcome,
        naive.instance,
        indexed.instance,
    );
    assert!(
        !matches!(naive.outcome, ChaseOutcome::StepLimit),
        "{case}: weakly acyclic deps must terminate"
    );
    if naive.outcome != ChaseOutcome::Satisfied {
        return; // failed chases carry best-effort instances; nothing more to compare
    }
    // Cross-engine satisfaction: each engine accepts both results.
    for (engine_name, engine) in [
        ("naive", &NaiveChase as &dyn ChaseStrategy),
        ("indexed", &IndexedChase as &dyn ChaseStrategy),
    ] {
        assert!(
            engine.satisfies(&naive.instance, deps),
            "{case}: {engine_name} rejects the naive result"
        );
        assert!(
            engine.satisfies(&indexed.instance, deps),
            "{case}: {engine_name} rejects the indexed result"
        );
    }
    // Same solution up to homomorphic equivalence…
    assert!(
        ann_hom_equivalent(&naive.instance, &indexed.instance),
        "{case}: results are not hom-equivalent\nnaive:\n{}\nindexed:\n{}",
        naive.instance,
        indexed.instance,
    );
    // …and the canonical representatives (annotated cores) are isomorphic.
    let core_n = ann_core_of(&naive.instance).core;
    let core_i = ann_core_of(&indexed.instance).core;
    assert!(
        ann_isomorphic(&core_n, &core_i).is_some(),
        "{case}: cores are not isomorphic\nnaive core:\n{core_n}\nindexed core:\n{core_i}",
    );
}

/// ≥ 100 randomized exchange-with-constraints problems: random annotated
/// mapping, random ground source, random weakly acyclic tgd/egd set.
#[test]
fn differential_chase_random_cases() {
    let schema = Schema::from_pairs([("DfA", 2), ("DfB", 1)]);
    let mut satisfied = 0usize;
    let mut failed = 0usize;
    let mut with_steps = 0usize;
    for seed in 0..140u64 {
        let mut rng = random_gen::rng(seed);
        let m = random_gen::random_mapping(&schema, 1, 0.5, &mut rng);
        let s = random_gen::random_instance(&schema, rng.gen_range(1..4), 3, &mut rng);
        let deps = random_gen::random_target_deps(&m.target, 3, 0.4, &mut rng);
        let (naive, indexed) = chase_both(&m, &deps, &s);
        match naive.outcome {
            ChaseOutcome::Satisfied => satisfied += 1,
            ChaseOutcome::Failed { .. } => failed += 1,
            ChaseOutcome::StepLimit => {}
        }
        if naive.steps > 0 {
            with_steps += 1;
        }
        assert_agreement(&format!("seed {seed}"), &deps, &naive, &indexed);
    }
    // The generator must actually exercise the engine, not vacuously pass.
    assert!(satisfied >= 80, "only {satisfied} satisfied cases");
    assert!(with_steps >= 40, "only {with_steps} cases actually chased");
    assert!(
        satisfied + failed == 140,
        "weak acyclicity must rule out step limits"
    );
}

/// The copying workload (§4's lower-bound carrier) with FDs and symmetry
/// dependencies over the copied relations, at growing sizes.
#[test]
fn differential_chase_copying_workload() {
    let schema = Schema::from_pairs([("DcE", 2)]);
    let m = copying::copy_mapping(&schema, Ann::Closed);
    let deps = TargetDep::parse_many(
        "DcE_p(y:cl, x:cl) <- DcE_p(x, y); \
         DcT(x:cl, z:op) <- DcE_p(x, y); \
         z1 = z2 <- DcT(x, z1) & DcT(x, z2)",
    )
    .unwrap();
    for n in [2usize, 5, 10, 20] {
        let mut s = Instance::new();
        for i in 0..n {
            s.insert_names("DcE", &[&format!("v{i}"), &format!("v{}", i + 1)]);
        }
        let (naive, indexed) = chase_both(&m, &deps, &s);
        assert_eq!(naive.outcome, ChaseOutcome::Satisfied);
        // Symmetry doubles the edges; DcT invents one null per vertex with
        // the FD collapsing per-source duplicates.
        assert_agreement(&format!("copying n={n}"), &deps, &naive, &indexed);
    }
}

/// The §1 conference (membership-workload) mapping with review-uniqueness
/// and submission-invention dependencies.
#[test]
fn differential_chase_conference_workload() {
    let m = conference::mapping();
    let deps = TargetDep::parse_many(
        "Decisions(p:cl, d:op) <- Reviews(p, r); \
         d1 = d2 <- Decisions(p, d1) & Decisions(p, d2)",
    )
    .unwrap();
    for n in [2usize, 6, 12] {
        let s = conference::source(n, 2);
        let (naive, indexed) = chase_both(&m, &deps, &s);
        assert_eq!(naive.outcome, ChaseOutcome::Satisfied);
        let decisions = naive
            .instance
            .relation(RelSym::new("Decisions"))
            .expect("chase invents decisions");
        assert_eq!(decisions.len(), n, "one merged decision per paper");
        assert_agreement(&format!("conference n={n}"), &deps, &naive, &indexed);
    }
}

/// Egd-heavy differential: constant/constant clashes must fail in both
/// engines, null merges must agree.
#[test]
fn differential_chase_failure_cases() {
    let m = Mapping::parse("DfR(x:cl, y:cl) <- DfS(x, y)").unwrap();
    let deps = TargetDep::parse_many("y1 = y2 <- DfR(x, y1) & DfR(x, y2)").unwrap();
    // Clash: (a, k) and (a, l).
    let mut clash = Instance::new();
    clash.insert_names("DfS", &["a", "k"]);
    clash.insert_names("DfS", &["a", "l"]);
    let (naive, indexed) = chase_both(&m, &deps, &clash);
    assert!(matches!(naive.outcome, ChaseOutcome::Failed { .. }));
    assert!(matches!(indexed.outcome, ChaseOutcome::Failed { .. }));
    // No clash: keys are unique.
    let mut ok = Instance::new();
    ok.insert_names("DfS", &["a", "k"]);
    ok.insert_names("DfS", &["b", "l"]);
    let (naive, indexed) = chase_both(&m, &deps, &ok);
    assert_agreement("unique keys", &deps, &naive, &indexed);
}

/// Dependency shapes `random_gen::random_target_deps` never produces (it
/// makes FD egds, symmetry tgds and single-atom projections), each chased
/// through both engines: a body with a constant and a repeated variable, a
/// self-join a seed can play at either atom, a two-atom head sharing an
/// existential (a correlated anti-join in the indexed engine's trigger
/// query), a head already present under another annotation, a tgd with an
/// empty body (no delta tuple seeds its one match), and an egd with a
/// constant side, once merging and once failing on a constant clash.
#[test]
fn differential_chase_pinned_shapes() {
    type Facts<'a> = &'a [(&'a str, &'a [&'a str])];
    let cases: [(&str, &str, &str, Facts, usize); 7] = [
        (
            "constant and repeated variable",
            "PsR(x:cl, y:cl, z:cl) <- PsS(x, y, z)",
            "PsU(x:cl) <- PsR(x, x, 'c')",
            &[
                ("PsS", &["a", "a", "c"]),
                ("PsS", &["a", "b", "c"]),
                ("PsS", &["b", "b", "d"]),
                ("PsS", &["e", "e", "c"]),
            ],
            2,
        ),
        (
            "self-join on a cycle",
            "PsE(x:cl, y:cl) <- PsG(x, y)",
            "PsT(x:cl, z:cl) <- PsE(x, y) & PsE(y, z)",
            &[
                ("PsG", &["v0", "v1"]),
                ("PsG", &["v1", "v2"]),
                ("PsG", &["v2", "v0"]),
            ],
            3,
        ),
        (
            "two-atom head sharing an existential",
            "PsR2(x:cl, y:cl) <- PsS2(x, y); PsA(x:cl, y:cl) <- PsPreA(x, y); \
             PsB(x:cl, y:cl) <- PsPreB(x, y)",
            "PsA(x:cl, z:op), PsB(z:op, y:cl) <- PsR2(x, y)",
            // (a, b) is satisfied through z = m; (a, c) is not: the only
            // B-tuple reaching c starts at n, which A does not reach.
            &[
                ("PsS2", &["a", "b"]),
                ("PsS2", &["a", "c"]),
                ("PsPreA", &["a", "m"]),
                ("PsPreB", &["m", "b"]),
                ("PsPreB", &["n", "c"]),
            ],
            1,
        ),
        (
            "head present under another annotation",
            "PsH(x:op) <- PsK(x); PsD(x:cl) <- PsK(x)",
            "PsH(x:cl) <- PsD(x)",
            &[("PsK", &["a"])],
            0,
        ),
        (
            "empty body",
            "PsT1(x:cl) <- PsS1(x)",
            "PsU1(z:op) <- true",
            &[("PsS1", &["a"])],
            1,
        ),
        (
            "egd with a constant side, merging",
            "PsKv(x:cl, z:op) <- PsSrc(x)",
            "y = 'k' <- PsKv(x, y)",
            &[("PsSrc", &["a"]), ("PsSrc", &["b"])],
            2,
        ),
        (
            "egd with a constant side, clashing",
            "PsKv(x:cl, z:op) <- PsSrc(x); PsKv(x:cl, y:cl) <- PsPair(x, y)",
            "y = 'k' <- PsKv(x, y)",
            &[("PsSrc", &["a"]), ("PsPair", &["a", "m"])],
            0,
        ),
    ];
    for (case, rules, deps, facts, steps) in cases {
        let m = Mapping::parse(rules).unwrap();
        let deps = TargetDep::parse_many(deps).unwrap();
        let mut s = Instance::new();
        for (rel, names) in facts {
            s.insert_names(rel, names);
        }
        let (naive, indexed) = chase_both(&m, &deps, &s);
        if case.ends_with("clashing") {
            assert!(
                matches!(indexed.outcome, ChaseOutcome::Failed { .. }),
                "{case}"
            );
        } else {
            assert_eq!(indexed.outcome, ChaseOutcome::Satisfied, "{case}");
            assert_eq!(indexed.steps, steps, "{case}");
            assert_eq!(naive.steps, steps, "{case}");
        }
        assert_agreement(case, &deps, &naive, &indexed);
    }
}

// ---------------------------------------------------------------------------
// Index-maintenance property tests
// ---------------------------------------------------------------------------

/// Apply `replace_value` semantics to a model instance.
fn model_replace(model: &AnnInstance, from: Value, to: Value) -> AnnInstance {
    let mut out = AnnInstance::new();
    for (rel, arel) in model.relations() {
        for at in arel.iter() {
            let vals: Vec<Value> = at
                .tuple
                .iter()
                .map(|v| if v == from { to } else { v })
                .collect();
            out.insert(rel, AnnTuple::new(Tuple::new(vals), at.ann.clone()));
        }
        for m in arel.empty_marks() {
            out.insert_empty_mark(rel, m.clone());
        }
    }
    out
}

/// The store's walk under the unbound pattern and every single-column
/// pattern over the model's values yields exactly the matching tuples of
/// the model's `rel(·)`, each once, however many annotations a tuple is
/// live under.
fn assert_walk_matches_model(
    store: &IndexedInstance,
    model: &AnnInstance,
    rels: &[(RelSym, usize)],
    seed: u64,
) {
    let rel_part = model.rel_part();
    let values = model.active_domain();
    for &(rel, arity) in rels {
        let mut patterns = vec![vec![None; arity]];
        for c in 0..arity {
            for &v in &values {
                let mut p = vec![None; arity];
                p[c] = Some(v);
                patterns.push(p);
            }
        }
        for p in patterns {
            let mut walked = Vec::new();
            let _ = store.for_each_matching(rel, &p, &mut |t| {
                walked.push(t.clone());
                ControlFlow::Continue(())
            });
            walked.sort();
            let expected: Vec<Tuple> = (rel_part.tuples(rel))
                .filter(|t| (p.iter().enumerate()).all(|(c, v)| v.is_none_or(|v| t.get(c) == v)))
                .cloned()
                .collect();
            assert_eq!(walked, expected, "seed {seed}: walk of {p:?} over {rel}");
        }
    }
}

/// Random insert / merge workloads: after every mutation the indexed store
/// must (a) pass full invariant verification and (b) agree with a model
/// `AnnInstance` maintained by the straightforward definition. The
/// egd-style null merge (`replace_value`) is the tricky path: it retracts,
/// rewrites, re-inserts, and may collide rewritten tuples with live ones.
#[test]
fn index_maintenance_under_insert_and_merge() {
    let rels = [
        (RelSym::new("ImR"), 2usize),
        (RelSym::new("ImS"), 3usize),
        (RelSym::new("ImU"), 1usize),
    ];
    for seed in 0..120u64 {
        let mut rng = random_gen::rng(seed + 10_000);
        let mut store = IndexedInstance::new();
        let mut model = AnnInstance::new();
        let value_pool = |rng: &mut rand::rngs::StdRng| -> Value {
            if rng.gen_bool(0.45) {
                Value::null(rng.gen_range(0..5u32))
            } else {
                Value::c(["a", "b", "c"][rng.gen_range(0..3)])
            }
        };
        for _op in 0..rng.gen_range(5..25) {
            if rng.gen_bool(0.7) || model.tuple_count() == 0 {
                // Insert a random annotated tuple.
                let (rel, arity) = rels[rng.gen_range(0..rels.len())];
                let vals: Vec<Value> = (0..arity).map(|_| value_pool(&mut rng)).collect();
                let ann = Annotation::new(
                    (0..arity)
                        .map(|_| {
                            if rng.gen_bool(0.5) {
                                Ann::Closed
                            } else {
                                Ann::Open
                            }
                        })
                        .collect::<Vec<_>>(),
                );
                let at = AnnTuple::new(Tuple::new(vals), ann);
                let was_new = model.insert(rel, at.clone());
                let inserted = store.insert(rel, at);
                assert_eq!(
                    was_new,
                    matches!(inserted, Inserted::Fresh(_)),
                    "seed {seed}: dedup disagrees with model"
                );
            } else {
                // Merge a null into another value (the egd path).
                let nulls: Vec<_> = model.nulls().into_iter().collect();
                if nulls.is_empty() {
                    continue;
                }
                let from = Value::Null(nulls[rng.gen_range(0..nulls.len())]);
                let to = value_pool(&mut rng);
                if from == to {
                    continue;
                }
                model = model_replace(&model, from, to);
                store.replace_value(from, to);
            }
            store
                .check_invariants()
                .unwrap_or_else(|e| panic!("seed {seed}: invariant violated: {e}"));
            assert_eq!(
                store.to_ann(),
                model,
                "seed {seed}: store diverged from model"
            );
            assert_walk_matches_model(&store, &model, &rels, seed);
        }
        // Dead slots accumulate but live counts match the model exactly.
        assert_eq!(store.live_count(), model.tuple_count());
    }
}

/// Merge chains: repeatedly merging nulls into one another (including
/// null → null and null → constant hops) keeps indexes consistent and ends
/// fully merged.
#[test]
fn index_maintenance_merge_chains() {
    let r = RelSym::new("ImChain");
    for seed in 0..40u64 {
        let mut rng = random_gen::rng(seed + 99_000);
        let mut store = IndexedInstance::new();
        let n = rng.gen_range(3..8u32);
        for i in 0..n {
            store.insert(
                r,
                AnnTuple::new(
                    Tuple::new(vec![Value::c("k"), Value::null(i)]),
                    Annotation::all_closed(2),
                ),
            );
        }
        // Chain ⊥0 ← ⊥1 ← … then ⊥0 → constant.
        for i in (1..n).rev() {
            store.replace_value(Value::null(i), Value::null(i - 1));
            store.check_invariants().unwrap();
        }
        store.replace_value(Value::null(0), Value::c("done"));
        store.check_invariants().unwrap();
        assert_eq!(store.live_count(), 1, "seed {seed}: everything merges");
        let final_ann = store.to_ann();
        let only = final_ann.tuples(r).next().unwrap();
        assert_eq!(only.tuple, Tuple::from_names(&["k", "done"]));
    }
}
