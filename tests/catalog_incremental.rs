//! Differential testing of the plan catalog and the incremental `Rep_A`
//! solver.
//!
//! Two properties are asserted, both as **exact equality**, not mere
//! equivalence:
//!
//! 1. **Catalog transparency** — every `_via` pipeline drawing compiled
//!    plans from the shared [`PlanCatalog`] returns bit-identical results
//!    to a fresh, uncached compile (and to the tree-walking oracle where
//!    one exists), on first use and on cache hits alike;
//! 2. **Incremental-store soundness** — the valuation search's single
//!    delta-maintained index agrees with a rebuild-per-candidate oracle at
//!    *every leaf* of randomized searches over mixed open/closed
//!    annotations: same per-leaf verdicts, same leaf counts, same
//!    outcomes, and every leaf instance is a genuine `Rep_A(T)` member.

use oc_exchange::chase::{canonical_solution, Mapping, NaiveChase};
use oc_exchange::core as dxcore;
use oc_exchange::core::Exchange;
use oc_exchange::ctables::{RaExpr, RaPred};
use oc_exchange::engine::IndexedChase;
use oc_exchange::logic::Query;
use oc_exchange::query::{PlanCatalog, QueryEval};
use oc_exchange::relation::InstanceIndex;
use oc_exchange::solver::{rep_a_membership, search_rep_a_indexed, SearchBudget};
use oc_exchange::{
    Ann, AnnInstance, AnnTuple, Annotation, ConstId, Instance, RelSym, Tuple, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn conference_source() -> Instance {
    // Two papers ⇒ two canonical-solution nulls: the refutation regimes
    // exhaust their valuation spaces in tens of leaves, not millions (the
    // coNP search is exponential in the null count by design).
    let mut s = Instance::new();
    for i in 0..2 {
        s.insert_names("CiPapers", &[&format!("p{i}"), &format!("t{i}")]);
    }
    s
}

/// Catalog-backed pipeline results are bit-identical to fresh compiles and
/// stable across repeated (cached) runs, for every `_via` pipeline and
/// chase strategy.
#[test]
fn cached_plans_bit_identical_across_via_pipelines() {
    let mapping =
        Mapping::parse("CiSub(x:cl, z:cl) <- CiPapers(x, y); CiAll(x:cl) <- CiPapers(x, y)")
            .unwrap();
    let source = conference_source();
    let queries = [
        Query::parse(&["x"], "exists z. CiSub(x, z)").unwrap(),
        Query::parse(&["x"], "CiAll(x) & !(exists z. CiSub(x, z) & z = 'ghost')").unwrap(),
        Query::boolean(
            oc_exchange::logic::parse_formula(
                "forall p a1 a2. (CiSub(p, a1) & CiSub(p, a2) -> a1 = a2)",
            )
            .unwrap(),
        ),
    ];
    let strategies: [&dyn oc_exchange::chase::ChaseStrategy; 2] = [&NaiveChase, &IndexedChase];
    for query in &queries {
        // The uncached oracle: a private QueryEval compiled fresh here.
        let fresh = QueryEval::new(query);
        let csol = canonical_solution(&mapping, &source).rel_part();
        let oracle_answers = fresh.naive_certain_answers(&csol);
        let mut runs = Vec::new();
        for _ in 0..2 {
            for strategy in strategies {
                let (rel, comp) = Exchange::with_strategy(strategy, &mapping, &source)
                    .certain_answers(query, None);
                assert_eq!(comp, oc_exchange::solver::Completeness::Exact);
                runs.push(rel);
            }
        }
        // All runs identical (first compile == cache hits, naive == indexed).
        for r in &runs[1..] {
            assert_eq!(r, &runs[0], "{query:?}");
        }
        // Positive queries additionally match the fresh-compile evaluation.
        if oc_exchange::logic::classify::is_positive(&query.formula) {
            assert_eq!(runs[0], oracle_answers, "{query:?}");
        }
    }

    // The c-table CWA routes: catalog-backed, repeat-stable, and equal to
    // the interpreting fallback.
    let ra = RaExpr::rel("CiSub")
        .select(RaPred::col_is(1, "t0"))
        .project([0]);
    let ex = Exchange::new(&mapping, &source);
    let a1 = ex.certain_answers_cwa_ra(&ra);
    let a2 = ex.certain_answers_cwa_ra(&ra);
    assert_eq!(a1, a2);
    let cinst = ex.csol_as_ctable();
    assert_eq!(
        a1,
        oc_exchange::ctables::certain_answers_ra(&ra, &cinst),
        "plan route equals interpreter route"
    );
    let fo = Query::parse(&["x"], "exists z. CiSub(x, z) & !CiAll(x)").unwrap();
    let f1 = ex.certain_answers_cwa_fo(&fo).unwrap();
    let f2 = ex.certain_answers_cwa_fo(&fo).unwrap();
    assert_eq!(f1, f2);

    // The shared catalog actually served these pipelines: repeated runs
    // produced hits.
    let stats = PlanCatalog::shared().stats();
    assert!(stats.entries > 0, "pipelines populate the shared catalog");
    assert!(stats.hits > 0, "repeat runs are answered from the cache");
}

/// A check reading the leaf's live index and one reading its instance view
/// are the same search: same leaves, same outcome, on a mixed-annotation
/// instance.
#[test]
fn closure_and_indexed_apis_are_one_search() {
    let rel = RelSym::new("CiMix");
    let mut t = AnnInstance::new();
    t.insert(
        rel,
        AnnTuple::new(
            Tuple::new(vec![Value::c("a"), Value::null(1)]),
            Annotation::new(vec![Ann::Closed, Ann::Open]),
        ),
    );
    t.insert(
        rel,
        AnnTuple::new(
            Tuple::new(vec![Value::null(1), Value::null(2)]),
            Annotation::all_closed(2),
        ),
    );
    let budget = SearchBudget::bounded(1, 2);
    let via_closure = search_rep_a_indexed(&t, &BTreeSet::new(), &budget, &mut |leaf| {
        leaf.index().rel_len(rel) >= 4
    });
    let via_leaf = search_rep_a_indexed(&t, &BTreeSet::new(), &budget, &mut |leaf| {
        leaf.instance().tuple_count() >= 4
    });
    assert_eq!(via_closure.leaves, via_leaf.leaves);
    assert_eq!(via_closure.completeness, via_leaf.completeness);
    assert_eq!(via_closure.witness, via_leaf.witness);
}

/// Randomized open/closed annotated instances: at every leaf, a compiled
/// plan probing the incremental index must agree with (a) the same plan on
/// a freshly built snapshot index of the leaf instance (the
/// rebuild-per-candidate oracle) and (b) the tree-walking evaluator; and
/// the leaf instance itself must be a genuine `Rep_A(T)` member.
#[test]
fn incremental_search_agrees_with_rebuild_oracle_randomized() {
    let mut rng = StdRng::seed_from_u64(0xC1AB5);
    let rel_e = RelSym::new("CiE");
    let rel_v = RelSym::new("CiV");
    // A fixed pool of safe-range boolean queries over the search schema.
    let queries: Vec<Query> = [
        "exists x y. CiE(x, y) & CiV(y)",
        "exists x. CiV(x) & !(exists y. CiE(x, y))",
        "exists x y. CiE(x, y) & (CiV(x) | CiE(y, x))",
        "forall x y. (CiE(x, y) -> x = y)",
    ]
    .iter()
    .map(|src| Query::boolean(oc_exchange::logic::parse_formula(src).unwrap()))
    .collect();
    let consts = ["a", "b", "c"];
    let empty = Tuple::new(Vec::<Value>::new());

    for case in 0..48 {
        // Random annotated instance: 1–3 binary CiE tuples, 0–2 unary CiV
        // tuples, values from a small const pool + nulls ⊥1..⊥3 (repeats
        // likely), random per-position open/closed annotations, sometimes
        // an all-open empty marker.
        let mut t = AnnInstance::new();
        let val = |rng: &mut StdRng| -> Value {
            if rng.gen_bool(0.4) {
                Value::null(rng.gen_range(1..4) as u32)
            } else {
                Value::c(consts[rng.gen_range(0..consts.len())])
            }
        };
        for _ in 0..rng.gen_range(1..4) {
            let tuple = Tuple::new(vec![val(&mut rng), val(&mut rng)]);
            let ann = Annotation::new(vec![
                if rng.gen_bool(0.5) {
                    Ann::Open
                } else {
                    Ann::Closed
                },
                if rng.gen_bool(0.5) {
                    Ann::Open
                } else {
                    Ann::Closed
                },
            ]);
            t.insert(rel_e, AnnTuple::new(tuple, ann));
        }
        for _ in 0..rng.gen_range(0..3) {
            let tuple = Tuple::new(vec![val(&mut rng)]);
            let ann = Annotation::new(vec![if rng.gen_bool(0.5) {
                Ann::Open
            } else {
                Ann::Closed
            }]);
            t.insert(rel_v, AnnTuple::new(tuple, ann));
        }
        if rng.gen_bool(0.25) {
            t.insert_empty_mark(rel_v, Annotation::all_open(1));
        }

        let query = &queries[case % queries.len()];
        let ev = PlanCatalog::shared().eval(query);
        assert!(ev.is_compiled(), "query pool is safe-range");
        let budget = SearchBudget::bounded(1, 2);
        let q_consts: BTreeSet<ConstId> = query.formula.constants().into_iter().collect();

        // Combined run: assert per-leaf agreement of all three evaluation
        // routes (the expensive oracles on a leaf *prefix* — the
        // outcome-level comparison below still covers every leaf), decide
        // by the incremental verdict.
        let mut full_checks = 0usize;
        let incremental = search_rep_a_indexed(&t, &q_consts, &budget, &mut |leaf| {
            let on_delta = ev.holds_on_indexed(leaf.index(), leaf.instance(), &empty);
            if full_checks < 24 {
                full_checks += 1;
                let on_snapshot = ev
                    .compiled()
                    .expect("compiled")
                    .holds_on_store(&InstanceIndex::build(leaf.instance()), &empty);
                let on_tree = query.holds_on(leaf.instance(), &empty);
                assert_eq!(on_delta, on_snapshot, "case {case}: delta vs snapshot");
                assert_eq!(on_delta, on_tree, "case {case}: plan vs tree walker");
                if full_checks <= 4 {
                    assert!(
                        rep_a_membership(&t, leaf.instance()).is_some(),
                        "case {case}: leaf {} is not a Rep_A member of {t}",
                        leaf.instance()
                    );
                }
            }
            !on_delta
        });

        // Oracle run: identical search, but every leaf rebuilds its index
        // from the materialized instance (the pre-refactor behaviour).
        let rebuild = search_rep_a_indexed(&t, &q_consts, &budget, &mut |leaf| {
            !ev.holds_on(leaf.instance(), &empty)
        });
        assert_eq!(
            incremental.witness.is_some(),
            rebuild.witness.is_some(),
            "case {case}: t = {t}"
        );
        assert_eq!(incremental.leaves, rebuild.leaves, "case {case}");
        assert_eq!(
            incremental.completeness, rebuild.completeness,
            "case {case}"
        );
        if let (Some((wi, _)), Some((wr, _))) = (&incremental.witness, &rebuild.witness) {
            assert_eq!(wi, wr, "case {case}: identical witness instances");
        }
    }
}

/// End-to-end: the refutation pipelines built on the incremental solver
/// (certain / possible / 1-to-m / composition) agree with brute-force
/// expectations on a scenario where every regime fires.
#[test]
fn refutation_pipelines_agree_end_to_end() {
    let mapping = Mapping::parse("CiR(x:cl, z:op) <- CiSrc(x, y)").unwrap();
    let mut source = Instance::new();
    source.insert_names("CiSrc", &["a", "b"]);
    source.insert_names("CiSrc", &["c", "d"]);
    let empty = Tuple::new(Vec::<Value>::new());

    // Full-FO query, open annotation: replication refutes it.
    let q = Query::boolean(
        oc_exchange::logic::parse_formula(
            "exists x y. (CiR(x, y) & forall u v. (CiR(u, v) -> v = y))",
        )
        .unwrap(),
    );
    let out = dxcore::certain::certain_contains(&mapping, &source, &q, &empty, None);
    assert!(!out.certain);
    let cex = out.counterexample.expect("counterexample");
    assert!(!q.holds_boolean(&cex), "counterexample refutes the query");
    assert!(
        rep_a_membership(&canonical_solution(&mapping, &source).instance, &cex).is_some(),
        "counterexample is a Rep_A member"
    );

    // 1-to-m: m = 1 collapses to the CWA verdict.
    let cwa = dxcore::certain::certain_cwa(&mapping, &source, &q, &empty);
    let one = Exchange::new(&mapping, &source).certain_contains_one_to_m(&q, &empty, 1);
    assert_eq!(cwa.certain, one.certain);

    // Possible answers bracket certain ones.
    let q_vals = Query::parse(&["a"], "exists p. CiR(p, a)").unwrap();
    let poss = Exchange::new(&mapping, &source).possible_contains(
        &q_vals,
        &Tuple::from_names(&["zz"]),
        None,
    );
    assert!(poss.certain, "any value is possible for an open null");
}

/// The catalog's **negative cache**: a formula rejected by safe-range
/// lowering is compiled (and rejected) exactly once — every later lookup
/// is a cache hit — and `clear()` resets positive and negative entries
/// alike. Randomized over rejected shapes (unbound equalities, negated
/// atoms, negation under an existential) and interleavings with compiling
/// formulas.
#[test]
fn negative_cache_never_recompiles_rejections() {
    use oc_exchange::logic::{Formula, Term};
    use oc_exchange::Var;
    let mut rng = StdRng::seed_from_u64(0xCA7A);
    for case in 0..40 {
        let cat = PlanCatalog::new();
        let x = Var::new(&format!("ncx{}", rng.gen_range(0..4)));
        let y = Var::new(&format!("ncy{}", rng.gen_range(0..4)));
        let rel = format!("NcR{}", rng.gen_range(0..4));
        // A rejected formula: all three shapes are outside the safe-range
        // fragment for their head.
        let (bad, bad_head): (Formula, Vec<Var>) = match rng.gen_range(0..3) {
            0 => (Formula::eq(Term::Var(x), Term::Var(y)), vec![x, y]),
            1 => (
                Formula::not(Formula::atom(&rel, vec![Term::Var(x), Term::Var(y)])),
                vec![x, y],
            ),
            _ => (
                Formula::exists(
                    vec![y],
                    Formula::not(Formula::atom(&rel, vec![Term::Var(x), Term::Var(y)])),
                ),
                vec![x],
            ),
        };
        assert!(
            cat.formula(&bad, &bad_head).is_err(),
            "case {case}: rejected"
        );
        let after_first = cat.stats();
        assert_eq!(
            (after_first.hits, after_first.misses, after_first.entries),
            (0, 1, 1),
            "case {case}: one rejection, one (negative) entry"
        );
        // Interleave with a compiling formula and repeated rejected lookups.
        let good = Formula::atom(&rel, vec![Term::Var(x), Term::Var(y)]);
        let repeats = rng.gen_range(2..6u64);
        for i in 0..repeats {
            assert!(cat.formula(&bad, &bad_head).is_err());
            let c1 = cat.formula(&good, &[x, y]).expect("compiles");
            let c2 = cat.formula(&good, &[x, y]).expect("compiles");
            assert!(std::sync::Arc::ptr_eq(&c1, &c2), "positive entries shared");
            drop((c1, c2));
            let s = cat.stats();
            assert_eq!(
                s.misses, 2,
                "case {case} round {i}: neither entry is ever recompiled"
            );
            assert_eq!(s.entries, 2);
        }
        // Per round: the rejected lookup hits, `c2` hits, and `c1` hits on
        // every round but the first (where it compiles) — 3·repeats − 1.
        let before_clear = cat.stats();
        assert_eq!(before_clear.hits, repeats * 3 - 1);
        // clear() drops positive AND negative entries (and the counters).
        cat.clear();
        let cleared = cat.stats();
        assert_eq!((cleared.hits, cleared.misses, cleared.entries), (0, 0, 0));
        // The rejection is re-attempted exactly once after the reset.
        assert!(cat.formula(&bad, &bad_head).is_err());
        assert!(cat.formula(&bad, &bad_head).is_err());
        let reset = cat.stats();
        assert_eq!((reset.hits, reset.misses, reset.entries), (1, 1, 1));
    }
}
