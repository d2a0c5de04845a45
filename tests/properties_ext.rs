//! Property-based tests for the extension stack: conditional tables,
//! cores, stratified Datalog, the Codd fast path, and the existential-Δ
//! composition regime. Each property pits an engine against either a
//! brute-force reference or an independent second engine.

use oc_exchange::chase::core::{ann_core_of, core_of, find_ann_hom, hom_equivalent};
use oc_exchange::chase::{canonical_solution, Mapping};
use oc_exchange::core::{compose, semantics};
use oc_exchange::ctables::{certain_answers_ra, CInstance, RaExpr, RaPred};
use oc_exchange::logic::datalog::DatalogQuery;
use oc_exchange::solver::repa::{
    codd_rep_membership, is_codd, rep_a_membership_via, MatchStrategy,
};
use oc_exchange::workloads::random_gen;
use oc_exchange::{Instance, RelSym, Schema, Tuple, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;

/// A small random FO formula over binary `Ra`/`Rb` (shared shape with the
/// round-trip generator in `tests/properties.rs`).
fn random_formula(rng: &mut StdRng, depth: usize) -> oc_exchange::logic::Formula {
    use oc_exchange::logic::{Formula, Term};
    let vars = ["x", "y", "z"];
    let rels = ["Ra", "Rb"];
    if depth == 0 || rng.gen_bool(0.4) {
        return match rng.gen_range(0..3) {
            0 => Formula::atom(
                rels[rng.gen_range(0..rels.len())],
                vec![
                    Term::var(vars[rng.gen_range(0..vars.len())]),
                    Term::var(vars[rng.gen_range(0..vars.len())]),
                ],
            ),
            1 => Formula::eq(
                Term::var(vars[rng.gen_range(0..vars.len())]),
                Term::cst("c"),
            ),
            _ => Formula::neq(
                Term::var(vars[rng.gen_range(0..vars.len())]),
                Term::var(vars[rng.gen_range(0..vars.len())]),
            ),
        };
    }
    match rng.gen_range(0..5) {
        0 => oc_exchange::logic::Formula::and([
            random_formula(rng, depth - 1),
            random_formula(rng, depth - 1),
        ]),
        1 => oc_exchange::logic::Formula::or([
            random_formula(rng, depth - 1),
            random_formula(rng, depth - 1),
        ]),
        2 => oc_exchange::logic::Formula::not(random_formula(rng, depth - 1)),
        3 => oc_exchange::logic::Formula::exists(
            vec![oc_exchange::Var::new(vars[rng.gen_range(0..vars.len())])],
            random_formula(rng, depth - 1),
        ),
        _ => oc_exchange::logic::Formula::forall(
            vec![oc_exchange::Var::new(vars[rng.gen_range(0..vars.len())])],
            random_formula(rng, depth - 1),
        ),
    }
}

/// Random naive table over one binary and one unary relation, with nulls.
fn random_naive(rng: &mut StdRng, max_nulls: u32) -> Instance {
    let mut inst = Instance::new();
    let consts = ["a", "b", "c"];
    let mut null_count = 0u32;
    let mut value = |rng: &mut StdRng| -> Value {
        if null_count < max_nulls && rng.gen_bool(0.4) {
            null_count += 1;
            Value::null(null_count)
        } else {
            Value::c(consts[rng.gen_range(0..consts.len())])
        }
    };
    for _ in 0..rng.gen_range(1..4) {
        let v1 = value(rng);
        let v2 = value(rng);
        inst.insert(RelSym::new("PrA"), Tuple::new(vec![v1, v2]));
    }
    for _ in 0..rng.gen_range(0..3) {
        let v = value(rng);
        inst.insert(RelSym::new("PrB"), Tuple::new(vec![v]));
    }
    inst
}

/// Random RA expression with tracked arity over PrA/2 and PrB/1.
fn random_ra(rng: &mut StdRng, depth: usize) -> (RaExpr, usize) {
    if depth == 0 || rng.gen_bool(0.35) {
        return if rng.gen_bool(0.6) {
            (RaExpr::rel("PrA"), 2)
        } else {
            (RaExpr::rel("PrB"), 1)
        };
    }
    match rng.gen_range(0..6) {
        0 => {
            let (e, a) = random_ra(rng, depth - 1);
            let pred = if a >= 2 && rng.gen_bool(0.5) {
                RaPred::cols_eq(0, 1)
            } else {
                RaPred::col_is(rng.gen_range(0..a), ["a", "b", "zz"][rng.gen_range(0..3)])
            };
            (e.select(pred), a)
        }
        1 => {
            let (e, a) = random_ra(rng, depth - 1);
            let cols: Vec<usize> = if a == 2 && rng.gen_bool(0.5) {
                vec![1, 0]
            } else {
                vec![rng.gen_range(0..a)]
            };
            let n = cols.len();
            (e.project(cols), n)
        }
        2 => {
            // Product capped at arity 3 to keep brute force cheap.
            let (l, la) = random_ra(rng, 0);
            let (r, ra) = if la == 2 {
                (RaExpr::rel("PrB"), 1)
            } else {
                random_ra(rng, 0)
            };
            (l.product(r), la + ra)
        }
        3 | 4 => {
            let (l, la) = random_ra(rng, depth - 1);
            let (r, _) = same_arity(rng, la);
            if rng.gen_bool(0.5) {
                (l.union(r), la)
            } else {
                (l.diff(r), la)
            }
        }
        _ => {
            let (l, la) = random_ra(rng, depth - 1);
            let (r, _) = same_arity(rng, la);
            (l.intersect(r), la)
        }
    }
}

/// A base-ish expression of exactly the requested arity.
fn same_arity(rng: &mut StdRng, arity: usize) -> (RaExpr, usize) {
    match arity {
        1 => {
            if rng.gen_bool(0.5) {
                (RaExpr::rel("PrB"), 1)
            } else {
                (RaExpr::rel("PrA").project([rng.gen_range(0..2)]), 1)
            }
        }
        2 => (RaExpr::rel("PrA"), 2),
        3 => (RaExpr::rel("PrA").product(RaExpr::rel("PrB")), 3),
        n => (
            {
                let mut e = RaExpr::rel("PrB");
                for _ in 1..n {
                    e = e.product(RaExpr::rel("PrB"));
                }
                e
            },
            n,
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32, failure_persistence: None, ..ProptestConfig::default()
    })]

    /// Imieliński–Lipski representation theorem on random tables and
    /// queries: conditional evaluation commutes with valuations.
    #[test]
    fn conditional_eval_commutes(seed in 0u64..400) {
        let mut rng = random_gen::rng(seed);
        let naive = random_naive(&mut rng, 3);
        let ct = CInstance::from_naive(&naive);
        let (q, _) = random_ra(&mut rng, 2);
        let cond = q.eval_conditional(&ct);
        for (ground, v) in ct.rep_members(&BTreeSet::new()) {
            let direct: BTreeSet<Tuple> = q.eval_ground(&ground).iter().cloned().collect();
            let via: BTreeSet<Tuple> = cond.apply(&v).into_iter().collect();
            prop_assert_eq!(&via, &direct, "query {:?} valuation {:?}", q, v);
        }
    }

    /// Certain answers via condition validity equal the brute-force
    /// intersection over all palette Rep members.
    #[test]
    fn ctable_certain_equals_brute_force(seed in 0u64..400) {
        let mut rng = random_gen::rng(seed);
        let naive = random_naive(&mut rng, 3);
        let ct = CInstance::from_naive(&naive);
        let (q, _) = random_ra(&mut rng, 2);
        let fast: BTreeSet<Tuple> =
            certain_answers_ra(&q, &ct).iter().cloned().collect();
        let mut brute: Option<BTreeSet<Tuple>> = None;
        for (ground, _) in ct.rep_members(&q.constants().into_iter().collect()) {
            let ans: BTreeSet<Tuple> = q.eval_ground(&ground).iter().cloned().collect();
            brute = Some(match brute {
                None => ans,
                Some(prev) => prev.intersection(&ans).cloned().collect(),
            });
        }
        prop_assert_eq!(fast, brute.unwrap(), "query {:?} on {}", q, naive);
    }

    /// Cores: homomorphically equivalent to the input, idempotent, and
    /// never larger.
    #[test]
    fn core_properties(seed in 0u64..400) {
        let mut rng = random_gen::rng(seed);
        let inst = random_naive(&mut rng, 4);
        let res = core_of(&inst);
        prop_assert!(res.core.tuple_count() <= inst.tuple_count());
        prop_assert!(hom_equivalent(&inst, &res.core));
        let again = core_of(&res.core);
        prop_assert_eq!(&again.core, &res.core, "idempotence");
        prop_assert_eq!(again.steps, 0usize);
    }

    /// Annotated cores of canonical solutions stay within the solution
    /// space and are reachable by homomorphism from CSol_A.
    #[test]
    fn ann_core_within_solution_space(seed in 0u64..300) {
        let mut rng = random_gen::rng(seed);
        let schema = Schema::from_pairs([("PrA", 2), ("PrB", 1)]);
        let m = random_gen::random_mapping(&schema, 1, 0.5, &mut rng);
        let s = random_gen::random_instance(&schema, 3, 3, &mut rng);
        let csol = canonical_solution(&m, &s);
        let core = ann_core_of(&csol.instance);
        prop_assert!(find_ann_hom(&csol.instance, &core.core).is_some());
        prop_assert!(find_ann_hom(&core.core, &csol.instance).is_some());
    }

    /// Datalog transitive closure equals a Floyd–Warshall reference on
    /// random ground graphs.
    #[test]
    fn datalog_tc_equals_warshall(seed in 0u64..400) {
        let mut rng = random_gen::rng(seed);
        let n = rng.gen_range(2usize..6);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut s = Instance::new();
        for i in 0..n {
            for j in 0..n {
                if rng.gen_bool(0.3) {
                    edges.push((i, j));
                    s.insert_nums("PrE", &[i as i64, j as i64]);
                }
            }
        }
        let q = DatalogQuery::parse(
            "PrPath",
            "PrPath(x, y) <- PrE(x, y); PrPath(x, z) <- PrPath(x, y) & PrE(y, z)",
        ).unwrap();
        let got = q.answers(&s);
        // Reference closure.
        let mut reach = vec![vec![false; n]; n];
        for &(i, j) in &edges {
            reach[i][j] = true;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    reach[i][j] |= reach[i][k] && reach[k][j];
                }
            }
        }
        let mut expect = BTreeSet::new();
        for (i, row) in reach.iter().enumerate() {
            for (j, &r) in row.iter().enumerate() {
                if r {
                    expect.insert(Tuple::from_nums(&[i as i64, j as i64]));
                }
            }
        }
        let got_set: BTreeSet<Tuple> = got.iter().cloned().collect();
        prop_assert_eq!(got_set, expect);
    }

    /// The Codd matching route agrees with the generic backtracking on
    /// random Codd tables and random ground targets.
    #[test]
    fn codd_route_agrees_with_generic(seed in 0u64..600) {
        let mut rng = random_gen::rng(seed);
        let t = random_naive(&mut rng, u32::MAX); // distinct nulls by construction
        prop_assume!(is_codd(&t));
        let r = {
            let mut r = Instance::new();
            let consts = ["a", "b", "c"];
            for _ in 0..rng.gen_range(1..4) {
                r.insert_names(
                    "PrA",
                    &[consts[rng.gen_range(0..3)], consts[rng.gen_range(0..3)]],
                );
            }
            for _ in 0..rng.gen_range(0..3) {
                r.insert_names("PrB", &[consts[rng.gen_range(0..3)]]);
            }
            r
        };
        let mut ann = oc_exchange::AnnInstance::new();
        for (rel, rl) in t.relations() {
            for tuple in rl.iter() {
                ann.insert(rel, oc_exchange::AnnTuple::new(
                    tuple.clone(),
                    oc_exchange::Annotation::all_closed(tuple.arity()),
                ));
            }
        }
        let generic = rep_a_membership_via(MatchStrategy::Scan, &ann, &r).is_some();
        let codd = codd_rep_membership(&t, &r).is_some();
        prop_assert_eq!(generic, codd, "t = {}, r = {}", t, r);
    }

    /// Codd's theorem, constructive direction: the FO→RA translation
    /// agrees with the active-domain FO evaluator on random formulas and
    /// random ground instances.
    #[test]
    fn fo_to_ra_matches_evaluator(seed in 0u64..600) {
        use oc_exchange::ctables::fo_to_ra;
        let mut rng = random_gen::rng(seed);
        let f = random_formula(&mut rng, 2);
        let head: Vec<oc_exchange::Var> = f.free_vars().into_iter().collect();
        let q = oc_exchange::logic::Query::new(head.clone(), f.clone());
        // Random ground instance over the generator's Ra/Rb vocabulary.
        let mut inst = Instance::new();
        let consts = ["a", "b", "c"];
        for _ in 0..rng.gen_range(0..5) {
            inst.insert_names(
                "Ra",
                &[consts[rng.gen_range(0..3)], consts[rng.gen_range(0..3)]],
            );
        }
        for _ in 0..rng.gen_range(0..4) {
            inst.insert_names(
                "Rb",
                &[consts[rng.gen_range(0..3)], consts[rng.gen_range(0..3)]],
            );
        }
        let schema = [
            (RelSym::new("Ra"), 2usize),
            (RelSym::new("Rb"), 2usize),
        ];
        let ra = fo_to_ra(&f, &head, &schema).expect("no function terms generated");
        prop_assert_eq!(ra.eval_ground(&inst), q.answers(&inst), "formula {}", f);
    }

    /// End-to-end cross-validation of the two exact CWA engines on random
    /// mappings with an FO query routed through the Codd-theorem
    /// translation.
    #[test]
    fn cwa_fo_ctable_route_agrees_with_search(seed in 0u64..120) {
        use oc_exchange::core::Exchange;
        let mut rng = random_gen::rng(seed);
        let p_rules = [
            "PrP(x:cl) <- PrS(x, y)",
            "PrP(y:cl) <- PrS(x, y)",
            "PrP(z:cl) <- PrS(x, y)",
        ];
        let q_rules = [
            "PrQ(x:cl) <- PrS(x, y)",
            "PrQ(z:cl) <- PrS(x, y)",
        ];
        let rules = format!(
            "{}; {}",
            p_rules[rng.gen_range(0..p_rules.len())],
            q_rules[rng.gen_range(0..q_rules.len())],
        );
        let m = Mapping::parse(&rules).unwrap();
        let s = random_gen::random_instance(
            &Schema::from_pairs([("PrS", 2)]), 2, 3, &mut rng);
        let q = oc_exchange::logic::Query::parse(&["x"], "PrP(x) & !PrQ(x)").unwrap();
        let via_ctable = Exchange::new(&m, &s).certain_answers_cwa_fo(&q).expect("translates");
        let (via_search, comp) =
            oc_exchange::core::certain::certain_answers(&m, &s, &q, None);
        prop_assert_eq!(comp, oc_exchange::solver::Completeness::Exact);
        prop_assert_eq!(via_ctable, via_search, "rules `{}`", rules);
    }

    /// Existential-Δ composition is complete: whenever we SAMPLE a genuine
    /// member (J from ⟦S⟧_Σα, then W from ⟦J⟧_Δ), the exact existential
    /// path confirms it.
    #[test]
    fn existential_composition_confirms_sampled_members(seed in 0u64..150) {
        let mut rng = random_gen::rng(seed);
        let sigma = Mapping::parse(
            "PrM(x:cl, z:op) <- PrS(x, y); PrK(y:cl) <- PrS(x, y)",
        ).unwrap();
        let delta = Mapping::parse(
            "PrF(x:cl) <- PrM(x, y) & !PrK(y)",
        ).unwrap();
        let src_schema = Schema::from_pairs([("PrS", 2)]);
        let s = random_gen::random_instance(&src_schema, 2, 3, &mut rng);
        let j = random_gen::sample_member(&sigma, &s, 3, 1, &mut rng);
        prop_assume!(semantics::is_member(&sigma, &s, &j));
        let w = random_gen::sample_member(&delta, &j, 3, 0, &mut rng);
        prop_assume!(semantics::is_member(&delta, &j, &w));
        let out = compose::comp_membership(&sigma, &delta, &s, &w, None);
        prop_assert_eq!(out.path, compose::CompPath::ExistentialDelta);
        prop_assert!(out.member, "sampled member rejected: S={} J={} W={}", s, j, w);
    }
}
