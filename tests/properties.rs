//! Property-based tests (proptest) over randomized mappings, instances and
//! formulas.

use oc_exchange::chase::{canonical_solution, Mapping};
use oc_exchange::core::{certain, semantics};
use oc_exchange::logic::{parse_formula, Query};
use oc_exchange::solver::repa::rep_a_membership;
use oc_exchange::workloads::random_gen;
use oc_exchange::{Instance, Schema, Tuple, Value, Var};
use proptest::prelude::*;

fn schema_ab() -> Schema {
    Schema::from_pairs([("A", 2), ("B", 1)])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, failure_persistence: None, ..ProptestConfig::default()
    })]

    /// Sampled members of ⟦S⟧_Σα really are members (soundness of the
    /// sampler AND of the membership decision).
    #[test]
    fn sampled_members_verify(seed in 0u64..500) {
        let mut rng = random_gen::rng(seed);
        let m = random_gen::random_mapping(&schema_ab(), 1, 0.5, &mut rng);
        let s = random_gen::random_instance(&schema_ab(), 3, 3, &mut rng);
        let t = random_gen::sample_member(&m, &s, 4, 2, &mut rng);
        prop_assert!(semantics::is_member(&m, &s, &t));
    }

    /// The canonical solution's relational part under ANY total valuation is
    /// a member (Theorem 1(4), one direction).
    #[test]
    fn valuation_images_are_members(seed in 0u64..500) {
        let mut rng = random_gen::rng(seed);
        let m = random_gen::random_mapping(&schema_ab(), 1, 1.0, &mut rng);
        let s = random_gen::random_instance(&schema_ab(), 3, 3, &mut rng);
        let csol = canonical_solution(&m, &s);
        let mut v = oc_exchange::Valuation::new();
        for n in csol.instance.nulls() {
            use rand::Rng;
            v.set(n, oc_exchange::ConstId::new(&format!("k{}", rng.gen_range(0..4))));
        }
        let t = csol.instance.apply(&v).rel_part();
        prop_assert!(semantics::is_member(&m, &s, &t));
    }

    /// Annotation monotonicity (Theorem 1(3)) on sampled targets: a member
    /// under a random annotation stays a member when everything opens up.
    #[test]
    fn opening_annotations_grows_semantics(seed in 0u64..500) {
        let mut rng = random_gen::rng(seed);
        let m = random_gen::random_mapping(&schema_ab(), 1, 0.7, &mut rng);
        let s = random_gen::random_instance(&schema_ab(), 2, 3, &mut rng);
        let t = random_gen::sample_member(&m, &s, 4, 1, &mut rng);
        prop_assert!(semantics::is_member(&m, &s, &t));
        prop_assert!(
            semantics::is_member(&m.all_open(), &s, &t),
            "all-open semantics must contain every Σα member"
        );
    }

    /// CWA members are members under every annotation of the same rules.
    #[test]
    fn cwa_members_are_universal(seed in 0u64..500) {
        let mut rng = random_gen::rng(seed);
        let base = random_gen::random_mapping(&schema_ab(), 1, 0.0, &mut rng);
        let s = random_gen::random_instance(&schema_ab(), 2, 3, &mut rng);
        let cl = base.all_closed();
        let t = random_gen::sample_member(&cl, &s, 4, 0, &mut rng);
        prop_assert!(semantics::is_member(&cl, &s, &t));
        let mid = random_gen::randomly_annotated(&base, 0.5, &mut rng);
        prop_assert!(semantics::is_member(&mid, &s, &t));
    }

    /// Rep_A membership agrees with the definitional check on the witness:
    /// when a valuation is returned, it satisfies both Rep_A conditions.
    #[test]
    fn repa_witnesses_satisfy_both_conditions(seed in 0u64..500) {
        let mut rng = random_gen::rng(seed);
        let m = random_gen::random_mapping(&schema_ab(), 1, 0.5, &mut rng);
        let s = random_gen::random_instance(&schema_ab(), 3, 3, &mut rng);
        let t = random_gen::sample_member(&m, &s, 4, 2, &mut rng);
        let csol = canonical_solution(&m, &s);
        let v = rep_a_membership(&csol.instance, &t);
        prop_assert!(v.is_some());
        let v = v.unwrap();
        let valued = csol.instance.apply(&v);
        prop_assert!(valued.rel_part().is_subinstance_of(&t));
        prop_assert!(valued.covers_instance(&t));
    }

    /// Positive queries: certain answers are monotone in the source
    /// (adding source tuples can only add certain answers).
    #[test]
    fn positive_certain_answers_monotone_in_source(seed in 0u64..500) {
        let mut rng = random_gen::rng(seed);
        let m = Mapping::parse("T1(x:cl, z:op) <- A(x, y)").unwrap();
        let q = Query::parse(&["x"], "exists z. T1(x, z)").unwrap();
        let schema = Schema::from_pairs([("A", 2)]);
        let small = random_gen::random_instance(&schema, 2, 3, &mut rng);
        let extra = random_gen::random_instance(&schema, 2, 3, &mut rng);
        let big = small.union(&extra);
        let (ans_small, _) = certain::certain_answers(&m, &small, &q, None);
        let (ans_big, _) = certain::certain_answers(&m, &big, &q, None);
        prop_assert!(ans_small.is_subset(&ans_big));
    }

    /// Formula display/parse round trip on randomly assembled formulas.
    #[test]
    fn formula_roundtrip(seed in 0u64..2000) {
        let mut rng = random_gen::rng(seed);
        let f = random_formula(&mut rng, 3);
        let printed = f.to_string();
        let reparsed = parse_formula(&printed);
        prop_assert!(reparsed.is_ok(), "failed to reparse {printed}");
        prop_assert_eq!(reparsed.unwrap(), f);
    }

    /// Naive certain answers never contain nulls and are a subset of the
    /// naive answers.
    #[test]
    fn naive_certain_subset(seed in 0u64..500) {
        let mut rng = random_gen::rng(seed);
        let m = random_gen::random_mapping(&schema_ab(), 1, 0.5, &mut rng);
        let s = random_gen::random_instance(&schema_ab(), 3, 3, &mut rng);
        let csol = canonical_solution(&m, &s).rel_part();
        // Query over whichever target relation exists.
        let first = csol.relations().next().map(|(rel, r)| (rel, r.arity()));
        if let Some((rel, arity)) = first {
            let vars: Vec<Var> = (0..arity).map(|i| Var::indexed("q", i)).collect();
            let q = Query::new(
                vars.clone(),
                oc_exchange::logic::Formula::Atom(
                    rel,
                    vars.iter().map(|&v| oc_exchange::logic::Term::Var(v)).collect(),
                ),
            );
            let certain = q.naive_certain_answers(&csol);
            let all = q.answers(&csol);
            prop_assert!(certain.is_subset(&all));
            prop_assert!(certain.iter().all(|t| t.is_ground()));
        }
    }
}

/// A small random formula generator for round-trip tests (kept inside the
/// test crate; generator-grade randomness only).
fn random_formula(rng: &mut rand::rngs::StdRng, depth: usize) -> oc_exchange::logic::Formula {
    use oc_exchange::logic::{Formula, Term};
    use rand::Rng;
    let vars = ["x", "y", "z"];
    let rels = ["Ra", "Rb"];
    if depth == 0 || rng.gen_bool(0.4) {
        // Leaf: atom or (in)equality.
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
            vec![Var::new(vars[rng.gen_range(0..vars.len())])],
            random_formula(rng, depth - 1),
        ),
        _ => oc_exchange::logic::Formula::forall(
            vec![Var::new(vars[rng.gen_range(0..vars.len())])],
            random_formula(rng, depth - 1),
        ),
    }
}

/// Deterministic cross-check: rep_a_membership and the enumerator agree on
/// a fixed family (every enumerated instance passes membership).
#[test]
fn enumerator_and_membership_agree() {
    use oc_exchange::solver::{search_rep_a_indexed, SearchBudget};
    let m = Mapping::parse("R(x:cl, z:op) <- E(x)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a"]);
    let csol = canonical_solution(&m, &s);
    let mut all_ok = true;
    let mut count = 0u32;
    search_rep_a_indexed(
        &csol.instance,
        &Default::default(),
        &SearchBudget::bounded(1, 2),
        &mut |leaf| {
            count += 1;
            if rep_a_membership(&csol.instance, leaf.instance()).is_none() {
                all_ok = false;
            }
            false
        },
    );
    assert!(count > 5, "enumeration should produce several instances");
    assert!(all_ok, "every enumerated instance must pass membership");
}

/// Boolean certain answers produce verifiable counterexamples whenever they
/// answer `false` in an exact regime.
#[test]
fn counterexamples_always_verify() {
    let m = Mapping::parse("R(x:cl, z:cl) <- E(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a", "b"]);
    s.insert_names("E", &["c", "d"]);
    let queries = [
        "forall y1 y2. (R('a', y1) & R('c', y2) -> y1 != y2)",
        "exists y. R('a', y) & R('c', y)",
        "forall x y. (R(x, y) -> x = 'a')",
    ];
    for src in queries {
        let q = Query::boolean(parse_formula(src).unwrap());
        let out = certain::certain_contains(&m, &s, &q, &Tuple::new(Vec::<Value>::new()), None);
        if !out.certain {
            match out.counterexample {
                Some(cex) => {
                    assert!(!q.holds_boolean(&cex), "counterexample must falsify {src}");
                    let csol = canonical_solution(&m, &s);
                    assert!(
                        rep_a_membership(&csol.instance, &cex).is_some(),
                        "counterexample must be a Rep_A member for {src}"
                    );
                }
                // The naive path (positive queries) decides without
                // materializing a counterexample.
                None => assert_eq!(out.regime, certain::Regime::NaivePositive),
            }
        }
    }
}

/// Annotation statistics drive regime selection as documented.
#[test]
fn regime_selection_matrix() {
    let cases = [
        (
            "R(x:cl, z:cl) <- E(x)",
            "exists z. R('a', z)",
            certain::Regime::NaivePositive,
        ),
        (
            "R(x:cl, z:cl) <- E(x)",
            "exists z w. R('a', z) & R('a', w) & z != w",
            certain::Regime::Monotone,
        ),
        (
            "R(x:cl, z:op) <- E(x)",
            "forall x y. (R(x, y) -> exists w. R(y, w))",
            certain::Regime::UniversalExistential,
        ),
        (
            "R(x:cl, z:cl) <- E(x)",
            "exists x. forall y. (R(x, y) | !R(x, y)) & !exists w. R(w, x)",
            certain::Regime::ClosedWorld,
        ),
        (
            "R(x:cl, z:op) <- E(x)",
            "exists x. (forall y. !R(y, x)) & exists u. R(x, u)",
            certain::Regime::OpenBounded,
        ),
    ];
    let mut s = Instance::new();
    s.insert_names("E", &["a"]);
    for (rules, query, regime) in cases {
        let m = Mapping::parse(rules).unwrap();
        let q = Query::boolean(parse_formula(query).unwrap());
        let out = certain::certain_contains(&m, &s, &q, &Tuple::new(Vec::<Value>::new()), None);
        assert_eq!(out.regime, regime, "rules={rules} query={query}");
    }
}
