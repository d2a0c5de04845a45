//! Differential testing of the non-monotonic query-answering regimes
//! (`dx_core::regimes`) against brute-force `Rep_A` enumeration.
//!
//! For randomized scenarios — mixed open/closed annotations, sources with
//! nulls in the canonical solution, queries with negation — the harness:
//!
//! * enumerates **every** member of `Rep_A(CSol_A(S))` within a shared
//!   budget (the oracle's solution space);
//! * recomputes the ⊆-minimal members by pairwise comparison over the full
//!   member set and checks they equal the solver's image-based
//!   [`minimal_rep_a_members`] enumeration (the theory behind the GCWA\*
//!   fast path: members with extras are never minimal);
//! * materializes every union of minimal solutions (up to the size cap)
//!   with plain [`Instance::union`] and evaluates queries by the
//!   tree-walking oracle — asserting [`gcwa_star_answers`] (compiled plans
//!   over one refcounted delta index) agrees exactly;
//! * asserts the approximation regime **brackets** the exact certain
//!   answers: `lower ⊆ exact ⊆ upper`, with `upper == exact` whenever the
//!   sampler reports an exhaustively covered space.

use oc_exchange::chase::Mapping;
use oc_exchange::core::regimes::{
    approx_certain_answers, gcwa_star_answers, ApproxRoute, GcwaRoute, RegimeBudget,
};
use oc_exchange::core::{certain_answers, certain_contains, Exchange};
use oc_exchange::logic::{classify, Query};
use oc_exchange::solver::{
    minimal_rep_a_members, rep_a_membership, search_rep_a_indexed, Completeness, SearchBudget,
};
use oc_exchange::workloads::random_gen;
use oc_exchange::{ConstId, Instance, RelSym, Tuple, Value};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;

/// The differential schema: a copied binary relation and a null-producing
/// unary rule, with annotations randomized per scenario.
fn random_scenario(rng: &mut StdRng) -> (Mapping, Instance) {
    let base = Mapping::parse("RdT(x:cl, y:cl) <- RdR(x, y); SdT(x:cl, z:cl) <- RdS(x)")
        .expect("mapping parses");
    let mapping = random_gen::randomly_annotated(&base, 0.5, rng);
    let mut source = Instance::new();
    for _ in 0..rng.gen_range(0..4) {
        let a = format!("k{}", rng.gen_range(0..2));
        let b = format!("k{}", rng.gen_range(0..2));
        source.insert_names("RdR", &[&a, &b]);
    }
    // ≤ 2 null-producing rows keep the valuation space (and the oracle's
    // member enumeration) small enough for exhaustive comparison.
    for _ in 0..rng.gen_range(0..3) {
        source.insert_names("RdS", &[&format!("k{}", rng.gen_range(0..2))]);
    }
    (mapping, source)
}

/// The query battery: negation in every non-monotone entry, exercising
/// anti-joins, universals, disjunction-with-negation shapes; three monotone
/// entries (two CQs with an inequality and a positive one), which the
/// regimes decide by Proposition 4 — one reads only the copied relation,
/// so its image sweep drops every null, all of them `SdT`'s; and — last —
/// the *correlated* §1 implication,
/// which the seeded anti-join lowering compiles to a plan (asserted
/// below), so the regime engines evaluate it on the incremental index
/// inside `for_each_union`/member sweeps instead of tree-walking.
fn battery() -> Vec<Query> {
    vec![
        Query::parse(&["x"], "(exists y. RdT(x, y)) & !(exists w. SdT(x, w))").unwrap(),
        Query::boolean(
            oc_exchange::logic::parse_formula(
                "forall p a1 a2. (SdT(p, a1) & SdT(p, a2) -> a1 = a2)",
            )
            .unwrap(),
        ),
        Query::parse(&["x"], "exists y. RdT(x, y) & (RdT(y, x) | !SdT(y, y))").unwrap(),
        Query::boolean(
            oc_exchange::logic::parse_formula("exists x y. RdT(x, y) & !RdT(y, x)").unwrap(),
        ),
        Query::parse(
            &["p"],
            "exists a b. RdT(p, a) & (RdT(p, b) | SdT(p, b)) & a != b",
        )
        .unwrap(),
        Query::parse(&["x"], "exists y. RdT(x, y) | SdT(x, y)").unwrap(),
        Query::parse(&["p"], "exists a b. RdT(p, a) & RdT(p, b) & a != b").unwrap(),
        Query::parse(
            &["p"],
            "exists a. SdT(p, a) & (forall b. (SdT(p, b) -> a = b))",
        )
        .unwrap(),
    ]
}

/// Every battery entry with correlated negation runs on a compiled plan
/// inside the regimes (the seeded anti-join fragment).
#[test]
fn correlated_battery_entry_compiles() {
    let q = battery().pop().unwrap();
    let ev = oc_exchange::query::QueryEval::new(&q);
    assert!(
        ev.is_compiled(),
        "correlated §1 entry must run on a plan inside the union walks: {:?}",
        ev.lower_error()
    );
}

/// Candidate answer tuples over `(adom(S) ∪ constants(Q))^arity` — the
/// palette the regime engines quantify over.
fn candidates(source: &Instance, query: &Query) -> Vec<Tuple> {
    let mut consts: BTreeSet<ConstId> = source.adom_consts();
    consts.extend(query.formula.constants());
    let consts: Vec<ConstId> = consts.into_iter().collect();
    let arity = query.arity();
    if arity == 0 {
        return vec![Tuple::new(Vec::<Value>::new())];
    }
    let mut out = Vec::new();
    let mut idx = vec![0usize; arity];
    if consts.is_empty() {
        return out;
    }
    loop {
        out.push(Tuple::from_consts(
            &idx.iter().map(|&i| consts[i]).collect::<Vec<_>>(),
        ));
        let mut carry = 0;
        loop {
            if carry == arity {
                return out;
            }
            idx[carry] += 1;
            if idx[carry] < consts.len() {
                break;
            }
            idx[carry] = 0;
            carry += 1;
        }
    }
}

/// Enumerate (deduplicated) members of `Rep_A(CSol_A(S))` within `budget`.
fn enumerate_members(
    mapping: &Mapping,
    source: &Instance,
    palette: &BTreeSet<ConstId>,
    budget: &SearchBudget,
) -> (Vec<Instance>, Completeness) {
    let csol = oc_exchange::chase::canonical_solution(mapping, source);
    let mut members: BTreeSet<Instance> = BTreeSet::new();
    let outcome = search_rep_a_indexed(&csol.instance, palette, budget, &mut |leaf| {
        members.insert(leaf.index().to_instance());
        false
    });
    (members.into_iter().collect(), outcome.completeness)
}

/// The shared sampling/oracle budget: one replication constant, one extra
/// tuple — small enough to enumerate exhaustively, wide enough that open
/// annotations genuinely enlarge the space.
fn oracle_budget() -> SearchBudget {
    SearchBudget {
        max_leaves: None,
        ..SearchBudget::bounded(1, 1)
    }
}

/// GCWA\* against the brute-force union-of-minimal-solutions oracle, and
/// the minimal-solution theory check (minimal over *all* members ==
/// minimal over valuation images).
#[test]
fn gcwa_star_matches_brute_force_oracle() {
    let cap = 3usize;
    for seed in 0..30u64 {
        let mut rng = random_gen::rng(seed);
        let (mapping, source) = random_scenario(&mut rng);
        let csol = oc_exchange::chase::canonical_solution(&mapping, &source);
        for (qi, query) in battery().into_iter().enumerate() {
            let mut palette: BTreeSet<ConstId> = source.adom_consts();
            palette.extend(query.formula.constants());

            // Oracle: all members, minimal by pairwise comparison.
            let (members, _) = enumerate_members(&mapping, &source, &palette, &oracle_budget());
            let brute_minimal: Vec<&Instance> = members
                .iter()
                .filter(|m| !members.iter().any(|n| n != *m && n.is_subinstance_of(m)))
                .collect();
            // The solver's image-based enumeration agrees with brute force.
            let (fast_minimal, comp) = minimal_rep_a_members(&csol.instance, &palette, None);
            assert_eq!(comp, Completeness::Exact);
            let brute_set: BTreeSet<&Instance> = brute_minimal.iter().copied().collect();
            let fast_set: BTreeSet<&Instance> = fast_minimal.iter().collect();
            assert_eq!(
                brute_set, fast_set,
                "seed {seed} q{qi}: minimal members must agree\nmapping:\n{mapping}"
            );
            // Spot-check membership of minimal solutions.
            for m in fast_minimal.iter().take(3) {
                assert!(
                    rep_a_membership(&csol.instance, m).is_some(),
                    "seed {seed}: minimal member not in Rep_A: {m}"
                );
            }

            // Oracle answers: survive every materialized union of ≤ cap
            // minimal solutions (tree-walking evaluation).
            let mut unions: Vec<Instance> = Vec::new();
            subsets_up_to(&fast_minimal, cap, &mut unions);
            let oracle: BTreeSet<Tuple> = candidates(&source, &query)
                .into_iter()
                .filter(|t| unions.iter().all(|u| query.holds_on(u, t)))
                .collect();

            let budget = RegimeBudget {
                max_union_size: cap,
                max_minimal_solutions: usize::MAX,
                max_leaves: None,
            };
            let out = gcwa_star_answers(&mapping, &source, &query, &budget);
            let got: BTreeSet<Tuple> = out.answers.iter().cloned().collect();
            assert_eq!(
                got, oracle,
                "seed {seed} q{qi}: GCWA* answers disagree with the oracle\nmapping:\n{mapping}\nS={source}"
            );
            if classify::is_monotone(&query.formula) {
                assert_eq!(out.route, GcwaRoute::Monotone, "seed {seed} q{qi}");
                let (cert, _) = certain_answers(&mapping, &source, &query, None);
                assert_eq!(out.answers, cert, "seed {seed} q{qi}");
            } else {
                assert_eq!(out.minimal_solutions, fast_minimal.len());
            }

            // Per-tuple decisions agree with the answer set, and negative
            // ones carry a genuine falsifying union.
            for t in candidates(&source, &query).into_iter().take(3) {
                let dec = Exchange::new(&mapping, &source).gcwa_star_contains(&query, &t, &budget);
                assert_eq!(
                    dec.certain,
                    out.answers.contains(&t),
                    "seed {seed} q{qi} {t}"
                );
                if let Some(cex) = dec.counterexample {
                    assert!(!query.holds_on(&cex, &t), "counterexample must falsify");
                }
            }
        }
    }
}

/// A Proposition 4 counterexample is a member of `Rep_A(CSol_A(S))`, not
/// only of the restricted space the image sweep searched: the monotone
/// query reads only `R`, and the counterexample still holds `U(a)`.
#[test]
fn monotone_counterexample_is_a_member_of_the_full_csol() {
    let mapping = Mapping::parse("R(x:cl, z:cl) <- E(x, y); U(x:cl) <- E(x, y)").unwrap();
    let mut source = Instance::new();
    source.insert_names("E", &["a", "v1"]);
    source.insert_names("E", &["a", "v2"]);
    let query = Query::parse(&["x"], "exists y z. R(x, y) & R(x, z) & y != z").unwrap();
    let a = Tuple::from_names(&["a"]);
    let ex = Exchange::new(&mapping, &source);
    let out = ex.certain_contains(&query, &a, None);
    assert_eq!(out.regime, oc_exchange::core::certain::Regime::Monotone);
    assert!(!out.certain, "the two R nulls may take one value");
    let cex = out.counterexample.expect("a counterexample");
    assert!(!query.holds_on(&cex, &a), "{cex}");
    assert!(cex.contains(RelSym::new("U"), &a), "{cex}");
    assert!(
        rep_a_membership(ex.csol(), &cex).is_some(),
        "not a member of Rep_A(CSol_A(S)): {cex}"
    );
}

/// All unions of nonempty subsets of size ≤ `cap`, materialized.
fn subsets_up_to(members: &[Instance], cap: usize, out: &mut Vec<Instance>) {
    fn rec(
        members: &[Instance],
        start: usize,
        left: usize,
        acc: &Instance,
        out: &mut Vec<Instance>,
    ) {
        for i in start..members.len() {
            let u = acc.union(&members[i]);
            out.push(u.clone());
            if left > 1 {
                rec(members, i + 1, left - 1, &u, out);
            }
        }
    }
    rec(members, 0, cap.max(1), &Instance::new(), out);
}

/// GCWA\* coincides with the certain answers on positive queries, for any
/// annotation (both collapse to Proposition 3's naive evaluation).
#[test]
fn gcwa_star_equals_certain_on_positive_queries() {
    let q = Query::parse(&["x"], "exists w. SdT(x, w)").unwrap();
    for seed in 0..15u64 {
        let mut rng = random_gen::rng(1000 + seed);
        let (mapping, source) = random_scenario(&mut rng);
        let out = gcwa_star_answers(&mapping, &source, &q, &RegimeBudget::default());
        let (cert, _) = certain_answers(&mapping, &source, &q, None);
        assert_eq!(out.answers, cert, "seed {seed}\nmapping:\n{mapping}");
    }
}

/// The approximation regime brackets the exact certain answers over the
/// budget-restricted member space: `lower ⊆ exact ⊆ upper`, closing to
/// equality when the space was covered exhaustively. `lower` is
/// additionally checked sound against the search-based
/// [`certain_contains`] (the true semantics).
#[test]
fn approx_brackets_brute_force_certain_answers() {
    let budget = oracle_budget();
    for seed in 0..30u64 {
        let mut rng = random_gen::rng(5000 + seed);
        let (mapping, source) = random_scenario(&mut rng);
        for (qi, query) in battery().into_iter().enumerate() {
            let mut palette: BTreeSet<ConstId> = source.adom_consts();
            palette.extend(query.formula.constants());
            let (members, _) = enumerate_members(&mapping, &source, &palette, &budget);
            let exact: BTreeSet<Tuple> = candidates(&source, &query)
                .into_iter()
                .filter(|t| members.iter().all(|m| query.holds_on(m, t)))
                .collect();

            let out = approx_certain_answers(&mapping, &source, &query, Some(&budget));
            let lower: BTreeSet<Tuple> = out.lower.iter().cloned().collect();
            let upper: BTreeSet<Tuple> = out.upper.iter().cloned().collect();
            assert!(
                lower.is_subset(&exact),
                "seed {seed} q{qi}: lower ⊄ exact\nlower={lower:?}\nexact={exact:?}\nmapping:\n{mapping}\nS={source}"
            );
            assert!(
                exact.is_subset(&upper),
                "seed {seed} q{qi}: exact ⊄ upper\nexact={exact:?}\nupper={upper:?}\nmapping:\n{mapping}\nS={source}"
            );
            if out.completeness == Completeness::Exact {
                assert_eq!(
                    upper, exact,
                    "seed {seed} q{qi}: exhaustive sampling must close the upper bound"
                );
            }
            if out.tight {
                assert_eq!(lower, upper);
            }
            // Soundness of `lower` against the true (search-based)
            // semantics, tuple by tuple.
            for t in lower.iter().take(3) {
                assert!(
                    certain_contains(&mapping, &source, &query, t, Some(&budget)).certain,
                    "seed {seed} q{qi}: lower contains a non-certain tuple {t}"
                );
            }
        }
    }
}

/// [`random_scenario`] plus a papers relation whose titles no STD copies
/// to the target: a title is a candidate constant outside
/// `adom(CSol_A(S))`, so the candidates of an arity-1 query fall into two
/// palette groups.
fn titled_scenario(rng: &mut StdRng) -> (Mapping, Instance) {
    let base = Mapping::parse(
        "RdT(x:cl, y:cl) <- RdR(x, y); SdT(x:cl, z:cl) <- RdS(x); SdT(x:cl, z:cl) <- RdP(x, t)",
    )
    .expect("mapping parses");
    let mapping = random_gen::randomly_annotated(&base, 0.5, rng);
    let (_, mut source) = random_scenario(rng);
    source.insert_names("RdP", &["k0", "title0"]);
    (mapping, source)
}

/// `certain_answers` (one refutation sweep per palette group) equals the
/// per-tuple decisions `{t̄ : certain_contains(t̄).certain}`, and its
/// completeness is the worst per-tuple one — under the exhaustive oracle
/// budget and under a leaf cap small enough to report `Capped`, on the
/// random mixed scenarios and on titled ones (two palette groups). For
/// monotone queries, GCWA\* takes the monotone route and returns the exact
/// certain answers, and under a 3-leaf cap a `Capped` superset of them;
/// the approximation bracket is tight at the certain answers, by the
/// monotone route or, for a non-positive query on an all-closed mapping,
/// the c-table route.
#[test]
fn set_answers_equal_per_tuple_decisions() {
    // The oracle budget with a leaf cap: the ∀*∃* witness space (Prop 5)
    // takes only the leaf cap from the caller and is exponential in the
    // open templates, so without one the universal battery entry does not
    // finish on the titled scenarios.
    let oracle_leaves = SearchBudget {
        max_leaves: Some(20_000),
        ..oracle_budget()
    };
    let capped_budget = SearchBudget {
        max_leaves: Some(3),
        ..oracle_budget()
    };
    let gcwa_capped = RegimeBudget {
        max_leaves: Some(3),
        ..RegimeBudget::unions_of(1)
    };
    let (mut saw_capped, mut saw_two_groups, mut saw_gcwa_capped) = (false, false, false);
    let mut cex_routes = BTreeSet::new();
    for seed in 0..30u64 {
        let mut rng = random_gen::rng(9000 + seed);
        let scenarios = [random_scenario(&mut rng), titled_scenario(&mut rng)];
        for (si, (mapping, source)) in scenarios.iter().enumerate() {
            let ex = Exchange::new(mapping, source);
            let csol_consts = ex.csol().adom_consts();
            for (qi, query) in battery().into_iter().enumerate() {
                let cands = candidates(source, &query);
                let beyond_csol = |t: &Tuple| t.consts().any(|c| !csol_consts.contains(&c));
                saw_two_groups |= query.arity() == 1 && cands.iter().any(beyond_csol);
                for budget in [oracle_leaves.clone(), capped_budget.clone()] {
                    let (set, set_comp) = ex.certain_answers(&query, Some(&budget));
                    let mut per_tuple = BTreeSet::new();
                    let mut worst = Completeness::Exact;
                    for t in &cands {
                        let out = ex.certain_contains(&query, t, Some(&budget));
                        if out.certain {
                            per_tuple.insert(t.clone());
                        }
                        worst = worst.worse(out.completeness);
                        // Every counterexample, on every route, is a member
                        // of Rep_A(CSol_A(S)) that falsifies the query.
                        if let Some(cex) = &out.counterexample {
                            assert!(
                                rep_a_membership(ex.csol(), cex).is_some(),
                                "seed {seed} scenario {si} q{qi} {t} via {:?}: counterexample not in Rep_A: {cex}",
                                out.regime
                            );
                            assert!(
                                !query.holds_on(cex, t),
                                "seed {seed} scenario {si} q{qi} {t} via {:?}: counterexample satisfies the query",
                                out.regime
                            );
                            cex_routes.insert(format!("{:?}", out.regime));
                        }
                    }
                    let got: BTreeSet<Tuple> = set.iter().cloned().collect();
                    let ctx = format!(
                        "seed {seed} scenario {si} q{qi} cap {:?}\nmapping:\n{mapping}\nS={source}",
                        budget.max_leaves
                    );
                    assert_eq!(got, per_tuple, "{ctx}");
                    assert_eq!(set_comp, worst, "{ctx}");
                    saw_capped |= set_comp == Completeness::Capped;
                }
                if classify::is_monotone(&query.formula) {
                    let (cert, comp) = ex.certain_answers(&query, None);
                    assert_eq!(comp, Completeness::Exact, "seed {seed} q{qi}");
                    let g = ex.gcwa_star_answers(&query, &RegimeBudget::unions_of(1));
                    assert_eq!(g.route, GcwaRoute::Monotone, "seed {seed} q{qi}");
                    assert_eq!(g.completeness, Completeness::Exact, "seed {seed} q{qi}");
                    assert_eq!(g.answers, cert, "seed {seed} q{qi}");
                    assert_eq!((g.minimal_solutions, g.unions), (0, 0));
                    let g = ex.gcwa_star_answers(&query, &gcwa_capped);
                    assert_eq!(g.route, GcwaRoute::Monotone, "seed {seed} q{qi}");
                    assert!(
                        cert.iter().all(|t| g.answers.contains(t)),
                        "seed {seed} q{qi}"
                    );
                    if g.completeness == Completeness::Capped {
                        saw_gcwa_capped = true;
                    } else {
                        assert_eq!(g.answers, cert, "seed {seed} q{qi}");
                    }
                    let a = ex.approx_certain_answers(&query, Some(&oracle_budget()));
                    let route = if mapping.is_all_closed() && !classify::is_positive(&query.formula)
                    {
                        ApproxRoute::CTable
                    } else {
                        ApproxRoute::Monotone
                    };
                    assert_eq!(a.route, route, "seed {seed} q{qi}");
                    assert_eq!(a.completeness, Completeness::Exact, "seed {seed} q{qi}");
                    assert!(a.tight, "seed {seed} q{qi}");
                    assert_eq!(a.lower, cert, "seed {seed} q{qi}");
                    assert_eq!(a.upper, cert, "seed {seed} q{qi}");
                }
            }
        }
    }
    assert!(saw_capped, "the leaf cap never truncated a sweep");
    let routes = [
        "ClosedWorld",
        "Monotone",
        "OpenBounded",
        "UniversalExistential",
    ];
    assert_eq!(
        cex_routes,
        routes.iter().map(|r| r.to_string()).collect(),
        "counterexamples checked on every search route"
    );
    assert!(
        saw_gcwa_capped,
        "the GCWA* leaf cap never truncated a sweep"
    );
    assert!(
        saw_two_groups,
        "no scenario split its candidates into two palette groups"
    );
}
