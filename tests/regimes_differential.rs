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
use oc_exchange::core::regimes::{approx_certain_answers, gcwa_star_answers, RegimeBudget};
use oc_exchange::core::{certain_answers, certain_contains, Exchange};
use oc_exchange::logic::Query;
use oc_exchange::solver::{
    minimal_rep_a_members, rep_a_membership, search_rep_a_indexed, Completeness, SearchBudget,
};
use oc_exchange::workloads::random_gen;
use oc_exchange::{ConstId, Instance, Tuple, Value};
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

/// The query battery: negation in every non-positive entry, exercising
/// anti-joins, universals, disjunction-with-negation shapes and — last —
/// the *correlated* §1 implication, which PR 5's seeded anti-join lowering
/// compiles to a plan (asserted below), so the regime engines evaluate it
/// on the incremental index inside `for_each_union`/member sweeps instead
/// of tree-walking.
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
            assert_eq!(out.minimal_solutions, fast_minimal.len());

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
