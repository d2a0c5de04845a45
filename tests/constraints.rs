//! Integration tests for the §6 target-constraint pipeline: exchange, then
//! chase, then query.

use oc_exchange::chase::{
    canonical_solution_with_deps, chase_engine, is_weakly_acyclic, ChaseOutcome, Mapping, TargetDep,
};
use oc_exchange::core::Exchange;
use oc_exchange::logic::Query;
use oc_exchange::{Instance, RelSym, Tuple};

/// Exchange-then-chase: a mapping copying employees plus a tgd inventing
/// departments and an egd making departments unique per employee.
#[test]
fn pipeline_exchange_chase_query() {
    let m = Mapping::parse("Emp(e:cl) <- Hire(e, y)").unwrap();
    let deps =
        TargetDep::parse_many("Dept(e:cl, d:op) <- Emp(e); d1 = d2 <- Dept(e, d1) & Dept(e, d2)")
            .unwrap();
    assert!(is_weakly_acyclic(&deps));
    let mut s = Instance::new();
    s.insert_names("Hire", &["ada", "2001"]);
    s.insert_names("Hire", &["bob", "2002"]);
    let out = canonical_solution_with_deps(&m, &deps, &s, 1000);
    assert_eq!(out.outcome, ChaseOutcome::Satisfied);
    assert!(chase_engine::satisfies_deps(&out.instance, &deps));
    // Each employee got exactly one department null.
    assert_eq!(out.instance.relation(RelSym::new("Dept")).unwrap().len(), 2);

    // Positive certain answers on the chased instance.
    let q = Query::parse(&["e"], "exists d. Dept(e, d)").unwrap();
    let ans = Exchange::new(&m, &s)
        .certain_positive_with_deps(&deps, &q, 1000)
        .expect("chase succeeds");
    assert_eq!(ans.len(), 2);
    assert!(ans.contains(&Tuple::from_names(&["ada"])));
}

/// The chase propagates source data through constraint-derived joins.
#[test]
fn transitive_like_tgd() {
    let m = Mapping::parse("G(x:cl, y:cl) <- E(x, y)").unwrap();
    // Symmetric closure as a target constraint.
    let deps = TargetDep::parse_many("G(y:cl, x:cl) <- G(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a", "b"]);
    s.insert_names("E", &["b", "c"]);
    let out = canonical_solution_with_deps(&m, &deps, &s, 1000);
    assert_eq!(out.outcome, ChaseOutcome::Satisfied);
    let g = out.instance.rel_part();
    assert_eq!(g.relation(RelSym::new("G")).unwrap().len(), 4);
    assert!(g.contains(RelSym::new("G"), &Tuple::from_names(&["c", "b"])));
}

/// Egd failure: key constraints clashing on source constants mean no
/// solution.
#[test]
fn egd_failure_on_source_data() {
    let m = Mapping::parse("R(x:cl, y:cl) <- E(x, y)").unwrap();
    let deps = TargetDep::parse_many("y1 = y2 <- R(x, y1) & R(x, y2)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["k", "v1"]);
    s.insert_names("E", &["k", "v2"]); // two constants for one key
    let out = canonical_solution_with_deps(&m, &deps, &s, 1000);
    assert!(matches!(out.outcome, ChaseOutcome::Failed { .. }));
    let q = Query::parse(&["x"], "exists y. R(x, y)").unwrap();
    assert!(Exchange::new(&m, &s)
        .certain_positive_with_deps(&deps, &q, 1000)
        .is_none());
}

/// Egds unify nulls coming from *different STD firings* — the closed-world
/// one-value-per-key behaviour extended to constraints.
#[test]
fn egd_unifies_exchange_nulls() {
    // Two rules both invent a value for the same key.
    let m = Mapping::parse("R(x:cl, z:cl) <- E(x); R(x:cl, w:cl) <- F(x)").unwrap();
    let deps = TargetDep::parse_many("y1 = y2 <- R(x, y1) & R(x, y2)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["k"]);
    s.insert_names("F", &["k"]);
    let out = canonical_solution_with_deps(&m, &deps, &s, 1000);
    assert_eq!(out.outcome, ChaseOutcome::Satisfied);
    // The two nulls merged into one tuple.
    assert_eq!(out.instance.relation(RelSym::new("R")).unwrap().len(), 1);
}

/// Weak acyclicity protects the pipeline: a cyclic set is flagged before
/// chasing, and the step limit catches it if chased anyway.
#[test]
fn cyclic_deps_detected_and_limited() {
    let deps = TargetDep::parse_many("G(y:cl, z:op) <- G(x, y)").unwrap();
    assert!(!is_weakly_acyclic(&deps));
    let m = Mapping::parse("G(x:cl, y:cl) <- E(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a", "b"]);
    let out = canonical_solution_with_deps(&m, &deps, &s, 30);
    assert_eq!(out.outcome, ChaseOutcome::StepLimit);
}

/// Facts parser round-trips with the pipeline (usability check).
#[test]
fn facts_parser_feeds_the_pipeline() {
    let s = oc_exchange::logic::parse_facts("E(a, b). E(b, c).").unwrap();
    let m = Mapping::parse("G(x:cl, y:cl) <- E(x, y)").unwrap();
    let csol = oc_exchange::chase::canonical_solution(&m, &s);
    assert_eq!(csol.rel_part().tuple_count(), 2);
}
