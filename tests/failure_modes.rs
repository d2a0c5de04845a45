//! Failure-injection tests: malformed inputs, exhausted budgets, failing
//! chases, and ill-formed algebra must fail loudly and precisely — never
//! silently produce wrong answers.

use oc_exchange::chase::{canonical_solution_with_deps, ChaseOutcome, Egd, Mapping, TargetDep};
use oc_exchange::core::certain;
use oc_exchange::ctables::RaExpr;
use oc_exchange::logic::datalog::{DatalogError, DatalogProgram};
use oc_exchange::logic::{parse_formula, parse_rules, Query};
use oc_exchange::solver::{search_rep_a_indexed, Completeness, Leaf, SearchBudget};
use oc_exchange::{Instance, Tuple, Value};
use std::collections::BTreeSet;

// ── Parser failures carry positions and messages ───────────────────────

#[test]
fn parser_reports_position() {
    let err = parse_formula("R(x, ) & S(y)").unwrap_err();
    assert!(err.pos > 0);
    assert!(!err.msg.is_empty());
    let err2 = parse_rules("T(x:cl) <- ").unwrap_err();
    assert!(
        err2.pos >= 10,
        "error near the missing body, got {}",
        err2.pos
    );
}

/// A `.dx` source with a labeled null parses, but the exchange refuses
/// it before any chase runs, naming the first such fact and its span.
#[test]
fn non_ground_dx_source_is_refused_with_a_diagnostic() {
    let text = "scenario \"tiny\" {
  source  { Emp/2; }
  target  { Dept/2; }
  mapping { Dept(d:cl, m:op) <- Emp(m, d); }
  instance { Emp(ann, sales); Emp(?x, sales); Emp(?y, ops); }
  query managed(d) <- exists m. Dept(d, m);
}
";
    let parsed = oc_exchange::text::Scenario::parse(text).expect("the parser accepts nulls");
    assert!(!parsed.source.is_ground());
    let err = oc_exchange::text::Scenario::parse_ground(text).unwrap_err();
    assert_eq!(
        err.msg,
        "source fact `Emp(?x, sales)` holds a labeled null; the exchange needs a ground source"
    );
    assert_eq!(&text[err.span.start..err.span.end], "Emp(?x, sales)");
    assert!(err.render(text).starts_with("error at 5:31: source fact"));
    let ground = text.replace("?x", "bo").replace("?y", "cy");
    let sc = oc_exchange::text::Scenario::parse_ground(&ground).expect("a ground source runs");
    assert_eq!(sc, oc_exchange::text::Scenario::parse(&ground).unwrap());
}

#[test]
fn parser_rejects_dangling_annotation() {
    assert!(parse_rules("T(x:, y) <- R(x, y)").is_err());
    assert!(
        parse_rules("T(x:open) <- R(x)").is_err(),
        "only op/cl are annotations"
    );
}

#[test]
#[should_panic(expected = "conflicting arity")]
fn mapping_rejects_inconsistent_arity() {
    // Same relation used with different arities across rules: the schema
    // builder fails fast.
    let _ = Mapping::parse("T(x:cl) <- R(x); T(x:cl, y:cl) <- R(x) & R(y)");
}

// ── Query construction invariants ───────────────────────────────────────

#[test]
#[should_panic(expected = "free variables")]
fn query_head_must_cover_free_vars() {
    let _ = Query::parse(&["x"], "R(x, y)");
}

#[test]
#[should_panic(expected = "arity mismatch")]
fn certain_rejects_wrong_arity_tuple() {
    let m = Mapping::parse("T(x:cl) <- R(x)").unwrap();
    let q = Query::parse(&["x"], "T(x)").unwrap();
    certain::certain_contains(
        &m,
        &Instance::new(),
        &q,
        &Tuple::from_names(&["a", "b"]),
        None,
    );
}

#[test]
#[should_panic(expected = "over Const")]
fn certain_rejects_null_tuples() {
    let m = Mapping::parse("T(x:cl) <- R(x)").unwrap();
    let q = Query::parse(&["x"], "T(x)").unwrap();
    certain::certain_contains(
        &m,
        &Instance::new(),
        &q,
        &Tuple::new(vec![Value::null(1)]),
        None,
    );
}

// ── Budget exhaustion is reported, not hidden ───────────────────────────

#[test]
fn leaf_cap_reports_capped() {
    // An instance with an open null and a check that never succeeds: with a
    // tiny leaf cap the search must say Capped, not Exact.
    let m = Mapping::parse("T(x:cl, z:op) <- R(x)").unwrap();
    let mut s = Instance::new();
    for i in 0..4 {
        s.insert_names("R", &[&format!("r{i}")]);
    }
    let csol = canonical(&m, &s);
    let budget = SearchBudget {
        max_external_consts: 2,
        max_extra_tuples: 3,
        max_extra_per_template: None,
        max_candidate_pool: 4096,
        max_leaves: Some(5),
    };
    let mut never = |_: &Leaf| false;
    let out = search_rep_a_indexed(&csol, &BTreeSet::new(), &budget, &mut never);
    assert!(out.witness.is_none());
    assert_eq!(out.completeness, Completeness::Capped);
    assert!(out.leaves <= 6);
}

fn canonical(m: &Mapping, s: &Instance) -> oc_exchange::AnnInstance {
    oc_exchange::chase::canonical_solution(m, s).instance
}

#[test]
fn bounded_regime_never_claims_exact() {
    // #op = 2 (undecidable regime): a negative answer must carry Bounded or
    // Capped completeness.
    let m = Mapping::parse("T(x:cl, z1:op, z2:op) <- R(x)").unwrap();
    let q = Query::boolean(parse_formula("forall x y z. (T(x, y, z) -> y = z)").unwrap());
    let mut s = Instance::new();
    s.insert_names("R", &["a"]);
    let out = certain::certain_contains(&m, &s, &q, &Tuple::new(Vec::<Value>::new()), None);
    // The query is refutable (replicate with distinct values), so certain
    // should be false; but if the default budget had missed it, the regime
    // must NOT have been Exact.
    if out.certain {
        assert_ne!(out.completeness, Completeness::Exact);
    } else {
        assert!(out.counterexample.is_some());
    }
}

// ── Chase failures ──────────────────────────────────────────────────────

#[test]
fn egd_constant_clash_reported() {
    // Exchange copies two tuples with different second components for the
    // same key; a key egd then must fail on constants.
    let m = Mapping::parse("T(x:cl, y:cl) <- R(x, y)").unwrap();
    let egd = TargetDep::Egd(Egd::parse("y = z <- T(x, y) & T(x, z)").unwrap());
    let mut s = Instance::new();
    s.insert_names("R", &["k", "v1"]);
    s.insert_names("R", &["k", "v2"]);
    let out = canonical_solution_with_deps(&m, &[egd], &s, 100);
    assert!(
        matches!(out.outcome, ChaseOutcome::Failed { .. }),
        "constant clash must fail the chase, got {:?}",
        out.outcome
    );
}

#[test]
fn chase_step_limit_reported() {
    // A non-weakly-acyclic tgd that reproduces fresh nulls forever: the
    // step limit must trip, flagged as such.
    let m = Mapping::parse("T(x:cl, z:cl) <- R(x)").unwrap();
    let tgd = TargetDep::parse("T(y:cl, z:cl) <- T(x, y)").unwrap();
    assert!(!oc_exchange::chase::is_weakly_acyclic(
        std::slice::from_ref(&tgd)
    ));
    let mut s = Instance::new();
    s.insert_names("R", &["a"]);
    let out = canonical_solution_with_deps(&m, &[tgd], &s, 10);
    assert_eq!(out.outcome, ChaseOutcome::StepLimit);
}

// ── Datalog rejects bad programs precisely ─────────────────────────────

#[test]
fn datalog_error_messages_name_the_problem() {
    let e = DatalogProgram::parse("FmWin(x) <- FmMove(x, y) & !FmWin(y)").unwrap_err();
    assert!(e.to_string().contains("stratifiable"));
    let e = DatalogProgram::parse("FmP(x, y) <- FmQ(x)").unwrap_err();
    assert!(e.to_string().contains("unsafe"));
    let e = DatalogProgram::parse("FmP(x) <- FmQ(x) | FmR(x)").unwrap_err();
    assert!(matches!(e, DatalogError::NotDatalog { .. }));
}

// ── Relational algebra arity discipline ────────────────────────────────

#[test]
fn ra_arity_errors() {
    let lookup = |r: oc_exchange::RelSym| (r == oc_exchange::RelSym::new("FmA")).then_some(2);
    // Union of arity 2 with arity 1.
    let bad = RaExpr::rel("FmA").union(RaExpr::rel("FmA").project([0]));
    assert!(bad.arity_with(&lookup).is_err());
    // Projection out of range.
    let bad2 = RaExpr::rel("FmA").project([7]);
    assert!(bad2.arity_with(&lookup).is_err());
}

// ── Sources must be ground ──────────────────────────────────────────────

#[test]
#[should_panic(expected = "over Const")]
fn sources_with_nulls_rejected() {
    let m = Mapping::parse("T(x:cl) <- R(x)").unwrap();
    let mut s = Instance::new();
    s.insert(
        oc_exchange::RelSym::new("R"),
        Tuple::new(vec![Value::null(1)]),
    );
    let _ = oc_exchange::core::semantics::is_member(&m, &s, &Instance::new());
}
