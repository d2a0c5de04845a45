//! Cross-validation of the two exact CWA certain-answer engines:
//!
//! * the **coNP valuation search** of `dx-core::certain` (Theorem 3(1)'s
//!   witness space), driven by FO queries;
//! * the **conditional-table** route of `dx-core::ctable_bridge`
//!   (Imieliński–Lipski, the §2-cited representation mechanism), driven by
//!   equivalent relational-algebra queries.
//!
//! Each test pairs an FO query with its RA translation by hand and asserts
//! the two engines produce identical certain-answer relations on the same
//! mapping and source. Agreement of two independent exact algorithms is
//! strong evidence for both.

use oc_exchange::chase::Mapping;
use oc_exchange::core::{certain, Exchange};
use oc_exchange::ctables::{RaExpr, RaPred};
use oc_exchange::logic::Query;
use oc_exchange::workloads::random_gen;
use oc_exchange::{Instance, Relation, Schema};

/// Collect the FO engine's certain answers for a unary query.
fn fo_certain(m: &Mapping, s: &Instance, q: &Query) -> Relation {
    let (rel, comp) = certain::certain_answers(m, s, q, None);
    assert_eq!(comp, dx_solver::Completeness::Exact);
    rel
}

/// `Q(x) = T(x) ∧ ¬S(x)` vs `T ∖ S` on an exchange inventing nulls.
#[test]
fn difference_query_agreement() {
    let m = Mapping::parse("XcT(x:cl) <- XcA(x, y); XcS(z:cl) <- XcB(y, z)").unwrap();
    let mut s = Instance::new();
    s.insert_names("XcA", &["a", "1"]);
    s.insert_names("XcA", &["b", "2"]);
    s.insert_names("XcB", &["3", "a"]);
    let fo = Query::parse(&["x"], "XcT(x) & !XcS(x)").unwrap();
    let ra = RaExpr::rel("XcT").diff(RaExpr::rel("XcS"));
    let via_search = fo_certain(&m, &s, &fo);
    let via_ctable = Exchange::new(&m, &s).certain_answers_cwa_ra(&ra);
    assert_eq!(via_search, via_ctable);
    // b survives (a is certainly in XcS via the copied constant).
    assert!(via_ctable.contains(&oc_exchange::Tuple::from_names(&["b"])));
}

/// Join + selection with a constant vs its RA form, on a mapping that both
/// copies and invents.
#[test]
fn join_selection_agreement() {
    let m = Mapping::parse("XcR(x:cl, y:cl) <- XcE(x, y); XcR(x:cl, z:cl) <- XcLoner(x)").unwrap();
    let mut s = Instance::new();
    s.insert_names("XcE", &["a", "b"]);
    s.insert_names("XcE", &["b", "b"]);
    s.insert_names("XcLoner", &["c"]);
    // Q(x): ∃y (R(x,y) ∧ y = 'b')
    let fo = Query::parse(&["x"], "exists y. XcR(x, y) & y = 'b'").unwrap();
    let ra = RaExpr::rel("XcR")
        .select(RaPred::col_is(1, "b"))
        .project([0]);
    assert_eq!(
        fo_certain(&m, &s, &fo),
        Exchange::new(&m, &s).certain_answers_cwa_ra(&ra)
    );
}

/// Randomized agreement over many small mappings and sources, with a fixed
/// query pair (difference — the canonical naive-evaluation breaker).
/// Mappings are sampled from all-closed rule templates that copy, project,
/// and invent nulls.
#[test]
fn randomized_difference_agreement() {
    use rand::Rng;
    let schema = Schema::from_pairs([("XcA", 2), ("XcB", 1)]);
    let p_rules = [
        "XcP(x:cl) <- XcA(x, y)",
        "XcP(y:cl) <- XcA(x, y)",
        "XcP(z:cl) <- XcA(x, y)",
        "XcP(x:cl) <- XcB(x)",
    ];
    let q_rules = [
        "XcQ(x:cl) <- XcA(x, y)",
        "XcQ(y:cl) <- XcA(x, y)",
        "XcQ(z:cl) <- XcA(x, y)",
        "XcQ(x:cl) <- XcB(x)",
    ];
    let fo = Query::parse(&["x"], "XcP(x) & !XcQ(x)").unwrap();
    let ra = RaExpr::rel("XcP").diff(RaExpr::rel("XcQ"));
    for seed in 0..40u64 {
        let mut rng = random_gen::rng(seed);
        let rules = format!(
            "{}; {}",
            p_rules[rng.gen_range(0..p_rules.len())],
            q_rules[rng.gen_range(0..q_rules.len())],
        );
        let m = Mapping::parse(&rules).unwrap();
        assert!(m.is_all_closed());
        let s = random_gen::random_instance(&schema, 3, 3, &mut rng);
        let via_search = fo_certain(&m, &s, &fo);
        let via_ctable = Exchange::new(&m, &s).certain_answers_cwa_ra(&ra);
        assert_eq!(via_search, via_ctable, "seed {seed}, rules `{rules}`");
    }
}

/// Possible answers are a superset of certain answers and contain every
/// copied constant.
#[test]
fn possible_superset_of_certain() {
    let m = Mapping::parse("XcT2(x:cl, z:cl) <- XcA(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("XcA", &["a", "1"]);
    s.insert_names("XcA", &["b", "2"]);
    let ra = RaExpr::rel("XcT2").project([0]);
    let ex = Exchange::new(&m, &s);
    let certain = ex.certain_answers_cwa_ra(&ra);
    let possible = ex.possible_answers_cwa_ra(&ra);
    for t in certain.iter() {
        assert!(possible.contains(t));
    }
    assert_eq!(certain.len(), 2, "copied keys are certain");
}
