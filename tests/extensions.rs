//! Tests for the paper's §6 extensions and the engine fast paths built for
//! them: 1-to-m bounded open nulls, and the Lemma 3 embedding fast path.

use oc_exchange::chase::Mapping;
use oc_exchange::core::{certain, compose, Exchange};
use oc_exchange::logic::Query;
use oc_exchange::solver::{find_embedding_valuation, Completeness};
use oc_exchange::{Instance, RelSym, Tuple, Value};

fn fd_query() -> Query {
    Query::boolean(
        oc_exchange::logic::parse_formula("forall x y1 y2. (R(x, y1) & R(x, y2) -> y1 = y2)")
            .unwrap(),
    )
}

fn unary_source(n: usize) -> Instance {
    let mut s = Instance::new();
    for i in 0..n {
        s.insert_names("E", &[&format!("e{i}")]);
    }
    s
}

/// §6: with m = 1, the 1-to-m semantics coincides with the CWA.
#[test]
fn one_to_m_at_one_is_cwa() {
    let open = Mapping::parse("R(x:cl, z:op) <- E(x)").unwrap();
    let s = unary_source(2);
    let q = fd_query();
    let empty = Tuple::new(Vec::<Value>::new());
    let m1 = Exchange::new(&open, &s).certain_contains_one_to_m(&q, &empty, 1);
    let cwa = certain::certain_cwa(&open, &s, &q, &empty);
    assert_eq!(m1.certain, cwa.certain);
    assert!(m1.certain, "one value per null: the FD holds");
    assert_eq!(m1.completeness, Completeness::Exact);
}

/// §6: m = 2 already lets an open null take two values, refuting the FD.
#[test]
fn one_to_m_at_two_refutes_fd() {
    let open = Mapping::parse("R(x:cl, z:op) <- E(x)").unwrap();
    let s = unary_source(1);
    let q = fd_query();
    let empty = Tuple::new(Vec::<Value>::new());
    let m2 = Exchange::new(&open, &s).certain_contains_one_to_m(&q, &empty, 2);
    assert!(!m2.certain);
    let cex = m2.counterexample.expect("counterexample");
    // The counterexample has exactly 2 values for the single key (1-to-2).
    assert_eq!(cex.relation(RelSym::new("R")).unwrap().len(), 2);
}

/// §6: certain answers shrink monotonically in m (larger m = more
/// counterexample instances).
#[test]
fn one_to_m_monotone_in_m() {
    let open = Mapping::parse("R(x:cl, z:op) <- E(x)").unwrap();
    let s = unary_source(2);
    let queries = [
        "forall x y1 y2. (R(x, y1) & R(x, y2) -> y1 = y2)",
        "forall x y1 y2 y3. (R(x, y1) & R(x, y2) & R(x, y3) \
         -> (y1 = y2 | y1 = y3 | y2 = y3))", // "at most 2 values"
    ];
    let empty = Tuple::new(Vec::<Value>::new());
    for src in queries {
        let q = Query::boolean(oc_exchange::logic::parse_formula(src).unwrap());
        let mut prev = true;
        for m in 1..=3 {
            let out = Exchange::new(&open, &s).certain_contains_one_to_m(&q, &empty, m);
            assert!(
                !out.certain || prev,
                "{src}: certain at m={m} but not at m-1 — not monotone"
            );
            prev = out.certain;
        }
    }
}

/// §6: "at most 2 values" is certain under 1-to-2 but not under 1-to-3.
#[test]
fn one_to_m_thresholds() {
    let open = Mapping::parse("R(x:cl, z:op) <- E(x)").unwrap();
    let s = unary_source(1);
    let at_most_two = Query::boolean(
        oc_exchange::logic::parse_formula(
            "forall x y1 y2 y3. (R(x, y1) & R(x, y2) & R(x, y3) \
             -> (y1 = y2 | y1 = y3 | y2 = y3))",
        )
        .unwrap(),
    );
    let empty = Tuple::new(Vec::<Value>::new());
    assert!(
        Exchange::new(&open, &s)
            .certain_contains_one_to_m(&at_most_two, &empty, 2)
            .certain
    );
    assert!(
        !Exchange::new(&open, &s)
            .certain_contains_one_to_m(&at_most_two, &empty, 3)
            .certain
    );
}

/// The embedding CSP: v(T) ⊆ R with shared nulls across relations.
#[test]
fn embedding_valuation_shared_nulls() {
    let mut t = Instance::new();
    t.insert(
        RelSym::new("A"),
        Tuple::new(vec![Value::c("a"), Value::null(0)]),
    );
    t.insert(RelSym::new("B"), Tuple::new(vec![Value::null(0)]));
    let mut r = Instance::new();
    r.insert_names("A", &["a", "k"]);
    r.insert_names("A", &["a", "l"]);
    r.insert_names("B", &["l"]);
    let v = find_embedding_valuation(&t, &r).expect("embedding exists");
    assert_eq!(v.get(oc_exchange::NullId(0)).unwrap().name(), "l");
    // No consistent choice: B only has "z".
    let mut r2 = Instance::new();
    r2.insert_names("A", &["a", "k"]);
    r2.insert_names("B", &["z"]);
    assert!(find_embedding_valuation(&t, &r2).is_none());
}

/// The Lemma 3 fast path (copy-like Δ) agrees with the generic valuation
/// search on an exhaustive small universe.
#[test]
fn embedding_fast_path_agrees_with_generic() {
    let sigma = Mapping::parse("M(x:cl, z:op) <- E(x, y)").unwrap();
    // Copy-like Δ → fast path.
    let fast_delta = Mapping::parse("F(x:op, y:op) <- M(x, y)").unwrap();
    // Equivalent Δ with a redundant second atom → generic path (multi-atom
    // body disables the preimage shortcut).
    let slow_delta = Mapping::parse("F(x:op, y:op) <- M(x, y) & M(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a", "b"]);
    let consts = ["a", "k", "l"];
    for c1 in consts {
        for c2 in consts {
            let mut w = Instance::new();
            w.insert_names("F", &[c1, c2]);
            let fast = compose::comp_membership(&sigma, &fast_delta, &s, &w, None);
            let slow = compose::comp_membership(&sigma, &slow_delta, &s, &w, None);
            assert_eq!(fast.path, compose::CompPath::MonotoneOpen);
            assert_eq!(
                fast.member, slow.member,
                "fast/generic disagreement on W = {w}"
            );
        }
    }
}

/// Σ-nulls that Δ ignores are unconstrained: membership holds for any W
/// covering the Δ-relevant part.
#[test]
fn embedding_ignores_irrelevant_nulls() {
    // Σ produces M and an unrelated relation K with its own null.
    let sigma = Mapping::parse("M(x:cl, z:op) <- E(x, y); K(w:cl) <- E(x, w)").unwrap();
    let delta = Mapping::parse("F(x:op, y:op) <- M(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a", "b"]);
    let mut w = Instance::new();
    w.insert_names("F", &["a", "anything"]);
    let out = compose::comp_membership(&sigma, &delta, &s, &w, None);
    assert!(out.member);
    let j = out.intermediate.expect("intermediate produced");
    assert!(j.is_ground(), "reported intermediate must be over Const");
}
