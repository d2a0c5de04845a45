//! Every worked example from the paper, end to end.

use oc_exchange::chase::{canonical_solution, is_solution, Mapping};
use oc_exchange::core::{certain, semantics, skstd::SkMapping};
use oc_exchange::logic::Query;
use oc_exchange::solver::repa::rep_a_membership;
use oc_exchange::{Ann, AnnInstance, AnnTuple, Annotation, Instance, RelSym, Tuple, Value};

fn at(vals: Vec<Value>, anns: Vec<Ann>) -> AnnTuple {
    AnnTuple::new(Tuple::new(vals), Annotation::new(anns))
}

/// §2: the canonical solution of R(x, z) :- E(x, y) on
/// E = {(a,c1),(a,c2),(b,c3)} has R = {(a,⊥1),(a,⊥2),(b,⊥3)}.
#[test]
fn section2_canonical_solution() {
    let m = Mapping::parse("R(x:cl, z:cl) <- E(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a", "c1"]);
    s.insert_names("E", &["a", "c2"]);
    s.insert_names("E", &["b", "c3"]);
    let csol = canonical_solution(&m, &s);
    let r = csol.rel_part();
    let rel = r.relation(RelSym::new("R")).unwrap();
    assert_eq!(rel.len(), 3);
    assert_eq!(rel.nulls().len(), 3, "three distinct nulls");
    // Exactly two tuples with first attribute a, one with b.
    assert_eq!(rel.iter().filter(|t| t.get(0) == Value::c("a")).count(), 2);
    assert_eq!(rel.iter().filter(|t| t.get(0) == Value::c("b")).count(), 1);
}

/// §2 (CWA): presolution {(a,⊥),(b,⊥′)} is a CWA-solution; equating the
/// a-null and the b-null is rejected as an unjustified fact.
#[test]
fn section2_cwa_solutions() {
    let m = Mapping::parse("R(x:cl, z:cl) <- E(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a", "c1"]);
    s.insert_names("E", &["a", "c2"]);
    s.insert_names("E", &["b", "c3"]);
    let r = RelSym::new("R");
    let cl2 = vec![Ann::Closed, Ann::Closed];

    let mut good = AnnInstance::new();
    good.insert(r, at(vec![Value::c("a"), Value::null(100)], cl2.clone()));
    good.insert(r, at(vec![Value::c("b"), Value::null(101)], cl2.clone()));
    assert!(is_solution(&m, &s, &good).is_some());

    let mut bad = AnnInstance::new();
    bad.insert(r, at(vec![Value::c("a"), Value::null(100)], cl2.clone()));
    bad.insert(r, at(vec![Value::c("a"), Value::null(102)], cl2.clone()));
    bad.insert(r, at(vec![Value::c("b"), Value::null(100)], cl2.clone()));
    assert!(
        is_solution(&m, &s, &bad).is_none(),
        "a and b sharing a value is unjustified under the CWA"
    );
}

/// §3: Rep_A({(a^cl, ⊥^op)}) = all relations with first projection {a};
/// Rep_A({(a^cl, ⊥^cl)}) = one-tuple relations {(a, b)}.
#[test]
fn section3_rep_a_semantics() {
    let rel = RelSym::new("RepEx");
    // Open second position.
    let mut open = AnnInstance::new();
    open.insert(
        rel,
        at(
            vec![Value::c("a"), Value::null(0)],
            vec![Ann::Closed, Ann::Open],
        ),
    );
    let mut many = Instance::new();
    many.insert_names("RepEx", &["a", "x"]);
    many.insert_names("RepEx", &["a", "y"]);
    assert!(rep_a_membership(&open, &many).is_some());
    // Closed second position: exactly one tuple.
    let mut closed = AnnInstance::new();
    closed.insert(
        rel,
        at(
            vec![Value::c("a"), Value::null(0)],
            vec![Ann::Closed, Ann::Closed],
        ),
    );
    assert!(rep_a_membership(&closed, &many).is_none());
    let mut one = Instance::new();
    one.insert_names("RepEx", &["a", "b"]);
    assert!(rep_a_membership(&closed, &one).is_some());
}

/// §3: canonical solution with the same variable annotated differently —
/// R(x^op, z1^cl) ∧ R(x^cl, z2^op) on S = {(a, c)} gives
/// CSol_A = {(a^op, ⊥1^cl), (a^cl, ⊥2^op)}.
#[test]
fn section3_mixed_annotation_csol() {
    let m = Mapping::parse("R(x:op, z1:cl), R(x:cl, z2:op) <- E(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a", "c"]);
    let csol = canonical_solution(&m, &s);
    let r = csol.instance.relation(RelSym::new("R")).unwrap();
    let anns: Vec<Annotation> = r.iter().map(|t| t.ann.clone()).collect();
    assert_eq!(anns.len(), 2);
    assert!(anns.contains(&Annotation::new(vec![Ann::Open, Ann::Closed])));
    assert!(anns.contains(&Annotation::new(vec![Ann::Closed, Ann::Open])));
}

/// §3's Σα-solution example: R(x^op, z1^cl) ∧ R(y^cl, z2^cl) :- S(x, y)
/// with S = {(a,b)}; equating the nulls yields a Σα-solution.
#[test]
fn section3_solution_example() {
    let m = Mapping::parse("R(x:op, z1:cl), R(y:cl, z2:cl) <- Src(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("Src", &["a", "b"]);
    let r = RelSym::new("R");
    let mut t = AnnInstance::new();
    t.insert(
        r,
        at(
            vec![Value::c("a"), Value::null(7)],
            vec![Ann::Open, Ann::Closed],
        ),
    );
    t.insert(
        r,
        at(
            vec![Value::c("b"), Value::null(7)],
            vec![Ann::Closed, Ann::Closed],
        ),
    );
    assert!(is_solution(&m, &s, &t).is_some());
}

/// §1: the full three-rule conference mapping and its anomaly.
#[test]
fn section1_conference_mapping() {
    let m = oc_exchange::workloads::conference::mapping();
    let s = oc_exchange::workloads::conference::source(4, 2);
    let csol = canonical_solution(&m, &s);

    // The second rule (closed review) and third rule (open review for
    // unassigned papers) fire disjointly.
    let reviews = csol.instance.relation(RelSym::new("Reviews")).unwrap();
    let n_closed = reviews.iter().filter(|t| t.ann.is_all_closed()).count();
    let n_open_snd = reviews.iter().filter(|t| t.ann.get(1) == Ann::Open).count();
    assert_eq!(n_closed, 2, "p0, p2 assigned");
    assert_eq!(n_open_snd, 2, "p1, p3 unassigned");

    // The one-author anomaly (smaller source: the CWA side must *exhaust*
    // the valuation space, which is exponential in the number of nulls).
    let s_small = oc_exchange::workloads::conference::source(2, 2);
    let q = oc_exchange::workloads::conference::one_author_query();
    let empty = Tuple::new(Vec::<Value>::new());
    assert!(!certain::certain_contains(&m, &s_small, &q, &empty, None).certain);
    assert!(certain::certain_cwa(&m, &s_small, &q, &empty).certain);
}

/// §5 example (8): employee ids and phones through SkSTDs.
#[test]
fn section5_example8() {
    let m = SkMapping::parse("T(f(em):cl, em:cl, g(em, proj):op) <- S(em, proj)").unwrap();
    let mut s = Instance::new();
    s.insert_names("S", &["John", "P1"]);
    // The paper's example member: {(001, John, 1234), (001, John, 5678)}.
    let mut t = Instance::new();
    t.insert_names("T", &["001", "John", "1234"]);
    t.insert_names("T", &["001", "John", "5678"]);
    assert!(m.membership(&s, &t).is_some());
}

/// §4 membership PTIME/NP paths agree on the conference example.
#[test]
fn membership_paths_agree() {
    let m = oc_exchange::workloads::conference::mapping().all_open();
    let s = oc_exchange::workloads::conference::source(3, 2);
    let mut t = Instance::new();
    for i in 0..3 {
        t.insert_names("Submissions", &[&format!("p{i}"), "someone"]);
        t.insert_names("Reviews", &[&format!("p{i}"), "fine"]);
    }
    assert_eq!(
        semantics::is_member(&m, &s, &t),
        rep_a_membership(&canonical_solution(&m, &s).instance, &t).is_some()
    );
}

/// A query through the public Query API over a materialized canonical
/// solution: naive evaluation drops null answers.
#[test]
fn naive_evaluation_over_csol() {
    let m = Mapping::parse("Sub(x:cl, z:op) <- P(x)").unwrap();
    let mut s = Instance::new();
    s.insert_names("P", &["p1"]);
    s.insert_names("P", &["p2"]);
    let csol = canonical_solution(&m, &s).rel_part();
    let q_first = Query::parse(&["x"], "exists z. Sub(x, z)").unwrap();
    assert_eq!(q_first.naive_certain_answers(&csol).len(), 2);
    let q_second = Query::parse(&["z"], "exists x. Sub(x, z)").unwrap();
    assert_eq!(
        q_second.naive_certain_answers(&csol).len(),
        0,
        "author answers are nulls and must be dropped"
    );
}
