//! Differential testing of the compiled query-evaluation subsystem.
//!
//! `dx_logic::eval` (the tree-walking active-domain evaluator) is the
//! reference oracle; `dx-query` (safe-range lowering to relational-algebra
//! plans, greedy index joins) is the fast implementation. The harness
//! asserts **exact result equality** — not mere equivalence — on:
//!
//! * randomized safe-range formulas (conjunctions, constants, repeated
//!   variables, equalities/inequalities, safe negation, existentials,
//!   same-schema disjunctions) over randomized instances *with nulls*
//!   (the naive semantics treats them as atomic values);
//! * the workload queries of the bench suite, incl. certain-answer
//!   null-discard post-filtering;
//! * canonical solutions: `canonical_solution_via(PlannedBodyEval)` must
//!   reproduce the reference construction *identically* (instances, null
//!   justifications, witness tables) on random annotated mappings;
//! * the conditional execution mode: plan-backed `□Q`/`◇Q` against the
//!   `RaExpr` interpreter route and brute-force `Rep` enumeration;
//! * end-to-end `Exchange` answers (certain membership, `⟦S⟧` membership,
//!   composition) across chase strategies (`Exchange::with_strategy`);
//! * first-witness execution: `holds_on_store` with the head bound, and
//!   a Boolean query's answer, against the materialized answers on every
//!   candidate tuple, over two store shapes.

use oc_exchange::chase::{
    canonical_solution, canonical_solution_via, ChaseStrategy, Mapping, NaiveBodyEval, NaiveChase,
};
use oc_exchange::core as dxcore;
use oc_exchange::core::Exchange;
use oc_exchange::ctables::{certain_answers_ra, possible_answers_ra, CInstance, RaExpr, RaPred};
use oc_exchange::engine::IndexedChase;
use oc_exchange::logic::{Formula, Query, Term};
use oc_exchange::query::exec::{exec, exec_nonempty};
use oc_exchange::query::{CompiledQuery, CompiledRa, PlannedBodyEval, QueryEval, QueryStore};
use oc_exchange::relation::DeltaIndex;
use oc_exchange::workloads::random_gen;
use oc_exchange::{Instance, RelSym, Schema, Tuple, Value, Var};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;

// ---------------------------------------------------------------- generators

/// A random instance over the differential schema, with nulls mixed in
/// (nulls are atomic values under the naive semantics — the oracle and the
/// plans must agree on them exactly).
fn random_instance_with_nulls(rng: &mut StdRng) -> Instance {
    let mut inst = Instance::new();
    let n_r = rng.gen_range(0..12);
    let n_s = rng.gen_range(0..8);
    let n_t = rng.gen_range(0..10);
    let value = |rng: &mut StdRng| -> Value {
        if rng.gen_bool(0.2) {
            Value::null(rng.gen_range(0..4) as u32)
        } else {
            Value::Const(oc_exchange::ConstId::new(&format!(
                "c{}",
                rng.gen_range(0..6)
            )))
        }
    };
    for _ in 0..n_r {
        let t = Tuple::new(vec![value(rng), value(rng)]);
        inst.insert(RelSym::new("QdR"), t);
    }
    for _ in 0..n_s {
        inst.insert(RelSym::new("QdS"), Tuple::new(vec![value(rng)]));
    }
    for _ in 0..n_t {
        let t = Tuple::new(vec![value(rng), value(rng)]);
        inst.insert(RelSym::new("QdT"), t);
    }
    inst
}

fn var(i: usize) -> Var {
    Var::new(&format!("qv{i}"))
}

/// A random *safe-range* formula: a conjunctive core of 1–3 atoms over a
/// small variable pool (with occasional constants and repeated variables),
/// plus optional equality binds, inequality filters, safe negations
/// (negated atoms and negated existentials over covered variables), and an
/// optional same-schema disjunction. By construction every formula lowers
/// to a plan — asserted by the harness, so generator drift is caught.
fn random_safe_formula(rng: &mut StdRng) -> Formula {
    let rels = [("QdR", 2usize), ("QdS", 1), ("QdT", 2)];
    let pool = 4usize;
    let term = |rng: &mut StdRng| -> Term {
        if rng.gen_bool(0.2) {
            Term::cst(&format!("c{}", rng.gen_range(0..6)))
        } else {
            Term::Var(var(rng.gen_range(0..pool)))
        }
    };
    let atom = |rng: &mut StdRng| -> Formula {
        let (name, arity) = rels[rng.gen_range(0..rels.len())];
        Formula::atom(name, (0..arity).map(|_| term(rng)).collect())
    };
    let mut conjuncts: Vec<Formula> = Vec::new();
    let n_atoms = rng.gen_range(1..4);
    for _ in 0..n_atoms {
        conjuncts.push(atom(rng));
    }
    let covered: BTreeSet<Var> = conjuncts.iter().flat_map(|f| f.free_vars()).collect();
    let covered: Vec<Var> = covered.into_iter().collect();
    // Optional equality bind / alias / inequality over covered variables.
    if !covered.is_empty() && rng.gen_bool(0.4) {
        let v = covered[rng.gen_range(0..covered.len())];
        match rng.gen_range(0..3) {
            0 => conjuncts.push(Formula::eq(
                Term::Var(v),
                Term::cst(&format!("c{}", rng.gen_range(0..6))),
            )),
            1 => {
                // Alias a fresh variable to a covered one.
                conjuncts.push(Formula::eq(Term::Var(Var::new("qalias")), Term::Var(v)));
            }
            _ => {
                let w = covered[rng.gen_range(0..covered.len())];
                conjuncts.push(Formula::neq(Term::Var(v), Term::Var(w)));
            }
        }
    }
    // Optional safe negation.
    if !covered.is_empty() && rng.gen_bool(0.5) {
        let v = covered[rng.gen_range(0..covered.len())];
        if rng.gen_bool(0.5) {
            conjuncts.push(Formula::not(Formula::atom("QdS", vec![Term::Var(v)])));
        } else {
            conjuncts.push(Formula::not(Formula::exists(
                vec![Var::new("qneg")],
                Formula::atom("QdT", vec![Term::Var(v), Term::var("qneg")]),
            )));
        }
    }
    // Optional *correlated* negation (PR 5's seeded anti-join fragment): the
    // negated existential constrains its local witness against an
    // outer-bound variable — an (in)equality filter, an optional extra
    // nested negation, and an optional equality against a constant.
    if !covered.is_empty() && rng.gen_bool(0.5) {
        let v = covered[rng.gen_range(0..covered.len())];
        let w = covered[rng.gen_range(0..covered.len())];
        let witness = Var::new("qcorr");
        let mut body = vec![Formula::atom("QdT", vec![Term::Var(v), Term::Var(witness)])];
        body.push(if rng.gen_bool(0.5) {
            Formula::neq(Term::Var(witness), Term::Var(w))
        } else {
            Formula::eq(Term::Var(witness), Term::Var(w))
        });
        if rng.gen_bool(0.3) {
            body.push(Formula::not(Formula::atom("QdS", vec![Term::Var(witness)])));
        }
        if rng.gen_bool(0.3) {
            // A doubly-nested correlated scan: the outer variable occurs
            // inside the inner negation's atom.
            body.push(Formula::not(Formula::atom(
                "QdR",
                vec![Term::Var(w), Term::Var(witness)],
            )));
        }
        conjuncts.push(Formula::not(Formula::exists(
            vec![witness],
            Formula::and(body),
        )));
    }
    let core = Formula::and(conjuncts);
    // Optional disjunction with an identically ranged second branch.
    let with_or = if rng.gen_bool(0.25) {
        let fv: Vec<Var> = core.free_vars().into_iter().collect();
        if fv.len() == 2 {
            Formula::or([
                core.clone(),
                Formula::atom("QdR", fv.iter().map(|&v| Term::Var(v)).collect()),
            ])
        } else {
            core
        }
    } else {
        core
    };
    // Existentially close a random subset of the free variables.
    let fv: Vec<Var> = with_or.free_vars().into_iter().collect();
    let close: Vec<Var> = fv.into_iter().filter(|_| rng.gen_bool(0.4)).collect();
    Formula::exists(close, with_or)
}

// ------------------------------------------------------ first-witness checks

/// Candidate tuples above this count are sampled, not enumerated.
const CANDIDATE_CAP: usize = 1000;

/// The candidate answer tuples of a membership check: every tuple of the
/// head's arity over the instance's active domain (nulls included) and the
/// formula's constants. Past [`CANDIDATE_CAP`] tuples, a deterministic
/// stride through that space stands in, plus every answer in `answers`.
fn candidate_tuples(inst: &Instance, query: &Query, answers: &BTreeSet<Tuple>) -> Vec<Tuple> {
    let mut domain: BTreeSet<Value> = inst.active_domain();
    domain.extend(query.formula.constants().into_iter().map(Value::Const));
    let domain: Vec<Value> = domain.into_iter().collect();
    let arity = query.head.len() as u32;
    let total = domain.len().pow(arity);
    let stride = total.div_ceil(CANDIDATE_CAP).max(1);
    let decode = |mut i: usize| {
        let mut vals = Vec::with_capacity(arity as usize);
        for _ in 0..arity {
            vals.push(domain[i % domain.len()]);
            i /= domain.len();
        }
        Tuple::new(vals)
    };
    let mut out: Vec<Tuple> = (0..total).step_by(stride).map(decode).collect();
    out.extend(answers.iter().cloned());
    out
}

/// The same tuple set in two store shapes: a fresh `DeltaIndex` build and a
/// `DeltaIndex` that applied and undid a churn batch (fresh and
/// already-present tuples).
fn store_shapes(inst: &Instance, rng: &mut StdRng) -> Vec<(&'static str, Box<dyn QueryStore>)> {
    let tuples: Vec<(RelSym, Tuple)> = inst
        .relations()
        .flat_map(|(rel, r)| r.iter().map(move |t| (rel, t.clone())))
        .collect();
    let mut delta = DeltaIndex::from_instance(inst);
    let mut churn: Vec<(RelSym, Tuple)> = Vec::new();
    for (rel, t) in &tuples {
        if rng.gen_bool(0.3) {
            churn.push((*rel, t.clone()));
        }
        if rng.gen_bool(0.3) {
            let fresh = Tuple::new(t.iter().map(|_| Value::c("qd-churn")).collect::<Vec<_>>());
            churn.push((*rel, fresh));
        }
    }
    for (rel, t) in &churn {
        delta.insert(*rel, t.clone());
    }
    for (rel, t) in churn.iter().rev() {
        delta.remove(*rel, t);
    }
    vec![
        ("fresh", Box::new(DeltaIndex::from_instance(inst))),
        ("delta", Box::new(delta)),
    ]
}

/// The materialized answers over `store`, in head order.
fn materialized(cq: &CompiledQuery, store: &dyn QueryStore) -> BTreeSet<Tuple> {
    let rows = exec(cq.plan(), store);
    let cols: Vec<usize> = cq
        .head()
        .iter()
        .map(|v| rows.col(*v).expect("head variable is produced"))
        .collect();
    rows.rows
        .iter()
        .map(|r| Tuple::new(cols.iter().map(|&c| r[c]).collect::<Vec<_>>()))
        .collect()
}

/// First-witness answers ≡ materialized answers. On every store shape: the
/// materialized answers equal `want`; on every candidate tuple
/// `holds_on_store` equals membership in them;
/// `exec_nonempty` with nothing bound equals their non-emptiness; and a
/// Boolean query's (first-witness) answer set equals them.
fn check_first_witness(
    query: &Query,
    cq: &CompiledQuery,
    inst: &Instance,
    want: &BTreeSet<Tuple>,
    rng: &mut StdRng,
) {
    let candidates = candidate_tuples(inst, query, want);
    for (shape, store) in &store_shapes(inst, rng) {
        let store = store.as_ref();
        let got = materialized(cq, store);
        assert_eq!(&got, want, "{shape} store: {query}");
        for t in &candidates {
            assert_eq!(
                cq.holds_on_store(store, t),
                got.contains(t),
                "{shape} store: {t} in {query} on {inst}"
            );
        }
        assert_eq!(
            exec_nonempty(cq.plan(), store, &[]),
            !got.is_empty(),
            "{shape} store: emptiness of {query}"
        );
        if cq.head().is_empty() {
            let boolean: BTreeSet<Tuple> = cq.answers_store(store).iter().cloned().collect();
            assert_eq!(boolean, got, "{shape} store: {query}");
        }
    }
}

// ------------------------------------------------------------- property tests

proptest! {
    #![proptest_config(ProptestConfig { cases: 120, failure_persistence: None, ..ProptestConfig::default() })]

    /// Plan execution ≡ tree-walking evaluation on randomized safe
    /// formulas and instances with nulls: answer sets, certain-answer
    /// null-discard post-filters, and per-tuple membership checks — the
    /// first-witness ones against the materialized answers on every
    /// candidate tuple and store shape ([`check_first_witness`]).
    #[test]
    fn compiled_matches_oracle_on_random_safe_formulas(seed in 0u64..120) {
        let mut rng = random_gen::rng(seed);
        let inst = random_instance_with_nulls(&mut rng);
        let f = random_safe_formula(&mut rng);
        let head: Vec<Var> = f.free_vars().into_iter().collect();
        let query = Query::new(head.clone(), f);
        let ev = QueryEval::new(&query);
        prop_assert!(
            ev.is_compiled(),
            "generator must produce safe-range formulas: {}",
            query
        );
        let oracle = query.answers(&inst);
        let compiled = ev.answers(&inst);
        prop_assert_eq!(&oracle, &compiled, "query {}", &query);
        prop_assert_eq!(
            query.naive_certain_answers(&inst),
            ev.naive_certain_answers(&inst),
            "null discard on {}",
            &query
        );
        // Membership: every oracle answer holds; perturbed tuples agree.
        for t in oracle.iter().take(5) {
            prop_assert!(ev.holds_on(&inst, t));
        }
        if !head.is_empty() {
            let probe = Tuple::new(vec![Value::c("zz-missing"); head.len()]);
            prop_assert_eq!(query.holds_on(&inst, &probe), ev.holds_on(&inst, &probe));
            let null_probe = Tuple::new(vec![Value::null(0); head.len()]);
            prop_assert_eq!(
                query.holds_on(&inst, &null_probe),
                ev.holds_on(&inst, &null_probe)
            );
        }
        let want: BTreeSet<Tuple> = oracle.iter().cloned().collect();
        check_first_witness(&query, ev.compiled().expect("compiled"), &inst, &want, &mut rng);
    }

    /// `canonical_solution_via(PlannedBodyEval)` reproduces the reference
    /// construction identically on random annotated mappings — instances,
    /// null justifications and witness tables all equal, so every
    /// downstream pipeline is engine independent.
    #[test]
    fn planned_body_eval_reproduces_canonical_solutions(seed in 0u64..60) {
        let mut rng = random_gen::rng(seed);
        let schema = Schema::from_pairs([("QcA", 2), ("QcB", 1), ("QcC", 3)]);
        let source = random_gen::random_instance(&schema, 6, 5, &mut rng);
        let mapping = random_gen::random_mapping(&schema, 2, 0.5, &mut rng);
        let naive = canonical_solution_via(&NaiveBodyEval, &mapping, &source);
        let planned = canonical_solution_via(&PlannedBodyEval, &mapping, &source);
        prop_assert_eq!(naive.instance, planned.instance);
        prop_assert_eq!(naive.null_origin, planned.null_origin);
        prop_assert_eq!(naive.witnesses, planned.witnesses);
    }

    /// Conditional (c-table) plan execution against the `RaExpr`
    /// interpreter route: identical certain and possible answers on random
    /// naive tables.
    #[test]
    fn conditional_mode_matches_interpreter(seed in 0u64..80) {
        let mut rng = random_gen::rng(seed);
        // Small instances keep condition-validity checks (exponential in
        // nulls) fast.
        let mut inst = Instance::new();
        for _ in 0..rng.gen_range(1..5) {
            let value = |rng: &mut StdRng| -> Value {
                if rng.gen_bool(0.35) {
                    Value::null(rng.gen_range(0..3) as u32)
                } else {
                    Value::Const(oc_exchange::ConstId::new(&format!(
                        "d{}",
                        rng.gen_range(0..3)
                    )))
                }
            };
            let t = Tuple::new(vec![value(&mut rng), value(&mut rng)]);
            inst.insert(RelSym::new("QxR"), t);
        }
        for _ in 0..rng.gen_range(1..4) {
            let v = if rng.gen_bool(0.35) {
                Value::null(rng.gen_range(0..3) as u32)
            } else {
                Value::Const(oc_exchange::ConstId::new(&format!("d{}", rng.gen_range(0..3))))
            };
            inst.insert(RelSym::new("QxS"), Tuple::new(vec![v]));
        }
        let ct = CInstance::from_naive(&inst);
        let queries = [
            RaExpr::rel("QxR").select(RaPred::col_is(0, "d0")).project([1]),
            RaExpr::rel("QxR").project([0]).diff(RaExpr::rel("QxS")),
            RaExpr::rel("QxR").project([1]).intersect(RaExpr::rel("QxS")),
            RaExpr::rel("QxR")
                .product(RaExpr::rel("QxR"))
                .select(RaPred::cols_eq(1, 2))
                .project([0, 3]),
            RaExpr::rel("QxR")
                .project([0])
                .union(RaExpr::rel("QxS"))
                .diff(RaExpr::rel("QxR").project([1])),
            RaExpr::rel("QxR").select(RaPred::cols_neq(0, 1)).project([0, 0]),
        ];
        let arity = |r: RelSym| inst.relation(r).map(|rel| rel.arity());
        for q in &queries {
            let compiled = CompiledRa::compile(q, &arity).expect("battery compiles");
            prop_assert_eq!(
                compiled.certain_answers(&ct),
                certain_answers_ra(q, &ct),
                "certain answers on {:?}",
                q
            );
            prop_assert_eq!(
                compiled.possible_answers(&ct),
                possible_answers_ra(q, &ct),
                "possible answers on {:?}",
                q
            );
        }
    }
}

// ------------------------------------------------------------ targeted tests

/// The FO conditional route against brute-force `Rep` enumeration: for a
/// safe-range query with negation, `certain_answers_conditional` must be
/// exactly the intersection of the ground answers over all `Rep` members.
#[test]
fn fo_conditional_certain_matches_brute_force() {
    for seed in 0..20u64 {
        let mut rng = random_gen::rng(seed);
        let mut inst = Instance::new();
        for _ in 0..rng.gen_range(1..4) {
            let a = if rng.gen_bool(0.4) {
                Value::null(rng.gen_range(0..2) as u32)
            } else {
                Value::c(&format!("e{}", rng.gen_range(0..3)))
            };
            let b = if rng.gen_bool(0.4) {
                Value::null(rng.gen_range(0..2) as u32)
            } else {
                Value::c(&format!("e{}", rng.gen_range(0..3)))
            };
            inst.insert(RelSym::new("QfR"), Tuple::new(vec![a, b]));
            inst.insert(RelSym::new("QfS"), Tuple::new(vec![b]));
        }
        let ct = CInstance::from_naive(&inst);
        let q = Query::parse(&["x"], "(exists y. QfR(x, y)) & !QfS(x)").unwrap();
        let compiled = CompiledQuery::compile(&q).expect("safe-range");
        let fast = compiled.certain_answers_conditional(&ct);
        let mut brute: Option<BTreeSet<Tuple>> = None;
        for (ground, _) in ct.rep_members(&BTreeSet::new()) {
            let ans: BTreeSet<Tuple> = q.answers(&ground).iter().cloned().collect();
            brute = Some(match brute {
                None => ans,
                Some(prev) => prev.intersection(&ans).cloned().collect(),
            });
        }
        let brute = brute.unwrap();
        let fast_set: BTreeSet<Tuple> = fast.iter().cloned().collect();
        assert_eq!(fast_set, brute, "seed {seed}");
    }
}

/// The `_via` pipelines are strategy independent: certain answers,
/// composition and membership verdicts agree between `NaiveChase` and
/// `IndexedChase` (whose body evaluation runs on compiled plans).
#[test]
fn via_pipelines_agree_across_strategies() {
    let mapping = Mapping::parse(
        "QvSub(x:cl, z:op) <- QvP(x, y); \
         QvRev(x:cl, r:cl) <- QvP(x, y) & !exists a. QvA(x, a)",
    )
    .unwrap();
    let mut source = Instance::new();
    for i in 0..6 {
        source.insert_names("QvP", &[&format!("p{i}"), &format!("t{i}")]);
        if i % 2 == 0 {
            source.insert_names("QvA", &[&format!("p{i}"), "rev"]);
        }
    }
    // Positive and non-positive queries.
    let positive = Query::parse(&["x"], "exists z. QvSub(x, z)").unwrap();
    let universal = Query::boolean(
        oc_exchange::logic::parse_formula(
            "forall p a1 a2. (QvSub(p, a1) & QvSub(p, a2) -> a1 = a2)",
        )
        .unwrap(),
    );
    let empty = Tuple::new(Vec::<Value>::new());
    for q in [&positive, &universal] {
        for tuple in [&Tuple::from_names(&["p1"]), &empty] {
            if tuple.arity() != q.arity() {
                continue;
            }
            let naive = Exchange::with_strategy(&NaiveChase, &mapping, &source)
                .certain_contains(q, tuple, None);
            let indexed = Exchange::with_strategy(&IndexedChase, &mapping, &source)
                .certain_contains(q, tuple, None);
            assert_eq!(naive.certain, indexed.certain, "{q} on {tuple}");
            assert_eq!(naive.regime, indexed.regime);
        }
    }
    // certain_answers across strategies and against the default pipeline.
    let (rel_naive, _) =
        Exchange::with_strategy(&NaiveChase, &mapping, &source).certain_answers(&positive, None);
    let (rel_indexed, _) =
        Exchange::with_strategy(&IndexedChase, &mapping, &source).certain_answers(&positive, None);
    let (rel_default, _) = dxcore::certain_answers(&mapping, &source, &positive, None);
    assert_eq!(rel_naive, rel_indexed);
    assert_eq!(rel_naive, rel_default);
    assert_eq!(rel_naive.len(), 6, "every paper certainly has a submission");

    // Membership.
    let csol = canonical_solution(&mapping, &source);
    let member = {
        let mut rng = random_gen::rng(7);
        random_gen::sample_member(&mapping, &source, 4, 1, &mut rng)
    };
    let is_member_via = |strategy: &dyn ChaseStrategy| {
        Exchange::with_strategy(strategy, &mapping, &source)
            .in_semantics(&member)
            .is_member()
    };
    assert_eq!(is_member_via(&NaiveChase), is_member_via(&IndexedChase),);
    assert!(is_member_via(&IndexedChase));
    drop(csol);

    // Composition.
    let sigma = Mapping::parse("QvM(x:cl, z:op) <- QvE(x)").unwrap();
    let delta = Mapping::parse("QvF(x:cl, y:cl) <- QvM(x, y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("QvE", &["a"]);
    let mut w = Instance::new();
    w.insert_names("QvF", &["a", "v1"]);
    w.insert_names("QvF", &["a", "v2"]);
    let out_naive =
        Exchange::with_strategy(&NaiveChase, &sigma, &s).comp_membership(&delta, &w, None);
    let out_indexed =
        Exchange::with_strategy(&IndexedChase, &sigma, &s).comp_membership(&delta, &w, None);
    assert_eq!(out_naive.member, out_indexed.member);
    assert_eq!(out_naive.path, out_indexed.path);
    assert!(out_indexed.member);
}

/// The workload queries of the bench suite, differentially, at several
/// sizes — including the certain-answer null-discard filter over canonical
/// solutions with nulls.
#[test]
fn workload_queries_differential() {
    use oc_exchange::workloads::conference;
    for n in [4usize, 9, 17] {
        let mapping = conference::mapping();
        let source = conference::source(n, 2);
        let csol = canonical_solution(&mapping, &source).rel_part();
        for q in [
            conference::reviewed_query(),
            conference::submitted_and_reviewed(),
        ] {
            let ev = QueryEval::new(&q);
            assert!(ev.is_compiled(), "{q}");
            assert_eq!(q.answers(&csol), ev.answers(&csol), "{q} n={n}");
            assert_eq!(
                q.naive_certain_answers(&csol),
                ev.naive_certain_answers(&csol),
                "{q} n={n}"
            );
        }
    }
}

/// Deterministic regressions for PR 3's lowering broadenings, previously
/// exercised only through randomized search: the De Morgan expansion of
/// negated disjunctions and the mixed-variable-set disjunction filters.
/// The §1 one-author implication query — whose `∀`-matrix rewrites to
/// `¬(¬(ψ₁ ∧ ψ₂) ∨ a1 = a2)`-shaped conjuncts — is pinned explicitly.
#[test]
fn demorgan_and_disjunction_lowering_regressions() {
    // The §1 query: "every paper has at most one author". Must lower.
    let one_author = Query::boolean(
        oc_exchange::logic::parse_formula(
            "forall p a1 a2. (Dm1Sub(p, a1) & Dm1Sub(p, a2) -> a1 = a2)",
        )
        .unwrap(),
    );
    let ev = QueryEval::new(&one_author);
    assert!(
        ev.is_compiled(),
        "the §1 implication shape must lower to a plan (PR 3 De Morgan broadening)"
    );
    // Unique authors (incl. a null author, an atomic value) → true.
    let mut unique = Instance::new();
    unique.insert_names("Dm1Sub", &["p1", "alice"]);
    unique.insert(
        RelSym::new("Dm1Sub"),
        Tuple::new(vec![Value::c("p2"), Value::null(7)]),
    );
    assert!(ev.holds_boolean(&unique));
    assert_eq!(ev.holds_boolean(&unique), one_author.holds_boolean(&unique));
    // A two-author paper → false; and a null vs constant author on the
    // same paper also counts as two distinct values.
    let mut double = unique.clone();
    double.insert_names("Dm1Sub", &["p1", "bob"]);
    assert!(!ev.holds_boolean(&double));
    assert_eq!(ev.holds_boolean(&double), one_author.holds_boolean(&double));
    let mut null_clash = Instance::new();
    null_clash.insert_names("Dm1Sub", &["p3", "carol"]);
    null_clash.insert(
        RelSym::new("Dm1Sub"),
        Tuple::new(vec![Value::c("p3"), Value::null(1)]),
    );
    assert!(!ev.holds_boolean(&null_clash));
    assert_eq!(
        ev.holds_boolean(&null_clash),
        one_author.holds_boolean(&null_clash)
    );

    // A deterministic instance with nulls for the disjunction shapes.
    let mut inst = Instance::new();
    inst.insert_names("QdS", &["c0"]);
    inst.insert_names("QdS", &["c1"]);
    inst.insert_names("QdS", &["c2"]);
    inst.insert_names("QdR", &["c0", "c5"]);
    inst.insert_names("QdR", &["c2", "c2"]);
    inst.insert(
        RelSym::new("QdR"),
        Tuple::new(vec![Value::c("c1"), Value::null(0)]),
    );
    inst.insert_names("QdT", &["c1", "c1"]);
    inst.insert(
        RelSym::new("QdT"),
        Tuple::new(vec![Value::null(0), Value::null(0)]),
    );

    // Mixed-variable-set disjunction as a filter: the disjuncts range
    // different variable sets ({x, via ∃y} vs {x}), so the disjunction
    // lowers to a semi-join/select filter union, not a Plan::Union.
    let filter_or = Query::parse(&["x"], "QdS(x) & ((exists y. QdR(x, y)) | QdT(x, x))").unwrap();
    // Negated mixed disjunction: De Morgan expands ¬(ψ₁ ∨ ψ₂) into the
    // anti-join/filter conjuncts ¬ψ₁ ∧ ¬ψ₂.
    let neg_or = Query::parse(&["x"], "QdS(x) & !((exists y. QdR(x, y)) | QdT(x, x))").unwrap();
    // Disjunction filter under an inequality guard.
    let guarded = Query::parse(
        &["x"],
        "exists y. QdR(x, y) & (QdS(x) | !(x = y)) & !QdT(x, x)",
    )
    .unwrap();
    let expectations: [(&Query, &[&str]); 3] = [
        (&filter_or, &["c0", "c1", "c2"]),
        (&neg_or, &[]),
        (&guarded, &["c0", "c2"]),
    ];
    for (q, expected) in expectations {
        let ev = QueryEval::new(q);
        assert!(
            ev.is_compiled(),
            "{q} must lower (PR 3 disjunction filters)"
        );
        assert_eq!(ev.answers(&inst), q.answers(&inst), "oracle agreement: {q}");
        let want =
            oc_exchange::Relation::from_tuples(1, expected.iter().map(|n| Tuple::from_names(&[n])));
        assert_eq!(ev.answers(&inst), want, "pinned answers of {q}");
    }
}

/// The pinned §1 implication query in its **correlated** form —
/// `Q(p) = ∃a Sub(p, a) ∧ ∀b (Sub(p, b) → a = b)`, "papers with exactly one
/// author" — must now *compile* (PR 5's seeded anti-join lowering) instead
/// of falling back to the tree walker, and agree with the oracle on
/// instances mixing ground and null authors.
#[test]
fn correlated_one_author_query_compiles_and_agrees() {
    let q = Query::parse(
        &["p"],
        "exists a. CoSub(p, a) & (forall b. (CoSub(p, b) -> a = b))",
    )
    .unwrap();
    let ev = QueryEval::new(&q);
    assert!(
        ev.is_compiled(),
        "the correlated §1 shape must lower to a seeded anti-join: {:?}",
        ev.lower_error()
    );
    let plan = format!("{}", ev.compiled().unwrap().plan());
    assert!(
        plan.contains("seeded-antijoin"),
        "plan must carry the seeded node:\n{plan}"
    );
    let mut inst = Instance::new();
    inst.insert_names("CoSub", &["p1", "alice"]);
    inst.insert_names("CoSub", &["p2", "bob"]);
    inst.insert_names("CoSub", &["p2", "carol"]);
    inst.insert(
        RelSym::new("CoSub"),
        Tuple::new(vec![Value::c("p3"), Value::null(1)]),
    );
    inst.insert(
        RelSym::new("CoSub"),
        Tuple::new(vec![Value::c("p4"), Value::null(2)]),
    );
    inst.insert_names("CoSub", &["p4", "dave"]);
    assert_eq!(ev.answers(&inst), q.answers(&inst));
    assert_eq!(
        ev.naive_certain_answers(&inst),
        q.naive_certain_answers(&inst)
    );
    assert!(ev.holds_on(&inst, &Tuple::from_names(&["p1"])));
    assert!(!ev.holds_on(&inst, &Tuple::from_names(&["p2"])));
    // p3's single null author counts as exactly one value (naive semantics);
    // p4 mixes a null and a ground author — two values.
    assert!(ev.holds_on(&inst, &Tuple::from_names(&["p3"])));
    assert!(!ev.holds_on(&inst, &Tuple::from_names(&["p4"])));
}

/// Conditional (c-table) execution of the correlated fragment against
/// brute-force `Rep` enumeration: certain answers of the one-author query
/// over randomized null-carrying tables must equal the intersection of the
/// ground answers across all members.
#[test]
fn correlated_conditional_certain_matches_brute_force() {
    for seed in 0..20u64 {
        let mut rng = random_gen::rng(900 + seed);
        let mut inst = Instance::new();
        for _ in 0..rng.gen_range(1..4) {
            let p = if rng.gen_bool(0.3) {
                Value::null(rng.gen_range(0..2) as u32)
            } else {
                Value::c(&format!("cp{}", rng.gen_range(0..2)))
            };
            let a = if rng.gen_bool(0.5) {
                Value::null(rng.gen_range(0..2) as u32)
            } else {
                Value::c(&format!("ca{}", rng.gen_range(0..2)))
            };
            inst.insert(RelSym::new("CcSub"), Tuple::new(vec![p, a]));
        }
        let ct = CInstance::from_naive(&inst);
        let q = Query::parse(
            &["x"],
            "exists a. CcSub(x, a) & (forall b. (CcSub(x, b) -> a = b))",
        )
        .unwrap();
        let compiled = CompiledQuery::compile(&q).expect("correlated fragment compiles");
        let fast: BTreeSet<Tuple> = compiled
            .certain_answers_conditional(&ct)
            .iter()
            .cloned()
            .collect();
        let mut brute: Option<BTreeSet<Tuple>> = None;
        for (ground, _) in ct.rep_members(&BTreeSet::new()) {
            let ans: BTreeSet<Tuple> = q.answers(&ground).iter().cloned().collect();
            brute = Some(match brute {
                None => ans,
                Some(prev) => prev.intersection(&ans).cloned().collect(),
            });
        }
        assert_eq!(fast, brute.unwrap(), "seed {seed} on {inst}");
    }
}

/// Non-safe-range queries fall back to the oracle and still answer
/// correctly through every routed pipeline entry point.
#[test]
fn fallback_paths_stay_correct() {
    let q = Query::parse(&["x"], "x = x").unwrap();
    let ev = QueryEval::new(&q);
    assert!(!ev.is_compiled());
    let mut inst = Instance::new();
    inst.insert_names("QbR", &["a", "b"]);
    assert_eq!(ev.answers(&inst), q.answers(&inst));
    // A domain-dependent body: the planned body eval falls back to the
    // reference walker inside canonical_solution_via.
    let m = Mapping::parse("QbT(x:cl) <- QbU(x) & !exists y. QbU(y) & !(x = y)").unwrap();
    let mut s = Instance::new();
    s.insert_names("QbU", &["only"]);
    let naive = canonical_solution(&m, &s);
    let planned = canonical_solution_via(&PlannedBodyEval, &m, &s);
    assert_eq!(naive.instance, planned.instance);
}

/// Pinned first-witness shapes: a repeated head variable (unequal values
/// must fail), head variables produced by `Alias`, by `Bind` and under a
/// `Union`, a quantifier shadowing a head variable, and the nested
/// null-seed shape whose refuting tuple pairs two nulls. Each runs through
/// [`check_first_witness`].
#[test]
fn first_witness_pinned_shapes() {
    let mut inst = Instance::new();
    inst.insert_names("QdR", &["c0", "c1"]);
    inst.insert_names("QdR", &["c2", "c2"]);
    inst.insert(
        RelSym::new("QdR"),
        Tuple::new(vec![Value::null(1), Value::c("c0")]),
    );
    inst.insert_names("QdT", &["c1", "c0"]);
    inst.insert(
        RelSym::new("QdT"),
        Tuple::new(vec![Value::null(2), Value::null(1)]),
    );
    inst.insert_names("QdS", &["c2"]);
    let x = Var::new("qv0");
    let shapes: Vec<(Vec<Var>, &str)> = vec![
        // Q(x, x): the repeated head variable.
        (vec![x, x], "exists qv1. QdR(qv0, qv1)"),
        // y := x (Alias).
        (
            vec![Var::new("qv0"), Var::new("qv1")],
            "(exists qv2. QdR(qv0, qv2)) & qv1 = qv0",
        ),
        // x := 'c2' (Bind).
        (
            vec![Var::new("qv0"), Var::new("qv1")],
            "QdS(qv1) & qv0 = 'c2'",
        ),
        // Under a Union.
        (
            vec![Var::new("qv0"), Var::new("qv1")],
            "QdR(qv0, qv1) | QdT(qv1, qv0)",
        ),
    ];
    let mut rng = random_gen::rng(7);
    for (head, src) in shapes {
        let query = Query::new(head, oc_exchange::logic::parse_formula(src).unwrap());
        let cq = CompiledQuery::compile(&query).expect("compiles");
        let want: BTreeSet<Tuple> = cq.answers(&inst).iter().cloned().collect();
        check_first_witness(&query, &cq, &inst, &want, &mut rng);
    }
    // Shadowing: the quantified inner qv0 is another variable than the
    // outer one, so neither binding may leak into the other's scope. The
    // one-tuple QdR makes the projection the first join input when
    // nothing is bound.
    let mut shadow = Instance::new();
    for c in ["c0", "c1", "c3"] {
        shadow.insert_names("QdS", &[c]);
    }
    shadow.insert_names("QdR", &["c2", "c2"]);
    for (head, src) in [
        (vec![x], "QdS(qv0) & exists qv0. QdR(qv0, qv0)"),
        (vec![], "exists qv0. QdS(qv0) & exists qv0. QdR(qv0, qv0)"),
    ] {
        let query = Query::new(head, oc_exchange::logic::parse_formula(src).unwrap());
        let cq = CompiledQuery::compile(&query).expect("compiles");
        let want: BTreeSet<Tuple> = query.answers(&shadow).iter().cloned().collect();
        assert!(!want.is_empty(), "{query} holds on {shadow}");
        check_first_witness(&query, &cq, &shadow, &want, &mut rng);
    }
    // The repeated head variable, spelled out.
    let q = Query::new(
        vec![x, x],
        oc_exchange::logic::parse_formula("exists qv1. QdR(qv0, qv1)").unwrap(),
    );
    let cq = CompiledQuery::compile(&q).unwrap();
    let idx = DeltaIndex::from_instance(&inst);
    assert!(cq.holds_on_store(&idx, &Tuple::from_names(&["c2", "c2"])));
    assert!(!cq.holds_on_store(&idx, &Tuple::from_names(&["c0", "c2"])));
    assert!(cq.holds_on_store(&idx, &Tuple::new(vec![Value::null(1); 2])));
    assert!(!cq.holds_on_store(&idx, &Tuple::new(vec![Value::null(1), Value::c("c0")])));

    // The nested null-seed shape: two nested seeded anti-joins whose
    // seeds take null values. W(v1, ⊥2, ⊥1) refutes ⊥1; without it ⊥1
    // is an answer.
    let src = "NnR(x) & !(exists b. NnS(b) & !(exists d. NnV(d) & !NnW(d, b, x)))";
    let q = Query::new(
        vec![Var::new("x")],
        oc_exchange::logic::parse_formula(src).unwrap(),
    );
    let cq = CompiledQuery::compile(&q).unwrap();
    for refuted in [true, false] {
        let mut i = Instance::new();
        i.insert(RelSym::new("NnR"), Tuple::new(vec![Value::null(1)]));
        i.insert(RelSym::new("NnS"), Tuple::new(vec![Value::null(2)]));
        i.insert_names("NnV", &["v1"]);
        let w = if refuted {
            vec![Value::c("v1"), Value::null(2), Value::null(1)]
        } else {
            vec![Value::c("v1"), Value::null(1), Value::null(2)]
        };
        i.insert(RelSym::new("NnW"), Tuple::new(w));
        let want: BTreeSet<Tuple> = q.answers(&i).iter().cloned().collect();
        assert_eq!(want.is_empty(), refuted, "oracle on {i}");
        check_first_witness(&q, &cq, &i, &want, &mut rng);
        let idx = DeltaIndex::from_instance(&i);
        assert_eq!(
            cq.holds_on_store(&idx, &Tuple::new(vec![Value::null(1)])),
            !refuted
        );
    }
}
