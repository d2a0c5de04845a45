//! Differential testing of the streaming delta protocol
//! (`DESIGN.md §Streaming data exchange`).
//!
//! The first half sweeps generated scenarios (4 grades × 12 seeds) and, for
//! every ground-source one, drives a [`StreamSession`] through an extended
//! update trace: the scenario's own `.dx` `update` blocks followed by six
//! synthesized churn batches (seeded xorshift — inserts over the `c{i}`
//! constant palette, retractions replayed against earlier inserts so they
//! actually hit). After **every** batch the incrementally maintained state
//! is raced against recompute-from-scratch:
//!
//! * the maintained `CSol_A(S)` must be hom-equivalent to a fresh chase of
//!   the rolling source (annotations included), and
//! * every query, registered under each of the three regimes, must answer
//!   like the batch entry point recomputed from scratch under the same
//!   budget: `certain_answers`, `gcwa_star_answers` and
//!   `approx_certain_answers` (the session recomputes on its maintained
//!   csol, whose null ids differ from a fresh chase after retractions).
//!
//! A second sweep drives generated scenarios through retraction-heavy
//! traces: earlier inserts, join-feeding base facts, a tuple retracted and
//! re-inserted in one batch, and a relation emptied. Its positive queries
//! must ride the delta plans on every batch, with answers equal to
//! recompute from scratch; and, with no oracle at all, every query under
//! every regime must answer alike when each batch is split into its
//! retractions and then its insertions.
//!
//! A third sweep races the chased target under target constraints:
//! merge-feeder traces (the conference shape's one-author egd and
//! conflict-of-interest tgd, and null–null merge chains) against a scratch
//! chase after every batch, with rebuilds allowed only where the protocol
//! still rebuilds.
//!
//! The last part pins the retraction edge cases the protocol documents:
//! retract-then-reinsert round-trips, retraction feeding an egd-merged
//! null, and empty-delta no-ops; and hand-written traces that retract the
//! support of a carried refutation, with the batch's counts of
//! revalidated and re-searched candidates pinned.

use oc_exchange::chase::chase_engine::{ChaseOutcome, DEFAULT_CHASE_LIMIT};
use oc_exchange::chase::core::ann_hom_equivalent;
use oc_exchange::chase::{
    canonical_solution, canonical_solution_with_deps_via, Mapping, TargetDep,
};
use oc_exchange::core::certain::certain_answers;
use oc_exchange::core::regimes::{approx_certain_answers, gcwa_star_answers, RegimeBudget};
use oc_exchange::core::streaming::{QueryPath, StreamRegime, StreamSession};
use oc_exchange::engine::{IncrementalExchange, IndexedChase, TargetPath};
use oc_exchange::logic::{classify, Query};
use oc_exchange::query::QueryEval;
use oc_exchange::relation::{AnnInstance, Annotation, Instance, RelSym, Tuple, Update};
use oc_exchange::solver::{Completeness, SearchBudget};
use oc_exchange::text::{gen, Grade, Scenario};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// The generated-corpus sweep: ≥30 ground scenarios × extended update traces.
// ---------------------------------------------------------------------------

/// The corpus harness's oracle budget (`dx_bench::corpus`): closed-world
/// enumeration for all-closed mappings, a bounded Prop 5 sweep otherwise.
fn scenario_budget(sc: &Scenario) -> SearchBudget {
    if sc.mapping.is_all_closed() {
        SearchBudget::closed_world()
    } else {
        SearchBudget {
            max_leaves: Some(5_000),
            ..SearchBudget::bounded(1, 1)
        }
    }
}

/// The GCWA\* budget of the race: unions of at most two minimal solutions,
/// a short valuation sweep.
fn regime_budget() -> RegimeBudget {
    RegimeBudget {
        max_union_size: 2,
        max_minimal_solutions: 8,
        max_leaves: Some(200),
    }
}

/// Deterministic xorshift64* — the trace synthesizer's only entropy.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Six synthesized batches over the scenario's source schema: inserts draw
/// from the generator's `c{i}` constant palette (plus fresh `s{i}` names so
/// the genericity palette actually moves), retractions replay earlier
/// inserts so the effective delta is nonempty.
fn synth_batches(sc: &Scenario, rng: &mut Rng) -> Vec<Update> {
    let rels: Vec<(RelSym, usize)> = sc.mapping.source.iter().collect();
    let mut inserted: Vec<(RelSym, Tuple)> = Vec::new();
    let mut batches = Vec::new();
    for b in 0..6 {
        let mut up = Update::new();
        for _ in 0..1 + rng.below(2) {
            let (rel, arity) = rels[rng.below(rels.len())];
            let names: Vec<String> = (0..arity)
                .map(|_| {
                    if rng.below(5) == 0 {
                        format!("s{b}")
                    } else {
                        format!("c{}", rng.below(6))
                    }
                })
                .collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let t = Tuple::from_names(&refs);
            inserted.push((rel, t.clone()));
            up.insert(rel, t);
        }
        if b >= 2 && !inserted.is_empty() {
            let (rel, t) = inserted.swap_remove(rng.below(inserted.len()));
            up.retract(rel, t);
        }
        batches.push(up);
    }
    batches
}

/// Race one scenario's full trace; returns the number of batches raced.
fn race_streaming(sc: &Scenario, seed: u64) -> usize {
    let budget = scenario_budget(sc);
    let mut sess = StreamSession::new(
        sc.mapping.clone(),
        sc.constraints.clone(),
        sc.source.clone(),
    );
    sess.set_search_budget(Some(budget.clone()));
    sess.set_regime_budget(regime_budget());
    for nq in &sc.queries {
        sess.register(&nq.name, nq.query.clone(), StreamRegime::Certain);
        let gcwa = format!("{}/gcwa", nq.name);
        sess.register(&gcwa, nq.query.clone(), StreamRegime::GcwaStar);
        let approx = format!("{}/approx", nq.name);
        sess.register(&approx, nq.query.clone(), StreamRegime::Approx);
    }
    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xDA7A);
    let mut trace: Vec<Update> = sc.updates.iter().map(|nu| nu.update.clone()).collect();
    trace.extend(synth_batches(sc, &mut rng));
    let mut rolling = sc.source.clone();
    for (i, up) in trace.iter().enumerate() {
        sess.update(up);
        up.apply(&mut rolling);
        let ctx = format!("{} batch {i}", sc.name);
        // The relational index the exchange maintains beside its csol (what
        // delta plans and positive recomputes probe) holds exactly
        // rel(csol), one refcount per annotated tuple.
        let csol = sess.exchange().csol();
        let index = sess.exchange().csol_index();
        assert_eq!(
            index.to_instance(),
            csol.rel_part(),
            "{ctx}: csol index diverged from rel(csol)"
        );
        assert_eq!(
            index.mem_stats().refcount_total,
            csol.tuple_count() as u64,
            "{ctx}: csol index refcounts diverged from the annotated tuples"
        );
        // Maintained CSol_A(S) vs a fresh chase of the rolling source.
        if sc.constraints.is_empty() {
            let scratch = canonical_solution(&sc.mapping, &rolling);
            assert!(
                ann_hom_equivalent(sess.exchange().csol(), &scratch.instance),
                "{ctx}: maintained csol diverged from scratch"
            );
        } else {
            let scratch = canonical_solution_with_deps_via(
                &IndexedChase,
                &sc.mapping,
                &sc.constraints,
                &rolling,
                DEFAULT_CHASE_LIMIT,
            );
            let outcome = sess.exchange().chase_outcome();
            assert_eq!(
                std::mem::discriminant(&outcome),
                std::mem::discriminant(&scratch.outcome),
                "{ctx}: chase outcomes diverged"
            );
            if matches!(outcome, ChaseOutcome::Satisfied) {
                assert!(
                    ann_hom_equivalent(&sess.exchange().chased(), &scratch.instance),
                    "{ctx}: maintained chased instance diverged from scratch"
                );
            }
        }
        // Maintained certain answers vs recompute-from-scratch. A *capped*
        // sweep is cut off mid-enumeration, and the enumeration order is
        // legitimately permuted by the maintained csol's renamed nulls
        // (DRed re-derivation mints fresh ids), so identity is guaranteed —
        // and asserted — only for completed (Exact / Bounded) outcomes on
        // both sides; see `DESIGN.md §Streaming data exchange`.
        for nq in &sc.queries {
            let (maintained, mcomp) = sess.answers(&nq.name).expect("registered");
            let (oracle, ocomp) = certain_answers(&sc.mapping, &rolling, &nq.query, Some(&budget));
            if mcomp == Completeness::Capped || ocomp == Completeness::Capped {
                continue;
            }
            assert_eq!(
                maintained, oracle,
                "{ctx} query {}: maintained answers diverged from recompute",
                nq.name
            );
        }
        // The GCWA* and approximation regimes, under the same rule.
        for nq in &sc.queries {
            let got = sess.gcwa(&format!("{}/gcwa", nq.name)).expect("registered");
            let want = gcwa_star_answers(&sc.mapping, &rolling, &nq.query, &regime_budget());
            if got.completeness != Completeness::Capped && want.completeness != Completeness::Capped
            {
                assert_eq!(
                    got.answers, want.answers,
                    "{ctx} query {}: maintained GCWA* answers diverged from recompute",
                    nq.name
                );
            }
            let got = sess
                .approx(&format!("{}/approx", nq.name))
                .expect("registered");
            let want = approx_certain_answers(&sc.mapping, &rolling, &nq.query, Some(&budget));
            if got.completeness != Completeness::Capped && want.completeness != Completeness::Capped
            {
                assert_eq!(
                    (&got.lower, &got.upper),
                    (&want.lower, &want.upper),
                    "{ctx} query {}: maintained approximation bracket diverged from recompute",
                    nq.name
                );
            }
        }
    }
    trace.len()
}

#[test]
fn generated_traces_match_recompute_from_scratch() {
    let mut raced_scenarios = 0usize;
    let mut raced_batches = 0usize;
    for grade in Grade::ALL {
        for seed in 0..12u64 {
            let sc = gen(seed, grade);
            if !sc.source.is_ground() {
                continue;
            }
            raced_scenarios += 1;
            raced_batches += race_streaming(&sc, seed);
        }
    }
    assert!(
        raced_scenarios >= 30,
        "the sweep must race ≥30 scenarios (got {raced_scenarios})"
    );
    assert!(raced_batches >= raced_scenarios * 6);
}

/// STD bodies beyond conjunctive queries on the delta plans: `∃`, `∨` over
/// the same variables, an equality with a constant, and a `¬∃` guard whose
/// batches sometimes touch only its preserved side.
const WIDENED_BODIES: &str = r#"
scenario "widened_bodies" {
  source { E/2; F/2; G/2; A/2; }
  target { R/2; S/2; T/1; U/2; }
  mapping {
    R(x:cl, z:op) <- exists y. E(x, y);
    S(x:cl, y:cl) <- F(x, y) | G(x, y);
    T(x:cl) <- E(x, y) & y = 'c1';
    U(x:cl, z:op) <- E(x, y) & !exists r. A(x, r);
  }
  instance {
    E(c0, c1); E(c2, c3); F(c0, c2); G(c1, c1); A(c2, c0);
  }
  query reached(x) <- exists z. R(x, z);
  query linked(x, y) <- S(x, y);
  query unguarded(x) <- T(x) & !exists z. U(x, z);
  update "preserved-side" { insert E(c4, c1); retract E(c2, c3); }
  update "refuting-side" { insert A(c4, c2); insert F(c4, c4); }
  update "union" { retract F(c0, c2); insert G(c0, c2); retract A(c2, c0); }
}
"#;

#[test]
fn widened_std_bodies_match_recompute_from_scratch() {
    let sc = Scenario::parse_ground(WIDENED_BODIES).expect("the scenario parses");
    for seed in 0..4 {
        assert_eq!(race_streaming(&sc, seed), sc.updates.len() + 6);
    }
}

// ---------------------------------------------------------------------------
// Retraction-heavy traces, against recompute and against split batches.
// ---------------------------------------------------------------------------

/// Six batches over the scenario's source, five of which retract: fresh
/// inserts first, then earlier inserts and base facts of relations a
/// joining STD body reads, one live tuple retracted and re-inserted in the
/// same batch (twice), and one relation emptied.
fn retraction_trace(sc: &Scenario, rng: &mut Rng) -> Vec<Update> {
    let rels: Vec<(RelSym, usize)> = sc.mapping.source.iter().collect();
    let feeds_join = |rel: RelSym| {
        sc.mapping.stds.iter().any(|std| {
            let body = std.body.relations();
            body.len() >= 2 && body.iter().any(|&(r, _)| r == rel)
        })
    };
    let live_facts = |live: &Instance, pick: &dyn Fn(RelSym) -> bool| -> Vec<(RelSym, Tuple)> {
        live.relations()
            .filter(|&(rel, _)| pick(rel))
            .flat_map(|(rel, r)| r.iter().map(move |t| (rel, t.clone())))
            .collect()
    };
    let mut live = sc.source.clone();
    let mut inserted: Vec<(RelSym, Tuple)> = Vec::new();
    let mut trace = Vec::new();
    for b in 0..6 {
        let mut up = Update::new();
        let inserts = match b {
            0 => 3,
            3 => 0,
            _ => rng.below(2),
        };
        for _ in 0..inserts {
            let (rel, arity) = rels[rng.below(rels.len())];
            let names: Vec<String> = (0..arity).map(|_| format!("c{}", rng.below(4))).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let t = Tuple::from_names(&refs);
            inserted.push((rel, t.clone()));
            up.insert(rel, t);
        }
        if b > 0 {
            inserted.retain(|(rel, t)| live.contains(*rel, t));
            if !inserted.is_empty() {
                let (rel, t) = inserted.swap_remove(rng.below(inserted.len()));
                up.retract(rel, t);
            }
            let mut feeders = live_facts(&live, &|rel| feeds_join(rel));
            feeders.retain(|(rel, t)| sc.source.contains(*rel, t));
            if feeders.is_empty() {
                feeders = live_facts(&live, &|_| true);
            }
            if !feeders.is_empty() {
                let (rel, t) = feeders.swap_remove(rng.below(feeders.len()));
                up.retract(rel, t);
            }
        }
        if b == 2 || b == 4 {
            let facts = live_facts(&live, &|_| true);
            if !facts.is_empty() {
                let (rel, t) = facts[rng.below(facts.len())].clone();
                up.retract(rel, t.clone());
                up.insert(rel, t);
            }
        }
        if b == 3 {
            let full: Vec<RelSym> = live
                .relations()
                .filter(|(_, r)| !r.is_empty())
                .map(|(rel, _)| rel)
                .collect();
            if !full.is_empty() {
                let rel = full[rng.below(full.len())];
                for t in live.tuples(rel) {
                    up.retract(rel, t.clone());
                }
            }
        }
        up.apply(&mut live);
        trace.push(up);
    }
    trace
}

/// The scenario's queries plus positive ones over the target: a
/// self-join, a union with a join branch, and a Boolean join.
fn retraction_queries(sc: &Scenario) -> Vec<(String, Query)> {
    let mut queries: Vec<(String, Query)> = (sc.queries.iter())
        .map(|nq| (nq.name.clone(), nq.query.clone()))
        .collect();
    for (name, head, body) in [
        ("p_hops", &["x", "z"][..], "exists y. TR(x, y) & TR(y, z)"),
        (
            "p_union",
            &["x", "y"][..],
            "TR(x, y) | (exists z. TU(x, z) & TR(z, y))",
        ),
        ("p_bool", &[][..], "exists x y z. TR(x, y) & TU(y, z)"),
    ] {
        queries.push((name.to_string(), Query::parse(head, body).expect("parses")));
    }
    queries
}

/// The ground scenarios of the retraction sweeps: grades 0–2, six seeds
/// each.
fn retraction_scenarios() -> Vec<(u64, Scenario)> {
    (Grade::ALL[..3].iter())
        .flat_map(|&grade| (0..6u64).map(move |seed| (seed, gen(seed, grade))))
        .filter(|(_, sc)| sc.source.is_ground())
        .collect()
}

#[test]
fn retraction_heavy_traces_ride_delta_plans_and_match_recompute() {
    let mut retracting = 0usize;
    for (seed, sc) in retraction_scenarios() {
        let budget = scenario_budget(&sc);
        let queries = retraction_queries(&sc);
        let mut sess = StreamSession::new(sc.mapping.clone(), Vec::new(), sc.source.clone());
        sess.set_search_budget(Some(budget.clone()));
        for (name, q) in &queries {
            sess.register(name, q.clone(), StreamRegime::Certain);
        }
        let maintained: BTreeSet<&str> = (queries.iter())
            .filter(|(_, q)| classify::is_positive(&q.formula) && QueryEval::new(q).is_compiled())
            .map(|(name, _)| name.as_str())
            .collect();
        assert!(
            maintained.len() >= 4,
            "{}: the positive queries compile",
            sc.name
        );
        let mut rng = Rng(seed.wrapping_mul(0x2545_F491) ^ 0x5EED);
        let mut rolling = sc.source.clone();
        for (i, up) in retraction_trace(&sc, &mut rng).iter().enumerate() {
            let ctx = format!("{} batch {i} ({up})", sc.name);
            let report = sess.update(up);
            up.apply(&mut rolling);
            if !report.update.removed.is_empty() {
                retracting += 1;
            }
            for (name, path) in &report.queries {
                assert!(
                    !maintained.contains(name.as_str()) || *path != QueryPath::Recomputed,
                    "{ctx}: positive query {name} recomputed"
                );
            }
            for (name, q) in &queries {
                let (got, gcomp) = sess.answers(name).expect("registered");
                let (want, wcomp) = certain_answers(&sc.mapping, &rolling, q, Some(&budget));
                if gcomp != Completeness::Capped && wcomp != Completeness::Capped {
                    assert_eq!(got, want, "{ctx}: query {name} diverged from recompute");
                }
            }
        }
    }
    assert!(
        retracting >= 40,
        "batches that removed csol tuples: {retracting}"
    );
}

#[test]
fn split_batches_answer_like_whole_ones_under_every_regime() {
    for (seed, sc) in retraction_scenarios() {
        let budget = scenario_budget(&sc);
        let queries = retraction_queries(&sc);
        let open = || {
            let mut sess = StreamSession::new(sc.mapping.clone(), Vec::new(), sc.source.clone());
            sess.set_search_budget(Some(budget.clone()));
            sess.set_regime_budget(regime_budget());
            for (name, q) in &queries {
                sess.register(&format!("{name}/certain"), q.clone(), StreamRegime::Certain);
                sess.register(&format!("{name}/gcwa"), q.clone(), StreamRegime::GcwaStar);
                sess.register(&format!("{name}/approx"), q.clone(), StreamRegime::Approx);
            }
            sess
        };
        let (mut whole, mut split) = (open(), open());
        let mut rng = Rng(seed.wrapping_mul(0x2545_F491) ^ 0x5EED);
        for (i, up) in retraction_trace(&sc, &mut rng).iter().enumerate() {
            whole.update(up);
            let mut retracts = Update::new();
            for (rel, t) in up.retracts() {
                retracts.retract(*rel, t.clone());
            }
            let mut inserts = Update::new();
            for (rel, t) in up.inserts() {
                inserts.insert(*rel, t.clone());
            }
            split.update(&retracts);
            split.update(&inserts);
            assert_eq!(whole.exchange().source(), split.exchange().source());
            let ctx = format!("{} batch {i} ({up})", sc.name);
            for (name, _) in &queries {
                let (w, wc) = whole
                    .answers(&format!("{name}/certain"))
                    .expect("registered");
                let (s, sc_) = split
                    .answers(&format!("{name}/certain"))
                    .expect("registered");
                if wc != Completeness::Capped && sc_ != Completeness::Capped {
                    assert_eq!(w, s, "{ctx}: certain answers of {name}");
                }
                let (w, s) = (
                    whole.gcwa(&format!("{name}/gcwa")).expect("registered"),
                    split.gcwa(&format!("{name}/gcwa")).expect("registered"),
                );
                if w.completeness != Completeness::Capped && s.completeness != Completeness::Capped
                {
                    assert_eq!(w.answers, s.answers, "{ctx}: GCWA* answers of {name}");
                }
                let (w, s) = (
                    whole.approx(&format!("{name}/approx")).expect("registered"),
                    split.approx(&format!("{name}/approx")).expect("registered"),
                );
                if w.completeness != Completeness::Capped && s.completeness != Completeness::Capped
                {
                    assert_eq!(
                        (&w.lower, &w.upper),
                        (&s.lower, &s.upper),
                        "{ctx}: approximation bracket of {name}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Merge-feeder traces: the chased target maintained through egd merges.
// ---------------------------------------------------------------------------

/// A trace shape for the chased-target race: a mapping with target
/// constraints and the source facts its batches toggle.
struct MergeShape {
    mapping: Mapping,
    constraints: Vec<TargetDep>,
    pool: Vec<(RelSym, Tuple)>,
}

fn fact(rel: &str, names: &[&str]) -> (RelSym, Tuple) {
    (RelSym::new(rel), Tuple::from_names(names))
}

/// The conference shape of the benchmark's mapping over five papers: the
/// one-author egd merges each paper's open author null into its `Wrote`
/// author (two `Papers` titles make null–null merges), and the
/// conflict-of-interest tgd fires on merged `Sub` tuples once reviewer and
/// author share an affiliation. One extra author makes an occasional
/// constant clash.
fn conference_shape() -> MergeShape {
    let mapping = Mapping::parse(
        "CfSub(p:cl, a:op) <- CfPapers(p, t); CfSub(p:cl, a:cl) <- CfWrote(p, a); \
         CfRev(p:cl, r:cl) <- CfAssign(p, r); CfAff(x:cl, u:cl) <- CfAffil(x, u)",
    )
    .unwrap();
    let constraints = TargetDep::parse_many(
        "a = b <- CfSub(p, a) & CfSub(p, b); \
         CfCoi(p:cl, r:cl, u:cl) <- CfRev(p, r) & CfAff(r, u) & CfSub(p, a) & CfAff(a, u)",
    )
    .unwrap();
    let mut pool = Vec::new();
    for i in 0..5 {
        let p = format!("p{i}");
        let (a, r) = (format!("a{}", i % 3), format!("r{}", i % 2));
        let colleague = format!("a{}", (i + 1) % 3);
        pool.push(fact("CfPapers", &[&p, "t0"]));
        pool.push(fact("CfPapers", &[&p, "t1"]));
        pool.push(fact("CfWrote", &[&p, &a]));
        pool.push(fact("CfAssign", &[&p, &r]));
        pool.push(fact("CfAssign", &[&p, &colleague]));
    }
    for (x, u) in [
        ("a0", "u0"),
        ("a1", "u1"),
        ("a2", "u0"),
        ("r0", "u0"),
        ("r1", "u1"),
    ] {
        pool.push(fact("CfAffil", &[x, u]));
    }
    pool.push(fact("CfWrote", &["p0", "a1"]));
    MergeShape {
        mapping,
        constraints,
        pool,
    }
}

/// Null–null chains: two open rules feed one key, a constant rule feeds
/// the same relation, a cross-key egd merges values through a link
/// relation, and a tgd copies the merged relation.
fn null_chain_shape() -> MergeShape {
    let mapping = Mapping::parse(
        "NnT(x:cl, z:op) <- NnE(x); NnT(x:cl, z:op) <- NnF(x); NnT(x:cl, y:cl) <- NnK(x, y); \
         NnL(x:cl, y:cl) <- NnLink(x, y)",
    )
    .unwrap();
    let constraints = TargetDep::parse_many(
        "a = b <- NnT(x, a) & NnT(x, b); \
         a = b <- NnL(x, y) & NnT(x, a) & NnT(y, b); \
         NnC(x:cl, a:cl) <- NnT(x, a)",
    )
    .unwrap();
    let mut pool = Vec::new();
    for k in ["k0", "k1", "k2", "k3"] {
        pool.push(fact("NnE", &[k]));
        pool.push(fact("NnF", &[k]));
    }
    for (k, v) in [("k0", "v0"), ("k1", "v0"), ("k3", "v1")] {
        pool.push(fact("NnK", &[k, v]));
    }
    for (x, y) in [("k0", "k1"), ("k1", "k2"), ("k2", "k0"), ("k2", "k3")] {
        pool.push(fact("NnLink", &[x, y]));
    }
    MergeShape {
        mapping,
        constraints,
        pool,
    }
}

/// Drive `traces` seeded traces of 25 batches (each toggling one to three
/// pool facts) over `shape`, racing the maintained chased target against
/// a scratch chase of the rolling source after every batch. Returns the
/// number of batches that removed canonical-solution tuples and stayed
/// incremental.
fn race_merge_traces(shape: &MergeShape, traces: u64) -> usize {
    let mut incremental_retractions = 0usize;
    for seed in 0..traces {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9) ^ 0x3E46E);
        let mut source = Instance::new();
        for (rel, t) in &shape.pool {
            if rng.below(2) == 0 {
                source.insert(*rel, t.clone());
            }
        }
        let mut inc = IncrementalExchange::new(
            shape.mapping.clone(),
            shape.constraints.clone(),
            source.clone(),
        );
        for b in 0..25 {
            let mut up = Update::new();
            for _ in 0..1 + rng.below(3) {
                let (rel, t) = shape.pool[rng.below(shape.pool.len())].clone();
                if source.contains(rel, &t) {
                    up.retract(rel, t);
                } else {
                    up.insert(rel, t);
                }
            }
            let ctx = format!("seed {seed} batch {b} ({up})");
            let was_satisfied = inc.chase_outcome() == ChaseOutcome::Satisfied;
            let store = inc.chased_index().expect("constraints present");
            let collect = store.slot_count() > 2 * store.live_count();
            let report = inc.update(&up);
            up.apply(&mut source);
            match report.target {
                TargetPath::Rebuilt { .. } => assert!(
                    !was_satisfied || collect,
                    "{ctx}: rebuilt without a failed chase or garbage collection"
                ),
                TargetPath::Incremental { .. } if !report.removed.is_empty() => {
                    incremental_retractions += 1;
                }
                _ => {}
            }
            let scratch = canonical_solution_with_deps_via(
                &IndexedChase,
                &shape.mapping,
                &shape.constraints,
                &source,
                DEFAULT_CHASE_LIMIT,
            );
            let outcome = inc.chase_outcome();
            assert_eq!(
                std::mem::discriminant(&outcome),
                std::mem::discriminant(&scratch.outcome),
                "{ctx}: chase outcomes diverged"
            );
            if outcome == ChaseOutcome::Satisfied {
                let chased = inc.chased();
                assert!(
                    ann_hom_equivalent(&chased, &scratch.instance),
                    "{ctx}: maintained chased target diverged from scratch:\nincr:\n{chased}\nscratch:\n{}",
                    scratch.instance
                );
            }
        }
    }
    incremental_retractions
}

#[test]
fn conference_merge_traces_match_a_scratch_chase() {
    let incremental = race_merge_traces(&conference_shape(), 40);
    assert!(
        incremental >= 100,
        "retracting batches that stayed incremental: {incremental}"
    );
}

#[test]
fn null_chain_merge_traces_match_a_scratch_chase() {
    let incremental = race_merge_traces(&null_chain_shape(), 40);
    assert!(
        incremental >= 100,
        "retracting batches that stayed incremental: {incremental}"
    );
}

// ---------------------------------------------------------------------------
// Retraction edge cases.
// ---------------------------------------------------------------------------

fn answer_names(sess: &StreamSession, name: &str) -> BTreeSet<Vec<String>> {
    let (rel, _) = sess.answers(name).expect("registered");
    rel.iter()
        .map(|t| t.iter().map(|v| format!("{v}")).collect())
        .collect()
}

/// The shipped `examples/conference_stream.dx` (the one-author egd, the
/// conflict tgd, three batches with one retraction) keeps its chased
/// target on the incremental path on every batch, as `dx --updates`
/// streams it.
#[test]
fn shipped_conference_stream_stays_incremental() {
    let text = std::fs::read_to_string("examples/conference_stream.dx")
        .expect("examples/conference_stream.dx is checked in");
    let sc = Scenario::parse(&text)
        .unwrap_or_else(|e| panic!("examples/conference_stream.dx: {}", e.render(&text)));
    assert_eq!(sc.updates.len(), 3);
    let mut sess = StreamSession::new(
        sc.mapping.clone(),
        sc.constraints.clone(),
        sc.source.clone(),
    );
    for nq in &sc.queries {
        sess.register(&nq.name, nq.query.clone(), StreamRegime::Certain);
    }
    let mut retracted = false;
    for nu in &sc.updates {
        let report = sess.update(&nu.update);
        retracted |= !report.update.removed.is_empty();
        assert!(
            matches!(report.update.target, TargetPath::Incremental { .. }),
            "batch {:?}: {:?}",
            nu.name,
            report.update.target
        );
    }
    assert!(retracted, "one batch retracts");
}

/// `examples/conference_stream.dx` without `Papers(p3, title3)`: p1 is then
/// the only paper without a reviewer, so batch "second-opinion" (which
/// assigns one) empties the open-reviewer rule's witness set and flips an
/// empty marker. The chase never reads markers, so every batch stays on
/// the incremental path, and after every batch the maintained chased target
/// is hom-equivalent to a chase from scratch.
#[test]
fn a_marker_flip_keeps_the_target_incremental() {
    let text = std::fs::read_to_string("examples/conference_stream.dx")
        .expect("examples/conference_stream.dx is checked in")
        .replace("    Papers(p3, title3);\n", "");
    let sc = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}", e.render(&text)));
    let mut source = sc.source.clone();
    let mut inc =
        IncrementalExchange::new(sc.mapping.clone(), sc.constraints.clone(), source.clone());
    let mut flipped = false;
    for nu in &sc.updates {
        let report = inc.update(&nu.update);
        nu.update.apply(&mut source);
        flipped |= report.marks_changed;
        assert!(
            matches!(report.target, TargetPath::Incremental { .. }),
            "batch {:?}: {:?}",
            nu.name,
            report.target
        );
        let scratch = canonical_solution_with_deps_via(
            &IndexedChase,
            &sc.mapping,
            &sc.constraints,
            &source,
            DEFAULT_CHASE_LIMIT,
        );
        assert_eq!(scratch.outcome, ChaseOutcome::Satisfied);
        assert_eq!(inc.chase_outcome(), ChaseOutcome::Satisfied);
        let chased = inc.chased();
        assert!(
            ann_hom_equivalent(&chased, &scratch.instance),
            "batch {:?}: maintained chased target diverged from scratch:\nincr:\n{chased}\nscratch:\n{}",
            nu.name,
            scratch.instance
        );
        let marks = |i: &AnnInstance| -> BTreeSet<(RelSym, Annotation)> {
            i.relations()
                .flat_map(|(rel, r)| r.empty_marks().map(move |m| (rel, m.clone())))
                .collect()
        };
        assert_eq!(
            marks(&chased),
            marks(&scratch.instance),
            "batch {:?}: empty markers",
            nu.name
        );
    }
    assert!(flipped, "a batch flips an empty marker");
}

#[test]
fn retract_then_reinsert_round_trips() {
    let mapping = Mapping::parse("SdT(x:cl, z:op) <- SdE(x, y)").unwrap();
    let mut source = Instance::new();
    source.insert_names("SdE", &["a", "b"]);
    source.insert_names("SdE", &["c", "d"]);
    let q = oc_exchange::logic::Query::parse(&["x"], "exists z. SdT(x, z)").unwrap();
    let mut sess = StreamSession::new(mapping.clone(), Vec::new(), source.clone());
    sess.register("q", q.clone(), StreamRegime::Certain);
    let before = answer_names(&sess, "q");

    let out = Update::new().retract_names("SdE", &["a", "b"]);
    let back = Update::new().insert_names("SdE", &["a", "b"]);
    sess.update(&out);
    assert_eq!(answer_names(&sess, "q"), [vec!["c".to_string()]].into());
    sess.update(&back);
    assert_eq!(
        answer_names(&sess, "q"),
        before,
        "retract-then-reinsert must round-trip the answer set"
    );
    // And the maintained csol is hom-equivalent to scratch (null ids may
    // differ — the reinserted justification mints a fresh null).
    let scratch = canonical_solution(&mapping, &source);
    assert!(ann_hom_equivalent(
        sess.exchange().csol(),
        &scratch.instance
    ));
}

#[test]
fn retraction_feeding_a_merged_null_rebuilds_soundly() {
    // Two rules feed MgT; the egd merges their nulls through the shared
    // key. Retracting one feeder after the merge empties its rule's
    // witness set, which flips an empty marker, and undoes the merge
    // through the merge log: the surviving justification must keep its
    // null.
    let mapping = Mapping::parse("MgT(x:cl, z:op) <- MgE(x); MgT(x:cl, z:op) <- MgF(x)").unwrap();
    let constraints =
        oc_exchange::chase::TargetDep::parse_many("a = b <- MgT(x, a) & MgT(x, b)").unwrap();
    let mut source = Instance::new();
    source.insert_names("MgE", &["k"]);
    source.insert_names("MgF", &["k"]);
    let q = oc_exchange::logic::Query::parse(&["x"], "exists z. MgT(x, z)").unwrap();
    let mut sess = StreamSession::new(mapping.clone(), constraints.clone(), source.clone());
    sess.set_search_budget(Some(SearchBudget::bounded(1, 1)));
    sess.register("q", q.clone(), StreamRegime::Certain);

    let up = Update::new().retract_names("MgF", &["k"]);
    sess.update(&up);
    let mut rolling = source.clone();
    up.apply(&mut rolling);
    let scratch = canonical_solution_with_deps_via(
        &IndexedChase,
        &mapping,
        &constraints,
        &rolling,
        DEFAULT_CHASE_LIMIT,
    );
    assert_eq!(scratch.outcome, ChaseOutcome::Satisfied);
    assert!(
        ann_hom_equivalent(&sess.exchange().chased(), &scratch.instance),
        "retracting a merged-null feeder must land on the scratch chase"
    );
    assert_eq!(answer_names(&sess, "q"), [vec!["k".to_string()]].into());
}

#[test]
fn empty_effective_delta_is_a_no_op_and_skips_every_query() {
    let mapping = Mapping::parse("NpT(x:cl, y:cl) <- NpE(x, y)").unwrap();
    let mut source = Instance::new();
    source.insert_names("NpE", &["a", "b"]);
    let q = oc_exchange::logic::Query::parse(&["x"], "exists y. NpT(x, y)").unwrap();
    let mut sess = StreamSession::new(mapping, Vec::new(), source);
    sess.register("q", q, StreamRegime::Certain);
    let before = answer_names(&sess, "q");

    // Insert an already-present tuple, retract an absent one: the
    // effective delta is empty, so nothing may move and every query skips.
    let up = Update::new()
        .insert_names("NpE", &["a", "b"])
        .retract_names("NpE", &["z", "w"]);
    let report = sess.update(&up);
    assert!(report.update.added.is_empty() && report.update.removed.is_empty());
    assert!(
        report
            .queries
            .iter()
            .all(|(_, p)| matches!(p, QueryPath::Skipped)),
        "an empty delta must skip every registered query: {:?}",
        report.queries
    );
    assert_eq!(answer_names(&sess, "q"), before);
}

// ---------------------------------------------------------------------------
// Witness-carrying certain answers: traces that retract a refutation's
// support.
// ---------------------------------------------------------------------------

/// The §1 mixed conference mapping (open author of a submitted paper,
/// open reviewer of an unassigned one) with a `one_author`-shaped Boolean
/// `∀` query, decided in the Proposition 5 space, and a
/// `two_reviewers`-shaped monotone query, decided by the Proposition 4
/// image sweep.
fn witness_scenario(facts: &str) -> Scenario {
    let text = format!(
        "scenario \"witness_support\" {{
  source {{ Papers/2; Wrote/2; Assign/2; }}
  target {{ Sub/2; Rev/2; }}
  mapping {{
    Sub(p:cl, a:op) <- Papers(p, t);
    Sub(p:cl, a:cl) <- Wrote(p, a);
    Rev(p:cl, r:cl) <- Assign(p, r);
    Rev(p:cl, r:op) <- Papers(p, t) & !exists s. Assign(p, s);
  }}
  instance {{ {facts} }}
  query one_author() <- forall p a1 a2. (Sub(p, a1) & Sub(p, a2) -> a1 = a2);
  query two_reviewers(p) <- exists r1 r2. Rev(p, r1) & Rev(p, r2) & r1 != r2;
}}"
    );
    Scenario::parse(&text).unwrap_or_else(|e| panic!("{}", e.render(&text)))
}

/// One batch of a witness-support trace and what it must do to the two
/// queries: `(revalidated, researched)` per query, and `one_author`'s
/// verdict after it.
struct SupportStep {
    what: &'static str,
    update: Update,
    one_author: (usize, usize),
    two_reviewers: (usize, usize),
    certain: bool,
}

/// Drive `steps` over `facts`: after every batch both queries answer like
/// `certain_answers` on the rolling source, and each reports the batch's
/// counts of revalidated and re-searched candidates. A batch that searched
/// nothing reports a delta path, any search a recompute.
fn race_support_trace(facts: &str, steps: Vec<SupportStep>) {
    let sc = witness_scenario(facts);
    let budget = scenario_budget(&sc);
    let mut sess = StreamSession::new(sc.mapping.clone(), Vec::new(), sc.source.clone());
    sess.set_search_budget(Some(budget.clone()));
    for nq in &sc.queries {
        sess.register(&nq.name, nq.query.clone(), StreamRegime::Certain);
    }
    let mut rolling = sc.source.clone();
    for step in steps {
        let report = sess.update(&step.update);
        step.update.apply(&mut rolling);
        let ctx = format!("batch {:?}", step.what);
        for (i, nq) in sc.queries.iter().enumerate() {
            let (got, gcomp) = sess.answers(&nq.name).expect("registered");
            let (want, wcomp) = certain_answers(&sc.mapping, &rolling, &nq.query, Some(&budget));
            assert!(
                gcomp != Completeness::Capped && wcomp != Completeness::Capped,
                "{ctx} {}: the trace is small enough to decide exactly",
                nq.name
            );
            assert_eq!(
                got, want,
                "{ctx} {}: answers diverged from recompute",
                nq.name
            );
            let counts = report.witnesses[i];
            let want_counts = match nq.name.as_str() {
                "one_author" => step.one_author,
                _ => step.two_reviewers,
            };
            assert_eq!(
                (counts.revalidated, counts.researched),
                want_counts,
                "{ctx} {}: (revalidated, researched)",
                nq.name
            );
            let searched = report.queries[i].1 == QueryPath::Recomputed;
            assert_eq!(searched, counts.researched > 0, "{ctx} {}", nq.name);
        }
        let (one_author, _) = sess.answers("one_author").expect("registered");
        assert_eq!(one_author.len() == 1, step.certain, "{ctx}: one_author");
    }
}

/// Closed authors only: `p1` and `p2` each have two known authors, so
/// every member violates `one_author` through either; `p1` has two known
/// reviewers and is the one certain `two_reviewers` answer, which a
/// refutation sweep re-decides on every batch.
#[test]
fn retracting_a_refutations_support_revalidates_or_researches() {
    let facts = "Wrote(p0, a0); Wrote(p1, a1); Wrote(p1, a2); Wrote(p2, a3); Wrote(p2, a4);
    Assign(p1, r1); Assign(p1, r2); Assign(p2, r1);";
    let steps = vec![
        SupportStep {
            what: "(a) retract p1's authors, p2 still violates",
            update: Update::new()
                .retract_names("Wrote", &["p1", "a1"])
                .retract_names("Wrote", &["p1", "a2"]),
            one_author: (1, 0),
            // a1 and a2 leave the palette; the certain p1 is re-decided.
            two_reviewers: (7, 1),
            certain: false,
        },
        SupportStep {
            what: "(b) retract p2's authors, the last violation",
            update: Update::new()
                .retract_names("Wrote", &["p2", "a3"])
                .retract_names("Wrote", &["p2", "a4"]),
            one_author: (0, 1),
            two_reviewers: (5, 1),
            certain: true,
        },
        SupportStep {
            what: "(c) re-insert p2's authors",
            update: Update::new()
                .insert_names("Wrote", &["p2", "a3"])
                .insert_names("Wrote", &["p2", "a4"]),
            one_author: (0, 1),
            // a3 and a4 are new candidates.
            two_reviewers: (5, 3),
            certain: false,
        },
        SupportStep {
            what: "(e) submit p0: its open author and reviewer flip two empty markers",
            update: Update::new().insert_names("Papers", &["p0", "t0"]),
            // Extras-free images are members whatever the markers.
            one_author: (1, 0),
            // t0 is a new candidate.
            two_reviewers: (7, 2),
            certain: false,
        },
        SupportStep {
            what: "(f) p1 and r2 leave adom(S)",
            update: Update::new()
                .retract_names("Assign", &["p1", "r1"])
                .retract_names("Assign", &["p1", "r2"]),
            one_author: (1, 0),
            // The certain p1 leaves the palette: nothing is searched.
            two_reviewers: (7, 0),
            certain: false,
        },
        SupportStep {
            what: "(f) p1 and r2 re-enter adom(S)",
            update: Update::new()
                .insert_names("Assign", &["p1", "r1"])
                .insert_names("Assign", &["p1", "r2"]),
            one_author: (1, 0),
            two_reviewers: (7, 2),
            certain: false,
        },
    ];
    race_support_trace(facts, steps);
}

/// One paper with an open author: `one_author`'s only refutations
/// replicate that author, so the carried witness has an extra, licensed by
/// the paper's open `Sub` tuple.
#[test]
fn a_witness_with_extras_dies_with_its_license() {
    let facts = "Papers(p9, t9); Assign(p9, r0);";
    let steps = vec![
        SupportStep {
            what: "(e) unassign p9: two empty markers flip",
            update: Update::new().retract_names("Assign", &["p9", "r0"]),
            one_author: (0, 1),
            // r0 leaves the palette; p9's reviewer null keeps it refuted.
            two_reviewers: (2, 0),
            certain: false,
        },
        SupportStep {
            what: "(d) retract p9, whose open tuple licensed the extra",
            update: Update::new().retract_names("Papers", &["p9", "t9"]),
            one_author: (0, 1),
            two_reviewers: (0, 0),
            certain: true,
        },
        SupportStep {
            what: "re-submit p9",
            update: Update::new().insert_names("Papers", &["p9", "t9"]),
            one_author: (0, 1),
            two_reviewers: (0, 2),
            certain: false,
        },
    ];
    race_support_trace(facts, steps);
}
