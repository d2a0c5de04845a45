//! The corpus differential harness: every generated scenario races the
//! engines against independent oracles across all regimes.
//!
//! Per scenario, [`race_scenario`] checks:
//!
//! 1. **Round-trip identity** — `parse(print(s)) == s` structurally and
//!    canonical text is a printing fixpoint;
//! 2. **Chase race** — [`NaiveChase`] vs [`IndexedChase`] on the full
//!    exchange (STDs + target constraints): same outcome kind, cross-engine
//!    dependency satisfaction, hom-equivalent results, isomorphic annotated
//!    cores;
//! 3. **Certain answers** — the production [`Exchange`] vs an exchange built
//!    through the naive chase ([`Exchange::with_strategy`], contract:
//!    identical), and for *positive* queries the independent Proposition 3
//!    oracle (tree-walk naive evaluation on `CSol`);
//! 4. **Possible answers** — [`Exchange::possible_contains`] vs any-member witness
//!    search over a brute-force `Rep_A` enumeration on the engine's exact
//!    palette and budget;
//! 5. **GCWA\*** — [`Exchange::gcwa_star_answers`] (compiled plans over one delta
//!    index) vs materialized unions of ⊆-minimal members evaluated by the
//!    tree walker, plus falsifying-counterexample and
//!    positive-query-collapse checks;
//! 6. **Approximation bracket** — `lower ⊆ exact ⊆ upper` against the
//!    brute-force member space, closing to equality under exhaustive
//!    sampling;
//! 7. **Streaming race** — the scenario's `update` batches replay through
//!    [`StreamSession`] (incremental chase + incrementally maintained
//!    certain answers); after *every* batch the maintained canonical
//!    solution must be hom-equivalent to a recompute-from-scratch, the
//!    chased target must agree in outcome kind and hom-equivalence, and
//!    every registered query's answer set must be identical to the batch
//!    pipeline on the updated source.
//!
//! Any disagreement panics with the scenario text embedded, so a corpus
//! failure is immediately reproducible from the seed.

use dx_chase::chase_engine::{ChaseOutcome, DEFAULT_CHASE_LIMIT};
use dx_chase::core::{ann_core_of, ann_hom_equivalent, ann_isomorphic};
use dx_chase::{canonical_solution, canonical_solution_with_deps_via, ChaseStrategy, NaiveChase};
use dx_core::certain::certain_answers;
use dx_core::regimes::{GcwaRoute, RegimeBudget};
use dx_core::streaming::{QueryPath, StreamRegime, StreamSession};
use dx_core::Exchange;
use dx_engine::IndexedChase;
use dx_logic::{classify, Query};
use dx_relation::{ConstId, Instance, Tuple, Value};
use dx_solver::{minimal_rep_a_members, search_rep_a_indexed, Completeness, SearchBudget};
use dx_text::{Grade, Scenario};
use std::collections::BTreeSet;

/// Per-scenario result counters folded into [`CorpusStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ScenarioReport {
    /// Chase finished with all dependencies satisfied.
    pub chase_satisfied: bool,
    /// Chase failed on an egd (still a raced, agreeing outcome).
    pub chase_failed: bool,
    /// Queries raced through the certain/possible/GCWA\*/approx checks.
    pub queries: usize,
    /// `Rep_A` members enumerated by the brute-force oracles.
    pub members: usize,
    /// Update batches replayed through the streaming race.
    pub updates: usize,
    /// Query maintenance steps that rode a delta plan (vs recompute/skip).
    pub delta_paths: usize,
}

/// Aggregated corpus statistics (serialized to JSON by [`CorpusStats::to_json`]).
#[derive(Clone, Debug, Default)]
pub struct CorpusStats {
    /// Scenarios raced, total.
    pub scenarios: usize,
    /// Scenarios per grade level (index = grade).
    pub per_grade: [usize; 4],
    /// Scenarios whose chase satisfied all dependencies.
    pub chase_satisfied: usize,
    /// Scenarios whose chase failed (egd conflict) — raced, agreeing.
    pub chase_failed: usize,
    /// Total queries raced.
    pub queries: usize,
    /// Total brute-force `Rep_A` members enumerated.
    pub members: usize,
    /// Total update batches replayed through the streaming race.
    pub updates: usize,
    /// Total delta-plan maintenance steps across all streaming races.
    pub delta_paths: usize,
    /// Total canonical `.dx` bytes round-tripped.
    pub text_bytes: usize,
}

impl CorpusStats {
    /// Fold one scenario's report in.
    pub fn absorb(&mut self, grade: Grade, text_bytes: usize, r: &ScenarioReport) {
        self.scenarios += 1;
        self.per_grade[grade.level() as usize] += 1;
        self.chase_satisfied += usize::from(r.chase_satisfied);
        self.chase_failed += usize::from(r.chase_failed);
        self.queries += r.queries;
        self.members += r.members;
        self.updates += r.updates;
        self.delta_paths += r.delta_paths;
        self.text_bytes += text_bytes;
    }

    /// Serialize as a small JSON object (no external dependencies).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"scenarios\": {},\n  \"per_grade\": [{}, {}, {}, {}],\n  \
             \"chase_satisfied\": {},\n  \"chase_failed\": {},\n  \"queries\": {},\n  \
             \"members\": {},\n  \"updates\": {},\n  \"delta_paths\": {},\n  \
             \"text_bytes\": {}\n}}\n",
            self.scenarios,
            self.per_grade[0],
            self.per_grade[1],
            self.per_grade[2],
            self.per_grade[3],
            self.chase_satisfied,
            self.chase_failed,
            self.queries,
            self.members,
            self.updates,
            self.delta_paths,
            self.text_bytes,
        )
    }
}

/// The oracle budget for mixed-annotation scenarios: one replication
/// constant, one extra tuple — small enough that the brute-force oracles
/// enumerate the exact same space, wide enough that open annotations
/// enlarge it. The leaf cap bounds the engine's internal Prop 5 sweep
/// (`∀*∃*` queries own an exponential extras space; a certain tuple must
/// exhaust it) — capped outcomes are still raced for cross-engine
/// agreement, just not against exactness oracles.
fn oracle_budget() -> SearchBudget {
    SearchBudget {
        max_leaves: Some(5_000),
        ..SearchBudget::bounded(1, 1)
    }
}

/// The budget actually used for a scenario: all-closed mappings route
/// through the closed-world witness space inside the engines, so the
/// oracles must enumerate the same space.
fn scenario_budget(sc: &Scenario) -> SearchBudget {
    if sc.mapping.is_all_closed() {
        SearchBudget::closed_world()
    } else {
        oracle_budget()
    }
}

/// Candidate answer tuples over `(adom(S) ∪ constants(Q))^arity`.
fn candidates(source: &Instance, query: &Query) -> Vec<Tuple> {
    let mut consts: BTreeSet<ConstId> = source.adom_consts();
    consts.extend(query.formula.constants());
    let consts: Vec<ConstId> = consts.into_iter().collect();
    let arity = query.arity();
    if arity == 0 {
        return vec![Tuple::new(Vec::<Value>::new())];
    }
    if consts.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut idx = vec![0usize; arity];
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

/// All deduplicated members of `Rep_A(CSol_A(S))` within `budget`.
fn enumerate_members(
    csol: &dx_relation::AnnInstance,
    palette: &BTreeSet<ConstId>,
    budget: &SearchBudget,
) -> Vec<Instance> {
    let mut members: BTreeSet<Instance> = BTreeSet::new();
    search_rep_a_indexed(csol, palette, budget, &mut |leaf| {
        members.insert(leaf.index().to_instance());
        false
    });
    members.into_iter().collect()
}

/// All unions of nonempty subsets of ≤ `cap` members, materialized.
fn subsets_up_to(members: &[Instance], cap: usize) -> Vec<Instance> {
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
    let mut out = Vec::new();
    rec(members, 0, cap.max(1), &Instance::new(), &mut out);
    out
}

/// Union size cap shared by the GCWA\* engine call and its oracle.
const UNION_CAP: usize = 2;

/// Race one scenario through every check; panics on any disagreement.
pub fn race_scenario(sc: &Scenario) -> ScenarioReport {
    let label = &sc.name;
    let mut report = ScenarioReport::default();

    // 1. Round-trip identity.
    let text = sc.to_text();
    let reparsed = Scenario::parse(&text).unwrap_or_else(|e| {
        panic!(
            "{label}: printed text fails to parse: {}\n{text}",
            e.render(&text)
        )
    });
    assert_eq!(*sc, reparsed, "{label}: parse(print(s)) != s\n{text}");
    assert_eq!(
        text,
        reparsed.to_text(),
        "{label}: canonical text is not a printing fixpoint"
    );

    // 2. Chase race (constraints included).
    let naive = canonical_solution_with_deps_via(
        &NaiveChase,
        &sc.mapping,
        &sc.constraints,
        &sc.source,
        DEFAULT_CHASE_LIMIT,
    );
    let indexed = canonical_solution_with_deps_via(
        &IndexedChase,
        &sc.mapping,
        &sc.constraints,
        &sc.source,
        DEFAULT_CHASE_LIMIT,
    );
    assert_eq!(
        std::mem::discriminant(&naive.outcome),
        std::mem::discriminant(&indexed.outcome),
        "{label}: chase outcomes diverge: naive {:?} vs indexed {:?}\n{text}",
        naive.outcome,
        indexed.outcome,
    );
    match naive.outcome {
        ChaseOutcome::Satisfied => report.chase_satisfied = true,
        ChaseOutcome::Failed { .. } => report.chase_failed = true,
        ChaseOutcome::StepLimit => {
            panic!("{label}: weakly acyclic constraints must terminate\n{text}")
        }
    }
    if report.chase_satisfied {
        for (engine_name, engine) in [
            ("naive", &NaiveChase as &dyn ChaseStrategy),
            ("indexed", &IndexedChase as &dyn ChaseStrategy),
        ] {
            assert!(
                engine.satisfies(&naive.instance, &sc.constraints)
                    && engine.satisfies(&indexed.instance, &sc.constraints),
                "{label}: {engine_name} rejects a chase result\n{text}"
            );
        }
        assert!(
            ann_hom_equivalent(&naive.instance, &indexed.instance),
            "{label}: chase results are not hom-equivalent\nnaive:\n{}\nindexed:\n{}\n{text}",
            naive.instance,
            indexed.instance,
        );
        let core_n = ann_core_of(&naive.instance).core;
        let core_i = ann_core_of(&indexed.instance).core;
        assert!(
            ann_isomorphic(&core_n, &core_i).is_some(),
            "{label}: annotated cores are not isomorphic\n{text}"
        );
    }

    // 3–6. Query regimes (constraint-free semantics, as the pipelines define
    // them). Members are enumerated once per scenario and reused.
    let budget = scenario_budget(sc);
    let csol = canonical_solution(&sc.mapping, &sc.source);
    let mut palette: BTreeSet<ConstId> = sc.source.adom_consts();
    for nq in &sc.queries {
        palette.extend(nq.query.formula.constants());
    }
    let members = enumerate_members(&csol.instance, &palette, &budget);
    report.members = members.len();
    let (fast_minimal, min_comp) = minimal_rep_a_members(&csol.instance, &palette, None);
    assert_eq!(
        min_comp,
        Completeness::Exact,
        "{label}: minimal enumeration capped"
    );
    let unions = subsets_up_to(&fast_minimal, UNION_CAP);
    let regime_budget = RegimeBudget {
        max_union_size: UNION_CAP,
        max_minimal_solutions: usize::MAX,
        max_leaves: None,
    };
    let ex = Exchange::new(&sc.mapping, &sc.source);
    let ex_naive = Exchange::with_strategy(&NaiveChase, &sc.mapping, &sc.source);

    for nq in &sc.queries {
        let (query, qname) = (&nq.query, &nq.name);
        report.queries += 1;
        let cands = candidates(&sc.source, query);

        // Certain answers: production exchange vs naive-chase exchange.
        let (cert, _) = ex.certain_answers(query, Some(&budget));
        let (cert_naive, _) = ex_naive.certain_answers(query, Some(&budget));
        assert_eq!(
            cert, cert_naive,
            "{label} {qname}: certain answers diverge across chase strategies\n{text}"
        );
        let cert_set: BTreeSet<Tuple> = cert.iter().cloned().collect();

        // Positive queries: Proposition 3 — certain == naive tree-walk
        // evaluation on CSol, restricted to ground candidates.
        if classify::is_positive(&query.formula) {
            let csol_rel = csol.rel_part();
            let prop3: BTreeSet<Tuple> = cands
                .iter()
                .filter(|t| query.holds_on(&csol_rel, t))
                .cloned()
                .collect();
            assert_eq!(
                cert_set, prop3,
                "{label} {qname}: certain answers disagree with the Prop. 3 oracle\n{text}"
            );
        }

        // Possible answers: engine vs any-member witness over the engine's
        // exact palette (query constants ∪ tuple constants) and budget.
        for t in cands.iter().take(2) {
            let mut t_palette: BTreeSet<ConstId> = query.formula.constants();
            t_palette.extend(t.consts());
            let t_members = enumerate_members(&csol.instance, &t_palette, &budget);
            let oracle_possible = t_members.iter().any(|m| query.holds_on(m, t));
            let engine_possible = ex.possible_contains(query, t, Some(&budget));
            assert_eq!(
                engine_possible.certain, oracle_possible,
                "{label} {qname}: possible_contains({t}) disagrees with the member oracle\n{text}"
            );
        }

        // GCWA*: compiled engine vs materialized-union tree-walk oracle.
        let gcwa = ex.gcwa_star_answers(query, &regime_budget);
        let gcwa_set: BTreeSet<Tuple> = gcwa.answers.iter().cloned().collect();
        let union_oracle: BTreeSet<Tuple> = cands
            .iter()
            .filter(|t| unions.iter().all(|u| query.holds_on(u, t)))
            .cloned()
            .collect();
        assert_eq!(
            gcwa_set, union_oracle,
            "{label} {qname}: GCWA* answers disagree with the union oracle\n{text}"
        );
        if classify::is_monotone(&query.formula) {
            assert_eq!(gcwa.route, GcwaRoute::Monotone, "{label} {qname}");
            assert_eq!(
                gcwa_set, cert_set,
                "{label} {qname}: GCWA* must equal certain answers on monotone queries\n{text}"
            );
        } else {
            assert_eq!(
                gcwa.minimal_solutions,
                fast_minimal.len(),
                "{label} {qname}"
            );
        }
        if classify::is_positive(&query.formula) {
            assert_eq!(
                gcwa_set, cert_set,
                "{label} {qname}: GCWA* must equal certain answers on positive queries\n{text}"
            );
        }
        for t in cands.iter().take(2) {
            let dec = ex.gcwa_star_contains(query, t, &regime_budget);
            assert_eq!(dec.certain, gcwa_set.contains(t), "{label} {qname} {t}");
            if let Some(cex) = dec.counterexample {
                assert!(
                    !query.holds_on(&cex, t),
                    "{label} {qname}: counterexample must falsify {t}\n{text}"
                );
            }
        }

        // Approximation bracket: lower ⊆ exact ⊆ upper over the budgeted
        // member space, closing under exhaustive sampling.
        let exact: BTreeSet<Tuple> = cands
            .iter()
            .filter(|t| members.iter().all(|m| query.holds_on(m, t)))
            .cloned()
            .collect();
        let approx = ex.approx_certain_answers(query, Some(&budget));
        let lower: BTreeSet<Tuple> = approx.lower.iter().cloned().collect();
        let upper: BTreeSet<Tuple> = approx.upper.iter().cloned().collect();
        assert!(
            lower.is_subset(&exact),
            "{label} {qname}: approx lower ⊄ exact\nlower={lower:?}\nexact={exact:?}\n{text}"
        );
        assert!(
            exact.is_subset(&upper),
            "{label} {qname}: exact ⊄ approx upper\nexact={exact:?}\nupper={upper:?}\n{text}"
        );
        if approx.completeness == Completeness::Exact {
            assert_eq!(
                upper, exact,
                "{label} {qname}: exhaustive sampling must close the upper bound\n{text}"
            );
        }
        if approx.tight {
            assert_eq!(
                lower, upper,
                "{label} {qname}: tight bracket must coincide\n{text}"
            );
        }
    }

    // 7. Streaming race: replay the scenario's update batches through the
    // incremental pipeline, racing every maintained artifact against a
    // recompute-from-scratch after each batch. (Sources with labeled nulls
    // sit outside the streaming contract — `IncrementalExchange` requires
    // ground sources — so those scenarios skip this leg.)
    if !sc.updates.is_empty() && sc.source.is_ground() {
        let mut sess = StreamSession::new(
            sc.mapping.clone(),
            sc.constraints.clone(),
            sc.source.clone(),
        );
        sess.set_search_budget(Some(budget.clone()));
        for nq in &sc.queries {
            sess.register(&nq.name, nq.query.clone(), StreamRegime::Certain);
        }
        let mut rolling = sc.source.clone();
        for nu in &sc.updates {
            report.updates += 1;
            let rep = sess.update(&nu.update);
            report.delta_paths += rep
                .queries
                .iter()
                .filter(|(_, p)| matches!(p, QueryPath::DeltaPlan { .. }))
                .count();
            nu.update.apply(&mut rolling);

            // Maintained canonical solution vs scratch recompute.
            let scratch = canonical_solution(&sc.mapping, &rolling);
            assert!(
                ann_hom_equivalent(sess.exchange().csol(), &scratch.instance),
                "{label} update {:?}: maintained csol is not hom-equivalent to recompute\n\
                 maintained:\n{}\nscratch:\n{}\n{text}",
                nu.name,
                sess.exchange().csol(),
                scratch.instance,
            );

            // Chased target (constraints): outcome kind + hom-equivalence.
            if !sc.constraints.is_empty() {
                let scratch_deps = canonical_solution_with_deps_via(
                    &IndexedChase,
                    &sc.mapping,
                    &sc.constraints,
                    &rolling,
                    DEFAULT_CHASE_LIMIT,
                );
                let inc_outcome = sess.exchange().chase_outcome();
                assert_eq!(
                    std::mem::discriminant(&inc_outcome),
                    std::mem::discriminant(&scratch_deps.outcome),
                    "{label} update {:?}: chase outcomes diverge: incremental {:?} vs \
                     scratch {:?}\n{text}",
                    nu.name,
                    inc_outcome,
                    scratch_deps.outcome,
                );
                if matches!(scratch_deps.outcome, ChaseOutcome::Satisfied) {
                    let chased = sess.exchange().chased();
                    assert!(
                        ann_hom_equivalent(&chased, &scratch_deps.instance),
                        "{label} update {:?}: chased targets are not hom-equivalent\n\
                         maintained:\n{chased}\nscratch:\n{}\n{text}",
                        nu.name,
                        scratch_deps.instance,
                    );
                }
            }

            // Maintained certain answers vs the batch pipeline, per query.
            // Capped sweeps are cut off mid-enumeration and the order is
            // legitimately permuted by the maintained csol's renamed nulls
            // (DRed re-derivation mints fresh ids), so identity holds —
            // and is asserted — only when both sides complete.
            for nq in &sc.queries {
                let (got, gc) = sess.answers(&nq.name).expect("registered");
                let (want, wc) = certain_answers(&sc.mapping, &rolling, &nq.query, Some(&budget));
                if gc == Completeness::Capped || wc == Completeness::Capped {
                    continue;
                }
                assert_eq!(
                    got, want,
                    "{label} update {:?} {}: maintained certain answers diverge from \
                     recompute\n{text}",
                    nu.name, nq.name,
                );
            }
        }
    }

    report
}

/// Run `seeds × grades` generated scenarios through [`race_scenario`],
/// aggregating statistics. Panics on the first disagreement.
pub fn run_corpus(seeds: std::ops::Range<u64>, grades: &[Grade]) -> CorpusStats {
    let mut stats = CorpusStats::default();
    for &grade in grades {
        for seed in seeds.clone() {
            let sc = dx_text::gen(seed, grade);
            let text_bytes = sc.to_text().len();
            let report = race_scenario(&sc);
            stats.absorb(grade, text_bytes, &report);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_two_seeds_every_grade() {
        let stats = run_corpus(0..2, &Grade::ALL);
        assert_eq!(stats.scenarios, 8);
        assert!(stats.queries >= 16);
        assert!(stats.members > 0);
        assert_eq!(stats.updates, 16, "every scenario replays its two batches");
    }

    #[test]
    fn stats_json_shape() {
        let stats = run_corpus(0..1, &[Grade::new(0)]);
        let json = stats.to_json();
        assert!(json.contains("\"scenarios\": 1"));
        assert!(json.contains("\"per_grade\""));
    }
}
