//! The query-evaluation workload cases of the `experiments` binary's
//! `BENCH_query.json` emitter (E16): exchange problems whose cost is dominated by FO
//! evaluation — STD-body evaluation during `CSol_A(S)` construction, and
//! positive-query certain answering over the canonical solution.
//!
//! Both workloads carry a negated existential, the shape where the
//! tree-walking evaluator pays a full active-domain scan per candidate row
//! (O(n²) and up) while the compiled plan runs one anti-join (O(n)).

use dx_chase::Mapping;
use dx_logic::Query;
use dx_relation::{Instance, Update};
use dx_workloads::conference;

/// One benchmarkable query-evaluation problem: a mapping + source whose
/// canonical solution the `query` is then answered over.
pub struct QueryCase {
    /// Workload family name (stable key in `BENCH_query.json`).
    pub workload: &'static str,
    /// The scale parameter the source was built from.
    pub n: usize,
    /// The annotated schema mapping.
    pub mapping: Mapping,
    /// The ground source instance.
    pub source: Instance,
    /// A safe-range target query evaluated naively over `CSol(S)`; the
    /// membership workload's query is positive (the Proposition 3 regime),
    /// the join workload adds safe negation to exercise the anti-join path
    /// of the same `Q_naive` evaluation operator.
    pub query: Query,
}

/// The membership workload: the §1 conference mapping — its third rule's
/// body `Papers(x, y) ∧ ¬∃r Assignments(x, r)` is the ROADMAP-flagged
/// canonical-solution bottleneck — plus the reviewed-papers query.
pub fn membership_case(n: usize) -> QueryCase {
    QueryCase {
        workload: "membership",
        n,
        mapping: conference::mapping(),
        source: conference::source(n, 2),
        query: conference::reviewed_query(),
    }
}

/// The query-answering workload: copy a branching path graph and ask for
/// two-hop pairs ending in a sink — a join pipeline with a negated
/// existential tail.
pub fn join_case(n: usize) -> QueryCase {
    let mut source = Instance::new();
    for i in 0..n {
        source.insert_names("QwSrc", &[&format!("v{i}"), &format!("v{}", i + 1)]);
        source.insert_names("QwSrc", &[&format!("v{i}"), &format!("w{i}")]);
    }
    QueryCase {
        workload: "join",
        n,
        mapping: Mapping::parse("QwE(x:cl, y:cl) <- QwSrc(x, y)").expect("mapping parses"),
        source,
        query: Query::parse(
            &["x", "z"],
            "exists y. QwE(x, y) & QwE(y, z) & !(exists w. QwE(z, w))",
        )
        .expect("query parses"),
    }
}

/// Both evaluation families at one size (the `BENCH_query.json` sweep
/// axis); the `Rep_A` valuation-search family is separate
/// ([`repa_case`]) — its cost profile is leaves × per-leaf check, not a
/// single evaluation.
pub fn all_query_cases(n: usize) -> Vec<QueryCase> {
    vec![membership_case(n), join_case(n)]
}

/// The `Rep_A` refutation workload (the `repa` rows of
/// `BENCH_query.json`): an all-closed exchange — a copied path graph of
/// `n` edges plus one null-producing seed rule — refuting a full-FO query
/// that is *certainly true*, so the coNP valuation search of Theorem 3(1)
/// must exhaust every valuation of the null. The query is chosen so its
/// compiled plan is pure index probes per leaf (the anti-join's filter
/// side starts from a zero-selectivity probe and short-circuits): the
/// workload thereby isolates the cost of *providing* an index per
/// candidate — rebuild-per-candidate (`QueryEval::holds_on` on the
/// materialized leaf, a `DeltaIndex` build per leaf, the pre-catalog
/// engine) vs the
/// solver's single incrementally maintained store (`holds_on_indexed` on
/// `Leaf::index`, O(1) delta work per leaf). Leaves grow linearly with
/// `n` (palette = adom + 1 fresh), so the rebuild path is Θ(n²) total
/// and the incremental path Θ(n) — a speedup growing linearly in `n`.
pub fn repa_case(n: usize) -> QueryCase {
    let mut source = Instance::new();
    for i in 0..n {
        source.insert_names("RpSrc", &[&format!("v{i}"), &format!("v{}", i + 1)]);
    }
    source.insert_names("RpSeed", &["s0"]);
    QueryCase {
        workload: "repa",
        n,
        mapping: Mapping::parse("RpE(x:cl, y:cl) <- RpSrc(x, y); RpP(u:cl, z:cl) <- RpSeed(u)")
            .expect("mapping parses"),
        source,
        // ∃∀ shape (full FO): "some seeded value w has no successor that
        // reaches rp_sink". No rp_sink edge exists, so the query is true
        // under every valuation of ⊥ and refutation exhausts the witness
        // space; the inner join grounds out on the empty ·→rp_sink probe.
        query: Query::parse(
            &[],
            "exists u w. RpP(u, w) & (forall x. !(RpE(w, x) & RpE(x, 'rp_sink')))",
        )
        .expect("query parses"),
    }
}

/// The seeded-anti-join workload (the `seeded` rows of `BENCH_query.json`):
/// the §1 one-author query in its **correlated** form —
/// `Q(p) = ∃a Sub(p, a) ∧ ∀b (Sub(p, b) → a = b)`, "papers with exactly one
/// author" — whose negated branch ranges the outer-bound `a` only in an
/// inequality. PR 5's seeded lowering compiles it to a
/// `dx_query::Plan::SeededAntiJoin`; before that the shape fell back to the
/// tree walker. The source gives every even paper one author and every odd
/// paper two, drawn from a constant-size author pool, so the compiled path
/// re-executes the branch once per distinct author (≈ constant many index
/// probes) while the tree walker sweeps the active domain per `(p, a, b)`
/// triple — a gap growing roughly cubically with `n`.
pub fn seeded_case(n: usize) -> QueryCase {
    let mut source = Instance::new();
    for i in 0..n {
        let p = format!("sp{i}");
        source.insert_names("SeSrc", &[&p, &format!("solo{}", i % 7)]);
        if i % 2 == 1 {
            source.insert_names("SeSrc", &[&p, &format!("co{}", (i + 1) % 7)]);
        }
    }
    QueryCase {
        workload: "seeded",
        n,
        mapping: Mapping::parse("SeSub(x:cl, y:cl) <- SeSrc(x, y)").expect("mapping parses"),
        source,
        query: Query::parse(
            &["p"],
            "exists a. SeSub(p, a) & (forall b. (SeSub(p, b) -> a = b))",
        )
        .expect("query parses"),
    }
}

/// The GCWA\* workload (the `gcwa` rows of `BENCH_query.json`): a copied
/// path graph plus one null-producing seed rule with an **open** second
/// position (mixed annotations). The canonical solution has one null, so
/// there are Θ(n) ⊆-minimal solutions (one per palette constant) and, at
/// union cap 2, Θ(n²) candidate unions — the workload isolates the cost of
/// *providing* each union to the query: materialize + a `DeltaIndex` build
/// per union (rebuild baseline) vs one refcounted `DeltaIndex` whose
/// per-union delta is the O(1) private remainder (`dx_solver::for_each_union`).
/// The query carries a negated atom and is GCWA\*-certainly true (no
/// `·→gw_sink` edge exists in any minimal solution), so the walk exhausts
/// the whole union space.
pub fn gcwa_case(n: usize) -> QueryCase {
    let mut source = Instance::new();
    for i in 0..n {
        source.insert_names("GwSrc", &[&format!("v{i}"), &format!("v{}", i + 1)]);
    }
    source.insert_names("GwSeed", &["s0"]);
    QueryCase {
        workload: "gcwa",
        n,
        mapping: Mapping::parse("GwE(x:cl, y:cl) <- GwSrc(x, y); GwP(u:cl, z:op) <- GwSeed(u)")
            .expect("mapping parses"),
        source,
        query: Query::parse(&[], "exists u w. GwP(u, w) & !GwE(w, 'gw_sink')")
            .expect("query parses"),
    }
}

/// The approximation workload (the `approx` rows of `BENCH_query.json`):
/// same shape with an open seed position, sampled under a small replication
/// budget — Θ(n) valuations × Θ(n) replication extras ⇒ Θ(n²) sampled
/// members, each evaluated by one plan probe against the sampler's live
/// index vs a materialization and `DeltaIndex` build per member on the
/// rebuild baseline.
/// The query (negated atom, certainly true on every member) keeps the
/// upper bound nonempty so no early exit cuts the race short.
pub fn approx_case(n: usize) -> QueryCase {
    let mut source = Instance::new();
    for i in 0..n {
        source.insert_names("ApSrc", &[&format!("v{i}"), &format!("v{}", i + 1)]);
    }
    source.insert_names("ApSeed", &["s0"]);
    QueryCase {
        workload: "approx",
        n,
        mapping: Mapping::parse("ApE(x:cl, y:cl) <- ApSrc(x, y); ApP(u:cl, z:op) <- ApSeed(u)")
            .expect("mapping parses"),
        source,
        query: Query::parse(&[], "exists u w. ApP(u, w) & !ApE(w, 'ap_sink')")
            .expect("query parses"),
    }
}

/// One streaming-exchange problem (the `stream` rows of
/// `BENCH_query.json`): an initial source, a positive two-hop target query,
/// and a trace of source [`Update`] batches. The race pits
/// `dx_core::StreamSession` (delta plans over the incrementally maintained
/// canonical solution) against recompute-from-scratch (`certain_answers`
/// over a fresh chase per batch). All but the last batch are insert-only;
/// the final one also retracts a tuple, which the delta plans maintain by
/// delete and re-derive. The incremental arm does O(|Δ|) work per batch
/// while the rebuild arm re-chases all n edges.
pub struct StreamCase {
    /// Workload family name (stable key in `BENCH_query.json`).
    pub workload: &'static str,
    /// The scale parameter (initial path length).
    pub n: usize,
    /// The annotated schema mapping (a closed copy rule).
    pub mapping: Mapping,
    /// The initial ground source instance.
    pub source: Instance,
    /// The positive two-hop query both arms maintain/recompute.
    pub query: Query,
    /// The update trace, applied in order.
    pub updates: Vec<Update>,
}

/// Build the streaming workload at path length `n`: 7 insert-only growth
/// batches (extend the path tip, branch off the prefix) followed by 1
/// churn batch that retracts an edge the two-hop answers rest on.
pub fn stream_case(n: usize) -> StreamCase {
    let mut source = Instance::new();
    for i in 0..n {
        source.insert_names("StSrc", &[&format!("v{i}"), &format!("v{}", i + 1)]);
    }
    let mut updates = Vec::new();
    for b in 0..7usize {
        let tip = n + 2 * b;
        updates.push(
            Update::new()
                .insert_names("StSrc", &[&format!("v{tip}"), &format!("v{}", tip + 1)])
                .insert_names(
                    "StSrc",
                    &[&format!("v{}", tip + 1), &format!("v{}", tip + 2)],
                )
                .insert_names("StSrc", &[&format!("v{b}"), &format!("w{b}")]),
        );
    }
    updates.push(
        Update::new()
            .retract_names("StSrc", &["v0", "v1"])
            .insert_names("StSrc", &["w0", "v2"]),
    );
    StreamCase {
        workload: "stream",
        n,
        mapping: Mapping::parse("StE(x:cl, y:cl) <- StSrc(x, y)").expect("mapping parses"),
        source,
        query: Query::parse(&["x", "z"], "exists y. StE(x, y) & StE(y, z)").expect("query parses"),
        updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_chase::canonical_solution;
    use dx_logic::classify;
    use dx_query::{CompiledQuery, PlanCatalog, QueryEval};

    #[test]
    fn cases_are_compilable() {
        assert!(
            classify::is_positive(&membership_case(4).query.formula),
            "membership: Prop 3 regime requires a positive query"
        );
        for case in all_query_cases(6) {
            assert!(
                CompiledQuery::compile(&case.query).is_ok(),
                "{}: query must lower to a plan",
                case.workload
            );
            for std in &case.mapping.stds {
                let vars = std.body_vars();
                assert!(
                    CompiledQuery::compile_formula(&std.body, &vars).is_ok(),
                    "{}: STD bodies must lower to plans",
                    case.workload
                );
            }
        }
    }

    #[test]
    fn engines_agree_on_all_cases() {
        for case in all_query_cases(8) {
            let csol = canonical_solution(&case.mapping, &case.source).rel_part();
            let tree = case.query.naive_certain_answers(&csol);
            let planned = QueryEval::new(&case.query).naive_certain_answers(&csol);
            assert_eq!(tree, planned, "{}", case.workload);
            assert!(!tree.is_empty(), "{} must produce answers", case.workload);
        }
    }

    /// The seeded workload hits what it advertises: a correlated-negation
    /// query that compiles to a plan carrying a `SeededAntiJoin`, answering
    /// exactly the single-author papers, identically to the tree walker.
    #[test]
    fn seeded_case_compiles_to_seeded_antijoin() {
        let case = seeded_case(9);
        let ev = QueryEval::new(&case.query);
        assert!(
            ev.is_compiled(),
            "correlated §1 query must compile: {:?}",
            ev.lower_error()
        );
        let plan = format!("{}", ev.compiled().unwrap().plan());
        assert!(plan.contains("seeded-antijoin"), "plan:\n{plan}");
        let csol = canonical_solution(&case.mapping, &case.source).rel_part();
        let tree = case.query.naive_certain_answers(&csol);
        let planned = ev.naive_certain_answers(&csol);
        assert_eq!(tree, planned);
        // Exactly the even (single-author) papers answer.
        assert_eq!(planned.len(), 5);
        assert!(planned.contains(&dx_relation::Tuple::from_names(&["sp0"])));
        assert!(!planned.contains(&dx_relation::Tuple::from_names(&["sp1"])));
    }

    /// The regime workloads hit what they advertise: mixed annotations,
    /// compiled queries with negation, a GCWA\*-certain verdict with a
    /// nonempty answer set, and an approximation bracket whose upper bound
    /// stays nonempty under sampling.
    #[test]
    fn regime_cases_fire_their_regimes() {
        use dx_core::regimes::{approx_certain_answers, gcwa_star_answers, RegimeBudget};
        use dx_solver::SearchBudget;
        for case in [gcwa_case(6), approx_case(6)] {
            assert!(!case.mapping.is_all_closed(), "{}: mixed", case.workload);
            assert!(case.mapping.num_op() > 0 && case.mapping.num_cl() > 0);
            assert!(!classify::is_positive(&case.query.formula));
            assert!(
                CompiledQuery::compile(&case.query).is_ok(),
                "{}: regime queries run on plans",
                case.workload
            );
        }
        let g = gcwa_case(6);
        let out = gcwa_star_answers(&g.mapping, &g.source, &g.query, &RegimeBudget::unions_of(2));
        assert!(!out.answers.is_empty(), "gcwa workload is GCWA*-certain");
        assert!(out.minimal_solutions > 2 && out.unions > out.minimal_solutions as u64);
        let a = approx_case(6);
        let sample = SearchBudget {
            max_leaves: None,
            ..SearchBudget::bounded(1, 1)
        };
        let out = approx_certain_answers(&a.mapping, &a.source, &a.query, Some(&sample));
        assert!(!out.upper.is_empty(), "upper bound survives sampling");
        assert!(
            !out.lower.is_empty() && out.tight,
            "PR 5 rigid-negation tightening: ApE is ground + fully closed in \
             the canonical solution, so !ApE(w, 'ap_sink') survives the \
             under-rewriting and the bracket closes"
        );
        assert!(out.leaves > 0, "the sampler actually ran");
    }

    /// The stream workload hits what it advertises: a positive compiled
    /// query that rides delta plans on every batch, the churn batch's
    /// retraction included, and stays answer-identical to
    /// recompute-from-scratch throughout.
    #[test]
    fn stream_case_rides_delta_plans_and_matches_recompute() {
        use dx_core::certain::certain_answers;
        use dx_core::streaming::{QueryPath, StreamRegime, StreamSession};
        let case = stream_case(8);
        assert!(classify::is_positive(&case.query.formula));
        assert!(QueryEval::new(&case.query).is_compiled());
        let (growth, churn) = case.updates.split_at(case.updates.len() - 1);
        assert!(growth.iter().all(|u| u.retracts().count() == 0));
        assert!(churn[0].retracts().count() > 0, "churn batch retracts");
        let mut sess = StreamSession::new(case.mapping.clone(), Vec::new(), case.source.clone());
        sess.register("q", case.query.clone(), StreamRegime::Certain);
        let mut rolling = case.source.clone();
        for (i, up) in case.updates.iter().enumerate() {
            let report = sess.update(up);
            let (_, path) = &report.queries[0];
            if i < growth.len() {
                assert!(
                    matches!(path, QueryPath::DeltaPlan { .. }),
                    "batch {i}: insert-only batches ride the delta plan, got {path:?}"
                );
            } else {
                assert!(
                    matches!(path, QueryPath::DeltaPlan { .. }),
                    "batch {i}: the retraction must ride the delta plan, got {path:?}"
                );
            }
            up.apply(&mut rolling);
            let (maintained, _) = sess.answers("q").expect("registered");
            let (oracle, _) = certain_answers(&case.mapping, &rolling, &case.query, None);
            assert_eq!(maintained, oracle, "batch {i}: answers diverge");
        }
    }

    /// The repa workload hits the regime it advertises: full-FO query over
    /// an all-closed mapping (Theorem 3(1), coNP valuation search), query
    /// compiled, certain answer true, and the incremental search agrees
    /// with a rebuild-per-candidate check leaf for leaf.
    #[test]
    fn repa_case_is_closed_world_exhaustive() {
        use dx_core::certain::{certain_contains, Regime};
        use dx_relation::{Tuple, Value};
        let case = repa_case(6);
        assert!(case.mapping.is_all_closed());
        assert!(!classify::is_positive(&case.query.formula));
        assert!(!classify::is_monotone(&case.query.formula));
        assert_eq!(
            classify::classify(&case.query.formula),
            classify::QueryClass::FullFirstOrder
        );
        let ev = PlanCatalog::shared().eval_in(&case.query, &case.mapping.target);
        assert!(ev.is_compiled(), "repa query must run on a plan");
        let empty = Tuple::new(Vec::<Value>::new());
        let out = certain_contains(&case.mapping, &case.source, &case.query, &empty, None);
        assert!(out.certain, "the query is certainly true");
        assert_eq!(out.regime, Regime::ClosedWorld);
        assert!(
            out.leaves as usize >= case.source.adom_consts().len(),
            "refutation exhausts one leaf per palette constant"
        );
    }
}
