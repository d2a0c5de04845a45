//! Counter-invariant tests for the `dx-obs` metrics layer.
//!
//! The work-metric counters are only trustworthy if they track the
//! *algorithms*, not an instrumentation accident. Each test here pins a
//! counter to an independently observable quantity on randomized inputs:
//!
//! * **solver balance** — every delta the `Rep_A` valuation search applies
//!   is undone (`solver.dfs.deltas_applied == solver.dfs.deltas_undone`),
//!   including searches stopped early by a witness; likewise for the
//!   union-walk (`solver.union.*`), and `solver.dfs.leaves` equals the
//!   engine's own `SearchOutcome::leaves`;
//! * **chase delta** — on tgd-only dependencies, `engine.chase.tuples_inserted`
//!   equals the growth of the chased instance (and `merges` stays zero),
//!   and chasing the result again discovers and fires no trigger;
//! * **root rows** — `query.exec.rows_emitted` counts exactly the rows a
//!   compiled plan returns at its root, and those rows agree with the
//!   tree-walking evaluator; a first-witness root call counts the 0 or 1
//!   row it answers with;
//! * **disabled mode** — with the layer off, the same workloads leave the
//!   registry snapshot empty;
//! * **search counts** — `certain_answers` opens one `solver.search_rep_a`
//!   span per palette group, not one per candidate, GCWA\* on a monotone
//!   query walks no union and stops at its budget's leaf cap, and a stream
//!   batch that revalidates a carried refutation opens no search at all.
//!
//! The registry is process-global, so every test serializes on one lock and
//! scopes its measurement to a snapshot diff.

use oc_exchange::chase::chase_engine::DEFAULT_CHASE_LIMIT;
use oc_exchange::chase::{canonical_solution, canonical_solution_with_deps_via, ChaseStrategy};
use oc_exchange::engine::IndexedChase;
use oc_exchange::logic::Query;
use oc_exchange::obs::MetricsSnapshot;
use oc_exchange::query::exec::{exec, exec_nonempty};
use oc_exchange::query::lower_formula;
use oc_exchange::relation::DeltaIndex;
use oc_exchange::solver::{
    for_each_union, minimal_rep_a_members, search_rep_a_indexed, Completeness, SearchBudget,
};
use oc_exchange::{obs, Ann, AnnInstance, AnnTuple, Annotation, NullGen, RelSym, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

use dx_bench::chase_workloads::conference_case;
use dx_bench::query_workloads::{all_query_cases, gcwa_case, repa_case, seeded_case};

/// One lock for the process-global registry: tests in this binary run on
/// parallel threads, and a concurrent workload would bleed into another
/// test's snapshot diff. Every test holds it for its whole body, set-up
/// included — set-up work outside a [`measured`] section still counts
/// while another test has the layer on.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `f` with metrics enabled and return its result plus the counter diff
/// it produced. Leaves the layer disabled afterwards. Callers hold
/// [`lock`].
fn measured<T>(f: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    obs::set_enabled(true);
    let before = obs::snapshot();
    let out = f();
    let diff = obs::snapshot().diff_since(&before);
    obs::set_enabled(false);
    (out, diff)
}

/// A random mixed-annotation instance over a binary and a unary relation
/// (the same family the solver differential tests use).
fn random_ann_instance(rng: &mut StdRng) -> AnnInstance {
    let rel_e = RelSym::new("ObE");
    let rel_v = RelSym::new("ObV");
    let consts = ["a", "b", "c"];
    let mut t = AnnInstance::new();
    let val = |rng: &mut StdRng| -> Value {
        if rng.gen_bool(0.4) {
            Value::null(rng.gen_range(1..4) as u32)
        } else {
            Value::c(consts[rng.gen_range(0..consts.len())])
        }
    };
    let ann = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            Ann::Open
        } else {
            Ann::Closed
        }
    };
    for _ in 0..rng.gen_range(1..4) {
        let tuple = Tuple::new(vec![val(rng), val(rng)]);
        t.insert(
            rel_e,
            AnnTuple::new(tuple, Annotation::new(vec![ann(rng), ann(rng)])),
        );
    }
    for _ in 0..rng.gen_range(0..3) {
        let tuple = Tuple::new(vec![val(rng)]);
        t.insert(rel_v, AnnTuple::new(tuple, Annotation::new(vec![ann(rng)])));
    }
    t
}

/// `solver.dfs.*`: applied and undone deltas balance on every search —
/// exhaustive sweeps and early witness stops alike — and the leaf counter
/// matches the engine's own accounting.
#[test]
fn solver_dfs_deltas_balance_randomized() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(0x0B5_D1F5);
    for case in 0..32 {
        let t = random_ann_instance(&mut rng);
        let budget = SearchBudget::bounded(1, 2);
        // Half the cases stop at the first leaf (witness found), half sweep
        // the whole space: the balance must hold either way, because the
        // DFS unwinds its stack even on early return.
        let stop_early = case % 2 == 0;
        let (outcome, diff) =
            measured(|| search_rep_a_indexed(&t, &BTreeSet::new(), &budget, &mut |_| stop_early));
        assert_eq!(
            diff.counter("solver.dfs.deltas_applied"),
            diff.counter("solver.dfs.deltas_undone"),
            "case {case}: unbalanced deltas on t = {t}"
        );
        assert_eq!(
            diff.counter("solver.dfs.leaves"),
            outcome.leaves,
            "case {case}: leaf counter disagrees with SearchOutcome"
        );
        assert!(
            diff.counter("solver.dfs.nodes") >= outcome.leaves,
            "case {case}: every leaf is a visited node"
        );
    }
}

/// `solver.union.*`: the union-walk's reference-counted deltas balance and
/// the visit counter matches `for_each_union`'s return value.
#[test]
fn union_walk_deltas_balance() {
    let _g = lock();
    let case = gcwa_case(8);
    let csol = canonical_solution(&case.mapping, &case.source);
    let palette = oc_exchange::core::regimes::answer_palette(&case.source, &case.query);
    let (minimal, _) = minimal_rep_a_members(&csol.instance, &palette, None);
    assert!(!minimal.is_empty(), "gcwa workload has minimal members");
    let (unions, diff) = measured(|| for_each_union(&minimal, 2, &mut |_| false));
    assert!(unions > 0, "walk visits unions");
    assert_eq!(
        diff.counter("solver.union.unions_visited"),
        unions,
        "visit counter disagrees with for_each_union"
    );
    assert_eq!(
        diff.counter("solver.union.deltas_applied"),
        diff.counter("solver.union.deltas_undone"),
        "unbalanced private deltas across the union walk"
    );
}

/// `engine.chase.tuples_inserted`: on tgd-only dependencies the counter
/// equals the instance growth the chase produced, and no merges happen.
#[test]
fn chase_insert_counter_matches_instance_delta() {
    let _g = lock();
    let mut rng = StdRng::seed_from_u64(0x0B5_C4A5E);
    for _ in 0..4 {
        let n = rng.gen_range(2..12);
        let case = conference_case(n);
        // Keep only the tgds: egd merges retract tuples, which is exactly
        // the case this invariant excludes.
        let tgds_only: Vec<_> = case
            .deps
            .iter()
            .filter(|d| matches!(d, oc_exchange::chase::target_deps::TargetDep::Tgd(_)))
            .cloned()
            .collect();
        assert!(!tgds_only.is_empty(), "conference case has a tgd");
        let base = canonical_solution_with_deps_via(
            &IndexedChase,
            &case.mapping,
            &[],
            &case.source,
            DEFAULT_CHASE_LIMIT,
        );
        let (out, diff) = measured(|| {
            canonical_solution_with_deps_via(
                &IndexedChase,
                &case.mapping,
                &tgds_only,
                &case.source,
                DEFAULT_CHASE_LIMIT,
            )
        });
        assert_eq!(
            diff.counter("engine.chase.tuples_inserted"),
            (out.instance.tuple_count() - base.instance.tuple_count()) as u64,
            "n = {n}: insert counter disagrees with the chased-instance growth"
        );
        assert_eq!(
            diff.counter("engine.chase.merges"),
            0,
            "n = {n}: tgd-only chase must not merge"
        );
        assert!(
            diff.counter("engine.chase.triggers_discovered")
                >= diff.counter("engine.chase.triggers_fired"),
            "n = {n}: fired triggers were discovered first"
        );
        // The restricted check lives in the trigger query: chasing the
        // result again discovers no trigger, so none fires.
        let mut gen = NullGen::after(out.instance.nulls());
        let (again, diff) = measured(|| {
            IndexedChase.chase(
                out.instance.clone(),
                &tgds_only,
                &mut gen,
                DEFAULT_CHASE_LIMIT,
            )
        });
        assert_eq!(again.steps, 0, "n = {n}");
        for counter in [
            "engine.chase.triggers_discovered",
            "engine.chase.triggers_fired",
        ] {
            assert_eq!(diff.counter(counter), 0, "n = {n}: {counter} on a re-chase");
        }
    }
}

/// `query.exec.rows_emitted`: the counter is exactly the root row count of
/// each compiled execution, and those rows agree with the tree-walking
/// evaluator on the same instance.
#[test]
fn compiled_root_rows_match_counter_and_tree_walker() {
    let _g = lock();
    for case in all_query_cases(16) {
        let target = canonical_solution(&case.mapping, &case.source).rel_part();
        let plan = match lower_formula(&case.query.formula) {
            Ok(plan) => plan,
            Err(_) => continue, // non-safe-range workloads have no plan
        };
        let idx = DeltaIndex::from_instance(&target);
        let (rows, diff) = measured(|| exec(&plan, &idx));
        assert_eq!(
            diff.counter("query.exec.rows_emitted"),
            rows.rows.len() as u64,
            "{}: rows_emitted must count root rows only",
            case.workload
        );
        let tree: BTreeSet<Tuple> = reorder_to_head(&case.query, &rows);
        let oracle: BTreeSet<Tuple> = case.query.answers(&target).iter().cloned().collect();
        assert_eq!(tree, oracle, "{}: compiled vs tree rows", case.workload);
    }
}

/// First-witness root calls keep the counter contract: on every workload
/// plan, `exec_nonempty` answers `!exec(..).rows.is_empty()` and counts
/// the 0 or 1 row it returns in `query.exec.rows_emitted`; its correlated
/// branch probes are `query.exec.seed_reruns`, so a plan without a seeded
/// anti-join counts none.
#[test]
fn first_witness_root_row_matches_counter_and_exec() {
    let _g = lock();
    let mut cases = all_query_cases(16);
    cases.extend([repa_case(8), seeded_case(8), gcwa_case(8)]);
    for case in cases {
        let target = canonical_solution(&case.mapping, &case.source).rel_part();
        let plan = match lower_formula(&case.query.formula) {
            Ok(plan) => plan,
            Err(_) => continue,
        };
        let idx = DeltaIndex::from_instance(&target);
        let nonempty = !exec(&plan, &idx).rows.is_empty();
        let (found, diff) = measured(|| exec_nonempty(&plan, &idx, &[]));
        assert_eq!(found, nonempty, "{}: first witness vs exec", case.workload);
        assert_eq!(
            diff.counter("query.exec.rows_emitted"),
            u64::from(found),
            "{}: a first-witness root call emits its 0 or 1 row",
            case.workload
        );
        if !plan.explain().contains("seeded-antijoin") {
            assert_eq!(
                diff.counter("query.exec.seed_reruns"),
                0,
                "{}: no seeded branch to probe",
                case.workload
            );
        }
    }
}

/// Project the executed rows onto the query head order (plans emit their
/// own schema order).
fn reorder_to_head(query: &Query, rows: &oc_exchange::query::exec::Rows) -> BTreeSet<Tuple> {
    let positions: Vec<usize> = query
        .head
        .iter()
        .map(|v| {
            rows.vars
                .iter()
                .position(|s| s == v)
                .expect("head var in plan schema")
        })
        .collect();
    rows.rows
        .iter()
        .map(|t| Tuple::new(positions.iter().map(|&i| t[i]).collect::<Vec<_>>()))
        .collect()
}

/// With the layer disabled, the same workloads record nothing: the
/// snapshot stays empty end to end.
#[test]
fn disabled_mode_records_nothing() {
    let _g = lock();
    obs::set_enabled(false);
    let case = conference_case(4);
    let out = canonical_solution_with_deps_via(
        &IndexedChase,
        &case.mapping,
        &case.deps,
        &case.source,
        DEFAULT_CHASE_LIMIT,
    );
    let qcase = gcwa_case(4);
    let csol = canonical_solution(&qcase.mapping, &qcase.source);
    let palette = oc_exchange::core::regimes::answer_palette(&qcase.source, &qcase.query);
    search_rep_a_indexed(
        &csol.instance,
        &palette,
        &SearchBudget::bounded(1, 2),
        &mut |_| false,
    );
    assert!(out.instance.tuple_count() > 0, "chase produced tuples");
    assert!(
        obs::snapshot().is_empty(),
        "disabled layer must not register counters"
    );
}

/// A `decide`-shaped scenario: three papers, open author and reviewer
/// attributes for papers without a known author or reviewer.
const DECIDE_SHAPED: &str = r#"scenario "decide" {
  source { Papers/1; Wrote/2; Assign/2; }
  target { Sub/2; Rev/2; }
  mapping {
    Sub(p:cl, a:op) <- Papers(p) & !exists b. Wrote(p, b);
    Sub(p:cl, a:cl) <- Wrote(p, a);
    Rev(p:cl, r:cl) <- Assign(p, r);
    Rev(p:cl, r:op) <- Papers(p) & !exists s. Assign(p, s);
  }
  instance {
    Papers(p0); Wrote(p0, a0); Assign(p0, r0); Assign(p0, r1);
    Papers(p1); Assign(p1, r2);
    Papers(p2);
  }
  query sole_reviewer(p) <- exists r. Rev(p, r) & !exists s. (Rev(p, s) & s != r);
  query two_reviewers(p) <- exists r1 r2. Rev(p, r1) & Rev(p, r2) & r1 != r2;
}"#;

/// `certain_answers` of an arity-1 query with negation runs one `Rep_A`
/// search for all its candidates (they share one palette group), not one
/// per candidate.
#[test]
fn certain_answers_open_one_search_per_palette_group() {
    let _g = lock();
    let sc = oc_exchange::text::Scenario::parse(DECIDE_SHAPED).expect("scenario parses");
    let q = sc.query("sole_reviewer").expect("query");
    assert!(!oc_exchange::logic::classify::is_monotone(&q.formula));
    let candidates = oc_exchange::core::regimes::answer_palette(&sc.source, q).len();
    assert!(candidates > 1, "several candidates share the sweep");
    let ex = oc_exchange::core::Exchange::new(&sc.mapping, &sc.source);
    let budget = SearchBudget {
        max_leaves: Some(500),
        ..SearchBudget::bounded(1, 1)
    };
    let (_, diff) = measured(|| ex.certain_answers(q, Some(&budget)));
    let searches = diff.spans.get("solver.search_rep_a").map_or(0, |s| s.count);
    assert_eq!(searches, 1, "{candidates} candidates, one palette group");
}

/// GCWA\* on a CQ with an inequality is decided by Proposition 4: no
/// union is walked. The non-monotone query on the same scenario still
/// walks unions.
#[test]
fn gcwa_on_a_monotone_query_walks_no_unions() {
    let _g = lock();
    let sc = oc_exchange::text::Scenario::parse(DECIDE_SHAPED).expect("scenario parses");
    let ex = oc_exchange::core::Exchange::new(&sc.mapping, &sc.source);
    let budget = oc_exchange::core::RegimeBudget::unions_of(1);
    let unions = |name: &str| {
        let q = sc.query(name).expect("query");
        let (_, diff) = measured(|| ex.gcwa_star_answers(q, &budget));
        diff.counter("solver.union.unions_visited")
    };
    assert_eq!(unions("two_reviewers"), 0);
    assert!(unions("sole_reviewer") > 0, "the union walk still runs");
}

/// [`DECIDE_SHAPED`] with `p1` and `p2` replaced by ten papers with neither
/// author nor reviewer, which put twenty open nulls in `CSol_A(S)`, and with
/// §1's one-author query added.
fn many_open_nulls() -> oc_exchange::text::Scenario {
    let mut facts = String::from("Papers(p0); Wrote(p0, a0); Assign(p0, r0); Assign(p0, r1);");
    for i in 1..=10 {
        facts.push_str(&format!(" Papers(q{i});"));
    }
    let text = DECIDE_SHAPED
        .replace(
            "Papers(p0); Wrote(p0, a0); Assign(p0, r0); Assign(p0, r1);\n    Papers(p1); Assign(p1, r2);\n    Papers(p2);",
            &facts,
        )
        .replace(
            "  query two_reviewers",
            "  query one_author() <- forall p a1 a2. (Sub(p, a1) & Sub(p, a2) -> a1 = a2);\n  query two_reviewers",
        );
    assert_ne!(text, DECIDE_SHAPED, "instance replaced");
    oc_exchange::text::Scenario::parse(&text).expect("scenario parses")
}

/// GCWA\* on a monotone query stops at the budget's leaf cap. The twenty
/// open nulls of [`many_open_nulls`] give the image sweep far more leaves
/// than any run could visit; `p0` has two known reviewers, survives every
/// leaf and keeps the sweep going until the cap ends it with a `Capped`
/// superset.
#[test]
fn gcwa_on_a_monotone_query_honours_the_leaf_cap() {
    let _g = lock();
    let sc = many_open_nulls();
    let q = sc.query("two_reviewers").expect("query");
    let ex = oc_exchange::core::Exchange::new(&sc.mapping, &sc.source);
    assert_eq!(ex.csol().nulls().len(), 20);
    let budget = oc_exchange::core::RegimeBudget {
        max_leaves: Some(50),
        ..oc_exchange::core::RegimeBudget::unions_of(1)
    };
    let (out, diff) = measured(|| ex.gcwa_star_answers(q, &budget));
    assert_eq!(out.route, oc_exchange::core::GcwaRoute::Monotone);
    assert_eq!(out.completeness, Completeness::Capped);
    assert!(
        out.answers.contains(&Tuple::from_names(&["p0"])),
        "{}",
        out.answers
    );
    let leaves = diff.counter("solver.dfs.leaves");
    assert!(
        (1..=51).contains(&leaves),
        "{leaves} leaves under a 50-leaf cap"
    );
}

/// GCWA\* on a non-monotone query walks the unions of minimal members, and
/// the minimal-member sweep stops at the budget's leaf cap: §1's one-author
/// query over the twenty open nulls of [`many_open_nulls`] reports `Capped`
/// after at most cap + 1 leaves.
#[test]
fn gcwa_on_a_non_monotone_query_honours_the_leaf_cap() {
    let _g = lock();
    let sc = many_open_nulls();
    let q = sc.query("one_author").expect("query");
    assert!(!oc_exchange::logic::classify::is_monotone(&q.formula));
    let ex = oc_exchange::core::Exchange::new(&sc.mapping, &sc.source);
    assert_eq!(ex.csol().nulls().len(), 20);
    let budget = oc_exchange::core::RegimeBudget {
        max_leaves: Some(50),
        ..oc_exchange::core::RegimeBudget::unions_of(2)
    };
    let (out, diff) = measured(|| ex.gcwa_star_answers(q, &budget));
    assert_eq!(out.route, oc_exchange::core::GcwaRoute::UnionWalk);
    assert_eq!(out.completeness, Completeness::Capped);
    assert!(out.minimal_solutions > 0 && out.unions > 0, "{out:?}");
    let leaves = diff.counter("solver.dfs.leaves");
    assert!(
        (1..=51).contains(&leaves),
        "{leaves} leaves under a 50-leaf cap"
    );
}

/// `examples/conference_stream.dx` with a monotone query over `Rev` only.
/// Its canonical solution has four open `Sub` author nulls the query
/// never reads, beside two `Rev` reviewer nulls.
fn conference_stream_two_reviewers() -> oc_exchange::text::Scenario {
    let text = include_str!("../examples/conference_stream.dx").replace(
        "  query colleagues",
        "  query two_reviewers(p) <- exists r1 r2. Rev(p, r1) & Rev(p, r2) & r1 != r2;\n  query colleagues",
    );
    oc_exchange::text::Scenario::parse(&text).expect("scenario parses")
}

/// The Proposition 4 image sweep of a compiled monotone query values only
/// the nulls of the relations the query reads: deciding `two_reviewers(p0)`
/// visits exactly the leaves of an exhaustive all-closed search over the
/// `Rev` tuples alone, with the canonical solution's constants as its
/// palette (`p0` has two known reviewers, so no leaf refutes it and the
/// sweep never stops early).
#[test]
fn monotone_sweep_values_only_the_nulls_the_query_reads() {
    let _g = lock();
    let sc = conference_stream_two_reviewers();
    let q = sc.query("two_reviewers").expect("query");
    let ex = oc_exchange::core::Exchange::new(&sc.mapping, &sc.source);
    assert_eq!(ex.csol().nulls().len(), 6, "four Sub and two Rev nulls");
    let rev = RelSym::new("Rev");
    let mut rev_only = AnnInstance::new();
    for at in ex.csol().tuples(rev) {
        let closed = Annotation::new(vec![Ann::Closed; at.tuple.arity()]);
        rev_only.insert(rev, AnnTuple::new(at.tuple.clone(), closed));
    }
    assert_eq!(rev_only.nulls().len(), 2);
    let p0 = Tuple::from_names(&["p0"]);
    let mut palette = ex.csol().adom_consts();
    palette.extend(p0.consts());
    let alone = search_rep_a_indexed(
        &rev_only,
        &palette,
        &SearchBudget::closed_world(),
        &mut |_| false,
    );
    let (out, diff) = measured(|| ex.certain_contains(q, &p0, None));
    assert!(
        out.certain && out.completeness == Completeness::Exact,
        "{out:?}"
    );
    assert_eq!(diff.counter("solver.dfs.leaves"), alone.leaves);
    let (answers, completeness) = ex.certain_answers(q, None);
    assert_eq!(answers.iter().cloned().collect::<Vec<_>>(), vec![p0]);
    assert_eq!(completeness, Completeness::Exact);
}

/// `IncrementalExchange::update` opens one `engine.stream.stds` span per
/// batch that reaches an STD body, and none for a batch that changes
/// nothing.
#[test]
fn stream_times_std_maintenance_once_per_batch() {
    let _g = lock();
    let sc = oc_exchange::text::Scenario::parse(include_str!("../examples/conference_stream.dx"))
        .expect("scenario parses");
    let mut inc = oc_exchange::engine::IncrementalExchange::new(
        sc.mapping.clone(),
        sc.constraints.clone(),
        sc.source.clone(),
    );
    let spans =
        |diff: &MetricsSnapshot| diff.spans.get("engine.stream.stds").map_or(0, |s| s.count);
    let batch = oc_exchange::relation::Update::new().insert_names("Papers", &["p9", "title9"]);
    let (report, diff) = measured(|| inc.update(&batch));
    assert!(report.effective_ops > 0);
    assert_eq!(spans(&diff), 1, "one span for a batch that reaches STDs");
    let (report, diff) = measured(|| inc.update(&batch));
    assert_eq!(report.effective_ops, 0, "the same insert again is a no-op");
    assert_eq!(spans(&diff), 0, "no span for a no-op batch");
}

/// A batch on which the carried refutation of a non-positive query still
/// refutes revalidates it without a search: `one_reviewer` in
/// `examples/conference_stream.dx` is refuted by `p0`'s two reviewers,
/// which batch "late-submission" leaves in place.
#[test]
fn a_revalidating_batch_opens_no_search() {
    let _g = lock();
    let sc = oc_exchange::text::Scenario::parse(include_str!("../examples/conference_stream.dx"))
        .expect("scenario parses");
    let q = sc.query("one_reviewer").expect("query");
    let mut sess = oc_exchange::core::streaming::StreamSession::new(
        sc.mapping.clone(),
        sc.constraints.clone(),
        sc.source.clone(),
    );
    sess.register(
        "one_reviewer",
        q.clone(),
        oc_exchange::core::streaming::StreamRegime::Certain,
    );
    let (report, diff) = measured(|| sess.update(&sc.updates[0].update));
    assert_eq!(
        report.queries[0].1,
        oc_exchange::core::streaming::QueryPath::DeltaPlan { delta_answers: 0 }
    );
    let spans = |name: &str| diff.spans.get(name).map_or(0, |s| s.count);
    assert_eq!(spans("solver.search_rep_a"), 0, "no search");
    assert_eq!(spans("core.stream.revalidate"), 1);
    assert_eq!(diff.counter("core.stream.witness.revalidated"), 1);
    assert_eq!(diff.counter("core.stream.witness.researched"), 0);
    assert!(
        diff.gauge("mem.stream.carried_slots") > 0,
        "one carried image"
    );
}
