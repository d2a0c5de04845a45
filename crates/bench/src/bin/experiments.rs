//! The experiment harness: regenerates, for every claim in the paper's
//! "evaluation" (Theorems 1–5, Table 1, Propositions 2–7), the table that
//! claim predicts. Output is markdown tables on stdout; the chase-engine
//! race (E15) additionally writes the machine-readable `BENCH_chase.json`
//! perf-trajectory file.
//!
//! ```sh
//! cargo run --release -p dx-bench --bin experiments           # everything
//! cargo run --release -p dx-bench --bin experiments -- chase  # E15 only
//! cargo run --release -p dx-bench --bin experiments -- query  # E16 + E17 only
//! cargo run --release -p dx-bench --bin experiments -- smoke  # CI smoke:
//! #   E15 + E16 + E17 at tiny sizes; writes target/smoke/BENCH_*.smoke.json
//! #   (uploaded as CI artifacts, the recorded trajectories stay untouched);
//! #   asserts every indexed/compiled engine oracle-identical to its
//! #   baseline AND at/above the parity floor (0.5× its baseline); also
//! #   writes metrics.smoke.json + trace.smoke.json there
//! cargo run --release -p dx-bench --bin experiments -- explain seeded
//! #   EXPLAIN one query workload: print its compiled plan tree annotated
//! #   with per-node executed-row/call (and seed partition/re-run) counts;
//! #   repa/gcwa/approx additionally get a conditional (c-table) report and
//! #   their regime sweep; with DX_TRACE=1 the run writes a Chrome
//! #   trace_event timeline to trace.explain.json
//! cargo run --release -p dx-bench --bin experiments -- trace  # dedicated
//! #   timeline capture: one representative slice of every subsystem
//! #   (indexed chase, compiled query, Rep_A search) with the trace gate
//! #   forced on; writes trace.json (chrome://tracing / ui.perfetto.dev)
//! cargo run --release -p dx-bench --bin experiments -- report # cross-run
//! #   regression analytics: committed BENCH_chase.json/BENCH_query.json as
//! #   baseline vs the freshest smoke rows as candidate, joined on
//! #   (workload, stage, engine, n); writes target/smoke/
//! #   report.smoke.{md,json} and exits nonzero on hard regressions
//! #   (a candidate above 5× its baseline)
//! ```
//!
//! Observability (`dx-obs`): with `DX_OBS=1` every BENCH row additionally
//! carries a `"counters"` object of work-metric counters captured from one
//! untimed run of that arm (the best-of timing runs stay uninstrumented
//! beyond dx-obs's always-compiled-in relaxed-atomic sites) and a
//! `"gauges"` object of memory-accounting readings (instance tuples/nulls,
//! delta-store slots/postings/refcounts, plan-catalog entries/bytes; see
//! `dx_obs::mem`). Smoke mode force-enables the metrics layer, writes the
//! final registry snapshot to `target/smoke/metrics.smoke.json` (a CI
//! artifact), and asserts the work-metric counters of every oracle-identity
//! race bit-identical across its two arms — the engines must do the *same
//! semantic work*, not just return the same answers. The trace gate stays
//! off during the timed races (the parity gates measure the engines, not
//! the tracer); the smoke timeline comes from a separate traced slice.

use dx_bench::{
    best_of, closed_null_mapping, copy2, exhaust_query, fd_query, fmt_duration, open_null_mapping,
    path_source, timed, unary_source, Table,
};
use dx_chase::Mapping;
use dx_core::compose::comp_membership;
use dx_core::compose_alg::compose_skstd;
use dx_core::skstd::SkMapping;
use dx_core::{certain, non_closure, semantics};
use dx_relation::{Instance, Tuple, Value};
use dx_solver::{Completeness, SearchBudget};
use dx_workloads::{coloring, conference, tiling, tripartite};
use std::time::Duration;

/// The full `BENCH_chase.json` sweep axis (ROADMAP: keep extending).
const CHASE_NS: &[usize] = &[8, 16, 32, 64, 96, 128, 192, 256];
/// The full `BENCH_query.json` sweep axis.
const QUERY_NS: &[usize] = &[8, 16, 32, 64, 96, 128, 192, 256];
/// Tiny sizes for the CI smoke run (writes `BENCH_*.smoke.json`).
const SMOKE_NS: &[usize] = &[8, 16];
/// Where the smoke run drops its CI artifacts (records, metrics, trace,
/// regression report) — under `target/` so the repo root stays clean.
const SMOKE_DIR: &str = "target/smoke";
/// Smoke's parity floor: an indexed/compiled engine must run at or above
/// this multiple of its baseline's speed (parity with 2× timing-noise
/// slack).
const SMOKE_PARITY_FLOOR: f64 = 0.5;
/// Smoke parity skips a race whose baseline runs below this many µs: there
/// a single scheduler hiccup on a shared CI runner dwarfs the signal.
const SMOKE_PARITY_MIN_BASELINE_US: f64 = 25.0;
/// `report` flags a candidate row slower than this multiple of its
/// baseline. The baseline was recorded on a different machine, so the
/// tolerance is deliberately generous.
const BENCH_REGRESSION_FACTOR: f64 = 5.0;
/// `report` never gates a row whose baseline runs below this many µs.
const BENCH_REGRESSION_MIN_BASELINE_US: f64 = 50.0;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "explain") {
        let workload = args
            .get(pos + 1)
            .map(String::as_str)
            .unwrap_or("membership");
        run_explain(workload);
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "report") {
        let chase_cand = args
            .get(pos + 1)
            .cloned()
            .unwrap_or_else(|| format!("{SMOKE_DIR}/BENCH_chase.smoke.json"));
        let query_cand = args
            .get(pos + 2)
            .cloned()
            .unwrap_or_else(|| format!("{SMOKE_DIR}/BENCH_query.smoke.json"));
        run_report(&chase_cand, &query_cand);
        return;
    }
    if std::env::args().any(|a| a == "trace") {
        println!("# oc-exchange timeline trace (representative slice, DX_TRACE forced on)\n");
        dx_obs::set_trace_enabled(true);
        run_traced_pipeline();
        dx_obs::set_trace_enabled(false);
        write_trace("trace.json");
        return;
    }
    if std::env::args().any(|a| a == "chase") {
        println!("# oc-exchange chase-engine race (E15 only)\n");
        e15_chase_engines(CHASE_NS, Some("BENCH_chase.json"), false);
        return;
    }
    if std::env::args().any(|a| a == "stream") {
        // E18 alone, full sizes, no JSON rewrite — the debugging face for
        // the streaming race (the recorded rows come from `query`).
        println!("# oc-exchange streaming race (E18 only, full sizes)\n");
        e18_stream(QUERY_NS, false);
        return;
    }
    if std::env::args().any(|a| a == "query") {
        println!("# oc-exchange query-engine race (E16 + E17 + E18 only)\n");
        let mut records = e16_query_engines(QUERY_NS, false);
        records.extend(e17_regimes(QUERY_NS, false));
        records.extend(e18_stream(QUERY_NS, false));
        write_query_json(&records, "BENCH_query.json");
        print_catalog_stats();
        return;
    }
    if std::env::args().any(|a| a == "smoke") {
        // The CI gate: exercise every BENCH-emitting path end to end at
        // small sizes. The recorded trajectories stay untouched — smoke
        // rows go to `BENCH_*.smoke.json`, which CI uploads as artifacts.
        // Every race asserts oracle identity as always; smoke mode
        // additionally enforces the parity floor (an indexed/compiled
        // engine dropping below `SMOKE_PARITY_FLOOR` × its baseline fails
        // the run), and E17 cross-checks the regimes against brute-force
        // oracles.
        println!("# oc-exchange bench smoke (E15 + E16 + E17 + E18, tiny sizes)\n");
        // Smoke always runs with the metrics layer on: the work-identity
        // gates and the BENCH-row counter/gauge fields depend on it, and
        // the registry snapshot becomes the `metrics.smoke.json` CI
        // artifact. Every smoke output lands under `target/smoke/`.
        dx_obs::set_enabled(true);
        std::fs::create_dir_all(SMOKE_DIR).unwrap_or_else(|e| panic!("create {SMOKE_DIR}: {e}"));
        let chase_path = format!("{SMOKE_DIR}/BENCH_chase.smoke.json");
        e15_chase_engines(SMOKE_NS, Some(&chase_path), true);
        let mut records = e16_query_engines(SMOKE_NS, true);
        records.extend(e17_regimes(SMOKE_NS, true));
        records.extend(e18_stream(SMOKE_NS, true));
        write_query_json(&records, &format!("{SMOKE_DIR}/BENCH_query.smoke.json"));
        print_catalog_stats();
        let snapshot = dx_obs::snapshot();
        assert!(!snapshot.is_empty(), "smoke must record work metrics");
        assert!(
            snapshot.gauge(dx_obs::mem::names::INSTANCE_TUPLES) > 0
                && snapshot.gauge(dx_obs::mem::names::DELTA_LIVE_SLOTS) > 0
                && snapshot.gauge(dx_obs::mem::names::CATALOG_ENTRIES) > 0,
            "smoke must record memory gauges for every accounted subsystem"
        );
        let metrics_path = format!("{SMOKE_DIR}/metrics.smoke.json");
        std::fs::write(&metrics_path, snapshot.to_json())
            .unwrap_or_else(|e| panic!("write {metrics_path}: {e}"));
        println!("Metrics snapshot written to {metrics_path}.");
        // The smoke timeline: a traced slice of every subsystem, captured
        // *after* the races so the tracer never skews the parity gates.
        dx_obs::set_trace_enabled(true);
        run_traced_pipeline();
        dx_obs::set_trace_enabled(false);
        write_trace(&format!("{SMOKE_DIR}/trace.smoke.json"));
        return;
    }
    println!("# oc-exchange experiment run\n");
    println!("(release-mode sweep; every row records paper-predicted vs measured behaviour)\n");
    e1_membership();
    e2_positive();
    e3_deqa();
    e4_composition_table1();
    e5_sk_composition();
    e6_universal();
    e7_non_closure();
    e8_spectrum();
    e9_tripartite();
    e10_coloring();
    e11_tiling();
    e12_codd();
    e13_datalog();
    e14_ctables();
    e15_chase_engines(CHASE_NS, Some("BENCH_chase.json"), false);
    let mut records = e16_query_engines(QUERY_NS, false);
    records.extend(e17_regimes(QUERY_NS, false));
    records.extend(e18_stream(QUERY_NS, false));
    write_query_json(&records, "BENCH_query.json");
    print_catalog_stats();
}

/// The smoke-mode regression gate: an indexed/compiled engine must stay at
/// or above [`SMOKE_PARITY_FLOOR`] × its baseline. Sub-noise measurements
/// do not gate: when the baseline itself runs below
/// [`SMOKE_PARITY_MIN_BASELINE_US`] the check is skipped with a note
/// instead of failing spuriously. Full sweeps never gate: the recorded
/// `BENCH_*.json` trajectories are the perf-trajectory story there.
fn assert_smoke_parity(smoke: bool, what: &str, n: usize, baseline: Duration, fast: Duration) {
    if !smoke {
        return;
    }
    if (baseline.as_secs_f64() * 1e6) < SMOKE_PARITY_MIN_BASELINE_US {
        println!("(parity gate skipped for {what} n={n}: baseline {baseline:?} below noise floor)");
        return;
    }
    let speedup = baseline.as_secs_f64() / fast.as_secs_f64().max(1e-9);
    assert!(
        speedup >= SMOKE_PARITY_FLOOR,
        "{what} n={n}: speedup {speedup:.2}× fell below the smoke parity floor \
         {SMOKE_PARITY_FLOOR:.2}× (baseline {baseline:?}, fast path {fast:?})"
    );
}

/// Surface the shared `PlanCatalog`'s usage counters — including lowering
/// rejections per reason class, so fragment gaps show up in bench/CI logs
/// instead of silently tree-walking.
fn print_catalog_stats() {
    let stats = dx_query::PlanCatalog::shared().stats();
    println!(
        "Plan catalog: {} entries, {} hits, {} misses, {} rejections.",
        stats.entries,
        stats.hits,
        stats.misses,
        stats.rejected()
    );
    for (reason, count) in &stats.rejections {
        println!("  rejection[{reason}] = {count}");
    }
    println!();
}

/// The work-metric counters attached to chase BENCH rows (`DX_OBS=1`).
const CHASE_COUNTERS: &[&str] = &[
    "engine.chase.triggers_discovered",
    "engine.chase.triggers_fired",
    "engine.chase.tuples_inserted",
    "engine.chase.index_probes",
    "engine.chase.merges",
];
/// The work-metric counters attached to query-evaluation BENCH rows.
const QUERY_COUNTERS: &[&str] = &[
    "query.exec.rows_scanned",
    "query.exec.rows_joined",
    "query.exec.rows_emitted",
    "query.exec.index_probes",
    "query.exec.seed_partitions",
    "query.exec.seed_reruns",
];
/// The work-metric counters attached to `Rep_A`-search BENCH rows.
const SOLVER_COUNTERS: &[&str] = &[
    "solver.dfs.nodes",
    "solver.dfs.leaves",
    "solver.dfs.deltas_applied",
    "solver.dfs.deltas_undone",
];
/// The work-metric counters attached to GCWA\*-regime BENCH rows.
const UNION_COUNTERS: &[&str] = &[
    "solver.union.unions_visited",
    "solver.union.deltas_applied",
    "solver.union.deltas_undone",
    "solver.dfs.leaves",
];

/// The memory gauges attached to chase BENCH rows: the chased instance's
/// footprint, published by `dx-engine` when a run completes.
const CHASE_GAUGES: &[&str] = &[
    dx_obs::mem::names::INSTANCE_TUPLES,
    dx_obs::mem::names::INSTANCE_NULLS,
];
/// The memory gauges attached to query-evaluation BENCH rows: the shared
/// plan catalog's footprint (refreshed by [`captured_counters`]).
const QUERY_GAUGES: &[&str] = &[
    dx_obs::mem::names::CATALOG_ENTRIES,
    dx_obs::mem::names::CATALOG_EST_BYTES,
];
/// The memory gauges attached to search/regime BENCH rows: the solver's
/// delta-store footprint, published when a sweep unwinds.
const SOLVER_GAUGES: &[&str] = &[
    dx_obs::mem::names::DELTA_LIVE_SLOTS,
    dx_obs::mem::names::DELTA_POSTING_ENTRIES,
    dx_obs::mem::names::DELTA_REFCOUNT_TOTAL,
];

/// Run `f` once and capture the work-metric counter delta it produced
/// (`None` when the metrics layer is disabled — then no extra run-cost
/// beyond `f` itself is paid either). Also refreshes the plan catalog's
/// footprint gauges so the captured snapshot carries current readings
/// (instance/delta gauges are published by the engines inside `f`).
fn captured_counters<T>(f: impl FnOnce() -> T) -> (T, Option<dx_obs::MetricsSnapshot>) {
    if !dx_obs::enabled() {
        return (f(), None);
    }
    let before = dx_obs::snapshot();
    let out = f();
    let _ = dx_query::PlanCatalog::shared().stats();
    (out, Some(dx_obs::snapshot().diff_since(&before)))
}

/// Render the `"counters"` field of a BENCH row: the named work-metric
/// counters with the values captured from the arm's untimed run (zero when
/// the arm never touched a metric — the naive/tree baselines are largely
/// uninstrumented by design). Empty when the metrics layer is disabled, so
/// the recorded trajectory format is unchanged by default.
fn counters_field(diff: &Option<dx_obs::MetricsSnapshot>, names: &[&str]) -> String {
    match diff {
        None => String::new(),
        Some(d) => {
            let body = names
                .iter()
                .map(|n| format!("\"{n}\": {}", d.counter(n)))
                .collect::<Vec<_>>()
                .join(", ");
            format!(", \"counters\": {{{body}}}")
        }
    }
}

/// Render the `"gauges"` field of a BENCH row: the named memory-accounting
/// gauges at their last-published reading (current footprint, not a delta —
/// see `dx_obs::mem`). Empty when the metrics layer is disabled, keeping
/// the recorded trajectory format unchanged by default.
fn gauges_field(diff: &Option<dx_obs::MetricsSnapshot>, names: &[&str]) -> String {
    match diff {
        None => String::new(),
        Some(d) => {
            let body = names
                .iter()
                .map(|n| format!("\"{n}\": {}", d.gauge(n)))
                .collect::<Vec<_>>()
                .join(", ");
            format!(", \"gauges\": {{{body}}}")
        }
    }
}

/// In smoke mode, assert the named work-metric counters bit-identical
/// across the two arms of an oracle-identity race: agreeing on answers is
/// not enough — the arms must have done the same semantic work.
fn assert_work_identity(
    smoke: bool,
    what: &str,
    n: usize,
    names: &[&str],
    baseline: &Option<dx_obs::MetricsSnapshot>,
    fast: &Option<dx_obs::MetricsSnapshot>,
) {
    if !smoke {
        return;
    }
    let (Some(b), Some(f)) = (baseline, fast) else {
        panic!("{what} n={n}: smoke work-identity gate needs the metrics layer on");
    };
    for name in names {
        assert_eq!(
            b.counter(name),
            f.counter(name),
            "{what} n={n}: work metric {name} diverged across the race arms"
        );
    }
}

/// One `BENCH_query.json` row (shared by E16, E17 and E18; `rows` records
/// the stage's cardinality — answer rows for the evaluation stages, leaf/
/// union/member counts for the search and regime races; `counters` is the
/// pre-rendered work-metric field, empty when dx-obs is disabled).
fn query_row(
    workload: &str,
    stage: &str,
    engine: &str,
    n: usize,
    us: u128,
    rows: usize,
    counters: &str,
) -> String {
    format!(
        "  {{\"workload\": \"{workload}\", \"stage\": \"{stage}\",          \"engine\": \"{engine}\", \"n\": {n}, \"wall_time_us\": {us},          \"rows\": {rows}{counters}}}"
    )
}

/// `experiments -- explain <workload>`: compile the workload's query, run
/// it over the workload's canonical solution with per-node capture on, and
/// print the plan tree annotated with executed-row/call (and seed
/// partition/re-run) counts — the EXPLAIN face of the dx-obs layer. The
/// canonical solution is built through the indexed chase engine, so a
/// `DX_TRACE=1` run records the chase-round spans in front of the plan
/// execution; the regime workloads (`repa`/`gcwa`/`approx`) additionally
/// get a conditional (c-table) report over `CSol_A(S)` and their regime
/// sweep (the solver phases). With the trace gate on the whole run is
/// exported to `trace.explain.json` (Chrome trace_event format).
fn run_explain(workload: &str) {
    use dx_bench::query_workloads::{
        all_query_cases, approx_case, gcwa_case, repa_case, seeded_case,
    };
    use dx_chase::canonical_solution_with_deps_via;
    use dx_chase::chase_engine::ChaseOutcome;
    use dx_engine::IndexedChase;

    // A `.dx` scenario file works anywhere a workload name does: every
    // query in the file gets the same ground EXPLAIN over its canonical
    // solution.
    if workload.ends_with(".dx") {
        run_explain_dx(workload);
        return;
    }
    if workload == "stream" {
        run_explain_stream();
        return;
    }

    let n = 32;
    let case = match workload {
        "seeded" => seeded_case(n),
        "repa" => repa_case(n),
        "gcwa" => gcwa_case(n),
        "approx" => approx_case(n),
        other => all_query_cases(n)
            .into_iter()
            .find(|c| c.workload == other)
            .unwrap_or_else(|| {
                panic!(
                    "unknown workload {other:?}; try membership, join, seeded, \
                     repa, gcwa, approx, or stream"
                )
            }),
    };
    let chased = canonical_solution_with_deps_via(
        &IndexedChase,
        &case.mapping,
        &[],
        &case.source,
        1_000_000,
    );
    assert_eq!(chased.outcome, ChaseOutcome::Satisfied, "{workload} chase");
    let ann = chased.instance;
    let target = ann.rel_part();
    let plan =
        dx_query::lower_formula(&case.query.formula).expect("workload query lowers to a plan");
    let idx = dx_relation::DeltaIndex::from_instance(&target);
    let (rows, report) = dx_query::explain_run(&plan, &idx);
    println!("# EXPLAIN {} (n = {n})\n", case.workload);
    println!("## Ground execution over CSol(S)\n");
    println!("{}", report.render());
    println!(
        "\n{} result rows over CSol(S) ({} tuples).",
        rows.rows.len(),
        target.tuple_count()
    );

    if matches!(workload, "repa" | "gcwa" | "approx") {
        // The regime workloads carry nulls (and, for gcwa/approx, open
        // annotations): the same plan also runs in conditional mode, where
        // per-node rows bound the per-world row counts instead of equalling
        // them (guards travel with the tuples).
        let cinst = dx_ctables::CInstance::from_naive(&target);
        let (crows, creport) = dx_query::explain_run_conditional(&plan, &cinst);
        println!("\n## Conditional (c-table) execution over CSol_A(S)\n");
        println!("{}", creport.render());
        println!(
            "\n{} conditional rows ({} nulls in CSol_A(S)).",
            crows.rows.len(),
            ann.nulls().len()
        );
        explain_regime_sweep(workload, &case, &ann);
    }

    if dx_obs::trace_enabled() {
        let events_before_export = dx_obs::trace::len();
        write_trace("trace.explain.json");
        println!("({events_before_export} timeline events captured during this EXPLAIN.)");
    }
}

/// EXPLAIN for the stream workload: the ground plan over the initial
/// `CSol(S)`, then the delta protocol's per-batch decision — the derived
/// delta plan (`Δ`-scans are the recomputed frontier; every other node
/// re-reads the incrementally maintained store) or one of the documented
/// fallbacks (non-monotone occurrence / untouched skip).
fn run_explain_stream() {
    use dx_bench::query_workloads::stream_case;
    use dx_chase::canonical_solution;
    use dx_core::streaming::affected_target_rels;

    let n = 32;
    let case = stream_case(n);
    let csol = canonical_solution(&case.mapping, &case.source);
    let target = csol.rel_part();
    let plan = dx_query::lower_formula(&case.query.formula).expect("stream query lowers");
    let idx = dx_relation::DeltaIndex::from_instance(&target);
    let (rows, report) = dx_query::explain_run(&plan, &idx);
    println!("# EXPLAIN stream (n = {n})\n");
    println!("## Ground execution over the initial CSol(S)\n");
    println!("{}", report.render());
    println!(
        "\n{} result rows over CSol(S) ({} tuples).",
        rows.rows.len(),
        target.tuple_count()
    );
    println!("\n## Delta plans per update batch\n");
    println!(
        "Node labels: a scan on an `R$delta` symbol reads the batch's fresh\n\
         tuples — the *recomputed* frontier; every other node *maintains*:\n\
         it re-reads the incrementally kept post-update store. The union of\n\
         one redirected copy per changed-scan occurrence finds every answer\n\
         a new tuple can witness.\n"
    );
    for (i, up) in case.updates.iter().enumerate() {
        let changed = affected_target_rels(&case.mapping, up);
        let names: Vec<String> = changed.iter().map(|r| r.to_string()).collect();
        let kind = if up.retracts().count() == 0 {
            "insert-only"
        } else {
            "churn"
        };
        println!("### batch {i} ({kind}; touches {{{}}})\n", names.join(", "));
        if up.retracts().count() > 0 {
            println!(
                "retraction present: delete and re-derive. The copies below run\n\
                 once over the added tuples and once over the removed ones, whose\n\
                 answers are re-derived on the post-update store.\n"
            );
        }
        match dx_query::delta_plan(&plan, &changed) {
            None => println!(
                "changed relation under a refuting anti-join branch: delta\n\
                 maintenance is unsound here — fallback = recompute.\n"
            ),
            Some(dx_query::Plan::Empty { .. }) => {
                println!("query reads none of the changed relations: maintained as-is (skip).\n");
            }
            Some(dp) => println!("{dp}\n"),
        }
    }
}

/// EXPLAIN over a `.dx` scenario file: chase it (constraints included) and
/// print the ground per-node executed-row report for every query in the
/// file. Queries outside the safe-range fragment are reported, not planned.
fn run_explain_dx(path: &str) {
    use dx_chase::canonical_solution_with_deps_via;
    use dx_chase::chase_engine::ChaseOutcome;
    use dx_engine::IndexedChase;

    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let sc = dx_text::Scenario::parse_ground(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {}", e.render(&text));
        std::process::exit(1)
    });
    let chased = canonical_solution_with_deps_via(
        &IndexedChase,
        &sc.mapping,
        &sc.constraints,
        &sc.source,
        1_000_000,
    );
    println!("# EXPLAIN {path} — scenario \"{}\"\n", sc.name);
    match chased.outcome {
        ChaseOutcome::Satisfied => {}
        ChaseOutcome::Failed { .. } => {
            println!("chase failed: an egd equates distinct constants; no solution exists.");
            return;
        }
        ChaseOutcome::StepLimit => {
            println!("chase hit its step limit; EXPLAIN has no solution to run over.");
            return;
        }
    }
    let ann = chased.instance;
    let target = ann.rel_part();
    for nq in &sc.queries {
        println!("## query {}\n", nq.name);
        match dx_query::lower_formula(&nq.query.formula) {
            Ok(plan) => {
                let idx = dx_relation::DeltaIndex::from_instance(&target);
                let (rows, report) = dx_query::explain_run(&plan, &idx);
                println!("{}", report.render());
                println!(
                    "{} result rows over CSol(S) ({} tuples).\n",
                    rows.rows.len(),
                    target.tuple_count()
                );
            }
            Err(e) => {
                println!("(not safe-range; tree-walking oracle evaluates it: {e:?})\n");
            }
        }
    }
}

/// The regime phase of an EXPLAIN: run the sweep the workload's BENCH rows
/// actually race (the solver side the per-node plan report cannot see) and
/// summarize its work — with `DX_TRACE=1` this is what puts the solver-DFS
/// and union-walk phases on the exported timeline.
fn explain_regime_sweep(
    workload: &str,
    case: &dx_bench::query_workloads::QueryCase,
    ann: &dx_relation::AnnInstance,
) {
    use dx_core::regimes::{self, RegimeBudget};
    use dx_query::PlanCatalog;
    use dx_solver::search_rep_a_indexed;
    use std::collections::BTreeSet;

    match workload {
        "repa" => {
            let ev = PlanCatalog::shared().eval_in(&case.query, &case.mapping.target);
            let consts: BTreeSet<dx_relation::ConstId> =
                case.query.formula.constants().into_iter().collect();
            let empty = Tuple::new(Vec::<Value>::new());
            let out =
                search_rep_a_indexed(ann, &consts, &SearchBudget::closed_world(), &mut |leaf| {
                    !ev.holds_on_indexed(leaf.index(), || leaf.index().to_instance(), &empty)
                });
            println!(
                "\n## Rep_A refutation sweep\n\n{} leaves explored, witness found: {} \
                 (certainly-true query — the sweep must exhaust).",
                out.leaves,
                out.witness.is_some()
            );
        }
        "gcwa" => {
            let out = regimes::gcwa_star_answers(
                &case.mapping,
                &case.source,
                &case.query,
                &RegimeBudget::unions_of(2),
            );
            println!(
                "\n## GCWA* union walk\n\n{} minimal solutions, {} unions visited, \
                 {} certain answer(s).",
                out.minimal_solutions,
                out.unions,
                out.answers.len()
            );
        }
        _ => {
            let sample = SearchBudget {
                max_leaves: None,
                ..SearchBudget::bounded(1, 1)
            };
            let out = regimes::approx_certain_answers(
                &case.mapping,
                &case.source,
                &case.query,
                Some(&sample),
            );
            println!(
                "\n## Approximation sweep\n\n{} sampled members, bracket: {} lower / \
                 {} upper answer(s), tight: {}.",
                out.leaves,
                out.lower.len(),
                out.upper.len(),
                out.tight
            );
        }
    }
}

/// One representative, deliberately small slice of every traced subsystem:
/// the indexed chase over each chase workload (chase-round instants,
/// fire/insert/merge spans), a compiled query execution (plan spans +
/// root-row instants), and a `Rep_A` refutation search (solver-DFS depth
/// milestones, delta-store spans). Used by the `trace` subcommand and the
/// smoke run's timeline artifact; callers turn the trace gate on first.
fn run_traced_pipeline() {
    use dx_bench::chase_workloads::all_cases;
    use dx_bench::query_workloads::{repa_case, seeded_case};
    use dx_chase::chase_engine::ChaseOutcome;
    use dx_chase::{canonical_solution, canonical_solution_with_deps_via};
    use dx_engine::IndexedChase;
    use dx_query::PlanCatalog;
    use dx_solver::search_rep_a_indexed;
    use std::collections::BTreeSet;

    let n = 16;
    for case in all_cases(n) {
        let out = canonical_solution_with_deps_via(
            &IndexedChase,
            &case.mapping,
            &case.deps,
            &case.source,
            1_000_000,
        );
        assert_eq!(out.outcome, ChaseOutcome::Satisfied, "{}", case.workload);
    }
    let case = seeded_case(n);
    let csol = canonical_solution(&case.mapping, &case.source).rel_part();
    let ev = PlanCatalog::shared().eval_in(&case.query, &case.mapping.target);
    let answers = ev.naive_certain_answers(&csol);
    assert!(!answers.is_empty(), "seeded trace slice must answer");
    let case = repa_case(n);
    let csol = canonical_solution(&case.mapping, &case.source);
    let ev = PlanCatalog::shared().eval_in(&case.query, &case.mapping.target);
    let consts: BTreeSet<dx_relation::ConstId> =
        case.query.formula.constants().into_iter().collect();
    let empty = Tuple::new(Vec::<Value>::new());
    let out = search_rep_a_indexed(
        &csol.instance,
        &consts,
        &SearchBudget::closed_world(),
        &mut |leaf| !ev.holds_on_indexed(leaf.index(), || leaf.index().to_instance(), &empty),
    );
    assert!(out.witness.is_none(), "repa trace slice stays certain");
}

/// Drain the trace ring and write it as Chrome `trace_event` JSON — load
/// the file at `chrome://tracing` or <https://ui.perfetto.dev>.
fn write_trace(path: &str) {
    let dropped = dx_obs::trace::dropped();
    let events = dx_obs::trace::take_events();
    let json = dx_obs::trace::chrome_trace_json(&events);
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    let drop_note = if dropped > 0 {
        format!(" ({dropped} earlier events evicted by the bounded ring)")
    } else {
        String::new()
    };
    println!(
        "Chrome trace with {} events{drop_note} written to {path}.",
        events.len()
    );
}

/// One bench record, as parsed back from a `BENCH_*.json` file. Chase
/// files carry no `stage` field; the parser synthesizes `"chase"` so both
/// trajectories join on the same `(workload, stage, engine, n)` key.
#[derive(Clone, Debug, PartialEq, Eq)]
struct BenchRecord {
    workload: String,
    stage: String,
    engine: String,
    n: u64,
    us: u64,
}

/// Parse a machine-readable BENCH file back into records. The input is the
/// harness's own hand-rolled JSON (an array of flat objects with optional
/// nested `"counters"`/`"gauges"` objects), so this is a small depth-aware
/// scanner, not a general JSON reader — the workspace is dependency-free
/// by constraint, and machine-written keys/values never contain escapes.
fn parse_bench_records(src: &str, synth_stage: &str) -> Vec<BenchRecord> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut depth = 0usize;
    let mut start = 0usize;
    let mut in_str = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_str = !in_str,
            b'{' if !in_str => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' if !in_str => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(rec) = parse_bench_object(&src[start..=i], synth_stage) {
                        out.push(rec);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// One `{...}` bench row: collect the scalar fields at the row's own
/// depth, skipping nested objects wholesale. Rows with a `"threads"` field
/// above 1 are history: an earlier harness re-ran some arms on a thread
/// pool, and nothing runs them any more, so they are skipped.
fn parse_bench_object(row: &str, synth_stage: &str) -> Option<BenchRecord> {
    let bytes = row.as_bytes();
    let mut fields: Vec<(String, String)> = Vec::new();
    let mut i = 1; // past the opening '{'
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let ks = i + 1;
        let mut j = ks;
        while j < bytes.len() && bytes[j] != b'"' {
            j += 1;
        }
        let key = row.get(ks..j)?.to_string();
        i = j + 1;
        while i < bytes.len() && bytes[i] != b':' {
            i += 1;
        }
        i += 1;
        while i < bytes.len() && bytes[i] == b' ' {
            i += 1;
        }
        if i >= bytes.len() {
            return None;
        }
        match bytes[i] {
            b'{' => {
                let mut d = 0usize;
                while i < bytes.len() {
                    match bytes[i] {
                        b'{' => d += 1,
                        b'}' => {
                            d -= 1;
                            if d == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            b'"' => {
                let vs = i + 1;
                let mut j = vs;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                fields.push((key, row.get(vs..j)?.to_string()));
                i = j + 1;
            }
            _ => {
                let vs = i;
                let mut j = vs;
                while j < bytes.len() && !matches!(bytes[j], b',' | b'}' | b' ' | b'\n') {
                    j += 1;
                }
                fields.push((key, row.get(vs..j)?.to_string()));
                i = j;
            }
        }
    }
    let get = |k: &str| {
        fields
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
    };
    if get("threads").is_some_and(|v| v != "1") {
        return None;
    }
    Some(BenchRecord {
        workload: get("workload")?,
        stage: get("stage").unwrap_or_else(|| synth_stage.to_string()),
        engine: get("engine")?,
        n: get("n")?.parse().ok()?,
        us: get("wall_time_us")?.parse().ok()?,
    })
}

/// `experiments -- report [candidate_chase] [candidate_query]`: cross-run
/// regression analytics. The committed `BENCH_chase.json`/`BENCH_query.json`
/// trajectories are the baseline; the candidate defaults to the freshest
/// smoke rows under `target/smoke/`. Rows join on `(workload, stage,
/// engine, n)`; a matched row regresses when the candidate exceeds
/// [`BENCH_REGRESSION_FACTOR`] × baseline and the baseline itself is above
/// [`BENCH_REGRESSION_MIN_BASELINE_US`] (sub-noise rows are reported but
/// never gate). Baseline rows missing from the candidate gate only *at
/// sizes the candidate actually ran*: a recorded series silently dropping
/// out of the harness is a regression of coverage, but a full run's
/// large-`n` rows against a quick smoke candidate are not. Symmetrically,
/// a candidate row with no baseline yet — the first run after a new axis
/// value lands — is reported as a new series, never a failure. Writes
/// `target/smoke/report.smoke.{md,json}` and exits nonzero on any gate hit.
fn run_report(chase_cand: &str, query_cand: &str) {
    use std::collections::{BTreeMap, BTreeSet};

    let factor = BENCH_REGRESSION_FACTOR;
    let floor_us = BENCH_REGRESSION_MIN_BASELINE_US;
    let read = |path: &str, role: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            panic!(
                "read {role} {path}: {e} (run `experiments -- smoke` first \
                 to produce the default candidate rows)"
            )
        })
    };
    let mut baseline = parse_bench_records(&read("BENCH_chase.json", "baseline"), "chase");
    baseline.extend(parse_bench_records(
        &read("BENCH_query.json", "baseline"),
        "chase",
    ));
    let mut candidate = parse_bench_records(&read(chase_cand, "candidate"), "chase");
    candidate.extend(parse_bench_records(&read(query_cand, "candidate"), "chase"));
    assert!(!baseline.is_empty(), "baseline trajectories parse to rows");
    assert!(!candidate.is_empty(), "candidate rows parse");

    type Key = (String, String, String, u64);
    let key = |r: &BenchRecord| (r.workload.clone(), r.stage.clone(), r.engine.clone(), r.n);
    let base_map: BTreeMap<Key, u64> = baseline.iter().map(|r| (key(r), r.us)).collect();
    let cand_map: BTreeMap<Key, u64> = candidate.iter().map(|r| (key(r), r.us)).collect();
    let covered_ns: BTreeSet<u64> = candidate.iter().map(|r| r.n).collect();

    struct MatchedRow {
        key: Key,
        base_us: u64,
        cand_us: u64,
        ratio: f64,
        gated: bool,
        regressed: bool,
    }
    let mut matched: Vec<MatchedRow> = Vec::new();
    for (k, &cand_us) in &cand_map {
        if let Some(&base_us) = base_map.get(k) {
            let ratio = cand_us as f64 / (base_us as f64).max(1e-9);
            let gated = base_us as f64 >= floor_us;
            matched.push(MatchedRow {
                key: k.clone(),
                base_us,
                cand_us,
                ratio,
                gated,
                regressed: gated && ratio > factor,
            });
        }
    }
    let new_rows: Vec<&Key> = cand_map
        .keys()
        .filter(|k| !base_map.contains_key(*k))
        .collect();
    let missing_rows: Vec<&Key> = base_map
        .keys()
        .filter(|k| !cand_map.contains_key(*k) && covered_ns.contains(&k.3))
        .collect();
    let regressions = matched.iter().filter(|m| m.regressed).count();
    let mut worst: BTreeMap<String, &MatchedRow> = BTreeMap::new();
    for m in matched.iter().filter(|m| m.gated) {
        worst
            .entry(m.key.1.clone())
            .and_modify(|w| {
                if m.ratio > w.ratio {
                    *w = m;
                }
            })
            .or_insert(m);
    }

    // --- Markdown report. ---
    let mut md = String::new();
    md.push_str("# Bench regression report\n\n");
    md.push_str(&format!(
        "Baseline: committed `BENCH_chase.json` + `BENCH_query.json`.\n\
         Candidate: `{chase_cand}` + `{query_cand}`.\n\
         Gate: candidate ≤ {factor:.2}× baseline; \
         rows with baseline < {floor_us:.0} µs never gate.\n\n"
    ));
    let mut t = Table::new(&[
        "workload",
        "stage",
        "engine",
        "n",
        "baseline µs",
        "candidate µs",
        "ratio",
        "status",
    ]);
    for m in &matched {
        t.row(vec![
            m.key.0.clone(),
            m.key.1.clone(),
            m.key.2.clone(),
            m.key.3.to_string(),
            m.base_us.to_string(),
            m.cand_us.to_string(),
            format!("{:.2}×", m.ratio),
            if m.regressed {
                "REGRESSION".to_string()
            } else if m.gated {
                "ok".to_string()
            } else {
                "sub-noise".to_string()
            },
        ]);
    }
    md.push_str(&t.render());
    md.push_str(&format!(
        "\n{} matched rows, {} regression(s), {} new row(s), {} missing row(s) \
         at candidate-covered sizes.\n",
        matched.len(),
        regressions,
        new_rows.len(),
        missing_rows.len()
    ));
    if !worst.is_empty() {
        md.push_str("\n## Worst ratio per stage\n\n");
        let mut wt = Table::new(&["stage", "workload", "engine", "n", "ratio"]);
        for (stage, m) in &worst {
            wt.row(vec![
                stage.clone(),
                m.key.0.clone(),
                m.key.2.clone(),
                m.key.3.to_string(),
                format!("{:.2}×", m.ratio),
            ]);
        }
        md.push_str(&wt.render());
    }
    let fmt_keys = |keys: &[&Key]| {
        keys.iter()
            .map(|k| format!("{}/{}/{} n={}", k.0, k.1, k.2, k.3))
            .collect::<Vec<_>>()
            .join(", ")
    };
    if !new_rows.is_empty() {
        md.push_str(&format!(
            "\nNew rows (no baseline yet): {}.\n",
            fmt_keys(&new_rows)
        ));
    }
    if !missing_rows.is_empty() {
        md.push_str(&format!(
            "\nMISSING rows (recorded series absent from the candidate): {}.\n",
            fmt_keys(&missing_rows)
        ));
    }

    // --- JSON report (hand-rolled, same constraint as everywhere). ---
    let row_json = |m: &MatchedRow| {
        format!(
            "  {{\"workload\": \"{}\", \"stage\": \"{}\", \"engine\": \"{}\", \
             \"n\": {}, \"baseline_us\": {}, \"candidate_us\": {}, \
             \"ratio\": {:.4}, \"status\": \"{}\"}}",
            m.key.0,
            m.key.1,
            m.key.2,
            m.key.3,
            m.base_us,
            m.cand_us,
            m.ratio,
            if m.regressed {
                "regression"
            } else if m.gated {
                "ok"
            } else {
                "sub_noise"
            }
        )
    };
    let key_json = |k: &Key| {
        format!(
            "  {{\"workload\": \"{}\", \"stage\": \"{}\", \"engine\": \"{}\", \
             \"n\": {}}}",
            k.0, k.1, k.2, k.3
        )
    };
    let worst_json = worst
        .iter()
        .map(|(stage, m)| {
            format!(
                "  \"{stage}\": {{\"workload\": \"{}\", \"engine\": \"{}\", \
                 \"n\": {}, \"ratio\": {:.4}}}",
                m.key.0, m.key.2, m.key.3, m.ratio
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n\"factor\": {factor:.2},\n\"min_baseline_us\": {floor_us:.0},\n\
         \"matched\": {},\n\"regressions\": {},\n\"rows\": [\n{}\n],\n\
         \"new\": [\n{}\n],\n\"missing\": [\n{}\n],\n\
         \"worst_per_stage\": {{\n{worst_json}\n}}\n}}\n",
        matched.len(),
        regressions,
        matched.iter().map(row_json).collect::<Vec<_>>().join(",\n"),
        new_rows
            .iter()
            .map(|k| key_json(k))
            .collect::<Vec<_>>()
            .join(",\n"),
        missing_rows
            .iter()
            .map(|k| key_json(k))
            .collect::<Vec<_>>()
            .join(",\n"),
    );

    std::fs::create_dir_all(SMOKE_DIR).unwrap_or_else(|e| panic!("create {SMOKE_DIR}: {e}"));
    let md_path = format!("{SMOKE_DIR}/report.smoke.md");
    let json_path = format!("{SMOKE_DIR}/report.smoke.json");
    std::fs::write(&md_path, &md).unwrap_or_else(|e| panic!("write {md_path}: {e}"));
    std::fs::write(&json_path, &json).unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    println!("{md}");
    println!("Report written to {md_path} and {json_path}.");
    if regressions > 0 || !missing_rows.is_empty() {
        eprintln!(
            "REGRESSION GATE: {regressions} regression(s), {} missing row(s) — \
             see {md_path}.",
            missing_rows.len()
        );
        std::process::exit(1);
    }
    println!("Regression gate: clean.");
}

/// Write the combined E16 + E17 rows to `path` (`BENCH_query.json` on full
/// sweeps, `BENCH_query.smoke.json` — the CI artifact — in smoke mode).
fn write_query_json(records: &[String], path: &str) {
    let json = format!("[\n{}\n]\n", records.join(",\n"));
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("Machine-readable record written to {path}.\n");
}

/// E1 — Theorem 2: membership is PTIME all-open, NP otherwise.
fn e1_membership() {
    println!("## E1 — Theorem 2: membership `T ∈ ⟦S⟧_Σα`\n");
    let mut t = Table::new(&["n (edges)", "all-open (PTIME path)", "all-closed (NP path)"]);
    for n in [4usize, 8, 16, 32, 64] {
        let s = path_source(n);
        let mut target = Instance::new();
        for i in 0..n {
            target.insert_names("Ep", &[&format!("v{i}"), &format!("v{}", i + 1)]);
        }
        let (_, d_open) = timed(|| semantics::is_member(&copy2("op"), &s, &target));
        let (_, d_closed) = timed(|| semantics::is_member(&copy2("cl"), &s, &target));
        t.row(vec![
            n.to_string(),
            fmt_duration(d_open),
            fmt_duration(d_closed),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Shape check: both polynomial on copy instances (easy case); \
         NP-hardness shows on the tripartite family (E9).\n"
    );
}

/// E2 — Proposition 3: positive queries by naive evaluation, any annotation.
fn e2_positive() {
    println!("## E2 — Proposition 3: positive-query certain answers\n");
    let q = conference::reviewed_query();
    let mut t = Table::new(&["n (papers)", "mixed", "all-open", "all-closed", "answers"]);
    for n in [4usize, 8, 16, 32] {
        let s = conference::source(n, 2);
        let m = conference::mapping();
        let (a1, d1) = timed(|| certain::certain_answers(&m, &s, &q, None));
        let (_, d2) = timed(|| certain::certain_answers(&m.all_open(), &s, &q, None));
        let (_, d3) = timed(|| certain::certain_answers(&m.all_closed(), &s, &q, None));
        t.row(vec![
            n.to_string(),
            fmt_duration(d1),
            fmt_duration(d2),
            fmt_duration(d3),
            a1.0.len().to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Shape check: polynomial growth, identical answers across annotations.\n");
}

/// E3 — Theorem 3: the DEQA trichotomy.
fn e3_deqa() {
    println!("## E3 — Theorem 3: DEQA trichotomy by #op(Σα)\n");
    // A certainly-true query: the decision must EXHAUST its witness space,
    // exposing the exponential growth the theorem predicts.
    let q = exhaust_query();
    let empty = Tuple::new(Vec::<Value>::new());
    let mut t = Table::new(&[
        "n (facts)",
        "#op=0 exact (coNP)",
        "leaves",
        "#op=1 budget(2,2)",
        "leaves",
        "completeness",
    ]);
    for n in [1usize, 2, 3] {
        let s = unary_source(n);
        let (o0, d0) =
            timed(|| certain::certain_contains(&closed_null_mapping(), &s, &q, &empty, None));
        let budget = SearchBudget {
            max_leaves: Some(200_000),
            ..SearchBudget::bounded(2, 2)
        };
        let (o1, d1) = timed(|| {
            certain::certain_contains(&open_null_mapping(), &s, &q, &empty, Some(&budget))
        });
        t.row(vec![
            n.to_string(),
            fmt_duration(d0),
            o0.leaves.to_string(),
            fmt_duration(d1),
            o1.leaves.to_string(),
            format!("{:?}/{:?}", o0.completeness, o1.completeness),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Shape check: #op=0 grows exponentially in nulls but is exact; \
         #op=1 explores a witness space larger by the replication budget \
         (the Lemma 2 exponent) and is only budget-complete. #op>1 is \
         undecidable (Theorem 3(3)) — no sweep exists.\n"
    );
}

/// E4 — Theorem 4 / Table 1: composition.
fn e4_composition_table1() {
    println!("## E4 — Table 1: `Comp(Σα, Δα′)`\n");
    let mut t = Table::new(&[
        "n",
        "#op=0 (NP, exact)",
        "#op=1 (NEXPTIME, bounded)",
        "monotone Δop (NP, any Σα)",
    ]);
    for n in [1usize, 2, 4] {
        let s = {
            let mut s = Instance::new();
            for i in 0..n {
                s.insert_names("E", &[&format!("v{i}"), &format!("v{}", i + 1)]);
            }
            s
        };
        // Row 1: all-closed Σ.
        let sig0 = Mapping::parse("M(x:cl, y:cl) <- E(x, y)").unwrap();
        let del = Mapping::parse("F(x:cl, y:cl) <- M(x, y)").unwrap();
        let mut w = Instance::new();
        for i in 0..n {
            w.insert_names("F", &[&format!("v{i}"), &format!("v{}", i + 1)]);
        }
        let (_, d0) = timed(|| comp_membership(&sig0, &del, &s, &w, None));
        // Row 2: #op = 1 (replicated target demands extra intermediates; the
        // intermediate-enumeration space is the NEXPTIME exponent, so keep a
        // hard leaf cap and small n).
        let sig1 = Mapping::parse("M(x:cl, z:op) <- E(x, y)").unwrap();
        let mut w1 = Instance::new();
        for i in 0..n.min(2) {
            w1.insert_names("F", &[&format!("v{i}"), &format!("a{i}")]);
            w1.insert_names("F", &[&format!("v{i}"), &format!("b{i}")]);
        }
        let budget1 = SearchBudget {
            max_leaves: Some(200_000),
            ..SearchBudget::bounded(1, 2)
        };
        let (_, d1) = timed(|| comp_membership(&sig1, &del, &s, &w1, Some(&budget1)));
        // Column: monotone Δop.
        let delop = Mapping::parse("F(x:op, y:op) <- M(x, y)").unwrap();
        let (_, d2) = timed(|| comp_membership(&sig1, &delop, &s, &w, None));
        t.row(vec![
            n.to_string(),
            fmt_duration(d0),
            fmt_duration(d1),
            fmt_duration(d2),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Shape check: the monotone-Δop column stays cheap for any Σα \
         (Lemma 3); #op=1 pays the intermediate-replication exponent; \
         #op>1 is undecidable (no row).\n"
    );
}

/// E5 — Lemma 5: syntactic composition cost and output size.
fn e5_sk_composition() {
    println!("## E5 — Lemma 5 / Theorem 5: syntactic SkSTD composition\n");
    let mut t = Table::new(&["σ-rules × Δ-atoms", "time", "Γ rules", "class preserved"]);
    for (k, a) in [(1usize, 1usize), (2, 2), (3, 3), (4, 4), (5, 4)] {
        let mut sigma_rules = String::new();
        for i in 0..k {
            sigma_rules.push_str(&format!("M(x:op, mk{i}(x):op) <- A{i}(x);"));
        }
        let sigma = SkMapping::parse(&sigma_rules).unwrap();
        let mut body = String::new();
        for j in 0..a {
            if j > 0 {
                body.push_str(" & ");
            }
            body.push_str(&format!("M(y{j}, y{})", j + 1));
        }
        let delta = SkMapping::parse(&format!("F(y0:op, y{a}:op) <- {body}")).unwrap();
        let (comp, d) = timed(|| compose_skstd(&sigma, &delta).unwrap());
        t.row(vec![
            format!("{k} × {a}"),
            fmt_duration(d),
            comp.mapping.stds.len().to_string(),
            comp.mapping.has_cq_bodies().to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Shape check: Γ has k^a rules (CQ re-normalization), rewrite time follows.\n");
}

/// E6 — Proposition 5: ∀*∃* queries stay coNP for open annotations.
fn e6_universal() {
    println!("## E6 — Proposition 5: ∀*∃* queries under open annotations\n");
    let q = fd_query();
    let empty = Tuple::new(Vec::<Value>::new());
    let mut t = Table::new(&[
        "n",
        "closed (exact)",
        "open (exact, Prop 5 budget)",
        "certain?",
    ]);
    for n in [1usize, 2, 3] {
        let s = unary_source(n);
        let (oc, dc) =
            timed(|| certain::certain_contains(&closed_null_mapping(), &s, &q, &empty, None));
        let (oo, do_) =
            timed(|| certain::certain_contains(&open_null_mapping(), &s, &q, &empty, None));
        assert_eq!(oc.completeness, Completeness::Exact);
        assert_eq!(oo.completeness, Completeness::Exact);
        t.row(vec![
            n.to_string(),
            fmt_duration(dc),
            fmt_duration(do_),
            format!("cl:{} / op:{}", oc.certain, oo.certain),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Shape check: both exact; the open case correctly flips the FD \
         query to non-certain (replication breaks uniqueness).\n"
    );
}

/// E7 — Proposition 6: non-closure witness.
fn e7_non_closure() {
    println!("## E7 — Proposition 6: plain STDs are not closed under composition\n");
    let mut t = Table::new(&["n", "rectangle ∈ Σ∘Δ", "distinct ∈ Σ∘Δ", "time"]);
    for n in [2usize, 3, 4, 5] {
        let ((rect, dist), d) = timed(|| non_closure::demonstrate(n));
        t.row(vec![
            n.to_string(),
            rect.to_string(),
            dist.to_string(),
            fmt_duration(d),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Shape check: rectangles in, distinct-values out — exactly Claim 6; \
         any FO-STD Γ admits the distinct target for large n, so no Γ \
         expresses the composition.\n"
    );
}

/// E8 — Theorem 1(3): the annotation spectrum on one target family.
fn e8_spectrum() {
    println!("## E8 — Theorem 1 / Proposition 2: the OWA–CWA spectrum\n");
    let chain = [
        ("cl,cl", "R(x:cl, z:cl) <- E(x, y)"),
        ("cl,op", "R(x:cl, z:op) <- E(x, y)"),
        ("op,op", "R(x:op, z:op) <- E(x, y)"),
    ];
    let mut s = Instance::new();
    s.insert_names("E", &["a", "b"]);
    let targets = [
        ("copy {(a,k)}", vec![vec!["a", "k"]]),
        (
            "replicated {(a,k),(a,l)}",
            vec![vec!["a", "k"], vec!["a", "l"]],
        ),
        ("rogue {(a,k),(x,y)}", vec![vec!["a", "k"], vec!["x", "y"]]),
    ];
    let mut t = Table::new(&["target", "cl,cl", "cl,op", "op,op"]);
    for (label, tuples) in targets {
        let mut target = Instance::new();
        for tup in &tuples {
            target.insert_names("R", &[tup[0], tup[1]]);
        }
        let mut cells = vec![label.to_string()];
        for (_, rules) in chain {
            let m = Mapping::parse(rules).unwrap();
            cells.push(semantics::is_member(&m, &s, &target).to_string());
        }
        t.row(cells);
    }
    println!("{}", t.render());
    println!("Shape check: membership grows monotonically left → right (α ⪯ α′).\n");
}

/// E9 — Theorem 2 reduction: tripartite matching through membership.
fn e9_tripartite() {
    println!("## E9 — Theorem 2 reduction: tripartite matching\n");
    let mut t = Table::new(&["n", "triples", "brute force", "via exchange", "agree"]);
    for n in [2usize, 3, 4] {
        let inst = tripartite::TripartiteInstance::planted(n, n, 42 + n as u64);
        let (b, db) = timed(|| inst.solve_brute_force().is_some());
        let (e, de) = timed(|| tripartite::solve_via_membership(&inst));
        t.row(vec![
            n.to_string(),
            inst.triples.len().to_string(),
            fmt_duration(db),
            fmt_duration(de),
            (b == e).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Shape check: both exponential (NP-complete); verdicts agree.\n");
}

/// E10 — Theorem 4 reduction: 3-colorability through composition.
fn e10_coloring() {
    println!("## E10 — Theorem 4 reduction: 3-colorability\n");
    let mut t = Table::new(&["graph", "brute force", "via composition", "agree"]);
    let graphs = [
        ("C3 (triangle)", coloring::Graph::cycle(3)),
        ("C4", coloring::Graph::cycle(4)),
        ("K4 (uncolorable)", coloring::Graph::complete(4)),
        ("planted(4, 4)", coloring::Graph::planted_colorable(4, 4, 3)),
    ];
    for (label, g) in graphs {
        let (b, db) = timed(|| g.color_brute_force().is_some());
        let (e, de) = timed(|| coloring::solve_via_composition(&g));
        t.row(vec![
            label.to_string(),
            fmt_duration(db),
            fmt_duration(de),
            (b == e).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("Shape check: uncolorable graphs are exactly the non-members.\n");
}

/// E11 — Theorem 3's coNEXPTIME gadget: the tiling reduction, verification
/// direction.
fn e11_tiling() {
    println!("## E11 — Theorem 3 hardness gadget: 2ⁿ×2ⁿ tiling\n");
    let mut t = Table::new(&[
        "system",
        "grid",
        "brute-force tiling",
        "witness verifies (Rep_A + β)",
    ]);
    for (label, sys) in [
        ("checkerboard", tiling::TilingSystem::checkerboard(1)),
        ("unsolvable", tiling::TilingSystem::unsolvable(1)),
    ] {
        let side = sys.side();
        let (tiled, d) = timed(|| sys.solve_brute_force());
        let verdict = match tiled {
            Some(_) => {
                let (w, dv) = timed(|| tiling::verify_witness(&sys));
                format!(
                    "yes, verified in {} ({} tuples)",
                    fmt_duration(dv),
                    w.map(|i| i.tuple_count()).unwrap_or(0)
                )
            }
            None => "no tiling (correctly unsolvable)".to_string(),
        };
        t.row(vec![
            label.to_string(),
            format!("{side}×{side}"),
            fmt_duration(d),
            verdict,
        ]);
    }
    println!("{}", t.render());
    println!(
        "Shape check: the refutation search is genuinely NEXPTIME, so the \
         harness machine-checks the *verification* direction (witness \
         membership + β-satisfaction), which is polynomial.\n"
    );
}

/// E12 — §3 complexity remark: Rep membership for Codd tables is PTIME
/// (Hopcroft–Karp) vs NP for naive tables (generic backtracking). The
/// deficient all-null family is a worst case for the backtracking search.
fn e12_codd() {
    use dx_relation::{AnnInstance, AnnTuple, Annotation, RelSym};
    use dx_solver::repa::{codd_rep_membership, rep_a_membership_via, MatchStrategy};
    println!("## E12 — Codd tables: PTIME membership vs generic search\n");
    let mut t = Table::new(&[
        "n nulls / n+1 values",
        "generic backtracking",
        "Hopcroft–Karp",
    ]);
    let rel = RelSym::new("XCodd");
    for n in [2usize, 4, 6, 64, 256] {
        let mut ground = Instance::new();
        let mut ann = AnnInstance::new();
        for i in 0..n {
            let tu = Tuple::new(vec![Value::null(i as u32 + 1)]);
            ground.insert(rel, tu.clone());
            ann.insert(rel, AnnTuple::new(tu, Annotation::all_closed(1)));
        }
        let mut r = Instance::new();
        for i in 0..=n {
            r.insert_names("XCodd", &[&format!("c{i}")]);
        }
        let generic = if n <= 6 {
            let (res, d) = timed(|| rep_a_membership_via(MatchStrategy::Scan, &ann, &r));
            assert!(res.is_none());
            fmt_duration(d)
        } else {
            "— (exponential)".to_string()
        };
        let (res, d) = timed(|| codd_rep_membership(&ground, &r));
        assert!(res.is_none());
        t.row(vec![n.to_string(), generic, fmt_duration(d)]);
    }
    println!("{}", t.render());
    println!(
        "Shape check: the backtracking wall appears by n = 6; the matching \
         route stays polynomial past n = 256.\n"
    );
}

/// E13 — §6 extension 1: certain answers for a PTIME language beyond FO
/// (stratified Datalog transitive closure), annotation-independent for
/// hom-preserved programs.
fn e13_datalog() {
    use dx_core::Exchange;
    use dx_logic::datalog::DatalogQuery;
    println!("## E13 — Stratified Datalog certain answers (PTIME language ⊋ FO)\n");
    let tc = DatalogQuery::parse(
        "XPath",
        "XPath(x, y) <- XEdge(x, y); XPath(x, z) <- XPath(x, y) & XEdge(y, z)",
    )
    .expect("program parses");
    let mut t = Table::new(&["n (chain)", "closed", "mixed (author op)", "answers agree"]);
    for n in [4usize, 8, 16, 32] {
        let mut s = Instance::new();
        for i in 0..n {
            s.insert_names("XSrc", &[&format!("v{i}"), &format!("v{}", i + 1)]);
        }
        let closed = Mapping::parse("XEdge(x:cl, y:cl) <- XSrc(x, y)").unwrap();
        let mixed = Mapping::parse("XEdge(x:cl, y:op) <- XSrc(x, y)").unwrap();
        let ((a1, _), d1) = timed(|| Exchange::new(&closed, &s).certain_answers_ptime(&tc, None));
        let ((a2, _), d2) = timed(|| Exchange::new(&mixed, &s).certain_answers_ptime(&tc, None));
        t.row(vec![
            n.to_string(),
            fmt_duration(d1),
            fmt_duration(d2),
            (a1 == a2).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Shape check: polynomial growth; identical certain answers across \
         annotations (the monotone Proposition 3, beyond FO).\n"
    );
}

/// E15 — the chase-engine race: naive (rescan nested-loop) vs indexed
/// (delta-driven, index-join) on the three chase-heavy workload families.
/// Emits the machine-readable perf-trajectory record to `json_path`
/// (`BENCH_chase.json` on full sweeps, the smoke artifact in CI) next to
/// the markdown table; in smoke mode the indexed engine is parity-gated.
fn e15_chase_engines(ns: &[usize], json_path: Option<&str>, smoke: bool) {
    use dx_bench::chase_workloads::all_cases;
    use dx_chase::chase_engine::ChaseOutcome;
    use dx_chase::{canonical_solution_with_deps_via, ChaseStrategy, NaiveChase};
    use dx_engine::IndexedChase;

    println!("## E15 — chase engines: naive vs indexed (dx-engine)\n");
    let engines: [(&str, &dyn ChaseStrategy); 2] =
        [("naive", &NaiveChase), ("indexed", &IndexedChase)];
    let mut t = Table::new(&[
        "workload",
        "n",
        "naive",
        "indexed",
        "speedup",
        "steps (idx)",
        "tuples (idx)",
    ]);
    let mut records: Vec<String> = Vec::new();
    for &n in ns {
        for case in all_cases(n) {
            let mut times = Vec::new();
            let mut steps = 0usize;
            let mut tuples = 0usize;
            // Per-arm (steps, tuples): the chase's work metrics, asserted
            // bit-identical across the race arms in smoke mode.
            let mut work: Vec<(usize, usize)> = Vec::new();
            for (name, engine) in engines {
                let (out, best) = best_of(9, || {
                    canonical_solution_with_deps_via(
                        engine,
                        &case.mapping,
                        &case.deps,
                        &case.source,
                        1_000_000,
                    )
                });
                assert_eq!(
                    out.outcome,
                    ChaseOutcome::Satisfied,
                    "{} n={n}",
                    case.workload
                );
                // One untimed run per arm captures its dx-obs counter delta
                // for the BENCH row (no-op unless DX_OBS is on).
                let (_, diff) = captured_counters(|| {
                    canonical_solution_with_deps_via(
                        engine,
                        &case.mapping,
                        &case.deps,
                        &case.source,
                        1_000_000,
                    )
                });
                steps = out.steps;
                tuples = out.instance.tuple_count();
                work.push((out.steps, tuples));
                times.push(best);
                records.push(format!(
                    "  {{\"workload\": \"{}\", \"engine\": \"{}\", \"n\": {}, \
                     \"wall_time_us\": {}, \"steps\": {}, \"tuples\": {}{}{}}}",
                    case.workload,
                    name,
                    n,
                    best.as_micros(),
                    out.steps,
                    tuples,
                    counters_field(&diff, CHASE_COUNTERS),
                    gauges_field(&diff, CHASE_GAUGES),
                ));
            }
            if smoke {
                // Work identity: the naive and indexed engines must run the
                // same chase — identical step counts and result sizes, not
                // merely both-Satisfied. (The dx-obs counter basket is
                // indexed-engine-only — the naive walker is deliberately
                // uninstrumented — so the gate compares the engine-reported
                // work metrics the BENCH rows carry.)
                assert_eq!(
                    work[0], work[1],
                    "chase/{} n={n}: steps/tuples diverged across the race arms",
                    case.workload
                );
            }
            assert_smoke_parity(
                smoke,
                &format!("chase/{}", case.workload),
                n,
                times[0],
                times[1],
            );
            let speedup = times[0].as_secs_f64() / times[1].as_secs_f64().max(1e-9);
            t.row(vec![
                case.workload.to_string(),
                n.to_string(),
                fmt_duration(times[0]),
                fmt_duration(times[1]),
                format!("{speedup:.1}×"),
                steps.to_string(),
                tuples.to_string(),
            ]);
        }
    }
    println!("{}", t.render());
    if let Some(path) = json_path {
        let json = format!("[\n{}\n]\n", records.join(",\n"));
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    println!(
        "Shape check: parity at small n (fixed overheads), growing indexed \
         advantage on the scaling workloads; machine-readable record \
         written to {}.\n",
        json_path.unwrap_or("(nowhere)")
    );
}

/// E16 — the query-engine race: tree-walking active-domain evaluation vs
/// `dx-query` compiled plans, on the two FO-evaluation-bound stages of the
/// exchange pipeline (`CSol_A(S)` construction and positive-query certain
/// answering over the canonical solution), plus the **`Rep_A` valuation
/// search race**: the solver's incrementally maintained candidate index
/// vs the rebuild-per-candidate baseline on a certainly-true full-FO
/// refutation (the `repa` rows — the per-commit `smoke` mode runs this
/// path too), and the **seeded anti-join race** (the `seeded` rows): the
/// correlated §1 one-author query, tree walker vs the compiled
/// `SeededAntiJoin` plan, answers asserted identical. Returns its
/// `BENCH_query.json` rows (the caller merges them with E17's and writes
/// the file). Smoke mode parity-gates every fast path.
fn e16_query_engines(ns: &[usize], smoke: bool) -> Vec<String> {
    use dx_bench::query_workloads::{all_query_cases, repa_case, seeded_case};
    use dx_chase::{canonical_solution, canonical_solution_via, BodyEval, NaiveBodyEval};
    use dx_query::{PlanCatalog, PlannedBodyEval};
    use dx_solver::{search_rep_a_indexed, SearchBudget};
    use std::collections::BTreeSet;

    println!("## E16 — query engines: tree-walking vs compiled (dx-query)\n");
    let mut t = Table::new(&[
        "workload",
        "n",
        "csol tree",
        "csol planned",
        "speedup",
        "answers tree",
        "answers planned",
        "speedup",
        "rows",
    ]);
    let mut records: Vec<String> = Vec::new();
    let mut record = |workload: &str,
                      stage: &str,
                      engine: &str,
                      n: usize,
                      us: u128,
                      rows: usize,
                      counters: &str| {
        records.push(query_row(workload, stage, engine, n, us, rows, counters));
    };
    for &n in ns {
        for case in all_query_cases(n) {
            // Stage 1: canonical-solution construction (body evaluation).
            let evals: [(&str, &dyn BodyEval); 2] =
                [("tree", &NaiveBodyEval), ("planned", &PlannedBodyEval)];
            let mut csol_times = Vec::new();
            for (name, body_eval) in evals {
                let (_, best) = best_of(5, || {
                    canonical_solution_via(body_eval, &case.mapping, &case.source)
                });
                let (_, diff) = captured_counters(|| {
                    canonical_solution_via(body_eval, &case.mapping, &case.source)
                });
                csol_times.push(best);
                record(
                    case.workload,
                    "csol",
                    name,
                    n,
                    best.as_micros(),
                    0,
                    &format!(
                        "{}{}",
                        counters_field(&diff, QUERY_COUNTERS),
                        gauges_field(&diff, QUERY_GAUGES)
                    ),
                );
            }
            // The engines must agree exactly (differential guarantee).
            let naive_csol = canonical_solution(&case.mapping, &case.source);
            let planned_csol =
                canonical_solution_via(&PlannedBodyEval, &case.mapping, &case.source);
            assert_eq!(
                naive_csol.instance, planned_csol.instance,
                "{} n={n}: body-eval engines disagree",
                case.workload
            );

            // Stage 2: naive certain answers over CSol(S) (Prop 3).
            let target = naive_csol.rel_part();
            let compiled = PlanCatalog::shared().eval_in(&case.query, &case.mapping.target);
            assert!(
                compiled.is_compiled(),
                "{}: workload query compiles",
                case.workload
            );
            let mut ans_times = Vec::new();
            let mut rows = 0usize;
            for name in ["tree", "planned"] {
                let (out, best) = best_of(5, || match name {
                    "tree" => case.query.naive_certain_answers(&target),
                    _ => compiled.naive_certain_answers(&target),
                });
                let (_, diff) = captured_counters(|| match name {
                    "tree" => case.query.naive_certain_answers(&target),
                    _ => compiled.naive_certain_answers(&target),
                });
                rows = out.len();
                ans_times.push((best, out));
                record(
                    case.workload,
                    "answers",
                    name,
                    n,
                    best.as_micros(),
                    rows,
                    &format!(
                        "{}{}",
                        counters_field(&diff, QUERY_COUNTERS),
                        gauges_field(&diff, QUERY_GAUGES)
                    ),
                );
            }
            assert_eq!(
                ans_times[0].1, ans_times[1].1,
                "{} n={n}: query engines disagree",
                case.workload
            );
            assert_smoke_parity(
                smoke,
                &format!("csol/{}", case.workload),
                n,
                csol_times[0],
                csol_times[1],
            );
            assert_smoke_parity(
                smoke,
                &format!("answers/{}", case.workload),
                n,
                ans_times[0].0,
                ans_times[1].0,
            );
            let csol_speedup = csol_times[0].as_secs_f64() / csol_times[1].as_secs_f64().max(1e-9);
            let ans_speedup = ans_times[0].0.as_secs_f64() / ans_times[1].0.as_secs_f64().max(1e-9);
            t.row(vec![
                case.workload.to_string(),
                n.to_string(),
                fmt_duration(csol_times[0]),
                fmt_duration(csol_times[1]),
                format!("{csol_speedup:.1}×"),
                fmt_duration(ans_times[0].0),
                fmt_duration(ans_times[1].0),
                format!("{ans_speedup:.1}×"),
                rows.to_string(),
            ]);
        }
    }
    println!("{}", t.render());

    // The seeded anti-join race: the correlated §1 one-author query —
    // `∃a Sub(p,a) ∧ ∀b (Sub(p,b) → a = b)` — which PR 5's seeded lowering
    // compiles to a `SeededAntiJoin` plan; before that, exactly the queries
    // that distinguish OWA/CWA/GCWA* semantics ran on the tree walker. The
    // walker sweeps the active domain per (p, a, b) triple; the plan
    // re-executes the negated branch once per distinct author.
    let mut st = Table::new(&[
        "workload",
        "n",
        "answers tree",
        "answers compiled",
        "speedup",
        "rows",
    ]);
    for &n in ns {
        let case = seeded_case(n);
        let csol = canonical_solution(&case.mapping, &case.source).rel_part();
        let compiled = PlanCatalog::shared().eval_in(&case.query, &case.mapping.target);
        assert!(
            compiled.is_compiled(),
            "seeded workload must compile to a plan (correlated fragment)"
        );
        let mut times = Vec::new();
        let mut rows = 0usize;
        let mut outs = Vec::new();
        for name in ["tree", "compiled"] {
            let (out, best) = best_of(5, || match name {
                "tree" => case.query.naive_certain_answers(&csol),
                _ => compiled.naive_certain_answers(&csol),
            });
            let (_, diff) = captured_counters(|| match name {
                "tree" => case.query.naive_certain_answers(&csol),
                _ => compiled.naive_certain_answers(&csol),
            });
            rows = out.len();
            outs.push(out);
            times.push(best);
            record(
                case.workload,
                "seeded",
                name,
                n,
                best.as_micros(),
                rows,
                &format!(
                    "{}{}",
                    counters_field(&diff, QUERY_COUNTERS),
                    gauges_field(&diff, QUERY_GAUGES)
                ),
            );
        }
        assert_eq!(
            outs[0], outs[1],
            "seeded n={n}: tree walker and compiled plan disagree"
        );
        assert!(rows > 0, "seeded n={n}: single-author papers must answer");
        assert_smoke_parity(smoke, "seeded", n, times[0], times[1]);
        let speedup = times[0].as_secs_f64() / times[1].as_secs_f64().max(1e-9);
        st.row(vec![
            case.workload.to_string(),
            n.to_string(),
            fmt_duration(times[0]),
            fmt_duration(times[1]),
            format!("{speedup:.1}×"),
            rows.to_string(),
        ]);
    }
    println!("{}", st.render());

    // The Rep_A valuation-search race: same search engine, same leaves —
    // only the per-leaf check differs. "rebuild" recreates the old
    // behaviour (the candidate materialized and a DeltaIndex built over it
    // per leaf, inside QueryEval::holds_on); "incremental" probes the
    // search's single delta-maintained index. Outcomes are asserted identical.
    let mut rt = Table::new(&[
        "workload",
        "n",
        "leaves",
        "rebuild/candidate",
        "incremental index",
        "speedup",
    ]);
    for &n in ns {
        let case = repa_case(n);
        let csol = canonical_solution(&case.mapping, &case.source);
        let ev = PlanCatalog::shared().eval_in(&case.query, &case.mapping.target);
        assert!(ev.is_compiled(), "repa query must run on a plan");
        let consts: BTreeSet<dx_relation::ConstId> =
            case.query.formula.constants().into_iter().collect();
        let empty = Tuple::new(Vec::<Value>::new());
        let budget = SearchBudget::closed_world();
        let mut times = Vec::new();
        let mut leaves = Vec::new();
        let mut diffs = Vec::new();
        for engine in ["rebuild", "incremental"] {
            let search = || {
                search_rep_a_indexed(&csol.instance, &consts, &budget, &mut |leaf| {
                    if engine == "rebuild" {
                        !ev.holds_on(&leaf.index().to_instance(), &empty)
                    } else {
                        !ev.holds_on_indexed(leaf.index(), || leaf.index().to_instance(), &empty)
                    }
                })
            };
            let (out, best) = best_of(5, search);
            let (_, diff) = captured_counters(search);
            assert!(
                out.witness.is_none(),
                "repa n={n}: certainly-true query must not be refuted"
            );
            times.push(best);
            leaves.push(out.leaves);
            record(
                case.workload,
                "repa",
                engine,
                n,
                best.as_micros(),
                out.leaves as usize,
                &format!(
                    "{}{}",
                    counters_field(&diff, SOLVER_COUNTERS),
                    gauges_field(&diff, SOLVER_GAUGES)
                ),
            );
            diffs.push(diff);
        }
        assert_eq!(
            leaves[0], leaves[1],
            "repa n={n}: engines must explore identical leaf counts"
        );
        // Both arms drive the identical search; only the per-leaf check
        // differs — so every solver.dfs.* counter must agree bit-for-bit.
        assert_work_identity(smoke, "repa", n, SOLVER_COUNTERS, &diffs[0], &diffs[1]);
        assert_smoke_parity(smoke, "repa", n, times[0], times[1]);
        let speedup = times[0].as_secs_f64() / times[1].as_secs_f64().max(1e-9);
        rt.row(vec![
            case.workload.to_string(),
            n.to_string(),
            leaves[0].to_string(),
            fmt_duration(times[0]),
            fmt_duration(times[1]),
            format!("{speedup:.1}×"),
        ]);
    }
    println!("{}", rt.render());

    println!(
        "Shape check: parity at small n, compiled advantage growing with n \
         on both stages (the tree walker pays an active-domain scan per \
         negated existential, the plan one anti-join); the Rep_A race pays \
         Θ(n) index rebuilds of Θ(n) tuples per search on the baseline vs \
         O(1) delta work per leaf on the incremental store; results \
         asserted identical across engines.\n"
    );
    records
}

/// E17 — the non-monotonic regime race: GCWA\* (Hernich) and approximation
/// (Calautti-style) certain answers from `dx_core::regimes`, each run as
/// **rebuild-per-candidate** (a materialization and a `DeltaIndex` build inside
/// `QueryEval::holds_on` per union/member) vs **incremental** (compiled
/// plans probing the one refcounted delta index — the shipped engines).
/// Emits the `gcwa`/`approx` rows of `BENCH_query.json`; at n ≤ 16 (the
/// smoke sizes) both regimes are additionally asserted nonempty and
/// identical to brute-force oracles (materialized unions / full member
/// enumeration, tree-walking evaluation); smoke mode parity-gates the
/// incremental engines.
fn e17_regimes(ns: &[usize], smoke: bool) -> Vec<String> {
    use dx_bench::query_workloads::{approx_case, gcwa_case};
    use dx_chase::canonical_solution;
    use dx_core::regimes::{self, RegimeBudget};
    use dx_query::PlanCatalog;
    use dx_solver::{for_each_union, minimal_rep_a_members, search_rep_a_indexed};

    println!("## E17 — non-monotonic regimes: GCWA* / approximation (dx-core)\n");
    let mut records: Vec<String> = Vec::new();
    let mut record = |workload: &str,
                      stage: &str,
                      engine: &str,
                      n: usize,
                      us: u128,
                      rows: usize,
                      counters: &str| {
        records.push(query_row(workload, stage, engine, n, us, rows, counters));
    };
    let empty = Tuple::new(Vec::<Value>::new());

    // --- GCWA*: rebuild-per-union vs the incremental union walker. ---
    let gcwa_budget = RegimeBudget::unions_of(2);
    let mut gt = Table::new(&[
        "workload",
        "n",
        "minimal",
        "unions",
        "rebuild/union",
        "incremental",
        "speedup",
    ]);
    for &n in ns {
        let case = gcwa_case(n);
        assert!(case.query.is_boolean(), "gcwa workload is a sentence");
        let run = |engine: &str| match engine {
            "rebuild" => {
                // The pre-regime baseline: same minimal solutions,
                // same union traversal, but every union evaluated
                // through `holds_on` — one index build per union.
                let csol = canonical_solution(&case.mapping, &case.source);
                let ev = PlanCatalog::shared().eval_in(&case.query, &case.mapping.target);
                let palette = regimes::answer_palette(&case.source, &case.query);
                let (minimal, _) = minimal_rep_a_members(&csol.instance, &palette, None);
                let mut certain = true;
                let unions = for_each_union(&minimal, 2, &mut |delta| {
                    if ev.holds_on(&delta.to_instance(), &empty) {
                        false
                    } else {
                        certain = false;
                        true
                    }
                });
                (certain, minimal.len(), unions)
            }
            _ => {
                let out = regimes::gcwa_star_answers(
                    &case.mapping,
                    &case.source,
                    &case.query,
                    &gcwa_budget,
                );
                (!out.answers.is_empty(), out.minimal_solutions, out.unions)
            }
        };
        let mut times = Vec::new();
        let mut verdicts = Vec::new();
        let mut stats = (0usize, 0u64);
        let mut diffs = Vec::new();
        for engine in ["rebuild", "incremental"] {
            let ((certain, minimal, unions), best) = best_of(5, || run(engine));
            let (_, diff) = captured_counters(|| run(engine));
            verdicts.push(certain);
            stats = (minimal, unions);
            times.push(best);
            record(
                case.workload,
                "gcwa",
                engine,
                n,
                best.as_micros(),
                unions as usize,
                &format!(
                    "{}{}",
                    counters_field(&diff, UNION_COUNTERS),
                    gauges_field(&diff, SOLVER_GAUGES)
                ),
            );
            diffs.push(diff);
        }
        assert_eq!(verdicts[0], verdicts[1], "gcwa n={n}: engines disagree");
        // Both arms enumerate the same minimal solutions and walk the same
        // unions on the shared delta store; the union-walk work metrics
        // must agree bit-for-bit.
        assert_work_identity(smoke, "gcwa", n, UNION_COUNTERS, &diffs[0], &diffs[1]);
        assert!(
            verdicts[1],
            "gcwa n={n}: the workload query is GCWA*-certain"
        );
        if n <= 16 {
            // Brute-force oracle: materialized unions, tree-walking eval.
            let csol = canonical_solution(&case.mapping, &case.source);
            let palette = regimes::answer_palette(&case.source, &case.query);
            let (minimal, _) = minimal_rep_a_members(&csol.instance, &palette, None);
            let mut oracle = true;
            for i in 0..minimal.len() {
                if !case.query.holds_boolean(&minimal[i]) {
                    oracle = false;
                }
                for j in i + 1..minimal.len() {
                    if !case.query.holds_boolean(&minimal[i].union(&minimal[j])) {
                        oracle = false;
                    }
                }
            }
            assert_eq!(
                verdicts[1], oracle,
                "gcwa n={n}: regime answer must be oracle-identical"
            );
        }
        assert_smoke_parity(smoke, "gcwa", n, times[0], times[1]);
        let speedup = times[0].as_secs_f64() / times[1].as_secs_f64().max(1e-9);
        gt.row(vec![
            case.workload.to_string(),
            n.to_string(),
            stats.0.to_string(),
            stats.1.to_string(),
            fmt_duration(times[0]),
            fmt_duration(times[1]),
            format!("{speedup:.1}×"),
        ]);
    }
    println!("{}", gt.render());

    // --- Approximation: rebuild-per-member vs the incremental sampler. ---
    let sample = SearchBudget {
        max_leaves: None,
        ..SearchBudget::bounded(1, 1)
    };
    let mut at = Table::new(&[
        "workload",
        "n",
        "members",
        "rebuild/member",
        "incremental",
        "speedup",
    ]);
    for &n in ns {
        let case = approx_case(n);
        assert!(case.query.is_boolean(), "approx workload is a sentence");
        let run = |engine: &str| match engine {
            "rebuild" => {
                // Same rewritings (incl. the rigid-negation
                // tightening) and sampling sweep, but every member
                // check rebuilds an index (`holds_on`).
                let csol = canonical_solution(&case.mapping, &case.source);
                let rigid =
                    dx_logic::classify::rigid_relations_of(&case.query.formula, &csol.instance);
                let (_, over) = regimes::under_over_queries_rigid(&case.query, &rigid);
                let (upper0, _) =
                    dx_core::certain_answers_with(&case.mapping, &csol, &case.source, &over, None);
                let ev = PlanCatalog::shared().eval_in(&case.query, &case.mapping.target);
                let palette = regimes::answer_palette(&case.source, &case.query);
                let mut survivors: Vec<Tuple> = upper0.iter().cloned().collect();
                let outcome =
                    search_rep_a_indexed(&csol.instance, &palette, &sample, &mut |leaf| {
                        let member = leaf.index().to_instance();
                        survivors.retain(|t| ev.holds_on(&member, t));
                        survivors.is_empty()
                    });
                (survivors.len(), outcome.leaves)
            }
            _ => {
                let out = regimes::approx_certain_answers(
                    &case.mapping,
                    &case.source,
                    &case.query,
                    Some(&sample),
                );
                (out.upper.len(), out.leaves)
            }
        };
        let mut times = Vec::new();
        let mut uppers = Vec::new();
        let mut leaves = Vec::new();
        for engine in ["rebuild", "incremental"] {
            let ((upper, lv), best) = best_of(5, || run(engine));
            // No cross-arm counter-identity assert here: the rebuild arm's
            // hand-rolled pipeline need not match the regime's internal
            // lower-bound search counter-for-counter. The `uppers`/`leaves`
            // equality asserts below are this race's work-identity gate.
            let (_, diff) = captured_counters(|| run(engine));
            uppers.push(upper);
            leaves.push(lv);
            times.push(best);
            record(
                case.workload,
                "approx",
                engine,
                n,
                best.as_micros(),
                lv as usize,
                &format!(
                    "{}{}",
                    counters_field(&diff, SOLVER_COUNTERS),
                    gauges_field(&diff, SOLVER_GAUGES)
                ),
            );
        }
        assert_eq!(uppers[0], uppers[1], "approx n={n}: engines disagree");
        assert_eq!(leaves[0], leaves[1], "approx n={n}: same sampled members");
        assert_eq!(uppers[1], 1, "approx n={n}: upper bound stays nonempty");
        if n <= 16 {
            // Oracle: exact certain answer over the full sampled space.
            let csol = canonical_solution(&case.mapping, &case.source);
            let palette = regimes::answer_palette(&case.source, &case.query);
            let mut exact = true;
            search_rep_a_indexed(&csol.instance, &palette, &sample, &mut |leaf| {
                if !case.query.holds_boolean(&leaf.index().to_instance()) {
                    exact = false;
                }
                false
            });
            let out = regimes::approx_certain_answers(
                &case.mapping,
                &case.source,
                &case.query,
                Some(&sample),
            );
            assert_eq!(
                !out.upper.is_empty(),
                exact,
                "approx n={n}: upper must be oracle-identical on the sampled space"
            );
            assert!(
                out.lower.is_empty() || exact,
                "approx n={n}: lower must stay sound"
            );
        }
        assert_smoke_parity(smoke, "approx", n, times[0], times[1]);
        let speedup = times[0].as_secs_f64() / times[1].as_secs_f64().max(1e-9);
        at.row(vec![
            case.workload.to_string(),
            n.to_string(),
            leaves[0].to_string(),
            fmt_duration(times[0]),
            fmt_duration(times[1]),
            format!("{speedup:.1}×"),
        ]);
    }
    println!("{}", at.render());
    println!(
        "Shape check: the union walk pays one private-delta insert per \
         union (O(1) for this family) against a Θ(n) index rebuild per \
         union on the baseline — likewise per sampled member in the \
         approximation sweep; verdicts asserted identical across engines \
         and against brute-force oracles at the smoke sizes.\n"
    );
    records
}

/// E18 — streaming exchange: the delta protocol raced end to end. The
/// incremental arm holds one `StreamSession` across the workload's whole
/// update trace (incrementally maintained canonical solution + delta-plan
/// answer maintenance, delete and re-derive on the retraction batch); the
/// rebuild arm re-chases the rolling source and re-answers from scratch
/// after every batch. Per-batch answer identity is asserted on every run
/// (not just smoke); smoke mode parity-gates the incremental arm, and the
/// full sweep enforces the ≥2× incremental speedup at n ≥ 64 — the
/// headline claim of `DESIGN.md §Streaming data exchange`. Emits the
/// `stream` rows of `BENCH_query.json`.
fn e18_stream(ns: &[usize], smoke: bool) -> Vec<String> {
    use dx_bench::query_workloads::stream_case;
    use dx_core::certain::certain_answers;
    use dx_core::streaming::{QueryPath, StreamRegime, StreamSession};

    println!("## E18 — streaming exchange: incremental maintenance vs recompute (dx-core)\n");
    let mut records: Vec<String> = Vec::new();
    let mut t = Table::new(&[
        "workload",
        "n",
        "batches",
        "delta paths",
        "rebuild/batch",
        "incremental",
        "speedup",
    ]);
    for &n in ns {
        let case = stream_case(n);
        let batches = case.updates.len();
        // The rebuild baseline: the pre-streaming batch entry point, run
        // once per batch over the rolling source.
        let run_rebuild = || {
            let mut rolling = case.source.clone();
            let mut per_batch = Vec::with_capacity(batches);
            for up in &case.updates {
                up.apply(&mut rolling);
                let (rel, _) = certain_answers(&case.mapping, &rolling, &case.query, None);
                per_batch.push(rel);
            }
            per_batch
        };
        let run_incremental = || {
            let mut sess =
                StreamSession::new(case.mapping.clone(), Vec::new(), case.source.clone());
            sess.register("q", case.query.clone(), StreamRegime::Certain);
            let mut per_batch = Vec::with_capacity(batches);
            let mut delta_paths = 0usize;
            for up in &case.updates {
                let report = sess.update(up);
                delta_paths += report
                    .queries
                    .iter()
                    .filter(|(_, p)| matches!(p, QueryPath::DeltaPlan { .. }))
                    .count();
                per_batch.push(sess.answers("q").expect("registered").0);
            }
            (per_batch, delta_paths)
        };
        // Best of five per arm, the arms alternating within each rep so a
        // drift in host speed lands on both alike.
        let mut reps: Vec<_> = (0..5)
            .map(|_| (timed(run_rebuild), timed(run_incremental)))
            .collect();
        let best_rebuild = reps.iter().map(|(r, _)| r.1).min().expect("ran");
        let best_incr = reps.iter().map(|(_, i)| i.1).min().expect("ran");
        let ((rebuild_answers, _), ((incr_answers, delta_paths), _)) = reps.pop().expect("ran");
        // The differential gate: after EVERY batch the maintained answer
        // set must equal recompute-from-scratch.
        for (i, (a, b)) in rebuild_answers.iter().zip(&incr_answers).enumerate() {
            assert_eq!(
                a, b,
                "stream n={n} batch {i}: maintained answers diverge from recompute"
            );
        }
        // Every batch must ride the delta plan, the retraction included.
        assert!(
            delta_paths == batches,
            "stream n={n}: only {delta_paths}/{batches} batches rode the delta plan"
        );
        let final_rows = incr_answers.last().map_or(0, |r| r.len());
        records.push(query_row(
            case.workload,
            "stream",
            "rebuild",
            n,
            best_rebuild.as_micros(),
            final_rows,
            "",
        ));
        records.push(query_row(
            case.workload,
            "stream",
            "incremental",
            n,
            best_incr.as_micros(),
            final_rows,
            "",
        ));
        assert_smoke_parity(smoke, "stream", n, best_rebuild, best_incr);
        let speedup = best_rebuild.as_secs_f64() / best_incr.as_secs_f64().max(1e-9);
        if !smoke && n >= 64 {
            assert!(
                speedup >= 2.0,
                "stream n={n}: incremental maintenance must beat per-batch \
                 recompute by ≥2× (measured {speedup:.2}×)"
            );
        }
        t.row(vec![
            case.workload.to_string(),
            n.to_string(),
            batches.to_string(),
            format!("{delta_paths}/{batches}"),
            fmt_duration(best_rebuild),
            fmt_duration(best_incr),
            format!("{speedup:.1}×"),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Shape check: the rebuild arm re-chases all n edges and re-answers \
         the two-hop query per batch (Θ(n) per batch, Θ(n·B) total); the \
         session arm chases only each batch's delta and carries the \
         answers across it by the delta plans (O(|Δ|) per batch, the \
         final retraction included, by delete and re-derive). Answer \
         sets asserted identical batch for batch.\n"
    );
    records
}

/// E14 — the §2-cited Imieliński–Lipski mechanism: exact CWA certain
/// answers for a difference query via c-tables, against the coNP valuation
/// search (two independent exact engines).
fn e14_ctables() {
    use dx_core::Exchange;
    use dx_ctables::RaExpr;
    use dx_logic::Query;
    println!("## E14 — Conditional tables vs coNP search (CWA, full RA)\n");
    let m = Mapping::parse("XP(x:cl) <- XA(x, y); XQ(z:cl) <- XB(y, z)").unwrap();
    let fo = Query::parse(&["x"], "XP(x) & !XQ(x)").unwrap();
    let ra = RaExpr::rel("XP").diff(RaExpr::rel("XQ"));
    let mut t = Table::new(&[
        "n rows/side",
        "coNP search",
        "c-table route",
        "answers agree",
    ]);
    for n in [1usize, 2, 3] {
        let mut s = Instance::new();
        for i in 0..n {
            s.insert_names("XA", &[&format!("a{i}"), &format!("t{i}")]);
            s.insert_names("XB", &[&format!("u{i}"), &format!("b{i}")]);
        }
        let ((a1, _), d1) = timed(|| certain::certain_answers(&m, &s, &fo, None));
        let (a2, d2) = timed(|| Exchange::new(&m, &s).certain_answers_cwa_ra(&ra));
        t.row(vec![
            n.to_string(),
            fmt_duration(d1),
            fmt_duration(d2),
            (a1 == a2).to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Shape check: both engines are exponential in the null count (the \
         problem is coNP-complete) and agree exactly; the c-table route \
         spends its time in condition-validity checks instead of instance \
         search.\n"
    );
}
