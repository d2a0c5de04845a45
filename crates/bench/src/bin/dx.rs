//! `dx` — the scenario-language command line.
//!
//! ```text
//! dx check <file.dx>                    parse + validate, report diagnostics
//! dx gen --seed S --grade G             print a generated scenario
//! dx corpus [--seeds N] [--grades 0,3] [--out PATH]
//!                                       run the differential corpus race
//! dx <file.dx> [--query NAME] [--chase|--certain|--gcwa|--approx|--all]
//!              [--updates] [--explain]  run pipelines over a scenario
//! ```
//!
//! A `.dx` run loads the scenario, chases it (both engines, constraints
//! included), and answers its queries under the selected regimes through
//! the shared `PlanCatalog`. `--updates` then streams the file's `update`
//! blocks through a `dx_core::StreamSession`, reporting per batch how each
//! registered query was serviced (delta plan / recompute / skip) and its
//! refreshed certain answers. `--explain` additionally prints the compiled
//! plan of each query with per-node executed-row counts (the dx-obs
//! EXPLAIN face) and, when the file carries `update` blocks, the derived
//! delta plan per batch — `R$delta` scans mark the recomputed frontier,
//! every other node re-reads maintained state.

use dx_bench::corpus::{run_corpus, CorpusStats};
use dx_chase::chase_engine::{ChaseOutcome, DEFAULT_CHASE_LIMIT};
use dx_chase::{canonical_solution_with_deps_via, NaiveChase};
use dx_core::regimes::RegimeBudget;
use dx_core::streaming::{affected_target_rels, QueryPath, StreamRegime, StreamSession};
use dx_core::Exchange;
use dx_engine::IndexedChase;
use dx_solver::{Completeness, SearchBudget};
use dx_text::{gen_text, Grade, Scenario};
use std::process::ExitCode;

const USAGE: &str = "usage:
  dx check <file.dx>
  dx gen --seed <S> [--grade <0..3>]
  dx corpus [--seeds <N>] [--grades <lo,hi>] [--out <path.json>]
  dx <file.dx> [--query <NAME>] [--chase|--certain|--gcwa|--approx|--all] [--updates] [--explain]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some(path) if path.ends_with(".dx") => cmd_run(path, &args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Flag-value lookup: `--name value`.
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn load(path: &str) -> Result<Scenario, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("dx: cannot read {path}: {e}");
        ExitCode::from(2)
    })?;
    Scenario::parse(&text).map_err(|e| {
        eprintln!("{path}: {}", e.render(&text));
        ExitCode::FAILURE
    })
}

/// `dx check`: parse + validate, print a one-line summary.
fn cmd_check(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match load(path) {
        Ok(sc) => {
            println!(
                "{path}: ok — scenario \"{}\": {} rules, {} constraints, {} facts, {} queries",
                sc.name,
                sc.mapping.stds.len(),
                sc.constraints.len(),
                sc.source.tuple_count(),
                sc.queries.len()
            );
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

/// `dx gen`: print the canonical text of a generated scenario.
fn cmd_gen(args: &[String]) -> ExitCode {
    let seed: u64 = flag_value(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let grade: u8 = flag_value(args, "--grade")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    print!("{}", gen_text(seed, Grade::new(grade)));
    ExitCode::SUCCESS
}

/// `dx corpus`: race `seeds × grades` generated scenarios and emit the
/// aggregated statistics as JSON (stdout, plus `--out` when given).
fn cmd_corpus(args: &[String]) -> ExitCode {
    let seeds: u64 = flag_value(args, "--seeds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let grades: Vec<Grade> = match flag_value(args, "--grades") {
        Some(spec) => {
            let parts: Vec<u8> = spec.split(',').filter_map(|p| p.parse().ok()).collect();
            match parts[..] {
                [lo, hi] if lo <= hi => (lo..=hi).map(Grade::new).collect(),
                [only] => vec![Grade::new(only)],
                _ => {
                    eprintln!("dx: --grades wants `lo,hi` or a single level");
                    return ExitCode::from(2);
                }
            }
        }
        None => Grade::ALL.to_vec(),
    };
    let stats: CorpusStats = run_corpus(0..seeds, &grades);
    let json = stats.to_json();
    print!("{json}");
    if let Some(out) = flag_value(args, "--out") {
        if let Some(dir) = std::path::Path::new(out).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(out, &json) {
            eprintln!("dx: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("corpus stats written to {out}");
    }
    ExitCode::SUCCESS
}

/// `dx <file.dx>`: chase + query pipelines (+ `--explain`).
fn cmd_run(path: &str, args: &[String]) -> ExitCode {
    let sc = match load(path) {
        Ok(sc) => sc,
        Err(code) => return code,
    };
    let all = args.iter().any(|a| a == "--all");
    let wants = |flag: &str| all || args.iter().any(|a| a == flag);
    let default_run = !args.iter().any(|a| {
        matches!(
            a.as_str(),
            "--chase" | "--certain" | "--gcwa" | "--approx" | "--all"
        )
    });
    let explain = args.iter().any(|a| a == "--explain");
    let query_filter = flag_value(args, "--query");

    println!("# {path} — scenario \"{}\"", sc.name);

    if wants("--chase") || default_run {
        run_chase(&sc);
    }

    // Interactive budgets: tighter leaf caps than the library defaults so a
    // pathological scenario degrades to a `capped` report, not a long sweep.
    let budget = SearchBudget {
        max_leaves: Some(100_000),
        ..SearchBudget::default()
    };
    let regime_budget = RegimeBudget {
        max_union_size: 2,
        max_minimal_solutions: 12,
        max_leaves: Some(5_000),
    };
    let ex = Exchange::new(&sc.mapping, &sc.source);
    for nq in &sc.queries {
        if query_filter.is_some_and(|want| want != nq.name) {
            continue;
        }
        println!("\n## query {}", nq.name);
        if explain {
            print_explain(&sc, ex.csol(), &nq.query);
        }
        if wants("--certain") || default_run {
            let (rel, comp) = ex.certain_answers(&nq.query, Some(&budget));
            println!("certain   [{}]: {}", comp_label(comp), render_rel(&rel));
        }
        if wants("--gcwa") {
            let out = ex.gcwa_star_answers(&nq.query, &regime_budget);
            println!(
                "gcwa*     [{}]: {} ({} minimal solutions, {} unions)",
                comp_label(out.completeness),
                render_rel(&out.answers),
                out.minimal_solutions,
                out.unions
            );
        }
        if wants("--approx") {
            let out = ex.approx_certain_answers(&nq.query, Some(&budget));
            println!(
                "approx    [{}]: lower {} / upper {} (tight: {})",
                comp_label(out.completeness),
                render_rel(&out.lower),
                render_rel(&out.upper),
                out.tight
            );
        }
    }

    if args.iter().any(|a| a == "--updates") {
        run_updates(&sc, &budget);
    }

    if query_filter.is_some_and(|want| sc.query(want).is_none()) {
        eprintln!("dx: no query named {:?} in {path}", query_filter.unwrap());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `--updates`: stream the scenario's `update` blocks through one
/// [`StreamSession`], reporting per batch how the canonical solution moved
/// and how each registered query was serviced — the CLI face of the delta
/// protocol (`DESIGN.md §Streaming data exchange`).
fn run_updates(sc: &Scenario, budget: &SearchBudget) {
    println!("\n## updates (streaming session)");
    if sc.updates.is_empty() {
        println!("(no `update` blocks in this scenario)");
        return;
    }
    if !sc.constraints.is_empty() {
        println!("(note: target constraints re-chase via the merged-taint fallback when touched)");
    }
    let mut sess = StreamSession::new(
        sc.mapping.clone(),
        sc.constraints.clone(),
        sc.source.clone(),
    );
    sess.set_search_budget(Some(budget.clone()));
    for nq in &sc.queries {
        sess.register(&nq.name, nq.query.clone(), StreamRegime::Certain);
    }
    for nu in &sc.updates {
        let report = sess.update(&nu.update);
        println!(
            "\nbatch \"{}\": csol +{} / -{} annotated tuples",
            nu.name,
            report.update.added.len(),
            report.update.removed.len()
        );
        for (name, path) in &report.queries {
            let how = match path {
                QueryPath::Skipped => "skipped (unaffected)".to_string(),
                QueryPath::DeltaPlan { delta_answers } => {
                    format!("delta plan (+{delta_answers} candidate rows)")
                }
                QueryPath::Recomputed => "recomputed (fallback)".to_string(),
            };
            match sess.answers(name) {
                Some((rel, comp)) => println!(
                    "  {name}: {how} -> [{}] {}",
                    comp_label(comp),
                    render_rel(&rel)
                ),
                None => println!("  {name}: {how}"),
            }
        }
    }
}

/// The chase phase of a `.dx` run: both engines, constraints included,
/// differentially checked exactly as the corpus harness does.
fn run_chase(sc: &Scenario) {
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
        "chase engines disagree on {}",
        sc.name
    );
    println!("\n## chase (naive & indexed agree)");
    match indexed.outcome {
        ChaseOutcome::Satisfied => {
            println!(
                "satisfied — CSol_A(S) has {} tuples, {} nulls:",
                indexed.instance.tuple_count(),
                indexed.instance.nulls().len()
            );
            print!("{}", indexed.instance);
        }
        ChaseOutcome::Failed { .. } => {
            println!("failed — an egd equates distinct constants; no solution exists");
        }
        ChaseOutcome::StepLimit => println!("step limit reached (non-terminating chase?)"),
    }
}

/// The `--explain` face: compile the query through the same lowering the
/// `PlanCatalog` uses and print the per-node executed-row report over the
/// constraint-free canonical solution.
fn print_explain(sc: &Scenario, csol: &dx_relation::AnnInstance, query: &dx_logic::Query) {
    let target = csol.rel_part();
    match dx_query::lower_formula(&query.formula) {
        Ok(plan) => {
            let idx = dx_relation::InstanceIndex::build(&target);
            let (rows, report) = dx_query::explain_run(&plan, &idx);
            println!("{}", report.render());
            println!(
                "{} result rows over CSol(S) ({} tuples).",
                rows.rows.len(),
                target.tuple_count()
            );
        }
        Err(e) => println!("(not safe-range; tree-walking oracle evaluates it: {e:?})"),
    }
    // The delta face: when the scenario carries update blocks, show how
    // each batch would be serviced for this query — the derived delta plan
    // (`R$delta` scans are the recomputed frontier, everything else
    // re-reads maintained state) or the documented fallback.
    if sc.updates.is_empty() {
        return;
    }
    let Ok(plan) = dx_query::lower_formula(&query.formula) else {
        return;
    };
    for nu in &sc.updates {
        let changed = affected_target_rels(&sc.mapping, &nu.update);
        let names: Vec<String> = changed.iter().map(|r| r.to_string()).collect();
        println!(
            "delta plan for update \"{}\" (touches {{{}}}):",
            nu.name,
            names.join(", ")
        );
        if nu.update.retracts().count() > 0 {
            println!("  retraction present -> recompute (maintained sets cannot shrink by union)");
            continue;
        }
        match dx_query::delta_plan(&plan, &changed) {
            None => println!("  non-monotone occurrence -> recompute"),
            Some(dx_query::Plan::Empty { .. }) => {
                println!("  query reads none of the changed relations -> maintained as-is (skip)")
            }
            Some(dp) => {
                for line in format!("{dp}").lines() {
                    println!("  {line}");
                }
            }
        }
    }
}

fn comp_label(c: Completeness) -> &'static str {
    match c {
        Completeness::Exact => "exact",
        Completeness::Bounded => "bounded",
        Completeness::Capped => "capped",
    }
}

/// Render a relation as `{(a, b), (c, d)}` on one line.
fn render_rel(rel: &dx_relation::Relation) -> String {
    let mut rows: Vec<String> = rel.iter().map(|t| t.to_string()).collect();
    rows.sort();
    format!("{{{}}}", rows.join(", "))
}
