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
//! blocks through a `dx_core::StreamSession`, reporting per batch how many
//! STDs were maintained by delta plans, recomputed or skipped, how the
//! chased target was maintained (incremental / rebuilt), how each
//! registered query was serviced (delta plan / recompute / skip) and its
//! refreshed certain answers. `--explain` additionally prints the compiled
//! plan of each query with per-node executed-row counts (the dx-obs
//! EXPLAIN face) and, when the file carries `update` blocks, the derived
//! delta plan per batch — `R$delta` scans mark the recomputed frontier,
//! `R$counter` scans the refuting-side copies of a negated relation, and
//! every other node re-reads maintained state.
//!
//! An unknown flag, a flag without its value, an unreadable number and a
//! grade above 3 are usage errors: `dx` prints the usage and exits 2. A
//! `--query NAME` the file does not define is refused with exit 1 before
//! anything runs.

use dx_bench::corpus::{run_corpus, CorpusStats};
use dx_chase::chase_engine::{ChaseOutcome, DEFAULT_CHASE_LIMIT};
use dx_chase::{canonical_solution_with_deps_via, NaiveChase};
use dx_core::regimes::{ApproxRoute, GcwaRoute, RegimeBudget};
use dx_core::streaming::{affected_target_rels, QueryPath, StreamRegime, StreamSession};
use dx_core::Exchange;
use dx_engine::{IndexedChase, StdPath, TargetPath};
use dx_solver::{Completeness, SearchBudget};
use dx_text::{gen_text, Grade, Scenario};
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "usage:
  dx check <file.dx>
  dx gen --seed <S> [--grade <0..3>]
  dx corpus [--seeds <N>] [--grades <lo,hi>] [--out <path.json>]
  dx <file.dx> [--query <NAME>] [--chase|--certain|--gcwa|--approx|--all] [--updates] [--explain]";

/// How `--gcwa` and `--approx` name the route of a monotone query: its
/// certain answers, by Proposition 3 or Proposition 4's image sweep.
const MONOTONE_ROUTE: &str = "Prop 4 (monotone)";

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

/// A subcommand's flags: the value of each `--name value` flag given and
/// each switch given. Anything else on the command line is refused.
struct Flags<'a> {
    values: Vec<(&'static str, &'a str)>,
    switches: Vec<&'static str>,
}

impl<'a> Flags<'a> {
    /// Read `args` against the subcommand's `valued` flags and `switches`.
    fn parse(
        args: &'a [String],
        valued: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Flags<'a>, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(&name) = valued.iter().find(|&&n| n == arg) {
                let value = it.next().ok_or_else(|| format!("{name} wants a value"))?;
                flags.values.push((name, value));
            } else if let Some(&name) = switches.iter().find(|&&n| n == arg) {
                flags.switches.push(name);
            } else {
                return Err(format!("unknown argument {arg:?}"));
            }
        }
        Ok(flags)
    }

    /// The value of `--name value`, the first one if repeated.
    fn value(&self, name: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Was the switch given?
    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The number after `name`, or `default` when the flag is absent.
    fn number<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: cannot read {v:?} as a number")),
        }
    }
}

/// A grade level, 0 to 3.
fn grade(level: &str) -> Result<Grade, String> {
    match level.parse::<u8>() {
        Ok(l) if l <= 3 => Ok(Grade::new(l)),
        _ => Err(format!("grade {level:?} is not a level from 0 to 3")),
    }
}

/// Report a usage error: the message, then the usage, exit code 2.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("dx: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Read and parse a scenario file with `parse` ([`Scenario::parse`], or
/// [`Scenario::parse_ground`] where the exchange will run on it).
fn load(
    path: &str,
    parse: fn(&str) -> Result<Scenario, dx_text::TextError>,
) -> Result<Scenario, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("dx: cannot read {path}: {e}");
        ExitCode::from(2)
    })?;
    parse(&text).map_err(|e| {
        eprintln!("{path}: {}", e.render(&text));
        ExitCode::FAILURE
    })
}

/// `dx check`: parse + validate (a ground source included, as every run
/// mode needs), print a one-line summary.
fn cmd_check(args: &[String]) -> ExitCode {
    let [path] = args else {
        return usage_error("check wants exactly one <file.dx>");
    };
    match load(path, Scenario::parse_ground) {
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
    let read = || -> Result<(u64, Grade), String> {
        let flags = Flags::parse(args, &["--seed", "--grade"], &[])?;
        let seed = flags.number("--seed", 0)?;
        let grade = flags.value("--grade").map_or(Ok(Grade::new(0)), grade)?;
        Ok((seed, grade))
    };
    match read() {
        Ok((seed, grade)) => {
            print!("{}", gen_text(seed, grade));
            ExitCode::SUCCESS
        }
        Err(msg) => usage_error(&msg),
    }
}

/// `dx corpus`: race `seeds × grades` generated scenarios and emit the
/// aggregated statistics as JSON (stdout, plus `--out` when given).
fn cmd_corpus(args: &[String]) -> ExitCode {
    let read = || -> Result<(Flags<'_>, u64, Vec<Grade>), String> {
        let flags = Flags::parse(args, &["--seeds", "--grades", "--out"], &[])?;
        let seeds = flags.number("--seeds", 8)?;
        let grades = match flags.value("--grades") {
            Some(spec) => {
                let levels = (spec.split(',').map(grade)).collect::<Result<Vec<Grade>, _>>()?;
                match levels[..] {
                    [lo, hi] if lo <= hi => (lo.level()..=hi.level()).map(Grade::new).collect(),
                    [only] => vec![only],
                    _ => return Err("--grades wants `lo,hi` or a single level".to_owned()),
                }
            }
            None => Grade::ALL.to_vec(),
        };
        Ok((flags, seeds, grades))
    };
    let (flags, seeds, grades) = match read() {
        Ok(read) => read,
        Err(msg) => return usage_error(&msg),
    };
    let stats: CorpusStats = run_corpus(0..seeds, &grades);
    let json = stats.to_json();
    print!("{json}");
    if let Some(out) = flags.value("--out") {
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
    const MODES: [&str; 5] = ["--chase", "--certain", "--gcwa", "--approx", "--all"];
    let flags = match Flags::parse(
        args,
        &["--query"],
        &[MODES.as_slice(), &["--updates", "--explain"]].concat(),
    ) {
        Ok(flags) => flags,
        Err(msg) => return usage_error(&msg),
    };
    let sc = match load(path, Scenario::parse_ground) {
        Ok(sc) => sc,
        Err(code) => return code,
    };
    let query_filter = flags.value("--query");
    if let Some(want) = query_filter.filter(|want| sc.query(want).is_none()) {
        eprintln!("dx: no query named {want:?} in {path}");
        return ExitCode::FAILURE;
    }
    let wants = |flag: &str| flags.has("--all") || flags.has(flag);
    let default_run = !MODES.iter().any(|m| flags.has(m));
    let explain = flags.has("--explain");

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
            let route = match out.route {
                GcwaRoute::Monotone => MONOTONE_ROUTE.to_owned(),
                GcwaRoute::UnionWalk => format!(
                    "union walk: {} minimal, {} unions",
                    out.minimal_solutions, out.unions
                ),
            };
            println!(
                "gcwa*     [{}]: {} via {route}",
                comp_label(out.completeness),
                render_rel(&out.answers),
            );
        }
        if wants("--approx") {
            let out = ex.approx_certain_answers(&nq.query, Some(&budget));
            let route = match out.route {
                ApproxRoute::Monotone => MONOTONE_ROUTE.to_owned(),
                ApproxRoute::CTable => "c-table (all closed)".to_owned(),
                ApproxRoute::Sampled => format!("sampling: {} leaves", out.leaves),
            };
            println!(
                "approx    [{}]: lower {} / upper {} (tight: {}) via {route}",
                comp_label(out.completeness),
                render_rel(&out.lower),
                render_rel(&out.upper),
                out.tight
            );
        }
    }

    if flags.has("--updates") {
        run_updates(&sc, &budget);
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
        let paths = |want: StdPath| {
            let stds = &report.update.std_paths;
            stds.iter().filter(|&&p| p == want).count()
        };
        println!(
            "  stds: {} delta, {} recomputed, {} skipped",
            paths(StdPath::Seeded),
            paths(StdPath::Recomputed),
            paths(StdPath::Skipped)
        );
        match report.update.target {
            TargetPath::None => {}
            TargetPath::Incremental { overdeleted, steps } => {
                println!("  target: incremental ({overdeleted} overdeleted, {steps} chase steps)")
            }
            TargetPath::Rebuilt { steps } => println!("  target: rebuilt ({steps} chase steps)"),
        }
        for (name, path) in &report.queries {
            let how = match path {
                QueryPath::Skipped => "skipped (unaffected)".to_string(),
                QueryPath::DeltaPlan { delta_answers } => {
                    format!("delta plan ({delta_answers} answers gained or lost)")
                }
                QueryPath::Recomputed => "recomputed".to_string(),
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
            print!("{}", render_instance(&indexed.instance));
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
            let idx = dx_relation::DeltaIndex::from_instance(&target);
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
    // (`R$delta` scans are the recomputed frontier, `R$counter` scans the
    // refuting-side copies under a negation, everything else re-reads
    // maintained state) or the documented fallback.
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
            println!("  retraction present -> delete and re-derive over the removed tuples");
        }
        match dx_query::delta_plan(&plan, &changed) {
            None => println!(
                "  changed relation under two negations or a seeded anti-join's correlated side -> recompute"
            ),
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

/// Render a relation as `{(a, b), (c, d)}` on one line, rows sorted by
/// their text, so the output does not follow the interning order.
fn render_rel(rel: &dx_relation::Relation) -> String {
    let mut rows: Vec<String> = rel.iter().map(|t| t.to_string()).collect();
    rows.sort();
    format!("{{{}}}", rows.join(", "))
}

/// Render an annotated instance one `R = {…}` line per relation, as
/// [`render_rel`] renders answer sets: relations by name, and each
/// relation's tuples and empty markers by their printed text.
fn render_instance(inst: &dx_relation::AnnInstance) -> String {
    let mut lines: Vec<(String, String)> = inst
        .relations()
        .map(|(r, rel)| {
            let mut items: Vec<String> = (rel.iter().map(|t| t.to_string()))
                .chain(rel.empty_marks().map(|m| format!("(_,{m})")))
                .collect();
            items.sort();
            (r.to_string(), format!("{r} = {{{}}}", items.join(", ")))
        })
        .collect();
    if lines.is_empty() {
        return "∅".into();
    }
    lines.sort();
    let lines: Vec<String> = lines.into_iter().map(|(_, line)| line).collect();
    lines.join("\n")
}
