//! The three workloads: what one set-up and one op run against the
//! library's public entry points, and how each op's output is checked.
//!
//! Inputs are generated (and, for `stream`, update batches parsed) in
//! [`Workload::prepare`]; outputs are checked in [`Workload::check`].
//! Only [`Workload::setup`] and [`Workload::op`] are timed.

use crate::gen::{self, StreamTrace};
use crate::host::Round;
use crate::stats::Tally;
use crate::trace::Recorder;
use dx_chase::chase_engine::{satisfies_deps, ChaseOutcome, ChaseResult, DEFAULT_CHASE_LIMIT};
use dx_chase::{canonical_solution, canonical_solution_via, ChaseStrategy, Mapping};
use dx_core::certain::{certain_answers, certain_answers_with};
use dx_core::regimes::{
    approx_certain_answers, gcwa_star_answers, ApproxOutcome, GcwaOutcome, RegimeBudget,
};
use dx_core::streaming::{QueryPath, StreamRegime, StreamSession};
use dx_engine::{IndexedChase, StdPath, TargetPath};
use dx_logic::{classify, Formula, Query};
use dx_query::PlanCatalog;
use dx_relation::{ConstId, Instance, NullGen, Relation, Tuple, Update, Var};
use dx_solver::{Completeness, SearchBudget};
use dx_text::{NamedQuery, Scenario};
use std::collections::BTreeSet;

/// Papers per `exchange` scenario.
pub const EXCHANGE_PAPERS: usize = 200;
/// Papers per `decide` scenario.
pub const DECIDE_PAPERS: usize = 3;
/// Papers in the `stream` session's base scenario.
pub const STREAM_PAPERS: usize = 1000;

/// One workload of the benchmark.
pub trait Workload {
    /// One op's generated input.
    type Input;
    /// One op's output, checked after the timer stops.
    type Output;
    /// Set-up samples per run (the median is reported): the first before
    /// the ops, the rest after them.
    const SETUP_REPS: usize;
    /// Fresh set-ups per sample; a sample is their mean, so set-ups of a
    /// fraction of a millisecond are not read off one cold run.
    const SETUP_BATCH: usize;
    /// The host kernel's rounds for this workload (see [`crate::host`]).
    const KERNEL: &'static [Round];

    /// Untimed: the scenario text a set-up starts from.
    fn setup_text(&mut self) -> String;
    /// Untimed: drop what a set-up must not find ready (the shared plan
    /// catalog's plans, a previous session).
    fn reset(&mut self) {
        PlanCatalog::shared().clear();
    }
    /// Timed: from scenario text to a ready state.
    fn setup(&mut self, text: &str, rec: &mut Recorder) -> Result<(), String>;
    /// Untimed: generate op `i`'s input. Called once per op, in order.
    fn prepare(&mut self, i: u64) -> Result<Self::Input, String>;
    /// Timed: run op `i` against the library.
    fn op(&mut self, input: &Self::Input, rec: &mut Recorder) -> Result<Self::Output, String>;
    /// Untimed: check the op's output; tally its answer sets.
    fn check(
        &mut self,
        input: &Self::Input,
        out: Self::Output,
        tally: &mut Tally,
    ) -> Result<(), String>;
    /// Does this input retract source facts?
    fn retracts(_input: &Self::Input) -> bool {
        false
    }
}

/// The per-op scenario seed: the run seed in the high bits, the op index
/// in the low bits (the `decide` generator reads its stratum from them).
fn op_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_shl(24) ^ i
}

/// Parse scenario text, rendering a diagnostic on failure.
fn parse(text: &str, rec: &mut Recorder) -> Result<Scenario, String> {
    rec.count("text.parse.bytes", text.len() as f64);
    rec.span("text.parse", |_| Scenario::parse(text))
        .map_err(|e| e.render(text))
}

/// Compile every query of `sc` through the shared plan catalog.
fn compile_plans(sc: &Scenario, rec: &mut Recorder) {
    rec.span("query.compile", |_| {
        for nq in &sc.queries {
            PlanCatalog::shared().eval_in(&nq.query, &sc.mapping.target);
        }
    });
}

/// `CSol_A(S)` with compiled STD bodies, then the indexed chase of the
/// target constraints.
fn exchange_chase(sc: &Scenario, rec: &mut Recorder) -> ChaseResult {
    let csol = rec.span("chase.csol", |_| {
        canonical_solution_via(IndexedChase.body_eval(), &sc.mapping, &sc.source)
    });
    if rec.is_on() {
        rec.count("chase.csol.tuples", csol.instance.tuple_count() as f64);
        rec.count("chase.csol.nulls", csol.instance.nulls().len() as f64);
    }
    let mut nulls = NullGen::after(csol.instance.nulls());
    let chased = rec.span("engine.chase", |_| {
        IndexedChase.chase(
            csol.instance,
            &sc.constraints,
            &mut nulls,
            DEFAULT_CHASE_LIMIT,
        )
    });
    rec.count("engine.chase.steps", chased.steps as f64);
    chased
}

/// The Proposition 3 oracle on the tree-walking evaluator: the null-free
/// answers of `q` on `inst`, restricted to the candidate palette
/// `adom(source) ∪ constants(q)`. A conjunctive query `∃ȳ. φ` is
/// evaluated with every variable free — the walker then drives `φ`'s
/// atoms as joins instead of enumerating the domain — and projected.
pub fn oracle_answers(q: &Query, inst: &Instance, source: &Instance) -> Relation {
    let mut vars: Vec<Var> = q.head.clone();
    let mut body = &q.formula;
    while let Formula::Exists(vs, inner) = body {
        vars.extend(vs.iter().copied());
        body = inner;
    }
    let conjunctive = match body {
        Formula::Atom(..) => true,
        Formula::And(fs) => fs.iter().all(|f| matches!(f, Formula::Atom(..))),
        _ => false,
    };
    let answers = if conjunctive {
        let wide = Query::new(vars, body.clone()).answers(inst);
        Relation::from_tuples(
            q.arity(),
            wide.iter()
                .map(|t| Tuple::new(t.iter().take(q.arity()).collect::<Vec<_>>()))
                .filter(Tuple::is_ground),
        )
    } else {
        q.naive_certain_answers(inst)
    };
    let mut palette: BTreeSet<ConstId> = source.adom_consts();
    palette.extend(q.formula.constants());
    Relation::from_tuples(
        q.arity(),
        answers
            .iter()
            .filter(|t| t.consts().all(|c| palette.contains(&c)))
            .cloned(),
    )
}

// ---------------------------------------------------------------------------
// exchange
// ---------------------------------------------------------------------------

/// Batch exchange of fresh sources: parse → `CSol_A(S)` → chase →
/// positive answers through the shared plan catalog.
pub struct Exchange {
    seed: u64,
}

/// What one `exchange` op produced.
pub struct ExchangeOut {
    /// The parsed scenario.
    pub sc: Scenario,
    /// The chased target.
    pub chased: ChaseResult,
    /// One answer set per query, in declaration order.
    pub answers: Vec<Relation>,
}

impl Exchange {
    /// The workload for run seed `seed`.
    pub fn new(seed: u64) -> Exchange {
        Exchange { seed }
    }
}

impl Workload for Exchange {
    type Input = String;
    type Output = ExchangeOut;
    const SETUP_REPS: usize = 25;
    const SETUP_BATCH: usize = 8;
    const KERNEL: &'static [Round] = &[Round::Records];

    fn setup_text(&mut self) -> String {
        gen::exchange_text(op_seed(self.seed, 0), EXCHANGE_PAPERS)
    }

    fn setup(&mut self, text: &str, rec: &mut Recorder) -> Result<(), String> {
        let sc = parse(text, rec)?;
        compile_plans(&sc, rec);
        Ok(())
    }

    fn prepare(&mut self, i: u64) -> Result<String, String> {
        Ok(gen::exchange_text(op_seed(self.seed, i), EXCHANGE_PAPERS))
    }

    fn op(&mut self, text: &String, rec: &mut Recorder) -> Result<ExchangeOut, String> {
        let sc = parse(text, rec)?;
        let chased = exchange_chase(&sc, rec);
        let answers = rec.span("query.answer", |_| {
            let target = chased.instance.rel_part();
            sc.queries
                .iter()
                .map(|nq| {
                    PlanCatalog::shared()
                        .eval_in(&nq.query, &sc.mapping.target)
                        .naive_certain_answers(&target)
                })
                .collect()
        });
        Ok(ExchangeOut {
            sc,
            chased,
            answers,
        })
    }

    fn check(&mut self, _text: &String, out: ExchangeOut, tally: &mut Tally) -> Result<(), String> {
        tally.answers(out.answers.len() as u64, 0);
        check_exchange(&out.sc, &out.chased, &out.answers)
    }
}

/// The `exchange` output check: the chase succeeded, the chased target
/// satisfies every constraint under the reference `satisfies_deps`, and
/// each answer set equals the tree-walking evaluator's on that target.
pub fn check_exchange(
    sc: &Scenario,
    chased: &ChaseResult,
    answers: &[Relation],
) -> Result<(), String> {
    if chased.outcome != ChaseOutcome::Satisfied {
        return Err(format!("chase ended {:?}", chased.outcome));
    }
    if !satisfies_deps(&chased.instance, &sc.constraints) {
        return Err("chased target violates a constraint".into());
    }
    let target = chased.instance.rel_part();
    for (nq, got) in sc.queries.iter().zip(answers) {
        if *got != oracle_answers(&nq.query, &target, &sc.source) {
            return Err(format!(
                "query {}: answers differ from the tree walker",
                nq.name
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// decide
// ---------------------------------------------------------------------------

/// The search budget of every `Rep_A` refutation and approximation sample.
pub fn decide_search_budget() -> SearchBudget {
    SearchBudget {
        max_leaves: Some(500),
        ..SearchBudget::bounded(1, 1)
    }
}

/// The GCWA\* budget: single minimal solutions (the polynomial `k = 1`
/// slice), at most 256 of them, 2000 valuation leaves.
pub fn decide_regime_budget() -> RegimeBudget {
    RegimeBudget {
        max_union_size: 1,
        max_minimal_solutions: 256,
        max_leaves: Some(2_000),
    }
}

/// Certain-answer decisions in the hard regimes: a `dx <file> --all`
/// battery (without printing or the naive-chase cross-check) per fresh
/// scenario.
pub struct Decide {
    seed: u64,
    budget: SearchBudget,
    regime: RegimeBudget,
}

/// One query's answers under every regime the battery ran.
pub struct DecideAnswer {
    certain: (Relation, Completeness),
    gcwa: Option<GcwaOutcome>,
    approx: Option<ApproxOutcome>,
}

/// What one `decide` op produced.
pub struct DecideOut {
    sc: Scenario,
    answers: Vec<DecideAnswer>,
}

impl Decide {
    /// The workload for run seed `seed`.
    pub fn new(seed: u64) -> Decide {
        Decide {
            seed,
            budget: decide_search_budget(),
            regime: decide_regime_budget(),
        }
    }
}

fn capped(c: Completeness) -> f64 {
    f64::from(u8::from(c == Completeness::Capped))
}

impl Workload for Decide {
    type Input = String;
    type Output = DecideOut;
    const SETUP_REPS: usize = 31;
    const SETUP_BATCH: usize = 16;
    const KERNEL: &'static [Round] = &[Round::Vecs];

    fn setup_text(&mut self) -> String {
        gen::decide_text(op_seed(self.seed, 0), DECIDE_PAPERS)
    }

    fn setup(&mut self, text: &str, rec: &mut Recorder) -> Result<(), String> {
        let sc = parse(text, rec)?;
        compile_plans(&sc, rec);
        Ok(())
    }

    fn prepare(&mut self, i: u64) -> Result<String, String> {
        Ok(gen::decide_text(op_seed(self.seed, i), DECIDE_PAPERS))
    }

    fn op(&mut self, text: &String, rec: &mut Recorder) -> Result<DecideOut, String> {
        let sc = parse(text, rec)?;
        exchange_chase(&sc, rec);
        let mut answers = Vec::with_capacity(sc.queries.len());
        for nq in &sc.queries {
            let (m, s, q) = (&sc.mapping, &sc.source, &nq.query);
            let certain = rec.span("core.certain", |_| {
                certain_answers(m, s, q, Some(&self.budget))
            });
            rec.count("core.capped.certain", capped(certain.1));
            let (mut gcwa, mut approx) = (None, None);
            if !classify::is_positive(&q.formula) {
                let g = rec.span("core.gcwa", |_| gcwa_star_answers(m, s, q, &self.regime));
                rec.count("core.capped.gcwa", capped(g.completeness));
                let a = rec.span("core.approx", |_| {
                    approx_certain_answers(m, s, q, Some(&self.budget))
                });
                rec.count("core.capped.approx", capped(a.completeness));
                (gcwa, approx) = (Some(g), Some(a));
            }
            answers.push(DecideAnswer {
                certain,
                gcwa,
                approx,
            });
        }
        Ok(DecideOut { sc, answers })
    }

    fn check(&mut self, _text: &String, out: DecideOut, tally: &mut Tally) -> Result<(), String> {
        for a in &out.answers {
            let comps = [
                Some(a.certain.1),
                a.gcwa.as_ref().map(|g| g.completeness),
                a.approx.as_ref().map(|x| x.completeness),
            ];
            let comps: Vec<Completeness> = comps.into_iter().flatten().collect();
            let n_capped = comps.iter().filter(|&&c| c == Completeness::Capped).count();
            tally.answers(comps.len() as u64, n_capped as u64);
        }
        check_decide(&out.sc, &out.answers)
    }
}

/// The `decide` output check: positive answers equal the Proposition 3
/// tree-walk oracle (and are exact), and `lower ⊆ certain ⊆ upper` holds
/// wherever neither the bracket nor the certain answers were capped.
pub fn check_decide(sc: &Scenario, answers: &[DecideAnswer]) -> Result<(), String> {
    let csol = canonical_solution(&sc.mapping, &sc.source).rel_part();
    for (nq, a) in sc.queries.iter().zip(answers) {
        let (certain, comp) = &a.certain;
        if classify::is_positive(&nq.query.formula) {
            if *comp != Completeness::Exact {
                return Err(format!("positive query {} answered {comp:?}", nq.name));
            }
            if *certain != oracle_answers(&nq.query, &csol, &sc.source) {
                return Err(format!(
                    "query {}: answers differ from the Prop 3 oracle",
                    nq.name
                ));
            }
        }
        if let Some(x) = &a.approx {
            if x.completeness != Completeness::Capped && *comp != Completeness::Capped {
                if !x.lower.is_subset(certain) {
                    return Err(format!(
                        "query {}: lower bound not within the certain answers",
                        nq.name
                    ));
                }
                if !certain.is_subset(&x.upper) {
                    return Err(format!(
                        "query {}: certain answers not within the upper bound",
                        nq.name
                    ));
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// stream
// ---------------------------------------------------------------------------

/// The budget of the session's non-positive recomputes (and of the
/// check's recompute from scratch).
pub fn stream_search_budget() -> SearchBudget {
    SearchBudget {
        max_leaves: Some(5_000),
        ..SearchBudget::bounded(1, 1)
    }
}

/// One long-lived streaming session: per op, one update batch, then a
/// read of every registered answer set.
pub struct Stream {
    trace: StreamTrace,
    budget: SearchBudget,
    session: Option<StreamSession>,
    mapping: Option<Mapping>,
    queries: Vec<NamedQuery>,
    rolling: Instance,
}

/// One `stream` op's input: the parsed batch and whether it retracts.
pub struct Batch {
    update: Update,
    retract: bool,
}

impl Stream {
    /// The workload for run seed `seed`.
    pub fn new(seed: u64) -> Stream {
        Stream {
            trace: StreamTrace::new(seed, STREAM_PAPERS),
            budget: stream_search_budget(),
            session: None,
            mapping: None,
            queries: Vec::new(),
            rolling: Instance::new(),
        }
    }
}

impl Workload for Stream {
    type Input = Batch;
    type Output = Vec<(Relation, Completeness)>;
    const SETUP_REPS: usize = 9;
    const SETUP_BATCH: usize = 1;
    const KERNEL: &'static [Round] = &[Round::Records, Round::Tree, Round::Vecs];

    fn setup_text(&mut self) -> String {
        self.trace.base_text()
    }

    fn reset(&mut self) {
        PlanCatalog::shared().clear();
        self.session = None;
        self.rolling = Instance::new();
    }

    fn setup(&mut self, text: &str, rec: &mut Recorder) -> Result<(), String> {
        let sc = parse(text, rec)?;
        let mut session = rec.span("core.stream.new", |_| {
            StreamSession::new(
                sc.mapping.clone(),
                sc.constraints.clone(),
                sc.source.clone(),
            )
        });
        session.set_search_budget(Some(self.budget.clone()));
        rec.span("core.stream.register", |_| {
            for nq in &sc.queries {
                session.register(&nq.name, nq.query.clone(), StreamRegime::Certain);
            }
        });
        self.session = Some(session);
        self.rolling = sc.source;
        self.mapping = Some(sc.mapping);
        self.queries = sc.queries;
        Ok(())
    }

    fn prepare(&mut self, _i: u64) -> Result<Batch, String> {
        let (text, retract) = self.trace.next_batch();
        let sc = Scenario::parse(&text).map_err(|e| e.render(&text))?;
        let update = sc
            .updates
            .into_iter()
            .next()
            .ok_or("batch text has no update block")?
            .update;
        Ok(Batch { update, retract })
    }

    fn op(&mut self, batch: &Batch, rec: &mut Recorder) -> Result<Self::Output, String> {
        let session = self
            .session
            .as_mut()
            .ok_or("no session: set-up did not run")?;
        let report = rec.span("core.stream.update", |_| session.update(&batch.update));
        if rec.is_on() {
            let u = &report.update;
            let paths = |want: StdPath| u.std_paths.iter().filter(|&&p| p == want).count() as f64;
            rec.count("engine.stream.std_seeded", paths(StdPath::Seeded));
            rec.count("engine.stream.std_recomputed", paths(StdPath::Recomputed));
            rec.count("engine.stream.witnesses_died", u.witnesses_died as f64);
            rec.count("engine.stream.nulls_collected", u.nulls_collected as f64);
            match u.target {
                TargetPath::None => {}
                TargetPath::Incremental { overdeleted, steps } => {
                    rec.count("engine.stream.target_incremental", 1.0);
                    rec.count("engine.stream.overdeleted", overdeleted as f64);
                    rec.count("engine.chase.steps", steps as f64);
                }
                TargetPath::Rebuilt { steps } => {
                    rec.count("engine.stream.target_rebuilt", 1.0);
                    rec.count("engine.chase.steps", steps as f64);
                }
            }
            for (_, path) in &report.queries {
                let name = match path {
                    QueryPath::Skipped => "core.stream.path.skip",
                    QueryPath::DeltaPlan { .. } => "core.stream.path.delta",
                    QueryPath::Recomputed => "core.stream.path.recompute",
                };
                rec.count(name, 1.0);
            }
        }
        let queries = &self.queries;
        let session = &*session;
        Ok(rec.span("core.stream.read", |_| {
            queries
                .iter()
                .map(|nq| session.answers(&nq.name).expect("registered at set-up"))
                .collect()
        }))
    }

    fn check(&mut self, batch: &Batch, out: Self::Output, tally: &mut Tally) -> Result<(), String> {
        let n_capped = out
            .iter()
            .filter(|(_, c)| *c == Completeness::Capped)
            .count();
        tally.answers(out.len() as u64, n_capped as u64);
        batch.update.apply(&mut self.rolling);
        let mapping = self
            .mapping
            .as_ref()
            .ok_or("no mapping: set-up did not run")?;
        check_stream(mapping, &self.rolling, &self.queries, &out, &self.budget)
    }

    fn retracts(batch: &Batch) -> bool {
        batch.retract
    }
}

/// The `stream` output check: every maintained answer set equals
/// `certain_answers` recomputed from scratch on the rolling source (one
/// `CSol_A(S)` with compiled bodies, shared by the queries), compared
/// only where neither side is `Capped` — a capped sweep stops at an
/// enumeration point that renamed nulls legitimately move.
pub fn check_stream(
    mapping: &Mapping,
    rolling: &Instance,
    queries: &[NamedQuery],
    got: &[(Relation, Completeness)],
    budget: &SearchBudget,
) -> Result<(), String> {
    let csol = canonical_solution_via(IndexedChase.body_eval(), mapping, rolling);
    for (nq, (rel, comp)) in queries.iter().zip(got) {
        let (want, wcomp) = certain_answers_with(mapping, &csol, rolling, &nq.query, Some(budget));
        if *comp == Completeness::Capped || wcomp == Completeness::Capped {
            continue;
        }
        if *rel != want {
            return Err(format!(
                "query {}: maintained answers differ from recompute",
                nq.name
            ));
        }
    }
    Ok(())
}
