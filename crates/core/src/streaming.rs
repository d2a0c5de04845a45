//! Streaming certain answers: incrementally maintained query results over
//! an incrementally maintained canonical solution.
//!
//! A [`StreamSession`] wraps a [`dx_engine::IncrementalExchange`] (which
//! maintains `CSol_A(S)` under source [`Update`] batches) and a set of
//! registered queries whose answer sets it keeps current. Per batch, each
//! query takes the cheapest sound path of the delta protocol
//! (`DESIGN.md §Streaming data exchange`):
//!
//! * **Skip** — the canonical-solution delta does not touch any relation
//!   the query reads (and, outside the maintained representation, the
//!   source palette did not move): the stored answers are still exact.
//! * **Delta plan** — positive compiled queries under the `certain` regime,
//!   on every batch that reaches their relations, inserting or retracting:
//!   [`dx_query::dred`] runs the cached delta-plan variant (via
//!   [`PlanCatalog::delta_in`]) over the post-update solution
//!   ([`IncrementalExchange::csol_index`]) with the added tuples for the
//!   gained answers, and over the pre-update one with the removed tuples
//!   for the answers that may be lost, deciding each candidate by
//!   first-witness execution on the post-update solution. By
//!   Proposition 3 the null-free answers are the certain ones, so a
//!   positive compiled query recomputes only when it is registered.
//! * **Revalidate or recompute** — non-positive compiled `certain` queries
//!   whose witness space is exact (Proposition 4 monotone, Proposition 5
//!   `∀*∃*`, all-closed) carry their refutations: per refuting leaf, the
//!   witness's valuation and extras and its image over the relations the
//!   query reads, as a persistent [`DeltaIndex`]. A batch applies the csol
//!   delta to every image and re-probes each refuted candidate once with a
//!   first-witness plan probe. By Theorem 1(4) the updated image is again
//!   a member of `Rep_A` of the new csol, so a candidate it still refutes
//!   is still not certain. Only the certain candidates, the candidates
//!   whose image stopped refuting and those new to the palette go through
//!   the refutation sweep of [`Exchange::certain_answers`]; a batch that
//!   searched nothing reports [`QueryPath::DeltaPlan`]. Everything else —
//!   a bounded witness space, a query that did not compile, a change of
//!   procedure, and the GCWA\* and approximation regimes — re-runs on the
//!   *maintained* canonical solution (still skipping the chase, the
//!   dominant cost) through the [`Exchange`] methods over the borrowed
//!   solution.
//!
//! A maintained answer set is kept ready to read: its null-free answers
//! are split into those whose constants all lie in the genericity palette
//! `adom(S) ∪ consts(Q)`, which [`StreamSession::answers`] shares — a
//! [`Relation`] clone is O(1) and copies its tuples only when the session
//! next writes to a set a reader still holds — and the rest, held back.
//! Only a constant of the mapping can put an answer outside the palette,
//! so the held-back set is almost always empty. The
//! exchange reports the constants that entered and left `adom(S)` in each
//! batch, and the session moves answers between the two sets by them.

use crate::certain::{candidate_tuples, Regime};
use crate::regimes::{answer_palette, ApproxOutcome, GcwaOutcome, RegimeBudget};
use crate::Exchange;
use dx_chase::{Mapping, TargetDep};
use dx_engine::{IncrementalExchange, UpdateReport};
use dx_logic::classify;
use dx_logic::Query;
use dx_query::{PlanCatalog, QueryEval};
use dx_relation::{
    AnnInstance, ConstId, DeltaIndex, Instance, RelSym, Relation, Tuple, Update, Valuation,
};
use dx_solver::{Completeness, SearchBudget, Witness};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The answering regime a registered query is maintained under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamRegime {
    /// `certain_Σα(Q, S)` — exact for positive queries (Proposition 3),
    /// search-based otherwise.
    Certain,
    /// GCWA\*-answers over unions of minimal solutions (Hernich).
    GcwaStar,
    /// The under/over approximation bracket for queries with negation.
    Approx,
}

/// How one registered query was maintained across one update batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryPath {
    /// The delta did not reach the query — stored answers still exact.
    Skipped,
    /// Maintained from the batch's delta, no search: delta plans
    /// ([`dx_query::dred`]) over the batch's added and removed tuples, or
    /// carried refutations that all still refute.
    DeltaPlan {
        /// Answers the batch gained plus those it lost.
        delta_answers: usize,
    },
    /// Re-evaluation on the maintained canonical solution: in full, or a
    /// refutation sweep over the candidates no carried witness refutes.
    Recomputed,
}

/// How the carried refutations of one registered query fared in one
/// batch (both zero for a query that carries none).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WitnessCounts {
    /// Refuted candidates a carried image still refutes.
    pub revalidated: usize,
    /// Candidates that went through a refutation sweep.
    pub researched: usize,
}

/// The maintained answer state of one registered query.
enum AnswerState {
    /// Positive compiled `certain` query, carried across batches by delta
    /// plans (completeness is always exact on this path).
    Maintained(Maintained),
    /// `certain` query outside the maintained representation, with the
    /// refutations it carries across batches.
    Computed(Computed),
    /// GCWA\* outcome, recomputed when the delta reaches the query.
    Gcwa(GcwaOutcome),
    /// Approximation bracket, recomputed when the delta reaches the query.
    Approx(ApproxOutcome),
}

/// The null-free answers of a positive compiled query, split by the
/// genericity palette `adom(S) ∪ consts(Q)`: by Proposition 3, `ready` is
/// exactly its certain answers.
struct Maintained {
    /// The compiled query, from the shared catalog.
    eval: Arc<QueryEval>,
    /// The query's constants `consts(Q)`.
    consts: BTreeSet<ConstId>,
    /// Answers whose constants all lie in the palette: what reads return.
    ready: Relation,
    /// Answers with a constant outside the palette — necessarily a
    /// constant of the mapping that is not in `adom(S)`.
    held: Relation,
}

/// The answers of a `certain` query outside the maintained
/// representation.
struct Computed {
    answers: Relation,
    completeness: Completeness,
    /// The carried refutations; `None` when the query did not compile or
    /// its witness space is not exact, and every batch that reaches the
    /// query recomputes it.
    carry: Option<Carry>,
}

/// The refutations of a compiled non-positive query's non-answers, found
/// in the exact witness space of `regime`: every candidate that is not an
/// answer is refuted by exactly one carried witness.
struct Carry {
    eval: Arc<QueryEval>,
    regime: Regime,
    witnesses: Vec<Carried>,
}

/// One refuting leaf, carried across batches: its witness cut down to the
/// relations the query reads (the valuation of their live nulls, the
/// extras among them), the witness's image over those relations, and the
/// candidates it refutes. The image holds one refcount per annotated csol
/// tuple (as [`IncrementalExchange::csol_index`] does) plus one per extra,
/// so a batch's annotated delta moves it exactly.
struct Carried {
    witness: Witness,
    image: DeltaIndex,
    refutes: Vec<Tuple>,
}

impl Carried {
    /// Cut `witness` down to `rels` and build its image over `csol`.
    fn new(
        witness: Witness,
        refutes: Vec<Tuple>,
        csol: &AnnInstance,
        rels: &BTreeSet<RelSym>,
    ) -> Self {
        let free = Witness::free_const();
        let mut image = DeltaIndex::new();
        let mut valuation = Valuation::new();
        for &rel in rels {
            let Some(arel) = csol.relation(rel) else {
                continue;
            };
            image.declare(rel, arel.arity());
            for at in arel.iter() {
                for n in at.tuple.nulls() {
                    valuation.set(n, witness.valuation.get(n).unwrap_or(free));
                }
                image.insert(rel, witness.value(&at.tuple, free));
            }
        }
        let extras: Vec<(RelSym, Tuple)> = (witness.extras.into_iter())
            .filter(|(rel, _)| rels.contains(rel))
            .collect();
        for (rel, t) in &extras {
            image.insert(*rel, t.clone());
        }
        Carried {
            witness: Witness { valuation, extras },
            image,
            refutes,
        }
    }

    /// Does the batch leave the witness a member of `Rep_A` of the new
    /// csol? An extras-free image is a member whatever the batch did. An
    /// extra needs an open tuple or an all-open marker of its relation to
    /// license it, so a witness with extras dies when the batch removes a
    /// tuple from one of its extras' relations or flips an empty marker.
    fn survives(&self, report: &UpdateReport) -> bool {
        let extras = &self.witness.extras;
        let touches =
            |(rel, _): &(RelSym, dx_relation::AnnTuple)| extras.iter().any(|(r, _)| r == rel);
        extras.is_empty() || (!report.marks_changed && !report.removed.iter().any(touches))
    }

    /// Apply the batch's csol delta on `rels` to the image: `v(t)` leaves
    /// for a removed tuple `t` and enters for an added one, a null born in
    /// the batch taking [`Witness::free_const`], and the nulls of removed
    /// tuples (which died with them) leave the valuation.
    fn apply(&mut self, report: &UpdateReport, rels: &BTreeSet<RelSym>) {
        let free = Witness::free_const();
        let touched = |(rel, _): &&(RelSym, dx_relation::AnnTuple)| rels.contains(rel);
        for (rel, at) in report.removed.iter().filter(touched) {
            self.image
                .remove(*rel, &self.witness.value(&at.tuple, free));
        }
        for (rel, at) in report.added.iter().filter(touched) {
            self.image.insert(*rel, self.witness.value(&at.tuple, free));
        }
        // Only now: the head atoms of one dying witness share its nulls.
        for (_, at) in report.removed.iter().filter(touched) {
            for n in at.tuple.nulls() {
                self.witness.valuation.unset(n);
            }
        }
    }
}

struct Registered {
    name: String,
    query: Query,
    regime: StreamRegime,
    /// Target relations the query reads.
    rels: BTreeSet<RelSym>,
    state: AnswerState,
}

/// Per-batch report: the engine-level [`UpdateReport`] plus the
/// maintenance path each registered query took.
pub struct SessionReport {
    /// The chase-layer report from [`IncrementalExchange::update`].
    pub update: UpdateReport,
    /// `(query name, path)` per registered query, in registration order.
    pub queries: Vec<(String, QueryPath)>,
    /// The carried refutations' counts per registered query, in
    /// registration order.
    pub witnesses: Vec<WitnessCounts>,
}

/// A streaming data-exchange session: one incrementally maintained
/// canonical solution plus incrementally maintained certain-answer sets.
///
/// ```
/// use dx_chase::Mapping;
/// use dx_core::streaming::{StreamRegime, StreamSession};
/// use dx_logic::Query;
/// use dx_relation::{Instance, Update};
///
/// let mapping = Mapping::parse("T(x:cl, y:cl) <- E(x, y)").unwrap();
/// let mut source = Instance::new();
/// source.insert_names("E", &["a", "b"]);
/// let mut sess = StreamSession::new(mapping, Vec::new(), source);
/// let q = Query::parse(&["x"], "exists y. T(x, y)").unwrap();
/// sess.register("heads", q, StreamRegime::Certain);
/// assert_eq!(sess.answers("heads").unwrap().0.len(), 1);
///
/// let up = Update::new().insert_names("E", &["c", "d"]);
/// let report = sess.update(&up);
/// assert_eq!(report.update.csol_added, 1);
/// assert_eq!(sess.answers("heads").unwrap().0.len(), 2);
/// ```
pub struct StreamSession {
    inc: IncrementalExchange,
    mapping: Mapping,
    /// Constants of the STD bodies and heads: besides `adom(S)` and the
    /// query's own, the only constants a canonical-solution answer holds.
    mapping_consts: BTreeSet<ConstId>,
    queries: Vec<Registered>,
    regime_budget: RegimeBudget,
    search_budget: Option<SearchBudget>,
}

impl StreamSession {
    /// Open a session over `source` (constraints are target tgds/egds the
    /// chased layer maintains; queries evaluate on the canonical
    /// solution, mirroring the batch `certain_*` entry points).
    pub fn new(mapping: Mapping, constraints: Vec<TargetDep>, source: Instance) -> Self {
        let mapping_consts = mapping
            .stds
            .iter()
            .flat_map(|std| {
                let head = std.head.iter().flat_map(|a| a.args.iter());
                head.flat_map(|t| t.consts()).chain(std.body.constants())
            })
            .collect();
        StreamSession {
            inc: IncrementalExchange::new(mapping.clone(), constraints, source),
            mapping,
            mapping_consts,
            queries: Vec::new(),
            regime_budget: RegimeBudget::default(),
            search_budget: None,
        }
    }

    /// The maintained incremental exchange (source, canonical solution,
    /// chased target).
    pub fn exchange(&self) -> &IncrementalExchange {
        &self.inc
    }

    /// Replace the budget used by the GCWA\* regime (applies from the
    /// next recompute).
    pub fn set_regime_budget(&mut self, budget: RegimeBudget) {
        self.regime_budget = budget;
    }

    /// Replace the search budget used by the non-positive `certain` and
    /// approximation recompute paths (applies from the next recompute;
    /// `None` = the engines' defaults).
    pub fn set_search_budget(&mut self, budget: Option<SearchBudget>) {
        self.search_budget = budget;
    }

    /// Register a query under `regime` and compute its initial answers.
    pub fn register(&mut self, name: &str, query: Query, regime: StreamRegime) {
        assert!(
            self.queries.iter().all(|r| r.name != name),
            "duplicate registered query name {name:?}"
        );
        let rels: BTreeSet<RelSym> = query.formula.relations().iter().map(|&(r, _)| r).collect();
        let mut reg = Registered {
            name: name.to_string(),
            query,
            regime,
            rels,
            state: AnswerState::Computed(Computed {
                answers: Relation::new(0),
                completeness: Completeness::Exact,
                carry: None,
            }),
        };
        self.recompute(&mut reg);
        self.queries.push(reg);
        self.publish_carried_slots();
    }

    /// The current `(answers, completeness)` of a registered query, shared
    /// with the session: O(1), and unchanged by later updates. For the
    /// approximation regime this is the sound lower bound (see
    /// [`StreamSession::approx`] for the bracket).
    pub fn answers(&self, name: &str) -> Option<(Relation, Completeness)> {
        let reg = self.queries.iter().find(|r| r.name == name)?;
        Some(match &reg.state {
            AnswerState::Maintained(m) => (m.ready.clone(), Completeness::Exact),
            AnswerState::Computed(c) => (c.answers.clone(), c.completeness),
            AnswerState::Gcwa(o) => (o.answers.clone(), o.completeness),
            AnswerState::Approx(o) => (o.lower.clone(), o.completeness),
        })
    }

    /// The full GCWA\* outcome of a registered query, when maintained
    /// under that regime.
    pub fn gcwa(&self, name: &str) -> Option<&GcwaOutcome> {
        match &self.queries.iter().find(|r| r.name == name)?.state {
            AnswerState::Gcwa(o) => Some(o),
            _ => None,
        }
    }

    /// The full approximation bracket of a registered query, when
    /// maintained under that regime.
    pub fn approx(&self, name: &str) -> Option<&ApproxOutcome> {
        match &self.queries.iter().find(|r| r.name == name)?.state {
            AnswerState::Approx(o) => Some(o),
            _ => None,
        }
    }

    /// Apply one source update batch: maintain the canonical solution and
    /// every registered answer set, each by its cheapest sound path.
    pub fn update(&mut self, up: &Update) -> SessionReport {
        let report = self.inc.update(up);
        let changed = report.changed_rels();
        // The search-based states depend on the *whole* solution (extra
        // open tuples draw constants from the full active domain, and empty
        // markers shape `Rep_A`), so any delta at all reaches them.
        let settled = changed.is_empty()
            && report.adom_entered.is_empty()
            && report.adom_left.is_empty()
            && !report.marks_changed;
        // The batch's relational delta, shared by every maintained query: a
        // tuple is added when the batch gave it its first annotation and
        // removed when it lost its last. The csol index counts a tuple's
        // annotations after the batch; the annotated delta is net.
        let index = self.inc.csol_index();
        let mut moved: BTreeMap<(RelSym, &Tuple), isize> = BTreeMap::new();
        let signed =
            (report.added.iter().map(|x| (x, 1))).chain(report.removed.iter().map(|x| (x, -1)));
        for ((rel, at), sign) in signed {
            *moved.entry((*rel, &at.tuple)).or_insert(0) += sign;
        }
        let (mut added, mut removed) = (Instance::new(), Instance::new());
        for ((rel, t), moved) in moved {
            let now = index.count(rel, t) as isize;
            let before = now - moved;
            if before == 0 && now > 0 {
                added.insert(rel, t.clone());
            } else if before > 0 && now == 0 {
                removed.insert(rel, t.clone());
            }
        }

        let mut paths = Vec::with_capacity(self.queries.len());
        let mut witnesses = Vec::with_capacity(self.queries.len());
        let mut queries = std::mem::take(&mut self.queries);
        for reg in &mut queries {
            let mut counts = WitnessCounts::default();
            let path = match &mut reg.state {
                // Depends only on the relations the (positive) query reads,
                // plus the palette its answers are split by.
                AnswerState::Maintained(m) => {
                    let touched: BTreeSet<RelSym> =
                        changed.intersection(&reg.rels).copied().collect();
                    let path = if touched.is_empty() {
                        QueryPath::Skipped
                    } else {
                        let delta_answers =
                            self.maintain(&reg.query, m, &touched, &added, &removed);
                        QueryPath::DeltaPlan { delta_answers }
                    };
                    self.shift_palette(m, &report);
                    path
                }
                _ if settled => QueryPath::Skipped,
                AnswerState::Computed(Computed {
                    carry: Some(carry), ..
                }) if self.exchange_view().refutation_regime(&carry.eval) == carry.regime => {
                    let (path, c) = self.revalidate(reg, &report);
                    counts = c;
                    path
                }
                _ => {
                    counts.researched = self.recompute(reg);
                    QueryPath::Recomputed
                }
            };
            paths.push((reg.name.clone(), path));
            witnesses.push(counts);
        }
        self.queries = queries;
        self.publish_carried_slots();
        SessionReport {
            update: report,
            queries: paths,
            witnesses,
        }
    }

    /// Carry a `Computed` answer set across a batch by its refutations
    /// (module docs): every carried image takes the batch's delta, every
    /// candidate it refuted is re-probed on it, and only the candidates
    /// left without a refutation — the certain ones, those whose witness
    /// died or stopped refuting, those new to the palette — go through a
    /// refutation sweep, whose refuting leaves are carried on.
    fn revalidate(
        &self,
        reg: &mut Registered,
        report: &UpdateReport,
    ) -> (QueryPath, WitnessCounts) {
        let _span = dx_obs::span!("core.stream.revalidate");
        let AnswerState::Computed(state) = &mut reg.state else {
            unreachable!("only computed states carry refutations");
        };
        let carry = state.carry.as_mut().expect("a carrying state");
        let consts = reg.query.formula.constants();
        let left: Vec<ConstId> = (report.adom_left.iter().copied())
            .filter(|c| !consts.contains(c))
            .collect();
        let candidate = |t: &Tuple| !t.consts().any(|c| left.contains(&c));

        let mut research: Vec<Tuple> = state
            .answers
            .iter()
            .filter(|t| candidate(t))
            .cloned()
            .collect();
        let lost = state.answers.len() - research.len();
        let mut counts = WitnessCounts::default();
        let eval = &carry.eval;
        carry.witnesses.retain_mut(|w| {
            let refutes = std::mem::take(&mut w.refutes)
                .into_iter()
                .filter(|t| candidate(t));
            if !w.survives(report) {
                research.extend(refutes);
                return false;
            }
            w.apply(report, &reg.rels);
            let image = &w.image;
            for t in refutes {
                if eval.holds_on_indexed(image, || image.to_instance(), &t) {
                    research.push(t);
                } else {
                    w.refutes.push(t);
                }
            }
            counts.revalidated += w.refutes.len();
            !w.refutes.is_empty()
        });
        research.extend(self.new_candidates(&reg.query, &consts, report));
        dx_obs::count!("core.stream.witness.revalidated", counts.revalidated);
        if research.is_empty() {
            // Every candidate is refuted by a member of the new `Rep_A`.
            state.answers = Relation::new(reg.query.arity());
            state.completeness = Completeness::Exact;
            return (
                QueryPath::DeltaPlan {
                    delta_answers: lost,
                },
                counts,
            );
        }
        counts.researched = research.len();
        (state.answers, state.completeness) = self.sweep(&reg.rels, carry, research);
        (QueryPath::Recomputed, counts)
    }

    /// The candidates `Q`'s palette `adom(S) ∪ consts(Q)` gained in this
    /// batch: the tuples over the new palette with a constant that entered
    /// `adom(S)` (none for a Boolean query).
    fn new_candidates(
        &self,
        query: &Query,
        consts: &BTreeSet<ConstId>,
        report: &UpdateReport,
    ) -> Vec<Tuple> {
        let entered: Vec<ConstId> = (report.adom_entered.iter().copied())
            .filter(|c| !consts.contains(c))
            .collect();
        if query.arity() == 0 || entered.is_empty() {
            return Vec::new();
        }
        let palette: Vec<ConstId> = answer_palette(self.inc.source(), query)
            .into_iter()
            .collect();
        let mut fresh = candidate_tuples(&palette, query.arity());
        fresh.retain(|t| t.consts().any(|c| entered.contains(&c)));
        fresh
    }

    /// One refutation sweep over `candidates` in `carry`'s witness space,
    /// carrying every refuting leaf on; returns the survivors and the
    /// sweep's completeness.
    fn sweep(
        &self,
        rels: &BTreeSet<RelSym>,
        carry: &mut Carry,
        candidates: Vec<Tuple>,
    ) -> (Relation, Completeness) {
        dx_obs::count!("core.stream.witness.researched", candidates.len());
        let ex = self.exchange_view();
        let mut found = Vec::new();
        let out = ex.refute_candidates(
            &carry.eval,
            carry.regime,
            candidates,
            self.search_budget.as_ref(),
            None,
            &mut |leaf, refuted| found.push((leaf.witness(), refuted)),
        );
        let csol = self.inc.csol();
        for (witness, refutes) in found {
            carry
                .witnesses
                .push(Carried::new(witness, refutes, csol, rels));
        }
        out
    }

    /// The batch entry points over the maintained canonical solution,
    /// borrowed (never cloned) from the incremental exchange.
    fn exchange_view(&self) -> Exchange<'_> {
        Exchange::from_csol(&self.mapping, self.inc.source(), self.inc.csol())
    }

    /// Publish the live slots across every carried image.
    fn publish_carried_slots(&self) {
        dx_obs::gauge!(
            "mem.stream.carried_slots",
            (self.queries.iter())
                .filter_map(|r| match &r.state {
                    AnswerState::Computed(Computed { carry: Some(c), .. }) => Some((r, c)),
                    _ => None,
                })
                .flat_map(|(r, c)| c.witnesses.iter().map(move |w| (r, w)))
                .flat_map(|(r, w)| r.rels.iter().map(|&rel| w.image.rel_len(rel)))
                .sum::<usize>()
        );
    }

    /// Carry a maintained answer set across a batch that reached its
    /// relations by [`dx_query::dred`]; returns the answers gained plus
    /// those lost.
    fn maintain(
        &self,
        query: &Query,
        m: &mut Maintained,
        touched: &BTreeSet<RelSym>,
        added: &Instance,
        removed: &Instance,
    ) -> usize {
        let variant = PlanCatalog::shared()
            .delta_in(query, &self.mapping.target, touched)
            .expect("a positive plan is monotone in every relation");
        let compiled = m.eval.compiled().expect("maintained queries compile");
        let delta = dx_query::dred(
            compiled,
            &variant,
            self.inc.csol_index(),
            added,
            removed,
            &|t| m.ready.contains(t) || m.held.contains(t),
        );
        let mut n = delta.lost.len();
        for t in &delta.lost {
            if !m.ready.remove(t) {
                m.held.remove(t);
            }
        }
        for t in delta.gained.into_iter().filter(Tuple::is_ground) {
            n += 1;
            self.admit(m, t);
        }
        n
    }

    /// Do the constants of `t` all lie in the palette `adom(S) ∪ consts`?
    fn in_palette(&self, consts: &BTreeSet<ConstId>, t: &Tuple) -> bool {
        t.consts()
            .all(|c| self.inc.adom_contains(c) || consts.contains(&c))
    }

    /// File a null-free answer under the current palette.
    fn admit(&self, m: &mut Maintained, t: Tuple) {
        if self.in_palette(&m.consts, &t) {
            m.ready.insert(t);
        } else {
            m.held.insert(t);
        }
    }

    /// Move answers between the ready and held-back sets by the constants
    /// that left and entered `adom(S)` in this batch.
    fn shift_palette(&self, m: &mut Maintained, report: &UpdateReport) {
        let gone: Vec<ConstId> = (report.adom_left.iter().copied())
            .filter(|c| self.mapping_consts.contains(c) && !m.consts.contains(c))
            .collect();
        if !gone.is_empty() {
            for t in take_where(&mut m.ready, |t| t.consts().any(|c| gone.contains(&c))) {
                m.held.insert(t);
            }
        }
        if !report.adom_entered.is_empty() && !m.held.is_empty() {
            for t in take_where(&mut m.held, |t| self.in_palette(&m.consts, t)) {
                m.ready.insert(t);
            }
        }
    }

    /// Full re-evaluation of one query on the maintained canonical
    /// solution, borrowed (never cloned) from the incremental exchange.
    /// Returns the candidates a carrying refutation sweep went through (0
    /// when the query carries no refutations).
    fn recompute(&self, reg: &mut Registered) -> usize {
        let ex = self.exchange_view();
        let budget = self.search_budget.as_ref();
        let mut researched = 0;
        reg.state = match reg.regime {
            StreamRegime::Certain => {
                let ev = PlanCatalog::shared().eval_in(&reg.query, &self.mapping.target);
                let positive = classify::is_positive(&reg.query.formula);
                let regime = (ev.is_compiled() && !positive)
                    .then(|| ex.refutation_regime(&ev))
                    .filter(|r| r.is_exact());
                match (ev.compiled(), regime) {
                    (Some(plan), _) if positive => {
                        let consts = reg.query.formula.constants();
                        let mut ready = plan.answers_store(self.inc.csol_index());
                        let mut held = Relation::new(ready.arity());
                        // Split in place: few answers fall outside the palette.
                        let out = take_where(&mut ready, |t| {
                            !t.is_ground() || !self.in_palette(&consts, t)
                        });
                        for t in out.into_iter().filter(Tuple::is_ground) {
                            held.insert(t);
                        }
                        AnswerState::Maintained(Maintained {
                            eval: Arc::clone(&ev),
                            consts,
                            ready,
                            held,
                        })
                    }
                    (_, Some(regime)) => {
                        let consts: Vec<ConstId> = answer_palette(self.inc.source(), &reg.query)
                            .into_iter()
                            .collect();
                        let candidates = candidate_tuples(&consts, reg.query.arity());
                        researched = candidates.len();
                        let mut carry = Carry {
                            eval: ev,
                            regime,
                            witnesses: Vec::new(),
                        };
                        let (answers, completeness) = self.sweep(&reg.rels, &mut carry, candidates);
                        AnswerState::Computed(Computed {
                            answers,
                            completeness,
                            carry: Some(carry),
                        })
                    }
                    _ => {
                        let (answers, completeness) = ex.certain_answers(&reg.query, budget);
                        AnswerState::Computed(Computed {
                            answers,
                            completeness,
                            carry: None,
                        })
                    }
                }
            }
            StreamRegime::GcwaStar => {
                AnswerState::Gcwa(ex.gcwa_star_answers(&reg.query, &self.regime_budget))
            }
            StreamRegime::Approx => {
                AnswerState::Approx(ex.approx_certain_answers(&reg.query, budget))
            }
        };
        researched
    }
}

/// Remove and return the tuples of `rel` that `pred` selects.
fn take_where(rel: &mut Relation, pred: impl Fn(&Tuple) -> bool) -> Vec<Tuple> {
    let out: Vec<Tuple> = rel.iter().filter(|t| pred(t)).cloned().collect();
    for t in &out {
        rel.remove(t);
    }
    out
}

/// The target relations a source update batch can touch: the heads of
/// every STD whose body reads one of the batch's source relations. This is
/// the *static* over-approximation of [`UpdateReport::changed_rels`] —
/// what a delta-plan derivation can use before any tuple moves (the
/// `--explain` face renders delta plans against exactly this set).
pub fn affected_target_rels(mapping: &Mapping, up: &Update) -> BTreeSet<RelSym> {
    let touched = up.rels();
    mapping
        .stds
        .iter()
        .filter(|std| {
            std.body
                .relations()
                .iter()
                .any(|(rel, _)| touched.contains(rel))
        })
        .flat_map(|std| std.head.iter().map(|atom| atom.rel))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certain::certain_answers;
    use crate::regimes::gcwa_star_answers;
    use dx_relation::Tuple;

    fn names(rel: &Relation) -> BTreeSet<Vec<String>> {
        rel.iter()
            .map(|t| t.iter().map(|v| format!("{v}")).collect())
            .collect()
    }

    fn oracle(mapping: &Mapping, source: &Instance, q: &Query) -> Relation {
        certain_answers(mapping, source, q, None).0
    }

    #[test]
    fn positive_query_rides_the_delta_plan() {
        let mapping = Mapping::parse("StrmT(x:cl, y:cl) <- StrmE(x, y)").unwrap();
        let mut source = Instance::new();
        source.insert_names("StrmE", &["a", "b"]);
        let mut sess = StreamSession::new(mapping.clone(), Vec::new(), source.clone());
        let q = Query::parse(&["x", "y"], "StrmT(x, y)").unwrap();
        sess.register("all", q.clone(), StreamRegime::Certain);

        let up = Update::new().insert_names("StrmE", &["b", "c"]);
        let report = sess.update(&up);
        assert!(
            matches!(
                report.queries[0].1,
                QueryPath::DeltaPlan { delta_answers: 1 }
            ),
            "insert-only delta takes the delta-plan path: {:?}",
            report.queries
        );
        up.apply(&mut source);
        assert_eq!(
            names(&sess.answers("all").unwrap().0),
            names(&oracle(&mapping, &source, &q))
        );
    }

    /// `answers()` shares the maintained set: a result held across an
    /// update that moves the query still reads the answers it was handed,
    /// and the next read reads the new ones.
    #[test]
    fn held_answers_survive_an_update() {
        let mapping = Mapping::parse("StrmT(x:cl, y:cl) <- StrmE(x, y)").unwrap();
        let mut source = Instance::new();
        source.insert_names("StrmE", &["a", "b"]);
        source.insert_names("StrmE", &["c", "d"]);
        let mut sess = StreamSession::new(mapping.clone(), Vec::new(), source.clone());
        let q = Query::parse(&["x", "y"], "StrmT(x, y)").unwrap();
        sess.register("all", q.clone(), StreamRegime::Certain);
        let (held, _) = sess.answers("all").unwrap();
        let before = names(&oracle(&mapping, &source, &q));
        assert_eq!(names(&held), before);

        let up = Update::new()
            .insert_names("StrmE", &["e", "f"])
            .retract_names("StrmE", &["a", "b"]);
        assert!(matches!(
            sess.update(&up).queries[0].1,
            QueryPath::DeltaPlan { delta_answers: 2 }
        ));
        assert_eq!(names(&held), before, "the held set moved with the session");
        up.apply(&mut source);
        let after = names(&oracle(&mapping, &source, &q));
        assert_ne!(after, before);
        assert_eq!(names(&sess.answers("all").unwrap().0), after);
    }

    /// A tuple the batch gives a second annotation was in the canonical
    /// solution before the batch: the relational delta leaves it out, so
    /// the pass over the pre-update solution still reads it.
    #[test]
    fn a_second_annotation_is_not_an_added_tuple() {
        let mapping = Mapping::parse(
            "StrmR(x:cl) <- StrmE(x); StrmR(x:op) <- StrmF(x); StrmS(x:cl) <- StrmH(x)",
        )
        .unwrap();
        let mut source = Instance::new();
        source.insert_names("StrmE", &["a"]);
        source.insert_names("StrmH", &["a"]);
        let mut sess = StreamSession::new(mapping.clone(), Vec::new(), source.clone());
        let q = Query::parse(&["x"], "StrmR(x) & StrmS(x)").unwrap();
        sess.register("both", q.clone(), StreamRegime::Certain);
        let up = Update::new()
            .insert_names("StrmF", &["a"])
            .retract_names("StrmH", &["a"]);
        sess.update(&up);
        up.apply(&mut source);
        assert!(oracle(&mapping, &source, &q).is_empty());
        assert_eq!(
            names(&sess.answers("both").unwrap().0),
            names(&oracle(&mapping, &source, &q))
        );
    }

    #[test]
    fn retraction_rides_the_delta_plan_and_matches_oracle() {
        let mapping = Mapping::parse("StrmT(x:cl, z:op) <- StrmE(x, y)").unwrap();
        let mut source = Instance::new();
        source.insert_names("StrmE", &["a", "b"]);
        source.insert_names("StrmE", &["c", "d"]);
        let mut sess = StreamSession::new(mapping.clone(), Vec::new(), source.clone());
        let q = Query::parse(&["x"], "exists z. StrmT(x, z)").unwrap();
        sess.register("left", q.clone(), StreamRegime::Certain);

        let up = Update::new().retract_names("StrmE", &["a", "b"]);
        let report = sess.update(&up);
        assert!(
            matches!(report.queries[0].1, QueryPath::DeltaPlan { .. }),
            "a retraction takes the delta-plan path: {:?}",
            report.queries
        );
        up.apply(&mut source);
        assert_eq!(
            names(&sess.answers("left").unwrap().0),
            names(&oracle(&mapping, &source, &q))
        );
    }

    /// What stays outside the maintained representation still recomputes
    /// when a retraction reaches it: a non-positive `certain` query, and a
    /// positive query under GCWA\*.
    #[test]
    fn retraction_recomputes_outside_the_maintained_representation() {
        let mapping = Mapping::parse("StrmT(x:cl, y:cl) <- StrmE(x, y)").unwrap();
        let mut source = Instance::new();
        source.insert_names("StrmE", &["a", "b"]);
        source.insert_names("StrmE", &["b", "c"]);
        let mut sess = StreamSession::new(mapping.clone(), Vec::new(), source.clone());
        let pos = Query::parse(&["x", "y"], "StrmT(x, y)").unwrap();
        let neg = Query::parse(&["x"], "exists y. StrmT(x, y) & !StrmT(y, x)").unwrap();
        sess.register("neg", neg.clone(), StreamRegime::Certain);
        sess.register("gcwa", pos.clone(), StreamRegime::GcwaStar);

        let up = Update::new().retract_names("StrmE", &["b", "c"]);
        let report = sess.update(&up);
        for (name, path) in &report.queries {
            assert_eq!(*path, QueryPath::Recomputed, "{name}");
        }
        up.apply(&mut source);
        assert_eq!(
            names(&sess.answers("neg").unwrap().0),
            names(&oracle(&mapping, &source, &neg))
        );
        let g = gcwa_star_answers(&mapping, &source, &pos, &RegimeBudget::default());
        assert_eq!(
            names(&sess.gcwa("gcwa").unwrap().answers),
            names(&g.answers)
        );
    }

    /// A mapping constant sits in answers whether or not the source
    /// mentions it; while it is outside `adom(S)` those answers are held
    /// back, and they return when it re-enters — also when the batch does
    /// not reach the query's relations.
    #[test]
    fn palette_holds_back_answers_on_a_mapping_constant() {
        let mapping =
            Mapping::parse("StrmT(x:cl, 'k':cl) <- StrmE(x); StrmU(x:cl) <- StrmF(x)").unwrap();
        let mut source = Instance::new();
        source.insert_names("StrmE", &["a"]);
        source.insert_names("StrmF", &["k"]);
        let mut sess = StreamSession::new(mapping.clone(), Vec::new(), source.clone());
        let q = Query::parse(&["x", "y"], "StrmT(x, y)").unwrap();
        sess.register("all", q.clone(), StreamRegime::Certain);
        assert_eq!(sess.answers("all").unwrap().0.len(), 1);

        let out = Update::new().retract_names("StrmF", &["k"]);
        let back = Update::new().insert_names("StrmF", &["k"]);
        let grow_out = out.clone().insert_names("StrmE", &["b"]);
        for (up, len, skipped) in [(&out, 0, true), (&back, 1, true), (&grow_out, 0, false)] {
            let report = sess.update(up);
            assert_eq!(report.queries[0].1 == QueryPath::Skipped, skipped, "{up}");
            up.apply(&mut source);
            let got = sess.answers("all").unwrap().0;
            assert_eq!(names(&got), names(&oracle(&mapping, &source, &q)), "{up}");
            assert_eq!(got.len(), len, "{up}");
        }
        sess.update(&back);
        assert_eq!(sess.answers("all").unwrap().0.len(), 2);
    }

    /// A csol tuple that loses its last witness and gains a new one in
    /// one batch did not change; with `adom(S)` unmoved as well, even a
    /// non-positive query skips the batch.
    #[test]
    fn reborn_csol_tuple_skips_a_non_positive_query() {
        let mapping = Mapping::parse("StrmP(x:cl) <- StrmE(x, y)").unwrap();
        let mut source = Instance::new();
        source.insert_names("StrmE", &["a", "b1"]);
        source.insert_names("StrmE", &["b1", "b2"]);
        let mut sess = StreamSession::new(mapping.clone(), Vec::new(), source.clone());
        let q = Query::parse(&["x"], "StrmP(x) & !StrmP('b2')").unwrap();
        sess.register("neg", q.clone(), StreamRegime::Certain);

        let up = Update::new()
            .retract_names("StrmE", &["a", "b1"])
            .insert_names("StrmE", &["a", "b2"]);
        let report = sess.update(&up);
        assert!(report.update.changed_rels().is_empty());
        assert_eq!(report.queries[0].1, QueryPath::Skipped);
        up.apply(&mut source);
        assert_eq!(
            names(&sess.answers("neg").unwrap().0),
            names(&oracle(&mapping, &source, &q))
        );
    }

    /// A carried refutation survives a batch that leaves its witness a
    /// member and still refutes, with no search; a batch that removes the
    /// open tuple licensing its extra kills it, and the re-search flips
    /// the answer to certain.
    #[test]
    fn a_dead_witness_is_researched_and_the_answer_flips() {
        let mapping = Mapping::parse("StrmS(p:cl, a:op) <- StrmP(p)").unwrap();
        let mut source = Instance::new();
        source.insert_names("StrmP", &["p9"]);
        let mut sess = StreamSession::new(mapping.clone(), Vec::new(), source.clone());
        let q = Query::boolean(
            dx_logic::parse_formula("forall p a1 a2. (StrmS(p, a1) & StrmS(p, a2) -> a1 = a2)")
                .unwrap(),
        );
        sess.register("one", q.clone(), StreamRegime::Certain);
        assert!(
            sess.answers("one").unwrap().0.is_empty(),
            "p9's author replicates"
        );

        let add = Update::new().insert_names("StrmP", &["p8"]);
        let gone = Update::new()
            .retract_names("StrmP", &["p8"])
            .retract_names("StrmP", &["p9"]);
        let steps = [
            (&add, QueryPath::DeltaPlan { delta_answers: 0 }, (1, 0), 0),
            (&gone, QueryPath::Recomputed, (0, 1), 1),
        ];
        for (up, path, (revalidated, researched), len) in steps {
            let report = sess.update(up);
            assert_eq!(report.queries[0].1, path, "{up}");
            let counts = report.witnesses[0];
            assert_eq!(
                (counts.revalidated, counts.researched),
                (revalidated, researched),
                "{up}"
            );
            up.apply(&mut source);
            let (got, completeness) = sess.answers("one").unwrap();
            assert_eq!(completeness, Completeness::Exact, "{up}");
            assert_eq!(got.len(), len, "{up}");
            assert_eq!(names(&got), names(&oracle(&mapping, &source, &q)), "{up}");
        }
    }

    #[test]
    fn untouched_query_is_skipped() {
        let mapping =
            Mapping::parse("StrmT(x:cl, y:cl) <- StrmE(x, y); StrmU(x:cl) <- StrmF(x)").unwrap();
        let mut source = Instance::new();
        source.insert_names("StrmE", &["a", "b"]);
        source.insert_names("StrmF", &["q"]);
        let mut sess = StreamSession::new(mapping, Vec::new(), source);
        let qt = Query::parse(&["x", "y"], "StrmT(x, y)").unwrap();
        let qu = Query::parse(&["x"], "StrmU(x)").unwrap();
        sess.register("t", qt, StreamRegime::Certain);
        sess.register("u", qu, StreamRegime::Certain);

        let up = Update::new().insert_names("StrmE", &["b", "c"]);
        let report = sess.update(&up);
        let by_name: std::collections::BTreeMap<_, _> = report.queries.into_iter().collect();
        assert!(matches!(by_name["t"], QueryPath::DeltaPlan { .. }));
        assert_eq!(by_name["u"], QueryPath::Skipped);
        assert_eq!(sess.answers("u").unwrap().0.len(), 1);
    }

    #[test]
    fn non_monotone_regimes_recompute_and_match_batch_entry_points() {
        let mapping = Mapping::parse("StrmT(x:cl, y:cl) <- StrmE(x, y)").unwrap();
        let mut source = Instance::new();
        source.insert_names("StrmE", &["a", "b"]);
        let mut sess = StreamSession::new(mapping.clone(), Vec::new(), source.clone());
        let q = Query::parse(&["x", "y"], "StrmT(x, y)").unwrap();
        let neg = Query::parse(&["x"], "exists y. StrmT(x, y) & !StrmT(y, x)").unwrap();
        sess.register("gcwa", q.clone(), StreamRegime::GcwaStar);
        sess.register("approx", neg.clone(), StreamRegime::Approx);

        let up = Update::new().insert_names("StrmE", &["b", "a"]);
        let report = sess.update(&up);
        for (_, path) in &report.queries {
            assert_eq!(*path, QueryPath::Recomputed, "regimes never take deltas");
        }
        up.apply(&mut source);
        let g = gcwa_star_answers(&mapping, &source, &q, &RegimeBudget::default());
        assert_eq!(
            names(&sess.gcwa("gcwa").unwrap().answers),
            names(&g.answers)
        );
        let a = crate::regimes::approx_certain_answers(&mapping, &source, &neg, None);
        assert_eq!(
            names(&sess.approx("approx").unwrap().lower),
            names(&a.lower)
        );
        assert_eq!(
            names(&sess.approx("approx").unwrap().upper),
            names(&a.upper)
        );
    }

    #[test]
    fn palette_filter_tracks_source_retractions() {
        // `b` occurs only via StrmE(a, b); retracting it must drop the
        // answers mentioning `b`.
        let mapping = Mapping::parse("StrmT(x:cl, y:cl) <- StrmE(x, y)").unwrap();
        let mut source = Instance::new();
        source.insert_names("StrmE", &["a", "b"]);
        source.insert_names("StrmE", &["a", "c"]);
        let mut sess = StreamSession::new(mapping.clone(), Vec::new(), source.clone());
        let q = Query::parse(&["x", "y"], "StrmT(x, y)").unwrap();
        sess.register("all", q.clone(), StreamRegime::Certain);
        assert_eq!(sess.answers("all").unwrap().0.len(), 2);

        let up = Update::new().retract_names("StrmE", &["a", "b"]);
        sess.update(&up);
        up.apply(&mut source);
        let got = sess.answers("all").unwrap().0;
        assert_eq!(names(&got), names(&oracle(&mapping, &source, &q)));
        assert!(!got.contains(&Tuple::from_names(&["a", "b"])));
    }
}
