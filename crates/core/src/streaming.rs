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
//!   [`PlanCatalog::delta_in`]) over the added tuples for the gained
//!   answers, and over the removed ones for the answers that may be lost,
//!   re-deriving each of those by first-witness execution on the
//!   post-update solution ([`IncrementalExchange::csol_index`]). By
//!   Proposition 3 the null-free answers are the certain ones, so a
//!   positive compiled query recomputes only when it is registered.
//! * **Recompute** — non-positive queries and the non-monotone regimes
//!   (GCWA\*, under/over approximation) re-run on the *maintained*
//!   canonical solution — still skipping the chase, which is the dominant
//!   cost — through the [`Exchange`] methods over the borrowed maintained
//!   solution.
//!
//! A maintained answer set is kept ready to read: its null-free answers
//! are split into those whose constants all lie in the genericity palette
//! `adom(S) ∪ consts(Q)`, which [`StreamSession::answers`] clones, and the
//! rest, held back. Only a constant of the mapping can put an answer
//! outside the palette, so the held-back set is almost always empty. The
//! exchange reports the constants that entered and left `adom(S)` in each
//! batch, and the session moves answers between the two sets by them.

use crate::regimes::{ApproxOutcome, GcwaOutcome, RegimeBudget};
use crate::Exchange;
use dx_chase::{Mapping, TargetDep};
use dx_engine::{IncrementalExchange, UpdateReport};
use dx_logic::classify;
use dx_logic::Query;
use dx_query::{PlanCatalog, QueryEval};
use dx_relation::{ConstId, Instance, RelSym, Relation, Tuple, Update};
use dx_solver::{Completeness, SearchBudget};
use std::collections::BTreeSet;
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
    /// Delta-plan maintenance ([`dx_query::dred`]) over the batch's added
    /// and removed tuples.
    DeltaPlan {
        /// Null-free answers the batch gained plus those it lost.
        delta_answers: usize,
    },
    /// Full re-evaluation on the maintained canonical solution.
    Recomputed,
}

/// The maintained answer state of one registered query.
enum AnswerState {
    /// Positive compiled `certain` query, carried across batches by delta
    /// plans (completeness is always exact on this path).
    Maintained(Maintained),
    /// `certain` query outside the maintained representation.
    Computed(Relation, Completeness),
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
            state: AnswerState::Computed(Relation::new(0), Completeness::Exact),
        };
        self.recompute(&mut reg);
        self.queries.push(reg);
    }

    /// The current `(answers, completeness)` of a registered query. For
    /// the approximation regime this is the sound lower bound (see
    /// [`StreamSession::approx`] for the bracket).
    pub fn answers(&self, name: &str) -> Option<(Relation, Completeness)> {
        let reg = self.queries.iter().find(|r| r.name == name)?;
        Some(match &reg.state {
            AnswerState::Maintained(m) => (m.ready.clone(), Completeness::Exact),
            AnswerState::Computed(rel, c) => (rel.clone(), *c),
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
        // markers shape `Rep_A`), so any delta at all forces a recompute.
        let settled = changed.is_empty()
            && report.adom_entered.is_empty()
            && report.adom_left.is_empty()
            && !report.marks_changed;
        // The batch's relational delta, shared by every maintained query: a
        // tuple still in `rel(csol)` under another annotation was not removed.
        let index = self.inc.csol_index();
        let mut added = Instance::new();
        for (rel, at) in &report.added {
            added.insert(*rel, at.tuple.clone());
        }
        let mut removed = Instance::new();
        for (rel, at) in &report.removed {
            if !index.contains(*rel, &at.tuple) {
                removed.insert(*rel, at.tuple.clone());
            }
        }

        let mut paths = Vec::with_capacity(self.queries.len());
        let mut queries = std::mem::take(&mut self.queries);
        for reg in &mut queries {
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
                _ => {
                    self.recompute(reg);
                    QueryPath::Recomputed
                }
            };
            paths.push((reg.name.clone(), path));
        }
        self.queries = queries;
        SessionReport {
            update: report,
            queries: paths,
        }
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
    fn recompute(&self, reg: &mut Registered) {
        let ex = Exchange::from_csol(&self.mapping, self.inc.source(), self.inc.csol());
        let budget = self.search_budget.as_ref();
        reg.state = match reg.regime {
            StreamRegime::Certain => {
                let ev = PlanCatalog::shared().eval_in(&reg.query, &self.mapping.target);
                match ev.compiled() {
                    Some(plan) if classify::is_positive(&reg.query.formula) => {
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
                    _ => {
                        let (rel, c) = ex.certain_answers(&reg.query, budget);
                        AnswerState::Computed(rel, c)
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
