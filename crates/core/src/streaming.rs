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
//!   the query reads (and, outside the maintained-raw representation, the
//!   candidate palette did not move): the stored answers are still exact.
//! * **Delta plan** — positive compiled queries under the `certain` regime
//!   with an *insert-only* delta on their relations: the cached
//!   [`dx_query::delta_plan`] variant (via
//!   [`PlanCatalog::delta_in`]) runs over the post-update solution with
//!   the delta tuples exposed as Δ-relations ([`DeltaStore`]), and the new
//!   null-free answers are unioned into the maintained raw set. Soundness
//!   is the classic differentiation argument: every genuinely new answer
//!   has a witness using at least one delta tuple, and positive plans are
//!   monotone, so re-derived old answers are harmless under set union.
//! * **Recompute** — everything else: retractions reaching the query's
//!   relations, non-positive queries, and the non-monotone regimes
//!   (GCWA\*, under/over approximation) re-run on the *maintained*
//!   canonical solution — still skipping the chase, which is the dominant
//!   cost — through the [`Exchange`] methods over the borrowed maintained
//!   solution (positive compiled queries execute straight on the session's
//!   persistent index of it).
//!
//! The maintained raw set stores **unfiltered** null-free answers; the
//! genericity filter (answers range over `adom(S) ∪ constants(Q)`) is
//! applied at read time against the *current* source. This keeps the
//! maintained representation monotone under insert-only deltas even
//! though the palette itself moves with the source.

use crate::regimes::{ApproxOutcome, GcwaOutcome, RegimeBudget};
use crate::Exchange;
use dx_chase::{Mapping, TargetDep};
use dx_engine::{IncrementalExchange, UpdateReport};
use dx_logic::classify;
use dx_logic::Query;
use dx_query::{DeltaStore, PlanCatalog};
use dx_relation::{ConstId, DeltaIndex, Instance, RelSym, Relation, Update};
use dx_solver::{Completeness, SearchBudget};
use std::collections::BTreeSet;

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
    /// Delta-plan evaluation over the Δ-relations; counts the (possibly
    /// overlapping) answer rows the variant produced.
    DeltaPlan {
        /// Null-free answer tuples the delta plan yielded.
        delta_answers: usize,
    },
    /// Fallback: full re-evaluation on the maintained canonical solution.
    Recomputed,
}

/// The maintained answer state of one registered query.
enum AnswerState {
    /// Positive compiled `certain` query: the unfiltered null-free answer
    /// set, grown monotonically by delta plans (palette filter applied at
    /// read time; completeness is always exact on this path).
    MaintainedRaw(Relation),
    /// `certain` query outside the maintained representation.
    Computed(Relation, Completeness),
    /// GCWA\* outcome, recomputed when the delta reaches the query.
    Gcwa(GcwaOutcome),
    /// Approximation bracket, recomputed when the delta reaches the query.
    Approx(ApproxOutcome),
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
    queries: Vec<Registered>,
    regime_budget: RegimeBudget,
    search_budget: Option<SearchBudget>,
    /// The canonical solution's relational part as a persistent refcounted
    /// index — the base store every delta plan and every positive
    /// recompute executes against. One refcount per *annotated* tuple, so
    /// the report's annotated-level flips keep the set view exact when two
    /// annotations share a tuple.
    csol_idx: DeltaIndex,
}

impl StreamSession {
    /// Open a session over `source` (constraints are target tgds/egds the
    /// chased layer maintains; queries evaluate on the canonical
    /// solution, mirroring the batch `certain_*` entry points).
    pub fn new(mapping: Mapping, constraints: Vec<TargetDep>, source: Instance) -> Self {
        let inc = IncrementalExchange::new(mapping.clone(), constraints, source);
        let mut csol_idx = DeltaIndex::new();
        for (rel, r) in inc.csol().relations() {
            csol_idx.declare(rel, r.arity());
        }
        let tuples: Vec<_> = inc
            .csol()
            .relations()
            .flat_map(|(rel, _)| inc.csol().tuples(rel).map(move |t| (rel, t.tuple.clone())))
            .collect();
        for (rel, t) in tuples {
            csol_idx.insert(rel, t);
        }
        StreamSession {
            inc,
            mapping,
            queries: Vec::new(),
            regime_budget: RegimeBudget::default(),
            search_budget: None,
            csol_idx,
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
            AnswerState::MaintainedRaw(raw) => {
                (self.filter_palette(raw, &reg.query), Completeness::Exact)
            }
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
        // The palette scan is O(adom(S)) per batch; only the search-based
        // states consult it for their skip decision, so a session holding
        // nothing but maintained-raw sets stays O(delta) here.
        let needs_palette = self
            .queries
            .iter()
            .any(|r| !matches!(r.state, AnswerState::MaintainedRaw(_)));
        let palette_before = if needs_palette {
            Some(self.palette())
        } else {
            None
        };
        let report = self.inc.update(up);
        // Keep the persistent base index in lockstep with the canonical
        // solution (one refcount per annotated tuple — see the field doc).
        for (rel, t) in &report.removed {
            self.csol_idx.remove(*rel, &t.tuple);
        }
        for (rel, t) in &report.added {
            self.csol_idx.declare(*rel, t.tuple.arity());
            self.csol_idx.insert(*rel, t.tuple.clone());
        }
        let palette_moved = match &palette_before {
            Some(p) => self.palette() != *p,
            None => false,
        };
        let changed = report.changed_rels();

        let mut paths = Vec::with_capacity(self.queries.len());
        let mut queries = std::mem::take(&mut self.queries);
        for reg in &mut queries {
            let touched: BTreeSet<RelSym> = changed.intersection(&reg.rels).copied().collect();
            // The maintained-raw representation depends only on the
            // relations the (positive) query reads, and re-filters at read
            // time — palette movement and markers are irrelevant. The
            // search-based states depend on the *whole* solution (extra
            // open tuples draw constants from the full active domain, and
            // empty markers shape `Rep_A`), so any delta at all forces a
            // recompute.
            let unaffected = if matches!(reg.state, AnswerState::MaintainedRaw(_)) {
                touched.is_empty()
            } else {
                changed.is_empty() && !palette_moved && !report.marks_changed
            };
            let path = if unaffected {
                QueryPath::Skipped
            } else if let Some(n) = self.try_delta_path(reg, &report, &touched) {
                QueryPath::DeltaPlan { delta_answers: n }
            } else {
                self.recompute(reg);
                QueryPath::Recomputed
            };
            paths.push((reg.name.clone(), path));
        }
        self.queries = queries;
        SessionReport {
            update: report,
            queries: paths,
        }
    }

    /// Attempt the delta-plan path; `Some(rows)` on success.
    fn try_delta_path(
        &self,
        reg: &mut Registered,
        report: &UpdateReport,
        touched: &BTreeSet<RelSym>,
    ) -> Option<usize> {
        let AnswerState::MaintainedRaw(raw) = &mut reg.state else {
            return None;
        };
        if touched.is_empty() {
            // Only the palette moved: the raw set is still the exact
            // null-free answer set, and reads re-filter. Nothing to do.
            return Some(0);
        }
        // Any retraction on a relation the query reads can shrink the
        // answer set, which no unioned variant expresses.
        if report.removed.iter().any(|(r, _)| reg.rels.contains(r)) {
            return None;
        }
        let dp = PlanCatalog::shared().delta_in(&reg.query, &self.mapping.target, touched)?;
        let compiled = PlanCatalog::shared()
            .eval_in(&reg.query, &self.mapping.target)
            .compiled()?
            .clone();
        let mut delta = Instance::new();
        for (rel, t) in report.added.iter().filter(|(r, _)| reg.rels.contains(r)) {
            delta.declare(*rel, t.tuple.arity());
            delta.insert(*rel, t.tuple.clone());
        }
        let store = DeltaStore::new(&self.csol_idx, &delta);
        let rows = dx_query::exec::exec(&dp, &store);
        let cols: Vec<usize> = compiled
            .head()
            .iter()
            .map(|v| rows.col(*v).expect("head variable is produced"))
            .collect();
        let mut n = 0;
        for r in &rows.rows {
            let t = dx_relation::Tuple::new(cols.iter().map(|&c| r[c]).collect::<Vec<_>>());
            if t.is_ground() {
                raw.insert(t);
                n += 1;
            }
        }
        Some(n)
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
                        let all = plan.answers_store(&self.csol_idx);
                        let ground = all.iter().filter(|t| t.is_ground()).cloned();
                        AnswerState::MaintainedRaw(Relation::from_tuples(all.arity(), ground))
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

    /// The current genericity palette: `adom(S)` (query constants are
    /// added per query at filter time).
    fn palette(&self) -> BTreeSet<ConstId> {
        self.inc.source().adom_consts()
    }

    /// Read-time genericity filter for the maintained-raw representation —
    /// replicates the positive fast path of [`Exchange::certain_answers`]
    /// exactly.
    fn filter_palette(&self, raw: &Relation, query: &Query) -> Relation {
        let mut const_set = self.palette();
        const_set.extend(query.formula.constants());
        let mut rel = Relation::new(raw.arity());
        for t in raw.iter() {
            if t.consts().all(|c| const_set.contains(&c)) {
                rel.insert(t.clone());
            }
        }
        rel
    }
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
    fn retraction_falls_back_to_recompute_and_matches_oracle() {
        let mapping = Mapping::parse("StrmT(x:cl, z:op) <- StrmE(x, y)").unwrap();
        let mut source = Instance::new();
        source.insert_names("StrmE", &["a", "b"]);
        source.insert_names("StrmE", &["c", "d"]);
        let mut sess = StreamSession::new(mapping.clone(), Vec::new(), source.clone());
        let q = Query::parse(&["x"], "exists z. StrmT(x, z)").unwrap();
        sess.register("left", q.clone(), StreamRegime::Certain);

        let up = Update::new().retract_names("StrmE", &["a", "b"]);
        let report = sess.update(&up);
        assert_eq!(report.queries[0].1, QueryPath::Recomputed);
        up.apply(&mut source);
        assert_eq!(
            names(&sess.answers("left").unwrap().0),
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
        // `b` occurs only via StrmE(a, b); retracting it must drop answers
        // mentioning `b` even though the raw set is maintained monotonically.
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
