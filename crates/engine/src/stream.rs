//! Incremental data exchange: maintain the canonical solution under
//! source [`Update`] batches instead of re-chasing from scratch.
//!
//! [`IncrementalExchange`] owns a ground source instance and keeps two
//! layers of derived state consistent with it across update batches. Both
//! run the batch engines: STD bodies on `dx-query`'s compiled plans and
//! delta plans, the target on the loop of [`crate::IndexedChase`], with
//! each constraint compiled once to its trigger query (`crate::chase`).
//! What is incremental is only the bookkeeping around them.
//!
//! **Layer 1 — the annotated canonical solution `CSol_A(S)`.** For every
//! STD the engine maintains the set of body *witnesses* (satisfying
//! assignments over the source) together with the nulls each witness
//! minted. The source is mirrored into one relational index
//! ([`DeltaIndex`]), updated wherever the source is, and each STD holds
//! its body's compiled plan (the one [`dx_query::PlannedBodyEval`] runs,
//! with the body's free variables as its head). A touched STD is
//! maintained by [`dx_query::dred`] over that index: one pass over the new
//! source finds the newborn witnesses, one over the old source the dying
//! ones, and each candidate is decided on the new source — an insertion
//! under the §1 rule's negated `Assign` kills a witness through the same
//! copies as a retraction of its `Papers` tuple. Three cases re-evaluate
//! the body and diff against the stored witness set: a body outside the
//! safe-range fragment, which the tree walker evaluates over the source,
//! and a changed relation under two negations or on a seeded anti-join's
//! correlated side, which [`dx_query::delta_plan`] refuses. Head tuples are
//! reference-counted across witnesses (`(rel, annotated-tuple) → producer
//! count`) so a shared ground head tuple survives until its *last*
//! witness dies, while null-bearing head tuples (unique to their witness,
//! since nulls are fresh) are removed — and their nulls
//! garbage-collected from the justification table — exactly when their
//! witness dies. Empty-annotated-tuple markers `(_, α)` are likewise
//! counted per `(relation, annotation)` across the STD head atoms whose
//! witness set is empty.
//!
//! **Layer 2 — the chased target (when target constraints are present).**
//! The engine closes the target under the constraints with
//! [`crate::IndexedChase`]'s semi-naive loop, run over a store that
//! *records derivations*: each tgd firing logs the tuple ids its body
//! matched and the head ids it produced, and each egd merge logs the ids
//! its match rested on, the ids it retired (with their pre-merge content)
//! and the ids it rewrote them into. Retraction uses **overdelete +
//! re-derive** (DRed-style), not derivation counting — counting alone is
//! unsound for recursive tgds, where a cycle of derivations (e.g. a
//! symmetry tgd) keeps tuples alive with no surviving base support. A base
//! deletion kills every firing and merge whose recorded body contains a
//! deleted id, transitively overdeleting what they produced; a dead
//! merge's surviving pre-images are **restored**. Overdeleted tuples still
//! present in Layer 1 are re-inserted, the rest get a **head-seeded
//! re-derivation** pass (unify the lost tuple with each tgd head, run the
//! tgd's trigger query under the bindings of the head's body variables,
//! and take the chase's step at each active trigger it returns), and the
//! closing run of the loop restores satisfaction,
//! re-merging restored pre-images wherever an egd still fires — so target
//! constraints are maintained through merges without a re-chase.
//! Empty-marker transitions are copied into the target layer as they are,
//! since the chase never reads markers. A full **rebuild** of the target
//! layer (a from-scratch re-chase of the maintained `CSol_A`) remains for
//! the initial build, after `Failed`/`StepLimit` outcomes, and as the
//! log's garbage collection once its dead slots outnumber the live ones.
//! The rebuild, the incremental path and the batch chase all step through
//! the same loop, so there is a single code path to trust.
//!
//! The exchange also counts each constant's occurrences in the source, so
//! [`IncrementalExchange::adom_contains`] is O(1) and every
//! [`UpdateReport`] lists the constants that entered and left `adom(S)` —
//! what the query layer moves its genericity palette by.
//!
//! The full protocol — including the per-regime soundness table for
//! certain/possible/GCWA*/approx answers — is documented in
//! `DESIGN.md §Streaming data exchange`; the query-layer maintenance
//! built on top of this type lives in `dx-core`'s `StreamSession`.

use crate::chase::{self, Asg, ChaseStore, Trigger};
use crate::store::{IndexedInstance, Inserted, TupleId};
use dx_chase::chase_engine::{ChaseOutcome, DEFAULT_CHASE_LIMIT};
use dx_chase::target_deps::{TargetDep, Tgd};
use dx_chase::{head_env, instantiate_atom, CanonicalSolution, Justification, Mapping, Std};
use dx_logic::Term;
use dx_query::{CompiledQuery, PlanCatalog};
use dx_relation::{
    AnnInstance, AnnTuple, Annotation, AppliedUpdate, ConstId, DeltaIndex, FastMap, FastSet,
    Instance, NullGen, NullId, RelSym, Update, Value, Var,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// How one STD was maintained during an update batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StdPath {
    /// Body relations disjoint from the delta — nothing to do.
    Skipped,
    /// Maintained by delta plans: [`dx_query::dred`] over the source
    /// index found the dying and the newborn witnesses.
    Seeded,
    /// Witnesses re-evaluated and diffed against the stored set: the body
    /// did not compile, or a changed relation sits under two negations or
    /// on a seeded anti-join's correlated side.
    Recomputed,
}

/// How the chased target layer was maintained during an update batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetPath {
    /// No target constraints (or the canonical solution did not change) —
    /// the target layer is the canonical solution itself.
    None,
    /// Overdelete + re-derive + semi-naive closure over the recorded
    /// derivation log.
    Incremental {
        /// Tuples removed by the overdelete cascade (including those
        /// subsequently re-inserted or re-derived).
        overdeleted: usize,
        /// Chase steps spent by re-derivation and the closing run.
        steps: usize,
    },
    /// Full re-chase of the maintained canonical solution (a
    /// non-`Satisfied` prior outcome, or the derivation log's garbage
    /// collection).
    Rebuilt {
        /// Chase steps spent by the rebuild.
        steps: usize,
    },
}

/// What one [`IncrementalExchange::update`] call did.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// Source tuples whose membership actually flipped.
    pub effective_ops: usize,
    /// Per-STD maintenance path taken, by STD index.
    pub std_paths: Vec<StdPath>,
    /// Witnesses that died across all STDs.
    pub witnesses_died: usize,
    /// Witnesses born across all STDs.
    pub witnesses_born: usize,
    /// Annotated tuples removed from the canonical solution.
    pub csol_removed: usize,
    /// Annotated tuples added to the canonical solution.
    pub csol_added: usize,
    /// Nulls garbage-collected (all their derivations died).
    pub nulls_collected: usize,
    /// The annotated tuples the batch added to the canonical solution —
    /// the csol-level delta downstream consumers (e.g. delta-plan query
    /// maintenance) feed forward.
    pub added: Vec<(RelSym, AnnTuple)>,
    /// The annotated tuples the batch removed from the canonical solution.
    pub removed: Vec<(RelSym, AnnTuple)>,
    /// Did any STD's empty-marker set flip (a witness set became empty or
    /// non-empty)? Markers are invisible to `rel(·)` but shape the
    /// representation space `Rep_A`, so search-based consumers must
    /// recompute when this is set even if no tuple changed.
    pub marks_changed: bool,
    /// How the chased target layer was maintained.
    pub target: TargetPath,
    /// Constants that entered `adom(S)`: absent from the source before the
    /// batch, present after it. Sorted; net over the batch.
    pub adom_entered: Vec<ConstId>,
    /// Constants that left `adom(S)`: present before the batch, absent
    /// after it. Sorted; net over the batch, so a constant retracted and
    /// re-inserted in one batch appears in neither list.
    pub adom_left: Vec<ConstId>,
}

impl UpdateReport {
    /// Target relations whose canonical-solution contents changed.
    pub fn changed_rels(&self) -> BTreeSet<RelSym> {
        self.added
            .iter()
            .chain(self.removed.iter())
            .map(|(rel, _)| *rel)
            .collect()
    }
}

/// Per-STD incremental state: the maintained witness set and the nulls
/// each witness minted.
struct StdState {
    /// The body compiled with head [`Std::body_vars`] (the
    /// [`PlanCatalog::formula`] entry [`dx_query::PlannedBodyEval`] runs);
    /// `None` when the body is not safe-range.
    plan: Option<Arc<CompiledQuery>>,
    /// Relations the body reads — used to skip untouched STDs.
    body_rels: BTreeSet<RelSym>,
    /// Free variables of the body, in [`Std::body_vars`] order.
    body_vars: Vec<Var>,
    /// witness row (in `body_vars` order) → nulls it minted, as
    /// `(existential var, null)` pairs.
    witnesses: BTreeMap<Vec<Value>, Vec<(Var, NullId)>>,
}

/// One entry of the target-layer derivation log: a tgd firing or an egd
/// merge. The ids its match rested on are registered in
/// [`TargetState::by_body`].
struct Firing {
    /// Ids the entry produced: a firing's head tuples, a merge's rewritten
    /// tuples — fresh, or found already present (overdeleting a duplicate
    /// is conservative but sound, since re-derivation restores
    /// independently supported tuples).
    heads: Vec<TupleId>,
    /// Ids a merge retired, whose pre-merge content waits in
    /// [`TargetState::retired`]; empty for a tgd firing.
    retired: Vec<TupleId>,
    /// Is this entry still supported (no recorded body tuple deleted)?
    alive: bool,
}

/// An empty marker that entered (`true`) or left (`false`) the canonical
/// solution during a batch.
type MarkFlip = (RelSym, Annotation, bool);

/// The chased target layer: index and derivation log.
struct TargetState {
    idx: IndexedInstance,
    outcome: ChaseOutcome,
    /// Ids of the Layer-1 (canonical-solution) tuples inside `idx`,
    /// keyed by their annotated content.
    base_ids: FastMap<(RelSym, AnnTuple), TupleId>,
    firings: Vec<Firing>,
    /// body tuple id → indices of the firings and merges that matched it.
    by_body: FastMap<TupleId, Vec<usize>>,
    /// merge output id → indices of the merges that produced it.
    made_by: FastMap<TupleId, Vec<usize>>,
    /// retired id → its pre-merge content, while the merge that retired
    /// it is alive.
    retired: FastMap<TupleId, (RelSym, AnnTuple)>,
    /// retired id → the id holding its content now: the merge's output,
    /// or the tuple it was restored as.
    moved: FastMap<TupleId, TupleId>,
    /// restored id → the retired ids whose content it holds again; the
    /// two die together.
    restored: FastMap<TupleId, Vec<TupleId>>,
}

/// Incrementally maintained data exchange over a mutable ground source
/// (see the module docs for the delta protocol).
///
/// ```
/// use dx_chase::Mapping;
/// use dx_engine::IncrementalExchange;
/// use dx_relation::{Instance, Update};
///
/// let mapping = Mapping::parse("R(x:cl, z:op) <- E(x, y)").unwrap();
/// let mut source = Instance::new();
/// source.insert_names("E", &["a", "b"]);
///
/// let mut inc = IncrementalExchange::new(mapping, Vec::new(), source);
/// assert_eq!(inc.csol().tuple_count(), 1);
///
/// let report = inc.update(
///     &Update::new()
///         .insert_names("E", &["b", "c"])
///         .retract_names("E", &["a", "b"]),
/// );
/// assert_eq!(report.witnesses_born, 1);
/// assert_eq!(report.witnesses_died, 1);
/// assert_eq!(report.nulls_collected, 1);
/// assert_eq!(inc.csol().tuple_count(), 1);
/// ```
pub struct IncrementalExchange {
    mapping: Mapping,
    /// The target constraints, each compiled once to its trigger query.
    triggers: Vec<Trigger>,
    source: Instance,
    /// `source` as the relational index STD body plans and their delta
    /// plans probe, updated wherever `source` is.
    source_index: DeltaIndex,
    gen: NullGen,
    stds: Vec<StdState>,
    /// `(rel, annotated head tuple) → number of witnesses producing it`.
    head_counts: FastMap<(RelSym, AnnTuple), u32>,
    /// `(rel, annotation) → number of empty-witness STD head atoms
    /// producing the empty marker `(_, α)``.
    mark_counts: FastMap<(RelSym, Annotation), u32>,
    /// Occurrences of each constant in the source, one per tuple position;
    /// its keys are exactly `adom(S)`.
    adom_counts: FastMap<ConstId, u32>,
    csol: AnnInstance,
    /// `rel(csol)` as the relational index delta plans and positive
    /// recomputes probe, updated wherever `csol` gains or loses a tuple
    /// or a relation. One refcount per *annotated* tuple, so a tuple
    /// live under two annotations stays visible until both are gone.
    csol_index: DeltaIndex,
    null_origin: BTreeMap<NullId, Justification>,
    target: Option<TargetState>,
}

impl IncrementalExchange {
    /// Build the exchange state for `source` under `mapping` and target
    /// `constraints`, chasing with the default step limit.
    ///
    /// Panics if the source is not ground (the data-exchange setting).
    pub fn new(mapping: Mapping, constraints: Vec<TargetDep>, source: Instance) -> Self {
        assert!(source.is_ground(), "source instances must be over Const");
        let source_index = DeltaIndex::from_instance(&source);
        let mut adom_counts: FastMap<ConstId, u32> = FastMap::default();
        for (_, r) in source.relations() {
            for c in r.iter().flat_map(|t| t.consts()) {
                *adom_counts.entry(c).or_insert(0) += 1;
            }
        }
        let mut inc = IncrementalExchange {
            stds: mapping
                .stds
                .iter()
                .map(|std| {
                    let body_vars = std.body_vars();
                    StdState {
                        plan: PlanCatalog::shared().formula(&std.body, &body_vars).ok(),
                        body_rels: std.body.relations().into_iter().map(|(r, _)| r).collect(),
                        body_vars,
                        witnesses: BTreeMap::new(),
                    }
                })
                .collect(),
            mapping,
            triggers: constraints.iter().map(Trigger::compile).collect(),
            source,
            source_index,
            gen: NullGen::new(),
            head_counts: FastMap::default(),
            mark_counts: FastMap::default(),
            adom_counts,
            csol: AnnInstance::new(),
            csol_index: DeltaIndex::new(),
            null_origin: BTreeMap::new(),
            target: None,
        };
        // Initial build = the canonical-solution construction, executed
        // through the same birth path updates use (so null numbering
        // follows witness order exactly like `canonical_solution`).
        for i in 0..inc.stds.len() {
            let rows = inc.witness_rows(i);
            if rows.is_empty() {
                let Self {
                    mapping,
                    mark_counts,
                    csol,
                    csol_index,
                    ..
                } = &mut inc;
                for atom in &mapping.stds[i].head {
                    let slot = mark_counts.entry((atom.rel, atom.ann.clone())).or_insert(0);
                    *slot += 1;
                    if *slot == 1 {
                        csol.insert_empty_mark(atom.rel, atom.ann.clone());
                        csol_index.declare(atom.rel, atom.ann.arity());
                    }
                }
            }
            let mut report = UpdateReport::empty(0);
            let mut added = Vec::new();
            for row in rows {
                inc.birth_witness(i, row, &mut report, &mut added);
            }
        }
        if !inc.triggers.is_empty() {
            inc.rebuild_target();
        }
        inc
    }

    /// The current source instance.
    pub fn source(&self) -> &Instance {
        &self.source
    }

    /// Is `c` in the source's active domain `adom(S)`? O(1): the exchange
    /// counts each constant's occurrences in the source.
    pub fn adom_contains(&self, c: ConstId) -> bool {
        self.adom_counts.contains_key(&c)
    }

    /// The maintained annotated canonical solution `CSol_A(S)`.
    pub fn csol(&self) -> &AnnInstance {
        &self.csol
    }

    /// `rel(CSol_A(S))` as a relational index, maintained with the
    /// canonical solution: its live set is `csol().rel_part()`, its
    /// reference counts total `csol().tuple_count()`.
    pub fn csol_index(&self) -> &DeltaIndex {
        &self.csol_index
    }

    /// Assemble the maintained state into a [`CanonicalSolution`]
    /// (instance + null justifications + per-STD witness lists). Null
    /// *ids* differ from a from-scratch `canonical_solution` run after
    /// retractions (freshness is monotone; ids are never reused), but the
    /// result is isomorphic to it — the differential harness checks
    /// exactly that.
    pub fn canonical(&self) -> CanonicalSolution {
        CanonicalSolution {
            instance: self.csol.clone(),
            null_origin: self.null_origin.clone(),
            witnesses: self
                .stds
                .iter()
                .map(|st| st.witnesses.keys().cloned().collect())
                .collect(),
        }
    }

    /// The chased target instance: the canonical solution chased with the
    /// target constraints (or the canonical solution itself when there
    /// are none).
    pub fn chased(&self) -> AnnInstance {
        match &self.target {
            Some(ts) => ts.idx.to_ann(),
            None => self.csol.clone(),
        }
    }

    /// The chased target's indexed store — live tuples plus the dead slots
    /// the derivation log has not yet collected; `None` without target
    /// constraints.
    pub fn chased_index(&self) -> Option<&IndexedInstance> {
        self.target.as_ref().map(|ts| &ts.idx)
    }

    /// Outcome of the most recent target chase (`Satisfied` when there
    /// are no constraints).
    pub fn chase_outcome(&self) -> ChaseOutcome {
        match &self.target {
            Some(ts) => ts.outcome.clone(),
            None => ChaseOutcome::Satisfied,
        }
    }

    /// Apply one update batch and propagate it through both layers.
    pub fn update(&mut self, up: &Update) -> UpdateReport {
        let applied = up.apply(&mut self.source);
        let mut report = UpdateReport::empty(self.stds.len());
        report.effective_ops = applied.inserted.len() + applied.retracted.len();
        if applied.is_noop() {
            return report;
        }
        (report.adom_entered, report.adom_left) = self.shift_adom(&applied);
        let (mut added, mut removed) = (Instance::new(), Instance::new());
        for (rel, t) in &applied.retracted {
            self.source_index.remove(*rel, t);
            removed.insert(*rel, t.clone());
        }
        for (rel, t) in &applied.inserted {
            self.source_index.insert(*rel, t.clone());
            added.insert(*rel, t.clone());
        }
        let touched = applied.touched_rels();

        // Each touched STD's dying and newborn witnesses: by DRed over the
        // source index where `delta_plan` accepts the touched relations,
        // else by re-evaluating the body and diffing. The
        // `engine.stream.stds` span times this layer up to the new
        // canonical solution, apart from the answer plans read later.
        let stds_span = dx_obs::span!("engine.stream.stds");
        let mut dead: Vec<Vec<Vec<Value>>> = vec![Vec::new(); self.stds.len()];
        let mut born: Vec<Vec<Vec<Value>>> = vec![Vec::new(); self.stds.len()];
        for (i, st) in self.stds.iter().enumerate() {
            if st.body_rels.is_disjoint(&touched) {
                continue;
            }
            let delta = st.plan.as_ref().and_then(|plan| {
                let variant = dx_query::delta_plan(plan.plan(), &touched)?;
                Some(dx_query::dred(
                    plan,
                    &variant,
                    &self.source_index,
                    &added,
                    &removed,
                    &|t| st.witnesses.contains_key(t.values()),
                ))
            });
            match delta {
                Some(delta) => {
                    report.std_paths[i] = StdPath::Seeded;
                    dead[i] = delta.lost.iter().map(|t| t.values().to_vec()).collect();
                    born[i] = delta.gained.iter().map(|t| t.values().to_vec()).collect();
                }
                None => {
                    report.std_paths[i] = StdPath::Recomputed;
                    let rows = self.witness_rows(i);
                    dead[i] = (st.witnesses.keys())
                        .filter(|w| rows.binary_search(w).is_err())
                        .cloned()
                        .collect();
                    born[i] = rows
                        .into_iter()
                        .filter(|w| !st.witnesses.contains_key(w))
                        .collect();
                }
            }
        }

        // Apply witness deaths and births to the canonical solution.
        let mut mark_flips: Vec<MarkFlip> = Vec::new();
        let mut added_tuples: Vec<(RelSym, AnnTuple)> = Vec::new();
        let mut removed_tuples: Vec<(RelSym, AnnTuple)> = Vec::new();
        for i in 0..self.stds.len() {
            let was_empty = self.stds[i].witnesses.is_empty();
            for row in std::mem::take(&mut dead[i]) {
                self.kill_witness(i, &row, &mut report, &mut removed_tuples);
            }
            for row in std::mem::take(&mut born[i]) {
                self.birth_witness(i, row, &mut report, &mut added_tuples);
            }
            let now_empty = self.stds[i].witnesses.is_empty();
            if was_empty != now_empty {
                self.shift_marks(i, now_empty, &mut mark_flips);
            }
        }
        // A tuple that lost its last witness and gained a new one in the
        // same batch did not change.
        if !added_tuples.is_empty() && !removed_tuples.is_empty() {
            let gone: FastSet<&(RelSym, AnnTuple)> = removed_tuples.iter().collect();
            let back: FastSet<(RelSym, AnnTuple)> = (added_tuples.iter())
                .filter(|key| gone.contains(key))
                .cloned()
                .collect();
            added_tuples.retain(|key| !back.contains(key));
            removed_tuples.retain(|key| !back.contains(key));
            report.csol_added = added_tuples.len();
            report.csol_removed = removed_tuples.len();
        }
        drop(stds_span);

        // Propagate the canonical-solution delta into the chased target.
        if self.target.is_some()
            && (!added_tuples.is_empty() || !removed_tuples.is_empty() || !mark_flips.is_empty())
        {
            report.target = self.update_target(&added_tuples, &removed_tuples, &mark_flips);
        }
        report.added = added_tuples;
        report.removed = removed_tuples;
        report.marks_changed = !mark_flips.is_empty();
        report
    }

    /// STD `i`'s witnesses over the current source, sorted: its compiled
    /// body run on the source index, or the tree walker over the source
    /// when the body did not compile.
    fn witness_rows(&self, i: usize) -> Vec<Vec<Value>> {
        match &self.stds[i].plan {
            Some(plan) => (plan.answers_store(&self.source_index).iter())
                .map(|t| t.values().to_vec())
                .collect(),
            None => dx_chase::canonical::std_witnesses(&self.mapping.stds[i], &self.source),
        }
    }

    /// Move the per-constant occurrence counts across one applied batch and
    /// return the constants that entered and left `adom(S)`, net and
    /// sorted.
    fn shift_adom(&mut self, applied: &AppliedUpdate) -> (Vec<ConstId>, Vec<ConstId>) {
        // constant → was it in adom(S) before the batch?
        let mut before: BTreeMap<ConstId, bool> = BTreeMap::new();
        let signed = (applied.retracted.iter().map(|x| (x, false)))
            .chain(applied.inserted.iter().map(|x| (x, true)));
        for ((_, t), insert) in signed {
            for c in t.consts() {
                let n = self.adom_counts.entry(c).or_insert(0);
                before.entry(c).or_insert(*n > 0);
                if insert {
                    *n += 1;
                } else {
                    *n -= 1;
                }
            }
        }
        let (mut entered, mut left) = (Vec::new(), Vec::new());
        for (c, was) in before {
            let now = self.adom_counts[&c] > 0;
            if !now {
                self.adom_counts.remove(&c);
            }
            match (was, now) {
                (false, true) => entered.push(c),
                (true, false) => left.push(c),
                _ => {}
            }
        }
        (entered, left)
    }

    /// Kill one witness of STD `i`: decrement its head tuples' producer
    /// counts (removing tuples whose last producer died) and
    /// garbage-collect the nulls it minted.
    fn kill_witness(
        &mut self,
        i: usize,
        row: &[Value],
        report: &mut UpdateReport,
        removed: &mut Vec<(RelSym, AnnTuple)>,
    ) {
        let Self {
            mapping,
            stds,
            head_counts,
            csol,
            csol_index,
            null_origin,
            ..
        } = self;
        let st = &mut stds[i];
        let Some(minted) = st.witnesses.remove(row) else {
            return;
        };
        report.witnesses_died += 1;
        let mut env: BTreeMap<Var, Value> = st
            .body_vars
            .iter()
            .copied()
            .zip(row.iter().copied())
            .collect();
        for (var, null) in &minted {
            env.insert(*var, Value::Null(*null));
        }
        for atom in &mapping.stds[i].head {
            let at = AnnTuple::new(instantiate_atom(&atom.args, &env), atom.ann.clone());
            let key = (atom.rel, at);
            let slot = head_counts
                .get_mut(&key)
                .expect("every witness head tuple is counted");
            *slot -= 1;
            if *slot == 0 {
                head_counts.remove(&key);
                csol.remove(key.0, &key.1);
                csol_index.remove(key.0, &key.1.tuple);
                report.csol_removed += 1;
                removed.push(key);
            }
        }
        for (_, null) in minted {
            null_origin.remove(&null);
            report.nulls_collected += 1;
        }
    }

    /// Birth one witness of STD `i`: mint fresh nulls for its existential
    /// variables (recording justifications) and insert its head tuples.
    fn birth_witness(
        &mut self,
        i: usize,
        row: Vec<Value>,
        report: &mut UpdateReport,
        added: &mut Vec<(RelSym, AnnTuple)>,
    ) {
        let Self {
            mapping,
            stds,
            head_counts,
            csol,
            csol_index,
            null_origin,
            gen,
            ..
        } = self;
        let std: &Std = &mapping.stds[i];
        let mut minted: Vec<(Var, NullId)> = Vec::new();
        let env = head_env(std, &row, gen, |var, null| {
            null_origin.insert(
                null,
                Justification {
                    std_idx: i,
                    witness: row.clone(),
                    var,
                },
            );
            minted.push((var, null));
        });
        report.witnesses_born += 1;
        for atom in &std.head {
            let at = AnnTuple::new(instantiate_atom(&atom.args, &env), atom.ann.clone());
            let key = (atom.rel, at);
            let slot = head_counts.entry(key.clone()).or_insert(0);
            *slot += 1;
            if *slot == 1 {
                csol.insert(key.0, key.1.clone());
                csol_index.insert(key.0, key.1.tuple.clone());
                report.csol_added += 1;
                added.push(key);
            }
        }
        stds[i].witnesses.insert(row, minted);
    }

    /// STD `i`'s witness set crossed the empty/non-empty boundary: shift
    /// the empty-marker counts of its head atoms accordingly, and push every
    /// marker that appeared in or left the canonical solution onto `flips`.
    fn shift_marks(&mut self, i: usize, now_empty: bool, flips: &mut Vec<MarkFlip>) {
        let Self {
            mapping,
            mark_counts,
            csol,
            csol_index,
            ..
        } = self;
        for atom in &mapping.stds[i].head {
            let key = (atom.rel, atom.ann.clone());
            if now_empty {
                let slot = mark_counts.entry(key.clone()).or_insert(0);
                *slot += 1;
                if *slot == 1 {
                    csol_index.declare(key.0, key.1.arity());
                    csol.insert_empty_mark(key.0, key.1.clone());
                    flips.push((key.0, key.1, true));
                }
            } else {
                let slot = mark_counts
                    .get_mut(&key)
                    .expect("non-empty transition implies a counted marker");
                *slot -= 1;
                if *slot == 0 {
                    mark_counts.remove(&key);
                    csol.remove_empty_mark(key.0, &key.1);
                    flips.push((key.0, key.1, false));
                }
            }
        }
    }

    /// Re-chase the maintained canonical solution from scratch (with
    /// derivation recording) — the fallback path, and the initial build.
    /// Returns the chase steps spent.
    fn rebuild_target(&mut self) -> usize {
        let mut ts = TargetState {
            idx: IndexedInstance::new(),
            outcome: ChaseOutcome::Satisfied,
            base_ids: FastMap::default(),
            firings: Vec::new(),
            by_body: FastMap::default(),
            made_by: FastMap::default(),
            retired: FastMap::default(),
            moved: FastMap::default(),
            restored: FastMap::default(),
        };
        let mut queue = VecDeque::new();
        for (rel, r) in self.csol.relations() {
            for ann in r.empty_marks() {
                ts.idx.insert_empty_mark(rel, ann.clone());
            }
            for at in r.iter() {
                let id = ts.idx.insert(rel, at.clone()).id();
                ts.base_ids.insert((rel, at.clone()), id);
                queue.push_back(id);
            }
        }
        let mut steps = 0;
        ts.outcome = chase::close(
            &mut ts,
            &self.triggers,
            &mut self.gen,
            DEFAULT_CHASE_LIMIT,
            &mut steps,
            queue,
        );
        self.target = Some(ts);
        steps
    }

    /// Propagate a canonical-solution delta into the chased target:
    /// overdelete + re-derive over the derivation log, or a full rebuild
    /// when the last outcome was not `Satisfied` or the log's dead slots
    /// outnumber its live ones. Empty-marker flips are copied over as they
    /// are: the chase never reads markers.
    fn update_target(
        &mut self,
        added: &[(RelSym, AnnTuple)],
        removed: &[(RelSym, AnnTuple)],
        mark_flips: &[MarkFlip],
    ) -> TargetPath {
        let stale = {
            let ts = self.target.as_ref().expect("target layer present");
            ts.outcome != ChaseOutcome::Satisfied || ts.idx.slot_count() > 2 * ts.idx.live_count()
        };
        if stale {
            let steps = self.rebuild_target();
            return TargetPath::Rebuilt { steps };
        }
        let ts = self.target.as_mut().expect("target layer present");
        for (rel, ann, present) in mark_flips {
            if *present {
                ts.idx.insert_empty_mark(*rel, ann.clone());
            } else {
                ts.idx.remove_empty_mark(*rel, ann);
            }
        }

        let mut queue = VecDeque::new();
        let gone: Vec<TupleId> = (removed.iter())
            .filter_map(|key| ts.base_ids.remove(key))
            .collect();
        let (dead, deleted) = ts.overdelete(gone, &mut queue);
        let overdeleted = deleted.len();

        // Re-insert overdeleted tuples that are still canonical-solution
        // (Layer 1) tuples whose base id died — their base support is
        // independent of the killed entries. The content of a retired id
        // counts too: a merge may have consumed it.
        let mut reinserted: BTreeSet<(RelSym, AnnTuple)> = BTreeSet::new();
        for (rel, at) in &deleted {
            let key = (*rel, at.clone());
            let base_dead = ts.base_ids.get(&key).is_none_or(|id| dead.contains(id));
            if base_dead && self.csol.contains(*rel, at) {
                let id = ts.idx.insert(*rel, at.clone()).id();
                ts.base_ids.insert(key.clone(), id);
                queue.push_back(id);
                reinserted.insert(key);
            }
        }

        // Head-seeded re-derivation: a lost derived tuple may have other
        // live derivations the (conservative) overdelete destroyed. Unify
        // it with every tgd head, run the trigger query under the bindings
        // of the head's body variables, and take the chase's step at each
        // active trigger it returns. Fresh nulls replace the lost ones —
        // the result is homomorphically equivalent, which is all a chase
        // result promises.
        let mut steps = 0usize;
        for (rel, at) in &deleted {
            if reinserted.contains(&(*rel, at.clone())) {
                continue;
            }
            for trigger in &self.triggers {
                let TargetDep::Tgd(tgd) = &trigger.dep else {
                    continue;
                };
                for atom in tgd.head.iter().filter(|atom| atom.rel == *rel) {
                    let Some(mut bound) = chase::unify(&atom.args, &at.tuple) else {
                        continue;
                    };
                    bound.retain(|&(v, _)| trigger.binds(v));
                    for asg in trigger.discover(&ts.idx, &bound) {
                        let step = chase::step(
                            ts,
                            trigger,
                            &asg,
                            &mut self.gen,
                            DEFAULT_CHASE_LIMIT,
                            &mut steps,
                            &mut queue,
                        );
                        if let Err(outcome) = step {
                            ts.outcome = outcome;
                            return TargetPath::Incremental { overdeleted, steps };
                        }
                    }
                }
            }
        }

        // Insert the new base tuples and close under the constraints.
        for (rel, at) in added {
            match ts.idx.insert(*rel, at.clone()) {
                Inserted::Fresh(id) => {
                    ts.base_ids.insert((*rel, at.clone()), id);
                    queue.push_back(id);
                }
                Inserted::Duplicate(id) => {
                    ts.base_ids.insert((*rel, at.clone()), id);
                }
            }
        }
        ts.outcome = chase::close(
            ts,
            &self.triggers,
            &mut self.gen,
            DEFAULT_CHASE_LIMIT,
            &mut steps,
            queue,
        );
        TargetPath::Incremental { overdeleted, steps }
    }
}

impl UpdateReport {
    fn empty(num_stds: usize) -> UpdateReport {
        UpdateReport {
            effective_ops: 0,
            std_paths: vec![StdPath::Skipped; num_stds],
            witnesses_died: 0,
            witnesses_born: 0,
            csol_removed: 0,
            csol_added: 0,
            nulls_collected: 0,
            added: Vec::new(),
            removed: Vec::new(),
            marks_changed: false,
            target: TargetPath::None,
            adom_entered: Vec::new(),
            adom_left: Vec::new(),
        }
    }
}

impl TargetState {
    /// Log entry `fi` rests on the ids matching the fully bound `body`
    /// under `asg` (every id carrying these values supports the match;
    /// recording all of them overdeletes conservatively, which
    /// re-derivation repairs).
    fn record_body(&mut self, fi: usize, body: &[(RelSym, Vec<Term>)], asg: &Asg) {
        for (rel, args) in body {
            for id in self.idx.matching(*rel, &chase::pattern(args, asg)) {
                self.by_body.entry(id).or_default().push(fi);
            }
        }
    }

    /// The overdelete cascade: kill the ids in `gone` and everything the
    /// log rests on them, then restore the surviving pre-images of the
    /// merges that died (queued for the closure, which re-merges them
    /// wherever an egd still fires). An id dies when a firing or merge
    /// that produced it dies, when the id whose content it holds dies, or
    /// when the tuple restored from it dies; a dying id kills the firings
    /// and merges resting on it and the merges that produced it. Returns
    /// the dead ids and the content of those that held one, live or
    /// retired.
    fn overdelete(
        &mut self,
        gone: Vec<TupleId>,
        queue: &mut VecDeque<TupleId>,
    ) -> (FastSet<TupleId>, Vec<(RelSym, AnnTuple)>) {
        let mut dead: FastSet<TupleId> = FastSet::default();
        let mut dq: VecDeque<TupleId> = gone.into_iter().filter(|&id| dead.insert(id)).collect();
        let mut deleted = Vec::new();
        let mut orphans: Vec<TupleId> = Vec::new();
        while let Some(id) = dq.pop_front() {
            if let Some(content) = self.idx.retract(id).or_else(|| self.retired.remove(&id)) {
                deleted.push(content);
            }
            let mut next: Vec<TupleId> = self.moved.remove(&id).into_iter().collect();
            next.extend(self.restored.remove(&id).into_iter().flatten());
            let entries = (self.by_body.remove(&id).into_iter().flatten())
                .chain(self.made_by.remove(&id).into_iter().flatten());
            for fi in entries {
                let f = &mut self.firings[fi];
                if std::mem::take(&mut f.alive) {
                    next.append(&mut std::mem::take(&mut f.heads));
                    orphans.append(&mut std::mem::take(&mut f.retired));
                }
            }
            dq.extend(next.into_iter().filter(|&n| dead.insert(n)));
        }
        for p in orphans {
            if dead.contains(&p) {
                continue;
            }
            let (rel, at) = (self.retired.remove(&p)).expect("a live merge keeps its pre-images");
            let id = self.idx.insert(rel, at).id();
            queue.push_back(id);
            self.moved.insert(p, id);
            self.restored.entry(id).or_default().push(p);
        }
        (dead, deleted)
    }
}

/// The recording store: the chase loop's tgd firings and egd merges land
/// in the index and in the derivation log.
impl ChaseStore for TargetState {
    fn index(&self) -> &IndexedInstance {
        &self.idx
    }

    /// Fire a tgd trigger, logging the body tuple ids the match rests on
    /// and the head ids it produced.
    fn fire(&mut self, tgd: &Tgd, asg: &Asg, gen: &mut NullGen, queue: &mut VecDeque<TupleId>) {
        let fi = self.firings.len();
        self.record_body(fi, &tgd.body, asg);
        let heads = chase::apply_tgd(&mut self.idx, tgd, asg, gen, queue);
        self.firings.push(Firing {
            heads,
            retired: Vec::new(),
            alive: true,
        });
    }

    /// Merge `l` and `r`, logging the body ids the match rests on, the ids
    /// the merge retires with their content, and the ids it rewrites them
    /// into.
    fn merge(
        &mut self,
        body: &[(RelSym, Vec<Term>)],
        asg: &Asg,
        l: Value,
        r: Value,
        queue: &mut VecDeque<TupleId>,
    ) {
        let fi = self.firings.len();
        self.record_body(fi, body, asg);
        let null = if matches!(l, Value::Null(_)) { l } else { r };
        let retired = self.idx.ids_with_value(null);
        for &id in &retired {
            let (rel, at) = self.idx.get(id).expect("ids_with_value yields live ids");
            self.retired.insert(id, (rel, at.clone()));
        }
        // `chase::merge` queues one rewritten id per retired id, in order.
        let mut heads = VecDeque::with_capacity(retired.len());
        chase::merge(&mut self.idx, l, r, &mut heads);
        debug_assert_eq!(heads.len(), retired.len());
        let heads = Vec::from(heads);
        for (&old, &new) in retired.iter().zip(&heads) {
            self.moved.insert(old, new);
            self.made_by.entry(new).or_default().push(fi);
        }
        queue.extend(&heads);
        self.firings.push(Firing {
            heads,
            retired,
            alive: true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_chase::core::{ann_hom_equivalent, ann_isomorphic};
    use dx_chase::{canonical_solution, canonical_solution_with_deps};

    fn src(facts: &[(&str, &[&str])]) -> Instance {
        let mut s = Instance::new();
        for (rel, names) in facts {
            s.insert_names(rel, names);
        }
        s
    }

    /// Incremental csol vs from-scratch recompute, up to null renaming
    /// (in both argument orders, since retractions leave emptied relations
    /// declared); the maintained relational index holds exactly
    /// `rel(csol)`, one refcount per annotated tuple.
    fn assert_csol_matches(inc: &IncrementalExchange) {
        let oracle = canonical_solution(&inc.mapping, &inc.source);
        assert!(
            ann_isomorphic(inc.csol(), &oracle.instance).is_some()
                && ann_isomorphic(&oracle.instance, inc.csol()).is_some(),
            "incremental csol diverged:\nincr:\n{}\noracle:\n{}",
            inc.csol(),
            oracle.instance
        );
        assert_eq!(
            inc.csol_index().to_instance(),
            inc.csol().rel_part(),
            "csol index diverged from rel(csol)"
        );
        assert_eq!(
            inc.csol_index().mem_stats().refcount_total,
            inc.csol().tuple_count() as u64,
            "one csol index refcount per annotated tuple"
        );
    }

    /// Incremental chased target vs from-scratch recompute (hom-equivalence
    /// — restricted-chase results are only canonical up to homomorphism).
    fn assert_chased_matches(inc: &IncrementalExchange) {
        let constraints: Vec<TargetDep> = inc.triggers.iter().map(|t| t.dep.clone()).collect();
        let oracle = canonical_solution_with_deps(
            &inc.mapping,
            &constraints,
            &inc.source,
            DEFAULT_CHASE_LIMIT,
        );
        assert_eq!(
            std::mem::discriminant(&inc.chase_outcome()),
            std::mem::discriminant(&oracle.outcome),
            "outcome diverged: {:?} vs {:?}",
            inc.chase_outcome(),
            oracle.outcome
        );
        if inc.chase_outcome() == ChaseOutcome::Satisfied {
            let chased = inc.chased();
            assert!(
                ann_hom_equivalent(&chased, &oracle.instance),
                "chased target diverged:\nincr:\n{chased}\noracle:\n{}",
                oracle.instance
            );
        }
    }

    #[test]
    fn initial_build_matches_canonical_solution_exactly() {
        let m = Mapping::parse("StrR(x:cl, z:op) <- StrE(x, y)").unwrap();
        let s = src(&[("StrE", &["a", "c1"]), ("StrE", &["a", "c2"])]);
        let inc = IncrementalExchange::new(m.clone(), Vec::new(), s.clone());
        let oracle = canonical_solution(&m, &s);
        // The initial build mints nulls in witness order from ⊥0, so the
        // result is *identical*, not merely isomorphic.
        assert_eq!(inc.csol(), &oracle.instance);
        assert_eq!(inc.canonical().null_origin, oracle.null_origin);
        assert_eq!(inc.canonical().witnesses, oracle.witnesses);
    }

    #[test]
    fn insert_and_retract_maintain_csol() {
        let m = Mapping::parse("StrR(x:cl, z:op) <- StrE(x, y) & StrF(y)").unwrap();
        let mut inc = IncrementalExchange::new(
            m,
            Vec::new(),
            src(&[("StrE", &["a", "b"]), ("StrF", &["b"])]),
        );
        assert_csol_matches(&inc);

        // Insert a second witness for the same head tuple (shared ground
        // part differs — fresh nulls make heads distinct).
        let r1 = inc.update(&Update::new().insert_names("StrE", &["c", "b"]));
        assert_eq!(r1.witnesses_born, 1);
        assert_csol_matches(&inc);

        // Retract the join partner: both witnesses die, nulls collected.
        let r2 = inc.update(&Update::new().retract_names("StrF", &["b"]));
        assert_eq!(r2.witnesses_died, 2);
        assert_eq!(r2.nulls_collected, 2);
        assert_eq!(inc.csol().tuple_count(), 0);
        assert_csol_matches(&inc);
    }

    #[test]
    fn shared_ground_head_survives_until_last_witness_dies() {
        // Both witnesses of StrE(a, _) produce the *same* ground head
        // StrP(a): the head must survive the first retraction.
        let m = Mapping::parse("StrP(x:cl) <- StrE(x, y)").unwrap();
        let mut inc = IncrementalExchange::new(
            m,
            Vec::new(),
            src(&[("StrE", &["a", "b1"]), ("StrE", &["a", "b2"])]),
        );
        let r1 = inc.update(&Update::new().retract_names("StrE", &["a", "b1"]));
        assert_eq!(r1.witnesses_died, 1);
        assert_eq!(r1.csol_removed, 0, "other witness still produces StrP(a)");
        assert_csol_matches(&inc);
        let r2 = inc.update(&Update::new().retract_names("StrE", &["a", "b2"]));
        assert_eq!(r2.csol_removed, 1);
        assert_csol_matches(&inc);
    }

    #[test]
    fn empty_marks_flip_on_witness_set_transitions() {
        let m = Mapping::parse("StrR(x:cl, z:op) <- StrE(x, y)").unwrap();
        let mut inc = IncrementalExchange::new(m, Vec::new(), src(&[]));
        assert_eq!(
            inc.csol()
                .relation(RelSym::new("StrR"))
                .unwrap()
                .empty_marks()
                .count(),
            1
        );
        inc.update(&Update::new().insert_names("StrE", &["a", "b"]));
        assert_eq!(
            inc.csol()
                .relation(RelSym::new("StrR"))
                .unwrap()
                .empty_marks()
                .count(),
            0
        );
        assert_csol_matches(&inc);
        inc.update(&Update::new().retract_names("StrE", &["a", "b"]));
        assert_eq!(
            inc.csol()
                .relation(RelSym::new("StrR"))
                .unwrap()
                .empty_marks()
                .count(),
            1
        );
        assert_csol_matches(&inc);
    }

    #[test]
    fn non_cq_body_recompute_diff() {
        let m = Mapping::parse("StrR(x:cl, z:op) <- StrE(x, y) & !exists r. StrA(x, r)").unwrap();
        let mut inc = IncrementalExchange::new(
            m,
            Vec::new(),
            src(&[("StrE", &["p1", "t"]), ("StrE", &["p2", "t"])]),
        );
        assert_eq!(inc.csol().tuple_count(), 2);
        // Inserting into StrA *kills* a witness — anti-monotone body, on
        // the refuting-side copy.
        let r = inc.update(&Update::new().insert_names("StrA", &["p1", "rev"]));
        assert_eq!(r.std_paths, vec![StdPath::Seeded]);
        assert_eq!(r.witnesses_died, 1);
        assert_csol_matches(&inc);
        // And retracting from StrA births one back.
        let r = inc.update(&Update::new().retract_names("StrA", &["p1", "rev"]));
        assert_eq!(r.std_paths, vec![StdPath::Seeded]);
        assert_eq!(r.witnesses_born, 1);
        assert_csol_matches(&inc);
    }

    /// A change under two negations is the case delta plans refuse: the
    /// body is re-evaluated and diffed.
    #[test]
    fn double_negation_recomputes() {
        let m = Mapping::parse("StrV(x:cl) <- StrE(x, y) & !exists r. (StrA(x, r) & !StrB(r))")
            .unwrap();
        let mut inc = IncrementalExchange::new(
            m,
            Vec::new(),
            src(&[("StrE", &["p1", "t"]), ("StrA", &["p1", "r1"])]),
        );
        assert_eq!(inc.csol().tuple_count(), 0);
        // `StrB(r1)` lifts p1's refutation: its witness is born.
        let r = inc.update(&Update::new().insert_names("StrB", &["r1"]));
        assert_eq!(r.std_paths, vec![StdPath::Recomputed]);
        assert_eq!(r.witnesses_born, 1);
        assert_csol_matches(&inc);
        let r = inc.update(&Update::new().retract_names("StrB", &["r1"]));
        assert_eq!(r.std_paths, vec![StdPath::Recomputed]);
        assert_eq!(r.witnesses_died, 1);
        assert_csol_matches(&inc);
    }

    /// Monotone bodies beyond conjunctive queries — `∃`, `∨` over the same
    /// variables, an equality with a constant — and an anti-join ride the
    /// delta plans, whichever of its sides a batch touches.
    #[test]
    fn monotone_bodies_ride_the_delta_plans() {
        use StdPath::{Seeded, Skipped};
        let m = Mapping::parse(
            "StrR(x:cl, z:op) <- exists y. StrE(x, y); \
             StrS(x:cl, y:cl) <- StrF(x, y) | StrG(x, y); \
             StrT(x:cl) <- StrE(x, y) & y = 'k'; \
             StrU(x:cl, z:op) <- StrE(x, y) & !exists r. StrA(x, r)",
        )
        .unwrap();
        let mut inc = IncrementalExchange::new(
            m,
            Vec::new(),
            src(&[("StrE", &["a", "b"]), ("StrF", &["a", "b"])]),
        );
        for (up, paths) in [
            (
                Update::new()
                    .insert_names("StrE", &["a", "k"])
                    .insert_names("StrG", &["a", "b"]),
                [Seeded; 4],
            ),
            (
                Update::new()
                    .retract_names("StrE", &["a", "b"])
                    .retract_names("StrF", &["a", "b"]),
                [Seeded; 4],
            ),
            (
                Update::new().retract_names("StrE", &["a", "k"]),
                [Seeded, Skipped, Seeded, Seeded],
            ),
            (
                Update::new().insert_names("StrA", &["a", "r"]),
                [Skipped, Skipped, Skipped, Seeded],
            ),
        ] {
            let r = inc.update(&up);
            assert_eq!(r.std_paths, paths, "{up}");
            assert_csol_matches(&inc);
        }
    }

    #[test]
    fn recursive_tgd_retraction_needs_rederive_not_counting() {
        // The support-cycle case that makes derivation *counting* unsound:
        // a symmetry tgd lets StrG(a,b) and StrG(b,a) justify each other
        // after the base tuple is gone. Overdelete + re-derive must remove
        // both.
        let m = Mapping::parse("StrG(x:cl, y:cl) <- StrE(x, y)").unwrap();
        let deps = TargetDep::parse_many("StrG(y:cl, x:cl) <- StrG(x, y)").unwrap();
        let mut inc = IncrementalExchange::new(
            m,
            deps,
            src(&[("StrE", &["a", "b"]), ("StrE", &["c", "d"])]),
        );
        assert_chased_matches(&inc);
        let r = inc.update(&Update::new().retract_names("StrE", &["a", "b"]));
        assert!(
            matches!(r.target, TargetPath::Incremental { .. }),
            "no merges happened — must take the incremental path, got {:?}",
            r.target
        );
        let g = inc.chased();
        let grel = g.relation(RelSym::new("StrG")).unwrap();
        assert_eq!(grel.len(), 2, "only c→d and d→c survive:\n{g}");
        assert_chased_matches(&inc);
    }

    #[test]
    fn rederive_restores_alternately_supported_tuples() {
        // StrG(b,c) is derivable from two base edges via transitivity; the
        // conservative overdelete may kill tuples the surviving edge still
        // derives — head-seeded re-derivation must restore them.
        let m = Mapping::parse("StrG(x:cl, y:cl) <- StrE(x, y)").unwrap();
        let deps = TargetDep::parse_many("StrT(x:cl, z:cl) <- StrG(x, y) & StrG(y, z)").unwrap();
        let mut inc = IncrementalExchange::new(
            m,
            deps,
            src(&[
                ("StrE", &["a", "b"]),
                ("StrE", &["b", "c"]),
                ("StrE", &["c", "d"]),
            ]),
        );
        assert_chased_matches(&inc);
        let r = inc.update(&Update::new().retract_names("StrE", &["a", "b"]));
        assert!(matches!(r.target, TargetPath::Incremental { .. }));
        let t = inc.chased();
        let trel = t.relation(RelSym::new("StrT")).unwrap();
        assert_eq!(trel.len(), 1, "b→d survives via StrG(b,c), StrG(c,d):\n{t}");
        assert_chased_matches(&inc);
    }

    #[test]
    fn retraction_after_merge_flips_a_marker_incrementally() {
        // The egd merges the STD's fresh null with a constant. Retracting
        // the only StrE fact empties that STD's witness set: an empty
        // marker flips, and the target layer stays incremental.
        let m = Mapping::parse("StrR(x:cl, z:op) <- StrE(x, y); StrR(x:cl, y:cl) <- StrK(x, y)")
            .unwrap();
        let deps = TargetDep::parse_many("y1 = y2 <- StrR(x, y1) & StrR(x, y2)").unwrap();
        let mut inc = IncrementalExchange::new(
            m,
            deps,
            src(&[("StrE", &["a", "t"]), ("StrK", &["a", "k"])]),
        );
        assert_chased_matches(&inc);
        // Retract the tuple that fed the merged null.
        let r = inc.update(&Update::new().retract_names("StrE", &["a", "t"]));
        assert!(r.marks_changed);
        assert!(
            matches!(r.target, TargetPath::Incremental { .. }),
            "an empty-marker transition stays incremental, got {:?}",
            r.target
        );
        assert_chased_matches(&inc);
    }

    #[test]
    fn retraction_after_merge_stays_incremental() {
        // As above, with a second StrE fact: no marker flips, so the
        // merge log carries the retraction — the merged null's tuple
        // leaves, the constant's stays.
        let m = Mapping::parse("StrR(x:cl, z:op) <- StrE(x, y); StrR(x:cl, y:cl) <- StrK(x, y)")
            .unwrap();
        let deps = TargetDep::parse_many("y1 = y2 <- StrR(x, y1) & StrR(x, y2)").unwrap();
        let mut inc = IncrementalExchange::new(
            m,
            deps,
            src(&[
                ("StrE", &["a", "t"]),
                ("StrE", &["b", "t"]),
                ("StrK", &["a", "k"]),
            ]),
        );
        assert_chased_matches(&inc);
        let r = inc.update(&Update::new().retract_names("StrE", &["a", "t"]));
        assert!(
            matches!(r.target, TargetPath::Incremental { .. }),
            "the merge log carries the retraction, got {:?}",
            r.target
        );
        assert_chased_matches(&inc);
        // And back: the re-born null merges again.
        let r = inc.update(&Update::new().insert_names("StrE", &["a", "t"]));
        assert!(matches!(r.target, TargetPath::Incremental { .. }));
        assert_chased_matches(&inc);
    }

    /// A tuple that loses its last witness and gains a new one in the same
    /// batch did not change: the batch reports no delta at all.
    #[test]
    fn reborn_csol_tuple_is_neither_added_nor_removed() {
        let m = Mapping::parse("StrP(x:cl) <- StrE(x, y)").unwrap();
        let mut inc = IncrementalExchange::new(m, Vec::new(), src(&[("StrE", &["a", "b1"])]));
        let r = inc.update(
            &Update::new()
                .retract_names("StrE", &["a", "b1"])
                .insert_names("StrE", &["a", "b2"]),
        );
        assert_eq!((r.witnesses_died, r.witnesses_born), (1, 1));
        assert!(r.added.is_empty() && r.removed.is_empty(), "{r:?}");
        assert_eq!((r.csol_added, r.csol_removed), (0, 0));
        assert!(r.changed_rels().is_empty());
        assert_csol_matches(&inc);
    }

    /// A sliding window of papers under the one-author egd and a
    /// conflict-of-interest tgd: every batch inserts one paper and
    /// retracts the oldest, so merges die and are born on every batch.
    /// The source mirror and the target layer's log stay within a constant
    /// factor of their live size, and the target stays a chase result.
    #[test]
    fn merge_log_and_source_mirror_stay_bounded() {
        let m = Mapping::parse(
            "GcSub(p:cl, a:op) <- GcPapers(p, t); GcSub(p:cl, a:cl) <- GcWrote(p, a); \
             GcRev(p:cl, r:cl) <- GcAssign(p, r); GcAff(x:cl, u:cl) <- GcAffil(x, u)",
        )
        .unwrap();
        let deps = TargetDep::parse_many(
            "a = b <- GcSub(p, a) & GcSub(p, b); \
             GcCoi(p:cl, r:cl, u:cl) <- GcRev(p, r) & GcAff(r, u) & GcSub(p, a) & GcAff(a, u)",
        )
        .unwrap();
        let paper = |i: usize| {
            let p = format!("p{i}");
            Update::new()
                .insert_names("GcPapers", &[&p, "t"])
                .insert_names("GcWrote", &[&p, &format!("a{}", i % 5)])
                .insert_names("GcAssign", &[&p, &format!("a{}", (i + 1) % 5)])
        };
        let mut s = src(&[]);
        for a in 0..5 {
            s.insert_names("GcAffil", &[&format!("a{a}"), &format!("u{}", a % 2)]);
        }
        const WINDOW: usize = 100;
        for i in 0..WINDOW {
            paper(i).apply(&mut s);
        }
        let mut inc = IncrementalExchange::new(m, deps, s);
        let (mut collected, mut incremental) = (0usize, 0usize);
        for i in WINDOW..3000 {
            let mut up = paper(i);
            for (rel, t) in paper(i - WINDOW).inserts() {
                up.retract(*rel, t.clone());
            }
            let r = inc.update(&up);
            match r.target {
                TargetPath::Rebuilt { .. } => collected += 1,
                TargetPath::Incremental { .. } => incremental += 1,
                TargetPath::None => {}
            }
            let source = inc.source_index.mem_stats();
            assert!(source.slots <= 2 * source.live_slots);
            let ts = inc.target.as_ref().expect("constraints present");
            let (live, slots) = (ts.idx.live_count(), ts.idx.slot_count());
            assert!(
                slots <= 3 * live,
                "batch {i}: {slots} target slots, {live} live"
            );
            assert!(
                ts.firings.len() <= 3 * live,
                "batch {i}: {} log entries, {live} live tuples",
                ts.firings.len()
            );
            if i % 500 == 0 {
                assert_chased_matches(&inc);
            }
        }
        assert_chased_matches(&inc);
        assert!(
            collected > 0 && incremental > 10 * collected,
            "{collected} / {incremental}"
        );
    }

    /// A merge output retired by a second merge that died comes back as a
    /// restored tuple; when that tuple later dies as the duplicate output
    /// of a third merge, the id it was restored from dies with it, so the
    /// first merge's pre-image returns and is merged again.
    #[test]
    fn a_restored_tuple_dies_with_the_id_it_was_restored_from() {
        let m = Mapping::parse(
            "RsT(x:cl, z:op) <- RsE(x); RsT(x:cl, z:op) <- RsF(x); RsT(x:cl, y:cl) <- RsK(x, y); \
             RsL(x:cl, y:cl) <- RsLink(x, y)",
        )
        .unwrap();
        let deps = TargetDep::parse_many(
            "a = b <- RsT(x, a) & RsT(x, b); a = b <- RsL(x, y) & RsT(x, a) & RsT(y, b)",
        )
        .unwrap();
        let mut s = src(&[
            ("RsE", &["x"]),
            ("RsE", &["y"]),
            ("RsLink", &["x", "y"]),
            // Keep every witness set non-empty: no marker flips.
            ("RsF", &["w"]),
        ]);
        // Live ballast, so that no batch here collects garbage.
        for i in 0..12 {
            s.insert_names("RsK", &[&format!("b{i}"), "u"]);
        }
        let mut inc = IncrementalExchange::new(m, deps, s);
        assert_chased_matches(&inc);
        for up in [
            Update::new().insert_names("RsK", &["y", "v"]),
            Update::new().retract_names("RsK", &["y", "v"]),
            Update::new().insert_names("RsF", &["x"]),
            Update::new().retract_names("RsF", &["x"]),
        ] {
            let r = inc.update(&up);
            assert!(
                matches!(r.target, TargetPath::Incremental { .. }),
                "{up}: no marker flips, got {:?}",
                r.target
            );
            assert_chased_matches(&inc);
        }
    }

    #[test]
    fn retract_then_reinsert_round_trips() {
        let m = Mapping::parse("StrR(x:cl, z:op) <- StrE(x, y)").unwrap();
        let deps = TargetDep::parse_many("StrS(z:op, x:cl) <- StrR(x, z)").unwrap();
        let mut inc = IncrementalExchange::new(
            m,
            deps,
            src(&[("StrE", &["a", "b"]), ("StrE", &["b", "c"])]),
        );
        let before = inc.chased();
        inc.update(&Update::new().retract_names("StrE", &["a", "b"]));
        inc.update(&Update::new().insert_names("StrE", &["a", "b"]));
        let after = inc.chased();
        assert!(
            ann_hom_equivalent(&before, &after),
            "round trip must be hom-equivalent:\nbefore:\n{before}\nafter:\n{after}"
        );
        assert_csol_matches(&inc);
        assert_chased_matches(&inc);
    }

    /// The source palette moves net over a batch: a constant retracted in
    /// one tuple and re-inserted in another is in neither list.
    #[test]
    fn adom_moves_are_net_and_sorted() {
        let m = Mapping::parse("StrR(x:cl, y:cl) <- StrE(x, y)").unwrap();
        let mut inc = IncrementalExchange::new(
            m,
            Vec::new(),
            src(&[("StrE", &["a", "b"]), ("StrE", &["b", "d"])]),
        );
        let c = |n: &str| dx_relation::ConstId::new(n);
        assert!(inc.adom_contains(c("a")) && !inc.adom_contains(c("z")));
        let r = inc.update(
            &Update::new()
                .retract_names("StrE", &["a", "b"])
                .retract_names("StrE", &["b", "d"])
                .insert_names("StrE", &["z", "b"])
                .insert_names("StrE", &["y", "y"]),
        );
        let (mut entered, mut left) = (vec![c("z"), c("y")], vec![c("d"), c("a")]);
        entered.sort();
        left.sort();
        assert_eq!((r.adom_entered, r.adom_left), (entered, left));
        for (name, present) in [("a", false), ("b", true), ("d", false), ("y", true)] {
            assert_eq!(inc.adom_contains(c(name)), present, "{name}");
        }
        let r = inc.update(&Update::new().retract_names("StrE", &["y", "y"]));
        assert_eq!((r.adom_entered, r.adom_left), (vec![], vec![c("y")]));
        assert!(!inc.adom_contains(c("y")));
    }

    #[test]
    fn empty_update_is_identity() {
        let m = Mapping::parse("StrR(x:cl, z:op) <- StrE(x, y)").unwrap();
        let mut inc = IncrementalExchange::new(m, Vec::new(), src(&[("StrE", &["a", "b"])]));
        let before = inc.csol().clone();
        let r = inc.update(&Update::new());
        assert_eq!(r.effective_ops, 0);
        assert_eq!(r.target, TargetPath::None);
        assert_eq!(inc.csol(), &before);
        // A no-op batch (retract absent / insert present) is also identity.
        let r = inc.update(
            &Update::new()
                .insert_names("StrE", &["a", "b"])
                .retract_names("StrE", &["x", "y"]),
        );
        assert_eq!(r.witnesses_born + r.witnesses_died, 0);
        assert_eq!(inc.csol(), &before);
    }
}
