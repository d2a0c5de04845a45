//! Bounded search over `Rep_A(T)`, on one incrementally maintained index.
//!
//! The witness spaces of the paper's decidable query-answering cases all
//! have the shape `I = V ∪ E` (Lemma 2's `V ∪ E₀ ∪ E′`, Proposition 5's
//! `V ∪ E`): a valuation image `V = v(rel(T))` plus *extra* tuples that
//! replicate open positions with other constants. This module enumerates
//! exactly that space:
//!
//! 1. valuations `v` over a generic palette (base constants + canonically
//!    named fresh constants, first-use symmetry breaking);
//! 2. extra tuples drawn from the *candidate pool*: for every annotated
//!    tuple with open positions, its closed positions fixed to `v`-values
//!    and its open positions ranging over the extension palette (base ∪
//!    `max_external_consts` canonical external constants); all-open empty
//!    markers contribute arbitrary tuples of their relation;
//! 3. subsets of the pool of size `≤ max_extra_tuples`, smallest first.
//!
//! For an all-closed `T` the pool is empty and the search space is exactly
//! `Rep(rel(T))` — the coNP procedure of Theorem 3(1). With open positions
//! the space is complete only up to the configured replication budget
//! (the full Lemma 2 bound `(qr+arity)·2^n` is available but astronomically
//! expensive, matching coNEXPTIME-hardness); the returned
//! [`Completeness`] records which regime applied.
//!
//! ## The incremental candidate store
//!
//! Candidate instances are **never materialized per leaf**. The search
//! maintains one [`DeltaIndex`] — a refcounted, column-indexed instance —
//! and applies/undoes deltas on DFS enter/exit:
//!
//! * assigning a null `⊥ ↦ c` inserts the valued image of every `T`-tuple
//!   whose nulls just became fully assigned (and un-assignment removes
//!   exactly those images);
//! * choosing an extra tuple inserts it; backtracking removes it.
//!
//! Leaf checks receive a [`Leaf`] handle exposing the live index (what
//! compiled `dx-query` plans probe) and the current valuation. The index
//! is the only copy of the candidate: [`DeltaIndex::to_instance`]
//! materializes it for the few checks that need an [`Instance`] — a
//! tree-walking fallback, a composition check that exchanges the
//! candidate as a source — and for witness capture.
//!
//! Work metrics (see `dx-obs`): `solver.dfs.{nodes, leaves}` count search
//! tree nodes and candidate instances, `solver.dfs.deltas_applied` /
//! `solver.dfs.deltas_undone` count store mutations from the DFS
//! apply/undo pairs (balanced by construction, even on early witness
//! stops — the invariant the randomized counter tests assert), and
//! `solver.union.{unions_visited, deltas_applied, deltas_undone}` mirror
//! the same for [`for_each_union`].

use crate::palette::Palette;
use dx_relation::{
    AnnInstance, ConstId, DeltaIndex, FastMap, Instance, NullId, OverlayIndex, RelSym, Tuple,
    Valuation, Value,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Budget for the `Rep_A` search space.
#[derive(Clone, Debug)]
pub struct SearchBudget {
    /// Number of canonical *external* constants available to fill open
    /// positions in extra tuples (the `C′_X` constants of Lemma 2, the
    /// `D_{I₀}` of Proposition 5).
    pub max_external_consts: usize,
    /// Maximum number of extra (replicated) tuples added on top of
    /// `v(rel(T))`.
    pub max_extra_tuples: usize,
    /// Maximum extra tuples drawn from any *single* annotated tuple (or
    /// empty marker). `None` = unlimited. This implements the paper's §6
    /// *1-to-m* extension: an open null replicable at most `m` times
    /// corresponds to a per-template cap of `m − 1`.
    pub max_extra_per_template: Option<usize>,
    /// Cap on the size of the candidate pool (combinatorial guard; if the
    /// pool is truncated the result is flagged as bounded).
    pub max_candidate_pool: usize,
    /// Cap on the number of candidate instances examined; `None` = no cap.
    pub max_leaves: Option<u64>,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            max_external_consts: 2,
            max_extra_tuples: 3,
            max_extra_per_template: None,
            max_candidate_pool: 4096,
            max_leaves: Some(2_000_000),
        }
    }
}

impl SearchBudget {
    /// Budget for all-closed instances: no replication at all. The search is
    /// then exact (Theorem 3, `#op = 0` — the coNP case).
    pub fn closed_world() -> Self {
        SearchBudget {
            max_external_consts: 0,
            max_extra_tuples: 0,
            max_extra_per_template: None,
            max_candidate_pool: 0,
            max_leaves: None,
        }
    }

    /// Budget sufficient for refuting a `∀*∃*` query with `l` existential
    /// (outer, after negation) variables over a schema of maximal arity
    /// `max_arity` (Proposition 5: the counterexample can be restricted to
    /// `U_V ∪ D_{I₀}` with `|D_{I₀}| ≤ l · arity(τ)`).
    pub fn universal_existential(l: usize, max_arity: usize) -> Self {
        SearchBudget {
            max_external_consts: l * max_arity,
            max_extra_tuples: usize::MAX,
            max_extra_per_template: None,
            max_candidate_pool: usize::MAX,
            max_leaves: None,
        }
    }

    /// Budget for composition with **existential** `Δ`-bodies (the paper's
    /// §6 remark: NP for every annotation). A witness intermediate `J` can
    /// be shrunk to the values of `v(CSol) ∪ adom(W) ∪ query constants`
    /// **plus one kept supporting match per `W`-tuple**: positive body
    /// atoms of a kept match survive the restriction and negated atoms only
    /// get truer, while dropped values can only remove obligations. Each
    /// kept match contributes at most `max_body_vars` out-of-palette
    /// values, so `w_tuples · max_body_vars` canonical external constants
    /// (with unlimited replication over the resulting palette) are
    /// exhaustive — a polynomial witness, hence NP.
    pub fn existential_delta(w_tuples: usize, max_body_vars: usize) -> Self {
        SearchBudget {
            max_external_consts: w_tuples * max_body_vars,
            max_extra_tuples: usize::MAX,
            max_extra_per_template: None,
            max_candidate_pool: usize::MAX,
            max_leaves: None,
        }
    }

    /// An explicit replication budget.
    pub fn bounded(max_external_consts: usize, max_extra_tuples: usize) -> Self {
        SearchBudget {
            max_external_consts,
            max_extra_tuples,
            ..SearchBudget::default()
        }
    }

    /// The §6 *1-to-m* budget: every open tuple may be instantiated by at
    /// most `m` values, i.e. replicated at most `m − 1` extra times. With
    /// `open_templates` open tuples/markers in the instance and maximal
    /// arity `max_arity`, the witness space is finite and fully covered —
    /// the CWA-like complexity the paper's conclusions promise.
    pub fn one_to_m(m: usize, open_templates: usize, max_arity: usize) -> Self {
        let extra = m.saturating_sub(1) * open_templates;
        SearchBudget {
            max_external_consts: extra * max_arity.max(1),
            max_extra_tuples: extra,
            max_extra_per_template: Some(m.saturating_sub(1)),
            max_candidate_pool: usize::MAX,
            max_leaves: None,
        }
    }
}

/// How complete the search was.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Completeness {
    /// The entire witness space was covered: a negative answer is definitive.
    Exact,
    /// Open-position replication was capped; a negative answer only means
    /// "no witness within the budget".
    Bounded,
    /// The leaf cap (or pool cap) was hit; the space was not exhausted.
    Capped,
}

impl Completeness {
    /// The pessimistic join: the worse of two coverage reports
    /// (`Capped > Bounded > Exact`).
    pub fn worse(self, other: Completeness) -> Completeness {
        use Completeness::*;
        match (self, other) {
            (Capped, _) | (_, Capped) => Capped,
            (Bounded, _) | (_, Bounded) => Bounded,
            _ => Exact,
        }
    }
}

/// Result of a `Rep_A` search.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The witness instance (and its valuation), if one was found.
    pub witness: Option<(Instance, Valuation)>,
    /// Completeness of the exploration (meaningful when `witness` is
    /// `None`).
    pub completeness: Completeness,
    /// Number of candidate instances examined.
    pub leaves: u64,
}

/// One candidate instance of the search, presented to a leaf check without
/// materialization: the live incremental index and the valuation that
/// produced it.
pub struct Leaf<'a> {
    delta: &'a DeltaIndex,
    valuation: &'a Valuation,
}

impl<'a> Leaf<'a> {
    /// The live incremental index over the candidate instance — the store
    /// compiled `dx-query` plans execute against (it implements
    /// `dx_query::QueryStore`). [`DeltaIndex::to_instance`] materializes
    /// the candidate, at O(candidate size) per call.
    pub fn index(&self) -> &'a DeltaIndex {
        self.delta
    }

    /// The valuation of this candidate (total on the nulls of `T`).
    pub fn valuation(&self) -> &Valuation {
        self.valuation
    }
}

/// Does the annotated instance admit extra tuples at all (any open position
/// on a tuple, or an all-open empty marker)?
pub fn admits_extras(t: &AnnInstance) -> bool {
    t.relations().any(|(_, rel)| {
        rel.has_all_open_empty_mark() || rel.iter().any(|at| at.ann.count_open() > 0)
    })
}

/// Search `Rep_A(T)` for an instance satisfying `check`, with the check
/// running against the incrementally maintained candidate store (see the
/// module docs). This is the engine behind every `Rep_A` refutation loop in
/// `dx-core`: compiled query plans probe [`Leaf::index`] directly instead of
/// indexing a freshly built instance per candidate.
///
/// `extra_base_consts` joins the palette (pass the constants of the query
/// being refuted, per the paper's `C_φ`). The search enumerates valuations
/// (with `#nulls` fresh constants — exact by genericity) and then extra
/// tuples within `budget`.
pub fn search_rep_a_indexed(
    t: &AnnInstance,
    extra_base_consts: &BTreeSet<ConstId>,
    budget: &SearchBudget,
    check: &mut dyn FnMut(&Leaf<'_>) -> bool,
) -> SearchOutcome {
    let _span = dx_obs::span!("solver.search_rep_a");
    let nulls: Vec<NullId> = t.nulls().into_iter().collect();
    let mut base: BTreeSet<ConstId> = t.adom_consts();
    base.extend(extra_base_consts.iter().copied());
    let val_palette = Palette::new(base.iter().copied(), nulls.len(), "v");

    // The tracked tuples of rel(T): each knows how many of its (distinct)
    // nulls are still unassigned; ground tuples enter the store up front.
    let mut delta = DeltaIndex::new();
    let mut tracked: Vec<TrackedTuple> = Vec::new();
    let mut by_null: FastMap<NullId, Vec<usize>> = FastMap::default();
    for (rel, arel) in t.relations() {
        delta.declare(rel, arel.arity());
        for at in arel.iter() {
            let tuple_nulls: BTreeSet<NullId> = at.tuple.nulls().collect();
            if tuple_nulls.is_empty() {
                delta.insert(rel, at.tuple.clone());
            } else {
                let idx = tracked.len();
                for &n in &tuple_nulls {
                    by_null.entry(n).or_default().push(idx);
                }
                tracked.push(TrackedTuple {
                    rel,
                    tuple: at.tuple.clone(),
                    unassigned: tuple_nulls.len(),
                });
            }
        }
    }

    let mut state = State {
        t,
        budget,
        check,
        extra_base: base,
        leaves: 0,
        capped: false,
        pool_truncated: false,
        witness: None,
        delta,
        tracked,
        by_null,
    };

    let mut v = Valuation::new();
    state.valuation_dfs(&nulls, 0, 0, &val_palette, &mut v);

    // Resident footprint of the candidate store once the sweep unwound:
    // the ground tuples stay, so this gauges what the search keeps alive
    // between invocations (last-value semantics; see `dx_obs::mem`).
    let mem = state.delta.mem_stats();
    dx_obs::mem::publish_all(&[
        (dx_obs::mem::names::DELTA_LIVE_SLOTS, mem.live_slots),
        (
            dx_obs::mem::names::DELTA_POSTING_ENTRIES,
            mem.posting_entries,
        ),
        (dx_obs::mem::names::DELTA_REFCOUNT_TOTAL, mem.refcount_total),
    ]);

    let completeness = if state.witness.is_some() {
        Completeness::Exact // irrelevant when a witness exists
    } else if state.capped || state.pool_truncated {
        Completeness::Capped
    } else if admits_extras(t)
        && (budget.max_extra_tuples < usize::MAX || budget.max_external_consts < usize::MAX)
    {
        // Replication was possible and the budget is finite. Whether this is
        // actually exhaustive depends on the caller's theory (e.g. Prop 5
        // budgets are exhaustive); callers override when they know better.
        Completeness::Bounded
    } else {
        Completeness::Exact
    };

    SearchOutcome {
        witness: state.witness,
        completeness,
        leaves: state.leaves,
    }
}

/// All **⊆-minimal members** of `Rep_A(T)` over the canonical valuation
/// palette (base constants of `T` ∪ `extra_base_consts`, plus one fresh
/// constant per null with first-use symmetry breaking).
///
/// Key observation: a member with extra (replicated) tuples strictly
/// contains the extras-free image `v(rel(T))` of its own witnessing
/// valuation, and that image is itself a member — so no member with extras
/// is ever minimal. Minimality is therefore decided among the valuation
/// images alone, and the enumeration runs with a zero-replication budget:
/// one pass over the valuation DFS, one live [`DeltaIndex`], no extras
/// phase. By genericity (the palette argument of Lemma 2), the returned set
/// is exact up to automorphisms of `Const` fixing `adom(T) ∪
/// extra_base_consts` — which is what any generic query over those
/// constants can observe.
///
/// This is the minimal-model substrate of the GCWA\*-regime in `dx-core`
/// (Hernich, *Answering Non-Monotonic Queries in Relational Data
/// Exchange*). The completeness is [`Completeness::Exact`] unless the leaf
/// cap of `max_leaves` interrupted the valuation sweep.
///
/// With more than one pool thread (see `rayon::current_num_threads`) the
/// valuation walk splits across workers by valuation *prefix*, each on a
/// private [`OverlayIndex`] over the frozen ground base. The image set is
/// collected order-independently (a `BTreeSet` merge), so the result is
/// bit-identical to the sequential walk at every thread count; a sweep
/// that overruns `max_leaves` falls back to the sequential walk, which is
/// authoritative for capped reports.
pub fn minimal_rep_a_members(
    t: &AnnInstance,
    extra_base_consts: &BTreeSet<ConstId>,
    max_leaves: Option<u64>,
) -> (Vec<Instance>, Completeness) {
    let parallel = if rayon::current_num_threads() > 1 {
        minimal_images_parallel(t, extra_base_consts, max_leaves)
    } else {
        None
    };
    let (images, completeness) = match parallel {
        Some(images) => (images, Completeness::Exact),
        None => minimal_images_sequential(t, extra_base_consts, max_leaves),
    };
    // Minimality filter. The images are pairwise distinct, so a strict
    // subinstance has strictly fewer tuples — bucket by tuple count and
    // compare each image only against strictly smaller ones. When every
    // valuation image has the same size (no tuples merge under any
    // valuation — the common case) the filter does no instance
    // comparisons at all, where the naive all-pairs scan is quadratic in
    // the image count.
    let mut by_count: std::collections::BTreeMap<usize, Vec<&Instance>> =
        std::collections::BTreeMap::new();
    for i in &images {
        by_count.entry(i.tuple_count()).or_default().push(i);
    }
    let minimal: Vec<Instance> = images
        .iter()
        .filter(|i| {
            by_count
                .range(..i.tuple_count())
                .all(|(_, smaller)| smaller.iter().all(|j| !j.is_subinstance_of(i)))
        })
        .cloned()
        .collect();
    (minimal, completeness)
}

/// The sequential image sweep behind [`minimal_rep_a_members`]: one
/// zero-replication valuation DFS on the incrementally maintained store.
fn minimal_images_sequential(
    t: &AnnInstance,
    extra_base_consts: &BTreeSet<ConstId>,
    max_leaves: Option<u64>,
) -> (BTreeSet<Instance>, Completeness) {
    let budget = SearchBudget {
        max_external_consts: 0,
        max_extra_tuples: 0,
        max_extra_per_template: None,
        max_candidate_pool: 0,
        max_leaves,
    };
    let mut images: BTreeSet<Instance> = BTreeSet::new();
    let outcome = search_rep_a_indexed(t, extra_base_consts, &budget, &mut |leaf| {
        images.insert(leaf.index().to_instance());
        false
    });
    let completeness = match outcome.completeness {
        // The zero-replication budget makes the search report Bounded for
        // open instances; for *minimal* members the sweep is exhaustive.
        Completeness::Capped => Completeness::Capped,
        _ => Completeness::Exact,
    };
    (images, completeness)
}

/// The parallel image sweep behind [`minimal_rep_a_members`]: enumerate
/// valuation prefixes over the leading nulls (in the exact DFS order,
/// tracking the fresh-constant symmetry discipline) until there are enough
/// to feed the pool, then give each prefix to a [`MinimalWalker`] over a
/// private overlay of the frozen ground base.
///
/// Returns `None` when the space cannot be split (fewer than two nulls) or
/// when the leaf cap was exceeded — the caller then runs the sequential
/// sweep, whose capped report is authoritative. On success the merged image
/// set and the total leaf count equal the sequential sweep's exactly.
fn minimal_images_parallel(
    t: &AnnInstance,
    extra_base_consts: &BTreeSet<ConstId>,
    max_leaves: Option<u64>,
) -> Option<BTreeSet<Instance>> {
    let nulls: Vec<NullId> = t.nulls().into_iter().collect();
    if nulls.len() < 2 {
        return None;
    }
    let _span = dx_obs::span!("solver.minimal_sweep.parallel");
    let threads = rayon::current_num_threads();
    let mut base: BTreeSet<ConstId> = t.adom_consts();
    base.extend(extra_base_consts.iter().copied());
    let palette = Palette::new(base.iter().copied(), nulls.len(), "v");

    // Valuation prefixes over nulls[..d], with the per-path fresh-constant
    // count carried along (symmetry breaking is path dependent).
    let mut prefixes: Vec<(Vec<ConstId>, usize)> = vec![(Vec::new(), 0)];
    let mut d = 0usize;
    while d + 1 < nulls.len() && prefixes.len() < threads * 4 {
        let mut next = Vec::with_capacity(prefixes.len() * 2);
        for (choices, fresh_used) in &prefixes {
            for c in palette.choices(*fresh_used) {
                let nf = fresh_used + usize::from(palette.is_next_fresh(c, *fresh_used));
                let mut ext = choices.clone();
                ext.push(c);
                next.push((ext, nf));
            }
        }
        prefixes = next;
        d += 1;
    }
    if prefixes.len() < 2 {
        return None;
    }

    // Ground tuples enter the shared frozen base; tuples with nulls become
    // per-worker tracked templates.
    let mut ground = DeltaIndex::new();
    let mut templates: Vec<(RelSym, Tuple, usize)> = Vec::new();
    for (rel, arel) in t.relations() {
        ground.declare(rel, arel.arity());
        for at in arel.iter() {
            let distinct: BTreeSet<NullId> = at.tuple.nulls().collect();
            if distinct.is_empty() {
                ground.insert(rel, at.tuple.clone());
            } else {
                templates.push((rel, at.tuple.clone(), distinct.len()));
            }
        }
    }
    let frozen = ground.freeze();
    let shared_leaves = AtomicU64::new(0);
    let results = rayon::par_map(prefixes.len(), |pi| {
        let (prefix, fresh_used) = &prefixes[pi];
        let mut walker =
            MinimalWalker::new(Arc::clone(&frozen), &templates, max_leaves, &shared_leaves);
        let mut v = Valuation::new();
        for (j, &c) in prefix.iter().enumerate() {
            walker.assign(nulls[j], c, &mut v);
        }
        walker.dfs(&nulls, d, *fresh_used, &palette, &mut v);
        // No unwinding needed: the overlay drops with the walker.
        (walker.images, walker.leaves, walker.capped)
    });
    let mut images: BTreeSet<Instance> = BTreeSet::new();
    let mut leaves = 0u64;
    for (imgs, n, capped) in results {
        if capped {
            return None;
        }
        leaves += n;
        images.extend(imgs);
    }
    if max_leaves.is_some_and(|cap| leaves > cap) {
        return None;
    }
    Some(images)
}

/// One worker of the parallel minimal-member sweep: the zero-replication
/// subset of [`State`] (no extras phase, no witness, no check closure)
/// running against a private [`OverlayIndex`] and collecting leaf images.
/// Counter names match the sequential walk (`solver.dfs.*`), so fleet
/// totals stay comparable across thread counts.
struct MinimalWalker<'a> {
    overlay: OverlayIndex,
    tracked: Vec<TrackedTuple>,
    by_null: FastMap<NullId, Vec<usize>>,
    images: BTreeSet<Instance>,
    leaves: u64,
    /// Fleet-wide running leaf total — the cap abort only needs to be an
    /// over-approximation, since an aborted sweep's results are discarded.
    shared_leaves: &'a AtomicU64,
    cap: Option<u64>,
    capped: bool,
}

impl<'a> MinimalWalker<'a> {
    fn new(
        base: Arc<DeltaIndex>,
        templates: &[(RelSym, Tuple, usize)],
        cap: Option<u64>,
        shared_leaves: &'a AtomicU64,
    ) -> Self {
        let mut tracked = Vec::with_capacity(templates.len());
        let mut by_null: FastMap<NullId, Vec<usize>> = FastMap::default();
        for (rel, tuple, unassigned) in templates {
            let idx = tracked.len();
            let distinct: BTreeSet<NullId> = tuple.nulls().collect();
            for n in distinct {
                by_null.entry(n).or_default().push(idx);
            }
            tracked.push(TrackedTuple {
                rel: *rel,
                tuple: tuple.clone(),
                unassigned: *unassigned,
            });
        }
        MinimalWalker {
            overlay: OverlayIndex::new(base),
            tracked,
            by_null,
            images: BTreeSet::new(),
            leaves: 0,
            shared_leaves,
            cap,
            capped: false,
        }
    }

    /// [`State::assign`] against the overlay.
    fn assign(&mut self, null: NullId, c: ConstId, v: &mut Valuation) {
        v.set(null, c);
        let mut applied = 0usize;
        if let Some(tis) = self.by_null.get(&null) {
            for &ti in tis {
                let tt = &mut self.tracked[ti];
                tt.unassigned -= 1;
                if tt.unassigned == 0 {
                    let image = tt.tuple.apply(v);
                    self.overlay.insert(tt.rel, image);
                    applied += 1;
                }
            }
        }
        dx_obs::count!("solver.dfs.deltas_applied", applied);
    }

    /// [`State::unassign`] against the overlay.
    fn unassign(&mut self, null: NullId, v: &mut Valuation) {
        let mut undone = 0usize;
        if let Some(tis) = self.by_null.get(&null) {
            for &ti in tis.iter().rev() {
                if self.tracked[ti].unassigned == 0 {
                    let image = self.tracked[ti].tuple.apply(v);
                    self.overlay.remove(self.tracked[ti].rel, &image);
                    undone += 1;
                }
            }
            for &ti in tis {
                self.tracked[ti].unassigned += 1;
            }
        }
        dx_obs::count!("solver.dfs.deltas_undone", undone);
        v.unset(null);
    }

    fn dfs(
        &mut self,
        nulls: &[NullId],
        i: usize,
        fresh_used: usize,
        palette: &Palette,
        v: &mut Valuation,
    ) {
        if self.capped {
            return;
        }
        dx_obs::count!("solver.dfs.nodes");
        if i == nulls.len() {
            dx_obs::count!("solver.dfs.leaves");
            self.leaves += 1;
            let total = self.shared_leaves.fetch_add(1, Ordering::Relaxed) + 1;
            if self.cap.is_some_and(|c| total > c) {
                self.capped = true;
                return;
            }
            self.images.insert(self.overlay.to_instance());
            return;
        }
        for c in palette.choices(fresh_used) {
            let next_fresh = fresh_used + usize::from(palette.is_next_fresh(c, fresh_used));
            self.assign(nulls[i], c, v);
            self.dfs(nulls, i + 1, next_fresh, palette, v);
            self.unassign(nulls[i], v);
            if self.capped {
                return;
            }
        }
    }
}

/// Visit every nonempty union of at most `max_union_size` of the given
/// instances, maintained on **one** [`DeltaIndex`]: tuples shared between
/// instances are reference counted, so entering/leaving a DFS branch costs
/// only the chosen instance's *private* delta (its tuples outside the
/// common intersection, inserted once up front) — not a rebuild of the
/// union. `visit` sees the live index (compiled `dx-query` plans probe it
/// directly; [`DeltaIndex::to_instance`] materializes the union for
/// tree-walking fallbacks) and returns `true` to stop early.
///
/// Returns the number of unions visited. This is the evaluation engine of
/// the GCWA\*-answer regime: the candidate unions of minimal solutions are
/// never materialized or re-indexed per candidate.
pub fn for_each_union(
    members: &[Instance],
    max_union_size: usize,
    visit: &mut dyn FnMut(&DeltaIndex) -> bool,
) -> u64 {
    if members.is_empty() || max_union_size == 0 {
        return 0;
    }
    let _span = dx_obs::span!("solver.for_each_union");
    let mut delta = DeltaIndex::new();
    for m in members {
        for (rel, r) in m.relations() {
            delta.declare(rel, r.arity());
        }
    }
    // The common base: tuples present in every member, inserted once. Every
    // nonempty union contains it, so per-branch deltas shrink to the
    // member's private remainder.
    let all_tuples = |m: &Instance| -> Vec<(RelSym, Tuple)> {
        m.relations()
            .flat_map(|(rel, r)| r.iter().map(move |t| (rel, t.clone())))
            .collect()
    };
    let base: Vec<(RelSym, Tuple)> = all_tuples(&members[0])
        .into_iter()
        .filter(|(rel, t)| members[1..].iter().all(|m| m.contains(*rel, t)))
        .collect();
    for (rel, t) in &base {
        delta.insert(*rel, t.clone());
    }
    let privates: Vec<Vec<(RelSym, Tuple)>> = members
        .iter()
        .map(|m| {
            all_tuples(m)
                .into_iter()
                .filter(|(rel, t)| !delta.contains(*rel, t))
                .collect()
        })
        .collect();

    fn dfs(
        privates: &[Vec<(RelSym, Tuple)>],
        delta: &mut DeltaIndex,
        visit: &mut dyn FnMut(&DeltaIndex) -> bool,
        start: usize,
        depth_left: usize,
        count: &mut u64,
    ) -> bool {
        for i in start..privates.len() {
            dx_obs::trace_instant!(
                "solver.union.branch",
                "member" = i,
                "depth_left" = depth_left
            );
            dx_obs::count!("solver.union.deltas_applied", privates[i].len());
            for (rel, t) in &privates[i] {
                delta.insert(*rel, t.clone());
            }
            *count += 1;
            dx_obs::count!("solver.union.unions_visited");
            let stop = visit(delta)
                || (depth_left > 1 && dfs(privates, delta, visit, i + 1, depth_left - 1, count));
            // LIFO undo keeps the store's removal on its O(1) path.
            dx_obs::count!("solver.union.deltas_undone", privates[i].len());
            for (rel, t) in privates[i].iter().rev() {
                delta.remove(*rel, t);
            }
            if stop {
                return true;
            }
        }
        false
    }

    let mut count = 0u64;
    dfs(
        &privates,
        &mut delta,
        visit,
        0,
        max_union_size.min(members.len()),
        &mut count,
    );
    // The walk unwound back to the common base — gauge what the shared
    // store held throughout (base slots + postings; last-value semantics).
    let mem = delta.mem_stats();
    dx_obs::mem::publish_all(&[
        (dx_obs::mem::names::DELTA_LIVE_SLOTS, mem.live_slots),
        (
            dx_obs::mem::names::DELTA_POSTING_ENTRIES,
            mem.posting_entries,
        ),
        (dx_obs::mem::names::DELTA_REFCOUNT_TOTAL, mem.refcount_total),
    ]);
    count
}

// ---------------------------------------------------------------------------
// Parallel union sweeps
// ---------------------------------------------------------------------------

/// Freeze the common base of `members` and compute each member's private
/// remainder — the decomposition [`for_each_union`] maintains on its single
/// `DeltaIndex`, frozen behind an `Arc` so pool workers can each layer a
/// private [`OverlayIndex`] on top.
fn union_parts(members: &[Instance]) -> (Arc<DeltaIndex>, Vec<Vec<(RelSym, Tuple)>>) {
    let mut delta = DeltaIndex::new();
    for m in members {
        for (rel, r) in m.relations() {
            delta.declare(rel, r.arity());
        }
    }
    let all_tuples = |m: &Instance| -> Vec<(RelSym, Tuple)> {
        m.relations()
            .flat_map(|(rel, r)| r.iter().map(move |t| (rel, t.clone())))
            .collect()
    };
    let base: Vec<(RelSym, Tuple)> = all_tuples(&members[0])
        .into_iter()
        .filter(|(rel, t)| members[1..].iter().all(|m| m.contains(*rel, t)))
        .collect();
    for (rel, t) in &base {
        delta.insert(*rel, t.clone());
    }
    let privates: Vec<Vec<(RelSym, Tuple)>> = members
        .iter()
        .map(|m| {
            all_tuples(m)
                .into_iter()
                .filter(|(rel, t)| !delta.contains(*rel, t))
                .collect()
        })
        .collect();
    (delta.freeze(), privates)
}

/// Walk the unions of top-level branch `b` — every union whose smallest
/// member index is `b` — in the canonical [`for_each_union`] order, against
/// an [`OverlayIndex`]. `visit` returns `true` to stop the walk of this
/// branch; the return value reports whether it did.
fn walk_branch(
    privates: &[Vec<(RelSym, Tuple)>],
    overlay: &mut OverlayIndex,
    b: usize,
    depth_left: usize,
    visit: &mut dyn FnMut(&OverlayIndex) -> bool,
) -> bool {
    dx_obs::trace_instant!(
        "solver.union.branch",
        "member" = b,
        "depth_left" = depth_left
    );
    dx_obs::count!("solver.union.deltas_applied", privates[b].len());
    for (rel, t) in &privates[b] {
        overlay.insert(*rel, t.clone());
    }
    dx_obs::count!("solver.union.unions_visited");
    let stop = visit(overlay) || {
        let mut stopped = false;
        if depth_left > 1 {
            for i in b + 1..privates.len() {
                if walk_branch(privates, overlay, i, depth_left - 1, visit) {
                    stopped = true;
                    break;
                }
            }
        }
        stopped
    };
    dx_obs::count!("solver.union.deltas_undone", privates[b].len());
    for (rel, t) in privates[b].iter().rev() {
        overlay.remove(*rel, t);
    }
    stop
}

/// Number of unions in the top-level branch of a walk with `later` members
/// after the branch head and union-size cap `depth`: the subsets of the
/// later members of size `< depth`, each adjoined to the head. `None` on
/// `u64` overflow — a space the sequential walk could never finish either,
/// so callers simply stay sequential.
fn branch_weight(later: usize, depth: usize) -> Option<u64> {
    let jmax = depth.saturating_sub(1).min(later);
    let mut total: u64 = 0;
    let mut binom: u64 = 1; // C(later, j), maintained incrementally
    for j in 0..=jmax {
        if j > 0 {
            binom = binom.checked_mul((later - j + 1) as u64)? / j as u64;
        }
        total = total.checked_add(binom)?;
    }
    Some(total)
}

/// Start offset of every top-level branch in the canonical union order,
/// plus the total union count.
fn branch_offsets(m: usize, depth: usize) -> Option<(Vec<u64>, u64)> {
    let mut offsets = Vec::with_capacity(m);
    let mut acc: u64 = 0;
    for b in 0..m {
        offsets.push(acc);
        acc = acc.checked_add(branch_weight(m - 1 - b, depth)?)?;
    }
    Some((offsets, acc))
}

/// Partition branches `0..offsets.len()` into contiguous chunks of roughly
/// equal union counts. The per-branch weights are wildly skewed (branch 0
/// owns nearly half an uncapped space), so chunking by branch *count* would
/// starve most workers.
fn weighted_chunks(offsets: &[u64], total: u64, want: usize) -> Vec<std::ops::Range<usize>> {
    let m = offsets.len();
    let target = (total / (want.max(1) as u64)).max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < m {
        let limit = offsets[start].saturating_add(target);
        let mut end = start + 1;
        while end < m && offsets[end] < limit {
            end += 1;
        }
        chunks.push(start..end);
        start = end;
    }
    chunks
}

/// `retain` over every union of at most `max_union_size` members, in
/// parallel: the GCWA\*-answer loop (`survivors.retain(..);
/// survivors.is_empty()`) lifted into a sweep the pool splits by top-level
/// branch. Returns the surviving candidates (in input order) and the number
/// of unions the *sequential* early-stopping walk visits — both
/// bit-identical to running the retain loop under [`for_each_union`], at
/// every thread count.
///
/// `holds(store, t)` must be a pure function of the store's visible tuple
/// set and `t` (compiled plan probes qualify): the parallel walk recovers
/// each candidate's first falsifying union from per-branch kill indices,
/// which reproduces the sequential early-stop accounting only for pure
/// predicates.
pub fn union_retain_sweep(
    members: &[Instance],
    max_union_size: usize,
    candidates: Vec<Tuple>,
    holds: &(dyn Fn(&OverlayIndex, &Tuple) -> bool + Sync),
) -> (Vec<Tuple>, u64) {
    if members.is_empty() || max_union_size == 0 {
        return (candidates, 0);
    }
    let _span = dx_obs::span!("solver.union_retain_sweep");
    let depth = max_union_size.min(members.len());
    let (frozen, privates) = union_parts(members);
    let threads = rayon::current_num_threads();
    let plan = if threads > 1 && !candidates.is_empty() {
        branch_offsets(members.len(), depth)
    } else {
        None
    };
    let Some((offsets, total)) = plan else {
        // Sequential walk: one overlay, stopping the moment the candidate
        // set empties — exactly the for_each_union retain loop.
        let mut overlay = OverlayIndex::new(frozen);
        let mut alive = candidates;
        let mut count = 0u64;
        for b in 0..privates.len() {
            let stop = walk_branch(&privates, &mut overlay, b, depth, &mut |ov| {
                count += 1;
                alive.retain(|t| holds(ov, t));
                alive.is_empty()
            });
            if stop {
                break;
            }
        }
        return (alive, count);
    };
    // Parallel: each chunk of branches records candidate kills against its
    // own overlay; the sequential outcome is reconstructed from the
    // earliest (global) kill index per candidate. `bound` is a global index
    // at which every candidate is known dead — unions beyond it cannot
    // lower any kill index, so workers prune there.
    let chunks = weighted_chunks(&offsets, total, threads * 4);
    let bound = AtomicU64::new(u64::MAX);
    let per_chunk = rayon::par_map(chunks.len(), |ci| {
        let mut overlay = OverlayIndex::new(Arc::clone(&frozen));
        let mut kills: Vec<Option<u64>> = vec![None; candidates.len()];
        for b in chunks[ci].clone() {
            if offsets[b] >= bound.load(Ordering::Relaxed) {
                break;
            }
            let mut local = 0u64;
            walk_branch(&privates, &mut overlay, b, depth, &mut |ov| {
                let g = offsets[b] + local;
                local += 1;
                if g >= bound.load(Ordering::Relaxed) {
                    return true;
                }
                let mut all_dead = true;
                for (k, t) in candidates.iter().enumerate() {
                    if kills[k].is_none_or(|e| e > g) && !holds(ov, t) {
                        kills[k] = Some(g);
                    }
                    all_dead &= kills[k].is_some();
                }
                if all_dead {
                    bound.fetch_min(g, Ordering::Relaxed);
                    return true;
                }
                false
            });
        }
        kills
    });
    let mut first_kill: Vec<Option<u64>> = vec![None; candidates.len()];
    for kills in per_chunk {
        for (k, g) in kills.into_iter().enumerate() {
            if let Some(g) = g {
                first_kill[k] = Some(first_kill[k].map_or(g, |e: u64| e.min(g)));
            }
        }
    }
    let survivors: Vec<Tuple> = candidates
        .into_iter()
        .zip(&first_kill)
        .filter(|(_, k)| k.is_none())
        .map(|(t, _)| t)
        .collect();
    let unions = if survivors.is_empty() {
        // The sequential walk stops on the union that killed the last
        // survivor: the latest of the per-candidate first kills.
        first_kill.iter().filter_map(|k| *k).max().unwrap_or(0) + 1
    } else {
        total
    };
    (survivors, unions)
}

/// First falsifying union of at most `max_union_size` members, in
/// parallel: the GCWA\*-membership loop (stop at the first union where the
/// probe fails) split by top-level branch. Returns the canonical-order
/// first counterexample instance (if any) and the sequential-semantics
/// union count — bit-identical at every thread count for pure `fails`
/// predicates.
pub fn union_refute_sweep(
    members: &[Instance],
    max_union_size: usize,
    fails: &(dyn Fn(&OverlayIndex) -> bool + Sync),
) -> (Option<Instance>, u64) {
    if members.is_empty() || max_union_size == 0 {
        return (None, 0);
    }
    let _span = dx_obs::span!("solver.union_refute_sweep");
    let depth = max_union_size.min(members.len());
    let (frozen, privates) = union_parts(members);
    let threads = rayon::current_num_threads();
    let plan = if threads > 1 {
        branch_offsets(members.len(), depth)
    } else {
        None
    };
    let Some((offsets, total)) = plan else {
        let mut overlay = OverlayIndex::new(frozen);
        let mut count = 0u64;
        let mut counterexample = None;
        for b in 0..privates.len() {
            let stop = walk_branch(&privates, &mut overlay, b, depth, &mut |ov| {
                count += 1;
                if fails(ov) {
                    counterexample = Some(ov.to_instance());
                    true
                } else {
                    false
                }
            });
            if stop {
                break;
            }
        }
        return (counterexample, count);
    };
    // Parallel: the walk order within a chunk is globally increasing, so
    // each chunk's first hit is its minimum; `best` prunes every worker
    // past the earliest hit found so far.
    let chunks = weighted_chunks(&offsets, total, threads * 4);
    let best = AtomicU64::new(u64::MAX);
    let per_chunk = rayon::par_map(chunks.len(), |ci| {
        let mut overlay = OverlayIndex::new(Arc::clone(&frozen));
        let mut found: Option<(u64, Instance)> = None;
        for b in chunks[ci].clone() {
            if found.is_some() || offsets[b] >= best.load(Ordering::Relaxed) {
                break;
            }
            let mut local = 0u64;
            walk_branch(&privates, &mut overlay, b, depth, &mut |ov| {
                let g = offsets[b] + local;
                local += 1;
                if g >= best.load(Ordering::Relaxed) {
                    return true;
                }
                if fails(ov) {
                    best.fetch_min(g, Ordering::Relaxed);
                    found = Some((g, ov.to_instance()));
                    return true;
                }
                false
            });
        }
        found
    });
    let winner = per_chunk.into_iter().flatten().min_by_key(|(g, _)| *g);
    match winner {
        Some((g, inst)) => (Some(inst), g + 1),
        None => (None, total),
    }
}

/// A `rel(T)` tuple containing nulls, waiting for its valuation image.
struct TrackedTuple {
    rel: RelSym,
    tuple: Tuple,
    /// Distinct nulls of `tuple` not yet assigned by the current valuation
    /// prefix; the image enters the store when this reaches 0.
    unassigned: usize,
}

struct State<'a> {
    t: &'a AnnInstance,
    budget: &'a SearchBudget,
    check: &'a mut dyn FnMut(&Leaf<'_>) -> bool,
    extra_base: BTreeSet<ConstId>,
    leaves: u64,
    capped: bool,
    pool_truncated: bool,
    witness: Option<(Instance, Valuation)>,
    /// The single candidate store, kept in sync with the DFS by the
    /// apply/undo pairs in [`State::valuation_dfs`] / [`State::subsets`].
    delta: DeltaIndex,
    tracked: Vec<TrackedTuple>,
    by_null: FastMap<NullId, Vec<usize>>,
}

impl<'a> State<'a> {
    /// Assign `null ↦ c` and insert the images of tuples that just became
    /// fully valued; returns the applied images for [`State::unassign`].
    fn assign(&mut self, null: NullId, c: ConstId, v: &mut Valuation) -> Vec<(usize, Tuple)> {
        v.set(null, c);
        let mut applied = Vec::new();
        if let Some(tis) = self.by_null.get(&null) {
            for &ti in tis {
                let tt = &mut self.tracked[ti];
                tt.unassigned -= 1;
                if tt.unassigned == 0 {
                    let image = tt.tuple.apply(v);
                    self.delta.insert(tt.rel, image.clone());
                    applied.push((ti, image));
                }
            }
        }
        dx_obs::count!("solver.dfs.deltas_applied", applied.len());
        applied
    }

    /// Undo one [`State::assign`]: retract the images that entered the
    /// store (newest-first, per the store's LIFO discipline) and restore
    /// the unassigned-null counter of *every* tuple containing the null.
    fn unassign(&mut self, null: NullId, applied: Vec<(usize, Tuple)>, v: &mut Valuation) {
        dx_obs::count!("solver.dfs.deltas_undone", applied.len());
        for (ti, image) in applied.into_iter().rev() {
            self.delta.remove(self.tracked[ti].rel, &image);
        }
        if let Some(tis) = self.by_null.get(&null) {
            for &ti in tis {
                self.tracked[ti].unassigned += 1;
            }
        }
        v.unset(null);
    }

    fn valuation_dfs(
        &mut self,
        nulls: &[NullId],
        i: usize,
        fresh_used: usize,
        palette: &Palette,
        v: &mut Valuation,
    ) {
        if self.witness.is_some() || self.capped {
            return;
        }
        dx_obs::count!("solver.dfs.nodes");
        dx_obs::trace_instant!("solver.dfs.depth", "depth" = i, "fresh_used" = fresh_used);
        if i == nulls.len() {
            self.extras_phase(v);
            return;
        }
        for c in palette.choices(fresh_used) {
            let next_fresh = fresh_used + usize::from(palette.is_next_fresh(c, fresh_used));
            let applied = self.assign(nulls[i], c, v);
            self.valuation_dfs(nulls, i + 1, next_fresh, palette, v);
            self.unassign(nulls[i], applied, v);
            if self.witness.is_some() || self.capped {
                return;
            }
        }
    }

    /// Visit one candidate instance — the store as currently composed.
    fn leaf(&mut self, v: &Valuation) {
        dx_obs::count!("solver.dfs.leaves");
        self.leaves += 1;
        if let Some(cap) = self.budget.max_leaves {
            if self.leaves > cap {
                self.capped = true;
                return;
            }
        }
        let leaf = Leaf {
            delta: &self.delta,
            valuation: v,
        };
        if (self.check)(&leaf) {
            self.witness = Some((self.delta.to_instance(), v.clone()));
        }
    }

    fn extras_phase(&mut self, v: &Valuation) {
        // Every tuple with nulls has its valued image in the store, so the
        // store is ground.
        debug_assert!(self.tracked.iter().all(|tt| tt.unassigned == 0));
        // The bare valuation image is itself the first candidate (k = 0).
        self.leaf(v);
        if self.witness.is_some() || self.capped || self.budget.max_extra_tuples == 0 {
            return;
        }

        // Extension palette: adom of the valued instance + caller constants
        // + canonical external constants. The valued instance's constants
        // are those of `T` (already in `extra_base`) plus the valuation's
        // range — every null of `T` occurs in some tuple.
        let mut ext_base: BTreeSet<ConstId> = self.extra_base.clone();
        ext_base.extend(v.range());
        let ext_palette = Palette::new(
            ext_base.iter().copied(),
            self.budget.max_external_consts,
            "e",
        );
        let (pool, n_templates) = self.candidate_pool(v, &ext_palette);

        // Subsets of the pool, by increasing size.
        let max_k = self.budget.max_extra_tuples.min(pool.len());
        let mut chosen: Vec<usize> = Vec::new();
        let mut template_counts = vec![0usize; n_templates];
        for k in 1..=max_k {
            self.subsets(&pool, v, k, 0, &mut chosen, &mut template_counts);
            if self.witness.is_some() || self.capped {
                return;
            }
        }
    }

    /// Build the extra-tuple candidate pool. Each entry carries the id of
    /// the *template* (annotated tuple or empty marker) that licensed it,
    /// so per-template caps (1-to-m semantics) can be enforced. Returns the
    /// pool and the number of templates.
    ///
    /// Pool construction runs once per complete valuation (not per leaf) on
    /// the *valued* annotated instance `v(T)` — tuples that merge under `v`
    /// merge their templates, exactly as the paper's replication reading
    /// counts open tuples of the valued instance.
    fn candidate_pool(
        &mut self,
        v: &Valuation,
        palette: &Palette,
    ) -> (Vec<(RelSym, Tuple, usize)>, usize) {
        let valued = self.t.apply(v);
        let mut pool: Vec<(RelSym, Tuple, usize)> = Vec::new();
        let mut template = 0usize;
        let consts: Vec<ConstId> = palette.all().collect();
        for (rel, arel) in valued.relations() {
            // Replications of tuples with open positions.
            for at in arel.iter() {
                let open: Vec<usize> = at.ann.open_positions().collect();
                if open.is_empty() {
                    continue;
                }
                let tid = template;
                template += 1;
                let mut seen: BTreeSet<Tuple> = BTreeSet::new();
                let combos = consts.len().checked_pow(open.len() as u32);
                if combos.is_none_or(|c| pool.len() + c > self.budget.max_candidate_pool) {
                    self.pool_truncated = true;
                }
                let mut idx = vec![0usize; open.len()];
                'combo: loop {
                    if pool.len() >= self.budget.max_candidate_pool {
                        self.pool_truncated = true;
                        break 'combo;
                    }
                    let mut vals: Vec<Value> = at.tuple.values().to_vec();
                    for (slot, &pos) in open.iter().enumerate() {
                        vals[pos] = Value::Const(consts[idx[slot]]);
                    }
                    let cand = Tuple::new(vals);
                    if !self.delta.contains(rel, &cand) && seen.insert(cand.clone()) {
                        pool.push((rel, cand, tid));
                    }
                    // Next combination.
                    let mut carry = 0usize;
                    loop {
                        if carry == idx.len() {
                            break 'combo;
                        }
                        idx[carry] += 1;
                        if idx[carry] < consts.len() {
                            break;
                        }
                        idx[carry] = 0;
                        carry += 1;
                    }
                }
            }
            // Arbitrary tuples licensed by all-open empty markers.
            if arel.has_all_open_empty_mark() {
                let arity = arel.arity();
                if arity == 0 {
                    continue;
                }
                let tid = template;
                template += 1;
                let mut seen: BTreeSet<Tuple> = BTreeSet::new();
                let combos = consts.len().checked_pow(arity as u32);
                if combos.is_none_or(|c| pool.len() + c > self.budget.max_candidate_pool) {
                    self.pool_truncated = true;
                }
                let mut idx = vec![0usize; arity];
                'combo2: loop {
                    if pool.len() >= self.budget.max_candidate_pool {
                        self.pool_truncated = true;
                        break 'combo2;
                    }
                    let vals: Vec<Value> = idx.iter().map(|&j| Value::Const(consts[j])).collect();
                    let cand = Tuple::new(vals);
                    if !self.delta.contains(rel, &cand) && seen.insert(cand.clone()) {
                        pool.push((rel, cand, tid));
                    }
                    let mut carry = 0usize;
                    loop {
                        if carry == idx.len() {
                            break 'combo2;
                        }
                        idx[carry] += 1;
                        if idx[carry] < consts.len() {
                            break;
                        }
                        idx[carry] = 0;
                        carry += 1;
                    }
                }
            }
        }
        (pool, template)
    }

    #[allow(clippy::too_many_arguments)]
    fn subsets(
        &mut self,
        pool: &[(RelSym, Tuple, usize)],
        v: &Valuation,
        k: usize,
        start: usize,
        chosen: &mut Vec<usize>,
        template_counts: &mut [usize],
    ) {
        if self.witness.is_some() || self.capped {
            return;
        }
        dx_obs::count!("solver.dfs.nodes");
        if k == 0 {
            self.leaf(v);
            return;
        }
        if start + k > pool.len() {
            return;
        }
        let per_template = self.budget.max_extra_per_template.unwrap_or(usize::MAX);
        for i in start..=(pool.len() - k) {
            let (rel, tuple, tid) = &pool[i];
            if template_counts[*tid] >= per_template {
                continue;
            }
            template_counts[*tid] += 1;
            chosen.push(i);
            dx_obs::count!("solver.dfs.deltas_applied");
            self.delta.insert(*rel, tuple.clone());
            self.subsets(pool, v, k - 1, i + 1, chosen, template_counts);
            dx_obs::count!("solver.dfs.deltas_undone");
            self.delta.remove(*rel, tuple);
            chosen.pop();
            template_counts[*tid] -= 1;
            if self.witness.is_some() || self.capped {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_relation::{Ann, AnnTuple, Annotation};

    fn at(vals: Vec<Value>, anns: Vec<Ann>) -> AnnTuple {
        AnnTuple::new(Tuple::new(vals), Annotation::new(anns))
    }

    /// All-closed: the search space is exactly the valuations.
    #[test]
    fn closed_world_counts_valuations() {
        let rel = RelSym::new("EnumA");
        let mut t = AnnInstance::new();
        t.insert(
            rel,
            at(
                vec![Value::c("a"), Value::null(0)],
                vec![Ann::Closed, Ann::Closed],
            ),
        );
        // Palette: base {a} + 1 fresh → 2 valuations → 2 leaves.
        let n = search_rep_a_indexed(
            &t,
            &BTreeSet::new(),
            &SearchBudget::closed_world(),
            &mut |_| false,
        )
        .leaves;
        assert_eq!(n, 2);
    }

    /// Symmetry breaking: with two independent nulls and no base constants,
    /// the canonical valuations are ⊥0↦f0 with ⊥1 ∈ {f0, f1}: 2 leaves,
    /// not 4.
    #[test]
    fn fresh_constant_symmetry_breaking() {
        let rel = RelSym::new("EnumB");
        let mut t = AnnInstance::new();
        t.insert(
            rel,
            at(
                vec![Value::null(0), Value::null(1)],
                vec![Ann::Closed, Ann::Closed],
            ),
        );
        let n = search_rep_a_indexed(
            &t,
            &BTreeSet::new(),
            &SearchBudget::closed_world(),
            &mut |_| false,
        )
        .leaves;
        assert_eq!(n, 2);
    }

    /// Open positions produce replicated extras.
    #[test]
    fn open_replication_finds_bigger_instances() {
        let rel = RelSym::new("EnumC");
        let mut t = AnnInstance::new();
        t.insert(
            rel,
            at(
                vec![Value::c("a"), Value::null(0)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        // Look for an instance with ≥ 3 tuples (requires 2 extras).
        let outcome = search_rep_a_indexed(
            &t,
            &BTreeSet::new(),
            &SearchBudget::bounded(2, 2),
            &mut |leaf| leaf.index().to_instance().tuple_count() >= 3,
        );
        let (w, _) = outcome.witness.expect("replication should reach 3 tuples");
        assert_eq!(w.tuple_count(), 3);
        // All tuples share the closed first coordinate.
        for tup in w.tuples(rel) {
            assert_eq!(tup.get(0), Value::c("a"));
        }
    }

    /// A closed instance can never grow.
    #[test]
    fn closed_instances_cannot_grow() {
        let rel = RelSym::new("EnumD");
        let mut t = AnnInstance::new();
        t.insert(
            rel,
            at(
                vec![Value::c("a"), Value::null(0)],
                vec![Ann::Closed, Ann::Closed],
            ),
        );
        let outcome = search_rep_a_indexed(
            &t,
            &BTreeSet::new(),
            &SearchBudget::default(),
            &mut |leaf| leaf.index().to_instance().tuple_count() >= 2,
        );
        assert!(outcome.witness.is_none());
        assert_eq!(outcome.completeness, Completeness::Exact);
    }

    /// Witnesses returned really are Rep_A members.
    #[test]
    fn witnesses_verify_via_repa_membership() {
        let rel = RelSym::new("EnumE");
        let mut t = AnnInstance::new();
        t.insert(
            rel,
            at(
                vec![Value::null(0), Value::null(1)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        let outcome = search_rep_a_indexed(
            &t,
            &BTreeSet::new(),
            &SearchBudget::bounded(1, 2),
            &mut |leaf| leaf.index().to_instance().tuple_count() == 2,
        );
        let (w, _) = outcome.witness.expect("found");
        assert!(crate::repa::rep_a_membership(&t, &w).is_some());
    }

    /// Empty markers: all-open marks generate arbitrary tuples.
    #[test]
    fn all_open_marks_generate() {
        let rel = RelSym::new("EnumF");
        let mut t = AnnInstance::new();
        t.insert_empty_mark(rel, Annotation::all_open(1));
        let outcome = search_rep_a_indexed(
            &t,
            &BTreeSet::new(),
            &SearchBudget::bounded(2, 1),
            &mut |leaf| leaf.index().to_instance().tuple_count() == 1,
        );
        assert!(outcome.witness.is_some());
        // And the empty instance is also in the space (first leaf).
        let outcome2 = search_rep_a_indexed(
            &t,
            &BTreeSet::new(),
            &SearchBudget::bounded(2, 1),
            &mut |leaf| leaf.index().to_instance().is_empty(),
        );
        assert!(outcome2.witness.is_some());
    }

    /// Leaf caps are honoured and reported.
    #[test]
    fn leaf_cap_reported() {
        let rel = RelSym::new("EnumG");
        let mut t = AnnInstance::new();
        for i in 0..4 {
            t.insert(rel, at(vec![Value::null(i)], vec![Ann::Closed]));
        }
        let budget = SearchBudget {
            max_leaves: Some(3),
            ..SearchBudget::closed_world()
        };
        let outcome = search_rep_a_indexed(&t, &BTreeSet::new(), &budget, &mut |_| false);
        assert_eq!(outcome.completeness, Completeness::Capped);
    }

    /// Minimal members: extras never matter, merging valuations produce
    /// ⊆-comparable images, and only the minimal ones survive.
    #[test]
    fn minimal_members_are_minimal_images() {
        let rel = RelSym::new("MinA");
        let mut t = AnnInstance::new();
        // Two tuples sharing no nulls; ⊥0 = ⊥1 merges them into one image
        // that is a strict subset of every non-merging image.
        t.insert(
            rel,
            at(
                vec![Value::c("a"), Value::null(0)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        t.insert(
            rel,
            at(
                vec![Value::c("a"), Value::null(1)],
                vec![Ann::Closed, Ann::Closed],
            ),
        );
        let (minimal, comp) = minimal_rep_a_members(&t, &BTreeSet::new(), None);
        assert_eq!(comp, Completeness::Exact);
        // Merged images {(a,c)} (one per palette constant, canonically one
        // for the fresh constant + one for "a") are the only minimal ones.
        for m in &minimal {
            assert_eq!(m.tuple_count(), 1, "minimal members merge the nulls: {m}");
        }
        assert!(!minimal.is_empty());
        // Every minimal member is a genuine Rep_A member.
        for m in &minimal {
            assert!(crate::repa::rep_a_membership(&t, m).is_some());
        }
        // And open positions admit strictly larger members, which are not
        // reported minimal: check by searching for a 3-tuple witness.
        let bigger = search_rep_a_indexed(
            &t,
            &BTreeSet::new(),
            &SearchBudget::bounded(1, 2),
            &mut |leaf| leaf.index().to_instance().tuple_count() >= 3,
        );
        assert!(bigger.witness.is_some());
    }

    /// The union walker visits every nonempty subset once (up to the size
    /// cap), with the live store equal to the materialized union at every
    /// visit.
    #[test]
    fn union_walker_matches_materialized_unions() {
        let mk = |names: &[&str]| {
            let mut i = Instance::new();
            for n in names {
                i.insert_names("UnW", &[n, "shared"]);
                i.insert_names("UnW", &["common", "base"]);
            }
            i
        };
        let members = [mk(&["a"]), mk(&["b"]), mk(&["c"])];
        let mut seen: Vec<Instance> = Vec::new();
        let visited = for_each_union(&members, usize::MAX, &mut |delta| {
            let union = delta.to_instance();
            seen.push(union.clone());
            // Index and view agree at every node.
            for (r, rl) in union.relations() {
                assert_eq!(delta.rel_len(r), rl.len());
                for t in rl.iter() {
                    assert!(delta.contains(r, t));
                }
            }
            false
        });
        assert_eq!(visited, 7, "2³ − 1 nonempty subsets");
        assert_eq!(seen.len(), 7);
        // Each visited store is the union of a distinct subset.
        let mut expected: Vec<Instance> = Vec::new();
        for mask in 1u32..8 {
            let mut u = Instance::new();
            for (i, m) in members.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    u = u.union(m);
                }
            }
            expected.push(u);
        }
        seen.sort();
        expected.sort();
        assert_eq!(seen, expected);
        // The size cap prunes: singletons + pairs only.
        let capped = for_each_union(&members, 2, &mut |_| false);
        assert_eq!(capped, 6);
        // Early stop is honoured.
        let mut n = 0;
        let stopped = for_each_union(&members, usize::MAX, &mut |_| {
            n += 1;
            n == 3
        });
        assert_eq!(stopped, 3);
    }

    /// Serializes tests that change the process-global pool width, so their
    /// width-sensitive comparisons never race each other.
    fn width_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// A pseudo-random family of overlapping members over one relation.
    fn random_members(seed: &mut u64) -> Vec<Instance> {
        let n_members = 3 + (xorshift(seed) % 4) as usize;
        let consts = ["c0", "c1", "c2", "c3", "c4"];
        (0..n_members)
            .map(|_| {
                let mut m = Instance::new();
                // A shared spine keeps the common base nonempty sometimes.
                m.insert_names("SwU", &["spine", "spine"]);
                let tuples = 1 + (xorshift(seed) % 4) as usize;
                for _ in 0..tuples {
                    let a = consts[(xorshift(seed) % 5) as usize];
                    let b = consts[(xorshift(seed) % 5) as usize];
                    m.insert_names("SwU", &[a, b]);
                }
                m
            })
            .collect()
    }

    /// The retain sweep is bit-identical to the sequential
    /// [`for_each_union`] retain loop — survivors, order, and the
    /// early-stop union count — at every pool width, across random member
    /// families and candidate sets.
    #[test]
    fn retain_sweep_bit_identical_across_widths() {
        let _guard = width_lock();
        let rel = RelSym::new("SwU");
        let mut seed = 0x5eed_0001_u64;
        for case in 0..25 {
            let members = random_members(&mut seed);
            let max_k = if case % 3 == 0 { 2 } else { usize::MAX };
            // Candidates: a mix of base-resident, sometimes-present, and
            // absent tuples — kills land at varying union indices.
            let mut candidates = vec![
                Tuple::from_names(&["spine", "spine"]),
                Tuple::from_names(&["absent", "absent"]),
            ];
            for _ in 0..3 {
                let consts = ["c0", "c1", "c2", "c3", "c4"];
                let a = consts[(xorshift(&mut seed) % 5) as usize];
                let b = consts[(xorshift(&mut seed) % 5) as usize];
                candidates.push(Tuple::from_names(&[a, b]));
            }
            // Sequential reference on the single DeltaIndex walk.
            let mut reference = candidates.clone();
            let ref_unions = for_each_union(&members, max_k, &mut |delta| {
                reference.retain(|t| delta.contains(rel, t));
                reference.is_empty()
            });
            for width in [1usize, 2, 3, 4, 8] {
                rayon::set_threads(width);
                let (survivors, unions) =
                    union_retain_sweep(&members, max_k, candidates.clone(), &|ov, t| {
                        ov.contains(rel, t)
                    });
                assert_eq!(survivors, reference, "case {case} width {width}");
                assert_eq!(unions, ref_unions, "case {case} width {width}");
            }
            rayon::set_threads(0);
        }
    }

    /// The refute sweep returns the canonical-order first falsifying union
    /// (instance and early-stop count) at every pool width.
    #[test]
    fn refute_sweep_bit_identical_across_widths() {
        let _guard = width_lock();
        let mut seed = 0x5eed_0002_u64;
        for case in 0..25 {
            let members = random_members(&mut seed);
            let max_k = if case % 4 == 0 { 2 } else { usize::MAX };
            // Thresholds straddle reachable and unreachable counts.
            let threshold = 1 + (xorshift(&mut seed) % 8) as usize;
            let mut ref_cex = None;
            let ref_unions = for_each_union(&members, max_k, &mut |delta| {
                let union = delta.to_instance();
                if union.tuple_count() >= threshold {
                    ref_cex = Some(union);
                    true
                } else {
                    false
                }
            });
            for width in [1usize, 2, 3, 4, 8] {
                rayon::set_threads(width);
                let (cex, unions) = union_refute_sweep(&members, max_k, &|ov| {
                    ov.to_instance().tuple_count() >= threshold
                });
                assert_eq!(cex, ref_cex, "case {case} width {width}");
                assert_eq!(unions, ref_unions, "case {case} width {width}");
            }
            rayon::set_threads(0);
        }
    }

    /// The minimal-member sweep returns the same minimal set (and
    /// completeness) at every pool width, including the capped fallback.
    #[test]
    fn minimal_members_bit_identical_across_widths() {
        let _guard = width_lock();
        let rel = RelSym::new("SwM");
        let mut seed = 0x5eed_0003_u64;
        for case in 0..10 {
            let mut t = AnnInstance::new();
            let nulls = 2 + (xorshift(&mut seed) % 3) as usize;
            for i in 0..nulls {
                let closed = xorshift(&mut seed).is_multiple_of(2);
                t.insert(
                    rel,
                    at(
                        vec![
                            Value::c(["a", "b"][(xorshift(&mut seed) % 2) as usize]),
                            Value::null(i as u32),
                        ],
                        vec![Ann::Closed, if closed { Ann::Closed } else { Ann::Open }],
                    ),
                );
            }
            t.insert(
                rel,
                at(
                    vec![Value::c("g"), Value::c("g")],
                    vec![Ann::Closed, Ann::Closed],
                ),
            );
            for cap in [None, Some(3u64)] {
                rayon::set_threads(1);
                let reference = minimal_rep_a_members(&t, &BTreeSet::new(), cap);
                for width in [2usize, 4, 8] {
                    rayon::set_threads(width);
                    let got = minimal_rep_a_members(&t, &BTreeSet::new(), cap);
                    assert_eq!(got.0, reference.0, "case {case} width {width} cap {cap:?}");
                    assert_eq!(got.1, reference.1, "case {case} width {width} cap {cap:?}");
                }
            }
            rayon::set_threads(0);
        }
    }

    /// The incremental store presented to leaves is exactly the instance the
    /// old rebuild-per-candidate engine materialized: `v(rel(T))` plus the
    /// chosen extras — validated against a from-scratch reconstruction at
    /// every leaf of a mixed open/closed search.
    #[test]
    fn leaf_store_matches_materialized_candidate() {
        let rel = RelSym::new("EnumH");
        let r2 = RelSym::new("EnumH2");
        let mut t = AnnInstance::new();
        t.insert(
            rel,
            at(
                vec![Value::c("a"), Value::null(0)],
                vec![Ann::Closed, Ann::Open],
            ),
        );
        t.insert(
            rel,
            at(
                vec![Value::null(0), Value::null(1)],
                vec![Ann::Closed, Ann::Closed],
            ),
        );
        t.insert(r2, at(vec![Value::null(1)], vec![Ann::Closed]));
        t.insert_empty_mark(r2, Annotation::all_open(1));
        let mut leaves = 0u64;
        let outcome = search_rep_a_indexed(
            &t,
            &BTreeSet::new(),
            &SearchBudget::bounded(1, 2),
            &mut |leaf| {
                leaves += 1;
                let inst = &leaf.index().to_instance();
                // The valuation is total and the view is its ground image
                // plus extras only.
                assert!(inst.is_ground());
                let base = t.apply(leaf.valuation()).rel_part();
                assert!(base.is_subinstance_of(inst), "valuation image present");
                // Index agrees with the instance on every point probe.
                for (r, rl) in inst.relations() {
                    assert_eq!(leaf.index().rel_len(r), rl.len());
                    for tu in rl.iter() {
                        assert!(leaf.index().contains(r, tu));
                    }
                }
                false
            },
        );
        assert!(outcome.witness.is_none());
        assert_eq!(outcome.leaves, leaves);
        assert!(leaves > 10, "mixed search explores replication space");
    }
}
