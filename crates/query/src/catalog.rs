//! The shared compiled-plan catalog.
//!
//! Every pipeline stage that evaluates queries — `dx-core`'s certain/
//! possible-answer engines, composition, the 1-to-m and PTIME-language
//! extensions, the c-table CWA routes, `dx-chase`'s planned body
//! evaluation, and `dx-solver`'s `Rep_A` refutation closures — needs the
//! same thing: *the compiled form of a query it has seen before*. Before
//! this module each consumer compiled (and re-compiled) privately;
//! [`PlanCatalog`] is the one place plans live:
//!
//! * entries are keyed by a **structural hash** of the query (formula +
//!   head, or `RaExpr`) combined with a **schema fingerprint**, and
//!   verified by full structural equality — a hash collision can cost a
//!   recompile, never a wrong plan;
//! * lookups are **interior-mutable** behind a read-mostly `RwLock`: the
//!   hit path — the overwhelmingly common case inside refutation loops —
//!   takes a shared read lock, so lookups of already-compiled plans never
//!   serialize;
//!   only inserting a freshly compiled plan takes the write lock. One
//!   catalog instance — typically [`PlanCatalog::shared`] — serves a
//!   whole pipeline, across stages and threads, without plumbing
//!   `&mut` through every signature;
//! * compiled artifacts are returned as [`Arc`]s: consumers hold cheap
//!   clones, the catalog keeps the canonical copy, and repeated calls with
//!   an equal query are hash-lookup cheap (the per-leaf cost inside a
//!   refutation loop);
//! * negative results (non-safe-range formulas, ill-schema'd RA) are cached
//!   too, so fallback paths do not re-attempt lowering per call.
//!
//! ## Keying and invalidation
//!
//! The schema fingerprint ([`PlanCatalog::fingerprint`]) hashes the
//! `(relation, arity)` pairs of the scenario's target schema. Plans are
//! schema independent — the same formula always lowers to the same plan —
//! but the fingerprint keeps entries *scenario scoped*: two exchange
//! problems reusing a query text over different schemas get separate
//! entries, so [`PlanCatalog::clear`] (the only invalidation: interned
//! symbols never change meaning within a process, so entries cannot go
//! stale) and [`PlanCatalog::stats`] stay attributable. Callers without a
//! schema at hand use the unfingerprinted entry points.

use crate::delta::delta_plan;
use crate::eval::{CompiledQuery, QueryEval};
use crate::lower::{LowerError, LowerReason};
use crate::plan::Plan;
use crate::ra::CompiledRa;
use dx_ctables::algebra::RaError;
use dx_ctables::RaExpr;
use dx_logic::{Formula, Query};
use dx_relation::fxmap::FastHasher;
use dx_relation::{FastMap, RelSym, Schema, Var};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock, RwLock};

/// Catalog usage counters (see [`PlanCatalog::stats`]).
///
/// Since the dx-obs integration this is a *view*: hit/miss tallies live in
/// [`dx_obs::Counter`] sinks — registered as `query.catalog.hits` /
/// `query.catalog.misses` for [`PlanCatalog::shared`], detached (private
/// to the instance) for [`PlanCatalog::new`] — and `stats()` reads them
/// back out. The accessor API and its exact semantics (per-instance
/// isolation, `clear()` resetting counts) are unchanged.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Number of cached entries (all kinds).
    pub entries: usize,
    /// Estimated resident bytes of the cached entries (struct + compiled
    /// artifact shells per entry kind — an order-of-magnitude gauge for
    /// `mem.catalog.est_bytes`, not an allocator audit).
    pub est_bytes: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that compiled.
    pub misses: u64,
    /// Lowering rejections by reason class, counted once per distinct
    /// rejected query/formula (cache hits on a negative entry do not
    /// re-count) — the observability hook that keeps fragment gaps visible
    /// in bench/CI output instead of silently tree-walking.
    pub rejections: Vec<(LowerReason, u64)>,
}

impl CatalogStats {
    /// Total rejected compilations across all reasons.
    pub fn rejected(&self) -> u64 {
        self.rejections.iter().map(|(_, n)| n).sum()
    }
}

struct QueryEntry {
    schema_fp: u64,
    query: Query,
    eval: Arc<QueryEval>,
}

struct FormulaEntry {
    formula: Formula,
    head: Vec<Var>,
    compiled: Result<Arc<CompiledQuery>, LowerError>,
}

struct RaEntry {
    schema_fp: u64,
    expr: RaExpr,
    compiled: Result<Arc<CompiledRa>, RaError>,
}

struct DeltaEntry {
    schema_fp: u64,
    query: Query,
    changed: BTreeSet<RelSym>,
    /// `None` = the query is non-monotone in the changed relations (or not
    /// compiled) — the negative result is cached so streaming sessions do
    /// not re-derive the refusal per batch.
    variant: Option<Arc<Plan>>,
}

#[derive(Default)]
struct Inner {
    queries: FastMap<u64, Vec<QueryEntry>>,
    formulas: FastMap<u64, Vec<FormulaEntry>>,
    ras: FastMap<u64, Vec<RaEntry>>,
    deltas: FastMap<u64, Vec<DeltaEntry>>,
    rejections: BTreeMap<LowerReason, u64>,
    // `clear()` baselines: the obs counters are monotonic, so a cleared
    // catalog reports `counter - base` instead of resetting the sink.
    hits_base: u64,
    misses_base: u64,
}

impl Inner {
    fn note_rejection(&mut self, err: Option<&LowerError>) {
        if let Some(err) = err {
            *self.rejections.entry(err.reason()).or_default() += 1;
            dx_obs::count!("query.catalog.rejections");
        }
    }
}

impl Inner {
    fn entries(&self) -> usize {
        self.queries.values().map(Vec::len).sum::<usize>()
            + self.formulas.values().map(Vec::len).sum::<usize>()
            + self.ras.values().map(Vec::len).sum::<usize>()
            + self.deltas.values().map(Vec::len).sum::<usize>()
    }

    /// Order-of-magnitude resident size: per-entry struct shells plus the
    /// Arc'd compiled artifact for each entry kind. Deliberately cheap —
    /// no plan-tree traversal — so it can run on every bench row.
    fn estimated_bytes(&self) -> u64 {
        use std::mem::size_of;
        let q = self.queries.values().map(Vec::len).sum::<usize>()
            * (size_of::<QueryEntry>() + size_of::<QueryEval>());
        let f = self.formulas.values().map(Vec::len).sum::<usize>()
            * (size_of::<FormulaEntry>() + size_of::<CompiledQuery>());
        let r = self.ras.values().map(Vec::len).sum::<usize>()
            * (size_of::<RaEntry>() + size_of::<CompiledRa>());
        let d = self.deltas.values().map(Vec::len).sum::<usize>()
            * (size_of::<DeltaEntry>() + size_of::<Plan>());
        let rej = self.rejections.len() * size_of::<(LowerReason, u64)>();
        (q + f + r + d + rej) as u64
    }
}

/// A shared, interior-mutable cache of compiled query plans (see the
/// module docs).
pub struct PlanCatalog {
    inner: RwLock<Inner>,
    hits: dx_obs::Counter,
    misses: dx_obs::Counter,
}

impl Default for PlanCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCatalog {
    /// An empty catalog (for scoped pipelines and tests; most consumers use
    /// [`PlanCatalog::shared`]). Its hit/miss counters are detached —
    /// private to the instance, never visible in the global metrics
    /// snapshot — so tests stay isolated.
    pub fn new() -> Self {
        PlanCatalog {
            inner: RwLock::default(),
            hits: dx_obs::Counter::detached(),
            misses: dx_obs::Counter::detached(),
        }
    }

    /// The process-wide catalog: one instance serving every pipeline, so a
    /// query compiled during, say, certain answering is reused verbatim by
    /// the solver's refutation closures and the bench harness. Its hit/miss
    /// counters are the registered `query.catalog.hits` /
    /// `query.catalog.misses` metrics.
    pub fn shared() -> &'static PlanCatalog {
        static SHARED: OnceLock<PlanCatalog> = OnceLock::new();
        SHARED.get_or_init(|| PlanCatalog {
            inner: RwLock::default(),
            hits: dx_obs::registry().counter("query.catalog.hits"),
            misses: dx_obs::registry().counter("query.catalog.misses"),
        })
    }

    /// The schema fingerprint: a structural hash of the `(relation, arity)`
    /// pairs. Deterministic within a process (interned symbol ids are
    /// first-use stable).
    pub fn fingerprint(schema: &Schema) -> u64 {
        let mut h = FastHasher::default();
        for (rel, arity) in schema.iter() {
            rel.hash(&mut h);
            arity.hash(&mut h);
        }
        h.finish()
    }

    /// The compile-or-fallback evaluator for `query`, unscoped (fingerprint
    /// 0). Compiles on first sight, hash-lookup cheap afterwards.
    pub fn eval(&self, query: &Query) -> Arc<QueryEval> {
        self.eval_fp(query, 0)
    }

    /// [`PlanCatalog::eval`] scoped to a target schema's fingerprint.
    pub fn eval_in(&self, query: &Query, schema: &Schema) -> Arc<QueryEval> {
        self.eval_fp(query, Self::fingerprint(schema))
    }

    fn eval_fp(&self, query: &Query, schema_fp: u64) -> Arc<QueryEval> {
        let mut h = FastHasher::default();
        query.formula.hash(&mut h);
        query.head.hash(&mut h);
        schema_fp.hash(&mut h);
        let key = h.finish();
        {
            let inner = self.inner.read().expect("catalog lock");
            if let Some(e) = inner.queries.get(&key).and_then(|bucket| {
                bucket
                    .iter()
                    .find(|e| e.schema_fp == schema_fp && &e.query == query)
            }) {
                let eval = Arc::clone(&e.eval);
                self.hits.incr();
                return eval;
            }
        }
        // Compile outside the lock: a miss must not serialize other users
        // (or deadlock a re-entrant lookup). Double-check before inserting —
        // a racing thread may have compiled the same query meanwhile.
        let eval = Arc::new(QueryEval::new(query));
        let mut inner = self.inner.write().expect("catalog lock");
        let bucket = inner.queries.entry(key).or_default();
        if let Some(e) = bucket
            .iter()
            .find(|e| e.schema_fp == schema_fp && &e.query == query)
        {
            let eval = Arc::clone(&e.eval);
            self.hits.incr();
            return eval;
        }
        bucket.push(QueryEntry {
            schema_fp,
            query: query.clone(),
            eval: Arc::clone(&eval),
        });
        inner.note_rejection(eval.lower_error());
        self.misses.incr();
        eval
    }

    /// The **delta-plan variant** of `query` with respect to the `changed`
    /// relations, scoped to a schema fingerprint: the cached result of
    /// [`crate::delta::delta_plan`] over the query's compiled plan.
    /// `None` means incremental maintenance is unsound for this
    /// (query, changed) pair — a changed relation sits under two negations
    /// or on a seeded anti-join's correlated side, or the query does not
    /// compile — and the caller must recompute; the refusal is cached like
    /// any other entry.
    pub fn delta_in(
        &self,
        query: &Query,
        schema: &Schema,
        changed: &BTreeSet<RelSym>,
    ) -> Option<Arc<Plan>> {
        let schema_fp = Self::fingerprint(schema);
        let mut h = FastHasher::default();
        query.formula.hash(&mut h);
        query.head.hash(&mut h);
        schema_fp.hash(&mut h);
        changed.hash(&mut h);
        let key = h.finish();
        {
            let inner = self.inner.read().expect("catalog lock");
            if let Some(e) = inner.deltas.get(&key).and_then(|bucket| {
                bucket.iter().find(|e| {
                    e.schema_fp == schema_fp && &e.query == query && &e.changed == changed
                })
            }) {
                self.hits.incr();
                return e.variant.clone();
            }
        }
        let variant = self
            .eval_fp(query, schema_fp)
            .compiled()
            .and_then(|cq| delta_plan(cq.plan(), changed))
            .map(Arc::new);
        let mut inner = self.inner.write().expect("catalog lock");
        let bucket = inner.deltas.entry(key).or_default();
        if let Some(e) = bucket
            .iter()
            .find(|e| e.schema_fp == schema_fp && &e.query == query && &e.changed == changed)
        {
            self.hits.incr();
            return e.variant.clone();
        }
        bucket.push(DeltaEntry {
            schema_fp,
            query: query.clone(),
            changed: changed.clone(),
            variant: variant.clone(),
        });
        self.misses.incr();
        variant
    }

    /// The compiled plan of a bare formula with an explicit head (the
    /// STD-body shape used by [`crate::eval::PlannedBodyEval`]). Both
    /// successful compiles and safe-range rejections are cached.
    pub fn formula(
        &self,
        formula: &Formula,
        head: &[Var],
    ) -> Result<Arc<CompiledQuery>, LowerError> {
        let mut h = FastHasher::default();
        formula.hash(&mut h);
        head.hash(&mut h);
        let key = h.finish();
        {
            let inner = self.inner.read().expect("catalog lock");
            if let Some(e) = inner.formulas.get(&key).and_then(|bucket| {
                bucket
                    .iter()
                    .find(|e| e.head == head && &e.formula == formula)
            }) {
                let compiled = e.compiled.clone();
                self.hits.incr();
                return compiled;
            }
        }
        let compiled = CompiledQuery::compile_formula(formula, head).map(Arc::new);
        let mut inner = self.inner.write().expect("catalog lock");
        let bucket = inner.formulas.entry(key).or_default();
        if let Some(e) = bucket
            .iter()
            .find(|e| e.head == head && &e.formula == formula)
        {
            let compiled = e.compiled.clone();
            self.hits.incr();
            return compiled;
        }
        bucket.push(FormulaEntry {
            formula: formula.clone(),
            head: head.to_vec(),
            compiled: compiled.clone(),
        });
        inner.note_rejection(compiled.as_ref().err().map(|e| e as &LowerError));
        self.misses.incr();
        compiled
    }

    /// The compiled plan of a positional relational-algebra expression over
    /// `schema` (the c-table CWA route). Schema errors are cached alongside
    /// successes — the expression is structurally invalid for that
    /// fingerprint, so re-validation would re-fail identically.
    pub fn ra_in(&self, expr: &RaExpr, schema: &Schema) -> Result<Arc<CompiledRa>, RaError> {
        let schema_fp = Self::fingerprint(schema);
        let mut h = FastHasher::default();
        expr.hash(&mut h);
        schema_fp.hash(&mut h);
        let key = h.finish();
        {
            let inner = self.inner.read().expect("catalog lock");
            if let Some(e) = inner.ras.get(&key).and_then(|bucket| {
                bucket
                    .iter()
                    .find(|e| e.schema_fp == schema_fp && &e.expr == expr)
            }) {
                let compiled = e.compiled.clone();
                self.hits.incr();
                return compiled;
            }
        }
        let compiled = CompiledRa::compile(expr, &|r| schema.arity(r)).map(Arc::new);
        let mut inner = self.inner.write().expect("catalog lock");
        let bucket = inner.ras.entry(key).or_default();
        if let Some(e) = bucket
            .iter()
            .find(|e| e.schema_fp == schema_fp && &e.expr == expr)
        {
            let compiled = e.compiled.clone();
            self.hits.incr();
            return compiled;
        }
        bucket.push(RaEntry {
            schema_fp,
            expr: expr.clone(),
            compiled: compiled.clone(),
        });
        self.misses.incr();
        compiled
    }

    /// Usage counters, read back out of the obs sinks (relative to the
    /// last [`PlanCatalog::clear`]).
    pub fn stats(&self) -> CatalogStats {
        let inner = self.inner.read().expect("catalog lock");
        let stats = CatalogStats {
            entries: inner.entries(),
            est_bytes: inner.estimated_bytes(),
            hits: self.hits.get().saturating_sub(inner.hits_base),
            misses: self.misses.get().saturating_sub(inner.misses_base),
            rejections: inner
                .rejections
                .iter()
                .map(|(reason, n)| (*reason, *n))
                .collect(),
        };
        // Reading the stats refreshes the catalog's footprint gauges, so
        // snapshots (and bench rows) carry the current entry count and
        // size estimate (last-value semantics; see `dx_obs::mem`).
        dx_obs::mem::publish_all(&[
            (dx_obs::mem::names::CATALOG_ENTRIES, stats.entries as u64),
            (dx_obs::mem::names::CATALOG_EST_BYTES, stats.est_bytes),
        ]);
        stats
    }

    /// Drop every entry (counters included). The underlying obs counters
    /// are monotonic; clearing rebases the view [`PlanCatalog::stats`]
    /// reports.
    pub fn clear(&self) {
        let mut inner = self.inner.write().expect("catalog lock");
        *inner = Inner::default();
        inner.hits_base = self.hits.get();
        inner.misses_base = self.misses.get();
    }
}

impl std::fmt::Debug for PlanCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCatalog")
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_relation::{Instance, RelSym, Tuple};

    fn inst() -> Instance {
        let mut i = Instance::new();
        i.insert_names("CatR", &["a", "b"]);
        i.insert_names("CatR", &["b", "c"]);
        i
    }

    #[test]
    fn query_entries_are_shared_and_counted() {
        let cat = PlanCatalog::new();
        let q = Query::parse(&["x"], "exists y. CatR(x, y)").unwrap();
        let e1 = cat.eval(&q);
        let e2 = cat.eval(&q);
        assert!(Arc::ptr_eq(&e1, &e2), "same Arc from the cache");
        let stats = cat.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(
            stats.est_bytes > 0,
            "a populated catalog reports a nonzero size estimate"
        );
        cat.clear();
        assert_eq!(cat.stats().est_bytes, 0, "cleared catalog holds nothing");
        // Evaluation through the cached entry matches a fresh compile.
        assert_eq!(e1.answers(&inst()), QueryEval::new(&q).answers(&inst()));
    }

    #[test]
    fn schema_fingerprint_scopes_entries() {
        let cat = PlanCatalog::new();
        let q = Query::parse(&["x"], "CatR(x, x)").unwrap();
        let s1 = Schema::from_pairs([("CatR", 2)]);
        let s2 = Schema::from_pairs([("CatR", 2), ("CatS", 1)]);
        assert_ne!(PlanCatalog::fingerprint(&s1), PlanCatalog::fingerprint(&s2));
        let a = cat.eval_in(&q, &s1);
        let b = cat.eval_in(&q, &s2);
        assert!(
            !Arc::ptr_eq(&a, &b),
            "different scenarios, separate entries"
        );
        assert_eq!(cat.stats().entries, 2);
        assert!(Arc::ptr_eq(&a, &cat.eval_in(&q, &s1)));
    }

    #[test]
    fn formula_rejections_are_cached() {
        let cat = PlanCatalog::new();
        let bad = dx_logic::parse_formula("x = y").unwrap();
        let head = [dx_relation::Var::new("x"), dx_relation::Var::new("y")];
        assert!(cat.formula(&bad, &head).is_err());
        assert!(cat.formula(&bad, &head).is_err());
        let stats = cat.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The rejection is attributed to its reason class, once (the cached
        // negative replay does not re-count).
        assert_eq!(
            stats.rejections,
            vec![(crate::lower::LowerReason::BareVariableEquality, 1)]
        );
        assert_eq!(stats.rejected(), 1);
        // A good formula compiles once and is replayed.
        let good = dx_logic::parse_formula("CatR(x, y)").unwrap();
        let c1 = cat.formula(&good, &head).unwrap();
        let c2 = cat.formula(&good, &head).unwrap();
        assert!(Arc::ptr_eq(&c1, &c2));
    }

    #[test]
    fn delta_variants_are_cached_per_changed_set() {
        let cat = PlanCatalog::new();
        let q = Query::parse(&["x"], "exists y. CatR(x, y)").unwrap();
        let schema = Schema::from_pairs([("CatR", 2), ("CatS", 2)]);
        let changed: BTreeSet<RelSym> = [RelSym::new("CatR")].into();
        let d1 = cat.delta_in(&q, &schema, &changed).expect("monotone");
        let d2 = cat.delta_in(&q, &schema, &changed).expect("monotone");
        assert!(Arc::ptr_eq(&d1, &d2), "one canonical delta variant");
        // An unrelated changed set is a distinct (cached) entry, and a
        // query with the changed relation under two negations caches its
        // refusal.
        let other: BTreeSet<RelSym> = [RelSym::new("CatS")].into();
        let empty = cat.delta_in(&q, &schema, &other).expect("still monotone");
        assert!(matches!(*empty, Plan::Empty { .. }));
        let neg = Query::parse(
            &["x"],
            "exists y. CatR(x, y) & !exists r. (CatS(x, r) & !CatS(r, r))",
        )
        .unwrap();
        assert!(cat.delta_in(&neg, &schema, &other).is_none());
        let before = cat.stats().hits;
        assert!(cat.delta_in(&neg, &schema, &other).is_none());
        assert_eq!(cat.stats().hits, before + 1, "negative result replayed");
    }

    #[test]
    fn ra_entries_compile_once_per_schema() {
        let cat = PlanCatalog::new();
        let expr = RaExpr::rel("CatR").project([0]);
        let schema = Schema::from_pairs([("CatR", 2)]);
        let c1 = cat.ra_in(&expr, &schema).unwrap();
        let c2 = cat.ra_in(&expr, &schema).unwrap();
        assert!(Arc::ptr_eq(&c1, &c2));
        // Unknown relation: the error is cached, not re-validated.
        let bad = RaExpr::rel("CatMissing");
        assert!(matches!(
            cat.ra_in(&bad, &schema),
            Err(RaError::UnknownRelation(r)) if r == RelSym::new("CatMissing")
        ));
        let before = cat.stats();
        assert!(cat.ra_in(&bad, &schema).is_err());
        assert_eq!(cat.stats().hits, before.hits + 1);
        // The compiled entry evaluates like a fresh compile.
        let fresh = CompiledRa::compile(&expr, &|r| schema.arity(r)).unwrap();
        assert_eq!(c1.eval_ground(&inst()), fresh.eval_ground(&inst()));
        assert!(c1.eval_ground(&inst()).contains(&Tuple::from_names(&["a"])));
    }

    /// Parallel workers hammering one catalog entry: lookups stay exact —
    /// every call is either a hit or a miss, the entry is compiled at
    /// most once per racing thread (double-checked insert), and all
    /// callers share one canonical `Arc`.
    #[test]
    fn concurrent_lookups_keep_stats_exact() {
        let cat = PlanCatalog::new();
        let q = Query::parse(&["x"], "exists y. CatR(x, y)").unwrap();
        const THREADS: usize = 8;
        const CALLS: usize = 50;
        let evals: Vec<Arc<QueryEval>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let mut last = None;
                        for _ in 0..CALLS {
                            last = Some(cat.eval(&q));
                        }
                        last.unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for e in &evals {
            assert!(Arc::ptr_eq(e, &evals[0]), "one canonical compiled plan");
        }
        let stats = cat.stats();
        assert_eq!(stats.entries, 1, "double-checked insert keeps one entry");
        assert_eq!(
            stats.hits + stats.misses,
            (THREADS * CALLS) as u64,
            "every lookup is counted exactly once"
        );
        assert!(stats.misses >= 1 && stats.misses <= THREADS as u64);
    }

    #[test]
    fn shared_catalog_is_one_instance() {
        let a = PlanCatalog::shared() as *const PlanCatalog;
        let b = PlanCatalog::shared() as *const PlanCatalog;
        assert_eq!(a, b);
    }
}
