//! EXPLAIN with run annotations: execute a [`Plan`] while a per-node
//! collector is active, then render the tree (one node per line, stable
//! [`Plan::node_label`] form) annotated with the work each node actually
//! incurred. Node identity is the node's address inside the borrowed plan
//! tree — stable for the duration of one run.
//!
//! * **Ground** ([`explain_run`]): the walk of [`crate::exec`] runs the
//!   plan to the end. A node's `calls` is the number of times the walk ran
//!   it and `rows` the rows it handed on, both summed over the bindings it
//!   ran under — so the root's `rows` counts duplicates that the returned
//!   [`Rows`] hold once. Probes (a filter side per preserved row, a boolean
//!   gate, a correlated branch) are walks that stop at their first row and
//!   count the same way. A seeded anti-join also reports `reruns`: its
//!   branch probes, one per preserved row.
//! * **Conditional** ([`explain_run_conditional`]): a node's `calls` and
//!   `rows` are its materialized executions and conditional rows. The
//!   correlated branch of a seeded anti-join executes *clones*
//!   ([`Plan::bind_seed`] rewrites a fresh copy per distinct seed key), so
//!   its work is aggregated at the seeded node itself (`partitions` /
//!   `reruns`) and the pristine branch subtree's counters stay zero.

use crate::cexec::{exec_conditional, CRows};
use crate::exec::{exec, Rows};
use crate::plan::Plan;
use crate::store::QueryStore;
use dx_ctables::CInstance;
use dx_obs::{Explain, ExplainNode};
use dx_relation::FastMap;

/// Work observed at one plan node during a traced run.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct NodeStats {
    /// Times the node was executed.
    calls: u64,
    /// Total rows the node produced across those executions.
    rows: u64,
    /// Conditional seeded anti-join only: distinct seed keys partitioned.
    partitions: u64,
    /// Seeded anti-join only: correlated branch executions.
    reruns: u64,
}

/// The thread-local collector the executors report into. Active only
/// inside [`explain_run`] and [`explain_run_conditional`].
pub(crate) mod trace {
    use super::NodeStats;
    use crate::plan::Plan;
    use dx_relation::FastMap;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Number of live collectors across all threads — the executors' fast
    /// path is one relaxed load of this when no EXPLAIN capture runs.
    static ACTIVE: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        static COLLECT: RefCell<Option<FastMap<usize, NodeStats>>> =
            const { RefCell::new(None) };
    }

    /// Is a collector live? The ground walk asks once per root call.
    pub(crate) fn capturing() -> bool {
        ACTIVE.load(Ordering::Relaxed) != 0
    }

    /// Apply `f` to `plan`'s stats when this thread collects.
    #[inline]
    fn note(plan: &Plan, f: impl FnOnce(&mut NodeStats)) {
        if !capturing() {
            return;
        }
        COLLECT.with(|c| {
            if let Some(map) = c.borrow_mut().as_mut() {
                f(map.entry(plan as *const Plan as usize).or_default());
            }
        });
    }

    /// Record one more execution of `plan`.
    pub(crate) fn note_call(plan: &Plan) {
        note(plan, |s| s.calls += 1);
    }

    /// Record `rows` more rows produced by `plan`.
    pub(crate) fn note_rows(plan: &Plan, rows: usize) {
        note(plan, |s| s.rows += rows as u64);
    }

    /// Record a seeded anti-join's partition / re-run counts at `plan`.
    pub(crate) fn note_seed(plan: &Plan, partitions: u64, reruns: u64) {
        note(plan, |s| {
            s.partitions += partitions;
            s.reruns += reruns;
        });
    }

    /// RAII activation of this thread's collector.
    pub(super) struct CollectorGuard;

    impl CollectorGuard {
        pub(super) fn start() -> Self {
            COLLECT.with(|c| *c.borrow_mut() = Some(FastMap::default()));
            ACTIVE.fetch_add(1, Ordering::Relaxed);
            CollectorGuard
        }

        pub(super) fn finish(self) -> FastMap<usize, NodeStats> {
            COLLECT.with(|c| c.borrow_mut().take()).unwrap_or_default()
        }
    }

    impl Drop for CollectorGuard {
        fn drop(&mut self) {
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
            COLLECT.with(|c| *c.borrow_mut() = None);
        }
    }
}

/// Execute `plan` against `store` with per-node capture on, returning the
/// result rows together with the annotated [`Explain`] report. Always
/// captures, independent of the `DX_OBS` toggle — an EXPLAIN request *is*
/// the opt-in.
pub fn explain_run(plan: &Plan, store: &dyn QueryStore) -> (Rows, Explain) {
    let guard = trace::CollectorGuard::start();
    let rows = exec(plan, store);
    let stats = guard.finish();
    (rows, annotate(plan, &stats, false))
}

/// The conditional-mode counterpart of [`explain_run`]: execute `plan`
/// over a [`CInstance`] with per-node capture on, returning the guarded
/// result rows together with the annotated report. Row counts are
/// *conditional* rows (each present only under its condition), so a
/// node's `rows` annotation bounds — rather than equals — the rows any
/// one possible world sees.
pub fn explain_run_conditional(plan: &Plan, cinst: &CInstance) -> (CRows, Explain) {
    let guard = trace::CollectorGuard::start();
    let rows = exec_conditional(plan, cinst);
    let stats = guard.finish();
    (rows, annotate(plan, &stats, true))
}

/// The annotated report; `partitions` adds a seeded anti-join's seed keys,
/// which only the conditional executor partitions on.
fn annotate(plan: &Plan, stats: &FastMap<usize, NodeStats>, partitions: bool) -> Explain {
    Explain {
        root: annotate_node(plan, stats, partitions),
    }
}

fn annotate_node(plan: &Plan, stats: &FastMap<usize, NodeStats>, partitions: bool) -> ExplainNode {
    let s = stats
        .get(&(plan as *const Plan as usize))
        .copied()
        .unwrap_or_default();
    let mut node = ExplainNode::new(plan.node_label())
        .annotate("rows", s.rows)
        .annotate("calls", s.calls);
    if matches!(plan, Plan::SeededAntiJoin { .. }) {
        if partitions {
            node = node.annotate("partitions", s.partitions);
        }
        node = node.annotate("reruns", s.reruns);
    }
    node.children = plan
        .children()
        .into_iter()
        .map(|c| annotate_node(c, stats, partitions))
        .collect();
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_formula;
    use dx_logic::parse_formula;
    use dx_relation::{DeltaIndex, Instance, RelSym, Tuple, Value};

    #[test]
    fn explain_run_annotates_rows_per_node() {
        let mut i = Instance::new();
        i.insert_names("XpE", &["a", "b"]);
        i.insert_names("XpE", &["b", "c"]);
        let plan = lower_formula(&parse_formula("exists y. XpE(x, y) & XpE(y, z)").unwrap())
            .expect("lowers");
        let (rows, report) = explain_run(&plan, &DeltaIndex::from_instance(&i));
        assert_eq!(rows.rows.len(), 1, "a→b→c");
        let text = report.render();
        assert!(text.contains("rows=1"), "root row count:\n{text}");
        assert!(text.contains("calls="), "call counts present:\n{text}");
        // Every line of the rendering carries an annotation block.
        for line in text.lines() {
            assert!(line.contains('['), "unannotated line: {line}");
        }
    }

    #[test]
    fn seeded_node_reports_partitions_and_reruns() {
        let mut i = Instance::new();
        i.insert_names("XsSub", &["p1", "alice"]);
        i.insert_names("XsSub", &["p2", "bob"]);
        i.insert_names("XsSub", &["p2", "carol"]);
        let plan = lower_formula(
            &parse_formula("exists a. XsSub(p, a) & (forall b. (XsSub(p, b) -> a = b))").unwrap(),
        )
        .expect("lowers");
        let (rows, report) = explain_run(&plan, &DeltaIndex::from_instance(&i));
        assert_eq!(rows.rows, vec![vec![Value::c("p1")]]);
        let text = report.render();
        assert!(
            text.contains("reruns=3"),
            "three preserved rows probe the correlated branch:\n{text}"
        );
    }

    #[test]
    fn conditional_explain_annotates_nodes() {
        use dx_ctables::CInstance;
        let mut i = Instance::new();
        i.insert_names("XcE", &["a", "b"]);
        i.insert(
            RelSym::new("XcE"),
            Tuple::new(vec![Value::c("b"), Value::null(1)]),
        );
        let cinst = CInstance::from_naive(&i);
        let plan = lower_formula(&parse_formula("exists y. XcE(x, y) & XcE(y, z)").unwrap())
            .expect("lowers");
        let (rows, report) = explain_run_conditional(&plan, &cinst);
        assert!(!rows.rows.is_empty(), "conditional rows produced");
        let text = report.render();
        assert!(text.contains("rows="), "row counts present:\n{text}");
        assert!(text.contains("calls="), "call counts present:\n{text}");
        // The root annotation matches the conditional row count.
        assert!(
            text.lines()
                .next()
                .unwrap()
                .contains(&format!("rows={}", rows.rows.len())),
            "{text}"
        );
    }

    #[test]
    fn conditional_seeded_node_reports_partitions() {
        use dx_ctables::CInstance;
        let mut i = Instance::new();
        i.insert_names("XcSub", &["p1", "alice"]);
        i.insert_names("XcSub", &["p2", "bob"]);
        i.insert_names("XcSub", &["p2", "carol"]);
        let cinst = CInstance::from_naive(&i);
        let plan = lower_formula(
            &parse_formula("exists a. XcSub(p, a) & (forall b. (XcSub(p, b) -> a = b))").unwrap(),
        )
        .expect("lowers");
        let (_, report) = explain_run_conditional(&plan, &cinst);
        let text = report.render();
        assert!(
            text.contains("partitions=3") && text.contains("reruns=3"),
            "three distinct authors seed the correlated branch:\n{text}"
        );
    }

    #[test]
    fn capture_is_inert_outside_explain_run() {
        let mut i = Instance::new();
        i.insert(RelSym::new("XpT"), Tuple::from_names(&["v"]));
        let plan = lower_formula(&parse_formula("XpT(x)").unwrap()).unwrap();
        // A plain exec with no collector active must not capture anything;
        // a following explain_run starts from a clean slate.
        let _ = exec(&plan, &DeltaIndex::from_instance(&i));
        let (_, report) = explain_run(&plan, &DeltaIndex::from_instance(&i));
        let line = report.render();
        assert!(
            line.contains("rows=1") && line.contains("calls=1"),
            "{line}"
        );
    }
}
