//! One benchmark run: timed set-ups, a closed loop of ops with the host
//! kernel sampled around each, and (for `--trace 1`) a second, traced
//! pass over the same ops that yields the per-layer metrics.

use crate::host::{self, RefKernel};
use crate::stats::{self, median, quantile, Tally};
use crate::trace::{Recorder, UnitTrace};
use crate::workloads::Workload;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Untimed ops before the measured loop (caches fill, lazy set-up ends).
pub const WARMUP_OPS: u64 = 2;
/// Ops a run measures at least: the tail percentile needs ten above it.
pub const MIN_OPS: u64 = 100;
/// The op loop never runs longer than this, so a run ends in time even
/// on a host too slow to reach [`MIN_OPS`].
pub const HARD_STOP: Duration = Duration::from_secs(60);

/// How long a pass's op loop runs.
#[derive(Clone, Copy, Debug)]
pub enum Length {
    /// Until this many seconds have passed (and [`MIN_OPS`] ran).
    Seconds(f64),
    /// Exactly this many measured ops.
    Ops(u64),
}

/// The raw record of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds per fresh set-up.
    pub setup_s: Vec<f64>,
    /// The kernel time around each set-up (see [`around`]).
    pub setup_kernel_ms: Vec<f64>,
    /// Milliseconds per measured op that completed.
    pub op_ms: Vec<f64>,
    /// The kernel time around each completed op (see [`around`]).
    pub op_kernel_ms: Vec<f64>,
    /// Whether each completed op retracted source facts.
    pub op_retracts: Vec<bool>,
    /// Measured ops attempted.
    pub measured: u64,
    /// Outcomes of every op attempted (warm-up included).
    pub tally: Tally,
}

impl Pass {
    /// Normalized set-up times, s.
    pub fn setup_norm(&self) -> Vec<f64> {
        host::normalize(&self.setup_s, &self.setup_kernel_ms)
    }

    /// Normalized op latencies, ms.
    pub fn op_norm(&self) -> Vec<f64> {
        host::normalize(&self.op_ms, &self.op_kernel_ms)
    }

    /// Normalized median op latency, ms.
    pub fn op_p50(&self) -> f64 {
        median(&self.op_norm())
    }
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    let msg = p
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into());
    format!("panicked: {msg}")
}

/// The kernel time attributed to a timing: the geometric mean of the
/// samples taken right before and right after it.
pub fn around(before: f64, after: f64) -> f64 {
    (before * after).sqrt()
}

/// Run one op (and its check) and record the outcome; `kernel` samples
/// the host around a timed op.
fn one_op<W: Workload>(
    w: &mut W,
    i: u64,
    rec: &mut Recorder,
    pass: &mut Pass,
    mut kernel: Option<&mut RefKernel>,
) -> Result<(), String> {
    let input = w
        .prepare(i)
        .map_err(|e| format!("input generation failed: {e}"))?;
    let before = kernel.as_mut().map(|k| k.sample_ms());
    rec.begin_unit();
    let t = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| rec.span("op", |rec| w.op(&input, rec))));
    let dt = t.elapsed();
    let k_ms = before
        .zip(kernel.map(|k| k.sample_ms()))
        .map(|(b, a)| around(b, a));
    rec.end_unit(false, k_ms.map_or(1.0, host::speed_factor));
    let outcome = match res {
        Ok(Ok(out)) => {
            if let Some(k) = k_ms {
                pass.op_ms.push(dt.as_secs_f64() * 1e3);
                pass.op_kernel_ms.push(k);
                pass.op_retracts.push(W::retracts(&input));
            }
            let tally = &mut pass.tally;
            catch_unwind(AssertUnwindSafe(|| w.check(&input, out, tally)))
                .unwrap_or_else(|p| Err(panic_message(p)))
        }
        Ok(Err(e)) => Err(e),
        Err(p) => Err(panic_message(p)),
    };
    if let Err(e) = &outcome {
        eprintln!("perfbench: op {i} failed: {e}");
    }
    pass.tally.record(outcome);
    Ok(())
}

/// One set-up sample: the mean of [`Workload::SETUP_BATCH`] timed, fresh
/// set-ups, with the host kernel sampled around the batch.
fn setup_sample<W: Workload>(
    w: &mut W,
    kernel: &mut RefKernel,
    rec: &mut Recorder,
    pass: &mut Pass,
) -> Result<(), String> {
    let text = w.setup_text();
    let before = kernel.sample_ms();
    let first_unit = rec.units.len();
    let mut elapsed = Duration::ZERO;
    for _ in 0..W::SETUP_BATCH {
        w.reset();
        rec.begin_unit();
        let t = Instant::now();
        let res = rec.span("setup", |rec| w.setup(&text, rec));
        elapsed += t.elapsed();
        rec.end_unit(true, 1.0);
        res.map_err(|e| format!("set-up failed: {e}"))?;
    }
    let k_ms = around(before, kernel.sample_ms());
    for u in &mut rec.units[first_unit..] {
        u.factor = host::speed_factor(k_ms);
    }
    pass.setup_s
        .push(elapsed.as_secs_f64() / W::SETUP_BATCH as f64);
    pass.setup_kernel_ms.push(k_ms);
    Ok(())
}

/// One pass: a set-up, warm-up ops, the measured op loop, then the
/// remaining set-ups — in a warmed-up process, like the ops.
pub fn run_pass<W: Workload>(
    w: &mut W,
    kernel: &mut RefKernel,
    rec: &mut Recorder,
    len: Length,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    setup_sample(w, kernel, rec, &mut pass)?;
    let mut quiet = Recorder::new(false);
    for i in 0..WARMUP_OPS {
        one_op(w, i, &mut quiet, &mut pass, None)?;
    }
    let start = Instant::now();
    let mut i = WARMUP_OPS;
    loop {
        let done = match len {
            Length::Seconds(s) => {
                let el = start.elapsed();
                (el.as_secs_f64() >= s && pass.measured >= MIN_OPS) || el >= HARD_STOP
            }
            Length::Ops(n) => pass.measured >= n,
        };
        if done {
            break;
        }
        one_op(w, i, rec, &mut pass, Some(&mut *kernel))?;
        pass.measured += 1;
        i += 1;
    }
    for _ in 1..W::SETUP_REPS {
        setup_sample(w, kernel, rec, &mut pass)?;
    }
    Ok(pass)
}

/// A reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM line")?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics of an untraced pass (all timings normalized).
pub fn end_to_end(pass: &Pass) -> Result<Vec<Metric>, String> {
    let op = pass.op_norm();
    let op_s: f64 = op.iter().sum::<f64>() / 1e3;
    Ok(vec![
        metric("setup_s", "s", median(&pass.setup_norm())),
        metric("op_ms.p50", "ms", median(&op)),
        metric("op_ms.p90", "ms", stats::p90_checked(&op)?),
        metric("ops_per_s", "1/s", op.len() as f64 / op_s),
        metric("peak_rss_mb", "MB", peak_rss_mb()?),
        metric("success_rate", "ratio", pass.tally.success_rate()),
        metric("uncapped_share", "ratio", pass.tally.uncapped_share()),
    ])
}

/// Diagnostics printed beside the normalized figures: the raw ones.
pub fn diagnostics(pass: &Pass) -> Vec<(String, f64)> {
    vec![
        ("ops_measured".into(), pass.op_ms.len() as f64),
        ("host.ref_ms".into(), median(&pass.op_kernel_ms)),
        ("host.setup_ref_ms".into(), median(&pass.setup_kernel_ms)),
        ("raw.setup_s".into(), median(&pass.setup_s)),
        ("raw.op_ms.p50".into(), median(&pass.op_ms)),
        ("raw.op_ms.p90".into(), quantile(&pass.op_ms, 0.9)),
    ]
}

/// Summaries over the traced pass's units.
struct Units<'a> {
    units: &'a [UnitTrace],
}

impl Units<'_> {
    fn ops(&self) -> impl Iterator<Item = &UnitTrace> + '_ {
        self.units.iter().filter(|u| !u.setup)
    }

    /// Median over the units where the layer ran of its normalized time
    /// in the unit, ms.
    fn median_ms(&self, ns: impl Fn(&UnitTrace) -> u64) -> f64 {
        let v: Vec<f64> = self
            .units
            .iter()
            .filter_map(|u| {
                let n = ns(u);
                (n > 0).then(|| n as f64 / 1e6 * u.factor)
            })
            .collect();
        median(&v)
    }

    /// Total normalized seconds of a layer over every unit.
    fn total_s(&self, ns: impl Fn(&UnitTrace) -> u64) -> f64 {
        self.units
            .iter()
            .map(|u| ns(u) as f64 / 1e9 * u.factor)
            .sum()
    }

    /// Mean per op.
    fn per_op(&self, v: impl Fn(&UnitTrace) -> f64) -> f64 {
        let n = self.ops().count();
        if n == 0 {
            return 0.0;
        }
        self.ops().map(v).sum::<f64>() / n as f64
    }

    /// Mean over the units where `v` is positive.
    fn per_active(&self, v: impl Fn(&UnitTrace) -> f64) -> f64 {
        let vals: Vec<f64> = self.units.iter().map(v).filter(|&x| x > 0.0).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    fn sum_ops(&self, v: impl Fn(&UnitTrace) -> f64) -> f64 {
        self.ops().map(v).sum()
    }
}

fn self_ns(name: &'static str) -> impl Fn(&UnitTrace) -> u64 {
    move |u| u.self_ns.get(name).copied().unwrap_or(0)
}

fn obs_span_ns(names: &'static [&'static str]) -> impl Fn(&UnitTrace) -> u64 {
    move |u| {
        names
            .iter()
            .map(|n| u.obs.spans.get(*n).map_or(0, |s| s.total_ns))
            .sum()
    }
}

fn counter(name: &'static str) -> impl Fn(&UnitTrace) -> f64 {
    move |u| u.obs.counter(name) as f64
}

fn count(name: &'static str) -> impl Fn(&UnitTrace) -> f64 {
    move |u| u.counts.get(name).copied().unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

const SOLVER_SPANS: &[&str] = &[
    "solver.search_rep_a",
    "solver.for_each_union",
    "solver.union_retain_sweep",
    "solver.union_refute_sweep",
];

/// The per-layer metrics: the traced pass's units, plus the tracing
/// overhead against the untraced pass and the host diagnostics.
pub fn per_layer(traced: &Pass, units: &[UnitTrace], untraced: &Pass) -> Vec<Metric> {
    let u = Units { units };
    let parse_s = u.total_s(self_ns("text.parse"));
    let parse_bytes: f64 = units.iter().map(count("text.parse.bytes")).sum();
    let fired = u.sum_ops(counter("engine.chase.triggers_fired"));
    let discovered = u.sum_ops(counter("engine.chase.triggers_discovered"));
    let hits = u.sum_ops(counter("query.catalog.hits"));
    let misses = u.sum_ops(counter("query.catalog.misses"));
    let scanned = u.sum_ops(counter("query.exec.rows_scanned"));
    let emitted = u.sum_ops(counter("query.exec.rows_emitted"));
    let leaves = u.sum_ops(counter("solver.dfs.leaves"));
    let solver_ms = u.total_s(obs_span_ns(SOLVER_SPANS)) * 1e3;
    let gauge_max = |name: &'static str| {
        u.ops()
            .map(|x| x.obs.gauge(name) as f64)
            .fold(0.0, f64::max)
    };
    let paths = [
        "core.stream.path.delta",
        "core.stream.path.recompute",
        "core.stream.path.skip",
    ]
    .map(|p| u.sum_ops(count(p)));
    let all_paths: f64 = paths.iter().sum();
    let traced_ops = traced.op_norm();
    let streaming = units
        .iter()
        .any(|x| x.self_ns.contains_key("core.stream.update"));
    let batch_p50 = |retract: bool| {
        let v: Vec<f64> = traced_ops
            .iter()
            .zip(&traced.op_retracts)
            .filter(|(_, &r)| streaming && r == retract)
            .map(|(ms, _)| *ms)
            .collect();
        median(&v)
    };
    vec![
        metric("text.parse.ms", "ms", u.median_ms(self_ns("text.parse"))),
        metric(
            "text.parse.mb_per_s",
            "MB/s",
            ratio(parse_bytes / 1e6, parse_s),
        ),
        metric("chase.csol.ms", "ms", u.median_ms(self_ns("chase.csol"))),
        metric(
            "chase.csol.tuples",
            "count",
            u.per_active(count("chase.csol.tuples")),
        ),
        metric(
            "chase.csol.nulls",
            "count",
            u.per_active(count("chase.csol.nulls")),
        ),
        metric(
            "engine.chase.ms",
            "ms",
            u.median_ms(obs_span_ns(&["engine.chase"])),
        ),
        metric(
            "engine.chase.steps",
            "count",
            u.per_op(count("engine.chase.steps")),
        ),
        metric(
            "engine.chase.triggers_discovered",
            "count",
            u.per_op(counter("engine.chase.triggers_discovered")),
        ),
        metric(
            "engine.chase.triggers_fired",
            "count",
            u.per_op(counter("engine.chase.triggers_fired")),
        ),
        metric("engine.chase.fire_ratio", "ratio", ratio(fired, discovered)),
        metric(
            "engine.chase.merges",
            "count",
            u.per_op(counter("engine.chase.merges")),
        ),
        metric(
            "engine.chase.index_probes",
            "count",
            u.per_op(counter("engine.chase.index_probes")),
        ),
        metric(
            "engine.stream.std_seeded",
            "count",
            u.per_op(count("engine.stream.std_seeded")),
        ),
        metric(
            "engine.stream.std_recomputed",
            "count",
            u.per_op(count("engine.stream.std_recomputed")),
        ),
        metric(
            "engine.stream.witnesses_died",
            "count",
            u.per_op(count("engine.stream.witnesses_died")),
        ),
        metric(
            "engine.stream.nulls_collected",
            "count",
            u.per_op(count("engine.stream.nulls_collected")),
        ),
        metric(
            "engine.stream.overdeleted",
            "count",
            u.per_op(count("engine.stream.overdeleted")),
        ),
        metric(
            "engine.stream.target_incremental",
            "count",
            u.per_op(count("engine.stream.target_incremental")),
        ),
        metric(
            "engine.stream.target_rebuilt",
            "count",
            u.per_op(count("engine.stream.target_rebuilt")),
        ),
        metric(
            "query.exec.ms",
            "ms",
            u.median_ms(obs_span_ns(&["query.exec"])),
        ),
        metric(
            "query.catalog.hit_rate",
            "ratio",
            ratio(hits, hits + misses),
        ),
        metric(
            "query.exec.rows_scanned",
            "count",
            u.per_op(counter("query.exec.rows_scanned")),
        ),
        metric(
            "query.exec.rows_emitted",
            "count",
            u.per_op(counter("query.exec.rows_emitted")),
        ),
        metric("query.exec.emit_ratio", "ratio", ratio(emitted, scanned)),
        metric(
            "query.exec.index_probes",
            "count",
            u.per_op(counter("query.exec.index_probes")),
        ),
        metric(
            "query.exec.seed_reruns",
            "count",
            u.per_op(counter("query.exec.seed_reruns")),
        ),
        metric(
            "solver.search.ms",
            "ms",
            u.median_ms(obs_span_ns(SOLVER_SPANS)),
        ),
        metric(
            "solver.dfs.nodes",
            "count",
            u.per_op(counter("solver.dfs.nodes")),
        ),
        metric(
            "solver.dfs.leaves",
            "count",
            u.per_op(counter("solver.dfs.leaves")),
        ),
        metric(
            "solver.union.unions_visited",
            "count",
            u.per_op(counter("solver.union.unions_visited")),
        ),
        metric("solver.leaves_per_ms", "1/ms", ratio(leaves, solver_ms)),
        metric(
            "relation.delta.applies",
            "count",
            u.per_op(counter("relation.delta.applies")),
        ),
        metric(
            "relation.delta.undos",
            "count",
            u.per_op(counter("relation.delta.undos")),
        ),
        metric(
            "relation.delta.probes",
            "count",
            u.per_op(counter("relation.delta.probes")),
        ),
        metric(
            "relation.delta.refcount_churn",
            "count",
            u.per_op(counter("relation.delta.refcount_churn")),
        ),
        metric(
            "mem.delta.live_slots",
            "count",
            gauge_max("mem.delta.live_slots"),
        ),
        metric(
            "mem.instance.tuples",
            "count",
            gauge_max("mem.instance.tuples"),
        ),
        metric(
            "core.certain.ms",
            "ms",
            u.median_ms(self_ns("core.certain")),
        ),
        metric("core.gcwa.ms", "ms", u.median_ms(self_ns("core.gcwa"))),
        metric("core.approx.ms", "ms", u.median_ms(self_ns("core.approx"))),
        metric(
            "core.capped.certain",
            "count",
            u.per_op(count("core.capped.certain")),
        ),
        metric(
            "core.capped.gcwa",
            "count",
            u.per_op(count("core.capped.gcwa")),
        ),
        metric(
            "core.capped.approx",
            "count",
            u.per_op(count("core.capped.approx")),
        ),
        metric(
            "core.stream.update.ms",
            "ms",
            u.median_ms(self_ns("core.stream.update")),
        ),
        metric(
            "core.stream.read.ms",
            "ms",
            u.median_ms(self_ns("core.stream.read")),
        ),
        metric("core.stream.insert_batch_ms.p50", "ms", batch_p50(false)),
        metric("core.stream.retract_batch_ms.p50", "ms", batch_p50(true)),
        metric(
            "core.stream.path.delta_share",
            "ratio",
            ratio(paths[0], all_paths),
        ),
        metric(
            "core.stream.path.recompute_share",
            "ratio",
            ratio(paths[1], all_paths),
        ),
        metric(
            "core.stream.path.skip_share",
            "ratio",
            ratio(paths[2], all_paths),
        ),
        metric(
            "obs.overhead",
            "ratio",
            ratio(traced.op_p50(), untraced.op_p50()) - 1.0,
        ),
        metric(
            "pool.tasks_spawned",
            "count",
            units.iter().map(counter("pool.tasks_spawned")).sum(),
        ),
        metric("host.ref_ms", "ms", median(&untraced.op_kernel_ms)),
        metric("host.raw_op_ms.p50", "ms", median(&untraced.op_ms)),
    ]
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
