//! The traced run's plumbing: benchmark-side spans around each call into
//! a layer's public function, workload-reported counts, and dx-obs
//! snapshot diffs — all collected per unit of work (one op or one
//! set-up) and kept in memory until the run ends.
//!
//! With the recorder off (the timed run) every method is a branch on a
//! bool: no clock reads, no allocation.

use dx_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `text.parse`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit (op or set-up) the span belongs to.
    pub unit: u64,
}

/// What one unit of work did.
#[derive(Clone, Debug, Default)]
pub struct UnitTrace {
    /// Was this a set-up (not an op)?
    pub setup: bool,
    /// Host speed factor of the unit (see [`crate::host::speed_factor`]).
    pub factor: f64,
    /// Self time per span name: duration minus the children's durations.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Counts the workload reported for the unit.
    pub counts: BTreeMap<&'static str, f64>,
    /// dx-obs counters, gauges and span aggregates accumulated during the
    /// unit.
    pub obs: MetricsSnapshot,
}

/// The span and count recorder.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: u64,
    unit_start: usize,
    counts: BTreeMap<&'static str, f64>,
    before: MetricsSnapshot,
    /// Finished units, in order.
    pub units: Vec<UnitTrace>,
}

impl Recorder {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
            unit_start: 0,
            counts: BTreeMap::new(),
            before: MetricsSnapshot::default(),
            units: Vec::new(),
        }
    }

    /// Is the recorder on?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            unit: self.unit,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Add `v` to the current unit's count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// Open a unit of work.
    pub fn begin_unit(&mut self) {
        if self.on {
            self.unit_start = self.spans.len();
            self.counts.clear();
            self.before = dx_obs::snapshot();
        }
    }

    /// Close the current unit: self times from its spans, and the dx-obs
    /// diff since [`Recorder::begin_unit`].
    pub fn end_unit(&mut self, setup: bool, factor: f64) {
        if !self.on {
            return;
        }
        let obs = dx_obs::snapshot().diff_since(&self.before);
        let spans = &self.spans[self.unit_start..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p - self.unit_start] += s.end_ns - s.start_ns;
            }
        }
        self.stack.clear();
        let mut unit = UnitTrace {
            setup,
            factor,
            counts: std::mem::take(&mut self.counts),
            obs,
            ..UnitTrace::default()
        };
        for (s, c) in spans.iter().zip(&child_ns) {
            let d = s.end_ns - s.start_ns;
            *unit.self_ns.entry(s.name).or_insert(0) += d.saturating_sub(*c);
        }
        self.units.push(unit);
        self.unit += 1;
    }

    /// Every span as Chrome `trace_event` JSON (load in Perfetto); the
    /// unit id and parent index ride in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"unit\": {}, \"span\": {i}, \"parent\": {parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.unit
            );
        }
        out.push_str("\n]}\n");
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}
