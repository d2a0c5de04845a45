//! # dx-bench — shared harness utilities for the experiment suite
//!
//! The paper has no empirical section; its "tables and figures" are
//! complexity claims (Theorems 1–5, Table 1) and worked examples. The bench
//! suite regenerates the *shape* of each claim: which configuration is
//! tractable, which blows up, and where behaviour changes. The
//! `experiments` binary prints each experiment's table; `BENCH_chase.json`
//! and `BENCH_query.json` at the repository root record the races.
//!
//! This library crate holds the workload builders of the `experiments`
//! binary and the corpus differential harness behind `dx corpus`.

#![warn(missing_docs)]

use dx_chase::Mapping;
use dx_logic::Query;
use dx_relation::Instance;
use std::time::{Duration, Instant};

pub mod chase_workloads;
pub mod corpus;
pub mod query_workloads;

/// Time a closure, returning (result, elapsed).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Run `f` `k` times (`k ≥ 1`) and keep the fastest run: returns the last
/// run's result and the minimum elapsed time. The races read min-of-k
/// because cold caches and scheduler noise are not the story, and at small
/// sizes they exceed the signal.
pub fn best_of<T>(k: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(k >= 1, "best_of needs at least one run");
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..k {
        let (o, d) = timed(&mut f);
        out = o;
        best = best.min(d);
    }
    (out, best)
}

/// Format a duration in adaptive units for table output.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us} µs")
    } else if us < 1_000_000 {
        format!("{:.1} ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2} s", us as f64 / 1_000_000.0)
    }
}

/// A simple copy source: `E` with `n` edges on `n+1` vertices (a path).
pub fn path_source(n: usize) -> Instance {
    let mut s = Instance::new();
    for i in 0..n {
        s.insert_names("E", &[&format!("v{i}"), &format!("v{}", i + 1)]);
    }
    s
}

/// A unary source `E = {e0 … e{n-1}}`.
pub fn unary_source(n: usize) -> Instance {
    let mut s = Instance::new();
    for i in 0..n {
        s.insert_names("E", &[&format!("e{i}")]);
    }
    s
}

/// The copy mapping `Ep(x,y) :- E(x,y)` with the given annotation suffix
/// (`"cl"` / `"op"`), plus builders for the three annotation regimes used
/// across experiments.
pub fn copy2(ann: &str) -> Mapping {
    Mapping::parse(&format!("Ep(x:{ann}, y:{ann}) <- E(x, y)")).unwrap()
}

/// The `#op = 1` null-introducing mapping `R(x:cl, z:op) :- E(x)`.
pub fn open_null_mapping() -> Mapping {
    Mapping::parse("R(x:cl, z:op) <- E(x)").unwrap()
}

/// The `#op = 0` variant `R(x:cl, z:cl) :- E(x)`.
pub fn closed_null_mapping() -> Mapping {
    Mapping::parse("R(x:cl, z:cl) <- E(x)").unwrap()
}

/// An FO (non-monotone, non-`∀*∃*`) query over `R` used by the DEQA
/// experiments: "some x has R-values that nothing else shares".
pub fn fo_query() -> Query {
    Query::boolean(
        dx_logic::parse_formula(
            "exists x. ((exists u. R(x, u)) & (forall y w. (R(y, w) & R(x, w) -> y = x)))",
        )
        .unwrap(),
    )
}

/// A *certainly-true* full-FO query over `R` — the decision must exhaust
/// the witness space, making the exponential search visible (contrast with
/// [`fo_query`], which is refuted at the first counterexample).
pub fn exhaust_query() -> Query {
    Query::boolean(
        dx_logic::parse_formula(
            "exists x u. (R(x, u) & forall y w. (R(y, w) & R(x, w) -> R(x, u)))",
        )
        .unwrap(),
    )
}

/// The functional-dependency query "R's second attribute is unique per
/// first" — a `∀*` query (Prop 5 regime).
pub fn fd_query() -> Query {
    Query::boolean(
        dx_logic::parse_formula("forall x y1 y2. (R(x, y1) & R(x, y2) -> y1 = y2)").unwrap(),
    )
}

/// A markdown table printer for the `experiments` binary.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render as a markdown table.
    pub fn render(&self) -> String {
        // Width in chars, not bytes — cells contain µ and ⊥.
        let w = |s: &str| s.chars().count();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| w(h)).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(w(c));
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:w$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["n", "time"]);
        t.row(vec!["1".into(), "2 µs".into()]);
        let s = t.render();
        assert!(s.contains("| n | time |"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    fn best_of_runs_k_times_and_keeps_the_last_result() {
        let mut runs = 0;
        let (out, _) = best_of(3, || {
            runs += 1;
            runs
        });
        assert_eq!((runs, out), (3, 3));
    }

    #[test]
    fn workload_builders() {
        assert_eq!(path_source(3).tuple_count(), 3);
        assert_eq!(unary_source(4).tuple_count(), 4);
        assert!(copy2("cl").is_all_closed());
        assert_eq!(open_null_mapping().num_op(), 1);
        assert_eq!(
            fd_query().class(),
            dx_logic::QueryClass::UniversalExistential
        );
        assert_eq!(fo_query().class(), dx_logic::QueryClass::FullFirstOrder);
    }
}
