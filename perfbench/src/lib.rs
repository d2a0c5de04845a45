//! The oc-exchange benchmark: three closed-loop workloads (`exchange`,
//! `decide`, `stream`) on generated `.dx` scenarios, host-normalized
//! end-to-end metrics, and a traced pass for per-layer metrics. See
//! `README.md` in this directory.

pub mod gen;
pub mod host;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
