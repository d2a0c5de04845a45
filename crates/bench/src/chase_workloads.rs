//! The chase-heavy workload cases of the `experiments` binary's
//! `BENCH_chase.json` emitter: a fully specified exchange-with-constraints problem per family
//! and size.

use dx_chase::target_deps::TargetDep;
use dx_chase::Mapping;
use dx_relation::{Ann, Instance, Schema};
use dx_workloads::{conference, copying};

/// One benchmarkable chase problem: mapping + target dependencies + source.
pub struct ChaseCase {
    /// Workload family name (stable key in `BENCH_chase.json`).
    pub workload: &'static str,
    /// The scale parameter the source was built from.
    pub n: usize,
    /// The annotated schema mapping.
    pub mapping: Mapping,
    /// Weakly acyclic target dependencies.
    pub deps: Vec<TargetDep>,
    /// The ground source instance.
    pub source: Instance,
}

/// The membership workload: the §1 conference mapping at `n` papers, with a
/// decision-inventing tgd and a one-decision-per-paper FD.
pub fn conference_case(n: usize) -> ChaseCase {
    ChaseCase {
        workload: "membership",
        n,
        mapping: conference::mapping(),
        deps: TargetDep::parse_many(
            "Decisions(p:cl, d:op) <- Reviews(p, r); \
             d1 = d2 <- Decisions(p, d1) & Decisions(p, d2)",
        )
        .expect("deps parse"),
        source: conference::source(n, 2),
    }
}

/// A composition-shaped two-hop pipeline (the Table 1 shape): exchange `E`
/// into `M`, then target dependencies push `M` across a second hop into `F`
/// with a key constraint on the far side.
pub fn composition_case(n: usize) -> ChaseCase {
    let mut source = Instance::new();
    for i in 0..n {
        source.insert_names("CbE", &[&format!("v{i}"), &format!("v{}", (i + 1) % n)]);
        source.insert_names("CbE", &[&format!("v{i}"), &format!("w{i}")]);
    }
    ChaseCase {
        workload: "composition",
        n,
        mapping: Mapping::parse("CbM(x:cl, y:cl) <- CbE(x, y)").expect("mapping parses"),
        deps: TargetDep::parse_many(
            "CbF(x:cl, z:op) <- CbM(x, y); \
             CbG(z:cl) <- CbF(x, z); \
             z1 = z2 <- CbF(x, z1) & CbF(x, z2)",
        )
        .expect("deps parse"),
        source,
    }
}

/// The copying workload (§4's lower-bound carrier): copy a binary relation,
/// symmetrize the copy, and invent one keyed witness per vertex.
pub fn copying_case(n: usize) -> ChaseCase {
    let schema = Schema::from_pairs([("CpE", 2)]);
    let mut source = Instance::new();
    for i in 0..n {
        source.insert_names("CpE", &[&format!("v{i}"), &format!("v{}", i + 1)]);
    }
    ChaseCase {
        workload: "copying",
        n,
        mapping: copying::copy_mapping(&schema, Ann::Closed),
        deps: TargetDep::parse_many(
            "CpE_p(y:cl, x:cl) <- CpE_p(x, y); \
             CpT(x:cl, z:op) <- CpE_p(x, y); \
             z1 = z2 <- CpT(x, z1) & CpT(x, z2)",
        )
        .expect("deps parse"),
        source,
    }
}

/// All three families at one size (the `BENCH_chase.json` sweep axis).
pub fn all_cases(n: usize) -> Vec<ChaseCase> {
    vec![conference_case(n), composition_case(n), copying_case(n)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx_chase::chase_engine::ChaseOutcome;
    use dx_chase::target_deps::is_weakly_acyclic;
    use dx_chase::{canonical_solution_with_deps_via, NaiveChase};

    #[test]
    fn cases_are_weakly_acyclic_and_chaseable() {
        for case in all_cases(4) {
            assert!(is_weakly_acyclic(&case.deps), "{}", case.workload);
            let out = canonical_solution_with_deps_via(
                &NaiveChase,
                &case.mapping,
                &case.deps,
                &case.source,
                100_000,
            );
            assert_eq!(out.outcome, ChaseOutcome::Satisfied, "{}", case.workload);
            assert!(out.steps > 0, "{} must actually chase", case.workload);
        }
    }
}
