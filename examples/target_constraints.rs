//! Target constraints: exchange-then-repair with a weakly acyclic chase.
//!
//! The paper's conclusions (§6) point at target dependencies as the next
//! step ("adding weakly acyclic constraints would lead to a terminating
//! chase as in both open-world and closed-world cases"). This example runs
//! that pipeline: an HR source is exchanged into a target whose schema
//! carries its own tgds (every employee needs a department record) and
//! egds (contract ids are a key), and the chase repairs the canonical
//! solution — or reports that no solution exists.
//!
//! ```sh
//! cargo run --example target_constraints
//! ```

use oc_exchange::chase::{
    canonical_solution, canonical_solution_with_deps, is_weakly_acyclic, ChaseOutcome, Mapping,
    TargetDep,
};
use oc_exchange::core::Exchange;
use oc_exchange::logic::Query;
use oc_exchange::Instance;

fn main() {
    // Exchange: employees are copied; their manager field is dropped and
    // replaced by an invented contract id (closed: exactly one per person).
    let mapping = Mapping::parse(
        "Emp(name:cl, contract:cl) <- Staff(name, mgr); \
         Mgr(m:cl) <- Staff(name, m)",
    )
    .expect("rules parse");

    // Note: the manager "turing" is nobody's Staff record, so the tgd
    // below has real work to do.
    let mut source = Instance::new();
    source.insert_names("Staff", &["ada", "turing"]);
    source.insert_names("Staff", &["edsger", "turing"]);

    // Target dependencies:
    //   tgd: every manager is also an employee (with some contract);
    //   egd: the contract id is a key for Emp (one name per contract).
    let deps: Vec<TargetDep> = vec![
        TargetDep::parse("Emp(m:cl, c:cl) <- Mgr(m)").expect("tgd parses"),
        TargetDep::parse("n1 = n2 <- Emp(n1, c) & Emp(n2, c)").expect("egd parses"),
    ];
    println!("weakly acyclic: {}", is_weakly_acyclic(&deps));
    assert!(is_weakly_acyclic(&deps), "termination is guaranteed");

    let plain = canonical_solution(&mapping, &source);
    println!("\nBefore the chase:\n{}", plain.instance);

    let chased = canonical_solution_with_deps(&mapping, &deps, &source, 1000);
    assert_eq!(chased.outcome, ChaseOutcome::Satisfied);
    println!(
        "After the chase ({} steps):\n{}",
        chased.steps, chased.instance
    );

    // Positive certain answers straight off the chased instance
    // (certain_positive_with_deps re-runs the pipeline internally).
    let q = Query::parse(&["n"], "exists c. Emp(n, c)").expect("query parses");
    let employees = Exchange::new(&mapping, &source)
        .certain_positive_with_deps(&deps, &q, 1000)
        .expect("chase succeeds");
    println!("Certain employees (incl. chased-in manager): {employees}");
    assert!(employees.contains(&oc_exchange::Tuple::from_names(&["turing"])));

    // A failing scenario: a key egd clashing on constants — the chase must
    // report that no solution exists rather than invent one.
    let bad_mapping =
        Mapping::parse("Emp(name:cl, dept:cl) <- Assigned(name, dept)").expect("rules parse");
    let key: Vec<TargetDep> =
        vec![TargetDep::parse("d1 = d2 <- Emp(n, d1) & Emp(n, d2)").expect("egd parses")];
    let mut conflicted = Instance::new();
    conflicted.insert_names("Assigned", &["ada", "compilers"]);
    conflicted.insert_names("Assigned", &["ada", "verification"]);
    let failed = canonical_solution_with_deps(&bad_mapping, &key, &conflicted, 1000);
    println!(
        "\nConflicting assignment chase outcome: {:?}",
        failed.outcome
    );
    assert!(matches!(failed.outcome, ChaseOutcome::Failed { .. }));
}
