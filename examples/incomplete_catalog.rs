//! Incomplete catalog: the extension stack on one scenario.
//!
//! A parts catalog is exchanged into an assembly database that invents
//! nulls; we then answer questions no positive FO query can express:
//!
//! 1. **recursive reachability** over the exchanged data with stratified
//!    Datalog (certain answers for every annotation — §6 extension 1);
//! 2. **minimal materialization** via cores (FKP \[12\]): the smallest
//!    `Σα`-solution worth storing;
//! 3. **a difference query** under the CWA answered exactly with
//!    conditional tables (Imieliński–Lipski, cited in §2) and
//!    cross-checked against the coNP valuation search;
//! 4. the **Codd fast path**: PTIME membership checking when no null is
//!    shared.
//!
//! ```sh
//! cargo run --example incomplete_catalog
//! ```

use oc_exchange::chase::core::{ann_core_of, core_of};
use oc_exchange::chase::{canonical_solution, Mapping};
use oc_exchange::core::{certain, semantics, Exchange};
use oc_exchange::ctables::RaExpr;
use oc_exchange::logic::datalog::DatalogQuery;
use oc_exchange::logic::Query;
use oc_exchange::solver::repa::is_codd;
use oc_exchange::Instance;

fn main() {
    // ── The exchange ────────────────────────────────────────────────────
    // Source: direct sub-part facts and a vendor list. Target: the same
    // links (closed — the assembly DB is authoritative) plus a Supplier
    // relation whose contract id is invented (closed null: exactly one
    // contract per vendor) and whose region is open (a vendor may serve
    // many regions).
    let mapping = Mapping::parse(
        "Link(part:cl, sub:cl) <- SubPart(part, sub); \
         Supplier(v:cl, contract:cl, region:op) <- Vendor(v)",
    )
    .expect("rules parse");

    let mut source = Instance::new();
    for (a, b) in [
        ("engine", "piston"),
        ("engine", "crankshaft"),
        ("piston", "ring"),
        ("car", "engine"),
        ("car", "wheel"),
    ] {
        source.insert_names("SubPart", &[a, b]);
    }
    source.insert_names("Vendor", &["acme"]);
    source.insert_names("Vendor", &["globex"]);

    let csol = canonical_solution(&mapping, &source);
    println!("Canonical solution:\n{}", csol.instance);

    // ── 1. Recursive certain answers (Datalog, §6 extension) ───────────
    let needs = DatalogQuery::parse(
        "Needs",
        "Needs(x, y) <- Link(x, y); Needs(x, z) <- Needs(x, y) & Link(y, z)",
    )
    .expect("datalog parses");
    let (reachable, completeness) =
        Exchange::new(&mapping, &source).certain_answers_ptime(&needs, None);
    println!(
        "Transitive sub-parts (certain, {completeness:?}): {} pairs",
        reachable.len()
    );
    for t in reachable.iter() {
        println!("  needs{t}");
    }
    assert!(reachable.contains(&oc_exchange::Tuple::from_names(&["car", "ring"])));

    // ── 2. The core: minimal materialization ───────────────────────────
    // The annotated core of CSol_A is the smallest Σα-solution; for this
    // mapping nothing shrinks (every null is justified by a distinct
    // vendor) — but the FKP core collapses nulls onto constants when the
    // data supports it.
    let ann_core = ann_core_of(&csol.instance);
    println!(
        "\nAnnotated core: {} of {} tuples kept ({} merge steps)",
        ann_core.core.tuple_count(),
        csol.instance.tuple_count(),
        ann_core.steps,
    );
    let fkp = core_of(&csol.instance.rel_part());
    println!("FKP core: {} tuples", fkp.core.tuple_count());

    // ── 3. Exact CWA certain answers via c-tables ───────────────────────
    // "Which parts are *roots* — used in some link but never as a
    // sub-part?" — a difference query, where naive evaluation over nulls
    // would lie. The all-closed re-annotation gives the CWA reading.
    let cwa = mapping.all_closed();
    let roots_ra = RaExpr::rel("Link")
        .project([0])
        .diff(RaExpr::rel("Link").project([1]));
    let roots = Exchange::new(&cwa, &source).certain_answers_cwa_ra(&roots_ra);
    println!("\nRoot parts under CWA (c-table route): {roots}");

    // Cross-check with the coNP valuation search on the equivalent FO
    // query.
    let roots_fo = Query::parse(&["x"], "(exists y. Link(x, y)) & !exists z. Link(z, x)")
        .expect("query parses");
    let (roots_search, _) = certain::certain_answers(&cwa, &source, &roots_fo, None);
    assert_eq!(roots, roots_search, "two exact engines agree");
    println!("coNP search agrees: {roots_search}");

    // ── 4. Codd fast path ───────────────────────────────────────────────
    // No null repeats in this canonical solution, so all-closed membership
    // checks run through Hopcroft–Karp matching instead of backtracking.
    println!(
        "\nCSol is a Codd table: {}",
        is_codd(&csol.instance.rel_part())
    );
    let mut t = csol.instance.rel_part().apply(&{
        let mut v = oc_exchange::Valuation::new();
        for n in csol.instance.nulls() {
            v.set(n, oc_exchange::relation::ConstId::new("filled"));
        }
        v
    });
    println!(
        "A grounded copy is a member of the CWA semantics: {}",
        semantics::is_member(&cwa, &source, &t)
    );
    t.insert_names("Link", &["unjustified", "tuple"]);
    println!(
        "...and stops being one after adding an unjustified tuple: {}",
        semantics::is_member(&cwa, &source, &t)
    );
}
