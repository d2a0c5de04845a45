//! Corpus-scale differential testing of the `.dx` scenario pipeline.
//!
//! The seeded generator (`dx_text::gen`) produces graded scenarios — grade 0
//! is tiny and all-closed, grade 3 mixes open/closed annotations, egds,
//! negation, and larger instances. Each scenario is raced end to end by
//! `dx_bench::corpus::race_scenario`:
//!
//! * parse → print → parse round-trip (canonical text is a fixpoint),
//! * NaiveChase vs IndexedChase on the annotated chase (outcome + result),
//! * compiled query evaluation vs the tree-walking oracle for certain /
//!   possible answers, and the GCWA\*/approximation bracket
//!   (`lower ⊆ gcwa* ⊆ upper`) over brute-force `Rep_A` enumeration.
//!
//! `run_corpus` panics on the first disagreement, so the per-grade tests
//! below assert only the aggregate counters; 4 grades × 50 seeds = 200
//! scenarios. The rest of the file pins the paper's §1 conference scenario
//! (`examples/conference.dx`) against its hand-built twin
//! (`dx_workloads::conference`), and covers the parser's failure-mode
//! diagnostics and the generator's byte-level determinism.

use oc_exchange::chase::chase_engine::{ChaseOutcome, DEFAULT_CHASE_LIMIT};
use oc_exchange::chase::core::ann_hom_equivalent;
use oc_exchange::chase::{canonical_solution_with_deps_via, NaiveChase};
use oc_exchange::core::certain::certain_answers;
use oc_exchange::core::under_over_queries;
use oc_exchange::engine::IndexedChase;
use oc_exchange::query::QueryEval;
use oc_exchange::solver::Completeness;
use oc_exchange::text::{gen, gen_text, Grade, Scenario};
use oc_exchange::workloads::conference;

use dx_bench::corpus::run_corpus;

// ---------------------------------------------------------------------------
// The 200-scenario differential corpus (one test per grade so the four
// sweeps run on separate cargo-test threads).
// ---------------------------------------------------------------------------

const SEEDS_PER_GRADE: u64 = 50;

fn corpus_grade(level: u8) {
    let stats = run_corpus(0..SEEDS_PER_GRADE, &[Grade::new(level)]);
    assert_eq!(stats.scenarios, SEEDS_PER_GRADE as usize);
    assert_eq!(stats.per_grade[level as usize], SEEDS_PER_GRADE as usize);
    // Every scenario chased to a raced, agreeing outcome.
    assert_eq!(
        stats.chase_satisfied + stats.chase_failed,
        SEEDS_PER_GRADE as usize
    );
    // Each scenario carries queries, and the brute oracles did real work.
    assert!(stats.queries >= stats.scenarios);
    assert!(stats.text_bytes > 0);
}

#[test]
fn corpus_grade_0_differential() {
    corpus_grade(0);
}

#[test]
fn corpus_grade_1_differential() {
    corpus_grade(1);
}

#[test]
fn corpus_grade_2_differential() {
    corpus_grade(2);
}

#[test]
fn corpus_grade_3_differential() {
    corpus_grade(3);
}

// ---------------------------------------------------------------------------
// Pinned golden file: the paper's §1 conference scenario.
// ---------------------------------------------------------------------------

fn load_conference() -> (String, Scenario) {
    let text = std::fs::read_to_string("examples/conference.dx")
        .expect("examples/conference.dx is checked in");
    let sc = Scenario::parse(&text)
        .unwrap_or_else(|e| panic!("examples/conference.dx: {}", e.render(&text)));
    (text, sc)
}

/// The `.dx` file is semantically identical to the hand-built rust twin:
/// same annotated mapping, same source instance.
#[test]
fn conference_dx_matches_rust_twin() {
    let (_, sc) = load_conference();
    assert_eq!(sc.name, "conference");
    assert_eq!(sc.mapping, conference::mapping());
    assert_eq!(sc.source, conference::source(4, 2));
    assert!(sc.constraints.is_empty());
}

/// Both engines chase the pinned scenario to the same annotated solution
/// (up to hom-equivalence), matching the twin's chase.
#[test]
fn conference_dx_chases_like_twin() {
    let (_, sc) = load_conference();
    let from_dx = canonical_solution_with_deps_via(
        &IndexedChase,
        &sc.mapping,
        &sc.constraints,
        &sc.source,
        DEFAULT_CHASE_LIMIT,
    );
    let twin = canonical_solution_with_deps_via(
        &NaiveChase,
        &conference::mapping(),
        &[],
        &conference::source(4, 2),
        DEFAULT_CHASE_LIMIT,
    );
    assert_eq!(from_dx.outcome, ChaseOutcome::Satisfied);
    assert_eq!(twin.outcome, ChaseOutcome::Satisfied);
    assert!(
        ann_hom_equivalent(&from_dx.instance, &twin.instance),
        "dx-file chase and twin chase are not hom-equivalent"
    );
}

/// Certain answers computed from the `.dx` queries equal the answers for the
/// twin's hand-built queries — exact in all three regimes.
#[test]
fn conference_dx_answers_like_twin() {
    let (_, sc) = load_conference();
    let twin_mapping = conference::mapping();
    let twin_source = conference::source(4, 2);
    let pairs = [
        ("one_author", conference::one_author_query()),
        ("reviewed", conference::reviewed_query()),
        (
            "submitted_and_reviewed",
            conference::submitted_and_reviewed(),
        ),
    ];
    for (name, twin_query) in pairs {
        let dx_query = sc
            .query(name)
            .unwrap_or_else(|| panic!("conference.dx declares query `{name}`"));
        let (dx_rel, dx_comp) = certain_answers(&sc.mapping, &sc.source, dx_query, None);
        let (twin_rel, twin_comp) = certain_answers(&twin_mapping, &twin_source, &twin_query, None);
        assert_eq!(dx_comp, Completeness::Exact, "{name} from .dx");
        assert_eq!(twin_comp, Completeness::Exact, "{name} twin");
        assert_eq!(
            dx_rel, twin_rel,
            "{name}: .dx and twin certain answers differ"
        );
    }
}

/// The checked-in file is already in canonical form: printing the parsed
/// scenario and re-parsing is a fixpoint.
#[test]
fn conference_dx_print_parse_fixpoint() {
    let (_, sc) = load_conference();
    let printed = sc.to_text();
    let reparsed = Scenario::parse(&printed)
        .unwrap_or_else(|e| panic!("printed conference.dx reparses: {}", e.render(&printed)));
    assert_eq!(reparsed.to_text(), printed);
    assert_eq!(reparsed.mapping, sc.mapping);
    assert_eq!(reparsed.source, sc.source);
}

// ---------------------------------------------------------------------------
// Round-trip property: canonical text is a parse/print fixpoint across the
// whole grading range.
// ---------------------------------------------------------------------------

#[test]
fn generated_text_round_trips_every_grade() {
    for grade in Grade::ALL {
        for seed in 0..16 {
            let text = gen_text(seed, grade);
            let sc = Scenario::parse(&text)
                .unwrap_or_else(|e| panic!("gen({seed}, {grade:?}) parses: {}", e.render(&text)));
            assert_eq!(
                sc.to_text(),
                text,
                "print∘parse is not a fixpoint for seed {seed} grade {grade:?}"
            );
        }
    }
}

/// Every monotone under/over rewriting the approximation regime builds
/// from a generated query compiles to a plan — including the
/// constant-false shapes `Q(x̄) := false` and `Q(p) := ∃a. false`, which
/// lowering folds to empty plans.
#[test]
fn generated_rewritings_all_compile() {
    let mut rewritings = 0usize;
    for grade in Grade::ALL {
        for seed in 0..200 {
            let sc = gen(seed, grade);
            for nq in &sc.queries {
                let (under, over) = under_over_queries(&nq.query);
                for (side, q) in [("under", &under), ("over", &over)] {
                    let ev = QueryEval::new(q);
                    assert!(
                        ev.is_compiled(),
                        "seed {seed} grade {grade:?} {}: {side} rewriting {} does not compile: {:?}",
                        nq.name,
                        q.formula,
                        ev.lower_error()
                    );
                    rewritings += 1;
                }
            }
        }
    }
    assert!(rewritings >= 2 * 800, "every scenario carries queries");
}

// ---------------------------------------------------------------------------
// Parser failure modes: each diagnostic carries a span and a message naming
// the actual problem.
// ---------------------------------------------------------------------------

fn parse_err(src: &str) -> oc_exchange::text::TextError {
    Scenario::parse(src).expect_err("scenario must be rejected")
}

#[test]
fn diagnostic_unknown_relation() {
    let err = parse_err(
        r#"scenario "bad" {
  source { S/1; }
  target { T/1; }
  mapping { T(x:cl) <- Missing(x); }
}
"#,
    );
    assert!(
        err.msg
            .contains("unknown relation `Missing` (not declared in the source schema)"),
        "got: {}",
        err.msg
    );
    // The rendered diagnostic points at the offending line.
    let rendered = err.render(
        "scenario \"bad\" {\n  source { S/1; }\n  target { T/1; }\n  mapping { T(x:cl) <- Missing(x); }\n}\n",
    );
    assert!(rendered.contains("error at 4:"), "got: {rendered}");
    assert!(rendered.contains('^'), "got: {rendered}");
}

#[test]
fn diagnostic_arity_mismatch() {
    let err = parse_err(
        r#"scenario "bad" {
  source { S/2; }
  target { T/1; }
  mapping { T(x:cl) <- S(x); }
}
"#,
    );
    assert!(
        err.msg
            .contains("arity mismatch: `S` is declared with arity 2 but used with 1 arguments"),
        "got: {}",
        err.msg
    );
}

#[test]
fn diagnostic_unsafe_tgd() {
    let err = parse_err(
        r#"scenario "bad" {
  source { S/1; }
  target { T/1; }
  mapping { T(x:cl) <- !S(x); }
}
"#,
    );
    assert!(
        err.msg
            .contains("unsafe tgd: variable `x` is not bound by a positive body atom"),
        "got: {}",
        err.msg
    );
}

/// An egd equating a variable its body does not bind is refused by the
/// dependency parser, so the `.dx` front end reports it with a span, as
/// the API does, and nothing reaches the chase.
#[test]
fn diagnostic_unsafe_egd() {
    let src = "scenario \"bad\" {\n  source { S/2; }\n  target { T/2; }\n  \
               mapping { T(x:cl, y:cl) <- S(x, y); }\n  constraints { egd y = k <- T(x, y); }\n}\n";
    let err = parse_err(src);
    assert_eq!(
        err.msg,
        "unsafe egd: variable `k` is not bound by a positive body atom"
    );
    let rendered = err.render(src);
    assert!(rendered.contains("error at 5:21"), "got: {rendered}");
    assert!(rendered.contains('^'), "got: {rendered}");
}

#[test]
fn diagnostic_duplicate_annotation() {
    let err = parse_err(
        r#"scenario "bad" {
  source { S/1; }
  target { T/1; }
  mapping { T(x:cl:op) <- S(x); }
}
"#,
    );
    assert!(err.msg.contains("duplicate annotation"), "got: {}", err.msg);
}

// ---------------------------------------------------------------------------
// Generator determinism: same (seed, grade) is byte-identical.
// ---------------------------------------------------------------------------

#[test]
fn generator_is_deterministic() {
    let baseline: Vec<String> = Grade::ALL
        .iter()
        .flat_map(|&g| (0..8).map(move |s| gen_text(s, g)))
        .collect();

    // Re-generate: byte-identical.
    let again: Vec<String> = Grade::ALL
        .iter()
        .flat_map(|&g| (0..8).map(move |s| gen_text(s, g)))
        .collect();
    assert_eq!(baseline, again);

    // The structured form agrees with its own printing.
    let sc = gen(7, Grade::new(3));
    assert_eq!(sc.to_text(), gen_text(7, Grade::new(3)));
}
