//! The `dx` command line, driven as a built binary: one good run of each
//! subcommand, and the usage errors (exit code 2) for input it cannot
//! read — an unknown flag, an unreadable number, a grade above 3.

use std::process::{Command, Output};

/// Run `dx` with `args` from the repository root (where `examples/` is).
fn dx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dx"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("the dx binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `args` must be refused as a usage error whose message names `culprit`.
fn assert_usage_error(args: &[&str], culprit: &str) {
    let out = dx(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "dx {args:?}: {stderr}");
    assert!(stderr.contains(culprit), "dx {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "dx {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "dx {args:?} ran anyway");
}

#[test]
fn check_accepts_the_pinned_scenario() {
    let out = dx(&["check", "examples/conference.dx"]);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout(&out).contains("ok — scenario \"conference\""));
}

#[test]
fn gen_prints_a_scenario() {
    let out = dx(&["gen", "--seed", "3", "--grade", "2"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(stdout(&out), dx_text::gen_text(3, dx_text::Grade::new(2)));
}

#[test]
fn corpus_races_one_scenario() {
    let out = dx(&["corpus", "--seeds", "1", "--grades", "0"]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout(&out).contains("\"scenarios\": 1"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn run_answers_the_pinned_scenario() {
    let out = dx(&["examples/conference.dx", "--certain", "--query", "reviewed"]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("## query reviewed"), "{text}");
    assert!(text.contains("certain   [exact]:"), "{text}");
}

#[test]
fn unknown_flags_are_usage_errors() {
    assert_usage_error(&["examples/conference.dx", "--gcwq"], "--gcwq");
    assert_usage_error(&["gen", "--sed", "3"], "--sed");
    assert_usage_error(&["corpus", "--seeds", "1", "--grade", "0"], "--grade");
    assert_usage_error(&["check", "examples/conference.dx", "--all"], "check");
}

#[test]
fn unreadable_numbers_are_usage_errors() {
    assert_usage_error(&["gen", "--seed", "abc"], "abc");
    assert_usage_error(&["corpus", "--seeds", "-1"], "-1");
    assert_usage_error(&["examples/conference.dx", "--query"], "--query");
}

#[test]
fn grades_above_3_are_usage_errors() {
    assert_usage_error(&["corpus", "--seeds", "1", "--grades", "0,9"], "\"9\"");
    assert_usage_error(&["gen", "--grade", "9"], "\"9\"");
}
