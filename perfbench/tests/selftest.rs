//! Self-tests of the benchmark's own machinery: the tail-percentile rule,
//! the host-normalization arithmetic, the scenario generators, and the
//! outcome accounting behind `success_rate`.

use dx_perfbench::gen::{self, StreamTrace};
use dx_perfbench::host::{self, RefKernel, Round, NOMINAL_REF_MS};
use dx_perfbench::run::{self, around, run_pass, Length};
use dx_perfbench::stats::{self, Tally};
use dx_perfbench::trace::Recorder;
use dx_perfbench::workloads::{check_exchange, Exchange, Workload};
use dx_text::Scenario;

#[test]
fn p90_is_refused_with_fewer_than_ten_ops_above_it() {
    let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
    let err = stats::p90_checked(&fifty).unwrap_err();
    assert!(err.contains("5 of 50 ops"), "{err}");
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::p90_checked(&hundred), Ok(90.0));
    // Ties at the percentile do not count as above it.
    let mut tied = vec![1.0; 95];
    tied.extend([2.0; 5]);
    assert!(stats::p90_checked(&tied).is_err());
}

#[test]
fn quantiles_and_medians() {
    assert_eq!(stats::quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(stats::median(&[]), 0.0);
}

#[test]
fn normalization_scales_each_timing_by_its_own_kernel_time() {
    assert_eq!(host::speed_factor(NOMINAL_REF_MS), 1.0);
    assert_eq!(host::speed_factor(2.0 * NOMINAL_REF_MS), 0.5);
    // An op timed during a phase twice as slow reads as the same op at
    // nominal speed.
    let raw = [10.0, 20.0, 30.0];
    let kernel = [NOMINAL_REF_MS, 2.0 * NOMINAL_REF_MS, 3.0 * NOMINAL_REF_MS];
    assert_eq!(host::normalize(&raw, &kernel), vec![10.0, 10.0, 10.0]);
    // The kernel time of a timing is the geometric mean of the samples
    // before and after it.
    assert_eq!(around(1.0, 4.0), 2.0);
    // A zero sample (no clock progress) leaves the timing as measured.
    assert_eq!(host::speed_factor(0.0), 1.0);
}

#[test]
fn kernel_samples_are_positive_and_its_rounds_deterministic() {
    const ALL: &[Round] = &[Round::Records, Round::Tree, Round::Vecs];
    let mut k = RefKernel::new(ALL);
    assert!(k.sample_ms() > 0.0);
    for &r in ALL {
        assert_eq!(k.run(r), k.run(r));
    }
}

#[test]
fn generators_are_byte_deterministic_and_valid() {
    for seed in [0u64, 1, 7, 1 << 40] {
        let ex = gen::exchange_text(seed, 30);
        assert_eq!(ex, gen::exchange_text(seed, 30));
        let sc = Scenario::parse(&ex).unwrap_or_else(|e| panic!("{}", e.render(&ex)));
        assert_eq!(sc.queries.len(), 5);
        assert!(sc.source.tuple_count() >= 30);

        for s in seed..seed + 8 {
            let de = gen::decide_text(s, 3);
            assert_eq!(de, gen::decide_text(s, 3));
            Scenario::parse(&de).unwrap_or_else(|e| panic!("{}", e.render(&de)));
        }

        let st = gen::stream_text(seed, 40);
        assert_eq!(st, gen::stream_text(seed, 40));
        Scenario::parse(&st).unwrap_or_else(|e| panic!("{}", e.render(&st)));
        let (mut a, mut b) = (StreamTrace::new(seed, 40), StreamTrace::new(seed, 40));
        for i in 0..12 {
            let (text, retract) = a.next_batch();
            assert_eq!((text.clone(), retract), b.next_batch());
            assert_eq!(retract, i % 4 == 3, "every fourth batch retracts");
            let sc = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}", e.render(&text)));
            assert_eq!(sc.updates.len(), 1);
            assert_eq!(sc.updates[0].update.retracts().count() > 0, retract);
        }
    }
    assert_ne!(gen::exchange_text(1, 30), gen::exchange_text(2, 30));
}

#[test]
fn decide_seeds_cycle_through_every_stratum() {
    let mut strata = std::collections::BTreeSet::new();
    for s in 0..8u64 {
        let text = gen::decide_text(s, 3);
        let sc = Scenario::parse(&text).expect("valid");
        let csol = dx_chase::canonical_solution(&sc.mapping, &sc.source);
        let open = (text.contains("a:op"), text.contains("r:op"));
        strata.insert((open, csol.instance.nulls().len()));
    }
    // Author and reviewer null positions open or closed, two or three
    // nulls: eight strata in eight consecutive seeds.
    assert_eq!(strata.len(), 8, "{strata:?}");
}

#[test]
fn a_wrong_answer_fails_its_check() {
    let text = gen::exchange_text(3, 25);
    let mut w = Exchange::new(3);
    let out = w.op(&text, &mut Recorder::new(false)).expect("op runs");
    assert_eq!(check_exchange(&out.sc, &out.chased, &out.answers), Ok(()));
    let mut wrong = out.answers.clone();
    let extra = dx_relation::Tuple::from_names(&["p0", "nobody"]);
    wrong[1].insert(extra);
    let err = check_exchange(&out.sc, &out.chased, &wrong).unwrap_err();
    assert!(err.contains("authored"), "{err}");
}

/// A workload whose every fifth op returns a wrong answer and whose
/// seventh op panics.
struct Faulty;

impl Workload for Faulty {
    type Input = u64;
    type Output = u64;
    const SETUP_REPS: usize = 2;
    const SETUP_BATCH: usize = 1;
    const KERNEL: &'static [Round] = &[Round::Vecs];

    fn setup_text(&mut self) -> String {
        String::new()
    }
    fn reset(&mut self) {}
    fn setup(&mut self, _text: &str, _rec: &mut Recorder) -> Result<(), String> {
        Ok(())
    }
    fn prepare(&mut self, i: u64) -> Result<u64, String> {
        Ok(i)
    }
    fn op(&mut self, i: &u64, _rec: &mut Recorder) -> Result<u64, String> {
        assert_ne!(*i, 7, "deliberate panic");
        Ok(if i.is_multiple_of(5) { i + 1 } else { *i })
    }
    fn check(&mut self, i: &u64, out: u64, tally: &mut Tally) -> Result<(), String> {
        tally.answers(1, 0);
        if out == *i {
            Ok(())
        } else {
            Err(format!("op {i}: wrong answer {out}"))
        }
    }
}

#[test]
fn wrong_answers_and_panics_count_against_success_rate() {
    let mut kernel = RefKernel::new(Faulty::KERNEL);
    let pass = run_pass(
        &mut Faulty,
        &mut kernel,
        &mut Recorder::new(false),
        Length::Ops(20),
    )
    .expect("pass runs");
    // Ops 0..22 (two warm-up): wrong at 0, 5, 10, 15, 20; panic at 7.
    assert_eq!(pass.tally.attempted, 22);
    assert_eq!(pass.tally.failed, 6);
    assert_eq!(
        pass.tally.first_failure.as_deref(),
        Some("op 0: wrong answer 1")
    );
    let e2e = run::end_to_end(&pass);
    // Fewer than 100 timed ops: the tail percentile is refused.
    assert!(e2e.is_err());
    assert!((pass.tally.success_rate() - 16.0 / 22.0).abs() < 1e-12);
    let line = run::result_json(&pass.tally, &[]);
    assert!(
        line.starts_with("{\"correct\": false, \"attempted\": 22, \"failed\": 6"),
        "{line}"
    );
}
