//! `perfbench --workload <exchange|decide|stream> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints diagnostics (`# name value`) and, as the last line of standard
//! output, one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits non-zero, printing no result, when the run cannot
//! produce valid figures.

use dx_perfbench::host::RefKernel;
use dx_perfbench::run::{self, Length, Pass};
use dx_perfbench::trace::{Recorder, UnitTrace};
use dx_perfbench::workloads::{Decide, Exchange, Stream, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <exchange|decide|stream> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = value("--workload")?.to_string();
    if !["exchange", "decide", "stream"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must lie in (0, 60]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The untraced pass and, when tracing, the traced pass with its units.
type Passes = (Pass, Option<(Pass, Vec<UnitTrace>, Recorder)>);

fn passes<W: Workload>(mk: impl Fn() -> W, args: &Args) -> Result<Passes, String> {
    let mut kernel = RefKernel::new(W::KERNEL);
    let untraced = run::run_pass(
        &mut mk(),
        &mut kernel,
        &mut Recorder::new(false),
        Length::Seconds(args.seconds),
    )?;
    if !args.trace {
        return Ok((untraced, None));
    }
    dx_obs::set_enabled(true);
    let mut rec = Recorder::new(true);
    let traced = run::run_pass(
        &mut mk(),
        &mut kernel,
        &mut rec,
        Length::Ops(untraced.measured),
    );
    dx_obs::set_enabled(false);
    let traced = traced?;
    let units = std::mem::take(&mut rec.units);
    Ok((untraced, Some((traced, units, rec))))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pin the pool to width 1 and instrumentation off, overriding any
    // ambient DX_THREADS / DX_OBS / DX_TRACE.
    rayon::set_threads(1);
    dx_obs::set_enabled(false);
    dx_obs::set_trace_enabled(false);

    let seed = args.seed;
    let result = match args.workload.as_str() {
        "exchange" => passes(|| Exchange::new(seed), &args),
        "decide" => passes(|| Decide::new(seed), &args),
        _ => passes(|| Stream::new(seed), &args),
    };
    let (untraced, traced) = match result {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, v) in run::diagnostics(&untraced) {
        println!("# {name} {v}");
    }
    let e2e = match run::end_to_end(&untraced) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut tally = untraced.tally.clone();
    let metrics = match traced {
        None => e2e,
        Some((pass, units, rec)) => {
            for m in &e2e {
                println!("# untraced {} {} {}", m.name, m.value, m.unit);
            }
            let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
            let path = format!("{out_dir}/trace-{}-{}.json", args.workload, args.seed);
            match std::fs::create_dir_all(out_dir)
                .and_then(|_| std::fs::write(&path, rec.chrome_json()))
            {
                Ok(()) => println!("# spans written to {path}"),
                Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
            }
            tally.attempted += pass.tally.attempted;
            tally.failed += pass.tally.failed;
            run::per_layer(&pass, &units, &untraced)
        }
    };
    if let Some(msg) = &tally.first_failure {
        println!("# first failure: {msg}");
    }
    println!("{}", run::result_json(&tally, &metrics));
    ExitCode::SUCCESS
}
