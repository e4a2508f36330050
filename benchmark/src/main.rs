//! The repository's benchmark: four workloads, end-to-end and per-layer
//! metrics, output checks. See `benchmark/README.md`.
//!
//! ```text
//! one run (what BENCHMARK.json's command is given):
//!   openoptics-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! the whole suite, every metric printed by name:
//!   openoptics-benchmark [--seed <n>] [--repeat <n>] [--seed-step <k>] [--seconds <s>] [--out <file>]
//! compare two suite result files under the benchmark's bounds:
//!   openoptics-benchmark --compare <A.json> <B.json>
//! plumbing pass (tiny horizons, checks on, nothing written):
//!   openoptics-benchmark --smoke
//! ```
//!
//! The benchmark drives only public functions of the crates and generates
//! its workloads itself from `--seed`; it never calls `openoptics_bench`.

mod ctl_service;
mod digest;
mod kernels;
mod loc;
mod metrics;
mod paper_scale;
mod rotor_load;
mod run;
mod sim;
mod stats;
mod suite;
mod testbed_apps;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  openoptics-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  openoptics-benchmark [--seed <n>] [--repeat <n>] [--seed-step <k>] [--seconds <s>] [--out <file>]
  openoptics-benchmark --compare <A.json> <B.json>
  openoptics-benchmark --smoke
  openoptics-benchmark --emit-benchmark-json
workloads: rotor_load paper_scale testbed_apps ctl_service";

/// Default suite repetitions: 3 untraced + 1 traced run of each of the four
/// workloads at the contract's run length is about seven minutes.
const DEFAULT_REPEAT: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    seed_step: u64,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    smoke: bool,
    emit: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: DEFAULT_REPEAT,
        seed_step: 0,
        out: None,
        compare: None,
        smoke: false,
        emit: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            "--repeat" => {
                a.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if a.repeat < 3 {
                    return Err("--repeat must be at least 3 (a median needs it)".to_string());
                }
            }
            "--seed-step" => {
                a.seed_step = value()?.parse().map_err(|e| format!("--seed-step: {e}"))?
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--compare" => a.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            "--smoke" => a.smoke = true,
            "--emit-benchmark-json" => a.emit = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("openoptics-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = dispatch(args);
    match outcome {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("openoptics-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run the selected mode; `Ok(n)` is the number of violated checks.
fn dispatch(args: Args) -> Result<u64, String> {
    if args.emit {
        print!("{}", metrics::benchmark_json());
        return Ok(0);
    }
    if let Some((a, b)) = &args.compare {
        return suite::compare(a, b);
    }
    if args.smoke {
        let mut violated = 0;
        for w in &metrics::WORKLOADS {
            for traced in [false, true] {
                let r = run::run(w.name, args.seed, 0.0, traced, sim::Scale::Smoke)?;
                println!("{}", r.detail_line);
                violated += u64::from(!r.correct);
            }
        }
        println!("smoke: {}", if violated == 0 { "ok" } else { "CHECKS FAILED" });
        return Ok(violated);
    }
    if let Some(workload) = &args.workload {
        let seconds = args.seconds.unwrap_or(metrics::RUN_SECONDS as f64);
        let r = run::run(workload, args.seed, seconds, args.trace, sim::Scale::Full)?;
        println!("{}", r.detail_line);
        println!("{}", r.result_line);
        // A run that printed its result exits 0: `correct` carries the
        // verdict. The suite and `--smoke` are what exit non-zero on it.
        return Ok(0);
    }
    let seconds = args.seconds.map_or(metrics::RUN_SECONDS, |s| s.ceil() as u64);
    let out =
        args.out.unwrap_or_else(|| run::out_dir().join(format!("result-seed{}.json", args.seed)));
    suite::run(&suite::Options {
        seed: args.seed,
        seed_step: args.seed_step,
        repeat: args.repeat,
        seconds,
        out,
    })
}
