//! `experiments` — regenerate every table and figure of the OpenOptics
//! evaluation.
//!
//! ```text
//! experiments <id|all> [--quick] [--jobs N] [--seeds K]
//! ```
//!
//! The ids, their section titles and which of them `all` runs come from
//! one table, [`openoptics_bench::EXPERIMENTS`]; running with no arguments
//! prints them. Stdout is the byte-stable oracle: `experiments all` must
//! equal the committed `experiments_full.txt` and `experiments sweep
//! --quick` the committed `sweep_quick.txt`, at any `--jobs`. Any other
//! `--flag` is a usage error (exit 2, nothing on stdout). The binary
//! writes no performance report — `benchmark/` is the only source of
//! performance numbers.
//!
//! `sweep` runs the architecture × routing composition matrix (every
//! preset architecture against every routing scheme, × load, × fault
//! plan in full mode) through `OpenOpticsNet::deploy`, recording skipped
//! incompatible pairings with their typed rejection reason. It is *not*
//! part of `all` (its grid dwarfs the paper experiments).
//!
//! `--quick` shrinks measurement windows for smoke runs (used by CI); the
//! default windows are the EXPERIMENTS.md settings.
//!
//! `--seeds K` runs an experiment that takes a seed (Fig. 10, Table 4,
//! faults, SLO; `all` runs those four) at seeds 1..=K instead of at its
//! committed seed, and prints its table with each numeric cell as `median
//! [min, max]` over the K runs: a shape that holds at every seed, told
//! apart from a tail one re-roll moves. An id that takes no seed is a
//! usage error.
//!
//! `--jobs N` sets the worker count for the parallel experiment runner
//! (default: available parallelism). Independent simulation points fan out
//! across a `std::thread::scope` pool; results are collected in original
//! order, so the rendered output is byte-identical at any worker count —
//! `--jobs 1` reproduces the serial behavior exactly.
//!
//! The fig8a run also records causal lifecycle spans on its RotorNet-VLB
//! point (every 4th flow) and writes `fig8a_spans.json` (Chrome
//! trace-event JSON, loadable in `chrome://tracing` or Perfetto) plus
//! `fig8a_span_report.txt` (stage totals and per-flow trees) — both
//! byte-identical at any `--jobs` count, and the only files a run writes.
//!
//! Each experiment reports its wall-clock time, scheduled-event count and
//! merged telemetry totals to stderr.
#![expect(
    clippy::disallowed_methods,
    reason = "the harness measures wall time, reads argv and writes artifacts by design"
)]

use openoptics_bench as x;
use std::time::Instant;

/// Report a usage error on stderr and exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{}", x::usage());
    std::process::exit(2);
}

fn main() {
    let mut opts = x::Opts::default();
    let mut seeds = None;
    let mut which = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--jobs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => x::set_jobs(n),
                _ => usage_error("--jobs expects a positive integer"),
            },
            "--seeds" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(k) if k >= 1 => seeds = Some(k),
                _ => usage_error("--seeds expects a positive integer"),
            },
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag: {flag}")),
            // The first positional argument is the experiment id.
            _ => which = which.or(Some(arg)),
        }
    }
    let which = which.unwrap_or_else(|| usage_error("missing experiment id"));
    let selected = x::select(&which);
    if selected.is_empty() {
        usage_error(&format!("unknown experiment id: {which}"));
    }
    for e in selected {
        if seeds.is_some() && !e.takes_seeds() {
            if which == "all" {
                continue;
            }
            usage_error(&format!("{} takes no --seeds", e.id));
        }
        println!("\n=== {} ===", e.title);
        match seeds {
            None => report(e.id, || (e.run)(opts)),
            Some(k) => report(e.id, || e.run_seeds(opts, k)),
        }
    }
}

/// Run one experiment body and report its wall-clock time, event count and
/// the telemetry totals merged across its networks (identical at any
/// `--jobs` count) on stderr.
fn report(id: &str, body: impl FnOnce()) {
    x::take_events(); // drop any counts from a previous section
    x::take_metrics();
    let t = Instant::now();
    body();
    let wall_s = t.elapsed().as_secs_f64();
    let events = x::take_events();
    if events > 0 {
        eprintln!("[{id} took {wall_s:.2}s; {events} events]");
    } else {
        eprintln!("[{id} took {wall_s:.2}s]");
    }
    let metrics = x::take_metrics();
    if !metrics.is_empty() {
        let g = |k: &str| metrics.get(k).copied().unwrap_or(0);
        let retx = g("engine.watchdog_retransmits")
            + g("engine.rto_retransmits")
            + g("engine.fast_retransmits")
            + g("engine.nack_retransmits");
        eprintln!(
            "[{id} telemetry: {} delivered, {} fabric drops, {} switch drops, \
             {} pushbacks, {} retx]",
            g("engine.delivered_packets"),
            g("engine.fabric_drops"),
            g("engine.switch_drops"),
            g("tor.pushback_emitted"),
            retx,
        );
    }
}
