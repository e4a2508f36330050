//! One run of one workload: repeat passes for the measuring window, reduce
//! them to the metric rows, check the outputs.
//!
//! Every pass of a run is the same deterministic work, step for step, so
//! whatever differs between passes is interference from the host, and
//! interference only ever adds time. Each control step is therefore taken at
//! the *fastest of its repetitions across the passes* before anything else
//! is computed: `run_s` is the sum of those step times (plus the drains of
//! the open-loop cells, which are timed as one lump each and treated the
//! same way), `step_p50_us` and `step_tail_us` their median and 99th
//! percentile. On this 2-core box a
//! pure spin loop swings by +-15 % within a minute and whole passes by
//! 1.5x; a median of passes inherits that in full, a minimum taken per
//! ~10 ms step hardly at all. The fastest and the median whole pass are in
//! the detail line for comparison. `setup_s` is a plain median of its
//! samples.
//!
//! With tracing off the run reports the end-to-end metrics. With tracing on
//! it reports the per-layer metrics instead: untraced and traced passes
//! alternate (so the tracing overhead is measured inside the same run), the
//! layer kernels and the size rows run once, and the benchmark-side spans
//! are written to `benchmark/out/trace-<workload>.json`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::metrics::{self, Values, PHASE_NAMES, RPC_METHODS, SPANS};
use crate::sim::{Ctx, Pass, Scale};
use crate::stats::{highest_supported_percentile, median, percentile, sorted};
use crate::trace::Tracer;
use crate::{ctl_service, kernels, loc, paper_scale, rotor_load, testbed_apps};

/// Set-up-only repetitions before each full pass of an end-to-end run: at
/// least the minimum, then more while they stay cheap (a sub-millisecond
/// set-up needs many samples for a steady median).
const SETUP_SAMPLES_MIN: usize = 5;
const SETUP_SAMPLES_MAX: usize = 40;
const SETUP_SAMPLING: Duration = Duration::from_millis(60);

/// The tail of the control-step latencies is always their 99th percentile
/// (nearest rank over the per-step fastest repetitions), so its meaning
/// does not change with how many passes a run held. Whether the run's
/// measurements support it by the ten-samples-beyond rule is stated in the
/// detail line (`highest_supported_percentile`).
const TAIL_PERCENTILE: f64 = 99.0;

/// One pass of a workload.
type PassFn = fn(&Ctx) -> Pass;

/// The pass function of a workload, by name.
pub fn workload(name: &str) -> Option<(&'static str, PassFn)> {
    match name {
        "rotor_load" => Some(("rotor_load", rotor_load::pass)),
        "paper_scale" => Some(("paper_scale", paper_scale::pass)),
        "testbed_apps" => Some(("testbed_apps", testbed_apps::pass)),
        "ctl_service" => Some(("ctl_service", ctl_service::pass)),
        _ => None,
    }
}

/// What a run produced.
pub struct Report {
    /// The contract's result line (last line of standard output).
    pub result_line: String,
    /// One JSON line of details for the suite and for reviewers: digest,
    /// exact counts, failure share, violated checks.
    pub detail_line: String,
    /// Whether every output check held.
    pub correct: bool,
}

/// This process's peak resident set, MB (`VmHWM`). One run is one process,
/// so the figure belongs to this workload alone.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The repository root: the working directory when it holds `crates/` (how
/// the benchmark command is run), else the parent of this package.
pub fn repo_root() -> PathBuf {
    let cwd = PathBuf::from(".");
    if cwd.join("crates").is_dir() {
        cwd
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
    }
}

/// Where run artefacts go.
pub fn out_dir() -> PathBuf {
    repo_root().join("benchmark").join("out")
}

/// Whether the measuring window still has room for another pass of the
/// usual length: stop once the next pass would overshoot by more than half.
fn room_for_more(started: Instant, window: Duration, passes_done: usize) -> bool {
    let elapsed = started.elapsed();
    let usual = elapsed / passes_done.max(1) as u32;
    elapsed + usual / 2 < window
}

/// Passes of one seed must be indistinguishable: same digest, same counts.
fn check_repeatability(passes: &[Pass], failures: &mut Vec<String>) {
    let Some(first) = passes.first() else { return };
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.digest != first.digest {
            failures.push(format!(
                "pass {i} digest {} differs from pass 0 digest {}",
                p.digest.hex(),
                first.digest.hex()
            ));
        }
        if p.counts != first.counts {
            failures.push(format!("pass {i} exact counts differ from pass 0"));
        }
    }
}

/// Per piece of repeated work (`pick` selects control steps or drains), the
/// fastest of its repetitions across passes. Passes of one seed are the same
/// work piece for piece; if their counts differ that is a failed check and
/// the first pass is used alone.
fn fastest(passes: &[Pass], pick: fn(&Pass) -> &Vec<f64>, failures: &mut Vec<String>) -> Vec<f64> {
    let mut best = pick(&passes[0]).clone();
    if passes.iter().any(|p| pick(p).len() != best.len()) {
        failures.push("passes of one seed took different numbers of control steps".to_string());
        return best;
    }
    for p in &passes[1..] {
        for (b, &us) in best.iter_mut().zip(pick(p)) {
            *b = b.min(us);
        }
    }
    best
}

/// Host seconds of one pass with every step and drain at its fastest.
fn fastest_run_s(passes: &[Pass], failures: &mut Vec<String>) -> f64 {
    let steps = fastest(passes, |p| &p.steps_us, failures);
    let drains = fastest(passes, |p| &p.drains_us, failures);
    (steps.iter().sum::<f64>() + drains.iter().sum::<f64>()) / 1e6
}

/// Run `name` for about `seconds` and reduce the passes to a [`Report`].
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<Report, String> {
    let (name, pass_fn) = workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let started = Instant::now();
    let window = Duration::from_secs_f64(seconds.max(0.0));
    let tracer = if traced { Tracer::on(name) } else { Tracer::off() };
    let off = Tracer::off();
    let mut values = Values::new();

    // Traced runs spend the head of the window on the kernels and size rows.
    if traced {
        let sample = if scale == Scale::Full {
            Duration::from_millis(12)
        } else {
            Duration::from_micros(200)
        };
        values.extend(kernels::run_all(sample, seed));
        values.extend(loc::count());
    }

    let mut plain: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let mut span_ns: Vec<std::collections::BTreeMap<&'static str, u64>> = Vec::new();
    // The set-up time is sampled on its own, several times before every
    // pass: spread over the whole window so one burst of interference
    // cannot inflate them all, and never mixed with the set-up inside a
    // full pass, which would put the median between two populations.
    let mut setups: Vec<f64> = Vec::new();
    loop {
        if !traced && scale == Scale::Full {
            let t = Instant::now();
            let mut n = 0;
            while n < SETUP_SAMPLES_MIN || (n < SETUP_SAMPLES_MAX && t.elapsed() < SETUP_SAMPLING) {
                let ctx = Ctx { seed, scale, tracer: &off, traced: false, setup_only: true };
                setups.push(pass_fn(&ctx).setup_s);
                n += 1;
            }
        }
        plain.push(pass_fn(&Ctx { seed, scale, tracer: &off, traced: false, setup_only: false }));
        if traced {
            let mark = tracer.mark();
            traced_passes.push(pass_fn(&Ctx {
                seed,
                scale,
                tracer: &tracer,
                traced: true,
                setup_only: false,
            }));
            span_ns.push(tracer.self_ns_since(mark));
        }
        if scale == Scale::Smoke || !room_for_more(started, window, plain.len()) {
            break;
        }
    }

    let mut failures: Vec<String> = Vec::new();
    for (kind, passes) in [("untraced", &plain), ("traced", &traced_passes)] {
        for (i, p) in passes.iter().enumerate() {
            failures.extend(p.check_failures.iter().map(|f| format!("{kind} pass {i}: {f}")));
        }
    }
    check_repeatability(&plain, &mut failures);
    let attempted: u64 = plain.iter().chain(&traced_passes).map(|p| p.attempted).sum();
    let failed: u64 = plain.iter().chain(&traced_passes).map(|p| p.failed).sum();

    let steps = fastest(&plain, |p| &p.steps_us, &mut failures);
    let run_s = fastest_run_s(&plain, &mut failures);
    let measurements: usize = plain.iter().map(|p| p.steps_us.len()).sum();
    let rows = if traced {
        let first = &plain[0];
        for (k, v) in first.counts.rows() {
            values.insert(k.to_string(), v);
        }
        for (metric, span, unit) in SPANS {
            let per_pass: Vec<f64> =
                span_ns.iter().map(|m| m.get(span).copied().unwrap_or(0) as f64).collect();
            let scale_to_unit = if unit == "ms" { 1e6 } else { 1e3 };
            values.insert(metric.to_string(), median(&per_pass) / scale_to_unit);
        }
        for m in RPC_METHODS {
            let pooled: Vec<f64> =
                plain.iter().flat_map(|p| p.rpc_us.get(m).into_iter().flatten().copied()).collect();
            values.insert(format!("ctl.rpc.{m}_us"), median(&pooled));
        }
        values.insert("ctl.rpc.frames_streamed".into(), first.frames_streamed as f64);
        values.insert("ctl.rpc.frames_skipped".into(), first.frames_skipped as f64);
        for (i, p) in PHASE_NAMES.iter().enumerate() {
            let ns: Vec<f64> = traced_passes.iter().map(|t| t.phase_self_ns[i] as f64).collect();
            let ev: Vec<f64> = traced_passes.iter().map(|t| t.phase_events[i] as f64).collect();
            values.insert(format!("engine.phase.{p}.self_ms"), median(&ns) / 1e6);
            values.insert(format!("engine.phase.{p}.events"), median(&ev));
        }
        let with = fastest_run_s(&traced_passes, &mut failures);
        values.insert(
            "trace.overhead_pct".into(),
            if run_s > 0.0 { (with / run_s - 1.0) * 100.0 } else { 0.0 },
        );
        if scale == Scale::Full {
            let dir = out_dir();
            let path = dir.join(format!("trace-{name}.json"));
            if let Err(e) =
                std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json()))
            {
                eprintln!("openoptics-benchmark: cannot write {}: {e}", path.display());
            }
        }
        metrics::per_layer_rows()
    } else {
        if setups.is_empty() {
            setups.extend(plain.iter().map(|p| p.setup_s));
        }
        values.insert("setup_s".into(), median(&setups));
        values.insert("run_s".into(), run_s);
        values.insert(
            "pkts_per_s".into(),
            if run_s > 0.0 { plain[0].counts.delivered_pkts as f64 / run_s } else { 0.0 },
        );
        values.insert("peak_rss_mb".into(), peak_rss_mb());
        let ascending = sorted(&steps);
        values.insert("step_p50_us".into(), percentile(&ascending, 50.0));
        values.insert("step_tail_us".into(), percentile(&ascending, TAIL_PERCENTILE));
        metrics::end_to_end_rows()
    };

    let correct = failures.is_empty();
    let result_line = metrics::result_line(correct, attempted.max(1), failed, &rows, &values);
    let counts: Vec<String> = plain[0]
        .counts
        .rows()
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", metrics::num(*v)))
        .collect();
    let quoted: Vec<String> =
        failures.iter().map(|f| openoptics_core::json::Json::Str(f.clone()).to_string()).collect();
    let pass_s: Vec<f64> = plain.iter().map(|p| p.run_s).collect();
    let detail_line = format!(
        "{{\"workload\":\"{name}\",\"seed\":{seed},\"trace\":{},\"passes\":{},\"traced_passes\":{},\"digest\":\"{}\",\"counts\":{{{}}},\"fail_share\":{},\"check_failures\":{},\"failures\":[{}],\"steps_per_pass\":{},\"step_measurements\":{measurements},\"tail_percentile\":{TAIL_PERCENTILE},\"highest_supported_percentile\":{},\"fastest_pass_s\":{},\"median_pass_s\":{},\"measured_s\":{}}}",
        u8::from(traced),
        plain.len(),
        traced_passes.len(),
        plain[0].digest.hex(),
        counts.join(","),
        metrics::num(failed as f64 / attempted.max(1) as f64),
        failures.len(),
        quoted.join(","),
        steps.len(),
        metrics::num(highest_supported_percentile(measurements).unwrap_or(0.0)),
        metrics::num(pass_s.iter().copied().fold(f64::INFINITY, f64::min)),
        metrics::num(median(&pass_s)),
        metrics::num(started.elapsed().as_secs_f64()),
    );
    Ok(Report { result_line, detail_line, correct })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--smoke` plumbing pass as a test: every workload at a tiny
    /// horizon, untraced and traced, checks on, nothing written.
    #[test]
    fn smoke_every_workload_passes_its_checks() {
        let t = Instant::now();
        for w in &metrics::WORKLOADS {
            for traced in [false, true] {
                let r = run(w.name, 1, 0.0, traced, Scale::Smoke).expect("known workload");
                assert!(r.correct, "{} traced={traced}: {}", w.name, r.detail_line);
                let doc = openoptics_core::json::parse(&r.result_line).expect("result line parses");
                let want =
                    if traced { metrics::per_layer().len() } else { metrics::END_TO_END.len() };
                assert_eq!(
                    doc.get("metrics").expect("metrics").as_obj().expect("object").len(),
                    want
                );
                assert_eq!(
                    doc.get("failed").and_then(|v| v.as_u64().ok()),
                    Some(0),
                    "{}",
                    r.detail_line
                );
                openoptics_core::json::parse(&r.detail_line).expect("detail line parses");
                if !traced {
                    let metrics = doc.get("metrics").expect("metrics");
                    for m in &metrics::END_TO_END {
                        let v = metrics.get(m.name).and_then(|x| x.get("value")?.as_f64().ok());
                        assert!(
                            v.is_some_and(|v| v > 0.0),
                            "{}: {} must never be 0",
                            w.name,
                            m.name
                        );
                    }
                }
            }
        }
        assert!(t.elapsed() < Duration::from_secs(15), "smoke took {:?}", t.elapsed());
    }

    #[test]
    fn unknown_workload_is_an_error() {
        assert!(run("nope", 1, 1.0, false, Scale::Smoke).is_err());
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let digest = |seed| {
            let off = Tracer::off();
            let ctx =
                Ctx { seed, scale: Scale::Smoke, tracer: &off, traced: false, setup_only: false };
            rotor_load::pass(&ctx).digest
        };
        assert_eq!(digest(3), digest(3));
        assert_ne!(digest(3), digest(4));
    }
}
