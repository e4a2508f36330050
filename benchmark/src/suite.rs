//! The one command a person runs: every workload, repeated, each repetition
//! in its own child process (so peak memory is attributable), workload order
//! rotating between repetitions (so drift does not bias one workload), plus
//! one traced repetition per workload for the per-layer rows. Also the
//! `--compare` mode that applies the bounds to two result files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use openoptics_core::json::{self, Json};

use crate::metrics::{self, END_TO_END, WORKLOADS};
use crate::stats::{quartiles, spread};

/// Suite options.
pub struct Options {
    /// Seed of the first repetition.
    pub seed: u64,
    /// Added to the seed for each further repetition (0: same inputs every
    /// time, which is what lets digests and counts be compared exactly).
    pub seed_step: u64,
    /// Untraced repetitions per workload.
    pub repeat: usize,
    /// Seconds each run measures for.
    pub seconds: u64,
    /// Where to write the result file.
    pub out: PathBuf,
}

/// One child run, parsed.
struct ChildRun {
    result: Json,
    detail: Json,
}

fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(detail)) = (lines.next(), lines.next()) else {
        return Err(format!(
            "{workload} child printed no result (exit {:?}): {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        ));
    };
    Ok(ChildRun {
        result: json::parse(result).map_err(|e| format!("{workload} result line: {e}"))?,
        detail: json::parse(detail).map_err(|e| format!("{workload} detail line: {e}"))?,
    })
}

fn metric_value(result: &Json, name: &str) -> f64 {
    result.get("metrics").and_then(|m| m.get(name)?.get("value")?.as_f64().ok()).unwrap_or(0.0)
}

fn text(v: Option<&Json>) -> String {
    v.and_then(|s| s.as_str().ok()).unwrap_or("").to_string()
}

fn number(v: Option<&Json>) -> f64 {
    v.and_then(|n| n.as_f64().ok()).unwrap_or(0.0)
}

/// Run the whole suite, print every metric, write the result file.
/// Returns the number of violated checks.
pub fn run(opts: &Options) -> Result<u64, String> {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let mut runs: BTreeMap<&str, Vec<ChildRun>> = BTreeMap::new();
    let mut traced: BTreeMap<&str, ChildRun> = BTreeMap::new();
    for rep in 0..opts.repeat {
        let seed = opts.seed + rep as u64 * opts.seed_step;
        for i in 0..names.len() {
            let w = names[(i + rep) % names.len()];
            eprintln!("[{}/{}] {w} seed {seed}", rep + 1, opts.repeat);
            runs.entry(w).or_default().push(child(w, seed, opts.seconds, false)?);
        }
    }
    for w in &names {
        eprintln!("[traced] {w} seed {}", opts.seed);
        traced.insert(w, child(w, opts.seed, opts.seconds, true)?);
    }

    let mut violated = 0u64;
    let mut doc = format!(
        "{{\"schema\":1,\"seed\":{},\"seed_step\":{},\"repeat\":{},\"run_seconds\":{},\"threads_available\":{},\n\"notes\":[\"every metric is host time unless its name says sim\",\"model unvalidated against hardware; no error figure\",\"ctl_service: one closed-loop client over the host loopback interface, two threads\"],\n\"workloads\":{{",
        opts.seed,
        opts.seed_step,
        opts.repeat,
        opts.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "# openoptics benchmark — seed {} (+{} per repetition), {} repetitions x {} s",
        opts.seed, opts.seed_step, opts.repeat, opts.seconds
    );
    println!(
        "# every metric is host time unless its name says sim; model unvalidated against hardware"
    );
    for (wi, w) in names.iter().enumerate() {
        let reps = &runs[w];
        let tr = &traced[w];
        println!("\n## {w}");

        // Exact outputs must repeat when the inputs do.
        let digests: Vec<String> = reps.iter().map(|r| text(r.detail.get("digest"))).collect();
        let counts: Vec<String> = reps
            .iter()
            .map(|r| r.detail.get("counts").map_or(String::new(), Json::to_string))
            .collect();
        let mut workload_violations = 0u64;
        for r in reps.iter().chain(std::iter::once(tr)) {
            workload_violations += number(r.detail.get("check_failures")) as u64;
            for f in r.detail.get("failures").and_then(|f| f.as_arr().ok()).unwrap_or(&[]) {
                println!("CHECK FAILED: {}", text(Some(f)));
            }
        }
        if opts.seed_step == 0 {
            if digests.iter().any(|d| *d != digests[0]) {
                workload_violations += 1;
                println!("CHECK FAILED: digests differ between repetitions: {digests:?}");
            }
            if counts.iter().any(|c| *c != counts[0]) {
                workload_violations += 1;
                println!("CHECK FAILED: exact counts differ between repetitions");
            }
            if text(tr.detail.get("digest")) != digests[0] {
                workload_violations += 1;
                println!("CHECK FAILED: the traced run's untraced passes gave another digest");
            }
        }
        violated += workload_violations;
        let attempted: f64 = reps.iter().map(|r| number(r.result.get("attempted"))).sum();
        let failed: f64 = reps.iter().map(|r| number(r.result.get("failed"))).sum();
        let fail_share = if attempted > 0.0 { failed / attempted } else { 0.0 };
        println!("digest {}   fail_share {} ({failed} / {attempted})   check_failures {workload_violations}", digests[0], metrics::num(fail_share));

        doc.push_str(&format!(
            "{}\n\"{w}\":{{\"digest\":\"{}\",\"attempted\":{},\"failed\":{},\"fail_share\":{},\"check_failures\":{workload_violations},\n\"end_to_end\":{{",
            if wi > 0 { "," } else { "" },
            digests[0],
            metrics::num(attempted),
            metrics::num(failed),
            metrics::num(fail_share),
        ));
        println!(
            "{:<14} {:>6} {:>7} {:>14} {:>14} {:>14} {:>3} {:>8} {:>6}",
            "end-to-end", "unit", "better", "median", "q1", "q3", "n", "spread", "bound"
        );
        for (mi, m) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = reps.iter().map(|r| metric_value(&r.result, m.name)).collect();
            let (q1, med, q3) = quartiles(&values);
            let sp = spread(&values);
            println!(
                "{:<14} {:>6} {:>7} {:>14.6} {:>14.6} {:>14.6} {:>3} {:>7.2}% {:>5.0}%",
                m.name,
                m.unit,
                m.better,
                med,
                q1,
                q3,
                values.len(),
                sp * 100.0,
                m.bound * 100.0
            );
            let listed: Vec<String> = values.iter().map(|v| metrics::num(*v)).collect();
            doc.push_str(&format!(
                "{}\n\"{}\":{{\"unit\":\"{}\",\"better\":\"{}\",\"bound\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"spread\":{},\"values\":[{}]}}",
                if mi > 0 { "," } else { "" },
                m.name, m.unit, m.better, m.bound,
                metrics::num(med), metrics::num(q1), metrics::num(q3), values.len(), metrics::num(sp),
                listed.join(","),
            ));
        }
        doc.push_str(&format!(
            "}},\n\"counts\":{},\n\"per_layer\":{{",
            if counts[0].is_empty() { "{}" } else { &counts[0] }
        ));
        println!(
            "{:<34} {:>6} {:>7} {:>16}",
            "per-layer (one traced run)", "unit", "better", "value"
        );
        for (li, l) in metrics::per_layer().iter().enumerate() {
            let v = metric_value(&tr.result, &l.name);
            println!("{:<34} {:>6} {:>7} {:>16}", l.name, l.unit, l.better, metrics::num(v));
            doc.push_str(&format!(
                "{}\n\"{}\":{{\"value\":{},\"unit\":\"{}\",\"better\":\"{}\"}}",
                if li > 0 { "," } else { "" },
                l.name,
                metrics::num(v),
                l.unit,
                l.better
            ));
        }
        doc.push_str("}}");
    }
    doc.push_str("\n}}\n");

    let path = &opts.out;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, &doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nresults written to {}", path.display());
    println!("check_failures {violated}");
    Ok(violated)
}

/// The verdict on one metric of one workload between two result files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Pass,
    /// B's median is worse than A's by more than the bound.
    Regress,
    /// A run-to-run spread is wider than the bound: the data cannot tell.
    UnresolvedByNoise,
}

/// Apply a metric's bound to two `(median, spread)` summaries.
pub fn verdict(better: &str, bound: f64, a: (f64, f64), b: (f64, f64)) -> Verdict {
    if a.1 > bound || b.1 > bound {
        return Verdict::UnresolvedByNoise;
    }
    let worse_by = if better == "lower" { b.0 / a.0 - 1.0 } else { 1.0 - b.0 / a.0 };
    if a.0 != 0.0 && worse_by > bound {
        Verdict::Regress
    } else {
        Verdict::Pass
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `--compare A B`: per metric x workload pass / regress / unresolved by
/// noise, and exact agreement of counts and digests. Returns the number of
/// regressions plus exact-output differences.
pub fn compare(a: &Path, b: &Path) -> Result<u64, String> {
    let (da, db) = (load(a)?, load(b)?);
    let mut bad = 0u64;
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for w in &WORKLOADS {
        let wa = da.get("workloads").and_then(|x| x.get(w.name));
        let wb = db.get("workloads").and_then(|x| x.get(w.name));
        let (Some(wa), Some(wb)) = (wa, wb) else {
            return Err(format!("workload {} is missing from a result file", w.name));
        };
        for m in &END_TO_END {
            let summary = |x: &Json| {
                let e = x.get("end_to_end").and_then(|e| e.get(m.name));
                (number(e.and_then(|e| e.get("median"))), number(e.and_then(|e| e.get("spread"))))
            };
            let (sa, sb) = (summary(wa), summary(wb));
            let v = verdict(m.better, m.bound, sa, sb);
            bad += u64::from(v == Verdict::Regress);
            let change = if sa.0 != 0.0 { (sb.0 / sa.0 - 1.0) * 100.0 } else { 0.0 };
            let label = match v {
                Verdict::Pass => "pass",
                Verdict::Regress => "REGRESS",
                Verdict::UnresolvedByNoise => "unresolved-by-noise",
            };
            println!(
                "{:<13} {:<12} {:>14.6} {:>14.6} {:>+7.2}% {:>5.0}%  {label}",
                w.name,
                m.name,
                sa.0,
                sb.0,
                change,
                m.bound * 100.0
            );
        }
        for key in ["digest", "counts", "fail_share", "check_failures"] {
            let (xa, xb) = (wa.get(key).map(Json::to_string), wb.get(key).map(Json::to_string));
            let same = xa == xb;
            bad += u64::from(!same);
            println!("{:<13} {:<12} {}", w.name, key, if same { "identical" } else { "DIFFERENT" });
        }
    }
    println!("regressions and exact-output differences: {bad}");
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_apply_the_bound_in_the_right_direction() {
        let quiet = 0.01;
        assert_eq!(verdict("lower", 0.1, (1.0, quiet), (1.05, quiet)), Verdict::Pass);
        assert_eq!(verdict("lower", 0.1, (1.0, quiet), (1.2, quiet)), Verdict::Regress);
        assert_eq!(verdict("lower", 0.1, (1.0, quiet), (0.5, quiet)), Verdict::Pass);
        assert_eq!(verdict("higher", 0.1, (100.0, quiet), (95.0, quiet)), Verdict::Pass);
        assert_eq!(verdict("higher", 0.1, (100.0, quiet), (80.0, quiet)), Verdict::Regress);
        assert_eq!(verdict("higher", 0.1, (100.0, quiet), (150.0, quiet)), Verdict::Pass);
        assert_eq!(verdict("lower", 0.1, (1.0, 0.3), (1.5, quiet)), Verdict::UnresolvedByNoise);
    }
}
