//! The parallel experiment runner must be invisible in the output: the same
//! experiment rendered with 1 worker and with 4 workers must be
//! byte-identical (results are collected in original index order, and every
//! simulation point owns its RNG). This is the `--jobs 1` vs `--jobs 4`
//! acceptance check from the issue, run in-process against fig8a --quick.
//!
//! Single test function: `set_jobs` is a process-global knob, so the
//! serial and parallel runs must happen sequentially in one test.

use openoptics_bench as x;

#[test]
fn fig8a_quick_output_identical_across_worker_counts() {
    x::set_jobs(1);
    x::take_metrics();
    let serial_rows = x::run_mice(8);
    let serial = x::render_mice(&serial_rows);
    let serial_events = x::take_events();
    let serial_metrics = x::take_metrics();

    x::set_jobs(4);
    let parallel_rows = x::run_mice(8);
    let parallel = x::render_mice(&parallel_rows);
    let parallel_events = x::take_events();
    let parallel_metrics = x::take_metrics();

    assert_eq!(serial, parallel, "rendered fig8a output differs between --jobs 1 and --jobs 4");
    assert_eq!(
        serial_events, parallel_events,
        "event counts differ between worker counts: the simulations themselves diverged"
    );
    assert!(serial_events > 0, "instrumentation recorded no events");

    // Merged telemetry totals are commutative sums, so they must also come
    // out byte-for-byte identical (BTreeMap iteration order is key order).
    let render = |m: &std::collections::BTreeMap<String, u64>| {
        m.iter().map(|(k, v)| format!("{k}={v}\n")).collect::<String>()
    };
    assert_eq!(
        render(&serial_metrics),
        render(&parallel_metrics),
        "merged telemetry totals differ between --jobs 1 and --jobs 4"
    );
    assert!(
        serial_metrics.get("engine.delivered_packets").copied().unwrap_or(0) > 0,
        "telemetry recorded no delivered packets"
    );
}
