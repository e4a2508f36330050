//! Subscribe to a running simulation and print the frame stream.
//!
//! Loads the SLO-tagged live-sampling scenario, subscribes, then steps
//! sim time in eight increments — each step's `sample`/`slo`/`flight`
//! delta frames stream before the response on the same turn. Finishes
//! with the per-service SLO report. Everything printed is sim-time
//! stamped, so the full stdout is byte-identical from run to run — CI
//! runs it in the plain and strict-invariants builds and compares.
//!
//! Run with: `cargo run --example subscribe_stream`

use openoptics::ctl::{ControlPlane, Subscriptions};

/// The scenario document, embedded so the example is self-contained.
const SCENARIO: &str = include_str!("scenarios/slo_live.json");

fn main() {
    let mut cp = ControlPlane::new();
    let mut subs = Subscriptions::new();

    let load = cp.handle_request(
        &format!(r#"{{"id":1,"method":"load","params":{{"name":"live","scenario":{SCENARIO}}}}}"#),
        &mut subs,
    );
    assert!(load.last().expect("load responds").contains(r#""result""#), "{load:?}");

    let sub =
        cp.handle_request(r#"{"id":2,"method":"subscribe","params":{"name":"live"}}"#, &mut subs);
    assert!(sub.last().expect("subscribe responds").contains(r#""subscribed":true"#), "{sub:?}");

    // Step to the scenario's stop time in eight slices; every line — the
    // streamed frames and the id-matched response — goes to stdout.
    for step in 1..=8u64 {
        let req = format!(
            r#"{{"id":{},"method":"run_until","params":{{"name":"live","ns":{}}}}}"#,
            step + 2,
            step * 500_000,
        );
        for line in cp.handle_request(&req, &mut subs) {
            println!("{line}");
        }
    }

    for line in cp.handle_request(
        r#"{"id":11,"method":"export","params":{"name":"live","what":"slo"}}"#,
        &mut subs,
    ) {
        println!("{line}");
    }
}
