//! §7 — minimum time-slice derivation.
//!
//! The guardband must cover the sum of (1) the queue-rotation variance
//! between the most- and least-delayed packets (Fig. 11: 34 ns), (2) the
//! EQO estimation error expressed as line-rate time (725 B → 58 ns at
//! 100 Gbps), and (3) twice the clock-sync error (2 × 28 = 56 ns). With
//! headroom that rounds to a 200 ns guardband, and the ≥90% duty-cycle rule
//! (slice ≥ 10 × guardband) yields the 2 µs record minimum slice.

use crate::fig12;
use openoptics_fabric::ClockSync;
use openoptics_sim::Bandwidth;
use openoptics_switch::PipelineModel;

/// The derived budget.
#[derive(Clone, Debug)]
pub(crate) struct MinSlice {
    /// Rotation variance, ns (paper: 34).
    pub rotation_variance_ns: u64,
    /// Measured EQO error at 50 ns interval, bytes (paper: 725).
    pub eqo_error_bytes: u64,
    /// The EQO error as time at 100 Gbps, ns (paper: 58).
    pub eqo_error_ns: u64,
    /// Clock-sync contribution, ns (paper: 56).
    pub sync_ns: u64,
    /// Sum of components, ns (paper: 148).
    pub total_ns: u64,
    /// Chosen guardband with headroom, ns (paper: 200).
    pub guardband_ns: u64,
    /// Minimum slice at ≥90% duty cycle, ns (paper: 2000).
    pub min_slice_ns: u64,
}

/// Derive the budget from the component models.
pub(crate) fn run() -> MinSlice {
    let rotation = PipelineModel::default().rotation_variance_ns(1500);
    let eqo =
        fig12::run(4_000).into_iter().find(|r| r.interval_ns == 50).expect("50 ns row present");
    let eqo_bytes = eqo.max_error_bytes;
    let eqo_ns = Bandwidth::gbps(100).tx_time_ns(eqo_bytes);
    let sync = 2 * ClockSync::PAPER_MAX_ERR_NS;
    let total = rotation + eqo_ns + sync;
    // Round up to the next 50 ns with >=25% headroom, min 200.
    #[expect(clippy::cast_possible_truncation, reason = "a float-to-int `as` saturates")]
    let guard = (((total as f64 * 1.25) / 50.0).ceil() as u64 * 50).max(200);
    MinSlice {
        rotation_variance_ns: rotation,
        eqo_error_bytes: eqo_bytes,
        eqo_error_ns: eqo_ns,
        sync_ns: sync,
        total_ns: total,
        guardband_ns: guard,
        min_slice_ns: guard * 10,
    }
}

/// Render the derivation.
pub(crate) fn render(m: &MinSlice) -> String {
    format!(
        "guardband budget:\n\
         \u{20}  queue-rotation variance : {} ns   (paper: 34 ns)\n\
         \u{20}  EQO error {} B @ 100G    : {} ns   (paper: 725 B -> 58 ns)\n\
         \u{20}  clock sync 2 x 28 ns    : {} ns   (paper: 56 ns)\n\
         \u{20}  total                   : {} ns   (paper: 148 ns)\n\
         guardband (with headroom)  : {} ns   (paper: 200 ns)\n\
         minimum slice (>=90% duty) : {} ns   (paper: 2 us)\n",
        m.rotation_variance_ns,
        m.eqo_error_bytes,
        m.eqo_error_ns,
        m.sync_ns,
        m.total_ns,
        m.guardband_ns,
        m.min_slice_ns
    )
}
