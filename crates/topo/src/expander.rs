//! Opera-style expander schedules.
//!
//! Opera's key idea: with `u` uplinks per ToR, make *every slice* a
//! connected expander graph so latency-sensitive traffic can route
//! immediately over (possibly longer) always-available paths, while bulk
//! traffic still enjoys the direct circuits rotating underneath (§2.1,
//! §6 Case I). The schedule must remain a valid per-port matching per
//! slice and still diversify connectivity across the cycle.
//!
//! Construction: start from the phase-shifted round-robin union (already a
//! `u`-regular graph per slice) and verify each slice is connected; where a
//! slice fails the check, re-shift that slice's uplink offsets until it
//! passes. For `u >= 2` and the offsets used here the base construction is
//! connected in practice; the verification loop makes the guarantee
//! unconditional.

use crate::round_robin::{collect, OneFactorization};
use openoptics_fabric::{Circuit, CircuitSink, OpticalSchedule};
use openoptics_proto::{NodeId, PortId};
use openoptics_sim::idx_u32;
use openoptics_sim::SliceConfig;

/// Build an Opera schedule: `u`-regular, *connected* topology in every
/// slice. Returns circuits and slice count: what [`opera_schedule_into`]
/// writes, collected.
///
/// Panics if `uplinks < 2` (a 1-regular graph — a matching — can never be
/// connected for `n > 2`; Opera fundamentally needs multiple uplinks).
pub fn opera_schedule(n: u32, uplinks: u16) -> (Vec<Circuit>, u32) {
    collect(|sink| opera_schedule_into(n, uplinks, sink))
}

/// [`opera_schedule`] written into `sink`, one connected slice at a time.
pub fn opera_schedule_into<S: CircuitSink>(
    n: u32,
    uplinks: u16,
    sink: &mut S,
) -> Result<(), S::Error> {
    assert!(
        uplinks >= 2 || n <= 2,
        "Opera needs >= 2 uplinks for per-slice connectivity (got {uplinks})"
    );
    let rounds = OneFactorization::new(n);
    let num_slices = idx_u32(rounds.len());
    let r = rounds.len();

    sink.cycle(num_slices)?;
    for ts in 0..r {
        // Try increasing extra rotation until the slice graph is connected.
        let mut chosen: Option<Vec<Circuit>> = None;
        'attempt: for extra in 0..r {
            let mut slice_circuits = Vec::new();
            for j in 0..uplinks {
                // Distinct, co-prime-ish offsets per uplink; `extra` perturbs
                // them when the default fails connectivity.
                let shift = (j as usize * r / uplinks as usize + j as usize * extra) % r;
                let round = &rounds[(ts + shift + if j > 0 { extra } else { 0 }) % r];
                for &(a, b) in round {
                    slice_circuits.push(Circuit::in_slice(
                        NodeId(a),
                        PortId(j),
                        NodeId(b),
                        PortId(j),
                        idx_u32(ts),
                    ));
                }
            }
            if slice_connected(&slice_circuits, n, uplinks) {
                chosen = Some(slice_circuits);
                break 'attempt;
            }
        }
        #[expect(clippy::panic, reason = "documented: no connected slice means no Opera schedule")]
        let chosen = chosen.unwrap_or_else(|| {
            panic!("no connected {uplinks}-regular slice found for n={n}, ts={ts}")
        });
        for c in chosen {
            sink.circuit(c)?;
        }
    }
    Ok(())
}

/// Whether one slice's circuits light without a port conflict and connect
/// every node, checked as the single slice of a one-slice table.
fn slice_connected(circuits: &[Circuit], n: u32, uplinks: u16) -> bool {
    if n <= 1 {
        return true;
    }
    // Duplicate pairs across uplinks in the same slice are port conflicts
    // only if the same port is reused; different ports carrying the same
    // pair are legal but waste diversity — the schedule builder accepts
    // them. Light with the real validator to reject port conflicts.
    let mut s = OpticalSchedule::empty(SliceConfig::new(1_000, 1, 100), n, uplinks);
    circuits.iter().all(|&c| s.light(Circuit { slice: None, ..c }).is_ok())
        && s.slice_is_connected(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule_of(n: u32, u: u16) -> OpticalSchedule {
        let (circuits, slices) = opera_schedule(n, u);
        let cfg = SliceConfig::new(100_000, slices, 1_000);
        OpticalSchedule::build(cfg, n, u, &circuits).expect("opera schedule feasible")
    }

    #[test]
    fn every_slice_connected() {
        for (n, u) in [(8u32, 2u16), (8, 4), (12, 3), (16, 2)] {
            let s = schedule_of(n, u);
            for ts in 0..s.slice_config().num_slices {
                assert!(s.slice_is_connected(ts), "n={n} u={u} slice {ts} disconnected");
            }
        }
    }

    #[test]
    fn cycle_still_covers_all_pairs() {
        let s = schedule_of(8, 2);
        assert!(s.cycle_covers_all_pairs());
    }

    #[test]
    fn regular_degree_per_slice() {
        let s = schedule_of(12, 3);
        for ts in 0..s.slice_config().num_slices {
            for node in 0..12 {
                assert_eq!(s.neighbors(NodeId(node), ts).count(), 3);
            }
        }
    }

    #[test]
    fn rejects_single_uplink() {
        assert!(std::panic::catch_unwind(|| opera_schedule(8, 1)).is_err());
    }

    #[test]
    fn opera_108_tor_deploys() {
        // The benchmark topology of §7: 108 ToRs, 6 optical uplinks.
        let s = schedule_of(108, 6);
        assert_eq!(s.slice_config().num_slices, 107);
        assert!(s.slice_is_connected(0));
    }
}
