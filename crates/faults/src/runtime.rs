//! The fault state machine: which windows are open and what that does to a
//! transmission, a rotation or a host.
//!
//! [`FaultRuntime`] owns everything about a running campaign that does not
//! need the fabric, the event queue or the trace: the installed windows,
//! their active flags, the lookup masks derived from them, the rotations a
//! slice-corrupted switch still owes, and the per-fault counters. The
//! engine schedules the window edges, calls the verbs below at the three
//! places a fault can bite (a port transmitting, a switch rotating, a host
//! NIC sending) and keeps only the consequences that touch its own state
//! (masked routing schedule, route invalidation, port kicks, trace records).

use crate::{FaultCounters, FaultError, FaultKind, FaultPlan, FaultReport, FaultSpec};
use openoptics_proto::{NodeId, PortId};
use openoptics_sim::hash::FxHashMap;
use openoptics_sim::SimRng;
use openoptics_sim::SimTime;

/// Runtime state of an injected fault campaign; `Default` is "no campaign".
///
/// Masks are rebuilt from the active flags on every window edge — campaigns
/// are tiny and transitions rare, so a full rebuild keeps overlapping
/// windows on one target correct without reference counting: for a key
/// claimed by several open windows, the first in campaign order owns it.
#[derive(Clone, Debug, Default)]
pub struct FaultRuntime {
    /// All injected fault windows, campaign order (stable indices).
    specs: Vec<FaultSpec>,
    active: Vec<bool>,
    /// How many `active` flags are set: the idle test of every hot-path verb.
    open: usize,
    /// `(node, port)` → fault whose window black-holes transmissions (link
    /// down / stuck OCS port).
    drop_mask: FxHashMap<(NodeId, PortId), usize>,
    /// `(node, port)` → fault for transceiver-flap corruption.
    flap_mask: FxHashMap<(NodeId, PortId), usize>,
    /// node → fault for slice-schedule corruption.
    slice_mask: FxHashMap<NodeId, usize>,
    /// node → fault for NIC pause storms.
    pause_mask: FxHashMap<NodeId, usize>,
    /// Rotations each fault's node has missed and not yet replayed.
    rotation_lag: Vec<u32>,
    per_fault: Vec<FaultCounters>,
}

impl FaultRuntime {
    /// Append `plan` to the campaign after validating it against the
    /// network's shape (`node_num` switches, `uplinks` ports each) and
    /// against `not_before` — window starts must not lie in the simulated
    /// past. Returns the campaign indices the new windows occupy, so the
    /// caller can schedule their edges.
    pub fn extend(
        &mut self,
        plan: &FaultPlan,
        node_num: u32,
        uplinks: u32,
        not_before: SimTime,
    ) -> Result<std::ops::Range<usize>, FaultError> {
        plan.validate_against(node_num, uplinks, not_before)?;
        let lo = self.specs.len();
        self.specs.extend_from_slice(plan.faults());
        self.active.resize(self.specs.len(), false);
        self.rotation_lag.resize(self.specs.len(), 0);
        self.per_fault.resize(self.specs.len(), FaultCounters::default());
        Ok(lo..self.specs.len())
    }

    /// The installed windows, campaign order (empty = no campaign).
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Whether any window is open right now.
    #[inline]
    pub fn any_active(&self) -> bool {
        self.open > 0
    }

    /// One window edge: open (`up`) or close campaign fault `idx`. Returns
    /// the fault's spec and the rotations its switch must replay to
    /// resynchronize (non-zero only when a slice-corruption window closes),
    /// or `None` when there is nothing to do — no such fault, or the edge
    /// was already applied (flipping twice equals flipping once).
    pub fn flip(&mut self, idx: usize, up: bool) -> Option<(FaultSpec, u32)> {
        let spec = *self.specs.get(idx)?;
        if self.active[idx] == up {
            return None;
        }
        self.active[idx] = up;
        let c = &mut self.per_fault[idx];
        if up {
            self.open += 1;
            c.activations += 1;
        } else {
            self.open -= 1;
        }
        if spec.kind == FaultKind::LinkDown {
            // Both edges of a link-down window are visible to the
            // controller, which recompiles routes around (or back onto) it.
            c.reroutes += 1;
        }
        let lag = if !up && spec.kind == FaultKind::SliceCorruption {
            std::mem::take(&mut self.rotation_lag[idx])
        } else {
            0
        };
        self.rebuild_masks();
        Some((spec, lag))
    }

    fn rebuild_masks(&mut self) {
        self.drop_mask.clear();
        self.flap_mask.clear();
        self.slice_mask.clear();
        self.pause_mask.clear();
        for (i, s) in self.specs.iter().enumerate() {
            if !self.active[i] {
                continue;
            }
            match s.kind {
                FaultKind::LinkDown | FaultKind::OcsPortStuck => {
                    self.drop_mask.entry((s.node, s.port)).or_insert(i);
                }
                FaultKind::TransceiverFlap { .. } => {
                    self.flap_mask.entry((s.node, s.port)).or_insert(i);
                }
                FaultKind::SliceCorruption => {
                    self.slice_mask.entry(s.node).or_insert(i);
                }
                FaultKind::NicPauseStorm => {
                    self.pause_mask.entry(s.node).or_insert(i);
                }
            }
        }
    }

    /// The `(node, port)` targets of every open link-down window, campaign
    /// order — the links routing must compile around.
    pub fn down_links(&self) -> impl Iterator<Item = (NodeId, PortId)> + '_ {
        self.specs
            .iter()
            .zip(&self.active)
            .filter(|(s, &on)| on && s.kind == FaultKind::LinkDown)
            .map(|(s, _)| (s.node, s.port))
    }

    /// A packet is about to leave `(node, port)`: does a fault destroy it?
    /// Returns the kind of the fault that ate it, already charged to that
    /// fault's counters. Drop-masked ports always lose the packet; flapping
    /// transceivers lose it with the configured probability, drawn from
    /// `rng` — and only then, so a run's RNG stream does not depend on
    /// traffic that crosses healthy or black-holed ports.
    #[inline]
    pub fn on_tx(&mut self, node: NodeId, port: PortId, rng: &mut SimRng) -> Option<FaultKind> {
        if self.open == 0 {
            return None;
        }
        if let Some(&i) = self.drop_mask.get(&(node, port)) {
            self.per_fault[i].dropped += 1;
            return Some(self.specs[i].kind);
        }
        let &i = self.flap_mask.get(&(node, port))?;
        let kind = self.specs[i].kind;
        let pct = match kind {
            FaultKind::TransceiverFlap { corrupt_pct } => u32::from(corrupt_pct),
            _ => 0,
        };
        if rng.range(0..100u32) < pct {
            self.per_fault[i].corrupted += 1;
            Some(kind)
        } else {
            None
        }
    }

    /// A host under `node` wants to transmit: if a NIC pause storm holds
    /// the node, charge the deferral and return when the storm ends.
    #[inline]
    pub fn pause_until(&mut self, node: NodeId) -> Option<SimTime> {
        if self.open == 0 {
            return None;
        }
        let &i = self.pause_mask.get(&node)?;
        self.per_fault[i].paused_tx += 1;
        Some(self.specs[i].end)
    }

    /// `node` reached a slice boundary: if its schedule is corrupted it
    /// misses the rotation (charged, and owed back through [`Self::flip`]
    /// when the window closes). Returns whether the rotation was missed.
    #[inline]
    pub fn miss_rotation(&mut self, node: NodeId) -> bool {
        if self.open == 0 {
            return false;
        }
        let Some(&i) = self.slice_mask.get(&node) else { return false };
        self.per_fault[i].missed_rotations += 1;
        self.rotation_lag[i] += 1;
        true
    }

    /// Field-wise sum of the per-fault counters — the campaign totals the
    /// telemetry mirror and [`Self::report`] both read.
    pub fn totals(&self) -> FaultCounters {
        let mut t = FaultCounters::default();
        for c in &self.per_fault {
            t.activations += c.activations;
            t.dropped += c.dropped;
            t.corrupted += c.corrupted;
            t.missed_rotations += c.missed_rotations;
            t.paused_tx += c.paused_tx;
            t.reroutes += c.reroutes;
        }
        t
    }

    /// The campaign's results. `delivered` and `retransmitted` are the
    /// run-wide packet totals, which only the engine knows.
    pub fn report(&self, delivered: u64, retransmitted: u64) -> FaultReport {
        let t = self.totals();
        FaultReport {
            delivered,
            dropped: t.dropped,
            corrupted: t.corrupted,
            retransmitted,
            rerouted: t.reroutes,
            missed_rotations: t.missed_rotations,
            paused_tx: t.paused_tx,
            per_fault: self.per_fault.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: NodeId = NodeId(1);
    const P: PortId = PortId(0);
    type Outcome = Result<(), FaultError>;

    /// A runtime for a 4-switch x 2-port network running `plan`.
    fn runtime(plan: crate::FaultPlanBuilder) -> Result<FaultRuntime, FaultError> {
        let mut f = FaultRuntime::default();
        let plan = plan.build()?;
        assert_eq!(f.extend(&plan, 4, 2, SimTime::ZERO)?, 0..plan.len());
        Ok(f)
    }

    #[test]
    fn first_open_window_in_campaign_order_owns_a_contested_port() -> Outcome {
        let mut f =
            runtime(FaultPlan::builder().ocs_port_stuck(N, P, 0, 10).link_down(N, P, 0, 20))?;
        let mut rng = SimRng::new(1);
        assert!(!f.any_active());
        assert_eq!(f.on_tx(N, P, &mut rng), None);
        // The later window opens first, then the earlier one claims the key.
        f.flip(1, true);
        assert_eq!(f.on_tx(N, P, &mut rng), Some(FaultKind::LinkDown));
        f.flip(0, true);
        assert_eq!(f.on_tx(N, P, &mut rng), Some(FaultKind::OcsPortStuck));
        assert_eq!(f.on_tx(N, PortId(1), &mut rng), None, "other ports stay healthy");
        // ... and hands it back when it clears.
        f.flip(0, false);
        assert_eq!(f.on_tx(N, P, &mut rng), Some(FaultKind::LinkDown));
        f.flip(1, false);
        assert_eq!(f.on_tx(N, P, &mut rng), None);
        let dropped: Vec<u64> = f.report(0, 0).per_fault.iter().map(|c| c.dropped).collect();
        assert_eq!(dropped, [1, 2]);
        assert!(!f.any_active());
        Ok(())
    }

    #[test]
    fn the_rng_is_drawn_only_for_a_flapping_port_that_is_not_dark() -> Outcome {
        let mut f =
            runtime(FaultPlan::builder().transceiver_flap(N, P, 50, 0, 10).link_down(N, P, 0, 10))?;
        let mut rng = SimRng::new(9);
        // No window open, a healthy port, a black-holed flapping port: no draw.
        assert_eq!(f.on_tx(N, P, &mut rng), None);
        f.flip(0, true);
        assert_eq!(f.on_tx(N, PortId(1), &mut rng), None);
        f.flip(1, true);
        assert_eq!(f.on_tx(N, P, &mut rng), Some(FaultKind::LinkDown));
        assert_eq!(rng.clone().u64(), SimRng::new(9).u64(), "still untouched");
        // Flap alone: exactly one draw per transmission, corrupted or not.
        f.flip(1, false);
        let mut expect = SimRng::new(9);
        let (mut corrupted, mut passed) = (0, 0);
        for _ in 0..64 {
            let lost = expect.range(0..100u32) < 50;
            match f.on_tx(N, P, &mut rng) {
                Some(kind) => {
                    assert!(lost);
                    assert_eq!(kind, FaultKind::TransceiverFlap { corrupt_pct: 50 });
                    corrupted += 1;
                }
                None => {
                    assert!(!lost);
                    passed += 1;
                }
            }
        }
        assert!(corrupted > 0 && passed > 0, "{corrupted} corrupted, {passed} passed");
        assert_eq!(rng.u64(), expect.u64(), "one draw per flap check, none elsewhere");
        assert_eq!(f.totals().corrupted, corrupted);
        Ok(())
    }

    #[test]
    fn missed_rotations_accumulate_and_are_handed_back_once() -> Outcome {
        let mut f = runtime(FaultPlan::builder().slice_corruption(N, 0, 10))?;
        assert!(!f.miss_rotation(N), "a closed window misses nothing");
        assert_eq!(f.flip(0, true).map(|(_, lag)| lag), Some(0));
        for _ in 0..3 {
            assert!(f.miss_rotation(N));
            assert!(!f.miss_rotation(NodeId(2)), "other switches keep rotating");
        }
        assert_eq!(f.flip(0, false).map(|(_, lag)| lag), Some(3));
        assert!(!f.miss_rotation(N));
        // Re-arming the window starts from a clean slate: the debt was paid.
        f.flip(0, true);
        assert!(f.miss_rotation(N));
        assert_eq!(f.flip(0, false).map(|(_, lag)| lag), Some(1));
        assert_eq!(f.totals().missed_rotations, 4);
        assert_eq!(f.totals().activations, 2);
        Ok(())
    }

    #[test]
    fn flipping_an_edge_twice_equals_flipping_it_once() -> Outcome {
        let mut f = runtime(FaultPlan::builder().link_down(N, P, 0, 10))?;
        let spec = f.specs()[0];
        assert_eq!(f.flip(0, false), None, "closing a closed window is a no-op");
        assert_eq!(f.flip(7, true), None, "no such fault");
        assert_eq!(f.flip(0, true), Some((spec, 0)));
        assert_eq!(f.flip(0, true), None);
        assert_eq!(f.down_links().collect::<Vec<_>>(), [(N, P)]);
        assert_eq!(f.flip(0, false), Some((spec, 0)));
        assert_eq!(f.flip(0, false), None);
        assert_eq!(f.down_links().count(), 0);
        let c = f.totals();
        assert_eq!((c.activations, c.reroutes), (1, 2), "one activation, one reroute per edge");
        assert!(!f.any_active());
        Ok(())
    }

    #[test]
    fn totals_are_the_field_wise_sum_of_the_per_fault_counters() -> Outcome {
        let mut f = runtime(
            FaultPlan::builder()
                .link_down(N, P, 0, 10)
                .transceiver_flap(NodeId(2), P, 100, 0, 10)
                .slice_corruption(NodeId(3), 0, 10)
                .nic_pause_storm(NodeId(0), 0, 30),
        )?;
        let mut rng = SimRng::new(3);
        for i in 0..4 {
            f.flip(i, true);
        }
        for _ in 0..2 {
            f.on_tx(N, P, &mut rng);
            f.on_tx(NodeId(2), P, &mut rng);
            f.on_tx(NodeId(2), P, &mut rng);
            f.miss_rotation(NodeId(3));
        }
        assert_eq!(f.pause_until(NodeId(0)), Some(SimTime::from_ns(30)));
        assert_eq!(f.pause_until(N), None);
        let report = f.report(11, 5);
        let mut sum = [0u64; 6];
        for c in &report.per_fault {
            for (s, (_, v)) in sum.iter_mut().zip(c.counter_pairs()) {
                *s += v;
            }
        }
        assert_eq!(f.totals().counter_pairs().map(|(_, v)| v), sum);
        assert_eq!(sum, [4, 2, 4, 2, 1, 1]);
        assert_eq!(
            (report.delivered, report.retransmitted, report.dropped, report.corrupted),
            (11, 5, 2, 4)
        );
        assert_eq!((report.rerouted, report.missed_rotations, report.paused_tx), (1, 2, 1));
        Ok(())
    }
}
