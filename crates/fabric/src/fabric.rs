//! The runtime optical fabric: transit decisions and reconfiguration.
//!
//! [`Fabric`] answers one question for the data plane — *if node N transmits
//! on optical port p at instant t, where does the light come out?* — and one
//! for the control plane — *replace the schedule, honoring the device's
//! reconfiguration delay*. While the device moves, the whole fabric is dark
//! ([`Transit::Reconfiguring`]); the new schedule becomes the active one on
//! the first [`Fabric::advance`] at or after the end of the move, and that
//! call says so — the one moment everything derived from the schedule has
//! to be refreshed. During the per-slice guardband of a TO schedule
//! everything is dark too ([`Transit::Guardband`]), matching the emulated
//! fabric's behavior of dropping packets that match no lookup entry (§5.3).

use crate::schedule::OpticalSchedule;
use openoptics_proto::{NodeId, PortId};
use openoptics_sim::time::SimTime;

/// How the fabric was realized — affects transit latency only (Fig. 13
/// shows the emulated fabric closely tracks, and slightly beats, real OCS
/// latency because the switch runs cut-through).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FabricProfile {
    /// A real OCS: pure waveguide; only fiber propagation delay applies.
    RealOcs {
        /// One-way propagation delay across the fabric, ns.
        propagation_ns: u64,
    },
    /// The Tofino2-emulated fabric (§5.3): propagation plus the emulating
    /// switch's cut-through forwarding latency.
    Emulated {
        /// One-way propagation delay across the fabric, ns.
        propagation_ns: u64,
        /// Cut-through forwarding latency of the emulating switch, ns.
        cut_through_ns: u64,
    },
}

impl FabricProfile {
    /// Total one-way transit latency, ns.
    pub fn latency_ns(&self) -> u64 {
        match *self {
            FabricProfile::RealOcs { propagation_ns } => propagation_ns,
            FabricProfile::Emulated { propagation_ns, cut_through_ns } => {
                propagation_ns + cut_through_ns
            }
        }
    }
}

/// Outcome of injecting light into the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transit {
    /// Light lands on `(node, port)` after `latency_ns`.
    Delivered {
        /// Receiving endpoint node.
        node: NodeId,
        /// Receiving port on that node.
        port: PortId,
        /// One-way fabric latency, ns.
        latency_ns: u64,
    },
    /// The port is not part of any circuit in the active slice; light is lost.
    NoCircuit,
    /// The instant falls in the slice guardband; circuits are mid-flight.
    Guardband,
    /// A reconfiguration is in progress: the device is moving and the whole
    /// fabric is dark, whether or not this particular circuit changes.
    Reconfiguring,
}

/// A pending TA schedule replacement.
#[derive(Clone, Debug)]
struct PendingReconfig {
    /// When the controller issued the reconfiguration.
    started: SimTime,
    /// When the new schedule is fully applied.
    done: SimTime,
    /// The schedule being installed.
    next: OpticalSchedule,
}

/// The runtime optical fabric.
#[derive(Clone, Debug)]
pub struct Fabric {
    schedule: OpticalSchedule,
    profile: FabricProfile,
    pending: Option<PendingReconfig>,
    /// Reconfiguration delay of the underlying OCS device, ns.
    reconfig_ns: u64,
    /// Physical dead window at the start of each slice while the device
    /// re-steers, ns. This is the *hardware* portion of the guardband; the
    /// rest of the guardband is system hold-off (sync error, rotation
    /// variance) enforced by the endpoints, not the fabric.
    dead_ns: u64,
    /// Telemetry: packets lost to guardband / no-circuit / reconfiguration.
    pub lost_guardband: u64,
    /// Packets lost because the port had no circuit in the active slice.
    pub lost_no_circuit: u64,
    /// Packets lost during a TA reconfiguration window.
    pub lost_reconfig: u64,
    /// Packets delivered.
    pub delivered: u64,
}

impl Fabric {
    /// A fabric running `schedule` on a device with the given profile and
    /// reconfiguration delay.
    pub fn new(schedule: OpticalSchedule, profile: FabricProfile, reconfig_ns: u64) -> Self {
        let dead_ns = schedule.slice_config().guard_ns.min(100);
        Fabric {
            schedule,
            profile,
            pending: None,
            reconfig_ns,
            dead_ns,
            lost_guardband: 0,
            lost_no_circuit: 0,
            lost_reconfig: 0,
            delivered: 0,
        }
    }

    /// The active schedule: the one light travels through, and the one a
    /// pending replacement turns into only inside [`Fabric::advance`].
    pub fn schedule(&self) -> &OpticalSchedule {
        &self.schedule
    }

    /// Whether a deployed schedule is still moving in: issued by
    /// [`Fabric::reconfigure`] and not yet made active by [`Fabric::advance`].
    pub fn is_moving(&self) -> bool {
        self.pending.is_some()
    }

    /// Bring the fabric to instant `now`: a pending schedule whose move has
    /// finished becomes the active one. Returns `true` on exactly the one
    /// call where the active schedule *changed*, so the caller can refresh
    /// whatever it derived from the old one; a finished move to the very
    /// schedule that was already active leaves nothing stale and reports
    /// `false`. Nothing else promotes a schedule.
    #[inline]
    pub fn advance(&mut self, now: SimTime) -> bool {
        match &self.pending {
            Some(p) if now >= p.done => self.promote(),
            _ => false,
        }
    }

    #[cold]
    fn promote(&mut self) -> bool {
        let Some(p) = self.pending.take() else { return false };
        let changed = p.next != self.schedule;
        self.schedule = p.next;
        changed
    }

    /// Begin replacing the schedule (TA workflow). The swap completes after
    /// the device's reconfiguration delay; until then, transit through the
    /// fabric reports [`Transit::Reconfiguring`]. A reconfiguration issued
    /// while another is pending replaces it (last write wins), with the
    /// clock restarting — matching an OCS that must re-steer. Call
    /// [`Fabric::advance`] first if an earlier move may have finished.
    pub fn reconfigure(&mut self, next: OpticalSchedule, now: SimTime) -> SimTime {
        let done = now + self.reconfig_ns;
        self.pending = Some(PendingReconfig { started: now, done, next });
        done
    }

    /// Override the per-slice physical dead window (defaults to
    /// `min(guardband, 100 ns)` — an AWGR-class device; set it to the OCS's
    /// actual reconfiguration time for slower technologies).
    pub fn set_dead_window_ns(&mut self, dead_ns: u64) {
        self.dead_ns = dead_ns;
    }

    /// Whether the device is mid-move at `t`.
    fn reconfiguring_at(&self, t: SimTime) -> bool {
        self.pending.as_ref().is_some_and(|p| t >= p.started && t < p.done)
    }

    /// Inject light on `(node, port)` at instant `t`.
    ///
    /// `t` is the instant the *head* of the packet reaches the fabric. The
    /// caller is responsible for ensuring the tail also fits in the slice —
    /// the calendar-queue system guarantees that by construction (§5.1), so
    /// the fabric checks only the head against the guardband. The active
    /// schedule is whatever the last [`Fabric::advance`] left.
    pub fn transit(&mut self, node: NodeId, port: PortId, t: SimTime) -> Transit {
        if self.reconfiguring_at(t) {
            self.lost_reconfig += 1;
            return Transit::Reconfiguring;
        }
        let cfg = self.schedule.slice_config();
        if cfg.num_slices > 1 && cfg.offset_in_slice(t) < self.dead_ns {
            self.lost_guardband += 1;
            return Transit::Guardband;
        }
        match self.schedule.peer(node, port, cfg.slice_at(t)) {
            Some((peer, peer_port)) => {
                self.delivered += 1;
                Transit::Delivered {
                    node: peer,
                    port: peer_port,
                    latency_ns: self.profile.latency_ns(),
                }
            }
            None => {
                self.lost_no_circuit += 1;
                Transit::NoCircuit
            }
        }
    }

    /// Total packets lost in the fabric, all causes.
    pub fn total_lost(&self) -> u64 {
        self.lost_guardband + self.lost_no_circuit + self.lost_reconfig
    }

    /// Delivery/loss counters as `(metric name, value)` pairs, in a fixed
    /// order, for telemetry mirroring.
    pub fn counter_pairs(&self) -> [(&'static str, u64); 4] {
        [
            ("fabric.delivered", self.delivered),
            ("fabric.lost_guardband", self.lost_guardband),
            ("fabric.lost_no_circuit", self.lost_no_circuit),
            ("fabric.lost_reconfig", self.lost_reconfig),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use openoptics_sim::time::SliceConfig;

    fn rr2() -> OpticalSchedule {
        // 2 nodes, 1 uplink, 2 slices: connected in slice 0 only.
        let cfg = SliceConfig::new(1_000, 2, 100);
        let cs = vec![Circuit::in_slice(NodeId(0), PortId(0), NodeId(1), PortId(0), 0)];
        OpticalSchedule::build(cfg, 2, 1, &cs).unwrap()
    }

    #[test]
    fn delivers_when_circuit_up() {
        let mut f = Fabric::new(rr2(), FabricProfile::RealOcs { propagation_ns: 50 }, 0);
        let tr = f.transit(NodeId(0), PortId(0), SimTime::from_ns(500));
        assert_eq!(tr, Transit::Delivered { node: NodeId(1), port: PortId(0), latency_ns: 50 });
        assert_eq!(f.delivered, 1);
    }

    #[test]
    fn drops_in_guardband() {
        let mut f = Fabric::new(rr2(), FabricProfile::RealOcs { propagation_ns: 50 }, 0);
        assert_eq!(f.transit(NodeId(0), PortId(0), SimTime::from_ns(50)), Transit::Guardband);
        assert_eq!(f.lost_guardband, 1);
    }

    #[test]
    fn drops_when_no_circuit() {
        let mut f = Fabric::new(rr2(), FabricProfile::RealOcs { propagation_ns: 50 }, 0);
        // Slice 1 has no circuits.
        assert_eq!(f.transit(NodeId(0), PortId(0), SimTime::from_ns(1_500)), Transit::NoCircuit);
        assert_eq!(f.lost_no_circuit, 1);
    }

    #[test]
    fn emulated_adds_cut_through_latency() {
        let p = FabricProfile::Emulated { propagation_ns: 50, cut_through_ns: 400 };
        assert_eq!(p.latency_ns(), 450);
        let mut f = Fabric::new(rr2(), p, 0);
        match f.transit(NodeId(0), PortId(0), SimTime::from_ns(500)) {
            Transit::Delivered { latency_ns, .. } => assert_eq!(latency_ns, 450),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reconfiguration_window_darkens_then_swaps() {
        let cfg = SliceConfig::new(1_000_000, 1, 100);
        let s0 = OpticalSchedule::build(
            cfg,
            3,
            1,
            &[Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0))],
        )
        .unwrap();
        let s1 = OpticalSchedule::build(
            cfg,
            3,
            1,
            &[Circuit::held(NodeId(0), PortId(0), NodeId(2), PortId(0))],
        )
        .unwrap();
        let mut f = Fabric::new(s0, FabricProfile::RealOcs { propagation_ns: 50 }, 25_000);

        // Before reconfig: reaches N1 (offset past any guardband concerns;
        // single-slice schedules have no guardband).
        match f.transit(NodeId(0), PortId(0), SimTime::from_ns(200)) {
            Transit::Delivered { node, .. } => assert_eq!(node, NodeId(1)),
            other => panic!("unexpected {other:?}"),
        }

        let done = f.reconfigure(s1, SimTime::from_ns(1_000));
        assert_eq!(done, SimTime::from_ns(26_000));
        // Mid-reconfig: dark, and the old schedule is still the active one.
        assert!(!f.advance(SimTime::from_ns(10_000)));
        assert_eq!(
            f.transit(NodeId(0), PortId(0), SimTime::from_ns(10_000)),
            Transit::Reconfiguring
        );
        assert_eq!(f.schedule().port_to(NodeId(0), NodeId(1), 0), Some(PortId(0)));
        assert!(!f.advance(SimTime::from_ns(25_999)));
        // The first call at or after `done` swaps, and is the only one to say so.
        assert!(f.advance(done));
        assert!(!f.advance(done));
        assert!(!f.advance(SimTime::from_ns(30_000)));
        // After: new schedule reaches N2.
        match f.transit(NodeId(0), PortId(0), SimTime::from_ns(30_000)) {
            Transit::Delivered { node, .. } => assert_eq!(node, NodeId(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(f.total_lost(), 1);
        // A move to the schedule already active darkens the fabric all the
        // same, but lands without anything having changed.
        let same = f.schedule().clone();
        let done = f.reconfigure(same, SimTime::from_ns(40_000));
        let mid = SimTime::from_ns(50_000);
        assert_eq!(f.transit(NodeId(0), PortId(0), mid), Transit::Reconfiguring);
        assert!(!f.advance(done));
        assert!(matches!(f.transit(NodeId(0), PortId(0), done), Transit::Delivered { .. }));
    }

    #[test]
    fn single_slice_schedule_has_no_guardband_drops() {
        let cfg = SliceConfig::new(1_000, 1, 100);
        let s = OpticalSchedule::build(
            cfg,
            2,
            1,
            &[Circuit::held(NodeId(0), PortId(0), NodeId(1), PortId(0))],
        )
        .unwrap();
        let mut f = Fabric::new(s, FabricProfile::RealOcs { propagation_ns: 10 }, 0);
        // t=0 would be "in guardband" for a rotating schedule, but a static
        // (1-slice) fabric never cycles.
        let out = f.transit(NodeId(0), PortId(0), SimTime::ZERO);
        assert!(matches!(out, Transit::Delivered { .. }), "{out:?}");
    }
}
