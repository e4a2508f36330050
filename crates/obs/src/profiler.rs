//! Sim-time (and optional wall-clock) engine profiler.
//!
//! Attribution model: the engine is a single-threaded event interpreter,
//! so every handled event belongs to exactly one *phase* (one per event
//! kind, plus nested sub-phases for rotation work, EQO ticks, port
//! drains, and fault runtime). Events are instantaneous in sim time, so
//! sim-time attribution is *gap based*: the simulated time that elapses
//! between one event and the next is charged to the earlier event's phase
//! — "the simulation advanced this far while X was the latest activity".
//! Event counts are exact.
//!
//! Wall-clock mode is opt-in via an injected clock closure (the simulator
//! itself never reads host time — clippy's `disallowed_methods`): with a
//! clock installed the profiler also measures real nanoseconds per phase,
//! inclusive and exclusive of nested sub-phases. Wall numbers are for the
//! bench binary's self-profiling only and never appear in deterministic
//! exports.

use std::cell::RefCell;

use openoptics_sim::SimTime;
use openoptics_telemetry::{Labels, MirrorPass};

/// Engine phase charged for an event or a nested piece of work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Host NIC transmission opportunity (`Event::HostTx`).
    HostTx,
    /// Packet arrival at a ToR (`Event::TorIngress`).
    TorIngress,
    /// Delivery to a host (`Event::HostRx`).
    HostRx,
    /// Calendar-queue rotation boundary (`Event::Rotate`).
    Rotate,
    /// Optical port free / transmit attempt (`Event::PortFree`).
    PortFree,
    /// Electrical uplink free (`Event::ElecFree`).
    ElecFree,
    /// Host downlink free (`Event::DownlinkFree`).
    DownlinkFree,
    /// The buffer-offload recall sweep, gone: a parked packet's return is
    /// posted when it parks, so no event is charged here. Kept while the
    /// frozen benchmark lists its name (DESIGN.md "Reserved names").
    OffloadRecall,
    /// Offloaded packet reinjection (`Event::Reinject`).
    Reinject,
    /// Control-message delivery to a host (`Event::HostControl`).
    HostControl,
    /// Timer expiry (`Event::Timer`).
    Timer,
    /// Sub-phase of [`Phase::Rotate`]: the actual queue rotation.
    Rotation,
    /// Sub-phase of [`Phase::PortFree`]: counts drain attempts, exactly as
    /// [`Phase::Drain`] does. The name predates the rule that the EQO
    /// catches up where it is read (admission and rotation, on the engine
    /// clock), not in the drain; the phase keeps its place because exports
    /// index phases by position.
    EqoTick,
    /// Sub-phase of [`Phase::PortFree`]: head-of-queue drain attempt.
    Drain,
    /// Fault-injection runtime: window transitions and per-packet checks.
    FaultRuntime,
}

/// Number of distinct [`Phase`] values.
pub const PHASE_COUNT: usize = 15;

/// Every phase, in display order.
pub const PHASES: [Phase; PHASE_COUNT] = [
    Phase::HostTx,
    Phase::TorIngress,
    Phase::HostRx,
    Phase::Rotate,
    Phase::PortFree,
    Phase::ElecFree,
    Phase::DownlinkFree,
    Phase::OffloadRecall,
    Phase::Reinject,
    Phase::HostControl,
    Phase::Timer,
    Phase::Rotation,
    Phase::EqoTick,
    Phase::Drain,
    Phase::FaultRuntime,
];

impl Phase {
    fn index(self) -> usize {
        match self {
            Phase::HostTx => 0,
            Phase::TorIngress => 1,
            Phase::HostRx => 2,
            Phase::Rotate => 3,
            Phase::PortFree => 4,
            Phase::ElecFree => 5,
            Phase::DownlinkFree => 6,
            Phase::OffloadRecall => 7,
            Phase::Reinject => 8,
            Phase::HostControl => 9,
            Phase::Timer => 10,
            Phase::Rotation => 11,
            Phase::EqoTick => 12,
            Phase::Drain => 13,
            Phase::FaultRuntime => 14,
        }
    }

    /// `component.phase` display name (also the mirrored counter name).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Phase::HostTx => "host.tx",
            Phase::TorIngress => "tor.ingress",
            Phase::HostRx => "host.rx",
            Phase::Rotate => "tor.rotate",
            Phase::PortFree => "tor.port_free",
            Phase::ElecFree => "elec.free",
            Phase::DownlinkFree => "host.downlink_free",
            Phase::OffloadRecall => "tor.offload_recall",
            Phase::Reinject => "tor.reinject",
            Phase::HostControl => "host.control",
            Phase::Timer => "engine.timer",
            Phase::Rotation => "tor.rotation",
            Phase::EqoTick => "tor.eqo_tick",
            Phase::Drain => "tor.drain",
            Phase::FaultRuntime => "faults.runtime",
        }
    }

    /// Telemetry counter name for the phase's event count.
    pub fn counter_name(&self) -> &'static str {
        match self {
            Phase::HostTx => "obs.phase.host_tx",
            Phase::TorIngress => "obs.phase.tor_ingress",
            Phase::HostRx => "obs.phase.host_rx",
            Phase::Rotate => "obs.phase.rotate",
            Phase::PortFree => "obs.phase.port_free",
            Phase::ElecFree => "obs.phase.elec_free",
            Phase::DownlinkFree => "obs.phase.downlink_free",
            Phase::OffloadRecall => "obs.phase.offload_recall",
            Phase::Reinject => "obs.phase.reinject",
            Phase::HostControl => "obs.phase.host_control",
            Phase::Timer => "obs.phase.timer",
            Phase::Rotation => "obs.phase.rotation",
            Phase::EqoTick => "obs.phase.eqo_tick",
            Phase::Drain => "obs.phase.drain",
            Phase::FaultRuntime => "obs.phase.fault_runtime",
        }
    }

    /// Whether this is a nested sub-phase (no sim-gap attribution of its
    /// own; wall time is measured inside its parent event).
    pub(crate) fn is_sub(&self) -> bool {
        matches!(self, Phase::Rotation | Phase::EqoTick | Phase::Drain | Phase::FaultRuntime)
    }
}

/// Per-phase accumulators.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStat {
    /// Events (or sub-phase entries) counted.
    pub events: u64,
    /// Simulated ns attributed (gap model; 0 for sub-phases).
    pub sim_ns: u64,
    /// Wall ns, inclusive of nested sub-phases (clock mode only).
    pub wall_incl_ns: u64,
    /// Wall ns spent in nested sub-phases (clock mode only); exclusive
    /// wall time is `wall_incl_ns - wall_child_ns`.
    pub wall_child_ns: u64,
}

type WallClock = Box<dyn Fn() -> u64>;

struct ProfBuf {
    stats: [PhaseStat; PHASE_COUNT],
    /// Phase and sim-time of the most recent top-level event.
    last: Option<(usize, SimTime)>,
    /// A `RefCell` because a clock is installed through `&self`, which the
    /// frozen benchmark spells (`benchmark/src/sim.rs:172`).
    clock: RefCell<Option<WallClock>>,
    /// Open wall frames: `(phase index, start, child wall accumulated)`.
    wall_stack: Vec<(usize, u64, u64)>,
}

impl Clone for ProfBuf {
    /// The sim-time accumulators copy exactly. The wall clock does **not**
    /// carry over — wall mode is bench-only self-profiling, so a copy
    /// starts without a clock — and the open wall frames are dropped with it.
    fn clone(&self) -> Self {
        ProfBuf {
            stats: self.stats,
            last: self.last,
            clock: RefCell::new(None),
            wall_stack: Vec::new(),
        }
    }
}

impl ProfBuf {
    /// The installed wall clock's reading, if any.
    fn wall_now(&mut self) -> Option<u64> {
        self.clock.get_mut().as_ref().map(|clock| clock())
    }

    /// Close the innermost open wall frame at wall time `t`, charging its
    /// time to its parent's children.
    fn close_frame(&mut self, t: u64) {
        let Some((p, start, child)) = self.wall_stack.pop() else { return };
        let elapsed = t.saturating_sub(start);
        self.stats[p].wall_incl_ns += elapsed;
        self.stats[p].wall_child_ns += child;
        if let Some((_, _, parent_child)) = self.wall_stack.last_mut() {
            *parent_child += elapsed;
        }
    }
}

/// The engine-phase profiler, owned by value: a clone copies the sim-time
/// accumulators and starts without a wall clock. Detached (inert) when
/// profiling is off, so the per-event hook is a single branch.
#[derive(Clone, Default)]
pub struct Profiler(Option<Box<ProfBuf>>);

impl Profiler {
    /// A profiler that records nothing.
    pub fn detached() -> Profiler {
        Profiler(None)
    }

    /// A recording profiler (sim-time attribution; wall clock not installed).
    pub fn enabled() -> Profiler {
        Profiler(Some(Box::new(ProfBuf {
            stats: [PhaseStat::default(); PHASE_COUNT],
            last: None,
            clock: RefCell::new(None),
            wall_stack: Vec::new(),
        })))
    }

    /// Whether this profiler records anything.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Install a wall-clock source (monotonic ns). The simulator never
    /// reads host time itself; the bench binary injects `Instant`-based
    /// closures here for self-profiling runs.
    pub fn set_clock(&self, clock: impl Fn() -> u64 + 'static) {
        if let Some(b) = &self.0 {
            *b.clock.borrow_mut() = Some(Box::new(clock));
        }
    }

    /// Top-level hook: one call per dispatched engine event. Charges the
    /// sim-time gap since the previous event to that event's phase, then
    /// makes `phase` current.
    #[inline]
    pub fn event(&mut self, phase: Phase, now: SimTime) {
        let Some(b) = &mut self.0 else { return };
        let idx = phase.index();
        if let Some((prev, at)) = b.last {
            b.stats[prev].sim_ns += now.saturating_since(at);
        }
        b.stats[idx].events += 1;
        b.last = Some((idx, now));
        if let Some(t) = b.wall_now() {
            // Close whatever frames the previous event left open and open
            // the new top-level frame.
            while !b.wall_stack.is_empty() {
                b.close_frame(t);
            }
            b.wall_stack.push((idx, t, 0));
        }
    }

    /// Enter a nested sub-phase (counts it; starts a wall frame when a
    /// clock is installed). Pair with [`Profiler::exit`].
    #[inline]
    pub fn enter(&mut self, sub: Phase) {
        let Some(b) = &mut self.0 else { return };
        let idx = sub.index();
        b.stats[idx].events += 1;
        if let Some(t) = b.wall_now() {
            b.wall_stack.push((idx, t, 0));
        }
    }

    /// Leave the most recent sub-phase frame opened with [`Profiler::enter`].
    #[inline]
    pub fn exit(&mut self, sub: Phase) {
        let Some(b) = &mut self.0 else { return };
        let Some(t) = b.wall_now() else { return };
        if b.wall_stack.last().is_some_and(|&(p, _, _)| p == sub.index()) {
            b.close_frame(t);
        }
    }

    /// Count a sub-phase occurrence without timing it.
    #[inline]
    pub fn mark(&mut self, sub: Phase) {
        if let Some(b) = &mut self.0 {
            b.stats[sub.index()].events += 1;
        }
    }

    /// Snapshot of every phase's accumulators, in [`PHASES`] order.
    pub fn stats(&self) -> Vec<(Phase, PhaseStat)> {
        match &self.0 {
            Some(b) => PHASES.iter().map(|p| (*p, b.stats[p.index()])).collect(),
            None => Vec::new(),
        }
    }

    /// Deterministic sim-time report: per phase, event count and simulated
    /// ns attributed. Byte-identical for identical runs at any worker
    /// count; wall numbers are deliberately excluded.
    pub fn report(&self) -> String {
        let mut out = String::from("phase                events      sim_ns\n");
        for (p, s) in self.stats() {
            let marker = if p.is_sub() { "  - " } else { "" };
            out.push_str(&format!(
                "{:<20} {:>9} {:>11}\n",
                format!("{marker}{}", p.name()),
                s.events,
                s.sim_ns
            ));
        }
        out
    }

    /// Mirror per-phase event counts into the telemetry registry.
    pub fn mirror_into(&self, m: &mut MirrorPass<'_>) {
        let Some(b) = &self.0 else { return };
        for p in PHASES {
            m.counter(p.counter_name(), Labels::None, b.stats[p.index()].events);
        }
    }
}
