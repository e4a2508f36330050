//! Architecture descriptors — the data-driven composition layer behind
//! [`OpenOpticsNet::deploy`](crate::OpenOpticsNet::deploy).
//!
//! The paper's Table 1 promises one programmable API over many optical DCN
//! designs; the unified-routing line of work (PAPERS.md) shows why that is
//! possible: rotor, OCS, and AWGR designs all reduce to routing on one
//! time-expanded graph. This module captures what actually *differs*
//! between designs as plain data — an [`Architecture`] is a schedule
//! generator ([`ScheduleGen`]), dispatch/pause defaults, and a handful of
//! config fixups — so the eight presets are all instances of the same
//! `deploy(cfg, arch, routing, lookup, multipath)` entry point instead of
//! eight hand-wired recipes.
//!
//! Pairing an architecture with a routing scheme is checked up front by
//! [`check_compat`]: a scheme whose declared capabilities (see
//! [`RoutingAlgorithm`](openoptics_routing::RoutingAlgorithm)) cannot be
//! satisfied by the deployed schedule or
//! fabric is rejected with a typed [`ConfigError`] instead of compiling
//! silently-wrong (or silently-empty) time-flow tables.
//!
//! This module is also the only place dispatch policy and pause mode
//! originate: the engine's `policy` / `pause_mode` fields are private to
//! this crate, so every composition decision lives in the descriptor, not
//! scattered across call sites.

use crate::config::{ConfigError, NetConfig};
use crate::engine::{DispatchPolicy, Engine, PauseMode};
use crate::net::DeployError;
use openoptics_fabric::ScheduleError;
use openoptics_fabric::{Circuit, CircuitSink, LayoutError, OcsLayout, OpticalSchedule};
use openoptics_routing::algos::{Direct, Hoho, OperaRouting, Vlb, Wcmp};
use openoptics_routing::{LookupMode, MultipathMode, RoutingAlgorithm};
use openoptics_topo::bvn::mordia_schedule;
use openoptics_topo::matching::edmonds_multi;
use openoptics_topo::TrafficMatrix;
use openoptics_topo::{evolve, opera_schedule_into, round_robin_into, round_robin_multidim_into};
use openoptics_topo::{sorn_into, uniform_mesh_into};

/// A boxed routing scheme plus the lookup/multipath modes it deploys with.
pub type RoutingChoice = (Box<dyn RoutingAlgorithm>, LookupMode, MultipathMode);

/// How an architecture derives its optical schedule — the data-driven
/// replacement for each preset builder's hand-picked topology call.
///
/// Traffic-aware generators carry their target [`TrafficMatrix`] so the
/// same generator can be re-run by the single reconfigure hook
/// ([`crate::OpenOpticsNet::reconfigure`]): `retarget`
/// swaps the matrix in, and `generate` produces the next
/// schedule from it (plus the previous circuits, for evolving generators).
#[derive(Clone, Debug)]
pub enum ScheduleGen {
    /// No optical schedule at all (the electrical baseline keeps the empty
    /// single-slice schedule it was created with).
    Empty,
    /// Edmonds max-weight matching over the traffic matrix, held as one
    /// instance (c-Through).
    MaxWeightMatching {
        /// The demand the matching maximizes over.
        tm: TrafficMatrix,
    },
    /// A uniform mesh when no traffic matrix is known; once retargeted,
    /// each regeneration evolves the previous mesh toward the matrix
    /// (Jupiter's 24-hour loop).
    UniformMesh {
        /// The matrix to evolve toward; `None` until the first
        /// `retarget`.
        tm: Option<TrafficMatrix>,
    },
    /// Birkhoff–von-Neumann decomposition of the matrix apportioned over
    /// `num_slices` slices (Mordia).
    Bvn {
        /// The demand being decomposed.
        tm: TrafficMatrix,
        /// Slice budget for the decomposition.
        num_slices: u32,
    },
    /// Canonical 1-D round robin (RotorNet).
    RoundRobin,
    /// Per-slice connected expanders (Opera).
    Expander,
    /// `dim`-dimensional round robin on a node grid (Shale).
    GridRoundRobin {
        /// Grid dimensionality; `node_num` must be a perfect `dim`-th
        /// power.
        dim: u32,
    },
    /// SORN skewed round robin: a round-robin base plus `extra_slices`
    /// demand-weighted slices (semi-oblivious).
    Sorn {
        /// The demand the skew reflects.
        tm: TrafficMatrix,
        /// Extra demand-weighted slices appended to the base rotation.
        extra_slices: u32,
    },
}

impl ScheduleGen {
    /// Point the generator at a fresh traffic matrix. No-op for
    /// traffic-oblivious generators.
    pub(crate) fn retarget(&mut self, tm: &TrafficMatrix) {
        match self {
            ScheduleGen::MaxWeightMatching { tm: t }
            | ScheduleGen::Bvn { tm: t, .. }
            | ScheduleGen::Sorn { tm: t, .. } => *t = tm.clone(),
            ScheduleGen::UniformMesh { tm: t } => *t = Some(tm.clone()),
            ScheduleGen::Empty
            | ScheduleGen::RoundRobin
            | ScheduleGen::Expander
            | ScheduleGen::GridRoundRobin { .. } => {}
        }
    }

    /// Write the schedule for `cfg` into `sink`: its slice count, then its
    /// circuits. `prev` is the currently-deployed circuit set (evolving
    /// generators start from it). Returns `false`, having written nothing,
    /// when the architecture deploys no optical schedule.
    pub(crate) fn generate_into<S: CircuitSink>(
        &self,
        cfg: &NetConfig,
        prev: &[Circuit],
        sink: &mut S,
    ) -> Result<bool, S::Error> {
        let (n, u) = (cfg.node_num, cfg.uplink);
        match self {
            ScheduleGen::Empty => return Ok(false),
            ScheduleGen::MaxWeightMatching { tm } => replay((edmonds_multi(tm, u), 1), sink)?,
            ScheduleGen::UniformMesh { tm: None } => uniform_mesh_into(n, u, sink)?,
            ScheduleGen::UniformMesh { tm: Some(tm) } => replay((evolve(prev, tm, n, u), 1), sink)?,
            ScheduleGen::Bvn { tm, num_slices } => replay(mordia_schedule(tm, *num_slices), sink)?,
            ScheduleGen::RoundRobin => round_robin_into(n, u, sink)?,
            ScheduleGen::Expander => opera_schedule_into(n, u, sink)?,
            ScheduleGen::GridRoundRobin { dim } => round_robin_multidim_into(n, *dim, sink)?,
            ScheduleGen::Sorn { tm, extra_slices } => sorn_into(tm, n, u, *extra_slices, sink)?,
        }
        Ok(true)
    }
}

/// Hand a generated list to `sink`, as a sink-form generator would.
fn replay<S: CircuitSink>(
    (circuits, num_slices): (Vec<Circuit>, u32),
    sink: &mut S,
) -> Result<(), S::Error> {
    sink.cycle(num_slices)?;
    circuits.into_iter().try_for_each(|c| sink.circuit(c))
}

/// A cycle lit straight into a schedule, each circuit's OCS cabling
/// checked on the way; what `deploy_topo` and every preset deploy through.
/// A schedule error stops the writer at once; a cabling error is kept and
/// reported by [`InPlace::finish`], so a list whose schedule is invalid
/// reports that, and one that only fails its cabling reports the first
/// circuit that does.
pub(crate) struct InPlace<'a> {
    cfg: &'a NetConfig,
    layout: &'a OcsLayout,
    schedule: Option<OpticalSchedule>,
    cabling: Result<(), LayoutError>,
}

impl<'a> InPlace<'a> {
    pub(crate) fn new(cfg: &'a NetConfig, layout: &'a OcsLayout) -> Self {
        InPlace { cfg, layout, schedule: None, cabling: Ok(()) }
    }

    /// The lit schedule, or the first cabling error; `None` if nothing
    /// named a cycle.
    pub(crate) fn finish(self) -> Result<Option<OpticalSchedule>, LayoutError> {
        self.cabling?;
        Ok(self.schedule)
    }
}

impl CircuitSink for InPlace<'_> {
    type Error = ScheduleError;

    fn cycle(&mut self, num_slices: u32) -> Result<(), ScheduleError> {
        let (cfg, n, u) = (self.cfg.slice_config(num_slices), self.cfg.node_num, self.cfg.uplink);
        self.schedule = Some(OpticalSchedule::build(cfg, n, u, &[])?);
        Ok(())
    }

    fn circuit(&mut self, c: Circuit) -> Result<(), ScheduleError> {
        self.schedule.as_mut().expect("a generator names its cycle first").light(c)?;
        if self.cabling.is_ok() {
            self.cabling = self.layout.cross_connect(c).map(drop);
        }
        Ok(())
    }
}

/// Everything that distinguishes one preset optical DCN design from
/// another, as data: the schedule generator, the dispatch/pause defaults,
/// and the config fixups the old builders applied silently. Feed one to [`crate::OpenOpticsNet::deploy`] together with any
/// compatible routing scheme.
#[derive(Clone, Debug)]
pub struct Architecture {
    schedule: ScheduleGen,
    dispatch: DispatchPolicy,
    pause: PauseMode,
    default_routing: fn() -> RoutingChoice,
    /// `cfg.electrical_gbps` fallback when the caller left it 0.
    electrical_gbps_default: u64,
    /// Forced `cfg.emulated_fabric` value (real-OCS designs), if any.
    emulated_fabric: Option<bool>,
    /// Minimum uplink count the design needs (`cfg.uplink` is raised).
    min_uplink: u16,
    /// Exact uplink count the design requires (`cfg.uplink` is replaced).
    fixed_uplink: Option<u16>,
}

/// Shape parameters of the parameterised presets, for
/// [`Architecture::by_name`].
#[derive(Clone, Copy, Debug)]
pub struct PresetShape<'a> {
    /// Demand matrix for `cthrough`, `mordia` and `semi_oblivious`.
    pub tm: &'a TrafficMatrix,
    /// Schedule length for `mordia`.
    pub mordia_slices: u32,
    /// Torus dimensionality for `shale`.
    pub shale_dim: u32,
    /// Extra demand-aware slices for `semi_oblivious`.
    pub extra_slices: u32,
}

impl Architecture {
    /// Traditional electrical Clos baseline: no optical schedule,
    /// everything rides the electrical fabric.
    pub fn clos() -> Self {
        Architecture {
            schedule: ScheduleGen::Empty,
            dispatch: DispatchPolicy::ElectricalOnly,
            pause: PauseMode::None,
            default_routing: || (Box::new(Direct), LookupMode::PerHop, MultipathMode::None),
            electrical_gbps_default: 100,
            emulated_fabric: None,
            min_uplink: 0,
            fixed_uplink: None,
        }
    }

    /// c-Through (TA-1): max-weight-matching circuits on a real MEMS OCS;
    /// mice ride a rate-limited electrical fabric, elephants pause for
    /// their direct circuit.
    pub fn cthrough(tm: &TrafficMatrix) -> Self {
        Architecture {
            schedule: ScheduleGen::MaxWeightMatching { tm: tm.clone() },
            dispatch: DispatchPolicy::MiceElectrical,
            pause: PauseMode::DirectCircuit,
            default_routing: || (Box::new(Direct), LookupMode::PerHop, MultipathMode::None),
            electrical_gbps_default: 10,
            emulated_fabric: Some(false),
            min_uplink: 0,
            fixed_uplink: None,
        }
    }

    /// Jupiter (TA-2): an evolving uniform mesh on MEMS-class OCS.
    pub fn jupiter() -> Self {
        Architecture {
            schedule: ScheduleGen::UniformMesh { tm: None },
            dispatch: DispatchPolicy::OpticalOnly,
            pause: PauseMode::None,
            default_routing: || {
                (Box::new(Wcmp::default()), LookupMode::PerHop, MultipathMode::PerFlow)
            },
            electrical_gbps_default: 0,
            emulated_fabric: Some(false),
            min_uplink: 2,
            fixed_uplink: None,
        }
    }

    /// Mordia (TA-1 with microsecond slices): BvN decomposition of the
    /// matrix over `num_slices` slices on the emulated fabric.
    pub fn mordia(tm: &TrafficMatrix, num_slices: u32) -> Self {
        Architecture {
            schedule: ScheduleGen::Bvn { tm: tm.clone(), num_slices },
            dispatch: DispatchPolicy::OpticalOnly,
            pause: PauseMode::None,
            default_routing: || (Box::new(Direct), LookupMode::PerHop, MultipathMode::None),
            electrical_gbps_default: 0,
            emulated_fabric: None,
            min_uplink: 0,
            fixed_uplink: None,
        }
    }

    /// RotorNet (TO): canonical 1-D round robin.
    pub fn rotornet() -> Self {
        Architecture {
            schedule: ScheduleGen::RoundRobin,
            dispatch: DispatchPolicy::OpticalOnly,
            pause: PauseMode::None,
            default_routing: || (Box::new(Vlb), LookupMode::PerHop, MultipathMode::PerPacket),
            electrical_gbps_default: 0,
            emulated_fabric: None,
            min_uplink: 0,
            fixed_uplink: None,
        }
    }

    /// Opera (TO): per-slice connected expanders.
    pub fn opera() -> Self {
        Architecture {
            schedule: ScheduleGen::Expander,
            dispatch: DispatchPolicy::OpticalOnly,
            pause: PauseMode::None,
            default_routing: || {
                (
                    Box::new(OperaRouting::default()),
                    LookupMode::SourceRouting,
                    MultipathMode::PerPacket,
                )
            },
            electrical_gbps_default: 0,
            emulated_fabric: None,
            min_uplink: 2,
            fixed_uplink: None,
        }
    }

    /// Shale (TO): a `dim`-dimensional round robin with a single optical
    /// uplink per node (§4.2).
    pub fn shale(dim: u32) -> Self {
        Architecture {
            schedule: ScheduleGen::GridRoundRobin { dim },
            dispatch: DispatchPolicy::OpticalOnly,
            pause: PauseMode::None,
            default_routing: || {
                (Box::new(Hoho::default()), LookupMode::PerHop, MultipathMode::None)
            },
            electrical_gbps_default: 0,
            emulated_fabric: None,
            min_uplink: 0,
            fixed_uplink: Some(1),
        }
    }

    /// Semi-oblivious (TA+TO, Fig. 5c): SORN skewed round robin.
    pub fn semi_oblivious(tm: &TrafficMatrix, extra_slices: u32) -> Self {
        Architecture {
            schedule: ScheduleGen::Sorn { tm: tm.clone(), extra_slices },
            dispatch: DispatchPolicy::OpticalOnly,
            pause: PauseMode::None,
            default_routing: || (Box::new(Vlb), LookupMode::PerHop, MultipathMode::PerPacket),
            electrical_gbps_default: 0,
            emulated_fabric: None,
            min_uplink: 0,
            fixed_uplink: None,
        }
    }

    /// Every preset [`Architecture::by_name`] knows, in table order.
    pub const PRESET_NAMES: &'static [&'static str] =
        &["clos", "cthrough", "jupiter", "mordia", "rotornet", "opera", "shale", "semi_oblivious"];

    /// The preset called `name` (one of [`Self::PRESET_NAMES`]), handed the
    /// parts of `shape` it takes.
    pub fn by_name(name: &str, shape: &PresetShape) -> Option<Self> {
        Some(match name {
            "clos" => Self::clos(),
            "cthrough" => Self::cthrough(shape.tm),
            "jupiter" => Self::jupiter(),
            "mordia" => Self::mordia(shape.tm, shape.mordia_slices),
            "rotornet" => Self::rotornet(),
            "opera" => Self::opera(),
            "shale" => Self::shale(shape.shale_dim),
            "semi_oblivious" => Self::semi_oblivious(shape.tm, shape.extra_slices),
            _ => return None,
        })
    }

    /// Override the dispatch policy (e.g. hybrid experiments running
    /// RotorNet with `HybridDirect`).
    pub fn with_dispatch(mut self, dispatch: DispatchPolicy) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Override the pause mode.
    pub fn with_pause(mut self, pause: PauseMode) -> Self {
        self.pause = pause;
        self
    }

    /// Mutable access to the schedule generator (reconfigure hooks adjust
    /// generator parameters — e.g. SORN's extra slices — before
    /// regenerating).
    pub fn schedule_mut(&mut self) -> &mut ScheduleGen {
        &mut self.schedule
    }

    /// The preset's canonical routing pairing (what
    /// [`OpenOpticsNet::deploy_preset`](crate::OpenOpticsNet::deploy_preset)
    /// deploys).
    pub fn default_routing(&self) -> RoutingChoice {
        (self.default_routing)()
    }

    /// Apply the design's configuration fixups, **documented** here rather
    /// than silently applied as the old builders did:
    ///
    /// * `electrical_gbps`: designs with an electrical component (Clos at
    ///   100 Gbps, c-Through rate-limited to 10 Gbps per §6) fill it in
    ///   when the caller left it 0;
    /// * `emulated_fabric`: real-OCS designs (c-Through, Jupiter) force it
    ///   `false`;
    /// * `uplink`: raised to the design minimum (mesh designs need ≥ 2
    ///   stripes) or pinned exactly (Shale's single optical uplink).
    pub(crate) fn apply_defaults(&self, cfg: &mut NetConfig) {
        if cfg.electrical_gbps == 0 && self.electrical_gbps_default > 0 {
            cfg.electrical_gbps = self.electrical_gbps_default;
        }
        if let Some(e) = self.emulated_fabric {
            cfg.emulated_fabric = e;
        }
        if cfg.uplink < self.min_uplink {
            cfg.uplink = self.min_uplink;
        }
        if let Some(u) = self.fixed_uplink {
            cfg.uplink = u;
        }
    }

    /// This architecture's schedule for `cfg`, evolving from the
    /// currently-deployed `prev` circuits where applicable, lit in place
    /// and checked against `layout` ([`InPlace`]). `None` when the
    /// architecture deploys no optical schedule.
    pub(crate) fn generate(
        &self,
        cfg: &NetConfig,
        prev: &[Circuit],
        layout: &OcsLayout,
    ) -> Result<Option<OpticalSchedule>, DeployError> {
        let mut sink = InPlace::new(cfg, layout);
        self.schedule.generate_into(cfg, prev, &mut sink)?;
        Ok(sink.finish()?)
    }

    /// Install the descriptor's dispatch policy and pause mode on the
    /// engine — the one place these values originate (the fields are
    /// crate-private).
    pub(crate) fn install_policies(&self, engine: &mut Engine) {
        engine.policy = self.dispatch;
        engine.pause_mode = self.pause;
    }
}

/// Check that `algo` can produce correct tables on `schedule` over a fabric
/// with (or without) full per-hop emulation. Returns the typed
/// [`ConfigError`] that [`crate::OpenOpticsNet::deploy_routing`] surfaces
/// as [`crate::Error::Config`].
///
/// Three rules, each keyed off a declared [`RoutingAlgorithm`] capability:
///
/// 1. a scheme that routes across the rotating slice schedule
///    ([`needs_arrival_slice`](RoutingAlgorithm::needs_arrival_slice))
///    cannot run on a single held topology instance — there is no rotation
///    to ride;
/// 2. a source-routing scheme
///    ([`requires_source_routing`](RoutingAlgorithm::requires_source_routing))
///    cannot run when `emulated_fabric = false`: packets traverse a real
///    OCS between plain per-hop switches, so a full hop list pushed at the
///    source has nowhere to live;
/// 3. a scheme that searches within one topology instance
///    ([`routes_within_instance`](RoutingAlgorithm::routes_within_instance))
///    needs every slice it can be asked about to connect all nodes —
///    deployed on sparse matchings it would compile empty tables for most
///    pairs.
pub fn check_compat(
    algo: &dyn RoutingAlgorithm,
    schedule: &OpticalSchedule,
    emulated_fabric: bool,
) -> Result<(), ConfigError> {
    let num_slices = schedule.slice_config().num_slices;
    if algo.needs_arrival_slice() && num_slices == 1 {
        return Err(ConfigError {
            field: "routing",
            reason: format!(
                "`{}` routes across the rotating slice schedule, but the deployed \
                 schedule holds a single topology instance (num_slices = 1); \
                 pair it with a TO architecture or pick a TA scheme",
                algo.name()
            ),
        });
    }
    if algo.requires_source_routing() && !emulated_fabric {
        return Err(ConfigError {
            field: "routing",
            reason: format!(
                "`{}` requires source routing, but `emulated_fabric = false` means \
                 per-hop lookups on plain switches across a real OCS — a full hop \
                 list pushed at the source cannot be honored",
                algo.name()
            ),
        });
    }
    if algo.routes_within_instance() {
        for slice in 0..num_slices {
            if !schedule.slice_is_connected(slice) {
                return Err(ConfigError {
                    field: "routing",
                    reason: format!(
                        "`{}` searches for paths within one topology instance, but \
                         slice {slice} of the deployed schedule does not connect \
                         all nodes; within-instance schemes need connected \
                         instances (a mesh or per-slice expanders)",
                        algo.name()
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::OpenOpticsNet;
    use openoptics_proto::NodeId;
    use openoptics_routing::algos::{Ecmp, Ucmp};
    use openoptics_topo::{round_robin, uniform_mesh};

    /// What `gen` writes for `cfg`, collected into a list; `None` for no
    /// schedule.
    fn listed(gen: &ScheduleGen, cfg: &NetConfig, prev: &[Circuit]) -> Option<(Vec<Circuit>, u32)> {
        let mut list = (Vec::new(), 0);
        let Ok(generated) = gen.generate_into(cfg, prev, &mut list);
        generated.then_some(list)
    }

    /// A single OCS carrying every fiber of `cfg`.
    fn one_ocs(cfg: &NetConfig) -> OcsLayout {
        let fibers = cfg.node_num * u32::from(cfg.uplink);
        OcsLayout::single(cfg.node_num, cfg.uplink, fibers).expect("sized to the cabling")
    }

    fn sched(circuits: &[Circuit], slices: u32, n: u32, uplink: u16) -> OpticalSchedule {
        let cfg = NetConfig { node_num: n, uplink, ..Default::default() };
        OpticalSchedule::build(cfg.slice_config(slices), n, uplink, circuits)
            .expect("test schedule valid")
    }

    fn rotor8() -> OpticalSchedule {
        let (c, s) = round_robin(8, 1);
        sched(&c, s, 8, 1)
    }

    fn mesh8() -> OpticalSchedule {
        let c = uniform_mesh(8, 2);
        sched(&c, 1, 8, 2)
    }

    #[test]
    fn to_scheme_on_held_instance_is_rejected() {
        let e = check_compat(&Vlb, &mesh8(), true).unwrap_err();
        assert_eq!(e.field, "routing");
        assert!(e.reason.contains("single topology instance"), "{}", e.reason);
        // The same scheme on a rotating schedule is fine.
        check_compat(&Vlb, &rotor8(), true).expect("vlb on rotor");
    }

    #[test]
    fn source_routing_on_real_ocs_is_rejected() {
        let e = check_compat(&Ucmp::default(), &rotor8(), false).unwrap_err();
        assert!(e.reason.contains("source routing"), "{}", e.reason);
        check_compat(&Ucmp::default(), &rotor8(), true).expect("ucmp on emulated fabric");
    }

    #[test]
    fn within_instance_scheme_needs_connected_slices() {
        // Round-robin slices are sparse matchings: ECMP would compile empty
        // tables for most pairs.
        let e = check_compat(&Ecmp::default(), &rotor8(), true).unwrap_err();
        assert!(e.reason.contains("does not connect all nodes"), "{}", e.reason);
        // A mesh instance connects everything.
        check_compat(&Ecmp::default(), &mesh8(), true).expect("ecmp on mesh");
    }

    #[test]
    fn preset_default_pairings_are_compatible() {
        let tm = TrafficMatrix::zeros(8);
        for arch in [
            Architecture::clos(),
            Architecture::cthrough(&tm),
            Architecture::jupiter(),
            Architecture::mordia(&tm, 8),
            Architecture::rotornet(),
            Architecture::opera(),
            Architecture::shale(3),
            Architecture::semi_oblivious(&tm, 4),
        ] {
            let mut cfg = NetConfig { node_num: 8, uplink: 1, ..Default::default() };
            arch.apply_defaults(&mut cfg);
            let (algo, _, _) = arch.default_routing();
            let schedule = match arch.generate(&cfg, &[], &one_ocs(&cfg)).expect("deployable") {
                Some(schedule) => schedule,
                None => OpticalSchedule::empty(cfg.slice_config(1), cfg.node_num, cfg.uplink),
            };
            check_compat(algo.as_ref(), &schedule, cfg.emulated_fabric)
                .unwrap_or_else(|e| panic!("{:?} default pairing rejected: {e}", arch.schedule));
        }
    }

    /// Every preset's schedule, lit in place, is the schedule `build` makes
    /// of the list the same generator collects, and building from the
    /// schedule's own circuit view gives it back.
    #[test]
    fn each_preset_lights_the_schedule_its_list_builds_and_round_trips() {
        let mut tm = TrafficMatrix::uniform(9, 1.0);
        tm.set(NodeId(0), NodeId(5), 500.0);
        for arch in [
            Architecture::clos(),
            Architecture::cthrough(&tm),
            Architecture::jupiter(),
            Architecture::mordia(&tm, 8),
            Architecture::rotornet(),
            Architecture::opera(),
            Architecture::shale(2),
            Architecture::semi_oblivious(&tm, 4),
        ] {
            let mut cfg = NetConfig { node_num: 9, uplink: 3, ..Default::default() };
            arch.apply_defaults(&mut cfg);
            let (n, u) = (cfg.node_num, cfg.uplink);
            let got = arch.generate(&cfg, &[], &one_ocs(&cfg)).expect("deployable");
            let want = listed(&arch.schedule, &cfg, &[]).map(|(circuits, slices)| {
                OpticalSchedule::build(cfg.slice_config(slices), n, u, &circuits).expect("valid")
            });
            assert!(got == want, "{:?}: in place != built from the list", arch.schedule);
            let Some(s) = got else { continue };
            let view: Vec<Circuit> = s.circuits().collect();
            let rebuilt = OpticalSchedule::build(s.slice_config(), n, u, &view).expect("valid");
            assert!(rebuilt == s, "{:?}: the circuit view does not round-trip", arch.schedule);
        }
    }

    /// The sink-form generators, lit in place, equal `build` over the lists
    /// they collect: round robin for every `n` in 2..=130 and `u` in 1..=8,
    /// and the others over the shapes they take.
    #[test]
    fn in_place_generators_equal_build_over_their_lists() {
        let check = |gen: &ScheduleGen, n: u32, u: u16| {
            let cfg = NetConfig { node_num: n, uplink: u, ..Default::default() };
            let got = Architecture { schedule: gen.clone(), ..Architecture::rotornet() }
                .generate(&cfg, &[], &one_ocs(&cfg))
                .expect("deployable")
                .expect("a schedule");
            let (circuits, slices) = listed(gen, &cfg, &[]).expect("a list");
            let want = OpticalSchedule::build(cfg.slice_config(slices), n, u, &circuits);
            assert!(want.as_ref() == Ok(&got), "{gen:?} n={n} u={u}");
        };
        for n in 2..=130 {
            for u in 1..=8 {
                check(&ScheduleGen::RoundRobin, n, u);
            }
        }
        for (n, u) in [(2, 1), (8, 2), (9, 4), (16, 3), (33, 8)] {
            check(&ScheduleGen::UniformMesh { tm: None }, n, u);
        }
        for (n, dim) in [(9, 2), (8, 3), (16, 2), (27, 3), (16, 4), (7, 1)] {
            check(&ScheduleGen::GridRoundRobin { dim }, n, 1);
        }
        for (n, u) in [(2, 1), (8, 2), (12, 3), (16, 4)] {
            check(&ScheduleGen::Expander, n, u);
        }
        let mut tm = TrafficMatrix::uniform(10, 1.0);
        tm.set(NodeId(2), NodeId(7), 300.0);
        for (extra_slices, u) in [(0, 2), (1, 1), (3, 2), (12, 3)] {
            check(&ScheduleGen::Sorn { tm: tm.clone(), extra_slices }, 10, u);
        }
        check(&ScheduleGen::Sorn { tm: TrafficMatrix::zeros(10), extra_slices: 4 }, 10, 2);
    }

    #[test]
    fn apply_defaults_documents_the_fixups() {
        let mut cfg = NetConfig { node_num: 8, uplink: 1, ..Default::default() };
        Architecture::clos().apply_defaults(&mut cfg);
        assert_eq!(cfg.electrical_gbps, 100);

        let mut cfg = NetConfig { node_num: 8, uplink: 1, ..Default::default() };
        Architecture::cthrough(&TrafficMatrix::zeros(8)).apply_defaults(&mut cfg);
        assert_eq!(cfg.electrical_gbps, 10);
        assert!(!cfg.emulated_fabric);

        // A caller-set rate is respected.
        let mut cfg =
            NetConfig { node_num: 8, uplink: 1, electrical_gbps: 40, ..Default::default() };
        Architecture::clos().apply_defaults(&mut cfg);
        assert_eq!(cfg.electrical_gbps, 40);

        let mut cfg = NetConfig { node_num: 8, uplink: 1, ..Default::default() };
        Architecture::jupiter().apply_defaults(&mut cfg);
        assert_eq!(cfg.uplink, 2, "mesh needs multiple stripes");

        let mut cfg = NetConfig { node_num: 8, uplink: 4, ..Default::default() };
        Architecture::shale(3).apply_defaults(&mut cfg);
        assert_eq!(cfg.uplink, 1, "shale pins a single optical uplink");
    }

    #[test]
    fn retarget_feeds_traffic_aware_generators() {
        let mut tm = TrafficMatrix::zeros(8);
        tm.set(openoptics_proto::NodeId(0), openoptics_proto::NodeId(5), 100.0);
        let cfg = NetConfig { node_num: 8, uplink: 1, ..Default::default() };

        // UniformMesh starts traffic-agnostic, evolves once retargeted.
        let mut gen = ScheduleGen::UniformMesh { tm: None };
        let (mesh, s) = listed(&gen, &cfg, &[]).expect("mesh");
        assert_eq!(s, 1);
        gen.retarget(&tm);
        let (evolved, _) = listed(&gen, &cfg, &mesh).expect("evolved mesh");
        assert!(!evolved.is_empty());

        // Oblivious generators ignore retarget.
        let mut rr = ScheduleGen::RoundRobin;
        let before = listed(&rr, &cfg, &[]);
        rr.retarget(&tm);
        assert_eq!(
            before.as_ref().map(|(c, s)| (c.len(), *s)),
            listed(&rr, &cfg, &[]).as_ref().map(|(c, s)| (c.len(), *s))
        );
    }

    fn cfg8() -> NetConfig {
        NetConfig { node_num: 8, uplink: 1, slice_ns: 10_000, sync_err_ns: 0, ..Default::default() }
    }

    #[test]
    fn clos_carries_traffic_electrically() {
        use crate::engine::TransportKind;
        use openoptics_proto::HostId;
        use openoptics_sim::SimTime;
        let mut net = OpenOpticsNet::deploy_preset(cfg8(), Architecture::clos()).expect("clos");
        net.add_flow(SimTime::from_ns(100), HostId(0), HostId(5), 20_000, TransportKind::Paced);
        net.run_for(SimTime::from_ms(20));
        assert_eq!(net.fct().completed().len(), 1, "flow did not complete");
        let (delivered, _) = net.engine.fabric_stats();
        assert_eq!(delivered, 0, "no packet should touch the optical fabric");
    }

    #[test]
    fn reconfigure_regenerates_from_the_adjusted_generator() {
        // The Fig. 5c loop: raise SORN's extra-slice budget through
        // `arch_mut`, then the single reconfigure hook redeploys with it.
        let mut tm = TrafficMatrix::zeros(8);
        tm.set(openoptics_proto::NodeId(0), openoptics_proto::NodeId(5), 500.0);
        let mut net = OpenOpticsNet::deploy_preset(cfg8(), Architecture::semi_oblivious(&tm, 2))
            .expect("semi-oblivious deploys");
        let before = net.engine.schedule().slice_config().num_slices;
        match net.arch_mut().expect("deployed net keeps its descriptor").schedule_mut() {
            ScheduleGen::Sorn { extra_slices, .. } => *extra_slices = 6,
            other => panic!("semi-oblivious generator expected, got {other:?}"),
        }
        net.reconfigure(&tm).expect("semi-oblivious reconfigures under the test demand");
        let after = net.engine.schedule().slice_config().num_slices;
        assert!(after > before, "extra slices must grow the schedule ({before} -> {after})");
    }

    #[test]
    fn reconfigure_without_descriptor_is_typed_error() {
        let mut net = OpenOpticsNet::new(cfg8());
        let e = net.reconfigure(&TrafficMatrix::zeros(8)).unwrap_err();
        assert!(matches!(e, crate::Error::Config(_)), "got {e}");
    }
}
