//! # openoptics-routing
//!
//! Routing over dynamic optical schedules — the materializations of the
//! abstract `routing()` API function (Table 1), the `neighbors()` /
//! `earliest_path()` helpers, and `deploy_routing()`'s compilation of paths
//! into time-flow-table entries.
//!
//! Routing in a TO optical DCN is routing on a **time-expanded graph**
//! (§2.2): a packet at node *v* in slice *t* may traverse any circuit lit
//! in slice *t* (arriving within the same slice — transit is far shorter
//! than a slice) or wait for slice *t+1*. TA architectures are the special
//! case where every slice looks the same, so classical graph algorithms
//! apply unchanged.
//!
//! TA materializations: [`algos::Direct`], [`algos::Ecmp`], [`algos::Wcmp`],
//! `Ksp` (by name only). TO materializations: [`algos::Vlb`],
//! [`algos::OperaRouting`], [`algos::Ucmp`], [`algos::Hoho`].

pub mod algos;
mod compile;
mod path;
mod timegraph;

pub use compile::{compile, LookupMode, MultipathMode, RouteAction, RouteEntry, RouteMatch};
pub use path::{Path, PathError, PathHop};
pub use timegraph::{earliest_arrival, earliest_path, EarliestInfo};

use openoptics_fabric::OpticalSchedule;
use openoptics_proto::NodeId;
use openoptics_sim::time::SliceIndex;

/// A routing scheme: given the schedule, produce the candidate paths for a
/// (source, destination, arrival-slice) triple. `arr = None` asks for
/// slice-agnostic (TA / static) paths.
///
/// Besides [`paths`](Self::paths), a scheme declares its **capabilities**
/// — the contract the composition layer (`openoptics_core`'s architecture
/// descriptor) checks before deployment, so an incompatible
/// architecture × routing pairing is rejected with a typed error instead
/// of compiling silently-wrong tables:
///
/// * [`needs_arrival_slice`](Self::needs_arrival_slice) — the scheme
///   routes across the rotating slice schedule and cannot answer
///   `arr = None` queries (a single held topology instance);
/// * [`requires_source_routing`](Self::requires_source_routing) — the
///   scheme's paths cannot be decomposed into independent per-hop lookups
///   and need the full hop list pushed at the source;
/// * [`routes_within_instance`](Self::routes_within_instance) — the scheme
///   runs a classical graph search inside one topology instance and needs
///   every instance it sees to connect all nodes.
pub trait RoutingAlgorithm {
    /// Human-readable name (used in reports and benchmarks).
    fn name(&self) -> &'static str;

    /// Candidate paths for packets arriving at `src` in slice `arr` headed
    /// to `dst`. An empty result means the scheme offers no route (the
    /// caller may fall back or drop).
    fn paths(
        &self,
        schedule: &OpticalSchedule,
        src: NodeId,
        dst: NodeId,
        arr: Option<SliceIndex>,
    ) -> Vec<Path>;

    /// Whether this scheme requires source routing (cannot be decomposed
    /// into independent per-hop lookups — Opera and UCMP, §3).
    fn requires_source_routing(&self) -> bool {
        false
    }

    /// Whether this scheme routes across the rotating slice schedule and
    /// therefore needs the arrival slice (`arr = Some(_)`). A TO scheme
    /// deployed on a single-instance (TA) schedule has no slice to key on;
    /// the composition layer rejects that pairing up front.
    fn needs_arrival_slice(&self) -> bool {
        false
    }

    /// Whether this scheme runs a classical graph search within one
    /// topology instance (slice) and assumes that instance connects all
    /// nodes — ECMP/WCMP/KSP on a mesh, Opera on per-slice expanders.
    /// Deployed on a schedule of sparse matchings, such a scheme would
    /// produce empty path sets for most pairs; the composition layer
    /// rejects the pairing instead.
    fn routes_within_instance(&self) -> bool {
        false
    }

    /// Clone this scheme into a fresh boxed trait object. Deployed engines
    /// hold their routing scheme as `Box<dyn RoutingAlgorithm>`; this method
    /// is what lets a whole engine be cloned for checkpoint forks.
    fn clone_box(&self) -> Box<dyn RoutingAlgorithm>;
}

impl Clone for Box<dyn RoutingAlgorithm> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
