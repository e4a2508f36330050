//! # openoptics-workload
//!
//! Workload generation and measurement for the §7 benchmarks: the paper
//! replays "the widely-used RPC, Hadoop, and KV store DCN traces … and
//! scales the load to reach 40% core link utilization as in production
//! DCNs". The original traces are not redistributable; `dists` provides
//! synthetic flow-size distributions matching the published statistics of
//! those traces (Homa's W4 RPC mix, Facebook's Hadoop cluster, Facebook's
//! memcached pools), `arrivals` generates Poisson flow arrivals scaled to
//! a target utilization, and `fct` measures flow-completion-time
//! distributions the way Figs. 8 and 10 report them.

mod arrivals;
mod dists;
mod fct;

pub use arrivals::{FlowArrival, PoissonArrivals};
pub use dists::{FlowSizeDist, Trace};
pub use fct::{FctStats, FlowRecord, ELEPHANT_MIN_BYTES, MICE_MAX_BYTES};
