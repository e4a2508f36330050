//! Static configuration (§4.1).
//!
//! "Users specify high-level network behavior via a static configuration
//! (json file) for hardware setups (e.g., OCSes count and structure,
//! optical uplinks per endpoint, and time slice duration), along with a
//! Python program that invokes the API functions." The Rust equivalent:
//! a JSON-deserializable [`NetConfig`] plus a program against
//! [`crate::net::OpenOpticsNet`].

use crate::json::{self, Json, ToJson, Writer};
use openoptics_sim::Bandwidth;
use openoptics_sim::SliceConfig;

/// The static configuration file contents.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Number of endpoint nodes attached to the optical fabric.
    pub node_num: u32,
    /// Optical uplinks per endpoint node.
    pub uplink: u16,
    /// Hosts below each ToR.
    pub hosts_per_node: u32,
    /// Time slice duration, ns.
    pub slice_ns: u64,
    /// Guardband at the start of each slice, ns.
    pub guard_ns: u64,
    /// Optical uplink rate, Gbps.
    pub uplink_gbps: u64,
    /// Host access-link rate, Gbps.
    pub host_link_gbps: u64,
    /// OCS reconfiguration delay (TA workflows), ns.
    pub ocs_reconfig_ns: u64,
    /// Use the emulated optical fabric (adds cut-through latency) instead
    /// of a real OCS (§5.3).
    pub emulated_fabric: bool,
    /// Parallel electrical fabric rate, Gbps; 0 disables it.
    pub electrical_gbps: u64,
    /// Calendar queues per optical uplink.
    pub num_queues: usize,
    /// Byte capacity of each calendar queue.
    pub queue_capacity: u64,
    /// Congestion-detection service armed.
    pub congestion_detection: bool,
    /// Congestion threshold, bytes.
    pub congestion_threshold: u64,
    /// Congestion response: `"drop"`, `"trim"`, or `"defer"` (`"wait"` is
    /// accepted as another spelling of `"defer"`).
    pub congestion_policy: String,
    /// Traffic push-back service armed.
    pub pushback: bool,
    /// Buffer offloading armed: ranks beyond `offload_keep_ranks` park on
    /// hosts.
    pub offload: bool,
    /// Ranks kept on the switch when offloading.
    pub offload_keep_ranks: u32,
    /// Offload recall lead time, ns.
    pub offload_return_lead_ns: u64,
    /// EQO update interval, ns.
    pub eqo_interval_ns: u64,
    /// Clock synchronization error bound, ns (0 = perfect sync).
    pub sync_err_ns: u64,
    /// Physical per-slice dead window of the optical device, ns (the
    /// hardware portion of the guardband; the rest is system hold-off).
    pub fabric_dead_ns: u64,
    /// OCS count ("OCSes count and structure", §4.1): 0 = one large OCS
    /// carrying every fiber (the testbed's Polatis); k > 0 = k devices with
    /// uplink `p` of every node cabled to device `p mod k` (parallel
    /// rails, as in RotorNet/Opera deployments). Devices are sized to the
    /// cabling.
    pub ocs_count: u16,
    /// Ablation switch: when `true` the congestion detector reads the
    /// calendar queues' ground-truth occupancy instead of the EQO estimate
    /// (impossible on real hardware — the ghost-thread limitation §5.2).
    pub eqo_ground_truth: bool,
    /// PIAS-style elephant threshold for flow aging, bytes.
    pub elephant_threshold: u64,
    /// Telemetry registry armed: counters/gauges/histograms and the trace
    /// stream record. `false` leaves every instrument detached (zero-cost
    /// disabled mode: hot paths see a single `Option` branch).
    pub telemetry: bool,
    /// Lifecycle-span sampling stride: record causal begin/end spans for
    /// every Nth flow (flows whose id is congruent to `seed % N`). 0
    /// disables span recording entirely (the default — spans never touch
    /// the hot path unless asked for).
    pub span_sample_every: u64,
    /// Telemetry sampling cadence, ns of sim time between time-series
    /// samples: each tick snapshots every counter/gauge plus the
    /// per-service latency summaries into the time-series store and the
    /// subscription frame stream. 0 disables sampling entirely — the
    /// sampling timer is never scheduled, so the hot path cost is zero.
    pub sample_every_ns: u64,
    /// Reserved: always `1`. There is no intra-run parallelism (DESIGN.md,
    /// "No intra-run parallelism"); the field survives only because the
    /// frozen `benchmark/` workloads spell `workers: 1` in their struct
    /// literals, and [`NetConfig::validate`] rejects any other value.
    pub workers: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            node_num: 8,
            uplink: 1,
            hosts_per_node: 1,
            slice_ns: 100_000,
            guard_ns: 1_000,
            uplink_gbps: 100,
            host_link_gbps: 100,
            ocs_reconfig_ns: 25_000_000,
            emulated_fabric: true,
            electrical_gbps: 0,
            num_queues: 32,
            queue_capacity: 2 * 1024 * 1024,
            congestion_detection: true,
            congestion_threshold: 2 * 1024 * 1024,
            congestion_policy: "defer".to_string(),
            pushback: false,
            offload: false,
            offload_keep_ranks: 8,
            offload_return_lead_ns: 20_000,
            eqo_interval_ns: 50,
            sync_err_ns: 28,
            fabric_dead_ns: 100,
            ocs_count: 0,
            eqo_ground_truth: false,
            elephant_threshold: 1_000_000,
            telemetry: true,
            span_sample_every: 0,
            sample_every_ns: 0,
            workers: 1,
            seed: 1,
        }
    }
}

/// Expand once per `NetConfig` field: keeps JSON parse and serialize in
/// lockstep with the struct definition (a field added here is both read and
/// written, or the compiler complains about the struct literal).
macro_rules! for_each_config_field {
    ($m:ident) => {
        $m!(u32 node_num);
        $m!(u16 uplink);
        $m!(u32 hosts_per_node);
        $m!(u64 slice_ns);
        $m!(u64 guard_ns);
        $m!(u64 uplink_gbps);
        $m!(u64 host_link_gbps);
        $m!(u64 ocs_reconfig_ns);
        $m!(bool emulated_fabric);
        $m!(u64 electrical_gbps);
        $m!(usize num_queues);
        $m!(u64 queue_capacity);
        $m!(bool congestion_detection);
        $m!(u64 congestion_threshold);
        $m!(str congestion_policy);
        $m!(bool pushback);
        $m!(bool offload);
        $m!(u32 offload_keep_ranks);
        $m!(u64 offload_return_lead_ns);
        $m!(u64 eqo_interval_ns);
        $m!(u64 sync_err_ns);
        $m!(u64 fabric_dead_ns);
        $m!(u16 ocs_count);
        $m!(bool eqo_ground_truth);
        $m!(u64 elephant_threshold);
        $m!(bool telemetry);
        $m!(u64 span_sample_every);
        $m!(u64 sample_every_ns);
        $m!(usize workers);
        $m!(u64 seed);
    };
}

/// A configuration field that failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field.
    pub field: &'static str,
    /// Why the value was rejected.
    pub reason: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for ConfigError {}

fn err(field: &'static str, reason: impl Into<String>) -> ConfigError {
    ConfigError { field, reason: reason.into() }
}

/// Checked, fluent construction of a [`NetConfig`] (starts from defaults).
///
/// ```
/// use openoptics_core::NetConfig;
/// let cfg = NetConfig::builder().node_num(8).slice_ns(100_000).build().unwrap();
/// assert!(NetConfig::builder().guard_ns(99).slice_ns(50).build().is_err());
/// ```
#[derive(Clone, Debug, Default)]
pub struct NetConfigBuilder {
    cfg: NetConfig,
}

/// One fluent setter per configuration field, generated from the same field
/// list as JSON parse/serialize so the builder can never fall behind.
macro_rules! builder_setter {
    (str $name:ident) => {
        #[doc = concat!("Set [`NetConfig::", stringify!($name), "`].")]
        pub fn $name(mut self, v: impl Into<String>) -> Self {
            self.cfg.$name = v.into();
            self
        }
    };
    ($kind:ident $name:ident) => {
        #[doc = concat!("Set [`NetConfig::", stringify!($name), "`].")]
        pub fn $name(mut self, v: $kind) -> Self {
            self.cfg.$name = v;
            self
        }
    };
}

impl NetConfigBuilder {
    for_each_config_field!(builder_setter);

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<NetConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl NetConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> NetConfigBuilder {
        NetConfigBuilder::default()
    }

    /// Range-check the configuration ([`NetConfig::builder`] calls this;
    /// hand-built or JSON-loaded configurations may call it directly).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.node_num == 0 {
            return Err(err("node_num", "a network needs at least one node"));
        }
        if self.uplink == 0 {
            return Err(err("uplink", "each node needs at least one optical uplink"));
        }
        if self.hosts_per_node == 0 {
            return Err(err("hosts_per_node", "each node needs at least one host"));
        }
        if self.slice_ns == 0 {
            return Err(err("slice_ns", "the time slice must be positive"));
        }
        if self.guard_ns >= self.slice_ns {
            return Err(err(
                "guard_ns",
                format!(
                    "guardband ({} ns) must be shorter than the slice ({} ns)",
                    self.guard_ns, self.slice_ns
                ),
            ));
        }
        if self.uplink_gbps == 0 {
            return Err(err("uplink_gbps", "optical uplinks need a positive rate"));
        }
        if self.host_link_gbps == 0 {
            return Err(err("host_link_gbps", "host links need a positive rate"));
        }
        if self.num_queues == 0 {
            return Err(err("num_queues", "ports need at least one calendar queue"));
        }
        if self.queue_capacity == 0 {
            return Err(err("queue_capacity", "calendar queues need a positive byte capacity"));
        }
        if self.workers != 1 {
            return Err(err(
                "workers",
                "reserved, must be 1: a run is one event loop on one thread; \
                 parallelism is across independent runs (`experiments --jobs`)",
            ));
        }
        match self.congestion_policy.as_str() {
            "drop" | "trim" | "wait" | "defer" => {}
            other => {
                return Err(err(
                    "congestion_policy",
                    format!("{other:?} is not one of \"drop\", \"trim\", \"defer\""),
                ))
            }
        }
        Ok(())
    }

    /// Parse from the JSON configuration file format. Missing fields take
    /// their defaults; unknown fields are ignored; wrongly-typed fields are
    /// an error.
    pub fn from_json(json_text: &str) -> Result<Self, json::JsonError> {
        NetConfig::from_value(&json::parse(json_text)?)
    }

    /// [`NetConfig::from_json`] for an already-parsed document. An integer
    /// too large for its field is an error naming it, never a truncation.
    pub fn from_value(doc: &Json) -> Result<Self, json::JsonError> {
        let mut cfg = NetConfig::default();
        for (key, value) in doc.as_obj()? {
            macro_rules! read_field {
                (str $name:ident) => {
                    if key == stringify!($name) {
                        cfg.$name = value.as_str()?.to_string();
                        continue;
                    }
                };
                (bool $name:ident) => {
                    if key == stringify!($name) {
                        cfg.$name = value.as_bool()?;
                        continue;
                    }
                };
                ($_int:ident $name:ident) => {
                    if key == stringify!($name) {
                        cfg.$name = value.as_uint()?;
                        continue;
                    }
                };
            }
            for_each_config_field!(read_field);
        }
        Ok(cfg)
    }

    /// The slice structure for a schedule of `num_slices` slices.
    pub(crate) fn slice_config(&self, num_slices: u32) -> SliceConfig {
        SliceConfig::new(self.slice_ns, num_slices.max(1), self.guard_ns.min(self.slice_ns - 1))
    }

    /// Optical uplink bandwidth.
    pub(crate) fn uplink_bandwidth(&self) -> Bandwidth {
        Bandwidth::gbps(self.uplink_gbps)
    }

    /// Host link bandwidth.
    pub fn host_link_bandwidth(&self) -> Bandwidth {
        Bandwidth::gbps(self.host_link_gbps)
    }

    /// Electrical fabric bandwidth, if enabled.
    pub(crate) fn electrical_bandwidth(&self) -> Option<Bandwidth> {
        (self.electrical_gbps > 0).then(|| Bandwidth::gbps(self.electrical_gbps))
    }

    /// Total hosts in the network.
    pub fn total_hosts(&self) -> u32 {
        self.node_num * self.hosts_per_node
    }
}

impl ToJson for NetConfig {
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            macro_rules! write_field {
                ($_kind:ident $name:ident) => {
                    w.field(stringify!($name), &self.$name);
                };
            }
            for_each_config_field!(write_field);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let c = NetConfig { node_num: 108, uplink: 6, ..Default::default() };
        let j = json::pretty(&c);
        let back = NetConfig::from_json(&j).expect("to_json output round-trips");
        assert_eq!(back.node_num, 108);
        assert_eq!(back.uplink, 6);
    }

    #[test]
    fn partial_json_uses_defaults() {
        // The paper's Fig. 5 style config: only the fields users care about.
        let c =
            NetConfig::from_json(r#"{"node":"host","node_num":128,"uplink":2,"slice_ns":2000}"#)
                .expect("literal is a valid partial config");
        assert_eq!(c.node_num, 128);
        assert_eq!(c.uplink, 2);
        assert_eq!(c.slice_ns, 2_000);
        assert_eq!(c.hosts_per_node, 1); // default
    }

    #[test]
    fn an_old_scenario_s_config_still_parses() {
        // A key the struct no longer has (the defer window) is ignored, and
        // `"wait"` is a spelling of `"defer"`.
        let old =
            NetConfig::from_json(r#"{"defer_max_extra_slices":4,"congestion_policy":"wait"}"#)
                .expect("unknown keys are ignored");
        assert_eq!((old.congestion_policy.as_str(), old.validate()), ("wait", Ok(())));
    }

    #[test]
    fn derived_values() {
        let c =
            NetConfig { node_num: 8, hosts_per_node: 6, uplink_gbps: 100, ..Default::default() };
        assert_eq!(c.total_hosts(), 48);
        assert_eq!(c.uplink_bandwidth(), Bandwidth::gbps(100));
        assert!(c.electrical_bandwidth().is_none());
        let sc = c.slice_config(16);
        assert_eq!(sc.num_slices, 16);
    }

    #[test]
    fn guard_clamped_below_slice() {
        let c = NetConfig { slice_ns: 500, guard_ns: 1_000, ..Default::default() };
        let sc = c.slice_config(4);
        assert!(sc.guard_ns < sc.slice_ns);
    }

    #[test]
    fn workers_is_reserved_at_one() {
        let e = NetConfig::builder().workers(4).build().expect_err("workers != 1 is rejected");
        assert_eq!(e.field, "workers");
        assert!(NetConfig::builder().workers(1).build().is_ok());
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(NetConfig::from_json("{not json").is_err());
    }
}
