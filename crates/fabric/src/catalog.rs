//! OCS device catalog.
//!
//! Case III of the paper (§6, Fig. 10) samples four recently proposed OCS
//! technologies and emulates RotorNet on each by "inputting their physical
//! characteristics and OCS structures into the static configuration file".
//! This module is that catalog: device-level characteristics that the
//! network layer consumes — reconfiguration delay (which lower-bounds the
//! guardband and hence the slice duration via the 10x duty-cycle rule, §7),
//! port count, and a relative cost figure ("OCS costs rise substantially
//! with shorter time slices").

/// Device-level characteristics of an optical circuit switch technology.
#[derive(Clone, Debug, PartialEq)]
pub struct OcsProfile {
    /// Technology name.
    pub name: &'static str,
    /// Ports per device.
    pub port_count: u32,
    /// Circuit reconfiguration delay, ns. The slice guardband must cover
    /// `max(reconfig delay, system delays)` (§7).
    pub reconfig_ns: u64,
    /// Minimum practical time-slice duration, ns (≈ 10x the guardband for a
    /// ≥90% duty cycle).
    pub min_slice_ns: u64,
    /// Relative per-port cost (arbitrary units, for the cost/performance
    /// trade-off narrative of Case III).
    pub relative_cost: f64,
}

impl OcsProfile {
    /// The guardband this device needs: its reconfiguration delay, floored
    /// by the 200 ns commodity-system guardband OpenOptics itself requires
    /// (§7).
    pub fn guardband_ns(&self) -> u64 {
        self.reconfig_ns.max(200)
    }
}

/// The four OCS technologies sampled for Fig. 10, ordered by supported
/// slice duration. Characteristics follow the cited literature:
/// AWGR + tunable lasers (Sirius) reconfigure in nanoseconds; rotor
/// switches (RotorNet) in ~10 µs; piezoelectric/PLZT beam-steering in tens
/// of µs; 3D MEMS (Polatis-class) in milliseconds — here its "fast" small-
/// radix variant pushed to a 200 µs slice, the paper's largest Fig. 10 point.
pub const OCS_CATALOG: [OcsProfile; 4] = [
    OcsProfile {
        name: "awgr-tunable-laser",
        port_count: 128,
        reconfig_ns: 100,
        min_slice_ns: 2_000,
        relative_cost: 16.0,
    },
    OcsProfile {
        name: "rotor",
        port_count: 128,
        reconfig_ns: 2_000,
        min_slice_ns: 20_000,
        relative_cost: 4.0,
    },
    OcsProfile {
        name: "plzt-beam-steering",
        port_count: 64,
        reconfig_ns: 10_000,
        min_slice_ns: 100_000,
        relative_cost: 2.0,
    },
    OcsProfile {
        name: "fast-mems",
        port_count: 64,
        reconfig_ns: 20_000,
        min_slice_ns: 200_000,
        relative_cost: 1.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use openoptics_sim::SliceConfig;

    #[test]
    fn catalog_is_ordered_by_slice_duration() {
        for w in OCS_CATALOG.windows(2) {
            assert!(w[0].min_slice_ns < w[1].min_slice_ns);
        }
    }

    #[test]
    fn faster_devices_cost_more() {
        for w in OCS_CATALOG.windows(2) {
            assert!(w[0].relative_cost > w[1].relative_cost);
        }
    }

    #[test]
    fn guardband_floored_at_commodity_limit() {
        // The AWGR reconfigures in 100 ns but the system guardband (sync +
        // rotation variance + EQO error) still needs 200 ns.
        assert_eq!(OCS_CATALOG[0].guardband_ns(), 200);
        assert_eq!(OCS_CATALOG[1].guardband_ns(), 2_000);
    }

    #[test]
    fn duty_cycle_at_min_slice_is_at_least_90pct() {
        for d in &OCS_CATALOG {
            let duty = SliceConfig::new(d.min_slice_ns, 1, d.guardband_ns()).duty_cycle();
            assert!(duty >= 0.9 - 1e-9, "{} duty cycle {duty}", d.name);
        }
    }
}
