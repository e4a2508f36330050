//! Link bandwidth and serialization-time arithmetic.

use std::fmt;

use crate::cast::to_u64;

/// A link bandwidth, stored in bits per second.
///
/// The conversions here are the ones the paper leans on for its guardband
/// arithmetic: e.g. the 725 B queue-occupancy estimation error "translates
/// to 58 ns delay under 100 Gbps bandwidth" (§7) — that is
/// `Bandwidth::gbps(100).tx_time_ns(725) == 58`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// From gigabits per second.
    #[inline]
    pub const fn gbps(g: u64) -> Self {
        Bandwidth(g * 1_000_000_000)
    }

    /// Raw bits per second.
    #[inline]
    pub const fn bps(self) -> u64 {
        self.0
    }

    /// Bandwidth as fractional Gbps (for reporting).
    #[inline]
    pub(crate) fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to serialize `bytes` onto the wire, in ns, rounded to nearest.
    /// Every packet of every hop asks this, so the division is 64-bit when
    /// the numerator fits (anything under ~2.3 GB) and 128-bit otherwise,
    /// so multi-gigabyte transfers still don't overflow.
    #[inline]
    pub fn tx_time_ns(self, bytes: u64) -> u64 {
        debug_assert!(self.0 > 0);
        match bytes.checked_mul(8 * 1_000_000_000).and_then(|n| n.checked_add(self.0 / 2)) {
            Some(n) => n / self.0,
            None => {
                to_u64((bytes as u128 * 8 * 1_000_000_000 + self.0 as u128 / 2) / self.0 as u128)
            }
        }
    }

    /// Bytes transmittable in `ns` nanoseconds at this rate (floor); 64-bit
    /// arithmetic when the product fits, 128-bit otherwise.
    #[inline]
    pub fn bytes_in_ns(self, ns: u64) -> u64 {
        match self.0.checked_mul(ns) {
            Some(bit_ns) => bit_ns / (8 * 1_000_000_000),
            None => to_u64(self.0 as u128 * ns as u128 / 8 / 1_000_000_000),
        }
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.1}Gbps", self.as_gbps_f64())
        } else {
            write!(f, "{:.1}Mbps", self.0 as f64 / 1e6)
        }
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serialization_times_match_paper_arithmetic() {
        // §7: 725 B at 100 Gbps is 58 ns.
        assert_eq!(Bandwidth::gbps(100).tx_time_ns(725), 58);
        // A 1500 B MTU frame at 100 Gbps is 120 ns.
        assert_eq!(Bandwidth::gbps(100).tx_time_ns(1500), 120);
        // At 10 Gbps it is 1.2 us.
        assert_eq!(Bandwidth::gbps(10).tx_time_ns(1500), 1200);
    }

    #[test]
    fn bytes_in_interval() {
        // §A: line-rate drain per 50 ns update interval at 100 Gbps = 625 B.
        assert_eq!(Bandwidth::gbps(100).bytes_in_ns(50), 625);
        // One full 2 us slice at 100 Gbps carries 25 kB.
        assert_eq!(Bandwidth::gbps(100).bytes_in_ns(2_000), 25_000);
    }

    #[test]
    fn no_overflow_on_large_transfers() {
        // 20 MB at 100 Gbps = 1.6 ms.
        let t = Bandwidth::gbps(100).tx_time_ns(20_000_000);
        assert_eq!(t, 1_600_000);
        // 1 TB at 1 Mbps doesn't overflow.
        let t = Bandwidth(1_000_000).tx_time_ns(1_000_000_000_000);
        assert_eq!(t, 8_000_000_000_000_000);
    }

    /// The all-`u128` formulas both conversions used before they took the
    /// `u64` path when it fits.
    fn tx_time_ns_wide(rate: u64, bytes: u64) -> u64 {
        to_u64((bytes as u128 * 8 * 1_000_000_000 + rate as u128 / 2) / rate as u128)
    }

    fn bytes_in_ns_wide(rate: u64, ns: u64) -> u64 {
        to_u64(rate as u128 * ns as u128 / 8 / 1_000_000_000)
    }

    proptest! {
        #[test]
        fn narrow_and_wide_paths_agree(
            rate in 1_000_000_000u64..=1_600_000_000_000,
            bytes in 0u64..=1 << 40,
            // At most 200 bytes per ns: every window whose byte count fits u64.
            ns in 0..=u64::MAX / 200,
        ) {
            let bw = Bandwidth(rate);
            prop_assert_eq!(bw.tx_time_ns(bytes), tx_time_ns_wide(rate, bytes));
            prop_assert_eq!(bw.bytes_in_ns(ns), bytes_in_ns_wide(rate, ns));
            // Either side of the edge where each product stops fitting a u64.
            let edge_bytes = u64::MAX / 8_000_000_000;
            let edge_ns = u64::MAX / rate;
            for d in 0..3 {
                let (b, n) = (edge_bytes - 1 + d, edge_ns - 1 + d);
                prop_assert_eq!(bw.tx_time_ns(b), tx_time_ns_wide(rate, b));
                prop_assert_eq!(bw.bytes_in_ns(n), bytes_in_ns_wide(rate, n));
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Bandwidth::gbps(100)), "100.0Gbps");
        assert_eq!(format!("{}", Bandwidth(250_000_000)), "250.0Mbps");
    }
}
