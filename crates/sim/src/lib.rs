//! # openoptics-sim
//!
//! Discrete-event simulation engine underpinning the OpenOptics framework
//! reproduction. The original OpenOptics system runs on Intel Tofino2
//! switches and Mellanox NICs; this crate provides the deterministic,
//! nanosecond-resolution substrate on which every hardware mechanism of the
//! paper (calendar-queue rotation, per-slice packet generators, clock sync,
//! line-rate drains) is re-created in software.
//!
//! Design goals, in order: **determinism** (a seed fully determines a run),
//! **simplicity** (no macro or type tricks), and **speed** (binary-heap event
//! queue, zero allocation on the hot path where practical).
//!
//! The crate is intentionally generic: it knows nothing about packets,
//! switches, or optics. Higher layers define their event types and drive
//! [`EventQueue`] / [`run`].

pub mod bytequeue;
/// Checked narrowing conversions: [`cast::to_u32`] and friends.
pub mod cast;
pub mod engine;
pub mod event;
pub mod hash;
pub mod rate;
pub mod rng;
pub mod time;

pub use bytequeue::ByteQueue;
pub use engine::{run, run_while, World};
pub use event::{EventQueue, QueueStats};
pub use rate::Bandwidth;
pub use rng::SimRng;
pub use time::{SimTime, SliceConfig, MS, NS, SEC, US};

/// The nearest rank of the `numer / denom` quantile among `n` sorted
/// samples, 1-based: ⌈n·numer/denom⌉ clamped to [1, n], in integers (0
/// when `n` is 0). The sample is `sorted[rank - 1]`; every percentile in
/// the workspace is read this way.
pub fn nearest_rank(n: usize, numer: u64, denom: u64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (n as u128 * u128::from(numer)).div_ceil(u128::from(denom));
    usize::try_from(rank).unwrap_or(n).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::nearest_rank;

    #[test]
    fn nearest_rank_is_the_ceiling_clamped_to_the_samples() {
        assert_eq!(nearest_rank(100, 1, 2), 50);
        assert_eq!(nearest_rank(101, 1, 2), 51);
        // p99.9 of 1,000 samples is the 999th, not the maximum.
        assert_eq!(nearest_rank(1_000, 999, 1_000), 999);
        assert_eq!(nearest_rank(1_000, 99_900, 100_000), 999);
        assert_eq!((nearest_rank(10, 0, 1), nearest_rank(10, 3, 1)), (1, 10));
        assert_eq!(nearest_rank(usize::MAX, u64::MAX, 1), usize::MAX);
        assert_eq!(nearest_rank(0, 1, 2), 0);
    }
}
