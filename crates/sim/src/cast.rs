//! Checked narrowing conversions for simulation quantities.
//!
//! Silent truncation is a determinism hazard: a sim-time delta or byte
//! count that overflows a narrowing `as` cast produces a *valid-looking*
//! wrong number, and the run diverges without any error. The oolint
//! `numeric-cast` ratchet counts every narrowing `as` in sim-path crates;
//! hot-path sites use these helpers instead, which panic loudly at the
//! moment of truncation rather than corrupting simulated state.
//!
//! The helpers are `#[inline]` wrappers over `try_from` — on the hot path
//! the bounds are structurally guaranteed (e.g. a segment length already
//! clamped to the MSS), so the branch predicts perfectly and the cost is
//! noise; the value is the loud failure if a refactor ever breaks the
//! clamp.

/// `u64 -> u32` with a loud failure on truncation. For quantities already
/// bounded by construction (segment lengths clamped to the MSS, ranks
/// bounded by the ring size).
#[inline]
pub fn to_u32(v: u64) -> u32 {
    u32::try_from(v).expect("u64 value exceeds u32 range; upstream clamp is broken")
}

/// `u64 -> u8` with a loud failure on truncation. For small structural
/// counts (hop counts, port indices) bounded by topology shape.
#[inline]
pub fn to_u8(v: u64) -> u8 {
    u8::try_from(v).expect("u64 value exceeds u8 range; upstream clamp is broken")
}

/// `usize -> u32` for container indices that are structurally bounded by a
/// node, slice or queue count (all `u32` quantities in this workspace).
/// The common shape is `NodeId(idx_u32(i))` when iterating with
/// `enumerate()` over a per-node container.
#[inline]
pub fn idx_u32(v: usize) -> u32 {
    u32::try_from(v).expect("index exceeds u32 range; container outgrew its u32-sized domain")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_range_values_pass_through() {
        assert_eq!(to_u32(0), 0);
        assert_eq!(to_u32(u32::MAX as u64), u32::MAX);
        assert_eq!(to_u8(255), u8::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds u32 range")]
    fn truncation_panics_loudly() {
        to_u32(u32::MAX as u64 + 1);
    }
}
