//! Checked narrowing conversions for simulation quantities.
//!
//! Silent truncation is a determinism hazard: a sim-time delta or byte
//! count that overflows a narrowing `as` cast produces a *valid-looking*
//! wrong number, and the run diverges without any error. Clippy's
//! `cast_possible_truncation` (denied workspace-wide, DESIGN.md
//! "Determinism invariants & lint policy") rejects every narrowing `as`;
//! sites off the hot path use these helpers instead, which panic loudly at
//! the moment of truncation rather than corrupting simulated state.
//!
//! The checked helpers are `#[inline]` wrappers over `try_from` — the
//! bounds are structurally guaranteed (e.g. a segment length already
//! clamped to the MSS), so the branch predicts perfectly and the cost is
//! noise; the value is the loud failure if a refactor ever breaks the
//! clamp. `to_usize` is the one unchecked helper: on the 64-bit hosts
//! this workspace builds for it cannot truncate, which a compile-time
//! assertion pins, so the event queue, the sketch and the span table index
//! by `u64` ids without a runtime check.

const _: () = assert!(usize::BITS == 64, "u64 ids index memory as usize: 64-bit targets only");

/// `u64 -> usize` for ids and indices: a plain `as`, lossless because
/// `usize` is 64 bits wide (asserted at compile time above).
#[inline]
#[expect(clippy::cast_possible_truncation, reason = "usize is 64 bits wide, asserted above")]
pub const fn to_usize(v: u64) -> usize {
    v as usize
}

/// `u128 -> u64` with a loud failure on truncation. For the result of a
/// multiply-divide widened to 128 bits so the product cannot overflow.
#[inline]
pub(crate) fn to_u64(v: u128) -> u64 {
    u64::try_from(v).expect("u128 value exceeds u64 range; widened arithmetic overflowed")
}

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
        assert_eq!(to_u64(u64::MAX as u128), u64::MAX);
        assert_eq!(to_usize(u64::MAX), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds u32 range")]
    fn truncation_panics_loudly() {
        to_u32(u32::MAX as u64 + 1);
    }
}
