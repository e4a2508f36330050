//! Stable hashing for multipath selection.
//!
//! The time-flow table supports per-flow multipath via five-tuple hashing
//! and per-packet multipath via ingress-timestamp hashing (§3). Switch
//! ASICs use fixed hardware hash functions; we mirror that with an explicit
//! FNV-1a so results are stable across Rust releases and platforms (the
//! standard library hasher is deliberately unstable).

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over an arbitrary byte string.
#[inline]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash a flow five-tuple (we identify flows by `(src node, dst node,
/// flow id)` — the simulation's equivalent of the IP/port five-tuple).
#[inline]
pub fn flow_hash(src: u32, dst: u32, flow: u64) -> u64 {
    let mut buf = [0u8; 16];
    buf[0..4].copy_from_slice(&src.to_le_bytes());
    buf[4..8].copy_from_slice(&dst.to_le_bytes());
    buf[8..16].copy_from_slice(&flow.to_le_bytes());
    fnv1a(&buf)
}

/// Hash an ingress timestamp with a per-packet sequence salt, used for
/// packet-level multipath (packet spraying).
#[inline]
pub fn packet_hash(ingress_ns: u64, salt: u64) -> u64 {
    let mut buf = [0u8; 16];
    buf[0..8].copy_from_slice(&ingress_ns.to_le_bytes());
    buf[8..16].copy_from_slice(&salt.to_le_bytes());
    fnv1a(&buf)
}

/// Reduce a hash to an index in `0..n` with multiply-shift (avoids the
/// modulo bias of `h % n` for non-power-of-two `n`).
#[inline]
#[expect(clippy::cast_possible_truncation, reason = "the product's high word is below n")]
pub fn bucket(h: u64, n: usize) -> usize {
    debug_assert!(n > 0);
    ((h as u128 * n as u128) >> 64) as usize
}

/// Multiplier from the Firefox (rustc) "Fx" hash: the fractional part of
/// the golden ratio scaled to 64 bits, which diffuses low-entropy integer
/// keys well under a single multiply.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic [`Hasher`] for trusted integer-like keys
/// (flow ids, node ids, sequence numbers).
///
/// The standard library's default SipHash-1-3 pays for HashDoS resistance
/// on every lookup; simulation-internal maps are keyed by ids the simulator
/// itself allocates, so that defense buys nothing. This is the rustc /
/// Firefox "Fx" scheme: rotate-xor-multiply per word, one multiply per
/// 8 bytes. Like `fnv1a` it is fully deterministic (no per-process random
/// state), so iteration-order-independent uses stay reproducible across
/// runs and platforms.
///
/// [`Hasher`]: std::hash::Hasher
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// [`BuildHasher`](std::hash::BuildHasher) producing [`FxHasher`]s.
pub(crate) type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`]; construct with `FxHashMap::default()`.
#[expect(clippy::disallowed_types, reason = "this alias IS the sanctioned deterministic map")]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`]; construct with `FxHashSet::default()`.
#[expect(clippy::disallowed_types, reason = "this alias IS the sanctioned deterministic set")]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn flow_hash_is_stable_and_sensitive() {
        let h = flow_hash(1, 2, 3);
        assert_eq!(h, flow_hash(1, 2, 3));
        assert_ne!(h, flow_hash(2, 1, 3));
        assert_ne!(h, flow_hash(1, 2, 4));
    }

    #[test]
    fn bucket_in_range_and_spread() {
        let n = 7;
        let mut counts = vec![0usize; n];
        for i in 0..7000u64 {
            let b = bucket(packet_hash(i * 17, i), n);
            assert!(b < n);
            counts[b] += 1;
        }
        // Each bucket should get roughly 1000 +- 20%.
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed bucket count {c}");
        }
    }

    #[test]
    fn bucket_single() {
        assert_eq!(bucket(u64::MAX, 1), 0);
        assert_eq!(bucket(0, 1), 0);
    }

    fn fx_of(v: impl Hash) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn fx_is_deterministic_and_sensitive() {
        assert_eq!(fx_of(42u64), fx_of(42u64));
        assert_ne!(fx_of(42u64), fx_of(43u64));
        assert_ne!(fx_of((1u32, 2u32)), fx_of((2u32, 1u32)));
        // Byte-slice tail must be length-disambiguated.
        assert_ne!(fx_of(&b"ab\0"[..]), fx_of(&b"ab"[..]));
    }

    #[test]
    fn fx_map_works() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, "v");
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&999), Some(&"v"));
        let mut s: FxHashSet<u32> = FxHashSet::default();
        s.insert(7);
        assert!(s.contains(&7));
    }

    #[test]
    fn fx_spreads_sequential_keys() {
        // Sequential ids are the common key pattern; make sure low bits
        // (what HashMap indexes by) are well mixed.
        let n = 64;
        let mut counts = vec![0usize; n];
        for i in 0..6400u64 {
            counts[crate::cast::to_usize(fx_of(i)) % n] += 1;
        }
        for &c in &counts {
            assert!((50..200).contains(&c), "skewed fx bucket count {c}");
        }
    }
}
