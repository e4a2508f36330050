//! FNV-1a-64 over a workload's simulated output.
//!
//! Simulated statistics repeat exactly for a fixed seed, so one digest per
//! workload lets a reviewer confirm that a speed-only change left every
//! completed-flow record and every engine counter untouched. The hash is the
//! benchmark's own (not the program's `fnv1a`), so a later change to the
//! program cannot move it.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a-64.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// Absorb raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Absorb one integer (little-endian, fixed width, so `1, 23` and
    /// `12, 3` hash differently).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest as 16 lowercase hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_fnv1a_vectors() {
        assert_eq!(Fnv::default().hex(), "cbf29ce484222325");
        let mut a = Fnv::default();
        a.bytes(b"a");
        assert_eq!(a.hex(), "af63dc4c8601ec8c");
        let mut f = Fnv::default();
        f.bytes(b"foobar");
        assert_eq!(f.hex(), "85944171f73967e8");
    }

    #[test]
    fn is_stable_and_order_sensitive() {
        let run = |xs: &[u64]| {
            let mut d = Fnv::default();
            xs.iter().for_each(|&x| d.u64(x));
            d.hex()
        };
        assert_eq!(run(&[1, 2, 3]), run(&[1, 2, 3]));
        assert_ne!(run(&[1, 2, 3]), run(&[3, 2, 1]));
        assert_ne!(run(&[1, 23]), run(&[12, 3]));
    }
}
