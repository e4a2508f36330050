//! Fixture: the bench harness may read host state, but not use std maps.

/// Only the std set is a finding here.
pub fn harness() -> usize {
    let _v = std::env::var("X");
    let _b = std::fs::read("x");
    let _t = std::thread::current();
    let _m: std::collections::HashSet<u8> = Default::default();
    0
}
