//! Fixture: a library crate off the sim path committing each host-state read.

use std::collections::HashMap;

/// Every line below is a finding.
pub fn host_state() -> usize {
    let _m: HashMap<u8, u8> = HashMap::new();
    let _v = std::env::var("X");
    let _b = std::fs::read("x");
    let _t = std::thread::current();
    0
}

/// The same reads, each with a justified allow.
pub fn allowed() -> usize {
    // oolint: allow(nondet-map, fixture: keyed lookups only, never iterated)
    let _m: std::collections::HashMap<u8, u8> = Default::default();
    // oolint: allow(wall-clock, fixture: CLI boundary)
    let _v = std::env::var("X");
    let _b = std::fs::read("x"); // oolint: allow(wall-clock, fixture: CLI boundary)
    let _t = std::thread::current(); // oolint: allow(wall-clock, fixture: log prefix only)
    0
}

#[cfg(test)]
mod tests {
    #[test]
    fn host_state_is_fine_in_tests() {
        let _v = std::env::var("X");
        let _b = std::fs::read("x");
        let _t = std::thread::current();
    }
}
