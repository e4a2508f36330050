//! Fixture root package: off the sim path, and std maps are still banned.

use std::collections::HashMap;

pub fn one(v: Option<u8>) -> u8 {
    let _m: HashMap<u8, u8> = HashMap::new();
    v.unwrap()
}
