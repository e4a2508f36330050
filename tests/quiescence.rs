//! Every Fig. 10 cell drains: once its memcached operations are done, no
//! packet is left in the fabric and no ToR transmits.

mod drain;

use drain::{drain, Drained, QUIET};
use openoptics::prelude::SimTime;
use openoptics_bench::{fig10_cell, FIG10_CELLS};

/// Fig. 10's memcached window, ms.
const WINDOW_MS: u64 = 30;

/// Fig. 10 cell `cell` at `seed`, run until its operations are done (or
/// 400 ms have passed), then four cycles more.
fn drained_cell(cell: usize, seed: u64) -> Drained {
    let mut net = fig10_cell(cell, WINDOW_MS, seed);
    drain(&mut net, SimTime::from_ms(WINDOW_MS), SimTime::from_ms(400), 4)
}

/// The cell where packets once circled for ever: `awgr-tunable-laser`
/// (2 µs slices) under UCMP. At seeds 4, 7 and 15, 4, 1 and 1 packets
/// stayed live and the ToRs kept transmitting, while `defer` moved a
/// congested packet onto a later slice's circuit to a ToR its path never
/// named.
#[test]
fn the_awgr_ucmp_cell_drains() {
    const AWGR_UCMP: usize = 1;
    for seed in [4, 7, 15] {
        assert_eq!(drained_cell(AWGR_UCMP, seed), QUIET, "seed {seed}");
    }
}

/// Every cell at seeds 1-16 (run in release: `cargo test --release --test
/// quiescence -- --ignored`).
#[test]
#[ignore = "128 runs of a 30 ms window; CI runs it in release"]
fn every_fig10_cell_drains_at_seeds_1_to_16() {
    let mut failed = vec![];
    for cell in 0..FIG10_CELLS {
        for seed in 1..=16 {
            let drained = drained_cell(cell, seed);
            if drained != QUIET {
                failed.push((cell, seed, drained));
            }
        }
    }
    assert!(failed.is_empty(), "{failed:#?}");
}
