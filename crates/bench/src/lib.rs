//! # openoptics-bench
//!
//! The experiment harness: one module per table/figure of the OpenOptics
//! evaluation (§6–§7 and the appendices), each exposing a `run(scale)`
//! function that regenerates the paper's rows/series and returns them as
//! structured data. [`EXPERIMENTS`] is the one table of what the
//! `experiments` binary can run; the binary prints each entry's section
//! (fanning independent simulation points over the `par` worker pool).
//!
//! The harness's stdout is the repository's byte-stable oracle
//! (`experiments_full.txt`, `sweep_quick.txt`); it records no performance
//! numbers — those come only from the standalone `benchmark/` package.
//!
//! Scale: the paper's testbed is 8 ToRs at 100 Gbps with a 108-ToR emulated
//! benchmark; the simulations here default to the same 8-ToR fabric (and a
//! reduced-ToR stand-in for the 108-ToR load tests) so every experiment
//! finishes in seconds to minutes. Absolute numbers therefore differ from
//! the paper; the *shape* — orderings, factors, crossovers — is the
//! reproduction target (see EXPERIMENTS.md).
#![expect(
    clippy::disallowed_methods,
    reason = "the harness measures wall time, reads argv and writes artifacts by design"
)]

mod ablations;
mod faults;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig8;
mod fig9;
mod minslice;
mod par;
/// Per-service SLO accounting under a fault window (`experiments slo`).
mod slo;
/// The architecture × routing composition matrix (`experiments sweep`).
mod sweep;
mod table2;
mod table3;
mod table4;
mod util;

pub use fig10::{fig10_cell, FIG10_CELLS};
pub use fig8::{render_mice, run_mice, run_mice_with_spans, MiceRow, SpanCapture};
pub use par::{set_jobs, take_events, take_metrics};
use util::Table;

/// The flags every experiment body receives.
#[derive(Clone, Copy, Debug, Default)]
pub struct Opts {
    /// `--quick`: shrink measurement windows for smoke runs.
    pub quick: bool,
}

impl Opts {
    /// The `--quick` value of a window/sample-count pair, else the full one.
    fn pick<T>(self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// One row of the experiment table.
pub struct Experiment {
    /// CLI id (`experiments <id>`).
    pub id: &'static str,
    /// Section title, printed as `=== <title> ===`.
    pub title: &'static str,
    /// Whether `experiments all` runs it.
    pub in_all: bool,
    /// Print the experiment's tables to stdout.
    pub run: fn(Opts),
    /// The experiment's table at one seed, for `--seeds`; `None` for an
    /// experiment that does not take one.
    seeded: Option<fn(Opts, u64) -> Table>,
}

impl Experiment {
    /// Whether the experiment takes `--seeds`.
    pub fn takes_seeds(&self) -> bool {
        self.seeded.is_some()
    }

    /// Print the experiment's table over seeds `1..=k` (`k >= 1`), each
    /// cell summarized across them (`median [min, max]` for a number).
    pub fn run_seeds(&self, o: Opts, k: u64) {
        let table = self.seeded.expect("the experiment takes seeds");
        let tables: Vec<Table> = (1..=k).map(|seed| table(o, seed)).collect();
        let summary = Table::ensemble(&tables).render();
        print!("-- median [min, max] over seeds 1..={k} --\n{summary}");
    }
}

/// Every experiment, in `all` order. Dispatch, the `all` sequence, the
/// usage string and the unknown-id error are all read from this table.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig8a",
        title: "Fig. 8a — memcached mice FCTs per architecture",
        in_all: true,
        run: run_fig8a,
        seeded: None,
    },
    Experiment {
        id: "fig8b",
        title: "Fig. 8b — Gloo ring-allreduce completion per architecture",
        in_all: true,
        run: run_fig8b,
        seeded: None,
    },
    Experiment {
        id: "fig9",
        title: "Fig. 9 — TCP throughput & reordering (iperf)",
        in_all: true,
        run: |o| print!("{}", fig9::render(&fig9::run(o.pick(10, 50)))),
        seeded: None,
    },
    Experiment {
        id: "fig10",
        title: "Fig. 10 — mice FCT vs OCS slice duration (VLB / UCMP)",
        in_all: true,
        run: |o| print!("{}", fig10::render(&fig10::run(o.pick(8, 30), 7))),
        seeded: Some(|o, seed| fig10::table(&fig10::run(o.pick(8, 30), seed))),
    },
    Experiment {
        id: "fig11",
        title: "Fig. 11 — switch-to-switch delay vs packet size",
        in_all: true,
        run: |o| print!("{}", fig11::render(&fig11::run(o.pick(500, 5_000)))),
        seeded: None,
    },
    Experiment {
        id: "fig12",
        title: "Fig. 12 — EQO error vs update interval",
        in_all: true,
        run: |o| print!("{}", fig12::render(&fig12::run(o.pick(2_000, 20_000)))),
        seeded: None,
    },
    Experiment {
        id: "fig13",
        title: "Fig. 13 — UDP RTT distribution (emulated vs real OCS)",
        in_all: true,
        run: |o| print!("{}", fig13::render(&fig13::run(o.pick(400, 3_000)))),
        seeded: None,
    },
    Experiment {
        id: "fig14",
        title: "Fig. 14 — offload RTT stability (libvma vs kernel)",
        in_all: true,
        run: |o| print!("{}", fig14::render(&fig14::run(o.pick(2_000, 20_000)))),
        seeded: None,
    },
    Experiment {
        id: "table2",
        title: "Table 2 — Tofino2 resource usage (108-ToR)",
        in_all: true,
        run: |_| print!("{}", table2::render(&table2::run())),
        seeded: None,
    },
    Experiment {
        id: "table3",
        title: "Table 3 — p99.9 buffer usage (300us slices, 40% load)",
        in_all: true,
        run: run_table3,
        seeded: None,
    },
    Experiment {
        id: "table4",
        title: "Table 4 — congestion detection & push-back ablation (HOHO, 70% load)",
        in_all: true,
        run: |o| print!("{}", table4::render(&table4::run(o.pick(6, 30), None))),
        seeded: Some(|o, seed| table4::table(&table4::run(o.pick(6, 30), Some(seed)))),
    },
    Experiment {
        id: "ablations",
        title: "Ablations — guardband / congestion response / EQO / offload lead",
        in_all: true,
        run: |o| print!("{}", ablations::render(o.pick(6, 20))),
        seeded: None,
    },
    Experiment {
        id: "minslice",
        title: "§7 — minimum time-slice derivation",
        in_all: true,
        run: |_| print!("{}", minslice::render(&minslice::run())),
        seeded: None,
    },
    Experiment {
        id: "faults",
        title: "Faults — injected-failure degradation & recovery",
        in_all: true,
        run: |o| print!("{}", faults::table(&faults::run(o.pick(40, 80), 7)).render()),
        seeded: Some(|o, seed| faults::table(&faults::run(o.pick(40, 80), seed))),
    },
    Experiment {
        id: "slo",
        title: "SLO — per-service latency objectives under a fault window",
        in_all: true,
        run: |o| {
            let (rows, samples) = slo::run(o.pick(40, 80), 7);
            print!("{}", slo::render(&rows, samples));
        },
        seeded: Some(|o, seed| slo::table(&slo::run(o.pick(40, 80), seed).0)),
    },
    // Not part of `all`: the composition matrix is a harness gate (CI
    // byte-identity + compatibility coverage against `sweep_quick.txt`),
    // not a paper figure, and `experiments_full.txt` stays byte-stable
    // without it.
    Experiment {
        id: "sweep",
        title: "Sweep — architecture x routing composition matrix",
        in_all: false,
        run: |o| print!("{}", sweep::render(&sweep::run(o.quick))),
        seeded: None,
    },
];

/// The experiments a CLI id selects: the one with that id, every `in_all`
/// row for `all`, or none for an unknown id.
pub fn select(which: &str) -> Vec<&'static Experiment> {
    EXPERIMENTS.iter().filter(|e| if which == "all" { e.in_all } else { e.id == which }).collect()
}

/// The `experiments` usage line, listing every id in table order and the
/// ids `--seeds` takes.
pub fn usage() -> String {
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    let seeded: Vec<&str> = EXPERIMENTS.iter().filter(|e| e.takes_seeds()).map(|e| e.id).collect();
    format!(
        "usage: experiments <{}|all> [--quick] [--jobs N] [--seeds K (ids {})]",
        ids.join("|"),
        seeded.join(", ")
    )
}

fn run_fig8a(o: Opts) {
    let (rows, capture) = fig8::run_mice_with_spans(o.pick(8, 40), 4);
    print!("{}", fig8::render_mice(&rows));
    if let Some(c) = capture {
        write_artifact("fig8a_spans.json", &c.chrome_trace);
        write_artifact("fig8a_span_report.txt", &c.report);
    }
}

fn run_fig8b(o: Opts) {
    for size in o.pick(vec![800_000u64], vec![800_000, 4_000_000, 20_000_000]) {
        println!(
            "\n-- data size {} --",
            if size >= 1_000_000 {
                format!("{}MB", size / 1_000_000)
            } else {
                format!("{}KB", size / 1_000)
            }
        );
        print!("{}", fig8::render_allreduce(&fig8::run_allreduce(size)));
    }
}

fn run_table3(o: Opts) {
    print!("{}", table3::render(&table3::run(o.pick(6, 30))));
}

/// Write one run artifact to the working directory, reporting the outcome
/// on stderr (artifacts are best-effort: a read-only checkout must not
/// abort the run).
fn write_artifact(name: &str, content: &str) {
    match std::fs::write(name, content) {
        Ok(()) => eprintln!("[wrote {name}]"),
        Err(e) => eprintln!("[could not write {name}: {e}]"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ties dispatch to the committed oracle without the 30 s run: the
    /// `all` sequence must be exactly the oracle's section headers.
    #[test]
    fn all_order_matches_the_committed_oracle_sections() {
        let oracle =
            include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments_full.txt"));
        let headers: Vec<&str> = oracle
            .lines()
            .filter_map(|l| l.strip_prefix("=== ").and_then(|l| l.strip_suffix(" ===")))
            .collect();
        let titles: Vec<&str> = select("all").iter().map(|e| e.title).collect();
        assert_eq!(titles, headers);
    }

    #[test]
    fn ids_are_unique_and_select_dispatches_by_id() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert_ne!(e.id, "all", "`all` is reserved for the in_all sequence");
            assert!(EXPERIMENTS[..i].iter().all(|p| p.id != e.id), "duplicate id {}", e.id);
            let picked: Vec<&str> = select(e.id).iter().map(|p| p.id).collect();
            assert_eq!(picked, [e.id]);
            assert!(usage().contains(e.id));
        }
        assert!(select("nope").is_empty());
        assert!(select("all").iter().all(|e| e.id != "sweep"));
    }
}
