//! A live run under control-plane management.
//!
//! A [`Session`] owns a deployed
//! [`OpenOpticsNet`](openoptics_core::OpenOpticsNet) plus the journal of
//! every control-plane operation applied to it. The journal is what makes
//! [`Session::checkpoint`] cheap and [`Session::restore`] exact: restore
//! rebuilds the network from the embedded scenario and replays the journal
//! through the same public API the live session used, so the restored
//! engine is byte-identical to one that never stopped.

use std::fmt::Write;

use openoptics_core::json::{self, Text};
use openoptics_core::OpenOpticsNet;
use openoptics_proto::HostId;
use openoptics_sim::SimTime;

use crate::checkpoint::{Checkpoint, Op};
use crate::scenario::{at, build_fault_plan, Scenario, ScenarioError};

/// A deployed scenario being stepped and mutated on demand.
#[derive(Clone)]
pub struct Session {
    scenario: Scenario,
    net: OpenOpticsNet,
    journal: Vec<Op>,
}

impl Session {
    /// Deploy a scenario.
    pub fn new(scenario: Scenario) -> Result<Session, ScenarioError> {
        let net = scenario.build()?;
        Ok(Session { scenario, net, journal: Vec::new() })
    }

    /// The scenario this session was deployed from.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The underlying network, for read-only inspection.
    pub fn net(&self) -> &OpenOpticsNet {
        &self.net
    }

    /// Current simulated time, ns.
    pub fn now_ns(&self) -> u64 {
        self.net.now().0
    }

    /// The scenario's default run horizon, ns.
    pub fn stop_ns(&self) -> u64 {
        self.scenario.stop_ns
    }

    /// Operations journaled so far, in application order.
    pub fn journal(&self) -> &[Op] {
        &self.journal
    }

    /// Advance simulated time to `ns` (no-op if already there or past).
    ///
    /// Consecutive advances collapse to one journal entry: where the
    /// driver pauses does not affect event delivery, so the merged entry
    /// replays identically and the journal stays proportional to the
    /// number of *mutations*, not the number of steps.
    pub fn run_until(&mut self, ns: u64) {
        let now = self.now_ns();
        if ns <= now {
            return;
        }
        self.net.run_for(SimTime(ns - now));
        match self.journal.last_mut() {
            Some(Op::RunUntil { ns: last }) => *last = ns,
            _ => self.journal.push(Op::RunUntil { ns }),
        }
    }

    /// Advance simulated time by `dur_ns`.
    pub fn run_for(&mut self, dur_ns: u64) {
        let target = self.now_ns().saturating_add(dur_ns);
        self.run_until(target);
    }

    /// Apply one mutation, journaling it on success.
    pub fn apply(&mut self, op: Op) -> Result<(), ScenarioError> {
        match &op {
            Op::RunUntil { ns } => {
                self.run_until(*ns);
                return Ok(()); // run_until journals (and merges) itself
            }
            Op::AddFlow { at_ns, src, dst, bytes, transport } => {
                let total = self.scenario.config.total_hosts();
                for (h, field) in [(*src, "src"), (*dst, "dst")] {
                    if h >= total {
                        return Err(ScenarioError::new(
                            format!("add_flow.{field}"),
                            format!("host {h} out of range (network has {total} hosts)"),
                        ));
                    }
                }
                if *at_ns < self.now_ns() {
                    return Err(ScenarioError::new(
                        "add_flow.at_ns",
                        format!("start {} ns is before sim time {} ns", at_ns, self.now_ns()),
                    ));
                }
                self.net.add_flow(
                    SimTime(*at_ns),
                    HostId(*src),
                    HostId(*dst),
                    *bytes,
                    transport.kind(),
                );
            }
            Op::InjectFaults { faults } => {
                let plan = build_fault_plan(faults, "inject_faults")?;
                self.net.inject_faults(&plan).map_err(at("inject_faults"))?;
            }
            Op::Reconfigure { tm } => {
                let matrix = tm.matrix(self.scenario.config.node_num);
                self.net.reconfigure(&matrix).map_err(at("reconfigure"))?;
            }
        }
        self.journal.push(op);
        Ok(())
    }

    /// Snapshot the run as a portable document: the scenario plus the
    /// journal that reproduces the current engine state by replay.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            at_ns: self.now_ns(),
            scenario: self.scenario.clone(),
            journal: self.journal.clone(),
        }
    }

    /// Rebuild a session from a checkpoint by replaying its journal.
    ///
    /// Replay re-executes each operation through the same methods the
    /// original session used, so the restored engine — event queue order,
    /// RNG streams, telemetry counters, span buffers — matches an
    /// uninterrupted run exactly; continuing to any later time produces
    /// byte-identical exports. Restore cost is proportional to simulated
    /// time; see [`Session::fork`] for the O(state) in-memory alternative,
    /// which the `restore` RPC answers with instead when a live session of
    /// its control plane is at the checkpoint already. This function always
    /// replays.
    ///
    /// The second parameter is reserved: `benchmark/` passes `Some(1)` here.
    pub fn restore(ckpt: Checkpoint, _reserved: Option<usize>) -> Result<Session, ScenarioError> {
        let mut s = Session::new(ckpt.scenario)?;
        for op in ckpt.journal {
            s.apply(op)?;
        }
        if s.now_ns() != ckpt.at_ns {
            return Err(ScenarioError::new(
                "at_ns",
                format!(
                    "journal replay reached {} ns but the checkpoint was taken at {} ns",
                    s.now_ns(),
                    ckpt.at_ns
                ),
            ));
        }
        Ok(s)
    }

    /// Branch the run in memory: [`Clone`], which copies the network with
    /// everything it owns and so shares nothing with the original. The
    /// `fork` RPC and the benchmark name it.
    ///
    /// Forking is O(state) and keeps the warm engine, so it is the cheap
    /// way to explore what-if branches (inject a fault in one branch, not
    /// the other) from the same instant. Both branches carry the full
    /// journal, so either can still be checkpointed to disk later.
    pub fn fork(&self) -> Session {
        self.clone()
    }

    /// Render the canonical export bundle: sim time, telemetry snapshot,
    /// fault report, FCT summary and (when span recording is on) the span
    /// report, in one deterministic document.
    ///
    /// This is the byte-identity probe the CI determinism gates compare:
    /// two engines in the same state render the same bundle.
    pub fn export_bundle(&self) -> String {
        json::text(|out| self.write_bundle(out))
    }

    /// [`Session::export_bundle`] into a text sink.
    pub(crate) fn write_bundle(&self, out: &mut Text<'_>) {
        let _ = writeln!(out, "== openoptics-ctl export @ {} ns ==", self.now_ns());
        let _ = out.write_str("-- telemetry --\n");
        out.json(&self.net.telemetry_snapshot());
        let _ = out.write_str("\n-- faults --\n");
        let report = self.net.fault_report();
        let _ = writeln!(
            out,
            "delivered={} dropped={} corrupted={} retransmitted={} rerouted={} missed_rotations={} paused_tx={}",
            report.delivered,
            report.dropped,
            report.corrupted,
            report.retransmitted,
            report.rerouted,
            report.missed_rotations,
            report.paused_tx,
        );
        for (i, f) in report.per_fault.iter().enumerate() {
            let _ = writeln!(
                out,
                "fault[{i}]: activations={} dropped={} corrupted={} missed_rotations={} paused_tx={} reroutes={}",
                f.activations, f.dropped, f.corrupted, f.missed_rotations, f.paused_tx, f.reroutes,
            );
        }
        let _ = out.write_str("-- fct --\n");
        let fct = self.net.fct();
        let _ =
            writeln!(out, "completed={} outstanding={}", fct.completed().len(), fct.outstanding());
        let slo = self.net.slo_summaries();
        if !slo.is_empty() {
            let _ = out.write_str("-- slo --\n");
            for s in &slo {
                out.json(s);
                let _ = out.write_str("\n");
            }
        }
        // The section is left out, header and all, when span recording is off.
        let before = out.mark();
        let _ = out.write_str("-- spans --\n");
        if self.net.write_span_report(out).is_err() {
            out.rewind(before);
        }
    }
}
