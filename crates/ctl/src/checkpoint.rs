//! Deterministic checkpoint documents.
//!
//! A checkpoint is *not* a memory dump. It is the scenario (embedded by
//! value, already normalized) plus the **journal**: the exact sequence of
//! control-plane operations applied since deploy. Restoring replays that
//! journal through the same public API, which makes the result correct by
//! construction — the restored engine is the engine an uninterrupted run
//! would have produced, byte-for-byte — and keeps the document small,
//! portable and diffable. The cost is O(t) restore time;
//! [`crate::Session::fork`] is the O(state) in-memory alternative for warm
//! what-if branches (see DESIGN.md for the tradeoff). The `restore` RPC
//! takes it by itself when a session of the same control plane still sits
//! at the checkpoint: scenario, journal and `at_ns` fix the state, so a
//! fork of that session is what the replay would build.

use openoptics_core::json::{self, Json, Reader, ToJson, Writer};

use crate::scenario::{at, list, FaultEntry, Scenario, ScenarioError, TmSpec, TransportSpec};

/// The checkpoint file format version this crate reads and writes.
pub const CHECKPOINT_VERSION: u64 = 1;

/// One journaled control-plane operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Advance simulated time to `ns`. Consecutive entries merge (running
    /// to 10 µs and then to 20 µs journals as one run to 20 µs): event
    /// delivery depends only on the queue contents, never on where the
    /// driver paused, so the merged form replays identically.
    RunUntil {
        /// Target sim time, ns.
        ns: u64,
    },
    /// Schedule a flow mid-run.
    AddFlow {
        /// Start time, ns (at or after the sim time the op was applied).
        at_ns: u64,
        /// Source host.
        src: u32,
        /// Destination host.
        dst: u32,
        /// Transfer size in bytes.
        bytes: u64,
        /// Transport model.
        transport: TransportSpec,
    },
    /// Inject an additional fault campaign mid-run.
    InjectFaults {
        /// The fault windows to add.
        faults: Vec<FaultEntry>,
    },
    /// Swap the routing tables for a new demand matrix mid-run.
    Reconfigure {
        /// The new demand matrix.
        tm: TmSpec,
    },
}

impl ToJson for Op {
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| match self {
            Op::RunUntil { ns } => {
                w.field("op", "run_until");
                w.field("ns", ns);
            }
            Op::AddFlow { at_ns, src, dst, bytes, transport } => {
                w.field("op", "add_flow");
                w.field("at_ns", at_ns);
                w.field("src", src);
                w.field("dst", dst);
                w.field("bytes", bytes);
                w.field("transport", transport);
            }
            Op::InjectFaults { faults } => {
                w.field("op", "inject_faults");
                w.field("faults", faults);
            }
            Op::Reconfigure { tm } => {
                w.field("op", "reconfigure");
                w.field("tm", tm);
            }
        });
    }
}

impl Op {
    /// Read the operation named `op` from the members of `r`: a journal
    /// entry, or the params of the RPC method of the same name (the
    /// methods deliberately use the journal's field names).
    pub(crate) fn from_json(r: Reader<'_>, op: &str) -> Result<Op, ScenarioError> {
        match op {
            "run_until" => Ok(Op::RunUntil { ns: r.req("ns")?.u64()? }),
            "add_flow" => Ok(Op::AddFlow {
                at_ns: r.req("at_ns")?.u64()?,
                src: r.req("src")?.uint()?,
                dst: r.req("dst")?.uint()?,
                bytes: r.req("bytes")?.u64()?,
                transport: TransportSpec::from_json(r.opt("transport"))?,
            }),
            "inject_faults" => Ok(Op::InjectFaults {
                faults: list(Some(r.req("faults")?), FaultEntry::from_json)?,
            }),
            "reconfigure" => Ok(Op::Reconfigure { tm: TmSpec::from_json(r.req("tm")?)? }),
            other => Err(r.req("op")?.err(format!(
                "unknown op `{other}` (want run_until, add_flow, inject_faults or reconfigure)"
            ))),
        }
    }
}

/// A saved run: scenario by value, sim time reached, and the operation
/// journal that reproduces the engine state.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Sim time the run had reached when the checkpoint was taken, ns.
    pub at_ns: u64,
    /// The scenario the run was started from (normalized form).
    pub scenario: Scenario,
    /// Every control-plane operation applied since deploy, in order.
    pub journal: Vec<Op>,
}

impl Checkpoint {
    /// Parse and validate a checkpoint document.
    pub fn parse(text: &str) -> Result<Checkpoint, ScenarioError> {
        let doc = json::parse(text).map_err(|e| ScenarioError::new("checkpoint", e.to_string()))?;
        Checkpoint::from_json(&doc)
    }

    /// Validate an already-parsed checkpoint document.
    pub(crate) fn from_json(doc: &Json) -> Result<Checkpoint, ScenarioError> {
        doc.as_obj().map_err(at("checkpoint"))?;
        let r = Reader::new(doc, "");
        let version = r.req("version")?.u64()?;
        if version != CHECKPOINT_VERSION {
            return Err(ScenarioError::new(
                "version",
                format!("unsupported checkpoint version {version} (this build reads version {CHECKPOINT_VERSION})"),
            ));
        }
        let at_ns = r.req("at_ns")?.u64()?;
        let scenario = Scenario::from_json(r.req("scenario")?.json())?;
        let journal = list(r.opt("journal"), |e| Op::from_json(e.obj()?, e.req("op")?.str()?))?;
        Ok(Checkpoint { at_ns, scenario, journal })
    }

    /// Render the document, pretty-printed. Like scenarios, the rendered
    /// form is a fixed point of the parse/render cycle.
    pub fn to_json(&self) -> String {
        json::pretty(self)
    }
}

impl ToJson for Checkpoint {
    /// The document, with a fixed key order.
    fn write_json(&self, w: &mut Writer) {
        w.obj(|w| {
            w.field("version", CHECKPOINT_VERSION);
            w.field("at_ns", self.at_ns);
            w.field("scenario", &self.scenario);
            w.field("journal", &self.journal);
        });
    }
}
