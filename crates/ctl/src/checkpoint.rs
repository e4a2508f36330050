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
//! what-if branches (see DESIGN.md for the tradeoff).

use openoptics_core::json::{self, Json};

use crate::scenario::{FaultEntry, Scenario, ScenarioError, TmSpec, TransportSpec};

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

impl Op {
    pub(crate) fn to_json(&self) -> Json {
        match self {
            Op::RunUntil { ns } => Json::Obj(vec![
                ("op".to_string(), Json::Str("run_until".to_string())),
                ("ns".to_string(), Json::Num(*ns as f64)),
            ]),
            Op::AddFlow { at_ns, src, dst, bytes, transport } => Json::Obj(vec![
                ("op".to_string(), Json::Str("add_flow".to_string())),
                ("at_ns".to_string(), Json::Num(*at_ns as f64)),
                ("src".to_string(), Json::Num(*src as f64)),
                ("dst".to_string(), Json::Num(*dst as f64)),
                ("bytes".to_string(), Json::Num(*bytes as f64)),
                ("transport".to_string(), transport.to_json()),
            ]),
            Op::InjectFaults { faults } => Json::Obj(vec![
                ("op".to_string(), Json::Str("inject_faults".to_string())),
                ("faults".to_string(), Json::Arr(faults.iter().map(|e| e.to_json()).collect())),
            ]),
            Op::Reconfigure { tm } => Json::Obj(vec![
                ("op".to_string(), Json::Str("reconfigure".to_string())),
                ("tm".to_string(), tm.to_json()),
            ]),
        }
    }

    pub(crate) fn from_json(v: &Json, i: usize) -> Result<Op, ScenarioError> {
        let f = format!("journal[{i}]");
        v.as_obj().map_err(|e| ScenarioError::new(&f, e.to_string()))?;
        let op = match v.get("op") {
            Some(Json::Str(s)) => s.as_str(),
            _ => return Err(ScenarioError::new(format!("{f}.op"), "missing required field")),
        };
        let num = |key: &str| -> Result<u64, ScenarioError> {
            match v.get(key) {
                Some(n) => {
                    n.as_u64().map_err(|e| ScenarioError::new(format!("{f}.{key}"), e.to_string()))
                }
                None => Err(ScenarioError::new(format!("{f}.{key}"), "missing required field")),
            }
        };
        match op {
            "run_until" => Ok(Op::RunUntil { ns: num("ns")? }),
            "add_flow" => Ok(Op::AddFlow {
                at_ns: num("at_ns")?,
                src: crate::scenario::narrow(num("src")?, &format!("{f}.src"))?,
                dst: crate::scenario::narrow(num("dst")?, &format!("{f}.dst"))?,
                bytes: num("bytes")?,
                transport: TransportSpec::from_json(v.get("transport"), &format!("{f}.transport"))?,
            }),
            "inject_faults" => {
                let arr = match v.get("faults") {
                    Some(a) => a
                        .as_arr()
                        .map_err(|e| ScenarioError::new(format!("{f}.faults"), e.to_string()))?,
                    None => {
                        return Err(ScenarioError::new(
                            format!("{f}.faults"),
                            "missing required field",
                        ))
                    }
                };
                let mut faults = Vec::with_capacity(arr.len());
                for (j, e) in arr.iter().enumerate() {
                    faults.push(FaultEntry::from_json(e, &format!("{f}.faults[{j}]"))?);
                }
                Ok(Op::InjectFaults { faults })
            }
            "reconfigure" => {
                let tm = v.get("tm").ok_or_else(|| {
                    ScenarioError::new(format!("{f}.tm"), "missing required field")
                })?;
                Ok(Op::Reconfigure { tm: TmSpec::from_json(tm, &format!("{f}.tm"))? })
            }
            other => Err(ScenarioError::new(
                format!("{f}.op"),
                format!(
                    "unknown op `{other}` (want run_until, add_flow, inject_faults or reconfigure)"
                ),
            )),
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
    pub fn from_json(doc: &Json) -> Result<Checkpoint, ScenarioError> {
        doc.as_obj().map_err(|e| ScenarioError::new("checkpoint", e.to_string()))?;
        let version = match doc.get("version") {
            Some(v) => v.as_u64().map_err(|e| ScenarioError::new("version", e.to_string()))?,
            None => return Err(ScenarioError::new("version", "missing required field")),
        };
        if version != CHECKPOINT_VERSION {
            return Err(ScenarioError::new(
                "version",
                format!("unsupported checkpoint version {version} (this build reads version {CHECKPOINT_VERSION})"),
            ));
        }
        let at_ns = match doc.get("at_ns") {
            Some(v) => v.as_u64().map_err(|e| ScenarioError::new("at_ns", e.to_string()))?,
            None => return Err(ScenarioError::new("at_ns", "missing required field")),
        };
        let scenario = match doc.get("scenario") {
            Some(v) => Scenario::from_json(v)?,
            None => return Err(ScenarioError::new("scenario", "missing required field")),
        };
        let mut journal = Vec::new();
        if let Some(v) = doc.get("journal") {
            let arr = v.as_arr().map_err(|e| ScenarioError::new("journal", e.to_string()))?;
            for (i, op) in arr.iter().enumerate() {
                journal.push(Op::from_json(op, i)?);
            }
        }
        Ok(Checkpoint { at_ns, scenario, journal })
    }

    /// The document as a JSON value with fixed key order.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("version".to_string(), Json::Num(CHECKPOINT_VERSION as f64)),
            ("at_ns".to_string(), Json::Num(self.at_ns as f64)),
            ("scenario".to_string(), self.scenario.to_json_value()),
            (
                "journal".to_string(),
                Json::Arr(self.journal.iter().map(|op| op.to_json()).collect()),
            ),
        ])
    }

    /// Render the document, pretty-printed. Like scenarios, the rendered
    /// form is a fixed point of the parse/render cycle.
    pub fn to_json(&self) -> String {
        json::pretty(&self.to_json_value())
    }
}
