//! Span-tree reconstruction and exporters.
//!
//! Both exporters read a [`SpanTable`] (see [`crate::Spans::table`]), so
//! they are pure functions of the recorded stream and byte-identical for
//! identical simulations at any worker count. They write into a sink — a
//! [`json::Writer`] for the Chrome trace, a [`json::Text`] for the report
//! — so an RPC response escapes them as they are written.

use std::fmt::Write;

use crate::span::{SpanEvent, Stage, STAGE_COUNT};
use crate::table::{Row, SpanTable};
use openoptics_sim::cast::to_usize;
use openoptics_sim::time::SimTime;
use openoptics_telemetry::json::{self, Text, ToJson};

/// One reconstructed span interval with resolved children.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// Span id.
    pub span: u64,
    /// Causal parent span id (0 = root).
    pub parent: u64,
    /// Owning flow id (0 for flow-less spans).
    pub flow: u64,
    /// Owning packet id (0 for flow-level spans).
    pub packet: u64,
    /// Stage attribution.
    pub stage: Stage,
    /// Interval start.
    pub begin: SimTime,
    /// Interval end.
    pub end: SimTime,
    /// Stage-specific annotation.
    pub arg: u64,
    /// Indices (into the forest's node vector) of this span's children,
    /// in span-id order.
    pub children: Vec<usize>,
}

impl SpanNode {
    /// Interval length, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end.saturating_since(self.begin)
    }
}

/// Why a span stream failed well-formedness checks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WellFormedError {
    /// Two `Begin` edges carried the same span id.
    DuplicateBegin(u64),
    /// Two `End` edges carried the same span id.
    DuplicateEnd(u64),
    /// An `End` edge had no matching `Begin`.
    EndWithoutBegin(u64),
    /// A `Begin` edge had no matching `End`.
    MissingEnd(u64),
    /// A span ended before it began.
    EndBeforeBegin(u64),
    /// A `Begin` named a parent span that does not exist.
    UnknownParent {
        /// The child span.
        span: u64,
        /// The missing parent id.
        parent: u64,
    },
    /// A parent span ended before one of its children.
    ParentEndsBeforeChild {
        /// The parent span.
        parent: u64,
        /// The child that outlived it.
        child: u64,
    },
}

impl std::fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WellFormedError::DuplicateBegin(s) => write!(f, "span {s}: duplicate begin"),
            WellFormedError::DuplicateEnd(s) => write!(f, "span {s}: duplicate end"),
            WellFormedError::EndWithoutBegin(s) => write!(f, "span {s}: end without begin"),
            WellFormedError::MissingEnd(s) => write!(f, "span {s}: begin without end"),
            WellFormedError::EndBeforeBegin(s) => write!(f, "span {s}: ends before it begins"),
            WellFormedError::UnknownParent { span, parent } => {
                write!(f, "span {span}: parent {parent} does not exist")
            }
            WellFormedError::ParentEndsBeforeChild { parent, child } => {
                write!(f, "span {parent} ends before its child {child}")
            }
        }
    }
}

impl std::error::Error for WellFormedError {}

/// Reconstruct the span forest, verifying well-formedness: every begin
/// has exactly one end, ends do not precede begins, parents exist and end
/// no earlier than every child. Nodes come back in span-id order; roots
/// are the nodes with `parent == 0`. No export needs this; it is the tree
/// view for tests and tools.
pub fn build_forest(events: &[SpanEvent]) -> Result<Vec<SpanNode>, WellFormedError> {
    let table = SpanTable::recorded(events)?;
    let mut index_of = vec![usize::MAX; table.rows.len()];
    let mut out: Vec<SpanNode> = Vec::new();
    for (s, r) in table.spans() {
        index_of[s] = out.len();
        out.push(SpanNode {
            span: s as u64,
            parent: r.parent,
            flow: r.flow,
            packet: r.packet,
            stage: r.stage,
            begin: r.begin,
            end: r.end,
            arg: r.arg,
            children: Vec::new(),
        });
    }
    for i in 0..out.len() {
        // The table checked that every parent is a span.
        let parent = to_usize(out[i].parent);
        if parent != 0 {
            let p = index_of[parent];
            out[p].children.push(i);
        }
    }
    Ok(out)
}

fn lifecycle(stage: Stage) -> bool {
    matches!(stage, Stage::Flow | Stage::Packet)
}

/// The table renders as Chrome trace-event JSON (loadable in
/// `chrome://tracing` and Perfetto). Each span becomes one complete
/// (`"ph":"X"`) event — `pid` is the flow, `tid` the packet, timestamps
/// are integer nanoseconds (`displayTimeUnit` says so). A malformed stream
/// never becomes a table, so it is never partially exported.
impl ToJson for SpanTable {
    fn write_json(&self, w: &mut json::Writer) {
        w.obj(|w| {
            w.key("traceEvents");
            w.arr(|w| {
                // An event is its stage's constant text around seven integers.
                let mut events: [Option<json::Template>; STAGE_COUNT] = Default::default();
                for (s, r) in self.spans() {
                    let event = events[r.stage as usize].get_or_insert_with(|| {
                        w.template(|w| {
                            w.obj(|w| {
                                w.field("name", r.stage.name());
                                w.field(
                                    "cat",
                                    if lifecycle(r.stage) { "lifecycle" } else { "stage" },
                                );
                                w.field("ph", "X");
                                for key in ["ts", "dur", "pid", "tid"] {
                                    w.key(key);
                                    w.slot();
                                }
                                w.key("args");
                                w.obj(|w| {
                                    for key in ["span", "parent", "arg"] {
                                        w.key(key);
                                        w.slot();
                                    }
                                });
                            })
                        })
                    });
                    let ints = [
                        r.begin.as_ns(),
                        r.duration_ns(),
                        r.flow,
                        r.packet,
                        s as u64,
                        r.parent,
                        r.arg,
                    ];
                    w.fill(event, &ints);
                }
            });
            w.field("displayTimeUnit", "ns");
        });
    }
}

/// Append `ns` in its display unit, the number right-aligned in `width`
/// columns (every unit is two characters, so a caller padding the whole
/// field to `w` passes `w - 2`).
fn write_ns(out: &mut Text<'_>, ns: u64, width: usize) {
    let _ = if ns >= 1_000_000 {
        write!(out, "{:>width$.3}ms", ns as f64 / 1_000_000.0)
    } else if ns >= 1_000 {
        write!(out, "{:>width$.2}us", ns as f64 / 1_000.0)
    } else if width > 0 {
        write!(out, "{ns:>width$}ns")
    } else {
        out.int(ns);
        out.write_str("ns")
    };
}

/// How many flow trees [`SpanTable::write_report`] prints in full before
/// summarizing the rest with an explicit count (the stage totals always
/// cover every span).
pub const REPORT_MAX_FLOWS: usize = 50;

/// The children of the spans a report prints, in span-id order: those of
/// span `s` are `list[first[s]..first[s + 1]]`.
struct Children {
    first: Vec<usize>,
    list: Vec<usize>,
}

impl Children {
    /// Children of every span that hangs (through any number of parents)
    /// from one of `roots`; nothing is built for the other trees.
    fn of_trees(rows: &[Row], roots: &[usize]) -> Children {
        let mut member = vec![false; rows.len()];
        for &r in roots {
            member[r] = true;
        }
        let child = |r: &Row| r.is_span() && r.parent != 0;
        // In a recorded stream a child's id follows its parent's, so one
        // ascending pass reaches every member; a stream where some parent
        // id follows its child's takes a pass per such level.
        let ordered = rows.iter().enumerate().all(|(s, r)| !child(r) || to_usize(r.parent) < s);
        loop {
            let mut grew = false;
            for (s, r) in rows.iter().enumerate() {
                if child(r) && !member[s] && member.get(to_usize(r.parent)) == Some(&true) {
                    member[s] = true;
                    grew = true;
                }
            }
            if ordered || !grew {
                break;
            }
        }
        let mut first = vec![0; rows.len() + 1];
        let kids = || rows.iter().enumerate().filter(|&(s, r)| member[s] && child(r));
        for (_, r) in kids() {
            first[to_usize(r.parent) + 1] += 1;
        }
        for s in 1..first.len() {
            first[s] += first[s - 1];
        }
        let mut at = first.clone();
        let mut list = vec![0; first[rows.len()]];
        for (s, r) in kids() {
            let p = to_usize(r.parent);
            list[at[p]] = s;
            at[p] += 1;
        }
        Children { first, list }
    }

    fn of(&self, s: usize) -> &[usize] {
        &self.list[self.first[s]..self.first[s + 1]]
    }
}

impl SpanTable {
    /// Write the deterministic plain-text report: stage totals (count +
    /// total sim-time, sorted by total descending) followed by the first
    /// [`REPORT_MAX_FLOWS`] lifecycle trees.
    pub fn write_report(&self, out: &mut Text<'_>) {
        // Stage totals over *leaf-stage* spans (roots would double-count).
        let mut totals: Vec<(Stage, u64, u64)> = Vec::new();
        let mut roots = Vec::new();
        let mut spans = 0;
        for (s, r) in self.spans() {
            spans += 1;
            if r.parent == 0 {
                roots.push(s);
            }
            if lifecycle(r.stage) {
                continue;
            }
            match totals.iter_mut().find(|(st, _, _)| *st == r.stage) {
                Some((_, count, ns)) => {
                    *count += 1;
                    *ns += r.duration_ns();
                }
                None => totals.push((r.stage, 1, r.duration_ns())),
            }
        }
        totals.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        let printed = &roots[..roots.len().min(REPORT_MAX_FLOWS)];
        let children = Children::of_trees(&self.rows, printed);

        let _ = write!(out, "span report: {spans} spans\n\n");
        let _ = out.write_str("stage            count    total_sim\n");
        for (s, count, ns) in &totals {
            let _ = write!(out, "{:<15} {:>6} ", s.name(), count);
            write_ns(out, *ns, 10);
            let _ = out.write_str("\n");
        }
        let _ = out.write_str("\n");
        for &r in printed {
            self.write_node(&children, r, 0, out);
        }
        if roots.len() > printed.len() {
            let _ = writeln!(out, "(+{} more root spans)", roots.len() - printed.len());
        }
    }

    // Writes each line straight into `out`, integers without the
    // formatting machinery: a report runs to tens of thousands of lines,
    // and it is most of what an export bundle costs.
    fn write_node(&self, children: &Children, s: usize, depth: usize, out: &mut Text<'_>) {
        let r = &self.rows[s];
        for _ in 0..depth {
            let _ = out.write_str("  ");
        }
        match r.stage {
            Stage::Flow => {
                let _ = out.write_str("flow ");
                out.int(r.flow);
            }
            Stage::Packet => {
                let _ = out.write_str("packet ");
                out.int(r.packet);
            }
            _ => {
                let _ = out.write_str(r.stage.name());
            }
        }
        let _ = out.write_str(" [");
        out.int(r.begin.as_ns());
        let _ = out.write_str(" .. ");
        out.int(r.end.as_ns());
        let _ = out.write_str("] ");
        write_ns(out, r.duration_ns(), 0);
        if r.arg != 0 {
            let _ = out.write_str(" (arg ");
            out.int(r.arg);
            let _ = out.write_str(")");
        }
        let _ = out.write_str("\n");
        for &c in children.of(s) {
            self.write_node(children, c, depth + 1, out);
        }
    }
}

/// The sum of a packet span's stage durations and the packet span's own
/// duration, for checking the tiling invariant (they are equal for
/// delivered packets). Returns `None` if `node` is not a packet span.
pub fn stage_sum_vs_span(forest: &[SpanNode], node: usize) -> Option<(u64, u64)> {
    let n = forest.get(node)?;
    if n.stage != Stage::Packet {
        return None;
    }
    let stage_sum: u64 = n
        .children
        .iter()
        .map(|&c| &forest[c])
        .filter(|c| !matches!(c.stage, Stage::Retransmit | Stage::FaultDrop | Stage::Drop))
        .map(|c| c.duration_ns())
        .sum();
    Some((stage_sum, n.duration_ns()))
}
