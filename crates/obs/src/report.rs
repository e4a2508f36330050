//! Span-tree reconstruction and exporters.
//!
//! Everything here is a pure function of a finalized [`SpanEvent`] stream
//! (see [`crate::Spans::finalized_events`]), so both exporters are
//! byte-identical for identical simulations at any worker count.

use std::fmt::Write;

use crate::span::{SpanEvent, SpanPhase, Stage};
use openoptics_sim::time::SimTime;
use openoptics_telemetry::json;

/// One reconstructed span interval with resolved children.
#[derive(Clone, Debug)]
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
/// are the nodes with `parent == 0`.
pub fn build_forest(events: &[SpanEvent]) -> Result<Vec<SpanNode>, WellFormedError> {
    let max_span = events.iter().map(|e| e.span).max().unwrap_or(0) as usize;
    let mut nodes: Vec<Option<SpanNode>> = vec![None; max_span + 1];
    let mut ended: Vec<bool> = vec![false; max_span + 1];
    for e in events {
        let s = e.span as usize;
        match e.phase {
            SpanPhase::Begin => {
                if nodes[s].is_some() {
                    return Err(WellFormedError::DuplicateBegin(e.span));
                }
                nodes[s] = Some(SpanNode {
                    span: e.span,
                    parent: e.parent,
                    flow: e.flow,
                    packet: e.packet,
                    stage: e.stage,
                    begin: e.at,
                    end: e.at,
                    arg: e.arg,
                    children: Vec::new(),
                });
            }
            SpanPhase::End => {
                if ended[s] {
                    return Err(WellFormedError::DuplicateEnd(e.span));
                }
                match &mut nodes[s] {
                    Some(n) => {
                        if e.at < n.begin {
                            return Err(WellFormedError::EndBeforeBegin(e.span));
                        }
                        n.end = e.at;
                        ended[s] = true;
                    }
                    None => return Err(WellFormedError::EndWithoutBegin(e.span)),
                }
            }
        }
    }
    for (s, n) in nodes.iter().enumerate() {
        if n.is_some() && !ended[s] {
            return Err(WellFormedError::MissingEnd(s as u64));
        }
    }
    // Compact into a dense vector, remembering where each span id landed.
    let mut index_of: Vec<usize> = vec![usize::MAX; max_span + 1];
    let mut out: Vec<SpanNode> = Vec::new();
    for (s, n) in nodes.into_iter().enumerate() {
        if let Some(n) = n {
            index_of[s] = out.len();
            out.push(n);
        }
    }
    for i in 0..out.len() {
        let (span, parent) = (out[i].span, out[i].parent);
        if parent == 0 {
            continue;
        }
        let p = parent as usize;
        if p > max_span || index_of[p] == usize::MAX {
            return Err(WellFormedError::UnknownParent { span, parent });
        }
        let pi = index_of[p];
        if out[pi].end < out[i].end {
            return Err(WellFormedError::ParentEndsBeforeChild { parent, child: span });
        }
        out[pi].children.push(i);
    }
    Ok(out)
}

/// Render the stream as Chrome trace-event JSON (loadable in
/// `chrome://tracing` and Perfetto). Each span becomes one complete
/// (`"ph":"X"`) event — `pid` is the flow, `tid` the packet, timestamps
/// are integer nanoseconds (`displayTimeUnit` says so). Malformed streams
/// are reported, never partially exported.
pub fn chrome_trace(events: &[SpanEvent]) -> Result<String, WellFormedError> {
    let forest = build_forest(events)?;
    Ok(json::object(|w| {
        w.key("traceEvents");
        w.arr(|w| {
            for n in &forest {
                let lifecycle = matches!(n.stage, Stage::Flow | Stage::Packet);
                w.obj(|w| {
                    w.field("name", n.stage.name());
                    w.field("cat", if lifecycle { "lifecycle" } else { "stage" });
                    w.field("ph", "X");
                    w.field("ts", n.begin.as_ns());
                    w.field("dur", n.duration_ns());
                    w.field("pid", n.flow);
                    w.field("tid", n.packet);
                    w.key("args");
                    w.obj(|w| {
                        w.field("span", n.span);
                        w.field("parent", n.parent);
                        w.field("arg", n.arg);
                    });
                });
            }
        });
        w.field("displayTimeUnit", "ns");
    }))
}

/// Append `ns` in its display unit, the number right-aligned in `width`
/// columns (every unit is two characters, so a caller padding the whole
/// field to `w` passes `w - 2`).
fn write_ns(out: &mut String, ns: u64, width: usize) {
    let _ = if ns >= 1_000_000 {
        write!(out, "{:>width$.3}ms", ns as f64 / 1_000_000.0)
    } else if ns >= 1_000 {
        write!(out, "{:>width$.2}us", ns as f64 / 1_000.0)
    } else {
        write!(out, "{ns:>width$}ns")
    };
}

// Writes each line straight into `out`: a report runs to tens of
// thousands of lines, so a temporary `String` per label, indent or
// duration would be most of what an export bundle costs.
fn render_node(forest: &[SpanNode], i: usize, depth: usize, out: &mut String) {
    let n = &forest[i];
    for _ in 0..depth {
        out.push_str("  ");
    }
    let _ = match n.stage {
        Stage::Flow => write!(out, "flow {}", n.flow),
        Stage::Packet => write!(out, "packet {}", n.packet),
        _ => out.write_str(n.stage.name()),
    };
    let _ = write!(out, " [{} .. {}] ", n.begin.as_ns(), n.end.as_ns());
    write_ns(out, n.duration_ns(), 0);
    if n.arg != 0 {
        let _ = write!(out, " (arg {})", n.arg);
    }
    out.push('\n');
    for &c in &n.children {
        render_node(forest, c, depth + 1, out);
    }
}

/// How many flow trees [`span_report`] prints in full before summarizing
/// the rest with an explicit count (the stage totals always cover every
/// span).
pub const REPORT_MAX_FLOWS: usize = 50;

/// Deterministic plain-text report: stage totals (count + total sim-time,
/// sorted by total descending) followed by per-flow lifecycle trees.
/// Malformed streams are reported, never partially rendered.
pub fn span_report(events: &[SpanEvent]) -> Result<String, WellFormedError> {
    let forest = build_forest(events)?;
    let mut out = String::new();
    let _ = write!(out, "span report: {} spans\n\n", forest.len());
    // Stage totals over *leaf-stage* spans (roots would double-count).
    let mut totals: Vec<(Stage, u64, u64)> = Vec::new();
    for n in &forest {
        if matches!(n.stage, Stage::Flow | Stage::Packet) {
            continue;
        }
        match totals.iter_mut().find(|(s, _, _)| *s == n.stage) {
            Some((_, count, ns)) => {
                *count += 1;
                *ns += n.duration_ns();
            }
            None => totals.push((n.stage, 1, n.duration_ns())),
        }
    }
    totals.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    out.push_str("stage            count    total_sim\n");
    for (s, count, ns) in &totals {
        let _ = write!(out, "{:<15} {:>6} ", s.name(), count);
        write_ns(&mut out, *ns, 10);
        out.push('\n');
    }
    out.push('\n');
    let roots: Vec<usize> = (0..forest.len()).filter(|&i| forest[i].parent == 0).collect();
    for (printed, &r) in roots.iter().enumerate() {
        if printed >= REPORT_MAX_FLOWS {
            let _ = writeln!(out, "(+{} more root spans)", roots.len() - printed);
            break;
        }
        render_node(&forest, r, 0, &mut out);
    }
    Ok(out)
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
