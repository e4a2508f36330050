//! The span recording and exporters as they were before a span was
//! recorded as its row: the stream of begin and end edges, the finalize
//! that copies it and synthesizes an end per open span, `build_forest`
//! building a node per span with its own children `Vec`, and the two
//! renderers walking that forest. Kept (comments aside) as the oracle the
//! table's exports are compared against.

use std::fmt::Write;

use crate::report::REPORT_MAX_FLOWS;
use crate::span::Stage;
use openoptics_sim::to_usize;
use openoptics_sim::SimTime;
use openoptics_telemetry::json;

/// Begin or end edge of a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SpanPhase {
    Begin,
    End,
}

/// One recorded span edge. `Begin` edges carry the causal identity;
/// `End` edges only the span id and stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SpanEvent {
    pub at: SimTime,
    pub span: u64,
    pub parent: u64,
    pub flow: u64,
    pub packet: u64,
    pub stage: Stage,
    pub phase: SpanPhase,
    pub arg: u64,
}

/// One reconstructed span interval with resolved children.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct SpanNode {
    pub span: u64,
    pub parent: u64,
    pub flow: u64,
    pub packet: u64,
    pub stage: Stage,
    pub begin: SimTime,
    pub end: SimTime,
    pub arg: u64,
    pub children: Vec<usize>,
}

impl SpanNode {
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end.saturating_since(self.begin)
    }
}

/// The copying finalize: the stream plus a synthesized end per open span.
pub(crate) fn finalize(events: &[SpanEvent], now: SimTime) -> Vec<SpanEvent> {
    let mut out: Vec<SpanEvent> = events.to_vec();
    let max_span = to_usize(out.iter().map(|e| e.span).max().unwrap_or(0));
    let mut begin_at: Vec<Option<SimTime>> = vec![None; max_span + 1];
    let mut parent_of: Vec<u64> = vec![0; max_span + 1];
    let mut stage_of: Vec<Stage> = vec![Stage::Packet; max_span + 1];
    let mut end_idx: Vec<Option<usize>> = vec![None; max_span + 1];
    for (i, e) in out.iter().enumerate() {
        let s = to_usize(e.span);
        match e.phase {
            SpanPhase::Begin => {
                begin_at[s] = Some(e.at);
                parent_of[s] = e.parent;
                stage_of[s] = e.stage;
            }
            SpanPhase::End => end_idx[s] = Some(i),
        }
    }
    let mut final_end: Vec<SimTime> = vec![SimTime::ZERO; max_span + 1];
    for s in (1..=max_span).rev() {
        let Some(begin) = begin_at[s] else { continue };
        let recorded = end_idx[s].map(|i| out[i].at);
        let mut end = recorded.unwrap_or(begin).max(begin).max(if recorded.is_none() {
            now
        } else {
            SimTime::ZERO
        });
        end = end.max(final_end[s]);
        final_end[s] = end;
        match end_idx[s] {
            Some(i) => out[i].at = end,
            None => {
                out.push(SpanEvent {
                    at: end,
                    span: s as u64,
                    parent: 0,
                    flow: 0,
                    packet: 0,
                    stage: stage_of[s],
                    phase: SpanPhase::End,
                    arg: 0,
                });
                end_idx[s] = Some(out.len() - 1);
            }
        }
        let p = to_usize(parent_of[s]);
        if p > 0 && p <= max_span {
            final_end[p] = final_end[p].max(end);
        }
    }
    out
}

/// A node per span, each with its own children `Vec`, of a well-formed
/// (finalized) stream.
pub(crate) fn build_forest(events: &[SpanEvent]) -> Vec<SpanNode> {
    let max_span = to_usize(events.iter().map(|e| e.span).max().unwrap_or(0));
    let mut nodes: Vec<Option<SpanNode>> = vec![None; max_span + 1];
    let mut ended: Vec<bool> = vec![false; max_span + 1];
    for e in events {
        let s = to_usize(e.span);
        match e.phase {
            SpanPhase::Begin => {
                assert!(nodes[s].is_none(), "span {}: duplicate begin", e.span);
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
                assert!(!ended[s], "span {}: duplicate end", e.span);
                let n = nodes[s].as_mut().expect("an end follows its begin");
                assert!(e.at >= n.begin, "span {}: ends before it begins", e.span);
                n.end = e.at;
                ended[s] = true;
            }
        }
    }
    for (s, n) in nodes.iter().enumerate() {
        assert!(n.is_none() || ended[s], "span {s}: begin without end");
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
        let pi = index_of[to_usize(parent)];
        assert!(out[pi].end >= out[i].end, "span {parent} ends before its child {span}");
        out[pi].children.push(i);
    }
    out
}

/// The Chrome trace rendered from the forest.
pub(crate) fn chrome_trace(events: &[SpanEvent]) -> String {
    let forest = build_forest(events);
    json::object(|w| {
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
    })
}

pub(crate) fn write_ns(out: &mut String, ns: u64, width: usize) {
    let _ = if ns >= 1_000_000 {
        write!(out, "{:>width$.3}ms", ns as f64 / 1_000_000.0)
    } else if ns >= 1_000 {
        write!(out, "{:>width$.2}us", ns as f64 / 1_000.0)
    } else {
        write!(out, "{ns:>width$}ns")
    };
}

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

/// The span report rendered from the forest.
pub(crate) fn span_report(events: &[SpanEvent]) -> String {
    let forest = build_forest(events);
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
    out
}
