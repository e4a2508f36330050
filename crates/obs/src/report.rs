//! The span exporters.
//!
//! Both exporters read a [`SpanTable`] (see [`crate::Spans::table`]), so
//! they are pure functions of the recorded stream and byte-identical for
//! identical simulations at any worker count. They write into a sink — a
//! [`json::Writer`] for the Chrome trace, a [`json::Text`] for the report
//! — so an RPC response escapes them as they are written.

use std::fmt::Write;

use crate::span::{Stage, STAGE_COUNT};
use crate::table::{SpanRow, SpanTable};
use openoptics_sim::{idx_u32, to_usize};
use openoptics_telemetry::json::{self, Text, ToJson};

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
                    let ints =
                        [r.begin.as_ns(), r.duration_ns(), r.flow, r.packet, s, r.parent, r.arg];
                    w.fill(event, &ints);
                }
            });
            w.field("displayTimeUnit", "ns");
        });
    }
}

/// From here on `ns as f64` is not exact, and [`write_ns`] leaves
/// rounding to the float it prints.
const F64_EXACT: u64 = 1 << 53;

/// Append `ns` in its display unit, the number right-aligned in `width`
/// columns (every unit is two characters, so a caller padding the whole
/// field to `w` passes `w - 2`).
///
/// The digits are those `{:.3}` / `{:.2}` prints for `ns` as milli- or
/// microseconds in `f64`. Below 2^53 the quotient's rounding error is less
/// than its distance to any rounding boundary except a decimal half-way
/// value, so every other `ns` rounds to nearest in integers. A half-way
/// value (`ns` ≡ 5 mod 10 in µs, ≡ 500 mod 1000 in ms) goes through the
/// float: it ties half-to-even when the quotient is exact (1,125 ns prints
/// `1.12us`) and follows the quotient's error when it is not (1,005 ns
/// prints `1.00us`).
fn write_ns(line: &mut String, ns: u64, width: usize) {
    // The unit, its ns, the ns its last printed digit stands for, and how
    // many digits follow the point.
    let (unit, per_unit, step, places) = match ns {
        1_000_000.. => ("ms", 1_000_000, 1_000, 3),
        1_000.. => ("us", 1_000, 10, 2),
        _ => ("ns", 1, 1, 0),
    };
    if (step > 1 && ns % step == step / 2) || ns >= F64_EXACT {
        let _ = write!(line, "{:>width$.places$}{unit}", ns as f64 / per_unit as f64);
        return;
    }
    // The whole part has a digit at least: `ns` is one `per_unit` or more.
    let start = line.len();
    push_int(line, (ns + step / 2) / step);
    if places > 0 {
        line.insert(line.len() - places, '.');
    }
    let written = line.len() - start;
    if written < width {
        line.insert_str(start, &" ".repeat(width - written));
    }
    line.push_str(unit);
}

/// Append the decimal digits of `u`. They are pushed one by one, which
/// is cheaper than checking them as a `str` and copying it.
fn push_int(line: &mut String, mut u: u64) {
    let mut digits = [0; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        line.push(char::from(d));
    }
}

/// How many flow trees [`SpanTable::write_report`] prints in full before
/// summarizing the rest with an explicit count (the stage totals always
/// cover every span).
pub const REPORT_MAX_FLOWS: usize = 50;

/// The children of the spans a report prints, in span-id order, as a
/// CSR: those of span `s` are `list[offsets[s]..offsets[s + 1]]`.
struct Children {
    offsets: Vec<u32>,
    list: Vec<u32>,
}

impl Children {
    /// Children of every span that hangs (through any number of parents)
    /// from one of `roots`; nothing is built for the other trees.
    fn of_trees(rows: &[SpanRow], roots: &[usize]) -> Children {
        let mut member = vec![false; rows.len()];
        for &r in roots {
            member[r] = true;
        }
        // A child's id follows its parent's, so one ascending pass reaches
        // every member (row 0, the roots' parent, is none).
        for (s, r) in rows.iter().enumerate() {
            member[s] |= member[to_usize(r.parent)];
        }
        // Count each parent's children, sum the counts so that
        // `offsets[p]` is where `p`'s run ends, then place the children
        // backwards, which leaves `offsets[p]` where the run starts.
        let mut offsets = vec![0; rows.len() + 1];
        let kids = || rows.iter().enumerate().filter(|&(s, r)| member[s] && r.parent != 0);
        for (_, r) in kids() {
            offsets[to_usize(r.parent)] += 1;
        }
        for s in 1..offsets.len() {
            offsets[s] += offsets[s - 1];
        }
        let mut list = vec![0; to_usize(offsets[rows.len()].into())];
        for (s, r) in kids().rev() {
            let at = &mut offsets[to_usize(r.parent)];
            *at -= 1;
            list[to_usize((*at).into())] = idx_u32(s);
        }
        Children { offsets, list }
    }

    fn of(&self, s: usize) -> &[u32] {
        let run = |s: usize| to_usize(self.offsets[s].into());
        &self.list[run(s)..run(s + 1)]
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
                roots.push(to_usize(s));
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
        let mut line = String::new();
        for (s, count, ns) in &totals {
            line.clear();
            let _ = write!(line, "{:<15} {:>6} ", s.name(), count);
            write_ns(&mut line, *ns, 10);
            line.push('\n');
            let _ = out.write_str(&line);
        }
        let _ = out.write_str("\n");
        for &r in printed {
            self.write_node(&children, r, 0, &mut line, out);
        }
        if roots.len() > printed.len() {
            let _ = writeln!(out, "(+{} more root spans)", roots.len() - printed.len());
        }
    }

    // Builds each line in `line` and writes it to `out` whole, so it is
    // escaped once; integers skip the formatting machinery. A report runs
    // to tens of thousands of lines, and it is most of what an export
    // bundle costs.
    fn write_node(
        &self,
        children: &Children,
        s: usize,
        depth: usize,
        line: &mut String,
        out: &mut Text<'_>,
    ) {
        let r = &self.rows[s];
        line.clear();
        for _ in 0..depth {
            line.push_str("  ");
        }
        match r.stage {
            Stage::Flow => {
                line.push_str("flow ");
                push_int(line, r.flow);
            }
            Stage::Packet => {
                line.push_str("packet ");
                push_int(line, r.packet);
            }
            _ => line.push_str(r.stage.name()),
        }
        line.push_str(" [");
        push_int(line, r.begin.as_ns());
        line.push_str(" .. ");
        push_int(line, r.end.as_ns());
        line.push_str("] ");
        write_ns(line, r.duration_ns(), 0);
        if r.arg != 0 {
            line.push_str(" (arg ");
            push_int(line, r.arg);
            line.push(')');
        }
        line.push('\n');
        let _ = out.write_str(line);
        for &c in children.of(s) {
            self.write_node(children, to_usize(c.into()), depth + 1, line, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;

    /// `write_ns` and the float formatting it replaced, byte for byte, in
    /// the tree column (width 0) and the totals column (width 10).
    fn same_as_floats(ns: u64) -> Result<(), TestCaseError> {
        for width in [0, 10] {
            let (mut ints, mut floats) = (String::new(), String::new());
            write_ns(&mut ints, ns, width);
            reference::write_ns(&mut floats, ns, width);
            prop_assert_eq!(ints, floats, "{} ns, width {}", ns, width);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// Half the cases below 2 ms, where the ns and µs columns are.
        #[test]
        fn durations_print_like_the_float_formatting(
            ns in prop_oneof![0u64..2_000_000, 0u64..=10_000_000_000_000],
        ) {
            same_as_floats(ns)?;
        }

        /// Half-way values in every unit: ns ≡ 5 (mod 10) in µs, ≡ 500
        /// (mod 1000) in ms.
        #[test]
        fn half_way_durations_print_like_the_float_formatting(
            k in 100u64..100_000,
            m in 1u64..10_000_000_000,
        ) {
            same_as_floats(k * 10 + 5)?;
            same_as_floats(m * 1_000 + 500)?;
        }
    }

    #[test]
    fn unit_boundaries_and_ties_print_like_the_float_formatting() -> Result<(), TestCaseError> {
        let boundaries = [0, 1, 999, 1_000, 1_994, 1_995, 1_999, 999_000, 1_000_000, 1_000_001];
        // Exact binary ties (1.125 us, 1.375 us) go half-to-even; inexact
        // ones follow the quotient's error.
        let ties = [1_125, 1_375, 1_005, 1_015, 999_995, 1_000_500, 1_500_500, 2_500_500];
        let f64_edge = [F64_EXACT - 1, F64_EXACT, F64_EXACT + 1, u64::MAX];
        for ns in boundaries.into_iter().chain(999_994..=999_999).chain(ties).chain(f64_edge) {
            same_as_floats(ns)?;
        }
        let mut line = String::new();
        write_ns(&mut line, 1_125, 0);
        assert_eq!(line, "1.12us");
        Ok(())
    }
}
