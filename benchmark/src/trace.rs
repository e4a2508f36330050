//! Benchmark-side spans around calls into each layer's public functions.
//!
//! Spans are recorded from the benchmark's own code only (tracing inside
//! the program is a later change), kept in memory, and written out when the
//! run ends. A span's self time is its duration minus the part its direct
//! children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are host nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.operation` name.
    pub name: &'static str,
    /// Start, ns since tracer creation.
    pub start_ns: u64,
    /// End, ns since tracer creation.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Span recorder. Off, [`Tracer::span`] is a plain call of the closure.
pub struct Tracer {
    workload: &'static str,
    t0: Instant,
    inner: Option<RefCell<Inner>>,
}

impl Tracer {
    /// A tracer that records nothing — what end-to-end runs use.
    pub fn off() -> Tracer {
        Tracer { workload: "", t0: Instant::now(), inner: None }
    }

    /// A recording tracer; `workload` is the identifier its spans share.
    pub fn on(workload: &'static str) -> Tracer {
        Tracer { workload, t0: Instant::now(), inner: Some(RefCell::new(Inner::default())) }
    }

    /// Run `f` inside a span named `name` (nested calls become children).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(inner) = &self.inner else { return f() };
        let id = {
            let mut i = inner.borrow_mut();
            let id = i.spans.len();
            let parent = i.open.last().copied();
            let start_ns = self.t0.elapsed().as_nanos() as u64;
            i.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
            i.open.push(id);
            id
        };
        let out = f();
        let mut i = inner.borrow_mut();
        i.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        i.open.pop();
        out
    }

    /// Number of spans recorded so far (a mark for [`Tracer::self_ns_since`]).
    pub fn mark(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.borrow().spans.len())
    }

    /// Self time per span name, ns, over the spans recorded at or after
    /// `mark`: each span's duration minus its direct children's durations.
    pub fn self_ns_since(&self, mark: usize) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        let Some(inner) = &self.inner else { return out };
        let spans = &inner.borrow().spans;
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (i, s) in spans.iter().enumerate().skip(mark) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0) += own;
        }
        out
    }

    /// The whole recording as one JSON document (see the README for how to
    /// read it). Span ids are indices into `spans`.
    pub fn to_json(&self) -> String {
        let mut s =
            format!("{{\"workload\":\"{}\",\"time_unit\":\"ns\",\"spans\":[", self.workload);
        if let Some(inner) = &self.inner {
            for (i, sp) in inner.borrow().spans.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
                s.push_str(&format!(
                    "\n{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"workload\":\"{}\"}}",
                    sp.name, sp.start_ns, sp.end_ns, self.workload
                ));
            }
        }
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_still_runs_the_closure() {
        let t = Tracer::off();
        assert_eq!(t.span("a.b", || 7), 7);
        assert_eq!(t.mark(), 0);
        assert!(t.self_ns_since(0).is_empty());
    }

    #[test]
    fn children_are_subtracted_from_the_parent() {
        let t = Tracer::on("w");
        t.span("outer", || {
            t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let own = t.self_ns_since(0);
        assert!(own["inner"] >= 5_000_000);
        assert!(own["outer"] < own["inner"], "outer self time excludes the child");
        let doc = openoptics_core::json::parse(&t.to_json()).expect("trace file is valid JSON");
        let spans = doc.get("spans").and_then(|s| s.as_arr().ok()).expect("spans array");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64().ok()), Some(0));
    }

    #[test]
    fn marks_split_passes() {
        let t = Tracer::on("w");
        t.span("a", || ());
        let m = t.mark();
        t.span("b", || ());
        let own = t.self_ns_since(m);
        assert!(own.contains_key("b") && !own.contains_key("a"));
    }
}
