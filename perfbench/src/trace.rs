//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! program's layers; nothing inside the program is instrumented. A span's
//! self time is its duration minus the durations of its direct children
//! (spans nest strictly, so children never overlap). The untraced run never
//! builds a [`Tracer`], so it records no spans at all.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `mta.wake`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over every span of a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in microseconds (0 without spans).
    pub fn mean_us(&self) -> f64 {
        crate::stats::share(self.total_ns as f64 * 1e-3, self.count as f64)
    }

    /// Mean self time in microseconds (0 without spans).
    pub fn mean_self_us(&self) -> f64 {
        crate::stats::share(self.self_ns as f64 * 1e-3, self.count as f64)
    }

    /// Summed duration in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }
}

/// The recorder: a flat span arena plus the stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A tracer shared with actors the engine owns during an episode.
pub type SharedTracer = Rc<RefCell<Tracer>>;

/// Runs `f` inside a span named `name` when a tracer is given, bare
/// otherwise. The tracer is not borrowed while `f` runs, so `f` may record
/// spans of its own.
pub fn maybe_span<T>(
    tracer: Option<&SharedTracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let Some(t) = tracer else { return f() };
    t.borrow_mut().enter(name);
    let out = f();
    t.borrow_mut().exit();
    out
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// A tracer behind a shared handle.
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer::default()))
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: 0 });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (an enter/exit pairing bug in the benchmark).
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Drops every recorded span (between passes).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clear with open spans");
        self.spans.clear();
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans.iter().zip(child_ns).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Renders every span as tab-separated lines:
    /// `id parent name start_ns end_ns self_ns`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{self_ns}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::default();
        t.enter("outer");
        t.span("mid", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.exit();
        let spans = t.spans.clone();
        let selfs = t.self_times();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(selfs[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(selfs[1], spans[1].dur_ns());
        let totals = t.totals();
        assert_eq!(totals["mid"].count, 1);
        assert!(totals["mid"].total_ns >= 2_000_000);
        assert!(t.to_tsv().lines().count() == 3);
    }
}
