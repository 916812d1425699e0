//! The run loop shared by every workload, and the result report.

use crate::layers::{LayerValues, LAYER_MAP, LAYER_METRICS};
use crate::stats::{
    median, peak_rss_mb, quantile, secs_since, share, CpuRotation, CpuWait, Fastest,
};
use crate::trace::{SharedTracer, Tracer};
use crate::Opts;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Deterministic simulated counts of one pass. A pure speed change must
/// leave every one of them identical.
pub type Counts = BTreeMap<&'static str, u64>;

/// Count keys every workload reports.
pub const ITEMS: &str = "items";
/// Attempted operations of one pass (see the README for each workload's unit).
pub const ATTEMPTS: &str = "attempts";

/// The end-to-end metrics with their units, in print order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("attempts_per_s", "1/s"),
    ("items_per_s", "1/s"),
    ("item_p50_us", "us"),
    ("item_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_share", "share"),
];

/// Set-up constructions per timed piece, where each is timed on its own.
pub const SETUP_CHUNK: usize = 50;
/// Timed batches per set-up, and constructions per batch, where one
/// construction is too short to time (well under a microsecond).
pub const SETUP_BATCHES: usize = 200;
/// See [`SETUP_BATCHES`].
pub const SETUP_BATCH_CALLS: usize = 100;

/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 5;

/// The output checks of one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checked {
    /// Items checked.
    pub items: u64,
    /// Items that failed a check.
    pub failed: u64,
    /// What went wrong, one line each (items and whole-pass checks).
    pub errors: Vec<String>,
}

impl Checked {
    /// Records one item's verdict.
    pub fn item(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.items += 1;
        if !ok {
            self.failed += 1;
            self.fail(what());
        }
    }

    /// Records a failed whole-pass check.
    pub fn fail(&mut self, what: String) {
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }
}

/// One workload: how to build its program state, run it and check it.
pub trait Workload {
    /// Program state built before the first timed item.
    type State;
    /// What a pass leaves behind for checking and counting.
    type Output;

    /// Checks made once per run before any pass (none by default).
    fn preflight(&self) -> Vec<String> {
        Vec::new()
    }

    /// The program's construction calls. Pushes the host time of each
    /// piece of the set-up, in seconds and in the same order every pass;
    /// the pieces add up to `setup_s`.
    fn setup(&self, piece_s: &mut Vec<f64>) -> Self::State;

    /// The timed phase. Pushes each item's host time, in seconds, in the
    /// same order every pass.
    fn run(&self, state: Self::State, item_s: &mut Vec<f64>) -> Self::Output;

    /// The pass's deterministic counts, including [`ITEMS`] and [`ATTEMPTS`].
    fn counts(&self, out: &Self::Output) -> Counts;

    /// The output checks behind `ops_ok_share`.
    fn check(&self, out: &Self::Output) -> Checked;

    /// A set-up plus run with spans recorded around calls into each
    /// layer; returns the output and the run phase's wall time.
    fn traced(&self, tracer: &SharedTracer) -> (Self::Output, f64);

    /// Per-layer values of one traced pass, from its spans and output.
    fn layers(&self, out: &Self::Output, tracer: &Tracer) -> LayerValues;

    /// Adds per-layer unit costs from replaying a pass's inputs into single
    /// layer calls, and the metrics that combine them with the pass values
    /// already in `values`. Runs once per traced run, after the passes.
    fn replays(&self, out: &Self::Output, values: &mut LayerValues);
}

/// What a run prints.
#[derive(Debug, Default)]
pub struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
    spans_tsv: String,
}

impl Report {
    /// The human-readable lines, then the JSON result as the last line.
    pub fn render(&self, opts: &Opts) -> String {
        let mut out = String::new();
        let mode = if opts.trace { "per-layer (traced)" } else { "end-to-end" };
        let _ = writeln!(out, "# {} seed={} {mode}", opts.workload, opts.seed);
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for (name, value, unit) in &self.metrics {
            if *value != 0.0 && value.abs() < 1e-3 {
                let _ = writeln!(out, "{name:<32} {value:>16.6e} {unit}");
            } else {
                let _ = writeln!(out, "{name:<32} {value:>16.6} {unit}");
            }
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// Writes the last traced pass's spans to `perfbench/out/`.
pub fn write_spans(opts: &Opts, report: &Report) -> std::io::Result<()> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-{}.tsv", opts.workload, opts.seed));
    std::fs::write(path, &report.spans_tsv)
}

fn counts_line(counts: &Counts) -> String {
    let parts: Vec<String> = counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("counts {}", parts.join(" "))
}

/// Runs `w` as `opts` asks and gathers the report.
pub fn execute<W: Workload>(w: &W, opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut cpus = CpuRotation::new();
    report.notes.push(format!("passes rotate over cpus {:?}", cpus.cpus()));
    let mut errors = w.preflight();

    // Warm-up: caches fill and lazy set-up finishes before anything is
    // timed. Its output is the one fully checked; its counts are the
    // reference every timed pass must reproduce exactly.
    let warm = w.run(w.setup(&mut Vec::new()), &mut Vec::new());
    let checked = w.check(&warm);
    let reference = w.counts(&warm);
    drop(warm);
    errors.extend(checked.errors.iter().cloned());
    report.notes.push(counts_line(&reference));

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut mismatched = 0usize;
    let mut note_mismatch = |counts: &Counts, errors: &mut Vec<String>| {
        if *counts != reference {
            mismatched += 1;
            if mismatched == 1 {
                errors
                    .push(format!("pass counts differ from the warm-up: {}", counts_line(counts)));
            }
        }
    };
    let wait = CpuWait::start();
    let mut piece_s = Vec::new();
    let mut run_s = Vec::new();
    let mut item_s = Vec::new();

    if opts.trace {
        let tracer = Tracer::shared();
        let mut traced_s = Vec::new();
        let mut per_pass: Vec<LayerValues> = Vec::new();
        let mut last = None;
        while run_s.len() < MIN_PASSES || Instant::now() < deadline {
            cpus.advance();
            piece_s.clear();
            let state = w.setup(&mut piece_s);
            item_s.clear();
            let t0 = Instant::now();
            let out = w.run(state, &mut item_s);
            run_s.push(secs_since(t0));
            note_mismatch(&w.counts(&out), &mut errors);
            drop(out);

            tracer.borrow_mut().clear();
            let (out, secs) = w.traced(&tracer);
            traced_s.push(secs);
            note_mismatch(&w.counts(&out), &mut errors);
            per_pass.push(w.layers(&out, &tracer.borrow()));
            last = Some(out);
        }
        report.spans_tsv = tracer.borrow().to_tsv();
        let mut values = median_values(&per_pass);
        if let Some(out) = &last {
            w.replays(out, &mut values);
        }
        values.insert("bench.cpu_wait_share", wait.share());
        // Each traced pass runs right after an untraced one on the same
        // CPU; the median of the pairs' ratios cancels the host's drift.
        let ratios: Vec<f64> = traced_s.iter().zip(&run_s).map(|(t, u)| share(*t, *u)).collect();
        values.insert("bench.trace_overhead_ratio", median(&ratios));
        for (name, unit) in LAYER_METRICS.iter() {
            report.metrics.push((
                (*name).to_owned(),
                values.get(name).copied().unwrap_or(0.0),
                unit,
            ));
        }
        for (layer, metrics, moves) in LAYER_MAP {
            report.notes.push(format!("layer {layer:<16} {metrics:<60} should move: {moves}"));
        }
        report.notes.push(format!(
            "passes: {} untraced, {} traced; spans of the last traced pass go to perfbench/out/",
            run_s.len(),
            traced_s.len()
        ));
    } else {
        // Every pass repeats identical work, and load from other tenants
        // of the host only ever adds time, in bursts that outlast a pass.
        // So set-up and run are rebuilt from the fastest time of each of
        // their pieces across the run's passes (the run's pieces are its
        // items plus the rest of the pass), and the item percentiles are
        // taken over each item's fastest time.
        let mut setup = Fastest::default();
        let mut items_fastest = Fastest::default();
        let mut rest_fastest = f64::INFINITY;
        let mut setup_s = Vec::new();
        while run_s.len() < MIN_PASSES || Instant::now() < deadline {
            cpus.advance();
            piece_s.clear();
            let state = w.setup(&mut piece_s);
            setup.fold(&piece_s);
            setup_s.push(piece_s.iter().sum::<f64>());
            item_s.clear();
            let t0 = Instant::now();
            let out = w.run(state, &mut item_s);
            let pass = secs_since(t0);
            run_s.push(pass);
            note_mismatch(&w.counts(&out), &mut errors);
            items_fastest.fold(&item_s);
            rest_fastest = rest_fastest.min(pass - item_s.iter().sum::<f64>());
        }
        let run = items_fastest.total() + rest_fastest.max(0.0);
        let item_min = items_fastest.mins();
        let attempts = reference.get(ATTEMPTS).copied().unwrap_or(0) as f64;
        let items = reference.get(ITEMS).copied().unwrap_or(0) as f64;
        let ok_share = share((checked.items - checked.failed) as f64, checked.items as f64);
        let values = [
            setup.total(),
            run,
            share(attempts, run),
            share(items, run),
            quantile(item_min, 0.50) * 1e6,
            quantile(item_min, 0.99) * 1e6,
            peak_rss_mb(),
            ok_share,
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            report.metrics.push(((*name).to_owned(), value, unit));
        }
        report.notes.push(format!(
            "passes: {}; items per pass: {}; cpu wait share: {:.4}; whole-pass seconds \
             min/p25/p50/p75: {:.6} {:.6} {:.6} {:.6}; whole set-up seconds p25/p50/p75: \
             {:.3e} {:.3e} {:.3e}",
            run_s.len(),
            item_min.len(),
            wait.share(),
            quantile(&run_s, 0.0),
            quantile(&run_s, 0.25),
            quantile(&run_s, 0.5),
            quantile(&run_s, 0.75),
            quantile(&setup_s, 0.25),
            quantile(&setup_s, 0.5),
            quantile(&setup_s, 0.75),
        ));
    }

    for e in &errors {
        report.notes.push(format!("CHECK FAILED: {e}"));
    }
    report.correct = errors.is_empty() && checked.failed == 0 && checked.items > 0;
    report.attempted = checked.items.max(1);
    report.failed = if checked.items == 0 { 1 } else { checked.failed };
    report
}

/// The per-name median over passes.
fn median_values(passes: &[LayerValues]) -> LayerValues {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for pass in passes {
        for (name, v) in pass {
            by_name.entry(name).or_default().push(*v);
        }
    }
    by_name.into_iter().map(|(name, vs)| (name, median(&vs))).collect()
}

/// Test support: one untimed pass's counts and checks.
#[cfg(test)]
pub fn one_pass<W: Workload>(w: &W) -> (Counts, Checked) {
    let out = w.run(w.setup(&mut Vec::new()), &mut Vec::new());
    (w.counts(&out), w.check(&out))
}

/// Test support: two passes of one seed give identical counts and pass
/// every check, and another seed gives different counts.
#[cfg(test)]
pub fn assert_deterministic<W: Workload>(seed_a: &W, seed_a_again: &W, seed_b: &W) {
    let (first, checked) = one_pass(seed_a);
    assert_eq!(checked.failed, 0, "checks failed: {:?}", checked.errors);
    assert!(checked.errors.is_empty(), "checks failed: {:?}", checked.errors);
    assert_eq!(one_pass(seed_a).0, first, "a second pass of one seed changed the counts");
    assert_eq!(one_pass(seed_a_again).0, first, "rebuilding the same seed changed the counts");
    assert_ne!(one_pass(seed_b).0, first, "two seeds gave identical counts");
}
