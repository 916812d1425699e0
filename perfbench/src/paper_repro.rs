//! `paper_repro`: every registry experiment at paper scale, each report
//! rendered with `Report::to_json` (what `repro all --json` prints).
//!
//! The only workload that measures every experiment's own world
//! construction and report rendering. Once per run, the default-seed
//! output is byte-checked against the repository's golden snapshot; the
//! timed passes run every experiment at the run's seed. One experiment's
//! run plus render is one item.
//!
//! It is runnable but not listed in BENCHMARK.json: its items are
//! 0.1–0.3 s calls the benchmark cannot split, and on a shared host their
//! fastest times across a run's passes spread too widely between runs
//! (see README.md). [`entry_layers`] keeps the `core` layer measured on
//! the listed workloads.

use crate::harness::{
    Checked, Counts, Workload, ATTEMPTS, ITEMS, SETUP_BATCHES, SETUP_BATCH_CALLS,
};
use crate::layers::{self, LayerValues, LAYER_METRICS};
use crate::stats::{batched, secs_since};
use crate::trace::{maybe_span, SharedTracer, Tracer};
use spamward_core::harness::{self, Experiment, HarnessConfig, Scale};
use std::time::Instant;

/// The golden `repro all --json --metrics` output at default seeds,
/// relative to the repository root (the benchmark's working directory).
const GOLDEN: &str = "crates/bench/snapshots/repro-all.json";

/// The workload's inputs.
pub struct PaperRepro {
    config: HarnessConfig,
    golden: String,
}

/// One experiment's result: its JSON and the counts read off its metrics.
pub struct Ran {
    id: &'static str,
    json: Result<String, String>,
    connects: u64,
    engine_events: u64,
}

fn serial(seed: Option<u64>) -> HarnessConfig {
    // One shard worker: every workload runs in one thread.
    HarnessConfig { seed, scale: Scale::Paper, shards: 1, ..HarnessConfig::default() }
}

fn run_one(exp: &dyn Experiment, config: &HarnessConfig, tracer: Option<&SharedTracer>) -> Ran {
    let report = maybe_span(tracer, core_metric(exp.id()), || exp.run(config));
    maybe_span(tracer, "core.render_json", || match report {
        Ok(r) => Ran {
            id: exp.id(),
            json: Ok(r.to_json()),
            connects: r.metrics().counter(spamward_net::metrics::CONNECT_ATTEMPTED).unwrap_or(0),
            engine_events: r.metrics().counter(spamward_mta::metrics::ENGINE_EVENTS).unwrap_or(0),
        },
        Err(e) => Ran { id: exp.id(), json: Err(e.to_string()), connects: 0, engine_events: 0 },
    })
}

/// The per-layer metric name of experiment `id` (`core.<id>_s`).
fn core_metric(id: &str) -> &'static str {
    LAYER_METRICS
        .iter()
        .map(|(name, _)| *name)
        .find(|name| name.strip_prefix("core.").and_then(|n| n.strip_suffix("_s")) == Some(id))
        .unwrap_or("core.unlisted_s")
}

/// `core.<id>_s` and `core.render_json_s` of one registry entry at paper
/// scale and `seed`: the median replay cost of its `run` and of its
/// report's `to_json`. The traced runs of `mail_day`, `spam_run` and
/// `scan_survey` time the entry that reproduces their own paper artifact
/// this way, so the `core` layer is measured on the gated workloads too.
///
/// # Panics
///
/// Panics if `id` is not registered or its run fails (a program bug: every
/// entry runs at paper scale, as `paper_repro`'s checks pin).
pub fn entry_layers(id: &str, seed: u64) -> LayerValues {
    let exp = harness::find(id).unwrap_or_else(|| panic!("{id} is registered"));
    let config = serial(Some(seed));
    let report = exp.run(&config).unwrap_or_else(|e| panic!("{id} runs at paper scale: {e}"));
    LayerValues::from([
        (
            core_metric(id),
            layers::per_op(|| {
                let _ = std::hint::black_box(exp.run(&config));
                1
            }),
        ),
        (
            "core.render_json_s",
            layers::per_op(|| {
                std::hint::black_box(report.to_json());
                1
            }),
        ),
    ])
}

/// The experiments, resolved the way `repro <id>` resolves an artifact: a
/// registry lookup by id.
fn resolve() -> Vec<&'static dyn Experiment> {
    harness::registry().iter().filter_map(|e| harness::find(std::hint::black_box(e.id()))).collect()
}

/// The `repro all --json` rendering of a pass.
fn joined(ran: &[Ran]) -> String {
    let bodies: Vec<&str> = ran.iter().map(|r| r.json.as_deref().unwrap_or("")).collect();
    format!("[{}]\n", bodies.join(","))
}

/// 64-bit FNV-1a, to pin a pass's output bytes in the counts.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

impl PaperRepro {
    /// Reads the golden snapshot; the timed passes use `seed`.
    ///
    /// # Errors
    ///
    /// When the snapshot cannot be read (not run from the repository root).
    pub fn new(seed: u64) -> Result<Self, String> {
        let golden =
            std::fs::read_to_string(GOLDEN).map_err(|e| format!("cannot read {GOLDEN}: {e}"))?;
        Ok(PaperRepro { config: serial(Some(seed)), golden })
    }
}

impl Workload for PaperRepro {
    type State = Vec<&'static dyn Experiment>;
    type Output = Vec<Ran>;

    fn preflight(&self) -> Vec<String> {
        let defaults = serial(None);
        let ran: Vec<Ran> =
            harness::registry().iter().map(|e| run_one(*e, &defaults, None)).collect();
        let mut errors: Vec<String> = ran
            .iter()
            .filter_map(|r| r.json.as_ref().err().map(|e| format!("{} (default seed): {e}", r.id)))
            .collect();
        if joined(&ran) != self.golden {
            errors.push(format!("default-seed output differs from {GOLDEN}"));
        }
        errors
    }

    fn setup(&self, piece_s: &mut Vec<f64>) -> Self::State {
        // Resolving the registry takes nanoseconds: time it in batches.
        batched(piece_s, SETUP_BATCHES, SETUP_BATCH_CALLS, |_| resolve());
        resolve()
    }

    fn run(&self, state: Self::State, item_s: &mut Vec<f64>) -> Vec<Ran> {
        state
            .into_iter()
            .map(|exp| {
                let t0 = Instant::now();
                let ran = run_one(exp, &self.config, None);
                item_s.push(secs_since(t0));
                ran
            })
            .collect()
    }

    fn counts(&self, out: &Vec<Ran>) -> Counts {
        let body = joined(out);
        Counts::from([
            (ITEMS, out.len() as u64),
            (ATTEMPTS, out.iter().map(|r| r.connects).sum()),
            ("engine_events", out.iter().map(|r| r.engine_events).sum()),
            ("json_bytes", body.len() as u64),
            ("json_fnv1a", fnv1a(body.as_bytes())),
        ])
    }

    fn check(&self, out: &Vec<Ran>) -> Checked {
        let mut c = Checked::default();
        for r in out {
            c.item(r.json.is_ok(), || {
                format!("{}: {}", r.id, r.json.as_ref().err().cloned().unwrap_or_default())
            });
        }
        if out.len() != harness::registry().len() {
            c.fail(format!("ran {} of {} experiments", out.len(), harness::registry().len()));
        }
        c
    }

    fn traced(&self, tracer: &SharedTracer) -> (Vec<Ran>, f64) {
        let state = tracer.borrow_mut().span("setup", || self.setup(&mut Vec::new()));
        let t0 = Instant::now();
        let out = state.into_iter().map(|exp| run_one(exp, &self.config, Some(tracer))).collect();
        (out, secs_since(t0))
    }

    fn layers(&self, _out: &Vec<Ran>, tracer: &Tracer) -> LayerValues {
        let totals = tracer.totals();
        LAYER_METRICS
            .iter()
            .filter(|(name, _)| name.starts_with("core."))
            .map(|(name, _)| {
                // Experiment spans carry the metric's own name.
                let key = if *name == "core.render_json_s" { "core.render_json" } else { *name };
                let t = totals.get(key).copied().unwrap_or_default();
                (*name, t.total_s())
            })
            .collect()
    }

    fn replays(&self, _out: &Vec<Ran>, _values: &mut LayerValues) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_repeat_for_a_seed_and_differ_across_seeds() {
        let w = |seed| PaperRepro { config: serial(Some(seed)), golden: String::new() };
        crate::harness::assert_deterministic(&w(1), &w(1), &w(2));
    }

    #[test]
    fn entry_layers_time_the_entry_and_its_rendering() {
        let values = entry_layers("table2", 1);
        assert_eq!(values.len(), 2);
        assert!(values["core.table2_s"] > 0.0);
        assert!(values["core.render_json_s"] > 0.0);
    }

    #[test]
    fn every_registry_entry_has_a_core_metric() {
        for e in harness::registry() {
            assert_ne!(core_metric(e.id()), "core.unlisted_s", "no core metric for {}", e.id());
        }
        let listed = LAYER_METRICS.iter().filter(|(n, _)| n.starts_with("core.")).count();
        assert_eq!(listed, harness::registry().len() + 1, "one per experiment plus render_json");
    }
}
