//! `scan_survey`: the Fig. 2 nolisting survey over a streamed population,
//! scanned serially shard by shard over the fixed 8-shard plan.
//!
//! It calls no SMTP, greylist, engine or `mta` code: it is the control
//! workload, which optimisations of those layers must leave unchanged. It
//! stresses cold DNS and network construction for every domain. One
//! `scan_shard` call is one timed item; throughput counts domains.

use crate::harness::{
    Checked, Counts, Workload, ATTEMPTS, ITEMS, SETUP_BATCHES, SETUP_BATCH_CALLS,
};
use crate::layers::{self, LayerValues};
use crate::paper_repro;
use crate::stats::{batched, secs_since, share};
use crate::trace::{SharedTracer, Tracer};
use spamward_dns::{Authority, NameTable, Resolver, Zone};
use spamward_scanner::{scan_shard, DomainTruth, PopulationSpec, PopulationStream, ShardScanStats};
use spamward_sim::{ShardPlan, SimTime};
use std::time::Instant;

/// Domains in the population.
pub const DOMAINS: usize = 24_000;
/// The fixed shard count of the plan.
const SHARDS: u32 = 8;
/// The two banner-grab epochs of the paper's double scan.
const EPOCHS: [u64; 2] = [0, 1];
/// Popularity cutoffs of the Alexa cross-check.
const KS: [u32; 3] = [15, 500, 1000];
/// Domains whose corner of the internet the layer replays rebuild.
const REPLAY_DOMAINS: u64 = 400;

/// The workload's seeded inputs and the ground truth to score against.
pub struct ScanSurvey {
    seed: u64,
    /// Per shard: (domains owned, nolisting domains owned).
    truth: Vec<(u64, u64)>,
}

/// What a pass leaves behind.
pub struct Output {
    shards: Vec<ShardScanStats>,
    total: ShardScanStats,
}

impl ScanSurvey {
    /// Derives the ground truth for `seed` from the population's records.
    pub fn new(seed: u64) -> Self {
        let (stream, plan) = Self::build(seed);
        let mut truth = vec![(0u64, 0u64); SHARDS as usize];
        for i in 0..DOMAINS as u64 {
            let slot = &mut truth[plan.shard_of(&stream.name_of(i)) as usize];
            slot.0 += 1;
            if stream.packed(i).truth == DomainTruth::Nolisting {
                slot.1 += 1;
            }
        }
        ScanSurvey { seed, truth }
    }

    fn build(seed: u64) -> (PopulationStream, ShardPlan) {
        (PopulationStream::new(PopulationSpec::fig2(DOMAINS), seed), ShardPlan::new(seed, SHARDS))
    }

    fn merge(shards: Vec<ShardScanStats>) -> Output {
        let mut total = ShardScanStats::empty(EPOCHS.len(), &KS);
        for s in &shards {
            total.merge(s);
        }
        Output { shards, total }
    }
}

impl Workload for ScanSurvey {
    type State = (PopulationStream, ShardPlan);
    type Output = Output;

    fn setup(&self, piece_s: &mut Vec<f64>) -> Self::State {
        // The stream is lazy: one construction takes well under a
        // microsecond, so constructions are timed in batches. Its rank
        // permutation searches a seed-dependent number of steps for a
        // multiplier coprime to the population size, so the batches build
        // streams for the seeds after the run's and time the average.
        batched(piece_s, SETUP_BATCHES, SETUP_BATCH_CALLS, |k| {
            Self::build(self.seed.wrapping_add(k as u64 + 1))
        });
        Self::build(self.seed)
    }

    fn run(&self, (stream, plan): Self::State, item_s: &mut Vec<f64>) -> Output {
        let shards = (0..SHARDS)
            .map(|shard| {
                let t0 = Instant::now();
                let stats = scan_shard(&stream, &plan, shard, &EPOCHS, &KS);
                item_s.push(secs_since(t0));
                stats
            })
            .collect();
        Self::merge(shards)
    }

    fn counts(&self, out: &Output) -> Counts {
        let t = &out.total;
        Counts::from([
            (ITEMS, t.domains),
            (ATTEMPTS, t.events),
            ("glue_resolved", t.glue_resolved),
            ("class_one_mx", t.class_counts[0]),
            ("class_no_nolisting", t.class_counts[1]),
            ("class_nolisting", t.class_counts[2]),
            ("class_misconfigured", t.class_counts[3]),
            ("true_positives", t.accuracy.true_positives as u64),
            ("false_positives", t.accuracy.false_positives as u64),
            ("false_negatives", t.accuracy.false_negatives as u64),
            ("banner_listening", t.rounds.iter().map(|r| r.banner_listening).sum()),
        ])
    }

    fn check(&self, out: &Output) -> Checked {
        let mut c = Checked::default();
        for (shard, (s, &(owned, nolisting))) in out.shards.iter().zip(&self.truth).enumerate() {
            let classified: u64 = s.class_counts.iter().sum();
            let found = (s.accuracy.true_positives + s.accuracy.false_negatives) as u64;
            c.item(s.domains == owned && classified == owned && found == nolisting, || {
                format!(
                    "shard {shard}: {} domains ({classified} classified, {found} nolisting found) \
                     against {owned} owned ({nolisting} nolisting)",
                    s.domains
                )
            });
        }
        let acc = &out.total.accuracy;
        if out.total.domains != DOMAINS as u64 {
            c.fail(format!("scanned {} of {DOMAINS} domains", out.total.domains));
        }
        // The double scan finds nearly every nolisting domain (a live
        // secondary down in both epochs hides one); flapping hosts of other
        // classes cost some precision (Fig. 2's cross-check).
        if acc.recall() < 0.95 || acc.precision() < 0.6 {
            c.fail(format!(
                "detector scored recall {:.3}, precision {:.3} against the ground truth",
                acc.recall(),
                acc.precision()
            ));
        }
        c
    }

    fn traced(&self, tracer: &SharedTracer) -> (Output, f64) {
        let (stream, plan) = tracer.borrow_mut().span("setup", || self.setup(&mut Vec::new()));
        let t0 = Instant::now();
        let shards = (0..SHARDS)
            .map(|shard| {
                tracer
                    .borrow_mut()
                    .span("scanner.shard", || scan_shard(&stream, &plan, shard, &EPOCHS, &KS))
            })
            .collect();
        (Self::merge(shards), secs_since(t0))
    }

    fn layers(&self, _out: &Output, tracer: &Tracer) -> LayerValues {
        let shard = tracer.totals().get("scanner.shard").copied().unwrap_or_default();
        LayerValues::from([
            ("scanner.shard_s", shard.mean_us() * 1e-6),
            ("scanner.pass_s", shard.total_s()),
        ])
    }

    fn replays(&self, _out: &Output, values: &mut LayerValues) {
        let (stream, plan) = Self::build(self.seed);
        let n = stream.len() as u64;
        // The ownership filter `scan_shard` runs for every domain on every
        // shard, timed per whole pass.
        let filter_s = layers::per_op(|| {
            let mut owned = 0u32;
            for shard in 0..SHARDS {
                for i in 0..n {
                    owned += u32::from(plan.owns(shard, &stream.name_of(i)));
                }
            }
            std::hint::black_box(owned);
            1
        });
        let packed_s = layers::per_op(|| {
            for i in 0..n {
                std::hint::black_box(stream.packed(i));
            }
            n
        });
        let mut names = NameTable::new(0);
        let mut zones: Vec<(Zone, _)> = Vec::new();
        let mut networks = Vec::new();
        for i in 0..REPLAY_DOMAINS.min(n) {
            let expanded = stream.expand(&stream.packed(i), &mut names);
            networks
                .push(expanded.hosts.iter().map(|h| (h.name.clone(), h.ip)).collect::<Vec<_>>());
            zones.push((expanded.zone, expanded.record.name));
        }
        let warm = zones.iter().find(|(z, d)| {
            let mut dns = Authority::new();
            dns.publish(z.clone());
            Resolver::new().resolve_mx(&mut dns, d, SimTime::ZERO).is_ok()
        });
        let pass_s = values.get("scanner.pass_s").copied().unwrap_or(0.0);
        values.extend([
            ("scanner.ownership_filter_share", share(filter_s, pass_s)),
            ("scanner.packed_ns", packed_s * 1e9),
            ("dns.cold_resolve_ns", layers::cold_resolve_ns(&zones)),
            ("dns.resolve_mx_ns", warm.map_or(0.0, |(z, d)| layers::resolve_mx_ns(z, d))),
            ("net.network_new_ns", layers::network_new_ns(self.seed, &networks)),
        ]);
        values.extend(paper_repro::entry_layers("fig2", self.seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_repeat_for_a_seed_and_differ_across_seeds() {
        crate::harness::assert_deterministic(
            &ScanSurvey::new(1),
            &ScanSurvey::new(1),
            &ScanSurvey::new(2),
        );
    }
}
