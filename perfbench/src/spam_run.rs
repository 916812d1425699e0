//! `spam_run`: a botnet of many infected hosts against nolisting stacked
//! in front of a 300 s greylist (the spam path of Table II).
//!
//! The four Table I families are replicated with `BotSample::new` on
//! distinct addresses; each bot runs a small synthetic campaign against
//! `worlds::stacked_world` over a 25 h horizon. Most attempts end at the
//! refused dead primary or at a 450 after RCPT, and every victim chain is
//! a new triplet: the run stresses connection failures, greylist inserts
//! and store growth, with little SMTP DATA work. One bot's
//! `run_campaign` is one item.

use crate::harness::{Checked, Counts, Workload, ATTEMPTS, ITEMS, SETUP_CHUNK};
use crate::layers::{self, CheckInput, LayerValues, SessionInput};
use crate::paper_repro;
use crate::stats::{secs_since, share, timed};
use crate::trace::{SharedTracer, Tracer};
use spamward_botnet::{BotRunReport, BotSample, Campaign, MalwareFamily};
use spamward_core::experiments::worlds::{self, VICTIM_DEAD_IP, VICTIM_DOMAIN, VICTIM_MX_IP};
use spamward_dns::{DomainName, Zone};
use spamward_greylist::{Greylist, GreylistConfig};
use spamward_mta::{MailWorld, MxStrategy};
use spamward_net::indexed_ip;
use spamward_sim::{DetRng, SimDuration, SimTime};
use std::net::Ipv4Addr;
use std::time::Instant;

/// Bots in the botnet (items per pass).
pub const BOTS: usize = 1_200;
/// The Table I roster, replicated in this order.
const ROSTER: [MalwareFamily; 11] = [
    MalwareFamily::Cutwail,
    MalwareFamily::Cutwail,
    MalwareFamily::Cutwail,
    MalwareFamily::Kelihos,
    MalwareFamily::Kelihos,
    MalwareFamily::Kelihos,
    MalwareFamily::Kelihos,
    MalwareFamily::Kelihos,
    MalwareFamily::Kelihos,
    MalwareFamily::Darkmailer,
    MalwareFamily::DarkmailerV3,
];
const THRESHOLD: SimDuration = SimDuration::from_secs(300);
const BOT_IP_BASE: Ipv4Addr = Ipv4Addr::new(203, 0, 0, 1);

#[derive(Debug, Clone)]
struct Planned {
    family: MalwareFamily,
    ip: Ipv4Addr,
    start: SimTime,
    victims: usize,
    campaign_seed: u64,
}

/// The workload's seeded inputs.
pub struct SpamRun {
    seed: u64,
    plan: Vec<Planned>,
    horizon: SimTime,
}

/// The program state a pass starts from.
pub struct State {
    world: MailWorld,
    bots: Vec<(BotSample, Campaign)>,
}

/// What a pass leaves behind.
pub struct Output {
    world: MailWorld,
    bots: Vec<(BotSample, Campaign)>,
    reports: Vec<BotRunReport>,
}

fn greylist_config() -> GreylistConfig {
    GreylistConfig::with_delay(THRESHOLD).without_auto_whitelist()
}

impl SpamRun {
    /// Draws the botnet from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = DetRng::seed(seed).fork("perfbench.spam_run");
        let plan = (0..BOTS)
            .map(|b| Planned {
                family: ROSTER[b % ROSTER.len()],
                ip: indexed_ip(BOT_IP_BASE, b as u64),
                start: SimTime::from_secs(rng.below(3_600)),
                victims: 2 + rng.below(5) as usize,
                campaign_seed: rng.next_u64(),
            })
            .collect();
        SpamRun { seed, plan, horizon: SimTime::from_secs(25 * 3_600) }
    }

    fn world(&self) -> MailWorld {
        worlds::stacked_world(self.seed, Greylist::new(greylist_config()))
    }

    /// The attempts of a bot's run that reached the greylisting secondary.
    fn reaches_greylist(family: MalwareFamily) -> bool {
        family.mx_strategy() != MxStrategy::PrimaryOnly
    }
}

impl Workload for SpamRun {
    type State = State;
    type Output = Output;

    fn setup(&self, piece_s: &mut Vec<f64>) -> State {
        let world = timed(piece_s, || self.world());
        let mut bots = Vec::with_capacity(self.plan.len());
        for (c, chunk) in self.plan.chunks(SETUP_CHUNK).enumerate() {
            timed(piece_s, || {
                bots.extend(chunk.iter().enumerate().map(|(i, p)| {
                    let mut rng = DetRng::seed(p.campaign_seed);
                    let bot = BotSample::new(p.family, (c * SETUP_CHUNK + i) as u32, p.ip);
                    (bot, Campaign::synthetic(VICTIM_DOMAIN, p.victims, &mut rng))
                }));
            });
        }
        State { world, bots }
    }

    fn run(&self, state: State, item_s: &mut Vec<f64>) -> Output {
        let State { mut world, mut bots } = state;
        let mut reports = Vec::with_capacity(bots.len());
        for ((bot, campaign), p) in bots.iter_mut().zip(&self.plan) {
            let t0 = Instant::now();
            let report = bot.run_campaign(&mut world, campaign, p.start, self.horizon);
            item_s.push(secs_since(t0));
            reports.push(report);
        }
        Output { world, bots, reports }
    }

    fn counts(&self, out: &Output) -> Counts {
        let gl = out.world.server(VICTIM_MX_IP).and_then(|s| s.greylist());
        let stats = gl.map(|g| g.stats()).unwrap_or_default();
        let rank = |k: usize| {
            out.reports.iter().map(|r| r.mx_rank_attempts.get(k).copied().unwrap_or(0)).sum()
        };
        Counts::from([
            (ITEMS, out.reports.len() as u64),
            (ATTEMPTS, out.reports.iter().map(|r| r.attempts.len() as u64).sum()),
            ("delivered", out.reports.iter().map(|r| r.delivered.len() as u64).sum()),
            ("victims_failed", out.reports.iter().map(|r| r.failed.len() as u64).sum()),
            ("engine_events", out.world.engine_stats.events),
            ("episodes", out.world.engine_stats.outcomes.total()),
            ("greylisted_new", stats.greylisted_new),
            ("greylisted_early", stats.greylisted_early),
            ("greylisted_restarted", stats.greylisted_restarted),
            ("passed_after_delay", stats.passed_after_delay),
            ("passed_known", stats.passed_known),
            ("store_entries", gl.map_or(0, |g| g.store().len() as u64)),
            ("primary_contacts", rank(0)),
            ("secondary_contacts", rank(1)),
            ("connects_refused", out.world.network.connects_refused()),
        ])
    }

    fn check(&self, out: &Output) -> Checked {
        let mut c = Checked::default();
        for (((_, campaign), p), r) in out.bots.iter().zip(&self.plan).zip(&out.reports) {
            let family = p.family;
            let retries = family.retry_behavior().retries();
            let primary = r.mx_rank_attempts.first().copied().unwrap_or(0);
            let beyond_primary: u64 = r.mx_rank_attempts.iter().skip(1).sum();
            let mut problems = Vec::new();
            if family == MalwareFamily::Cutwail && primary != 0 {
                problems.push("Cutwail contacted the dead primary");
            }
            if family.mx_strategy() == MxStrategy::PrimaryOnly && beyond_primary != 0 {
                problems.push("a primary-only family contacted the secondary");
            }
            if !retries
                && (r.attempts.len() != campaign.len() || r.attempts.iter().any(|a| a.attempt != 1))
            {
                problems.push("a fire-and-forget family retried");
            }
            if !retries && !r.delivered.is_empty() {
                problems.push("a non-retrying family got past the greylist");
            }
            // Table II: nolisting stops Kelihos, greylisting stops the
            // rest, so the stacked victim receives nothing.
            if !r.delivered.is_empty() {
                problems.push("spam was delivered through nolisting + greylisting");
            }
            if r.delivered.len() + r.failed.len() != campaign.len() {
                problems.push("a victim is neither delivered nor failed");
            }
            c.item(problems.is_empty(), || {
                format!("{} bot at {}: {}", family.name(), p.ip, problems.join("; "))
            });
        }
        let gl = out.world.server(VICTIM_MX_IP).and_then(|s| s.greylist());
        if gl.map_or(0, |g| g.stats().greylisted_new) == 0 {
            c.fail("no bot reached the greylist".into());
        }
        c
    }

    fn traced(&self, tracer: &SharedTracer) -> (Output, f64) {
        let State { mut world, mut bots } =
            tracer.borrow_mut().span("setup", || self.setup(&mut Vec::new()));
        let t0 = Instant::now();
        let mut reports = Vec::with_capacity(bots.len());
        for ((bot, campaign), p) in bots.iter_mut().zip(&self.plan) {
            tracer.borrow_mut().enter("botnet.campaign");
            reports.push(bot.run_campaign(&mut world, campaign, p.start, self.horizon));
            tracer.borrow_mut().exit();
        }
        (Output { world, bots, reports }, secs_since(t0))
    }

    fn layers(&self, out: &Output, tracer: &Tracer) -> LayerValues {
        let campaign = tracer.totals().get("botnet.campaign").copied().unwrap_or_default();
        let chains = out.world.engine_stats.outcomes.total() as f64;
        let mut values = layers::world_layers(&out.world, VICTIM_MX_IP);
        values.extend([
            ("botnet.campaign_us", campaign.mean_us()),
            ("botnet.attempts_per_chain", share(self.counts(out)[ATTEMPTS] as f64, chains)),
        ]);
        values
    }

    fn replays(&self, out: &Output, values: &mut LayerValues) {
        let mut sessions = Vec::new();
        let mut checks = Vec::new();
        let mut targets = Vec::new();
        for (((_, campaign), p), r) in out.bots.iter().zip(&self.plan).zip(&out.reports) {
            let to_secondary = Self::reaches_greylist(p.family);
            for a in &r.attempts {
                if p.family.mx_strategy() != MxStrategy::SecondaryOnly {
                    targets.push((VICTIM_DEAD_IP, a.at));
                }
                if !to_secondary {
                    continue;
                }
                targets.push((VICTIM_MX_IP, a.at));
                if sessions.len() < 500 {
                    sessions.push(SessionInput::new(
                        p.family.dialect(),
                        p.ip,
                        &campaign.sender,
                        &a.recipient,
                        &campaign.message,
                    ));
                }
                checks.push(CheckInput {
                    at: a.at,
                    ip: p.ip,
                    from: campaign.sender.clone(),
                    rcpt: a.recipient.clone(),
                });
            }
        }
        let domain: DomainName = VICTIM_DOMAIN.parse().expect("victim domain is valid");
        let zone = Zone::nolisting(domain.clone(), VICTIM_DEAD_IP, VICTIM_MX_IP);
        let mut fresh = self.world();
        let hosts = [vec![
            ("smtp.victim.example".to_owned(), VICTIM_DEAD_IP),
            ("smtp1.victim.example".to_owned(), VICTIM_MX_IP),
        ]];
        values.extend([
            ("smtp.exchange_full_us", layers::exchange_us(&sessions, false)),
            ("smtp.exchange_deferred_us", layers::exchange_us(&sessions, true)),
            ("greylist.check_ns", layers::check_ns(&greylist_config(), &checks)),
            ("dns.resolve_mx_ns", layers::resolve_mx_ns(&zone, &domain)),
            ("dns.cold_resolve_ns", layers::cold_resolve_ns(&[(zone.clone(), domain.clone())])),
            ("net.connect_ns", layers::connect_ns(&mut fresh.network, &targets)),
            ("net.network_new_ns", layers::network_new_ns(self.seed, &hosts)),
        ]);
        values.extend(paper_repro::entry_layers("table2", self.seed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_repeat_for_a_seed_and_differ_across_seeds() {
        crate::harness::assert_deterministic(&SpamRun::new(1), &SpamRun::new(1), &SpamRun::new(2));
    }
}
