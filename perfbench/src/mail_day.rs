//! `mail_day`: one campus day of benign mail through a 300 s greylist (the
//! ham path of Fig. 5), in a single `MailWorld`.
//!
//! Senders are the Table IV MTA profiles, the Table III webmail providers,
//! and notification scripts that retry hourly or never. Most messages come
//! from a pool of recurring (sender, recipient) pairs, so the greylist
//! mostly *reads* known triplets; the rest are one-off pairs that take the
//! full defer-then-retry path. Each message is one `SendingMta::drain`
//! episode (one item). The pass ends with the Fig. 5 product: the server
//! log parsed strictly, its delay CDF, and the sender and world metrics
//! collected into a `Registry`.

use crate::harness::{Checked, Counts, Workload, ATTEMPTS, ITEMS, SETUP_CHUNK};
use crate::layers::{self, CheckInput, LayerValues, SessionInput};
use crate::paper_repro;
use crate::stats::{secs_since, share, timed};
use crate::trace::{maybe_span, SharedTracer, Tracer};
use spamward_analysis::log::GreylistLogAnalysis;
use spamward_core::experiments::deployment::SenderMix;
use spamward_core::experiments::worlds::{self, VICTIM_MX_IP};
use spamward_dns::{DomainName, Zone};
use spamward_greylist::{Greylist, GreylistConfig};
use spamward_mta::{
    MailWorld, MtaProfile, OutboundStatus, RetrySchedule, SenderActor, SendingMta, WorldSim,
};
use spamward_net::indexed_ip;
use spamward_obs::Registry;
use spamward_sim::{Actor, DetRng, SimDuration, SimTime, Wake};
use spamward_smtp::{Dialect, EmailAddress, Message, ReversePath};
use spamward_webmail::WebmailProvider;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Messages in the day (items per pass).
pub const MESSAGES: usize = 2_500;
/// Recurring (sender, recipient) pairs.
const RECURRING_PAIRS: usize = 250;
/// Share of messages from a one-off pair seen nowhere else in the day.
const ONE_OFF_SHARE: f64 = 0.2;
/// Campus mailboxes.
const STAFF: u64 = 120;
const DOMAIN: &str = "campus.example";
const MX_HOST: &str = "mail.campus.example";
const THRESHOLD: SimDuration = SimDuration::from_secs(300);
/// Sender addresses are indexed from here; webmail pools take 16 slots each.
const SENDER_IP_BASE: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 1);

#[derive(Debug, Clone)]
enum SenderClass {
    Mta(MtaProfile),
    Webmail(usize),
    HourlyScript,
    OneShotScript,
}

#[derive(Debug, Clone)]
struct Pair {
    class: SenderClass,
    fqdn: String,
    ip: Ipv4Addr,
    from: ReversePath,
    rcpt: EmailAddress,
}

#[derive(Debug, Clone)]
struct Planned {
    pair: usize,
    arrival: SimTime,
    message: Message,
}

/// The workload's seeded inputs.
pub struct MailDay {
    seed: u64,
    pairs: Vec<Pair>,
    plan: Vec<Planned>,
    providers: Vec<WebmailProvider>,
    domain: DomainName,
}

/// The program state a pass starts from.
pub struct State {
    world: MailWorld,
    senders: Vec<(SimTime, SendingMta)>,
}

/// What a pass leaves behind.
pub struct Output {
    world: MailWorld,
    senders: Vec<SendingMta>,
    analysis: Result<GreylistLogAnalysis, String>,
    cdf_samples: usize,
    log_lines: usize,
    registry_bytes: usize,
}

fn greylist_config() -> GreylistConfig {
    GreylistConfig::with_delay(THRESHOLD).without_auto_whitelist()
}

fn hourly_profile() -> MtaProfile {
    MtaProfile {
        name: "cron-script-hourly".into(),
        schedule: RetrySchedule::Arithmetic {
            first: SimDuration::from_hours(1),
            step: SimDuration::from_hours(1),
        },
        max_queue_time: SimDuration::from_days(2),
    }
}

fn one_shot_profile() -> MtaProfile {
    MtaProfile {
        name: "cron-script-oneshot".into(),
        schedule: RetrySchedule::Explicit { times: vec![], tail_interval: None },
        max_queue_time: SimDuration::from_days(1),
    }
}

impl MailDay {
    /// Draws the day's pairs and messages from `seed`.
    pub fn new(seed: u64) -> Self {
        let providers = WebmailProvider::table_iii();
        let mix = SenderMix::default();
        let mut rng = DetRng::seed(seed).fork("perfbench.mail_day");
        let weights: Vec<f64> = mix.mtas.iter().map(|(_, w)| *w).collect();
        let total: f64 =
            weights.iter().sum::<f64>() + mix.webmail + mix.hourly_script + mix.no_retry_script;
        let draw_pair = |rng: &mut DetRng, idx: usize| {
            let mut x = rng.unit_f64() * total;
            let mut class = None;
            for (profile, w) in &mix.mtas {
                if class.is_none() && x < *w {
                    class = Some(SenderClass::Mta(profile.clone()));
                }
                x -= w;
            }
            let class = class.unwrap_or_else(|| {
                if x < mix.webmail {
                    SenderClass::Webmail(rng.below(providers.len() as u64) as usize)
                } else if x < mix.webmail + mix.hourly_script {
                    SenderClass::HourlyScript
                } else {
                    SenderClass::OneShotScript
                }
            });
            let fqdn = format!("relay{idx}.example");
            let from: EmailAddress =
                format!("user{idx}@{fqdn}").parse().expect("generated sender is valid");
            let rcpt: EmailAddress = format!("staff{}@{DOMAIN}", rng.below(STAFF))
                .parse()
                .expect("generated recipient is valid");
            Pair {
                class,
                fqdn,
                ip: indexed_ip(SENDER_IP_BASE, idx as u64 * 16),
                from: ReversePath::Address(from),
                rcpt,
            }
        };
        let mut pairs: Vec<Pair> = (0..RECURRING_PAIRS).map(|i| draw_pair(&mut rng, i)).collect();
        let mut plan = Vec::with_capacity(MESSAGES);
        for i in 0..MESSAGES {
            let pair = if rng.chance(ONE_OFF_SHARE) {
                pairs.push(draw_pair(&mut rng, pairs.len()));
                pairs.len() - 1
            } else {
                // Skewed towards the first pairs: a few busy correspondents.
                let u = rng.unit_f64();
                ((u * u) * RECURRING_PAIRS as f64) as usize
            };
            let arrival = SimTime::from_secs(rng.below(86_400));
            let message = Message::builder()
                .header("Subject", &format!("campus message {i}"))
                .body(&"benign mail body line\r\n".repeat(1 + rng.below(8) as usize))
                .build();
            plan.push(Planned { pair, arrival, message });
        }
        plan.sort_by_key(|m| m.arrival);
        MailDay {
            seed,
            pairs,
            plan,
            providers,
            domain: DOMAIN.parse().expect("campus domain is valid"),
        }
    }

    fn build_sender(&self, m: &Planned) -> SendingMta {
        let pair = &self.pairs[m.pair];
        let mut sender = match &pair.class {
            SenderClass::Mta(profile) => {
                SendingMta::new(&pair.fqdn, vec![pair.ip], profile.clone())
            }
            SenderClass::Webmail(p) => {
                self.providers[*p].build_sender(pair.ip, self.seed ^ m.pair as u64)
            }
            SenderClass::HourlyScript => {
                SendingMta::new(&pair.fqdn, vec![pair.ip], hourly_profile())
            }
            SenderClass::OneShotScript => {
                SendingMta::new(&pair.fqdn, vec![pair.ip], one_shot_profile())
            }
        };
        sender.submit(
            self.domain.clone(),
            pair.from.clone(),
            vec![pair.rcpt.clone()],
            m.message.clone(),
            m.arrival,
        );
        sender
    }

    /// The Fig. 5 product of a drained world.
    fn finish(world: MailWorld, senders: Vec<SendingMta>, tracer: Option<&SharedTracer>) -> Output {
        let (log, analysis) = maybe_span(tracer, "analysis.log_parse", || {
            let log = world.server(VICTIM_MX_IP).map(|s| s.log_text()).unwrap_or_default();
            let analysis = GreylistLogAnalysis::from_lines(log.lines()).map_err(|e| e.to_string());
            (log, analysis)
        });
        let cdf_samples = maybe_span(tracer, "analysis.cdf", || {
            analysis.as_ref().map_or(0, |a| a.delay_cdf().len())
        });
        let registry_bytes = maybe_span(tracer, "obs.collect", || {
            let mut reg = Registry::new();
            for s in &senders {
                spamward_mta::metrics::collect_sender(s, &mut reg);
            }
            spamward_mta::metrics::collect_world(&world, &mut reg);
            reg.to_json().len()
        });
        Output {
            log_lines: log.lines().count(),
            world,
            senders,
            analysis,
            cdf_samples,
            registry_bytes,
        }
    }

    /// The campus world: one MX behind a 300 s greylist, full-triplet
    /// keying, auto-whitelist off.
    fn world(&self) -> MailWorld {
        worlds::greylist_world_at(self.seed, DOMAIN, MX_HOST, Greylist::new(greylist_config()))
    }

    /// The greylist key of a check under full-triplet /24 keying, as the
    /// benchmark tracks it independently of the program's store.
    fn triplet(ip: Ipv4Addr, pair: &Pair) -> (u32, String, String) {
        (u32::from(ip) & 0xFFFF_FF00, pair.from.to_string(), pair.rcpt.to_string())
    }
}

/// A `SenderActor` with a span around every wake-up.
struct TracedSender {
    inner: SenderActor,
    tracer: SharedTracer,
}

impl Actor<MailWorld> for TracedSender {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn wake(&mut self, now: SimTime, world: &mut MailWorld) -> Wake {
        self.tracer.borrow_mut().enter("mta.wake");
        let wake = self.inner.wake(now, world);
        self.tracer.borrow_mut().exit();
        wake
    }
}

impl Workload for MailDay {
    type State = State;
    type Output = Output;

    fn setup(&self, piece_s: &mut Vec<f64>) -> State {
        let world = timed(piece_s, || self.world());
        let mut senders = Vec::with_capacity(self.plan.len());
        for chunk in self.plan.chunks(SETUP_CHUNK) {
            timed(piece_s, || {
                senders.extend(chunk.iter().map(|m| (m.arrival, self.build_sender(m))));
            });
        }
        State { world, senders }
    }

    fn run(&self, state: State, item_s: &mut Vec<f64>) -> Output {
        let State { mut world, senders } = state;
        let mut done = Vec::with_capacity(senders.len());
        for (arrival, mut sender) in senders {
            let t0 = Instant::now();
            sender.drain(arrival, &mut world);
            item_s.push(secs_since(t0));
            done.push(sender);
        }
        Self::finish(world, done, None)
    }

    fn counts(&self, out: &Output) -> Counts {
        let gl = out.world.server(VICTIM_MX_IP).and_then(|s| s.greylist());
        let stats = gl.map(|g| g.stats()).unwrap_or_default();
        let status = |want: OutboundStatus| {
            out.senders.iter().filter(|s| s.queue().iter().all(|q| q.status == want)).count() as u64
        };
        Counts::from([
            (ITEMS, out.senders.len() as u64),
            (ATTEMPTS, out.senders.iter().map(|s| s.records().len() as u64).sum()),
            ("delivered", status(OutboundStatus::Delivered)),
            ("bounces", out.senders.iter().map(|s| s.bounces().len() as u64).sum()),
            ("engine_events", out.world.engine_stats.events),
            ("greylisted_new", stats.greylisted_new),
            ("greylisted_early", stats.greylisted_early),
            ("greylisted_restarted", stats.greylisted_restarted),
            ("passed_after_delay", stats.passed_after_delay),
            ("passed_known", stats.passed_known),
            ("store_entries", gl.map_or(0, |g| g.store().len() as u64)),
            ("cdf_samples", out.cdf_samples as u64),
            ("log_lines", out.log_lines as u64),
            ("registry_bytes", out.registry_bytes as u64),
        ])
    }

    fn check(&self, out: &Output) -> Checked {
        let mut c = Checked::default();
        if let Err(e) = &out.analysis {
            c.fail(format!("server log does not parse strictly: {e}"));
        }
        if out.cdf_samples == 0 {
            c.fail("no greylisted-then-delivered message in the delay CDF".into());
        }
        // First sighting of each triplet, and which message made it.
        let mut first_seen: HashMap<(u32, String, String), (SimTime, usize)> = HashMap::new();
        for (i, (m, sender)) in self.plan.iter().zip(&out.senders).enumerate() {
            let pair = &self.pairs[m.pair];
            let q = sender.queue();
            let ended = q.len() == 1
                && match q[0].status {
                    OutboundStatus::Delivered => true,
                    OutboundStatus::Expired | OutboundStatus::Rejected => {
                        !sender.bounces().is_empty()
                    }
                    OutboundStatus::Queued => false,
                };
            let mut early = None;
            for r in sender.records() {
                let (seen_at, by) =
                    *first_seen.entry(Self::triplet(r.source_ip, pair)).or_insert((r.at, i));
                // A triplet this message introduced must wait out the threshold.
                if r.delivered && by == i && r.at.elapsed_since(seen_at) < THRESHOLD {
                    early = Some(r.at.elapsed_since(seen_at));
                }
            }
            c.item(ended && early.is_none(), || match early {
                Some(d) => format!("message {i}: first-contact triplet delivered after {d:?}"),
                None => format!("message {i}: neither delivered nor bounced"),
            });
        }
        c
    }

    fn traced(&self, tracer: &SharedTracer) -> (Output, f64) {
        let state = tracer.borrow_mut().span("setup", || self.setup(&mut Vec::new()));
        let t0 = Instant::now();
        let State { mut world, senders } = state;
        let mut done = Vec::with_capacity(senders.len());
        for (arrival, sender) in senders {
            tracer.borrow_mut().enter("item");
            // `SendingMta::drain`, with the actor wrapped so its wake-ups
            // show as spans under the engine episode.
            let sender = match sender.next_due() {
                None => sender,
                Some(due) => {
                    let actor =
                        TracedSender { inner: SenderActor::new(sender), tracer: tracer.clone() };
                    tracer.borrow_mut().enter("sim.episode");
                    let (actor, _, _) =
                        WorldSim::episode(&mut world, actor, due.max(arrival), None);
                    tracer.borrow_mut().exit();
                    actor.inner.into_inner()
                }
            };
            tracer.borrow_mut().exit();
            done.push(sender);
        }
        let out = Self::finish(world, done, Some(tracer));
        (out, secs_since(t0))
    }

    fn layers(&self, out: &Output, tracer: &Tracer) -> LayerValues {
        let totals = tracer.totals();
        let get = |name: &str| totals.get(name).copied().unwrap_or_default();
        let counts = self.counts(out);
        let messages = counts[ITEMS] as f64;
        let attempts = counts[ATTEMPTS] as f64;
        let wakes = get("mta.wake").count as f64;
        let mut values = layers::world_layers(&out.world, VICTIM_MX_IP);
        values.extend([
            ("sim.dispatch_self_us", get("sim.episode").mean_self_us()),
            ("mta.wake_us", get("mta.wake").mean_us()),
            ("mta.attempts_per_message", share(attempts, messages)),
            ("mta.delivered_share", share(counts["delivered"] as f64, messages)),
            ("mta.attempts_per_wake", share(attempts, wakes)),
            ("mta.delivered_per_wake", share(counts["delivered"] as f64, wakes)),
            ("analysis.log_parse_s", get("analysis.log_parse").total_s()),
            ("analysis.cdf_s", get("analysis.cdf").total_s()),
            ("obs.collect_s", get("obs.collect").total_s()),
        ]);
        values
    }

    fn replays(&self, out: &Output, values: &mut LayerValues) {
        let mut sessions = Vec::new();
        let mut checks = Vec::new();
        let mut targets = Vec::new();
        for (m, sender) in self.plan.iter().zip(&out.senders) {
            let pair = &self.pairs[m.pair];
            for r in sender.records() {
                if sessions.len() < 500 {
                    let dialect = Dialect::compliant_mta(sender.fqdn());
                    sessions.push(SessionInput::new(
                        dialect,
                        r.source_ip,
                        &pair.from,
                        &pair.rcpt,
                        &m.message,
                    ));
                }
                checks.push(CheckInput {
                    at: r.at,
                    ip: r.source_ip,
                    from: pair.from.clone(),
                    rcpt: pair.rcpt.clone(),
                });
                targets.push((VICTIM_MX_IP, r.at));
            }
        }
        let zone = Zone::single_mx(self.domain.clone(), VICTIM_MX_IP);
        let mut fresh = self.world();
        values.extend([
            ("smtp.exchange_full_us", layers::exchange_us(&sessions, false)),
            ("smtp.exchange_deferred_us", layers::exchange_us(&sessions, true)),
            ("greylist.check_ns", layers::check_ns(&greylist_config(), &checks)),
            ("dns.resolve_mx_ns", layers::resolve_mx_ns(&zone, &self.domain)),
            (
                "dns.cold_resolve_ns",
                layers::cold_resolve_ns(&[(zone.clone(), self.domain.clone())]),
            ),
            ("net.connect_ns", layers::connect_ns(&mut fresh.network, &targets)),
            (
                "net.network_new_ns",
                layers::network_new_ns(self.seed, &[vec![(MX_HOST.into(), VICTIM_MX_IP)]]),
            ),
        ]);
        values.extend(paper_repro::entry_layers("fig5", self.seed));
        // The wake-up's own time: its span minus what its leaf calls cost
        // by replay (one MX resolve and one connect per attempt, one SMTP
        // exchange per attempt — full when it delivered, deferred otherwise).
        let g = |k: &str| values.get(k).copied().unwrap_or(0.0);
        let (per_wake, delivered) = (g("mta.attempts_per_wake"), g("mta.delivered_per_wake"));
        let leaf_us = per_wake * (g("dns.resolve_mx_ns") + g("net.connect_ns")) * 1e-3
            + delivered * g("smtp.exchange_full_us")
            + (per_wake - delivered).max(0.0) * g("smtp.exchange_deferred_us");
        let own_us = g("mta.wake_us") - leaf_us;
        values.insert("mta.self_us_est", own_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_repeat_for_a_seed_and_differ_across_seeds() {
        crate::harness::assert_deterministic(&MailDay::new(1), &MailDay::new(1), &MailDay::new(2));
    }
}
