//! Per-layer metric names, the layer → end-to-end map, and replays that
//! time single calls into one layer with the run's own inputs.

use crate::stats::{median, secs_since, share};
use spamward_dns::{Authority, DomainName, Resolver, Zone};
use spamward_greylist::{Greylist, GreylistConfig};
use spamward_mta::{MailWorld, ReceivingMta};
use spamward_net::{Network, SMTP_PORT};
use spamward_sim::{SimDuration, SimTime};
use spamward_smtp::{
    exchange, ClientSession, Dialect, EmailAddress, Envelope, Message, ReversePath, ServerSession,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Per-layer values by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// Every per-layer metric with its unit, in print order. A traced run of
/// any workload prints all of them; a layer the workload's pass never
/// calls reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("sim.episodes", "count"),
    ("sim.events", "count"),
    ("sim.dispatch_self_us", "us"),
    ("mta.wake_us", "us"),
    ("mta.self_us_est", "us"),
    ("mta.attempts_per_message", "count"),
    ("mta.delivered_share", "share"),
    ("smtp.exchanges", "count"),
    ("smtp.exchange_full_us", "us"),
    ("smtp.exchange_deferred_us", "us"),
    ("greylist.check_ns", "ns"),
    ("greylist.new_triplet_share", "share"),
    ("greylist.store_peak_entries", "count"),
    ("greylist.store_bytes", "bytes"),
    ("dns.resolve_mx_ns", "ns"),
    ("dns.cold_resolve_ns", "ns"),
    ("dns.cache_hit_share", "share"),
    ("net.connect_ns", "ns"),
    ("net.network_new_ns", "ns"),
    ("net.connect_failed_share", "share"),
    ("botnet.campaign_us", "us"),
    ("botnet.attempts_per_chain", "count"),
    ("scanner.shard_s", "s"),
    ("scanner.packed_ns", "ns"),
    ("scanner.ownership_filter_share", "share"),
    ("analysis.log_parse_s", "s"),
    ("analysis.cdf_s", "s"),
    ("obs.collect_s", "s"),
    ("core.table1_s", "s"),
    ("core.fig2_s", "s"),
    ("core.table2_s", "s"),
    ("core.fig3_s", "s"),
    ("core.fig4_s", "s"),
    ("core.fig5_s", "s"),
    ("core.table3_s", "s"),
    ("core.table4_s", "s"),
    ("core.summary_s", "s"),
    ("core.ablations_s", "s"),
    ("core.future_s", "s"),
    ("core.dialects_s", "s"),
    ("core.costs_s", "s"),
    ("core.longterm_s", "s"),
    ("core.variance_s", "s"),
    ("core.resilience_s", "s"),
    ("core.policy_backend_s", "s"),
    ("core.recovery_s", "s"),
    ("core.render_json_s", "s"),
    ("bench.cpu_wait_share", "share"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Which end-to-end metric each layer's metrics should move, on which
/// workload. Printed by every traced run.
pub const LAYER_MAP: &[(&str, &str, &str)] = &[
    (
        "sim",
        "sim.episodes sim.events sim.dispatch_self_us",
        "mail_day item_p50_us; scan_survey none",
    ),
    (
        "mta",
        "mta.wake_us mta.self_us_est mta.attempts_per_message mta.delivered_share",
        "mail_day attempts_per_s and item_p50_us",
    ),
    (
        "smtp",
        "smtp.exchanges smtp.exchange_full_us smtp.exchange_deferred_us",
        "mail_day attempts_per_s; spam_run a little; scan_survey none",
    ),
    (
        "greylist",
        "greylist.check_ns greylist.new_triplet_share greylist.store_*",
        "spam_run attempts_per_s and peak_rss_mb (writes); mail_day attempts_per_s (reads)",
    ),
    (
        "dns",
        "dns.resolve_mx_ns dns.cold_resolve_ns dns.cache_hit_share",
        "scan_survey items_per_s; mail_day and spam_run a little",
    ),
    (
        "net",
        "net.connect_ns net.network_new_ns net.connect_failed_share",
        "spam_run attempts_per_s; scan_survey items_per_s",
    ),
    ("botnet", "botnet.campaign_us botnet.attempts_per_chain", "spam_run item_p50_us"),
    (
        "scanner",
        "scanner.shard_s scanner.packed_ns scanner.ownership_filter_share",
        "scan_survey items_per_s",
    ),
    (
        "analysis/obs",
        "analysis.log_parse_s analysis.cdf_s obs.collect_s",
        "mail_day run_s; paper_repro run_s",
    ),
    (
        "core",
        "core.<experiment>_s core.render_json_s",
        "paper_repro run_s (not in BENCHMARK.json); core.fig5_s on mail_day, core.table2_s on \
         spam_run, core.fig2_s on scan_survey time the matching registry entry",
    ),
    (
        "bench",
        "bench.cpu_wait_share bench.trace_overhead_ratio",
        "none (noise and overhead diagnostics)",
    ),
];

/// The layer counts a driven world keeps: engine episodes and events, SMTP
/// sessions, the greylist of the server at `mx` and its store, resolver
/// cache hits and failed connects.
pub fn world_layers(world: &MailWorld, mx: Ipv4Addr) -> LayerValues {
    let gl = world.server(mx).and_then(|s| s.greylist());
    let decisions = gl.map(|g| g.stats()).unwrap_or_default();
    let net = &world.network;
    let dns = world.resolver.stats();
    let failed = net.connects_refused() + net.connects_timed_out();
    LayerValues::from([
        ("sim.episodes", world.engine_stats.outcomes.total() as f64),
        ("sim.events", world.engine_stats.events as f64),
        ("smtp.exchanges", net.connects_established() as f64),
        (
            "greylist.new_triplet_share",
            share(decisions.greylisted_new as f64, decisions.total() as f64),
        ),
        ("greylist.store_peak_entries", gl.map_or(0.0, |g| g.store().len() as f64)),
        ("greylist.store_bytes", gl.map_or(0.0, |g| g.store().approx_bytes() as f64)),
        ("dns.cache_hit_share", share(dns.hits as f64, (dns.hits + dns.misses) as f64)),
        ("net.connect_failed_share", share(failed as f64, net.connects_attempted() as f64)),
    ])
}

/// Shortest wall time one replay measurement spans, so that the timer's
/// resolution and one-off stalls stay small against it.
const REPLAY_ROUND_S: f64 = 0.01;
/// Replay rounds per unit cost; the reported cost is their median.
const REPLAY_ROUNDS: usize = 7;

/// Median over [`REPLAY_ROUNDS`] rounds of seconds per operation, where
/// each round repeats `once` (which returns the operations it made) until
/// it has run for at least [`REPLAY_ROUND_S`].
pub fn per_op(mut once: impl FnMut() -> u64) -> f64 {
    let mut rounds = Vec::with_capacity(REPLAY_ROUNDS);
    for _ in 0..REPLAY_ROUNDS {
        let t0 = Instant::now();
        let mut ops = 0u64;
        while ops == 0 || secs_since(t0) < REPLAY_ROUND_S {
            ops += once();
        }
        rounds.push(secs_since(t0) / ops as f64);
    }
    median(&rounds)
}

/// One SMTP session's client-side inputs, as the run used them.
#[derive(Debug, Clone)]
pub struct SessionInput {
    /// The client's dialect.
    pub dialect: Dialect,
    /// The envelope it sent.
    pub envelope: Envelope,
    /// The message it carried.
    pub message: Message,
}

impl SessionInput {
    /// The envelope a sender at `ip` speaking `dialect` builds.
    pub fn new(
        dialect: Dialect,
        ip: Ipv4Addr,
        from: &ReversePath,
        rcpt: &EmailAddress,
        message: &Message,
    ) -> Self {
        let envelope = Envelope::builder()
            .client_ip(ip)
            .helo(&dialect.helo_argument(ip))
            .mail_from(from.clone())
            .rcpt(rcpt.clone())
            .build();
        SessionInput { dialect, envelope, message: message.clone() }
    }
}

const REPLAY_MX: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 200);

/// Microseconds per `exchange` of `inputs` against a server that accepts
/// every message (`defer = false`), or that defers every RCPT with a 450
/// (`defer = true`: a greylist whose delay never elapses).
pub fn exchange_us(inputs: &[SessionInput], defer: bool) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let server = || {
        let mta = ReceivingMta::new("mx.replay.example", REPLAY_MX);
        if defer {
            let never = SimDuration::from_days(365 * 100);
            mta.with_greylist(Greylist::new(
                GreylistConfig::with_delay(never).without_auto_whitelist(),
            ))
        } else {
            mta
        }
    };
    per_op(|| {
        let mut mta = server();
        for input in inputs {
            let mut client = ClientSession::new(
                input.dialect.clone(),
                input.envelope.clone(),
                input.message.clone(),
            );
            let mut session = ServerSession::new("mx.replay.example", input.envelope.client_ip());
            std::hint::black_box(exchange(&mut client, &mut session, &mut mta, SimTime::ZERO));
        }
        inputs.len() as u64
    }) * 1e6
}

/// One greylist check of the run, in run order.
#[derive(Debug, Clone)]
pub struct CheckInput {
    /// When the RCPT arrived.
    pub at: SimTime,
    /// The client address.
    pub ip: Ipv4Addr,
    /// Envelope sender.
    pub from: ReversePath,
    /// Recipient.
    pub rcpt: EmailAddress,
}

/// Nanoseconds per `Greylist::check` when the run's check sequence is
/// replayed in order into a fresh greylist built from `config`.
pub fn check_ns(config: &GreylistConfig, seq: &[CheckInput]) -> f64 {
    if seq.is_empty() {
        return 0.0;
    }
    per_op(|| {
        let mut gl = Greylist::new(config.clone());
        for c in seq {
            std::hint::black_box(gl.check(c.at, c.ip, &c.from, &c.rcpt));
        }
        seq.len() as u64
    }) * 1e9
}

/// Nanoseconds per warm (cached) `Resolver::resolve_mx` of `domain`.
pub fn resolve_mx_ns(zone: &Zone, domain: &DomainName) -> f64 {
    let mut dns = Authority::new();
    dns.publish(zone.clone());
    let mut resolver = Resolver::new();
    let _ = resolver.resolve_mx(&mut dns, domain, SimTime::ZERO);
    per_op(|| {
        for _ in 0..100 {
            let _ = std::hint::black_box(resolver.resolve_mx(&mut dns, domain, SimTime::ZERO));
        }
        100
    }) * 1e9
}

/// Nanoseconds per cold resolution: a fresh `Authority`, `publish` of the
/// zone and `resolve_mx` through a fresh resolver — what the scanner does
/// for every domain.
pub fn cold_resolve_ns(zones: &[(Zone, DomainName)]) -> f64 {
    if zones.is_empty() {
        return 0.0;
    }
    per_op(|| {
        for (zone, domain) in zones {
            let mut dns = Authority::new();
            dns.publish(zone.clone());
            let mut resolver = Resolver::new();
            let _ = std::hint::black_box(resolver.resolve_mx(&mut dns, domain, SimTime::ZERO));
        }
        zones.len() as u64
    }) * 1e9
}

/// Nanoseconds per `Network::connect_at` of the run's connection targets,
/// replayed in order against `network`.
pub fn connect_ns(network: &mut Network, targets: &[(Ipv4Addr, SimTime)]) -> f64 {
    if targets.is_empty() {
        return 0.0;
    }
    per_op(|| {
        for &(ip, at) in targets {
            let _ = std::hint::black_box(network.connect_at(ip, SMTP_PORT, 0, at));
        }
        targets.len() as u64
    }) * 1e9
}

/// Nanoseconds per network built: `Network::new` plus a `build` call for
/// each of its hosts (name, address), port 25 open.
pub fn network_new_ns(seed: u64, networks: &[Vec<(String, Ipv4Addr)>]) -> f64 {
    if networks.is_empty() {
        return 0.0;
    }
    per_op(|| {
        for hosts in networks {
            let mut net = Network::new(seed);
            for (name, ip) in hosts {
                net.host(name).ip(*ip).smtp_open().build();
            }
            std::hint::black_box(net);
        }
        networks.len() as u64
    }) * 1e9
}
