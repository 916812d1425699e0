//! Wire helpers: dot-stuffing and the lock-step client/server driver with
//! its counting observers.

use crate::client::{ClientAction, ClientSession, DeliveryOutcome};
use crate::command::Command;
use crate::extensions::Capabilities;
use crate::message::Message;
use crate::reply::Reply;
use crate::server::{ServerPolicy, ServerSession};
use crate::transcript::Transcript;
use spamward_sim::SimTime;

/// Applies RFC 5321 §4.5.2 dot-stuffing: any body line beginning with `.`
/// gets one extra leading `.`, and the terminating `<CRLF>.<CRLF>` is
/// appended.
///
/// # Example
///
/// ```
/// use spamward_smtp::dot_stuff;
/// let wire = dot_stuff("hi\r\n.hidden dot\r\n");
/// assert!(wire.contains("..hidden dot"));
/// assert!(wire.ends_with("\r\n.\r\n"));
/// ```
pub fn dot_stuff(body: &str) -> String {
    let mut out = String::with_capacity(body.len() + 16);
    for line in body.split("\r\n") {
        if line.starts_with('.') {
            out.push('.');
        }
        out.push_str(line);
        out.push_str("\r\n");
    }
    // split() yields a trailing empty element for CRLF-terminated input,
    // which would add a spurious blank line; strip it.
    if body.ends_with("\r\n") {
        out.truncate(out.len() - 2);
    }
    out.push_str(".\r\n");
    out
}

/// Reverses [`dot_stuff`]: strips the terminating dot line and un-doubles
/// leading dots. Returns `None` when the terminator is missing.
///
/// SMTP cannot distinguish a body with a trailing CRLF from one without
/// (both serialize to the same wire form), so the result is normalized to
/// have *no* trailing CRLF.
pub fn dot_unstuff(wire: &str) -> Option<String> {
    let stripped = match wire.strip_suffix("\r\n.\r\n") {
        Some(s) => s,
        None if wire == ".\r\n" => "",
        None => return None,
    };
    let mut out = String::with_capacity(stripped.len());
    for (i, line) in stripped.split("\r\n").enumerate() {
        if i > 0 {
            out.push_str("\r\n");
        }
        if let Some(rest) = line.strip_prefix('.') {
            out.push_str(rest);
        } else {
            out.push_str(line);
        }
    }
    Some(out)
}

/// One line of a conversation, in wire order, as [`drive`] runs it.
#[derive(Debug, Clone, Copy)]
pub enum SessionEvent<'a> {
    /// An early talker's first bytes raced the banner.
    Pregreet,
    /// The client sent a command.
    Command(&'a Command),
    /// The client sent the message body.
    Body(&'a Message),
    /// The server answered; the banner comes first.
    Reply(&'a Reply),
}

/// Watches a conversation [`drive`] runs. An observer renders nothing
/// unless it wants to: [`Transcript`] records text, [`LineCounter`] counts.
pub trait SessionObserver {
    /// Called once per line, in wire order.
    fn observe(&mut self, event: SessionEvent<'_>);
}

/// Counts the lines a [`Transcript`] of the same conversation would hold
/// without rendering any: the banner, one for an early talker's pregreet,
/// and two per command or body (the client line and its reply).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineCounter(usize);

impl LineCounter {
    /// Lines observed so far.
    pub fn lines(&self) -> usize {
        self.0
    }
}

impl SessionObserver for LineCounter {
    fn observe(&mut self, _: SessionEvent<'_>) {
        self.0 += 1;
    }
}

/// Counts client→server round trips under RFC 2920 PIPELINING: the banner,
/// the greeting, then — when the greeting was EHLO and its reply
/// advertises PIPELINING — one charge for the whole MAIL..RCPT..DATA batch
/// (closed by the body or a QUIT), one per command otherwise.
#[derive(Debug, Default)]
struct PipelinedRoundTrips {
    round_trips: usize,
    replies: usize,
    greeted_with_ehlo: bool,
    /// `Some(charged)` while a pipelined batch is open.
    batch: Option<bool>,
}

impl SessionObserver for PipelinedRoundTrips {
    fn observe(&mut self, event: SessionEvent<'_>) {
        match event {
            SessionEvent::Pregreet => {}
            SessionEvent::Command(cmd) => {
                if self.replies == 1 {
                    self.greeted_with_ehlo = matches!(cmd, Command::Ehlo { .. });
                }
                match self.batch {
                    // Rides along in the already-charged batch.
                    Some(true) => {}
                    Some(false) => {
                        self.round_trips += 1;
                        self.batch = Some(true);
                    }
                    None => self.round_trips += 1,
                }
                if matches!(cmd, Command::Quit) {
                    self.batch = None;
                }
            }
            SessionEvent::Body(_) => {
                self.round_trips += 1;
                self.batch = None;
            }
            SessionEvent::Reply(reply) => {
                self.replies += 1;
                if self.replies == 1 {
                    self.round_trips += 1;
                } else if self.replies == 2 && self.greeted_with_ehlo {
                    let caps = reply.lines().iter().skip(1).map(String::as_str);
                    if Capabilities::from_ehlo_lines(caps).pipelining {
                        self.batch = Some(false);
                    }
                }
            }
        }
    }
}

/// Runs a [`ClientSession`] against a [`ServerSession`] to completion,
/// telling `observer` every line, and returns the delivery outcome.
///
/// The driver is lock-step: every client command gets exactly one server
/// reply, and the DATA body moves from client to server as a typed
/// [`Message`], never as wire text. Transport-level failures (refused/timed-out connections) never
/// reach this function — model those with
/// [`DeliveryOutcome::connect_failed`].
///
/// # Panics
///
/// Panics if the conversation exceeds 10 000 exchanges (a state-machine
/// bug, not a realistic session).
pub fn drive(
    client: &mut ClientSession,
    server: &mut ServerSession,
    policy: &mut dyn ServerPolicy,
    now: SimTime,
    observer: &mut impl SessionObserver,
) -> DeliveryOutcome {
    let mut reply = if client.dialect().waits_for_banner {
        server.open(now, policy)
    } else {
        // Early talker: the client's first bytes race the banner; the
        // server's pregreet hook gets to veto before anything else.
        observer.observe(SessionEvent::Pregreet);
        server.open_pregreeted(now, policy)
    };
    observer.observe(SessionEvent::Reply(&reply));

    for _ in 0..10_000 {
        reply = match client.on_reply(&reply) {
            ClientAction::Send(cmd) => {
                observer.observe(SessionEvent::Command(&cmd));
                if server.is_closed() {
                    // Server hung up (e.g. rejected at connect); treat any
                    // further client talk as into-the-void and finish.
                    Reply::service_unavailable("closed")
                } else {
                    server.handle(now, &cmd, policy)
                }
            }
            ClientAction::SendBody => {
                let message = client.take_message();
                observer.observe(SessionEvent::Body(&message));
                server.handle_message(now, message, policy)
            }
            ClientAction::Close(outcome) => return outcome,
        };
        observer.observe(SessionEvent::Reply(&reply));
    }
    panic!("SMTP exchange did not terminate within 10000 steps");
}

/// [`drive`] with a [`Transcript`]: returns the outcome and the full
/// conversation.
///
/// # Panics
///
/// Panics on a conversation exceeding 10 000 steps, like [`drive`].
pub fn exchange(
    client: &mut ClientSession,
    server: &mut ServerSession,
    policy: &mut dyn ServerPolicy,
    now: SimTime,
) -> (DeliveryOutcome, Transcript) {
    let mut transcript = Transcript::default();
    let outcome = drive(client, server, policy, now, &mut transcript);
    (outcome, transcript)
}

/// Runs one delivery as an RFC 2920 PIPELINING client: `MAIL FROM`, every
/// `RCPT TO` and `DATA` go out as one batch when the server advertises
/// PIPELINING, lock-step otherwise. The server sees the same commands in
/// the same order either way, so the outcome equals [`exchange`]'s.
///
/// Returns the outcome plus the number of client→server *round trips* the
/// conversation cost — the quantity pipelining exists to minimize (and a
/// cost-accounting input: greylisting forces a second full conversation,
/// pipelined or not).
///
/// # Panics
///
/// Panics on a conversation exceeding 10 000 steps, like [`drive`].
pub fn exchange_pipelined(
    client: &mut ClientSession,
    server: &mut ServerSession,
    policy: &mut dyn ServerPolicy,
    now: SimTime,
) -> (DeliveryOutcome, usize) {
    let mut counter = PipelinedRoundTrips::default();
    let outcome = drive(client, server, policy, now, &mut counter);
    (outcome, counter.round_trips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::ReversePath;
    use crate::dialect::Dialect;
    use crate::envelope::Envelope;
    use crate::message::Message;
    use crate::reply::Reply;
    use crate::server::{AcceptAll, PolicyDecision, Transaction};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    #[test]
    fn dot_stuffing_roundtrip() {
        let body = "line\r\n.starts with dot\r\n..two dots\r\nend";
        let stuffed = dot_stuff(body);
        assert!(stuffed.contains("\r\n..starts with dot\r\n"));
        assert!(stuffed.contains("\r\n...two dots\r\n"));
        assert!(stuffed.ends_with("\r\n.\r\n"));
        assert_eq!(dot_unstuff(&stuffed).unwrap(), body);
    }

    #[test]
    fn dot_stuff_handles_trailing_crlf() {
        let body = "hello\r\n";
        let stuffed = dot_stuff(body);
        assert_eq!(stuffed, "hello\r\n.\r\n");
    }

    #[test]
    fn dot_unstuff_requires_terminator() {
        assert_eq!(dot_unstuff("no terminator"), None);
    }

    fn env(rcpts: &[&str]) -> Envelope {
        let mut b = Envelope::builder()
            .client_ip(Ipv4Addr::new(203, 0, 113, 9))
            .mail_from(ReversePath::Address("s@relay.example".parse().unwrap()));
        for r in rcpts {
            b = b.rcpt(r.parse().unwrap());
        }
        b.build()
    }

    fn msg() -> Message {
        Message::builder().header("Subject", "x").body(".dotty\nplain").build()
    }

    #[test]
    fn full_exchange_delivers() {
        let mut client =
            ClientSession::new(Dialect::compliant_mta("relay.example"), env(&["u@foo.net"]), msg());
        let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
        let mut policy = AcceptAll;
        let (outcome, transcript) = exchange(&mut client, &mut server, &mut policy, SimTime::ZERO);
        assert!(outcome.is_delivered());
        assert_eq!(server.accepted().len(), 1);
        // The dot-stuffed line must arrive un-stuffed.
        assert_eq!(server.accepted()[0].1.body(), ".dotty\nplain");
        // Transcript captures both directions.
        assert!(transcript.client_lines().any(|l| l.starts_with("EHLO")));
        assert!(transcript.server_lines().any(|l| l.starts_with("220")));
        let rendered = transcript.to_string();
        assert!(rendered.contains("C> QUIT"));
    }

    struct GreylistFirstRcpt;
    impl ServerPolicy for GreylistFirstRcpt {
        fn on_rcpt(
            &mut self,
            _: SimTime,
            _: &Transaction,
            _: &crate::address::EmailAddress,
        ) -> PolicyDecision {
            PolicyDecision::TempFail(Reply::greylisted(300))
        }
    }

    #[test]
    fn greylisted_exchange_is_retryable() {
        let mut client =
            ClientSession::new(Dialect::minimal_bot("bot"), env(&["u@foo.net"]), msg());
        let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
        let mut policy = GreylistFirstRcpt;
        let (outcome, transcript) = exchange(&mut client, &mut server, &mut policy, SimTime::ZERO);
        assert!(outcome.is_retryable());
        assert!(!outcome.is_delivered());
        // Fire-and-forget: no QUIT in the transcript.
        assert!(!transcript.client_lines().any(|l| l.starts_with("QUIT")));
    }

    struct RejectBanner;
    impl ServerPolicy for RejectBanner {
        fn on_connect(&mut self, _: SimTime, _: Ipv4Addr) -> PolicyDecision {
            PolicyDecision::Reject(Reply::single(554, "5.7.1 blocked"))
        }
    }

    #[test]
    fn rejected_banner_finishes_cleanly() {
        let mut client =
            ClientSession::new(Dialect::compliant_mta("relay.example"), env(&["u@foo.net"]), msg());
        let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
        let mut policy = RejectBanner;
        let (outcome, _) = exchange(&mut client, &mut server, &mut policy, SimTime::ZERO);
        assert!(matches!(outcome, DeliveryOutcome::PermFailed { .. }));
    }

    #[test]
    fn pipelined_exchange_same_outcome_fewer_round_trips() {
        let make = || {
            (
                ClientSession::new(
                    Dialect::compliant_mta("relay.example"),
                    env(&["a@foo.net", "b@foo.net", "c@foo.net"]),
                    msg(),
                ),
                ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9)),
            )
        };
        let (mut c1, mut s1) = make();
        let mut p1 = AcceptAll;
        let (lockstep, transcript) = exchange(&mut c1, &mut s1, &mut p1, SimTime::ZERO);
        let lockstep_round_trips = transcript.server_lines().count();

        let (mut c2, mut s2) = make();
        let mut p2 = AcceptAll;
        let (pipelined, round_trips) = exchange_pipelined(&mut c2, &mut s2, &mut p2, SimTime::ZERO);
        assert_eq!(lockstep, pipelined, "outcome must not depend on pipelining");
        assert_eq!(s1.accepted(), s2.accepted(), "server sees the same mail");
        assert!(
            round_trips < lockstep_round_trips,
            "pipelining must reduce round trips: {round_trips} vs {lockstep_round_trips}"
        );
        // banner + EHLO + MAIL..DATA batch + body + QUIT = 5.
        assert_eq!(round_trips, 5);
    }

    #[test]
    fn pipelined_exchange_against_greylist_still_defers() {
        let mut client =
            ClientSession::new(Dialect::compliant_mta("relay.example"), env(&["a@foo.net"]), msg());
        let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
        let mut policy = GreylistFirstRcpt;
        let (outcome, _) = exchange_pipelined(&mut client, &mut server, &mut policy, SimTime::ZERO);
        assert!(outcome.is_retryable());
        assert!(!outcome.is_delivered());
    }

    #[test]
    fn helo_only_client_gets_no_pipelining() {
        // A HELO client cannot negotiate PIPELINING; the fast path must
        // fall back without changing the outcome.
        let mut client =
            ClientSession::new(Dialect::minimal_bot("bot"), env(&["a@foo.net"]), msg());
        let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
        let mut policy = AcceptAll;
        let (outcome, round_trips) =
            exchange_pipelined(&mut client, &mut server, &mut policy, SimTime::ZERO);
        assert!(outcome.is_delivered());
        assert!(round_trips >= 6, "HELO path stays lock-step: {round_trips}");
    }

    #[test]
    fn transcript_fingerprint_separates_bot_from_mta() {
        // Run both dialects against a greylist-everything policy; the
        // failure path is where the fingerprints diverge.
        let run = |dialect: Dialect| {
            let mut client = ClientSession::new(dialect, env(&["u@foo.net", "v@foo.net"]), msg());
            let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
            let mut policy = GreylistFirstRcpt;
            let (_, transcript) = exchange(&mut client, &mut server, &mut policy, SimTime::ZERO);
            transcript.fingerprint()
        };
        let mta = run(Dialect::compliant_mta("relay.example"));
        assert!(mta.looks_like_mta(), "{mta:?}");
        assert!(mta.greets_with_ehlo && mta.quits_politely && !mta.early_talker);
        assert!(mta.retries_remaining_rcpts, "MTA tried the second RCPT after the 450");

        let bot = run(Dialect::minimal_bot("bot"));
        assert!(!bot.looks_like_mta(), "{bot:?}");
        assert!(bot.early_talker && bot.helo_is_literal);
        assert!(!bot.quits_politely && !bot.retries_remaining_rcpts);
    }

    #[test]
    fn transcript_fingerprint_on_clean_success_defaults_compliant() {
        let mut client =
            ClientSession::new(Dialect::compliant_mta("relay.example"), env(&["u@foo.net"]), msg());
        let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
        let mut policy = AcceptAll;
        let (_, transcript) = exchange(&mut client, &mut server, &mut policy, SimTime::ZERO);
        let fp = transcript.fingerprint();
        assert!(fp.retries_remaining_rcpts, "no failure signal defaults to compliant");
        assert!(fp.looks_like_mta());
    }

    /// Tempfails the first RCPT of every transaction and accepts the rest.
    struct GreylistOnlyFirstRcpt;
    impl ServerPolicy for GreylistOnlyFirstRcpt {
        fn on_rcpt(
            &mut self,
            _: SimTime,
            tx: &Transaction,
            _: &crate::address::EmailAddress,
        ) -> PolicyDecision {
            if tx.recipients.is_empty() {
                PolicyDecision::TempFail(Reply::greylisted(300))
            } else {
                PolicyDecision::Accept
            }
        }
    }

    struct RejectPregreet;
    impl ServerPolicy for RejectPregreet {
        fn on_pregreet(&mut self, _: SimTime, _: Ipv4Addr) -> PolicyDecision {
            PolicyDecision::Reject(Reply::single(554, "5.5.1 talked too soon"))
        }
    }

    /// The counting observers agree with the transcript, and no observer
    /// changes what the server sees: every dialect against every policy.
    #[test]
    fn observers_agree_with_the_transcript() {
        let early_talker =
            Dialect { waits_for_banner: false, ..Dialect::compliant_mta("relay.example") };
        let dialects =
            [Dialect::compliant_mta("relay.example"), Dialect::minimal_bot("bot"), early_talker];
        let policy = |i: usize| -> Box<dyn ServerPolicy> {
            match i {
                0 => Box::new(AcceptAll),
                1 => Box::new(GreylistOnlyFirstRcpt),
                2 => Box::new(RejectBanner),
                _ => Box::new(RejectPregreet),
            }
        };
        for dialect in &dialects {
            for rcpts in [&["u@foo.net"][..], &["a@foo.net", "b@foo.net", "c@foo.net"]] {
                for p in 0..4 {
                    let session = || {
                        (
                            ClientSession::new(dialect.clone(), env(rcpts), msg()),
                            ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9)),
                        )
                    };
                    let (mut c1, mut s1) = session();
                    let (outcome, transcript) =
                        exchange(&mut c1, &mut s1, &mut *policy(p), SimTime::ZERO);
                    let (mut c2, mut s2) = session();
                    let mut counter = LineCounter::default();
                    let counted =
                        drive(&mut c2, &mut s2, &mut *policy(p), SimTime::ZERO, &mut counter);
                    let (mut c3, mut s3) = session();
                    let (pipelined, _) =
                        exchange_pipelined(&mut c3, &mut s3, &mut *policy(p), SimTime::ZERO);
                    let case = format!("{} x {} rcpt(s) x policy {p}", dialect.name, rcpts.len());
                    assert_eq!(counter.lines(), transcript.entries().len(), "{case}");
                    assert_eq!(counted, outcome, "{case}");
                    assert_eq!(pipelined, outcome, "{case}");
                    assert_eq!(s2.accepted(), s1.accepted(), "{case}");
                    assert_eq!(s3.accepted(), s1.accepted(), "{case}");
                }
            }
        }
    }

    #[test]
    fn line_count_matches_the_historic_charge() {
        // Banner, then two lines per command or body: EHLO, MAIL, RCPT,
        // DATA, body, QUIT.
        let mut client =
            ClientSession::new(Dialect::compliant_mta("relay.example"), env(&["u@foo.net"]), msg());
        let mut server = ServerSession::new("mx.foo.net", Ipv4Addr::new(203, 0, 113, 9));
        let mut counter = LineCounter::default();
        let outcome = drive(&mut client, &mut server, &mut AcceptAll, SimTime::ZERO, &mut counter);
        assert!(outcome.is_delivered());
        assert_eq!(counter.lines(), 1 + 2 * 6);
    }

    proptest! {
        #[test]
        fn prop_dot_roundtrip(body in "[a-zA-Z0-9.\r\n ]{0,120}") {
            // SMTP cannot carry a trailing CRLF; every other body survives.
            let normalized = body.trim_end_matches("\r\n");
            let stuffed = dot_stuff(normalized);
            prop_assert_eq!(dot_unstuff(&stuffed).unwrap(), normalized);
        }

        #[test]
        fn prop_stuffed_never_contains_bare_dot_line(body in "(\\.?[a-z ]{0,10}\r\n){0,5}") {
            let stuffed = dot_stuff(&body);
            let interior = &stuffed[..stuffed.len() - 3];
            for line in interior.split("\r\n") {
                prop_assert_ne!(line, ".");
            }
        }
    }
}
