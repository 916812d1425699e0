//! The recording session observer: a plain-text transcript of a
//! conversation, and the sender fingerprint inferred from it.

use crate::dialect::DialectFingerprint;
use crate::wire::{dot_stuff, SessionEvent, SessionObserver};
use std::fmt;

/// Which side of the connection produced a transcript line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranscriptEntry {
    /// Client → server.
    ClientToServer,
    /// Server → client.
    ServerToClient,
}

/// A recorded SMTP conversation, one line per exchange.
#[derive(Debug, Clone, Default)]
pub struct Transcript {
    entries: Vec<(TranscriptEntry, String)>,
}

impl Transcript {
    /// All entries in order.
    pub fn entries(&self) -> &[(TranscriptEntry, String)] {
        &self.entries
    }

    /// The client lines only.
    pub fn client_lines(&self) -> impl Iterator<Item = &str> {
        self.entries
            .iter()
            .filter(|(d, _)| *d == TranscriptEntry::ClientToServer)
            .map(|(_, s)| s.as_str())
    }

    /// The server lines only.
    pub fn server_lines(&self) -> impl Iterator<Item = &str> {
        self.entries
            .iter()
            .filter(|(d, _)| *d == TranscriptEntry::ServerToClient)
            .map(|(_, s)| s.as_str())
    }

    /// Infers the sender's behavioural fingerprint from the observed
    /// conversation alone — the B@bel idea (Stringhini et al., USENIX
    /// Security 2012) the paper builds on.
    ///
    /// Works best on transcripts that contain a failure (a greylisted
    /// RCPT): that is where polite MTAs and fire-and-forget bots diverge.
    /// When the transcript carries no disambiguating signal, a feature
    /// defaults to the compliant value.
    pub fn fingerprint(&self) -> DialectFingerprint {
        let mut greets_with_ehlo = false;
        let mut helo_is_literal = false;
        let mut early_talker = false;
        let mut quits = false;
        let mut saw_rcpt_failure = false;
        let mut acted_after_rcpt_failure = false;
        let mut greeting_seen = false;
        let mut last_client_verb: Option<String> = None;

        for (dir, line) in &self.entries {
            match dir {
                TranscriptEntry::ClientToServer => {
                    if line == "<talks before banner>" {
                        early_talker = true;
                        continue;
                    }
                    let upper = line.to_ascii_uppercase();
                    let verb = upper.split_whitespace().next().unwrap_or("").to_owned();
                    if !greeting_seen && (verb == "EHLO" || verb == "HELO") {
                        greeting_seen = true;
                        greets_with_ehlo = verb == "EHLO";
                        if line.split_whitespace().nth(1).is_some_and(|a| a.starts_with('[')) {
                            helo_is_literal = true;
                        }
                    }
                    if verb == "QUIT" {
                        quits = true;
                    }
                    if saw_rcpt_failure && (verb == "RCPT" || verb == "DATA") {
                        acted_after_rcpt_failure = true;
                    }
                    last_client_verb = Some(verb);
                }
                TranscriptEntry::ServerToClient => {
                    let code: u16 = line.get(..3).and_then(|c| c.parse().ok()).unwrap_or(0);
                    if (400..600).contains(&code) && last_client_verb.as_deref() == Some("RCPT") {
                        saw_rcpt_failure = true;
                    }
                }
            }
        }

        DialectFingerprint {
            greets_with_ehlo,
            helo_is_literal,
            quits_politely: quits,
            retries_remaining_rcpts: !saw_rcpt_failure || acted_after_rcpt_failure,
            early_talker,
        }
    }
}

impl fmt::Display for Transcript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (dir, line) in &self.entries {
            let arrow = match dir {
                TranscriptEntry::ClientToServer => "C>",
                TranscriptEntry::ServerToClient => "S<",
            };
            writeln!(f, "{arrow} {line}")?;
        }
        Ok(())
    }
}

impl SessionObserver for Transcript {
    fn observe(&mut self, event: SessionEvent<'_>) {
        use TranscriptEntry::{ClientToServer, ServerToClient};
        self.entries.push(match event {
            SessionEvent::Pregreet => (ClientToServer, "<talks before banner>".to_owned()),
            SessionEvent::Command(cmd) => (ClientToServer, cmd.to_wire().trim_end().to_owned()),
            SessionEvent::Body(message) => {
                (ClientToServer, format!("<{} bytes of data>", dot_stuff(&message.to_wire()).len()))
            }
            SessionEvent::Reply(reply) => (ServerToClient, reply.to_wire().trim_end().to_owned()),
        });
    }
}
