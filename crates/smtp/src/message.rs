//! RFC 5322 messages (the minimal subset the experiments move).

use serde::{Deserialize, Serialize};
use std::fmt;

/// An email message: ordered headers and a body.
///
/// The greylisting experiments deliberately resend *identical* messages
/// (the paper's one-spam-task control relies on comparing them), so
/// messages implement `Eq`/`Hash` and expose a stable [`Message::digest`].
///
/// Every message is in the canonical form [`MessageBuilder::build`]
/// describes, so the wire form round-trips:
/// `Message::from_wire(&m.to_wire()) == Some(m)`.
///
/// # Example
///
/// ```
/// use spamward_smtp::Message;
/// let m = Message::builder()
///     .header("Subject", "Cheap pills")
///     .header("From", "spam@botnet.example")
///     .body("Buy now!")
///     .build();
/// assert_eq!(m.header("subject"), Some("Cheap pills"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Message {
    headers: Vec<(String, String)>,
    body: String,
}

impl Message {
    /// Starts building a message.
    pub fn builder() -> MessageBuilder {
        MessageBuilder::default()
    }

    /// The headers in order.
    pub fn headers(&self) -> &[(String, String)] {
        &self.headers
    }

    /// The first header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The message body.
    pub fn body(&self) -> &str {
        &self.body
    }

    /// Byte size of the wire form (used for SIZE accounting), computed
    /// without rendering it: each header is `name: value` plus CRLF, then
    /// the blank separator line, then every body line plus CRLF.
    pub fn size(&self) -> usize {
        let headers: usize = self.headers.iter().map(|(n, v)| n.len() + v.len() + 4).sum();
        let newlines = self.body.bytes().filter(|&b| b == b'\n').count();
        // Each '\n' becomes CRLF and the last line gets one more.
        headers + 2 + self.body.len() + newlines + 2
    }

    /// A cheap stable digest for identity checks (FNV-1a over the wire
    /// form, streamed without rendering it). Not cryptographic — it only
    /// needs to tell "same spam task" from "different spam task".
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        self.wire_pieces(|piece| {
            for &b in piece.as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        });
        h
    }

    /// Hands the wire form to `sink` in order, piece by piece.
    fn wire_pieces(&self, mut sink: impl FnMut(&str)) {
        for (name, value) in &self.headers {
            sink(name);
            sink(": ");
            sink(value);
            sink("\r\n");
        }
        sink("\r\n");
        for line in self.body.split('\n') {
            sink(line);
            sink("\r\n");
        }
    }

    /// Serializes header section, blank line and body with CRLF endings
    /// (no dot-stuffing; see [`crate::dot_stuff`]).
    pub fn to_wire(&self) -> String {
        let mut out = String::with_capacity(self.size());
        self.wire_pieces(|piece| out.push_str(piece));
        out
    }

    /// Parses a wire-form message (headers, blank line, body) into
    /// canonical form. Header continuation lines are not supported — the
    /// suite never folds.
    ///
    /// Returns `None` if no blank separator line exists or a header lacks a
    /// colon.
    pub fn from_wire(s: &str) -> Option<Self> {
        let mut builder = Message::builder();
        let mut lines = s.split("\r\n");
        for line in lines.by_ref() {
            if line.is_empty() {
                // `build` drops the CRLF the serializer ends with, along
                // with any other trailing blank lines.
                builder.body = lines.collect::<Vec<_>>().join("\n");
                return Some(builder.build());
            }
            let (name, value) = line.split_once(':')?;
            builder = builder.header(name, value);
        }
        None
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<message {} headers, {} body bytes, digest {:016x}>",
            self.headers.len(),
            self.body.len(),
            self.digest()
        )
    }
}

/// Builder for [`Message`].
#[derive(Debug, Default)]
pub struct MessageBuilder {
    headers: Vec<(String, String)>,
    body: String,
}

impl MessageBuilder {
    /// Appends a header; surrounding whitespace of the name and the value
    /// is trimmed.
    ///
    /// Neither may contain CR or LF, and the name may not contain `:` —
    /// the wire form could not carry such a header back. Headers are not
    /// checked against these limits.
    pub fn header(mut self, name: &str, value: &str) -> Self {
        self.headers.push((name.trim().to_owned(), value.trim().to_owned()));
        self
    }

    /// Sets the body. Lines may end in LF or CRLF.
    pub fn body(mut self, body: &str) -> Self {
        self.body = body.to_owned();
        self
    }

    /// Finishes the message in canonical form: body lines lose any
    /// trailing CR and are joined by `\n`, and trailing blank lines are
    /// dropped (SMTP cannot carry them). Header names and values are
    /// already trimmed. The canonical form is what a server parses back
    /// from the wire, so a message handed over in memory equals the one a
    /// socket would deliver.
    pub fn build(self) -> Message {
        Message { headers: self.headers, body: canonical_body(self.body) }
    }
}

/// `body` with each line's trailing CR removed and trailing blank lines
/// dropped; returned unchanged (no copy) when already canonical.
fn canonical_body(body: String) -> String {
    if !body.contains('\r') && !body.ends_with('\n') {
        return body;
    }
    let mut out = String::with_capacity(body.len());
    for (i, line) in body.split('\n').enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(line.trim_end_matches('\r'));
    }
    let kept = out.trim_end_matches('\n').len();
    out.truncate(kept);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Message {
        Message::builder()
            .header("From", "a@b.cc")
            .header("To", "x@y.zz")
            .header("Subject", "hello")
            .body("line one\nline two")
            .build()
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let m = sample();
        assert_eq!(m.header("subject"), Some("hello"));
        assert_eq!(m.header("SUBJECT"), Some("hello"));
        assert_eq!(m.header("missing"), None);
    }

    #[test]
    fn wire_roundtrip() {
        let m = sample();
        let wire = m.to_wire();
        assert!(wire.contains("Subject: hello\r\n"));
        assert!(wire.contains("\r\n\r\n"));
        let parsed = Message::from_wire(&wire).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn digest_distinguishes_content() {
        let m1 = sample();
        let m2 = Message::builder().header("Subject", "different").body("x").build();
        assert_ne!(m1.digest(), m2.digest());
        assert_eq!(m1.digest(), sample().digest());
    }

    #[test]
    fn from_wire_rejects_malformed() {
        assert_eq!(Message::from_wire("no blank line"), None);
        assert_eq!(Message::from_wire("not a header\r\n\r\nbody"), None);
    }

    #[test]
    fn empty_body_roundtrip() {
        let m = Message::builder().header("Subject", "s").body("").build();
        let parsed = Message::from_wire(&m.to_wire()).unwrap();
        assert_eq!(parsed.body(), "");
    }

    #[test]
    fn build_canonicalizes_crlf_and_trailing_blank_lines() {
        let m =
            Message::builder().header("  Subject ", " hi ").body("one\r\ntwo\r\r\n\r\n\n").build();
        assert_eq!(m.headers(), &[("Subject".to_owned(), "hi".to_owned())]);
        assert_eq!(m.body(), "one\ntwo");
        assert_eq!(Message::builder().body("").build().body(), "");
        assert_eq!(Message::builder().body("\r\n\n").build().body(), "");
    }

    fn built(headers: Vec<(String, String)>, body: &str) -> Message {
        headers.iter().fold(Message::builder(), |b, (n, v)| b.header(n, v)).body(body).build()
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
    }

    proptest! {
        #[test]
        fn prop_roundtrip(subject in "[ -~]{0,30}", body in "[a-zA-Z0-9 ]{0,80}") {
            // Header values must not contain ':' confusion — any printable
            // is fine for values; parser splits on first ':' of each line.
            let m = Message::builder().header("Subject", subject.trim()).body(&body).build();
            let parsed = Message::from_wire(&m.to_wire()).unwrap();
            prop_assert_eq!(parsed.body(), m.body());
        }

        #[test]
        fn prop_size_is_the_wire_length(
            headers in proptest::collection::vec(("[A-Za-z-]{1,16}", "\\PC{0,40}"), 0..5),
            body in "[.a \r\n]{0,60}",
        ) {
            let m = built(headers, &body);
            prop_assert_eq!(m.size(), m.to_wire().len());
        }

        #[test]
        fn prop_digest_is_fnv1a_of_the_wire_form(
            headers in proptest::collection::vec(("[A-Za-z-]{1,16}", "\\PC{0,40}"), 0..5),
            body in "[.a \r\n]{0,60}",
        ) {
            let m = built(headers, &body);
            prop_assert_eq!(m.digest(), fnv1a(m.to_wire().as_bytes()));
        }

        #[test]
        fn prop_built_messages_roundtrip_exactly(
            headers in proptest::collection::vec(("[A-Za-z-]{1,16}", "\\PC{0,40}"), 0..5),
            body in "[.a \r\n]{0,60}",
        ) {
            let m = built(headers, &body);
            prop_assert_eq!(Message::from_wire(&m.to_wire()), Some(m));
        }
    }
}
