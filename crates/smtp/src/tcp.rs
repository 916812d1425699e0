//! Real-network transport: the same state machines over TCP.
//!
//! Everything else in the suite couples [`ClientSession`] and
//! [`ServerSession`] directly for simulation speed; this module runs them
//! over genuine sockets so the library doubles as a *working* SMTP
//! implementation — a greylisting server you can point `swaks` or a real
//! MTA at, and a client that can deliver to one.
//!
//! Time on the wire is real time: callers inject a [`Clock`] mapping it to
//! the virtual [`SimTime`](spamward_sim::SimTime) the policy layer expects — [`WallClock`] (the
//! workspace's one sanctioned host-clock reader, re-exported from
//! `spamward_sim::wall`) for real deployments, `ManualClock` for
//! deterministic tests.

use crate::client::{ClientAction, ClientSession, DeliveryOutcome};
use crate::reply::Reply;
use crate::server::{ServerPolicy, ServerSession};
use crate::wire::{dot_stuff, dot_unstuff};
use crate::Command;
use spamward_sim::Clock;
pub use spamward_sim::WallClock;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};

fn write_reply(stream: &mut TcpStream, reply: &Reply) -> io::Result<()> {
    stream.write_all(reply.to_wire().as_bytes())?;
    stream.flush()
}

/// Reads one (possibly multi-line) reply from the server side of `reader`.
fn read_reply(reader: &mut impl BufRead) -> io::Result<Reply> {
    let mut wire = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
        }
        let done = line.len() >= 4 && line.as_bytes()[3] == b' ';
        wire.push_str(line.trim_end_matches(['\r', '\n']));
        wire.push_str("\r\n");
        if done {
            break;
        }
    }
    Reply::from_wire(&wire)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, format!("bad reply {wire:?}")))
}

fn peer_ipv4(peer: SocketAddr) -> Ipv4Addr {
    match peer {
        SocketAddr::V4(a) => *a.ip(),
        SocketAddr::V6(_) => Ipv4Addr::LOCALHOST, // v6 loopback in tests
    }
}

/// `line` without its trailing CR and LF bytes.
fn trim_line_end(line: &[u8]) -> &[u8] {
    let end = line.iter().rposition(|&b| b != b'\r' && b != b'\n').map_or(0, |i| i + 1);
    &line[..end]
}

/// Serves exactly one SMTP connection on `stream` with the given policy.
///
/// Returns the finished [`ServerSession`] (mailbox of accepted messages
/// included) when the client quits or disconnects.
///
/// Lines are read as bytes: a command line that is not UTF-8 is answered
/// `500` like any unrecognized command, and a body that is not UTF-8 is
/// stored with its invalid bytes replaced by U+FFFD.
///
/// # Errors
///
/// Propagates socket I/O errors; a client that just drops the connection
/// mid-session is *not* an error (fire-and-forget bots do exactly that).
pub fn serve_connection(
    stream: TcpStream,
    hostname: &str,
    policy: &mut dyn ServerPolicy,
    clock: &dyn Clock,
) -> io::Result<ServerSession> {
    let mut session = ServerSession::new(hostname, peer_ipv4(stream.peer_addr()?));
    run_session(stream, &mut session, policy, clock)?;
    Ok(session)
}

fn run_session(
    mut stream: TcpStream,
    session: &mut ServerSession,
    policy: &mut dyn ServerPolicy,
    clock: &dyn Clock,
) -> io::Result<()> {
    let banner = session.open(clock.now(), policy);
    write_reply(&mut stream, &banner)?;
    if session.is_closed() {
        return Ok(());
    }

    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = Vec::new();
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            // Peer hung up without QUIT.
            return Ok(());
        }
        let cmd = match std::str::from_utf8(&line) {
            Ok(text) => Command::parse(text),
            Err(_) => {
                Command::Unknown { raw: String::from_utf8_lossy(trim_line_end(&line)).into_owned() }
            }
        };
        let reply = session.handle(clock.now(), &cmd, policy);
        let wants_data = reply.is_intermediate();
        write_reply(&mut stream, &reply)?;
        if wants_data {
            // Collect dot-stuffed body until the terminator line.
            let mut body_wire = Vec::new();
            loop {
                line.clear();
                if reader.read_until(b'\n', &mut line)? == 0 {
                    return Ok(());
                }
                let trimmed = trim_line_end(&line);
                body_wire.extend_from_slice(trimmed);
                body_wire.extend_from_slice(b"\r\n");
                if trimmed == b"." {
                    break;
                }
            }
            let unstuffed = dot_unstuff(&String::from_utf8_lossy(&body_wire)).unwrap_or_default();
            let reply = session.handle_data_body(clock.now(), &unstuffed, policy);
            write_reply(&mut stream, &reply)?;
        }
        if session.is_closed() {
            return Ok(());
        }
    }
}

/// Accepts and serves `connections` sessions on `listener`, sequentially,
/// and returns every one of them.
///
/// A socket I/O error ends only the session it happened on: that session
/// is returned as far as it got, and the next connection is served.
///
/// A tiny single-threaded driver for tests and demos; production servers
/// would thread per connection around [`serve_connection`].
///
/// # Errors
///
/// Propagates errors accepting a connection.
pub fn serve_count(
    listener: &TcpListener,
    hostname: &str,
    policy: &mut dyn ServerPolicy,
    clock: &dyn Clock,
    connections: usize,
) -> io::Result<Vec<ServerSession>> {
    let mut sessions = Vec::with_capacity(connections);
    for _ in 0..connections {
        let (stream, peer) = listener.accept()?;
        let mut session = ServerSession::new(hostname, peer_ipv4(peer));
        // One client's broken connection is its own problem, not the
        // server's: the session keeps what it accepted before the error.
        let _ = run_session(stream, &mut session, policy, clock);
        sessions.push(session);
    }
    Ok(sessions)
}

/// Runs one delivery attempt over TCP, driving `client` against the server
/// at `addr`.
///
/// # Errors
///
/// Propagates connection and socket I/O errors; SMTP-level failures are
/// reported through the returned [`DeliveryOutcome`] instead.
pub fn deliver_tcp(addr: SocketAddr, mut client: ClientSession) -> io::Result<DeliveryOutcome> {
    let mut stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut reply = read_reply(&mut reader)?;
    loop {
        match client.on_reply(&reply) {
            ClientAction::Send(cmd) => {
                stream.write_all(cmd.to_wire().as_bytes())?;
                stream.flush()?;
                reply = read_reply(&mut reader)?;
            }
            ClientAction::SendBody => {
                stream.write_all(dot_stuff(&client.take_message().to_wire()).as_bytes())?;
                stream.flush()?;
                reply = read_reply(&mut reader)?;
            }
            ClientAction::Close(outcome) => return Ok(outcome),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::ReversePath;
    use crate::dialect::Dialect;
    use crate::envelope::Envelope;
    use crate::message::Message;
    use crate::server::AcceptAll;
    use crate::server::{PolicyDecision, Transaction};
    use spamward_sim::SimTime;
    use std::net::Ipv4Addr;
    use std::thread;

    fn envelope(rcpt: &str) -> Envelope {
        Envelope::builder()
            .client_ip(Ipv4Addr::LOCALHOST)
            .helo("client.local")
            .mail_from(ReversePath::Address("alice@relay.example".parse().unwrap()))
            .rcpt(rcpt.parse().unwrap())
            .build()
    }

    fn message() -> Message {
        Message::builder()
            .header("Subject", "over tcp")
            .body("real sockets\n.leading dot line")
            .build()
    }

    #[test]
    fn delivers_over_real_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut policy = AcceptAll;
            let clock = WallClock::new();
            serve_count(&listener, "mx.tcp.test", &mut policy, &clock, 1).expect("serve")
        });

        let client = ClientSession::new(
            Dialect::compliant_mta("relay.example"),
            envelope("user@tcp.test"),
            message(),
        );
        let outcome = deliver_tcp(addr, client).expect("client io");
        assert!(outcome.is_delivered(), "{outcome:?}");

        let sessions = server.join().expect("server thread");
        assert_eq!(sessions.len(), 1);
        let accepted = sessions[0].accepted();
        assert_eq!(accepted.len(), 1);
        assert_eq!(accepted[0].1.header("subject"), Some("over tcp"));
        // Dot-stuffing survived the real wire.
        assert!(accepted[0].1.body().contains(".leading dot line"));
    }

    struct GreylistOnce {
        rejected: usize,
    }
    impl ServerPolicy for GreylistOnce {
        fn on_rcpt(
            &mut self,
            _: SimTime,
            _: &Transaction,
            _: &crate::address::EmailAddress,
        ) -> PolicyDecision {
            if self.rejected == 0 {
                self.rejected += 1;
                PolicyDecision::TempFail(Reply::greylisted(1))
            } else {
                PolicyDecision::Accept
            }
        }
    }

    #[test]
    fn greylisting_works_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut policy = GreylistOnce { rejected: 0 };
            let clock = WallClock::new();
            serve_count(&listener, "mx.tcp.test", &mut policy, &clock, 2).expect("serve")
        });

        // First attempt: deferred.
        let client = ClientSession::new(
            Dialect::compliant_mta("relay.example"),
            envelope("user@tcp.test"),
            message(),
        );
        let first = deliver_tcp(addr, client).expect("client io");
        assert!(!first.is_delivered());
        assert!(first.is_retryable());

        // Retry: accepted.
        let client = ClientSession::new(
            Dialect::compliant_mta("relay.example"),
            envelope("user@tcp.test"),
            message(),
        );
        let second = deliver_tcp(addr, client).expect("client io");
        assert!(second.is_delivered());
        server.join().expect("server thread");
    }

    #[test]
    fn bot_dropping_connection_is_not_a_server_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            struct RejectRcpt;
            impl ServerPolicy for RejectRcpt {
                fn on_rcpt(
                    &mut self,
                    _: SimTime,
                    _: &Transaction,
                    _: &crate::address::EmailAddress,
                ) -> PolicyDecision {
                    PolicyDecision::TempFail(Reply::greylisted(300))
                }
            }
            let mut policy = RejectRcpt;
            let clock = WallClock::new();
            serve_count(&listener, "mx.tcp.test", &mut policy, &clock, 1).expect("serve")
        });

        // A fire-and-forget bot hangs up as soon as the RCPT is deferred.
        let client =
            ClientSession::new(Dialect::minimal_bot("bot"), envelope("user@tcp.test"), message());
        let outcome = deliver_tcp(addr, client).expect("client io");
        assert!(!outcome.is_delivered());
        let sessions = server.join().expect("server must survive the rude client");
        assert!(sessions[0].accepted().is_empty());
    }

    /// Sends `bytes` as one client, then reads until the server hangs up.
    fn rude_client(addr: SocketAddr, bytes: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(bytes).expect("write");
        stream.shutdown(std::net::Shutdown::Write).expect("half-close");
        let mut answer = String::new();
        std::io::Read::read_to_string(&mut stream, &mut answer).expect("read replies");
        answer
    }

    #[test]
    fn non_utf8_command_is_unrecognized_and_the_server_goes_on() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut policy = AcceptAll;
            let clock = WallClock::new();
            serve_count(&listener, "mx.tcp.test", &mut policy, &clock, 2)
        });

        let answer = rude_client(addr, b"EHLO \xff\xfe\r\n");
        let codes: Vec<&str> = answer.lines().map(|l| &l[..3]).collect();
        assert_eq!(codes, ["220", "500"], "{answer:?}");

        let client = ClientSession::new(
            Dialect::compliant_mta("relay.example"),
            envelope("user@tcp.test"),
            message(),
        );
        assert!(deliver_tcp(addr, client).expect("client io").is_delivered());

        let sessions = server.join().expect("server thread").expect("the server survives");
        assert_eq!(sessions.len(), 2);
        assert!(sessions[0].accepted().is_empty());
        assert_eq!(sessions[0].metrics().unrecognized, 1);
        assert_eq!(sessions[1].accepted().len(), 1);
        assert_eq!(sessions[1].accepted()[0].1, message());
    }

    #[test]
    fn a_reset_connection_ends_only_its_own_session() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut policy = AcceptAll;
            let clock = WallClock::new();
            serve_count(&listener, "mx.tcp.test", &mut policy, &clock, 2)
        });

        // Pile up commands, then close without reading a single reply: the
        // unread replies make the client's kernel reset the connection, so
        // the server's later reads or writes fail.
        let mut rude = TcpStream::connect(addr).expect("connect");
        rude.write_all(&b"NOOP\r\n".repeat(20_000)).expect("write");
        drop(rude);

        let client = ClientSession::new(
            Dialect::compliant_mta("relay.example"),
            envelope("user@tcp.test"),
            message(),
        );
        assert!(deliver_tcp(addr, client).expect("client io").is_delivered());
        let sessions = server.join().expect("server thread").expect("the server survives");
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[1].accepted().len(), 1);
    }

    #[test]
    fn non_utf8_body_is_stored_with_replacement_characters() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let mut policy = AcceptAll;
            let clock = WallClock::new();
            serve_count(&listener, "mx.tcp.test", &mut policy, &clock, 1)
        });
        let answer = rude_client(
            addr,
            b"HELO x\r\nMAIL FROM:<a@b.cc>\r\nRCPT TO:<u@tcp.test>\r\nDATA\r\n\
              Subject: s\r\n\r\nbad \xff byte\r\n.\r\nQUIT\r\n",
        );
        let codes: Vec<&str> = answer.lines().map(|l| &l[..3]).collect();
        assert_eq!(codes, ["220", "250", "250", "250", "354", "250", "221"], "{answer:?}");
        let sessions = server.join().expect("server thread").expect("serve");
        assert_eq!(sessions[0].accepted()[0].1.body(), "bad \u{fffd} byte");
    }

    #[test]
    fn wall_clock_advances() {
        let clock = WallClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }
}
