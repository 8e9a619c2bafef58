//! The replication transport: length-prefixed, crc32-checked message
//! frames over an abstract byte channel.
//!
//! Every message travels in the same checked envelope the WAL uses
//! (`len u32 · crc32(payload) u32 · payload`, via
//! [`hippo_engine::codec::put_checked`] / [`codec::split_checked`]), so
//! a flipped bit anywhere on the wire is caught by the receiver before
//! any decoding happens. Two implementations ship:
//!
//! * [`ChannelTransport`] — an in-process `mpsc` pair carrying the
//!   *encoded* bytes (not the decoded messages), so byte-level
//!   corruption faults behave exactly as they would on a socket.
//!   Deterministic chaos tests live here.
//! * [`TcpTransport`] — `std::net::TcpStream`, blocking sends, timed
//!   receives with an internal reassembly buffer (a frame split across
//!   arbitrarily many segments is fine).
//!
//! # Fault injection
//!
//! A [`ChannelTransport`] built `with_faults` consults the `repl:drop`,
//! `repl:corrupt`, `repl:delay` and `repl:disconnect` checkpoints — in
//! that order — on **every** frame send (see the catalog in
//! [`hippo_cqa::budget`]). The injected behavior follows the armed
//! [`FaultKind`]: `Drop` discards the frame while reporting success,
//! `Corrupt` flips a payload byte after the CRC was computed (the
//! receiver's checksum rejects it), `Delay` sleeps before sending, and
//! `Disconnect` poisons the transport so every later call fails — the
//! same shape as a peer vanishing mid-stream.

use hippo_cqa::budget::{FaultKind, Governance};
use hippo_engine::codec;
use hippo_engine::EngineError;
use std::io::{ErrorKind as IoKind, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A message payload larger than this is treated as a hostile or
/// desynced stream, not an allocation request. Matches the WAL's frame
/// bound.
pub(crate) const MAX_MESSAGE_LEN: u32 = 1 << 30;

fn transport_err(ctx: &str, detail: impl std::fmt::Display) -> EngineError {
    EngineError::new(format!("transport: {ctx}: {detail}"))
}

/// One end of a replication link. Messages are opaque byte payloads;
/// framing, checksums and fault injection live below this trait, so the
/// protocol layer ([`crate::replicate`]) is transport-agnostic.
pub trait Transport: Send {
    /// Send one message. `Ok(())` means the bytes were handed to the
    /// underlying channel — not that the peer processed them.
    fn send(&mut self, payload: &[u8]) -> Result<(), EngineError>;

    /// Receive one message, waiting up to `timeout`. `Ok(None)` means
    /// the wait elapsed with no complete frame; a checksum mismatch or
    /// a dead peer is an `Err` (the caller decides whether that is
    /// fatal or a resync trigger).
    fn recv(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, EngineError>;

    /// A human-readable peer label for diagnostics.
    fn peer(&self) -> String;
}

/// Per-send fault consultation of a [`ChannelTransport`] built
/// `with_faults`: returns what to do with the already-framed bytes.
enum SendAction {
    Send,
    DropSilently,
    Fail(EngineError),
}

fn apply_send_faults(faults: &Option<(Governance, usize)>, framed: &mut [u8]) -> SendAction {
    let Some((gov, shard)) = faults else {
        return SendAction::Send;
    };
    for point in ["repl:drop", "repl:corrupt", "repl:delay", "repl:disconnect"] {
        let Some(kind) = gov.take_fault(point, *shard) else {
            continue;
        };
        match kind {
            FaultKind::Drop => return SendAction::DropSilently,
            FaultKind::Corrupt => {
                // Flip a payload byte *after* the CRC was computed: the
                // receiver's checksum must catch it.
                if let Some(b) = framed.last_mut() {
                    *b ^= 0xFF;
                }
                return SendAction::Send;
            }
            FaultKind::Delay(d) => {
                std::thread::sleep(d);
                return SendAction::Send;
            }
            FaultKind::Disconnect => {
                return SendAction::Fail(transport_err(
                    "send",
                    format!("injected disconnect at {point}:{shard}"),
                ));
            }
            FaultKind::Panic => panic!("injected fault: panic at {point}:{shard}"),
            FaultKind::BudgetTrip => {
                return SendAction::Fail(EngineError::budget("repl", 0, 0));
            }
            FaultKind::ShortWrite => {
                // A channel message either arrives whole or not at all;
                // model the torn send as corruption the receiver sees.
                if let Some(b) = framed.last_mut() {
                    *b ^= 0xFF;
                }
                return SendAction::Send;
            }
        }
    }
    SendAction::Send
}

/// In-process transport: an `mpsc` pair per direction, carrying encoded
/// frame bytes. [`ChannelTransport::pair`] returns the two connected
/// ends.
pub struct ChannelTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
    label: String,
    faults: Option<(Governance, usize)>,
    poisoned: bool,
}

impl ChannelTransport {
    /// A connected pair of in-process ends: what one `send`s the other
    /// `recv`s.
    pub fn pair() -> (ChannelTransport, ChannelTransport) {
        let (atx, brx) = mpsc::channel();
        let (btx, arx) = mpsc::channel();
        (
            ChannelTransport {
                tx: atx,
                rx: arx,
                label: "chan:a".into(),
                faults: None,
                poisoned: false,
            },
            ChannelTransport {
                tx: btx,
                rx: brx,
                label: "chan:b".into(),
                faults: None,
                poisoned: false,
            },
        )
    }

    /// Arm fault injection on this end's send path (`gov` carries the
    /// plan; `shard` is the id the `repl:*` checkpoints fire with).
    pub fn with_faults(mut self, gov: Governance, shard: usize) -> ChannelTransport {
        self.faults = Some((gov, shard));
        self
    }
}

impl Transport for ChannelTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), EngineError> {
        if self.poisoned {
            return Err(transport_err("send", "transport disconnected"));
        }
        let mut framed = codec::encode_checked(payload);
        match apply_send_faults(&self.faults, &mut framed) {
            SendAction::Send => {}
            SendAction::DropSilently => return Ok(()),
            SendAction::Fail(e) => {
                self.poisoned = true;
                return Err(e);
            }
        }
        self.tx
            .send(framed)
            .map_err(|_| transport_err("send", "peer hung up"))
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, EngineError> {
        if self.poisoned {
            return Err(transport_err("recv", "transport disconnected"));
        }
        let framed = match self.rx.recv_timeout(timeout) {
            Ok(bytes) => bytes,
            Err(mpsc::RecvTimeoutError::Timeout) => return Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err(transport_err("recv", "peer hung up"));
            }
        };
        match codec::split_checked(&framed, MAX_MESSAGE_LEN) {
            Ok(Some((payload, consumed))) if consumed == framed.len() => Ok(Some(payload.to_vec())),
            // A channel message is exactly one frame; anything else —
            // short, trailing bytes, bad crc — is corruption.
            Ok(_) => Err(transport_err("recv", "corrupt frame (torn message)")),
            Err(e) => Err(transport_err("recv", e.message)),
        }
    }

    fn peer(&self) -> String {
        self.label.clone()
    }
}

/// TCP transport over one `std::net::TcpStream`: blocking sends, timed
/// receives. The receive side accumulates bytes until a whole checked
/// frame is present, so arbitrary segmentation on the wire is fine.
pub struct TcpTransport {
    stream: TcpStream,
    /// Bytes received but not yet assembled into a complete frame.
    inbox: Vec<u8>,
    poisoned: bool,
}

impl TcpTransport {
    /// Wrap an established stream. `TCP_NODELAY` is enabled so
    /// heartbeats and small frames are not coalesced behind Nagle.
    pub(crate) fn new(stream: TcpStream) -> Result<TcpTransport, EngineError> {
        stream
            .set_nodelay(true)
            .map_err(|e| transport_err("set_nodelay", e))?;
        Ok(TcpTransport {
            stream,
            inbox: Vec::new(),
            poisoned: false,
        })
    }

    /// Connect to a listening peer.
    pub fn connect(addr: &str) -> Result<TcpTransport, EngineError> {
        let stream = TcpStream::connect(addr).map_err(|e| transport_err("connect", e))?;
        TcpTransport::new(stream)
    }

    /// Try to pop one complete frame out of the inbox.
    fn take_frame(&mut self) -> Result<Option<Vec<u8>>, EngineError> {
        match codec::split_checked(&self.inbox, MAX_MESSAGE_LEN) {
            Ok(Some((payload, consumed))) => {
                let payload = payload.to_vec();
                self.inbox.drain(..consumed);
                Ok(Some(payload))
            }
            Ok(None) => Ok(None),
            Err(e) => {
                // The stream is byte-oriented: after a bad envelope we
                // cannot find the next frame boundary, so the link is
                // unusable — unlike the message-oriented channel, where
                // one corrupt frame leaves the stream aligned.
                self.poisoned = true;
                Err(transport_err("recv", e.message))
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &[u8]) -> Result<(), EngineError> {
        if self.poisoned {
            return Err(transport_err("send", "transport disconnected"));
        }
        let framed = codec::encode_checked(payload);
        self.stream.write_all(&framed).map_err(|e| {
            self.poisoned = true;
            transport_err("send", e)
        })
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, EngineError> {
        if self.poisoned {
            return Err(transport_err("recv", "transport disconnected"));
        }
        if let Some(frame) = self.take_frame()? {
            return Ok(Some(frame));
        }
        let deadline = Instant::now() + timeout;
        let mut buf = [0u8; 64 * 1024];
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            // A zero timeout would mean "block forever" to the OS.
            self.stream
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
                .map_err(|e| transport_err("set_read_timeout", e))?;
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.poisoned = true;
                    return Err(transport_err("recv", "peer closed the connection"));
                }
                Ok(n) => {
                    self.inbox.extend_from_slice(&buf[..n]);
                    if let Some(frame) = self.take_frame()? {
                        return Ok(Some(frame));
                    }
                }
                Err(e) if e.kind() == IoKind::WouldBlock || e.kind() == IoKind::TimedOut => {
                    return Ok(None);
                }
                Err(e) if e.kind() == IoKind::Interrupted => {}
                Err(e) => {
                    self.poisoned = true;
                    return Err(transport_err("recv", e));
                }
            }
        }
    }

    fn peer(&self) -> String {
        self.stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp:disconnected".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hippo_cqa::budget::FaultPlan;
    use std::sync::Arc;

    fn gov_with(plan: FaultPlan) -> Governance {
        Governance {
            faults: Some(Arc::new(plan)),
            ..Governance::default()
        }
    }

    #[test]
    fn channel_roundtrip() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(b"hello").unwrap();
        a.send(b"world").unwrap();
        assert_eq!(
            b.recv(Duration::from_millis(50)).unwrap().unwrap(),
            b"hello"
        );
        assert_eq!(
            b.recv(Duration::from_millis(50)).unwrap().unwrap(),
            b"world"
        );
        assert!(b.recv(Duration::from_millis(5)).unwrap().is_none());
        b.send(b"ack").unwrap();
        assert_eq!(a.recv(Duration::from_millis(50)).unwrap().unwrap(), b"ack");
    }

    #[test]
    fn channel_hangup_is_structured() {
        let (mut a, b) = ChannelTransport::pair();
        drop(b);
        assert!(a.send(b"x").unwrap_err().message.contains("hung up"));
    }

    #[test]
    fn drop_fault_discards_silently() {
        let (a, mut b) = ChannelTransport::pair();
        let mut a = a.with_faults(
            gov_with(FaultPlan::new("repl:drop", None, FaultKind::Drop)),
            0,
        );
        a.send(b"lost").unwrap();
        a.send(b"kept").unwrap();
        assert_eq!(
            b.recv(Duration::from_millis(50)).unwrap().unwrap(),
            b"kept",
            "first frame dropped, second delivered (one-shot arm)"
        );
    }

    #[test]
    fn corrupt_fault_is_caught_by_receiver_crc() {
        let (a, mut b) = ChannelTransport::pair();
        let mut a = a.with_faults(
            gov_with(FaultPlan::new("repl", None, FaultKind::Corrupt)),
            0,
        );
        a.send(b"mangled").unwrap();
        let err = b.recv(Duration::from_millis(50)).unwrap_err();
        assert!(err.message.contains("crc"), "{err}");
        // The channel stays aligned: the next frame is fine.
        a.send(b"clean").unwrap();
        assert_eq!(
            b.recv(Duration::from_millis(50)).unwrap().unwrap(),
            b"clean"
        );
    }

    #[test]
    fn disconnect_fault_poisons_the_transport() {
        let (a, _b) = ChannelTransport::pair();
        let mut a = a.with_faults(
            gov_with(FaultPlan::new(
                "repl:disconnect",
                None,
                FaultKind::Disconnect,
            )),
            3,
        );
        let err = a.send(b"x").unwrap_err();
        assert!(err.message.contains("injected disconnect"), "{err}");
        assert!(a.send(b"y").is_err(), "poisoned for good");
        assert!(a.recv(Duration::from_millis(1)).is_err());
    }

    #[test]
    fn tcp_roundtrip_with_segmented_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            let m = t.recv(Duration::from_secs(5)).unwrap().unwrap();
            t.send(&m).unwrap(); // echo
            let big = t.recv(Duration::from_secs(5)).unwrap().unwrap();
            t.send(&big).unwrap();
        });
        let mut c = TcpTransport::connect(&addr.to_string()).unwrap();
        c.send(b"ping").unwrap();
        assert_eq!(c.recv(Duration::from_secs(5)).unwrap().unwrap(), b"ping");
        // A frame bigger than one read() buffer exercises reassembly.
        let big = vec![0xAB_u8; 200 * 1024];
        c.send(&big).unwrap();
        assert_eq!(c.recv(Duration::from_secs(5)).unwrap().unwrap(), big);
        server.join().unwrap();
    }

    #[test]
    fn tcp_peer_close_is_structured() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut c = TcpTransport::connect(&addr.to_string()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        drop(stream);
        let err = loop {
            match c.recv(Duration::from_millis(100)) {
                Ok(Some(_)) => panic!("no frame was ever sent"),
                Ok(None) => continue,
                Err(e) => break e,
            }
        };
        assert!(err.message.contains("closed"), "{err}");
    }
}
