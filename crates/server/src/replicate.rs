//! WAL-shipping replication: the primary streams committed frames to
//! replicas, which replay them into their own published epochs and
//! serve (staleness-surfaced) reads. See the state-machine diagram in
//! the crate root docs.
//!
//! # Protocol
//!
//! Five message shapes travel over a [`Transport`] (each inside the
//! transport's crc-checked envelope), every one carrying the sender's
//! **fencing term**:
//!
//! * `Hello { term, last_lsn, needs_snapshot }` — replica → primary:
//!   initial attach and every resync request.
//! * `Snapshot { term, last_lsn, catalog }` — a full catalog image (the
//!   same bytes a checkpoint holds) for a fresh or unrecoverably-behind
//!   replica.
//! * `Frames { term, frames }` — committed WAL frames in LSN order,
//!   shipped after each group-commit fsync (and on incremental resync).
//! * `Heartbeat { term, last_lsn }` — liveness + the primary's commit
//!   horizon, so an idle replica still knows how far behind it is.
//! * `Ack { term, applied_lsn }` — replica → primary after applying;
//!   the primary tracks per-replica acked LSNs.
//!
//! # Fencing
//!
//! Terms are monotonic. A replica rejects any message whose term is
//! below its own (counting it in `frames_fenced`) and adopts any higher
//! term. [`Replica::promote`] bumps the term, so after a failover the
//! old primary's frames — should the zombie come back — carry a stale
//! term and are refused; the zombie learns it is fenced from the higher
//! term in the `Ack`/`Hello` messages it receives back.
//!
//! # Replay = recovery
//!
//! A replica replays frames through crash recovery's own `replay`
//! (private `apply` module): each logged op runs through the commit
//! path's `apply`, and the tuple ids it produces must match the log.
//! Anything else — a wrong insert id, a delete of an absent tuple, an
//! update of a missing one, an op on a missing table — is a loud
//! divergence error, the same verdict recovery gives that frame. It
//! marks the replica broken; the replica keeps serving its last epoch,
//! drops its half-replayed state and asks for a fresh snapshot, loaded
//! by the same restore recovery runs, with an empty tail. LSNs must be
//! contiguous (a gap triggers a resync `Hello`, never a silent skip),
//! and abandoned-audit frames advance the LSN without touching data.

use crate::apply::{replay, restore};
use crate::stats::{ReplicaStats, Staleness};
use crate::transport::Transport;
use crate::wal::{decode_frame_payload, encode_frame_payload, Frame, FrameKind};
use crate::{
    DurabilityConfig, Engine, EngineConfig, Epoch, EpochSource, Session, WriteOp, WriteReceipt,
};
use hippo_cqa::constraint::DenialConstraint;
use hippo_cqa::hippo::{Hippo, HippoOptions};
use hippo_cqa::inclusion::ForeignKey;
use hippo_cqa::parallel::panic_message;
use hippo_engine::codec::{self, Reader};
use hippo_engine::EngineError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// How often a primary's feeder thread emits a heartbeat when no
/// frames are flowing.
pub(crate) const HEARTBEAT_EVERY: Duration = Duration::from_millis(20);
/// How long a feeder/replica waits in one `recv` poll.
const POLL_EVERY: Duration = Duration::from_millis(2);

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

const TAG_HELLO: u8 = 1;
const TAG_SNAPSHOT: u8 = 2;
const TAG_FRAMES: u8 = 3;
const TAG_HEARTBEAT: u8 = 4;
const TAG_ACK: u8 = 5;

/// One replication protocol message. Public mainly so chaos tests can
/// hand-craft zombie frames; normal callers never touch it.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplMsg {
    /// Replica → primary: attach / resync request.
    Hello {
        /// The replica's current fencing term (0 = never synced).
        term: u64,
        /// Highest LSN the replica has applied.
        last_lsn: u64,
        /// The replica has no state at all and needs a full snapshot.
        needs_snapshot: bool,
    },
    /// A full catalog image as of `last_lsn`.
    Snapshot {
        term: u64,
        last_lsn: u64,
        /// `codec::encode_catalog` bytes.
        catalog: Vec<u8>,
    },
    /// Committed WAL frames in ascending LSN order.
    Frames { term: u64, frames: Vec<Frame> },
    /// Liveness + commit horizon.
    Heartbeat { term: u64, last_lsn: u64 },
    /// Replica → primary: applied through `applied_lsn`.
    Ack { term: u64, applied_lsn: u64 },
}

impl ReplMsg {
    /// Encode to the byte payload a [`Transport`] carries.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            ReplMsg::Hello {
                term,
                last_lsn,
                needs_snapshot,
            } => {
                out.push(TAG_HELLO);
                codec::put_u64(&mut out, *term);
                codec::put_u64(&mut out, *last_lsn);
                out.push(*needs_snapshot as u8);
            }
            ReplMsg::Snapshot {
                term,
                last_lsn,
                catalog,
            } => {
                out.push(TAG_SNAPSHOT);
                codec::put_u64(&mut out, *term);
                codec::put_u64(&mut out, *last_lsn);
                codec::put_u32(&mut out, catalog.len() as u32);
                out.extend_from_slice(catalog);
            }
            ReplMsg::Frames { term, frames } => {
                out.push(TAG_FRAMES);
                codec::put_u64(&mut out, *term);
                codec::put_u32(&mut out, frames.len() as u32);
                for frame in frames {
                    let payload = encode_frame_payload(frame);
                    codec::put_u32(&mut out, payload.len() as u32);
                    out.extend_from_slice(&payload);
                }
            }
            ReplMsg::Heartbeat { term, last_lsn } => {
                out.push(TAG_HEARTBEAT);
                codec::put_u64(&mut out, *term);
                codec::put_u64(&mut out, *last_lsn);
            }
            ReplMsg::Ack { term, applied_lsn } => {
                out.push(TAG_ACK);
                codec::put_u64(&mut out, *term);
                codec::put_u64(&mut out, *applied_lsn);
            }
        }
        out
    }

    /// Decode a payload; errors (never panics) on any malformed input.
    pub fn decode(payload: &[u8]) -> Result<ReplMsg, EngineError> {
        let mut r = Reader::new(payload);
        let msg = match r.u8()? {
            TAG_HELLO => ReplMsg::Hello {
                term: r.u64()?,
                last_lsn: r.u64()?,
                needs_snapshot: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(EngineError::new("repl: bad needs_snapshot flag")),
                },
            },
            TAG_SNAPSHOT => {
                let term = r.u64()?;
                let last_lsn = r.u64()?;
                let len = r.count(1)?;
                ReplMsg::Snapshot {
                    term,
                    last_lsn,
                    catalog: r.take(len)?.to_vec(),
                }
            }
            TAG_FRAMES => {
                let term = r.u64()?;
                let n = r.count(4)?;
                let mut frames = Vec::with_capacity(n);
                let mut last = 0u64;
                for _ in 0..n {
                    let len = r.count(1)?;
                    let frame = decode_frame_payload(r.take(len)?)?;
                    if frame.lsn <= last {
                        return Err(EngineError::new("repl: frames out of LSN order"));
                    }
                    last = frame.lsn;
                    frames.push(frame);
                }
                ReplMsg::Frames { term, frames }
            }
            TAG_HEARTBEAT => ReplMsg::Heartbeat {
                term: r.u64()?,
                last_lsn: r.u64()?,
            },
            TAG_ACK => ReplMsg::Ack {
                term: r.u64()?,
                applied_lsn: r.u64()?,
            },
            _ => return Err(EngineError::new("repl: unknown message tag")),
        };
        if !r.is_empty() {
            return Err(EngineError::new("repl: trailing bytes in message"));
        }
        Ok(msg)
    }
}

// ---------------------------------------------------------------------------
// Primary side: the hub and its per-replica feeds
// ---------------------------------------------------------------------------

/// One attached replica, as the hub sees it: a channel of pre-encoded
/// outbound messages plus the flags its feeder thread shares.
struct Feed {
    id: u64,
    tx: mpsc::Sender<Vec<u8>>,
    acked: Arc<AtomicU64>,
    alive: Arc<AtomicBool>,
}

/// The primary's replication state, owned by [`crate::Engine`]'s shared
/// core: the fencing term, the commit horizon, and the live feeds.
pub(crate) struct ReplicationHub {
    term: AtomicU64,
    last_lsn: AtomicU64,
    feeds: Mutex<Vec<Feed>>,
    next_feed_id: AtomicU64,
    pub(crate) frames_shipped: AtomicU64,
    pub(crate) snapshots_shipped: AtomicU64,
    pub(crate) incremental_syncs: AtomicU64,
    pub(crate) acks_received: AtomicU64,
    pub(crate) heartbeats_sent: AtomicU64,
    pub(crate) feeds_fenced: AtomicU64,
    pub(crate) feeds_dropped: AtomicU64,
}

impl ReplicationHub {
    pub(crate) fn new() -> ReplicationHub {
        ReplicationHub {
            term: AtomicU64::new(1),
            last_lsn: AtomicU64::new(0),
            feeds: Mutex::new(Vec::new()),
            next_feed_id: AtomicU64::new(1),
            frames_shipped: AtomicU64::new(0),
            snapshots_shipped: AtomicU64::new(0),
            incremental_syncs: AtomicU64::new(0),
            acks_received: AtomicU64::new(0),
            heartbeats_sent: AtomicU64::new(0),
            feeds_fenced: AtomicU64::new(0),
            feeds_dropped: AtomicU64::new(0),
        }
    }

    pub(crate) fn term(&self) -> u64 {
        self.term.load(Ordering::SeqCst)
    }

    pub(crate) fn set_term(&self, term: u64) {
        self.term.store(term, Ordering::SeqCst);
    }

    pub(crate) fn last_lsn(&self) -> u64 {
        self.last_lsn.load(Ordering::SeqCst)
    }

    pub(crate) fn note_lsn(&self, lsn: u64) {
        self.last_lsn.fetch_max(lsn, Ordering::SeqCst);
    }

    /// Register a new feed; returns its id and the outbound channel the
    /// feeder drains. Called under the writer lock so registration is
    /// atomic with the sync payload built for it.
    pub(crate) fn register(
        &self,
        acked: Arc<AtomicU64>,
        alive: Arc<AtomicBool>,
    ) -> (u64, mpsc::Receiver<Vec<u8>>) {
        let (tx, rx) = mpsc::channel();
        let id = self.next_feed_id.fetch_add(1, Ordering::Relaxed);
        self.feeds.lock().unwrap().push(Feed {
            id,
            tx,
            acked,
            alive,
        });
        (id, rx)
    }

    fn unregister(&self, id: u64) {
        self.feeds.lock().unwrap().retain(|f| f.id != id);
    }

    /// Ship committed frames to every live feed: encode once, clone
    /// bytes per feed. A dead feed (feeder exited, channel closed) is
    /// pruned; shipping never fails the commit that triggered it.
    /// Called under the writer lock, strictly after the WAL fsync.
    pub(crate) fn ship(&self, frames: Vec<Frame>) {
        let Some(last) = frames.last().map(|f| f.lsn) else {
            return;
        };
        self.note_lsn(last);
        let n = frames.len() as u64;
        let mut feeds = self.feeds.lock().unwrap();
        if feeds.is_empty() {
            return;
        }
        let msg = ReplMsg::Frames {
            term: self.term(),
            frames,
        }
        .encode();
        let mut dropped = 0u64;
        feeds.retain(|f| {
            if !f.alive.load(Ordering::SeqCst) || f.tx.send(msg.clone()).is_err() {
                dropped += 1;
                return false;
            }
            true
        });
        self.feeds_dropped.fetch_add(dropped, Ordering::Relaxed);
        self.frames_shipped
            .fetch_add(n * feeds.len() as u64, Ordering::Relaxed);
    }

    /// (live replica count, minimum acked LSN across them).
    pub(crate) fn ack_floor(&self) -> (usize, u64) {
        let mut feeds = self.feeds.lock().unwrap();
        feeds.retain(|f| f.alive.load(Ordering::SeqCst));
        let min = feeds
            .iter()
            .map(|f| f.acked.load(Ordering::SeqCst))
            .min()
            .unwrap_or(0);
        (feeds.len(), min)
    }
}

/// The feeder thread servicing one attached replica on the primary:
/// waits for `Hello`, registers a feed, streams frames/heartbeats,
/// absorbs `Ack`s. Exits when the transport dies, the engine is
/// dropped, or an `Ack`/`Hello` reveals a higher term (this primary is
/// a fenced zombie).
pub(crate) fn feed_loop(shared: std::sync::Weak<crate::Shared>, mut transport: Box<dyn Transport>) {
    let acked = Arc::new(AtomicU64::new(0));
    let alive = Arc::new(AtomicBool::new(true));
    let mut feed: Option<(u64, mpsc::Receiver<Vec<u8>>)> = None;
    let mut last_beat = Instant::now();

    let exit = |shared: &std::sync::Weak<crate::Shared>,
                feed: &Option<(u64, mpsc::Receiver<Vec<u8>>)>| {
        alive.store(false, Ordering::SeqCst);
        if let (Some(s), Some((id, _))) = (shared.upgrade(), feed.as_ref()) {
            s.hub.unregister(*id);
        }
    };

    loop {
        let Some(strong) = shared.upgrade() else {
            return; // engine gone; transports just drop
        };

        // Drain queued outbound frames.
        if let Some((_, rx)) = feed.as_ref() {
            loop {
                match rx.try_recv() {
                    Ok(bytes) => {
                        if transport.send(&bytes).is_err() {
                            exit(&shared, &feed);
                            return;
                        }
                        last_beat = Instant::now();
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        exit(&shared, &feed);
                        return;
                    }
                }
            }
        }

        // Absorb one inbound message, if any.
        match transport.recv(POLL_EVERY) {
            Ok(Some(payload)) => match ReplMsg::decode(&payload) {
                Ok(ReplMsg::Hello {
                    term,
                    last_lsn,
                    needs_snapshot,
                }) => {
                    let response = crate::serve_hello(
                        &strong,
                        term,
                        last_lsn,
                        needs_snapshot,
                        &mut feed,
                        &acked,
                        &alive,
                    );
                    match response {
                        Ok(bytes) => {
                            if transport.send(&bytes).is_err() {
                                exit(&shared, &feed);
                                return;
                            }
                            last_beat = Instant::now();
                        }
                        Err(_fenced) => {
                            exit(&shared, &feed);
                            return;
                        }
                    }
                }
                Ok(ReplMsg::Ack { term, applied_lsn }) => {
                    strong.hub.acks_received.fetch_add(1, Ordering::Relaxed);
                    if term > strong.hub.term() {
                        // The cluster moved on without us: we are the
                        // zombie. Stop streaming to this (new-term)
                        // replica immediately.
                        strong.hub.feeds_fenced.fetch_add(1, Ordering::Relaxed);
                        exit(&shared, &feed);
                        return;
                    }
                    acked.fetch_max(applied_lsn, Ordering::SeqCst);
                }
                Ok(_) => {}  // primaries ignore primary-role messages
                Err(_) => {} // corrupt inbound message; replica will resync
            },
            Ok(None) => {}
            Err(_) => {
                exit(&shared, &feed);
                return;
            }
        }

        // Heartbeat when the stream is idle.
        if feed.is_some() && last_beat.elapsed() >= HEARTBEAT_EVERY {
            let beat = ReplMsg::Heartbeat {
                term: strong.hub.term(),
                last_lsn: strong.hub.last_lsn(),
            }
            .encode();
            drop(strong);
            if transport.send(&beat).is_err() {
                exit(&shared, &feed);
                return;
            }
            if let Some(s) = shared.upgrade() {
                s.hub.heartbeats_sent.fetch_add(1, Ordering::Relaxed);
            }
            last_beat = Instant::now();
        }
    }
}

// ---------------------------------------------------------------------------
// Replica side
// ---------------------------------------------------------------------------

/// Configuration for a [`Replica`]: the schema-level inputs the WAL does
/// not carry (mirroring [`Engine::recover`]) plus replication tuning.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Denial constraints — must match the primary's.
    pub constraints: Vec<DenialConstraint>,
    /// Foreign keys — must match the primary's.
    pub foreign_keys: Vec<ForeignKey>,
    /// Answer-mode options replica sessions run with.
    pub options: HippoOptions,
    /// Behind the primary with no progress for this long → send a
    /// resync `Hello` (covers dropped frames the gap check alone would
    /// only catch on the *next* delivery).
    pub resync_after: Duration,
}

impl ReplicaConfig {
    /// A replica with the given constraints and default tuning.
    pub fn new(constraints: Vec<DenialConstraint>) -> ReplicaConfig {
        ReplicaConfig {
            constraints,
            foreign_keys: Vec::new(),
            options: HippoOptions::default(),
            resync_after: Duration::from_millis(100),
        }
    }
}

/// What [`Replica::promote`] did.
#[derive(Debug, Clone)]
pub struct PromotionReport {
    /// The new fencing term the promoted engine carries.
    pub term: u64,
    /// The committed prefix the promoted state holds.
    pub applied_lsn: u64,
    /// Frames the replica applied over its lifetime.
    pub frames_applied: u64,
}

struct Applier {
    hippo: Option<Hippo>,
    applied_lsn: u64,
}

pub(crate) struct ReplState {
    epoch: RwLock<Option<Arc<Epoch>>>,
    applier: Mutex<Applier>,
    /// Highest LSN whose effects are visible in the published epoch.
    /// Trails `Applier::applied_lsn` during the redetect+freeze window;
    /// staleness reports this one, because a session opened *now* sees
    /// exactly this much of the log.
    published_lsn: AtomicU64,
    term: AtomicU64,
    primary_lsn: AtomicU64,
    stop: AtomicBool,
    broken: Mutex<Option<EngineError>>,
    /// Last instant the replica knew it was caught up (applied ==
    /// primary horizon); `lag_time` is the age of this.
    caught_up_at: Mutex<Instant>,
    last_heard: Mutex<Option<Instant>>,
    epochs_published: AtomicU64,
    frames_applied: AtomicU64,
    ops_applied: AtomicU64,
    frames_fenced: AtomicU64,
    msgs_corrupt: AtomicU64,
    gaps_detected: AtomicU64,
    resync_requests: AtomicU64,
    snapshots_loaded: AtomicU64,
    disconnects: AtomicU64,
    sources: AtomicU64,
}

impl ReplState {
    fn term(&self) -> u64 {
        self.term.load(Ordering::SeqCst)
    }

    pub(crate) fn current_epoch(&self) -> Option<Arc<Epoch>> {
        self.epoch.read().unwrap().clone()
    }

    fn staleness(&self) -> Staleness {
        let applied = self.published_lsn.load(Ordering::SeqCst);
        let primary = self.primary_lsn.load(Ordering::SeqCst).max(applied);
        Staleness {
            term: self.term(),
            applied_lsn: applied,
            primary_lsn: primary,
            lsn_lag: primary - applied,
            lag_time: self.caught_up_at.lock().unwrap().elapsed(),
        }
    }

    fn mark_caught_up_if_current(&self) {
        let applied = self.published_lsn.load(Ordering::SeqCst);
        if applied >= self.primary_lsn.load(Ordering::SeqCst) {
            *self.caught_up_at.lock().unwrap() = Instant::now();
        }
    }
}

/// A read replica: replays the primary's committed WAL frames into its
/// own published epochs. Serves reads and CQA through [`Session`]s
/// (with surfaced [`Staleness`]), refuses writes with
/// [`ErrorKind::NotPrimary`](hippo_engine::ErrorKind::NotPrimary), and
/// can be promoted to a fresh primary with a bumped fencing term.
pub struct Replica {
    state: Arc<ReplState>,
    attach_tx: mpsc::Sender<Box<dyn Transport>>,
    worker: Option<std::thread::JoinHandle<()>>,
    config: ReplicaConfig,
}

impl Replica {
    /// Start a replica with no transport attached yet (see
    /// [`Replica::attach`]).
    pub(crate) fn new(config: ReplicaConfig) -> Replica {
        let state = Arc::new(ReplState {
            epoch: RwLock::new(None),
            applier: Mutex::new(Applier {
                hippo: None,
                applied_lsn: 0,
            }),
            published_lsn: AtomicU64::new(0),
            term: AtomicU64::new(0),
            primary_lsn: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            broken: Mutex::new(None),
            caught_up_at: Mutex::new(Instant::now()),
            last_heard: Mutex::new(None),
            epochs_published: AtomicU64::new(0),
            frames_applied: AtomicU64::new(0),
            ops_applied: AtomicU64::new(0),
            frames_fenced: AtomicU64::new(0),
            msgs_corrupt: AtomicU64::new(0),
            gaps_detected: AtomicU64::new(0),
            resync_requests: AtomicU64::new(0),
            snapshots_loaded: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            sources: AtomicU64::new(0),
        });
        let (attach_tx, attach_rx) = mpsc::channel();
        let worker = {
            let state = Arc::clone(&state);
            let config = config.clone();
            std::thread::Builder::new()
                .name("hippo-replica".into())
                .spawn(move || replica_loop(state, config, attach_rx))
                .expect("spawn replica worker")
        };
        Replica {
            state,
            attach_tx,
            worker: Some(worker),
            config,
        }
    }

    /// Start a replica and attach its first transport.
    pub fn start(transport: Box<dyn Transport>, config: ReplicaConfig) -> Replica {
        let r = Replica::new(config);
        r.attach(transport);
        r
    }

    /// Attach a(nother) transport to a primary. The replica sends its
    /// `Hello` (resuming from its applied LSN, or requesting a snapshot
    /// if it has no state) and begins replaying. Multiple live sources
    /// are tolerated — fencing terms arbitrate, which is exactly the
    /// zombie-primary scenario.
    pub fn attach(&self, transport: Box<dyn Transport>) {
        // If the worker exited (only possible via stop/promote), the
        // send fails harmlessly.
        let _ = self.attach_tx.send(transport);
    }

    /// Open a read session pinned to the replica's current epoch, with
    /// [`ReplicaConfig::options`]' answer-mode switches and no deadline.
    /// Errors until the first snapshot/frame batch has been applied.
    /// Replica sessions honour their deadline and cancel handle but pass
    /// no admission gate.
    pub fn session(&self) -> Result<Session, EngineError> {
        let epoch = self
            .current_epoch()
            .ok_or_else(|| EngineError::new("replica: no state replicated yet"))?;
        Ok(Session::open(
            EpochSource::Replica(Arc::clone(&self.state)),
            epoch,
            self.config.options.clone(),
            None,
        ))
    }

    /// The replica's current published epoch, if any.
    pub fn current_epoch(&self) -> Option<Arc<Epoch>> {
        self.state.current_epoch()
    }

    /// Replicas never accept writes: always
    /// [`EngineError::not_primary`] carrying the replica's current
    /// fencing term, so the client knows which primary generation to
    /// resubmit to.
    pub fn write(&self, _ops: Vec<WriteOp>) -> Result<WriteReceipt, EngineError> {
        Err(EngineError::not_primary(self.state.term()))
    }

    /// The fencing term this replica follows (0 until first contact).
    pub fn term(&self) -> u64 {
        self.state.term()
    }

    /// Current staleness relative to the primary's last known horizon.
    pub fn staleness(&self) -> Staleness {
        self.state.staleness()
    }

    /// The divergence/apply error that broke this replica, if any. A
    /// broken replica keeps serving its last good epoch but refuses
    /// promotion.
    pub fn broken(&self) -> Option<EngineError> {
        self.state.broken.lock().unwrap().clone()
    }

    /// Point-in-time replica counters.
    pub fn stats(&self) -> ReplicaStats {
        let s = &self.state;
        let st = s.staleness();
        ReplicaStats {
            term: st.term,
            applied_lsn: st.applied_lsn,
            primary_lsn: st.primary_lsn,
            lsn_lag: st.lsn_lag,
            lag_time: st.lag_time,
            epochs_published: s.epochs_published.load(Ordering::Relaxed),
            frames_applied: s.frames_applied.load(Ordering::Relaxed),
            ops_applied: s.ops_applied.load(Ordering::Relaxed),
            frames_fenced: s.frames_fenced.load(Ordering::Relaxed),
            msgs_corrupt: s.msgs_corrupt.load(Ordering::Relaxed),
            gaps_detected: s.gaps_detected.load(Ordering::Relaxed),
            resync_requests: s.resync_requests.load(Ordering::Relaxed),
            snapshots_loaded: s.snapshots_loaded.load(Ordering::Relaxed),
            disconnects: s.disconnects.load(Ordering::Relaxed),
            sources: s.sources.load(Ordering::Relaxed) as usize,
            has_state: s.epoch.read().unwrap().is_some(),
            broken: s.broken.lock().unwrap().is_some(),
        }
    }

    /// Failover: finish replaying every received committed frame, bump
    /// the fencing term, and stand up a fresh [`Engine`] (durable under
    /// `durability` if given — its log starts a new LSN space; the new
    /// term is what disambiguates it). Frames the dead primary never
    /// transmitted are gone — the promoted state is exactly the
    /// committed prefix this replica applied, which the caller can (and
    /// `tests/kill.rs` does) verify bit-identical against an oracle.
    ///
    /// The old primary, should it come back, is fenced: its frames
    /// carry the previous term and every replica following the new
    /// primary rejects them.
    pub fn promote(
        mut self,
        config: EngineConfig,
        durability: Option<DurabilityConfig>,
    ) -> Result<(Engine, PromotionReport), EngineError> {
        // Stop the worker; it drains already-received messages first,
        // so the committed prefix is fully replayed before we take the
        // state.
        self.state.stop.store(true, Ordering::SeqCst);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
        if let Some(e) = self.state.broken.lock().unwrap().clone() {
            return Err(EngineError::new(format!(
                "promote: replica is broken and cannot be trusted: {}",
                e.message
            )));
        }
        let mut applier = self.state.applier.lock().unwrap();
        let hippo = applier.hippo.take().ok_or_else(|| {
            EngineError::new("promote: replica never received a snapshot; nothing to promote")
        })?;
        let report = PromotionReport {
            term: self.state.term() + 1,
            applied_lsn: applier.applied_lsn,
            frames_applied: self.state.frames_applied.load(Ordering::Relaxed),
        };
        drop(applier);
        let engine = match durability {
            Some(d) => Engine::new_durable(hippo, config, d)?,
            None => Engine::new(hippo, config)?,
        };
        engine.shared.hub.set_term(report.term);
        Ok((engine, report))
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        if let Some(w) = self.worker.take() {
            let _ = w.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Replica worker
// ---------------------------------------------------------------------------

struct Source {
    transport: Box<dyn Transport>,
}

fn is_corrupt_transport_err(e: &EngineError) -> bool {
    e.message.contains("crc") || e.message.contains("corrupt")
}

fn hello_msg(state: &ReplState) -> Vec<u8> {
    let applier = state.applier.lock().unwrap();
    ReplMsg::Hello {
        term: state.term(),
        last_lsn: applier.applied_lsn,
        needs_snapshot: applier.hippo.is_none(),
    }
    .encode()
}

fn replica_loop(
    state: Arc<ReplState>,
    config: ReplicaConfig,
    attach_rx: mpsc::Receiver<Box<dyn Transport>>,
) {
    let mut sources: Vec<Source> = Vec::new();
    let mut last_progress = Instant::now();

    loop {
        let stopping = state.stop.load(Ordering::SeqCst);

        // Adopt newly attached transports (greet each immediately).
        while let Ok(transport) = attach_rx.try_recv() {
            let mut src = Source { transport };
            if src.transport.send(&hello_msg(&state)).is_ok() {
                sources.push(src);
            } else {
                state.disconnects.fetch_add(1, Ordering::Relaxed);
            }
        }
        state.sources.store(sources.len() as u64, Ordering::Relaxed);

        if stopping {
            // Final drain: apply whatever is already queued on each
            // source so promote() sees the full received prefix, then
            // exit.
            for src in sources.iter_mut() {
                while let Ok(Some(payload)) = src.transport.recv(Duration::from_millis(1)) {
                    handle_message(&state, &config, &mut src.transport, &payload);
                }
            }
            return;
        }

        if sources.is_empty() {
            std::thread::sleep(POLL_EVERY);
            continue;
        }

        let mut made_progress = false;
        let mut dead: Vec<usize> = Vec::new();
        for (i, src) in sources.iter_mut().enumerate() {
            match src.transport.recv(POLL_EVERY) {
                Ok(Some(payload)) => {
                    if handle_message(&state, &config, &mut src.transport, &payload) {
                        made_progress = true;
                    }
                }
                Ok(None) => {}
                Err(e) if is_corrupt_transport_err(&e) => {
                    // One mangled frame; the (message-oriented) link is
                    // still aligned. Count it and ask for a resync — the
                    // lost message may have carried frames.
                    state.msgs_corrupt.fetch_add(1, Ordering::Relaxed);
                    state.resync_requests.fetch_add(1, Ordering::Relaxed);
                    if src.transport.send(&hello_msg(&state)).is_err() {
                        dead.push(i);
                    }
                }
                Err(_) => dead.push(i),
            }
        }
        for &i in dead.iter().rev() {
            sources.remove(i);
            state.disconnects.fetch_add(1, Ordering::Relaxed);
        }

        if made_progress {
            last_progress = Instant::now();
        } else {
            // Behind with nothing arriving: dropped frames leave no gap
            // to detect until the *next* delivery, so a timer-driven
            // resync closes the hole.
            let st = state.staleness();
            if st.lsn_lag > 0 && last_progress.elapsed() >= config.resync_after {
                state.resync_requests.fetch_add(1, Ordering::Relaxed);
                let hello = hello_msg(&state);
                for src in sources.iter_mut() {
                    let _ = src.transport.send(&hello);
                }
                last_progress = Instant::now();
            }
        }
    }
}

/// Handle one inbound message. Returns whether replication state
/// advanced (frames applied or a snapshot loaded).
fn handle_message(
    state: &ReplState,
    config: &ReplicaConfig,
    transport: &mut Box<dyn Transport>,
    payload: &[u8],
) -> bool {
    let msg = match ReplMsg::decode(payload) {
        Ok(m) => m,
        Err(_) => {
            state.msgs_corrupt.fetch_add(1, Ordering::Relaxed);
            return false;
        }
    };
    *state.last_heard.lock().unwrap() = Some(Instant::now());

    let msg_term = match &msg {
        ReplMsg::Snapshot { term, .. }
        | ReplMsg::Frames { term, .. }
        | ReplMsg::Heartbeat { term, .. }
        | ReplMsg::Hello { term, .. }
        | ReplMsg::Ack { term, .. } => *term,
    };
    let cur = state.term();
    if msg_term < cur {
        // Fencing: a zombie ex-primary. Reject the content and tell the
        // sender which term the cluster is on now.
        state.frames_fenced.fetch_add(1, Ordering::Relaxed);
        let applied = state.applier.lock().unwrap().applied_lsn;
        let _ = transport.send(
            &ReplMsg::Ack {
                term: cur,
                applied_lsn: applied,
            }
            .encode(),
        );
        return false;
    }
    if msg_term > cur {
        state.term.store(msg_term, Ordering::SeqCst);
    }

    match msg {
        ReplMsg::Snapshot {
            last_lsn, catalog, ..
        } => {
            let loaded = load_snapshot(state, config, &catalog, last_lsn);
            state.primary_lsn.fetch_max(last_lsn, Ordering::SeqCst);
            ack(state, transport);
            state.mark_caught_up_if_current();
            loaded
        }
        ReplMsg::Frames { frames, .. } => {
            let last = frames.last().map(|f| f.lsn);
            let advanced = apply_frames(state, frames, transport);
            if let Some(last) = last {
                state.primary_lsn.fetch_max(last, Ordering::SeqCst);
            }
            ack(state, transport);
            state.mark_caught_up_if_current();
            advanced
        }
        ReplMsg::Heartbeat { last_lsn, .. } => {
            state.primary_lsn.fetch_max(last_lsn, Ordering::SeqCst);
            state.mark_caught_up_if_current();
            false
        }
        // Replicas ignore replica-role messages.
        ReplMsg::Hello { .. } | ReplMsg::Ack { .. } => false,
    }
}

fn ack(state: &ReplState, transport: &mut Box<dyn Transport>) {
    let applied = state.applier.lock().unwrap().applied_lsn;
    let _ = transport.send(
        &ReplMsg::Ack {
            term: state.term(),
            applied_lsn: applied,
        }
        .encode(),
    );
}

fn mark_broken(state: &ReplState, e: EngineError) {
    let mut broken = state.broken.lock().unwrap();
    if broken.is_none() {
        *broken = Some(e);
    }
}

/// Restore a Hippo from a shipped catalog image with an empty tail
/// (one full conflict detection — the snapshot carries data, not
/// derived state) and publish it.
fn load_snapshot(state: &ReplState, config: &ReplicaConfig, catalog: &[u8], lsn: u64) -> bool {
    let built = catch_unwind(AssertUnwindSafe(|| {
        restore(
            codec::decode_catalog(catalog)?,
            config.constraints.clone(),
            config.foreign_keys.clone(),
            config.options.clone(),
            Vec::new(),
        )
    }));
    match built {
        Ok(Ok(hippo)) => {
            {
                let mut applier = state.applier.lock().unwrap();
                applier.hippo = Some(hippo);
                applier.applied_lsn = lsn;
            }
            state.snapshots_loaded.fetch_add(1, Ordering::Relaxed);
            publish(state)
        }
        Ok(Err(e)) => {
            mark_broken(state, e);
            false
        }
        Err(p) => {
            mark_broken(
                state,
                EngineError::worker_panic("replica", 0, &panic_message(p.as_ref())),
            );
            false
        }
    }
}

/// Apply one shipped batch: contiguous LSNs, each committed frame's ops
/// through [`replay`] (recovery's own replay, verified tuple ids
/// included), abandoned frames skipped. A frame that fails to replay
/// breaks the replica, discards the applier's state (the next delivery
/// asks for a snapshot), and nothing of the batch is published. Returns
/// whether the batch was published.
fn apply_frames(state: &ReplState, frames: Vec<Frame>, transport: &mut Box<dyn Transport>) -> bool {
    let mut applier = state.applier.lock().unwrap();
    if applier.hippo.is_none() {
        // Frames without a base image (the Hello/Snapshot raced, or a
        // failed replay discarded it): ask for a snapshot.
        drop(applier);
        state.gaps_detected.fetch_add(1, Ordering::Relaxed);
        state.resync_requests.fetch_add(1, Ordering::Relaxed);
        let _ = transport.send(&hello_msg(state));
        return false;
    }
    let mut landed = 0u64;
    let mut ops_landed = 0u64;
    for frame in frames {
        if frame.lsn <= applier.applied_lsn {
            continue; // duplicate (resync overlap): already applied
        }
        if frame.lsn != applier.applied_lsn + 1 {
            // A hole — frames were dropped. Never skip: resync from the
            // last applied position.
            state.gaps_detected.fetch_add(1, Ordering::Relaxed);
            state.resync_requests.fetch_add(1, Ordering::Relaxed);
            let hello = {
                ReplMsg::Hello {
                    term: state.term(),
                    last_lsn: applier.applied_lsn,
                    needs_snapshot: false,
                }
                .encode()
            };
            let _ = transport.send(&hello);
            break;
        }
        if frame.kind == FrameKind::Abandoned {
            // Audit record: advances the LSN, touches no data.
            applier.applied_lsn = frame.lsn;
            continue;
        }
        let hippo = applier.hippo.as_mut().expect("checked above");
        let (lsn, ops) = (frame.lsn, frame.ops.len() as u64);
        let replayed = catch_unwind(AssertUnwindSafe(|| -> Result<(), EngineError> {
            for op in frame.ops {
                replay(hippo, lsn, op)?;
            }
            Ok(())
        }));
        let e = match replayed {
            Ok(Ok(())) => {
                applier.applied_lsn = lsn;
                landed += 1;
                ops_landed += ops;
                continue;
            }
            Ok(Err(e)) => e,
            Err(p) => EngineError::worker_panic("replica", 0, &panic_message(p.as_ref())),
        };
        // The applier may hold a half-replayed frame: drop it, so the
        // next delivery asks for a fresh snapshot instead of replaying
        // onto it. The last published epoch keeps serving.
        applier.hippo = None;
        mark_broken(state, e);
        return false;
    }
    if landed == 0 {
        return false;
    }
    // One reconciliation + publish per shipped batch (the replica's
    // group commit).
    let hippo = applier.hippo.as_mut().expect("frames landed");
    let finish = catch_unwind(AssertUnwindSafe(|| -> Result<(), EngineError> {
        hippo.redetect()?;
        Ok(())
    }));
    drop(applier);
    match finish {
        Ok(Ok(())) => {
            state.frames_applied.fetch_add(landed, Ordering::Relaxed);
            state.ops_applied.fetch_add(ops_landed, Ordering::Relaxed);
            publish(state)
        }
        Ok(Err(e)) => {
            mark_broken(state, e);
            false
        }
        Err(p) => {
            mark_broken(
                state,
                EngineError::worker_panic("replica", 0, &panic_message(p.as_ref())),
            );
            false
        }
    }
}

/// Freeze the applier's state and publish it as the replica's next
/// epoch.
fn publish(state: &ReplState) -> bool {
    let mut applier = state.applier.lock().unwrap();
    let frozen_lsn = applier.applied_lsn;
    let Some(hippo) = applier.hippo.as_mut() else {
        return false;
    };
    let frozen = match catch_unwind(AssertUnwindSafe(|| hippo.freeze())) {
        Ok(Ok(f)) => f,
        Ok(Err(e)) => {
            mark_broken(state, e);
            return false;
        }
        Err(p) => {
            mark_broken(
                state,
                EngineError::worker_panic("replica", 0, &panic_message(p.as_ref())),
            );
            return false;
        }
    };
    drop(applier);
    let id = state.epochs_published.fetch_add(1, Ordering::Relaxed) + 1;
    let epoch = Arc::new(Epoch {
        id,
        frozen,
        writes_applied: state.frames_applied.load(Ordering::Relaxed),
        published_at: Instant::now(),
    });
    // Swap under the lock, free the replaced epoch after releasing it:
    // when this holds its last reference, dropping its catalog and graph
    // must not block readers pinning the new one.
    let retired = state
        .epoch
        .write()
        .expect("epoch lock: held only for a pointer swap, which cannot panic")
        .replace(epoch);
    // Only now do readers see the frames: advertise the new horizon.
    state.published_lsn.fetch_max(frozen_lsn, Ordering::SeqCst);
    drop(retired);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalOp;
    use hippo_engine::{TupleId, Value};

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame {
                lsn: 4,
                kind: FrameKind::Commit,
                ops: vec![WalOp::Insert {
                    table: "t".into(),
                    rows: vec![vec![Value::Int(1), Value::text("x")]],
                    tids: vec![TupleId(9)],
                }],
            },
            Frame {
                lsn: 5,
                kind: FrameKind::Abandoned,
                ops: vec![],
            },
        ]
    }

    #[test]
    fn messages_roundtrip() {
        for msg in [
            ReplMsg::Hello {
                term: 3,
                last_lsn: 41,
                needs_snapshot: true,
            },
            ReplMsg::Snapshot {
                term: 2,
                last_lsn: 10,
                catalog: vec![1, 2, 3],
            },
            ReplMsg::Frames {
                term: 7,
                frames: sample_frames(),
            },
            ReplMsg::Heartbeat {
                term: 1,
                last_lsn: 99,
            },
            ReplMsg::Ack {
                term: 4,
                applied_lsn: 17,
            },
        ] {
            let bytes = msg.encode();
            assert_eq!(ReplMsg::decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn corrupt_messages_error_never_panic() {
        let bytes = ReplMsg::Frames {
            term: 7,
            frames: sample_frames(),
        }
        .encode();
        for cut in 0..bytes.len() {
            let _ = ReplMsg::decode(&bytes[..cut]);
        }
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xFF;
            let _ = ReplMsg::decode(&b);
        }
        assert!(ReplMsg::decode(&[]).is_err());
        assert!(ReplMsg::decode(&[99]).is_err());
    }

    #[test]
    fn out_of_order_frames_are_rejected_at_decode() {
        let mut frames = sample_frames();
        frames.reverse();
        let bytes = ReplMsg::Frames { term: 1, frames }.encode();
        let err = ReplMsg::decode(&bytes).unwrap_err();
        assert!(err.message.contains("LSN order"), "{err}");
    }
}
