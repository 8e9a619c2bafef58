//! Concurrent CQA service layer for the Hippo system: **epoch-published
//! snapshots** behind a single-writer/many-reader protocol, with
//! bounded admission, per-request deadline propagation, client-side
//! retry and graceful drain. Library-first: [`Engine`] and [`Session`]
//! are plain types — no network, no executor — so the same protocol
//! can sit under any transport.
//!
//! # The epoch protocol
//!
//! Every published epoch is an `Arc<`[`Epoch`]`>` bundling a
//! [`FrozenHippo`] — the database snapshot, the conflict hypergraph
//! and the verdict cache, frozen together by [`Hippo::freeze`] — so a
//! reader's entire request runs against one self-consistent state
//! with **zero locks** on the data path. Writes serialize through one
//! writer slot and only ever publish *after* full success:
//!
//! ```text
//!                 ┌───────────── single writer (Mutex) ─────────────┐
//! write(ops) ──▶  │ apply ops ──▶ redetect (◆ governed, panics      │
//!                 │ (recorded)     contained) ──▶ freeze()          │
//!                 │    │ Err / panic: writer_recoveries += 1,       │
//!                 │    │ writer rebuilt from the published epoch;   │
//!                 │    ▼ NOTHING PUBLISHED                          │
//!                 │ publish: swap RwLock<Arc<Epoch>> ── epoch n+1   │
//!                 └──────────────────────────┬──────────────────────┘
//!                                            ▼
//!            readers: Session::pin ──▶ Arc<Epoch n> ── lock-free
//!            query / consistent_answers on the pinned epoch
//! ```
//!
//! A panicking or budget-tripped write therefore **never** replaces
//! the published epoch — readers keep answering from the last good
//! one, and the writer stays usable (it is rebuilt from the published
//! epoch, so the next successful write publishes its own ops only).
//!
//! # Admission and overload
//!
//! Every request — read, CQA run or write — passes the bounded
//! admission gate before touching data:
//!
//! ```text
//!            ┌─ admission ────────────────────────────────┐
//! request ──▶│ active < max_active ────────────▶ RUN      │──▶ permit
//!            │ else queued < max_queue ──▶ WAIT (deadline-│    (RAII)
//!            │      capped; drain wakes ▶ Shutdown)       │
//!            │ else ──▶ SHED: Overloaded { retry_after }  │
//!            │ draining ──▶ Shutdown                      │
//!            └────────────────────────────────────────────┘
//! ```
//!
//! Shedding is immediate (the queue is bounded, so overload degrades
//! into fast structured rejections, not unbounded latency), and the
//! request's deadline keeps ticking while it queues: whatever deadline
//! remains after admission is what the execution stages get, via the
//! engine's cooperative [`Budget`](hippo_engine::Budget). Clients
//! wrap calls in a [`RetryPolicy`] that retries only transient
//! `Overloaded`/`Cancelled` outcomes, with jittered exponential
//! backoff floored at the server's `retry_after` hint.
//!
//! [`Engine::drain`] flips the gate to `Shutdown` for new arrivals,
//! wakes every queued waiter, and blocks until in-flight requests
//! finish (or trip their own budgets) — then the process can exit
//! with nothing half-done. It returns the number of writes refused at
//! the gate; on a durable engine those are logged as abandoned-audit
//! frames before drain returns, so a lossy shutdown leaves evidence.
//!
//! # Durability (optional)
//!
//! [`Engine::new_durable`] adds a checksummed write-ahead op log and
//! snapshot checkpoints under a caller-owned directory (held exclusive
//! by an advisory [`DirLock`] for the engine's lifetime);
//! [`Engine::recover`] rebuilds the exact pre-crash published state
//! from them. The state machine:
//!
//! ```text
//! write:      apply ops ─▶ redetect ─▶ freeze ─▶ WAL append ─▶ fsync ─▶ publish
//!             (group commit: whole queue drains into N frames, ONE fsync,
//!              one redetect/freeze, one epoch swap — the fsync is the
//!              commit point: unsynced frames are truncated, never replayed)
//!
//! checkpoint: catalog ─▶ tmp file ─▶ fsync ─▶ rename ─▶ dir fsync ─▶ truncate log
//!             (crash-atomic; replay filters lsn ≤ checkpoint, so a crash
//!              between rename and truncate double-applies nothing)
//!
//! recover:    lock dir ─▶ load checkpoint ─▶ replay committed log suffix
//!             (torn tail truncated) ─▶ full conflict re-detection ─▶
//!             publish epoch 1
//! ```
//!
//! Failed writes never ride along, durable engine or not: the writer
//! is rebuilt from the published epoch's catalog, so the live state
//! always equals the published state plus the surviving transactions
//! (on a durable engine: "checkpoint + committed log" exactly).
//! Conflict state is derived data and never logged — recovery recomputes
//! it, so a stale verdict cannot survive a crash.
//!
//! # Replication and failover
//!
//! A durable engine ships its committed WAL frames to any number of
//! [`Replica`]s over a [`Transport`] (in-process channel or TCP —
//! every message rides the same crc-checked frame envelope as the log
//! itself). The ship point sits strictly after the group-commit fsync:
//! a replica can only ever see frames the primary is committed to.
//! Replicas replay with crash-recovery's discipline (contiguous LSNs,
//! verified tuple ids, abandoned-audit frames skipped), publish each
//! applied batch as a fresh epoch, and serve reads/CQA with surfaced
//! staleness; writes are refused with a structured `NotPrimary` error.
//!
//! ```text
//!                         PRIMARY (term T)
//!   write ─▶ fsync ─▶ publish ─▶ hub.ship ──▶ feeder ──▶ transport ──┐
//!                        (per-replica acked LSNs ◀── Ack{T, lsn} ◀─) │
//!                                                                    ▼
//!   REPLICA states:                                            Frames{T,…}
//!
//!      ┌─────────┐ Hello{needs_snapshot}  ┌──────────┐  lsn = applied+1
//!      │ EMPTY   │ ──────────────────────▶│ SYNCING  │─────────────────┐
//!      └─────────┘        Snapshot{T,lsn} └──────────┘ apply ▶ publish │
//!           ▲                                  ▲                       ▼
//!           │              gap / corrupt /     │ Hello{applied}  ┌───────────┐
//!           │              silent lag ─────────┴─────────────────│ FOLLOWING │
//!           │                                                    └─────┬─────┘
//!           │ msg.term < T′: reject + Ack{T′}  (fencing)               │ promote()
//!           │                                                          ▼
//!      zombie ex-primary (term T) ◀── Ack{T′} tells it it's fenced ┌─────────┐
//!                                                                  │ PRIMARY │
//!                                                                  │ term T′ │
//!                                                                  │  = T+1  │
//!                                                                  └─────────┘
//! ```
//!
//! [`Replica::promote`] finishes replaying every received committed
//! frame, bumps the fencing term, and stands up a fresh [`Engine`];
//! every message carries its sender's term, so a zombie ex-primary's
//! frames are rejected by replicas that follow the new primary (and
//! the zombie learns it is fenced from the higher term in the `Ack`s
//! it gets back). The four `repl:*` fault points (see
//! `hippo_cqa::budget`) inject drops, corruption, delays and
//! disconnects on the ship path to chaos-test all of this.
//!
//! [`Replica`]: replicate::Replica
//! [`Replica::promote`]: replicate::Replica::promote
//! [`Transport`]: transport::Transport

mod admission;
pub mod checkpoint;
pub mod recover;
pub mod replicate;
mod retry;
mod stats;
pub mod transport;
pub mod wal;

pub use recover::RecoveryReport;
pub use replicate::{PromotionReport, Replica, ReplicaConfig, ReplicaSession};
pub use retry::RetryPolicy;
pub use stats::{ReplicaStats, ReplicationStats, ServiceStats, SessionStats, Staleness};
pub use transport::{ChannelTransport, TcpTransport, Transport};
pub use wal::DirLock;

use admission::Admission;
use checkpoint::{read_checkpoint, write_checkpoint};
use hippo_cqa::budget::ConsistentAnswer;
use hippo_cqa::constraint::DenialConstraint;
use hippo_cqa::detect::DetectStats;
use hippo_cqa::hippo::{FrozenHippo, Hippo, HippoOptions};
use hippo_cqa::inclusion::ForeignKey;
use hippo_cqa::parallel::panic_message;
use hippo_cqa::query::SjudQuery;
use hippo_engine::{CancelHandle, Database, EngineError, QueryResult, Row, TupleId};
use recover::recover_dir;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use wal::{Frame, FrameKind, Wal, WalOp};

/// Service configuration. The defaults suit tests; production-ish
/// callers size `max_active` to core count and set a deadline.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Requests executing concurrently (readers and the writer alike);
    /// minimum 1.
    pub max_active: usize,
    /// Requests allowed to wait behind the active set; beyond this,
    /// arrivals are shed with `Overloaded`.
    pub max_queue: usize,
    /// The back-off hint attached to `Overloaded` rejections.
    pub retry_after: Duration,
    /// Default per-request deadline for sessions (covers queue wait
    /// *and* execution); `None` = ungoverned. Sessions can override
    /// per request via [`Session::set_deadline`].
    pub default_deadline: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            max_active: 4,
            max_queue: 8,
            retry_after: Duration::from_millis(2),
            default_deadline: None,
        }
    }
}

/// Durability settings for [`Engine::new_durable`] / [`Engine::recover`].
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory owning the WAL, checkpoint and lock files. Created if
    /// missing; held exclusive while any clone of the engine lives.
    pub dir: PathBuf,
    /// Write a snapshot checkpoint (and truncate the log) once this
    /// many frames have accumulated since the last one; `0` = only
    /// explicit [`Engine::checkpoint`] calls.
    pub checkpoint_every_frames: u64,
}

impl DurabilityConfig {
    /// Durability under `dir` with the default checkpoint cadence (64
    /// frames).
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every_frames: 64,
        }
    }
}

/// One published state of the service: an id, the frozen system, and
/// provenance. Readers hold epochs alive through `Arc`s; publishing a
/// new epoch never invalidates a pinned one.
#[derive(Debug)]
pub struct Epoch {
    id: u64,
    frozen: FrozenHippo,
    /// Write transactions folded into this epoch since startup.
    writes_applied: u64,
    published_at: Instant,
}

impl Epoch {
    /// Monotonic epoch id (0 = the startup epoch).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The frozen system: catalog snapshot + hypergraph + verdict
    /// cache.
    pub fn frozen(&self) -> &FrozenHippo {
        &self.frozen
    }

    /// Write transactions folded into this epoch since startup.
    pub fn writes_applied(&self) -> u64 {
        self.writes_applied
    }

    /// Time since this epoch was published.
    pub fn age(&self) -> Duration {
        self.published_at.elapsed()
    }
}

/// One recorded mutation inside a [`Engine::write`] transaction.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Insert rows into a table.
    Insert { table: String, rows: Vec<Row> },
    /// Delete tuples by id (unknown ids are skipped, matching
    /// [`Hippo::delete_tuples`]).
    Delete { table: String, tids: Vec<TupleId> },
    /// Update tuples in place (ids survive).
    Update {
        table: String,
        updates: Vec<(TupleId, Row)>,
    },
}

/// What a successful [`Engine::write`] published.
#[derive(Debug, Clone)]
pub struct WriteReceipt {
    /// The epoch this write became visible in.
    pub epoch: u64,
    /// The reconciliation's detection stats (incremental whenever
    /// every change since the last epoch was recorded).
    pub detect: DetectStats,
    /// Tuple ids assigned to inserted rows, in op order.
    pub inserted: Vec<TupleId>,
}

/// The writer's durable attachments (WAL handle + checkpoint cadence).
struct Durability {
    wal: Wal,
    dir: PathBuf,
    checkpoint_every: u64,
    frames_since_checkpoint: u64,
    /// LSN of the newest appended frame (0 = none yet).
    last_lsn: u64,
}

struct WriterState {
    hippo: Hippo,
    writes_applied: u64,
    durability: Option<Durability>,
    /// A writer rebuild failed; retry before the next commit.
    needs_rebuild: bool,
}

/// A write transaction's result slot: filled exactly once, by
/// whichever thread drains the commit queue.
type CommitSlot = Arc<Mutex<Option<Result<WriteReceipt, EngineError>>>>;

/// One queued write transaction awaiting a commit leader.
struct CommitReq {
    ops: Vec<WriteOp>,
    slot: CommitSlot,
}

struct Shared {
    epoch: RwLock<Arc<Epoch>>,
    writer: Mutex<WriterState>,
    /// Write transactions waiting for a commit leader (group commit).
    commit_queue: Mutex<VecDeque<CommitReq>>,
    /// Ops refused at admission during drain, pending their audit frame.
    abandoned: Mutex<Vec<Vec<WriteOp>>>,
    admission: Admission,
    config: EngineConfig,
    durable: bool,
    /// Replication state: fencing term, commit horizon, live feeds.
    hub: replicate::ReplicationHub,
    recovery: Option<recover::RecoveryReport>,
    epochs_published: AtomicU64,
    writer_recoveries: AtomicU64,
    wal_frames: AtomicU64,
    wal_fsyncs: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_failures: AtomicU64,
    group_commits: AtomicU64,
    grouped_writes: AtomicU64,
    writes_abandoned: AtomicU64,
}

impl Shared {
    fn new(
        epoch: Arc<Epoch>,
        writer: WriterState,
        config: EngineConfig,
        recovery: Option<recover::RecoveryReport>,
    ) -> Shared {
        let admission = Admission::new(config.max_active, config.max_queue, config.retry_after);
        let hub = replicate::ReplicationHub::new();
        if let Some(d) = &writer.durability {
            // A recovered engine's horizon starts at the recovered log
            // position, so replicas resuming from an older LSN resync
            // rather than silently matching.
            hub.note_lsn(d.last_lsn);
        }
        Shared {
            epoch: RwLock::new(epoch),
            durable: writer.durability.is_some(),
            hub,
            writer: Mutex::new(writer),
            commit_queue: Mutex::new(VecDeque::new()),
            abandoned: Mutex::new(Vec::new()),
            admission,
            config,
            recovery,
            epochs_published: AtomicU64::new(1),
            writer_recoveries: AtomicU64::new(0),
            wal_frames: AtomicU64::new(0),
            wal_fsyncs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_failures: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            grouped_writes: AtomicU64::new(0),
            writes_abandoned: AtomicU64::new(0),
        }
    }
}

/// The service engine: owns the single writer slot and the published
/// epoch pointer. Cheap to clone (all clones share one service);
/// `Send + Sync`, so clients are plain threads.
///
/// The durability [`DirLock`] rides on the `Engine` clones, not on the
/// shared state: when the last clone drops, the directory unlocks even
/// while [`Session`]s pinned to old epochs keep answering — so a
/// successor engine can recover from the directory without waiting for
/// readers to finish.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<Shared>,
    _dir_lock: Option<Arc<DirLock>>,
}

// The service exists to be shared across client threads.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Engine>();
    assert_sync_send::<Epoch>();
};

impl Engine {
    /// Start a service around a reconciled [`Hippo`], publishing epoch
    /// 0 immediately. Fails if the system has unreconciled changes
    /// (same rule as [`Hippo::freeze`]).
    pub fn new(hippo: Hippo, config: EngineConfig) -> Result<Engine, EngineError> {
        let frozen = hippo.freeze()?;
        let epoch = Arc::new(Epoch {
            id: 0,
            frozen,
            writes_applied: 0,
            published_at: Instant::now(),
        });
        let writer = WriterState {
            hippo,
            writes_applied: 0,
            durability: None,
            needs_rebuild: false,
        };
        Ok(Engine {
            shared: Arc::new(Shared::new(epoch, writer, config, None)),
            _dir_lock: None,
        })
    }

    /// Start a **durable** service: lock `durability.dir`, write the
    /// birth checkpoint (a snapshot of `hippo`'s catalog), open an
    /// empty WAL, and publish epoch 0. Fails with
    /// [`ErrorKind::Locked`](hippo_engine::ErrorKind) if another engine
    /// holds the directory, and refuses a directory that already has a
    /// checkpoint — that is existing data, use [`Engine::recover`].
    pub fn new_durable(
        hippo: Hippo,
        config: EngineConfig,
        durability: DurabilityConfig,
    ) -> Result<Engine, EngineError> {
        let dir_lock = Arc::new(DirLock::acquire(&durability.dir)?);
        if read_checkpoint(&durability.dir)?.is_some() {
            return Err(EngineError::new(format!(
                "durability directory {} already holds a checkpoint — \
                 use Engine::recover to reopen existing data",
                durability.dir.display()
            )));
        }
        let frozen = hippo.freeze()?;
        write_checkpoint(
            &durability.dir,
            frozen.catalog(),
            0,
            &hippo.options.governance(),
        )?;
        let (wal, _scan) = Wal::open(&durability.dir)?;
        let epoch = Arc::new(Epoch {
            id: 0,
            frozen,
            writes_applied: 0,
            published_at: Instant::now(),
        });
        let writer = WriterState {
            hippo,
            writes_applied: 0,
            durability: Some(Durability {
                last_lsn: wal.next_lsn().saturating_sub(1),
                wal,
                dir: durability.dir.clone(),
                checkpoint_every: durability.checkpoint_every_frames,
                frames_since_checkpoint: 0,
            }),
            needs_rebuild: false,
        };
        Ok(Engine {
            shared: Arc::new(Shared::new(epoch, writer, config, None)),
            _dir_lock: Some(dir_lock),
        })
    }

    /// Reopen a durability directory after a crash or shutdown: load
    /// the latest checkpoint, replay the committed log suffix
    /// (truncating any torn tail), rebuild the Hippo system — which
    /// re-runs **full** conflict detection from the recovered data —
    /// and publish the result as epoch 1. The constraints and foreign
    /// keys are schema-level configuration the log does not carry, so
    /// the caller supplies them (they must match the crashed engine's).
    pub fn recover(
        config: EngineConfig,
        durability: DurabilityConfig,
        constraints: Vec<DenialConstraint>,
        foreign_keys: Vec<ForeignKey>,
        options: HippoOptions,
    ) -> Result<Engine, EngineError> {
        let dir_lock = Arc::new(DirLock::acquire(&durability.dir)?);
        let (catalog, wal, report) = recover_dir(&durability.dir)?;
        let db = Database::from_catalog(catalog);
        // Construction runs the full ungoverned detect; the caller's
        // options (fault plans included) only apply to later calls.
        let mut hippo = Hippo::with_foreign_keys(db, constraints, foreign_keys)?;
        hippo.options = options;
        let frozen = hippo.freeze()?;
        let epoch = Arc::new(Epoch {
            id: 1,
            frozen,
            writes_applied: 0,
            published_at: Instant::now(),
        });
        let writer = WriterState {
            hippo,
            writes_applied: 0,
            durability: Some(Durability {
                last_lsn: wal.next_lsn().saturating_sub(1),
                wal,
                dir: durability.dir.clone(),
                checkpoint_every: durability.checkpoint_every_frames,
                frames_since_checkpoint: report.frames_replayed,
            }),
            needs_rebuild: false,
        };
        Ok(Engine {
            shared: Arc::new(Shared::new(epoch, writer, config, Some(report))),
            _dir_lock: Some(dir_lock),
        })
    }

    /// What [`Engine::recover`] found and replayed (`None` on engines
    /// not born from recovery).
    pub fn recovery_report(&self) -> Option<recover::RecoveryReport> {
        self.shared.recovery.clone()
    }

    /// Is this engine writing a WAL?
    pub fn is_durable(&self) -> bool {
        self.shared.durable
    }

    /// The currently published epoch (an `Arc` clone; the caller's
    /// copy stays valid across later publishes).
    pub fn current_epoch(&self) -> Arc<Epoch> {
        self.shared.epoch.read().unwrap().clone()
    }

    /// Open a reader session pinned to the current epoch.
    pub fn session(&self) -> Session {
        let epoch = self.current_epoch();
        let options = epoch.frozen.options.clone();
        Session {
            shared: Arc::clone(&self.shared),
            deadline: self.shared.config.default_deadline,
            options,
            epoch,
            requests: 0,
        }
    }

    /// Apply a write transaction through the serialized writer path
    /// and publish the resulting epoch. Concurrency-safe: writes
    /// serialize on the writer lock (after passing admission like any
    /// request), readers never block.
    ///
    /// On **any** failure — op validation, a governed redetect
    /// tripping its budget, an injected fault, or a panic inside
    /// reconciliation — nothing is published: readers keep the last
    /// good epoch, [`ServiceStats::writer_recoveries`] increments, and
    /// if any op of the failed transaction had landed the writer is
    /// rebuilt from the published epoch. Failed writes never ride
    /// along: a write that returned `Err` is never visible in a later
    /// epoch.
    /// On a durable engine the receipt additionally means the
    /// transaction's frame is **fsync'd in the WAL** — a crash after
    /// `write` returns cannot lose it — and a group of writers blocked
    /// on the writer slot commits together: one log write, one fsync,
    /// one reconciliation, one epoch swap (each still gets its own
    /// receipt).
    pub fn write(&self, ops: Vec<WriteOp>) -> Result<WriteReceipt, EngineError> {
        let permit = match self.shared.admission.admit(None) {
            Ok(p) => p,
            Err(e) => {
                if e.is_shutdown() {
                    // Draining: remember what this writer wanted so
                    // `drain` can log it as an abandoned-audit frame.
                    self.shared.abandoned.lock().unwrap().push(ops);
                    self.shared.writes_abandoned.fetch_add(1, Ordering::Relaxed);
                }
                return Err(e);
            }
        };
        let slot = Arc::new(Mutex::new(None));
        self.shared
            .commit_queue
            .lock()
            .unwrap()
            .push_back(CommitReq {
                ops,
                slot: Arc::clone(&slot),
            });
        let mut w = self.shared.writer.lock().unwrap();
        if let Some(done) = slot.lock().unwrap().take() {
            // A leader that held the writer slot drained the queue —
            // our transaction included — while we waited for it.
            return done;
        }
        self.lead_commit(&mut w);
        drop(w);
        drop(permit);
        let res = slot.lock().unwrap().take();
        res.expect("commit leader fills every drained slot")
    }

    /// Submit several transactions as one admission request and one
    /// commit group: the whole batch shares a single reconciliation,
    /// log write, fsync and epoch swap, but each transaction gets its
    /// own receipt (or error — one bad transaction does not fail its
    /// groupmates). This is the deterministic way to exercise group
    /// commit; concurrent [`Engine::write`] callers form the same
    /// groups adaptively.
    pub fn write_group(
        &self,
        txns: Vec<Vec<WriteOp>>,
    ) -> Result<Vec<Result<WriteReceipt, EngineError>>, EngineError> {
        let permit = match self.shared.admission.admit(None) {
            Ok(p) => p,
            Err(e) => {
                if e.is_shutdown() {
                    let mut ab = self.shared.abandoned.lock().unwrap();
                    self.shared
                        .writes_abandoned
                        .fetch_add(txns.len() as u64, Ordering::Relaxed);
                    ab.extend(txns);
                }
                return Err(e);
            }
        };
        let slots: Vec<CommitSlot> = txns.iter().map(|_| Arc::new(Mutex::new(None))).collect();
        {
            let mut q = self.shared.commit_queue.lock().unwrap();
            for (ops, slot) in txns.into_iter().zip(&slots) {
                q.push_back(CommitReq {
                    ops,
                    slot: Arc::clone(slot),
                });
            }
        }
        let mut w = self.shared.writer.lock().unwrap();
        self.lead_commit(&mut w);
        drop(w);
        drop(permit);
        Ok(slots
            .iter()
            .map(|s| {
                let res = s.lock().unwrap().take();
                res.expect("commit leader fills every drained slot")
            })
            .collect())
    }

    /// Drain the commit queue and process it as one group, filling
    /// every drained slot. Runs with the writer slot held.
    fn lead_commit(&self, w: &mut WriterState) {
        let group: Vec<CommitReq> = self.shared.commit_queue.lock().unwrap().drain(..).collect();
        if group.is_empty() {
            return;
        }
        if group.len() > 1 {
            self.shared.group_commits.fetch_add(1, Ordering::Relaxed);
            self.shared
                .grouped_writes
                .fetch_add(group.len() as u64, Ordering::Relaxed);
        }
        if w.needs_rebuild {
            self.reset_writer(w);
            if w.needs_rebuild {
                let err = EngineError::new(
                    "write: writer rebuild failed and is still pending; \
                     this write was not attempted",
                );
                for req in &group {
                    *req.slot.lock().unwrap() = Some(Err(err.clone()));
                }
                return;
            }
        }
        let outcomes = self.process_group(w, &group);
        for (req, outcome) in group.iter().zip(outcomes) {
            *req.slot.lock().unwrap() = Some(outcome);
        }
    }

    /// Apply, reconcile, log and publish one commit group. Exactly one
    /// epoch is published if any transaction survives; none otherwise.
    fn process_group(
        &self,
        w: &mut WriterState,
        group: &[CommitReq],
    ) -> Vec<Result<WriteReceipt, EngineError>> {
        let n = group.len();
        let mut results: Vec<Option<Result<WriteReceipt, EngineError>>> =
            (0..n).map(|_| None).collect();
        // Recorded effects of transactions applied in the current pass.
        let mut applied: Vec<Option<(Vec<WalOp>, Vec<TupleId>)>> = (0..n).map(|_| None).collect();
        let fail = |results: &mut Vec<Option<Result<WriteReceipt, EngineError>>>,
                    i: usize,
                    e: EngineError| {
            results[i] = Some(Err(e));
            self.shared
                .writer_recoveries
                .fetch_add(1, Ordering::Relaxed);
        };

        // Apply pass. A transaction that fails cleanly (validated
        // up-front, zero ops landed) just resolves to its error. A
        // partial failure or panic resolves the transaction AND resets
        // the writer: it is rebuilt from the published epoch and the
        // pass restarts — every already-applied groupmate is
        // re-applied so the live state holds exactly the surviving
        // transactions. Each restart permanently resolves at least one
        // transaction, so the loop is bounded.
        'apply: loop {
            for i in 0..n {
                if results[i].is_some() || applied[i].is_some() {
                    continue;
                }
                let ops = &group[i].ops;
                let mut walops: Vec<WalOp> = Vec::with_capacity(ops.len());
                let mut inserted: Vec<TupleId> = Vec::new();
                let mut ops_done = 0usize;
                let attempt = catch_unwind(AssertUnwindSafe(|| -> Result<(), EngineError> {
                    for op in ops {
                        match op {
                            WriteOp::Insert { table, rows } => {
                                let tids = w.hippo.insert_tuples(table, rows.clone())?;
                                inserted.extend(tids.iter().copied());
                                walops.push(WalOp::Insert {
                                    table: table.clone(),
                                    rows: rows.clone(),
                                    tids,
                                });
                            }
                            WriteOp::Delete { table, tids } => {
                                // The engine skips unknown ids; the log
                                // must record only real deletions or
                                // replay would refuse the frame.
                                let live: Vec<TupleId> = w
                                    .hippo
                                    .db()
                                    .catalog()
                                    .table(table)
                                    .map(|t| {
                                        tids.iter()
                                            .copied()
                                            .filter(|&id| t.get(id).is_some())
                                            .collect()
                                    })
                                    .unwrap_or_default();
                                w.hippo.delete_tuples(table, tids)?;
                                walops.push(WalOp::Delete {
                                    table: table.clone(),
                                    tids: live,
                                });
                            }
                            WriteOp::Update { table, updates } => {
                                w.hippo.update_tuples(table, updates.clone())?;
                                walops.push(WalOp::Update {
                                    table: table.clone(),
                                    updates: updates.clone(),
                                });
                            }
                        }
                        ops_done += 1;
                    }
                    Ok(())
                }));
                let landed_ops = match attempt {
                    Ok(Ok(())) => {
                        applied[i] = Some((walops, inserted));
                        false
                    }
                    Ok(Err(e)) => {
                        fail(&mut results, i, e);
                        ops_done > 0
                    }
                    // A panic may have interrupted op application.
                    Err(payload) => {
                        fail(
                            &mut results,
                            i,
                            EngineError::worker_panic("write", 0, &panic_message(payload.as_ref())),
                        );
                        true
                    }
                };
                if landed_ops {
                    self.reset_writer(w);
                    if w.needs_rebuild {
                        return self.fail_unresolved(results);
                    }
                    applied.iter_mut().for_each(|a| *a = None);
                    continue 'apply;
                }
            }
            break;
        }

        let survivors: Vec<usize> = (0..n).filter(|&i| applied[i].is_some()).collect();
        if survivors.is_empty() {
            return results.into_iter().map(Option::unwrap).collect();
        }

        // One reconciliation + freeze for the whole group.
        let finish = catch_unwind(AssertUnwindSafe(
            || -> Result<(DetectStats, FrozenHippo), EngineError> {
                let stats = w.hippo.redetect()?;
                let frozen = w.hippo.freeze()?;
                Ok((stats, frozen))
            },
        ));
        let (detect, frozen) = match finish {
            Ok(Ok(v)) => v,
            Ok(Err(e)) => {
                for &i in &survivors {
                    fail(&mut results, i, e.clone());
                }
                self.reset_writer(w);
                return results.into_iter().map(Option::unwrap).collect();
            }
            Err(payload) => {
                let e = EngineError::worker_panic("write", 0, &panic_message(payload.as_ref()));
                for &i in &survivors {
                    fail(&mut results, i, e.clone());
                }
                self.reset_writer(w);
                return results.into_iter().map(Option::unwrap).collect();
            }
        };

        // Group commit: every survivor's frame in one append, one
        // fsync — the commit point, strictly before the epoch swap.
        if w.durability.is_some() {
            let gov = w.hippo.options.governance();
            let dur = w.durability.as_mut().unwrap();
            let batch: Vec<(FrameKind, Vec<WalOp>)> = survivors
                .iter()
                .map(|&i| (FrameKind::Commit, applied[i].as_ref().unwrap().0.clone()))
                .collect();
            let appended = catch_unwind(AssertUnwindSafe(|| dur.wal.append(&batch, &gov)));
            match appended {
                Ok(Ok(lsns)) => {
                    dur.last_lsn = *lsns.last().unwrap();
                    dur.frames_since_checkpoint += lsns.len() as u64;
                    self.shared
                        .wal_frames
                        .fetch_add(lsns.len() as u64, Ordering::Relaxed);
                    self.shared.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
                    // Ship point: strictly after the fsync — replicas
                    // only ever see frames the primary is committed to.
                    // Shipping enqueues to per-replica feeds and never
                    // fails the commit.
                    let frames: Vec<Frame> = lsns
                        .iter()
                        .zip(batch)
                        .map(|(&lsn, (kind, ops))| Frame { lsn, kind, ops })
                        .collect();
                    self.shared.hub.ship(frames);
                }
                Ok(Err(e)) => {
                    for &i in &survivors {
                        fail(&mut results, i, e.clone());
                    }
                    self.reset_writer(w);
                    return results.into_iter().map(Option::unwrap).collect();
                }
                Err(payload) => {
                    let e = EngineError::worker_panic("write", 0, &panic_message(payload.as_ref()));
                    for &i in &survivors {
                        fail(&mut results, i, e.clone());
                    }
                    self.reset_writer(w);
                    return results.into_iter().map(Option::unwrap).collect();
                }
            }
        }

        // Publish: one epoch swap for the whole group.
        w.writes_applied += survivors.len() as u64;
        let epoch_id = {
            let mut cur = self.shared.epoch.write().unwrap();
            let id = cur.id + 1;
            *cur = Arc::new(Epoch {
                id,
                frozen,
                writes_applied: w.writes_applied,
                published_at: Instant::now(),
            });
            id
        };
        self.shared.epochs_published.fetch_add(1, Ordering::Relaxed);
        for &i in &survivors {
            let (_, inserted) = applied[i].take().unwrap();
            results[i] = Some(Ok(WriteReceipt {
                epoch: epoch_id,
                detect,
                inserted,
            }));
        }

        self.maybe_checkpoint(w);
        results.into_iter().map(Option::unwrap).collect()
    }

    /// Resolve every still-unresolved transaction with the pending-
    /// rebuild error (used when a mid-group rebuild fails).
    fn fail_unresolved(
        &self,
        mut results: Vec<Option<Result<WriteReceipt, EngineError>>>,
    ) -> Vec<Result<WriteReceipt, EngineError>> {
        let err = EngineError::new("write: writer rebuild failed; transaction not committed");
        for r in results.iter_mut() {
            if r.is_none() {
                *r = Some(Err(err.clone()));
                self.shared
                    .writer_recoveries
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        results.into_iter().map(Option::unwrap).collect()
    }

    /// Post-failure writer recovery, the same on every engine: rebuild
    /// the writer's Hippo from the currently published epoch's catalog
    /// (full ungoverned re-detection, then the original options
    /// restored so unfired fault arms survive), so ops a failed
    /// transaction already applied can never be published with a later
    /// success. On failure flags `needs_rebuild`; the next commit
    /// attempt retries.
    fn reset_writer(&self, w: &mut WriterState) {
        let epoch = self.current_epoch();
        let rebuilt = catch_unwind(AssertUnwindSafe(|| -> Result<Hippo, EngineError> {
            let db = Database::from_catalog(epoch.frozen().catalog().clone());
            let constraints = w.hippo.constraints().to_vec();
            let fks = w.hippo.foreign_keys().to_vec();
            let options = w.hippo.options.clone();
            let mut h = Hippo::with_foreign_keys(db, constraints, fks)?;
            h.options = options;
            Ok(h)
        }));
        match rebuilt {
            Ok(Ok(h)) => {
                w.hippo = h;
                w.needs_rebuild = false;
            }
            _ => {
                w.needs_rebuild = true;
            }
        }
    }

    /// Force a snapshot checkpoint now (durable engines only): write
    /// the catalog image, then truncate the absorbed log.
    pub fn checkpoint(&self) -> Result<(), EngineError> {
        let mut w = self.shared.writer.lock().unwrap();
        self.checkpoint_writer(&mut w)
    }

    /// Checkpoint if the cadence says so; failures are counted, not
    /// fatal (the log is still intact, so nothing is lost).
    fn maybe_checkpoint(&self, w: &mut WriterState) {
        let due = match &w.durability {
            Some(d) => d.checkpoint_every > 0 && d.frames_since_checkpoint >= d.checkpoint_every,
            None => false,
        };
        if due {
            let _ = self.checkpoint_writer(w);
        }
    }

    fn checkpoint_writer(&self, w: &mut WriterState) -> Result<(), EngineError> {
        let gov = w.hippo.options.governance();
        let hippo = &w.hippo;
        let Some(dur) = w.durability.as_mut() else {
            return Err(EngineError::new(
                "checkpoint: engine has no durability directory",
            ));
        };
        // The writer state equals the published state here (failures
        // always reset it), so its catalog is the correct image for
        // everything up to `last_lsn`.
        let catalog = hippo.db().catalog();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            write_checkpoint(&dur.dir, catalog, dur.last_lsn, &gov)
        }));
        match attempt {
            Ok(Ok(())) => {
                dur.wal.truncate_all()?;
                dur.frames_since_checkpoint = 0;
                self.shared.checkpoints.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Ok(Err(e)) => {
                self.shared
                    .checkpoint_failures
                    .fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
            Err(payload) => {
                self.shared
                    .checkpoint_failures
                    .fetch_add(1, Ordering::Relaxed);
                Err(EngineError::worker_panic(
                    "checkpoint",
                    0,
                    &panic_message(payload.as_ref()),
                ))
            }
        }
    }

    /// Replace the writer's governance/options (deadline, fault plan,
    /// thread count) for subsequent writes. This is how the chaos
    /// harness arms "writer panics mid-redetect".
    pub fn set_writer_options(&self, options: HippoOptions) {
        self.shared.writer.lock().unwrap().hippo.options = options;
    }

    /// Graceful shutdown: reject new requests with `Shutdown`, wake
    /// queued waiters into `Shutdown`, and block until every in-flight
    /// request has finished (or tripped its budget). Returns the total
    /// number of writes abandoned at the gate so far; on a durable
    /// engine their ops are logged as abandoned-**audit** frames
    /// (fsync'd, skipped by replay) before this returns — a lossy
    /// shutdown leaves evidence of what was lost. Idempotent; a second
    /// call flushes any straggler that lost the race between being
    /// refused and being recorded.
    pub fn drain(&self) -> u64 {
        self.shared.admission.drain();
        let pending: Vec<Vec<WriteOp>> =
            std::mem::take(&mut *self.shared.abandoned.lock().unwrap());
        if !pending.is_empty() {
            let mut w = self.shared.writer.lock().unwrap();
            let gov = w.hippo.options.governance();
            if let Some(dur) = w.durability.as_mut() {
                let batch: Vec<(FrameKind, Vec<WalOp>)> = pending
                    .iter()
                    .map(|ops| (FrameKind::Abandoned, audit_walops(ops)))
                    .collect();
                // Best-effort: the audit trail must never turn a clean
                // drain into a crash, so injected faults are absorbed.
                let appended = catch_unwind(AssertUnwindSafe(|| dur.wal.append(&batch, &gov)));
                if let Ok(Ok(lsns)) = appended {
                    dur.last_lsn = *lsns.last().unwrap();
                    self.shared
                        .wal_frames
                        .fetch_add(lsns.len() as u64, Ordering::Relaxed);
                    self.shared.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
                    // Abandoned-audit frames ship too: replicas keep
                    // the same evidence trail (replay skips them).
                    let frames: Vec<Frame> = lsns
                        .iter()
                        .zip(batch)
                        .map(|(&lsn, (kind, ops))| Frame { lsn, kind, ops })
                        .collect();
                    self.shared.hub.ship(frames);
                }
            }
        }
        self.shared.writes_abandoned.load(Ordering::Relaxed)
    }

    /// Has [`Engine::drain`] begun?
    pub fn is_draining(&self) -> bool {
        self.shared.admission.is_draining()
    }

    /// A point-in-time snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let (active, queued) = self.shared.admission.occupancy();
        let epoch = self.current_epoch();
        ServiceStats {
            epochs_published: self.shared.epochs_published.load(Ordering::Relaxed),
            writes_applied: epoch.writes_applied,
            requests_admitted: self.shared.admission.admitted_count(),
            requests_shed: self.shared.admission.shed_count(),
            writer_recoveries: self.shared.writer_recoveries.load(Ordering::Relaxed),
            wal_frames: self.shared.wal_frames.load(Ordering::Relaxed),
            wal_fsyncs: self.shared.wal_fsyncs.load(Ordering::Relaxed),
            checkpoints: self.shared.checkpoints.load(Ordering::Relaxed),
            checkpoint_failures: self.shared.checkpoint_failures.load(Ordering::Relaxed),
            group_commits: self.shared.group_commits.load(Ordering::Relaxed),
            grouped_writes: self.shared.grouped_writes.load(Ordering::Relaxed),
            writes_abandoned: self.shared.writes_abandoned.load(Ordering::Relaxed),
            active,
            queued,
            epoch_age: epoch.age(),
            draining: self.is_draining(),
            durable: self.shared.durable,
        }
    }

    /// The fencing term this engine stamps on every replication
    /// message (1 for a freshly started primary; promoted engines
    /// carry their predecessor's term + 1).
    pub fn term(&self) -> u64 {
        self.shared.hub.term()
    }

    /// Start streaming committed WAL frames to one replica over
    /// `transport`. Spawns a feeder thread that waits for the
    /// replica's `Hello`, serves its initial sync (incremental frames
    /// when the log still holds the suffix, a full catalog snapshot
    /// otherwise), then relays every group commit, heartbeats when
    /// idle, and tracks the replica's acked LSN. The feeder holds only
    /// a weak reference: dropping the engine ends replication.
    ///
    /// Only durable engines can host replicas — the WAL is the
    /// shipping source.
    pub fn attach_replica(&self, transport: Box<dyn Transport>) -> Result<(), EngineError> {
        if !self.shared.durable {
            return Err(EngineError::new(
                "replication: only durable engines can host replicas \
                 (the WAL is the shipping source)",
            ));
        }
        let weak = Arc::downgrade(&self.shared);
        std::thread::Builder::new()
            .name("hippo-repl-feed".into())
            .spawn(move || replicate::feed_loop(weak, transport))
            .map_err(|e| EngineError::new(format!("replication: spawn feeder: {e}")))?;
        Ok(())
    }

    /// Accept replicas over TCP: each accepted connection becomes an
    /// [`Engine::attach_replica`]-style feeder. Returns a handle whose
    /// drop (or [`ReplicationServer::stop`]) shuts the acceptor down;
    /// already-attached feeders keep running until their transport or
    /// the engine goes away.
    pub fn serve_replication(
        &self,
        listener: std::net::TcpListener,
    ) -> Result<ReplicationServer, EngineError> {
        if !self.shared.durable {
            return Err(EngineError::new(
                "replication: only durable engines can host replicas \
                 (the WAL is the shipping source)",
            ));
        }
        let addr = listener
            .local_addr()
            .map_err(|e| EngineError::new(format!("replication: local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| EngineError::new(format!("replication: set_nonblocking: {e}")))?;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let weak = Arc::downgrade(&self.shared);
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("hippo-repl-accept".into())
            .spawn(move || loop {
                if thread_stop.load(Ordering::SeqCst) || weak.upgrade().is_none() {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        if let Ok(transport) = transport::TcpTransport::new(stream) {
                            let feeder = weak.clone();
                            let _ = std::thread::Builder::new()
                                .name("hippo-repl-feed".into())
                                .spawn(move || replicate::feed_loop(feeder, Box::new(transport)));
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            })
            .map_err(|e| EngineError::new(format!("replication: spawn acceptor: {e}")))?;
        Ok(ReplicationServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// Point-in-time primary-side replication counters.
    pub fn replication_stats(&self) -> ReplicationStats {
        let hub = &self.shared.hub;
        let (replicas, min_acked_lsn) = hub.ack_floor();
        ReplicationStats {
            term: hub.term(),
            last_lsn: hub.last_lsn(),
            replicas,
            min_acked_lsn,
            frames_shipped: hub.frames_shipped.load(Ordering::Relaxed),
            snapshots_shipped: hub.snapshots_shipped.load(Ordering::Relaxed),
            incremental_syncs: hub.incremental_syncs.load(Ordering::Relaxed),
            acks_received: hub.acks_received.load(Ordering::Relaxed),
            heartbeats_sent: hub.heartbeats_sent.load(Ordering::Relaxed),
            feeds_fenced: hub.feeds_fenced.load(Ordering::Relaxed),
            feeds_dropped: hub.feeds_dropped.load(Ordering::Relaxed),
        }
    }
}

/// Handle for a TCP replication acceptor (see
/// [`Engine::serve_replication`]). Dropping it stops accepting new
/// replicas.
pub struct ReplicationServer {
    addr: std::net::SocketAddr,
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ReplicationServer {
    /// The address replicas connect to (useful with port 0 listeners).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop accepting new replicas (existing feeders keep running).
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ReplicationServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve a replica's `Hello` on the primary: under the writer lock
/// (so registration is atomic with the payload — no frame can commit
/// and ship between the two), register the feed if new, then build
/// either an incremental `Frames` response (the log still holds every
/// frame past the replica's position, same term, same history) or a
/// full catalog `Snapshot`. A `Hello` carrying a *newer* term means
/// this primary is a fenced zombie: the feeder gets an error and
/// stops.
pub(crate) fn serve_hello(
    shared: &Shared,
    hello_term: u64,
    hello_lsn: u64,
    needs_snapshot: bool,
    feed: &mut Option<(u64, std::sync::mpsc::Receiver<Vec<u8>>)>,
    acked: &Arc<AtomicU64>,
    alive: &Arc<std::sync::atomic::AtomicBool>,
) -> Result<Vec<u8>, EngineError> {
    let w = shared.writer.lock().unwrap();
    let term = shared.hub.term();
    if hello_term > term {
        shared.hub.feeds_fenced.fetch_add(1, Ordering::Relaxed);
        return Err(EngineError::not_primary(hello_term));
    }
    if feed.is_none() {
        *feed = Some(shared.hub.register(Arc::clone(acked), Arc::clone(alive)));
    }
    let dur = w
        .durability
        .as_ref()
        .expect("attach_replica requires a durable engine");
    let last_lsn = dur.last_lsn;
    shared.hub.note_lsn(last_lsn);
    // Incremental resync only within one history: a replica that last
    // followed an older term may share LSNs but not frames with us.
    if !needs_snapshot && hello_term == term && hello_lsn <= last_lsn {
        if let Ok(frames) = dur.wal.read_frames_since(hello_lsn) {
            shared.hub.incremental_syncs.fetch_add(1, Ordering::Relaxed);
            return Ok(replicate::ReplMsg::Frames { term, frames }.encode());
        }
        // A checkpoint absorbed part of the suffix; fall through.
    }
    // The published epoch is exactly "checkpoint + committed log" =
    // everything up to last_lsn (abandoned frames are no-ops).
    let catalog =
        hippo_engine::codec::encode_catalog(shared.epoch.read().unwrap().frozen.catalog());
    shared.hub.snapshots_shipped.fetch_add(1, Ordering::Relaxed);
    Ok(replicate::ReplMsg::Snapshot {
        term,
        last_lsn,
        catalog,
    }
    .encode())
}

/// Strip a refused transaction's ops down to loggable audit records
/// (inserts carry no tuple ids — none were ever assigned).
fn audit_walops(ops: &[WriteOp]) -> Vec<WalOp> {
    ops.iter()
        .map(|op| match op {
            WriteOp::Insert { table, rows } => WalOp::Insert {
                table: table.clone(),
                rows: rows.clone(),
                tids: Vec::new(),
            },
            WriteOp::Delete { table, tids } => WalOp::Delete {
                table: table.clone(),
                tids: tids.clone(),
            },
            WriteOp::Update { table, updates } => WalOp::Update {
                table: table.clone(),
                updates: updates.clone(),
            },
        })
        .collect()
}

/// A reader session: pinned to one epoch until [`Session::refresh`],
/// with its own deadline and (armable) cancellation handle. Cheap —
/// one per client thread, or one per request, as the caller prefers.
///
/// Every data call runs admission → deadline-budgeted execution
/// against the pinned epoch's [`FrozenHippo`]; the live writer is
/// never touched.
pub struct Session {
    shared: Arc<Shared>,
    epoch: Arc<Epoch>,
    options: HippoOptions,
    deadline: Option<Duration>,
    requests: u64,
}

impl Session {
    /// The epoch this session reads from.
    pub fn epoch(&self) -> &Arc<Epoch> {
        &self.epoch
    }

    /// Re-pin to the latest published epoch (keeping this session's
    /// deadline, mode flags and armed cancellation).
    pub fn refresh(&mut self) {
        self.epoch = self.shared.epoch.read().unwrap().clone();
    }

    /// Override the per-request deadline (`None` = ungoverned). The
    /// deadline covers queue wait and execution together.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// Mutable access to the session's answer-mode options (KG/core
    /// filter/threads/degraded). Governance deadlines still come from
    /// [`Session::set_deadline`].
    pub fn options_mut(&mut self) -> &mut HippoOptions {
        &mut self.options
    }

    /// A handle that cancels this session's in-flight (or next)
    /// request from another thread. Sticky until
    /// [`CancelHandle::reset`].
    pub fn cancel_handle(&mut self) -> CancelHandle {
        self.options.cancel_handle()
    }

    /// This session's view of its pinned epoch.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            pinned_epoch: self.epoch.id,
            pinned_writes: self.epoch.writes_applied,
            pinned_age: self.epoch.age(),
            requests: self.requests,
        }
    }

    /// Admission + remaining-deadline accounting shared by the data
    /// calls. Returns the request's effective options (deadline
    /// adjusted for time spent queueing).
    fn admit(
        &self,
        arrival: Instant,
    ) -> Result<(admission::Permit<'_>, HippoOptions), EngineError> {
        let absolute = self.deadline.map(|d| arrival + d);
        let permit = self.shared.admission.admit(absolute)?;
        let mut options = self.options.clone();
        options.governance.deadline = match self.deadline {
            None => None,
            Some(d) => {
                let remaining = d.saturating_sub(arrival.elapsed());
                if remaining.is_zero() {
                    return Err(EngineError::budget(
                        "admission",
                        arrival.elapsed().as_micros() as u64,
                        d.as_micros() as u64,
                    ));
                }
                Some(remaining)
            }
        };
        Ok((permit, options))
    }

    /// Run a plain (non-CQA) SQL `SELECT` against the pinned epoch.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult, EngineError> {
        let arrival = Instant::now();
        self.requests += 1;
        let (_permit, options) = self.admit(arrival)?;
        let gov = options.governance();
        self.epoch.frozen.query_governed(sql, gov.budget_ref())
    }

    /// Compute consistent answers on the pinned epoch (sorted rows).
    pub fn consistent_answers(&mut self, query: &SjudQuery) -> Result<Vec<Row>, EngineError> {
        Ok(self.consistent_answers_governed(query)?.rows)
    }

    /// The governed CQA entry point: admission, deadline propagation,
    /// then the epoch's full answer pipeline with this session's mode
    /// flags. Completeness semantics are exactly
    /// [`Hippo::consistent_answers_governed`]'s.
    pub fn consistent_answers_governed(
        &mut self,
        query: &SjudQuery,
    ) -> Result<ConsistentAnswer, EngineError> {
        let arrival = Instant::now();
        self.requests += 1;
        let (_permit, options) = self.admit(arrival)?;
        self.epoch.frozen.consistent_answers_with(query, &options)
    }
}
