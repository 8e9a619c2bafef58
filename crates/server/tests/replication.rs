//! Integration tests for WAL-shipping replication: primary/replica
//! epochs over fault-injectable transports.
//!
//! The recurring shape mirrors `durability.rs`: run writes against a
//! durable primary, let a replica replay them, and demand the
//! replica's consistent answers are **bit-identical** to the
//! primary's (and, across failover, to a serial oracle) — under
//! clean streaming, injected drops/corruption/disconnects, resyncs,
//! and promotion with fencing.

use hippo_cqa::budget::{FaultKind, FaultPlan};
use hippo_cqa::prelude::*;
use hippo_engine::{Database, Row, Value};
use hippo_server::replicate::ReplMsg;
use hippo_server::{
    ChannelTransport, DurabilityConfig, Engine, EngineConfig, Replica, ReplicaConfig, Transport,
    WriteOp,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hippo-repl-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn workload(rows: usize, seed: u64) -> (Database, Vec<DenialConstraint>) {
    let spec = FdTableSpec::new("t", rows, 0.05, seed);
    let mut db = Database::new();
    spec.populate(&mut db).unwrap();
    (db, vec![spec.fd()])
}

fn durable_engine(rows: usize, seed: u64, dir: &Path, every: u64) -> Engine {
    let (db, cons) = workload(rows, seed);
    let hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    Engine::new_durable(
        hippo,
        EngineConfig::default(),
        DurabilityConfig {
            dir: dir.to_path_buf(),
            checkpoint_every_frames: every,
        },
    )
    .unwrap()
}

fn replica_config(seed: u64) -> ReplicaConfig {
    let (_, cons) = workload(1, seed);
    let mut config = ReplicaConfig::new(cons);
    config.options = HippoOptions::full();
    config.resync_after = Duration::from_millis(30);
    config
}

fn query() -> SjudQuery {
    SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)))
}

fn insert(rows: Vec<Row>) -> WriteOp {
    WriteOp::Insert {
        table: "t".into(),
        rows,
    }
}

fn clean_row(k: i64) -> Vec<Row> {
    vec![vec![Value::Int(k), Value::Int(5), Value::Int(0)]]
}

fn conflict_pair(k: i64) -> Vec<Row> {
    vec![
        vec![Value::Int(k), Value::Int(1), Value::Int(0)],
        vec![Value::Int(k), Value::Int(2), Value::Int(0)],
    ]
}

/// Spin until the replica has applied everything the primary
/// committed (or fail loudly with both sides' stats).
fn wait_caught_up(primary: &Engine, replica: &Replica, deadline: Duration) {
    let start = Instant::now();
    let target = primary.replication_stats().last_lsn;
    loop {
        let st = replica.staleness();
        if st.applied_lsn >= target {
            return;
        }
        if let Some(e) = replica.broken() {
            panic!("replica broke while catching up: {e}");
        }
        if start.elapsed() > deadline {
            panic!(
                "replica never caught up to lsn {target}: primary[{}] replica[{}]",
                primary.replication_stats(),
                replica.stats()
            );
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn primary_answers(eng: &Engine) -> Vec<Row> {
    eng.session().consistent_answers(&query()).unwrap()
}

fn replica_answers(replica: &Replica) -> Vec<Row> {
    let mut s = replica.session().unwrap();
    s.consistent_answers(&query()).unwrap()
}

// ---------------------------------------------------------------------
// Clean streaming
// ---------------------------------------------------------------------

#[test]
fn replica_follows_and_answers_bit_identically() {
    let dir = tmp_dir("follow");
    let eng = durable_engine(300, 21, &dir, 0);
    let (a, b) = ChannelTransport::pair();
    let replica = Replica::start(Box::new(b), replica_config(21));
    eng.attach_replica(Box::new(a)).unwrap();
    // Let the initial snapshot land first, so the writes below must
    // stream as frames (a snapshot taken after them would absorb all
    // three and leave `frames_applied` at 0).
    let start = Instant::now();
    while !replica.stats().has_state {
        assert!(start.elapsed() < Duration::from_secs(10), "no initial sync");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Writes that insert (with conflicts), update and delete.
    eng.write(vec![insert(conflict_pair(1_000_000))]).unwrap();
    let tids = eng
        .write(vec![insert(clean_row(2_000_000))])
        .unwrap()
        .inserted;
    eng.write(vec![
        WriteOp::Update {
            table: "t".into(),
            updates: vec![(
                tids[0],
                vec![Value::Int(2_000_000), Value::Int(9), Value::Int(1)],
            )],
        },
        WriteOp::Delete {
            table: "t".into(),
            tids,
        },
    ])
    .unwrap();

    wait_caught_up(&eng, &replica, Duration::from_secs(10));
    assert_eq!(
        replica_answers(&replica),
        primary_answers(&eng),
        "replica answers must be bit-identical to the primary's"
    );

    // Staleness is surfaced and currently ~zero.
    let st = replica.staleness();
    assert_eq!(st.lsn_lag, 0, "{st}");
    assert_eq!(st.term, eng.term());

    // Primary-side bookkeeping saw this replica.
    let ps = eng.replication_stats();
    assert_eq!(ps.replicas, 1, "{ps}");
    assert!(ps.snapshots_shipped >= 1, "fresh replica snapshots: {ps}");
    assert!(ps.acks_received >= 1, "{ps}");

    let rs = replica.stats();
    assert!(rs.has_state, "{rs}");
    assert!(!rs.broken, "{rs}");
    assert!(rs.frames_applied >= 1, "{rs}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replica_refuses_writes_with_structured_not_primary() {
    let dir = tmp_dir("notprimary");
    let eng = durable_engine(120, 5, &dir, 0);
    let (a, b) = ChannelTransport::pair();
    let replica = Replica::start(Box::new(b), replica_config(5));
    eng.attach_replica(Box::new(a)).unwrap();
    eng.write(vec![insert(clean_row(1_000_000))]).unwrap();
    wait_caught_up(&eng, &replica, Duration::from_secs(10));

    let session = replica.session().unwrap();
    let err = session
        .write(vec![insert(clean_row(2_000_000))])
        .unwrap_err();
    assert!(err.is_not_primary(), "{err}");
    assert!(
        err.message.contains(&format!("term {}", eng.term())),
        "the error must carry the fencing term so the client knows \
         which primary generation to resubmit to: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn non_durable_engines_refuse_replicas() {
    let (db, cons) = workload(50, 3);
    let hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    let eng = Engine::new(hippo, EngineConfig::default()).unwrap();
    let (a, _b) = ChannelTransport::pair();
    let err = eng.attach_replica(Box::new(a)).unwrap_err();
    assert!(err.message.contains("durable"), "{err}");
}

// ---------------------------------------------------------------------
// Resync: reconnect catches up incrementally; checkpoint-absorbed
// history forces a snapshot.
// ---------------------------------------------------------------------

#[test]
fn reconnect_resyncs_incrementally_from_the_log() {
    let dir = tmp_dir("resync");
    let eng = durable_engine(200, 31, &dir, 0); // never checkpoints
    let (a, b) = ChannelTransport::pair();
    let replica = Replica::start(Box::new(b), replica_config(31));
    eng.attach_replica(Box::new(a)).unwrap();
    eng.write(vec![insert(clean_row(1_000_000))]).unwrap();
    wait_caught_up(&eng, &replica, Duration::from_secs(10));

    // Sever the link: dropping our end of a fresh pair is not needed —
    // arm a one-shot disconnect so the feeder dies mid-stream.
    // Simpler and deterministic: just write while attached through a
    // transport that disconnects on the next send.
    let before = replica.stats().snapshots_loaded;
    drop(eng); // feeder sees the engine gone and stops; replica keeps state

    // A successor recovers the same directory and the replica
    // re-attaches: same term? No — recovery starts a fresh hub at term
    // 1 == replica's term, same history (same log), so the sync can be
    // served incrementally from the log suffix.
    let (_, cons) = workload(1, 31);
    let eng2 = Engine::recover(
        EngineConfig::default(),
        DurabilityConfig {
            dir: dir.clone(),
            checkpoint_every_frames: 0,
        },
        cons,
        Vec::new(),
        HippoOptions::full(),
    )
    .unwrap();
    eng2.write(vec![insert(conflict_pair(2_000_000))]).unwrap();

    let (a2, b2) = ChannelTransport::pair();
    replica.attach(Box::new(b2));
    eng2.attach_replica(Box::new(a2)).unwrap();
    wait_caught_up(&eng2, &replica, Duration::from_secs(10));

    assert_eq!(replica_answers(&replica), primary_answers(&eng2));
    assert_eq!(
        replica.stats().snapshots_loaded,
        before,
        "catch-up must come from the log suffix, not a fresh snapshot: {}",
        replica.stats()
    );
    assert!(
        eng2.replication_stats().incremental_syncs >= 1,
        "{}",
        eng2.replication_stats()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_absorbed_history_forces_a_snapshot_resync() {
    let dir = tmp_dir("ckabsorb");
    // Aggressive checkpointing: every frame truncates the log.
    let eng = durable_engine(150, 41, &dir, 1);
    let (a, b) = ChannelTransport::pair();
    let replica = Replica::start(Box::new(b), replica_config(41));
    eng.attach_replica(Box::new(a)).unwrap();
    eng.write(vec![insert(clean_row(1_000_000))]).unwrap();
    wait_caught_up(&eng, &replica, Duration::from_secs(10));
    drop(eng);

    // While the replica is detached, a successor commits more frames,
    // each immediately absorbed by a checkpoint — the log suffix the
    // replica needs is gone, so its Hello must be answered with a
    // fresh snapshot (never a silent gap).
    let (_, cons) = workload(1, 41);
    let eng2 = Engine::recover(
        EngineConfig::default(),
        DurabilityConfig {
            dir: dir.clone(),
            checkpoint_every_frames: 1,
        },
        cons,
        Vec::new(),
        HippoOptions::full(),
    )
    .unwrap();
    eng2.write(vec![insert(conflict_pair(2_000_000))]).unwrap();
    eng2.write(vec![insert(clean_row(3_000_000))]).unwrap();

    let before = replica.stats().snapshots_loaded;
    let (a2, b2) = ChannelTransport::pair();
    replica.attach(Box::new(b2));
    eng2.attach_replica(Box::new(a2)).unwrap();
    wait_caught_up(&eng2, &replica, Duration::from_secs(10));

    assert_eq!(replica_answers(&replica), primary_answers(&eng2));
    assert!(
        replica.stats().snapshots_loaded > before,
        "the absorbed suffix must force a snapshot: {}",
        replica.stats()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Chaos: injected transport faults surface as counters and resyncs,
// never as divergence.
// ---------------------------------------------------------------------

#[test]
fn injected_drop_and_corruption_heal_via_resync() {
    let dir = tmp_dir("chaos");
    let eng = durable_engine(250, 51, &dir, 0);
    let gov = HippoOptions::full()
        .with_faults(
            FaultPlan::parse("repl:drop:*:drop,repl:corrupt:*:corrupt,repl:delay:*:delay5")
                .unwrap(),
        )
        .governance();
    let (a, b) = ChannelTransport::pair();
    let replica = Replica::start(Box::new(b), replica_config(51));
    eng.attach_replica(Box::new(a.with_faults(gov, 0))).unwrap();

    for i in 0..6 {
        let k = 1_000_000 + i;
        if i % 2 == 0 {
            eng.write(vec![insert(conflict_pair(k))]).unwrap();
        } else {
            eng.write(vec![insert(clean_row(k))]).unwrap();
        }
    }
    wait_caught_up(&eng, &replica, Duration::from_secs(20));

    assert_eq!(
        replica_answers(&replica),
        primary_answers(&eng),
        "dropped and corrupted frames must heal, not diverge"
    );
    let rs = replica.stats();
    assert!(!rs.broken, "{rs}");
    assert!(
        rs.msgs_corrupt >= 1,
        "the armed corruption must have been seen (and survived): {rs}"
    );
    assert!(
        rs.gaps_detected + rs.resync_requests >= 1,
        "the dropped frame must have triggered a resync: {rs}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_disconnect_is_structured_and_reattachable() {
    let dir = tmp_dir("disc");
    let eng = durable_engine(150, 61, &dir, 0);
    let gov = HippoOptions::full()
        .with_faults(FaultPlan::new(
            "repl:disconnect",
            None,
            FaultKind::Disconnect,
        ))
        .governance();
    let (a, b) = ChannelTransport::pair();
    let replica = Replica::start(Box::new(b), replica_config(61));
    eng.attach_replica(Box::new(a.with_faults(gov, 0))).unwrap();

    // The first send (the sync response) trips the disconnect; the
    // feeder dies, the replica sees a structured hangup.
    eng.write(vec![insert(clean_row(1_000_000))]).unwrap();
    let start = Instant::now();
    while replica.stats().disconnects == 0 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        replica.stats().disconnects >= 1,
        "disconnect must be observed: {}",
        replica.stats()
    );
    assert!(
        replica.broken().is_none(),
        "a disconnect never breaks state"
    );

    // Re-attach over a clean pair: full recovery of the stream.
    let (a2, b2) = ChannelTransport::pair();
    replica.attach(Box::new(b2));
    eng.attach_replica(Box::new(a2)).unwrap();
    wait_caught_up(&eng, &replica, Duration::from_secs(10));
    assert_eq!(replica_answers(&replica), primary_answers(&eng));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Failover: promote bumps the term; zombies are fenced.
// ---------------------------------------------------------------------

#[test]
fn promote_replays_the_committed_prefix_and_serves_writes() {
    let dir = tmp_dir("promote");
    let eng = durable_engine(300, 71, &dir, 0);
    let (a, b) = ChannelTransport::pair();
    let replica = Replica::start(Box::new(b), replica_config(71));
    eng.attach_replica(Box::new(a)).unwrap();
    eng.write(vec![insert(conflict_pair(1_000_000))]).unwrap();
    eng.write(vec![insert(clean_row(2_000_000))]).unwrap();
    wait_caught_up(&eng, &replica, Duration::from_secs(10));

    let expected = primary_answers(&eng);
    let old_term = eng.term();
    drop(eng); // the primary dies

    let promote_dir = tmp_dir("promote-new");
    let (promoted, report) = replica
        .promote(
            EngineConfig::default(),
            Some(DurabilityConfig {
                dir: promote_dir.clone(),
                checkpoint_every_frames: 0,
            }),
        )
        .unwrap();
    assert_eq!(report.term, old_term + 1);
    assert_eq!(promoted.term(), report.term);
    assert!(report.applied_lsn >= 2, "{report:?}");

    // The promoted engine answers exactly the committed prefix...
    assert_eq!(primary_answers(&promoted), expected);
    // ...and accepts writes (it is a primary now, durable in its own
    // directory, ready to host its own replicas).
    promoted.write(vec![insert(clean_row(3_000_000))]).unwrap();
    let (a2, b2) = ChannelTransport::pair();
    let second = Replica::start(Box::new(b2), replica_config(71));
    promoted.attach_replica(Box::new(a2)).unwrap();
    wait_caught_up(&promoted, &second, Duration::from_secs(10));
    assert_eq!(replica_answers(&second), primary_answers(&promoted));
    assert_eq!(second.term(), report.term);

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&promote_dir).unwrap();
}

#[test]
fn zombie_primary_frames_are_fenced_on_both_sides() {
    let dir = tmp_dir("fence");
    let eng = durable_engine(150, 81, &dir, 0);
    let (a, b) = ChannelTransport::pair();
    let replica = Replica::start(Box::new(b), replica_config(81));
    eng.attach_replica(Box::new(a)).unwrap();
    eng.write(vec![insert(clean_row(1_000_000))]).unwrap();
    wait_caught_up(&eng, &replica, Duration::from_secs(10));
    let settled = replica_answers(&replica);

    // A higher-term heartbeat teaches the replica the cluster moved on
    // (this is what following a promoted primary does).
    let (mut ours, theirs) = ChannelTransport::pair();
    replica.attach(Box::new(theirs));
    let applied = replica.staleness().applied_lsn;
    ours.send(
        &ReplMsg::Heartbeat {
            term: eng.term() + 1,
            last_lsn: applied,
        }
        .encode(),
    )
    .unwrap();
    let start = Instant::now();
    while replica.term() <= eng.term() && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(replica.term(), eng.term() + 1, "{}", replica.stats());

    // The old primary is now a zombie: its next frames carry a stale
    // term and must be rejected...
    let fenced_before = replica.stats().frames_fenced;
    eng.write(vec![insert(conflict_pair(9_000_000))]).unwrap();
    let start = Instant::now();
    while replica.stats().frames_fenced == fenced_before
        && start.elapsed() < Duration::from_secs(10)
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        replica.stats().frames_fenced > fenced_before,
        "{}",
        replica.stats()
    );
    assert_eq!(
        replica_answers(&replica),
        settled,
        "fenced frames must not touch replica state"
    );

    // ...and the rejection's Ack carries the higher term, so the
    // zombie learns it is fenced and stops feeding that replica.
    let start = Instant::now();
    while eng.replication_stats().feeds_fenced == 0 && start.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let ps = eng.replication_stats();
    assert!(ps.feeds_fenced >= 1, "{ps}");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// TCP transport end to end
// ---------------------------------------------------------------------

#[test]
fn tcp_replication_end_to_end() {
    let dir = tmp_dir("tcp");
    let eng = durable_engine(200, 91, &dir, 0);
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let server = eng.serve_replication(listener).unwrap();

    let transport = hippo_server::TcpTransport::connect(&server.addr().to_string()).unwrap();
    let replica = Replica::start(Box::new(transport), replica_config(91));

    eng.write(vec![insert(conflict_pair(1_000_000))]).unwrap();
    eng.write(vec![insert(clean_row(2_000_000))]).unwrap();
    wait_caught_up(&eng, &replica, Duration::from_secs(20));

    assert_eq!(replica_answers(&replica), primary_answers(&eng));
    assert_eq!(replica.staleness().lsn_lag, 0);
    server.stop();
    std::fs::remove_dir_all(&dir).unwrap();
}
