//! Integration tests for the durability subsystem: WAL + checkpoint +
//! recovery wired through the service engine.
//!
//! The recurring shape: run writes against a durable engine, *drop it*
//! (or fail it with an injected fault first), recover a successor from
//! the same directory, and demand the successor's consistent answers
//! are **bit-identical** to a serial oracle built from scratch on the
//! data the committed writes describe.

use hippo_cqa::budget::{FaultKind, FaultPlan};
use hippo_cqa::prelude::*;
use hippo_engine::{Database, Row, Value};
use hippo_server::{DurabilityConfig, Engine, EngineConfig, WriteOp};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "hippo-dur-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Seeded FD workload `t(k, v, payload)` with `k -> v` violated on 5%
/// of keys — the same family the service-layer tests use.
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

fn recover_engine(seed: u64, dir: &Path) -> Engine {
    let (_, cons) = workload(1, seed);
    Engine::recover(
        EngineConfig::default(),
        DurabilityConfig {
            dir: dir.to_path_buf(),
            checkpoint_every_frames: 0,
        },
        cons,
        Vec::new(),
        HippoOptions::full(),
    )
    .unwrap()
}

fn query() -> SjudQuery {
    SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)))
}

fn clean_row(k: i64) -> Vec<Row> {
    vec![vec![Value::Int(k), Value::Int(5), Value::Int(0)]]
}

fn conflict_pair(key: i64) -> Vec<Row> {
    vec![
        vec![Value::Int(key), Value::Int(1), Value::Int(0)],
        vec![Value::Int(key), Value::Int(2), Value::Int(0)],
    ]
}

fn insert(rows: Vec<Row>) -> WriteOp {
    WriteOp::Insert {
        table: "t".into(),
        rows,
    }
}

/// Serial oracle: a from-scratch Hippo over `db` after applying `ops`
/// through the same recorded-write API.
fn oracle_answers(rows: usize, seed: u64, ops: &[WriteOp]) -> Vec<Row> {
    let (db, cons) = workload(rows, seed);
    let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    for op in ops {
        match op {
            WriteOp::Insert { table, rows } => {
                hippo.insert_tuples(table, rows.clone()).unwrap();
            }
            WriteOp::Delete { table, tids } => {
                hippo.delete_tuples(table, tids).unwrap();
            }
            WriteOp::Update { table, updates } => {
                hippo.update_tuples(table, updates.clone()).unwrap();
            }
        }
    }
    hippo.redetect().unwrap();
    let frozen = hippo.freeze().unwrap();
    frozen.answer(&query(), &hippo.options).unwrap().rows
}

// ---------------------------------------------------------------------
// Happy path: a restart loses nothing.
// ---------------------------------------------------------------------

#[test]
fn recovery_is_bit_identical_after_clean_shutdown() {
    let dir = tmp_dir("clean");
    let committed: Vec<WriteOp> = vec![
        insert(conflict_pair(1_000_000)),
        insert(clean_row(2_000_000)),
    ];
    {
        let eng = durable_engine(400, 11, &dir, 0);
        let r1 = eng.write(vec![committed[0].clone()]).unwrap();
        assert_eq!(r1.epoch, 1);
        // Exercise delete + update through the log too.
        let tids = eng
            .write(vec![insert(clean_row(3_000_000))])
            .unwrap()
            .inserted;
        eng.write(vec![
            WriteOp::Update {
                table: "t".into(),
                updates: vec![(
                    tids[0],
                    vec![Value::Int(3_000_000), Value::Int(9), Value::Int(1)],
                )],
            },
            WriteOp::Delete {
                table: "t".into(),
                tids,
            },
        ])
        .unwrap();
        eng.write(vec![committed[1].clone()]).unwrap();
        assert!(eng.stats().durable);
        assert_eq!(eng.stats().wal_frames, 4);
    }
    let eng2 = recover_engine(11, &dir);
    let report = eng2.recovery_report().unwrap();
    assert_eq!(report.frames_replayed, 4);
    assert!(!report.torn_tail_truncated);
    let mut s = eng2.session();
    assert_eq!(s.epoch().id(), 1, "recovery publishes epoch 1");
    let got = s.answer(&query()).unwrap().rows;
    // The update+delete pair cancels out: the oracle only needs the
    // two surviving inserts (ids differ, answers — row sets — do not).
    assert_eq!(got, oracle_answers(400, 11, &committed));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Fault matrix: every durability fault point, every kind. The writer
// survives in-process (rebuilt from the published epoch), the failed
// write is never recovered, later writes are.
// ---------------------------------------------------------------------

#[test]
fn wal_fault_matrix_loses_only_the_faulted_write() {
    for (stage, kind) in [
        ("wal:append", FaultKind::Panic),
        ("wal:append", FaultKind::BudgetTrip),
        ("wal:append", FaultKind::ShortWrite),
        ("wal:fsync", FaultKind::Panic),
        ("wal:fsync", FaultKind::BudgetTrip),
    ] {
        let dir = tmp_dir(&format!("matrix-{}-{kind:?}", stage.replace(':', "-")));
        let eng = durable_engine(300, 23, &dir, 0);
        eng.write(vec![insert(conflict_pair(1_000_000))]).unwrap();

        eng.set_writer_options(HippoOptions::full().with_faults(FaultPlan::new(
            stage,
            Some(0),
            kind,
        )));
        let err = eng.write(vec![insert(clean_row(2_000_000))]).unwrap_err();
        assert!(
            err.is_worker_panic() || err.is_budget() || err.message.contains("short write"),
            "{stage}/{kind:?}: {err}"
        );
        assert_eq!(eng.stats().writer_recoveries, 1, "{stage}/{kind:?}");
        assert_eq!(
            eng.current_epoch().id(),
            1,
            "{stage}/{kind:?}: not published"
        );

        // The rebuilt writer still works; this also truncates any
        // unsynced bytes the fault left behind.
        eng.write(vec![insert(clean_row(3_000_000))]).unwrap();
        drop(eng);

        let eng2 = recover_engine(23, &dir);
        let got = eng2.session().answer(&query()).unwrap().rows;
        let expect = oracle_answers(
            300,
            23,
            &[
                insert(conflict_pair(1_000_000)),
                insert(clean_row(3_000_000)),
            ],
        );
        assert_eq!(got, expect, "{stage}/{kind:?}: faulted write leaked in");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn checkpoint_fault_matrix_never_loses_the_log() {
    for (stage, kind) in [
        ("checkpoint:write", FaultKind::Panic),
        ("checkpoint:write", FaultKind::BudgetTrip),
        ("checkpoint:write", FaultKind::ShortWrite),
        ("checkpoint:swap", FaultKind::Panic),
        ("checkpoint:swap", FaultKind::BudgetTrip),
    ] {
        let dir = tmp_dir(&format!("ckpt-{}-{kind:?}", stage.replace(':', "-")));
        let eng = durable_engine(300, 29, &dir, 0);
        eng.write(vec![insert(conflict_pair(1_000_000))]).unwrap();

        eng.set_writer_options(HippoOptions::full().with_faults(FaultPlan::new(
            stage,
            Some(0),
            kind,
        )));
        eng.checkpoint().unwrap_err();
        assert_eq!(eng.stats().checkpoint_failures, 1, "{stage}/{kind:?}");
        assert_eq!(eng.stats().checkpoints, 0);

        // A failed checkpoint is non-fatal: the birth checkpoint and
        // the full log still reconstruct everything.
        eng.write(vec![insert(clean_row(3_000_000))]).unwrap();
        drop(eng);
        let eng2 = recover_engine(29, &dir);
        assert_eq!(eng2.recovery_report().unwrap().frames_replayed, 2);
        let got = eng2.session().answer(&query()).unwrap().rows;
        let expect = oracle_answers(
            300,
            29,
            &[
                insert(conflict_pair(1_000_000)),
                insert(clean_row(3_000_000)),
            ],
        );
        assert_eq!(got, expect, "{stage}/{kind:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn checkpoint_truncates_log_and_recovery_uses_it() {
    let dir = tmp_dir("ckpt-truncate");
    {
        // Cadence 2: the second commit frame triggers a checkpoint.
        let eng = durable_engine(300, 31, &dir, 2);
        eng.write(vec![insert(conflict_pair(1_000_000))]).unwrap();
        eng.write(vec![insert(clean_row(2_000_000))]).unwrap();
        assert_eq!(eng.stats().checkpoints, 1);
        eng.write(vec![insert(clean_row(3_000_000))]).unwrap();
    }
    let eng2 = recover_engine(31, &dir);
    let report = eng2.recovery_report().unwrap();
    assert_eq!(
        report.checkpoint_lsn, 2,
        "checkpoint absorbed the first two frames"
    );
    assert_eq!(report.frames_replayed, 1, "only the post-checkpoint suffix");
    let got = eng2.session().answer(&query()).unwrap().rows;
    let expect = oracle_answers(
        300,
        31,
        &[
            insert(conflict_pair(1_000_000)),
            insert(clean_row(2_000_000)),
            insert(clean_row(3_000_000)),
        ],
    );
    assert_eq!(got, expect);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Ambiguous commits: a complete, fsync-interrupted frame on disk is
// resolved FORWARD by recovery (the client never got a receipt, but
// the data is provably intact — standard WAL semantics).
// ---------------------------------------------------------------------

#[test]
fn fsync_panic_with_immediate_death_resolves_forward() {
    let dir = tmp_dir("ambiguous");
    {
        let eng = durable_engine(300, 37, &dir, 0);
        eng.write(vec![insert(conflict_pair(1_000_000))]).unwrap();
        eng.set_writer_options(HippoOptions::full().with_faults(FaultPlan::new(
            "wal:fsync",
            Some(0),
            FaultKind::Panic,
        )));
        eng.write(vec![insert(clean_row(2_000_000))]).unwrap_err();
        // Engine dropped right here: the frame's bytes were written
        // (CRC-complete) but never acknowledged.
    }
    let eng2 = recover_engine(37, &dir);
    let got = eng2.session().answer(&query()).unwrap().rows;
    let expect = oracle_answers(
        300,
        37,
        &[
            insert(conflict_pair(1_000_000)),
            insert(clean_row(2_000_000)),
        ],
    );
    assert_eq!(got, expect, "complete on-disk frame replays forward");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Failed writes never ride along (the writer is rebuilt), and recovery
// agrees; `service.rs` pins the same on a non-durable engine.
// ---------------------------------------------------------------------

#[test]
fn durable_failed_writes_never_ride_along() {
    let dir = tmp_dir("noride");
    let eng = durable_engine(300, 41, &dir, 0);
    let before = eng.session().answer(&query()).unwrap().rows;

    // First op lands, second op fails → partial transaction. A durable
    // writer must roll the first op back out of the live state.
    let err = eng
        .write(vec![
            insert(clean_row(5_000_000)),
            WriteOp::Insert {
                table: "no_such_table".into(),
                rows: clean_row(1),
            },
        ])
        .unwrap_err();
    assert!(err.message.contains("no_such_table"), "{err}");

    assert_eq!(
        eng.stats().writer_recoveries,
        1,
        "partial apply forced a rebuild from the published epoch"
    );
    let receipt = eng.write(vec![insert(clean_row(6_000_000))]).unwrap();
    assert_eq!(receipt.epoch, 1, "the failed write consumed no epoch");
    let after = eng.session().answer(&query()).unwrap().rows;
    assert_eq!(
        after.len(),
        before.len() + 1,
        "only the successful write's tuple appears — no ride-along"
    );
    drop(eng);
    let eng2 = recover_engine(41, &dir);
    let got = eng2.session().answer(&query()).unwrap().rows;
    assert_eq!(got, after, "recovery agrees with the live engine");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Locking: double-open refused with a structured error; pinned
// sessions on the dead engine keep answering while a successor
// recovers from the same directory.
// ---------------------------------------------------------------------

#[test]
fn double_open_is_refused_with_structured_error() {
    let dir = tmp_dir("lock");
    let eng = durable_engine(200, 43, &dir, 0);
    let (db, cons) = workload(200, 43);
    let hippo = Hippo::with_options(db, cons.clone(), HippoOptions::full()).unwrap();
    let err = Engine::new_durable(
        hippo,
        EngineConfig::default(),
        DurabilityConfig::new(dir.clone()),
    )
    .err()
    .expect("second open must be refused");
    assert!(err.is_locked(), "{err}");
    let err = Engine::recover(
        EngineConfig::default(),
        DurabilityConfig::new(dir.clone()),
        cons,
        Vec::new(),
        HippoOptions::full(),
    )
    .err()
    .expect("recover on a locked dir must be refused");
    assert!(err.is_locked(), "{err}");
    drop(eng);
    // The lock dies with the engine; recovery now proceeds.
    let _eng2 = recover_engine(43, &dir);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pinned_sessions_outlive_the_engine_while_a_successor_recovers() {
    let dir = tmp_dir("pinned");
    let eng = durable_engine(300, 47, &dir, 0);
    eng.write(vec![insert(conflict_pair(1_000_000))]).unwrap();
    let mut pinned = eng.session();
    let before = pinned.answer(&query()).unwrap().rows;

    // Drop every Engine clone: the dir lock releases, but the session
    // holds the epoch alive.
    drop(eng);
    let eng2 = recover_engine(47, &dir);
    let successor = eng2.session().answer(&query()).unwrap().rows;

    // The old session still answers, bit-identically, from its pinned
    // epoch — no file-lock deadlock, no interference.
    assert_eq!(pinned.answer(&query()).unwrap().rows, before);
    assert_eq!(successor, before);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Drain: abandoned writes are counted and logged as audit frames.
// ---------------------------------------------------------------------

#[test]
fn drained_writes_are_counted_and_audited() {
    let dir = tmp_dir("drain");
    {
        let eng = durable_engine(300, 53, &dir, 0);
        eng.write(vec![insert(conflict_pair(1_000_000))]).unwrap();
        assert_eq!(eng.drain(), 0, "nothing abandoned yet");
        let err = eng.write(vec![insert(clean_row(2_000_000))]).unwrap_err();
        assert!(err.is_shutdown(), "{err}");
        // The second drain flushes the straggler into an audit frame.
        assert_eq!(eng.drain(), 1);
        assert_eq!(eng.stats().writes_abandoned, 1);
    }
    let eng2 = recover_engine(53, &dir);
    let report = eng2.recovery_report().unwrap();
    assert_eq!(
        report.abandoned_skipped, 1,
        "audit frame seen, not replayed"
    );
    let got = eng2.session().answer(&query()).unwrap().rows;
    assert_eq!(
        got,
        oracle_answers(300, 53, &[insert(conflict_pair(1_000_000))]),
        "abandoned ops never reach the data"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// Group commit.
// ---------------------------------------------------------------------

#[test]
fn write_group_shares_one_fsync_and_one_epoch() {
    let dir = tmp_dir("group");
    let committed: Vec<WriteOp> = (0..4).map(|i| insert(clean_row(4_000_000 + i))).collect();
    {
        let eng = durable_engine(300, 59, &dir, 0);
        let results = eng.write_group(committed.iter().cloned().map(|op| vec![op]).collect());
        let receipts: Vec<_> = results.unwrap().into_iter().map(Result::unwrap).collect();
        assert_eq!(receipts.len(), 4);
        assert!(
            receipts.iter().all(|r| r.epoch == receipts[0].epoch),
            "one epoch for the whole group"
        );
        let stats = eng.stats();
        assert_eq!(stats.wal_frames, 4, "one frame per transaction");
        assert_eq!(stats.wal_fsyncs, 1, "ONE fsync for the whole group");
        assert_eq!(stats.group_commits, 1);
        assert_eq!(stats.grouped_writes, 4);
        assert_eq!(stats.epochs_published, 2, "startup + one group publish");
        assert_eq!(stats.writes_applied, 4);
    }
    let eng2 = recover_engine(59, &dir);
    assert_eq!(eng2.recovery_report().unwrap().frames_replayed, 4);
    let got = eng2.session().answer(&query()).unwrap().rows;
    assert_eq!(got, oracle_answers(300, 59, &committed));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_transaction_fails_alone_in_its_group() {
    let dir = tmp_dir("group-bad");
    {
        let eng = durable_engine(300, 61, &dir, 0);
        let results = eng
            .write_group(vec![
                vec![insert(clean_row(4_000_000))],
                vec![WriteOp::Insert {
                    table: "no_such_table".into(),
                    rows: clean_row(1),
                }],
                vec![insert(clean_row(4_000_001))],
            ])
            .unwrap();
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        assert_eq!(
            results[0].as_ref().unwrap().epoch,
            results[2].as_ref().unwrap().epoch,
            "survivors commit together"
        );
        assert_eq!(eng.stats().writer_recoveries, 1);
    }
    let eng2 = recover_engine(61, &dir);
    let got = eng2.session().answer(&query()).unwrap().rows;
    let expect = oracle_answers(
        300,
        61,
        &[insert(clean_row(4_000_000)), insert(clean_row(4_000_001))],
    );
    assert_eq!(got, expect);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_writers_all_commit_and_recover() {
    let dir = tmp_dir("concurrent");
    {
        let eng = durable_engine(300, 67, &dir, 0);
        std::thread::scope(|scope| {
            for i in 0..6i64 {
                let eng = eng.clone();
                scope.spawn(move || {
                    eng.write(vec![insert(clean_row(7_000_000 + i))]).unwrap();
                });
            }
        });
        let stats = eng.stats();
        assert_eq!(stats.wal_frames, 6);
        assert!(
            stats.wal_fsyncs <= stats.wal_frames,
            "groups never need more fsyncs than frames: {stats}"
        );
    }
    let eng2 = recover_engine(67, &dir);
    let committed: Vec<WriteOp> = (0..6).map(|i| insert(clean_row(7_000_000 + i))).collect();
    let got = eng2.session().answer(&query()).unwrap().rows;
    assert_eq!(got, oracle_answers(300, 67, &committed));
    std::fs::remove_dir_all(&dir).unwrap();
}
