//! Integration tests for the concurrent CQA service layer: epoch
//! pinning, publish-only-on-success under injected writer faults,
//! admission shedding + retry, deadline propagation through the queue
//! into the answer pipeline, graceful drain, and one seeded run of
//! concurrent mixed traffic with all of those faults armed at once.

use hippo_cqa::budget::{FaultKind, FaultPlan};
use hippo_cqa::prelude::*;
use hippo_engine::{Database, Row, Value};
use hippo_server::{Engine, EngineConfig, RetryPolicy, WriteOp};
use std::time::{Duration, Instant};

/// Seeded FD workload `t(k, v, payload)` with `k -> v` violated on 5%
/// of keys — the same family the core governance tests use.
fn workload(rows: usize, seed: u64) -> (Database, Vec<DenialConstraint>) {
    let spec = FdTableSpec::new("t", rows, 0.05, seed);
    let mut db = Database::new();
    spec.populate(&mut db).unwrap();
    (db, vec![spec.fd()])
}

fn engine(rows: usize, seed: u64, config: EngineConfig) -> Engine {
    let (db, cons) = workload(rows, seed);
    let hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    Engine::new(hippo, config).unwrap()
}

/// Projection-free difference query keeping every base tuple a prover
/// candidate.
fn query() -> SjudQuery {
    SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)))
}

/// A fresh `k -> v` violation pair (two rows, same key, different v)
/// with keys far outside the generated workload's range.
fn conflict_pair(key: i64) -> Vec<Row> {
    vec![
        vec![Value::Int(key), Value::Int(1), Value::Int(0)],
        vec![Value::Int(key), Value::Int(2), Value::Int(0)],
    ]
}

// ---------------------------------------------------------------------
// Epoch pinning: a session keeps its answers across later publishes.
// ---------------------------------------------------------------------

#[test]
fn sessions_pin_epochs_across_writes() {
    let eng = engine(600, 3, EngineConfig::default());
    let mut pinned = eng.session();
    assert_eq!(pinned.epoch().id(), 0);
    let before = pinned.answer(&query()).unwrap().rows;

    let receipt = eng
        .write(vec![WriteOp::Insert {
            table: "t".into(),
            rows: conflict_pair(1_000_000),
        }])
        .unwrap();
    assert_eq!(receipt.epoch, 1);
    assert_eq!(receipt.inserted.len(), 2);

    // The pinned session still answers from epoch 0, bit-identically.
    assert_eq!(pinned.answer(&query()).unwrap().rows, before);
    assert_eq!(pinned.stats().pinned_epoch, 0);

    // A refreshed session sees epoch 1, whose conflict hypergraph has
    // absorbed the new violation: neither fresh tuple is consistent,
    // so the answer set is unchanged — but a *clean* insert is.
    pinned.refresh();
    assert_eq!(pinned.epoch().id(), 1);
    let eng2 = eng.clone();
    let receipt = eng2
        .write(vec![WriteOp::Insert {
            table: "t".into(),
            rows: vec![vec![Value::Int(2_000_000), Value::Int(5), Value::Int(0)]],
        }])
        .unwrap();
    assert_eq!(receipt.epoch, 2);
    let mut fresh = eng.session();
    let after = fresh.answer(&query()).unwrap().rows;
    assert_eq!(after.len(), before.len() + 1, "clean tuple is an answer");
}

// ---------------------------------------------------------------------
// Serial-oracle equivalence: an epoch's answers equal a from-scratch
// Hippo built on that epoch's own catalog.
// ---------------------------------------------------------------------

#[test]
fn epoch_answers_match_a_from_scratch_oracle() {
    let eng = engine(500, 17, EngineConfig::default());
    let (_, cons) = workload(1, 17);
    for round in 0..3u64 {
        eng.write(vec![WriteOp::Insert {
            table: "t".into(),
            rows: conflict_pair(3_000_000 + round as i64),
        }])
        .unwrap();
        let mut session = eng.session();
        let got = session.answer(&query()).unwrap().rows;
        let oracle_db = Database::from_catalog(session.epoch().frozen().catalog().clone());
        let oracle = Hippo::with_options(
            oracle_db,
            cons.clone(),
            HippoOptions::full().with_prover_threads(1),
        )
        .unwrap();
        let frozen = oracle.freeze().unwrap();
        assert_eq!(
            got,
            frozen.answer(&query(), &oracle.options).unwrap().rows,
            "epoch {} diverged from its serial oracle",
            session.epoch().id()
        );
    }
}

// ---------------------------------------------------------------------
// Robustness headline: a panicking or budget-tripped write never
// replaces the published epoch.
// ---------------------------------------------------------------------

#[test]
fn writer_panic_never_publishes_and_recovers() {
    let eng = engine(400, 7, EngineConfig::default());
    let mut session = eng.session();
    let before = session.answer(&query()).unwrap().rows;

    eng.set_writer_options(HippoOptions::full().with_faults(FaultPlan::new(
        "detect",
        Some(0),
        FaultKind::Panic,
    )));
    let err = eng
        .write(vec![WriteOp::Insert {
            table: "t".into(),
            rows: vec![vec![Value::Int(4_000_000), Value::Int(5), Value::Int(0)]],
        }])
        .unwrap_err();
    assert!(err.is_worker_panic(), "{err}");

    // Nothing was published: readers still see epoch 0, old and new
    // sessions alike, and the recovery is counted.
    assert_eq!(eng.current_epoch().id(), 0);
    assert_eq!(session.answer(&query()).unwrap().rows, before);
    let stats = eng.stats();
    assert_eq!(stats.writer_recoveries, 1);
    assert_eq!(stats.epochs_published, 1);

    // The writer stays usable, rebuilt from the published epoch: the
    // next successful write publishes its own tuple only — the one the
    // failed transaction had already applied never rides along.
    eng.set_writer_options(HippoOptions::full());
    let receipt = eng
        .write(vec![WriteOp::Insert {
            table: "t".into(),
            rows: vec![vec![Value::Int(4_000_001), Value::Int(6), Value::Int(0)]],
        }])
        .unwrap();
    assert_eq!(receipt.epoch, 1);
    session.refresh();
    let after = session.answer(&query()).unwrap().rows;
    assert_eq!(
        after.len(),
        before.len() + 1,
        "only the successful write's clean tuple is an answer"
    );
}

#[test]
fn writer_governance_never_reaches_reader_sessions() {
    let eng = engine(400, 23, EngineConfig::default());
    let mut writer_opts = HippoOptions::full()
        .with_faults(FaultPlan::new("prover", Some(0), FaultKind::Panic))
        .with_row_budget(1 << 40);
    let writer_cancel = writer_opts.cancel_handle();
    eng.set_writer_options(writer_opts);
    // The writer never reaches the prover, so its fault stays armed, and
    // the freeze copies the writer's options into the published epoch.
    eng.write(vec![WriteOp::Insert {
        table: "t".into(),
        rows: conflict_pair(9_000_000),
    }])
    .unwrap();
    writer_cancel.cancel();
    // A reader takes only the answer-mode switches: no fault plan, no
    // row budget, no cancel handle of the writer's.
    let ans = eng.session().answer(&query()).unwrap();
    assert!(ans.completeness.is_complete());
    assert_eq!(ans.stats.budget_checks, 0, "reader is ungoverned");
}

#[test]
fn budget_tripped_write_never_publishes_and_recovers() {
    let eng = engine(400, 9, EngineConfig::default());
    eng.set_writer_options(HippoOptions::full().with_faults(FaultPlan::new(
        "detect",
        None,
        FaultKind::BudgetTrip,
    )));
    let err = eng
        .write(vec![WriteOp::Insert {
            table: "t".into(),
            rows: conflict_pair(5_000_000),
        }])
        .unwrap_err();
    assert!(err.is_budget(), "{err}");
    assert_eq!(eng.current_epoch().id(), 0);
    assert_eq!(eng.stats().writer_recoveries, 1);

    eng.set_writer_options(HippoOptions::full());
    assert_eq!(eng.write(vec![]).unwrap().epoch, 1);
    assert_eq!(eng.current_epoch().writes_applied(), 1);
}

// ---------------------------------------------------------------------
// Admission: shedding under load, and retry riding the hint.
// ---------------------------------------------------------------------

#[test]
fn overload_sheds_immediately_and_retry_recovers() {
    let eng = engine(
        300,
        21,
        EngineConfig {
            max_active: 1,
            max_queue: 0,
            retry_after: Duration::from_millis(2),
            default_deadline: None,
        },
    );

    // Occupy the only slot with a write whose redetect dawdles.
    eng.set_writer_options(HippoOptions::full().with_faults(FaultPlan::new(
        "detect",
        None,
        FaultKind::Delay(Duration::from_millis(150)),
    )));
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            eng.write(vec![WriteOp::Insert {
                table: "t".into(),
                rows: vec![vec![Value::Int(6_000_000), Value::Int(5), Value::Int(0)]],
            }])
        });
        std::thread::sleep(Duration::from_millis(40));

        // Queue capacity is zero: the reader is shed, not parked.
        let mut session = eng.session();
        let t0 = Instant::now();
        let err = session.answer(&query()).unwrap_err();
        assert!(err.is_overloaded(), "{err}");
        assert!(err.is_retryable());
        assert_eq!(err.retry_after(), Some(Duration::from_millis(2)));
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "shed is immediate"
        );

        // A retrying client rides the backoff past the slow write.
        let policy = RetryPolicy {
            max_attempts: 30,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(20),
            seed: 42,
        };
        let answer = policy.run(|_| session.answer(&query())).unwrap();
        assert!(!answer.rows.is_empty());
        writer.join().unwrap().unwrap();
    });
    let stats = eng.stats();
    assert!(stats.requests_shed >= 1, "{stats}");
    assert_eq!(stats.active, 0);
}

// ---------------------------------------------------------------------
// Deadlines: the request's budget covers queue wait plus execution.
// ---------------------------------------------------------------------

#[test]
fn session_deadline_propagates_into_the_pipeline() {
    let eng = engine(16_000, 84, EngineConfig::default());
    let mut session = eng.session();
    session.options_mut().governance.deadline = Some(Duration::from_millis(1));
    let err = session.answer(&query()).unwrap_err();
    assert!(err.is_budget(), "{err}");
    session.options_mut().governance.deadline = None;
    assert!(!session.answer(&query()).unwrap().rows.is_empty());
    assert_eq!(session.stats().requests, 2);
}

#[test]
fn the_session_deadline_lives_in_its_options() {
    let eng = engine(
        300,
        19,
        EngineConfig {
            default_deadline: Some(Duration::from_secs(60)),
            ..EngineConfig::default()
        },
    );
    let mut session = eng.session();
    assert_eq!(
        session.options_mut().governance.deadline,
        Some(Duration::from_secs(60)),
        "seeded from EngineConfig::default_deadline"
    );
    assert!(session.answer(&query()).unwrap().completeness.is_complete());
    // A deadline set through the options is the request's deadline: one
    // nanosecond cannot be met, so the request trips instead of running
    // ungoverned.
    session.options_mut().governance.deadline = Some(Duration::from_nanos(1));
    let err = session.answer(&query()).unwrap_err();
    assert!(err.is_budget(), "{err}");
    session.options_mut().governance.deadline = None;
    assert!(session.answer(&query()).unwrap().completeness.is_complete());
}

#[test]
fn queue_wait_is_charged_against_the_deadline() {
    let eng = engine(
        300,
        31,
        EngineConfig {
            max_active: 1,
            max_queue: 4,
            retry_after: Duration::from_millis(1),
            default_deadline: None,
        },
    );
    eng.set_writer_options(HippoOptions::full().with_faults(FaultPlan::new(
        "detect",
        None,
        FaultKind::Delay(Duration::from_millis(200)),
    )));
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            eng.write(vec![WriteOp::Insert {
                table: "t".into(),
                rows: vec![vec![Value::Int(8_000_000), Value::Int(5), Value::Int(0)]],
            }])
        });
        std::thread::sleep(Duration::from_millis(40));
        let mut session = eng.session();
        session.options_mut().governance.deadline = Some(Duration::from_millis(30));
        let t0 = Instant::now();
        let err = session.answer(&query()).unwrap_err();
        assert!(err.is_budget(), "{err}");
        assert!(
            format!("{err}").contains("admission"),
            "tripped while queued: {err}"
        );
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(25), "{waited:?}");
        assert!(
            waited < Duration::from_millis(150),
            "gave up at the deadline"
        );
        writer.join().unwrap().unwrap();
    });
}

// ---------------------------------------------------------------------
// Plain SQL reads ride the same epoch + admission + deadline path.
// ---------------------------------------------------------------------

#[test]
fn plain_queries_run_on_the_pinned_epoch() {
    let eng = engine(200, 5, EngineConfig::default());
    let mut session = eng.session();
    let n0 = session.query("SELECT * FROM t").unwrap().rows.len();
    eng.write(vec![WriteOp::Insert {
        table: "t".into(),
        rows: conflict_pair(7_000_000),
    }])
    .unwrap();
    assert_eq!(
        session.query("SELECT * FROM t").unwrap().rows.len(),
        n0,
        "pinned epoch is immutable"
    );
    session.refresh();
    assert_eq!(session.query("SELECT * FROM t").unwrap().rows.len(), n0 + 2);
}

// ---------------------------------------------------------------------
// Drain: structured Shutdown everywhere, nothing half-done.
// ---------------------------------------------------------------------

#[test]
fn drain_rejects_reads_and_writes_with_shutdown() {
    let eng = engine(200, 13, EngineConfig::default());
    let mut session = eng.session();
    eng.drain();
    assert!(eng.is_draining());
    let err = session.answer(&query()).unwrap_err();
    assert!(err.is_shutdown(), "{err}");
    assert!(!err.is_retryable(), "shutdown is terminal for this server");
    assert!(eng.write(vec![]).unwrap_err().is_shutdown());
    assert!(eng.stats().draining);
    // A pinned epoch outlives the drain: data already handed out stays
    // readable through the Arc even though the gate is closed.
    assert_eq!(session.epoch().id(), 0);
}

// ---------------------------------------------------------------------
// Cancellation: a second thread cancels an in-flight session call.
// ---------------------------------------------------------------------

#[test]
fn cancel_from_another_thread_is_structured_and_resettable() {
    let eng = engine(16_000, 84, EngineConfig::default());
    let mut session = eng.session();
    let handle = session.cancel_handle();
    std::thread::scope(|s| {
        let canceller = s.spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            handle.cancel();
        });
        let err = session.answer(&query()).unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        assert!(err.is_retryable());
        canceller.join().unwrap();
    });
    // Cancellation is sticky until reset; after reset the same session
    // answers normally.
    let handle = session.cancel_handle();
    handle.reset();
    assert!(!session.answer(&query()).unwrap().rows.is_empty());
}

// ---------------------------------------------------------------------
// Chaos: concurrent mixed traffic with faults armed, checked per pinned
// epoch against a serial oracle.
// ---------------------------------------------------------------------

#[test]
fn concurrent_traffic_under_faults_matches_the_serial_oracle_per_epoch() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::{Arc, Mutex};

    const CLIENTS: u64 = 4;
    const ITERS: usize = 24;
    let eng = engine(1_200, 71, EngineConfig::default());
    let q = query();
    let next_key = AtomicI64::new(10_000_000);
    // Per epoch: the first clean CQA answer any reader saw on it (later
    // ones must agree bit for bit) and the row count plain reads saw.
    type Samples = Mutex<HashMap<u64, (Arc<hippo_server::Epoch>, Vec<Row>)>>;
    let cqa_samples: Samples = Mutex::new(HashMap::new());
    let read_counts: Mutex<HashMap<u64, usize>> = Mutex::new(HashMap::new());
    // Keys of the writes that returned `Ok`. The armed `detect` panic is
    // one-shot and engine-wide, so it may land on any client's write,
    // not only the saboteur's.
    let committed: Mutex<Vec<i64>> = Mutex::new(Vec::new());
    let write = |pair: bool| {
        let key = next_key.fetch_add(1, Ordering::Relaxed);
        let rows = if pair {
            conflict_pair(key)
        } else {
            vec![vec![Value::Int(key), Value::Int(5), Value::Int(0)]]
        };
        eng.write(vec![WriteOp::Insert {
            table: "t".into(),
            rows,
        }])
        .map(|_| committed.lock().unwrap().push(key))
    };

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (eng, q, write) = (&eng, &q, &write);
            let (cqa_samples, read_counts) = (&cqa_samples, &read_counts);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xE13 + c);
                let mut session = eng.session();
                for k in 0..ITERS {
                    // Re-pin every few requests so new epochs get read.
                    if k % 4 == 0 {
                        session.refresh();
                    }
                    // Client 0 is the saboteur: each arm is a fresh
                    // one-shot fault injected into the live traffic.
                    let clean = c != 0
                        || match k % 8 {
                            2 => {
                                // Writer panic mid-redetect.
                                eng.set_writer_options(HippoOptions::full().with_faults(
                                    FaultPlan::new("detect", Some(0), FaultKind::Panic),
                                ));
                                let r = write(false);
                                assert!(
                                    r.as_ref().map_or_else(|e| e.is_worker_panic(), |()| true),
                                    "sabotaged write must fail structurally: {r:?}"
                                );
                                eng.set_writer_options(HippoOptions::full());
                                continue;
                            }
                            3 => {
                                session.options_mut().governance.deadline =
                                    Some(Duration::from_millis(1));
                                false
                            }
                            5 => {
                                // Prover-shard panic inside a CQA read.
                                *session.options_mut() = HippoOptions::full().with_faults(
                                    FaultPlan::new("prover", Some(0), FaultKind::Panic),
                                );
                                false
                            }
                            7 => {
                                // A delayed shard racing a short deadline.
                                *session.options_mut() = HippoOptions::full()
                                    .with_faults(FaultPlan::new(
                                        "prover",
                                        None,
                                        FaultKind::Delay(Duration::from_millis(30)),
                                    ))
                                    .with_deadline(Duration::from_millis(10));
                                false
                            }
                            _ => true,
                        };
                    let die = rng.gen_range(0u32..100);
                    let outcome = if die < 45 {
                        // Plain read on the pinned epoch.
                        session.query("SELECT * FROM t").map(|r| {
                            if clean {
                                let epoch = session.epoch().id();
                                let mut counts = read_counts.lock().unwrap();
                                let n = *counts.entry(epoch).or_insert(r.rows.len());
                                assert_eq!(n, r.rows.len(), "epoch {epoch}: reads disagree");
                            }
                        })
                    } else if die < 55 {
                        write(die % 2 == 0)
                    } else {
                        // CQA on the pinned epoch.
                        session.answer(q).map(|a| {
                            if clean {
                                let rows = a.rows;
                                let epoch = Arc::clone(session.epoch());
                                let mut samples = cqa_samples.lock().unwrap();
                                let (_, first) = samples
                                    .entry(epoch.id())
                                    .or_insert_with(|| (epoch, rows.clone()));
                                assert_eq!(*first, rows, "readers of one epoch diverged");
                            }
                        })
                    };
                    // Structured failures only.
                    if let Err(e) = outcome {
                        assert!(
                            e.is_overloaded()
                                || e.is_cancelled()
                                || e.is_budget()
                                || e.is_worker_panic(),
                            "unstructured failure: {e}"
                        );
                    }
                    if !clean {
                        *session.options_mut() = HippoOptions::full();
                    }
                }
            });
        }
    });

    // The traffic joined (no deadlock); drain completes and closes the
    // gate behind itself.
    eng.drain();
    assert!(eng.session().answer(&q).unwrap_err().is_shutdown());

    // A failed write never publishes: the final epoch holds the keys of
    // exactly the writes that returned `Ok`, and counts as many.
    let stats = eng.stats();
    assert!(stats.writer_recoveries >= 1, "writer panic never fired");
    let mut committed = committed.into_inner().unwrap();
    committed.sort_unstable();
    assert_eq!(stats.writes_applied, committed.len() as u64, "{stats}");
    let last = eng.current_epoch();
    let mut published: Vec<i64> = last
        .frozen()
        .catalog()
        .table("t")
        .unwrap()
        .iter()
        .filter_map(|(_, r)| match r[0] {
            Value::Int(k) if k >= 10_000_000 => Some(k),
            _ => None,
        })
        .collect();
    published.sort_unstable();
    published.dedup();
    assert_eq!(published, committed);

    // Serial oracle: every sampled epoch, rebuilt from its own catalog
    // into a fresh single-threaded Hippo, reproduces what the
    // concurrent readers saw.
    let (_, cons) = workload(1, 71);
    let samples = cqa_samples.into_inner().unwrap();
    let read_counts = read_counts.into_inner().unwrap();
    assert!(samples.len() > 1, "readers saw more than the birth epoch");
    for (id, (epoch, seen)) in &samples {
        let oracle = Hippo::with_options(
            Database::from_catalog(epoch.frozen().catalog().clone()),
            cons.clone(),
            HippoOptions::full().with_prover_threads(1),
        )
        .unwrap();
        let frozen = oracle.freeze().unwrap();
        assert_eq!(
            frozen.answer(&q, &oracle.options).unwrap().rows,
            *seen,
            "epoch {id} diverged from its serial oracle"
        );
        if let Some(n) = read_counts.get(id) {
            let rows = epoch.frozen().query("SELECT * FROM t").unwrap().rows;
            assert_eq!(rows.len(), *n, "epoch {id}: plain-read row count");
        }
    }
}
