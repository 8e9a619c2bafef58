//! Integration tests for the resource-governance layer: deadlines, row
//! budgets, cooperative cancellation, strict vs. degraded mode, panic
//! isolation in the prover shard pool, and recovery after injected
//! faults in every pipeline stage.
//!
//! The deterministic fault-injection hooks (`FaultPlan`) are one-shot:
//! a plan fires at most once, so the same `Hippo` instance can be
//! re-driven after the fault to prove the engine stays usable — no
//! poisoned caches, no half-absorbed hypergraph state.

use hippo_cqa::prelude::*;
use hippo_engine::schema::ErrorKind;
use hippo_engine::{Database, Value};
use std::time::Duration;

/// A live system answers by freezing, then the one answer call.
fn answer(h: &Hippo, q: &SjudQuery) -> Result<ConsistentAnswer, hippo_engine::EngineError> {
    h.freeze()?.answer(q, &h.options)
}

/// Seeded FD workload: `t(k, v, payload)` with `k -> v` violated on
/// `conflict_rate` of the keys.
fn workload(rows: usize, seed: u64) -> (Database, Vec<DenialConstraint>) {
    let spec = FdTableSpec::new("t", rows, 0.05, seed);
    let mut db = Database::new();
    spec.populate(&mut db).unwrap();
    (db, vec![spec.fd()])
}

/// The projection-free difference query: tuples of `t` minus
/// the high-`v` slice. Keeps every base tuple a prover candidate.
fn query() -> SjudQuery {
    SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 900i64)))
}

/// Reference (ungoverned) answer rows for a workload/query pair.
fn reference_rows(rows: usize, seed: u64) -> Vec<hippo_engine::Row> {
    let (db, cons) = workload(rows, seed);
    let hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    answer(&hippo, &query()).unwrap().rows
}

/// `sub` must be a subset of the (sorted, deduped) `sup`.
fn assert_subset(sub: &[hippo_engine::Row], sup: &[hippo_engine::Row]) {
    for row in sub {
        assert!(
            sup.binary_search(row).is_ok(),
            "degraded answer {row:?} is not in the complete answer set"
        );
    }
}

// ---------------------------------------------------------------------
// Ungoverned calls: the governance layer must be invisible.
// ---------------------------------------------------------------------

#[test]
fn ungoverned_calls_report_no_budget_accounting() {
    let (db, cons) = workload(400, 11);
    let hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    let ans = answer(&hippo, &query()).unwrap();
    assert!(ans.completeness.is_complete());
    assert_eq!(ans.stats.budget_checks, 0, "no budget => no checks");
    assert_eq!(ans.stats.cancelled_shards, 0);
    assert!(!ans.stats.degraded);
    assert_eq!(ans.rows, reference_rows(400, 11));
}

// ---------------------------------------------------------------------
// Acceptance: a 1ms deadline on the 16k-row workload trips (never hangs
// or panics), in strict and degraded mode, at 1 and 4 prover threads.
// ---------------------------------------------------------------------

#[test]
fn millisecond_deadline_on_16k_workload_trips_strict() {
    // Construct ungoverned (detection at build time is not the call
    // under test), then arm the deadline for the answer call only.
    let (db, cons) = workload(16_000, 84);
    let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    for threads in [1usize, 4] {
        hippo.options = HippoOptions::full()
            .with_prover_threads(threads)
            .with_deadline(Duration::from_millis(1));
        let err = answer(&hippo, &query()).expect_err("1ms deadline over 16k rows must trip");
        assert!(
            err.is_budget(),
            "expected a Budget error at threads={threads}, got {err:?}"
        );
        match err.kind {
            ErrorKind::Budget { stage, .. } => assert!(
                ["envelope", "prover"].contains(&stage),
                "unexpected trip stage {stage}"
            ),
            ref k => panic!("expected Budget kind, got {k:?}"),
        }
    }
}

#[test]
fn millisecond_deadline_on_16k_workload_degrades_soundly() {
    let complete = reference_rows(16_000, 84);
    let (db, cons) = workload(16_000, 84);
    let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    for threads in [1usize, 4] {
        hippo.options = HippoOptions::full()
            .with_prover_threads(threads)
            .with_deadline(Duration::from_millis(1))
            .degraded();
        let ans = answer(&hippo, &query()).expect("degraded mode absorbs the trip");
        assert!(
            !ans.completeness.is_complete(),
            "1ms over 16k rows cannot complete (threads={threads})"
        );
        assert!(ans.stats.degraded);
        assert!(ans.stats.budget_checks > 0);
        assert_subset(&ans.rows, &complete);
    }
}

// ---------------------------------------------------------------------
// Row budgets and cancellation.
// ---------------------------------------------------------------------

#[test]
fn strict_row_budget_reports_stage_and_spend() {
    let (db, cons) = workload(4_000, 29);
    let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    hippo.options = HippoOptions::full().with_row_budget(64);
    let err = answer(&hippo, &query()).expect_err("64-row budget over 4k rows must trip");
    match err.kind {
        ErrorKind::Budget { spent, limit, .. } => {
            assert_eq!(limit, 64);
            assert!(spent >= limit, "spent {spent} < limit {limit}");
        }
        ref k => panic!("expected Budget kind, got {k:?}"),
    }
}

#[test]
fn cancellation_trips_and_is_resettable() {
    let (db, cons) = workload(300, 5);
    let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    let mut opts = HippoOptions::full();
    let handle = opts.cancel_handle();
    hippo.options = opts;

    handle.cancel();
    let err = answer(&hippo, &query()).expect_err("cancelled before the call even starts");
    assert!(err.is_cancelled(), "expected Cancelled, got {err:?}");

    // Un-trip the flag: the very same instance answers normally.
    handle.reset();
    let ans = answer(&hippo, &query()).unwrap();
    assert!(ans.completeness.is_complete());
    assert_eq!(ans.rows, reference_rows(300, 5));
}

#[test]
fn cancellation_in_degraded_mode_yields_truncated_answer() {
    let (db, cons) = workload(300, 5);
    let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    let mut opts = HippoOptions::full().degraded();
    let handle = opts.cancel_handle();
    hippo.options = opts;

    handle.cancel();
    let ans = answer(&hippo, &query()).unwrap();
    assert!(!ans.completeness.is_complete());
    assert!(
        ans.rows.is_empty(),
        "cancelled at envelope => nothing proved"
    );
    assert!(ans.stats.degraded);
}

// ---------------------------------------------------------------------
// Satellite 3: prover-shard panic isolation. A panic in shard 7 of 16
// surfaces as a structured WorkerPanic, the sibling shards drain, and
// the same Hippo instance answers correctly on the next call.
// ---------------------------------------------------------------------

#[test]
fn prover_shard_panic_is_isolated_and_recoverable() {
    let complete = reference_rows(600, 42);
    for threads in [1usize, 4] {
        let (db, cons) = workload(600, 42);
        let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
        // 600 candidates >> 16, so split_ranges yields all 16 prover
        // shards and shard 7 is guaranteed to exist.
        hippo.options = HippoOptions::full()
            .with_prover_threads(threads)
            .with_faults(FaultPlan::new("prover", Some(7), FaultKind::Panic));

        let err = answer(&hippo, &query()).expect_err("injected panic in shard 7 must surface");
        match err.kind {
            ErrorKind::WorkerPanic { stage, shard } => {
                assert_eq!(stage, "prover", "threads={threads}");
                assert_eq!(shard, 7, "threads={threads}");
            }
            ref k => panic!("expected WorkerPanic, got {k:?} (threads={threads})"),
        }

        // The one-shot plan is spent: the same instance — same verdict
        // cache, same snapshot — must now answer correctly.
        let ans = answer(&hippo, &query()).unwrap();
        assert!(ans.completeness.is_complete(), "threads={threads}");
        assert_eq!(ans.rows, complete, "recovery diverged at threads={threads}");
    }
}

#[test]
fn prover_shard_panic_in_degraded_mode_is_still_an_error() {
    // Degraded mode absorbs *governance* trips (budget, cancel), not
    // worker panics: a crash is not a resource decision.
    let (db, cons) = workload(600, 42);
    let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    hippo.options = HippoOptions::full().degraded().with_faults(FaultPlan::new(
        "prover",
        Some(3),
        FaultKind::Panic,
    ));
    let err = answer(&hippo, &query()).expect_err("panics are never absorbed");
    assert!(err.is_worker_panic(), "got {err:?}");
}

// ---------------------------------------------------------------------
// Satellite 2: a panic inside detection must not leave a partially
// absorbed hypergraph or stale stats behind — the instance recovers.
// ---------------------------------------------------------------------

#[test]
fn detect_panic_during_redetect_leaves_hippo_usable() {
    let (db, cons) = workload(500, 77);
    let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    let edges_before = hippo.graph().edge_count();

    // Dirty the catalog through the raw handle (forces a full rebuild),
    // then arm a wildcard detect-stage panic.
    hippo.db_mut();
    hippo.options =
        HippoOptions::full().with_faults(FaultPlan::new("detect", None, FaultKind::Panic));
    let err = hippo.redetect().expect_err("injected detect panic");
    match err.kind {
        ErrorKind::WorkerPanic { stage, .. } => assert_eq!(stage, "detect"),
        ref k => panic!("expected WorkerPanic, got {k:?}"),
    }
    // The failed rebuild must not have clobbered the old graph.
    assert_eq!(hippo.graph().edge_count(), edges_before);

    // The plan is spent; the catalog is still marked dirty, so this
    // redetect performs the full rebuild that just failed — and the
    // instance then answers exactly like a fresh one.
    hippo.redetect().expect("recovery redetect");
    let ans = answer(&hippo, &query()).unwrap();
    assert!(ans.completeness.is_complete());
    assert_eq!(ans.rows, reference_rows(500, 77));
}

/// An answer is returned iff it is certain. A live `Hippo` whose data
/// moved since the last detection would pair the old hypergraph with the
/// new rows and hand back non-certain answers, so its `freeze` — the
/// only way to an answer — must refuse — in
/// every mode, for unrecorded (`db_mut`) and recorded (`insert_tuples`)
/// changes alike — until `redetect` has run.
#[test]
fn live_answers_refuse_unreconciled_state() {
    let emp = || {
        let mut db = Database::new();
        db.execute("CREATE TABLE emp (name TEXT, salary INT)")
            .unwrap();
        db.execute("INSERT INTO emp VALUES ('ann', 100), ('bob', 300)")
            .unwrap();
        db
    };
    let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
    let q = SjudQuery::rel("emp");
    let ann = vec![Value::text("ann"), Value::Int(100)];
    let refused = |h: &Hippo| {
        let err = h.freeze().unwrap_err();
        assert!(err.to_string().contains("call redetect() first"), "{err}");
    };
    for opts in [
        HippoOptions::base(),
        HippoOptions::kg(),
        HippoOptions::full(),
    ] {
        let mut hippo = Hippo::with_options(emp(), vec![fd.clone()], opts).unwrap();
        assert_eq!(answer(&hippo, &q).unwrap().rows.len(), 2);

        // DML behind the hypergraph's back: bob now has two salaries.
        hippo
            .db_mut()
            .execute("INSERT INTO emp VALUES ('bob', 400)")
            .unwrap();
        refused(&hippo);
        hippo.redetect().unwrap();
        assert_eq!(answer(&hippo, &q).unwrap().rows, vec![ann.clone()]);

        // A recorded change refuses the same way until reconciled.
        hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(150)]])
            .unwrap();
        refused(&hippo);
        assert!(hippo.redetect().unwrap().incremental);
        assert!(answer(&hippo, &q).unwrap().rows.is_empty());
    }
}

#[test]
fn detect_stage_trips_are_strict_even_in_degraded_mode() {
    // An incomplete conflict hypergraph makes the prover unsound, so a
    // budget trip during detection can never be absorbed into a
    // degraded answer: construction itself fails, structurally.
    let (db, cons) = workload(500, 13);
    let res = Hippo::with_options(
        db,
        cons,
        HippoOptions::full().degraded().with_faults(FaultPlan::new(
            "detect",
            None,
            FaultKind::BudgetTrip,
        )),
    );
    match res {
        Ok(_) => panic!("detect-stage trip must refuse, even degraded"),
        Err(err) => assert!(err.is_budget(), "got {err:?}"),
    }
}

// ---------------------------------------------------------------------
// Injected budget trips in every answer-pipeline stage: strict mode
// errors, degraded mode returns a sound truncated subset.
// ---------------------------------------------------------------------

#[test]
fn budget_trip_in_each_stage_errors_in_strict_mode() {
    for (stage, opts) in [
        ("envelope", HippoOptions::full()),
        ("prover", HippoOptions::full()),
    ] {
        let (db, cons) = workload(400, 99);
        let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
        hippo.options = opts.with_faults(FaultPlan::new(stage, None, FaultKind::BudgetTrip));
        let err = answer(&hippo, &query()).expect_err("strict mode propagates the trip");
        assert!(err.is_budget(), "stage {stage}: got {err:?}");
    }
}

#[test]
fn budget_trip_in_each_stage_degrades_to_sound_subset() {
    let complete = reference_rows(400, 99);
    for (stage, opts) in [
        ("envelope", HippoOptions::full()),
        ("prover", HippoOptions::full()),
    ] {
        let (db, cons) = workload(400, 99);
        let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
        hippo.options =
            opts.degraded()
                .with_faults(FaultPlan::new(stage, None, FaultKind::BudgetTrip));
        let ans = answer(&hippo, &query())
            .unwrap_or_else(|e| panic!("stage {stage}: degraded mode must absorb, got {e:?}"));
        assert!(
            !ans.completeness.is_complete(),
            "stage {stage}: a forced trip cannot complete"
        );
        assert!(ans.stats.degraded, "stage {stage}");
        assert_subset(&ans.rows, &complete);
    }
}

// ---------------------------------------------------------------------
// The HIPPO_FAULT environment hook parses to the same plans the API
// builds — the CI fault-matrix leg drives injection through it.
// ---------------------------------------------------------------------

#[test]
fn hippo_fault_env_var_round_trips() {
    // All env mutation lives in this one test — the harness runs tests
    // in parallel and HIPPO_FAULT is process-global.
    // Not set (or set to whitespace) => no plan.
    std::env::remove_var("HIPPO_FAULT");
    assert!(FaultPlan::from_env().is_none());
    std::env::set_var("HIPPO_FAULT", "  ");
    assert!(FaultPlan::from_env().is_none());

    // A typo'd spec is a loud startup error, not a silently disabled
    // injection: try_from_env names the problem, from_env panics.
    std::env::set_var("HIPPO_FAULT", "prover:2:panik");
    let err = FaultPlan::try_from_env().expect_err("malformed spec must error");
    assert!(err.contains("unknown fault kind"), "{err}");
    assert!(err.contains("panik"), "{err}");
    let panicked = std::panic::catch_unwind(FaultPlan::from_env).expect_err("from_env panics");
    let msg = panicked
        .downcast_ref::<String>()
        .expect("panic carries the parse error");
    assert!(msg.contains("HIPPO_FAULT"), "{msg}");

    std::env::set_var("HIPPO_FAULT", "prover:2:panic");
    let plan = FaultPlan::from_env().expect("well-formed spec parses");
    std::env::remove_var("HIPPO_FAULT");

    let (db, cons) = workload(600, 3);
    let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    hippo.options = HippoOptions::full().with_faults(plan);
    let err = answer(&hippo, &query()).expect_err("env-sourced plan injects like the API one");
    match err.kind {
        ErrorKind::WorkerPanic { stage, shard } => {
            assert_eq!((stage, shard), ("prover", 2));
        }
        ref k => panic!("expected WorkerPanic, got {k:?}"),
    }
    // Spent plan: the instance recovers.
    assert_eq!(
        answer(&hippo, &query()).unwrap().rows,
        reference_rows(600, 3)
    );
}

// ---------------------------------------------------------------------
// Cancel race: a second thread cancels mid-call. The call must return
// `Cancelled` promptly (no deadlock, no waiting out the full run) at 1
// and 4 prover threads, and `reset` makes the same instance reusable.
// ---------------------------------------------------------------------

#[test]
fn cancel_race_from_second_thread_is_prompt_and_resettable() {
    let (db, cons) = workload(16_000, 84);
    let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    let reference = answer(&hippo, &query()).unwrap().rows;
    for threads in [1usize, 4] {
        hippo.options = HippoOptions::full().with_prover_threads(threads);
        let handle = hippo.options.cancel_handle();
        std::thread::scope(|s| {
            let canceller = s.spawn(move || {
                std::thread::sleep(Duration::from_millis(3));
                handle.cancel();
            });
            let t0 = std::time::Instant::now();
            let err = answer(&hippo, &query()).expect_err("cancelled mid-call");
            assert!(err.is_cancelled(), "threads={threads}: {err}");
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "threads={threads}: cancellation was not prompt: {:?}",
                t0.elapsed()
            );
            canceller.join().unwrap();
        });
        // The flag is sticky until reset — then the *same* instance
        // answers in full again.
        let handle = hippo.options.cancel_handle();
        handle.reset();
        assert_eq!(
            answer(&hippo, &query()).unwrap().rows,
            reference,
            "threads={threads}: instance unusable after cancel+reset"
        );
    }
}

// ---------------------------------------------------------------------
// Delay fault under concurrency: a delay injected into one prover
// shard must not stall sibling shards' budget checks — they trip on
// their own deadline instead of queueing behind the sleeping shard, so
// the call returns in O(delay), not O(delay × shards).
// ---------------------------------------------------------------------

#[test]
fn delayed_shard_does_not_stall_sibling_budget_checks() {
    let (db, cons) = workload(4_000, 29);
    let mut hippo = Hippo::with_options(db, cons, HippoOptions::full()).unwrap();
    // Wide margins so the test is timing-robust under parallel test
    // load: the deadline must be generous enough that the prover stage
    // is reached (arming the fault), yet well under the delay so the
    // sleeping shard is guaranteed to overshoot it.
    let delay = Duration::from_millis(600);
    for threads in [1usize, 4] {
        hippo.options = HippoOptions::full()
            .with_prover_threads(threads)
            .with_deadline(Duration::from_millis(250))
            .with_faults(FaultPlan::new("prover", Some(0), FaultKind::Delay(delay)));
        let t0 = std::time::Instant::now();
        let err = answer(&hippo, &query()).expect_err("deadline < injected delay must trip");
        let elapsed = t0.elapsed();
        assert!(err.is_budget(), "threads={threads}: {err}");
        assert!(
            hippo.options.governance_faults_fired(),
            "threads={threads}: the delay never fired — deadline too tight to reach the prover"
        );
        // The sleeping shard is drained (elapsed covers the delay once)
        // but siblings trip on their own checks instead of sleeping too.
        assert!(
            elapsed < delay * 4,
            "threads={threads}: siblings stalled behind the delayed shard: {elapsed:?}"
        );
    }
    // Spent plans, tripped budgets: the instance stays fully usable.
    hippo.options = HippoOptions::full();
    assert_eq!(
        answer(&hippo, &query()).unwrap().rows,
        reference_rows(4_000, 29)
    );
}
