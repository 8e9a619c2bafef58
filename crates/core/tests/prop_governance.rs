//! Differential property tests for the governance layer.
//!
//! 1. **Degraded soundness** — for a random workload and a random
//!    (often tiny) row budget, a degraded call returns a subset of the
//!    ungoverned answer set; if nothing tripped, it returns exactly the
//!    complete set marked `Complete`.
//! 2. **Generous budgets are invisible** — a budget far above what the
//!    call needs yields bit-identical answer rows *and* pipeline
//!    counters; only the new `budget_checks` accounting differs from an
//!    ungoverned run.
//! 3. **Thread counts stay invisible under governance faults** — a
//!    `BudgetTrip` fault at a pinned shard degrades to the same kind of
//!    sound answer at every worker count.

use hippo_cqa::constraint::DenialConstraint;
use hippo_cqa::prelude::*;
use hippo_engine::{Column, DataType, Database, Row, TableSchema, Value};
use hippo_testkit::answer;
use proptest::prelude::*;

fn db_with(t_rows: &[(u32, u32)]) -> Database {
    let mut db = Database::new();
    db.catalog_mut()
        .create_table(
            TableSchema::new(
                "t",
                vec![
                    Column::new("k", DataType::Int),
                    Column::new("v", DataType::Int),
                ],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
    let rows: Vec<Row> = t_rows
        .iter()
        .map(|&(k, v)| vec![Value::Int(k as i64), Value::Int(v as i64)])
        .collect();
    db.insert_rows("t", rows).unwrap();
    db
}

fn fd() -> Vec<DenialConstraint> {
    vec![DenialConstraint::functional_dependency("t", &[0], 1)]
}

fn query(pick: u32) -> SjudQuery {
    match pick % 3 {
        0 => SjudQuery::rel("t"),
        1 => SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(
            1,
            CmpOp::Lt,
            2i64,
        ))),
        _ => SjudQuery::rel("t").permute(vec![1, 0]),
    }
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..10, 0u32..4), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn degraded_answers_are_sound_subsets(
        t_rows in arb_rows(60),
        budget in 1u64..80,
        pick in 0u32..3,
        threads in 1usize..5,
    ) {
        let q = query(pick);
        let complete = answer(
            &Hippo::with_options(db_with(&t_rows), fd(), HippoOptions::full()).unwrap(),
            &q,
        )
        .unwrap()
        .rows;

        let hippo = Hippo::with_options(
            db_with(&t_rows),
            fd(),
            HippoOptions::full()
                .with_prover_threads(threads)
                .with_row_budget(budget)
                .degraded(),
        ).unwrap();
        let ans = answer(&hippo, &q).unwrap();

        for row in &ans.rows {
            prop_assert!(
                complete.binary_search(row).is_ok(),
                "unsound degraded row {:?} (budget={})", row, budget
            );
        }
        if ans.completeness.is_complete() {
            prop_assert_eq!(&ans.rows, &complete, "complete claim must mean complete");
        }
    }

    #[test]
    fn generous_budget_is_invisible(
        t_rows in arb_rows(60),
        pick in 0u32..3,
        threads in 1usize..5,
    ) {
        let q = query(pick);
        let plain = Hippo::with_options(
            db_with(&t_rows),
            fd(),
            HippoOptions::full().with_prover_threads(threads),
        ).unwrap();
        let ConsistentAnswer { rows: rows_plain, stats: st_plain, .. } = answer(&plain, &q).unwrap();

        let governed = Hippo::with_options(
            db_with(&t_rows),
            fd(),
            HippoOptions::full()
                .with_prover_threads(threads)
                .with_row_budget(u64::MAX)
                .with_deadline(std::time::Duration::from_secs(3600)),
        ).unwrap();
        let ans = answer(&governed, &q).unwrap();

        prop_assert!(ans.completeness.is_complete());
        prop_assert_eq!(&ans.rows, &rows_plain, "generous budget changed the answers");
        prop_assert_eq!(ans.stats.candidates, st_plain.candidates);
        prop_assert_eq!(ans.stats.prover_calls, st_plain.prover_calls);
        prop_assert_eq!(ans.stats.prover_cache_hits, st_plain.prover_cache_hits);
        prop_assert_eq!(ans.stats.filtered_consistent, st_plain.filtered_consistent);
        prop_assert_eq!(ans.stats.cancelled_shards, 0);
        prop_assert!(!ans.stats.degraded);
        prop_assert_eq!(st_plain.budget_checks, 0, "ungoverned run must not count checks");
    }

    #[test]
    fn pinned_shard_trip_degrades_soundly_at_any_thread_count(
        t_rows in arb_rows(60),
        shard in 0usize..16,
        threads in 1usize..5,
    ) {
        let q = query(0);
        let complete = answer(
            &Hippo::with_options(db_with(&t_rows), fd(), HippoOptions::full()).unwrap(),
            &q,
        )
        .unwrap()
        .rows;

        let hippo = Hippo::with_options(
            db_with(&t_rows),
            fd(),
            HippoOptions::full()
                .with_prover_threads(threads)
                .degraded()
                .with_faults(FaultPlan::new("prover", Some(shard), FaultKind::BudgetTrip)),
        ).unwrap();
        let ans = answer(&hippo, &q).unwrap();
        for row in &ans.rows {
            prop_assert!(
                complete.binary_search(row).is_ok(),
                "unsound row {:?} after trip in shard {}", row, shard
            );
        }
        // The fault is pinned to a shard that may not exist for tiny
        // candidate sets; when it never fires the answer is complete.
        if !hippo.options.governance_faults_fired() {
            prop_assert_eq!(&ans.rows, &complete);
            prop_assert!(ans.completeness.is_complete());
        }
    }
}
