//! Differential property tests for index-backed membership probes.
//!
//! Base mode's per-candidate membership probe is compiled to a prepared
//! physical plan whose access path the engine's optimizer picks — an
//! `IndexLookup` when the relation carries a covering hash index, a
//! sequential scan otherwise. The optimizer must be **invisible**:
//! over random FD + general-denial workloads (indexed via primary-key
//! auto-indexes) and worker counts, answers and every `AnswerStats`
//! counter are bit-identical with index probes enabled and disabled —
//! only the `index_probes`/`scan_probes` split moves, and its total is
//! conserved. KG mode agrees on the answers throughout.

use hippo_cqa::constraint::DenialConstraint;
use hippo_cqa::pred::CmpOp;
use hippo_cqa::prelude::*;
use hippo_engine::{Column, DataType, Database, Row, TableSchema, Value};
use proptest::prelude::*;

/// `t` declares its (violated) FD key as PRIMARY KEY, so the engine
/// auto-builds a hash index on `k`; `s` stays unindexed — its probes
/// must fall back to scans even with index selection on.
fn db_with(t_rows: &[(u32, u32)], s_rows: &[(u32, u32)]) -> Database {
    let mut db = Database::new();
    for (name, pk) in [("t", &["k"] as &[&str]), ("s", &[])] {
        db.catalog_mut()
            .create_table(
                TableSchema::new(
                    name,
                    vec![
                        Column::new("k", DataType::Int),
                        Column::new("v", DataType::Int),
                    ],
                    pk,
                )
                .unwrap(),
            )
            .unwrap();
    }
    let to_rows = |rows: &[(u32, u32)]| -> Vec<Row> {
        rows.iter()
            .map(|&(k, v)| vec![Value::Int(k as i64), Value::Int(v as i64)])
            .collect()
    };
    db.insert_rows("t", to_rows(t_rows)).unwrap();
    db.insert_rows("s", to_rows(s_rows)).unwrap();
    db
}

fn constraints() -> Vec<DenialConstraint> {
    vec![
        DenialConstraint::functional_dependency("t", &[0], 1),
        DenialConstraint::exclusion("t", "s", &[(0, 0)]),
    ]
}

/// Shapes whose membership templates touch both the indexed and the
/// unindexed relation.
fn query(pick: u32) -> SjudQuery {
    match pick % 4 {
        0 => SjudQuery::rel("t"),
        1 => SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(
            1,
            CmpOp::Lt,
            2i64,
        ))),
        2 => SjudQuery::rel("t").diff(SjudQuery::rel("s")),
        _ => SjudQuery::rel("t").permute(vec![1, 0]),
    }
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..8, 0u32..4), 0..max)
}

/// Every `AnswerStats` counter that must not move when the access path
/// changes (everything except the index/scan split itself).
fn counters(s: &AnswerStats) -> Vec<usize> {
    vec![
        s.candidates,
        s.filtered_consistent,
        s.prover_calls,
        s.prover_cache_hits,
        s.prover_cache_cross_hits,
        s.shards_used,
        s.membership_queries,
        s.membership_memo_hits,
        s.answers,
        s.prover.tuples_checked,
        s.prover.disjuncts_checked,
        s.prover.edge_visits,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn index_probes_are_invisible_to_answers_and_stats(
        t_rows in arb_rows(50),
        s_rows in arb_rows(20),
        pick in 0u32..4,
        threads_pick in 0u32..2,
    ) {
        let threads = [1usize, 4][threads_pick as usize];
        let q = query(pick);
        let indexed = Hippo::with_options(
            db_with(&t_rows, &s_rows),
            constraints(),
            HippoOptions::base().with_prover_threads(threads),
        ).unwrap();
        let (ans_idx, st_idx) = indexed.consistent_answers_with_stats(&q).unwrap();

        let scanned = Hippo::with_options(
            db_with(&t_rows, &s_rows),
            constraints(),
            HippoOptions::base().without_index_probes().with_prover_threads(threads),
        ).unwrap();
        let (ans_scan, st_scan) = scanned.consistent_answers_with_stats(&q).unwrap();

        prop_assert_eq!(&ans_idx, &ans_scan, "optimizer changed answers at threads={}", threads);
        prop_assert_eq!(counters(&st_idx), counters(&st_scan),
            "optimizer changed counters at threads={}", threads);
        // The access-path split is the only thing that moves, and its
        // total is conserved: every executed probe is exactly one of
        // the two kinds.
        prop_assert_eq!(st_idx.index_probes + st_idx.scan_probes, st_idx.membership_queries);
        prop_assert_eq!(st_scan.index_probes, 0, "disabled optimizer still indexed");
        prop_assert_eq!(st_scan.scan_probes, st_scan.membership_queries);

        // KG mode issues no probes at all and agrees on the answers.
        let kg = Hippo::with_options(
            db_with(&t_rows, &s_rows),
            constraints(),
            HippoOptions::kg().with_prover_threads(threads),
        ).unwrap();
        let (ans_kg, st_kg) = kg.consistent_answers_with_stats(&q).unwrap();
        prop_assert_eq!(ans_kg, ans_idx, "base and KG disagree");
        prop_assert_eq!((st_kg.index_probes, st_kg.scan_probes), (0, 0));
    }

    #[test]
    fn probes_on_indexed_relations_use_the_index(
        t_rows in arb_rows(50),
        pick in 0u32..2,
    ) {
        // Queries over `t` only: every literal targets the indexed
        // relation, so with index probes on, *no* executed probe scans.
        let q = query(pick); // picks 0/1 stay within t
        let hippo = Hippo::with_options(
            db_with(&t_rows, &[]),
            vec![DenialConstraint::functional_dependency("t", &[0], 1)],
            HippoOptions::base(),
        ).unwrap();
        let (_, st) = hippo.consistent_answers_with_stats(&q).unwrap();
        prop_assert_eq!(st.scan_probes, 0, "indexed relation fell back to a scan: {}", st);
        prop_assert_eq!(st.index_probes, st.membership_queries);
    }
}
