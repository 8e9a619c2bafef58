//! Differential property test for **incremental redetection under
//! restricted foreign keys** (orphan edges flipped through the key indexes).
//!
//! Random batches of recorded inserts/deletes/updates against a
//! parent/child schema (child also carries an FD, so denial edges and
//! orphan edges interleave in one graph) are reconciled with
//! [`Hippo::redetect`], which must stay on the incremental path; after
//! every batch the graph must match a forced full rebuild
//! ([`Hippo::redetect_full`]) edge-for-edge, and the consistent answers
//! must be unchanged by which path produced the graph.

use hippo_cqa::prelude::*;
use hippo_engine::{Database, Row, TupleId, Value};
use hippo_testkit::{answer, edge_set};
use proptest::prelude::*;

fn setup(parents: &[u32], children: &[(u32, u32)]) -> Hippo {
    let mut db = Database::new();
    db.execute("CREATE TABLE parent (id INT)").unwrap();
    db.execute("CREATE TABLE child (pid INT, v INT)").unwrap();
    db.insert_rows(
        "parent",
        parents
            .iter()
            .map(|&p| vec![Value::Int(p as i64)])
            .collect(),
    )
    .unwrap();
    db.insert_rows(
        "child",
        children
            .iter()
            .map(|&(p, v)| vec![Value::Int(p as i64), Value::Int(v as i64)])
            .collect(),
    )
    .unwrap();
    let fk = ForeignKey::new("child", vec![0], "parent", vec![0]);
    // FD on the child: pid → v. Denial edges and orphan edges coexist.
    let fd = DenialConstraint::functional_dependency("child", &[0], 1);
    Hippo::with_foreign_keys(db, vec![fd], vec![fk]).unwrap()
}

/// Live tuple ids of a table, in slot order.
fn live_tids(h: &Hippo, table: &str) -> Vec<TupleId> {
    h.db()
        .catalog()
        .table(table)
        .unwrap()
        .iter()
        .map(|(tid, _)| tid)
        .collect()
}

/// Apply one encoded op through the *recorded* mutation API.
fn apply(h: &mut Hippo, selector: u32, a: u32, b: u32) {
    let int_row = |xs: &[i64]| -> Row { xs.iter().map(|&x| Value::Int(x)).collect() };
    match selector % 6 {
        0 => {
            h.insert_tuples("parent", vec![int_row(&[(a % 6) as i64])])
                .unwrap();
        }
        1 => {
            let tids = live_tids(h, "parent");
            if !tids.is_empty() {
                let tid = tids[a as usize % tids.len()];
                h.delete_tuples("parent", &[tid]).unwrap();
            }
        }
        2 | 3 => {
            h.insert_tuples("child", vec![int_row(&[(a % 8) as i64, (b % 4) as i64])])
                .unwrap();
        }
        4 => {
            let tids = live_tids(h, "child");
            if !tids.is_empty() {
                let tid = tids[a as usize % tids.len()];
                h.delete_tuples("child", &[tid]).unwrap();
            }
        }
        _ => {
            let tids = live_tids(h, "child");
            if !tids.is_empty() {
                let tid = tids[a as usize % tids.len()];
                h.update_tuples(
                    "child",
                    vec![(tid, int_row(&[(a % 8) as i64, (b % 4) as i64]))],
                )
                .unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn fk_incremental_redetect_matches_full_rebuild(
        parents in prop::collection::vec(0u32..6, 0..5),
        children in prop::collection::vec((0u32..8, 0u32..4), 0..12),
        batches in prop::collection::vec(
            prop::collection::vec((0u32..6, 0u32..16, 0u32..8), 1..6),
            1..4,
        ),
    ) {
        let mut hippo = setup(&parents, &children);
        let q = SjudQuery::rel("child");
        for batch in batches {
            for (selector, a, b) in batch {
                apply(&mut hippo, selector, a, b);
            }
            let stats = hippo.redetect().unwrap();
            prop_assert!(
                stats.incremental,
                "recorded fk changes must take the incremental path"
            );
            let inc_edges = edge_set(hippo.graph());
            let inc_answers = answer(&hippo, &q).unwrap().rows;
            // Forced full rebuild on the same database must agree.
            hippo.redetect_full().unwrap();
            prop_assert_eq!(inc_edges, edge_set(hippo.graph()), "graphs diverged");
            prop_assert_eq!(
                inc_answers,
                answer(&hippo, &q).unwrap().rows,
                "answers diverged"
            );
        }
    }
}
