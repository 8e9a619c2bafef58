//! Differential property tests for [`hippo_engine::DbSnapshot`].
//!
//! A snapshot must be a perfect freeze: over random DDL/DML op
//! sequences with a random cut point,
//!
//! 1. a snapshot taken at the cut answers every query exactly like a
//!    reference database that stopped mutating at the cut — no matter
//!    what happens to the live database afterwards (inserts, updates,
//!    deletes, even `DROP TABLE`), and
//! 2. a snapshot of an unmutated database is indistinguishable from the
//!    live handle.
//!
//! A third property runs the first at storage scale: a `PRIMARY KEY`
//! table preloaded past two chunk boundaries (tables keep their rows in
//! chunks of 1024 slots and their indexes in shards, shared between
//! snapshots copy-on-write), mutations aimed at the first and last
//! slot of a chunk, several snapshots alive at once at different cuts,
//! and key-equality queries that plan as `IndexLookup`.

use hippo_engine::{Database, Value};
use proptest::prelude::*;

/// One mutation, encoded strategy-friendly: `(selector, a, b)`.
#[derive(Debug, Clone, Copy)]
struct Op {
    selector: u32,
    a: u32,
    b: u32,
}

fn apply(db: &mut Database, op: Op) {
    let k = op.a % 8;
    let v = op.b % 5;
    let sql = match op.selector % 5 {
        0 | 1 => format!("INSERT INTO t VALUES ({k}, {v})"),
        2 => format!("DELETE FROM t WHERE k = {k} AND v = {v}"),
        3 => format!("UPDATE t SET v = {v} WHERE k = {k}"),
        _ => format!("INSERT INTO u VALUES ({k}, {v})"),
    };
    db.execute(&sql).unwrap();
}

fn fresh_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("CREATE TABLE u (k INT, v INT)").unwrap();
    db
}

/// Queries covering scans, predicates, joins, aggregation and set ops.
const QUERIES: &[&str] = &[
    "SELECT * FROM t ORDER BY k, v",
    "SELECT COUNT(*), SUM(v) FROM t",
    "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k",
    "SELECT t.k, t.v, u.v FROM t, u WHERE t.k = u.k ORDER BY t.k, t.v, u.v",
    "SELECT k FROM t EXCEPT SELECT k FROM u",
    "SELECT k FROM t WHERE EXISTS (SELECT * FROM u WHERE u.k = t.k) ORDER BY k",
];

fn arb_ops() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    prop::collection::vec((0u32..5, 0u32..8, 0u32..5), 0..30)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn snapshot_freezes_at_the_cut_point(
        ops in arb_ops(),
        cut_pick in 0u32..31,
        drop_after in any::<bool>(),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(selector, a, b)| Op { selector, a, b })
            .collect();
        let cut = (cut_pick as usize) % (ops.len() + 1);

        // Live database: all ops, snapshot taken at the cut.
        let mut live = fresh_db();
        for op in &ops[..cut] {
            apply(&mut live, *op);
        }
        let snap = live.snapshot();
        for op in &ops[cut..] {
            apply(&mut live, *op);
        }
        if drop_after {
            live.execute("DROP TABLE t").unwrap();
        }

        // Reference database: stops at the cut.
        let mut reference = fresh_db();
        for op in &ops[..cut] {
            apply(&mut reference, *op);
        }

        for q in QUERIES {
            prop_assert_eq!(
                snap.query(q).unwrap(),
                reference.query(q).unwrap(),
                "snapshot diverged from the cut-point reference on {}",
                q
            );
        }
    }

    #[test]
    fn snapshot_of_quiescent_db_matches_live(ops in arb_ops()) {
        let mut db = fresh_db();
        for (selector, a, b) in ops {
            apply(&mut db, Op { selector, a, b });
        }
        let snap = db.snapshot();
        for q in QUERIES {
            prop_assert_eq!(snap.query(q).unwrap(), db.query(q).unwrap(), "{}", q);
        }
    }

    #[test]
    fn keyed_snapshots_at_chunk_edges_freeze_at_their_cuts(
        ops in prop::collection::vec((0u32..5, 0u32..8, 0u32..8), 0..24),
        cuts in (0u32..25, 0u32..25, 0u32..25),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|(selector, a, b)| Op { selector, a, b })
            .collect();
        let mut cuts: Vec<usize> = [cuts.0, cuts.1, cuts.2]
            .iter()
            .map(|&c| c as usize % (ops.len() + 1))
            .collect();
        cuts.sort_unstable();

        // Live database: all ops, a snapshot at each cut, all alive.
        let mut live = keyed_db();
        let mut snaps = Vec::new();
        let mut done = 0;
        for &cut in &cuts {
            for op in &ops[done..cut] {
                apply_keyed(&mut live, *op);
            }
            done = cut;
            snaps.push(live.snapshot());
        }
        for op in &ops[done..] {
            apply_keyed(&mut live, *op);
        }
        snaps.push(live.snapshot());
        cuts.push(ops.len());

        for (snap, &cut) in snaps.iter().zip(&cuts) {
            let mut reference = keyed_db();
            for op in &ops[..cut] {
                apply_keyed(&mut reference, *op);
            }
            for q in keyed_queries() {
                prop_assert_eq!(
                    snap.query(&q).unwrap(),
                    reference.query(&q).unwrap(),
                    "snapshot at cut {} diverged from its reference on {}",
                    cut,
                    q
                );
            }
            // Within the snapshot, each index agrees with a scan.
            for k in EDGES {
                prop_assert_eq!(
                    snap.query(&format!("SELECT * FROM p WHERE k = {k}")).unwrap().rows,
                    snap.query(&format!("SELECT * FROM p WHERE k + 0 = {k}")).unwrap().rows,
                    "index and scan disagree on k = {} at cut {}", k, cut
                );
            }
        }
        let probe = format!("SELECT * FROM p WHERE k = {}", EDGES[3]);
        let plan = live.physical_plan(&probe).unwrap();
        prop_assert!(plan.uses_index(), "expected IndexLookup:\n{}", plan);
        let plan = live.physical_plan(&probe.replace("k =", "k + 0 =")).unwrap();
        prop_assert!(!plan.uses_index(), "expected a scan:\n{}", plan);
    }
}

/// Rows preloaded into `p`: past two chunk boundaries (1024 slots each).
const PRELOAD: i64 = 2 * 1024 + 100;

/// Keys at chunk edges: preloaded row `i` has key `i` and sits in slot
/// `i`, so these are the first and last slots of chunks 0, 1 and 2 and
/// the last preloaded slot; 5000 is a fresh key.
const EDGES: [i64; 8] = [0, 1023, 1024, 2047, 2048, PRELOAD - 1, 1, 5000];

fn keyed_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE p (k INT, v INT, PRIMARY KEY (k))")
        .unwrap();
    db.execute("CREATE INDEX p_v ON p (v)").unwrap();
    let rows = (0..PRELOAD)
        .map(|i| vec![Value::Int(i), Value::Int(i % 5)])
        .collect();
    db.insert_rows("p", rows).unwrap();
    db
}

/// One mutation aimed at an edge key (the key is violable: the primary
/// key is an index, not a uniqueness check).
fn apply_keyed(db: &mut Database, op: Op) {
    let k = EDGES[op.a as usize % EDGES.len()];
    let other = EDGES[op.b as usize % EDGES.len()];
    let sql = match op.selector % 5 {
        0 => format!("INSERT INTO p VALUES ({k}, {})", op.b),
        1 => format!("DELETE FROM p WHERE k = {k}"),
        2 => format!("UPDATE p SET v = v + 1 WHERE k = {k}"),
        3 => format!("UPDATE p SET k = {other} WHERE k = {k}"),
        _ => format!("INSERT INTO p VALUES ({}, {})", 6000 + op.a, op.b),
    };
    db.execute(&sql).unwrap();
}

/// Point lookups on every edge key (index lookups on `k`, and on `v`),
/// plus whole-table aggregates and an ordered scan.
fn keyed_queries() -> Vec<String> {
    let mut qs: Vec<String> = EDGES
        .iter()
        .map(|k| format!("SELECT * FROM p WHERE k = {k}"))
        .collect();
    qs.extend((0..6).map(|v| format!("SELECT k FROM p WHERE v = {v} ORDER BY k")));
    qs.push("SELECT COUNT(*), SUM(k), SUM(v) FROM p".into());
    qs.push("SELECT * FROM p ORDER BY k, v".into());
    qs
}
