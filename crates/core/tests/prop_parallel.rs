//! Differential property tests for sharded parallel detection and
//! incremental redetection.
//!
//! Two invariants, each checked against the sequential / from-scratch
//! ground truth on randomized workloads:
//!
//! 1. **Sharding is invisible** — for random shard counts (1..8) and
//!    worker counts (1..4), detection produces the same edge set,
//!    constraint attribution and exact `DetectStats` totals as the
//!    sequential single-shard run; and for a *fixed* shard count, edge
//!    ids are bit-identical across worker counts.
//! 2. **Incremental ≡ rebuild** — after random insert/delete batches
//!    applied through `Hippo::insert_tuples` / `Hippo::delete_tuples`,
//!    the incrementally-redetected graph equals a from-scratch `Hippo`
//!    built on the same final instance (edge set and per-fact conflict
//!    vertices), and the two systems return identical consistent
//!    answers.

use hippo_cqa::constraint::{Comparison, DenialConstraint, Term};
use hippo_cqa::detect::{detect_conflicts_with, DetectOptions};
use hippo_cqa::hypergraph::{ConflictHypergraph, Vertex};
use hippo_cqa::pred::CmpOp;
use hippo_cqa::prelude::*;
use hippo_engine::{Column, DataType, Database, Row, TableSchema, TupleId, Value};
use proptest::prelude::*;

/// A live system answers by freezing, then the one answer call.
fn answer(h: &Hippo, q: &SjudQuery) -> Result<ConsistentAnswer, hippo_engine::EngineError> {
    h.freeze()?.answer(q, &h.options)
}

/// Random two-table instance: `t(k, v)` and `s(k, v)` with small key /
/// value domains so FD violations, exclusion overlaps and CHECK hits
/// all occur at useful rates.
fn db_with(t_rows: &[(u32, u32)], s_rows: &[(u32, u32)]) -> Database {
    let mut db = Database::new();
    for name in ["t", "s"] {
        db.catalog_mut()
            .create_table(
                TableSchema::new(
                    name,
                    vec![
                        Column::new("k", DataType::Int),
                        Column::new("v", DataType::Int),
                    ],
                    &[],
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

/// FD on `t`, exclusion between `t` and `s`, and a CHECK denial on `t` —
/// exercising the FD fast path, the hash-joined general path and the
/// singleton general path at once.
fn constraints() -> Vec<DenialConstraint> {
    vec![
        DenialConstraint::functional_dependency("t", &[0], 1),
        DenialConstraint::exclusion("t", "s", &[(0, 0)]),
        DenialConstraint::check(
            "t",
            vec![Comparison {
                op: CmpOp::Ge,
                left: Term::Attr(hippo_cqa::constraint::AttrRef { atom: 0, col: 1 }),
                right: Term::Const(Value::Int(3)),
            }],
        ),
    ]
}

/// Canonical edge-set representation: sorted (constraint, vertices).
fn edge_set(g: &ConflictHypergraph) -> Vec<(usize, Vec<Vertex>)> {
    let mut edges: Vec<(usize, Vec<Vertex>)> = g
        .edges()
        .map(|(id, e)| (g.edge_constraint(id), e.to_vec()))
        .collect();
    edges.sort();
    edges
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..8, 0u32..4), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn sharded_detection_matches_sequential(
        t_rows in arb_rows(50),
        s_rows in arb_rows(20),
        shards in 1usize..8,
        threads in 1usize..4,
    ) {
        let db = db_with(&t_rows, &s_rows);
        let cs = constraints();
        let (g_seq, s_seq) = detect_conflicts_with(
            db.catalog(),
            &cs,
            &DetectOptions { threads: 1, shards: 1 },
        ).unwrap();
        let (g_par, s_par) = detect_conflicts_with(
            db.catalog(),
            &cs,
            &DetectOptions { threads, shards },
        ).unwrap();

        // Same edge set + constraint attribution, exact stat totals.
        prop_assert_eq!(edge_set(&g_par), edge_set(&g_seq));
        prop_assert_eq!(s_par.combinations_checked, s_seq.combinations_checked);
        prop_assert_eq!(s_par.edges_emitted, s_seq.edges_emitted);
        prop_assert_eq!(s_par.shards_used, shards);

        // For a fixed shard count, edge ids are identical for any
        // worker count (thread scheduling must be invisible).
        let (g_one, _) = detect_conflicts_with(
            db.catalog(),
            &cs,
            &DetectOptions { threads: 1, shards },
        ).unwrap();
        prop_assert_eq!(g_par.edge_count(), g_one.edge_count());
        for (id, e) in g_par.edges() {
            prop_assert_eq!(e, g_one.edge(id), "edge id {} differs", id);
            prop_assert_eq!(g_par.edge_constraint(id), g_one.edge_constraint(id));
        }

        // Fact index agrees with the sequential build for every row.
        for (rel, rows) in [("t", &t_rows), ("s", &s_rows)] {
            for &(k, v) in rows.iter() {
                let row = vec![Value::Int(k as i64), Value::Int(v as i64)];
                let mut a = g_par.vertices_of_fact(rel, &row).to_vec();
                let mut b = g_seq.vertices_of_fact(rel, &row).to_vec();
                a.sort();
                b.sort();
                prop_assert_eq!(a, b, "vertices_of_fact {} {:?}", rel, row);
            }
        }
    }

    /// Ops: `0` insert into `t`, `1` insert into `s`, `2` delete from
    /// `t` (slot = `pick % slots`), `3` delete from `s`, `4` in-place
    /// update in `t`, `5` in-place update in `s`. The same sequence is
    /// replayed against a plain `Database` (tuple ids are
    /// deterministic), and the incrementally-maintained Hippo must match
    /// a from-scratch build on that final instance.
    #[test]
    fn incremental_redetect_matches_rebuild(
        t_rows in arb_rows(40),
        s_rows in arb_rows(16),
        ops in prop::collection::vec((0u32..6, 0u32..8, 0u32..4, 0u32..64), 0..16),
    ) {
        let mut hippo = Hippo::new(db_with(&t_rows, &s_rows), constraints()).unwrap();
        let mut mirror = db_with(&t_rows, &s_rows);
        // Ops that were actually applied (a delete of a tombstoned or
        // out-of-range tuple records nothing and must not be counted).
        let mut applied = 0usize;
        for &(kind, k, v, pick) in &ops {
            let table = if kind % 2 == 0 { "t" } else { "s" };
            let row = vec![Value::Int(k as i64), Value::Int(v as i64)];
            if kind < 2 {
                let got = hippo.insert_tuples(table, vec![row.clone()]).unwrap();
                let want = mirror.catalog_mut().table_mut(table).unwrap().insert(row).unwrap();
                prop_assert_eq!(got, vec![want], "tuple ids must replay identically");
                applied += 1;
            } else if kind < 4 {
                let slots = hippo.db().catalog().table(table).unwrap().slot_count();
                if slots == 0 {
                    continue;
                }
                let tid = TupleId((pick as usize % slots) as u32);
                let got = hippo.delete_tuples(table, &[tid]).unwrap();
                let want = mirror.catalog_mut().table_mut(table).unwrap().delete(tid);
                prop_assert_eq!(got, usize::from(want));
                applied += got;
            } else {
                // In-place update of a live tuple (recorded as
                // delete + insert of the same id).
                let slots = hippo.db().catalog().table(table).unwrap().slot_count();
                if slots == 0 {
                    continue;
                }
                let tid = TupleId((pick as usize % slots) as u32);
                if hippo.db().catalog().table(table).unwrap().get(tid).is_none() {
                    continue; // tombstoned slot: update would reject the batch
                }
                let got = hippo.update_tuples(table, vec![(tid, row.clone())]).unwrap();
                prop_assert_eq!(got, 1);
                mirror.catalog_mut().table_mut(table).unwrap().update(tid, row).unwrap();
                applied += 1;
            }
        }
        let stats = hippo.redetect().unwrap();
        prop_assert_eq!(stats.incremental, applied > 0, "delta path taken iff changes recorded");

        let reference = Hippo::new(mirror, constraints()).unwrap();
        prop_assert_eq!(edge_set(hippo.graph()), edge_set(reference.graph()));

        // Per-fact conflict vertices agree (as sets) for every live row.
        for table in ["t", "s"] {
            for (_, row) in reference.db().catalog().table(table).unwrap().iter() {
                let mut a = hippo.graph().vertices_of_fact(table, row).to_vec();
                let mut b = reference.graph().vertices_of_fact(table, row).to_vec();
                a.sort();
                b.sort();
                prop_assert_eq!(a, b, "vertices_of_fact {} {:?}", table, row);
            }
        }

        // End to end: identical consistent answers on both tables.
        for q in [SjudQuery::rel("t"), SjudQuery::rel("s")] {
            prop_assert_eq!(
                answer(&hippo, &q).unwrap().rows,
                answer(&reference, &q).unwrap().rows,
                "query {} diverged", q
            );
        }
    }
}
