//! Criterion bench for **index-backed membership probes** (PR 5): one
//! prepared point probe — `SELECT 1 FROM t WHERE k = $0 AND
//! v = $1 AND payload = $2 LIMIT 1` — executed against a frozen
//! snapshot, with the optimizer choosing the access path. The
//! `IndexLookup` plan (hash-bucket probe, O(1)) is measured against
//! the `SeqScan` plan it replaces (early-exiting scan, O(table))
//! across table sizes; keys rotate so hits and misses both occur.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hippo_cqa::prelude::*;
use hippo_engine::{choose_access_paths, BoundExpr, Database, DbSnapshot, Plan, Value};

fn snapshot_for(n: usize) -> DbSnapshot {
    let spec = FdTableSpec::new("t", n, 0.05, 84);
    let mut db = Database::new();
    spec.populate(&mut db).unwrap();
    db.snapshot()
}

/// The probe plan the base-mode membership path compiles per literal:
/// full-row equality with `Param` placeholders, `LIMIT 1`.
fn probe_plan(snap: &DbSnapshot, use_indexes: bool) -> Plan {
    let predicate = BoundExpr::conjoin((0..3).map(|j| BoundExpr::Binary {
        op: hippo_sql::BinaryOp::Eq,
        left: Box::new(BoundExpr::Column(j)),
        right: Box::new(BoundExpr::Param(j)),
    }));
    let mut plan = Plan::Limit {
        input: Box::new(Plan::Project {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::Scan { table: "t".into() }),
                predicate,
            }),
            exprs: vec![BoundExpr::Literal(Value::Int(1))],
        }),
        limit: Some(1),
        offset: 0,
    };
    if use_indexes {
        choose_access_paths(&mut plan, snap.catalog());
    }
    plan
}

fn bench_point_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("probe_point");
    for n in [1000usize, 4000, 16000] {
        let snap = snapshot_for(n);
        for (label, use_indexes) in [("index", true), ("scan", false)] {
            let plan = probe_plan(&snap, use_indexes);
            assert_eq!(plan.uses_index(), use_indexes, "unexpected access path");
            let mut k = 0i64;
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    // Rotate past the table end so ~1 in 4 probes miss.
                    k = (k + 1) % (n as i64 + n as i64 / 3);
                    let params = [Value::Int(k), Value::Int(7), Value::Int(3)];
                    snap.run_prepared(&plan, &params).unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_point_probe);
criterion_main!(benches);
