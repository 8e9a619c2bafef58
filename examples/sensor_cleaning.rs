//! Long-running activity with temporarily violated constraints — the
//! paper's second motivating scenario, cast as a sensor network.
//!
//! Sensors report `(sensor, epoch, reading)`. The FD `(sensor, epoch) →
//! reading` says a sensor has one reading per epoch; retransmissions with
//! corrupted payloads violate it. A CHECK denial additionally bans
//! physically impossible readings. Consistent query answering returns the
//! readings that are certain regardless of which copy is eventually kept.
//!
//! Run with: `cargo run --example sensor_cleaning`

use hippo::cqa::prelude::*;
use hippo::engine::{Database, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut db = Database::new();
    db.execute("CREATE TABLE readings (sensor INT, epoch INT, reading INT)")
        .unwrap();

    let mut rng = StdRng::seed_from_u64(7);
    let mut rows = Vec::new();
    for sensor in 0..20i64 {
        for epoch in 0..50i64 {
            let reading = rng.gen_range(0..100);
            rows.push(vec![
                Value::Int(sensor),
                Value::Int(epoch),
                Value::Int(reading),
            ]);
            // 5% retransmissions, half of them corrupted.
            if rng.gen_bool(0.05) {
                let corrupted = if rng.gen_bool(0.5) {
                    reading + 1000
                } else {
                    reading
                };
                rows.push(vec![
                    Value::Int(sensor),
                    Value::Int(epoch),
                    Value::Int(corrupted),
                ]);
            }
        }
    }
    db.insert_rows("readings", rows).unwrap();

    // (sensor, epoch) → reading; readings above 500 are impossible.
    let fd = DenialConstraint::functional_dependency("readings", &[0, 1], 2);
    let impossible = DenialConstraint::check(
        "readings",
        vec![Comparison {
            op: CmpOp::Gt,
            left: Term::Attr(AttrRef { atom: 0, col: 2 }),
            right: Term::Const(Value::Int(500)),
        }],
    );

    let hippo = Hippo::new(db, vec![fd, impossible]).unwrap();
    println!(
        "{} rows, {} conflicts over {} tuples",
        hippo.db().catalog().table("readings").unwrap().len(),
        hippo.graph().edge_count(),
        hippo.graph().conflicting_vertex_count()
    );

    // Certain high readings (≥ 90): true in every repair. Note the subtle
    // interaction: a duplicated-but-identical retransmission is NOT a
    // conflict; a corrupted one is, but since the corrupted copy is also
    // impossible (>500), it is in NO repair — so the clean copy survives
    // in every repair and remains a consistent answer. The prover's
    // blocking-edge reasoning handles this automatically.
    let q = SjudQuery::rel("readings").select(Pred::cmp_const(2, CmpOp::Ge, 90i64));
    let frozen = hippo.freeze().unwrap();
    let ConsistentAnswer {
        rows: answers,
        stats,
        ..
    } = frozen.answer(&q, &hippo.options).unwrap();
    println!(
        "certain readings ≥ 90: {} ({} candidates, {} via core filter, {} prover calls)",
        answers.len(),
        stats.candidates,
        stats.filtered_consistent,
        stats.prover_calls
    );

    // Difference query: epochs that consistently have NO alarm-level
    // reading — `readings − σ(reading ≥ 95) readings` restricted by hand.
    let q = SjudQuery::rel("readings").diff(SjudQuery::rel("readings").select(Pred::cmp_const(
        2,
        CmpOp::Ge,
        95i64,
    )));
    let answers = frozen.answer(&q, &hippo.options).unwrap().rows;
    println!("rows certainly below alarm level: {}", answers.len());
}
