//! Payroll audit: comparing every CQA strategy on one inconsistent
//! instance — Hippo (all optimization levels), query rewriting, naive
//! repair enumeration, the conflict-free strawman, and plain SQL.
//!
//! Run with: `cargo run --example payroll_audit`

mod aggregate;

use aggregate::{range_aggregate_fd, range_aggregate_naive, AggOp};
use hippo::cqa::detect::detect_conflicts;
use hippo::cqa::prelude::*;
use hippo::engine::{Database, Value};
use hippo_testkit::{
    conflict_free_answers, enumerate_repairs, naive_consistent_answers, plain_answers,
};
use std::time::Instant;

fn build_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE payroll (emp TEXT, salary INT, dept TEXT)")
        .unwrap();
    // Seeded, small instance with a handful of FD violations on emp.
    let rows: Vec<(&str, i64, &str)> = vec![
        ("ann", 1200, "cs"),
        ("ann", 1250, "cs"), // conflict
        ("bob", 900, "ee"),
        ("cyd", 1100, "cs"),
        ("cyd", 1100, "me"), // conflict on dept? no: FD is emp → salary only
        ("dee", 700, "ee"),
        ("eve", 2000, "cs"),
        ("eve", 2100, "cs"), // conflict
        ("fred", 1500, "me"),
    ];
    db.insert_rows(
        "payroll",
        rows.into_iter()
            .map(|(e, s, d)| vec![Value::text(e), Value::Int(s), Value::text(d)])
            .collect(),
    )
    .unwrap();
    db
}

fn main() {
    let constraints = vec![DenialConstraint::functional_dependency("payroll", &[0], 1)];
    let q = SjudQuery::rel("payroll").select(Pred::cmp_const(1, CmpOp::Ge, 1000i64));
    println!("query: employees with certainly-high salary (≥ 1000)\n");

    // Ground truth by repair enumeration.
    let db = build_db();
    let (graph, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
    let t = Instant::now();
    let truth = naive_consistent_answers(&q, db.catalog(), &graph);
    println!(
        "naive repair enumeration : {} answers in {:?} ({} repairs)",
        truth.len(),
        t.elapsed(),
        enumerate_repairs(&graph, None).len()
    );

    // Plain SQL (ignores inconsistency) and the strawman.
    println!(
        "plain SQL (inconsistent) : {} answers",
        plain_answers(&q, db.catalog()).len()
    );
    println!(
        "conflict-free strawman   : {} answers",
        conflict_free_answers(&q, db.catalog(), &graph).len()
    );

    // Query rewriting.
    let t = Instant::now();
    let rewritten = rewritten_answers(&q, &constraints, &db).unwrap();
    println!(
        "query rewriting (ABC'99) : {} answers in {:?}",
        rewritten.len(),
        t.elapsed()
    );
    assert_eq!(rewritten, truth);

    // Hippo at each optimization level.
    for (label, opts) in [
        ("Hippo base             ", HippoOptions::base()),
        ("Hippo +KG              ", HippoOptions::kg()),
        ("Hippo +KG +core filter ", HippoOptions::full()),
    ] {
        let hippo = Hippo::with_options(build_db(), constraints.clone(), opts).unwrap();
        let t = Instant::now();
        let ConsistentAnswer {
            rows: answers,
            stats,
            ..
        } = hippo.freeze().unwrap().answer(&q, &hippo.options).unwrap();
        assert_eq!(answers, truth);
        println!(
            "{label}: {} answers in {:?} (prover calls: {}, core-filtered: {})",
            answers.len(),
            t.elapsed(),
            stats.prover_calls,
            stats.filtered_consistent
        );
    }
    println!("\nall strategies agree with the repair-enumeration ground truth ✓");

    // Range-consistent aggregation (extension; paper reference [3]):
    // salary totals are uncertain, but provably bounded over all repairs.
    // The FD algorithm's bounds print beside repair enumeration's.
    let db = build_db();
    for (label, op) in [
        ("COUNT(*)", AggOp::Count),
        ("SUM(salary)", AggOp::Sum),
        ("MIN(salary)", AggOp::Min),
        ("MAX(salary)", AggOp::Max),
    ] {
        let r = range_aggregate_fd(db.catalog(), "payroll", &[0], 1, 1, op).unwrap();
        let n = range_aggregate_naive(db.catalog(), "payroll", &constraints, 1, op).unwrap();
        println!(
            "range-consistent {label}: [{}, {}] (repair enumeration: [{}, {}])",
            r.glb, r.lub, n.glb, n.lub
        );
    }
}
