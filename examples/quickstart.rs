//! Quickstart: consistent query answering in a dozen lines.
//!
//! Run with: `cargo run --example quickstart`

use hippo::cqa::prelude::*;
use hippo::engine::Database;

fn main() {
    // An employee table with an integrity problem: ann appears with two
    // different salaries, violating the functional dependency name → salary.
    let mut db = Database::new();
    db.execute("CREATE TABLE emp (name TEXT, salary INT)")
        .unwrap();
    db.execute(
        "INSERT INTO emp VALUES \
         ('ann', 100), ('ann', 200), ('bob', 300), ('cyd', 150)",
    )
    .unwrap();

    let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
    let hippo = Hippo::new(db, vec![fd]).unwrap();

    println!(
        "conflict hypergraph: {} edge(s), {} conflicting tuple(s)",
        hippo.graph().edge_count(),
        hippo.graph().conflicting_vertex_count()
    );

    // Answers come from a frozen view of the reconciled system (O(1):
    // shared `Arc`s), queried with the system's options.
    let frozen = hippo.freeze().unwrap();

    // Query 1: the whole relation. Only tuples true in EVERY repair count.
    let q = SjudQuery::rel("emp");
    println!("\nconsistent answers to `emp`:");
    for row in frozen.answer(&q, &hippo.options).unwrap().rows {
        println!("  {row:?}");
    }

    // Query 2: employees earning at least 150 — bob and cyd qualify
    // consistently; ann only in the repair that kept the 200 salary.
    let q = SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 150i64));
    println!("\nconsistent answers to `σ(salary ≥ 150) emp`:");
    for row in frozen.answer(&q, &hippo.options).unwrap().rows {
        println!("  {row:?}");
    }

    // Query 3: a union extracting indefinite information — "ann earns 100
    // or 200" holds in every repair even though neither disjunct does.
    let q = SjudQuery::rel("emp")
        .select(Pred::cmp_const(1, CmpOp::Eq, 100i64))
        .union(SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Eq, 200i64)));
    println!("\nconsistent answers to `σ(=100) emp ∪ σ(=200) emp`:");
    for row in frozen.answer(&q, &hippo.options).unwrap().rows {
        println!("  {row:?}");
    }

    // The same answers straight from SQL text (the paper's titular
    // "class of SQL queries").
    let q = sjud_from_sql("SELECT * FROM emp WHERE salary >= 150", frozen.catalog()).unwrap();
    let answer = frozen.answer(&q, &hippo.options).unwrap();
    println!("\nvia SQL text: {} consistent rows", answer.rows.len());

    // Statistics of a run.
    let stats = frozen
        .answer(&SjudQuery::rel("emp"), &hippo.options)
        .unwrap()
        .stats;
    println!(
        "\nrun stats: {} candidates, {} prover calls, {} answers ({:?} total)",
        stats.candidates, stats.prover_calls, stats.answers, stats.t_total
    );
}
