//! Cross-crate integration tests: the full Figure-1 pipeline (experiment
//! F1) — SQL text through the engine, conflict detection, enveloping,
//! proving — plus agreement between every strategy on curated instances.

use hippo::cqa::detect::detect_conflicts;
use hippo::cqa::naive::{conflict_free_answers, naive_consistent_answers, plain_answers};
use hippo::cqa::prelude::*;
use hippo::engine::{Database, Value};

/// A live system answers by freezing, then the one answer call.
fn answer(h: &Hippo, q: &SjudQuery) -> Result<ConsistentAnswer, hippo_engine::EngineError> {
    h.freeze()?.answer(q, &h.options)
}

fn emp_db(rows: &[(&str, i64)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE emp (name TEXT, salary INT)")
        .unwrap();
    for (n, s) in rows {
        db.execute(&format!("INSERT INTO emp VALUES ('{n}', {s})"))
            .unwrap();
    }
    db
}

#[test]
fn f1_pipeline_end_to_end() {
    // Load through SQL (as a JDBC client would), constrain, query.
    let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
    let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
    let hippo = Hippo::new(db, vec![fd]).unwrap();

    // Stage 1: conflict detection ran at construction.
    assert_eq!(hippo.graph().edge_count(), 1);
    assert!(hippo.detect_stats().combinations_checked > 0);

    // Stage 2+3: envelope is produced as SQL and evaluated by the engine.
    let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
        1,
        CmpOp::Lt,
        150i64,
    )));
    let env = envelope(&q);
    let env_sql = env.to_sql(hippo.db().catalog()).unwrap();
    assert!(
        env_sql.contains("SELECT"),
        "envelope ships as SQL: {env_sql}"
    );
    let candidates = hippo.db().query(&env_sql).unwrap();
    assert_eq!(candidates.rows.len(), 3, "envelope drops the subtrahend");

    // Stage 4: prover filters candidates into the answer set.
    let ConsistentAnswer {
        rows: answers,
        stats,
        ..
    } = answer(&hippo, &q).unwrap();
    assert_eq!(answers, vec![vec![Value::text("bob"), Value::Int(300)]]);
    assert_eq!(stats.candidates, 3);
    assert!(stats.answers <= stats.candidates);
}

#[test]
fn all_strategies_agree_where_applicable() {
    let rows: Vec<(String, i64)> = (0..30)
        .map(|i| (format!("e{}", i % 20), 100 + (i * 37) % 400))
        .collect();
    let rows: Vec<(&str, i64)> = rows.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    let constraints = vec![DenialConstraint::functional_dependency("emp", &[0], 1)];

    let queries = vec![
        SjudQuery::rel("emp"),
        SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 250i64)),
        SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
            1,
            CmpOp::Lt,
            250i64,
        ))),
    ];
    for q in queries {
        let db = emp_db(&rows);
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        let rewritten = rewritten_answers(&q, &constraints, &db).unwrap();
        assert_eq!(rewritten, truth, "rewriting vs truth for {q}");
        for opts in [
            HippoOptions::base(),
            HippoOptions::kg(),
            HippoOptions::full(),
        ] {
            let hippo =
                Hippo::with_options(emp_db(&rows), constraints.clone(), opts.clone()).unwrap();
            assert_eq!(answer(&hippo, &q).unwrap().rows, truth, "{q} {opts:?}");
        }
    }
}

#[test]
fn d1_cqa_between_strawman_and_plain_for_monotone_queries() {
    // For monotone (SJU) queries: strawman ⊆ consistent ⊆ plain.
    let rows: Vec<(String, i64)> = (0..40)
        .map(|i| (format!("e{}", i % 25), 100 + (i * 53) % 500))
        .collect();
    let rows: Vec<(&str, i64)> = rows.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    let db = emp_db(&rows);
    let constraints = vec![DenialConstraint::functional_dependency("emp", &[0], 1)];
    let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();

    let q = SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 200i64));
    let straw = conflict_free_answers(&q, db.catalog(), &g);
    let cqa = naive_consistent_answers(&q, db.catalog(), &g);
    let plain = plain_answers(&q, db.catalog());
    for r in &straw {
        assert!(cqa.contains(r), "strawman row {r:?} must be consistent");
    }
    for r in &cqa {
        assert!(
            plain.contains(r),
            "consistent row {r:?} must be a plain answer"
        );
    }
}

#[test]
fn exclusion_and_fd_mix_three_relations() {
    let mut db = Database::new();
    db.execute("CREATE TABLE staff (name TEXT, grade INT)")
        .unwrap();
    db.execute("CREATE TABLE external (name TEXT, org TEXT)")
        .unwrap();
    db.execute("CREATE TABLE audit (name TEXT, grade INT)")
        .unwrap();
    db.execute("INSERT INTO staff VALUES ('ann', 1), ('ann', 2), ('bob', 3), ('cyd', 4)")
        .unwrap();
    db.execute("INSERT INTO external VALUES ('cyd', 'acme'), ('dee', 'evil')")
        .unwrap();
    db.execute("INSERT INTO audit VALUES ('ann', 1), ('bob', 3)")
        .unwrap();

    let constraints = vec![
        DenialConstraint::functional_dependency("staff", &[0], 1),
        DenialConstraint::exclusion("staff", "external", &[(0, 0)]),
    ];
    let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
    // ann: FD conflict; cyd: exclusion conflict with external row.
    assert_eq!(g.edge_count(), 2);

    let q = SjudQuery::rel("staff");
    let truth = naive_consistent_answers(&q, db.catalog(), &g);
    assert_eq!(truth, vec![vec![Value::text("bob"), Value::Int(3)]]);

    let hippo = Hippo::new(db, constraints).unwrap();
    assert_eq!(answer(&hippo, &q).unwrap().rows, truth);

    // Join staff × audit on name: only bob joins consistently.
    let q = SjudQuery::rel("staff")
        .product(SjudQuery::rel("audit"))
        .select(Pred::cmp_cols(0, CmpOp::Eq, 2));
    let answers = answer(&hippo, &q).unwrap().rows;
    let truth = naive_consistent_answers(&q, hippo.db().catalog(), hippo.graph());
    assert_eq!(answers, truth);
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0][0], Value::text("bob"));
}

#[test]
fn sql_interface_round_trip_via_umbrella_crate() {
    // The umbrella crate re-exports everything needed for a downstream user.
    let parsed = hippo::sql::parse_query("SELECT a FROM t WHERE a > 1").unwrap();
    let printed = hippo::sql::print_query(&parsed);
    assert_eq!(hippo::sql::parse_query(&printed).unwrap(), parsed);
}

#[test]
fn mutation_then_redetect_keeps_answers_correct() {
    let db = emp_db(&[("ann", 100), ("bob", 300)]);
    let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
    let mut hippo = Hippo::new(db, vec![fd]).unwrap();
    let q = SjudQuery::rel("emp");
    assert_eq!(answer(&hippo, &q).unwrap().rows.len(), 2);

    hippo
        .db_mut()
        .execute("INSERT INTO emp VALUES ('bob', 999)")
        .unwrap();
    hippo.redetect().unwrap();
    let answers = answer(&hippo, &q).unwrap().rows;
    assert_eq!(answers, vec![vec![Value::text("ann"), Value::Int(100)]]);
    let truth = naive_consistent_answers(&q, hippo.db().catalog(), hippo.graph());
    assert_eq!(answers, truth);
}

#[test]
fn large_consistent_instance_fast_path() {
    // 5k rows, no conflicts: everything flows through the core filter.
    let mut db = Database::new();
    db.execute("CREATE TABLE big (k INT, v INT)").unwrap();
    let rows: Vec<Vec<Value>> = (0..5000)
        .map(|i| vec![Value::Int(i), Value::Int(i * 7)])
        .collect();
    db.insert_rows("big", rows).unwrap();
    let fd = DenialConstraint::functional_dependency("big", &[0], 1);
    let hippo = Hippo::new(db, vec![fd]).unwrap();
    let ConsistentAnswer {
        rows: answers,
        stats,
        ..
    } = answer(&hippo, &SjudQuery::rel("big")).unwrap();
    assert_eq!(answers.len(), 5000);
    assert_eq!(stats.prover_calls, 0);
    assert_eq!(stats.filtered_consistent, 5000);
}
