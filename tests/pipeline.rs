//! Cross-crate integration tests: the full Figure-1 pipeline (experiment
//! F1) — SQL text through the engine, conflict detection, enveloping,
//! proving — plus agreement between every strategy on curated instances.

use hippo::cqa::detect::detect_conflicts;
use hippo::cqa::naive::{conflict_free_answers, naive_consistent_answers, plain_answers};
use hippo::cqa::prelude::*;
use hippo::engine::{Database, TupleId, Value};

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

/// Copy-on-write at chunk edges, end to end. Tables keep their rows in
/// chunks of 1024 slots that a frozen view shares with the live
/// database; recorded inserts, updates and deletes on the first and last
/// slots of chunks must leave the frozen view's answers and tuple ids
/// exactly as they were, and after `redetect` the live view must answer
/// like a fresh `Hippo` built from its rows.
#[test]
fn frozen_view_survives_writes_at_chunk_edges() {
    let mut db = Database::new();
    db.execute("CREATE TABLE big (k INT, v INT, PRIMARY KEY (k))")
        .unwrap();
    // 2,200 clean rows (row i in slot i), then 40 conflicting copies.
    let mut rows: Vec<Vec<Value>> = (0..2200)
        .map(|i| vec![Value::Int(i), Value::Int(i * 7)])
        .collect();
    rows.extend((0..40).map(|i| vec![Value::Int(i * 50), Value::Int(-1)]));
    db.insert_rows("big", rows).unwrap();
    let fd = DenialConstraint::functional_dependency("big", &[0], 1);
    let mut hippo = Hippo::new(db, vec![fd.clone()]).unwrap();
    let queries = [
        SjudQuery::rel("big"),
        SjudQuery::rel("big").select(Pred::cmp_const(0, CmpOp::Ge, 1000i64)),
        SjudQuery::rel("big").diff(SjudQuery::rel("big").select(Pred::cmp_const(
            1,
            CmpOp::Lt,
            7000i64,
        ))),
    ];
    let frozen = hippo.freeze().unwrap();
    let options = hippo.options.clone();
    let answers = |f: &FrozenHippo| -> Vec<Vec<Vec<Value>>> {
        queries
            .iter()
            .map(|q| f.answer(q, &options).unwrap().rows)
            .collect()
    };
    let ids = |f: &FrozenHippo| -> Vec<(TupleId, Vec<Value>)> {
        let t = f.catalog().table("big").unwrap();
        t.iter().map(|(id, r)| (id, r.clone())).collect()
    };
    let (answers_before, ids_before) = (answers(&frozen), ids(&frozen));
    let edges_before = frozen.graph().edge_count();

    hippo
        .insert_tuples(
            "big",
            vec![
                vec![Value::Int(1023), Value::Int(1)],
                vec![Value::Int(9000), Value::Int(0)],
            ],
        )
        .unwrap();
    hippo
        .update_tuples(
            "big",
            vec![
                (TupleId(1024), vec![Value::Int(1024), Value::Int(5)]),
                (TupleId(2047), vec![Value::Int(7), Value::Int(0)]),
            ],
        )
        .unwrap();
    let deleted = hippo
        .delete_tuples("big", &[TupleId(0), TupleId(2048), TupleId(2239)])
        .unwrap();
    assert_eq!(deleted, 3);
    hippo.redetect().unwrap();

    // The frozen view is untouched: same answers, ids and graph.
    assert_eq!(answers(&frozen), answers_before);
    assert_eq!(ids(&frozen), ids_before);
    assert_eq!(frozen.graph().edge_count(), edges_before);

    // The live view equals a fresh Hippo over its rows.
    let live = hippo.freeze().unwrap();
    assert_ne!(answers(&live), answers_before, "the writes changed answers");
    let mut fresh_db = Database::new();
    fresh_db
        .execute("CREATE TABLE big (k INT, v INT, PRIMARY KEY (k))")
        .unwrap();
    fresh_db
        .insert_rows("big", hippo.db().catalog().table("big").unwrap().rows())
        .unwrap();
    let fresh = Hippo::new(fresh_db, vec![fd]).unwrap();
    assert_eq!(answers(&live), answers(&fresh.freeze().unwrap()));
    assert_eq!(hippo.graph().edge_count(), fresh.graph().edge_count());
}

#[test]
fn negative_zero_is_a_distinct_fact_in_every_mode() {
    // `0.0 = -0.0` under SQL equality, but they are distinct values, so
    // `0.0` is not in `s` and `r − s` keeps it — in every mode and in
    // the repair-enumeration oracle alike.
    let build = |opts: HippoOptions| {
        let mut db = Database::new();
        for rel in ["r", "s"] {
            db.execute(&format!("CREATE TABLE {rel} (x REAL)")).unwrap();
        }
        db.insert_rows("r", vec![vec![Value::Float(0.0)]]).unwrap();
        db.insert_rows("s", vec![vec![Value::Float(-0.0)]]).unwrap();
        Hippo::with_options(db, Vec::new(), opts).unwrap()
    };
    let q = SjudQuery::rel("r").diff(SjudQuery::rel("s"));
    for opts in [
        HippoOptions::base(),
        HippoOptions::kg(),
        HippoOptions::full(),
    ] {
        let hippo = build(opts.clone());
        let rows = answer(&hippo, &q).unwrap().rows;
        assert_eq!(rows, vec![vec![Value::Float(0.0)]], "options {opts:?}");
        let truth = naive_consistent_answers(&q, hippo.db().catalog(), hippo.graph());
        assert_eq!(rows, truth, "options {opts:?}");
    }
}
