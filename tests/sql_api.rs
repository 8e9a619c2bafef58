//! Integration tests for the SQL-facing API (`sjud_from_sql` → freeze →
//! `answer`) and
//! the restricted foreign-key extension, end to end through the umbrella
//! crate.

use hippo::cqa::prelude::*;
use hippo::engine::{Database, Value};
use hippo_testkit::{answer, naive_consistent_answers};

/// Consistent answers to SQL text: classify into SJUD, then answer.
fn answer_sql(h: &Hippo, sql: &str) -> Vec<hippo_engine::Row> {
    let q = sjud_from_sql(sql, h.db().catalog()).unwrap();
    answer(h, &q).unwrap().rows
}

fn inventory_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE parts (pid INT, weight INT)")
        .unwrap();
    db.execute("CREATE TABLE stock (pid INT, qty INT)").unwrap();
    db.execute("INSERT INTO parts VALUES (1, 10), (1, 12), (2, 20), (3, 30)")
        .unwrap();
    db.execute("INSERT INTO stock VALUES (1, 5), (2, 7), (9, 1)")
        .unwrap();
    db
}

#[test]
fn sql_text_to_consistent_answers() {
    let constraints = vec![DenialConstraint::functional_dependency("parts", &[0], 1)];
    let hippo = Hippo::new(inventory_db(), constraints.clone()).unwrap();

    let answers = answer_sql(&hippo, "SELECT * FROM parts");
    assert_eq!(
        answers,
        vec![
            vec![Value::Int(2), Value::Int(20)],
            vec![Value::Int(3), Value::Int(30)],
        ],
        "part 1's weight is in doubt"
    );

    // Join through SQL.
    let answers = answer_sql(
        &hippo,
        "SELECT p.pid, p.weight, s.pid, s.qty FROM parts p \
             INNER JOIN stock s ON p.pid = s.pid",
    );
    assert_eq!(answers.len(), 1);
    assert_eq!(answers[0][0], Value::Int(2));

    // Union through SQL (the class rewriting cannot express).
    let answers = answer_sql(
        &hippo,
        "SELECT * FROM parts WHERE weight < 15 UNION SELECT * FROM parts WHERE weight > 25",
    );
    assert_eq!(answers, vec![vec![Value::Int(3), Value::Int(30)]]);

    // Agreement with ground truth for each.
    let q = sjud_from_sql("SELECT * FROM parts", hippo.db().catalog()).unwrap();
    let truth = naive_consistent_answers(&q, hippo.db().catalog(), hippo.graph());
    assert_eq!(answer(&hippo, &q).unwrap().rows, truth);
}

#[test]
fn sql_outside_class_is_rejected_with_explanation() {
    let hippo = Hippo::new(inventory_db(), vec![]).unwrap();
    let err = sjud_from_sql("SELECT pid FROM parts", hippo.db().catalog()).unwrap_err();
    assert!(err.to_string().contains("existential"), "{err}");
    let err = sjud_from_sql("SELECT COUNT(*) FROM parts", hippo.db().catalog()).unwrap_err();
    assert!(
        err.to_string().contains("SJUD") || err.to_string().contains("plain columns"),
        "{err}"
    );
}

#[test]
fn foreign_keys_combine_with_fds_end_to_end() {
    let constraints = vec![DenialConstraint::functional_dependency("parts", &[0], 1)];
    // stock.pid references parts.pid? No — parts has an FD, so parts cannot
    // be a parent under the restriction. Reference the other way: build a
    // clean parent.
    let mut db = inventory_db();
    db.execute("CREATE TABLE suppliers (sid INT)").unwrap();
    db.execute("INSERT INTO suppliers VALUES (1), (2)").unwrap();
    db.execute("CREATE TABLE shipments (sid INT, pid INT)")
        .unwrap();
    db.execute("INSERT INTO shipments VALUES (1, 1), (2, 2), (7, 3)")
        .unwrap();

    let fks = vec![ForeignKey::new("shipments", vec![0], "suppliers", vec![0])];
    let hippo = Hippo::with_foreign_keys(db, constraints, fks).unwrap();

    // Shipment (7,3) is orphaned (supplier 7 does not exist): a singleton
    // edge, so it is in no repair.
    let answers = answer(&hippo, &SjudQuery::rel("shipments")).unwrap().rows;
    assert_eq!(answers.len(), 2);
    assert!(answers.iter().all(|r| r[0] != Value::Int(7)));

    // The FD on parts still works in the same system.
    let answers = answer(&hippo, &SjudQuery::rel("parts")).unwrap().rows;
    assert_eq!(answers.len(), 2);
}

#[test]
fn foreign_key_restriction_enforced_end_to_end() {
    let mut db = inventory_db();
    db.execute("CREATE TABLE shipments (pid INT)").unwrap();
    // parts carries an FD, so it cannot be an FK parent.
    let result = Hippo::with_foreign_keys(
        db,
        vec![DenialConstraint::functional_dependency("parts", &[0], 1)],
        vec![ForeignKey::new("shipments", vec![0], "parts", vec![0])],
    );
    let err = match result {
        Err(e) => e,
        Ok(_) => panic!("restriction should have been rejected"),
    };
    assert!(err.message.contains("parent relation"), "{err}");
}

#[test]
fn intersect_sql_answers_match_algebra() {
    let hippo = Hippo::new(
        inventory_db(),
        vec![DenialConstraint::functional_dependency("parts", &[0], 1)],
    )
    .unwrap();
    let via_sql = answer_sql(
        &hippo,
        "SELECT * FROM parts INTERSECT SELECT * FROM parts WHERE weight >= 20",
    );
    let q = SjudQuery::rel("parts").select(Pred::cmp_const(1, CmpOp::Ge, 20i64));
    let direct = answer(&hippo, &q).unwrap().rows;
    assert_eq!(via_sql, direct);
}

/// An index that repeats a column is never an access path: a correlated
/// `EXISTS` on that column plans as a mark join by hash build instead of
/// panicking while it lays the key out in the index's order.
#[test]
fn index_repeating_a_column_is_not_an_access_path() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    db.execute("CREATE INDEX i ON t (a, a)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 2)").unwrap();
    for sql in [
        "SELECT * FROM t WHERE EXISTS (SELECT * FROM t AS u WHERE u.a = t.a)",
        "SELECT * FROM t WHERE a = 1",
    ] {
        let rows = db.query(sql).unwrap().rows;
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Int(2)]], "{sql}");
    }
}

/// Two keys an `f64` cannot tell apart (2^53 and 2^53 + 1) are two
/// facts: under `k → v` neither conflicts, so both are consistent in
/// every mode, and `ORDER BY` keeps them apart too.
#[test]
fn keys_beyond_f64_precision_stay_distinct() {
    const P53: i64 = 1 << 53;
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute(&format!(
        "INSERT INTO t VALUES ({}, 1), ({P53}, 1)",
        P53 + 1
    ))
    .unwrap();
    // Compared as text: the defect made the two `Value`s `==`.
    let sorted = db.query("SELECT k FROM t ORDER BY k").unwrap().rows;
    assert_eq!(
        format!("{sorted:?}"),
        format!("[[Int({P53})], [Int({})]]", P53 + 1)
    );

    let mut hippo = Hippo::new(
        db,
        vec![DenialConstraint::functional_dependency("t", &[0], 1)],
    )
    .unwrap();
    assert_eq!(hippo.graph().edge_count(), 0, "no conflict");
    let q = SjudQuery::rel("t");
    for options in [
        HippoOptions::base(),
        HippoOptions::kg(),
        HippoOptions::full(),
    ] {
        hippo.options = options;
        let rows = answer(&hippo, &q).unwrap().rows;
        assert_eq!(
            format!("{rows:?}"),
            format!("[[Int({P53}), Int(1)], [Int({}), Int(1)]]", P53 + 1),
            "{:?}",
            hippo.options
        );
    }
    let truth = naive_consistent_answers(&q, hippo.db().catalog(), hippo.graph());
    assert_eq!(truth.len(), 2);
}

/// SQL `=` equates `0.0` and `-0.0` whichever plan runs it: with
/// `a(x) = {0.0}` and `b(y) = {-0.0}`, a hash join on `a.x = b.y` and a
/// filter `a.x <= b.y AND a.x >= b.y` over a cross join both return the
/// pair, and so does every answer mode through the join, as the repair
/// oracle does. (A hash join used to compare its keys by `Value`
/// identity, which keeps the two zeros apart.)
#[test]
fn signed_zero_joins_under_sql_equality() {
    let mut db = Database::new();
    for sql in [
        "CREATE TABLE a (x REAL)",
        "CREATE TABLE b (y REAL)",
        "INSERT INTO a VALUES (0.0)",
        "INSERT INTO b VALUES (-0.0)",
    ] {
        db.execute(sql).unwrap();
    }
    // `Value` equality tells the zeros apart, so this pins the signs.
    let pair = vec![vec![Value::Float(0.0), Value::Float(-0.0)]];
    for (sql, operator) in [
        ("SELECT * FROM a, b WHERE a.x = b.y", "HashJoinExec"),
        (
            "SELECT * FROM a, b WHERE a.x <= b.y AND a.x >= b.y",
            "CrossJoinExec",
        ),
    ] {
        let plan = db.explain(sql).unwrap();
        assert!(plan.contains(operator), "{sql}\n{plan}");
        assert_eq!(db.query(sql).unwrap().rows, pair, "{sql}");
    }
    let mut hippo = Hippo::new(db, Vec::new()).unwrap();
    let q = sjud_from_sql("SELECT * FROM a, b WHERE a.x = b.y", hippo.db().catalog()).unwrap();
    for options in [
        HippoOptions::base(),
        HippoOptions::kg(),
        HippoOptions::full(),
    ] {
        hippo.options = options;
        assert_eq!(
            answer(&hippo, &q).unwrap().rows,
            pair,
            "{:?}",
            hippo.options
        );
    }
    let truth = naive_consistent_answers(&q, hippo.db().catalog(), hippo.graph());
    assert_eq!(truth, pair);
}

/// A `NaN` join key matches nothing under SQL `=`, as a `NaN` compares
/// to nothing in a selection; SQL text cannot spell `NaN`, so the rows
/// go in through the `Value` API.
#[test]
fn nan_join_keys_match_nothing() {
    let mut db = Database::new();
    db.execute("CREATE TABLE a (x REAL)").unwrap();
    db.execute("CREATE TABLE b (y REAL)").unwrap();
    for table in ["a", "b"] {
        db.insert_rows(
            table,
            vec![vec![Value::Float(f64::NAN)], vec![Value::Float(1.0)]],
        )
        .unwrap();
    }
    let sql = "SELECT * FROM a, b WHERE a.x = b.y";
    let one = vec![vec![Value::Float(1.0), Value::Float(1.0)]];
    assert!(db.explain(sql).unwrap().contains("HashJoinExec"));
    assert_eq!(db.query(sql).unwrap().rows, one);
    let hippo = Hippo::new(db, Vec::new()).unwrap();
    assert_eq!(answer_sql(&hippo, sql), one);
    let q = sjud_from_sql(sql, hippo.db().catalog()).unwrap();
    let truth = naive_consistent_answers(&q, hippo.db().catalog(), hippo.graph());
    assert_eq!(truth, one);
}
