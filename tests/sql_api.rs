//! Integration tests for the SQL-facing API (`sjud_from_sql` → freeze →
//! `answer`) and
//! the restricted foreign-key extension, end to end through the umbrella
//! crate.

use hippo::cqa::naive::naive_consistent_answers;
use hippo::cqa::prelude::*;
use hippo::engine::{Database, Value};

/// A live system answers by freezing, then the one answer call.
fn answer(h: &Hippo, q: &SjudQuery) -> Result<ConsistentAnswer, hippo_engine::EngineError> {
    h.freeze()?.answer(q, &h.options)
}

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
