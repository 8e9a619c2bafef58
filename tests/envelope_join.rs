//! Differential test of envelope-shaped joins: a hash join over two
//! `DISTINCT` sides, each a projection of a (filtered) scan — the shape
//! of a join query's extended envelope.
//!
//! Over random instances with `NULL` keys, duplicate rows, `0.0`/`-0.0`,
//! `NaN`, integers an `f64` cannot tell apart and `TEXT` keys, every
//! query runs three ways: columnar execution on, columnar off (the
//! row-mode operators), and the reference oracle (`run_plan`, which
//! joins by nested loop and deduplicates by search). All three must
//! return the same rows in the same order, or the same error. Columnar
//! on and off must also charge a governed budget identically (rows and
//! checks, whether or not it trips); the vectorized join walks no row
//! in row mode.
//! The vectorized join must report exactly the engine counters of
//! running its two sides on their own, which is what the row-mode join
//! over vectorized sides reports.

use hippo::engine::{set_columnar_override, Budget, Database, Row, SnapshotStatsView, Value};
use proptest::prelude::*;
use std::sync::Mutex;

/// The columnar switch is process-wide: tests in this binary take turns.
static TOGGLE: Mutex<()> = Mutex::new(());

const P53: i64 = 1 << 53;

fn arb_row() -> impl Strategy<Value = Row> {
    let k = prop_oneof![
        Just(Value::Null),
        (0i64..3).prop_map(Value::Int),
        Just(Value::Int(P53)),
        Just(Value::Int(P53 + 1)),
    ];
    let f = prop_oneof![
        Just(Value::Null),
        Just(Value::Float(0.0)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(1.0)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(P53 as f64)),
    ];
    let s = prop_oneof![
        Just(Value::Null),
        Just(Value::text("")),
        Just(Value::text("x")),
        Just(Value::text("y")),
    ];
    let p = prop_oneof![Just(Value::Null), (0i64..4).prop_map(Value::Int)];
    (k, f, s, p).prop_map(|(k, f, s, p)| vec![k, f, s, p])
}

fn build_db(r: Vec<Row>, u: Vec<Row>) -> Database {
    let mut db = Database::new();
    for name in ["r", "u"] {
        db.execute(&format!(
            "CREATE TABLE {name} (k INT, f REAL, s TEXT, p INT)"
        ))
        .unwrap();
    }
    db.insert_rows("r", r).unwrap();
    db.insert_rows("u", u).unwrap();
    db
}

/// `(left side, right side, join)`: each side is a query of its own,
/// and the join selects from both as `a` and `b`.
fn shapes() -> Vec<(&'static str, &'static str, String)> {
    let join = |cols: &str, a: &str, how: &str, b: &str, on: &str| {
        format!("SELECT {cols} FROM ({a}) AS a {how} ({b}) AS b ON {on}")
    };
    let mut out = Vec::new();
    let mut add = |a: &'static str, b: &'static str, cols: &str, how: &str, on: &str| {
        out.push((a, b, join(cols, a, how, b, on)));
    };
    // The envelope itself: a filtered side and a plain one, all columns.
    add(
        "SELECT DISTINCT k, f, s, p FROM r WHERE p >= 2",
        "SELECT DISTINCT k, f, s, p FROM u",
        "*",
        "JOIN",
        "a.k = b.k",
    );
    // Projections that reorder and drop columns; a LEFT join.
    add(
        "SELECT DISTINCT p, k FROM r",
        "SELECT DISTINCT s, k FROM u WHERE p IS NOT NULL",
        "b.s, a.p",
        "LEFT JOIN",
        "a.k = b.k",
    );
    // TEXT keys, two-column keys.
    add(
        "SELECT DISTINCT s, p FROM r WHERE s IS NOT NULL",
        "SELECT DISTINCT p, s, k FROM u",
        "*",
        "JOIN",
        "a.s = b.s AND a.p = b.p",
    );
    // FLOAT keys (identity: 0.0 and -0.0 differ, NaN meets NaN), and an
    // INT key against a FLOAT key.
    add(
        "SELECT DISTINCT f FROM r",
        "SELECT DISTINCT f, s FROM u",
        "*",
        "LEFT JOIN",
        "a.f = b.f",
    );
    add(
        "SELECT DISTINCT k FROM r WHERE k IS NOT NULL",
        "SELECT DISTINCT f FROM u",
        "*",
        "JOIN",
        "a.k = b.f",
    );
    // A side without DISTINCT, and a filter that errors on NaN data.
    add(
        "SELECT k, s FROM r WHERE f > 0.5",
        "SELECT DISTINCT k FROM u",
        "*",
        "JOIN",
        "a.k = b.k",
    );
    out
}

/// Rows with floats by bit pattern, so `-0.0` and `NaN` cannot alias.
fn bits(rows: &[Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Float(f) => format!("f:{:016x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect()
        })
        .collect()
}

type Outcome = Result<Vec<Vec<String>>, String>;

/// Run `sql` with columnar execution `on` or off: the outcome and the
/// engine counters it moved.
fn run(db: &Database, sql: &str, on: bool) -> (Outcome, SnapshotStatsView) {
    set_columnar_override(on);
    db.reset_stats();
    let out = db
        .query(sql)
        .map(|r| bits(&r.rows))
        .map_err(|e| e.to_string());
    set_columnar_override(true);
    (out, db.stats())
}

/// Run `sql` under a row budget: the outcome, rows charged and checks.
fn governed(db: &Database, sql: &str, on: bool, limit: u64) -> (Outcome, u64, u64) {
    set_columnar_override(on);
    let budget = Budget::new().with_row_limit(limit);
    let out = db
        .query_governed(sql, Some(&budget), "envelope")
        .map(|r| bits(&r.rows))
        .map_err(|e| e.to_string());
    set_columnar_override(true);
    (out, budget.rows_charged(), budget.checks())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn envelope_joins_agree_across_engines_and_the_oracle(
        r in prop::collection::vec(arb_row(), 0..20),
        u in prop::collection::vec(arb_row(), 0..20),
        limit in 1u64..60,
    ) {
        let _g = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        let db = build_db(r, u);
        for (a, b, sql) in shapes() {
            let (on, on_stats) = run(&db, &sql, true);
            let (off, off_stats) = run(&db, &sql, false);
            let plan = db.physical_plan(&sql).unwrap();
            let oracle: Outcome = db
                .run_plan(&plan)
                .map(|rows| bits(&rows))
                .map_err(|e| e.to_string());
            prop_assert_eq!(&on, &off, "columnar on vs off: {}", sql);
            prop_assert_eq!(&on, &oracle, "production vs oracle: {}", sql);
            prop_assert_eq!(off_stats.batches_executed, 0);

            if on.is_ok() {
                // The join runs on column batches end to end, so no
                // row-mode operator walks a row; row mode reads the same
                // base rows and walks its `DISTINCT` inputs besides.
                prop_assert_eq!(on_stats.rowmode_rows, 0, "{}", sql);
                prop_assert!(
                    off_stats.rowmode_rows >= on_stats.vectorized_rows,
                    "{}", sql
                );
                // The join reports what its sides report on their own.
                let (_, sa) = run(&db, a, true);
                let (_, sb) = run(&db, b, true);
                prop_assert_eq!(
                    (on_stats.batches_executed, on_stats.vectorized_rows, on_stats.rowmode_rows),
                    (
                        sa.batches_executed + sb.batches_executed,
                        sa.vectorized_rows + sb.vectorized_rows,
                        sa.rowmode_rows + sb.rowmode_rows,
                    ),
                    "{}", sql
                );
            }

            // Governed: a budget that may trip, and one that never does.
            for rows in [limit, u64::MAX] {
                let g_on = governed(&db, &sql, true, rows);
                let g_off = governed(&db, &sql, false, rows);
                prop_assert_eq!(g_on, g_off, "governed ({} rows): {}", rows, sql);
            }
        }
    }
}

/// The envelope join runs on column batches end to end, and `EXPLAIN`
/// says so on the join itself.
#[test]
fn envelope_join_explains_as_vectorized() {
    let _g = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let db = build_db(Vec::new(), Vec::new());
    let (_, _, sql) = &shapes()[0];
    let plan = db.explain(sql).unwrap();
    let join = plan.lines().find(|l| l.contains("HashJoinExec")).unwrap();
    assert!(join.ends_with(" [vectorized]"), "{plan}");
    assert!(plan.ends_with("execution: vectorized\n"), "{plan}");
}

/// SQL `=` between an `INT` and a `FLOAT` is exact whichever plan runs
/// it: a hash join on key identity, a filter over a cross join, and a
/// filter of a column against a literal, each with columnar execution on
/// and off, pair 2^53 with 2^53.0 and 2^53 + 1 with nothing.
#[test]
fn int_float_equality_agrees_across_plans() {
    let _g = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let mut db = Database::new();
    db.execute("CREATE TABLE r (k INT)").unwrap();
    db.execute("CREATE TABLE u (f REAL)").unwrap();
    db.execute(&format!("INSERT INTO r VALUES ({}), ({P53})", P53 + 1))
        .unwrap();
    db.execute(&format!("INSERT INTO u VALUES ({P53}.0)"))
        .unwrap();
    let k53 = Ok(vec![vec![format!("{:?}", Value::Int(P53))]]);
    let f53 = Ok(vec![vec![format!("f:{:016x}", (P53 as f64).to_bits())]]);
    let none: Outcome = Ok(Vec::new());
    for (sql, plan_has, want) in [
        ("SELECT r.k FROM r, u WHERE r.k = u.f", "HashJoinExec", &k53),
        ("SELECT r.k FROM r, u WHERE u.f = r.k", "HashJoinExec", &k53),
        (
            "SELECT r.k FROM r, u WHERE r.k <= u.f AND r.k >= u.f",
            "CrossJoinExec",
            &k53,
        ),
        (
            &format!("SELECT k FROM r WHERE k = {P53}.0"),
            "Filter",
            &k53,
        ),
        (
            &format!("SELECT k FROM r WHERE {P53}.0 >= k"),
            "Filter",
            &k53,
        ),
        (
            &format!("SELECT f FROM u WHERE f = {}", P53 + 1),
            "Filter",
            &none,
        ),
        (
            &format!("SELECT f FROM u WHERE f < {}", P53 + 1),
            "Filter",
            &f53,
        ),
    ] {
        let plan = db.explain(sql).unwrap();
        assert!(plan.contains(plan_has), "{sql}\n{plan}");
        for on in [true, false] {
            assert_eq!(&run(&db, sql, on).0, want, "{sql} (columnar {on})");
        }
    }
}

/// `DISTINCT` reads a first-occurrence bitmap kept with the column
/// store, so a write must never leave a stale one behind: after an
/// exact duplicate and a fresh row are inserted, the new epoch's
/// whole-row `DISTINCT` (a selection root and a join side, filtered and
/// not) sees both changes, and a snapshot pinned before the write still
/// answers from its own instance.
#[test]
fn distinct_after_insert_sees_the_new_epoch_and_the_pinned_snapshot_does_not() {
    let _g = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let row = |k: i64, f: f64, p: i64| {
        vec![
            Value::Int(k),
            Value::Float(f),
            Value::text("x"),
            Value::Int(p),
        ]
    };
    let mut db = build_db(
        vec![row(1, 0.0, 3), row(1, 0.0, 3), row(2, -0.0, 1)],
        vec![row(1, 1.0, 0), row(2, 1.0, 0)],
    );
    let queries = [
        "SELECT DISTINCT * FROM r",
        "SELECT DISTINCT p, s, f, k FROM r WHERE p >= 2",
        "SELECT * FROM (SELECT DISTINCT * FROM r) AS a, (SELECT DISTINCT k FROM u) AS b \
         WHERE a.k = b.k",
    ];
    let before: Vec<Outcome> = queries.iter().map(|q| run(&db, q, true).0).collect();
    assert_eq!(before[0].as_ref().unwrap().len(), 2);
    let pinned = db.snapshot();
    db.insert_rows("r", vec![row(2, -0.0, 1), row(3, 2.0, 5)])
        .unwrap();
    for (q, was) in queries.iter().zip(&before) {
        let after = run(&db, q, true).0;
        assert_eq!(after, run(&db, q, false).0, "{q}");
        let then = pinned
            .query(q)
            .map(|r| bits(&r.rows))
            .map_err(|e| e.to_string());
        assert_eq!(&then, was, "pinned snapshot moved: {q}");
    }
    let all = run(&db, queries[0], true).0.unwrap();
    assert_eq!(all.len(), 3, "one fresh row, the duplicate collapses");
    let filtered = run(&db, queries[1], true).0.unwrap();
    assert_eq!(filtered.len(), 2);
    let joined = run(&db, queries[2], true).0.unwrap();
    assert_eq!(joined.len(), 2, "key 3 has no partner in u");
}
