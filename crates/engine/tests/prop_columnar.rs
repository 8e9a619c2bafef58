//! Differential property tests: the vectorized engine against row mode.
//!
//! Over random DML — NULLs in every column, `NaN` / `-0.0` floats,
//! `i64::MIN`, re-keying updates — every query template is executed
//! twice on the same instance, once with columnar execution forced on
//! and once forced off, and the two outcomes must agree **bit for
//! bit**: same rows in the same order (floats compared by bit pattern,
//! so `-0.0` vs `0.0` and `NaN` payloads count), or the same error
//! text (incomparable-type comparisons, `SUM` overflow), raised at the
//! same point. A second property pins the budget-charging parity: a
//! governed query must charge the same number of rows and trip (or
//! not) identically in both modes.
//!
//! The columnar override is process-global, so the tests in this
//! binary serialise on one lock.

use hippo_engine::{set_columnar_override, Database, Row, Value};
use proptest::prelude::*;
use std::sync::Mutex;

static TOGGLE: Mutex<()> = Mutex::new(());

/// `t` exercises every column type (plus a primary-key auto-index that
/// keeps point probes on the row-mode `IndexLookup` path); `u` is a
/// plain unindexed join partner.
fn fresh_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INT, f REAL, s TEXT, b BOOLEAN, PRIMARY KEY (k))")
        .unwrap();
    db.execute("CREATE TABLE u (k INT, f REAL)").unwrap();
    db
}

/// One mutation, encoded strategy-friendly: `(selector, a, b)`.
fn apply(db: &mut Database, selector: u32, a: u32, b: u32) {
    let k = a % 12;
    let s = ["x", "y", "zz", ""][(b % 4) as usize];
    let f = [0.5, -0.0, 2.0, -3.25][(b % 4) as usize];
    match selector % 10 {
        0 | 1 => {
            // `{f:?}` keeps the decimal point (`-0.0`, `2.0`) so the
            // literal lexes as a FLOAT, never an INT.
            let sql = format!(
                "INSERT INTO t VALUES ({k}, {f:?}, '{s}', {})",
                b.is_multiple_of(2)
            );
            db.execute(&sql).unwrap();
        }
        2 => {
            db.execute(&format!("INSERT INTO t VALUES ({k}, NULL, NULL, NULL)"))
                .unwrap();
        }
        // Edge values SQL text cannot spell: NaN, i64::MIN.
        3 => {
            db.insert_rows(
                "t",
                vec![vec![
                    Value::Int(i64::MIN),
                    Value::Float(f64::NAN),
                    Value::text(s),
                    Value::Bool(true),
                ]],
            )
            .unwrap();
        }
        4 => {
            db.execute(&format!("DELETE FROM t WHERE k = {k}")).unwrap();
        }
        // Re-keying update: moves rows across index buckets and
        // invalidates/rebuilds the column store.
        5 => {
            db.execute(&format!("UPDATE t SET k = {} WHERE k = {k}", b % 12))
                .unwrap();
        }
        6 => {
            db.execute(&format!("UPDATE t SET f = NULL, s = '{s}' WHERE k = {k}"))
                .unwrap();
        }
        _ => {
            db.insert_rows("u", vec![vec![Value::Int(k as i64), Value::Float(f)]])
                .unwrap();
        }
    }
}

/// Query templates; `{k}` substituted so predicates hit empty, full and
/// singleton selections alike.
fn queries(k: u32) -> Vec<String> {
    vec![
        // Projection over a bare scan (vectorized Select, batch charge).
        "SELECT k, s FROM t".to_string(),
        // Filters over each column type, including never/always matches.
        format!("SELECT k FROM t WHERE k >= {k}"),
        "SELECT k FROM t WHERE k = -999".to_string(),
        format!("SELECT s FROM t WHERE s = 'x' OR k = {k}"), // OR: row-mode fallback both ways
        "SELECT k FROM t WHERE s = 'zz' AND b = TRUE".to_string(),
        // NaN rows make both engines error here, at the same row.
        "SELECT k FROM t WHERE f > 0.0".to_string(),
        "SELECT k FROM t WHERE 0.0 < f".to_string(), // flipped operand order
        "SELECT k FROM t WHERE k < f".to_string(),   // column vs column, int vs float
        "SELECT k FROM t WHERE f IS NULL".to_string(),
        format!(
            "SELECT s FROM t WHERE s IS NOT NULL LIMIT 3 OFFSET {}",
            k % 4
        ),
        // Aggregation; SUM(k) overflows identically once i64::MIN rows pile up.
        "SELECT COUNT(*), COUNT(f), SUM(k) FROM t".to_string(),
        "SELECT s, COUNT(*), MIN(k), MAX(f) FROM t GROUP BY s".to_string(),
        "SELECT b, AVG(f), COUNT(DISTINCT s) FROM t GROUP BY b".to_string(),
        // Joins (vectorized hash join under a row-mode Sort).
        "SELECT t.k, u.f FROM t, u WHERE t.k = u.k ORDER BY t.k".to_string(),
        "SELECT t.k, u.k FROM t LEFT JOIN u ON t.k = u.k".to_string(),
        // Point probe through the pk index: row mode in both settings.
        format!("SELECT * FROM t WHERE k = {k}"),
        // Set op over two vectorized scans.
        format!("SELECT k FROM t WHERE k > {k} UNION ALL SELECT k FROM u"),
    ]
}

/// Bit-exact rendering of a result: floats by bit pattern, so `NaN`
/// payloads and `-0.0` cannot alias.
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

fn run_mode(db: &Database, q: &str, columnar: bool) -> Result<Vec<Vec<String>>, String> {
    set_columnar_override(columnar);
    let out = db
        .query(q)
        .map(|r| bits(&r.rows))
        .map_err(|e| e.to_string());
    set_columnar_override(true);
    out
}

fn arb_ops() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    prop::collection::vec((0u32..10, 0u32..12, 0u32..8), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn columnar_matches_row_mode_bit_for_bit(ops in arb_ops(), k in 0u32..14) {
        let _g = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        let mut db = fresh_db();
        for (selector, a, b) in ops {
            apply(&mut db, selector, a, b);
        }
        for q in queries(k) {
            let on = run_mode(&db, &q, true);
            let off = run_mode(&db, &q, false);
            prop_assert_eq!(on, off, "columnar != row mode on {}", q);
        }
        // Row accounting invariant: whichever engine ran, every base
        // row is counted by exactly one of the two row counters.
        let s = db.stats();
        prop_assert!(
            s.vectorized_rows > 0
                || s.rowmode_rows > 0
                || db.catalog().table("t").unwrap().is_empty()
        );
    }

    #[test]
    fn budget_charges_identically_in_both_modes(
        ops in arb_ops(),
        limit in 1u64..40,
    ) {
        let _g = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        let mut db = fresh_db();
        for (selector, a, b) in ops {
            apply(&mut db, selector, a, b);
        }
        for q in [
            "SELECT k, s FROM t",
            "SELECT k FROM t WHERE k >= 3",
            "SELECT s, COUNT(*) FROM t GROUP BY s",
            "SELECT t.k FROM t, u WHERE t.k = u.k",
            "SELECT s FROM t WHERE s IS NOT NULL LIMIT 2 OFFSET 1",
        ] {
            let mut outcomes = Vec::new();
            for columnar in [true, false] {
                set_columnar_override(columnar);
                let budget = hippo_engine::Budget::new().with_row_limit(limit);
                let res = db
                    .query_governed(q, Some(&budget), "prop")
                    .map(|r| bits(&r.rows))
                    .map_err(|e| e.to_string());
                set_columnar_override(true);
                outcomes.push((res, budget.rows_charged()));
            }
            let (on, off) = (outcomes.remove(0), outcomes.remove(0));
            prop_assert_eq!(on.0, off.0, "governed answers diverged on {}", q);
            prop_assert_eq!(on.1, off.1, "rows charged diverged on {}", q);
        }
    }
}
