//! The library against the test kit's oracles: repair enumeration
//! (`naive_consistent_answers`) and the set-at-a-time core filter
//! (`core_filter_direct`).
//!
//! These were unit tests of the modules named above each group. They
//! consult the kit, which depends on this crate, so they run here.

use hippo_cqa::corefilter::core_filter_set;
use hippo_cqa::prelude::*;
use hippo_engine::{Database, TupleId, Value};
use hippo_testkit::{
    answer, core_filter_direct, emp_db, emp_fd, naive_consistent_answers, FdTableSpec,
};

// ---- prover ----

#[test]
fn prover_matches_naive_on_small_fd_instance() {
    let db = emp_db(&[
        ("ann", 100),
        ("ann", 200),
        ("bob", 300),
        ("bob", 400),
        ("cyd", 5),
    ]);
    let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
        1,
        CmpOp::Ge,
        350i64,
    )));
    // No core filter: every emp row (the envelope) goes to the prover.
    let hippo = Hippo::with_options(db, emp_fd(), HippoOptions::kg()).unwrap();
    let got = answer(&hippo, &q).unwrap();
    assert_eq!((got.stats.candidates, got.stats.prover_calls), (5, 5));
    let truth = naive_consistent_answers(&q, hippo.db().catalog(), hippo.graph());
    assert_eq!(got.rows, truth);
}

// ---- rewrite ----

fn rewriting_agrees(db: &Database, constraints: &[DenialConstraint], q: &SjudQuery) {
    let (g, _) = detect_conflicts(db.catalog(), constraints).unwrap();
    let rewritten = rewritten_answers(q, constraints, db).unwrap();
    assert_eq!(rewritten, naive_consistent_answers(q, db.catalog(), &g));
}

#[test]
fn rewriting_matches_ground_truth_on_relation_query() {
    let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
    rewriting_agrees(&db, &emp_fd(), &SjudQuery::rel("emp"));
}

#[test]
fn rewriting_matches_ground_truth_with_selection() {
    let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300), ("cyd", 10)]);
    let q = SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 50i64));
    rewriting_agrees(&db, &emp_fd(), &q);
}

#[test]
fn rewriting_matches_ground_truth_on_join() {
    let mut db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
    db.execute("CREATE TABLE dept (dname TEXT, head TEXT)")
        .unwrap();
    db.execute("INSERT INTO dept VALUES ('cs', 'ann'), ('ee', 'bob')")
        .unwrap();
    // join emp and dept on head = name
    let q = SjudQuery::rel("emp")
        .product(SjudQuery::rel("dept"))
        .select(Pred::cmp_cols(0, CmpOp::Eq, 3));
    rewriting_agrees(&db, &emp_fd(), &q);
}

#[test]
fn rewriting_matches_ground_truth_with_exclusion_constraint() {
    // ann conflicts with a banned row in both directions.
    let mut db = emp_db(&[("ann", 100), ("bob", 200)]);
    db.execute("CREATE TABLE banned (name TEXT, x INT)")
        .unwrap();
    db.execute("INSERT INTO banned VALUES ('ann', 0)").unwrap();
    let constraints = [DenialConstraint::exclusion("emp", "banned", &[(0, 0)])];
    rewriting_agrees(&db, &constraints, &SjudQuery::rel("emp"));
}

#[test]
fn rewriting_matches_ground_truth_on_difference() {
    let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300), ("cyd", 10)]);
    let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
        1,
        CmpOp::Lt,
        50i64,
    )));
    rewriting_agrees(&db, &emp_fd(), &q);
}

#[test]
fn check_constraint_alone_is_supported_and_exact() {
    let db = emp_db(&[("ann", -5), ("bob", 10)]);
    let chk = [DenialConstraint::check(
        "emp",
        vec![Comparison {
            op: CmpOp::Lt,
            left: Term::Attr(AttrRef { atom: 0, col: 1 }),
            right: Term::Const(Value::Int(0)),
        }],
    )];
    rewriting_agrees(&db, &chk, &SjudQuery::rel("emp"));
}

// ---- sql_front ----

#[test]
fn end_to_end_sql_cqa_matches_ground_truth() {
    let mut db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
    db.execute("CREATE TABLE dept (head TEXT, budget INT)")
        .unwrap();
    db.execute("INSERT INTO dept VALUES ('bob', 1000), ('ann', 500)")
        .unwrap();
    let hippo = Hippo::new(db, emp_fd()).unwrap();
    let sqls = [
        "SELECT * FROM emp",
        "SELECT * FROM emp WHERE salary >= 150",
        "SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE salary < 150",
        "SELECT e.name, e.salary, d.head, d.budget FROM emp e INNER JOIN dept d ON e.name = d.head",
    ];
    for sql in sqls {
        let q = sjud_from_sql(sql, hippo.db().catalog()).unwrap();
        let truth = naive_consistent_answers(&q, hippo.db().catalog(), hippo.graph());
        assert_eq!(answer(&hippo, &q).unwrap().rows, truth, "{sql}");
    }
}

// ---- inclusion ----

/// `orders.cust` references `customers.cid`; order 102 is an orphan and
/// order 103's `NULL` reference violates nothing.
fn orders_db() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE orders (id INT, cust INT)")
        .unwrap();
    db.execute("CREATE TABLE customers (cid INT, tier INT)")
        .unwrap();
    db.execute("INSERT INTO customers VALUES (1, 10), (2, 20)")
        .unwrap();
    db.execute("INSERT INTO orders VALUES (100, 1), (101, 2), (102, 9), (103, NULL)")
        .unwrap();
    db
}

fn orders_fk() -> Vec<ForeignKey> {
    vec![ForeignKey::new("orders", vec![1], "customers", vec![0])]
}

#[test]
fn orphan_is_in_no_repair() {
    let hippo = Hippo::with_foreign_keys(orders_db(), vec![], orders_fk()).unwrap();
    let q = SjudQuery::rel("orders");
    let answers = naive_consistent_answers(&q, hippo.db().catalog(), hippo.graph());
    assert_eq!(answers.len(), 3, "orphan dropped from every repair");
    assert!(answers.iter().all(|r| r[0] != Value::Int(102)));
}

#[test]
fn fk_combines_with_fd_detection() {
    // FD on orders + FK: both kinds of edges in one hypergraph.
    let mut db = orders_db();
    db.execute("INSERT INTO orders VALUES (100, 2)").unwrap(); // FD conflict on id
    let denials = vec![DenialConstraint::functional_dependency("orders", &[0], 1)];
    let hippo = Hippo::with_foreign_keys(db, denials, orders_fk()).unwrap();
    assert_eq!(hippo.graph().edge_count(), 2);
    // Ground truth still works on the combined hypergraph.
    let q = SjudQuery::rel("orders");
    let answers = naive_consistent_answers(&q, hippo.db().catalog(), hippo.graph());
    // 101, 103 always; 100 appears with two cust values → neither kept
    // consistently; 102 orphan → never.
    assert_eq!(answers.len(), 2);
}

// ---- hippo::pipeline ----

#[test]
fn all_option_levels_agree_with_ground_truth() {
    let rows = [
        ("ann", 100),
        ("ann", 200),
        ("bob", 300),
        ("cyd", 50),
        ("cyd", 60),
        ("dee", 400),
    ];
    let queries = [
        SjudQuery::rel("emp"),
        SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 150i64)),
        SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
            1,
            CmpOp::Lt,
            150i64,
        ))),
        SjudQuery::rel("emp")
            .select(Pred::cmp_const(1, CmpOp::Lt, 150i64))
            .union(SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 250i64))),
        SjudQuery::rel("emp").permute(vec![1, 0]),
    ];
    for opts in [
        HippoOptions::base(),
        HippoOptions::kg(),
        HippoOptions::full(),
    ] {
        let hippo = Hippo::with_options(emp_db(&rows), emp_fd(), opts.clone()).unwrap();
        for q in &queries {
            let got = answer(&hippo, q).unwrap().rows;
            let truth = naive_consistent_answers(q, hippo.db().catalog(), hippo.graph());
            assert_eq!(got, truth, "query {q} options {opts:?}");
        }
    }
}

// ---- hippo::reconcile ----

#[test]
fn general_denial_delta_is_seeded_not_outer_scanned() {
    // Exclusion between emp and contractor; the delta lands in the
    // *second* atom, which used to force an O(outer) rescan of emp.
    let mut db = emp_db(&[("ann", 100), ("bob", 200), ("cyd", 300), ("dee", 400)]);
    db.execute("CREATE TABLE contractor (name TEXT, rate INT)")
        .unwrap();
    let constraints = vec![DenialConstraint::exclusion("emp", "contractor", &[(0, 0)])];
    let mut hippo = Hippo::new(db, constraints).unwrap();
    assert_eq!(hippo.graph().edge_count(), 0);
    hippo
        .insert_tuples("contractor", vec![vec![Value::text("bob"), Value::Int(50)]])
        .unwrap();
    let stats = hippo.redetect().unwrap();
    assert!(stats.incremental);
    assert_eq!(hippo.graph().edge_count(), 1, "bob is in both relations");
    // Seeded delta: the new tuple plus its single join match — not
    // the 4-row emp outer atom.
    assert!(
        stats.combinations_checked <= 2,
        "delta join must not rescan the outer atom (checked {})",
        stats.combinations_checked
    );
    // Deleting the tuple clears the conflict incrementally too.
    let last = hippo
        .db()
        .catalog()
        .table("contractor")
        .unwrap()
        .slot_count()
        - 1;
    hippo
        .delete_tuples("contractor", &[TupleId(last as u32)])
        .unwrap();
    let stats = hippo.redetect().unwrap();
    assert!(stats.incremental);
    assert_eq!(hippo.graph().edge_count(), 0);

    // At scale, with an FD riding along: the same one-row delta
    // checks at most 1% of the combinations the full pass does.
    let spec = FdTableSpec::new("t", 2000, 0.02, 83);
    let mut db = Database::new();
    spec.populate(&mut db).unwrap();
    db.execute("CREATE TABLE s (k INT, v INT, payload INT)")
        .unwrap();
    let excl = DenialConstraint::exclusion("t", "s", &[(0, 0)]);
    let mut hippo = Hippo::new(db, vec![spec.fd(), excl]).unwrap();
    let full = hippo.redetect_full().unwrap().combinations_checked;
    hippo
        .insert_tuples("s", vec![vec![Value::Int(0), Value::Int(0), Value::Int(0)]])
        .unwrap();
    let delta = hippo.redetect().unwrap();
    assert!(delta.incremental);
    assert!(
        delta.combinations_checked * 100 <= full,
        "delta combos {} vs full {full}",
        delta.combinations_checked
    );
}

// ---- corefilter ----

#[test]
fn per_candidate_test_matches_direct_evaluation() {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("CREATE TABLE u (k INT, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (1, 20), (2, 30), (3, 40), (3, 40)")
        .unwrap();
    db.execute("INSERT INTO u VALUES (2, 30), (9, 90)").unwrap();
    let constraints = [DenialConstraint::functional_dependency("t", &[0], 1)];
    let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
    let queries = vec![
        SjudQuery::rel("t"),
        SjudQuery::rel("t").select(Pred::cmp_const(1, CmpOp::Ge, 20i64)),
        SjudQuery::rel("t").diff(SjudQuery::rel("u")),
        SjudQuery::rel("t").union(SjudQuery::rel("u")),
        SjudQuery::rel("t")
            .product(SjudQuery::rel("u"))
            .select(Pred::cmp_cols(0, CmpOp::Eq, 2)),
        SjudQuery::rel("t")
            .permute(vec![1, 0])
            .diff(SjudQuery::rel("u").permute(vec![1, 0])),
        // A subtraction nested in a subtracted branch is dropped.
        SjudQuery::rel("t").diff(SjudQuery::rel("u").diff(SjudQuery::rel("t"))),
    ];
    for q in queries {
        let direct = core_filter_direct(&q, db.catalog(), &g);
        let per_candidate = core_filter_set(&q, db.catalog(), &g);
        assert_eq!(per_candidate, direct, "mismatch for {q}");
    }
}
