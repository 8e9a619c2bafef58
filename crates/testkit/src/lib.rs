//! # hippo-testkit
//!
//! Oracles, generators and fixtures for testing the Hippo reproduction.
//! They live outside the library, so the oracles share no code path
//! with the system they check:
//!
//! * [`repair`] — repair enumeration over the conflict hypergraph;
//! * [`naive`] — CQA by intersecting over every repair, the "delete all
//!   conflicting tuples" strawman, plain evaluation, and the core filter
//!   evaluated set-at-a-time;
//! * [`workload`] — seeded synthetic instances for the paper tables, the
//!   examples and the suites;
//! * the fixtures the suites share: [`answer`], [`emp_db`], the two-table
//!   instance ([`ts_db`], [`ts_constraints`], [`arb_rows`]) and
//!   [`edge_set`].
//!
//! `hippo`, `hippo-cqa` and `hippo-server` take the kit as a
//! dev-dependency and `hippo-bench` as a dependency; no library crate
//! depends on it. A crate's own unit tests cannot share types with it
//! (cargo builds that crate twice), so a test that consults an oracle is
//! an integration test.

pub mod naive;
pub mod repair;
pub mod workload;

pub use naive::{
    conflict_free_answers, core_filter_direct, naive_consistent_answers, plain_answers,
};
pub use repair::{enumerate_repairs, is_repair, repair_instance, RepairKept};
pub use workload::{FdTableSpec, IntegrationWorkload, JoinWorkload};

use hippo_cqa::prelude::*;
use hippo_engine::{Database, EngineError, Row, Value};
use proptest::prelude::*;

/// A live system answers by freezing, then the one answer call.
pub fn answer(h: &Hippo, q: &SjudQuery) -> Result<ConsistentAnswer, EngineError> {
    h.freeze()?.answer(q, &h.options)
}

/// `emp(name TEXT, salary INT)` holding `rows`, without key or index.
pub fn emp_db(rows: &[(&str, i64)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE emp (name TEXT, salary INT)")
        .unwrap();
    let rows = rows
        .iter()
        .map(|&(n, s)| vec![Value::text(n), Value::Int(s)]);
    db.insert_rows("emp", rows.collect()).unwrap();
    db
}

/// The FD `name → salary` on [`emp_db`]'s table.
pub fn emp_fd() -> Vec<DenialConstraint> {
    vec![DenialConstraint::functional_dependency("emp", &[0], 1)]
}

/// Two tables `t(k INT, v INT)` and `s(k INT, v INT)` holding the given
/// rows.
pub fn ts_db(t_rows: &[(u32, u32)], s_rows: &[(u32, u32)]) -> Database {
    let mut db = Database::new();
    for (name, rows) in [("t", t_rows), ("s", s_rows)] {
        db.execute(&format!("CREATE TABLE {name} (k INT, v INT)"))
            .unwrap();
        let rows: Vec<Row> = rows
            .iter()
            .map(|&(k, v)| vec![Value::Int(k as i64), Value::Int(v as i64)])
            .collect();
        db.insert_rows(name, rows).unwrap();
    }
    db
}

/// FD on `t`, exclusion between `t` and `s`, and a CHECK denial on `t` —
/// the FD fast path, the hash-joined general path and the singleton
/// general path at once.
pub fn ts_constraints() -> Vec<DenialConstraint> {
    vec![
        DenialConstraint::functional_dependency("t", &[0], 1),
        DenialConstraint::exclusion("t", "s", &[(0, 0)]),
        DenialConstraint::check(
            "t",
            vec![Comparison {
                op: CmpOp::Ge,
                left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                right: Term::Const(Value::Int(3)),
            }],
        ),
    ]
}

/// Up to `max` rows for [`ts_db`], over key and value domains small
/// enough that FD violations, exclusion overlaps and CHECK hits all occur
/// at useful rates.
pub fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..8, 0u32..4), 0..max)
}

/// A graph's identity: its edges as sorted `(constraint, vertices)`
/// pairs.
pub fn edge_set(g: &ConflictHypergraph) -> Vec<(usize, Vec<Vertex>)> {
    let mut edges: Vec<(usize, Vec<Vertex>)> = g
        .edges()
        .map(|(id, e)| (g.edge_constraint(id), e.to_vec()))
        .collect();
    edges.sort();
    edges
}
