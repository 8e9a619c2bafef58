//! # hippo-engine
//!
//! A self-contained in-memory SQL RDBMS used as the backend of the Hippo
//! consistent-query-answering system (the role PostgreSQL played in the
//! original EDBT 2004 demonstration).
//!
//! The engine offers:
//!
//! * a [`Database`] facade: SQL text in, rows out ([`Database::execute`],
//!   [`DbSnapshot::query`]), plus bulk-load and direct catalog access.
//!   Reads have **one path**: every `SELECT` is a method of the
//!   read-only, `Sync` [`DbSnapshot`], and a `Database` reads through
//!   the snapshot it owns;
//! * a name-resolving binder ([`bind`]) lowering the `hippo-sql` AST to
//!   the engine's **one plan type**, [`plan::Plan`];
//! * an optimizer ([`optimize`]) of plan → plan rewrites (constant
//!   folding, predicate pushdown, cross-product → hash-join conversion)
//!   plus **access-path selection**
//!   ([`optimize::choose_access_paths`]), an in-place pass that turns
//!   equality predicates over indexed columns into O(1)
//!   [`plan::Plan::IndexLookup`] probes;
//! * **one production executor** ([`exec::execute_physical`]) with
//!   streamed filter/limit pipelines, hash joins, set operations (set
//!   and bag), grouping/aggregation, sorting, and correlated `EXISTS` /
//!   `IN` / scalar subqueries, all under one per-call budget. Its
//!   row-mode operators hand eligible subtrees to the **vectorized
//!   engine** ([`column`]): lazily maintained typed column stores per
//!   table (validity bitmaps, dictionary-encoded text) and
//!   batch-at-a-time filter/project/aggregate/hash-join over selection
//!   vectors, bit-identical to row mode (answers, errors, budget
//!   charges) — `EXPLAIN` shows which engine runs;
//! * a fully materialising **reference oracle** ([`exec::execute`])
//!   that no query reaches: [`DbSnapshot::run_plan`] and the
//!   differential suites run it to check the production executor
//!   row-for-row;
//! * row storage with **stable tuple identifiers** ([`table::Table`],
//!   [`table::TupleId`]) — the conflict hypergraph's vertices are physical
//!   tuples, so ids must survive unrelated deletions — and secondary
//!   hash indexes (auto-built on primary keys, or via `CREATE INDEX`)
//!   maintained incrementally through every mutation.
//!
//! ```
//! use hippo_engine::Database;
//! let mut db = Database::new();
//! db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
//! let r = db.query("SELECT b FROM t WHERE a = 2").unwrap();
//! assert_eq!(r.rows.len(), 1);
//! ```

pub mod bind;
pub mod budget;
pub mod catalog;
pub mod codec;
pub mod column;
pub mod db;
pub mod exec;
pub mod expr;
pub mod optimize;
pub mod plan;
pub mod schema;
pub mod table;
pub mod value;

pub use budget::{Budget, CancelHandle, CHECK_STRIDE};
pub use catalog::Catalog;
pub use column::{
    columnar_enabled, plan_uses_vectorized, set_columnar_override, ColumnBatch, ColumnData,
    ColumnStore, ColumnVector, BATCH_ROWS,
};
pub use db::{Database, DbSnapshot, ExecResult, QueryResult, SnapshotStatsView};
pub use expr::BoundExpr;
pub use optimize::choose_access_paths;
pub use plan::Plan;
pub use schema::{Column, DataType, EngineError, ErrorKind, TableSchema};
pub use table::{Table, TupleId};
pub use value::{Row, Value};
