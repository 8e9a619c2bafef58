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
//! * a name-resolving binder (`bind`) lowering the `hippo-sql` AST to
//!   the engine's **one plan type**, [`plan::Plan`];
//! * an optimizer (`optimize`) of plan → plan rewrites (constant
//!   folding, predicate pushdown, cross-product → hash-join conversion)
//!   plus **access-path selection**
//!   (`optimize::choose_access_paths`), an in-place pass that turns
//!   equality predicates over indexed columns into O(1)
//!   [`plan::Plan::IndexLookup`] probes and equi-correlated `EXISTS`
//!   into [`plan::Plan::MarkJoin`]s;
//! * **one production executor** (`exec::execute_physical`) with
//!   streamed filter/limit pipelines, hash joins, set operations (set
//!   and bag), grouping/aggregation, sorting, and correlated `EXISTS` /
//!   `IN` / scalar subqueries, all under one per-call budget. Its
//!   row-mode operators hand eligible subtrees to the **vectorized
//!   engine** (`column`): lazily maintained typed column stores per
//!   table (validity bitmaps, dictionary-encoded text) and
//!   batch-at-a-time filter/project/aggregate/hash-join over selection
//!   vectors, bit-identical to row mode (answers, errors, budget
//!   charges) — `EXPLAIN` shows which engine runs;
//! * a fully materialising **reference oracle** (`exec::execute`)
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

mod bind;
mod budget;
mod catalog;
pub mod codec;
mod column;
mod db;
mod exec;
mod expr;
mod keytable;
mod optimize;
mod plan;
pub mod schema;
mod table;
mod value;

pub use bind::BoundQuery;
pub use budget::{Budget, CancelHandle, CHECK_STRIDE};
pub use catalog::Catalog;
pub use column::set_columnar_override;
pub use db::{Database, DbSnapshot, ExecResult, QueryResult, SnapshotStatsView};
pub use expr::{BoundExpr, ScalarFunc};
pub use plan::{AggExpr, AggFunc, JoinType, Plan};
pub use schema::{Column, DataType, EngineError, ErrorKind, TableSchema};
pub use table::{CopyStats, Table, TupleId, INDEX_SHARDS};
pub use value::{Row, Value};
