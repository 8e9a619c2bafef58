//! The `Database` facade: SQL in, rows out.
//!
//! This is the interface shape Hippo used against PostgreSQL over JDBC —
//! the CQA layer only ever submits SQL text (envelope queries, membership
//! queries) and reads back row sets. A direct typed API is also provided
//! for bulk loading and for the conflict detector's fast paths.
//!
//! # One reader
//!
//! Every read — `SELECT`, `EXPLAIN`, planning — is a
//! method of [`DbSnapshot`]: a read-only, `Sync`, cheaply-cloneable
//! handle that evaluates queries against an immutable catalog with
//! **zero locking**. A [`Database`] is a snapshot it owns plus the
//! mutating statements: it dereferences to its `DbSnapshot` (the way a
//! `String` reads through `str`), so `db.query(..)` and
//! `snapshot.query(..)` are the same code, and only DDL/DML live on
//! `Database` itself.
//!
//! [`Database::snapshot`] freezes the current instance into an
//! independent [`DbSnapshot`]. The catalog sits behind an [`Arc`], so
//! taking a snapshot is one reference-count bump. The first mutation
//! *after* a snapshot clones the catalog ([`Arc::make_mut`]), which
//! copies no row: tables keep their rows in `Arc`'d chunks and their
//! hash indexes in `Arc`'d shards (see [`crate::table`]), and a clone
//! shares them all. Each write then copies only what it touches — the
//! chunk holding its slot and one shard per index whose key it changes
//! (two for a re-keying update) — so a one-row write costs O(chunk),
//! not O(table), and the table a write does not touch costs nothing.
//! Statistics
//! are per-lineage atomics (shared by clones of one snapshot, fresh
//! for every `Database::snapshot()` call), never the live database's
//! counters — which is exactly what lets many prover shards hammer one
//! snapshot concurrently while the query-count bookkeeping stays exact.

use crate::bind::{bind_const_expr, bind_query, bind_table_expr, BoundQuery};
use crate::catalog::Catalog;
use crate::exec::{execute, execute_physical};
use crate::expr::{eval, EvalEnv};
use crate::optimize::{choose_access_paths, optimize};
use crate::plan::Plan;
use crate::schema::{Column, EngineError, TableSchema};
use crate::table::TupleId;
use crate::value::{Row, Value};
use hippo_sql::{parse_statement, parse_statements, InsertSource, Statement};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecResult {
    /// A query result: column names and rows.
    Rows(QueryResult),
    /// Rows affected by DML, or 0 for DDL.
    Count(usize),
}

/// A query result set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// The rows.
    pub rows: Vec<Row>,
}

/// An in-memory SQL database: a [`DbSnapshot`] it owns (through which
/// every read goes — see the module docs) plus DDL/DML.
///
/// The catalog lives behind an [`Arc`] so [`Database::snapshot`] is a
/// reference-count bump; mutation goes through [`Arc::make_mut`], which
/// clones the catalog only when a snapshot taken earlier is still alive.
/// That clone shares every row chunk and index shard; a write then
/// copies just the chunk and shards it touches (copy-on-write — an
/// unshared database mutates in place).
#[derive(Debug, Default)]
pub struct Database {
    reader: DbSnapshot,
}

/// Reads on a `Database` are reads on the snapshot it owns.
impl std::ops::Deref for Database {
    type Target = DbSnapshot;

    fn deref(&self) -> &DbSnapshot {
        &self.reader
    }
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Rebuild a live database from a frozen catalog (e.g. one cloned
    /// out of a [`DbSnapshot`]). The chaos/oracle harnesses use this to
    /// replay a published epoch's exact instance through a fresh,
    /// serial system and compare answers bit-for-bit.
    pub fn from_catalog(catalog: Catalog) -> Database {
        Database {
            reader: DbSnapshot {
                catalog: Arc::new(catalog),
                stats: Default::default(),
            },
        }
    }

    /// Read access to the catalog (used by conflict detection fast paths).
    pub fn catalog(&self) -> &Catalog {
        self.reader.catalog()
    }

    /// Mutable access to the catalog. Copy-on-write: if a
    /// [`DbSnapshot`] still shares it, the catalog is cloned here — a
    /// reference-count bump per row chunk and index shard, no row
    /// copied — and each later write copies only the chunk and shards
    /// it touches while the snapshot shares them; otherwise this is a
    /// plain borrow.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        Arc::make_mut(&mut self.reader.catalog)
    }

    /// Freeze the current instance into a read-only, `Sync`,
    /// cheaply-cloneable snapshot with its own (zeroed) statistics.
    /// Cost: one `Arc` clone — no row is copied now. While the snapshot
    /// lives, each mutation of this database copies the one row chunk
    /// and the index shards it touches (copy-on-write), never a table.
    pub fn snapshot(&self) -> DbSnapshot {
        DbSnapshot {
            catalog: Arc::clone(&self.reader.catalog),
            stats: Default::default(),
        }
    }

    /// Reset this database's statistics counters (see
    /// [`DbSnapshot::stats`]).
    pub fn reset_stats(&self) {
        let s = &self.reader.stats;
        for counter in [
            &s.queries,
            &s.statements,
            &s.index_probes,
            &s.scan_probes,
            &s.batches_executed,
            &s.vectorized_rows,
            &s.rowmode_rows,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    fn bump_statements(&self) {
        self.reader.stats.statements.fetch_add(1, Ordering::Relaxed);
    }

    /// Execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<ExecResult, EngineError> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(&stmt)
    }

    /// Execute a `;`-separated script; returns the last statement's result.
    pub fn execute_script(&mut self, sql: &str) -> Result<ExecResult, EngineError> {
        let stmts = parse_statements(sql)?;
        let mut last = ExecResult::Count(0);
        for stmt in &stmts {
            last = self.execute_statement(stmt)?;
        }
        Ok(last)
    }

    fn execute_statement(&mut self, stmt: &Statement) -> Result<ExecResult, EngineError> {
        match stmt {
            Statement::Select(q) => Ok(ExecResult::Rows(self.run_query_ast(q, None, "engine")?)),
            Statement::Explain(q) => {
                // Plans but never executes: no query/probe counters move,
                // mirroring the diagnostic `DbSnapshot::explain` API.
                let plan = self.bind_with_access_paths(q)?.plan;
                Ok(ExecResult::Rows(QueryResult {
                    columns: vec!["plan".to_string()],
                    rows: render_explain(&plan, self.catalog())
                        .lines()
                        .map(|l| vec![Value::text(l)])
                        .collect(),
                }))
            }
            Statement::CreateTable(ct) => {
                self.bump_statements();
                if ct.if_not_exists && self.catalog().contains(&ct.name) {
                    return Ok(ExecResult::Count(0));
                }
                let columns: Vec<Column> = ct
                    .columns
                    .iter()
                    .map(|c| Column {
                        name: c.name.clone(),
                        ty: c.ty.into(),
                        not_null: c.not_null,
                    })
                    .collect();
                let pk: Vec<&str> = ct.primary_key.iter().map(String::as_str).collect();
                let schema = TableSchema::new(ct.name.clone(), columns, &pk)?;
                self.catalog_mut().create_table(schema)?;
                Ok(ExecResult::Count(0))
            }
            Statement::CreateIndex(ci) => {
                self.bump_statements();
                // Resolve and decide through the shared reference first:
                // the no-op paths (IF NOT EXISTS, identical re-create)
                // must not trigger a copy-on-write catalog clone when a
                // snapshot is alive.
                let cols: Vec<usize> = {
                    let t = self.catalog().table(&ci.table)?;
                    let cols: Vec<usize> = ci
                        .columns
                        .iter()
                        .map(|c| {
                            t.schema.column_index(c).ok_or_else(|| {
                                EngineError::new(format!(
                                    "unknown column {c:?} in CREATE INDEX on {:?}",
                                    ci.table
                                ))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    match t.named_index(&ci.name) {
                        Some(existing) if ci.if_not_exists || *existing == cols => {
                            return Ok(ExecResult::Count(0));
                        }
                        Some(_) => {
                            return Err(EngineError::new(format!(
                                "index {:?} already exists on table {:?} with different columns",
                                ci.name, ci.table
                            )));
                        }
                        None => {}
                    }
                    cols
                };
                let t = self.catalog_mut().table_mut(&ci.table)?;
                t.create_named_index(ci.name.clone(), cols)?;
                Ok(ExecResult::Count(0))
            }
            Statement::DropTable { name, if_exists } => {
                self.bump_statements();
                self.catalog_mut().drop_table(name, *if_exists)?;
                Ok(ExecResult::Count(0))
            }
            Statement::Insert(ins) => {
                self.bump_statements();
                let rows: Vec<Row> = match &ins.source {
                    InsertSource::Values(value_rows) => {
                        let mut out = Vec::with_capacity(value_rows.len());
                        for vr in value_rows {
                            let row: Row = vr
                                .iter()
                                .map(|e| {
                                    let bound = bind_const_expr(self.catalog(), e)?;
                                    let mut env = EvalEnv::new(self.catalog());
                                    eval(&bound, &[], &mut env)
                                })
                                .collect::<Result<_, _>>()?;
                            out.push(row);
                        }
                        out
                    }
                    InsertSource::Query(q) => self.run_query_ast(q, None, "engine")?.rows,
                };
                let n = self.insert_rows_ordered(&ins.table, &ins.columns, rows)?;
                Ok(ExecResult::Count(n))
            }
            Statement::Delete { table, filter } => {
                self.bump_statements();
                let pred = match filter {
                    Some(f) => Some(bind_table_expr(self.catalog(), table, f)?),
                    None => None,
                };
                // Two-phase: find ids, then delete (no iterator invalidation).
                let ids: Vec<TupleId> = {
                    let t = self.catalog().table(table)?;
                    let mut ids = Vec::new();
                    for (id, row) in t.iter() {
                        let keep = match &pred {
                            Some(p) => {
                                let mut env = EvalEnv::new(self.catalog());
                                eval(p, row, &mut env)? == Value::Bool(true)
                            }
                            None => true,
                        };
                        if keep {
                            ids.push(id);
                        }
                    }
                    ids
                };
                let t = self.catalog_mut().table_mut(table)?;
                let mut n = 0;
                for id in ids {
                    if t.delete(id).is_some() {
                        n += 1;
                    }
                }
                Ok(ExecResult::Count(n))
            }
            Statement::Update {
                table,
                assignments,
                filter,
            } => {
                self.bump_statements();
                let pred = match filter {
                    Some(f) => Some(bind_table_expr(self.catalog(), table, f)?),
                    None => None,
                };
                let mut bound_assignments = Vec::with_capacity(assignments.len());
                {
                    let t = self.catalog().table(table)?;
                    for (col, e) in assignments {
                        let idx = t.schema.column_index(col).ok_or_else(|| {
                            EngineError::new(format!("unknown column {col:?} in UPDATE"))
                        })?;
                        bound_assignments.push((idx, bind_table_expr(self.catalog(), table, e)?));
                    }
                }
                let updates: Vec<(TupleId, Row)> = {
                    let t = self.catalog().table(table)?;
                    let mut updates = Vec::new();
                    for (id, row) in t.iter() {
                        let hit = match &pred {
                            Some(p) => {
                                let mut env = EvalEnv::new(self.catalog());
                                eval(p, row, &mut env)? == Value::Bool(true)
                            }
                            None => true,
                        };
                        if hit {
                            let mut new_row = row.clone();
                            for (idx, e) in &bound_assignments {
                                let mut env = EvalEnv::new(self.catalog());
                                new_row[*idx] = eval(e, row, &mut env)?;
                            }
                            updates.push((id, new_row));
                        }
                    }
                    updates
                };
                let n = updates.len();
                let t = self.catalog_mut().table_mut(table)?;
                for (id, new_row) in updates {
                    t.update(id, new_row)?;
                }
                Ok(ExecResult::Count(n))
            }
        }
    }

    /// Bulk insert with an optional explicit column order (empty = table
    /// order). Used by `INSERT` and by workload generators.
    pub(crate) fn insert_rows_ordered(
        &mut self,
        table: &str,
        columns: &[String],
        rows: Vec<Row>,
    ) -> Result<usize, EngineError> {
        let t = self.catalog_mut().table_mut(table)?;
        let perm: Option<Vec<usize>> = if columns.is_empty() {
            None
        } else {
            if columns.len() != t.schema.arity() {
                return Err(EngineError::new(format!(
                    "INSERT column list must cover all {} columns of {:?}",
                    t.schema.arity(),
                    table
                )));
            }
            let mut perm = vec![usize::MAX; t.schema.arity()];
            for (i, c) in columns.iter().enumerate() {
                let idx = t
                    .schema
                    .column_index(c)
                    .ok_or_else(|| EngineError::new(format!("unknown column {c:?} in INSERT")))?;
                perm[idx] = i;
            }
            if perm.contains(&usize::MAX) {
                return Err(EngineError::new("INSERT column list misses a column"));
            }
            Some(perm)
        };
        let mut n = 0;
        for row in rows {
            let row = match &perm {
                None => row,
                Some(perm) => {
                    if row.len() != perm.len() {
                        return Err(EngineError::new("INSERT row arity mismatch"));
                    }
                    perm.iter().map(|&i| row[i].clone()).collect()
                }
            };
            t.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Bulk insert in table order.
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<usize, EngineError> {
        self.insert_rows_ordered(table, &[], rows)
    }
}

/// Parse SQL text that must be a single `SELECT`.
fn parse_select(sql: &str) -> Result<hippo_sql::Query, EngineError> {
    match parse_statement(sql)? {
        Statement::Select(q) => Ok(q),
        _ => Err(EngineError::new("expected a SELECT statement")),
    }
}

/// Render a plan `EXPLAIN`-style: the operator tree (one line per
/// operator, children indented), each operator the vectorized engine
/// runs tagged `[vectorized]`, followed by an
/// `execution:` line naming the engine — `vectorized` when columnar
/// execution is enabled and some subtree vectorizes, `rowmode`
/// otherwise.
fn render_explain(plan: &Plan, catalog: &Catalog) -> String {
    let roots = if crate::column::columnar_enabled() {
        crate::column::vectorized_roots(plan, catalog)
    } else {
        Vec::new()
    };
    let engine = if roots.is_empty() {
        "rowmode"
    } else {
        "vectorized"
    };
    let tree = plan.explain_tagged(&|node| roots.iter().any(|r| std::ptr::eq(*r, node)));
    format!("{tree}execution: {engine}\n")
}

/// Atomic statistics of one snapshot lineage (shared by clones).
#[derive(Debug, Default)]
struct SnapshotStats {
    queries: AtomicUsize,
    statements: AtomicUsize,
    index_probes: AtomicUsize,
    scan_probes: AtomicUsize,
    batches_executed: AtomicUsize,
    vectorized_rows: AtomicUsize,
    rowmode_rows: AtomicUsize,
}

/// A point-in-time copy of a reader lineage's statistics (see
/// [`DbSnapshot::stats`]): queries evaluated and how their base-table
/// access paths executed — `index_probes` counts `IndexLookup` sources,
/// `scan_probes` sequential scans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStatsView {
    /// `SELECT`s evaluated against this snapshot lineage (all clones).
    pub queries: usize,
    /// DML/DDL statements executed by the owning [`Database`] (always 0
    /// for a [`Database::snapshot`], which cannot mutate).
    pub statements: usize,
    /// Base-table access paths executed through an `IndexLookup`.
    pub index_probes: usize,
    /// Base-table access paths executed as sequential scans.
    pub scan_probes: usize,
    /// Column batches pushed through the vectorized engine
    /// (`crate::column`).
    pub batches_executed: usize,
    /// Rows evaluated batch-at-a-time by the vectorized engine.
    pub vectorized_rows: usize,
    /// Rows walked by the row-at-a-time operators (vectorized-ineligible
    /// shapes, or columnar execution disabled): the base-table rows a
    /// row-mode `Scan`, `Filter(Scan)`, `IndexLookup` or early-exit
    /// `LIMIT` reads, plus the input rows a row-mode `Distinct`,
    /// non-prefix `Project`, `Sort`, set operation (both inputs) or
    /// `MarkJoin` walks, also when that input came from a vectorized
    /// subtree. Row-mode joins, aggregates and filters over anything but
    /// a scan add nothing of their own.
    pub rowmode_rows: usize,
}

impl fmt::Display for SnapshotStatsView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queries={} statements={} index_probes={} scan_probes={} \
             batches_executed={} vectorized_rows={} rowmode_rows={}",
            self.queries,
            self.statements,
            self.index_probes,
            self.scan_probes,
            self.batches_executed,
            self.vectorized_rows,
            self.rowmode_rows
        )
    }
}

/// A read-only, `Sync`, cheaply-cloneable view of a database — the
/// engine's one read path.
///
/// Produced by [`Database::snapshot`] (and owned by every [`Database`]
/// for its own reads). The catalog is immutable and `Arc`-shared —
/// later mutations of the originating database copy-on-write their own
/// storage and never show through here — so any number of threads can
/// evaluate `SELECT`s against one snapshot concurrently with **zero
/// locking** on the read path (the only shared mutable state is the
/// relaxed statistics counters). Cloning a snapshot is two
/// reference-count bumps; clones share the same counters.
#[derive(Debug, Clone, Default)]
pub struct DbSnapshot {
    catalog: Arc<Catalog>,
    stats: Arc<SnapshotStats>,
}

impl DbSnapshot {
    /// Read access to the frozen catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// This snapshot lineage's statistics so far (summed over all
    /// clones): queries plus the `index_probes` / `scan_probes` split
    /// of their access paths and the engine-choice row counters.
    pub fn stats(&self) -> SnapshotStatsView {
        SnapshotStatsView {
            queries: self.stats.queries.load(Ordering::Relaxed),
            statements: self.stats.statements.load(Ordering::Relaxed),
            index_probes: self.stats.index_probes.load(Ordering::Relaxed),
            scan_probes: self.stats.scan_probes.load(Ordering::Relaxed),
            batches_executed: self.stats.batches_executed.load(Ordering::Relaxed),
            vectorized_rows: self.stats.vectorized_rows.load(Ordering::Relaxed),
            rowmode_rows: self.stats.rowmode_rows.load(Ordering::Relaxed),
        }
    }

    fn bump_probes(&self, index_probes: usize, scan_probes: usize) {
        if index_probes > 0 {
            self.stats
                .index_probes
                .fetch_add(index_probes, Ordering::Relaxed);
        }
        if scan_probes > 0 {
            self.stats
                .scan_probes
                .fetch_add(scan_probes, Ordering::Relaxed);
        }
    }

    /// Fold the engine-choice counters one executed query accumulated
    /// in its [`EvalEnv`] into the statistics. Folded even when the
    /// execution errored: the counters describe work actually
    /// performed, which happens before a budget trip or type error.
    /// Relaxed adds, zero skipped to avoid touching the shared cache
    /// line for counters that did not move.
    fn bump_exec_counters(&self, env: &EvalEnv<'_>) {
        if env.vec_batches > 0 {
            self.stats
                .batches_executed
                .fetch_add(env.vec_batches as usize, Ordering::Relaxed);
        }
        if env.vec_rows > 0 {
            self.stats
                .vectorized_rows
                .fetch_add(env.vec_rows as usize, Ordering::Relaxed);
        }
        if env.rowmode_rows > 0 {
            self.stats
                .rowmode_rows
                .fetch_add(env.rowmode_rows as usize, Ordering::Relaxed);
        }
    }

    /// Run a query (read-only) and return its result set.
    pub fn query(&self, sql: &str) -> Result<QueryResult, EngineError> {
        self.query_governed(sql, None, "engine")
    }

    /// [`DbSnapshot::query`] under an optional resource
    /// [`crate::budget::Budget`]: the executor charges rows — those of
    /// expression subqueries included — against it and unwinds with a
    /// structured `Budget`/`Cancelled` error (reported as `stage`) when
    /// it is exhausted. `budget = None` is exactly the ungoverned call.
    pub fn query_governed(
        &self,
        sql: &str,
        budget: Option<&crate::budget::Budget>,
        stage: &'static str,
    ) -> Result<QueryResult, EngineError> {
        self.run_query_ast(&parse_select(sql)?, budget, stage)
    }

    /// Run an already-parsed query — the one place the engine goes
    /// bind → optimize → access-path selection → execute.
    pub fn run_query_ast(
        &self,
        q: &hippo_sql::Query,
        budget: Option<&crate::budget::Budget>,
        stage: &'static str,
    ) -> Result<QueryResult, EngineError> {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        let bound = self.bind_with_access_paths(q)?;
        let (idx, scan) = bound.plan.access_paths();
        self.bump_probes(idx, scan);
        let mut env = EvalEnv::new(&self.catalog);
        if let Some(b) = budget {
            env.set_budget(b, stage);
        }
        let rows = execute_physical(&bound.plan, &mut env);
        env.flush_budget();
        self.bump_exec_counters(&env);
        Ok(QueryResult {
            columns: bound.columns,
            rows: rows?,
        })
    }

    /// Bind and optimize, without access paths.
    fn bind_optimized(&self, q: &hippo_sql::Query) -> Result<BoundQuery, EngineError> {
        let bound = bind_query(&self.catalog, q)?;
        Ok(BoundQuery {
            plan: optimize(bound.plan, &self.catalog)?,
            columns: bound.columns,
        })
    }

    /// Bind, optimize and pick index access paths: the plan a query
    /// executes as.
    fn bind_with_access_paths(&self, q: &hippo_sql::Query) -> Result<BoundQuery, EngineError> {
        let mut bound = self.bind_optimized(q)?;
        choose_access_paths(&mut bound.plan, &self.catalog);
        Ok(bound)
    }

    /// Plan a query without executing it (diagnostics / tests). Returns
    /// the optimized plan **before** access-path selection — every
    /// source a `Scan` — which is what the differential tests hand to
    /// [`DbSnapshot::run_plan`].
    pub fn plan(&self, sql: &str) -> Result<BoundQuery, EngineError> {
        self.bind_optimized(&parse_select(sql)?)
    }

    /// The plan a query would execute as, access paths chosen
    /// (diagnostics / tests).
    pub fn physical_plan(&self, sql: &str) -> Result<Plan, EngineError> {
        Ok(self.bind_with_access_paths(&parse_select(sql)?)?.plan)
    }

    /// `EXPLAIN`-style rendering of the plan a query would execute as:
    /// one operator per line, children indented — the chosen access
    /// path (`IndexLookup` vs `SeqScan`) is visible at the leaves, a
    /// `MarkJoinExec` names its table, keys and probe (`via index (…)`
    /// or `via hash build`), every operator the vectorized engine
    /// (`crate::column`) would run ends in `[vectorized]`, and a
    /// trailing `execution:` line reports whether any of them does. Also reachable as a real SQL statement:
    /// `EXPLAIN SELECT …` through [`Database::execute`].
    pub fn explain(&self, sql: &str) -> Result<String, EngineError> {
        let plan = self.physical_plan(sql)?;
        Ok(render_explain(&plan, &self.catalog))
    }

    /// Evaluate a plan bound against this catalog on the **reference
    /// oracle** (`crate::exec::execute`): no streaming, no
    /// vectorization, an `IndexLookup` read as scan + key equality. The
    /// differential tests run this — on plans from both
    /// [`DbSnapshot::plan`] and [`DbSnapshot::physical_plan`] — against
    /// [`DbSnapshot::query`] to check the production path row-for-row.
    pub fn run_plan(&self, plan: &Plan) -> Result<Vec<Row>, EngineError> {
        self.stats.queries.fetch_add(1, Ordering::Relaxed);
        execute(plan, &mut EvalEnv::new(&self.catalog))
    }
}

// The whole point of the snapshot: workers may share one `&DbSnapshot`
// (or clone it) across threads. Compile-time proof, not a convention.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<DbSnapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE emp (name TEXT NOT NULL, dept TEXT, salary INT)")
            .unwrap();
        db.execute(
            "INSERT INTO emp VALUES ('ann', 'cs', 100), ('bob', 'cs', 200), ('cyd', 'ee', 300)",
        )
        .unwrap();
        db
    }

    #[test]
    fn end_to_end_select() {
        let db = db();
        let r = db
            .query("SELECT name FROM emp WHERE salary >= 200 ORDER BY name")
            .unwrap();
        assert_eq!(r.columns, vec!["name"]);
        assert_eq!(
            r.rows,
            vec![vec![Value::text("bob")], vec![Value::text("cyd")]]
        );
    }

    #[test]
    fn join_query() {
        let mut db = db();
        db.execute("CREATE TABLE dept (dname TEXT, budget INT)")
            .unwrap();
        db.execute("INSERT INTO dept VALUES ('cs', 1000), ('ee', 2000)")
            .unwrap();
        let r = db
            .query(
                "SELECT e.name, d.budget FROM emp e, dept d WHERE e.dept = d.dname AND d.budget > 1500",
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::text("cyd"), Value::Int(2000)]]);
    }

    #[test]
    fn union_except_intersect() {
        let db = db();
        let r = db
            .query("SELECT name FROM emp WHERE dept = 'cs' UNION SELECT name FROM emp WHERE salary > 250")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        let r = db
            .query("SELECT name FROM emp EXCEPT SELECT name FROM emp WHERE dept = 'cs'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::text("cyd")]]);
        let r = db
            .query("SELECT name FROM emp INTERSECT SELECT name FROM emp WHERE salary < 150")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::text("ann")]]);
    }

    #[test]
    fn correlated_not_exists() {
        let db = db();
        // employees with the max salary of their department
        let r = db
            .query(
                "SELECT e.name FROM emp e WHERE NOT EXISTS \
                 (SELECT * FROM emp f WHERE f.dept = e.dept AND f.salary > e.salary) \
                 ORDER BY e.name",
            )
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::text("bob")], vec![Value::text("cyd")]]
        );
    }

    #[test]
    fn scalar_subquery_and_in() {
        let db = db();
        let r = db
            .query("SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::text("cyd")]]);
        let r = db
            .query("SELECT name FROM emp WHERE dept IN (SELECT dept FROM emp WHERE salary > 250)")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::text("cyd")]]);
    }

    #[test]
    fn aggregates_group_having() {
        let db = db();
        let r = db
            .query(
                "SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept \
                 HAVING COUNT(*) > 1 ORDER BY dept",
            )
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::text("cs"), Value::Int(2), Value::Int(300)]]
        );
    }

    #[test]
    fn dml_roundtrip() {
        let mut db = db();
        let ExecResult::Count(n) = db
            .execute("UPDATE emp SET salary = 999 WHERE dept = 'cs'")
            .unwrap()
        else {
            panic!()
        };
        assert_eq!(n, 2);
        let ExecResult::Count(n) = db.execute("DELETE FROM emp WHERE salary = 999").unwrap() else {
            panic!()
        };
        assert_eq!(n, 2);
        let r = db.query("SELECT COUNT(*) FROM emp").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn insert_with_column_order() {
        let mut db = db();
        db.execute("INSERT INTO emp (salary, name, dept) VALUES (50, 'eve', 'me')")
            .unwrap();
        let r = db
            .query("SELECT salary FROM emp WHERE name = 'eve'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(50)]]);
    }

    #[test]
    fn insert_partial_columns_rejected() {
        let mut db = db();
        let err = db
            .execute("INSERT INTO emp (name) VALUES ('x')")
            .unwrap_err();
        assert!(err.message.contains("cover all"), "{err}");
    }

    #[test]
    fn not_null_enforced_via_sql() {
        let mut db = db();
        assert!(db
            .execute("INSERT INTO emp VALUES (NULL, 'cs', 1)")
            .is_err());
    }

    #[test]
    fn script_execution() {
        let mut db = Database::new();
        let r = db
            .execute_script(
                "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2); SELECT COUNT(*) FROM t;",
            )
            .unwrap();
        assert_eq!(
            r,
            ExecResult::Rows(QueryResult {
                columns: vec!["count".into()],
                rows: vec![vec![Value::Int(2)]],
            })
        );
    }

    #[test]
    fn stats_count_queries() {
        let db = db();
        db.reset_stats();
        db.query("SELECT * FROM emp").unwrap();
        db.query("SELECT * FROM emp").unwrap();
        assert_eq!(db.stats().queries, 2);
    }

    #[test]
    fn insert_select_moves_rows() {
        let mut db = db();
        db.execute("CREATE TABLE arch (name TEXT, dept TEXT, salary INT)")
            .unwrap();
        db.execute("INSERT INTO arch SELECT * FROM emp WHERE salary > 150")
            .unwrap();
        let r = db.query("SELECT COUNT(*) FROM arch").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn select_without_from_works() {
        let db = Database::new();
        let r = db.query("SELECT 1 + 2, 'x' || 'y'").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(3), Value::text("xy")]]);
    }

    #[test]
    fn error_on_unknown_table() {
        let db = Database::new();
        assert!(db.query("SELECT * FROM missing").is_err());
    }

    #[test]
    fn distinct_and_limit() {
        let db = db();
        let r = db
            .query("SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 1")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::text("cs")]]);
    }

    #[test]
    fn snapshot_is_isolated_from_later_mutations() {
        let mut db = db();
        let snap = db.snapshot();
        db.execute("INSERT INTO emp VALUES ('eve', 'cs', 999)")
            .unwrap();
        db.execute("UPDATE emp SET salary = 0 WHERE name = 'ann'")
            .unwrap();
        db.execute("DROP TABLE emp").unwrap();
        // The snapshot still sees the original three rows untouched.
        let r = snap
            .query("SELECT name, salary FROM emp ORDER BY name")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0], vec![Value::text("ann"), Value::Int(100)]);
        // And the live database sees its own changes.
        assert!(db.query("SELECT * FROM emp").is_err(), "table dropped");
    }

    #[test]
    fn snapshot_matches_live_database() {
        let db = db();
        let snap = db.snapshot();
        for q in [
            "SELECT * FROM emp ORDER BY name",
            "SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept",
            "SELECT name FROM emp WHERE NOT EXISTS \
             (SELECT * FROM emp f WHERE f.dept = emp.dept AND f.salary > emp.salary)",
        ] {
            assert_eq!(snap.query(q).unwrap(), db.query(q).unwrap(), "{q}");
        }
    }

    #[test]
    fn snapshot_counts_queries_without_touching_db_stats() {
        let db = db();
        db.reset_stats();
        let snap = db.snapshot();
        let clone = snap.clone();
        snap.query("SELECT * FROM emp").unwrap();
        clone.query("SELECT * FROM emp").unwrap();
        assert_eq!(snap.stats().queries, 2, "clones share the counter");
        assert_eq!(db.stats().queries, 0, "live stats untouched");
    }

    #[test]
    fn snapshot_is_usable_from_many_threads() {
        let mut db = db();
        let snap = db.snapshot();
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let snap = &snap;
                    s.spawn(move || snap.query("SELECT COUNT(*) FROM emp").unwrap().rows)
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        for r in results {
            assert_eq!(r, vec![vec![Value::Int(3)]]);
        }
        // Mutating afterwards copies-on-write; the snapshot is unaffected.
        db.execute("DELETE FROM emp").unwrap();
        assert_eq!(
            snap.query("SELECT COUNT(*) FROM emp").unwrap().rows,
            vec![vec![Value::Int(3)]]
        );
    }

    #[test]
    fn snapshot_rejects_dml() {
        let db = db();
        let snap = db.snapshot();
        assert!(snap.query("DELETE FROM emp").is_err());
        assert!(snap.query("INSERT INTO emp VALUES ('x', 'y', 1)").is_err());
    }

    #[test]
    fn create_index_is_used_by_the_optimizer() {
        let mut db = db();
        // No index yet: the probe scans.
        let plan = db
            .explain("SELECT 1 FROM emp WHERE name = 'ann' LIMIT 1")
            .unwrap();
        assert!(plan.contains("SeqScan"), "{plan}");
        db.execute("CREATE INDEX emp_name ON emp (name)").unwrap();
        let plan = db
            .explain("SELECT 1 FROM emp WHERE name = 'ann' LIMIT 1")
            .unwrap();
        assert!(plan.contains("IndexLookup emp index=(#0)"), "{plan}");
        let r = db
            .query("SELECT salary FROM emp WHERE name = 'ann'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(100)]]);
        // IF NOT EXISTS tolerates re-creation; plain re-create errors.
        db.execute("CREATE INDEX IF NOT EXISTS emp_name ON emp (name)")
            .unwrap();
        assert!(db.execute("CREATE INDEX emp_name ON emp (dept)").is_err());
        assert!(db.execute("CREATE INDEX x ON emp (nope)").is_err());
    }

    #[test]
    fn explain_statement_reports_plan_and_engine() {
        let _g = crate::column::override_guard();
        let mut db = db();
        // EXPLAIN is a real statement: one `plan` column, one row per
        // rendered line, never executing the query (no counters move).
        db.reset_stats();
        let r = db
            .execute("EXPLAIN SELECT name FROM emp WHERE salary >= 200")
            .unwrap();
        let ExecResult::Rows(r) = r else {
            panic!("EXPLAIN must return rows, got {r:?}");
        };
        assert_eq!(r.columns, vec!["plan"]);
        let text: Vec<String> = r
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Text(s) => s.to_string(),
                other => panic!("plan lines are text, got {other:?}"),
            })
            .collect();
        assert!(text.iter().any(|l| l.contains("SeqScan")), "{text:?}");
        let engine = text.last().unwrap();
        assert!(
            engine == "execution: vectorized" || engine == "execution: rowmode",
            "{engine}"
        );
        assert_eq!(
            db.stats(),
            SnapshotStatsView::default(),
            "EXPLAIN never executes"
        );
        // The string API agrees line-for-line with the statement form.
        let api = db
            .explain("SELECT name FROM emp WHERE salary >= 200")
            .unwrap();
        assert_eq!(api.lines().collect::<Vec<_>>(), text);
        // The engine choice tracks the columnar toggle.
        crate::column::set_columnar_override(false);
        let off = db
            .explain("SELECT name FROM emp WHERE salary >= 200")
            .unwrap();
        crate::column::set_columnar_override(true);
        assert!(off.ends_with("execution: rowmode\n"), "{off}");
    }

    #[test]
    fn primary_key_auto_index_serves_point_queries() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (1, 30)")
            .unwrap();
        let plan = db.explain("SELECT v FROM t WHERE k = 1").unwrap();
        assert!(plan.contains("IndexLookup"), "{plan}");
        // Duplicate keys are allowed (the CQA setting violates keys);
        // rows come back in slot order, exactly like a scan.
        let r = db.query("SELECT v FROM t WHERE k = 1").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(10)], vec![Value::Int(30)]]);
        db.reset_stats();
        db.query("SELECT v FROM t WHERE k = 2").unwrap();
        db.query("SELECT v FROM t WHERE v = 20").unwrap();
        let s = db.stats();
        assert_eq!((s.index_probes, s.scan_probes), (1, 1));
        // Four base rows touched (1 via the index probe, 3 by the scan),
        // and the row-mode projection `[#1]` above the probe walks its
        // one row. The scan and its projection run on column batches
        // unless columnar execution is off (another test may turn it
        // off), and then the projection walks the scan's one survivor.
        let split = (s.vectorized_rows, s.rowmode_rows);
        assert!(split == (3, 2) || split == (0, 6), "{split:?}");
        assert_eq!(
            format!("{s}"),
            format!(
                "queries=2 statements=0 index_probes=1 scan_probes=1 \
                 batches_executed={} vectorized_rows={} rowmode_rows={}",
                s.batches_executed, s.vectorized_rows, s.rowmode_rows
            )
        );
    }

    #[test]
    fn index_results_match_scan_results_after_dml() {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (1, 30), (3, 40)")
            .unwrap();
        db.execute("DELETE FROM t WHERE v = 10").unwrap();
        db.execute("UPDATE t SET k = 1 WHERE v = 40").unwrap();
        for probe in ["SELECT * FROM t WHERE k = 1", "SELECT * FROM t WHERE k = 9"] {
            let got = db.query(probe).unwrap().rows;
            let reference = db.run_plan(&db.plan(probe).unwrap().plan).unwrap();
            assert_eq!(got, reference, "{probe}");
        }
    }

    #[test]
    fn row_budget_trips_inside_an_in_subquery() {
        // One outer row, 2000 inner rows: the outer scan alone stays
        // far inside a 100-row budget, so only the rows the
        // `IN (SELECT …)` examines can trip it. They are charged to the
        // query's budget because the subquery runs on the production
        // executor with the caller's environment.
        let mut db = Database::new();
        db.execute("CREATE TABLE o (k INT)").unwrap();
        db.execute("INSERT INTO o VALUES (7)").unwrap();
        db.execute("CREATE TABLE big (k INT, v INT)").unwrap();
        db.insert_rows(
            "big",
            (0..2000)
                .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
                .collect(),
        )
        .unwrap();
        let q = "SELECT k FROM o WHERE k IN (SELECT k FROM big WHERE v >= 0)";
        assert_eq!(db.query(q).unwrap().rows, vec![vec![Value::Int(7)]]);
        for columnar in [true, false] {
            let _g = crate::column::override_guard();
            crate::column::set_columnar_override(columnar);
            let budget = crate::budget::Budget::new().with_row_limit(100);
            let err = db.query_governed(q, Some(&budget), "envelope");
            crate::column::set_columnar_override(true);
            match err
                .expect_err("the subquery's 2000 rows exceed the budget")
                .kind
            {
                crate::schema::ErrorKind::Budget {
                    stage,
                    spent,
                    limit,
                } => {
                    assert_eq!((stage, limit), ("envelope", 100));
                    assert!(spent > limit, "spent {spent} <= limit {limit}");
                }
                ref k => panic!("expected Budget kind, got {k:?}"),
            }
        }
    }

    #[test]
    fn left_join_via_sql() {
        let mut db = db();
        db.execute("CREATE TABLE dept (dname TEXT, budget INT)")
            .unwrap();
        db.execute("INSERT INTO dept VALUES ('cs', 1000)").unwrap();
        let r = db
            .query(
                "SELECT e.name, d.budget FROM emp e LEFT JOIN dept d ON e.dept = d.dname ORDER BY e.name",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(
            r.rows[2],
            vec![Value::text("cyd"), Value::Null],
            "ee has no dept row"
        );
    }
}
