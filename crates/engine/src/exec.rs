//! Plan execution: the production executor and the reference oracle.
//!
//! Both run the one [`Plan`] type and share the operator
//! implementations for aggregation, sort and the bag set operations;
//! joins and duplicate elimination they do not share:
//!
//! * `execute_physical` — the **production** executor, the only one
//!   reachable from a query: [`crate::db::DbSnapshot`] runs every
//!   statement through it, and expression subqueries
//!   (`EXISTS`/`IN`/scalar) re-enter it through the same `EvalEnv`,
//!   so their rows are charged to the caller's budget like any other.
//!   Its row-wise pipeline shapes stream: a `Filter` directly over a
//!   `Scan` clones only surviving rows, a `Limit` over a
//!   `Project?`/`Filter?`/source pipeline stops the scan as soon as
//!   `offset + limit` rows are produced, an `IndexLookup` touches
//!   only the probed bucket, and a `MarkJoin` probes one index bucket
//!   (or one per-execution hash partition) per input row.
//! * `execute` — the **reference oracle**, off the production path:
//!   bottom-up, fully materialising, no streaming, no vectorization,
//!   no budget, an `IndexLookup` defined as scan + key equality, a
//!   `MarkJoin` as scan + key identity + residual per input row, a
//!   `HashJoin` as a nested loop on SQL key equality, and `DISTINCT`
//!   (and the set forms of `UNION`/`EXCEPT`/`INTERSECT`) as a search of
//!   the output so far — no hash table, so the production key table is
//!   checked against code it does not share. It
//!   decides the semantics; [`crate::db::DbSnapshot::run_plan`] and the
//!   differential suite (`tests/prop_physical.rs`) run it on plans with
//!   and without access paths and compare the production executor
//!   against it row-for-row. Subqueries of a plan it runs are also
//!   evaluated by it, so the two legs share no executor code above the
//!   operator helpers.
//!
//! The production executor is two-engined: before walking an operator
//! row-wise it offers the whole subtree to the **vectorized** compiler
//! (`column::try_execute`), which runs eligible
//! scan/aggregate/join shapes batch-at-a-time over the table's
//! `crate::column::ColumnStore`:
//!
//! ```text
//!   SQL ─▶ bind ─▶ optimize ─▶ choose_access_paths (optional) ─▶ Plan
//!                                                                 │
//!            ┌───────────── production ───────────────────────────┤
//!            ▼                                                    ▼ tests only
//!   execute_physical(plan, env) ◀──────────────┐          execute(plan, env)
//!            │                                 │          reference oracle:
//!   column::try_execute(subtree, env)?         │          materialise bottom-up,
//!      ╱                       ╲               │          no budget, IndexLookup
//!   compiles (typed cols,   anything else      │          = scan + key equality,
//!   supported ops only)         │              │          MarkJoin = scan + key
//!      │                        ▼              │          identity + residual,
//!      ▼                row-mode operators ────┘          subqueries stay here
//!   ColumnStore ─ 1024-row ─▶ filter ─▶        MarkJoin: index bucket or hash
//!   (Arc-shared) windows      project/agg/join build per input row; other
//!      │                        │              EXISTS / IN / scalar subqueries
//!      │                        │              in expressions re-enter with
//!      ╲                        ╱              the same env: same budget
//!       same rows, errors, budget charges — the engine
//!       choice shows only in EXPLAIN and the statistics
//!       (batches_executed / vectorized_rows / rowmode_rows)
//! ```
//!
//! Fallback is per-subtree, so a row-mode `Sort` or `Distinct` still
//! vectorizes its input; see `column.rs` for the eligibility rules and
//! the charging-parity contract. Row mode is the only path for sorts,
//! set operations, index probes and mark joins, and for a `DISTINCT`
//! that is neither a vectorized join's side nor a selection's root.
//! Every hash build of the production executor — hash join, mark join,
//! `dedup`, set `EXCEPT`/`INTERSECT` — goes through the one key table
//! (`keytable.rs`).
//!
//! Execution never mutates the catalog: all run state (the enclosing-row
//! stack, the budget) lives in the per-call
//! `EvalEnv` and in the operators' own locals, which each invocation
//! owns privately. That is what makes execution against a shared
//! `&Catalog` safe from many threads with no locking: each caller gets
//! a fresh environment on its own stack.

use crate::expr::{eval, BoundExpr, EvalEnv};
use crate::keytable::{hash_values, KeyTable};
use crate::plan::{AggExpr, AggFunc, JoinType, Plan};
use crate::schema::EngineError;
use crate::value::{Row, Value};
use rustc_hash::{FxHashMap, FxHashSet};

/// Run a plan on the **reference oracle** (tests and
/// [`crate::db::DbSnapshot::run_plan`] only — never a production
/// query). Marks `env` so that subqueries met while evaluating
/// expressions stay on the oracle too.
pub(crate) fn execute(plan: &Plan, env: &mut EvalEnv<'_>) -> Result<Vec<Row>, EngineError> {
    let was = std::mem::replace(&mut env.reference, true);
    let rows = reference(plan, env);
    env.reference = was;
    rows
}

fn reference(plan: &Plan, env: &mut EvalEnv<'_>) -> Result<Vec<Row>, EngineError> {
    match plan {
        Plan::Empty { .. } => Ok(Vec::new()),
        Plan::Values { rows, .. } => values_rows(rows, env),
        Plan::Scan { table } => Ok(env.catalog.table(table)?.rows()),
        // The defining semantics of an index probe: the rows a scan
        // would produce whose indexed columns SQL-equal the key.
        Plan::IndexLookup {
            table,
            index_cols,
            key,
        } => {
            let key: Vec<Value> = key
                .iter()
                .map(|e| eval(e, &[], env))
                .collect::<Result<_, _>>()?;
            let mut rows = env.catalog.table(table)?.rows();
            rows.retain(|row| {
                index_cols
                    .iter()
                    .zip(&key)
                    .all(|(&c, k)| row[c].sql_eq(k) == Some(true))
            });
            Ok(rows)
        }
        Plan::Filter { input, predicate } => {
            let rows = reference(input, env)?;
            let mut out = Vec::new();
            for row in rows {
                if eval(predicate, &row, env)? == Value::Bool(true) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        Plan::Project { input, exprs } => {
            let rows = reference(input, env)?;
            project_rows(rows, exprs, env)
        }
        Plan::CrossJoin { left, right } => {
            let l = reference(left, env)?;
            let r = reference(right, env)?;
            Ok(cross_join_rows(&l, &r))
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            join_type,
        } => {
            let l = reference(left, env)?;
            let r = reference(right, env)?;
            equi_join_reference(
                l,
                r,
                right,
                left_keys,
                right_keys,
                residual.as_ref(),
                *join_type,
                env,
            )
        }
        Plan::NestedLoopJoin {
            left,
            right,
            predicate,
            join_type,
        } => {
            let l = reference(left, env)?;
            let r = reference(right, env)?;
            nested_loop_rows(l, r, right, predicate.as_ref(), *join_type, env)
        }
        // Set forms keep each row not yet in the output; bag forms share
        // the production helpers, which build no key table.
        Plan::Union { left, right, all } => {
            let mut l = reference(left, env)?;
            l.extend(reference(right, env)?);
            Ok(if *all { l } else { distinct_reference(l) })
        }
        Plan::Except { left, right, all } => {
            let l = reference(left, env)?;
            let r = reference(right, env)?;
            Ok(if *all {
                except_rows(l, r, true)
            } else {
                distinct_reference(l.into_iter().filter(|x| !r.contains(x)).collect())
            })
        }
        Plan::Intersect { left, right, all } => {
            let l = reference(left, env)?;
            let r = reference(right, env)?;
            Ok(if *all {
                intersect_rows(l, r, true)
            } else {
                distinct_reference(l.into_iter().filter(|x| r.contains(x)).collect())
            })
        }
        Plan::Distinct { input } => Ok(distinct_reference(reference(input, env)?)),
        Plan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => {
            let rows = reference(input, env)?;
            aggregate_rows(rows, group_exprs, aggregates, env)
        }
        Plan::Sort { input, keys } => {
            let rows = reference(input, env)?;
            sort_rows(rows, keys, env)
        }
        Plan::Limit {
            input,
            limit,
            offset,
        } => {
            let rows = reference(input, env)?;
            Ok(limit_slice(rows, *limit, *offset))
        }
        // The defining semantics of a mark: does any row a scan of
        // `table` produces identity-equal the evaluated keys (none if
        // one is `NULL`) and satisfy the residual?
        Plan::MarkJoin {
            input,
            table,
            keys,
            residual,
            negated,
            ..
        } => {
            let mut rows = reference(input, env)?;
            let inner = env.catalog.table(table)?.rows();
            let (mut key, mut joined) = (Vec::new(), Vec::new());
            for row in &mut rows {
                let mut found = false;
                if mark_key(keys, row, &mut key, env)? {
                    for irow in &inner {
                        if keys.iter().zip(&key).all(|((c, _), k)| irow[*c] == *k)
                            && residual_holds(residual.as_ref(), row, irow, &mut joined, env)?
                        {
                            found = true;
                            break;
                        }
                    }
                }
                row.push(Value::Bool(found != *negated));
            }
            Ok(rows)
        }
    }
}

/// Execute a plan on the production executor, within an environment.
///
/// Every call — including the recursive calls operator arms make on
/// their inputs, and the re-entrant calls expression subqueries make —
/// first offers the plan to the vectorized engine ([`crate::column`]).
/// That placement is what makes batch execution composable: a
/// `Distinct`, `Sort`, set operation, or materialising `Limit` whose
/// *input* is an eligible scan/aggregate/join shape runs that subtree
/// on column batches even though the operator itself stays row-mode.
pub(crate) fn execute_physical(
    plan: &Plan,
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    if let Some(rows) = crate::column::try_execute(plan, env)? {
        return Ok(rows);
    }
    match plan {
        Plan::Empty { .. } => Ok(Vec::new()),
        Plan::Values { rows, .. } => values_rows(rows, env),
        Plan::Scan { table } => {
            let rows = env.catalog.table(table)?.rows();
            env.charge_batch(rows.len())?;
            env.rowmode_rows += rows.len() as u64;
            Ok(rows)
        }
        Plan::IndexLookup {
            table,
            index_cols,
            key,
        } => index_lookup_rows(table, index_cols, key, env),
        Plan::Filter { input, predicate } => match &**input {
            // Filter directly over a scan streams the stored rows and
            // clones only the survivors — materialising the scan first
            // would copy every row of the table per evaluation.
            Plan::Scan { table } => {
                let t = env.catalog.table(table)?;
                let mut out = Vec::new();
                for (_, row) in t.iter() {
                    env.charge_row()?;
                    env.rowmode_rows += 1;
                    if eval(predicate, row, env)? == Value::Bool(true) {
                        out.push(row.clone());
                    }
                }
                Ok(out)
            }
            other => {
                let rows = execute_physical(other, env)?;
                let mut out = Vec::new();
                for row in rows {
                    env.charge_row()?;
                    if eval(predicate, &row, env)? == Value::Bool(true) {
                        out.push(row);
                    }
                }
                Ok(out)
            }
        },
        Plan::Project { input, exprs } => {
            let rows = execute_physical(input, env)?;
            project_rows(rows, exprs, env)
        }
        Plan::CrossJoin { left, right } => {
            let l = execute_physical(left, env)?;
            let r = execute_physical(right, env)?;
            Ok(cross_join_rows(&l, &r))
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            join_type,
        } => {
            let l = execute_physical(left, env)?;
            let r = execute_physical(right, env)?;
            hash_join_rows(
                l,
                r,
                right,
                left_keys,
                right_keys,
                residual.as_ref(),
                *join_type,
                env,
            )
        }
        Plan::NestedLoopJoin {
            left,
            right,
            predicate,
            join_type,
        } => {
            let l = execute_physical(left, env)?;
            let r = execute_physical(right, env)?;
            nested_loop_rows(l, r, right, predicate.as_ref(), *join_type, env)
        }
        Plan::Union { left, right, all } => {
            let l = execute_physical(left, env)?;
            let r = execute_physical(right, env)?;
            env.rowmode_rows += (l.len() + r.len()) as u64;
            Ok(union_rows(l, r, *all))
        }
        Plan::Except { left, right, all } => {
            let l = execute_physical(left, env)?;
            let r = execute_physical(right, env)?;
            env.rowmode_rows += (l.len() + r.len()) as u64;
            Ok(except_rows(l, r, *all))
        }
        Plan::Intersect { left, right, all } => {
            let l = execute_physical(left, env)?;
            let r = execute_physical(right, env)?;
            env.rowmode_rows += (l.len() + r.len()) as u64;
            Ok(intersect_rows(l, r, *all))
        }
        Plan::Distinct { input } => {
            let rows = execute_physical(input, env)?;
            env.rowmode_rows += rows.len() as u64;
            Ok(dedup(rows))
        }
        Plan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } => {
            let rows = execute_physical(input, env)?;
            aggregate_rows(rows, group_exprs, aggregates, env)
        }
        Plan::Sort { input, keys } => {
            let rows = execute_physical(input, env)?;
            env.rowmode_rows += rows.len() as u64;
            sort_rows(rows, keys, env)
        }
        Plan::Limit {
            input,
            limit,
            offset,
        } => {
            if let Some(rows) = streaming_limit(input, *limit, *offset, env)? {
                return Ok(rows);
            }
            let rows = execute_physical(input, env)?;
            Ok(limit_slice(rows, *limit, *offset))
        }
        Plan::MarkJoin {
            input,
            table,
            keys,
            residual,
            index,
            negated,
        } => {
            let rows = execute_physical(input, env)?;
            env.rowmode_rows += rows.len() as u64;
            mark_join_rows(
                rows,
                table,
                keys,
                residual.as_ref(),
                index.as_deref(),
                *negated,
                env,
            )
        }
    }
}

/// Evaluate an expression subquery for the current `row`: push it as
/// the nearest enclosing row and run `plan` on the executor that is
/// evaluating the enclosing expression — production unless the
/// environment belongs to a reference-oracle run.
pub(crate) fn execute_subquery(
    plan: &Plan,
    row: &[Value],
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    env.outer.push(row.to_vec());
    let result = if env.reference {
        reference(plan, env)
    } else {
        execute_physical(plan, env)
    };
    env.outer.pop();
    result
}

/// Evaluate literal `VALUES` rows.
fn values_rows(rows: &[Vec<BoundExpr>], env: &mut EvalEnv<'_>) -> Result<Vec<Row>, EngineError> {
    rows.iter()
        .map(|exprs| exprs.iter().map(|e| eval(e, &[], env)).collect())
        .collect()
}

/// Compute the projection of materialised rows. Consumes its input row
/// by row, so each input row's allocation is released (and reusable
/// for the next output row) as soon as it has been projected, and
/// counts those rows as walked in row mode. A projection onto a leading
/// run of columns (`#0, #1, …` — e.g. one dropping a `Filter`'s mark
/// columns) truncates the rows in place and is not counted.
fn project_rows(
    mut rows: Vec<Row>,
    exprs: &[BoundExpr],
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    let prefix = exprs
        .iter()
        .enumerate()
        .all(|(i, e)| *e == BoundExpr::Column(i));
    if prefix && rows.iter().all(|row| row.len() >= exprs.len()) {
        for row in &mut rows {
            row.truncate(exprs.len());
        }
        return Ok(rows);
    }
    env.rowmode_rows += rows.len() as u64;
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let projected: Row = exprs
            .iter()
            .map(|e| eval(e, &row, env))
            .collect::<Result<_, _>>()?;
        out.push(projected);
    }
    Ok(out)
}

/// Evaluate a mark join's key values for input `row` into `key`, in
/// order; `false` at the first `NULL` (it matches nothing).
fn mark_key(
    keys: &[(usize, BoundExpr)],
    row: &[Value],
    key: &mut Vec<Value>,
    env: &mut EvalEnv<'_>,
) -> Result<bool, EngineError> {
    key.clear();
    for (_, e) in keys {
        let v = eval(e, row, env)?;
        if v.is_null() {
            return Ok(false);
        }
        key.push(v);
    }
    Ok(true)
}

/// Does a mark join's residual hold on `row ++ inner`? (`joined` is a
/// reusable buffer.)
fn residual_holds(
    residual: Option<&BoundExpr>,
    row: &[Value],
    inner: &[Value],
    joined: &mut Row,
    env: &mut EvalEnv<'_>,
) -> Result<bool, EngineError> {
    let Some(r) = residual else {
        return Ok(true);
    };
    joined.clear();
    joined.extend_from_slice(row);
    joined.extend_from_slice(inner);
    Ok(eval(r, joined, env)? == Value::Bool(true))
}

/// The production mark join: append each input row's mark. With an
/// `index`, the leading keys probe it once per row and the remaining
/// keys and the residual are checked on the bucket; without one, a
/// hash partition of the table on all key columns is built first (and
/// charged to the budget as one batch). Buckets hold live tuple ids in
/// slot order, so the first match — and any residual error — is the
/// one a scan would meet.
fn mark_join_rows(
    mut rows: Vec<Row>,
    table: &str,
    keys: &[(usize, BoundExpr)],
    residual: Option<&BoundExpr>,
    index: Option<&[usize]>,
    negated: bool,
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    let catalog = env.catalog;
    let t = catalog.table(table)?;
    let probe = match index {
        Some(cols) => {
            if !t.has_index(cols) {
                return Err(EngineError::new(format!(
                    "plan references a missing index on {table:?}"
                )));
            }
            MarkProbe::Index(cols)
        }
        None => {
            env.charge_batch(t.len())?;
            let inner: Vec<&Row> = t.iter().map(|(_, row)| row).collect();
            let built = KeyTable::build(inner.len(), |i| {
                let key = keys.iter().map(|(c, _)| &inner[i][*c]);
                // NULL keys never match.
                (!key.clone().any(Value::is_null)).then(|| hash_values(key))
            });
            MarkProbe::Hash(inner, built)
        }
    };
    let (mut key, mut joined) = (Vec::with_capacity(keys.len()), Row::new());
    for row in &mut rows {
        let mut found = false;
        if mark_key(keys, row, &mut key, env)? {
            found = match &probe {
                // The index matches the leading keys; the rest are
                // compared on its bucket.
                MarkProbe::Index(cols) => {
                    let n = cols.len();
                    let ids = t.index_bucket(cols, &key[..n]).unwrap_or(&[]);
                    let inner = ids
                        .iter()
                        .map(|&id| t.get(id).expect("buckets hold live ids"));
                    any_inner_matches(
                        inner,
                        &keys[n..],
                        &key[n..],
                        residual,
                        row,
                        &mut joined,
                        env,
                    )?
                }
                // A hash build matches no key exactly, so every key is
                // compared.
                MarkProbe::Hash(inner, built) => {
                    let inner = built
                        .candidates(hash_values(&key))
                        .map(|i| inner[i as usize]);
                    any_inner_matches(inner, keys, &key, residual, row, &mut joined, env)?
                }
            };
        }
        row.push(Value::Bool(found != negated));
    }
    Ok(rows)
}

/// How a mark join finds a row's candidate matches: probing a table
/// index on its leading key columns, or a per-execution hash build of
/// the table's rows on all key columns.
enum MarkProbe<'a> {
    Index(&'a [usize]),
    Hash(Vec<&'a Row>, KeyTable),
}

/// Does any of the `inner` rows (in order) carry `key` in the `keys`
/// columns and satisfy the residual? The first match ends the walk, so
/// a residual error is the one a scan would meet first.
fn any_inner_matches<'a>(
    inner: impl Iterator<Item = &'a Row>,
    keys: &[(usize, BoundExpr)],
    key: &[Value],
    residual: Option<&BoundExpr>,
    row: &[Value],
    joined: &mut Row,
    env: &mut EvalEnv<'_>,
) -> Result<bool, EngineError> {
    for irow in inner {
        if keys.iter().zip(key).all(|((c, _), k)| irow[*c] == *k)
            && residual_holds(residual, row, irow, joined, env)?
        {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Cartesian product of materialised inputs.
fn cross_join_rows(l: &[Row], r: &[Row]) -> Vec<Row> {
    let mut out = Vec::with_capacity(l.len().saturating_mul(r.len()));
    for lr in l {
        for rr in r {
            let mut row = Vec::with_capacity(lr.len() + rr.len());
            row.extend_from_slice(lr);
            row.extend_from_slice(rr);
            out.push(row);
        }
    }
    out
}

/// The one index-probe protocol, shared by every consumer: evaluate
/// the key expressions against the empty row, short-circuit a `NULL`
/// component to the empty bucket (SQL equality matches nothing), and
/// borrow the bucket's live tuple ids (ascending slot order). Errors
/// if the plan references an index the table does not have, or if a
/// key value does not inhabit the indexed column's type exactly — hash
/// identity only coincides with SQL equality for exact-type keys, so a
/// hand-built plan with a mis-typed key fails loudly instead of
/// silently diverging from the scan plan (access-path selection only
/// emits exact-type literal keys).
fn resolve_index_bucket<'a>(
    table: &str,
    index_cols: &[usize],
    key_exprs: &[BoundExpr],
    env: &mut EvalEnv<'a>,
) -> Result<(&'a crate::table::Table, &'a [crate::table::TupleId]), EngineError> {
    use crate::schema::DataType;
    let catalog = env.catalog;
    let t = catalog.table(table)?;
    let mut key = Vec::with_capacity(key_exprs.len());
    for (e, &col) in key_exprs.iter().zip(index_cols) {
        let v = eval(e, &[], env)?;
        if v.is_null() {
            return Ok((t, &[]));
        }
        let column = t.schema.columns.get(col).ok_or_else(|| {
            EngineError::new(format!("index column {col} out of range for {table:?}"))
        })?;
        let exact = matches!(
            (column.ty, &v),
            (DataType::Int, Value::Int(_))
                | (DataType::Text, Value::Text(_))
                | (DataType::Bool, Value::Bool(_))
        );
        if !exact {
            return Err(EngineError::new(format!(
                "index probe on {table:?} bound a {} value to {} column {:?}",
                v.type_name(),
                column.ty,
                column.name
            )));
        }
        key.push(v);
    }
    let ids = t
        .index_bucket(index_cols, &key)
        .ok_or_else(|| EngineError::new(format!("plan references a missing index on {table:?}")))?;
    Ok((t, ids))
}

/// Materialise an index lookup: clone the matching live rows (ascending
/// slot order — exactly what a scan + equality filter would produce).
fn index_lookup_rows(
    table: &str,
    index_cols: &[usize],
    key_exprs: &[BoundExpr],
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    let (t, ids) = resolve_index_bucket(table, index_cols, key_exprs, env)?;
    env.rowmode_rows += ids.len() as u64;
    Ok(ids
        .iter()
        .map(|&id| t.get(id).expect("index buckets hold live ids").clone())
        .collect())
}

/// `LIMIT` over a row-wise `Project?(Filter?(source))` pipeline
/// stops producing as soon as `offset + limit` rows exist, instead of
/// materialising the whole input first. This turns an existence probe
/// (`SELECT 1 FROM t WHERE … LIMIT 1` — the base-mode membership
/// query) into work bounded by the first match; over an `IndexLookup`
/// source the bound is the probed bucket. Row order matches the
/// materialising path exactly (slot order), so results are identical.
/// Returns `None` when the plan is not of that shape.
fn streaming_limit(
    input: &Plan,
    limit: Option<u64>,
    offset: u64,
    env: &mut EvalEnv<'_>,
) -> Result<Option<Vec<Row>>, EngineError> {
    let Some(limit) = limit else { return Ok(None) };
    let (projection, filter, source) = match input {
        Plan::Project { input, exprs } => match &**input {
            Plan::Filter { input, predicate } => (Some(exprs), Some(predicate), &**input),
            source => (Some(exprs), None, source),
        },
        Plan::Filter { input, predicate } => (None, Some(predicate), &**input),
        source => (None, None, source),
    };
    // The source must be a base-table access path; anything else (a
    // join, a set operation, …) falls back to materialising. Rows are
    // *borrowed* from the table (scan iterator or index bucket ids)
    // and cloned only when they survive the filter and the window
    // still wants them — a `LIMIT 1` membership probe over a
    // duplicate-key bucket clones at most one row.
    let need = offset as usize + limit as usize;
    let catalog = env.catalog;
    let mut out = Vec::with_capacity(need.min(64));
    let produce = |row: &Row, env: &mut EvalEnv<'_>| -> Result<Option<Row>, EngineError> {
        if let Some(pred) = filter {
            if eval(pred, row, env)? != Value::Bool(true) {
                return Ok(None);
            }
        }
        Ok(Some(match projection {
            Some(exprs) => exprs
                .iter()
                .map(|e| eval(e, row, env))
                .collect::<Result<_, _>>()?,
            None => row.clone(),
        }))
    };
    match source {
        Plan::Scan { table } => {
            let t = catalog.table(table)?;
            for (_, row) in t.iter() {
                if out.len() >= need {
                    break;
                }
                env.charge_row()?;
                env.rowmode_rows += 1;
                if let Some(p) = produce(row, env)? {
                    out.push(p);
                }
            }
        }
        Plan::IndexLookup {
            table,
            index_cols,
            key,
        } => {
            let (t, ids) = resolve_index_bucket(table, index_cols, key, env)?;
            for &id in ids {
                if out.len() >= need {
                    break;
                }
                env.charge_row()?;
                env.rowmode_rows += 1;
                let row = t.get(id).expect("index buckets hold live ids");
                if let Some(p) = produce(row, env)? {
                    out.push(p);
                }
            }
        }
        _ => return Ok(None),
    }
    let start = (offset as usize).min(out.len());
    Ok(Some(out[start..].to_vec()))
}

/// Slice materialised rows to a `LIMIT`/`OFFSET` window.
fn limit_slice(rows: Vec<Row>, limit: Option<u64>, offset: u64) -> Vec<Row> {
    let start = (offset as usize).min(rows.len());
    let end = match limit {
        Some(l) => (start + l as usize).min(rows.len()),
        None => rows.len(),
    };
    rows[start..end].to_vec()
}

/// Bag/set union of materialised inputs.
fn union_rows(mut l: Vec<Row>, r: Vec<Row>, all: bool) -> Vec<Row> {
    l.extend(r);
    if all {
        l
    } else {
        dedup(l)
    }
}

/// Bag/set difference of materialised inputs.
fn except_rows(l: Vec<Row>, r: Vec<Row>, all: bool) -> Vec<Row> {
    if all {
        // Bag difference: remove one occurrence per right row.
        let mut counts: FxHashMap<Row, usize> =
            FxHashMap::with_capacity_and_hasher(r.len(), Default::default());
        for row in r {
            *counts.entry(row).or_insert(0) += 1;
        }
        let mut out = Vec::new();
        for row in l {
            match counts.get_mut(&row) {
                Some(c) if *c > 0 => *c -= 1,
                _ => out.push(row),
            }
        }
        out
    } else {
        let in_r = row_set(&r);
        dedup(l.into_iter().filter(|row| !in_r(row)).collect())
    }
}

/// Bag/set intersection of materialised inputs.
fn intersect_rows(l: Vec<Row>, r: Vec<Row>, all: bool) -> Vec<Row> {
    if all {
        let mut counts: FxHashMap<Row, usize> =
            FxHashMap::with_capacity_and_hasher(r.len(), Default::default());
        for row in r {
            *counts.entry(row).or_insert(0) += 1;
        }
        let mut out = Vec::new();
        for row in l {
            if let Some(c) = counts.get_mut(&row) {
                if *c > 0 {
                    *c -= 1;
                    out.push(row);
                }
            }
        }
        out
    } else {
        let in_r = row_set(&r);
        dedup(l.into_iter().filter(|row| in_r(row)).collect())
    }
}

/// Sort materialised rows stably by the given keys.
fn sort_rows(
    rows: Vec<Row>,
    keys: &[(BoundExpr, bool)],
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    // Evaluate keys once per row, then sort stably.
    let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
    for row in rows {
        let k: Vec<Value> = keys
            .iter()
            .map(|(e, _)| eval(e, &row, env))
            .collect::<Result<_, _>>()?;
        keyed.push((k, row));
    }
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, (_, desc)) in keys.iter().enumerate() {
            let ord = ka[i].cmp(&kb[i]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

/// Order-preserving duplicate elimination: first occurrences are
/// chained in a key table over row positions, then the rest are dropped
/// in place, so no row is cloned.
fn dedup(mut rows: Vec<Row>) -> Vec<Row> {
    let mut table = KeyTable::with_rows(rows.len());
    let first: Vec<bool> = (0..rows.len())
        .map(|i| {
            let h = hash_values(&rows[i]);
            table.insert_distinct(i as u32, h, |j| rows[j as usize] == rows[i])
        })
        .collect();
    let mut first = first.into_iter();
    rows.retain(|_| first.next() == Some(true));
    rows
}

/// Row membership in `rows`, by identity, through one key table.
fn row_set(rows: &[Row]) -> impl Fn(&[Value]) -> bool + '_ {
    let table = KeyTable::build(rows.len(), |i| Some(hash_values(&rows[i])));
    move |row| {
        table
            .candidates(hash_values(row))
            .any(|j| rows[j as usize] == row)
    }
}

/// The defining semantics of duplicate elimination (reference oracle
/// only): keep each row not yet in the output. Quadratic, and sharing
/// no code with [`dedup`].
fn distinct_reference(rows: Vec<Row>) -> Vec<Row> {
    let mut out: Vec<Row> = Vec::new();
    for row in rows {
        if !out.contains(&row) {
            out.push(row);
        }
    }
    out
}

/// Arity of a join's materialised right side, for LEFT-join NULL
/// padding: read off the first row, or off the plan when there is none.
fn right_arity(r: &[Row], right: &Plan, env: &EvalEnv<'_>) -> Result<usize, EngineError> {
    match r.first() {
        Some(row) => Ok(row.len()),
        None => right.arity(env.catalog),
    }
}

/// The production hash join over materialised inputs; `right` is the
/// plan that produced `r`. The right keys are evaluated once per row, in
/// row order, into one flat buffer, and built into a key table (a row
/// whose key has a `NULL` is left out); each left row's keys are
/// evaluated into one reused buffer just before it probes the table,
/// meeting its matches in right-row order. Keys compare by SQL `=`, as
/// the same equality in a filter would: `-0.0` equals `0.0` (`Value`
/// hashes the two alike) and a `NaN` key matches nothing.
#[allow(clippy::too_many_arguments)]
fn hash_join_rows(
    l: Vec<Row>,
    r: Vec<Row>,
    right: &Plan,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
    residual: Option<&BoundExpr>,
    join_type: JoinType,
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    let right_arity = right_arity(&r, right, env)?;
    let width = right_keys.len();
    let mut rvals = Vec::with_capacity(r.len() * width);
    for row in &r {
        let end = rvals.len() + width;
        for k in right_keys {
            let v = eval(k, row, env)?;
            let null = v.is_null();
            rvals.push(v);
            if null {
                break; // the row matches nothing
            }
        }
        rvals.resize(end, Value::Null);
    }
    let rkey = |i: usize| &rvals[i * width..(i + 1) * width];
    let table = KeyTable::build(r.len(), |i| {
        let key = rkey(i);
        (!key.iter().any(Value::is_null)).then(|| hash_values(key))
    });

    let mut lkey: Vec<Value> = Vec::with_capacity(width);
    let mut out = Vec::new();
    for lrow in &l {
        let mut keyed = true;
        lkey.clear();
        for k in left_keys {
            let v = eval(k, lrow, env)?;
            if v.is_null() {
                keyed = false;
                break;
            }
            lkey.push(v);
        }
        let mut matched = false;
        if keyed {
            for i in table.candidates(hash_values(&lkey)) {
                let equal = rkey(i as usize)
                    .iter()
                    .zip(&lkey)
                    .all(|(r, l)| r.sql_eq(l) == Some(true));
                if !equal {
                    continue;
                }
                let rrow = &r[i as usize];
                let mut row = Vec::with_capacity(lrow.len() + rrow.len());
                row.extend_from_slice(lrow);
                row.extend_from_slice(rrow);
                let keep = match residual {
                    Some(p) => eval(p, &row, env)? == Value::Bool(true),
                    None => true,
                };
                if keep {
                    matched = true;
                    out.push(row);
                }
            }
        }
        if !matched && join_type == JoinType::Left {
            out.push(null_padded(lrow, right_arity));
        }
    }
    Ok(out)
}

/// A left row padded with `NULL`s for an unmatched LEFT-join row.
fn null_padded(lrow: &[Value], right_arity: usize) -> Row {
    let mut row = Vec::with_capacity(lrow.len() + right_arity);
    row.extend_from_slice(lrow);
    row.extend(std::iter::repeat_n(Value::Null, right_arity));
    row
}

/// Evaluate a join key for `row`; `None` at the first `NULL` component.
fn join_key(
    keys: &[BoundExpr],
    row: &[Value],
    env: &mut EvalEnv<'_>,
) -> Result<Option<Vec<Value>>, EngineError> {
    let mut key = Vec::with_capacity(keys.len());
    for k in keys {
        let v = eval(k, row, env)?;
        if v.is_null() {
            return Ok(None);
        }
        key.push(v);
    }
    Ok(Some(key))
}

/// The defining semantics of an equi-join (reference oracle only), as a
/// nested loop: a left row pairs with every right row, in order, whose
/// key SQL-equals its own (a `NULL` or `NaN` component matches nothing,
/// `-0.0` meets `0.0`) and on which the residual holds. Keys are
/// evaluated in the production order — every right row first, then each
/// left row before its matches — so an erroring key fails both
/// executors alike.
#[allow(clippy::too_many_arguments)]
fn equi_join_reference(
    l: Vec<Row>,
    r: Vec<Row>,
    right: &Plan,
    left_keys: &[BoundExpr],
    right_keys: &[BoundExpr],
    residual: Option<&BoundExpr>,
    join_type: JoinType,
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    let right_arity = right_arity(&r, right, env)?;
    let rkeys: Vec<Option<Vec<Value>>> = r
        .iter()
        .map(|row| join_key(right_keys, row, env))
        .collect::<Result<_, _>>()?;
    let mut out = Vec::new();
    for lrow in &l {
        let mut matched = false;
        if let Some(lkey) = join_key(left_keys, lrow, env)? {
            for (rrow, rkey) in r.iter().zip(&rkeys) {
                let Some(rkey) = rkey else { continue };
                if !rkey
                    .iter()
                    .zip(&lkey)
                    .all(|(r, l)| r.sql_eq(l) == Some(true))
                {
                    continue;
                }
                let mut row = lrow.clone();
                row.extend_from_slice(rrow);
                let keep = match residual {
                    Some(p) => eval(p, &row, env)? == Value::Bool(true),
                    None => true,
                };
                if keep {
                    matched = true;
                    out.push(row);
                }
            }
        }
        if !matched && join_type == JoinType::Left {
            out.push(null_padded(lrow, right_arity));
        }
    }
    Ok(out)
}

/// Nested-loop join over materialised inputs (shared by both executors).
fn nested_loop_rows(
    l: Vec<Row>,
    r: Vec<Row>,
    right: &Plan,
    predicate: Option<&BoundExpr>,
    join_type: JoinType,
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    let right_arity = right_arity(&r, right, env)?;
    let mut out = Vec::new();
    for lrow in &l {
        let mut matched = false;
        for rrow in &r {
            let mut row = Vec::with_capacity(lrow.len() + rrow.len());
            row.extend_from_slice(lrow);
            row.extend_from_slice(rrow);
            let keep = match predicate {
                Some(p) => eval(p, &row, env)? == Value::Bool(true),
                None => true,
            };
            if keep {
                matched = true;
                out.push(row);
            }
        }
        if !matched && join_type == JoinType::Left {
            out.push(null_padded(lrow, right_arity));
        }
    }
    Ok(out)
}

/// Accumulator for one aggregate in one group. Shared with the
/// vectorized aggregation path ([`crate::column`]), which feeds it the
/// same `Value` sequence the row-mode loop would — update/finish
/// semantics (overflow checks, type errors, DISTINCT replay) are
/// defined here once.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    Count(i64),
    Sum {
        sum_i: i64,
        sum_f: f64,
        is_float: bool,
        seen: bool,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
    Distinct {
        values: FxHashSet<Value>,
        func: AggFunc,
    },
}

impl Acc {
    pub(crate) fn new(agg: &AggExpr) -> Acc {
        if agg.distinct {
            return Acc::Distinct {
                values: FxHashSet::default(),
                func: agg.func,
            };
        }
        match agg.func {
            AggFunc::CountStar | AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum {
                sum_i: 0,
                sum_f: 0.0,
                is_float: false,
                seen: false,
            },
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => Acc::MinMax {
                best: None,
                is_min: false,
            },
        }
    }

    pub(crate) fn update(&mut self, v: Option<Value>) -> Result<(), EngineError> {
        match self {
            Acc::Count(n) => match v {
                // COUNT(*) gets None (always counts); COUNT(e) skips NULLs.
                None => *n += 1,
                Some(Value::Null) => {}
                Some(_) => *n += 1,
            },
            Acc::Sum {
                sum_i,
                sum_f,
                is_float,
                seen,
            } => match v {
                Some(Value::Int(x)) => {
                    *seen = true;
                    *sum_i = sum_i
                        .checked_add(x)
                        .ok_or_else(|| EngineError::new("integer overflow in SUM"))?;
                    *sum_f += x as f64;
                }
                Some(Value::Float(x)) => {
                    *seen = true;
                    *is_float = true;
                    *sum_f += x;
                }
                Some(Value::Null) | None => {}
                Some(other) => {
                    return Err(EngineError::new(format!("SUM of {}", other.type_name())))
                }
            },
            Acc::Avg { sum, n } => match v {
                Some(Value::Int(x)) => {
                    *sum += x as f64;
                    *n += 1;
                }
                Some(Value::Float(x)) => {
                    *sum += x;
                    *n += 1;
                }
                Some(Value::Null) | None => {}
                Some(other) => {
                    return Err(EngineError::new(format!("AVG of {}", other.type_name())))
                }
            },
            Acc::MinMax { best, is_min } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        let better = match best {
                            None => true,
                            Some(b) => match v.sql_cmp(b) {
                                Some(std::cmp::Ordering::Less) => *is_min,
                                Some(std::cmp::Ordering::Greater) => !*is_min,
                                _ => false,
                            },
                        };
                        if better {
                            *best = Some(v);
                        }
                    }
                }
            }
            Acc::Distinct { values, .. } => {
                if let Some(v) = v {
                    if !v.is_null() {
                        values.insert(v);
                    }
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Result<Value, EngineError> {
        Ok(match self {
            Acc::Count(n) => Value::Int(n),
            Acc::Sum {
                sum_i,
                sum_f,
                is_float,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if is_float {
                    Value::Float(sum_f)
                } else {
                    Value::Int(sum_i)
                }
            }
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Acc::MinMax { best, .. } => best.unwrap_or(Value::Null),
            Acc::Distinct { values, func } => {
                let mut acc = Acc::new(&AggExpr {
                    func,
                    arg: None,
                    distinct: false,
                });
                for v in values {
                    acc.update(Some(v))?;
                }
                acc.finish()?
            }
        })
    }
}

/// Grouped aggregation over materialised input (shared by both
/// executors).
fn aggregate_rows(
    rows: Vec<Row>,
    group_exprs: &[BoundExpr],
    aggregates: &[AggExpr],
    env: &mut EvalEnv<'_>,
) -> Result<Vec<Row>, EngineError> {
    // Deterministic group order: remember first-seen order.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: FxHashMap<Vec<Value>, Vec<Acc>> =
        FxHashMap::with_capacity_and_hasher(rows.len().min(1 << 16), Default::default());
    for row in &rows {
        let key: Vec<Value> = group_exprs
            .iter()
            .map(|e| eval(e, row, env))
            .collect::<Result<_, _>>()?;
        // Entry API: the key is moved in and cloned once only for
        // first-seen groups (the old probe-then-insert path cloned it
        // twice per new group).
        let accs = match groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                order.push(e.key().clone());
                e.insert(aggregates.iter().map(Acc::new).collect::<Vec<_>>())
            }
        };
        for (acc, agg) in accs.iter_mut().zip(aggregates) {
            let v = match &agg.arg {
                Some(e) => Some(eval(e, row, env)?),
                None => None,
            };
            acc.update(v)?;
        }
    }
    // Global aggregate over an empty input still yields one row.
    if group_exprs.is_empty() && groups.is_empty() {
        let accs: Vec<Acc> = aggregates.iter().map(Acc::new).collect();
        let mut row = Vec::new();
        for acc in accs {
            row.push(acc.finish()?);
        }
        return Ok(vec![row]);
    }
    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let accs = groups.remove(&key).expect("group recorded");
        let mut row = key;
        for acc in accs {
            row.push(acc.finish()?);
        }
        out.push(row);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::schema::{Column, DataType, TableSchema};

    fn catalog_with_t() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "t",
                vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Text),
                ],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        let t = c.table_mut("t").unwrap();
        for (a, b) in [(1, "x"), (2, "y"), (3, "x")] {
            t.insert(vec![Value::Int(a), Value::text(b)]).unwrap();
        }
        c
    }

    fn run(c: &Catalog, plan: &Plan) -> Vec<Row> {
        let mut env = EvalEnv::new(c);
        execute(plan, &mut env).unwrap()
    }

    fn scan() -> Plan {
        Plan::Scan { table: "t".into() }
    }

    #[test]
    fn scan_and_filter() {
        let c = catalog_with_t();
        let plan = Plan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::Binary {
                op: hippo_sql::BinaryOp::Gt,
                left: Box::new(BoundExpr::Column(0)),
                right: Box::new(BoundExpr::Literal(Value::Int(1))),
            },
        };
        let rows = run(&c, &plan);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn cross_join_sizes() {
        let c = catalog_with_t();
        let plan = Plan::CrossJoin {
            left: Box::new(scan()),
            right: Box::new(scan()),
        };
        assert_eq!(run(&c, &plan).len(), 9);
    }

    #[test]
    fn hash_join_inner_and_left() {
        let c = catalog_with_t();
        // join t with itself on b
        let join = |jt| Plan::HashJoin {
            left: Box::new(Plan::Filter {
                input: Box::new(scan()),
                predicate: BoundExpr::Binary {
                    op: hippo_sql::BinaryOp::Eq,
                    left: Box::new(BoundExpr::Column(0)),
                    right: Box::new(BoundExpr::Literal(Value::Int(1))),
                },
            }),
            right: Box::new(scan()),
            left_keys: vec![BoundExpr::Column(1)],
            right_keys: vec![BoundExpr::Column(1)],
            residual: None,
            join_type: jt,
        };
        // left side = (1, x); matches rows with b=x: (1,x),(3,x)
        assert_eq!(run(&c, &join(JoinType::Inner)).len(), 2);
        assert_eq!(run(&c, &join(JoinType::Left)).len(), 2);
    }

    #[test]
    fn left_join_pads_nulls() {
        let mut c = catalog_with_t();
        c.create_table(
            TableSchema::new("empty", vec![Column::new("z", DataType::Int)], &[]).unwrap(),
        )
        .unwrap();
        let plan = Plan::NestedLoopJoin {
            left: Box::new(scan()),
            right: Box::new(Plan::Scan {
                table: "empty".into(),
            }),
            predicate: None,
            join_type: JoinType::Left,
        };
        let rows = run(&c, &plan);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.len() == 3 && r[2] == Value::Null));
    }

    #[test]
    fn null_keys_never_join() {
        let mut c = Catalog::new();
        c.create_table(TableSchema::new("n", vec![Column::new("k", DataType::Int)], &[]).unwrap())
            .unwrap();
        c.table_mut("n").unwrap().insert(vec![Value::Null]).unwrap();
        let plan = Plan::HashJoin {
            left: Box::new(Plan::Scan { table: "n".into() }),
            right: Box::new(Plan::Scan { table: "n".into() }),
            left_keys: vec![BoundExpr::Column(0)],
            right_keys: vec![BoundExpr::Column(0)],
            residual: None,
            join_type: JoinType::Inner,
        };
        assert!(run(&c, &plan).is_empty());
    }

    #[test]
    fn set_operations() {
        let c = Catalog::new();
        let vals =
            |xs: &[i64]| Plan::values_literal(xs.iter().map(|&x| vec![Value::Int(x)]).collect(), 1);
        let union = Plan::Union {
            left: Box::new(vals(&[1, 2, 2])),
            right: Box::new(vals(&[2, 3])),
            all: false,
        };
        assert_eq!(run(&c, &union).len(), 3);
        let union_all = Plan::Union {
            left: Box::new(vals(&[1, 2, 2])),
            right: Box::new(vals(&[2, 3])),
            all: true,
        };
        assert_eq!(run(&c, &union_all).len(), 5);
        let except = Plan::Except {
            left: Box::new(vals(&[1, 2, 2, 3])),
            right: Box::new(vals(&[2])),
            all: false,
        };
        assert_eq!(
            run(&c, &except),
            vec![vec![Value::Int(1)], vec![Value::Int(3)]]
        );
        let except_all = Plan::Except {
            left: Box::new(vals(&[1, 2, 2, 3])),
            right: Box::new(vals(&[2])),
            all: true,
        };
        assert_eq!(
            run(&c, &except_all).len(),
            3,
            "EXCEPT ALL removes one occurrence"
        );
        let intersect = Plan::Intersect {
            left: Box::new(vals(&[1, 2, 2])),
            right: Box::new(vals(&[2, 2, 3])),
            all: false,
        };
        assert_eq!(run(&c, &intersect), vec![vec![Value::Int(2)]]);
        let intersect_all = Plan::Intersect {
            left: Box::new(vals(&[1, 2, 2])),
            right: Box::new(vals(&[2, 2, 3])),
            all: true,
        };
        assert_eq!(run(&c, &intersect_all).len(), 2);
    }

    #[test]
    fn distinct_dedups_preserving_order() {
        let c = Catalog::new();
        let plan = Plan::Distinct {
            input: Box::new(Plan::values_literal(
                vec![
                    vec![Value::Int(2)],
                    vec![Value::Int(1)],
                    vec![Value::Int(2)],
                ],
                1,
            )),
        };
        assert_eq!(
            run(&c, &plan),
            vec![vec![Value::Int(2)], vec![Value::Int(1)]]
        );
    }

    #[test]
    fn aggregate_group_by() {
        let c = catalog_with_t();
        let plan = Plan::Aggregate {
            input: Box::new(scan()),
            group_exprs: vec![BoundExpr::Column(1)],
            aggregates: vec![
                AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(BoundExpr::Column(0)),
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Min,
                    arg: Some(BoundExpr::Column(0)),
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Max,
                    arg: Some(BoundExpr::Column(0)),
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Avg,
                    arg: Some(BoundExpr::Column(0)),
                    distinct: false,
                },
            ],
        };
        let rows = run(&c, &plan);
        assert_eq!(rows.len(), 2);
        // groups in first-seen order: x then y
        assert_eq!(
            rows[0],
            vec![
                Value::text("x"),
                Value::Int(2),
                Value::Int(4),
                Value::Int(1),
                Value::Int(3),
                Value::Float(2.0)
            ]
        );
        assert_eq!(rows[1][0], Value::text("y"));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let c = Catalog::new();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Empty { arity: 1 }),
            group_exprs: vec![],
            aggregates: vec![
                AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Sum,
                    arg: Some(BoundExpr::Column(0)),
                    distinct: false,
                },
            ],
        };
        let rows = run(&c, &plan);
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null]]);
    }

    #[test]
    fn count_distinct() {
        let c = Catalog::new();
        let plan = Plan::Aggregate {
            input: Box::new(Plan::values_literal(
                vec![
                    vec![Value::Int(1)],
                    vec![Value::Int(1)],
                    vec![Value::Int(2)],
                    vec![Value::Null],
                ],
                1,
            )),
            group_exprs: vec![],
            aggregates: vec![AggExpr {
                func: AggFunc::Count,
                arg: Some(BoundExpr::Column(0)),
                distinct: true,
            }],
        };
        assert_eq!(run(&c, &plan), vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn sort_and_limit() {
        let c = catalog_with_t();
        let plan = Plan::Limit {
            input: Box::new(Plan::Sort {
                input: Box::new(scan()),
                keys: vec![(BoundExpr::Column(0), true)],
            }),
            limit: Some(2),
            offset: 1,
        };
        let rows = run(&c, &plan);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::Int(2));
        assert_eq!(rows[1][0], Value::Int(1));
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let c = Catalog::new();
        let input = Plan::values_literal(vec![vec![Value::Int(1)], vec![Value::Null]], 1);
        let plan = Plan::Aggregate {
            input: Box::new(input),
            group_exprs: vec![],
            aggregates: vec![
                AggExpr {
                    func: AggFunc::CountStar,
                    arg: None,
                    distinct: false,
                },
                AggExpr {
                    func: AggFunc::Count,
                    arg: Some(BoundExpr::Column(0)),
                    distinct: false,
                },
            ],
        };
        assert_eq!(run(&c, &plan), vec![vec![Value::Int(2), Value::Int(1)]]);
    }

    /// The mark join against the per-row `EXISTS` it replaces: `EXISTS
    /// (SELECT * FROM t WHERE t.k = <outer #0> AND t.v > 15)` over outer
    /// keys 1, 2, 9 and `NULL`, with a hash build and through an index,
    /// on the production executor and the oracle alike.
    #[test]
    fn mark_join_matches_per_row_exists() {
        use hippo_sql::BinaryOp;
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "t",
                vec![
                    Column::new("k", DataType::Int),
                    Column::new("v", DataType::Int),
                ],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        for (k, v) in [(1, 10), (1, 20), (2, 30)] {
            c.table_mut("t")
                .unwrap()
                .insert(vec![Value::Int(k), Value::Int(v)])
                .unwrap();
        }
        let bin = |op, l, r| BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        };
        let outer = || {
            Plan::values_literal(
                vec![
                    vec![Value::Int(1)],
                    vec![Value::Int(2)],
                    vec![Value::Int(9)],
                    vec![Value::Null],
                ],
                1,
            )
        };
        let per_row = Plan::Project {
            input: Box::new(outer()),
            exprs: vec![
                BoundExpr::Column(0),
                BoundExpr::Exists {
                    plan: Box::new(Plan::Filter {
                        input: Box::new(scan()),
                        predicate: bin(
                            BinaryOp::Eq,
                            BoundExpr::Column(0),
                            BoundExpr::OuterRef { level: 0, index: 0 },
                        )
                        .and(bin(
                            BinaryOp::Gt,
                            BoundExpr::Column(1),
                            BoundExpr::Literal(Value::Int(15)),
                        )),
                    }),
                    negated: false,
                },
            ],
        };
        let expected: Vec<Row> = [(1, true), (2, true), (9, false)]
            .into_iter()
            .map(|(k, m)| vec![Value::Int(k), Value::Bool(m)])
            .chain([vec![Value::Null, Value::Bool(false)]])
            .collect();
        assert_eq!(run(&c, &per_row), expected);
        for indexed in [false, true] {
            if indexed {
                c.table_mut("t").unwrap().create_index(vec![0]).unwrap();
            }
            let mut plan = per_row.clone();
            crate::optimize::choose_access_paths(&mut plan, &c);
            let Plan::MarkJoin {
                index, residual, ..
            } = &plan
            else {
                panic!("expected a mark join:\n{plan}")
            };
            assert_eq!(index.is_some(), indexed, "{plan}");
            assert_eq!(
                residual.as_ref(),
                Some(&bin(
                    BinaryOp::Gt,
                    BoundExpr::Column(2),
                    BoundExpr::Literal(Value::Int(15))
                )),
                "the residual reads the inner row after the input row"
            );
            assert_eq!(run(&c, &plan), expected, "oracle, indexed={indexed}");
            let mut env = EvalEnv::new(&c);
            assert_eq!(
                execute_physical(&plan, &mut env).unwrap(),
                expected,
                "production, indexed={indexed}"
            );
        }
    }
}
