//! Columnar storage and vectorized (batch-at-a-time) execution.
//!
//! # Layout
//!
//! A [`ColumnStore`] is a column-major projection of one table's live
//! rows, built lazily on first use and cached on the [`crate::Table`]
//! behind a `OnceLock` (any DML invalidates it; snapshots share the
//! built store through the copy-on-write catalog exactly like
//! secondary indexes). Rows appear in **slot order** — the same order
//! `Table::iter` and every row-mode scan produces — so position `pos`
//! in the store and the row-mode scan's `pos`-th row are the same
//! tuple ([`ColumnStore::tid`] recovers its [`crate::TupleId`]).
//!
//! Each column is a [`ColumnVector`]: a typed, contiguous buffer
//! ([`ColumnData`]) plus a validity bitmap. The schema's coercion on
//! insert guarantees an `INT` column only ever holds `Int`/`Null`
//! values (and so on per type), so the typed buffers are exact:
//!
//! * `Int64`/`Float64`/`Bool` — plain `Vec`s; `NULL` slots hold an
//!   arbitrary placeholder and are masked by the validity bitmap.
//!   Float bits are preserved verbatim (`NaN`, `-0.0` round-trip).
//! * `Str` — dictionary-encoded: a `dict` of distinct strings in
//!   first-appearance order and a `u32` code per row. Predicates over
//!   text evaluate once per **dict entry**, not once per row.
//!
//! # Validity
//!
//! The bitmap is a `Vec<u64>`, one bit per row, bit set = non-`NULL`.
//! Reading a value always goes through [`ColumnVector::is_valid`];
//! [`ColumnVector::value_at`] materialises `Value::Null` for clear
//! bits so row reconstruction is bit-identical to the stored row.
//!
//! # Selection vectors and batches
//!
//! Execution walks the store in windows of [`BATCH_ROWS`] rows. Each
//! window carries an optional **selection vector** — absolute row
//! positions (ascending) that survived the
//! predicates so far. Operators never compact or copy column data;
//! they only append to the selection. `None` means "all rows in the
//! window". Downstream operators (projection, aggregation, join
//! build/probe) materialise `Value`s only for selected positions.
//!
//! Filtering is three-valued per SQL: each conjunct maps an alive row
//! to *true* (keep), *false* (dead — later conjuncts are skipped,
//! mirroring `AND`'s short-circuit), or *null* (still alive for later
//! conjuncts, but never emitted). Comparison errors (only possible
//! with `NaN` float data, where `sql_cmp` is undefined) are reported
//! for exactly the row and conjunct row-mode would report first: the
//! batch filter re-runs with a shrunk window until the earliest
//! erroring row is isolated, so error identity and ordering match the
//! row-at-a-time reference even though evaluation is column-major.
//!
//! # Eligible shapes and fallback rules
//!
//! `compile` accepts exactly these plan roots (after peeling an
//! optional `Limit{limit: Some}` and `Project`):
//!
//! * **Select** — `Filter?(Scan)` where every conjunct is
//!   `column ⟨cmp⟩ literal`, `column ⟨cmp⟩ column` (same-type or
//!   numeric mix), or `column IS [NOT] NULL`, and every projection
//!   item is a column or literal;
//! * **Agg** — `Aggregate` over such a pipe with column-only
//!   group keys and aggregate arguments;
//! * **Join** — `HashJoin` (inner/left, no residual) with
//!   column-only keys over two sides, each `Distinct?(Project?(pipe))`
//!   with a column-only projection (a `Distinct` needs a filter or a
//!   projection below it: row mode runs a bare scan under `DISTINCT` on
//!   its one-charge `Scan` arm). A side stays a selection vector of
//!   positions throughout: a `DISTINCT` side keeps the first position of
//!   each projected row, the join builds over the right side's positions
//!   and probes with the left's, and only output rows are materialised —
//!   a join envelope `HashJoin(Distinct(Project(Filter(Scan r))),
//!   Distinct(Project(Scan s)))` builds no input row at all.
//!
//! Duplicate elimination and the join's build share the engine's one
//! key table (`keytable.rs`): chain heads, one link and one cached hash
//! per position, no key vector per row. [`ColumnVector::hash_at`] and
//! [`ColumnVector::eq_at`] hash and compare a position exactly as
//! `Value` hashes and compares the materialised value, so the row-mode
//! operators and these agree on every key, `NULL`, `-0.0`, `NaN` and
//! `TEXT` included.
//!
//! Anything else returns `None` and runs row-mode — but because the
//! vectorized hook sits at the top of `execute_physical`, *subtrees*
//! of unconverted operators (a `Distinct` or `Sort` input, a
//! set-operation branch, a materialising `Limit` input, an
//! uncorrelated expression subquery) still vectorize when they match.
//! The one deliberate exception: a `Limit{Some}` over a streaming
//! shape the compiler rejected runs the row-wise early-exit scan
//! (`streaming_limit`) without recursing, so `EXPLAIN` reports it as
//! row-mode.
//!
//! Runtime conditions that cannot be checked structurally (a literal
//! the column store cannot pre-evaluate, a store that failed to
//! build) fall back **before** any
//! budget charge or stats side effect, so row-mode then reproduces
//! the exact success or error behaviour.
//!
//! # Charging parity
//!
//! The vectorized path replays row-mode's budget-charging sequence
//! exactly: an unfiltered, unlimited scan charges one batch
//! (`charge_batch`, like the `Scan` arm); a filtered or limited
//! scan charges per examined row in row order, with the limit's
//! check-before-charge rule (`LIMIT 0` charges nothing) preserved.
//! Answers, errors, and every budget counter are bit-identical to row
//! mode at any thread count; `EXPLAIN` shows which engine ran, and
//! [`crate::SnapshotStatsView`] counts `batches_executed` / `vectorized_rows` /
//! `rowmode_rows`.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};

use hippo_sql::BinaryOp;
use rustc_hash::FxHashMap;

use crate::catalog::Catalog;
use crate::exec::Acc;
use crate::expr::{split_conjuncts_ref, BoundExpr, EvalEnv};
use crate::keytable::KeyTable;
use crate::plan::{AggExpr, JoinType, Plan};
use crate::schema::{DataType, EngineError, TableSchema};
use crate::table::Table;
use crate::value::{self, sql_int_float_cmp, Row, Value};

/// Rows per execution batch window.
pub(crate) const BATCH_ROWS: usize = 1024;

// ---------------------------------------------------------------------------
// Columnar storage
// ---------------------------------------------------------------------------

/// Typed, contiguous column buffer. `NULL` slots hold placeholders
/// (`0`/`0.0`/`false`/code `0`) masked by the owning vector's validity
/// bitmap.
#[derive(Debug, Clone)]
pub(crate) enum ColumnData {
    /// `INT` column.
    Int64(Vec<i64>),
    /// `FLOAT` column (bit patterns preserved, including `NaN`/`-0.0`).
    Float64(Vec<f64>),
    /// `BOOLEAN` column.
    Bool(Vec<bool>),
    /// `TEXT` column, dictionary-encoded.
    Str {
        /// Distinct strings in first-appearance order.
        dict: Vec<String>,
        /// Per-row dictionary code.
        codes: Vec<u32>,
    },
}

/// One column: typed data plus a validity bitmap (bit set = non-`NULL`).
#[derive(Debug, Clone)]
pub(crate) struct ColumnVector {
    data: ColumnData,
    validity: Vec<u64>,
}

impl ColumnVector {
    /// Is the value at `pos` non-`NULL`?
    #[inline]
    pub(crate) fn is_valid(&self, pos: usize) -> bool {
        self.validity[pos >> 6] >> (pos & 63) & 1 == 1
    }

    /// The typed buffer.
    #[cfg(test)]
    fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Materialise the value at `pos` (bit-identical to the stored row
    /// value, `Value::Null` for clear validity bits).
    pub(crate) fn value_at(&self, pos: usize) -> Value {
        if !self.is_valid(pos) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int64(v) => Value::Int(v[pos]),
            ColumnData::Float64(v) => Value::Float(v[pos]),
            ColumnData::Bool(v) => Value::Bool(v[pos]),
            ColumnData::Str { dict, codes } => Value::Text(dict[codes[pos] as usize].clone()),
        }
    }

    /// Feed `state` what `value_at(pos).hash(state)` would, without
    /// building the value (no allocation for `TEXT`).
    #[inline]
    pub(crate) fn hash_at<H: Hasher>(&self, pos: usize, state: &mut H) {
        if !self.is_valid(pos) {
            return value::hash_null(state);
        }
        match &self.data {
            ColumnData::Int64(v) => value::hash_int(v[pos], state),
            ColumnData::Float64(v) => value::hash_float(v[pos], state),
            ColumnData::Bool(v) => value::hash_bool(v[pos], state),
            ColumnData::Str { dict, codes } => value::hash_text(&dict[codes[pos] as usize], state),
        }
    }

    /// `value_at(pos) == other.value_at(opos)` — `Value` identity
    /// (`NULL` equals `NULL`, integers and floats by exact value) —
    /// without building either value.
    #[inline]
    pub(crate) fn eq_at(&self, pos: usize, other: &ColumnVector, opos: usize) -> bool {
        match (self.is_valid(pos), other.is_valid(opos)) {
            (true, true) => {}
            (a, b) => return a == b,
        }
        match (&self.data, &other.data) {
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a[pos] == b[opos],
            (ColumnData::Float64(a), ColumnData::Float64(b)) => {
                value::float_cmp(a[pos], b[opos]) == Ordering::Equal
            }
            (ColumnData::Int64(a), ColumnData::Float64(b)) => {
                value::int_float_cmp(a[pos], b[opos]) == Ordering::Equal
            }
            (ColumnData::Float64(a), ColumnData::Int64(b)) => {
                value::int_float_cmp(b[opos], a[pos]) == Ordering::Equal
            }
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[pos] == b[opos],
            (
                ColumnData::Str {
                    dict: da,
                    codes: ca,
                },
                ColumnData::Str {
                    dict: db,
                    codes: cb,
                },
            ) => {
                // One dictionary holds each string once.
                if std::ptr::eq(da, db) {
                    ca[pos] == cb[opos]
                } else {
                    da[ca[pos] as usize] == db[cb[opos] as usize]
                }
            }
            _ => false,
        }
    }
}

/// Column-major projection of one table's live rows, in slot order.
#[derive(Debug, Clone)]
pub(crate) struct ColumnStore {
    cols: Vec<ColumnVector>,
    /// Slot-parallel tuple ids (`tids[pos]` owns row `pos`).
    tids: Vec<u32>,
}

impl ColumnStore {
    /// Build from a table's live rows. Returns `None` if any stored
    /// value contradicts its declared column type (cannot happen for
    /// rows admitted through `check_row`, but the engine degrades to
    /// row mode rather than panicking if it ever does).
    pub(crate) fn build(table: &Table) -> Option<ColumnStore> {
        let n = table.len();
        let words = n.div_ceil(64);
        let mut builders: Vec<(ColumnData, Vec<u64>)> = table
            .schema
            .columns
            .iter()
            .map(|c| {
                let data = match c.ty {
                    DataType::Int => ColumnData::Int64(Vec::with_capacity(n)),
                    DataType::Float => ColumnData::Float64(Vec::with_capacity(n)),
                    DataType::Bool => ColumnData::Bool(Vec::with_capacity(n)),
                    DataType::Text => ColumnData::Str {
                        dict: Vec::new(),
                        codes: Vec::with_capacity(n),
                    },
                };
                (data, vec![0u64; words])
            })
            .collect();
        // Side map for dictionary interning, one per TEXT column.
        let mut interns: Vec<FxHashMap<String, u32>> = table
            .schema
            .columns
            .iter()
            .map(|_| FxHashMap::default())
            .collect();
        let mut tids = Vec::with_capacity(n);
        for (pos, (tid, row)) in table.iter().enumerate() {
            tids.push(tid.0);
            for (c, v) in row.iter().enumerate() {
                let (data, validity) = &mut builders[c];
                match (data, v) {
                    (ColumnData::Int64(buf), Value::Int(x)) => buf.push(*x),
                    (ColumnData::Int64(buf), Value::Null) => {
                        buf.push(0);
                        continue;
                    }
                    (ColumnData::Float64(buf), Value::Float(x)) => buf.push(*x),
                    (ColumnData::Float64(buf), Value::Null) => {
                        buf.push(0.0);
                        continue;
                    }
                    (ColumnData::Bool(buf), Value::Bool(x)) => buf.push(*x),
                    (ColumnData::Bool(buf), Value::Null) => {
                        buf.push(false);
                        continue;
                    }
                    (ColumnData::Str { dict, codes }, Value::Text(s)) => {
                        let code = match interns[c].get(s) {
                            Some(&code) => code,
                            None => {
                                let code = dict.len() as u32;
                                dict.push(s.clone());
                                interns[c].insert(s.clone(), code);
                                code
                            }
                        };
                        codes.push(code);
                    }
                    (ColumnData::Str { codes, .. }, Value::Null) => {
                        codes.push(0);
                        continue;
                    }
                    _ => return None,
                }
                validity[pos >> 6] |= 1u64 << (pos & 63);
            }
        }
        Some(ColumnStore {
            cols: builders
                .into_iter()
                .map(|(data, validity)| ColumnVector { data, validity })
                .collect(),
            tids,
        })
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.tids.len()
    }

    /// Column `i`.
    #[cfg(test)]
    fn column(&self, i: usize) -> &ColumnVector {
        &self.cols[i]
    }

    /// Tuple id of row `pos` (raw `u32`, see [`crate::TupleId`]).
    #[cfg(test)]
    fn tid(&self, pos: usize) -> u32 {
        self.tids[pos]
    }

    /// Materialise row `pos` as a full [`Row`] (bit-identical to the
    /// stored slot row).
    pub(crate) fn materialize_row(&self, pos: usize) -> Row {
        self.cols.iter().map(|c| c.value_at(pos)).collect()
    }
}

// ---------------------------------------------------------------------------
// Enable/disable switch
// ---------------------------------------------------------------------------

/// Vectorized execution is on unless a test turned it off.
static COLUMNAR_OFF: AtomicBool = AtomicBool::new(false);

/// Turn vectorized execution off (`false`) or back on (`true`, the
/// default) process-wide — the hook the differential suites and the
/// toggle tests use to run the row-mode operators on shapes that would
/// vectorize; worker threads observe it immediately. Not a deployment
/// setting: nothing reads the environment.
pub fn set_columnar_override(on: bool) {
    COLUMNAR_OFF.store(!on, AtomicOrdering::Relaxed);
}

/// Serialises unit tests that flip the process-wide override so they
/// cannot observe each other's transient settings when the test
/// harness runs them on parallel threads.
#[cfg(test)]
pub(crate) fn override_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Is vectorized execution enabled (the default, unless
/// [`set_columnar_override`] turned it off)?
pub(crate) fn columnar_enabled() -> bool {
    !COLUMNAR_OFF.load(AtomicOrdering::Relaxed)
}

// ---------------------------------------------------------------------------
// Plan compilation (structural, data-independent)
// ---------------------------------------------------------------------------

/// A compiled vectorized query.
pub(crate) struct VecQuery<'p> {
    root: Root<'p>,
}

enum Root<'p> {
    Select {
        pipe: Pipe<'p>,
        project: Option<&'p [BoundExpr]>,
        /// `(limit, offset)` from a peeled `Limit{limit: Some}`.
        limit: Option<(u64, u64)>,
    },
    Agg {
        pipe: Pipe<'p>,
        group_cols: Vec<usize>,
        aggs: &'p [AggExpr],
        /// Argument column per aggregate (`None` = `COUNT(*)`).
        arg_cols: Vec<Option<usize>>,
        project: Option<&'p [BoundExpr]>,
    },
    Join {
        left: Side<'p>,
        right: Side<'p>,
        /// Key columns, as offsets into each side's output.
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        join_type: JoinType,
        project: Option<&'p [BoundExpr]>,
    },
}

/// A join side: `Distinct?(Project?(pipe))` with a column-only
/// projection, run on positions — the pipe's selection, deduplicated
/// when `distinct` — until the join emits its output rows.
struct Side<'p> {
    pipe: Pipe<'p>,
    /// The store column behind each output column of the side.
    cols: Vec<usize>,
    distinct: bool,
}

/// A scan pipe: `Filter?(Scan)` with compiled conjuncts.
struct Pipe<'p> {
    table: &'p str,
    preds: Vec<Pred<'p>>,
    /// Whether a `Filter` was present (drives per-row charging
    /// parity even when `preds` is empty — it never is today, but the
    /// flag keeps charging tied to plan shape, not predicate count).
    has_filter: bool,
}

/// One compiled conjunct.
enum Pred<'p> {
    /// `col ⟨op⟩ rhs` — already flipped so the column is on the left;
    /// `orig_col_left` remembers the source orientation for error-text
    /// parity (`"cannot compare l with r"` names operands in source
    /// order).
    Cmp {
        col: usize,
        op: BinaryOp,
        rhs: &'p Value,
        orig_col_left: bool,
    },
    /// `col ⟨op⟩ col`.
    CmpCols {
        left: usize,
        op: BinaryOp,
        right: usize,
    },
    /// `col IS [NOT] NULL`.
    IsNull { col: usize, negated: bool },
}

/// Compile a plan into a vectorized query, or `None` if any
/// part of the shape is unconverted. Purely structural: no table data
/// is consulted, so the answer is stable for a
/// given plan and schema (which is what `EXPLAIN` prints).
pub(crate) fn compile<'p>(plan: &'p Plan, catalog: &Catalog) -> Option<VecQuery<'p>> {
    let (limit, node) = match plan {
        Plan::Limit {
            input,
            limit: Some(l),
            offset,
        } => (Some((*l, *offset)), &**input),
        other => (None, other),
    };
    let (project, node) = match node {
        Plan::Project { input, exprs } => (Some(exprs.as_slice()), &**input),
        other => (None, other),
    };
    match node {
        Plan::Aggregate {
            input,
            group_exprs,
            aggregates,
        } if limit.is_none() => {
            let pipe = compile_pipe(input, catalog)?;
            let arity = catalog.table(pipe.table).ok()?.schema.arity();
            let mut group_cols = Vec::with_capacity(group_exprs.len());
            for g in group_exprs {
                match g {
                    BoundExpr::Column(i) if *i < arity => group_cols.push(*i),
                    _ => return None,
                }
            }
            let mut arg_cols = Vec::with_capacity(aggregates.len());
            for a in aggregates {
                match &a.arg {
                    None => arg_cols.push(None),
                    Some(BoundExpr::Column(i)) if *i < arity => arg_cols.push(Some(*i)),
                    Some(_) => return None,
                }
            }
            let out_arity = group_cols.len() + aggregates.len();
            check_project(project, out_arity)?;
            Some(VecQuery {
                root: Root::Agg {
                    pipe,
                    group_cols,
                    aggs: aggregates,
                    arg_cols,
                    project,
                },
            })
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual: None,
            join_type,
        } if limit.is_none() => {
            let left = compile_side(left, catalog)?;
            let right = compile_side(right, catalog)?;
            let lk = key_columns(left_keys, left.cols.len())?;
            let rk = key_columns(right_keys, right.cols.len())?;
            check_project(project, left.cols.len() + right.cols.len())?;
            Some(VecQuery {
                root: Root::Join {
                    left,
                    right,
                    left_keys: lk,
                    right_keys: rk,
                    join_type: *join_type,
                    project,
                },
            })
        }
        other => {
            let pipe = compile_pipe(other, catalog)?;
            // A bare unfiltered, unprojected, unlimited scan gains
            // nothing from the batch path; keep it on the one-charge
            // row-mode `Scan` arm.
            if !pipe.has_filter && project.is_none() && limit.is_none() {
                return None;
            }
            let arity = catalog.table(pipe.table).ok()?.schema.arity();
            check_project(project, arity)?;
            Some(VecQuery {
                root: Root::Select {
                    pipe,
                    project,
                    limit,
                },
            })
        }
    }
}

/// Validate a peeled projection: columns in range and literals.
fn check_project(project: Option<&[BoundExpr]>, arity: usize) -> Option<()> {
    if let Some(exprs) = project {
        for e in exprs {
            match e {
                BoundExpr::Column(i) if *i < arity => {}
                BoundExpr::Literal(_) => {}
                _ => return None,
            }
        }
    }
    Some(())
}

/// The column offsets of `keys` when every one is a plain column of
/// rows `arity` wide (join keys, column-only projections).
fn key_columns(keys: &[BoundExpr], arity: usize) -> Option<Vec<usize>> {
    keys.iter()
        .map(|k| match k {
            BoundExpr::Column(i) if *i < arity => Some(*i),
            _ => None,
        })
        .collect()
}

fn compile_side<'p>(node: &'p Plan, catalog: &Catalog) -> Option<Side<'p>> {
    let (distinct, node) = match node {
        Plan::Distinct { input } => (true, &**input),
        other => (false, other),
    };
    let (project, node) = match node {
        Plan::Project { input, exprs } => (Some(exprs), &**input),
        other => (None, other),
    };
    let pipe = compile_pipe(node, catalog)?;
    // Row mode runs a bare scan under `DISTINCT` on its one-charge
    // `Scan` arm, counted as row-mode rows; leave that shape to it.
    if distinct && project.is_none() && !pipe.has_filter {
        return None;
    }
    let arity = catalog.table(pipe.table).ok()?.schema.arity();
    let cols = match project {
        Some(exprs) => key_columns(exprs, arity)?,
        None => (0..arity).collect(),
    };
    Some(Side {
        pipe,
        cols,
        distinct,
    })
}

fn compile_pipe<'p>(node: &'p Plan, catalog: &Catalog) -> Option<Pipe<'p>> {
    let (pred, scan) = match node {
        Plan::Filter { input, predicate } => (Some(predicate), &**input),
        other => (None, other),
    };
    let table = match scan {
        Plan::Scan { table } => table.as_str(),
        _ => return None,
    };
    let schema = &catalog.table(table).ok()?.schema;
    let mut preds = Vec::new();
    if let Some(p) = pred {
        for c in split_conjuncts_ref(p) {
            preds.push(compile_pred(c, schema)?);
        }
    }
    Some(Pipe {
        table,
        preds,
        has_filter: pred.is_some(),
    })
}

fn compile_pred<'p>(e: &'p BoundExpr, schema: &TableSchema) -> Option<Pred<'p>> {
    match e {
        BoundExpr::IsNull { expr, negated } => match &**expr {
            BoundExpr::Column(i) if *i < schema.arity() => Some(Pred::IsNull {
                col: *i,
                negated: *negated,
            }),
            _ => None,
        },
        BoundExpr::Binary { op, left, right } if op.is_comparison() => match (&**left, &**right) {
            (BoundExpr::Column(l), BoundExpr::Column(r)) => {
                let lt = schema.columns.get(*l)?.ty;
                let rt = schema.columns.get(*r)?.ty;
                let ok = matches!(
                    (lt, rt),
                    (
                        DataType::Int | DataType::Float,
                        DataType::Int | DataType::Float
                    ) | (DataType::Text, DataType::Text)
                        | (DataType::Bool, DataType::Bool)
                );
                ok.then_some(Pred::CmpCols {
                    left: *l,
                    op: *op,
                    right: *r,
                })
            }
            (BoundExpr::Column(c), rhs) => compile_cmp(*c, *op, rhs, true, schema),
            (lhs, BoundExpr::Column(c)) => compile_cmp(*c, op.flip()?, lhs, false, schema),
            _ => None,
        },
        _ => None,
    }
}

/// Compile `col ⟨op⟩ other` (already flipped so the column is on the
/// left; `orig_col_left` records the source orientation).
fn compile_cmp<'p>(
    col: usize,
    op: BinaryOp,
    other: &'p BoundExpr,
    orig_col_left: bool,
    schema: &TableSchema,
) -> Option<Pred<'p>> {
    let ty = schema.columns.get(col)?.ty;
    let rhs = match other {
        BoundExpr::Literal(v) if lit_comparable(ty, v) => v,
        _ => return None,
    };
    Some(Pred::Cmp {
        col,
        op,
        rhs,
        orig_col_left,
    })
}

/// Can a column of type `ty` be compared with literal `v` without the
/// possibility of a *literal-side* comparison failure? (`NULL` is fine:
/// the predicate is constant-`NULL`. Column-side `NaN` data can still
/// fail at runtime and is handled per row.)
fn lit_comparable(ty: DataType, v: &Value) -> bool {
    match v {
        Value::Null => true,
        Value::Int(_) => matches!(ty, DataType::Int | DataType::Float),
        Value::Float(f) => !f.is_nan() && matches!(ty, DataType::Int | DataType::Float),
        Value::Text(_) => ty == DataType::Text,
        Value::Bool(_) => ty == DataType::Bool,
    }
}

// ---------------------------------------------------------------------------
// Runtime resolution (store lookup)
// ---------------------------------------------------------------------------

/// A conjunct resolved against the column store and column types.
enum RtPred {
    /// `INT col ⟨op⟩ i64` — exact integer compare, never errors.
    IntVsInt { col: usize, op: BinaryOp, k: i64 },
    /// Numeric column vs a numeric literal of the other type, or `FLOAT`
    /// column vs non-`NaN` float: `sql_cmp`'s exact cross-type compare.
    /// Errors only on `NaN` *data* in a `FLOAT` column; `err` carries
    /// the operand type names in source order.
    NumVsNum {
        col: usize,
        op: BinaryOp,
        k: Value,
        err: (&'static str, &'static str),
    },
    /// `TEXT col ⟨op⟩ str`, pre-evaluated per dictionary code.
    TextVsCode { col: usize, by_code: Vec<bool> },
    /// `BOOL col ⟨op⟩ bool`.
    BoolVsBool { col: usize, op: BinaryOp, k: bool },
    /// Comparison against `NULL`: every row evaluates to `NULL`.
    AlwaysNull,
    /// `col ⟨op⟩ col`.
    Cols {
        left: usize,
        op: BinaryOp,
        right: usize,
    },
    /// `col IS [NOT] NULL`.
    IsNull { col: usize, negated: bool },
}

/// A resolved projection item.
enum RtProj {
    Col(usize),
    Val(Value),
}

/// Comparison outcome per `eval_binary`'s mapping.
#[inline]
fn apply_cmp(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::Neq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::Le => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::Ge => ord != Ordering::Less,
        _ => unreachable!("non-comparison op in vectorized predicate"),
    }
}

/// Resolve one compiled conjunct against the live column store. `None`
/// = fall back to row mode.
fn resolve_pred(p: &Pred<'_>, store: &ColumnStore, schema: &TableSchema) -> Option<RtPred> {
    match p {
        Pred::IsNull { col, negated } => Some(RtPred::IsNull {
            col: *col,
            negated: *negated,
        }),
        Pred::CmpCols { left, op, right } => Some(RtPred::Cols {
            left: *left,
            op: *op,
            right: *right,
        }),
        Pred::Cmp {
            col,
            op,
            rhs: v,
            orig_col_left,
        } => {
            let ty = schema.columns[*col].ty;
            Some(match (ty, *v) {
                (_, Value::Null) => RtPred::AlwaysNull,
                (DataType::Int, Value::Int(k)) => RtPred::IntVsInt {
                    col: *col,
                    op: *op,
                    k: *k,
                },
                (DataType::Int | DataType::Float, _) => {
                    let rname = match v {
                        Value::Int(_) => "integer",
                        Value::Float(_) => "float",
                        _ => return None,
                    };
                    // Errors name operands in source order: the column
                    // value's type first iff the column was on the left.
                    let err = if *orig_col_left {
                        ("float", rname)
                    } else {
                        (rname, "float")
                    };
                    RtPred::NumVsNum {
                        col: *col,
                        op: *op,
                        k: (*v).clone(),
                        err,
                    }
                }
                (DataType::Text, Value::Text(s)) => {
                    let by_code = match &store.cols[*col].data {
                        ColumnData::Str { dict, .. } => dict
                            .iter()
                            .map(|d| apply_cmp(*op, d.as_str().cmp(s.as_str())))
                            .collect(),
                        _ => return None,
                    };
                    RtPred::TextVsCode { col: *col, by_code }
                }
                (DataType::Bool, Value::Bool(k)) => RtPred::BoolVsBool {
                    col: *col,
                    op: *op,
                    k: *k,
                },
                _ => return None,
            })
        }
    }
}

fn resolve_project(project: Option<&[BoundExpr]>) -> Option<Vec<RtProj>> {
    let exprs = project?;
    let out = exprs
        .iter()
        .map(|e| match e {
            BoundExpr::Column(i) => RtProj::Col(*i),
            BoundExpr::Literal(v) => RtProj::Val(v.clone()),
            _ => unreachable!("check_project admits columns and literals only"),
        })
        .collect();
    Some(out)
}

// ---------------------------------------------------------------------------
// Batch filtering
// ---------------------------------------------------------------------------

/// Per-row tri-state inside a batch window.
const DEAD: u8 = 0;
const ALIVE_TRUE: u8 = 1;
const ALIVE_NULL: u8 = 2;

/// Evaluate one conjunct over rows `[start, start + lim)` of the
/// window, updating `states` in place. `Err((i, e))` reports the first
/// in-window offset whose evaluation fails (only `NaN` float data can
/// fail).
fn eval_pred(
    p: &RtPred,
    store: &ColumnStore,
    start: usize,
    lim: usize,
    states: &mut [u8],
) -> Result<(), (usize, EngineError)> {
    // Shared walk: `f(pos)` returns Ok(Some(bool)) / Ok(None) (NULL) /
    // Err(e); dead rows are skipped (AND short-circuit).
    macro_rules! walk {
        (|$pos:ident| $body:expr) => {
            for (i, s) in states.iter_mut().enumerate().take(lim) {
                if *s == DEAD {
                    continue;
                }
                let $pos = start + i;
                match $body {
                    Ok(Some(true)) => {}
                    Ok(Some(false)) => *s = DEAD,
                    Ok(None) => {
                        if *s == ALIVE_TRUE {
                            *s = ALIVE_NULL;
                        }
                    }
                    Err(e) => return Err((i, e)),
                }
            }
        };
    }
    let ok = |b: bool| -> Result<Option<bool>, EngineError> { Ok(Some(b)) };
    let null = || -> Result<Option<bool>, EngineError> { Ok(None) };
    match p {
        RtPred::AlwaysNull => {
            for s in states.iter_mut().take(lim) {
                if *s == ALIVE_TRUE {
                    *s = ALIVE_NULL;
                }
            }
            Ok(())
        }
        RtPred::IsNull { col, negated } => {
            let cv = &store.cols[*col];
            walk!(|pos| ok(cv.is_valid(pos) == *negated));
            Ok(())
        }
        RtPred::IntVsInt { col, op, k } => {
            let cv = &store.cols[*col];
            let ColumnData::Int64(data) = &cv.data else {
                unreachable!("IntVsInt over non-int column")
            };
            walk!(|pos| if cv.is_valid(pos) {
                ok(apply_cmp(*op, data[pos].cmp(k)))
            } else {
                null()
            });
            Ok(())
        }
        RtPred::BoolVsBool { col, op, k } => {
            let cv = &store.cols[*col];
            let ColumnData::Bool(data) = &cv.data else {
                unreachable!("BoolVsBool over non-bool column")
            };
            walk!(|pos| if cv.is_valid(pos) {
                ok(apply_cmp(*op, data[pos].cmp(k)))
            } else {
                null()
            });
            Ok(())
        }
        RtPred::TextVsCode { col, by_code } => {
            let cv = &store.cols[*col];
            let ColumnData::Str { codes, .. } = &cv.data else {
                unreachable!("TextVsCode over non-text column")
            };
            walk!(|pos| if cv.is_valid(pos) {
                ok(by_code[codes[pos] as usize])
            } else {
                null()
            });
            Ok(())
        }
        RtPred::NumVsNum { col, op, k, err } => {
            let cv = &store.cols[*col];
            let fail = || EngineError::new(format!("cannot compare {} with {}", err.0, err.1));
            match (&cv.data, k) {
                // Int vs non-NaN float always compares.
                (ColumnData::Int64(data), Value::Float(f)) => {
                    walk!(|pos| if cv.is_valid(pos) {
                        let ord = sql_int_float_cmp(data[pos], *f).expect("non-NaN operands");
                        ok(apply_cmp(*op, ord))
                    } else {
                        null()
                    });
                }
                (ColumnData::Float64(data), Value::Int(k)) => {
                    walk!(|pos| if cv.is_valid(pos) {
                        match sql_int_float_cmp(*k, data[pos]) {
                            Some(ord) => ok(apply_cmp(*op, ord.reverse())),
                            None => Err(fail()),
                        }
                    } else {
                        null()
                    });
                }
                (ColumnData::Float64(data), Value::Float(f)) => {
                    walk!(|pos| if cv.is_valid(pos) {
                        match data[pos].partial_cmp(f) {
                            Some(ord) => ok(apply_cmp(*op, ord)),
                            None => Err(fail()),
                        }
                    } else {
                        null()
                    });
                }
                _ => unreachable!("NumVsNum over non-numeric column or literal"),
            }
            Ok(())
        }
        RtPred::Cols { left, op, right } => {
            let (lv, rv) = (&store.cols[*left], &store.cols[*right]);
            macro_rules! both {
                (|$pos:ident| $cmp:expr) => {
                    walk!(|$pos| if lv.is_valid($pos) && rv.is_valid($pos) {
                        $cmp
                    } else {
                        null()
                    });
                };
            }
            let fail = |l: &'static str, r: &'static str| {
                EngineError::new(format!("cannot compare {l} with {r}"))
            };
            match (&lv.data, &rv.data) {
                (ColumnData::Int64(a), ColumnData::Int64(b)) => {
                    both!(|pos| ok(apply_cmp(*op, a[pos].cmp(&b[pos]))));
                }
                (ColumnData::Float64(a), ColumnData::Float64(b)) => {
                    both!(|pos| match a[pos].partial_cmp(&b[pos]) {
                        Some(ord) => ok(apply_cmp(*op, ord)),
                        None => Err(fail("float", "float")),
                    });
                }
                (ColumnData::Int64(a), ColumnData::Float64(b)) => {
                    both!(|pos| match sql_int_float_cmp(a[pos], b[pos]) {
                        Some(ord) => ok(apply_cmp(*op, ord)),
                        None => Err(fail("integer", "float")),
                    });
                }
                (ColumnData::Float64(a), ColumnData::Int64(b)) => {
                    both!(|pos| match sql_int_float_cmp(b[pos], a[pos]) {
                        Some(ord) => ok(apply_cmp(*op, ord.reverse())),
                        None => Err(fail("float", "integer")),
                    });
                }
                (ColumnData::Bool(a), ColumnData::Bool(b)) => {
                    both!(|pos| ok(apply_cmp(*op, a[pos].cmp(&b[pos]))));
                }
                (
                    ColumnData::Str {
                        dict: ld,
                        codes: lc,
                    },
                    ColumnData::Str {
                        dict: rd,
                        codes: rc,
                    },
                ) => {
                    both!(|pos| ok(apply_cmp(
                        *op,
                        ld[lc[pos] as usize].cmp(&rd[rc[pos] as usize])
                    )));
                }
                _ => unreachable!("mixed-type column comparison passed the compile gate"),
            }
            Ok(())
        }
    }
}

/// Run every conjunct over one window, shrinking on evaluation errors
/// until the earliest erroring row is isolated (see module docs).
/// Returns `(evaluated, pending_error)`: `states[..evaluated]` holds
/// the final tri-state of each cleanly evaluated row, and
/// `pending_error` is the error of row `evaluated` (the first row, in
/// row order, whose first live conjunct fails), if any.
fn filter_batch(
    store: &ColumnStore,
    preds: &[RtPred],
    start: usize,
    rows: usize,
    states: &mut Vec<u8>,
) -> (usize, Option<EngineError>) {
    let mut lim = rows;
    let mut pending = None;
    'retry: loop {
        states.clear();
        states.resize(lim, ALIVE_TRUE);
        for p in preds {
            if let Err((i, e)) = eval_pred(p, store, start, lim, states) {
                pending = Some(e);
                lim = i;
                continue 'retry;
            }
        }
        return (lim, pending);
    }
}

/// Scan + filter a store, producing the surviving selection vector
/// (absolute positions, ascending). Replays row-mode charging exactly:
/// one `charge_batch` for an unfiltered unlimited scan, `charge_row`
/// per examined row otherwise, with the streaming limit's
/// check-before-charge early exit when `stop_after` is set.
fn run_pipe(
    env: &mut EvalEnv<'_>,
    store: &ColumnStore,
    preds: &[RtPred],
    has_filter: bool,
    stop_after: Option<usize>,
) -> Result<Vec<u32>, EngineError> {
    let n = store.len();
    let per_row = has_filter || stop_after.is_some();
    if !per_row {
        env.charge_batch(n)?;
    }
    let mut sel: Vec<u32> = Vec::new();
    if stop_after == Some(0) {
        return Ok(sel);
    }
    let mut states: Vec<u8> = Vec::with_capacity(BATCH_ROWS.min(n));
    let mut start = 0usize;
    while start < n {
        let rows = (n - start).min(BATCH_ROWS);
        let (evaluated, err) = filter_batch(store, preds, start, rows, &mut states);
        env.vec_batches += 1;
        env.vec_rows += evaluated as u64;
        match stop_after {
            Some(need) => {
                for (i, &s) in states.iter().enumerate().take(evaluated) {
                    if sel.len() >= need {
                        return Ok(sel);
                    }
                    env.charge_row()?;
                    if s == ALIVE_TRUE {
                        sel.push((start + i) as u32);
                    }
                }
                if let Some(e) = err {
                    if sel.len() >= need {
                        return Ok(sel);
                    }
                    // The erroring row is charged before its (failing)
                    // evaluation, as in the row-mode loop.
                    env.charge_row()?;
                    return Err(e);
                }
            }
            None => {
                if per_row {
                    for _ in 0..evaluated {
                        env.charge_row()?;
                    }
                }
                for (i, &s) in states.iter().enumerate().take(evaluated) {
                    if s == ALIVE_TRUE {
                        sel.push((start + i) as u32);
                    }
                }
                if let Some(e) = err {
                    if per_row {
                        env.charge_row()?;
                    }
                    return Err(e);
                }
            }
        }
        start += rows;
    }
    Ok(sel)
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Try to execute `plan` vectorized. `Ok(None)` = not eligible (shape,
/// switch, or runtime binding) — the caller falls back to row mode
/// having observed no side effects (no budget charges, no stats).
pub(crate) fn try_execute(
    plan: &Plan,
    env: &mut EvalEnv<'_>,
) -> Result<Option<Vec<Row>>, EngineError> {
    // Structural check first: it is a cheap match failure for
    // ineligible shapes (`IndexLookup` roots, mark joins), cheaper than
    // the switch's env read.
    let Some(q) = compile(plan, env.catalog) else {
        return Ok(None);
    };
    if !columnar_enabled() {
        return Ok(None);
    }
    let catalog = env.catalog;
    match &q.root {
        Root::Select {
            pipe,
            project,
            limit,
        } => {
            let Some(rt) = resolve_pipe(pipe, catalog) else {
                return Ok(None);
            };
            let proj = resolve_project(*project);
            let stop_after = limit.map(|(l, o)| o as usize + l as usize);
            let sel = run_pipe(env, rt.store, &rt.preds, pipe.has_filter, stop_after)?;
            let skip = match limit {
                Some((_, o)) => (*o as usize).min(sel.len()),
                None => 0,
            };
            let mut out = Vec::with_capacity(sel.len() - skip);
            for &pos in &sel[skip..] {
                out.push(project_row(rt.store, pos as usize, proj.as_deref()));
            }
            Ok(Some(out))
        }
        Root::Agg {
            pipe,
            group_cols,
            aggs,
            arg_cols,
            project,
        } => {
            let Some(rt) = resolve_pipe(pipe, catalog) else {
                return Ok(None);
            };
            let proj = resolve_project(*project);
            let sel = run_pipe(env, rt.store, &rt.preds, pipe.has_filter, None)?;
            let rows = aggregate_selection(rt.store, &sel, group_cols, aggs, arg_cols)?;
            Ok(Some(match proj {
                None => rows,
                Some(items) => rows
                    .iter()
                    .map(|r| {
                        items
                            .iter()
                            .map(|it| match it {
                                RtProj::Col(i) => r[*i].clone(),
                                RtProj::Val(v) => v.clone(),
                            })
                            .collect()
                    })
                    .collect(),
            }))
        }
        Root::Join {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            project,
        } => {
            let Some(lrt) = resolve_pipe(&left.pipe, catalog) else {
                return Ok(None);
            };
            let Some(rrt) = resolve_pipe(&right.pipe, catalog) else {
                return Ok(None);
            };
            let proj = resolve_project(*project);
            // Row mode executes left before right; keep the charge order.
            // Duplicate elimination charges nothing in either engine.
            let lsel = run_pipe(env, lrt.store, &lrt.preds, left.pipe.has_filter, None)?;
            let lsel = side_selection(lrt.store, lsel, left);
            let rsel = run_pipe(env, rrt.store, &rrt.preds, right.pipe.has_filter, None)?;
            let rsel = side_selection(rrt.store, rsel, right);
            Ok(Some(join_selections(
                JoinSide::new(lrt.store, &lsel, &left.cols, left_keys),
                JoinSide::new(rrt.store, &rsel, &right.cols, right_keys),
                *join_type,
                proj.as_deref(),
            )))
        }
    }
}

/// A pipe resolved against the live column store.
struct RtPipe<'a> {
    store: &'a ColumnStore,
    preds: Vec<RtPred>,
}

fn resolve_pipe<'a>(pipe: &Pipe<'_>, catalog: &'a Catalog) -> Option<RtPipe<'a>> {
    let t = catalog.table(pipe.table).ok()?;
    let store = t.column_store()?;
    let mut preds = Vec::with_capacity(pipe.preds.len());
    for p in &pipe.preds {
        preds.push(resolve_pred(p, store, &t.schema)?);
    }
    Some(RtPipe { store, preds })
}

fn project_row(store: &ColumnStore, pos: usize, proj: Option<&[RtProj]>) -> Row {
    match proj {
        None => store.materialize_row(pos),
        Some(items) => items
            .iter()
            .map(|it| match it {
                RtProj::Col(i) => store.cols[*i].value_at(pos),
                RtProj::Val(v) => v.clone(),
            })
            .collect(),
    }
}

/// Grouped aggregation over a selection, mirroring the row-mode
/// `aggregate_rows` update/finish order exactly (first-seen group
/// order, per-row accumulator updates in aggregate order).
fn aggregate_selection(
    store: &ColumnStore,
    sel: &[u32],
    group_cols: &[usize],
    aggs: &[AggExpr],
    arg_cols: &[Option<usize>],
) -> Result<Vec<Row>, EngineError> {
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: FxHashMap<Vec<Value>, Vec<Acc>> =
        FxHashMap::with_capacity_and_hasher(sel.len().min(1 << 16), Default::default());
    for &pos in sel {
        let pos = pos as usize;
        let key: Vec<Value> = group_cols
            .iter()
            .map(|&c| store.cols[c].value_at(pos))
            .collect();
        let accs = match groups.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                order.push(e.key().clone());
                e.insert(aggs.iter().map(Acc::new).collect())
            }
        };
        for (acc, arg) in accs.iter_mut().zip(arg_cols) {
            let v = arg.map(|c| store.cols[c].value_at(pos));
            acc.update(v)?;
        }
    }
    if group_cols.is_empty() && groups.is_empty() {
        let accs: Vec<Acc> = aggs.iter().map(Acc::new).collect();
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

/// A side's selection as the join sees it: the pipe's surviving
/// positions, keeping only the first occurrence of each projected row
/// when the side is `DISTINCT` (row mode's `dedup` order).
fn side_selection(store: &ColumnStore, sel: Vec<u32>, side: &Side<'_>) -> Vec<u32> {
    if !side.distinct {
        return sel;
    }
    let cols: Vec<&ColumnVector> = side.cols.iter().map(|&c| &store.cols[c]).collect();
    let mut table = KeyTable::with_rows(sel.len());
    let mut out = Vec::with_capacity(sel.len());
    for (i, &pos) in sel.iter().enumerate() {
        let same = |j: u32| {
            let other = sel[j as usize] as usize;
            cols.iter().all(|c| c.eq_at(pos as usize, c, other))
        };
        if table.insert_distinct(i as u32, hash_row_at(&cols, pos as usize), same) {
            out.push(pos);
        }
    }
    out
}

/// The key hash of row `pos` over `cols`: what
/// [`crate::keytable::hash_values`] gives for the same values.
#[inline]
fn hash_row_at(cols: &[&ColumnVector], pos: usize) -> u64 {
    let mut h = rustc_hash::FxHasher::default();
    for c in cols {
        c.hash_at(pos, &mut h);
    }
    h.finish()
}

/// One side of a vectorized join: its store, selected positions, the
/// store column behind each output column, and its key columns.
struct JoinSide<'a> {
    store: &'a ColumnStore,
    sel: &'a [u32],
    cols: &'a [usize],
    keys: Vec<&'a ColumnVector>,
}

impl<'a> JoinSide<'a> {
    fn new(store: &'a ColumnStore, sel: &'a [u32], cols: &'a [usize], keys: &[usize]) -> Self {
        let keys = keys.iter().map(|&k| &store.cols[cols[k]]).collect();
        JoinSide {
            store,
            sel,
            cols,
            keys,
        }
    }

    /// Output column `i` of the side at `pos`.
    fn value(&self, i: usize, pos: usize) -> Value {
        self.store.cols[self.cols[i]].value_at(pos)
    }

    /// Key hash at `pos`, or `None` when a key component is `NULL`.
    fn key_hash(&self, pos: usize) -> Option<u64> {
        self.keys
            .iter()
            .all(|k| k.is_valid(pos))
            .then(|| hash_row_at(&self.keys, pos))
    }
}

/// Hash join over two sides' selections, mirroring `hash_join_rows`:
/// the right side is built into a key table (`NULL` keys never enter
/// it), left rows probe in order and meet their matches in right-side
/// order, and a LEFT join pads unmatched rows. Only output rows are
/// materialised.
fn join_selections(
    left: JoinSide<'_>,
    right: JoinSide<'_>,
    join_type: JoinType,
    proj: Option<&[RtProj]>,
) -> Vec<Row> {
    let (la, ra) = (left.cols.len(), right.cols.len());
    let table = KeyTable::build(right.sel.len(), |i| right.key_hash(right.sel[i] as usize));
    // Emit one output row from a (left, right?) position pair; `None`
    // right = left-outer NULL padding.
    let column = |i: usize, lpos: usize, rpos: Option<usize>| -> Value {
        match (i.checked_sub(la), rpos) {
            (None, _) => left.value(i, lpos),
            (Some(j), Some(rp)) => right.value(j, rp),
            (Some(_), None) => Value::Null,
        }
    };
    let emit = |lpos: usize, rpos: Option<usize>| -> Row {
        match proj {
            Some(items) => items
                .iter()
                .map(|it| match it {
                    RtProj::Val(v) => v.clone(),
                    RtProj::Col(i) => column(*i, lpos, rpos),
                })
                .collect(),
            None => (0..la + ra).map(|i| column(i, lpos, rpos)).collect(),
        }
    };
    let mut out = Vec::new();
    for &lpos in left.sel {
        let pos = lpos as usize;
        let mut matched = false;
        if let Some(h) = left.key_hash(pos) {
            for i in table.candidates(h) {
                let rpos = right.sel[i as usize] as usize;
                if left
                    .keys
                    .iter()
                    .zip(&right.keys)
                    .all(|(l, r)| l.eq_at(pos, r, rpos))
                {
                    matched = true;
                    out.push(emit(pos, Some(rpos)));
                }
            }
        }
        if !matched && join_type == JoinType::Left {
            out.push(emit(pos, None));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// EXPLAIN support
// ---------------------------------------------------------------------------

/// The roots of the subtrees execution hands to the vectorized engine
/// (assuming it is enabled), in plan order: a node that compiles runs
/// whole; below any other node row mode recurses into the children,
/// except that a `Limit{Some}` over a streaming shape the compiler
/// rejected runs the row-wise early-exit scan, never re-entering the
/// executor on its input.
pub(crate) fn vectorized_roots<'p>(plan: &'p Plan, catalog: &Catalog) -> Vec<&'p Plan> {
    fn walk<'p>(plan: &'p Plan, catalog: &Catalog, out: &mut Vec<&'p Plan>) {
        if compile(plan, catalog).is_some() {
            out.push(plan);
            return;
        }
        if matches!(
            plan,
            Plan::Limit { input, limit: Some(_), .. } if is_streaming_shape(input)
        ) {
            return;
        }
        for child in plan.children() {
            walk(child, catalog, out);
        }
    }
    let mut out = Vec::new();
    walk(plan, catalog, &mut out);
    out
}

/// The shape `streaming_limit` handles row-wise without recursion.
fn is_streaming_shape(input: &Plan) -> bool {
    let node = match input {
        Plan::Project { input, .. } => &**input,
        other => other,
    };
    let node = match node {
        Plan::Filter { input, .. } => &**input,
        other => other,
    };
    matches!(node, Plan::Scan { .. } | Plan::IndexLookup { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::schema::{Column, TableSchema};

    fn mixed_table() -> Table {
        let schema = TableSchema::new(
            "t",
            vec![
                Column::new("a", DataType::Int),
                Column::new("f", DataType::Float),
                Column::new("s", DataType::Text),
                Column::new("b", DataType::Bool),
            ],
            &[],
        )
        .unwrap();
        let mut t = Table::new(schema);
        let rows = vec![
            vec![
                Value::Int(1),
                Value::Float(1.5),
                Value::text("x"),
                Value::Bool(true),
            ],
            vec![
                Value::Null,
                Value::Float(-0.0),
                Value::text("y"),
                Value::Null,
            ],
            vec![
                Value::Int(i64::MIN),
                Value::Null,
                Value::text("x"),
                Value::Bool(false),
            ],
            vec![
                Value::Int(3),
                Value::Float(f64::NAN),
                Value::Null,
                Value::Bool(true),
            ],
        ];
        for r in rows {
            t.insert(r).unwrap();
        }
        t
    }

    #[test]
    fn store_round_trips_rows_bit_identically() {
        let t = mixed_table();
        let store = t.column_store().expect("typed rows build");
        assert_eq!(store.len(), 4);
        for (pos, (tid, row)) in t.iter().enumerate() {
            assert_eq!(store.tid(pos), tid.0);
            let back = store.materialize_row(pos);
            assert_eq!(back.len(), row.len());
            for (a, b) in back.iter().zip(row) {
                // Bit-level float equality (NaN, -0.0), not sql_eq.
                match (a, b) {
                    (Value::Float(x), Value::Float(y)) => {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                    _ => assert_eq!(a, b),
                }
            }
        }
    }

    #[test]
    fn dictionary_interns_first_appearance_order() {
        let t = mixed_table();
        let store = t.column_store().unwrap();
        match store.column(2).data() {
            ColumnData::Str { dict, codes } => {
                assert_eq!(dict, &["x".to_string(), "y".to_string()]);
                assert_eq!(codes, &[0, 1, 0, 0]);
            }
            other => panic!("expected Str column, got {other:?}"),
        }
        assert!(!store.column(2).is_valid(3));
    }

    #[test]
    fn dml_invalidates_store() {
        let mut t = mixed_table();
        assert_eq!(t.column_store().unwrap().len(), 4);
        t.insert(vec![
            Value::Int(9),
            Value::Null,
            Value::text("z"),
            Value::Null,
        ])
        .unwrap();
        assert_eq!(t.column_store().unwrap().len(), 5);
        let victim = t.iter().next().map(|(tid, _)| tid).unwrap();
        assert!(t.delete(victim).is_some());
        assert_eq!(t.column_store().unwrap().len(), 4);
    }

    #[test]
    fn override_toggles_vectorized_execution() {
        let _g = override_guard();
        set_columnar_override(false);
        assert!(!columnar_enabled());
        set_columnar_override(true);
        assert!(columnar_enabled());
    }

    #[test]
    fn selection_edges_empty_full_singleton() {
        let t = mixed_table();
        let store = t.column_store().unwrap();
        let mut env_catalog = Catalog::new();
        env_catalog.create_table(t.schema.clone()).unwrap();
        let mut env = EvalEnv::new(&env_catalog);
        // Full: no predicate on a limited pipe selects everything.
        let all = run_pipe(&mut env, store, &[], false, None).unwrap();
        assert_eq!(all, vec![0, 1, 2, 3]);
        // Singleton.
        let one = run_pipe(
            &mut env,
            store,
            &[RtPred::IntVsInt {
                col: 0,
                op: BinaryOp::Eq,
                k: 1,
            }],
            true,
            None,
        )
        .unwrap();
        assert_eq!(one, vec![0]);
        // Empty.
        let none = run_pipe(
            &mut env,
            store,
            &[RtPred::IntVsInt {
                col: 0,
                op: BinaryOp::Eq,
                k: 42,
            }],
            true,
            None,
        )
        .unwrap();
        assert!(none.is_empty());
        // i64::MIN comparison is exact (no float rounding).
        let min = run_pipe(
            &mut env,
            store,
            &[RtPred::IntVsInt {
                col: 0,
                op: BinaryOp::Le,
                k: i64::MIN,
            }],
            true,
            None,
        )
        .unwrap();
        assert_eq!(min, vec![2]);
    }
}
