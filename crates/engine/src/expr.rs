//! Bound (resolved) expressions and their evaluation.
//!
//! A [`BoundExpr`] has every column reference resolved to a flat offset in
//! the current input row, or to an `OuterRef` reaching into enclosing query
//! rows (for correlated subqueries). Evaluation follows SQL three-valued
//! logic: comparisons and boolean connectives may yield `NULL`.

use crate::catalog::Catalog;
use crate::plan::Plan;
use crate::schema::EngineError;
use crate::value::Value;
use hippo_sql::{BinaryOp, UnaryOp};

/// A fully resolved expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Constant.
    Literal(Value),
    /// Column of the current row, by flat offset.
    Column(usize),
    /// Column of an enclosing query's row: `level` 0 is the nearest
    /// enclosing query, `index` is the flat offset in that row.
    OuterRef {
        /// Nesting distance (0 = nearest outer query).
        level: usize,
        /// Flat column offset in the outer row.
        index: usize,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<BoundExpr>,
        /// Right operand.
        right: Box<BoundExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<BoundExpr>,
    },
    /// `IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `[NOT] LIKE`.
    Like {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Pattern.
        pattern: Box<BoundExpr>,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `[NOT] IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Candidates.
        list: Vec<BoundExpr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `CASE WHEN ... END`.
    Case {
        /// `(condition, value)` pairs.
        branches: Vec<(BoundExpr, BoundExpr)>,
        /// `ELSE` value (`NULL` if absent).
        else_value: Option<Box<BoundExpr>>,
    },
    /// Scalar function call (non-aggregate).
    Function {
        /// Function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<BoundExpr>,
    },
    /// `[NOT] EXISTS (subplan)`.
    Exists {
        /// Subquery plan (may contain `OuterRef`s).
        plan: Box<Plan>,
        /// `NOT EXISTS`.
        negated: bool,
    },
    /// `expr [NOT] IN (subplan)`; the subplan must produce one column.
    InSubquery {
        /// Tested expression.
        expr: Box<BoundExpr>,
        /// Subquery plan.
        plan: Box<Plan>,
        /// `NOT IN`.
        negated: bool,
    },
    /// Scalar subquery producing one row, one column (`NULL` if empty).
    ScalarSubquery(Box<Plan>),
}

/// Scalar (non-aggregate) functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// `ABS(x)`
    Abs,
    /// `LOWER(s)`
    Lower,
    /// `UPPER(s)`
    Upper,
    /// `LENGTH(s)`
    Length,
    /// `COALESCE(a, b, ...)`
    Coalesce,
}

impl ScalarFunc {
    /// Look up by (lower-case) name.
    pub(crate) fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name {
            "abs" => ScalarFunc::Abs,
            "lower" => ScalarFunc::Lower,
            "upper" => ScalarFunc::Upper,
            "length" => ScalarFunc::Length,
            "coalesce" => ScalarFunc::Coalesce,
            _ => return None,
        })
    }
}

impl BoundExpr {
    /// `TRUE` literal.
    pub(crate) fn true_() -> BoundExpr {
        BoundExpr::Literal(Value::Bool(true))
    }

    /// Build `left AND right`.
    pub(crate) fn and(self, other: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op: BinaryOp::And,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Conjunction of many; `TRUE` when empty.
    pub(crate) fn conjoin(exprs: impl IntoIterator<Item = BoundExpr>) -> BoundExpr {
        exprs
            .into_iter()
            .reduce(BoundExpr::and)
            .unwrap_or_else(BoundExpr::true_)
    }

    /// Does this expression (transitively) reference the current row?
    pub(crate) fn references_columns(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e, BoundExpr::Column(_)) {
                found = true;
            }
        });
        found
    }

    /// Collect referenced current-row columns.
    pub(crate) fn collect_columns(&self, out: &mut Vec<usize>) {
        self.visit(&mut |e| {
            if let BoundExpr::Column(i) = e {
                out.push(*i);
            }
        });
    }

    /// Pre-order visit of this expression tree (not descending into
    /// subquery *plans*, only expression children).
    pub(crate) fn visit(&self, f: &mut impl FnMut(&BoundExpr)) {
        f(self);
        match self {
            BoundExpr::Literal(_)
            | BoundExpr::Column(_)
            | BoundExpr::OuterRef { .. }
            | BoundExpr::Exists { .. }
            | BoundExpr::ScalarSubquery(_) => {}
            BoundExpr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            BoundExpr::Unary { expr, .. } | BoundExpr::IsNull { expr, .. } => expr.visit(f),
            BoundExpr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            BoundExpr::Case {
                branches,
                else_value,
            } => {
                for (c, v) in branches {
                    c.visit(f);
                    v.visit(f);
                }
                if let Some(e) = else_value {
                    e.visit(f);
                }
            }
            BoundExpr::Function { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            BoundExpr::InSubquery { expr, .. } => expr.visit(f),
        }
    }

    /// Rewrite every current-row column offset through `f` (used when an
    /// expression moves across an operator that permutes columns).
    pub(crate) fn map_columns(&self, f: &impl Fn(usize) -> usize) -> BoundExpr {
        self.map_refs(&|e| match e {
            BoundExpr::Column(i) => BoundExpr::Column(f(*i)),
            other => other.clone(),
        })
    }

    /// Rewrite every row reference — [`BoundExpr::Column`] and
    /// [`BoundExpr::OuterRef`] leaves — through `f` (used when an
    /// expression moves to another row context, e.g. out of a
    /// subquery).
    pub(crate) fn map_refs(&self, f: &impl Fn(&BoundExpr) -> BoundExpr) -> BoundExpr {
        match self {
            BoundExpr::Column(_) | BoundExpr::OuterRef { .. } => f(self),
            BoundExpr::Literal(_) => self.clone(),
            BoundExpr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(left.map_refs(f)),
                right: Box::new(right.map_refs(f)),
            },
            BoundExpr::Unary { op, expr } => BoundExpr::Unary {
                op: *op,
                expr: Box::new(expr.map_refs(f)),
            },
            BoundExpr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(expr.map_refs(f)),
                negated: *negated,
            },
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: Box::new(expr.map_refs(f)),
                pattern: Box::new(pattern.map_refs(f)),
                negated: *negated,
            },
            BoundExpr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: Box::new(expr.map_refs(f)),
                list: list.iter().map(|e| e.map_refs(f)).collect(),
                negated: *negated,
            },
            BoundExpr::Case {
                branches,
                else_value,
            } => BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| (c.map_refs(f), v.map_refs(f)))
                    .collect(),
                else_value: else_value.as_ref().map(|e| Box::new(e.map_refs(f))),
            },
            BoundExpr::Function { func, args } => BoundExpr::Function {
                func: *func,
                args: args.iter().map(|e| e.map_refs(f)).collect(),
            },
            // Subquery plans capture outer columns via OuterRef levels, which
            // are unaffected by permutations of the *current* row only if the
            // subquery references it via OuterRef{level: 0}. Those offsets
            // must be rewritten too; plans are opaque here, so callers must
            // not move subquery expressions across projections. We keep them
            // intact (safe for the optimizer, which never does).
            BoundExpr::Exists { .. } | BoundExpr::ScalarSubquery(_) => self.clone(),
            BoundExpr::InSubquery {
                expr,
                plan,
                negated,
            } => BoundExpr::InSubquery {
                expr: Box::new(expr.map_refs(f)),
                plan: plan.clone(),
                negated: *negated,
            },
        }
    }

    /// Does this expression contain a subquery (making it unsafe to move
    /// across projections / join reorderings)?
    pub(crate) fn contains_subquery(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(
                e,
                BoundExpr::Exists { .. }
                    | BoundExpr::InSubquery { .. }
                    | BoundExpr::ScalarSubquery(_)
            ) {
                found = true;
            }
        });
        found
    }
}

/// Evaluation environment: the catalog (for subqueries) and the stack of
/// enclosing rows, innermost last.
pub(crate) struct EvalEnv<'a> {
    /// Catalog used to execute subquery plans.
    pub catalog: &'a Catalog,
    /// Enclosing query rows; `OuterRef{level: 0}` reads `outer.last()`.
    pub outer: Vec<Vec<Value>>,
    /// Optional per-call resource budget; when set, the executor's
    /// streaming loops charge rows here and trip cooperatively.
    budget: Option<&'a crate::budget::Budget>,
    /// Stage label reported by budget errors raised from this env.
    budget_stage: &'static str,
    /// Local stride counter for [`EvalEnv::charge_row`].
    work: u32,
    /// Rows charged locally but not yet flushed to the shared budget.
    /// Flushed every stride and by [`EvalEnv::flush_budget`] — a shared
    /// atomic add per row would ping-pong the budget's cache line
    /// across all worker threads.
    pending_rows: u64,
    /// Column batches executed by the vectorized engine this call.
    pub vec_batches: u64,
    /// Rows examined through the vectorized engine this call.
    pub vec_rows: u64,
    /// Rows walked by row-mode operators this call (see
    /// [`crate::SnapshotStatsView::rowmode_rows`]).
    pub rowmode_rows: u64,
    /// Set while [`crate::exec::execute`] (the reference oracle) runs a
    /// plan with this environment: expression subqueries then stay on
    /// the oracle.
    pub(crate) reference: bool,
}

impl<'a> EvalEnv<'a> {
    /// Environment with no enclosing rows.
    pub(crate) fn new(catalog: &'a Catalog) -> Self {
        EvalEnv {
            catalog,
            outer: Vec::new(),
            budget: None,
            budget_stage: "engine",
            work: 0,
            pending_rows: 0,
            vec_batches: 0,
            vec_rows: 0,
            rowmode_rows: 0,
            reference: false,
        }
    }

    /// Govern this environment: executor loops will charge rows against
    /// `budget` and report trips as `stage`.
    pub(crate) fn set_budget(&mut self, budget: &'a crate::budget::Budget, stage: &'static str) {
        self.budget = Some(budget);
        self.budget_stage = stage;
    }

    /// Cooperative per-row checkpoint for executor loops. Free (one
    /// predicted branch) when no budget is attached; with one, the row
    /// is counted locally and both the flush to the shared budget and
    /// the full check run once per [`crate::budget::CHECK_STRIDE`] rows
    /// — per-row atomics on the shared counter would contend across
    /// worker threads.
    #[inline]
    pub(crate) fn charge_row(&mut self) -> Result<(), EngineError> {
        if let Some(b) = self.budget {
            self.pending_rows += 1;
            self.work = self.work.wrapping_add(1);
            if self.work & (crate::budget::CHECK_STRIDE - 1) == 0 {
                b.charge_rows(std::mem::take(&mut self.pending_rows));
                b.check(self.budget_stage)?;
            }
        }
        Ok(())
    }

    /// Flush rows charged locally since the last stride boundary to the
    /// shared budget. Governed entry points call this once their plan
    /// finishes so the call's row accounting is complete.
    pub(crate) fn flush_budget(&mut self) {
        let pending = std::mem::take(&mut self.pending_rows);
        if pending > 0 {
            if let Some(b) = self.budget {
                b.charge_rows(pending);
            }
        }
    }

    /// Bulk checkpoint for operators that materialise `n` rows at once
    /// (full scans feeding joins/aggregates): charges the whole batch
    /// and runs one full check.
    #[inline]
    pub(crate) fn charge_batch(&mut self, n: usize) -> Result<(), EngineError> {
        if let Some(b) = self.budget {
            b.charge_rows(n as u64);
            b.check(self.budget_stage)?;
        }
        Ok(())
    }
}

pub(crate) fn split_conjuncts_ref(e: &BoundExpr) -> Vec<&BoundExpr> {
    match e {
        BoundExpr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            let mut out = split_conjuncts_ref(left);
            out.extend(split_conjuncts_ref(right));
            out
        }
        other => vec![other],
    }
}

/// Evaluate `expr` against `row` within `env`.
pub(crate) fn eval(
    expr: &BoundExpr,
    row: &[Value],
    env: &mut EvalEnv<'_>,
) -> Result<Value, EngineError> {
    match expr {
        BoundExpr::Literal(v) => Ok(v.clone()),
        BoundExpr::Column(i) => row
            .get(*i)
            .cloned()
            .ok_or_else(|| EngineError::new(format!("column offset {i} out of range"))),
        BoundExpr::OuterRef { level, index } => {
            let outer_row = env
                .outer
                .len()
                .checked_sub(1 + *level)
                .and_then(|i| env.outer.get(i))
                .ok_or_else(|| {
                    EngineError::new(format!("outer reference level {level} invalid"))
                })?;
            outer_row
                .get(*index)
                .cloned()
                .ok_or_else(|| EngineError::new(format!("outer column {index} out of range")))
        }
        BoundExpr::Binary { op, left, right } => eval_binary(*op, left, right, row, env),
        BoundExpr::Unary { op, expr } => {
            let v = eval(expr, row, env)?;
            match op {
                UnaryOp::Not => Ok(match v {
                    Value::Null => Value::Null,
                    Value::Bool(b) => Value::Bool(!b),
                    other => {
                        return Err(EngineError::new(format!(
                            "NOT applied to {}",
                            other.type_name()
                        )))
                    }
                }),
                UnaryOp::Neg => Ok(match v {
                    Value::Null => Value::Null,
                    Value::Int(i) => Value::Int(
                        i.checked_neg()
                            .ok_or_else(|| EngineError::new("integer overflow in negation"))?,
                    ),
                    Value::Float(f) => Value::Float(-f),
                    other => {
                        return Err(EngineError::new(format!(
                            "negation applied to {}",
                            other.type_name()
                        )))
                    }
                }),
            }
        }
        BoundExpr::IsNull { expr, negated } => {
            let v = eval(expr, row, env)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        BoundExpr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, row, env)?;
            let p = eval(pattern, row, env)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Text(s), Value::Text(p)) => Ok(Value::Bool(like_match(&s, &p) != *negated)),
                (a, b) => Err(EngineError::new(format!(
                    "LIKE requires text operands, got {} and {}",
                    a.type_name(),
                    b.type_name()
                ))),
            }
        }
        BoundExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval(item, row, env)?;
                match v.sql_eq(&w) {
                    Some(true) => return Ok(Value::Bool(!*negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        BoundExpr::Case {
            branches,
            else_value,
        } => {
            for (cond, value) in branches {
                if eval(cond, row, env)? == Value::Bool(true) {
                    return eval(value, row, env);
                }
            }
            match else_value {
                Some(e) => eval(e, row, env),
                None => Ok(Value::Null),
            }
        }
        BoundExpr::Function { func, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval(a, row, env))
                .collect::<Result<_, _>>()?;
            eval_function(*func, vals)
        }
        BoundExpr::Exists { plan, negated } => {
            let exists = !crate::exec::execute_subquery(plan, row, env)?.is_empty();
            Ok(Value::Bool(exists != *negated))
        }
        BoundExpr::InSubquery {
            expr,
            plan,
            negated,
        } => {
            let v = eval(expr, row, env)?;
            let rows = crate::exec::execute_subquery(plan, row, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for r in &rows {
                let w = r
                    .first()
                    .ok_or_else(|| EngineError::new("IN subquery produced zero columns"))?;
                match v.sql_eq(w) {
                    Some(true) => return Ok(Value::Bool(!*negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        BoundExpr::ScalarSubquery(plan) => {
            let rows = crate::exec::execute_subquery(plan, row, env)?;
            match rows.len() {
                0 => Ok(Value::Null),
                1 => rows[0]
                    .first()
                    .cloned()
                    .ok_or_else(|| EngineError::new("scalar subquery produced zero columns")),
                n => Err(EngineError::new(format!(
                    "scalar subquery produced {n} rows (expected at most one)"
                ))),
            }
        }
    }
}

fn eval_binary(
    op: BinaryOp,
    left: &BoundExpr,
    right: &BoundExpr,
    row: &[Value],
    env: &mut EvalEnv<'_>,
) -> Result<Value, EngineError> {
    // AND/OR need lazy evaluation for three-valued logic shortcuts.
    match op {
        BinaryOp::And => {
            let l = eval(left, row, env)?;
            if l == Value::Bool(false) {
                return Ok(Value::Bool(false));
            }
            let r = eval(right, row, env)?;
            return Ok(match (l, r) {
                (_, Value::Bool(false)) => Value::Bool(false),
                (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                (Value::Null | Value::Bool(true), Value::Null | Value::Bool(true)) => Value::Null,
                (a, b) => {
                    return Err(EngineError::new(format!(
                        "AND applied to {} and {}",
                        a.type_name(),
                        b.type_name()
                    )))
                }
            });
        }
        BinaryOp::Or => {
            let l = eval(left, row, env)?;
            if l == Value::Bool(true) {
                return Ok(Value::Bool(true));
            }
            let r = eval(right, row, env)?;
            return Ok(match (l, r) {
                (_, Value::Bool(true)) => Value::Bool(true),
                (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                (Value::Null | Value::Bool(false), Value::Null | Value::Bool(false)) => Value::Null,
                (a, b) => {
                    return Err(EngineError::new(format!(
                        "OR applied to {} and {}",
                        a.type_name(),
                        b.type_name()
                    )))
                }
            });
        }
        _ => {}
    }
    let l = eval(left, row, env)?;
    let r = eval(right, row, env)?;
    if op.is_comparison() {
        if l.is_null() || r.is_null() {
            return Ok(Value::Null);
        }
        let ord = l.sql_cmp(&r).ok_or_else(|| {
            EngineError::new(format!(
                "cannot compare {} with {}",
                l.type_name(),
                r.type_name()
            ))
        })?;
        let b = match op {
            BinaryOp::Eq => ord == std::cmp::Ordering::Equal,
            BinaryOp::Neq => ord != std::cmp::Ordering::Equal,
            BinaryOp::Lt => ord == std::cmp::Ordering::Less,
            BinaryOp::Le => ord != std::cmp::Ordering::Greater,
            BinaryOp::Gt => ord == std::cmp::Ordering::Greater,
            BinaryOp::Ge => ord != std::cmp::Ordering::Less,
            _ => unreachable!(),
        };
        return Ok(Value::Bool(b));
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinaryOp::Concat => match (l, r) {
            (Value::Text(a), Value::Text(b)) => Ok(Value::Text(a + &b)),
            (a, b) => Ok(Value::Text(format!("{a}{b}"))),
        },
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul => arith(op, l, r),
        BinaryOp::Div => match (l, r) {
            (Value::Int(_), Value::Int(0)) => Err(EngineError::new("division by zero")),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_div(b))),
            (a, b) => {
                let (x, y) = numeric_pair(a, b, "/")?;
                if y == 0.0 {
                    Err(EngineError::new("division by zero"))
                } else {
                    Ok(Value::Float(x / y))
                }
            }
        },
        BinaryOp::Mod => match (l, r) {
            (Value::Int(_), Value::Int(0)) => Err(EngineError::new("division by zero")),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_rem(b))),
            (a, b) => Err(EngineError::new(format!(
                "% requires integers, got {} and {}",
                a.type_name(),
                b.type_name()
            ))),
        },
        _ => unreachable!("handled above"),
    }
}

fn numeric_pair(a: Value, b: Value, op: &str) -> Result<(f64, f64), EngineError> {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(EngineError::new(format!(
            "{op} requires numeric operands, got {} and {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}

fn arith(op: BinaryOp, l: Value, r: Value) -> Result<Value, EngineError> {
    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
        let result = match op {
            BinaryOp::Add => a.checked_add(*b),
            BinaryOp::Sub => a.checked_sub(*b),
            BinaryOp::Mul => a.checked_mul(*b),
            _ => unreachable!(),
        };
        return result
            .map(Value::Int)
            .ok_or_else(|| EngineError::new("integer overflow"));
    }
    let (x, y) = numeric_pair(l, r, op.sql())?;
    Ok(Value::Float(match op {
        BinaryOp::Add => x + y,
        BinaryOp::Sub => x - y,
        BinaryOp::Mul => x * y,
        _ => unreachable!(),
    }))
}

fn eval_function(func: ScalarFunc, mut vals: Vec<Value>) -> Result<Value, EngineError> {
    let argc = |n: usize, vals: &[Value]| -> Result<(), EngineError> {
        if vals.len() != n {
            Err(EngineError::new(format!(
                "function expects {n} arguments, got {}",
                vals.len()
            )))
        } else {
            Ok(())
        }
    };
    match func {
        ScalarFunc::Abs => {
            argc(1, &vals)?;
            match vals.pop().expect("checked") {
                Value::Null => Ok(Value::Null),
                Value::Int(v) => {
                    Ok(Value::Int(v.checked_abs().ok_or_else(|| {
                        EngineError::new("integer overflow in ABS")
                    })?))
                }
                Value::Float(v) => Ok(Value::Float(v.abs())),
                other => Err(EngineError::new(format!("ABS of {}", other.type_name()))),
            }
        }
        ScalarFunc::Lower | ScalarFunc::Upper => {
            argc(1, &vals)?;
            match vals.pop().expect("checked") {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Text(if func == ScalarFunc::Lower {
                    s.to_lowercase()
                } else {
                    s.to_uppercase()
                })),
                other => Err(EngineError::new(format!(
                    "string function of {}",
                    other.type_name()
                ))),
            }
        }
        ScalarFunc::Length => {
            argc(1, &vals)?;
            match vals.pop().expect("checked") {
                Value::Null => Ok(Value::Null),
                Value::Text(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(EngineError::new(format!("LENGTH of {}", other.type_name()))),
            }
        }
        ScalarFunc::Coalesce => {
            for v in vals {
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
    }
}

/// SQL `LIKE` matching with `%` (any run) and `_` (any single char).
pub(crate) fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Greedy-or-empty: try consuming 0..=len chars.
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Catalog {
        Catalog::new()
    }

    fn ev(e: &BoundExpr, row: &[Value]) -> Value {
        let catalog = ctx();
        let mut env = EvalEnv::new(&catalog);
        eval(e, row, &mut env).unwrap()
    }

    fn bin(op: BinaryOp, l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ev(&bin(BinaryOp::Add, lit(1), lit(2)), &[]), Value::Int(3));
        assert_eq!(
            ev(&bin(BinaryOp::Mul, lit(2.5), lit(2)), &[]),
            Value::Float(5.0)
        );
        assert_eq!(ev(&bin(BinaryOp::Div, lit(7), lit(2)), &[]), Value::Int(3));
        assert_eq!(
            ev(&bin(BinaryOp::Div, lit(7.0), lit(2)), &[]),
            Value::Float(3.5)
        );
        assert_eq!(ev(&bin(BinaryOp::Mod, lit(7), lit(3)), &[]), Value::Int(1));
    }

    #[test]
    fn division_by_zero_errors() {
        let catalog = ctx();
        let mut env = EvalEnv::new(&catalog);
        assert!(eval(&bin(BinaryOp::Div, lit(1), lit(0)), &[], &mut env).is_err());
        assert!(eval(&bin(BinaryOp::Mod, lit(1), lit(0)), &[], &mut env).is_err());
    }

    #[test]
    fn overflow_errors() {
        let catalog = ctx();
        let mut env = EvalEnv::new(&catalog);
        assert!(eval(&bin(BinaryOp::Add, lit(i64::MAX), lit(1)), &[], &mut env).is_err());
        assert!(eval(&bin(BinaryOp::Mul, lit(i64::MAX), lit(2)), &[], &mut env).is_err());
    }

    #[test]
    fn null_propagates_through_arithmetic_and_comparison() {
        assert_eq!(
            ev(
                &bin(BinaryOp::Add, lit(1), BoundExpr::Literal(Value::Null)),
                &[]
            ),
            Value::Null
        );
        assert_eq!(
            ev(
                &bin(BinaryOp::Eq, lit(1), BoundExpr::Literal(Value::Null)),
                &[]
            ),
            Value::Null
        );
    }

    #[test]
    fn three_valued_and_or() {
        let null = || BoundExpr::Literal(Value::Null);
        let t = || lit(true);
        let f = || lit(false);
        assert_eq!(
            ev(&bin(BinaryOp::And, f(), null()), &[]),
            Value::Bool(false)
        );
        assert_eq!(
            ev(&bin(BinaryOp::And, null(), f()), &[]),
            Value::Bool(false)
        );
        assert_eq!(ev(&bin(BinaryOp::And, t(), null()), &[]), Value::Null);
        assert_eq!(ev(&bin(BinaryOp::Or, t(), null()), &[]), Value::Bool(true));
        assert_eq!(ev(&bin(BinaryOp::Or, null(), t()), &[]), Value::Bool(true));
        assert_eq!(ev(&bin(BinaryOp::Or, f(), null()), &[]), Value::Null);
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            ev(&bin(BinaryOp::Le, lit(1), lit(1)), &[]),
            Value::Bool(true)
        );
        assert_eq!(
            ev(&bin(BinaryOp::Gt, lit("b"), lit("a")), &[]),
            Value::Bool(true)
        );
        assert_eq!(
            ev(&bin(BinaryOp::Neq, lit(1), lit(2)), &[]),
            Value::Bool(true)
        );
    }

    #[test]
    fn column_and_outer_refs() {
        let row = vec![Value::Int(42)];
        assert_eq!(ev(&BoundExpr::Column(0), &row), Value::Int(42));
        let catalog = ctx();
        let mut env = EvalEnv::new(&catalog);
        env.outer.push(vec![Value::text("outer0")]);
        env.outer.push(vec![Value::text("outer1")]);
        let v = eval(&BoundExpr::OuterRef { level: 0, index: 0 }, &row, &mut env).unwrap();
        assert_eq!(v, Value::text("outer1"), "level 0 is nearest");
        let v = eval(&BoundExpr::OuterRef { level: 1, index: 0 }, &row, &mut env).unwrap();
        assert_eq!(v, Value::text("outer0"));
    }

    #[test]
    fn in_list_null_semantics() {
        // 1 IN (2, NULL) -> NULL ; 1 IN (1, NULL) -> TRUE ; 1 NOT IN (2) -> TRUE
        let e = BoundExpr::InList {
            expr: Box::new(lit(1)),
            list: vec![lit(2), BoundExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(ev(&e, &[]), Value::Null);
        let e = BoundExpr::InList {
            expr: Box::new(lit(1)),
            list: vec![lit(1), BoundExpr::Literal(Value::Null)],
            negated: false,
        };
        assert_eq!(ev(&e, &[]), Value::Bool(true));
        let e = BoundExpr::InList {
            expr: Box::new(lit(1)),
            list: vec![lit(2)],
            negated: true,
        };
        assert_eq!(ev(&e, &[]), Value::Bool(true));
    }

    #[test]
    fn case_and_functions() {
        let e = BoundExpr::Case {
            branches: vec![(bin(BinaryOp::Eq, BoundExpr::Column(0), lit(1)), lit("one"))],
            else_value: Some(Box::new(lit("other"))),
        };
        assert_eq!(ev(&e, &[Value::Int(1)]), Value::text("one"));
        assert_eq!(ev(&e, &[Value::Int(5)]), Value::text("other"));
        let abs = BoundExpr::Function {
            func: ScalarFunc::Abs,
            args: vec![lit(-3)],
        };
        assert_eq!(ev(&abs, &[]), Value::Int(3));
        let co = BoundExpr::Function {
            func: ScalarFunc::Coalesce,
            args: vec![BoundExpr::Literal(Value::Null), lit(5)],
        };
        assert_eq!(ev(&co, &[]), Value::Int(5));
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "h_"));
        assert!(!like_match("", "_"));
        assert!(like_match("", "%"));
        assert!(like_match("a%b", "a%b"));
    }

    #[test]
    fn is_null() {
        let e = BoundExpr::IsNull {
            expr: Box::new(BoundExpr::Literal(Value::Null)),
            negated: false,
        };
        assert_eq!(ev(&e, &[]), Value::Bool(true));
        let e = BoundExpr::IsNull {
            expr: Box::new(lit(1)),
            negated: true,
        };
        assert_eq!(ev(&e, &[]), Value::Bool(true));
    }

    #[test]
    fn concat() {
        assert_eq!(
            ev(&bin(BinaryOp::Concat, lit("a"), lit("b")), &[]),
            Value::text("ab")
        );
        assert_eq!(
            ev(&bin(BinaryOp::Concat, lit("a"), lit(1)), &[]),
            Value::text("a1")
        );
    }

    #[test]
    fn conjoin_helper() {
        assert_eq!(BoundExpr::conjoin(vec![]), BoundExpr::true_());
        let e = BoundExpr::conjoin(vec![lit(true), lit(false)]);
        assert_eq!(ev(&e, &[]), Value::Bool(false));
    }

    #[test]
    fn exists_without_equi_keys_falls_back() {
        use crate::plan::Plan;
        use crate::schema::{Column, DataType, TableSchema};
        let mut catalog = Catalog::new();
        catalog
            .create_table(
                TableSchema::new("t", vec![Column::new("v", DataType::Int)], &[]).unwrap(),
            )
            .unwrap();
        catalog
            .table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(5)])
            .unwrap();
        // EXISTS (SELECT * FROM t WHERE t.v < <outer col 0>) — no equality,
        // must use the general path.
        let plan = Plan::Filter {
            input: Box::new(Plan::Scan { table: "t".into() }),
            predicate: bin(
                BinaryOp::Lt,
                BoundExpr::Column(0),
                BoundExpr::OuterRef { level: 0, index: 0 },
            ),
        };
        let e = BoundExpr::Exists {
            plan: Box::new(plan),
            negated: false,
        };
        let mut env = EvalEnv::new(&catalog);
        assert_eq!(
            eval(&e, &[Value::Int(10)], &mut env).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            eval(&e, &[Value::Int(3)], &mut env).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn map_columns_rewrites_offsets() {
        let e = bin(BinaryOp::Add, BoundExpr::Column(0), BoundExpr::Column(2));
        let mapped = e.map_columns(&|i| i + 10);
        let mut cols = Vec::new();
        mapped.collect_columns(&mut cols);
        assert_eq!(cols, vec![10, 12]);
    }
}
