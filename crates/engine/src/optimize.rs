//! The optimizer: plan → plan rewrites, plus access-path selection.
//!
//! **Rewrite passes** ([`optimize`]), applied bottom-up (one traversal
//! is enough for the shapes the binder emits):
//!
//! 1. **Constant folding** — literal-only expressions collapse to literals.
//! 2. **Predicate pushdown** — a `Filter` moves below `DISTINCT` and
//!    below projections of plain columns; conjuncts over a `CrossJoin`
//!    that reference only one side move below the join and keep
//!    descending into that side, so a one-sided conjunct ends up
//!    directly over the scan it filters.
//! 3. **Join conversion** — remaining equi-conjuncts across the two sides
//!    turn `Filter(CrossJoin)` into a `HashJoin`.
//! 4. **Projection composition** — a `Project` directly over another
//!    `Project`, both listing only columns and literals, becomes one
//!    `Project` of the composed list. Such lists cannot raise an error,
//!    so no error moves. An identity projection directly over a
//!    `Distinct` is dropped. Below a `Distinct` the remaining projection
//!    stays even when it is the identity: a `DISTINCT` compiles to
//!    column batches only as `Distinct(Project?(Filter?(Scan)))` with
//!    a projection or a filter, and a bare `Distinct(Scan)` does not.
//!
//! Expressions containing subqueries are never moved (their `OuterRef`
//! levels are position-dependent).
//!
//! **Access-path selection** ([`choose_access_paths`]) is a separate
//! in-place pass over the same [`Plan`] type, which callers either run
//! or skip (the index-ablation experiments and the differential tests
//! skip it to get the sequential-scan plan with everything else
//! unchanged): a `Filter` directly over a `Scan` whose equality
//! conjuncts pin every column of one of the table's hash indexes
//! becomes a [`Plan::IndexLookup`] (largest covered index wins;
//! leftover conjuncts stay as a residual `Filter`). Key
//! expressions must be row-independent literals of exactly the
//! column's type; `Float` columns are never index-probed, because hash-key identity
//! and SQL numeric equality disagree on them (`0.0` vs `-0.0`,
//! int-widening). Those rules make the chosen access path produce the
//! **same rows in the same order** (slot order) as the sequential
//! scan it replaces — which the `prop_physical` differential suite
//! checks. The one observable difference is deliberate and standard:
//! residual conjuncts are only evaluated on the rows the index
//! returns, so a residual that would raise a *runtime* error (e.g. an
//! incomparable-type comparison) on a row the key excludes is simply
//! never evaluated — SQL leaves `WHERE` evaluation order unspecified,
//! and an index can skip errors but never introduce one (key
//! expressions are type-checked at plan time).
//!
//! The same pass turns every **equi-correlated `EXISTS`** — `[NOT]
//! EXISTS (SELECT … FROM t WHERE t.c = e ∧ … ∧ rest)` with each `e` free
//! of `t`'s columns, under any projection, `DISTINCT` or `LIMIT n ≥ 1` —
//! that is a top-level `Project` item (the knowledge-gathering flags)
//! or a `Filter` conjunct (the rewriting's residues) into a
//! [`Plan::MarkJoin`], which appends the flag to each input row. Its
//! access path is chosen here from the catalog: the largest hash index
//! of `t` the key columns cover, probed once per input row, or else a
//! hash partition built once per execution. A mark compares keys by
//! `Value` identity and a `NULL` key matches nothing, so on the
//! `Float` values SQL `=` equates but identity tells apart (`0.0` vs
//! `-0.0`, int-widening) it can differ from the per-row subquery (see
//! ROADMAP direction 9). The pass does not descend into expression
//! subqueries: their subplans, and any other `EXISTS`, run per row as
//! bound.

use crate::catalog::Catalog;
use crate::expr::{eval, split_conjuncts_ref, BoundExpr, EvalEnv};
use crate::plan::{JoinType, Plan};
use crate::schema::{DataType, EngineError, TableSchema};
use crate::table::Table;
use crate::value::Value;
use hippo_sql::{BinaryOp, UnaryOp};

/// Access-path selection, in place: every `Filter(Scan)` of `plan`
/// whose equality conjuncts cover one of the table's hash indexes
/// becomes an [`Plan::IndexLookup`] (plus a residual `Filter` for the
/// remaining conjuncts), and every equi-correlated `EXISTS` that is a
/// top-level `Project` item or `Filter` conjunct becomes a
/// [`Plan::MarkJoin`]. Skipping this pass leaves a plan that scans and
/// evaluates its `EXISTS` per row — same rows, same order.
pub(crate) fn choose_access_paths(plan: &mut Plan, catalog: &Catalog) {
    if let Plan::Filter { input, predicate } = plan {
        if let Plan::Scan { table } = &**input {
            if let Some(lookup) = index_access_path(table, predicate, catalog) {
                *plan = lookup;
            }
        }
    }
    for child in plan.children_mut() {
        choose_access_paths(child, catalog);
    }
    mark_joins(plan, catalog);
}

/// Access-path selection for `Filter(Scan)`: pick the largest index of
/// `table` whose every column is pinned by an index-safe equality
/// conjunct ([`best_index`]), emit an `IndexLookup` keyed by those
/// expressions and keep the remaining conjuncts as a residual filter.
fn index_access_path(table: &str, predicate: &BoundExpr, catalog: &Catalog) -> Option<Plan> {
    let t = catalog.table(table).ok()?;
    let conjuncts = split_conjuncts(predicate);
    // column → (conjunct index, key expression); first conjunct wins.
    let mut eq: std::collections::BTreeMap<usize, (usize, &BoundExpr)> =
        std::collections::BTreeMap::new();
    for (i, c) in conjuncts.iter().enumerate() {
        if let Some((col, key)) = as_index_key(c, &t.schema) {
            eq.entry(col).or_insert((i, key));
        }
    }
    if eq.is_empty() {
        return None;
    }
    let index_cols = best_index(t, |c| eq.contains_key(&c))?.clone();
    let mut used = vec![false; conjuncts.len()];
    let key: Vec<BoundExpr> = index_cols
        .iter()
        .map(|c| {
            let (ci, e) = eq[c];
            used[ci] = true;
            e.clone()
        })
        .collect();
    let residual: Vec<BoundExpr> = conjuncts
        .into_iter()
        .zip(&used)
        .filter(|(_, consumed)| !**consumed)
        .map(|(c, _)| c)
        .collect();
    let lookup = Plan::IndexLookup {
        table: table.to_string(),
        index_cols,
        key,
    };
    Some(if residual.is_empty() {
        lookup
    } else {
        Plan::Filter {
            input: Box::new(lookup),
            predicate: BoundExpr::conjoin(residual),
        }
    })
}

/// The largest index of `t` whose every column satisfies `covered`;
/// ties between equal-length indexes break to the lexicographically
/// smallest column set, so plan choice is deterministic. An index that
/// repeats a column (`CREATE INDEX i ON t (a, a)`) is never chosen: the
/// key is one expression per column, so it could not be laid out in the
/// index's order.
fn best_index(t: &Table, covered: impl Fn(usize) -> bool) -> Option<&Vec<usize>> {
    let mut best: Option<&Vec<usize>> = None;
    for cols in t.index_column_sets() {
        let repeats = cols.iter().enumerate().any(|(i, c)| cols[..i].contains(c));
        if repeats || !cols.iter().all(|&c| covered(c)) {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) => cols.len() > b.len() || (cols.len() == b.len() && cols < b),
        };
        if better {
            best = Some(cols);
        }
    }
    best
}

/// Turn the equi-correlated `EXISTS` items of a `Project` and conjuncts
/// of a `Filter` into [`Plan::MarkJoin`]s under it, reading the marks
/// as columns. A `Project` left as the identity is dropped. In a
/// `Filter`, the conjuncts before each `EXISTS` filter the rows before
/// its mark join, so the mark is computed on exactly the rows `AND`'s
/// left-to-right evaluation would reach, and a closing `Project` drops
/// the marks again.
fn mark_joins(plan: &mut Plan, catalog: &Catalog) {
    match plan {
        Plan::Project { input, exprs } => {
            let Ok(arity) = input.arity(catalog) else {
                return;
            };
            let mut width = arity;
            for e in exprs.iter_mut() {
                if let Some(mark) =
                    as_exists(e).and_then(|(sub, negated)| mark_join(sub, negated, width, catalog))
                {
                    mark_join_over(input, mark);
                    *e = BoundExpr::Column(width);
                    width += 1;
                }
            }
            let identity = exprs.len() == width
                && exprs
                    .iter()
                    .enumerate()
                    .all(|(i, e)| *e == BoundExpr::Column(i));
            if width > arity && identity {
                *plan = take(input);
            }
        }
        Plan::Filter { input, predicate } => {
            let Ok(arity) = input.arity(catalog) else {
                return;
            };
            let mut width = arity;
            let mut pending = Vec::new();
            for c in split_conjuncts(predicate) {
                let Some(mark) = as_exists(&c)
                    .and_then(|(sub, negated)| mark_join(sub, negated, width, catalog))
                else {
                    pending.push(c);
                    continue;
                };
                if !pending.is_empty() {
                    **input = Plan::Filter {
                        input: Box::new(take(input)),
                        predicate: BoundExpr::conjoin(pending.drain(..)),
                    };
                }
                mark_join_over(input, mark);
                pending.push(BoundExpr::Column(width));
                width += 1;
            }
            if width > arity {
                *plan = Plan::Project {
                    input: Box::new(Plan::Filter {
                        input: Box::new(take(input)),
                        predicate: BoundExpr::conjoin(pending),
                    }),
                    exprs: (0..arity).map(BoundExpr::Column).collect(),
                };
            }
        }
        _ => {}
    }
}

/// `[NOT] EXISTS (sub)` as `(sub, negated)`, through any number of
/// `NOT`s (the binder reads `NOT EXISTS` as `NOT (EXISTS …)`; `EXISTS`
/// is never `NULL`, so each `NOT` just flips it).
fn as_exists(e: &BoundExpr) -> Option<(&Plan, bool)> {
    match e {
        BoundExpr::Exists { plan, negated } => Some((plan, *negated)),
        BoundExpr::Unary {
            op: UnaryOp::Not,
            expr,
        } => as_exists(expr).map(|(plan, negated)| (plan, !negated)),
        _ => None,
    }
}

/// Move a plan out of its slot, leaving an empty placeholder.
fn take(slot: &mut Plan) -> Plan {
    std::mem::replace(slot, Plan::Empty { arity: 0 })
}

/// The [`Plan::MarkJoin`] computing `[NOT] EXISTS (sub)` for input rows
/// of arity `width` (its input a placeholder), if `sub` is
/// equi-correlated. It probes the largest hash index of the table that
/// the key columns cover, if there is one.
fn mark_join(sub: &Plan, negated: bool, width: usize, catalog: &Catalog) -> Option<Plan> {
    let (table, mut keys, residual) = equi_correlated(sub, width)?;
    let t = catalog.table(table).ok()?;
    let index = best_index(t, |c| keys.iter().any(|(k, _)| *k == c)).cloned();
    if let Some(cols) = &index {
        // The index's columns lead, in its order (first pair per column);
        // the remaining pairs are checked on the probed bucket.
        let mut probe = Vec::with_capacity(keys.len());
        for c in cols {
            let at = keys
                .iter()
                .position(|(k, _)| k == c)
                .expect("index covered");
            probe.push(keys.remove(at));
        }
        probe.append(&mut keys);
        keys = probe;
    }
    Some(Plan::MarkJoin {
        input: Box::new(Plan::Empty { arity: 0 }),
        table: table.to_string(),
        keys,
        residual,
        index,
        negated,
    })
}

/// Put `mark` (from [`mark_join`]) over the plan in `input`'s slot.
fn mark_join_over(input: &mut Plan, mut mark: Plan) {
    if let Plan::MarkJoin { input: slot, .. } = &mut mark {
        **slot = take(input);
    }
    *input = mark;
}

/// An `EXISTS` subplan's mark-join parts, re-expressed for an input row
/// of arity `width`: the scanned table, `(inner column, key expression
/// over the input row)` pairs, and the residual over `input ++ inner`.
type MarkParts<'p> = (&'p str, Vec<(usize, BoundExpr)>, Option<BoundExpr>);

/// Recognise `[NOT] EXISTS (SELECT … FROM t WHERE t.c = e ∧ … ∧ rest)`:
/// `Filter(Scan t)` under any `Project`, `Distinct` or `LIMIT n` with
/// `n ≥ 1` and no offset (none of which change emptiness), at least one
/// conjunct equating an inner column to an expression free of inner
/// columns, and no conjunct holding a subquery.
fn equi_correlated(sub: &Plan, width: usize) -> Option<MarkParts<'_>> {
    let mut p = sub;
    while let Plan::Project { input, .. }
    | Plan::Distinct { input }
    | Plan::Limit {
        input,
        limit: Some(1..),
        offset: 0,
    } = p
    {
        p = input;
    }
    let Plan::Filter { input, predicate } = p else {
        return None;
    };
    let Plan::Scan { table } = &**input else {
        return None;
    };
    // Inside the subquery, `OuterRef` level 0 is the input row and level
    // l + 1 is the input's own level-l enclosing row.
    let outward = |e: &BoundExpr| {
        e.map_refs(&|leaf| match *leaf {
            BoundExpr::Column(i) => BoundExpr::Column(width + i),
            BoundExpr::OuterRef { level: 0, index } => BoundExpr::Column(index),
            BoundExpr::OuterRef { level, index } => BoundExpr::OuterRef {
                level: level - 1,
                index,
            },
            ref other => other.clone(),
        })
    };
    let mut keys = Vec::new();
    let mut residual = Vec::new();
    for conjunct in split_conjuncts_ref(predicate) {
        if conjunct.contains_subquery() {
            return None;
        }
        if let BoundExpr::Binary {
            op: BinaryOp::Eq,
            left,
            right,
        } = conjunct
        {
            match (&**left, &**right) {
                (BoundExpr::Column(c), e) | (e, BoundExpr::Column(c))
                    if !e.references_columns() =>
                {
                    keys.push((*c, outward(e)));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(outward(conjunct));
    }
    if keys.is_empty() {
        return None;
    }
    let residual = (!residual.is_empty()).then(|| BoundExpr::conjoin(residual));
    Some((table, keys, residual))
}

/// Is `c` an equality pinning one column of `schema` to a
/// row-independent, index-safe key expression? Literals must inhabit
/// the column's type exactly (so hash-key identity coincides with SQL
/// equality); `Float` columns are never index-safe.
fn as_index_key<'a>(c: &'a BoundExpr, schema: &TableSchema) -> Option<(usize, &'a BoundExpr)> {
    let BoundExpr::Binary {
        op: BinaryOp::Eq,
        left,
        right,
    } = c
    else {
        return None;
    };
    let (col, key) = match (&**left, &**right) {
        (BoundExpr::Column(c), e) => (*c, e),
        (e, BoundExpr::Column(c)) => (*c, e),
        _ => return None,
    };
    let ty = schema.columns.get(col)?.ty;
    if ty == DataType::Float {
        return None;
    }
    match key {
        BoundExpr::Literal(v) => matches!(
            (ty, v),
            (DataType::Int, Value::Int(_))
                | (DataType::Text, Value::Text(_))
                | (DataType::Bool, Value::Bool(_))
        )
        .then_some((col, key)),
        _ => None,
    }
}

/// Optimize a plan: the rewrite passes of the module docs, bottom-up.
pub(crate) fn optimize(mut plan: Plan, catalog: &Catalog) -> Result<Plan, EngineError> {
    for child in plan.children_mut() {
        let taken = std::mem::replace(child, Plan::Empty { arity: 0 });
        *child = optimize(taken, catalog)?;
    }
    Ok(match plan {
        Plan::Filter { input, predicate } => {
            let predicate = fold_expr(predicate, catalog);
            // Drop trivially-true filters; empty out trivially-false ones.
            match &predicate {
                BoundExpr::Literal(Value::Bool(true)) => *input,
                BoundExpr::Literal(Value::Bool(false) | Value::Null) => Plan::Empty {
                    arity: input.arity(catalog)?,
                },
                _ => push_filter(*input, predicate, catalog)?,
            }
        }
        Plan::Project { input, exprs } => {
            let exprs: Vec<BoundExpr> = exprs.into_iter().map(|e| fold_expr(e, catalog)).collect();
            match *input {
                Plan::Project {
                    input: inner,
                    exprs: inner_exprs,
                } if columns_and_literals(&exprs) && columns_and_literals(&inner_exprs) => {
                    let exprs = exprs
                        .into_iter()
                        .map(|e| match e {
                            BoundExpr::Column(c) => inner_exprs[c].clone(),
                            literal => literal,
                        })
                        .collect();
                    project(*inner, exprs, catalog)?
                }
                input => project(input, exprs, catalog)?,
            }
        }
        // Try converting a LEFT nested-loop with pure equi predicate
        // into a left hash join.
        Plan::NestedLoopJoin {
            left,
            right,
            predicate: Some(pred),
            join_type: JoinType::Left,
        } if !pred.contains_subquery() => {
            let (equi, residual) = split_equi(&pred, left.arity(catalog)?);
            if equi.is_empty() {
                Plan::NestedLoopJoin {
                    left,
                    right,
                    predicate: Some(pred),
                    join_type: JoinType::Left,
                }
            } else {
                let (left_keys, right_keys) = equi.into_iter().unzip();
                Plan::HashJoin {
                    left,
                    right,
                    left_keys,
                    right_keys,
                    residual,
                    join_type: JoinType::Left,
                }
            }
        }
        other => other,
    })
}

/// `Project(input, exprs)`, or `input` itself when it is a `Distinct`
/// and `exprs` lists its columns in order: that projection does nothing,
/// and without it the `Distinct` is the root the vectorized engine
/// compiles. (Below a `Distinct` the identity stays; see pass 4.)
fn project(input: Plan, exprs: Vec<BoundExpr>, catalog: &Catalog) -> Result<Plan, EngineError> {
    if matches!(input, Plan::Distinct { .. })
        && exprs.len() == input.arity(catalog)?
        && exprs
            .iter()
            .enumerate()
            .all(|(i, e)| *e == BoundExpr::Column(i))
    {
        return Ok(input);
    }
    Ok(Plan::Project {
        input: Box::new(input),
        exprs,
    })
}

/// Place a filter above `input`, pushing conjuncts down / converting joins.
fn push_filter(input: Plan, predicate: BoundExpr, catalog: &Catalog) -> Result<Plan, EngineError> {
    match input {
        // Filters commute with duplicate elimination.
        Plan::Distinct { input } => Ok(Plan::Distinct {
            input: Box::new(push_filter(*input, predicate, catalog)?),
        }),
        // Push through a projection when every column the predicate reads
        // maps to a plain column of the input (no computed expressions),
        // so the join-conversion rule can see the cross join underneath.
        Plan::Project {
            input: proj_input,
            exprs,
        } if !predicate.contains_subquery() && remappable(&predicate, &exprs) => {
            let mapped = predicate.map_columns(&|i| match &exprs[i] {
                BoundExpr::Column(c) => *c,
                _ => unreachable!("remappable() checked"),
            });
            Ok(Plan::Project {
                input: Box::new(push_filter(*proj_input, mapped, catalog)?),
                exprs,
            })
        }
        Plan::CrossJoin { left, right } => {
            let la = left.arity(catalog)?;
            let conjuncts = split_conjuncts(&predicate);

            let mut left_preds = Vec::new();
            let mut right_preds = Vec::new();
            let mut equi: Vec<(BoundExpr, BoundExpr)> = Vec::new();
            let mut rest = Vec::new();

            for c in conjuncts {
                if c.contains_subquery() {
                    rest.push(c);
                    continue;
                }
                let mut cols = Vec::new();
                c.collect_columns(&mut cols);
                let all_left = cols.iter().all(|&i| i < la);
                let all_right = cols.iter().all(|&i| i >= la);
                if all_left && !cols.is_empty() {
                    left_preds.push(c);
                } else if all_right {
                    right_preds.push(c.map_columns(&|i| i - la));
                } else if let Some((lk, rk)) = as_equi(&c, la) {
                    equi.push((lk, rk));
                } else {
                    rest.push(c);
                }
            }

            // Each side's conjuncts keep descending, through `DISTINCT`
            // and plain projections, down to the scan they filter.
            let place = |side: Box<Plan>, preds: Vec<BoundExpr>| {
                if preds.is_empty() {
                    Ok(*side)
                } else {
                    push_filter(*side, BoundExpr::conjoin(preds), catalog)
                }
            };
            let l = place(left, left_preds)?;
            let r = place(right, right_preds)?;

            let joined = if equi.is_empty() {
                Plan::CrossJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                }
            } else {
                Plan::HashJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    left_keys: equi.iter().map(|(lk, _)| lk.clone()).collect(),
                    right_keys: equi
                        .iter()
                        .map(|(_, rk)| rk.map_columns(&|i| i - la))
                        .collect(),
                    residual: None,
                    join_type: JoinType::Inner,
                }
            };
            if rest.is_empty() {
                Ok(joined)
            } else {
                Ok(Plan::Filter {
                    input: Box::new(joined),
                    predicate: BoundExpr::conjoin(rest),
                })
            }
        }
        other => Ok(Plan::Filter {
            input: Box::new(other),
            predicate,
        }),
    }
}

/// Does the projection list hold only columns and literals (so it can
/// be composed with another such list, and cannot raise an error)?
fn columns_and_literals(exprs: &[BoundExpr]) -> bool {
    exprs
        .iter()
        .all(|e| matches!(e, BoundExpr::Column(_) | BoundExpr::Literal(_)))
}

/// Does every column the predicate references map to a plain column in the
/// projection list?
fn remappable(predicate: &BoundExpr, exprs: &[BoundExpr]) -> bool {
    let mut cols = Vec::new();
    predicate.collect_columns(&mut cols);
    cols.iter()
        .all(|&i| matches!(exprs.get(i), Some(BoundExpr::Column(_))))
}

/// Split an `AND` tree into conjuncts.
pub(crate) fn split_conjuncts(e: &BoundExpr) -> Vec<BoundExpr> {
    match e {
        BoundExpr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// Is `e` an equality between a left-only and a right-only expression
/// (relative to a split at column `la`)? Returns (left key, right key in
/// combined offsets).
fn as_equi(e: &BoundExpr, la: usize) -> Option<(BoundExpr, BoundExpr)> {
    let BoundExpr::Binary {
        op: BinaryOp::Eq,
        left,
        right,
    } = e
    else {
        return None;
    };
    if left.contains_subquery() || right.contains_subquery() {
        return None;
    }
    let side = |x: &BoundExpr| -> Option<bool> {
        // Some(true) = all-left, Some(false) = all-right, None = mixed/none
        let mut cols = Vec::new();
        x.collect_columns(&mut cols);
        if cols.is_empty() {
            return None;
        }
        if cols.iter().all(|&i| i < la) {
            Some(true)
        } else if cols.iter().all(|&i| i >= la) {
            Some(false)
        } else {
            None
        }
    };
    match (side(left), side(right)) {
        (Some(true), Some(false)) => Some((*left.clone(), *right.clone())),
        (Some(false), Some(true)) => Some((*right.clone(), *left.clone())),
        _ => None,
    }
}

/// Split a predicate over a join into equi pairs (left expr, right expr in
/// right-local offsets) and a residual.
fn split_equi(pred: &BoundExpr, la: usize) -> (Vec<(BoundExpr, BoundExpr)>, Option<BoundExpr>) {
    let mut equi = Vec::new();
    let mut rest = Vec::new();
    for c in split_conjuncts(pred) {
        match as_equi(&c, la) {
            Some((l, r)) => equi.push((l, r.map_columns(&|i| i - la))),
            None => rest.push(c),
        }
    }
    let residual = if rest.is_empty() {
        None
    } else {
        Some(BoundExpr::conjoin(rest))
    };
    (equi, residual)
}

/// Fold literal-only expressions into literals (best effort; errors and
/// anything touching columns/subqueries are left intact).
fn fold_expr(e: BoundExpr, catalog: &Catalog) -> BoundExpr {
    if matches!(e, BoundExpr::Literal(_)) {
        return e;
    }
    if e.references_columns() || e.contains_subquery() || contains_outer_ref(&e) {
        // Fold children of AND/OR even if the whole can't fold.
        if let BoundExpr::Binary { op, left, right } = e {
            return BoundExpr::Binary {
                op,
                left: Box::new(fold_expr(*left, catalog)),
                right: Box::new(fold_expr(*right, catalog)),
            };
        }
        return e;
    }
    let mut env = EvalEnv::new(catalog);
    match eval(&e, &[], &mut env) {
        Ok(v) => BoundExpr::Literal(v),
        Err(_) => e, // leave runtime errors to execution time
    }
}

fn contains_outer_ref(e: &BoundExpr) -> bool {
    let mut found = false;
    e.visit(&mut |x| {
        if matches!(x, BoundExpr::OuterRef { .. }) {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, cols) in [("r", 2usize), ("s", 2)] {
            let columns: Vec<Column> = (0..cols)
                .map(|i| Column::new(format!("c{i}"), DataType::Int))
                .collect();
            c.create_table(TableSchema::new(name, columns, &[]).unwrap())
                .unwrap();
        }
        c
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column(i)
    }

    fn eq(l: BoundExpr, r: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn lit(v: i64) -> BoundExpr {
        BoundExpr::Literal(Value::Int(v))
    }

    #[test]
    fn filter_over_cross_becomes_hash_join() {
        let c = catalog();
        let plan = Plan::Filter {
            input: Box::new(Plan::CrossJoin {
                left: Box::new(Plan::Scan { table: "r".into() }),
                right: Box::new(Plan::Scan { table: "s".into() }),
            }),
            predicate: eq(col(0), col(2)),
        };
        let opt = optimize(plan, &c).unwrap();
        let Plan::HashJoin {
            left_keys,
            right_keys,
            ..
        } = opt
        else {
            panic!("expected hash join, got {opt:?}")
        };
        assert_eq!(left_keys, vec![col(0)]);
        assert_eq!(right_keys, vec![col(0)], "right key rebased to right side");
    }

    #[test]
    fn single_side_conjuncts_push_down() {
        let c = catalog();
        let pred = eq(col(0), col(2))
            .and(eq(col(1), lit(5)))
            .and(eq(col(3), lit(7)));
        let plan = Plan::Filter {
            input: Box::new(Plan::CrossJoin {
                left: Box::new(Plan::Scan { table: "r".into() }),
                right: Box::new(Plan::Scan { table: "s".into() }),
            }),
            predicate: pred,
        };
        let opt = optimize(plan, &c).unwrap();
        let Plan::HashJoin { left, right, .. } = opt else {
            panic!("{opt:?}")
        };
        assert!(matches!(*left, Plan::Filter { .. }), "left filter pushed");
        let Plan::Filter { predicate, .. } = *right else {
            panic!()
        };
        // right-side predicate rebased: col(3) -> col(1)
        assert_eq!(predicate, eq(col(1), lit(7)));
    }

    #[test]
    fn non_equi_stays_as_residual_filter() {
        let c = catalog();
        let pred = BoundExpr::Binary {
            op: BinaryOp::Lt,
            left: Box::new(col(0)),
            right: Box::new(col(2)),
        };
        let plan = Plan::Filter {
            input: Box::new(Plan::CrossJoin {
                left: Box::new(Plan::Scan { table: "r".into() }),
                right: Box::new(Plan::Scan { table: "s".into() }),
            }),
            predicate: pred.clone(),
        };
        let opt = optimize(plan, &c).unwrap();
        let Plan::Filter { input, predicate } = opt else {
            panic!("{opt:?}")
        };
        assert_eq!(predicate, pred);
        assert!(matches!(*input, Plan::CrossJoin { .. }));
    }

    #[test]
    fn constant_folding_collapses_filters() {
        let c = catalog();
        let plan = Plan::Filter {
            input: Box::new(Plan::Scan { table: "r".into() }),
            predicate: eq(lit(1), lit(1)),
        };
        let opt = optimize(plan, &c).unwrap();
        assert!(
            matches!(opt, Plan::Scan { .. }),
            "true filter removed: {opt:?}"
        );
        let plan = Plan::Filter {
            input: Box::new(Plan::Scan { table: "r".into() }),
            predicate: eq(lit(1), lit(2)),
        };
        let opt = optimize(plan, &c).unwrap();
        assert!(
            matches!(opt, Plan::Empty { arity: 2 }),
            "false filter empties: {opt:?}"
        );
    }

    #[test]
    fn left_nested_loop_with_equi_becomes_left_hash_join() {
        let c = catalog();
        let plan = Plan::NestedLoopJoin {
            left: Box::new(Plan::Scan { table: "r".into() }),
            right: Box::new(Plan::Scan { table: "s".into() }),
            predicate: Some(eq(col(0), col(2))),
            join_type: JoinType::Left,
        };
        let opt = optimize(plan, &c).unwrap();
        assert!(
            matches!(
                opt,
                Plan::HashJoin {
                    join_type: JoinType::Left,
                    ..
                }
            ),
            "{opt:?}"
        );
    }

    #[test]
    fn filter_pushes_through_project_and_distinct() {
        // Filter(Project(CrossJoin)) with a column-only projection becomes
        // Project(HashJoin) — the shape SJUD SQL rendering produces.
        let c = catalog();
        let plan = Plan::Filter {
            input: Box::new(Plan::Project {
                input: Box::new(Plan::CrossJoin {
                    left: Box::new(Plan::Scan { table: "r".into() }),
                    right: Box::new(Plan::Scan { table: "s".into() }),
                }),
                exprs: vec![col(1), col(0), col(2), col(3)], // permuted columns
            }),
            predicate: eq(col(1), col(2)), // output cols 1,2 = input cols 0,2
        };
        let opt = optimize(plan, &c).unwrap();
        let Plan::Project { input, .. } = opt else {
            panic!("{opt:?}")
        };
        let Plan::HashJoin {
            left_keys,
            right_keys,
            ..
        } = *input
        else {
            panic!("expected hash join under project: {input:?}")
        };
        assert_eq!(left_keys, vec![col(0)]);
        assert_eq!(right_keys, vec![col(0)]);

        let plan = Plan::Filter {
            input: Box::new(Plan::Distinct {
                input: Box::new(Plan::CrossJoin {
                    left: Box::new(Plan::Scan { table: "r".into() }),
                    right: Box::new(Plan::Scan { table: "s".into() }),
                }),
            }),
            predicate: eq(col(0), col(2)),
        };
        let opt = optimize(plan, &c).unwrap();
        let Plan::Distinct { input } = opt else {
            panic!("{opt:?}")
        };
        assert!(matches!(*input, Plan::HashJoin { .. }));
    }

    /// A one-sided conjunct over a join of `DISTINCT` inputs — the SJUD
    /// envelope's shape — descends through the `Distinct` and the plain
    /// `Project` to its scan, where the vectorized engine runs it.
    #[test]
    fn one_sided_conjunct_reaches_the_scan_under_distinct() {
        let c = catalog();
        let side = |table: &str| Plan::Distinct {
            input: Box::new(Plan::Project {
                input: Box::new(Plan::Scan {
                    table: table.into(),
                }),
                exprs: vec![col(0), col(1)],
            }),
        };
        let ge = BoundExpr::Binary {
            op: BinaryOp::Ge,
            left: Box::new(col(1)),
            right: Box::new(lit(500)),
        };
        let plan = Plan::Filter {
            input: Box::new(Plan::CrossJoin {
                left: Box::new(side("r")),
                right: Box::new(side("s")),
            }),
            predicate: eq(col(0), col(2)).and(ge.clone()),
        };
        let opt = optimize(plan, &c).unwrap();
        let Plan::HashJoin { left, right, .. } = opt else {
            panic!("{opt:?}")
        };
        assert_eq!(*right, side("s"), "nothing to push on the right");
        let Plan::Distinct { input } = &*left else {
            panic!("{left:?}")
        };
        let Plan::Project { input, .. } = &**input else {
            panic!("{left:?}")
        };
        assert_eq!(
            **input,
            Plan::Filter {
                input: Box::new(Plan::Scan { table: "r".into() }),
                predicate: ge,
            }
        );
        assert!(!crate::column::vectorized_roots(&left, &c).is_empty());
    }

    #[test]
    fn filter_not_pushed_through_computed_projection() {
        let c = catalog();
        let computed = BoundExpr::Binary {
            op: BinaryOp::Add,
            left: Box::new(col(0)),
            right: Box::new(lit(1)),
        };
        let plan = Plan::Filter {
            input: Box::new(Plan::Project {
                input: Box::new(Plan::Scan { table: "r".into() }),
                exprs: vec![computed],
            }),
            predicate: eq(col(0), lit(5)),
        };
        let opt = optimize(plan, &c).unwrap();
        assert!(
            matches!(opt, Plan::Filter { .. }),
            "computed projections block pushdown: {opt:?}"
        );
    }

    #[test]
    fn stacked_projections_compose_into_one() {
        let c = catalog();
        let project = |input: Plan, exprs: Vec<BoundExpr>| Plan::Project {
            input: Box::new(input),
            exprs,
        };
        let scan = || Plan::Scan { table: "r".into() };
        // [#1, 7, #0] ∘ [#1, #0] ∘ [#0, #1] = [#0, 7, #1]
        let plan = project(
            project(project(scan(), vec![col(0), col(1)]), vec![col(1), col(0)]),
            vec![col(1), lit(7), col(0)],
        );
        let Plan::Project { input, exprs } = optimize(plan, &c).unwrap() else {
            panic!("expected one projection");
        };
        assert!(matches!(*input, Plan::Scan { .. }), "{input:?}");
        assert_eq!(exprs, vec![col(0), lit(7), col(1)]);

        // The identity projection that remains is kept: the vectorized
        // join side needs `Distinct(Project(Scan))`, not `Distinct(Scan)`.
        let plan = Plan::Distinct {
            input: Box::new(project(
                project(scan(), vec![col(0), col(1)]),
                vec![col(0), col(1)],
            )),
        };
        let Plan::Distinct { input } = optimize(plan, &c).unwrap() else {
            panic!("expected DISTINCT on top");
        };
        let Plan::Project { input, exprs } = *input else {
            panic!("the identity projection stays: {input:?}");
        };
        assert!(matches!(*input, Plan::Scan { .. }), "{input:?}");
        assert_eq!(exprs, vec![col(0), col(1)]);

        // Above a `Distinct` an identity projection is dropped, also one
        // that only composes to the identity ([#1, #0] ∘ [#1, #0]).
        let distinct = || Plan::Distinct {
            input: Box::new(project(scan(), vec![col(0), col(1)])),
        };
        for plan in [
            project(distinct(), vec![col(0), col(1)]),
            project(
                project(distinct(), vec![col(1), col(0)]),
                vec![col(1), col(0)],
            ),
        ] {
            let optimized = optimize(plan, &c).unwrap();
            assert!(matches!(optimized, Plan::Distinct { .. }), "{optimized:?}");
        }
        // A permutation above it stays.
        let plan = project(distinct(), vec![col(1), col(0)]);
        assert!(matches!(optimize(plan, &c).unwrap(), Plan::Project { .. }));

        // A computed expression on either side blocks the composition.
        let computed = BoundExpr::Binary {
            op: BinaryOp::Add,
            left: Box::new(col(0)),
            right: Box::new(lit(1)),
        };
        let plan = project(project(scan(), vec![computed]), vec![col(0)]);
        let Plan::Project { input, .. } = optimize(plan, &c).unwrap() else {
            panic!("expected a projection");
        };
        assert!(matches!(*input, Plan::Project { .. }), "{input:?}");
    }

    fn indexed_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "t",
                vec![
                    Column::new("k", DataType::Int),
                    Column::new("v", DataType::Int),
                    Column::new("f", DataType::Float),
                ],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    /// Run the access-path pass on an owned plan (test convenience).
    fn with_access_paths(mut plan: Plan, catalog: &Catalog) -> Plan {
        choose_access_paths(&mut plan, catalog);
        plan
    }

    fn filter_scan(pred: BoundExpr) -> Plan {
        Plan::Filter {
            input: Box::new(Plan::Scan { table: "t".into() }),
            predicate: pred,
        }
    }

    #[test]
    fn equality_on_indexed_key_becomes_index_lookup() {
        let c = indexed_catalog();
        let plan = with_access_paths(filter_scan(eq(col(0), lit(5))), &c);
        let Plan::IndexLookup {
            table,
            index_cols,
            key,
        } = plan
        else {
            panic!("expected IndexLookup, got:\n{plan}")
        };
        assert_eq!(table, "t");
        assert_eq!(index_cols, vec![0]);
        assert_eq!(key, vec![lit(5)]);
    }

    #[test]
    fn extra_conjuncts_stay_as_residual_over_the_lookup() {
        let c = indexed_catalog();
        let pred = eq(col(0), lit(5)).and(BoundExpr::Binary {
            op: BinaryOp::Gt,
            left: Box::new(col(1)),
            right: Box::new(lit(7)),
        });
        let plan = with_access_paths(filter_scan(pred), &c);
        let Plan::Filter { input, .. } = plan else {
            panic!("expected residual filter, got:\n{plan}")
        };
        assert!(matches!(*input, Plan::IndexLookup { .. }));
    }

    #[test]
    fn unsafe_keys_fall_back_to_scan() {
        let c = indexed_catalog();
        // Type-mismatched literal: hash identity would not coincide
        // with SQL equality semantics.
        let plan = with_access_paths(
            filter_scan(eq(col(0), BoundExpr::Literal(Value::text("x")))),
            &c,
        );
        assert!(matches!(
            plan,
            Plan::Filter {
                ref input,
                ..
            } if matches!(**input, Plan::Scan { .. })
        ));
        // Column = column is row-dependent.
        let plan = with_access_paths(filter_scan(eq(col(0), col(1))), &c);
        assert!(matches!(plan, Plan::Filter { .. }));
        // Non-equality never probes.
        let plan = with_access_paths(
            filter_scan(BoundExpr::Binary {
                op: BinaryOp::Lt,
                left: Box::new(col(0)),
                right: Box::new(lit(5)),
            }),
            &c,
        );
        assert!(matches!(plan, Plan::Filter { .. }));
    }

    #[test]
    fn float_columns_are_never_index_probed() {
        let mut c = indexed_catalog();
        c.table_mut("t").unwrap().create_index(vec![2]).unwrap();
        let plan = with_access_paths(
            filter_scan(eq(col(2), BoundExpr::Literal(Value::Float(1.0)))),
            &c,
        );
        assert!(matches!(plan, Plan::Filter { .. }), "{plan}");
    }

    #[test]
    fn largest_covered_index_wins() {
        let mut c = indexed_catalog();
        c.table_mut("t").unwrap().create_index(vec![0, 1]).unwrap();
        let pred = eq(col(0), lit(5)).and(eq(col(1), lit(7)));
        let plan = with_access_paths(filter_scan(pred), &c);
        let Plan::IndexLookup { index_cols, .. } = plan else {
            panic!("expected IndexLookup, got:\n{plan}")
        };
        assert_eq!(index_cols, vec![0, 1], "two-column index preferred");
    }

    #[test]
    fn subquery_predicates_are_not_moved() {
        let c = catalog();
        let sub = BoundExpr::Exists {
            plan: Box::new(Plan::Scan { table: "s".into() }),
            negated: false,
        };
        let plan = Plan::Filter {
            input: Box::new(Plan::CrossJoin {
                left: Box::new(Plan::Scan { table: "r".into() }),
                right: Box::new(Plan::Scan { table: "s".into() }),
            }),
            predicate: sub.clone(),
        };
        let opt = optimize(plan, &c).unwrap();
        let Plan::Filter { predicate, .. } = opt else {
            panic!("{opt:?}")
        };
        assert_eq!(predicate, sub);
    }
}
