//! The optimizer: plan → plan rewrites, plus access-path selection.
//!
//! **Rewrite passes** ([`optimize`]), applied bottom-up (one traversal
//! is enough for the shapes the binder emits):
//!
//! 1. **Constant folding** — literal-only expressions collapse to literals.
//! 2. **Predicate pushdown** — conjuncts of a `Filter` over a `CrossJoin`
//!    that reference only one side move below the join.
//! 3. **Join conversion** — remaining equi-conjuncts across the two sides
//!    turn `Filter(CrossJoin)` into a `HashJoin`.
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
//! expressions must be row-independent (literals of exactly the
//! column's type, or [`BoundExpr::Param`] placeholders whose bindings
//! the prepared-plan caller guarantees to be type-matching or `NULL`);
//! `Float` columns are never index-probed, because hash-key identity
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
//! The pass does not descend into expression subqueries
//! (`EXISTS`/`IN`/scalar): their subplans run as bound, with
//! [`crate::expr::EvalEnv`]'s correlated-`EXISTS` hash memo giving the
//! hot membership-flag shape its O(1) probe.

use crate::catalog::Catalog;
use crate::expr::{eval, BoundExpr, EvalEnv};
use crate::plan::{JoinType, Plan};
use crate::schema::{DataType, EngineError, TableSchema};
use crate::value::Value;
use hippo_sql::BinaryOp;

/// Access-path selection, in place: every `Filter(Scan)` of `plan`
/// whose equality conjuncts cover one of the table's hash indexes
/// becomes an [`Plan::IndexLookup`] (plus a residual `Filter` for the
/// remaining conjuncts). Skipping this pass leaves a plan that scans —
/// same rows, same order.
pub fn choose_access_paths(plan: &mut Plan, catalog: &Catalog) {
    if let Plan::Filter { input, predicate } = plan {
        if let Plan::Scan { table } = &**input {
            if let Some(lookup) = index_access_path(table, predicate, catalog) {
                *plan = lookup;
                return;
            }
        }
    }
    for child in plan.children_mut() {
        choose_access_paths(child, catalog);
    }
}

/// Access-path selection for `Filter(Scan)`: pick the largest index of
/// `table` whose every column is pinned by an index-safe equality
/// conjunct, emit an `IndexLookup` keyed by those expressions and keep
/// the remaining conjuncts as a residual filter. Ties between
/// equal-length indexes break to the lexicographically smallest column
/// set, so plan choice is deterministic.
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
    let mut best: Option<&Vec<usize>> = None;
    for cols in t.index_column_sets() {
        if !cols.iter().all(|c| eq.contains_key(c)) {
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
    let index_cols = best?.clone();
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

/// Is `c` an equality pinning one column of `schema` to a
/// row-independent, index-safe key expression? Literals must inhabit
/// the column's type exactly (so hash-key identity coincides with SQL
/// equality); `Param`s are accepted on the caller's type contract;
/// `Float` columns are never index-safe.
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
        BoundExpr::Param(_) => Some((col, key)),
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
pub fn optimize(mut plan: Plan, catalog: &Catalog) -> Result<Plan, EngineError> {
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
        Plan::Project { input, exprs } => Plan::Project {
            input,
            exprs: exprs.into_iter().map(|e| fold_expr(e, catalog)).collect(),
        },
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

            let mut l = *left;
            if !left_preds.is_empty() {
                l = Plan::Filter {
                    input: Box::new(l),
                    predicate: BoundExpr::conjoin(left_preds),
                };
            }
            let mut r = *right;
            if !right_preds.is_empty() {
                r = Plan::Filter {
                    input: Box::new(r),
                    predicate: BoundExpr::conjoin(right_preds),
                };
            }

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

/// Does every column the predicate references map to a plain column in the
/// projection list?
fn remappable(predicate: &BoundExpr, exprs: &[BoundExpr]) -> bool {
    let mut cols = Vec::new();
    predicate.collect_columns(&mut cols);
    cols.iter()
        .all(|&i| matches!(exprs.get(i), Some(BoundExpr::Column(_))))
}

/// Split an `AND` tree into conjuncts.
pub fn split_conjuncts(e: &BoundExpr) -> Vec<BoundExpr> {
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
    fn param_keys_are_index_safe() {
        let c = indexed_catalog();
        let plan = with_access_paths(filter_scan(eq(col(0), BoundExpr::Param(0))), &c);
        assert!(matches!(plan, Plan::IndexLookup { .. }), "{plan}");
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
