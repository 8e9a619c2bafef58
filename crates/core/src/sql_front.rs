//! SQL front end for the CQA layer: translating SQL text into the SJUD
//! algebra.
//!
//! The paper's title promises consistent answers to *a class of SQL
//! queries*. This module defines that class concretely: a `SELECT`
//! statement translates into an [`SjudQuery`] when it
//!
//! * projects only plain columns (`*` or column lists — no expressions),
//!   and the projection keeps every column of the `FROM` sources at least
//!   once (no existential quantification, matching footnote 4 of the
//!   paper);
//! * uses `FROM` items that are base tables (joined by comma, `CROSS
//!   JOIN`, or `INNER JOIN … ON`);
//! * has a `WHERE` clause built from comparisons between columns and
//!   constants with `AND`/`OR`/`NOT` (no subqueries, no `LIKE`/`IN`);
//! * combines blocks with `UNION` / `EXCEPT` (set semantics).
//!
//! Anything else produces a descriptive [`SqlClassError`].
//!
//! `NULL`s: a tuple is an answer only if the base facts it is built
//! from are *present*, and in every mode a `NULL` component matches
//! nothing (see the membership section of [`crate::hippo`]). So
//! `SELECT * FROM t` never returns a row with a `NULL` as a consistent
//! answer — in any of the three modes.

use crate::pred::{CmpOp, Operand, Pred};
use crate::query::SjudQuery;
use hippo_engine::Catalog;
use hippo_sql::{
    BinaryOp, Expr, JoinKind, Literal, Query, SelectCore, SelectItem, SetOp, Statement, TableRef,
    UnaryOp,
};
use std::fmt;

/// Why a SQL query is outside the supported SJUD class.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlClassError {
    /// Human-readable explanation.
    pub message: String,
}

impl SqlClassError {
    fn new(message: impl Into<String>) -> SqlClassError {
        SqlClassError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SqlClassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query outside the supported SJUD class: {}",
            self.message
        )
    }
}

impl std::error::Error for SqlClassError {}

impl From<hippo_sql::ParseError> for SqlClassError {
    fn from(e: hippo_sql::ParseError) -> Self {
        SqlClassError::new(e.to_string())
    }
}

impl From<hippo_engine::EngineError> for SqlClassError {
    fn from(e: hippo_engine::EngineError) -> Self {
        SqlClassError::new(e.message)
    }
}

/// Parse SQL text and translate it into the SJUD algebra.
pub fn sjud_from_sql(sql: &str, catalog: &Catalog) -> Result<SjudQuery, SqlClassError> {
    let stmt = hippo_sql::parse_statement(sql)?;
    let Statement::Select(q) = stmt else {
        return Err(SqlClassError::new(
            "only SELECT statements can be queried consistently",
        ));
    };
    let q = sjud_from_query(&q, catalog)?;
    q.validate(catalog)?;
    Ok(q)
}

/// Translate a parsed query.
pub fn sjud_from_query(q: &Query, catalog: &Catalog) -> Result<SjudQuery, SqlClassError> {
    match q {
        Query::Select(core) => sjud_from_core(core, catalog),
        Query::SetOp {
            op,
            all,
            left,
            right,
        } => {
            if *all {
                return Err(SqlClassError::new(
                    "bag semantics (ALL) is not supported; consistent answers are sets",
                ));
            }
            let l = sjud_from_query(left, catalog)?;
            let r = sjud_from_query(right, catalog)?;
            match op {
                SetOp::Union => Ok(l.union(r)),
                SetOp::Except => Ok(l.diff(r)),
                SetOp::Intersect => {
                    // A ∩ B ≡ A − (A − B); stays within SJUD.
                    Ok(l.clone().diff(l.diff(r)))
                }
            }
        }
    }
}

/// One named column range in the flattened FROM row.
struct FromScope {
    /// (qualifier, column name) → flat offset, in order.
    columns: Vec<(String, String)>,
}

impl FromScope {
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize, SqlClassError> {
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, (q, n))| n == name && qualifier.is_none_or(|want| q == want))
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [i] => Ok(*i),
            [] => Err(SqlClassError::new(format!(
                "unknown column {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            _ => Err(SqlClassError::new(format!(
                "ambiguous column reference {name:?}"
            ))),
        }
    }
}

fn sjud_from_core(core: &SelectCore, catalog: &Catalog) -> Result<SjudQuery, SqlClassError> {
    if core.distinct {
        // DISTINCT is implied by set semantics; accept and ignore.
    }
    if !core.group_by.is_empty() || core.having.is_some() {
        return Err(SqlClassError::new(
            "aggregation is outside the SJUD class (consistent aggregation is co-NP-hard)",
        ));
    }
    if !core.order_by.is_empty() || core.limit.is_some() || core.offset.is_some() {
        return Err(SqlClassError::new(
            "ORDER BY / LIMIT have no repair semantics; apply them to the answer set instead",
        ));
    }
    if core.from.is_empty() {
        return Err(SqlClassError::new(
            "a FROM clause over base tables is required",
        ));
    }

    // Build the product of FROM items and the flat scope.
    let mut scope = FromScope {
        columns: Vec::new(),
    };
    let mut query: Option<SjudQuery> = None;
    let mut join_preds: Vec<Pred> = Vec::new();
    for item in &core.from {
        let q = from_item(item, catalog, &mut scope, &mut join_preds)?;
        query = Some(match query {
            None => q,
            Some(prev) => prev.product(q),
        });
    }
    let mut query = query.expect("FROM is non-empty");

    // WHERE + join conditions.
    let mut pred = Pred::conjoin(join_preds);
    if let Some(f) = &core.filter {
        pred = pred.and(where_pred(f, &scope)?);
    }
    if pred != Pred::True {
        query = query.select(pred);
    }

    // Projection: must be a permutation/duplication covering all columns.
    let total = scope.columns.len();
    let mut perm: Vec<usize> = Vec::new();
    for item in &core.projection {
        match item {
            SelectItem::Wildcard => perm.extend(0..total),
            SelectItem::QualifiedWildcard(q) => {
                let mut found = false;
                for (i, (qual, _)) in scope.columns.iter().enumerate() {
                    if qual == q {
                        perm.push(i);
                        found = true;
                    }
                }
                if !found {
                    return Err(SqlClassError::new(format!(
                        "unknown alias {q:?} in wildcard"
                    )));
                }
            }
            SelectItem::Expr {
                expr: Expr::Column { qualifier, name },
                ..
            } => {
                perm.push(scope.resolve(qualifier.as_deref(), name)?);
            }
            SelectItem::Expr { expr, .. } => {
                return Err(SqlClassError::new(format!(
                    "projection must list plain columns, found expression {expr:?}"
                )));
            }
        }
    }
    for col in 0..total {
        if !perm.contains(&col) {
            let (q, n) = &scope.columns[col];
            return Err(SqlClassError::new(format!(
                "projection drops column {q}.{n}; dropping columns introduces an existential \
                 quantifier, which is outside the supported fragment (paper footnote 4)"
            )));
        }
    }
    if perm.len() == total && perm.iter().enumerate().all(|(i, &p)| i == p) {
        Ok(query) // identity projection
    } else {
        Ok(query.permute(perm))
    }
}

fn from_item(
    item: &TableRef,
    catalog: &Catalog,
    scope: &mut FromScope,
    join_preds: &mut Vec<Pred>,
) -> Result<SjudQuery, SqlClassError> {
    match item {
        TableRef::Table { name, alias } => {
            let table = catalog
                .table(name)
                .map_err(|e| SqlClassError::new(e.message))?;
            let qualifier = alias.clone().unwrap_or_else(|| name.clone());
            if scope.columns.iter().any(|(q, _)| *q == qualifier) {
                return Err(SqlClassError::new(format!("duplicate alias {qualifier:?}")));
            }
            for c in &table.schema.columns {
                scope.columns.push((qualifier.clone(), c.name.clone()));
            }
            Ok(SjudQuery::rel(name.clone()))
        }
        TableRef::Subquery { .. } => Err(SqlClassError::new(
            "FROM subqueries are not supported; compose the algebra with SjudQuery instead",
        )),
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            let l = from_item(left, catalog, scope, join_preds)?;
            let r = from_item(right, catalog, scope, join_preds)?;
            match kind {
                JoinKind::Cross => Ok(l.product(r)),
                JoinKind::Inner => {
                    let Some(on) = on else {
                        return Err(SqlClassError::new("INNER JOIN requires ON"));
                    };
                    // The ON condition binds over everything in scope so far.
                    join_preds.push(where_pred(on, scope)?);
                    Ok(l.product(r))
                }
                JoinKind::Left => Err(SqlClassError::new(
                    "outer joins are outside the SJUD class (they introduce nulls with no \
                     repair semantics)",
                )),
            }
        }
    }
}

fn where_pred(e: &Expr, scope: &FromScope) -> Result<Pred, SqlClassError> {
    match e {
        Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => Ok(where_pred(left, scope)?.and(where_pred(right, scope)?)),
        Expr::Binary {
            op: BinaryOp::Or,
            left,
            right,
        } => Ok(where_pred(left, scope)?.or(where_pred(right, scope)?)),
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => Ok(where_pred(expr, scope)?.not()),
        Expr::Binary { op, left, right } if op.is_comparison() => {
            let cmp = match op {
                BinaryOp::Eq => CmpOp::Eq,
                BinaryOp::Neq => CmpOp::Neq,
                BinaryOp::Lt => CmpOp::Lt,
                BinaryOp::Le => CmpOp::Le,
                BinaryOp::Gt => CmpOp::Gt,
                BinaryOp::Ge => CmpOp::Ge,
                _ => unreachable!("is_comparison"),
            };
            Ok(Pred::Cmp {
                op: cmp,
                left: operand(left, scope)?,
                right: operand(right, scope)?,
            })
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let e_op = operand(expr, scope)?;
            let both = Pred::Cmp {
                op: CmpOp::Ge,
                left: e_op.clone(),
                right: operand(low, scope)?,
            }
            .and(Pred::Cmp {
                op: CmpOp::Le,
                left: e_op,
                right: operand(high, scope)?,
            });
            Ok(if *negated { both.not() } else { both })
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let e_op = operand(expr, scope)?;
            let mut disj = Pred::False;
            for item in list {
                disj = disj.or(Pred::Cmp {
                    op: CmpOp::Eq,
                    left: e_op.clone(),
                    right: operand(item, scope)?,
                });
            }
            Ok(if *negated { disj.not() } else { disj })
        }
        other => Err(SqlClassError::new(format!(
            "unsupported WHERE construct {other:?}: the class allows comparisons, \
             AND/OR/NOT, BETWEEN and IN over columns and constants"
        ))),
    }
}

fn operand(e: &Expr, scope: &FromScope) -> Result<Operand, SqlClassError> {
    match e {
        Expr::Column { qualifier, name } => {
            Ok(Operand::Col(scope.resolve(qualifier.as_deref(), name)?))
        }
        Expr::Literal(l) => Ok(Operand::Const(match l {
            Literal::Null => hippo_engine::Value::Null,
            Literal::Bool(b) => hippo_engine::Value::Bool(*b),
            Literal::Int(v) => hippo_engine::Value::Int(*v),
            Literal::Float(v) => hippo_engine::Value::Float(*v),
            Literal::Str(s) => hippo_engine::Value::Text(s.clone()),
        })),
        other => Err(SqlClassError::new(format!(
            "operands must be columns or constants, found {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hippo_engine::{Database, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE emp (name TEXT, salary INT)")
            .unwrap();
        db.execute("CREATE TABLE dept (head TEXT, budget INT)")
            .unwrap();
        db.execute("INSERT INTO emp VALUES ('ann', 100), ('ann', 200), ('bob', 300)")
            .unwrap();
        db.execute("INSERT INTO dept VALUES ('bob', 1000), ('ann', 500)")
            .unwrap();
        db
    }

    #[test]
    fn translates_select_star() {
        let db = db();
        let q = sjud_from_sql("SELECT * FROM emp", db.catalog()).unwrap();
        assert_eq!(q, SjudQuery::rel("emp"));
    }

    #[test]
    fn translates_selection() {
        let db = db();
        let q = sjud_from_sql("SELECT * FROM emp WHERE salary >= 150", db.catalog()).unwrap();
        let SjudQuery::Select { pred, .. } = q else {
            panic!()
        };
        assert!(pred.eval(&[Value::text("x"), Value::Int(200)]));
        assert!(!pred.eval(&[Value::text("x"), Value::Int(100)]));
    }

    #[test]
    fn translates_join_and_column_permutation() {
        let db = db();
        let q = sjud_from_sql(
            "SELECT d.budget, e.name, e.salary, d.head FROM emp e INNER JOIN dept d ON e.name = d.head",
            db.catalog(),
        )
        .unwrap();
        // product(emp, dept) with σ(c0 = c2) then permute [3,0,1,2]
        let SjudQuery::Permute { perm, .. } = &q else {
            panic!("{q:?}")
        };
        assert_eq!(perm, &vec![3, 0, 1, 2]);
        assert_eq!(q.validate(db.catalog()).unwrap(), 4);
    }

    #[test]
    fn translates_union_and_except() {
        let db = db();
        let q = sjud_from_sql(
            "SELECT * FROM emp WHERE salary < 150 UNION SELECT * FROM emp WHERE salary > 250",
            db.catalog(),
        )
        .unwrap();
        assert!(q.has_union());
        let q = sjud_from_sql(
            "SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE salary < 150",
            db.catalog(),
        )
        .unwrap();
        assert!(q.has_diff());
    }

    #[test]
    fn intersect_desugars_to_double_difference() {
        let db = db();
        let q = sjud_from_sql(
            "SELECT * FROM emp INTERSECT SELECT * FROM emp WHERE salary < 150",
            db.catalog(),
        )
        .unwrap();
        // A ∩ B = A − (A − B): verify semantically.
        let rows = q.eval_on_catalog(db.catalog()).unwrap();
        assert_eq!(rows, vec![vec![Value::text("ann"), Value::Int(100)]]);
    }

    #[test]
    fn where_between_and_in() {
        let db = db();
        let q = sjud_from_sql(
            "SELECT * FROM emp WHERE salary BETWEEN 100 AND 250 AND name IN ('ann', 'bob')",
            db.catalog(),
        )
        .unwrap();
        let rows = q.eval_on_catalog(db.catalog()).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn rejects_aggregates_and_order_by() {
        let db = db();
        let err = sjud_from_sql("SELECT COUNT(*) FROM emp", db.catalog()).unwrap_err();
        assert!(
            err.message.contains("plain columns") || err.message.contains("aggregation"),
            "{err}"
        );
        let err = sjud_from_sql(
            "SELECT name, salary FROM emp GROUP BY name, salary",
            db.catalog(),
        )
        .unwrap_err();
        assert!(err.message.contains("aggregation"), "{err}");
        let err = sjud_from_sql("SELECT * FROM emp ORDER BY salary", db.catalog()).unwrap_err();
        assert!(err.message.contains("ORDER BY"), "{err}");
    }

    #[test]
    fn rejects_projection_with_existentials() {
        let db = db();
        let err = sjud_from_sql("SELECT name FROM emp", db.catalog()).unwrap_err();
        assert!(err.message.contains("existential"), "{err}");
    }

    #[test]
    fn rejects_subqueries_and_outer_joins() {
        let db = db();
        let err = sjud_from_sql(
            "SELECT * FROM emp WHERE EXISTS (SELECT * FROM dept)",
            db.catalog(),
        )
        .unwrap_err();
        assert!(err.message.contains("unsupported WHERE construct"), "{err}");
        let err = sjud_from_sql(
            "SELECT * FROM emp e LEFT JOIN dept d ON e.name = d.head",
            db.catalog(),
        )
        .unwrap_err();
        assert!(err.message.contains("outer joins"), "{err}");
        let err = sjud_from_sql("SELECT * FROM (SELECT * FROM emp) s", db.catalog()).unwrap_err();
        assert!(err.message.contains("FROM subqueries"), "{err}");
    }

    #[test]
    fn rejects_union_all_and_non_select() {
        let db = db();
        let err = sjud_from_sql(
            "SELECT * FROM emp UNION ALL SELECT * FROM emp",
            db.catalog(),
        )
        .unwrap_err();
        assert!(err.message.contains("ALL"), "{err}");
        let err = sjud_from_sql("DELETE FROM emp", db.catalog()).unwrap_err();
        assert!(err.message.contains("SELECT"), "{err}");
    }
}
