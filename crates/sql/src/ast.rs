//! Abstract syntax tree for the Hippo SQL dialect.
//!
//! The tree is deliberately close to textbook SQL: a [`Query`] is a tree of
//! set operations over [`SelectCore`] blocks, expressions are a single
//! [`Expr`] enum. Identifier case: unquoted identifiers are normalised to
//! lower case by the parser; quoted identifiers keep their spelling.

use std::fmt;

/// A fully parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col type, ..., PRIMARY KEY (...))`
    CreateTable(CreateTable),
    /// `CREATE INDEX [IF NOT EXISTS] name ON table (col, ...)`
    CreateIndex(CreateIndex),
    /// `DROP TABLE [IF EXISTS] name`
    DropTable {
        /// Table to drop.
        name: String,
        /// Do not error when the table is missing.
        if_exists: bool,
    },
    /// `INSERT INTO name [(cols)] VALUES (...), (...)` or `INSERT INTO name query`
    Insert(Insert),
    /// `DELETE FROM name [WHERE cond]`
    Delete {
        /// Target table.
        table: String,
        /// Optional filter; `None` deletes everything.
        filter: Option<Expr>,
    },
    /// `UPDATE name SET col = expr, ... [WHERE cond]`
    Update {
        /// Target table.
        table: String,
        /// `(column, new value)` pairs.
        assignments: Vec<(String, Expr)>,
        /// Optional filter.
        filter: Option<Expr>,
    },
    /// Any query (`SELECT ...` possibly under set operations).
    Select(Query),
    /// `EXPLAIN query` — render the execution plan instead of running
    /// the query.
    Explain(Query),
}

/// `CREATE INDEX` definition: a named secondary hash index over a fixed
/// column set. The engine's optimizer rewrites equality predicates on
/// the indexed columns into `IndexLookup` access paths.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    /// Index name (normalised; unique within the target table).
    pub name: String,
    /// Table the index is built over.
    pub table: String,
    /// Indexed column names, in index-key order.
    pub columns: Vec<String>,
    /// `IF NOT EXISTS` was given.
    pub if_not_exists: bool,
}

/// `CREATE TABLE` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    /// Table name (normalised).
    pub name: String,
    /// Column definitions in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Optional primary key column names.
    pub primary_key: Vec<String>,
    /// `IF NOT EXISTS` was given.
    pub if_not_exists: bool,
}

/// One column in a `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name (normalised).
    pub name: String,
    /// Declared type.
    pub ty: TypeName,
    /// `NOT NULL` was given.
    pub not_null: bool,
}

/// SQL type names supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeName {
    /// 64-bit signed integer (`INT`, `INTEGER`, `BIGINT`).
    Int,
    /// 64-bit float (`REAL`, `DOUBLE PRECISION`).
    Float,
    /// UTF-8 string (`TEXT`, `VARCHAR[(n)]` — length is ignored).
    Text,
    /// Boolean.
    Bool,
}

impl fmt::Display for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeName::Int => write!(f, "BIGINT"),
            TypeName::Float => write!(f, "DOUBLE PRECISION"),
            TypeName::Text => write!(f, "TEXT"),
            TypeName::Bool => write!(f, "BOOLEAN"),
        }
    }
}

/// `INSERT` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Explicit column list (empty = table order).
    pub columns: Vec<String>,
    /// Data source.
    pub source: InsertSource,
}

/// The data fed into an `INSERT`.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (...), (...)`
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO t SELECT ...`
    Query(Box<Query>),
}

/// A query: a tree of set operations whose leaves are `SELECT` blocks.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A plain `SELECT` block.
    Select(Box<SelectCore>),
    /// `left op right`, e.g. `q1 UNION q2`.
    SetOp {
        /// Set operator.
        op: SetOp,
        /// `ALL` keeps duplicates (bag semantics).
        all: bool,
        /// Left input.
        left: Box<Query>,
        /// Right input.
        right: Box<Query>,
    },
}

/// Set operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `UNION`
    Union,
    /// `EXCEPT`
    Except,
    /// `INTERSECT`
    Intersect,
}

impl fmt::Display for SetOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetOp::Union => write!(f, "UNION"),
            SetOp::Except => write!(f, "EXCEPT"),
            SetOp::Intersect => write!(f, "INTERSECT"),
        }
    }
}

/// One `SELECT ... FROM ... WHERE ... GROUP BY ... HAVING ... ORDER BY ... LIMIT`
/// block.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectCore {
    /// `DISTINCT` was given.
    pub distinct: bool,
    /// Projection list.
    pub projection: Vec<SelectItem>,
    /// `FROM` items, implicitly cross-joined when more than one.
    pub from: Vec<TableRef>,
    /// `WHERE` predicate.
    pub filter: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
    /// `ORDER BY` items.
    pub order_by: Vec<OrderItem>,
    /// `LIMIT n`.
    pub limit: Option<u64>,
    /// `OFFSET n`.
    pub offset: Option<u64>,
}

impl SelectCore {
    /// An empty `SELECT` block to be filled in (used by builders/tests).
    pub fn empty() -> Self {
        SelectCore {
            distinct: false,
            projection: Vec::new(),
            from: Vec::new(),
            filter: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional output name.
        alias: Option<String>,
    },
}

/// A `FROM`-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table with optional alias.
    Table {
        /// Table name (normalised).
        name: String,
        /// Optional alias (normalised).
        alias: Option<String>,
    },
    /// Parenthesised subquery with mandatory alias.
    Subquery {
        /// The inner query.
        query: Box<Query>,
        /// Alias binding the subquery's columns.
        alias: String,
    },
    /// `left [INNER|CROSS] JOIN right [ON cond]`
    Join {
        /// Left input.
        left: Box<TableRef>,
        /// Right input.
        right: Box<TableRef>,
        /// Join kind.
        kind: JoinKind,
        /// `ON` condition (`None` for `CROSS JOIN`).
        on: Option<Expr>,
    },
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `INNER JOIN ... ON`
    Inner,
    /// `CROSS JOIN`
    Cross,
    /// `LEFT [OUTER] JOIN ... ON`
    Left,
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    /// Sort expression.
    pub expr: Expr,
    /// Ascending (default) or descending.
    pub desc: bool,
}

/// Scalar / boolean expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Literal),
    /// Possibly-qualified column reference: `col` or `alias.col`.
    Column {
        /// Optional qualifier (table name or alias, normalised).
        qualifier: Option<String>,
        /// Column name (normalised).
        name: String,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation (`NOT x`, `-x`).
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// `true` for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        low: Box<Expr>,
        /// Upper bound (inclusive).
        high: Box<Expr>,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern` (with `%` and `_`).
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression.
        pattern: Box<Expr>,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] IN (subquery)`.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery (must produce one column).
        query: Box<Query>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// The subquery.
        query: Box<Query>,
        /// `NOT EXISTS`.
        negated: bool,
    },
    /// Scalar subquery `(SELECT ...)` producing a single value.
    ScalarSubquery(Box<Query>),
    /// Function call, e.g. `COUNT(*)`, `ABS(x)`.
    Function {
        /// Function name (normalised to lower case).
        name: String,
        /// Arguments; `COUNT(*)` is encoded with `star = true` and no args.
        args: Vec<Expr>,
        /// `f(*)` form.
        star: bool,
        /// `f(DISTINCT x)` form.
        distinct: bool,
    },
    /// `CASE WHEN c THEN v ... [ELSE e] END`.
    Case {
        /// `(condition, value)` branches.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` value.
        else_value: Option<Box<Expr>>,
    },
}

impl Expr {
    /// Column reference without qualifier.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Qualified column reference.
    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Int(v))
    }

    /// String literal.
    #[cfg(test)]
    fn str(v: impl Into<String>) -> Expr {
        Expr::Literal(Literal::Str(v.into()))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinaryOp::And,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinaryOp::Or,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(self),
        }
    }

    /// Fold a list of conjuncts into one `AND` chain; `None` when empty.
    pub fn conjoin(conjuncts: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        conjuncts.into_iter().reduce(Expr::and)
    }
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// `NULL`
    Null,
    /// `TRUE`/`FALSE`
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(String),
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `||`
    Concat,
}

impl BinaryOp {
    /// SQL spelling of the operator.
    pub fn sql(self) -> &'static str {
        match self {
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
            BinaryOp::Eq => "=",
            BinaryOp::Neq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Concat => "||",
        }
    }

    /// Is this a comparison operator (returns boolean)?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::Neq
                | BinaryOp::Lt
                | BinaryOp::Le
                | BinaryOp::Gt
                | BinaryOp::Ge
        )
    }

    /// For `a op b`, the operator in `b op' a` with the same meaning.
    pub fn flip(self) -> Option<BinaryOp> {
        Some(match self {
            BinaryOp::Eq => BinaryOp::Eq,
            BinaryOp::Neq => BinaryOp::Neq,
            BinaryOp::Lt => BinaryOp::Gt,
            BinaryOp::Le => BinaryOp::Ge,
            BinaryOp::Gt => BinaryOp::Lt,
            BinaryOp::Ge => BinaryOp::Le,
            _ => return None,
        })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Boolean negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders_compose() {
        let e = Expr::col("a")
            .eq(Expr::int(1))
            .and(Expr::qcol("t", "b").eq(Expr::str("x")));
        match e {
            Expr::Binary {
                op: BinaryOp::And, ..
            } => {}
            other => panic!("expected AND, got {other:?}"),
        }
    }

    #[test]
    fn conjoin_of_empty_is_none() {
        assert_eq!(Expr::conjoin(Vec::new()), None);
    }

    #[test]
    fn conjoin_of_single_is_identity() {
        let e = Expr::col("a");
        assert_eq!(Expr::conjoin([e.clone()]), Some(e));
    }

    #[test]
    fn comparison_flip() {
        assert_eq!(BinaryOp::Lt.flip(), Some(BinaryOp::Gt));
        assert_eq!(BinaryOp::Add.flip(), None);
        assert!(BinaryOp::Eq.is_comparison());
        assert!(!BinaryOp::Concat.is_comparison());
    }
}
