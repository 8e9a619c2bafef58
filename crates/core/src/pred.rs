//! Quantifier-free predicates over positional tuples.
//!
//! Used both as selection conditions in SJUD queries and as the comparison
//! part of denial constraints. A predicate refers to columns by position,
//! so it can be evaluated directly on a row or rendered to SQL against
//! generated column names (`c0`, `c1`, ...).

use hippo_engine::Value;
use hippo_sql::{BinaryOp, Expr};
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
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
}

impl CmpOp {
    /// Evaluate against an ordering result.
    pub(crate) fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Neq => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The SQL binary operator.
    pub(crate) fn to_sql_op(self) -> BinaryOp {
        match self {
            CmpOp::Eq => BinaryOp::Eq,
            CmpOp::Neq => BinaryOp::Neq,
            CmpOp::Lt => BinaryOp::Lt,
            CmpOp::Le => BinaryOp::Le,
            CmpOp::Gt => BinaryOp::Gt,
            CmpOp::Ge => BinaryOp::Ge,
        }
    }

    /// Logical negation (`<` ↔ `>=`, etc.).
    pub(crate) fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Neq,
            CmpOp::Neq => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.to_sql_op().sql())
    }
}

/// One side of a comparison: a column position or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Column by position.
    Col(usize),
    /// Constant value.
    Const(Value),
}

impl Operand {
    fn value<'a>(&'a self, row: &'a [Value]) -> Option<&'a Value> {
        match self {
            Operand::Col(i) => row.get(*i),
            Operand::Const(v) => Some(v),
        }
    }

    fn max_col(&self) -> Option<usize> {
        match self {
            Operand::Col(i) => Some(*i),
            Operand::Const(_) => None,
        }
    }
}

/// A quantifier-free predicate over a positional row.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        left: Operand,
        /// Right operand.
        right: Operand,
    },
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// `col <op> const` shorthand.
    pub fn cmp_const(col: usize, op: CmpOp, v: impl Into<Value>) -> Pred {
        Pred::Cmp {
            op,
            left: Operand::Col(col),
            right: Operand::Const(v.into()),
        }
    }

    /// `col <op> col` shorthand.
    pub fn cmp_cols(l: usize, op: CmpOp, r: usize) -> Pred {
        Pred::Cmp {
            op,
            left: Operand::Col(l),
            right: Operand::Col(r),
        }
    }

    /// `a AND b`.
    pub fn and(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::True, x) | (x, Pred::True) => x,
            (Pred::False, _) | (_, Pred::False) => Pred::False,
            (a, b) => Pred::And(Box::new(a), Box::new(b)),
        }
    }

    /// `a OR b`.
    pub(crate) fn or(self, other: Pred) -> Pred {
        match (self, other) {
            (Pred::False, x) | (x, Pred::False) => x,
            (Pred::True, _) | (_, Pred::True) => Pred::True,
            (a, b) => Pred::Or(Box::new(a), Box::new(b)),
        }
    }

    /// `NOT a`.
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn not(self) -> Pred {
        match self {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            Pred::Cmp { op, left, right } => Pred::Cmp {
                op: op.negate(),
                left,
                right,
            },
            Pred::Not(inner) => *inner,
            p => Pred::Not(Box::new(p)),
        }
    }

    /// Conjunction of many predicates.
    pub(crate) fn conjoin(preds: impl IntoIterator<Item = Pred>) -> Pred {
        preds.into_iter().fold(Pred::True, Pred::and)
    }

    /// Evaluate on a row. SQL three-valued logic collapses to boolean here:
    /// comparisons involving `NULL` or incomparable types are *not
    /// satisfied* (and their negation via [`CmpOp::negate`] is not either).
    pub(crate) fn eval(&self, row: &[Value]) -> bool {
        match self {
            Pred::True => true,
            Pred::False => false,
            Pred::Cmp { op, left, right } => {
                let (Some(l), Some(r)) = (left.value(row), right.value(row)) else {
                    return false;
                };
                match l.sql_cmp(r) {
                    Some(ord) => op.test(ord),
                    None => false,
                }
            }
            Pred::And(a, b) => a.eval(row) && b.eval(row),
            Pred::Or(a, b) => a.eval(row) || b.eval(row),
            Pred::Not(p) => !p.eval(row),
        }
    }

    /// Remap column positions through `f`.
    pub(crate) fn map_cols(&self, f: &impl Fn(usize) -> usize) -> Pred {
        match self {
            Pred::True => Pred::True,
            Pred::False => Pred::False,
            Pred::Cmp { op, left, right } => {
                let m = |o: &Operand| match o {
                    Operand::Col(i) => Operand::Col(f(*i)),
                    c => c.clone(),
                };
                Pred::Cmp {
                    op: *op,
                    left: m(left),
                    right: m(right),
                }
            }
            Pred::And(a, b) => Pred::And(Box::new(a.map_cols(f)), Box::new(b.map_cols(f))),
            Pred::Or(a, b) => Pred::Or(Box::new(a.map_cols(f)), Box::new(b.map_cols(f))),
            Pred::Not(p) => Pred::Not(Box::new(p.map_cols(f))),
        }
    }

    /// Largest referenced column position.
    pub(crate) fn max_col(&self) -> Option<usize> {
        match self {
            Pred::True | Pred::False => None,
            Pred::Cmp { left, right, .. } => match (left.max_col(), right.max_col()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            Pred::And(a, b) | Pred::Or(a, b) => match (a.max_col(), b.max_col()) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            },
            Pred::Not(p) => p.max_col(),
        }
    }

    /// Render as a SQL expression over column names produced by `name`
    /// (e.g. `|i| format!("c{i}")` or a qualified form).
    pub(crate) fn to_sql_expr(&self, name: &impl Fn(usize) -> Expr) -> Expr {
        match self {
            Pred::True => Expr::int(1).eq(Expr::int(1)),
            Pred::False => Expr::int(1).eq(Expr::int(0)),
            Pred::Cmp { op, left, right } => {
                let render = |o: &Operand| match o {
                    Operand::Col(i) => name(*i),
                    Operand::Const(v) => value_to_sql(v),
                };
                Expr::Binary {
                    op: op.to_sql_op(),
                    left: Box::new(render(left)),
                    right: Box::new(render(right)),
                }
            }
            Pred::And(a, b) => a.to_sql_expr(name).and(b.to_sql_expr(name)),
            Pred::Or(a, b) => a.to_sql_expr(name).or(b.to_sql_expr(name)),
            Pred::Not(p) => p.to_sql_expr(name).not(),
        }
    }
}

/// Render a runtime value as a SQL literal expression.
pub fn value_to_sql(v: &Value) -> Expr {
    use hippo_sql::Literal;
    Expr::Literal(match v {
        Value::Null => Literal::Null,
        Value::Bool(b) => Literal::Bool(*b),
        Value::Int(i) => Literal::Int(*i),
        Value::Float(f) => Literal::Float(*f),
        Value::Text(s) => Literal::Str(s.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn comparisons_evaluate() {
        let p = Pred::cmp_cols(0, CmpOp::Lt, 1);
        assert!(p.eval(&row(&[1, 2])));
        assert!(!p.eval(&row(&[2, 1])));
        let p = Pred::cmp_const(0, CmpOp::Eq, 5i64);
        assert!(p.eval(&row(&[5])));
        assert!(!p.eval(&row(&[4])));
    }

    #[test]
    fn null_never_satisfies() {
        let p = Pred::cmp_const(0, CmpOp::Eq, 5i64);
        assert!(!p.eval(&[Value::Null]));
        let p = Pred::cmp_const(0, CmpOp::Neq, 5i64);
        assert!(
            !p.eval(&[Value::Null]),
            "negated comparison on NULL is also false"
        );
    }

    #[test]
    fn and_or_not() {
        let p = Pred::cmp_const(0, CmpOp::Gt, 0i64).and(Pred::cmp_const(0, CmpOp::Lt, 10i64));
        assert!(p.eval(&row(&[5])));
        assert!(!p.eval(&row(&[11])));
        let q = p.clone().not();
        assert!(q.eval(&row(&[11])));
        let r = Pred::cmp_const(0, CmpOp::Eq, 1i64).or(Pred::cmp_const(0, CmpOp::Eq, 2i64));
        assert!(r.eval(&row(&[2])));
        assert!(!r.eval(&row(&[3])));
    }

    #[test]
    fn smart_constructors_simplify() {
        assert_eq!(
            Pred::True.and(Pred::cmp_const(0, CmpOp::Eq, 1i64)),
            Pred::cmp_const(0, CmpOp::Eq, 1i64)
        );
        assert_eq!(Pred::False.and(Pred::True), Pred::False);
        assert_eq!(Pred::False.or(Pred::True), Pred::True);
        assert_eq!(Pred::True.not(), Pred::False);
        // NOT of a comparison flips the operator rather than wrapping.
        assert_eq!(
            Pred::cmp_cols(0, CmpOp::Lt, 1).not(),
            Pred::cmp_cols(0, CmpOp::Ge, 1)
        );
    }

    #[test]
    fn map_cols_and_max_col() {
        let p = Pred::cmp_cols(0, CmpOp::Eq, 2);
        assert_eq!(p.map_cols(&|i| i * 10), Pred::cmp_cols(0, CmpOp::Eq, 20));
        assert_eq!(p.max_col(), Some(2));
        assert_eq!(Pred::True.max_col(), None);
    }

    #[test]
    fn renders_to_sql() {
        let p = Pred::cmp_const(1, CmpOp::Ge, 100i64).and(Pred::cmp_cols(0, CmpOp::Neq, 2));
        let e = p.to_sql_expr(&|i| Expr::col(format!("c{i}")));
        let sql = hippo_sql::print_expr(&e);
        assert_eq!(sql, "((c1 >= 100) AND (c0 <> c2))");
    }

    #[test]
    fn conjoin_folds() {
        let p = Pred::conjoin(vec![
            Pred::cmp_const(0, CmpOp::Eq, 1i64),
            Pred::True,
            Pred::cmp_const(1, CmpOp::Eq, 2i64),
        ]);
        assert!(p.eval(&row(&[1, 2])));
        assert!(!p.eval(&row(&[1, 3])));
    }

    #[test]
    fn incomparable_types_unsatisfied() {
        let p = Pred::Cmp {
            op: CmpOp::Lt,
            left: Operand::Col(0),
            right: Operand::Const(Value::text("a")),
        };
        assert!(!p.eval(&[Value::Int(1)]));
    }
}
