//! Deterministic SQL rendering of AST nodes.
//!
//! The printer emits SQL in the Hippo dialect such that parsing the output
//! yields the same AST (modulo redundant parentheses, which the parser
//! discards). Hippo uses this to ship generated envelope queries to the
//! RDBMS as plain SQL text.

use crate::ast::*;
use std::fmt::Write as _;

/// Render a query to SQL text.
pub fn print_query(q: &Query) -> String {
    match q {
        Query::Select(core) => print_select_core(core),
        Query::SetOp {
            op,
            all,
            left,
            right,
        } => {
            format!(
                "{} {}{} {}",
                print_query_child(left),
                op,
                if *all { " ALL" } else { "" },
                print_query_child(right)
            )
        }
    }
}

/// Children of a set operation are parenthesised to preserve associativity
/// and precedence on re-parse.
fn print_query_child(q: &Query) -> String {
    match q {
        Query::Select(core) => print_select_core(core),
        Query::SetOp { .. } => format!("({})", print_query(q)),
    }
}

fn print_select_core(core: &SelectCore) -> String {
    let mut s = String::from("SELECT ");
    if core.distinct {
        s.push_str("DISTINCT ");
    }
    for (i, item) in core.projection.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => s.push('*'),
            SelectItem::QualifiedWildcard(q) => {
                let _ = write!(s, "{}.*", ident(q));
            }
            SelectItem::Expr { expr, alias } => {
                s.push_str(&print_expr(expr));
                if let Some(a) = alias {
                    let _ = write!(s, " AS {}", ident(a));
                }
            }
        }
    }
    if !core.from.is_empty() {
        s.push_str(" FROM ");
        for (i, tr) in core.from.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&print_table_ref(tr));
        }
    }
    if let Some(f) = &core.filter {
        let _ = write!(s, " WHERE {}", print_expr(f));
    }
    if !core.group_by.is_empty() {
        let _ = write!(
            s,
            " GROUP BY {}",
            core.group_by
                .iter()
                .map(print_expr)
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    if let Some(h) = &core.having {
        let _ = write!(s, " HAVING {}", print_expr(h));
    }
    if !core.order_by.is_empty() {
        s.push_str(" ORDER BY ");
        for (i, o) in core.order_by.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&print_expr(&o.expr));
            if o.desc {
                s.push_str(" DESC");
            }
        }
    }
    if let Some(l) = core.limit {
        let _ = write!(s, " LIMIT {l}");
    }
    if let Some(o) = core.offset {
        let _ = write!(s, " OFFSET {o}");
    }
    s
}

fn print_table_ref(tr: &TableRef) -> String {
    match tr {
        TableRef::Table { name, alias } => match alias {
            Some(a) => format!("{} AS {}", ident(name), ident(a)),
            None => ident(name),
        },
        TableRef::Subquery { query, alias } => {
            format!("({}) AS {}", print_query(query), ident(alias))
        }
        TableRef::Join {
            left,
            right,
            kind,
            on,
        } => {
            let kw = match kind {
                JoinKind::Inner => "INNER JOIN",
                JoinKind::Cross => "CROSS JOIN",
                JoinKind::Left => "LEFT JOIN",
            };
            let mut s = format!(
                "{} {} {}",
                print_table_ref(left),
                kw,
                print_join_side(right)
            );
            if let Some(c) = on {
                let _ = write!(s, " ON {}", print_expr(c));
            }
            s
        }
    }
}

/// The right side of a join must not itself swallow the following `ON`;
/// our grammar is left-recursive so nested joins on the right need parens.
/// Only table/subquery factors appear there in practice.
fn print_join_side(tr: &TableRef) -> String {
    match tr {
        TableRef::Join { .. } => format!("({})", print_table_ref(tr)),
        _ => print_table_ref(tr),
    }
}

/// Render an expression to SQL text (fully parenthesised where needed).
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Literal(l) => print_literal(l),
        Expr::Column { qualifier, name } => match qualifier {
            Some(q) => format!("{}.{}", ident(q), ident(name)),
            None => ident(name),
        },
        Expr::Binary { op, left, right } => {
            format!("({} {} {})", print_expr(left), op.sql(), print_expr(right))
        }
        Expr::Unary { op, expr } => match op {
            UnaryOp::Not => format!("(NOT {})", print_expr(expr)),
            UnaryOp::Neg => format!("(- {})", print_expr(expr)),
        },
        Expr::IsNull { expr, negated } => {
            format!(
                "({} IS{} NULL)",
                print_expr(expr),
                if *negated { " NOT" } else { "" }
            )
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => format!(
            "({} {}BETWEEN {} AND {})",
            print_expr(expr),
            if *negated { "NOT " } else { "" },
            print_expr(low),
            print_expr(high)
        ),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => format!(
            "({} {}LIKE {})",
            print_expr(expr),
            if *negated { "NOT " } else { "" },
            print_expr(pattern)
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => format!(
            "({} {}IN ({}))",
            print_expr(expr),
            if *negated { "NOT " } else { "" },
            list.iter().map(print_expr).collect::<Vec<_>>().join(", ")
        ),
        Expr::InSubquery {
            expr,
            query,
            negated,
        } => format!(
            "({} {}IN ({}))",
            print_expr(expr),
            if *negated { "NOT " } else { "" },
            print_query(query)
        ),
        Expr::Exists { query, negated } => format!(
            "({}EXISTS ({}))",
            if *negated { "NOT " } else { "" },
            print_query(query)
        ),
        Expr::ScalarSubquery(query) => format!("({})", print_query(query)),
        Expr::Function {
            name,
            args,
            star,
            distinct,
        } => {
            if *star {
                format!("{}(*)", name.to_ascii_uppercase())
            } else {
                format!(
                    "{}({}{})",
                    name.to_ascii_uppercase(),
                    if *distinct { "DISTINCT " } else { "" },
                    args.iter().map(print_expr).collect::<Vec<_>>().join(", ")
                )
            }
        }
        Expr::Case {
            branches,
            else_value,
        } => {
            let mut s = String::from("CASE");
            for (c, v) in branches {
                let _ = write!(s, " WHEN {} THEN {}", print_expr(c), print_expr(v));
            }
            if let Some(ev) = else_value {
                let _ = write!(s, " ELSE {}", print_expr(ev));
            }
            s.push_str(" END");
            s
        }
    }
}

fn print_literal(l: &Literal) -> String {
    match l {
        Literal::Null => "NULL".to_string(),
        Literal::Bool(true) => "TRUE".to_string(),
        Literal::Bool(false) => "FALSE".to_string(),
        Literal::Int(v) => v.to_string(),
        Literal::Float(v) => {
            // Keep re-parseability: always include a decimal point or exponent.
            let s = format!("{v}");
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Literal::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// Quote an identifier when needed: anything that isn't a plain lower-case
/// word must be double-quoted to survive a round trip.
fn ident(name: &str) -> String {
    let plain = !name.is_empty()
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        && crate::token::Keyword::from_upper(&name.to_ascii_uppercase()).is_none();
    if plain {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_query};

    fn roundtrip_query(sql: &str) {
        let q1 = parse_query(sql).unwrap();
        let printed = print_query(&q1);
        let q2 = parse_query(&printed).unwrap_or_else(|e| panic!("reparse of {printed:?}: {e}"));
        assert_eq!(q1, q2, "round trip failed for {sql:?} -> {printed:?}");
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip_query("SELECT a, b FROM t WHERE a = 1");
        roundtrip_query("SELECT DISTINCT * FROM t ORDER BY a DESC LIMIT 3 OFFSET 1");
        roundtrip_query("SELECT t.* FROM t");
    }

    #[test]
    fn roundtrip_setops() {
        roundtrip_query("SELECT a FROM t UNION SELECT a FROM u");
        roundtrip_query("SELECT a FROM t UNION ALL SELECT a FROM u EXCEPT SELECT a FROM v");
        roundtrip_query("(SELECT a FROM t EXCEPT SELECT a FROM u) INTERSECT SELECT a FROM v");
    }

    #[test]
    fn roundtrip_joins_and_subqueries() {
        roundtrip_query("SELECT * FROM a INNER JOIN b ON a.x = b.x CROSS JOIN c");
        roundtrip_query("SELECT * FROM (SELECT a FROM t) AS s WHERE s.a > 0");
        roundtrip_query(
            "SELECT * FROM emp e WHERE NOT EXISTS (SELECT * FROM emp f WHERE f.name = e.name AND f.salary <> e.salary)",
        );
        roundtrip_query("SELECT * FROM t WHERE t.a IN (SELECT b FROM u)");
    }

    #[test]
    fn roundtrip_expressions() {
        roundtrip_query("SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t");
        roundtrip_query(
            "SELECT COUNT(*), SUM(a), COUNT(DISTINCT b) FROM t GROUP BY c HAVING COUNT(*) > 1",
        );
        roundtrip_query(
            "SELECT a FROM t WHERE a BETWEEN 1 AND 2 OR b NOT LIKE 'x%' AND c IS NOT NULL",
        );
        roundtrip_query("SELECT -a, -1, 2.5, 'it''s', NULL, TRUE FROM t WHERE a % 2 = 0");
    }

    #[test]
    fn quoted_identifiers_survive() {
        roundtrip_query("SELECT \"Mixed Case\" FROM \"Weird Table\"");
        // A keyword used as an identifier must come out quoted.
        let q = parse_query("SELECT \"select\" FROM t").unwrap();
        let printed = print_query(&q);
        assert!(printed.contains("\"select\""), "{printed}");
        roundtrip_query("SELECT \"select\" FROM t");
    }

    #[test]
    fn float_literals_reparse_as_floats() {
        let e = parse_expr(&print_expr(&Expr::Literal(Literal::Float(3.0)))).unwrap();
        assert_eq!(e, Expr::Literal(Literal::Float(3.0)));
    }

    #[test]
    fn string_escaping() {
        let e = Expr::Literal(Literal::Str("a'b".into()));
        assert_eq!(print_expr(&e), "'a''b'");
        assert_eq!(parse_expr("'a''b'").unwrap(), e);
    }
}
