//! The query-rewriting baseline (Arenas–Bertossi–Chomicki, PODS 1999).
//!
//! The first practical CQA technique rewrites the input query `Q` into a
//! query `Q'` such that evaluating `Q'` over the inconsistent instance
//! yields the consistent answers directly. Each positive relation leaf is
//! augmented with **residues** derived from the constraints: a tuple
//! qualifies only if no other tuples witness a violation with it (rendered
//! as `NOT EXISTS` subqueries).
//!
//! The method's scope is what the Hippo paper states: **SJD queries with
//! binary universal constraints** — and no union. This module faithfully
//! reproduces those limits and returns [`RewriteError::Unsupported`]
//! outside them; the expressiveness comparison of demo part 2 (experiment
//! D2) and the running-time comparison of part 3 (E1–E3) are driven by
//! this implementation.
//!
//! Soundness/completeness note: with one residue round the rewriting is
//! exact for constraint sets whose conflict graphs have no singleton edges
//! (FDs and cross-relation exclusion constraints qualify: every tuple then
//! belongs to at least one repair). CHECK-style single-atom denials make a
//! tuple belong to *no* repair; their residue is the negated condition on
//! the tuple itself, which remains exact. Mixing them with binary
//! constraints over the *same* relation can require iterated residues,
//! which the classical method does not perform — those inputs are rejected
//! as unsupported.

use crate::constraint::DenialConstraint;
use crate::query::SjudQuery;
use hippo_engine::{Catalog, EngineError, Row};
use hippo_sql::{Expr, Query, SelectCore, SelectItem, SetOp, TableRef};
use std::fmt;

/// Why a query/constraint combination cannot be rewritten.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The combination falls outside the rewriting method's class.
    Unsupported(String),
    /// Engine-level failure (missing table etc.).
    Engine(String),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Unsupported(m) => write!(f, "query rewriting unsupported: {m}"),
            RewriteError::Engine(m) => write!(f, "query rewriting failed: {m}"),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<EngineError> for RewriteError {
    fn from(e: EngineError) -> Self {
        RewriteError::Engine(e.message)
    }
}

/// Rewrite `q` under `constraints` into a SQL query computing the
/// consistent answers.
pub fn rewrite_query(
    q: &SjudQuery,
    constraints: &[DenialConstraint],
    catalog: &Catalog,
) -> Result<Query, RewriteError> {
    q.validate(catalog)?;
    check_constraints(constraints)?;
    if q.has_union() {
        return Err(RewriteError::Unsupported(
            "union queries are outside the SJD class the rewriting handles".into(),
        ));
    }
    render(q, constraints, catalog)
}

/// Rewrite and evaluate; returns sorted distinct rows.
pub fn rewritten_answers(
    q: &SjudQuery,
    constraints: &[DenialConstraint],
    db: &hippo_engine::Database,
) -> Result<Vec<Row>, RewriteError> {
    let sql_q = rewrite_query(q, constraints, db.catalog())?;
    let sql = hippo_sql::print_query(&sql_q);
    let mut rows = db.query(&sql)?.rows;
    rows.sort();
    rows.dedup();
    Ok(rows)
}

fn check_constraints(constraints: &[DenialConstraint]) -> Result<(), RewriteError> {
    let mut unary_rels: Vec<&str> = Vec::new();
    let mut binary_rels: Vec<&str> = Vec::new();
    for c in constraints {
        if !c.is_binary() {
            return Err(RewriteError::Unsupported(format!(
                "constraint {:?} has {} atoms; the rewriting handles binary constraints only",
                c.name,
                c.atoms.len()
            )));
        }
        if c.atoms.len() == 1 {
            unary_rels.push(&c.atoms[0]);
        } else {
            binary_rels.extend(c.atoms.iter().map(String::as_str));
        }
    }
    // Iterated residues would be needed when a relation carries both a
    // CHECK denial and a binary constraint; reject (see module docs).
    for r in &unary_rels {
        if binary_rels.contains(r) {
            return Err(RewriteError::Unsupported(format!(
                "relation {r:?} mixes unary and binary constraints; one-round residues are \
                 incomplete here"
            )));
        }
    }
    Ok(())
}

fn render(
    q: &SjudQuery,
    constraints: &[DenialConstraint],
    catalog: &Catalog,
) -> Result<Query, RewriteError> {
    match q {
        SjudQuery::Rel(rel) => rewritten_leaf(rel, constraints, catalog),
        SjudQuery::Select { input, pred } => {
            let inner = render(input, constraints, catalog)?;
            let mut core = SelectCore::empty();
            core.projection = vec![SelectItem::Wildcard];
            core.from = vec![TableRef::Subquery {
                query: Box::new(inner),
                alias: "s".into(),
            }];
            core.filter = Some(pred.to_sql_expr(&|i| Expr::qcol("s", format!("c{i}"))));
            Ok(Query::Select(Box::new(core)))
        }
        SjudQuery::Product(l, r) => {
            let la = l.validate(catalog)?;
            let ra = r.validate(catalog)?;
            let lq = render(l, constraints, catalog)?;
            let rq = render(r, constraints, catalog)?;
            let mut core = SelectCore::empty();
            core.projection = (0..la)
                .map(|i| SelectItem::Expr {
                    expr: Expr::qcol("a", format!("c{i}")),
                    alias: Some(format!("c{i}")),
                })
                .chain((0..ra).map(|i| SelectItem::Expr {
                    expr: Expr::qcol("b", format!("c{i}")),
                    alias: Some(format!("c{}", la + i)),
                }))
                .collect();
            core.from = vec![
                TableRef::Subquery {
                    query: Box::new(lq),
                    alias: "a".into(),
                },
                TableRef::Subquery {
                    query: Box::new(rq),
                    alias: "b".into(),
                },
            ];
            Ok(Query::Select(Box::new(core)))
        }
        SjudQuery::Union(_, _) => Err(RewriteError::Unsupported(
            "union queries are outside the SJD class the rewriting handles".into(),
        )),
        SjudQuery::Diff(l, r) => {
            // ∀D′: t ∈ (E1−E2)(D′) ⟺ (∀D′ t ∈ E1(D′)) ∧ (∀D′ t ∉ E2(D′)).
            // Under constraint sets without unavoidable deletions (checked
            // in `check_constraints`), every tuple of D is in some repair,
            // so "t ∉ E2(D′) for all D′" for a monotone SJ branch reduces
            // to t ∉ env(E2)(D). Differences nested on the right would need
            // certain-absence reasoning beyond residues — unsupported.
            if r.has_diff() {
                return Err(RewriteError::Unsupported(
                    "nested difference on the subtrahend side is beyond one-round residues".into(),
                ));
            }
            let lq = render(l, constraints, catalog)?;
            let renv = crate::envelope::envelope(r);
            let rq = renv.to_sql_query(catalog)?;
            Ok(Query::SetOp {
                op: SetOp::Except,
                all: false,
                left: Box::new(lq),
                right: Box::new(rq),
            })
        }
        SjudQuery::Permute { input, perm } => {
            let inner = render(input, constraints, catalog)?;
            let mut core = SelectCore::empty();
            core.distinct = true;
            core.projection = perm
                .iter()
                .enumerate()
                .map(|(i, &p)| SelectItem::Expr {
                    expr: Expr::qcol("s", format!("c{p}")),
                    alias: Some(format!("c{i}")),
                })
                .collect();
            core.from = vec![TableRef::Subquery {
                query: Box::new(inner),
                alias: "s".into(),
            }];
            Ok(Query::Select(Box::new(core)))
        }
    }
}

/// A relation leaf with residues: `SELECT DISTINCT cols FROM rel t0 WHERE
/// <residue for every constraint atom matching rel>`.
fn rewritten_leaf(
    rel: &str,
    constraints: &[DenialConstraint],
    catalog: &Catalog,
) -> Result<Query, RewriteError> {
    let schema = &catalog.table(rel)?.schema;
    let mut core = SelectCore::empty();
    core.distinct = true;
    core.projection = schema
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| SelectItem::Expr {
            expr: Expr::qcol("t0", c.name.clone()),
            alias: Some(format!("c{i}")),
        })
        .collect();
    core.from = vec![TableRef::Table {
        name: rel.to_string(),
        alias: Some("t0".into()),
    }];

    let mut residues: Vec<Expr> = Vec::new();
    for c in constraints {
        for (atom_idx, atom_rel) in c.atoms.iter().enumerate() {
            if atom_rel != rel {
                continue;
            }
            residues.push(residue_for_atom(c, atom_idx, catalog)?);
        }
    }
    core.filter = Expr::conjoin(residues);
    Ok(Query::Select(Box::new(core)))
}

/// The residue of a constraint for one of its atoms: the tuple bound to
/// that atom must not complete a violation.
///
/// * unary constraint `¬(R(t) ∧ φ(t))` → residue `¬φ(t0)`;
/// * binary constraint `¬(R(t) ∧ S(u) ∧ φ(t,u))` → residue
///   `NOT EXISTS (SELECT * FROM S t1 WHERE φ(t0, t1))`, excluding the
///   degenerate match of the same physical tuple when `R = S` (an FD's
///   inequality already excludes it; exclusion constraints within one
///   relation genuinely forbid the tuple itself, so no exclusion applies).
fn residue_for_atom(
    c: &DenialConstraint,
    atom_idx: usize,
    catalog: &Catalog,
) -> Result<Expr, RewriteError> {
    let arities: Vec<usize> = c
        .atoms
        .iter()
        .map(|r| Ok::<usize, EngineError>(catalog.table(r)?.schema.arity()))
        .collect::<Result<_, _>>()?;
    let cond = c.condition_as_pred(&arities);
    if c.atoms.len() == 1 {
        // Bound tuple must falsify the condition.
        let schema = &catalog.table(&c.atoms[0])?.schema;
        let name = |i: usize| Expr::qcol("t0", schema.columns[i].name.clone());
        return Ok(cond.not().to_sql_expr(&name));
    }
    // Binary: other atom index.
    let other_idx = 1 - atom_idx;
    let other_rel = &c.atoms[other_idx];
    let this_schema = &catalog.table(&c.atoms[atom_idx])?.schema;
    let other_schema = &catalog.table(other_rel)?.schema;
    // Combined offsets: atom0 columns first. Map offsets to (t0|t1, name).
    let offset0 = 0usize;
    let offset1 = arities[0];
    let name = |i: usize| -> Expr {
        let (atom, col) = if i < offset1 {
            (0, i - offset0)
        } else {
            (1, i - offset1)
        };
        let (alias, schema) = if atom == atom_idx {
            ("t0", this_schema)
        } else {
            ("t1", other_schema)
        };
        Expr::qcol(alias, schema.columns[col].name.clone())
    };
    let mut sub = SelectCore::empty();
    sub.projection = vec![SelectItem::Wildcard];
    sub.from = vec![TableRef::Table {
        name: other_rel.clone(),
        alias: Some("t1".into()),
    }];
    sub.filter = Some(cond.to_sql_expr(&name));
    Ok(Expr::Exists {
        query: Box::new(Query::Select(Box::new(sub))),
        negated: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_conflicts;
    use crate::naive::naive_consistent_answers;
    use crate::pred::{CmpOp, Pred};
    use hippo_engine::{Column, DataType, Database, TableSchema, Value};

    fn emp_db(rows: &[(&str, i64)]) -> Database {
        let mut db = Database::new();
        db.catalog_mut()
            .create_table(
                TableSchema::new(
                    "emp",
                    vec![
                        Column::new("name", DataType::Text),
                        Column::new("salary", DataType::Int),
                    ],
                    &[],
                )
                .unwrap(),
            )
            .unwrap();
        db.insert_rows(
            "emp",
            rows.iter()
                .map(|&(n, s)| vec![Value::text(n), Value::Int(s)])
                .collect(),
        )
        .unwrap();
        db
    }

    fn fd() -> Vec<DenialConstraint> {
        vec![DenialConstraint::functional_dependency("emp", &[0], 1)]
    }

    #[test]
    fn rewriting_matches_ground_truth_on_relation_query() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
        let (g, _) = detect_conflicts(db.catalog(), &fd()).unwrap();
        let q = SjudQuery::rel("emp");
        let rewritten = rewritten_answers(&q, &fd(), &db).unwrap();
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        assert_eq!(rewritten, truth);
    }

    #[test]
    fn rewriting_matches_ground_truth_with_selection() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300), ("cyd", 10)]);
        let (g, _) = detect_conflicts(db.catalog(), &fd()).unwrap();
        let q = SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 50i64));
        let rewritten = rewritten_answers(&q, &fd(), &db).unwrap();
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        assert_eq!(rewritten, truth);
    }

    #[test]
    fn rewriting_matches_ground_truth_on_join() {
        let mut db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
        db.catalog_mut()
            .create_table(
                TableSchema::new(
                    "dept",
                    vec![
                        Column::new("dname", DataType::Text),
                        Column::new("head", DataType::Text),
                    ],
                    &[],
                )
                .unwrap(),
            )
            .unwrap();
        db.insert_rows(
            "dept",
            vec![
                vec![Value::text("cs"), Value::text("ann")],
                vec![Value::text("ee"), Value::text("bob")],
            ],
        )
        .unwrap();
        let constraints = fd();
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        // join emp and dept on head = name
        let q = SjudQuery::rel("emp")
            .product(SjudQuery::rel("dept"))
            .select(Pred::cmp_cols(0, CmpOp::Eq, 3));
        let rewritten = rewritten_answers(&q, &constraints, &db).unwrap();
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        assert_eq!(rewritten, truth);
    }

    #[test]
    fn rewriting_matches_ground_truth_with_exclusion_constraint() {
        let mut db = emp_db(&[("ann", 100), ("bob", 200)]);
        db.catalog_mut()
            .create_table(
                TableSchema::new(
                    "banned",
                    vec![
                        Column::new("name", DataType::Text),
                        Column::new("x", DataType::Int),
                    ],
                    &[],
                )
                .unwrap(),
            )
            .unwrap();
        db.insert_rows("banned", vec![vec![Value::text("ann"), Value::Int(0)]])
            .unwrap();
        let constraints = vec![DenialConstraint::exclusion("emp", "banned", &[(0, 0)])];
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        let q = SjudQuery::rel("emp");
        let rewritten = rewritten_answers(&q, &constraints, &db).unwrap();
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        assert_eq!(
            rewritten, truth,
            "ann conflicts with a banned row in both directions"
        );
    }

    #[test]
    fn rewriting_matches_ground_truth_on_difference() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300), ("cyd", 10)]);
        let (g, _) = detect_conflicts(db.catalog(), &fd()).unwrap();
        let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
            1,
            CmpOp::Lt,
            50i64,
        )));
        let rewritten = rewritten_answers(&q, &fd(), &db).unwrap();
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        assert_eq!(rewritten, truth);
    }

    #[test]
    fn union_is_unsupported() {
        let db = emp_db(&[("ann", 100)]);
        let q = SjudQuery::rel("emp").union(SjudQuery::rel("emp"));
        let err = rewrite_query(&q, &fd(), db.catalog()).unwrap_err();
        assert!(matches!(err, RewriteError::Unsupported(_)));
    }

    #[test]
    fn ternary_constraints_unsupported() {
        let db = emp_db(&[("ann", 100)]);
        let c = DenialConstraint::new(
            "ternary",
            vec!["emp".into(), "emp".into(), "emp".into()],
            vec![],
        );
        let err = rewrite_query(&SjudQuery::rel("emp"), &[c], db.catalog()).unwrap_err();
        assert!(matches!(err, RewriteError::Unsupported(_)));
    }

    #[test]
    fn nested_difference_unsupported() {
        let db = emp_db(&[("ann", 100)]);
        let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").diff(SjudQuery::rel("emp")));
        let err = rewrite_query(&q, &fd(), db.catalog()).unwrap_err();
        assert!(matches!(err, RewriteError::Unsupported(_)));
    }

    #[test]
    fn rewritten_sql_uses_not_exists() {
        let db = emp_db(&[("ann", 100)]);
        let sql = hippo_sql::print_query(
            &rewrite_query(&SjudQuery::rel("emp"), &fd(), db.catalog()).unwrap(),
        );
        assert!(sql.contains("NOT EXISTS"), "{sql}");
    }

    #[test]
    fn check_constraint_alone_is_supported_and_exact() {
        use crate::constraint::{AttrRef, Comparison, Term};
        let db = emp_db(&[("ann", -5), ("bob", 10)]);
        let chk = vec![DenialConstraint::check(
            "emp",
            vec![Comparison {
                op: CmpOp::Lt,
                left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                right: Term::Const(Value::Int(0)),
            }],
        )];
        let (g, _) = detect_conflicts(db.catalog(), &chk).unwrap();
        let q = SjudQuery::rel("emp");
        let rewritten = rewritten_answers(&q, &chk, &db).unwrap();
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        assert_eq!(rewritten, truth);
    }

    #[test]
    fn mixed_unary_binary_on_same_relation_rejected() {
        use crate::constraint::{AttrRef, Comparison, Term};
        let chk = DenialConstraint::check(
            "emp",
            vec![Comparison {
                op: CmpOp::Lt,
                left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                right: Term::Const(Value::Int(0)),
            }],
        );
        let mut cs = fd();
        cs.push(chk);
        let db = emp_db(&[("ann", 100)]);
        assert!(rewrite_query(&SjudQuery::rel("emp"), &cs, db.catalog()).is_err());
    }
}
