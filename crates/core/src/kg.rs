//! Knowledge gathering: the extended-envelope optimization.
//!
//! The paper's base system resolves every literal `fact ∈ D?` with a
//! separate membership query against the RDBMS — the cost it
//! identifies as dominant. Knowledge gathering rewrites the envelope
//! query so the *same single evaluation* also returns, per candidate
//! tuple, the truth of every membership the prover could ask. The
//! prover then issues **zero** queries against the database.
//!
//! Most literals need no column at all. A literal is *witnessed*
//! ([`MembershipTemplate::witnessed`]) when every envelope row was read
//! from its relation at its columns — a relation leaf, a factor of a
//! product, a literal both branches of a union read, the left side of a
//! difference. The row itself then shows the fact is present, unless
//! one of its values is `NULL`: a `NULL` fact is never a member, just as
//! a `NULL` key matches nothing in a mark join. Only the other literals
//! — a subtracted relation, a relation only one branch of a union
//! reads — get one boolean column (`EXISTS (SELECT … FROM rel WHERE
//! …)`). The engine's access-path selection plans each such flag as
//! one [`hippo_engine::Plan::MarkJoin`] over the envelope: a probe of
//! the relation's hash index per envelope row when the relation has
//! one (e.g. its primary key), one hash build per evaluation otherwise
//! — `EXPLAIN` of the extended envelope shows which.
//!
//! This is the one place a candidate's per-literal membership flags
//! come from, in every answer mode: [`split_gathered`] reads a
//! witnessed literal's flag off the candidate and every other flag off
//! its `EXISTS` column. Everything downstream — the core-filter test,
//! the closure signature, the prover — reads the resulting `&[bool]`.

use crate::formula::{LitTemplate, MembershipTemplate};
use crate::query::SjudQuery;
use hippo_engine::{Catalog, EngineError, Row, Value};
use hippo_sql::{Expr, Query, SelectCore, SelectItem, TableRef};

/// Build the extended envelope query: envelope columns `c0..c{n-1}` plus
/// one membership flag `f{li}` per literal template `li` that is not
/// witnessed, in literal order.
pub fn extended_envelope_sql(
    envelope: &SjudQuery,
    template: &MembershipTemplate,
    catalog: &Catalog,
) -> Result<Query, EngineError> {
    let arity = envelope.validate(catalog)?;
    let inner = envelope.to_sql_query(catalog)?;
    let mut core = SelectCore::empty();
    core.from = vec![TableRef::Subquery {
        query: Box::new(inner),
        alias: "e".into(),
    }];
    core.projection = (0..arity)
        .map(|i| SelectItem::Expr {
            expr: Expr::qcol("e", format!("c{i}")),
            alias: Some(format!("c{i}")),
        })
        .collect();
    for (fi, lit) in template.literals.iter().enumerate() {
        if template.witnessed[fi] {
            continue;
        }
        core.projection.push(SelectItem::Expr {
            expr: membership_exists_expr(lit, catalog)?,
            alias: Some(format!("f{fi}")),
        });
    }
    Ok(Query::Select(Box::new(core)))
}

/// `EXISTS (SELECT * FROM rel WHERE rel.col_j = e.c{lit.cols[j]} ...)`:
/// equi-correlated on every column, so it plans as a mark join whose
/// keys compare by value identity.
fn membership_exists_expr(lit: &LitTemplate, catalog: &Catalog) -> Result<Expr, EngineError> {
    let schema = &catalog.table(&lit.rel)?.schema;
    if schema.arity() != lit.cols.len() {
        return Err(EngineError::new(format!(
            "literal template arity mismatch for {:?}",
            lit.rel
        )));
    }
    let mut sub = SelectCore::empty();
    sub.projection = vec![SelectItem::Wildcard];
    sub.from = vec![TableRef::Table {
        name: lit.rel.clone(),
        alias: Some("m".into()),
    }];
    let cond = Expr::conjoin(schema.columns.iter().enumerate().map(|(j, col)| {
        Expr::qcol("m", col.name.clone()).eq(Expr::qcol("e", format!("c{}", lit.cols[j])))
    }))
    .expect("relations have at least one column");
    sub.filter = Some(cond);
    Ok(Expr::Exists {
        query: Box::new(Query::Select(Box::new(sub))),
        negated: false,
    })
}

/// The result of one extended-envelope evaluation: candidates plus their
/// prefetched membership flags.
#[derive(Debug, Clone)]
pub struct GatheredCandidates {
    /// Candidate tuples (envelope columns only).
    pub candidates: Vec<Row>,
    /// `flags[i][fi]` = is literal `fi`'s fact (instantiated with candidate
    /// `i`) present in the database?
    pub flags: Vec<Vec<bool>>,
}

/// Split the raw rows of the extended envelope into candidates and flags.
/// A witnessed literal's flag is "none of its values is `NULL`" — what
/// a mark join on the row's own values would return; every other flag
/// is its `EXISTS` column. The candidates are the rows, truncated.
pub fn split_gathered(
    mut rows: Vec<Row>,
    arity: usize,
    template: &MembershipTemplate,
) -> GatheredCandidates {
    let flags = rows
        .iter()
        .map(|row| {
            let mut columns = row[arity..].iter();
            let flags: Vec<bool> = template
                .literals
                .iter()
                .zip(&template.witnessed)
                .map(|(lit, &witnessed)| {
                    if witnessed {
                        lit.cols.iter().all(|&c| !row[c].is_null())
                    } else {
                        columns.next() == Some(&Value::Bool(true))
                    }
                })
                .collect();
            debug_assert!(
                columns.next().is_none(),
                "one column per unwitnessed literal"
            );
            flags
        })
        .collect();
    for row in &mut rows {
        row.truncate(arity);
    }
    GatheredCandidates {
        candidates: rows,
        flags,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::envelope;
    use hippo_engine::{Column, DataType, Database, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        for name in ["r", "s"] {
            db.catalog_mut()
                .create_table(
                    TableSchema::new(
                        name,
                        vec![
                            Column::new("a", DataType::Int),
                            Column::new("b", DataType::Int),
                        ],
                        &[],
                    )
                    .unwrap(),
                )
                .unwrap();
        }
        db.insert_rows(
            "r",
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
            ],
        )
        .unwrap();
        db.insert_rows("s", vec![vec![Value::Int(1), Value::Int(10)]])
            .unwrap();
        db
    }

    #[test]
    fn extended_envelope_carries_flags() {
        let mut db = db();
        db.insert_rows("r", vec![vec![Value::Int(3), Value::Null]])
            .unwrap();
        let q = SjudQuery::rel("r").diff(SjudQuery::rel("s"));
        let template = MembershipTemplate::build(&q, db.catalog()).unwrap();
        assert_eq!(template.witnessed, vec![true, false]);
        let sql_q = extended_envelope_sql(&envelope(&q), &template, db.catalog()).unwrap();
        let result = db.query(&hippo_sql::print_query(&sql_q)).unwrap();
        let gathered = split_gathered(result.rows, 2, &template);
        let mut got: Vec<(Row, Vec<bool>)> = gathered
            .candidates
            .into_iter()
            .zip(gathered.flags)
            .collect();
        got.sort();
        // (1,10) is in r (f0, witnessed) and in s (f1, a mark join);
        // (2,20) is in r only; a fact with a `NULL` is in no relation.
        let int = |vs: &[i64]| vs.iter().map(|&v| Value::Int(v)).collect::<Row>();
        assert_eq!(
            got,
            vec![
                (int(&[1, 10]), vec![true, true]),
                (int(&[2, 20]), vec![true, false]),
                (vec![Value::Int(3), Value::Null], vec![false, false]),
            ]
        );
    }

    /// `EXPLAIN` of the extended envelope: a join's literals are all
    /// witnessed, so it plans no mark join, and its one-sided conjunct
    /// filters the scan below `DISTINCT`. A subtracted relation's flag is
    /// one mark join, through the relation's primary-key index when it
    /// has one and a per-execution hash build when it has none.
    #[test]
    fn explain_names_the_mark_join_and_its_access_path() {
        let explain = |db: &Database, q: &SjudQuery| {
            let template = MembershipTemplate::build(q, db.catalog()).unwrap();
            let ast = extended_envelope_sql(&envelope(q), &template, db.catalog()).unwrap();
            db.explain(&hippo_sql::print_query(&ast)).unwrap()
        };
        let mut db = Database::new();
        for name in ["r", "s"] {
            db.execute(&format!(
                "CREATE TABLE {name} (k INT, v INT, payload INT, PRIMARY KEY (k))"
            ))
            .unwrap();
        }
        let join = crate::sql_front::sjud_from_sql(
            "SELECT * FROM r, s WHERE r.k = s.k AND r.payload >= 400",
            db.catalog(),
        )
        .unwrap();
        let plan = explain(&db, &join);
        assert!(!plan.contains("MarkJoinExec"), "{plan}");
        let distinct = plan.find("DistinctExec").expect("set semantics");
        let filter = plan.find("FilterExec").expect("the payload conjunct");
        assert!(distinct < filter, "the filter sits below DISTINCT:\n{plan}");
        // The stacked projections compose into one above the join, and
        // every operator, that projection included, runs on column
        // batches.
        let join_at = plan.find("HashJoinExec").expect("the join");
        assert_eq!(plan[..join_at].matches("ProjectExec").count(), 1, "{plan}");
        let operators: Vec<&str> = plan
            .lines()
            .filter(|line| !line.starts_with("execution:"))
            .collect();
        assert_eq!(operators.len(), 9, "{plan}");
        for line in operators {
            assert!(line.ends_with(" [vectorized]"), "{line}:\n{plan}");
        }

        let diff = SjudQuery::rel("r").diff(SjudQuery::rel("s"));
        let plan = explain(&db, &diff);
        assert_eq!(plan.matches("MarkJoinExec").count(), 1, "{plan}");
        assert!(
            plan.contains("MarkJoinExec s key=(#0 = #0, #1 = #1, #2 = #2) via index (#0)"),
            "{plan}"
        );

        // quickstart's `emp` has no index: the mark builds a partition.
        db.execute("CREATE TABLE emp (name TEXT, salary INT)")
            .unwrap();
        db.execute("CREATE TABLE ex (name TEXT, salary INT)")
            .unwrap();
        let plan = explain(&db, &SjudQuery::rel("emp").diff(SjudQuery::rel("ex")));
        assert!(
            plan.contains("MarkJoinExec ex key=(#0 = #0, #1 = #1) via hash build"),
            "{plan}"
        );
    }
}
