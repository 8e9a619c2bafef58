//! Knowledge gathering: the extended-envelope optimization.
//!
//! The paper's base system resolves every literal `fact ∈ D?` with a
//! separate membership query against the RDBMS — the cost it
//! identifies as dominant. Knowledge gathering rewrites the envelope
//! query so the *same single evaluation* also returns, per candidate
//! tuple, the truth of every membership the prover could ask: one extra
//! boolean column (`EXISTS (SELECT … FROM rel WHERE …)`) per literal
//! template. The prover then issues **zero** queries against the
//! database. The engine's access-path selection plans each flag as one
//! [`hippo_engine::Plan::MarkJoin`] over the envelope: a probe of the
//! relation's hash index per envelope row when the relation has one
//! (e.g. its primary key), one hash build per evaluation otherwise —
//! `EXPLAIN` of the extended envelope shows which.
//!
//! This is the one place a candidate's per-literal membership flags
//! come from, in every answer mode: the extended envelope's `EXISTS`
//! columns, split off by [`split_gathered`]. Everything downstream —
//! the core-filter test, the closure signature, the prover — reads the
//! resulting `&[bool]`.

use crate::formula::{LitTemplate, MembershipTemplate};
use crate::query::SjudQuery;
use hippo_engine::{Catalog, EngineError, Row};
use hippo_sql::{Expr, Query, SelectCore, SelectItem, TableRef};

/// Build the extended envelope query: envelope columns `c0..c{n-1}` plus
/// one membership flag `f0..f{m-1}` per literal template.
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
pub fn split_gathered(rows: Vec<Row>, arity: usize, n_literals: usize) -> GatheredCandidates {
    let mut candidates = Vec::with_capacity(rows.len());
    let mut flags = Vec::with_capacity(rows.len());
    for row in rows {
        debug_assert_eq!(row.len(), arity + n_literals);
        let mut it = row.into_iter();
        let cand: Row = it.by_ref().take(arity).collect();
        let f: Vec<bool> = it.map(|v| v == hippo_engine::Value::Bool(true)).collect();
        candidates.push(cand);
        flags.push(f);
    }
    GatheredCandidates { candidates, flags }
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
        let db = db();
        let q = SjudQuery::rel("r").diff(SjudQuery::rel("s"));
        let env = envelope(&q);
        let template = MembershipTemplate::build(&q, db.catalog()).unwrap();
        assert_eq!(template.literals.len(), 2);
        let sql_q = extended_envelope_sql(&env, &template, db.catalog()).unwrap();
        let sql = hippo_sql::print_query(&sql_q);
        let result = db.query(&sql).unwrap();
        assert_eq!(result.columns, vec!["c0", "c1", "f0", "f1"]);
        let gathered = split_gathered(result.rows, 2, 2);
        assert_eq!(gathered.candidates.len(), 2);
        // Candidate (1,10): in r (f0) and in s (f1). Candidate (2,20): in r only.
        for (cand, flags) in gathered.candidates.iter().zip(&gathered.flags) {
            if cand[0] == Value::Int(1) {
                assert_eq!(flags, &vec![true, true]);
            } else {
                assert_eq!(flags, &vec![true, false]);
            }
        }
    }

    /// `EXPLAIN` of the extended envelope: every flag is one mark join
    /// over the envelope, through the relation's primary-key index when
    /// it has one and a per-execution hash build when it has none.
    #[test]
    fn explain_names_the_mark_join_and_its_access_path() {
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
        let explain = |db: &Database, q: &SjudQuery| {
            let template = MembershipTemplate::build(q, db.catalog()).unwrap();
            let ast = extended_envelope_sql(&envelope(q), &template, db.catalog()).unwrap();
            db.explain(&hippo_sql::print_query(&ast)).unwrap()
        };
        let plan = explain(&db, &join);
        assert!(
            plan.contains("MarkJoinExec r key=(#0 = #0, #1 = #1, #2 = #2) via index (#0)"),
            "{plan}"
        );
        assert!(
            plan.contains("MarkJoinExec s key=(#0 = #3, #1 = #4, #2 = #5) via index (#0)"),
            "{plan}"
        );
        assert!(
            plan.starts_with("MarkJoinExec s"),
            "the flag projection is the identity over the marks, so it is dropped:\n{plan}"
        );

        // quickstart's `emp` has no index: the mark builds a partition.
        let mut db = Database::new();
        db.execute("CREATE TABLE emp (name TEXT, salary INT)")
            .unwrap();
        let plan = explain(&db, &SjudQuery::rel("emp"));
        assert!(
            plan.contains("MarkJoinExec emp key=(#0 = #0, #1 = #1) via hash build"),
            "{plan}"
        );
    }
}
