//! Knowledge gathering: the extended-envelope optimization.
//!
//! In the base system, the Prover resolves every literal `fact ∈ D?` with a
//! separate membership query against the RDBMS — the paper identifies this
//! as the dominant cost. Knowledge gathering rewrites the envelope query so
//! the *same single evaluation* also returns, per candidate tuple, the
//! truth of every membership the prover could ask: one extra boolean
//! column (`EXISTS (SELECT … FROM rel WHERE …)`) per literal template.
//! The prover then issues **zero** queries against the database.
//!
//! This module is the one place that decides where a candidate's
//! per-literal membership flags come from: the extended envelope's
//! `EXISTS` columns ([`split_gathered`]) or, in base mode,
//! [`MemoSqlMembership::gather_flags`]. Everything downstream — the
//! core-filter test, the closure signature, the prover — reads the
//! resulting `&[bool]` and does not know which.
//!
//! The base-mode gatherer reads through the engine's one reader, the
//! `Sync` [`hippo_engine::DbSnapshot`]: every prover shard owns a
//! [`MemoSqlMembership`], which compiles each literal's probe **once**
//! into a prepared plan (an `IndexLookup` when the relation
//! has a covering hash index) and re-executes it per candidate binding,
//! memoized so the shard pays one probe per distinct fact instead of
//! one per check. No SQL text is rendered, parsed or optimized on the
//! hot path.

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

/// `EXISTS (SELECT * FROM rel WHERE rel.col_j = e.c{lit.cols[j]} ...)`.
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

/// One literal's membership probe, compiled **once** to a prepared
/// plan and re-executed per candidate binding.
struct PreparedProbe {
    /// The plan: `Limit 1` over `Project [1]` over the chosen access
    /// path — an `IndexLookup` keyed by `Param`s when the relation has
    /// a covering index (and index probes are on), a filtered `Scan`
    /// otherwise.
    plan: hippo_engine::Plan,
    /// Whether the chosen access path is an index lookup.
    uses_index: bool,
}

impl PreparedProbe {
    /// Compile the probe `SELECT 1 FROM rel WHERE c0 = $0 AND … LIMIT 1`
    /// for `lit`'s relation: build the pipeline with `Param`
    /// placeholders, then (unless `use_indexes` is off) let the
    /// optimizer pick the access path.
    /// Parameter bindings come from candidate projections over the same
    /// columns, so their types always match (or are `NULL`, which
    /// matches nothing) — the contract index-safe `Param` keys require.
    fn compile(
        catalog: &Catalog,
        lit: &LitTemplate,
        use_indexes: bool,
    ) -> Result<PreparedProbe, EngineError> {
        use hippo_engine::{BoundExpr, Plan};
        let schema = &catalog.table(&lit.rel)?.schema;
        if schema.arity() != lit.cols.len() {
            return Err(EngineError::new(format!(
                "literal template arity mismatch for {:?}",
                lit.rel
            )));
        }
        let predicate = BoundExpr::conjoin((0..schema.arity()).map(|j| BoundExpr::Binary {
            op: hippo_sql::BinaryOp::Eq,
            left: Box::new(BoundExpr::Column(j)),
            right: Box::new(BoundExpr::Param(j)),
        }));
        let mut plan = Plan::Limit {
            input: Box::new(Plan::Project {
                input: Box::new(Plan::Filter {
                    input: Box::new(Plan::Scan {
                        table: lit.rel.clone(),
                    }),
                    predicate,
                }),
                exprs: vec![BoundExpr::Literal(hippo_engine::Value::Int(1))],
            }),
            limit: Some(1),
            offset: 0,
        };
        if use_indexes {
            hippo_engine::choose_access_paths(&mut plan, catalog);
        }
        let uses_index = plan.uses_index();
        Ok(PreparedProbe { plan, uses_index })
    }
}

/// The base-mode shard's flag gatherer: resolves the per-literal
/// membership flags of one candidate through **prepared probes**
/// against a frozen snapshot, memoized per literal. At
/// construction each literal's probe is compiled once — access path
/// and all — so the steady state has no SQL text, no parsing, no
/// binding and no optimization: a memo miss is one
/// [`hippo_engine::exec::execute_physical_with`] call, which on an
/// indexed relation is a hash-bucket probe (O(1) per candidate) and on
/// an unindexed one an early-exiting scan. The memo is keyed by
/// `(literal, projected key values)` and lives for the whole shard, so
/// across a shard's candidates each distinct fact pays exactly one
/// probe — the per-shard analog of what knowledge gathering prefetches
/// in one envelope query. Shards are fixed slices of the candidate
/// list, so `queries_issued` / `memo_hits` / the probe-kind counters
/// are bit-identical for any worker count.
pub struct MemoSqlMembership<'a> {
    snapshot: &'a hippo_engine::DbSnapshot,
    template: &'a MembershipTemplate,
    /// Per-literal prepared probe plans, parallel to `template.literals`.
    probes: Vec<PreparedProbe>,
    /// Per-literal memo: projected literal row → membership flag. (The
    /// template already dedups identical literals, so per-literal slots
    /// never probe the same fact twice for one candidate; the memo's
    /// win is *across* candidates — shared projections of product /
    /// permuted candidates, and any repeated envelope row.)
    memo: Vec<rustc_hash::FxHashMap<Row, bool>>,
    /// Reusable projection buffer.
    row_buf: Row,
    /// Probes actually executed (memo misses).
    pub queries_issued: usize,
    /// Checks answered from the memo.
    pub memo_hits: usize,
    /// Executed probes whose access path was an `IndexLookup`.
    pub index_probes: usize,
    /// Executed probes whose access path was a sequential scan.
    pub scan_probes: usize,
    /// Per-call budget governing the probe executions (stage
    /// `"membership"`); `None` on ungoverned calls — the probes then
    /// run the exact pre-governance path.
    budget: Option<&'a hippo_engine::Budget>,
}

impl<'a> MemoSqlMembership<'a> {
    /// Compile one prepared probe per literal template against the
    /// snapshot's catalog. `use_indexes` selects the access path
    /// (`false` forces the sequential-scan plans — the pre-optimizer
    /// behaviour, kept for differential tests and ablations).
    pub fn new(
        snapshot: &'a hippo_engine::DbSnapshot,
        template: &'a MembershipTemplate,
        use_indexes: bool,
    ) -> Result<Self, EngineError> {
        let probes = template
            .literals
            .iter()
            .map(|lit| PreparedProbe::compile(snapshot.catalog(), lit, use_indexes))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(MemoSqlMembership {
            snapshot,
            template,
            probes,
            memo: vec![rustc_hash::FxHashMap::default(); template.literals.len()],
            row_buf: Row::new(),
            queries_issued: 0,
            memo_hits: 0,
            index_probes: 0,
            scan_probes: 0,
            budget: None,
        })
    }

    /// Govern this gatherer's probe executions: each executed probe
    /// charges its result rows against `budget` and checks it under the
    /// `"membership"` stage label.
    pub fn with_budget(mut self, budget: Option<&'a hippo_engine::Budget>) -> Self {
        self.budget = budget;
        self
    }

    /// Resolve every literal's membership flag for `candidate` into
    /// `flags` (cleared first), consulting the memo before the snapshot.
    pub fn gather_flags(
        &mut self,
        candidate: &Row,
        flags: &mut Vec<bool>,
    ) -> Result<(), EngineError> {
        flags.clear();
        for (li, lit) in self.template.literals.iter().enumerate() {
            self.row_buf.clear();
            self.row_buf
                .extend(lit.cols.iter().map(|&c| candidate[c].clone()));
            let memo = &mut self.memo[li];
            let flag = match memo.get(self.row_buf.as_slice()) {
                Some(&b) => {
                    self.memo_hits += 1;
                    b
                }
                None => {
                    let probe = &self.probes[li];
                    self.queries_issued += 1;
                    if probe.uses_index {
                        self.index_probes += 1;
                    } else {
                        self.scan_probes += 1;
                    }
                    // Execute against the frozen catalog directly and
                    // count locally — per-probe atomics on the shared
                    // snapshot stats would contend across shards at
                    // sub-microsecond probe cost. The totals fold into
                    // the snapshot in one `record_prepared` call when
                    // the shard finishes (see `flush_backend_stats`).
                    let b = !hippo_engine::exec::execute_physical_with(
                        &probe.plan,
                        self.snapshot.catalog(),
                        &self.row_buf,
                        self.budget,
                        "membership",
                    )?
                    .is_empty();
                    memo.insert(self.row_buf.clone(), b);
                    b
                }
            };
            flags.push(flag);
        }
        Ok(())
    }

    /// Fold this gatherer's probe totals into the snapshot's statistics
    /// in one batch (exact accounting, one atomic round instead of one
    /// per probe). Call once when the shard is done.
    pub fn flush_backend_stats(&self) {
        self.snapshot
            .record_prepared(self.queries_issued, self.index_probes, self.scan_probes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::envelope;
    use crate::pred::{CmpOp, Pred};
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

    #[test]
    fn memo_membership_counts_probes_and_memo_hits() {
        let db = db();
        let q = SjudQuery::rel("r");
        let template = MembershipTemplate::build(&q, db.catalog()).unwrap();
        let mut m = MemoSqlMembership::new(&db, &template, true).unwrap();
        let mut flags = Vec::new();
        m.gather_flags(&vec![Value::Int(1), Value::Int(10)], &mut flags)
            .unwrap();
        assert_eq!(flags, vec![true]);
        m.gather_flags(&vec![Value::Int(9), Value::Int(9)], &mut flags)
            .unwrap();
        assert_eq!(flags, vec![false]);
        m.gather_flags(&vec![Value::Int(1), Value::Int(10)], &mut flags)
            .unwrap();
        assert_eq!(flags, vec![true]);
        assert_eq!((m.queries_issued, m.memo_hits), (2, 1));
    }

    #[test]
    fn flags_agree_with_prepared_probes() {
        let db = db();
        let q = SjudQuery::rel("r")
            .select(Pred::cmp_const(1, CmpOp::Ge, 0i64))
            .diff(SjudQuery::rel("s"));
        let env = envelope(&q);
        let template = MembershipTemplate::build(&q, db.catalog()).unwrap();
        let sql_q = extended_envelope_sql(&env, &template, db.catalog()).unwrap();
        let result = db.query(&hippo_sql::print_query(&sql_q)).unwrap();
        let arity = 2;
        let gathered = split_gathered(result.rows, arity, template.literals.len());
        let mut probes = MemoSqlMembership::new(&db, &template, true).unwrap();
        let mut expected = Vec::new();
        for (cand, flags) in gathered.candidates.iter().zip(&gathered.flags) {
            probes.gather_flags(cand, &mut expected).unwrap();
            assert_eq!(flags, &expected, "candidate {cand:?}");
        }
    }
}
