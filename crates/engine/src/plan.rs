//! The query plan: one tree type from binder to executor.
//!
//! The binder lowers a SQL AST into a [`Plan`]; the optimizer rewrites
//! it into another [`Plan`] (constant folding, predicate pushdown, join
//! conversion — [`crate::optimize::optimize`]); and **access-path
//! selection** ([`crate::optimize::choose_access_paths`]) is one more
//! rewrite a caller either runs or skips: a `Filter` over a `Scan`
//! becomes an O(1) [`Plan::IndexLookup`] against one of the table's
//! secondary hash indexes (see [`crate::table::Table`]) when its
//! equality conjuncts cover one, and an equi-correlated `EXISTS` becomes
//! a [`Plan::MarkJoin`]. There is no separate "physical" tree:
//! the production executor and the reference oracle ([`crate::exec`])
//! both run this type, so any plan — rewritten or not — can be
//! executed by either and compared.
//!
//! Plans carry only column *offsets* — output names live in the
//! binder's result ([`crate::bind::BoundQuery`]). The tree renders
//! `EXPLAIN`-style through its [`std::fmt::Display`] impl, one operator
//! per line, children indented.

use crate::catalog::Catalog;
use crate::expr::BoundExpr;
use crate::schema::EngineError;

/// Join types supported by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner join.
    Inner,
    /// Left outer join (unmatched left rows padded with NULLs).
    Left,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`
    CountStar,
    /// `COUNT(expr)` (non-null values)
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

impl AggFunc {
    /// Look up by lower-case name (excluding `COUNT(*)`, which the binder
    /// special-cases).
    pub(crate) fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }
}

/// One aggregate computation in a [`Plan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// Argument (`None` only for `COUNT(*)`).
    pub arg: Option<BoundExpr>,
    /// `DISTINCT` aggregation.
    pub distinct: bool,
}

/// A query plan node — the one plan type of the engine.
///
/// The binder emits it, `crate::optimize::optimize` rewrites it, and
/// `crate::optimize::choose_access_paths` optionally replaces
/// `Filter(Scan)` subtrees whose equality conjuncts cover a hash index
/// with [`Plan::IndexLookup`] and equi-correlated `EXISTS` with
/// [`Plan::MarkJoin`] (the two nodes the binder never produces).
/// Both executors run it: the production one
/// (`crate::exec::execute_physical`) streams the row-wise pipeline
/// shapes — `Limit`/`Filter`/`Project` directly over a source — with
/// early exit, which is what turns a membership probe
/// (`SELECT 1 FROM t WHERE … LIMIT 1`) into a bounded amount of work;
/// the reference oracle (`crate::exec::execute`) materialises
/// everything bottom-up.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Produces no rows, with the given arity.
    Empty {
        /// Output arity.
        arity: usize,
    },
    /// Literal rows (each row a vector of constant expressions).
    Values {
        /// The rows.
        rows: Vec<Vec<BoundExpr>>,
        /// Output arity.
        arity: usize,
    },
    /// Full scan of a base table, in slot order.
    Scan {
        /// Table name.
        table: String,
    },
    /// O(1) probe of a secondary hash index: produces the live rows
    /// whose `index_cols` values equal the evaluated `key`, in slot
    /// order (identical to what a `Scan` + equality filter yields).
    /// A `NULL` key component produces no rows (SQL equality). Key
    /// expressions must be row-independent literals.
    IndexLookup {
        /// Table name.
        table: String,
        /// The indexed column set (an existing index of the table).
        index_cols: Vec<usize>,
        /// Key expressions, parallel to `index_cols`.
        key: Vec<BoundExpr>,
    },
    /// Filter rows by a boolean predicate.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Keep rows where this evaluates to `TRUE`.
        predicate: BoundExpr,
    },
    /// Compute output columns from input rows.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Output expressions.
        exprs: Vec<BoundExpr>,
    },
    /// Cartesian product.
    CrossJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
    },
    /// Equi-join executed with a hash table on the right side.
    HashJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Key expressions over left rows.
        left_keys: Vec<BoundExpr>,
        /// Key expressions over right rows.
        right_keys: Vec<BoundExpr>,
        /// Residual predicate over the concatenated row.
        residual: Option<BoundExpr>,
        /// Inner or left outer.
        join_type: JoinType,
    },
    /// General join evaluated by nested loops.
    NestedLoopJoin {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Join predicate over the concatenated row (`None` = always true).
        predicate: Option<BoundExpr>,
        /// Inner or left outer.
        join_type: JoinType,
    },
    /// Set/bag union.
    Union {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Bag semantics (`UNION ALL`).
        all: bool,
    },
    /// Set/bag difference.
    Except {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Bag semantics (`EXCEPT ALL`).
        all: bool,
    },
    /// Set/bag intersection.
    Intersect {
        /// Left input.
        left: Box<Plan>,
        /// Right input.
        right: Box<Plan>,
        /// Bag semantics (`INTERSECT ALL`).
        all: bool,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Grouped aggregation. Output = group expressions, then aggregates.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping expressions (empty = single global group).
        group_exprs: Vec<BoundExpr>,
        /// Aggregates.
        aggregates: Vec<AggExpr>,
    },
    /// Sort.
    Sort {
        /// Input plan.
        input: Box<Plan>,
        /// `(expression, descending)` keys, major first.
        keys: Vec<(BoundExpr, bool)>,
    },
    /// Limit/offset.
    Limit {
        /// Input plan.
        input: Box<Plan>,
        /// Maximum rows to emit (`None` = unbounded).
        limit: Option<u64>,
        /// Rows to skip.
        offset: u64,
    },
    /// Mark join: appends one `Bool` column to every input row — does
    /// `table` hold a live row whose `keys` columns equal the key
    /// expressions evaluated on the input row, and on which `residual`
    /// holds? (`negated` flips it: `NOT EXISTS`.) Keys compare by
    /// [`Value`](crate::Value) identity, and a `NULL` key value matches nothing.
    /// Access-path selection builds it from an equi-correlated `EXISTS`;
    /// with `index` set the first `index.len()` keys probe that hash
    /// index of `table` once per input row, otherwise one hash
    /// partition of `table` on all key columns is built per execution.
    MarkJoin {
        /// Input plan.
        input: Box<Plan>,
        /// Inner table name.
        table: String,
        /// `(inner column, key expression over the input row)` pairs.
        keys: Vec<(usize, BoundExpr)>,
        /// Predicate over `input row ++ inner row`, checked on key matches.
        residual: Option<BoundExpr>,
        /// The probed index's columns (the leading keys, in order), or
        /// `None` for a hash build.
        index: Option<Vec<usize>>,
        /// `NOT EXISTS`.
        negated: bool,
    },
}

impl Plan {
    /// Output arity of the plan.
    pub(crate) fn arity(&self, catalog: &Catalog) -> Result<usize, EngineError> {
        Ok(match self {
            Plan::Empty { arity } | Plan::Values { arity, .. } => *arity,
            Plan::Scan { table } | Plan::IndexLookup { table, .. } => {
                catalog.table(table)?.schema.arity()
            }
            Plan::Filter { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. } => input.arity(catalog)?,
            Plan::Project { exprs, .. } => exprs.len(),
            Plan::MarkJoin { input, .. } => input.arity(catalog)? + 1,
            Plan::CrossJoin { left, right }
            | Plan::HashJoin { left, right, .. }
            | Plan::NestedLoopJoin { left, right, .. } => {
                left.arity(catalog)? + right.arity(catalog)?
            }
            Plan::Union { left, .. } | Plan::Except { left, .. } | Plan::Intersect { left, .. } => {
                left.arity(catalog)?
            }
            Plan::Aggregate {
                group_exprs,
                aggregates,
                ..
            } => group_exprs.len() + aggregates.len(),
        })
    }

    /// A plan producing exactly one empty row (used for `SELECT` without
    /// `FROM`).
    pub(crate) fn one_row() -> Plan {
        Plan::Values {
            rows: vec![Vec::new()],
            arity: 0,
        }
    }

    /// Literal single-row values plan.
    #[cfg(test)]
    pub(crate) fn values_literal(rows: Vec<Vec<crate::Value>>, arity: usize) -> Plan {
        Plan::Values {
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(BoundExpr::Literal).collect())
                .collect(),
            arity,
        }
    }

    /// The node's child plans, left to right (not descending into
    /// subquery plans inside expressions).
    pub(crate) fn children(&self) -> impl Iterator<Item = &Plan> {
        let (first, second): (Option<&Plan>, Option<&Plan>) = match self {
            Plan::Empty { .. }
            | Plan::Values { .. }
            | Plan::Scan { .. }
            | Plan::IndexLookup { .. } => (None, None),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct { input }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::MarkJoin { input, .. } => (Some(input), None),
            Plan::CrossJoin { left, right }
            | Plan::HashJoin { left, right, .. }
            | Plan::NestedLoopJoin { left, right, .. }
            | Plan::Union { left, right, .. }
            | Plan::Except { left, right, .. }
            | Plan::Intersect { left, right, .. } => (Some(left), Some(right)),
        };
        first.into_iter().chain(second)
    }

    /// Mutable counterpart of [`Plan::children`], for in-place rewrite
    /// passes.
    pub(crate) fn children_mut(&mut self) -> impl Iterator<Item = &mut Plan> {
        let (first, second): (Option<&mut Plan>, Option<&mut Plan>) = match self {
            Plan::Empty { .. }
            | Plan::Values { .. }
            | Plan::Scan { .. }
            | Plan::IndexLookup { .. } => (None, None),
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct { input }
            | Plan::Aggregate { input, .. }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::MarkJoin { input, .. } => (Some(input), None),
            Plan::CrossJoin { left, right }
            | Plan::HashJoin { left, right, .. }
            | Plan::NestedLoopJoin { left, right, .. }
            | Plan::Union { left, right, .. }
            | Plan::Except { left, right, .. }
            | Plan::Intersect { left, right, .. } => (Some(left), Some(right)),
        };
        first.into_iter().chain(second)
    }

    /// Visit all nodes of the plan tree (pre-order), not descending into
    /// subquery plans inside expressions.
    pub(crate) fn visit(&self, f: &mut impl FnMut(&Plan)) {
        f(self);
        for child in self.children() {
            child.visit(f);
        }
    }

    /// Count the plan's base-table access paths: `(index_probes,
    /// scan_probes)` — how many [`Plan::IndexLookup`] / [`Plan::Scan`]
    /// sources one execution of this plan touches. Feeds the engine's
    /// probe counters ([`crate::SnapshotStatsView`]). A
    /// [`Plan::MarkJoin`]'s table is not a source here, as the
    /// expression subquery it replaces was not.
    pub fn access_paths(&self) -> (usize, usize) {
        let (mut idx, mut scan) = (0, 0);
        self.visit(&mut |p| match p {
            Plan::IndexLookup { .. } => idx += 1,
            Plan::Scan { .. } => scan += 1,
            _ => {}
        });
        (idx, scan)
    }

    /// `EXPLAIN` text with every operator of the subtrees the
    /// vectorized engine runs tagged `[vectorized]`: `root(node)` says
    /// whether `node` roots such a subtree.
    pub(crate) fn explain_tagged(&self, root: &dyn Fn(&Plan) -> bool) -> String {
        let mut out = String::new();
        self.write_tree(&mut out, 0, false, root)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_tree(
        &self,
        f: &mut impl std::fmt::Write,
        depth: usize,
        inside: bool,
        root: &dyn Fn(&Plan) -> bool,
    ) -> std::fmt::Result {
        for _ in 0..depth {
            f.write_str("  ")?;
        }
        // Operator labels are the executor's names (`SeqScan`,
        // `FilterExec`, …): `EXPLAIN` output is pinned by tests and read
        // by people, independent of how the enum spells its variants.
        match self {
            Plan::Empty { arity } => write!(f, "Empty arity={arity}")?,
            Plan::Values { rows, arity } => write!(f, "Values rows={} arity={arity}", rows.len())?,
            Plan::Scan { table } => write!(f, "SeqScan {table}")?,
            Plan::IndexLookup {
                table,
                index_cols,
                key,
            } => {
                let cols: Vec<String> = index_cols.iter().map(|c| format!("#{c}")).collect();
                let keys: Vec<String> = key.iter().map(fmt_expr).collect();
                write!(
                    f,
                    "IndexLookup {table} index=({}) key=({})",
                    cols.join(", "),
                    keys.join(", ")
                )?
            }
            Plan::Filter { predicate, .. } => write!(f, "FilterExec {}", fmt_expr(predicate))?,
            Plan::Project { exprs, .. } => {
                let out: Vec<String> = exprs.iter().map(fmt_expr).collect();
                write!(f, "ProjectExec [{}]", out.join(", "))?
            }
            Plan::CrossJoin { .. } => write!(f, "CrossJoinExec")?,
            Plan::HashJoin {
                left_keys,
                right_keys,
                join_type,
                ..
            } => {
                let lk: Vec<String> = left_keys.iter().map(fmt_expr).collect();
                let rk: Vec<String> = right_keys.iter().map(fmt_expr).collect();
                write!(
                    f,
                    "HashJoinExec {:?} ({}) = ({})",
                    join_type,
                    lk.join(", "),
                    rk.join(", ")
                )?
            }
            Plan::NestedLoopJoin { join_type, .. } => {
                write!(f, "NestedLoopJoinExec {join_type:?}")?
            }
            Plan::Union { all, .. } => write!(f, "UnionExec all={all}")?,
            Plan::Except { all, .. } => write!(f, "ExceptExec all={all}")?,
            Plan::Intersect { all, .. } => write!(f, "IntersectExec all={all}")?,
            Plan::Distinct { .. } => write!(f, "DistinctExec")?,
            Plan::Aggregate {
                group_exprs,
                aggregates,
                ..
            } => write!(
                f,
                "AggregateExec groups={} aggs={}",
                group_exprs.len(),
                aggregates.len()
            )?,
            Plan::Sort { keys, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, desc)| format!("{}{}", fmt_expr(e), if *desc { " DESC" } else { "" }))
                    .collect();
                write!(f, "SortExec [{}]", ks.join(", "))?
            }
            Plan::Limit { limit, offset, .. } => match limit {
                Some(l) => write!(f, "LimitExec limit={l} offset={offset}")?,
                None => write!(f, "LimitExec offset={offset}")?,
            },
            Plan::MarkJoin {
                table,
                keys,
                residual,
                index,
                negated,
                ..
            } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(c, e)| format!("#{c} = {}", fmt_expr(e)))
                    .collect();
                write!(
                    f,
                    "MarkJoinExec {}{table} key=({})",
                    if *negated { "NOT " } else { "" },
                    ks.join(", ")
                )?;
                if let Some(r) = residual {
                    write!(f, " residual={}", fmt_expr(r))?;
                }
                match index {
                    Some(cols) => {
                        let cols: Vec<String> = cols.iter().map(|c| format!("#{c}")).collect();
                        write!(f, " via index ({})", cols.join(", "))?
                    }
                    None => write!(f, " via hash build")?,
                }
            }
        }
        let vectorized = inside || root(self);
        if vectorized {
            f.write_str(" [vectorized]")?;
        }
        f.write_char('\n')?;
        for child in self.children() {
            child.write_tree(f, depth + 1, vectorized, root)?;
        }
        Ok(())
    }
}

// Plans are pure owned data (no interior mutability, no borrows), so a
// plan bound once — e.g. against a [`crate::db::DbSnapshot`]'s catalog —
// may be evaluated concurrently from many threads, each with its own
// [`crate::expr::EvalEnv`]. Compile-time proof.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Plan>();
};

/// `EXPLAIN`-style rendering: one operator per line, children indented
/// two spaces — the access path actually chosen is visible at the leaf.
impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.write_tree(f, 0, false, &|_| false)
    }
}

/// Compact expression rendering for plan display (`#i` = column offset).
fn fmt_expr(e: &BoundExpr) -> String {
    match e {
        BoundExpr::Literal(v) => format!("{v}"),
        BoundExpr::Column(i) => format!("#{i}"),
        BoundExpr::OuterRef { level, index } => format!("outer[{level}].#{index}"),
        BoundExpr::Binary { op, left, right } => {
            format!("({} {} {})", fmt_expr(left), op.sql(), fmt_expr(right))
        }
        BoundExpr::Unary { op, expr } => {
            let op = match op {
                hippo_sql::UnaryOp::Not => "NOT",
                hippo_sql::UnaryOp::Neg => "-",
            };
            format!("({op} {})", fmt_expr(expr))
        }
        BoundExpr::IsNull { expr, negated } => format!(
            "({} IS {}NULL)",
            fmt_expr(expr),
            if *negated { "NOT " } else { "" }
        ),
        _ => "<expr>".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "t",
                vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Text),
                ],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    #[test]
    fn arity_propagates() {
        let c = catalog();
        let scan = Plan::Scan { table: "t".into() };
        assert_eq!(scan.arity(&c).unwrap(), 2);
        let join = Plan::CrossJoin {
            left: Box::new(scan.clone()),
            right: Box::new(scan.clone()),
        };
        assert_eq!(join.arity(&c).unwrap(), 4);
        let proj = Plan::Project {
            input: Box::new(join),
            exprs: vec![BoundExpr::Column(0)],
        };
        assert_eq!(proj.arity(&c).unwrap(), 1);
        let agg = Plan::Aggregate {
            input: Box::new(scan),
            group_exprs: vec![BoundExpr::Column(1)],
            aggregates: vec![AggExpr {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
            }],
        };
        assert_eq!(agg.arity(&c).unwrap(), 2);
    }

    #[test]
    fn arity_errors_on_missing_table() {
        let c = catalog();
        let scan = Plan::Scan {
            table: "missing".into(),
        };
        assert!(scan.arity(&c).is_err());
    }

    #[test]
    fn one_row_has_single_empty_row() {
        let p = Plan::one_row();
        let Plan::Values { rows, arity } = p else {
            panic!()
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(arity, 0);
    }
}
