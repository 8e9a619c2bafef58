//! Name resolution and lowering: SQL AST → [`Plan`].
//!
//! The binder resolves table/column names against the catalog, expands
//! wildcards, desugars `BETWEEN`, detects aggregation, and produces a plan
//! plus output column names. Correlated subqueries are supported: a column
//! that does not resolve in the current scope is looked up in enclosing
//! scopes and becomes an [`BoundExpr::OuterRef`].

use crate::catalog::Catalog;
use crate::expr::{BoundExpr, ScalarFunc};
use crate::plan::{AggExpr, AggFunc, JoinType, Plan};
use crate::schema::EngineError;
use hippo_sql::{
    BinaryOp, Expr, JoinKind, Literal, OrderItem, Query, SelectCore, SelectItem, SetOp, TableRef,
};

/// Result of binding a query: the plan and its output column names.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// The logical plan.
    pub plan: Plan,
    /// Output column names (parallel to the plan's output columns).
    pub columns: Vec<String>,
}

/// One named range in a scope (a table, alias, or subquery binding).
#[derive(Debug, Clone)]
struct ScopeEntry {
    qualifier: Option<String>,
    columns: Vec<String>,
    offset: usize,
}

/// The columns visible at some point of a query.
#[derive(Debug, Clone, Default)]
struct Scope {
    entries: Vec<ScopeEntry>,
}

impl Scope {
    fn width(&self) -> usize {
        self.entries
            .last()
            .map(|e| e.offset + e.columns.len())
            .unwrap_or(0)
    }

    fn add(&mut self, qualifier: Option<String>, columns: Vec<String>) {
        let offset = self.width();
        self.entries.push(ScopeEntry {
            qualifier,
            columns,
            offset,
        });
    }

    /// Resolve a possibly-qualified column to a flat offset.
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<Option<usize>, EngineError> {
        let mut found = None;
        for e in &self.entries {
            if let Some(q) = qualifier {
                if e.qualifier.as_deref() != Some(q) {
                    continue;
                }
            }
            if let Some(i) = e.columns.iter().position(|c| c == name) {
                let flat = e.offset + i;
                if found.is_some() {
                    return Err(EngineError::new(format!(
                        "ambiguous column reference {name:?}"
                    )));
                }
                found = Some(flat);
                // With a qualifier, a single entry can still have duplicate
                // names only if the subquery produced them; first wins.
            }
        }
        Ok(found)
    }

    fn all_columns(&self) -> Vec<(Option<String>, String, usize)> {
        let mut out = Vec::new();
        for e in &self.entries {
            for (i, c) in e.columns.iter().enumerate() {
                out.push((e.qualifier.clone(), c.clone(), e.offset + i));
            }
        }
        out
    }
}

/// Bind a query against the catalog (no outer scopes).
pub(crate) fn bind_query(catalog: &Catalog, query: &Query) -> Result<BoundQuery, EngineError> {
    Binder {
        catalog,
        scopes: Vec::new(),
    }
    .query(query)
}

/// Bind a standalone expression against a table's row (used by DML filters).
pub(crate) fn bind_table_expr(
    catalog: &Catalog,
    table: &str,
    expr: &Expr,
) -> Result<BoundExpr, EngineError> {
    let t = catalog.table(table)?;
    let mut scope = Scope::default();
    scope.add(Some(table.to_string()), t.schema.column_names());
    let mut b = Binder {
        catalog,
        scopes: vec![scope],
    };
    b.expr(expr)
}

/// Bind a constant expression (no columns in scope), e.g. `VALUES` items.
pub(crate) fn bind_const_expr(catalog: &Catalog, expr: &Expr) -> Result<BoundExpr, EngineError> {
    let mut b = Binder {
        catalog,
        scopes: vec![Scope::default()],
    };
    b.expr(expr)
}

struct Binder<'a> {
    catalog: &'a Catalog,
    /// Scope stack; innermost (current) last.
    scopes: Vec<Scope>,
}

impl<'a> Binder<'a> {
    fn query(&mut self, query: &Query) -> Result<BoundQuery, EngineError> {
        match query {
            Query::Select(core) => self.select_core(core),
            Query::SetOp {
                op,
                all,
                left,
                right,
            } => {
                let l = self.query(left)?;
                let r = self.query(right)?;
                let la = l.plan.arity(self.catalog)?;
                let ra = r.plan.arity(self.catalog)?;
                if la != ra {
                    return Err(EngineError::new(format!(
                        "set operation arity mismatch: {la} vs {ra}"
                    )));
                }
                let plan = match op {
                    SetOp::Union => Plan::Union {
                        left: Box::new(l.plan),
                        right: Box::new(r.plan),
                        all: *all,
                    },
                    SetOp::Except => Plan::Except {
                        left: Box::new(l.plan),
                        right: Box::new(r.plan),
                        all: *all,
                    },
                    SetOp::Intersect => Plan::Intersect {
                        left: Box::new(l.plan),
                        right: Box::new(r.plan),
                        all: *all,
                    },
                };
                Ok(BoundQuery {
                    plan,
                    columns: l.columns,
                })
            }
        }
    }

    fn select_core(&mut self, core: &SelectCore) -> Result<BoundQuery, EngineError> {
        // ----- FROM -----
        let mut scope = Scope::default();
        let mut plan = None::<Plan>;
        for tr in &core.from {
            let (p, entries) = self.table_ref(tr, &mut scope)?;
            plan = Some(match plan {
                None => p,
                Some(prev) => Plan::CrossJoin {
                    left: Box::new(prev),
                    right: Box::new(p),
                },
            });
            // entries already added to scope by table_ref
            let _ = entries;
        }
        let mut plan = plan.unwrap_or_else(Plan::one_row);

        // Push the FROM scope: WHERE / projection bind against it.
        self.scopes.push(scope);
        let result = self.select_rest(core, &mut plan);
        let scope = self.scopes.pop().expect("scope pushed above");
        let _ = scope;
        result.map(|(plan, columns)| BoundQuery { plan, columns })
    }

    fn select_rest(
        &mut self,
        core: &SelectCore,
        plan: &mut Plan,
    ) -> Result<(Plan, Vec<String>), EngineError> {
        // ----- WHERE -----
        if let Some(f) = &core.filter {
            if contains_aggregate(f) {
                return Err(EngineError::new(
                    "aggregate functions are not allowed in WHERE",
                ));
            }
            let predicate = self.expr(f)?;
            *plan = Plan::Filter {
                input: Box::new(plan.clone()),
                predicate,
            };
        }

        // ----- projection expansion -----
        let mut proj_exprs: Vec<Expr> = Vec::new();
        let mut proj_names: Vec<String> = Vec::new();
        {
            let scope = self.scopes.last().expect("current scope");
            for item in &core.projection {
                match item {
                    SelectItem::Wildcard => {
                        for (_, name, offset) in scope.all_columns() {
                            proj_exprs.push(Expr::Column {
                                qualifier: None,
                                name: name.clone(),
                            });
                            // Remember the offset directly via a marker: we
                            // re-resolve below, which is fine because
                            // wildcard names may be ambiguous; use the
                            // qualified form instead when possible.
                            let _ = offset;
                            proj_names.push(name);
                        }
                        // Replace the just-pushed unqualified forms with
                        // qualified ones to avoid ambiguity errors when two
                        // tables share a column name.
                        let n = scope.all_columns().len();
                        let start = proj_exprs.len() - n;
                        for (k, (q, name, _)) in scope.all_columns().into_iter().enumerate() {
                            if let Some(q) = q {
                                proj_exprs[start + k] = Expr::Column {
                                    qualifier: Some(q),
                                    name,
                                };
                            }
                        }
                    }
                    SelectItem::QualifiedWildcard(q) => {
                        let entry = scope
                            .entries
                            .iter()
                            .find(|e| e.qualifier.as_deref() == Some(q.as_str()))
                            .ok_or_else(|| {
                                EngineError::new(format!("unknown table alias {q:?} in wildcard"))
                            })?;
                        for name in entry.columns.clone() {
                            proj_exprs.push(Expr::Column {
                                qualifier: Some(q.clone()),
                                name: name.clone(),
                            });
                            proj_names.push(name);
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        proj_names.push(match alias {
                            Some(a) => a.clone(),
                            None => default_name(expr),
                        });
                        proj_exprs.push(expr.clone());
                    }
                }
            }
        }

        let has_agg = !core.group_by.is_empty()
            || proj_exprs.iter().any(contains_aggregate)
            || core.having.as_ref().is_some_and(contains_aggregate)
            || core.order_by.iter().any(|o| contains_aggregate(&o.expr));

        let mut plan = plan.clone();
        if has_agg {
            plan = self.bind_aggregate(core, plan, &proj_exprs, &proj_names)?;
        } else {
            if core.having.is_some() {
                return Err(EngineError::new("HAVING requires GROUP BY or aggregates"));
            }
            let bound: Vec<BoundExpr> = proj_exprs
                .iter()
                .map(|e| self.expr(e))
                .collect::<Result<_, _>>()?;
            plan = Plan::Project {
                input: Box::new(plan),
                exprs: bound,
            };
        }

        if core.distinct {
            plan = Plan::Distinct {
                input: Box::new(plan),
            };
        }

        // ----- ORDER BY (binds against the output columns) -----
        if !core.order_by.is_empty() {
            let keys = self.bind_order_by(&core.order_by, &proj_names, &proj_exprs, has_agg)?;
            plan = Plan::Sort {
                input: Box::new(plan),
                keys,
            };
        }

        if core.limit.is_some() || core.offset.is_some() {
            plan = Plan::Limit {
                input: Box::new(plan),
                limit: core.limit,
                offset: core.offset.unwrap_or(0),
            };
        }

        Ok((plan, proj_names))
    }

    /// Bind the aggregate path: an `Aggregate` node computing group keys and
    /// aggregate values, then a `Project` (and optional `Filter` for
    /// `HAVING`) re-expressed over the aggregate's output.
    fn bind_aggregate(
        &mut self,
        core: &SelectCore,
        input: Plan,
        proj_exprs: &[Expr],
        _proj_names: &[String],
    ) -> Result<Plan, EngineError> {
        // Group expressions, bound over the FROM scope.
        let group_asts: Vec<Expr> = core.group_by.clone();
        let group_bound: Vec<BoundExpr> = group_asts
            .iter()
            .map(|e| self.expr(e))
            .collect::<Result<_, _>>()?;

        // Collect aggregate calls from output positions.
        let mut agg_asts: Vec<Expr> = Vec::new();
        for e in proj_exprs {
            collect_aggregates(e, &mut agg_asts);
        }
        if let Some(h) = &core.having {
            collect_aggregates(h, &mut agg_asts);
        }
        for o in &core.order_by {
            collect_aggregates(&o.expr, &mut agg_asts);
        }
        agg_asts.dedup();
        // Dedup across non-adjacent duplicates too.
        let mut unique: Vec<Expr> = Vec::new();
        for a in agg_asts {
            if !unique.contains(&a) {
                unique.push(a);
            }
        }
        let agg_asts = unique;

        let aggregates: Vec<AggExpr> = agg_asts
            .iter()
            .map(|a| self.bind_agg_call(a))
            .collect::<Result<_, _>>()?;

        let agg_plan = Plan::Aggregate {
            input: Box::new(input),
            group_exprs: group_bound,
            aggregates,
        };

        // HAVING over the aggregate output.
        let mut plan = agg_plan;
        if let Some(h) = &core.having {
            let pred = self.rebind_over_groups(h, &group_asts, &agg_asts)?;
            plan = Plan::Filter {
                input: Box::new(plan),
                predicate: pred,
            };
        }

        // Projection over the aggregate output.
        let exprs: Vec<BoundExpr> = proj_exprs
            .iter()
            .map(|e| self.rebind_over_groups(e, &group_asts, &agg_asts))
            .collect::<Result<_, _>>()?;
        Ok(Plan::Project {
            input: Box::new(plan),
            exprs,
        })
    }

    /// Rewrite an output expression in terms of the aggregate node's output
    /// row (group keys first, then aggregate values).
    fn rebind_over_groups(
        &mut self,
        e: &Expr,
        group_asts: &[Expr],
        agg_asts: &[Expr],
    ) -> Result<BoundExpr, EngineError> {
        if let Some(i) = group_asts.iter().position(|g| g == e) {
            return Ok(BoundExpr::Column(i));
        }
        if let Some(j) = agg_asts.iter().position(|a| a == e) {
            return Ok(BoundExpr::Column(group_asts.len() + j));
        }
        match e {
            Expr::Literal(l) => Ok(BoundExpr::Literal(literal_value(l))),
            Expr::Column { .. } => Err(EngineError::new(format!(
                "column {e:?} must appear in GROUP BY or be used in an aggregate"
            ))),
            Expr::Binary { op, left, right } => Ok(BoundExpr::Binary {
                op: *op,
                left: Box::new(self.rebind_over_groups(left, group_asts, agg_asts)?),
                right: Box::new(self.rebind_over_groups(right, group_asts, agg_asts)?),
            }),
            Expr::Unary { op, expr } => Ok(BoundExpr::Unary {
                op: *op,
                expr: Box::new(self.rebind_over_groups(expr, group_asts, agg_asts)?),
            }),
            Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
                expr: Box::new(self.rebind_over_groups(expr, group_asts, agg_asts)?),
                negated: *negated,
            }),
            Expr::Case {
                branches,
                else_value,
            } => Ok(BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| {
                        Ok((
                            self.rebind_over_groups(c, group_asts, agg_asts)?,
                            self.rebind_over_groups(v, group_asts, agg_asts)?,
                        ))
                    })
                    .collect::<Result<_, EngineError>>()?,
                else_value: match else_value {
                    Some(ev) => Some(Box::new(self.rebind_over_groups(ev, group_asts, agg_asts)?)),
                    None => None,
                },
            }),
            Expr::Function { name, args, .. } if !is_aggregate_name(name) => {
                let func = ScalarFunc::from_name(name)
                    .ok_or_else(|| EngineError::new(format!("unknown function {name:?}")))?;
                Ok(BoundExpr::Function {
                    func,
                    args: args
                        .iter()
                        .map(|a| self.rebind_over_groups(a, group_asts, agg_asts))
                        .collect::<Result<_, _>>()?,
                })
            }
            other => Err(EngineError::new(format!(
                "unsupported expression in aggregate query output: {other:?}"
            ))),
        }
    }

    fn bind_agg_call(&mut self, e: &Expr) -> Result<AggExpr, EngineError> {
        let Expr::Function {
            name,
            args,
            star,
            distinct,
        } = e
        else {
            return Err(EngineError::new("internal: not an aggregate call"));
        };
        if *star {
            if name != "count" {
                return Err(EngineError::new(format!("{name}(*) is not supported")));
            }
            return Ok(AggExpr {
                func: AggFunc::CountStar,
                arg: None,
                distinct: false,
            });
        }
        let func = AggFunc::from_name(name)
            .ok_or_else(|| EngineError::new(format!("unknown aggregate {name:?}")))?;
        if args.len() != 1 {
            return Err(EngineError::new(format!(
                "aggregate {name} expects one argument, got {}",
                args.len()
            )));
        }
        if contains_aggregate(&args[0]) {
            return Err(EngineError::new("nested aggregate calls are not allowed"));
        }
        let arg = self.expr(&args[0])?;
        Ok(AggExpr {
            func,
            arg: Some(arg),
            distinct: *distinct,
        })
    }

    fn bind_order_by(
        &mut self,
        order_by: &[OrderItem],
        proj_names: &[String],
        proj_exprs: &[Expr],
        has_agg: bool,
    ) -> Result<Vec<(BoundExpr, bool)>, EngineError> {
        let mut keys = Vec::new();
        for item in order_by {
            let key = match &item.expr {
                // ORDER BY <position>
                Expr::Literal(Literal::Int(k)) => {
                    let k = *k;
                    if k < 1 || k as usize > proj_names.len() {
                        return Err(EngineError::new(format!(
                            "ORDER BY position {k} out of range"
                        )));
                    }
                    BoundExpr::Column(k as usize - 1)
                }
                // ORDER BY <output name>
                Expr::Column {
                    qualifier: None,
                    name,
                } if proj_names.iter().filter(|n| *n == name).count() == 1 => {
                    BoundExpr::Column(proj_names.iter().position(|n| n == name).expect("checked"))
                }
                // ORDER BY <expression that syntactically matches an output>
                e if proj_exprs.iter().any(|p| p == e) => {
                    BoundExpr::Column(proj_exprs.iter().position(|p| p == e).expect("checked"))
                }
                e => {
                    if has_agg {
                        return Err(EngineError::new(
                            "ORDER BY in aggregate queries must reference output columns",
                        ));
                    }
                    return Err(EngineError::new(format!(
                        "ORDER BY expression must reference an output column: {e:?}"
                    )));
                }
            };
            keys.push((key, item.desc));
        }
        Ok(keys)
    }

    /// Bind a FROM item; adds its bindings to `scope` and returns its plan.
    fn table_ref(
        &mut self,
        tr: &TableRef,
        scope: &mut Scope,
    ) -> Result<(Plan, usize), EngineError> {
        match tr {
            TableRef::Table { name, alias } => {
                let t = self.catalog.table(name)?;
                let columns = t.schema.column_names();
                let qualifier = alias.clone().unwrap_or_else(|| name.clone());
                // Reject duplicate qualifiers in one FROM.
                if scope
                    .entries
                    .iter()
                    .any(|e| e.qualifier.as_deref() == Some(qualifier.as_str()))
                {
                    return Err(EngineError::new(format!(
                        "duplicate table alias {qualifier:?} in FROM"
                    )));
                }
                scope.add(Some(qualifier), columns);
                Ok((
                    Plan::Scan {
                        table: name.clone(),
                    },
                    1,
                ))
            }
            TableRef::Subquery { query, alias } => {
                // FROM subqueries are uncorrelated: bind with the *outer*
                // scope stack only (standard SQL, no LATERAL).
                let bound = self.query(query)?;
                if scope
                    .entries
                    .iter()
                    .any(|e| e.qualifier.as_deref() == Some(alias.as_str()))
                {
                    return Err(EngineError::new(format!(
                        "duplicate table alias {alias:?} in FROM"
                    )));
                }
                scope.add(Some(alias.clone()), bound.columns);
                Ok((bound.plan, 1))
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => {
                let (lp, _) = self.table_ref(left, scope)?;
                let (rp, _) = self.table_ref(right, scope)?;
                match kind {
                    JoinKind::Cross => Ok((
                        Plan::CrossJoin {
                            left: Box::new(lp),
                            right: Box::new(rp),
                        },
                        2,
                    )),
                    JoinKind::Inner => {
                        let plan = Plan::CrossJoin {
                            left: Box::new(lp),
                            right: Box::new(rp),
                        };
                        let Some(on) = on else {
                            return Err(EngineError::new("INNER JOIN requires ON"));
                        };
                        // ON binds over the combined scope built so far.
                        self.scopes.push(scope.clone());
                        let pred = self.expr(on);
                        self.scopes.pop();
                        Ok((
                            Plan::Filter {
                                input: Box::new(plan),
                                predicate: pred?,
                            },
                            2,
                        ))
                    }
                    JoinKind::Left => {
                        let Some(on) = on else {
                            return Err(EngineError::new("LEFT JOIN requires ON"));
                        };
                        self.scopes.push(scope.clone());
                        let pred = self.expr(on);
                        self.scopes.pop();
                        Ok((
                            Plan::NestedLoopJoin {
                                left: Box::new(lp),
                                right: Box::new(rp),
                                predicate: Some(pred?),
                                join_type: JoinType::Left,
                            },
                            2,
                        ))
                    }
                }
            }
        }
    }

    // ----- expressions -----

    fn expr(&mut self, e: &Expr) -> Result<BoundExpr, EngineError> {
        match e {
            Expr::Literal(l) => Ok(BoundExpr::Literal(literal_value(l))),
            Expr::Column { qualifier, name } => {
                // Current scope first.
                if let Some(scope) = self.scopes.last() {
                    if let Some(i) = scope.resolve(qualifier.as_deref(), name)? {
                        return Ok(BoundExpr::Column(i));
                    }
                }
                // Then enclosing scopes, innermost outward.
                if self.scopes.len() >= 2 {
                    for (level, scope) in self.scopes[..self.scopes.len() - 1]
                        .iter()
                        .rev()
                        .enumerate()
                    {
                        if let Some(i) = scope.resolve(qualifier.as_deref(), name)? {
                            return Ok(BoundExpr::OuterRef { level, index: i });
                        }
                    }
                }
                Err(EngineError::new(format!(
                    "unknown column {}{name}",
                    qualifier
                        .as_deref()
                        .map(|q| format!("{q}."))
                        .unwrap_or_default()
                )))
            }
            Expr::Binary { op, left, right } => Ok(BoundExpr::Binary {
                op: *op,
                left: Box::new(self.expr(left)?),
                right: Box::new(self.expr(right)?),
            }),
            Expr::Unary { op, expr } => Ok(BoundExpr::Unary {
                op: *op,
                expr: Box::new(self.expr(expr)?),
            }),
            Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
                expr: Box::new(self.expr(expr)?),
                negated: *negated,
            }),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                // Desugar: e BETWEEN l AND h  ==>  l <= e AND e <= h
                let e_b = self.expr(expr)?;
                let l_b = self.expr(low)?;
                let h_b = self.expr(high)?;
                let ge = BoundExpr::Binary {
                    op: BinaryOp::Ge,
                    left: Box::new(e_b.clone()),
                    right: Box::new(l_b),
                };
                let le = BoundExpr::Binary {
                    op: BinaryOp::Le,
                    left: Box::new(e_b),
                    right: Box::new(h_b),
                };
                let both = ge.and(le);
                Ok(if *negated {
                    BoundExpr::Unary {
                        op: hippo_sql::UnaryOp::Not,
                        expr: Box::new(both),
                    }
                } else {
                    both
                })
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Ok(BoundExpr::Like {
                expr: Box::new(self.expr(expr)?),
                pattern: Box::new(self.expr(pattern)?),
                negated: *negated,
            }),
            Expr::InList {
                expr,
                list,
                negated,
            } => Ok(BoundExpr::InList {
                expr: Box::new(self.expr(expr)?),
                list: list
                    .iter()
                    .map(|i| self.expr(i))
                    .collect::<Result<_, _>>()?,
                negated: *negated,
            }),
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let e_b = self.expr(expr)?;
                let sub = self.bind_subquery(query)?;
                if sub.plan.arity(self.catalog)? != 1 {
                    return Err(EngineError::new(
                        "IN subquery must produce exactly one column",
                    ));
                }
                Ok(BoundExpr::InSubquery {
                    expr: Box::new(e_b),
                    plan: Box::new(sub.plan),
                    negated: *negated,
                })
            }
            Expr::Exists { query, negated } => {
                let sub = self.bind_subquery(query)?;
                Ok(BoundExpr::Exists {
                    plan: Box::new(sub.plan),
                    negated: *negated,
                })
            }
            Expr::ScalarSubquery(query) => {
                let sub = self.bind_subquery(query)?;
                if sub.plan.arity(self.catalog)? != 1 {
                    return Err(EngineError::new(
                        "scalar subquery must produce exactly one column",
                    ));
                }
                Ok(BoundExpr::ScalarSubquery(Box::new(sub.plan)))
            }
            Expr::Function {
                name,
                args,
                star,
                distinct,
            } => {
                if is_aggregate_name(name) || *star || *distinct {
                    return Err(EngineError::new(format!(
                        "aggregate {name:?} is not allowed in this context"
                    )));
                }
                let func = ScalarFunc::from_name(name)
                    .ok_or_else(|| EngineError::new(format!("unknown function {name:?}")))?;
                Ok(BoundExpr::Function {
                    func,
                    args: args
                        .iter()
                        .map(|a| self.expr(a))
                        .collect::<Result<_, _>>()?,
                })
            }
            Expr::Case {
                branches,
                else_value,
            } => Ok(BoundExpr::Case {
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((self.expr(c)?, self.expr(v)?)))
                    .collect::<Result<_, EngineError>>()?,
                else_value: match else_value {
                    Some(ev) => Some(Box::new(self.expr(ev)?)),
                    None => None,
                },
            }),
        }
    }

    /// Bind a subquery: the current scope becomes an enclosing scope.
    fn bind_subquery(&mut self, query: &Query) -> Result<BoundQuery, EngineError> {
        // self.scopes already holds [outer..., current]; the subquery binder
        // sees all of them as enclosing scopes.
        let mut inner = Binder {
            catalog: self.catalog,
            scopes: self.scopes.clone(),
        };
        inner.query(query)
    }
}

/// Translate an AST literal into a runtime value.
pub(crate) fn literal_value(l: &Literal) -> crate::value::Value {
    use crate::value::Value;
    match l {
        Literal::Null => Value::Null,
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Int(v) => Value::Int(*v),
        Literal::Float(v) => Value::Float(*v),
        Literal::Str(s) => Value::Text(s.clone()),
    }
}

fn is_aggregate_name(name: &str) -> bool {
    AggFunc::from_name(name).is_some()
}

/// Does the expression contain an aggregate function call (not descending
/// into subqueries, which have their own aggregation contexts)?
pub(crate) fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Function {
            name, star, args, ..
        } => *star || is_aggregate_name(name) || args.iter().any(contains_aggregate),
        Expr::Literal(_) | Expr::Column { .. } => false,
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::Between {
            expr, low, high, ..
        } => contains_aggregate(expr) || contains_aggregate(low) || contains_aggregate(high),
        Expr::Like { expr, pattern, .. } => contains_aggregate(expr) || contains_aggregate(pattern),
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::InSubquery { expr, .. } => contains_aggregate(expr),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => false,
        Expr::Case {
            branches,
            else_value,
        } => {
            branches
                .iter()
                .any(|(c, v)| contains_aggregate(c) || contains_aggregate(v))
                || else_value.as_ref().is_some_and(|e| contains_aggregate(e))
        }
    }
}

fn collect_aggregates(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Function { name, star, .. } if *star || is_aggregate_name(name) => {
            out.push(e.clone());
        }
        Expr::Literal(_) | Expr::Column { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
        Expr::Function { args, .. } => {
            for a in args {
                collect_aggregates(a, out);
            }
        }
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates(expr, out);
            collect_aggregates(low, out);
            collect_aggregates(high, out);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, out);
            collect_aggregates(pattern, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for i in list {
                collect_aggregates(i, out);
            }
        }
        Expr::InSubquery { expr, .. } => collect_aggregates(expr, out),
        Expr::Case {
            branches,
            else_value,
        } => {
            for (c, v) in branches {
                collect_aggregates(c, out);
                collect_aggregates(v, out);
            }
            if let Some(ev) = else_value {
                collect_aggregates(ev, out);
            }
        }
    }
}

fn default_name(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => "?column?".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType, TableSchema};
    use hippo_sql::parse_query;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            TableSchema::new(
                "emp",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("dept", DataType::Text),
                    Column::new("salary", DataType::Int),
                ],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        c.create_table(
            TableSchema::new(
                "dept",
                vec![
                    Column::new("dname", DataType::Text),
                    Column::new("budget", DataType::Int),
                ],
                &[],
            )
            .unwrap(),
        )
        .unwrap();
        c
    }

    fn bind(sql: &str) -> Result<BoundQuery, EngineError> {
        let c = catalog();
        bind_query(&c, &parse_query(sql).unwrap())
    }

    #[test]
    fn binds_simple_select() {
        let b = bind("SELECT name, salary FROM emp WHERE salary > 100").unwrap();
        assert_eq!(b.columns, vec!["name", "salary"]);
        let Plan::Project { exprs, input } = b.plan else {
            panic!()
        };
        assert_eq!(exprs, vec![BoundExpr::Column(0), BoundExpr::Column(2)]);
        assert!(matches!(*input, Plan::Filter { .. }));
    }

    #[test]
    fn wildcard_expands_in_order() {
        let b = bind("SELECT * FROM emp, dept").unwrap();
        assert_eq!(b.columns, vec!["name", "dept", "salary", "dname", "budget"]);
    }

    #[test]
    fn qualified_wildcard() {
        let b = bind("SELECT d.* FROM emp e, dept d").unwrap();
        assert_eq!(b.columns, vec!["dname", "budget"]);
    }

    #[test]
    fn ambiguous_column_is_error() {
        // Same column name in both tables.
        let mut c = catalog();
        c.create_table(
            TableSchema::new("emp2", vec![Column::new("name", DataType::Text)], &[]).unwrap(),
        )
        .unwrap();
        let q = parse_query("SELECT name FROM emp, emp2").unwrap();
        let err = bind_query(&c, &q).unwrap_err();
        assert!(err.message.contains("ambiguous"), "{err}");
    }

    #[test]
    fn unknown_column_is_error() {
        let err = bind("SELECT nope FROM emp").unwrap_err();
        assert!(err.message.contains("unknown column"));
    }

    #[test]
    fn unknown_table_is_error() {
        assert!(bind("SELECT * FROM missing").is_err());
    }

    #[test]
    fn duplicate_alias_is_error() {
        let err = bind("SELECT * FROM emp e, dept e").unwrap_err();
        assert!(err.message.contains("duplicate table alias"));
    }

    #[test]
    fn aliases_shadow_table_names() {
        let b = bind("SELECT e.salary FROM emp e").unwrap();
        assert_eq!(b.columns, vec!["salary"]);
        // Original name no longer available once aliased.
        assert!(bind("SELECT emp.salary FROM emp e").is_err());
    }

    #[test]
    fn set_op_arity_mismatch_is_error() {
        let err = bind("SELECT name FROM emp UNION SELECT dname, budget FROM dept").unwrap_err();
        assert!(err.message.contains("arity mismatch"));
    }

    #[test]
    fn between_desugars() {
        let b = bind("SELECT name FROM emp WHERE salary BETWEEN 1 AND 2").unwrap();
        let Plan::Project { input, .. } = b.plan else {
            panic!()
        };
        let Plan::Filter { predicate, .. } = *input else {
            panic!()
        };
        assert!(matches!(
            predicate,
            BoundExpr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn correlated_subquery_gets_outer_ref() {
        let b = bind(
            "SELECT name FROM emp e WHERE EXISTS (SELECT * FROM dept d WHERE d.dname = e.dept)",
        )
        .unwrap();
        // find the Exists expression and check it contains an OuterRef
        let Plan::Project { input, .. } = b.plan else {
            panic!()
        };
        let Plan::Filter { predicate, .. } = *input else {
            panic!()
        };
        let BoundExpr::Exists { plan, .. } = predicate else {
            panic!("{predicate:?}")
        };
        let Plan::Project { input, .. } = *plan else {
            panic!()
        };
        let Plan::Filter { predicate, .. } = *input else {
            panic!()
        };
        let mut saw_outer = false;
        predicate.visit(&mut |e| {
            if matches!(e, BoundExpr::OuterRef { level: 0, .. }) {
                saw_outer = true;
            }
        });
        assert!(saw_outer, "{predicate:?}");
    }

    #[test]
    fn aggregate_query_binds() {
        let b =
            bind("SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept HAVING COUNT(*) > 1")
                .unwrap();
        assert_eq!(b.columns, vec!["dept", "count", "sum"]);
        let Plan::Project { input, .. } = &b.plan else {
            panic!()
        };
        let Plan::Filter { input: agg, .. } = &**input else {
            panic!()
        };
        let Plan::Aggregate {
            group_exprs,
            aggregates,
            ..
        } = &**agg
        else {
            panic!()
        };
        assert_eq!(group_exprs.len(), 1);
        assert_eq!(aggregates.len(), 2);
    }

    #[test]
    fn bare_column_outside_group_by_is_error() {
        let err = bind("SELECT name, COUNT(*) FROM emp GROUP BY dept").unwrap_err();
        assert!(err.message.contains("GROUP BY"), "{err}");
    }

    #[test]
    fn aggregate_in_where_is_error() {
        let err = bind("SELECT name FROM emp WHERE COUNT(*) > 1").unwrap_err();
        assert!(err.message.contains("not allowed in WHERE"), "{err}");
    }

    #[test]
    fn order_by_position_and_alias() {
        let b = bind("SELECT name AS n, salary FROM emp ORDER BY 2 DESC, n").unwrap();
        let Plan::Sort { keys, .. } = &b.plan else {
            panic!()
        };
        assert_eq!(keys[0], (BoundExpr::Column(1), true));
        assert_eq!(keys[1], (BoundExpr::Column(0), false));
    }

    #[test]
    fn order_by_out_of_range_position() {
        assert!(bind("SELECT name FROM emp ORDER BY 5").is_err());
        assert!(bind("SELECT name FROM emp ORDER BY 0").is_err());
    }

    #[test]
    fn select_without_from() {
        let b = bind("SELECT 1, 'x'").unwrap();
        let Plan::Project { input, exprs } = b.plan else {
            panic!()
        };
        assert_eq!(exprs.len(), 2);
        assert!(matches!(*input, Plan::Values { .. }));
    }

    #[test]
    fn from_subquery_binds_alias() {
        let b = bind("SELECT s.n FROM (SELECT name AS n FROM emp) s").unwrap();
        assert_eq!(b.columns, vec!["n"]);
    }

    #[test]
    fn inner_join_lowered_to_filter_over_cross() {
        let b = bind("SELECT * FROM emp e INNER JOIN dept d ON e.dept = d.dname").unwrap();
        let Plan::Project { input, .. } = b.plan else {
            panic!()
        };
        let Plan::Filter { input: cj, .. } = *input else {
            panic!()
        };
        assert!(matches!(*cj, Plan::CrossJoin { .. }));
    }

    #[test]
    fn left_join_becomes_nested_loop_left() {
        let b = bind("SELECT * FROM emp e LEFT JOIN dept d ON e.dept = d.dname").unwrap();
        let Plan::Project { input, .. } = b.plan else {
            panic!()
        };
        assert!(matches!(
            *input,
            Plan::NestedLoopJoin {
                join_type: JoinType::Left,
                ..
            }
        ));
    }

    #[test]
    fn in_subquery_arity_checked() {
        let err = bind("SELECT name FROM emp WHERE name IN (SELECT dname, budget FROM dept)")
            .unwrap_err();
        assert!(err.message.contains("one column"));
    }
}
