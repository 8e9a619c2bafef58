//! The core-filter ("true filter") optimization.
//!
//! Besides the envelope (a superset of the consistent answers), the paper's
//! optimizations include an expression selecting a *subset* of the
//! consistent answers: tuples caught by it skip the Prover entirely, which
//! can drastically reduce prover work when conflicts are sparse.
//!
//! The filter evaluates the query with
//!
//! * positive leaves on the **conflict-free core** (tuples in no conflict —
//!   a subset of every repair), and
//! * subtracted branches replaced by their **envelope on the full
//!   instance** (a superset of the branch's value in every repair).
//!
//! By induction this yields `F(D) ⊆ Q(D')` for every repair `D'`, i.e.
//! every filtered tuple is a consistent answer.
//!
//! The class is projection-free, so whether a candidate is in `F(D)`
//! depends only on the base facts the candidate is built from. The
//! filter is therefore a **per-candidate test** (`passes`) over the
//! query's [`MembershipTemplate`], fed by what the answer pipeline
//! already holds for the candidate — its membership flags and the
//! hypergraph's interned-fact index — rather than a second query
//! execution:
//!
//! * a literal in positive position holds iff its flag is set **and**
//!   its fact carries no conflicting vertex;
//! * a literal under a `Not` (a subtracted branch) holds iff its flag
//!   is set, and a `Not` nested beneath it counts as true — the
//!   branch's envelope on the full instance;
//! * guards evaluate on the candidate, as they do for the prover.
//!
//! [`crate::hippo`]'s prover shards run the test on each candidate
//! before the signature cache and the prover; [`core_filter_set`] runs
//! it over one envelope evaluation; [`core_filter_direct`] is the
//! set-at-a-time reference the tests compare both against.

use crate::envelope::envelope;
use crate::formula::{FormulaTemplate, MembershipTemplate};
use crate::hypergraph::ConflictHypergraph;
use crate::kg::{extended_envelope_sql, split_gathered};
use crate::prover::Prover;
use crate::query::SjudQuery;
use hippo_engine::{Catalog, EngineError, Row};
use rustc_hash::FxHashSet;

/// The per-candidate core-filter test: is `tuple` in the filter's
/// result? `flags` are the candidate's per-literal membership answers
/// and `conflict_free(li)` says whether literal `li`'s fact, as
/// instantiated by the candidate, carries no conflicting vertex
/// ([`Prover::lit_conflict_free`]). `true` means the candidate is a
/// consistent answer; `false` decides nothing.
pub(crate) fn passes(
    formula: &FormulaTemplate,
    tuple: &Row,
    flags: &[bool],
    conflict_free: &impl Fn(usize) -> bool,
) -> bool {
    match formula {
        FormulaTemplate::True => true,
        FormulaTemplate::False => false,
        FormulaTemplate::Lit(li) => flags[*li] && conflict_free(*li),
        FormulaTemplate::Guard(p) => p.eval(tuple),
        FormulaTemplate::And(a, b) => {
            passes(a, tuple, flags, conflict_free) && passes(b, tuple, flags, conflict_free)
        }
        FormulaTemplate::Or(a, b) => {
            passes(a, tuple, flags, conflict_free) || passes(b, tuple, flags, conflict_free)
        }
        // A subtracted branch: the candidate must be outside the
        // branch's envelope on the full instance, an over-approximation
        // of the branch in any repair.
        FormulaTemplate::Not(branch) => !in_envelope(branch, tuple, flags),
    }
}

/// Is `tuple` in the envelope of the branch `formula` describes, on the
/// full instance? A nested subtraction is dropped, as
/// [`crate::envelope::envelope`] drops it.
fn in_envelope(formula: &FormulaTemplate, tuple: &Row, flags: &[bool]) -> bool {
    match formula {
        FormulaTemplate::True | FormulaTemplate::Not(_) => true,
        FormulaTemplate::False => false,
        FormulaTemplate::Lit(li) => flags[*li],
        FormulaTemplate::Guard(p) => p.eval(tuple),
        FormulaTemplate::And(a, b) => in_envelope(a, tuple, flags) && in_envelope(b, tuple, flags),
        FormulaTemplate::Or(a, b) => in_envelope(a, tuple, flags) || in_envelope(b, tuple, flags),
    }
}

/// The core filter's result on `catalog`: the envelope rows that pass
/// the per-candidate test, sorted. One envelope evaluation (the
/// knowledge-gathering form, which carries the membership flags) over
/// the given catalog; nothing is copied. A query that does not validate
/// against the catalog has no envelope, hence the empty — trivially
/// sound — result.
pub fn core_filter_set(q: &SjudQuery, catalog: &Catalog, g: &ConflictHypergraph) -> Vec<Row> {
    passing_envelope_rows(q, catalog, g).unwrap_or_default()
}

fn passing_envelope_rows(
    q: &SjudQuery,
    catalog: &Catalog,
    g: &ConflictHypergraph,
) -> Result<Vec<Row>, EngineError> {
    let arity = q.validate(catalog)?;
    let template = MembershipTemplate::build(q, catalog)?;
    let ast = extended_envelope_sql(&envelope(q), &template, catalog)?;
    let bound = hippo_engine::bind::bind_query(catalog, &ast)?;
    let mut plan = hippo_engine::optimize::optimize(bound.plan, catalog)?;
    hippo_engine::choose_access_paths(&mut plan, catalog);
    let rows = hippo_engine::exec::execute_physical_with(&plan, catalog, None, "envelope")?;
    let gathered = split_gathered(rows, arity, template.literals.len());
    let prover = Prover::new(g, &template);
    let mut accepted: Vec<Row> = gathered
        .candidates
        .into_iter()
        .zip(&gathered.flags)
        .filter(|(cand, flags)| {
            passes(&template.formula, cand, flags, &|li| {
                prover.lit_conflict_free(li, cand)
            })
        })
        .map(|(cand, _)| cand)
        .collect();
    accepted.sort();
    accepted.dedup();
    Ok(accepted)
}

/// Direct (nested-loop, set-at-a-time) evaluation of the filter over
/// instance views: positive leaves read the conflict-free core,
/// subtracted branches the envelope over the full instance. The
/// reference implementation the per-candidate test is checked against
/// in tests; rows compare by identity, so it differs from the test on
/// `NULL`-bearing tuples (see [`crate::hippo`]).
pub fn core_filter_direct(q: &SjudQuery, catalog: &Catalog, g: &ConflictHypergraph) -> Vec<Row> {
    let core = crate::repair::core_instance(catalog, g);
    let full = |rel: &str| catalog.table(rel).map(|t| t.rows()).unwrap_or_default();
    let mut rows = eval_filter(q, &core, &full);
    rows.sort();
    rows.dedup();
    rows
}

fn eval_filter(
    q: &SjudQuery,
    core: &impl Fn(&str) -> Vec<Row>,
    full: &impl Fn(&str) -> Vec<Row>,
) -> Vec<Row> {
    match q {
        SjudQuery::Rel(r) => core(r),
        SjudQuery::Select { input, pred } => eval_filter(input, core, full)
            .into_iter()
            .filter(|row| pred.eval(row))
            .collect(),
        SjudQuery::Product(l, r) => {
            let lv = eval_filter(l, core, full);
            let rv = eval_filter(r, core, full);
            let mut out = Vec::with_capacity(lv.len() * rv.len());
            for a in &lv {
                for b in &rv {
                    let mut row = a.clone();
                    row.extend(b.iter().cloned());
                    out.push(row);
                }
            }
            out
        }
        SjudQuery::Union(l, r) => {
            let mut lv = eval_filter(l, core, full);
            lv.extend(eval_filter(r, core, full));
            lv
        }
        SjudQuery::Diff(l, r) => {
            // Subtract the *envelope of r over the full instance*: an
            // over-approximation of r in any repair, so what survives the
            // subtraction is absent from r in every repair.
            let renv = envelope(r);
            let rv: FxHashSet<Row> = renv.eval_over(full).into_iter().collect();
            eval_filter(l, core, full)
                .into_iter()
                .filter(|row| !rv.contains(row))
                .collect()
        }
        SjudQuery::Permute { input, perm } => eval_filter(input, core, full)
            .into_iter()
            .map(|row| perm.iter().map(|&p| row[p].clone()).collect())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::DenialConstraint;
    use crate::detect::detect_conflicts;
    use crate::formula::MembershipTemplate;
    use crate::pred::{CmpOp, Pred};
    use crate::prover::{catalog_flags, Prover};
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

    #[test]
    fn filter_keeps_only_nonconflicting_on_relation_query() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        let q = SjudQuery::rel("emp");
        let rows = core_filter_set(&q, db.catalog(), &g);
        assert_eq!(rows, vec![vec![Value::text("bob"), Value::Int(300)]]);
    }

    #[test]
    fn filter_subset_of_consistent_answers_with_difference() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300), ("cyd", 50)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        // q = emp − σ_{salary < 150}(emp)
        let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
            1,
            CmpOp::Lt,
            150i64,
        )));
        let filtered = core_filter_set(&q, db.catalog(), &g);
        // Every filtered tuple must be verified consistent by the prover.
        let template = MembershipTemplate::build(&q, db.catalog()).unwrap();
        let mut prover = Prover::new(&g, &template);
        for row in &filtered {
            let flags = catalog_flags(&template, db.catalog(), row);
            assert!(
                prover.is_consistent_answer(row, &flags),
                "core filter produced non-consistent {row:?}"
            );
        }
        // bob (300): non-conflicting, not subtracted → must be caught.
        assert!(filtered.contains(&vec![Value::text("bob"), Value::Int(300)]));
        // cyd (50): fails the subtraction (subtracted on full instance).
        assert!(!filtered.contains(&vec![Value::text("cyd"), Value::Int(50)]));
    }

    #[test]
    fn filter_on_consistent_instance_equals_query_result() {
        let db = emp_db(&[("ann", 100), ("bob", 300)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        let q = SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 200i64));
        let filtered = core_filter_set(&q, db.catalog(), &g);
        let direct = q.eval_on_catalog(db.catalog()).unwrap();
        assert_eq!(filtered, direct, "no conflicts → filter is exact");
    }

    #[test]
    fn filter_union_and_product() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        let q = SjudQuery::rel("emp").product(SjudQuery::rel("emp"));
        let rows = core_filter_set(&q, db.catalog(), &g);
        assert_eq!(rows.len(), 1, "only bob×bob survives the core");
        let q = SjudQuery::rel("emp").union(SjudQuery::rel("emp"));
        let rows = core_filter_set(&q, db.catalog(), &g);
        assert_eq!(rows.len(), 1);
    }
}

#[cfg(test)]
mod per_candidate_tests {
    use super::*;
    use crate::constraint::DenialConstraint;
    use crate::detect::detect_conflicts;
    use crate::pred::{CmpOp, Pred};
    use hippo_engine::{Column, DataType, Database, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        for name in ["t", "u"] {
            db.catalog_mut()
                .create_table(
                    TableSchema::new(
                        name,
                        vec![
                            Column::new("k", DataType::Int),
                            Column::new("v", DataType::Int),
                        ],
                        &[],
                    )
                    .unwrap(),
                )
                .unwrap();
        }
        let rows = |xs: &[(i64, i64)]| {
            xs.iter()
                .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
                .collect()
        };
        db.insert_rows("t", rows(&[(1, 10), (1, 20), (2, 30), (3, 40), (3, 40)]))
            .unwrap();
        db.insert_rows("u", rows(&[(2, 30), (9, 90)])).unwrap();
        db
    }

    #[test]
    fn per_candidate_test_matches_direct_evaluation() {
        let db = db();
        let constraints = [DenialConstraint::functional_dependency("t", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        let queries = vec![
            SjudQuery::rel("t"),
            SjudQuery::rel("t").select(Pred::cmp_const(1, CmpOp::Ge, 20i64)),
            SjudQuery::rel("t").diff(SjudQuery::rel("u")),
            SjudQuery::rel("t").union(SjudQuery::rel("u")),
            SjudQuery::rel("t")
                .product(SjudQuery::rel("u"))
                .select(Pred::cmp_cols(0, CmpOp::Eq, 2)),
            SjudQuery::rel("t")
                .permute(vec![1, 0])
                .diff(SjudQuery::rel("u").permute(vec![1, 0])),
            // A subtraction nested in a subtracted branch is dropped.
            SjudQuery::rel("t").diff(SjudQuery::rel("u").diff(SjudQuery::rel("t"))),
        ];
        for q in queries {
            let direct = core_filter_direct(&q, db.catalog(), &g);
            let per_candidate = core_filter_set(&q, db.catalog(), &g);
            assert_eq!(per_candidate, direct, "mismatch for {q}");
        }
    }
}
