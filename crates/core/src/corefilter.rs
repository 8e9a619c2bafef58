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
//! it over one envelope evaluation. The set-at-a-time reference the
//! tests compare both against is `hippo-testkit`'s `core_filter_direct`.

use crate::envelope::envelope;
use crate::formula::{FormulaTemplate, MembershipTemplate};
use crate::hypergraph::ConflictHypergraph;
use crate::kg::{extended_envelope_sql, split_gathered};
use crate::prover::Prover;
use crate::query::SjudQuery;
use hippo_engine::{Catalog, Database, EngineError, Row};

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
/// knowledge-gathering form, which carries the membership flags) on the
/// engine's one query path, over a clone of `catalog` that shares its
/// row chunks and index shards, so no row is copied. A query that does
/// not validate against the catalog has no envelope, hence the empty —
/// trivially sound — result.
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
    let db = Database::from_catalog(catalog.clone());
    let rows = db.run_query_ast(&ast, None, "envelope")?.rows;
    let gathered = split_gathered(rows, arity, &template);
    let prover = Prover::new(g, &template);
    let mut accepted: Vec<Row> = gathered
        .candidates
        .iter()
        .enumerate()
        .filter(|&(i, cand)| {
            passes(&template.formula, cand, gathered.flags(i), &|li| {
                prover.lit_conflict_free(li, cand)
            })
        })
        .map(|(_, cand)| cand.clone())
        .collect();
    accepted.sort();
    accepted.dedup();
    Ok(accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::DenialConstraint;
    use crate::detect::detect_conflicts;
    use crate::hippo::tests::emp_db;
    use crate::pred::{CmpOp, Pred};
    use crate::prover::catalog_flags;
    use hippo_engine::Value;

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
