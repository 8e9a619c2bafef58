//! Ground truth and strawman baselines.
//!
//! * [`naive_consistent_answers`] — the definitional semantics: enumerate
//!   every repair, evaluate the query in each, intersect. Exponential; used
//!   to validate Hippo and to measure the blow-up in experiment E7 (this is
//!   also how the logic-programming comparators behave asymptotically).
//! * [`conflict_free_answers`] — the "traditional approach" from the
//!   paper's demo part 1: delete all conflicting tuples, then query. Sound
//!   but incomplete: it loses answers CQA can still derive.
//! * [`core_filter_direct`] — the core filter evaluated set-at-a-time, the
//!   reference for the library's per-candidate test.

use crate::repair::{core_instance, enumerate_repairs, repair_instance};
use hippo_cqa::envelope::envelope;
use hippo_cqa::hypergraph::ConflictHypergraph;
use hippo_cqa::query::SjudQuery;
use hippo_engine::{Catalog, Row};
use std::collections::HashSet;

/// Consistent answers by full repair enumeration (exponential; ground
/// truth). Returns sorted rows.
pub fn naive_consistent_answers(
    q: &SjudQuery,
    catalog: &Catalog,
    g: &ConflictHypergraph,
) -> Vec<Row> {
    let repairs = enumerate_repairs(g, None);
    let mut acc: Option<HashSet<Row>> = None;
    for kept in &repairs {
        let inst = repair_instance(catalog, g, kept);
        let rows: HashSet<Row> = q.eval_over(&inst).into_iter().collect();
        acc = Some(match acc {
            None => rows,
            Some(prev) => prev.intersection(&rows).cloned().collect(),
        });
        if let Some(a) = &acc {
            if a.is_empty() {
                break; // intersection can only shrink
            }
        }
    }
    let mut out: Vec<Row> = acc.unwrap_or_default().into_iter().collect();
    out.sort();
    out
}

/// The "delete all conflicting tuples, then query" strawman.
pub fn conflict_free_answers(q: &SjudQuery, catalog: &Catalog, g: &ConflictHypergraph) -> Vec<Row> {
    let inst = core_instance(catalog, g);
    q.eval_over(&inst)
}

/// Plain query evaluation on the inconsistent instance (ignoring
/// inconsistency altogether) — the paper's RDBMS-only reference point.
pub fn plain_answers(q: &SjudQuery, catalog: &Catalog) -> Vec<Row> {
    q.eval_over(&|rel: &str| catalog.table(rel).map(|t| t.rows()).unwrap_or_default())
}

/// The core filter by direct (set-at-a-time) evaluation over instance
/// views: positive leaves read the conflict-free core, subtracted
/// branches their envelope over the full instance. The reference the
/// library's per-candidate test (`hippo_cqa::corefilter`) is checked
/// against; rows compare by identity, so it differs from that test on
/// `NULL`-bearing tuples. Sorted and deduplicated.
pub fn core_filter_direct(q: &SjudQuery, catalog: &Catalog, g: &ConflictHypergraph) -> Vec<Row> {
    let core = core_instance(catalog, g);
    filter_query(q).eval_over(&|rel: &str| match rel.strip_prefix(CORE) {
        Some(rel) => core(rel),
        None => catalog.table(rel).map(|t| t.rows()).unwrap_or_default(),
    })
}

/// Prefix of a relation name that reads the conflict-free core; no SQL
/// identifier contains it.
const CORE: &str = "core:";

/// `q` with each positive leaf renamed to read the core, and each
/// subtracted branch replaced by its envelope over the full instance (an
/// over-approximation of the branch in any repair, so what survives the
/// subtraction is absent from it in every repair).
fn filter_query(q: &SjudQuery) -> SjudQuery {
    match q {
        SjudQuery::Rel(r) => SjudQuery::rel(format!("{CORE}{r}")),
        SjudQuery::Select { input, pred } => filter_query(input).select(pred.clone()),
        SjudQuery::Product(l, r) => filter_query(l).product(filter_query(r)),
        SjudQuery::Union(l, r) => filter_query(l).union(filter_query(r)),
        SjudQuery::Diff(l, r) => filter_query(l).diff(envelope(r)),
        SjudQuery::Permute { input, perm } => filter_query(input).permute(perm.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emp_db;
    use hippo_cqa::prelude::*;
    use hippo_engine::{Column, DataType, TableSchema, Value};

    #[test]
    fn naive_on_consistent_instance_is_plain_result() {
        let db = emp_db(&[("ann", 100), ("bob", 200)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        let q = SjudQuery::rel("emp");
        assert_eq!(
            naive_consistent_answers(&q, db.catalog(), &g),
            plain_answers(&q, db.catalog())
        );
    }

    #[test]
    fn naive_drops_conflicting_tuples_for_relation_query() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        let q = SjudQuery::rel("emp");
        assert_eq!(
            naive_consistent_answers(&q, db.catalog(), &g),
            vec![vec![Value::text("bob"), Value::Int(300)]]
        );
    }

    /// Demo part 1's point: CQA can extract strictly more information than
    /// deleting conflicting tuples. A union query answers "ann earns 100
    /// or 200" (indefinite information), which the conflict-free instance
    /// cannot see at all. With tuple-level queries the effect shows as:
    /// the union of the two possible salaries is consistently answerable
    /// *as a disjunction* — here we show a difference query where CQA keeps
    /// an answer the strawman loses.
    #[test]
    fn cqa_extracts_more_than_conflict_free() {
        // u(name, salary) lists payroll entries; emp has an FD violation on
        // ann. Query: u − σ_{salary>=150}(emp). In every repair, ann's
        // u-row survives iff (ann,100) case... Let's use bob: u has
        // (bob,42); emp has no bob → subtraction never removes it.
        // Make ann's case interesting: u has (ann,100); emp repairs are
        // {(ann,100)} and {(ann,200)}; σ>=150 contains (ann,200) only in
        // the second; (ann,100) from u is never in σ>=150(emp) as a *tuple*
        // (values differ in salary? no - (ann,100) vs (ann,200) differ) →
        // (ann,100) is a consistent answer of the difference.
        let mut db = emp_db(&[("ann", 100), ("ann", 200)]);
        db.catalog_mut()
            .create_table(
                TableSchema::new(
                    "u",
                    vec![
                        Column::new("name", DataType::Text),
                        Column::new("salary", DataType::Int),
                    ],
                    &[],
                )
                .unwrap(),
            )
            .unwrap();
        db.insert_rows("u", vec![vec![Value::text("ann"), Value::Int(100)]])
            .unwrap();
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        // q: tuples of u that are, in every repair, not conflicting emp
        // tuples with salary < 150.
        let q = SjudQuery::rel("u").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
            1,
            CmpOp::Lt,
            150i64,
        )));
        let cqa = naive_consistent_answers(&q, db.catalog(), &g);
        let strawman = conflict_free_answers(&q, db.catalog(), &g);
        // CQA: (ann,100) ∈ u always; (ann,100) ∈ σ<150(emp) only in the
        // repair keeping (ann,100) → NOT consistent. Strawman: emp core is
        // empty → subtraction empty → (ann,100) returned. Here the
        // strawman *overclaims* (unsound direction of the comparison), and
        // CQA is properly cautious:
        assert!(cqa.is_empty());
        assert_eq!(strawman.len(), 1);
        // And the union query shows CQA extracting indefinite information:
        // "some ann tuple is in emp" holds in every repair.
        let q_union = SjudQuery::rel("emp")
            .select(Pred::cmp_const(1, CmpOp::Eq, 100i64))
            .union(SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Eq, 200i64)))
            .permute(vec![0, 0]);
        let cqa_union = naive_consistent_answers(&q_union, db.catalog(), &g);
        assert_eq!(
            cqa_union,
            vec![vec![Value::text("ann"), Value::text("ann")]],
            "the disjunctive fact about ann is consistently true"
        );
        let straw_union = conflict_free_answers(&q_union, db.catalog(), &g);
        assert!(
            straw_union.is_empty(),
            "strawman loses the disjunctive fact"
        );
    }

    #[test]
    fn plain_answers_ignore_inconsistency() {
        let db = emp_db(&[("ann", 100), ("ann", 200)]);
        let q = SjudQuery::rel("emp");
        assert_eq!(plain_answers(&q, db.catalog()).len(), 2);
    }
}
