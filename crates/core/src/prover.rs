//! HProver: deciding consistent membership with the conflict hypergraph.
//!
//! A candidate tuple `t` is a **consistent answer** to `Q` iff `t ∈ Q(D')`
//! for every repair `D'`. The prover decides the complement: is there a
//! repair falsifying membership?
//!
//! 1. Instantiate the membership template for `t`, negate it, convert to
//!    DNF. Each disjunct demands certain facts **in** the repair (set `A`)
//!    and certain facts **out** (set `B`).
//! 2. A disjunct is repair-satisfiable iff there is an independent witness
//!    `S` with `A ⊆ S`, `S ∩ B = ∅`, such that every `b ∈ B` that exists
//!    in the database is *blocked* by a hyperedge `e ∋ b` with
//!    `e ∖ {b} ⊆ S` (maximality forces `b` in otherwise). Facts absent
//!    from `D` satisfy their negative literal trivially and falsify
//!    positive literals outright; facts present but non-conflicting are in
//!    every repair.
//! 3. Blocking-edge choices interact, so the prover backtracks over the
//!    candidate edges of each `b`. `|A| + |B|` is bounded by query size,
//!    so data complexity stays polynomial.
//!
//! Membership of facts in `D` arrives as one flag per literal template,
//! resolved for the candidate before the prover runs; [`crate::kg`] is
//! the one place that decides where the flags come from.
//!
//! # Batched proving
//!
//! A [`Prover`] owns no per-candidate state beyond a reusable
//! **workspace** (literal-row buffers, witness sets): the immutable
//! part — hypergraph, compiled template, per-literal interned relation
//! indexes — is split from the per-call scratch, so one prover instance
//! decides a whole batch of candidates with zero steady-state
//! allocation, and [`crate::hippo::FrozenHippo::answer`] runs one
//! prover per shard over a shared read-only graph (see the shard →
//! merge answer pipeline in [`crate::hippo`]).
//!
//! # Conflict-closure signatures
//!
//! [`Prover::closure_signature`] fingerprints a candidate by everything
//! the proof can depend on: the truth of each template guard on the
//! candidate, and per literal the prefetched membership flag plus the
//! interned [`crate::hypergraph::FactId`] of the instantiated fact
//! (`None` for facts outside every conflict). Two candidates with equal
//! signatures present the prover with bit-identical inputs — same
//! instantiated formula, same membership answers, same conflict
//! neighbourhoods — so their verdicts are interchangeable. The answer
//! pipeline memoizes verdicts per signature: on low-conflict workloads
//! every conflict-free candidate with the same guard/flag pattern
//! collapses to a single prover call per equivalence class.

use crate::formula::{to_dnf, Disjunct, MembershipTemplate};
use crate::hypergraph::{ConflictHypergraph, Vertex};
use crate::pred::Pred;
use hippo_engine::Row;
use rustc_hash::FxHashSet;

/// Counters accumulated while proving (experiment E5 reports these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProverRunStats {
    /// Tuples checked.
    pub tuples_checked: usize,
    /// DNF disjuncts examined.
    pub disjuncts_checked: usize,
    /// Blocking-edge backtracking steps.
    pub edge_visits: usize,
}

/// The prover, borrowing the hypergraph and the compiled query template.
///
/// The immutable inputs (graph, template, per-literal interned relation
/// indexes, guard list) are fixed at construction; everything a single
/// [`Prover::is_consistent_answer`] call needs — literal-row buffers,
/// witness sets — lives in a reusable workspace, so deciding a batch of
/// candidates allocates only on the first call.
pub(crate) struct Prover<'a> {
    graph: &'a ConflictHypergraph,
    template: &'a MembershipTemplate,
    /// Per-literal interned relation index in the graph (`None` when the
    /// relation is in no conflict at all, so no fact of it is interned).
    lit_rels: Vec<Option<u32>>,
    /// Template guards in deterministic pre-order (signature input).
    guards: Vec<&'a Pred>,
    /// Statistics for this run.
    pub stats: ProverRunStats,
    // ---- reusable per-call workspace ----
    lit_rows: Vec<Row>,
    a_set: FxHashSet<Vertex>,
    s_set: FxHashSet<Vertex>,
}

impl<'a> Prover<'a> {
    /// Create a prover for one query template.
    pub(crate) fn new(
        graph: &'a ConflictHypergraph,
        template: &'a MembershipTemplate,
    ) -> Prover<'a> {
        let lit_rels = template
            .literals
            .iter()
            .map(|l| graph.relation_index(&l.rel))
            .collect();
        let guards = template.guards();
        Prover {
            graph,
            template,
            lit_rels,
            guards,
            stats: ProverRunStats::default(),
            lit_rows: Vec::new(),
            a_set: FxHashSet::default(),
            s_set: FxHashSet::default(),
        }
    }

    /// Conflicting vertices carrying literal `li`'s fact for the current
    /// tuple (resolved through the interned-fact index; empty for facts
    /// outside every conflict).
    fn lit_vertices(&self, li: usize, lit_rows: &[Row]) -> &'a [Vertex] {
        match self.lit_rels[li].and_then(|r| self.graph.fact_id_interned(r, &lit_rows[li])) {
            Some(fid) => self.graph.vertices_of_fact_id(fid),
            None => &[],
        }
    }

    /// Does literal `li`'s fact, instantiated with `tuple`, carry no
    /// conflicting vertex? Such a fact, if present, is in every repair —
    /// the positive-position condition of the core filter
    /// ([`crate::corefilter`]). Allocation-free, like
    /// [`Prover::closure_signature`]'s probe.
    pub(crate) fn lit_conflict_free(&self, li: usize, tuple: &Row) -> bool {
        let cols = &self.template.literals[li].cols;
        self.lit_rels[li]
            .and_then(|r| self.graph.fact_id_projected(r, tuple, cols))
            .is_none_or(|fid| self.graph.vertices_of_fact_id(fid).is_empty())
    }

    /// Compute the candidate's **conflict-closure signature** into `sig`
    /// (cleared first): packed guard truth bits, then one word per
    /// literal combining the prefetched membership flag with the
    /// interned [`crate::hypergraph::FactId`] of the instantiated fact.
    /// Equal signatures (under one prover) guarantee equal verdicts, so
    /// callers may cache `is_consistent_answer` results keyed by the
    /// signature. Allocation-free: facts are probed as projections of
    /// `tuple`, never materialised. `flags` must be the per-literal
    /// membership answers (knowledge gathering prefetches them).
    pub(crate) fn closure_signature(&self, tuple: &Row, flags: &[bool], sig: &mut Vec<u64>) {
        debug_assert_eq!(flags.len(), self.template.literals.len());
        sig.clear();
        let mut word = 0u64;
        for (i, g) in self.guards.iter().enumerate() {
            if g.eval(tuple) {
                word |= 1 << (i % 64);
            }
            if i % 64 == 63 {
                sig.push(word);
                word = 0;
            }
        }
        if !self.guards.len().is_multiple_of(64) {
            sig.push(word);
        }
        for (li, lit) in self.template.literals.iter().enumerate() {
            let fid =
                self.lit_rels[li].and_then(|r| self.graph.fact_id_projected(r, tuple, &lit.cols));
            sig.push(u64::from(flags[li]) | fid.map_or(0, |f| (u64::from(f.0) + 1) << 1));
        }
    }

    /// Is `tuple` a consistent answer to the template's query?
    /// `flags[li]` says whether literal `li`'s fact, instantiated with
    /// `tuple`, is present in the database.
    pub(crate) fn is_consistent_answer(&mut self, tuple: &Row, flags: &[bool]) -> bool {
        debug_assert_eq!(flags.len(), self.template.literals.len());
        self.stats.tuples_checked += 1;
        let formula = self.template.instantiate(tuple);
        let negated = crate::formula::negate(formula);
        let dnf = to_dnf(&negated);
        if dnf.is_empty() {
            return true;
        }
        // Resolve every literal once per tuple into the reusable
        // workspace: instantiating a literal template is the only place
        // row values are copied; all later hypergraph probes borrow
        // from here.
        let mut lit_rows = std::mem::take(&mut self.lit_rows);
        lit_rows.resize_with(self.template.literals.len(), Row::new);
        for (li, lit) in self.template.literals.iter().enumerate() {
            let row = &mut lit_rows[li];
            row.clear();
            row.extend(lit.cols.iter().map(|&c| tuple[c].clone()));
        }
        let mut verdict = true;
        for disjunct in &dnf {
            self.stats.disjuncts_checked += 1;
            if self.disjunct_satisfiable(disjunct, &lit_rows, flags) {
                // Some repair falsifies membership → not consistent.
                verdict = false;
                break;
            }
        }
        self.lit_rows = lit_rows;
        verdict
    }

    /// Can some repair contain all `positive` facts and none of the
    /// `negative` facts?
    fn disjunct_satisfiable(&mut self, d: &Disjunct, lit_rows: &[Row], in_db: &[bool]) -> bool {
        // Resolve literals to facts and database status.
        // A-side: every positive fact must exist in D; collect the vertex
        // choices carrying it (non-conflicting facts are in every repair
        // and impose nothing). Choices borrow the hypergraph's fact index
        // directly — no copy.
        let mut a_choices: Vec<&[Vertex]> = Vec::new();
        for &li in &d.positive {
            if !in_db[li] {
                return false; // required fact missing from D entirely
            }
            let vs = self.lit_vertices(li, lit_rows);
            if !vs.is_empty() {
                // Conflicting fact: must pick one of its physical tuples to
                // keep. (Non-conflicting facts are kept automatically.)
                a_choices.push(vs);
            }
        }
        // B-side: negative facts absent from D are trivially satisfied;
        // present, non-conflicting facts are in every repair → unsat;
        // present conflicting facts must have *all* their carrying
        // vertices excluded.
        let mut b_vertices: Vec<Vertex> = Vec::new();
        for &li in &d.negative {
            if !in_db[li] {
                continue;
            }
            let vs = self.lit_vertices(li, lit_rows);
            if vs.is_empty() {
                return false; // in D, never in a conflict → in every repair
            }
            b_vertices.extend_from_slice(vs);
        }
        b_vertices.sort_unstable();
        b_vertices.dedup();

        // Enumerate A-side vertex choices (usually singletons) with the
        // reusable witness sets.
        let mut a = std::mem::take(&mut self.a_set);
        let mut s = std::mem::take(&mut self.s_set);
        a.clear();
        let out = self.enumerate_a(&a_choices, 0, &mut a, &b_vertices, &mut s);
        self.a_set = a;
        self.s_set = s;
        out
    }

    fn enumerate_a(
        &mut self,
        choices: &[&[Vertex]],
        idx: usize,
        a: &mut FxHashSet<Vertex>,
        b: &[Vertex],
        s: &mut FxHashSet<Vertex>,
    ) -> bool {
        if idx == choices.len() {
            // A complete; reject if it intersects B (B is sorted).
            if a.iter().any(|v| b.binary_search(v).is_ok()) {
                return false;
            }
            if !self.graph.is_independent(a) {
                return false;
            }
            s.clear();
            s.extend(a.iter().copied());
            return self.block_all(b, 0, s);
        }
        for &v in choices[idx] {
            let inserted = a.insert(v);
            let ok = self.enumerate_a(choices, idx + 1, a, b, s);
            if inserted {
                a.remove(&v);
            }
            if ok {
                return true;
            }
        }
        false
    }

    /// Backtracking search for blocking edges: for each `b` pick an edge
    /// `e ∋ b` with `e ∖ {b}` disjoint from B, add `e ∖ {b}` to the witness
    /// `s`, and keep `s` independent. `b` stays sorted, so exclusion tests
    /// are binary searches.
    fn block_all(&mut self, b: &[Vertex], idx: usize, s: &mut FxHashSet<Vertex>) -> bool {
        if idx == b.len() {
            return true;
        }
        let graph = self.graph;
        let v = b[idx];
        // Already blocked by the current witness? (Common: v conflicts
        // directly with an A-side vertex.)
        if graph.is_blocked_by(v, s) {
            return self.block_all(b, idx + 1, s);
        }
        for &eid in graph.edges_of(v) {
            self.stats.edge_visits += 1;
            let edge = graph.edge(eid);
            // e ∖ {v} must avoid B (those must stay out) and v itself.
            if edge.iter().any(|u| *u != v && b.binary_search(u).is_ok()) {
                continue;
            }
            let added: Vec<Vertex> = edge
                .iter()
                .filter(|u| **u != v && !s.contains(*u))
                .copied()
                .collect();
            for &u in &added {
                s.insert(u);
            }
            if graph.is_independent(s) && self.block_all(b, idx + 1, s) {
                return true;
            }
            for &u in &added {
                s.remove(&u);
            }
        }
        false
    }
}

/// Test helper: a candidate's per-literal membership flags straight
/// from the catalog (exact-row lookup, no SQL).
#[cfg(test)]
pub(crate) fn catalog_flags(
    template: &MembershipTemplate,
    catalog: &hippo_engine::Catalog,
    tuple: &Row,
) -> Vec<bool> {
    template
        .literals
        .iter()
        .map(|lit| {
            let fact: Row = lit.cols.iter().map(|&c| tuple[c].clone()).collect();
            !catalog
                .table(&lit.rel)
                .unwrap()
                .find_exact(&fact)
                .is_empty()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::DenialConstraint;
    use crate::detect::detect_conflicts;
    use crate::hippo::tests::emp_db;
    use crate::pred::{CmpOp, Pred};
    use crate::query::SjudQuery;
    use hippo_engine::{Column, DataType, Database, TableSchema, Value};

    fn check(
        db: &Database,
        constraints: &[DenialConstraint],
        q: &SjudQuery,
        tuple: Vec<Value>,
    ) -> bool {
        let (g, _) = detect_conflicts(db.catalog(), constraints).unwrap();
        let template = MembershipTemplate::build(q, db.catalog()).unwrap();
        let mut prover = Prover::new(&g, &template);
        let flags = catalog_flags(&template, db.catalog(), &tuple);
        prover.is_consistent_answer(&tuple, &flags)
    }

    #[test]
    fn conflicting_tuple_is_not_consistent() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let q = SjudQuery::rel("emp");
        assert!(!check(
            &db,
            &fd,
            &q,
            vec![Value::text("ann"), Value::Int(100)]
        ));
        assert!(!check(
            &db,
            &fd,
            &q,
            vec![Value::text("ann"), Value::Int(200)]
        ));
        assert!(check(
            &db,
            &fd,
            &q,
            vec![Value::text("bob"), Value::Int(300)]
        ));
    }

    #[test]
    fn absent_tuple_is_not_consistent_for_positive_query() {
        let db = emp_db(&[("ann", 100)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let q = SjudQuery::rel("emp");
        assert!(!check(
            &db,
            &fd,
            &q,
            vec![Value::text("zzz"), Value::Int(1)]
        ));
    }

    #[test]
    fn selection_gates_consistency() {
        let db = emp_db(&[("ann", 100), ("bob", 300)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let q = SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 200i64));
        assert!(check(
            &db,
            &fd,
            &q,
            vec![Value::text("bob"), Value::Int(300)]
        ));
        assert!(
            !check(&db, &fd, &q, vec![Value::text("ann"), Value::Int(100)]),
            "fails the selection, so not an answer at all"
        );
    }

    #[test]
    fn union_saves_tuples_conflicting_on_one_side() {
        // ann appears with two salaries; query: salary >= 150 ∪ salary < 150.
        // Each disjunct alone is inconsistent for ann, but the union
        // σ≥150(emp) ∪ σ<150(emp) contains *neither* ann tuple in every
        // repair... Actually each repair keeps exactly one ann tuple, which
        // satisfies one of the two selections; the *fact* (ann, 100) is in
        // the union result only when that tuple is kept. So (ann,100) is
        // still not consistent. The union that demonstrates indefinite
        // information is over *permuted* name-only style queries, which
        // need projection; here we verify the formula semantics instead:
        let db = emp_db(&[("ann", 100), ("ann", 200)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let q = SjudQuery::rel("emp")
            .select(Pred::cmp_const(1, CmpOp::Ge, 150i64))
            .union(SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Lt, 150i64)));
        assert!(!check(
            &db,
            &fd,
            &q,
            vec![Value::text("ann"), Value::Int(100)]
        ));
    }

    #[test]
    fn difference_with_conflicting_subtrahend() {
        // q = emp − σ_{salary<150}(emp). For bob (no conflict, salary 300):
        // bob ∈ emp always, bob ∉ σ (salary 300) → consistent.
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
            1,
            CmpOp::Lt,
            150i64,
        )));
        assert!(check(
            &db,
            &fd,
            &q,
            vec![Value::text("bob"), Value::Int(300)]
        ));
        // (ann, 200): in the repair keeping (ann,200), 200 ∉ σ<150 → in
        // result; in the repair keeping (ann,100), (ann,200) ∉ emp → not in
        // result. Not consistent.
        assert!(!check(
            &db,
            &fd,
            &q,
            vec![Value::text("ann"), Value::Int(200)]
        ));
    }

    #[test]
    fn difference_where_subtrahend_tuple_is_in_no_repair() {
        // Add a CHECK constraint banning negative salaries: (cyd, -5) is in
        // no repair (singleton edge). Then cyd's row in `other` minus
        // emp-rows-with-name-cyd: consistent because the emp tuple is
        // always deleted.
        use crate::constraint::{AttrRef, Comparison, Term};
        let mut db = emp_db(&[("cyd", -5)]);
        db.catalog_mut()
            .create_table(
                TableSchema::new(
                    "other",
                    vec![
                        Column::new("name", DataType::Text),
                        Column::new("salary", DataType::Int),
                    ],
                    &[],
                )
                .unwrap(),
            )
            .unwrap();
        db.insert_rows("other", vec![vec![Value::text("cyd"), Value::Int(-5)]])
            .unwrap();
        let chk = DenialConstraint::check(
            "emp",
            vec![Comparison {
                op: CmpOp::Lt,
                left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                right: Term::Const(Value::Int(0)),
            }],
        );
        let q = SjudQuery::rel("other").diff(SjudQuery::rel("emp"));
        // (cyd, -5) ∈ other (consistent, no constraints on other); the
        // subtracted emp tuple is in no repair → answer is consistent.
        assert!(check(
            &db,
            &[chk],
            &q,
            vec![Value::text("cyd"), Value::Int(-5)]
        ));
    }

    #[test]
    fn product_requires_both_sides_consistent() {
        let mut db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
        db.catalog_mut()
            .create_table(
                TableSchema::new("dept", vec![Column::new("dname", DataType::Text)], &[]).unwrap(),
            )
            .unwrap();
        db.insert_rows("dept", vec![vec![Value::text("cs")]])
            .unwrap();
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let q = SjudQuery::rel("emp").product(SjudQuery::rel("dept"));
        assert!(check(
            &db,
            &fd,
            &q,
            vec![Value::text("bob"), Value::Int(300), Value::text("cs")]
        ));
        assert!(!check(
            &db,
            &fd,
            &q,
            vec![Value::text("ann"), Value::Int(100), Value::text("cs")]
        ));
    }

    #[test]
    fn stats_are_recorded() {
        let db = emp_db(&[("ann", 100), ("ann", 200)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        let q = SjudQuery::rel("emp");
        let template = MembershipTemplate::build(&q, db.catalog()).unwrap();
        let mut prover = Prover::new(&g, &template);
        prover.is_consistent_answer(&vec![Value::text("ann"), Value::Int(100)], &[true]);
        assert_eq!(prover.stats.tuples_checked, 1);
        assert!(prover.stats.disjuncts_checked >= 1);
    }

    #[test]
    fn equal_signatures_imply_equal_verdicts() {
        // Four candidates: two conflict-free with identical flags (must
        // share a signature), one conflicting (distinct), one failing a
        // guard (distinct from the passing ones).
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300), ("cyd", 400)]);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        let q = SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 150i64));
        let template = MembershipTemplate::build(&q, db.catalog()).unwrap();
        let prover = Prover::new(&g, &template);
        let sig = |row: &Row| {
            let mut s = Vec::new();
            prover.closure_signature(row, &[true], &mut s);
            s
        };
        let bob = vec![Value::text("bob"), Value::Int(300)];
        let cyd = vec![Value::text("cyd"), Value::Int(400)];
        let ann = vec![Value::text("ann"), Value::Int(200)];
        let low = vec![Value::text("bob"), Value::Int(100)];
        assert_eq!(sig(&bob), sig(&cyd), "conflict-free candidates collapse");
        assert_ne!(
            sig(&bob),
            sig(&ann),
            "conflicting fact changes the signature"
        );
        assert_ne!(sig(&bob), sig(&low), "guard outcome changes the signature");
        // And the collapse is sound: identical verdicts.
        let mut prover = prover;
        assert_eq!(
            prover.is_consistent_answer(&bob, &[true]),
            prover.is_consistent_answer(&cyd, &[true])
        );
    }
}
