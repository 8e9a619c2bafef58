//! Property-based tests over randomized instances and queries.
//!
//! The central invariants of the system:
//! * repairs are independent and maximal;
//! * Hippo (every optimization level) ≡ naive repair-enumeration CQA;
//! * core filter ⊆ consistent answers ⊆ envelope;
//! * query rewriting ≡ ground truth on its supported class;
//! * SJUD SQL rendering ≡ direct algebra evaluation.

#[path = "../examples/payroll_audit/aggregate.rs"]
mod aggregate;

use aggregate::{range_aggregate_fd, range_aggregate_naive, AggOp};
use hippo::cqa::corefilter::{core_filter_direct, core_filter_set};
use hippo::cqa::detect::detect_conflicts;
use hippo::cqa::formula::MembershipTemplate;
use hippo::cqa::hippo::PROVER_SHARDS;
use hippo::cqa::kg::{extended_envelope_sql, split_gathered};
use hippo::cqa::naive::naive_consistent_answers;
use hippo::cqa::parallel::split_ranges;
use hippo::cqa::prelude::*;
use hippo::engine::{Database, Row, Value};
use proptest::prelude::*;
use std::collections::HashSet;

/// A live system answers by freezing, then the one answer call.
fn answer(h: &Hippo, q: &SjudQuery) -> Result<ConsistentAnswer, hippo_engine::EngineError> {
    h.freeze()?.answer(q, &h.options)
}

/// A small random instance: emp(name:int, salary:int) with values from a
/// narrow domain so conflicts happen often but repairs stay enumerable.
fn arb_instance() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..6, 0i64..4), 0..12)
}

fn build_db(rows: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE emp (name INT, salary INT)")
        .unwrap();
    // Deduplicate: the theory assumes set instances.
    let unique: HashSet<(i64, i64)> = rows.iter().copied().collect();
    db.insert_rows(
        "emp",
        unique
            .into_iter()
            .map(|(n, s)| vec![Value::Int(n), Value::Int(s)])
            .collect(),
    )
    .unwrap();
    db
}

/// A small random SJUD query over emp.
fn arb_query() -> impl Strategy<Value = SjudQuery> {
    let leaf = Just(SjudQuery::rel("emp"));
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), 0i64..4).prop_map(|(q, c)| q.select(Pred::cmp_const(1, CmpOp::Ge, c))),
            (inner.clone(), 0i64..6).prop_map(|(q, c)| q.select(Pred::cmp_const(0, CmpOp::Eq, c))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.diff(b)),
            inner.clone().prop_map(|q| q.permute(vec![1, 0])),
        ]
    })
    // Keep arity 2 everywhere: unions/diffs of same-shaped subqueries.
    .prop_filter("arity-2 only", query_arity_ok)
}

fn query_arity_ok(q: &SjudQuery) -> bool {
    fn arity(q: &SjudQuery) -> Option<usize> {
        match q {
            SjudQuery::Rel(_) => Some(2),
            SjudQuery::Select { input, .. } => arity(input),
            SjudQuery::Product(l, r) => Some(arity(l)? + arity(r)?),
            SjudQuery::Union(l, r) | SjudQuery::Diff(l, r) => {
                let (a, b) = (arity(l)?, arity(r)?);
                (a == b).then_some(a)
            }
            SjudQuery::Permute { input, perm } => {
                let a = arity(input)?;
                (perm.iter().all(|&p| p < a) && (0..a).all(|c| perm.contains(&c)))
                    .then_some(perm.len())
            }
        }
    }
    arity(q).is_some()
}

/// Rows of two binary relations.
type TwoRelRows = (Vec<(i64, i64)>, Vec<(i64, i64)>);

/// Bag instances for the core-filter property: `emp` (under the FD
/// `name → salary`) and `dept` (under no constraint, so in no conflict),
/// duplicate rows kept.
fn arb_bag_instance() -> impl Strategy<Value = TwoRelRows> {
    (
        prop::collection::vec((0i64..5, 0i64..3), 0..10),
        prop::collection::vec((0i64..5, 0i64..3), 0..6),
    )
}

/// Two binary relations loaded as given, duplicate rows included; a
/// `None` value is `NULL`.
fn build_bag_db<V: Copy + Into<Option<i64>>>(tables: [(&str, &[(V, V)]); 2]) -> Database {
    let mut db = Database::new();
    let value = |v: V| v.into().map_or(Value::Null, Value::Int);
    for (name, rows) in tables {
        db.execute(&format!("CREATE TABLE {name} (name INT, salary INT)"))
            .unwrap();
        db.insert_rows(
            name,
            rows.iter()
                .map(|&(n, s)| vec![value(n), value(s)])
                .collect(),
        )
        .unwrap();
    }
    db
}

/// Random SJUD queries over `emp` and `dept`: nested union / difference,
/// the column swap, and the duplicating permutation `[0, 1, 0]` (which
/// raises the arity, so a union or difference above it needs it on both
/// sides — mismatches are filtered out).
fn arb_bag_query() -> impl Strategy<Value = SjudQuery> {
    let leaf = prop_oneof![Just(SjudQuery::rel("emp")), Just(SjudQuery::rel("dept"))];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), 0i64..3).prop_map(|(q, c)| q.select(Pred::cmp_const(1, CmpOp::Ge, c))),
            (inner.clone(), 0i64..5).prop_map(|(q, c)| q.select(Pred::cmp_const(0, CmpOp::Eq, c))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.diff(b)),
            inner.clone().prop_map(|q| q.permute(vec![1, 0])),
            inner.clone().prop_map(|q| q.permute(vec![0, 1, 0])),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| a.permute(vec![0, 1, 0]).diff(b.permute(vec![0, 1, 0]))),
            // A subtraction inside a subtracted branch (dropped by the
            // branch's envelope).
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(a, b, c)| a.diff(b.diff(c))),
        ]
    })
    .prop_filter("consistent arities", query_arity_ok)
}

/// The extended envelope's candidates, in its order, after checking
/// every flag [`split_gathered`] returns against a membership check of
/// this test's own: the literal's fact has no `NULL` and its relation
/// holds an identical row.
fn checked_candidates(q: &SjudQuery, db: &Database) -> Vec<Row> {
    let cat = db.catalog();
    let template = MembershipTemplate::build(q, cat).unwrap();
    let ast = extended_envelope_sql(&envelope(q), &template, cat).unwrap();
    let rows = db.query(&hippo::sql::print_query(&ast)).unwrap().rows;
    let gathered = split_gathered(rows, q.validate(cat).unwrap(), &template);
    for (cand, flags) in gathered.candidates.iter().zip(&gathered.flags) {
        assert_eq!(flags.len(), template.literals.len());
        for (lit, &flag) in template.literals.iter().zip(flags) {
            let fact: Vec<&Value> = lit.cols.iter().map(|&c| &cand[c]).collect();
            let member = fact.iter().all(|v| !v.is_null())
                && cat
                    .table(&lit.rel)
                    .unwrap()
                    .iter()
                    .any(|(_, row)| row.iter().eq(fact.iter().copied()));
            assert_eq!(flag, member, "{} flag of {:?} for {}", lit.rel, cand, q);
        }
    }
    gathered.candidates
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn repairs_are_independent_and_maximal(rows in arb_instance()) {
        let db = build_db(&rows);
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g, _) = detect_conflicts(db.catalog(), &fd).unwrap();
        let repairs = enumerate_repairs(&g, None);
        prop_assert!(!repairs.is_empty(), "at least one repair always exists");
        for r in &repairs {
            prop_assert!(is_repair(&g, r));
        }
        // Repairs are pairwise incomparable (no repair contains another).
        for a in &repairs {
            for b in &repairs {
                if a != b {
                    prop_assert!(!a.is_subset(b), "repairs must be ⊆-incomparable");
                }
            }
        }
    }

    #[test]
    fn hippo_equals_naive_ground_truth(rows in arb_instance(), q in arb_query()) {
        let constraints = vec![DenialConstraint::functional_dependency("emp", &[0], 1)];
        let db = build_db(&rows);
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        for opts in [HippoOptions::base(), HippoOptions::kg(), HippoOptions::full()] {
            let hippo = Hippo::with_options(build_db(&rows), constraints.clone(), opts.clone()).unwrap();
            let got = answer(&hippo, &q).unwrap().rows;
            prop_assert_eq!(&got, &truth, "query {} opts {:?}", q, opts);
        }
    }

    /// The core filter, against its set-at-a-time reference and the
    /// repair-enumeration oracle, over bag instances (duplicate rows
    /// kept), a relation in no conflict (`dept`) and nested
    /// union/difference/duplicating-permutation queries:
    /// `{c ∈ envelope : test(c)}` = `core_filter_direct` ⊆ consistent ⊆
    /// envelope, and full mode's counters are the ones the reference
    /// predicts, at any prover thread count.
    #[test]
    fn filter_subset_consistent_subset_envelope(
        (emp, dept) in arb_bag_instance(),
        q in arb_bag_query(),
    ) {
        let constraints = vec![DenialConstraint::functional_dependency("emp", &[0], 1)];
        let db = build_bag_db([("emp", &emp), ("dept", &dept)]);
        let cat = db.catalog();
        let (g, _) = detect_conflicts(cat, &constraints).unwrap();
        let truth = naive_consistent_answers(&q, cat, &g);
        let truth_set: HashSet<&Row> = truth.iter().collect();
        // per-candidate test ≡ direct evaluation
        let direct = core_filter_direct(&q, cat, &g);
        prop_assert_eq!(&core_filter_set(&q, cat, &g), &direct, "filter diverges for {}", q);
        // core filter ⊆ consistent
        for row in &direct {
            prop_assert!(truth_set.contains(row), "filter overclaims {:?} for {}", row, q);
        }
        // consistent ⊆ envelope(D)
        let env_rows: HashSet<Row> =
            envelope(&q).eval_on_catalog(cat).unwrap().into_iter().collect();
        for row in &truth {
            prop_assert!(env_rows.contains(row), "envelope misses {:?} for {}", row, q);
        }

        // The counters the reference predicts: the candidates are the KG
        // envelope's rows in its order, deduplicated within each fixed
        // shard; those in the reference filter skip the prover, the rest
        // reach it and are decided by a cache hit or a prover run.
        let cands = checked_candidates(&q, &db);
        let (mut decided, mut filtered) = (0, 0);
        for (lo, hi) in split_ranges(cands.len(), PROVER_SHARDS) {
            let distinct: HashSet<&Row> = cands[lo..hi].iter().collect();
            decided += distinct.len();
            filtered += distinct.iter().filter(|c| direct.binary_search(c).is_ok()).count();
        }
        for threads in [1usize, 4] {
            let hippo = Hippo::with_options(
                build_bag_db([("emp", &emp), ("dept", &dept)]),
                constraints.clone(),
                HippoOptions::full().with_prover_threads(threads),
            ).unwrap();
            let ConsistentAnswer { rows: got, stats: s, .. } = answer(&hippo, &q).unwrap();
            prop_assert_eq!(&got, &truth, "query {} threads {}", q, threads);
            prop_assert_eq!(
                (s.candidates, s.filtered_consistent, s.prover_calls, s.answers),
                (cands.len(), filtered, decided - filtered, truth.len()),
                "query {} threads {}", q, threads
            );
            prop_assert_eq!(
                s.prover_cache_hits, s.prover_calls - s.prover.tuples_checked,
                "query {} threads {}", q, threads
            );
        }
    }

    /// Every flag of the extended envelope is the membership of its
    /// literal's fact, also where candidates carry `NULL` (which the
    /// oracle comparisons above leave out, see ROADMAP direction 9).
    #[test]
    fn envelope_flags_are_memberships(
        (emp, dept) in (
            prop::collection::vec((prop::option::of(0i64..4), prop::option::of(0i64..3)), 0..8),
            prop::collection::vec((prop::option::of(0i64..4), prop::option::of(0i64..3)), 0..5),
        ),
        q in arb_bag_query(),
    ) {
        checked_candidates(&q, &build_bag_db([("emp", &emp), ("dept", &dept)]));
    }

    #[test]
    fn rewriting_equals_truth_on_supported_class(rows in arb_instance(), sel in 0i64..4) {
        let constraints = vec![DenialConstraint::functional_dependency("emp", &[0], 1)];
        let db = build_db(&rows);
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        // An SJD query: σ(emp) − σ(emp).
        let q = SjudQuery::rel("emp")
            .select(Pred::cmp_const(1, CmpOp::Ge, sel))
            .diff(SjudQuery::rel("emp").select(Pred::cmp_const(0, CmpOp::Eq, sel)));
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        let rewritten = rewritten_answers(&q, &constraints, &db).unwrap();
        prop_assert_eq!(rewritten, truth);
    }

    #[test]
    fn sql_rendering_matches_algebra_eval(rows in arb_instance(), q in arb_query()) {
        let db = build_db(&rows);
        let sql = q.to_sql(db.catalog()).unwrap();
        let mut via_sql = db.query(&sql).unwrap().rows;
        via_sql.sort();
        via_sql.dedup();
        let direct = q.eval_on_catalog(db.catalog()).unwrap();
        prop_assert_eq!(via_sql, direct, "query {} sql {}", q, sql);
    }

    #[test]
    fn consistent_answers_hold_in_every_repair(rows in arb_instance(), q in arb_query()) {
        let constraints = vec![DenialConstraint::functional_dependency("emp", &[0], 1)];
        let db = build_db(&rows);
        let hippo = Hippo::new(db, constraints).unwrap();
        let answers = answer(&hippo, &q).unwrap().rows;
        let repairs = enumerate_repairs(hippo.graph(), None);
        for kept in &repairs {
            let inst = hippo::cqa::repair::repair_instance(
                hippo.db().catalog(), hippo.graph(), kept);
            let result: HashSet<Row> = q.eval_over(&inst).into_iter().collect();
            for a in &answers {
                prop_assert!(result.contains(a),
                    "answer {:?} missing from a repair for {}", a, q);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Two-constraint mix: FD plus a CHECK denial — exercises singleton
    /// edges interacting with pair edges (the hard case for the prover's
    /// blocking logic).
    #[test]
    fn hippo_equals_naive_with_check_constraints(rows in arb_instance(), q in arb_query()) {
        let chk = DenialConstraint::check(
            "emp",
            vec![Comparison {
                op: CmpOp::Eq,
                left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                right: Term::Const(Value::Int(0)),
            }],
        );
        let constraints = vec![
            DenialConstraint::functional_dependency("emp", &[0], 1),
            chk,
        ];
        let db = build_db(&rows);
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        for opts in [HippoOptions::kg(), HippoOptions::full()] {
            let hippo = Hippo::with_options(build_db(&rows), constraints.clone(), opts.clone()).unwrap();
            prop_assert_eq!(answer(&hippo, &q).unwrap().rows, truth.clone(),
                "query {} opts {:?}", q, opts);
        }
    }
}

/// Two-relation instances with an FD on `emp` plus an exclusion constraint
/// between `emp` and `ban` — cross-relation hyperedges.
fn arb_two_rel() -> impl Strategy<Value = TwoRelRows> {
    (
        prop::collection::vec((0i64..5, 0i64..3), 0..9),
        prop::collection::vec((0i64..5, 0i64..3), 0..5),
    )
}

fn build_two_rel_db(emp: &[(i64, i64)], ban: &[(i64, i64)]) -> Database {
    let dedup = |rows: &[(i64, i64)]| -> Vec<(i64, i64)> {
        rows.iter()
            .copied()
            .collect::<HashSet<_>>()
            .into_iter()
            .collect()
    };
    build_bag_db([("emp", &dedup(emp)), ("ban", &dedup(ban))])
}

fn two_rel_constraints() -> Vec<DenialConstraint> {
    vec![
        DenialConstraint::functional_dependency("emp", &[0], 1),
        DenialConstraint::exclusion("emp", "ban", &[(0, 0)]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn hippo_equals_naive_with_exclusion_constraints(
        (emp, ban) in arb_two_rel(),
        sel in 0i64..3,
    ) {
        let constraints = two_rel_constraints();
        let db = build_two_rel_db(&emp, &ban);
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        let queries = vec![
            SjudQuery::rel("emp"),
            SjudQuery::rel("ban"),
            SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, sel)),
            SjudQuery::rel("emp").diff(SjudQuery::rel("ban")),
            SjudQuery::rel("emp").union(SjudQuery::rel("ban")),
            SjudQuery::rel("emp")
                .product(SjudQuery::rel("ban"))
                .select(Pred::cmp_cols(0, CmpOp::Eq, 2)),
        ];
        for q in queries {
            let truth = naive_consistent_answers(&q, db.catalog(), &g);
            for opts in [HippoOptions::kg(), HippoOptions::full()] {
                let hippo = Hippo::with_options(
                    build_two_rel_db(&emp, &ban), constraints.clone(), opts.clone()).unwrap();
                prop_assert_eq!(answer(&hippo, &q).unwrap().rows, truth.clone(),
                    "query {} opts {:?}", q, opts);
            }
        }
    }

    #[test]
    fn rewriting_equals_truth_with_exclusion(( emp, ban) in arb_two_rel()) {
        let constraints = two_rel_constraints();
        let db = build_two_rel_db(&emp, &ban);
        let (g, _) = detect_conflicts(db.catalog(), &constraints).unwrap();
        let q = SjudQuery::rel("emp");
        let truth = naive_consistent_answers(&q, db.catalog(), &g);
        let rewritten = rewritten_answers(&q, &constraints, &db).unwrap();
        prop_assert_eq!(rewritten, truth);
    }

    #[test]
    fn range_aggregation_matches_enumeration(rows in arb_instance()) {
        let db = build_db(&rows);
        let constraints = vec![DenialConstraint::functional_dependency("emp", &[0], 1)];
        for op in [AggOp::Count, AggOp::Sum, AggOp::Min, AggOp::Max] {
            let fast = range_aggregate_fd(db.catalog(), "emp", &[0], 1, 1, op).unwrap();
            let slow = range_aggregate_naive(db.catalog(), "emp", &constraints, 1, op).unwrap();
            prop_assert_eq!(fast.glb.as_f64(), slow.glb.as_f64(), "glb for {:?}", op);
            prop_assert_eq!(fast.lub.as_f64(), slow.lub.as_f64(), "lub for {:?}", op);
        }
    }
}
