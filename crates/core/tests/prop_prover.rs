//! Differential property tests for the parallel batched prover and the
//! conflict-closure verdict cache.
//!
//! Two invariants, each checked on randomized seeded FD + general-denial
//! workloads (FD on `t`, exclusion between `t` and `s`, CHECK denial on
//! `t`) across a small query zoo:
//!
//! 1. **Thread count is invisible** — for random prover worker counts,
//!    `FrozenHippo::answer` returns the same answer rows *and*
//!    the same exact `AnswerStats` counters (prover calls, cache hits,
//!    prover-internal counters) as the single-threaded run, in both KG
//!    and full option modes.
//! 2. **Memoization is invisible** — with the closure-signature cache
//!    disabled, the answer set is identical; the cached run proves
//!    exactly `prover_calls − prover_cache_hits` tuples while the
//!    uncached run proves all of them.

use hippo_cqa::prelude::*;
use hippo_testkit::{answer, arb_rows, ts_constraints, ts_db};
use proptest::prelude::*;

/// A small query zoo covering S, SD, SU and permutation shapes.
fn query(pick: u32) -> SjudQuery {
    match pick % 4 {
        0 => SjudQuery::rel("t"),
        1 => SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(
            1,
            CmpOp::Lt,
            2i64,
        ))),
        2 => SjudQuery::rel("t")
            .select(Pred::cmp_const(1, CmpOp::Ge, 1i64))
            .union(SjudQuery::rel("s")),
        _ => SjudQuery::rel("t").permute(vec![1, 0]),
    }
}

/// The deterministic (thread-independent) slice of the stats.
#[allow(clippy::type_complexity)]
fn counters(
    s: &AnswerStats,
) -> (
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
) {
    (
        s.candidates,
        s.filtered_consistent,
        s.prover_calls,
        s.prover_cache_hits,
        s.prover_cache_cross_hits,
        s.shards_used,
        s.membership_queries,
        s.membership_memo_hits,
        s.prover.tuples_checked,
        s.prover.disjuncts_checked,
        s.prover.edge_visits,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn parallel_prover_matches_sequential(
        t_rows in arb_rows(50),
        s_rows in arb_rows(20),
        threads in 2usize..5,
        pick in 0u32..4,
        full in 0u32..2,
    ) {
        let q = query(pick);
        let base = if full == 1 { HippoOptions::full() } else { HippoOptions::kg() };
        let seq = Hippo::with_options(
            ts_db(&t_rows, &s_rows),
            ts_constraints(),
            base.clone().with_prover_threads(1),
        ).unwrap();
        let ConsistentAnswer { rows: ans_seq, stats: st_seq, .. } = answer(&seq, &q).unwrap();

        let par = Hippo::with_options(
            ts_db(&t_rows, &s_rows),
            ts_constraints(),
            base.with_prover_threads(threads),
        ).unwrap();
        let ConsistentAnswer { rows: ans_par, stats: st_par, .. } = answer(&par, &q).unwrap();

        prop_assert_eq!(ans_par, ans_seq, "answers diverged at threads={}", threads);
        prop_assert_eq!(counters(&st_par), counters(&st_seq),
            "stats diverged at threads={}", threads);
    }

    #[test]
    fn base_mode_parallel_matches_sequential(
        t_rows in arb_rows(50),
        s_rows in arb_rows(20),
        threads in 2usize..5,
        pick in 0u32..4,
    ) {
        // Base mode runs the same sharded pipeline over a frozen engine
        // snapshot: answers *and* every counter must be bit-identical
        // for any worker count, and the answers must agree with KG mode.
        let q = query(pick);
        let seq = Hippo::with_options(
            ts_db(&t_rows, &s_rows),
            ts_constraints(),
            HippoOptions::base().with_prover_threads(1),
        ).unwrap();
        let ConsistentAnswer { rows: ans_seq, stats: st_seq, .. } = answer(&seq, &q).unwrap();

        let par = Hippo::with_options(
            ts_db(&t_rows, &s_rows),
            ts_constraints(),
            HippoOptions::base().with_prover_threads(threads),
        ).unwrap();
        let ConsistentAnswer { rows: ans_par, stats: st_par, .. } = answer(&par, &q).unwrap();

        prop_assert_eq!(&ans_par, &ans_seq, "base answers diverged at threads={}", threads);
        prop_assert_eq!(counters(&st_par), counters(&st_seq),
            "base stats diverged at threads={}", threads);

        let kg = Hippo::with_options(
            ts_db(&t_rows, &s_rows),
            ts_constraints(),
            HippoOptions::kg().with_prover_threads(threads),
        ).unwrap();
        let ConsistentAnswer { rows: ans_kg, stats: st_kg, .. } = answer(&kg, &q).unwrap();
        prop_assert_eq!(ans_kg, ans_par, "base and KG disagree");
        prop_assert_eq!(st_kg.membership_queries, 0, "KG never issues membership SQL");
    }

    #[test]
    fn memoized_matches_unmemoized(
        t_rows in arb_rows(50),
        s_rows in arb_rows(20),
        threads in 1usize..5,
        pick in 0u32..4,
    ) {
        let q = query(pick);
        let cached = Hippo::with_options(
            ts_db(&t_rows, &s_rows),
            ts_constraints(),
            HippoOptions::kg().with_prover_threads(threads),
        ).unwrap();
        let ConsistentAnswer { rows: ans_c, stats: st_c, .. } = answer(&cached, &q).unwrap();

        let raw = Hippo::with_options(
            ts_db(&t_rows, &s_rows),
            ts_constraints(),
            HippoOptions::kg().with_prover_threads(threads).without_prover_cache(),
        ).unwrap();
        let ConsistentAnswer { rows: ans_r, stats: st_r, .. } = answer(&raw, &q).unwrap();

        prop_assert_eq!(ans_c, ans_r, "cache changed the answer set");
        prop_assert_eq!(st_c.prover_calls, st_r.prover_calls);
        prop_assert_eq!(st_r.prover_cache_hits, 0);
        // Cached run proves exactly the cache misses; uncached proves all.
        prop_assert_eq!(
            st_c.prover.tuples_checked + st_c.prover_cache_hits,
            st_c.prover_calls
        );
        prop_assert_eq!(st_r.prover.tuples_checked, st_r.prover_calls);
    }
}
