//! The answer pipeline: [`Hippo::freeze`] captures a reconciled system
//! as a [`FrozenHippo`], and [`FrozenHippo::answer`] runs envelope →
//! sharded flags / core-filter test / prove → merge over it — a pure
//! function of the frozen epoch and the call's options (see the shard →
//! merge diagram in the [`crate::hippo`] docs).

use super::{AnswerStats, Hippo, HippoOptions, VerdictCache};
use crate::budget::{trip_stage, Completeness, ConsistentAnswer, Governance};
use crate::corefilter;
use crate::envelope::envelope;
use crate::formula::MembershipTemplate;
use crate::hypergraph::ConflictHypergraph;
use crate::kg::{extended_envelope_sql, split_gathered};
use crate::parallel;
use crate::prover::{Prover, ProverRunStats};
use crate::query::SjudQuery;
use hippo_engine::{Catalog, DbSnapshot, EngineError, QueryResult, Row};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Fixed shard count of the answer pipeline. Like detection's
/// `DEFAULT_SHARDS`, the decomposition depends only on the worklist
/// length — never on the worker count — so answer order, every
/// [`AnswerStats`] counter and the cache-hit totals are bit-identical
/// for any `HIPPO_PROVER_THREADS` setting.
pub const PROVER_SHARDS: usize = 16;

/// Distinct queries cached before the registry resets (a safety valve
/// against unbounded growth under ad-hoc query streams; per-query maps
/// are bounded by the query's signature classes and need no cap).
const VERDICT_CACHE_MAX_QUERIES: usize = 64;

impl Hippo {
    /// Freeze the current state into an immutable, `Send + Sync`
    /// [`FrozenHippo`]: the catalog snapshot, the conflict hypergraph
    /// and the persistent verdict cache, all shared by cheap `Arc`
    /// clones (no data is copied).
    ///
    /// The frozen view answers queries concurrently with further
    /// mutation of this `Hippo`: redetection *replaces* the graph and
    /// verdict-cache `Arc`s, so the view keeps exactly the state it
    /// captured. This is the only way to an answer, so it carries the
    /// readiness rule: while changes are recorded but not reconciled (or
    /// the catalog was handed out through [`Hippo::db_mut`]), pairing
    /// the pre-change graph with post-change data would make prover
    /// verdicts unsound — non-certain answers returned as certain — so
    /// it refuses until [`Hippo::redetect`].
    pub fn freeze(&self) -> Result<FrozenHippo, EngineError> {
        if self.catalog_dirty || !self.pending.is_empty() {
            return Err(EngineError::new(
                "cannot freeze: data changes recorded since the last detection \
                 (call redetect() first)",
            ));
        }
        Ok(FrozenHippo {
            snapshot: self.db.snapshot(),
            graph: Arc::clone(&self.graph),
            verdict_cache: Arc::clone(&self.verdict_cache),
            options: self.options.clone(),
        })
    }
}

impl HippoOptions {
    fn resolved_prover_threads(&self) -> usize {
        if self.prover_threads == 0 {
            parallel::prover_threads()
        } else {
            self.prover_threads
        }
    }
}

/// An immutable, `Send + Sync` view of a [`Hippo`] at one point in
/// time: the frozen catalog snapshot, the conflict hypergraph and the
/// persistent verdict cache, produced by [`Hippo::freeze`].
///
/// Any number of threads may run [`FrozenHippo::answer`]
/// (or plain [`FrozenHippo::query`]) on one view — or on clones, which
/// share everything — with no locks beyond the verdict cache's
/// merge-phase write-back, entirely independent of the live `Hippo`
/// the view came from. This is the unit the service layer
/// (`crates/server`) publishes as an epoch.
#[derive(Clone, Debug)]
pub struct FrozenHippo {
    snapshot: DbSnapshot,
    graph: Arc<ConflictHypergraph>,
    verdict_cache: Arc<Mutex<VerdictCache>>,
    /// The options of the `Hippo` at freeze time. A reader passes its
    /// own options to [`FrozenHippo::answer`]; the service layer seeds
    /// sessions from this field's answer-mode switches only.
    pub options: HippoOptions,
}

// The whole point of freezing: readers share one view across threads.
// Compile-time proof, not a convention.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<FrozenHippo>();
};

impl FrozenHippo {
    /// The frozen catalog.
    pub fn catalog(&self) -> &Catalog {
        self.snapshot.catalog()
    }

    /// The frozen database snapshot.
    pub fn snapshot(&self) -> &DbSnapshot {
        &self.snapshot
    }

    /// The frozen conflict hypergraph.
    pub fn graph(&self) -> &ConflictHypergraph {
        &self.graph
    }

    /// Run a plain (non-CQA) SQL query against the frozen snapshot.
    pub fn query(&self, sql: &str) -> Result<QueryResult, EngineError> {
        self.snapshot.query(sql)
    }

    /// Compute the consistent answers to `query` on this view under
    /// `options` — the one consistent-answer call. A live [`Hippo`]
    /// answers through it by freezing:
    /// `hippo.freeze()?.answer(&q, &hippo.options)`.
    ///
    /// Rows come back sorted, with the run's [`AnswerStats`] and a
    /// [`Completeness`] marker:
    ///
    /// * Ungoverned options (the default): no budget object is even
    ///   created, every stage runs the exact pre-governance path, and
    ///   the result is [`Completeness::Complete`].
    /// * Governed, **strict** (default mode): a deadline / row-budget /
    ///   cancellation trip anywhere in the pipeline returns `Err` with
    ///   kind `Budget { stage, spent, limit }` or `Cancelled { stage }`.
    /// * Governed, **degraded** ([`HippoOptions::degraded`]): a trip
    ///   yields `Ok` with the *sound subset* proved before the trip and
    ///   [`Completeness::TruncatedAt`] naming the stage — an envelope
    ///   trip truncates to the empty set, a prover-stage trip keeps
    ///   every candidate fully proved before the budget ran out (each
    ///   stopped shard counts in [`AnswerStats::cancelled_shards`]).
    ///
    /// A worker panic in the prover stage is contained either way: the
    /// sibling shards drain, the error is `WorkerPanic { stage, shard }`,
    /// no partial merge happens, and the view (including its persistent
    /// verdict cache) stays fully usable.
    pub fn answer(
        &self,
        query: &SjudQuery,
        options: &HippoOptions,
    ) -> Result<ConsistentAnswer, EngineError> {
        let gov = options.governance();
        answers_pipeline(
            &self.snapshot,
            &self.graph,
            options,
            &self.verdict_cache,
            query,
            &gov,
        )
    }
}

/// The answer pipeline behind [`FrozenHippo::answer`]: envelope →
/// sharded flags / core-filter test / prove → merge, all reads through
/// `backend`, the epoch's snapshot.
fn answers_pipeline(
    backend: &DbSnapshot,
    graph: &ConflictHypergraph,
    options: &HippoOptions,
    verdict_cache: &Mutex<VerdictCache>,
    query: &SjudQuery,
    gov: &Governance,
) -> Result<ConsistentAnswer, EngineError> {
    let t0 = Instant::now();
    let mut stats = AnswerStats {
        degraded: gov.degraded,
        ..AnswerStats::default()
    };
    let arity = query.validate(backend.catalog())?;
    let template = MembershipTemplate::build(query, backend.catalog())?;
    let env = envelope(query);

    // ---- Enveloping + Evaluation (timed from the call's start) ----
    let env_res: Result<_, EngineError> = (|| {
        gov.checkpoint("envelope", 0)?;
        let ast = extended_envelope_sql(&env, &template, backend.catalog())?;
        let rows = backend
            .run_query_ast(&ast, gov.budget_ref(), "envelope")?
            .rows;
        Ok(split_gathered(rows, arity, template.literals.len()))
    })();
    let gathered = match env_res {
        Ok(v) => v,
        Err(e) if gov.degraded && e.is_governance() => {
            return Ok(truncated(stats, &e, gov, t0));
        }
        Err(e) => return Err(e),
    };
    let candidates = gathered.candidates;
    stats.candidates = candidates.len();
    stats.t_envelope = t0.elapsed();

    // ---- Sharded answer stage ----
    //
    // No serial prefix beyond candidate collection: dedup, the
    // core-filter test and the prover all run inside the shards.
    // Dedup is shard-local (a duplicate crossing a shard boundary is
    // decided twice and collapsed by the final sort+dedup — the
    // envelope is set-semantics, so this is a belt-and-braces case),
    // which keeps every counter an exact sum over fixed shards.
    let tp = Instant::now();
    let shards = parallel::split_ranges(candidates.len(), PROVER_SHARDS);
    let threads = options.resolved_prover_threads();
    let use_cache = options.prover_cache;
    // Cross-call verdicts: take the persistent map for this query
    // under the lock, then read it lock-free from every shard.
    let query_key = use_cache.then(|| query.to_string());
    let persistent: Option<Arc<FxHashMap<Vec<u64>, bool>>> = query_key.as_ref().map(|k| {
        let cache = verdict_cache.lock().unwrap();
        cache.by_query.get(k).cloned().unwrap_or_default()
    });
    let input = ShardInput {
        graph,
        template: &template,
        candidates: &candidates,
        flags: &gathered.flags,
        core_filter: options.core_filter,
        use_cache,
        persistent: persistent.as_deref(),
        gov,
    };
    // Panic-isolating runner: a panicking shard poisons only its
    // slot; every sibling drains. The first failure — in shard
    // order, panic or error alike — is surfaced *after* the drain,
    // and the merge (including the verdict-cache write-back) is
    // skipped entirely, so the `Hippo` and its caches stay valid.
    let outs = parallel::run_indexed_isolated(shards.len(), threads, |si| {
        prove_shard(&input, si, shards[si].0, shards[si].1)
    });
    // Deterministic merge: shard order, exact stat sums.
    stats.shards_used = shards.len();
    let mut answers: Vec<Row> = Vec::new();
    let mut fresh: Vec<(Vec<u64>, bool)> = Vec::new();
    let mut verdicts: Vec<ShardVerdicts> = Vec::with_capacity(outs.len());
    let mut first_err: Option<EngineError> = None;
    for out in outs {
        match out {
            Err(p) => {
                if first_err.is_none() {
                    first_err = Some(EngineError::worker_panic("prover", p.task, &p.message));
                }
            }
            Ok(Err(e)) => {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
            Ok(Ok(v)) => verdicts.push(v),
        }
    }
    if let Some(e) = first_err {
        if gov.degraded && e.is_governance() {
            return Ok(truncated(stats, &e, gov, t0));
        }
        return Err(e);
    }
    for out in verdicts {
        if out.cancelled {
            stats.cancelled_shards += 1;
        }
        stats.prover = merge(stats.prover, out.stats);
        stats.prover_calls += out.prover_calls;
        stats.prover_cache_hits += out.cache_hits;
        stats.prover_cache_cross_hits += out.cross_hits;
        stats.filtered_consistent += out.filtered_consistent;
        for i in out.accepted {
            answers.push(candidates[i as usize].clone());
        }
        fresh.extend(out.fresh);
    }
    // Merge-phase write-back of newly proved signatures (shard
    // order, first writer wins — verdicts for equal signatures are
    // equal anyway). The lock is only held here, never by a shard.
    if let Some(k) = query_key {
        if !fresh.is_empty() {
            let mut cache = verdict_cache.lock().unwrap();
            if cache.by_query.len() >= VERDICT_CACHE_MAX_QUERIES && !cache.by_query.contains_key(&k)
            {
                cache.by_query.clear();
            }
            let entry = cache.by_query.entry(k).or_default();
            let map = Arc::make_mut(entry);
            map.reserve(fresh.len());
            for (sig, verdict) in fresh {
                map.entry(sig).or_insert(verdict);
            }
        }
    }
    answers.sort();
    answers.dedup();
    stats.t_prover = tp.elapsed();
    stats.answers = answers.len();
    if let Some(b) = gov.budget_ref() {
        stats.budget_checks = b.checks();
    }
    stats.t_total = t0.elapsed();
    let completeness = if stats.cancelled_shards > 0 {
        Completeness::TruncatedAt("prover")
    } else {
        Completeness::Complete
    };
    Ok(ConsistentAnswer {
        rows: answers,
        completeness,
        stats,
    })
}

/// Degraded-mode truncation: finalize the stats collected so far and
/// wrap the (empty — nothing proved yet) answer set with the tripped
/// stage. Prover-stage truncation takes the partial path in
/// `answers_pipeline` instead; this is for trips before any candidate
/// was proved.
fn truncated(
    mut stats: AnswerStats,
    e: &EngineError,
    gov: &Governance,
    t0: Instant,
) -> ConsistentAnswer {
    stats.degraded = true;
    if let Some(b) = gov.budget_ref() {
        stats.budget_checks = b.checks();
    }
    stats.t_total = t0.elapsed();
    ConsistentAnswer {
        rows: Vec::new(),
        completeness: Completeness::TruncatedAt(trip_stage(e)),
        stats,
    }
}

/// Read-only state shared by every shard of one answer run. Everything
/// here is `Sync`: the frozen graph, the compiled template, the
/// candidate rows, their prefetched flag matrix and the previous calls'
/// verdict map.
struct ShardInput<'a> {
    graph: &'a ConflictHypergraph,
    template: &'a MembershipTemplate,
    candidates: &'a [Row],
    /// Per-candidate membership flags from the extended envelope.
    flags: &'a [Vec<bool>],
    /// Run the core-filter test: candidates passing it skip the prover.
    core_filter: bool,
    use_cache: bool,
    /// Cross-call verdicts proved by earlier runs on this graph.
    persistent: Option<&'a FxHashMap<Vec<u64>, bool>>,
    /// The call's governance (inactive on ungoverned calls: every
    /// check is a no-op and the shard runs the pre-governance path).
    gov: &'a Governance,
}

/// Decide the candidate slice `lo..hi`: dedup (shard-local), run the
/// core-filter test ([`crate::corefilter`]) on the prefetched flags,
/// then decide by signature cache or prover run. Runs on a worker thread;
/// mutates nothing shared.
///
/// Governance: the shard checkpoints at entry (fault-injection point
/// `("prover", si)`) and ticks the budget per candidate. In degraded
/// mode a trip sets [`ShardVerdicts::cancelled`] and returns the
/// accepted-so-far prefix — every accepted candidate was fully proved,
/// so the prefix is sound; in strict mode the trip is returned as an
/// error.
fn prove_shard(
    input: &ShardInput<'_>,
    si: usize,
    lo: usize,
    hi: usize,
) -> Result<ShardVerdicts, EngineError> {
    let mut out = ShardVerdicts::default();
    if let Err(e) = input.gov.checkpoint("prover", si) {
        if input.gov.degraded && e.is_governance() {
            out.cancelled = true;
            return Ok(out);
        }
        return Err(e);
    }
    let mut prover = Prover::new(input.graph, input.template);
    let mut local: FxHashMap<Vec<u64>, bool> = FxHashMap::default();
    let mut sig: Vec<u64> = Vec::new();
    let mut seen: FxHashSet<&Row> =
        FxHashSet::with_capacity_and_hasher(hi - lo, Default::default());
    // Cooperative per-candidate checkpoint, flattened by hand: one
    // local increment and a predicted branch per candidate; every
    // CHECK_STRIDE candidates the locally-accumulated row charges are
    // flushed to the shared budget and one full check runs. Charging
    // the shared atomic per candidate would ping-pong the budget's
    // cache line across worker threads (and costs ~10% of this loop
    // even single-threaded).
    let budget = input.gov.budget_ref();
    let mut work = 0u32;
    let mut pending_rows = 0u64;
    for i in lo..hi {
        work = work.wrapping_add(1);
        if work & (crate::budget::CHECK_STRIDE - 1) == 0 {
            if let Some(b) = budget {
                b.charge_rows(std::mem::take(&mut pending_rows));
                if let Err(e) = b.check("prover") {
                    if input.gov.degraded && e.is_governance() {
                        out.cancelled = true;
                        break;
                    }
                    return Err(e);
                }
            }
        }
        let cand = &input.candidates[i];
        if !seen.insert(cand) {
            continue; // duplicate candidate within the shard
        }
        let cand_flags: &[bool] = &input.flags[i];
        if input.core_filter
            && corefilter::passes(&input.template.formula, cand, cand_flags, &|li| {
                prover.lit_conflict_free(li, cand)
            })
        {
            out.filtered_consistent += 1;
            out.accepted.push(i as u32);
            continue;
        }
        out.prover_calls += 1;
        pending_rows += 1;
        let ok = if input.use_cache {
            prover.closure_signature(cand, cand_flags, &mut sig);
            if let Some(&v) = local.get(&sig) {
                out.cache_hits += 1;
                v
            } else if let Some(&v) = input.persistent.and_then(|p| p.get(&sig)) {
                out.cache_hits += 1;
                out.cross_hits += 1;
                v
            } else {
                let v = prover.is_consistent_answer(cand, cand_flags);
                let key = std::mem::take(&mut sig);
                out.fresh.push((key.clone(), v));
                local.insert(key, v);
                v
            }
        } else {
            prover.is_consistent_answer(cand, cand_flags)
        };
        if ok {
            out.accepted.push(i as u32);
        }
    }
    if let Some(b) = budget {
        b.charge_rows(pending_rows);
    }
    out.stats = prover.stats;
    Ok(out)
}

/// One prover shard's output (merged in shard order).
#[derive(Debug, Default)]
struct ShardVerdicts {
    /// Accepted candidate indices (core-filtered or proved), in
    /// candidate order.
    accepted: Vec<u32>,
    /// Signatures first proved by this shard, in discovery order
    /// (folded into the persistent cache at merge).
    fresh: Vec<(Vec<u64>, bool)>,
    /// The shard prover's counters.
    stats: ProverRunStats,
    /// Candidates reaching the prover stage in this shard.
    prover_calls: usize,
    /// Candidates accepted by the core filter in this shard.
    filtered_consistent: usize,
    /// Entries answered from a signature cache (local or persistent).
    cache_hits: usize,
    /// Subset of `cache_hits` answered from the persistent map.
    cross_hits: usize,
    /// Degraded mode: this shard stopped early on a budget trip; its
    /// accepted list is the sound prefix proved before the trip.
    cancelled: bool,
}

fn merge(a: ProverRunStats, b: ProverRunStats) -> ProverRunStats {
    ProverRunStats {
        tuples_checked: a.tuples_checked + b.tuples_checked,
        disjuncts_checked: a.disjuncts_checked + b.disjuncts_checked,
        edge_visits: a.edge_visits + b.edge_visits,
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{answer, emp_db, fd, queries};
    use super::*;
    use crate::naive::naive_consistent_answers;
    use crate::pred::{CmpOp, Pred};
    use hippo_engine::{Column, DataType, Database, TableSchema, Value};
    use std::time::Duration;

    #[test]
    fn all_option_levels_agree_with_ground_truth() {
        let rows = [
            ("ann", 100),
            ("ann", 200),
            ("bob", 300),
            ("cyd", 50),
            ("cyd", 60),
            ("dee", 400),
        ];
        for opts in [
            HippoOptions::base(),
            HippoOptions::kg(),
            HippoOptions::full(),
        ] {
            let db = emp_db(&rows);
            let hippo = Hippo::with_options(db, fd(), opts.clone()).unwrap();
            let truth_graph = hippo.graph();
            for q in queries() {
                let got = answer(&hippo, &q).unwrap().rows;
                let truth = naive_consistent_answers(&q, hippo.db().catalog(), truth_graph);
                assert_eq!(got, truth, "query {q} options {opts:?}");
            }
        }
    }

    #[test]
    fn every_mode_reads_flags_from_the_envelope() {
        let rows = [("ann", 100), ("ann", 200), ("bob", 300)];
        let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
            1,
            CmpOp::Lt,
            150i64,
        )));
        let run = |opts: HippoOptions| {
            let hippo = Hippo::with_options(emp_db(&rows), fd(), opts).unwrap();
            let mut out = answer(&hippo, &q).unwrap();
            let s = &out.stats;
            assert_eq!(
                (s.membership_queries, s.membership_memo_hits, s.index_probes),
                (0, 0, 0),
                "no mode issues membership queries: {s}"
            );
            out.stats.t_envelope = Duration::ZERO;
            out.stats.t_prover = Duration::ZERO;
            out.stats.t_total = Duration::ZERO;
            (out.rows, format!("{:?}", out.stats))
        };
        // Base mode is knowledge gathering: same answers, same counters.
        assert_eq!(run(HippoOptions::base()), run(HippoOptions::kg()));
        run(HippoOptions::full());
    }

    #[test]
    fn core_filter_reduces_prover_calls() {
        // Lots of clean tuples, one conflict.
        let mut rows: Vec<(String, i64)> = (0..50).map(|i| (format!("p{i}"), 100 + i)).collect();
        rows.push(("p0".into(), 999)); // conflict with p0
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
                .map(|(n, s)| vec![Value::text(n.clone()), Value::Int(*s)])
                .collect(),
        )
        .unwrap();
        let q = SjudQuery::rel("emp");

        let h_kg = Hippo::with_options(
            {
                let mut d = Database::new();
                d.catalog_mut()
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
                d.insert_rows(
                    "emp",
                    rows.iter()
                        .map(|(n, s)| vec![Value::text(n.clone()), Value::Int(*s)])
                        .collect(),
                )
                .unwrap();
                d
            },
            fd(),
            HippoOptions::kg(),
        )
        .unwrap();
        let ConsistentAnswer {
            rows: ans_kg,
            stats: s_kg,
            ..
        } = answer(&h_kg, &q).unwrap();

        let h_full = Hippo::with_options(db, fd(), HippoOptions::full()).unwrap();
        let ConsistentAnswer {
            rows: ans_full,
            stats: s_full,
            ..
        } = answer(&h_full, &q).unwrap();

        assert_eq!(ans_kg, ans_full);
        assert!(s_full.prover_calls < s_kg.prover_calls);
        assert_eq!(
            s_full.prover_calls, 2,
            "only the two conflicting tuples reach the prover"
        );
        assert_eq!(s_full.filtered_consistent, 49);
    }

    #[test]
    fn prover_thread_count_never_changes_answers_or_stats() {
        let mut rows: Vec<(String, i64)> = (0..60).map(|i| (format!("p{i}"), 100 + i)).collect();
        for c in 0..12 {
            rows.push((format!("p{c}"), 5000 + c)); // conflicting duplicates
        }
        let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
            1,
            CmpOp::Ge,
            5000i64,
        )));
        let build = |threads: usize| {
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
                    .map(|(n, s)| vec![Value::text(n.clone()), Value::Int(*s)])
                    .collect(),
            )
            .unwrap();
            Hippo::with_options(db, fd(), HippoOptions::kg().with_prover_threads(threads)).unwrap()
        };
        let ConsistentAnswer {
            rows: ans1,
            stats: s1,
            ..
        } = answer(&build(1), &q).unwrap();
        assert!(s1.prover_calls > 0);
        for threads in [2usize, 4, 8] {
            let ConsistentAnswer {
                rows: ans,
                stats: s,
                ..
            } = answer(&build(threads), &q).unwrap();
            assert_eq!(ans, ans1, "threads={threads}");
            assert_eq!(s.prover_calls, s1.prover_calls);
            assert_eq!(s.prover_cache_hits, s1.prover_cache_hits);
            assert_eq!(s.filtered_consistent, s1.filtered_consistent);
            assert_eq!(s.prover, s1.prover, "prover counters at threads={threads}");
            assert_eq!(s.answers, s1.answers);
        }
    }

    #[test]
    fn columnar_toggle_never_changes_answers_or_stats() {
        // The vectorized engine claims bit-identical behaviour: same
        // answers and the same AnswerStats counters (only wall-clock
        // may differ) in KG and full mode, serial and sharded alike.
        let mut rows: Vec<(String, i64)> = (0..50).map(|i| (format!("p{i}"), 100 + i)).collect();
        for c in 0..10 {
            rows.push((format!("p{c}"), 5000 + c)); // conflicting duplicates
        }
        let q = SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
            1,
            CmpOp::Ge,
            5000i64,
        )));
        let build = |opts: HippoOptions| {
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
                    .map(|(n, s)| vec![Value::text(n.clone()), Value::Int(*s)])
                    .collect(),
            )
            .unwrap();
            Hippo::with_options(db, fd(), opts).unwrap()
        };
        // Every counter except the timings must match exactly.
        let counters = |mut s: AnswerStats| {
            s.t_envelope = Duration::ZERO;
            s.t_filter = Duration::ZERO;
            s.t_prover = Duration::ZERO;
            s.t_total = Duration::ZERO;
            format!("{s:?}")
        };
        for threads in [1usize, 4] {
            for opts in [HippoOptions::kg(), HippoOptions::full()] {
                let label = format!("threads={threads} options={opts:?}");
                let run = |columnar: bool| {
                    hippo_engine::set_columnar_override(columnar);
                    let out =
                        answer(&build(opts.clone().with_prover_threads(threads)), &q).unwrap();
                    hippo_engine::set_columnar_override(true);
                    (out.rows, out.stats)
                };
                let (ans_on, s_on) = run(true);
                let (ans_off, s_off) = run(false);
                assert!(s_on.candidates > 0, "{label}");
                assert_eq!(ans_on, ans_off, "answers diverged: {label}");
                assert_eq!(counters(s_on), counters(s_off), "stats diverged: {label}");
            }
        }
    }

    #[test]
    fn closure_cache_collapses_equivalence_classes() {
        // Many conflict-free tuples share one signature class; only the
        // conflicting pair needs real prover runs.
        let mut rows: Vec<(&str, i64)> = vec![("ann", 1), ("ann", 2)];
        let names: Vec<String> = (0..40).map(|i| format!("p{i}")).collect();
        for n in &names {
            rows.push((n.as_str(), 500));
        }
        let db = emp_db(&rows);
        let q = SjudQuery::rel("emp");
        let hippo = Hippo::with_options(db, fd(), HippoOptions::kg()).unwrap();
        let ConsistentAnswer {
            rows: answers,
            stats,
            ..
        } = answer(&hippo, &q).unwrap();
        assert_eq!(answers.len(), 40);
        assert_eq!(stats.prover_calls, 42, "no core filter: everything proved");
        // The cache is per shard (16 shards here), so each shard pays at
        // most one miss per signature class it sees: ≥ 42 − 16 − 2 hits.
        assert!(
            stats.prover_cache_hits >= 24,
            "conflict-free candidates collapse (hits = {})",
            stats.prover_cache_hits
        );
        assert!(stats.prover.tuples_checked < stats.prover_calls);

        // Differential: disabling the cache changes no answer.
        let db2 = emp_db(&rows);
        let hippo2 =
            Hippo::with_options(db2, fd(), HippoOptions::kg().without_prover_cache()).unwrap();
        let ConsistentAnswer {
            rows: answers2,
            stats: stats2,
            ..
        } = answer(&hippo2, &q).unwrap();
        assert_eq!(answers, answers2);
        assert_eq!(stats2.prover_cache_hits, 0);
        assert_eq!(stats2.prover.tuples_checked, stats2.prover_calls);
    }

    #[test]
    fn verdict_cache_persists_across_calls_and_invalidates_on_redetect() {
        let mut rows: Vec<(&str, i64)> = vec![("ann", 1), ("ann", 2)];
        let names: Vec<String> = (0..30).map(|i| format!("p{i}")).collect();
        for n in &names {
            rows.push((n.as_str(), 500));
        }
        let q = SjudQuery::rel("emp");
        let mut hippo = Hippo::with_options(emp_db(&rows), fd(), HippoOptions::kg()).unwrap();
        let ConsistentAnswer {
            rows: ans1,
            stats: s1,
            ..
        } = answer(&hippo, &q).unwrap();
        assert_eq!(s1.prover_cache_cross_hits, 0, "first call has no history");
        assert!(s1.prover.tuples_checked > 0);
        // Second identical call: every signature class was proved by the
        // first call, so no prover runs at all — all hits are cross-call.
        let ConsistentAnswer {
            rows: ans2,
            stats: s2,
            ..
        } = answer(&hippo, &q).unwrap();
        assert_eq!(ans2, ans1);
        assert_eq!(s2.prover.tuples_checked, 0, "everything served from cache");
        assert_eq!(s2.prover_cache_cross_hits, s2.prover_cache_hits);
        assert_eq!(s2.prover_cache_hits, s2.prover_calls);
        // Replacing the graph drops the cross-call verdicts.
        hippo
            .insert_tuples("emp", vec![vec![Value::text("zzz"), Value::Int(7)]])
            .unwrap();
        hippo.redetect().unwrap();
        let s3 = answer(&hippo, &q).unwrap().stats;
        assert_eq!(s3.prover_cache_cross_hits, 0, "cache cleared on redetect");
        assert!(s3.prover.tuples_checked > 0);
    }

    #[test]
    fn base_mode_shards_and_reports_them() {
        // Product query: candidates are pairs of the 10 distinct names.
        let mut rows: Vec<(String, i64)> = (0..10).map(|i| (format!("p{i}"), 100)).collect();
        rows.push(("p0".into(), 999)); // one conflict
        let rows: Vec<(&str, i64)> = rows.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let q = SjudQuery::rel("emp").product(SjudQuery::rel("emp"));
        let hippo = Hippo::with_options(emp_db(&rows), fd(), HippoOptions::base()).unwrap();
        let ConsistentAnswer {
            rows: answers,
            stats,
            ..
        } = answer(&hippo, &q).unwrap();
        assert_eq!(answers.len(), 9 * 9, "pairs of the 9 conflict-free rows");
        assert!(stats.shards_used > 1, "base mode shards");
        let line = stats.to_string();
        assert!(line.contains("shards="), "{line}");
        assert!(!line.contains("membership"), "{line}");
    }

    #[test]
    fn consistent_database_passes_everything_through() {
        let hippo = Hippo::new(emp_db(&[("ann", 100), ("bob", 200)]), fd()).unwrap();
        let ConsistentAnswer {
            rows: answers,
            stats,
            ..
        } = answer(&hippo, &SjudQuery::rel("emp")).unwrap();
        assert_eq!(answers.len(), 2);
        assert_eq!(stats.answers, 2);
        assert_eq!(stats.prover_calls, 0, "core filter accepts everything");
    }

    #[test]
    fn frozen_view_survives_live_mutation_and_redetect() {
        let mut hippo =
            Hippo::new(emp_db(&[("ann", 100), ("ann", 200), ("bob", 1)]), fd()).unwrap();
        let q = SjudQuery::rel("emp");
        let frozen = hippo.freeze().unwrap();
        let before = frozen.answer(&q, &frozen.options).unwrap().rows;
        assert_eq!(before, vec![vec![Value::text("bob"), Value::Int(1)]]);
        // Mutate and reconcile the live system: bob becomes conflicted.
        hippo
            .insert_tuples("emp", vec![vec![Value::text("bob"), Value::Int(999)]])
            .unwrap();
        hippo.redetect().unwrap();
        assert!(answer(&hippo, &q).unwrap().rows.is_empty());
        // The frozen view still answers from its captured state: old
        // data, old graph, old verdict cache.
        assert_eq!(frozen.answer(&q, &frozen.options).unwrap().rows, before);
        assert_eq!(frozen.graph().edge_count(), 1, "pre-mutation graph");
        assert_eq!(hippo.graph().edge_count(), 2);
    }

    #[test]
    fn freeze_refuses_unreconciled_changes() {
        let mut hippo = Hippo::new(emp_db(&[("ann", 100)]), fd()).unwrap();
        hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(2)]])
            .unwrap();
        let err = hippo.freeze().unwrap_err();
        assert!(err.to_string().contains("cannot freeze"), "{err}");
        hippo.redetect().unwrap();
        hippo.freeze().unwrap();
        // Unrecorded mutation (catalog dirty) refuses as well.
        hippo.db_mut();
        assert!(hippo.freeze().is_err());
        hippo.redetect().unwrap();
        hippo.freeze().unwrap();
    }

    #[test]
    fn frozen_view_answers_concurrently_across_threads() {
        let mut rows: Vec<(String, i64)> = (0..64).map(|i| (format!("p{i}"), 100 + i)).collect();
        rows.push(("p0".into(), 999));
        let rows: Vec<(&str, i64)> = rows.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let hippo = Hippo::new(emp_db(&rows), fd()).unwrap();
        let frozen = hippo.freeze().unwrap();
        let expected = frozen
            .answer(&SjudQuery::rel("emp"), &frozen.options)
            .unwrap()
            .rows;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let view = frozen.clone();
                let expected = &expected;
                s.spawn(move || {
                    for q in queries() {
                        let _ = view.answer(&q, &view.options).unwrap().rows;
                    }
                    let got = view
                        .answer(&SjudQuery::rel("emp"), &view.options)
                        .unwrap()
                        .rows;
                    assert_eq!(&got, expected);
                });
            }
        });
    }
}
