//! The Hippo system facade: the data flow of the paper's Figure 1,
//! with the resource-governance checkpoints (`◆`) each governed call
//! passes through (see [`crate::budget`]):
//!
//! ```text
//! Query ──▶ Enveloping ──▶ Candidates(SQL) ──▶ Evaluation (RDBMS) ──▶ Prover ──▶ Answer Set
//!                              ◆ "envelope"                        ◆ "prover"
//!                              └─ vectorized scans (column batches)
//!                                 on eligible plan shapes
//! IC, DB ──▶ Conflict Detection ──▶ Conflict Hypergraph (main memory) ──▶ Prover
//!               ◆ "detect" (always strict)
//!               └─ probes the tables' own hash indexes
//!                  (FD LHS buckets, denial join keys, FK keys)
//! ```
//!
//! A request is **one** engine query execution — the extended
//! envelope, handed to the engine as an AST, on the engine's one
//! production executor through its one reader (the [`DbSnapshot`] a
//! [`FrozenHippo`] captured). Eligible plan shapes vectorize — answers
//! and every stats counter stay bit-identical either way (tests force
//! row mode with `hippo_engine::set_columnar_override`). Conflict
//! detection reads the same tables through the same hash indexes and
//! keeps no index of its own ([`crate::detect`]).
//!
//! A checkpoint is a no-op unless the call's [`HippoOptions`] configure
//! a deadline, row budget, cancellation handle or fault plan. When one
//! trips, strict mode (the default) returns a structured
//! [`EngineError`] naming the stage; degraded mode
//! ([`HippoOptions::degraded`]) returns the sound subset proved so far,
//! marked [`Completeness::TruncatedAt`] — except during detection,
//! which is always strict (an incomplete conflict hypergraph would make
//! every later prover verdict unsound, so there is no sound partial
//! answer to fall back on).
//!
//! [`Hippo::new`] performs conflict detection once and [`Hippo::freeze`]
//! captures the reconciled state in O(1); each [`FrozenHippo::answer`]
//! run — the one consistent-answer call, a live system answers as
//! `hippo.freeze()?.answer(&q, &hippo.options)` — envelopes the query,
//! evaluates the candidates on the engine, and filters them through
//! the Prover. Every mode reads the prover's membership flags from the
//! same evaluation: a literal every envelope row was read from is
//! *witnessed* by the row itself, and the envelope is extended with one
//! [`hippo_engine::Plan::MarkJoin`] per other literal ([`crate::kg`]),
//! so no mode issues a membership query. [`HippoOptions`] selects the
//! optimization level:
//!
//! * **base** and **knowledge gathering** — every candidate goes to the
//!   prover ([`HippoOptions::base`] equals [`HippoOptions::kg`]; the
//!   paper's base system, with one SQL query per membership check, is
//!   reproduced only by the experiment harness);
//! * **core filter** — additionally, candidates passing a per-candidate
//!   test ([`crate::corefilter`]: built from conflict-free facts only
//!   and outside every subtracted branch's envelope) skip the prover.
//!
//! # What "is this fact in the database?" compares
//!
//! Every mode asks the question the same way: the envelope's flags are
//! [`hippo_engine::Plan::MarkJoin`]s, which compare by **`Value`
//! identity**, or witnessed literals read off the candidate, and the
//! core-filter test and the prover read those flags. A witnessed
//! literal's fact is one of its relation's own rows, so a mark join on
//! it would find that row; its flag is the mark join's answer without
//! the probe. The repair-enumeration oracle (`hippo-testkit`) compares
//! whole rows by identity too. So on `Float`s the modes and the oracle
//! agree: with `r(x REAL) = {0.0}` and `s(x REAL) = {-0.0}`, `r − s` is
//! `[(0.0)]` everywhere (`0.0` and `-0.0` are distinct values).
//!
//! A query's own comparisons are SQL's, not identity: a selection
//! `x = y`, and the hash join the envelope plans for it, treat `-0.0`
//! as `0.0`, and a `NaN` equals nothing — so with `a(x REAL) = {0.0}`
//! and `b(y REAL) = {-0.0}`, `a ⋈_{x = y} b` is `[(0.0, -0.0)]` in
//! every mode and in the oracle, which evaluates selections with
//! `sql_cmp`. Identity stays where a fact is named: membership flags,
//! `DISTINCT`, conflict detection and indexes.
//!
//! `NULL` is where they still differ. In the mark joins a key component
//! that is `NULL` matches nothing, so a fact with one is never present
//! and a candidate that needs one is not a consistent answer — where
//! the oracle, which lets `NULL` equal itself, can differ. A witnessed
//! literal keeps that reading: its flag is "none of the fact's values is
//! `NULL`", although the row it was read from is in the relation. Once
//! ROADMAP direction 9 settles one reading for every path on a `NULL`
//! equalling itself, a witnessed flag is simply `true`.
//!
//! # The shard → merge answer pipeline
//!
//! Candidate decisions are independent of each other — each depends
//! only on the candidate's conflict neighbourhood — so the answer stage
//! mirrors detection's shard → merge design:
//!
//! ```text
//!        candidates + flags (one extended-envelope evaluation)  ◆ "envelope"
//!                         │ split_ranges → PROVER_SHARDS fixed slices
//!        ┌────────────┬───┴────────┬────────────┐
//!        ▼            ▼            ▼            ▼        workers:
//!   ┌─ shard 0 ─┐┌─ shard 1 ─┐        …   ┌─ shard 15 ─┐ HIPPO_PROVER_THREADS
//!   │ ◆ entry   ││           │             │            │ (panic-isolated:
//!   │ core test ││   (same)  │             │   (same)   │  a crash poisons
//!   │ sig cache ││           │             │            │  one slot, the
//!   │ prover  ◆ ││           │             │            │  siblings drain)
//!   │           ││           │             │            │ ◆ strided tick
//!   └────┬──────┘└────┬──────┘             └────┬───────┘   per candidate
//!        └────────────┴─── merge in shard order┴──▶ answers + stats
//!                          └▶ fresh verdicts → persistent cache
//!                             (skipped if any shard failed/cancelled)
//! ```
//!
//! There is **no serial prefix beyond candidate collection**: the
//! core-filter test and the prover run inside the shards, on the flag
//! rows the envelope evaluation returned. The envelope is
//! set-semantics, so every candidate is decided once; the merge moves
//! each accepted candidate into the answer without copying it. Each shard owns one
//! reusable `Prover` workspace and a private **closure-signature
//! cache** (`Prover::closure_signature`): candidates whose guard
//! outcomes, membership flags and per-literal conflict facts coincide
//! share one verdict ([`AnswerStats::prover_cache_hits`]). Newly proved
//! signatures are folded, at merge time and in shard order, into a
//! **persistent per-query verdict cache** reused by later
//! `answer` calls on the same graph
//! ([`AnswerStats::prover_cache_cross_hits`]); the cache is dropped
//! whenever the graph is replaced. Shard decomposition is fixed by the
//! candidate count — answers and every [`AnswerStats`] counter are
//! bit-identical for any worker count.
//!
//! # Incremental maintenance
//!
//! Database changes made through [`Hippo::insert_tuples`] /
//! [`Hippo::delete_tuples`] / [`Hippo::update_tuples`] are *recorded*,
//! and the next [`Hippo::redetect`] reconciles the hypergraph
//! **incrementally**: edges touching deleted tuples are dropped while
//! surviving edges are carried over verbatim, and inserted tuples are
//! delta-detected (an in-place update is recorded as delete + insert
//! of the same tuple id). The tables maintain their hash indexes on
//! every write, so the delta probes indexes that already hold the
//! batch: an FD pairs each inserted tuple with its LHS bucket, and a
//! general denial **seeds** its join with the inserted tuple and
//! extends through the indexes on its linked columns — the work is
//! proportional to the conflict graph plus the change and its join
//! matches, never the instance or the constraint's outer atom.
//! Restricted foreign keys are incremental too: a key's parent count
//! is its bucket length in the parent's index on the referenced
//! columns, so a batch flips exactly the orphan edges of the keys whose
//! count crossed zero, and the children a key's last parent leaves
//! orphaned are its bucket in the child's index. Mutating the database
//! any other way ([`Hippo::db_mut`]) marks the catalog dirty and the
//! next `redetect` falls back to a full sharded rebuild.
//!
//! Detection needs an index on each FD's LHS columns, on each general
//! denial's linked columns (per atom, for every seed orientation) and
//! on each foreign key's columns on both sides. Before every full
//! detection `Hippo` adds the ones its catalog lacks; an index that
//! exists (a primary key's, say) is used as it is. Added indexes live in
//! the catalog like any other: queries may use them, checkpoints carry
//! their column sets, and [`Hippo::into_database`] hands them back.
//!
//! # Epoch publication (the service layer's view)
//!
//! Everything the answer pipeline reads is immutable for the duration
//! of a run — the catalog snapshot, the conflict hypergraph, the
//! verdict cache `Arc` — which is exactly what a concurrent service
//! needs. [`Hippo::freeze`] packages those three into a [`FrozenHippo`]
//! (`Send + Sync`, cheap `Arc` clones) that answers queries without
//! `&Hippo`, so a single writer can keep mutating the live system while
//! readers fan out over the last published freeze:
//!
//! ```text
//! writer:  insert/delete ──▶ redetect ──▶ freeze() ──▶ publish Arc<Epoch>
//!          (recorded ops)      │ Err / panic: nothing published —
//!                              │ readers keep the previous epoch
//! readers: pin epoch ──▶ FrozenHippo::answer  (lock-free,
//!          shared verdict cache, same shard → merge pipeline as above)
//! ```
//!
//! `crates/server` builds the epoch protocol (admission control, drain,
//! retry) on top of this; the invariant enforced *here* is that a
//! freeze of a reconciled system is self-consistent — [`Hippo::freeze`]
//! refuses while recorded changes are pending — and that replacing the
//! live graph never mutates state a frozen view still references
//! (`redetect` swaps the graph and verdict-cache `Arc`s instead of
//! clearing them in place).
//!
//! [`DbSnapshot`]: hippo_engine::DbSnapshot
//! [`Completeness::TruncatedAt`]: crate::budget::Completeness::TruncatedAt

mod options;
mod pipeline;
mod reconcile;

pub use crate::prover::ProverRunStats;
pub use options::{AnswerStats, GovernanceOptions, HippoOptions};
pub use pipeline::FrozenHippo;

use crate::constraint::DenialConstraint;
use crate::detect::DetectStats;
use crate::hypergraph::ConflictHypergraph;
use hippo_engine::{Database, EngineError, Row, TupleId};
use rustc_hash::FxHashMap;
use std::sync::{Arc, Mutex};

/// One recorded database change, awaiting reconciliation by
/// [`Hippo::redetect`].
#[derive(Debug, Clone)]
enum PendingOp {
    /// A tuple inserted through [`Hippo::insert_tuples`].
    Insert { table: String, tid: TupleId },
    /// A tuple deleted through [`Hippo::delete_tuples`]; `row` is its
    /// content as of deletion (needed for foreign-key parent counts
    /// once the tuple is no longer readable).
    Delete {
        table: String,
        tid: TupleId,
        row: Row,
    },
}

/// The Hippo system: database + constraints + conflict hypergraph.
pub struct Hippo {
    db: Database,
    constraints: Vec<DenialConstraint>,
    /// Behind an `Arc` so [`Hippo::freeze`] can hand a frozen view to
    /// concurrent readers; redetection *replaces* the `Arc` (never
    /// mutates through it), so frozen views keep their graph.
    graph: Arc<ConflictHypergraph>,
    detect_stats: DetectStats,
    /// Restricted foreign keys (orphan edges maintained incrementally
    /// through the tables' indexes on their columns, re-derived in full
    /// on [`Hippo::redetect_full`]).
    foreign_keys: Vec<crate::inclusion::ForeignKey>,
    /// Changes recorded since the last (re)detection, in order.
    pending: Vec<PendingOp>,
    /// Set by [`Hippo::db_mut`]: the database may have changed in ways
    /// the pending log does not capture, so only a full rebuild is safe.
    catalog_dirty: bool,
    /// Persistent closure-signature verdicts, shared **across**
    /// `answer` calls: each run's shards read the previous
    /// runs' verdicts lock-free (behind an `Arc` taken once at run
    /// start) and newly proved signatures are folded back in shard
    /// order during the merge phase — the lock is held only at the two
    /// ends, never while a shard works. Keyed by the query's rendering.
    /// Whenever the graph is replaced the whole `Arc` is swapped for a
    /// fresh one (a signature captures the database's influence through
    /// flags and interned fact ids, so data-only changes stay sound,
    /// but fact ids are meaningless across graphs) — frozen views
    /// ([`Hippo::freeze`]) keep the old `Arc`, which stays sound for
    /// *their* graph.
    verdict_cache: Arc<Mutex<VerdictCache>>,
    /// Options of subsequent redetection runs, captured by
    /// [`Hippo::freeze`]; a live caller answers with them as
    /// `hippo.freeze()?.answer(&q, &hippo.options)`.
    pub options: HippoOptions,
}

/// Verdicts by query rendering, then by conflict-closure signature.
/// Per-query maps sit behind `Arc`s so a running call can read one
/// without holding the registry lock.
#[derive(Debug, Default)]
struct VerdictCache {
    by_query: FxHashMap<String, Arc<FxHashMap<Vec<u64>, bool>>>,
}

impl Hippo {
    /// Build the system: validates constraints and performs conflict
    /// detection (Figure 1's lower path).
    pub fn new(db: Database, constraints: Vec<DenialConstraint>) -> Result<Hippo, EngineError> {
        Hippo::with_options(db, constraints, HippoOptions::default())
    }

    /// Build with explicit options. Construction-time conflict detection
    /// runs under the options' governance (strictly — a budget trip or
    /// injected detect fault surfaces as an error even in degraded mode,
    /// since an incomplete hypergraph would make every later answer
    /// unsound).
    ///
    /// Detection probes the database's own hash indexes, so this adds
    /// to `db` any it lacks: one on each FD's LHS columns, one on each
    /// general denial's columns that an equality links to another atom
    /// (per atom, for every atom the join may start from), and, under
    /// [`Hippo::with_foreign_keys`], one on each foreign key's columns
    /// in the child and in the parent. Existing indexes (a primary
    /// key's, say) are used as they are.
    pub fn with_options(
        db: Database,
        constraints: Vec<DenialConstraint>,
        options: HippoOptions,
    ) -> Result<Hippo, EngineError> {
        let mut hippo = Hippo::unreconciled(db, constraints, Vec::new())?;
        hippo.options = options;
        hippo.redetect_full()?;
        Ok(hippo)
    }

    /// Build the system with restricted foreign keys in addition to denial
    /// constraints (the paper's future-work extension — see
    /// [`crate::inclusion`]): parents must be constraint-free; orphaned
    /// child tuples become singleton hyperedges.
    pub fn with_foreign_keys(
        db: Database,
        constraints: Vec<DenialConstraint>,
        foreign_keys: Vec<crate::inclusion::ForeignKey>,
    ) -> Result<Hippo, EngineError> {
        let mut hippo = Hippo::unreconciled(db, constraints, foreign_keys)?;
        hippo.redetect_full()?;
        Ok(hippo)
    }

    /// The system before its first detection (every constructor starts
    /// here): the foreign keys validated, an empty conflict graph and
    /// the catalog marked dirty, so [`Hippo::freeze`] refuses until
    /// [`Hippo::redetect`] runs one full detection.
    pub fn unreconciled(
        db: Database,
        constraints: Vec<DenialConstraint>,
        foreign_keys: Vec<crate::inclusion::ForeignKey>,
    ) -> Result<Hippo, EngineError> {
        crate::inclusion::validate_restricted(&foreign_keys, &constraints, db.catalog())?;
        Ok(Hippo {
            db,
            constraints,
            graph: Arc::new(ConflictHypergraph::new()),
            detect_stats: DetectStats::default(),
            foreign_keys,
            pending: Vec::new(),
            catalog_dirty: true,
            verdict_cache: Arc::new(Mutex::new(VerdictCache::default())),
            options: HippoOptions::default(),
        })
    }

    /// The underlying database (read access).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable database access. Taking this handle invalidates the
    /// hypergraph: until [`Hippo::redetect`] runs, [`Hippo::freeze`]
    /// returns an error rather than answer from a stale graph. Changes made through this
    /// handle are *not* recorded, so that redetection is a full rebuild;
    /// prefer [`Hippo::insert_tuples`] / [`Hippo::delete_tuples`] for
    /// updates that should be reconciled incrementally.
    pub fn db_mut(&mut self) -> &mut Database {
        self.catalog_dirty = true;
        &mut self.db
    }

    /// Tear down the system, returning the owned database (e.g. to rebuild
    /// with different constraints), with the indexes detection added
    /// (see [`Hippo::with_options`]); a `Hippo` rebuilt on it with the
    /// same constraints adds none.
    pub fn into_database(self) -> Database {
        self.db
    }

    /// The conflict hypergraph.
    pub fn graph(&self) -> &ConflictHypergraph {
        &self.graph
    }

    /// The constraints.
    pub fn constraints(&self) -> &[DenialConstraint] {
        &self.constraints
    }

    /// The restricted foreign keys (empty unless built via
    /// [`Hippo::with_foreign_keys`] or [`Hippo::unreconciled`]). The
    /// durability layer needs these to rebuild an equivalent `Hippo`
    /// around a recovered database — constraints are code, not data, so
    /// they are re-supplied at recovery rather than serialized.
    pub fn foreign_keys(&self) -> &[crate::inclusion::ForeignKey] {
        &self.foreign_keys
    }

    /// Conflict-detection statistics.
    pub fn detect_stats(&self) -> DetectStats {
        self.detect_stats
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::budget::ConsistentAnswer;
    use crate::pred::{CmpOp, Pred};
    use crate::query::SjudQuery;
    use hippo_engine::Value;

    pub(crate) fn emp_db(rows: &[(&str, i64)]) -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE emp (name TEXT, salary INT)")
            .unwrap();
        let rows = rows
            .iter()
            .map(|&(n, s)| vec![Value::text(n), Value::Int(s)]);
        db.insert_rows("emp", rows.collect()).unwrap();
        db
    }

    pub(crate) fn fd() -> Vec<DenialConstraint> {
        vec![DenialConstraint::functional_dependency("emp", &[0], 1)]
    }

    /// A live system answers by freezing, then the one answer call.
    pub(super) fn answer(h: &Hippo, q: &SjudQuery) -> Result<ConsistentAnswer, EngineError> {
        h.freeze()?.answer(q, &h.options)
    }

    pub(super) fn queries() -> Vec<SjudQuery> {
        vec![
            SjudQuery::rel("emp"),
            SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 150i64)),
            SjudQuery::rel("emp").diff(SjudQuery::rel("emp").select(Pred::cmp_const(
                1,
                CmpOp::Lt,
                150i64,
            ))),
            SjudQuery::rel("emp")
                .select(Pred::cmp_const(1, CmpOp::Lt, 150i64))
                .union(SjudQuery::rel("emp").select(Pred::cmp_const(1, CmpOp::Ge, 250i64))),
            SjudQuery::rel("emp").permute(vec![1, 0]),
        ]
    }

    #[test]
    fn stats_populated() {
        let hippo = Hippo::new(emp_db(&[("ann", 100), ("ann", 200)]), fd()).unwrap();
        let stats = answer(&hippo, &SjudQuery::rel("emp")).unwrap().stats;
        assert_eq!(stats.candidates, 2);
        assert_eq!(stats.answers, 0);
        assert!(hippo.detect_stats().combinations_checked > 0);
        assert_eq!(hippo.graph().edge_count(), 1);
    }

    /// Index column sets per table, sorted.
    fn index_sets(db: &Database, rel: &str) -> Vec<Vec<usize>> {
        let mut sets: Vec<Vec<usize>> = db
            .catalog()
            .table(rel)
            .unwrap()
            .index_column_sets()
            .cloned()
            .collect();
        sets.sort();
        sets
    }

    #[test]
    fn detection_adds_only_the_indexes_it_probes() {
        // A key-less table gains exactly its FD's LHS index ...
        let h = Hippo::new(emp_db(&[("ann", 100), ("ann", 200)]), fd()).unwrap();
        assert_eq!(index_sets(h.db(), "emp"), vec![vec![0]]);
        // ... which a rebuild on the returned database reuses, and which
        // a checkpoint's codec carries.
        let h = Hippo::new(h.into_database(), fd()).unwrap();
        assert_eq!(index_sets(h.db(), "emp"), vec![vec![0]]);
        assert_eq!(h.graph().edge_count(), 1);
        let bytes = hippo_engine::codec::encode_catalog(h.db().catalog());
        let back = Database::from_catalog(hippo_engine::codec::decode_catalog(&bytes).unwrap());
        assert_eq!(index_sets(&back, "emp"), vec![vec![0]]);

        // A keyed table under `k → v` already has the index it needs.
        let mut db = Database::new();
        db.execute("CREATE TABLE t (k INT, v INT, payload INT, PRIMARY KEY (k))")
            .unwrap();
        let h = Hippo::new(
            db,
            vec![DenialConstraint::functional_dependency("t", &[0], 1)],
        )
        .unwrap();
        assert_eq!(index_sets(h.db(), "t"), vec![vec![0]]);

        // An exclusion gains each side's linked columns, a foreign key
        // its columns in the child and in the parent.
        let mut db = emp_db(&[("ann", 100)]);
        db.execute("CREATE TABLE contractor (cname TEXT, dept INT)")
            .unwrap();
        db.execute("CREATE TABLE dept (id INT)").unwrap();
        let h = Hippo::with_foreign_keys(
            db,
            vec![DenialConstraint::exclusion("emp", "contractor", &[(0, 0)])],
            vec![crate::inclusion::ForeignKey::new(
                "contractor",
                vec![1],
                "dept",
                vec![0],
            )],
        )
        .unwrap();
        assert_eq!(index_sets(h.db(), "emp"), vec![vec![0]]);
        assert_eq!(index_sets(h.db(), "contractor"), vec![vec![0], vec![1]]);
        assert_eq!(index_sets(h.db(), "dept"), vec![vec![0]]);
    }

    #[test]
    fn unreconciled_refuses_freeze_until_one_full_detection() {
        let db = || emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
        let built = Hippo::new(db(), fd()).unwrap();
        let mut h = Hippo::unreconciled(db(), fd(), Vec::new()).unwrap();
        assert_eq!(h.graph().edge_count(), 0);
        let err = h.freeze().unwrap_err();
        assert!(err.message.contains("redetect"), "{err}");
        // Recorded changes on top of the unreconciled state are folded
        // into the one full detection, never replayed incrementally.
        h.delete_tuples("emp", &[TupleId(2)]).unwrap();
        h.insert_tuples("emp", vec![vec![Value::text("bob"), Value::Int(300)]])
            .unwrap();
        let stats = h.redetect().unwrap();
        assert!(!stats.incremental);
        assert_eq!(stats.edges_emitted, built.detect_stats().edges_emitted);
        assert_eq!(h.graph().edge_count(), built.graph().edge_count());
        assert_eq!(
            answer(&h, &SjudQuery::rel("emp")).unwrap().rows,
            answer(&built, &SjudQuery::rel("emp")).unwrap().rows
        );
    }
}
