//! Conflict detection: build the conflict hypergraph from a database
//! instance and a set of denial constraints.
//!
//! This is the "Conflict Detection" stage of the paper's Figure 1: it runs
//! once per (instance, constraint set) and produces the main-memory
//! hypergraph the Prover consults. Two evaluation strategies:
//!
//! * **FD fast path** — functional dependencies group tuples by the LHS
//!   columns with one hash pass and emit an edge per RHS-disagreeing pair.
//!   Grouping is *zero-copy*: rows are bucketed by the Fx hash of their
//!   LHS projection (no key `Vec<Value>` is built) and candidate pairs
//!   re-verify LHS equality, which also neutralises hash collisions.
//! * **General denials** — atoms are joined left-to-right; whenever the
//!   next atom is linked to an already-bound atom by equality comparisons,
//!   a pre-sized Fx hash index on those columns replaces the nested-loop
//!   scan. Partial assignments bind `(TupleId, &Row)` pairs, so the join
//!   never clones a row.
//!
//! # Shard → merge pipeline
//!
//! Both strategies are decomposed into [`DetectOptions::shards`]
//! deterministic shards executed by a [`crate::parallel`] worker pool:
//!
//! * the FD path partitions tuples by the **high bits of their LHS
//!   hash** (a hash pass over contiguous slot ranges feeds per-shard
//!   bins, so the expensive hashing itself is parallel), and each shard
//!   groups and pair-checks its buckets independently — a whole hash
//!   bucket always lands in exactly one shard;
//! * the general path partitions the **outer atom's tuple-slot range**
//!   into contiguous ranges; the per-atom join indexes are built once
//!   and shared read-only across shards.
//!
//! Each shard emits edges into a private
//! [`crate::hypergraph::EdgeFragment`]; the merge step absorbs fragments
//! **in shard order** into the [`ConflictHypergraph`], whose chained-hash
//! table dedups across shards. Shard decomposition depends only on the
//! data and the shard count — never on the worker count — so edge ids
//! are bit-identical for any `HIPPO_DETECT_THREADS` setting, and
//! [`DetectStats`] counters are exact sums over shards. Detection ends
//! with [`ConflictHypergraph::finalize`], which freezes the vertex→edge
//! adjacency into its compact offset-array form for the prover's reads.
//!
//! The two FD passes (hash, then group-and-check) share a **single**
//! thread scope with a barrier between them ([`parallel::run_fused`]),
//! so each constraint spawns its workers once instead of twice.
//!
//! The FD grouping pass doubles as the builder of the persistent
//! `FdIndex` (LHS-hash → tuple ids) that [`crate::hippo::Hippo`] keeps
//! for **incremental redetection**. General denials get the analogous
//! treatment through `GenIndex`: the per-atom join indexes (linked
//! columns → tuple ids) are persisted for every *seed orientation* of
//! the constraint, so a delta pass binds the changed tuple first and
//! hash-extends outward — `O(delta × matches)` work, never a rescan of
//! the constraint's outer atom. The `*_delta_*` helpers in this module
//! probe those indexes against just the inserted tuples instead of the
//! whole instance.

use crate::constraint::{Comparison, DenialConstraint, Term};
use crate::hypergraph::{ConflictHypergraph, EdgeFragment, Vertex};
use crate::parallel;
use crate::pred::CmpOp;
use hippo_engine::{Catalog, EngineError, Row, Table, TupleId, Value};
use rustc_hash::{FxHashMap, FxHasher};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// Default shard count. Fixed (rather than derived from the worker
/// count) so the shard decomposition — and therefore edge ids — never
/// change when `HIPPO_DETECT_THREADS` does.
pub const DEFAULT_SHARDS: usize = 16;

/// Knobs for one detection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectOptions {
    /// Worker threads; `0` = auto (the `HIPPO_DETECT_THREADS`
    /// environment variable if set, else available parallelism). The
    /// thread count never affects the produced graph, only wall-clock.
    pub threads: usize,
    /// Shard count; `0` = auto ([`DEFAULT_SHARDS`]). The *edge id
    /// order* (not the edge set) depends on the shard count for FD
    /// constraints, because hash-range partitioning permutes bucket
    /// visit order.
    pub shards: usize,
}

impl DetectOptions {
    /// Auto shards, explicit thread count (`0` = auto).
    pub fn with_threads(threads: usize) -> DetectOptions {
        DetectOptions { threads, shards: 0 }
    }

    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            parallel::detect_threads()
        } else {
            self.threads
        }
    }

    fn resolved_shards(&self) -> usize {
        if self.shards == 0 {
            DEFAULT_SHARDS
        } else {
            self.shards
        }
    }
}

/// Detection statistics (reported by experiment E4). Under sharding
/// every counter is the exact sum of the per-shard counters, and the
/// totals are independent of both the shard and the thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DetectStats {
    /// Wall-clock time spent detecting.
    pub elapsed: Duration,
    /// Candidate tuple combinations tested against constraint conditions.
    pub combinations_checked: usize,
    /// Edges produced (before dedup; the hypergraph dedups internally).
    pub edges_emitted: usize,
    /// Shards the run was decomposed into (`0` for an incremental delta
    /// pass, which probes per-tuple instead of sharding the instance).
    pub shards_used: usize,
    /// Did this run take the incremental delta path (see
    /// [`crate::hippo::Hippo::redetect`]) instead of a full detection?
    pub incremental: bool,
}

impl std::fmt::Display for DetectStats {
    /// One-line report, shaped like [`crate::hippo::AnswerStats`]'s:
    /// mode, shard count, exact work counters, wall-clock.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mode={} shards={} combinations={} edges_emitted={} elapsed={:.3}ms",
            if self.incremental {
                "incremental"
            } else {
                "full"
            },
            self.shards_used,
            self.combinations_checked,
            self.edges_emitted,
            self.elapsed.as_secs_f64() * 1e3,
        )
    }
}

/// Persistent per-FD grouping state: the LHS-hash → tuple-id buckets the
/// sharded FD pass computed anyway, retained so later inserts/deletes
/// can be reconciled in O(bucket) instead of O(instance).
#[derive(Debug, Clone)]
pub(crate) struct FdIndex {
    /// Relation the FD constrains.
    pub rel: String,
    /// LHS column set.
    pub lhs: Vec<usize>,
    /// RHS column.
    pub rhs: usize,
    /// LHS-projection hash → live tuple ids carrying that hash, in
    /// insertion (slot, then arrival) order. Tuples with a NULL LHS
    /// column are absent (they never participate in FD violations).
    pub groups: FxHashMap<u64, Vec<TupleId>>,
}

/// One persisted join index of a general denial: `key_cols` of the
/// indexed atom's relation → live tuple ids carrying that key (NULL keys
/// are absent — they never join). Owned (ids, not row borrows), so it
/// survives inside [`crate::hippo::Hippo`] across database changes and
/// is maintained in O(1) per inserted/deleted tuple.
#[derive(Debug, Clone)]
pub(crate) struct OwnedJoinIndex {
    /// Columns of the indexed atom forming the key.
    pub key_cols: Vec<usize>,
    /// Key values → live tuple ids, in arrival order.
    pub map: FxHashMap<Vec<Value>, Vec<TupleId>>,
}

/// One step of a seed orientation: bind `atom` next, matching the
/// equality links back to already-bound atoms through `index` (an id
/// into [`GenIndex::indexes`]) when links exist, else a table scan.
#[derive(Debug, Clone)]
pub(crate) struct SeedStep {
    /// Atom being bound by this step.
    pub atom: usize,
    /// `(bound atom, bound col, this atom's col)` equality links.
    pub links: Vec<(usize, usize, usize)>,
    /// Persisted join index serving this step (`None` = no links).
    pub index: Option<usize>,
}

/// Persistent delta-join state for one general denial: for every **seed
/// orientation** `p` (the atom position a changed tuple occupies), the
/// step sequence binding the remaining atoms in ascending order, plus
/// the owned join indexes those steps probe. Indexes are deduplicated
/// by `(relation, key columns)`, so orientations share them.
#[derive(Debug, Clone)]
pub(crate) struct GenIndex {
    /// `orientations[p]` binds the remaining atoms after seeding atom `p`.
    pub orientations: Vec<Vec<SeedStep>>,
    /// `(relation name, index)` pairs referenced by the steps.
    pub indexes: Vec<(String, OwnedJoinIndex)>,
}

impl GenIndex {
    /// Register a newly inserted tuple with every index over its relation.
    pub fn insert_tuple(&mut self, table: &str, tid: TupleId, row: &Row) {
        for (rel, ix) in &mut self.indexes {
            if rel != table {
                continue;
            }
            let key: Vec<Value> = ix.key_cols.iter().map(|&c| row[c].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            ix.map.entry(key).or_default().push(tid);
        }
    }

    /// Remove a deleted tuple (`row` is its content as of deletion) from
    /// every index over its relation.
    pub fn remove_tuple(&mut self, table: &str, tid: TupleId, row: &Row) {
        for (rel, ix) in &mut self.indexes {
            if rel != table {
                continue;
            }
            let key: Vec<Value> = ix.key_cols.iter().map(|&c| row[c].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            if let Some(tids) = ix.map.get_mut(&key) {
                tids.retain(|&t| t != tid);
                if tids.is_empty() {
                    ix.map.remove(&key);
                }
            }
        }
    }
}

/// Per-constraint incremental-detection state, parallel to the
/// constraint list: `fd[ci]` for FD constraints (a free by-product of
/// the sharded FD pass), `general[ci]` for everything else. General
/// indexes are **lazily** materialised by the first incremental
/// redetect that needs them — full detection never pays for the owned
/// copies — so `general[ci]` is `None` for FD constraints *and* for
/// general constraints whose index has not been demanded yet.
#[derive(Debug, Clone, Default)]
pub(crate) struct DetectIndex {
    pub fd: Vec<Option<FdIndex>>,
    pub general: Vec<Option<GenIndex>>,
}

/// Build the conflict hypergraph for `constraints` over the catalog,
/// with default [`DetectOptions`].
pub fn detect_conflicts(
    catalog: &Catalog,
    constraints: &[DenialConstraint],
) -> Result<(ConflictHypergraph, DetectStats), EngineError> {
    detect_conflicts_with(catalog, constraints, &DetectOptions::default())
}

/// Build the conflict hypergraph with explicit sharding/threading knobs.
pub fn detect_conflicts_with(
    catalog: &Catalog,
    constraints: &[DenialConstraint],
    opts: &DetectOptions,
) -> Result<(ConflictHypergraph, DetectStats), EngineError> {
    let start = Instant::now();
    let gov = crate::budget::Governance::default();
    let (mut g, mut stats, _) = detect_core(catalog, constraints, opts, false, &gov)?;
    // Compact adjacency into CSR form: construction is over, the prover
    // only reads from here on.
    g.finalize();
    stats.elapsed = start.elapsed();
    Ok((g, stats))
}

/// Like [`detect_with_index`] but leaves the graph un-finalized, for
/// callers that will add more edges (foreign-key orphan edges) before
/// freezing the adjacency themselves — keeping the [`DetectIndex`] (and
/// with it the incremental redetection path) available under foreign
/// keys.
pub(crate) fn detect_unfinalized_with_index(
    catalog: &Catalog,
    constraints: &[DenialConstraint],
    gov: &crate::budget::Governance,
) -> Result<(ConflictHypergraph, DetectStats, DetectIndex), EngineError> {
    let (g, stats, index) =
        detect_core(catalog, constraints, &DetectOptions::default(), true, gov)?;
    Ok((g, stats, index.expect("index requested")))
}

/// Full detection that additionally returns the [`DetectIndex`] the
/// incremental redetection path needs (finalized graph).
///
/// Detection under governance is always **strict**: a budget trip here
/// surfaces as an error even when the caller is in degraded mode,
/// because an incomplete conflict hypergraph would make the prover
/// *unsound* rather than merely incomplete.
pub(crate) fn detect_with_index(
    catalog: &Catalog,
    constraints: &[DenialConstraint],
    opts: &DetectOptions,
    gov: &crate::budget::Governance,
) -> Result<(ConflictHypergraph, DetectStats, DetectIndex), EngineError> {
    let start = Instant::now();
    let (mut g, mut stats, index) = detect_core(catalog, constraints, opts, true, gov)?;
    g.finalize();
    stats.elapsed = start.elapsed();
    Ok((g, stats, index.expect("index requested")))
}

fn detect_core(
    catalog: &Catalog,
    constraints: &[DenialConstraint],
    opts: &DetectOptions,
    want_index: bool,
    gov: &crate::budget::Governance,
) -> Result<(ConflictHypergraph, DetectStats, Option<DetectIndex>), EngineError> {
    let start = Instant::now();
    let threads = opts.resolved_threads();
    let shards = opts.resolved_shards();
    let mut g = ConflictHypergraph::new();
    let mut stats = DetectStats {
        shards_used: shards,
        ..DetectStats::default()
    };
    for c in constraints {
        c.validate(catalog)?;
    }
    let mut index = want_index.then(DetectIndex::default);
    for (ci, c) in constraints.iter().enumerate() {
        if let Some((rel, lhs, rhs)) = as_fd(c) {
            let groups = detect_fd(
                catalog, &mut g, ci, &rel, &lhs, rhs, threads, shards, want_index, &mut stats, gov,
            )?;
            if let Some(ix) = index.as_mut() {
                ix.fd.push(Some(FdIndex {
                    rel,
                    lhs,
                    rhs,
                    groups: groups.unwrap_or_default(),
                }));
                ix.general.push(None);
            }
        } else {
            detect_general(catalog, &mut g, ci, c, threads, shards, &mut stats, gov)?;
            if let Some(ix) = index.as_mut() {
                ix.fd.push(None);
                // Built lazily by the first incremental redetect: a
                // read-only Hippo never pays for the owned indexes.
                ix.general.push(None);
            }
        }
    }
    stats.elapsed = start.elapsed();
    Ok((g, stats, index))
}

/// Recognise the FD pattern: two atoms over the same relation, condition =
/// equalities on L columns plus exactly one `<>` on the same column of
/// both atoms.
fn as_fd(c: &DenialConstraint) -> Option<(String, Vec<usize>, usize)> {
    if c.atoms.len() != 2 || c.atoms[0] != c.atoms[1] {
        return None;
    }
    let mut lhs = Vec::new();
    let mut rhs = None;
    for cmp in &c.condition {
        match cmp {
            Comparison {
                op: CmpOp::Eq,
                left: Term::Attr(a),
                right: Term::Attr(b),
            } if a.atom != b.atom && a.col == b.col => {
                lhs.push(a.col);
            }
            Comparison {
                op: CmpOp::Neq,
                left: Term::Attr(a),
                right: Term::Attr(b),
            } if a.atom != b.atom && a.col == b.col && rhs.is_none() => {
                rhs = Some(a.col);
            }
            _ => return None,
        }
    }
    rhs.map(|r| (c.atoms[0].clone(), lhs, r))
}

/// Fx hash of a row's LHS projection; `None` when any LHS column is NULL
/// (SQL comparison with NULL is unknown, so such rows never violate).
#[inline]
fn lhs_hash(row: &Row, lhs: &[usize]) -> Option<u64> {
    let mut h = FxHasher::default();
    for &c in lhs {
        if row[c].is_null() {
            return None;
        }
        row[c].hash(&mut h);
    }
    Some(h.finish())
}

/// Shard of a hash: multiply-shift on the high 32 bits, so the shard
/// choice is independent of the low bits the grouping hash map consumes.
#[inline]
fn shard_of(hash: u64, shards: usize) -> usize {
    (((hash >> 32) * shards as u64) >> 32) as usize
}

/// `(lhs_hash, tuple, row)` triple binned to a shard by the FD hash pass.
type HashedTuple<'a> = (u64, TupleId, &'a Row);

/// Hash-join index of one atom: linked-column key → matching tuples.
type JoinIndex<'a> = FxHashMap<Vec<Value>, Vec<(TupleId, &'a Row)>>;

/// One FD shard's output.
struct FdShardOut<'a> {
    frag: EdgeFragment<'a>,
    combinations: usize,
    emitted: usize,
    groups: FxHashMap<u64, Vec<(TupleId, &'a Row)>>,
}

/// Sharded FD fast path. Returns the merged LHS-hash → tuple-id index
/// when `want_index` is set.
#[allow(clippy::too_many_arguments)]
fn detect_fd(
    catalog: &Catalog,
    g: &mut ConflictHypergraph,
    ci: usize,
    rel: &str,
    lhs: &[usize],
    rhs: usize,
    threads: usize,
    shards: usize,
    want_index: bool,
    stats: &mut DetectStats,
    gov: &crate::budget::Governance,
) -> Result<Option<FxHashMap<u64, Vec<TupleId>>>, EngineError> {
    let table = catalog.table(rel)?;
    let ri = g.intern(rel);
    // Both phases share ONE thread scope (a barrier separates them), so
    // each FD constraint spawns its workers once instead of twice.
    //
    // Phase A — parallel hash pass: contiguous slot-range chunks, each
    // binning `(hash, tid, row)` by shard. Concatenating chunk bins in
    // chunk order restores slot order, so the chunk count (= thread
    // count) leaves the per-shard tuple sequence unchanged.
    //
    // Phase B — per shard: group by full hash (zero-clone, keyed by the
    // hash itself; pairs re-verify LHS equality, which also neutralises
    // collisions) and emit an edge per RHS-disagreeing same-LHS pair.
    let chunks = parallel::split_ranges(table.slot_count(), threads);
    // Vectorized hash pass: when the table has a column store, each
    // chunk hashes the LHS projection straight off the contiguous typed
    // column slices (`ColumnStore::hash_cols` writes the exact byte
    // sequence `Value::hash` produces, and store positions follow slot
    // order), so the per-shard `(hash, tid, row)` sequences — and with
    // them every downstream stat and edge — are bit-identical to the
    // slot-loop fallback below.
    let store = if hippo_engine::columnar_enabled() {
        table.column_store()
    } else {
        None
    };
    type FdShardRes<'a> = Result<FdShardOut<'a>, EngineError>;
    let (_bins, outs): (Vec<Vec<Vec<HashedTuple>>>, Vec<FdShardRes>) = parallel::run_fused(
        chunks.len(),
        shards,
        threads,
        |i| {
            let (lo, hi) = chunks[i];
            let mut by_shard: Vec<Vec<HashedTuple>> = (0..shards).map(|_| Vec::new()).collect();
            if let Some(store) = store {
                let range = store.tid_range(lo as u32, hi as u32);
                // NULL LHS components never violate: `for_each_hash`
                // skips those rows, exactly like `lhs_hash` below.
                store.for_each_hash::<FxHasher, _>(range, lhs, |pos, h| {
                    let tid = TupleId(store.tid(pos));
                    let row = table.get(tid).expect("column store positions are live");
                    by_shard[shard_of(h, shards)].push((h, tid, row));
                });
                return by_shard;
            }
            for slot in lo..hi {
                let tid = TupleId(slot as u32);
                let Some(row) = table.get(tid) else { continue };
                let Some(h) = lhs_hash(row, lhs) else {
                    continue;
                };
                by_shard[shard_of(h, shards)].push((h, tid, row));
            }
            by_shard
        },
        |s, bins| {
            // Governance: checkpoint at shard start (fault-injection
            // point `("detect", s)`), strided budget ticks in the pair
            // loop. Trips surface as errors — detection is always
            // strict (see `detect_with_index`).
            gov.checkpoint("detect", s)?;
            let n: usize = bins.iter().map(|chunk| chunk[s].len()).sum();
            let mut groups: FxHashMap<u64, Vec<(TupleId, &Row)>> =
                FxHashMap::with_capacity_and_hasher(n, Default::default());
            for chunk in bins {
                for &(h, tid, row) in &chunk[s] {
                    groups.entry(h).or_default().push((tid, row));
                }
            }
            let mut frag = EdgeFragment::new();
            let mut combinations = 0;
            let mut emitted = 0;
            let mut work = 0u32;
            for group in groups.values() {
                if group.len() < 2 {
                    continue;
                }
                for (i, &(tid_a, row_a)) in group.iter().enumerate() {
                    for &(tid_b, row_b) in group.iter().skip(i + 1) {
                        combinations += 1;
                        gov.tick(&mut work, "detect")?;
                        if lhs.iter().any(|&c| row_a[c] != row_b[c]) {
                            continue; // hash collision, not a real group-mate
                        }
                        if row_a[rhs].sql_eq(&row_b[rhs]) == Some(false) {
                            emitted += 1;
                            frag.push_edge(
                                &[
                                    Vertex {
                                        rel: ri,
                                        tid: tid_a,
                                    },
                                    Vertex {
                                        rel: ri,
                                        tid: tid_b,
                                    },
                                ],
                                &[row_a, row_b],
                                ci,
                            );
                        }
                    }
                }
            }
            Ok(FdShardOut {
                frag,
                combinations,
                emitted,
                groups,
            })
        },
    );
    // Deterministic merge: shard order, exact stat sums. Shards
    // partition the hash space, so index buckets never collide.
    let mut index =
        want_index.then(|| FxHashMap::with_capacity_and_hasher(table.len(), Default::default()));
    for out in outs {
        let out = out?;
        stats.combinations_checked += out.combinations;
        stats.edges_emitted += out.emitted;
        g.absorb_fragment(&out.frag);
        if let Some(ix) = index.as_mut() {
            for (h, members) in out.groups {
                ix.insert(h, members.into_iter().map(|(tid, _)| tid).collect());
            }
        }
    }
    Ok(index)
}

/// One join step of a general denial: equality links back to bound atoms
/// and, when links exist, a shared hash index on the linked columns.
struct GenAtomStep<'a> {
    links: Vec<(usize, usize, usize)>, // (bound_atom, bound_col, new_col)
    index: Option<JoinIndex<'a>>,
}

/// Resolve tables and build the per-atom join steps (indexes are built
/// once, then shared read-only across all shards).
fn build_general_plan<'a>(
    catalog: &'a Catalog,
    c: &DenialConstraint,
) -> Result<(Vec<&'a Table>, Vec<GenAtomStep<'a>>), EngineError> {
    let tables: Vec<&Table> = c
        .atoms
        .iter()
        .map(|r| catalog.table(r))
        .collect::<Result<_, _>>()?;
    let mut steps = Vec::with_capacity(c.atoms.len());
    for (atom_idx, &table) in tables.iter().enumerate() {
        let mut links: Vec<(usize, usize, usize)> = Vec::new();
        for prev in 0..atom_idx {
            for (pc, nc) in c.equalities_between(prev, atom_idx) {
                links.push((prev, pc, nc));
            }
        }
        let index = if links.is_empty() {
            None
        } else {
            let key_cols: Vec<usize> = links.iter().map(|&(_, _, nc)| nc).collect();
            let mut ix: JoinIndex =
                FxHashMap::with_capacity_and_hasher(table.len(), Default::default());
            for (tid, row) in table.iter() {
                let key: Vec<Value> = key_cols.iter().map(|&cc| row[cc].clone()).collect();
                if key.iter().any(Value::is_null) {
                    continue;
                }
                ix.entry(key).or_default().push((tid, row));
            }
            Some(ix)
        };
        steps.push(GenAtomStep { links, index });
    }
    Ok((tables, steps))
}

/// Run the left-to-right join from a seed of outer-atom rows, emitting
/// every full satisfying assignment as an edge into `frag`. Returns
/// `(combinations, emitted)`. (Delta passes no longer go through here —
/// they seed from the changed tuples via [`general_delta_insert`].)
#[allow(clippy::too_many_arguments)]
fn run_general_join<'a>(
    c: &DenialConstraint,
    rels: &[u32],
    tables: &[&'a Table],
    steps: &[GenAtomStep<'a>],
    ci: usize,
    outer: &[(TupleId, &'a Row)],
    frag: &mut EdgeFragment<'a>,
    gov: &crate::budget::Governance,
) -> Result<(usize, usize), EngineError> {
    let mut combinations = 0usize;
    let mut emitted = 0usize;
    let mut work = 0u32;
    // Bind atoms left to right; each partial assignment is a prefix of
    // (tuple id, row) bindings. Atom 0 is seeded from `outer`.
    let mut current: Vec<Vec<(TupleId, &Row)>> = Vec::new();
    for &(tid, row) in outer {
        combinations += 1;
        gov.tick(&mut work, "detect")?;
        let assign = vec![(tid, row)];
        if partial_condition_ok(c, &assign) {
            current.push(assign);
        }
    }
    for (atom_idx, step) in steps.iter().enumerate().skip(1) {
        let mut next: Vec<Vec<(TupleId, &Row)>> = Vec::new();
        if let Some(ix) = &step.index {
            // Hash-join extension on the linked columns.
            for assign in &current {
                let key: Vec<Value> = step
                    .links
                    .iter()
                    .map(|&(prev, pc, _)| assign[prev].1[pc].clone())
                    .collect();
                if key.iter().any(Value::is_null) {
                    continue;
                }
                if let Some(matches) = ix.get(&key) {
                    for &(tid, row) in matches {
                        combinations += 1;
                        gov.tick(&mut work, "detect")?;
                        let mut a = assign.clone();
                        a.push((tid, row));
                        if partial_condition_ok(c, &a) {
                            next.push(a);
                        }
                    }
                }
            }
        } else {
            // Nested-loop extension.
            for assign in &current {
                for (tid, row) in tables[atom_idx].iter() {
                    combinations += 1;
                    gov.tick(&mut work, "detect")?;
                    let mut a = assign.clone();
                    a.push((tid, row));
                    if partial_condition_ok(c, &a) {
                        next.push(a);
                    }
                }
            }
        }
        current = next;
    }
    for assign in current {
        // Full assignment satisfying the condition = violation.
        let rows: Vec<&Row> = assign.iter().map(|&(_, r)| r).collect();
        debug_assert!(c.condition_holds(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>()));
        emitted += 1;
        let vertices: Vec<Vertex> = assign
            .iter()
            .enumerate()
            .map(|(i, &(tid, _))| Vertex { rel: rels[i], tid })
            .collect();
        frag.push_edge(&vertices, &rows, ci);
    }
    Ok((combinations, emitted))
}

/// Sharded general-denial detection: contiguous outer-atom slot ranges,
/// one fragment per range, merged in range order (which reproduces the
/// sequential assignment enumeration order exactly, for any shard
/// count).
#[allow(clippy::too_many_arguments)]
fn detect_general(
    catalog: &Catalog,
    g: &mut ConflictHypergraph,
    ci: usize,
    c: &DenialConstraint,
    threads: usize,
    shards: usize,
    stats: &mut DetectStats,
    gov: &crate::budget::Governance,
) -> Result<(), EngineError> {
    let rels: Vec<u32> = c.atoms.iter().map(|r| g.intern(r)).collect();
    let (tables, steps) = build_general_plan(catalog, c)?;
    let outer_table = tables[0];
    let ranges = parallel::split_ranges(outer_table.slot_count(), shards);
    type GenShardRes<'a> = Result<(EdgeFragment<'a>, usize, usize), EngineError>;
    let outs: Vec<GenShardRes> = parallel::run_indexed(ranges.len(), threads, |i| {
        gov.checkpoint("detect", i)?;
        let (lo, hi) = ranges[i];
        let outer: Vec<(TupleId, &Row)> = (lo..hi)
            .filter_map(|slot| {
                let tid = TupleId(slot as u32);
                outer_table.get(tid).map(|row| (tid, row))
            })
            .collect();
        let mut frag = EdgeFragment::new();
        let (combinations, emitted) =
            run_general_join(c, &rels, &tables, &steps, ci, &outer, &mut frag, gov)?;
        Ok((frag, combinations, emitted))
    });
    for out in outs {
        let (frag, combinations, emitted) = out?;
        stats.combinations_checked += combinations;
        stats.edges_emitted += emitted;
        g.absorb_fragment(&frag);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Incremental (delta) detection — used by `Hippo::redetect`
// ---------------------------------------------------------------------------

/// Probe freshly inserted tuples against a persistent FD index: each new
/// tuple is pair-checked against its LHS-hash bucket only, then appended
/// to the bucket (so new-new pairs within one batch are found too).
pub(crate) fn fd_delta_insert(
    catalog: &Catalog,
    g: &mut ConflictHypergraph,
    ci: usize,
    ix: &mut FdIndex,
    tids: &[TupleId],
    stats: &mut DetectStats,
) -> Result<(), EngineError> {
    let table = catalog.table(&ix.rel)?;
    let ri = g.intern(&ix.rel);
    for &tid in tids {
        let Some(row) = table.get(tid) else { continue };
        let Some(h) = lhs_hash(row, &ix.lhs) else {
            continue;
        };
        let members = ix.groups.entry(h).or_default();
        for &tid_b in members.iter() {
            let Some(row_b) = table.get(tid_b) else {
                continue;
            };
            stats.combinations_checked += 1;
            if ix.lhs.iter().any(|&c| row[c] != row_b[c]) {
                continue; // hash collision, not a real group-mate
            }
            if row[ix.rhs].sql_eq(&row_b[ix.rhs]) == Some(false) {
                stats.edges_emitted += 1;
                g.add_edge(
                    &[
                        Vertex { rel: ri, tid },
                        Vertex {
                            rel: ri,
                            tid: tid_b,
                        },
                    ],
                    &[row, row_b],
                    ci,
                );
            }
        }
        members.push(tid);
    }
    Ok(())
}

/// Remove a deleted tuple from a persistent FD index (`row` is the
/// tuple's content as of deletion; a NULL-LHS row was never indexed).
pub(crate) fn fd_delta_delete(ix: &mut FdIndex, row: &Row, tid: TupleId) {
    if let Some(h) = lhs_hash(row, &ix.lhs) {
        if let Some(members) = ix.groups.get_mut(&h) {
            members.retain(|&t| t != tid);
            if members.is_empty() {
                ix.groups.remove(&h);
            }
        }
    }
}

/// Build the persistent [`GenIndex`] for a general denial: the seed
/// orientations plus their owned join indexes. Indexes keyed by the same
/// `(relation, key columns)` pair are built once and shared.
pub(crate) fn build_gen_index(
    catalog: &Catalog,
    c: &DenialConstraint,
) -> Result<GenIndex, EngineError> {
    let n = c.atoms.len();
    let mut gix = GenIndex {
        orientations: Vec::with_capacity(n),
        indexes: Vec::new(),
    };
    let mut by_key: FxHashMap<(String, Vec<usize>), usize> = FxHashMap::default();
    for p in 0..n {
        let mut bound: Vec<usize> = vec![p];
        let mut steps = Vec::new();
        for q in 0..n {
            if q == p {
                continue;
            }
            let mut links: Vec<(usize, usize, usize)> = Vec::new();
            for &b in &bound {
                for (bc, qc) in c.equalities_between(b, q) {
                    links.push((b, bc, qc));
                }
            }
            let index = if links.is_empty() {
                None
            } else {
                let key_cols: Vec<usize> = links.iter().map(|&(_, _, qc)| qc).collect();
                let slot = match by_key.entry((c.atoms[q].clone(), key_cols.clone())) {
                    std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let table = catalog.table(&c.atoms[q])?;
                        let mut map: FxHashMap<Vec<Value>, Vec<TupleId>> =
                            FxHashMap::with_capacity_and_hasher(table.len(), Default::default());
                        for (tid, row) in table.iter() {
                            let key: Vec<Value> =
                                key_cols.iter().map(|&cc| row[cc].clone()).collect();
                            if key.iter().any(Value::is_null) {
                                continue;
                            }
                            map.entry(key).or_default().push(tid);
                        }
                        let id = gix.indexes.len();
                        gix.indexes
                            .push((c.atoms[q].clone(), OwnedJoinIndex { key_cols, map }));
                        e.insert(id);
                        id
                    }
                };
                Some(slot)
            };
            steps.push(SeedStep {
                atom: q,
                links,
                index,
            });
            bound.push(q);
        }
        gix.orientations.push(steps);
    }
    Ok(gix)
}

/// Delta-detect a general denial after inserts, **seeded from the
/// changed tuples**: for every atom position `p` whose relation received
/// new tuples, bind each new tuple at `p` first, then extend to the
/// remaining atoms through the persisted [`GenIndex`] join indexes (or
/// a scan for link-free atoms). Work is `O(delta × join matches)` — the
/// constraint's outer atom is never rescanned. Combinations where
/// several new tuples occupy different positions are found more than
/// once; the graph's dedup collapses them.
pub(crate) fn general_delta_insert(
    catalog: &Catalog,
    g: &mut ConflictHypergraph,
    ci: usize,
    c: &DenialConstraint,
    ix: &GenIndex,
    deltas: &FxHashMap<String, Vec<TupleId>>,
    stats: &mut DetectStats,
) -> Result<(), EngineError> {
    if !c
        .atoms
        .iter()
        .any(|a| deltas.get(a).is_some_and(|d| !d.is_empty()))
    {
        return Ok(());
    }
    let rels: Vec<u32> = c.atoms.iter().map(|r| g.intern(r)).collect();
    let tables: Vec<&Table> = c
        .atoms
        .iter()
        .map(|r| catalog.table(r))
        .collect::<Result<_, _>>()?;
    let mut bindings: Vec<Option<(TupleId, &Row)>> = vec![None; c.atoms.len()];
    for p in 0..c.atoms.len() {
        let Some(delta) = deltas.get(&c.atoms[p]) else {
            continue;
        };
        for &tid in delta {
            let Some(row) = tables[p].get(tid) else {
                continue;
            };
            stats.combinations_checked += 1;
            bindings[p] = Some((tid, row));
            if sparse_condition_ok(c, &bindings) {
                seed_extend(c, &rels, &tables, ix, p, 0, &mut bindings, ci, g, stats);
            }
            bindings[p] = None;
        }
    }
    Ok(())
}

/// Recursive extension of a seeded partial assignment along orientation
/// `p`'s steps; emits an edge for every full satisfying assignment.
#[allow(clippy::too_many_arguments)]
fn seed_extend<'a>(
    c: &DenialConstraint,
    rels: &[u32],
    tables: &[&'a Table],
    ix: &GenIndex,
    p: usize,
    step_i: usize,
    bindings: &mut Vec<Option<(TupleId, &'a Row)>>,
    ci: usize,
    g: &mut ConflictHypergraph,
    stats: &mut DetectStats,
) {
    let steps = &ix.orientations[p];
    if step_i == steps.len() {
        // Full assignment satisfying the condition = violation.
        let rows: Vec<&Row> = bindings.iter().map(|b| b.expect("all bound").1).collect();
        debug_assert!(c.condition_holds(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>()));
        let vertices: Vec<Vertex> = bindings
            .iter()
            .enumerate()
            .map(|(i, b)| Vertex {
                rel: rels[i],
                tid: b.expect("all bound").0,
            })
            .collect();
        stats.edges_emitted += 1;
        g.add_edge(&vertices, &rows, ci);
        return;
    }
    let step = &steps[step_i];
    let try_tuple = |tid: TupleId,
                     row: &'a Row,
                     bindings: &mut Vec<Option<(TupleId, &'a Row)>>,
                     g: &mut ConflictHypergraph,
                     stats: &mut DetectStats| {
        stats.combinations_checked += 1;
        bindings[step.atom] = Some((tid, row));
        if sparse_condition_ok(c, bindings) {
            seed_extend(c, rels, tables, ix, p, step_i + 1, bindings, ci, g, stats);
        }
        bindings[step.atom] = None;
    };
    match step.index {
        Some(id) => {
            // Hash-extension on the persisted index for the linked columns.
            let (_, jix) = &ix.indexes[id];
            let key: Vec<Value> = step
                .links
                .iter()
                .map(|&(b, bc, _)| bindings[b].expect("link to bound atom").1[bc].clone())
                .collect();
            if key.iter().any(Value::is_null) {
                return;
            }
            if let Some(tids) = jix.map.get(&key) {
                // The index is maintained eagerly, but guard against a
                // tombstoned slot anyway.
                for &tid in tids {
                    let Some(row) = tables[step.atom].get(tid) else {
                        continue;
                    };
                    try_tuple(tid, row, bindings, g, stats);
                }
            }
        }
        None => {
            // No equality links to any bound atom: scan (matches the full
            // detection path for cartesian constraints).
            for (tid, row) in tables[step.atom].iter() {
                try_tuple(tid, row, bindings, g, stats);
            }
        }
    }
}

/// Check the comparisons whose atoms are all bound in a **sparse**
/// assignment (any subset of atoms may be bound, in any order); used to
/// prune seeded partial assignments early. Borrow-only.
fn sparse_condition_ok(c: &DenialConstraint, bindings: &[Option<(TupleId, &Row)>]) -> bool {
    // Outer None = atom not bound yet (skip); inner Option = value.
    fn val<'t>(
        t: &'t Term,
        bindings: &'t [Option<(TupleId, &'t Row)>],
    ) -> Option<Option<&'t Value>> {
        match t {
            Term::Attr(a) => bindings[a.atom].map(|(_, row)| row.get(a.col)),
            Term::Const(v) => Some(Some(v)),
        }
    }
    c.condition.iter().all(|cmp| {
        match (val(&cmp.left, bindings), val(&cmp.right, bindings)) {
            (Some(Some(l)), Some(Some(r))) => match l.sql_cmp(r) {
                Some(ord) => cmp.op.test(ord),
                None => false,
            },
            (Some(None), _) | (_, Some(None)) => false, // missing column
            _ => true,                                  // not fully bound yet
        }
    })
}

/// Check the comparisons whose atoms are all bound so far; used to prune
/// partial assignments early. Borrow-only: no value is cloned.
fn partial_condition_ok(c: &DenialConstraint, assign: &[(TupleId, &Row)]) -> bool {
    // Outer None = atom not bound yet (skip); inner Option = value.
    fn val<'t>(t: &'t Term, assign: &'t [(TupleId, &'t Row)]) -> Option<Option<&'t Value>> {
        match t {
            Term::Attr(a) => {
                if a.atom >= assign.len() {
                    None
                } else {
                    Some(assign[a.atom].1.get(a.col))
                }
            }
            Term::Const(v) => Some(Some(v)),
        }
    }
    c.condition.iter().all(|cmp| {
        match (val(&cmp.left, assign), val(&cmp.right, assign)) {
            (Some(Some(l)), Some(Some(r))) => match l.sql_cmp(r) {
                Some(ord) => cmp.op.test(ord),
                None => false,
            },
            (Some(None), _) | (_, Some(None)) => false, // missing column
            _ => true,                                  // not fully bound yet
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::AttrRef;
    use hippo_engine::{Column, DataType, Database, TableSchema};

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
    fn fd_detects_pairs() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
        let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
        let (g, stats) = detect_conflicts(db.catalog(), &[fd]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.conflicting_vertex_count(), 2);
        assert_eq!(stats.edges_emitted, 1);
        assert_eq!(stats.shards_used, DEFAULT_SHARDS);
        assert!(!stats.incremental);
    }

    #[test]
    fn fd_group_of_three_distinct_values_gives_three_edges() {
        let db = emp_db(&[("ann", 1), ("ann", 2), ("ann", 3)]);
        let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
        let (g, _) = detect_conflicts(db.catalog(), &[fd]).unwrap();
        assert_eq!(g.edge_count(), 3, "all pairs violate");
    }

    #[test]
    fn fd_duplicate_rhs_values_do_not_conflict() {
        let db = emp_db(&[("ann", 100), ("ann", 100)]);
        let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
        let (g, _) = detect_conflicts(db.catalog(), &[fd]).unwrap();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn fd_null_lhs_is_ignored() {
        let mut db = emp_db(&[("ann", 100)]);
        db.insert_rows(
            "emp",
            vec![
                vec![Value::Null, Value::Int(1)],
                vec![Value::Null, Value::Int(2)],
            ],
        )
        .unwrap();
        let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
        let (g, _) = detect_conflicts(db.catalog(), &[fd]).unwrap();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn check_constraint_gives_singleton_edges() {
        let db = emp_db(&[("ann", -5), ("bob", 10), ("cyd", -1)]);
        let chk = DenialConstraint::check(
            "emp",
            vec![Comparison {
                op: CmpOp::Lt,
                left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                right: Term::Const(Value::Int(0)),
            }],
        );
        let (g, _) = detect_conflicts(db.catalog(), &[chk]).unwrap();
        assert_eq!(g.edge_count(), 2);
        for (_, e) in g.edges() {
            assert_eq!(e.len(), 1, "CHECK denials produce singleton edges");
        }
    }

    #[test]
    fn exclusion_across_relations() {
        let mut db = emp_db(&[("ann", 100), ("bob", 200)]);
        db.catalog_mut()
            .create_table(
                TableSchema::new(
                    "contractor",
                    vec![
                        Column::new("name", DataType::Text),
                        Column::new("rate", DataType::Int),
                    ],
                    &[],
                )
                .unwrap(),
            )
            .unwrap();
        db.insert_rows(
            "contractor",
            vec![
                vec![Value::text("ann"), Value::Int(50)],
                vec![Value::text("cyd"), Value::Int(60)],
            ],
        )
        .unwrap();
        let ex = DenialConstraint::exclusion("emp", "contractor", &[(0, 0)]);
        let (g, _) = detect_conflicts(db.catalog(), &[ex]).unwrap();
        assert_eq!(g.edge_count(), 1, "only ann is in both");
        let (_, e) = g.edges().next().unwrap();
        assert_eq!(e.len(), 2);
        assert_ne!(e[0].rel, e[1].rel);
    }

    #[test]
    fn multiple_constraints_combine() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", -1)]);
        let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
        let chk = DenialConstraint::check(
            "emp",
            vec![Comparison {
                op: CmpOp::Lt,
                left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                right: Term::Const(Value::Int(0)),
            }],
        );
        let (g, _) = detect_conflicts(db.catalog(), &[fd.clone(), chk]).unwrap();
        assert_eq!(g.edge_count(), 2);
        // Constraint attribution is preserved.
        let by_constraint: Vec<usize> = g.edges().map(|(id, _)| g.edge_constraint(id)).collect();
        assert!(by_constraint.contains(&0));
        assert!(by_constraint.contains(&1));
        let _ = fd;
    }

    #[test]
    fn general_three_atom_denial() {
        // ¬(emp(a) ∧ emp(b) ∧ emp(c) ∧ a.salary < b.salary ∧ b.salary < c.salary
        //   ∧ a.name = b.name ∧ b.name = c.name) — contrived ternary chain.
        let db = emp_db(&[("ann", 1), ("ann", 2), ("ann", 3), ("bob", 9)]);
        let attr = |atom, col| AttrRef { atom, col };
        let c = DenialConstraint::new(
            "chain",
            vec!["emp".into(), "emp".into(), "emp".into()],
            vec![
                Comparison::attr_eq(attr(0, 0), attr(1, 0)),
                Comparison::attr_eq(attr(1, 0), attr(2, 0)),
                Comparison {
                    op: CmpOp::Lt,
                    left: Term::Attr(attr(0, 1)),
                    right: Term::Attr(attr(1, 1)),
                },
                Comparison {
                    op: CmpOp::Lt,
                    left: Term::Attr(attr(1, 1)),
                    right: Term::Attr(attr(2, 1)),
                },
            ],
        );
        let (g, _) = detect_conflicts(db.catalog(), &[c]).unwrap();
        assert_eq!(g.edge_count(), 1, "only 1<2<3 for ann");
        let (_, e) = g.edges().next().unwrap();
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn detection_on_consistent_instance_is_empty() {
        let db = emp_db(&[("ann", 100), ("bob", 200)]);
        let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
        let (g, stats) = detect_conflicts(db.catalog(), &[fd]).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.conflicting_vertex_count(), 0);
        assert!(stats.elapsed.as_secs() < 5);
    }

    #[test]
    fn invalid_constraint_errors() {
        let db = emp_db(&[]);
        let bad = DenialConstraint::functional_dependency("emp", &[9], 1);
        assert!(detect_conflicts(db.catalog(), &[bad]).is_err());
    }

    /// Same shard count, different worker counts → bit-identical graphs
    /// (edge ids included) and identical stat totals.
    #[test]
    fn thread_count_never_changes_output() {
        let mut db = emp_db(&[
            ("ann", 100),
            ("ann", 200),
            ("ann", 300),
            ("bob", 1),
            ("bob", 2),
            ("cyd", 7),
            ("dee", -3),
        ]);
        db.catalog_mut()
            .create_table(
                TableSchema::new(
                    "contractor",
                    vec![
                        Column::new("name", DataType::Text),
                        Column::new("rate", DataType::Int),
                    ],
                    &[],
                )
                .unwrap(),
            )
            .unwrap();
        db.insert_rows(
            "contractor",
            vec![
                vec![Value::text("ann"), Value::Int(50)],
                vec![Value::text("bob"), Value::Int(60)],
            ],
        )
        .unwrap();
        let constraints = [
            DenialConstraint::functional_dependency("emp", &[0], 1),
            DenialConstraint::exclusion("emp", "contractor", &[(0, 0)]),
            DenialConstraint::check(
                "emp",
                vec![Comparison {
                    op: CmpOp::Lt,
                    left: Term::Attr(AttrRef { atom: 0, col: 1 }),
                    right: Term::Const(Value::Int(0)),
                }],
            ),
        ];
        let (g1, s1) = detect_conflicts_with(
            db.catalog(),
            &constraints,
            &DetectOptions {
                threads: 1,
                shards: 0,
            },
        )
        .unwrap();
        for threads in [2usize, 4, 8] {
            let (g, s) = detect_conflicts_with(
                db.catalog(),
                &constraints,
                &DetectOptions { threads, shards: 0 },
            )
            .unwrap();
            assert_eq!(g.edge_count(), g1.edge_count());
            for (id, e) in g.edges() {
                assert_eq!(e, g1.edge(id), "edge {id} differs at threads={threads}");
                assert_eq!(g.edge_constraint(id), g1.edge_constraint(id));
            }
            assert_eq!(s.combinations_checked, s1.combinations_checked);
            assert_eq!(s.edges_emitted, s1.edges_emitted);
            assert_eq!(s.shards_used, s1.shards_used);
        }
    }

    /// Different shard counts may permute FD edge ids but must agree on
    /// the edge *set* and on stat totals.
    #[test]
    fn shard_count_preserves_edge_set_and_stats() {
        let db = emp_db(&[
            ("ann", 100),
            ("ann", 200),
            ("bob", 1),
            ("bob", 2),
            ("bob", 3),
            ("cyd", 7),
        ]);
        let constraints = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let canonical = |g: &ConflictHypergraph| {
            let mut edges: Vec<(usize, Vec<Vertex>)> = g
                .edges()
                .map(|(id, e)| (g.edge_constraint(id), e.to_vec()))
                .collect();
            edges.sort();
            edges
        };
        let (g1, s1) = detect_conflicts_with(
            db.catalog(),
            &constraints,
            &DetectOptions {
                threads: 1,
                shards: 1,
            },
        )
        .unwrap();
        for shards in [2usize, 3, 7, 16] {
            let (g, s) = detect_conflicts_with(
                db.catalog(),
                &constraints,
                &DetectOptions { threads: 2, shards },
            )
            .unwrap();
            assert_eq!(canonical(&g), canonical(&g1), "shards={shards}");
            assert_eq!(s.combinations_checked, s1.combinations_checked);
            assert_eq!(s.edges_emitted, s1.edges_emitted);
            assert_eq!(s.shards_used, shards);
        }
    }
}
