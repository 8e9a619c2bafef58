//! Conflict detection: build the conflict hypergraph from a database
//! instance and a set of denial constraints.
//!
//! This is the "Conflict Detection" stage of the paper's Figure 1: it runs
//! once per (instance, constraint set) and produces the main-memory
//! hypergraph the Prover consults. Like the paper's Hippo, which finds
//! conflicts by querying the RDBMS, detection keeps no index of its own:
//! every probe goes to the tables' own hash indexes
//! ([`hippo_engine::Table::index_bucket`]), the ones the engine's plans
//! use. It needs an index on each FD's LHS columns and on each general
//! denial's linked columns, per atom, for every seed orientation (see
//! below). [`crate::hippo::Hippo`] adds any of these its catalog lacks
//! before each full detection; [`detect_conflicts`] on a catalog that
//! lacks one detects on a copy-on-write clone with the index added (the
//! clone copies no row).
//!
//! * **FDs** — the LHS index groups the tuples already: each bucket whose
//!   key holds no `NULL` is pair-checked, with an edge per RHS-disagreeing
//!   pair.
//! * **General denials** — one depth-first join binds a *seed* atom first
//!   and extends to the remaining atoms in ascending order, each through
//!   the index on the columns the denial's equalities link to atoms bound
//!   before it (a scan when there is no link). Partial assignments bind
//!   `(TupleId, &Row)` pairs, so the join never clones a row.
//!
//! Keys compare by `Value` identity, the index's own equality: `NULL`
//! keys are skipped explicitly, and `0.0` and `-0.0` are different keys.
//!
//! # Shard → merge pipeline
//!
//! A full detection runs every constraint in [`INDEX_SHARDS`] fixed
//! shards on a [`crate::parallel`] worker pool. An FD's shard `s` walks
//! shard `s` of its LHS index, with the buckets in the order of their
//! smallest tuple id; a general denial's shard `s` seeds atom 0 from the
//! `s`-th contiguous slot range. Each shard emits edges into a private
//! `crate::hypergraph::EdgeFragment`, and the fragments are absorbed
//! **in shard order** into the [`ConflictHypergraph`], whose chained-hash
//! table dedups across shards. The decomposition depends only on the
//! data — not on the worker count, and not on the order the index
//! happens to store its keys in — so edge ids are identical for any
//! `HIPPO_DETECT_THREADS` setting and for a table rebuilt from its rows,
//! and [`DetectStats`] counters are exact sums over shards. Detection
//! ends with [`ConflictHypergraph::finalize`], which freezes the
//! vertex→edge adjacency into its compact offset-array form for the
//! prover's reads.
//!
//! # Incremental detection
//!
//! [`crate::hippo::Hippo::redetect`] detects a batch of changes on the
//! post-batch catalog, whose indexes already hold the batch. Each
//! net-inserted FD tuple is paired with the members of its LHS bucket;
//! a general denial seeds its join with each inserted tuple at every atom
//! position of its relation (Δ ⋈ R per position). The work is
//! `O(delta × matches)`, never a rescan of the instance.

use crate::budget::Governance;
use crate::constraint::{Comparison, DenialConstraint, Term};
use crate::hypergraph::{ConflictHypergraph, EdgeFragment, Vertex};
use crate::parallel;
use crate::pred::CmpOp;
use hippo_engine::{Catalog, EngineError, Row, Table, TupleId, Value, INDEX_SHARDS};
use rustc_hash::FxHashMap;
use std::borrow::Cow;
use std::time::{Duration, Instant};

/// Knobs for one detection run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectOptions {
    /// Worker threads; `0` = auto (the `HIPPO_DETECT_THREADS`
    /// environment variable if set, else available parallelism). The
    /// thread count never affects the produced graph, only wall-clock.
    pub threads: usize,
}

impl DetectOptions {
    /// Explicit thread count (`0` = auto).
    pub fn with_threads(threads: usize) -> DetectOptions {
        DetectOptions { threads }
    }

    fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            parallel::detect_threads()
        } else {
            self.threads
        }
    }
}

/// Detection statistics (reported by experiment E4). Every counter is
/// the exact sum of the per-shard counters, independent of the thread
/// count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DetectStats {
    /// Wall-clock time spent detecting.
    pub elapsed: Duration,
    /// Candidate tuple combinations tested against constraint conditions.
    pub combinations_checked: usize,
    /// Edges produced (before dedup; the hypergraph dedups internally).
    pub edges_emitted: usize,
    /// Shards the run was decomposed into ([`INDEX_SHARDS`] for a full
    /// detection, `0` for an incremental delta pass, which probes per
    /// tuple instead of sharding the instance).
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

/// Build the conflict hypergraph for `constraints` over the catalog,
/// with default [`DetectOptions`].
pub fn detect_conflicts(
    catalog: &Catalog,
    constraints: &[DenialConstraint],
) -> Result<(ConflictHypergraph, DetectStats), EngineError> {
    detect_conflicts_with(catalog, constraints, &DetectOptions::default())
}

/// Build the conflict hypergraph with an explicit thread count.
pub fn detect_conflicts_with(
    catalog: &Catalog,
    constraints: &[DenialConstraint],
    opts: &DetectOptions,
) -> Result<(ConflictHypergraph, DetectStats), EngineError> {
    let start = Instant::now();
    let (mut g, mut stats) =
        detect_unfinalized(catalog, constraints, opts, &Governance::default())?;
    // Compact adjacency into CSR form: construction is over, the prover
    // only reads from here on.
    g.finalize();
    stats.elapsed = start.elapsed();
    Ok((g, stats))
}

/// Full detection, leaving the graph un-finalized for callers that add
/// more edges (foreign-key orphan edges) before freezing the adjacency
/// themselves.
///
/// Detection under governance is always **strict**: a budget trip here
/// surfaces as an error even when the caller is in degraded mode,
/// because an incomplete conflict hypergraph would make the prover
/// *unsound* rather than merely incomplete.
pub(crate) fn detect_unfinalized(
    catalog: &Catalog,
    constraints: &[DenialConstraint],
    opts: &DetectOptions,
    gov: &Governance,
) -> Result<(ConflictHypergraph, DetectStats), EngineError> {
    let start = Instant::now();
    for c in constraints {
        c.validate(catalog)?;
    }
    let catalog = with_indexes(catalog, &index_needs(constraints))?;
    let threads = opts.resolved_threads();
    let mut g = ConflictHypergraph::new();
    let mut stats = DetectStats {
        shards_used: INDEX_SHARDS,
        ..DetectStats::default()
    };
    for (ci, c) in constraints.iter().enumerate() {
        let outs = match as_fd(c) {
            Some((rel, lhs, rhs)) => {
                let table = catalog.table(&rel)?;
                let ri = g.intern(&rel);
                parallel::run_indexed(INDEX_SHARDS, threads, |s| {
                    fd_shard(table, ri, ci, &lhs, rhs, s, gov)
                })
            }
            None => {
                let join = Join::new(&catalog, &mut g, ci, c, gov)?;
                let steps = orientation(c, 0);
                let ranges = parallel::split_ranges(join.tables[0].slot_count(), INDEX_SHARDS);
                parallel::run_indexed(ranges.len(), threads, |s| {
                    gov.checkpoint("detect", s)?;
                    let mut out = ShardOut::default();
                    let mut bound = vec![None; c.atoms.len()];
                    for slot in ranges[s].0..ranges[s].1 {
                        let tid = TupleId(slot as u32);
                        if let Some(row) = join.tables[0].get(tid) {
                            join.bind(0, tid, row, &steps, &mut bound, &mut out)?;
                        }
                    }
                    Ok(out)
                })
            }
        };
        // Deterministic merge: shard order, exact stat sums.
        for out in outs {
            let out = out?;
            stats.combinations_checked += out.combinations;
            stats.edges_emitted += out.emitted;
            g.absorb_fragment(&out.frag);
        }
    }
    stats.elapsed = start.elapsed();
    Ok((g, stats))
}

/// The hash indexes detection probes, as `(relation, columns)`: each
/// FD's LHS columns, and each general denial's linked columns, per
/// atom, for every seed orientation. May repeat an entry.
pub(crate) fn index_needs(constraints: &[DenialConstraint]) -> Vec<(String, Vec<usize>)> {
    let mut needs = Vec::new();
    for c in constraints {
        if let Some((rel, lhs, _)) = as_fd(c) {
            needs.push((rel, lhs));
            continue;
        }
        for p in 0..c.atoms.len() {
            for step in orientation(c, p) {
                if !step.cols.is_empty() {
                    needs.push((c.atoms[step.atom].clone(), step.cols));
                }
            }
        }
    }
    needs
}

/// `catalog` itself when it holds an index on every entry of `needs`;
/// otherwise a copy-on-write clone, which copies no row, with the
/// missing indexes added.
pub(crate) fn with_indexes<'c>(
    catalog: &'c Catalog,
    needs: &[(String, Vec<usize>)],
) -> Result<Cow<'c, Catalog>, EngineError> {
    let mut catalog = Cow::Borrowed(catalog);
    for (rel, cols) in needs {
        if !catalog.table(rel)?.has_index(cols) {
            catalog
                .to_mut()
                .table_mut(rel)?
                .create_index(cols.clone())?;
        }
    }
    Ok(catalog)
}

/// The ids in `key`'s bucket of `table`'s index on `cols`. Detection
/// runs only on catalogs holding every index [`index_needs`] names.
pub(crate) fn bucket<'t>(table: &'t Table, cols: &[usize], key: &[Value]) -> &'t [TupleId] {
    table
        .index_bucket(cols, key)
        .expect("detection probes only indexes its catalog holds")
}

/// The live row behind an id an index handed out.
fn live(table: &Table, tid: TupleId) -> &Row {
    table.get(tid).expect("index ids are live")
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
                if !lhs.contains(&a.col) {
                    lhs.push(a.col);
                }
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

/// What one shard (or one delta pass) produced.
#[derive(Default)]
struct ShardOut<'a> {
    frag: EdgeFragment<'a>,
    combinations: usize,
    emitted: usize,
    /// Budget-tick counter (see [`Governance::tick`]).
    work: u32,
}

impl<'a> ShardOut<'a> {
    /// Count one tested combination, charging the budget.
    fn tick(&mut self, gov: &Governance) -> Result<(), EngineError> {
        self.combinations += 1;
        gov.tick(&mut self.work, "detect")
    }
}

/// Shard `s` of an FD's full detection: every bucket of shard `s` of the
/// LHS index whose key holds no `NULL`, in the order of its smallest id,
/// pair-checked on the RHS.
fn fd_shard<'a>(
    table: &'a Table,
    ri: u32,
    ci: usize,
    lhs: &[usize],
    rhs: usize,
    s: usize,
    gov: &Governance,
) -> Result<ShardOut<'a>, EngineError> {
    // Governance: checkpoint at shard start (fault-injection point
    // `("detect", s)`), strided budget ticks in the pair loop.
    gov.checkpoint("detect", s)?;
    let mut groups: Vec<&[TupleId]> = table
        .index_shard(lhs, s)
        .expect("detection probes only indexes its catalog holds")
        .filter(|(key, ids)| ids.len() > 1 && !key.iter().any(Value::is_null))
        .map(|(_, ids)| ids)
        .collect();
    // Buckets ascend, so `ids[0]` is the smallest: the order depends on
    // the data only, not on the index's insert history.
    groups.sort_unstable_by_key(|ids| ids[0]);
    let mut out = ShardOut::default();
    for ids in groups {
        for (i, &a) in ids.iter().enumerate() {
            let row_a = live(table, a);
            for &b in &ids[i + 1..] {
                let row_b = live(table, b);
                out.tick(gov)?;
                if row_a[rhs].sql_eq(&row_b[rhs]) == Some(false) {
                    out.emitted += 1;
                    out.frag.push_edge(
                        &[Vertex { rel: ri, tid: a }, Vertex { rel: ri, tid: b }],
                        &[row_a, row_b],
                        ci,
                    );
                }
            }
        }
    }
    Ok(out)
}

/// One step of a general denial's join: bind `atom` through the index
/// on `cols`, probed with the values `links` read off atoms bound
/// earlier (`links[i]` = `(bound atom, its column)` for `cols[i]`); with
/// no links, scan the table. An index has no repeated column, so a
/// second link to a key column goes to `checks` — `(bound atom, its
/// column, this atom's column)` — and is tested on each probed row by
/// the same `Value` identity the key uses.
struct Step {
    atom: usize,
    links: Vec<(usize, usize)>,
    cols: Vec<usize>,
    checks: Vec<(usize, usize, usize)>,
}

/// Seed orientation `p`: once atom `p` is bound, the steps binding every
/// other atom in ascending order, each linked by the denial's equalities
/// to the atoms bound before it. Orientation 0 is the full detection's
/// left-to-right join.
fn orientation(c: &DenialConstraint, p: usize) -> Vec<Step> {
    let mut bound = vec![p];
    let mut steps = Vec::with_capacity(c.atoms.len().saturating_sub(1));
    for q in (0..c.atoms.len()).filter(|&q| q != p) {
        let (mut links, mut cols, mut checks) = (Vec::new(), Vec::new(), Vec::new());
        for &b in &bound {
            for (bc, qc) in c.equalities_between(b, q) {
                if cols.contains(&qc) {
                    checks.push((b, bc, qc));
                } else {
                    links.push((b, bc));
                    cols.push(qc);
                }
            }
        }
        steps.push(Step {
            atom: q,
            links,
            cols,
            checks,
        });
        bound.push(q);
    }
    steps
}

/// Per-atom bindings of a partial assignment (`None` = not bound yet).
type Bindings<'a> = Vec<Option<(TupleId, &'a Row)>>;

/// A general denial's join over one catalog: full detection seeds it
/// with atom 0's slot ranges, delta detection with each inserted tuple
/// at its position. Depth first, it enumerates assignments in the
/// lexicographic order of the seeds and the index buckets (ascending
/// ids), and emits each full assignment satisfying the condition.
struct Join<'a, 'c> {
    c: &'c DenialConstraint,
    ci: usize,
    rels: Vec<u32>,
    tables: Vec<&'a Table>,
    gov: &'c Governance,
}

impl<'a, 'c> Join<'a, 'c> {
    fn new(
        catalog: &'a Catalog,
        g: &mut ConflictHypergraph,
        ci: usize,
        c: &'c DenialConstraint,
        gov: &'c Governance,
    ) -> Result<Join<'a, 'c>, EngineError> {
        Ok(Join {
            c,
            ci,
            rels: c.atoms.iter().map(|r| g.intern(r)).collect(),
            tables: c
                .atoms
                .iter()
                .map(|r| catalog.table(r))
                .collect::<Result<_, _>>()?,
            gov,
        })
    }

    /// Bind `row` at `atom`, then, if every comparison over the bound
    /// atoms holds, extend through `rest`.
    fn bind(
        &self,
        atom: usize,
        tid: TupleId,
        row: &'a Row,
        rest: &[Step],
        bound: &mut Bindings<'a>,
        out: &mut ShardOut<'a>,
    ) -> Result<(), EngineError> {
        out.tick(self.gov)?;
        bound[atom] = Some((tid, row));
        let res = if sparse_condition_ok(self.c, bound) {
            self.extend(rest, bound, out)
        } else {
            Ok(())
        };
        bound[atom] = None;
        res
    }

    fn extend(
        &self,
        steps: &[Step],
        bound: &mut Bindings<'a>,
        out: &mut ShardOut<'a>,
    ) -> Result<(), EngineError> {
        let Some((step, rest)) = steps.split_first() else {
            // Full assignment satisfying the condition = violation.
            let (vertices, rows): (Vec<Vertex>, Vec<&Row>) = bound
                .iter()
                .zip(&self.rels)
                .map(|(b, &rel)| {
                    let (tid, row) = b.expect("all atoms bound");
                    (Vertex { rel, tid }, row)
                })
                .unzip();
            debug_assert!(self
                .c
                .condition_holds(&rows.iter().map(|r| r.as_slice()).collect::<Vec<_>>()));
            out.emitted += 1;
            out.frag.push_edge(&vertices, &rows, self.ci);
            return Ok(());
        };
        let table = self.tables[step.atom];
        if step.links.is_empty() {
            // No equality link to a bound atom: scan.
            for (tid, row) in table.iter() {
                self.bind(step.atom, tid, row, rest, bound, out)?;
            }
            return Ok(());
        }
        let key: Vec<Value> = step
            .links
            .iter()
            .map(|&(b, col)| bound[b].expect("linked atoms are bound").1[col].clone())
            .collect();
        if key.iter().any(Value::is_null) {
            return Ok(());
        }
        for &tid in bucket(table, &step.cols, &key) {
            let row = live(table, tid);
            let linked = |&(b, bc, qc): &(usize, usize, usize)| {
                bound[b].is_some_and(|(_, bound_row)| row[qc] == bound_row[bc])
            };
            if step.checks.iter().all(linked) {
                self.bind(step.atom, tid, row, rest, bound, out)?;
            }
        }
        Ok(())
    }
}

/// Delta-detect every constraint after a batch, on the post-batch
/// catalog: `inserted` holds each relation's net-inserted tuples, in
/// batch order. An FD pairs each inserted tuple with its LHS bucket's
/// pre-batch members and, exactly once, with the other inserted ones; a
/// general denial seeds its join with each inserted tuple at every atom
/// position of its relation. An assignment of several inserted tuples is
/// found from each of their seeds; the graph's dedup collapses them.
/// Delta passes charge no budget; the caller's fault point covers them.
pub(crate) fn detect_delta(
    catalog: &Catalog,
    constraints: &[DenialConstraint],
    g: &mut ConflictHypergraph,
    inserted: &FxHashMap<String, Vec<TupleId>>,
    stats: &mut DetectStats,
) -> Result<(), EngineError> {
    let gov = Governance::default();
    for (ci, c) in constraints.iter().enumerate() {
        if let Some((rel, lhs, rhs)) = as_fd(c) {
            if let Some(tids) = inserted.get(&rel) {
                fd_delta(catalog.table(&rel)?, g, &rel, ci, &lhs, rhs, tids, stats);
            }
            continue;
        }
        if !c
            .atoms
            .iter()
            .any(|a| inserted.get(a).is_some_and(|d| !d.is_empty()))
        {
            continue;
        }
        let join = Join::new(catalog, g, ci, c, &gov)?;
        let mut out = ShardOut::default();
        let mut bound = vec![None; c.atoms.len()];
        for (p, table) in join.tables.iter().enumerate() {
            let Some(delta) = inserted.get(&c.atoms[p]) else {
                continue;
            };
            let steps = orientation(c, p);
            for &tid in delta {
                if let Some(row) = table.get(tid) {
                    join.bind(p, tid, row, &steps, &mut bound, &mut out)?;
                }
            }
        }
        stats.combinations_checked += out.combinations;
        stats.edges_emitted += out.emitted;
        g.absorb_fragment(&out.frag);
    }
    Ok(())
}

/// An FD's delta pass: see [`detect_delta`].
#[allow(clippy::too_many_arguments)]
fn fd_delta(
    table: &Table,
    g: &mut ConflictHypergraph,
    rel: &str,
    ci: usize,
    lhs: &[usize],
    rhs: usize,
    inserted: &[TupleId],
    stats: &mut DetectStats,
) {
    let ri = g.intern(rel);
    // A pair of inserted tuples is checked by the later of the two.
    let position: FxHashMap<TupleId, usize> =
        inserted.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    for (i, &tid) in inserted.iter().enumerate() {
        let Some(row) = table.get(tid) else { continue };
        let key: Vec<Value> = lhs.iter().map(|&c| row[c].clone()).collect();
        if key.iter().any(Value::is_null) {
            continue;
        }
        for &mate in bucket(table, lhs, &key) {
            if position.get(&mate).is_some_and(|&j| j >= i) {
                continue;
            }
            let mate_row = live(table, mate);
            stats.combinations_checked += 1;
            if row[rhs].sql_eq(&mate_row[rhs]) == Some(false) {
                stats.edges_emitted += 1;
                g.add_edge(
                    &[Vertex { rel: ri, tid }, Vertex { rel: ri, tid: mate }],
                    &[row, mate_row],
                    ci,
                );
            }
        }
    }
}

/// Check the comparisons whose atoms are all bound (any subset of atoms
/// may be bound, in any order); used to prune partial assignments early.
/// Borrow-only: no value is cloned.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::AttrRef;
    use crate::hippo::tests::emp_db;
    use hippo_engine::{Column, DataType, TableSchema};

    #[test]
    fn fd_detects_pairs() {
        let db = emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]);
        let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
        let (g, stats) = detect_conflicts(db.catalog(), &[fd]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.conflicting_vertex_count(), 2);
        assert_eq!(stats.edges_emitted, 1);
        assert_eq!(stats.shards_used, INDEX_SHARDS);
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

    /// Different worker counts → bit-identical graphs
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
        let (g1, s1) =
            detect_conflicts_with(db.catalog(), &constraints, &DetectOptions::with_threads(1))
                .unwrap();
        for threads in [2usize, 4, 8] {
            let (g, s) = detect_conflicts_with(
                db.catalog(),
                &constraints,
                &DetectOptions::with_threads(threads),
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

    /// Edge ids depend on the data only: a table whose index went
    /// through updates and deletes detects exactly like a table rebuilt
    /// from the same slots, whose index was built in one pass.
    #[test]
    fn edge_ids_do_not_depend_on_index_history() {
        let mut db = emp_db(&[("ann", 1), ("bob", 2), ("ann", 3), ("cyd", 4), ("bob", 5)]);
        db.execute("CREATE INDEX emp_name ON emp (name)").unwrap();
        let emp = db.catalog_mut().table_mut("emp").unwrap();
        emp.update(TupleId(3), vec![Value::text("bob"), Value::Int(6)])
            .unwrap();
        emp.delete(TupleId(1));
        emp.insert(vec![Value::text("ann"), Value::Int(7)]).unwrap();
        // Re-key tid 0 out of its bucket and back in.
        for name in ["cyd", "ann"] {
            emp.update(TupleId(0), vec![Value::text(name), Value::Int(0)])
                .unwrap();
        }
        let rebuilt =
            hippo_engine::codec::decode_catalog(&hippo_engine::codec::encode_catalog(db.catalog()))
                .unwrap();
        let fd = [DenialConstraint::functional_dependency("emp", &[0], 1)];
        let (g1, s1) = detect_conflicts(db.catalog(), &fd).unwrap();
        let (g2, s2) = detect_conflicts(&rebuilt, &fd).unwrap();
        assert_eq!(g1.edge_count(), 4, "ann×3 gives 3 edges, bob×2 one");
        assert!(g1.edges().eq(g2.edges()));
        assert_eq!(s1.combinations_checked, s2.combinations_checked);
    }
}
