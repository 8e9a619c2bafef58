//! Incremental maintenance: the recorded-change log
//! ([`Hippo::insert_tuples`] / [`Hippo::delete_tuples`] /
//! [`Hippo::update_tuples`]) and its reconciliation into a new conflict
//! hypergraph ([`Hippo::redetect`], full or incremental — see
//! "Incremental maintenance" in the [`crate::hippo`] docs).

use super::{Hippo, PendingOp, VerdictCache};
use crate::detect::{bucket, detect_delta, detect_unfinalized, DetectOptions, DetectStats};
use crate::hypergraph::{ConflictHypergraph, FactId, Vertex};
use crate::parallel;
use hippo_engine::{EngineError, Row, TupleId, Value};
use rustc_hash::{FxHashMap, FxHashSet};
use std::borrow::Cow;
use std::sync::{Arc, Mutex};
use std::time::Instant;

impl Hippo {
    /// Insert rows into `table`, recording them so the next
    /// [`Hippo::redetect`] can reconcile the hypergraph incrementally;
    /// until it does, [`Hippo::freeze`] refuses (as after any recorded
    /// change). Returns the new tuples' stable
    /// ids. The batch is validated up-front: a bad row rejects the whole
    /// call before anything is inserted, so `Err` means the database is
    /// unchanged.
    pub fn insert_tuples(
        &mut self,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<Vec<TupleId>, EngineError> {
        let t = self.db.catalog_mut().table_mut(table)?;
        // Validate/coerce every row before inserting any — no
        // half-applied batches whose ids the caller never learns.
        let rows = rows
            .into_iter()
            .map(|row| t.schema.check_row(row))
            .collect::<Result<Vec<Row>, _>>()?;
        let mut tids = Vec::with_capacity(rows.len());
        for row in rows {
            // Pre-validated, so this only fails on table exhaustion;
            // recording each insert as it lands keeps the pending log
            // consistent with the database even then.
            let tid = t.insert(row)?;
            tids.push(tid);
            self.pending.push(PendingOp::Insert {
                table: table.to_string(),
                tid,
            });
        }
        Ok(tids)
    }

    /// Delete tuples from `table` by id, recording them so the next
    /// [`Hippo::redetect`] can reconcile the hypergraph incrementally.
    /// Unknown or already-deleted ids are skipped; returns the number of
    /// tuples actually deleted.
    pub fn delete_tuples(&mut self, table: &str, tids: &[TupleId]) -> Result<usize, EngineError> {
        let mut removed: Vec<(TupleId, Row)> = Vec::new();
        {
            let t = self.db.catalog_mut().table_mut(table)?;
            for &tid in tids {
                if let Some(row) = t.delete(tid) {
                    removed.push((tid, row));
                }
            }
        }
        let n = removed.len();
        for (tid, row) in removed {
            self.pending.push(PendingOp::Delete {
                table: table.to_string(),
                tid,
                row,
            });
        }
        Ok(n)
    }

    /// Update tuples **in place** (the tuple ids survive), recording each
    /// change as a delete of the old content plus a re-insert — so the
    /// next [`Hippo::redetect`] stays on the incremental path instead of
    /// falling back to a full rebuild (which mutating through
    /// [`Hippo::db_mut`] would force). The batch is validated up-front:
    /// an unknown tuple id or a bad row rejects the whole call before
    /// anything changes, so `Err` means the database is untouched.
    /// Returns the number of tuples updated.
    pub fn update_tuples(
        &mut self,
        table: &str,
        updates: Vec<(TupleId, Row)>,
    ) -> Result<usize, EngineError> {
        let mut replaced: Vec<(TupleId, Row)> = Vec::with_capacity(updates.len());
        {
            let t = self.db.catalog_mut().table_mut(table)?;
            let updates = updates
                .into_iter()
                .map(|(tid, row)| {
                    if t.get(tid).is_none() {
                        return Err(EngineError::new(format!(
                            "update of missing tuple {} in {table}",
                            tid.0
                        )));
                    }
                    Ok((tid, t.schema.check_row(row)?))
                })
                .collect::<Result<Vec<_>, EngineError>>()?;
            for (tid, row) in updates {
                // Pre-validated: `update` can only fail on a missing
                // tuple, which we just ruled out.
                let old = t.update(tid, row)?;
                replaced.push((tid, old));
            }
        }
        let n = replaced.len();
        for (tid, old) in replaced {
            // Delete-then-insert of the *same* tuple id: the fold in
            // `redetect_incremental` drops the old content's edges, then
            // delta-detects the id again with its new content.
            self.pending.push(PendingOp::Delete {
                table: table.to_string(),
                tid,
                row: old,
            });
            self.pending.push(PendingOp::Insert {
                table: table.to_string(),
                tid,
            });
        }
        Ok(n)
    }

    /// Bring the hypergraph up to date after data changes.
    ///
    /// If every change since the last detection was recorded through
    /// [`Hippo::insert_tuples`] / [`Hippo::delete_tuples`], this takes
    /// the **incremental** path: surviving edges are carried over,
    /// deleted tuples' edges are dropped, inserted tuples are
    /// delta-detected, and foreign-key orphan edges are flipped through
    /// the tables' indexes on the key columns — the returned stats have
    /// `incremental == true` and count only the delta work. Otherwise
    /// (the catalog was touched via [`Hippo::db_mut`]) it falls back to
    /// a full sharded rebuild. With no changes at all it returns the
    /// current stats untouched.
    pub fn redetect(&mut self) -> Result<DetectStats, EngineError> {
        if self.catalog_dirty {
            return self.redetect_full();
        }
        if self.pending.is_empty() {
            return Ok(self.detect_stats);
        }
        self.redetect_incremental()
    }

    /// Unconditionally re-run full conflict detection (including
    /// foreign-key orphan edges when configured), discarding any
    /// recorded pending changes. First adds to the catalog any index
    /// detection probes that it lacks (see [`Hippo::with_options`]).
    pub fn redetect_full(&mut self) -> Result<DetectStats, EngineError> {
        self.ensure_indexes()?;
        // Compute everything into locals first and assign only on full
        // success: a failure (or a worker panic, contained below) leaves
        // the previous graph and stats exactly as they were — the
        // system stays usable and `catalog_dirty` still forces a fresh
        // rebuild on the next attempt.
        let gov = self.options.governance();
        let catalog = self.db.catalog();
        let constraints = &self.constraints;
        let compute = || -> Result<(ConflictHypergraph, DetectStats), EngineError> {
            let start = Instant::now();
            let (mut graph, mut stats) =
                detect_unfinalized(catalog, constraints, &DetectOptions::default(), &gov)?;
            for (i, fk) in self.foreign_keys.iter().enumerate() {
                stats.edges_emitted +=
                    crate::inclusion::orphan_edges(&mut graph, catalog, fk, constraints.len() + i)?;
            }
            graph.finalize();
            stats.elapsed = start.elapsed();
            Ok((graph, stats))
        };
        let (graph, stats) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(compute))
            .map_err(|payload| {
                EngineError::worker_panic("detect", 0, &parallel::panic_message(payload.as_ref()))
            })??;
        self.graph = Arc::new(graph);
        self.detect_stats = stats;
        self.pending.clear();
        self.catalog_dirty = false;
        self.invalidate_verdicts();
        Ok(self.detect_stats)
    }

    /// Add to the catalog each hash index detection probes that it
    /// lacks: the constraints' (see `detect::index_needs`) and both
    /// sides of every foreign key. Writes only when one is missing, so
    /// a catalog shared with a snapshot is not copied for nothing.
    fn ensure_indexes(&mut self) -> Result<(), EngineError> {
        for c in &self.constraints {
            c.validate(self.db.catalog())?;
        }
        let mut needs = crate::detect::index_needs(&self.constraints);
        needs.extend(self.foreign_keys.iter().flat_map(|fk| fk.index_needs()));
        if let Cow::Owned(catalog) = crate::detect::with_indexes(self.db.catalog(), &needs)? {
            *self.db.catalog_mut() = catalog;
        }
        Ok(())
    }

    /// Drop all cross-call verdicts: signatures embed interned fact ids,
    /// which are meaningless once the graph is replaced. (Data-only
    /// changes keep the cache sound — a candidate's signature captures
    /// the database's influence through its membership flags.) The
    /// whole `Arc` is swapped rather than the map cleared in place:
    /// frozen views ([`Hippo::freeze`]) still hold the old `Arc`, and
    /// their verdicts stay valid for the graph they were proved on.
    fn invalidate_verdicts(&mut self) {
        self.verdict_cache = Arc::new(Mutex::new(VerdictCache::default()));
    }

    /// The incremental path: reconcile the recorded pending operations
    /// against the existing graph. The cost is proportional to the
    /// graph size plus the delta for **all** denial classes: the delta
    /// probes the tables' own indexes, which already hold the batch
    /// (see `detect::detect_delta`).
    fn redetect_incremental(&mut self) -> Result<DetectStats, EngineError> {
        // Poison-on-entry: the inner path consumes the pending log, so
        // bailing out anywhere — an early `?` return, an injected
        // fault, a panic — would lose changes the graph never saw.
        // Marking the catalog dirty *now* and clearing it only on
        // success forces the next `redetect` onto the full-rebuild path
        // after any failed reconciliation.
        self.catalog_dirty = true;
        let gov = self.options.governance();
        // Panic containment, symmetric with `redetect_full`: an
        // injected `detect` fault (the service chaos test's "writer panic
        // mid-redetect") or a genuine bug in the delta code surfaces as
        // a structured `WorkerPanic` error instead of unwinding through
        // the caller — and the dirty flag above keeps the system
        // usable afterwards.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gov.fault_point("detect", 0)?;
            self.redetect_incremental_inner()
        }))
        .map_err(|payload| {
            EngineError::worker_panic("detect", 0, &parallel::panic_message(payload.as_ref()))
        })?
    }

    fn redetect_incremental_inner(&mut self) -> Result<DetectStats, EngineError> {
        let start = Instant::now();
        let mut stats = DetectStats {
            incremental: true,
            shards_used: 0,
            ..DetectStats::default()
        };
        let pending = std::mem::take(&mut self.pending);
        let catalog = self.db.catalog();
        let old = &self.graph;

        // New graph with the identical relation-interning order, so
        // vertex `rel` indices stay comparable across the copy.
        let mut g = ConflictHypergraph::new();
        for r in 0..old.relation_count() as u32 {
            g.intern(old.relation_name(r));
        }

        // Fold the pending log: net deleted vertices and net inserted
        // tuples per table (an insert later deleted in the same batch
        // cancels out). An in-place update arrives as delete-then-insert
        // of one tuple id: the delete drops the old content's edges,
        // the insert re-detects the id with its new content.
        let mut deleted: FxHashSet<Vertex> = FxHashSet::default();
        let mut inserted_by_table: FxHashMap<String, Vec<TupleId>> = FxHashMap::default();
        for op in &pending {
            match op {
                PendingOp::Insert { table, tid } => {
                    inserted_by_table
                        .entry(table.clone())
                        .or_default()
                        .push(*tid);
                }
                PendingOp::Delete { table, tid, .. } => {
                    if let Some(ri) = old.relation_index(table) {
                        deleted.insert(Vertex { rel: ri, tid: *tid });
                    }
                    if let Some(list) = inserted_by_table.get_mut(table) {
                        list.retain(|t| t != tid);
                    }
                }
            }
        }

        // ---- Foreign-key orphan reconciliation ----
        //
        // Net change per touched (table, tid): the *first* Delete op for
        // a tid records its pre-batch row, presence in the (post-batch)
        // catalog gives its final row; insert-then-delete transients net
        // to nothing. A key's parent count after the batch is its
        // bucket length in the parent's index; the count before is that
        // minus the batch's net parent changes. Keys whose count rose
        // from 0 un-orphan their children (their singleton edges are
        // *not* carried over below), keys whose count fell to 0 orphan
        // every child in their bucket of the child's index (fresh
        // singleton edges are added after the denial deltas). Work is
        // O(batch + affected children), never the instance.
        let mut fk_newly_matched: Vec<FxHashSet<Row>> = Vec::new();
        let mut fk_orphan_adds: Vec<Vec<TupleId>> = Vec::new();
        if !self.foreign_keys.is_empty() {
            let mut net_map: FxHashMap<(String, TupleId), Option<Row>> = FxHashMap::default();
            for op in &pending {
                match op {
                    PendingOp::Insert { table, tid } => {
                        net_map.entry((table.clone(), *tid)).or_insert(None);
                    }
                    PendingOp::Delete { table, tid, row } => {
                        net_map
                            .entry((table.clone(), *tid))
                            .or_insert_with(|| Some(row.clone()));
                    }
                }
            }
            // Resolve each tuple's post-batch row once (FK-independent),
            // sorted so the per-FK passes — and therefore orphan-edge
            // insertion order — are canonical.
            type NetChange<'a> = ((String, TupleId), Option<Row>, Option<&'a Row>);
            let mut net: Vec<NetChange<'_>> = net_map
                .into_iter()
                .map(|((table, tid), pre)| {
                    let post = catalog.table(&table).ok().and_then(|t| t.get(tid));
                    ((table, tid), pre, post)
                })
                .collect();
            net.sort_by(|a, b| a.0.cmp(&b.0));
            for fk in &self.foreign_keys {
                let parent = catalog.table(&fk.parent)?;
                let child = catalog.table(&fk.child)?;
                let parents_of = |key: &[Value]| bucket(parent, &fk.parent_cols, key).len();
                let mut parent_delta: FxHashMap<Row, i64> = FxHashMap::default();
                let mut inserted_children: Vec<(TupleId, Row)> = Vec::new();
                for ((table, tid), pre, post) in &net {
                    if *table == fk.parent {
                        if let Some(r) = pre {
                            *parent_delta.entry(fk.parent_key(r)).or_insert(0) -= 1;
                        }
                        if let Some(r) = post {
                            *parent_delta.entry(fk.parent_key(r)).or_insert(0) += 1;
                        }
                    }
                    if *table == fk.child {
                        if let Some(key) = post.and_then(|r| fk.child_key(r)) {
                            inserted_children.push((*tid, key));
                        }
                    }
                }
                let mut newly_matched: FxHashSet<Row> = FxHashSet::default();
                let mut newly_orphaned: Vec<Row> = Vec::new();
                for (key, delta) in parent_delta {
                    let new_count = parents_of(&key) as i64;
                    let old_count = new_count - delta;
                    if old_count == 0 && new_count > 0 {
                        newly_matched.insert(key);
                    } else if old_count > 0 && new_count == 0 {
                        newly_orphaned.push(key);
                    }
                }
                // Orphan-edge additions: net-inserted children with no
                // parent, plus every live child of a key that lost its
                // last parent (a key holding a `NULL` has none: a NULL
                // foreign key never violates). Sorted for deterministic
                // edge ids; overlaps collapse in the graph's edge dedup.
                let mut adds: Vec<TupleId> = inserted_children
                    .into_iter()
                    .filter(|(_, key)| parents_of(key) == 0)
                    .map(|(tid, _)| tid)
                    .collect();
                for key in &newly_orphaned {
                    if !key.iter().any(Value::is_null) {
                        adds.extend_from_slice(bucket(child, &fk.child_cols, key));
                    }
                }
                adds.sort_unstable();
                adds.dedup();
                fk_newly_matched.push(newly_matched);
                fk_orphan_adds.push(adds);
            }
        }

        // Carry surviving edges over. Every edge vertex is present in
        // the old fact table (add_edge interns each vertex's fact), so
        // a fact reverse-map recovers the rows without touching the
        // catalog.
        let mut vertex_fact: FxHashMap<Vertex, FactId> =
            FxHashMap::with_capacity_and_hasher(old.fact_count(), Default::default());
        for f in 0..old.fact_count() as u32 {
            for &v in old.vertices_of_fact_id(FactId(f)) {
                vertex_fact.insert(v, FactId(f));
            }
        }
        let mut rows_buf: Vec<&Row> = Vec::new();
        let n_denials = self.constraints.len();
        for (eid, edge) in old.edges() {
            if edge.iter().any(|v| deleted.contains(v)) {
                continue;
            }
            let constraint = old.edge_constraint(eid);
            // Orphan edges whose parent key just gained a parent are
            // resolved: drop them instead of carrying them over.
            if constraint >= n_denials {
                let fk_i = constraint - n_denials;
                if let (Some(fk), Some(matched)) =
                    (self.foreign_keys.get(fk_i), fk_newly_matched.get(fk_i))
                {
                    debug_assert_eq!(edge.len(), 1, "orphan edges are singletons");
                    let row = old.fact(vertex_fact[&edge[0]]).1;
                    if fk.child_key(row).is_some_and(|key| matched.contains(&key)) {
                        continue;
                    }
                }
            }
            rows_buf.clear();
            rows_buf.extend(edge.iter().map(|v| old.fact(vertex_fact[v]).1));
            g.add_edge(edge, &rows_buf, constraint);
        }

        // Delta-detect the inserted tuples, constraint by constraint,
        // through the tables' indexes: O(delta × matches), never
        // O(instance).
        detect_delta(
            catalog,
            &self.constraints,
            &mut g,
            &inserted_by_table,
            &mut stats,
        )?;

        // New orphan edges: children inserted without a parent plus
        // children whose key lost its last parent (computed above).
        for (fk_i, adds) in fk_orphan_adds.into_iter().enumerate() {
            if adds.is_empty() {
                continue;
            }
            let fk = &self.foreign_keys[fk_i];
            let child = catalog.table(&fk.child)?;
            let rel = g.intern(&fk.child);
            for tid in adds {
                let row = child
                    .get(tid)
                    .expect("orphan candidate is live in the catalog");
                g.add_edge(&[Vertex { rel, tid }], &[row], n_denials + fk_i);
                stats.edges_emitted += 1;
            }
        }

        g.finalize();
        self.graph = Arc::new(g);
        self.invalidate_verdicts();
        stats.elapsed = start.elapsed();
        self.detect_stats = stats;
        self.catalog_dirty = false; // reconciliation fully succeeded
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{answer, emp_db, fd};
    use super::*;
    use crate::hippo::HippoOptions;
    use crate::query::SjudQuery;
    use hippo_engine::{Database, Value};

    #[test]
    fn redetect_after_mutation() {
        let mut hippo = Hippo::new(emp_db(&[("ann", 100)]), fd()).unwrap();
        assert_eq!(hippo.graph().edge_count(), 0);
        hippo
            .db_mut()
            .execute("INSERT INTO emp VALUES ('ann', 999)")
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(
            !stats.incremental,
            "unrecorded db_mut changes force a full rebuild"
        );
        assert_eq!(hippo.graph().edge_count(), 1);
        let answers = answer(&hippo, &SjudQuery::rel("emp")).unwrap().rows;
        assert!(answers.is_empty());
    }

    #[test]
    fn incremental_insert_detects_new_conflicts() {
        let mut hippo = Hippo::new(emp_db(&[("ann", 100), ("bob", 200)]), fd()).unwrap();
        assert_eq!(hippo.graph().edge_count(), 0);
        let tids = hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(999)]])
            .unwrap();
        assert_eq!(tids.len(), 1);
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental, "recorded inserts take the delta path");
        assert_eq!(stats.shards_used, 0);
        assert_eq!(hippo.graph().edge_count(), 1);
        let answers = answer(&hippo, &SjudQuery::rel("emp")).unwrap().rows;
        assert_eq!(answers, vec![vec![Value::text("bob"), Value::Int(200)]]);
    }

    #[test]
    fn incremental_delete_clears_conflicts() {
        let mut hippo =
            Hippo::new(emp_db(&[("ann", 100), ("ann", 200), ("bob", 300)]), fd()).unwrap();
        assert_eq!(hippo.graph().edge_count(), 1);
        // Delete one side of the conflicting pair (tid 1 = second row).
        let n = hippo
            .delete_tuples("emp", &[hippo_engine::TupleId(1)])
            .unwrap();
        assert_eq!(n, 1);
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 0);
        let answers = answer(&hippo, &SjudQuery::rel("emp")).unwrap().rows;
        assert_eq!(answers.len(), 2, "ann(100) is consistent again");
    }

    #[test]
    fn incremental_matches_full_rebuild_over_mixed_batches() {
        // Interleave inserts and deletes (including insert-then-delete of
        // the same tuple within one batch), redetect incrementally, and
        // compare against a freshly built system on the same final data.
        let rows = [("ann", 100), ("ann", 200), ("bob", 300), ("cyd", 50)];
        let mut hippo = Hippo::new(emp_db(&rows), fd()).unwrap();
        let t = hippo
            .insert_tuples(
                "emp",
                vec![
                    vec![Value::text("bob"), Value::Int(301)],
                    vec![Value::text("dee"), Value::Int(7)],
                    vec![Value::text("cyd"), Value::Int(51)],
                ],
            )
            .unwrap();
        hippo
            .delete_tuples("emp", &[hippo_engine::TupleId(0), t[2]])
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);

        let reference = Hippo::new(
            {
                let mut db = emp_db(&rows);
                let table = db.catalog_mut().table_mut("emp").unwrap();
                table
                    .insert(vec![Value::text("bob"), Value::Int(301)])
                    .unwrap();
                table
                    .insert(vec![Value::text("dee"), Value::Int(7)])
                    .unwrap();
                let c = table
                    .insert(vec![Value::text("cyd"), Value::Int(51)])
                    .unwrap();
                table.delete(hippo_engine::TupleId(0));
                table.delete(c);
                db
            },
            fd(),
        )
        .unwrap();
        let canon = |h: &Hippo| {
            let g = h.graph();
            let mut edges: Vec<(usize, Vec<crate::hypergraph::Vertex>)> = g
                .edges()
                .map(|(id, e)| (g.edge_constraint(id), e.to_vec()))
                .collect();
            edges.sort();
            edges
        };
        assert_eq!(canon(&hippo), canon(&reference));
        assert_eq!(
            answer(&hippo, &SjudQuery::rel("emp")).unwrap().rows,
            answer(&reference, &SjudQuery::rel("emp")).unwrap().rows
        );
    }

    #[test]
    fn redetect_without_changes_is_a_noop() {
        let mut hippo = Hippo::new(emp_db(&[("ann", 100), ("ann", 200)]), fd()).unwrap();
        let before = hippo.detect_stats();
        let stats = hippo.redetect().unwrap();
        assert_eq!(stats, before, "nothing recorded, nothing re-detected");
        assert_eq!(hippo.graph().edge_count(), 1);
    }

    #[test]
    fn incremental_chains_across_multiple_redetects() {
        let mut hippo = Hippo::new(emp_db(&[("ann", 100)]), fd()).unwrap();
        hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(200)]])
            .unwrap();
        assert!(hippo.redetect().unwrap().incremental);
        assert_eq!(hippo.graph().edge_count(), 1);
        // Second round on top of the incrementally-maintained state.
        hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(300)]])
            .unwrap();
        assert!(hippo.redetect().unwrap().incremental);
        assert_eq!(hippo.graph().edge_count(), 3, "all pairs of the trio");
        // Full rebuild agrees.
        hippo.redetect_full().unwrap();
        assert_eq!(hippo.graph().edge_count(), 3);
    }

    #[test]
    fn foreign_key_redetect_keeps_orphan_edges() {
        let mut db = Database::new();
        db.execute("CREATE TABLE parent (id INT)").unwrap();
        db.execute("CREATE TABLE child (pid INT, x INT)").unwrap();
        db.execute("INSERT INTO parent VALUES (1)").unwrap();
        db.execute("INSERT INTO child VALUES (1, 10), (2, 20)")
            .unwrap();
        let fk = crate::inclusion::ForeignKey {
            child: "child".into(),
            child_cols: vec![0],
            parent: "parent".into(),
            parent_cols: vec![0],
        };
        let mut hippo = Hippo::with_foreign_keys(db, vec![], vec![fk]).unwrap();
        assert_eq!(hippo.graph().edge_count(), 1, "child(2,·) is orphaned");
        // Regression: redetect used to silently drop orphan edges.
        let stats = hippo.redetect_full().unwrap();
        assert!(!stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 1);
        // Recorded changes stay incremental under fks: an orphaned
        // insert adds its singleton edge through the parent's index on
        // the key, no rebuild.
        hippo
            .insert_tuples("child", vec![vec![Value::Int(3), Value::Int(30)]])
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental, "fk changes take the delta path now");
        assert_eq!(hippo.graph().edge_count(), 2);
    }

    #[test]
    fn fk_incremental_flips_orphans_in_both_directions() {
        let mut db = Database::new();
        db.execute("CREATE TABLE parent (id INT)").unwrap();
        db.execute("CREATE TABLE child (pid INT, x INT)").unwrap();
        db.execute("INSERT INTO parent VALUES (1)").unwrap();
        db.execute("INSERT INTO child VALUES (1, 10), (2, 20), (2, 21)")
            .unwrap();
        let fk = crate::inclusion::ForeignKey {
            child: "child".into(),
            child_cols: vec![0],
            parent: "parent".into(),
            parent_cols: vec![0],
        };
        let mut hippo = Hippo::with_foreign_keys(db, vec![], vec![fk]).unwrap();
        assert_eq!(
            hippo.graph().edge_count(),
            2,
            "both pid=2 children orphaned"
        );
        // Inserting parent 2 un-orphans both children incrementally.
        let p2 = hippo
            .insert_tuples("parent", vec![vec![Value::Int(2)]])
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 0);
        // Deleting parent 1 orphans child (1, 10); deleting parent 2
        // re-orphans the pid=2 pair — all through the key indexes.
        hippo
            .delete_tuples("parent", &[hippo_engine::TupleId(0), p2[0]])
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 3, "every child is orphaned");
        // Differential: a forced full rebuild agrees edge-for-edge.
        let canon = |h: &Hippo| {
            let g = h.graph();
            let mut edges: Vec<(usize, Vec<crate::hypergraph::Vertex>)> = g
                .edges()
                .map(|(id, e)| (g.edge_constraint(id), e.to_vec()))
                .collect();
            edges.sort();
            edges
        };
        let inc = canon(&hippo);
        hippo.redetect_full().unwrap();
        assert_eq!(inc, canon(&hippo));
        // An in-place child update that dodges the orphan: update pid
        // 2 → re-insert parent 2 first, then move a child onto a
        // missing parent.
        hippo
            .insert_tuples("parent", vec![vec![Value::Int(2)]])
            .unwrap();
        assert!(hippo.redetect().unwrap().incremental);
        hippo
            .update_tuples(
                "child",
                vec![(
                    hippo_engine::TupleId(1),
                    vec![Value::Int(9), Value::Int(20)],
                )],
            )
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);
        // child(1,10) orphan (parent 1 gone), child(9,20) orphan
        // (parent 9 never existed), child(2,21) matched by parent 2.
        assert_eq!(hippo.graph().edge_count(), 2);
        let inc = canon(&hippo);
        hippo.redetect_full().unwrap();
        assert_eq!(inc, canon(&hippo));
    }

    #[test]
    fn update_tuples_stays_incremental() {
        // Create a conflict by updating, then resolve it by updating back.
        let mut hippo = Hippo::new(emp_db(&[("ann", 100), ("bob", 200)]), fd()).unwrap();
        assert_eq!(hippo.graph().edge_count(), 0);
        let n = hippo
            .update_tuples(
                "emp",
                vec![(
                    hippo_engine::TupleId(1),
                    vec![Value::text("ann"), Value::Int(999)],
                )],
            )
            .unwrap();
        assert_eq!(n, 1);
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental, "recorded updates take the delta path");
        assert_eq!(hippo.graph().edge_count(), 1, "ann now disagrees with ann");
        assert!(answer(&hippo, &SjudQuery::rel("emp"))
            .unwrap()
            .rows
            .is_empty());
        // Update the same tuple id again to clear the conflict.
        hippo
            .update_tuples(
                "emp",
                vec![(
                    hippo_engine::TupleId(1),
                    vec![Value::text("bob"), Value::Int(200)],
                )],
            )
            .unwrap();
        let stats = hippo.redetect().unwrap();
        assert!(stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 0);
        assert_eq!(
            answer(&hippo, &SjudQuery::rel("emp")).unwrap().rows.len(),
            2
        );
    }

    #[test]
    fn update_tuples_validates_batch_upfront() {
        let mut hippo = Hippo::new(emp_db(&[("ann", 100)]), fd()).unwrap();
        // Second entry targets a missing tuple: whole batch rejected.
        let err = hippo.update_tuples(
            "emp",
            vec![
                (
                    hippo_engine::TupleId(0),
                    vec![Value::text("ann"), Value::Int(7)],
                ),
                (
                    hippo_engine::TupleId(9),
                    vec![Value::text("x"), Value::Int(8)],
                ),
            ],
        );
        assert!(err.is_err());
        assert_eq!(
            hippo
                .db()
                .catalog()
                .table("emp")
                .unwrap()
                .get(hippo_engine::TupleId(0)),
            Some(&vec![Value::text("ann"), Value::Int(100)]),
            "failed batch leaves the database untouched"
        );
        // Nothing was recorded, so redetect is a no-op on the old stats.
        assert!(!hippo.redetect().unwrap().incremental);
        assert_eq!(hippo.graph().edge_count(), 0);
    }

    #[test]
    fn incremental_redetect_contains_injected_panic() {
        use crate::budget::{FaultKind, FaultPlan};
        let mut hippo = Hippo::new(emp_db(&[("ann", 100), ("bob", 200)]), fd()).unwrap();
        hippo.options =
            HippoOptions::full().with_faults(FaultPlan::new("detect", Some(0), FaultKind::Panic));
        hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(999)]])
            .unwrap();
        // The injected panic fires on the incremental path and is
        // contained as a structured error; nothing was published.
        let err = hippo.redetect().unwrap_err();
        assert!(err.is_worker_panic(), "{err}");
        assert_eq!(hippo.graph().edge_count(), 0, "old graph still in place");
        // The plan is spent and the dirty flag forces a full rebuild:
        // the same instance recovers on the next call.
        let stats = hippo.redetect().unwrap();
        assert!(!stats.incremental, "poisoned state takes the full path");
        assert_eq!(hippo.graph().edge_count(), 1);
        let answers = answer(&hippo, &SjudQuery::rel("emp")).unwrap().rows;
        assert_eq!(answers, vec![vec![Value::text("bob"), Value::Int(200)]]);
    }

    #[test]
    fn incremental_redetect_budget_trip_is_structured_and_recoverable() {
        use crate::budget::{FaultKind, FaultPlan};
        let mut hippo = Hippo::new(emp_db(&[("ann", 100)]), fd()).unwrap();
        hippo.options =
            HippoOptions::full().with_faults(FaultPlan::new("detect", None, FaultKind::BudgetTrip));
        hippo
            .insert_tuples("emp", vec![vec![Value::text("ann"), Value::Int(2)]])
            .unwrap();
        let err = hippo.redetect().unwrap_err();
        assert!(err.is_budget(), "{err}");
        assert!(hippo.freeze().is_err(), "failed reconciliation is dirty");
        let stats = hippo.redetect().unwrap();
        assert!(!stats.incremental);
        assert_eq!(hippo.graph().edge_count(), 1);
        hippo.freeze().unwrap();
    }
}
