//! The conflict hypergraph, stored in compressed sparse row (CSR) form
//! with an interned fact table.
//!
//! Vertices are the *physical tuples* of the database instance; a
//! hyperedge connects the tuples that jointly violate one integrity
//! constraint. Repairs of the database (maximal consistent subsets under
//! tuple deletion) are exactly the **maximal independent sets** of this
//! hypergraph, which is why Hippo can answer consistency questions without
//! ever materialising a repair. The hypergraph has polynomial size (at
//! most `n^k` edges for `k`-ary constraints) and is kept in main memory,
//! as the paper assumes.
//!
//! # Representation
//!
//! The paper's performance argument rests on the prover doing *cheap*
//! main-memory lookups, so the layout is optimized for probe cost:
//!
//! * **Edges** live in a flat vertex arena (`edge_vertices`) with an
//!   offset array (`edge_offsets`); edge `e` is the slice
//!   `edge_vertices[edge_offsets[e] .. edge_offsets[e+1]]`. No per-edge
//!   `Vec`, no second copy for dedup: duplicates are detected through a
//!   hash → chained-index table (`edge_dedup_head` / `edge_dedup_next`)
//!   keyed by the Fx hash of the sorted vertex slice, comparing against
//!   the arena on collision.
//! * **Facts** (`(relation, values)` pairs that query answers talk about)
//!   are interned to dense `FactId`s. The values row is cloned exactly
//!   once — on first interning — and every later probe
//!   (`ConflictHypergraph::fact_id`, [`ConflictHypergraph::vertices_of_fact`])
//!   hashes the *borrowed* relation + row and walks a chained bucket, so
//!   lookups (hit or miss) never allocate.
//! * **Vertex → edge adjacency** is built incrementally in a hash map and
//!   compacted into a CSR offset/edge-id array pair by
//!   [`ConflictHypergraph::finalize`] (called automatically at the end of
//!   conflict detection). Queries work in either state; adding an edge to
//!   a finalized graph transparently un-freezes it.
//!
//! All hash tables use the Fx hasher: keys are small (integers, vertex
//! pairs, short value rows) and the DoS resistance of SipHash buys nothing
//! against data the system itself generated.
//!
//! # Sharded construction
//!
//! Parallel detection does not touch the graph from worker threads.
//! Each shard emits its edges into a private `EdgeFragment` — a
//! shard-local CSR arena (offset array + flat vertex list + parallel row
//! references) with none of the dedup/fact machinery. The single-threaded
//! merge step then replays fragments **in shard order** through
//! `ConflictHypergraph::absorb_fragment`, which routes every edge
//! through the ordinary [`ConflictHypergraph::add_edge`] path: the
//! chained-hash dedup table and the fact interner see edges in a
//! deterministic order that depends only on the shard decomposition,
//! never on thread scheduling, so edge ids are reproducible for any
//! worker count.

use hippo_engine::{Row, TupleId};
use rustc_hash::{FxHashMap, FxHasher};
use std::hash::{BuildHasher, Hash, Hasher};

/// A vertex: one physical tuple, identified by interned relation index and
/// stable tuple id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Vertex {
    /// Interned relation index (see [`ConflictHypergraph::relation_name`]).
    pub rel: u32,
    /// Tuple id within the relation.
    pub tid: TupleId,
}

/// Edge identifier (index into the edge list).
pub(crate) type EdgeId = u32;

/// Interned fact identifier: a dense index for one distinct
/// `(relation, values)` pair. Stable for the lifetime of the hypergraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct FactId(pub u32);

/// A fact: relation name + tuple values. Facts are what query answers talk
/// about; vertices are the physical tuples that carry them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fact {
    /// Relation name.
    pub rel: String,
    /// Tuple values.
    pub values: Row,
}

impl Fact {
    /// Constructor.
    pub(crate) fn new(rel: impl Into<String>, values: Row) -> Fact {
        Fact {
            rel: rel.into(),
            values,
        }
    }
}

/// Sentinel for "no next entry" in the chained bucket arrays.
const NIL: u32 = u32::MAX;

/// Fx hash of a borrowed fact key; identical for owned and borrowed forms.
#[inline]
fn fact_hash(rel: u32, values: &[hippo_engine::Value]) -> u64 {
    let mut h = FxHasher::default();
    rel.hash(&mut h);
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// Fx hash of a sorted, deduplicated vertex slice.
#[inline]
fn edge_hash(vertices: &[Vertex]) -> u64 {
    let mut h = FxHasher::default();
    for v in vertices {
        v.rel.hash(&mut h);
        v.tid.0.hash(&mut h);
    }
    h.finish()
}

/// A shard-local edge buffer: CSR-shaped (offset array + flat vertex
/// arena) but with no dedup table, fact interner or adjacency — those
/// stay centralized in the [`ConflictHypergraph`] the fragment is merged
/// into. Rows are borrowed from the catalog tables, so fragments are
/// cheap to build inside scoped worker threads and `Send` back to the
/// merging thread.
#[derive(Debug)]
pub(crate) struct EdgeFragment<'a> {
    /// Edge `i` spans `vertices[offsets[i] .. offsets[i+1]]` (and the
    /// same range of `rows`). Leading 0 sentinel as in every CSR.
    offsets: Vec<u32>,
    vertices: Vec<Vertex>,
    /// Row of each vertex, parallel to `vertices`.
    rows: Vec<&'a Row>,
    /// Constraint index of each edge.
    constraints: Vec<u32>,
}

impl<'a> EdgeFragment<'a> {
    /// Empty fragment.
    pub(crate) fn new() -> EdgeFragment<'a> {
        EdgeFragment {
            offsets: vec![0],
            vertices: Vec::new(),
            rows: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Append an edge. No sorting, dedup or fact work happens here; the
    /// absorbing graph does all of that.
    pub(crate) fn push_edge(&mut self, vertices: &[Vertex], rows: &[&'a Row], constraint: usize) {
        debug_assert_eq!(vertices.len(), rows.len());
        self.vertices.extend_from_slice(vertices);
        self.rows.extend_from_slice(rows);
        self.offsets.push(self.vertices.len() as u32);
        self.constraints.push(constraint as u32);
    }

    /// Number of buffered edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.constraints.len()
    }

    /// Is the fragment empty?
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// The `i`-th buffered edge: (vertices, rows, constraint index).
    pub(crate) fn edge(&self, i: usize) -> (&[Vertex], &[&'a Row], usize) {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        (
            &self.vertices[lo..hi],
            &self.rows[lo..hi],
            self.constraints[i] as usize,
        )
    }
}

impl Default for EdgeFragment<'_> {
    fn default() -> Self {
        EdgeFragment::new()
    }
}

/// The conflict hypergraph. `Default` is equivalent to
/// [`ConflictHypergraph::new`] (the CSR offset array is never empty).
#[derive(Debug)]
pub struct ConflictHypergraph {
    rel_names: Vec<String>,
    rel_index: FxHashMap<String, u32>,

    // ---- interned facts ----
    /// FactId → relation index.
    fact_rel: Vec<u32>,
    /// FactId → values (the only owned copy).
    fact_values: Vec<Row>,
    /// FactId → conflicting vertices carrying the fact.
    fact_vertices: Vec<Vec<Vertex>>,
    /// fact hash → head FactId of the collision chain.
    fact_head: FxHashMap<u64, u32>,
    /// FactId → next FactId with the same hash (NIL-terminated).
    fact_next: Vec<u32>,

    // ---- CSR edge arena ----
    /// Edge `e` occupies `edge_vertices[edge_offsets[e] .. edge_offsets[e+1]]`.
    edge_offsets: Vec<u32>,
    edge_vertices: Vec<Vertex>,
    /// Which constraint produced each edge (index into the detector's
    /// constraint list; for diagnostics and experiments).
    edge_constraint: Vec<u32>,
    /// edge hash → head EdgeId of the collision chain (dedup table).
    edge_dedup_head: FxHashMap<u64, u32>,
    /// EdgeId → next EdgeId with the same hash (NIL-terminated).
    edge_dedup_next: Vec<u32>,
    /// Scratch buffer for sorting incoming edges (reused across calls).
    scratch: Vec<Vertex>,

    // ---- vertex → edges adjacency ----
    /// Construction-time adjacency (drained into CSR by `finalize`).
    adj_build: FxHashMap<Vertex, Vec<EdgeId>>,
    /// Frozen CSR view: vertex → dense index, offsets, flat edge ids.
    frozen: bool,
    vertex_dense: FxHashMap<Vertex, u32>,
    vertex_list: Vec<Vertex>,
    adj_offsets: Vec<u32>,
    adj_edges: Vec<EdgeId>,
}

impl Default for ConflictHypergraph {
    fn default() -> ConflictHypergraph {
        ConflictHypergraph::new()
    }
}

impl ConflictHypergraph {
    /// Empty hypergraph. `edge_offsets` starts with the leading 0 sentinel
    /// every CSR offset array needs (edge `e` spans `offsets[e]..offsets[e+1]`).
    pub fn new() -> ConflictHypergraph {
        ConflictHypergraph {
            rel_names: Vec::new(),
            rel_index: FxHashMap::default(),
            fact_rel: Vec::new(),
            fact_values: Vec::new(),
            fact_vertices: Vec::new(),
            fact_head: FxHashMap::default(),
            fact_next: Vec::new(),
            edge_offsets: vec![0],
            edge_vertices: Vec::new(),
            edge_constraint: Vec::new(),
            edge_dedup_head: FxHashMap::default(),
            edge_dedup_next: Vec::new(),
            scratch: Vec::new(),
            adj_build: FxHashMap::default(),
            frozen: false,
            vertex_dense: FxHashMap::default(),
            vertex_list: Vec::new(),
            adj_offsets: Vec::new(),
            adj_edges: Vec::new(),
        }
    }

    /// Intern a relation name.
    pub fn intern(&mut self, rel: &str) -> u32 {
        if let Some(&i) = self.rel_index.get(rel) {
            return i;
        }
        let i = self.rel_names.len() as u32;
        self.rel_names.push(rel.to_string());
        self.rel_index.insert(rel.to_string(), i);
        i
    }

    /// Look up an interned relation index.
    pub(crate) fn relation_index(&self, rel: &str) -> Option<u32> {
        self.rel_index.get(rel).copied()
    }

    /// The name of an interned relation.
    pub fn relation_name(&self, rel: u32) -> &str {
        &self.rel_names[rel as usize]
    }

    /// Number of interned relations (indices are `0..relation_count`).
    pub(crate) fn relation_count(&self) -> usize {
        self.rel_names.len()
    }

    // ---- fact interner ----

    /// Number of distinct interned facts.
    pub(crate) fn fact_count(&self) -> usize {
        self.fact_rel.len()
    }

    /// Probe for an interned fact by borrowed key. Never allocates —
    /// hashes the borrowed row and compares within the hash chain.
    pub(crate) fn fact_id_interned(&self, rel: u32, values: &Row) -> Option<FactId> {
        let hash = fact_hash(rel, values);
        let mut cur = *self.fact_head.get(&hash)?;
        while cur != NIL {
            let i = cur as usize;
            if self.fact_rel[i] == rel && &self.fact_values[i] == values {
                return Some(FactId(cur));
            }
            cur = self.fact_next[i];
        }
        None
    }

    /// Probe for an interned fact by relation name + borrowed row.
    pub(crate) fn fact_id(&self, rel: &str, values: &Row) -> Option<FactId> {
        let ri = self.relation_index(rel)?;
        self.fact_id_interned(ri, values)
    }

    /// Probe for an interned fact whose values are a **projection of a
    /// candidate tuple**: column `j` of the fact is `tuple[cols[j]]`.
    /// Hashes and compares the projected columns in place — the fact row
    /// is never materialised, so the probe is allocation-free whether it
    /// hits or misses. This is the prover's per-literal fast path.
    pub(crate) fn fact_id_projected(
        &self,
        rel: u32,
        tuple: &Row,
        cols: &[usize],
    ) -> Option<FactId> {
        let mut h = FxHasher::default();
        rel.hash(&mut h);
        for &c in cols {
            tuple[c].hash(&mut h);
        }
        let mut cur = *self.fact_head.get(&h.finish())?;
        while cur != NIL {
            let i = cur as usize;
            if self.fact_rel[i] == rel
                && self.fact_values[i].len() == cols.len()
                && self.fact_values[i]
                    .iter()
                    .zip(cols)
                    .all(|(v, &c)| *v == tuple[c])
            {
                return Some(FactId(cur));
            }
            cur = self.fact_next[i];
        }
        None
    }

    /// The relation index and values of an interned fact.
    pub(crate) fn fact(&self, id: FactId) -> (u32, &Row) {
        (
            self.fact_rel[id.0 as usize],
            &self.fact_values[id.0 as usize],
        )
    }

    /// Intern a fact, cloning the row only on first sight.
    pub(crate) fn intern_fact(&mut self, rel: u32, values: &Row) -> FactId {
        let hash = fact_hash(rel, values);
        let head = self.fact_head.get(&hash).copied().unwrap_or(NIL);
        let mut cur = head;
        while cur != NIL {
            let i = cur as usize;
            if self.fact_rel[i] == rel && &self.fact_values[i] == values {
                return FactId(cur);
            }
            cur = self.fact_next[i];
        }
        let id = self.fact_rel.len() as u32;
        self.fact_rel.push(rel);
        self.fact_values.push(values.clone());
        self.fact_vertices.push(Vec::new());
        self.fact_next.push(head);
        self.fact_head.insert(hash, id);
        FactId(id)
    }

    // ---- edges ----

    /// Add an edge (the violation set of one constraint instance).
    /// Vertices are sorted and deduplicated; duplicate edges are ignored.
    /// `values` provides each vertex's tuple values for the fact index.
    pub fn add_edge(
        &mut self,
        vertices: &[Vertex],
        values: &[&Row],
        constraint: usize,
    ) -> Option<EdgeId> {
        debug_assert_eq!(vertices.len(), values.len());
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(vertices);
        scratch.sort_unstable();
        scratch.dedup();
        // Duplicate probe first: the dedup tables survive `finalize`, so a
        // duplicate add on a frozen graph is a pure read (no thaw, no fact
        // work — a duplicate edge carries no new fact→vertex pairs either).
        let hash = edge_hash(&scratch);
        if self.is_duplicate_edge(hash, &scratch) {
            self.scratch = scratch;
            return None;
        }
        self.unfreeze();
        // Register facts (values parallel to the caller's vertex order).
        for (v, row) in vertices.iter().zip(values) {
            let fid = self.intern_fact(v.rel, row);
            let entry = &mut self.fact_vertices[fid.0 as usize];
            if !entry.contains(v) {
                entry.push(*v);
            }
        }
        let id = self.append_edge(hash, &scratch, constraint);
        self.scratch = scratch;
        Some(id)
    }

    /// Merge a shard-local fragment into the graph, replaying its edges
    /// in buffer order through [`ConflictHypergraph::add_edge`] (so
    /// dedup and fact interning behave exactly as in sequential
    /// construction). Returns the number of edges actually added
    /// (duplicates across shards are silently dropped).
    pub(crate) fn absorb_fragment(&mut self, frag: &EdgeFragment<'_>) -> usize {
        let mut added = 0;
        for i in 0..frag.edge_count() {
            let (vertices, rows, constraint) = frag.edge(i);
            if self.add_edge(vertices, rows, constraint).is_some() {
                added += 1;
            }
        }
        added
    }

    /// Walk the chained dedup table for an edge equal to `sorted`.
    fn is_duplicate_edge(&self, hash: u64, sorted: &[Vertex]) -> bool {
        let mut cur = self.edge_dedup_head.get(&hash).copied().unwrap_or(NIL);
        while cur != NIL {
            if self.edge(cur) == sorted {
                return true;
            }
            cur = self.edge_dedup_next[cur as usize];
        }
        false
    }

    /// Append a known-new edge to the arena, dedup chain and adjacency.
    fn append_edge(&mut self, hash: u64, sorted: &[Vertex], constraint: usize) -> EdgeId {
        let id = self.edge_constraint.len() as u32;
        self.edge_vertices.extend_from_slice(sorted);
        self.edge_offsets.push(self.edge_vertices.len() as u32);
        self.edge_constraint.push(constraint as u32);
        self.edge_dedup_next
            .push(self.edge_dedup_head.get(&hash).copied().unwrap_or(NIL));
        self.edge_dedup_head.insert(hash, id);
        for v in sorted {
            self.adj_build.entry(*v).or_default().push(id);
        }
        id
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_constraint.len()
    }

    /// Number of distinct conflicting vertices.
    pub fn conflicting_vertex_count(&self) -> usize {
        if self.frozen {
            self.vertex_list.len()
        } else {
            self.adj_build.len()
        }
    }

    /// The vertices of an edge.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &[Vertex] {
        let i = id as usize;
        &self.edge_vertices[self.edge_offsets[i] as usize..self.edge_offsets[i + 1] as usize]
    }

    /// The constraint index that produced an edge.
    pub fn edge_constraint(&self, id: EdgeId) -> usize {
        self.edge_constraint[id as usize] as usize
    }

    /// Iterate all edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &[Vertex])> {
        (0..self.edge_count() as u32).map(|id| (id, self.edge(id)))
    }

    /// Edges containing a vertex.
    #[inline]
    pub fn edges_of(&self, v: Vertex) -> &[EdgeId] {
        if self.frozen {
            match self.vertex_dense.get(&v) {
                Some(&d) => {
                    let d = d as usize;
                    &self.adj_edges[self.adj_offsets[d] as usize..self.adj_offsets[d + 1] as usize]
                }
                None => &[],
            }
        } else {
            self.adj_build.get(&v).map(Vec::as_slice).unwrap_or(&[])
        }
    }

    /// Is the vertex involved in any conflict?
    pub fn is_conflicting(&self, v: Vertex) -> bool {
        if self.frozen {
            self.vertex_dense.contains_key(&v)
        } else {
            self.adj_build.contains_key(&v)
        }
    }

    /// Conflicting vertices carrying a given fact (empty slice when the
    /// fact is not part of any conflict). Borrow-based probe: no clone,
    /// no allocation, hit or miss.
    pub fn vertices_of_fact(&self, rel: &str, values: &Row) -> &[Vertex] {
        match self.fact_id(rel, values) {
            Some(fid) => self.vertices_of_fact_id(fid),
            None => &[],
        }
    }

    /// Conflicting vertices carrying an interned fact.
    #[inline]
    pub(crate) fn vertices_of_fact_id(&self, id: FactId) -> &[Vertex] {
        &self.fact_vertices[id.0 as usize]
    }

    /// Is a set of vertices independent (no edge fully contained in it)?
    ///
    /// Only edges adjacent to the set need checking, so this is fast for
    /// the small witness sets the prover builds. Allocation-free: instead
    /// of tracking seen edges, an edge touching the set `k` times is
    /// simply re-checked `k` times (edges are tiny, sets are tiny).
    /// Generic over the set's hasher so both `FxHashSet` (prover) and the
    /// default `HashSet` (tests, repair enumeration) work.
    pub fn is_independent<S: BuildHasher>(
        &self,
        set: &std::collections::HashSet<Vertex, S>,
    ) -> bool {
        for &v in set {
            for &eid in self.edges_of(v) {
                if self.edge(eid).iter().all(|u| set.contains(u)) {
                    return false;
                }
            }
        }
        true
    }

    /// Is vertex `v` *blocked* by the set `s` — i.e. does some edge `e ∋ v`
    /// have all its other vertices inside `s`? A blocked vertex cannot be
    /// added to any independent superset of `s`.
    pub fn is_blocked_by<S: BuildHasher>(
        &self,
        v: Vertex,
        s: &std::collections::HashSet<Vertex, S>,
    ) -> bool {
        self.edges_of(v)
            .iter()
            .any(|&eid| self.edge(eid).iter().all(|u| *u == v || s.contains(u)))
    }

    /// Total size of all edges (Σ|e|; diagnostics).
    pub fn total_edge_size(&self) -> usize {
        self.edge_vertices.len()
    }

    // ---- CSR freeze / thaw ----

    /// Compact the vertex → edge adjacency into CSR arrays. Called by the
    /// detector once construction is done; safe to call repeatedly.
    /// Queries work before and after; probes are cheapest after.
    pub fn finalize(&mut self) {
        if self.frozen {
            return;
        }
        let mut vertex_list: Vec<Vertex> = self.adj_build.keys().copied().collect();
        vertex_list.sort_unstable();
        let mut vertex_dense =
            FxHashMap::with_capacity_and_hasher(vertex_list.len(), Default::default());
        for (d, v) in vertex_list.iter().enumerate() {
            vertex_dense.insert(*v, d as u32);
        }
        // Counting pass, then placement pass, iterating edges in id order
        // so each vertex's edge list stays sorted by edge id.
        let mut counts = vec![0u32; vertex_list.len() + 1];
        for v in &self.edge_vertices {
            counts[vertex_dense[v] as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let adj_offsets = counts.clone();
        let mut adj_edges = vec![0u32; self.edge_vertices.len()];
        let mut cursor = counts;
        for (id, _) in self.edge_constraint.iter().enumerate() {
            for v in self.edge(id as u32) {
                let d = vertex_dense[v] as usize;
                adj_edges[cursor[d] as usize] = id as u32;
                cursor[d] += 1;
            }
        }
        self.vertex_list = vertex_list;
        self.vertex_dense = vertex_dense;
        self.adj_offsets = adj_offsets;
        self.adj_edges = adj_edges;
        self.adj_build = FxHashMap::default();
        self.frozen = true;
    }

    /// Has [`ConflictHypergraph::finalize`] been applied (and no edge
    /// added since)?
    #[cfg(test)]
    fn is_finalized(&self) -> bool {
        self.frozen
    }

    /// Rebuild the construction-time adjacency from the CSR view so more
    /// edges can be added.
    fn unfreeze(&mut self) {
        if !self.frozen {
            return;
        }
        let mut adj_build: FxHashMap<Vertex, Vec<EdgeId>> =
            FxHashMap::with_capacity_and_hasher(self.vertex_list.len(), Default::default());
        for (d, v) in self.vertex_list.iter().enumerate() {
            let ids =
                &self.adj_edges[self.adj_offsets[d] as usize..self.adj_offsets[d + 1] as usize];
            adj_build.insert(*v, ids.to_vec());
        }
        self.adj_build = adj_build;
        self.vertex_list = Vec::new();
        self.vertex_dense = FxHashMap::default();
        self.adj_offsets = Vec::new();
        self.adj_edges = Vec::new();
        self.frozen = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hippo_engine::Value;
    use std::collections::HashSet;

    fn v(rel: u32, tid: u32) -> Vertex {
        Vertex {
            rel,
            tid: TupleId(tid),
        }
    }

    fn row(x: i64) -> Row {
        vec![Value::Int(x)]
    }

    #[test]
    fn intern_is_idempotent() {
        let mut g = ConflictHypergraph::new();
        let a = g.intern("r");
        let b = g.intern("r");
        let c = g.intern("s");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(g.relation_name(a), "r");
        assert_eq!(g.relation_index("s"), Some(c));
        assert_eq!(g.relation_index("zzz"), None);
    }

    #[test]
    fn add_edge_dedups_vertices_and_edges() {
        let mut g = ConflictHypergraph::new();
        let r = g.intern("r");
        let r0 = row(0);
        let r1 = row(1);
        let e1 = g.add_edge(&[v(r, 1), v(r, 0)], &[&r1, &r0], 0);
        assert!(e1.is_some());
        // Same edge in different order is a duplicate.
        let e2 = g.add_edge(&[v(r, 0), v(r, 1)], &[&r0, &r1], 0);
        assert!(e2.is_none());
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge(0), &[v(r, 0), v(r, 1)]);
        // Same vertex twice collapses to a singleton edge.
        let e3 = g.add_edge(&[v(r, 5), v(r, 5)], &[&row(5), &row(5)], 1);
        assert_eq!(g.edge(e3.unwrap()), &[v(r, 5)]);
    }

    #[test]
    fn adjacency_and_conflicting() {
        let mut g = ConflictHypergraph::new();
        let r = g.intern("r");
        g.add_edge(&[v(r, 0), v(r, 1)], &[&row(0), &row(1)], 0);
        g.add_edge(&[v(r, 1), v(r, 2)], &[&row(1), &row(2)], 0);
        assert!(g.is_conflicting(v(r, 1)));
        assert!(!g.is_conflicting(v(r, 9)));
        assert_eq!(g.edges_of(v(r, 1)).len(), 2);
        assert_eq!(g.conflicting_vertex_count(), 3);
        assert_eq!(g.total_edge_size(), 4);
    }

    #[test]
    fn independence_checks() {
        let mut g = ConflictHypergraph::new();
        let r = g.intern("r");
        g.add_edge(&[v(r, 0), v(r, 1)], &[&row(0), &row(1)], 0);
        g.add_edge(
            &[v(r, 1), v(r, 2), v(r, 3)],
            &[&row(1), &row(2), &row(3)],
            1,
        );
        let set: HashSet<Vertex> = [v(r, 0), v(r, 2), v(r, 3)].into_iter().collect();
        assert!(g.is_independent(&set));
        let set: HashSet<Vertex> = [v(r, 0), v(r, 1)].into_iter().collect();
        assert!(!g.is_independent(&set));
        // Subsets of an edge are independent.
        let set: HashSet<Vertex> = [v(r, 1), v(r, 2)].into_iter().collect();
        assert!(g.is_independent(&set));
        assert!(g.is_independent(&HashSet::new()));
    }

    #[test]
    fn blocking() {
        let mut g = ConflictHypergraph::new();
        let r = g.intern("r");
        g.add_edge(
            &[v(r, 0), v(r, 1), v(r, 2)],
            &[&row(0), &row(1), &row(2)],
            0,
        );
        let s: HashSet<Vertex> = [v(r, 1), v(r, 2)].into_iter().collect();
        assert!(g.is_blocked_by(v(r, 0), &s));
        let s: HashSet<Vertex> = [v(r, 1)].into_iter().collect();
        assert!(!g.is_blocked_by(v(r, 0), &s), "edge not fully covered");
        // Singleton edge blocks its vertex against the empty set.
        g.add_edge(&[v(r, 7)], &[&row(7)], 1);
        assert!(g.is_blocked_by(v(r, 7), &HashSet::new()));
    }

    #[test]
    fn fact_index_tracks_conflicting_tuples() {
        let mut g = ConflictHypergraph::new();
        let r = g.intern("r");
        let a = row(10);
        let b = row(20);
        g.add_edge(&[v(r, 0), v(r, 1)], &[&a, &b], 0);
        assert_eq!(g.vertices_of_fact("r", &a), &[v(r, 0)]);
        assert_eq!(g.vertices_of_fact("r", &b), &[v(r, 1)]);
        assert!(g.vertices_of_fact("r", &row(99)).is_empty());
        assert!(g.vertices_of_fact("zzz", &a).is_empty());
    }

    #[test]
    fn duplicate_facts_map_to_multiple_vertices() {
        let mut g = ConflictHypergraph::new();
        let r = g.intern("r");
        let a = row(10);
        // Two distinct physical tuples with the same values, each in a conflict.
        g.add_edge(&[v(r, 0), v(r, 5)], &[&a, &row(50)], 0);
        g.add_edge(&[v(r, 1), v(r, 5)], &[&a, &row(50)], 0);
        assert_eq!(g.vertices_of_fact("r", &a), &[v(r, 0), v(r, 1)]);
    }

    #[test]
    fn fact_interning_assigns_stable_dense_ids() {
        let mut g = ConflictHypergraph::new();
        let r = g.intern("r");
        let a = row(1);
        let b = row(2);
        let fa = g.intern_fact(r, &a);
        let fb = g.intern_fact(r, &b);
        assert_ne!(fa, fb);
        assert_eq!(g.intern_fact(r, &a), fa, "re-interning returns the same id");
        assert_eq!(g.fact_count(), 2);
        assert_eq!(g.fact_id("r", &a), Some(fa));
        assert_eq!(g.fact_id_interned(r, &b), Some(fb));
        let (rel, values) = g.fact(fa);
        assert_eq!(rel, r);
        assert_eq!(values, &a);
    }

    /// Regression (issue 1 satellite): the borrowed probe must work for
    /// hits *and misses* without cloning — exercised here through rows
    /// that were never interned and relations that do not exist. (The
    /// zero-clone property itself is structural: `fact_id` takes `&Row`
    /// and the interner compares borrowed slices in the hash chain.)
    #[test]
    fn borrowed_fact_lookup_hits_and_misses() {
        let mut g = ConflictHypergraph::new();
        let r = g.intern("r");
        let present = row(1);
        g.add_edge(&[v(r, 0), v(r, 1)], &[&present, &row(2)], 0);
        // Hit via borrow.
        assert_eq!(g.vertices_of_fact("r", &present), &[v(r, 0)]);
        assert_eq!(g.fact_id("r", &present), Some(FactId(0)));
        // Miss on a never-interned row of the same relation.
        let absent = row(777);
        assert!(g.fact_id("r", &absent).is_none());
        assert!(g.vertices_of_fact("r", &absent).is_empty());
        // Miss on an unknown relation.
        assert!(g.fact_id("nope", &present).is_none());
        // Miss on a row that collides in length/shape but differs in value.
        let near = vec![Value::Int(1), Value::Int(0)];
        assert!(g.fact_id("r", &near).is_none());
        // Interner state unchanged by misses.
        assert_eq!(g.fact_count(), 2);
    }

    #[test]
    fn projected_probe_matches_materialised_probe() {
        let mut g = ConflictHypergraph::new();
        let r = g.intern("r");
        let a = vec![Value::Int(7), Value::Int(8)];
        let b = vec![Value::Int(8), Value::Int(7)];
        g.add_edge(&[v(r, 0), v(r, 1)], &[&a, &b], 0);
        // Candidate tuple carrying both facts as column slices.
        let tuple = vec![Value::Int(7), Value::Int(8), Value::Int(9)];
        assert_eq!(g.fact_id_projected(r, &tuple, &[0, 1]), g.fact_id("r", &a));
        assert_eq!(g.fact_id_projected(r, &tuple, &[1, 0]), g.fact_id("r", &b));
        // Miss: projection not interned; arity mismatch never matches.
        assert_eq!(g.fact_id_projected(r, &tuple, &[2, 2]), None);
        assert_eq!(g.fact_id_projected(r, &tuple, &[0]), None);
    }

    #[test]
    fn finalize_preserves_all_queries() {
        let mut g = ConflictHypergraph::new();
        let r = g.intern("r");
        let s = g.intern("s");
        g.add_edge(&[v(r, 0), v(r, 1)], &[&row(0), &row(1)], 0);
        g.add_edge(&[v(r, 1), v(s, 2)], &[&row(1), &row(2)], 1);
        g.add_edge(&[v(s, 9)], &[&row(9)], 2);
        let vs = [v(r, 0), v(r, 1), v(s, 2), v(s, 9)];
        let adjacency = |g: &ConflictHypergraph| -> Vec<Vec<EdgeId>> {
            vs.iter().map(|&v| g.edges_of(v).to_vec()).collect()
        };
        let before = adjacency(&g);
        assert!(!g.is_finalized());
        g.finalize();
        assert!(g.is_finalized());
        let after = adjacency(&g);
        assert_eq!(before, after, "finalize must not change adjacency");
        assert_eq!(
            g.edges_of(v(r, 9)),
            &[] as &[EdgeId],
            "unknown vertex still empty"
        );
        assert_eq!(g.conflicting_vertex_count(), 4);
        // Graph remains usable for independence/blocking.
        let set: HashSet<Vertex> = [v(r, 0), v(r, 1)].into_iter().collect();
        assert!(!g.is_independent(&set));
        g.finalize(); // idempotent
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn default_graph_is_usable() {
        // Regression: `default()` must uphold the CSR leading-offset
        // invariant, exactly like `new()`.
        let mut g = ConflictHypergraph::default();
        let r = g.intern("r");
        g.add_edge(&[v(r, 0), v(r, 1)], &[&row(0), &row(1)], 0);
        assert_eq!(g.edge(0), &[v(r, 0), v(r, 1)]);
        assert_eq!(g.edges().count(), 1);
    }

    #[test]
    fn fragments_absorb_in_order_with_dedup() {
        let r0 = row(0);
        let r1 = row(1);
        let r2 = row(2);
        let mut frag_a = EdgeFragment::new();
        let mut frag_b = EdgeFragment::new();
        // Shard A emits {0,1}; shard B emits the same edge (reversed) plus
        // a fresh one — the duplicate must be dropped at absorb time.
        frag_a.push_edge(&[v(0, 0), v(0, 1)], &[&r0, &r1], 0);
        frag_b.push_edge(&[v(0, 1), v(0, 0)], &[&r1, &r0], 0);
        frag_b.push_edge(&[v(0, 1), v(0, 2)], &[&r1, &r2], 1);
        assert_eq!(frag_a.edge_count(), 1);
        assert_eq!(frag_b.edge_count(), 2);
        assert!(!frag_b.is_empty());

        let mut g = ConflictHypergraph::new();
        g.intern("r");
        assert_eq!(g.absorb_fragment(&frag_a), 1);
        assert_eq!(g.absorb_fragment(&frag_b), 1, "duplicate dropped");
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge(0), &[v(0, 0), v(0, 1)]);
        assert_eq!(g.edge(1), &[v(0, 1), v(0, 2)]);
        assert_eq!(g.edge_constraint(1), 1);
        // Facts were interned through the ordinary path.
        assert_eq!(g.vertices_of_fact("r", &r1), &[v(0, 1)]);
    }

    #[test]
    fn duplicate_add_on_frozen_graph_stays_frozen() {
        let mut g = ConflictHypergraph::new();
        let r = g.intern("r");
        g.add_edge(&[v(r, 0), v(r, 1)], &[&row(0), &row(1)], 0);
        g.finalize();
        assert!(g
            .add_edge(&[v(r, 1), v(r, 0)], &[&row(1), &row(0)], 0)
            .is_none());
        assert!(g.is_finalized(), "duplicate insert must not thaw the CSR");
    }

    #[test]
    fn add_edge_after_finalize_unfreezes() {
        let mut g = ConflictHypergraph::new();
        let r = g.intern("r");
        g.add_edge(&[v(r, 0), v(r, 1)], &[&row(0), &row(1)], 0);
        g.finalize();
        // Duplicate through the dedup table still detected post-freeze.
        assert!(g
            .add_edge(&[v(r, 1), v(r, 0)], &[&row(1), &row(0)], 0)
            .is_none());
        let e = g.add_edge(&[v(r, 1), v(r, 2)], &[&row(1), &row(2)], 0);
        assert!(e.is_some());
        assert!(!g.is_finalized());
        assert_eq!(g.edges_of(v(r, 1)).len(), 2);
        g.finalize();
        assert_eq!(g.edges_of(v(r, 1)).len(), 2);
        assert_eq!(g.conflicting_vertex_count(), 3);
    }
}
