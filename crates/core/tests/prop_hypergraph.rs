//! Differential property tests for the CSR conflict hypergraph.
//!
//! The CSR + interned-fact representation must be observationally
//! identical to the obvious reference implementation (per-edge `Vec`s, a
//! `HashSet` for dedup, plain adjacency and fact maps — the shape the
//! seed code used). Random edge soups are inserted into both and every
//! query surface is compared: `edges_of`, `is_independent`,
//! `is_blocked_by`, `vertices_of_fact`, plus edge/vertex counts and the
//! dedup behaviour itself. `finalize` (CSR freeze) and post-freeze
//! insertion (thaw) are exercised at a random split point.

use hippo_cqa::hypergraph::{ConflictHypergraph, Vertex};
use hippo_engine::{Row, TupleId, Value};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// A live system answers by freezing, then the one answer call.
fn answer(
    h: &hippo_cqa::Hippo,
    q: &hippo_cqa::SjudQuery,
) -> Result<hippo_cqa::ConsistentAnswer, hippo_engine::EngineError> {
    h.freeze()?.answer(q, &h.options)
}

/// The reference implementation: the straightforward representation.
#[derive(Default)]
struct NaiveGraph {
    edges: Vec<Vec<Vertex>>,
    edge_set: HashSet<Vec<Vertex>>,
    adjacency: HashMap<Vertex, Vec<usize>>,
    fact_vertices: HashMap<(u32, Row), Vec<Vertex>>,
}

impl NaiveGraph {
    fn add_edge(&mut self, vertices: &[Vertex], values: &[&Row]) -> Option<usize> {
        for (v, row) in vertices.iter().zip(values) {
            let entry = self
                .fact_vertices
                .entry((v.rel, (*row).clone()))
                .or_default();
            if !entry.contains(v) {
                entry.push(*v);
            }
        }
        let mut sorted = vertices.to_vec();
        sorted.sort();
        sorted.dedup();
        if self.edge_set.contains(&sorted) {
            return None;
        }
        let id = self.edges.len();
        for v in &sorted {
            self.adjacency.entry(*v).or_default().push(id);
        }
        self.edge_set.insert(sorted.clone());
        self.edges.push(sorted);
        Some(id)
    }

    fn edges_of(&self, v: Vertex) -> &[usize] {
        self.adjacency.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    fn is_independent(&self, set: &HashSet<Vertex>) -> bool {
        self.edges
            .iter()
            .all(|e| !e.iter().all(|v| set.contains(v)))
    }

    fn is_blocked_by(&self, v: Vertex, s: &HashSet<Vertex>) -> bool {
        self.edges_of(v)
            .iter()
            .any(|&eid| self.edges[eid].iter().all(|u| *u == v || s.contains(u)))
    }

    fn vertices_of_fact(&self, rel: u32, values: &Row) -> &[Vertex] {
        self.fact_vertices
            .get(&(rel, values.clone()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Vertex universe: 2 relations × 10 tuple ids. Each vertex carries a
/// deterministic row; `tid % 4` makes distinct tuples share fact values,
/// exercising the fact → multiple-vertices case.
fn vx(rel: u32, tid: u32) -> Vertex {
    Vertex {
        rel,
        tid: TupleId(tid),
    }
}

fn row_of(v: Vertex) -> Row {
    vec![Value::Int(v.rel as i64), Value::Int((v.tid.0 % 4) as i64)]
}

fn arb_edges() -> impl Strategy<Value = Vec<Vec<(u32, u32)>>> {
    prop::collection::vec(prop::collection::vec((0u32..2, 0u32..10), 1..4), 0..24)
}

fn arb_vertex_set() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0u32..2, 0u32..10), 0..6)
}

fn build_both(edges: &[Vec<(u32, u32)>], freeze_at: usize) -> (ConflictHypergraph, NaiveGraph) {
    let mut g = ConflictHypergraph::new();
    g.intern("r0");
    g.intern("r1");
    let mut n = NaiveGraph::default();
    for (i, e) in edges.iter().enumerate() {
        if i == freeze_at {
            g.finalize(); // adding more edges afterwards must thaw correctly
        }
        let vertices: Vec<Vertex> = e.iter().map(|&(r, t)| vx(r, t)).collect();
        let rows: Vec<Row> = vertices.iter().map(|&v| row_of(v)).collect();
        let refs: Vec<&Row> = rows.iter().collect();
        let got = g.add_edge(&vertices, &refs, i);
        let want = n.add_edge(&vertices, &refs);
        assert_eq!(
            got.is_some(),
            want.is_some(),
            "dedup disagreement on edge {i}"
        );
    }
    g.finalize();
    (g, n)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn csr_matches_reference(
        edges in arb_edges(),
        freeze_at in 0usize..24,
        probe in arb_vertex_set(),
        blocked_v in (0u32..2, 0u32..10),
    ) {
        let (g, n) = build_both(&edges, freeze_at);

        // Counts.
        prop_assert_eq!(g.edge_count(), n.edges.len());
        prop_assert_eq!(g.conflicting_vertex_count(), n.adjacency.len());
        prop_assert_eq!(
            g.total_edge_size(),
            n.edges.iter().map(Vec::len).sum::<usize>()
        );

        // Edge contents (CSR edge ids are assigned in insertion order,
        // matching the reference exactly).
        for (id, edge) in g.edges() {
            prop_assert_eq!(edge, n.edges[id as usize].as_slice());
        }

        // Adjacency over the whole vertex universe (including non-members).
        for rel in 0..2u32 {
            for tid in 0..10u32 {
                let v = vx(rel, tid);
                let got: Vec<usize> = g.edges_of(v).iter().map(|&e| e as usize).collect();
                prop_assert_eq!(got, n.edges_of(v).to_vec(), "edges_of {:?}", v);
                prop_assert_eq!(g.is_conflicting(v), n.adjacency.contains_key(&v));
            }
        }

        // Fact index over every possible fact value, hits and misses.
        for rel in 0..2u32 {
            for tid in 0..10u32 {
                let values = row_of(vx(rel, tid));
                let name = if rel == 0 { "r0" } else { "r1" };
                prop_assert_eq!(
                    g.vertices_of_fact(name, &values),
                    n.vertices_of_fact(rel, &values),
                    "vertices_of_fact {} {:?}", name, values
                );
            }
        }

        // Independence and blocking on a random probe set.
        let set: HashSet<Vertex> = probe.iter().map(|&(r, t)| vx(r, t)).collect();
        prop_assert_eq!(g.is_independent(&set), n.is_independent(&set));
        let bv = vx(blocked_v.0, blocked_v.1);
        prop_assert_eq!(
            g.is_blocked_by(bv, &set),
            n.is_blocked_by(bv, &set),
            "is_blocked_by {:?}", bv
        );
    }
}

/// `HippoOptions::base` / `kg` / `full` must agree on seeded random
/// workloads — end-to-end differential check over the interned hot path
/// (base and kg read the literal-indexed envelope flags, full
/// additionally runs the core-filter test).
#[test]
fn option_levels_agree_on_seeded_workloads() {
    use hippo_cqa::prelude::*;
    use hippo_engine::Database;

    for seed in [7u64, 41, 1234] {
        let spec = FdTableSpec::new("t", 300, 0.08, seed);
        let queries = [
            SjudQuery::rel("t"),
            SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 500i64)),
            SjudQuery::rel("t").diff(SjudQuery::rel("t").select(Pred::cmp_const(
                2,
                CmpOp::Lt,
                300i64,
            ))),
            SjudQuery::rel("t")
                .select(Pred::cmp_const(1, CmpOp::Lt, 500_000i64))
                .union(SjudQuery::rel("t").select(Pred::cmp_const(2, CmpOp::Ge, 800i64))),
            SjudQuery::rel("t").permute(vec![2, 1, 0]),
        ];
        let mut answers_by_level = Vec::new();
        for opts in [
            HippoOptions::base(),
            HippoOptions::kg(),
            HippoOptions::full(),
        ] {
            let mut db = Database::new();
            spec.populate(&mut db).unwrap();
            let hippo = Hippo::with_options(db, vec![spec.fd()], opts.clone()).unwrap();
            let per_query: Vec<_> = queries
                .iter()
                .map(|q| answer(&hippo, q).unwrap().rows)
                .collect();
            answers_by_level.push((opts, per_query));
        }
        let (_, reference) = &answers_by_level[0];
        for (opts, got) in &answers_by_level[1..] {
            assert_eq!(got, reference, "options {opts:?} diverged on seed {seed}");
        }
    }
}

/// In every mode a `NULL` key component matches nothing (base mode's
/// probes compare with SQL `=`, KG/full mode's mark joins by identity
/// with `NULL` keys excluded), so the three modes agree on tuples with
/// a `NULL` component: such a fact is never "present", and no mode
/// returns it. (Before the core filter became a per-candidate test
/// over the same flags, its scratch evaluation compared rows by
/// identity and full mode returned `cyd` and the `NULL`-named row.)
#[test]
fn modes_agree_on_null_bearing_tuples() {
    use hippo_cqa::prelude::*;
    use hippo_engine::{Database, Value};

    let build = |opts: HippoOptions| {
        let mut db = Database::new();
        db.execute("CREATE TABLE emp (name TEXT, salary INT)")
            .unwrap();
        db.execute(
            "INSERT INTO emp VALUES ('ann', 100), ('ann', 200), ('bob', 300), \
             ('cyd', NULL), (NULL, 5)",
        )
        .unwrap();
        let fd = DenialConstraint::functional_dependency("emp", &[0], 1);
        Hippo::with_options(db, vec![fd], opts).unwrap()
    };
    let bob = vec![vec![Value::text("bob"), Value::Int(300)]];
    for sql in [
        "SELECT * FROM emp",
        "SELECT * FROM emp EXCEPT SELECT * FROM emp WHERE salary < 150",
    ] {
        for opts in [
            HippoOptions::base(),
            HippoOptions::kg(),
            HippoOptions::full(),
        ] {
            let hippo = build(opts.clone());
            let q = sjud_from_sql(sql, hippo.db().catalog()).unwrap();
            let rows = answer(&hippo, &q).unwrap().rows;
            assert_eq!(rows, bob, "{sql} options {opts:?}");
        }
    }
}
