//! Repairs as maximal independent sets of the conflict hypergraph.
//!
//! A **repair** keeps every non-conflicting tuple and a maximal independent
//! subset of the conflicting ones. Enumerating repairs is exponential in
//! the worst case — this module exists for ground truth in tests and for
//! experiment E7, which *measures* that blow-up; Hippo itself never calls
//! it when answering queries. It reads the graph only through its public
//! accessors.

use hippo_cqa::hypergraph::{ConflictHypergraph, Vertex};
use hippo_engine::{Catalog, Row, TupleId};
use std::collections::{BTreeSet, HashSet};

/// A repair, represented by the set of **conflicting vertices it keeps**
/// (all non-conflicting tuples are implicitly kept).
pub type RepairKept = BTreeSet<Vertex>;

/// Every vertex some edge covers, sorted.
fn conflicting_vertices(g: &ConflictHypergraph) -> BTreeSet<Vertex> {
    g.edges().flat_map(|(_, e)| e.iter().copied()).collect()
}

/// Enumerate all repairs (as kept-sets over conflicting vertices).
///
/// `limit` caps the number of repairs produced (`None` = unbounded); the
/// experiments use the cap to keep E7 runs bounded.
pub fn enumerate_repairs(g: &ConflictHypergraph, limit: Option<usize>) -> Vec<RepairKept> {
    let mut results: HashSet<RepairKept> = HashSet::new();
    let mut kept = conflicting_vertices(g);
    let mut removed: BTreeSet<Vertex> = BTreeSet::new();
    recurse(g, &mut kept, &mut removed, &mut results, limit);
    let mut out: Vec<RepairKept> = results.into_iter().collect();
    out.sort();
    out
}

fn recurse(
    g: &ConflictHypergraph,
    kept: &mut BTreeSet<Vertex>,
    removed: &mut BTreeSet<Vertex>,
    results: &mut HashSet<RepairKept>,
    limit: Option<usize>,
) {
    if let Some(l) = limit {
        if results.len() >= l {
            return;
        }
    }
    // Find a violated edge (fully kept).
    let violated = g
        .edges()
        .find(|(_, e)| e.iter().all(|v| kept.contains(v)))
        .map(|(id, _)| id);
    match violated {
        None => {
            // Independent. Check maximality: every removed vertex must be
            // blocked (some edge all of whose other vertices are kept).
            let kept_set: HashSet<Vertex> = kept.iter().copied().collect();
            let maximal = removed.iter().all(|&v| g.is_blocked_by(v, &kept_set));
            if maximal {
                results.insert(kept.clone());
            }
        }
        Some(eid) => {
            let edge: Vec<Vertex> = g.edge(eid).to_vec();
            for v in edge {
                kept.remove(&v);
                removed.insert(v);
                recurse(g, kept, removed, results, limit);
                removed.remove(&v);
                kept.insert(v);
            }
        }
    }
}

/// Materialise a repair as an instance view: relation name → rows,
/// where conflicting vertices not in `kept` are dropped.
pub fn repair_instance<'a>(
    catalog: &'a Catalog,
    g: &'a ConflictHypergraph,
    kept: &'a RepairKept,
) -> impl Fn(&str) -> Vec<Row> + 'a {
    move |rel: &str| {
        let dropped: HashSet<TupleId> = g
            .edges()
            .flat_map(|(_, e)| e.iter())
            .filter(|v| g.relation_name(v.rel) == rel && !kept.contains(v))
            .map(|v| v.tid)
            .collect();
        let Ok(table) = catalog.table(rel) else {
            return Vec::new();
        };
        table
            .iter()
            .filter(|(tid, _)| !dropped.contains(tid))
            .map(|(_, row)| row.clone())
            .collect()
    }
}

/// The conflict-free core as an instance view: the repair view that
/// keeps no conflicting tuple. This is the instance the "traditional
/// approach" (delete all conflicting data) queries, and the positive base
/// of Hippo's core-filter optimization.
pub(crate) fn core_instance<'a>(
    catalog: &'a Catalog,
    g: &'a ConflictHypergraph,
) -> impl Fn(&str) -> Vec<Row> + 'a {
    static NONE: RepairKept = BTreeSet::new();
    repair_instance(catalog, g, &NONE)
}

/// Check that a kept-set is a repair: independent and maximal.
pub fn is_repair(g: &ConflictHypergraph, kept: &RepairKept) -> bool {
    let kept_set: HashSet<Vertex> = kept.iter().copied().collect();
    if !g.is_independent(&kept_set) {
        return false;
    }
    conflicting_vertices(g)
        .into_iter()
        .filter(|v| !kept_set.contains(v))
        .all(|v| g.is_blocked_by(v, &kept_set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hippo_engine::Value;

    fn v(tid: u32) -> Vertex {
        Vertex {
            rel: 0,
            tid: TupleId(tid),
        }
    }

    fn graph(edges: &[&[u32]]) -> ConflictHypergraph {
        let mut g = ConflictHypergraph::new();
        g.intern("r");
        for (i, e) in edges.iter().enumerate() {
            let rows: Vec<Row> = e.iter().map(|&t| vec![Value::Int(t as i64)]).collect();
            let refs: Vec<&Row> = rows.iter().collect();
            let vertices: Vec<Vertex> = e.iter().map(|&t| v(t)).collect();
            g.add_edge(&vertices, &refs, i);
        }
        g
    }

    #[test]
    fn single_edge_two_repairs() {
        let g = graph(&[&[0, 1]]);
        let rs = enumerate_repairs(&g, None);
        assert_eq!(rs.len(), 2);
        assert!(rs.contains(&[v(0)].into_iter().collect()));
        assert!(rs.contains(&[v(1)].into_iter().collect()));
        for r in &rs {
            assert!(is_repair(&g, r));
        }
    }

    #[test]
    fn empty_graph_single_empty_repair() {
        let g = graph(&[]);
        let rs = enumerate_repairs(&g, None);
        assert_eq!(rs.len(), 1);
        assert!(rs[0].is_empty());
    }

    #[test]
    fn triangle_graph_three_repairs() {
        // pairwise conflicts 0-1, 1-2, 0-2: repairs keep exactly one vertex
        let g = graph(&[&[0, 1], &[1, 2], &[0, 2]]);
        let rs = enumerate_repairs(&g, None);
        assert_eq!(rs.len(), 3);
        for r in &rs {
            assert_eq!(r.len(), 1);
            assert!(is_repair(&g, r));
        }
    }

    #[test]
    fn path_graph_maximality() {
        // 0-1, 1-2: repairs are {0,2} and {1}; {0} alone is not maximal.
        let g = graph(&[&[0, 1], &[1, 2]]);
        let rs = enumerate_repairs(&g, None);
        assert_eq!(rs.len(), 2);
        assert!(rs.contains(&[v(0), v(2)].into_iter().collect()));
        assert!(rs.contains(&[v(1)].into_iter().collect()));
    }

    #[test]
    fn hyperedge_of_three() {
        // one edge {0,1,2}: repairs drop exactly one vertex
        let g = graph(&[&[0, 1, 2]]);
        let rs = enumerate_repairs(&g, None);
        assert_eq!(rs.len(), 3);
        for r in &rs {
            assert_eq!(r.len(), 2);
        }
    }

    #[test]
    fn singleton_edge_vertex_in_no_repair() {
        let g = graph(&[&[7]]);
        let rs = enumerate_repairs(&g, None);
        assert_eq!(rs.len(), 1);
        assert!(rs[0].is_empty());
        assert!(is_repair(&g, &rs[0]));
    }

    #[test]
    fn independent_conflicts_multiply() {
        // k independent edges → 2^k repairs
        let g = graph(&[&[0, 1], &[2, 3], &[4, 5]]);
        assert_eq!(enumerate_repairs(&g, None).len(), 8);
    }

    #[test]
    fn limit_caps_enumeration() {
        let g = graph(&[&[0, 1], &[2, 3], &[4, 5]]);
        assert_eq!(enumerate_repairs(&g, Some(3)).len(), 3);
    }

    #[test]
    fn is_repair_rejects_non_maximal_and_dependent() {
        let g = graph(&[&[0, 1], &[1, 2]]);
        assert!(!is_repair(&g, &[v(0)].into_iter().collect()), "not maximal");
        assert!(
            !is_repair(&g, &[v(0), v(1)].into_iter().collect()),
            "contains an edge"
        );
    }
}
