//! Restricted foreign-key (inclusion) constraints — the paper's stated
//! future work ("support for restricted foreign key constraints"),
//! implemented here as an extension.
//!
//! A foreign key `R[fk] ⊆ S[key]` is **not** a denial constraint: deleting
//! an `S` tuple can orphan `R` tuples, so repairs under unrestricted
//! inclusion dependencies are not the maximal independent sets of a static
//! hypergraph (deletions cascade). The *restricted* case regains the
//! hypergraph semantics: when the parent relation `S` is itself
//! constraint-free (no denial constraint or foreign key ever forces an `S`
//! deletion), no repair removes parent tuples, so the only repair action
//! for a violation is deleting the orphan child — i.e. each orphan is a
//! **singleton hyperedge**, exactly like a CHECK denial.
//!
//! `validate_restricted` enforces the restriction; `orphan_edges`
//! contributes the singleton edges to an existing hypergraph build.

use crate::constraint::DenialConstraint;
use crate::hypergraph::{ConflictHypergraph, Vertex};
use hippo_engine::{Catalog, EngineError, Row, Value};
use std::collections::HashSet;
use std::fmt;

/// A foreign-key constraint `child[child_cols] ⊆ parent[parent_cols]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing relation.
    pub child: String,
    /// Referencing columns.
    pub child_cols: Vec<usize>,
    /// Referenced relation.
    pub parent: String,
    /// Referenced columns (must align with `child_cols`).
    pub parent_cols: Vec<usize>,
}

impl ForeignKey {
    /// Constructor.
    pub fn new(
        child: impl Into<String>,
        child_cols: Vec<usize>,
        parent: impl Into<String>,
        parent_cols: Vec<usize>,
    ) -> ForeignKey {
        ForeignKey {
            child: child.into(),
            child_cols,
            parent: parent.into(),
            parent_cols,
        }
    }

    /// Schema-level validation.
    pub(crate) fn validate(&self, catalog: &Catalog) -> Result<(), EngineError> {
        if self.child_cols.len() != self.parent_cols.len() || self.child_cols.is_empty() {
            return Err(EngineError::new(format!(
                "foreign key {self}: column lists must be non-empty and aligned"
            )));
        }
        let child = catalog.table(&self.child)?;
        let parent = catalog.table(&self.parent)?;
        for &c in &self.child_cols {
            if c >= child.schema.arity() {
                return Err(EngineError::new(format!(
                    "foreign key {self}: child column {c} out of range"
                )));
            }
        }
        for &c in &self.parent_cols {
            if c >= parent.schema.arity() {
                return Err(EngineError::new(format!(
                    "foreign key {self}: parent column {c} out of range"
                )));
            }
        }
        Ok(())
    }
}

impl fmt::Display for ForeignKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{:?}] ⊆ {}[{:?}]",
            self.child, self.child_cols, self.parent, self.parent_cols
        )
    }
}

/// Check the *restriction*: no denial constraint and no other foreign key
/// may ever force a deletion from any referenced parent relation. Under
/// this condition parents are stable across repairs and orphan children
/// become singleton hyperedges.
pub(crate) fn validate_restricted(
    foreign_keys: &[ForeignKey],
    denials: &[DenialConstraint],
    catalog: &Catalog,
) -> Result<(), EngineError> {
    let parents: HashSet<&str> = foreign_keys.iter().map(|fk| fk.parent.as_str()).collect();
    for fk in foreign_keys {
        fk.validate(catalog)?;
        if parents.contains(fk.child.as_str()) {
            return Err(EngineError::new(format!(
                "restricted foreign keys: relation {:?} is both a parent and a child; \
                 cascading deletions are outside the hypergraph semantics",
                fk.child
            )));
        }
    }
    for d in denials {
        for atom in &d.atoms {
            if parents.contains(atom.as_str()) {
                return Err(EngineError::new(format!(
                    "restricted foreign keys: parent relation {atom:?} also appears in denial \
                     constraint {:?}; parent tuples would no longer be stable across repairs",
                    d.name
                )));
            }
        }
    }
    Ok(())
}

/// Add one singleton hyperedge per orphan child tuple: a child whose
/// key is in no bucket of the parent's index on the referenced columns
/// (on a catalog without that index, a copy-on-write clone with it
/// added). Keys compare by `Value` identity; a child key holding a
/// `NULL` never violates.
pub(crate) fn orphan_edges(
    g: &mut ConflictHypergraph,
    catalog: &Catalog,
    fk: &ForeignKey,
    constraint_index: usize,
) -> Result<usize, EngineError> {
    let [parent_need, _] = fk.index_needs();
    let catalog = crate::detect::with_indexes(catalog, &[parent_need])?;
    let child = catalog.table(&fk.child)?;
    let parent = catalog.table(&fk.parent)?;
    let rel = g.intern(&fk.child);
    let mut added = 0;
    for (tid, row) in child.iter() {
        // SQL semantics: NULL foreign keys do not violate.
        let Some(key) = fk.child_key(row) else {
            continue;
        };
        if crate::detect::bucket(parent, &fk.parent_cols, &key).is_empty() {
            g.add_edge(&[Vertex { rel, tid }], &[row], constraint_index);
            added += 1;
        }
    }
    Ok(added)
}

impl ForeignKey {
    /// The hash indexes orphan tracking probes, as `(relation, columns)`:
    /// the referenced columns on the parent, which count a key's
    /// parents, and the referencing columns on the child, which list
    /// the children a key's last parent leaves orphaned.
    pub(crate) fn index_needs(&self) -> [(String, Vec<usize>); 2] {
        [
            (self.parent.clone(), self.parent_cols.clone()),
            (self.child.clone(), self.child_cols.clone()),
        ]
    }

    /// The referenced-key projection of a parent row.
    pub(crate) fn parent_key(&self, row: &Row) -> Vec<Value> {
        self.parent_cols.iter().map(|&c| row[c].clone()).collect()
    }

    /// The referencing-key projection of a child row; `None` when any
    /// component is NULL (SQL semantics: a NULL fk never violates).
    pub(crate) fn child_key(&self, row: &Row) -> Option<Vec<Value>> {
        let key: Vec<Value> = self.child_cols.iter().map(|&c| row[c].clone()).collect();
        if key.iter().any(Value::is_null) {
            None
        } else {
            Some(key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hippo_engine::Database;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE orders (id INT, cust INT)")
            .unwrap();
        db.execute("CREATE TABLE customers (cid INT, tier INT)")
            .unwrap();
        db.execute("INSERT INTO customers VALUES (1, 10), (2, 20)")
            .unwrap();
        db.execute("INSERT INTO orders VALUES (100, 1), (101, 2), (102, 9), (103, NULL)")
            .unwrap();
        db
    }

    fn fk() -> ForeignKey {
        ForeignKey::new("orders", vec![1], "customers", vec![0])
    }

    #[test]
    fn orphans_become_singleton_edges() {
        let db = db();
        let mut g = ConflictHypergraph::new();
        let added = orphan_edges(&mut g, db.catalog(), &fk(), 0).unwrap();
        assert_eq!(
            added, 1,
            "only order 102 is orphaned; NULL fk does not violate"
        );
        assert_eq!(g.edge_count(), 1);
        let (_, e) = g.edges().next().unwrap();
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn restriction_rejects_constrained_parents() {
        let db = db();
        let fd_on_parent = DenialConstraint::functional_dependency("customers", &[0], 1);
        let err = validate_restricted(&[fk()], &[fd_on_parent], db.catalog()).unwrap_err();
        assert!(err.message.contains("parent relation"), "{err}");

        let fd_on_child = DenialConstraint::functional_dependency("orders", &[0], 1);
        validate_restricted(&[fk()], &[fd_on_child], db.catalog()).unwrap();
    }

    #[test]
    fn restriction_rejects_parent_child_chains() {
        let mut db = db();
        db.execute("CREATE TABLE regions (rid INT)").unwrap();
        let chain = vec![
            fk(),
            ForeignKey::new("customers", vec![0], "regions", vec![0]),
        ];
        let err = validate_restricted(&chain, &[], db.catalog()).unwrap_err();
        assert!(err.message.contains("both a parent and a child"), "{err}");
    }

    #[test]
    fn validate_checks_columns() {
        let db = db();
        assert!(ForeignKey::new("orders", vec![9], "customers", vec![0])
            .validate(db.catalog())
            .is_err());
        assert!(ForeignKey::new("orders", vec![1], "customers", vec![9])
            .validate(db.catalog())
            .is_err());
        assert!(ForeignKey::new("orders", vec![1, 0], "customers", vec![0])
            .validate(db.catalog())
            .is_err());
        assert!(ForeignKey::new("orders", vec![], "customers", vec![])
            .validate(db.catalog())
            .is_err());
    }
}
