//! The catalog: a name → table map.

use crate::schema::{EngineError, TableSchema};
use crate::table::{CopyStats, Table};
use std::collections::BTreeMap;

/// Holds all tables of one database instance.
///
/// Deliberately simple: single-threaded mutation, deterministic iteration
/// order (sorted by name) so conflict detection and benchmarks are
/// reproducible. A catalog holds no interior mutability, so a shared
/// `&Catalog` is freely readable from many threads — this is what makes
/// [`crate::db::DbSnapshot`] `Sync`. `Clone` backs the snapshot layer's
/// copy-on-write: mutating a database whose catalog is still shared with
/// a live snapshot clones the catalog, which copies no row — each table
/// clone shares its row chunks and index shards, and a write then
/// copies only the chunk and shards it touches (see [`crate::table`]).
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Create a table; errors if the name is taken.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), EngineError> {
        if self.tables.contains_key(&schema.name) {
            return Err(EngineError::new(format!(
                "table {:?} already exists",
                schema.name
            )));
        }
        self.tables.insert(schema.name.clone(), Table::new(schema));
        Ok(())
    }

    /// Install a fully-built table (deserialization path); errors if the
    /// name is taken. Unlike [`Catalog::create_table`] this preserves the
    /// table's slot structure and indexes instead of starting empty.
    pub(crate) fn adopt_table(&mut self, table: Table) -> Result<(), EngineError> {
        let name = table.schema.name.clone();
        if self.tables.contains_key(&name) {
            return Err(EngineError::new(format!("table {name:?} already exists")));
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Drop a table; errors if missing (unless `if_exists`).
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<(), EngineError> {
        if self.tables.remove(name).is_none() && !if_exists {
            return Err(EngineError::new(format!("table {name:?} does not exist")));
        }
        Ok(())
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&Table, EngineError> {
        self.tables
            .get(name)
            .ok_or_else(|| EngineError::new(format!("table {name:?} does not exist")))
    }

    /// Look up a table mutably.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, EngineError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| EngineError::new(format!("table {name:?} does not exist")))
    }

    /// Does the table exist?
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Iterate tables sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Table)> {
        self.tables.iter()
    }

    /// What copy-on-write has copied, summed over every table (see
    /// [`Table::copy_stats`]).
    pub fn copy_stats(&self) -> CopyStats {
        let mut total = CopyStats::default();
        for t in self.tables.values() {
            total += t.copy_stats();
        }
        total
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn schema(name: &str) -> TableSchema {
        TableSchema::new(name, vec![Column::new("a", DataType::Int)], &[]).unwrap()
    }

    #[test]
    fn create_lookup_drop() {
        let mut c = Catalog::new();
        c.create_table(schema("t")).unwrap();
        assert!(c.contains("t"));
        assert!(c.table("t").is_ok());
        assert!(c.create_table(schema("t")).is_err(), "duplicate create");
        c.drop_table("t", false).unwrap();
        assert!(c.table("t").is_err());
        assert!(c.drop_table("t", false).is_err());
        assert!(
            c.drop_table("t", true).is_ok(),
            "IF EXISTS swallows missing"
        );
    }

    #[test]
    fn iteration_is_sorted() {
        let mut c = Catalog::new();
        for n in ["zeta", "alpha", "mid"] {
            c.create_table(schema(n)).unwrap();
        }
        assert_eq!(c.table_names(), vec!["alpha", "mid", "zeta"]);
    }
}
