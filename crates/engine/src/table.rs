//! Row storage with stable tuple identifiers and secondary hash indexes.
//!
//! The conflict hypergraph identifies vertices by *physical tuple*, so the
//! store must hand out identifiers that stay valid across deletions of
//! other tuples. Rows live in an append-only slot vector; deletion leaves a
//! tombstone. A [`TupleId`] is the slot index.
//!
//! # Indexes
//!
//! A table carries any number of **hash indexes**, each over a fixed
//! column set: one is built automatically on the primary-key columns at
//! table creation, more come from `CREATE INDEX` (see
//! [`Table::create_named_index`]) or [`Table::create_index`]. Every
//! index is maintained **incrementally** on [`Table::insert`] /
//! [`Table::delete`] / [`Table::update`] — never rebuilt — and its
//! buckets keep tuple ids in ascending (slot) order, so an
//! [`crate::plan::Plan::IndexLookup`] yields rows in exactly
//! the order a sequential scan would.
//!
//! # Snapshot sharing
//!
//! `Clone` is what backs the snapshot layer's copy-on-write:
//! [`crate::db::Database`] keeps its catalog (and therefore every
//! table, *including its indexes*) behind an `Arc` that
//! [`crate::db::DbSnapshot`] shares. Taking a snapshot copies nothing;
//! the first mutation after one clones the storage once via
//! `Arc::make_mut`. A frozen table is immutable, so any number of
//! threads may probe its indexes with zero locking — that is what makes
//! the prepared membership probes of the base-mode answer pipeline
//! O(1) *and* lock-free.

use crate::column::ColumnStore;
use crate::schema::{EngineError, TableSchema};
use crate::value::{Row, Value};
use rustc_hash::FxHashMap;
use std::sync::{Arc, OnceLock};

/// Stable identifier of a row within one table (slot index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u32);

/// A hash index over a fixed set of columns.
#[derive(Debug, Clone, Default)]
struct HashIndex {
    /// Key values → slots holding live rows with that key.
    map: FxHashMap<Vec<Value>, Vec<TupleId>>,
}

impl HashIndex {
    fn insert(&mut self, key: Vec<Value>, id: TupleId) {
        let ids = self.map.entry(key).or_default();
        // Buckets stay in ascending (slot) order so index lookups see
        // rows in scan order. Fresh inserts carry the largest id so far
        // (append-only slots) and append in O(1); only the re-keying of
        // an UPDATE ever inserts mid-bucket.
        let pos = ids.partition_point(|x| *x < id);
        ids.insert(pos, id);
    }

    fn remove(&mut self, key: &[Value], id: TupleId) {
        if let Some(ids) = self.map.get_mut(key) {
            ids.retain(|x| *x != id);
            if ids.is_empty() {
                self.map.remove(key);
            }
        }
    }
}

/// An in-memory table: schema + slotted rows + optional hash indexes.
///
/// `Clone` is deliberately derived: [`crate::db::Database`] keeps its
/// catalog behind an `Arc` and clones a table lazily (copy-on-write)
/// only when it is mutated while a [`crate::db::DbSnapshot`] still
/// shares the storage.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table schema.
    pub schema: TableSchema,
    slots: Vec<Option<Row>>,
    live: usize,
    /// column sets → index
    indexes: FxHashMap<Vec<usize>, HashIndex>,
    /// `CREATE INDEX` names → the column set they cover (the primary-key
    /// auto-index is anonymous).
    index_names: FxHashMap<String, Vec<usize>>,
    /// Lazily built column-major projection (see [`crate::column`]).
    /// `None` inside the cell = the build failed (ill-typed row; the
    /// engine then stays on row mode for this table). Any DML clears
    /// the cell; snapshots share a built store through the `Arc` when
    /// the catalog is cloned copy-on-write, exactly like indexes.
    columns: OnceLock<Option<Arc<ColumnStore>>>,
}

impl Table {
    /// Create an empty table. If the schema declares a primary key, a
    /// hash index over the key columns is built automatically — the
    /// access path the optimizer needs for key-equality probes exists
    /// without any `CREATE INDEX`.
    pub fn new(schema: TableSchema) -> Table {
        let mut t = Table {
            schema,
            slots: Vec::new(),
            live: 0,
            indexes: FxHashMap::default(),
            index_names: FxHashMap::default(),
            columns: OnceLock::new(),
        };
        if !t.schema.primary_key.is_empty() {
            let cols = t.schema.primary_key.clone();
            t.create_index(cols)
                .expect("primary-key columns are in range by construction");
        }
        t
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots (live + tombstoned); tuple ids range over `0..slot_count`.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Insert a row (validated and coerced against the schema); returns its id.
    pub fn insert(&mut self, row: Row) -> Result<TupleId, EngineError> {
        let row = self.schema.check_row(row)?;
        if self.slots.len() > u32::MAX as usize {
            return Err(EngineError::new("table full"));
        }
        self.columns.take();
        let id = TupleId(self.slots.len() as u32);
        for (cols, index) in &mut self.indexes {
            let key: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
            index.insert(key, id);
        }
        self.slots.push(Some(row));
        self.live += 1;
        Ok(id)
    }

    /// Fetch a live row by id.
    pub fn get(&self, id: TupleId) -> Option<&Row> {
        self.slots.get(id.0 as usize).and_then(|s| s.as_ref())
    }

    /// Delete by id; returns `true` if the row existed.
    pub fn delete(&mut self, id: TupleId) -> bool {
        let Some(slot) = self.slots.get_mut(id.0 as usize) else {
            return false;
        };
        let Some(row) = slot.take() else { return false };
        self.columns.take();
        self.live -= 1;
        for (cols, index) in &mut self.indexes {
            let key: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
            index.remove(&key, id);
        }
        true
    }

    /// Replace the row at `id`; returns the old row.
    pub fn update(&mut self, id: TupleId, new_row: Row) -> Result<Row, EngineError> {
        let new_row = self.schema.check_row(new_row)?;
        let slot = self
            .slots
            .get_mut(id.0 as usize)
            .and_then(|s| s.as_mut())
            .ok_or_else(|| EngineError::new("update of missing tuple"))?;
        self.columns.take();
        let old = std::mem::replace(slot, new_row);
        // Re-key indexes.
        let new_ref = self.slots[id.0 as usize].as_ref().expect("just replaced");
        for (cols, index) in &mut self.indexes {
            let old_key: Vec<Value> = cols.iter().map(|&c| old[c].clone()).collect();
            let new_key: Vec<Value> = cols.iter().map(|&c| new_ref[c].clone()).collect();
            if old_key != new_key {
                index.remove(&old_key, id);
                index.insert(new_key, id);
            }
        }
        Ok(old)
    }

    /// Iterate live rows with their ids, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (TupleId(i as u32), r)))
    }

    /// Clone all live rows (in slot order).
    pub fn rows(&self) -> Vec<Row> {
        self.iter().map(|(_, r)| r.clone()).collect()
    }

    /// The column-major projection of the live rows, building it on
    /// first use (invalidated by any DML). `None` if the build failed —
    /// callers then stay on the row-mode path.
    pub fn column_store(&self) -> Option<&ColumnStore> {
        self.columns
            .get_or_init(|| ColumnStore::build(self).map(Arc::new))
            .as_deref()
    }

    /// Build (or rebuild) a hash index on the given columns.
    pub fn create_index(&mut self, cols: Vec<usize>) -> Result<(), EngineError> {
        for &c in &cols {
            if c >= self.schema.arity() {
                return Err(EngineError::new(format!(
                    "index column {c} out of range for table {:?}",
                    self.schema.name
                )));
            }
        }
        let mut index = HashIndex::default();
        for (id, row) in self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (TupleId(i as u32), r)))
        {
            let key: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
            index.insert(key, id);
        }
        self.indexes.insert(cols, index);
        Ok(())
    }

    /// Build a hash index and register it under a `CREATE INDEX` name.
    /// Errors if the name is already taken by a different column set;
    /// re-creating the same index under the same name is a no-op.
    pub fn create_named_index(
        &mut self,
        name: String,
        cols: Vec<usize>,
    ) -> Result<(), EngineError> {
        if let Some(existing) = self.index_names.get(&name) {
            if *existing == cols {
                return Ok(());
            }
            return Err(EngineError::new(format!(
                "index {name:?} already exists on table {:?} with different columns",
                self.schema.name
            )));
        }
        // A structurally identical index may already exist (the
        // primary-key auto-index, or another name over the same column
        // set); registering the name is enough — rebuilding would scan
        // every slot to recreate a bit-identical map.
        if !self.indexes.contains_key(&cols) {
            self.create_index(cols.clone())?;
        }
        self.index_names.insert(name, cols);
        Ok(())
    }

    /// The column set a named index covers, if the name exists.
    pub fn named_index(&self, name: &str) -> Option<&Vec<usize>> {
        self.index_names.get(name)
    }

    /// Look up live rows by indexed key; `None` if no such index exists.
    pub fn index_lookup(&self, cols: &[usize], key: &[Value]) -> Option<Vec<TupleId>> {
        self.index_bucket(cols, key).map(<[TupleId]>::to_vec)
    }

    /// Borrow the bucket of live tuple ids for `key` (ascending slot
    /// order, allocation-free); `None` if no index exists on `cols`,
    /// `Some(&[])` if the index exists but holds no such key.
    pub fn index_bucket(&self, cols: &[usize], key: &[Value]) -> Option<&[TupleId]> {
        self.indexes
            .get(cols)
            .map(|ix| ix.map.get(key).map(Vec::as_slice).unwrap_or(&[]))
    }

    /// Does an index exist on exactly these columns?
    pub fn has_index(&self, cols: &[usize]) -> bool {
        self.indexes.contains_key(cols)
    }

    /// The column sets of every index on this table (arbitrary order;
    /// the optimizer sorts candidates before choosing).
    pub fn index_column_sets(&self) -> impl Iterator<Item = &Vec<usize>> {
        self.indexes.keys()
    }

    /// Find ids of live rows equal to `row` (full-row comparison).
    pub fn find_exact(&self, row: &[Value]) -> Vec<TupleId> {
        self.iter()
            .filter(|(_, r)| r.as_slice() == row)
            .map(|(id, _)| id)
            .collect()
    }

    /// The raw slot vector (live rows and tombstones), for serialization.
    pub(crate) fn slot_entries(&self) -> &[Option<Row>] {
        &self.slots
    }

    /// Every `CREATE INDEX` name with the column set it covers
    /// (arbitrary order), for serialization.
    pub(crate) fn named_index_entries(&self) -> impl Iterator<Item = (&String, &Vec<usize>)> {
        self.index_names.iter()
    }

    /// Rebuild a table from serialized parts: the schema, the exact slot
    /// vector (tombstones included — slot indices are [`TupleId`]s, so
    /// preserving them is what keeps recovered ids identical to
    /// pre-crash ids), the column sets to index, and the `CREATE INDEX`
    /// name registry. Indexes are rebuilt by scanning the slots; rows
    /// are trusted to have been validated when first inserted, but
    /// index column sets are still range-checked.
    pub(crate) fn from_parts(
        schema: TableSchema,
        slots: Vec<Option<Row>>,
        index_sets: Vec<Vec<usize>>,
        index_names: Vec<(String, Vec<usize>)>,
    ) -> Result<Table, EngineError> {
        let live = slots.iter().filter(|s| s.is_some()).count();
        let mut t = Table {
            schema,
            slots,
            live,
            indexes: FxHashMap::default(),
            index_names: FxHashMap::default(),
            columns: OnceLock::new(),
        };
        for cols in index_sets {
            t.create_index(cols)?;
        }
        for (name, cols) in index_names {
            t.create_named_index(name, cols)?;
        }
        if !t.schema.primary_key.is_empty() && !t.has_index(&t.schema.primary_key) {
            return Err(EngineError::new(format!(
                "table {:?} reconstructed without its primary-key index",
                t.schema.name
            )));
        }
        Ok(t)
    }

    /// Remove all rows.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.columns.take();
        self.live = 0;
        for index in self.indexes.values_mut() {
            index.map.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn table() -> Table {
        Table::new(
            TableSchema::new(
                "t",
                vec![
                    Column::new("a", DataType::Int),
                    Column::new("b", DataType::Text),
                ],
                &[],
            )
            .unwrap(),
        )
    }

    #[test]
    fn insert_get_delete() {
        let mut t = table();
        let id0 = t.insert(vec![Value::Int(1), Value::text("x")]).unwrap();
        let id1 = t.insert(vec![Value::Int(2), Value::text("y")]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(id0).unwrap()[0], Value::Int(1));
        assert!(t.delete(id0));
        assert!(!t.delete(id0), "double delete is a no-op");
        assert_eq!(t.len(), 1);
        assert!(t.get(id0).is_none());
        // id1 stays valid after deleting id0 (stability requirement).
        assert_eq!(t.get(id1).unwrap()[0], Value::Int(2));
    }

    #[test]
    fn ids_are_never_reused() {
        let mut t = table();
        let id0 = t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        t.delete(id0);
        let id1 = t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        assert_ne!(id0, id1);
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut t = table();
        let a = t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        t.insert(vec![Value::Int(2), Value::Null]).unwrap();
        t.delete(a);
        let got: Vec<i64> = t
            .iter()
            .map(|(_, r)| match r[0] {
                Value::Int(v) => v,
                _ => panic!(),
            })
            .collect();
        assert_eq!(got, vec![2]);
    }

    #[test]
    fn index_tracks_mutations() {
        let mut t = table();
        t.create_index(vec![0]).unwrap();
        let id0 = t.insert(vec![Value::Int(1), Value::text("x")]).unwrap();
        let id1 = t.insert(vec![Value::Int(1), Value::text("y")]).unwrap();
        t.insert(vec![Value::Int(2), Value::text("z")]).unwrap();
        assert_eq!(
            t.index_lookup(&[0], &[Value::Int(1)]).unwrap(),
            vec![id0, id1]
        );
        t.delete(id0);
        assert_eq!(t.index_lookup(&[0], &[Value::Int(1)]).unwrap(), vec![id1]);
        t.update(id1, vec![Value::Int(5), Value::text("y")])
            .unwrap();
        assert!(t.index_lookup(&[0], &[Value::Int(1)]).unwrap().is_empty());
        assert_eq!(t.index_lookup(&[0], &[Value::Int(5)]).unwrap(), vec![id1]);
    }

    #[test]
    fn index_built_over_existing_rows() {
        let mut t = table();
        let id = t.insert(vec![Value::Int(7), Value::Null]).unwrap();
        t.create_index(vec![0]).unwrap();
        assert_eq!(t.index_lookup(&[0], &[Value::Int(7)]).unwrap(), vec![id]);
        assert!(
            t.index_lookup(&[1], &[Value::Null]).is_none(),
            "no such index"
        );
    }

    #[test]
    fn buckets_stay_in_slot_order_through_updates() {
        let mut t = table();
        t.create_index(vec![0]).unwrap();
        let a = t.insert(vec![Value::Int(1), Value::text("a")]).unwrap();
        let b = t.insert(vec![Value::Int(1), Value::text("b")]).unwrap();
        // Re-keying `a` out and back would append it after `b` in a
        // naive bucket; the ordered insert restores slot order.
        t.update(a, vec![Value::Int(2), Value::text("a")]).unwrap();
        t.update(a, vec![Value::Int(1), Value::text("a")]).unwrap();
        assert_eq!(t.index_lookup(&[0], &[Value::Int(1)]).unwrap(), vec![a, b]);
        assert_eq!(t.index_bucket(&[0], &[Value::Int(1)]).unwrap(), &[a, b]);
        assert_eq!(
            t.index_bucket(&[0], &[Value::Int(9)]).unwrap(),
            &[] as &[TupleId]
        );
        assert!(t.index_bucket(&[1], &[Value::Null]).is_none(), "no index");
    }

    #[test]
    fn primary_key_index_is_automatic() {
        let t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    Column::new("k", DataType::Int),
                    Column::new("v", DataType::Int),
                ],
                &["k"],
            )
            .unwrap(),
        );
        assert!(t.has_index(&[0]));
        assert_eq!(t.index_column_sets().collect::<Vec<_>>(), vec![&vec![0]]);
        // Naming the auto-indexed column set registers the name without
        // building a second (identical) index.
        let mut t = t;
        t.create_named_index("k_ix".into(), vec![0]).unwrap();
        assert_eq!(t.index_column_sets().count(), 1);
        assert_eq!(t.named_index("k_ix"), Some(&vec![0]));
    }

    #[test]
    fn named_indexes_register_and_collide() {
        let mut t = table();
        t.create_named_index("i".into(), vec![0]).unwrap();
        assert_eq!(t.named_index("i"), Some(&vec![0]));
        t.create_named_index("i".into(), vec![0]).unwrap(); // same set: no-op
        assert!(t.create_named_index("i".into(), vec![1]).is_err());
        assert!(t.create_named_index("oob".into(), vec![9]).is_err());
    }

    #[test]
    fn find_exact_matches_full_rows() {
        let mut t = table();
        let id = t.insert(vec![Value::Int(1), Value::text("x")]).unwrap();
        t.insert(vec![Value::Int(1), Value::text("y")]).unwrap();
        assert_eq!(t.find_exact(&[Value::Int(1), Value::text("x")]), vec![id]);
        assert!(t.find_exact(&[Value::Int(9), Value::Null]).is_empty());
    }

    #[test]
    fn insert_validates_via_schema() {
        let mut t = table();
        assert!(t.insert(vec![Value::text("wrong"), Value::Null]).is_err());
        assert!(t.insert(vec![Value::Int(1)]).is_err());
    }
}
