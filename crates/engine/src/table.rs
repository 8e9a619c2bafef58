//! Row storage with stable tuple identifiers and secondary hash indexes.
//!
//! The conflict hypergraph identifies vertices by *physical tuple*, so the
//! store must hand out identifiers that stay valid across deletions of
//! other tuples. Rows live in an append-only slot sequence; deletion
//! leaves a tombstone. A [`TupleId`] is the slot index.
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
//! The storage is persistent. Slots live in fixed-size chunks of 1024,
//! and every hash index is split into 64 shards chosen by key hash;
//! each chunk and each shard sits behind its own `Arc`. `Clone` is what
//! backs the snapshot layer: [`crate::db::Database`] keeps its catalog
//! behind an `Arc` that [`crate::db::DbSnapshot`] shares, and cloning a
//! table bumps one reference count per chunk and shard — it copies no
//! row and no index entry. A mutation made while a snapshot still
//! shares the table copies only what it touches: the chunk that holds
//! its slot (an insert: the tail chunk) and, in each index whose key it
//! changes, the shard that holds the key (an update that re-keys: the
//! old key's shard and the new key's). Everything else stays shared, so
//! retiring a snapshot frees only the chunks and shards it alone owned.
//! [`Table::copy_stats`] counts what these copies cost.
//!
//! A frozen table is immutable, so any number of threads may probe its
//! indexes with zero locking — that is what makes the index probes of
//! the envelope's mark joins O(1) *and* lock-free across concurrent
//! readers.

use crate::column::ColumnStore;
use crate::schema::{EngineError, TableSchema};
use crate::value::{Row, Value};
use rustc_hash::{FxHashMap, FxHasher};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Stable identifier of a row within one table (slot index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u32);

/// Slots per chunk is `1 << CHUNK_BITS`; a power of two, so a
/// [`TupleId`] splits into chunk and offset by shift and mask.
const CHUNK_BITS: u32 = 10;
const CHUNK: usize = 1 << CHUNK_BITS;
/// Shards per hash index (a power of two, at most 256); see
/// [`Table::index_shard`].
pub const INDEX_SHARDS: usize = 64;

/// `CHUNK` consecutive slots. Every chunk but the last is full.
type Chunk = Vec<Option<Row>>;

/// Key values → slots holding live rows with that key, for the keys
/// that hash to one shard.
type Shard = FxHashMap<Key, Bucket>;

/// An index key: a single-column key's value inline, a wider key's
/// values boxed. It hashes and compares as the `[Value]` slice it
/// borrows as, so lookups by `&[Value]` need no allocation.
#[derive(Debug, Clone)]
enum Key {
    One(Value),
    Many(Box<[Value]>),
}

impl Key {
    /// The key of `row` over `cols`.
    fn of(row: &[Value], cols: &[usize]) -> Key {
        match cols {
            [c] => Key::One(row[*c].clone()),
            _ => Key::Many(cols.iter().map(|&c| row[c].clone()).collect()),
        }
    }

    fn values(&self) -> &[Value] {
        match self {
            Key::One(v) => std::slice::from_ref(v),
            Key::Many(vs) => vs,
        }
    }
}

impl Borrow<[Value]> for Key {
    fn borrow(&self) -> &[Value] {
        self.values()
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.values().hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.values() == other.values()
    }
}

impl Eq for Key {}

/// The ids of the live rows holding one key, ascending: a lone id
/// inline (every key of a clean primary key), more in a `Vec`.
#[derive(Debug, Clone)]
enum Bucket {
    One(TupleId),
    Many(Vec<TupleId>),
}

impl Bucket {
    fn ids(&self) -> &[TupleId] {
        match self {
            Bucket::One(id) => std::slice::from_ref(id),
            Bucket::Many(ids) => ids,
        }
    }

    /// Add `id`, keeping ascending (slot) order so index lookups see
    /// rows in scan order. Fresh inserts carry the largest id so far
    /// (append-only slots) and append; only the re-keying of an UPDATE
    /// ever inserts mid-bucket.
    fn insert(&mut self, id: TupleId) {
        match self {
            Bucket::One(x) => {
                let x = *x;
                *self = Bucket::Many(if x < id { vec![x, id] } else { vec![id, x] });
            }
            Bucket::Many(ids) => {
                let pos = ids.partition_point(|x| *x < id);
                ids.insert(pos, id);
            }
        }
    }

    /// Drop `id`; returns whether the bucket is now empty.
    fn remove(&mut self, id: TupleId) -> bool {
        match self {
            Bucket::One(x) => *x == id,
            Bucket::Many(ids) => {
                ids.retain(|x| *x != id);
                ids.is_empty()
            }
        }
    }
}

/// What copy-on-write has copied in one table's lineage: the chunks and
/// index shards that a mutation had to copy because a snapshot still
/// shared them, and what they held. Counted on every copy, so the cost
/// of a write is a deterministic count rather than a timing; a clone of
/// the table inherits the counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyStats {
    /// Row chunks copied.
    pub chunks: u64,
    /// Live rows cloned with those chunks.
    pub rows: u64,
    /// Index shards copied.
    pub shards: u64,
    /// Index keys (each with its id bucket) cloned with those shards.
    pub index_keys: u64,
}

impl CopyStats {
    /// The copies made since `earlier` was read off the same lineage
    /// (saturating, so a lineage rebuilt in between reads as zero
    /// rather than wrapping).
    pub fn since(self, earlier: CopyStats) -> CopyStats {
        CopyStats {
            chunks: self.chunks.saturating_sub(earlier.chunks),
            rows: self.rows.saturating_sub(earlier.rows),
            shards: self.shards.saturating_sub(earlier.shards),
            index_keys: self.index_keys.saturating_sub(earlier.index_keys),
        }
    }
}

impl std::ops::AddAssign for CopyStats {
    fn add_assign(&mut self, o: CopyStats) {
        self.chunks += o.chunks;
        self.rows += o.rows;
        self.shards += o.shards;
        self.index_keys += o.index_keys;
    }
}

/// `arc`'s value, made unique first: if anything else still shares
/// it, `copy` builds the replacement.
fn make_unique<T>(arc: &mut Arc<T>, copy: impl FnOnce(&T) -> T) -> &mut T {
    if Arc::get_mut(arc).is_none() {
        let fresh = copy(arc);
        *arc = Arc::new(fresh);
    }
    Arc::get_mut(arc).expect("sole owner after the copy")
}

/// Copy a shared chunk with room for `capacity` slots, counting it.
fn copy_chunk(chunk: &Chunk, capacity: usize, copies: &mut CopyStats) -> Chunk {
    let mut fresh = Vec::with_capacity(capacity);
    fresh.extend_from_slice(chunk);
    copies.chunks += 1;
    copies.rows += chunk.iter().filter(|s| s.is_some()).count() as u64;
    fresh
}

/// The slot at `id`, its chunk made unique first; `None` past the end.
fn slot_mut<'a>(
    chunks: &'a mut [Arc<Chunk>],
    id: TupleId,
    copies: &mut CopyStats,
) -> Option<&'a mut Option<Row>> {
    let i = id.0 as usize;
    let (c, off) = (i >> CHUNK_BITS, i & (CHUNK - 1));
    let chunk = chunks.get_mut(c).filter(|ch| off < ch.len())?;
    let chunk = make_unique(chunk, |ch| copy_chunk(ch, ch.len(), copies));
    Some(&mut chunk[off])
}

/// The shard a key belongs to. Hashes the values one by one, so a key
/// read off a row needs no allocation, and takes the hash's middle
/// bits: the shard's own map picks buckets by low bits and tags by top
/// bits, and keys that share a shard must still spread over both.
fn shard_of<'a>(key: impl IntoIterator<Item = &'a Value>) -> usize {
    let mut h = FxHasher::default();
    for v in key {
        v.hash(&mut h);
    }
    (h.finish() >> 32) as usize & (INDEX_SHARDS - 1)
}

/// A hash index over a fixed set of columns, in `INDEX_SHARDS` shards.
#[derive(Debug, Clone)]
struct HashIndex {
    shards: Vec<Arc<Shard>>,
}

impl HashIndex {
    /// An index whose shards have room for `sizes[s]` keys each.
    fn with_capacities(sizes: &[usize; INDEX_SHARDS]) -> HashIndex {
        HashIndex {
            shards: sizes
                .iter()
                .map(|&n| Arc::new(Shard::with_capacity_and_hasher(n, Default::default())))
                .collect(),
        }
    }

    fn bucket(&self, key: &[Value]) -> &[TupleId] {
        self.shards[shard_of(key)]
            .get(key)
            .map(Bucket::ids)
            .unwrap_or(&[])
    }

    /// Shard `s`, made unique first (counted in `copies`).
    fn shard_mut(&mut self, s: usize, copies: &mut CopyStats) -> &mut Shard {
        make_unique(&mut self.shards[s], |shard| {
            copies.shards += 1;
            copies.index_keys += shard.len() as u64;
            shard.clone()
        })
    }

    fn insert(&mut self, key: Key, id: TupleId, copies: &mut CopyStats) {
        self.shard_mut(shard_of(key.values()), copies)
            .entry(key)
            .and_modify(|ids| ids.insert(id))
            .or_insert(Bucket::One(id));
    }

    fn remove(&mut self, key: &[Value], id: TupleId, copies: &mut CopyStats) {
        let shard = self.shard_mut(shard_of(key), copies);
        if shard.get_mut(key).is_some_and(|ids| ids.remove(id)) {
            shard.remove(key);
        }
    }
}

/// An in-memory table: schema + slotted rows + optional hash indexes.
///
/// `Clone` is deliberately derived and cheap: it shares every chunk and
/// index shard (see the module docs), which is what lets
/// [`crate::db::Database`] clone its catalog copy-on-write while a
/// [`crate::db::DbSnapshot`] still shares it.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table schema.
    pub schema: TableSchema,
    chunks: Vec<Arc<Chunk>>,
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
    copies: CopyStats,
}

impl Table {
    /// Create an empty table. If the schema declares a primary key, a
    /// hash index over the key columns is built automatically — the
    /// access path the optimizer needs for key-equality probes exists
    /// without any `CREATE INDEX`.
    pub fn new(schema: TableSchema) -> Table {
        let mut t = Table {
            schema,
            chunks: Vec::new(),
            live: 0,
            indexes: FxHashMap::default(),
            index_names: FxHashMap::default(),
            columns: OnceLock::new(),
            copies: CopyStats::default(),
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
        self.chunks
            .last()
            .map_or(0, |tail| (self.chunks.len() - 1) * CHUNK + tail.len())
    }

    /// What copy-on-write has copied in this table's lineage.
    pub fn copy_stats(&self) -> CopyStats {
        self.copies
    }

    /// Insert a row (validated and coerced against the schema); returns its id.
    pub fn insert(&mut self, row: Row) -> Result<TupleId, EngineError> {
        let row = self.schema.check_row(row)?;
        let n = self.slot_count();
        if n > u32::MAX as usize {
            return Err(EngineError::new("table full"));
        }
        self.columns.take();
        let id = TupleId(n as u32);
        for (cols, index) in &mut self.indexes {
            index.insert(Key::of(&row, cols), id, &mut self.copies);
        }
        if n.is_multiple_of(CHUNK) {
            // The first chunk grows with the table; later ones are
            // allocated whole.
            let capacity = if n == 0 { 0 } else { CHUNK };
            self.chunks.push(Arc::new(Vec::with_capacity(capacity)));
        }
        let copies = &mut self.copies;
        let tail = self.chunks.last_mut().expect("pushed above if missing");
        make_unique(tail, |ch| copy_chunk(ch, CHUNK, copies)).push(Some(row));
        self.live += 1;
        Ok(id)
    }

    /// Fetch a live row by id.
    pub fn get(&self, id: TupleId) -> Option<&Row> {
        let i = id.0 as usize;
        self.chunks
            .get(i >> CHUNK_BITS)?
            .get(i & (CHUNK - 1))?
            .as_ref()
    }

    /// Delete by id; returns the removed row, or `None` if no live row
    /// had that id.
    pub fn delete(&mut self, id: TupleId) -> Option<Row> {
        self.get(id)?;
        let row = slot_mut(&mut self.chunks, id, &mut self.copies)?.take()?;
        self.columns.take();
        self.live -= 1;
        for (cols, index) in &mut self.indexes {
            index.remove(Key::of(&row, cols).values(), id, &mut self.copies);
        }
        Some(row)
    }

    /// Replace the row at `id`; returns the old row.
    pub fn update(&mut self, id: TupleId, new_row: Row) -> Result<Row, EngineError> {
        let new_row = self.schema.check_row(new_row)?;
        if self.get(id).is_none() {
            return Err(EngineError::new("update of missing tuple"));
        }
        self.columns.take();
        let slot = slot_mut(&mut self.chunks, id, &mut self.copies).expect("checked live");
        let old = slot.replace(new_row).expect("checked live");
        // Re-key indexes.
        let new_ref = slot.as_ref().expect("just replaced");
        for (cols, index) in &mut self.indexes {
            let (old_key, new_key) = (Key::of(&old, cols), Key::of(new_ref, cols));
            if old_key != new_key {
                index.remove(old_key.values(), id, &mut self.copies);
                index.insert(new_key, id, &mut self.copies);
            }
        }
        Ok(old)
    }

    /// Iterate live rows with their ids, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &Row)> {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            let base = c * CHUNK;
            chunk
                .iter()
                .enumerate()
                .filter_map(move |(i, s)| s.as_ref().map(|r| (TupleId((base + i) as u32), r)))
        })
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

    /// Build (or rebuild) a hash index on the given columns. Each shard
    /// is sized up front from a first pass over the live rows, so the
    /// build never rehashes.
    pub fn create_index(&mut self, cols: Vec<usize>) -> Result<(), EngineError> {
        for &c in &cols {
            if c >= self.schema.arity() {
                return Err(EngineError::new(format!(
                    "index column {c} out of range for table {:?}",
                    self.schema.name
                )));
            }
        }
        let mut sizes = [0usize; INDEX_SHARDS];
        let shard_ids: Vec<u8> = self
            .iter()
            .map(|(_, row)| {
                let s = shard_of(cols.iter().map(|&c| &row[c]));
                sizes[s] += 1;
                s as u8
            })
            .collect();
        let mut index = HashIndex::with_capacities(&sizes);
        for ((id, row), s) in self.iter().zip(shard_ids) {
            let shard = Arc::get_mut(&mut index.shards[s as usize]).expect("fresh shard");
            // Slot order: every bucket comes out ascending.
            shard
                .entry(Key::of(row, &cols))
                .and_modify(|ids| ids.insert(id))
                .or_insert(Bucket::One(id));
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
        self.indexes.get(cols).map(|ix| ix.bucket(key))
    }

    /// The `(key, ids)` buckets of shard `s` (below [`INDEX_SHARDS`]) of
    /// the index on `cols`, in no particular order, ids ascending;
    /// `None` if no index exists on `cols`. Each key lives in exactly
    /// one shard, so walking every shard visits each bucket once.
    pub fn index_shard(
        &self,
        cols: &[usize],
        s: usize,
    ) -> Option<impl Iterator<Item = (&[Value], &[TupleId])>> {
        let shard = &self.indexes.get(cols)?.shards[s];
        Some(shard.iter().map(|(key, ids)| (key.values(), ids.ids())))
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

    /// Every slot (live rows and tombstones) in slot order, for
    /// serialization; there are [`Table::slot_count`] of them.
    pub(crate) fn slot_entries(&self) -> impl Iterator<Item = &Option<Row>> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
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
    /// name registry. The slots are moved into chunks and the indexes
    /// rebuilt by scanning them; rows are trusted to have been validated
    /// when first inserted, but index column sets are still
    /// range-checked.
    pub(crate) fn from_parts(
        schema: TableSchema,
        slots: Vec<Option<Row>>,
        index_sets: Vec<Vec<usize>>,
        index_names: Vec<(String, Vec<usize>)>,
    ) -> Result<Table, EngineError> {
        let live = slots.iter().filter(|s| s.is_some()).count();
        let mut chunks = Vec::with_capacity(slots.len().div_ceil(CHUNK));
        let mut rest = slots.into_iter();
        loop {
            let chunk: Chunk = rest.by_ref().take(CHUNK).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(Arc::new(chunk));
        }
        let mut t = Table {
            schema,
            chunks,
            live,
            indexes: FxHashMap::default(),
            index_names: FxHashMap::default(),
            columns: OnceLock::new(),
            copies: CopyStats::default(),
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
        self.chunks.clear();
        self.columns.take();
        self.live = 0;
        for index in self.indexes.values_mut() {
            *index = HashIndex::with_capacities(&[0; INDEX_SHARDS]);
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
        assert_eq!(t.delete(id0), Some(vec![Value::Int(1), Value::text("x")]));
        assert!(t.delete(id0).is_none(), "double delete is a no-op");
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

    /// `k INT, v INT` keyed on `k`, with a second index on `v`; `n`
    /// rows `(i, i % 7)`.
    fn keyed(n: usize) -> Table {
        let mut t = Table::new(
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
        t.create_index(vec![1]).unwrap();
        for i in 0..n as i64 {
            t.insert(vec![Value::Int(i), Value::Int(i % 7)]).unwrap();
        }
        t
    }

    /// Chunks of `a` that `b` no longer shares.
    fn unshared_chunks(a: &Table, b: &Table) -> Vec<usize> {
        (0..a.chunks.len())
            .filter(|&c| {
                b.chunks
                    .get(c)
                    .is_none_or(|ch| !Arc::ptr_eq(ch, &a.chunks[c]))
            })
            .collect()
    }

    /// Shards of index `cols` that `b` no longer shares with `a`.
    fn unshared_shards(a: &Table, b: &Table, cols: &[usize]) -> usize {
        let (x, y) = (&a.indexes[cols], &b.indexes[cols]);
        x.shards
            .iter()
            .zip(&y.shards)
            .filter(|(p, q)| !Arc::ptr_eq(p, q))
            .count()
    }

    #[test]
    fn clone_shares_every_chunk_and_shard() {
        let t = keyed(3 * CHUNK + 5);
        assert_eq!(t.chunks.len(), 4);
        let snap = t.clone();
        assert!(unshared_chunks(&t, &snap).is_empty());
        assert_eq!(unshared_shards(&t, &snap, &[0]), 0);
        assert_eq!(t.copy_stats(), CopyStats::default());
    }

    #[test]
    fn insert_after_snapshot_copies_the_tail_chunk_only() {
        let mut t = keyed(3 * CHUNK + 5);
        let snap = t.clone();
        let id = t.insert(vec![Value::Int(-1), Value::Int(3)]).unwrap();
        assert_eq!(id, TupleId((3 * CHUNK + 5) as u32));
        assert_eq!(unshared_chunks(&snap, &t), vec![3]);
        assert_eq!(unshared_shards(&snap, &t, &[0]), 1);
        assert_eq!(unshared_shards(&snap, &t, &[1]), 1);
        let c = t.copy_stats();
        assert_eq!((c.chunks, c.rows, c.shards), (1, 5, 2));
        // The snapshot still reads its old rows, ids and buckets.
        assert_eq!(snap.slot_count(), 3 * CHUNK + 5);
        assert!(snap.get(id).is_none());
        assert!(snap
            .index_bucket(&[0], &[Value::Int(-1)])
            .unwrap()
            .is_empty());
        assert_eq!(t.index_bucket(&[0], &[Value::Int(-1)]).unwrap(), &[id]);
        assert_eq!(
            snap.index_bucket(&[1], &[Value::Int(3)]).unwrap().len() + 1,
            t.index_bucket(&[1], &[Value::Int(3)]).unwrap().len()
        );
        // A full tail: the insert opens a fresh chunk and copies none.
        let mut full = keyed(2 * CHUNK);
        let snap = full.clone();
        full.insert(vec![Value::Int(-1), Value::Int(0)]).unwrap();
        assert!(unshared_chunks(&snap, &full).is_empty());
        assert_eq!(full.chunks.len(), 3);
        assert_eq!(full.copy_stats().chunks, 0);
    }

    #[test]
    fn update_and_delete_at_chunk_edges_copy_one_chunk() {
        for (id, chunk) in [
            (CHUNK - 1, 0),
            (CHUNK, 1),
            (2 * CHUNK - 1, 1),
            (2 * CHUNK, 2),
        ] {
            let id = TupleId(id as u32);
            let mut t = keyed(3 * CHUNK + 5);
            let snap = t.clone();
            let old = t.get(id).unwrap().clone();
            // Re-key `k`, keep `v`: the `v` index is untouched.
            t.update(id, vec![Value::Int(-7), old[1].clone()]).unwrap();
            assert_eq!(unshared_chunks(&snap, &t), vec![chunk]);
            assert!((1..=2).contains(&unshared_shards(&snap, &t, &[0])));
            assert_eq!(unshared_shards(&snap, &t, &[1]), 0);
            assert_eq!(snap.get(id), Some(&old));
            assert_eq!(snap.index_bucket(&[0], &old[..1]).unwrap(), &[id]);
            assert!(t.index_bucket(&[0], &old[..1]).unwrap().is_empty());
            assert_eq!(t.index_bucket(&[0], &[Value::Int(-7)]).unwrap(), &[id]);

            let mut t = keyed(3 * CHUNK + 5);
            let snap = t.clone();
            assert_eq!(t.delete(id), Some(old.clone()));
            assert_eq!(unshared_chunks(&snap, &t), vec![chunk]);
            assert_eq!(unshared_shards(&snap, &t, &[0]), 1);
            assert_eq!(unshared_shards(&snap, &t, &[1]), 1);
            let c = t.copy_stats();
            assert_eq!((c.chunks, c.rows, c.shards), (1, CHUNK as u64, 2));
            assert_eq!(snap.get(id), Some(&old));
            assert_eq!(snap.len(), t.len() + 1);
            assert_eq!(
                snap.iter()
                    .map(|(i, _)| i)
                    .filter(|&i| i != id)
                    .collect::<Vec<_>>(),
                t.iter().map(|(i, _)| i).collect::<Vec<_>>()
            );
            // A tombstone costs no copy.
            let before = t.copy_stats();
            assert!(t.delete(id).is_none());
            assert_eq!(t.copy_stats(), before);
        }
    }

    #[test]
    fn unshared_writes_copy_nothing() {
        let mut t = keyed(CHUNK + 3);
        t.insert(vec![Value::Int(-1), Value::Int(0)]).unwrap();
        t.update(TupleId(0), vec![Value::Int(-2), Value::Int(5)])
            .unwrap();
        t.delete(TupleId(CHUNK as u32));
        assert_eq!(t.copy_stats(), CopyStats::default());
    }

    #[test]
    fn from_parts_rebuilds_chunks_and_indexes() {
        let mut t = keyed(2 * CHUNK + 9);
        for id in [0, CHUNK - 1, CHUNK, 2 * CHUNK + 8] {
            t.delete(TupleId(id as u32)).unwrap();
        }
        t.update(TupleId(5), vec![Value::Int(3), Value::Int(1)])
            .unwrap();
        let slots: Vec<Option<Row>> = t.slot_entries().cloned().collect();
        assert_eq!(slots.len(), t.slot_count());
        let back =
            Table::from_parts(t.schema.clone(), slots, vec![vec![0], vec![1]], vec![]).unwrap();
        assert_eq!(back.slot_count(), t.slot_count());
        assert_eq!(back.len(), t.len());
        assert!(back.iter().eq(t.iter()));
        for k in [0, 3, 5, CHUNK as i64, 2 * CHUNK as i64 + 7] {
            let key = [Value::Int(k)];
            assert_eq!(back.index_bucket(&[0], &key), t.index_bucket(&[0], &key));
        }
        for v in 0..7 {
            let key = [Value::Int(v)];
            assert_eq!(back.index_bucket(&[1], &key), t.index_bucket(&[1], &key));
        }
        // Inserting continues at the next slot, in the partial tail chunk.
        let mut back = back;
        assert_eq!(
            back.insert(vec![Value::Int(-1), Value::Int(0)]).unwrap(),
            TupleId((2 * CHUNK + 9) as u32)
        );
    }
}
