//! One allocation-free key table for every hash build of the executor.
//!
//! Hash joins (row mode and vectorized), the mark join's hash build,
//! duplicate elimination (row mode and vectorized) and the set forms of
//! `EXCEPT`/`INTERSECT` all ask the same question: which build rows
//! carry this key? A [`KeyTable`] answers it over row *positions*,
//! never owning a key:
//!
//! * `heads` — a power-of-two array of chain heads, indexed by the
//!   high bits of the key's hash (`FxHasher` finishes with a multiply,
//!   so its high bits are the well-mixed ones);
//! * `next` — one chain link per build row;
//! * `hashes` — one cached 64-bit hash per build row, so a probe
//!   compares keys only on a full hash match.
//!
//! Three allocations per table, whatever the row count, instead of one
//! key vector and one bucket vector per build row. The caller owns the
//! keys and supplies the equality test, wherever the keys live: in
//! rows, or in column buffers ([`crate::column::ColumnVector::hash_at`]
//! feeds a hasher exactly what `Value`'s `Hash` does). Duplicate
//! elimination, set operations and mark joins compare by `Value`
//! identity (`NULL` equals `NULL`, `NaN` equals `NaN`, `-0.0` differs
//! from `0.0`); a hash join compares by SQL `=` (`-0.0` equals `0.0`,
//! `NaN` equals nothing). Both are sound over one hash, because `Value`
//! hashes `-0.0` as `0.0`.
//!
//! [`KeyTable::build`] chains rows in reverse, so every chain lists its
//! rows in build order: a join emits a left row's matches in the order
//! the right side produced them. A build row whose key has a `NULL`
//! component is never chained (SQL equality matches nothing).

use std::hash::{Hash, Hasher};

use rustc_hash::FxHasher;

use crate::value::Value;

/// End of a chain.
const END: u32 = u32::MAX;
/// A build row left out of the table (its key has a `NULL`).
const UNCHAINED: u32 = u32::MAX - 1;

/// Chained hash table over build-row positions `0..rows`.
pub(crate) struct KeyTable {
    heads: Vec<u32>,
    next: Vec<u32>,
    hashes: Vec<u64>,
    shift: u32,
}

impl KeyTable {
    /// An empty table for up to `rows` build rows (at most one chain
    /// head per row, at least half as many).
    pub(crate) fn with_rows(rows: usize) -> KeyTable {
        assert!(rows < UNCHAINED as usize, "key table over {rows} rows");
        let buckets = rows.next_power_of_two().max(2);
        KeyTable {
            heads: vec![END; buckets],
            next: vec![UNCHAINED; rows],
            hashes: vec![0; rows],
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    /// A table over build rows `0..rows`: `hash_of(i)` is row `i`'s key
    /// hash, or `None` when its key has a `NULL` (it is never chained).
    /// Hashes are taken in row order; rows are chained in reverse, so
    /// [`KeyTable::candidates`] yields them in build order.
    pub(crate) fn build(rows: usize, mut hash_of: impl FnMut(usize) -> Option<u64>) -> KeyTable {
        let mut table = KeyTable::with_rows(rows);
        for i in 0..rows {
            if let Some(h) = hash_of(i) {
                table.hashes[i] = h;
                table.next[i] = END;
            }
        }
        for i in (0..rows).rev() {
            if table.next[i] != UNCHAINED {
                table.link(i as u32, table.hashes[i]);
            }
        }
        table
    }

    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        (hash >> self.shift) as usize
    }

    #[inline]
    fn link(&mut self, row: u32, hash: u64) {
        let b = self.bucket(hash);
        self.hashes[row as usize] = hash;
        self.next[row as usize] = self.heads[b];
        self.heads[b] = row;
    }

    /// Chain build row `row` (key hash `hash`) unless a chained row with
    /// the same hash satisfies `same`; `true` when it was chained — the
    /// first occurrence of its key.
    pub(crate) fn insert_distinct(
        &mut self,
        row: u32,
        hash: u64,
        same: impl FnMut(u32) -> bool,
    ) -> bool {
        if self.candidates(hash).any(same) {
            return false;
        }
        self.link(row, hash);
        true
    }

    /// Chained build rows whose key hash is `hash`, in chain order. The
    /// caller compares the keys themselves.
    #[inline]
    pub(crate) fn candidates(&self, hash: u64) -> Candidates<'_> {
        Candidates {
            table: self,
            cur: self.heads[self.bucket(hash)],
            hash,
        }
    }
}

/// Iterator over one chain's rows with a matching hash.
pub(crate) struct Candidates<'t> {
    table: &'t KeyTable,
    cur: u32,
    hash: u64,
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.cur != END {
            let row = self.cur;
            self.cur = self.table.next[row as usize];
            if self.table.hashes[row as usize] == self.hash {
                return Some(row);
            }
        }
        None
    }
}

/// The key hash of a sequence of values: each value's own `Hash`, in
/// order, through one `FxHasher`.
pub(crate) fn hash_values<'v>(values: impl IntoIterator<Item = &'v Value>) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_yield_build_order_and_skip_unchained_rows() {
        let keys = [1i64, 2, 1, 3, 1];
        let hash = |k: i64| hash_values([&Value::Int(k)]);
        let table = KeyTable::build(keys.len(), |i| (i != 4).then(|| hash(keys[i])));
        let ones: Vec<u32> = table
            .candidates(hash(1))
            .filter(|&j| keys[j as usize] == 1)
            .collect();
        assert_eq!(ones, vec![0, 2], "row 4 was left out");
        assert_eq!(table.candidates(hash(9)).count(), 0);
    }

    #[test]
    fn insert_distinct_keeps_first_occurrences() {
        let vals = [
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Float(f64::NAN),
            Value::Float(f64::NAN),
            Value::Null,
            Value::Null,
        ];
        let mut table = KeyTable::with_rows(vals.len());
        let first: Vec<bool> = (0..vals.len())
            .map(|i| {
                let h = hash_values([&vals[i]]);
                table.insert_distinct(i as u32, h, |j| vals[j as usize] == vals[i])
            })
            .collect();
        assert_eq!(first, [true, true, false, true, false, true, false]);
    }

    #[test]
    fn empty_and_single_row_tables() {
        let empty = KeyTable::build(0, |_| None);
        assert_eq!(empty.candidates(0).count(), 0);
        let one = KeyTable::build(1, |_| Some(u64::MAX));
        assert_eq!(one.candidates(u64::MAX).collect::<Vec<_>>(), vec![0]);
    }
}
