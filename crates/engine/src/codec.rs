//! Binary codec for values, rows, schemas and whole catalogs, plus the
//! CRC32 the durability layer checksums every frame with.
//!
//! The write-ahead log and checkpoint files of `crates/server` are built
//! from these primitives. The encoding is deliberately boring:
//! little-endian fixed-width integers, `u32` length prefixes for strings
//! and sequences, and one tag byte per [`Value`] variant. Two properties
//! matter more than compactness:
//!
//! * **Determinism** — encoding the same catalog twice yields identical
//!   bytes (index sets and names are sorted before writing), so a
//!   checkpoint's CRC is reproducible and recovery tests can compare
//!   files bit-for-bit.
//! * **Slot fidelity** — a table is serialized *slot by slot*, tombstones
//!   included. [`crate::table::TupleId`]s are slot indices; preserving
//!   the slot structure means a recovered table hands out exactly the
//!   ids the pre-crash table would have, which is what lets log replay
//!   assert the ids it recorded.
//!
//! Decoding never panics on corrupt input: every read is bounds-checked
//! and returns a structured [`EngineError`] ("codec: …"). The caller
//! (WAL scan, checkpoint load) decides whether corruption is fatal or a
//! torn tail to truncate.

use crate::schema::{Column, DataType, EngineError, TableSchema};
use crate::table::Table;
use crate::value::{Row, Value};
use crate::Catalog;

/// CRC32 (IEEE 802.3, reflected, init `!0`), the checksum every WAL
/// frame and checkpoint body carries. Table-driven, built at compile
/// time — no dependency on an external crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

fn corrupt(what: &str) -> EngineError {
    EngineError::new(format!("codec: corrupt or truncated input ({what})"))
}

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

/// Append a `u32` (little-endian).
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` (little-endian).
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Checked frames
// ---------------------------------------------------------------------------

/// Bytes of envelope before a checked frame's payload (len + crc).
pub(crate) const CHECKED_FRAME_OVERHEAD: usize = 8;

/// Wrap `payload` in the shared checked-frame envelope the WAL and the
/// replication transport both speak: `len u32 · crc32(payload) u32 ·
/// payload`.
pub fn encode_checked(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(CHECKED_FRAME_OVERHEAD + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// Append the checked-frame envelope + payload to `out` (the allocation-
/// free sibling of [`encode_checked`], for batched writers).
pub fn put_checked(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

/// Try to split one checked frame off the front of `bytes`.
///
/// * `Ok(Some((payload, consumed)))` — a complete frame whose CRC
///   verifies; `consumed` covers envelope + payload.
/// * `Ok(None)` — `bytes` is a (possibly empty) prefix of a frame: more
///   input is needed. A torn file tail and a half-received network
///   buffer look identical here, by design.
/// * `Err(_)` — the envelope is present but lies: the length exceeds
///   `max_len` (a hostile or garbage prefix that must not drive an
///   allocation) or the CRC does not match the payload.
pub fn split_checked(bytes: &[u8], max_len: u32) -> Result<Option<(&[u8], usize)>, EngineError> {
    if bytes.len() < CHECKED_FRAME_OVERHEAD {
        return Ok(None);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap());
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if len > max_len {
        return Err(corrupt(&format!(
            "checked frame claims {len} bytes (max {max_len})"
        )));
    }
    let total = CHECKED_FRAME_OVERHEAD + len as usize;
    if bytes.len() < total {
        return Ok(None);
    }
    let payload = &bytes[CHECKED_FRAME_OVERHEAD..total];
    if crc32(payload) != crc {
        return Err(corrupt("checked frame crc mismatch"));
    }
    Ok(Some((payload, total)))
}

// ---------------------------------------------------------------------------
// Bounds-checked reader
// ---------------------------------------------------------------------------

/// A cursor over an encoded byte slice. Every read is bounds-checked;
/// running off the end yields a "codec:" [`EngineError`], never a panic.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], EngineError> {
        if self.remaining() < n {
            return Err(corrupt("unexpected end of input"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, EngineError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, EngineError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, EngineError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub(crate) fn i64(&mut self) -> Result<i64, EngineError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its IEEE bit pattern (NaN payloads survive).
    pub(crate) fn f64(&mut self) -> Result<f64, EngineError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, EngineError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid UTF-8 in string"))
    }

    /// Read a `u32` count and fail fast if the buffer cannot possibly
    /// hold that many elements of at least `min_elem_size` bytes — the
    /// guard that keeps a corrupt length prefix from allocating gigabytes.
    pub fn count(&mut self, min_elem_size: usize) -> Result<usize, EngineError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_size.max(1)) > self.remaining() {
            return Err(corrupt("length prefix exceeds input"));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Value / Row
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_TEXT: u8 = 4;

/// Append one [`Value`] (tag byte + payload).
pub fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            put_str(out, s);
        }
    }
}

/// Decode one [`Value`].
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value, EngineError> {
    match r.u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_BOOL => match r.u8()? {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            _ => Err(corrupt("bool payload")),
        },
        TAG_INT => Ok(Value::Int(r.i64()?)),
        TAG_FLOAT => Ok(Value::Float(r.f64()?)),
        TAG_TEXT => Ok(Value::Text(r.str()?)),
        _ => Err(corrupt("unknown value tag")),
    }
}

/// Append a [`Row`] (`u32` arity + values).
pub fn encode_row(out: &mut Vec<u8>, row: &[Value]) {
    put_u32(out, row.len() as u32);
    for v in row {
        encode_value(out, v);
    }
}

/// Decode a [`Row`].
pub fn decode_row(r: &mut Reader<'_>) -> Result<Row, EngineError> {
    let n = r.count(1)?;
    (0..n).map(|_| decode_value(r)).collect()
}

// ---------------------------------------------------------------------------
// Schema / Table / Catalog
// ---------------------------------------------------------------------------

fn encode_schema(out: &mut Vec<u8>, s: &TableSchema) {
    put_str(out, &s.name);
    put_u32(out, s.columns.len() as u32);
    for c in &s.columns {
        put_str(out, &c.name);
        out.push(match c.ty {
            DataType::Int => 0,
            DataType::Float => 1,
            DataType::Text => 2,
            DataType::Bool => 3,
        });
        out.push(c.not_null as u8);
    }
    put_u32(out, s.primary_key.len() as u32);
    for &pk in &s.primary_key {
        put_u32(out, pk as u32);
    }
}

fn decode_schema(r: &mut Reader<'_>) -> Result<TableSchema, EngineError> {
    let name = r.str()?;
    let ncols = r.count(6)?;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let cname = r.str()?;
        let ty = match r.u8()? {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Text,
            3 => DataType::Bool,
            _ => return Err(corrupt("unknown column type tag")),
        };
        let not_null = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(corrupt("not-null flag")),
        };
        let mut col = Column::new(cname, ty);
        if not_null {
            col = col.not_null();
        }
        columns.push(col);
    }
    let npk = r.count(4)?;
    let mut pk_indices = Vec::with_capacity(npk);
    for _ in 0..npk {
        let i = r.u32()? as usize;
        if i >= columns.len() {
            return Err(corrupt("primary-key column out of range"));
        }
        pk_indices.push(i);
    }
    // Reconstruct through the validating constructor so a decoded schema
    // upholds the same invariants as a hand-built one.
    let pk_names: Vec<String> = pk_indices
        .iter()
        .map(|&i| columns[i].name.clone())
        .collect();
    let pk_refs: Vec<&str> = pk_names.iter().map(String::as_str).collect();
    let schema = TableSchema::new(name, columns, &pk_refs)
        .map_err(|e| corrupt(&format!("schema rejected: {}", e.message)))?;
    if schema.primary_key != pk_indices {
        return Err(corrupt("primary-key indices are ambiguous"));
    }
    Ok(schema)
}

fn encode_table(out: &mut Vec<u8>, t: &Table) {
    encode_schema(out, &t.schema);
    put_u64(out, t.slot_count() as u64);
    for slot in t.slot_entries() {
        match slot {
            Some(row) => {
                out.push(1);
                encode_row(out, row);
            }
            None => out.push(0),
        }
    }
    // Index structure, sorted for deterministic bytes (the maps hash).
    let mut sets: Vec<Vec<usize>> = t.index_column_sets().cloned().collect();
    sets.sort();
    put_u32(out, sets.len() as u32);
    for cols in &sets {
        put_u32(out, cols.len() as u32);
        for &c in cols {
            put_u32(out, c as u32);
        }
    }
    let mut names: Vec<(String, Vec<usize>)> = t
        .named_index_entries()
        .map(|(n, c)| (n.clone(), c.clone()))
        .collect();
    names.sort();
    put_u32(out, names.len() as u32);
    for (name, cols) in &names {
        put_str(out, name);
        put_u32(out, cols.len() as u32);
        for &c in cols {
            put_u32(out, c as u32);
        }
    }
}

fn decode_cols(r: &mut Reader<'_>) -> Result<Vec<usize>, EngineError> {
    let n = r.count(4)?;
    (0..n).map(|_| Ok(r.u32()? as usize)).collect()
}

fn decode_table(r: &mut Reader<'_>) -> Result<Table, EngineError> {
    let schema = decode_schema(r)?;
    let nslots = r.u64()?;
    if nslots > u32::MAX as u64 || nslots.saturating_mul(1) > r.remaining() as u64 {
        return Err(corrupt("slot count exceeds input"));
    }
    let mut slots = Vec::with_capacity(nslots as usize);
    for _ in 0..nslots {
        match r.u8()? {
            0 => slots.push(None),
            1 => {
                let row = decode_row(r)?;
                if row.len() != schema.arity() {
                    return Err(corrupt("row arity does not match schema"));
                }
                slots.push(Some(row));
            }
            _ => return Err(corrupt("slot presence flag")),
        }
    }
    let nsets = r.count(4)?;
    let mut sets = Vec::with_capacity(nsets);
    for _ in 0..nsets {
        sets.push(decode_cols(r)?);
    }
    let nnames = r.count(8)?;
    let mut names = Vec::with_capacity(nnames);
    for _ in 0..nnames {
        let name = r.str()?;
        names.push((name, decode_cols(r)?));
    }
    Table::from_parts(schema, slots, sets, names)
        .map_err(|e| corrupt(&format!("table rejected: {}", e.message)))
}

/// Magic + version prefix of an encoded catalog.
const CATALOG_MAGIC: &[u8; 8] = b"HIPPOCAT";
const CATALOG_VERSION: u32 = 1;

/// Serialize a whole [`Catalog`] — every table with its slot structure
/// (tombstones included) and index definitions — to deterministic bytes.
pub fn encode_catalog(catalog: &Catalog) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(CATALOG_MAGIC);
    put_u32(&mut out, CATALOG_VERSION);
    let tables: Vec<_> = catalog.iter().collect();
    put_u32(&mut out, tables.len() as u32);
    for (_, t) in tables {
        encode_table(&mut out, t);
    }
    out
}

/// Decode a catalog produced by [`encode_catalog`]. Bounds-checked
/// throughout; corrupt input yields a "codec:" error, never a panic.
pub fn decode_catalog(bytes: &[u8]) -> Result<Catalog, EngineError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != CATALOG_MAGIC {
        return Err(corrupt("bad catalog magic"));
    }
    let version = r.u32()?;
    if version != CATALOG_VERSION {
        return Err(corrupt(&format!("unsupported catalog version {version}")));
    }
    let ntables = r.count(1)?;
    let mut catalog = Catalog::new();
    for _ in 0..ntables {
        let table = decode_table(&mut r)?;
        let name = table.schema.name.clone();
        catalog
            .adopt_table(table)
            .map_err(|_| corrupt(&format!("duplicate table {name:?}")))?;
    }
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after catalog"));
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, DataType};

    fn roundtrip_value(v: Value) {
        let mut buf = Vec::new();
        encode_value(&mut buf, &v);
        let mut r = Reader::new(&buf);
        let got = decode_value(&mut r).unwrap();
        assert!(r.is_empty());
        // Bit-exact for floats (Eq unifies 1 == 1.0; check bits too).
        if let (Value::Float(a), Value::Float(b)) = (&v, &got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(v, got);
    }

    #[test]
    fn value_roundtrips() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Bool(true));
        roundtrip_value(Value::Bool(false));
        roundtrip_value(Value::Int(0));
        roundtrip_value(Value::Int(i64::MIN));
        roundtrip_value(Value::Int(i64::MAX));
        roundtrip_value(Value::Float(0.0));
        roundtrip_value(Value::Float(-0.0));
        roundtrip_value(Value::Float(f64::NAN));
        roundtrip_value(Value::Float(f64::NEG_INFINITY));
        roundtrip_value(Value::text(""));
        roundtrip_value(Value::text("héllo \u{1F40E}"));
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn catalog_roundtrips_with_tombstones_and_indexes() {
        let mut catalog = Catalog::new();
        catalog
            .create_table(
                TableSchema::new(
                    "t",
                    vec![
                        Column::new("k", DataType::Int),
                        Column::new("v", DataType::Text).not_null(),
                    ],
                    &["k"],
                )
                .unwrap(),
            )
            .unwrap();
        let t = catalog.table_mut("t").unwrap();
        let a = t.insert(vec![Value::Int(1), Value::text("a")]).unwrap();
        t.insert(vec![Value::Int(2), Value::text("b")]).unwrap();
        t.delete(a);
        t.create_named_index("v_ix".into(), vec![1]).unwrap();

        let bytes = encode_catalog(&catalog);
        assert_eq!(bytes, encode_catalog(&catalog), "deterministic");
        let back = decode_catalog(&bytes).unwrap();
        let bt = back.table("t").unwrap();
        assert_eq!(bt.slot_count(), 2, "tombstone slot preserved");
        assert_eq!(bt.len(), 1);
        assert!(bt.get(a).is_none(), "tombstone stays dead");
        assert_eq!(bt.named_index("v_ix"), Some(&vec![1]));
        assert!(bt.has_index(&[0]) && bt.has_index(&[1]));
        // Fresh inserts continue at the same slot index pre- and
        // post-roundtrip — the TupleId-stability property recovery needs.
        let mut orig = catalog.clone();
        let mut back = back;
        let id1 = orig
            .table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(3), Value::text("c")])
            .unwrap();
        let id2 = back
            .table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(3), Value::text("c")])
            .unwrap();
        assert_eq!(id1, id2);
    }

    #[test]
    fn corrupt_input_errors_never_panics() {
        let mut catalog = Catalog::new();
        catalog
            .create_table(
                TableSchema::new("t", vec![Column::new("a", DataType::Int)], &[]).unwrap(),
            )
            .unwrap();
        let bytes = encode_catalog(&catalog);
        // Truncate at every prefix and flip a byte at every position:
        // decoding must return Err or a (different) valid catalog, never panic.
        for cut in 0..bytes.len() {
            let _ = decode_catalog(&bytes[..cut]);
        }
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xFF;
            let _ = decode_catalog(&b);
        }
        assert!(decode_catalog(b"HIPPOCATxxxx").is_err());
        assert!(decode_catalog(b"").is_err());
    }

    #[test]
    fn checked_frames_roundtrip_and_reject_corruption() {
        let payload = b"hello frames".as_slice();
        let framed = encode_checked(payload);
        assert_eq!(framed.len(), CHECKED_FRAME_OVERHEAD + payload.len());
        let mut batched = Vec::new();
        put_checked(&mut batched, payload);
        assert_eq!(framed, batched, "both writers produce identical bytes");
        let (got, consumed) = split_checked(&framed, 1 << 20).unwrap().unwrap();
        assert_eq!((got, consumed), (payload, framed.len()));
        // Every strict prefix is "incomplete", never an error or panic.
        for cut in 0..framed.len() {
            assert!(split_checked(&framed[..cut], 1 << 20).unwrap().is_none());
        }
        // Flipping any payload or crc byte is caught.
        for i in 4..framed.len() {
            let mut bad = framed.clone();
            bad[i] ^= 0xFF;
            assert!(split_checked(&bad, 1 << 20).is_err(), "byte {i}");
        }
        // A hostile length is rejected before any allocation.
        let mut hostile = Vec::new();
        put_u32(&mut hostile, u32::MAX);
        put_u32(&mut hostile, 0);
        assert!(split_checked(&hostile, 1 << 20).is_err());
    }

    #[test]
    fn hostile_length_prefix_rejected_cheaply() {
        let mut buf = Vec::new();
        buf.extend_from_slice(CATALOG_MAGIC);
        put_u32(&mut buf, CATALOG_VERSION);
        put_u32(&mut buf, u32::MAX); // absurd table count
        assert!(decode_catalog(&buf).is_err());
    }
}
