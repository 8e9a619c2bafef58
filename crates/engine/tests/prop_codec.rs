//! Property tests for the binary value/row/catalog codec.
//!
//! Two invariants, each over randomized inputs:
//!
//! 1. **Round trip**: any encodable value — every `Value` variant
//!    including `i64::MIN`/`MAX`, non-finite floats, NULLs and empty
//!    strings, in rows of any shape including empty — decodes back
//!    bit-identically (floats compared by bit pattern, so NaN and
//!    `-0.0` survive).
//! 2. **No panic on garbage**: decoding any truncation or single-byte
//!    corruption of a valid encoding returns an error or a value, but
//!    never panics and never over-allocates on hostile length
//!    prefixes.

use hippo_engine::codec::{self, Reader};
use hippo_engine::Value;
use proptest::prelude::*;

fn bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn arb_value() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        any::<f64>().prop_map(Value::Float),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::text("")),
        prop::collection::vec(97u8..123, 0..12)
            .prop_map(|b| Value::text(String::from_utf8(b).unwrap())),
    ]
    .boxed()
}

fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(arb_value(), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn values_round_trip(v in arb_value()) {
        let mut buf = Vec::new();
        codec::encode_value(&mut buf, &v);
        let mut r = Reader::new(&buf);
        let back = codec::decode_value(&mut r).unwrap();
        prop_assert!(r.is_empty(), "trailing bytes after decode");
        prop_assert!(bits_eq(&v, &back), "{v:?} != {back:?}");
    }

    #[test]
    fn rows_round_trip_including_empty(row in arb_row()) {
        let mut buf = Vec::new();
        codec::encode_row(&mut buf, &row);
        let mut r = Reader::new(&buf);
        let back = codec::decode_row(&mut r).unwrap();
        prop_assert!(r.is_empty());
        prop_assert_eq!(row.len(), back.len());
        for (a, b) in row.iter().zip(&back) {
            prop_assert!(bits_eq(a, b), "{a:?} != {b:?}");
        }
    }

    #[test]
    fn truncated_or_corrupt_rows_never_panic(
        row in arb_row(),
        cut_pick in any::<u32>(),
        flip_pick in any::<u32>(),
        flip_bits in 1u8..255,
    ) {
        let mut buf = Vec::new();
        codec::encode_row(&mut buf, &row);

        // Truncation at an arbitrary offset: must error or decode a
        // prefix value, never panic.
        let cut = (cut_pick as usize) % (buf.len() + 1);
        let _ = codec::decode_row(&mut Reader::new(&buf[..cut]));

        // Single-byte corruption anywhere: same contract.
        if !buf.is_empty() {
            let mut bad = buf.clone();
            let at = (flip_pick as usize) % bad.len();
            bad[at] ^= flip_bits;
            let _ = codec::decode_row(&mut Reader::new(&bad));
        }
    }
}

/// A fixed small catalog: a keyed table with a named secondary index,
/// tombstones left by `DELETE` (one at the first slot), a re-keyed
/// `UPDATE`, every value type, and an empty keyless table.
fn pinned_catalog() -> hippo_engine::Catalog {
    let mut db = hippo_engine::Database::new();
    db.execute_script(
        "CREATE TABLE r (k INT, v TEXT, f REAL, b BOOLEAN, PRIMARY KEY (k));
         CREATE INDEX r_v ON r (v);
         CREATE TABLE e (a INT);
         INSERT INTO r VALUES (1, 'a', 0.5, TRUE), (2, 'b', -1.25, FALSE),
                              (2, 'c', NULL, NULL), (3, '', 2.0, TRUE), (4, 'd', 0.0, FALSE);
         DELETE FROM r WHERE k = 1;
         DELETE FROM r WHERE v = '';
         UPDATE r SET k = 5 WHERE v = 'c';",
    )
    .unwrap();
    db.catalog().clone()
}

/// The checkpoint byte format is pinned: the catalog above encodes to
/// exactly these bytes, and decoding them re-encodes identically. A
/// change to the storage layout behind `Table` must leave this literal
/// alone; a deliberate format change bumps the catalog version and this
/// literal together.
#[test]
fn catalog_bytes_are_pinned() {
    const PINNED: &str = concat!(
        "484950504f434154010000000200000001000000650100000001000000610000",
        "0000000000000000000000000000000000000000010000007204000000010000",
        "006b000001000000760200010000006601000100000062030001000000000000",
        "0005000000000000000001040000000202000000000000000401000000620300",
        "0000000000f4bf01000104000000020500000000000000040100000063000000",
        "0104000000020400000000000000040100000064030000000000000000010002",
        "000000010000000000000001000000010000000100000003000000725f760100",
        "000001000000",
    );
    let bytes = codec::encode_catalog(&pinned_catalog());
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, PINNED);
    let back = codec::decode_catalog(&bytes).unwrap();
    assert_eq!(codec::encode_catalog(&back), bytes);
}
