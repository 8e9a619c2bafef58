//! Runtime values with SQL comparison semantics.
//!
//! [`Value`] is the single dynamic value type flowing through the executor.
//! Two comparison notions coexist:
//!
//! * **SQL comparison** ([`Value::sql_cmp`], [`Value::sql_eq`]) — returns
//!   `None` when either side is `NULL` (three-valued logic) and compares
//!   integers and floats by exact value, as the total order does, except
//!   that `-0.0` equals `0` and `0.0`, and `NaN` compares to nothing.
//! * **Total order** (the [`Ord`] impl) — used for sorting, hashing and set
//!   operations; `NULL` sorts first, and `NaN` sorts after all other floats.
//!   Numbers compare by exact value: two `Int`s as `i64`, an `Int` and a
//!   `Float` without rounding either through the other's type.
//!
//! `Eq`/`Hash` agree with the total order: an integer and a float of the
//! same exact value (`1` and `1.0`) are `Eq`-equal and hash identically,
//! so hash based set operations match the order.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A dynamically-typed SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL `NULL`.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
}

impl Value {
    /// Shorthand text constructor.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// Is this `NULL`?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Human-readable type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Text(_) => "text",
        }
    }

    /// Numeric view (ints widen to f64); `None` for non-numerics.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// SQL equality: `None` if either side is `NULL`; numeric cross-type
    /// comparison, exact (`1 = 1.0` is true, `2^53 + 1 = 2^53` as a float
    /// is false); mismatched non-numeric types are simply unequal.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL ordering comparison with three-valued logic: `None` when either
    /// side is `NULL` or when the types are incomparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Float(b)) => sql_int_float_cmp(*a, *b),
            (Value::Float(a), Value::Int(b)) => sql_int_float_cmp(*b, *a).map(Ordering::reverse),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Text(_) => 3,
        }
    }
}

/// Canonical numeric hash key, so that `Int(1)` and `Float(1.0)` hash
/// alike: integers and integral in-range floats map to the `i64` grid.
/// (`-0.0` maps to `0` too; it compares unequal to `0`, which a shared
/// hash allows.)
fn numeric_key(v: f64) -> NumKey {
    if v.is_nan() {
        NumKey::Nan
    } else if v.fract() == 0.0 && v >= i64::MIN as f64 && v < i64::MAX as f64 {
        NumKey::Int(v as i64)
    } else {
        NumKey::Float(v.to_bits())
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum NumKey {
    Int(i64),
    Float(u64),
    Nan,
}

impl Hash for NumKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Explicit tag bytes rather than the derived discriminant hash:
        // hash indexes choose a key's shard from these bytes, so they
        // are spelled here, not left to the compiler.
        match self {
            NumKey::Int(x) => {
                state.write_u8(0);
                state.write_i64(*x);
            }
            NumKey::Float(bits) => {
                state.write_u8(1);
                state.write_u64(*bits);
            }
            NumKey::Nan => state.write_u8(2),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: NULL < booleans < numerics (by exact value, `-0.0`
    /// just below `0`, NaN last) < text.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => float_cmp(*a, *b),
            (Value::Int(a), Value::Float(b)) => int_float_cmp(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_float_cmp(*b, *a).reverse(),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

/// The total order on floats: numeric, `-0.0` just below `0.0`
/// (`total_cmp`), every NaN equal to every other and above all numbers.
pub(crate) fn float_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.total_cmp(&b),
    }
}

/// Integer against float, exactly: no rounding through `f64`, so
/// `2^53 + 1` stays above `2^53` as a float. `-0.0` sits just below `0`,
/// as it sits just below `0.0`, and NaN above every integer.
pub(crate) fn int_float_cmp(i: i64, f: f64) -> Ordering {
    // 2^63 is exact in f64; every float at or past ±2^63 lies outside
    // the i64 range except -2^63 itself.
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
    if f.is_nan() || f >= TWO_63 {
        return Ordering::Less;
    }
    if f < -TWO_63 {
        return Ordering::Greater;
    }
    let whole = f.trunc();
    // `whole` lies in [-2^63, 2^63), so the cast is exact.
    i.cmp(&(whole as i64)).then_with(|| {
        if f > whole {
            Ordering::Less
        } else if f < whole || (f == 0.0 && f.is_sign_negative()) {
            Ordering::Greater
        } else {
            Ordering::Equal
        }
    })
}

/// SQL's integer-against-float comparison: exact, as `Ord` is, except
/// that `-0.0` is `0` (as SQL's `-0.0 = 0.0` holds) and NaN compares to
/// nothing.
pub(crate) fn sql_int_float_cmp(i: i64, f: f64) -> Option<Ordering> {
    if f.is_nan() {
        None
    } else if f == 0.0 {
        Some(i.cmp(&0))
    } else {
        Some(int_float_cmp(i, f))
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => hash_null(state),
            Value::Bool(b) => hash_bool(*b, state),
            Value::Int(x) => hash_int(*x, state),
            Value::Float(x) => hash_float(*x, state),
            Value::Text(s) => hash_text(s, state),
        }
    }
}

// The per-type halves of `Value`'s `Hash`, shared with the column
// store (`ColumnVector::hash_at`), which hashes typed buffers without
// building a `Value`: both must feed a hasher the same words.

pub(crate) fn hash_null<H: Hasher>(state: &mut H) {
    state.write_u8(0);
}

pub(crate) fn hash_bool<H: Hasher>(b: bool, state: &mut H) {
    state.write_u8(1);
    b.hash(state);
}

pub(crate) fn hash_int<H: Hasher>(x: i64, state: &mut H) {
    state.write_u8(2);
    NumKey::Int(x).hash(state);
}

pub(crate) fn hash_float<H: Hasher>(x: f64, state: &mut H) {
    state.write_u8(2);
    numeric_key(x).hash(state);
}

pub(crate) fn hash_text<H: Hasher>(s: &str, state: &mut H) {
    state.write_u8(3);
    s.hash(state);
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "true" } else { "false" }),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

/// A row of values.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn sql_eq_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(1).sql_eq(&Value::Float(1.0)), Some(true));
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert_eq!(hash_of(&Value::Int(1)), hash_of(&Value::Float(1.0)));
        assert_ne!(Value::Int(1), Value::Float(1.5));
    }

    #[test]
    fn mismatched_types_unequal_not_null() {
        assert_eq!(Value::Int(1).sql_eq(&Value::text("1")), None);
        assert_ne!(Value::Int(1), Value::text("1"));
    }

    #[test]
    fn total_order_ranks() {
        let mut vs = vec![
            Value::text("a"),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
            Value::Float(2.5),
            Value::Bool(false),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(false),
                Value::Bool(true),
                Value::Float(2.5),
                Value::Int(3),
                Value::text("a"),
            ]
        );
    }

    #[test]
    fn nan_is_ordered_last_and_self_equal() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan.cmp(&Value::Float(1e308)), Ordering::Greater);
        assert_eq!(hash_of(&nan), hash_of(&Value::Float(f64::NAN)));
    }

    #[test]
    fn nulls_equal_in_total_order_but_unknown_in_sql() {
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::text("x").to_string(), "x");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    /// Around 2^53 an `f64` cannot tell neighbouring integers apart;
    /// the total order must, or `Eq` and `Hash` disagree.
    #[test]
    fn equality_implies_equal_hashes_and_order_is_transitive() {
        const P53: i64 = 1 << 53;
        let mut grid = vec![Value::Null, Value::Bool(false), Value::text("1")];
        for x in [
            0,
            1,
            -1,
            P53 - 1,
            P53,
            P53 + 1,
            -P53 - 1,
            -P53,
            -P53 + 1,
            i64::MIN,
            i64::MIN + 1,
            i64::MAX - 1,
            i64::MAX,
        ] {
            grid.push(Value::Int(x));
            grid.push(Value::Float(x as f64));
        }
        for f in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            9_223_372_036_854_775_808.0,
            -9_223_372_036_854_775_808.0,
            -9_223_372_036_854_777_856.0,
            1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            grid.push(Value::Float(f));
        }
        for a in &grid {
            for b in &grid {
                assert_eq!(a.cmp(b), b.cmp(a).reverse(), "{a:?} vs {b:?}");
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?}");
                }
                for c in &grid {
                    if a <= b && b <= c {
                        assert!(a <= c, "{a:?} <= {b:?} <= {c:?}");
                    }
                }
            }
        }
        assert_ne!(Value::Int(P53 + 1), Value::Int(P53));
        assert!(Value::Int(P53) < Value::Int(P53 + 1));
        assert!(Value::Float(P53 as f64) < Value::Int(P53 + 1));
        assert!(Value::Int(i64::MAX) < Value::Float(9_223_372_036_854_775_808.0));
        assert!(Value::Float(-0.0) < Value::Int(0));
        assert!(Value::Float(-0.0) < Value::Float(0.0));
        assert_eq!(Value::Int(0), Value::Float(0.0));
        assert!(Value::Int(i64::MAX) < Value::Float(f64::NAN));
    }

    #[test]
    fn sql_cmp_orders_numbers() {
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::text("b").sql_cmp(&Value::text("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Bool(true).sql_cmp(&Value::Int(1)),
            None,
            "bool vs int incomparable"
        );
    }

    /// SQL's `Int`-against-`Float` comparison is exact, as `Ord` is: no
    /// rounding of the integer through `f64`.
    #[test]
    fn sql_cmp_int_float_is_exact() {
        const P53: i64 = 1 << 53;
        let f53 = Value::Float(P53 as f64);
        assert_eq!(Value::Int(P53 + 1).sql_eq(&f53), Some(false));
        assert_eq!(Value::Int(P53 + 1).sql_cmp(&f53), Some(Ordering::Greater));
        assert_eq!(f53.sql_cmp(&Value::Int(P53 + 1)), Some(Ordering::Less));
        assert_eq!(Value::Int(P53).sql_eq(&f53), Some(true));
        assert_eq!(
            Value::Int(i64::MAX).sql_cmp(&Value::Float(i64::MAX as f64)),
            Some(Ordering::Less),
            "2^63 - 1 lies below 2^63"
        );
        assert_eq!(Value::Int(0).sql_eq(&Value::Float(-0.0)), Some(true));
        assert_eq!(Value::Float(-0.0).sql_eq(&Value::Int(0)), Some(true));
        assert_eq!(Value::Int(0).sql_cmp(&Value::Float(f64::NAN)), None);
    }
}
