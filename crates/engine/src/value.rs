//! Runtime values with SQL comparison semantics.
//!
//! [`Value`] is the single dynamic value type flowing through the executor.
//! Two comparison notions coexist:
//!
//! * **SQL comparison** ([`Value::sql_cmp`], [`Value::sql_eq`]) — returns
//!   `None` when either side is `NULL` (three-valued logic) and compares
//!   integers and floats numerically.
//! * **Total order** (the [`Ord`] impl) — used for sorting, hashing and set
//!   operations; `NULL` sorts first, and `NaN` sorts after all other floats.
//!
//! `Eq`/`Hash` agree with the total order, and numeric values that are
//! SQL-equal (`1 = 1.0`) are also `Eq`-equal and hash identically, so hash
//! based set operations match SQL semantics.

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
    /// comparison (`1 = 1.0` is true); mismatched non-numeric types are
    /// simply unequal.
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
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Canonical numeric key so that `Int(1)`, `Float(1.0)` hash and compare
    /// equal: integers and integral in-range floats map to the `i64` grid.
    fn numeric_key(&self) -> Option<NumKey> {
        match self {
            Value::Int(v) => Some(NumKey::Int(*v)),
            Value::Float(v) => {
                if v.is_nan() {
                    Some(NumKey::Nan)
                } else if v.fract() == 0.0 && *v >= i64::MIN as f64 && *v < i64::MAX as f64 {
                    Some(NumKey::Int(*v as i64))
                } else {
                    Some(NumKey::Float(v.to_bits()))
                }
            }
            _ => None,
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
    /// Total order: NULL < booleans < numerics (by value, NaN last) < text.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (a, b) if a.rank() == 2 && b.rank() == 2 => match (a.numeric_key(), b.numeric_key()) {
                (Some(NumKey::Nan), Some(NumKey::Nan)) => Ordering::Equal,
                (Some(NumKey::Nan), _) => Ordering::Greater,
                (_, Some(NumKey::Nan)) => Ordering::Less,
                _ => a
                    .as_f64()
                    .expect("numeric")
                    .total_cmp(&b.as_f64().expect("numeric")),
            },
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Value::Int(_) | Value::Float(_) => {
                state.write_u8(2);
                self.numeric_key().expect("numeric").hash(state);
            }
            Value::Text(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
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
}
