//! Scalar values of fact attributes.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A scalar value of a non-temporal fact attribute.
///
/// Strings are reference-counted so that projecting/joining tuples never
/// copies string payloads. Floats are compared with a total order
/// ([`f64::total_cmp`]) so that values can be sorted and grouped; an `Int`
/// and a `Float` compare by their exact values, so an `Int` equals a
/// `Float` only when the float represents it exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL-style NULL. In join results NULL marks padded attributes of
    /// unmatched/negating output tuples (rendered as `-` in the paper).
    Null,
    /// Boolean value.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float, totally ordered via `total_cmp`.
    Float(f64),
    /// UTF-8 string (cheaply clonable).
    Str(Arc<str>),
}

impl Value {
    /// Convenience constructor for string values.
    #[must_use]
    pub fn str(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }

    /// Is this the NULL value?
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The contained integer, when the value is an `Int`.
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The contained float, when the value is a `Float` (or an `Int`, widened).
    #[must_use]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The contained string slice, when the value is a `Str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The contained boolean, when the value is a `Bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Rank used to order values of different types (Null < Bool < Int/Float < Str).
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
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
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => int_float_cmp(*a, *b),
            (Float(a), Int(b)) => int_float_cmp(*b, *a).reverse(),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

/// Compares an integer with a float by their exact values. Rounding `a` to
/// a float is monotone, so it orders the two unless it ties; a tie means `b`
/// is integral and in `i128` range, where both convert exactly (without this
/// step `2^53 + 1` would equal `2^53` as a float but not as an integer).
fn int_float_cmp(a: i64, b: f64) -> Ordering {
    (a as f64)
        .total_cmp(&b)
        .then_with(|| i128::from(a).cmp(&(b as i128)))
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "-"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
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
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

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
    fn constructors_and_accessors() {
        assert_eq!(Value::from(3i64).as_int(), Some(3));
        assert_eq!(Value::from(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Int(2).as_float(), Some(2.0));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::str("x").as_int(), None);
    }

    #[test]
    fn equality_and_ordering() {
        assert_eq!(Value::Int(2), Value::Int(2));
        assert_ne!(Value::Int(2), Value::Int(3));
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Int(3));
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::Null < Value::Int(0));
        assert!(Value::Bool(true) < Value::Int(-100));
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn int_float_equality_is_exact_and_transitive() {
        let two_53 = 1i64 << 53;
        let (a, b, c) = (
            Value::Int(two_53 + 1),
            Value::Float(two_53 as f64),
            Value::Int(two_53),
        );
        assert_eq!(b, c);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert!(c < a && b < a);
        assert_eq!(a.cmp(&b), Ordering::Greater);
        // The largest i64 rounds up to 2^63, one past it.
        assert!(Value::Int(i64::MAX) < Value::Float(9_223_372_036_854_775_808.0));
        assert_eq!(Value::Int(i64::MIN), Value::Float(i64::MIN as f64));
    }

    #[test]
    fn equal_values_hash_equal() {
        let two_53 = 1i64 << 53;
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(two_53),
            Value::Int(two_53 + 1),
            Value::Float(two_53 as f64),
            Value::Int(-7),
            Value::Float(-7.0),
            Value::Float(0.5),
            Value::Int(i64::MIN),
            Value::Float(i64::MIN as f64),
            Value::Float(f64::NAN),
            Value::str("7"),
        ];
        for x in &values {
            for y in &values {
                if x == y {
                    assert_eq!(hash_of(x), hash_of(y), "{x:?} == {y:?}");
                }
            }
        }
    }

    #[test]
    fn hash_is_consistent_with_equality_for_numerics() {
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
        assert_eq!(hash_of(&Value::str("abc")), hash_of(&Value::str("abc")));
    }

    #[test]
    fn display_renders_null_as_dash() {
        assert_eq!(Value::Null.to_string(), "-");
        assert_eq!(Value::str("hotel1").to_string(), "hotel1");
        assert_eq!(Value::Int(42).to_string(), "42");
    }

    #[test]
    fn sorting_mixed_values_is_total() {
        let mut vs = [
            Value::str("z"),
            Value::Null,
            Value::Int(5),
            Value::Float(2.5),
            Value::Bool(false),
        ];
        vs.sort();
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Bool(false));
        assert_eq!(vs[4], Value::str("z"));
    }
}
