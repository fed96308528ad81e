//! Signal values: a flat CPO over concrete data.
//!
//! The paper requires block inputs and outputs to be "members of ordered
//! sets" and blocks to compute "continuous functions between these
//! domains". We realise the ordered set as the *flat* complete partial
//! order over [`Datum`]:
//!
//! ```text
//!        Absent   Present(d0)  Present(d1)  ...
//!             \        |        /
//!              \       |       /
//!                  Unknown (⊥)
//! ```
//!
//! [`Value::Unknown`] is the bottom element used by the fixed-point
//! evaluator to mean "not yet determined in this instant".
//! [`Value::Absent`] means the signal definitely carries no datum this
//! instant; `Present(d)` means it definitely carries `d`. The domain has
//! height 1, so every monotone function is continuous and every chain of
//! per-signal updates stabilises after at most one strict increase — this
//! is what bounds fixed-point iteration (see [`crate::fixpoint`]).

use std::fmt;

/// A concrete datum carried by a present signal.
///
/// ASR channels carry "set-valued data"; we provide the value kinds the
/// paper's examples need: integers, booleans, and fixed-shape integer
/// vectors (e.g. an image scanline or an 8×8 coefficient block in the JPEG
/// example).
///
/// ```
/// use asr::value::Datum;
/// let d = Datum::Int(42);
/// assert_eq!(d.as_int(), Some(42));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Datum {
    /// A signed integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
    /// A vector of integers (used for array-valued signals such as images).
    Vec(Vec<i64>),
}

impl Datum {
    /// Returns the integer payload, if this datum is an [`Datum::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this datum is a [`Datum::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Datum::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the vector payload, if this datum is a [`Datum::Vec`].
    pub fn as_vec(&self) -> Option<&[i64]> {
        match self {
            Datum::Vec(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Int(i) => write!(f, "{i}"),
            Datum::Bool(b) => write!(f, "{b}"),
            Datum::Vec(v) => {
                if v.len() <= 8 {
                    write!(f, "{v:?}")
                } else {
                    write!(f, "[{} ints]", v.len())
                }
            }
        }
    }
}

impl From<i64> for Datum {
    fn from(i: i64) -> Self {
        Datum::Int(i)
    }
}

impl From<bool> for Datum {
    fn from(b: bool) -> Self {
        Datum::Bool(b)
    }
}

impl From<Vec<i64>> for Datum {
    fn from(v: Vec<i64>) -> Self {
        Datum::Vec(v)
    }
}

/// A signal value in the flat CPO: `Unknown` (⊥), `Absent`, or
/// `Present(datum)`.
///
/// ```
/// use asr::value::{Value, Datum};
/// assert!(Value::Unknown.le(&Value::int(3)));
/// assert!(!Value::Absent.le(&Value::int(3)));
/// assert_eq!(Value::int(3), Value::Present(Datum::Int(3)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Value {
    /// Bottom: not yet determined within the current instant.
    #[default]
    Unknown,
    /// Determined: the signal carries no datum this instant.
    Absent,
    /// Determined: the signal carries the given datum this instant.
    Present(Datum),
}

impl Value {
    /// Shorthand for `Present(Datum::Int(i))`.
    pub fn int(i: i64) -> Self {
        Value::Present(Datum::Int(i))
    }

    /// Shorthand for `Present(Datum::Bool(b))`.
    pub fn bool(b: bool) -> Self {
        Value::Present(Datum::Bool(b))
    }

    /// Shorthand for `Present(Datum::Vec(v))`.
    pub fn vec(v: Vec<i64>) -> Self {
        Value::Present(Datum::Vec(v))
    }

    /// True iff this value is [`Value::Unknown`] (⊥).
    pub fn is_unknown(&self) -> bool {
        matches!(self, Value::Unknown)
    }

    /// True iff this value is determined (not ⊥).
    pub fn is_known(&self) -> bool {
        !self.is_unknown()
    }

    /// True iff this value is `Present(_)`.
    pub fn is_present(&self) -> bool {
        matches!(self, Value::Present(_))
    }

    /// Returns the contained datum for `Present`, otherwise `None`.
    pub fn datum(&self) -> Option<&Datum> {
        match self {
            Value::Present(d) => Some(d),
            _ => None,
        }
    }

    /// Returns the contained integer for `Present(Int)`, otherwise `None`.
    pub fn as_int(&self) -> Option<i64> {
        self.datum().and_then(Datum::as_int)
    }

    /// Returns the contained boolean for `Present(Bool)`, otherwise `None`.
    pub fn as_bool(&self) -> Option<bool> {
        self.datum().and_then(Datum::as_bool)
    }

    /// The information ordering of the flat CPO: `self ⊑ other`.
    ///
    /// `Unknown` is below everything; determined values are only below
    /// themselves.
    pub fn le(&self, other: &Value) -> bool {
        matches!(self, Value::Unknown) || self == other
    }

    /// Least upper bound, where defined.
    ///
    /// # Errors
    ///
    /// Returns [`JoinError`] when the two values are distinct determined
    /// values (the flat CPO has no upper bound for them); this indicates a
    /// multiply-driven signal and is reported as a model violation by the
    /// evaluator.
    pub fn join(&self, other: &Value) -> Result<Value, JoinError> {
        match (self, other) {
            (Value::Unknown, v) | (v, Value::Unknown) => Ok(v.clone()),
            (a, b) if a == b => Ok(a.clone()),
            (a, b) => Err(JoinError {
                left: a.clone(),
                right: b.clone(),
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unknown => write!(f, "⊥"),
            Value::Absent => write!(f, "·"),
            Value::Present(d) => write!(f, "{d}"),
        }
    }
}

impl From<Datum> for Value {
    fn from(d: Datum) -> Self {
        Value::Present(d)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::bool(b)
    }
}

/// Error returned by [`Value::join`] when two determined values conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinError {
    /// Left operand of the failed join.
    pub left: Value,
    /// Right operand of the failed join.
    pub right: Value,
}

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "values {} and {} have no upper bound in the flat domain",
            self.left, self.right
        )
    }
}

impl std::error::Error for JoinError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_is_bottom() {
        for v in [Value::Unknown, Value::Absent, Value::int(7), Value::bool(true)] {
            assert!(Value::Unknown.le(&v));
        }
    }

    #[test]
    fn determined_values_only_below_themselves() {
        assert!(Value::int(1).le(&Value::int(1)));
        assert!(!Value::int(1).le(&Value::int(2)));
        assert!(!Value::int(1).le(&Value::Absent));
        assert!(!Value::Absent.le(&Value::int(1)));
        assert!(!Value::int(1).le(&Value::Unknown));
    }

    #[test]
    fn join_with_bottom_is_identity() {
        let v = Value::vec(vec![1, 2, 3]);
        assert_eq!(Value::Unknown.join(&v).unwrap(), v);
        assert_eq!(v.join(&Value::Unknown).unwrap(), v);
    }

    #[test]
    fn join_of_equal_values_is_that_value() {
        assert_eq!(Value::int(4).join(&Value::int(4)).unwrap(), Value::int(4));
        assert_eq!(Value::Absent.join(&Value::Absent).unwrap(), Value::Absent);
    }

    #[test]
    fn join_of_conflicting_values_fails() {
        let err = Value::int(1).join(&Value::int(2)).unwrap_err();
        assert_eq!(err.left, Value::int(1));
        assert_eq!(err.right, Value::int(2));
        assert!(Value::int(1).join(&Value::Absent).is_err());
        assert!(Value::bool(true).join(&Value::int(1)).is_err());
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::int(9).as_int(), Some(9));
        assert_eq!(Value::bool(false).as_bool(), Some(false));
        assert_eq!(Value::Absent.as_int(), None);
        assert_eq!(Value::Unknown.datum(), None);
        assert_eq!(Datum::Vec(vec![1]).as_vec(), Some(&[1][..]));
        assert_eq!(Datum::Int(1).as_vec(), None);
        assert_eq!(Datum::Bool(true).as_int(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Unknown.to_string(), "⊥");
        assert_eq!(Value::Absent.to_string(), "·");
        assert_eq!(Value::int(3).to_string(), "3");
        assert_eq!(Value::bool(true).to_string(), "true");
        assert_eq!(Value::vec(vec![1, 2]).to_string(), "[1, 2]");
        assert_eq!(Value::vec(vec![0; 100]).to_string(), "[100 ints]");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::int(3));
        assert_eq!(Value::from(true), Value::bool(true));
        assert_eq!(Datum::from(vec![1i64]), Datum::Vec(vec![1]));
        assert_eq!(Value::from(Datum::Int(2)), Value::int(2));
    }

    #[test]
    fn default_is_unknown() {
        assert_eq!(Value::default(), Value::Unknown);
    }
}
