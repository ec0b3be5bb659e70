//! Typed attribute values.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;

/// One attribute value inside a resource record.
///
/// The paper's prototype stores "integer, double, timestamp, string,
/// categorical" columns (§V, Prototype Benchmarking); this enum mirrors that
/// set. Numeric simulation workloads use [`Value::Float`] in the unit range.
///
/// Two words: a tag and an 8-byte payload. The string variants hold a
/// [`Str`], one thin pointer, so a record of numbers pays 16 bytes a value
/// rather than the 32 an inline `String` would cost every variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Double-precision numeric value (simulation attributes live in \[0,1\]).
    Float(f64),
    /// Integer value.
    Int(i64),
    /// Free-form text (searchable by equality/prefix only).
    Text(Str),
    /// Categorical value from a finite vocabulary (e.g. `encoding=MPEG2`).
    Cat(Str),
    /// Milliseconds since the Unix epoch.
    Timestamp(i64),
}

const _: () = assert!(std::mem::size_of::<Value>() == 16);

/// The string inside [`Value::Text`] and [`Value::Cat`]: an owned string
/// behind one thin pointer. `Box<str>` would be a fat pointer and grow
/// every [`Value`] to 24 bytes; the price of the thin one is a second small
/// allocation per string value.
///
/// Derefs to `str`, converts from `&str` and `String`, and prints (with
/// `{}` and `{:?}`) and serialises as the plain string.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
#[allow(clippy::box_collection, reason = "the box is the thin pointer")]
pub struct Str(Box<String>);

impl Deref for Str {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Str {
    fn from(s: &str) -> Self {
        Str(Box::new(s.to_owned()))
    }
}

impl From<String> for Str {
    fn from(s: String) -> Self {
        Str(Box::new(s))
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl fmt::Display for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

impl Value {
    /// Numeric view of the value, if it has one.
    ///
    /// Integers and timestamps coerce to `f64` so one histogram
    /// implementation can summarize every ordered type.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            Value::Timestamp(t) => Some(*t as f64),
            Value::Text(_) | Value::Cat(_) => None,
        }
    }

    /// String view for categorical / text values.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) | Value::Cat(s) => Some(s),
            _ => None,
        }
    }

    /// True when the value is ordered (supports range predicates).
    pub fn is_ordered(&self) -> bool {
        !matches!(self, Value::Cat(_))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Float(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Text(v) => write!(f, "{v:?}"),
            Value::Cat(v) => write!(f, "{v}"),
            Value::Timestamp(v) => write!(f, "@{v}"),
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Cat(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Cat(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_coercion() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Timestamp(12).as_f64(), Some(12.0));
        assert_eq!(Value::Cat("x".into()).as_f64(), None);
    }

    #[test]
    fn ordered_flags() {
        assert!(Value::Float(0.5).is_ordered());
        assert!(Value::Text("a".into()).is_ordered());
        assert!(!Value::Cat("a".into()).is_ordered());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Cat("MPEG2".into()).to_string(), "MPEG2");
        assert_eq!(Value::Timestamp(5).to_string(), "@5");
        assert_eq!(Value::Text("hi".into()).to_string(), "\"hi\"");
    }
}
