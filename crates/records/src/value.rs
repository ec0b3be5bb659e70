//! Typed attribute values.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One attribute value inside a resource record.
///
/// The paper's prototype stores "integer, double, timestamp, string,
/// categorical" columns (§V, Prototype Benchmarking); this enum mirrors that
/// set. Numeric simulation workloads use [`Value::Float`] in the unit range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Double-precision numeric value (simulation attributes live in \[0,1\]).
    Float(f64),
    /// Integer value.
    Int(i64),
    /// Free-form text (searchable by equality/prefix only).
    Text(String),
    /// Categorical value from a finite vocabulary (e.g. `encoding=MPEG2`).
    Cat(String),
    /// Milliseconds since the Unix epoch.
    Timestamp(i64),
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
        Value::Cat(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Cat(v)
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
