//! Attribute definitions and the shared federation schema.
//!
//! The paper assumes all participants agree on a common schema (§II: schema
//! mapping "has been well studied … we assume that all participants use a
//! common schema"). A [`Schema`] is therefore an immutable, ordered list of
//! [`AttrDef`]s; attributes are referenced by dense [`AttrId`] indexes
//! everywhere else in the system.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Dense index of an attribute within a [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AttrId(pub u16);

impl AttrId {
    /// The attribute's position in the schema's attribute list.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// The type of values an attribute carries, which also determines how the
/// summary layer condenses it (histogram vs value set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttrType {
    /// Real-valued, summarized with an equi-width histogram over `[lo, hi]`.
    Numeric,
    /// Integer-valued, summarized like `Numeric` after coercion.
    Integer,
    /// Finite vocabulary, summarized with a value set or Bloom filter.
    Categorical,
    /// Free text; only equality predicates are supported.
    Text,
    /// Millisecond timestamps, summarized like `Numeric`.
    Timestamp,
}

impl AttrType {
    /// Whether values of this type support range predicates.
    pub fn is_ordered(self) -> bool {
        !matches!(self, AttrType::Categorical)
    }

    /// Whether the value variant matches this declared type.
    pub fn accepts(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (AttrType::Numeric, Value::Float(_))
                | (AttrType::Integer, Value::Int(_))
                | (AttrType::Categorical, Value::Cat(_))
                | (AttrType::Text, Value::Text(_))
                | (AttrType::Timestamp, Value::Timestamp(_))
        )
    }
}

/// Declaration of one searchable attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrDef {
    /// Attribute name, unique within the schema (e.g. `"rate"`).
    pub name: String,
    /// Value type.
    pub ty: AttrType,
    /// Domain lower bound for ordered types (histogram range start).
    pub lo: f64,
    /// Domain upper bound for ordered types (histogram range end).
    pub hi: f64,
}

impl AttrDef {
    /// A numeric attribute over the unit interval, the paper's simulation
    /// default ("values from unit range", §IV-A).
    pub fn unit(name: impl Into<String>) -> Self {
        AttrDef {
            name: name.into(),
            ty: AttrType::Numeric,
            lo: 0.0,
            hi: 1.0,
        }
    }

    /// A numeric attribute over `[lo, hi]`.
    pub fn numeric(name: impl Into<String>, lo: f64, hi: f64) -> Self {
        AttrDef {
            name: name.into(),
            ty: AttrType::Numeric,
            lo,
            hi,
        }
    }

    /// An integer attribute over `[lo, hi]`.
    pub fn integer(name: impl Into<String>, lo: i64, hi: i64) -> Self {
        AttrDef {
            name: name.into(),
            ty: AttrType::Integer,
            lo: lo as f64,
            hi: hi as f64,
        }
    }

    /// A categorical attribute.
    pub fn categorical(name: impl Into<String>) -> Self {
        AttrDef {
            name: name.into(),
            ty: AttrType::Categorical,
            lo: 0.0,
            hi: 0.0,
        }
    }

    /// A free-text attribute.
    pub fn text(name: impl Into<String>) -> Self {
        AttrDef {
            name: name.into(),
            ty: AttrType::Text,
            lo: 0.0,
            hi: 0.0,
        }
    }

    /// A timestamp attribute over `[lo, hi]` epoch-milliseconds.
    pub fn timestamp(name: impl Into<String>, lo: i64, hi: i64) -> Self {
        AttrDef {
            name: name.into(),
            ty: AttrType::Timestamp,
            lo: lo as f64,
            hi: hi as f64,
        }
    }
}

/// Errors raised while constructing a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Two attributes share a name.
    DuplicateAttr(String),
    /// An ordered attribute's bounds are not `lo < hi`: empty, inverted or NaN.
    EmptyDomain(String),
    /// More attributes than `AttrId` can index.
    TooManyAttrs(usize),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::DuplicateAttr(n) => write!(f, "duplicate attribute name {n:?}"),
            SchemaError::EmptyDomain(n) => {
                write!(f, "attribute {n:?} has an empty domain (not lo < hi)")
            }
            SchemaError::TooManyAttrs(n) => write!(f, "{n} attributes exceed the u16 id space"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Immutable, shared schema all federation participants use.
///
/// Cloning is cheap (`Arc` inside); every record, summary and query carries
/// attribute ids resolved against one schema instance.
#[derive(Debug, Clone)]
pub struct Schema {
    inner: Arc<SchemaInner>,
}

#[derive(Debug)]
struct SchemaInner {
    attrs: Vec<AttrDef>,
    by_name: HashMap<String, AttrId>,
}

impl Schema {
    /// Build a schema from attribute definitions.
    pub fn new(attrs: Vec<AttrDef>) -> Result<Self, SchemaError> {
        if attrs.len() > u16::MAX as usize {
            return Err(SchemaError::TooManyAttrs(attrs.len()));
        }
        let mut by_name = HashMap::with_capacity(attrs.len());
        for (i, a) in attrs.iter().enumerate() {
            // "Not `lo < hi`" rather than `lo >= hi`, which a NaN bound
            // passes; histograms and store codes divide by `hi - lo`.
            let ascending = a.lo.partial_cmp(&a.hi) == Some(std::cmp::Ordering::Less);
            if a.ty.is_ordered() && !matches!(a.ty, AttrType::Text) && !ascending {
                return Err(SchemaError::EmptyDomain(a.name.clone()));
            }
            if by_name.insert(a.name.clone(), AttrId(i as u16)).is_some() {
                return Err(SchemaError::DuplicateAttr(a.name.clone()));
            }
        }
        Ok(Schema {
            inner: Arc::new(SchemaInner { attrs, by_name }),
        })
    }

    /// The simulation default schema: `n` numeric attributes `x0..x{n-1}`
    /// over the unit interval.
    pub fn unit_numeric(n: usize) -> Self {
        Schema::new((0..n).map(|i| AttrDef::unit(format!("x{i}"))).collect())
            .expect("generated names are unique")
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.inner.attrs.len()
    }

    /// True when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.inner.attrs.is_empty()
    }

    /// Look up an attribute id by name.
    pub fn id(&self, name: &str) -> Option<AttrId> {
        self.inner.by_name.get(name).copied()
    }

    /// Definition of an attribute.
    pub fn def(&self, id: AttrId) -> &AttrDef {
        &self.inner.attrs[id.index()]
    }

    /// Iterate over `(AttrId, &AttrDef)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttrDef)> {
        self.inner
            .attrs
            .iter()
            .enumerate()
            .map(|(i, d)| (AttrId(i as u16), d))
    }

    /// Two schemas are compatible when they point to the same instance or
    /// declare identical attribute lists.
    pub fn compatible(&self, other: &Schema) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.attrs == other.inner.attrs
    }
}

/// Incremental schema construction.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    attrs: Vec<AttrDef>,
}

impl SchemaBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an attribute definition.
    pub fn push(mut self, def: AttrDef) -> Self {
        self.attrs.push(def);
        self
    }

    /// Finish, validating name uniqueness and domains.
    pub fn build(self) -> Result<Schema, SchemaError> {
        Schema::new(self.attrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_numeric_schema() {
        let s = Schema::unit_numeric(16);
        assert_eq!(s.len(), 16);
        assert_eq!(s.id("x0"), Some(AttrId(0)));
        assert_eq!(s.id("x15"), Some(AttrId(15)));
        assert_eq!(s.id("x16"), None);
        assert_eq!(s.def(AttrId(3)).lo, 0.0);
        assert_eq!(s.def(AttrId(3)).hi, 1.0);
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![AttrDef::unit("a"), AttrDef::unit("a")]).unwrap_err();
        assert_eq!(err, SchemaError::DuplicateAttr("a".into()));
    }

    #[test]
    fn empty_domain_rejected() {
        let err = Schema::new(vec![AttrDef::numeric("a", 1.0, 1.0)]).unwrap_err();
        assert_eq!(err, SchemaError::EmptyDomain("a".into()));
    }

    #[test]
    fn nan_domain_bound_rejected() {
        // Regression: `lo >= hi` is false for NaN, so the schema was
        // accepted and `Histogram::new` panicked inside the network build.
        for (lo, hi) in [(f64::NAN, 1.0), (0.0, f64::NAN), (f64::NAN, f64::NAN)] {
            let err = Schema::new(vec![AttrDef::numeric("a", lo, hi)]).unwrap_err();
            assert_eq!(err, SchemaError::EmptyDomain("a".into()), "[{lo}, {hi}]");
        }
        // Infinite bounds stay legal: everything lands in one bucket.
        for (lo, hi) in [(0.0, f64::INFINITY), (f64::NEG_INFINITY, f64::INFINITY)] {
            assert!(Schema::new(vec![AttrDef::numeric("a", lo, hi)]).is_ok());
        }
    }

    #[test]
    fn categorical_has_no_domain_constraint() {
        let s = Schema::new(vec![AttrDef::categorical("enc")]).unwrap();
        assert!(!s.def(AttrId(0)).ty.is_ordered());
    }

    #[test]
    fn builder_matches_direct_construction() {
        let a = SchemaBuilder::new()
            .push(AttrDef::unit("x"))
            .push(AttrDef::categorical("c"))
            .build()
            .unwrap();
        let b = Schema::new(vec![AttrDef::unit("x"), AttrDef::categorical("c")]).unwrap();
        assert!(a.compatible(&b));
    }

    #[test]
    fn type_accepts() {
        assert!(AttrType::Numeric.accepts(&Value::Float(0.5)));
        assert!(!AttrType::Numeric.accepts(&Value::Int(1)));
        assert!(AttrType::Categorical.accepts(&Value::Cat("x".into())));
        assert!(AttrType::Timestamp.accepts(&Value::Timestamp(1)));
    }
}
