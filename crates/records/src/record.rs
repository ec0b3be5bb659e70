//! Resource records: one row of attribute values aligned to a schema.

use crate::attr::{AttrId, Schema};
use crate::value::Value;
use crate::wire::{WireSize, RECORD_HEADER_BYTES};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Globally unique record identifier, assigned by the owning organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RecordId(pub u64);

/// Identifier of a resource owner (an autonomous organization in the
/// federation, §II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct OwnerId(pub u32);

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for OwnerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Errors raised while building a record.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// A value's variant does not match the declared attribute type.
    TypeMismatch {
        /// Offending attribute.
        attr: AttrId,
        /// The rejected value.
        value: Value,
    },
    /// Not every schema attribute received a value.
    MissingAttr(AttrId),
    /// An ordered value lies outside the attribute's declared domain.
    OutOfDomain {
        /// Offending attribute.
        attr: AttrId,
        /// The out-of-range numeric view.
        value: f64,
    },
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::TypeMismatch { attr, value } => {
                write!(f, "value {value} does not match type of {attr}")
            }
            RecordError::MissingAttr(a) => write!(f, "attribute {a} has no value"),
            RecordError::OutOfDomain { attr, value } => {
                write!(f, "value {value} outside domain of {attr}")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// One resource description: a dense vector of values, one per schema
/// attribute, plus identity and ownership.
///
/// Records are *soft state* in ROADS — the owner re-exports them (or their
/// summary) periodically and stale entries expire (§III-B). Expiry is handled
/// by the summary layer's TTL wrapper; the record itself is plain data.
///
/// The values are immutable once built and shared by every clone, so
/// handing a record out — a search result, a cache entry, a delta payload,
/// a second copy of a store — is a reference-count bump, not a copy.
///
/// A record also knows its encoded size, so that charging a reply for the
/// bytes it carries reads one field and never the values. The size cannot
/// go stale: the values are immutable behind the `Arc`, and
/// [`Record::new_unchecked`] — where [`Record::new`], [`RecordBuilder`],
/// decoding and redaction all end — is the one place a record is built.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Unique id.
    pub id: RecordId,
    /// The organization that owns (and retains control of) this record.
    pub owner: OwnerId,
    /// Length of [`crate::wire::encode_record`]'s output, in the four bytes
    /// that would otherwise pad `owner`.
    wire: u32,
    /// Values, indexed by [`AttrId`].
    values: Arc<[Value]>,
}

// Protects `peak_rss_mb` and every table copy: stores, caches and replies
// hold records by value, two to a cache line; a fifth word would cost each
// of them a quarter more memory and every scan of handles more lines.
const _: () = assert!(std::mem::size_of::<Record>() == 32);

impl Record {
    /// Construct a record, validating against the schema.
    pub fn new(
        schema: &Schema,
        id: RecordId,
        owner: OwnerId,
        values: Vec<Value>,
    ) -> Result<Self, RecordError> {
        if values.len() != schema.len() {
            let missing = AttrId(values.len().min(u16::MAX as usize) as u16);
            return Err(RecordError::MissingAttr(missing));
        }
        for (i, v) in values.iter().enumerate() {
            let attr = AttrId(i as u16);
            let def = schema.def(attr);
            if !def.ty.accepts(v) {
                return Err(RecordError::TypeMismatch {
                    attr,
                    value: v.clone(),
                });
            }
            if def.ty.is_ordered() && !matches!(def.ty, crate::attr::AttrType::Text) {
                let f = v.as_f64().expect("ordered non-text values are numeric");
                if f < def.lo || f > def.hi {
                    return Err(RecordError::OutOfDomain { attr, value: f });
                }
            }
        }
        Ok(Record::new_unchecked(id, owner, values))
    }

    /// Construct without validation; used by trusted generators on hot paths.
    pub fn new_unchecked(id: RecordId, owner: OwnerId, values: Vec<Value>) -> Self {
        let wire = RECORD_HEADER_BYTES + values.iter().map(WireSize::wire_size).sum::<usize>();
        Record {
            id,
            owner,
            wire: u32::try_from(wire).expect("a record encodes to less than 4 GiB"),
            values: values.into(),
        }
    }

    /// Value of one attribute.
    pub fn get(&self, attr: AttrId) -> &Value {
        &self.values[attr.index()]
    }

    /// Numeric view of one attribute, if it has one.
    pub fn get_f64(&self, attr: AttrId) -> Option<f64> {
        self.values[attr.index()].as_f64()
    }

    /// All values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.values.len()
    }
}

impl WireSize for Record {
    fn wire_size(&self) -> usize {
        self.wire as usize
    }
}

/// Named-attribute record construction, resolving names through the schema.
#[derive(Debug)]
pub struct RecordBuilder<'a> {
    schema: &'a Schema,
    id: RecordId,
    owner: OwnerId,
    values: Vec<Option<Value>>,
}

impl<'a> RecordBuilder<'a> {
    /// Start building a record for `schema`.
    pub fn new(schema: &'a Schema, id: RecordId, owner: OwnerId) -> Self {
        RecordBuilder {
            schema,
            id,
            owner,
            values: vec![None; schema.len()],
        }
    }

    /// Set an attribute by name. Unknown names are ignored so callers can
    /// feed heterogeneous sources; validation happens in [`Self::build`].
    pub fn set(mut self, name: &str, value: impl Into<Value>) -> Self {
        if let Some(id) = self.schema.id(name) {
            self.values[id.index()] = Some(value.into());
        }
        self
    }

    /// Finish, requiring every attribute to have a value of the right type.
    pub fn build(self) -> Result<Record, RecordError> {
        let mut out = Vec::with_capacity(self.values.len());
        for (i, v) in self.values.into_iter().enumerate() {
            match v {
                Some(v) => out.push(v),
                None => return Err(RecordError::MissingAttr(AttrId(i as u16))),
            }
        }
        Record::new(self.schema, self.id, self.owner, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrDef;

    fn camera_schema() -> Schema {
        Schema::new(vec![
            AttrDef::categorical("type"),
            AttrDef::categorical("encoding"),
            AttrDef::numeric("rate", 0.0, 10_000.0),
        ])
        .unwrap()
    }

    #[test]
    fn builder_by_name() {
        let s = camera_schema();
        let r = RecordBuilder::new(&s, RecordId(1), OwnerId(7))
            .set("type", "camera")
            .set("encoding", "MPEG2")
            .set("rate", 100.0)
            .build()
            .unwrap();
        assert_eq!(r.get(s.id("encoding").unwrap()).as_str(), Some("MPEG2"));
        assert_eq!(r.get_f64(s.id("rate").unwrap()), Some(100.0));
        assert_eq!(r.owner, OwnerId(7));
    }

    #[test]
    fn missing_attr_rejected() {
        let s = camera_schema();
        let err = RecordBuilder::new(&s, RecordId(1), OwnerId(0))
            .set("type", "camera")
            .build()
            .unwrap_err();
        assert!(matches!(err, RecordError::MissingAttr(_)));
    }

    #[test]
    fn type_mismatch_rejected() {
        let s = camera_schema();
        let err = Record::new(
            &s,
            RecordId(1),
            OwnerId(0),
            vec![
                Value::Cat("camera".into()),
                Value::Float(1.0), // wrong: encoding is categorical
                Value::Float(5.0),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, RecordError::TypeMismatch { .. }));
    }

    #[test]
    fn out_of_domain_rejected() {
        let s = camera_schema();
        let err = Record::new(
            &s,
            RecordId(1),
            OwnerId(0),
            vec![
                Value::Cat("camera".into()),
                Value::Cat("MPEG2".into()),
                Value::Float(20_000.0),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, RecordError::OutOfDomain { .. }));
    }

    #[test]
    fn a_clone_shares_its_values() {
        let s = camera_schema();
        let build = || {
            RecordBuilder::new(&s, RecordId(1), OwnerId(7))
                .set("type", "camera")
                .set("encoding", "MPEG2")
                .set("rate", 100.0)
                .build()
                .unwrap()
        };
        let r = build();
        let c = r.clone();
        assert_eq!(c, r);
        assert_eq!(format!("{c:?}"), format!("{r:?}"));
        assert_eq!(c.values().as_ptr(), r.values().as_ptr(), "no copy");
        // Two builds of the same record are equal but independent.
        let other = build();
        assert_eq!(other, r);
        assert_ne!(other.values().as_ptr(), r.values().as_ptr());
    }

    #[test]
    fn unknown_names_ignored_by_builder() {
        let s = camera_schema();
        let err = RecordBuilder::new(&s, RecordId(1), OwnerId(0))
            .set("type", "camera")
            .set("encoding", "MPEG2")
            .set("rate", 1.0)
            .set("nonexistent", 9.0)
            .build();
        assert!(err.is_ok());
    }
}
