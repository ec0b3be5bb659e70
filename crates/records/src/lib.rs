//! Resource record model for ROADS (ICPP 2008).
//!
//! Federated resources are described by records of attribute–value pairs
//! (§II of the paper): a camera data source might be
//! `{type=camera, encoding=MPEG2, rate=100Kbps, resolution=640x480}`.
//! Users locate resources with multi-dimensional range queries.
//!
//! This crate provides:
//!
//! * [`Schema`] / [`AttrDef`] — the common attribute schema all federation
//!   participants agree on (the paper assumes schema mapping is solved and a
//!   shared schema exists).
//! * [`Value`] — typed attribute values (numeric, integer, string,
//!   categorical, timestamp).
//! * [`Record`] — one resource description, aligned to a schema.
//! * [`Query`] / [`Predicate`] — conjunctive multi-dimensional range queries.
//! * [`wire`] — byte-accurate encoding used by the simulators to account for
//!   message sizes exactly the way the paper's analysis does.

pub mod attr;
pub mod query;
pub mod record;
pub mod value;
pub mod wire;

pub use attr::{AttrDef, AttrId, AttrType, Schema, SchemaBuilder, SchemaError};
pub use query::{Predicate, Query, QueryBuilder, QueryId};
pub use record::{OwnerId, Record, RecordBuilder, RecordError, RecordId};
pub use value::{Str, Value};
pub use wire::WireSize;
