//! Wire encoding and byte-size accounting.
//!
//! The paper's overhead metrics are "total number of bytes sent" for updates
//! and query forwarding (§V). To account identically across ROADS, SWORD and
//! the central repository, every message payload implements [`WireSize`] and
//! a real (round-trippable) encoding, so a byte claimed by the simulators is
//! a byte the encoder actually produces.

use crate::attr::AttrId;
use crate::query::{Predicate, Query, QueryId};
use crate::record::{OwnerId, Record, RecordId};
use crate::value::Value;
use bytes::{Buf, BufMut, BytesMut};

/// Exact number of bytes a payload occupies on the wire.
pub trait WireSize {
    /// Encoded size in bytes.
    fn wire_size(&self) -> usize;
}

/// What [`encode_record`] writes ahead of the values: id (8) + owner (4) +
/// arity (2).
pub(crate) const RECORD_HEADER_BYTES: usize = 14;

/// Fixed per-message envelope the simulators add on top of every payload
/// (source, destination, type tag, length) — a stand-in for UDP/TCP framing.
pub const MSG_HEADER_BYTES: usize = 20;

impl WireSize for Value {
    fn wire_size(&self) -> usize {
        1 + match self {
            Value::Float(_) | Value::Int(_) | Value::Timestamp(_) => 8,
            Value::Text(s) | Value::Cat(s) => 2 + s.len(),
        }
    }
}

impl WireSize for Predicate {
    fn wire_size(&self) -> usize {
        // attr (2) + tag (1) + payload
        3 + match self {
            Predicate::Range { .. } => 16,
            Predicate::Eq { value, .. } => value.wire_size(),
            Predicate::OneOf { values, .. } => {
                2 + values.iter().map(|v| 2 + v.len()).sum::<usize>()
            }
        }
    }
}

impl WireSize for Query {
    fn wire_size(&self) -> usize {
        // id (8) + count (2) + predicates
        10 + self
            .predicates()
            .iter()
            .map(WireSize::wire_size)
            .sum::<usize>()
    }
}

impl<T: WireSize> WireSize for [T] {
    fn wire_size(&self) -> usize {
        2 + self.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_size(&self) -> usize {
        self.as_slice().wire_size()
    }
}

const TAG_FLOAT: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_TEXT: u8 = 2;
const TAG_CAT: u8 = 3;
const TAG_TS: u8 = 4;

/// Encode a value into `buf`; the encoded length equals `wire_size()`.
pub fn encode_value(v: &Value, buf: &mut BytesMut) {
    match v {
        Value::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64(*f);
        }
        Value::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64(*i);
        }
        Value::Text(s) => {
            buf.put_u8(TAG_TEXT);
            put_str(s, buf);
        }
        Value::Cat(s) => {
            buf.put_u8(TAG_CAT);
            put_str(s, buf);
        }
        Value::Timestamp(t) => {
            buf.put_u8(TAG_TS);
            buf.put_i64(*t);
        }
    }
}

/// Decode a value previously written by [`encode_value`]; `None` on
/// truncated or malformed input (never panics).
pub fn decode_value(buf: &mut impl Buf) -> Option<Value> {
    if buf.remaining() < 1 {
        return None;
    }
    Some(match buf.get_u8() {
        TAG_FLOAT => Value::Float(get_f64(buf)?),
        TAG_INT => Value::Int(get_i64(buf)?),
        TAG_TEXT => Value::Text(get_str(buf)?.into()),
        TAG_CAT => Value::Cat(get_str(buf)?.into()),
        TAG_TS => Value::Timestamp(get_i64(buf)?),
        _ => return None,
    })
}

fn get_f64(buf: &mut impl Buf) -> Option<f64> {
    (buf.remaining() >= 8).then(|| buf.get_f64())
}

fn get_i64(buf: &mut impl Buf) -> Option<i64> {
    (buf.remaining() >= 8).then(|| buf.get_i64())
}

/// Encode a full record; the encoded length equals `wire_size()`.
pub fn encode_record(r: &Record, buf: &mut BytesMut) {
    buf.put_u64(r.id.0);
    buf.put_u32(r.owner.0);
    buf.put_u16(r.values().len() as u16);
    for v in r.values() {
        encode_value(v, buf);
    }
}

/// Decode a record previously written by [`encode_record`].
pub fn decode_record(buf: &mut impl Buf) -> Option<Record> {
    if buf.remaining() < RECORD_HEADER_BYTES {
        return None;
    }
    let id = RecordId(buf.get_u64());
    let owner = OwnerId(buf.get_u32());
    let n = buf.get_u16() as usize;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(decode_value(buf)?);
    }
    Some(Record::new_unchecked(id, owner, values))
}

const PTAG_RANGE: u8 = 0;
const PTAG_EQ: u8 = 1;
const PTAG_ONEOF: u8 = 2;

/// Encode a query; the encoded length equals `wire_size()`.
pub fn encode_query(q: &Query, buf: &mut BytesMut) {
    buf.put_u64(q.id.0);
    buf.put_u16(q.predicates().len() as u16);
    for p in q.predicates() {
        buf.put_u16(p.attr().0);
        match p {
            Predicate::Range { lo, hi, .. } => {
                buf.put_u8(PTAG_RANGE);
                buf.put_f64(*lo);
                buf.put_f64(*hi);
            }
            Predicate::Eq { value, .. } => {
                buf.put_u8(PTAG_EQ);
                encode_value(value, buf);
            }
            Predicate::OneOf { values, .. } => {
                buf.put_u8(PTAG_ONEOF);
                buf.put_u16(values.len() as u16);
                for v in values {
                    put_str(v, buf);
                }
            }
        }
    }
}

/// Decode a query previously written by [`encode_query`].
pub fn decode_query(buf: &mut impl Buf) -> Option<Query> {
    if buf.remaining() < 10 {
        return None;
    }
    let id = QueryId(buf.get_u64());
    let n = buf.get_u16() as usize;
    let mut preds = Vec::with_capacity(n);
    for _ in 0..n {
        if buf.remaining() < 3 {
            return None;
        }
        let attr = AttrId(buf.get_u16());
        preds.push(match buf.get_u8() {
            PTAG_RANGE => Predicate::Range {
                attr,
                lo: get_f64(buf)?,
                hi: get_f64(buf)?,
            },
            PTAG_EQ => Predicate::Eq {
                attr,
                value: decode_value(buf)?,
            },
            PTAG_ONEOF => {
                if buf.remaining() < 2 {
                    return None;
                }
                let k = buf.get_u16() as usize;
                let mut values = Vec::with_capacity(k);
                for _ in 0..k {
                    values.push(get_str(buf)?);
                }
                Predicate::OneOf { attr, values }
            }
            _ => return None,
        });
    }
    Some(Query::new(id, preds))
}

fn put_str(s: &str, buf: &mut BytesMut) {
    // The wire format carries a u16 length prefix; longer strings would be
    // silently truncated to a corrupt stream, so reject them loudly.
    assert!(
        s.len() <= u16::MAX as usize,
        "string value exceeds the 64 KiB wire limit ({} bytes)",
        s.len()
    );
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut impl Buf) -> Option<String> {
    if buf.remaining() < 2 {
        return None;
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return None;
    }
    let mut bytes = vec![0u8; len];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AttrDef, Schema};
    use crate::query::QueryBuilder;
    use crate::record::RecordBuilder;

    fn schema() -> Schema {
        Schema::new(vec![
            AttrDef::categorical("type"),
            AttrDef::numeric("rate", 0.0, 1000.0),
            AttrDef::text("note"),
            AttrDef::timestamp("seen", 0, i64::MAX - 1),
        ])
        .unwrap()
    }

    fn sample_record() -> Record {
        RecordBuilder::new(&schema(), RecordId(42), OwnerId(3))
            .set("type", "camera")
            .set("rate", 99.5)
            .set("note", Value::Text("front door".into()))
            .set("seen", Value::Timestamp(1_700_000_000_000))
            .build()
            .unwrap()
    }

    #[test]
    fn record_roundtrip_and_size() {
        let r = sample_record();
        let mut buf = BytesMut::new();
        encode_record(&r, &mut buf);
        assert_eq!(buf.len(), r.wire_size());
        let back = decode_record(&mut buf.freeze()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn query_roundtrip_and_size() {
        let s = schema();
        let q = QueryBuilder::new(&s, QueryId(7))
            .eq("type", "camera")
            .range("rate", 10.0, 500.0)
            .one_of("type", &["camera", "mic"])
            .build();
        let mut buf = BytesMut::new();
        encode_query(&q, &mut buf);
        assert_eq!(buf.len(), q.wire_size());
        let back = decode_query(&mut buf.freeze()).unwrap();
        assert_eq!(back, q);
    }

    #[test]
    fn value_sizes() {
        assert_eq!(Value::Float(1.0).wire_size(), 9);
        assert_eq!(Value::Cat("MPEG2".into()).wire_size(), 8);
        assert_eq!(Value::Text("".into()).wire_size(), 3);
    }

    #[test]
    fn truncated_input_yields_none() {
        let r = sample_record();
        let mut buf = BytesMut::new();
        encode_record(&r, &mut buf);
        let truncated = buf.freeze().slice(0..10);
        assert!(decode_record(&mut truncated.clone()).is_none());
    }

    #[test]
    fn vec_wire_size_includes_count_prefix() {
        let v = vec![Value::Float(0.0), Value::Float(1.0)];
        assert_eq!(v.wire_size(), 2 + 9 + 9);
    }
}
