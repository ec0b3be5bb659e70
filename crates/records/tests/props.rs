//! Property tests: wire-format round trips and query semantics.

use bytes::BytesMut;
use proptest::prelude::*;
use roads_records::wire::{
    decode_query, decode_record, decode_value, encode_query, encode_record, encode_value,
};
use roads_records::{
    AttrId, OwnerId, Predicate, Query, QueryId, Record, RecordId, Schema, Value, WireSize,
};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<f64>()
            .prop_filter("finite", |f| f.is_finite())
            .prop_map(Value::Float),
        any::<i64>().prop_map(Value::Int),
        // Lengths on both sides of one byte's range: a size that counted
        // the prefix wrong would show.
        "[a-zA-Z0-9 _-]{0,300}".prop_map(|s| Value::Text(s.into())),
        "[a-zA-Z0-9_-]{0,300}".prop_map(|s| Value::Cat(s.into())),
        any::<i64>().prop_map(Value::Timestamp),
    ]
}

/// Every variant at its edges: NaN (any bit pattern), signed-zero and
/// infinite floats, the extreme integers, and empty, long and non-ASCII
/// strings (one-, two-, three- and four-byte UTF-8 and NUL).
fn arb_edge_value() -> impl Strategy<Value = Value> {
    const CHARS: &str = "[a-zA-Z0-9 \"\\\u{0}é中🦀]{0,2000}";
    let int = || prop_oneof![Just(i64::MIN), Just(i64::MAX), Just(0i64), any::<i64>()];
    prop_oneof![
        prop_oneof![
            Just(f64::NAN),
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            any::<f64>(),
        ]
        .prop_map(Value::Float),
        int().prop_map(Value::Int),
        int().prop_map(Value::Timestamp),
        CHARS.prop_map(|s| Value::Text(s.into())),
        CHARS.prop_map(|s| Value::Cat(s.into())),
        Just(Value::Text("".into())),
        Just(Value::Cat("".into())),
    ]
}

fn arb_record() -> impl Strategy<Value = Record> {
    (
        any::<u64>(),
        any::<u32>(),
        prop::collection::vec(arb_value(), 0..12),
    )
        .prop_map(|(id, owner, values)| Record::new_unchecked(RecordId(id), OwnerId(owner), values))
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    prop_oneof![
        (any::<u16>(), -1.0f64..1.0, 0.0f64..1.0).prop_map(|(a, lo, w)| Predicate::Range {
            attr: AttrId(a),
            lo,
            hi: lo + w,
        }),
        (any::<u16>(), arb_value()).prop_map(|(a, value)| Predicate::Eq {
            attr: AttrId(a),
            value,
        }),
        (
            any::<u16>(),
            prop::collection::vec("[a-z0-9]{0,10}".prop_map(String::from), 0..5)
        )
            .prop_map(|(a, values)| Predicate::OneOf {
                attr: AttrId(a),
                values,
            }),
    ]
}

fn arb_query() -> impl Strategy<Value = Query> {
    (any::<u64>(), prop::collection::vec(arb_predicate(), 0..8))
        .prop_map(|(id, preds)| Query::new(QueryId(id), preds))
}

proptest! {
    #[test]
    fn value_roundtrip(v in arb_edge_value()) {
        let mut buf = BytesMut::new();
        encode_value(&v, &mut buf);
        prop_assert_eq!(buf.len(), v.wire_size());
        let back = decode_value(&mut buf.freeze()).expect("decodes");
        match (&back, &v) {
            // NaN is not equal to itself: floats compare by their bits.
            (Value::Float(a), Value::Float(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
            _ => prop_assert_eq!(&back, &v),
        }
        // A string value prints as the `String` it holds would.
        if let Some(s) = v.as_str().map(String::from) {
            let (variant, shown) = match v {
                Value::Text(_) => ("Text", format!("{s:?}")),
                _ => ("Cat", s.clone()),
            };
            prop_assert_eq!(format!("{v:?}"), format!("{variant}({s:?})"));
            prop_assert_eq!(v.to_string(), shown);
        }
    }

    #[test]
    fn record_roundtrip(r in arb_record()) {
        let mut buf = BytesMut::new();
        encode_record(&r, &mut buf);
        prop_assert_eq!(buf.len(), r.wire_size());
        let back = decode_record(&mut buf.freeze()).expect("decodes");
        // The size a record carries is the one its constructor computed:
        // a decoded record and a clone must carry the encoder's count too.
        prop_assert_eq!(back.wire_size(), r.wire_size());
        prop_assert_eq!(r.clone().wire_size(), r.wire_size());
        prop_assert_eq!(back, r);
    }

    #[test]
    fn query_roundtrip(q in arb_query()) {
        let mut buf = BytesMut::new();
        encode_query(&q, &mut buf);
        prop_assert_eq!(buf.len(), q.wire_size());
        let back = decode_query(&mut buf.freeze()).expect("decodes");
        prop_assert_eq!(back, q);
    }

    #[test]
    fn truncated_record_never_panics(r in arb_record(), cut in 0usize..64) {
        let mut buf = BytesMut::new();
        encode_record(&r, &mut buf);
        let take = cut.min(buf.len());
        let slice = buf.freeze().slice(0..take);
        // Must return None or a record, never panic.
        let _ = decode_record(&mut slice.clone());
    }

    #[test]
    fn range_predicate_matches_iff_in_bounds(v in 0.0f64..1.0, lo in 0.0f64..1.0, w in 0.0f64..1.0) {
        let schema = Schema::unit_numeric(1);
        let r = Record::new_unchecked(RecordId(0), OwnerId(0), vec![Value::Float(v)]);
        let hi = (lo + w).min(1.0);
        let p = Predicate::Range { attr: AttrId(0), lo, hi };
        prop_assert_eq!(p.matches(&r), lo <= v && v <= hi);
        let _ = schema;
    }

    #[test]
    fn conjunction_is_intersection(v0 in 0.0f64..1.0, v1 in 0.0f64..1.0) {
        let r = Record::new_unchecked(
            RecordId(0),
            OwnerId(0),
            vec![Value::Float(v0), Value::Float(v1)],
        );
        let p0 = Predicate::Range { attr: AttrId(0), lo: 0.25, hi: 0.75 };
        let p1 = Predicate::Range { attr: AttrId(1), lo: 0.5, hi: 1.0 };
        let q = Query::new(QueryId(0), vec![p0.clone(), p1.clone()]);
        prop_assert_eq!(q.matches(&r), p0.matches(&r) && p1.matches(&r));
    }

    #[test]
    fn uniform_selectivity_bounded(lo in 0.0f64..1.0, w in 0.0f64..1.0) {
        let schema = Schema::unit_numeric(2);
        let q = Query::new(QueryId(0), vec![
            Predicate::Range { attr: AttrId(0), lo, hi: lo + w },
            Predicate::Range { attr: AttrId(1), lo: 0.0, hi: 1.0 },
        ]);
        let s = q.uniform_selectivity(&schema);
        prop_assert!((0.0..=1.0).contains(&s));
    }
}
