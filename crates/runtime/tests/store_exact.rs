//! `RecordStore::search` is exact: it returns the records a brute-force
//! `Query::matches` scan returns — over random schemas, records with
//! absent and duplicate values, and queries that include inverted, point
//! and wrongly-typed predicates — on a table built in bulk and on one
//! that random upserts and removals keep changing, whose summary stays
//! equal to a from-scratch summary of its rows.
//!
//! The store searches two-byte codes of the values — one byte in the
//! scan, the second on a bound's coarse bucket — and asks the record only
//! where the full code cannot tell, so the inputs aim at where that could
//! slip: values and bounds on a coarse (1/256) and on a fine (1/65 536)
//! bucket's edge and one ulp either side, outside the declared domain,
//! infinite and NaN; ranges narrower than a bucket; domains that are not `[0, 1]`; several ranges on one
//! attribute (whenever two predicates draw the same one); tables that end
//! just before, on and just after a scan block's edge, and removals that
//! move a row from one block into another.

use proptest::prelude::*;
use roads_core::{RecordChange, ServerStore};
use roads_records::{
    AttrDef, AttrId, OwnerId, Predicate, Query, QueryId, Record, RecordId, Schema, Value,
};
use roads_runtime::RecordStore;
use roads_summary::{Summary, SummaryConfig};
use std::collections::BTreeMap;

const MAX_ARITY: usize = 4;
const WORDS: [&str; 5] = ["a", "b", "c", "d", "zz"];
const BLOCK: usize = RecordStore::BLOCK;
/// Table sizes at the edges of the scan: empty, shorter than, equal to
/// and just past the eight flags gathered at a time, and ragged tails
/// around one and several blocks.
const EDGE_SIZES: [usize; 9] = [0, 1, 7, 8, 9, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5];
const MAX_ROWS: usize = 3 * BLOCK + 5;

/// `kinds[i]`: 0 numeric on `[0, 1]`, 1 integer, 2 categorical, 3 numeric
/// with a negative lower bound, 4 timestamp-sized.
fn schema_of(kinds: &[u8]) -> Schema {
    Schema::new(
        kinds
            .iter()
            .enumerate()
            .map(|(i, k)| match k {
                0 => AttrDef::numeric(format!("a{i}"), 0.0, 1.0),
                1 => AttrDef::integer(format!("a{i}"), 0, 10),
                2 => AttrDef::categorical(format!("a{i}")),
                3 => AttrDef::numeric(format!("a{i}"), -50.0, 30.0),
                _ => AttrDef::timestamp(format!("a{i}"), 0, 2_000_000_000_000),
            })
            .collect(),
    )
    .expect("distinct attribute names")
}

/// Where a number lies relative to an attribute's domain: `(shape, k, t)`,
/// see [`place`]. Cell values and predicate bounds draw from the same
/// places, so they meet.
type Point = (u8, u32, f64);

fn point() -> impl Strategy<Value = Point> {
    (0u8..20, 0u32..1024, 0.0f64..1.0)
}

fn place(def: &AttrDef, (shape, k, t): Point) -> f64 {
    let width = def.hi - def.lo;
    // Where the store's code steps up to `bucket`, give or take the
    // rounding the neighbours cover. Half the draws share nine buckets,
    // so that values and bounds meet in one.
    let bucket = if k < 512 { k % 9 * 32 } else { k % 257 };
    let edge = def.lo + bucket as f64 * (width / 256.0);
    // Where the fine byte steps up, in the first four fine buckets of
    // those coarse ones: values and bounds meet in one fine bucket too.
    let fine_edge = edge + (k % 4) as f64 * (width / 65_536.0);
    match shape {
        // A coarse grid reaching one cell past the domain on either side:
        // duplicates are the rule.
        0..=3 => def.lo + ((k % 11) as f64 - 1.0) * 0.125 * width,
        4 | 5 => def.lo + t * width,
        6 | 7 => edge + t * (width / 256.0),
        8 => edge,
        9 => edge.next_up(),
        10 => edge.next_down(),
        11 => def.lo - t * width,
        12 => def.hi + t * width,
        13 => f64::INFINITY,
        14 => f64::NEG_INFINITY,
        16 => fine_edge,
        17 => fine_edge.next_up(),
        18 => fine_edge.next_down(),
        19 => fine_edge + t * (width / 65_536.0),
        _ => f64::NAN,
    }
}

/// One cell. One in ten is a value of the *other* family — no numeric
/// view in an ordered attribute, no string view in a categorical one: the
/// absent case.
fn cell(def: &AttrDef, kind: u8, p: Point) -> Value {
    let absent = p.1 % 10 == 9;
    match (kind, absent) {
        (2, false) => Value::Cat(WORDS[p.1 as usize % 4].into()),
        (2, true) => Value::Float(0.5),
        (_, true) => Value::Cat("a".into()),
        (1, false) => Value::Int(place(def, p).round() as i64),
        (4, false) => Value::Timestamp(place(def, p).round() as i64),
        (_, false) => Value::Float(place(def, p)),
    }
}

/// What one predicate is drawn from: `(attribute, shape, a, b)`, where
/// `shape` picks the variant, see [`predicate`].
type PredicateDraw = (usize, u8, Point, Point);

fn predicate_draw() -> impl Strategy<Value = PredicateDraw> {
    (0usize..MAX_ARITY, 0u8..8, point(), point())
}

fn predicate(schema: &Schema, (attr, shape, a, b): PredicateDraw) -> Predicate {
    let attr = AttrId((attr % schema.len()) as u16);
    let def = schema.def(attr);
    match shape {
        // Any two places: inverted about half the time, and on a
        // categorical attribute whenever `attr` is one.
        0..=2 => Predicate::Range {
            attr,
            lo: place(def, a),
            hi: place(def, b),
        },
        3 => Predicate::Range {
            attr,
            lo: place(def, a),
            hi: place(def, a),
        },
        // A sliver of a code bucket.
        4 => Predicate::Range {
            attr,
            lo: place(def, a),
            hi: place(def, a) + (def.hi - def.lo) / 1024.0,
        },
        5 => Predicate::Eq {
            attr,
            value: Value::Cat(WORDS[a.1 as usize % 5].into()),
        },
        6 => Predicate::Eq {
            attr,
            value: if b.1 % 2 == 0 {
                Value::Float(place(def, a))
            } else {
                Value::Int(place(def, a).round() as i64)
            },
        },
        _ => Predicate::OneOf {
            attr,
            // Unknown ("zz") and repeated (a == b) values included.
            values: vec![
                WORDS[a.1 as usize % 5].to_owned(),
                WORDS[b.1 as usize % 5].to_owned(),
            ],
        },
    }
}

fn query_of(schema: &Schema, preds: Vec<PredicateDraw>) -> Query {
    Query::new(
        QueryId(0),
        preds.into_iter().map(|p| predicate(schema, p)).collect(),
    )
}

fn record(schema: &Schema, kinds: &[u8], id: u64, points: &[Point]) -> Record {
    let values = schema
        .iter()
        .zip(kinds.iter().zip(points))
        .map(|((_, def), (&k, &p))| cell(def, k, p))
        .collect();
    Record::new_unchecked(RecordId(id), OwnerId(0), values)
}

/// The very same record, or none on both sides. (Not `==`: a record
/// holding a NaN does not equal itself.)
fn same(a: &Option<Record>, b: &Option<Record>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.id == b.id && a.values().as_ptr() == b.values().as_ptr(),
        (None, None) => true,
        _ => false,
    }
}

proptest! {
    #[test]
    fn search_equals_brute_force_scan(
        kinds in prop::collection::vec(0u8..5, 1..=MAX_ARITY),
        // An edge size, or (from 9 up) a small one.
        (edge, small) in (0usize..18, 0usize..80),
        rows in prop::collection::vec(prop::collection::vec(point(), MAX_ARITY..=MAX_ARITY), MAX_ROWS..=MAX_ROWS),
        preds in prop::collection::vec(predicate_draw(), 0..5),
    ) {
        let schema = schema_of(&kinds);
        let size = EDGE_SIZES.get(edge).copied().unwrap_or(small);
        let records: Vec<Record> = rows[..size]
            .iter()
            .enumerate()
            .map(|(row, points)| record(&schema, &kinds, row as u64, points))
            .collect();
        let query = query_of(&schema, preds);
        let store = RecordStore::new(schema, records.clone());

        let mut found: Vec<u64> = store.search(&query).iter().map(|r| r.id.0).collect();
        found.sort_unstable();
        let expected: Vec<u64> = records
            .iter()
            .filter(|r| query.matches(r))
            .map(|r| r.id.0)
            .collect();
        prop_assert_eq!(store.count(&query), expected.len());
        prop_assert_eq!(store.any_match(&query), !expected.is_empty());
        prop_assert_eq!(found, expected, "query {:?}", query);
    }

    /// The same exactness while the table changes: a random sequence of
    /// upserts (new id, existing id, re-insert after a removal) and
    /// removals (present, absent) against a `BTreeMap` model. After every
    /// step the table — driven directly, and as the `ServerStore` a
    /// network keeps per server — answers like a brute-force scan of the
    /// model, and the store's summary is the summary of the rows.
    #[test]
    fn search_and_summaries_stay_exact_under_churn(
        kinds in prop::collection::vec(0u8..5, 1..=MAX_ARITY),
        // One table in four starts around a scan block's edge, where a
        // removal moves the last row into another block and an upsert
        // opens a new one; the rest start small.
        (edge, small) in (0usize..16, 0usize..12),
        initial in prop::collection::vec(prop::collection::vec(point(), MAX_ARITY..=MAX_ARITY), 2 * BLOCK + 3..=2 * BLOCK + 3),
        steps in prop::collection::vec(
            // (remove?, id, cells): ids from a small pool, so most steps
            // hit an id that is, or once was, stored.
            (any::<bool>(), 0u64..16, prop::collection::vec(point(), MAX_ARITY..=MAX_ARITY)),
            1..40,
        ),
        queries in prop::collection::vec(prop::collection::vec(predicate_draw(), 0..4), 1..4),
    ) {
        let schema = schema_of(&kinds);
        let config = SummaryConfig::with_buckets(8);
        let queries: Vec<Query> = queries
            .into_iter()
            .map(|preds| query_of(&schema, preds))
            .collect();
        let size = [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]
            .get(edge)
            .copied()
            .unwrap_or(small);
        let seed: Vec<Record> = initial[..size]
            .iter()
            .enumerate()
            .map(|(i, points)| record(&schema, &kinds, i as u64, points))
            .collect();
        let mut model: BTreeMap<u64, Record> = seed.iter().map(|r| (r.id.0, r.clone())).collect();
        let mut table = RecordStore::new(schema.clone(), seed.clone());
        let mut server = ServerStore::new(&schema, &config, seed);

        for (remove, id, points) in steps {
            // Twelve ids at the head of the table, four astride the first
            // block's edge.
            let id = if id < 12 { id } else { BLOCK as u64 - 14 + id };
            let change = if remove {
                prop_assert!(same(&table.remove(RecordId(id)), &model.remove(&id)));
                RecordChange::Remove(RecordId(id))
            } else {
                let r = record(&schema, &kinds, id, &points);
                prop_assert!(same(&table.upsert(r.clone()), &model.insert(id, r.clone())));
                RecordChange::Update(r)
            };
            let effect = server.apply_batch(&[&change]);
            prop_assert_eq!(effect.applied + effect.rejected, 1);

            for store in [&table, server.table()] {
                prop_assert_eq!(store.len(), model.len());
                prop_assert_eq!(store.is_empty(), model.is_empty());
                for query in &queries {
                    let expected: Vec<u64> = model
                        .values()
                        .filter(|r| query.matches(r))
                        .map(|r| r.id.0)
                        .collect();
                    let mut found: Vec<u64> = store.search(query).iter().map(|r| r.id.0).collect();
                    found.sort_unstable();
                    prop_assert_eq!(&found, &expected, "query {:?}", query);
                    prop_assert_eq!(store.count(query), expected.len());
                    prop_assert_eq!(store.any_match(query), !expected.is_empty());
                }
            }
            prop_assert_eq!(
                *server.summary(),
                Summary::from_records(&schema, &config, server.table().records())
            );
            prop_assert_eq!(
                *server.summary(),
                Summary::from_records(&schema, &config, model.values())
            );
        }
    }
}
