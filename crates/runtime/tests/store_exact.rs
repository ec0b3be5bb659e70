//! `RecordStore::search` is exact: it returns the records a brute-force
//! `Query::matches` scan returns — over random schemas, records with
//! absent and duplicate values, and queries that include inverted, point
//! and wrongly-typed predicates — on a table built in bulk and on one
//! that random upserts and removals keep changing, whose shard summaries
//! stay equal to a from-scratch summary of its rows.

use proptest::prelude::*;
use roads_core::{RecordChange, ShardedStore};
use roads_records::{
    AttrDef, AttrId, OwnerId, Predicate, Query, QueryId, Record, RecordId, Schema, Value,
};
use roads_runtime::RecordStore;
use roads_summary::{Summary, SummaryConfig};
use std::collections::BTreeMap;

const MAX_ARITY: usize = 4;
const WORDS: [&str; 5] = ["a", "b", "c", "d", "zz"];

/// `kinds[i]`: 0 numeric, 1 integer, 2 categorical.
fn schema_of(kinds: &[u8]) -> Schema {
    Schema::new(
        kinds
            .iter()
            .enumerate()
            .map(|(i, k)| match k {
                0 => AttrDef::numeric(format!("a{i}"), 0.0, 1.0),
                1 => AttrDef::integer(format!("a{i}"), 0, 10),
                _ => AttrDef::categorical(format!("a{i}")),
            })
            .collect(),
    )
    .expect("distinct attribute names")
}

/// A cell on a coarse grid, so duplicates are the rule. One code in ten
/// yields a value of the *other* family — no numeric view in an ordered
/// attribute, no string view in a categorical one: the absent case.
fn cell(kind: u8, code: u32) -> Value {
    let absent = code % 10 == 9;
    match (kind, absent) {
        (0, false) => Value::Float((code % 8) as f64 * 0.125),
        (1, false) => Value::Int((code % 6) as i64),
        (2, false) => Value::Cat(WORDS[code as usize % 4].to_owned()),
        (2, true) => Value::Float(0.5),
        (_, true) => Value::Cat("a".to_owned()),
        _ => unreachable!("three attribute kinds"),
    }
}

fn grid(code: u32) -> f64 {
    (code % 11) as f64 * 0.125 - 0.125
}

/// `(attribute, shape, a, b)` → one predicate; `shape` picks the variant.
fn predicate(arity: usize, (attr, shape, a, b): (usize, u8, u32, u32)) -> Predicate {
    let attr = AttrId((attr % arity) as u16);
    match shape {
        // Any two grid points: inverted about half the time, and on a
        // categorical attribute whenever `attr` is one.
        0 | 1 => Predicate::Range {
            attr,
            lo: grid(a),
            hi: grid(b),
        },
        2 => Predicate::Range {
            attr,
            lo: grid(a),
            hi: grid(a),
        },
        3 => Predicate::Eq {
            attr,
            value: Value::Cat(WORDS[a as usize % 5].to_owned()),
        },
        4 => Predicate::Eq {
            attr,
            value: if b % 2 == 0 {
                Value::Float(grid(a))
            } else {
                Value::Int((a % 6) as i64)
            },
        },
        _ => Predicate::OneOf {
            attr,
            // Unknown ("zz") and repeated (a == b) values included.
            values: vec![
                WORDS[a as usize % 5].to_owned(),
                WORDS[b as usize % 5].to_owned(),
            ],
        },
    }
}

fn record(kinds: &[u8], id: u64, codes: &[u32]) -> Record {
    let values = kinds.iter().zip(codes).map(|(&k, &c)| cell(k, c)).collect();
    Record::new_unchecked(RecordId(id), OwnerId(0), values)
}

proptest! {
    #[test]
    fn search_equals_brute_force_scan(
        kinds in prop::collection::vec(0u8..3, 1..=MAX_ARITY),
        rows in prop::collection::vec(prop::collection::vec(0u32..40, MAX_ARITY..=MAX_ARITY), 0..80),
        preds in prop::collection::vec((0usize..MAX_ARITY, 0u8..6, 0u32..40, 0u32..40), 0..5),
    ) {
        let schema = schema_of(&kinds);
        let records: Vec<Record> = rows
            .iter()
            .enumerate()
            .map(|(row, codes)| {
                let values = kinds.iter().zip(codes).map(|(&k, &c)| cell(k, c)).collect();
                Record::new_unchecked(RecordId(row as u64), OwnerId(0), values)
            })
            .collect();
        let query = Query::new(
            QueryId(0),
            preds.into_iter().map(|p| predicate(kinds.len(), p)).collect(),
        );
        let store = RecordStore::new(schema, records.clone());

        let mut found: Vec<u64> = store.search(&query).iter().map(|r| r.id.0).collect();
        found.sort_unstable();
        let expected: Vec<u64> = records
            .iter()
            .filter(|r| query.matches(r))
            .map(|r| r.id.0)
            .collect();
        prop_assert_eq!(found, expected, "query {:?}", query);
    }

    /// The same exactness while the table changes: a random sequence of
    /// upserts (new id, existing id, re-insert after a removal) and
    /// removals (present, absent) against a `BTreeMap` model. After every
    /// step the table — driven directly, and as the `ShardedStore` a
    /// network keeps per server — answers like a brute-force scan of the
    /// model, and the shard summaries merge to the summary of the rows.
    #[test]
    fn search_and_summaries_stay_exact_under_churn(
        kinds in prop::collection::vec(0u8..3, 1..=MAX_ARITY),
        initial in prop::collection::vec(prop::collection::vec(0u32..40, MAX_ARITY..=MAX_ARITY), 0..12),
        steps in prop::collection::vec(
            // (remove?, id, codes): ids from a small pool, so most steps
            // hit an id that is, or once was, stored.
            (any::<bool>(), 0u64..16, prop::collection::vec(0u32..40, MAX_ARITY..=MAX_ARITY)),
            1..40,
        ),
        queries in prop::collection::vec(
            prop::collection::vec((0usize..MAX_ARITY, 0u8..6, 0u32..40, 0u32..40), 0..4),
            1..4,
        ),
    ) {
        let schema = schema_of(&kinds);
        let config = SummaryConfig::with_buckets(8);
        let queries: Vec<Query> = queries
            .into_iter()
            .map(|preds| {
                Query::new(
                    QueryId(0),
                    preds.into_iter().map(|p| predicate(kinds.len(), p)).collect(),
                )
            })
            .collect();
        let seed: Vec<Record> = initial
            .iter()
            .enumerate()
            .map(|(i, codes)| record(&kinds, i as u64, codes))
            .collect();
        let mut model: BTreeMap<u64, Record> = seed.iter().map(|r| (r.id.0, r.clone())).collect();
        let mut table = RecordStore::new(schema.clone(), seed.clone());
        let mut sharded = ShardedStore::new(&schema, &config, seed);

        for (remove, id, codes) in steps {
            let change = if remove {
                prop_assert_eq!(table.remove(RecordId(id)), model.remove(&id));
                RecordChange::Remove(RecordId(id))
            } else {
                let r = record(&kinds, id, &codes);
                prop_assert_eq!(table.upsert(r.clone()), model.insert(id, r.clone()));
                RecordChange::Update(r)
            };
            let mut churn = Summary::empty(&schema, &config);
            let effect = sharded.apply_batch(&[&change], &mut churn);
            prop_assert_eq!(effect.applied + effect.rejected, 1);

            for store in [&table, sharded.table()] {
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
                sharded.local_summary(),
                Summary::from_records(&schema, &config, sharded.table().records())
            );
            prop_assert_eq!(
                sharded.local_summary(),
                Summary::from_records(&schema, &config, model.values())
            );
        }
    }
}
