//! Record-store benchmarks: the one `RecordStore` (the DB2 stand-in of the
//! simulator, the update rounds and the live servers) at 500 / 2 000 /
//! 20 000 / 200 000 rows — the last is the paper's Fig. 11 size. Search is
//! a pass over one-byte code columns, O(rows) by design, so its scaling is
//! recorded here rather than discovered later; `full_scan` is the
//! per-record `Query::matches` walk it replaces, and `one_bucket` the case
//! where the codes tell nothing and every row is verified on its record.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use roads_core::RecordStore;
use roads_records::{Query, QueryBuilder, QueryId, Record, Schema, Value};
use roads_workload::{generate_node_records, RecordWorkloadConfig};

const ATTRS: usize = 8;
const SIZES: [usize; 4] = [500, 2_000, 20_000, 200_000];

fn records_of(n: usize, seed: u64) -> Vec<Record> {
    generate_node_records(&RecordWorkloadConfig {
        nodes: 1,
        records_per_node: n,
        attrs: ATTRS,
        seed,
    })
    .remove(0)
}

/// One narrow range ahead of two wide ones: the first pass cuts the
/// selection to ≈ 2 % of the rows.
fn narrow_query(schema: &Schema) -> Query {
    QueryBuilder::new(schema, QueryId(0))
        .range("x0", 0.40, 0.42)
        .range("x4", 0.0, 1.0)
        .range("x7", 0.0, 1.0)
        .build()
}

/// Six medium-width ranges (the `live_selective` query shape): no single
/// predicate is selective, the conjunction is.
fn six_range_query(schema: &Schema) -> Query {
    (0..6)
        .fold(QueryBuilder::new(schema, QueryId(1)), |b, d| {
            let lo = 0.1 * d as f64;
            b.range(&format!("x{d}"), lo, lo + 0.25)
        })
        .build()
}

/// Two disjoint ranges on one attribute: each passes rows, no row passes
/// both, and nothing but the scan can tell.
fn miss_query(schema: &Schema) -> Query {
    QueryBuilder::new(schema, QueryId(2))
        .range("x0", 0.40, 0.42)
        .range("x0", 0.60, 0.62)
        .build()
}

/// The second quarter of code bucket 128 of `x0`.
fn one_bucket_query(schema: &Schema) -> Query {
    QueryBuilder::new(schema, QueryId(3))
        .range("x0", 0.5 + 0.25 / 256.0, 0.5 + 0.5 / 256.0)
        .build()
}

/// `records` with every `x0` squeezed into code bucket 128, `[0.5, 0.5 +
/// 1/256)`: all rows survive the code compare of [`one_bucket_query`] as
/// boundary rows, a quarter of them match.
fn squeezed(records: &[Record]) -> Vec<Record> {
    records
        .iter()
        .map(|r| {
            let mut values = r.values().to_vec();
            let x0 = values[0].as_f64().expect("numeric workload");
            values[0] = Value::Float(0.5 + x0 / 257.0);
            Record::new_unchecked(r.id, r.owner, values)
        })
        .collect()
}

fn bench_store(c: &mut Criterion) {
    let schema = Schema::unit_numeric(ATTRS);
    let narrow = narrow_query(&schema);
    let six = six_range_query(&schema);
    let miss = miss_query(&schema);
    let one_bucket = one_bucket_query(&schema);
    let mut g = c.benchmark_group("record_store");
    for &n in &SIZES {
        let records = records_of(n, 9);
        let mut store = RecordStore::new(schema.clone(), records.clone());
        g.bench_with_input(BenchmarkId::new("search", n), &n, |b, _| {
            b.iter(|| black_box(&store).search(black_box(&narrow)).len())
        });
        g.bench_with_input(BenchmarkId::new("search_six_ranges", n), &n, |b, _| {
            b.iter(|| black_box(&store).search(black_box(&six)).len())
        });
        g.bench_with_input(BenchmarkId::new("count", n), &n, |b, _| {
            b.iter(|| black_box(&store).count(black_box(&narrow)))
        });
        g.bench_with_input(BenchmarkId::new("any_match_hit", n), &n, |b, _| {
            b.iter(|| black_box(&store).any_match(black_box(&narrow)))
        });
        g.bench_with_input(BenchmarkId::new("any_match_miss", n), &n, |b, _| {
            b.iter(|| black_box(&store).any_match(black_box(&miss)))
        });
        g.bench_with_input(BenchmarkId::new("full_scan", n), &n, |b, _| {
            b.iter(|| {
                black_box(&store)
                    .records()
                    .iter()
                    .filter(|r| narrow.matches(r))
                    .count()
            })
        });

        // In-place update of every attribute: the stored ids with another
        // seed's values, cycling over the rows.
        let updates: Vec<Record> = records
            .iter()
            .zip(records_of(n, 10))
            .map(|(old, new)| Record::new_unchecked(old.id, old.owner, new.values().to_vec()))
            .collect();
        let mut next = 0;
        g.bench_with_input(BenchmarkId::new("upsert", n), &n, |b, _| {
            b.iter(|| {
                next = (next + 1) % updates.len();
                store.upsert(updates[next].clone())
            })
        });
        drop(store);

        let store = RecordStore::new(schema.clone(), squeezed(&records));
        g.bench_with_input(BenchmarkId::new("one_bucket", n), &n, |b, _| {
            b.iter(|| black_box(&store).search(black_box(&one_bucket)).len())
        });
        drop(store);

        g.bench_with_input(BenchmarkId::new("new", n), &n, |b, _| {
            b.iter(|| RecordStore::new(schema.clone(), black_box(records.clone())))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
