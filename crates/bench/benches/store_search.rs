//! Record-store benchmarks: the one `RecordStore` (the DB2 stand-in of the
//! simulator, the update rounds and the live servers) at 500 / 2 000 /
//! 20 000 / 200 000 rows — the last is the paper's Fig. 11 size. Search is
//! a column pass, O(rows) by design, so its scaling is recorded here
//! rather than discovered later; `full_scan` is the per-record
//! `Query::matches` walk it replaces.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use roads_core::RecordStore;
use roads_records::{Query, QueryBuilder, QueryId, Record, Schema};
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

fn bench_store(c: &mut Criterion) {
    let schema = Schema::unit_numeric(ATTRS);
    let narrow = narrow_query(&schema);
    let six = six_range_query(&schema);
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

        g.bench_with_input(BenchmarkId::new("new", n), &n, |b, _| {
            b.iter(|| RecordStore::new(schema.clone(), black_box(records.clone())))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
