//! Record-store benchmarks: indexed search vs full scan (the DB2 stand-in
//! of the prototype runtime).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use roads_records::{Query, QueryBuilder, QueryId, Record, Schema};
use roads_runtime::RecordStore;
use roads_workload::{generate_node_records, RecordWorkloadConfig};

fn store_of(n: usize) -> (RecordStore, Schema) {
    let schema = Schema::unit_numeric(16);
    let records: Vec<Record> = generate_node_records(&RecordWorkloadConfig {
        nodes: 1,
        records_per_node: n,
        attrs: 16,
        seed: 9,
    })
    .remove(0);
    (RecordStore::new(schema.clone(), records), schema)
}

fn narrow_query(schema: &Schema) -> Query {
    QueryBuilder::new(schema, QueryId(0))
        .range("x0", 0.40, 0.42)
        .range("x4", 0.0, 1.0)
        .range("x8", 0.0, 1.0)
        .build()
}

/// Six medium-width ranges (the `live_selective` query shape): every
/// predicate's index run is hundreds of rows wide, so choosing the driving
/// index must not cost a candidate list per predicate.
fn six_range_query(schema: &Schema) -> Query {
    (0..6)
        .fold(QueryBuilder::new(schema, QueryId(1)), |b, d| {
            let lo = 0.1 * d as f64;
            b.range(&format!("x{d}"), lo, lo + 0.25)
        })
        .build()
}

fn bench_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("record_store");
    for &n in &[1_000usize, 10_000, 50_000] {
        let (store, schema) = store_of(n);
        let q = narrow_query(&schema);
        g.bench_with_input(BenchmarkId::new("indexed_search", n), &n, |b, _| {
            b.iter(|| black_box(&store).search(black_box(&q)))
        });
        g.bench_with_input(BenchmarkId::new("full_scan", n), &n, |b, _| {
            b.iter(|| {
                black_box(&store)
                    .records()
                    .iter()
                    .filter(|r| q.matches(r))
                    .count()
            })
        });
    }
    let (store, schema) = store_of(2_000);
    let q = six_range_query(&schema);
    g.bench_function("indexed_search_six_ranges/2000", |b| {
        b.iter(|| black_box(&store).search(black_box(&q)))
    });
    g.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("record_store_build");
    g.sample_size(10);
    let schema = Schema::unit_numeric(16);
    let records: Vec<Record> = generate_node_records(&RecordWorkloadConfig {
        nodes: 1,
        records_per_node: 10_000,
        attrs: 16,
        seed: 9,
    })
    .remove(0);
    g.bench_function("index_10k_x16", |b| {
        b.iter(|| RecordStore::new(schema.clone(), black_box(records.clone())))
    });
    g.finish();
}

criterion_group!(benches, bench_search, bench_build);
criterion_main!(benches);
