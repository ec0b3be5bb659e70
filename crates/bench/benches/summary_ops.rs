//! Micro-benchmarks for the summary layer: the data structures every
//! update round and query evaluation touch.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use roads_core::{RoadsConfig, RoadsNetwork, ServerId};
use roads_records::{AttrId, Predicate, Query, QueryId, Schema};
use roads_summary::{BloomFilter, Histogram, Summary, SummaryConfig};
use roads_workload::{
    default_schema, generate_node_records, generate_queries, QueryWorkloadConfig,
    RecordWorkloadConfig,
};

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("histogram");
    for &m in &[100usize, 1000] {
        g.bench_with_input(BenchmarkId::new("insert_1k", m), &m, |b, &m| {
            b.iter(|| {
                let mut h = Histogram::new(0.0, 1.0, m);
                for i in 0..1000 {
                    h.insert(black_box((i % 97) as f64 / 97.0));
                }
                h
            })
        });
        let a = Histogram::from_values(0.0, 1.0, m, (0..500).map(|i| (i % 89) as f64 / 89.0));
        let b2 = Histogram::from_values(0.0, 1.0, m, (0..500).map(|i| (i % 83) as f64 / 83.0));
        g.bench_with_input(BenchmarkId::new("merge", m), &m, |b, _| {
            b.iter(|| {
                let mut x = a.clone();
                x.merge(black_box(&b2)).unwrap();
                x
            })
        });
        g.bench_with_input(BenchmarkId::new("range_query", m), &m, |b, _| {
            b.iter(|| black_box(&a).may_match_range(black_box(0.4), black_box(0.6)))
        });
        // The kernel every fold and every range test runs, 1 000 times:
        // in, around and outside the domain.
        let values: Vec<f64> = (0..1000).map(|i| (i % 97) as f64 / 89.0 - 0.04).collect();
        g.bench_with_input(BenchmarkId::new("bucket_of_1k", m), &m, |b, _| {
            b.iter(|| {
                black_box(&values)
                    .iter()
                    .map(|&v| black_box(&a).bucket_of(v))
                    .sum::<usize>()
            })
        });
    }
    g.finish();
}

fn bench_bloom(c: &mut Criterion) {
    let mut g = c.benchmark_group("bloom");
    let mut f = BloomFilter::with_capacity(10_000, 0.01);
    for i in 0..10_000 {
        f.insert(&format!("element-{i}"));
    }
    g.bench_function("insert", |b| {
        let mut f = BloomFilter::with_capacity(10_000, 0.01);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            f.insert(black_box(&format!("element-{i}")));
        })
    });
    g.bench_function("contains_hit", |b| {
        b.iter(|| black_box(&f).contains(black_box("element-5000")))
    });
    g.bench_function("contains_miss", |b| {
        b.iter(|| black_box(&f).contains(black_box("absent-key")))
    });
    g.finish();
}

fn bench_summary(c: &mut Criterion) {
    let mut g = c.benchmark_group("summary");
    g.sample_size(20);
    let records = generate_node_records(&RecordWorkloadConfig {
        nodes: 1,
        records_per_node: 500,
        attrs: 16,
        seed: 1,
    })
    .remove(0);
    let schema = Schema::unit_numeric(16);
    let cfg = SummaryConfig::with_buckets(1000);
    g.bench_function("build_500x16_m1000", |b| {
        b.iter(|| Summary::from_records(&schema, &cfg, black_box(&records)))
    });
    let s1 = Summary::from_records(&schema, &cfg, &records);
    let s2 = s1.clone();
    g.bench_function("merge_16attr_m1000", |b| {
        b.iter(|| {
            let mut x = s1.clone();
            x.merge(black_box(&s2)).unwrap();
            x
        })
    });
    let q = Query::new(
        QueryId(0),
        (0..6)
            .map(|i| Predicate::Range {
                attr: AttrId(i * 2),
                lo: 0.3,
                hi: 0.55,
            })
            .collect(),
    );
    g.bench_function("may_match_6dim", |b| {
        b.iter(|| black_box(&s1).may_match(black_box(&q)))
    });

    // The routing step on a network shaped like the benchmark's sim_churn
    // workload: 64 servers of 500 records, 8 attributes, 128 buckets,
    // degree 4, and its 4-range queries of a quarter of each domain, each
    // with its entry server. Each iteration takes the next query in turn.
    let schema = default_schema(8);
    let records = generate_node_records(&RecordWorkloadConfig {
        nodes: 64,
        records_per_node: 500,
        attrs: 8,
        seed: 1,
    });
    let config = RoadsConfig {
        max_children: 4,
        summary: SummaryConfig::with_buckets(128),
        ..RoadsConfig::paper_default()
    };
    let net = RoadsNetwork::build(schema.clone(), config, records);
    let queries = generate_queries(
        &schema,
        &QueryWorkloadConfig {
            count: 256,
            dims: 4,
            range_len: 0.25,
            nodes: 64,
            seed: 2,
        },
    );
    // The branch summary with the most parts: what an entry tests for
    // each branch it replicates.
    let branch = (0..net.len() as u32)
        .map(|s| net.branch_summary(ServerId(s)))
        .max_by_key(|b| b.part_count())
        .expect("a network of 64 servers");
    let mut next = (0..queries.len()).cycle();
    g.bench_function("may_match_branch_with_parts", |b| {
        b.iter(|| {
            let (q, _) = &queries[next.next().unwrap_or(0)];
            black_box(branch).may_match(black_box(q))
        })
    });
    g.bench_function("evaluate_entry", |b| {
        b.iter(|| {
            let (q, entry) = &queries[next.next().unwrap_or(0)];
            black_box(&net).evaluate(ServerId(*entry as u32), black_box(q), true)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_histogram, bench_bloom, bench_summary);
criterion_main!(benches);
