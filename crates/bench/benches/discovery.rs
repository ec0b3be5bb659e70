//! Macro-level benchmarks: hierarchy construction, update rounds, and
//! query execution for ROADS and the SWORD baseline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use roads_bench::live::line_net;
use roads_core::{
    execute_query, update_round, HierarchyTree, RoadsConfig, RoadsNetwork, SearchScope, ServerId,
};
use roads_netsim::DelaySpace;
use roads_records::{QueryBuilder, QueryId, Schema};
use roads_runtime::{Attachments, RoadsCluster, RuntimeConfig};
use roads_summary::SummaryConfig;
use roads_sword::SwordNetwork;
use roads_telemetry::{Recorder, Registry, TailSampler};
use roads_workload::{
    default_schema, generate_node_records, generate_queries, line_records, QueryWorkloadConfig,
    RecordWorkloadConfig,
};
use std::sync::Arc;

fn setup(
    nodes: usize,
) -> (
    RoadsNetwork,
    SwordNetwork,
    DelaySpace,
    Vec<(roads_records::Query, usize)>,
) {
    let schema = default_schema(16);
    let records = generate_node_records(&RecordWorkloadConfig {
        nodes,
        records_per_node: 50,
        attrs: 16,
        seed: 4,
    });
    let net = RoadsNetwork::build(
        schema.clone(),
        RoadsConfig {
            summary: SummaryConfig::with_buckets(200),
            ..RoadsConfig::paper_default()
        },
        records.clone(),
    );
    let sword = SwordNetwork::build(schema.clone(), records);
    let delays = DelaySpace::paper(nodes, 4);
    let queries = generate_queries(
        &schema,
        &QueryWorkloadConfig {
            count: 32,
            dims: 6,
            range_len: 0.25,
            nodes,
            seed: 8,
        },
    );
    (net, sword, delays, queries)
}

fn bench_tree_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_build");
    for &n in &[64usize, 320, 640] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| HierarchyTree::build(black_box(n), 8))
        });
    }
    g.finish();
}

fn bench_query_exec(c: &mut Criterion) {
    let mut g = c.benchmark_group("query_exec");
    g.sample_size(20);
    for &n in &[64usize, 128] {
        let (net, sword, delays, queries) = setup(n);
        g.bench_with_input(BenchmarkId::new("roads", n), &n, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let (q, start) = &queries[i % queries.len()];
                i += 1;
                execute_query(
                    &net,
                    &delays,
                    black_box(q),
                    ServerId(*start as u32),
                    SearchScope::full(),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("sword", n), &n, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let (q, start) = &queries[i % queries.len()];
                i += 1;
                sword.execute_query(&delays, black_box(q), *start)
            })
        });
    }
    g.finish();
}

/// What observing the query path costs: `plain` is the simulated query
/// with nothing observing it (there is one executor, so "recorder
/// disabled" is this same call), and `live_off` / `live_all_on` is one
/// live cluster bare against the same cluster with every plane attached.
fn bench_recorder_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("recorder_overhead");
    g.sample_size(20);
    let (net, _, delays, queries) = setup(64);
    g.bench_function("plain", |b| {
        let mut i = 0;
        b.iter(|| {
            let (q, start) = &queries[i % queries.len()];
            i += 1;
            execute_query(
                &net,
                &delays,
                black_box(q),
                ServerId(*start as u32),
                SearchScope::full(),
            )
        })
    });
    fn live_cluster(attach: Attachments<'_>) -> RoadsCluster {
        let net = line_net(9, 10, 64);
        let cfg = RuntimeConfig {
            dispatch_timeout_ms: 400,
            max_retries: 1,
            backoff_base_ms: 5,
            query_deadline_ms: 10_000,
            delay_scale: 0.02,
            per_record_retrieval_us: 20,
            base_query_cost_us: 100,
            ..RuntimeConfig::paper_like()
        };
        let delays = DelaySpace::paper(net.len(), 7);
        RoadsCluster::start_with(net, delays, cfg, attach)
    }
    let live_queries: Vec<_> = (0..16)
        .map(|i| {
            let lo = 0.75 * (i as f64 * 0.37).fract();
            (lo, lo + 0.25)
        })
        .collect();
    let drive = |b: &mut criterion::Bencher, cluster: &RoadsCluster| {
        let schema = cluster.network().schema().clone();
        let root = cluster.network().tree().root();
        let mut i = 0;
        b.iter(|| {
            let (lo, hi) = live_queries[i % live_queries.len()];
            let q = QueryBuilder::new(&schema, QueryId(i as u64))
                .range("x0", lo, hi)
                .build();
            i += 1;
            black_box(cluster.query(&q, root))
        })
    };
    g.sample_size(10);
    g.bench_function("live_off", |b| {
        let cluster = live_cluster(Attachments::default());
        drive(b, &cluster);
        cluster.shutdown();
    });
    // Every plane at once: instrumented registry (with the live
    // false-positive counters on the reply path), flight recorder and
    // tail sampler.
    g.bench_function("live_all_on", |b| {
        let reg = Registry::new();
        let cluster = live_cluster(Attachments {
            recorder: Some(Arc::new(Recorder::new(65_536))),
            tail: Some(TailSampler::shared()),
            ..Attachments::instrumented(&reg)
        });
        drive(b, &cluster);
        cluster.shutdown();
    });
    g.finish();
}

/// Dispatch hops of the live cluster (ROADMAP item 1c) at zero delay,
/// where the client serves every contact in place and folds its reply
/// itself: `one_contact_zero_delay` is a one-server federation's query,
/// exactly one server step; `fanout_zero_delay` a full-range query on
/// 16 servers, one contact each.
fn bench_live_hop(c: &mut Criterion) {
    let mut g = c.benchmark_group("live_hop");
    let schema = Schema::unit_numeric(1);
    let cluster = |n: usize| {
        let net = RoadsNetwork::build(
            schema.clone(),
            RoadsConfig::paper_default(),
            line_records(n, 8),
        );
        RoadsCluster::start(
            net,
            DelaySpace::paper(n, 7),
            RuntimeConfig {
                delay_scale: 0.0,
                per_record_retrieval_us: 0,
                base_query_cost_us: 0,
                bandwidth_mbps: 1e12,
                ..RuntimeConfig::paper_like()
            },
        )
    };
    let one = cluster(1);
    let q = QueryBuilder::new(&schema, QueryId(0))
        .range("x0", 0.5, 0.55)
        .build();
    let out = one.query(&q, ServerId(0));
    assert_eq!((out.servers_contacted, out.records.len()), (1, 1));
    g.bench_function("one_contact_zero_delay", |b| {
        b.iter(|| black_box(one.query(black_box(&q), ServerId(0))))
    });
    one.shutdown();
    let sixteen = cluster(16);
    let everything = QueryBuilder::new(&schema, QueryId(1))
        .range("x0", 0.0, 1.0)
        .build();
    let out = sixteen.query(&everything, ServerId(0));
    assert_eq!((out.servers_contacted, out.records.len()), (16, 16 * 8));
    g.bench_function("fanout_zero_delay", |b| {
        b.iter(|| black_box(sixteen.query(black_box(&everything), ServerId(0))))
    });
    g.finish();
    sixteen.shutdown();
}

fn bench_update_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("update_round");
    g.sample_size(10);
    let (net, sword, _, _) = setup(128);
    g.bench_function("roads_128", |b| b.iter(|| update_round(black_box(&net))));
    g.bench_function("sword_128", |b| b.iter(|| black_box(&sword).update_round()));
    g.finish();
}

criterion_group!(
    benches,
    bench_tree_build,
    bench_query_exec,
    bench_recorder_overhead,
    bench_live_hop,
    bench_update_round
);
criterion_main!(benches);
