//! Record-store benchmarks: the one `RecordStore` (the DB2 stand-in of the
//! simulator, the update rounds and the live servers) at 500 / 2 000 /
//! 20 000 / 200 000 rows — the last is the paper's Fig. 11 size. Search is
//! a pass over one-byte code columns, O(rows) by design, so its scaling is
//! recorded here rather than discovered later; `full_scan` is the
//! per-record `Query::matches` walk it replaces, and `one_bucket` the case
//! where the codes tell nothing and every row is verified on its record.
//!
//! `delta_round` is the write side at the benchmark's sizes: one
//! [`ServerStore`] batch (table ops + folding both sides of every change
//! into the store's summary, and handing both sides back), the same batch
//! where a categorical attribute makes the summary refuse every removal —
//! the whole store is then re-summarised once per batch — and a whole
//! `update_round_delta` over 64 such stores.
//!
//! `reply_assembly` is what one live server does with a `live_bulk`
//! request after routing it: search, the owner's disclosure, the byte count
//! the emulated transfer is charged by, and the drop the client ends with —
//! the per-record cost of a reply, over that workload's sixteen stores at
//! its store size and a larger one.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use roads_core::policy::{apply_policy, OpenPolicy, RequesterId, SharingPolicy};
use roads_core::{
    update_round_delta, RecordChange, RecordDelta, RecordStore, RoadsConfig, RoadsNetwork,
    ServerId, ServerStore,
};
use roads_records::{AttrDef, Query, QueryBuilder, QueryId, Record, Schema, Value, WireSize};
use roads_summary::SummaryConfig;
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

/// `id` carrying the values of `values`: an in-place update of every
/// attribute.
fn reissue(id: &Record, values: &Record) -> Record {
    Record::new_unchecked(id.id, id.owner, values.values().to_vec())
}

/// [`reissue`], record by record.
fn reissued(ids: &[Record], values: &[Record]) -> Vec<Record> {
    ids.iter()
        .zip(values)
        .map(|(id, values)| reissue(id, values))
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
        let updates = reissued(&records, &records_of(n, 10));
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

/// Two ranges of width 0.2, `live_bulk`'s shape: ≈ 6 % of the rows match.
fn bulk_query(schema: &Schema) -> Query {
    QueryBuilder::new(schema, QueryId(4))
        .range("x0", 0.3, 0.5)
        .range("x1", 0.4, 0.6)
        .build()
}

fn bench_reply_assembly(c: &mut Criterion) {
    /// `live_bulk`'s federation: a request finds its server's rows as the
    /// other fifteen left the caches.
    const SERVERS: usize = 16;
    let schema = Schema::unit_numeric(ATTRS);
    let query = bulk_query(&schema);
    // Behind `dyn`, as a live server holds its owner's policy.
    let policy: &dyn SharingPolicy = black_box(&OpenPolicy);
    let mut g = c.benchmark_group("reply_assembly");
    for n in [2_500, 20_000] {
        let stores: Vec<RecordStore> = generate_node_records(&RecordWorkloadConfig {
            nodes: SERVERS,
            records_per_node: n,
            attrs: ATTRS,
            seed: 9,
        })
        .into_iter()
        .map(|records| RecordStore::new(schema.clone(), records))
        .collect();
        let mut next = 0;
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                next = (next + 1) % SERVERS;
                let found = black_box(&stores[next]).search(black_box(&query));
                let reply = apply_policy(policy, RequesterId(0), found);
                let bytes: usize = reply.iter().map(WireSize::wire_size).sum();
                black_box((bytes, reply)).0
            })
        });
    }
    g.finish();
}

/// Rows per store, histogram buckets and the share of a federation's
/// records one round changes, as `sim_churn` and `live_selective` run them.
const ROUND_ROWS: usize = 2_000;
const ROUND_BUCKETS: usize = 128;
const ROUND_SERVERS: usize = 64;
const ROUND_CHANGES_PER_SERVER: usize = ROUND_ROWS / 100;

/// `records` with the last attribute replaced by one of four categories.
fn with_kind(records: &[Record]) -> Vec<Record> {
    const KINDS: [&str; 4] = ["camera", "drone", "lidar", "sonar"];
    records
        .iter()
        .map(|r| {
            let mut values = r.values().to_vec();
            values[ATTRS - 1] = Value::Cat(KINDS[(r.id.0 % 4) as usize].into());
            Record::new_unchecked(r.id, r.owner, values)
        })
        .collect()
}

/// Batches of `sizes` consecutive changes of `changes`, walked cyclically,
/// applied to a store over `records`.
fn bench_batches(
    g: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    sizes: &[usize],
    schema: &Schema,
    records: &[Record],
    changes: &[RecordChange],
) {
    let config = SummaryConfig::with_buckets(ROUND_BUCKETS);
    let mut store = ServerStore::new(schema, &config, records.to_vec());
    let changes: Vec<&RecordChange> = changes.iter().collect();
    for &k in sizes {
        let mut at = 0;
        g.bench_with_input(BenchmarkId::new(name, k), &k, |b, &k| {
            b.iter(|| {
                if at + k > changes.len() {
                    at = 0;
                }
                let effect = store.apply_batch(&changes[at..at + k]);
                at += k;
                effect.applied
            })
        });
    }
}

fn bench_delta_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("delta_round");
    let records = records_of(ROUND_ROWS, 9);
    // Every id updated with another seed's values, then with its own
    // again: a cycle of changes that never runs out of new values.
    let cycle = |records: &[Record], other: &[Record]| -> Vec<RecordChange> {
        reissued(records, other)
            .into_iter()
            .chain(records.iter().cloned())
            .map(RecordChange::Update)
            .collect()
    };

    let other = records_of(ROUND_ROWS, 10);
    bench_batches(
        &mut g,
        "apply_batch",
        &[1, 20, 200],
        &Schema::unit_numeric(ATTRS),
        &records,
        &cycle(&records, &other),
    );

    // One categorical attribute: every update displaces a value no value
    // set can unlearn, so every batch ends in a rebuild over all the rows.
    let typed_schema = Schema::new(
        (0..ATTRS - 1)
            .map(|i| AttrDef::unit(format!("x{i}")))
            .chain([AttrDef::categorical("kind")])
            .collect(),
    )
    .expect("distinct names");
    let typed = with_kind(&records);
    bench_batches(
        &mut g,
        "apply_batch_categorical",
        &[1, 8, 20],
        &typed_schema,
        &typed,
        &cycle(&typed, &with_kind(&other)),
    );

    // A whole incremental round: 1 % of every store's rows updated, rows
    // scattered over the store, every server and every branch dirty.
    let workload = |seed| {
        generate_node_records(&RecordWorkloadConfig {
            nodes: ROUND_SERVERS,
            records_per_node: ROUND_ROWS,
            attrs: ATTRS,
            seed,
        })
    };
    let (stored, other) = (workload(9), workload(10));
    let rounds = ROUND_ROWS / ROUND_CHANGES_PER_SERVER;
    let deltas: Vec<RecordDelta> = (0..2 * rounds)
        .map(|round| {
            let mut delta = RecordDelta::new();
            for (s, (mine, theirs)) in stored.iter().zip(&other).enumerate() {
                let values = if round < rounds { theirs } else { mine };
                for j in 0..ROUND_CHANGES_PER_SERVER {
                    let row = (round + j * rounds) % ROUND_ROWS;
                    delta.update(ServerId(s as u32), reissue(&mine[row], &values[row]));
                }
            }
            delta
        })
        .collect();
    drop(other);
    let config = RoadsConfig {
        summary: SummaryConfig::with_buckets(ROUND_BUCKETS),
        ..RoadsConfig::paper_default()
    };
    let mut net = RoadsNetwork::build(Schema::unit_numeric(ATTRS), config, stored);
    let mut next = 0;
    g.bench_function("update_round_delta/64x2000_1pct", |b| {
        b.iter(|| {
            next = (next + 1) % deltas.len();
            update_round_delta(&mut net, &deltas[next]).0.total_bytes()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_store,
    bench_reply_assembly,
    bench_delta_round
);
criterion_main!(benches);
