//! The four workloads: their constants, why each exists, and the inputs
//! generated from `--seed`. The program under test receives only what is
//! generated here.

use rand::rngs::StdRng;
use rand::Rng;
use roads_core::{RecordDelta, RoadsConfig, ServerId};
use roads_netsim::DelaySpace;
use roads_records::{Query, Record, Schema};
use roads_runtime::RuntimeConfig;
use roads_summary::SummaryConfig;
use roads_workload::{
    default_schema, generate_node_records, generate_queries, rng_stream, QueryWorkloadConfig,
    RecordWorkloadConfig,
};

/// Default `--seed`, recorded in `README.md`.
pub const DEFAULT_SEED: u64 = 0x5EED_0013;
/// Attributes per record on every workload.
pub const ATTRS: usize = 8;
/// Histogram buckets per attribute summary on every workload.
pub const SUMMARY_BUCKETS: usize = 128;
/// Hierarchy fan-out on every workload.
pub const MAX_CHILDREN: usize = 4;
/// Threads of `RoadsNetwork::build_with` during set-up (= `nproc` here).
pub const BUILD_THREADS: usize = 2;
/// Timed passes every untraced run completes, however slow the host; the
/// count metrics are taken over exactly these so they repeat per seed.
pub const MIN_PASSES: usize = 20;
/// Back-to-back set-up repetitions behind `setup_s`, at least.
pub const SETUP_REPS: usize = 9;
/// Seed of the synthesized delay space. The modelled network is part of
/// the test bed, like the fan-out: one fixed Internet for every `--seed`,
/// so `modelled_latency_ms` moves with the data and the queries, not with
/// where 16 or 64 points happened to land in the delay space.
pub const DELAY_SPACE_SEED: u64 = 0x1C99_2008;
/// Queries of each pass that a traced run records spans for.
pub const TRACED_QUERIES_PER_PASS: usize = 200;
/// Update rounds of each pass that a traced run records spans for.
pub const TRACED_ROUNDS_PER_PASS: usize = 3;

// Sub-seed salts: every generated input draws from its own stream of `--seed`.
const SALT_QUERIES: u64 = 0x51_7E41;
const SALT_DELTAS: u64 = 0xC4_0421;
const SALT_SEQUENCE: u64 = 0x21_9F5E;

/// Constants of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Which layers do the work here (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    pub servers: usize,
    pub records_per_server: usize,
    pub query_dims: usize,
    pub range_len: f64,
    /// Size of the distinct-query set.
    pub distinct_queries: usize,
    /// Queries issued per pass (`Q`).
    pub queries_per_pass: usize,
    /// Timed passes after which the query sequence repeats: pass `p`
    /// issues slice `p mod cycle_passes` of it. The tail of the latency
    /// distribution is then set by the heaviest percent of `cycle_passes
    /// × Q` queries, not of `Q`, and moves less from seed to seed.
    pub cycle_passes: usize,
    /// Queries between two readings of the reference kernel (about 40 ms
    /// of work).
    pub batch: usize,
    /// Update rounds per pass (`U`).
    pub rounds_per_pass: usize,
    /// Share of all records updated in place by one round.
    pub churn: f64,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Drives a `RoadsCluster`; otherwise queries go through the simulator.
    pub live: bool,
    pub planner: bool,
    /// Result-cache TTL in update rounds; 0 = no cache.
    pub cache_ttl_rounds: u64,
    /// Draw the pass's queries Zipf(1.0) from the distinct set, each with a
    /// fixed entry among the first `zipf_entries` servers.
    pub zipf_entries: Option<usize>,
    /// Call `advance_cache_round` after every this-many-th round.
    pub advance_every: usize,
    /// Percentile behind `query_p99_ms`, taken over the positions of the
    /// query sequence (at least 10 of them lie beyond it).
    pub tail: f64,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "live_selective",
        why: "many hops, few records: runtime dispatch/mailbox, engine.evaluate and summary.may_match do the work, stores almost none",
        servers: 64,
        records_per_server: 2_000,
        query_dims: 6,
        range_len: 0.25,
        distinct_queries: 1_200,
        queries_per_pass: 300,
        cycle_passes: 4,
        batch: 50,
        rounds_per_pass: 15,
        churn: 0.01,
        clients: 1,
        live: true,
        planner: false,
        cache_ttl_rounds: 0,
        zipf_entries: None,
        advance_every: 0,
        tail: 0.99,
    },
    Spec {
        name: "live_bulk",
        why: "few hops, large results: runtime RecordStore::search, record cloning, wire_size and reply assembly dominate; the only one with 2 clients",
        servers: 16,
        records_per_server: 2_500,
        query_dims: 2,
        range_len: 0.2,
        distinct_queries: 768,
        queries_per_pass: 192,
        cycle_passes: 4,
        batch: 48,
        rounds_per_pass: 15,
        churn: 0.01,
        clients: 2,
        live: true,
        planner: false,
        cache_ttl_rounds: 0,
        zipf_entries: None,
        advance_every: 0,
        tail: 0.95,
    },
    Spec {
        name: "live_repeat",
        why: "repeated queries with planner and TTL cache on: cache lookup/insert/invalidate_delta and planner.plan_query replace dispatch work",
        servers: 64,
        records_per_server: 2_000,
        query_dims: 6,
        range_len: 0.25,
        distinct_queries: 600,
        queries_per_pass: 1_200,
        cycle_passes: 4,
        batch: 200,
        rounds_per_pass: 15,
        churn: 0.001,
        clients: 1,
        live: true,
        planner: true,
        cache_ttl_rounds: 4,
        zipf_entries: Some(16),
        advance_every: 4,
        tail: 0.99,
    },
    Spec {
        name: "sim_churn",
        why: "the write side: store.apply_batch, Summary::replace_record, dirty-branch aggregation, plus the simulator query path with full-scan stores",
        servers: 64,
        records_per_server: 500,
        query_dims: 4,
        range_len: 0.25,
        distinct_queries: 2_000,
        queries_per_pass: 500,
        cycle_passes: 4,
        batch: 125,
        rounds_per_pass: 15,
        churn: 0.04,
        clients: 1,
        live: false,
        planner: false,
        cache_ttl_rounds: 0,
        zipf_entries: None,
        advance_every: 0,
        tail: 0.99,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn total_records(&self) -> usize {
        self.servers * self.records_per_server
    }

    pub fn changes_per_round(&self) -> usize {
        ((self.total_records() as f64 * self.churn) as usize).max(1)
    }

    pub fn roads_config(&self) -> RoadsConfig {
        RoadsConfig {
            max_children: MAX_CHILDREN,
            summary: SummaryConfig::with_buckets(SUMMARY_BUCKETS),
            ..RoadsConfig::paper_default()
        }
    }

    /// Zero modelled delay from config alone: nothing is slept, so a live
    /// query's wall time is the system's own CPU and scheduling cost.
    pub fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            delay_scale: 0.0,
            per_record_retrieval_us: 0,
            base_query_cost_us: 0,
            bandwidth_mbps: 1e12,
            dispatcher_threads: 2,
            enable_planner: self.planner,
            cache_ttl_rounds: self.cache_ttl_rounds,
            ..RuntimeConfig::paper_like()
        }
    }
}

/// Everything generated from `--seed` for one workload.
pub struct Inputs {
    pub seed: u64,
    pub schema: Schema,
    /// Generated records, per server; record id = server × per-server + i.
    pub records: Vec<Vec<Record>>,
    /// The distinct queries with their entry servers.
    pub queries: Vec<(Query, ServerId)>,
    /// Indices into `queries`, in the order one cycle of passes issues them.
    pub sequence: Vec<u32>,
    pub delays: DelaySpace,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let schema = default_schema(ATTRS);
        let records = generate_node_records(&RecordWorkloadConfig {
            nodes: spec.servers,
            records_per_node: spec.records_per_server,
            attrs: ATTRS,
            seed,
        });
        let entry_nodes = spec.zipf_entries.unwrap_or(spec.servers);
        let queries = generate_queries(
            &schema,
            &QueryWorkloadConfig {
                count: spec.distinct_queries,
                dims: spec.query_dims,
                range_len: spec.range_len,
                nodes: entry_nodes,
                seed: seed ^ SALT_QUERIES,
            },
        )
        .into_iter()
        .map(|(q, node)| (q, ServerId(node as u32)))
        .collect();
        let issued = spec.cycle_passes * spec.queries_per_pass;
        let sequence = match spec.zipf_entries {
            None => (0..issued as u32)
                .map(|i| i % spec.distinct_queries as u32)
                .collect(),
            Some(_) => zipf_sequence(
                spec.distinct_queries,
                issued,
                &mut rng_stream(seed ^ SALT_SEQUENCE, 0),
            ),
        };
        Inputs {
            seed,
            schema,
            records,
            queries,
            sequence,
            delays: DelaySpace::paper(spec.servers, DELAY_SPACE_SEED),
        }
    }

    /// The delta of update round `round` (0-based over the whole run):
    /// in-place updates to `churn` of all records. A record's new values
    /// are those of another generated record of the same server, so every
    /// server's value distribution — and with it the work of each pass —
    /// stays stationary however long the run.
    pub fn delta(&self, spec: &Spec, round: u64) -> RecordDelta {
        let mut rng = rng_stream(self.seed ^ SALT_DELTAS, round);
        let per = spec.records_per_server;
        let mut delta = RecordDelta::new();
        for _ in 0..spec.changes_per_round() {
            let server = rng.gen_range(0..spec.servers);
            let target = &self.records[server][rng.gen_range(0..per)];
            let donor = &self.records[server][rng.gen_range(0..per)];
            delta.update(
                ServerId(server as u32),
                Record::new_unchecked(target.id, target.owner, donor.values().to_vec()),
            );
        }
        delta
    }
}

/// `len` draws from Zipf(1.0) over ranks `0..n` by inverse-CDF lookup.
fn zipf_sequence(n: usize, len: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 1..=n {
        acc += 1.0 / rank as f64;
        cdf.push(acc);
    }
    (0..len)
        .map(|_| {
            let u = rng.gen_range(0.0..acc);
            cdf.partition_point(|&c| c <= u).min(n - 1) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let seq = zipf_sequence(50, 5_000, &mut rng_stream(1, 0));
        assert!(seq.iter().all(|&r| r < 50));
        let firsts = seq.iter().filter(|&&r| r == 0).count();
        let lasts = seq.iter().filter(|&&r| r == 49).count();
        assert!(firsts > 10 * lasts.max(1), "{firsts} vs {lasts}");
    }

    #[test]
    fn every_workload_meets_the_protocol_floor() {
        for s in &SPECS {
            assert!(
                s.rounds_per_pass * MIN_PASSES >= 300,
                "{}: >= 300 rounds",
                s.name
            );
            let positions = s.cycle_passes * s.queries_per_pass;
            let beyond = positions - (s.tail * positions as f64).ceil() as usize;
            assert!(
                beyond >= 10,
                "{}: {beyond} positions beyond the tail",
                s.name
            );
            // Every position is timed at least three times in the passes
            // every run completes.
            assert!(MIN_PASSES / s.cycle_passes >= 3);
            assert!(s.batch > 0 && s.batch % s.clients == 0);
            assert!(s.clients <= 2 && s.cycle_passes <= MIN_PASSES);
            assert!(s.distinct_queries <= s.cycle_passes * s.queries_per_pass);
        }
    }

    #[test]
    fn deltas_update_existing_records_in_place() {
        let spec = Spec {
            servers: 4,
            records_per_server: 100,
            ..SPECS[0]
        };
        let inputs = Inputs::generate(&spec, 5);
        let delta = inputs.delta(&spec, 0);
        assert_eq!(delta.len(), spec.changes_per_round());
        for (server, change) in delta.changes() {
            let r = change.record().expect("an update carries a record");
            assert_eq!(r.id.0 as usize / spec.records_per_server, server.index());
        }
    }
}
