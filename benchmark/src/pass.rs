//! One pass of a workload — `U` update rounds, then `Q` queries — timed
//! call by call, with every answer checked against the oracle after the
//! pass, outside the timed sections.

use crate::host::{self, Calibration};
use crate::layers::Layers;
use crate::oracle::{self, Checksum, Expected};
use crate::system::System;
use crate::workloads::{Inputs, Spec, BUILD_THREADS};
use roads_core::{
    execute_query, execute_query_cached, plan_query, update_round_delta, DeltaOutcome,
    QueryOutcome, QueryPlan, RecordDelta, ResultCache, SearchScope, ServerId, UpdateBreakdown,
};
use roads_records::{Query, Record};
use roads_runtime::RuntimeOutcome;
use std::time::Instant;

/// Update rounds between two readings of the reference kernel.
const ROUNDS_PER_READING: usize = 5;

/// `sim_churn` re-derives the oracle on this rotating share of each pass's
/// queries after the pass's rounds have changed the data.
const SIM_ORACLE_SAMPLE: usize = 50;

/// What one issued query returned, and how long the caller waited.
#[derive(Debug, Clone, Default)]
pub struct Answer {
    pub ms: f64,
    /// Digest of the returned records (simulator: the match count only).
    pub checksum: Checksum,
    pub complete: bool,
    /// Simulator only: servers that returned matches.
    pub servers: Vec<ServerId>,
    pub contacts: u64,
    pub retries: u64,
    /// Simulator only: modelled latency and query bytes of this execution.
    pub modelled_ms: f64,
    pub wire_bytes: u64,
}

/// The exact, seed-determined figures: modelled latency, contacts and
/// wire bytes of the workload's queries through the simulator entry point
/// that matches its configuration, summed over the first cycle of timed
/// passes (every query of the sequence once).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Model {
    pub queries: u64,
    pub latency_ms_sum: f64,
    pub contacts_sum: u64,
    pub wire_bytes_sum: u64,
    pub cache_hits: u64,
}

impl Model {
    fn add(&mut self, latency_ms: f64, contacts: u64, wire_bytes: u64) {
        self.queries += 1;
        self.latency_ms_sum += latency_ms;
        self.contacts_sum += contacts;
        self.wire_bytes_sum += wire_bytes;
    }

    fn merge(&mut self, pass: &Model) {
        self.queries += pass.queries;
        self.latency_ms_sum += pass.latency_ms_sum;
        self.contacts_sum += pass.contacts_sum;
        self.wire_bytes_sum += pass.wire_bytes_sum;
        self.cache_hits += pass.cache_hits;
    }
}

/// Everything measured in one pass.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// Which slice of the query sequence this pass issued.
    pub slice: usize,
    pub round_ms: Vec<f64>,
    pub update_bytes: u64,
    pub failed_rounds: u64,
    /// Wall time of the query phase.
    pub query_wall_s: f64,
    /// Time inside the query calls themselves, per client; the rest of the
    /// query phase is the harness's own loop.
    pub in_calls_s: f64,
    /// Per issued query; a failed query waits forever.
    pub latencies_ms: Vec<f64>,
    pub failed_queries: u64,
    pub records: u64,
    pub retries: u64,
    /// Reference-kernel readings around and within the rounds
    /// (every [`ROUNDS_PER_READING`] rounds) …
    pub round_calib_ms: Vec<f64>,
    /// … and around and within the query phase (every batch); the reading
    /// that closes the rounds opens the queries.
    pub query_calib_ms: Vec<f64>,
    /// Process CPU time (all threads) spent in the query phase, the
    /// harness's own kernel readings taken out.
    pub cpu_s: f64,
    /// Extra checked operations outside the timed phases (model queries).
    pub model_checked: u64,
    pub model_failed: u64,
}

impl PassStats {
    /// Host slowdown over the rounds phase (see [`host::slowdown`]).
    pub fn round_slowdown(&self) -> f64 {
        host::slowdown(&self.round_calib_ms)
    }

    /// Host slowdown over the query phase.
    pub fn query_slowdown(&self) -> f64 {
        host::slowdown(&self.query_calib_ms)
    }

    /// Share of the query phase's wall time spent outside the query calls.
    pub fn harness_share(&self) -> f64 {
        1.0 - self.in_calls_s / self.query_wall_s
    }

    pub fn correct_queries(&self) -> u64 {
        self.latencies_ms.len() as u64 - self.failed_queries
    }

    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64 + self.round_ms.len() as u64 + self.model_checked
    }

    pub fn failed(&self) -> u64 {
        self.failed_queries + self.failed_rounds + self.model_failed
    }
}

/// A prepared workload: inputs, oracle, system, and the harness's own
/// mirror of the data the twin holds.
pub struct Bench<'a> {
    pub spec: &'a Spec,
    pub inputs: &'a Inputs,
    /// Oracle answers over the generated (initial) data, per distinct query.
    pub expected: Vec<Expected>,
    pub sys: System,
    /// What the twin's stores hold now, maintained by the harness.
    pub truth: Vec<Vec<Record>>,
    /// Update rounds applied so far.
    pub rounds_done: u64,
    pub passes_done: usize,
    pub model: Model,
    pub calib: Calibration,
    /// `live_repeat`: plans of the distinct queries over the base network
    /// and the simulator-side cache kept in lock-step with the cluster's.
    plans: Vec<QueryPlan>,
    model_cache: Option<ResultCache>,
    answers: Vec<Answer>,
}

impl<'a> Bench<'a> {
    pub fn new(
        spec: &'a Spec,
        inputs: &'a Inputs,
        expected: Vec<Expected>,
        sys: System,
        calib: Calibration,
    ) -> Self {
        let plans = if spec.planner {
            inputs
                .queries
                .iter()
                .map(|(q, entry)| plan_query(&sys.base, q, *entry, SearchScope::full()))
                .collect()
        } else {
            Vec::new()
        };
        Bench {
            spec,
            inputs,
            expected,
            sys,
            truth: inputs.records.clone(),
            rounds_done: 0,
            passes_done: 0,
            model: Model::default(),
            calib,
            plans,
            model_cache: (spec.cache_ttl_rounds > 0)
                .then(|| ResultCache::new(spec.cache_ttl_rounds)),
            answers: Vec::new(),
        }
    }

    /// The query a pass issues at position `pos`: its index among the
    /// distinct queries, the query, and its entry server.
    fn query_at(&self, pos: usize) -> (usize, &'a Query, ServerId) {
        let qi = self.inputs.sequence[self.slice() * self.spec.queries_per_pass + pos] as usize;
        let (q, entry) = &self.inputs.queries[qi];
        (qi, q, *entry)
    }

    /// The slice of the query sequence the next pass issues.
    fn slice(&self) -> usize {
        self.passes_done % self.spec.cycle_passes
    }

    /// The warm-up pass and the first cycle of timed passes run the
    /// simulator-side model in step with the cluster; the timed ones are
    /// summed into [`Bench::model`].
    fn model_pass(&self) -> bool {
        self.passes_done <= self.spec.cycle_passes
    }

    /// Run the next pass. With `layers`, the first queries and rounds of
    /// the pass are traced and replayed layer by layer.
    pub fn run_pass(&mut self, mut layers: Option<&mut Layers>) -> PassStats {
        let spec = self.spec;
        let mut stats = PassStats {
            slice: self.slice(),
            ..PassStats::default()
        };
        let deltas: Vec<RecordDelta> = (0..spec.rounds_per_pass as u64)
            .map(|r| self.inputs.delta(spec, self.rounds_done + r))
            .collect();

        // ---- update rounds: each timed on its own; what the harness
        // does between them (mirrors, model cache, kernel readings) is
        // outside the timing.
        stats.round_calib_ms.push(self.calib.read_ms());
        for (r, delta) in deltas.iter().enumerate() {
            let advance = spec.advance_every > 0 && (r + 1) % spec.advance_every == 0;
            let traced = layers.as_deref_mut().filter(|l| l.traces_round(r));
            let (breakdown, outcome, ms) = match traced {
                Some(l) => l.traced_round(
                    &mut self.sys,
                    &self.truth,
                    spec,
                    self.rounds_done,
                    delta,
                    advance,
                ),
                None => {
                    let out = plain_round(&mut self.sys, delta, advance);
                    if let Some(l) = layers.as_deref_mut() {
                        l.mirror_round(delta);
                    }
                    out
                }
            };
            stats.round_ms.push(ms);
            stats.update_bytes += breakdown.total_bytes();
            stats.failed_rounds += u64::from(outcome.rejected > 0);
            self.rounds_done += 1;
            oracle::apply_delta(&mut self.truth, spec.records_per_server, delta);
            if self.model_pass() {
                if let Some(cache) = &self.model_cache {
                    cache.invalidate_delta(self.sys.base.tree(), &outcome);
                    if advance {
                        cache.advance_round();
                    }
                }
            }
            if (r + 1) % ROUNDS_PER_READING == 0 || r + 1 == deltas.len() {
                stats.round_calib_ms.push(self.calib.read_ms());
            }
        }

        // ---- queries: in batches, a kernel reading after each ----------
        let q = spec.queries_per_pass;
        self.answers.clear();
        self.answers.resize(q, Answer::default());
        let last_reading = *stats.round_calib_ms.last().expect("read above");
        stats.query_calib_ms.push(last_reading);
        // Only a traced run reports CPU time (reading it opens a file per thread).
        let cpu0 = layers.is_some().then(host::cpu_seconds);
        let mut start = 0;
        while start < q {
            let batch = start..(start + spec.batch).min(q);
            start = batch.end;
            let t0 = Instant::now();
            self.query_batch(batch, layers.as_deref_mut());
            stats.query_wall_s += t0.elapsed().as_secs_f64();
            stats.query_calib_ms.push(self.calib.read_ms());
        }
        if let Some(cpu0) = cpu0 {
            let readings_s = stats.query_calib_ms[1..].iter().sum::<f64>() / 1e3;
            stats.cpu_s = host::cpu_seconds() - cpu0 - readings_s;
        }
        stats.in_calls_s =
            self.answers.iter().map(|a| a.ms).sum::<f64>() / spec.clients as f64 / 1e3;
        if let Some(l) = layers {
            l.replay_pending(&self.sys, spec);
        }

        // ---- untimed: check every answer, feed the model --------------
        self.check_answers(&mut stats);
        if self.model_pass() {
            self.run_model(&mut stats);
        }
        self.passes_done += 1;
        stats
    }

    /// Issue the queries at `batch` positions of the pass: `clients`
    /// closed-loop threads, client `c` taking every `clients`-th position
    /// from the `c`-th on. A traced run traces client 0 only.
    fn query_batch(&mut self, batch: std::ops::Range<usize>, mut layers: Option<&mut Layers>) {
        let clients = self.spec.clients;
        let this = &*self;
        let answers: Vec<(usize, Answer)> = if clients == 1 {
            this.client_queries(batch, layers)
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let mine = if c == 0 { layers.take() } else { None };
                        let positions = batch.clone().skip(c).step_by(clients);
                        scope.spawn(move || this.client_queries(positions, mine))
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("client thread panicked"))
                    .collect()
            })
        };
        for (pos, answer) in answers {
            self.answers[pos] = answer;
        }
    }

    /// One closed-loop client: the queries at `positions`, one after the
    /// other.
    fn client_queries(
        &self,
        positions: impl Iterator<Item = usize>,
        mut layers: Option<&mut Layers>,
    ) -> Vec<(usize, Answer)> {
        let base_qid = self.passes_done * self.spec.queries_per_pass;
        positions
            .map(|pos| {
                let (_, query, entry) = self.query_at(pos);
                let traced = layers.as_deref_mut().filter(|l| l.traces_query(pos));
                let answer = match traced {
                    Some(l) => {
                        let qid = (base_qid + pos) as u64;
                        l.traced_query(&self.sys, self.inputs, self.spec, qid, query, entry)
                    }
                    None => plain_query(&self.sys, self.inputs, query, entry),
                };
                (pos, answer)
            })
            .collect()
    }

    fn check_answers(&mut self, stats: &mut PassStats) {
        let spec = self.spec;
        let q = self.answers.len();
        stats.latencies_ms.reserve(q);
        // Expected answers over the data the queries saw: the generated
        // records for a live cluster (its stores never change); the
        // harness's mirror of the mutated twin for the simulator, on a
        // rotating sample.
        let sampled: Vec<usize> = if spec.live {
            Vec::new()
        } else {
            (0..q)
                .filter(|pos| (pos + self.passes_done).is_multiple_of(SIM_ORACLE_SAMPLE))
                .collect()
        };
        let sample_queries: Vec<(Query, ServerId)> = sampled
            .iter()
            .map(|&pos| {
                let (_, query, entry) = self.query_at(pos);
                (query.clone(), entry)
            })
            .collect();
        let sample_expected = oracle::expected_all(&self.truth, &sample_queries, BUILD_THREADS);

        let mut model = Model::default();
        for pos in 0..q {
            let (qi, _, _) = self.query_at(pos);
            let a = &self.answers[pos];
            let ok = if spec.live {
                a.complete && a.checksum == self.expected[qi].checksum
            } else {
                match sampled.binary_search(&pos) {
                    Ok(i) => {
                        a.checksum.count == sample_expected[i].checksum.count
                            && a.servers == sample_expected[i].servers
                    }
                    Err(_) => a.complete,
                }
            };
            stats.records += a.checksum.count;
            stats.retries += a.retries;
            if ok {
                stats.latencies_ms.push(a.ms);
            } else {
                stats.failed_queries += 1;
                stats.latencies_ms.push(f64::INFINITY);
            }
            if !spec.live {
                model.add(a.modelled_ms, a.contacts, a.wire_bytes);
            }
        }
        if !spec.live && self.model_pass() && self.passes_done > 0 {
            self.model.merge(&model);
        }
    }

    /// Live workloads: the pass's queries once more through the simulator
    /// entry point matching the workload's configuration, over the same
    /// data and the same cache invalidations the cluster saw.
    fn run_model(&mut self, stats: &mut PassStats) {
        if !self.spec.live || (self.model_cache.is_none() && self.passes_done == 0) {
            return;
        }
        let scope = SearchScope::full();
        let mut model = Model::default();
        for pos in 0..self.spec.queries_per_pass {
            let (qi, query, entry) = self.query_at(pos);
            let (out, hit) = match &self.model_cache {
                Some(cache) => execute_query_cached(
                    &self.sys.base,
                    &self.inputs.delays,
                    query,
                    entry,
                    scope,
                    cache,
                    Some(&self.plans[qi]),
                ),
                None => (
                    execute_query(&self.sys.base, &self.inputs.delays, query, entry, scope),
                    false,
                ),
            };
            model.add(
                out.latency_ms,
                out.servers_contacted as u64,
                out.query_bytes,
            );
            model.cache_hits += u64::from(hit);
            stats.model_checked += 1;
            let want = &self.expected[qi];
            if out.matching_records as u64 != want.checksum.count
                || out.matching_servers != want.servers
            {
                stats.model_failed += 1;
            }
        }
        if self.passes_done > 0 {
            self.model.merge(&model);
        }
    }
}

/// One untraced update round: the delta on the twin, then what the live
/// cluster does about it. Returns the round's wall time in ms.
pub fn plain_round(
    sys: &mut System,
    delta: &RecordDelta,
    advance: bool,
) -> (UpdateBreakdown, DeltaOutcome, f64) {
    let t = Instant::now();
    let (breakdown, outcome) = update_round_delta(&mut sys.twin, delta);
    if let Some(cluster) = &sys.cluster {
        cluster.observe_delta_round(&outcome);
        if advance {
            cluster.advance_cache_round();
        }
    }
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (breakdown, outcome, ms)
}

/// One untraced query: through the cluster on a live workload, through
/// `execute_query` on the mutated twin otherwise.
pub fn plain_query(sys: &System, inputs: &Inputs, query: &Query, entry: ServerId) -> Answer {
    let t = Instant::now();
    match &sys.cluster {
        Some(cluster) => {
            let out = cluster.query(query, entry);
            live_answer(&out, t.elapsed().as_nanos() as u64)
        }
        None => {
            let out = execute_query(&sys.twin, &inputs.delays, query, entry, SearchScope::full());
            sim_answer(out, t.elapsed().as_nanos() as u64)
        }
    }
}

/// What the caller keeps of a cluster reply that took `ns`.
pub fn live_answer(out: &RuntimeOutcome, ns: u64) -> Answer {
    Answer {
        ms: ns as f64 / 1e6,
        checksum: Checksum::of(&out.records),
        complete: out.complete,
        contacts: out.servers_contacted as u64,
        retries: out.retries as u64,
        ..Answer::default()
    }
}

/// What the caller keeps of a simulator execution that took `ns`.
pub fn sim_answer(out: QueryOutcome, ns: u64) -> Answer {
    Answer {
        ms: ns as f64 / 1e6,
        checksum: Checksum {
            count: out.matching_records as u64,
            ..Checksum::default()
        },
        // The simulator has no failure modes; a count without a server (or
        // the reverse) is the one inconsistency visible without the oracle.
        complete: (out.matching_records == 0) == out.matching_servers.is_empty(),
        contacts: out.servers_contacted as u64,
        modelled_ms: out.latency_ms,
        wire_bytes: out.query_bytes,
        servers: out.matching_servers,
        retries: 0,
    }
}
