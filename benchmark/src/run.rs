//! One run of one workload: prepare (untimed), set up (timed, repeated),
//! warm up, measure for `--seconds`, report.

use crate::host::{self, Calibration};
use crate::layers::{query_stride, Layers, Micro};
use crate::metrics::{ratio, Values, END_TO_END, PER_LAYER};
use crate::oracle;
use crate::pass::{Bench, PassStats};
use crate::stats::{iqr_pct, mean, median, median_of, percentile_sorted, quantile};
use crate::system::{setup, SetupTimes, System};
use crate::workloads::{Inputs, Spec, BUILD_THREADS, MIN_PASSES, SETUP_REPS};
use roads_central::CentralRepository;
use roads_core::{execute_query, SearchScope};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up repetitions of a traced run (it reports no `setup_s`).
const TRACED_SETUP_REPS: usize = 3;
/// Set-up is repeated until this much of it has been timed …
const SETUP_MIN_SECONDS: f64 = 0.6;
/// … but never more often than this.
const SETUP_MAX_REPS: usize = 40;
/// Share of a traced run's `--seconds` spent on its untraced baseline.
const BASELINE_SHARE: f64 = 0.3;
/// Passes a traced run completes in each of its two phases at least.
const TRACED_MIN_PASSES: usize = 3;
/// Every this-many-th query is also put to `CentralRepository`.
const CENTRAL_CHECK_STEP: usize = 10;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run reports: the metrics of its mode and the operation counts.
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable lines, printed before the result line.
    pub notes: Vec<String>,
}

/// Checked operations outside the passes.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// A workload ready for its first pass.
pub struct Prepared<'a> {
    pub bench: Bench<'a>,
    pub setups: Vec<SetupTimes>,
    pub tally: Tally,
}

/// Untimed preparation (oracle, central cross-check) around the timed,
/// repeated set-up: at least `setup_reps` repetitions and `setup_seconds`
/// of it.
pub fn prepare<'a>(
    spec: &'a Spec,
    inputs: &'a Inputs,
    setup_reps: usize,
    setup_seconds: f64,
) -> Prepared<'a> {
    let mut tally = Tally::default();
    let expected = oracle::expected_all(&inputs.records, &inputs.queries, BUILD_THREADS);
    let central = CentralRepository::build(0, inputs.records.clone());
    tally.attempted += inputs.queries.len().div_ceil(CENTRAL_CHECK_STEP) as u64;
    tally.failed += oracle::central_disagreements(
        &central,
        &inputs.delays,
        &inputs.queries,
        &expected,
        CENTRAL_CHECK_STEP,
    );
    drop(central);

    // Everything timed runs on one CPU; the oracle above used both.
    if let Err(e) = host::pin_to_one_cpu() {
        eprintln!("WARNING: could not pin to one CPU ({e}); wall-clock metrics include cross-CPU wake-ups");
    }
    let mut calib = Calibration::default();
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(setup_reps);
    let mut system: Option<System> = None;
    // At least `setup_reps` repetitions, and — a small federation is ready
    // in 10 ms — as many more as make up `setup_seconds` of set-up.
    while setups.len() < setup_reps
        || (setups.iter().map(|s| s.total_s).sum::<f64>() < setup_seconds
            && setups.len() < SETUP_MAX_REPS)
    {
        if let Some(previous) = system.take() {
            previous.shutdown();
        }
        let (sys, times) = setup(spec, inputs, &mut calib);
        setups.push(times);
        system = Some(sys);
    }
    let sys = system.expect("at least one set-up repetition");

    if !spec.live {
        // The simulator over the data as built must agree with the oracle
        // on the first pass's queries; once rounds start, a sample of
        // every pass is re-derived.
        for ((q, entry), want) in inputs
            .queries
            .iter()
            .zip(&expected)
            .take(spec.queries_per_pass)
        {
            let out = execute_query(&sys.base, &inputs.delays, q, *entry, SearchScope::full());
            tally.attempted += 1;
            if out.matching_records as u64 != want.checksum.count
                || out.matching_servers != want.servers
            {
                tally.failed += 1;
            }
        }
    }
    Prepared {
        bench: Bench::new(spec, inputs, expected, sys, calib),
        setups,
        tally,
    }
}

/// Host steal over an interval, as a percentage of all CPU time.
struct StealMeter(f64, f64);

impl StealMeter {
    fn start() -> Self {
        let (steal, total) = host::steal_and_total();
        StealMeter(steal, total)
    }

    fn pct(&self) -> f64 {
        let (steal, total) = host::steal_and_total();
        ratio(steal - self.0, total - self.1) * 100.0
    }
}

fn per_pass_qps(p: &PassStats) -> f64 {
    p.correct_queries() as f64 / p.query_wall_s
}

/// Every reading of the reference kernel taken during `passes`.
fn calib_readings<'a>(passes: impl IntoIterator<Item = &'a PassStats>) -> Vec<f64> {
    passes
        .into_iter()
        // The reading that closes the rounds also opens the queries.
        .flat_map(|p| p.round_calib_ms.iter().chain(&p.query_calib_ms[1..]))
        .copied()
        .collect()
}

/// A wall-clock metric over the passes of a run: each value as the caller
/// waited for it, and with the host's slowdown at that moment divided out.
#[derive(Default)]
struct Wall {
    waited: Vec<f64>,
    normalised: Vec<f64>,
}

impl Wall {
    /// `factor` is the slowdown for a rate, its inverse for a time.
    fn push(&mut self, waited: f64, factor: f64) {
        self.waited.push(waited);
        self.normalised.push(waited * factor);
    }

    /// The quiet quartile is the lower quartile of a time and the upper
    /// one of a rate: host noise only ever slows a pass down.
    fn note(&self, what: &str, is_rate: bool) -> String {
        let quiet = quantile(&self.waited, if is_rate { 0.75 } else { 0.25 });
        format!(
            "{what}: host-normalised median {:.4} (IQR {:.1} %); as waited: quiet quartile {:.4}, median {:.4} (IQR {:.1} %)",
            median(&self.normalised),
            iqr_pct(&self.normalised),
            quiet,
            median(&self.waited),
            iqr_pct(&self.waited)
        )
    }
}

/// The reference kernel over the run, and a warning when it or the steal
/// counter says the host was disturbed.
fn noise_notes(notes: &mut Vec<String>, steal_pct: f64, calib: &[f64]) {
    let calib_iqr = iqr_pct(calib);
    notes.push(format!(
        "bench.calib_ms median {:.3} ms over {} readings (IQR {:.1} %, quiet box {} ms), bench.host_steal_pct {:.2} %",
        median(calib),
        calib.len(),
        calib_iqr,
        host::CALIB_NOMINAL_MS,
        steal_pct
    ));
    if steal_pct > 2.0 || calib_iqr > 10.0 {
        notes.push(format!(
            "WARNING: disturbed run — host steal {steal_pct:.2} % (> 2 %) or calibration IQR {calib_iqr:.1} % (> 10 %); the as-waited figures read slow"
        ));
    }
}

/// The tail of the latency distribution over the query population. Every
/// position of the query sequence is issued by every `cycle_passes`-th
/// pass; its *typical* latency is the median over those passes of its
/// host-normalised latency, which a stall of the host that hits one of the
/// timings does not move. The tail is a percentile of the typical latencies
/// over the positions: what the slowest percent of *queries* cost.
struct Tail {
    typical_ms: f64,
    positions: usize,
    beyond: usize,
    fewest_timings: usize,
    most_timings: usize,
    /// The same percentile of every latency of the run as the caller
    /// waited for it, stalls and all.
    waited_ms: f64,
    latencies: usize,
}

impl Tail {
    fn of(spec: &Spec, passes: &[PassStats]) -> Tail {
        let q = spec.queries_per_pass;
        let mut by_position: Vec<Vec<f64>> = vec![Vec::new(); spec.cycle_passes * q];
        let mut waited = Vec::with_capacity(passes.len() * q);
        for p in passes {
            let slow = p.query_slowdown();
            for (pos, &ms) in p.latencies_ms.iter().enumerate() {
                by_position[p.slice * q + pos].push(ms / slow);
            }
            waited.extend_from_slice(&p.latencies_ms);
        }
        let by_size = |a: &f64, b: &f64| a.partial_cmp(b).expect("latencies are never NaN");
        let mut typical: Vec<f64> = by_position.iter().map(|t| median(t)).collect();
        typical.sort_by(by_size);
        waited.sort_by(by_size);
        let (typical_ms, beyond) = percentile_sorted(&typical, spec.tail);
        let timings = by_position.iter().map(Vec::len);
        Tail {
            typical_ms,
            positions: typical.len(),
            beyond,
            fewest_timings: timings.clone().min().unwrap_or(0),
            most_timings: timings.max().unwrap_or(0),
            waited_ms: percentile_sorted(&waited, spec.tail).0,
            latencies: waited.len(),
        }
    }
}

pub fn run(spec: &Spec, opts: &Options) -> Outcome {
    let inputs = Inputs::generate(spec, opts.seed);
    if opts.trace {
        run_traced(spec, &inputs, opts)
    } else {
        run_untraced(spec, &inputs, opts)
    }
}

/// The end-to-end metrics: tracing off, at least [`MIN_PASSES`] passes.
fn run_untraced(spec: &Spec, inputs: &Inputs, opts: &Options) -> Outcome {
    let Prepared {
        mut bench,
        setups,
        mut tally,
    } = prepare(spec, inputs, SETUP_REPS, SETUP_MIN_SECONDS);
    let mut notes = Vec::new();

    let warmup = bench.run_pass(None);
    tally.attempted += warmup.attempted();
    tally.failed += warmup.failed();

    let steal = StealMeter::start();
    let budget = Duration::from_secs_f64(opts.seconds);
    let t0 = Instant::now();
    let mut passes: Vec<PassStats> = Vec::new();
    while passes.len() < MIN_PASSES || t0.elapsed() < budget {
        passes.push(bench.run_pass(None));
    }
    let measured_s = t0.elapsed().as_secs_f64();
    let steal_pct = steal.pct();
    bench.sys.shutdown();

    for p in &passes {
        tally.attempted += p.attempted();
        tally.failed += p.failed();
    }
    // Per pass: the value as waited, and the same value with the host's
    // slowdown during that phase divided out.
    let mut qps = Wall::default();
    let mut round = Wall::default();
    for p in &passes {
        qps.push(per_pass_qps(p), p.query_slowdown());
        round.push(median(&p.round_ms), 1.0 / p.round_slowdown());
    }
    let tail = Tail::of(spec, &passes);
    let mut setup = Wall::default();
    for s in &setups {
        setup.push(s.total_s, 1.0 / s.slowdown);
    }
    let model = bench.model;
    let counted = &passes[..MIN_PASSES];
    let rounds: usize = counted.iter().map(|p| p.round_ms.len()).sum();
    let update_bytes: u64 = counted.iter().map(|p| p.update_bytes).sum();

    let mut values = Values::default();
    values.set("setup_s", median(&setup.normalised));
    values.set("query_qps", median(&qps.normalised));
    values.set("query_p99_ms", tail.typical_ms);
    values.set("update_round_ms", median(&round.normalised));
    values.set(
        "modelled_latency_ms",
        model.latency_ms_sum / model.queries as f64,
    );
    values.set(
        "contacts_per_query",
        model.contacts_sum as f64 / model.queries as f64,
    );
    values.set(
        "wire_bytes_per_query",
        model.wire_bytes_sum as f64 / model.queries as f64,
    );
    values.set(
        "update_bytes_per_round",
        update_bytes as f64 / rounds as f64,
    );
    values.set("peak_rss_mb", host::peak_rss_mb());

    let all_rounds: usize = passes.iter().map(|p| p.round_ms.len()).sum();
    notes.push(format!(
        "{}: {} timed passes in {:.1} s, {} clients, {} queries + {} rounds per pass ({} update rounds in all)",
        spec.name,
        passes.len(),
        measured_s,
        spec.clients,
        spec.queries_per_pass,
        spec.rounds_per_pass,
        all_rounds
    ));
    notes.push(qps.note("query_qps per pass", true));
    notes.push(format!(
        "query_p99_ms = p{:.0} over the {} positions of the query sequence ({} beyond it) of a position's median host-normalised latency over the {}-{} passes that issued it: {:.4}; as waited: p{:.0} of all {} latencies {:.4}",
        spec.tail * 100.0,
        tail.positions,
        tail.beyond,
        tail.fewest_timings,
        tail.most_timings,
        tail.typical_ms,
        spec.tail * 100.0,
        tail.latencies,
        tail.waited_ms,
    ));
    notes.push(round.note(
        &format!(
            "update_round_ms per pass (median of {} rounds)",
            spec.rounds_per_pass
        ),
        false,
    ));
    notes.push(setup.note(
        &format!(
            "setup_s over {} repetitions (build {:.1} ms, twin clone {:.1} ms, cluster start {:.1} ms)",
            setups.len(),
            median_of(&setups, |s| s.build_ms),
            median_of(&setups, |s| s.twin_clone_ms),
            median_of(&setups, |s| s.cluster_start_ms),
        ),
        false,
    ));
    if spec.cache_ttl_rounds > 0 {
        notes.push(format!(
            "modelled cache hit ratio {:.4} ({} of {} queries)",
            ratio(model.cache_hits as f64, model.queries as f64),
            model.cache_hits,
            model.queries
        ));
    }
    notes.push(format!(
        "bench.pass_iqr_pct {:.2} %, bench.harness_share {:.4}",
        iqr_pct(&qps.waited),
        median_of(&passes, PassStats::harness_share)
    ));
    noise_notes(&mut notes, steal_pct, &calib_readings(&passes));

    Outcome {
        values,
        attempted: tally.attempted,
        failed: tally.failed,
        notes,
    }
}

/// The per-layer metrics: an untraced baseline, then traced passes.
fn run_traced(spec: &Spec, inputs: &Inputs, opts: &Options) -> Outcome {
    let Prepared {
        mut bench,
        setups,
        mut tally,
    } = prepare(spec, inputs, TRACED_SETUP_REPS, 0.0);
    let mut notes = Vec::new();
    let mut layers = Layers::new(spec, &bench.sys);

    let warmup = bench.run_pass(Some(&mut layers));
    tally.attempted += warmup.attempted();
    tally.failed += warmup.failed();

    let steal = StealMeter::start();
    let t0 = Instant::now();
    let baseline_budget = Duration::from_secs_f64(opts.seconds * BASELINE_SHARE);
    let cache_before = cache_counters(&bench.sys);
    let mut baseline: Vec<PassStats> = Vec::new();
    while baseline.len() < TRACED_MIN_PASSES || t0.elapsed() < baseline_budget {
        baseline.push(bench.run_pass(Some(&mut layers)));
    }
    let cache_after = cache_counters(&bench.sys);

    layers.tracing = true;
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut traced: Vec<PassStats> = Vec::new();
    while traced.len() < TRACED_MIN_PASSES || t0.elapsed() < budget {
        traced.push(bench.run_pass(Some(&mut layers)));
    }
    let steal_pct = steal.pct();
    let micro = layers.micro(spec, inputs, &bench.sys, &mut bench.calib);
    bench.sys.shutdown();

    for p in baseline.iter().chain(&traced) {
        tally.attempted += p.attempted();
        tally.failed += p.failed();
    }
    tally.failed += layers.acc.replay_mismatches;

    let values = per_layer_values(
        spec,
        &layers,
        &micro,
        &setups,
        &baseline,
        &traced,
        (cache_before, cache_after),
        steal_pct,
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("trace-{}.json", spec.name));
    match layers.tracer.write_json(&path) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            layers.tracer.spans().len(),
            path.display()
        )),
        Err(e) => notes.push(format!("WARNING: could not write {}: {e}", path.display())),
    }
    notes.push(format!(
        "{}: {} baseline + {} traced passes, {} queries and {} rounds traced",
        spec.name,
        baseline.len(),
        traced.len(),
        layers.acc.queries,
        layers.acc.rounds
    ));
    let self_ms: Vec<String> = layers
        .tracer
        .self_time_ns()
        .into_iter()
        .map(|(name, ns)| format!("{name} {:.1}", ns as f64 / 1e6))
        .collect();
    notes.push(format!(
        "self time by span name, ms: {}",
        self_ms.join(", ")
    ));
    let calib = calib_readings(baseline.iter().chain(&traced));
    noise_notes(&mut notes, steal_pct, &calib);

    Outcome {
        values,
        attempted: tally.attempted,
        failed: tally.failed,
        notes,
    }
}

/// `(hits, misses)` of the cluster's result cache, if it has one.
pub fn cache_counters(sys: &System) -> (u64, u64) {
    sys.cluster
        .as_ref()
        .and_then(|c| c.result_cache())
        .map_or((0, 0), |c| (c.hits(), c.misses()))
}

#[allow(clippy::too_many_arguments)]
fn per_layer_values(
    spec: &Spec,
    layers: &Layers,
    micro: &Micro,
    setups: &[SetupTimes],
    baseline: &[PassStats],
    traced: &[PassStats],
    cache: ((u64, u64), (u64, u64)),
    steal_pct: f64,
) -> Values {
    let a = &layers.acc;
    let f = |x: u64| x as f64;
    let mut v = Values::default();
    for (name, _, _) in PER_LAYER {
        v.set(name, 0.0);
    }
    let queries = f(a.queries);
    // Every time below is divided by the host's slowdown while it was
    // taken: over the traced passes, over the untraced baseline passes,
    // around the figures measured once, or around a set-up repetition.
    let traced_slow = host::slowdown(&calib_readings(traced));
    let base_slow = host::slowdown(&calib_readings(baseline));
    let per = |ns: u64, n: u64| ratio(f(ns), f(n)) / traced_slow;
    let setup_ms = |stage: fn(&SetupTimes) -> f64| median_of(setups, |s| stage(s) / s.slowdown);

    v.set(
        "records.match_ns_per_record",
        micro.match_ns_per_record / micro.slowdown,
    );
    v.set(
        "records.wire_size_ns_per_record",
        per(a.wire_ns, a.wire_records),
    );
    v.set(
        "summary.may_match_ns",
        per(a.may_match_ns, a.may_match_calls),
    );
    v.set(
        "summary.may_match_calls_per_query",
        ratio(f(a.may_match_calls), queries),
    );
    v.set(
        "summary.false_positive_ratio",
        ratio(f(a.branch_false_positives), f(a.branch_contacts)),
    );
    v.set(
        "summary.replace_record_ns",
        per(a.replace_ns, a.replace_calls),
    );
    v.set(
        "summary.aggregate_us_per_branch",
        per(a.aggregate_ns, a.aggregate_branches) / 1e3,
    );
    v.set(
        "summary.wire_bytes_per_summary",
        micro.wire_bytes_per_summary,
    );
    v.set("engine.evaluate_ns", per(a.evaluate_ns, a.evaluate_calls));
    v.set(
        "engine.evaluate_calls_per_query",
        ratio(f(a.evaluate_calls), queries),
    );
    v.set("engine.build_ms", setup_ms(|s| s.build_ms));
    v.set(
        "engine.apply_us_per_change",
        per(a.apply_ns, a.changes) / 1e3,
    );
    let search_us_per_call = per(a.search_ns, a.search_calls) / 1e3;
    if spec.live {
        v.set("runtime_store.search_us_per_call", search_us_per_call);
        v.set(
            "runtime_store.search_ns_per_result",
            per(a.search_ns, a.search_results),
        );
        v.set(
            "runtime_store.build_ms",
            layers.runtime_store_build_ms / base_slow,
        );
    } else {
        v.set("store.search_us_per_call", search_us_per_call);
        v.set(
            "store.scanned_per_result",
            ratio(f(a.scanned), f(a.search_results)),
        );
        v.set("queryexec.sim_query_us", per(a.real_ns, a.queries) / 1e3);
        v.set(
            "queryexec.overhead_share",
            1.0 - ratio(f(a.compute_ns), f(a.real_ns)),
        );
    }
    v.set("planner.plan_us", per(a.plan_ns, a.plan_calls) / 1e3);
    v.set(
        "planner.contacts_saved_ratio",
        micro.planner_contacts_saved_ratio,
    );
    let ((hits0, misses0), (hits1, misses1)) = cache;
    v.set(
        "cache.hit_ratio",
        ratio(f(hits1 - hits0), f(hits1 - hits0 + misses1 - misses0)),
    );
    v.set("cache.lookup_ns", per(a.lookup_ns, a.lookups));
    v.set("cache.insert_ns", per(a.insert_ns, a.inserts));
    if spec.cache_ttl_rounds > 0 {
        v.set(
            "cache.invalidate_us_per_round",
            per(a.invalidate_ns, a.rounds) / 1e3,
        );
        v.set(
            "cache.invalidated_per_round",
            ratio(f(a.invalidated), f(a.rounds)),
        );
    }
    v.set(
        "updates.propagate_us_per_round",
        per(a.round_ns.saturating_sub(a.apply_ns), a.rounds) / 1e3,
    );
    v.set(
        "updates.dirty_branches_per_round",
        ratio(f(a.dirty_branches), f(a.rounds)),
    );
    v.set(
        "updates.full_round_ms",
        micro.full_round_ms / micro.slowdown,
    );

    // Untraced baseline of this same process.
    let issued: f64 = baseline.iter().map(|p| p.latencies_ms.len() as f64).sum();
    let base_lat: Vec<f64> = baseline
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    if spec.live {
        // With `clients` closed-loop clients on the one CPU a query's wall
        // time covers its own work and that of the others in flight: its
        // share of the CPU is the wall time over `clients`.
        let live_ns = f(a.real_ns) / spec.clients as f64;
        let compute_ns = f(a.compute_ns);
        v.set("runtime.query_p50_ms", median(&base_lat) / base_slow);
        v.set(
            "runtime.dispatch_us_per_contact",
            ratio((live_ns - compute_ns).max(0.0), f(a.contacts)) / traced_slow / 1e3,
        );
        v.set("runtime.compute_share", ratio(compute_ns, live_ns));
        v.set(
            "runtime.cpu_us_per_query",
            ratio(baseline.iter().map(|p| p.cpu_s).sum::<f64>() * 1e6, issued) / base_slow,
        );
        v.set(
            "runtime.records_per_query",
            ratio(baseline.iter().map(|p| f(p.records)).sum(), issued),
        );
        v.set(
            "runtime.retries_per_query",
            ratio(baseline.iter().map(|p| f(p.retries)).sum(), issued),
        );
        v.set("runtime.cluster_start_ms", setup_ms(|s| s.cluster_start_ms));
    }
    v.set("central.query_us", micro.central_query_us / micro.slowdown);

    // Harness health.
    v.set(
        "bench.calib_ms",
        median(&calib_readings(baseline.iter().chain(traced))),
    );
    v.set("bench.host_steal_pct", steal_pct);
    let qps: Vec<f64> = baseline.iter().map(per_pass_qps).collect();
    v.set("bench.pass_iqr_pct", iqr_pct(&qps));
    // Traced against untraced, over the same positions of the pass (a
    // traced run traces client 0 only) and by the time inside the query
    // call alone (the replay is not the query).
    let stride = query_stride(spec);
    let same_positions: Vec<f64> = baseline
        .iter()
        .flat_map(|p| {
            p.latencies_ms
                .iter()
                .enumerate()
                .filter(|(pos, _)| pos.is_multiple_of(stride) && pos.is_multiple_of(spec.clients))
                .map(|(_, &ms)| ms)
        })
        .collect();
    let untraced_ms = mean(&same_positions) / base_slow;
    let traced_ms = per(a.real_ns, a.queries) / 1e6;
    v.set(
        "bench.trace_overhead_pct",
        (ratio(traced_ms, untraced_ms) - 1.0) * 100.0,
    );
    v.set(
        "bench.harness_share",
        median_of(baseline, PassStats::harness_share),
    );
    v.set("bench.replay_mismatches", f(a.replay_mismatches));
    v
}

/// Print the notes, every metric of the run's mode by name and unit, the
/// operation counts, and — last — the one-line JSON result.
pub fn report(spec: &Spec, opts: &Options, outcome: &Outcome) {
    println!(
        "== roads-benchmark {} seed={:#x} seconds={} trace={} ==",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    let rows: Vec<(&str, &str, String)> = if opts.trace {
        PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n, u, format!("better {b}")))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n, u, format!("better {b}, bound {:.0} %", bound * 100.0)))
            .collect()
    };
    let mut json = Vec::new();
    for (name, unit, note) in &rows {
        let value = outcome.values.get(name).unwrap_or(0.0);
        // JSON has no infinity: a metric that waited forever reads as the
        // largest finite number, beyond any bound.
        let value = if value.is_finite() { value } else { f64::MAX };
        println!("{name:<36} {value:>16.6} {unit:<6} ({note})");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "ops_attempted {}  ops_failed {}",
        outcome.attempted, outcome.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
}
