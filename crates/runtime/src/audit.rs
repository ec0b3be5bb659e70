//! The background auditor: budgeted ground-truth auditing of the live
//! replication overlay.
//!
//! Runs the `roads-core` audit plane ([`ReplicaLedger`], [`audit_probe`])
//! on a wall-clock schedule: a [`Periodic`] thread (one final tick on
//! shutdown), `tick_now` for
//! deterministic tests, and `stop()` returning the final [`AuditReport`].
//!
//! Each tick is budgeted — `probes_per_tick` queries rotate through the
//! probe set, so the ground-truth sweep amortizes over many ticks instead
//! of stalling the cluster — and every outcome lands in pre-resolved
//! registry instruments ([`AuditMetrics`]): per-level FP/FN/probe
//! counters, plus overlay-wide divergence/staleness/drift/saturation
//! gauges (fractions exported as parts-per-million, since gauges are
//! integral). An instrumented [`crate::RoadsCluster`] given the same
//! [`AuditMetrics`] additionally folds *live* query outcomes — branch
//! dispatches whose lossy summary matched spuriously — into the
//! `audit.live_*` families, tying the sampled ground truth to real
//! traffic.

use roads_core::audit::{audit_probe, LevelAudit, ReplicaLedger};
use roads_core::{RoadsNetwork, ServerId};
use roads_records::Query;
use roads_summary::AttributeSummary;
use roads_telemetry::{artifact, json_fields, labeled, Counter, Gauge, Periodic, Registry};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Duration;

/// Liveness oracle for the auditor: `true` while a server is up. An
/// instrumented cluster provides one via [`crate::RoadsCluster::liveness`];
/// tests can hand in any closure.
pub type Liveness = Arc<dyn Fn(ServerId) -> bool + Send + Sync>;

/// Background auditor schedule and budget.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Wall-clock pause between audit ticks.
    pub interval: Duration,
    /// Ground-truth probe queries evaluated per tick (rotating through
    /// the probe set — the sampling budget).
    pub probes_per_tick: usize,
    /// Run a ledger refresh (replication wave) every this many ticks;
    /// 0 disables refreshes (the ledger only ages).
    pub refresh_every: u64,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            interval: Duration::from_millis(250),
            probes_per_tick: 4,
            refresh_every: 4,
        }
    }
}

/// Per-tree-level audit instruments, labeled `{level="N"}`.
#[derive(Debug, Clone)]
pub struct LevelInstruments {
    /// `audit.probes`: ground-truth probes evaluated at this level.
    pub probes: Arc<Counter>,
    /// `audit.false_positives`: stale copy said match, no live record.
    pub false_positives: Arc<Counter>,
    /// `audit.false_negatives`: stale copy pruned a live match.
    pub false_negatives: Arc<Counter>,
    /// `audit.live_probes`: branch replies folded in from real queries.
    pub live_probes: Arc<Counter>,
    /// `audit.live_false_positives`: real branch dispatches whose lossy
    /// summary matched spuriously (no records, no redirects).
    pub live_false_positives: Arc<Counter>,
}

/// Every instrument the audit plane records into, pre-resolved so all
/// families appear in a scrape from the first moment.
#[derive(Debug, Clone)]
pub struct AuditMetrics {
    /// `audit.epoch`: the ledger's update-round epoch.
    pub epoch: Arc<Gauge>,
    /// `audit.divergence_ppm`: diverged overlay fraction × 10⁶.
    pub divergence_ppm: Arc<Gauge>,
    /// `audit.staleness_p99_rounds`: p99 replica staleness age in rounds.
    pub staleness_p99: Arc<Gauge>,
    /// `audit.drift_ppm`: worst per-attribute summary drift × 10⁶.
    pub drift_ppm: Arc<Gauge>,
    /// `audit.bloom_saturation_ppm`: worst Bloom fill ratio × 10⁶ across
    /// branch summaries (0 when no attribute uses a Bloom filter).
    pub bloom_saturation_ppm: Arc<Gauge>,
    /// `audit.ticks`: audit ticks completed.
    pub ticks: Arc<Counter>,
    /// Per-level instruments, indexed by tree depth of the audited branch.
    pub levels: Vec<LevelInstruments>,
}

impl AuditMetrics {
    /// Resolve (and thereby declare) every audit instrument for a
    /// hierarchy of `levels` tree levels in `reg`.
    pub fn new(reg: &Registry, levels: usize) -> Self {
        let levels = (0..levels.max(1))
            .map(|l| {
                let id = l.to_string();
                let lbl = [("level", id.as_str())];
                LevelInstruments {
                    probes: reg.counter(&labeled("audit.probes", &lbl)),
                    false_positives: reg.counter(&labeled("audit.false_positives", &lbl)),
                    false_negatives: reg.counter(&labeled("audit.false_negatives", &lbl)),
                    live_probes: reg.counter(&labeled("audit.live_probes", &lbl)),
                    live_false_positives: reg.counter(&labeled("audit.live_false_positives", &lbl)),
                }
            })
            .collect();
        AuditMetrics {
            epoch: reg.gauge("audit.epoch"),
            divergence_ppm: reg.gauge("audit.divergence_ppm"),
            staleness_p99: reg.gauge("audit.staleness_p99_rounds"),
            drift_ppm: reg.gauge("audit.drift_ppm"),
            bloom_saturation_ppm: reg.gauge("audit.bloom_saturation_ppm"),
            ticks: reg.counter("audit.ticks"),
            levels,
        }
    }

    /// The instruments for tree level `l` (clamped to the deepest known
    /// level, so a grown hierarchy never panics the hot path).
    pub fn level(&self, l: usize) -> &LevelInstruments {
        &self.levels[l.min(self.levels.len() - 1)]
    }

    /// Fold one live branch reply observed by the cluster.
    pub(crate) fn observe_live(&self, level: usize, false_positive: bool) {
        let li = self.level(level);
        li.live_probes.inc();
        if false_positive {
            li.live_false_positives.inc();
        }
    }
}

/// One level's row in an [`AuditReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuditLevelRow {
    /// Tree depth of the audited branches.
    pub level: usize,
    /// Overlay entries audited at the last tick.
    pub entries: usize,
    /// Cumulative ground-truth probes.
    pub probes: u64,
    /// Cumulative false positives.
    pub false_positives: u64,
    /// Cumulative false negatives.
    pub false_negatives: u64,
    /// Diverged entries at the last tick.
    pub diverged: usize,
    /// Worst staleness age at the last tick (rounds).
    pub staleness_max: u64,
    /// Live branch replies folded in from real queries.
    pub live_probes: u64,
    /// Live spurious summary matches.
    pub live_false_positives: u64,
}

impl AuditLevelRow {
    /// Ground-truth false-positive rate.
    pub fn fp_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.probes as f64
        }
    }

    /// Ground-truth false-negative rate.
    pub fn fn_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.false_negatives as f64 / self.probes as f64
        }
    }
}

/// The audit artifact (`AUDIT.json`): what `stop()` returns.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Ledger epoch at report time.
    pub epoch: u64,
    /// Audit ticks completed.
    pub ticks: u64,
    /// Diverged overlay fraction at report time, in `[0, 1]`.
    pub divergence: f64,
    /// p99 replica staleness age, rounds.
    pub staleness_p99: u64,
    /// Worst per-attribute drift across diverged entries.
    pub max_drift: f64,
    /// Worst Bloom fill ratio across branch summaries.
    pub bloom_saturation: f64,
    /// Per-level rows, ascending by level.
    pub levels: Vec<AuditLevelRow>,
}

impl AuditReport {
    /// Total ground-truth probes across levels.
    pub fn probes(&self) -> u64 {
        self.levels.iter().map(|l| l.probes).sum()
    }

    /// Total ground-truth false positives across levels.
    pub fn false_positives(&self) -> u64 {
        self.levels.iter().map(|l| l.false_positives).sum()
    }

    /// Total ground-truth false negatives across levels.
    pub fn false_negatives(&self) -> u64 {
        self.levels.iter().map(|l| l.false_negatives).sum()
    }

    /// No cross-field invariant: every scalar and row is an independent
    /// observation.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Current `AUDIT.json` schema version (the value of its `audit` marker).
pub const AUDIT_SCHEMA_VERSION: u64 = 1;

json_fields!(AuditLevelRow {
    level,
    entries,
    probes,
    false_positives,
    false_negatives,
    diverged,
    staleness_max,
    live_probes,
    live_false_positives,
});
json_fields!(AuditReport {
    "audit" = AUDIT_SCHEMA_VERSION,
    epoch,
    ticks,
    divergence,
    staleness_p99,
    max_drift,
    bloom_saturation,
    levels,
});
artifact!(AuditReport, "audit", AUDIT_SCHEMA_VERSION);

/// Worst Bloom fill ratio across all branch summaries (0 when no
/// attribute is summarized with a Bloom filter).
fn worst_bloom_load(net: &RoadsNetwork) -> f64 {
    let mut worst: f64 = 0.0;
    for s in net.tree().servers() {
        let summary = net.branch_summary(s);
        for i in 0..summary.arity() {
            if let AttributeSummary::Bloom(f) = summary.attr(i) {
                worst = worst.max(f.saturation().load);
            }
        }
    }
    worst
}

struct AuditorShared {
    net: Arc<RoadsNetwork>,
    metrics: Arc<AuditMetrics>,
    cfg: AuditConfig,
    probes: Vec<Query>,
    liveness: Liveness,
    state: StdMutex<AuditorState>,
}

struct AuditorState {
    ledger: ReplicaLedger,
    ticks: u64,
    /// Cumulative per-level tallies; `entries`/`diverged`/`staleness_max`
    /// hold the *last* tick's observation, counters accumulate.
    levels: Vec<LevelAudit>,
    /// Last-tick overlay scalars, carried into the report.
    divergence: f64,
    staleness_p99: u64,
    max_drift: f64,
    bloom_saturation: f64,
}

impl AuditorShared {
    fn tick(&self) {
        let mut st = self.state.lock().expect("auditor state");
        st.ticks += 1;
        self.metrics.ticks.inc();
        let live: Vec<bool> = (0..self.net.len())
            .map(|i| (self.liveness)(ServerId(i as u32)))
            .collect();
        if self.cfg.refresh_every > 0 && st.ticks.is_multiple_of(self.cfg.refresh_every) {
            st.ledger.refresh(&self.net, &live);
        }
        // Budgeted ground truth: rotate a window through the probe set so
        // the sweep amortizes across ticks.
        let batch: Vec<Query> = if self.probes.is_empty() {
            Vec::new()
        } else {
            let k = self.cfg.probes_per_tick.min(self.probes.len()).max(1);
            let start = ((st.ticks - 1) as usize * k) % self.probes.len();
            (0..k)
                .map(|i| self.probes[(start + i) % self.probes.len()].clone())
                .collect()
        };
        let observed = audit_probe(&self.net, &st.ledger, &live, &batch);
        for (i, lvl) in observed.iter().enumerate() {
            if st.levels.len() <= i {
                st.levels.push(LevelAudit {
                    level: i,
                    ..LevelAudit::default()
                });
            }
            let acc = &mut st.levels[i];
            acc.entries = lvl.entries;
            acc.diverged = lvl.diverged;
            acc.staleness_max = lvl.staleness_max;
            acc.probes += lvl.probes;
            acc.false_positives += lvl.false_positives;
            acc.false_negatives += lvl.false_negatives;
            let li = self.metrics.level(i);
            li.probes.add(lvl.probes);
            li.false_positives.add(lvl.false_positives);
            li.false_negatives.add(lvl.false_negatives);
        }
        let d = st.ledger.divergence(&self.net, &live);
        st.divergence = d.score();
        st.staleness_p99 = st.ledger.staleness_p99();
        st.max_drift = d.max_drift;
        st.bloom_saturation = worst_bloom_load(&self.net);
        self.metrics.epoch.set(st.ledger.epoch() as i64);
        self.metrics
            .divergence_ppm
            .set((st.divergence * 1e6) as i64);
        self.metrics.staleness_p99.set(st.staleness_p99 as i64);
        self.metrics.drift_ppm.set((st.max_drift * 1e6) as i64);
        self.metrics
            .bloom_saturation_ppm
            .set((st.bloom_saturation * 1e6) as i64);
    }

    fn report_locked(&self, st: &AuditorState) -> AuditReport {
        let levels = st
            .levels
            .iter()
            .map(|l| {
                let li = self.metrics.level(l.level);
                AuditLevelRow {
                    level: l.level,
                    entries: l.entries,
                    probes: l.probes,
                    false_positives: l.false_positives,
                    false_negatives: l.false_negatives,
                    diverged: l.diverged,
                    staleness_max: l.staleness_max,
                    live_probes: li.live_probes.get(),
                    live_false_positives: li.live_false_positives.get(),
                }
            })
            .collect();
        AuditReport {
            epoch: st.ledger.epoch(),
            ticks: st.ticks,
            divergence: st.divergence,
            staleness_p99: st.staleness_p99,
            max_drift: st.max_drift,
            bloom_saturation: st.bloom_saturation,
            levels,
        }
    }
}

/// The background audit thread, a [`Periodic`]: `stop` joins it and
/// returns the final report; dropping without stopping also signals and
/// joins. Either shutdown path runs one final tick first, so late
/// kills/restarts are always audited.
pub struct Auditor {
    shared: Arc<AuditorShared>,
    runner: Periodic,
}

impl Auditor {
    /// Snapshot the overlay into a fresh [`ReplicaLedger`] and start
    /// auditing `net` every [`AuditConfig::interval`], evaluating ground
    /// truth with `probes` and liveness from `liveness`. The first
    /// scheduled tick fires one full interval after start: an immediate
    /// tick would offset the refresh phase under manually driven
    /// schedules (`tick_now` with a long interval).
    pub fn start(
        net: Arc<RoadsNetwork>,
        metrics: Arc<AuditMetrics>,
        cfg: AuditConfig,
        probes: Vec<Query>,
        liveness: Liveness,
    ) -> Self {
        let ledger = ReplicaLedger::new(&net);
        let interval = cfg.interval;
        let shared = Arc::new(AuditorShared {
            net,
            metrics,
            cfg,
            probes,
            liveness,
            state: StdMutex::new(AuditorState {
                ledger,
                ticks: 0,
                levels: Vec::new(),
                divergence: 0.0,
                staleness_p99: 0,
                max_drift: 0.0,
                bloom_saturation: 0.0,
            }),
        });
        let ticker = Arc::clone(&shared);
        let runner = Periodic::spawn("roads-auditor", interval, move || ticker.tick());
        Auditor { shared, runner }
    }

    /// Run one audit tick right now, outside the schedule (deterministic
    /// tests).
    pub fn tick_now(&self) {
        self.shared.tick();
    }

    /// The report accumulated so far.
    pub fn report(&self) -> AuditReport {
        let st = self.shared.state.lock().expect("auditor state");
        self.shared.report_locked(&st)
    }

    /// Stop the background thread and return the final report.
    pub fn stop(mut self) -> AuditReport {
        self.runner.stop();
        self.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_core::RoadsConfig;
    use roads_records::{QueryBuilder, QueryId, Schema};
    use roads_summary::SummaryConfig;
    use roads_telemetry::Json;
    use roads_workload::line_records;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn network(n: usize) -> RoadsNetwork {
        let schema = Schema::unit_numeric(1);
        let cfg = RoadsConfig {
            max_children: 3,
            summary: SummaryConfig::with_buckets(128),
            ..RoadsConfig::paper_default()
        };
        RoadsNetwork::build(schema, cfg, line_records(n, 1))
    }

    fn probes(net: &RoadsNetwork) -> Vec<Query> {
        let n = net.len();
        net.tree()
            .servers()
            .iter()
            .map(|&s| {
                let v = s.index() as f64 / n as f64;
                QueryBuilder::new(net.schema(), QueryId(s.0 as u64))
                    .range("x0", v - 0.002, v + 0.002)
                    .build()
            })
            .collect()
    }

    /// A liveness oracle backed by a shared flag vector.
    fn board(n: usize) -> (Arc<Vec<AtomicBool>>, Liveness) {
        let flags: Arc<Vec<AtomicBool>> = Arc::new((0..n).map(|_| AtomicBool::new(true)).collect());
        let view = Arc::clone(&flags);
        let live: Liveness = Arc::new(move |s: ServerId| view[s.index()].load(Ordering::Relaxed));
        (flags, live)
    }

    fn quiet_auditor(net: &Arc<RoadsNetwork>, live: Liveness, reg: &Registry) -> Auditor {
        let metrics = Arc::new(AuditMetrics::new(reg, net.tree().levels()));
        let cfg = AuditConfig {
            interval: Duration::from_secs(3600), // ticks driven manually
            probes_per_tick: net.len(),
            refresh_every: 0,
        };
        Auditor::start(Arc::clone(net), metrics, cfg, probes(net), live)
    }

    #[test]
    fn clean_overlay_audits_clean() {
        let net = Arc::new(network(13));
        let reg = Registry::new();
        let (_, live) = board(13);
        let auditor = quiet_auditor(&net, live, &reg);
        auditor.tick_now();
        let report = auditor.stop();
        assert!(report.ticks >= 1);
        assert!(report.probes() > 0);
        assert_eq!(report.false_positives(), 0);
        assert_eq!(report.false_negatives(), 0);
        assert_eq!(report.divergence, 0.0);
        assert_eq!(reg.snapshot().gauges["audit.divergence_ppm"], 0);
    }

    #[test]
    fn kill_surfaces_in_metrics_and_report() {
        let net = Arc::new(network(13));
        let reg = Registry::new();
        let (flags, live) = board(13);
        let victim = *net.tree().leaves().iter().max().unwrap();
        let auditor = quiet_auditor(&net, live, &reg);
        flags[victim.index()].store(false, Ordering::Relaxed);
        auditor.tick_now();
        let report = auditor.report();
        assert!(report.false_positives() > 0, "{report:?}");
        assert!(report.divergence > 0.0);
        let snap = reg.snapshot();
        assert!(snap.gauges["audit.divergence_ppm"] > 0);
        let fp: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("audit.false_positives"))
            .map(|(_, &v)| v)
            .sum();
        assert!(fp > 0);
        drop(auditor);
    }

    #[test]
    fn report_round_trips_and_rejects_corruption() {
        let net = Arc::new(network(13));
        let reg = Registry::new();
        let (flags, live) = board(13);
        let victim = *net.tree().leaves().iter().max().unwrap();
        let auditor = quiet_auditor(&net, live, &reg);
        flags[victim.index()].store(false, Ordering::Relaxed);
        auditor.tick_now();
        let report = auditor.stop();
        let doc = report.to_json();
        assert!(AuditReport::has_marker(&doc));
        let back = AuditReport::from_json(&doc).unwrap();
        assert_eq!(back, report);
        // Wrong marker.
        let not_audit = Json::obj(vec![("benches", Json::num(1.0))]);
        assert!(!AuditReport::has_marker(&not_audit));
        assert!(AuditReport::from_json(&not_audit).is_err());
        // Missing scalar.
        let mut missing = report.to_json();
        if let Json::Obj(pairs) = &mut missing {
            pairs.retain(|(k, _)| k != "divergence");
        }
        let err = AuditReport::from_json(&missing).unwrap_err();
        assert!(err.contains("divergence"), "{err}");
        // Corrupt level row.
        let mut bad_row = report.to_json();
        if let Json::Obj(pairs) = &mut bad_row {
            for (k, v) in pairs.iter_mut() {
                if k == "levels" {
                    if let Json::Arr(rows) = v {
                        if let Some(Json::Obj(row)) = rows.first_mut() {
                            row.retain(|(k, _)| k != "probes");
                        }
                    }
                }
            }
        }
        let err = AuditReport::from_json(&bad_row).unwrap_err();
        assert!(err.contains("levels[0]") && err.contains("probes"), "{err}");
    }

    #[test]
    fn refresh_schedule_reconverges_divergence() {
        let net = Arc::new(network(13));
        let reg = Registry::new();
        let (flags, live) = board(13);
        let metrics = Arc::new(AuditMetrics::new(&reg, net.tree().levels()));
        let cfg = AuditConfig {
            interval: Duration::from_secs(3600),
            probes_per_tick: 13,
            refresh_every: 1, // refresh on every tick
        };
        let auditor = Auditor::start(Arc::clone(&net), metrics, cfg, probes(&net), live);
        let victim = *net.tree().leaves().iter().max().unwrap();
        flags[victim.index()].store(false, Ordering::Relaxed);
        auditor.tick_now();
        let during = auditor.report();
        assert!(during.divergence > 0.0, "{during:?}");
        // Restart; the next refresh re-pushes every copy.
        flags[victim.index()].store(true, Ordering::Relaxed);
        auditor.tick_now();
        let after = auditor.report();
        assert_eq!(after.divergence, 0.0, "{after:?}");
        assert!(after.epoch >= 2);
        let report = auditor.stop();
        assert_eq!(report.divergence, 0.0);
    }

    /// The report `stop` returns is what a caller writes as `AUDIT.json`;
    /// it reads back unchanged.
    #[test]
    fn report_file_written_on_stop() {
        let net = Arc::new(network(9));
        let reg = Registry::new();
        let (_, live) = board(9);
        let auditor = quiet_auditor(&net, live, &reg);
        auditor.tick_now();
        let report = auditor.stop();
        let dir = std::env::temp_dir().join(format!("roads_audit_test_{}", std::process::id()));
        let path = dir.join("AUDIT.json");
        report.write(&path).unwrap();
        assert_eq!(AuditReport::load(&path).unwrap(), report);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
