//! The background watchdog: online anomaly detection over the live
//! cluster, correlated into incident timelines.
//!
//! A [`Watchdog`] has the [`crate::audit::Auditor`] lifecycle — a
//! [`Periodic`] thread (one final tick on shutdown), `tick_now` for
//! deterministic tests, `stop()` returning the final [`IncidentReport`] —
//! but instead of probing ground truth it watches the cluster's own
//! telemetry. Each tick it:
//!
//! 1. **samples** a set of [`Probe`]s from the shared
//!    [`Registry`] — raw counter/gauge values, per-tick counter-delta
//!    ratios (e.g. SLO burn = `Δslo_violations/Δqueries`),
//!    and *windowed* histogram p99s (`<name>.p99w`, the p99 of only the
//!    samples recorded since the previous tick, so a straggler shifts
//!    the signal within one tick instead of being diluted by the
//!    cumulative distribution);
//! 2. **evaluates** a [`DetectorBank`] (`roads_telemetry::detect`) over
//!    those samples, producing epoch-stamped [`DetectorFiring`]s;
//! 3. **coalesces** firings into [`Incident`]s — firings within
//!    [`WatchdogConfig::coalesce`] of an open incident's last activity
//!    merge into it, everything else opens a new incident;
//! 4. **correlates** each new incident with the flight recorder's view
//!    of the world: injected fault events ([`FaultLog`] kills /
//!    stragglers, ranked by onset proximity), overlay audit divergence
//!    (`audit.divergence_ppm`), per-server queue-depth locality, and
//!    tail-sampled slow-query explains retained while the incident is
//!    open. The ranked [`SuspectedCause`] list keeps that tier order:
//!    fault-event proximity first, then audit divergence, then queue
//!    depth. An incident matching a fault onset records its
//!    detection-latency-from-onset; one matching nothing is counted as
//!    a false alarm.
//!
//! Every outcome lands in pre-resolved `roads.watchdog.*` OpenMetrics
//! instruments ([`WatchdogMetrics`]), and the incident timeline is
//! exported as the `INCIDENTS.json` artifact ([`IncidentReport`], on the
//! same artifact layer as `AUDIT.json`).

use crate::cluster::RoadsCluster;
use crate::health::{FaultKind, FaultLog};
use roads_telemetry::{
    artifact, json_fields, json_labels, labeled, BurnRateRule, Counter, DetectorBank,
    DetectorFiring, EwmaSpikeDetector, Gauge, Histogram, Periodic, Registry, TailSampler,
    ThresholdRule,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Most slow-query ids correlated into a single incident.
const SLOW_QUERY_CAP: usize = 32;

/// Maximum gap, ms, between a *cleared* fault onset and a firing for the
/// two to correlate. Faults still active (no restart/restore yet) match
/// regardless of age.
const FAULT_MATCH_MS: f64 = 5_000.0;

/// Per-server queue depth at or above which queue locality is reported
/// as a suspected cause.
const QUEUE_ALERT_DEPTH: i64 = 4;

/// Background watchdog schedule and correlation policy.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// Wall-clock pause between detection ticks.
    pub interval: Duration,
    /// Firings within this gap of an open incident's last activity merge
    /// into it; an incident idle for longer closes.
    pub coalesce: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            interval: Duration::from_millis(100),
            coalesce: Duration::from_millis(300),
        }
    }
}

/// Every instrument the watchdog records into, pre-resolved so all
/// families appear in a scrape from the first moment.
#[derive(Debug, Clone)]
pub struct WatchdogMetrics {
    /// `roads.watchdog.ticks`: detection ticks completed.
    pub ticks: Arc<Counter>,
    /// `roads.watchdog.incidents`: incidents opened.
    pub incidents: Arc<Counter>,
    /// `roads.watchdog.false_alarms`: incidents matching no fault.
    pub false_alarms: Arc<Counter>,
    /// `roads.watchdog.open_incidents`: incidents currently open.
    pub open_incidents: Arc<Gauge>,
    /// `roads.watchdog.detection_latency_ms`: firing-to-fault-onset gap
    /// for each first detection of an injected fault.
    pub detection_latency_ms: Arc<Histogram>,
    /// `roads.watchdog.firings{detector="..."}`: firings per detector.
    firings: Vec<(String, Arc<Counter>)>,
}

impl WatchdogMetrics {
    /// Resolve (and thereby declare) every watchdog instrument in `reg`
    /// for the given detector names (see
    /// [`DetectorBank::detector_names`]).
    pub fn new(reg: &Registry, detectors: &[String]) -> Self {
        WatchdogMetrics {
            ticks: reg.counter("roads.watchdog.ticks"),
            incidents: reg.counter("roads.watchdog.incidents"),
            false_alarms: reg.counter("roads.watchdog.false_alarms"),
            open_incidents: reg.gauge("roads.watchdog.open_incidents"),
            detection_latency_ms: reg.histogram("roads.watchdog.detection_latency_ms"),
            firings: detectors
                .iter()
                .map(|d| {
                    let name = labeled("roads.watchdog.firings", &[("detector", d)]);
                    (d.clone(), reg.counter(&name))
                })
                .collect(),
        }
    }

    /// The firing counter for `detector`, if it was declared.
    pub fn firing_counter(&self, detector: &str) -> Option<&Arc<Counter>> {
        self.firings
            .iter()
            .find(|(d, _)| d == detector)
            .map(|(_, c)| c)
    }
}

/// One registry-derived series the watchdog samples each tick.
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// Current value of the counter or gauge `name`, recorded under its
    /// own name.
    Value(String),
    /// `Δnum / Δden` of two counters over the tick, recorded as
    /// `series`; skipped on ticks where `den` did not move.
    Ratio {
        /// Series name the ratio is recorded under.
        series: String,
        /// Numerator counter.
        num: String,
        /// Denominator counter.
        den: String,
    },
    /// p99 of the histogram samples recorded since the previous tick,
    /// as `<name>.p99w`; skipped on ticks with no new samples.
    WindowP99(String),
}

/// Suspected-cause tiers, in ranking order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CauseKind {
    /// A kill/straggler injection near the firing (from the
    /// [`FaultLog`]).
    FaultEvent,
    /// Non-zero overlay audit divergence at detection time.
    AuditDivergence,
    /// An unusually deep per-server queue at detection time.
    QueueDepth,
}

impl CauseKind {
    /// The artifact label for this tier.
    pub fn as_str(self) -> &'static str {
        match self {
            CauseKind::FaultEvent => "fault-event",
            CauseKind::AuditDivergence => "audit-divergence",
            CauseKind::QueueDepth => "queue-depth",
        }
    }

    /// Inverse of [`as_str`](CauseKind::as_str).
    pub fn parse(s: &str) -> Option<CauseKind> {
        match s {
            "fault-event" => Some(CauseKind::FaultEvent),
            "audit-divergence" => Some(CauseKind::AuditDivergence),
            "queue-depth" => Some(CauseKind::QueueDepth),
            _ => None,
        }
    }
}

/// One entry in an incident's ranked suspected-cause list.
#[derive(Debug, Clone, PartialEq)]
pub struct SuspectedCause {
    /// Which correlation tier produced this cause.
    pub kind: CauseKind,
    /// The implicated server, when the tier localizes one.
    pub server: Option<u32>,
    /// Relative confidence within the tier, in `(0, 1]`.
    pub score: f64,
    /// Human-readable explanation.
    pub detail: String,
}

/// The fault onset an incident was attributed to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchedFault {
    /// What was injected.
    pub kind: FaultKind,
    /// The faulted server.
    pub server: u32,
    /// Onset time, ms since watchdog start.
    pub onset_ms: f64,
}

/// A coalesced run of detector firings with its correlation verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Monotone incident id (1-based).
    pub id: u64,
    /// First firing, ms since watchdog start.
    pub opened_ms: f64,
    /// Most recent firing absorbed.
    pub last_ms: f64,
    /// Total firings absorbed.
    pub firings: u64,
    /// Distinct detector names involved, in first-seen order.
    pub detectors: Vec<String>,
    /// Distinct series involved, in first-seen order.
    pub series: Vec<String>,
    /// Ranked suspected causes (fault proximity, then audit divergence,
    /// then queue depth).
    pub causes: Vec<SuspectedCause>,
    /// The fault onset this incident detected, when one correlates.
    pub matched: Option<MatchedFault>,
    /// Firing-to-onset gap for the *first* incident detecting a given
    /// fault; `None` for repeats and false alarms.
    pub detection_latency_ms: Option<f64>,
    /// No fault onset correlates with this incident.
    pub false_alarm: bool,
    /// Query ids of tail-sampled slow-query explains retained while the
    /// incident was open (capped).
    pub slow_queries: Vec<u64>,
}

impl Incident {
    fn absorb(&mut self, f: &DetectorFiring) {
        self.firings += 1;
        if !self.detectors.iter().any(|d| d == &f.detector) {
            self.detectors.push(f.detector.clone());
        }
        if !self.series.iter().any(|s| s == &f.series) {
            self.series.push(f.series.clone());
        }
        self.last_ms = self.last_ms.max(f.at_ms);
    }
}

/// The incident artifact (`INCIDENTS.json`): what `stop()` returns.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentReport {
    /// Detection ticks completed.
    pub ticks: u64,
    /// Configured tick interval, ms.
    pub interval_ms: f64,
    /// Total detector firings.
    pub firings: u64,
    /// Incidents that matched no fault onset.
    pub false_alarms: u64,
    /// Every incident (closed and still open), ascending by id.
    pub rows: Vec<Incident>,
}

impl IncidentReport {
    /// Incidents attributed to a fault onset.
    pub fn matched(&self) -> usize {
        self.rows.iter().filter(|r| r.matched.is_some()).count()
    }

    /// First-detection latencies, ms, in incident order.
    pub fn detection_latencies_ms(&self) -> Vec<f64> {
        self.rows
            .iter()
            .filter_map(|r| r.detection_latency_ms)
            .collect()
    }

    /// Worst first-detection latency, ms.
    pub fn max_detection_latency_ms(&self) -> Option<f64> {
        self.detection_latencies_ms()
            .into_iter()
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// No cross-field invariant is enforced offline: rows are
    /// independent observations.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Current `INCIDENTS.json` schema version (the value of its `incidents`
/// marker).
pub const INCIDENTS_SCHEMA_VERSION: u64 = 1;

json_labels!(CauseKind, FaultKind);
json_fields!(SuspectedCause {
    kind,
    server,
    score,
    detail
});
json_fields!(MatchedFault {
    kind,
    server,
    onset_ms
});
json_fields!(Incident {
    id,
    opened_ms,
    last_ms,
    firings,
    detectors,
    series,
    causes,
    matched,
    detection_latency_ms,
    false_alarm,
    slow_queries,
});
json_fields!(IncidentReport {
    "incidents" = INCIDENTS_SCHEMA_VERSION,
    ticks,
    interval_ms,
    firings,
    false_alarms,
    rows,
});
artifact!(IncidentReport, "incidents", INCIDENTS_SCHEMA_VERSION);

/// The default detector set for an instrumented cluster: a per-server
/// liveness rule (`server-down`), an EWMA spike detector over the
/// windowed query-response p99 (`latency-spike`), and a multi-window
/// SLO burn-rate rule (`slo-burn`) over `Δslo_violations/Δqueries`.
pub fn standard_bank(n_servers: usize, interval: Duration) -> (DetectorBank, Vec<Probe>) {
    let interval_ms = (interval.as_secs_f64() * 1e3).max(1.0);
    let mut bank = DetectorBank::new();
    let mut probes = Vec::new();
    for s in 0..n_servers {
        let id = s.to_string();
        let series = labeled("runtime.server.alive", &[("server", id.as_str())]);
        bank.bind(&series, ThresholdRule::below("server-down", 0.5, 1));
        probes.push(Probe::Value(series));
    }
    bank.bind(
        "runtime.query_response_ms.p99w",
        EwmaSpikeDetector::new("latency-spike", 0.3, 4.0, 5.0),
    );
    probes.push(Probe::WindowP99("runtime.query_response_ms".into()));
    bank.bind(
        "watchdog.slo_burn",
        BurnRateRule::new("slo-burn", 0.05, 2.0, 2.0 * interval_ms, 8.0 * interval_ms),
    );
    probes.push(Probe::Ratio {
        series: "watchdog.slo_burn".into(),
        num: "runtime.slo_violations".into(),
        den: "runtime.queries".into(),
    });
    (bank, probes)
}

struct WatchdogShared {
    registry: Arc<Registry>,
    fault_log: Arc<FaultLog>,
    tail: Option<Arc<TailSampler>>,
    metrics: Arc<WatchdogMetrics>,
    cfg: WatchdogConfig,
    probes: Vec<Probe>,
    t0: Instant,
    state: StdMutex<WatchdogState>,
}

struct WatchdogState {
    ticks: u64,
    bank: DetectorBank,
    /// Last raw counter values, for `Ratio` probes.
    counters_last: BTreeMap<String, f64>,
    /// Last bucket counts per watched histogram (keyed by the bucket
    /// value's bit pattern — ascending for non-negative floats), for
    /// `WindowP99` probes.
    hist_last: BTreeMap<String, BTreeMap<u64, u64>>,
    /// Tail-sampler retained entries already correlated.
    tail_seen: usize,
    /// Fault-log onset indices whose detection latency is recorded.
    matched_onsets: BTreeSet<usize>,
    open: Vec<Incident>,
    closed: Vec<Incident>,
    next_id: u64,
    firings: u64,
    false_alarms: u64,
}

impl WatchdogShared {
    fn onset_ms(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.t0).as_secs_f64() * 1e3
    }

    /// Sample every probe from the registry into `(series, value)`
    /// pairs for this tick.
    fn collect(&self, st: &mut WatchdogState) -> Vec<(String, f64)> {
        let mut out = Vec::with_capacity(self.probes.len());
        let counter_delta = |st: &mut WatchdogState, name: &str| -> Option<f64> {
            let c = self.registry.find_counter(name)?;
            let v = c.get() as f64;
            let last = st.counters_last.insert(name.to_string(), v).unwrap_or(v);
            Some(v - last)
        };
        for probe in &self.probes {
            match probe {
                Probe::Value(name) => {
                    if let Some(c) = self.registry.find_counter(name) {
                        out.push((name.clone(), c.get() as f64));
                    } else if let Some(g) = self.registry.find_gauge(name) {
                        out.push((name.clone(), g.get() as f64));
                    }
                }
                Probe::Ratio { series, num, den } => {
                    let dd = counter_delta(st, den);
                    let dn = counter_delta(st, num);
                    if let (Some(dn), Some(dd)) = (dn, dd) {
                        if dd > 0.0 {
                            out.push((series.clone(), dn / dd));
                        }
                    }
                }
                Probe::WindowP99(name) => {
                    let Some(h) = self.registry.find_histogram(name) else {
                        continue;
                    };
                    let snap = h.full_snapshot();
                    let cur: BTreeMap<u64, u64> = snap
                        .buckets
                        .iter()
                        .map(|&(v, c)| (v.to_bits(), c))
                        .collect();
                    let prev = st
                        .hist_last
                        .insert(name.clone(), cur.clone())
                        .unwrap_or_default();
                    let mut total = 0u64;
                    let mut delta: Vec<(f64, u64)> = Vec::new();
                    for (&bits, &c) in &cur {
                        let d = c.saturating_sub(prev.get(&bits).copied().unwrap_or(0));
                        if d > 0 {
                            delta.push((f64::from_bits(bits), d));
                            total += d;
                        }
                    }
                    if total > 0 {
                        let rank = ((total as f64) * 0.99).ceil().max(1.0) as u64;
                        let mut cum = 0u64;
                        for (v, c) in delta {
                            cum += c;
                            if cum >= rank {
                                out.push((format!("{name}.p99w"), v));
                                break;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Open a new incident from this tick's firings: correlate against
    /// the fault log, audit divergence gauge, and queue-depth gauges.
    fn open_incident(
        &self,
        st: &mut WatchdogState,
        now_ms: f64,
        firings: &[DetectorFiring],
    ) -> Incident {
        st.next_id += 1;
        let mut inc = Incident {
            id: st.next_id,
            opened_ms: now_ms,
            last_ms: now_ms,
            firings: 0,
            detectors: Vec::new(),
            series: Vec::new(),
            causes: Vec::new(),
            matched: None,
            detection_latency_ms: None,
            false_alarm: true,
            slow_queries: Vec::new(),
        };
        for f in firings {
            inc.absorb(f);
        }
        // Tier 1: fault-event proximity. Candidates are onsets at or
        // before the firing that are either recent or still active
        // (not yet cleared by the matching recovery event).
        let events = self.fault_log.events();
        let mut candidates: Vec<(usize, f64, FaultKind, u32)> = Vec::new();
        for (idx, ev) in events.iter().enumerate() {
            if !ev.kind.is_onset() {
                continue;
            }
            let onset = self.onset_ms(ev.at);
            if onset > now_ms {
                continue;
            }
            let cleared = events[idx + 1..].iter().any(|e| {
                e.server == ev.server
                    && Some(e.kind) == ev.kind.clears_with()
                    && self.onset_ms(e.at) <= now_ms
            });
            if !cleared || now_ms - onset <= FAULT_MATCH_MS {
                candidates.push((idx, onset, ev.kind, ev.server.index() as u32));
            }
        }
        // Newest onset first: the most recent injection is the most
        // plausible trigger.
        candidates.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for &(_, onset, kind, server) in &candidates {
            let gap = now_ms - onset;
            inc.causes.push(SuspectedCause {
                kind: CauseKind::FaultEvent,
                server: Some(server),
                score: 1.0 / (1.0 + gap / 1e3),
                detail: format!(
                    "{} of server {server} {gap:.0} ms before detection",
                    kind.as_str()
                ),
            });
        }
        if let Some(&(idx, onset, kind, server)) = candidates.first() {
            inc.false_alarm = false;
            inc.matched = Some(MatchedFault {
                kind,
                server,
                onset_ms: onset,
            });
            if st.matched_onsets.insert(idx) {
                let latency = now_ms - onset;
                inc.detection_latency_ms = Some(latency);
                self.metrics.detection_latency_ms.record(latency);
            }
        }
        // Tier 2: overlay audit divergence at detection time.
        if let Some(g) = self.registry.find_gauge("audit.divergence_ppm") {
            let ppm = g.get();
            if ppm > 0 {
                inc.causes.push(SuspectedCause {
                    kind: CauseKind::AuditDivergence,
                    server: None,
                    score: (ppm as f64 / 1e6).min(1.0),
                    detail: format!("overlay divergence {ppm} ppm"),
                });
            }
        }
        // Tier 3: queue-depth locality — the deepest per-server queue
        // at or above the alert depth.
        let mut worst: Option<(u32, i64)> = None;
        for (name, v) in self.registry.gauge_values() {
            let Some(rest) = name.strip_prefix("runtime.server.queue_depth{server=\"") else {
                continue;
            };
            let Some(id) = rest.strip_suffix("\"}").and_then(|s| s.parse::<u32>().ok()) else {
                continue;
            };
            if v >= QUEUE_ALERT_DEPTH && worst.is_none_or(|(_, w)| v > w) {
                worst = Some((id, v));
            }
        }
        if let Some((server, depth)) = worst {
            inc.causes.push(SuspectedCause {
                kind: CauseKind::QueueDepth,
                server: Some(server),
                score: depth as f64 / (depth as f64 + 1.0),
                detail: format!("queue depth {depth} at server {server}"),
            });
        }
        self.metrics.incidents.inc();
        if inc.false_alarm {
            self.metrics.false_alarms.inc();
            st.false_alarms += 1;
        }
        inc
    }

    fn tick(&self) {
        let now_ms = self.t0.elapsed().as_secs_f64() * 1e3;
        let mut st = self.state.lock().expect("watchdog state");
        st.ticks += 1;
        self.metrics.ticks.inc();
        let samples = self.collect(&mut st);
        st.bank.advance_epoch();
        let mut firings: Vec<DetectorFiring> = Vec::new();
        for (series, v) in samples {
            firings.extend(st.bank.observe_sample(&series, now_ms, v));
        }
        for f in &firings {
            st.firings += 1;
            if let Some(c) = self.metrics.firing_counter(&f.detector) {
                c.inc();
            }
        }
        let coalesce_ms = self.cfg.coalesce.as_secs_f64() * 1e3;
        if !firings.is_empty() {
            // All of one tick's firings are the same burst; absorb into
            // a recently-active open incident or start a new one.
            match st
                .open
                .iter()
                .position(|i| now_ms - i.last_ms <= coalesce_ms)
            {
                Some(at) => {
                    let mut inc = std::mem::replace(&mut st.open[at], placeholder());
                    for f in &firings {
                        inc.absorb(f);
                    }
                    inc.last_ms = inc.last_ms.max(now_ms);
                    st.open[at] = inc;
                }
                None => {
                    let inc = self.open_incident(&mut st, now_ms, &firings);
                    st.open.push(inc);
                }
            }
        }
        // Correlate newly retained slow-query explains into every open
        // incident (they overlap its window).
        if let Some(tail) = &self.tail {
            let retained = tail.retained();
            if retained.len() > st.tail_seen {
                let seen = st.tail_seen;
                for rq in &retained[seen..] {
                    for inc in &mut st.open {
                        if inc.slow_queries.len() < SLOW_QUERY_CAP {
                            inc.slow_queries.push(rq.explain.query_id);
                        }
                    }
                }
                st.tail_seen = retained.len();
            }
        }
        // Close incidents idle past the coalescing gap.
        let open = std::mem::take(&mut st.open);
        for inc in open {
            if now_ms - inc.last_ms > coalesce_ms {
                st.closed.push(inc);
            } else {
                st.open.push(inc);
            }
        }
        self.metrics.open_incidents.set(st.open.len() as i64);
    }

    fn report_locked(&self, st: &WatchdogState) -> IncidentReport {
        let mut rows: Vec<Incident> = st.closed.iter().chain(st.open.iter()).cloned().collect();
        rows.sort_by_key(|r| r.id);
        IncidentReport {
            ticks: st.ticks,
            interval_ms: self.cfg.interval.as_secs_f64() * 1e3,
            firings: st.firings,
            false_alarms: st.false_alarms,
            rows,
        }
    }
}

/// Placeholder for the in-place absorb swap; never observable.
fn placeholder() -> Incident {
    Incident {
        id: 0,
        opened_ms: 0.0,
        last_ms: 0.0,
        firings: 0,
        detectors: Vec::new(),
        series: Vec::new(),
        causes: Vec::new(),
        matched: None,
        detection_latency_ms: None,
        false_alarm: true,
        slow_queries: Vec::new(),
    }
}

/// The background watchdog thread, a [`Periodic`]: `stop` joins it and
/// returns the final report; dropping without stopping also signals and
/// joins. Either shutdown path runs one final tick first, so late faults
/// are always evaluated.
pub struct Watchdog {
    shared: Arc<WatchdogShared>,
    runner: Periodic,
}

impl Watchdog {
    /// Start watching `registry` every [`WatchdogConfig::interval`],
    /// evaluating `bank` over the series derived by `probes` and
    /// correlating firings against `fault_log` (and `tail`, when
    /// given). The first scheduled tick fires one full interval after
    /// start, matching the auditor: an immediate tick would skew manually
    /// driven schedules (`tick_now` with a long interval).
    pub fn start(
        registry: Arc<Registry>,
        fault_log: Arc<FaultLog>,
        tail: Option<Arc<TailSampler>>,
        metrics: Arc<WatchdogMetrics>,
        cfg: WatchdogConfig,
        bank: DetectorBank,
        probes: Vec<Probe>,
    ) -> Self {
        let interval = cfg.interval;
        let shared = Arc::new(WatchdogShared {
            registry,
            fault_log,
            tail,
            metrics,
            cfg,
            probes,
            t0: Instant::now(),
            state: StdMutex::new(WatchdogState {
                ticks: 0,
                bank,
                counters_last: BTreeMap::new(),
                hist_last: BTreeMap::new(),
                tail_seen: 0,
                matched_onsets: BTreeSet::new(),
                open: Vec::new(),
                closed: Vec::new(),
                next_id: 0,
                firings: 0,
                false_alarms: 0,
            }),
        });
        let ticker = Arc::clone(&shared);
        let runner = Periodic::spawn("roads-watchdog", interval, move || ticker.tick());
        Watchdog { shared, runner }
    }

    /// [`Watchdog::start`] wired to an instrumented cluster: the
    /// [`standard_bank`] detector set, the cluster's fault log and tail
    /// sampler, and `roads.watchdog.*` instruments resolved in `reg`.
    pub fn for_cluster(cluster: &RoadsCluster, reg: &Arc<Registry>, cfg: WatchdogConfig) -> Self {
        let (bank, probes) = standard_bank(cluster.network().len(), cfg.interval);
        let metrics = Arc::new(WatchdogMetrics::new(reg, &bank.detector_names()));
        Watchdog::start(
            Arc::clone(reg),
            cluster.fault_log(),
            cluster.tail.clone(),
            metrics,
            cfg,
            bank,
            probes,
        )
    }

    /// Run one detection tick right now, outside the schedule
    /// (deterministic tests).
    pub fn tick_now(&self) {
        self.shared.tick();
    }

    /// The pre-resolved `roads.watchdog.*` instruments.
    pub fn metrics(&self) -> Arc<WatchdogMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The report accumulated so far.
    pub fn report(&self) -> IncidentReport {
        let st = self.shared.state.lock().expect("watchdog state");
        self.shared.report_locked(&st)
    }

    /// Stop the background thread and return the final report.
    pub fn stop(mut self) -> IncidentReport {
        self.runner.stop();
        self.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_core::ServerId;
    use roads_telemetry::Json;

    /// A watchdog that only ticks when told to.
    fn quiet(
        reg: &Arc<Registry>,
        log: &Arc<FaultLog>,
        bank: DetectorBank,
        probes: Vec<Probe>,
        cfg: WatchdogConfig,
    ) -> (Watchdog, Arc<WatchdogMetrics>) {
        let metrics = Arc::new(WatchdogMetrics::new(reg, &bank.detector_names()));
        let wd = Watchdog::start(
            Arc::clone(reg),
            Arc::clone(log),
            None,
            Arc::clone(&metrics),
            WatchdogConfig {
                interval: Duration::from_secs(3600),
                ..cfg
            },
            bank,
            probes,
        );
        (wd, metrics)
    }

    #[test]
    fn detects_kill_and_names_the_server() {
        let reg = Arc::new(Registry::new());
        let series = labeled("runtime.server.alive", &[("server", "1")]);
        let alive = reg.gauge(&series);
        alive.set(1);
        let depth = reg.gauge(&labeled("runtime.server.queue_depth", &[("server", "1")]));
        depth.set(7);
        let log = Arc::new(FaultLog::new());
        let mut bank = DetectorBank::new();
        bank.bind(&series, ThresholdRule::below("server-down", 0.5, 1));
        let probes = vec![Probe::Value(series.clone())];
        let (wd, metrics) = quiet(
            &reg,
            &log,
            bank,
            probes,
            WatchdogConfig {
                coalesce: Duration::from_secs(3600),
                ..WatchdogConfig::default()
            },
        );

        wd.tick_now(); // healthy baseline
        assert_eq!(metrics.incidents.get(), 0);

        alive.set(0);
        log.record(ServerId(1), FaultKind::Kill, 1.0);
        wd.tick_now();

        let report = wd.report();
        assert_eq!(report.rows.len(), 1);
        let inc = &report.rows[0];
        assert!(!inc.false_alarm);
        assert_eq!(inc.detectors, vec!["server-down".to_string()]);
        let m = inc.matched.expect("matched fault");
        assert_eq!((m.kind, m.server), (FaultKind::Kill, 1));
        let latency = inc.detection_latency_ms.expect("first detection");
        assert!(latency >= 0.0);
        // Ranked causes: the fault event leads and names the server;
        // the deep queue at the same server rides along in tier 3.
        assert_eq!(inc.causes[0].kind, CauseKind::FaultEvent);
        assert_eq!(inc.causes[0].server, Some(1));
        assert!(inc
            .causes
            .iter()
            .any(|c| c.kind == CauseKind::QueueDepth && c.server == Some(1)));
        assert_eq!(metrics.incidents.get(), 1);
        assert_eq!(metrics.false_alarms.get(), 0);
        assert!(metrics.firing_counter("server-down").unwrap().get() >= 1);
        assert_eq!(metrics.detection_latency_ms.count(), 1);

        // Continued firing coalesces into the same incident instead of
        // opening a second one, and the repeat match records no second
        // detection latency.
        wd.tick_now();
        let report = wd.stop();
        assert_eq!(report.rows.len(), 1);
        assert!(report.rows[0].firings >= 2);
        assert_eq!(metrics.detection_latency_ms.count(), 1);
    }

    #[test]
    fn spike_without_fault_is_a_false_alarm() {
        let reg = Arc::new(Registry::new());
        let load = reg.gauge("load");
        let log = Arc::new(FaultLog::new());
        let mut bank = DetectorBank::new();
        bank.bind("load", EwmaSpikeDetector::new("load-spike", 0.5, 3.0, 1.0));
        let probes = vec![Probe::Value("load".into())];
        let (wd, metrics) = quiet(&reg, &log, bank, probes, WatchdogConfig::default());

        load.set(10);
        for _ in 0..4 {
            wd.tick_now();
        }
        assert_eq!(metrics.incidents.get(), 0);
        load.set(100);
        wd.tick_now();
        let report = wd.stop();
        assert_eq!(report.rows.len(), 1);
        assert!(report.rows[0].false_alarm);
        assert_eq!(report.rows[0].matched, None);
        assert_eq!(report.false_alarms, 1);
        assert_eq!(metrics.false_alarms.get(), 1);
    }

    #[test]
    fn windowed_p99_sees_a_tail_shift_within_one_tick() {
        let reg = Arc::new(Registry::new());
        let lat = reg.histogram("lat");
        let log = Arc::new(FaultLog::new());
        let mut bank = DetectorBank::new();
        bank.bind(
            "lat.p99w",
            EwmaSpikeDetector::new("latency-spike", 0.5, 3.0, 1.0),
        );
        let probes = vec![Probe::WindowP99("lat".into())];
        let (wd, metrics) = quiet(&reg, &log, bank, probes, WatchdogConfig::default());

        for _ in 0..4 {
            for _ in 0..50 {
                lat.record(10.0);
            }
            wd.tick_now();
        }
        assert_eq!(metrics.incidents.get(), 0);
        // 20 slow samples against 200 fast historical ones: the
        // cumulative p99 barely moves, the windowed p99 jumps to the
        // slow bucket immediately.
        for _ in 0..20 {
            lat.record(400.0);
        }
        wd.tick_now();
        let report = wd.stop();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].series, vec!["lat.p99w".to_string()]);
        assert!(report.rows[0].firings >= 1);
    }

    /// The SLO-burn rate probe sees per-tick counter deltas, not the
    /// cumulative ratio.
    #[test]
    fn rate_probe_feeds_per_tick_deltas() {
        let reg = Arc::new(Registry::new());
        let (bad, all) = (reg.counter("bad"), reg.counter("all"));
        let log = Arc::new(FaultLog::new());
        let mut bank = DetectorBank::new();
        bank.bind("burn", ThresholdRule::above("burn-surge", 0.5, 1));
        let probes = vec![Probe::Ratio {
            series: "burn".into(),
            num: "bad".into(),
            den: "all".into(),
        }];
        let (wd, metrics) = quiet(&reg, &log, bank, probes, WatchdogConfig::default());

        bad.add(90);
        all.add(100);
        wd.tick_now(); // first observation seeds the baseline: no sample
        assert_eq!(metrics.incidents.get(), 0);
        bad.add(1);
        all.add(10);
        wd.tick_now(); // 1/10 < 0.5, although the cumulative 91/110 is not
        assert_eq!(metrics.incidents.get(), 0);
        bad.add(5);
        all.add(10);
        wd.tick_now(); // 5/10 >= 0.5
        assert_eq!(metrics.incidents.get(), 1);
    }

    #[test]
    fn idle_incident_closes_after_the_coalesce_gap() {
        let reg = Arc::new(Registry::new());
        let series = labeled("runtime.server.alive", &[("server", "0")]);
        let alive = reg.gauge(&series);
        alive.set(1);
        let log = Arc::new(FaultLog::new());
        let mut bank = DetectorBank::new();
        bank.bind(&series, ThresholdRule::below("server-down", 0.5, 1));
        let probes = vec![Probe::Value(series.clone())];
        let (wd, metrics) = quiet(
            &reg,
            &log,
            bank,
            probes,
            WatchdogConfig {
                coalesce: Duration::from_millis(30),
                ..WatchdogConfig::default()
            },
        );

        wd.tick_now();
        alive.set(0);
        log.record(ServerId(0), FaultKind::Kill, 1.0);
        wd.tick_now();
        wd.tick_now(); // immediate re-fire coalesces
        assert_eq!(metrics.incidents.get(), 1);
        assert_eq!(metrics.open_incidents.get(), 1);

        alive.set(1); // recovered: detector stops firing
        log.record(ServerId(0), FaultKind::Restart, 1.0);
        std::thread::sleep(Duration::from_millis(45));
        wd.tick_now(); // idle past the gap: the incident closes
        assert_eq!(metrics.open_incidents.get(), 0);
        let report = wd.stop();
        assert_eq!(report.rows.len(), 1);
        assert!(report.rows[0].firings >= 2);
    }

    #[test]
    fn report_round_trips_and_rejects_corruption() {
        let report = IncidentReport {
            ticks: 12,
            interval_ms: 100.0,
            firings: 5,
            false_alarms: 1,
            rows: vec![
                Incident {
                    id: 1,
                    opened_ms: 250.0,
                    last_ms: 410.0,
                    firings: 4,
                    detectors: vec!["server-down".into(), "latency-spike".into()],
                    series: vec!["runtime.server.alive{server=\"2\"}".into()],
                    causes: vec![
                        SuspectedCause {
                            kind: CauseKind::FaultEvent,
                            server: Some(2),
                            score: 0.9,
                            detail: "kill of server 2 110 ms before detection".into(),
                        },
                        SuspectedCause {
                            kind: CauseKind::AuditDivergence,
                            server: None,
                            score: 0.01,
                            detail: "overlay divergence 10000 ppm".into(),
                        },
                    ],
                    matched: Some(MatchedFault {
                        kind: FaultKind::Kill,
                        server: 2,
                        onset_ms: 140.0,
                    }),
                    detection_latency_ms: Some(110.0),
                    false_alarm: false,
                    slow_queries: vec![7, 9],
                },
                Incident {
                    id: 2,
                    opened_ms: 900.0,
                    last_ms: 900.0,
                    firings: 1,
                    detectors: vec!["slo-burn".into()],
                    series: vec!["watchdog.slo_burn".into()],
                    causes: Vec::new(),
                    matched: None,
                    detection_latency_ms: None,
                    false_alarm: true,
                    slow_queries: Vec::new(),
                },
            ],
        };
        let doc = report.to_json();
        assert!(IncidentReport::has_marker(&doc));
        assert_eq!(IncidentReport::from_json(&doc).unwrap(), report);
        assert_eq!(report.matched(), 1);
        assert_eq!(report.max_detection_latency_ms(), Some(110.0));

        // Wrong marker.
        let err =
            IncidentReport::from_json(&Json::obj(vec![("audit", Json::num(1.0))])).unwrap_err();
        assert!(err.contains("marker"), "{err}");

        // Top-level field dropped.
        let Json::Obj(mut pairs) = doc.clone() else {
            panic!("object doc")
        };
        pairs.retain(|(k, _)| k != "firings");
        let err = IncidentReport::from_json(&Json::Obj(pairs)).unwrap_err();
        assert!(err.contains("firings"), "{err}");

        // Row field dropped: the error names the row and the field.
        let Json::Obj(mut pairs) = doc.clone() else {
            panic!("object doc")
        };
        for (k, v) in &mut pairs {
            if k == "rows" {
                let Json::Arr(rows) = v else {
                    panic!("rows array")
                };
                let Json::Obj(row) = &mut rows[0] else {
                    panic!("row object")
                };
                row.retain(|(k, _)| k != "opened_ms");
            }
        }
        let err = IncidentReport::from_json(&Json::Obj(pairs)).unwrap_err();
        assert!(
            err.contains("rows[0]") && err.contains("opened_ms"),
            "{err}"
        );

        // Unknown cause kind.
        let Json::Obj(mut pairs) = doc.clone() else {
            panic!("object doc")
        };
        for (k, v) in &mut pairs {
            if k == "rows" {
                let Json::Arr(rows) = v else {
                    panic!("rows array")
                };
                let Json::Obj(row) = &mut rows[0] else {
                    panic!("row object")
                };
                for (rk, rv) in row {
                    if rk == "causes" {
                        let Json::Arr(causes) = rv else {
                            panic!("causes array")
                        };
                        let Json::Obj(cause) = &mut causes[0] else {
                            panic!("cause object")
                        };
                        for (ck, cv) in cause {
                            if ck == "kind" {
                                *cv = Json::str("gremlins");
                            }
                        }
                    }
                }
            }
        }
        let err = IncidentReport::from_json(&Json::Obj(pairs)).unwrap_err();
        assert!(err.contains("kind"), "{err}");
    }

    #[test]
    fn standard_bank_covers_liveness_latency_and_burn() {
        let (bank, probes) = standard_bank(3, Duration::from_millis(100));
        let names = bank.detector_names();
        assert!(names.iter().any(|n| n == "server-down"));
        assert!(names.iter().any(|n| n == "latency-spike"));
        assert!(names.iter().any(|n| n == "slo-burn"));
        // One liveness binding per server plus the two cluster-wide ones.
        assert_eq!(bank.len(), 5);
        assert_eq!(probes.len(), 5);
    }

    /// Scheduled ticks, `tick_now` hammering, registry writers and
    /// exposition renders all race on the same shared state; the final
    /// report and instruments must come out coherent.
    #[test]
    fn ticks_race_with_writers_and_scrapes() {
        use roads_telemetry::OpenMetricsSnapshot;
        use std::sync::atomic::{AtomicBool, Ordering};

        let reg = Arc::new(Registry::new());
        let log = Arc::new(FaultLog::new());
        let (bank, probes) = standard_bank(2, Duration::from_millis(1));
        let metrics = Arc::new(WatchdogMetrics::new(&reg, &bank.detector_names()));
        let wd = Watchdog::start(
            Arc::clone(&reg),
            Arc::clone(&log),
            None,
            Arc::clone(&metrics),
            WatchdogConfig {
                interval: Duration::from_millis(1),
                ..WatchdogConfig::default()
            },
            bank,
            probes,
        );

        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let reg = Arc::clone(&reg);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let q = reg.counter("runtime.queries");
                    let h = reg.histogram("runtime.query_response_ms");
                    let mut v = 5.0;
                    while !stop.load(Ordering::Relaxed) {
                        q.inc();
                        h.record(v);
                        v = if v > 8.0 { 5.0 } else { v + 0.01 };
                    }
                })
            })
            .collect();

        for i in 0..200u64 {
            wd.tick_now();
            if i.is_multiple_of(20) {
                // Exposition renders concurrently with detector ticks.
                let _ = OpenMetricsSnapshot::from_registry(&reg).render();
                let _ = wd.report();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        let report = wd.stop();
        // 200 manual + however many scheduled ticks landed in between;
        // the counter and the report must agree.
        assert!(report.ticks >= 200, "lost ticks: {}", report.ticks);
        assert_eq!(metrics.ticks.get(), report.ticks);
        assert_eq!(
            report.rows.iter().map(|i| i.firings).sum::<u64>(),
            report.firings,
            "incident firing counts must sum to the report total"
        );
    }
}
