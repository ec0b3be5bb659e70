//! The background watchdog: online anomaly detection over the live
//! cluster, correlated into incident timelines.
//!
//! A [`Watchdog`] has the [`crate::audit::Auditor`] lifecycle — a
//! [`Periodic`] thread (one final tick on shutdown), `tick_now` for
//! deterministic tests, `stop()` returning the final [`IncidentReport`] —
//! but instead of probing ground truth it watches the cluster's own
//! instruments, held typed from [`Watchdog::for_cluster`] on. Each tick
//! it:
//!
//! 1. **feeds fixed detectors** (`roads_telemetry::detect`) from those
//!    instruments, in this order:
//!    * per server, in ascending id, a `server-down` floor on its
//!      liveness gauge (series `runtime.server.alive{server="N"}`);
//!    * a `latency-spike` EWMA detector on the *windowed* p99 of query
//!      response time (`runtime.query_response_ms.p99w`: the p99 of only
//!      the samples recorded since the previous tick, so a straggler
//!      shifts the signal within one tick instead of being diluted by the
//!      cumulative distribution; skipped on ticks with no new samples);
//!    * a multi-window `slo-burn` rule on `Δslo_violations / Δqueries`
//!      over the tick (`watchdog.slo_burn`; skipped on ticks where no
//!      query finished).
//!
//!    A detector is fed a sample only if it is newer than the last one it
//!    was fed;
//! 2. **coalesces** firings into [`Incident`]s — firings within
//!    [`WatchdogConfig::coalesce`] of an open incident's last activity
//!    merge into it, everything else opens a new incident;
//! 3. **correlates** each new incident with the flight recorder's view
//!    of the world: injected fault events ([`FaultLog`] kills /
//!    stragglers, ranked by onset proximity), overlay audit divergence
//!    (the attached [`AuditMetrics`]' `divergence_ppm`), per-server
//!    queue-depth locality, and tail-sampled slow-query explains retained
//!    while the incident is open. The ranked [`SuspectedCause`] list keeps
//!    that tier order: fault-event proximity first, then audit
//!    divergence, then queue depth. An incident matching a fault onset
//!    records its detection-latency-from-onset; one matching nothing is
//!    counted as a false alarm.
//!
//! Every outcome lands in pre-resolved `roads.watchdog.*` registry
//! instruments, and the incident timeline is exported as the
//! `INCIDENTS.json` artifact ([`IncidentReport`], on the same artifact
//! layer as `AUDIT.json`).

use crate::audit::AuditMetrics;
use crate::cluster::RoadsCluster;
use crate::health::{FaultKind, FaultLog, RuntimeMetrics};
use roads_telemetry::{
    artifact, json_fields, json_labels, labeled, BurnRateRule, Counter, EwmaSpikeDetector, Gauge,
    Histogram, Periodic, Registry, TailSampler, ThresholdRule,
};
use std::collections::BTreeSet;
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

/// The detector a server's liveness floor fires as.
const SERVER_DOWN: &str = "server-down";
/// The detector the windowed response p99 fires as.
const LATENCY_SPIKE: &str = "latency-spike";
/// The detector the SLO burn rate fires as.
const SLO_BURN: &str = "slo-burn";
/// The series name of the windowed response p99.
const P99W_SERIES: &str = "runtime.query_response_ms.p99w";
/// The series name of the per-tick SLO burn ratio.
const BURN_SERIES: &str = "watchdog.slo_burn";

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
struct WatchdogMetrics {
    /// `roads.watchdog.ticks`: detection ticks completed.
    ticks: Arc<Counter>,
    /// `roads.watchdog.incidents`: incidents opened.
    incidents: Arc<Counter>,
    /// `roads.watchdog.false_alarms`: incidents matching no fault.
    false_alarms: Arc<Counter>,
    /// `roads.watchdog.open_incidents`: incidents currently open.
    open_incidents: Arc<Gauge>,
    /// `roads.watchdog.detection_latency_ms`: firing-to-fault-onset gap
    /// for each first detection of an injected fault.
    detection_latency_ms: Arc<Histogram>,
    /// `roads.watchdog.firings{detector="server-down"}`.
    down_firings: Arc<Counter>,
    /// `roads.watchdog.firings{detector="latency-spike"}`.
    spike_firings: Arc<Counter>,
    /// `roads.watchdog.firings{detector="slo-burn"}`.
    burn_firings: Arc<Counter>,
}

impl WatchdogMetrics {
    /// Resolve (and thereby declare) every watchdog instrument in `reg`.
    fn new(reg: &Registry) -> Self {
        let firings = |d| reg.counter(&labeled("roads.watchdog.firings", &[("detector", d)]));
        WatchdogMetrics {
            ticks: reg.counter("roads.watchdog.ticks"),
            incidents: reg.counter("roads.watchdog.incidents"),
            false_alarms: reg.counter("roads.watchdog.false_alarms"),
            open_incidents: reg.gauge("roads.watchdog.open_incidents"),
            detection_latency_ms: reg.histogram("roads.watchdog.detection_latency_ms"),
            down_firings: firings(SERVER_DOWN),
            spike_firings: firings(LATENCY_SPIKE),
            burn_firings: firings(SLO_BURN),
        }
    }
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
    fn absorb(&mut self, detector: &str, series: &str) {
        self.firings += 1;
        if !self.detectors.iter().any(|d| d == detector) {
            self.detectors.push(detector.to_string());
        }
        if !self.series.iter().any(|s| s == series) {
            self.series.push(series.to_string());
        }
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

/// p99 of the samples `h` took since `last` — its buckets at the previous
/// tick, updated here to now; `None` when it took none.
fn window_p99(h: &Histogram, last: &mut Vec<(f64, u64)>) -> Option<f64> {
    let prev = std::mem::replace(last, h.full_snapshot().buckets);
    let delta: Vec<(f64, u64)> = last
        .iter()
        .map(|&(edge, c)| {
            let before = prev
                .binary_search_by(|p| p.0.total_cmp(&edge))
                .map_or(0, |i| prev[i].1);
            (edge, c.saturating_sub(before))
        })
        .collect();
    let total: u64 = delta.iter().map(|&(_, c)| c).sum();
    let rank = ((total as f64) * 0.99).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    delta
        .into_iter()
        .find(|&(_, c)| {
            cum += c;
            cum >= rank
        })
        .map(|(edge, _)| edge)
}

/// The detectors' one rule on time: a sample not newer than the last one
/// a detector was fed (`fed_ms`, advanced here) feeds it nothing.
fn fresh(fed_ms: &mut f64, at_ms: f64) -> bool {
    let newer = at_ms > *fed_ms;
    if newer {
        *fed_ms = at_ms;
    }
    newer
}

struct WatchdogShared {
    /// The watched cluster's instruments; `None` when it was started
    /// without a registry, and then nothing fires.
    runtime: Option<RuntimeMetrics>,
    audit: Option<Arc<AuditMetrics>>,
    fault_log: Arc<FaultLog>,
    tail: Option<Arc<TailSampler>>,
    metrics: WatchdogMetrics,
    cfg: WatchdogConfig,
    t0: Instant,
    state: StdMutex<WatchdogState>,
}

struct WatchdogState {
    ticks: u64,
    /// One `server-down` floor per server, on its liveness gauge.
    down: Vec<ThresholdRule>,
    /// `latency-spike`, on the windowed response p99.
    spike: EwmaSpikeDetector,
    /// `slo-burn`, on the per-tick SLO burn ratio.
    burn: BurnRateRule,
    /// Time of the newest sample fed to `down`, `spike` and `burn`.
    down_fed_ms: f64,
    spike_fed_ms: f64,
    burn_fed_ms: f64,
    /// The response histogram's buckets at the previous tick.
    response_last: Vec<(f64, u64)>,
    /// `(slo_violation, queries)` at the previous tick.
    burn_last: Option<(u64, u64)>,
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
    fn new(
        runtime: Option<RuntimeMetrics>,
        audit: Option<Arc<AuditMetrics>>,
        fault_log: Arc<FaultLog>,
        tail: Option<Arc<TailSampler>>,
        reg: &Registry,
        cfg: WatchdogConfig,
    ) -> Self {
        let servers = runtime.as_ref().map_or(0, |m| m.servers.len());
        let interval_ms = (cfg.interval.as_secs_f64() * 1e3).max(1.0);
        let state = WatchdogState {
            ticks: 0,
            down: vec![ThresholdRule::below(0.5, 1); servers],
            spike: EwmaSpikeDetector::new(0.3, 4.0, 5.0),
            burn: BurnRateRule::new(0.05, 2.0, 2.0 * interval_ms, 8.0 * interval_ms),
            down_fed_ms: f64::NEG_INFINITY,
            spike_fed_ms: f64::NEG_INFINITY,
            burn_fed_ms: f64::NEG_INFINITY,
            response_last: Vec::new(),
            burn_last: None,
            tail_seen: 0,
            matched_onsets: BTreeSet::new(),
            open: Vec::new(),
            closed: Vec::new(),
            next_id: 0,
            firings: 0,
            false_alarms: 0,
        };
        WatchdogShared {
            runtime,
            audit,
            fault_log,
            tail,
            metrics: WatchdogMetrics::new(reg),
            cfg,
            t0: Instant::now(),
            state: StdMutex::new(state),
        }
    }

    /// Milliseconds since the watchdog started: the time a scheduled or
    /// manual tick runs at.
    fn now_ms(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e3
    }

    fn onset_ms(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.t0).as_secs_f64() * 1e3
    }

    /// Feed this tick's samples to the detectors and return the firings
    /// as `(detector, series)`, in absorb order: servers ascending, then
    /// the spike detector, then burn.
    fn detect(&self, st: &mut WatchdogState, now_ms: f64) -> Vec<(&'static str, String)> {
        let mut firings = Vec::new();
        let Some(m) = &self.runtime else {
            return firings;
        };
        if fresh(&mut st.down_fed_ms, now_ms) {
            for (s, (server, rule)) in m.servers.iter().zip(&mut st.down).enumerate() {
                if rule.observe(now_ms, server.alive.get() as f64) {
                    let id = s.to_string();
                    let series = labeled("runtime.server.alive", &[("server", id.as_str())]);
                    self.metrics.down_firings.inc();
                    firings.push((SERVER_DOWN, series));
                }
            }
        }
        if let Some(p99) = window_p99(&m.response_ms, &mut st.response_last) {
            if fresh(&mut st.spike_fed_ms, now_ms) && st.spike.observe(now_ms, p99) {
                self.metrics.spike_firings.inc();
                firings.push((LATENCY_SPIKE, P99W_SERIES.to_string()));
            }
        }
        // Violations first: `finish` counts a query before its violation.
        let slo = m.slo_violation.get();
        let queries = m.queries.get();
        if let Some((slo_last, queries_last)) = st.burn_last.replace((slo, queries)) {
            if queries > queries_last && fresh(&mut st.burn_fed_ms, now_ms) {
                let ratio = (slo - slo_last) as f64 / (queries - queries_last) as f64;
                if st.burn.observe(now_ms, ratio) {
                    self.metrics.burn_firings.inc();
                    firings.push((SLO_BURN, BURN_SERIES.to_string()));
                }
            }
        }
        firings
    }

    /// Open a new incident from this tick's firings: correlate against
    /// the fault log, audit divergence and per-server queue depths.
    fn open_incident(
        &self,
        st: &mut WatchdogState,
        now_ms: f64,
        firings: &[(&str, String)],
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
        for (detector, series) in firings {
            inc.absorb(detector, series);
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
        if let Some(audit) = &self.audit {
            let ppm = audit.divergence_ppm.get();
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
        // at or above the alert depth, the lowest id on a tie.
        let mut worst: Option<(u32, i64)> = None;
        for (id, server) in self
            .runtime
            .iter()
            .flat_map(|m| m.servers.iter().enumerate())
        {
            let v = server.queue_depth.get();
            if v >= QUEUE_ALERT_DEPTH && worst.is_none_or(|(_, w)| v > w) {
                worst = Some((id as u32, v));
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

    /// One detection tick at `now_ms`, ms since start.
    fn tick(&self, now_ms: f64) {
        let mut guard = self.state.lock().expect("watchdog state");
        let st = &mut *guard;
        st.ticks += 1;
        self.metrics.ticks.inc();
        let firings = self.detect(st, now_ms);
        st.firings += firings.len() as u64;
        let coalesce_ms = self.cfg.coalesce.as_secs_f64() * 1e3;
        if !firings.is_empty() {
            // All of one tick's firings are the same burst; absorb into
            // a recently-active open incident or start a new one.
            match st
                .open
                .iter_mut()
                .find(|i| now_ms - i.last_ms <= coalesce_ms)
            {
                Some(inc) => {
                    for (detector, series) in &firings {
                        inc.absorb(detector, series);
                    }
                    inc.last_ms = inc.last_ms.max(now_ms);
                }
                None => {
                    let inc = self.open_incident(st, now_ms, &firings);
                    st.open.push(inc);
                }
            }
        }
        // Correlate newly retained slow-query explains into every open
        // incident (they overlap its window).
        if let Some(tail) = &self.tail {
            let retained = tail.retained();
            for rq in retained.iter().skip(st.tail_seen) {
                for inc in &mut st.open {
                    if inc.slow_queries.len() < SLOW_QUERY_CAP {
                        inc.slow_queries.push(rq.explain.query_id);
                    }
                }
            }
            st.tail_seen = st.tail_seen.max(retained.len());
        }
        // Close incidents idle past the coalescing gap.
        let (idle, open): (Vec<Incident>, Vec<Incident>) = std::mem::take(&mut st.open)
            .into_iter()
            .partition(|inc| now_ms - inc.last_ms > coalesce_ms);
        st.closed.extend(idle);
        st.open = open;
        self.metrics.open_incidents.set(st.open.len() as i64);
    }

    /// The report accumulated so far.
    fn report(&self) -> IncidentReport {
        let st = self.state.lock().expect("watchdog state");
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

/// The background watchdog thread, a [`Periodic`]: `stop` joins it and
/// returns the final report; dropping without stopping also signals and
/// joins. Either shutdown path runs one final tick first, so late faults
/// are always evaluated.
pub struct Watchdog {
    shared: Arc<WatchdogShared>,
    runner: Periodic,
}

impl Watchdog {
    /// Start watching an instrumented cluster every
    /// [`WatchdogConfig::interval`]: its liveness gauges, response
    /// histogram and SLO counters feed the detectors, and firings
    /// correlate against its fault log, its attached audit instruments
    /// and tail sampler. The `roads.watchdog.*` instruments are resolved
    /// in `reg`. The first scheduled tick fires one full interval after
    /// start, matching the auditor: an immediate tick would skew manually
    /// driven schedules (`tick_now` with a long interval).
    pub fn for_cluster(cluster: &RoadsCluster, reg: &Arc<Registry>, cfg: WatchdogConfig) -> Self {
        Watchdog::spawn(WatchdogShared::new(
            cluster.metrics.clone(),
            cluster.audit.clone(),
            cluster.fault_log(),
            cluster.tail.clone(),
            reg,
            cfg,
        ))
    }

    fn spawn(shared: WatchdogShared) -> Self {
        let interval = shared.cfg.interval;
        let shared = Arc::new(shared);
        let ticker = Arc::clone(&shared);
        let runner = Periodic::spawn("roads-watchdog", interval, move || {
            ticker.tick(ticker.now_ms())
        });
        Watchdog { shared, runner }
    }

    /// Run one detection tick right now, outside the schedule
    /// (deterministic tests).
    pub fn tick_now(&self) {
        self.shared.tick(self.shared.now_ms());
    }

    /// The report accumulated so far.
    pub fn report(&self) -> IncidentReport {
        self.shared.report()
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

    /// Tick times of the unit tests, ms since start: far past the wall
    /// clock's, so every fault a test logs lies before its next tick.
    const T0: f64 = 60_000.0;

    /// A watchdog over `m` that ticks only when told to, and at the time
    /// it is told.
    fn watching(m: &RuntimeMetrics, log: &Arc<FaultLog>, cfg: WatchdogConfig) -> WatchdogShared {
        let cfg = WatchdogConfig {
            interval: Duration::from_millis(100),
            ..cfg
        };
        WatchdogShared::new(
            Some(m.clone()),
            None,
            Arc::clone(log),
            None,
            &Registry::new(),
            cfg,
        )
    }

    #[test]
    fn detects_kill_and_names_the_server() {
        let reg = Registry::new();
        let m = RuntimeMetrics::new(&reg, 2);
        m.servers[1].queue_depth.set(7);
        let log = Arc::new(FaultLog::new());
        let wd = watching(
            &m,
            &log,
            WatchdogConfig {
                coalesce: Duration::from_secs(3600),
                ..WatchdogConfig::default()
            },
        );

        wd.tick(T0); // healthy baseline
        assert_eq!(wd.metrics.incidents.get(), 0);

        m.servers[1].alive.set(0);
        log.record(ServerId(1), FaultKind::Kill, 1.0);
        wd.tick(T0 + 100.0);

        let report = wd.report();
        assert_eq!(report.rows.len(), 1);
        let inc = &report.rows[0];
        assert!(!inc.false_alarm);
        assert_eq!(inc.detectors, vec![SERVER_DOWN.to_string()]);
        assert_eq!(
            inc.series,
            vec![labeled("runtime.server.alive", &[("server", "1")])]
        );
        let m1 = inc.matched.expect("matched fault");
        assert_eq!((m1.kind, m1.server), (FaultKind::Kill, 1));
        let latency = inc.detection_latency_ms.expect("first detection");
        assert!(latency > 0.0);
        // Ranked causes: the fault event leads and names the server;
        // the deep queue at the same server rides along in tier 3.
        assert_eq!(inc.causes[0].kind, CauseKind::FaultEvent);
        assert_eq!(inc.causes[0].server, Some(1));
        assert!(inc
            .causes
            .iter()
            .any(|c| c.kind == CauseKind::QueueDepth && c.server == Some(1)));
        assert_eq!(wd.metrics.incidents.get(), 1);
        assert_eq!(wd.metrics.false_alarms.get(), 0);
        assert_eq!(wd.metrics.down_firings.get(), 1);
        assert_eq!(wd.metrics.detection_latency_ms.count(), 1);

        // A tick not later than the last one feeds no detector.
        wd.tick(T0 + 100.0);
        assert_eq!(wd.report().firings, 1);

        // Continued firing coalesces into the same incident instead of
        // opening a second one, and the repeat match records no second
        // detection latency.
        wd.tick(T0 + 200.0);
        let report = wd.report();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].firings, 2);
        assert_eq!(report.rows[0].last_ms, T0 + 200.0);
        assert_eq!(wd.metrics.down_firings.get(), 2);
        assert_eq!(wd.metrics.detection_latency_ms.count(), 1);
    }

    /// `n` response-time samples of `ms` each, as finished queries record
    /// them.
    fn respond(m: &RuntimeMetrics, n: usize, ms: f64) {
        for _ in 0..n {
            m.response_ms.record(ms);
        }
    }

    #[test]
    fn spike_without_fault_is_a_false_alarm() {
        let reg = Registry::new();
        let m = RuntimeMetrics::new(&reg, 1);
        let log = Arc::new(FaultLog::new());
        let wd = watching(&m, &log, WatchdogConfig::default());

        for k in 0..4 {
            respond(&m, 50, 10.0);
            wd.tick(T0 + 100.0 * k as f64);
        }
        assert_eq!(wd.metrics.incidents.get(), 0);
        respond(&m, 50, 100.0);
        wd.tick(T0 + 400.0);
        let report = wd.report();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].detectors, vec![LATENCY_SPIKE.to_string()]);
        assert!(report.rows[0].false_alarm);
        assert_eq!(report.rows[0].matched, None);
        assert_eq!(report.false_alarms, 1);
        assert_eq!(wd.metrics.false_alarms.get(), 1);
        assert_eq!(wd.metrics.spike_firings.get(), 1);
    }

    #[test]
    fn windowed_p99_sees_a_tail_shift_within_one_tick() {
        let reg = Registry::new();
        let m = RuntimeMetrics::new(&reg, 1);
        let log = Arc::new(FaultLog::new());
        let wd = watching(&m, &log, WatchdogConfig::default());

        for k in 0..4 {
            respond(&m, 50, 10.0);
            wd.tick(T0 + 100.0 * k as f64);
        }
        assert_eq!(wd.metrics.incidents.get(), 0);
        // 20 slow samples against 200 fast historical ones: the window
        // holds only the slow ones, so its p99 jumps to their bucket at
        // once.
        respond(&m, 20, 400.0);
        wd.tick(T0 + 400.0);
        let report = wd.report();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].series, vec![P99W_SERIES.to_string()]);
        assert_eq!(report.rows[0].firings, 1);
        // A tick with no new samples feeds the spike detector nothing.
        wd.tick(T0 + 500.0);
        assert_eq!(wd.report().firings, 1);
    }

    /// The SLO-burn ratio sees per-tick counter deltas, not the
    /// cumulative ratio.
    #[test]
    fn rate_probe_feeds_per_tick_deltas() {
        let reg = Registry::new();
        let m = RuntimeMetrics::new(&reg, 1);
        let log = Arc::new(FaultLog::new());
        let wd = watching(&m, &log, WatchdogConfig::default());
        let finish = |queries: u64, violations: u64| {
            m.queries.add(queries);
            m.slo_violation.add(violations);
        };

        finish(100, 90);
        wd.tick(T0); // first observation seeds the baseline: no sample
        for k in 1..=3 {
            // 0/10 per tick, although the cumulative ratio stays ≥ 0.69:
            // the rule sees its three samples and stays quiet.
            finish(10, 0);
            wd.tick(T0 + 100.0 * k as f64);
        }
        assert_eq!(wd.metrics.incidents.get(), 0);
        // 5/10 in one tick lifts both windows' means over 0.05 × 2.
        finish(10, 5);
        wd.tick(T0 + 400.0);
        assert_eq!(wd.metrics.incidents.get(), 1);
        let report = wd.report();
        assert_eq!(report.rows[0].detectors, vec![SLO_BURN.to_string()]);
        assert_eq!(report.rows[0].series, vec![BURN_SERIES.to_string()]);
    }

    #[test]
    fn idle_incident_closes_after_the_coalesce_gap() {
        let reg = Registry::new();
        let m = RuntimeMetrics::new(&reg, 1);
        let log = Arc::new(FaultLog::new());
        let wd = watching(
            &m,
            &log,
            WatchdogConfig {
                coalesce: Duration::from_millis(30),
                ..WatchdogConfig::default()
            },
        );

        wd.tick(T0);
        m.servers[0].alive.set(0);
        log.record(ServerId(0), FaultKind::Kill, 1.0);
        wd.tick(T0 + 10.0);
        wd.tick(T0 + 20.0); // immediate re-fire coalesces
        assert_eq!(wd.metrics.incidents.get(), 1);
        assert_eq!(wd.metrics.open_incidents.get(), 1);

        m.servers[0].alive.set(1); // recovered: detector stops firing
        log.record(ServerId(0), FaultKind::Restart, 1.0);
        wd.tick(T0 + 50.0); // 30 ms after the last firing: still open
        assert_eq!(wd.metrics.open_incidents.get(), 1);
        wd.tick(T0 + 60.0); // idle past the gap: the incident closes
        assert_eq!(wd.metrics.open_incidents.get(), 0);
        let report = wd.report();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].firings, 2);
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

    /// Scheduled ticks, `tick_now` hammering, instrument writers and
    /// registry snapshots all race on the same shared state; the final
    /// report and instruments must come out coherent.
    #[test]
    fn ticks_race_with_writers_and_scrapes() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let reg = Registry::new();
        let m = RuntimeMetrics::new(&reg, 2);
        let log = Arc::new(FaultLog::new());
        let wd = Watchdog::spawn(WatchdogShared::new(
            Some(m.clone()),
            None,
            Arc::clone(&log),
            None,
            &reg,
            WatchdogConfig {
                interval: Duration::from_millis(1),
                ..WatchdogConfig::default()
            },
        ));

        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let m = m.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut v = 5.0;
                    while !stop.load(Ordering::Relaxed) {
                        m.queries.inc();
                        m.response_ms.record(v);
                        v = if v > 8.0 { 5.0 } else { v + 0.01 };
                    }
                })
            })
            .collect();

        for i in 0..200u64 {
            wd.tick_now();
            if i.is_multiple_of(20) {
                // Registry snapshots concurrently with detector ticks.
                let _ = reg.snapshot();
                let _ = wd.report();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        let ticks = Arc::clone(&wd.shared.metrics.ticks);
        let report = wd.stop();
        // 200 manual + however many scheduled ticks landed in between;
        // the counter and the report must agree.
        assert!(report.ticks >= 200, "lost ticks: {}", report.ticks);
        assert_eq!(ticks.get(), report.ticks);
        assert_eq!(
            report.rows.iter().map(|i| i.firings).sum::<u64>(),
            report.firings,
            "incident firing counts must sum to the report total"
        );
    }
}
