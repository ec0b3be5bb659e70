//! Per-query provenance: what each hop decided and where the time went.
//!
//! A [`QueryExplain`] is the structured answer to "why was *this* query
//! slow?". It is derived from a finished query's contact log — the
//! simulator's or the live cluster's, by `roads-core`'s
//! `explain_from_trace` either way — one [`ExplainHop`] per
//! contact attempt, each carrying the *decision* that caused the hop
//! (summary descent, overlay shortcut, retry, failover, …) and a
//! *latency split* (queue wait / network / summary+search compute /
//! retry backoff). Query-level [`Attribution`] folds the hop splits into
//! the five components the tail-attribution figure stacks.
//!
//! An explain is also the query's trace: [`chrome_hop_events`] renders
//! its hops into the Chrome/Perfetto export beside the flight
//! recorder's message-plane events, and [`explains_from_chrome`] reads
//! them back.
//!
//! The types live in `roads-telemetry` (the dependency-light base crate)
//! so the contact log in `roads-core` can carry [`HopOutcome`] and
//! [`LatencySplit`], and the tail sampler ([`crate::tail`]) can retain them without
//! a dependency cycle. Summary kinds are therefore a *vocabulary* enum
//! here ([`SummaryKind`]); the summary crate maps its concrete
//! per-attribute representations into it.

use crate::event::flow_event;
use crate::json::{self, Json};
use crate::{json_fields, json_labels};
use std::collections::BTreeMap;

/// Which summary representation drove a hop's match/prune decision.
///
/// On a prune, the kind of the attribute summary that proved absence; on
/// a match, the *fuzziest* participating kind — the likeliest source of a
/// false positive (Bloom > histogram > exact set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SummaryKind {
    /// Equi-width histogram over an ordered attribute.
    Histogram,
    /// Exact enumerated value set (cannot false-positive).
    ValueSet,
    /// Bloom filter (false positives expected).
    Bloom,
}

impl SummaryKind {
    /// Stable label (used in JSON artifacts and renders).
    pub fn as_str(self) -> &'static str {
        match self {
            SummaryKind::Histogram => "histogram",
            SummaryKind::ValueSet => "value-set",
            SummaryKind::Bloom => "bloom",
        }
    }

    /// Inverse of [`SummaryKind::as_str`].
    pub fn parse(s: &str) -> Option<SummaryKind> {
        Some(match s {
            "histogram" => SummaryKind::Histogram,
            "value-set" => SummaryKind::ValueSet,
            "bloom" => SummaryKind::Bloom,
            _ => return None,
        })
    }

    /// The kind behind an `AttributeSummary::kind_name()` label of the
    /// summary crate, which spells the exact set `"set"`.
    pub fn from_summary_label(label: &str) -> Option<SummaryKind> {
        match label {
            "set" => Some(SummaryKind::ValueSet),
            other => SummaryKind::parse(other),
        }
    }
}

/// Why a hop was dispatched — the routing decision behind the contact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExplainDecision {
    /// The query's entry server (no routing decision preceded it).
    Entry,
    /// A child whose branch summary matched: normal tree descent.
    SummaryDescent,
    /// A replicated remote branch matched at the entry: overlay shortcut —
    /// to the branch, to one of its children whose part matched, or to
    /// the branch's owner for its own records.
    OverlayShortcut,
    /// Local-only probe of an ancestor's attached records.
    AncestorProbe,
    /// Re-dispatch of a timed-out attempt to the same server.
    Retry,
    /// Stand-in contacted on behalf of a dead server.
    Failover,
    /// Answered from the entry's TTL'd result cache — no dispatch at all.
    CacheHit,
}

impl ExplainDecision {
    /// Stable label (used in JSON artifacts and renders).
    pub fn as_str(self) -> &'static str {
        match self {
            ExplainDecision::Entry => "entry",
            ExplainDecision::SummaryDescent => "summary-descent",
            ExplainDecision::OverlayShortcut => "overlay-shortcut",
            ExplainDecision::AncestorProbe => "ancestor-probe",
            ExplainDecision::Retry => "retry",
            ExplainDecision::Failover => "failover",
            ExplainDecision::CacheHit => "cache-hit",
        }
    }

    /// Inverse of [`ExplainDecision::as_str`].
    pub fn parse(s: &str) -> Option<ExplainDecision> {
        Some(match s {
            "entry" => ExplainDecision::Entry,
            "summary-descent" => ExplainDecision::SummaryDescent,
            "overlay-shortcut" => ExplainDecision::OverlayShortcut,
            "ancestor-probe" => ExplainDecision::AncestorProbe,
            "retry" => ExplainDecision::Retry,
            "failover" => ExplainDecision::Failover,
            "cache-hit" => ExplainDecision::CacheHit,
            _ => return None,
        })
    }
}

/// How a hop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopOutcome {
    /// The server replied.
    Replied,
    /// The dispatch timer expired without a reply.
    TimedOut,
    /// The server was dead when the request was delivered (killed or
    /// crashed).
    MailboxDown,
    /// The query deadline closed the hop before it resolved.
    Abandoned,
}

impl HopOutcome {
    /// Stable label (used in JSON artifacts and renders).
    pub fn as_str(self) -> &'static str {
        match self {
            HopOutcome::Replied => "replied",
            HopOutcome::TimedOut => "timed-out",
            HopOutcome::MailboxDown => "mailbox-down",
            HopOutcome::Abandoned => "abandoned",
        }
    }

    /// Inverse of [`HopOutcome::as_str`].
    pub fn parse(s: &str) -> Option<HopOutcome> {
        Some(match s {
            "replied" => HopOutcome::Replied,
            "timed-out" => HopOutcome::TimedOut,
            "mailbox-down" => HopOutcome::MailboxDown,
            "abandoned" => HopOutcome::Abandoned,
            _ => return None,
        })
    }
}

/// Where one hop's wall-clock went, in microseconds.
///
/// The components are *measured independently* (queue and compute on the
/// server, network and backoff known to the dispatcher), so they need not
/// sum exactly to the hop duration — scheduler jitter and channel wait
/// make up the remainder.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySplit {
    /// Mailbox wait: enqueue at the server until the server picked it up.
    pub queue_us: f64,
    /// Emulated network transit (request + reply).
    pub network_us: f64,
    /// Summary evaluation + local search + emulated per-record cost.
    pub compute_us: f64,
    /// Retry backoff delay charged to this (re)dispatch.
    pub backoff_us: f64,
}

json_fields!(LatencySplit {
    queue_us,
    network_us,
    compute_us,
    backoff_us
});

/// One contact attempt along a query's path.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainHop {
    /// Server contacted (its raw id).
    pub server: u32,
    /// Routing decision that caused the contact.
    pub decision: ExplainDecision,
    /// Summary kind behind the decision (`None` for retries/failovers and
    /// entry hops, where no summary was consulted to route here).
    pub summary: Option<SummaryKind>,
    /// Hop reached a server whose local search found nothing and that
    /// forwarded nowhere: the summary match that routed here was a false
    /// positive.
    pub false_positive: bool,
    /// How the hop ended.
    pub outcome: HopOutcome,
    /// Dispatch time relative to query start, microseconds.
    pub at_us: f64,
    /// Dispatch-to-resolution duration, microseconds.
    pub dur_us: f64,
    /// Index (into [`QueryExplain::hops`]) of the hop whose reply caused
    /// this dispatch; `None` for the entry hop.
    pub caused_by: Option<usize>,
    /// Records the server's local search returned.
    pub local_matches: u64,
    /// Measured latency components of this hop.
    pub split: LatencySplit,
    /// On a [`ExplainDecision::Failover`] hop, the dead server it stands
    /// in for. Not always the server of `caused_by`: a stand-in asked
    /// after another stand-in failed is caused by that stand-in's hop.
    pub dead: Option<u32>,
}

json_fields!(ExplainHop {
    server,
    decision,
    summary?,
    false_positive,
    outcome,
    at_us,
    dur_us,
    caused_by?,
    local_matches,
    split,
    dead?,
});

/// Query-level latency attribution, microseconds of *work time* per
/// component (not critical-path time: concurrent hops' components add).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Attribution {
    /// Mailbox queueing across all hops.
    pub queue_us: f64,
    /// Emulated network transit across all hops.
    pub network_us: f64,
    /// Summary evaluation + search compute across all hops.
    pub compute_us: f64,
    /// Time burned on attempts that timed out, plus retry backoff.
    pub retry_us: f64,
    /// All time spent on failover hops (stand-in contacts for dead
    /// servers), including their queue/network/compute.
    pub failover_us: f64,
}

impl Attribution {
    /// Sum of all components.
    pub fn total_us(&self) -> f64 {
        self.queue_us + self.network_us + self.compute_us + self.retry_us + self.failover_us
    }
}

json_fields!(Attribution {
    queue_us,
    network_us,
    compute_us,
    retry_us,
    failover_us
});

/// The provenance record of one executed query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryExplain {
    /// The query's id.
    pub query_id: u64,
    /// Entry server.
    pub entry: u32,
    /// End-to-end response time, microseconds.
    pub response_us: f64,
    /// Every branch-summary-matching server was reached.
    pub complete: bool,
    /// The query deadline fired before all hops resolved.
    pub deadline_hit: bool,
    /// Matching records returned.
    pub records: u64,
    /// Contact attempts in dispatch order.
    pub hops: Vec<ExplainHop>,
}

impl QueryExplain {
    /// Distinct servers that replied (the live runtime's
    /// `servers_contacted` accounting).
    pub fn distinct_responders(&self) -> usize {
        let mut seen: Vec<u32> = self
            .hops
            .iter()
            .filter(|h| h.outcome == HopOutcome::Replied)
            .map(|h| h.server)
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// When the last hop closed, microseconds after the query began.
    pub fn end_us(&self) -> f64 {
        (self.hops.iter()).fold(0.0, |end, h| end.max(h.at_us + h.dur_us))
    }

    /// The query's critical path, entry first: the hop that closed last
    /// (of two that closed together, the later one) and the `caused_by`
    /// chain above it. Empty for a query with no hops.
    pub fn critical_path(&self) -> Vec<usize> {
        let end = |j: usize| self.hops[j].at_us + self.hops[j].dur_us;
        let last = (0..self.hops.len()).max_by(|&a, &b| end(a).total_cmp(&end(b)).then(a.cmp(&b)));
        let mut path: Vec<usize> = last.into_iter().collect();
        while let Some(&j) = path.last() {
            match self.hops[j].caused_by {
                Some(cause) if cause < j => path.push(cause),
                _ => break,
            }
        }
        path.reverse();
        path
    }

    /// Number of retry dispatches.
    pub fn retry_count(&self) -> u64 {
        self.hops
            .iter()
            .filter(|h| h.decision == ExplainDecision::Retry)
            .count() as u64
    }

    /// Hops whose summary match proved to be a false positive.
    pub fn false_positive_count(&self) -> u64 {
        self.hops.iter().filter(|h| h.false_positive).count() as u64
    }

    /// Fold the per-hop splits into query-level components.
    ///
    /// Work-time attribution: failover hops contribute *wholly* to
    /// `failover_us`; timed-out attempts contribute their full duration
    /// (plus any backoff) to `retry_us`; everything else splits into
    /// queue/network/compute.
    pub fn attribution(&self) -> Attribution {
        let mut a = Attribution::default();
        for h in &self.hops {
            if h.decision == ExplainDecision::Failover {
                a.failover_us += if h.outcome == HopOutcome::Replied {
                    h.split.queue_us + h.split.network_us + h.split.compute_us
                } else {
                    h.dur_us
                } + h.split.backoff_us;
                continue;
            }
            match h.outcome {
                HopOutcome::Replied => {
                    a.queue_us += h.split.queue_us;
                    a.network_us += h.split.network_us;
                    a.compute_us += h.split.compute_us;
                    a.retry_us += h.split.backoff_us;
                }
                // A hop that never produced a useful reply: its whole
                // duration is waste charged to the retry/abandonment
                // component.
                HopOutcome::TimedOut | HopOutcome::MailboxDown | HopOutcome::Abandoned => {
                    a.retry_us += h.dur_us + h.split.backoff_us;
                }
            }
        }
        a
    }
}

// The serialized `attribution` is derived data: written from the hops,
// and a stored copy that disagrees with them marks a corrupt record.
json_fields!(QueryExplain as q {
    query_id,
    entry,
    response_us,
    complete,
    deadline_hit,
    records,
    "attribution" = q.attribution(),
    hops,
});

json_labels!(SummaryKind, ExplainDecision, HopOutcome);

/// The one rule a hop list obeys to be a redirect tree, whoever reads
/// it: hop 0 (the entry) alone has no cause, and every other hop names
/// an earlier one — so no hop sits on a `caused_by` cycle. The error
/// names the first hop that breaks it.
pub fn check_hop_tree(caused_by: impl IntoIterator<Item = Option<usize>>) -> Result<(), String> {
    for (j, cause) in caused_by.into_iter().enumerate() {
        let broken = match cause {
            None if j > 0 => "no caused_by".to_string(),
            Some(c) if c >= j => format!("caused_by {c}"),
            _ => continue,
        };
        return Err(format!(
            "hops[{j}]: {broken} breaks the hop tree \
             (hop 0 alone has no cause, every other names an earlier hop)"
        ));
    }
    Ok(())
}

/// The `cat` of a hop slice in a Chrome trace export.
const HOP_CATEGORY: &str = "query";

/// A hop slice's `args`: the hop whole, and its place — its explain's
/// index in the rendered batch (query ids repeat), its query, its index.
struct HopArgs {
    explain: usize,
    query: u64,
    index: usize,
    hop: ExplainHop,
}

json_fields!(HopArgs {
    explain,
    query,
    index,
    hop
});

/// Render `explains` as Chrome trace events, to sit beside the flight
/// recorder's message-plane events in one export (see
/// [`crate::chrome_trace_json`]): one complete slice per hop on its
/// server's thread (`tid`), at its dispatch time after its query began,
/// named by its [`ExplainDecision`], with the hop whole (its `caused_by`,
/// outcome, local matches, …) and its place in `args`; and each
/// `caused_by` as a flow arrow from the causing hop to its effect,
/// numbered from `first_arrow`.
pub fn chrome_hop_events(explains: &[QueryExplain], first_arrow: u64) -> Vec<Json> {
    let mut out = Vec::new();
    let mut arrow = first_arrow;
    for (k, ex) in explains.iter().enumerate() {
        for (j, h) in ex.hops.iter().enumerate() {
            let (query, hop) = (ex.query_id, h.clone());
            let args = HopArgs {
                explain: k,
                query,
                index: j,
                hop,
            };
            out.push(Json::obj(vec![
                ("name", Json::str(h.decision.as_str())),
                ("cat", Json::str(HOP_CATEGORY)),
                ("ph", Json::str("X")),
                ("pid", Json::num(0.0)),
                ("tid", Json::num(h.server as f64)),
                ("ts", Json::num(h.at_us)),
                ("dur", Json::num(h.dur_us)),
                ("args", json::JsonField::to_field(&args)),
            ]));
            if let Some(cause) = h.caused_by.and_then(|c| ex.hops.get(c)) {
                let ts = h.at_us.max(cause.at_us);
                out.push(flow_event("s", arrow, cause.at_us, cause.server));
                out.push(flow_event("f", arrow, ts, h.server));
                arrow += 1;
            }
        }
    }
    out
}

/// Read back the hops [`chrome_hop_events`] rendered into a Chrome trace
/// document: one [`QueryExplain`] per rendered explain, in rendered
/// order, holding its query id, its entry and its hops, whole; the rest
/// of its header reads back as its default. Errors name a malformed
/// slice, and a hop out of its place (one missing, repeated or out of
/// order). Whether each hop list is a tree is [`check_hop_tree`]'s
/// question.
pub fn explains_from_chrome(doc: &Json) -> Result<Vec<QueryExplain>, String> {
    let entries = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut by_explain: BTreeMap<usize, QueryExplain> = BTreeMap::new();
    for (i, entry) in entries.iter().enumerate() {
        if entry.get("cat").and_then(Json::as_str_val) != Some(HOP_CATEGORY) {
            continue;
        }
        let args = entry.get("args").unwrap_or(&Json::Null);
        let a: HopArgs = json::read(args).map_err(|e| format!("traceEvents[{i}].args: {e}"))?;
        let ex = by_explain.entry(a.explain).or_insert_with(|| QueryExplain {
            query_id: a.query,
            entry: a.hop.server,
            ..QueryExplain::default()
        });
        if a.index != ex.hops.len() {
            let (k, j, want) = (a.explain, a.index, ex.hops.len());
            return Err(format!(
                "traceEvents[{i}]: explain {k} hop {j} where hop {want} belongs"
            ));
        }
        ex.hops.push(a.hop);
    }
    Ok(by_explain.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json, JsonField};

    fn sample_explain() -> QueryExplain {
        QueryExplain {
            query_id: 7,
            entry: 0,
            response_us: 5_000.0,
            complete: true,
            deadline_hit: false,
            records: 2,
            hops: vec![
                ExplainHop {
                    server: 0,
                    decision: ExplainDecision::Entry,
                    summary: None,
                    false_positive: false,
                    outcome: HopOutcome::Replied,
                    at_us: 0.0,
                    dur_us: 900.0,
                    caused_by: None,
                    local_matches: 1,
                    split: LatencySplit {
                        queue_us: 50.0,
                        network_us: 400.0,
                        compute_us: 300.0,
                        backoff_us: 0.0,
                    },
                    dead: None,
                },
                ExplainHop {
                    server: 4,
                    decision: ExplainDecision::OverlayShortcut,
                    summary: Some(SummaryKind::Bloom),
                    false_positive: true,
                    outcome: HopOutcome::TimedOut,
                    at_us: 900.0,
                    dur_us: 2_000.0,
                    caused_by: Some(0),
                    local_matches: 0,
                    split: LatencySplit::default(),
                    dead: None,
                },
                ExplainHop {
                    server: 4,
                    decision: ExplainDecision::Retry,
                    summary: None,
                    false_positive: false,
                    outcome: HopOutcome::Replied,
                    at_us: 2_900.0,
                    dur_us: 1_000.0,
                    caused_by: Some(1),
                    local_matches: 1,
                    split: LatencySplit {
                        queue_us: 20.0,
                        network_us: 500.0,
                        compute_us: 200.0,
                        backoff_us: 100.0,
                    },
                    dead: None,
                },
                ExplainHop {
                    server: 9,
                    decision: ExplainDecision::Failover,
                    summary: None,
                    false_positive: false,
                    outcome: HopOutcome::Replied,
                    at_us: 3_000.0,
                    dur_us: 1_000.0,
                    caused_by: Some(0),
                    local_matches: 0,
                    split: LatencySplit {
                        queue_us: 10.0,
                        network_us: 600.0,
                        compute_us: 100.0,
                        backoff_us: 0.0,
                    },
                    dead: Some(5),
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let e = sample_explain();
        let text = e.to_field().to_string_pretty();
        let back: QueryExplain = json::read(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn attribution_charges_components_correctly() {
        let e = sample_explain();
        let a = e.attribution();
        // Replied non-failover hops split normally.
        assert_eq!(a.queue_us, 50.0 + 20.0);
        assert_eq!(a.network_us, 400.0 + 500.0);
        assert_eq!(a.compute_us, 300.0 + 200.0);
        // Timed-out duration + retry backoff land in retry_us.
        assert_eq!(a.retry_us, 2_000.0 + 100.0);
        // The failover hop folds wholly into failover_us.
        assert_eq!(a.failover_us, 10.0 + 600.0 + 100.0);
        assert!(
            (a.total_us()
                - (a.queue_us + a.network_us + a.compute_us + a.retry_us + a.failover_us))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn responder_and_retry_accounting() {
        let e = sample_explain();
        // Server 4 replied once (after a retry), servers 0 and 9 once.
        assert_eq!(e.distinct_responders(), 3);
        assert_eq!(e.retry_count(), 1);
        assert_eq!(e.false_positive_count(), 1);
    }

    #[test]
    fn labels_round_trip() {
        for d in [
            ExplainDecision::Entry,
            ExplainDecision::SummaryDescent,
            ExplainDecision::OverlayShortcut,
            ExplainDecision::AncestorProbe,
            ExplainDecision::Retry,
            ExplainDecision::Failover,
            ExplainDecision::CacheHit,
        ] {
            assert_eq!(ExplainDecision::parse(d.as_str()), Some(d));
        }
        for o in [
            HopOutcome::Replied,
            HopOutcome::TimedOut,
            HopOutcome::MailboxDown,
            HopOutcome::Abandoned,
        ] {
            assert_eq!(HopOutcome::parse(o.as_str()), Some(o));
        }
        for k in [
            SummaryKind::Histogram,
            SummaryKind::ValueSet,
            SummaryKind::Bloom,
        ] {
            assert_eq!(SummaryKind::parse(k.as_str()), Some(k));
        }
    }

    #[test]
    fn the_critical_path_climbs_caused_by_from_the_last_hop_to_close() {
        // The stand-in (hop 3, caused by the entry) closes last, at
        // 4 000 us: its path skips hops 1 and 2, which precede it in
        // dispatch order but did not cause it.
        let e = sample_explain();
        assert_eq!(e.end_us(), 4_000.0);
        assert_eq!(e.critical_path(), [0, 3]);
        // Closed together with the retry (at 3 900 us), the stand-in,
        // dispatched later, still ends the path; closed earlier, it
        // leaves the path to the retry's chain.
        let mut tie = e.clone();
        tie.hops[3].dur_us = 900.0;
        assert_eq!(tie.critical_path(), [0, 3]);
        tie.hops[3].dur_us = 800.0;
        assert_eq!(tie.critical_path(), [0, 1, 2]);
        assert!(QueryExplain::default().critical_path().is_empty());
    }

    #[test]
    fn rendered_hops_read_back_as_their_explains() {
        // Two renders of one query id: the `explain` arg keeps them apart.
        let (a, mut b) = (sample_explain(), sample_explain());
        b.hops.truncate(2);
        let doc = Json::obj(vec![(
            "traceEvents",
            Json::Arr(chrome_hop_events(&[a.clone(), b.clone()], 1)),
        )]);
        let back = explains_from_chrome(&Json::parse(&doc.to_string()).unwrap()).unwrap();
        let header = |e: &QueryExplain| QueryExplain {
            query_id: e.query_id,
            entry: e.entry,
            hops: e.hops.clone(),
            ..QueryExplain::default()
        };
        assert_eq!(back, [header(&a), header(&b)]);
        // Each arrow starts on the server of the hop that caused its
        // target: the stand-in's from the entry (server 0), not from the
        // hop dispatched before it (server 4).
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let ends = |ph: &str| -> Vec<(f64, f64)> {
            let num = |e: &Json, key: &str| e.get(key).and_then(Json::as_f64).unwrap();
            (events.iter())
                .filter(|e| e.get("ph").and_then(Json::as_str_val) == Some(ph))
                .map(|e| (num(e, "id"), num(e, "tid")))
                .collect()
        };
        assert_eq!(ends("s"), [(1.0, 0.0), (2.0, 4.0), (3.0, 0.0), (4.0, 0.0)]);
        assert_eq!(ends("f"), [(1.0, 4.0), (2.0, 4.0), (3.0, 9.0), (4.0, 4.0)]);
    }

    #[test]
    fn reading_hop_slices_back_names_what_is_wrong() {
        let slices = chrome_hop_events(&[sample_explain()], 1);
        let read = |events: Vec<Json>| {
            explains_from_chrome(&Json::obj(vec![("traceEvents", Json::Arr(events))]))
        };
        // A hop left out leaves hop 3 where hop 2 belongs.
        let mut gap = slices.clone();
        gap.remove(4); // hop 2's: after hop 0's, then hop 1's and its arrow's two ends
        let err = read(gap).unwrap_err();
        assert!(err.contains("explain 0 hop 3 where hop 2 belongs"), "{err}");
        // A hop without its outcome is named by its slice.
        let text = Json::Arr(slices).to_string();
        let bare = text.replacen(r#""outcome":"replied","#, "", 1);
        let Json::Arr(bare) = Json::parse(&bare).unwrap() else {
            unreachable!("an array stays an array")
        };
        let err = read(bare).unwrap_err();
        assert!(err.contains("traceEvents[0].args: hop.outcome"), "{err}");
        assert_eq!(read(Vec::new()), Ok(Vec::new()));
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(json::read::<QueryExplain>(&Json::parse("{}").unwrap()).is_err());
        let no_outcome = r#"{"query_id":1,"hops":[{"server":1,"decision":"entry"}]}"#;
        assert!(json::read::<QueryExplain>(&Json::parse(no_outcome).unwrap()).is_err());
    }
}
