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
//! The types live in `roads-telemetry` (the dependency-light base crate)
//! so the contact log in `roads-core` can carry [`HopOutcome`] and
//! [`LatencySplit`], and the tail sampler ([`crate::tail`]) can retain them without
//! a dependency cycle. Summary kinds are therefore a *vocabulary* enum
//! here ([`SummaryKind`]); the summary crate maps its concrete
//! per-attribute representations into it.

use crate::{json_fields, json_labels};

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
    /// Flight-recorder trace id of the same execution (0 = no recorder).
    pub trace_id: u64,
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
    trace_id,
    entry,
    response_us,
    complete,
    deadline_hit,
    records,
    "attribution" = q.attribution(),
    hops,
});

json_labels!(SummaryKind, ExplainDecision, HopOutcome);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json, JsonField};

    fn sample_explain() -> QueryExplain {
        QueryExplain {
            query_id: 7,
            trace_id: 3,
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
                },
                ExplainHop {
                    server: 9,
                    decision: ExplainDecision::Failover,
                    summary: None,
                    false_positive: false,
                    outcome: HopOutcome::Replied,
                    at_us: 3_000.0,
                    dur_us: 800.0,
                    caused_by: Some(0),
                    local_matches: 0,
                    split: LatencySplit {
                        queue_us: 10.0,
                        network_us: 600.0,
                        compute_us: 100.0,
                        backoff_us: 0.0,
                    },
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
    fn from_json_rejects_malformed() {
        assert!(json::read::<QueryExplain>(&Json::parse("{}").unwrap()).is_err());
        let no_outcome = r#"{"query_id":1,"hops":[{"server":1,"decision":"entry"}]}"#;
        assert!(json::read::<QueryExplain>(&Json::parse(no_outcome).unwrap()).is_err());
    }
}
