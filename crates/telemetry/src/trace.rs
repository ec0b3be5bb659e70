//! Query-path aggregation.
//!
//! A [`QueryExplain`] records every server a discovery query touched and
//! *why* it was touched — its [`ExplainDecision`]. [`aggregate_traces`]
//! folds a batch of them into a [`TraceReport`]: hop-count distribution,
//! false-positive redirect rate (a summary, a child's or a replica's,
//! claimed a match and the claim turned out hollow — the cost of lossy
//! summaries), overlay
//! shortcuts, ancestor climbs, and per-node load concentration (root-load
//! share and Gini coefficient) — the quantities behind the paper's
//! load-balance and bucket-count ablations.

use std::collections::BTreeMap;

use crate::explain::{ExplainDecision, QueryExplain};
use crate::json_fields;

/// Aggregate statistics over a batch of [`QueryExplain`] records.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceReport {
    /// Number of traces aggregated.
    pub queries: usize,
    /// hop-count → number of queries with that many hops.
    pub hop_histogram: BTreeMap<usize, usize>,
    /// Mean hops per query.
    pub mean_hops: f64,
    /// Largest hop count observed.
    pub max_hops: usize,
    /// Total non-entry hops across all traces.
    pub probe_hops: usize,
    /// Probes flagged [`false_positive`](crate::ExplainHop::false_positive)
    /// under any routing decision: a contact whose whole redirect subtree
    /// found nothing, whether a tree descent or an overlay shortcut sent
    /// it (fig20's hollow contacts).
    pub hollow_probes: usize,
    /// The [`ExplainDecision::SummaryDescent`] hops among `hollow_probes`:
    /// a tree parent's summary hit that found nothing at or below the
    /// child.
    pub fp_redirects: usize,
    /// `hollow_probes / probe_hops` (0 when no probes): the share of
    /// probes a summary sent in vain.
    pub fp_redirect_rate: f64,
    /// [`ExplainDecision::OverlayShortcut`] hops (hollow or not: a
    /// shortcut that found nothing still counts here and in
    /// `hollow_probes`, not among the tree descents of `fp_redirects`).
    pub overlay_shortcuts: usize,
    /// [`ExplainDecision::AncestorProbe`] hops — the climb towards
    /// ancestors that guarantees completeness. A skipped branch owner's
    /// probe is an overlay shortcut, not a climb.
    pub climb_hops: usize,
    /// Visits landing on the hierarchy root.
    pub root_visits: usize,
    /// `root_visits / total visits` — how concentrated load is on the root.
    pub root_load_share: f64,
    /// Gini coefficient of per-node visit counts over all `nodes` servers
    /// (0 = perfectly even, → 1 = all load on one server).
    pub gini: f64,
}

// The hop histogram is written as `[hops, queries]` pairs.
json_fields!(TraceReport {
    queries,
    hop_histogram,
    mean_hops,
    max_hops,
    probe_hops,
    hollow_probes,
    fp_redirects,
    fp_redirect_rate,
    overlay_shortcuts,
    climb_hops,
    root_visits,
    root_load_share,
    gini,
});

/// Gini coefficient of a load distribution; 0 for empty/uniform input.
pub fn gini(counts: &[u64]) -> f64 {
    let n = counts.len();
    let total: u64 = counts.iter().sum();
    if n == 0 || total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = counts.to_vec();
    sorted.sort_unstable();
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x as f64)
        .sum();
    let n = n as f64;
    (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
}

/// Fold explain records into a [`TraceReport`]. `root` is the hierarchy
/// root server and `nodes` the federation size (zero-visit servers count
/// towards the Gini denominator — an idle server *is* imbalance).
pub fn aggregate_traces(traces: &[QueryExplain], root: u32, nodes: usize) -> TraceReport {
    let mut hop_histogram = BTreeMap::new();
    let mut visits_per_node = vec![0u64; nodes];
    let mut total_hops = 0usize;
    let mut max_hops = 0usize;
    let mut probe_hops = 0usize;
    let mut hollow_probes = 0usize;
    let mut fp_redirects = 0usize;
    let mut overlay_shortcuts = 0usize;
    let mut climb_hops = 0usize;
    let mut root_visits = 0usize;

    for t in traces {
        let hops = t.hops.len();
        *hop_histogram.entry(hops).or_insert(0) += 1;
        total_hops += hops;
        max_hops = max_hops.max(hops);
        for h in &t.hops {
            if let Some(slot) = visits_per_node.get_mut(h.server as usize) {
                *slot += 1;
            }
            if h.server == root {
                root_visits += 1;
            }
            match h.decision {
                // Served at the entry: not a probe of another server.
                ExplainDecision::Entry | ExplainDecision::CacheHit => continue,
                ExplainDecision::SummaryDescent if h.false_positive => fp_redirects += 1,
                ExplainDecision::OverlayShortcut => overlay_shortcuts += 1,
                ExplainDecision::AncestorProbe => climb_hops += 1,
                _ => {}
            }
            probe_hops += 1;
            hollow_probes += usize::from(h.false_positive);
        }
    }

    let queries = traces.len();
    TraceReport {
        queries,
        hop_histogram,
        mean_hops: if queries == 0 {
            0.0
        } else {
            total_hops as f64 / queries as f64
        },
        max_hops,
        probe_hops,
        hollow_probes,
        fp_redirects,
        fp_redirect_rate: if probe_hops == 0 {
            0.0
        } else {
            hollow_probes as f64 / probe_hops as f64
        },
        overlay_shortcuts,
        climb_hops,
        root_visits,
        root_load_share: if total_hops == 0 {
            0.0
        } else {
            root_visits as f64 / total_hops as f64
        },
        gini: gini(&visits_per_node),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{ExplainHop, HopOutcome, LatencySplit};

    fn hop(server: u32, decision: ExplainDecision, false_positive: bool) -> ExplainHop {
        ExplainHop {
            server,
            decision,
            summary: None,
            false_positive,
            outcome: HopOutcome::Replied,
            at_us: 0.0,
            dur_us: 0.0,
            caused_by: None,
            local_matches: 0,
            split: LatencySplit::default(),
        }
    }

    fn trace(entry: u32, hops: Vec<ExplainHop>) -> QueryExplain {
        QueryExplain {
            entry,
            hops,
            ..QueryExplain::default()
        }
    }

    #[test]
    fn gini_uniform_is_zero() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[5, 5, 5, 5]), 0.0);
    }

    #[test]
    fn gini_concentrated_approaches_one() {
        let g = gini(&[0, 0, 0, 0, 0, 0, 0, 0, 0, 100]);
        assert!(g > 0.85, "gini {g}");
        assert!(g <= 1.0);
    }

    #[test]
    fn gini_orders_by_inequality() {
        let even = gini(&[3, 3, 3, 3]);
        let mild = gini(&[1, 2, 4, 5]);
        let harsh = gini(&[0, 0, 1, 11]);
        assert!(even < mild && mild < harsh);
    }

    #[test]
    fn aggregate_counts_reasons_and_rates() {
        use ExplainDecision::*;
        let traces = vec![
            trace(
                1,
                vec![
                    hop(1, Entry, false),
                    hop(0, AncestorProbe, false),
                    hop(2, SummaryDescent, false),
                    hop(3, SummaryDescent, true),
                ],
            ),
            trace(
                2,
                vec![hop(2, Entry, false), hop(3, OverlayShortcut, false)],
            ),
        ];
        let r = aggregate_traces(&traces, 0, 4);
        assert_eq!(r.queries, 2);
        assert_eq!(r.probe_hops, 4);
        assert_eq!(r.fp_redirects, 1);
        assert!((r.fp_redirect_rate - 0.25).abs() < 1e-12);
        assert_eq!(r.overlay_shortcuts, 1);
        assert_eq!(r.climb_hops, 1);
        assert_eq!(r.root_visits, 1);
        assert!((r.root_load_share - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(r.hop_histogram[&4], 1);
        assert_eq!(r.hop_histogram[&2], 1);
        assert!((r.mean_hops - 3.0).abs() < 1e-12);
        assert_eq!(r.max_hops, 4);
    }

    #[test]
    fn hollow_overlay_shortcut_is_a_shortcut_not_a_false_positive_redirect() {
        use ExplainDecision::*;
        let traces = [trace(
            1,
            vec![hop(1, Entry, false), hop(3, OverlayShortcut, true)],
        )];
        let r = aggregate_traces(&traces, 0, 4);
        assert_eq!((r.overlay_shortcuts, r.fp_redirects), (1, 0));
        // A cache replay is served at the entry; live-only decisions are
        // probes of no special class.
        let traces = [
            trace(2, vec![hop(2, CacheHit, false)]),
            trace(2, vec![hop(2, Entry, false), hop(3, Retry, false)]),
        ];
        let r = aggregate_traces(&traces, 0, 4);
        assert_eq!((r.probe_hops, r.max_hops), (1, 2));
    }

    #[test]
    fn fp_redirect_rate_counts_hollow_probes_of_every_routing_decision() {
        use ExplainDecision::*;
        let traces = [trace(
            1,
            vec![
                hop(1, Entry, true),
                hop(2, OverlayShortcut, true),
                hop(3, SummaryDescent, true),
                hop(4, SummaryDescent, false),
                hop(0, AncestorProbe, false),
            ],
        )];
        let r = aggregate_traces(&traces, 0, 5);
        // The entry is no probe; a hollow shortcut and a hollow descent
        // are both redirects a summary sent in vain.
        assert!(
            (r.fp_redirect_rate - 0.5).abs() < 1e-12,
            "{}",
            r.fp_redirect_rate
        );
        assert_eq!((r.probe_hops, r.hollow_probes, r.fp_redirects), (4, 2, 1));
    }

    #[test]
    fn empty_aggregate_is_all_zero() {
        let r = aggregate_traces(&[], 0, 8);
        assert_eq!(r.queries, 0);
        assert_eq!(r.fp_redirect_rate, 0.0);
        assert_eq!(r.gini, 0.0);
        assert_eq!(r.root_load_share, 0.0);
    }
}
