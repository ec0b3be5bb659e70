//! The fixtures the live figures share (figs. 13–16 and 19, and
//! `bench_suite`): an evenly spaced one-attribute federation, crash
//! victims whose subtrees are disjoint (the failure case of §III-A that
//! the overlay of §III-C routes around), the fault model, the
//! sliding-range workload and the multi-client query loop.

use roads_core::{RoadsConfig, RoadsNetwork, ServerId};
use roads_records::{Query, QueryBuilder, QueryId, Schema};
use roads_runtime::{RoadsCluster, RuntimeConfig};
use roads_summary::SummaryConfig;
use roads_workload::line_records;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// [`line_records`]`(n, per_server)` in a degree-3 hierarchy whose
/// summaries have `buckets` histogram buckets.
pub fn line_net(n: usize, per_server: usize, buckets: usize) -> RoadsNetwork {
    let cfg = RoadsConfig {
        max_children: 3,
        summary: SummaryConfig::with_buckets(buckets),
        ..RoadsConfig::paper_default()
    };
    RoadsNetwork::build(Schema::unit_numeric(1), cfg, line_records(n, per_server))
}

/// Up to `k` crash victims: non-root servers whose subtrees are pairwise
/// disjoint (nested kills would be redundant — the ancestor's crash
/// already severs the descendant). Interior servers with *small* subtrees
/// come first, so many disjoint victims fit in one hierarchy; leaves are
/// used only once the interior candidates run out. Fewer than `k` when
/// the hierarchy holds fewer.
pub fn disjoint_branches(net: &RoadsNetwork, k: usize) -> Vec<ServerId> {
    let tree = net.tree();
    let mut candidates: Vec<ServerId> = (0..net.len() as u32)
        .map(ServerId)
        .filter(|&s| s != tree.root())
        .collect();
    candidates.sort_by_key(|&s| (tree.children(s).is_empty(), tree.subtree(s).len(), s.0));
    let mut victims = Vec::new();
    let mut covered: HashSet<ServerId> = HashSet::new();
    for s in candidates {
        if victims.len() == k {
            break;
        }
        let sub = tree.subtree(s);
        if sub.iter().any(|x| covered.contains(x)) {
            continue;
        }
        covered.extend(sub);
        victims.push(s);
    }
    victims
}

/// The fault model of the crash figures: a 400 ms dispatch timeout, one
/// retry, a 20 s query deadline, a tenth of the paper's link delay and
/// the emulated backend cost of a query and of each record it retrieves.
pub fn fault_config() -> RuntimeConfig {
    RuntimeConfig {
        dispatch_timeout_ms: 400,
        max_retries: 1,
        backoff_base_ms: 10,
        query_deadline_ms: 20_000,
        delay_scale: 0.1,
        per_record_retrieval_us: 150,
        base_query_cost_us: 1_000,
        ..RuntimeConfig::paper_like()
    }
}

/// `count` sliding 0.25-length ranges over `x0`, one entry server each:
/// entries stride the federation of `n` servers when `spread` (overlay
/// entry), else all enter at `root`.
pub fn sliding_ranges(
    schema: &Schema,
    n: usize,
    count: usize,
    root: ServerId,
    spread: bool,
) -> Vec<(Query, ServerId)> {
    (0..count)
        .map(|i| {
            let lo = 0.75 * (i as f64 * 0.37).fract();
            let q = QueryBuilder::new(schema, QueryId(i as u64))
                .range("x0", lo, lo + 0.25)
                .build();
            let entry = if spread {
                ServerId(((i * 7 + 3) % n) as u32)
            } else {
                root
            };
            (q, entry)
        })
        .collect()
}

/// Run `queries` once through `cluster` from `threads` client threads
/// pulling off a shared cursor, asserting every answer is non-empty;
/// returns queries per second.
pub fn drive(cluster: &RoadsCluster, queries: &[(Query, ServerId)], threads: usize) -> f64 {
    let cursor = AtomicUsize::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() {
                    break;
                }
                let (q, entry) = &queries[i];
                let out = cluster.query(q, *entry);
                assert!(!out.records.is_empty(), "every range matches something");
            });
        }
    });
    queries.len() as f64 / t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_branches_are_non_root_and_disjoint() {
        let net = line_net(40, 1, 256);
        let tree = net.tree();
        let victims = disjoint_branches(&net, 8);
        assert_eq!(victims.len(), 8);
        assert!(victims.iter().all(|&v| v != tree.root()));
        assert!(
            !tree.children(victims[0]).is_empty(),
            "interior servers come before leaves"
        );
        let mut seen = HashSet::new();
        for &v in &victims {
            for s in tree.subtree(v) {
                assert!(seen.insert(s), "server {} lies under two victims", s.0);
            }
        }
    }

    #[test]
    fn disjoint_branches_stop_short_on_a_small_tree() {
        // Two servers: the root and one leaf below it.
        let net = line_net(2, 1, 16);
        assert_eq!(disjoint_branches(&net, 3).len(), 1);
    }
}
