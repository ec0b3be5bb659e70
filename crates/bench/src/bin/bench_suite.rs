//! `bench_suite` — the artifact run: one live-cluster pass with every
//! observability plane attached, written as the documents
//! `roads-inspect` checks and renders.
//!
//! ```text
//! bench_suite
//! ```
//!
//! It takes no flags and times nothing: throughput, latency and build
//! cost are measured by the benchmark (`benchmark/`), the figure binaries
//! and the criterion groups. The run drives one concurrent pass over
//! spread and root-entry queries, then a cold pass and cached replays on
//! a second cluster with a result cache, then branch kills and a straggler
//! episode, and writes into `$ROADS_RESULTS_DIR` (`results/` when unset,
//! like every figure):
//!
//! * `SLOW_QUERIES.json` — the tail sampler's slowest / failed /
//!   incomplete queries with full [`QueryExplain`] provenance
//!   (`roads-inspect slow`, `roads-inspect explain`); the kills
//!   guarantee retained failures.
//! * `CACHE_HEALTH.json` — the cache cluster's final health snapshot
//!   ([`ClusterHealth`]: per-server rows plus the `roads.cache.*`
//!   counters CI asserts against; `roads-inspect health`); the cold pass
//!   is asserted to return what the uncached cluster does.
//! * `HEALTH.json` — the faulted cluster's health snapshot, taken after
//!   the kill and straggler episodes (`roads-inspect health`): its
//!   per-server reply counts and dispatch p99s, the victim's among them,
//!   and the run's retry, deadline and failover totals.
//!
//! Before the tail is written, the run asserts that it names both
//! injected faults: a retained query's hop to the killed server reads
//! `mailbox-down`, and a retained slow query of the straggler episode
//! spends its longest hop at the slowed server.
//!
//! It also prints, per tree level, how many of the faulted cluster's
//! branch replies were live false positives — hollow contacts
//! (`audit.live_false_positives` of `audit.live_probes` in its registry).
//!
//! `roads-inspect check` validates all three documents.
//!
//! [`QueryExplain`]: roads_telemetry::QueryExplain
//! [`ClusterHealth`]: roads_runtime::ClusterHealth

use roads_bench::live::{drive, fault_config, line_net, sliding_ranges};
use roads_bench::print_metrics_digest;
use roads_core::{RoadsNetwork, ServerId};
use roads_netsim::DelaySpace;
use roads_records::{QueryBuilder, QueryId};
use roads_runtime::{Attachments, RoadsCluster, RuntimeConfig};
use roads_telemetry::{
    labeled, results_dir, HopOutcome, Registry, RetainReason, SlowDoc, TailSampler,
};
use std::path::Path;
use std::sync::Arc;

/// Servers in each live cluster.
const SERVERS: usize = 13;
/// Queries in each workload pass.
const QUERIES: usize = 32;
/// Kill/restart cycles of the branch server.
const KILLS: usize = 3;
/// Concurrent clients of a workload pass.
const CLIENTS: usize = 4;
/// Records per server: every 0.25-length range matches somewhere.
const RECORDS_PER_SERVER: usize = 10;
/// The id the straggler episode's queries carry, so that their explains
/// can be told apart from the kill episode's in the retained tail.
const STRAGGLER_QUERY: QueryId = QueryId(9_998);

/// The first non-root server with children: killing it forces the
/// overlay to detect the death and re-route its subtree.
fn a_branch(net: &RoadsNetwork) -> ServerId {
    let tree = net.tree();
    (0..net.len() as u32)
        .map(ServerId)
        .find(|&s| s != tree.root() && !tree.children(s).is_empty())
        .expect("hierarchy has an internal non-root server")
}

/// Panic unless the retained tail names both injected faults at `victim`:
/// some retained query found it dead (`mailbox-down`), and some retained
/// slow query of the straggler episode spent its longest hop there.
fn assert_tail_names_faults(tail: &SlowDoc, victim: ServerId) {
    let found_dead = tail
        .retained
        .iter()
        .flat_map(|r| &r.explain.hops)
        .any(|h| h.server == victim.0 && h.outcome == HopOutcome::MailboxDown);
    assert!(
        found_dead,
        "no retained query found server {} dead",
        victim.0
    );
    let found_slow = tail.retained.iter().any(|r| {
        let longest = r
            .explain
            .hops
            .iter()
            .max_by(|a, b| a.dur_us.total_cmp(&b.dur_us));
        r.reason == RetainReason::Slow
            && r.explain.query_id == STRAGGLER_QUERY.0
            && longest.is_some_and(|h| h.server == victim.0)
    });
    assert!(
        found_slow,
        "no retained slow query of the straggler episode has its longest hop at server {}",
        victim.0
    );
}

/// Exit unless the artifact at `path` was written: a run whose bundle is
/// incomplete must not look green.
fn written(path: &Path, result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("error: could not write {}: {e}", path.display());
        std::process::exit(1);
    }
}

fn main() {
    for a in std::env::args().skip(1) {
        eprintln!("ignoring unknown argument {a:?}");
    }
    let dir = results_dir();
    written(&dir, std::fs::create_dir_all(&dir));
    println!("==================================================================");
    println!("bench_suite — observability artifact run");
    println!("==================================================================");

    // --- Live query plane: overlay-spread and root-only entries. --------
    let n = SERVERS;
    let reg = Arc::new(Registry::new());
    let net = line_net(n, RECORDS_PER_SERVER, 128);
    let config = RuntimeConfig {
        max_inflight_queries: 64,
        ..fault_config()
    };
    // Tail-based sampling over the whole live-cluster run: slow / failed /
    // incomplete queries keep their explain record, which the exemplars
    // name by query id.
    let tail = TailSampler::shared();
    let cluster = RoadsCluster::start_with(
        net,
        DelaySpace::paper(n, 31),
        config,
        Attachments {
            tail: Some(Arc::clone(&tail)),
            ..Attachments::instrumented(&reg)
        },
    );
    let root = cluster.network().tree().root();
    let cschema = cluster.network().schema().clone();
    let spread = sliding_ranges(&cschema, n, QUERIES, root, true);
    let rooted = sliding_ranges(&cschema, n, QUERIES, root, false);
    drive(&cluster, &spread, CLIENTS);
    drive(&cluster, &rooted, CLIENTS);

    // --- Result cache: a cold pass, then cached replays. ----------------
    // A second cluster over the same data runs with a 2-round TTL'd result
    // cache; its instruments land in a separate registry so the
    // `roads.cache.*` families are attributable to this phase alone.
    let cache_reg = Registry::new();
    let cached = RoadsCluster::start_with(
        line_net(n, RECORDS_PER_SERVER, 128),
        DelaySpace::paper(n, 31),
        RuntimeConfig {
            cache_ttl_rounds: 2,
            ..config
        },
        Attachments::instrumented(&cache_reg),
    );
    // Cold pass: every answer misses the cache and must be what the
    // uncached cluster returns.
    for (q, entry) in &spread {
        assert_eq!(
            cached.query(q, *entry).records.len(),
            cluster.query(q, *entry).records.len(),
            "the cache changed recall (entry {entry:?})"
        );
    }
    // Replays: the cold pass populated the cache, so these hit it.
    drive(&cached, &spread, CLIENTS);
    // Age every cached answer out so expiries land in the snapshot.
    cached.advance_cache_round();
    cached.advance_cache_round();
    let hit_rate = cached.result_cache().map_or(0.0, |c| c.hit_rate());
    let cache_health = cached.health().expect("the cache cluster is instrumented");
    cached.shutdown();

    // --- Failover: kill a branch, query around it, restart. --------------
    let victim = a_branch(cluster.network());
    let full = QueryBuilder::new(&cschema, QueryId(9_999))
        .range("x0", 0.0, 1.0)
        .build();
    for _ in 0..KILLS {
        assert!(cluster.kill_server(victim));
        let out = cluster.query(&full, root);
        assert!(
            out.failed_servers.contains(&victim),
            "post-kill query must see the dead server"
        );
        assert!(cluster.restart_server(victim));
        // One healthy query so the restarted server rejoins cleanly
        // before the next kill.
        let healed = cluster.query(&full, root);
        assert!(healed.complete, "restart must restore full coverage");
    }

    // --- Straggler episode: slow the same branch, query through it,
    // then restore.
    let straggled = QueryBuilder::new(&cschema, STRAGGLER_QUERY)
        .range("x0", 0.0, 1.0)
        .build();
    assert!(cluster.slow_server(victim, 8.0));
    for _ in 0..3 {
        let _ = cluster.query(&straggled, root);
    }
    assert!(cluster.restore_server(victim));
    let healed = cluster.query(&full, root);
    assert!(healed.complete, "restore must bring the branch back");

    let health = cluster.health().expect("the live cluster is instrumented");
    let levels = cluster.network().tree().levels();
    cluster.shutdown();

    // The tail of this run: retained slow/failed/incomplete queries with
    // full provenance, naming the kills and the straggler.
    let slow_path = dir.join("SLOW_QUERIES.json");
    let slow_report = tail.report();
    assert_tail_names_faults(&slow_report, victim);
    written(&slow_path, slow_report.write(&slow_path));
    println!(
        "wrote {} ({} retained of {} observed, threshold {:.2} ms)",
        slow_path.display(),
        slow_report.retained.len(),
        slow_report.observed,
        slow_report.threshold_ms
    );

    // The cache cluster's health snapshot — CI asserts a non-zero
    // `cache_hits` against it.
    let health_path = dir.join("CACHE_HEALTH.json");
    written(&health_path, cache_health.write(&health_path));
    println!(
        "wrote {} ({} cache hits, hit rate {:.1}%)",
        health_path.display(),
        cache_health.cache_hits,
        100.0 * hit_rate
    );

    // The faulted cluster's health snapshot, after the kills and the
    // straggler.
    let health_path = dir.join("HEALTH.json");
    written(&health_path, health.write(&health_path));
    println!(
        "wrote {} ({} of {} servers up, {} failovers)",
        health_path.display(),
        health.alive_count(),
        health.servers.len(),
        health.failovers
    );

    // The live false positives of the run's real queries, per level.
    let snap = reg.snapshot();
    let count = |family: &str, level: usize| {
        let name = labeled(family, &[("level", &level.to_string())]);
        snap.counters.get(&name).copied().unwrap_or(0)
    };
    let rows: Vec<String> = (0..levels)
        .map(|l| {
            let (fp, probes) = (
                count("audit.live_false_positives", l),
                count("audit.live_probes", l),
            );
            format!("level {l} {fp}/{probes}")
        })
        .collect();
    println!(
        "live false positives of branch replies: {}",
        rows.join(", ")
    );

    print_metrics_digest(&snap);
}
