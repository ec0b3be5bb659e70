//! What thread-per-server could not do: a federation of thousands of live
//! servers in one process, on one thread.
//!
//! This file holds a single test on purpose: it reads the process's thread
//! count around `RoadsCluster::start`, and a sibling test starting its own
//! cluster (or libtest spawning that test's thread) in between would be
//! counted too.

use roads_core::{RoadsConfig, RoadsNetwork, ServerId};
use roads_netsim::DelaySpace;
use roads_records::{QueryBuilder, QueryId, Schema};
use roads_runtime::{RoadsCluster, RuntimeConfig};
use roads_summary::SummaryConfig;
use roads_workload::line_records;

const SERVERS: usize = 2048;
const RECORDS_PER_SERVER: usize = 4;

#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn two_thousand_servers_answer_on_one_thread() {
    let net = RoadsNetwork::build(
        Schema::unit_numeric(1),
        RoadsConfig {
            max_children: 8,
            summary: SummaryConfig::with_buckets(64),
            ..RoadsConfig::paper_default()
        },
        line_records(SERVERS, RECORDS_PER_SERVER),
    );
    let delays = DelaySpace::paper(SERVERS, 2048);

    #[cfg(target_os = "linux")]
    let threads_before = process_threads();
    // Modelled delay and backend cost on: every one of the 2 048 steps of a
    // full-range query runs on the timer thread, and every server's busy
    // period is a timer event.
    let c = RoadsCluster::start(net, delays, RuntimeConfig::test_fast());
    #[cfg(target_os = "linux")]
    assert_eq!(
        process_threads(),
        threads_before + 1,
        "a started cluster owns the timer thread and nothing else"
    );

    let q = QueryBuilder::new(c.network().schema(), QueryId(1))
        .range("x0", 0.0, 1.0)
        .build();
    let oracle: Vec<u64> = (0..(SERVERS * RECORDS_PER_SERVER) as u64).collect();
    for entry in [0, SERVERS / 2, SERVERS - 1] {
        let out = c.query(&q, ServerId(entry as u32));
        assert!(out.complete, "entry {entry}");
        assert_eq!(out.servers_contacted, SERVERS, "entry {entry}");
        let mut ids: Vec<u64> = out.records.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, oracle, "entry {entry}");
    }
    #[cfg(target_os = "linux")]
    assert_eq!(
        process_threads(),
        threads_before + 1,
        "queries start no threads"
    );
    c.shutdown();
    #[cfg(target_os = "linux")]
    assert_eq!(
        process_threads(),
        threads_before,
        "shutdown joins the timer"
    );
}
