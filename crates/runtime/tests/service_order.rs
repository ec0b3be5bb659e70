//! The service clock: a server with an emulated backend cost is a FIFO
//! single server even though it owns no thread.
//!
//! A deliverer never sleeps, so a request's cost `B` elapses as a timer
//! event while the server is `in_service` and later arrivals wait in its
//! FIFO. These tests pin what that must look like from outside: `k`
//! concurrent contacts of one server finish `B` apart (no parallel
//! service, no compounding), a contact its own client delivers in place
//! still queues behind a busy server and is served in arrival order, a
//! kill loses the request in service and the queued ones alike, and a
//! straggler factor stretches the spacing.
//!
//! Lower bounds on time are exact (a timer never fires early); upper
//! bounds carry generous slack for a loaded CI host.

use roads_core::{RequesterId, RoadsConfig, RoadsNetwork, ServerId};
use roads_netsim::DelaySpace;
use roads_records::{Query, QueryBuilder, QueryId, Schema};
use roads_runtime::{Attachments, RoadsCluster, RuntimeConfig, RuntimeOutcome};
use roads_summary::SummaryConfig;
use roads_telemetry::{labeled, Gauge, HopOutcome, QueryExplain, Registry};
use roads_workload::line_records;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const RECORDS: usize = 5;
const ONLY: ServerId = ServerId(0);

/// A one-server federation whose every request costs `base_us` of emulated
/// backend time and nothing else: zero link delay, free records, free
/// transfer. `dispatch_timeout_ms` as given; no retries.
fn one_server(base_us: u64, dispatch_timeout_ms: u64, reg: &Registry) -> RoadsCluster {
    let net = RoadsNetwork::build(
        Schema::unit_numeric(1),
        RoadsConfig {
            summary: SummaryConfig::with_buckets(16),
            ..RoadsConfig::paper_default()
        },
        line_records(1, RECORDS),
    );
    let cfg = RuntimeConfig {
        base_query_cost_us: base_us,
        per_record_retrieval_us: 0,
        bandwidth_mbps: 1e12,
        delay_scale: 0.0,
        dispatch_timeout_ms,
        max_retries: 0,
        query_deadline_ms: 20_000,
        max_inflight_queries: 0,
        ..RuntimeConfig::test_fast()
    };
    RoadsCluster::start_with(
        net,
        DelaySpace::paper(1, 3),
        cfg,
        Attachments::instrumented(reg),
    )
}

fn full_query(c: &RoadsCluster) -> Query {
    QueryBuilder::new(c.network().schema(), QueryId(1))
        .range("x0", 0.0, 1.0)
        .build()
}

fn explained(c: &RoadsCluster, q: &Query) -> (RuntimeOutcome, QueryExplain) {
    let (out, ex) = c.query_with(q, ONLY, RequesterId(0), true);
    (out, ex.expect("explain was requested"))
}

fn queue_gauge(reg: &Registry) -> Arc<Gauge> {
    reg.find_gauge(&labeled("runtime.server.queue_depth", &[("server", "0")]))
        .expect("declared at startup")
}

/// `k` clients contact the one server at the same moment (a barrier, not a
/// sleep); `while_running` runs on the calling thread meanwhile. Returns
/// each client's outcome, explain record and completion time since the
/// barrier opened — all on one clock, read on the calling thread before it
/// lets the barrier open: a client that is descheduled behind the barrier
/// must not start its own clock late and seem to finish early.
fn contact_concurrently(
    c: &RoadsCluster,
    k: usize,
    while_running: impl FnOnce(),
) -> Vec<(RuntimeOutcome, QueryExplain, Duration)> {
    let q = full_query(c);
    let gate = Barrier::new(k + 1);
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..k)
            .map(|_| {
                let (q, gate) = (&q, &gate);
                s.spawn(move || {
                    gate.wait();
                    let (out, ex) = explained(c, q);
                    (out, ex, Instant::now())
                })
            })
            .collect();
        let t0 = Instant::now();
        gate.wait();
        while_running();
        let done = |h: std::thread::ScopedJoinHandle<'_, (_, _, Instant)>| {
            let (out, ex, done) = h.join().unwrap();
            (out, ex, done.duration_since(t0))
        };
        clients.into_iter().map(done).collect()
    })
}

/// Spin (yielding) until `cond` holds; panics after 10 s so a broken
/// service clock fails the test instead of hanging it.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "timed out waiting for {what}"
        );
        std::thread::yield_now();
    }
}

#[test]
fn concurrent_contacts_are_served_one_at_a_time_in_arrival_order() {
    let (k, base_us) = (4usize, 40_000u64);
    let b = Duration::from_micros(base_us);
    let reg = Registry::new();
    let c = one_server(base_us, 0, &reg);
    let depth = queue_gauge(&reg);

    let mut runs = contact_concurrently(&c, k, || {
        // One request in service, the rest waiting in the FIFO.
        wait_until("a queued request", || depth.get() >= 1);
    });
    assert_eq!(depth.get(), 0, "the FIFO drained");

    runs.sort_by_key(|r| r.2);
    for (out, _, _) in &runs {
        assert!(out.complete);
        assert_eq!(out.records.len(), RECORDS);
    }
    // Completions are B apart: the i-th to finish waited for i services
    // before its own. Not ≈ B for all (that would be parallel service).
    for (i, (_, _, done)) in runs.iter().enumerate() {
        assert!(
            *done >= b * (i as u32 + 1),
            "completion {i} after {done:?}, before {} services of {b:?}",
            i + 1
        );
    }
    // ... and not compounding: the whole burst takes ≈ k·B, nowhere near
    // the k(k+1)/2·B of services that restart behind each arrival.
    let total = runs.last().unwrap().2;
    assert!(
        total < b * 2 * k as u32,
        "{k} services of {b:?} took {total:?}"
    );
    // Explain's queue/compute split says the same thing per request:
    // compute is one service, queue wait grows with arrival order (by B
    // less the gap between the two arrivals, hence the halved bound).
    let mut prev_queue_us = -1.0;
    for (i, (_, ex, _)) in runs.iter().enumerate() {
        let split = &ex.hops[0].split;
        assert!(
            split.queue_us > prev_queue_us,
            "request {i} queued {} µs, its predecessor {prev_queue_us} µs",
            split.queue_us
        );
        prev_queue_us = split.queue_us;
        assert!(
            split.compute_us >= base_us as f64,
            "request {i}: compute {} µs",
            split.compute_us
        );
        assert!(
            split.compute_us < 3.0 * base_us as f64,
            "request {i}: compute {} µs includes queueing",
            split.compute_us
        );
        assert!(
            split.queue_us >= (i as u64 * base_us / 2) as f64,
            "request {i} queued only {} µs",
            split.queue_us
        );
    }
    c.shutdown();
}

#[test]
fn a_due_contact_of_a_busy_server_waits_in_its_fifo_in_arrival_order() {
    // Every contact here is due at once (no link delay, no backoff), so
    // its own client delivers it. Three clients contact the one server in
    // a known order: the first only once the server has run a step (it is
    // then in service for B), the second and third each once its
    // predecessor waits in the FIFO. A client that ran its step on the
    // busy server instead of queueing would never raise the queue depth.
    let base_us = 300_000u64;
    let b = Duration::from_micros(base_us);
    let reg = Registry::new();
    let c = one_server(base_us, 0, &reg);
    let depth = queue_gauge(&reg);
    let steps = reg.histogram("runtime.local_search_us");
    let q = full_query(&c);

    let t0 = Instant::now();
    let done: Vec<(RuntimeOutcome, QueryExplain, Duration)> = std::thread::scope(|s| {
        let client = || {
            s.spawn(|| {
                let (out, ex) = explained(&c, &q);
                (out, ex, t0.elapsed())
            })
        };
        let first = client();
        wait_until("the first request in service", || steps.count() == 1);
        let second = client();
        wait_until("the second request queued", || depth.get() == 1);
        let third = client();
        wait_until("the third request queued", || depth.get() == 2);
        [first, second, third]
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(depth.get(), 0, "the FIFO drained");
    assert_eq!(steps.count(), 3, "one step per request");
    // Served in arrival order, one service after another.
    for (i, (out, ex, at)) in done.iter().enumerate() {
        assert!(out.complete);
        assert_eq!(out.records.len(), RECORDS);
        assert!(
            *at >= b * (i as u32 + 1),
            "client {i} done after {at:?}, before {} services of {b:?}",
            i + 1
        );
        if i > 0 {
            assert!(
                *at > done[i - 1].2,
                "client {i} was served before client {}",
                i - 1
            );
            assert!(
                ex.hops[0].split.queue_us > 0.0,
                "client {i} did not wait in the FIFO"
            );
        }
    }
    c.shutdown();
}

#[test]
fn kill_loses_the_request_in_service_and_the_queued_ones() {
    // The dispatch timeout outlasts all three services (done at 0.3, 0.6
    // and 0.9 s), so a reply can only be missing because the kill lost it,
    // never because its client gave up first.
    let reg = Registry::new();
    let c = one_server(300_000, 1_200, &reg);
    let depth = queue_gauge(&reg);

    let runs = contact_concurrently(&c, 3, || {
        wait_until("one in service, two queued", || depth.get() == 2);
        assert!(c.kill_server(ONLY));
        assert_eq!(depth.get(), 0, "a dead server drops its queue");
    });
    for (out, ex, _) in &runs {
        assert!(out.records.is_empty(), "a reply survived the kill");
        assert_eq!(out.servers_contacted, 0);
        assert!(!out.complete);
        assert_eq!(out.failed_servers, vec![ONLY]);
        assert_eq!(ex.hops[0].outcome, HopOutcome::TimedOut);
    }

    // A later dispatch finds the server dead at delivery — at once, not
    // after a timeout.
    let t0 = Instant::now();
    let (out, ex) = explained(&c, &full_query(&c));
    assert!(t0.elapsed() < Duration::from_millis(1_000));
    assert_eq!(ex.hops[0].outcome, HopOutcome::MailboxDown);
    assert_eq!(out.failed_servers, vec![ONLY]);

    assert!(c.restart_server(ONLY));
    let out = c.query(&full_query(&c), ONLY);
    assert!(out.complete, "the new incarnation serves");
    assert_eq!(out.records.len(), RECORDS);
    assert_eq!(depth.get(), 0);
    c.shutdown();
}

#[test]
fn straggler_factor_stretches_the_service_spacing() {
    let (k, base_us, factor) = (3usize, 20_000u64, 3u32);
    let slow_b = Duration::from_micros(base_us) * factor;
    let reg = Registry::new();
    let c = one_server(base_us, 0, &reg);
    assert!(c.slow_server(ONLY, factor as f64));

    let mut runs = contact_concurrently(&c, k, || {});
    runs.sort_by_key(|r| r.2);
    for (i, (out, _, done)) in runs.iter().enumerate() {
        assert!(out.complete, "a straggler is alive");
        assert!(
            *done >= slow_b * (i as u32 + 1),
            "completion {i} after {done:?}: spacing not stretched to {slow_b:?}"
        );
    }
    c.shutdown();
}
