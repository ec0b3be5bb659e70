//! Figure 17: the replica-aware planner vs greedy expansion.
//!
//! Beyond the paper — sweeps query selectivity (the range length per
//! query dimension) against the overlay replication degree (the
//! hierarchy fan-out `k`, which sets how many sibling / ancestor-sibling
//! summary copies every server replicates): mean servers contacted and
//! query-forwarding bytes per query under greedy hop-by-hop expansion vs
//! the planner's batched set-cover dispatch, with recall asserted
//! identical on every single query. A second pass replays the same
//! workload through the TTL'd result cache to show the steady-state hit
//! rate. The planner's one win over greedy used to be leaving out ancestor
//! probes whose replicated local summary rules them out; the protocol's
//! entry step makes that test itself now (`RoadsNetwork::evaluate`), so on
//! a converged overlay the figure asserts the two contact the same
//! servers with the same bytes, query for query, and prune nothing.

use roads_bench::{banner, figure_config, parse_args};
use roads_core::{
    execute_query_cached, execute_query_planned, execute_query_with, plan_query,
    record_query_events, record_query_outcome, QueryOptions, ResultCache, RoadsConfig,
    RoadsNetwork, SearchScope, ServerId,
};
use roads_netsim::DelaySpace;
use roads_summary::SummaryConfig;
use roads_telemetry::{write_chrome_trace_default, FigureExport, Recorder, Registry};
use roads_workload::{
    default_schema, generate_node_records, generate_queries, QueryWorkloadConfig,
    RecordWorkloadConfig,
};

/// Per-(degree, selectivity) aggregates over all runs and queries.
#[derive(Default)]
struct Cell {
    queries: u64,
    greedy_servers: f64,
    planned_servers: f64,
    greedy_bytes: f64,
    planned_bytes: f64,
    pruned_probes: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

fn main() {
    banner(
        "Figure 17 — replica-aware planner vs greedy expansion",
        "beyond the paper: set-cover dispatch over replicated summaries",
    );
    let cfg = figure_config();
    let (quick, ..) = parse_args();
    let degrees: &[usize] = if quick { &[4, 8] } else { &[4, 8, 16] };
    let range_lens = [0.05, 0.10, 0.25, 0.40];
    let reg = Registry::new();
    let rec = Recorder::new(65_536);

    println!(
        "{:>3} {:>6} {:>12} {:>13} {:>8} {:>13} {:>14} {:>9}",
        "k", "range", "greedy srv", "planned srv", "fewer", "greedy B", "planned B", "hits"
    );
    let mut cells: Vec<(usize, f64, Cell)> = Vec::new();
    for &degree in degrees {
        for run in 0..cfg.runs {
            let seed = cfg.seed.wrapping_add(run as u64 * 7919);
            let schema = default_schema(cfg.attrs);
            let records = generate_node_records(&RecordWorkloadConfig {
                nodes: cfg.nodes,
                records_per_node: cfg.records_per_node,
                attrs: cfg.attrs,
                seed,
            });
            let net = RoadsNetwork::build(
                schema.clone(),
                RoadsConfig {
                    max_children: degree,
                    summary: SummaryConfig::with_buckets(cfg.buckets),
                    ts_ms: cfg.ts_ms,
                    tr_ms: cfg.tr_ms,
                    ..RoadsConfig::paper_default()
                },
                records,
            );
            let delays = DelaySpace::paper(cfg.nodes, seed);
            for (si, &range_len) in range_lens.iter().enumerate() {
                let queries = generate_queries(
                    &schema,
                    &QueryWorkloadConfig {
                        count: cfg.queries,
                        dims: cfg.query_dims,
                        range_len,
                        nodes: cfg.nodes,
                        seed: seed ^ 0xABCD ^ (si as u64) << 32,
                    },
                );
                let cell = match cells
                    .iter_mut()
                    .find(|(d, r, _)| *d == degree && *r == range_len)
                {
                    Some((_, _, c)) => c,
                    None => {
                        cells.push((degree, range_len, Cell::default()));
                        &mut cells.last_mut().unwrap().2
                    }
                };
                let cache = ResultCache::new(4);
                for (qi, (q, start)) in queries.iter().enumerate() {
                    let entry = ServerId(*start as u32);
                    let scope = SearchScope::full();
                    // The greedy baseline runs traced; every 8th query
                    // feeds the flight-recorder artifact next to the
                    // figure (span-tree validation in `roads-inspect
                    // check` is per-trace, so full recording would
                    // dominate the check's wall clock).
                    let mut trace = Vec::new();
                    let opts = QueryOptions::scoped(scope);
                    let greedy =
                        execute_query_with(&net, &delays, q, entry, &opts, Some(&mut trace));
                    if qi % 8 == 0 {
                        record_query_events(&rec, rec.next_trace_id(), &trace);
                    }
                    let plan = plan_query(&net, q, entry, scope);
                    let planned = execute_query_planned(&net, &delays, q, entry, scope, &plan);
                    record_query_outcome(&reg, &planned);

                    let (mut a, mut b) = (
                        greedy.matching_servers.clone(),
                        planned.matching_servers.clone(),
                    );
                    a.sort();
                    b.sort();
                    assert_eq!(
                        a, b,
                        "recall drift at k={degree} range={range_len} entry={entry}"
                    );
                    assert_eq!(greedy.matching_records, planned.matching_records);
                    assert_eq!(planned.servers_contacted, greedy.servers_contacted);
                    assert_eq!(planned.query_bytes, greedy.query_bytes);
                    assert_eq!(plan.pruned_probes, 0);

                    cell.queries += 1;
                    cell.greedy_servers += greedy.servers_contacted as f64;
                    cell.planned_servers += planned.servers_contacted as f64;
                    cell.greedy_bytes += greedy.query_bytes as f64;
                    cell.planned_bytes += planned.query_bytes as f64;
                    cell.pruned_probes += plan.pruned_probes as u64;

                    // Two cached replays of the same query: the first
                    // populates (miss), the second must hit.
                    for _ in 0..2 {
                        let (cached, hit) = execute_query_cached(
                            &net,
                            &delays,
                            q,
                            entry,
                            scope,
                            &cache,
                            Some(&plan),
                        );
                        assert_eq!(cached.matching_records, greedy.matching_records);
                        cell.cache_lookups += 1;
                        if hit {
                            cell.cache_hits += 1;
                        }
                    }
                }
            }
        }
    }

    let mut fig = FigureExport::new(
        "fig17_planner",
        "Replica-aware planner vs greedy: servers contacted and query bytes",
    )
    .axes("query range length per dimension", "mean servers contacted");
    let mut total_greedy_srv = 0.0;
    let mut total_planned_srv = 0.0;
    for &degree in degrees {
        let mut srv_greedy = Vec::new();
        let mut srv_planned = Vec::new();
        let mut bytes_greedy = Vec::new();
        let mut bytes_planned = Vec::new();
        for (_, range_len, c) in cells.iter().filter(|(d, _, _)| *d == degree) {
            let n = c.queries as f64;
            println!(
                "{:>3} {:>6.2} {:>12.2} {:>13.2} {:>7.1}% {:>13.0} {:>14.0} {:>8.1}%",
                degree,
                range_len,
                c.greedy_servers / n,
                c.planned_servers / n,
                100.0 * (1.0 - c.planned_servers / c.greedy_servers),
                c.greedy_bytes / n,
                c.planned_bytes / n,
                100.0 * c.cache_hits as f64 / c.cache_lookups as f64,
            );
            srv_greedy.push((*range_len, c.greedy_servers / n));
            srv_planned.push((*range_len, c.planned_servers / n));
            bytes_greedy.push((*range_len, c.greedy_bytes / n));
            bytes_planned.push((*range_len, c.planned_bytes / n));
            total_greedy_srv += c.greedy_servers;
            total_planned_srv += c.planned_servers;
            // The cache pass replays every query exactly twice with no
            // intervening epoch advance: exactly half the lookups hit.
            assert_eq!(
                2 * c.cache_hits,
                c.cache_lookups,
                "cache hit rate must be 50%"
            );
        }
        fig.push_series(format!("servers_greedy_k{degree}"), &srv_greedy);
        fig.push_series(format!("servers_planned_k{degree}"), &srv_planned);
        fig.push_series(format!("bytes_greedy_k{degree}"), &bytes_greedy);
        fig.push_series(format!("bytes_planned_k{degree}"), &bytes_planned);
    }

    let reduction = 1.0 - total_planned_srv / total_greedy_srv;
    println!(
        "\nsweep total: {:.1}% fewer servers contacted than greedy (the ancestor test is the \
         protocol's now), recall identical on every query",
        100.0 * reduction
    );
    fig.push_reference("contact_reduction_fraction", reduction, 0.0);
    fig.push_note("greedy tests ancestors on their local summaries itself, so a plan contacts what greedy does; contacts, bytes and recall asserted identical per query");
    fig.set_telemetry(reg.snapshot());
    fig.write_default();
    write_chrome_trace_default(&fig.figure, &rec);
    roads_bench::print_metrics_digest(&reg.snapshot());
}
