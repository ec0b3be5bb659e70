//! Figure 18: the incremental delta update path vs the full rebuild
//! round, swept across churn fractions.
//!
//! Beyond the paper — fixes a large record population (1M records over
//! 64 servers at full scale) and sweeps the fraction of records updated
//! per round: wall time and propagation bytes of one full
//! rebuild-everything round vs one incremental delta round over the same
//! network, plus what each delta touched. The full
//! round's cost is flat in churn (it always re-aggregates every local
//! summary from its records — one sequential pass over each server's
//! rows); the delta round's cost scales with the changed slice (random
//! accesses per change) and its dirty branch closure, so the speedup is
//! largest at low churn and the figure asserts the speedup floor
//! ([`MIN_DELTA_SPEEDUP`]) at the 1% point. Propagation bytes shrink with
//! churn too: only dirty summaries travel.
//!
//! Every delta round's change accounting is asserted as it runs: each
//! change is applied or rejected, the dirty servers fit the network, the
//! dirty branches close over them and at most one summary per dirty
//! server is rebuilt. The figure document carries that accounting as
//! series over the four fractions (`roads-inspect summary` shows it), and
//! every round lands in the figure's trace as one aggregation wave
//! ([`record_update_round_events`]).

use roads_bench::{banner, figure_config};
use roads_core::{
    record_update_round_events, update_round_delta, update_round_full, BuildOptions, DeltaOutcome,
    RecordDelta, RoadsConfig, RoadsNetwork, ServerId,
};
use roads_records::{OwnerId, Record, RecordId, Schema, Value};
use roads_summary::SummaryConfig;
use roads_telemetry::{write_chrome_trace_default, FigureExport, Recorder};
use std::time::Instant;

/// The minimum full-round / delta-round speedup a healthy incremental
/// path must sustain in the 1% cell (1% of 1M records per round).
///
/// Why 2: a full rebuild is one sequential pass over each server's
/// contiguous rows (≈ 30 ns a row), a delta change a map probe, a row
/// swap, a store per column and five summary updates at random addresses
/// (≈ 0.7 µs), so 1% churn reads 3.3–6.1× and a loud neighbour can
/// halve that. The floor is a ratio: whatever makes the rebuild cheaper
/// lowers the readings without any delta round getting slower.
const MIN_DELTA_SPEEDUP: f64 = 2.0;

/// Per-churn-fraction aggregates over all runs.
#[derive(Default)]
struct Cell {
    rounds: u64,
    changes: u64,
    full_ms: f64,
    delta_ms: f64,
    full_bytes: u64,
    delta_bytes: u64,
    /// What the last delta round at this fraction touched.
    last: Option<DeltaOutcome>,
}

fn churn_record(id: u64, x: f64) -> Record {
    Record::new_unchecked(
        RecordId(id),
        OwnerId((id % 1000) as u32),
        vec![Value::Float(x), Value::Float((x * 7.0).fract())],
    )
}

fn delta_net(servers: usize, per: usize, threads: usize) -> RoadsNetwork {
    let schema = Schema::unit_numeric(2);
    let cfg = RoadsConfig {
        max_children: 8,
        summary: SummaryConfig::with_buckets(128),
        ..RoadsConfig::paper_default()
    };
    let total = (servers * per) as f64;
    let records: Vec<Vec<Record>> = (0..servers)
        .map(|s| {
            (0..per)
                .map(|i| {
                    let id = s * per + i;
                    churn_record(id as u64, id as f64 / total)
                })
                .collect()
        })
        .collect();
    RoadsNetwork::build_with(schema, cfg, records, BuildOptions::with_threads(threads))
}

/// `fraction` of the population updated in place; the 9973 stride is
/// prime to both population sizes, so each round touches distinct
/// records.
fn churn_delta(servers: usize, per: usize, fraction: f64, round: u64) -> RecordDelta {
    let total = servers * per;
    let changes = ((total as f64 * fraction) as usize).max(1);
    let mut delta = RecordDelta::new();
    for j in 0..changes {
        let id = (j * 9973 + round as usize * 131) % total;
        let x = ((id as f64 / total as f64) + 0.37 * (round + 1) as f64).fract();
        delta.update(ServerId((id / per) as u32), churn_record(id as u64, x));
    }
    delta
}

fn main() {
    banner(
        "Figure 18 — incremental delta round vs full rebuild across churn",
        "beyond the paper: record-diff propagation over mutable per-server stores",
    );
    let cfg = figure_config();
    // The 1M-record scale is part of the claim: the floor below is a
    // DRAM-resident-scale property, so --quick shrinks only the repeat
    // count (via figure_config), never the federation.
    let (servers, per) = (64, 15_625);
    let fractions = [0.001, 0.01, 0.05, 0.20];
    let mut cells: Vec<Cell> = fractions.iter().map(|_| Cell::default()).collect();
    let rec = Recorder::new(65_536);

    println!(
        "{:>7} {:>9} {:>11} {:>11} {:>9} {:>10} {:>11} {:>11}",
        "churn", "changes", "full ms", "delta ms", "speedup", "dirty srv", "full B", "delta B"
    );
    for run in 0..cfg.runs {
        let mut net = delta_net(servers, per, cfg.build_threads.max(4));
        for (fi, &fraction) in fractions.iter().enumerate() {
            let round = (run * fractions.len() + fi) as u64;
            let delta = churn_delta(servers, per, fraction, round);
            let cell = &mut cells[fi];
            cell.rounds += 1;
            cell.changes = delta.len() as u64;

            let t0 = Instant::now();
            let (breakdown, outcome) = update_round_delta(&mut net, &delta);
            cell.delta_ms += t0.elapsed().as_secs_f64() * 1000.0;
            cell.delta_bytes = breakdown.total_bytes();
            assert_accounting(&delta, &outcome);
            assert_eq!(outcome.rejected, 0, "in-place churn never rejects");
            cell.last = Some(outcome);
            record_update_round_events(&rec, &net);

            // The full round doubles as the reset: it rebuilds every
            // local summary, so the next fraction starts converged.
            let t0 = Instant::now();
            let full = update_round_full(&mut net);
            cell.full_ms += t0.elapsed().as_secs_f64() * 1000.0;
            cell.full_bytes = full.total_bytes();
            record_update_round_events(&rec, &net);
            assert!(
                cell.delta_bytes <= cell.full_bytes,
                "delta round moved more bytes than the full round at churn {fraction}"
            );
        }
    }

    let mut fig = FigureExport::new(
        "fig18_delta_churn",
        "Incremental delta round vs full rebuild: wall time and bytes across churn",
    )
    .axes("churn fraction per round", "round wall time (ms)");
    // Timings and bytes per fraction, then what the last delta round at
    // that fraction touched.
    const SERIES: [&str; 13] = [
        "full_round_ms",
        "delta_round_ms",
        "speedup",
        "full_round_bytes",
        "delta_round_bytes",
        "servers",
        "records",
        "changes_per_round",
        "changes_applied",
        "changes_rejected",
        "dirty_servers",
        "dirty_branches",
        "summary_rebuilds",
    ];
    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); SERIES.len()];
    let mut speedup_at_gate = None;
    for (c, &fraction) in cells.iter().zip(&fractions) {
        let n = c.rounds as f64;
        let (full_ms, delta_ms) = (c.full_ms / n, c.delta_ms / n);
        let speedup = full_ms / delta_ms;
        if fraction == 0.01 {
            speedup_at_gate = Some(speedup);
        }
        let last = c.last.as_ref().expect("at least one run");
        println!(
            "{:>6.1}% {:>9} {:>11.1} {:>11.1} {:>8.1}x {:>10} {:>11} {:>11}",
            100.0 * fraction,
            c.changes,
            full_ms,
            delta_ms,
            speedup,
            last.dirty.len(),
            c.full_bytes,
            c.delta_bytes,
        );
        let values = [
            full_ms,
            delta_ms,
            speedup,
            c.full_bytes as f64,
            c.delta_bytes as f64,
            servers as f64,
            (servers * per) as f64,
            c.changes as f64,
            last.applied as f64,
            last.rejected as f64,
            last.dirty.len() as f64,
            last.dirty_branches.len() as f64,
            last.shard_rebuilds as f64,
        ];
        for (points, y) in series.iter_mut().zip(values) {
            points.push((fraction, y));
        }
    }
    let speedup_at_gate = speedup_at_gate.expect("the sweep includes 1% churn");
    assert!(
        speedup_at_gate >= MIN_DELTA_SPEEDUP,
        "delta round only {speedup_at_gate:.1}x faster than full at 1% churn \
         (floor: {MIN_DELTA_SPEEDUP:.0}x)"
    );

    for (name, points) in SERIES.iter().zip(&series) {
        fig.push_series(*name, points);
    }
    fig.push_reference("speedup_at_1pct_churn", speedup_at_gate, MIN_DELTA_SPEEDUP);
    fig.push_note(
        "delta rounds fold record diffs into each store's summary in place and re-aggregate only \
         the dirty branch closure; full rounds rebuild every local summary from its records",
    );
    fig.write_default();
    write_chrome_trace_default(&fig.figure, Some(&rec), &[]);
}

/// The change accounting every delta round must add up to: each change is
/// applied or rejected, and no server's summary was rebuilt twice. (That
/// `dirty_branches` is the ancestor closure of `dirty` holds by
/// construction; `crates/roads/tests/delta_accounting.rs` pins it.)
fn assert_accounting(delta: &RecordDelta, outcome: &DeltaOutcome) {
    assert_eq!(
        outcome.applied + outcome.rejected,
        delta.len() as u64,
        "change accounting does not add up: {} applied + {} rejected != {} changes",
        outcome.applied,
        outcome.rejected,
        delta.len()
    );
    assert!(
        outcome.shard_rebuilds <= outcome.dirty.len() as u64,
        "{} summary rebuilds for {} dirty servers",
        outcome.shard_rebuilds,
        outcome.dirty.len()
    );
}
