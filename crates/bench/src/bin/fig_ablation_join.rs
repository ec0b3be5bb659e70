//! Ablation (§III-A join policy): balance-aware join vs random parent.
//!
//! The paper's join walk descends into "the child whose branch has the
//! least depth, or least number of descendants when depths are equal". This
//! binary compares the resulting tree shape (and thus query latency, which
//! Fig. 10 ties to depth) against joining under a uniformly random
//! non-full server.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roads_bench::{banner, figure_config};
use roads_core::{HierarchyTree, ServerId};
use roads_telemetry::{write_chrome_trace_default, EventKind, FigureExport, Recorder, SpanId};

/// Build a tree by attaching each new server under a random server with
/// spare capacity.
fn random_tree(n: usize, max_children: usize, seed: u64) -> HierarchyTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = HierarchyTree::new(n, ServerId(0));
    for s in 1..n as u32 {
        let candidates: Vec<ServerId> = t
            .servers()
            .into_iter()
            .filter(|&p| t.children(p).len() < max_children)
            .collect();
        let parent = candidates[rng.gen_range(0..candidates.len())];
        t.attach(ServerId(s), parent).expect("valid attach");
    }
    t
}

fn describe(label: &str, t: &HierarchyTree) {
    let n = t.len();
    let depths: Vec<usize> = t.servers().iter().map(|&s| t.depth(s)).collect();
    let mean_depth = depths.iter().sum::<usize>() as f64 / n as f64;
    println!(
        "{:<18} levels={:<3} mean depth={:<5.2} max depth={}",
        label,
        t.levels(),
        mean_depth,
        depths.iter().max().unwrap()
    );
}

fn main() {
    banner(
        "Ablation — join policy: least-depth walk vs random parent",
        "balance-aware joins keep the tree flat (fewer hops per query, Fig. 10)",
    );
    let cfg = figure_config();
    let rec = Recorder::new(4096);
    let t0 = std::time::Instant::now();
    let mut balanced_pts = Vec::new();
    let mut random_pts = Vec::new();
    for (n, k) in [(cfg.nodes, cfg.degree), (640, 8), (320, 4)] {
        println!("\n{n} servers, degree {k}:");
        // One wall-clock trace per configuration: a Mark root spanning
        // both build strategies, with one child Mark span each.
        let trace = rec.next_trace_id();
        let cfg_start = t0.elapsed().as_micros() as u64;
        let build_start = t0.elapsed().as_micros() as u64;
        let balanced = HierarchyTree::build(n, k);
        let build_end = t0.elapsed().as_micros() as u64;
        describe("least-depth", &balanced);
        let mut worst_levels = 0;
        let mut sum_levels = 0;
        let random_start = t0.elapsed().as_micros() as u64;
        for seed in 0..5u64 {
            let t = random_tree(n, k, seed);
            worst_levels = worst_levels.max(t.levels());
            sum_levels += t.levels();
            if seed == 0 {
                describe("random (seed 0)", &t);
            }
        }
        let random_end = t0.elapsed().as_micros() as u64;
        let root_span = rec.record_span(
            trace,
            SpanId::NONE,
            n as u32,
            EventKind::Mark,
            cfg_start,
            random_end.saturating_sub(cfg_start).max(1),
            k as u64,
        );
        rec.record_span(
            trace,
            root_span,
            n as u32,
            EventKind::Mark,
            build_start,
            build_end.saturating_sub(build_start).max(1),
            balanced.levels() as u64,
        );
        rec.record_span(
            trace,
            root_span,
            n as u32,
            EventKind::Mark,
            random_start,
            random_end.saturating_sub(random_start).max(1),
            worst_levels as u64,
        );
        println!(
            "{:<18} mean levels={:.1} worst={}",
            "random (5 seeds)",
            sum_levels as f64 / 5.0,
            worst_levels
        );
        balanced_pts.push((n as f64, balanced.levels() as f64));
        random_pts.push((n as f64, sum_levels as f64 / 5.0));
    }

    let mut fig = FigureExport::new(
        "fig_ablation_join",
        "Join policy: least-depth walk vs random parent (tree levels)",
    )
    .axes("servers", "hierarchy levels");
    if let (Some(&(_, b)), Some(&(_, r))) = (balanced_pts.first(), random_pts.first()) {
        fig.push_reference("balanced_over_random_levels", b / r, 1.0);
    }
    fig.push_series("least_depth_levels", &balanced_pts);
    fig.push_series("random_mean_levels", &random_pts);
    fig.push_note("balance-aware joins keep the tree no deeper than random attachment");
    fig.write_default();
    write_chrome_trace_default(&fig.figure, Some(&rec), &[]);
    // This binary drives no query plane; the digest records that
    // explicitly rather than omitting the line.
    roads_bench::print_metrics_digest(&roads_telemetry::Registry::new().snapshot());
}
