//! Figure 20: where a query's contacts go, and how many a better summary
//! could save — ROADMAP item 2(a)'s diagnosis as a table (beyond the paper).
//!
//! Over the paper-default workload and the benchmark's `live_selective`,
//! every query's contact log is classified per hierarchy level: Branch
//! contacts; the *hollow* ones, whose whole redirect subtree returned
//! nothing — split into those where some one server below has a matching
//! local summary (bucket granularity, attribute independence) and those
//! where none has (the ranges are matched by different servers:
//! aggregation); probes of a server's own records and the wasted ones.
//! Beside them, the contacts two oracles would need (a branch test that is
//! never wrong; one exact bounding box per server), what the parts cost in
//! update bytes, and the longest redirect chain per query in hops — the
//! modelled latency is one network delay per hop of it. Then the curve
//! the parts' byte budget was chosen from: contacts and the parts' share
//! of a parts-free update round with per-server boxes merged within each
//! summand down to budgets from one box per summand to none at all. Last,
//! what joint information within one server could save: an oracle whose
//! every test is exact over the servers' own tests, a server's test being
//! its local histograms and one of `b` k-d boxes over its records, exact
//! or rounded outward to the parts' cells (`b` = 0: the histograms alone).

use roads_bench::{banner, figure_config, parse_args, TrialConfig};
use roads_core::{
    execute_query_with, explain_from_trace, record_query_events, update_round, ContactMode,
    QueryOptions, RoadsNetwork, ServerId, TraceEvent,
};
use roads_netsim::DelaySpace;
use roads_records::{Predicate, Query, Record, Value};
use roads_summary::{Histogram, Summary};
use roads_telemetry::{
    write_chrome_trace_default, ExplainDecision, FigureExport, Recorder, TraceId,
};
use roads_workload::{
    default_schema, generate_node_records, generate_queries, QueryWorkloadConfig,
    RecordWorkloadConfig,
};

/// What is tallied per hierarchy level, in column order.
#[rustfmt::skip]
const COLUMNS: [&str; 6] =
    ["branch", "hollow", "hollow_one_server", "hollow_aggregation", "probes", "wasted_probes"];

/// A box: `(min, max)` per attribute.
type Bounds = Vec<(f64, f64)>;

/// Boxes per server of the within-server oracle; 0 is the histograms alone.
const SERVER_BOXES: [usize; 6] = [0, 1, 2, 4, 8, 16];

/// Servers a query from `entry` contacts when a branch is descended iff
/// `branch(t)`, an ancestor probed iff `probe(a)`, and a replicated branch
/// `t` whose summary in `kept` kept parts is expanded into its summands
/// `s` with `part(t, s)` — a child contacted as a branch, `t` itself
/// probed: the protocol's walk with the summary tests swapped out.
fn walk(
    net: &RoadsNetwork,
    entry: ServerId,
    kept: &[&Summary],
    branch: &dyn Fn(ServerId) -> bool,
    probe: &dyn Fn(ServerId) -> bool,
    part: &dyn Fn(ServerId, ServerId) -> bool,
) -> usize {
    let rset = net.replica_set(entry);
    let children = |s: ServerId| net.tree().children(s).iter().copied();
    let mut frontier: Vec<ServerId> = children(entry).filter(|&t| branch(t)).collect();
    let mut contacts = 1 + rset.ancestors.iter().filter(|&&a| probe(a)).count();
    for t in rset.redirect_targets().into_iter().filter(|&t| branch(t)) {
        if kept[t.index()].part_count() == 0 {
            frontier.push(t);
            continue;
        }
        contacts += usize::from(part(t, t));
        frontier.extend(children(t).filter(|&c| part(t, c)));
    }
    while let Some(s) = frontier.pop() {
        contacts += 1;
        frontier.extend(children(s).filter(|&c| branch(c)));
    }
    contacts
}

/// The longest redirect chain of a contact log, in hops from the entry.
fn longest_chain(log: &[TraceEvent]) -> usize {
    let mut hops = vec![0; log.len()];
    for (i, e) in log.iter().enumerate() {
        hops[i] = e.caused_by.map_or(0, |p| hops[p] + 1);
    }
    hops.into_iter().max().unwrap_or(0)
}

/// Whether the exact bounding box `(min, max)` per attribute holds `q`.
fn box_holds(bounds: &[(f64, f64)], q: &Query) -> bool {
    q.predicates().iter().all(|p| match p {
        Predicate::Range { attr, lo, hi } => {
            let (min, max) = bounds[attr.index()];
            min <= *hi && max >= *lo
        }
        _ => true,
    })
}

/// `b` (a power of two) boxes over `rows`: a group of rows is split at the
/// median of its widest axis until there are `b` groups, and a box is a
/// group's exact `(min, max)` per attribute.
fn kd_boxes(rows: &mut [Vec<f64>], b: usize) -> Vec<Bounds> {
    let arity = rows.first().map_or(0, Vec::len);
    let bounds: Bounds = (0..arity)
        .map(|a| {
            (rows.iter()).fold((f64::MAX, f64::MIN), |(lo, hi), r| {
                (lo.min(r[a]), hi.max(r[a]))
            })
        })
        .collect();
    if b <= 1 || rows.len() < 2 {
        return vec![bounds];
    }
    let width = |a: usize| bounds[a].1 - bounds[a].0;
    let widest = (0..arity).max_by(|&x, &y| width(x).total_cmp(&width(y)));
    let widest = widest.unwrap_or(0);
    rows.sort_by(|x, y| x[widest].total_cmp(&y[widest]));
    let (low, high) = rows.split_at_mut(rows.len() / 2);
    let mut boxes = kd_boxes(low, b / 2);
    boxes.extend(kd_boxes(high, b / 2));
    boxes
}

/// Branch summaries of `net`'s tree with parts merged down to `budget`
/// bytes, aggregated bottom-up from its local summaries.
fn branches_within(net: &RoadsNetwork, budget: usize) -> Vec<Summary> {
    let tree = net.tree();
    let mut order = tree.servers();
    order.sort_by_key(|&s| std::cmp::Reverse(tree.depth(s)));
    let mut branch = vec![Summary::empty(net.schema(), &net.config().summary); net.len()];
    for s in order {
        let kids = tree.children(s).iter().map(|c| (c.0, &branch[c.index()]));
        let built = Summary::branch_within(s.0, net.local_summary(s), kids, budget);
        branch[s.index()] = built.expect("one schema");
    }
    branch
}

fn measure(fig: &mut FigureExport, rec: &Recorder, name: &str, cfg: &TrialConfig) {
    let schema = default_schema(cfg.attrs);
    let records = generate_node_records(&RecordWorkloadConfig {
        nodes: cfg.nodes,
        records_per_node: cfg.records_per_node,
        attrs: cfg.attrs,
        seed: cfg.seed,
    });
    let rows: Vec<Vec<Vec<f64>>> = (records.iter())
        .map(|rs| {
            let row = |r: &Record| r.values().iter().filter_map(Value::as_f64).collect();
            rs.iter().map(row).collect()
        })
        .collect();
    let boxes: Vec<Bounds> = (rows.iter())
        .map(|rs| kd_boxes(&mut rs.clone(), 1).remove(0))
        .collect();
    // The parts' grid per attribute: a box rounded outward to its cells,
    // and a query's ranges, in bucket indexes.
    let grid: Vec<Histogram> = (schema.iter())
        .map(|(_, def)| Histogram::new(def.lo, def.hi, cfg.buckets))
        .collect();
    let in_cells = |bx: Bounds| -> Bounds {
        (bx.into_iter().zip(&grid))
            .map(|((lo, hi), h)| {
                let within = h.cell_buckets() - 1;
                (
                    (h.bucket_of(lo) & !within) as f64,
                    (h.bucket_of(hi) | within) as f64,
                )
            })
            .collect()
    };
    let in_buckets = |q: &Query| {
        let bucketed = q.predicates().iter().map(|p| match *p {
            Predicate::Range { attr, lo, hi } => {
                let h = &grid[attr.index()];
                let (lo, hi) = (h.bucket_of(lo) as f64, h.bucket_of(hi) as f64);
                Predicate::Range { attr, lo, hi }
            }
            ref other => other.clone(),
        });
        Query::new(q.id, bucketed.collect())
    };
    // Per (b, rounded) row of the within-server oracle, each server's boxes.
    let server_rows: Vec<(usize, bool)> = (SERVER_BOXES.into_iter())
        .flat_map(|b| [(b, false), (b, true)])
        .collect();
    let server_boxes: Vec<Vec<Vec<Bounds>>> = (server_rows.iter())
        .map(|&(b, rounded)| {
            (rows.iter())
                .map(|rs| match b {
                    0 => Vec::new(),
                    _ if rounded => kd_boxes(&mut rs.clone(), b)
                        .into_iter()
                        .map(in_cells)
                        .collect(),
                    _ => kd_boxes(&mut rs.clone(), b),
                })
                .collect()
        })
        .collect();
    let mut server_contacts = vec![0usize; server_rows.len()];
    let roads = cfg.roads_config();
    let net = RoadsNetwork::build(schema.clone(), roads, records);
    let tree = net.tree();
    let delays = DelaySpace::paper(cfg.nodes, cfg.seed);
    let workload = QueryWorkloadConfig {
        count: cfg.queries,
        dims: cfg.query_dims,
        range_len: 0.25,
        nodes: cfg.nodes,
        seed: cfg.seed ^ 0x51_7E41,
    };
    let queries = generate_queries(&schema, &workload);

    // The budget curve: `b` boxes of one-byte tags take 1 + b (1 + attrs)
    // bytes.
    let per_box = 1 + cfg.attrs;
    let shipped = net.local_summary(tree.root()).parts_budget();
    let one_each = format!("one per summand (<= {})", 1 + cfg.degree);
    let budgets: Vec<(String, usize)> = [(one_each, 0)]
        .into_iter()
        .chain([8, 12, 14, 16].map(|b| (format!("{b} boxes"), 1 + b * per_box)))
        .chain([
            (
                format!("shipped ({} boxes)", (shipped - 1) / per_box),
                shipped,
            ),
            ("no budget".to_string(), usize::MAX),
        ])
        .collect();
    let curve: Vec<Vec<Summary>> = (budgets.iter())
        .map(|&(_, budget)| branches_within(&net, budget))
        .collect();
    let curve: Vec<Vec<&Summary>> = curve.iter().map(|b| b.iter().collect()).collect();
    let real: Vec<&Summary> = (tree.servers().into_iter())
        .map(|s| net.branch_summary(s))
        .collect();
    let mut curve_contacts = vec![0usize; budgets.len()];

    let mut levels = vec![[0u64; COLUMNS.len()]; tree.levels()];
    let [mut contacts, mut matching, mut perfect, mut boxed] = [0usize; 4];
    let mut chains = vec![0usize; 2 * tree.levels()];
    for (qi, (q, start)) in queries.iter().enumerate() {
        let entry = ServerId(*start as u32);
        let (mut log, opts) = (Vec::new(), QueryOptions::default());
        let out = execute_query_with(&net, &delays, q, entry, &opts, Some(&mut log));
        if qi % 16 == 0 {
            record_query_events(rec, rec.next_trace_id(), &log);
        }
        chains[longest_chain(&log)] += 1;
        // Hollow is the explain plane's `false_positive`: a Branch contact
        // whose whole redirect subtree returned nothing.
        let explain = explain_from_trace(&net, q, TraceId::NONE, &log, ExplainDecision::Entry);
        for (e, hop) in log.iter().zip(&explain.hops) {
            let one_server = || {
                let below = tree.subtree(e.server);
                below.iter().any(|&s| net.local_summary(s).may_match(q))
            };
            let tally = match e.mode {
                ContactMode::Branch if !hop.false_positive => [1, 0, 0, 0, 0, 0],
                ContactMode::Branch if one_server() => [1, 1, 1, 0, 0, 0],
                ContactMode::Branch => [1, 1, 0, 1, 0, 0],
                ContactMode::LocalOnly => [0, 0, 0, 0, 1, u64::from(e.local_matches == 0)],
                _ => [0; COLUMNS.len()],
            };
            let level = &mut levels[tree.depth(e.server)];
            (0..COLUMNS.len()).for_each(|c| level[c] += tally[c]);
        }
        let holders = net.matching_servers(q);
        let below =
            |t: ServerId, holds: &dyn Fn(ServerId) -> bool| tree.subtree(t).into_iter().any(holds);
        let matches = |s: ServerId| holders.contains(&s);
        let in_box = |s: ServerId| box_holds(&boxes[s.index()], q);
        // The walk is the executor's: with the real tests it counts the same.
        let probe_test = |a: ServerId| net.local_summary(a).may_match(q);
        let tested = |summary: &[&Summary]| {
            let branch_test = |t: ServerId| summary[t.index()].may_match(q);
            let part_test = |t: ServerId, s: ServerId| {
                let holding = summary[t.index()].parts_holding(q);
                holding.is_some_and(|tags| tags.contains(&s.0))
            };
            walk(&net, entry, summary, &branch_test, &probe_test, &part_test)
        };
        assert_eq!(tested(&real), out.servers_contacted);
        for (n, branches) in curve_contacts.iter_mut().zip(&curve) {
            *n += tested(branches);
        }
        contacts += out.servers_contacted;
        matching += holders.len();
        // An oracle's part test is its own test of the summand.
        let oracle = |holds: &dyn Fn(ServerId) -> bool| {
            let branch = |t: ServerId| below(t, holds);
            let part = |t: ServerId, s: ServerId| if s == t { holds(s) } else { branch(s) };
            walk(&net, entry, &real, &branch, holds, &part)
        };
        perfect += oracle(&matches);
        boxed += oracle(&in_box);
        let histograms: Vec<bool> = (tree.servers().into_iter())
            .map(|s| net.local_summary(s).may_match(q))
            .collect();
        let bucketed = in_buckets(q);
        for ((&(b, rounded), sets), n) in
            (server_rows.iter().zip(&server_boxes)).zip(&mut server_contacts)
        {
            let asked = if rounded { &bucketed } else { q };
            let holds = |s: ServerId| {
                let own = &sets[s.index()];
                histograms[s.index()] && (b == 0 || own.iter().any(|bx| box_holds(bx, asked)))
            };
            *n += oracle(&holds);
        }
    }

    // Bytes the parts add to a round: each branch summary's trailer, times
    // the copies of it a round ships with its parts — one to the parent,
    // one to each reader holding the branch as a sibling or an ancestor's
    // sibling.
    let testers: Vec<usize> = (tree.servers().into_iter())
        .map(|s| {
            let reads = |r: &&ServerId| net.replica_set(**r).redirect_targets().contains(&s);
            tree.servers().iter().filter(reads).count() + usize::from(tree.parent(s).is_some())
        })
        .collect();
    let shipped_parts = |summary: &[&Summary]| -> usize {
        (testers.iter().zip(summary))
            .map(|(&n, s)| s.parts_bytes() * n)
            .sum()
    };
    let parts_bytes = shipped_parts(&real);
    let round_bytes = update_round(&net).total_bytes() as usize;
    let parts_free = (round_bytes - parts_bytes) as f64;
    let share = parts_bytes as f64 / parts_free;
    assert!(
        share <= 0.01,
        "{name}: the shipped parts take {:.3} % of a parts-free round, over 1 %",
        100.0 * share
    );

    let per_query = |v: usize| v as f64 / queries.len() as f64;
    println!(
        "\n{name}: {} servers x {} records, {} attributes, {} buckets, fan-out {}, {} queries of {} ranges",
        cfg.nodes, cfg.records_per_node, cfg.attrs, cfg.buckets, cfg.degree, queries.len(), cfg.query_dims
    );
    println!("depth {}", COLUMNS.map(|c| format!("{c:>18}")).join(" "));
    let mut rows: Vec<(String, Vec<f64>)> = (levels.iter().enumerate())
        .map(|(d, l)| {
            (
                d.to_string(),
                l.iter().map(|&v| per_query(v as usize)).collect(),
            )
        })
        .collect();
    let total = |c: usize| rows.iter().map(|(_, row)| row[c]).sum();
    rows.push(("all".into(), (0..COLUMNS.len()).map(total).collect()));
    for (depth, row) in &rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:>18.2}")).collect();
        println!("{depth:>5} {}", cells.join(" "));
    }
    let [contacts, matching, perfect, boxed] = [contacts, matching, perfect, boxed].map(per_query);
    println!(
        "contacts/query {contacts:.2} for {matching:.2} servers holding a match; oracle bounds: \
         perfect branch test {perfect:.2}, one exact box per server {boxed:.2}"
    );
    println!(
        "update round {round_bytes} B, of which parts {parts_bytes} B (+{:.3} %)",
        100.0 * share
    );
    println!(
        "per-server boxes merged within each summand down to a trailer budget \
         (b boxes = 1 + b x {per_box} B; shipped: {shipped} B):"
    );
    println!(
        "{:>24} {:>14} {:>16}",
        "budget", "contacts/query", "parts share"
    );
    let mut budget_points = (Vec::new(), Vec::new());
    for (((label, budget), branches), &n) in budgets.iter().zip(&curve).zip(&curve_contacts) {
        let share = shipped_parts(branches) as f64 / parts_free;
        let contacts = per_query(n);
        println!("{label:>24} {contacts:>14.2} {:>14.3} %", 100.0 * share);
        if *budget < usize::MAX {
            budget_points.0.push((*budget as f64, contacts));
            budget_points.1.push((*budget as f64, share));
        }
    }
    fig.push_series(format!("{name}_budget_bytes_contacts"), &budget_points.0);
    fig.push_series(format!("{name}_budget_bytes_parts_share"), &budget_points.1);
    println!(
        "within-server oracle: a server's own test is its local histograms and one of b k-d \
         boxes over its records; every branch test is exact over those:"
    );
    println!("{:>6} {:>14} {:>18}", "b", "exact boxes", "boxes in cells");
    let mut server_points = (Vec::new(), Vec::new());
    for (pair, n) in server_rows.chunks(2).zip(server_contacts.chunks(2)) {
        let (b, exact, cells) = (pair[0].0, per_query(n[0]), per_query(n[1]));
        println!("{b:>6} {exact:>14.2} {cells:>18.2}");
        server_points.0.push((b as f64, exact));
        server_points.1.push((b as f64, cells));
    }
    fig.push_series(format!("{name}_server_boxes_exact"), &server_points.0);
    fig.push_series(format!("{name}_server_boxes_cells"), &server_points.1);
    let longest = chains.iter().rposition(|&n| n > 0).unwrap_or(0);
    let chain_mean = per_query((chains.iter().enumerate()).map(|(h, &n)| h * n).sum());
    println!("longest redirect chain per query: mean {chain_mean:.2} hops, max {longest}");
    for (c, column) in COLUMNS.iter().enumerate() {
        let by_depth = rows.iter().take(levels.len()).enumerate();
        let points: Vec<(f64, f64)> = by_depth.map(|(d, (_, row))| (d as f64, row[c])).collect();
        fig.push_series(format!("{name}_{column}"), &points);
    }
    fig.push_reference(format!("{name}_contacts_vs_perfect"), contacts, perfect);
    fig.push_reference(format!("{name}_contacts_vs_server_boxes"), contacts, boxed);
    fig.push_reference(format!("{name}_parts_update_share"), share, 0.01);
    let chain_share: Vec<(f64, f64)> = (chains.iter().take(longest + 1).enumerate())
        .map(|(h, &n)| (h as f64, per_query(n)))
        .collect();
    fig.push_series(format!("{name}_longest_chain_hops"), &chain_share);
    let chain_max = longest as f64;
    fig.push_reference(
        format!("{name}_longest_chain_mean_vs_max"),
        chain_mean,
        chain_max,
    );
}

fn main() {
    banner(
        "Figure 20 — routing precision: hollow contacts by level and cause",
        "beyond the paper: what the summaries' false positives cost, and the oracle bounds",
    );
    let paper = figure_config();
    let (quick, ..) = parse_args();
    // The benchmark's `live_selective`, its default seed included.
    let benchmark = TrialConfig {
        nodes: 64,
        records_per_node: if quick { 200 } else { 2_000 },
        attrs: 8,
        buckets: 128,
        degree: 4,
        queries: if quick { 200 } else { 1_200 },
        seed: 0x5EED_0013,
        ..paper
    };
    let title = "Branch contacts, hollow contacts and wasted probes per query by hierarchy level";
    let mut fig = FigureExport::new("fig20_routing_precision", title)
        .axes("hierarchy depth of the contacted server", "per query");
    let rec = Recorder::new(65_536);
    measure(&mut fig, &rec, "paper", &paper);
    measure(&mut fig, &rec, "benchmark", &benchmark);
    fig.push_note("hollow = a Branch contact whose whole redirect subtree returned nothing; aggregation = no single server below has a matching local summary");
    fig.push_note("<name>_longest_chain_hops: share of queries by their longest redirect chain, in hops from the entry");
    fig.push_note("<name>_server_boxes_{exact,cells}: contacts per query of an oracle exact over each server's own test, its local histograms and one of b k-d boxes over its records (b = 0: histograms alone), exact or rounded outward to the parts' cells");
    fig.write_default();
    write_chrome_trace_default(&fig.figure, &rec);
}
