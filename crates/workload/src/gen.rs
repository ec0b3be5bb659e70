//! Record-set and query-set generators.

use crate::dist::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roads_records::{OwnerId, Predicate, Query, QueryId, Record, RecordId, Schema, Value};

/// The four distribution families of the paper's default workload, assigned
/// to attribute quartiles: the first quarter of the attributes is uniform,
/// then range, then Gaussian, then Pareto.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Uniform in \[0,1\].
    Uniform,
    /// Uniform in a per-node window of length 0.5.
    Range,
    /// Truncated Gaussian.
    Gaussian,
    /// Scaled/truncated Pareto.
    Pareto,
}

/// Family of attribute `idx` among `total` attributes.
pub fn family_of(idx: usize, total: usize) -> Family {
    let q = (total.max(4)) / 4;
    match idx / q.max(1) {
        0 => Family::Uniform,
        1 => Family::Range,
        2 => Family::Gaussian,
        _ => Family::Pareto,
    }
}

/// Record-generation parameters; defaults are the paper's (§V): 320 nodes,
/// 500 records each, 16 attributes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordWorkloadConfig {
    /// Number of nodes (each is a resource owner and a server).
    pub nodes: usize,
    /// Records held by each node.
    pub records_per_node: usize,
    /// Attributes per record.
    pub attrs: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RecordWorkloadConfig {
    fn default() -> Self {
        RecordWorkloadConfig {
            nodes: 320,
            records_per_node: 500,
            attrs: 16,
            seed: 0xD15C0,
        }
    }
}

/// The default simulation schema: `attrs` unit-range numeric attributes.
pub fn default_schema(attrs: usize) -> Schema {
    Schema::unit_numeric(attrs)
}

/// Independent RNG stream `index` of `seed`.
///
/// Every node (and every query) draws from its own stream instead of one
/// RNG threaded sequentially through the whole workload, so stream `i` is
/// a pure function of `(seed, i)`: growing the node count, reordering
/// generation, or generating nodes in parallel never perturbs the data of
/// the nodes already there. The seed/index pair is mixed through a
/// splitmix64 finalizer so neighbouring indices start in uncorrelated
/// states rather than `seed`, `seed+1`, ….
pub fn rng_stream(seed: u64, index: u64) -> StdRng {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Per-node distribution assignment under the default workload.
///
/// The federated setting makes servers heterogeneous: each organization's
/// data clusters differently (the paper's Fig. 9 models the same effect
/// with per-server windows as narrow as 1/320). The range family gets a
/// per-node window start (explicit in the paper); the Gaussian family a
/// per-node mean; the Pareto family a per-node tail index. Uniform
/// attributes remain globally uniform as the paper states.
fn node_distributions(cfg: &RecordWorkloadConfig, rng: &mut StdRng) -> Vec<Distribution> {
    (0..cfg.attrs)
        .map(|a| match family_of(a, cfg.attrs) {
            Family::Uniform => Distribution::Uniform,
            Family::Range => Distribution::range05(rng.gen_range(0.0..0.5)),
            Family::Gaussian => Distribution::Gaussian {
                mu: rng.gen_range(0.1..0.9),
                sigma: 0.03,
            },
            Family::Pareto => Distribution::ParetoScaled {
                alpha: rng.gen_range(1.2..3.0),
                start: rng.gen_range(0.0..0.9),
                len: 0.1,
            },
        })
        .collect()
}

/// Generate the default workload: one record set per node, each node from
/// its own [`rng_stream`].
pub fn generate_node_records(cfg: &RecordWorkloadConfig) -> Vec<Vec<Record>> {
    (0..cfg.nodes)
        .map(|node| {
            let mut rng = rng_stream(cfg.seed, node as u64);
            let dists = node_distributions(cfg, &mut rng);
            node_block(cfg, node, &dists, &mut rng)
        })
        .collect()
}

/// Node `node`'s records as one value block ([`Record::rows`]): record
/// after record, each value drawn from its attribute's distribution.
fn node_block(
    cfg: &RecordWorkloadConfig,
    node: usize,
    dists: &[Distribution],
    rng: &mut StdRng,
) -> Vec<Record> {
    let n = cfg.records_per_node;
    let mut values = Vec::with_capacity(n * dists.len());
    for _ in 0..n {
        values.extend(dists.iter().map(|d| Value::Float(d.sample(rng))));
    }
    let owner = OwnerId(node as u32);
    let heads = (node * n..(node + 1) * n).map(|id| (RecordId(id as u64), owner));
    Record::rows(dists.len(), heads, values)
}

/// The evenly spaced one-attribute record set of the live figures and the
/// tests (schema `Schema::unit_numeric(1)`): record `id = s·per_server + i`
/// belongs to owner `s` and holds `x0 = id / (n·per_server)`, so every
/// range of `[0, 1)` matches some server's records.
pub fn line_records(n: usize, per_server: usize) -> Vec<Vec<Record>> {
    let total = (n * per_server) as f64;
    (0..n)
        .map(|s| {
            (0..per_server)
                .map(|i| {
                    let id = s * per_server + i;
                    let x0 = Value::Float(id as f64 / total);
                    Record::new_unchecked(RecordId(id as u64), OwnerId(s as u32), vec![x0])
                })
                .collect()
        })
        .collect()
}

/// Generate the Fig. 9 workload: "for each of the first 8 attributes, we let
/// the resource data of each server distribute within a range of length
/// `Of/nodes`, randomly located within \[0,1\]". Remaining attributes follow
/// the default families.
pub fn generate_overlap_records(
    cfg: &RecordWorkloadConfig,
    overlap_factor: f64,
) -> Vec<Vec<Record>> {
    let window = overlap_factor / cfg.nodes as f64;
    let confined = cfg.attrs.min(8);
    (0..cfg.nodes)
        .map(|node| {
            let mut rng = rng_stream(cfg.seed ^ 0x0F0F, node as u64);
            let default_dists = node_distributions(cfg, &mut rng);
            let dists: Vec<Distribution> = (0..cfg.attrs)
                .map(|a| {
                    if a < confined {
                        Distribution::Range {
                            start: rng.gen_range(0.0..(1.0 - window).max(f64::MIN_POSITIVE)),
                            len: window,
                        }
                    } else {
                        default_dists[a]
                    }
                })
                .collect();
            node_block(cfg, node, &dists, &mut rng)
        })
        .collect()
}

/// Query-generation parameters; defaults are the paper's: 500 queries of 6
/// dimensions, each a range of length 0.25.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryWorkloadConfig {
    /// Number of queries.
    pub count: usize,
    /// Dimensions per query.
    pub dims: usize,
    /// Range length per dimension.
    pub range_len: f64,
    /// Number of nodes (for start-node assignment).
    pub nodes: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryWorkloadConfig {
    fn default() -> Self {
        QueryWorkloadConfig {
            count: 500,
            dims: 6,
            range_len: 0.25,
            nodes: 320,
            seed: 0x9E12,
        }
    }
}

/// Pick `dims` distinct attribute indexes matching the paper's composition:
/// for 6 dims, "two on uniform attributes, two on range attributes, one each
/// on Gaussian and Pareto"; other dimensionalities cycle through the
/// families in that ratio (U,R,G,P,U,R,…).
fn pick_query_attrs(dims: usize, attrs: usize, rng: &mut StdRng) -> Vec<usize> {
    let q = (attrs / 4).max(1);
    let family_range = |f: usize| -> (usize, usize) {
        let start = f * q;
        let end = if f == 3 { attrs } else { (f + 1) * q };
        (start, end.min(attrs))
    };
    // Family order for successive dims: U,R,G,P,U,R,G,P,…
    let mut chosen = Vec::with_capacity(dims);
    let mut used = vec![false; attrs];
    for d in 0..dims {
        let f = d % 4;
        let (lo, hi) = family_range(f);
        // Pick an unused attribute from the family; fall back to any unused.
        let candidates: Vec<usize> = (lo..hi).filter(|&a| !used[a]).collect();
        let pick = if candidates.is_empty() {
            let any: Vec<usize> = (0..attrs).filter(|&a| !used[a]).collect();
            if any.is_empty() {
                break;
            }
            any[rng.gen_range(0..any.len())]
        } else {
            candidates[rng.gen_range(0..candidates.len())]
        };
        used[pick] = true;
        chosen.push(pick);
    }
    chosen
}

/// Generate `(query, start_node)` pairs under the paper's default
/// composition, each query from its own [`rng_stream`].
pub fn generate_queries(schema: &Schema, cfg: &QueryWorkloadConfig) -> Vec<(Query, usize)> {
    (0..cfg.count)
        .map(|i| {
            let mut rng = rng_stream(cfg.seed, i as u64);
            let attrs = pick_query_attrs(cfg.dims, schema.len(), &mut rng);
            let preds = attrs
                .iter()
                .map(|&a| {
                    let def = schema.def(roads_records::AttrId(a as u16));
                    let span = def.hi - def.lo;
                    let len = cfg.range_len * span;
                    let start = def.lo + rng.gen_range(0.0..(span - len).max(f64::MIN_POSITIVE));
                    Predicate::Range {
                        attr: roads_records::AttrId(a as u16),
                        lo: start,
                        hi: start + len,
                    }
                })
                .collect();
            let start_node = rng.gen_range(0..cfg.nodes.max(1));
            (Query::new(QueryId(i as u64), preds), start_node)
        })
        .collect()
}

/// Queries with an explicit dimensionality (Fig. 6/7 sweep), keeping every
/// other parameter at the paper defaults.
pub fn queries_with_dims(
    schema: &Schema,
    dims: usize,
    count: usize,
    nodes: usize,
    seed: u64,
) -> Vec<(Query, usize)> {
    generate_queries(
        schema,
        &QueryWorkloadConfig {
            count,
            dims,
            nodes,
            seed,
            ..QueryWorkloadConfig::default()
        },
    )
}

/// Exact selectivity of `query` over `records` (fraction of matching
/// records).
pub fn exact_selectivity(query: &Query, records: &[&Record]) -> f64 {
    if records.is_empty() {
        return 0.0;
    }
    let hits = records.iter().filter(|r| query.matches(r)).count();
    hits as f64 / records.len() as f64
}

/// Build query groups calibrated to target selectivities (Fig. 11: 0.01 %,
/// 0.03 %, 0.1 %, 0.3 %, 1 %, 3 %; 200 queries per group).
///
/// Each query is centered on a uniformly chosen record (so it always has at
/// least one hit) and its per-dimension range length is scaled by binary
/// search until the measured selectivity lands within ±30 % of the target
/// (or the search exhausts its iterations — the closest scale wins).
pub fn selectivity_query_groups(
    schema: &Schema,
    records: &[Vec<Record>],
    targets_pct: &[f64],
    per_group: usize,
    dims: usize,
    seed: u64,
) -> Vec<(f64, Vec<Query>)> {
    let all: Vec<&Record> = records.iter().flatten().collect();
    let mut next_qid = 0u64;
    targets_pct
        .iter()
        .map(|&target_pct| {
            let target = target_pct / 100.0;
            let queries = (0..per_group)
                .map(|_| {
                    let mut rng = rng_stream(seed, next_qid);
                    let center = all[rng.gen_range(0..all.len())];
                    let attrs = pick_query_attrs(dims, schema.len(), &mut rng);
                    let q =
                        calibrate_query(schema, &all, center, &attrs, target, QueryId(next_qid));
                    next_qid += 1;
                    q
                })
                .collect();
            (target_pct, queries)
        })
        .collect()
}

/// Binary-search a per-dimension half-width multiplier to approach the
/// target selectivity for a query centered on `center`.
fn calibrate_query(
    schema: &Schema,
    all: &[&Record],
    center: &Record,
    attrs: &[usize],
    target: f64,
    qid: QueryId,
) -> Query {
    let build = |scale: f64| -> Query {
        let preds = attrs
            .iter()
            .map(|&a| {
                let id = roads_records::AttrId(a as u16);
                let def = schema.def(id);
                let c = center.get_f64(id).unwrap_or((def.lo + def.hi) / 2.0);
                let half = scale * (def.hi - def.lo) / 2.0;
                Predicate::Range {
                    attr: id,
                    lo: (c - half).max(def.lo),
                    hi: (c + half).min(def.hi),
                }
            })
            .collect();
        Query::new(qid, preds)
    };
    // Selectivity grows monotonically with scale; search scale in (0, 1].
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    let mut best = build(0.5);
    let mut best_err = f64::INFINITY;
    for _ in 0..18 {
        let mid = (lo + hi) / 2.0;
        let q = build(mid);
        let sel = exact_selectivity(&q, all);
        let err = (sel - target).abs();
        if err < best_err {
            best_err = err;
            best = q;
        }
        if (sel - target).abs() / target.max(1e-12) < 0.3 {
            break;
        }
        if sel < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> RecordWorkloadConfig {
        RecordWorkloadConfig {
            nodes: 8,
            records_per_node: 50,
            attrs: 16,
            seed: 7,
        }
    }

    #[test]
    fn family_quartiles() {
        assert_eq!(family_of(0, 16), Family::Uniform);
        assert_eq!(family_of(3, 16), Family::Uniform);
        assert_eq!(family_of(4, 16), Family::Range);
        assert_eq!(family_of(8, 16), Family::Gaussian);
        assert_eq!(family_of(12, 16), Family::Pareto);
        assert_eq!(family_of(15, 16), Family::Pareto);
    }

    #[test]
    fn record_counts_and_ownership() {
        let cfg = small_cfg();
        let sets = generate_node_records(&cfg);
        assert_eq!(sets.len(), 8);
        for (node, set) in sets.iter().enumerate() {
            assert_eq!(set.len(), 50);
            for r in set {
                assert_eq!(r.owner, OwnerId(node as u32));
                assert_eq!(r.arity(), 16);
                for v in r.values() {
                    let f = v.as_f64().unwrap();
                    assert!((0.0..=1.0).contains(&f));
                }
            }
        }
        // Globally unique record ids.
        let mut ids: Vec<u64> = sets.iter().flatten().map(|r| r.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8 * 50);
    }

    #[test]
    fn deterministic_generation() {
        let cfg = small_cfg();
        let a = generate_node_records(&cfg);
        let b = generate_node_records(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn node_streams_are_independent_of_node_count() {
        // Stream-per-node means node k's records are a pure function of
        // (seed, k): growing the federation must not rewrite the data of
        // the nodes already in it.
        let big = generate_node_records(&small_cfg());
        let small = generate_node_records(&RecordWorkloadConfig {
            nodes: 3,
            ..small_cfg()
        });
        assert_eq!(&big[..3], &small[..]);
        // (No such property for the overlap workload: its window length is
        // overlap_factor / nodes, so the distributions themselves depend on
        // the node count.)
    }

    #[test]
    fn query_streams_are_independent_of_query_count() {
        let schema = default_schema(16);
        let cfg = QueryWorkloadConfig {
            count: 40,
            nodes: 8,
            seed: 77,
            ..Default::default()
        };
        let big = generate_queries(&schema, &cfg);
        let small = generate_queries(&schema, &QueryWorkloadConfig { count: 15, ..cfg });
        assert_eq!(&big[..15], &small[..]);
    }

    #[test]
    fn rng_streams_diverge() {
        // Adjacent indices (and adjacent seeds) must not produce
        // correlated streams.
        let mut a = rng_stream(42, 0);
        let mut b = rng_stream(42, 1);
        let mut c = rng_stream(43, 0);
        let da: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let db: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        let dc: Vec<u64> = (0..8).map(|_| c.gen()).collect();
        assert_ne!(da, db);
        assert_ne!(da, dc);
        assert_ne!(db, dc);
    }

    #[test]
    fn overlap_confines_first_eight_attrs() {
        let cfg = small_cfg();
        let of = 2.0;
        let window = of / cfg.nodes as f64;
        let sets = generate_overlap_records(&cfg, of);
        for set in &sets {
            for a in 0..8u16 {
                let vals: Vec<f64> = set
                    .iter()
                    .map(|r| r.get_f64(roads_records::AttrId(a)).unwrap())
                    .collect();
                let (min, max) = vals
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
                assert!(
                    max - min <= window + 1e-9,
                    "attr {a}: spread {} > window {window}",
                    max - min
                );
            }
        }
    }

    #[test]
    fn default_queries_have_six_dims_of_right_length() {
        let schema = default_schema(16);
        let qs = generate_queries(
            &schema,
            &QueryWorkloadConfig {
                count: 50,
                nodes: 8,
                ..Default::default()
            },
        );
        assert_eq!(qs.len(), 50);
        for (q, start) in &qs {
            assert_eq!(q.dimensionality(), 6);
            assert!(*start < 8);
            for p in q.predicates() {
                if let Predicate::Range { lo, hi, .. } = p {
                    assert!((hi - lo - 0.25).abs() < 1e-9);
                    assert!(*lo >= 0.0 && *hi <= 1.0 + 1e-9);
                }
            }
            // No duplicate attributes within a query.
            let mut attrs: Vec<_> = q.attrs().collect();
            attrs.sort();
            attrs.dedup();
            assert_eq!(attrs.len(), 6);
        }
    }

    #[test]
    fn dims_sweep_produces_requested_dims() {
        let schema = default_schema(16);
        for dims in 2..=8 {
            let qs = queries_with_dims(&schema, dims, 10, 8, 3);
            for (q, _) in &qs {
                assert_eq!(q.dimensionality(), dims);
            }
        }
    }

    #[test]
    fn query_family_composition_default() {
        let schema = default_schema(16);
        let qs = generate_queries(
            &schema,
            &QueryWorkloadConfig {
                count: 20,
                nodes: 4,
                ..Default::default()
            },
        );
        for (q, _) in &qs {
            let mut fam = [0usize; 4];
            for a in q.attrs() {
                match family_of(a.index(), 16) {
                    Family::Uniform => fam[0] += 1,
                    Family::Range => fam[1] += 1,
                    Family::Gaussian => fam[2] += 1,
                    Family::Pareto => fam[3] += 1,
                }
            }
            assert_eq!(fam, [2, 2, 1, 1], "two uniform, two range, one each G/P");
        }
    }

    #[test]
    fn selectivity_calibration_reaches_targets() {
        let cfg = RecordWorkloadConfig {
            nodes: 16,
            records_per_node: 200,
            attrs: 16,
            seed: 5,
        };
        let records = generate_node_records(&cfg);
        let schema = default_schema(16);
        let groups = selectivity_query_groups(&schema, &records, &[1.0, 3.0], 5, 6, 11);
        let all: Vec<&Record> = records.iter().flatten().collect();
        for (target_pct, queries) in &groups {
            assert_eq!(queries.len(), 5);
            for q in queries {
                let sel = exact_selectivity(q, &all) * 100.0;
                // Centered on a real record → never empty.
                assert!(sel > 0.0);
                // Within a factor of ~3 of the target (coarse but monotone).
                assert!(
                    sel / target_pct < 4.0 && target_pct / sel.max(1e-9) < 4.0,
                    "target {target_pct}% got {sel}%"
                );
            }
        }
    }

    #[test]
    fn exact_selectivity_empty_records() {
        let schema = default_schema(4);
        let q = Query::new(QueryId(0), vec![]);
        assert_eq!(exact_selectivity(&q, &[]), 0.0);
        let _ = schema;
    }
}
