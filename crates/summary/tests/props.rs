//! Property tests: the summary layer's core invariants.
//!
//! The one invariant everything in ROADS rests on: summaries are
//! *conservative* — a summary may claim a match that is not there (false
//! positive), but it must never hide one that is (false negative). A false
//! negative would silently drop resources from the federation.

use proptest::prelude::*;
use roads_records::{
    AttrId, OwnerId, Predicate, Query, QueryId, Record, RecordId, Schema, Value, WireSize,
};
use roads_summary::{
    AttributeSummary, BloomFilter, CategoricalMode, Histogram, Summary, SummaryConfig,
    SummaryVerdict, ValueSet,
};

/// `Histogram::bucket_of` as it read before it became one saturating
/// cast, kept verbatim: the oracle the kernel is pinned to.
fn bucket_of_oracle(lo: f64, hi: f64, m: usize, v: f64) -> usize {
    if !v.is_finite() {
        return if v > 0.0 { m - 1 } else { 0 };
    }
    let frac = (v - lo) / (hi - lo);
    ((frac * m as f64).floor() as isize).clamp(0, m as isize - 1) as usize
}

/// Domains of finite width where rounding bites differently: a negative
/// lower bound, timestamps, a width far below the bounds' magnitude, one
/// near the top of the exponent range, and anything in between.
fn domain() -> impl Strategy<Value = (f64, f64)> {
    prop_oneof![
        Just((0.0, 1.0)),
        Just((0.0, 2e12)),
        Just((-1e300, 1e300)),
        (-1e6f64..0.0, 1e-3f64..1e6).prop_map(|(lo, width)| (lo, lo + width)),
        (-1e3f64..1e3).prop_map(|lo| (lo, lo + 1e-9)),
        (-1e9f64..1e9, 1e-6f64..1e13).prop_map(|(lo, width)| (lo, lo + width)),
    ]
}

/// Where the kernel could slip for `m` buckets over `[lo, hi]`: both ways
/// of computing each bucket edge with two ulps either side (every edge up
/// to 2 048 buckets, a comb of them starting at `phase` beyond), places
/// `outside` and inside the domain as fractions of its width, the
/// specials, and `raw` bit patterns.
fn probes(lo: f64, hi: f64, m: usize, phase: usize, outside: &[f64], raw: &[f64]) -> Vec<f64> {
    let width = hi - lo;
    let stride = m.div_ceil(2048);
    let mut out = Vec::new();
    for k in (phase % stride..=m).step_by(stride) {
        for edge in [
            lo + width * (k as f64 / m as f64),
            lo + width / m as f64 * k as f64,
        ] {
            let (down, up) = (edge.next_down(), edge.next_up());
            out.extend([down.next_down(), down, edge, up, up.next_up()]);
        }
    }
    out.extend(outside.iter().map(|t| lo + width * t));
    out.extend([0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
    out.extend([f64::MIN_POSITIVE, f64::MAX, f64::MIN, lo, hi]);
    out.extend(raw);
    out
}

/// Bucket counts where the cell grid bites differently: fewer buckets than
/// cells, one bucket per cell, counts that leave the last cell ragged
/// (100, the paper's 1 000), many buckets per cell.
const BUCKET_COUNTS: [usize; 7] = [1, 7, 16, 100, 128, 1_000, 65_536];

/// The occupied range as a scan finds it: the oracle for the tracked one.
fn scanned(h: &Histogram) -> Option<(usize, usize)> {
    let first = h.buckets().iter().position(|&c| c > 0)?;
    Some((first, h.buckets().iter().rposition(|&c| c > 0)?))
}

/// Two numeric attributes (one over a domain that is not the unit one) and
/// a categorical one between them.
fn mixed_schema() -> Schema {
    Schema::new(vec![
        roads_records::AttrDef::unit("x"),
        roads_records::AttrDef::categorical("c"),
        roads_records::AttrDef::numeric("y", -50.0, 50.0),
    ])
    .unwrap()
}

const CATS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// One row of the mixed schema and where it lives: `path` leads from the
/// root of an aggregation tree (up to 9 children a node, depth ≤ 3) to the
/// node the row is local to.
type Placed = ((f64, usize, f64), Vec<usize>);

fn placed_rows() -> impl Strategy<Value = Vec<Placed>> {
    // Values may lie a little outside their domain, as stale exports do.
    let row = (-0.2f64..1.2, 0usize..CATS.len(), -60.0f64..60.0);
    prop::collection::vec((row, prop::collection::vec(0usize..9, 0..=3)), 1..80)
}

fn mixed_record(id: usize, (x, c, y): (f64, usize, f64)) -> Record {
    let values = vec![Value::Float(x), Value::Cat(CATS[c].into()), Value::Float(y)];
    Record::new_unchecked(RecordId(id as u64), OwnerId(0), values)
}

/// The id a node of the aggregation tree tags its box with: its path,
/// read as a number in base 300, so the tags take one to five varint bytes.
fn tag(path: &[usize]) -> u32 {
    (path.iter()).fold(1u32, |t, &c| t.wrapping_mul(300).wrapping_add(c as u32))
}

/// Bytes of `t` as a varint, 7 bits a byte.
fn varint(t: u32) -> usize {
    (1..=5).find(|b| u64::from(t) < 1 << (7 * b)).unwrap()
}

/// A check of one node of an aggregation tree: its branch summary, the
/// records below it and the tags of its non-empty summands.
type Check<'a> = dyn FnMut(&Summary, &[Record], &[u32]) + 'a;

/// Aggregate the subtree at `path` bottom-up through `Summary::branch_of`,
/// handing every node's summary to `check`.
fn aggregate_tree(
    cfg: &SummaryConfig,
    rows: &[Placed],
    path: &[usize],
    check: &mut Check<'_>,
) -> (Summary, Vec<Record>) {
    let schema = mixed_schema();
    let mut below: Vec<Record> = (rows.iter().enumerate())
        .filter(|(_, (_, p))| p == path)
        .map(|(id, (row, _))| mixed_record(id, *row))
        .collect();
    let local = Summary::from_records(&schema, cfg, &below);
    let mut children = Vec::new();
    for c in 0..9 {
        let child: Vec<usize> = path.iter().copied().chain([c]).collect();
        if rows.iter().any(|(_, p)| p.starts_with(&child)) {
            let (summary, records) = aggregate_tree(cfg, rows, &child, check);
            children.push((tag(&child), summary));
            below.extend(records);
        }
    }
    let kids = children.iter().map(|(t, s)| (*t, s));
    let branch = Summary::branch_of(tag(path), &local, kids).unwrap();
    // One box per non-empty server below, as each summand brings them (a
    // child's parts, or its one box), merged within each summand while the
    // trailer exceeds the budget and never below one box per summand. A
    // single box says nothing the attributes do not, so it is not kept.
    let summands: Vec<u32> = (!local.is_empty())
        .then(|| tag(path))
        .into_iter()
        .chain(
            children
                .iter()
                .filter(|(_, c)| !c.is_empty())
                .map(|(t, _)| *t),
        )
        .collect();
    let brought = usize::from(!local.is_empty())
        + (children.iter())
            .map(|(_, c)| c.part_count().max(usize::from(!c.is_empty())))
            .sum::<usize>();
    let (boxes, bytes, budget) = (
        branch.part_count(),
        branch.parts_bytes(),
        branch.parts_budget(),
    );
    if boxes == 0 {
        assert!(
            brought < 2 || summands.len() == 1,
            "{brought} boxes, {summands:?}"
        );
        assert_eq!(bytes, 0);
    } else {
        assert!(
            summands.len() <= boxes && boxes <= brought,
            "{boxes} of {brought}"
        );
        // Merging stops at the first fit: one box more did not fit.
        assert!(boxes == brought || bytes > budget || bytes + 7 > budget);
        assert!(
            bytes <= budget || boxes == summands.len(),
            "{bytes} B over {budget} B"
        );
        let extra = boxes - summands.len();
        let least = 1 + summands.iter().map(|&t| varint(t) + 2).sum::<usize>() + 3 * extra;
        assert!(least <= bytes && bytes <= least + 4 * extra);
        // Every box holds a query without predicates: each tag read once.
        let all = branch.parts_holding(&Query::new(QueryId(0), Vec::new()));
        assert_eq!(all.as_deref(), Some(&summands[..]));
    }
    if children.is_empty() {
        assert_eq!(
            branch, local,
            "a leaf's branch summary is its local summary"
        );
    }
    check(&branch, &below, &summands);
    (branch, below)
}

/// A predicate about `row` or about nothing: kinds 0–4 hold for `row`,
/// the rest are arbitrary, out of the domain, inverted, NaN-bounded, out
/// of the schema or of the wrong kind for their attribute.
fn predicate(kind: usize, a: f64, w: f64, (x, c, y): (f64, usize, f64)) -> Predicate {
    let range = |attr: u16, lo: f64, hi: f64| Predicate::Range {
        attr: AttrId(attr),
        lo,
        hi,
    };
    match kind {
        0 => range(0, x - w * a, x + w * (1.0 - a)),
        1 => range(2, y - 100.0 * w * a, y + 100.0 * w * (1.0 - a)),
        2 => Predicate::Eq {
            attr: AttrId(0),
            value: Value::Float(x),
        },
        3 => Predicate::Eq {
            attr: AttrId(1),
            value: Value::Cat(CATS[c].into()),
        },
        4 => Predicate::OneOf {
            attr: AttrId(1),
            values: vec!["zz".into(), CATS[c].into()],
        },
        5 => range(0, a, a + w),
        6 => range(2, 100.0 * a - 50.0, 100.0 * (a + w) - 50.0),
        7 => range(0, 1.5 + a, 2.0 + a),
        8 => range(2, 10.0 + w, 10.0 - w - f64::MIN_POSITIVE),
        9 => range(0, f64::NAN, a),
        10 => range(7, 0.0, 1.0),
        11 => range(1, 0.0, 1.0),
        13 => Predicate::Eq {
            attr: AttrId(1),
            value: Value::Float(x),
        },
        14 => Predicate::Eq {
            attr: AttrId(2),
            value: Value::Cat(CATS[c].into()),
        },
        15 => range(0, x, x),
        _ => Predicate::OneOf {
            attr: AttrId(0),
            values: vec!["a".into()],
        },
    }
}

fn unit_records(values: &[Vec<f64>]) -> Vec<Record> {
    values
        .iter()
        .enumerate()
        .map(|(i, vs)| {
            Record::new_unchecked(
                RecordId(i as u64),
                OwnerId(0),
                vs.iter().map(|&v| Value::Float(v)).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn histogram_no_false_negatives(
        values in prop::collection::vec(0.0f64..1.0, 1..100),
        lo in 0.0f64..1.0,
        w in 0.0f64..1.0,
        m in 1usize..64,
    ) {
        let h = Histogram::from_values(0.0, 1.0, m, values.iter().copied());
        let hi = (lo + w).min(1.0);
        let any_in_range = values.iter().any(|&v| lo <= v && v <= hi);
        if any_in_range {
            prop_assert!(h.may_match_range(lo, hi), "false negative at m={m}");
        }
    }

    #[test]
    fn histogram_merge_equals_union(
        a in prop::collection::vec(0.0f64..1.0, 0..50),
        b in prop::collection::vec(0.0f64..1.0, 0..50),
        m in 1usize..32,
    ) {
        let mut ha = Histogram::from_values(0.0, 1.0, m, a.iter().copied());
        let hb = Histogram::from_values(0.0, 1.0, m, b.iter().copied());
        ha.merge(&hb).unwrap();
        let union = Histogram::from_values(0.0, 1.0, m, a.iter().chain(b.iter()).copied());
        prop_assert_eq!(ha.buckets(), union.buckets());
    }

    #[test]
    fn histogram_merge_commutative(
        a in prop::collection::vec(0.0f64..1.0, 0..40),
        b in prop::collection::vec(0.0f64..1.0, 0..40),
    ) {
        let base_a = Histogram::from_values(0.0, 1.0, 16, a.iter().copied());
        let base_b = Histogram::from_values(0.0, 1.0, 16, b.iter().copied());
        let mut ab = base_a.clone();
        ab.merge(&base_b).unwrap();
        let mut ba = base_b.clone();
        ba.merge(&base_a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn histogram_estimate_bounded_by_total(
        values in prop::collection::vec(0.0f64..1.0, 0..80),
        lo in 0.0f64..1.0,
        w in 0.0f64..1.0,
    ) {
        let h = Histogram::from_values(0.0, 1.0, 20, values.iter().copied());
        let est = h.estimate_count(lo, lo + w);
        prop_assert!(est >= -1e-9);
        prop_assert!(est <= h.total() as f64 + 1e-9);
    }

    #[test]
    fn bloom_no_false_negatives(keys in prop::collection::vec("[a-z0-9]{1,12}", 1..60)) {
        let mut f = BloomFilter::new(2048, 4);
        for k in &keys {
            f.insert(k);
        }
        for k in &keys {
            prop_assert!(f.contains(k));
        }
    }

    #[test]
    fn bloom_merge_superset(
        a in prop::collection::vec("[a-z]{1,8}", 0..30),
        b in prop::collection::vec("[a-z]{1,8}", 0..30),
    ) {
        let mut fa = BloomFilter::new(1024, 3);
        let mut fb = BloomFilter::new(1024, 3);
        for k in &a { fa.insert(k); }
        for k in &b { fb.insert(k); }
        fa.merge(&fb).unwrap();
        for k in a.iter().chain(b.iter()) {
            prop_assert!(fa.contains(k));
        }
    }

    #[test]
    fn value_set_merge_is_union(
        a in prop::collection::vec("[a-z]{1,6}", 0..20),
        b in prop::collection::vec("[a-z]{1,6}", 0..20),
    ) {
        let mut sa = ValueSet::from_values(a.clone());
        let sb = ValueSet::from_values(b.clone());
        sa.merge(&sb);
        for k in a.iter().chain(b.iter()) {
            prop_assert!(sa.contains(k));
        }
        let expected: std::collections::BTreeSet<&String> = a.iter().chain(b.iter()).collect();
        prop_assert_eq!(sa.len(), expected.len());
    }

    #[test]
    fn summary_no_false_negatives_multidim(
        rows in prop::collection::vec(
            prop::collection::vec(0.0f64..1.0, 3..=3), 1..60),
        q0 in (0.0f64..1.0, 0.0f64..0.5),
        q1 in (0.0f64..1.0, 0.0f64..0.5),
        buckets in 2usize..128,
    ) {
        let schema = Schema::unit_numeric(3);
        let records = unit_records(&rows);
        let cfg = SummaryConfig::with_buckets(buckets);
        let summary = Summary::from_records(&schema, &cfg, &records);
        let query = Query::new(QueryId(0), vec![
            Predicate::Range { attr: AttrId(0), lo: q0.0, hi: (q0.0 + q0.1).min(1.0) },
            Predicate::Range { attr: AttrId(2), lo: q1.0, hi: (q1.0 + q1.1).min(1.0) },
        ]);
        if records.iter().any(|r| query.matches(r)) {
            prop_assert!(summary.may_match(&query), "conjunctive false negative");
        }
    }

    #[test]
    fn summary_merge_conservative_over_parts(
        rows_a in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 2..=2), 1..30),
        rows_b in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 2..=2), 1..30),
        lo in 0.0f64..1.0,
        w in 0.0f64..0.5,
    ) {
        let schema = Schema::unit_numeric(2);
        let cfg = SummaryConfig::with_buckets(32);
        let a = Summary::from_records(&schema, &cfg, &unit_records(&rows_a));
        let b = Summary::from_records(&schema, &cfg, &unit_records(&rows_b));
        let merged = Summary::aggregate(&schema, &cfg, [&a, &b]).unwrap();
        let query = Query::new(QueryId(0), vec![Predicate::Range {
            attr: AttrId(0), lo, hi: (lo + w).min(1.0),
        }]);
        // Anything either part may match, the merge may match too — the
        // bottom-up aggregation can only widen, never narrow.
        if a.may_match(&query) || b.may_match(&query) {
            prop_assert!(merged.may_match(&query));
        }
        prop_assert_eq!(merged.record_count(), a.record_count() + b.record_count());
    }

    #[test]
    fn summary_wire_size_constant_in_rows(
        rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 2..=2), 1..50),
    ) {
        let schema = Schema::unit_numeric(2);
        let cfg = SummaryConfig::with_buckets(64);
        let one = Summary::from_records(&schema, &cfg, &unit_records(&rows[..1]));
        let all = Summary::from_records(&schema, &cfg, &unit_records(&rows));
        prop_assert_eq!(one.wire_size(), all.wire_size());
    }

    /// Every fold and every `may_match` runs this one function, and every
    /// count the benchmark repeats to the last digit rests on no value
    /// changing its bucket: pinned against the old formula, not argued.
    #[test]
    fn bucket_of_equals_the_floor_and_clamp_formula(
        (lo, hi) in domain(),
        m in 1usize..=65_536,
        phase in 0usize..32,
        outside in prop::collection::vec(-2.0f64..3.0, 0..16),
        raw in prop::collection::vec(any::<f64>(), 0..16),
    ) {
        let h = Histogram::new(lo, hi, m);
        for v in probes(lo, hi, m, phase, &outside, &raw) {
            prop_assert_eq!(
                h.bucket_of(v),
                bucket_of_oracle(lo, hi, m, v),
                "[{:?}, {:?}] m = {} v = {:?} ({:#x})", lo, hi, m, v, v.to_bits()
            );
        }
    }

    /// The bucket formula nests across power-of-two resolutions: a value's
    /// bucket at half the resolution is its bucket's parent.
    #[test]
    fn bucket_of_nests_across_power_of_two_resolutions(
        (lo, hi) in domain(),
        exp in 1u32..=16,
        phase in 0usize..32,
        outside in prop::collection::vec(-2.0f64..3.0, 0..16),
        raw in prop::collection::vec(any::<f64>(), 0..16),
    ) {
        let m = 1usize << exp;
        let (fine, coarse) = (Histogram::new(lo, hi, m), Histogram::new(lo, hi, m / 2));
        for v in probes(lo, hi, m, phase, &outside, &raw) {
            prop_assert_eq!(
                coarse.bucket_of(v),
                fine.bucket_of(v) >> 1,
                "[{:?}, {:?}] m = {} v = {:?}", lo, hi, m, v
            );
        }
    }

    /// The invariant everything rests on, for the aggregate `branch_of`
    /// builds: at every node of a random aggregation tree, a query some
    /// record below the node matches is never refused — not by the merged
    /// attributes and not by the parts.
    #[test]
    fn branch_of_never_refuses_a_query_some_record_matches(
        rows in placed_rows(),
        m in 0usize..BUCKET_COUNTS.len(),
        bloom in any::<bool>(),
        queries in prop::collection::vec(
            (0usize..80, prop::collection::vec((0usize..13, 0.0f64..1.0, 0.0f64..0.3), 0..5)),
            1..24,
        ),
    ) {
        let cfg = SummaryConfig {
            buckets: BUCKET_COUNTS[m],
            categorical: match bloom {
                true => CategoricalMode::Bloom { bits: 512, hashes: 3 },
                false => CategoricalMode::Enumerate,
            },
        };
        let queries: Vec<Query> = (queries.iter())
            .map(|(pick, preds)| {
                let about = rows[pick % rows.len()].0;
                let preds = preds.iter().map(|&(kind, a, w)| predicate(kind, a, w, about));
                Query::new(QueryId(0), preds.collect())
            })
            .collect();
        let mut check = |summary: &Summary, below: &[Record], summands: &[u32]| {
            for q in &queries {
                let says = summary.may_match(q);
                let decided = matches!(summary.decide(q), SummaryVerdict::Match { .. });
                assert_eq!(decided, says, "decide and may_match disagree on {q:?}");
                let matched = below.iter().any(|r| q.matches(r));
                assert!(says || !matched, "false negative: {q:?} over {} records", below.len());
                // The parts that hold it name distinct summands, in order.
                if let Some(tags) = summary.parts_holding(q) {
                    let mut at = summands.iter();
                    assert!(tags.iter().all(|t| at.any(|s| s == t)), "{tags:?} of {summands:?}");
                }
            }
        };
        let (root, below) = &aggregate_tree(&cfg, &rows, &[], &mut check);
        // Any other way of changing an aggregate drops its parts: they
        // vouch only for the summands they were taken from.
        let other = Summary::from_records(&mixed_schema(), &cfg, below);
        for change in 0..4 {
            let mut s = root.clone();
            let changed = match change {
                0 => s.merge(&other).is_ok(),
                1 => { s.add_record(&below[0]); true }
                2 => s.remove_record(&below[0]),
                _ => s.replace_record(&below[0], &below[below.len() - 1]),
            };
            prop_assert!(!changed || s.part_count() == 0, "change {} kept the parts", change);
            prop_assert!(changed || s == *root, "a refused change is no change");
        }
        // On the wire the parts are a trailer after the attributes (its
        // bytes are checked at every node above), and only the parts.
        let mut flat = root.clone();
        flat.merge(&Summary::empty(&mixed_schema(), &cfg)).unwrap();
        prop_assert_eq!(&flat, &root.without_parts());
        prop_assert_eq!(root.wire_size(), flat.wire_size() + root.parts_bytes());
    }

    /// The occupied range a histogram tracks is the one a scan finds, after
    /// any interleaving of the operations that move it — an extreme bucket
    /// emptied, a counter saturated and a removal refused included — and
    /// its cells are the ones that hold its ends.
    #[test]
    fn histogram_tracks_its_occupied_range_exactly(
        m in 0usize..BUCKET_COUNTS.len(),
        ops in prop::collection::vec((0usize..8, -0.1f64..1.1, -0.1f64..1.1), 1..60),
    ) {
        let mut h = Histogram::new(0.0, 1.0, BUCKET_COUNTS[m]);
        let mut saturated_once = false;
        for (op, v, w) in ops {
            let m = h.bucket_count();
            match op {
                // Insert, twice as often as anything else, so that
                // removals find something to remove.
                0 | 1 => h.insert(v),
                2 => { h.remove(v); }
                // Empty an extreme bucket, whatever it holds.
                3 => if let Some((first, _)) = scanned(&h) {
                    let at = (first as f64 + 0.5) / m as f64;
                    while !h.is_saturated() && h.remove(at) {}
                },
                4 => h.merge(&Histogram::from_values(0.0, 1.0, m, [v, w])).unwrap(),
                5 => {
                    let other = Histogram::from_values(0.0, 1.0, m, [v, w, w]);
                    h.merge(&other).unwrap();
                    prop_assert!(h.unmerge(&other) || h.is_saturated());
                }
                6 => h.clear(),
                // Double until a counter saturates: removals then refuse.
                7 if !saturated_once => {
                    saturated_once = true;
                    h.insert(v);
                    for _ in 0..33 {
                        let twin = h.clone();
                        h.merge(&twin).unwrap();
                    }
                    prop_assert!(h.is_saturated() && !h.remove(v));
                }
                _ => prop_assert!(!h.unmerge(&Histogram::from_values(0.0, 2.0, m, [v]))),
            }
            let m = h.bucket_count();
            prop_assert_eq!(h.occupied(), scanned(&h), "after op {}", op);
            prop_assert_eq!(h.is_empty(), scanned(&h).is_none());
            // A cell is a run of `w` buckets, `w` the least power of two
            // that covers the histogram in at most 16 cells; the occupied
            // cells are those holding the first and the last occupied
            // bucket.
            let (cells, w) = (Histogram::CELLS, h.cell_buckets());
            prop_assert!(w.is_power_of_two() && m.div_ceil(w) <= cells);
            prop_assert!(w == 1 || m.div_ceil(w / 2) > cells, "{} buckets a cell is not least", w);
            match (h.occupied_cells(), scanned(&h)) {
                (None, None) => {}
                (Some((c_lo, c_hi)), Some((first, last))) => {
                    prop_assert!(c_lo * w <= first && first < (c_lo + 1) * w);
                    prop_assert!(c_hi * w <= last && last < (c_hi + 1) * w && c_hi < cells);
                }
                other => prop_assert!(false, "cells and scan disagree: {:?}", other),
            }
        }
    }

    #[test]
    fn bloom_mode_summary_no_false_negatives(
        cats in prop::collection::vec("[a-z]{1,8}", 1..40),
    ) {
        let schema = Schema::new(vec![roads_records::AttrDef::categorical("c")]).unwrap();
        let cfg = SummaryConfig {
            categorical: CategoricalMode::Bloom { bits: 1024, hashes: 4 },
            ..SummaryConfig::with_buckets(8)
        };
        let records: Vec<Record> = cats
            .iter()
            .enumerate()
            .map(|(i, c)| Record::new_unchecked(
                RecordId(i as u64), OwnerId(0), vec![Value::Cat(c.clone().into())]))
            .collect();
        let summary = Summary::from_records(&schema, &cfg, &records);
        for c in &cats {
            let q = Query::new(QueryId(0), vec![Predicate::Eq {
                attr: AttrId(0),
                value: Value::Cat(c.clone().into()),
            }]);
            prop_assert!(summary.may_match(&q));
        }
    }
}

/// A box of a branch summary's parts as the reference keeps it: per
/// attribute the first and last bucket it spans, `(u32::MAX, 0)` for none
/// and `(0, u32::MAX)` for an attribute without an axis.
type RefBox = Vec<(u32, u32)>;

/// A summand of an aggregate: its tag, its parts and itself.
type Summand<'a> = (u32, &'a [(u32, RefBox)], &'a Summary);

/// The one box a summary without parts brings to an aggregate: each
/// histogram's occupied range, rounded outward to its cells.
fn coarse_box(s: &Summary) -> RefBox {
    (0..s.arity())
        .map(|i| match s.attr(i) {
            AttributeSummary::Hist(h) => match h.occupied() {
                None => (u32::MAX, 0),
                Some((first, last)) => {
                    let within = h.cell_buckets() as u32 - 1;
                    (first as u32 & !within, last as u32 | within)
                }
            },
            _ => (0, u32::MAX),
        })
        .collect()
}

/// The parts `Summary::branch_within` keeps at budget `0` (`merge`: each
/// summand's boxes merged into their hull) or `usize::MAX` (one box per
/// server below), given each summand's tag, its boxes if it kept parts
/// and the summary itself.
fn reference_parts(summands: &[Summand<'_>], merge: bool) -> Vec<(u32, RefBox)> {
    let mut parts: Vec<(u32, RefBox)> = Vec::new();
    for &(tag, boxes, s) in summands {
        let mut brought: Vec<RefBox> = match boxes.is_empty() {
            true if s.is_empty() => Vec::new(),
            true => vec![coarse_box(s)],
            false => boxes.iter().map(|(_, b)| b.clone()).collect(),
        };
        if merge && brought.len() > 1 {
            let hull = brought.iter().skip(1).fold(brought[0].clone(), |h, b| {
                h.iter()
                    .zip(b)
                    .map(|(&(f, l), &(g, m))| (f.min(g), l.max(m)))
                    .collect()
            });
            brought = vec![hull];
        }
        parts.extend(brought.into_iter().map(|b| (tag, b)));
    }
    if parts.len() < 2 {
        parts.clear();
    }
    parts
}

/// The summary test as it read before the occupancy index: every
/// predicate put to its attribute's counters by a scan of the buckets its
/// bounds fall in, the spans of the first 16 put to the `parts`. The
/// refusal `Summary::decide` reports, or `Ok` with the tags of the holding
/// parts, each once.
fn reference_test(
    s: &Summary,
    parts: &[(u32, RefBox)],
    q: &Query,
) -> Result<Vec<u32>, Option<&'static str>> {
    if s.record_count() == 0 {
        return Err(None);
    }
    const FULL: (u32, u32) = (0, u32::MAX);
    let mut spans = Vec::new();
    for p in q.predicates() {
        let i = p.attr().index();
        if i >= s.arity() {
            return Err(None);
        }
        let attr = s.attr(i);
        let scan = |h: &Histogram, lo: f64, hi: f64| {
            if lo.is_nan() || hi.is_nan() || lo > hi {
                return None;
            }
            let (first, last) = (h.bucket_of(lo), h.bucket_of(hi));
            (h.buckets()[first..=last].iter().any(|&c| c > 0))
                .then_some((first as u32, last as u32))
        };
        let cat = |contains: &dyn Fn(&str) -> bool| match p {
            Predicate::Eq { value, .. } => value.as_str().is_none_or(contains),
            Predicate::OneOf { values, .. } => values.iter().any(|v| contains(v)),
            Predicate::Range { .. } => true,
        };
        let span = match (attr, p) {
            (AttributeSummary::Hist(h), Predicate::Range { lo, hi, .. }) => scan(h, *lo, *hi),
            (AttributeSummary::Hist(h), Predicate::Eq { value, .. }) => match value.as_f64() {
                Some(v) => scan(h, v, v),
                None => Some(FULL),
            },
            (AttributeSummary::Hist(_), Predicate::OneOf { .. }) => Some(FULL),
            (AttributeSummary::Set(set), _) => cat(&|v| set.contains(v)).then_some(FULL),
            (AttributeSummary::Bloom(b), _) => cat(&|v| b.contains(v)).then_some(FULL),
        };
        match span {
            None => return Err(Some(attr.kind_name())),
            Some(span) if spans.len() < 16 => spans.push((i, span)),
            Some(_) => {}
        }
    }
    let holds = |b: &RefBox| (spans.iter()).all(|&(i, (f, l))| b[i].0 <= l && f <= b[i].1);
    let mut tags: Vec<u32> = parts
        .iter()
        .filter(|(_, b)| holds(b))
        .map(|(t, _)| *t)
        .collect();
    tags.dedup();
    match parts.is_empty() || !tags.is_empty() {
        true => Ok(tags),
        false => Err(Some("parts")),
    }
}

/// A row of the mixed schema; a `removable` one carries a number where the
/// categorical value goes, which no summary folds in, so that a summary
/// holding it can still unlearn it.
fn op_record(id: u64, (x, c, y): (f64, usize, f64), removable: bool) -> Record {
    let c = match removable {
        true => Value::Float(c as f64),
        false => Value::Cat(CATS[c].into()),
    };
    Record::new_unchecked(
        RecordId(id),
        OwnerId(0),
        vec![Value::Float(x), c, Value::Float(y)],
    )
}

/// Bucket counts for the sequences below: those of `BUCKET_COUNTS` whose
/// every bucket can be checked after every step.
const SEQUENCE_BUCKETS: [usize; 6] = [1, 7, 16, 100, 128, 1_000];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Through any sequence of the operations that change a summary, its
    /// occupancy index marks exactly the buckets whose counter is non-zero,
    /// and `may_match`, `decide` and `parts_holding` answer what a scan of
    /// the counters and the parts answered before the index: on queries
    /// with NaN, inverted, point and out-of-domain ranges, numeric and
    /// categorical `Eq`, `OneOf`, out-of-schema attributes and more than
    /// 16 predicates. None refuses a query one of its records matches.
    #[test]
    fn the_occupancy_index_and_the_probe_agree_with_a_counter_scan(
        m in 0usize..SEQUENCE_BUCKETS.len(),
        bloom in any::<bool>(),
        start in prop::collection::vec(((-0.2f64..1.2, 0usize..5, -60.0f64..60.0), any::<bool>()), 0..20),
        ops in prop::collection::vec(
            (0usize..8, prop::collection::vec(((-0.2f64..1.2, 0usize..5, -60.0f64..60.0), any::<bool>()), 1..6), any::<usize>()),
            1..24,
        ),
        queries in prop::collection::vec(
            (any::<bool>(), prop::collection::vec((0usize..16, 0.0f64..1.0, 0.0f64..0.3), 0..=24)),
            1..16,
        ),
    ) {
        let schema = mixed_schema();
        let cfg = SummaryConfig {
            buckets: SEQUENCE_BUCKETS[m],
            categorical: match bloom {
                true => CategoricalMode::Bloom { bits: 512, hashes: 3 },
                false => CategoricalMode::Enumerate,
            },
        };
        let mut next_id = 0u64;
        let mut make = |rows: &[((f64, usize, f64), bool)]| -> Vec<Record> {
            (rows.iter()).map(|&(row, removable)| { next_id += 1; op_record(next_id, row, removable) }).collect()
        };
        let mut held = make(&start);
        let mut s = Summary::from_records(&schema, &cfg, &held);
        // The parts as the reference knows them; `None` once an aggregate
        // has merged its boxes only part of the way.
        let mut parts: Option<Vec<(u32, RefBox)>> = Some(Vec::new());
        for (step, &(op, ref rows, pick)) in ops.iter().enumerate() {
            let fresh = make(rows);
            let picked = (!held.is_empty()).then(|| pick % held.len());
            // Any change but an aggregate drops the parts; a refused one
            // changes nothing.
            let changed = match op {
                0 => {
                    s.add_record(&fresh[0]);
                    held.push(fresh[0].clone());
                    true
                }
                1 => picked.is_some_and(|i| {
                    let removed = s.remove_record(&held[i]);
                    if removed {
                        held.swap_remove(i);
                    }
                    removed
                }),
                2 => picked.is_some_and(|i| {
                    let replaced = s.replace_record(&held[i], &fresh[0]);
                    if replaced {
                        held[i] = fresh[0].clone();
                    }
                    replaced
                }),
                3 => {
                    s.merge(&Summary::from_records(&schema, &cfg, &fresh)).unwrap();
                    held.extend(fresh.iter().cloned());
                    true
                }
                // Merge a summary in and take it out again: counters come
                // back, value sets stay the supersets they became.
                4 => {
                    let other = Summary::from_records(&schema, &cfg, &fresh);
                    let mut merged = s.clone();
                    merged.merge(&other).unwrap();
                    s = merged.without([&other]).expect("a summand that was merged");
                    true
                }
                // An aggregate over the summary and a child per fresh row:
                // at either extreme of the parts budget, or at the schema's
                // own, which merges none, all or some of the boxes; the
                // reference can tell the first two from the box count.
                _ => {
                    let kids: Vec<Summary> = (fresh.iter())
                        .map(|r| Summary::from_records(&schema, &cfg, std::slice::from_ref(r)))
                        .collect();
                    let tag = |k: usize| (step * 8 + k) as u32 * 37;
                    let tagged = || kids.iter().enumerate().map(|(k, c)| (tag(k + 1), c));
                    let branch = match op {
                        5 => Summary::branch_within(tag(0), &s, tagged(), 0),
                        6 => Summary::branch_within(tag(0), &s, tagged(), usize::MAX),
                        _ => Summary::branch_of(tag(0), &s, tagged()),
                    }
                    .unwrap();
                    parts = parts.as_deref().and_then(|known| {
                        let mut summands = vec![(tag(0), known, &s)];
                        summands.extend(kids.iter().enumerate().map(|(k, c)| (tag(k + 1), &[][..], c)));
                        let (all, merged) = (reference_parts(&summands, false), reference_parts(&summands, true));
                        match op {
                            5 => Some(merged),
                            6 => Some(all),
                            _ => [all, merged].into_iter().find(|p| p.len() == branch.part_count()),
                        }
                    });
                    s = branch;
                    held.extend(fresh.iter().cloned());
                    false
                }
            };
            if changed {
                parts = Some(Vec::new());
            }
            if let Some(parts) = &parts {
                prop_assert_eq!(s.part_count(), parts.len(), "step {}, op {}", step, op);
            }
            for i in 0..s.arity() {
                if let AttributeSummary::Hist(h) = s.attr(i) {
                    for (b, &c) in h.buckets().iter().enumerate() {
                        prop_assert_eq!(s.index_marks(i, b), c > 0, "step {}, op {}: attribute {} bucket {}", step, op, i, b);
                    }
                }
            }
            for (holding, preds) in &queries {
                let about = match held.is_empty() {
                    true => (0.5, 0, 0.0),
                    false => {
                        let r = &held[preds.len() % held.len()];
                        let v = |i: usize| r.values()[i].as_f64().unwrap_or(0.0);
                        let c = r.values()[1].as_str().and_then(|c| CATS.iter().position(|&k| k == c));
                        (v(0), c.unwrap_or(0), v(2))
                    }
                };
                let preds = (preds.iter())
                    .map(|&(kind, a, w)| predicate(if *holding { kind % 5 } else { kind }, a, w, about));
                let q = Query::new(QueryId(0), preds.collect());
                let says = s.may_match(&q);
                match &parts {
                    Some(parts) => {
                        let expected = reference_test(&s, parts, &q);
                        prop_assert_eq!(says, expected.is_ok(), "{:?}", q);
                        prop_assert_eq!(s.parts_holding(&q), expected.clone().ok(), "{:?}", q);
                        match (s.decide(&q), expected) {
                            (SummaryVerdict::Prune { decided_by }, Err(why)) => prop_assert_eq!(decided_by, why),
                            (SummaryVerdict::Match { .. }, Ok(_)) => {}
                            (verdict, expected) => prop_assert!(false, "{:?} against {:?} on {:?}", verdict, expected, q),
                        }
                    }
                    // Boxes unknown: the attributes still answer as the scan
                    // does, and the three answers agree with one another.
                    None => {
                        prop_assert_eq!(s.parts_holding(&q).is_some(), says, "{:?}", q);
                        match (s.decide(&q), reference_test(&s, &[], &q)) {
                            (SummaryVerdict::Prune { decided_by }, Err(why)) => {
                                prop_assert!(!says);
                                prop_assert_eq!(decided_by, why);
                            }
                            (SummaryVerdict::Prune { decided_by: Some("parts") }, Ok(_)) => prop_assert!(!says),
                            (SummaryVerdict::Match { .. }, Ok(_)) => prop_assert!(says),
                            (verdict, expected) => prop_assert!(false, "{:?} against {:?} on {:?}", verdict, expected, q),
                        }
                    }
                }
                let matched = held.iter().any(|r| q.matches(r));
                prop_assert!(says || !matched, "false negative: {:?}", q);
            }
        }
    }
}
