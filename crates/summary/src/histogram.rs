//! Equi-width histograms for numeric attributes.
//!
//! "A numeric attribute can be aggregated using a histogram consisting of
//! multiple buckets of value ranges. Each bucket has a counter for how many
//! values in this range are present. … two histograms can be combined by
//! adding their respective counters in each bucket." (§III-B)
//!
//! A histogram also knows, at every moment and without scanning, which
//! stretch of its buckets is occupied: its first and last non-empty
//! bucket. Rounded outward to a grid of at most [`Histogram::CELLS`] cells
//! — a mask, each cell being a power-of-two run of buckets — that stretch
//! is what a branch summary remembers of each server below it, until its
//! byte budget merges several of one summand's into their hull (see
//! [`crate::Summary::branch_of`]). Keeping it current costs two
//! compares per insert, a min and a max per merge, and a rescan only when
//! an extreme bucket empties.

use roads_records::WireSize;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error merging structurally incompatible histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeError {
    /// Human-readable explanation.
    pub reason: String,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "histogram merge error: {}", self.reason)
    }
}

impl std::error::Error for MergeError {}

/// Equi-width histogram over `[lo, hi]` with `m` buckets of `u32` counters.
///
/// Counter width matches the paper's accounting (4 bytes per bucket; a
/// summary of `r` attributes with `m` buckets each occupies `~4·m·r` bytes
/// regardless of how many records it condenses). Counters saturate instead
/// of wrapping so adversarially large merges stay conservative — but a
/// saturated counter has *dropped* increments, so exact decrement-based
/// deltas ([`Histogram::remove`]) are no longer possible. The `saturated`
/// flag records that loss: once set, removals refuse and callers must
/// re-aggregate from the underlying records. The flag is local bookkeeping,
/// not wire payload — [`WireSize`] stays at the paper's `20 + 4·m` bytes.
/// So is the occupied range: a function of the counters, kept beside them
/// only so that nobody has to scan for it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u32>,
    saturated: bool,
    /// First and last non-empty bucket, exact under every mutation.
    occupied: Span,
}

/// An inclusive range of bucket indexes; empty when `first > last`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Span {
    pub(crate) first: u32,
    pub(crate) last: u32,
}

impl Span {
    /// Contains no bucket, and is the identity of [`Span::hull`].
    const EMPTY: Span = Span {
        first: u32::MAX,
        last: 0,
    };
    /// Contains every bucket of every histogram.
    pub(crate) const FULL: Span = Span {
        first: 0,
        last: u32::MAX,
    };

    fn is_empty(self) -> bool {
        self.first > self.last
    }

    /// The smallest span containing both.
    pub(crate) fn hull(self, other: Span) -> Span {
        Span {
            first: self.first.min(other.first),
            last: self.last.max(other.last),
        }
    }

    /// The buckets both contain.
    pub(crate) fn meet(self, other: Span) -> Span {
        Span {
            first: self.first.max(other.first),
            last: self.last.min(other.last),
        }
    }

    pub(crate) fn intersects(self, other: Span) -> bool {
        self.first <= other.last && other.first <= self.last
    }

    /// Cells of `2^shift` buckets a cell-aligned span covers.
    pub(crate) fn cells(self, shift: u32) -> u64 {
        match self.is_empty() {
            true => 0,
            false => (u64::from(self.last - self.first) >> shift) + 1,
        }
    }
}

impl Histogram {
    /// Most cells of the grid the occupied range is rounded to: what a
    /// branch summary can say about one server's values of this attribute
    /// is a first and a last cell, four bits each. Sixteen because two
    /// bounds then fit the one byte per attribute and box that the update
    /// traffic's budget allows (see DESIGN.md §6).
    pub const CELLS: usize = 16;

    /// Empty histogram over `[lo, hi]` with `m` buckets.
    ///
    /// # Panics
    /// If `m == 0`, `m` does not fit the wire format's 4-byte bucket count,
    /// or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, m: usize) -> Self {
        assert!(m > 0, "histogram needs at least one bucket");
        assert!(u32::try_from(m).is_ok(), "bucket count is a 4-byte field");
        assert!(lo < hi, "histogram domain must be non-empty");
        Histogram {
            lo,
            hi,
            buckets: vec![0; m],
            saturated: false,
            occupied: Span::EMPTY,
        }
    }

    /// Build from an iterator of values, clamping out-of-domain values into
    /// the boundary buckets (owners occasionally export slightly stale
    /// domains; dropping values would create false negatives). `NaN`
    /// values are skipped entirely — see [`Histogram::insert`].
    pub fn from_values(lo: f64, hi: f64, m: usize, values: impl IntoIterator<Item = f64>) -> Self {
        let mut h = Histogram::new(lo, hi, m);
        for v in values {
            h.insert(v);
        }
        h
    }

    /// Number of buckets (the paper's `m`).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Domain lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Domain upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Raw bucket counters.
    pub fn buckets(&self) -> &[u32] {
        &self.buckets
    }

    /// Total number of summarized values (sum of counters, saturating).
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|&c| c as u64).sum()
    }

    /// True when no values have been inserted.
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// First and last non-empty bucket, `None` when empty.
    pub fn occupied(&self) -> Option<(usize, usize)> {
        let Span { first, last } = self.occupied;
        (!self.occupied.is_empty()).then_some((first as usize, last as usize))
    }

    /// Buckets per cell of the grid: the least power of two that covers
    /// the `m` buckets in at most [`Histogram::CELLS`] cells (8 for 128
    /// buckets, 64 for 1 000, 1 below 17). A power of two, and counted in
    /// buckets rather than as a fraction of the domain, so that rounding a
    /// bucket index to its cell is a mask — integer, outward for every `m`,
    /// and free on the aggregation path.
    pub fn cell_buckets(&self) -> usize {
        self.buckets.len().div_ceil(Self::CELLS).next_power_of_two()
    }

    /// [`Histogram::occupied`] in cells: the first and last cell that holds
    /// an occupied bucket.
    pub fn occupied_cells(&self) -> Option<(usize, usize)> {
        let shift = self.cell_buckets().trailing_zeros();
        self.occupied()
            .map(|(first, last)| (first >> shift, last >> shift))
    }

    /// [`Histogram::occupied_cells`] back in bucket indexes: every bucket
    /// of a cell that holds an occupied bucket (the last cell's may run
    /// past the last bucket). A test against it is exactly the test a
    /// reader holding only the two cell indexes could make. It is one
    /// server's side of a box in a branch summary's parts, which are per
    /// server, sized by a byte budget, and shipped only to the readers
    /// that test them (see [`crate::Summary::branch_of`]).
    pub(crate) fn coarse_span(&self) -> Span {
        let within_cell = self.cell_buckets() as u32 - 1;
        match self.occupied.is_empty() {
            true => Span::EMPTY,
            false => Span {
                first: self.occupied.first & !within_cell,
                last: self.occupied.last | within_cell,
            },
        }
    }

    /// Bucket `i` just lost its last value: if it was an extreme of the
    /// occupied range, find the new extremes by scanning inward. Out of
    /// line: it happens to a small share of the delta plane's removals,
    /// whose loop must stay tight.
    #[cold]
    fn bucket_emptied(&mut self, i: u32) {
        let Span { first, last } = self.occupied;
        if i != first && i != last {
            return;
        }
        let window = &self.buckets[first as usize..=last as usize];
        self.occupied = match window.iter().position(|&c| c > 0) {
            None => Span::EMPTY,
            Some(a) => Span {
                first: first + a as u32,
                last: first + window.iter().rposition(|&c| c > 0).unwrap_or(a) as u32,
            },
        };
    }

    /// Bucket index for a value, clamped into the domain: the float → int
    /// cast truncates, saturates at both ends (below the domain and `-∞`
    /// to 0, above it and `+∞` to the last bucket) and sends `NaN` to 0;
    /// callers that must not count `NaN` (i.e. [`Histogram::insert`])
    /// reject it first. The fraction is a division, not a multiplication
    /// by a stored reciprocal, which would move bucket edges by an ulp.
    /// Over a domain without finite width every value lands in bucket 0.
    pub fn bucket_of(&self, v: f64) -> usize {
        let m = self.buckets.len();
        let frac = (v - self.lo) / (self.hi - self.lo);
        ((frac * m as f64) as usize).min(m - 1)
    }

    /// Record one value. `NaN` is ignored: it carries no position on the
    /// attribute axis, and counting it (the old behavior filed it into
    /// bucket 0 because `NaN > 0.0` is false) would let one corrupt
    /// export skew the lowest bucket and every range estimate over it.
    pub fn insert(&mut self, v: f64) {
        self.occupy(v);
    }

    /// [`Histogram::insert`] that also says which bucket, if any, the
    /// value was the first in: the bucket it made occupied, which a
    /// summary's occupancy index marks.
    pub(crate) fn occupy(&mut self, v: f64) -> Option<usize> {
        if v.is_nan() {
            return None;
        }
        let idx = self.bucket_of(v);
        match self.buckets[idx].checked_add(1) {
            Some(n) => {
                self.buckets[idx] = n;
                // Compared against the index, not gated on the counter
                // just loaded: on the delta plane's insert loop the two
                // compares measured cheaper than one branch that waits
                // for the load (EXPERIMENTS.md, "Routing precision").
                let i = idx as u32;
                if i < self.occupied.first {
                    self.occupied.first = i;
                }
                if i > self.occupied.last {
                    self.occupied.last = i;
                }
                (n == 1).then_some(idx)
            }
            // The increment is dropped: counts are now a lower bound and
            // exact removal is impossible until a full re-aggregation.
            None => {
                self.saturated = true;
                None
            }
        }
    }

    /// Remove one previously inserted value, exactly reversing
    /// [`Histogram::insert`]. Returns `false` — leaving the histogram
    /// untouched — when the removal cannot be performed exactly: the
    /// histogram has [saturated](Histogram::is_saturated) (dropped
    /// increments would make the decrement under-count) or the target
    /// bucket is already empty (the value was never inserted). `NaN` is
    /// ignored, symmetric with insert, and reports success.
    pub fn remove(&mut self, v: f64) -> bool {
        let removable = self.can_remove(v);
        if removable {
            self.vacate(v);
        }
        removable
    }

    /// Remove `v`, which [`Histogram::can_remove`] vouched for, and say
    /// which bucket, if any, it was the last in: the bucket it emptied,
    /// which a summary's occupancy index clears.
    pub(crate) fn vacate(&mut self, v: f64) -> Option<usize> {
        if v.is_nan() {
            return None;
        }
        let idx = self.bucket_of(v);
        // Checked all the same: a counter that wrapped would vouch for
        // four billion values.
        let n = self.buckets[idx].checked_sub(1)?;
        self.buckets[idx] = n;
        if n == 0 {
            self.bucket_emptied(idx as u32);
        }
        (n == 0).then_some(idx)
    }

    /// Whether [`Histogram::remove`] of `v` would succeed right now.
    pub fn can_remove(&self, v: f64) -> bool {
        v.is_nan() || (!self.saturated && self.buckets[self.bucket_of(v)] > 0)
    }

    /// True when a counter has ever dropped an increment (clamped at
    /// `u32::MAX`). Saturated histograms still answer queries
    /// conservatively, but refuse exact removals — callers must rebuild
    /// from the underlying records.
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Value range covered by bucket `i`: `[lo_i, hi_i)` (last bucket is
    /// closed at the domain upper bound).
    pub fn bucket_range(&self, i: usize) -> (f64, f64) {
        let m = self.buckets.len() as f64;
        let w = (self.hi - self.lo) / m;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Conservative range test: could any summarized value lie in
    /// `[q_lo, q_hi]`? True when any bucket intersecting the query range is
    /// non-empty. Never produces a false negative; may produce a false
    /// positive when a bucket straddles the range boundary. (A
    /// [`crate::Summary`] makes the same test on its occupancy index,
    /// through a [`crate::Probe`].)
    pub fn may_match_range(&self, q_lo: f64, q_hi: f64) -> bool {
        self.span_of(q_lo, q_hi)
            .is_some_and(|Span { first, last }| {
                self.buckets[first as usize..=last as usize]
                    .iter()
                    .any(|&c| c > 0)
            })
    }

    /// The buckets `[q_lo, q_hi]` covers, whatever they hold; `None` for
    /// a range that describes no interval (a NaN or inverted bound).
    pub(crate) fn span_of(&self, q_lo: f64, q_hi: f64) -> Option<Span> {
        if q_lo.is_nan() || q_hi.is_nan() || q_lo > q_hi {
            return None;
        }
        Some(Span {
            first: self.bucket_of(q_lo) as u32,
            last: self.bucket_of(q_hi) as u32,
        })
    }

    /// Estimated number of values in `[q_lo, q_hi]`, assuming values are
    /// uniform within each bucket (standard equi-width estimator).
    pub fn estimate_count(&self, q_lo: f64, q_hi: f64) -> f64 {
        if q_lo.is_nan() || q_hi.is_nan() || q_lo > q_hi {
            return 0.0;
        }
        let mut est = 0.0;
        let first = self.bucket_of(q_lo);
        let last = self.bucket_of(q_hi);
        for i in first..=last {
            let (b_lo, b_hi) = self.bucket_range(i);
            let overlap = (q_hi.min(b_hi) - q_lo.max(b_lo)).max(0.0);
            let width = b_hi - b_lo;
            if width > 0.0 {
                est += self.buckets[i] as f64 * (overlap / width).min(1.0);
            }
        }
        est
    }

    /// Merge another histogram into this one by adding counters
    /// ("two histograms can be combined by adding their respective counters
    /// in each bucket").
    pub fn merge(&mut self, other: &Histogram) -> Result<(), MergeError> {
        if self.buckets.len() != other.buckets.len() {
            return Err(MergeError {
                reason: format!(
                    "bucket counts differ: {} vs {}",
                    self.buckets.len(),
                    other.buckets.len()
                ),
            });
        }
        if self.lo != other.lo || self.hi != other.hi {
            return Err(MergeError {
                reason: format!(
                    "domains differ: [{},{}] vs [{},{}]",
                    self.lo, self.hi, other.lo, other.hi
                ),
            });
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            match a.checked_add(*b) {
                Some(n) => *a = n,
                None => {
                    *a = u32::MAX;
                    self.saturated = true;
                }
            }
        }
        self.saturated |= other.saturated;
        self.occupied = self.occupied.hull(other.occupied);
        Ok(())
    }

    /// Exactly reverse a [`Histogram::merge`] of `other`: subtract its
    /// counters. Returns `false` — leaving the histogram untouched — when
    /// that cannot be exact: the configurations differ, either side has
    /// saturated (dropped increments), or a counter would go negative
    /// (`other` was never merged in).
    pub fn unmerge(&mut self, other: &Histogram) -> bool {
        let exact = (self.lo, self.hi) == (other.lo, other.hi)
            && !(self.saturated || other.saturated)
            && self.buckets.len() == other.buckets.len()
            && self.buckets.iter().zip(&other.buckets).all(|(a, b)| a >= b);
        if exact && !other.is_empty() {
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a -= b;
            }
            // Whatever emptied, the extremes are found from the old ones.
            self.bucket_emptied(self.occupied.first);
        }
        exact
    }

    /// Reset all counters to zero, keeping the configuration.
    pub fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|c| *c = 0);
        self.saturated = false;
        self.occupied = Span::EMPTY;
    }

    /// Estimated `q`-quantile (0 ≤ q ≤ 1) of the summarized values, by
    /// linear interpolation within the bucket containing the target rank.
    /// `None` when the histogram is empty.
    ///
    /// Lets a client ask a federation-wide question like "what is the
    /// median free capacity?" from summaries alone — no record ever moves.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * total as f64;
        let mut seen = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            let c = c as f64;
            if seen + c >= target && c > 0.0 {
                let (b_lo, b_hi) = self.bucket_range(i);
                let frac = ((target - seen) / c).clamp(0.0, 1.0);
                return Some(b_lo + frac * (b_hi - b_lo));
            }
            seen += c;
        }
        Some(self.hi)
    }

    /// Estimated mean of the summarized values (bucket midpoints weighted
    /// by counts). `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let sum: f64 = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let (lo, hi) = self.bucket_range(i);
                c as f64 * (lo + hi) / 2.0
            })
            .sum();
        Some(sum / total as f64)
    }

    /// The `k` most populated buckets as `(range, count)`, descending by
    /// count (modes of the summarized distribution).
    pub fn top_buckets(&self, k: usize) -> Vec<((f64, f64), u32)> {
        let mut idx: Vec<usize> = (0..self.buckets.len())
            .filter(|&i| self.buckets[i] > 0)
            .collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(self.buckets[i]));
        idx.truncate(k);
        idx.into_iter()
            .map(|i| (self.bucket_range(i), self.buckets[i]))
            .collect()
    }
}

impl WireSize for Histogram {
    fn wire_size(&self) -> usize {
        // lo (8) + hi (8) + bucket count (4) + counters (4 each)
        20 + 4 * self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_hist(values: &[f64], m: usize) -> Histogram {
        Histogram::from_values(0.0, 1.0, m, values.iter().copied())
    }

    /// The occupied range as a scan finds it: the oracle for the tracked one.
    fn scanned(h: &Histogram) -> Option<(usize, usize)> {
        let first = h.buckets.iter().position(|&c| c > 0)?;
        Some((first, h.buckets.iter().rposition(|&c| c > 0)?))
    }

    /// A unit-domain histogram holding exactly these counters.
    fn with_counts(buckets: Vec<u32>) -> Histogram {
        let mut h = Histogram::new(0.0, 1.0, buckets.len());
        h.buckets = buckets;
        let (first, last) = scanned(&h).map_or((u32::MAX, 0), |(f, l)| (f as u32, l as u32));
        h.occupied = Span { first, last };
        h
    }

    #[test]
    fn insert_and_total() {
        let h = unit_hist(&[0.05, 0.15, 0.95], 10);
        assert_eq!(h.total(), 3);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[9], 1);
    }

    #[test]
    fn boundary_values_clamped() {
        let h = unit_hist(&[0.0, 1.0, -0.5, 1.5], 4);
        assert_eq!(h.buckets()[0], 2); // 0.0 and -0.5
        assert_eq!(h.buckets()[3], 2); // 1.0 and 1.5
    }

    #[test]
    fn paper_example_rate_query() {
        // "rate>150Kbps will be true when any of the buckets beyond 150 is
        // non-empty". Domain [0,1000], rate 100 only → false; add 200 → true.
        let mut h = Histogram::from_values(0.0, 1000.0, 100, [100.0]);
        assert!(!h.may_match_range(150.0, 1000.0));
        h.insert(200.0);
        assert!(h.may_match_range(150.0, 1000.0));
    }

    #[test]
    fn no_false_negatives_on_straddling_bucket() {
        // value 0.24 is in bucket [0.2,0.3); query [0.25,0.5] touches that
        // bucket, so a conservative match must be reported.
        let h = unit_hist(&[0.24], 10);
        assert!(h.may_match_range(0.25, 0.5));
    }

    #[test]
    fn empty_range_rejected() {
        let h = unit_hist(&[0.5], 10);
        assert!(!h.may_match_range(0.9, 0.1));
        assert_eq!(h.estimate_count(0.9, 0.1), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = unit_hist(&[0.1, 0.2], 10);
        let b = unit_hist(&[0.1, 0.9], 10);
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 4);
        assert_eq!(a.buckets()[1], 2);
        assert_eq!(a.buckets()[9], 1);
    }

    #[test]
    fn merge_incompatible_rejected() {
        let mut a = Histogram::new(0.0, 1.0, 10);
        let b = Histogram::new(0.0, 1.0, 20);
        assert!(a.merge(&b).is_err());
        let c = Histogram::new(0.0, 2.0, 10);
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn estimate_count_partial_overlap() {
        // 10 values uniform in bucket [0.0,0.1); query covers half of it.
        let mut h = Histogram::new(0.0, 1.0, 10);
        for _ in 0..10 {
            h.insert(0.05);
        }
        let est = h.estimate_count(0.0, 0.05);
        assert!((est - 5.0).abs() < 1e-9, "est={est}");
    }

    #[test]
    fn wire_size_constant_in_record_count() {
        let small = unit_hist(&[0.5], 100);
        let mut big = Histogram::new(0.0, 1.0, 100);
        for i in 0..10_000 {
            big.insert((i % 100) as f64 / 100.0);
        }
        assert_eq!(small.wire_size(), big.wire_size());
        assert_eq!(small.wire_size(), 20 + 400);
    }

    #[test]
    fn saturating_counters() {
        let mut h = with_counts(vec![u32::MAX - 1]);
        h.insert(0.5);
        assert!(!h.is_saturated(), "reaching MAX exactly loses nothing");
        h.insert(0.5);
        assert_eq!(h.buckets()[0], u32::MAX);
        assert!(h.is_saturated(), "a dropped increment must be recorded");
    }

    #[test]
    fn remove_reverses_insert() {
        let mut h = unit_hist(&[0.05, 0.05, 0.95], 10);
        assert!(h.remove(0.05));
        assert_eq!(h.buckets()[0], 1);
        assert!(h.remove(0.05) && h.remove(0.95));
        assert!(h.is_empty());
        // Removing from an empty bucket is rejected, histogram untouched.
        assert!(!h.remove(0.5));
        assert!(!h.can_remove(0.5));
        assert!(h.is_empty());
        // NaN is a no-op on both sides.
        assert!(h.remove(f64::NAN));
    }

    #[test]
    fn saturated_histogram_refuses_removal() {
        // Regression: counters used `saturating_add`, so after saturation a
        // delta remove silently under-counted and delta ≠ rebuild. Removal
        // must now refuse on a saturated histogram, forcing callers to
        // re-aggregate from records.
        let mut h = with_counts(vec![u32::MAX]);
        h.insert(0.5); // dropped increment
        assert!(h.is_saturated());
        assert!(!h.can_remove(0.5));
        assert!(!h.remove(0.5), "saturated counters cannot unlearn exactly");
        assert_eq!(h.buckets()[0], u32::MAX, "refused removal leaves counts");
        // clear() resets the flag along with the counters.
        h.clear();
        assert!(!h.is_saturated());
        assert!(h.is_empty());
    }

    #[test]
    fn merge_propagates_saturation() {
        let mut a = with_counts(vec![u32::MAX, 0]);
        let b = with_counts(vec![1, 1]);
        a.merge(&b).unwrap();
        assert!(a.is_saturated(), "clamped merge must mark saturation");
        assert_eq!(a.buckets(), &[u32::MAX, 1]);
        // A saturated input taints the merge target even without clamping.
        let mut c = Histogram::new(0.0, 1.0, 2);
        c.merge(&a).unwrap();
        assert!(c.is_saturated());
    }

    #[test]
    fn clear_resets() {
        let mut h = unit_hist(&[0.5], 4);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.bucket_count(), 4);
    }

    #[test]
    fn quantiles_interpolate() {
        // 100 values uniform across [0,1): quantiles ≈ identity.
        let mut h = Histogram::new(0.0, 1.0, 20);
        for i in 0..100 {
            h.insert(i as f64 / 100.0);
        }
        for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let est = h.quantile(q).unwrap();
            assert!((est - q).abs() < 0.06, "q={q} est={est}");
        }
        assert_eq!(Histogram::new(0.0, 1.0, 4).quantile(0.5), None);
    }

    #[test]
    fn mean_estimate() {
        let h = unit_hist(&[0.1, 0.2, 0.3, 0.4], 100);
        let m = h.mean().unwrap();
        assert!((m - 0.25).abs() < 0.01, "mean={m}");
        assert_eq!(Histogram::new(0.0, 1.0, 4).mean(), None);
    }

    #[test]
    fn top_buckets_ordered() {
        let h = unit_hist(&[0.05, 0.05, 0.05, 0.55, 0.55, 0.95], 10);
        let top = h.top_buckets(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].1, 3);
        assert_eq!(top[1].1, 2);
        assert!(top[0].0 .0 < 0.1 && top[0].0 .1 > 0.05);
        // Asking for more than exist returns only the occupied buckets.
        assert_eq!(h.top_buckets(10).len(), 3);
    }

    #[test]
    fn infinite_query_bounds() {
        let h = unit_hist(&[0.5], 10);
        assert!(h.may_match_range(f64::NEG_INFINITY, f64::INFINITY));
        assert!(h.may_match_range(0.2, f64::INFINITY));
    }

    #[test]
    fn a_domain_without_finite_width_is_one_bucket() {
        // A schema may declare infinite bounds; nothing can be told apart
        // over them, and nothing may be lost.
        for (lo, hi) in [
            (0.0, f64::INFINITY),
            (f64::NEG_INFINITY, 0.0),
            (f64::NEG_INFINITY, f64::INFINITY),
            (-1e308, 1e308),
        ] {
            let mut h = Histogram::new(lo, hi, 16);
            for v in [
                f64::NEG_INFINITY,
                -1e300,
                -1.0,
                0.0,
                1.0,
                1e300,
                f64::INFINITY,
            ] {
                assert_eq!(h.bucket_of(v), 0, "[{lo}, {hi}] {v}");
            }
            h.insert(f64::INFINITY);
            assert!(h.may_match_range(5.0, f64::INFINITY));
            assert!(h.may_match_range(f64::NEG_INFINITY, -5.0), "conservative");
        }
    }

    #[test]
    fn nan_values_rejected() {
        // Regression: NaN used to be filed into bucket 0 (`!is_finite()`
        // is true but `NaN > 0.0` is false), skewing the lowest bucket.
        let h = unit_hist(&[f64::NAN, f64::NAN, 0.95], 10);
        assert_eq!(h.total(), 1, "NaN must not be counted");
        assert_eq!(h.buckets()[0], 0, "lowest bucket must stay clean");
        assert!(!h.may_match_range(0.0, 0.1), "no phantom low-range match");
        let mut h2 = Histogram::new(0.0, 1.0, 4);
        h2.insert(f64::NAN);
        assert!(h2.is_empty());
    }

    #[test]
    fn nan_query_bounds_no_match() {
        let h = unit_hist(&[0.5], 10);
        assert!(!h.may_match_range(f64::NAN, 1.0));
        assert!(!h.may_match_range(0.0, f64::NAN));
        assert_eq!(h.estimate_count(f64::NAN, f64::NAN), 0.0);
    }
}
