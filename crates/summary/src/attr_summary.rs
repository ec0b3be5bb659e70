//! Per-attribute summaries and their predicate evaluation.

use crate::bloom::BloomFilter;
use crate::histogram::{Histogram, Span};
use crate::value_set::ValueSet;
use roads_records::{Predicate, WireSize};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Summary of one attribute's values across a set of records.
///
/// The variant is chosen by the attribute type and the
/// [`crate::SummaryConfig`]: histograms for ordered attributes, value sets
/// or Bloom filters for categorical ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttributeSummary {
    /// Equi-width histogram (ordered attributes).
    Hist(Histogram),
    /// Exact enumerated set (categorical attributes, small vocabularies).
    Set(ValueSet),
    /// Bloom filter (categorical attributes, large vocabularies).
    Bloom(BloomFilter),
}

/// Error merging mismatched per-attribute summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrMergeError {
    /// Human-readable explanation.
    pub reason: String,
}

impl fmt::Display for AttrMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attribute summary merge error: {}", self.reason)
    }
}

impl std::error::Error for AttrMergeError {}

impl AttributeSummary {
    /// Conservative predicate evaluation: `false` guarantees no summarized
    /// record satisfies the predicate; `true` means some record *may*.
    ///
    /// Predicates evaluated against a structurally wrong summary kind (e.g.
    /// a range over a value set) answer `true` — the summary cannot prove
    /// absence, and ROADS must never produce a false negative. (A
    /// [`crate::Summary`] makes the same test through a [`crate::Probe`],
    /// on its occupancy index for the ordered attributes.)
    pub fn may_match(&self, pred: &Predicate) -> bool {
        match (self, pred) {
            (AttributeSummary::Hist(h), Predicate::Range { lo, hi, .. }) => {
                h.may_match_range(*lo, *hi)
            }
            (AttributeSummary::Hist(h), Predicate::Eq { value, .. }) => {
                value.as_f64().is_none_or(|v| h.may_match_range(v, v))
            }
            _ => self.may_hold(pred),
        }
    }

    /// The categorical half of [`AttributeSummary::may_match`]: whether
    /// this value set or Bloom filter may hold a value `pred` asks for.
    /// Any other pair — a histogram, a range over a categorical attribute —
    /// cannot prove absence here and answers `true`.
    pub(crate) fn may_hold(&self, pred: &Predicate) -> bool {
        match (self, pred) {
            (AttributeSummary::Set(s), Predicate::Eq { value, .. }) => {
                value.as_str().is_none_or(|v| s.contains(v))
            }
            (AttributeSummary::Bloom(b), Predicate::Eq { value, .. }) => {
                value.as_str().is_none_or(|v| b.contains(v))
            }
            (AttributeSummary::Set(s), Predicate::OneOf { values, .. }) => {
                values.iter().any(|v| s.contains(v))
            }
            (AttributeSummary::Bloom(b), Predicate::OneOf { values, .. }) => {
                values.iter().any(|v| b.contains(v))
            }
            _ => true,
        }
    }

    /// The occupied stretch of this attribute's axis, rounded outward to
    /// cell edges (see [`Histogram::occupied_cells`]); [`Span::FULL`] for
    /// an attribute that has no axis.
    pub(crate) fn coarse_span(&self) -> Span {
        match self {
            AttributeSummary::Hist(h) => h.coarse_span(),
            AttributeSummary::Set(_) | AttributeSummary::Bloom(_) => Span::FULL,
        }
    }

    /// For an attribute whose values lie on an axis (and so cost a byte
    /// in each of a branch summary's boxes), the log2 of the buckets per
    /// cell of its grid; `None` for the others.
    pub(crate) fn axis(&self) -> Option<u32> {
        match self {
            AttributeSummary::Hist(h) => Some(h.cell_buckets().trailing_zeros()),
            AttributeSummary::Set(_) | AttributeSummary::Bloom(_) => None,
        }
    }

    /// Whether this summary can *exactly* unlearn `v` (reverse the fold
    /// performed by the summary layer when the value was inserted).
    ///
    /// Histograms decrement counters, so they can — unless saturation
    /// dropped increments or the target bucket is empty. Value sets and
    /// Bloom filters cannot unlearn (a set entry may be shared by several
    /// records; Bloom bits are irreversibly ORed), so any categorical value
    /// present forces the caller to rebuild from records. Values of a structurally mismatched type were never folded
    /// in ([`crate::Summary::add_record`] ignores them), so they unlearn
    /// trivially.
    ///
    /// Inlined, like `unlearn_vouched`, so that the
    /// delta plane's `Summary::replace_record` stays the one function it
    /// was before `Histogram::remove` came to hold a call: run cold,
    /// between query passes, three more calls per attribute read +25 % on
    /// the benchmark's `summary.replace_record_ns`.
    #[inline]
    pub fn can_unlearn(&self, v: &roads_records::Value) -> bool {
        match (self, v) {
            (AttributeSummary::Hist(h), v) => match v.as_f64() {
                Some(f) => h.can_remove(f),
                None => true,
            },
            (
                AttributeSummary::Set(_) | AttributeSummary::Bloom(_),
                roads_records::Value::Cat(_) | roads_records::Value::Text(_),
            ) => false,
            _ => true,
        }
    }

    /// Unlearn `v` in place. Returns `false` — leaving the summary
    /// untouched — when [`AttributeSummary::can_unlearn`] is `false`.
    pub fn unlearn(&mut self, v: &roads_records::Value) -> bool {
        if !self.can_unlearn(v) {
            return false;
        }
        self.unlearn_vouched(v);
        true
    }

    /// Unlearn `v` after the caller has already checked
    /// [`AttributeSummary::can_unlearn`] — skips the re-check on the hot
    /// delta path, where one pass vouches for every attribute before any
    /// is mutated.
    ///
    /// Returns the histogram bucket the value was the last in, if it
    /// emptied one.
    #[inline]
    pub(crate) fn unlearn_vouched(&mut self, v: &roads_records::Value) -> Option<usize> {
        debug_assert!(self.can_unlearn(v), "caller vouched via can_unlearn");
        match (self, v.as_f64()) {
            (AttributeSummary::Hist(h), Some(f)) => h.vacate(f),
            _ => None,
        }
    }

    /// Fold `v` into the summary — the per-attribute half of
    /// [`crate::Summary::add_record`]. Structurally mismatched value types
    /// are ignored. Returns the histogram bucket the value was the first
    /// in, if it made one occupied.
    pub fn learn(&mut self, v: &roads_records::Value) -> Option<usize> {
        use roads_records::Value;
        match (self, v) {
            (AttributeSummary::Hist(h), v) => return v.as_f64().and_then(|f| h.occupy(f)),
            (AttributeSummary::Set(s), Value::Cat(c) | Value::Text(c)) => {
                s.insert(&**c);
            }
            (AttributeSummary::Bloom(b), Value::Cat(c) | Value::Text(c)) => {
                b.insert(c);
            }
            _ => {}
        }
        None
    }

    /// True when the summary condenses zero values.
    pub fn is_empty(&self) -> bool {
        match self {
            AttributeSummary::Hist(h) => h.is_empty(),
            AttributeSummary::Set(s) => s.is_empty(),
            AttributeSummary::Bloom(b) => b.is_empty(),
        }
    }

    /// Merge a same-kind summary into this one.
    pub fn merge(&mut self, other: &AttributeSummary) -> Result<(), AttrMergeError> {
        match (self, other) {
            (AttributeSummary::Hist(a), AttributeSummary::Hist(b)) => {
                a.merge(b).map_err(|e| AttrMergeError {
                    reason: e.to_string(),
                })
            }
            (AttributeSummary::Set(a), AttributeSummary::Set(b)) => {
                a.merge(b);
                Ok(())
            }
            (AttributeSummary::Bloom(a), AttributeSummary::Bloom(b)) => {
                a.merge(b).map_err(|e| AttrMergeError {
                    reason: e.to_string(),
                })
            }
            (a, b) => Err(AttrMergeError {
                reason: format!("kind mismatch: {} vs {}", a.kind_name(), b.kind_name()),
            }),
        }
    }

    /// Reverse a [`AttributeSummary::merge`] of `other` as far as the kind
    /// allows: histograms subtract exactly; a value set or a Bloom filter
    /// cannot forget and stays the superset it is, which is still
    /// conservative. Returns `false` — leaving the summary
    /// untouched — when counters cannot subtract exactly or the kinds
    /// differ.
    pub fn unmerge(&mut self, other: &AttributeSummary) -> bool {
        match (self, other) {
            (AttributeSummary::Hist(a), AttributeSummary::Hist(b)) => a.unmerge(b),
            (AttributeSummary::Set(_), AttributeSummary::Set(_))
            | (AttributeSummary::Bloom(_), AttributeSummary::Bloom(_)) => true,
            _ => false,
        }
    }

    /// Short name of the summary kind for diagnostics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            AttributeSummary::Hist(_) => "histogram",
            AttributeSummary::Set(_) => "set",
            AttributeSummary::Bloom(_) => "bloom",
        }
    }
}

impl WireSize for AttributeSummary {
    fn wire_size(&self) -> usize {
        // kind tag (1) + payload
        1 + match self {
            AttributeSummary::Hist(h) => h.wire_size(),
            AttributeSummary::Set(s) => s.wire_size(),
            AttributeSummary::Bloom(b) => b.wire_size(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_records::{AttrId, Value};

    fn range(lo: f64, hi: f64) -> Predicate {
        Predicate::Range {
            attr: AttrId(0),
            lo,
            hi,
        }
    }

    fn eq_cat(v: &str) -> Predicate {
        Predicate::Eq {
            attr: AttrId(0),
            value: Value::Cat(v.into()),
        }
    }

    #[test]
    fn hist_range_eval() {
        let s = AttributeSummary::Hist(Histogram::from_values(0.0, 1.0, 10, [0.3]));
        assert!(s.may_match(&range(0.25, 0.5)));
        assert!(!s.may_match(&range(0.6, 0.9)));
    }

    #[test]
    fn hist_eq_numeric_point() {
        let s = AttributeSummary::Hist(Histogram::from_values(0.0, 1.0, 10, [0.3]));
        let p = Predicate::Eq {
            attr: AttrId(0),
            value: Value::Float(0.35), // same bucket as 0.3 → conservative hit
        };
        assert!(s.may_match(&p));
    }

    #[test]
    fn set_eval() {
        let s = AttributeSummary::Set(ValueSet::from_values(["MPEG2"]));
        assert!(s.may_match(&eq_cat("MPEG2")));
        assert!(!s.may_match(&eq_cat("H264")));
    }

    #[test]
    fn bloom_eval_no_false_negative() {
        let mut b = BloomFilter::new(512, 3);
        b.insert("MPEG2");
        let s = AttributeSummary::Bloom(b);
        assert!(s.may_match(&eq_cat("MPEG2")));
    }

    #[test]
    fn one_of_any_semantics() {
        let s = AttributeSummary::Set(ValueSet::from_values(["a"]));
        let p = Predicate::OneOf {
            attr: AttrId(0),
            values: vec!["z".into(), "a".into()],
        };
        assert!(s.may_match(&p));
    }

    #[test]
    fn range_over_set_is_conservative_true() {
        let s = AttributeSummary::Set(ValueSet::from_values(["a"]));
        assert!(s.may_match(&range(0.0, 1.0)));
    }

    #[test]
    fn kind_mismatch_merge_fails() {
        let mut a = AttributeSummary::Set(ValueSet::new());
        let b = AttributeSummary::Hist(Histogram::new(0.0, 1.0, 4));
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn unlearn_kinds() {
        // Histograms unlearn exactly…
        let mut h = AttributeSummary::Hist(Histogram::from_values(0.0, 1.0, 4, [0.3]));
        assert!(h.can_unlearn(&Value::Float(0.3)));
        assert!(h.unlearn(&Value::Float(0.3)));
        assert!(h.is_empty());
        // …but refuse when the bucket is already empty.
        assert!(!h.unlearn(&Value::Float(0.3)));

        // Sets and Blooms can never unlearn a present categorical value.
        let mut s = AttributeSummary::Set(ValueSet::from_values(["a"]));
        assert!(!s.can_unlearn(&Value::Cat("a".into())));
        assert!(!s.unlearn(&Value::Cat("a".into())));
        assert!(s.may_match(&eq_cat("a")), "refused unlearn changes nothing");
        let mut b = AttributeSummary::Bloom(BloomFilter::new(64, 2));
        assert!(!b.can_unlearn(&Value::Text("x".into())));
        assert!(!b.unlearn(&Value::Text("x".into())));

        // A structurally mismatched value was never folded in: trivial.
        assert!(s.unlearn(&Value::Float(1.0)));
        assert!(h.unlearn(&Value::Cat("a".into())));
    }

    #[test]
    fn same_kind_merge_works() {
        let mut a = AttributeSummary::Hist(Histogram::from_values(0.0, 1.0, 4, [0.1]));
        let b = AttributeSummary::Hist(Histogram::from_values(0.0, 1.0, 4, [0.9]));
        a.merge(&b).unwrap();
        assert!(a.may_match(&range(0.8, 1.0)));
    }
}
