//! Fidelity probes: how truthful a (possibly stale or lossy) summary is
//! against an exact reference.
//!
//! The ROADS routing correctness argument rests on summaries being
//! conservative — no false negatives — while the accuracy/size tradeoff
//! (§III-B) makes
//! false positives a deliberate, *tunable* cost. This module measures that
//! cost: per-attribute drift between an observed summary (a branch
//! summary, or a replica copy of one) and the exact re-aggregate, folded
//! into one [`SummaryFidelity`] report per summary. The audit plane (roads/runtime crates) samples these probes on
//! a budget and exports them as registry gauges and `AUDIT.json` rows.

use crate::attr_summary::AttributeSummary;
use crate::histogram::Histogram;
use crate::summary::Summary;

/// Drift between an observed histogram and the exact reference: total
/// variation distance between their normalized bucket mass distributions,
/// in `[0, 1]` (0 = identical shape, 1 = disjoint mass or structurally
/// incomparable). Two empty histograms are identical; an empty one against
/// a populated one is fully drifted.
pub fn histogram_drift(observed: &Histogram, exact: &Histogram) -> f64 {
    if observed.bucket_count() != exact.bucket_count()
        || observed.lo() != exact.lo()
        || observed.hi() != exact.hi()
    {
        return 1.0;
    }
    let (ot, et) = (observed.total() as f64, exact.total() as f64);
    match (ot == 0.0, et == 0.0) {
        (true, true) => return 0.0,
        (true, false) | (false, true) => return 1.0,
        (false, false) => {}
    }
    let tv: f64 = observed
        .buckets()
        .iter()
        .zip(exact.buckets())
        .map(|(&o, &e)| (o as f64 / ot - e as f64 / et).abs())
        .sum();
    (tv / 2.0).clamp(0.0, 1.0)
}

/// Fidelity of one attribute's summary against the exact reference.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrFidelity {
    /// Attribute index in the schema.
    pub attr: usize,
    /// Summary kind label (`histogram`/`set`/`bloom`).
    pub kind: &'static str,
    /// Distance to the exact reference in `[0, 1]`; see the per-kind
    /// definitions in [`SummaryFidelity::probe`].
    pub drift: f64,
}

/// One summary's fidelity report: per-attribute drift against the exact
/// re-aggregate, plus the relative record-count error.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryFidelity {
    /// Per-attribute probes, schema order.
    pub attrs: Vec<AttrFidelity>,
    /// `|observed.records − exact.records| / max(exact.records, 1)`.
    pub record_drift: f64,
}

impl SummaryFidelity {
    /// Compare `observed` (a branch summary or a replica copy) against the
    /// `exact` re-aggregate of the same scope. Per-kind drift:
    ///
    /// * histogram — total variation distance
    ///   of bucket mass ([`histogram_drift`]);
    /// * value set — Jaccard distance of the enumerated values;
    /// * bloom — fraction of differing bits
    ///   ([`crate::BloomFilter::bit_difference`]), 1.0 when the filter
    ///   configurations are incomparable.
    ///
    /// Mismatched kinds at the same attribute index (a summary config
    /// change between stamp and probe) report drift 1.0.
    pub fn probe(observed: &Summary, exact: &Summary) -> SummaryFidelity {
        let n = observed.arity().min(exact.arity());
        let attrs = (0..n)
            .map(|i| {
                let (o, e) = (observed.attr(i), exact.attr(i));
                let drift = match (o, e) {
                    (AttributeSummary::Hist(a), AttributeSummary::Hist(b)) => histogram_drift(a, b),
                    (AttributeSummary::Set(a), AttributeSummary::Set(b)) => {
                        let inter = a.iter().filter(|v| b.contains(v)).count();
                        let union = a.len() + b.len() - inter;
                        if union == 0 {
                            0.0
                        } else {
                            1.0 - inter as f64 / union as f64
                        }
                    }
                    (AttributeSummary::Bloom(a), AttributeSummary::Bloom(b)) => {
                        a.bit_difference(b).unwrap_or(1.0)
                    }
                    _ => 1.0,
                };
                AttrFidelity {
                    attr: i,
                    kind: o.kind_name(),
                    drift,
                }
            })
            .collect();
        let (or, er) = (observed.record_count() as f64, exact.record_count() as f64);
        SummaryFidelity {
            attrs,
            record_drift: (or - er).abs() / er.max(1.0),
        }
    }

    /// Worst per-attribute drift (0 when the summary has no attributes).
    pub fn max_drift(&self) -> f64 {
        self.attrs.iter().map(|a| a.drift).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::SummaryConfig;
    use roads_records::{AttrDef, OwnerId, RecordBuilder, RecordId, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            AttrDef::categorical("type"),
            AttrDef::numeric("rate", 0.0, 100.0),
        ])
        .unwrap()
    }

    fn record(schema: &Schema, id: u64, ty: &str, rate: f64) -> roads_records::Record {
        RecordBuilder::new(schema, RecordId(id), OwnerId(1))
            .set("type", ty)
            .set("rate", rate)
            .build()
            .unwrap()
    }

    #[test]
    fn identical_summaries_have_zero_drift() {
        let s = schema();
        let cfg = SummaryConfig::with_buckets(10);
        let recs: Vec<_> = (0..20)
            .map(|i| record(&s, i, "camera", (i * 5) as f64))
            .collect();
        let a = Summary::from_records(&s, &cfg, recs.iter());
        let f = SummaryFidelity::probe(&a, &a.clone());
        assert_eq!(f.max_drift(), 0.0);
        assert_eq!(f.record_drift, 0.0);
        assert_eq!(f.attrs.len(), 2);
        assert_eq!(f.attrs[0].kind, "set");
        assert_eq!(f.attrs[1].kind, "histogram");
    }

    #[test]
    fn stale_copy_drifts_and_is_flagged() {
        let s = schema();
        let cfg = SummaryConfig::with_buckets(10);
        let old: Vec<_> = (0..10)
            .map(|i| record(&s, i, "camera", (i * 2) as f64))
            .collect();
        let new: Vec<_> = (0..30)
            .map(|i| record(&s, i, if i < 10 { "camera" } else { "gpu" }, 90.0))
            .collect();
        let stale = Summary::from_records(&s, &cfg, old.iter());
        let exact = Summary::from_records(&s, &cfg, new.iter());
        let f = SummaryFidelity::probe(&stale, &exact);
        assert!(f.max_drift() > 0.0, "{f:?}");
        assert!(f.record_drift > 0.5, "{f:?}");
        // The value-set attribute is missing "gpu": Jaccard distance 1/2.
        assert!((f.attrs[0].drift - 0.5).abs() < 1e-12, "{f:?}");
    }

    #[test]
    fn histogram_drift_edge_cases() {
        let empty = Histogram::new(0.0, 1.0, 4);
        let full = Histogram::from_values(0.0, 1.0, 4, [0.1, 0.6, 0.9]);
        assert_eq!(histogram_drift(&empty, &empty), 0.0);
        assert_eq!(histogram_drift(&empty, &full), 1.0);
        assert_eq!(histogram_drift(&full, &empty), 1.0);
        assert_eq!(histogram_drift(&full, &full), 0.0);
        // Structurally incomparable: different bucketing.
        let other = Histogram::from_values(0.0, 1.0, 8, [0.1]);
        assert_eq!(histogram_drift(&full, &other), 1.0);
        // Disjoint mass: maximum distance.
        let lo = Histogram::from_values(0.0, 1.0, 4, [0.1, 0.1]);
        let hi = Histogram::from_values(0.0, 1.0, 4, [0.9, 0.9]);
        assert!((histogram_drift(&lo, &hi) - 1.0).abs() < 1e-12);
    }
}
