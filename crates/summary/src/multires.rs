//! Multi-resolution histogram pyramids.
//!
//! The paper lists "multi-resolution summarization \[11\]" (Ganesan et al.,
//! *Multi-resolution storage and search in sensor networks*) among the
//! aggregation methods usable in ROADS. The idea: keep a pyramid of
//! histograms at successively coarser resolutions; when forwarding a summary
//! upward under a byte budget, transmit the finest level that fits. Queries
//! evaluated against a coarser level remain conservative (no false
//! negatives) because coarsening only unions bucket ranges.

use crate::histogram::{Histogram, MergeError};
use roads_records::WireSize;
use serde::{Deserialize, Serialize};

/// A pyramid of histograms: level 0 is the finest (most buckets); each next
/// level halves the bucket count, down to a single bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiResHistogram {
    levels: Vec<Histogram>,
}

impl MultiResHistogram {
    /// Build a pyramid from a finest-level histogram.
    ///
    /// # Panics
    /// If the bucket count is not a power of two (levels must halve evenly).
    pub fn from_finest(finest: Histogram) -> Self {
        assert!(
            finest.bucket_count().is_power_of_two(),
            "finest level must have a power-of-two bucket count"
        );
        let mut levels = vec![finest];
        while levels.last().expect("non-empty").bucket_count() > 1 {
            let next = levels.last().expect("non-empty").coarsen(2);
            levels.push(next);
        }
        MultiResHistogram { levels }
    }

    /// Build from raw values over `[lo, hi]` with `m` (power-of-two) finest
    /// buckets.
    pub fn from_values(lo: f64, hi: f64, m: usize, values: impl IntoIterator<Item = f64>) -> Self {
        Self::from_finest(Histogram::from_values(lo, hi, m, values))
    }

    /// Number of pyramid levels.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Histogram at `level` (0 = finest).
    pub fn level(&self, level: usize) -> &Histogram {
        &self.levels[level]
    }

    /// The finest level.
    pub fn finest(&self) -> &Histogram {
        &self.levels[0]
    }

    /// The coarsest level (single bucket = total count).
    pub fn coarsest(&self) -> &Histogram {
        self.levels.last().expect("non-empty")
    }

    /// Finest level whose wire size fits within `budget_bytes`, if any.
    pub fn level_for_budget(&self, budget_bytes: usize) -> Option<&Histogram> {
        self.levels.iter().find(|h| h.wire_size() <= budget_bytes)
    }

    /// Conservative range test against the finest level.
    pub fn may_match_range(&self, lo: f64, hi: f64) -> bool {
        self.finest().may_match_range(lo, hi)
    }

    /// Record one value at every level. Because each coarser level's bucket
    /// counts are exact sums of finest-level buckets (power-of-two widths,
    /// so bucket mapping nests exactly), per-level insertion produces the
    /// same pyramid as rebuilding from an updated finest level.
    pub fn insert(&mut self, v: f64) {
        for level in &mut self.levels {
            level.insert(v);
        }
    }

    /// Whether [`MultiResHistogram::remove`] of `v` would succeed at every
    /// level.
    pub fn can_remove(&self, v: f64) -> bool {
        self.levels.iter().all(|l| l.can_remove(v))
    }

    /// Remove one previously inserted value from every level. Returns
    /// `false` — leaving the pyramid untouched — when any level refuses
    /// (saturation or an empty target bucket); the caller must then rebuild
    /// from the underlying records.
    pub fn remove(&mut self, v: f64) -> bool {
        if !self.can_remove(v) {
            return false;
        }
        for level in &mut self.levels {
            let removed = level.remove(v);
            debug_assert!(removed, "can_remove vouched for every level");
        }
        true
    }

    /// Exactly reverse a [`MultiResHistogram::merge`] of `other` at every
    /// level. Returns `false` — leaving the pyramid untouched — when any
    /// level refuses (see [`Histogram::unmerge`]).
    pub fn unmerge(&mut self, other: &MultiResHistogram) -> bool {
        let mut levels = self.levels.clone();
        let exact = levels.len() == other.levels.len()
            && levels
                .iter_mut()
                .zip(&other.levels)
                .all(|(a, b)| a.unmerge(b));
        if exact {
            self.levels = levels;
        }
        exact
    }

    /// Merge another pyramid level-by-level.
    pub fn merge(&mut self, other: &MultiResHistogram) -> Result<(), MergeError> {
        if self.levels.len() != other.levels.len() {
            return Err(MergeError {
                reason: format!(
                    "level counts differ: {} vs {}",
                    self.levels.len(),
                    other.levels.len()
                ),
            });
        }
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.merge(b)?;
        }
        Ok(())
    }
}

impl WireSize for MultiResHistogram {
    fn wire_size(&self) -> usize {
        // level count (1) + all levels
        1 + self.levels.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pyramid(values: &[f64]) -> MultiResHistogram {
        MultiResHistogram::from_values(0.0, 1.0, 8, values.iter().copied())
    }

    #[test]
    fn level_structure() {
        let p = pyramid(&[0.1, 0.9]);
        assert_eq!(p.level_count(), 4); // 8, 4, 2, 1
        assert_eq!(p.level(0).bucket_count(), 8);
        assert_eq!(p.level(3).bucket_count(), 1);
    }

    #[test]
    fn totals_identical_across_levels() {
        let p = pyramid(&[0.1, 0.5, 0.9, 0.95]);
        for lvl in 0..p.level_count() {
            assert_eq!(p.level(lvl).total(), 4);
        }
    }

    #[test]
    fn coarser_levels_are_conservative() {
        let p = pyramid(&[0.05]); // finest bucket [0,0.125)
                                  // Query [0.2,0.24] misses at finest level…
        assert!(!p.level(0).may_match_range(0.2, 0.24));
        // …but the 2-bucket level [0,0.5) must report a (false) positive —
        // coarsening never creates a false negative, only false positives.
        assert!(p.level(2).may_match_range(0.2, 0.24));
    }

    #[test]
    fn budget_selection_picks_finest_that_fits() {
        let p = pyramid(&[0.5]);
        // Finest: 20+32=52 bytes, next 20+16=36, then 28, then 24.
        assert_eq!(p.level_for_budget(52).unwrap().bucket_count(), 8);
        assert_eq!(p.level_for_budget(40).unwrap().bucket_count(), 4);
        assert_eq!(p.level_for_budget(24).unwrap().bucket_count(), 1);
        assert!(p.level_for_budget(10).is_none());
    }

    #[test]
    fn merge_all_levels() {
        let mut a = pyramid(&[0.1]);
        let b = pyramid(&[0.9]);
        a.merge(&b).unwrap();
        assert_eq!(a.finest().total(), 2);
        assert_eq!(a.coarsest().total(), 2);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_rejected() {
        let _ = MultiResHistogram::from_values(0.0, 1.0, 6, [0.5]);
    }

    #[test]
    fn per_level_insert_matches_rebuild() {
        let mut incremental = pyramid(&[0.1, 0.5]);
        incremental.insert(0.73);
        let rebuilt = pyramid(&[0.1, 0.5, 0.73]);
        assert_eq!(incremental, rebuilt, "per-level insert ≡ pyramid rebuild");
    }

    #[test]
    fn remove_reverses_insert_across_levels() {
        let mut p = pyramid(&[0.1, 0.5, 0.9]);
        assert!(p.remove(0.5));
        assert_eq!(p, pyramid(&[0.1, 0.9]));
        // A value never inserted leaves an empty finest bucket: refused,
        // and no level is half-modified.
        let before = p.clone();
        assert!(!p.remove(0.5));
        assert_eq!(p, before);
    }
}
