//! Bloom filters for categorical attributes with large vocabularies.
//!
//! The paper points at Bloom's construction \[10\] as a "more efficient data
//! structure" than enumerating all categorical values, "as long as they
//! compress data and support query evaluation" (§III-B). A Bloom filter is a
//! fixed-size bit array with `k` hash probes per element; membership tests
//! have no false negatives and a tunable false-positive rate, and two
//! filters over the same configuration merge by bitwise OR — exactly the
//! semantics ROADS needs for bottom-up aggregation.

use roads_records::WireSize;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error merging structurally incompatible Bloom filters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomMergeError {
    /// Human-readable explanation.
    pub reason: String,
}

impl fmt::Display for BloomMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bloom merge error: {}", self.reason)
    }
}

impl std::error::Error for BloomMergeError {}

/// Fidelity probe of one Bloom filter: how full it is and how trustworthy
/// its positive answers are at that fill level (see
/// [`BloomFilter::saturation`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BloomSaturation {
    /// Fraction of set bits (fill ratio), in `[0, 1]`.
    pub load: f64,
    /// Estimated false-positive probability at this load (`load^k`).
    pub estimated_fp_rate: f64,
    /// Elements inserted (including merged-in counts).
    pub inserted: u64,
    /// Filter size in bits.
    pub bits: usize,
}

impl BloomSaturation {
    /// A saturated filter answers "maybe" so often that it has stopped
    /// pruning: conventionally load > 1/2 (the optimally-sized operating
    /// point), at which the FP rate grows past `2^-k`.
    pub fn is_saturated(&self) -> bool {
        self.load > 0.5
    }
}

/// Fixed-size Bloom filter over string values.
///
/// Uses Kirsch–Mitzenmatcher double hashing: two independent 64-bit FNV-1a
/// variants generate `k` probe positions as `h1 + i·h2`. The implementation
/// is self-contained (no external hash crates) and deterministic across
/// platforms, which matters for replayable simulations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m_bits: usize,
    k: u32,
    inserted: u64,
}

impl BloomFilter {
    /// Empty filter with `m_bits` bits and `k` probes.
    ///
    /// # Panics
    /// If `m_bits == 0` or `k == 0`.
    pub fn new(m_bits: usize, k: u32) -> Self {
        assert!(m_bits > 0, "bloom filter needs at least one bit");
        assert!(k > 0, "bloom filter needs at least one hash");
        BloomFilter {
            bits: vec![0; m_bits.div_ceil(64)],
            m_bits,
            k,
            inserted: 0,
        }
    }

    /// Filter sized for `expected` elements at the target false-positive
    /// rate `fp` (standard formulas: m = -n·ln p / ln²2, k = m/n·ln 2).
    pub fn with_capacity(expected: usize, fp: f64) -> Self {
        let n = expected.max(1) as f64;
        let p = fp.clamp(1e-10, 0.5);
        let m = (-(n * p.ln()) / (std::f64::consts::LN_2.powi(2))).ceil() as usize;
        let k = ((m as f64 / n) * std::f64::consts::LN_2).round().max(1.0) as u32;
        BloomFilter::new(m.max(64), k)
    }

    /// Elements inserted locally (merges add the counts).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// True when no element has ever been inserted.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    fn hashes(&self, v: &str) -> (u64, u64) {
        (fnv1a(v.as_bytes(), 0xcbf2_9ce4_8422_2325), {
            // Second seed: splitmix of the first basis for independence.
            fnv1a(v.as_bytes(), 0x9e37_79b9_7f4a_7c15)
        })
    }

    fn probe_positions(&self, v: &str) -> impl Iterator<Item = usize> + '_ {
        let (h1, h2) = self.hashes(v);
        let m = self.m_bits as u64;
        (0..self.k as u64).map(move |i| (h1.wrapping_add(i.wrapping_mul(h2)) % m) as usize)
    }

    /// Insert one value.
    pub fn insert(&mut self, v: &str) {
        let positions: Vec<usize> = self.probe_positions(v).collect();
        for pos in positions {
            self.bits[pos / 64] |= 1u64 << (pos % 64);
        }
        self.inserted += 1;
    }

    /// Membership test: false means definitely absent; true means probably
    /// present (false-positive rate depends on load).
    pub fn contains(&self, v: &str) -> bool {
        self.probe_positions(v)
            .all(|pos| self.bits[pos / 64] & (1u64 << (pos % 64)) != 0)
    }

    /// Merge by bitwise OR (aggregation of child summaries).
    pub fn merge(&mut self, other: &BloomFilter) -> Result<(), BloomMergeError> {
        if self.m_bits != other.m_bits || self.k != other.k {
            return Err(BloomMergeError {
                reason: format!(
                    "configs differ: ({} bits, k={}) vs ({} bits, k={})",
                    self.m_bits, self.k, other.m_bits, other.k
                ),
            });
        }
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
        self.inserted += other.inserted;
        Ok(())
    }

    /// Fraction of set bits (load factor); predicts the false-positive rate
    /// as `load^k`.
    pub fn load(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        set as f64 / self.m_bits as f64
    }

    /// Estimated false-positive probability at current load.
    pub fn estimated_fp_rate(&self) -> f64 {
        self.load().powi(self.k as i32)
    }

    /// Fidelity probe: fill ratio plus the FP rate it implies, as one
    /// report (the audit plane's per-summary `bloom` column).
    pub fn saturation(&self) -> BloomSaturation {
        BloomSaturation {
            load: self.load(),
            estimated_fp_rate: self.estimated_fp_rate(),
            inserted: self.inserted,
            bits: self.m_bits,
        }
    }

    /// Fraction of bit positions on which two same-configured filters
    /// disagree, in `[0, 1]` (`None` when the configurations differ). A
    /// replica copy of a branch filter drifts from the authoritative one
    /// exactly in these bits.
    pub fn bit_difference(&self, other: &BloomFilter) -> Option<f64> {
        if self.m_bits != other.m_bits || self.k != other.k {
            return None;
        }
        let differing: u32 = self
            .bits
            .iter()
            .zip(&other.bits)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        Some(differing as f64 / self.m_bits as f64)
    }

    /// Reset all bits, keeping the configuration.
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.inserted = 0;
    }
}

impl WireSize for BloomFilter {
    fn wire_size(&self) -> usize {
        // m_bits (4) + k (1) + bit words
        5 + 8 * self.bits.len()
    }
}

/// 64-bit FNV-1a with a custom basis (used as a seed).
fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Final avalanche (splitmix64 tail) to decorrelate the two seeds.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::new(1024, 4);
        for i in 0..100 {
            f.insert(&format!("value-{i}"));
        }
        for i in 0..100 {
            assert!(f.contains(&format!("value-{i}")));
        }
    }

    #[test]
    fn empty_contains_nothing() {
        let f = BloomFilter::new(256, 3);
        assert!(!f.contains("anything"));
        assert!(f.is_empty());
    }

    #[test]
    fn merge_is_or() {
        let mut a = BloomFilter::new(512, 3);
        let mut b = BloomFilter::new(512, 3);
        a.insert("left");
        b.insert("right");
        a.merge(&b).unwrap();
        assert!(a.contains("left"));
        assert!(a.contains("right"));
        assert_eq!(a.inserted(), 2);
    }

    #[test]
    fn merge_incompatible_rejected() {
        let mut a = BloomFilter::new(512, 3);
        let b = BloomFilter::new(256, 3);
        assert!(a.merge(&b).is_err());
        let c = BloomFilter::new(512, 4);
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn capacity_sizing_hits_target_fp() {
        let mut f = BloomFilter::with_capacity(1000, 0.01);
        for i in 0..1000 {
            f.insert(&format!("elem-{i}"));
        }
        // Count false positives over a disjoint probe set.
        let fp = (0..10_000)
            .filter(|i| f.contains(&format!("probe-{i}")))
            .count();
        // 1% target; allow generous slack for hash variance.
        assert!(fp < 300, "false positives: {fp}/10000");
    }

    #[test]
    fn wire_size_constant() {
        let mut a = BloomFilter::new(1024, 4);
        let empty_size = a.wire_size();
        for i in 0..500 {
            a.insert(&format!("v{i}"));
        }
        assert_eq!(a.wire_size(), empty_size);
        assert_eq!(empty_size, 5 + 8 * 16);
    }

    #[test]
    fn load_and_fp_estimates_monotonic() {
        let mut f = BloomFilter::new(256, 2);
        let before = f.estimated_fp_rate();
        for i in 0..50 {
            f.insert(&format!("x{i}"));
        }
        assert!(f.load() > 0.0);
        assert!(f.estimated_fp_rate() > before);
    }

    #[test]
    fn saturation_reports_fill_and_fp() {
        let mut f = BloomFilter::new(128, 2);
        let empty = f.saturation();
        assert_eq!(empty.load, 0.0);
        assert_eq!(empty.estimated_fp_rate, 0.0);
        assert!(!empty.is_saturated());
        for i in 0..200 {
            f.insert(&format!("v{i}"));
        }
        let full = f.saturation();
        assert!(full.load > 0.5);
        assert!(full.is_saturated());
        assert_eq!(full.inserted, 200);
        assert_eq!(full.bits, 128);
        assert!((full.estimated_fp_rate - full.load.powi(2)).abs() < 1e-12);
    }

    #[test]
    fn bit_difference_measures_divergence() {
        let mut a = BloomFilter::new(512, 3);
        let mut b = BloomFilter::new(512, 3);
        assert_eq!(a.bit_difference(&b), Some(0.0));
        a.insert("only-in-a");
        let d = a.bit_difference(&b).unwrap();
        assert!(d > 0.0 && d <= 3.0 / 512.0, "d={d}");
        // Symmetric, and zero once the copies re-converge.
        assert_eq!(a.bit_difference(&b), b.bit_difference(&a));
        b.merge(&a).unwrap();
        assert_eq!(a.bit_difference(&b), Some(0.0));
        // Mismatched configs are not comparable.
        assert_eq!(a.bit_difference(&BloomFilter::new(256, 3)), None);
    }

    #[test]
    fn clear_resets() {
        let mut f = BloomFilter::new(128, 2);
        f.insert("a");
        f.clear();
        assert!(f.is_empty());
        assert_eq!(f.inserted(), 0);
    }
}
