//! Ring membership dynamics and their data-movement cost.
//!
//! The related-work comparison (§VI) argues DHT-based discovery pays for
//! churn: record placement is determined by the hash, so when a server
//! joins or leaves, the records on the affected arc must move — and ROADS
//! avoids this entirely because summaries are soft state that simply
//! refreshes. This module implements a dynamic identifier circle with
//! arbitrary join positions, successor-based ownership, on-demand finger
//! routing, and byte accounting for every ownership transfer.

use roads_records::{Record, WireSize};
use std::collections::BTreeMap;

/// Scale factor mapping circle positions `[0,1)` to integer keys (avoids
/// float keys in the ordered map).
const POS_SCALE: f64 = (1u64 << 52) as f64;

fn key_of(p: f64) -> u64 {
    ((p.rem_euclid(1.0)) * POS_SCALE) as u64
}

/// Cost of one membership event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferCost {
    /// Records that changed owner.
    pub records_moved: u64,
    /// Bytes of record payload transferred.
    pub bytes: u64,
}

/// A dynamic ring: servers at arbitrary positions, each owning the arc
/// from its predecessor (exclusive) to itself (inclusive) — standard
/// consistent hashing with successor ownership.
#[derive(Debug, Clone, Default)]
pub struct DynamicRing {
    /// position-key → server id.
    members: BTreeMap<u64, u32>,
    /// Records stored per owning member's position-key, each tagged with
    /// its own hash position so ownership can be re-derived on churn.
    stored: BTreeMap<u64, Vec<(f64, Record)>>,
}

impl DynamicRing {
    /// Empty ring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of member servers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no servers are in the ring.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Server owning position `p`: the first member clockwise at or after
    /// `p` (wrapping).
    pub fn owner_of(&self, p: f64) -> Option<u32> {
        let k = key_of(p);
        self.members
            .range(k..)
            .next()
            .or_else(|| self.members.iter().next())
            .map(|(_, &s)| s)
    }

    fn owner_key_of(&self, p: f64) -> Option<u64> {
        let k = key_of(p);
        self.members
            .range(k..)
            .next()
            .or_else(|| self.members.iter().next())
            .map(|(&k, _)| k)
    }

    /// Add a server at position `p`. Records on the arc it takes over move
    /// from its successor; the returned cost accounts for them.
    pub fn join(&mut self, server: u32, p: f64) -> TransferCost {
        let k = key_of(p);
        let successor_key = self.owner_key_of(p);
        self.members.insert(k, server);
        self.stored.entry(k).or_default();
        let Some(succ) = successor_key else {
            return TransferCost::default(); // first member: nothing to move
        };
        if succ == k {
            return TransferCost::default();
        }
        // Records at the successor whose hash position now lands on the
        // new server move over.
        let succ_records = self.stored.remove(&succ).unwrap_or_default();
        let (mut keep, mut moved) = (Vec::new(), Vec::new());
        for (pos, rec) in succ_records {
            if self.owner_key_of(pos) == Some(k) {
                moved.push((pos, rec));
            } else {
                keep.push((pos, rec));
            }
        }
        let cost = TransferCost {
            records_moved: moved.len() as u64,
            bytes: moved.iter().map(|(_, r)| r.wire_size() as u64).sum(),
        };
        self.stored.insert(succ, keep);
        self.stored.entry(k).or_default().extend(moved);
        cost
    }

    /// Remove the server at position `p` (graceful leave). Its records move
    /// to its successor.
    pub fn leave(&mut self, p: f64) -> TransferCost {
        let k = key_of(p);
        if self.members.remove(&k).is_none() {
            return TransferCost::default();
        }
        let orphaned = self.stored.remove(&k).unwrap_or_default();
        let cost = TransferCost {
            records_moved: orphaned.len() as u64,
            bytes: orphaned.iter().map(|(_, r)| r.wire_size() as u64).sum(),
        };
        if let Some(succ) = self.owner_key_of(k as f64 / POS_SCALE) {
            self.stored.entry(succ).or_default().extend(orphaned);
        }
        cost
    }

    /// Remove whichever member currently owns position `p` (useful for
    /// random-victim churn experiments). No-op on an empty ring.
    pub fn leave_nearest(&mut self, p: f64) -> TransferCost {
        match self.owner_key_of(p) {
            Some(k) => self.leave(k as f64 / POS_SCALE),
            None => TransferCost::default(),
        }
    }

    /// Store a record at the owner of position `p`.
    pub fn store(&mut self, p: f64, record: Record) {
        if let Some(k) = self.owner_key_of(p) {
            self.stored.entry(k).or_default().push((p, record));
        }
    }

    /// Total records in the ring.
    pub fn total_records(&self) -> usize {
        self.stored.values().map(Vec::len).sum()
    }

    /// Greedy clockwise routing from the member at `from_p` to the owner of
    /// `to_p`, halving the remaining arc per hop (Chord-style fingers
    /// simulated over the live membership). Returns the hop count.
    pub fn route_hops(&self, from_p: f64, to_p: f64) -> usize {
        let Some(target) = self.owner_key_of(to_p) else {
            return 0;
        };
        let Some(mut cur) = self.owner_key_of(from_p) else {
            return 0;
        };
        let mut hops = 0;
        let full = POS_SCALE as u64;
        while cur != target && hops < self.members.len() {
            let remaining = target.wrapping_sub(cur) % full;
            // Best finger: the farthest member within half the remaining
            // arc… iterate powers of two like a finger table.
            let mut step = remaining;
            let mut next = None;
            while step > 0 {
                let probe = (cur + step) % full;
                // Owner at or before `probe`, but after cur (clockwise).
                if let Some(k) = self.member_at_or_before(probe, cur, target) {
                    next = Some(k);
                    break;
                }
                step /= 2;
            }
            match next {
                Some(k) if k != cur => {
                    cur = k;
                    hops += 1;
                }
                _ => {
                    // Fall back to the immediate successor.
                    cur = self
                        .members
                        .range((cur + 1)..)
                        .next()
                        .or_else(|| self.members.iter().next())
                        .map(|(&k, _)| k)
                        .unwrap_or(target);
                    hops += 1;
                }
            }
        }
        hops
    }

    /// The farthest member at or before `probe` (clockwise from `cur`),
    /// not overshooting `target`.
    fn member_at_or_before(&self, probe: u64, cur: u64, target: u64) -> Option<u64> {
        let full = POS_SCALE as u64;
        let dist = |k: u64| k.wrapping_sub(cur) % full;
        let limit = dist(target);
        self.members
            .keys()
            .copied()
            .filter(|&k| k != cur && dist(k) <= dist(probe).min(limit) && dist(k) > 0)
            .max_by_key(|&k| dist(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_records::{OwnerId, RecordId, Value};

    fn rec(id: u64) -> Record {
        Record::new_unchecked(RecordId(id), OwnerId(0), vec![Value::Float(0.5)])
    }

    fn ring_with(positions: &[f64]) -> DynamicRing {
        let mut r = DynamicRing::new();
        for (i, &p) in positions.iter().enumerate() {
            r.join(i as u32, p);
        }
        r
    }

    #[test]
    fn successor_ownership() {
        let r = ring_with(&[0.1, 0.5, 0.9]);
        assert_eq!(r.owner_of(0.05), Some(0));
        assert_eq!(r.owner_of(0.3), Some(1));
        assert_eq!(r.owner_of(0.7), Some(2));
        assert_eq!(r.owner_of(0.95), Some(0), "wraps to the first member");
    }

    /// Records currently stored at the server owning position `p`.
    fn stored_at(r: &DynamicRing, p: f64) -> usize {
        r.owner_key_of(p)
            .and_then(|k| r.stored.get(&k))
            .map_or(0, Vec::len)
    }

    #[test]
    fn join_moves_only_the_taken_arc() {
        let mut r = ring_with(&[0.5]);
        for i in 0..10 {
            r.store(i as f64 / 10.0, rec(i));
        }
        assert_eq!(stored_at(&r, 0.5), 10);
        // New member at 0.2 takes over (0.5, 0.2] wrapping — i.e. positions
        // 0.6..1.0 and 0.0..=0.2.
        let cost = r.join(1, 0.2);
        assert!(cost.records_moved > 0);
        assert_eq!(r.total_records(), 10, "no records lost");
        assert_eq!(
            stored_at(&r, 0.2) as u64,
            cost.records_moved,
            "moved records land on the new member"
        );
    }

    #[test]
    fn leave_hands_records_to_successor() {
        let mut r = ring_with(&[0.25, 0.75]);
        for i in 0..8 {
            r.store(i as f64 / 8.0, rec(i));
        }
        let before = r.total_records();
        let cost = r.leave(0.25);
        assert_eq!(r.len(), 1);
        assert_eq!(r.total_records(), before, "successor inherits everything");
        assert!(cost.records_moved > 0);
        assert!(cost.bytes > 0);
    }

    #[test]
    fn empty_ring_operations() {
        let mut r = DynamicRing::new();
        assert!(r.is_empty());
        assert_eq!(r.owner_of(0.3), None);
        assert_eq!(r.leave(0.3), TransferCost::default());
        let cost = r.join(0, 0.3);
        assert_eq!(cost, TransferCost::default());
        assert_eq!(r.owner_of(0.999), Some(0));
    }

    #[test]
    fn routing_reaches_owner_in_log_hops() {
        let mut r = DynamicRing::new();
        for i in 0..256u32 {
            r.join(i, (i as f64 * 0.618_033_988_75) % 1.0);
        }
        let mut worst = 0;
        for probe in [0.01, 0.2, 0.43, 0.77, 0.99] {
            for from in [0.0, 0.5] {
                worst = worst.max(r.route_hops(from, probe));
            }
        }
        assert!(worst <= 16, "route took {worst} hops in a 256-member ring");
    }

    #[test]
    fn churn_cost_scales_with_stored_records() {
        let mut small = ring_with(&[0.5]);
        let mut large = ring_with(&[0.5]);
        for i in 0..10 {
            small.store(i as f64 / 10.0, rec(i));
        }
        for i in 0..100 {
            large.store(i as f64 / 100.0, rec(i));
        }
        let c_small = small.join(1, 0.2);
        let c_large = large.join(1, 0.2);
        assert!(c_large.records_moved > 5 * c_small.records_moved);
    }
}
