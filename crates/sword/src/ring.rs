//! The multi-ring identifier circle with locality-preserving placement and
//! Chord-style finger routing.
//!
//! All `n` servers sit on one identifier circle `[0, 1)`; server `i` owns
//! position `i / n`. The circle is split into `r` equal arcs, one per
//! searchable attribute (the paper's "multiple sub-rings in a single
//! ring"); a value `v ∈ \[0,1\]` of attribute `a` hashes to `(a + v) / r`,
//! which preserves locality: a value range maps to a contiguous arc inside
//! attribute `a`'s sub-ring.
//!
//! Each server keeps Chord fingers at power-of-two distances over the whole
//! circle, so any position is reachable in `O(log n)` greedy hops.

/// The identifier circle.
#[derive(Debug, Clone)]
pub struct MultiRing {
    n: usize,
    rings: usize,
    /// fingers[i][j] = index of successor(i + 2^j positions).
    fingers: Vec<Vec<usize>>,
}

impl MultiRing {
    /// Build the circle for `n` servers and `rings` attribute sub-rings.
    ///
    /// # Panics
    /// If `n == 0` or `rings == 0`.
    pub fn new(n: usize, rings: usize) -> Self {
        assert!(n > 0, "a ring needs at least one server");
        assert!(rings > 0, "at least one attribute ring");
        let levels = usize::BITS as usize - n.leading_zeros() as usize;
        let fingers = (0..n)
            .map(|i| {
                (0..levels.max(1))
                    .map(|j| (i + (1usize << j)) % n)
                    .collect()
            })
            .collect();
        MultiRing { n, rings, fingers }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the ring holds no servers (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of attribute sub-rings (the paper's `r`).
    pub fn rings(&self) -> usize {
        self.rings
    }

    /// Locality-preserving hash: value `v` (clamped into `\[0,1\]`) of
    /// attribute `attr` → circle position in attribute `attr`'s arc.
    pub fn hash(&self, attr: usize, v: f64) -> f64 {
        let a = attr % self.rings;
        let v = v.clamp(0.0, 1.0);
        // Map the closed value 1.0 just inside the arc so it does not bleed
        // into the next attribute's sub-ring.
        (a as f64 + v.min(1.0 - f64::EPSILON)) / self.rings as f64
    }

    /// The server owning circle position `p` (its successor): server `i`
    /// owns `[i/n, (i+1)/n)`.
    pub fn owner_of(&self, p: f64) -> usize {
        let p = p.rem_euclid(1.0);
        ((p * self.n as f64).floor() as usize).min(self.n - 1)
    }

    /// Clockwise successor of a server on the circle.
    pub fn successor(&self, server: usize) -> usize {
        (server + 1) % self.n
    }

    /// Clockwise distance (in positions) from server `a` to server `b`.
    fn clockwise(&self, a: usize, b: usize) -> usize {
        (b + self.n - a) % self.n
    }

    /// Greedy Chord routing from `from` to the owner of position `p`:
    /// repeatedly take the largest finger that does not overshoot. Returns
    /// the hop path, excluding the source, including the destination (empty
    /// when `from` already owns `p`).
    pub fn route(&self, from: usize, p: f64) -> Vec<usize> {
        let target = self.owner_of(p);
        let mut path = Vec::new();
        let mut cur = from;
        while cur != target {
            let remaining = self.clockwise(cur, target);
            // Largest finger ≤ remaining; finger j covers 2^j positions.
            let step = self.fingers[cur]
                .iter()
                .copied()
                .enumerate()
                .filter(|&(j, _)| (1usize << j) <= remaining)
                .map(|(_, f)| f)
                .next_back()
                .unwrap_or(self.successor(cur));
            cur = step;
            path.push(cur);
        }
        path
    }

    /// The contiguous segment of servers whose arcs intersect the hashed
    /// range `[lo, hi]` of attribute `attr`, in clockwise order.
    pub fn segment(&self, attr: usize, lo: f64, hi: f64) -> Vec<usize> {
        if lo > hi {
            return Vec::new();
        }
        let first = self.owner_of(self.hash(attr, lo));
        let last = self.owner_of(self.hash(attr, hi));
        let mut seg = vec![first];
        let mut cur = first;
        while cur != last {
            cur = self.successor(cur);
            seg.push(cur);
        }
        seg
    }

    /// Number of routing hops from `from` to the owner of `p` (path
    /// length).
    pub fn route_hops(&self, from: usize, p: f64) -> usize {
        self.route(from, p).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positions_partition_circle() {
        let r = MultiRing::new(10, 2);
        for i in 0..10 {
            // Server i's arc starts at i/n.
            assert_eq!(r.owner_of(i as f64 / 10.0), i);
            // A point just inside the arc still belongs to i.
            assert_eq!(r.owner_of(i as f64 / 10.0 + 0.05), i);
        }
    }

    #[test]
    fn hash_is_locality_preserving() {
        let r = MultiRing::new(64, 4);
        // Within one attribute, order of values = order of positions.
        let (a, b, c) = (r.hash(1, 0.1), r.hash(1, 0.5), r.hash(1, 0.9));
        assert!(a < b && b < c);
        // Different attributes land in disjoint arcs.
        assert!(r.hash(0, 0.999) < r.hash(1, 0.0));
        assert!(r.hash(1, 0.999) < r.hash(2, 0.0));
        // Value 1.0 stays inside its attribute's arc.
        assert!(r.hash(1, 1.0) < 0.5);
    }

    #[test]
    fn route_reaches_target() {
        let r = MultiRing::new(100, 4);
        for from in [0usize, 13, 50, 99] {
            for p in [0.0, 0.26, 0.51, 0.77, 0.999] {
                let path = r.route(from, p);
                let target = r.owner_of(p);
                if from == target {
                    assert!(path.is_empty());
                } else {
                    assert_eq!(*path.last().unwrap(), target);
                }
            }
        }
    }

    #[test]
    fn route_is_logarithmic() {
        let r = MultiRing::new(1024, 4);
        let mut worst = 0;
        for from in (0..1024).step_by(37) {
            for p in [0.1, 0.35, 0.62, 0.9] {
                worst = worst.max(r.route_hops(from, p));
            }
        }
        // Chord bound: ≤ log2(n) hops.
        assert!(worst <= 10, "worst route {worst} hops in a 1024 ring");
    }

    #[test]
    fn segment_covers_hashed_range() {
        let r = MultiRing::new(64, 4);
        let seg = r.segment(2, 0.25, 0.75);
        // Attribute 2's arc is [0.5, 0.75); the hashed range spans
        // [0.5625, 0.6875] → 64 × 0.125 ≈ 8 or 9 servers.
        assert!(
            (8..=9).contains(&seg.len()),
            "segment {} servers",
            seg.len()
        );
        // Contiguity.
        for w in seg.windows(2) {
            assert_eq!(w[1], r.successor(w[0]));
        }
        // Segment servers hold every hashed value of the range.
        for v in [0.25, 0.4, 0.6, 0.75] {
            assert!(seg.contains(&r.owner_of(r.hash(2, v))));
        }
    }

    #[test]
    fn segment_size_proportional_to_nodes() {
        // The paper's Fig. 3 argument: for fixed selectivity the matching
        // segment grows linearly with n.
        // 64 servers / 16 rings = 4 per sub-ring → 0.25 of it ≈ 2 servers;
        // 640 servers → 40 per sub-ring → ≈ 11 servers.
        let small = MultiRing::new(64, 16).segment(0, 0.0, 0.25).len();
        let large = MultiRing::new(640, 16).segment(0, 0.0, 0.25).len();
        assert!(
            large as f64 >= 5.0 * small as f64,
            "segment should scale with n: {small} → {large}"
        );
    }

    #[test]
    fn empty_range_empty_segment() {
        let r = MultiRing::new(16, 2);
        assert!(r.segment(0, 0.7, 0.2).is_empty());
    }

    #[test]
    fn single_server_ring() {
        let r = MultiRing::new(1, 4);
        assert_eq!(r.owner_of(0.99), 0);
        assert!(r.route(0, 0.5).is_empty());
        assert_eq!(r.segment(3, 0.0, 1.0), vec![0]);
    }
}
