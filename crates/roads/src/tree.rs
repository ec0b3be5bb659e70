//! The federated hierarchy (§III-A).
//!
//! Servers form a tree by voluntary association. A joining server walks down
//! from the root, at each step choosing "the child whose branch has the
//! least depth, or least number of descendants when depths are equal", until
//! it reaches a server willing to accept it. Each server tracks per-child
//! branch depth and descendant counts (derived from bottom-up aggregation),
//! and each node knows its *root path* — used both to rejoin after a parent
//! failure and to avoid loops when choosing a parent.

use std::collections::VecDeque;
use std::fmt;

/// Index of a server within the federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

impl ServerId {
    /// Usize view for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Errors from hierarchy operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The server is already part of the hierarchy.
    AlreadyJoined(ServerId),
    /// The server is not part of the hierarchy.
    NotJoined(ServerId),
    /// Joining would create a loop (the candidate parent's root path
    /// contains the joining server).
    LoopDetected(ServerId),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::AlreadyJoined(s) => write!(f, "{s} already joined"),
            TreeError::NotJoined(s) => write!(f, "{s} is not in the hierarchy"),
            TreeError::LoopDetected(s) => write!(f, "joining {s} would create a loop"),
        }
    }
}

impl std::error::Error for TreeError {}

/// The server hierarchy: a rooted tree over servers `0..capacity`.
///
/// The structure is a *converged view* of the federation used by the
/// simulators and the engine. Churn is not modelled here: the live,
/// message-driven version of the same rules — the join walk plus rejoin
/// from the grandparent, smallest-id root election and leave — runs in
/// [`crate::maintenance`].
///
/// ```
/// use roads_core::tree::{HierarchyTree, ServerId};
///
/// // 156 servers fill a 4-level 5-ary tree exactly (the paper's Section IV
/// // example).
/// let tree = HierarchyTree::build(156, 5);
/// assert_eq!(tree.levels(), 4);
/// assert_eq!(tree.root(), ServerId(0));
/// let leaf = *tree.leaves().last().unwrap();
/// assert_eq!(tree.root_path(leaf).len(), 4); // root ... leaf
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyTree {
    parent: Vec<Option<ServerId>>,
    children: Vec<Vec<ServerId>>,
    joined: Vec<bool>,
    root: ServerId,
}

impl HierarchyTree {
    /// A hierarchy with capacity for `capacity` servers, rooted at `root`,
    /// with only the root joined.
    pub fn new(capacity: usize, root: ServerId) -> Self {
        assert!(root.index() < capacity, "root must be within capacity");
        let mut joined = vec![false; capacity];
        joined[root.index()] = true;
        HierarchyTree {
            parent: vec![None; capacity],
            children: vec![Vec::new(); capacity],
            joined,
            root,
        }
    }

    /// Build a hierarchy of `n` servers joining in id order (server 0 is
    /// the root) under the paper's balance-aware walk with `max_children`.
    pub fn build(n: usize, max_children: usize) -> Self {
        let mut t = HierarchyTree::new(n, ServerId(0));
        for s in 1..n {
            t.join(ServerId(s as u32), max_children)
                .expect("sequential joins cannot loop");
        }
        t
    }

    /// The current root.
    pub fn root(&self) -> ServerId {
        self.root
    }

    /// Capacity (ids range over `0..capacity`).
    pub fn capacity(&self) -> usize {
        self.parent.len()
    }

    /// Number of joined servers.
    pub fn len(&self) -> usize {
        self.joined.iter().filter(|&&j| j).count()
    }

    /// True when only the root (or nothing) is joined.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// True when `s` is part of the hierarchy.
    pub fn contains(&self, s: ServerId) -> bool {
        self.joined.get(s.index()).copied().unwrap_or(false)
    }

    /// Parent of `s` (`None` for the root and un-joined servers).
    pub fn parent(&self, s: ServerId) -> Option<ServerId> {
        self.parent[s.index()]
    }

    /// Children of `s`.
    pub fn children(&self, s: ServerId) -> &[ServerId] {
        &self.children[s.index()]
    }

    /// Siblings of `s` (other children of its parent).
    pub fn siblings(&self, s: ServerId) -> Vec<ServerId> {
        match self.parent(s) {
            Some(p) => self
                .children(p)
                .iter()
                .copied()
                .filter(|&c| c != s)
                .collect(),
            None => Vec::new(),
        }
    }

    /// Depth of `s` (root = 0).
    pub fn depth(&self, s: ServerId) -> usize {
        let mut d = 0;
        let mut cur = s;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the subtree rooted at `s` (leaf = 0).
    pub fn branch_depth(&self, s: ServerId) -> usize {
        self.children(s)
            .iter()
            .map(|&c| 1 + self.branch_depth(c))
            .max()
            .unwrap_or(0)
    }

    /// Number of descendants of `s` (excluding `s`).
    pub fn descendants(&self, s: ServerId) -> usize {
        self.children(s)
            .iter()
            .map(|&c| 1 + self.descendants(c))
            .sum()
    }

    /// Total levels in the hierarchy (the paper's `L + 1`): depth of the
    /// deepest server plus one.
    pub fn levels(&self) -> usize {
        1 + self.branch_depth(self.root)
    }

    /// The root path of `s`: all servers from the root down to `s`,
    /// inclusive ("each node also maintains a root path, containing all
    /// servers from the root to itself").
    pub fn root_path(&self, s: ServerId) -> Vec<ServerId> {
        let mut path = vec![s];
        let mut cur = s;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Ancestors of `s`, nearest first (parent, grandparent, …, root).
    pub fn ancestors(&self, s: ServerId) -> Vec<ServerId> {
        let mut out = Vec::new();
        let mut cur = s;
        while let Some(p) = self.parent(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// True when `a` lies on the root path of `b` (i.e. is `b` itself or an
    /// ancestor of `b`).
    pub fn on_root_path(&self, a: ServerId, b: ServerId) -> bool {
        let mut cur = Some(b);
        while let Some(c) = cur {
            if c == a {
                return true;
            }
            cur = self.parent(c);
        }
        false
    }

    /// Iterate the subtree rooted at `s` (including `s`) breadth-first.
    pub fn subtree(&self, s: ServerId) -> Vec<ServerId> {
        let mut out = Vec::new();
        let mut q = VecDeque::from([s]);
        while let Some(v) = q.pop_front() {
            out.push(v);
            q.extend(self.children(v).iter().copied());
        }
        out
    }

    /// The paper's join walk: starting from the root, repeatedly descend
    /// into "the child whose branch has the least depth, or least number of
    /// descendants when depths are equal", until reaching a server with
    /// spare capacity. Returns the chosen parent.
    ///
    /// Acceptance policy: a server accepts while it has fewer than
    /// `max_children` children. (Real deployments may also weigh
    /// administrative affinity and load, §III-A; the walk below is the
    /// balance-seeking core every policy plugs into.)
    pub fn join(&mut self, s: ServerId, max_children: usize) -> Result<ServerId, TreeError> {
        if self.contains(s) {
            return Err(TreeError::AlreadyJoined(s));
        }
        let parent = self.find_parent(self.root, max_children);
        self.attach(s, parent)?;
        Ok(parent)
    }

    /// The walk itself, starting at an arbitrary entry server (the paper's
    /// "needs to know one existing server", not necessarily the root).
    pub fn find_parent(&self, entry: ServerId, max_children: usize) -> ServerId {
        let mut cur = entry;
        loop {
            if self.children(cur).len() < max_children {
                return cur;
            }
            // Full: descend into the shallowest / smallest branch.
            let next = self
                .children(cur)
                .iter()
                .copied()
                .min_by_key(|&c| (self.branch_depth(c), self.descendants(c)))
                .expect("max_children > 0 implies children exist when full");
            cur = next;
        }
    }

    /// Attach `s` directly under `parent` (used by join and by
    /// `maintenance::extract_tree`). Enforces loop avoidance via the root
    /// path.
    pub fn attach(&mut self, s: ServerId, parent: ServerId) -> Result<(), TreeError> {
        if self.contains(s) {
            return Err(TreeError::AlreadyJoined(s));
        }
        if !self.contains(parent) {
            return Err(TreeError::NotJoined(parent));
        }
        // Loop check: s must not be on the parent's root path. (A not-yet-
        // joined server cannot be; the check keeps the invariant local.)
        if self.on_root_path(s, parent) {
            return Err(TreeError::LoopDetected(s));
        }
        self.parent[s.index()] = Some(parent);
        self.children[parent.index()].push(s);
        self.joined[s.index()] = true;
        Ok(())
    }

    /// All joined servers.
    pub fn servers(&self) -> Vec<ServerId> {
        (0..self.capacity() as u32)
            .map(ServerId)
            .filter(|&s| self.contains(s))
            .collect()
    }

    /// Leaves of the hierarchy.
    pub fn leaves(&self) -> Vec<ServerId> {
        self.servers()
            .into_iter()
            .filter(|&s| self.children(s).is_empty())
            .collect()
    }

    /// Validate structural invariants; returns a description of the first
    /// violation. Used by property tests and by `maintenance::extract_tree`.
    pub fn validate(&self) -> Result<(), String> {
        if !self.contains(self.root) {
            return Err("root not joined".into());
        }
        if self.parent(self.root).is_some() {
            return Err("root has a parent".into());
        }
        for s in self.servers() {
            for &c in self.children(s) {
                if self.parent(c) != Some(s) {
                    return Err(format!("child link {s}->{c} lacks a back pointer"));
                }
                if !self.contains(c) {
                    return Err(format!("child {c} of {s} not joined"));
                }
            }
            if s != self.root && self.parent(s).is_none() {
                return Err(format!("{s} is joined but parentless (orphan)"));
            }
        }
        // Reachability: every joined server must be in the root's subtree.
        let reach = self.subtree(self.root);
        if reach.len() != self.len() {
            return Err(format!(
                "{} joined servers but only {} reachable from root (cycle or orphan)",
                self.len(),
                reach.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_balanced() {
        let t = HierarchyTree::build(64, 4);
        t.validate().unwrap();
        assert_eq!(t.len(), 64);
        // Perfectly balanced 4-ary tree over 64 nodes has ≤ 4 levels
        // (1 + 4 + 16 + 43); the walk should stay within one extra level.
        assert!(t.levels() <= 4, "levels={}", t.levels());
        // No server exceeds its capacity.
        for s in t.servers() {
            assert!(t.children(s).len() <= 4);
        }
    }

    #[test]
    fn paper_hierarchy_sizes() {
        // §IV example: k = 5, L = 4 → 156 servers fill levels 0..3 exactly.
        let t = HierarchyTree::build(156, 5);
        assert_eq!(t.levels(), 4);
        let t2 = HierarchyTree::build(157, 5);
        assert_eq!(t2.levels(), 5);
    }

    #[test]
    fn depth_increase_at_fig3_jump() {
        // Fig. 3 notes a latency jump at 640 nodes when depth goes 4 → 5
        // (degree 8): 1+8+64+512 = 585 fills 4 levels.
        assert_eq!(HierarchyTree::build(585, 8).levels(), 4);
        assert_eq!(HierarchyTree::build(640, 8).levels(), 5);
    }

    #[test]
    fn root_path_and_ancestors() {
        let t = HierarchyTree::build(20, 3);
        let leaf = *t.leaves().first().unwrap();
        let path = t.root_path(leaf);
        assert_eq!(*path.first().unwrap(), t.root());
        assert_eq!(*path.last().unwrap(), leaf);
        let anc = t.ancestors(leaf);
        assert_eq!(anc.len(), path.len() - 1);
        assert_eq!(*anc.last().unwrap(), t.root());
        assert!(t.on_root_path(t.root(), leaf));
        assert!(!t.on_root_path(leaf, t.root()));
    }

    #[test]
    fn siblings_exclude_self() {
        let t = HierarchyTree::build(10, 3);
        let c = t.children(t.root());
        assert_eq!(c.len(), 3);
        let sib = t.siblings(c[0]);
        assert_eq!(sib.len(), 2);
        assert!(!sib.contains(&c[0]));
    }

    #[test]
    fn join_rejects_duplicates() {
        let mut t = HierarchyTree::build(4, 2);
        assert_eq!(
            t.join(ServerId(1), 2),
            Err(TreeError::AlreadyJoined(ServerId(1)))
        );
    }

    #[test]
    fn attach_detects_loops() {
        let mut t = HierarchyTree::build(8, 2);
        // Force: try to attach the root under a leaf — root is on every
        // root path, so this must be rejected.
        let leaf = *t.leaves().first().unwrap();
        assert_eq!(
            t.attach(ServerId(0), leaf),
            Err(TreeError::AlreadyJoined(ServerId(0)))
        );
    }

    #[test]
    fn find_parent_from_non_root_entry() {
        let t = HierarchyTree::build(30, 3);
        let entry = t.children(t.root())[1];
        let p = t.find_parent(entry, 3);
        // The walk stays inside the entry's branch.
        assert!(t.on_root_path(entry, p));
    }

    #[test]
    fn descendant_counts() {
        let t = HierarchyTree::build(7, 2);
        assert_eq!(t.descendants(t.root()), 6);
        let leaf = *t.leaves().first().unwrap();
        assert_eq!(t.descendants(leaf), 0);
    }

    #[test]
    fn subtree_bfs_covers_branch() {
        let t = HierarchyTree::build(15, 2);
        let all = t.subtree(t.root());
        assert_eq!(all.len(), 15);
        let c = t.children(t.root())[0];
        let sub = t.subtree(c);
        assert_eq!(sub.len(), 1 + t.descendants(c));
    }

    #[test]
    fn validate_detects_cycles() {
        let mut t = HierarchyTree::build(4, 2);
        // Manually corrupt: make the root a child of a leaf.
        let leaf = *t.leaves().first().unwrap();
        t.parent[0] = Some(leaf);
        t.children[leaf.index()].push(ServerId(0));
        assert!(t.validate().is_err());
    }
}
