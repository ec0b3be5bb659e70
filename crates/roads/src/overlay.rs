//! The replication overlay (§III-C).
//!
//! "Each server replicates the branch summaries of its siblings, its
//! ancestors, and its ancestors' siblings (in addition to storing the
//! summaries from its children and directly attached owners). We choose
//! such nodes such that each server stores summaries which combined
//! together cover the whole hierarchy."
//!
//! In Fig. 2: server D₁ replicates its sibling D₂, its ancestors C₁, B₁, A,
//! and their siblings C₂, B₂ — so a search can start at D₁ and be redirected
//! straight to C₂ and B₂ without climbing to the root.
//!
//! The ancestors' copies also tell D₁ whether an ancestor's *own* records
//! are worth a probe: C₁'s children are D₁ and D₂, both known to D₁, so
//! C₁'s local summary is its branch summary less theirs, and likewise one
//! level up (B₁ less C₁ and C₂) — see
//! [`RoadsNetwork::evaluate`](crate::RoadsNetwork::evaluate).

use crate::tree::{HierarchyTree, ServerId};

/// Why a server replicates a particular branch summary (§III-C's three
/// overlay constituents). The audit plane labels every ledger entry with
/// its role so divergence can be attributed to a constituent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReplicaRole {
    /// A sibling's branch.
    Sibling,
    /// An ancestor's branch (coverage accounting, scope widening, and —
    /// less its children's branches — the ancestor's local summary).
    Ancestor,
    /// An ancestor's sibling's branch (cross-branch redirect shortcut).
    AncestorSibling,
}

/// The set of remote servers whose branch summaries one server replicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationSet {
    /// Siblings of the server itself.
    pub siblings: Vec<ServerId>,
    /// Ancestors, nearest first (parent … root).
    pub ancestors: Vec<ServerId>,
    /// Siblings of each ancestor, flattened, nearest ancestor's first.
    pub ancestor_siblings: Vec<ServerId>,
}

impl ReplicationSet {
    /// All replicated servers in one list (siblings, then ancestor
    /// siblings, then ancestors).
    pub fn all(&self) -> Vec<ServerId> {
        let mut v = self.siblings.clone();
        v.extend(&self.ancestor_siblings);
        v.extend(&self.ancestors);
        v
    }

    /// The subset useful as *query redirect targets*: siblings and ancestor
    /// siblings. (Ancestor summaries are stored for coverage accounting and
    /// scope widening, but redirecting a query to an ancestor would
    /// re-search the requester's own branch.)
    pub fn redirect_targets(&self) -> Vec<ServerId> {
        let mut v = self.siblings.clone();
        v.extend(&self.ancestor_siblings);
        v
    }

    /// Servers that can stand in for this one when it is unreachable,
    /// best first: siblings (they replicate this server's branch summary
    /// and sit closest to its subtree), then ancestors nearest-first (the
    /// parent holds the branch summaries of *all* this server's children
    /// and can route around it directly). Ancestor siblings replicate the
    /// branch summary too but sit in foreign branches with no better
    /// knowledge than a sibling, so they are not nominated.
    pub fn failover_candidates(&self) -> Vec<ServerId> {
        let mut v = self.siblings.clone();
        v.extend(&self.ancestors);
        v
    }

    /// Every replicated server tagged with its overlay role, in [`all`]
    /// order (siblings, ancestor siblings, ancestors).
    ///
    /// [`all`]: ReplicationSet::all
    pub fn entries(&self) -> Vec<(ServerId, ReplicaRole)> {
        let mut v: Vec<(ServerId, ReplicaRole)> = self
            .siblings
            .iter()
            .map(|&s| (s, ReplicaRole::Sibling))
            .collect();
        v.extend(
            self.ancestor_siblings
                .iter()
                .map(|&s| (s, ReplicaRole::AncestorSibling)),
        );
        v.extend(self.ancestors.iter().map(|&s| (s, ReplicaRole::Ancestor)));
        v
    }

    /// Total number of replicated summaries (the paper's per-node storage
    /// term `k·i` for a level-`i` node with degree `k`).
    pub fn len(&self) -> usize {
        self.siblings.len() + self.ancestors.len() + self.ancestor_siblings.len()
    }

    /// True when the server replicates nothing (the root with no children).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Compute the replication set of `s` under the converged hierarchy.
pub fn replication_set(tree: &HierarchyTree, s: ServerId) -> ReplicationSet {
    let siblings = tree.siblings(s);
    let ancestors = tree.ancestors(s);
    let ancestor_siblings = ancestors.iter().flat_map(|&a| tree.siblings(a)).collect();
    ReplicationSet {
        siblings,
        ancestors,
        ancestor_siblings,
    }
}

/// Verify the overlay coverage invariant for `s`: the branches of
/// `children(s) ∪ siblings(s) ∪ ancestor_siblings(s)` plus `s` itself
/// partition the whole hierarchy. Returns the servers covered.
pub fn coverage(tree: &HierarchyTree, s: ServerId) -> Vec<ServerId> {
    let rs = replication_set(tree, s);
    let mut covered = vec![s];
    for &c in tree.children(s) {
        covered.extend(tree.subtree(c));
    }
    for t in rs.redirect_targets() {
        covered.extend(tree.subtree(t));
    }
    covered.extend(&rs.ancestors);
    covered.sort();
    covered.dedup();
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::HierarchyTree;

    #[test]
    fn fig2_shape() {
        // Three full levels of a binary hierarchy = Fig. 2's shape.
        let t = HierarchyTree::build(15, 2);
        let d1 = *t.leaves().iter().min().unwrap();
        let rs = replication_set(&t, d1);
        // One sibling (D2), three ancestors (C1, B1, A), and one sibling per
        // non-root ancestor (C2, B2) — the root has no siblings.
        assert_eq!(rs.siblings.len(), 1);
        assert_eq!(rs.ancestors.len(), 3);
        assert_eq!(rs.ancestor_siblings.len(), 2);
        assert_eq!(rs.len(), 6);
    }

    #[test]
    fn failover_candidates_prefer_siblings_then_nearest_ancestor() {
        let t = HierarchyTree::build(15, 2);
        let d1 = *t.leaves().iter().min().unwrap();
        let rs = replication_set(&t, d1);
        let cands = rs.failover_candidates();
        assert_eq!(cands.len(), rs.siblings.len() + rs.ancestors.len());
        assert_eq!(&cands[..rs.siblings.len()], &rs.siblings[..]);
        // Ancestors follow, parent first: the parent already stores every
        // branch summary of the dead server's children.
        assert_eq!(cands[rs.siblings.len()], t.parent(d1).unwrap());
        // Candidates never include the server itself.
        assert!(!cands.contains(&d1));
    }

    #[test]
    fn entries_tag_roles_in_all_order() {
        let t = HierarchyTree::build(15, 2);
        let d1 = *t.leaves().iter().min().unwrap();
        let rs = replication_set(&t, d1);
        let entries = rs.entries();
        let ids: Vec<ServerId> = entries.iter().map(|&(s, _)| s).collect();
        assert_eq!(ids, rs.all(), "entries follow all() order");
        let count = |role: ReplicaRole| entries.iter().filter(|&&(_, r)| r == role).count();
        assert_eq!(count(ReplicaRole::Sibling), rs.siblings.len());
        assert_eq!(count(ReplicaRole::Ancestor), rs.ancestors.len());
        assert_eq!(
            count(ReplicaRole::AncestorSibling),
            rs.ancestor_siblings.len()
        );
    }

    #[test]
    fn root_replicates_nothing() {
        let t = HierarchyTree::build(15, 2);
        let rs = replication_set(&t, t.root());
        assert!(rs.is_empty());
        assert!(rs.redirect_targets().is_empty());
    }

    #[test]
    fn coverage_is_complete_everywhere() {
        // The paper's invariant: from ANY server, own branch + replicated
        // branches cover the whole hierarchy.
        for (n, k) in [(15, 2), (40, 3), (156, 5), (100, 8)] {
            let t = HierarchyTree::build(n, k);
            for s in t.servers() {
                let covered = coverage(&t, s);
                assert_eq!(
                    covered.len(),
                    n,
                    "server {s} covers {}/{n} servers (k={k})",
                    covered.len()
                );
            }
        }
    }

    #[test]
    fn redirect_targets_disjoint_from_own_branch() {
        let t = HierarchyTree::build(40, 3);
        for s in t.servers() {
            let own: Vec<ServerId> = t.subtree(s);
            for target in replication_set(&t, s).redirect_targets() {
                assert!(
                    !own.contains(&target),
                    "redirect target {target} inside {s}'s own branch"
                );
            }
        }
    }

    #[test]
    fn storage_matches_level_formula() {
        // §IV Table I: a level-i node with degree k maintains k summaries
        // from children and ~k·i from ancestors and ancestors' siblings.
        // Exactly: i ancestors + (k-1) siblings per level (own + ancestors')
        // = i + i·(k-1) + (k-1) = full k·i + (k-1) when the tree is full.
        let t = HierarchyTree::build(156, 5); // full 4-level 5-ary tree
        for s in t.servers() {
            let i = t.depth(s);
            let rs = replication_set(&t, s);
            if i == 0 {
                assert_eq!(rs.len(), 0);
            } else {
                // i ancestors, (k−1) own siblings, (k−1) siblings for each
                // non-root ancestor (the root has none): (i−1)·(k−1).
                let expected = i + 4 + (i - 1) * 4;
                assert_eq!(rs.len(), expected, "server {s} at level {i}");
            }
        }
    }
}
