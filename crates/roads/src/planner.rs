//! Replica-aware query planning: greedy set-cover source selection over
//! the entry server's replicated branch summaries.
//!
//! The greedy execution in [`crate::queryexec`] expands the entry's overlay
//! view hop-by-hop: every child, sibling and ancestor-sibling whose
//! replicated *branch* summary may match is contacted, and every ancestor
//! whose *local* summary may. The planner starts from the same targets —
//! it asks [`RoadsNetwork::route`] — and adds one decision:
//!
//! * **Redundant covers.** Federated source selection over replicated
//!   fragments (Fedra) shows a minimal covering subset of endpoints
//!   answers the same query. The planner runs greedy set-cover over the
//!   candidate covers (each candidate covers the subtree it is responsible
//!   for), preferring fresher copies — higher [`ReplicaLedger`] epoch
//!   stamps — and closer ones (smaller delay from the entry) among equal
//!   gains. In a converged ROADS overlay the covers are disjoint by
//!   construction (`overlay::coverage` proves they partition the
//!   hierarchy), so every matching candidate is selected; the machinery
//!   exists for degraded or custom topologies where copies overlap.
//!
//! It used to make a second one: greedy probed every ancestor whose
//! *branch* summary matched — which contains the entry's own branch, so
//! O(depth) wasted probes on any query the entry could answer — and the
//! planner tested the ancestor's local summary instead. That test is now
//! the protocol's own ([`RoadsNetwork::evaluate`]), so on a converged
//! overlay a plan contacts exactly the servers greedy does, and
//! [`QueryPlan::pruned_probes`] reads 0.
//!
//! The resulting [`QueryPlan`] is dispatched as one batch from the entry
//! ([`QueryOptions::plan`](crate::queryexec::QueryOptions::plan)) instead
//! of re-deriving targets hop-by-hop.

use crate::audit::ReplicaLedger;
use crate::engine::{ContactMode, RoadsNetwork};
use crate::queryexec::SearchScope;
use crate::tree::ServerId;
use roads_netsim::DelaySpace;
use roads_records::Query;
use std::collections::BTreeSet;

/// What a planned contact is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAction {
    /// Search local records and keep descending the branch (a child or an
    /// overlay redirect target).
    Descend,
    /// Search locally attached records only (an ancestor probe).
    Probe,
}

impl PlanAction {
    /// The mode a planned contact is contacted in.
    pub fn mode(self) -> ContactMode {
        match self {
            PlanAction::Descend => ContactMode::Branch,
            PlanAction::Probe => ContactMode::LocalOnly,
        }
    }
}

/// One server the plan dispatches to, with the cover that justified it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedContact {
    /// The server to contact.
    pub server: ServerId,
    /// What it is asked to do.
    pub action: PlanAction,
    /// Servers this contact is responsible for (its branch for descents,
    /// itself for probes) that were still uncovered when it was chosen.
    pub covers: Vec<ServerId>,
    /// Epoch stamp of the summary copy that justified the contact
    /// (freshness preference; `0` when planning without a ledger).
    pub epoch: u64,
}

/// A batch dispatch plan for one query from one entry server.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The entry server the plan was computed at.
    pub entry: ServerId,
    /// Chosen contacts, in greedy selection order.
    pub contacts: Vec<PlannedContact>,
    /// Candidate contacts considered before set-cover selection.
    pub candidates: usize,
    /// Servers the chosen contacts jointly cover.
    pub covered: usize,
    /// Ancestor probes greedy would have paid for that the plan spares.
    /// Always 0 since greedy tests an ancestor's local summary itself;
    /// kept because PLAN.json and `roads.planner.pruned_probes` carry it.
    pub pruned_probes: usize,
}

impl QueryPlan {
    /// Servers the plan dispatches to, in selection order.
    pub fn servers(&self) -> Vec<ServerId> {
        self.contacts.iter().map(|c| c.server).collect()
    }

    /// Number of branch-descent contacts.
    pub fn descents(&self) -> usize {
        self.contacts
            .iter()
            .filter(|c| c.action == PlanAction::Descend)
            .count()
    }

    /// Number of local-only ancestor probes.
    pub fn probes(&self) -> usize {
        self.contacts
            .iter()
            .filter(|c| c.action == PlanAction::Probe)
            .count()
    }
}

/// A set-cover candidate: a server able to answer for `covers`, with the
/// freshness and proximity used to break ties between equal gains.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverCandidate {
    /// The server that would be contacted.
    pub server: ServerId,
    /// Servers whose records this contact can account for.
    pub covers: Vec<ServerId>,
    /// Freshness stamp of the justifying summary copy (higher = fresher).
    pub epoch: u64,
    /// Contact cost from the entry, in microseconds (lower = closer).
    pub cost_us: u64,
}

/// Greedy weighted set-cover: repeatedly choose the candidate covering the
/// most still-uncovered servers, preferring (in order) larger gain, fresher
/// epoch, lower cost, then smaller server id. Returns indices into
/// `candidates` in selection order. Stops when the universe is covered or
/// no remaining candidate adds coverage.
pub fn greedy_set_cover(
    mut uncovered: BTreeSet<ServerId>,
    candidates: &[CoverCandidate],
) -> Vec<usize> {
    use std::cmp::Reverse;
    let mut chosen = Vec::new();
    let mut used = vec![false; candidates.len()];
    while !uncovered.is_empty() {
        let mut best: Option<(usize, usize)> = None;
        for (i, c) in candidates.iter().enumerate() {
            if used[i] {
                continue;
            }
            let gain = c.covers.iter().filter(|s| uncovered.contains(s)).count();
            if gain == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bi, bg)) => {
                    let b = &candidates[bi];
                    (gain, c.epoch, Reverse(c.cost_us), Reverse(c.server))
                        > (bg, b.epoch, Reverse(b.cost_us), Reverse(b.server))
                }
            };
            if better {
                best = Some((i, gain));
            }
        }
        let Some((i, _)) = best else {
            break;
        };
        used[i] = true;
        for s in &candidates[i].covers {
            uncovered.remove(s);
        }
        chosen.push(i);
    }
    chosen
}

/// Plan `query` from `entry` using only the converged network state (no
/// epoch stamps, no delay preference).
pub fn plan_query(
    net: &RoadsNetwork,
    query: &Query,
    entry: ServerId,
    scope: SearchScope,
) -> QueryPlan {
    plan_query_with(net, query, entry, scope, None, None)
}

/// Plan `query` from `entry`, preferring fresher summary copies (per
/// `ledger` epoch stamps) and closer servers (per `delays`) among
/// equal-gain candidates.
pub fn plan_query_with(
    net: &RoadsNetwork,
    query: &Query,
    entry: ServerId,
    scope: SearchScope,
    ledger: Option<&ReplicaLedger>,
    delays: Option<&DelaySpace>,
) -> QueryPlan {
    let tree = net.tree();
    // Epoch of the summary copy the entry holds for `target`. Children's
    // summaries are received directly (not via the overlay wave), so they
    // carry the ledger's current epoch; overlay copies carry their entry's
    // stamp.
    let epoch_of = |target: ServerId| -> u64 {
        let Some(l) = ledger else { return 0 };
        l.entries()
            .iter()
            .find(|e| e.holder == entry && e.target == target)
            .map(|e| e.epoch)
            .unwrap_or_else(|| l.epoch())
    };
    let cost_of = |target: ServerId| -> u64 {
        delays
            .map(|d| d.delay(entry.index(), target.index()).as_micros())
            .unwrap_or(0)
    };

    let mut candidates: Vec<CoverCandidate> = Vec::new();
    let mut actions: Vec<PlanAction> = Vec::new();

    // What the entry would contact anyway, in its order: matching
    // children, overlay redirect targets (siblings and ancestors'
    // siblings) — each responsible for its whole branch — and ancestors
    // whose local summary may match, responsible for themselves.
    let (_, targets) = net.route(entry, query, ContactMode::Entry, scope);
    for (t, mode) in targets {
        let (action, covers) = match mode {
            ContactMode::LocalOnly => (PlanAction::Probe, vec![t]),
            _ => (PlanAction::Descend, tree.subtree(t)),
        };
        candidates.push(CoverCandidate {
            server: t,
            covers,
            epoch: epoch_of(t),
            cost_us: cost_of(t),
        });
        actions.push(action);
    }

    let universe: BTreeSet<ServerId> = candidates
        .iter()
        .flat_map(|c| c.covers.iter().copied())
        .collect();
    let covered = universe.len();
    let n_candidates = candidates.len();
    let chosen = greedy_set_cover(universe, &candidates);
    let contacts = chosen
        .into_iter()
        .map(|i| PlannedContact {
            server: candidates[i].server,
            action: actions[i],
            covers: candidates[i].covers.clone(),
            epoch: candidates[i].epoch,
        })
        .collect();
    QueryPlan {
        entry,
        contacts,
        candidates: n_candidates,
        covered,
        pruned_probes: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoadsConfig;
    use crate::queryexec::{execute_query, execute_query_planned};
    use roads_records::{OwnerId, QueryBuilder, QueryId, Record, RecordId, Schema, Value};
    use roads_summary::SummaryConfig;

    fn network(n: usize, degree: usize) -> (RoadsNetwork, DelaySpace) {
        let schema = Schema::unit_numeric(1);
        let cfg = RoadsConfig {
            max_children: degree,
            summary: SummaryConfig::with_buckets(200),
            ..RoadsConfig::paper_default()
        };
        let records: Vec<Vec<Record>> = (0..n)
            .map(|s| {
                vec![Record::new_unchecked(
                    RecordId(s as u64),
                    OwnerId(s as u32),
                    vec![Value::Float(s as f64 / n as f64)],
                )]
            })
            .collect();
        let net = RoadsNetwork::build(schema, cfg, records);
        let delays = DelaySpace::paper(n, 77);
        (net, delays)
    }

    fn point_query(net: &RoadsNetwork, v: f64) -> Query {
        QueryBuilder::new(net.schema(), QueryId(1))
            .range("x0", v - 1e-4, v + 1e-4)
            .build()
    }

    #[test]
    fn set_cover_prefers_gain_then_epoch_then_cost() {
        let s = |i: u32| ServerId(i);
        let universe: BTreeSet<ServerId> = [1, 2, 3, 4].map(s).into();
        let candidates = vec![
            CoverCandidate {
                server: s(10),
                covers: vec![s(1), s(2)],
                epoch: 1,
                cost_us: 50,
            },
            CoverCandidate {
                server: s(11),
                covers: vec![s(1), s(2), s(3)],
                epoch: 0,
                cost_us: 90,
            },
            // Same cover as 10 but fresher: must win the residual {4}? No —
            // covers {4} only via candidate 13. Candidate 12 ties 10 on
            // gain for {1,2} but is fresher.
            CoverCandidate {
                server: s(12),
                covers: vec![s(1), s(2)],
                epoch: 5,
                cost_us: 80,
            },
            CoverCandidate {
                server: s(13),
                covers: vec![s(4)],
                epoch: 0,
                cost_us: 10,
            },
        ];
        let chosen = greedy_set_cover(universe, &candidates);
        // Largest gain first (11 covers 3), then {4} via 13; 10/12 add
        // nothing afterwards.
        assert_eq!(chosen, vec![1, 3]);

        // Without 11, the {1,2} tie goes to the fresher copy (12), despite
        // its higher cost.
        let universe: BTreeSet<ServerId> = [1, 2].map(s).into();
        let pair = vec![candidates[0].clone(), candidates[2].clone()];
        assert_eq!(greedy_set_cover(universe, &pair), vec![1]);

        // Equal gain and epoch: the cheaper contact wins.
        let universe: BTreeSet<ServerId> = [1, 2].map(s).into();
        let mut a = candidates[0].clone();
        let mut b = candidates[2].clone();
        a.epoch = 5;
        a.cost_us = 80;
        b.cost_us = 20;
        assert_eq!(greedy_set_cover(universe, &[a, b]), vec![1]);
    }

    #[test]
    fn set_cover_stops_when_residual_uncoverable() {
        let s = |i: u32| ServerId(i);
        let universe: BTreeSet<ServerId> = [1, 2, 99].map(s).into();
        let candidates = vec![CoverCandidate {
            server: s(10),
            covers: vec![s(1), s(2)],
            epoch: 0,
            cost_us: 0,
        }];
        assert_eq!(greedy_set_cover(universe, &candidates), vec![0]);
    }

    #[test]
    fn plan_covers_whole_hierarchy_on_broad_query() {
        let (net, _delays) = network(30, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(2))
            .range("x0", 0.0, 1.0)
            .build();
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let plan = plan_query(&net, &q, leaf, SearchScope::full());
        // Everything except the entry itself is covered by the plan.
        let mut covered: BTreeSet<ServerId> = plan
            .contacts
            .iter()
            .flat_map(|c| c.covers.clone())
            .collect();
        covered.insert(leaf);
        assert_eq!(covered.len(), 30, "plan + entry covers the federation");
        // In a converged overlay the covers partition: descents are
        // disjoint branches, probes are the ancestors themselves.
        let total: usize = plan.contacts.iter().map(|c| c.covers.len()).sum();
        assert_eq!(total + 1, 30, "covers are disjoint");
    }

    #[test]
    fn plan_contacts_what_greedy_does_on_selective_query() {
        let (net, delays) = network(30, 3);
        // A query matching only the entry leaf's own record: every
        // ancestor's branch summary matches (it contains the leaf), but no
        // ancestor's local summary does — and it is the local summary
        // that greedy tests, so the plan has no probe left to spare.
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let q = point_query(&net, leaf.0 as f64 / 30.0);
        let mut anc = net.tree().parent(leaf);
        while let Some(a) = anc {
            assert!(net.branch_summary(a).may_match(&q) && !net.local_summary(a).may_match(&q));
            anc = net.tree().parent(a);
        }
        let greedy = execute_query(&net, &delays, &q, leaf, SearchScope::full());
        let plan = plan_query(&net, &q, leaf, SearchScope::full());
        assert_eq!((plan.probes(), plan.pruned_probes), (0, 0));
        let planned = execute_query_planned(&net, &delays, &q, leaf, SearchScope::full(), &plan);
        assert_eq!(planned, greedy, "same contacts, bytes, latency and recall");
        assert_eq!(greedy.servers_contacted, 1, "nobody else can hold a match");
    }

    #[test]
    fn planned_equals_greedy_results_from_every_entry() {
        let (net, delays) = network(30, 3);
        for target in [0usize, 7, 15, 29] {
            let q = point_query(&net, target as f64 / 30.0);
            for start in 0..30u32 {
                let start = ServerId(start);
                let greedy = execute_query(&net, &delays, &q, start, SearchScope::full());
                let plan = plan_query(&net, &q, start, SearchScope::full());
                let planned =
                    execute_query_planned(&net, &delays, &q, start, SearchScope::full(), &plan);
                assert_eq!(
                    planned.matching_servers, greedy.matching_servers,
                    "start {start} target {target}"
                );
                assert_eq!(planned.matching_records, greedy.matching_records);
                assert!(planned.servers_contacted <= greedy.servers_contacted);
            }
        }
    }

    #[test]
    fn ledger_epochs_thread_into_contacts() {
        use crate::audit::ReplicaLedger;
        let (net, delays) = network(20, 3);
        let mut ledger = ReplicaLedger::new(&net);
        ledger.refresh(&net, &[true; 20]);
        ledger.refresh(&net, &[true; 20]);
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let q = QueryBuilder::new(net.schema(), QueryId(3))
            .range("x0", 0.0, 1.0)
            .build();
        let plan = plan_query_with(
            &net,
            &q,
            leaf,
            SearchScope::full(),
            Some(&ledger),
            Some(&delays),
        );
        assert!(!plan.contacts.is_empty());
        assert!(
            plan.contacts.iter().all(|c| c.epoch == ledger.epoch()),
            "fully refreshed ledger stamps every copy with the current epoch"
        );
    }

    #[test]
    fn scoped_plan_respects_levels() {
        let (net, _delays) = network(30, 2);
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let q = QueryBuilder::new(net.schema(), QueryId(4))
            .range("x0", 0.0, 1.0)
            .build();
        let full = plan_query(&net, &q, leaf, SearchScope::full());
        let scoped = plan_query(&net, &q, leaf, SearchScope::levels(1));
        assert!(scoped.contacts.len() < full.contacts.len());
        // levels(0): the search stays within the entry's own branch.
        let own = plan_query(&net, &q, leaf, SearchScope::levels(0));
        let tree = net.tree();
        assert!(own
            .contacts
            .iter()
            .all(|c| tree.parent(c.server) == Some(leaf)));
    }
}
