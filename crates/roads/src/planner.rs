//! Forwards kept for `benchmark/`, which names them, until the next
//! benchmark change (ROADMAP item 5).
//!
//! There is no planner: the entry's own replicated summaries decide where
//! a query goes (§III-C), and [`RoadsNetwork::route`] is that rule. A
//! [`QueryPlan`] is `route`'s answer at the entry, written down — which is
//! what the entry dispatches anyway, so every executor that takes a plan
//! ignores it.

use crate::engine::{ContactMode, RoadsNetwork};
use crate::queryexec::SearchScope;
use crate::tree::ServerId;
use roads_records::Query;

/// What the entry asks a target to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanAction {
    /// Search its records and descend its branch (`ContactMode::Branch`).
    Descend,
    /// Search its own records only (`ContactMode::LocalOnly`).
    Probe,
}

/// One target of the entry.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedContact {
    /// The server contacted.
    pub server: ServerId,
    /// What it is asked to do.
    pub action: PlanAction,
}

/// The targets the entry contacts for one query, in `route`'s order.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The targets.
    pub contacts: Vec<PlannedContact>,
}

/// `route(entry, Entry, scope)`'s targets as a [`QueryPlan`].
pub fn plan_query(
    net: &RoadsNetwork,
    query: &Query,
    entry: ServerId,
    scope: SearchScope,
) -> QueryPlan {
    let (_, targets) = net.route(entry, query, ContactMode::Entry, scope);
    let contacts = (targets.into_iter())
        .map(|(server, mode)| PlannedContact {
            server,
            action: match mode {
                ContactMode::LocalOnly => PlanAction::Probe,
                _ => PlanAction::Descend,
            },
        })
        .collect();
    QueryPlan { contacts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoadsConfig;
    use crate::queryexec::{execute_query, execute_query_planned};
    use roads_netsim::DelaySpace;
    use roads_records::{OwnerId, QueryBuilder, QueryId, Record, RecordId, Schema, Value};
    use roads_summary::SummaryConfig;
    use std::collections::BTreeSet;

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
    fn plan_covers_whole_hierarchy_on_broad_query() {
        let (net, _delays) = network(30, 3);
        let q = QueryBuilder::new(net.schema(), QueryId(2))
            .range("x0", 0.0, 1.0)
            .build();
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let plan = plan_query(&net, &q, leaf, SearchScope::full());
        // A descent answers for its branch, a probe for itself; with the
        // entry they partition the federation (`overlay::coverage`).
        let covers = |c: &PlannedContact| match c.action {
            PlanAction::Descend => net.tree().subtree(c.server),
            PlanAction::Probe => vec![c.server],
        };
        let mut covered: Vec<ServerId> = plan.contacts.iter().flat_map(covers).collect();
        covered.push(leaf);
        let distinct: BTreeSet<ServerId> = covered.iter().copied().collect();
        assert_eq!(distinct.len(), 30, "plan + entry covers the federation");
        assert_eq!(covered.len(), 30, "covers are disjoint");
    }

    #[test]
    fn plan_contacts_what_greedy_does_on_selective_query() {
        let (net, delays) = network(30, 3);
        // A query matching only the entry leaf's own record: every
        // ancestor's branch summary matches (it contains the leaf), but no
        // ancestor's local summary does — and it is the local summary
        // that routing tests, so nobody is probed.
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let q = point_query(&net, leaf.0 as f64 / 30.0);
        let mut anc = net.tree().parent(leaf);
        while let Some(a) = anc {
            assert!(net.branch_summary(a).may_match(&q) && !net.local_summary(a).may_match(&q));
            anc = net.tree().parent(a);
        }
        let greedy = execute_query(&net, &delays, &q, leaf, SearchScope::full());
        let plan = plan_query(&net, &q, leaf, SearchScope::full());
        assert!(plan
            .contacts
            .iter()
            .all(|c| c.action == PlanAction::Descend));
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
                assert_eq!(planned, greedy, "start {start} target {target}");
            }
        }
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
