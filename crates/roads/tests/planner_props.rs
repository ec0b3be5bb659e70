//! Property tests: the replica-aware planner never changes recall.
//!
//! The planner's only licensed optimisation is batching the greedy
//! expansion into one client-side dispatch wave (leaving out ancestors
//! whose *local* summary rules them out was its other one, until the
//! protocol's entry step took that test over). It may not change the
//! match set, and it may never contact *more* servers or push more query
//! bytes than greedy expansion — across random hierarchies, data
//! placements, fan-outs (which set the overlay replication degree),
//! selectivities, entry points and `levels_up` scopes.

use proptest::prelude::*;
use roads_core::{
    execute_query, execute_query_planned, plan_query, PlanAction, RoadsConfig, RoadsNetwork,
    SearchScope, ServerId,
};
use roads_netsim::DelaySpace;
use roads_records::{AttrId, OwnerId, Predicate, Query, QueryId, Record, RecordId, Schema, Value};
use roads_summary::SummaryConfig;
use std::collections::HashSet;

/// One record per server at `points[s % points.len()]`, fan-out `k`.
fn build(n: usize, k: usize, points: &[f64]) -> (RoadsNetwork, DelaySpace) {
    let schema = Schema::unit_numeric(1);
    let records: Vec<Vec<Record>> = (0..n)
        .map(|s| {
            vec![Record::new_unchecked(
                RecordId(s as u64),
                OwnerId(s as u32),
                vec![Value::Float(points[s % points.len()])],
            )]
        })
        .collect();
    let cfg = RoadsConfig {
        max_children: k,
        summary: SummaryConfig::with_buckets(64),
        ..RoadsConfig::paper_default()
    };
    (
        RoadsNetwork::build(schema, cfg, records),
        DelaySpace::paper(n, 11),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planned_execution_matches_greedy_recall(
        n in 2usize..60,
        k in 2usize..7,
        points in prop::collection::vec(0.0f64..1.0, 2..40),
        lo in 0.0f64..1.0,
        w in 0.0f64..0.5,
        seed in any::<u32>(),
    ) {
        let (net, delays) = build(n, k, &points);
        let hi = (lo + w).min(1.0);
        let q = Query::new(QueryId(0), vec![Predicate::Range { attr: AttrId(0), lo, hi }]);
        let entry = ServerId(seed % n as u32);
        let scope = match (seed >> 16) % 4 {
            0 => SearchScope::full(),
            s => SearchScope::levels((s - 1) as usize),
        };
        let plan = plan_query(&net, &q, entry, scope);
        let greedy = execute_query(&net, &delays, &q, entry, scope);
        let planned = execute_query_planned(&net, &delays, &q, entry, scope, &plan);

        let mut a = greedy.matching_servers.clone();
        let mut b = planned.matching_servers.clone();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b, "recall drift (entry {}, scope {:?})", entry, scope);
        prop_assert_eq!(greedy.matching_records, planned.matching_records);
        prop_assert!(
            planned.servers_contacted <= greedy.servers_contacted,
            "planner contacted more servers ({} vs {}, entry {}, scope {:?})",
            planned.servers_contacted, greedy.servers_contacted, entry, scope
        );
        prop_assert!(
            planned.query_bytes <= greedy.query_bytes,
            "planner pushed more bytes ({} vs {})",
            planned.query_bytes, greedy.query_bytes
        );
        prop_assert!(
            planned.query_messages <= greedy.query_messages,
            "planner sent more messages ({} vs {})",
            planned.query_messages, greedy.query_messages
        );
    }

    #[test]
    fn plans_are_well_formed(
        n in 2usize..60,
        k in 2usize..7,
        points in prop::collection::vec(0.0f64..1.0, 2..40),
        lo in 0.0f64..1.0,
        w in 0.0f64..0.3,
        entry_seed in any::<u32>(),
    ) {
        let (net, _) = build(n, k, &points);
        let hi = (lo + w).min(1.0);
        let q = Query::new(QueryId(0), vec![Predicate::Range { attr: AttrId(0), lo, hi }]);
        let entry = ServerId(entry_seed % n as u32);
        let plan = plan_query(&net, &q, entry, SearchScope::full());

        prop_assert_eq!(plan.entry, entry);
        let mut seen = HashSet::new();
        for pc in &plan.contacts {
            prop_assert!(seen.insert(pc.server), "duplicate planned contact {}", pc.server);
            prop_assert!(pc.server != entry, "the entry is contacted implicitly, never planned");
            prop_assert!(!pc.covers.is_empty(), "a contact must cover something");
            // Every planned contact was vouched for by the entry's
            // replicated summaries: descents by the target's branch
            // summary, probes by its local summary (the planner's
            // pruning criterion).
            match pc.action {
                PlanAction::Descend => prop_assert!(
                    net.branch_summary(pc.server).may_match(&q),
                    "descent into {} without a branch-summary match", pc.server
                ),
                PlanAction::Probe => prop_assert!(
                    net.local_summary(pc.server).may_match(&q),
                    "probe of {} without a local-summary match", pc.server
                ),
            }
        }
        // Leaving an ancestor out is conservative: every one whose
        // branch summary matches but that the plan does not probe really
        // holds no matching record.
        let mut anc = net.tree().parent(entry);
        while let Some(a) = anc {
            if net.branch_summary(a).may_match(&q)
                && !net.local_summary(a).may_match(&q)
                && !seen.contains(&a)
            {
                prop_assert!(
                    net.records(a).iter().all(|r| !q.matches(r)),
                    "pruned ancestor {} holds a matching record", a
                );
            }
            anc = net.tree().parent(a);
        }
        // Greedy spares those probes too, so the plan saves none.
        prop_assert_eq!(plan.pruned_probes, 0);
    }
}
