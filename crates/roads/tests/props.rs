//! Property tests: hierarchy, overlay and query-execution invariants.

use proptest::prelude::*;
use roads_central::CentralRepository;
use roads_core::overlay::coverage;
use roads_core::{
    execute_query, execute_query_cached, execute_query_planned, execute_query_with, plan_query,
    replication_set, ContactMode, ForwardingMode, HierarchyTree, PlanAction, QueryOptions,
    ResultCache, RoadsConfig, RoadsNetwork, SearchScope, ServerId,
};
use roads_netsim::DelaySpace;
use roads_records::{AttrId, OwnerId, Predicate, Query, QueryId, Record, RecordId, Schema, Value};
use roads_summary::SummaryConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn built_trees_always_valid(n in 1usize..200, k in 1usize..12) {
        let t = HierarchyTree::build(n, k);
        prop_assert!(t.validate().is_ok());
        prop_assert_eq!(t.len(), n);
        for s in t.servers() {
            prop_assert!(t.children(s).len() <= k);
        }
    }

    #[test]
    fn build_depth_near_optimal(n in 2usize..300, k in 2usize..9) {
        let t = HierarchyTree::build(n, k);
        // A perfect k-ary tree needs ceil(log_k(n(k-1)+1)) levels; the
        // greedy walk may add one.
        let optimal = {
            let mut cap = 1usize;
            let mut width = 1usize;
            let mut levels = 1usize;
            while cap < n {
                width *= k;
                cap += width;
                levels += 1;
            }
            levels
        };
        prop_assert!(
            t.levels() <= optimal + 1,
            "levels {} vs optimal {optimal} (n={n}, k={k})",
            t.levels()
        );
    }

    #[test]
    fn overlay_coverage_complete(n in 1usize..150, k in 2usize..8) {
        let t = HierarchyTree::build(n, k);
        for s in t.servers() {
            prop_assert_eq!(coverage(&t, s).len(), n, "server {} (n={}, k={})", s, n, k);
        }
    }

    #[test]
    fn replication_set_disjoint_categories(n in 2usize..120, k in 2usize..8) {
        let t = HierarchyTree::build(n, k);
        for s in t.servers() {
            let rs = replication_set(&t, s);
            let all = rs.all();
            let mut dedup = all.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(all.len(), dedup.len(), "overlapping replica categories at {}", s);
            prop_assert!(!all.contains(&s), "a server never replicates itself");
        }
    }

    /// One executor, every combination of its options: each returns
    /// exactly what brute force finds inside the search scope, a contact
    /// log never changes the outcome, and the log's causal links are real.
    #[test]
    fn every_option_combination_is_complete_and_exact(
        n in 2usize..60,
        k in 2usize..6,
        points in prop::collection::vec(0.0f64..1.0, 2..60),
        lo in 0.0f64..1.0,
        w in 0.0f64..0.4,
        seed in any::<u32>(),
    ) {
        // Server s holds 1 + s % 3 records, at consecutive `points`.
        let value = |s: usize, j: usize| points[(s + j) % points.len()];
        let schema = Schema::unit_numeric(1);
        let records: Vec<Vec<Record>> = (0..n)
            .map(|s| {
                (0..1 + s % 3)
                    .map(|j| Record::new_unchecked(
                        RecordId((s * 3 + j) as u64),
                        OwnerId(s as u32),
                        vec![Value::Float(value(s, j))],
                    ))
                    .collect()
            })
            .collect();
        let cfg = RoadsConfig {
            max_children: k,
            summary: SummaryConfig::with_buckets(64),
            ..RoadsConfig::paper_default()
        };
        let net = RoadsNetwork::build(schema, cfg, records);
        let delays = DelaySpace::paper(n, 5);
        let hi = (lo + w).min(1.0);
        let q = Query::new(QueryId(0), vec![Predicate::Range { attr: AttrId(0), lo, hi }]);
        let matches = |s: usize| (0..1 + s % 3).filter(|&j| lo <= value(s, j) && value(s, j) <= hi).count();
        let entry = ServerId(seed % n as u32);
        let levels = (seed >> 16) as usize % 4;

        for scope in [SearchScope::full(), SearchScope::levels(levels)] {
            // In scope: the subtree of the entry's ancestor `levels` up
            // (the whole hierarchy when unscoped or past the root).
            let mut top = entry;
            for _ in 0..scope.levels_up.unwrap_or(n) {
                top = net.tree().parent(top).unwrap_or(top);
            }
            let mut in_scope = net.tree().subtree(top);
            in_scope.sort();
            let expected_servers: Vec<ServerId> =
                in_scope.iter().copied().filter(|s| matches(s.index()) > 0).collect();
            let expected_records: usize = in_scope.iter().map(|s| matches(s.index())).sum();

            let mut forward_ms = None;
            for forwarding in [ForwardingMode::ServerForward, ForwardingMode::ClientRedirect] {
                let opts = QueryOptions { scope, forwarding };
                let what = format!("entry {entry}, {opts:?}");
                let out = execute_query_with(&net, &delays, &q, entry, &opts, None);
                prop_assert_eq!(&out.matching_servers, &expected_servers, "{}", what);
                prop_assert_eq!(out.matching_records, expected_records, "{}", what);

                let mut trace = Vec::new();
                let traced =
                    execute_query_with(&net, &delays, &q, entry, &opts, Some(&mut trace));
                prop_assert_eq!(&traced, &out, "tracing changed the outcome: {}", what);
                prop_assert_eq!(trace.len(), out.servers_contacted);
                prop_assert_eq!(
                    (trace[0].server, trace[0].mode, trace[0].caused_by),
                    (entry, ContactMode::Entry, None)
                );
                for (i, e) in trace.iter().enumerate().skip(1) {
                    let cause = e.caused_by.expect("only the entry is uncaused");
                    prop_assert!(cause < i, "contact {} caused by later {}: {}", i, cause, what);
                    prop_assert!(
                        trace[cause].forwarded_to.contains(&e.server),
                        "contact {}'s cause {} never forwarded to it: {}", i, cause, what
                    );
                }

                // A redirect's round trips through the client can only be
                // slower than forwarding the same contacts.
                let forward = *forward_ms.get_or_insert(out.latency_ms);
                prop_assert!(out.latency_ms + 1e-9 >= forward);
            }

            // The forwards `benchmark/` names: a plan is `route`'s answer
            // at the entry, and the executors that take one ignore it.
            let plan = plan_query(&net, &q, entry, scope);
            let (_, targets) = net.route(entry, &q, ContactMode::Entry, scope);
            let planned: Vec<(ServerId, ContactMode)> = (plan.contacts.iter())
                .map(|c| match c.action {
                    PlanAction::Descend => (c.server, ContactMode::Branch),
                    PlanAction::Probe => (c.server, ContactMode::LocalOnly),
                })
                .collect();
            prop_assert_eq!(planned, targets);
            let greedy = execute_query(&net, &delays, &q, entry, scope);
            prop_assert_eq!(
                execute_query_planned(&net, &delays, &q, entry, scope, &plan),
                greedy
            );
            let cached = |plan| {
                let cache = ResultCache::new(1);
                execute_query_cached(&net, &delays, &q, entry, scope, &cache, plan)
            };
            prop_assert_eq!(cached(Some(&plan)), cached(None));
        }
    }

    /// The entry expands each replicated branch through its parts: it
    /// contacts the children whose parts admit the query directly and
    /// probes the branch's owner for its own records if the owner's part
    /// does. Over random two-attribute federations, entries and scopes the
    /// answer is still exactly the central repository's over the servers
    /// in scope, and no server is contacted twice.
    #[test]
    fn the_expanded_route_answers_what_the_central_repository_does(
        n in 2usize..70,
        k in 2usize..6,
        points in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 3..60),
        (x, y) in ((0.0f64..1.0, 0.0f64..0.5), (0.0f64..1.0, 0.0f64..0.5)),
        seed in any::<u32>(),
    ) {
        // Server s holds s % 4 records (none on every fourth), at
        // consecutive `points`.
        let point = |s: usize, j: usize| points[(s * 4 + j) % points.len()];
        let records: Vec<Vec<Record>> = (0..n)
            .map(|s| {
                (0..s % 4)
                    .map(|j| {
                        let (a, b) = point(s, j);
                        let values = vec![Value::Float(a), Value::Float(b)];
                        Record::new_unchecked(RecordId((s * 4 + j) as u64), OwnerId(s as u32), values)
                    })
                    .collect()
            })
            .collect();
        let cfg = RoadsConfig {
            max_children: k,
            summary: SummaryConfig::with_buckets(32),
            ..RoadsConfig::paper_default()
        };
        let net = RoadsNetwork::build(Schema::unit_numeric(2), cfg, records.clone());
        let delays = DelaySpace::paper(n, 9);
        let range = |attr: u16, (lo, w): (f64, f64)| Predicate::Range { attr: AttrId(attr), lo, hi: lo + w };
        let q = Query::new(QueryId(0), vec![range(0, x), range(1, y)]);
        let entry = ServerId(seed % n as u32);

        for scope in [SearchScope::full(), SearchScope::levels((seed >> 16) as usize % 4)] {
            let mut top = entry;
            for _ in 0..scope.levels_up.unwrap_or(n) {
                top = net.tree().parent(top).unwrap_or(top);
            }
            let mut in_scope = net.tree().subtree(top);
            in_scope.sort();
            let central = CentralRepository::build(
                0,
                in_scope.iter().map(|s| records[s.index()].clone()).collect(),
            );
            let expected: Vec<ServerId> = (in_scope.iter().copied())
                .filter(|s| records[s.index()].iter().any(|r| q.matches(r)))
                .collect();

            let mut trace = Vec::new();
            let opts = QueryOptions::scoped(scope);
            let out = execute_query_with(&net, &delays, &q, entry, &opts, Some(&mut trace));
            let what = format!("entry {entry}, {scope:?}");
            prop_assert_eq!(
                out.matching_records,
                central.execute_query(&delays, &q, 0).matching_records,
                "{}", what
            );
            prop_assert_eq!(&out.matching_servers, &expected, "{}", what);
            let mut contacted: Vec<ServerId> = trace.iter().map(|e| e.server).collect();
            contacted.sort();
            let contacts = contacted.len();
            contacted.dedup();
            prop_assert_eq!(contacted.len(), contacts, "a server contacted twice: {}", what);
        }
    }

    #[test]
    fn root_path_is_consistent(n in 2usize..150, k in 2usize..8, pick in any::<u32>()) {
        let t = HierarchyTree::build(n, k);
        let servers = t.servers();
        let s = servers[pick as usize % servers.len()];
        let path = t.root_path(s);
        prop_assert_eq!(path[0], t.root());
        prop_assert_eq!(*path.last().unwrap(), s);
        for w in path.windows(2) {
            prop_assert_eq!(t.parent(w[1]), Some(w[0]));
        }
        prop_assert_eq!(path.len(), t.depth(s) + 1);
    }
}
