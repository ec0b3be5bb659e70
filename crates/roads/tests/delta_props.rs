//! Property tests: the incremental delta update path is equivalent to a
//! full rebuild.
//!
//! For random trees, record populations and insert/remove/update schedules
//! — including the empty-delta and whole-population-churn extremes — a
//! network maintained by [`update_round_delta`] must be indistinguishable
//! from one built from scratch over the final record sets: identical local
//! summaries, identical branch summaries, identical replica sets, and
//! byte-identical query recall.

use proptest::prelude::*;
use roads_core::{
    execute_query, update_round_delta, RecordDelta, RoadsConfig, RoadsNetwork, SearchScope,
    ServerId,
};
use roads_netsim::DelaySpace;
use roads_records::{OwnerId, Query, QueryBuilder, QueryId, Record, RecordId, Schema, Value};
use roads_summary::SummaryConfig;

const ATTRS: usize = 2;

fn mk_record(id: u64, v: f64) -> Record {
    // Spread the second attribute deterministically off the first so both
    // histograms see churn.
    let w = (v * 7.0).fract();
    Record::new_unchecked(
        RecordId(id),
        OwnerId((id % 1000) as u32),
        vec![Value::Float(v), Value::Float(w)],
    )
}

fn build_net(n_servers: usize, max_children: usize, seeds: &[(u8, u16)]) -> RoadsNetwork {
    let schema = Schema::unit_numeric(ATTRS);
    let cfg = RoadsConfig {
        max_children,
        summary: SummaryConfig::with_buckets(64),
        ..RoadsConfig::paper_default()
    };
    let mut records: Vec<Vec<Record>> = vec![Vec::new(); n_servers];
    for (i, &(srv, val)) in seeds.iter().enumerate() {
        let s = srv as usize % n_servers;
        records[s].push(mk_record(i as u64, val as f64 / u16::MAX as f64));
    }
    RoadsNetwork::build(schema, cfg, records)
}

/// One randomly generated mutation: 0 = insert fresh, 1 = remove some
/// existing (or absent) id, 2 = update some existing (or absent) id.
fn schedule_to_delta(net: &RoadsNetwork, ops: &[(u8, u8, u16)], next_id: &mut u64) -> RecordDelta {
    let n = net.len();
    // Collect the currently attached ids so removals/updates mostly hit.
    let mut attached: Vec<(ServerId, RecordId)> = Vec::new();
    for s in 0..n as u32 {
        for r in net.records(ServerId(s)) {
            attached.push((ServerId(s), r.id));
        }
    }
    let mut delta = RecordDelta::new();
    for &(kind, srv, val) in ops {
        let v = val as f64 / u16::MAX as f64;
        match kind % 3 {
            0 => {
                *next_id += 1;
                delta.insert(ServerId(srv as u32 % n as u32), mk_record(*next_id, v));
            }
            1 => {
                if attached.is_empty() {
                    // Nothing to remove: exercise the rejected-change path.
                    delta.remove(ServerId(srv as u32 % n as u32), RecordId(u64::MAX));
                } else {
                    let (s, id) = attached[(srv as usize + val as usize) % attached.len()];
                    delta.remove(s, id);
                }
            }
            _ => {
                if attached.is_empty() {
                    *next_id += 1;
                    delta.update(ServerId(srv as u32 % n as u32), mk_record(*next_id, v));
                } else {
                    let (s, id) = attached[(srv as usize + val as usize) % attached.len()];
                    delta.update(s, mk_record(id.0, v));
                }
            }
        }
    }
    delta
}

/// Assert the incrementally maintained network is indistinguishable from a
/// from-scratch build over its final record sets.
fn assert_equivalent(incremental: &RoadsNetwork, queries: &[Query]) -> Result<(), TestCaseError> {
    let records: Vec<Vec<Record>> = (0..incremental.len() as u32)
        .map(|s| incremental.records(ServerId(s)))
        .collect();
    let rebuilt = RoadsNetwork::build(incremental.schema().clone(), *incremental.config(), records);
    for s in incremental.tree().servers() {
        prop_assert_eq!(
            incremental.local_summary(s),
            rebuilt.local_summary(s),
            "local summary diverged at {}",
            s
        );
        prop_assert_eq!(
            incremental.branch_summary(s),
            rebuilt.branch_summary(s),
            "branch summary diverged at {}",
            s
        );
        prop_assert_eq!(
            incremental.replica_set(s),
            rebuilt.replica_set(s),
            "replica set diverged at {}",
            s
        );
    }
    let delays = DelaySpace::paper(incremental.len(), 11);
    for q in queries {
        for entry in [
            incremental.tree().root(),
            *incremental.tree().leaves().iter().max().unwrap(),
        ] {
            let a = execute_query(incremental, &delays, q, entry, SearchScope::full());
            let b = execute_query(&rebuilt, &delays, q, entry, SearchScope::full());
            prop_assert_eq!(
                &a.matching_servers,
                &b.matching_servers,
                "recall diverged (entry {})",
                entry
            );
            prop_assert_eq!(a.matching_records, b.matching_records);
        }
    }
    Ok(())
}

fn probe_queries(schema: &Schema) -> Vec<Query> {
    [(0.0, 1.0), (0.2, 0.3), (0.48, 0.52), (0.9, 0.95)]
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| {
            QueryBuilder::new(schema, QueryId(i as u64))
                .range("x0", lo, hi)
                .build()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn delta_rounds_equal_full_rebuild(
        n_servers in 2usize..24,
        max_children in 2usize..5,
        seeds in prop::collection::vec((any::<u8>(), any::<u16>()), 0..60),
        rounds in prop::collection::vec(
            prop::collection::vec((any::<u8>(), any::<u8>(), any::<u16>()), 0..20),
            1..4,
        ),
    ) {
        let mut net = build_net(n_servers, max_children, &seeds);
        let queries = probe_queries(&net.schema().clone());
        let mut next_id = 1_000_000u64;
        for ops in &rounds {
            let delta = schedule_to_delta(&net, ops, &mut next_id);
            let (breakdown, outcome) = update_round_delta(&mut net, &delta);
            // Accounting sanity: a round that dirtied nothing costs nothing;
            // a dirty round exports exactly its dirty servers.
            prop_assert_eq!(breakdown.export_messages, outcome.dirty.len() as u64);
            prop_assert_eq!(
                outcome.applied + outcome.rejected,
                delta.len() as u64
            );
            assert_equivalent(&net, &queries)?;
        }
    }

    #[test]
    fn whole_population_churn_still_converges(
        n_servers in 2usize..12,
        seeds in prop::collection::vec((any::<u8>(), any::<u16>()), 1..40),
    ) {
        let mut net = build_net(n_servers, 3, &seeds);
        // Remove *every* attached record, then repopulate every server —
        // the whole-shard-churn extreme.
        let mut delta = RecordDelta::new();
        for s in 0..n_servers as u32 {
            for r in net.records(ServerId(s)) {
                delta.remove(ServerId(s), r.id);
            }
        }
        for s in 0..n_servers as u32 {
            delta.insert(ServerId(s), mk_record(2_000_000 + s as u64, 0.5));
        }
        let (_, outcome) = update_round_delta(&mut net, &delta);
        prop_assert_eq!(outcome.rejected, 0);
        prop_assert_eq!(outcome.dirty.len(), n_servers);
        let queries = probe_queries(&net.schema().clone());
        assert_equivalent(&net, &queries)?;
    }

    #[test]
    fn empty_delta_is_free_and_preserves_state(
        n_servers in 2usize..16,
        seeds in prop::collection::vec((any::<u8>(), any::<u16>()), 0..40),
    ) {
        let mut net = build_net(n_servers, 3, &seeds);
        let root_before = net.branch_summary(net.tree().root()).clone();
        let (breakdown, outcome) = update_round_delta(&mut net, &RecordDelta::new());
        prop_assert_eq!(breakdown.total_bytes(), 0);
        prop_assert_eq!(breakdown.total_messages(), 0);
        prop_assert!(outcome.dirty.is_empty());
        prop_assert_eq!(net.branch_summary(net.tree().root()), &root_before);
        let queries = probe_queries(&net.schema().clone());
        assert_equivalent(&net, &queries)?;
    }
}

/// The same equivalence where removals are *refused*: every record carries
/// a categorical value, which neither a value set nor a Bloom filter can
/// unlearn, so every removal and every update of an attached record sends
/// its server's summary down the rebuild-from-rows path.
mod refused_removals {
    use proptest::prelude::*;
    use roads_core::{update_round_delta, RecordDelta, RoadsConfig, RoadsNetwork, ServerId};
    use roads_records::{
        AttrDef, OwnerId, Query, QueryBuilder, QueryId, Record, RecordBuilder, RecordId, Schema,
    };
    use roads_summary::{CategoricalMode, SummaryConfig};

    const KINDS: [&str; 5] = ["camera", "drone", "lidar", "sonar", "radar"];

    /// The values of one record: rate, priority, index into [`KINDS`].
    type Cells = (u16, u8, u8);

    fn cells() -> impl Strategy<Value = Cells> {
        (0u16..1000, 0u8..10, 0u8..KINDS.len() as u8)
    }

    fn typed_schema() -> Schema {
        Schema::new(vec![
            AttrDef::numeric("rate", 0.0, 1000.0),
            AttrDef::integer("priority", 0, 10),
            AttrDef::categorical("type"),
        ])
        .expect("distinct names, non-empty domains")
    }

    fn typed(schema: &Schema, id: u64, (rate, priority, kind): Cells) -> Record {
        RecordBuilder::new(schema, RecordId(id), OwnerId((id % 1000) as u32))
            .set("rate", f64::from(rate))
            .set("priority", i64::from(priority))
            .set("type", KINDS[kind as usize])
            .build()
            .expect("cells fit the schema")
    }

    /// One change: `(kind, pick, cells)` — 0 insert fresh, 1 remove, 2
    /// update; `pick` selects the server (inserts) or the victim.
    type Op = (u8, u16, Cells);

    fn op() -> impl Strategy<Value = Op> {
        (0u8..3, any::<u16>(), cells())
    }

    /// A round's delta, and whether it removes or replaces a record that
    /// was attached when the round began (which the summary must refuse).
    /// With `one_server`, every change goes to the server `anchor` picks,
    /// so a long round is a batch of ≥ 8 changes at one store.
    fn delta_of(
        net: &RoadsNetwork,
        (one_server, anchor, ops): &(bool, u8, Vec<Op>),
        next_id: &mut u64,
    ) -> (RecordDelta, bool) {
        let n = net.len() as u32;
        let anchor = ServerId(u32::from(*anchor) % n);
        let attached: Vec<(ServerId, RecordId)> = (0..n)
            .map(ServerId)
            .filter(|s| !one_server || *s == anchor)
            .flat_map(|s| net.records(s).into_iter().map(move |r| (s, r.id)))
            .collect();
        let mut delta = RecordDelta::new();
        let mut displaces = false;
        for &(kind, pick, cells) in ops {
            let victim = attached.get(pick as usize % attached.len().max(1)).copied();
            match (kind, victim) {
                (1, Some((s, id))) => {
                    delta.remove(s, id);
                    displaces = true;
                }
                (2, Some((s, id))) => {
                    delta.update(s, typed(net.schema(), id.0, cells));
                    displaces = true;
                }
                // Nothing attached to remove: the rejected-change path.
                (1, None) => {
                    delta.remove(anchor, RecordId(u64::MAX));
                }
                _ => {
                    *next_id += 1;
                    let s = if *one_server {
                        anchor
                    } else {
                        ServerId(u32::from(pick) % n)
                    };
                    delta.insert(s, typed(net.schema(), *next_id, cells));
                }
            }
        }
        (delta, displaces)
    }

    fn query_of(schema: &Schema, id: u64, (rate, priority, kind): Cells, shape: u8) -> Query {
        let b = QueryBuilder::new(schema, QueryId(id));
        let rate = f64::from(rate);
        match shape % 4 {
            0 => b.eq("type", KINDS[kind as usize]),
            1 => b.range("rate", rate, rate + 100.0),
            2 => b.one_of("type", &[KINDS[kind as usize], "sonar"]).range(
                "priority",
                f64::from(priority),
                10.0,
            ),
            _ => b
                .eq("type", KINDS[kind as usize])
                .range("rate", rate, rate + 250.0),
        }
        .build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn delta_rounds_equal_full_rebuild_where_removals_are_refused(
            n_servers in 1usize..8,
            max_children in 2usize..4,
            bloom in any::<bool>(),
            seeds in prop::collection::vec((any::<u8>(), cells()), 0..60),
            // Batches of one change and of 8–40, spread over the servers
            // or all at one store.
            rounds in prop::collection::vec(
                (
                    any::<bool>(),
                    any::<u8>(),
                    prop_oneof![
                        prop::collection::vec(op(), 1..=1),
                        prop::collection::vec(op(), 8..40),
                    ],
                ),
                1..5,
            ),
            probes in prop::collection::vec((cells(), any::<u8>()), 1..6),
        ) {
            let schema = typed_schema();
            let cfg = RoadsConfig {
                max_children,
                summary: SummaryConfig {
                    categorical: if bloom {
                        CategoricalMode::Bloom { bits: 256, hashes: 3 }
                    } else {
                        CategoricalMode::Enumerate
                    },
                    ..SummaryConfig::with_buckets(16)
                },
                ..RoadsConfig::paper_default()
            };
            let mut records: Vec<Vec<Record>> = vec![Vec::new(); n_servers];
            for (i, &(srv, cells)) in seeds.iter().enumerate() {
                records[srv as usize % n_servers].push(typed(&schema, i as u64, cells));
            }
            let mut net = RoadsNetwork::build(schema.clone(), cfg, records);
            let queries: Vec<Query> = probes
                .iter()
                .enumerate()
                .map(|(i, &(cells, shape))| query_of(&schema, i as u64, cells, shape))
                .collect();

            let mut next_id = 1_000_000u64;
            for round in &rounds {
                let (delta, displaces) = delta_of(&net, round, &mut next_id);
                let (_, outcome) = update_round_delta(&mut net, &delta);
                prop_assert_eq!(outcome.applied + outcome.rejected, delta.len() as u64);
                // At most one rebuild per server per batch — and at least
                // one in a round that displaces an attached record.
                prop_assert!(outcome.shard_rebuilds <= outcome.dirty.len() as u64);
                prop_assert_eq!(outcome.shard_rebuilds > 0, displaces);

                let survivors: Vec<Vec<Record>> =
                    (0..n_servers as u32).map(|s| net.records(ServerId(s))).collect();
                let rebuilt = RoadsNetwork::build(schema.clone(), cfg, survivors);
                for s in net.tree().servers() {
                    prop_assert_eq!(net.local_summary(s), rebuilt.local_summary(s), "local {}", s);
                    prop_assert_eq!(net.branch_summary(s), rebuilt.branch_summary(s), "branch {}", s);
                }
                for q in &queries {
                    let matching = net.matching_servers(q);
                    prop_assert_eq!(&matching, &rebuilt.matching_servers(q));
                    // Rebuilt summaries hide nothing the rows hold.
                    for &s in &matching {
                        prop_assert!(net.local_summary(s).may_match(q), "{} hides {:?}", s, q);
                        prop_assert!(net.branch_summary(net.tree().root()).may_match(q));
                    }
                }
            }
        }
    }
}
