//! Property test: the change accounting of every delta round adds up.
//!
//! `delta_props.rs` shows that a delta round leaves the network a rebuild
//! would; this file pins what [`DeltaOutcome`] reports about the round,
//! for random deltas on small networks that mix inserts, in-place
//! updates, removals of absent ids and malformed changes (an unknown
//! server, a payload of the wrong arity):
//!
//! * every change is counted once: `applied + rejected == delta.len()`,
//!   and exactly the malformed changes and the removals of absent ids are
//!   rejected (`delta_props.rs` checks the sum only on well-formed deltas);
//! * `dirty` is exactly the servers an applied change targeted, and
//!   `dirty_branches` exactly their ancestor closure, as `DeltaOutcome`'s
//!   docs define it;
//! * the delta round never moves more bytes than `update_round_full` on
//!   the same network.
//!
//! `shard_rebuilds <= dirty.len()` is pinned in `delta_props.rs`
//! (`refused_removals::delta_rounds_equal_full_rebuild_where_removals_are_refused`),
//! where removals are refused and rebuilds actually happen.

use proptest::prelude::*;
use roads_core::{
    update_round_delta, update_round_full, DeltaOutcome, RecordDelta, RoadsConfig, RoadsNetwork,
    ServerId,
};
use roads_records::{OwnerId, Record, RecordId, Schema, Value};
use roads_summary::SummaryConfig;
use std::collections::BTreeSet;

const ATTRS: usize = 2;

fn record(id: u64, x: f64, arity: usize) -> Record {
    let values = (0..arity).map(|a| Value::Float((x * (a + 1) as f64).fract()));
    Record::new_unchecked(RecordId(id), OwnerId((id % 1000) as u32), values.collect())
}

fn network(n_servers: usize, max_children: usize, seeds: &[(u8, u16)]) -> RoadsNetwork {
    let cfg = RoadsConfig {
        max_children,
        summary: SummaryConfig::with_buckets(32),
        ..RoadsConfig::paper_default()
    };
    let mut records: Vec<Vec<Record>> = vec![Vec::new(); n_servers];
    for (i, &(srv, val)) in seeds.iter().enumerate() {
        let x = f64::from(val) / f64::from(u16::MAX);
        records[srv as usize % n_servers].push(record(i as u64, x, ATTRS));
    }
    RoadsNetwork::build(Schema::unit_numeric(ATTRS), cfg, records)
}

/// One change: `(kind, pick, value)`. Kinds: 0 insert a fresh id, 1 update
/// an attached id in place, 2 remove an absent id, 3 name a server outside
/// the network, 4 carry a payload of the wrong arity.
type Op = (u8, u16, u16);

/// The delta of `ops`, with what it should do: the servers an applied
/// change targets, and how many changes must be rejected.
fn delta_of(net: &RoadsNetwork, ops: &[Op]) -> (RecordDelta, BTreeSet<ServerId>, u64) {
    let n = net.len() as u32;
    let attached: Vec<(ServerId, RecordId)> = (0..n)
        .map(ServerId)
        .flat_map(|s| net.records(s).into_iter().map(move |r| (s, r.id)))
        .collect();
    let mut delta = RecordDelta::new();
    let mut touched = BTreeSet::new();
    let mut rejected = 0;
    for (i, &(kind, pick, value)) in ops.iter().enumerate() {
        let x = f64::from(value) / f64::from(u16::MAX);
        let server = ServerId(u32::from(pick) % n);
        let fresh = 1_000_000 + i as u64;
        match (kind, attached.get(pick as usize % attached.len().max(1))) {
            (1, Some(&(s, id))) => {
                delta.update(s, record(id.0, x, ATTRS));
                touched.insert(s);
            }
            (2, _) => {
                delta.remove(server, RecordId(u64::MAX - u64::from(pick)));
                rejected += 1;
            }
            (3, _) => {
                delta.insert(ServerId(n + u32::from(pick % 4)), record(fresh, x, ATTRS));
                rejected += 1;
            }
            (4, _) => {
                let arity = if pick % 2 == 0 { ATTRS - 1 } else { ATTRS + 1 };
                delta.update(server, record(fresh, x, arity));
                rejected += 1;
            }
            // Kind 0, and an update while nothing is attached.
            _ => {
                delta.insert(server, record(fresh, x, ATTRS));
                touched.insert(server);
            }
        }
    }
    (delta, touched, rejected)
}

/// Every ancestor of a server in `dirty`, the servers themselves included.
fn ancestor_closure(net: &RoadsNetwork, dirty: &[ServerId]) -> BTreeSet<ServerId> {
    let mut closure = BTreeSet::new();
    for &s in dirty {
        let mut cur = Some(s);
        while let Some(c) = cur.filter(|&c| closure.insert(c)) {
            cur = net.tree().parent(c);
        }
    }
    closure
}

fn check_round(
    net: &RoadsNetwork,
    delta: &RecordDelta,
    touched: &BTreeSet<ServerId>,
    rejected: u64,
    outcome: &DeltaOutcome,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(outcome.applied + outcome.rejected, delta.len() as u64);
    prop_assert_eq!(outcome.rejected, rejected);
    let dirty: BTreeSet<ServerId> = outcome.dirty.iter().copied().collect();
    prop_assert_eq!(&dirty, touched);
    let branches: BTreeSet<ServerId> = outcome.dirty_branches.iter().copied().collect();
    prop_assert_eq!(
        branches.len(),
        outcome.dirty_branches.len(),
        "a branch twice"
    );
    prop_assert_eq!(branches, ancestor_closure(net, &outcome.dirty));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_delta_round_accounts_for_each_change_and_its_closure(
        n_servers in 1usize..12,
        max_children in 2usize..5,
        seeds in prop::collection::vec((any::<u8>(), any::<u16>()), 0..40),
        rounds in prop::collection::vec(
            prop::collection::vec((0u8..5, any::<u16>(), any::<u16>()), 0..24),
            1..4,
        ),
    ) {
        let mut net = network(n_servers, max_children, &seeds);
        for ops in &rounds {
            let (delta, touched, rejected) = delta_of(&net, ops);
            let (breakdown, outcome) = update_round_delta(&mut net, &delta);
            check_round(&net, &delta, &touched, rejected, &outcome)?;
            let full = update_round_full(&mut net.clone());
            prop_assert!(
                breakdown.total_bytes() <= full.total_bytes(),
                "delta round moved {} B, the full round {} B",
                breakdown.total_bytes(),
                full.total_bytes()
            );
        }
    }
}
