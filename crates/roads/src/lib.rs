//! ROADS — Replication Overlay Assisted resource Discovery Service.
//!
//! Implementation of the paper's primary contribution (§III):
//!
//! * [`tree`] — the federated hierarchy: incremental, balance-aware join
//!   (least-depth / least-descendants walk), root paths, loop avoidance,
//!   departure handling.
//! * [`overlay`] — the replication overlay: each server replicates the
//!   branch summaries of its siblings, its ancestors and its ancestors'
//!   siblings, so combined they cover the whole hierarchy and any server can
//!   be a query entry point.
//! * [`engine`] — a converged ROADS network: per-server record stores,
//!   bottom-up branch-summary aggregation, conservative query evaluation,
//!   and the protocol's per-server step ([`RoadsNetwork::route`]: a
//!   server contacted in a [`ContactMode`] says whether it searches its
//!   own records and whom the query goes to next) that the simulator and
//!   the live cluster both run.
//! * [`machine`] — the per-query protocol machine both planes drive
//!   ([`QueryMachine`]): visit dedup, retry, failover, deadline and
//!   completeness proof over the contact log it keeps. No I/O, no clock:
//!   time is an argument.
//! * [`queryexec`] — the simulator's driver of that machine over a
//!   [`roads_netsim::DelaySpace`], with latency and byte accounting exactly
//!   as the paper measures them. One executor ([`execute_query_with`])
//!   takes scope and forwarding style as [`QueryOptions`]; the
//!   explain record, the flight-recorder span tree and the hollow
//!   (false-positive) verdicts are derived from the contact log.
//! * [`batch`] — a worker pool evaluating whole query batches over one
//!   `Arc`-shared converged network (throughput experiments, fig. 14).
//! * [`updates`] — per-round update-overhead accounting (summary export,
//!   bottom-up aggregation, top-down replication).
//! * [`protocol`] — one ROADS server over the discrete-event simulator
//!   ([`protocol::RoadsServer`]): every `ts` a heartbeat to each child
//!   carries the replicas it keeps, and the reply carries the child's
//!   branch summary back up; one TTL expires silent peers and stale
//!   replicas alike. It carries summaries, not queries; its tests check
//!   that it converges to the engine's summaries, over a given tree and
//!   over the tree the servers build by joining. Its copies are the only
//!   stale summaries there are, and [`protocol::audit_copies`] audits them
//!   against ground truth: divergence and per-level false positives and
//!   false negatives.
//! * [`maintenance`] — that server's place in the hierarchy (its
//!   `Membership`): the join walk, failure detection, grandparent rejoin,
//!   root election and split-brain merge; [`maintenance::extract_tree`]
//!   reads the tree the servers hold.
//! * [`metrics`] — latency statistics helpers.
//! * [`planner`] — `plan_query` and its types, forwards kept for
//!   `benchmark/`: a plan is [`RoadsNetwork::route`]'s answer at the entry.
//! * [`store`] — the record store every server runs on: shared rows
//!   searched through two-byte code columns ([`RecordStore`]), per server
//!   of a network that table plus the exact summary of its rows, kept
//!   current in place ([`ServerStore`]), and the [`RecordDelta`] plane one
//!   incremental update round applies.
//! * [`cache`] — per-server TTL'd result cache keyed by structural query
//!   fingerprints; entries age out by TTL and are invalidated per subtree
//!   by record deltas (dirty-scope intersection + delta-summary match).

pub mod batch;
pub mod cache;
pub mod config;
pub mod engine;
pub mod machine;
pub mod maintenance;
pub mod metrics;
pub mod overlay;
pub mod planner;
pub mod policy;
pub mod protocol;
pub mod queryexec;
pub mod store;
pub mod tree;
pub mod updates;

pub use batch::QueryBatch;
pub use cache::{execute_query_cached, query_fingerprint, CachedResult, ResultCache};
pub use config::RoadsConfig;
pub use engine::{BuildOptions, ContactMode, EvalResult, RoadsNetwork};
pub use machine::{fault_decision, FaultSettings, Finished, Outbound, QueryMachine, TraceEvent};
pub use metrics::record_query_outcome;
pub use overlay::{replication_set, ReplicaRole, ReplicationSet};
pub use planner::{plan_query, PlanAction, PlannedContact, QueryPlan};
pub use policy::{
    apply_policy, Disclosure, OpenPolicy, RequesterId, SharingPolicy, TieredPolicy, TrustClass,
};
pub use queryexec::{
    execute_query, execute_query_planned, execute_query_with, explain_from_trace, hollow_contacts,
    ForwardingMode, QueryOptions, QueryOutcome, SearchScope,
};
pub use store::{DeltaOutcome, RecordChange, RecordDelta, RecordStore, ServerStore};
pub use tree::{HierarchyTree, ServerId, TreeError};
pub use updates::{
    record_update_round_events, update_round, update_round_delta, update_round_full,
    UpdateBreakdown,
};
