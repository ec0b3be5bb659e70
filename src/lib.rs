//! # ROADS federation — a replication-overlay assisted resource discovery service
//!
//! Reproduction of *"A Replication Overlay Assisted Resource Discovery
//! Service for Federated Systems"* (Yang, Ye, Liu — ICPP 2008) as a Rust
//! workspace. This facade crate re-exports the public API of every
//! sub-crate; see `DESIGN.md` for the system inventory and `EXPERIMENTS.md`
//! for the paper-vs-measured record.
//!
//! ## The 90-second tour
//!
//! ```
//! use roads_federation::prelude::*;
//!
//! // A federation schema all participants share.
//! let schema = Schema::new(vec![
//!     AttrDef::categorical("type"),
//!     AttrDef::categorical("encoding"),
//!     AttrDef::numeric("rate", 0.0, 1000.0),
//! ]).unwrap();
//!
//! // Each organization describes its resources as records…
//! let records: Vec<Vec<Record>> = (0..8).map(|org| vec![
//!     RecordBuilder::new(&schema, RecordId(org), OwnerId(org as u32))
//!         .set("type", "camera")
//!         .set("encoding", if org % 2 == 0 { "MPEG2" } else { "H264" })
//!         .set("rate", 100.0 + org as f64 * 50.0)
//!         .build()
//!         .unwrap(),
//! ]).collect();
//!
//! // …and the federation forms a hierarchy, aggregates summaries
//! // bottom-up, and replicates them sideways.
//! let net = RoadsNetwork::build(schema.clone(), RoadsConfig::paper_default(), records);
//!
//! // Multi-dimensional range query from ANY server, not just the root.
//! let query = QueryBuilder::new(&schema, QueryId(1))
//!     .eq("type", "camera")
//!     .eq("encoding", "MPEG2")
//!     .gt("rate", 150.0)
//!     .build();
//! let delays = DelaySpace::paper(net.len(), 7);
//! let outcome = execute_query(&net, &delays, &query, ServerId(5), SearchScope::full());
//! assert!(outcome.matching_records > 0);
//!
//! // The same query in full: scope and forwarding style are
//! // `QueryOptions`; observation is an optional contact log.
//! let opts = QueryOptions {
//!     forwarding: ForwardingMode::ClientRedirect,
//!     ..QueryOptions::default()
//! };
//! let mut contacts = Vec::new();
//! let redirected =
//!     execute_query_with(&net, &delays, &query, ServerId(5), &opts, Some(&mut contacts));
//! assert_eq!(redirected.matching_records, outcome.matching_records);
//! assert_eq!(contacts.len(), redirected.servers_contacted);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`records`] | attributes, schemas, records, range queries, wire sizes |
//! | [`summary`] | histograms, value sets, Bloom filters, aggregation |
//! | [`netsim`] | discrete-event simulator + synthesized Internet delay space |
//! | [`core`] | the ROADS hierarchy, replication overlay, query engine |
//! | [`sword`] | the SWORD multi-ring DHT baseline |
//! | [`central`] | the central-repository baseline |
//! | [`workload`] | the paper's record/query generators |
//! | [`analysis`] | closed-form model of §IV |
//! | [`runtime`] | threaded prototype with an indexed record store |

/// Closed-form analytic model.
pub use roads_analysis as analysis;
/// The central-repository baseline.
pub use roads_central as central;
/// The ROADS system itself.
pub use roads_core as core;
/// Discrete-event network simulation.
pub use roads_netsim as netsim;
/// Resource records, schemas and queries.
pub use roads_records as records;
/// Threaded prototype runtime.
pub use roads_runtime as runtime;
/// Summary structures and their aggregation.
pub use roads_summary as summary;
/// The SWORD DHT baseline.
pub use roads_sword as sword;
/// Workload generation.
pub use roads_workload as workload;

/// Everything a typical application needs, in one import.
pub mod prelude {
    pub use roads_core::{
        execute_query, execute_query_with, replication_set, update_round, ForwardingMode,
        HierarchyTree, QueryOptions, QueryOutcome, RoadsConfig, RoadsNetwork, SearchScope,
        ServerId,
    };
    pub use roads_netsim::{DelaySpace, DelaySpaceConfig, SimTime};
    pub use roads_records::{
        AttrDef, AttrId, AttrType, OwnerId, Predicate, Query, QueryBuilder, QueryId, Record,
        RecordBuilder, RecordId, Schema, Value, WireSize,
    };
    pub use roads_summary::{CategoricalMode, Summary, SummaryConfig};
    pub use roads_telemetry::LatencyStats;
}
