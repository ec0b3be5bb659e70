//! Live prototype runtime (§V, "Prototype Benchmarking").
//!
//! The paper benchmarks a Java prototype on a Xeon cluster where every
//! server fronts a DB2 database of 200K records and the measured metric is
//! *total response time*: "the time for a client to receive all matching
//! records after it sends out a query", including server-side retrieval —
//! the part "difficult to simulate or analyze because it may involve a
//! backend database".
//!
//! This crate reproduces that setup live, in one process:
//!
//! * [`RecordStore`] — the in-memory record table standing in for
//!   DB2+JDBC. It is `roads_core`'s one store, re-exported: the table the
//!   simulator searches and the update rounds mutate is the table a live
//!   server answers from (`net.store(id).table()`, searched in place). A calibrated per-record retrieval cost (see
//!   [`RuntimeConfig::per_record_retrieval_us`]) makes retrieval dominate
//!   at high selectivity exactly as in the paper's testbed.
//! * [`cluster::RoadsCluster`] — every ROADS server as passive state (a
//!   locked cell: record store, owner policy, FIFO of delivered requests,
//!   service clock) that owns no thread: whoever delivers a request — the
//!   querying client at zero delay, otherwise the one timer thread — runs
//!   the server's step, whose routing half is `roads_core`'s
//!   `RoadsNetwork::route`, the rule the simulator's executor runs too.
//!   One way to start it ([`RoadsCluster::start_with`]: owner policies and
//!   observers are [`Attachments`]) and one way to query it
//!   ([`RoadsCluster::query_with`]), each beside its attach-nothing /
//!   anonymous short form. Delay-space latencies apply per message, a
//!   server's emulated backend cost keeps it busy as a timer event, and
//!   the client drives the redirect protocol and gathers records from
//!   matching servers whose busy periods run **in parallel**. Any number
//!   of client threads query concurrently; a cluster of any size owns one
//!   thread.
//! * [`central::CentralCluster`] — the single-server baseline: one round
//!   trip, but serial retrieval of every matching record.
//! * `faults` — timed delivery: one timer thread delivers delayed
//!   messages and ends busy periods. The fault rules — bounded retry with
//!   exponential backoff, dead branches routed around via the replication
//!   overlay (§III-C) — are [`roads_core::machine`]'s.
//!   [`cluster::RoadsCluster`] exposes `kill_server`/`restart_server` for
//!   live fault injection, and a non-lethal sibling, `slow_server`, which
//!   multiplies a straggler's compute and delivery delays. It contains a
//!   panicking server step as that server's crash, and reports
//!   `complete`/`failed_servers`/`retries` per query.
//! * [`health`] — the live observability plane: a cluster started with
//!   a registry ([`Attachments::registry`]) maintains per-server
//!   queue-depth and liveness gauges, the timer thread's lag histogram,
//!   per-mode and per-server dispatch latency histograms,
//!   deadline-miss/SLO-burn counters and labeled `runtime.fault_events`
//!   series, read back through the registry's snapshot and summarized by
//!   [`RoadsCluster::health`] into a [`ClusterHealth`] table — itself a
//!   strict artifact (marker `health`) that `roads-inspect health`
//!   prints. The same registry counts, per tree level, the branch replies
//!   of real queries and those that were live false positives
//!   (`audit.live_probes{level}`, `audit.live_false_positives{level}`).
//!   The stale copies a federation holds are audited on the simulator
//!   instead (`roads_core::protocol::audit_copies`, Figure 16): every live
//!   query here routes on the converged summaries.
//!
//! Fig. 11's crossover — the central repository wins at low selectivity
//! (fewer round trips), ROADS catches up and wins as selectivity grows
//! (parallel retrieval across servers) — emerges from these mechanics.
//! Fig. 13 (availability under crashes) exercises the fault plane.

pub mod central;
pub mod cluster;
pub mod config;
pub(crate) mod faults;
pub mod health;

pub use central::CentralCluster;
pub use cluster::{Attachments, ContactMode, RoadsCluster, RuntimeOutcome};
pub use config::RuntimeConfig;
pub use health::{ClusterHealth, ServerHealth};
pub use roads_core::RecordStore;
