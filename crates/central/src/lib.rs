//! Central-repository baseline (§IV).
//!
//! "With a central repository, all resource owners export their resource
//! records to the repository, which answers queries by searching these
//! records locally." One round trip per query; every record re-exported
//! every `tr`; all storage concentrated on one server.

use roads_netsim::DelaySpace;
use roads_records::{wire::MSG_HEADER_BYTES, Query, Record, WireSize};

/// Update-round accounting for the central repository (Eq. (3):
/// `O(r·K·N / tr)`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CentralUpdateStats {
    /// Bytes sent exporting records.
    pub bytes: u64,
    /// Export messages (one per owner per round; owners batch their K
    /// records into one message).
    pub messages: u64,
}

impl CentralUpdateStats {
    /// Per-second byte rate given the record refresh period `tr`.
    pub fn bytes_per_second(&self, tr_ms: u64) -> f64 {
        self.bytes as f64 / (tr_ms as f64 / 1000.0)
    }
}

/// Outcome of one query against the repository.
#[derive(Debug, Clone, PartialEq)]
pub struct CentralQueryOutcome {
    /// One-way latency until the query reaches the repository (ms) — the
    /// same "reaching the last server" definition as ROADS/SWORD.
    pub latency_ms: f64,
    /// Query bytes (the single query message).
    pub query_bytes: u64,
    /// Matching records.
    pub matching_records: usize,
}

/// The central repository: one server holding everyone's records.
#[derive(Debug, Clone)]
pub struct CentralRepository {
    /// Index of the repository server in the delay space.
    repo: usize,
    /// Per-owner record sets (kept per owner for export accounting).
    records: Vec<Vec<Record>>,
}

impl CentralRepository {
    /// Build a repository at delay-space index `repo` holding
    /// `records_per_owner`.
    pub fn build(repo: usize, records_per_owner: Vec<Vec<Record>>) -> Self {
        CentralRepository {
            repo,
            records: records_per_owner,
        }
    }

    /// Total records stored.
    pub fn len(&self) -> usize {
        self.records.iter().map(Vec::len).sum()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage at the repository in bytes (Table I's `r·K·N`).
    pub fn storage_bytes(&self) -> usize {
        self.records.iter().flatten().map(WireSize::wire_size).sum()
    }

    /// Account one export round: every owner ships all its records to the
    /// repository in one batched message.
    pub fn update_round(&self) -> CentralUpdateStats {
        let mut stats = CentralUpdateStats::default();
        for owner_records in &self.records {
            if owner_records.is_empty() {
                continue;
            }
            let payload: usize = owner_records.iter().map(WireSize::wire_size).sum();
            stats.bytes += (payload + MSG_HEADER_BYTES) as u64;
            stats.messages += 1;
        }
        stats
    }

    /// Execute a query from the client at delay-space index `start`.
    pub fn execute_query(
        &self,
        delays: &DelaySpace,
        query: &Query,
        start: usize,
    ) -> CentralQueryOutcome {
        let latency_ms = delays.delay_ms(start, self.repo);
        let matching_records = self
            .records
            .iter()
            .flatten()
            .filter(|r| query.matches(r))
            .count();
        CentralQueryOutcome {
            latency_ms,
            query_bytes: (query.wire_size() + MSG_HEADER_BYTES) as u64,
            matching_records,
        }
    }
}

/// Record one central-repository query outcome into `reg` under the
/// `central.*` namespace, comparable with the `roads.*`/`sword.*` series.
pub fn record_query_outcome(reg: &roads_telemetry::Registry, out: &CentralQueryOutcome) {
    reg.counter("central.queries").inc();
    reg.counter("central.query_bytes").add(out.query_bytes);
    reg.counter("central.matching_records")
        .add(out.matching_records as u64);
    reg.histogram("central.query_latency_ms")
        .record(out.latency_ms);
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_records::{OwnerId, QueryBuilder, QueryId, RecordId, Schema, Value};

    fn repo(n_owners: usize, per_owner: usize) -> (CentralRepository, Schema) {
        let schema = Schema::unit_numeric(2);
        let records = (0..n_owners)
            .map(|o| {
                (0..per_owner)
                    .map(|i| {
                        Record::new_unchecked(
                            RecordId((o * per_owner + i) as u64),
                            OwnerId(o as u32),
                            vec![
                                Value::Float((o as f64) / n_owners as f64),
                                Value::Float((i as f64) / per_owner as f64),
                            ],
                        )
                    })
                    .collect()
            })
            .collect();
        (CentralRepository::build(0, records), schema)
    }

    #[test]
    fn stores_everything() {
        let (r, _) = repo(10, 20);
        assert_eq!(r.len(), 200);
        assert!(r.storage_bytes() > 200 * 20);
    }

    #[test]
    fn update_round_one_message_per_owner() {
        let (r, _) = repo(10, 20);
        let u = r.update_round();
        assert_eq!(u.messages, 10);
        // Bytes ≳ all record bytes.
        assert!(u.bytes as usize >= r.storage_bytes());
    }

    #[test]
    fn query_single_round_trip() {
        let (r, schema) = repo(10, 20);
        let delays = DelaySpace::paper(10, 4);
        let q = QueryBuilder::new(&schema, QueryId(1))
            .range("x0", 0.0, 0.15)
            .build();
        let out = r.execute_query(&delays, &q, 7);
        assert_eq!(out.latency_ms, delays.delay_ms(7, 0));
        assert_eq!(out.matching_records, 2 * 20, "owners 0 and 1 match");
    }

    #[test]
    fn query_from_repo_itself_is_free() {
        let (r, schema) = repo(4, 5);
        let delays = DelaySpace::paper(4, 4);
        let q = QueryBuilder::new(&schema, QueryId(2))
            .range("x0", 0.0, 1.0)
            .build();
        let out = r.execute_query(&delays, &q, 0);
        assert_eq!(out.latency_ms, 0.0);
        assert_eq!(out.matching_records, 20);
    }

    #[test]
    fn bytes_per_second_inverse_in_tr() {
        let (r, _) = repo(4, 5);
        let u = r.update_round();
        assert!(u.bytes_per_second(1_000) > u.bytes_per_second(2_000));
    }
}
