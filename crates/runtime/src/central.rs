//! The live central-repository baseline: one server thread holding every
//! record, serving queries in a single round trip with *serial* retrieval.

use crate::cluster::RuntimeOutcome;
use crate::config::RuntimeConfig;
use crossbeam::channel::{unbounded, Sender};
use roads_core::RecordStore;
use roads_netsim::DelaySpace;
use roads_records::{Query, Record, Schema, WireSize};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

enum RepoRequest {
    Query {
        query: Query,
        reply: Sender<Vec<Record>>,
    },
    Shutdown,
}

/// A running central repository.
pub struct CentralCluster {
    delays: Arc<DelaySpace>,
    cfg: RuntimeConfig,
    repo: usize,
    sender: Sender<RepoRequest>,
    handle: Option<JoinHandle<()>>,
}

impl CentralCluster {
    /// Spawn the repository thread at delay-space index `repo`, loading all
    /// owners' records.
    pub fn start(
        schema: Schema,
        records_per_owner: Vec<Vec<Record>>,
        delays: DelaySpace,
        repo: usize,
        cfg: RuntimeConfig,
    ) -> Self {
        let all: Vec<Record> = records_per_owner.into_iter().flatten().collect();
        let store = RecordStore::new(schema, all);
        let (tx, rx) = unbounded::<RepoRequest>();
        let handle = thread::Builder::new()
            .name("central-repo".into())
            .spawn(move || {
                while let Ok(req) = rx.recv() {
                    match req {
                        RepoRequest::Shutdown => break,
                        RepoRequest::Query { query, reply } => {
                            let records: Vec<Record> =
                                store.search(&query).into_iter().cloned().collect();
                            let result_bytes: usize = records.iter().map(WireSize::wire_size).sum();
                            // Serial retrieval of the whole result set at
                            // one server — the contrast to ROADS' parallel
                            // per-branch retrieval.
                            let busy_us = cfg.base_query_cost_us
                                + cfg.per_record_retrieval_us * records.len() as u64
                                + cfg.transfer_us(result_bytes);
                            thread::sleep(Duration::from_micros(busy_us));
                            let _ = reply.send(records);
                        }
                    }
                }
            })
            .expect("spawn repository thread");
        CentralCluster {
            delays: Arc::new(delays),
            cfg,
            repo,
            sender: tx,
            handle: Some(handle),
        }
    }

    /// Execute one query from a client at delay-space index `start`.
    pub fn query(&self, query: &Query, start: usize) -> RuntimeOutcome {
        let t0 = Instant::now();
        let one_way_ms = self.delays.delay_ms(start, self.repo) * self.cfg.delay_scale;
        let one_way = Duration::from_micros((one_way_ms * 1000.0) as u64);
        thread::sleep(one_way);
        let (reply_tx, reply_rx) = unbounded();
        self.sender
            .send(RepoRequest::Query {
                query: query.clone(),
                reply: reply_tx,
            })
            .expect("repository thread alive");
        let records = reply_rx.recv().expect("repository replies");
        thread::sleep(one_way);
        RuntimeOutcome {
            response_ms: t0.elapsed().as_secs_f64() * 1000.0,
            records,
            servers_contacted: 1,
            complete: true,
            failed_servers: Vec::new(),
            retries: 0,
        }
    }

    /// Stop the repository thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let _ = self.sender.send(RepoRequest::Shutdown);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for CentralCluster {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_records::{OwnerId, QueryBuilder, QueryId, RecordId, Value};

    fn records(n_owners: usize, per_owner: usize) -> Vec<Vec<Record>> {
        (0..n_owners)
            .map(|o| {
                (0..per_owner)
                    .map(|i| {
                        Record::new_unchecked(
                            RecordId((o * per_owner + i) as u64),
                            OwnerId(o as u32),
                            vec![Value::Float(o as f64 / n_owners as f64)],
                        )
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn central_query_round_trip() {
        let schema = Schema::unit_numeric(1);
        let c = CentralCluster::start(
            schema.clone(),
            records(8, 10),
            DelaySpace::paper(8, 3),
            0,
            RuntimeConfig::test_fast(),
        );
        let q = QueryBuilder::new(&schema, QueryId(1))
            .range("x0", 0.0, 0.3)
            .build();
        let out = c.query(&q, 5);
        assert_eq!(out.records.len(), 30, "owners 0,1,2 match");
        assert!(out.response_ms > 0.0);
        assert_eq!(out.servers_contacted, 1);
        c.shutdown();
    }

    #[test]
    fn retrieval_cost_scales_with_matches() {
        let schema = Schema::unit_numeric(1);
        let cfg = RuntimeConfig {
            per_record_retrieval_us: 2_000,
            base_query_cost_us: 0,
            delay_scale: 0.0,
            ..RuntimeConfig::test_fast()
        };
        let c = CentralCluster::start(
            schema.clone(),
            records(10, 20),
            DelaySpace::paper(10, 3),
            0,
            cfg,
        );
        let narrow = QueryBuilder::new(&schema, QueryId(2))
            .range("x0", 0.0, 0.05)
            .build();
        let wide = QueryBuilder::new(&schema, QueryId(3))
            .range("x0", 0.0, 1.0)
            .build();
        let t_narrow = c.query(&narrow, 0);
        let t_wide = c.query(&wide, 0);
        assert_eq!(t_narrow.records.len(), 20);
        assert_eq!(t_wide.records.len(), 200);
        assert!(
            t_wide.response_ms > t_narrow.response_ms * 3.0,
            "serial retrieval must dominate: {} vs {}",
            t_wide.response_ms,
            t_narrow.response_ms
        );
        c.shutdown();
    }
}
