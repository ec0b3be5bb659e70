//! Batched concurrent query evaluation over one shared converged network.
//!
//! The replication overlay's pitch (§III-C) is that queries can start
//! anywhere, spreading entry load across the federation. [`QueryBatch`]
//! exploits the flip side of that in the simulation plane: a converged
//! [`RoadsNetwork`] is immutable during query processing, so any number of
//! workers can evaluate queries against one `Arc`-shared instance with no
//! coordination beyond handing out work, split in contiguous index chunks
//! by the same `par_map` the network build fans out with. Each query's
//! outcome is exactly what [`execute_query`] returns for it — the batch
//! only changes wall-clock time, never results — so output is
//! deterministic and ordered like the input regardless of the worker
//! count.

use crate::engine::{par_map, RoadsNetwork};
use crate::queryexec::{execute_query, QueryOutcome, SearchScope};
use crate::tree::ServerId;
use roads_netsim::DelaySpace;
use roads_records::Query;
use std::sync::Arc;

/// A worker pool evaluating a slice of queries over a shared network.
#[derive(Debug, Clone)]
pub struct QueryBatch {
    net: Arc<RoadsNetwork>,
    delays: Arc<DelaySpace>,
    threads: usize,
    scope: SearchScope,
}

impl QueryBatch {
    /// A batch executor over `net`/`delays` with one worker and the full
    /// search scope.
    pub fn new(net: Arc<RoadsNetwork>, delays: Arc<DelaySpace>) -> Self {
        QueryBatch {
            net,
            delays,
            threads: 1,
            scope: SearchScope::full(),
        }
    }

    /// Set the worker count (clamped to ≥ 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Restrict every query to `scope` (see [`SearchScope`]).
    pub fn scope(mut self, scope: SearchScope) -> Self {
        self.scope = scope;
        self
    }

    /// The shared network this batch queries.
    pub fn network(&self) -> &RoadsNetwork {
        &self.net
    }

    /// Evaluate every `(query, entry)` pair, returning outcomes in input
    /// order.
    pub fn run(&self, queries: &[(Query, ServerId)]) -> Vec<QueryOutcome> {
        par_map(queries.len(), self.threads, |i| {
            let (q, entry) = &queries[i];
            execute_query(&self.net, &self.delays, q, *entry, self.scope)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoadsConfig;
    use roads_records::{OwnerId, QueryBuilder, QueryId, Record, RecordId, Schema, Value};
    use roads_summary::SummaryConfig;

    fn fixture(n: usize) -> (Arc<RoadsNetwork>, Arc<DelaySpace>, Vec<(Query, ServerId)>) {
        let schema = Schema::unit_numeric(2);
        let cfg = RoadsConfig {
            max_children: 3,
            summary: SummaryConfig::with_buckets(64),
            ..RoadsConfig::paper_default()
        };
        let records: Vec<Vec<Record>> = (0..n)
            .map(|s| {
                (0..5)
                    .map(|i| {
                        Record::new_unchecked(
                            RecordId((s * 5 + i) as u64),
                            OwnerId(s as u32),
                            vec![
                                Value::Float(s as f64 / n as f64),
                                Value::Float(i as f64 / 5.0),
                            ],
                        )
                    })
                    .collect()
            })
            .collect();
        let net = Arc::new(RoadsNetwork::build(schema.clone(), cfg, records));
        let delays = Arc::new(DelaySpace::paper(n, 9));
        let queries: Vec<(Query, ServerId)> = (0..30u64)
            .map(|i| {
                let lo = (i as f64 / 30.0) * 0.7;
                let q = QueryBuilder::new(&schema, QueryId(i))
                    .range("x0", lo, lo + 0.25)
                    .build();
                (q, ServerId((i % n as u64) as u32))
            })
            .collect();
        (net, delays, queries)
    }

    #[test]
    fn batch_matches_sequential_execution_at_any_width() {
        let (net, delays, queries) = fixture(17);
        let expected: Vec<QueryOutcome> = queries
            .iter()
            .map(|(q, e)| execute_query(&net, &delays, q, *e, SearchScope::full()))
            .collect();
        for threads in [1, 2, 4, 33] {
            let got = QueryBatch::new(Arc::clone(&net), Arc::clone(&delays))
                .threads(threads)
                .run(&queries);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn batch_honors_scope() {
        let (net, delays, queries) = fixture(17);
        let scoped = QueryBatch::new(Arc::clone(&net), Arc::clone(&delays))
            .threads(4)
            .scope(SearchScope::levels(0))
            .run(&queries);
        let expected: Vec<QueryOutcome> = queries
            .iter()
            .map(|(q, e)| execute_query(&net, &delays, q, *e, SearchScope::levels(0)))
            .collect();
        assert_eq!(scoped, expected);
    }

    #[test]
    fn batch_empty_and_threads_clamp() {
        let (net, delays, _) = fixture(5);
        let b = QueryBatch::new(net, delays).threads(0);
        assert!(b.run(&[]).is_empty());
    }
}
