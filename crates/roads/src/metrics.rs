//! Query-metric recording.

use crate::queryexec::QueryOutcome;
use roads_telemetry::Registry;

/// Record one executed query's outcome into `reg` under the `roads.*`
/// namespace: query/message/byte counters plus latency and fan-out
/// histograms. Figure binaries snapshot the registry into their JSON
/// export.
pub fn record_query_outcome(reg: &Registry, out: &QueryOutcome) {
    reg.counter("roads.queries").inc();
    reg.counter("roads.query_messages").add(out.query_messages);
    reg.counter("roads.query_bytes").add(out.query_bytes);
    reg.counter("roads.matching_records")
        .add(out.matching_records as u64);
    reg.histogram("roads.query_latency_ms")
        .record(out.latency_ms);
    reg.histogram("roads.servers_contacted")
        .record(out.servers_contacted as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_recorded_into_registry() {
        let reg = Registry::new();
        let out = QueryOutcome {
            latency_ms: 12.5,
            query_bytes: 400,
            query_messages: 5,
            servers_contacted: 5,
            matching_servers: vec![],
            matching_records: 2,
        };
        record_query_outcome(&reg, &out);
        record_query_outcome(&reg, &out);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["roads.queries"], 2);
        assert_eq!(snap.counters["roads.query_bytes"], 800);
        assert_eq!(snap.counters["roads.matching_records"], 4);
        assert_eq!(snap.histograms["roads.query_latency_ms"].count, 2);
    }
}
