//! Offline views of the incremental update plane: the `DELTA.json`
//! artifact `fig18_delta_churn` writes from its 1% churn cell.
//!
//! The artifact captures what the incremental delta update path did over
//! that cell: the size of the record population, how
//! many changes one churn round carried, wall time of a full
//! rebuild-and-propagate round vs the delta round over the same network,
//! the resulting speedup, and the delta outcome counters mirrored from
//! the `roads.delta.*` registry counters (applied/rejected changes,
//! dirty servers and branches, summary rebuilds).
//!
//! Two consumers share this module:
//!
//! * `roads-inspect delta <artifact>` — the summary table
//!   ([`render_delta_table`]).
//! * `roads-inspect check` — strict schema validation via
//!   `DeltaReport::from_json` (derived by the artifact layer), including
//!   the delta path's core invariant (the incremental round stays at
//!   least [`MIN_DELTA_SPEEDUP`] times faster than the full round) so a
//!   regression fails the artifact check, not just the figure run.

use roads_telemetry::{artifact, json_fields};

/// Current `DELTA.json` schema version.
pub const DELTA_SCHEMA_VERSION: u64 = 1;

/// The minimum full-round / delta-round speedup a healthy incremental
/// path must sustain in fig18's 1% cell (1% of 1M records per round);
/// the figure asserts it and `DeltaReport::from_json` rejects artifacts
/// below it.
///
/// Why 2: a full rebuild is one sequential pass over each server's
/// contiguous rows (≈ 30 ns a row), a delta change a map probe, a row
/// swap, a store per column and five summary updates at random addresses
/// (≈ 0.7 µs), so 1% churn reads 3.3–6.1× and a loud neighbour can
/// halve that. The floor is a ratio: whatever makes the rebuild cheaper
/// lowers the readings without any delta round getting slower.
pub const MIN_DELTA_SPEEDUP: f64 = 2.0;

/// The incremental-update summary of one fig18 run's 1% churn cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaReport {
    /// Document schema version ([`DELTA_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// The run that wrote the document (`"fig18_delta_churn, 2 runs"`).
    pub config: String,
    /// Servers in the churn network.
    pub servers: u64,
    /// Total records across all servers.
    pub records: u64,
    /// Record changes per churn round.
    pub churn_changes: u64,
    /// Mean wall time of one full rebuild-and-propagate round (ms).
    pub full_ms: f64,
    /// Mean wall time of one incremental delta round (ms).
    pub delta_ms: f64,
    /// `full_ms / delta_ms`.
    pub speedup: f64,
    /// Propagation bytes of one full round.
    pub full_bytes: u64,
    /// Propagation bytes of one delta round.
    pub delta_bytes: u64,
    /// Changes applied in the last churn round
    /// (`roads.delta.changes_applied`).
    pub applied: u64,
    /// Changes rejected in the last churn round
    /// (`roads.delta.changes_rejected`).
    pub rejected: u64,
    /// Servers whose local summary the last round dirtied
    /// (`roads.delta.dirty_servers`).
    pub dirty_servers: u64,
    /// Branch summaries the last round recomputed
    /// (`roads.delta.dirty_branches`).
    pub dirty_branches: u64,
    /// Local-summary rebuilds the last round forced, at most one per
    /// dirty server (`roads.delta.shard_rebuilds`; the key predates the
    /// one-summary store).
    pub shard_rebuilds: u64,
}

impl DeltaReport {
    /// Fraction of the record population one churn round touched.
    pub fn churn_fraction(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.churn_changes as f64 / self.records as f64
        }
    }

    /// Propagation-byte reduction vs the full round (0 when the full
    /// round moved nothing).
    pub fn byte_reduction(&self) -> f64 {
        if self.full_bytes == 0 {
            0.0
        } else {
            1.0 - self.delta_bytes as f64 / self.full_bytes as f64
        }
    }

    /// The incremental path's invariants: timings are positive, the
    /// recorded speedup is consistent with them and at least
    /// [`MIN_DELTA_SPEEDUP`], the delta round never moves more bytes than
    /// the full round, the dirty sets fit the network, and the change
    /// accounting adds up.
    fn validate(&self) -> Result<(), String> {
        for (key, ms) in [
            ("full_ms", self.full_ms),
            ("delta_ms", self.delta_ms),
            ("speedup", self.speedup),
        ] {
            if ms <= 0.0 {
                return Err(format!("{key} must be a positive duration, got {ms}"));
            }
        }
        if self.servers == 0 || self.records == 0 {
            return Err("empty churn network".to_string());
        }
        if self.churn_changes == 0 {
            return Err("no churn changes in the delta round".to_string());
        }
        if self.applied + self.rejected != self.churn_changes {
            return Err(format!(
                "change accounting does not add up: {} applied + {} rejected != {} changes",
                self.applied, self.rejected, self.churn_changes
            ));
        }
        if self.dirty_servers > self.servers {
            return Err(format!(
                "more dirty servers than servers ({} > {})",
                self.dirty_servers, self.servers
            ));
        }
        if self.dirty_branches < self.dirty_servers {
            return Err(format!(
                "dirty branch closure smaller than the dirty server set ({} < {})",
                self.dirty_branches, self.dirty_servers
            ));
        }
        if self.delta_bytes > self.full_bytes {
            return Err(format!(
                "delta round moved more bytes than the full round ({} > {})",
                self.delta_bytes, self.full_bytes
            ));
        }
        let expected = self.full_ms / self.delta_ms;
        if (self.speedup - expected).abs() > 1e-6 * expected.max(1.0) {
            return Err(format!(
                "speedup {} inconsistent with timings ({} / {} ms)",
                self.speedup, self.full_ms, self.delta_ms
            ));
        }
        if self.speedup < MIN_DELTA_SPEEDUP {
            return Err(format!(
                "delta round only {:.1}x faster than the full round — \
                 the incremental path must stay >= {MIN_DELTA_SPEEDUP:.0}x",
                self.speedup
            ));
        }
        Ok(())
    }
}

json_fields!(DeltaReport {
    schema_version as "delta_schema_version",
    config,
    servers,
    records,
    churn_changes,
    full_ms,
    delta_ms,
    speedup,
    full_bytes,
    delta_bytes,
    applied,
    rejected,
    dirty_servers,
    dirty_branches,
    shard_rebuilds,
});
artifact!(DeltaReport, "delta_schema_version", DELTA_SCHEMA_VERSION);

/// The incremental-update summary table.
pub fn render_delta_table(r: &DeltaReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "delta: {} records across {} servers, {} changes/round ({:.2}% churn), config {}\n",
        r.records,
        r.servers,
        r.churn_changes,
        100.0 * r.churn_fraction(),
        r.config
    ));
    out.push_str(&format!(
        "{:>24} {:>12.1} ms\n{:>24} {:>12.1} ms ({:.1}x faster)\n{:>24} {:>12} ({:.1}% fewer than full)\n",
        "full round",
        r.full_ms,
        "delta round",
        r.delta_ms,
        r.speedup,
        "delta bytes",
        r.delta_bytes,
        100.0 * r.byte_reduction(),
    ));
    out.push_str(&format!(
        "last round: {} applied / {} rejected, {} dirty servers, {} dirty branches, {} shard rebuilds\n",
        r.applied, r.rejected, r.dirty_servers, r.dirty_branches, r.shard_rebuilds,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_telemetry::Json;

    fn report() -> DeltaReport {
        DeltaReport {
            schema_version: DELTA_SCHEMA_VERSION,
            config: "smoke".to_string(),
            servers: 64,
            records: 250_000,
            churn_changes: 2_500,
            full_ms: 480.0,
            delta_ms: 12.0,
            speedup: 40.0,
            full_bytes: 131_072,
            delta_bytes: 131_072,
            applied: 2_500,
            rejected: 0,
            dirty_servers: 64,
            dirty_branches: 64,
            shard_rebuilds: 3,
        }
    }

    #[test]
    fn artifact_round_trips() {
        let r = report();
        let doc = Json::parse(&r.to_json().to_string_pretty()).unwrap();
        assert!(DeltaReport::has_marker(&doc));
        let parsed = DeltaReport::from_json(&doc).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn table_shows_churn_and_speedup() {
        let text = render_delta_table(&report());
        assert!(text.contains("250000 records across 64 servers"), "{text}");
        assert!(text.contains("(1.00% churn)"), "{text}");
        assert!(text.contains("40.0x faster"), "{text}");
        assert!(text.contains("3 shard rebuilds"), "{text}");
    }

    #[test]
    fn check_rejects_a_slow_delta_path() {
        let mut r = report();
        r.delta_ms = 320.0;
        r.speedup = r.full_ms / r.delta_ms; // 1.5x: below the floor
        let doc = Json::parse(&r.to_json().to_string_pretty()).unwrap();
        let err = DeltaReport::from_json(&doc).unwrap_err();
        assert!(err.contains("must stay >= 2x"), "{err}");
    }

    #[test]
    fn check_rejects_inconsistent_accounting() {
        // A speedup that does not match the timings is a corrupt
        // artifact, not a rounding detail.
        let mut r = report();
        r.speedup = 200.0;
        let doc = Json::parse(&r.to_json().to_string_pretty()).unwrap();
        assert!(DeltaReport::from_json(&doc)
            .unwrap_err()
            .contains("inconsistent"));

        let mut r = report();
        r.applied = 1;
        let doc = Json::parse(&r.to_json().to_string_pretty()).unwrap();
        assert!(DeltaReport::from_json(&doc)
            .unwrap_err()
            .contains("does not add up"));

        let mut r = report();
        r.dirty_servers = r.servers + 1;
        r.dirty_branches = r.dirty_servers;
        let doc = Json::parse(&r.to_json().to_string_pretty()).unwrap();
        assert!(DeltaReport::from_json(&doc)
            .unwrap_err()
            .contains("more dirty servers"));

        let mut r = report();
        r.delta_bytes = r.full_bytes + 1;
        let doc = Json::parse(&r.to_json().to_string_pretty()).unwrap();
        assert!(DeltaReport::from_json(&doc)
            .unwrap_err()
            .contains("more bytes"));
    }

    #[test]
    fn check_rejects_corrupt_documents() {
        let other = Json::obj(vec![("benches", Json::num(1.0))]);
        assert!(!DeltaReport::has_marker(&other));
        assert!(DeltaReport::from_json(&other)
            .unwrap_err()
            .contains("marker"));

        let truncated =
            Json::parse(r#"{"delta_schema_version":1,"config":"smoke","servers":4,"records":100}"#)
                .unwrap();
        assert!(DeltaReport::from_json(&truncated)
            .unwrap_err()
            .contains("churn_changes"));

        let mut zero = report();
        zero.churn_changes = 0;
        zero.applied = 0;
        let doc = Json::parse(&zero.to_json().to_string_pretty()).unwrap();
        assert!(DeltaReport::from_json(&doc)
            .unwrap_err()
            .contains("no churn changes"));
    }
}
