//! Offline views of the query-planner plane: the `PLAN.json` artifact
//! written by `bench_suite`.
//!
//! The artifact captures what the replica-aware planner and the TTL'd
//! result cache did over the artifact run's live-cluster workload: how
//! many queries were planned, how many ancestor probes the replicated
//! local summaries pruned, total servers contacted under greedy vs
//! planned dispatch (same workload, same data — recall is asserted
//! identical by `bench_suite` before the artifact is written), and the cache
//! hit/miss/invalidation counts mirrored from the `roads.cache.*`
//! OpenMetrics families.
//!
//! Two consumers share this module:
//!
//! * `roads-inspect plan <artifact>` — the summary table
//!   ([`render_plan_table`]).
//! * `roads-inspect check` — strict schema validation via
//!   `PlanReport::from_json` (derived by the artifact layer), including
//!   the planner's core invariant (planned contacts never exceed greedy
//!   contacts) so a regression fails the artifact check, not just the
//!   run that wrote it.

use roads_telemetry::{artifact, json_fields};

/// Current `PLAN.json` schema version.
pub const PLAN_SCHEMA_VERSION: u64 = 1;

/// The planner/cache summary of one `bench_suite` run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// Document schema version ([`PLAN_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// The run that wrote the document (`"bench_suite"`).
    pub config: String,
    /// Distinct workload queries in the comparison pass.
    pub queries: u64,
    /// Queries dispatched through the set-cover planner
    /// (`roads.planner.planned_queries`).
    pub planned_queries: u64,
    /// Ancestor probes pruned by replicated local summaries
    /// (`roads.planner.pruned_probes`).
    pub pruned_probes: u64,
    /// Total servers contacted by greedy expansion over the workload.
    pub greedy_contacts: u64,
    /// Total servers contacted under planned dispatch (cold cache).
    pub planned_contacts: u64,
    /// `roads.cache.hits` at the end of the run.
    pub cache_hits: u64,
    /// `roads.cache.misses` at the end of the run.
    pub cache_misses: u64,
    /// `roads.cache.invalidations` at the end of the run.
    pub cache_invalidations: u64,
}

impl PlanReport {
    /// Fraction of cache lookups answered from cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = (self.cache_hits + self.cache_misses) as f64;
        if total == 0.0 {
            0.0
        } else {
            self.cache_hits as f64 / total
        }
    }

    /// Servers-contacted reduction vs greedy (0 when greedy contacted
    /// nothing).
    pub fn contact_reduction(&self) -> f64 {
        if self.greedy_contacts == 0 {
            0.0
        } else {
            1.0 - self.planned_contacts as f64 / self.greedy_contacts as f64
        }
    }

    /// The planner's invariants: the comparison pass ran, and planned
    /// contacts never exceed greedy contacts. (That the recorded hit rate
    /// agrees with the counts is checked by the layer: `cache_hit_rate`
    /// is a computed member.)
    fn validate(&self) -> Result<(), String> {
        if self.queries == 0 {
            return Err("no queries in the comparison pass".to_string());
        }
        if self.planned_contacts > self.greedy_contacts {
            return Err(format!(
                "planned dispatch contacted more servers than greedy ({} > {}) — \
                 the planner must never widen a query",
                self.planned_contacts, self.greedy_contacts
            ));
        }
        Ok(())
    }
}

json_fields!(PlanReport as r {
    schema_version as "plan_schema_version",
    config,
    queries,
    planned_queries,
    pruned_probes,
    greedy_contacts,
    planned_contacts,
    cache_hits,
    cache_misses,
    cache_invalidations,
    "cache_hit_rate" = r.cache_hit_rate(),
});
artifact!(PlanReport, "plan_schema_version", PLAN_SCHEMA_VERSION);

/// The planner/cache summary table.
pub fn render_plan_table(r: &PlanReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "plan: {} queries ({} planned), config {}\n",
        r.queries, r.planned_queries, r.config
    ));
    out.push_str(&format!(
        "{:>24} {:>10}\n{:>24} {:>10}\n{:>24} {:>10} ({:.1}% fewer than greedy)\n{:>24} {:>10}\n",
        "greedy contacts",
        r.greedy_contacts,
        "pruned ancestor probes",
        r.pruned_probes,
        "planned contacts",
        r.planned_contacts,
        100.0 * r.contact_reduction(),
        "cache invalidations",
        r.cache_invalidations,
    ));
    out.push_str(&format!(
        "cache: {} hits / {} misses (hit rate {:.1}%)\n",
        r.cache_hits,
        r.cache_misses,
        100.0 * r.cache_hit_rate(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_telemetry::Json;

    fn report() -> PlanReport {
        PlanReport {
            schema_version: PLAN_SCHEMA_VERSION,
            config: "smoke".to_string(),
            queries: 32,
            planned_queries: 96,
            pruned_probes: 40,
            greedy_contacts: 480,
            planned_contacts: 300,
            cache_hits: 64,
            cache_misses: 32,
            cache_invalidations: 12,
        }
    }

    #[test]
    fn artifact_round_trips() {
        let r = report();
        let doc = Json::parse(&r.to_json().to_string_pretty()).unwrap();
        assert!(PlanReport::has_marker(&doc));
        let parsed = PlanReport::from_json(&doc).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn table_shows_reduction_and_hit_rate() {
        let text = render_plan_table(&report());
        assert!(text.contains("32 queries (96 planned)"), "{text}");
        assert!(text.contains("37.5% fewer than greedy"), "{text}");
        assert!(text.contains("hit rate 66.7%"), "{text}");
        assert!(text.contains("pruned ancestor probes"), "{text}");
    }

    #[test]
    fn check_rejects_widened_plans() {
        let mut r = report();
        r.planned_contacts = r.greedy_contacts + 1;
        let doc = Json::parse(&r.to_json().to_string_pretty()).unwrap();
        let err = PlanReport::from_json(&doc).unwrap_err();
        assert!(err.contains("never widen"), "{err}");
    }

    #[test]
    fn check_rejects_corrupt_documents() {
        let other = Json::obj(vec![("benches", Json::num(1.0))]);
        assert!(!PlanReport::has_marker(&other));
        assert!(PlanReport::from_json(&other)
            .unwrap_err()
            .contains("marker"));

        let truncated =
            Json::parse(r#"{"plan_schema_version":1,"config":"smoke","queries":4}"#).unwrap();
        assert!(PlanReport::from_json(&truncated)
            .unwrap_err()
            .contains("planned_queries"));

        // An inconsistent hit rate is a corrupt artifact, not a rounding
        // detail: the renderer would otherwise show numbers that do not
        // add up.
        let mut doc = report().to_json();
        if let Json::Obj(pairs) = &mut doc {
            for (k, v) in pairs.iter_mut() {
                if k == "cache_hit_rate" {
                    *v = Json::num(0.01);
                }
            }
        }
        assert!(PlanReport::from_json(&doc)
            .unwrap_err()
            .contains("inconsistent"));

        let mut neg = report();
        neg.queries = 0;
        let doc = Json::parse(&neg.to_json().to_string_pretty()).unwrap();
        assert!(PlanReport::from_json(&doc).unwrap_err().contains("queries"));
    }
}
