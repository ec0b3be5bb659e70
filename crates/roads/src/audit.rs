//! Ground-truth auditing of the replication overlay.
//!
//! The converged [`RoadsNetwork`] stores exactly one branch summary per
//! server and lets every overlay holder *view* it, so by construction it
//! can never show a stale replica. Real deployments are not so lucky:
//! replica copies are pushed once per update round and then age until the
//! next push, while the underlying branches keep changing (records appear,
//! servers die and restart). This module materializes that gap as an
//! epoch-stamped [`ReplicaLedger`] — a physical copy of every overlay
//! entry, refreshed only on demand — and audits it against ground truth:
//!
//! * **staleness age** — update rounds since an entry was last refreshed;
//! * **divergence** — the fraction of overlay entries whose copy no longer
//!   equals the authoritative branch summary ([`authoritative_branch`]),
//!   with per-attribute drift from [`SummaryFidelity`];
//! * **ground-truth probes** ([`audit_probe`]) — evaluate real queries
//!   against each replica copy and against the live records it vouches
//!   for, tallying false positives (a stale copy still matches records
//!   that died with their server) and false negatives (a copy taken while
//!   a server was down misses its restored records) per tree level.
//!
//! The runtime crate's background `Auditor` drives these functions on a
//! sampling budget and exports the results through its registry and
//! `AUDIT.json`.

use crate::engine::{branch_summary_of, RoadsNetwork};
use crate::overlay::ReplicaRole;
use crate::tree::ServerId;
use roads_records::Query;
use roads_summary::{Summary, SummaryFidelity};
use std::collections::BTreeMap;

/// One replicated branch summary held somewhere in the overlay.
#[derive(Debug, Clone)]
pub struct ReplicaEntry {
    /// The server storing the copy.
    pub holder: ServerId,
    /// The server whose branch the copy summarizes.
    pub target: ServerId,
    /// Why `holder` replicates `target` (overlay role).
    pub role: ReplicaRole,
    /// The copy itself, as pushed at `epoch`.
    pub copy: Summary,
    /// Update-round epoch at which the copy was last refreshed.
    pub epoch: u64,
}

/// Epoch-stamped physical copies of every overlay entry.
///
/// `new` snapshots the converged state at epoch 0; [`refresh`] advances the
/// epoch and re-pushes copies for entries whose holder *and* target are
/// live — exactly what a top-down replication wave does. Everything else
/// keeps its old copy and ages.
///
/// [`refresh`]: ReplicaLedger::refresh
#[derive(Debug, Clone)]
pub struct ReplicaLedger {
    epoch: u64,
    entries: Vec<ReplicaEntry>,
}

/// The authoritative branch summary of `target` under a liveness mask:
/// what a fresh aggregation wave would produce — `target`'s subtree
/// aggregated bottom-up the way the network aggregates it (see
/// [`Summary::branch_of`]), with every dead server's local summary left
/// out. A dead server contributes neither records nor a box; its live
/// descendants still do. With everyone live this equals
/// [`RoadsNetwork::branch_summary`].
pub fn authoritative_branch(net: &RoadsNetwork, target: ServerId, live: &[bool]) -> Summary {
    let children: Vec<(u32, Summary)> = (net.tree().children(target).iter())
        .map(|&c| (c.0, authoritative_branch(net, c, live)))
        .collect();
    let nothing;
    let local = if live.get(target.index()) == Some(&false) {
        nothing = Summary::empty(net.schema(), &net.config().summary);
        &nothing
    } else {
        net.local_summary(target)
    };
    let children = children.iter().map(|(c, summary)| (*c, summary));
    let root = net.tree().parent(target).is_none();
    branch_summary_of(target.0, root, local, children)
}

/// Per-target authoritative summaries, computed once per distinct target.
fn authoritative_map(
    net: &RoadsNetwork,
    targets: impl IntoIterator<Item = ServerId>,
    live: &[bool],
) -> BTreeMap<ServerId, Summary> {
    let mut map = BTreeMap::new();
    for target in targets {
        map.entry(target)
            .or_insert_with(|| authoritative_branch(net, target, live));
    }
    map
}

/// Overlay-wide divergence at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivergenceReport {
    /// Ledger epoch the report was taken at.
    pub epoch: u64,
    /// Overlay entries audited (live holders only).
    pub entries: usize,
    /// Entries whose copy differs from the authoritative branch summary.
    pub diverged: usize,
    /// Worst per-attribute drift across diverged entries (0 when clean).
    pub max_drift: f64,
    /// Worst relative record-count error across diverged entries.
    pub max_record_drift: f64,
}

impl DivergenceReport {
    /// Diverged fraction in `[0, 1]` (0 for an empty overlay).
    pub fn score(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.diverged as f64 / self.entries as f64
        }
    }
}

/// Per-tree-level tally of ground-truth probe outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelAudit {
    /// Tree depth of the replicated branch's root (0 = hierarchy root).
    pub level: usize,
    /// Overlay entries at this level with a live holder.
    pub entries: usize,
    /// Query × entry probes evaluated.
    pub probes: u64,
    /// Copy said "may match" but no live record in the branch matches.
    pub false_positives: u64,
    /// Copy pruned the branch although a live record matches — the
    /// correctness-critical direction (a routed query misses results).
    pub false_negatives: u64,
    /// Entries whose copy differs from the authoritative branch summary.
    pub diverged: usize,
    /// Worst staleness age (epochs) among entries at this level.
    pub staleness_max: u64,
}

impl LevelAudit {
    /// False-positive rate over this level's probes.
    pub fn fp_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.false_positives as f64 / self.probes as f64
        }
    }

    /// False-negative rate over this level's probes.
    pub fn fn_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.false_negatives as f64 / self.probes as f64
        }
    }
}

impl ReplicaLedger {
    /// Snapshot the converged overlay: one entry per (holder, target) pair,
    /// copies taken from the current branch summaries, epoch 0.
    pub fn new(net: &RoadsNetwork) -> Self {
        let mut entries = Vec::new();
        for holder in net.tree().servers() {
            for (target, role) in net.replica_set(holder).entries() {
                entries.push(ReplicaEntry {
                    holder,
                    target,
                    role,
                    copy: net.branch_summary(target).clone(),
                    epoch: 0,
                });
            }
        }
        ReplicaLedger { epoch: 0, entries }
    }

    /// Current epoch (update rounds since the snapshot).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// All entries.
    pub fn entries(&self) -> &[ReplicaEntry] {
        &self.entries
    }

    /// Run one replication wave: advance the epoch, then re-push the copy
    /// of every entry whose holder and target are both live, stamping it
    /// with the new epoch. Entries touching a dead server keep their old
    /// copy and age — exactly the staleness the audit plane measures.
    pub fn refresh(&mut self, net: &RoadsNetwork, live: &[bool]) {
        self.epoch += 1;
        let is_live = |s: ServerId| live.get(s.index()).copied().unwrap_or(true);
        let refreshed = |e: &ReplicaEntry| is_live(e.holder) && is_live(e.target);
        let targets = self
            .entries
            .iter()
            .filter(|e| refreshed(e))
            .map(|e| e.target);
        let fresh = authoritative_map(net, targets, live);
        for e in &mut self.entries {
            if refreshed(e) {
                e.copy = fresh[&e.target].clone();
                e.epoch = self.epoch;
            }
        }
    }

    /// Staleness age (epochs since last refresh) of every entry.
    pub fn staleness_ages(&self) -> Vec<u64> {
        self.entries.iter().map(|e| self.epoch - e.epoch).collect()
    }

    /// The p99 staleness age (0 for an empty overlay).
    pub fn staleness_p99(&self) -> u64 {
        let mut ages = self.staleness_ages();
        if ages.is_empty() {
            return 0;
        }
        ages.sort_unstable();
        let idx = ((ages.len() as f64) * 0.99).ceil() as usize;
        ages[idx.clamp(1, ages.len()) - 1]
    }

    /// Compare every live-holder copy against the authoritative branch
    /// summary under `live` and fold the worst drift into one report.
    pub fn divergence(&self, net: &RoadsNetwork, live: &[bool]) -> DivergenceReport {
        let is_live = |s: ServerId| live.get(s.index()).copied().unwrap_or(true);
        let audited: Vec<&ReplicaEntry> =
            self.entries.iter().filter(|e| is_live(e.holder)).collect();
        let fresh = authoritative_map(net, audited.iter().map(|e| e.target), live);
        let mut out = DivergenceReport {
            epoch: self.epoch,
            entries: audited.len(),
            diverged: 0,
            max_drift: 0.0,
            max_record_drift: 0.0,
        };
        for e in &audited {
            let exact = &fresh[&e.target];
            if e.copy != *exact {
                out.diverged += 1;
                let f = SummaryFidelity::probe(&e.copy, exact);
                out.max_drift = out.max_drift.max(f.max_drift());
                out.max_record_drift = out.max_record_drift.max(f.record_drift);
            }
        }
        out
    }
}

/// Evaluate `queries` against every live-holder overlay entry and against
/// the ground truth its copy vouches for, tallied per tree level of the
/// replicated branch.
///
/// For each (entry, query) pair: the copy *says* match/prune via
/// [`Summary::may_match`]; the *truth* is whether any live server in the
/// branch holds a matching record. Says-without-truth is a false positive
/// (wasted redirect); truth-without-says is a false negative (missed
/// results — the audit plane's alarm condition).
pub fn audit_probe(
    net: &RoadsNetwork,
    ledger: &ReplicaLedger,
    live: &[bool],
    queries: &[Query],
) -> Vec<LevelAudit> {
    let tree = net.tree();
    let is_live = |s: ServerId| live.get(s.index()).copied().unwrap_or(true);
    let mut levels: Vec<LevelAudit> = (0..tree.levels())
        .map(|l| LevelAudit {
            level: l,
            ..LevelAudit::default()
        })
        .collect();
    let audited: Vec<&ReplicaEntry> = (ledger.entries().iter())
        .filter(|e| is_live(e.holder))
        .collect();
    let fresh = authoritative_map(net, audited.iter().map(|e| e.target), live);
    // Ground truth per (target, query), computed once per distinct target.
    let mut truth_cache: BTreeMap<ServerId, Vec<bool>> = BTreeMap::new();
    for e in &audited {
        let lvl = &mut levels[tree.depth(e.target)];
        lvl.entries += 1;
        lvl.staleness_max = lvl.staleness_max.max(ledger.epoch() - e.epoch);
        if e.copy != fresh[&e.target] {
            lvl.diverged += 1;
        }
        let truths = truth_cache.entry(e.target).or_insert_with(|| {
            let members = tree.subtree(e.target);
            queries
                .iter()
                .map(|q| {
                    members
                        .iter()
                        .any(|&s| is_live(s) && net.store(s).table().any_match(q))
                })
                .collect()
        });
        for (q, &truth) in queries.iter().zip(truths.iter()) {
            let says = e.copy.may_match(q);
            lvl.probes += 1;
            if says && !truth {
                lvl.false_positives += 1;
            }
            if !says && truth {
                lvl.false_negatives += 1;
            }
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoadsConfig;
    use roads_records::{QueryBuilder, QueryId, Schema};
    use roads_summary::SummaryConfig;
    use roads_workload::line_records;

    /// 13 servers, one record each at x0 = s/13 — every server's record is
    /// uniquely addressable by a narrow range query.
    fn network() -> RoadsNetwork {
        let schema = Schema::unit_numeric(1);
        let cfg = RoadsConfig {
            max_children: 3,
            summary: SummaryConfig::with_buckets(128),
            ..RoadsConfig::paper_default()
        };
        RoadsNetwork::build(schema, cfg, line_records(13, 1))
    }

    fn probe_for(net: &RoadsNetwork, s: ServerId) -> Query {
        let v = s.index() as f64 / 13.0;
        QueryBuilder::new(net.schema(), QueryId(s.0 as u64))
            .range("x0", v - 0.002, v + 0.002)
            .build()
    }

    fn totals(levels: &[LevelAudit]) -> (u64, u64, usize) {
        levels.iter().fold((0, 0, 0), |(fp, fneg, div), l| {
            (
                fp + l.false_positives,
                fneg + l.false_negatives,
                div + l.diverged,
            )
        })
    }

    #[test]
    fn converged_overlay_is_clean() {
        let net = network();
        let ledger = ReplicaLedger::new(&net);
        let live = vec![true; net.len()];
        assert!(!ledger.entries().is_empty());
        let d = ledger.divergence(&net, &live);
        assert_eq!(d.diverged, 0);
        assert_eq!(d.score(), 0.0);
        assert_eq!(ledger.staleness_p99(), 0);
        let queries: Vec<Query> = net
            .tree()
            .servers()
            .iter()
            .map(|&s| probe_for(&net, s))
            .collect();
        let (fp, fneg, div) = totals(&audit_probe(&net, &ledger, &live, &queries));
        assert_eq!((fp, fneg, div), (0, 0, 0));
    }

    #[test]
    fn authoritative_branch_matches_converged_state_when_all_live() {
        let net = network();
        let live = vec![true; net.len()];
        for s in net.tree().servers() {
            assert_eq!(
                &authoritative_branch(&net, s, &live),
                net.branch_summary(s),
                "server {s}"
            );
        }
    }

    #[test]
    fn kill_diverges_then_refresh_reconverges() {
        let net = network();
        let mut ledger = ReplicaLedger::new(&net);
        let mut live = vec![true; net.len()];
        // Kill a deep leaf so several ancestors' branches change.
        let victim = *net.tree().leaves().iter().max().unwrap();
        live[victim.index()] = false;
        let d = ledger.divergence(&net, &live);
        assert!(d.diverged > 0, "stale copies must be flagged: {d:?}");
        assert!(d.score() > 0.0);
        assert!(d.max_record_drift > 0.0);
        // A query for the dead server's record: stale copies still vouch
        // for it → false positives, zero false negatives.
        let q = vec![probe_for(&net, victim)];
        let (fp, fneg, _) = totals(&audit_probe(&net, &ledger, &live, &q));
        assert!(fp > 0, "stale copy must produce false positives");
        assert_eq!(fneg, 0);
        // A replication wave while the victim is down: live branches
        // (its ancestors') re-push and reconverge, but nobody can re-push
        // the dead branch itself — its copies stay stale at the victim's
        // siblings, so divergence shrinks without clearing.
        ledger.refresh(&net, &live);
        let d2 = ledger.divergence(&net, &live);
        assert!(d2.diverged > 0, "{d2:?}");
        assert!(d2.diverged < d.diverged, "{d2:?} vs {d:?}");
        // Restart + one more wave: everything reconverges.
        live[victim.index()] = true;
        ledger.refresh(&net, &live);
        let d3 = ledger.divergence(&net, &live);
        assert_eq!(d3.diverged, 0, "{d3:?}");
        let (fp3, fneg3, _) = totals(&audit_probe(&net, &ledger, &live, &q));
        assert_eq!((fp3, fneg3), (0, 0));
    }

    #[test]
    fn restart_causes_false_negatives_until_refresh() {
        let net = network();
        let mut ledger = ReplicaLedger::new(&net);
        let mut live = vec![true; net.len()];
        let victim = *net.tree().leaves().iter().max().unwrap();
        // Kill, refresh (copies now exclude the victim), then restart.
        live[victim.index()] = false;
        ledger.refresh(&net, &live);
        live[victim.index()] = true;
        let q = vec![probe_for(&net, victim)];
        let (fp, fneg, div) = totals(&audit_probe(&net, &ledger, &live, &q));
        assert_eq!(fp, 0);
        assert!(
            fneg > 0,
            "copies taken while the server was down must miss its restored records"
        );
        assert!(div > 0);
        // The next wave restores conservatism.
        ledger.refresh(&net, &live);
        let (fp2, fneg2, div2) = totals(&audit_probe(&net, &ledger, &live, &q));
        assert_eq!((fp2, fneg2, div2), (0, 0, 0));
    }

    #[test]
    fn staleness_ages_only_for_dead_endpoints() {
        let net = network();
        let mut ledger = ReplicaLedger::new(&net);
        let mut live = vec![true; net.len()];
        let victim = *net.tree().leaves().iter().max().unwrap();
        live[victim.index()] = false;
        for _ in 0..5 {
            ledger.refresh(&net, &live);
        }
        assert_eq!(ledger.epoch(), 5);
        let ages = ledger.staleness_ages();
        let stale = ages.iter().filter(|&&a| a > 0).count();
        let fresh = ages.iter().filter(|&&a| a == 0).count();
        assert!(stale > 0, "entries touching the dead server must age");
        assert!(fresh > 0, "live-to-live entries must stay fresh");
        // Every stale entry involves the victim.
        for (e, &age) in ledger.entries().iter().zip(&ages) {
            if age > 0 {
                assert!(
                    e.holder == victim || e.target == victim,
                    "{} -> {} aged without touching the victim",
                    e.holder,
                    e.target
                );
            }
        }
        assert_eq!(ledger.staleness_p99(), 5);
    }

    #[test]
    fn level_tallies_index_by_target_depth() {
        let net = network();
        let ledger = ReplicaLedger::new(&net);
        let live = vec![true; net.len()];
        let q = vec![probe_for(&net, net.tree().root())];
        let levels = audit_probe(&net, &ledger, &live, &q);
        assert_eq!(levels.len(), net.tree().levels());
        let by_depth: usize = levels.iter().map(|l| l.entries).sum();
        let total: usize = ledger.entries().len();
        assert_eq!(by_depth, total);
        for l in &levels {
            assert_eq!(l.probes, l.entries as u64 * q.len() as u64);
        }
    }
}
