//! Per-server TTL'd query result cache, aged by update-round epochs and
//! invalidated per subtree by record deltas.
//!
//! Summaries change "on the order of several minutes at least" (§IV) while
//! queries arrive continuously, so the window between two update rounds is
//! a natural result-validity horizon: a result computed at epoch `e` is
//! served from cache while `current_epoch − e < ttl_rounds`, and every
//! [`ResultCache::advance_round`] (called when an update round /
//! replication wave lands) *expires* entries that aged out. `ttl_rounds =
//! 1` means "valid until the next round"; `0` disables caching.
//!
//! The incremental update path is finer: a
//! [`RecordDelta`](crate::store::RecordDelta) names exactly which servers
//! changed and summarizes the changed values, so
//! [`ResultCache::invalidate_delta`] purges only entries whose search
//! scope reaches a dirty server **and** whose query may match the delta
//! summary — everything else stays hot across the round. Expiry (TTL
//! aging) and invalidation (delta-driven purges) are counted separately.
//!
//! Keys are structural query fingerprints ([`query_fingerprint`]) combined
//! with the entry server, the requester (policy-filtered result sets differ
//! per requester) and the search scope. Hit/miss/expiry/invalidation counts
//! are kept internally and mirrored into the OpenMetrics surface by the
//! runtime (`roads.cache.*`).

use crate::engine::RoadsNetwork;
use crate::planner::QueryPlan;
use crate::queryexec::{execute_query_with, QueryOptions, QueryOutcome, SearchScope};
use crate::store::DeltaOutcome;
use crate::tree::{HierarchyTree, ServerId};
use roads_netsim::DelaySpace;
use roads_records::{wire::MSG_HEADER_BYTES, Predicate, Query, Record, Value, WireSize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Structural fingerprint of a query's predicates (FNV-1a over attribute
/// ids, variant tags and value bits). Two queries with the same predicates
/// collide regardless of their [`QueryId`](roads_records::QueryId) — the id
/// names the submission, not the question.
pub fn query_fingerprint(q: &Query) -> u64 {
    fn mix(h: u64, bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
    }
    fn mix_value(h: u64, v: &Value) -> u64 {
        match v {
            Value::Float(f) => mix(mix(h, &[10]), &f.to_bits().to_le_bytes()),
            Value::Int(i) => mix(mix(h, &[11]), &i.to_le_bytes()),
            Value::Text(s) => mix(mix(h, &[12]), s.as_bytes()),
            Value::Cat(s) => mix(mix(h, &[13]), s.as_bytes()),
            Value::Timestamp(t) => mix(mix(h, &[14]), &t.to_le_bytes()),
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in q.predicates() {
        match p {
            Predicate::Range { attr, lo, hi } => {
                h = mix(h, &[1]);
                h = mix(h, &attr.0.to_le_bytes());
                h = mix(h, &lo.to_bits().to_le_bytes());
                h = mix(h, &hi.to_bits().to_le_bytes());
            }
            Predicate::Eq { attr, value } => {
                h = mix(h, &[2]);
                h = mix(h, &attr.0.to_le_bytes());
                h = mix_value(h, value);
            }
            Predicate::OneOf { attr, values } => {
                h = mix(h, &[3]);
                h = mix(h, &attr.0.to_le_bytes());
                for v in values {
                    h = mix(h, v.as_bytes());
                    h = mix(h, &[0xff]);
                }
            }
        }
    }
    h
}

/// A cached answer. The simulation plane stores match locations and counts
/// only; the threaded runtime also stores the (policy-filtered) records it
/// returned.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CachedResult {
    /// Servers whose local search produced at least one record.
    pub matching_servers: Vec<ServerId>,
    /// Total matching records.
    pub matching_records: usize,
    /// The records themselves (empty in the simulation plane).
    pub records: Vec<Record>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    at: ServerId,
    requester: u64,
    /// `u64::MAX` encodes an unscoped (full-hierarchy) search.
    levels_up: u64,
    fingerprint: u64,
}

fn cache_key(at: ServerId, requester: u64, scope: SearchScope, q: &Query) -> CacheKey {
    CacheKey {
        at,
        requester,
        levels_up: scope.levels_up.map(|l| l as u64).unwrap_or(u64::MAX),
        fingerprint: query_fingerprint(q),
    }
}

#[derive(Debug, Clone)]
struct Slot {
    stored_epoch: u64,
    /// The question this slot answers, kept so delta invalidation can test
    /// it against the summary of changed record values.
    query: Query,
    result: CachedResult,
}

/// True when a query entered at `at` with `levels_up` scope
/// (`u64::MAX` = unscoped) could have reached records attached at `d`.
///
/// A scoped search from `at` contacts replica targets that are children of
/// ancestors at most `levels_up + 1` levels above the entry, then descends
/// their whole subtrees, plus local-only probes of ancestors at most
/// `levels_up` above. All of that lies inside the subtree rooted at the
/// entry's ancestor `levels_up + 1` levels up — so a dirty server outside
/// that subtree provably cannot change the cached answer.
fn scope_covers(tree: &HierarchyTree, at: ServerId, levels_up: u64, d: ServerId) -> bool {
    if levels_up == u64::MAX {
        return true;
    }
    let mut anc = at;
    for _ in 0..=levels_up.min(tree.capacity() as u64) {
        match tree.parent(anc) {
            Some(p) => anc = p,
            None => break,
        }
    }
    let mut cur = d;
    loop {
        if cur == anc {
            return true;
        }
        match tree.parent(cur) {
            Some(p) => cur = p,
            None => return false,
        }
    }
}

/// TTL'd per-server result cache. Thread-safe: lookups and inserts take an
/// internal lock, counters are atomic, so one cache can serve a whole
/// cluster of server threads.
#[derive(Debug)]
pub struct ResultCache {
    ttl_rounds: u64,
    epoch: AtomicU64,
    map: Mutex<HashMap<CacheKey, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    expired: AtomicU64,
    invalidated: AtomicU64,
}

impl ResultCache {
    /// A cache whose entries survive `ttl_rounds` update rounds
    /// (`0` disables caching: every lookup misses, inserts are dropped).
    pub fn new(ttl_rounds: u64) -> Self {
        ResultCache {
            ttl_rounds,
            epoch: AtomicU64::new(0),
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
        }
    }

    /// The configured TTL in update rounds.
    pub fn ttl_rounds(&self) -> u64 {
        self.ttl_rounds
    }

    /// Update rounds observed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// An update round / replication wave landed: advance the epoch and
    /// purge entries that aged past the TTL. Returns how many entries
    /// *expired* — TTL aging, distinct from delta-driven invalidation
    /// ([`ResultCache::invalidate_delta`]).
    pub fn advance_round(&self) -> u64 {
        let now = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.map.lock().expect("cache lock");
        let before = map.len();
        map.retain(|_, slot| now.saturating_sub(slot.stored_epoch) < self.ttl_rounds);
        let purged = (before - map.len()) as u64;
        self.expired.fetch_add(purged, Ordering::Relaxed);
        purged
    }

    /// A [`RecordDelta`](crate::store::RecordDelta) landed: purge exactly
    /// the entries it can have changed. An entry is invalidated iff some
    /// dirty server lies inside the entry's search-scope subtree **and**
    /// the cached query may match the summary of the changed record values
    /// (summaries never produce false negatives, so retaining on a
    /// non-match is sound). Returns how many entries were invalidated.
    pub fn invalidate_delta(&self, tree: &HierarchyTree, outcome: &DeltaOutcome) -> u64 {
        if outcome.dirty.is_empty() {
            return 0;
        }
        let mut map = self.map.lock().expect("cache lock");
        let before = map.len();
        map.retain(|key, slot| {
            let scope_hit = outcome
                .dirty
                .iter()
                .any(|&d| scope_covers(tree, key.at, key.levels_up, d));
            !(scope_hit && outcome.delta_summary.may_match(&slot.query))
        });
        let purged = (before - map.len()) as u64;
        self.invalidated.fetch_add(purged, Ordering::Relaxed);
        purged
    }

    /// Look up a still-valid cached answer; counts a hit or a miss.
    pub fn lookup(
        &self,
        at: ServerId,
        requester: u64,
        scope: SearchScope,
        q: &Query,
    ) -> Option<CachedResult> {
        let found = if self.ttl_rounds == 0 {
            None
        } else {
            let now = self.epoch();
            let map = self.map.lock().expect("cache lock");
            map.get(&cache_key(at, requester, scope, q))
                .filter(|slot| now.saturating_sub(slot.stored_epoch) < self.ttl_rounds)
                .map(|slot| slot.result.clone())
        };
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store an answer computed at the current epoch. Only complete
    /// answers should be inserted — the cache replays them verbatim.
    pub fn insert(
        &self,
        at: ServerId,
        requester: u64,
        scope: SearchScope,
        q: &Query,
        result: CachedResult,
    ) {
        if self.ttl_rounds == 0 {
            return;
        }
        let stored_epoch = self.epoch();
        let mut map = self.map.lock().expect("cache lock");
        map.insert(
            cache_key(at, requester, scope, q),
            Slot {
                stored_epoch,
                query: q.clone(),
                result,
            },
        );
    }

    /// A simulated query entering at `at` for the anonymous requester,
    /// through this cache: a valid cached answer is served by the entry
    /// alone (one query message, no fan-out, zero added latency — the
    /// client is co-located); a miss takes `run`'s outcome and stores its
    /// match locations and count. Returns the outcome and whether it was
    /// a cache hit.
    pub fn outcome_or_run(
        &self,
        at: ServerId,
        scope: SearchScope,
        q: &Query,
        run: impl FnOnce() -> QueryOutcome,
    ) -> (QueryOutcome, bool) {
        if let Some(r) = self.lookup(at, 0, scope, q) {
            let outcome = QueryOutcome {
                latency_ms: 0.0,
                query_bytes: (q.wire_size() + MSG_HEADER_BYTES) as u64,
                query_messages: 1,
                servers_contacted: 1,
                matching_servers: r.matching_servers,
                matching_records: r.matching_records,
            };
            return (outcome, true);
        }
        let outcome = run();
        let result = CachedResult {
            matching_servers: outcome.matching_servers.clone(),
            matching_records: outcome.matching_records,
            records: Vec::new(),
        };
        self.insert(at, 0, scope, q, result);
        (outcome, false)
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock").len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to execution.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries that aged past the TTL ([`ResultCache::advance_round`]).
    pub fn expired(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Entries purged because a record delta could have changed their
    /// answer ([`ResultCache::invalidate_delta`]).
    pub fn invalidated(&self) -> u64 {
        self.invalidated.load(Ordering::Relaxed)
    }

    /// Fraction of lookups answered from cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

/// [`execute_query_with`] through `cache` ([`ResultCache::outcome_or_run`]).
/// A plan is what the entry dispatches anyway (see [`crate::planner`]), so
/// `_plan` is not read. Kept for `benchmark/`, which pins the name and
/// signature.
pub fn execute_query_cached(
    net: &RoadsNetwork,
    delays: &DelaySpace,
    query: &Query,
    start: ServerId,
    scope: SearchScope,
    cache: &ResultCache,
    _plan: Option<&QueryPlan>,
) -> (QueryOutcome, bool) {
    let opts = QueryOptions::scoped(scope);
    cache.outcome_or_run(start, scope, query, || {
        execute_query_with(net, delays, query, start, &opts, None)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoadsConfig;
    use roads_records::{OwnerId, QueryBuilder, QueryId, RecordId, Schema};
    use roads_summary::SummaryConfig;

    fn network(n: usize) -> (RoadsNetwork, DelaySpace) {
        let schema = Schema::unit_numeric(1);
        let cfg = RoadsConfig {
            max_children: 3,
            summary: SummaryConfig::with_buckets(200),
            ..RoadsConfig::paper_default()
        };
        let records: Vec<Vec<Record>> = (0..n)
            .map(|s| {
                vec![Record::new_unchecked(
                    RecordId(s as u64),
                    OwnerId(s as u32),
                    vec![Value::Float(s as f64 / n as f64)],
                )]
            })
            .collect();
        let net = RoadsNetwork::build(schema, cfg, records);
        let delays = DelaySpace::paper(n, 77);
        (net, delays)
    }

    fn q(net: &RoadsNetwork, id: u64, lo: f64, hi: f64) -> Query {
        QueryBuilder::new(net.schema(), QueryId(id))
            .range("x0", lo, hi)
            .build()
    }

    #[test]
    fn fingerprint_ignores_query_id_but_not_predicates() {
        let (net, _) = network(10);
        let a = q(&net, 1, 0.2, 0.4);
        let b = q(&net, 999, 0.2, 0.4);
        let c = q(&net, 1, 0.2, 0.4001);
        assert_eq!(query_fingerprint(&a), query_fingerprint(&b));
        assert_ne!(query_fingerprint(&a), query_fingerprint(&c));
    }

    #[test]
    fn repeated_query_hits_until_ttl_expires() {
        let (net, delays) = network(20);
        let cache = ResultCache::new(2);
        let query = q(&net, 1, 0.0, 1.0);
        let start = ServerId(5);
        let scope = SearchScope::full();

        let (first, hit) = execute_query_cached(&net, &delays, &query, start, scope, &cache, None);
        assert!(!hit);
        let (second, hit) = execute_query_cached(&net, &delays, &query, start, scope, &cache, None);
        assert!(hit, "identical repeat must hit");
        assert_eq!(second.matching_servers, first.matching_servers);
        assert_eq!(second.matching_records, first.matching_records);
        assert_eq!(second.servers_contacted, 1, "served by the entry alone");
        assert!(second.query_bytes < first.query_bytes);

        // One round later the entry is still valid (ttl 2)…
        cache.advance_round();
        let (_, hit) = execute_query_cached(&net, &delays, &query, start, scope, &cache, None);
        assert!(hit);
        // …but the next round ages it out.
        let purged = cache.advance_round();
        assert_eq!(purged, 1);
        let (_, hit) = execute_query_cached(&net, &delays, &query, start, scope, &cache, None);
        assert!(!hit, "epoch advance expires");
        assert_eq!(cache.expired(), 1);
        assert_eq!(cache.invalidated(), 0, "TTL aging is not invalidation");
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 2);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn delta_invalidates_only_scope_and_summary_matching_entries() {
        let (net, delays) = network(20);
        let cache = ResultCache::new(100);
        let leaf = *net.tree().leaves().iter().max().unwrap();

        // Three cached answers at the same entry: one full-scope query that
        // matches the churned values, one full-scope query that provably
        // cannot, and one zero-levels-up scoped query.
        let wide = q(&net, 1, 0.0, 1.0);
        let narrow = q(&net, 2, 0.90, 0.95); // churn happens at 0.5
        let scoped = q(&net, 3, 0.0, 1.0);
        let _ = execute_query_cached(
            &net,
            &delays,
            &wide,
            leaf,
            SearchScope::full(),
            &cache,
            None,
        );
        let _ = execute_query_cached(
            &net,
            &delays,
            &narrow,
            leaf,
            SearchScope::full(),
            &cache,
            None,
        );
        let _ = execute_query_cached(
            &net,
            &delays,
            &scoped,
            leaf,
            SearchScope::levels(0),
            &cache,
            None,
        );
        assert_eq!(cache.len(), 3);

        // Churn a record valued 0.5 at the root — inside every full scope,
        // but outside the leaf's zero-levels-up subtree.
        let mut net = net;
        let root = net.tree().root();
        assert!(
            !net.tree()
                .subtree(net.tree().parent(leaf).unwrap())
                .contains(&root),
            "test premise: the root is outside the leaf's levels(0) scope"
        );
        let mut delta = crate::store::RecordDelta::new();
        delta.insert(
            root,
            Record::new_unchecked(RecordId(900), OwnerId(0), vec![Value::Float(0.5)]),
        );
        let outcome = net.apply(&delta);
        let purged = cache.invalidate_delta(net.tree(), &outcome);

        assert_eq!(purged, 1, "only the wide full-scope entry is stale");
        assert_eq!(cache.invalidated(), 1);
        assert_eq!(cache.expired(), 0);
        assert!(
            cache
                .lookup(leaf, 0, SearchScope::full(), &narrow)
                .is_some(),
            "summary-mismatched query survives"
        );
        assert!(
            cache
                .lookup(leaf, 0, SearchScope::levels(0), &scoped)
                .is_some(),
            "out-of-scope entry survives"
        );
        assert!(cache.lookup(leaf, 0, SearchScope::full(), &wide).is_none());
    }

    #[test]
    fn delta_invalidation_respects_scope_subtrees() {
        let (net, delays) = network(20);
        let mut net = net;
        let cache = ResultCache::new(100);
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let query = q(&net, 1, 0.0, 1.0);
        let _ = execute_query_cached(
            &net,
            &delays,
            &query,
            leaf,
            SearchScope::levels(0),
            &cache,
            None,
        );

        // A change *at the leaf itself* is inside every scope rooted there.
        let mut delta = crate::store::RecordDelta::new();
        delta.insert(
            leaf,
            Record::new_unchecked(RecordId(901), OwnerId(1), vec![Value::Float(0.25)]),
        );
        let outcome = net.apply(&delta);
        assert_eq!(cache.invalidate_delta(net.tree(), &outcome), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn empty_delta_invalidates_nothing() {
        let (mut net, delays) = network(10);
        let cache = ResultCache::new(10);
        let query = q(&net, 1, 0.0, 1.0);
        let _ = execute_query_cached(
            &net,
            &delays,
            &query,
            ServerId(2),
            SearchScope::full(),
            &cache,
            None,
        );
        let outcome = net.apply(&crate::store::RecordDelta::new());
        assert_eq!(cache.invalidate_delta(net.tree(), &outcome), 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.invalidated(), 0);
    }

    #[test]
    fn cache_is_keyed_by_entry_scope_and_requester() {
        let (net, delays) = network(20);
        let cache = ResultCache::new(10);
        let query = q(&net, 1, 0.0, 1.0);
        let leaf = *net.tree().leaves().iter().max().unwrap();
        let _ = execute_query_cached(
            &net,
            &delays,
            &query,
            leaf,
            SearchScope::full(),
            &cache,
            None,
        );
        // Different entry: miss.
        let (_, hit) = execute_query_cached(
            &net,
            &delays,
            &query,
            ServerId(0),
            SearchScope::full(),
            &cache,
            None,
        );
        assert!(!hit);
        // Different scope at the original entry: miss.
        let (_, hit) = execute_query_cached(
            &net,
            &delays,
            &query,
            leaf,
            SearchScope::levels(0),
            &cache,
            None,
        );
        assert!(!hit);
        // Different requester at the original key: miss.
        assert!(cache.lookup(leaf, 7, SearchScope::full(), &query).is_none());
        // Original key still hits.
        assert!(cache.lookup(leaf, 0, SearchScope::full(), &query).is_some());
    }

    #[test]
    fn ttl_zero_disables_caching() {
        let (net, delays) = network(10);
        let cache = ResultCache::new(0);
        let query = q(&net, 1, 0.0, 1.0);
        for _ in 0..3 {
            let (_, hit) = execute_query_cached(
                &net,
                &delays,
                &query,
                ServerId(2),
                SearchScope::full(),
                &cache,
                None,
            );
            assert!(!hit);
        }
        assert_eq!(cache.hits(), 0);
        assert!(cache.is_empty());
    }
}
