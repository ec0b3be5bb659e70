//! The record store — every server's one backend — and the record-delta
//! plane.
//!
//! The paper's prototype gives each server "a DB2 database to emulate the
//! attached resource stores", queried "for specific resource records or to
//! generate summaries" (§V), whose content the owners keep changing
//! (§III-B). [`RecordStore`] is that backend for the simulator, for the
//! network the update rounds mutate and for the live servers alike:
//!
//! * **Rows are shared.** A row is a [`Record`], whose values every clone
//!   shares: a search result, a second copy of the table (the update
//!   rounds' twin, a live server's cell) and a delta payload entering the
//!   table are reference-count bumps, never copies of the values.
//! * **Columns, not a map.** Beside the rows the table keeps one `f64`
//!   column per attribute (`NaN` where a value has no numeric view, which
//!   fails every range exactly as [`Predicate::matches`] does) and an
//!   id → row map. An upsert is one map probe, one row swap and one store
//!   per column; a removal swap-removes the row.
//! * **Search is a column pass.** The first range predicate reads its one
//!   column front to back and writes the passing row numbers — a
//!   selection vector — without a branch per row; every further range
//!   filters that vector against its own column; `Eq`/`OneOf` are checked
//!   last, on the surviving records. That is O(rows) per search, and
//!   deliberately so: at the sizes the figures and the benchmark run
//!   (≤ 200 000 rows of ≤ 120 attributes per server) a sequential pass
//!   over 8 bytes per row costs less than a sorted index saves once the
//!   index has to be kept sorted under every change (`DESIGN.md` §6k has
//!   the measurements).
//!
//! [`ShardedStore`] is what a [`RoadsNetwork`](crate::engine::RoadsNetwork)
//! keeps per server: the table plus one *exact* [`Summary`] per id-hash
//! shard of its rows. Inserts fold in, removals decrement counters where
//! that is exact and otherwise trigger a bounded rebuild of that one
//! shard's summary (Bloom filters and value sets cannot unlearn; saturated
//! histograms dropped increments) — so merging a store's shard summaries
//! is always byte-identical to `Summary::from_records` over its rows, and
//! the delta update path provably converges to what a full rebuild
//! produces.
//!
//! [`RecordDelta`] / [`RecordChange`] are a batch of insert / remove /
//! update operations routed to attachment points, the unit one incremental
//! update round applies; [`DeltaOutcome`] is what it touched.

use crate::tree::ServerId;
use roads_records::{Predicate, Query, Record, RecordId, Schema, Value};
use roads_summary::{Summary, SummaryConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Summary shards per server store. Eight keeps the bounded rebuild
/// triggered by a categorical removal down to re-summarizing a sliver of
/// the server's records.
pub const SHARDS_PER_STORE: usize = 8;

/// Deterministic shard routing: a Murmur-style finalizer over the record
/// id, identical on every platform and thread count.
fn shard_of(id: RecordId) -> usize {
    let mut h = id.0 ^ 0x9e37_79b9_7f4a_7c15;
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (h % SHARDS_PER_STORE as u64) as usize
}

/// Hasher for the id → row map. Record ids are plain `u64`s, so one
/// splitmix64 finalizer round replaces SipHash on the delta hot path.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // FNV-style fallback for non-u64 keys (unused by the map).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut h = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = h ^ (h >> 31);
    }
}

/// What a range predicate compares: the value's numeric view, NaN (which
/// fails every comparison) where it has none.
fn numeric(v: &Value) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// Each column paired with `record`'s numeric view for it. The record
/// must fit the schema: callers taking records from outside check first.
fn views<'a>(
    columns: &'a mut [Vec<f64>],
    record: &'a Record,
) -> impl Iterator<Item = (&'a mut Vec<f64>, f64)> {
    assert_eq!(record.arity(), columns.len(), "record vs schema arity");
    columns.iter_mut().zip(record.values().iter().map(numeric))
}

fn row_number(row: usize) -> u32 {
    u32::try_from(row).expect("a store holds fewer than 2^32 rows")
}

/// The record table of one server: shared rows, one `f64` column per
/// attribute, an id → row map. See the module documentation.
#[derive(Debug, Clone)]
pub struct RecordStore {
    schema: Schema,
    rows: Vec<Record>,
    row_of: HashMap<RecordId, u32, BuildHasherDefault<IdHasher>>,
    /// `columns[attr][row]`: the numeric view of that row's value.
    columns: Vec<Vec<f64>>,
}

impl RecordStore {
    /// Build the table in bulk. A later record with an id already seen
    /// replaces the earlier one, as an upsert would.
    pub fn new(schema: Schema, records: Vec<Record>) -> Self {
        let mut rows: Vec<Record> = Vec::with_capacity(records.len());
        let mut row_of = HashMap::with_capacity_and_hasher(records.len(), Default::default());
        for r in records {
            match row_of.entry(r.id) {
                Entry::Occupied(e) => rows[*e.get() as usize] = r,
                Entry::Vacant(e) => {
                    e.insert(row_number(rows.len()));
                    rows.push(r);
                }
            }
        }
        let mut columns: Vec<Vec<f64>> = (0..schema.len())
            .map(|_| Vec::with_capacity(rows.len()))
            .collect();
        for r in &rows {
            for (column, v) in views(&mut columns, r) {
                column.push(v);
            }
        }
        RecordStore {
            schema,
            rows,
            row_of,
            columns,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All stored records, in row order.
    pub fn records(&self) -> &[Record] {
        &self.rows
    }

    /// Store `record`, replacing — in its row — the record with the same
    /// id if there is one, which is returned.
    pub fn upsert(&mut self, record: Record) -> Option<Record> {
        match self.row_of.entry(record.id) {
            Entry::Occupied(e) => {
                let row = *e.get() as usize;
                for (column, v) in views(&mut self.columns, &record) {
                    column[row] = v;
                }
                Some(std::mem::replace(&mut self.rows[row], record))
            }
            Entry::Vacant(e) => {
                for (column, v) in views(&mut self.columns, &record) {
                    column.push(v);
                }
                e.insert(row_number(self.rows.len()));
                self.rows.push(record);
                None
            }
        }
    }

    /// Drop the record with this id, if stored, and return it. The last
    /// row moves into its place.
    pub fn remove(&mut self, id: RecordId) -> Option<Record> {
        let row = self.row_of.remove(&id)? as usize;
        let old = self.rows.swap_remove(row);
        for column in &mut self.columns {
            column.swap_remove(row);
        }
        if let Some(moved) = self.rows.get(row) {
            self.row_of.insert(moved.id, row as u32);
        }
        Some(old)
    }

    /// The one search body: the records matching `query`, in row order.
    /// Ranges cut a selection vector of row numbers column by column; the
    /// other predicates are checked on what is left. A query without
    /// predicates selects everything.
    fn matching<'s, 'q>(
        &'s self,
        query: &'q Query,
    ) -> impl Iterator<Item = &'s Record> + use<'s, 'q> {
        let preds = query.predicates();
        let mut selection: Option<Vec<u32>> = None;
        for p in preds {
            let Predicate::Range { attr, lo, hi } = p else {
                continue;
            };
            let (lo, hi) = (*lo, *hi);
            let column = &self.columns[attr.index()][..];
            let selected = match &mut selection {
                // Every row is a candidate: one sequential pass, each row
                // number written unconditionally and kept by advancing.
                None => {
                    let mut rows = vec![0u32; column.len()];
                    let mut kept = 0;
                    for (row, &v) in column.iter().enumerate() {
                        rows[kept] = row as u32;
                        kept += usize::from(lo <= v && v <= hi);
                    }
                    rows.truncate(kept);
                    selection.insert(rows)
                }
                Some(rows) => {
                    let mut kept = 0;
                    for i in 0..rows.len() {
                        let row = rows[i];
                        rows[kept] = row;
                        let v = column[row as usize];
                        kept += usize::from(lo <= v && v <= hi);
                    }
                    rows.truncate(kept);
                    rows
                }
            };
            if selected.is_empty() {
                break;
            }
        }
        selection
            .unwrap_or_else(|| (0..row_number(self.rows.len())).collect())
            .into_iter()
            .map(|row| &self.rows[row as usize])
            .filter(move |r| {
                preds
                    .iter()
                    .all(|p| matches!(p, Predicate::Range { .. }) || p.matches(r))
            })
    }

    /// Exact search: every stored record matching `query`, in row order.
    pub fn search(&self, query: &Query) -> Vec<&Record> {
        self.matching(query).collect()
    }

    /// Number of matching records; materializes none.
    pub fn count(&self, query: &Query) -> usize {
        self.matching(query).count()
    }

    /// True when any stored record matches `query`. Costs what
    /// [`count`](Self::count) costs for the range predicates (each is a
    /// full pass over its column or the selection); only the record checks
    /// of `Eq`/`OneOf` stop at the first match.
    pub fn any_match(&self, query: &Query) -> bool {
        self.matching(query).next().is_some()
    }
}

/// One mutation routed to a server (the record owner's attachment point).
#[derive(Debug, Clone, PartialEq)]
pub enum RecordChange {
    /// Attach a new record.
    Insert(Record),
    /// Detach the record with this id (no-op if absent).
    Remove(RecordId),
    /// Replace the record with the same id (upsert: plain insert if the id
    /// is not attached).
    Update(Record),
}

impl RecordChange {
    /// The record id this change targets.
    pub fn id(&self) -> RecordId {
        match self {
            RecordChange::Insert(r) | RecordChange::Update(r) => r.id,
            RecordChange::Remove(id) => *id,
        }
    }

    /// The record payload entering the store, if any (insert and update
    /// carry one; removal carries only an id).
    pub fn record(&self) -> Option<&Record> {
        match self {
            RecordChange::Insert(r) | RecordChange::Update(r) => Some(r),
            RecordChange::Remove(_) => None,
        }
    }
}

/// A batch of record mutations, each routed to an attachment point — the
/// unit of work one incremental update round
/// ([`crate::updates::update_round_delta`]) applies and propagates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordDelta {
    changes: Vec<(ServerId, RecordChange)>,
}

impl RecordDelta {
    /// An empty delta (applying it dirties nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an insert at `server`.
    pub fn insert(&mut self, server: ServerId, record: Record) -> &mut Self {
        self.changes.push((server, RecordChange::Insert(record)));
        self
    }

    /// Queue a removal at `server`.
    pub fn remove(&mut self, server: ServerId, id: RecordId) -> &mut Self {
        self.changes.push((server, RecordChange::Remove(id)));
        self
    }

    /// Queue an update (replace-by-id, upsert) at `server`.
    pub fn update(&mut self, server: ServerId, record: Record) -> &mut Self {
        self.changes.push((server, RecordChange::Update(record)));
        self
    }

    /// The queued changes in application order.
    pub fn changes(&self) -> &[(ServerId, RecordChange)] {
        &self.changes
    }

    /// Number of queued changes.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True when no change is queued.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// Effect of applying one batch of changes to a store
/// ([`ShardedStore::apply_batch`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchEffect {
    /// Changes that took effect.
    pub applied: u64,
    /// Changes that matched nothing (removal of an absent id).
    pub rejected: u64,
    /// Shard summaries re-aggregated from raw records: at most once per
    /// shard per batch, however many of its removals were refused.
    pub shard_rebuilds: u64,
}

/// What applying a [`RecordDelta`] to a network touched.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// Servers whose attached records (and local summaries) changed, sorted.
    pub dirty: Vec<ServerId>,
    /// Ancestor closure of `dirty`: every server whose *branch* summary was
    /// recomputed, sorted. This is the set the delta update wave re-sends.
    pub dirty_branches: Vec<ServerId>,
    /// Changes that took effect.
    pub applied: u64,
    /// Changes that matched nothing (removal of an absent id) or were
    /// malformed (unknown server, payload of the wrong arity) and were
    /// dropped without touching anything.
    pub rejected: u64,
    /// Shard summaries re-aggregated from raw records because a removal
    /// could not be unlearned exactly (categorical summaries, saturated
    /// histogram counters): at most once per shard per server batch, not
    /// once per refused removal as older `DELTA.json` artifacts and
    /// telemetry trajectories counted it.
    pub shard_rebuilds: u64,
    /// Summary of every record that entered or left the federation in this
    /// delta. A cached result can only have changed if its query may match
    /// this summary — the key to per-subtree cache invalidation
    /// ([`crate::cache::ResultCache::invalidate_delta`]).
    pub delta_summary: Summary,
}

/// The record store of one server of a
/// [`RoadsNetwork`](crate::engine::RoadsNetwork): its [`RecordStore`] plus
/// one exact [`Summary`] per id-hash shard of the rows — the unit of
/// bounded rebuild when a removal cannot be unlearned.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    table: RecordStore,
    config: SummaryConfig,
    /// `shards[k]` summarizes exactly the rows with `shard_of(id) == k`.
    shards: Vec<Summary>,
}

impl ShardedStore {
    /// Build a store over `records`.
    pub fn new(schema: &Schema, config: &SummaryConfig, records: Vec<Record>) -> Self {
        let mut store = ShardedStore {
            table: RecordStore::new(schema.clone(), records),
            config: *config,
            shards: vec![Summary::empty(schema, config); SHARDS_PER_STORE],
        };
        for r in &store.table.rows {
            store.shards[shard_of(r.id)].add_record(r);
        }
        store
    }

    /// The record table (what a live server clones as its own store).
    pub fn table(&self) -> &RecordStore {
        &self.table
    }

    /// Total attached records.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no record is attached.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Exact search handing the matches out as owned (shared-value)
    /// records.
    pub fn search(&self, query: &Query) -> Vec<Record> {
        self.table.matching(query).cloned().collect()
    }

    /// The server's local summary: merge of the exact shard summaries —
    /// byte-identical to `Summary::from_records` over the full record set,
    /// because shard summaries are kept exact under mutation.
    pub fn local_summary(&self) -> Summary {
        let mut out = Summary::empty(&self.table.schema, &self.config);
        for s in &self.shards {
            out.merge(s).expect("shards share one schema/config");
        }
        out
    }

    /// Apply a batch of changes in slice order. Every payload must have the
    /// schema's arity (the network checks deltas where they enter,
    /// [`RoadsNetwork::apply`](crate::engine::RoadsNetwork::apply)).
    ///
    /// Every record that entered or left the store (payloads, removals,
    /// and the displaced old side of upserts) is learned into `churn` —
    /// the caller's delta summary — right where its values are cache-hot.
    /// A shard whose summary refuses an exact removal is re-aggregated
    /// once, after the batch, over its final rows; its remaining summary
    /// operations are then already reflected and skip.
    pub fn apply_batch(&mut self, changes: &[&RecordChange], churn: &mut Summary) -> BatchEffect {
        // The table first, as one tight loop: a churn round against a cold
        // store is bound by memory latency, and back-to-back independent
        // probe-and-swap operations let many of their misses overlap.
        let displaced: Vec<Option<Record>> = changes
            .iter()
            .map(|change| match change {
                RecordChange::Insert(r) | RecordChange::Update(r) => self.table.upsert(r.clone()),
                RecordChange::Remove(id) => self.table.remove(*id),
            })
            .collect();

        // Then the summaries, which are small and stay cached. They depend
        // only on each change's two sides, not on the table.
        let mut out = BatchEffect::default();
        let mut stale = [false; SHARDS_PER_STORE];
        for (change, old) in changes.iter().zip(&displaced) {
            let new = change.record();
            if old.is_none() && new.is_none() {
                out.rejected += 1;
                continue;
            }
            out.applied += 1;
            for r in new.into_iter().chain(old) {
                churn.add_record(r);
            }
            let shard = shard_of(change.id());
            if stale[shard] {
                continue;
            }
            let summary = &mut self.shards[shard];
            stale[shard] = !match (old, new) {
                (Some(old), Some(new)) => summary.replace_record(old, new),
                (Some(old), None) => summary.remove_record(old),
                (None, Some(new)) => {
                    summary.add_record(new);
                    true
                }
                (None, None) => unreachable!("counted as rejected above"),
            };
        }
        if stale.contains(&true) {
            self.rebuild_shards(&stale);
            out.shard_rebuilds = stale.iter().filter(|&&s| s).count() as u64;
        }
        out
    }

    /// Re-derive the summaries of the marked shards from the rows. Bounded
    /// rebuild: one pass over the ids, summary work only for the rows of
    /// those shards.
    fn rebuild_shards(&mut self, stale: &[bool; SHARDS_PER_STORE]) {
        for (summary, _) in self.shards.iter_mut().zip(stale).filter(|(_, &s)| s) {
            *summary = Summary::empty(&self.table.schema, &self.config);
        }
        for r in &self.table.rows {
            let shard = shard_of(r.id);
            if stale[shard] {
                self.shards[shard].add_record(r);
            }
        }
    }

    /// Re-aggregate every shard summary from raw records (the full,
    /// non-incremental path — what a system without the delta plane must do
    /// every round). Also clears any histogram saturation state.
    pub fn rebuild_summaries(&mut self) {
        self.rebuild_shards(&[true; SHARDS_PER_STORE]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_records::{AttrDef, OwnerId, QueryBuilder, QueryId, RecordBuilder};

    fn schema() -> Schema {
        Schema::unit_numeric(2)
    }

    fn rec(id: u64, a: f64, b: f64) -> Record {
        Record::new_unchecked(
            RecordId(id),
            OwnerId(id as u32),
            vec![Value::Float(a), Value::Float(b)],
        )
    }

    fn store(n: usize) -> ShardedStore {
        let s = schema();
        let cfg = SummaryConfig::with_buckets(64);
        let records = (0..n)
            .map(|i| rec(i as u64, (i % 10) as f64 / 10.0, (i % 7) as f64 / 7.0))
            .collect();
        ShardedStore::new(&s, &cfg, records)
    }

    /// One change through `apply_batch`: its effect and how many records it
    /// taught the churn summary (both sides of an update).
    fn apply(st: &mut ShardedStore, change: RecordChange) -> (BatchEffect, u64) {
        let mut churn = Summary::empty(&st.table.schema, &st.config);
        let effect = st.apply_batch(&[&change], &mut churn);
        (effect, churn.record_count())
    }

    #[test]
    fn partition_covers_everything_once() {
        let st = store(100);
        assert_eq!(st.len(), 100);
        assert_eq!(st.shards.len(), SHARDS_PER_STORE);
        let mut ids: Vec<u64> = st.table().records().iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
        let per_shard: Vec<u64> = st.shards.iter().map(Summary::record_count).collect();
        assert_eq!(per_shard.iter().sum::<u64>(), 100);
        assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");
    }

    #[test]
    fn local_summary_matches_from_records() {
        let st = store(64);
        let direct = Summary::from_records(
            &schema(),
            &SummaryConfig::with_buckets(64),
            st.table().records(),
        );
        assert_eq!(st.local_summary(), direct);
    }

    #[test]
    fn insert_remove_update_round_trip() {
        let mut st = store(20);
        let cfg = SummaryConfig::with_buckets(64);

        let (e, changed) = apply(&mut st, RecordChange::Insert(rec(99, 0.5, 0.5)));
        assert_eq!((e.applied, e.rejected, e.shard_rebuilds), (1, 0, 0));
        assert_eq!(changed, 1);
        assert_eq!(st.len(), 21);

        let (e, changed) = apply(&mut st, RecordChange::Remove(RecordId(99)));
        assert_eq!(
            (e.applied, e.shard_rebuilds),
            (1, 0),
            "numeric removal is exact"
        );
        assert_eq!(changed, 1);
        assert_eq!(st.len(), 20);

        let (e, changed) = apply(&mut st, RecordChange::Remove(RecordId(99)));
        assert_eq!((e.applied, e.rejected, changed), (0, 1, 0), "absent id");

        let (e, changed) = apply(&mut st, RecordChange::Update(rec(3, 0.95, 0.95)));
        assert_eq!(e.applied, 1);
        assert_eq!(changed, 2, "old and new sides of the update");
        assert_eq!(st.len(), 20);

        // After arbitrary churn the summaries still equal a rebuild.
        assert_eq!(
            st.local_summary(),
            Summary::from_records(&schema(), &cfg, st.table().records())
        );
    }

    #[test]
    fn update_of_absent_id_upserts() {
        let mut st = store(4);
        let (e, changed) = apply(&mut st, RecordChange::Update(rec(1000, 0.1, 0.1)));
        assert_eq!(e.applied, 1);
        assert_eq!(changed, 1, "no old side");
        assert_eq!(st.len(), 5);
    }

    fn typed_schema() -> Schema {
        Schema::new(vec![
            AttrDef::categorical("type"),
            AttrDef::numeric("rate", 0.0, 1000.0),
            AttrDef::integer("priority", 0, 10),
        ])
        .unwrap()
    }

    fn typed(s: &Schema, id: u64, ty: &str, rate: f64, priority: i64) -> Record {
        RecordBuilder::new(s, RecordId(id), OwnerId(0))
            .set("type", ty)
            .set("rate", rate)
            .set("priority", priority)
            .build()
            .unwrap()
    }

    #[test]
    fn categorical_removal_triggers_bounded_shard_rebuild() {
        let s = typed_schema();
        let cfg = SummaryConfig::with_buckets(32);
        let mut st = ShardedStore::new(
            &s,
            &cfg,
            vec![
                typed(&s, 1, "camera", 10.0, 0),
                typed(&s, 2, "camera", 20.0, 0),
                typed(&s, 3, "drone", 30.0, 0),
            ],
        );
        let (e, _) = apply(&mut st, RecordChange::Remove(RecordId(3)));
        assert_eq!(e.applied, 1);
        assert_eq!(e.shard_rebuilds, 1, "value sets cannot unlearn");
        // The rebuild really unlearned "drone".
        let q = QueryBuilder::new(&s, QueryId(1))
            .eq("type", "drone")
            .build();
        assert!(!st.local_summary().may_match(&q));
        let q = QueryBuilder::new(&s, QueryId(2))
            .eq("type", "camera")
            .build();
        assert!(st.local_summary().may_match(&q));
    }

    #[test]
    fn a_refused_removal_rebuilds_its_shard_once_over_the_final_rows() {
        let s = typed_schema();
        let cfg = SummaryConfig::with_buckets(32);
        let records: Vec<Record> = (0..40)
            .map(|i| {
                typed(
                    &s,
                    i,
                    if i % 2 == 0 { "camera" } else { "drone" },
                    i as f64,
                    1,
                )
            })
            .collect();
        let mut st = ShardedStore::new(&s, &cfg, records);
        // Every removal is refused (value sets), several land in one shard,
        // and inserts and updates follow them into the stale shards.
        let changes: Vec<RecordChange> = (0..40)
            .map(|i| match i % 4 {
                0 => RecordChange::Remove(RecordId(i)),
                1 => RecordChange::Update(typed(&s, i, "lidar", 500.0, 2)),
                2 => RecordChange::Insert(typed(&s, 100 + i, "sonar", 900.0, 3)),
                _ => RecordChange::Remove(RecordId(1000 + i)),
            })
            .collect();
        let refs: Vec<&RecordChange> = changes.iter().collect();
        let mut churn = Summary::empty(&s, &cfg);
        let e = st.apply_batch(&refs, &mut churn);
        assert_eq!((e.applied, e.rejected), (30, 10));
        assert!((1..=SHARDS_PER_STORE as u64).contains(&e.shard_rebuilds));
        assert_eq!(churn.record_count(), 10 + 20 + 10);
        assert_eq!(st.len(), 40);
        assert_eq!(
            st.local_summary(),
            Summary::from_records(&s, &cfg, st.table().records())
        );
    }

    #[test]
    fn search_sees_writes() {
        let mut st = store(50);
        let q = QueryBuilder::new(&schema(), QueryId(1))
            .range("x0", 0.85, 0.95)
            .build();
        let before = st.search(&q).len();
        apply(&mut st, RecordChange::Insert(rec(500, 0.9, 0.9)));
        assert_eq!(st.search(&q).len(), before + 1);
        assert_eq!(st.table().count(&q), before + 1);
        assert!(st.table().any_match(&q));
        apply(&mut st, RecordChange::Update(rec(500, 0.1, 0.9)));
        assert_eq!(st.table().count(&q), before);
    }

    #[test]
    fn delta_builder_accumulates() {
        let mut d = RecordDelta::new();
        assert!(d.is_empty());
        d.insert(ServerId(1), rec(1, 0.1, 0.1))
            .remove(ServerId(2), RecordId(7))
            .update(ServerId(1), rec(2, 0.2, 0.2));
        assert_eq!(d.len(), 3);
        assert!(matches!(
            d.changes()[1].1,
            RecordChange::Remove(RecordId(7))
        ));
    }

    fn table(n: usize) -> RecordStore {
        let schema = typed_schema();
        let records = (0..n)
            .map(|i| {
                typed(
                    &schema,
                    i as u64,
                    if i % 3 == 0 { "camera" } else { "sensor" },
                    (i as f64 * 10.0) % 1000.0,
                    (i % 10) as i64,
                )
            })
            .collect();
        RecordStore::new(schema, records)
    }

    fn ids(found: Vec<&Record>) -> Vec<u64> {
        found.iter().map(|r| r.id.0).collect()
    }

    #[test]
    fn search_matches_full_scan() {
        let s = table(300);
        let q = QueryBuilder::new(s.schema(), QueryId(1))
            .eq("type", "camera")
            .range("rate", 100.0, 500.0)
            .build();
        let scan: Vec<&Record> = s.records().iter().filter(|r| q.matches(r)).collect();
        assert!(!scan.is_empty());
        assert_eq!(s.count(&q), scan.len());
        assert_eq!(ids(s.search(&q)), ids(scan));
    }

    #[test]
    fn integer_range() {
        let s = table(100);
        let q = QueryBuilder::new(s.schema(), QueryId(2))
            .range("priority", 8.0, 10.0)
            .build();
        let hits = s.search(&q);
        assert_eq!(hits.len(), 20, "priorities 8 and 9 of 0..10 cycling");
    }

    #[test]
    fn eq_on_missing_value_empty() {
        let s = table(50);
        let q = QueryBuilder::new(s.schema(), QueryId(3))
            .eq("type", "drone")
            .build();
        assert!(s.search(&q).is_empty());
        assert!(!s.any_match(&q));
    }

    #[test]
    fn one_of() {
        let s = table(90);
        let q = QueryBuilder::new(s.schema(), QueryId(4))
            .one_of("type", &["camera", "drone"])
            .build();
        assert_eq!(s.search(&q).len(), 30);
        assert_eq!(s.count(&q), 30);
    }

    #[test]
    fn empty_query_returns_everything() {
        let s = table(10);
        let q = Query::new(QueryId(5), vec![]);
        assert_eq!(s.search(&q).len(), 10);
        assert_eq!(s.count(&q), 10);
    }

    #[test]
    fn summary_round_trip() {
        let s = typed_schema();
        let cfg = SummaryConfig::with_buckets(64);
        let st = ShardedStore::new(&s, &cfg, table(60).records().to_vec());
        let sum = st.local_summary();
        assert_eq!(sum.record_count(), 60);
        let q = QueryBuilder::new(&s, QueryId(6))
            .eq("type", "camera")
            .build();
        assert!(sum.may_match(&q));
    }

    #[test]
    fn empty_store() {
        let s = RecordStore::new(typed_schema(), Vec::new());
        assert!(s.is_empty());
        let q = QueryBuilder::new(s.schema(), QueryId(7))
            .eq("type", "x")
            .build();
        assert!(s.search(&q).is_empty());
        let q = QueryBuilder::new(s.schema(), QueryId(7))
            .range("rate", 0.0, 1000.0)
            .build();
        assert_eq!(s.count(&q), 0);
    }

    #[test]
    fn inverted_range_is_empty() {
        let s = table(100);
        let q = QueryBuilder::new(s.schema(), QueryId(8))
            .range("rate", 500.0, 100.0)
            .build();
        assert!(s.search(&q).is_empty());
        // Also behind and ahead of other predicates.
        let q = QueryBuilder::new(s.schema(), QueryId(9))
            .eq("type", "camera")
            .range("priority", 0.0, 10.0)
            .range("rate", 500.0, 100.0)
            .build();
        assert!(s.search(&q).is_empty());
    }

    #[test]
    fn a_later_duplicate_id_replaces_the_earlier_row() {
        let s = RecordStore::new(
            schema(),
            vec![rec(1, 0.1, 0.1), rec(2, 0.2, 0.2), rec(1, 0.9, 0.9)],
        );
        assert_eq!(s.len(), 2);
        let q = QueryBuilder::new(&schema(), QueryId(0))
            .range("x0", 0.85, 0.95)
            .build();
        assert_eq!(ids(s.search(&q)), vec![1]);
        let q = QueryBuilder::new(&schema(), QueryId(0))
            .range("x0", 0.05, 0.15)
            .build();
        assert_eq!(s.count(&q), 0, "the replaced values are gone");
    }

    #[test]
    fn rows_columns_and_map_stay_aligned_under_upsert_and_remove() {
        let mut s = RecordStore::new(
            schema(),
            (0..6).map(|i| rec(i, 0.1 * i as f64, 0.5)).collect(),
        );
        let all = Query::new(QueryId(0), vec![]);
        let low = QueryBuilder::new(&schema(), QueryId(1))
            .range("x0", 0.0, 0.25)
            .build();
        assert_eq!(ids(s.search(&low)), vec![0, 1, 2]);

        // Removing a middle row moves the last row into its place.
        assert_eq!(s.remove(RecordId(1)), Some(rec(1, 0.1, 0.5)));
        assert_eq!(s.remove(RecordId(1)), None);
        assert_eq!(ids(s.search(&all)), vec![0, 5, 2, 3, 4]);
        assert_eq!(ids(s.search(&low)), vec![0, 2]);
        // The moved row is still found by id: updating it changes one row.
        assert_eq!(s.upsert(rec(5, 0.2, 0.5)), Some(rec(5, 0.5, 0.5)));
        assert_eq!(ids(s.search(&low)), vec![0, 5, 2]);
        // Removing the last row moves nothing; re-inserting appends.
        assert!(s.remove(RecordId(4)).is_some());
        assert_eq!(s.upsert(rec(1, 0.05, 0.5)), None);
        assert_eq!(ids(s.search(&all)), vec![0, 5, 2, 3, 1]);
        assert_eq!(ids(s.search(&low)), vec![0, 5, 2, 1]);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn a_copy_shares_rows_and_mutates_alone() {
        let base = table(50);
        let mut copy = base.clone();
        for (a, b) in base.records().iter().zip(copy.records()) {
            assert_eq!(a.values().as_ptr(), b.values().as_ptr(), "rows are shared");
        }
        let q = QueryBuilder::new(base.schema(), QueryId(0))
            .range("rate", 0.0, 95.0)
            .build();
        let before = ids(base.search(&q));
        copy.remove(RecordId(0));
        copy.upsert(typed(base.schema(), 3, "camera", 999.0, 1));
        assert_eq!(ids(base.search(&q)), before, "the source is untouched");
        assert_eq!(copy.count(&q), before.len() - 2);
    }
}
