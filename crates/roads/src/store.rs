//! The record store — every server's one backend — and the record-delta
//! plane.
//!
//! The paper's prototype gives each server "a DB2 database to emulate the
//! attached resource stores", queried "for specific resource records or to
//! generate summaries" (§V), whose content the owners keep changing
//! (§III-B). [`RecordStore`] is that backend for the simulator, for the
//! network the update rounds mutate and for the live servers alike:
//!
//! * **Rows are shared.** A row is a [`Record`]: a handle into its
//!   server's value block, which every clone shares. A search result, a
//!   second copy of the table (the update rounds' twin) and a delta
//!   payload entering the table are reference-count bumps, never copies
//!   of the values, and the rows of one generated server bump the same
//!   count. An upserted record brings its own block, and a removed row
//!   keeps its block alive for as long as another row or a reply holds
//!   it. A live server keeps no copy: it searches the network's table in
//!   place.
//! * **Two bytes per value.** Beside the rows the table keeps an id → row
//!   map and, per attribute, a *code* per row: a value's bucket among
//!   65 536 equal-width buckets of the attribute's schema domain, stored
//!   as two byte columns. The high byte (`codes`) is the value's bucket
//!   among 256 — the bucketing ROADS summaries apply per server (§III-B),
//!   applied per row — and is what a search scans; the low byte (`fine`)
//!   is read only for the rows the high byte cannot decide. A copy of the
//!   table costs the row handles plus two bytes per value; an upsert is
//!   one map probe, one row swap and two bytes per column; a removal
//!   swap-removes the row and both bytes.
//! * **Search is a column pass, exact, that reads no record but on a
//!   bound.** The code is one monotone, saturating function of the
//!   numeric view, applied to stored values and query bounds alike, so
//!   for a range `lo <= v <= hi` with codes `cl = code(lo)`,
//!   `ch = code(hi)`, `c = code(v)`:
//!   - `v` in the range implies `cl <= c <= ch` — so neither the high-byte
//!     compare of the scan nor the full-code compare after it drops a
//!     match;
//!   - `cl < c < ch` implies `lo < v < hi` (were `v <= lo`, monotonicity
//!     would give `c <= cl`) — an *interior* row matches with no further
//!     work, and a row whose high byte lies strictly between the bounds'
//!     high bytes is interior without its low byte being read;
//!   - a row with `c == cl` or `c == ch` sits in a *bound's* bucket, which
//!     the range cuts somewhere: only there is the record itself asked,
//!     with [`Predicate::matches`], the oracle's own function.
//!
//!   A bound's bucket is 1/65 536 of the domain, so a search reads a
//!   record for about two rows in 65 536 per range on spread-out values.
//!   NaN and values without a numeric view code to 0; they match no range,
//!   and can pass the compares only as bound rows, which are verified. The
//!   worst case is a column whose values share a bound's full code — a
//!   domain without width codes everything to 0, and then every row is a
//!   bound row and the search degrades to a verified full scan. The ranges
//!   of a query are ANDed on the high bytes a block of rows at a time; each
//!   block's survivors are then decided in one loop, in row order, and
//!   `Eq`/`OneOf` are checked on their records. That is O(rows) per
//!   search, and deliberately so: at the sizes the figures and the
//!   benchmark run (≤ 200 000 rows of ≤ 120 attributes per server) a
//!   sequential pass over one byte per row costs less than a sorted index
//!   saves once the index has to be kept sorted under every change, and a
//!   pass over both bytes costs more than the rows it settles save
//!   (`DESIGN.md` §6k has the measurements).
//!
//! [`ServerStore`] is what a [`RoadsNetwork`](crate::engine::RoadsNetwork)
//! keeps per server: the table plus the one *exact* [`Summary`] of its rows
//! — the server's local summary, kept in place. Inserts fold in, removals
//! decrement counters where that is exact; where it is not (Bloom filters
//! and value sets cannot unlearn; saturated histograms dropped increments)
//! the summary is re-derived once from the rows the batch leaves behind.
//! Either way it is always byte-identical to `Summary::from_records` over
//! the rows, so the delta update path provably converges to what a full
//! rebuild produces.
//!
//! [`RecordDelta`] / [`RecordChange`] are a batch of insert / remove /
//! update operations routed to attachment points, the unit one incremental
//! update round applies; [`DeltaOutcome`] is what it touched.

use crate::tree::ServerId;
use roads_records::{AttrDef, Predicate, Query, Record, RecordId, Schema, Value};
use roads_summary::{Summary, SummaryConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::ops::ControlFlow;

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

/// Code points per attribute domain: a code is two bytes.
const CODES: f64 = 65_536.0;

/// The code of one attribute: a value's bucket among [`CODES`]
/// equal-width buckets of the schema domain, saturating outside it.
///
/// `code` is monotone — `a <= b` implies `code(a) <= code(b)` for non-NaN
/// `a`, `b` — because subtracting a constant, scaling by a non-negative
/// constant and the saturating, truncating cast each are. Everything the
/// search decides without a record rests on that and on nothing else
/// about the function.
#[derive(Debug, Clone, Copy)]
struct Coder {
    lo: f64,
    /// Buckets per unit of value; 0 for a domain without (finite) width,
    /// which sends every value to code 0.
    scale: f64,
}

impl Coder {
    fn new(def: &AttrDef) -> Self {
        let width = def.hi - def.lo;
        let scale = if width > 0.0 && width.is_finite() {
            CODES / width
        } else {
            0.0
        };
        Coder { lo: def.lo, scale }
    }

    /// NaN codes to 0 (`as` casts NaN to 0 and saturates the rest).
    fn code(self, v: f64) -> u16 {
        ((v - self.lo) * self.scale) as u16
    }

    /// The code of a value's numeric view, 0 where it has none.
    fn code_of(self, v: &Value) -> u16 {
        self.code(v.as_f64().unwrap_or(f64::NAN))
    }
}

/// One attribute's column: row `r`'s code is `codes[r]` (high byte) and
/// `fine[r]` (low byte), kept apart so that the scan reads one byte a row.
#[derive(Debug, Clone)]
struct CodeColumn {
    coder: Coder,
    codes: Vec<u8>,
    fine: Vec<u8>,
}

impl CodeColumn {
    #[cfg(test)]
    fn code(&self, row: usize) -> u16 {
        u16::from_be_bytes([self.codes[row], self.fine[row]])
    }

    fn set(&mut self, row: usize, code: u16) {
        [self.codes[row], self.fine[row]] = code.to_be_bytes();
    }

    fn push(&mut self, code: u16) {
        let [high, low] = code.to_be_bytes();
        self.codes.push(high);
        self.fine.push(low);
    }
}

/// Each column paired with the code of `record`'s value for it. The
/// record must fit the schema: callers taking records from outside check
/// first.
fn coded<'a>(
    columns: &'a mut [CodeColumn],
    record: &'a Record,
) -> impl Iterator<Item = (&'a mut CodeColumn, u16)> {
    assert_eq!(record.arity(), columns.len(), "record vs schema arity");
    columns.iter_mut().zip(record.values()).map(|(column, v)| {
        let code = column.coder.code_of(v);
        (column, code)
    })
}

fn row_number(row: usize) -> u32 {
    u32::try_from(row).expect("a store holds fewer than 2^32 rows")
}

/// The record table of one server: shared rows, two code bytes per value,
/// an id → row map. See the module documentation for why a search over
/// lossy codes is exact.
#[derive(Debug, Clone)]
pub struct RecordStore {
    schema: Schema,
    rows: Vec<Record>,
    row_of: HashMap<RecordId, u32, BuildHasherDefault<IdHasher>>,
    /// One per schema attribute.
    columns: Vec<CodeColumn>,
}

impl RecordStore {
    /// Rows per scan block: the ranges of a query are ANDed into a stack
    /// buffer of this many flags before any survivor is looked at.
    pub const BLOCK: usize = 256;

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
        let mut columns: Vec<CodeColumn> = schema
            .iter()
            .map(|(_, def)| CodeColumn {
                coder: Coder::new(def),
                codes: vec![0; rows.len()],
                fine: vec![0; rows.len()],
            })
            .collect();
        for (row, r) in rows.iter().enumerate() {
            for (column, code) in coded(&mut columns, r) {
                column.set(row, code);
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
                for (column, code) in coded(&mut self.columns, &record) {
                    column.set(row, code);
                }
                Some(std::mem::replace(&mut self.rows[row], record))
            }
            Entry::Vacant(e) => {
                for (column, code) in coded(&mut self.columns, &record) {
                    column.push(code);
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
            column.codes.swap_remove(row);
            column.fine.swap_remove(row);
        }
        if let Some(moved) = self.rows.get(row) {
            self.row_of.insert(moved.id, row as u32);
        }
        Some(old)
    }

    /// The one search body: hand `visit` the records matching `query`, in
    /// row order, until it breaks. A query without predicates selects
    /// everything. Each block of rows is scanned into survivor words, whose
    /// set bits are decided and visited before the next block is scanned.
    fn visit_matches<'s>(
        &'s self,
        query: &Query,
        mut visit: impl FnMut(&'s Record) -> ControlFlow<()>,
    ) {
        let mut ranges = Vec::with_capacity(query.predicates().len());
        let mut others = Vec::new();
        for p in query.predicates() {
            // A query is not built against a schema: an attribute this
            // one does not have matches nothing.
            let Some(column) = self.columns.get(p.attr().index()) else {
                return;
            };
            match p {
                Predicate::Range { lo, hi, .. } if lo <= hi => ranges.push(CodeRange {
                    codes: &column.codes,
                    fine: &column.fine,
                    lo: column.coder.code(*lo),
                    hi: column.coder.code(*hi),
                    predicate: p,
                }),
                // Inverted or NaN bounds describe no interval at all.
                Predicate::Range { .. } => return,
                Predicate::Eq { .. } | Predicate::OneOf { .. } => others.push(p),
            }
        }
        for start in (0..self.rows.len()).step_by(Self::BLOCK) {
            let survivors = scan_block(&ranges, start, self.rows.len());
            for (word, mut bits) in survivors.into_iter().enumerate() {
                while bits != 0 {
                    let row = start + 64 * word + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let record = &self.rows[row];
                    if matches(&ranges, &others, row, record) && visit(record).is_break() {
                        return;
                    }
                }
            }
        }
    }

    /// Exact search: every stored record matching `query`, in row order.
    pub fn search(&self, query: &Query) -> Vec<&Record> {
        let mut found = Vec::new();
        self.visit_matches(query, |record| {
            found.push(record);
            ControlFlow::Continue(())
        });
        found
    }

    /// Number of matching records; materializes none.
    pub fn count(&self, query: &Query) -> usize {
        let mut n = 0;
        self.visit_matches(query, |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    }

    /// True when any stored record matches `query`: stops at the first.
    pub fn any_match(&self, query: &Query) -> bool {
        let mut any = false;
        self.visit_matches(query, |_| {
            any = true;
            ControlFlow::Break(())
        });
        any
    }
}

/// Survivor words per scan block.
const WORDS: usize = RecordStore::BLOCK / 64;
const _: () = assert!(WORDS * 64 == RecordStore::BLOCK, "whole survivor words");

/// One range predicate as the scan sees it.
struct CodeRange<'s, 'q> {
    /// Its attribute's column: the high and the low code bytes.
    codes: &'s [u8],
    fine: &'s [u8],
    /// Codes of its bounds; `lo <= hi` because the bounds are ordered and
    /// the code is monotone.
    lo: u16,
    hi: u16,
    /// Itself, for the rows whose code is a bound's.
    predicate: &'q Predicate,
}

/// Where a row's code puts it relative to one range.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Place {
    /// Outside the bounds' codes: no match.
    Outside,
    /// Strictly between them: a match.
    Inside,
    /// Equal to one of them: the record decides.
    Bound,
}

impl CodeRange<'_, '_> {
    /// The high bytes of the bounds' codes: the span the scan keeps.
    fn high(&self) -> (u8, u8) {
        ((self.lo >> 8) as u8, (self.hi >> 8) as u8)
    }

    /// The place of a row that survived the scan. Its high byte lies in
    /// the bounds' high-byte span; strictly inside it the row is inside,
    /// and only on the span's ends is the low byte read.
    fn place(&self, row: usize) -> Place {
        let high = self.codes[row];
        let (lo, hi) = self.high();
        if high != lo && high != hi {
            return Place::Inside;
        }
        let code = u16::from_be_bytes([high, self.fine[row]]);
        if code == self.lo || code == self.hi {
            Place::Bound
        } else if self.lo < code && code < self.hi {
            Place::Inside
        } else {
            Place::Outside
        }
    }
}

/// AND the high-byte compares of every range over the block of rows from
/// `start` (of `rows`) and gather the flags into survivor bits: bit `i` of
/// word `w` is row `start + 64 * w + i`.
fn scan_block(ranges: &[CodeRange<'_, '_>], start: usize, rows: usize) -> [u64; WORDS] {
    let len = (rows - start).min(RecordStore::BLOCK);
    let mut flags = [0u8; RecordStore::BLOCK];
    flags[..len].fill(1);
    for range in ranges {
        // One unsigned compare for both bounds: a code below `lo` wraps
        // around to above the span.
        let (lo, hi) = range.high();
        let span = hi - lo;
        let codes = &range.codes[start..start + len];
        for (flag, &code) in flags[..len].iter_mut().zip(codes) {
            *flag &= u8::from(code.wrapping_sub(lo) <= span);
        }
    }
    let mut survivors = [0u64; WORDS];
    for (word, flags) in survivors.iter_mut().zip(flags.chunks_exact(64)) {
        for (i, eight) in flags.chunks_exact(8).enumerate() {
            let eight = u64::from_le_bytes(eight.try_into().expect("chunks of eight"));
            // Eight 0/1 bytes to eight bits: the product lands byte k on
            // bit 56 + k, and no two partial products share a bit.
            *word |= (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
        }
    }
    survivors
}

/// Whether a survivor matches. Its codes decide every range but those on
/// whose bound code it sits; only then, and for the `Eq`/`OneOf`
/// predicates in `others`, is the record asked.
fn matches(
    ranges: &[CodeRange<'_, '_>],
    others: &[&Predicate],
    row: usize,
    record: &Record,
) -> bool {
    let mut bound = false;
    for range in ranges {
        match range.place(row) {
            Place::Outside => return false,
            Place::Bound => bound = true,
            Place::Inside => {}
        }
    }
    let verified = !bound
        || ranges
            .iter()
            .all(|range| range.place(row) != Place::Bound || range.predicate.matches(record));
    verified && others.iter().all(|p| p.matches(record))
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
/// ([`ServerStore::apply_batch`]).
#[derive(Debug, Clone, Default)]
pub struct BatchEffect {
    /// Changes that took effect.
    pub applied: u64,
    /// Changes that matched nothing (removal of an absent id).
    pub rejected: u64,
    /// Summary rebuilds from raw records: 1 if the batch held a removal
    /// the summary refused, however many it held, else 0. (The name is
    /// from when a store kept several summaries; artifacts and telemetry
    /// carry it.)
    pub shard_rebuilds: u64,
    /// Every record that entered or left the store: the payloads (shared
    /// handles) and the rows they displaced or removed (moved out).
    pub churned: Vec<Record>,
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
    /// Summary rebuilds: local summaries re-aggregated from raw records
    /// because a removal could not be unlearned exactly (categorical
    /// summaries, saturated histogram counters) — at most one per server
    /// per batch, so never more than `dirty.len()`. The field and the
    /// `roads.delta.shard_rebuilds` counter keep the name they had when a
    /// store kept eight shard summaries; fig18's figure document calls the
    /// series `summary_rebuilds`.
    pub shard_rebuilds: u64,
    /// Every record that entered or left the federation in this delta:
    /// the applied payloads and the rows they displaced or removed.
    pub churned: Vec<Record>,
    /// What [`DeltaOutcome::churn_summary`] condenses `churned` with.
    pub(crate) schema: Schema,
    pub(crate) summary_config: SummaryConfig,
}

impl DeltaOutcome {
    /// Summary of [`DeltaOutcome::churned`]. A cached result can only have
    /// changed if its query may match it — the key to per-subtree cache
    /// invalidation ([`crate::cache::ResultCache::invalidate_delta`]), the
    /// one reader, which builds it only when some entry's scope holds a
    /// dirty server.
    pub fn churn_summary(&self) -> Summary {
        Summary::from_records(&self.schema, &self.summary_config, &self.churned)
    }
}

/// The record store of one server of a
/// [`RoadsNetwork`](crate::engine::RoadsNetwork): its [`RecordStore`] plus
/// the exact [`Summary`] of the rows — the server's local summary, which
/// every batch keeps current in place.
#[derive(Debug, Clone)]
pub struct ServerStore {
    table: RecordStore,
    config: SummaryConfig,
    /// Always equal to `Summary::from_records` over `table`'s rows.
    summary: Summary,
}

impl ServerStore {
    /// Build a store over `records`.
    pub fn new(schema: &Schema, config: &SummaryConfig, records: Vec<Record>) -> Self {
        let table = RecordStore::new(schema.clone(), records);
        let summary = Summary::from_records(schema, config, &table.rows);
        ServerStore {
            table,
            config: *config,
            summary,
        }
    }

    /// The record table (what a live server searches, in place).
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
        let mut found = Vec::new();
        self.table.visit_matches(query, |record| {
            found.push(record.clone());
            ControlFlow::Continue(())
        });
        found
    }

    /// The server's local summary: byte-identical to
    /// `Summary::from_records` over the rows, whatever changes led here.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Apply a batch of changes in slice order. Every payload must have the
    /// schema's arity (the network checks deltas where they enter,
    /// [`RoadsNetwork::apply`](crate::engine::RoadsNetwork::apply)).
    ///
    /// Every record that entered or left the store (payloads, removals,
    /// and the displaced old side of upserts) is handed back in
    /// [`BatchEffect::churned`]. If the summary refuses an exact removal it
    /// is re-aggregated once, after the batch, over the final rows — all of
    /// them, which is what a refusal costs; the batch's remaining summary
    /// operations are then already reflected and skip.
    pub fn apply_batch(&mut self, changes: &[&RecordChange]) -> BatchEffect {
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
        let mut stale = false;
        for (change, old) in changes.iter().zip(displaced) {
            let new = change.record();
            if old.is_none() && new.is_none() {
                out.rejected += 1;
                continue;
            }
            out.applied += 1;
            if !stale {
                stale = !match (&old, new) {
                    (Some(old), Some(new)) => self.summary.replace_record(old, new),
                    (Some(old), None) => self.summary.remove_record(old),
                    (None, Some(new)) => {
                        self.summary.add_record(new);
                        true
                    }
                    (None, None) => unreachable!("counted as rejected above"),
                };
            }
            out.churned.extend(new.cloned().into_iter().chain(old));
        }
        if stale {
            self.rebuild_summary();
            out.shard_rebuilds = 1;
        }
        out
    }

    /// Re-aggregate the summary from raw records (the full, non-incremental
    /// path — what a system without the delta plane must do every round).
    /// Also clears any histogram saturation state.
    pub fn rebuild_summary(&mut self) {
        self.summary = Summary::from_records(&self.table.schema, &self.config, &self.table.rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use roads_records::{AttrId, OwnerId, QueryBuilder, QueryId, RecordBuilder};

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

    fn store(n: usize) -> ServerStore {
        let s = schema();
        let cfg = SummaryConfig::with_buckets(64);
        let records = (0..n)
            .map(|i| rec(i as u64, (i % 10) as f64 / 10.0, (i % 7) as f64 / 7.0))
            .collect();
        ServerStore::new(&s, &cfg, records)
    }

    /// One change through `apply_batch`: its effect and how many records it
    /// handed back as churn (both sides of an update).
    fn apply(st: &mut ServerStore, change: RecordChange) -> (BatchEffect, u64) {
        let effect = st.apply_batch(&[&change]);
        let churned = effect.churned.len() as u64;
        (effect, churned)
    }

    #[test]
    fn every_record_is_stored_and_summarized_once() {
        let st = store(100);
        assert_eq!(st.len(), 100);
        let mut ids: Vec<u64> = st.table().records().iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
        assert_eq!(st.summary().record_count(), 100);
    }

    #[test]
    fn summary_matches_from_records() {
        let st = store(64);
        let direct = Summary::from_records(
            &schema(),
            &SummaryConfig::with_buckets(64),
            st.table().records(),
        );
        assert_eq!(*st.summary(), direct);
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
            *st.summary(),
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
    fn categorical_removal_triggers_one_summary_rebuild() {
        let s = typed_schema();
        let cfg = SummaryConfig::with_buckets(32);
        let mut st = ServerStore::new(
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
        assert!(!st.summary().may_match(&q));
        let q = QueryBuilder::new(&s, QueryId(2))
            .eq("type", "camera")
            .build();
        assert!(st.summary().may_match(&q));
        // A batch the summary never refuses rebuilds nothing.
        let (e, _) = apply(
            &mut st,
            RecordChange::Insert(typed(&s, 4, "lidar", 40.0, 1)),
        );
        assert_eq!((e.applied, e.shard_rebuilds), (1, 0));
    }

    #[test]
    fn a_refused_removal_rebuilds_the_summary_once_over_the_final_rows() {
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
        let mut st = ServerStore::new(&s, &cfg, records);
        // The first change is a refused removal (value sets): every later
        // insert, update and removal of the batch skips the summary and
        // must still be in it afterwards.
        let changes: Vec<RecordChange> = (0..40)
            .map(|i| match i % 4 {
                0 => RecordChange::Remove(RecordId(i)),
                1 => RecordChange::Update(typed(&s, i, "lidar", 500.0, 2)),
                2 => RecordChange::Insert(typed(&s, 100 + i, "sonar", 900.0, 3)),
                _ => RecordChange::Remove(RecordId(1000 + i)),
            })
            .collect();
        let refs: Vec<&RecordChange> = changes.iter().collect();
        let e = st.apply_batch(&refs);
        assert_eq!((e.applied, e.rejected), (30, 10));
        assert_eq!(e.shard_rebuilds, 1, "ten refusals, one rebuild");
        assert_eq!(e.churned.len(), 10 + 20 + 10);
        assert_eq!(st.len(), 40);
        assert_eq!(
            *st.summary(),
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
        let st = ServerStore::new(&s, &cfg, table(60).records().to_vec());
        let sum = st.summary();
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
    fn codes_bucket_the_domain_and_saturate_outside_it() {
        // The high byte, which the scan reads: a value's bucket among 256.
        let coder = Coder::new(&AttrDef::numeric("rate", -50.0, 30.0));
        let high = |v: f64| coder.code(v) >> 8;
        assert_eq!(high(-50.0), 0);
        assert_eq!(high(-10.0), 128);
        // Rounding may move a bucket's edge by an ulp or so — one below
        // -10 still codes to 128 — which monotonicity does not mind.
        assert_eq!(high((-10.0_f64).next_down()), 128);
        assert_eq!(high(-10.1), 127);
        assert_eq!(high(30.0), 255, "the domain's end saturates");
        assert_eq!(high(f64::INFINITY), 255);
        assert_eq!(high(-51.0), 0);
        assert_eq!(high(f64::NEG_INFINITY), 0);
        assert_eq!(high(f64::NAN), 0);
        assert_eq!(coder.code_of(&Value::Int(-10)) >> 8, 128);
        assert_eq!(coder.code_of(&Value::Cat("x".into())), 0);
        // The full code: a bucket among 65 536, saturating the same way.
        assert_eq!(coder.code(-10.0), 32_768);
        assert_eq!(coder.code(-10.0 + 80.0 / 65_536.0), 32_769);
        assert_eq!(coder.code(-10.1), 32_686);
        assert_eq!(coder.code(30.0), u16::MAX);
        assert_eq!(coder.code(f64::NAN), 0);
        // No width, no code: the search verifies every row instead.
        for def in [
            AttrDef::categorical("type"),
            AttrDef::numeric("inverted", 1.0, 0.0),
            AttrDef::numeric("unbounded", 0.0, f64::INFINITY),
        ] {
            let coder = Coder::new(&def);
            for v in [-1.0, 0.0, 0.5, 1.0, f64::INFINITY, f64::NAN] {
                assert_eq!(coder.code(v), 0, "{def:?} {v}");
            }
        }
    }

    /// Rows `(id, value)` of a one-attribute table on `[0, 1]`.
    fn line(values: &[f64]) -> RecordStore {
        let records = (values.iter().enumerate())
            .map(|(i, &v)| {
                Record::new_unchecked(RecordId(i as u64), OwnerId(0), vec![Value::Float(v)])
            })
            .collect();
        RecordStore::new(Schema::unit_numeric(1), records)
    }

    /// Search `[lo, hi]` on attribute 0: the ids found, checked against
    /// every record, and the survivors the range places on a bound's code —
    /// the only rows whose record `matches` asks about.
    fn verified_search(s: &RecordStore, lo: f64, hi: f64) -> (Vec<u64>, Vec<usize>) {
        let attr = AttrId(0);
        let predicate = Predicate::Range { attr, lo, hi };
        let q = Query::new(QueryId(0), vec![predicate.clone()]);
        let found = ids(s.search(&q));
        let expected: Vec<u64> = (s.records().iter())
            .filter(|r| q.matches(r))
            .map(|r| r.id.0)
            .collect();
        assert_eq!(found, expected, "[{lo}, {hi}]");
        let column = &s.columns[0];
        let range = CodeRange {
            codes: &column.codes,
            fine: &column.fine,
            lo: column.coder.code(lo),
            hi: column.coder.code(hi),
            predicate: &predicate,
        };
        let (high_lo, high_hi) = range.high();
        let verified = (0..s.len())
            .filter(|&r| (high_lo..=high_hi).contains(&column.codes[r]))
            .filter(|&r| range.place(r) == Place::Bound)
            .collect();
        (found, verified)
    }

    /// Every value in one coarse bucket, so every row survives the scan on
    /// a bound's high byte: the fine byte settles all but the rows whose
    /// full code is a bound's, and only those are placed on a bound, where
    /// the record decides — also after a removal moved the last row, with
    /// both its bytes, into a hole.
    #[test]
    fn the_fine_byte_settles_a_coarse_bucket() {
        let step = 1.0 / 65_536.0;
        // Fine codes 0..=7 of coarse bucket 64, each the lower edge of
        // its fine bucket and a third of the way in.
        let base = 0.25;
        let values: Vec<f64> = (0..16)
            .map(|i| base + (i / 2) as f64 * step + (i % 2) as f64 * step / 3.0)
            .collect();
        let mut s = line(&values);
        let coder = s.columns[0].coder;
        assert!(values.iter().all(|&v| coder.code(v) >> 8 == 64));
        let code = |row: usize| s.columns[0].code(row);
        let on_bound = |s: &RecordStore, lo: f64, hi: f64| -> Vec<usize> {
            let (lo, hi) = (coder.code(lo), coder.code(hi));
            (0..s.len())
                .filter(|&r| [lo, hi].contains(&s.columns[0].code(r)))
                .collect()
        };
        for (lo, hi) in [
            (base + 2.0 * step, base + 5.0 * step),
            (base + 2.5 * step, base + 5.5 * step),
            (base + 3.0 * step, base + 3.0 * step),
            (base + 3.3 * step, base + 3.6 * step),
            (0.0, base + 1.1 * step),
            (base + 6.9 * step, 1.0),
        ] {
            let (found, verified) = verified_search(&s, lo, hi);
            assert!(!found.is_empty(), "[{lo}, {hi}]");
            assert_eq!(verified, on_bound(&s, lo, hi), "[{lo}, {hi}]");
        }
        // Interior fine buckets are read from the codes alone.
        let (found, verified) = verified_search(&s, base + 1.5 * step, base + 6.5 * step);
        assert_eq!(found.len(), 8 + 2);
        assert_eq!(verified, vec![2, 3, 12, 13]);
        assert_eq!(code(2), code(3));

        s.remove(RecordId(2));
        assert_eq!(
            s.columns[0].code(2),
            coder.code(values[15]),
            "both bytes moved"
        );
        for (lo, hi) in [
            (base + 7.0 * step, 1.0),
            (base + 1.0 * step, base + 1.5 * step),
        ] {
            let (_, verified) = verified_search(&s, lo, hi);
            assert_eq!(verified, on_bound(&s, lo, hi), "[{lo}, {hi}]");
        }
    }

    proptest! {
        /// What the interior shortcut rests on, for any domain at all —
        /// sane, inverted, NaN, infinite, of subnormal width.
        #[test]
        fn code_is_monotone(
            (lo, hi) in prop_oneof![
                (any::<f64>(), any::<f64>()),
                (-1e9f64..1e9, 0.0f64..1e13).prop_map(|(lo, width)| (lo, lo + width)),
            ],
            // Raw bit patterns, and places relative to the domain: where
            // the codes step.
            raw in (any::<f64>(), any::<f64>()),
            near in (-0.5f64..1.5, -0.5f64..1.5),
            relative in any::<bool>(),
        ) {
            let coder = Coder::new(&AttrDef::numeric("a", lo, hi));
            let (a, b) = if relative {
                (lo + near.0 * (hi - lo), lo + near.1 * (hi - lo))
            } else {
                raw
            };
            if a <= b {
                prop_assert!(coder.code(a) <= coder.code(b), "{:?}: {} {}", coder, a, b);
            }
            if b <= a {
                prop_assert!(coder.code(b) <= coder.code(a), "{:?}: {} {}", coder, a, b);
            }
        }
    }

    #[test]
    fn attribute_outside_the_schema_matches_nothing() {
        // `Query::new` takes no schema: nothing keeps the id in range.
        let s = table(100);
        let stray = AttrId(7);
        let predicates = [
            Predicate::Range {
                attr: stray,
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
            },
            Predicate::Eq {
                attr: stray,
                value: Value::Cat("camera".into()),
            },
            Predicate::OneOf {
                attr: stray,
                values: vec!["camera".to_owned()],
            },
        ];
        for p in predicates {
            // Alone, and behind a predicate that does match.
            let everything = Predicate::Range {
                attr: s.schema().id("rate").expect("in the schema"),
                lo: 0.0,
                hi: 1000.0,
            };
            for preds in [vec![p.clone()], vec![everything, p]] {
                let q = Query::new(QueryId(10), preds);
                assert!(s.search(&q).is_empty(), "{q:?}");
                assert_eq!(s.count(&q), 0);
                assert!(!s.any_match(&q));
            }
        }
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
