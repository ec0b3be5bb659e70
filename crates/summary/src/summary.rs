//! Whole-record summaries: one [`AttributeSummary`] per searchable attribute.
//!
//! "Given a set of resource records, the values of each searchable attribute
//! are aggregated, and the collection of such aggregated values becomes the
//! summary of resource records." (§III-B)
//!
//! Attribute by attribute is all the paper's summary knows, so a query
//! over several attributes "may match" a branch as soon as *some* record
//! of *some* server in it falls in each range. A branch summary built by
//! [`Summary::branch_of`] therefore also remembers its **parts**: one
//! coarse box per server below it, tagged with the summand it is reached
//! through (the branch's own server, or the child whose branch holds it),
//! and a query must fit one of them as a whole. The parts are sized in
//! bytes: boxes of one summand are merged greedily, the pair whose hull
//! adds the least volume first, until they fit a fixed share of the
//! summary's attribute bytes ([`Summary::parts_budget`]), never below one
//! box per summand. The tags of the parts that hold a query
//! ([`Summary::parts_holding`]) name the servers below a replicated branch
//! worth contacting directly. Only the readers that test a branch's parts
//! are shipped them — its parent and the overlay's sibling and
//! ancestor-sibling copies; an ancestor copy travels
//! [`Summary::without_parts`].

use crate::attr_summary::{AttrMergeError, AttributeSummary};
use crate::bloom::BloomFilter;
use crate::histogram::{Histogram, Span};
use crate::value_set::ValueSet;
use roads_records::{AttrType, Query, Record, Schema, WireSize};
use serde::{Deserialize, Serialize};
use std::ops::Range;

mod probe;

use probe::Occupancy;
pub use probe::Probe;

/// Outcome of [`Summary::decide`]: the may-match answer plus which
/// per-attribute representation it hinged on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryVerdict {
    /// Some record may match. `fuzziest` names the loosest participating
    /// summary kind (the likeliest false-positive source).
    Match {
        /// [`AttributeSummary::kind_name`] label, `None` for predicate-free
        /// queries.
        fuzziest: Option<&'static str>,
    },
    /// Provably no record matches. `decided_by` names the kind that
    /// proved absence (`None` when the summary itself is empty or the
    /// predicate fell outside the schema; `"parts"` when every attribute
    /// admitted the query but no summand's box holds it whole).
    Prune {
        /// [`AttributeSummary::kind_name`] label of the pruning attribute.
        decided_by: Option<&'static str>,
    },
}

/// How categorical attributes are summarized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CategoricalMode {
    /// Exact enumerated [`ValueSet`].
    Enumerate,
    /// Fixed-size [`BloomFilter`] with the given bit count and probe count.
    Bloom {
        /// Bits in the filter.
        bits: usize,
        /// Hash probes per element.
        hashes: u32,
    },
}

/// Configuration shared by all summaries in one federation.
///
/// Every participant must summarize with identical parameters, otherwise
/// bottom-up aggregation could not merge child summaries; the config is
/// distributed with the schema.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryConfig {
    /// Histogram buckets per ordered attribute (the paper's `m`; the
    /// simulation default is 1000).
    pub buckets: usize,
    /// Categorical summarization strategy.
    pub categorical: CategoricalMode,
}

impl SummaryConfig {
    /// The paper's simulation default: 1000-bucket flat histograms,
    /// enumerated categorical sets.
    pub fn paper_default() -> Self {
        SummaryConfig {
            buckets: 1000,
            categorical: CategoricalMode::Enumerate,
        }
    }

    /// Flat histograms with `m` buckets.
    pub fn with_buckets(m: usize) -> Self {
        SummaryConfig {
            buckets: m,
            ..Self::paper_default()
        }
    }
}

impl Default for SummaryConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Summary of a record set: per-attribute condensed representations aligned
/// to the schema's attribute order.
///
/// This is the unit of data that flows in ROADS — owners export it, servers
/// aggregate it bottom-up, and the replication overlay copies it sideways.
/// Its wire size is independent of how many records it condenses, which is
/// the root of the paper's 1–2 orders of magnitude update-overhead win.
///
/// ```
/// use roads_records::{Query, QueryId, Predicate, AttrId, OwnerId, Record, RecordId, Schema, Value};
/// use roads_summary::{Summary, SummaryConfig};
///
/// let schema = Schema::unit_numeric(2);
/// let records = vec![
///     Record::new_unchecked(RecordId(0), OwnerId(0), vec![Value::Float(0.2), Value::Float(0.9)]),
///     Record::new_unchecked(RecordId(1), OwnerId(0), vec![Value::Float(0.7), Value::Float(0.1)]),
/// ];
/// let summary = Summary::from_records(&schema, &SummaryConfig::with_buckets(100), &records);
///
/// // Conservative evaluation: never a false negative.
/// let hit = Query::new(QueryId(1), vec![Predicate::Range { attr: AttrId(0), lo: 0.15, hi: 0.25 }]);
/// let miss = Query::new(QueryId(2), vec![Predicate::Range { attr: AttrId(0), lo: 0.4, hi: 0.6 }]);
/// assert!(summary.may_match(&hit));
/// assert!(!summary.may_match(&miss));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    per_attr: Vec<AttributeSummary>,
    records: u64,
    /// Which histogram buckets hold a value, one bit each: derived local
    /// state beside the counters, exact under every mutation and never on
    /// the wire, which a [`Probe`] tests instead of the counters.
    occupancy: Occupancy,
    /// The boxes of a [`Summary::branch_of`] aggregate, `arity` spans
    /// each: per ordered attribute the occupied range of one server below,
    /// or the hull of several of one summand's once merged to the budget,
    /// rounded outward to cells (see [`Histogram::occupied_cells`]);
    /// [`Span::FULL`] for the others. Every record of the aggregate lies in
    /// some box of its summand. A summand's boxes are adjacent, in summand
    /// order. Empty on any summary built or changed any other way: a box
    /// list vouches only for the summands it was taken from.
    parts: Vec<Span>,
    /// The tag of each box in `parts`, in box order: the id its summand
    /// was handed to [`Summary::branch_of`] with.
    part_tags: Vec<u32>,
}

impl Summary {
    /// The parts of a branch summary may take `1 / PARTS_SHARE` of the
    /// attribute bytes every summary of its schema carries.
    const PARTS_SHARE: usize = 32;

    /// Empty summary for `schema` under `config`.
    pub fn empty(schema: &Schema, config: &SummaryConfig) -> Self {
        let per_attr = schema
            .iter()
            .map(|(_, def)| match def.ty {
                AttrType::Numeric | AttrType::Integer | AttrType::Timestamp => {
                    AttributeSummary::Hist(Histogram::new(def.lo, def.hi, config.buckets))
                }
                AttrType::Categorical | AttrType::Text => match config.categorical {
                    CategoricalMode::Enumerate => AttributeSummary::Set(ValueSet::new()),
                    CategoricalMode::Bloom { bits, hashes } => {
                        AttributeSummary::Bloom(BloomFilter::new(bits, hashes))
                    }
                },
            })
            .collect::<Vec<_>>();
        Summary {
            occupancy: Occupancy::new(per_attr.len(), config.buckets),
            per_attr,
            records: 0,
            parts: Vec::new(),
            part_tags: Vec::new(),
        }
    }

    /// The branch summary of server `id`: its `local` summary merged with
    /// its `children`'s branch summaries, each given with its server's id,
    /// in that order — the one way a branch is aggregated, in a build,
    /// after a delta and on the message plane.
    ///
    /// The aggregate also keeps a coarse box per non-empty server below
    /// it, tagged with the summand it is reached through, merged within
    /// each summand down to [`Summary::parts_budget`] (see the module
    /// docs); [`Summary::may_match`] tests them on top of the merged
    /// attributes. A single box says nothing the aggregate's own
    /// histograms do not, so an aggregate of fewer than two keeps none: a
    /// leaf's branch summary *is* its local summary.
    pub fn branch_of<'a>(
        id: u32,
        local: &Summary,
        children: impl IntoIterator<Item = (u32, &'a Summary)>,
    ) -> Result<Summary, AttrMergeError> {
        Self::branch_within(id, local, children, local.parts_budget())
    }

    /// [`Summary::branch_of`] with its parts merged down to `budget` wire
    /// bytes instead of [`Summary::parts_budget`]: `0` leaves one box per
    /// summand, `usize::MAX` one per server below.
    pub fn branch_within<'a>(
        id: u32,
        local: &Summary,
        children: impl IntoIterator<Item = (u32, &'a Summary)>,
        budget: usize,
    ) -> Result<Summary, AttrMergeError> {
        let mut branch = local.without_parts();
        let mut children = children.into_iter().peekable();
        if children.peek().is_none() {
            return Ok(branch);
        }
        let arity = branch.per_attr.len();
        let mut boxes = Boxes {
            parts: Vec::with_capacity((1 + children.size_hint().0) * arity),
            tags: Vec::with_capacity(1 + children.size_hint().0),
            arity,
        };
        boxes.push(id, local);
        for (tag, child) in children {
            branch.merge(child)?;
            boxes.push(tag, child);
        }
        if boxes.tags.len() >= 2 && boxes.arity > 0 {
            boxes.fit(&branch.per_attr, budget);
            if boxes.tags.len() >= 2 {
                branch.parts = boxes.parts;
                branch.part_tags = boxes.tags;
            }
        }
        Ok(branch)
    }

    /// Wire bytes the parts of a branch summary of this schema and
    /// configuration may take: a fixed share of the attribute bytes every
    /// such summary carries, whatever it condenses (a value set counted
    /// empty). 14 boxes for 8 attributes of 128 buckets, 118 for 16 of
    /// 1 000, with one-byte tags.
    pub fn parts_budget(&self) -> usize {
        let fixed = |a: &AttributeSummary| match a {
            AttributeSummary::Set(_) => 1 + ValueSet::new().wire_size(),
            _ => a.wire_size(),
        };
        (10 + self.per_attr.iter().map(fixed).sum::<usize>()) / Self::PARTS_SHARE
    }

    /// Boxes this summary keeps of the servers below it.
    pub fn part_count(&self) -> usize {
        self.part_tags.len()
    }

    /// Wire bytes the parts add to this summary: for an aggregate that
    /// kept them, a trailer of a part count (1) and per part its tag (a
    /// varint) and per ordered attribute two 4-bit cell indexes (1). The
    /// enclosing message is length-framed, so no trailer costs nothing.
    pub fn parts_bytes(&self) -> usize {
        if self.part_tags.is_empty() {
            return 0;
        }
        let ordered = self.per_attr.iter().filter(|a| a.axis().is_some()).count();
        let tags: usize = self.part_tags.iter().map(|&t| varint_len(t)).sum();
        1 + tags + self.part_tags.len() * ordered
    }

    /// This summary as a reader that never tests its parts is shipped it:
    /// an ancestor's copy, read only for its attributes.
    pub fn without_parts(&self) -> Summary {
        let mut bare = self.clone();
        bare.clear_parts();
        bare
    }

    /// Forget the boxes: they vouch only for the summands they were taken
    /// from, and this summary is about to become something else.
    fn clear_parts(&mut self) {
        self.parts.clear();
        self.part_tags.clear();
    }

    /// Summarize a set of records. The counters are filled first and the
    /// occupancy index derived from them in one pass, instead of being
    /// marked value by value as [`Summary::add_record`] does: with a few
    /// hundred buckets and more records than buckets, the pass is the
    /// cheaper.
    pub fn from_records<'a>(
        schema: &Schema,
        config: &SummaryConfig,
        records: impl IntoIterator<Item = &'a Record>,
    ) -> Self {
        let mut s = Summary::empty(schema, config);
        for r in records {
            for (slot, v) in s.per_attr.iter_mut().zip(r.values()) {
                slot.learn(v);
            }
            s.records += 1;
        }
        s.occupancy.rebuild(&s.per_attr);
        s
    }

    /// Fold one record into the summary.
    pub fn add_record(&mut self, record: &Record) {
        self.clear_parts();
        for (attr, (slot, v)) in self.per_attr.iter_mut().zip(record.values()).enumerate() {
            if let Some(bucket) = slot.learn(v) {
                self.occupancy.set(attr, bucket);
            }
        }
        self.records += 1;
    }

    /// Exactly reverse [`Summary::add_record`] for a record whose values
    /// were previously folded in.
    ///
    /// Returns `false` — leaving the summary byte-identical — when any
    /// attribute cannot unlearn its value exactly: categorical sets and
    /// Bloom filters never can (shared entries / ORed bits), and a
    /// saturated histogram has dropped increments. A `false` answer means
    /// the caller must re-aggregate this summary from its underlying
    /// records; a `true` answer guarantees the result equals a fresh
    /// [`Summary::from_records`] over the remaining record set.
    pub fn remove_record(&mut self, record: &Record) -> bool {
        if self.records == 0 {
            return false;
        }
        let removable = self
            .per_attr
            .iter()
            .zip(record.values())
            .all(|(a, v)| a.can_unlearn(v));
        if !removable {
            return false;
        }
        self.clear_parts();
        for (attr, (slot, v)) in self.per_attr.iter_mut().zip(record.values()).enumerate() {
            if let Some(bucket) = slot.unlearn_vouched(v) {
                self.occupancy.clear(attr, bucket);
            }
        }
        self.records -= 1;
        true
    }

    /// Replace one record's contribution with another's — the hot
    /// operation of the incremental delta plane. Equivalent to a
    /// successful [`Summary::remove_record`] followed by
    /// [`Summary::add_record`], but the unlearn/learn pair runs in a
    /// single pass over the attributes after the unlearn check. Returns
    /// `false` — leaving the summary byte-identical — when `old` cannot be
    /// unlearned exactly, in which case the caller must re-aggregate from
    /// records just as for a refused removal.
    pub fn replace_record(&mut self, old: &Record, new: &Record) -> bool {
        if self.records == 0 {
            return false;
        }
        let removable = self
            .per_attr
            .iter()
            .zip(old.values())
            .all(|(a, v)| a.can_unlearn(v));
        if !removable {
            return false;
        }
        self.clear_parts();
        let values = old.values().iter().zip(new.values());
        for (attr, (slot, (ov, nv))) in self.per_attr.iter_mut().zip(values).enumerate() {
            if let Some(bucket) = slot.unlearn_vouched(ov) {
                self.occupancy.clear(attr, bucket);
            }
            if let Some(bucket) = slot.learn(nv) {
                self.occupancy.set(attr, bucket);
            }
        }
        true
    }

    /// Number of records this summary condenses (including merged children).
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Number of attributes (schema arity).
    pub fn arity(&self) -> usize {
        self.per_attr.len()
    }

    /// Per-attribute summary by schema position.
    pub fn attr(&self, idx: usize) -> &AttributeSummary {
        &self.per_attr[idx]
    }

    /// True when no record has been folded in.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Whether the occupancy index marks bucket `bucket` of attribute
    /// `attr` occupied: exactly when that histogram's counter is non-zero,
    /// whatever mutations led here.
    pub fn index_marks(&self, attr: usize, bucket: usize) -> bool {
        self.occupancy.is_set(attr, bucket)
    }

    /// Conservative conjunctive query evaluation: `true` iff *every*
    /// predicate may match — and, on an aggregate that kept its parts,
    /// some one summand's box holds the whole query. "Finally the server
    /// obtains 'true' or 'false' results on each child's summary, and
    /// directs the client to query those children with results of 'true'."
    /// (§III-B) A caller that puts one query to many summaries compiles
    /// it once into a [`Probe`] instead.
    pub fn may_match(&self, query: &Query) -> bool {
        Probe::compile(query, self).admits(self)
    }

    /// The tags of the parts that hold `query`, each once, in part order
    /// — the summands of this aggregate that may hold a match — or `None`
    /// when the summary refuses it. An aggregate that kept no parts admits
    /// a query it may match with no tags: it cannot say which summand holds
    /// the match. The part test is [`Summary::may_match`]'s own, so a
    /// summary that may match has at least one holding part if it has
    /// parts at all.
    pub fn parts_holding(&self, query: &Query) -> Option<Vec<u32>> {
        Probe::compile(query, self)
            .holding(self)
            .map(Iterator::collect)
    }

    /// The parts, each with its tag.
    fn boxes(&self) -> impl Iterator<Item = (u32, &[Span])> {
        let arity = self.per_attr.len().max(1);
        (self.part_tags.iter().copied()).zip(self.parts.chunks_exact(arity))
    }

    /// [`Summary::may_match`] with provenance: *which* per-attribute
    /// representation decided.
    ///
    /// On a prune, reports the kind of the first attribute summary that
    /// proved absence, or `"parts"` when it took the boxes to. On a match,
    /// reports the *fuzziest* participating kind — the likeliest
    /// false-positive source, ranked Bloom > histogram > exact value set
    /// (a value set cannot false-positive at all). Kind
    /// labels are [`AttributeSummary::kind_name`] strings; `None` when the
    /// summary is empty or the query has no in-range predicates.
    pub fn decide(&self, query: &Query) -> SummaryVerdict {
        if let Some(decided_by) = Probe::compile(query, self).refusal(self) {
            return SummaryVerdict::Prune { decided_by };
        }
        let rank = |k: &str| match k {
            "histogram" => 1,
            "bloom" => 2,
            _ => 0,
        };
        let fuzziest = (query.predicates().iter())
            .map(|p| self.per_attr[p.attr().index()].kind_name())
            .reduce(|f, k| if rank(k) > rank(f) { k } else { f });
        SummaryVerdict::Match { fuzziest }
    }

    /// Merge another summary (bottom-up aggregation step).
    pub fn merge(&mut self, other: &Summary) -> Result<(), AttrMergeError> {
        if self.per_attr.len() != other.per_attr.len() {
            return Err(AttrMergeError {
                reason: format!(
                    "arity mismatch: {} vs {}",
                    self.per_attr.len(),
                    other.per_attr.len()
                ),
            });
        }
        self.clear_parts();
        for (a, b) in self.per_attr.iter_mut().zip(&other.per_attr) {
            if let Err(e) = a.merge(b) {
                self.occupancy.rebuild(&self.per_attr);
                return Err(e);
            }
        }
        self.occupancy.union(&other.occupancy);
        self.records += other.records;
        Ok(())
    }

    /// What is left of this aggregate once `summands` that were merged
    /// into it are taken out again: counters subtract exactly, categorical
    /// attributes stay the supersets they are. This is how a server that
    /// holds a branch summary and the branch summaries of that server's
    /// children obtains its *local* summary without being shipped it.
    /// `None` when a summand cannot have been part of this aggregate or
    /// saturation has made the subtraction inexact.
    ///
    /// Nothing routes through it: the query engine reads an ancestor's
    /// stored local summary directly. It stays as the reference that
    /// justifies that shortcut — the engine's tests compare the stored
    /// local summary with this difference, which proves an entry could
    /// compute it from the replicas it already holds, at zero bytes.
    pub fn without<'a>(&self, summands: impl IntoIterator<Item = &'a Summary>) -> Option<Summary> {
        let mut rest = self.without_parts();
        for s in summands {
            rest.records = rest.records.checked_sub(s.records)?;
            let exact = rest.per_attr.len() == s.per_attr.len()
                && (rest.per_attr.iter_mut().zip(&s.per_attr)).all(|(a, b)| a.unmerge(b));
            if !exact {
                return None;
            }
        }
        rest.occupancy.rebuild(&rest.per_attr);
        Some(rest)
    }

    /// Aggregate many summaries into one (used by servers to produce their
    /// branch summary from child summaries).
    pub fn aggregate<'a>(
        schema: &Schema,
        config: &SummaryConfig,
        summaries: impl IntoIterator<Item = &'a Summary>,
    ) -> Result<Summary, AttrMergeError> {
        let mut out = Summary::empty(schema, config);
        for s in summaries {
            out.merge(s)?;
        }
        Ok(out)
    }
}

/// A branch's boxes while they are gathered and merged down to a budget.
struct Boxes {
    /// `arity` spans a box.
    parts: Vec<Span>,
    tags: Vec<u32>,
    arity: usize,
}

impl Boxes {
    /// Gather a summand's boxes under `tag`: its parts if it kept any, or
    /// else its one box unless it is empty.
    fn push(&mut self, tag: u32, summand: &Summary) {
        if !summand.part_tags.is_empty() {
            self.parts.extend_from_slice(&summand.parts);
            self.tags.extend(summand.part_tags.iter().map(|_| tag));
        } else if !summand.is_empty() {
            (self.parts).extend(summand.per_attr.iter().map(AttributeSummary::coarse_span));
            self.tags.push(tag);
        }
    }

    fn part(&self, i: usize) -> &[Span] {
        &self.parts[i * self.arity..(i + 1) * self.arity]
    }

    /// Widen box `a` to its hull with box `b`.
    fn absorb(&mut self, a: usize, b: usize) {
        for x in 0..self.arity {
            let other = self.parts[b * self.arity + x];
            self.parts[a * self.arity + x] = self.parts[a * self.arity + x].hull(other);
        }
    }

    /// Merge boxes within each run of one tag (a summand's boxes), the
    /// pair whose hull adds the least volume in cells first, until the
    /// trailer takes at most `budget` bytes or every run is down to one
    /// box. Ties go to the earliest run, then the earliest pair, so the
    /// result is a function of the boxes: a delta and a rebuild agree.
    /// Box volumes and pair costs are cached, and worked out again only
    /// for the box that grows.
    fn fit(&mut self, per_attr: &[AttributeSummary], budget: usize) {
        let ordered = per_attr.iter().filter(|a| a.axis().is_some()).count();
        let bytes = |t: u32| varint_len(t) + ordered;
        let trailer = 1 + self.tags.iter().map(|&t| bytes(t)).sum::<usize>();
        let Some(mut excess) = trailer.checked_sub(budget).filter(|&e| e > 0) else {
            return;
        };
        // Each ordered attribute with the log2 of its cell width.
        let axes: Vec<(usize, u32)> = (per_attr.iter().enumerate())
            .filter_map(|(x, a)| a.axis().map(|shift| (x, shift)))
            .collect();
        let mut runs: Vec<Range<usize>> = Vec::new();
        for run in self.tags.chunk_by(|a, b| a == b) {
            let start = runs.last().map_or(0, |r| r.end);
            runs.push(start..start + run.len());
        }
        let volume = |part: &[Span]| -> f64 {
            (axes.iter())
                .map(|&(x, shift)| part[x].cells(shift) as f64)
                .product()
        };
        let mut vol: Vec<f64> = (0..self.tags.len()).map(|i| volume(self.part(i))).collect();
        // The cells the hull of `a` and `b` covers that neither does.
        let added = |boxes: &Boxes, vol: &[f64], a: usize, b: usize| -> f64 {
            let (pa, pb) = (boxes.part(a), boxes.part(b));
            let (mut hull, mut meet) = (1.0f64, 1.0f64);
            for &(x, shift) in &axes {
                hull *= pa[x].hull(pb[x]).cells(shift) as f64;
                meet *= pa[x].meet(pb[x]).cells(shift) as f64;
            }
            hull - vol[a] - vol[b] + meet
        };
        // The cost of merging `a < b`, of one run, at `cost[a * n + b]`.
        let n = self.tags.len();
        let mut cost = vec![0.0; n * n];
        for r in &runs {
            for a in r.clone() {
                for b in a + 1..r.end {
                    cost[a * n + b] = added(self, &vol, a, b);
                }
            }
        }
        let mut alive = vec![true; n];
        let cheapest = |r: &Range<usize>, cost: &[f64], alive: &[bool]| {
            let mut best: Option<(f64, usize, usize)> = None;
            for a in r.clone().filter(|&a| alive[a]) {
                for b in (a + 1..r.end).filter(|&b| alive[b]) {
                    if best.is_none_or(|(c, ..)| cost[a * n + b] < c) {
                        best = Some((cost[a * n + b], a, b));
                    }
                }
            }
            best
        };
        let mut best: Vec<_> = runs.iter().map(|r| cheapest(r, &cost, &alive)).collect();
        while excess > 0 {
            let pick = (best.iter().enumerate())
                .filter_map(|(k, best)| best.map(|(c, a, b)| (c, k, a, b)))
                .reduce(|p, q| if q.0 < p.0 { q } else { p });
            let Some((_, k, a, b)) = pick else {
                break;
            };
            self.absorb(a, b);
            vol[a] = volume(self.part(a));
            alive[b] = false;
            excess = excess.saturating_sub(bytes(self.tags[b]));
            for o in runs[k].clone().filter(|&o| o != a && alive[o]) {
                let (lo, hi) = (a.min(o), a.max(o));
                cost[lo * n + hi] = added(self, &vol, lo, hi);
            }
            best[k] = cheapest(&runs[k], &cost, &alive);
        }
        let (mut kept, arity) = (0, self.arity);
        for i in (0..n).filter(|&i| alive[i]) {
            self.tags[kept] = self.tags[i];
            self.parts
                .copy_within(i * arity..(i + 1) * arity, kept * arity);
            kept += 1;
        }
        self.tags.truncate(kept);
        self.parts.truncate(kept * arity);
    }
}

/// Bytes of `v` as an unsigned LEB128 varint.
fn varint_len(v: u32) -> usize {
    v.checked_ilog2().map_or(1, |bits| bits as usize / 7 + 1)
}

impl WireSize for Summary {
    fn wire_size(&self) -> usize {
        // record count (8) + arity (2) + per-attribute summaries + parts.
        10 + self.per_attr.iter().map(WireSize::wire_size).sum::<usize>() + self.parts_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roads_records::{AttrDef, OwnerId, QueryBuilder, QueryId, RecordBuilder, RecordId, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            AttrDef::categorical("type"),
            AttrDef::categorical("encoding"),
            AttrDef::numeric("rate", 0.0, 1000.0),
            AttrDef::numeric("resolution", 0.0, 4000.0),
        ])
        .unwrap()
    }

    fn camera(schema: &Schema, id: u64, enc: &str, rate: f64) -> Record {
        RecordBuilder::new(schema, RecordId(id), OwnerId(1))
            .set("type", "camera")
            .set("encoding", enc)
            .set("rate", rate)
            .set("resolution", 640.0)
            .build()
            .unwrap()
    }

    fn config() -> SummaryConfig {
        SummaryConfig::with_buckets(100)
    }

    #[test]
    fn decide_reports_pruning_and_fuzziest_kind() {
        let s = schema();
        let records = vec![camera(&s, 1, "MPEG2", 100.0), camera(&s, 2, "MPEG2", 200.0)];
        // Bloom categorical summaries: the fuzziest participating kind.
        let cfg = SummaryConfig {
            categorical: CategoricalMode::Bloom {
                bits: 256,
                hashes: 3,
            },
            ..SummaryConfig::with_buckets(100)
        };
        let sum = Summary::from_records(&s, &cfg, &records);

        // Match driven by a bloom + a histogram: bloom is fuzzier.
        let q = QueryBuilder::new(&s, QueryId(1))
            .eq("type", "camera")
            .gt("rate", 150.0)
            .build();
        assert_eq!(
            sum.decide(&q),
            SummaryVerdict::Match {
                fuzziest: Some("bloom")
            }
        );

        // Histogram-only predicate: histogram is the fuzziest participant.
        let q = QueryBuilder::new(&s, QueryId(2)).gt("rate", 150.0).build();
        assert_eq!(
            sum.decide(&q),
            SummaryVerdict::Match {
                fuzziest: Some("histogram")
            }
        );

        // A rate range no record covers: the histogram proves absence.
        let q = QueryBuilder::new(&s, QueryId(3))
            .range("rate", 900.0, 1000.0)
            .build();
        assert_eq!(
            sum.decide(&q),
            SummaryVerdict::Prune {
                decided_by: Some("histogram")
            }
        );

        // decide() agrees with may_match() on both branches.
        for q in [
            QueryBuilder::new(&s, QueryId(4)).gt("rate", 150.0).build(),
            QueryBuilder::new(&s, QueryId(5))
                .range("rate", 900.0, 1000.0)
                .build(),
        ] {
            assert_eq!(
                matches!(sum.decide(&q), SummaryVerdict::Match { .. }),
                sum.may_match(&q)
            );
        }

        // Empty summary prunes with no deciding attribute.
        let empty = Summary::from_records(&s, &cfg, &[]);
        let q = QueryBuilder::new(&s, QueryId(6)).gt("rate", 0.0).build();
        assert_eq!(empty.decide(&q), SummaryVerdict::Prune { decided_by: None });
    }

    #[test]
    fn paper_query_against_summary() {
        let s = schema();
        let records = vec![camera(&s, 1, "MPEG2", 100.0), camera(&s, 2, "MPEG2", 200.0)];
        let sum = Summary::from_records(&s, &config(), &records);

        // type=camera AND rate>150 AND encoding=MPEG2 → may match (record 2).
        let q = QueryBuilder::new(&s, QueryId(1))
            .eq("type", "camera")
            .gt("rate", 150.0)
            .eq("encoding", "MPEG2")
            .build();
        assert!(sum.may_match(&q));

        // encoding=H264 → definitely no match.
        let q2 = QueryBuilder::new(&s, QueryId(2))
            .eq("encoding", "H264")
            .build();
        assert!(!sum.may_match(&q2));

        // rate>500 → no bucket beyond 500 is occupied.
        let q3 = QueryBuilder::new(&s, QueryId(3)).gt("rate", 500.0).build();
        assert!(!sum.may_match(&q3));
    }

    #[test]
    fn empty_summary_matches_nothing() {
        let s = schema();
        let sum = Summary::empty(&s, &config());
        let q = QueryBuilder::new(&s, QueryId(1))
            .eq("type", "camera")
            .build();
        assert!(!sum.may_match(&q));
    }

    #[test]
    fn merge_unions_matches() {
        let s = schema();
        let a = Summary::from_records(&s, &config(), &[camera(&s, 1, "MPEG2", 100.0)]);
        let b = Summary::from_records(&s, &config(), &[camera(&s, 2, "H264", 900.0)]);
        let merged = Summary::aggregate(&s, &config(), [&a, &b]).unwrap();
        assert_eq!(merged.record_count(), 2);
        let q = QueryBuilder::new(&s, QueryId(1))
            .eq("encoding", "H264")
            .gt("rate", 800.0)
            .build();
        assert!(merged.may_match(&q));
    }

    #[test]
    fn no_false_negatives_vs_exact_matching() {
        // For any record set and query: exact match ⇒ summary match.
        let s = schema();
        let records: Vec<Record> = (0..50)
            .map(|i| {
                camera(
                    &s,
                    i,
                    if i % 3 == 0 { "MPEG2" } else { "H264" },
                    (i as f64 * 19.7) % 1000.0,
                )
            })
            .collect();
        let sum = Summary::from_records(&s, &config(), &records);
        for lo in [0.0, 100.0, 450.0, 900.0] {
            let q = QueryBuilder::new(&s, QueryId(1))
                .eq("encoding", "MPEG2")
                .range("rate", lo, lo + 90.0)
                .build();
            let exact = records.iter().any(|r| q.matches(r));
            if exact {
                assert!(sum.may_match(&q), "false negative at lo={lo}");
            }
        }
    }

    #[test]
    fn wire_size_constant_in_record_count() {
        let s = schema();
        let one = Summary::from_records(&s, &config(), &[camera(&s, 1, "MPEG2", 1.0)]);
        let many: Vec<Record> = (0..500).map(|i| camera(&s, i, "MPEG2", i as f64)).collect();
        let big = Summary::from_records(&s, &config(), &many);
        assert_eq!(one.wire_size(), big.wire_size());
    }

    #[test]
    fn bloom_mode_constant_size_with_vocab() {
        let s = schema();
        let cfg = SummaryConfig {
            categorical: CategoricalMode::Bloom {
                bits: 1024,
                hashes: 4,
            },
            ..config()
        };
        let many: Vec<Record> = (0..200)
            .map(|i| camera(&s, i, &format!("codec-{i}"), 1.0))
            .collect();
        let sum = Summary::from_records(&s, &cfg, &many);
        let one = Summary::from_records(&s, &cfg, &[camera(&s, 1, "x", 1.0)]);
        assert_eq!(sum.wire_size(), one.wire_size());
        // and still no false negatives:
        let q = QueryBuilder::new(&s, QueryId(1))
            .eq("encoding", "codec-77")
            .build();
        assert!(sum.may_match(&q));
    }

    #[test]
    fn remove_record_reverses_add_for_numeric_schemas() {
        let s = Schema::unit_numeric(3);
        let cfg = SummaryConfig::with_buckets(64);
        let rec = |id: u64, a: f64, b: f64, c: f64| {
            Record::new_unchecked(
                RecordId(id),
                OwnerId(0),
                vec![Value::Float(a), Value::Float(b), Value::Float(c)],
            )
        };
        let r1 = rec(1, 0.1, 0.2, 0.3);
        let r2 = rec(2, 0.9, 0.8, 0.7);
        let mut sum = Summary::from_records(&s, &cfg, &[r1.clone(), r2.clone()]);
        assert!(sum.remove_record(&r2));
        assert_eq!(
            sum,
            Summary::from_records(&s, &cfg, std::slice::from_ref(&r1)),
            "delta removal must be byte-identical to a rebuild"
        );
        assert!(sum.remove_record(&r1));
        assert_eq!(sum, Summary::empty(&s, &cfg));
        // Empty summaries refuse further removal.
        assert!(!sum.remove_record(&r1));
    }

    #[test]
    fn remove_record_refuses_on_categorical_attributes() {
        // A camera record carries Set-summarized values: the set cannot
        // unlearn, so the whole removal must refuse atomically.
        let s = schema();
        let r = camera(&s, 1, "MPEG2", 100.0);
        let mut sum = Summary::from_records(&s, &config(), &[r.clone(), r.clone()]);
        let before = sum.clone();
        assert!(!sum.remove_record(&r));
        assert_eq!(sum, before, "refused removal must leave no partial edit");
    }

    #[test]
    fn parts_holding_names_the_summands_whose_boxes_hold_the_query() {
        let s = Schema::unit_numeric(2);
        let cfg = SummaryConfig::with_buckets(64);
        let at = |id: u64, x: f64, y: f64| {
            let values = vec![Value::Float(x), Value::Float(y)];
            Summary::from_records(
                &s,
                &cfg,
                &[Record::new_unchecked(RecordId(id), OwnerId(0), values)],
            )
        };
        let (local, near, far) = (at(0, 0.1, 0.1), at(1, 0.15, 0.9), at(2, 0.9, 0.9));
        let empty = Summary::empty(&s, &cfg);
        let kids = [(7, &near), (300, &far), (9, &empty)];
        let branch = Summary::branch_of(4, &local, kids).unwrap();
        assert_eq!(branch.part_count(), 3, "an empty summand has no box");
        let q = |id, x: (f64, f64), y: (f64, f64)| {
            QueryBuilder::new(&s, QueryId(id))
                .range("x0", x.0, x.1)
                .range("x1", y.0, y.1)
                .build()
        };
        // Every box holds a query with no predicates.
        assert_eq!(
            branch.parts_holding(&Query::new(QueryId(0), Vec::new())),
            Some(vec![4, 7, 300])
        );
        assert_eq!(
            branch.parts_holding(&q(1, (0.0, 0.2), (0.0, 1.0))),
            Some(vec![4, 7])
        );
        assert_eq!(
            branch.parts_holding(&q(2, (0.8, 1.0), (0.8, 1.0))),
            Some(vec![300])
        );
        // Each attribute admits it, no box holds it whole: refused.
        let across = q(3, (0.85, 0.95), (0.05, 0.15));
        assert!(!branch.may_match(&across));
        assert_eq!(branch.parts_holding(&across), None);
        // A leaf keeps no parts: it admits with no tags, or refuses.
        let leaf = Summary::branch_of(4, &local, []).unwrap();
        assert_eq!(
            leaf.parts_holding(&q(4, (0.0, 0.2), (0.0, 0.2))),
            Some(Vec::new())
        );
        assert_eq!(leaf.parts_holding(&q(5, (0.8, 1.0), (0.0, 1.0))), None);
        // Tags are charged as varints: 1 + 1 + 2 bytes here.
        let untagged = Summary::branch_of(0, &local, [(0, &near), (0, &far)]).unwrap();
        assert_eq!(branch.wire_size(), untagged.wire_size() + 1);
    }

    #[test]
    fn parts_merge_the_pair_adding_least_volume_until_the_budget_fits() {
        let s = Schema::unit_numeric(2);
        let cfg = SummaryConfig::with_buckets(16);
        let at = |id: u64, x: f64, y: f64| {
            let values = vec![Value::Float(x), Value::Float(y)];
            Summary::from_records(
                &s,
                &cfg,
                &[Record::new_unchecked(RecordId(id), OwnerId(0), values)],
            )
        };
        let (near, far) = (at(1, 0.2, 0.1), at(2, 0.9, 0.9));
        let child = Summary::branch_of(1, &at(0, 0.1, 0.1), [(2, &near), (3, &far)]).unwrap();
        assert_eq!(
            child.part_count(),
            3,
            "never fewer than one box per summand"
        );
        let local = at(3, 0.5, 0.5);
        let parent = |budget| Summary::branch_within(0, &local, [(1, &child)], budget).unwrap();
        let q = |id, x: f64, y: f64| {
            QueryBuilder::new(&s, QueryId(id))
                .range("x0", x - 0.04, x + 0.04)
                .range("x1", y - 0.04, y + 0.04)
                .build()
        };
        let corner = q(1, 0.9, 0.1);
        // One box per server below: a one-byte tag and a byte per attribute.
        let exact = parent(usize::MAX);
        assert_eq!((exact.part_count(), exact.parts_bytes()), (4, 1 + 4 * 3));
        assert!(!exact.may_match(&corner));
        // One box fewer: the child's two boxes side by side merge, not a
        // far one, so the corner stays refused.
        let fitted = parent(10);
        assert_eq!((fitted.part_count(), fitted.parts_bytes()), (3, 1 + 3 * 3));
        assert!(!fitted.may_match(&corner));
        assert_eq!(fitted.parts_holding(&q(2, 0.15, 0.1)), Some(vec![1]));
        // Each tag is named once, however many of its boxes hold the query.
        let all = Query::new(QueryId(3), Vec::new());
        assert_eq!(fitted.parts_holding(&all), Some(vec![0, 1]));
        // No budget to speak of: one box per summand, and the child's
        // hull admits the corner.
        let coarse = parent(0);
        assert_eq!(coarse.part_count(), 2);
        assert!(coarse.may_match(&corner));
    }

    #[test]
    fn arity_mismatch_merge_rejected() {
        let s2 = Schema::unit_numeric(2);
        let s3 = Schema::unit_numeric(3);
        let cfg = config();
        let mut a = Summary::empty(&s2, &cfg);
        let b = Summary::empty(&s3, &cfg);
        assert!(a.merge(&b).is_err());
    }
}
