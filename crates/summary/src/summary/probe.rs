//! Queries compiled against a summary grid, and the occupancy index they
//! test.
//!
//! Every summary of one federation is laid on one grid: the schema's
//! attributes in order, and per ordered attribute one histogram domain
//! and bucket count (the [`crate::SummaryConfig`] is distributed with the
//! schema). So the buckets a range predicate covers are the same in every
//! summary a query meets on its way, and a [`Probe`] works them out once,
//! with [`Histogram::bucket_of`]'s arithmetic, before any summary is
//! tested. Each summary keeps an occupancy index beside its counters,
//! one bit per bucket, so the test of an ordered predicate is then a
//! masked word or two instead of two divisions and a counter scan.

use super::Summary;
use crate::attr_summary::AttributeSummary;
use crate::histogram::{Histogram, Span};
use roads_records::{Predicate, Query};
use serde::{Deserialize, Serialize};

/// One bit per histogram bucket of a summary, set exactly while the
/// bucket's counter is non-zero: `stride` words an attribute, in schema
/// order, all in one allocation (a categorical attribute's words stay
/// zero).
///
/// Derived local state, like [`Histogram::occupied`]: a function of the
/// counters, kept exact by every mutation of a [`Summary`] — a bit is set
/// when its counter goes 0 → 1, cleared when it goes 1 → 0, ORed by a
/// merge and derived afresh after a subtraction — and never on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Occupancy {
    words: Vec<u64>,
    stride: usize,
}

/// Where one attribute's run of buckets lies in an [`Occupancy`] index:
/// its first and last word, with the bits of each that the run covers
/// (the first word's mask also clipped at the run's end when the two
/// words are one).
#[derive(Debug, Clone, Copy)]
struct Words {
    first: u32,
    last: u32,
    first_mask: u64,
    last_mask: u64,
}

impl Occupancy {
    /// The index of `arity` attributes of `buckets` buckets each, all empty.
    pub(crate) fn new(arity: usize, buckets: usize) -> Self {
        let stride = buckets.div_ceil(64);
        Occupancy {
            words: vec![0; arity * stride],
            stride,
        }
    }

    /// Mark bucket `bucket` of attribute `attr` occupied.
    #[inline]
    pub(crate) fn set(&mut self, attr: usize, bucket: usize) {
        self.words[attr * self.stride + bucket / 64] |= 1 << (bucket % 64);
    }

    /// Mark bucket `bucket` of attribute `attr` empty.
    #[inline]
    pub(crate) fn clear(&mut self, attr: usize, bucket: usize) {
        self.words[attr * self.stride + bucket / 64] &= !(1 << (bucket % 64));
    }

    /// Whether bucket `bucket` of attribute `attr` is marked occupied.
    pub(crate) fn is_set(&self, attr: usize, bucket: usize) -> bool {
        self.words[attr * self.stride + bucket / 64] & (1 << (bucket % 64)) != 0
    }

    /// The index of a merge: a counter sum is non-zero iff a summand is.
    pub(crate) fn union(&mut self, other: &Occupancy) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Derive the index afresh from the counters of `per_attr`. Eight
    /// counters at a time become eight 0/1 bytes, and one multiply packs
    /// those into eight bits (byte `i` times the constant's byte `7 − i`
    /// lands bit `i` in the top byte, and no lower byte carries), which
    /// costs a fraction of a test per counter.
    pub(crate) fn rebuild(&mut self, per_attr: &[AttributeSummary]) {
        const PACK: u64 = 0x0102_0408_1020_4080;
        let stride = self.stride.max(1);
        for (words, summary) in self.words.chunks_mut(stride).zip(per_attr) {
            words.fill(0);
            if let AttributeSummary::Hist(h) = summary {
                for (word, counters) in words.iter_mut().zip(h.buckets().chunks(64)) {
                    let mut eights = counters.chunks_exact(8);
                    for (k, eight) in (&mut eights).enumerate() {
                        let bytes: [u8; 8] = std::array::from_fn(|i| u8::from(eight[i] > 0));
                        *word |= (u64::from_le_bytes(bytes).wrapping_mul(PACK) >> 56) << (8 * k);
                    }
                    let done = counters.len() - eights.remainder().len();
                    for (i, &c) in eights.remainder().iter().enumerate() {
                        *word |= u64::from(c > 0) << (done + i);
                    }
                }
            }
        }
    }

    /// Where the buckets `span` of attribute `attr` lie.
    fn locate(&self, attr: usize, span: Span) -> Words {
        let (first, last) = (span.first as usize, span.last as usize);
        let base = attr * self.stride;
        let last_mask = u64::MAX >> (63 - last % 64);
        let mut words = Words {
            first: (base + first / 64) as u32,
            last: (base + last / 64) as u32,
            first_mask: u64::MAX << (first % 64),
            last_mask,
        };
        if words.first == words.last {
            words.first_mask &= last_mask;
        }
        words
    }

    /// Whether any bucket of the run at `w` is occupied.
    #[inline]
    fn any(&self, w: &Words) -> bool {
        let (first, last) = (w.first as usize, w.last as usize);
        self.words[first] & w.first_mask != 0
            || (first < last
                && (self.words[first + 1..last].iter().any(|&x| x != 0)
                    || self.words[last] & w.last_mask != 0))
    }
}

/// One predicate of a [`Probe`], compiled against the grid.
#[derive(Debug, Clone, Copy)]
enum Test<'q> {
    /// A range or numeric point on an ordered attribute: the buckets it
    /// covers, and where they lie in the occupancy index.
    Buckets { attr: u32, span: Span, words: Words },
    /// A value of a categorical attribute, put to its value set or Bloom
    /// filter.
    Values { attr: u32, pred: &'q Predicate },
    /// A predicate of the wrong kind for its attribute (a range over a
    /// categorical attribute, a set over an ordered one): no summary can
    /// prove absence with it, so every one admits it.
    Any,
    /// A predicate no record can satisfy — a NaN or inverted range
    /// (refused as the histogram's) or an attribute outside the schema
    /// (refused as no kind's) — so every non-empty summary refuses it.
    Refuse(Option<&'static str>),
}

impl<'q> Test<'q> {
    fn compile(grid: &Summary, pred: &'q Predicate) -> Self {
        let attr = pred.attr().index();
        let Some(summary) = grid.per_attr.get(attr) else {
            return Test::Refuse(None);
        };
        let buckets = |h: &Histogram, lo: f64, hi: f64| match h.span_of(lo, hi) {
            Some(span) => Test::Buckets {
                attr: attr as u32,
                span,
                words: grid.occupancy.locate(attr, span),
            },
            None => Test::Refuse(Some(summary.kind_name())),
        };
        match (summary, pred) {
            (AttributeSummary::Hist(h), Predicate::Range { lo, hi, .. }) => buckets(h, *lo, *hi),
            (AttributeSummary::Hist(h), Predicate::Eq { value, .. }) => match value.as_f64() {
                Some(v) => buckets(h, v, v),
                None => Test::Any,
            },
            (AttributeSummary::Hist(_), Predicate::OneOf { .. }) | (_, Predicate::Range { .. }) => {
                Test::Any
            }
            (AttributeSummary::Set(_) | AttributeSummary::Bloom(_), _) => Test::Values {
                attr: attr as u32,
                pred,
            },
        }
    }

    /// Whether `s`'s summary of the predicate's attribute admits it.
    #[inline]
    fn admitted_by(&self, s: &Summary) -> bool {
        match *self {
            Test::Buckets { ref words, .. } => s.occupancy.any(words),
            Test::Values { attr, pred } => s.per_attr[attr as usize].may_hold(pred),
            Test::Any => true,
            Test::Refuse(_) => false,
        }
    }

    /// What [`crate::SummaryVerdict::Prune`] names when `s` refuses it.
    fn refused_as(&self, s: &Summary) -> Option<&'static str> {
        match *self {
            Test::Buckets { attr, .. } | Test::Values { attr, .. } => {
                Some(s.per_attr[attr as usize].kind_name())
            }
            Test::Refuse(kind) => kind,
            Test::Any => None,
        }
    }

    /// Whether a box of a branch summary's parts meets the buckets the
    /// predicate covers; a predicate that covers no run of buckets
    /// constrains no box.
    fn held_by(&self, part: &[Span]) -> bool {
        match *self {
            Test::Buckets { attr, span, .. } => part[attr as usize].intersects(span),
            _ => true,
        }
    }
}

/// A query compiled against the grid of the summaries it will be put to:
/// made once, held on the stack, and then tested against any number of
/// them — the one evaluator behind [`Summary::may_match`],
/// [`Summary::decide`] and [`Summary::parts_holding`], and what the
/// engine tests a server's own summary, its children's, its ancestors'
/// and its replicas' parts with in one routing step.
///
/// Each predicate becomes its test in query order, so a refusal names the
/// first predicate that refuses, as a predicate-by-predicate evaluation
/// would. A probe must only be put to summaries of the schema and
/// [`crate::SummaryConfig`] of the one it was compiled against.
#[derive(Debug)]
pub struct Probe<'q> {
    tests: [Test<'q>; Probe::HELD],
    len: usize,
    /// The predicates beyond the first [`Probe::HELD`]: compiled against
    /// each summary as it is tested, and not put to its parts.
    rest: &'q [Predicate],
    /// Words of the grid's occupancy index, to catch a probe put to a
    /// summary of another grid.
    words: usize,
}

impl<'q> Probe<'q> {
    /// Predicates of one query compiled ahead and put to the parts. Any
    /// beyond go untested on the parts, which only makes the answer more
    /// cautious.
    const HELD: usize = 16;

    /// Compile `query` against the grid of `grid`.
    pub fn compile(query: &'q Query, grid: &Summary) -> Self {
        let preds = query.predicates();
        let mut probe = Probe {
            tests: [Test::Any; Probe::HELD],
            len: 0,
            rest: preds.get(Self::HELD..).unwrap_or(&[]),
            words: grid.occupancy.words.len(),
        };
        for p in preds.iter().take(Self::HELD) {
            let test = Test::compile(grid, p);
            probe.tests[probe.len] = test;
            probe.len += 1;
            // Nothing after a refusal is ever reached.
            if let Test::Refuse(_) = test {
                probe.rest = &[];
                break;
            }
        }
        probe
    }

    /// Whether some record `s` summarizes may match the query (see
    /// [`Summary::may_match`]).
    #[inline]
    pub fn admits(&self, s: &Summary) -> bool {
        self.refusal(s).is_none()
    }

    /// Why no record `s` summarizes can match — `Some` of what
    /// [`crate::SummaryVerdict::Prune`] reports — or `None` if one may:
    /// the first predicate its attribute refuses, or, when every one is
    /// admitted and `s` has parts, `"parts"` unless a box holds them all.
    pub(crate) fn refusal(&self, s: &Summary) -> Option<Option<&'static str>> {
        if let Some(why) = self.attribute_refusal(s) {
            return Some(why);
        }
        if !s.part_tags.is_empty() && !s.boxes().any(|(_, part)| self.held_by(part)) {
            return Some(Some("parts"));
        }
        None
    }

    /// The tags of the parts of `s` that hold the query, each once, in
    /// part order — or `None` when `s` refuses it (see
    /// [`Summary::parts_holding`]).
    pub fn holding<'s>(&'s self, s: &'s Summary) -> Option<impl Iterator<Item = u32> + 's> {
        if self.attribute_refusal(s).is_some() {
            return None;
        }
        let mut last = None;
        let mut tags = (s.boxes())
            .filter(|(_, part)| self.held_by(part))
            .map(|(tag, _)| tag)
            // A summand's boxes are adjacent, so its tag repeats only in a run.
            .filter(move |&tag| last.replace(tag) != Some(tag))
            .peekable();
        (s.part_tags.is_empty() || tags.peek().is_some()).then_some(tags)
    }

    /// The first predicate `s`'s attributes refuse, as [`Probe::refusal`]
    /// reports it, or `None` if they admit every one.
    #[inline]
    fn attribute_refusal(&self, s: &Summary) -> Option<Option<&'static str>> {
        debug_assert_eq!(
            s.occupancy.words.len(),
            self.words,
            "a summary of another grid"
        );
        if s.records == 0 {
            return Some(None);
        }
        if let Some(t) = self.tests[..self.len].iter().find(|t| !t.admitted_by(s)) {
            return Some(t.refused_as(s));
        }
        for p in self.rest {
            let t = Test::compile(s, p);
            if !t.admitted_by(s) {
                return Some(t.refused_as(s));
            }
        }
        None
    }

    /// Whether a box meets every compiled predicate.
    fn held_by(&self, part: &[Span]) -> bool {
        self.tests[..self.len].iter().all(|t| t.held_by(part))
    }
}
