//! Lossy resource summaries (§III-B of the ROADS paper).
//!
//! A *summary* is a condensed, usually lossy representation of a set of
//! resource records that still supports query evaluation. Owners export
//! summaries instead of raw records to preserve voluntary sharing; servers
//! aggregate child summaries bottom-up so each holds a coarse view of its
//! branch, and the replication overlay copies branch summaries sideways.
//!
//! Structures provided, matching the paper's catalogue:
//!
//! * [`Histogram`] — equi-width bucket counts for numeric attributes; two
//!   histograms merge by adding per-bucket counters.
//! * [`ValueSet`] — enumerated set of categorical values ("acceptable if the
//!   number of distinct values is limited").
//! * [`BloomFilter`] — constant-size alternative for large vocabularies
//!   (the paper cites Bloom's 1970 construction \[10\]).
//! * [`Summary`] — one summary per searchable attribute, aligned to a
//!   [`roads_records::Schema`]; evaluates conjunctive queries conservatively
//!   (no false negatives).
//! * [`Probe`] — a query compiled once against the summaries' shared grid,
//!   then tested against each summary on its occupancy index.
//!
//! The TTLs the paper attaches to summaries ("data and summaries are
//! soft-state and have TTLs associated with them") belong to the server
//! that holds them: `roads_core::protocol` keeps each replica with the
//! time it was last heard and expires it by the one liveness deadline.

pub mod attr_summary;
pub mod bloom;
pub mod histogram;
pub mod summary;
pub mod value_set;

pub use attr_summary::AttributeSummary;
pub use bloom::BloomFilter;
pub use histogram::Histogram;
pub use summary::{CategoricalMode, Probe, Summary, SummaryConfig, SummaryVerdict};
pub use value_set::ValueSet;
