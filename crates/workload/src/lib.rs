//! Workload generation for the ROADS evaluation (§V).
//!
//! The paper's default simulation workload: 320 nodes × 500 records, each
//! record with 16 numeric attributes drawn from four distribution families
//! ("uniform, range, Gaussian and Pareto, scaled and truncated into \[0,1\]"),
//! and 500 six-dimensional queries (two uniform dims, two range dims, one
//! Gaussian, one Pareto), each dimension a range of length 0.25, each query
//! initiated from a randomly chosen node.
//!
//! * [`dist`] — the four attribute distributions, implemented directly
//!   (Box–Muller Gaussian, inverse-CDF Pareto) so no extra sampling crate is
//!   needed.
//! * [`gen`] — record-set and query-set generators, including the
//!   overlap-factor placement of Fig. 9 and the selectivity-calibrated query
//!   groups of Fig. 11.

pub mod dist;
pub mod gen;
pub mod mixed;

pub use dist::Distribution;
pub use gen::{
    default_schema, exact_selectivity, family_of, generate_node_records, generate_overlap_records,
    generate_queries, line_records, queries_with_dims, rng_stream, selectivity_query_groups,
    Family, QueryWorkloadConfig, RecordWorkloadConfig,
};
pub use mixed::{generate_mixed_records, mixed_schema, MixedSchemaConfig};
