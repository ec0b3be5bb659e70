//! The ROADS benchmark: four workloads over the workspace crates' public
//! APIs, every answer checked against the central oracle, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//! See `README.md` for the protocol and how to read the numbers.

pub mod host;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod pass;
pub mod run;
pub mod stats;
pub mod system;
pub mod trace;
pub mod workloads;
