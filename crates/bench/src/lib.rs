//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§6).
//!
//! [`figures`] defines the figure workload shape and turns each
//! campaign-matrix figure (5–8, §6.4 sensitivity, headline claims) into
//! `lrp-campaign` cells, run once over shared traces; the `lrp-eval`
//! binary prints them as paper-style text tables. The `lrp-campaign`
//! binary drives the `lrp-campaign` crate's parallel evaluation-campaign
//! runner. All binaries share [`cli`]: the flag parser, file I/O and
//! the unhealthy-cell report. `lrp-bench gate`, the one regression
//! gate, judges campaign, host and service reports with [`gate`]. The
//! `lrp-profile` binary wraps [`profile`], the persist-blame profiler:
//! per-site attribution of stall cycles and persist latency,
//! LRP-vs-baseline differentials and folded-stacks flame-graph export.
//!
//! Full-size figure generation is about a minute of CPU;
//! `--quick` keeps CI at seconds.

pub mod alloc_count;
pub mod cli;
pub mod crashfuzz;
pub mod figures;
pub mod gate;
pub mod host;
pub mod profile;
pub mod serve_bench;
