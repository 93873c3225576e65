//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§6).
//!
//! [`experiments`] holds one runner per artifact; the `lrp-eval` binary
//! prints them as paper-style text tables, and the harness-free benches
//! under `benches/` wrap the same runners (via [`microbench`]) for
//! regression tracking. The `lrp-campaign` binary drives the
//! `lrp-campaign` crate's parallel evaluation-campaign runner. All
//! binaries share [`cli`]: the flag parser, file I/O, the gate
//! subcommand body and the instrumented-run report. Every regression
//! gate runs on the one [`gate`] engine. The `lrp-profile` binary
//! wraps [`profile`], the persist-blame profiler: per-site attribution
//! of stall cycles and persist latency, LRP-vs-baseline differentials,
//! folded-stacks flame-graph export, and the perf-regression gate over
//! `BENCH_campaign.json` summaries.
//!
//! Full-size figure generation is minutes of CPU; every runner takes an
//! [`experiments::EvalParams`] whose `quick` preset keeps CI fast.

pub mod alloc_count;
pub mod cli;
pub mod crashfuzz;
pub mod experiments;
pub mod gate;
pub mod host;
pub mod microbench;
pub mod profile;
pub mod serve_bench;

pub use experiments::{EvalParams, EvalScale};
