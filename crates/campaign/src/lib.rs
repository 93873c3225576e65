//! `lrp-campaign`: a parallel, fault-tolerant evaluation-campaign
//! subsystem with machine-readable reports.
//!
//! A *campaign* sweeps the paper's evaluation matrix — data structure ×
//! persistency mechanism × NVM mode × thread count × seed — and runs
//! every cell end-to-end: generate the workload trace (`lrp-lfds` /
//! `lrp-exec`, once per workload and shared by its cells), replay it
//! under the timing simulator (`lrp-sim`), validate the persist schedule
//! against the RP specification (`lrp-model`), and check null recovery
//! over sampled crash points (`lrp-recovery`).
//!
//! Design pillars:
//!
//! * **Parallel yet deterministic** — cells are sharded across OS
//!   threads by a work-stealing [`scheduler`], but every aggregate is a
//!   pure function of the matrix and per-cell outcomes, so an N-worker
//!   campaign reports byte-for-byte what a serial one would.
//! * **Fault-tolerant** — each cell runs behind `catch_unwind` and a
//!   watchdog ([`isolation`]); one diverging or panicking replay records
//!   a `failed`/`timed_out` cell instead of killing the sweep.
//! * **Resumable** — completed cells stream to a JSONL manifest
//!   ([`report`]); a resumed campaign skips `ok` cells, re-runs the
//!   rest, and refuses a manifest whose matrix fingerprint differs.
//! * **Machine-readable** — results roll up into a versioned
//!   `BENCH_campaign.json` (geomean normalized execution times, 95%
//!   CIs over seeds, critical write-back fractions) plus a plain-text
//!   table ([`aggregate`], [`report`]).

pub mod aggregate;
pub mod cell;
pub mod isolation;
pub mod matrix;
pub mod report;
pub mod scheduler;
pub mod traces;

/// The deterministic JSON model — now defined in `lrp-obs` (the
/// observability exporters share it), re-exported here under its
/// historical path.
pub use lrp_obs::json;

pub use aggregate::{summarize, CampaignSummary, GroupSummary, MechSummary, OverallRow};
pub use cell::{build_trace, replay_cell, CellResult};
pub use isolation::{CellOutcome, CellRecord};
pub use json::Json;
pub use matrix::{workload_slots, CellSpec, MatrixSpec, Workload};
pub use report::{
    render_table, run_to_files, summary_json, write_bench_json, CampaignOutcome, FORMAT_VERSION,
};
pub use scheduler::{run_campaign, run_parallel, CampaignConfig};
