//! Crash-consistency checking: reconstructing NVM state at arbitrary
//! crash points and validating that log-free data structures recover
//! with no effort (*null recovery*, §2.3 of the paper).
//!
//! Two sources of persist schedules are supported:
//!
//! * **model-level** schedules (e.g. the ARP persist-buffer model in
//!   `lrp-baselines`) — used to reproduce Figure 1's counterexample,
//! * **simulator** schedules recorded by `lrp-sim` runs — used to prove
//!   that LRP/SB/BB executions recover at *every* crash point while NOP
//!   executions generally do not.
//!
//! The core pieces:
//!
//! * [`crash::nvm_at`] reconstructs the durable memory image for a crash
//!   immediately after a given flush stamp,
//! * [`crash::CrashPlan`] enumerates (or samples) interesting crash
//!   points,
//! * [`check::check_null_recovery`] walks every chosen crash state
//!   through the structure's validator,
//! * [`counterexample`] packages the paper's Figure 1 demonstration.

pub mod check;
pub mod counterexample;
pub mod crash;
pub mod history;
pub mod restart;

pub use check::{check_null_recovery, RecoveryReport};
pub use counterexample::Counterexample;
pub use crash::{apply_persisted, nvm_at, CrashPlan};
pub use history::{history_consistent, HistoryViolation};
pub use restart::{
    crash_restart, crash_restart_random, random_crash_stamp, rebuild_resolution, RestartResolution,
    ShardRestart,
};
