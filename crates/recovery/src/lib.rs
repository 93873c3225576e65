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
//! * [`crash::PersistWalk`] builds every crash image of a schedule: it
//!   sorts the persisted writes once and applies them to one image as
//!   the crash stamp rises ([`crash::nvm_at`] is its one-point form, and
//!   a serving shard commits a batch with it),
//! * [`crash::CrashPlan`] enumerates (or samples) interesting crash
//!   points,
//! * [`check::check_null_recovery`] walks every chosen crash state
//!   through the structure's validator,
//! * [`restart`] rebuilds a shard's durable image and slot-table
//!   resolver after a simulated crash,
//! * [`counterexample`] packages the paper's Figure 1 demonstration.
//!
//! Whether a recovered state is explained by the operations the program
//! ran is durable linearizability, which `lrp-check` judges.

pub mod check;
pub mod counterexample;
pub mod crash;
pub mod restart;

pub use check::{check_null_recovery, RecoveryReport};
pub use counterexample::Counterexample;
pub use crash::{nvm_at, CrashPlan, PersistWalk};
pub use restart::{
    crash_restart, crash_restart_random, random_crash_stamp, rebuild_resolution, RestartResolution,
    ShardRestart,
};
