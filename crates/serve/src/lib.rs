//! `lrp-serve`: a sharded persistent key-value **service** front-end
//! over the workspace's log-free data structures and timing simulator —
//! the end-to-end demonstration of the paper's recovery claim: a shard
//! can be killed mid-traffic, rebuilt from its NVM image with *null
//! recovery* (§2.3, §5), and resume serving with every durably-acked
//! write intact.
//!
//! # Architecture
//!
//! ```text
//! clients ──TCP/UDS──▶ codec ──▶ router ──▶ per-shard bounded queue
//!                                               │  (admission control:
//!                                               │   full ⇒ Overloaded)
//!                                               ▼
//!                                    batcher (closes when the queue drains)
//!                                               ▼
//!                               shard: LFD + simulated machine
//!                               (batch trace ⇒ lrp-sim ⇒ persist
//!                                schedule ⇒ durable acks)
//!                                               ▼
//!                               crash? ⇒ lrp-recovery crash_restart
//!                                        (NVM image rebuild + null-
//!                                         recovery check) ⇒ resume
//! ```
//!
//! Each shard owns one simulated machine and one log-free structure.
//! Requests are batched and translated into harness operations; the
//! batch replays on the simulator under the configured persistency
//! mechanism, and the recorded [`PersistSchedule`] decides which
//! operations are **durably acked**: an op is durable only when every
//! write it performed *and everything it read from* has persisted
//! (reads-from closure), the service-level counterpart of durable
//! linearizability. Each batch's simulation ends with every core's full
//! flush, so a persisting mechanism (LRP included) acks its batch
//! durable instead of rolling a lazy tail back. Under the volatile
//! `nop` replies carry `durable: false`, and clients treat them as
//! retryable, exactly like load-shed requests.
//!
//! [`PersistSchedule`]: lrp_model::spec::PersistSchedule

pub mod codec;
pub mod load;
pub mod metrics;
pub mod server;
pub mod shard;

pub use codec::{Request, Response, WireError, MAX_FRAME};
pub use load::{probe, run_load, Client, LoadSpec, LoadSummary};
pub use server::{route, Bind, Server, ServerConfig, ServerReport};
pub use shard::{
    BatchBreakdown, CrashOutcome, KvOp, KvResult, Shard, ShardConfig, ShardCounters, ShardReq,
    COMPACT_FACTOR,
};
