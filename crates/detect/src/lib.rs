//! Detectable operations for exactly-once serving.
//!
//! A crash leaves clients holding `Crashed` and `durable: false` acks:
//! "did my op happen?" is unanswerable, so blind retries give only
//! at-least-once semantics. Memento (Kim et al., PLDI 2023) and the
//! detectable-execution model of Ben-David et al. answer the question
//! with a *persistent per-client slot*: before an operation is acked,
//! the executor stamps a slot record — request id, key, and an encoded
//! outcome — **through the same simulated NVM** as the data it
//! protects, so the stamp's durability is governed by the very persist
//! schedule under test.
//!
//! The stamp is written payload-first with the request-id word last via
//! a *release* store. Under any discipline that persist-orders
//! program-order-earlier writes before a release
//! ([`PersistDiscipline::guarantees_dl`](lrp_model::spec::PersistDiscipline::guarantees_dl)), a stamp
//! recovered from a crash image therefore proves three things at once:
//!
//! 1. the record's own payload words are not torn,
//! 2. every write of the operation body (program-order before the
//!    stamp) reached NVM, and
//! 3. the recorded outcome is the outcome that persisted.
//!
//! Recovery reads the slot table back from the crash-cut image
//! ([`read_table`]) and builds a [`Resolver`] that deterministically
//! answers [`Done`](ResolvedStatus::Done) or
//! [`NotStarted`](ResolvedStatus::NotStarted) for every uncertain
//! request id. `NotStarted` is a safe answer even when the operation's
//! *effect* persisted but its stamp did not (the stamp trails the
//! effect in persist order): the serving layer's set semantics make the
//! retry idempotent, so the client converges without double-applying.

mod resolve;
mod slot;

pub use resolve::{ResolvedStatus, Resolver};
pub use slot::{
    read_table, rid_client, rid_seq, stamp, table_roots, write_table_setup, SlotKind, SlotRecord,
    SlotSpec, SlotTable, TableScan, RECORD_WORDS, ROOT_BASE, ROOT_CLIENTS, ROOT_RING,
};
