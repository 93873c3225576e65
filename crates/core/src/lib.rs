//! Lazy Release Persistency (LRP) — the paper's primary contribution
//! (§5), as substrate-independent mechanism logic.
//!
//! The microarchitecture of §5.2 comprises, per hardware thread:
//!
//! * an **epoch counter** incremented on every release ([`epoch`]),
//! * a **pending-persists counter** (tracked by the flush sequencer in
//!   `lrp-sim`; the mechanism expresses the waits through staged
//!   [`mech::EngineRun`]s),
//! * per-L1-line metadata — `min-epoch` plus a release bit
//!   ([`mech::LineMeta`]),
//! * a 32-entry content-addressable **Release Epoch Table**
//!   ([`ret::ReleaseEpochTable`]) holding the release-epoch of released
//!   lines, with watermark-triggered draining,
//! * a **persist engine** that scans the L1 and persists only-written
//!   lines first, then released lines in epoch order ([`engine`]).
//!
//! [`lrp::Lrp`] ties these together behind the [`mech::PersistMech`]
//! interface, upholding the four invariants of §5.1:
//!
//! * **I1** — evicting a released line waits for all earlier writes to
//!   persist (but not for the released line's own ack),
//! * **I2** — downgrading a released line additionally waits for the
//!   released line itself to persist,
//! * **I3** — a successful acquire-RMW blocks the pipeline until its
//!   write persists,
//! * **I4** — the directory persists L1 write-backs, blocking requests
//!   for that line until the persist completes (expressed through
//!   [`mech::PersistMech::dir_persists_writebacks`]).
//!
//! The timing substrate (`lrp-sim`) and the baseline mechanisms
//! (`lrp-baselines`) both build on the vocabulary defined here.

pub mod engine;
pub mod epoch;
pub mod lrp;
pub mod mech;
pub mod ret;

pub use lrp::{Lrp, LrpConfig};
pub use mech::{
    DowngradeAction, EngineRun, EvictAction, L1View, LineMeta, PersistMech, StoreAction, StoreKind,
};
pub use ret::ReleaseEpochTable;
