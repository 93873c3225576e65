//! Formal memory-consistency and persistency model substrate for the
//! *Lazy Release Persistency* (ASPLOS 2020) reproduction.
//!
//! The paper (§2.1) assumes a simple variant of Release Consistency (RC)
//! with a total order on memory events; persistency models are specified
//! as constraints on the order in which writes may persist relative to
//! that happens-before order. This crate provides:
//!
//! * the shared event vocabulary ([`Event`], [`Annot`], [`Trace`]) used by
//!   every other crate in the workspace; a trace's events and per-event
//!   site ids are plain `Vec`s, moved in whole from the executor's
//!   recorder,
//! * an **exact** happens-before closure ([`hb::HbClosure`]) implementing
//!   the RC axioms of §2.1 (one-sided release/acquire barriers,
//!   same-address program order, synchronizes-with, RMW atomicity),
//! * streaming **persist-order checkers** ([`spec`]) for Release
//!   Persistency (§4.1) and the weaker ARP rule (§3.1), plus the
//!   consistent-cut criterion used for null recovery,
//! * a [`litmus`] builder for hand-written litmus executions,
//! * a line-oriented trace [`codec`], the trace [`Census`], and the
//!   [`FxHashMap`] hasher the hot paths key by line, page and event id.
//!
//! # Example
//!
//! ```
//! use lrp_model::litmus::LitmusBuilder;
//! use lrp_model::spec::{check_rp, PersistSchedule};
//!
//! // Thread 0 publishes a node (Figure 1 of the paper).
//! let mut b = LitmusBuilder::new(2);
//! let node = 0x100;
//! let link = 0x200;
//! let w1 = b.write(0, node, 42); // node field
//! let rel = b.write_rel(0, link, node); // link CAS (modelled as release write)
//! let _ = b.read_acq(1, link);
//! let trace = b.build();
//!
//! // A schedule that persists the link before the node violates RP.
//! let mut sched = PersistSchedule::new(trace.events.len());
//! sched.set(rel, 0);
//! sched.set(w1, 1);
//! assert!(check_rp(&trace, &sched).is_err());
//! ```

pub mod census;
pub mod codec;
pub mod event;
pub mod fxmap;
pub mod hb;
pub mod litmus;
pub mod spec;
pub mod types;

pub use census::Census;
pub use event::{Event, EventKind, OpKind, OpMarker, Trace};
pub use fxmap::{FxHashMap, FxHashSet, FxHasher};
pub use types::{line_of, Addr, Annot, EventId, LineAddr, ThreadId, LINE_BYTES, WORD_BYTES};
