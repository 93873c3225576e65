//! The five log-free data structures (LFDs) evaluated by the paper
//! (§6.1), written against the [`lrp_exec::PmemCtx`] access trait so the
//! same code runs under the functional executor (to generate traces), the
//! immediate context (for fast sequential tests), and — via trace replay —
//! the timing simulator.
//!
//! * [`list::LinkedList`] — Harris/Michael sorted lock-free linked list,
//! * [`hashmap::HashMap`] — Michael lock-free hash table (one lock-free
//!   list per bucket),
//! * [`bst::Bst`] — Natarajan–Mittal lock-free external binary search
//!   tree,
//! * [`skiplist::SkipList`] — lock-free skip list,
//! * [`queue::Queue`] — Michael–Scott lock-free queue.
//!
//! Synchronization operations carry release/acquire annotations exactly
//! as the paper requires ("all workloads are data-race-free in that
//! synchronization operations are properly labelled"): publishing CASes
//! are acquire-release, shared pointer loads are acquires, and
//! initialization of private nodes is plain.
//!
//! [`handle`] is the one owner of a populated structure: it creates,
//! pre-populates and roots it, issues its labelled operations and looks
//! keys up in a durable image. [`harness`] generates SynchroBench-style
//! workloads (1:1 insert:delete, 100% updates by default) over it, and
//! [`validate`] checks structural integrity of a memory image — the
//! null-recovery check used after simulated crashes.

pub mod bst;
pub mod handle;
pub mod harness;
pub mod hashmap;
pub mod list;
pub mod ptr;
pub mod queue;
pub mod skiplist;
pub mod validate;

pub use handle::{Handle, SetOp};
pub use harness::{KeyDist, KeySampler, Structure, WorkloadSpec, Zipfian};
pub use validate::{validate_image, MemImage, Recovered, ValidationError};
