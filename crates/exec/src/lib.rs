//! Deterministic lockstep concurrent executor.
//!
//! The paper's methodology (§6.3) instruments x86 binaries with Pin and
//! feeds the resulting memory-event stream into a timing simulator. This
//! crate plays Pin's role: data-structure code written against the
//! [`PmemCtx`] trait runs as logical threads, each an `async` worker
//! body, and all of them are polled on the caller's OS thread. Only the
//! worker that holds a single *turn* runs. Every memory access is a
//! scheduling point: the worker parks and yields, the run loop picks the
//! next holder by a seeded policy and polls it, and the parked worker
//! performs its own access on the shared functional memory once the
//! turn comes back to it. The global interleaving is recorded as an
//! [`lrp_model::Trace`]. Because each choice is a pure function of the
//! seed and the recorded history, executions are fully deterministic
//! and reproducible.
//!
//! [`run`] builds the functional memory from a setup closure for one
//! trace; [`run_on`] runs the same workers on a caller-owned memory and
//! [`Arenas`], so a long-lived owner can execute run after run on one
//! warm heap. [`block_on`] drives the same `async` code over an
//! immediate context such as [`DirectCtx`].
//!
//! # Example
//!
//! ```
//! use lrp_exec::{body, run, ExecConfig, PmemCtx, SchedPolicy};
//!
//! let cfg = ExecConfig::new(2).policy(SchedPolicy::Random(42));
//! let flag = 0x1000;
//! let trace = run(
//!     &cfg,
//!     |setup| setup.write(flag, 0),
//!     vec![
//!         body(move |mut ctx| async move {
//!             ctx.write(0x2000, 7).await;
//!             ctx.write_rel(flag, 1).await;
//!         }),
//!         body(move |mut ctx| async move {
//!             while ctx.read_acq(flag).await == 0 {}
//!             ctx.read(0x2000).await;
//!         }),
//!     ],
//! );
//! trace.validate().unwrap();
//! ```

pub mod ctx;
pub mod executor;
pub mod mem;
pub mod rng;

pub use ctx::{block_on, Arenas, DirectCtx, PmemCtx};
pub use executor::{body, run, run_on, ExecConfig, GateCtx, SchedPolicy, ThreadBody};
pub use mem::SharedMem;
pub use rng::Xorshift64;
