//! `lrp-check` — a crash-cut model checker with durable linearizability
//! as the oracle, cross-validating the `lrp-sim` timing simulator.
//!
//! The question every persistency mechanism must answer is: *for every
//! point the machine may crash, does the durable state make sense?* This
//! crate answers it in two bounded, exhaustive modes:
//!
//! 1. **Enumerate** ([`Checker::enumerate`]). A persistency discipline
//!    ([`lrp_model::spec::PersistDiscipline`]) induces a partial persist order
//!    over the writes of an execution; a crash may durably retain any
//!    *admissible cut* — a set of writes that is per-location
//!    prefix-shaped (a cache line holds one value) and downward closed
//!    under the order ([`order`]). The checker walks the whole lattice
//!    of admissible cuts with memoized state hashing and a state budget
//!    ([`cuts`]), applies null recovery (§2.3 of the paper) to each
//!    durable image, and checks **durable linearizability**: the
//!    recovered abstract state must be explained by a linearization of
//!    the operations whose decisive write is durable ([`dl`]).
//!
//! 2. **Cross-validate** ([`Checker::cross_validate`]). The simulator records a
//!    [`lrp_model::spec::PersistSchedule`] — actual flush stamps — for
//!    every run. The checker replays those stamps: the schedule must
//!    respect the mechanism's promised discipline, judged by the one
//!    streaming persist-order check
//!    ([`lrp_model::spec::check_persist_order`], so each crash point
//!    realizes an admissible cut), and every realized cut must recover
//!    and linearize. This closes the
//!    loop between the paper's hardware model (`lrp-core`,
//!    `lrp-baselines`), its formal persist-order spec (`lrp-model`),
//!    and its recovery claim (`lrp-recovery`).
//!
//! NOP (no enforcement) promises nothing: its violations are counted
//! and reported rather than failed — their existence is the paper's
//! motivation, and their disappearance under SB/BB/LRP/DPO is the
//! correctness result. Failures are minimized to a small cut and
//! rendered through the shared [`lrp_recovery::Counterexample`]
//! formatter.

pub mod cuts;
pub mod dl;
pub mod order;
pub mod verify;

pub use cuts::{enumerate_cuts, EnumStats, WriteChains};
pub use dl::{check_dl, decisive_events, DecisiveEvent, DlViolation};
pub use order::{edge_list, persist_preds};
pub use verify::{
    generator_preds, mutate_reorder, setup_failure, Checker, CrossReport, EnumReport, MAX_STATES,
};
